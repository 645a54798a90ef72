"""Command-line front end: constants, curves, thresholds, verification batches.

Every command emits a machine-readable document (JSON; CSV for curves) that
embeds the package version, the full parameter echo and the seed, so two
runs with the same configuration are byte-identical.  Exit codes: 0 all
passed, 1 at least one bound violation, 2 usage or validity error (a
quadrature that fails its grid-doubling check included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, attractor, families, interp, special, spectral1d, torus
from .reports import ConvergenceError

VERIFY_KINDS = ("h1", "h2", "torus", "trace1", "trace2")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Parsed names left out of the config echo: argparse bookkeeping, the output
# and config paths, the curve's output format, and the attractor constants
# that the document reports under "constants".
_NOT_ECHOED = ("command", "func", "out", "config", "format", "c_lt", "c_q")


def _document(args, body: dict) -> str:
    config = {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED}
    config["seed"] = getattr(args, "seed_base", None)
    doc = {"version": __version__, "command": args.command, "config": config}
    doc.update(body)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def finite_float(text: str) -> float:
    """argparse type for every float flag: nan and +-inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_constants(args) -> int:
    lcl = special.semiclassical_constant(args.gamma, args.d)
    scaled = spectral1d._lt_constant(args.gamma, 1.0, args.d)
    body = {
        "semiclassical_constant": lcl,
        "torus_bound_constant": scaled,
        "orthonormal_constant": special.lt_to_orthonormal_constant(scaled, args.d)
        if args.gamma == 1
        else None,
    }
    _emit(_document(args, body), args.out)
    return 0


def cmd_k_curve(args) -> int:
    table = interp.export_curve(args.which, args.min, args.max, args.num)
    if args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        _emit(_document(args, table.to_dict()), args.out)
    return 0


def cmd_thresholds(args) -> int:
    body = {
        "beta_star": interp.beta_star(args.tol),
        "beta_star_star": interp.beta_star_star(args.tol),
        "tol": args.tol,
    }
    _emit(_document(args, body), args.out)
    return 0


# Seeds per stack of a batch.  A stack saves numpy's per-call overhead,
# which 16 seeds already spread thin (32 gained under 3% on 64 trace1
# seeds), and a default h1 stack of 16 holds about 0.6 MB; the bench's
# 12-seed commands run as one stack.
_BATCH = 16
# Entries a stack may hold in one array.  A 1D seed's largest stacked array
# has at most m max(g m, (4b+1) n) entries: g nodes of its PSD sample grid or
# of its quadrature grid doubled, or a family's padded FFT; a torus seed's is
# its PSD grid, max(ceil(512^(1/d)), 4 (4b+1))^d entries.  Seeds that large
# are stacked fewer at a time, down to one (12 at torus band 18).
_BATCH_ENTRIES = 1 << 20


def _batch_size(args) -> int:
    modes = 4 * args.band + 1
    if args.kind == "torus":  # in floats, which a huge d takes to inf; a d below 1 is rejected by _verify_batch
        per_seed = math.prod(map(float, spectral1d._psd_grid((modes,) * max(args.d, 1))))
    else:
        nodes = max(*spectral1d._psd_grid((modes,)), 2 * spectral1d._QUAD_PER_MODE * modes)
        per_seed = args.m_dim * max(nodes * args.m_dim, modes * args.family_size)
    return max(1, min(_BATCH, int(_BATCH_ENTRIES // max(per_seed, 1))))


def _verify_batch(kind: str, args, seeds) -> list:
    """The reports of consecutive seeds, in seed order, from one call of
    each public list function: the seeds are drawn and validated as one
    stack, then each seed's eigensolves and report run in turn."""
    if kind == "torus":
        geom = torus.TorusGeometry((args.alpha,) * (args.d - 1) + (1.0,))
        # The default truncation follows from the band alone, so its size is
        # checked before any potential is built, after the checks that reject
        # these flags first: the potential's parameters and band cover, then gamma.
        spectral1d._check_psd_params(args.d, 1, args.band, args.scale)
        spectral1d._check_gamma(args.gamma)
        spectral1d._check_rows(torus._default_modes((2 * args.band,) * args.d), 1, projected=True)
        pots = torus.ScalarPotentialD.random(args.d, args.band, args.scale, seeds)
        return torus.verify_bound_torus(pots, geom, args.gamma, seeds=seeds)
    if kind in ("h1", "h2"):
        pots = spectral1d.random_psd_potential(args.m_dim, args.band, args.scale, seeds)
        if kind == "h1":
            return spectral1d.verify_bound_h1(pots, args.alpha, args.beta, args.gamma, seeds=seeds)
        return spectral1d.verify_bound_h2(pots, args.delta, args.gamma, seeds=seeds)
    fams = families.random_orthonormal_family(args.family_size, args.m_dim, args.band, kind == "trace2", seeds)
    if kind == "trace1":
        return families.verify_trace1(fams, args.alpha, args.beta, seeds=seeds)
    return families.verify_trace2(fams, args.delta, seeds=seeds)


def cmd_verify(args) -> int:
    if args.seeds < 1:
        return _fail_usage("--seeds must be >= 1")
    if args.seed_base < 0:
        return _fail_usage("--seed-base must be >= 0")
    if args.rhs_scale <= 0:
        return _fail_usage("--rhs-scale must be > 0")

    # Chunks run in order on this thread; the dense eigensolves' BLAS threads
    # are the only parallelism, since a seed pool on top oversubscribes cores.
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    size = _batch_size(args)
    reports = [rep for i in range(0, len(seeds), size) for rep in _verify_batch(args.kind, args, seeds[i:i + size])]
    if args.rhs_scale != 1.0:
        reports = [rep.with_rhs_scaled(args.rhs_scale) for rep in reports]
    all_pass = all(rep.passed for rep in reports)
    body = {"reports": [rep.to_dict() for rep in reports], "all_pass": all_pass}
    _emit(_document(args, body), args.out)
    return 0 if all_pass else 1


def cmd_attractor(args) -> int:
    params = attractor.FlowParams(
        nu=args.nu,
        mu=args.mu,
        length=args.length,
        grad_g_norm=args.grad_g,
        aspect=args.aspect,
    )
    if args.formula == "square":
        value = attractor.dim_bound_square(params, c_lt=args.c_lt)
        constants = {"c_lt": args.c_lt}
    elif args.formula == "elongated":
        value = attractor.dim_bound_elongated(params, c_q=args.c_q)
        constants = {"c_p": attractor.C_P, "c_q": args.c_q}
    else:
        value = attractor.kolmogorov_number(params)
        constants = {}
    body = {"value": value, "constants": constants, "valid": True}
    _emit(_document(args, body), args.out)
    return 0


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltbounds",
        description="Sharp interpolation constants and spectral-bound verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--out", default=None)
    io_flags.add_argument("--config", default=None)

    p = sub.add_parser("constants", parents=[io_flags], help="semiclassical and torus-bound constants")
    p.add_argument("--gamma", type=finite_float, default=1.0)
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("k-curve", parents=[io_flags], help="export a K1/K2 curve")
    p.add_argument("--which", choices=("k1", "k2"), default="k1")
    p.add_argument("--min", type=finite_float, default=0.01)
    p.add_argument("--max", type=finite_float, default=0.5)
    p.add_argument("-n", "--num", type=int, default=50)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_k_curve)

    p = sub.add_parser("thresholds", parents=[io_flags], help="compute both K = 1 thresholds")
    p.add_argument("--tol", type=finite_float, default=1e-6)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("verify", parents=[io_flags], help="randomized bound verification batch")
    p.add_argument("--kind", choices=VERIFY_KINDS, default="h2")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--gamma", type=finite_float, default=1.0)
    p.add_argument("--beta", type=finite_float, default=0.5)
    p.add_argument("--delta", type=finite_float, default=0.5)
    p.add_argument("--alpha", type=finite_float, default=1.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m-dim", type=int, default=2)
    p.add_argument("--band", type=int, default=2)
    p.add_argument("--scale", type=finite_float, default=1.0)
    p.add_argument("--family-size", type=int, default=3)
    p.add_argument("--rhs-scale", type=finite_float, default=1.0,
                   help="fault injection: multiply every rhs by this factor")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("attractor", parents=[io_flags], help="closed-form dimension bounds")
    p.add_argument("--formula", choices=("square", "elongated", "kolmogorov"), default="square")
    p.add_argument("--nu", type=finite_float, default=1.0)
    p.add_argument("--mu", type=finite_float, default=1.0)
    p.add_argument("--length", type=finite_float, default=1.0)
    p.add_argument("--grad-g", type=finite_float, default=1.0)
    p.add_argument("--aspect", type=finite_float, default=1.0)
    p.add_argument("--c-lt", type=finite_float, default=1.5)
    p.add_argument("--c-q", type=finite_float, default=6.0)
    p.set_defaults(func=cmd_attractor)

    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Config entries become flags right after the subcommand, so any
            # explicit flag (parsed later) wins on conflict.
            tokens = [f"--{key}={value}" for key, value in _read_config_file(args.config).items()]
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, ArithmeticError, MemoryError, ConvergenceError) as exc:
        # OSError: an unreadable config file or an unwritable --out.
        # ArithmeticError: inputs whose arithmetic overflows or divides by an
        # underflowed zero, e.g. attractor --mu 1e-300
        # MemoryError: a request no allocation can hold, e.g. k-curve -n 10**17
        return _fail_usage(str(exc))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
