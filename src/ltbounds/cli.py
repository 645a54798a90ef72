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


def _document(command: str, config: dict, body: dict) -> str:
    doc = {"version": __version__, "command": command, "config": config}
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
    config = {"gamma": args.gamma, "d": args.d, "seed": None}
    _emit(_document("constants", config, body), args.out)
    return 0


def cmd_k_curve(args) -> int:
    table = interp.export_curve(args.which, args.beta_min, args.beta_max, args.num)
    if args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        config = {
            "which": args.which,
            "min": args.beta_min,
            "max": args.beta_max,
            "num": args.num,
            "seed": None,
        }
        _emit(_document("k-curve", config, table.to_dict()), args.out)
    return 0


def cmd_thresholds(args) -> int:
    body = {
        "beta_star": interp.beta_star(args.tol),
        "beta_star_star": interp.beta_star_star(args.tol),
        "tol": args.tol,
    }
    config = {"tol": args.tol, "seed": None}
    _emit(_document("thresholds", config, body), args.out)
    return 0


def _verify_one(kind: str, args, seed: int):
    if kind == "h1":
        pot = spectral1d.random_psd_potential(args.m_dim, args.band, args.scale, seed)
        return spectral1d.verify_bound_h1(pot, args.alpha, args.beta, args.gamma, seed=seed)
    if kind == "h2":
        pot = spectral1d.random_psd_potential(args.m_dim, args.band, args.scale, seed)
        return spectral1d.verify_bound_h2(pot, args.delta, args.gamma, seed=seed)
    if kind == "torus":
        geom = torus.TorusGeometry((args.alpha,) * (args.d - 1) + (1.0,))
        # The default truncation follows from the band alone, so its size is
        # checked before the potential is built.  The checks that reject these
        # flags first (the potential's parameters and band cover, then gamma)
        # keep their order.
        spectral1d._check_psd_params(args.d, 1, args.band, args.scale)
        spectral1d._check_gamma(args.gamma)
        spectral1d._check_rows(torus._default_modes((2 * args.band,) * args.d), 1, projected=True)
        pot = torus.ScalarPotentialD.random(args.d, args.band, args.scale, seed)
        return torus.verify_bound_torus(pot, geom, args.gamma, seed=seed)
    if kind == "trace1":
        fam = families.random_orthonormal_family(
            args.family_size, args.m_dim, args.band, False, seed
        )
        return families.verify_trace1(fam, args.alpha, args.beta, seed=seed)
    if kind == "trace2":
        fam = families.random_orthonormal_family(
            args.family_size, args.m_dim, args.band, True, seed
        )
        return families.verify_trace2(fam, args.delta, seed=seed)
    raise ValueError(f"unknown verify kind {kind!r}")


def cmd_verify(args) -> int:
    if args.seeds < 1:
        return _fail_usage("--seeds must be >= 1")
    if args.rhs_scale <= 0:
        return _fail_usage("--rhs-scale must be > 0")

    # Seeds run in order on this thread; the dense eigensolves' BLAS threads
    # are the only parallelism, since a seed pool on top oversubscribes cores.
    seeds = [args.seed_base + i for i in range(args.seeds)]
    reports = [_verify_one(args.kind, args, s) for s in seeds]
    if args.rhs_scale != 1.0:
        reports = [rep.with_rhs_scaled(args.rhs_scale) for rep in reports]
    all_pass = all(rep.passed for rep in reports)
    config = {
        "kind": args.kind,
        "seeds": args.seeds,
        "seed_base": args.seed_base,
        "seed": args.seed_base,
        "gamma": args.gamma,
        "beta": args.beta,
        "delta": args.delta,
        "alpha": args.alpha,
        "d": args.d,
        "m_dim": args.m_dim,
        "band": args.band,
        "scale": args.scale,
        "family_size": args.family_size,
        "rhs_scale": args.rhs_scale,
    }
    body = {"reports": [rep.to_dict() for rep in reports], "all_pass": all_pass}
    _emit(_document("verify", config, body), args.out)
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
    config = {
        "formula": args.formula,
        "nu": args.nu,
        "mu": args.mu,
        "length": args.length,
        "grad_g": args.grad_g,
        "aspect": args.aspect,
        "seed": None,
    }
    body = {"value": value, "constants": constants, "valid": True}
    _emit(_document("attractor", config, body), args.out)
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
    p.add_argument("--min", dest="beta_min", type=finite_float, default=0.01)
    p.add_argument("--max", dest="beta_max", type=finite_float, default=0.5)
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


def _inject_config(argv: list[str]) -> list[str]:
    # Config entries become flags inserted right after the subcommand, so any
    # explicit command-line flag (parsed later) wins on conflict; argparse
    # rejects a trailing --config.
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    else:
        return argv
    tokens = [f"--{key}={value}" for key, value in _read_config_file(path).items()]
    return argv[:1] + tokens + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _inject_config(argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        return _fail_usage(str(exc))
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, ConvergenceError) as exc:
        # ArithmeticError: inputs whose arithmetic overflows or divides by an
        # underflowed zero, e.g. attractor --mu 1e-300
        return _fail_usage(str(exc))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
