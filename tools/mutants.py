"""A standing list of source mutants, and a runner that checks the suite still kills them.

    python3 tools/mutants.py

Each mutant is one exact replacement of `old` by `new` in one file, which
must hold `old` exactly once.  The runner copies `src`, `tests`, `tools`
and `pyproject.toml` of this checkout to a temporary directory, applies the
mutant there and runs only the mutant's pytest node ids on the copy.  A
mutant is killed when pytest reports a failing test (exit 1).  Most
mutants must be killed.  A known survivor passes its node ids today and
names the open ROADMAP item meant to kill it; when it dies, that item has
landed and the entry becomes an expected kill.

The runner prints one line per mutant and exits 1 when an expected kill
survives, a known survivor dies, or pytest ends in any other way
(a collection error, or a node id that no longer exists).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    survivor: str | None = None  # the ROADMAP item meant to kill a known survivor


_SPECTRAL1D = "src/ltbounds/spectral1d.py"
_FAMILIES = "src/ltbounds/families.py"
_TORUS = "src/ltbounds/torus.py"
_REAL_FORM = "tests/test_spectral1d.py::TestRealForm"
_SEED_INDEPENDENCE = "tests/test_cli.py::TestVerify::test_a_seeds_report_does_not_depend_on_the_other_seeds"
_WORKSPACE = "tests/test_torus.py::TestWorkspace"
_TORUS_K = "form = _form(geom)"

MUTANTS = (
    # The real lattice plan lists the zero offset's terms first, so a diagonal
    # entry is (kinetic - V(0)) - V(2k).  An entry with two terms is written
    # twice, which a buffered fancy-index update does only once.
    Mutant("zero-offset-not-first", _SPECTRAL1D,
           "for offset in sorted(np.ndindex(*widths), key=lambda offset: offset != center):",
           "for offset in np.ndindex(*widths):", (_REAL_FORM,)),
    Mutant("buffered-block-update", _SPECTRAL1D, "np.subtract.at(a.reshape(-1), a_terms[0], values[a_terms[1]])",
           "a.reshape(-1)[a_terms[0]] -= values[a_terms[1]]", (_REAL_FORM,)),
    # the k_2 = 0 modes kept add the 1D spectrum of the long axis
    Mutant("torus-unprojected", _TORUS, "geom.alphas, 0.0, True,", "geom.alphas, 0.0, False,",
           ("tests/test_torus.py::TestVerifyBound::test_long_axis_potential_matches_the_1d_spectrum",)),
    Mutant("halved-s-in-d0", _SPECTRAL1D, "(coupling / (kinetic - s))", "(coupling / (kinetic - s / 2))",
           ("tests/test_spectral1d.py::TestEnclosure::test_torus_upper_matches_the_loop_schur_complement",)),
    Mutant("scale-initial-1", _SPECTRAL1D, "scale = float(np.max(np.abs(matrix), initial=0.0))",
           "scale = float(np.max(np.abs(matrix), initial=1.0))",
           ("tests/test_spectral1d.py::TestNegativeSpectrum::test_real_cut_is_the_max_abs_one_bitwise",)),
    Mutant("zero-potential-sup-bound", _SPECTRAL1D, "c[c == 0.0] = 1.0  # a zero V gives s = 0",
           "# a zero V gives s = 0", ("tests/test_spectral1d.py::TestVerifyH1::test_zero_potential",)),
    # a seed's report must not depend on the other seeds of its stack
    Mutant("stack-wide-autocorrelation-scale", _SPECTRAL1D,
           "c = np.max(np.abs(w), axis=tuple(range(1, w.ndim)), keepdims=True, initial=0.0)",
           "c = np.max(np.abs(w), axis=tuple(range(w.ndim)), keepdims=True, initial=0.0)",
           (_SEED_INDEPENDENCE,)),
    Mutant("stacked-kinetic-einsum", _FAMILIES,
           '[float(np.einsum("k,nkj->", weights, square).real) for square in squares]',
           '[float(x) for x in np.einsum("k,snkj->s", weights, squares).real]',
           (_SEED_INDEPENDENCE,)),
    Mutant("6b-density-nodes", _FAMILIES,
           "_values_on_grid(density, (6 * band + 1,))", "_values_on_grid(density, (6 * band,))",
           ("tests/test_families.py::TestDensityAndKinetic::test_node_rule_is_exact_and_minimal",)),
    Mutant("math-tanh-in-kernel-float", "src/ltbounds/special.py",
           "return r / float(np.tanh(math.pi * r))", "return r / math.tanh(math.pi * r)",
           ("tests/test_interp.py::TestObjectives::test_float_path_is_bitwise_the_array_path",
            "tests/test_special.py")),
    Mutant("no-refill", _SPECTRAL1D, '_spare.__dict__.pop("matrix", None))', "None)",
           (f"{_WORKSPACE}::test_verification_reuses_its_matrix",)),
    Mutant("process-global-spare", _SPECTRAL1D, "_spare = threading.local()", "_spare = type('Slot', (), {})()",
           (f"{_WORKSPACE}::test_a_thread_never_refills_another_threads_spare",)),
    # every torus potential integrated before the first eigensolve
    Mutant("torus-integrals-first", _TORUS, "integrals = (", "integrals = list(",
           ("tests/test_torus.py::TestVerifyBound::test_each_potential_is_integrated_after_its_eigensolve",)),
    # K1 = 1 is proved at beta_star + tol only: one tol below it, g exceeds 1
    Mutant("beta-below-threshold", _TORUS, "beta = interp.beta_star(_THRESHOLD_TOL) + _THRESHOLD_TOL",
           "beta = interp.beta_star(_THRESHOLD_TOL) - _THRESHOLD_TOL",
           ("tests/test_unit_regime.py::test_k1_is_one_at_the_working_beta",)),
    # half the tail constant, which coth x <= 1 + c e^(-2x) pins at x = pi sqrt(beta)
    Mutant("tail-constant-halved", "tests/test_unit_regime.py",
           "return 2 / (1 - iv.exp(-2 * iv.pi * iv.sqrt(beta)))", "return 1 / (1 - iv.exp(-2 * iv.pi * iv.sqrt(beta)))",
           ("tests/test_unit_regime.py::test_tail_constant_bounds_coth",)),
    # wrong constants that a closed form pins: c07's constant potential, c09's formulas
    Mutant("torus-constant-quartered", _TORUS, _TORUS_K, "form = _Form(geom.alphas, 0.0, True, 0.25)",
           ("tests/test_acceptance.py::test_c07_torus_bounds",)),
    Mutant("c-p-quartered", "src/ltbounds/attractor.py", "C_P = math.pi / 6.0", "C_P = math.pi / 24.0",
           ("tests/test_acceptance.py::test_c09_attractor_formulas",)),
    # a torus constant 4x too small only above gamma = 1, which c07's ratios
    # (at most 0.244) let pass and the scale-3 suite (0.271-0.274) does not
    Mutant("torus-constant-quartered-above-gamma-1", _TORUS, _TORUS_K,
           "form = _Form(geom.alphas, 0.0, True, 0.25 if gamma > 1 else 1.0)",
           ("tests/test_torus.py::TestVerifyBound::test_strong_suite_above_gamma_one",)),
    # certified with pass's slack claims a continuum bound that lhs_upper exceeds
    Mutant("certified-with-slack", "src/ltbounds/reports.py", "bool(upper <= rhs)",
           "bool(upper <= rhs * (1.0 + PASS_SLACK))",
           ("tests/test_spectral1d.py::TestEnclosure::test_certified_has_no_slack",)),
    # a wrong constant that no closed form pins: trace1 alone
    Mutant("trace1-rhs-over-3.5", _FAMILIES, "k_const**2 * kin, constant_used",
           "k_const**2 * kin / (3.5 if mode == 'add' else 1.0), constant_used",
           ("tests/test_acceptance.py::test_c08_trace_inequalities",), survivor="item 12"),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text, which must occur exactly once, under root."""
    target = root / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new))


def pytest_exit(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's node ids, in a mutated temporary copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(cmd, cwd=root, env=env, capture_output=True).returncode


def verdict(mutant: Mutant, code: int) -> str | None:
    """The problem with a pytest exit code for this mutant, or None."""
    if code not in (0, 1):
        return f"pytest exited {code}"
    if mutant.survivor is None and code == 0:
        return "survived, expected to be killed"
    if mutant.survivor is not None and code == 1:
        return f"killed, listed as a survivor until {mutant.survivor}: make it an expected kill"
    return None


def main() -> int:
    problems = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        code = pytest_exit(m)
        problem = verdict(m, code)
        problems += problem is not None
        outcome = {0: "survived", 1: "killed"}.get(code, "error")
        note = f": {problem}" if problem else ""
        print(f"{m.name}: {outcome} ({time.perf_counter() - t0:.1f} s){note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {problems} not as expected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
