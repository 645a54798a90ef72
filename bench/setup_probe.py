"""Set-up cost a CLI invocation pays before any work, timed in a fresh interpreter.

    python3 bench/setup_probe.py [ALPHA1,ALPHA2 ...]

Times importing ltbounds.cli, building and running its argument parser, and
solving the auxiliary masses (both K thresholds) of each torus geometry
given.  Prints {"setup_s": seconds} as JSON.
"""

import sys
import time

t0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402

from ltbounds import cli, torus  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--version"])
for spec in sys.argv[1:]:
    torus.choose_betas(torus.TorusGeometry(tuple(float(a) for a in spec.split(","))))
elapsed = time.perf_counter() - t0
print('{"setup_s": %r}' % elapsed)
