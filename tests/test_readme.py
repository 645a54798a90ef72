"""README.md's Python example runs as written."""

import pathlib
import re

_README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_example_runs_and_its_verification_passes():
    block, = re.findall(r"^```python\n(.*?)^```", _README, flags=re.MULTILINE | re.DOTALL)
    lines = block.splitlines()
    at, = [i for i, line in enumerate(lines) if ".passed" in line]
    namespace = {}
    exec("\n".join(lines[:at]), namespace)
    assert eval(lines[at], namespace) is True
    exec("\n".join(lines[at + 1:]), namespace)
