"""tools/mutants.py: every listed mutant applies to this tree, and the runner's verdicts."""

import importlib.util
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

_BY_NAME = {m.name: m for m in mutants.MUTANTS}


def test_names_are_unique():
    assert len(_BY_NAME) == len(mutants.MUTANTS)


@pytest.mark.parametrize("name", sorted(_BY_NAME))
def test_old_text_occurs_exactly_once(name):
    m = _BY_NAME[name]
    text = (_ROOT / m.path).read_text()
    assert text.count(m.old) == 1
    assert m.new != m.old
    for node in m.tests:
        assert (_ROOT / node.split("::")[0]).is_file(), node


def test_apply_replaces_the_old_text(tmp_path):
    m = mutants.MUTANTS[0]
    target = tmp_path / m.path
    target.parent.mkdir(parents=True)
    target.write_text(f"a\n{m.old}\nb\n")
    mutants.apply(m, tmp_path)
    assert target.read_text() == f"a\n{m.new}\nb\n"
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply(m, tmp_path)


def test_verdicts():
    kill = mutants.Mutant("k", "f", "x", "y", ("t",))
    survivor = kill._replace(survivor="item 4")
    assert mutants.verdict(kill, 1) is None and mutants.verdict(survivor, 0) is None
    assert "expected to be killed" in mutants.verdict(kill, 0)
    assert "item 4" in mutants.verdict(survivor, 1)
    for code in (2, 4, 5):  # interrupted, usage error (a missing node id), nothing collected
        assert mutants.verdict(kill, code) == mutants.verdict(survivor, code) == f"pytest exited {code}"


def test_main_exits_1_on_an_unexpected_outcome(monkeypatch, capsys):
    kill = next(m for m in mutants.MUTANTS if m.survivor is None)
    survivor = next(m for m in mutants.MUTANTS if m.survivor is not None)
    monkeypatch.setattr(mutants, "pytest_exit", lambda m: 0)  # every mutant survives
    monkeypatch.setattr(mutants, "MUTANTS", (kill,))
    assert mutants.main() == 1
    assert "survived, expected to be killed" in capsys.readouterr().out
    monkeypatch.setattr(mutants, "MUTANTS", (survivor,))
    assert mutants.main() == 0
