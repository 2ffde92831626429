"""Tests for the ``mc3 verify`` and ``mc3 compare`` commands."""

import pytest

from repro.cli import main as mc3_main
from repro.core import MC3Instance, Solution, save_instance, save_solution


@pytest.fixture
def files(tmp_path):
    instance = MC3Instance(
        ["a b", "c"], {"a": 1, "b": 2, "a b": 2.5, "c": 1}, name="vc"
    )
    instance_path = tmp_path / "instance.json"
    save_instance(instance, instance_path)
    good = Solution.from_instance([frozenset(("a", "b")), frozenset("c")], instance)
    good_path = tmp_path / "good.json"
    save_solution(good, good_path)
    bad = Solution([frozenset(("a", "b"))], 2.5)
    bad_path = tmp_path / "bad.json"
    save_solution(bad, bad_path)
    return instance_path, good_path, bad_path


class TestVerifyCommand:
    def test_valid_solution(self, files, capsys):
        instance_path, good_path, _bad = files
        assert mc3_main(["verify", str(instance_path), str(good_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_solution(self, files, capsys):
        instance_path, _good, bad_path = files
        assert mc3_main(["verify", str(instance_path), str(bad_path)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestCompareCommand:
    def test_default_solver_set(self, files, capsys):
        instance_path, _g, _b = files
        assert mc3_main(["compare", str(instance_path)]) == 0
        out = capsys.readouterr().out
        assert "mc3-general" in out
        assert "property-oriented" in out

    def test_explicit_solvers(self, files, capsys):
        instance_path, _g, _b = files
        code = mc3_main(
            ["compare", str(instance_path), "--solvers", "exact", "query-oriented"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact" in out and "query-oriented" in out

    def test_inapplicable_solver_reported_not_fatal(self, files, capsys):
        instance_path, _g, _b = files
        # k=2 instance actually... "a b"/"c" has k=2, so use mixed, which
        # rejects the varying costs.
        code = mc3_main(["compare", str(instance_path), "--solvers", "mixed"])
        assert code == 0
        assert "SolverError" in capsys.readouterr().out
