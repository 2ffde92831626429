"""The bit-identity matrix command (``python -m repro.devtools.identity``)."""

from __future__ import annotations

import os

import pytest

from repro.datasets import bestbuy_like
from repro.devtools import identity
from repro.solvers import make_solver

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_plan_fields_pin_what_a_plan_reproduces():
    result = make_solver("mc3-general").solve(bestbuy_like(n=60, seed=1))
    fields = dict(identity.plan_fields(result))
    assert list(fields) == [
        "classifiers", "cost", "lower_bound", "lower_bound_counts", "preprocess",
    ]
    assert fields["cost"] == result.cost.hex()
    assert "elapsed_seconds" not in dict(fields["preprocess"])


def test_first_difference_names_the_field():
    plan = [("classifiers", [["a"]]), ("cost", "0x1.0p+0")]
    moved = [("classifiers", [["a"]]), ("cost", "0x1.8p+0")]
    assert identity.first_difference({"x": [plan]}, {"x": [plan]}) is None
    assert identity.first_difference({"x": [plan, plan]}, {"x": [plan, moved]}) == (
        "x", 1, "cost", "0x1.0p+0", "0x1.8p+0",
    )
    assert identity.first_difference({"x": [plan]}, {"x": []})[2] == "plan count"


def test_a_tree_matches_itself(monkeypatch, capsys):
    monkeypatch.setattr(identity, "SETTINGS", ((1, "off", "0"), (1, "memory", "7")))
    tree = os.path.abspath(ROOT)
    assert identity.compare([("a", tree), ("b", tree)], quick=True) == 0
    printed = capsys.readouterr().out.split("\n")
    names = [line.split(":")[0] for line in printed if line]
    assert names == ["bestbuy-1000", "daemon", "drift", "private-3000", "synthetic-300"]


def test_a_moved_field_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(identity, "SETTINGS", ((1, "off", "0"),))
    real = identity.run_tree

    def run_tree(tree, setting, quick):
        output = real(os.path.abspath(ROOT), setting, quick)
        if tree == "moved":
            output["drift"][1][1] = ["cost", "0x0p+0"]
        return output

    monkeypatch.setattr(identity, "run_tree", run_tree)
    assert identity.compare([("base", "base"), ("moved", "moved")], quick=True) == 1
    assert "input drift, plan 1, field 'cost'" in capsys.readouterr().out


def test_requires_a_target():
    with pytest.raises(SystemExit):
        identity.main([])


def test_emit_quick_in_process():
    output = identity.emit(1, "memory", quick=True)
    assert len(output["drift"]) == identity.SIZES[True]["windows"]
    assert output["daemon"][0][0][0] == "state_digest"
    # The drift windows with the memo on equal cache-off solves.
    assert output["drift"] == identity.emit(1, "off", quick=True)["drift"]
