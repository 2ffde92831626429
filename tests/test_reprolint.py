"""Tests for :mod:`repro.devtools.reprolint`.

Structure:

* paired good/bad fixture snippets per rule id (written into a
  ``src/repro/...`` mirror under ``tmp_path`` so the path scopes
  engage exactly as they do on the real tree);
* suppression-comment handling (`# reprolint: ignore[...]`);
* the JSON reporter schema;
* CLI exit codes, including the checked-in bad fixtures under
  ``tests/fixtures/reprolint/``;
* a self-check asserting the repo itself lints clean, so a CI failure
  reproduces locally with ``make lint``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.reprolint import (
    SYNTAX_ERROR_ID,
    all_rules,
    as_json_document,
    collect_files,
    lint_paths,
    render_json,
    render_text,
)
from repro.devtools.reprolint.cli import main as reprolint_main
from repro.devtools.reprolint.model import extract_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "reprolint"


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def lint(tmp_path: Path, **kwargs):
    return lint_paths([tmp_path], **kwargs)


def rule_ids(result) -> set:
    return {violation.rule_id for violation in result.violations}


# ----------------------------------------------------------------------
# Paired good/bad fixtures per rule
# ----------------------------------------------------------------------

# rule id -> (relative path, bad source, good source).  The bad snippet
# must trigger exactly that rule; the good twin must lint fully clean.
PAIRED_FIXTURES = {
    "RPL101": (
        "src/repro/setcover/newpass.py",
        """
        def drain(pending):
            bucket = {3, 1, 2}
            out = []
            for item in bucket:
                out.append(item)
            return out
        """,
        """
        def drain(pending):
            bucket = {3, 1, 2}
            out = []
            for item in sorted(bucket):
                out.append(item)
            return out
        """,
    ),
    "RPL102": (
        "src/repro/solvers/customsolver.py",
        """
        import time

        class CustomSolver:
            def solve_component(self, component):
                started = time.perf_counter()
                return set(), {"elapsed": time.perf_counter() - started}
        """,
        """
        import time

        class CustomSolver:
            def solve(self, instance):
                started = time.perf_counter()
                return started

            def solve_component(self, component):
                return set(), {}
        """,
    ),
    "RPL103": (
        "src/repro/setcover/tiebreak.py",
        """
        def pick(a_cost, b_cost):
            if a_cost == b_cost:
                return 0
            return 1 if a_cost < b_cost else 2
        """,
        """
        def pick(a_cost, b_cost):
            if a_cost < b_cost:
                return 1
            return 2
        """,
    ),
    "RPL201": (
        "src/repro/setcover/greedy.py",
        """
        def greedy_wsc(instance):
            return frozenset(instance.sets)
        """,
        """
        def greedy_wsc(instance):
            covered = 0
            for mask in instance.member_masks():
                covered |= mask
            return covered
        """,
    ),
    "RPL202": (
        "src/repro/solvers/fallback.py",
        """
        from repro.core.reference import reference_greedy_wsc

        def solve(instance):
            return reference_greedy_wsc(instance)
        """,
        """
        from repro.setcover.greedy import greedy_wsc

        def solve(instance):
            return greedy_wsc(instance)
        """,
    ),
    "RPL204": (
        "src/repro/engine/cache.py",
        """
        def key_material(parts):
            blob = []
            for name, mask in parts.items():
                blob.append((name, mask, hash(name)))
            return blob
        """,
        """
        def key_material(parts):
            blob = []
            for name, mask in sorted(parts.items()):
                blob.append((name, mask))
            return blob
        """,
    ),
    "RPL301": (
        "src/repro/solvers/structural.py",
        """
        from repro.solvers.base import ComponentSolver

        class StructuralSolver(ComponentSolver):
            def _solve(self, instance):
                return None, {}
        """,
        """
        from repro.solvers.base import ComponentSolver

        class StructuralSolver(ComponentSolver):
            def solve_component(self, component):
                return set(), {}
        """,
    ),
    "RPL401": (
        "src/repro/extensions/util.py",
        """
        def accumulate(value, seen=[]):
            seen.append(value)
            return seen
        """,
        """
        def accumulate(value, seen=None):
            if seen is None:
                seen = []
            seen.append(value)
            return seen
        """,
    ),
    "RPL402": (
        "src/repro/extensions/guard.py",
        """
        def safe(callback):
            try:
                return callback()
            except:
                return None
        """,
        """
        def safe(callback):
            try:
                return callback()
            except ValueError:
                return None
        """,
    ),
    "RPL404": (
        "src/repro/engine/fixture_guard.py",
        """
        def dispatch(callback):
            try:
                return callback()
            except Exception:
                return None
        """,
        """
        from repro.exceptions import SolverError

        def dispatch(callback):
            try:
                return callback()
            except (SolverError, MemoryError):
                return None
        """,
    ),
}

# RPL302 needs two files (registry + solver module) per scan.
RPL302_REGISTRY = """
from repro.solvers.mysolvers import AlphaSolver

_FACTORIES = {"alpha": AlphaSolver}
"""
RPL302_BAD_MODULE = """
from repro.solvers.base import Solver


class AlphaSolver(Solver):
    name = "alpha"


class BetaSolver(Solver):
    name = "beta"
"""
RPL302_GOOD_MODULE = """
from repro.solvers.base import Solver


class AlphaSolver(Solver):
    name = "alpha"
"""


@pytest.mark.parametrize("rule_id", sorted(PAIRED_FIXTURES))
def test_bad_fixture_triggers_rule(tmp_path, rule_id):
    rel, bad, _good = PAIRED_FIXTURES[rule_id]
    path = write_module(tmp_path, rel, bad)
    result = lint(tmp_path)
    assert rule_id in rule_ids(result), render_text(result)
    flagged = [v for v in result.violations if v.rule_id == rule_id]
    assert all(v.path == str(path) for v in flagged)
    assert all(v.line >= 1 for v in flagged)


@pytest.mark.parametrize("rule_id", sorted(PAIRED_FIXTURES))
def test_good_fixture_is_clean(tmp_path, rule_id):
    rel, _bad, good = PAIRED_FIXTURES[rule_id]
    write_module(tmp_path, rel, good)
    result = lint(tmp_path)
    assert result.ok, render_text(result)


def test_rpl302_unregistered_solver(tmp_path):
    write_module(tmp_path, "src/repro/solvers/registry.py", RPL302_REGISTRY)
    write_module(tmp_path, "src/repro/solvers/mysolvers.py", RPL302_BAD_MODULE)
    result = lint(tmp_path)
    flagged = [v for v in result.violations if v.rule_id == "RPL302"]
    assert len(flagged) == 1
    assert "BetaSolver" in flagged[0].message


def test_rpl302_registered_solver_is_clean(tmp_path):
    write_module(tmp_path, "src/repro/solvers/registry.py", RPL302_REGISTRY)
    write_module(tmp_path, "src/repro/solvers/mysolvers.py", RPL302_GOOD_MODULE)
    result = lint(tmp_path)
    assert result.ok, render_text(result)


def test_rpl302_silent_without_registry_in_scan(tmp_path):
    # A single-module scan cannot evaluate the registry contract.
    write_module(tmp_path, "src/repro/solvers/mysolvers.py", RPL302_BAD_MODULE)
    assert lint(tmp_path).ok


def test_rpl301_is_transitive(tmp_path):
    write_module(
        tmp_path,
        "src/repro/solvers/hierarchy.py",
        """
        from repro.solvers.base import ComponentSolver

        class Intermediate(ComponentSolver):
            def solve_component(self, component):
                return set(), {}

        class Leaf(Intermediate):
            def _solve(self, instance):
                return None, {}
        """,
    )
    result = lint(tmp_path)
    flagged = [v for v in result.violations if v.rule_id == "RPL301"]
    assert len(flagged) == 1
    assert "Leaf" in flagged[0].message


def test_rpl101_annotation_evidence(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/helper.py",
        """
        from typing import Set

        def merge(selected: Set[str]):
            out = []
            for name in selected:
                out.append(name)
            return out
        """,
    )
    assert "RPL101" in rule_ids(lint(tmp_path))


def test_rpl101_order_neutral_wrappers_are_clean(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/neutral.py",
        """
        def labels(classifiers):
            chosen = set(classifiers)
            return sorted(str(c) for c in chosen)

        def biggest(classifiers):
            chosen = frozenset(classifiers)
            return max(len(c) for c in chosen)
        """,
    )
    result = lint(tmp_path)
    assert result.ok, render_text(result)


def test_rpl101_sum_over_set_is_flagged(tmp_path):
    # sum() is deliberately NOT order-neutral: float addition rounds
    # differently per order, which is how hash seeds leak into costs.
    write_module(
        tmp_path,
        "src/repro/engine/floatsum.py",
        """
        def total(weights):
            chosen = set(weights)
            return sum(w for w in chosen)
        """,
    )
    assert "RPL101" in rule_ids(lint(tmp_path))


def test_rpl101_outside_scope_is_clean(tmp_path):
    rel = "src/repro/datasets/sampling.py"  # not a kernel directory
    _rel, bad, _good = PAIRED_FIXTURES["RPL101"]
    write_module(tmp_path, rel, bad)
    assert lint(tmp_path).ok


def test_rpl404_keyboard_interrupt_without_reraise(tmp_path):
    write_module(
        tmp_path,
        "src/repro/devtools/chaos.py",
        """
        def guarded(callback):
            try:
                return callback()
            except KeyboardInterrupt:
                return None
        """,
    )
    flagged = [
        v for v in lint(tmp_path).violations if v.rule_id == "RPL404"
    ]
    assert len(flagged) == 1
    assert "KeyboardInterrupt" in flagged[0].message


def test_rpl404_keyboard_interrupt_with_reraise_is_clean(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/cleanup.py",
        """
        def guarded(callback, release):
            try:
                return callback()
            except (KeyboardInterrupt, SystemExit):
                release()
                raise
        """,
    )
    assert lint(tmp_path).ok, render_text(lint(tmp_path))


def test_rpl404_outside_scope_is_clean(tmp_path):
    rel = "src/repro/extensions/broad.py"  # not the fault-handling perimeter
    _rel, bad, _good = PAIRED_FIXTURES["RPL404"]
    write_module(tmp_path, rel, bad)
    assert lint(tmp_path).ok


def test_rpl102_core_module_import(tmp_path):
    write_module(tmp_path, "src/repro/core/clock.py", "import random\n")
    assert "RPL102" in rule_ids(lint(tmp_path))


def test_syntax_error_is_reported_not_raised(tmp_path):
    write_module(tmp_path, "src/repro/core/broken.py", "def oops(:\n")
    result = lint(tmp_path)
    assert SYNTAX_ERROR_ID in rule_ids(result)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_suppression_comment_silences_named_rule(tmp_path):
    rel, bad, _good = PAIRED_FIXTURES["RPL101"]
    suppressed = bad.replace(
        "for item in bucket:",
        "for item in bucket:  # reprolint: ignore[RPL101] order-free fold",
    )
    write_module(tmp_path, rel, suppressed)
    result = lint(tmp_path)
    assert result.ok
    assert result.suppressed == 1


def test_bare_suppression_silences_all_rules(tmp_path):
    rel, bad, _good = PAIRED_FIXTURES["RPL402"]
    suppressed = bad.replace("except:", "except:  # reprolint: ignore")
    write_module(tmp_path, rel, suppressed)
    assert lint(tmp_path).ok


def test_suppression_for_other_rule_does_not_silence(tmp_path):
    rel, bad, _good = PAIRED_FIXTURES["RPL101"]
    wrong = bad.replace(
        "for item in bucket:",
        "for item in bucket:  # reprolint: ignore[RPL402]",
    )
    write_module(tmp_path, rel, wrong)
    assert "RPL101" in rule_ids(lint(tmp_path))


def test_extract_suppressions_parses_lists():
    table = extract_suppressions(
        "x = 1  # reprolint: ignore[RPL101, RPL103] why\n"
        "y = 2  # reprolint: ignore\n"
    )
    assert table[1] == {"RPL101", "RPL103"}
    assert table[2] == {"*"}


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------


def test_json_reporter_schema(tmp_path):
    rel, bad, _good = PAIRED_FIXTURES["RPL101"]
    write_module(tmp_path, rel, bad)
    result = lint(tmp_path)
    document = json.loads(render_json(result))
    assert document == as_json_document(result)
    assert document["tool"] == "reprolint"
    assert document["version"] == 1
    assert document["files_scanned"] == 1
    assert document["counts"]["total"] == len(document["violations"])
    assert document["counts"]["suppressed"] == 0
    assert set(document["counts"]["by_rule"]) == {"RPL101"}
    for violation in document["violations"]:
        assert set(violation) == {
            "rule",
            "name",
            "path",
            "line",
            "column",
            "message",
        }


def test_text_reporter_has_locations_and_ids(tmp_path):
    rel, bad, _good = PAIRED_FIXTURES["RPL103"]
    write_module(tmp_path, rel, bad)
    result = lint(tmp_path)
    text = render_text(result)
    assert "RPL103" in text
    violation = result.violations[0]
    assert f"{violation.path}:{violation.line}:" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def materialize_checked_in_fixtures(tmp_path: Path) -> list:
    """Copy ``tests/fixtures/reprolint/*_bad.txt`` into a src mirror.

    Fixtures carry their destination on a ``# dest:`` header line so the
    path scopes engage; they are stored as .txt precisely so the repo
    self-check does not scan them.
    """
    expected = []
    for fixture in sorted(FIXTURE_DIR.glob("*_bad.txt")):
        lines = fixture.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# dest: ")
        dest = lines[0][len("# dest: ") :].strip()
        write_module(tmp_path, dest, "\n".join(lines[1:]) + "\n")
        expected.append(fixture.name.split("_")[0])
    return expected


def test_cli_fails_on_checked_in_bad_fixtures(tmp_path, capsys):
    expected_rules = materialize_checked_in_fixtures(tmp_path)
    assert expected_rules, "no checked-in fixtures found"
    exit_code = reprolint_main([str(tmp_path)])
    output = capsys.readouterr().out
    assert exit_code == 1
    for rule_id in expected_rules:
        assert rule_id in output
    # file:line locations are part of the contract
    for line in output.splitlines()[:-1]:
        assert ".py:" in line


def test_cli_json_format(tmp_path, capsys):
    materialize_checked_in_fixtures(tmp_path)
    exit_code = reprolint_main(["--format", "json", str(tmp_path)])
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert document["counts"]["total"] > 0


def test_cli_select_restricts_rules(tmp_path, capsys):
    materialize_checked_in_fixtures(tmp_path)
    exit_code = reprolint_main(["--select", "RPL402", str(tmp_path)])
    capsys.readouterr()
    assert exit_code == 0  # none of the fixtures violate RPL402


def test_cli_unknown_rule_id_is_usage_error(tmp_path, capsys):
    exit_code = reprolint_main(["--select", "NOPE", str(tmp_path / "missing")])
    capsys.readouterr()
    assert exit_code == 2


def test_cli_no_paths_is_usage_error(capsys):
    assert reprolint_main([]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert reprolint_main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in output


def test_collect_files_skips_caches(tmp_path):
    write_module(tmp_path, "src/repro/__pycache__/junk.py", "x = 1\n")
    good = write_module(tmp_path, "src/repro/ok.py", "x = 1\n")
    assert collect_files([tmp_path]) == [good]


# ----------------------------------------------------------------------
# Self-check: the repo lints clean (CI failures reproduce locally)
# ----------------------------------------------------------------------


def test_repo_is_reprolint_clean():
    result = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)
    assert result.files_scanned > 100


def test_rule_catalogue_is_documented():
    """Every rule id appears in docs/devtools.md with its rationale."""
    doc = (REPO_ROOT / "docs" / "devtools.md").read_text(encoding="utf-8")
    for rule in all_rules():
        assert rule.rule_id in doc, f"{rule.rule_id} missing from docs/devtools.md"
        assert rule.name in doc, f"{rule.name} missing from docs/devtools.md"
