"""Path scopes: which contract applies to which part of the tree.

Scope matching keys off the ``src/repro/`` segment of a file's posix
path, so the linter behaves identically whether invoked from the repo
root (``python -m repro.devtools.reprolint src``), from tests with
absolute paths, or on fixture trees that mirror the layout under a
temporary directory.

``core/reference.py`` is excluded from the determinism scopes by
design: it is the *pre-contract* frozenset oracle, kept verbatim so the
bitmask rewrite stays falsifiable, and deliberately exhibits the
patterns the rewrite removed.  Rule RPL202 instead polices who may
import it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

#: Directories whose modules carry the bit-identical determinism
#: contract (PRs 1–2): solver pipelines, kernels, and the engine.
DETERMINISM_DIRS = (
    "core/",
    "engine/",
    "solvers/",
    "preprocess/",
    "reductions/",
    "setcover/",
    "flow/",
    "matching/",
    "graph/",
)

#: Modules rewritten onto interned bitmasks in PR 2; frozenset algebra
#: inside them (outside the PropertySpace boundary) is a regression.
#: The kernel module (PR 6) hosts the moved hot paths and carries the
#: same contract.
MASK_MODULES = (
    "core/mincover.py",
    "core/kernels/pyjit.py",
    "preprocess/dominated.py",
    "preprocess/decompose.py",
    "reductions/mc3_to_wsc.py",
    "setcover/greedy.py",
    "setcover/bucket_greedy.py",
)

#: The frozen pre-bitset oracle (see module docstring).
REFERENCE_MODULE = "core/reference.py"


def repro_relative(scope_key: str) -> Optional[str]:
    """Path inside ``src/repro/``, or ``None`` for non-package files."""
    marker = "src/repro/"
    index = scope_key.rfind(marker)
    if index < 0:
        return None
    return scope_key[index + len(marker) :]


def in_src(scope_key: str) -> bool:
    return repro_relative(scope_key) is not None


def is_reference_module(scope_key: str) -> bool:
    return repro_relative(scope_key) == REFERENCE_MODULE


def in_determinism_scope(scope_key: str) -> bool:
    rel = repro_relative(scope_key)
    if rel is None or rel == REFERENCE_MODULE:
        return False
    return rel.startswith(DETERMINISM_DIRS)


def in_core(scope_key: str) -> bool:
    rel = repro_relative(scope_key)
    return rel is not None and rel != REFERENCE_MODULE and rel.startswith("core/")


def in_mask_scope(scope_key: str) -> bool:
    return repro_relative(scope_key) in MASK_MODULES


def in_kernels_package(scope_key: str) -> bool:
    """The kernel package, whose modules RPL503 holds to the purity
    contract."""
    rel = repro_relative(scope_key)
    return rel is not None and rel.startswith("core/kernels/")


#: Modules that produce cache-key material (RPL204): the component
#: fingerprint and the solution-cache entry codec.  Anything
#: hash-seed- or address-dependent there silently splits one logical
#: key into many, which turns every lookup into a miss (or worse,
#: collides two distinct components).
CACHE_KEY_MODULES = (
    "core/bitspace.py",
    "engine/cache.py",
)


def in_cache_key_scope(scope_key: str) -> bool:
    return repro_relative(scope_key) in CACHE_KEY_MODULES


def in_resilience_scope(scope_key: str) -> bool:
    """The fault-handling perimeter (RPL404): the engine package plus
    the chaos harness — the modules whose ``except`` clauses decide
    whether a failure is recovered, degraded, or silently eaten."""
    rel = repro_relative(scope_key)
    if rel is None:
        return False
    return rel.startswith("engine/") or rel == "devtools/chaos.py"


def in_service_scope(scope_key: str) -> bool:
    """The planner-daemon package (RPL102 service leg, RPL505): journal
    replay must reproduce live state bit-identically, so ambient
    nondeterminism is banned except at the annotated deadline/journal-
    timestamp seams."""
    rel = repro_relative(scope_key)
    return rel is not None and rel.startswith("service/")


def in_solvers_dir(scope_key: str) -> bool:
    rel = repro_relative(scope_key)
    return rel is not None and rel.startswith("solvers/")


def in_tests_or_benchmarks(path: str) -> bool:
    """True for files under a literal ``tests``/``benchmarks`` directory
    (the callers allowed to import the reference oracle directly)."""
    parts = Path(path).parts
    return "tests" in parts or "benchmarks" in parts
