"""Content-addressed component-solution cache.

The preprocessing step splits every workload into property-disjoint
components, and :func:`repro.core.bitspace.component_fingerprint` hashes
one component's *entire* solve-relevant content — interned property
grid, query masks, candidate costs, and every output-affecting knob
(solver token, route, resilience rung slot).  That makes
a component solution **content-addressed**: a fingerprint hit is
provably the same answer a fresh solve would produce, so repeated
traffic (sweep repetitions, nested subset prefixes, incremental batch
residuals, a future planner daemon) amortizes to O(lookup) instead of
O(solve).

Two backends implement the :class:`SolutionCache` protocol:

* :class:`MemorySolutionCache` — an in-process LRU with byte and entry
  budgets; the process-wide instance is shared across solver objects so
  hits accrue across independent ``solve()`` calls;
* :class:`DiskSolutionCache` — an on-disk content-addressed store,
  sharded by fingerprint prefix, written atomically (temp file +
  ``os.replace``) in a versioned JSON entry format, with an
  oldest-first byte-budget sweep.

Entries store the selected classifiers *and* the per-component details
dict, both in canonical sorted order, so a warm run reproduces the cold
run's solver-level details verbatim — bit-identical output is the
cache's contract, not merely its goal.  The engine only inserts
fully-verified, non-degraded outcomes (never :class:`~repro.engine.resilience.PartialSolution`
material, never fallback-rung answers — see
:func:`repro.engine.engine.SolveEngine.run`), each already checked by
the independent coverage verifier in the executor.

Both backends also own a :class:`Step3Memo`: the Algorithm 1 step-3
outcomes of the last plan, per free-property sub-group (see
docs/algorithms.md §2), which a re-plan over a slid window replays
instead of re-pruning the sub-groups it shares with the previous one.

Configuration is a choice string (``"off"``/``"memory"``/``"disk"``),
a process default seeded once at import from ``REPRO_SOLUTION_CACHE``
(directory and budget from ``REPRO_SOLUTION_CACHE_DIR`` /
``REPRO_SOLUTION_CACHE_MB``), an explicit :func:`set_default_cache`
override, and memoized shared instances per normalized
:class:`CacheConfig`.  Configs are plain picklable dataclasses so
experiment workers can carry the *spec* across process boundaries;
cache objects themselves never cross it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from repro.core.properties import Classifier, Query, classifier_sort_key
from repro.exceptions import SolverError
from repro.preprocess.pipeline import Step3Outcome

#: Bumped whenever the serialized entry layout changes; decoders treat
#: any other version as a miss, so stale stores degrade to re-solves.
ENTRY_VERSION = 1

#: Part of every solver's and route's cache token; bumped whenever the
#: component details that solvers cache change shape, so a persistent
#: cache written by an older version is never served to a newer one.
#: 2: details gained ``lower_bound`` (and best-of's ``certified``).
DETAILS_VERSION = 2

#: Environment variables consulted once, at import, for the process-wide
#: default cache configuration.
CACHE_ENV_VAR = "REPRO_SOLUTION_CACHE"
CACHE_DIR_ENV_VAR = "REPRO_SOLUTION_CACHE_DIR"
CACHE_MB_ENV_VAR = "REPRO_SOLUTION_CACHE_MB"

#: Accepted choice strings for CLI flags and the environment default.
CACHE_CHOICES: Tuple[str, ...] = ("off", "memory", "disk")

DEFAULT_MAX_MB = 64.0
DEFAULT_MAX_ENTRIES = 4096

#: Fingerprint-prefix length used for disk sharding: 256 buckets keeps
#: directory listings short up to ~10^5 entries.
_SHARD_CHARS = 2


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------


def encode_entry(
    fingerprint: str,
    classifiers: FrozenSet[Classifier],
    details: Dict[str, object],
) -> Optional[bytes]:
    """Serialize one component solution to the versioned entry format.

    Classifiers are rendered as sorted lists of sorted property names
    (``classifier_sort_key`` order — the same canonical order the rest
    of the package uses), and the JSON itself is emitted with sorted
    keys, so identical solutions always serialize to identical bytes.
    Returns ``None`` when the details dict is not JSON-serializable —
    the caller must then skip the insert rather than cache a lossy
    approximation of the outcome.
    """
    ordered = sorted(classifiers, key=classifier_sort_key)
    payload = {
        "version": ENTRY_VERSION,
        "fingerprint": fingerprint,
        "classifiers": [sorted(clf) for clf in ordered],
        "details": details,
    }
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    return text.encode("utf-8")


def decode_entry(
    blob: bytes, fingerprint: str
) -> Optional[Tuple[FrozenSet[Classifier], Dict[str, object]]]:
    """Inverse of :func:`encode_entry`; ``None`` on any mismatch.

    Corrupt bytes, a foreign entry version, or a fingerprint that does
    not match the requested one (a sharding bug or a truncated rename)
    all decode to ``None`` — the caller treats that as a miss and
    re-solves, so a damaged store can degrade performance but never
    correctness.
    """
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != ENTRY_VERSION:
        return None
    if payload.get("fingerprint") != fingerprint:
        return None
    raw = payload.get("classifiers")
    details = payload.get("details")
    if not isinstance(raw, list) or not isinstance(details, dict):
        return None
    try:
        classifiers = frozenset(frozenset(props) for props in raw)
    except TypeError:
        return None
    return classifiers, details


# ----------------------------------------------------------------------
# The protocol and its two backends
# ----------------------------------------------------------------------


@runtime_checkable
class SolutionCache(Protocol):
    """Structural type of a component-solution store.

    ``get``/``put`` move opaque encoded entry blobs; the engine owns
    the codec and the insert policy.  ``stats`` must be cheap enough to
    render into per-run telemetry.
    """

    kind: str

    def get(self, fingerprint: str) -> Optional[bytes]:
        """The stored blob for ``fingerprint``, or ``None`` on a miss."""
        ...

    def put(self, fingerprint: str, blob: bytes) -> bool:
        """Store ``blob``; False when refused (present, over budget)."""
        ...

    def stats(self) -> Dict[str, object]:
        """Counters: entries, bytes, hits, misses, inserts, evictions."""
        ...

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        ...


# Both built-in backends additionally expose ``invalidate(fingerprint)``
# — called by the engine when a fetched blob fails to decode, so a
# corrupt entry is unlinked (and counted as a ``corrupt_eviction``)
# instead of being re-read, re-failed, and re-charged against the byte
# budget on every lookup.  It is deliberately *not* part of the
# :class:`SolutionCache` protocol: bespoke stores handed in by tests or
# embedders keep working, and the engine calls it via ``getattr``.


class _StatCounters:
    """Shared lifetime counters for both backends."""

    __slots__ = ("hits", "misses", "inserts", "evictions", "corrupt_evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.corrupt_evictions = 0


# ----------------------------------------------------------------------
# Step-3 memo
# ----------------------------------------------------------------------


class Step3Memo:
    """Step-3 outcomes of the most recent plan, keyed by sub-group content.

    The key (built by :func:`repro.preprocess.pipeline.preprocess`)
    pins everything the dominated pruner reads, so a hit replays
    exactly what a fresh pruner would decide.  Each plan works through
    its own :class:`Step3MemoRun` and, when preprocessing finishes,
    leaves behind only the entries it used and the queries it saw: the
    memo never holds more than one plan, so it needs no budget of its
    own.  It lives in the parent process only; workers never see it.
    It takes no lock: a key pins everything an outcome depends on, so
    plans that overlap in time can only miss more, never replay a wrong
    outcome.
    """

    def __init__(self) -> None:
        self._entries: Dict[Hashable, Step3Outcome] = {}
        self._queries: Set[Query] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def open(self) -> "Step3MemoRun":
        """A lookup view for one plan; :meth:`Step3MemoRun.commit` ends it."""
        return Step3MemoRun(self)

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries = {}
        self._queries = set()
        return removed


class Step3MemoRun:
    """One plan's view of a :class:`Step3Memo`.

    Reads what the previous plan left, collects the entries this plan
    hits or stores and the queries it sees, and counts hits and misses
    for telemetry.  A sub-group whose first query the previous plan
    never saw is not keyed at all (:meth:`recurs`): it cannot be one the
    previous plan stored, and a load whose queries never recur, like
    the planner daemon's requests, would pay for keys it never uses.
    """

    __slots__ = (
        "_memo",
        "_previous",
        "_previous_queries",
        "_kept",
        "_queries",
        "hits",
        "misses",
    )

    def __init__(self, memo: Step3Memo):
        self._memo = memo
        self._previous = memo._entries
        self._previous_queries = memo._queries
        self._kept: Dict[Hashable, Step3Outcome] = {}
        self._queries: Set[Query] = set()
        self.hits = 0
        self.misses = 0

    def recurs(self, group: Sequence[Query]) -> bool:
        """Whether ``group``'s first query was in the previous plan."""
        self._queries.update(group)
        return group[0] in self._previous_queries

    def get(self, key: Optional[Hashable]) -> Optional[Step3Outcome]:
        """The stored outcome; the ``None`` key (a sub-group that was
        not keyed) always misses."""
        outcome = self._previous.get(key) if key is not None else None
        if outcome is None:
            self.misses += 1
        else:
            self.hits += 1
            self._kept[key] = outcome
        return outcome

    def put(self, key: Hashable, outcome: Step3Outcome) -> None:
        self._kept[key] = outcome

    def commit(self) -> None:
        """Make this plan's entries and queries the memo's whole content."""
        self._memo._entries = self._kept
        self._memo._queries = self._queries


class MemorySolutionCache:
    """In-process LRU keyed by fingerprint, with entry and byte budgets.

    ``get`` refreshes recency; ``put`` evicts least-recently-used
    entries until both budgets hold.  A blob larger than the whole byte
    budget is refused outright instead of evicting everything for one
    entry.  Thread-safe: a future planner daemon may serve lookups from
    request threads.
    """

    kind = "memory"

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = int(DEFAULT_MAX_MB * 1_000_000),
    ):
        self.max_entries = max(1, int(max_entries))
        self.max_bytes = max(1, int(max_bytes))
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._counters = _StatCounters()
        self.step3_memo = Step3Memo()

    def get(self, fingerprint: str) -> Optional[bytes]:
        with self._lock:
            blob = self._entries.get(fingerprint)
            if blob is None:
                self._counters.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self._counters.hits += 1
            return blob

    def put(self, fingerprint: str, blob: bytes) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                return False
            if len(blob) > self.max_bytes:
                return False
            self._entries[fingerprint] = blob
            self._bytes += len(blob)
            self._counters.inserts += 1
            while self._entries and (
                len(self._entries) > self.max_entries or self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self._counters.evictions += 1
            return True

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one corrupt entry (see module comment); True if present."""
        with self._lock:
            blob = self._entries.pop(fingerprint, None)
            if blob is None:
                return False
            self._bytes -= len(blob)
            self._counters.corrupt_evictions += 1
            return True

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "kind": self.kind,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self._counters.hits,
                "misses": self._counters.misses,
                "inserts": self._counters.inserts,
                "evictions": self._counters.evictions,
                "corrupt_evictions": self._counters.corrupt_evictions,
            }

    def clear(self) -> int:
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self.step3_memo.clear()
            return removed


class DiskSolutionCache:
    """On-disk content-addressed store, sharded by fingerprint prefix.

    Layout: ``<directory>/<fp[:2]>/<fp>.json``.  Writes go to a
    temporary file in the destination shard followed by ``os.replace``,
    so readers (including concurrent processes) only ever observe
    complete entries; content-addressing makes concurrent writers of the
    same fingerprint write identical bytes, so the race is benign.
    A byte budget is enforced after inserts by evicting oldest-mtime
    entries first (the running total is seeded by one directory scan on
    first use, then maintained incrementally).
    """

    kind = "disk"

    def __init__(
        self,
        directory: str,
        max_bytes: int = int(DEFAULT_MAX_MB * 1_000_000),
    ):
        self.directory = os.path.abspath(os.path.expanduser(directory))
        self.max_bytes = max(1, int(max_bytes))
        self._bytes: Optional[int] = None  # lazily seeded by _scan()
        self._lock = threading.Lock()
        self._counters = _StatCounters()
        self.step3_memo = Step3Memo()

    # -- paths ---------------------------------------------------------

    def _path(self, fingerprint: str) -> str:
        shard = fingerprint[:_SHARD_CHARS] or "00"
        return os.path.join(self.directory, shard, fingerprint + ".json")

    def _entry_paths(self) -> List[str]:
        paths: List[str] = []
        if not os.path.isdir(self.directory):
            return paths
        for shard in sorted(os.listdir(self.directory)):
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def _scan(self) -> int:
        total = 0
        for path in self._entry_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        return total

    # -- protocol ------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[bytes]:
        try:
            with open(self._path(fingerprint), "rb") as handle:
                blob = handle.read()
        except OSError:
            with self._lock:
                self._counters.misses += 1
            return None
        with self._lock:
            self._counters.hits += 1
        return blob

    def put(self, fingerprint: str, blob: bytes) -> bool:
        if len(blob) > self.max_bytes:
            return False
        path = self._path(fingerprint)
        with self._lock:
            if self._bytes is None:
                self._bytes = self._scan()
            if os.path.exists(path):
                return False
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", dir=os.path.dirname(path)
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return False
            self._bytes += len(blob)
            self._counters.inserts += 1
            if self._bytes > self.max_bytes:
                self._evict_oldest()
            return True

    def _evict_oldest(self) -> None:
        """Drop oldest-mtime entries until the byte budget holds.
        Caller holds the lock and has seeded ``self._bytes``."""
        aged: List[Tuple[float, str, int]] = []
        for path in self._entry_paths():
            try:
                status = os.stat(path)
            except OSError:
                continue
            aged.append((status.st_mtime, path, status.st_size))
        aged.sort()
        recount = sum(size for _, _, size in aged)
        for _, path, size in aged:
            if recount <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            recount -= size
            self._counters.evictions += 1
        self._bytes = recount

    def invalidate(self, fingerprint: str) -> bool:
        """Unlink one corrupt entry file (see module comment).

        Keeps the running byte tally honest, so the dead bytes stop
        counting against the budget; True when a file was removed.
        """
        path = self._path(fingerprint)
        with self._lock:
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:
                return False
            if self._bytes is not None:
                self._bytes = max(0, self._bytes - size)
            self._counters.corrupt_evictions += 1
            return True

    def stats(self) -> Dict[str, object]:
        paths = self._entry_paths()
        total = 0
        for path in paths:
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        with self._lock:
            return {
                "kind": self.kind,
                "directory": self.directory,
                "entries": len(paths),
                "bytes": total,
                "max_bytes": self.max_bytes,
                "hits": self._counters.hits,
                "misses": self._counters.misses,
                "inserts": self._counters.inserts,
                "evictions": self._counters.evictions,
                "corrupt_evictions": self._counters.corrupt_evictions,
            }

    def clear(self) -> int:
        with self._lock:
            removed = 0
            for path in self._entry_paths():
                try:
                    os.unlink(path)
                except OSError:
                    continue
                removed += 1
            self._bytes = 0
            self.step3_memo.clear()
            return removed


# ----------------------------------------------------------------------
# Configuration and resolution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheConfig:
    """A picklable cache *specification* (the object that may cross
    process boundaries — cache instances themselves never do).

    ``backend`` is a :data:`CACHE_CHOICES` string; ``directory`` applies
    to the disk backend only (``None`` = the process default directory);
    ``max_mb``/``max_entries`` default to the module budgets.
    """

    backend: str
    directory: Optional[str] = None
    max_mb: Optional[float] = None
    max_entries: Optional[int] = None


def cache_choices() -> Tuple[str, ...]:
    """Accepted ``--cache`` choice strings."""
    return CACHE_CHOICES


def default_cache_dir() -> str:
    """Disk-store directory a ``None`` directory resolves to:
    ``REPRO_SOLUTION_CACHE_DIR`` (sampled once at import), else
    ``~/.cache/mc3/solutions``."""
    if _ENV_DIR:
        return os.path.abspath(os.path.expanduser(_ENV_DIR))
    return os.path.join(os.path.expanduser("~"), ".cache", "mc3", "solutions")


def normalize_config(spec: object) -> Optional[CacheConfig]:
    """Normalize a cache spec to a concrete :class:`CacheConfig`.

    ``None`` means "the process default" (an explicit
    :func:`set_default_cache`, else the ``REPRO_SOLUTION_CACHE``
    environment choice, else off).  Strings are choice names; configs
    pass through with directory/budget defaults filled in.  Returns
    ``None`` when caching is off.
    """
    if spec is None:
        spec = _PROCESS_CONFIG if _PROCESS_CONFIG is not None else _env_config()
        if spec is None:
            return None
    if isinstance(spec, str):
        if spec not in CACHE_CHOICES:
            known = ", ".join(CACHE_CHOICES)
            raise SolverError(f"unknown cache backend {spec!r} (known: {known})")
        spec = CacheConfig(backend=spec)
    if not isinstance(spec, CacheConfig):
        raise SolverError(
            f"cache spec must be a choice string or CacheConfig, got {type(spec).__name__}"
        )
    if spec.backend == "off":
        return None
    if spec.backend not in CACHE_CHOICES:
        known = ", ".join(CACHE_CHOICES)
        raise SolverError(f"unknown cache backend {spec.backend!r} (known: {known})")
    directory = spec.directory
    if spec.backend == "disk" and directory is None:
        directory = default_cache_dir()
    max_mb = spec.max_mb if spec.max_mb is not None else _env_max_mb()
    max_entries = (
        spec.max_entries if spec.max_entries is not None else DEFAULT_MAX_ENTRIES
    )
    return CacheConfig(
        backend=spec.backend,
        directory=directory,
        max_mb=max_mb,
        max_entries=max_entries,
    )


def resolve_cache(spec: object = None) -> Optional[SolutionCache]:
    """Resolve a spec to a live cache instance, or ``None`` for off.

    Instances are memoized per normalized config, so every solver in the
    process shares one store per configuration — which is what lets
    hits accrue across independent ``solve()`` calls.  A
    :class:`SolutionCache` instance passes through unchanged (tests and
    embedders may hand the engine a bespoke store).
    """
    if isinstance(spec, (MemorySolutionCache, DiskSolutionCache)):
        return spec
    if spec is not None and not isinstance(spec, (str, CacheConfig)):
        if isinstance(spec, SolutionCache):
            return spec
    config = normalize_config(spec)
    if config is None:
        return None
    key = (config.backend, config.directory, config.max_mb, config.max_entries)
    instance = _INSTANCES.get(key)
    if instance is None:
        max_bytes = int((config.max_mb or DEFAULT_MAX_MB) * 1_000_000)
        if config.backend == "memory":
            instance = MemorySolutionCache(
                max_entries=config.max_entries or DEFAULT_MAX_ENTRIES,
                max_bytes=max_bytes,
            )
        else:
            instance = DiskSolutionCache(config.directory, max_bytes=max_bytes)
        _INSTANCES[key] = instance
    return instance


def set_default_cache(spec: object) -> None:
    """Install the process-wide default (e.g. from a CLI flag).

    ``None`` restores the import-time environment default.  The spec is
    normalized eagerly so a bad choice string fails at configuration
    time, not at the first solve.
    """
    global _PROCESS_CONFIG
    if spec is None:
        _PROCESS_CONFIG = None
        return
    config = normalize_config(spec)
    _PROCESS_CONFIG = config if config is not None else CacheConfig(backend="off")


def _env_config() -> Optional[CacheConfig]:
    if not _ENV_CHOICE or _ENV_CHOICE == "off":
        return None
    if _ENV_CHOICE not in CACHE_CHOICES:
        return None  # a typo'd env var must not break every solve
    return CacheConfig(backend=_ENV_CHOICE)


def _env_max_mb() -> float:
    if _ENV_MB:
        try:
            return max(0.001, float(_ENV_MB))
        except ValueError:
            pass
    return DEFAULT_MAX_MB


# One-time configuration reads, not per-solve nondeterminism: sampled at
# import, so a single process can never observe two different
# environment-derived cache defaults.
_ENV_CHOICE = os.environ.get(CACHE_ENV_VAR)
_ENV_DIR = os.environ.get(CACHE_DIR_ENV_VAR)
_ENV_MB = os.environ.get(CACHE_MB_ENV_VAR)

#: Explicit process-wide override installed by :func:`set_default_cache`.
_PROCESS_CONFIG: Optional[CacheConfig] = None

#: Memoized instances per normalized config key.
_INSTANCES: Dict[Tuple[object, ...], SolutionCache] = {}


# ----------------------------------------------------------------------
# Engine-side helpers
# ----------------------------------------------------------------------


def cache_token_of(target: object) -> Optional[Tuple[object, ...]]:
    """The dispatch target's cache token, or ``None`` for uncacheable.

    Solvers expose a ``cache_token()`` method, routes a ``cache_token``
    tuple attribute.  A target without either (a custom
    ``SolvesComponents`` object the engine knows nothing about) is never
    cached — the safe default, since an unknown knob the token misses
    would silently serve wrong answers.
    """
    token = getattr(target, "cache_token", None)
    if token is None:
        return None
    if callable(token):
        token = token()
    if token is None:
        return None
    return tuple(token)


class CacheRunStats:
    """Per-engine-run cache counters, rendered under
    ``details["engine"]["cache"]``; the backend's lifetime counters are
    attached as the ``store`` sub-dict.  ``step3_hits``/``step3_misses``
    count the run's :class:`Step3Memo` lookups."""

    __slots__ = (
        "kind",
        "hits",
        "misses",
        "uncacheable",
        "inserts",
        "insert_skips",
        "lookup_seconds",
        "insert_seconds",
        "step3_hits",
        "step3_misses",
    )

    def __init__(self, kind: str):
        self.kind = kind
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        self.inserts = 0
        self.insert_skips = 0
        self.lookup_seconds = 0.0
        self.insert_seconds = 0.0
        self.step3_hits = 0
        self.step3_misses = 0

    def as_dict(self, store: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        lookups = self.hits + self.misses
        rendered: Dict[str, object] = {
            "kind": self.kind,
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "inserts": self.inserts,
            "insert_skips": self.insert_skips,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "lookup_seconds": self.lookup_seconds,
            "insert_seconds": self.insert_seconds,
            "step3_hits": self.step3_hits,
            "step3_misses": self.step3_misses,
        }
        if store is not None:
            rendered["store"] = store
        return rendered
