"""Append-only, checksummed workload journal for the planner daemon.

The daemon's durable state is *which batches were admitted*, in order —
nothing else.  Solver outputs are a deterministic function of the
admitted sequence (see :meth:`repro.extensions.incremental.IncrementalPlanner.add_batch`),
so a crashed daemon recovers by replaying the journal through a fresh
planner and lands in bit-identical workload state.

Record format — one line per admitted batch::

    <canonical-json-payload> TAB <blake2b-hex-checksum> LF

The payload carries a format version, the record's sequence number, the
batch's queries (each query's properties sorted; batch arrival order
preserved — arrival order is planner state), and the effective solve
budget resolved at admission time (so replay re-solves with the same
knobs the live daemon used, not with budgets re-derived from a clock
that has since moved).  The checksum covers the payload bytes exactly.

Recovery rules (deterministic by construction):

* records are read in file order; each must end in a newline, carry a
  matching checksum, the expected format version, and the next expected
  sequence number;
* the first record that fails any check ends recovery — it and
  everything after it are dropped, and the writer truncates the file
  back to the last valid byte before appending again;
* a clean file recovers completely; an empty or missing file recovers
  to the empty sequence.

``fsync`` is on by default: :meth:`WorkloadJournal.append_batch` returns
only after the record is flushed to the OS *and* fdatasync'd, so an
admitted batch survives a ``kill -9`` arriving immediately afterwards.
The wall-clock timestamp stored per record is operator forensics only —
replay never reads it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time  # reprolint: ignore[RPL102] journal-timestamp seam: record ts is forensic metadata, never read by replay
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import ReproError

#: Bumped whenever the payload layout changes; recovery stops at a
#: foreign version instead of guessing.
JOURNAL_VERSION = 1

#: Hex digest length of the per-record checksum (blake2b, 8 bytes).
_CHECKSUM_CHARS = 16


class JournalError(ReproError):
    """The journal file cannot be opened or written."""


class JournalRecord(NamedTuple):
    """One admitted batch, as recovered from (or written to) disk."""

    seq: int
    #: Queries in batch arrival order; each query's properties sorted.
    queries: Tuple[Tuple[str, ...], ...]
    #: Effective per-component solve budget resolved at admission
    #: (``None`` = unbudgeted), replayed verbatim on recovery.
    budget_seconds: Optional[float]


class RecoveredLog(NamedTuple):
    """Outcome of scanning a journal file."""

    records: Tuple[JournalRecord, ...]
    #: File prefix (bytes) covered by valid records; the writer
    #: truncates to this offset before appending.
    valid_bytes: int
    #: Trailing entries dropped by the checksum/sequence checks.
    dropped_entries: int
    dropped_bytes: int


def _checksum(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def encode_record(
    seq: int,
    queries: Sequence[Iterable[str]],
    budget_seconds: Optional[float],
    timestamp: Optional[float] = None,
) -> bytes:
    """Serialize one record to its on-disk line (checksum included)."""
    payload_obj = {
        "v": JOURNAL_VERSION,
        "seq": seq,
        "queries": [sorted(q) for q in queries],
        "budget": budget_seconds,
        "ts": timestamp,
    }
    payload = json.dumps(payload_obj, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return payload + b"\t" + _checksum(payload).encode("ascii") + b"\n"


def _decode_line(line: bytes, expected_seq: int) -> Optional[JournalRecord]:
    """One line back to a record; ``None`` on any integrity failure."""
    if not line.endswith(b"\n"):
        return None  # truncated tail: the write never completed
    body = line[:-1]
    payload, sep, checksum = body.rpartition(b"\t")
    if not sep or len(checksum) != _CHECKSUM_CHARS:
        return None
    if _checksum(payload) != checksum.decode("ascii", "replace"):
        return None
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(obj, dict) or obj.get("v") != JOURNAL_VERSION:
        return None
    if obj.get("seq") != expected_seq:
        return None
    raw_queries = obj.get("queries")
    if not isinstance(raw_queries, list):
        return None
    queries: List[Tuple[str, ...]] = []
    for raw in raw_queries:
        if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
            return None
        queries.append(tuple(raw))
    budget = obj.get("budget")
    if budget is not None and not isinstance(budget, (int, float)):
        return None
    return JournalRecord(
        seq=expected_seq,
        queries=tuple(queries),
        budget_seconds=float(budget) if budget is not None else None,
    )


def read_journal(path: str) -> RecoveredLog:
    """Scan ``path`` and return every valid leading record.

    Never raises on damaged content: a corrupt or truncated tail is
    dropped deterministically (first bad record ends recovery), and a
    missing file recovers to the empty log.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return RecoveredLog((), 0, 0, 0)
    records: List[JournalRecord] = []
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset)
        line = data[offset:] if end < 0 else data[offset : end + 1]
        record = _decode_line(line, expected_seq=len(records))
        if record is None:
            break
        records.append(record)
        offset += len(line)
    dropped_bytes = len(data) - offset
    dropped_entries = data[offset:].count(b"\n")
    if dropped_bytes and not data.endswith(b"\n"):
        dropped_entries += 1  # the unterminated tail fragment
    return RecoveredLog(tuple(records), offset, dropped_entries, dropped_bytes)


class WorkloadJournal:
    """Writer half: recover, truncate the bad tail, then append-only.

    Opening the journal performs recovery immediately — the recovered
    records are exposed as :attr:`recovered` for the daemon to replay —
    and truncates the file to the last valid byte so a damaged tail can
    never shadow future appends.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = os.path.abspath(os.path.expanduser(path))
        self.fsync = fsync
        self.recovered = read_journal(self.path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            handle = open(self.path, "ab")
            if handle.tell() != self.recovered.valid_bytes:
                handle.truncate(self.recovered.valid_bytes)
                handle.seek(self.recovered.valid_bytes)
        except OSError as exc:
            raise JournalError(f"cannot open journal {self.path!r}: {exc}") from exc
        self._handle = handle
        #: Bytes of complete records on disk: where a failed append
        #: truncates back to.
        self._valid_bytes = self.recovered.valid_bytes
        self._next_seq = len(self.recovered.records)
        self._appended = 0
        self._closed = False

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append_batch(
        self,
        queries: Sequence[Iterable[str]],
        budget_seconds: Optional[float] = None,
    ) -> int:
        """Durably record one admitted batch; returns its sequence number.

        The record is on disk (written, flushed, fdatasync'd when
        ``fsync``) before this method returns — the write-ahead property
        the recovery contract depends on.  A failed append truncates the
        file back to its last complete record, so a torn line can never
        hide the batches appended after it from recovery.
        """
        if self._closed:
            raise JournalError("journal is closed")
        seq = self._next_seq
        timestamp = time.time()  # reprolint: ignore[RPL102] journal-timestamp seam: forensic metadata only
        line = encode_record(seq, queries, budget_seconds, timestamp)
        try:
            self._handle.write(line)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            self._rollback()
            raise JournalError(f"journal append failed: {exc}") from exc
        self._valid_bytes += len(line)
        self._next_seq = seq + 1
        self._appended += 1
        return seq

    def _rollback(self) -> None:
        """Drop a partly written record: close the handle (which may
        still flush bytes of the failed line), truncate the file to the
        last complete record and reopen it.  When even that fails the
        journal closes, so no later append can land after torn bytes."""
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            os.truncate(self.path, self._valid_bytes)
            self._handle = open(self.path, "ab")
        except OSError:
            self._closed = True

    def stats(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "next_seq": self._next_seq,
            "appended": self._appended,
            "recovered_entries": len(self.recovered.records),
            "dropped_entries": self.recovered.dropped_entries,
            "dropped_bytes": self.recovered.dropped_bytes,
            "fsync": self.fsync,
        }

    def flush(self) -> None:
        if self._closed:
            return
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "WorkloadJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
