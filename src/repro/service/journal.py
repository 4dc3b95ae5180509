"""Write-ahead deployment journal: crash-safe durability for the daemon.

Everything the daemon promises to remember -- named deployments, the
deltas applied to them, and which acked requests they hold -- lives
in process memory.  One ``kill -9`` would silently lose every acked
commit, which is incompatible with a serving system: a client that saw
``status=ok`` must find that state again after a restart.  The journal
is the fix, in the classic write-ahead shape:

* **Append-only NDJSON log.**  One committed operation is one JSON
  object on one line: ``{"v", "seq", "kind", "data", "chain"}``.
  ``chain`` is a sha256 over the *previous* record's chain plus this
  record's content (:func:`~repro.digest.canonical_digest`, the same
  folding rule the result cache and chaos fingerprints use), so the log
  is a hash chain: any bit flipped in the middle breaks every
  subsequent link and replay refuses the file
  (:class:`JournalCorruption`) instead of serving silently wrong state.
* **Write-ahead + group commit.**  :meth:`Journal.commit` appends the
  record, applies the in-memory mutation, and then blocks until the
  record is durable.  Durability is batched: one flusher thread fsyncs
  whatever accumulated while the previous fsync ran, so N concurrent
  commits share O(1) fsyncs (group commit) and the ack-latency cost
  stays near a single fsync.
* **Torn-write tolerant replay.**  A crash can tear the final record
  (partial line, no newline, garbage tail).  Replay accepts the longest
  valid chained prefix and truncates the rest -- but only when the
  damage is confined to the tail.  A damaged record *followed by
  parseable records* is corruption, not a torn write, and replay fails
  closed.
* **Compacted snapshots.**  Every ``snapshot_every`` records the owner
  serializes its full state; the snapshot is written atomically
  (tmp + fsync + rename), the log rotates to a fresh segment, and old
  segments are deleted.  Recovery is newest-valid-snapshot plus the
  tail of records after it, so the log never grows without bound and
  recovery time is O(snapshot interval), not O(history).

The journal is deliberately generic: it stores ``(kind, data)`` records
and snapshot dicts, and knows nothing about placements.  The service
layer (:mod:`repro.service.daemon`, :mod:`repro.service.broker`)
defines the record vocabulary and the recovery semantics.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..digest import canonical_digest

__all__ = [
    "Journal",
    "JournalCorruption",
    "JournalRecord",
    "RecoveredState",
]

JOURNAL_VERSION = 1

#: The chain hash of the empty log -- the ``prev`` of record 1.
GENESIS = canonical_digest(("repro-journal-genesis",))

_SEGMENT_RE = re.compile(r"^wal-(\d{12})\.ndjson$")
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


class JournalCorruption(RuntimeError):
    """The log is damaged beyond torn-tail tolerance: a record fails
    its chain hash (or does not parse) *and* parseable records follow
    it.  Recovery fails closed instead of serving a guessed state."""


@dataclass(frozen=True)
class JournalRecord:
    """One committed operation as it appears on disk."""

    seq: int
    kind: str
    data: Dict[str, Any]
    chain: str

    def to_line(self) -> str:
        return json.dumps(
            {"v": JOURNAL_VERSION, "seq": self.seq, "kind": self.kind,
             "data": self.data, "chain": self.chain},
            separators=(",", ":"), sort_keys=True,
        )


@dataclass
class RecoveredState:
    """What :meth:`Journal.recover` found on disk."""

    #: The newest valid snapshot's state dict (``None`` on a fresh or
    #: snapshot-less journal).
    snapshot: Optional[Dict[str, Any]] = None
    #: Records after the snapshot, in seq order, duplicates dropped.
    records: List[JournalRecord] = field(default_factory=list)
    #: Sequence number replay ended at.
    seq: int = 0
    #: Diagnostics for metrics and the recovery report.
    truncated_tail_bytes: int = 0
    duplicate_records: int = 0
    skipped_snapshots: int = 0

    @property
    def empty(self) -> bool:
        return self.snapshot is None and not self.records


def record_chain(prev_chain: str, seq: int, kind: str,
                 data: Dict[str, Any]) -> str:
    """The chain hash folding rule (shared with tests)."""
    return canonical_digest((
        prev_chain, str(seq), kind,
        json.dumps(data, separators=(",", ":"), sort_keys=True),
    ))


class Journal:
    """An append-only, hash-chained, snapshot-compacted NDJSON WAL.

    ``durability`` selects what an acked commit survives:

    * ``"fsync"`` (default) -- group-commit fsync; survives power loss;
    * ``"flush"``           -- flushed to the OS; survives process
      death (``kill -9``) but not a machine crash;
    * ``"none"``            -- buffered only; benchmarking baseline.

    All methods are thread-safe.  ``commit`` serializes the
    append+apply pair under one lock so replay order always equals
    apply order, then waits for durability *outside* the lock --
    concurrent committers pipeline behind one fsync.
    """

    def __init__(self, directory: str, durability: str = "fsync",
                 snapshot_every: int = 256,
                 metrics=None) -> None:
        if durability not in ("fsync", "flush", "none"):
            raise ValueError(f"unknown durability {durability!r}")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.directory = directory
        self.durability = durability
        self.snapshot_every = snapshot_every
        os.makedirs(directory, exist_ok=True)

        self._lock = threading.Lock()
        self._sync_cond = threading.Condition(self._lock)
        self._closed = False
        self._file = None
        self._segment_base = 0
        self._seq = 0
        self._chain = GENESIS
        self._written_seq = 0
        self._synced_seq = 0
        self._durable_offset = 0
        self._records_since_snapshot = 0
        self._bytes_written = 0

        # Instruments are optional: a bare Journal (tests, tools) runs
        # without a registry.
        self._h_append = self._c_records = self._c_fsyncs = None
        self._c_snapshots = self._g_bytes = None
        if metrics is not None:
            self._h_append = metrics.histogram(
                "journal_append_ms",
                "wall milliseconds per journal commit (ack-to-durable)")
            self._c_records = metrics.counter(
                "journal_records_total", "operations journaled")
            self._c_fsyncs = metrics.counter(
                "journal_fsyncs_total", "group-commit fsync batches")
            self._c_snapshots = metrics.counter(
                "journal_snapshots_total", "compaction snapshots written")
            self._g_bytes = metrics.gauge(
                "journal_bytes", "bytes across live journal files")

        self._flusher: Optional[threading.Thread] = None
        if self.durability == "fsync":
            self._flusher = threading.Thread(
                target=self._flush_loop, name="repro-journal-fsync",
                daemon=True,
            )

    # ------------------------------------------------------------------
    # Recovery (call exactly once, before the first commit)
    # ------------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Read everything valid off disk and position the writer.

        Chooses the newest loadable snapshot, replays every chained
        record after it (across segment files, in order), tolerates a
        torn tail by truncating it, and raises
        :class:`JournalCorruption` on mid-log damage.  After recover()
        the journal appends exactly where the valid history ended.
        """
        with self._lock:
            if self._file is not None:
                raise RuntimeError("recover() must precede commits")
            state = RecoveredState()
            snapshots = self._list(_SNAPSHOT_RE)
            segments = self._list(_SEGMENT_RE)

            chosen_seq = 0
            for snap_seq, name in reversed(snapshots):
                try:
                    with open(os.path.join(self.directory, name),
                              "r", encoding="utf-8") as handle:
                        payload = json.load(handle)
                    if payload.get("seq") != snap_seq:
                        raise ValueError("snapshot seq mismatch")
                    state.snapshot = payload
                    chosen_seq = snap_seq
                    break
                except (OSError, ValueError, json.JSONDecodeError):
                    state.skipped_snapshots += 1

            self._seq = chosen_seq
            self._chain = (state.snapshot.get("chain", GENESIS)
                           if state.snapshot else GENESIS)

            tail_segment: Optional[str] = None
            for index, (base, name) in enumerate(segments):
                path = os.path.join(self.directory, name)
                last = index == len(segments) - 1
                for record in self._replay_segment(path, last, state):
                    if record.seq <= self._seq:
                        # Duplicate replay (an injected duplicated
                        # frame, or a segment overlapping the
                        # snapshot): idempotent, skip.
                        state.duplicate_records += 1
                        continue
                    if record.seq != self._seq + 1:
                        raise JournalCorruption(
                            f"sequence gap: have {self._seq}, "
                            f"next record is {record.seq} in {name}"
                        )
                    state.records.append(record)
                    self._seq = record.seq
                    self._chain = record.chain
                if last:
                    tail_segment = path
                    self._segment_base = base

            state.seq = self._seq
            if tail_segment is None:
                self._segment_base = self._seq
                tail_segment = self._segment_path(self._seq)
            self._open_segment(tail_segment)
            self._written_seq = self._synced_seq = self._seq
            self._refresh_bytes_locked()
        if self._flusher is not None:
            self._flusher.start()
        return state

    def _replay_segment(self, path: str, is_tail: bool,
                        state: RecoveredState) -> Iterator[JournalRecord]:
        """Yield chain-valid records; handle damage per the tail rule."""
        with open(path, "rb") as handle:
            raw = handle.read()
        offset = 0
        lines = raw.split(b"\n")
        chain = self._chain
        seq = self._seq
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                offset += len(line) + 1
                continue
            record = self._parse_record(stripped, chain, seq)
            if record is None:
                remainder = lines[index + 1:]
                if is_tail and not _any_parseable(remainder):
                    # Torn tail: accept the prefix, truncate the rest.
                    torn = len(raw) - offset
                    state.truncated_tail_bytes += torn
                    with open(path, "ab") as handle:
                        handle.truncate(offset)
                    return
                raise JournalCorruption(
                    f"damaged record at byte {offset} of {path} with "
                    f"valid records after it"
                )
            if record.seq > seq:
                chain = record.chain
                seq = record.seq
            yield record
            offset += len(line) + 1

    @staticmethod
    def _parse_record(line: bytes, prev_chain: str,
                      prev_seq: int) -> Optional[JournalRecord]:
        """Decode + chain-verify one line; ``None`` if invalid.

        A record whose seq is not past ``prev_seq`` (a duplicated
        frame) is verified against its *own* position being unknown --
        we only require it to be well-formed JSON with the record
        shape; the caller drops it as a duplicate.
        """
        try:
            payload = json.loads(line.decode("utf-8"))
            seq = payload["seq"]
            kind = payload["kind"]
            data = payload["data"]
            chain = payload["chain"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None
        if not isinstance(seq, int) or not isinstance(kind, str) \
                or not isinstance(data, dict) or not isinstance(chain, str):
            return None
        if seq <= prev_seq:
            return JournalRecord(seq, kind, data, chain)
        if record_chain(prev_chain, seq, kind, data) != chain:
            return None
        return JournalRecord(seq, kind, data, chain)

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------

    def commit(self, kind: str, data: Dict[str, Any],
               apply: Optional[Callable[[], Any]] = None) -> int:
        """Write-ahead commit: journal first, then apply, then ack.

        The record is appended and ``apply()`` (the in-memory mutation)
        runs under the journal lock, so the on-disk order is exactly
        the apply order.  The call returns -- and the caller may ack
        the client -- only once the record is durable under the
        configured ``durability``.  Returns the record's seq.
        """
        import time as _time

        begun = _time.perf_counter()
        with self._lock:
            if self._closed:
                raise RuntimeError("journal is closed")
            if self._file is None:
                raise RuntimeError("journal used before recover()")
            seq = self._seq + 1
            chain = record_chain(self._chain, seq, kind, data)
            record = JournalRecord(seq, kind, data, chain)
            line = record.to_line() + "\n"
            encoded = line.encode("utf-8")
            self._file.write(encoded)
            self._bytes_written += len(encoded)
            self._seq = seq
            self._chain = chain
            self._written_seq = seq
            self._records_since_snapshot += 1
            if apply is not None:
                apply()
            if self.durability == "fsync":
                self._sync_cond.notify_all()
        if self.durability == "fsync":
            self._await_sync(seq)
        elif self.durability == "flush":
            with self._lock:
                self._flush_locked()
        if self._c_records is not None:
            self._c_records.inc()
            self._h_append.observe((_time.perf_counter() - begun) * 1e3)
            self._g_bytes.set(float(self._bytes_written))
        return seq

    append = commit

    def _await_sync(self, seq: int) -> None:
        with self._sync_cond:
            while self._synced_seq < seq and not self._closed:
                self._sync_cond.wait(timeout=0.5)

    def _flush_loop(self) -> None:
        """Group commit: one fsync covers every record that accumulated
        while the previous fsync was in flight."""
        while True:
            with self._sync_cond:
                while (self._written_seq <= self._synced_seq
                       and not self._closed):
                    self._sync_cond.wait(timeout=0.5)
                if self._closed:
                    return
                target = self._written_seq
                file = self._file
                file.flush()
            try:
                os.fsync(file.fileno())
            except (OSError, ValueError):  # pragma: no cover - fd gone
                with self._sync_cond:
                    if self._closed:
                        return
                continue
            with self._sync_cond:
                self._synced_seq = max(self._synced_seq, target)
                try:
                    self._durable_offset = file.tell()
                except (OSError, ValueError):  # pragma: no cover
                    pass
                if self._c_fsyncs is not None:
                    self._c_fsyncs.inc()
                self._sync_cond.notify_all()

    def _flush_locked(self) -> None:
        self._file.flush()
        self._synced_seq = self._written_seq
        self._durable_offset = self._file.tell()

    def sync(self) -> None:
        """Force everything written so far durable (drain/shutdown)."""
        with self._lock:
            if self._file is None or self._closed:
                return
            self._flush_locked()
            file = self._file
        if self.durability == "fsync":
            try:
                os.fsync(file.fileno())
            except (OSError, ValueError):  # pragma: no cover - fd gone
                pass

    # ------------------------------------------------------------------
    # Snapshots / compaction
    # ------------------------------------------------------------------

    def maybe_snapshot(self, state_fn: Callable[[], Dict[str, Any]]) -> bool:
        """Compact when ``snapshot_every`` records accumulated."""
        with self._lock:
            due = self._records_since_snapshot >= self.snapshot_every
        if not due:
            return False
        self.snapshot(state_fn)
        return True

    def snapshot(self, state_fn: Callable[[], Dict[str, Any]]) -> int:
        """Serialize full state, rotate the log, delete old segments.

        ``state_fn`` runs under the journal lock so the snapshot is
        consistent with a record boundary: it sees exactly the state
        produced by records ``1..seq``.
        """
        with self._lock:
            if self._file is None or self._closed:
                raise RuntimeError("journal not open")
            seq = self._seq
            state = dict(state_fn())
            state["seq"] = seq
            state["chain"] = self._chain
            state["v"] = JOURNAL_VERSION
            # Seal the current segment before the snapshot claims to
            # cover it.
            self._flush_locked()
            old_file = self._file
            try:
                os.fsync(old_file.fileno())
            except (OSError, ValueError):  # pragma: no cover
                pass
            # New segment first: if we crash before the snapshot
            # renames into place, recovery replays the old snapshot
            # plus both segments and loses nothing.
            self._segment_base = seq
            self._open_segment(self._segment_path(seq))
            self._records_since_snapshot = 0

            tmp = os.path.join(self.directory, f".snapshot-{seq:012d}.tmp")
            final = os.path.join(self.directory, f"snapshot-{seq:012d}.json")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(state, handle, separators=(",", ":"),
                          sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
            old_file.close()
            self._gc_locked(seq)
            self._refresh_bytes_locked()
            if self._c_snapshots is not None:
                self._c_snapshots.inc()
        return seq

    def _gc_locked(self, covered_seq: int) -> None:
        """Drop snapshots/segments the newest snapshot supersedes.

        One older snapshot generation (and the segments needed to
        replay from it) is kept as insurance against a latent defect in
        the newest snapshot file.
        """
        snapshots = self._list(_SNAPSHOT_RE)
        keep_from = snapshots[-2][0] if len(snapshots) >= 2 else covered_seq
        for snap_seq, name in snapshots[:-2]:
            _unlink(os.path.join(self.directory, name))
        for base, name in self._list(_SEGMENT_RE):
            if base < keep_from and base != self._segment_base:
                # A segment is replayed from its base seq; it is dead
                # only if an older *kept* snapshot already covers it.
                _unlink(os.path.join(self.directory, name))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq

    @property
    def synced_seq(self) -> int:
        with self._lock:
            return self._synced_seq

    def durable_offset(self) -> int:
        """Bytes of the tail segment known durable (the chaos
        harness's torn-write injection boundary)."""
        with self._lock:
            return self._durable_offset

    def tail_path(self) -> str:
        with self._lock:
            return self._segment_path(self._segment_base)

    def lag(self) -> Dict[str, int]:
        """Durability lag for health checks."""
        with self._lock:
            return {
                "seq": self._seq,
                "synced_seq": self._synced_seq,
                "lag_records": self._seq - self._synced_seq,
                "records_since_snapshot": self._records_since_snapshot,
                "bytes": self._bytes_written,
            }

    def close(self) -> None:
        self.sync()
        with self._sync_cond:
            self._closed = True
            self._sync_cond.notify_all()
            file = self._file
            self._file = None
        if self._flusher is not None and self._flusher.is_alive():
            self._flusher.join(timeout=2.0)
        if file is not None:
            try:
                file.flush()
                if self.durability == "fsync":
                    os.fsync(file.fileno())
            except (OSError, ValueError):  # pragma: no cover
                pass
            file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals (callers hold the lock unless noted)
    # ------------------------------------------------------------------

    def _segment_path(self, base: int) -> str:
        return os.path.join(self.directory, f"wal-{base:012d}.ndjson")

    def _open_segment(self, path: str) -> None:
        self._file = open(path, "ab")
        self._durable_offset = self._file.tell()

    def _list(self, pattern: re.Pattern) -> List[Tuple[int, str]]:
        """(seq, filename) matches in the directory, ascending seq."""
        found = []
        for name in os.listdir(self.directory):
            match = pattern.match(name)
            if match:
                found.append((int(match.group(1)), name))
        found.sort()
        return found

    def _refresh_bytes_locked(self) -> None:
        total = 0
        for _seq, name in self._list(_SEGMENT_RE) + self._list(_SNAPSHOT_RE):
            try:
                total += os.path.getsize(os.path.join(self.directory, name))
            except OSError:  # pragma: no cover - raced a gc
                pass
        self._bytes_written = total
        if self._g_bytes is not None:
            self._g_bytes.set(float(total))


def _any_parseable(lines: List[bytes]) -> bool:
    """True if any later line still looks like a journal record --
    the torn-tail/corruption discriminator."""
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        try:
            payload = json.loads(stripped.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(payload, dict) and {"seq", "kind", "chain"} <= set(payload):
            return True
    return False


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - raced
        pass
