"""A CRC-framed, segment-rotating write-ahead log for index updates.

Every mutating operation — ``ingest`` and ``remove_object`` — is
append-logged as one framed record before (or, for the conformance
definition below, atomically with) being applied to the in-memory
index, so a process death never loses an acknowledged update.  The
design follows the classic snapshot + replay recovery model for massive
update streams (see PAPERS.md: the manycore moving-objects line and
FliX's durable ingest log decoupled from the device-resident index):

* **Framing** — each record is ``<u32 length><u32 crc32(payload)>``
  followed by a compact JSON payload carrying the LSN, the operation
  and the message fields.  The CRC detects torn or bit-rotted tails.
* **Segments** — a segment file holds at most ``max_segment_bytes`` of
  records; appends past that rotate to a new ``wal-NNNNNNNN.seg``.
  Every segment starts with an 8-byte magic so foreign files fail fast.
* **Fsync batching** — ``fsync_every`` records per ``os.fsync`` (1 =
  every append, 0 = only on rotation/close); the standard durability /
  throughput dial.
* **Torn tails** — a reader stops at the first frame that is short,
  oversized or CRC-mismatched.  Everything before it replays; the
  surviving prefix is exactly the set of complete, CRC-valid records,
  which is what the recovery conformance suite truncates against.

A writer opening an existing directory scans it, resumes the LSN
sequence after the last valid record and truncates any torn tail so the
log stays contiguous.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import PersistenceError
from repro.obs.metrics import MetricsRegistry

#: per-segment header: identifies the file format and framing version
SEGMENT_MAGIC = b"GGWAL\x00\x01\n"

#: frame header: payload length, then crc32 of the payload
_FRAME = struct.Struct("<II")

#: sanity bound on one record's payload — anything larger is corruption
MAX_RECORD_BYTES = 1 << 20

OP_INGEST = "ingest"
OP_REMOVE = "remove"

_SEGMENT_GLOB = "wal-*.seg"


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One logged update: an ``ingest`` message or an object removal."""

    lsn: int
    op: str
    obj: int
    edge: int | None
    offset: float | None
    t: float

    @classmethod
    def ingest(cls, lsn: int, message: Message) -> "WalRecord":
        """The record logging one location update."""
        return cls(
            lsn, OP_INGEST, message.obj, message.edge, message.offset, message.t
        )

    @classmethod
    def remove(cls, lsn: int, obj: int, t: float) -> "WalRecord":
        """The record logging one object removal."""
        return cls(lsn, OP_REMOVE, obj, None, None, t)

    def to_message(self) -> Message:
        """The :class:`Message` an ``ingest`` record replays as."""
        if self.op != OP_INGEST:
            raise PersistenceError(f"record lsn={self.lsn} is not an ingest")
        return Message(self.obj, self.edge, self.offset, self.t)

    def apply(self, index: GGridIndex) -> None:
        """Replay this record on ``index`` — the one interpreter of WAL
        ops, shared by recovery, standby replicas and WAL failover.

        Raises:
            PersistenceError: the record carries an unknown op.
        """
        if self.op == OP_INGEST:
            index.ingest(self.to_message())
        elif self.op == OP_REMOVE:
            index.remove_object(self.obj, self.t)
        else:
            raise PersistenceError(f"unknown WAL op {self.op!r} at lsn={self.lsn}")

    def encode(self) -> bytes:
        payload = json.dumps(
            {
                "lsn": self.lsn,
                "op": self.op,
                "obj": self.obj,
                "edge": self.edge,
                "offset": self.offset,
                "t": self.t,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    @staticmethod
    def decode_payload(payload: bytes) -> "WalRecord":
        try:
            raw = json.loads(payload.decode("utf-8"))
            return WalRecord(
                lsn=int(raw["lsn"]),
                op=str(raw["op"]),
                obj=int(raw["obj"]),
                edge=None if raw["edge"] is None else int(raw["edge"]),
                offset=None if raw["offset"] is None else float(raw["offset"]),
                t=float(raw["t"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"undecodable WAL payload: {exc}") from exc


@dataclass(frozen=True, slots=True)
class WalAppend:
    """Where one appended record landed (the conformance tests truncate
    WAL files at exactly these byte extents)."""

    lsn: int
    segment: Path
    end_offset: int
    nbytes: int


@dataclass
class WalReadResult:
    """Everything a reader could salvage from a WAL directory."""

    records: list[WalRecord]
    torn: bool = False
    torn_segment: Path | None = None
    torn_offset: int = 0
    bytes_read: int = 0

    @property
    def last_lsn(self) -> int:
        """LSN of the newest surviving record (0 when the log is empty)."""
        return self.records[-1].lsn if self.records else 0


def _segments(directory: Path) -> list[Path]:
    return sorted(directory.glob(_SEGMENT_GLOB))


def _read_segment(path: Path, out: WalReadResult) -> bool:
    """Append ``path``'s valid records to ``out``.

    Returns False when the segment ends in a torn/corrupt frame — the
    caller must stop reading later segments too, because the LSN
    sequence after the tear is no longer contiguous with what survived.
    """
    data = path.read_bytes()
    if len(data) < len(SEGMENT_MAGIC) or not data.startswith(SEGMENT_MAGIC):
        out.torn, out.torn_segment, out.torn_offset = True, path, 0
        return False
    pos = len(SEGMENT_MAGIC)
    while pos < len(data):
        if pos + _FRAME.size > len(data):
            out.torn, out.torn_segment, out.torn_offset = True, path, pos
            return False
        length, crc = _FRAME.unpack_from(data, pos)
        if not 0 < length <= MAX_RECORD_BYTES:
            out.torn, out.torn_segment, out.torn_offset = True, path, pos
            return False
        start = pos + _FRAME.size
        payload = data[start : start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            out.torn, out.torn_segment, out.torn_offset = True, path, pos
            return False
        try:
            record = WalRecord.decode_payload(payload)
        except PersistenceError:
            out.torn, out.torn_segment, out.torn_offset = True, path, pos
            return False
        if out.records and record.lsn != out.records[-1].lsn + 1:
            # a gap or repeat means this frame survived a tear by luck;
            # replaying it would apply updates out of order
            out.torn, out.torn_segment, out.torn_offset = True, path, pos
            return False
        out.records.append(record)
        pos = start + length
        out.bytes_read += _FRAME.size + length
    return True


def read_wal(directory: str | Path) -> WalReadResult:
    """Read every surviving record from a WAL directory.

    Replay stops at the first torn or corrupt frame anywhere in the
    segment sequence (``torn`` / ``torn_segment`` / ``torn_offset``
    report where); records after a tear cannot be trusted to be
    contiguous with the surviving prefix.
    """
    directory = Path(directory)
    result = WalReadResult(records=[])
    for segment in _segments(directory):
        if not _read_segment(segment, result):
            break
    return result


def iter_wal(directory: str | Path) -> Iterator[WalRecord]:
    """Convenience: just the surviving records, in LSN order."""
    yield from read_wal(directory).records


class WriteAheadLog:
    """Append-only durable log over a directory of rotating segments.

    Args:
        directory: segment directory (created if missing).
        max_segment_bytes: rotation threshold — an append that would
            push the current segment past this opens a new one.
        fsync_every: records per ``os.fsync`` batch; ``1`` syncs every
            append, ``0`` syncs only on rotation and close.
        registry: optional metrics registry; publishes
            ``repro_wal_records_total``, ``repro_wal_bytes_total``,
            ``repro_wal_fsyncs_total`` and ``repro_wal_segments_total``.
    """

    def __init__(
        self,
        directory: str | Path,
        max_segment_bytes: int = 4 << 20,
        fsync_every: int = 64,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_segment_bytes <= len(SEGMENT_MAGIC) + _FRAME.size:
            raise PersistenceError(
                f"max_segment_bytes {max_segment_bytes} cannot hold one record"
            )
        if fsync_every < 0:
            raise PersistenceError(f"fsync_every must be >= 0, got {fsync_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self.fsync_every = fsync_every
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self._pending_sync = 0
        self._fh = None
        self._records = None
        self._bytes = None
        self._fsyncs_metric = None
        self._segments_metric = None
        if registry is not None:
            self._records = registry.counter(
                "repro_wal_records_total",
                help="Records appended to the write-ahead log.",
                labelnames=("op",),
            )
            self._bytes = registry.counter(
                "repro_wal_bytes_total",
                help="Bytes appended to the write-ahead log (frames included).",
            ).default()
            self._fsyncs_metric = registry.counter(
                "repro_wal_fsyncs_total",
                help="fsync calls issued by the WAL writer.",
            ).default()
            self._segments_metric = registry.counter(
                "repro_wal_segments_total",
                help="WAL segments opened (including resumed ones).",
            ).default()
        self._resume()

    # ------------------------------------------------------------------
    # opening / resuming
    # ------------------------------------------------------------------
    def _resume(self) -> None:
        """Scan the directory, trim any torn tail, continue the LSN run."""
        existing = _segments(self.directory)
        salvaged = read_wal(self.directory)
        self.next_lsn = salvaged.last_lsn + 1
        if salvaged.torn and salvaged.torn_segment is not None:
            # drop the torn bytes (and any unreachable later segments) so
            # new appends extend the surviving prefix contiguously
            tear_index = existing.index(salvaged.torn_segment)
            for orphan in existing[tear_index + 1 :]:
                orphan.unlink()
            with open(salvaged.torn_segment, "r+b") as fh:
                fh.truncate(salvaged.torn_offset)
            existing = existing[: tear_index + 1]
            if salvaged.torn_offset <= len(SEGMENT_MAGIC):
                existing[-1].unlink()
                existing.pop()
        if existing:
            self._segment_index = int(existing[-1].stem.split("-")[1])
            self._segment_path = existing[-1]
            self._segment_size = self._segment_path.stat().st_size
            self._fh = open(self._segment_path, "ab")
            if self._segments_metric is not None:
                self._segments_metric.inc()
        else:
            self._segment_index = 0
            self._open_next_segment()

    def _open_next_segment(self) -> None:
        if self._fh is not None:
            self._sync(force=True)
            self._fh.close()
        self._segment_index += 1
        self._segment_path = self.directory / f"wal-{self._segment_index:08d}.seg"
        self._fh = open(self._segment_path, "wb")
        self._fh.write(SEGMENT_MAGIC)
        self._fh.flush()
        self._segment_size = len(SEGMENT_MAGIC)
        if self._segments_metric is not None:
            self._segments_metric.inc()

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """LSN of the newest durable-or-pending record (0 = empty log)."""
        return self.next_lsn - 1

    def append_ingest(self, message: Message) -> WalAppend:
        """Log one location update (Algorithm 1's input message)."""
        return self._append(WalRecord.ingest(self.next_lsn, message))

    def append_remove(self, obj: int, t: float) -> WalAppend:
        """Log one object deregistration."""
        return self._append(WalRecord.remove(self.next_lsn, obj, t))

    def _append(self, record: WalRecord) -> WalAppend:
        if self._fh is None:
            raise PersistenceError("write-ahead log is closed")
        frame = record.encode()
        if self._segment_size + len(frame) > self.max_segment_bytes:
            self._open_next_segment()
        self._fh.write(frame)
        self._segment_size += len(frame)
        self.next_lsn = record.lsn + 1
        self.records_appended += 1
        self.bytes_appended += len(frame)
        self._pending_sync += 1
        if self.fsync_every and self._pending_sync >= self.fsync_every:
            self._sync(force=True)
        else:
            self._fh.flush()
        if self._records is not None:
            self._records.labels(op=record.op).inc()
            self._bytes.inc(len(frame))
        return WalAppend(
            record.lsn, self._segment_path, self._segment_size, len(frame)
        )

    def _sync(self, force: bool = False) -> None:
        if self._fh is None or (not force and not self._pending_sync):
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self._pending_sync = 0
        if self._fsyncs_metric is not None:
            self._fsyncs_metric.inc()

    def sync(self) -> None:
        """Force pending records to stable storage (snapshot barrier)."""
        if self._pending_sync:
            self._sync(force=True)

    def segments(self) -> list[Path]:
        return _segments(self.directory)

    def close(self) -> None:
        if self._fh is not None:
            self._sync(force=True)
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
