"""Durable persistence and crash recovery (DESIGN.md §11).

The serving-path contract:

* every ``ingest`` / ``remove_object`` is append-logged to a CRC-framed,
  segment-rotating :class:`WriteAheadLog` before it is applied;
* a :class:`SnapshotPolicy` periodically cuts CRC-wrapped compacted
  snapshots (:class:`SnapshotStore`) carrying a WAL watermark;
* after a crash, :func:`recover` loads the newest valid snapshot that
  the surviving log supports and replays the WAL records past its
  watermark, tolerating a torn tail;
* :func:`save_index` / :func:`load_index` write and read one snapshot
  file outside any durability directory, in the same envelope format.

Recovery, standby replicas (:class:`repro.cluster.replica.Replica`) and
WAL failover all apply log records through :meth:`WalRecord.apply`.

For any byte-level truncation of the log, the recovered index answers
queries byte-identically to a fresh index fed the same surviving prefix
of updates — the conformance suite in ``tests/persist`` enforces this.
"""

from repro.persist.manager import DurabilityManager, SnapshotPolicy
from repro.persist.recovery import RecoveryReport, recover
from repro.persist.snapshot import (
    SNAPSHOT_VERSION,
    LoadedSnapshot,
    SnapshotStore,
    index_from_state,
    index_state,
    load_index,
    save_index,
)
from repro.persist.wal import (
    WalAppend,
    WalReadResult,
    WalRecord,
    WriteAheadLog,
    iter_wal,
    read_wal,
)

__all__ = [
    "DurabilityManager",
    "SnapshotPolicy",
    "RecoveryReport",
    "recover",
    "SNAPSHOT_VERSION",
    "LoadedSnapshot",
    "SnapshotStore",
    "index_from_state",
    "index_state",
    "load_index",
    "save_index",
    "WalAppend",
    "WalReadResult",
    "WalRecord",
    "WriteAheadLog",
    "iter_wal",
    "read_wal",
]
