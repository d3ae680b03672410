"""Per-shard standby replicas fed by WAL record shipping.

Each shard's :class:`~repro.server.server.QueryServer` WAL-logs every
update before applying it (DESIGN.md §11).  The router ships each logged
record — its LSN and operation — to the shard's :class:`Replica`, which
buffers a small window and applies it to a standby index every
``ship_every`` records, so the standby trails the primary by a bounded
lag.  On failover :meth:`Replica.promote` discards the in-flight buffer
(shipments are not acknowledged durably; the log is the truth) and
catches up from the records past its applied LSN read straight from the
shard's WAL directory, which is cheap because only the lag window
remains.

:class:`ShardFailurePlan` is the cluster-level sibling of
:class:`~repro.chaos.plan.FaultPlan`: a seeded, frozen schedule of
whole-shard failures the router applies at event time during a replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.chaos.plan import FaultPlan
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.graph_grid import GraphGrid
from repro.core.messages import Message
from repro.errors import ClusterError
from repro.persist.wal import WalRecord, read_wal
from repro.roadnet.graph import RoadNetwork


class Replica:
    """A lagged standby index for one shard.

    The replica holds its own :class:`~repro.core.ggrid.GGridIndex`
    (sharing the primary's immutable :class:`GraphGrid`) and an ordered
    buffer of shipped-but-unapplied WAL records.

    Attributes:
        applied_lsn: LSN of the newest record applied to the standby.
        shipped: records shipped to this replica over its lifetime.
    """

    def __init__(
        self,
        shard_id: int,
        graph: RoadNetwork,
        config: GGridConfig,
        grid: GraphGrid,
        ship_every: int = 8,
    ) -> None:
        if ship_every < 1:
            raise ClusterError(f"ship_every must be >= 1, got {ship_every}")
        self.shard_id = shard_id
        self.index = GGridIndex(graph, config, grid=grid)
        self.ship_every = ship_every
        self.applied_lsn = 0
        self.shipped = 0
        self._buffer: list[WalRecord] = []

    @property
    def lag(self) -> int:
        """Shipped records not yet applied to the standby."""
        return len(self._buffer)

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def ship_ingest(self, lsn: int, message: Message) -> None:
        """Ship one logged location update (LSN from the primary's WAL)."""
        self._ship(WalRecord.ingest(lsn, message))

    def ship_remove(self, lsn: int, obj: int, t: float) -> None:
        """Ship one logged object removal."""
        self._ship(WalRecord.remove(lsn, obj, t))

    def _ship(self, record: WalRecord) -> None:
        if record.lsn <= self.applied_lsn or (
            self._buffer and record.lsn <= self._buffer[-1].lsn
        ):
            raise ClusterError(
                f"out-of-order shipment: lsn {record.lsn} after "
                f"{self._buffer[-1].lsn if self._buffer else self.applied_lsn}"
            )
        self._buffer.append(record)
        self.shipped += 1
        if len(self._buffer) >= self.ship_every:
            self.apply_buffer()

    def apply_buffer(self) -> int:
        """Apply every buffered record to the standby, in LSN order."""
        applied = 0
        for record in self._buffer:
            record.apply(self.index)
            self.applied_lsn = record.lsn
            applied += 1
        self._buffer.clear()
        return applied

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def promote(self, wal_directory: str | Path) -> tuple[GGridIndex, int]:
        """Catch the standby up from the durable log and hand it over.

        The in-flight buffer is dropped first: the WAL is the
        authoritative record of what the dead primary acknowledged, and
        re-reading from ``applied_lsn`` replays exactly the buffered
        window (plus anything shipped after the failure was detected)
        without double-applying.  A fresh replica (``applied_lsn == 0``)
        promoted this way replays the whole log — the no-standby
        failover path.

        Returns:
            The caught-up index and the number of records replayed.

        Raises:
            PersistenceError: a log record carries an unknown op.
        """
        self._buffer.clear()
        caught_up = 0
        for record in read_wal(wal_directory).records:
            if record.lsn <= self.applied_lsn:
                continue
            record.apply(self.index)
            self.applied_lsn = record.lsn
            caught_up += 1
        return self.index, caught_up


@dataclass(frozen=True)
class ShardFailurePlan:
    """A seeded, reproducible schedule of whole-shard failures.

    Attributes:
        failures: ``(shard_id, event_time)`` pairs; the router fails each
            shard at the first event whose timestamp reaches the time.
    """

    failures: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for sid, t in self.failures:
            if sid < 0 or t < 0:
                raise ClusterError(f"invalid failure ({sid}, {t})")

    @classmethod
    def single(cls, shard_id: int, at: float) -> "ShardFailurePlan":
        """Fail one shard at one time."""
        return cls(((shard_id, at),))

    @classmethod
    def from_fault_plan(
        cls, plan: FaultPlan, num_shards: int, duration: float
    ) -> "ShardFailurePlan":
        """Derive a shard-failure schedule from a chaos fault plan.

        Deterministic in ``plan.seed``: a plan that injects any fault
        kills one randomly chosen shard somewhere in the middle half of
        the replay (a whole-process death is the cluster-level analogue
        of the plan's device faults); a fault-free plan kills nothing.
        """
        if num_shards < 1:
            raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
        if duration <= 0:
            raise ClusterError(f"duration must be positive, got {duration}")
        if not (plan.injects_device_faults or plan.max_buckets_per_cell):
            return cls()
        rng = random.Random(plan.seed)
        sid = rng.randrange(num_shards)
        at = duration * rng.uniform(0.25, 0.75)
        return cls(((sid, at),))
