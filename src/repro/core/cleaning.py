"""Message cleaning: materialising cached updates on demand (Algorithm 2).

Given the message lists of the cells a query touches, cleaning

1. **locks** each list (fresh tail bucket, ``p_l`` pointer) and gathers
   the live buckets, discarding buckets whose newest message is older
   than ``t_now - t_delta`` (every object must update at least once per
   ``t_delta``, so such buckets are wholly obsolete);
2. **ships** the buckets to the GPU — pipelined, so the device cleans
   early chunks while later chunks are still in flight (Section V-A);
3. **deduplicates** them with the X-shuffle kernel into the intermediate
   table ``T`` (one candidate slot per object per bundle);
4. **collects** the per-object latest messages into the result table
   ``R``, copies ``R`` back and rewrites each cell's message list as the
   compacted snapshot (one message per live object).

The result — the up-to-date occupants of every cleaned cell — is what the
kNN candidate phase consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.config import GGridConfig
from repro.core.message_list import Bucket, MessageList
from repro.core.messages import CellMessage, Message
from repro.core.object_table import ObjectTable
from repro.core.xshuffle import IntermediateTable, collect_kernel, x_shuffle_kernel
from repro.obs.tracing import span
from repro.simgpu.device import SimGpu
from repro.simgpu.memory import MESSAGE_BYTES
from repro.simgpu.stream import PipelinedStream

#: Buckets are shipped to the GPU in chunks of this many bundles.
_CHUNK_BUNDLES = 4

#: Host dedup switches from the scalar loop to the columnar lexsort at
#: this many messages (numpy setup costs more than it saves below it).
_HOST_DEDUP_SCALAR_MAX = 64


@dataclass(frozen=True, slots=True)
class CleanedLocation:
    """Latest known position of an object after cleaning."""

    edge: int
    offset: float
    t: float


@dataclass
class CleaningResult:
    """Outcome of one ``Message_Cleaning`` invocation.

    Attributes:
        occupants: per cleaned cell, the live objects and their latest
            locations (removal-marker-latest objects are excluded).
        cells: the cells actually cleaned (locked lists are skipped).
        messages_processed: messages the GPU kernels consumed.
        buckets_shipped: buckets transferred to the device.
        messages_dropped: messages discarded as obsolete before transfer.
    """

    occupants: dict[int, dict[int, CleanedLocation]] = field(default_factory=dict)
    cells: set[int] = field(default_factory=set)
    messages_processed: int = 0
    buckets_shipped: int = 0
    messages_dropped: int = 0
    objects_expired: int = 0

    def all_objects(self) -> dict[int, tuple[int, CleanedLocation]]:
        """Flatten to ``{obj: (cell, location)}``."""
        flat: dict[int, tuple[int, CleanedLocation]] = {}
        for cell, objs in self.occupants.items():
            for obj, loc in objs.items():
                flat[obj] = (cell, loc)
        return flat


class MessageCleaner:
    """Executes Algorithm 2 against a set of per-cell message lists."""

    def __init__(self, gpu: SimGpu, config: GGridConfig) -> None:
        self.gpu = gpu
        self.config = config
        self._rng = random.Random(config.seed ^ 0x5EED)
        self._stream = PipelinedStream(gpu, enabled=config.pipelined_transfers)
        #: lifetime counters the batching cost tests and the ``batch``
        #: experiment compare: cleaning passes completed and cells
        #: cleaned across them (a cell re-cleaned by a later pass counts
        #: again — that repetition is exactly what epoch batching dedups)
        self.cleanings_total = 0
        self.cells_cleaned_total = 0

    def clean(
        self,
        lists: dict[int, MessageList],
        t_now: float,
        object_table: ObjectTable,
        use_gpu: bool = True,
    ) -> CleaningResult:
        """Clean the given cells' message lists; see the module docstring.

        Args:
            lists: ``{cell id: its message list}`` for the cells to clean.
            t_now: current time (prunes buckets older than ``t_delta``).
            object_table: the eager object table, used to drop objects
                whose newest message lives in a cell outside this pass.
            use_gpu: run steps 2-4 on the device (the paper's pipeline).
                ``False`` deduplicates on the host instead — the
                degraded-mode rung used when the device is faulting, with
                the X-shuffle/transfer machinery bypassed.  Both paths
                keep a message with the greatest ``(t, flag)`` key per
                object, so the result and the compacted lists agree
                while no object has two messages with equal ``(t,
                flag)``.  When it does, the host keeps the first such
                message and the write race may keep another one, so the
                paths can disagree on same-timestamp moves.
        """
        with span("clean_cells") as sp:
            result = self._clean(lists, t_now, object_table, use_gpu)
            sp.set_attr("cells", len(result.cells))
            sp.set_attr("messages", result.messages_processed)
            sp.set_attr("buckets", result.buckets_shipped)
        self.cleanings_total += 1
        self.cells_cleaned_total += len(result.cells)
        return result

    def _clean(
        self,
        lists: dict[int, MessageList],
        t_now: float,
        object_table: ObjectTable,
        use_gpu: bool = True,
    ) -> CleaningResult:
        result = CleaningResult()
        config = self.config

        # -- step 1: preprocessing — lock lists and gather live buckets --
        locked: dict[int, MessageList] = {}
        live_pairs: list[tuple[int, Bucket]] = []
        for cell, mlist in lists.items():
            if mlist.locked:  # concurrent cleaning owns it: skip safely
                continue
            before = mlist.num_messages
            mlist.lock_for_cleaning()
            locked[cell] = mlist
            live = mlist.locked_buckets(t_now, config.t_delta)
            shipped = 0
            for bucket in live:
                live_pairs.append((cell, bucket))
                shipped += bucket.n
            result.messages_dropped += before - shipped
            result.cells.add(cell)
        result.buckets_shipped = len(live_pairs)

        try:
            if use_gpu:
                latest = self._run_gpu_pipeline(live_pairs, result)
            else:
                latest = self._dedup_host(live_pairs, result)
        except Exception:
            # fault during the GPU phase: put every frozen bucket back —
            # cached updates must survive any cleaning failure
            for mlist in locked.values():
                mlist.unlock_abort()
            self.gpu.free("clean.T")
            self.gpu.free("clean.R")
            raise

        # -- step 4 (CPU side): build R, reconcile with the object table,
        #    and rewrite the cleaned lists as compacted snapshots --
        for cell in locked:
            result.occupants[cell] = {}
        # expire contract violators from the object table too: an object
        # whose last report predates t_now - t_delta was pruned from the
        # message lists above, and leaving it in the table would let the
        # CPU refinement (which enumerates objects via the table) see a
        # different world than the GPU candidate phase
        cutoff = t_now - config.t_delta
        for cell in locked:
            # columnar scan: one vectorised timestamp compare per cell;
            # the expired ids are materialised before removal mutates the
            # underlying per-cell set
            cols = object_table.cell_columns(cell)
            if cols is None:
                continue
            for obj in cols.objs[cols.ts < cutoff].tolist():
                object_table.remove(obj)
                result.objects_expired += 1
        for obj, message in latest.items():
            if message.is_removal:
                continue  # the object left this cell
            entry = object_table.try_get(obj)
            if entry is None or entry.cell != message.cell:
                continue  # moved away; its newer message lives elsewhere
            result.occupants.setdefault(message.cell, {})[obj] = CleanedLocation(
                message.edge, message.offset, message.t
            )

        for cell, mlist in locked.items():
            mlist.release_cleaned()
            snapshot = [
                Message(obj, loc.edge, loc.offset, loc.t)
                for obj, loc in sorted(
                    result.occupants.get(cell, {}).items(),
                    key=lambda kv: kv[1].t,
                )
            ]
            mlist.prepend_snapshot(snapshot)
        return result

    def _dedup_host(
        self,
        live_pairs: list[tuple[int, Bucket]],
        result: CleaningResult,
    ) -> dict[int, CellMessage]:
        """Degraded-mode steps 2-4 on the host: per-object latest message.

        Keeps, like X-shuffle + collect, a message with the greatest
        :attr:`CellMessage.sort_key` per object (removal markers losing
        timestamp ties) without touching the device; among messages tied
        on that key the two may pick different ones (see :meth:`clean`).
        Used by the resilience ladder when the GPU is faulting; the wall
        time it costs is charged through the normal CPU-phase measurement
        of the caller.

        Above ``_HOST_DEDUP_SCALAR_MAX`` messages the scan runs over the
        buckets' cached ``(obj, t, removal)`` columns with one lexsort
        instead of a per-message dict probe; the winner per object (the
        *first* message carrying the maximal ``(t, flag)`` key) and even
        the result's insertion order (objects by first occurrence) match
        the scalar loop exactly — equivalence-tested in
        ``tests/core/test_cleaning.py``.
        """
        total = sum(bucket.n for _, bucket in live_pairs)
        with span("dedup_host") as sp:
            result.messages_processed += total
            sp.set_attr("messages", total)
            if total == 0:
                return {}
            if total <= _HOST_DEDUP_SCALAR_MAX:
                winners: dict[int, tuple[tuple[float, int], int, Message]] = {}
                for cell, bucket in live_pairs:
                    for m in bucket.messages:
                        key = (m.t, 0 if m.is_removal else 1)
                        prev = winners.get(m.obj)
                        if prev is None or prev[0] < key:
                            winners[m.obj] = (key, cell, m)
                return {
                    obj: CellMessage.tag(m, cell)
                    for obj, (_, cell, m) in winners.items()
                }
            # columnar path: concatenate the bucket columns, lexsort by
            # (obj, t, flag, -seq) and take each object group's last row
            objs = np.empty(total, dtype=np.int64)
            ts = np.empty(total, dtype=np.float64)
            flags = np.empty(total, dtype=np.int64)
            starts: list[int] = []
            at = 0
            for cell, bucket in live_pairs:
                o, t, fl = bucket.columns()
                n = len(o)
                objs[at : at + n] = o
                ts[at : at + n] = t
                flags[at : at + n] = fl
                starts.append(at)
                at += n
            seq = np.arange(total, dtype=np.int64)
            order = np.lexsort((-seq, flags, ts, objs))
            sorted_objs = objs[order]
            last = np.nonzero(np.append(sorted_objs[1:] != sorted_objs[:-1], True))[0]
            group_starts = np.concatenate(([0], last[:-1] + 1))
            win_seq = order[last]  # earliest message with the max (t, flag)
            # scalar-identical insertion order: objects by first occurrence
            first_seq = np.minimum.reduceat(order, group_starts)
            group_rank = np.argsort(first_seq, kind="stable")
            pair_starts = np.asarray(starts, dtype=np.int64)
            pair_idx = np.searchsorted(pair_starts, win_seq, side="right") - 1
            latest: dict[int, CellMessage] = {}
            for g in group_rank.tolist():
                s = int(win_seq[g])
                pi = int(pair_idx[g])
                cell, bucket = live_pairs[pi]
                m = bucket.messages[s - int(pair_starts[pi])]
                latest[m.obj] = CellMessage.tag(m, cell)
            return latest

    def _run_gpu_pipeline(
        self,
        live_pairs: list[tuple[int, Bucket]],
        result: CleaningResult,
    ) -> dict[int, CellMessage]:
        """Steps 2-4 (GPU side): ship, X-shuffle and collect."""
        if not live_pairs:
            return {}
        config = self.config
        bundle_size = config.bundle_size
        num_bundles = -(-len(live_pairs) // bundle_size)

        # -- step 2: prepare device memory for T --
        table = IntermediateTable(num_bundles)
        self.gpu.memory.store("clean.T", table, nbytes=0)

        # -- step 3: pipelined transfer + parallel X-shuffle cleaning --
        # the kernel tags a message with its cell only when storing it
        # into T, so the buckets ship as (cell, messages) pairs
        buckets = [(cell, bucket.messages) for cell, bucket in live_pairs]
        chunk_size = _CHUNK_BUNDLES * bundle_size
        chunks = [
            buckets[i : i + chunk_size] for i in range(0, len(buckets), chunk_size)
        ]

        def process(chunk_index: int, chunk: list[tuple[int, list[Message]]]) -> int:
            first_bundle = chunk_index * _CHUNK_BUNDLES
            return self.gpu.launch(
                "GPU_X_Shuffle",
                len(chunk),
                x_shuffle_kernel,
                chunk,
                config.eta,
                table,
                first_bundle,
                self._rng,
            )

        with span("xshuffle_dedup") as sp:
            processed = self._stream.run(
                chunks,
                process,
                name="clean.buckets",
                chunk_nbytes=lambda chunk: MESSAGE_BYTES
                * sum(len(messages) for _, messages in chunk),
            )
            result.messages_processed += sum(processed)
            sp.set_attr("chunks", len(chunks))
            sp.set_attr("messages", sum(processed))

        # -- step 4 (GPU side): collect the latest message per object --
        with span("collect"):
            latest = self.gpu.launch(
                "GPU_Collect", max(1, len(table.slots)), collect_kernel, table
            )
            self.gpu.memory.store(
                "clean.R", latest, nbytes=len(latest) * MESSAGE_BYTES
            )
            self.gpu.from_device("clean.R")
            self.gpu.free("clean.R")
            self.gpu.free("clean.T")
        return latest
