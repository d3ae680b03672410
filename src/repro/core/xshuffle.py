"""GPU_X_Shuffle: lock-free message deduplication (Algorithm 3).

One GPU thread is assigned per message bucket; threads are grouped into
bundles of ``2^eta`` lanes.  In every round each thread reads one message
from its bucket, then the bundle performs ``eta`` butterfly shuffles with
lane masks ``2^(eta-1) ... 2^0``.  Between shuffles each thread checks the
message it received against a small per-thread cache ``Gamma``: an older
message of a cached object is *replaced in flight* by the cached newer
one, which is how duplicates die without any lock.  Theorem 1 claims
at most ``mu(eta)`` distinct messages of any object survive a round, so
that the final racy writes into the intermediate table ``T`` need only
be repeated ``mu(eta)`` times to ensure the newest message lands.

The kernel reproduces the lane-by-lane execution exactly without
simulating every lane, because of two facts about the algorithm:

1. **A lane only ever holds messages of the object it read that round.**
   A ``Gamma`` hit requires ``cached.obj == m.obj`` and the butterfly only
   moves values between lanes, so objects never interact.  The shuffle
   masks XOR to ``2^eta - 1``, so the value read at lane ``j`` always ends
   at lane ``j ^ (2^eta - 1)``, whatever its content: the survivors in
   lane order are the reads in *reversed* lane order.  An object read
   once keeps its message; only objects read two or more times need the
   cache-and-shuffle simulation, over their own tokens and caches.
2. **Write-race repetitions after the first one without writers are
   no-ops.**  A repetition with no writers leaves ``T`` unchanged, so
   every later one finds none either, and shuffling an empty writer list
   draws nothing from the RNG.  The race stops there — right after the
   first repetition when every object was read once, since each writer's
   slot then holds its own message.

The write race itself is simulated faithfully: every repetition, the
survivors read a snapshot of ``T``, those newer than their slot write,
and the writes are applied in a seeded random order with last-write-wins
— exactly the hazard a real GPU exhibits.  The RNG draws, the atomic
write count and the insertion order of ``T`` are those of the per-lane
simulation, which the tests keep as an oracle
(``tests/core/xshuffle_oracle.py``) and compare against on random
launches.  Buckets arrive as ``(cell, messages)`` pairs; a message is
tagged with its cell only when it is stored into ``T``.

Deviations from the paper's pseudocode (see ``tests/core/test_xshuffle.py``):

* the cache ``Gamma`` is cleared at the start of each read round —
  Algorithm 3 allocates it once, but its size-``eta`` capacity is only
  sufficient per round; clearing keeps the bound tight and cannot lose
  messages (a cached entry only duplicates a message still in flight);
* a final cache check runs *after* the last shuffle — Algorithm 3's loop
  checks before shuffling, so a message arriving on the ``eta``-th
  shuffle would never meet the cache, yet the coverage argument behind
  Theorem 1 (Lemma 1 with ``k = eta``) counts exactly those meetings.
  Without the final check, a 4-lane bundle can end with 2 distinct
  survivors where ``mu`` says 1;
* the write race repeats until a repetition finds no writers, not a
  fixed ``mu(eta)`` times — Theorem 1 does not bound partially occupied
  bundles (one object read at lanes 3, 4, 7, 8, 9 and 13 of a 16-lane
  bundle leaves three distinct survivors where ``mu(4) = 2``).  Every
  repetition with writers strictly raises each slot it writes, so the
  race ends with the newest survivor in ``T``; where the bound holds,
  the extra check finds no writers and charges nothing.

All bundles of a launch execute in lockstep on the device, so the kernel
charges its work once over the full thread count (rounds x (read + eta
cache/compare steps + eta shuffles) + mu(eta) table-write repetitions);
only the racy atomic writes are charged per actual conflict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.messages import CellMessage, Message
from repro.core.mu import mu
from repro.simgpu.kernel import KernelContext


@dataclass
class IntermediateTable:
    """The table ``T``: per object, one candidate slot per bundle."""

    num_bundles: int
    slots: dict[int, list[CellMessage | None]] = field(default_factory=dict)

    def slot(self, obj: int, bundle: int) -> CellMessage | None:
        row = self.slots.get(obj)
        return row[bundle] if row is not None else None

    def store(self, obj: int, bundle: int, message: CellMessage) -> None:
        row = self.slots.get(obj)
        if row is None:
            row = [None] * self.num_bundles
            self.slots[obj] = row
        row[bundle] = message

    def device_nbytes(self) -> int:
        from repro.simgpu.memory import MESSAGE_BYTES, TABLE_ENTRY_BYTES

        return sum(
            TABLE_ENTRY_BYTES + self.num_bundles * MESSAGE_BYTES for _ in self.slots
        )


def x_shuffle_kernel(
    ctx: KernelContext,
    buckets: list[tuple[int, list[Message]]],
    eta: int,
    table: IntermediateTable,
    first_bundle: int,
    rng: random.Random,
) -> int:
    """Clean a batch of buckets into ``table``; returns messages processed.

    Args:
        ctx: kernel context for work accounting.
        buckets: one ``(cell, messages)`` bucket per thread (ragged;
            short/empty buckets read ``None`` past their end).
        eta: bundle-size exponent (``2^eta`` lanes per bundle).
        table: the shared intermediate table ``T``.
        first_bundle: global bundle index of this batch's first bundle
            (bundles from different pipeline chunks must not collide).
        rng: seeded source for the simulated write-race ordering.
    """
    bundle_size = 1 << eta
    mu_eta = mu(eta)
    processed = 0
    atomic_writes = 0
    top = bundle_size - 1
    for start in range(0, len(buckets), bundle_size):
        bundle_id = first_bundle + start // bundle_size
        # rounds run from the longest bucket's last message down to 0, so
        # the reading lanes only grow: a lane joins once ``i`` drops below
        # its bucket length.  Each is keyed by the lane its read survives
        # in, ``lane ^ top``, i.e. reversed lane order.
        joining: dict[int, list[tuple[int, int, list[Message]]]] = {}
        for lane, (cell, ms) in enumerate(buckets[start : start + bundle_size]):
            if ms:
                joining.setdefault(len(ms), []).append((lane ^ top, cell, ms))
        alive: list[tuple[int, int, list[Message]]] = []
        lengths = sorted(joining, reverse=True)
        for hi, lo in zip(lengths, lengths[1:] + [0]):
            alive += joining[hi]
            alive.sort()
            positions, live_cells, columns = zip(*alive)
            n = len(columns)
            processed += n * (hi - lo)
            for i in range(hi - 1, lo - 1, -1):
                # every live lane reads one message from its bucket (line 4)
                msgs = [ms[i] for ms in columns]
                cells = live_cells
                repeated = n > 1 and len({m.obj for m in msgs}) < n
                if repeated:
                    msgs, cells = _shuffle_repeated(msgs, cells, positions, eta)
                # racy table writes, repeated until none is left (lines 11-13;
                # see the third deviation above)
                while True:
                    writers = [
                        k
                        for k, m in enumerate(msgs)
                        if m.newer_than(table.slot(m.obj, bundle_id))
                    ]
                    if not writers:
                        break  # T is unchanged, so every later repetition is too
                    rng.shuffle(writers)  # last write wins, in arbitrary order
                    for k in writers:
                        m = msgs[k]
                        table.store(m.obj, bundle_id, CellMessage.tag(m, cells[k]))
                    atomic_writes += len(writers)
                    if not repeated:
                        # one survivor per object: each writer's slot now
                        # holds its own message, so the next repetition
                        # finds no writers
                        break

    # Lockstep accounting over the whole launch: every thread walks the
    # longest bucket's rounds (shorter buckets idle but stay in step).
    rounds = max((len(messages) for _, messages in buckets), default=0)
    if rounds:
        # register work per round: (eta + 1) x (cache lookup + compare)
        ctx.charge(rounds * 2 * (eta + 1))
        # global-memory work per round: the bucket read + mu snapshot
        # reads of T (this is what makes very large serial buckets —
        # few threads, many rounds — lose in Fig. 4a)
        ctx.charge_mem(rounds * (1 + mu_eta))
        for _ in range(rounds * eta):
            ctx.charge_shuffle(bundle_size)
    ctx.charge_atomic(atomic_writes)
    return processed


def _shuffle_repeated(
    msgs: list[Message],
    cells: tuple[int, ...],
    positions: tuple[int, ...],
    eta: int,
) -> tuple[list[Message], list[int]]:
    """The cache-and-shuffle round (Algorithm 3 lines 5-10 plus the final
    check) for a round in which some object was read more than once.

    ``msgs[k]`` is read with cell ``cells[k]`` by the lane whose value
    survives in lane ``positions[k]`` (``lane ^ (2^eta - 1)``); returns
    the survivors in the same order.  Naming lanes by ``lane ^ c`` for a
    constant ``c`` relabels the caches one-to-one and commutes with every
    shuffle, so the simulation may start from the survivor lanes.  Each
    repeated object is simulated alone: its tokens move by ``pos ^= mask``
    and meet only its own entry of each lane's cache.  A token is the
    index of a read, so a message replaced in flight keeps its cell.
    """
    by_obj: dict[int, list[int]] = {}
    for k, m in enumerate(msgs):
        by_obj.setdefault(m.obj, []).append(k)
    out_msgs, out_cells = msgs[:], list(cells)
    for ks in by_obj.values():
        if len(ks) < 2:
            continue
        keys = {k: msgs[k].sort_key for k in ks}
        tokens = list(ks)
        cache: dict[int, int] = {}  # lane -> cached token
        moved = 0
        for step in range(eta + 1):
            for t, k in enumerate(ks):
                pos = positions[k] ^ moved
                token = tokens[t]
                cached = cache.get(pos)
                if cached is None or keys[cached] < keys[token]:
                    cache[pos] = token
                else:
                    tokens[t] = cached  # carry the newer message onward
            if step < eta:
                moved ^= 1 << (eta - 1 - step)
        for k, token in zip(ks, tokens):
            out_msgs[k] = msgs[token]
            out_cells[k] = cells[token]
    return out_msgs, out_cells


def collect_kernel(
    ctx: KernelContext, table: IntermediateTable
) -> dict[int, CellMessage]:
    """``GPU_Collect``: reduce each object's bundle slots to its latest.

    One thread per object scans the object's per-bundle candidates and
    returns ``{obj: latest message}``.
    """
    result: dict[int, CellMessage] = {}
    for obj, row in table.slots.items():
        latest: CellMessage | None = None
        for m in row:
            if m is not None and (latest is None or m.sort_key > latest.sort_key):
                latest = m
        if latest is not None:
            result[obj] = latest
    # parallel reduction over the bundle axis: log2 depth per object
    depth = max(1, (table.num_bundles - 1).bit_length())
    ctx.charge(depth, n_threads=max(1, len(table.slots)))
    return result
