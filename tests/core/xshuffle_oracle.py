"""Per-lane GPU_X_Shuffle simulator: the Theorem-1 oracle.

This is Algorithm 3 simulated lane by lane, exactly as the paper states
it (plus the two deviations documented in :mod:`repro.core.xshuffle`):
every round each of the ``2^eta`` lanes of a bundle reads one message,
the bundle runs ``eta`` butterfly shuffles with a per-lane ``Gamma``
cache check before each and a final check after the last, then repeats
the racy last-write-wins table writes until a repetition finds no
writers (``mu(eta)`` times would do if Theorem 1 held for every
occupancy).

The production kernel, :func:`repro.core.xshuffle.x_shuffle_kernel`,
reaches the same table by simulating only the objects read twice in a
round.  The tests use this module two ways: the Theorem-1 and
"latest survives" properties run on the faithful lane simulation here,
and ``tests/core/test_xshuffle.py`` checks the production kernel against
:func:`oracle_x_shuffle_kernel` on random launches — same ``T`` (keys in
insertion order, per-slot messages), same return value, same RNG state
and bit-identical charges.
"""

from __future__ import annotations

import random

from repro.core.messages import CellMessage
from repro.core.mu import mu
from repro.core.xshuffle import IntermediateTable
from repro.simgpu import warp as warp_mod
from repro.simgpu.kernel import KernelContext


def oracle_x_shuffle_kernel(
    ctx: KernelContext,
    buckets: list[list[CellMessage]],
    eta: int,
    table: IntermediateTable,
    first_bundle: int,
    rng: random.Random,
) -> int:
    """The per-lane kernel; same contract as ``x_shuffle_kernel`` except
    that buckets hold already-tagged :class:`CellMessage` lists."""
    bundle_size = 1 << eta
    mu_eta = mu(eta)
    processed = 0
    atomic_writes = 0
    for start in range(0, len(buckets), bundle_size):
        bundle = buckets[start : start + bundle_size]
        bundle = bundle + [[] for _ in range(bundle_size - len(bundle))]
        bundle_id = first_bundle + start // bundle_size
        done, writes = clean_bundle(bundle, eta, table, bundle_id, rng)
        processed += done
        atomic_writes += writes

    rounds = max((len(b) for b in buckets), default=0)
    if rounds:
        ctx.charge(rounds * 2 * (eta + 1))
        ctx.charge_mem(rounds * (1 + mu_eta))
        for _ in range(rounds * eta):
            ctx.charge_shuffle(bundle_size)
    ctx.charge_atomic(atomic_writes)
    return processed


def shuffle_round(
    lanes: list[CellMessage | None], eta: int
) -> list[CellMessage | None]:
    """One cache-and-shuffle round over a bundle's lanes (Algorithm 3
    lines 5-10 plus the final post-shuffle check).

    Returns the surviving per-lane messages; at most ``mu(eta)`` distinct
    messages of any single object remain, and the newest message of every
    object is always among the survivors.
    """
    bundle_size = 1 << eta
    lanes = list(lanes)
    caches: list[dict[int, CellMessage]] = [dict() for _ in range(bundle_size)]

    def check(lane: int) -> None:
        m = lanes[lane]
        if m is None:
            return
        cached = caches[lane].get(m.obj)
        if cached is None or cached.sort_key < m.sort_key:
            caches[lane][m.obj] = m
        else:
            lanes[lane] = cached  # carry the newer message onward

    for j in range(1, eta + 1):
        for lane in range(bundle_size):
            check(lane)
        lanes = warp_mod.shuffle_xor(lanes, 1 << (eta - j))
    for lane in range(bundle_size):
        check(lane)  # final check: meetings at the eta-th shuffle count
    return lanes


def clean_bundle(
    bundle: list[list[CellMessage]],
    eta: int,
    table: IntermediateTable,
    bundle_id: int,
    rng: random.Random,
) -> tuple[int, int]:
    """Run Algorithm 3 on one bundle; returns (messages, atomic writes)."""
    rounds = max((len(b) for b in bundle), default=0)
    processed = 0
    atomic_writes = 0
    for i in range(rounds - 1, -1, -1):
        # every lane reads one message from its bucket (line 4)
        read: list[CellMessage | None] = [
            bucket[i] if i < len(bucket) else None for bucket in bundle
        ]
        processed += sum(1 for m in read if m is not None)
        lanes = shuffle_round(read, eta)
        # racy table writes, repeated until none is left (lines 11-13)
        while True:
            snapshot = {
                lane: table.slot(m.obj, bundle_id)
                for lane, m in enumerate(lanes)
                if m is not None
            }
            writers = [
                lane
                for lane, m in enumerate(lanes)
                if m is not None
                and (snapshot[lane] is None or snapshot[lane].sort_key < m.sort_key)
            ]
            if not writers:
                break
            rng.shuffle(writers)  # last write wins, in arbitrary order
            for lane in writers:
                table.store(lanes[lane].obj, bundle_id, lanes[lane])
            atomic_writes += len(writers)
    return processed, atomic_writes
