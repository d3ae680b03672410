"""Unit and property tests for GPU_X_Shuffle (Algorithm 3).

The two guarantees the paper proves, tested empirically on the per-lane
oracle (``tests/core/xshuffle_oracle.py``):

1. the latest message of every object always survives the shuffles and
   the mu(eta)-repeated racy table writes;
2. after one shuffle round the number of distinct surviving messages of
   any single object never exceeds mu(eta) (Theorem 1).

The production kernel simulates only the objects read twice in a round.
The invariant tests below document why that is exact, and a differential
property test checks it against the oracle: same ``T``, same return
value, same RNG state and bit-identical charges.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import CellMessage, Message
from repro.core.mu import mu
from repro.core.xshuffle import IntermediateTable, collect_kernel, x_shuffle_kernel
from repro.simgpu.device import SimGpu
from repro.simgpu.kernel import KernelContext
from tests.core.xshuffle_oracle import (
    clean_bundle,
    oracle_x_shuffle_kernel,
    shuffle_round,
)


def _msg(obj: int, t: float, cell: int = 0) -> CellMessage:
    return CellMessage(obj, cell, edge=0, offset=0.0, t=t)


def _pairs(buckets: list[list[CellMessage]]) -> list[tuple[int, list[Message]]]:
    """The ``(cell, messages)`` form ``x_shuffle_kernel`` takes."""
    return [
        (
            bucket[0].cell if bucket else 0,
            [Message(m.obj, m.edge, m.offset, m.t) for m in bucket],
        )
        for bucket in buckets
    ]


def _run_kernel(buckets, eta, seed=0, oracle=False):
    gpu = SimGpu()
    bundle_size = 1 << eta
    num_bundles = -(-len(buckets) // bundle_size)
    table = IntermediateTable(num_bundles)
    if oracle:
        kernel, args = oracle_x_shuffle_kernel, buckets
    else:
        kernel, args = x_shuffle_kernel, _pairs(buckets)
    processed = gpu.launch(
        "xshuffle",
        max(1, len(buckets)),
        kernel,
        args,
        eta,
        table,
        0,
        random.Random(seed),
    )
    latest = gpu.launch("collect", max(1, len(table.slots)), collect_kernel, table)
    return processed, table, latest, gpu


def test_single_bucket_single_message():
    processed, _, latest, _ = _run_kernel([[_msg(7, 1.0)]], eta=3)
    assert processed == 1
    assert latest[7].t == 1.0


def test_latest_message_wins_within_bucket():
    bucket = [_msg(1, t) for t in (1.0, 5.0, 3.0)]
    _, _, latest, _ = _run_kernel([bucket], eta=3)
    assert latest[1].t == 5.0


def test_latest_message_wins_across_buckets():
    buckets = [[_msg(1, 1.0)], [_msg(1, 9.0)], [_msg(1, 4.0)], [_msg(2, 2.0)]]
    _, _, latest, _ = _run_kernel(buckets, eta=2)
    assert latest[1].t == 9.0
    assert latest[2].t == 2.0


def test_ragged_buckets_handled():
    buckets = [[_msg(1, 1.0), _msg(1, 2.0)], [], [_msg(2, 1.0)]]
    processed, _, latest, _ = _run_kernel(buckets, eta=2)
    assert processed == 3
    assert latest[1].t == 2.0


def test_removal_marker_loses_timestamp_tie():
    marker = CellMessage(1, 0, None, None, 5.0)
    real = CellMessage(1, 1, 3, 0.25, 5.0)
    _, _, latest, _ = _run_kernel([[marker], [real]], eta=2)
    assert not latest[1].is_removal
    assert latest[1].cell == 1  # tagged with the cell its bucket came from


def test_kernel_charges_work():
    buckets = [[_msg(i, float(j)) for j in range(4)] for i in range(8)]
    *_, gpu = _run_kernel(buckets, eta=3)
    assert gpu.stats.shuffle_ops > 0
    assert gpu.stats.atomic_ops > 0
    assert gpu.stats.lane_ops > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5), st.integers(1, 6))
def test_latest_always_survives(seed, eta, num_objects):
    """Property: for random buckets, the newest message per object is
    exactly what GPU_Collect reports — on the per-lane oracle and on the
    production kernel."""
    rng = random.Random(seed)
    bundle_size = 1 << eta
    n_buckets = rng.randrange(1, 3 * bundle_size)
    buckets = []
    truth = {}
    t = 0.0
    for _ in range(n_buckets):
        bucket = []
        for _ in range(rng.randrange(0, 6)):
            obj = rng.randrange(num_objects)
            t += 1.0
            bucket.append(_msg(obj, t))
            truth[obj] = t
        buckets.append(bucket)
    for oracle in (True, False):
        _, _, latest, _ = _run_kernel(buckets, eta, seed=seed, oracle=oracle)
        assert {o: m.t for o, m in latest.items()} == truth


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 5))
def test_survivors_bounded_by_mu(seed, eta):
    """Theorem 1 (empirical): one round of shuffles leaves at most
    mu(eta) distinct messages of a single object in the bundle."""
    rng = random.Random(seed)
    bundle_size = 1 << eta
    # one message per thread, all the same object, distinct timestamps
    times = list(range(bundle_size))
    rng.shuffle(times)
    lanes = shuffle_round([_msg(0, float(t)) for t in times], eta)
    survivors = {m.t for m in lanes}
    assert len(survivors) <= mu(eta)
    assert max(survivors) == float(bundle_size - 1)  # newest survived


@pytest.mark.xfail(
    strict=True,
    reason="Theorem 1's bound does not hold on partially occupied bundles",
)
def test_survivors_bounded_by_mu_in_partial_bundle():
    """One object read at six of 16 lanes, the rest idle: three distinct
    messages survive where mu(4) = 2, so two racy repetitions could leave
    an older one in ``T`` (DESIGN.md section 7).  The race therefore
    repeats until no writer is left; see the test below."""
    read = [None] * 16
    for lane, t in zip((3, 4, 7, 8, 9, 13), (53, 58, 64, 65, 66, 78)):
        read[lane] = _msg(0, float(t))
    survivors = {m.t for m in shuffle_round(read, 4) if m is not None}
    assert len(survivors) <= mu(4)


@pytest.mark.parametrize("seed", range(8))
def test_newest_lands_in_partial_bundle(seed):
    """The bundle Theorem 1 does not bound, through a full launch: the
    write race runs past mu(4) repetitions until the newest of the three
    survivors is in ``T``, on the oracle and on the production kernel."""
    buckets = [[] for _ in range(16)]
    for lane, t in zip((3, 4, 7, 8, 9, 13), (53, 58, 64, 65, 66, 78)):
        buckets[lane] = [_msg(0, float(t))]
    for oracle in (True, False):
        _, table, latest, _ = _run_kernel(buckets, 4, seed=seed, oracle=oracle)
        assert table.slot(0, 0).t == 78.0
        assert latest[0].t == 78.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_racy_writes_converge(seed):
    """Property: the repeated last-write-wins race always ends with
    the newest message stored, for any write ordering."""
    rng = random.Random(seed)
    eta = 4
    bundle_size = 1 << eta
    times = list(range(bundle_size))
    rng.shuffle(times)
    bundle = [[_msg(0, float(t))] for t in times]
    table = IntermediateTable(1)
    clean_bundle(bundle, eta, table, 0, rng)
    assert table.slot(0, 0).t == float(bundle_size - 1)


def test_intermediate_table_slots():
    table = IntermediateTable(3)
    assert table.slot(5, 1) is None
    table.store(5, 1, _msg(5, 2.0))
    assert table.slot(5, 1).t == 2.0
    assert table.slot(5, 0) is None
    assert table.device_nbytes() > 0


# ---------------------------------------------------------------------------
# Why the object-sparse kernel is exact: invariants of the per-lane oracle
# ---------------------------------------------------------------------------


def _random_lanes(rng: random.Random, eta: int, objects: int):
    """One round's reads: some lanes idle, objects repeated, timestamps
    tied, removal markers mixed in."""
    lanes = []
    for lane in range(1 << eta):
        if rng.random() < 0.2:
            lanes.append(None)
            continue
        removal = rng.random() < 0.2
        lanes.append(
            CellMessage(
                rng.randrange(objects),
                lane,
                None if removal else rng.randrange(3),
                None if removal else rng.choice((0.0, 0.5)),
                float(rng.randrange(3)),
            )
        )
    return lanes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 8))
def test_shuffle_round_keeps_each_lane_on_its_object(seed, eta, objects):
    """Output lane ``j`` holds a message of the object read at input lane
    ``j ^ (L-1)`` (``None`` stays ``None``): the shuffle masks XOR to
    ``L-1`` and a cache hit never changes the object."""
    rng = random.Random(seed)
    read = _random_lanes(rng, eta, objects)
    out = shuffle_round(read, eta)
    top = (1 << eta) - 1
    for j, m in enumerate(out):
        src = read[j ^ top]
        if src is None:
            assert m is None
        else:
            assert m is not None and m.obj == src.obj


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 40))
def test_shuffle_round_leaves_single_reads_untouched(seed, eta, objects):
    """An object read once in the round keeps exactly its message."""
    rng = random.Random(seed)
    read = _random_lanes(rng, eta, objects)
    out = shuffle_round(read, eta)
    top = (1 << eta) - 1
    counts: dict[int, int] = {}
    for m in read:
        if m is not None:
            counts[m.obj] = counts.get(m.obj, 0) + 1
    for j, m in enumerate(out):
        src = read[j ^ top]
        if src is not None and counts[src.obj] == 1:
            assert m is src


@pytest.mark.parametrize("eta", [3, 4, 5])
def test_stopping_the_race_early_keeps_the_rng_state(eta):
    """Distinct objects with one message each: the first repetition
    writes every survivor and the ``mu(eta) - 1`` later ones find no
    writers.  Stopping after the first empty repetition leaves the RNG
    where the per-lane oracle, which runs them all, leaves it."""
    assert mu(eta) > 1
    buckets = [[_msg(obj, 1.0, cell=obj)] for obj in range(1 << eta)]
    states = []
    for oracle in (True, False):
        rng = random.Random(11)
        table = IntermediateTable(1)
        ctx = KernelContext(SimGpu(), "xshuffle", len(buckets))
        if oracle:
            oracle_x_shuffle_kernel(ctx, buckets, eta, table, 0, rng)
        else:
            x_shuffle_kernel(ctx, _pairs(buckets), eta, table, 0, rng)
        assert ctx.atomic_ops == len(buckets)
        states.append(rng.getstate())
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# Differential: production kernel == per-lane oracle
# ---------------------------------------------------------------------------


@st.composite
def _launches(draw):
    """Up to three launches sharing one table: eta 1..5, partial last
    bundles, empty buckets, ``first_bundle`` offsets (possibly
    overlapping), a small object pool so objects repeat within a round,
    timestamps from {0..3} so distinct messages tie on ``(t, flag)``,
    and removal markers.  Hypothesis draws the shape; a seeded RNG fills
    in the messages (drawing each one through Hypothesis is 5x slower)."""
    eta = draw(st.integers(1, 5))
    objects = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    launches = []
    for _ in range(draw(st.integers(1, 3))):
        buckets = []
        for _ in range(draw(st.integers(0, 3 << eta))):
            messages = []
            for _ in range(rng.randrange(6)):
                obj, t = rng.randrange(objects), float(rng.randrange(4))
                if rng.randrange(5) == 0:
                    messages.append(Message(obj, None, None, t))
                else:
                    messages.append(Message(obj, rng.randrange(4), rng.choice((0.0, 0.5)), t))
            buckets.append((rng.randrange(6), messages))
        launches.append((buckets, draw(st.integers(0, 3))))
    return eta, launches, rng.getrandbits(32)


def _slot_view(table: IntermediateTable):
    return [
        (obj, [None if m is None else (m.obj, m.cell, m.edge, m.offset, m.t) for m in row])
        for obj, row in table.slots.items()
    ]


def _ctx_view(ctx: KernelContext):
    return (ctx.lane_ops, ctx.shuffle_ops, ctx.atomic_ops, ctx.sync_count, ctx.elapsed_s)


@pytest.mark.conformance
@settings(max_examples=300, deadline=None)
@given(_launches())
def test_kernel_matches_per_lane_oracle(case):
    eta, launches, seed = case
    bundle_size = 1 << eta
    num_bundles = max(
        first + -(-len(buckets) // bundle_size) for buckets, first in launches
    )
    num_bundles = max(1, num_bundles)
    gpu = SimGpu()
    fast_table, oracle_table = IntermediateTable(num_bundles), IntermediateTable(num_bundles)
    fast_rng, oracle_rng = random.Random(seed), random.Random(seed)
    for buckets, first in launches:
        tagged = [[CellMessage.tag(m, cell) for m in ms] for cell, ms in buckets]
        n = max(1, len(buckets))
        fast_ctx = KernelContext(gpu, "xshuffle", n)
        oracle_ctx = KernelContext(gpu, "xshuffle", n)
        got = x_shuffle_kernel(fast_ctx, buckets, eta, fast_table, first, fast_rng)
        want = oracle_x_shuffle_kernel(
            oracle_ctx, tagged, eta, oracle_table, first, oracle_rng
        )
        assert got == want
        assert _ctx_view(fast_ctx) == _ctx_view(oracle_ctx)
        assert fast_rng.getstate() == oracle_rng.getstate()
        assert _slot_view(fast_table) == _slot_view(oracle_table)
