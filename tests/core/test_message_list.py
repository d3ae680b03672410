"""Unit tests for bucketed message lists and the lock protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message_list import Bucket, MessageList
from repro.core.messages import Message
from repro.errors import CapacityError, CleaningLockError


def _msg(obj: int, t: float) -> Message:
    return Message(obj, 0, 0.0, t)


def test_append_fills_buckets_in_order():
    lst = MessageList(capacity=3)
    for i in range(7):
        lst.append(_msg(i, float(i)))
    assert lst.num_messages == 7
    assert lst.num_buckets == 3
    sizes = [b.n for b in lst.buckets()]
    assert sizes == [3, 3, 1]


def test_messages_chronological():
    lst = MessageList(capacity=2)
    for i in range(5):
        lst.append(_msg(i, float(i)))
    times = [m.t for m in lst.messages()]
    assert times == sorted(times)


def test_bucket_t_is_latest():
    lst = MessageList(capacity=4)
    for i in range(4):
        lst.append(_msg(i, float(i)))
    bucket = next(lst.buckets())
    assert bucket.t == 3.0


def test_bucket_capacity_enforced():
    b = Bucket(capacity=1)
    b.append(_msg(0, 0.0))
    with pytest.raises(CapacityError):
        b.append(_msg(1, 1.0))


def test_invalid_capacity():
    with pytest.raises(CapacityError):
        MessageList(capacity=0)


def test_lock_appends_fresh_tail():
    lst = MessageList(capacity=2)
    lst.append(_msg(0, 0.0))
    lst.lock_for_cleaning()
    assert lst.locked
    # new messages land after the lock pointer
    lst.append(_msg(1, 1.0))
    live, _ = lst.locked_buckets(t_now=10.0, t_delta=100.0)
    assert sum(b.n for b in live) == 1  # only the pre-lock message


def test_lock_on_empty_list():
    lst = MessageList(capacity=2)
    lst.lock_for_cleaning()
    assert lst.locked  # the pass owns the list even with nothing frozen
    assert lst.locked_buckets(0.0, 10.0) == ([], 0)
    assert lst.release_cleaned() == 0


def test_stale_buckets_pruned():
    """Buckets whose newest message is older than t_now - t_delta are
    discarded unread (Section IV-B1)."""
    lst = MessageList(capacity=2)
    lst.append(_msg(0, 0.0))
    lst.append(_msg(1, 1.0))  # bucket 1: t=1
    lst.append(_msg(2, 50.0))  # bucket 2: t=50
    lst.lock_for_cleaning()
    live, dropped = lst.locked_buckets(t_now=60.0, t_delta=20.0)
    assert dropped == 2
    assert len(live) == 1
    assert live[0].t == 50.0


def test_release_cleaned_drops_processed():
    lst = MessageList(capacity=2)
    for i in range(5):
        lst.append(_msg(i, float(i)))
    lst.lock_for_cleaning()
    lst.append(_msg(9, 9.0))  # arrives during cleaning
    dropped = lst.release_cleaned()
    assert dropped == 5
    assert not lst.locked
    assert [m.obj for m in lst.messages()] == [9]


def test_release_without_lock_rejected():
    """Releasing with p_l unset used to walk to the null pointer and
    destroy every cached message; now it is a protocol violation."""
    lst = MessageList(capacity=2)
    lst.append(_msg(0, 0.0))
    with pytest.raises(CleaningLockError):
        lst.release_cleaned()  # lock never taken: p_l is None
    assert lst.num_messages == 1


def test_bucket_t_is_max_not_last():
    """Regression: removal markers and skewed client clocks append out
    of order; ``Bucket.t`` must be the max so stale-pruning never
    discards a bucket that still holds a fresh message."""
    lst = MessageList(capacity=3)
    lst.append(_msg(1, 10.0))
    lst.append(_msg(2, 5.0))  # skewed clock: older timestamp arrives later
    lst.append(Message(1, None, None, 1.0))  # removal marker, older still
    bucket = next(lst.buckets())
    assert bucket.t == 10.0  # not 1.0, the last message's timestamp
    lst.lock_for_cleaning()
    # cutoff 7.0: the bucket holds a fresh message (t=10) and must ship
    live, _ = lst.locked_buckets(t_now=12.0, t_delta=5.0)
    assert len(live) == 1


def test_bucket_t_tracks_out_of_order_appends():
    """The cached ``Bucket.t`` keeps max semantics under any append
    order: it rises with a newer message and ignores older ones."""
    b = Bucket(capacity=5)
    assert b.t == float("-inf")
    for t, want in ((4.0, 4.0), (2.0, 4.0), (9.0, 9.0), (9.0, 9.0), (-1.0, 9.0)):
        b.append(_msg(0, t))
        assert b.t == want == max(m.t for m in b.messages)


def test_bucket_t_of_snapshot_constructed_buckets():
    """Buckets built with their messages (as ``prepend_snapshot`` does)
    start from the max of those messages, then keep tracking appends."""
    b = Bucket(3, [_msg(0, 7.0), _msg(1, 3.0)])
    assert b.t == 7.0
    b.append(_msg(2, 8.0))
    assert b.t == 8.0
    lst = MessageList(capacity=2)
    lst.prepend_snapshot([_msg(0, 1.0), _msg(1, 6.0), _msg(2, 2.0)])
    assert [b.t for b in lst.buckets()] == [6.0, 2.0]
    lst.append(_msg(3, 11.0))  # lands in the snapshot's open tail bucket
    assert [b.t for b in lst.buckets()] == [6.0, 11.0]


def test_nested_lock_rejected_and_first_lock_intact():
    """Regression: a second ``lock_for_cleaning`` silently advanced
    ``p_l`` past post-lock arrivals, and ``release_cleaned`` then
    destroyed messages no cleaner ever saw."""
    lst = MessageList(capacity=2)
    for i in range(3):
        lst.append(_msg(i, float(i)))
    lst.lock_for_cleaning()
    lst.append(_msg(7, 7.0))  # arrives during the cleaning pass
    with pytest.raises(CleaningLockError):
        lst.lock_for_cleaning()
    # the in-flight pass is undisturbed: release drops exactly the
    # frozen messages and the post-lock arrival survives
    assert lst.release_cleaned() == 3
    assert [m.obj for m in lst.messages()] == [7]


def test_prepend_snapshot_on_locked_list_survives_release():
    """Regression: prepending a compacted snapshot onto a locked list
    inserted it before ``p_l``, so the following ``release_cleaned``
    discarded the snapshot (verified: list ended up empty)."""
    lst = MessageList(capacity=2)
    for i in range(4):
        lst.append(_msg(i, float(i)))
    lst.lock_for_cleaning()
    lst.append(_msg(9, 9.0))  # post-lock arrival
    # a compacted snapshot lands while the lock is still held
    lst.prepend_snapshot([_msg(100, 3.5), _msg(101, 3.6)])
    dropped = lst.release_cleaned()
    assert dropped == 4  # only the frozen pre-lock messages
    assert [m.obj for m in lst.messages()] == [100, 101, 9]


def test_prepend_snapshot_on_locked_empty_list_survives_release():
    lst = MessageList(capacity=2)
    lst.lock_for_cleaning()
    lst.prepend_snapshot([_msg(1, 1.0)])
    assert lst.release_cleaned() == 0
    assert [m.obj for m in lst.messages()] == [1]


def test_prepend_snapshot_after_fault_abort_relock():
    """The fault-abort path: a cleaning pass dies (unlock_abort), a
    retry re-locks, and its compacted snapshot must survive the retry's
    release even though it is prepended while the lock is held."""
    lst = MessageList(capacity=2)
    for i in range(3):
        lst.append(_msg(i, float(i)))
    lst.lock_for_cleaning()
    lst.unlock_abort()  # GPU fault: frozen buckets rejoin the live list
    assert lst.num_messages == 3
    lst.lock_for_cleaning()  # the retry
    frozen = [m for b in lst.locked_buckets(1e9, 1e12)[0] for m in b.messages]
    assert len(frozen) == 3
    lst.append(_msg(9, 9.0))  # arrives mid-retry
    lst.prepend_snapshot([_msg(2, 2.0)])  # compacted result, lock held
    lst.release_cleaned()
    assert [m.obj for m in lst.messages()] == [2, 9]


def test_prepend_snapshot_goes_before_head():
    lst = MessageList(capacity=2)
    lst.lock_for_cleaning()
    lst.append(_msg(5, 10.0))
    lst.release_cleaned()
    lst.prepend_snapshot([_msg(1, 1.0), _msg(2, 2.0), _msg(3, 3.0)])
    objs = [m.obj for m in lst.messages()]
    assert objs == [1, 2, 3, 5]


def test_prepend_snapshot_empty_noop():
    lst = MessageList(capacity=2)
    lst.prepend_snapshot([])
    assert lst.num_messages == 0


def test_prepend_snapshot_on_empty_list_sets_tail():
    lst = MessageList(capacity=2)
    lst.prepend_snapshot([_msg(1, 1.0)])
    lst.append(_msg(2, 2.0))  # must go after the snapshot
    assert [m.obj for m in lst.messages()] == [1, 2]


def test_size_bytes_grows_with_buckets():
    lst = MessageList(capacity=4)
    empty = lst.size_bytes()
    for i in range(5):
        lst.append(_msg(i, float(i)))
    assert lst.size_bytes() > empty


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=0, max_size=60), st.integers(1, 8))
def test_no_message_lost_through_lock_cycle(times, capacity):
    """Property: lock -> clean -> release -> prepend keeps exactly the
    snapshot plus post-lock arrivals, in order."""
    times = sorted(times)
    lst = MessageList(capacity=capacity)
    for i, t in enumerate(times):
        lst.append(_msg(i, t))
    lst.lock_for_cleaning()
    frozen = [m for b in lst.locked_buckets(1e9, 1e12)[0] for m in b.messages]
    assert len(frozen) == len(times)
    lst.append(_msg(999, 1e9))
    lst.release_cleaned()
    lst.prepend_snapshot(frozen)
    recovered = [m.obj for m in lst.messages()]
    assert recovered == [i for i in range(len(times))] + [999]
