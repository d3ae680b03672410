"""Bucketed per-cell message lists (Section III-C).

Each grid cell owns a linked list of fixed-capacity buckets holding the
location updates that arrived for that cell, in chronological order.  A
list carries three pointers: ``p_h`` (head), ``p_t`` (tail) and ``p_l``
(lock) — buckets *before* ``p_l`` are frozen for an in-flight cleaning
pass (Section IV-B1) while new messages keep appending at the tail, so
ingest never blocks on cleaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import CapacityError, CleaningLockError
from repro.core.messages import Message
from repro.simgpu.memory import MESSAGE_BYTES


@dataclass
class Bucket:
    """A fixed-capacity message bucket: ``<A_m, n, t, p_n>``.

    ``t`` is the timestamp of the *latest* message in the bucket — the
    maximum over all messages, not the last one's.  Removal markers and
    skewed client clocks can append out of order, and ``t`` feeds the
    whole-bucket stale-pruning of :meth:`MessageList.locked_buckets`:
    taking the last message's timestamp would let a bucket holding a
    fresh message be discarded as wholly obsolete.  ``cell`` is carried
    for diagnostics only (overflow errors name the cell).
    """

    capacity: int
    messages: list[Message] = field(default_factory=list)
    next: "Bucket | None" = None
    cell: int | None = None
    #: cached ``(obj, t, removal_flag)`` columns + the length they cover
    _cols: tuple[np.ndarray, np.ndarray, np.ndarray, int] | None = field(
        default=None, repr=False, compare=False
    )
    #: running max of the message timestamps, kept by :meth:`append`
    _t: float = field(default=float("-inf"), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._t = max((m.t for m in self.messages), default=float("-inf"))

    @property
    def n(self) -> int:
        return len(self.messages)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-backed ``(obj, t, flag)`` columns over the messages.

        ``flag`` is the sort-key tiebreak of
        :attr:`repro.core.messages.Message.sort_key`: 0 for removal
        markers, 1 for location updates.  Cached until the bucket grows
        (buckets are append-only), so repeated host dedups of the same
        backlog pay the materialisation once.
        """
        cols = self._cols
        n = len(self.messages)
        if cols is None or cols[3] != n:
            cols = (
                np.fromiter((m.obj for m in self.messages), np.int64, n),
                np.fromiter((m.t for m in self.messages), np.float64, n),
                np.fromiter(
                    (0 if m.is_removal else 1 for m in self.messages), np.int64, n
                ),
                n,
            )
            self._cols = cols
        return cols[0], cols[1], cols[2]

    @property
    def t(self) -> float:
        """Latest message time (max over the bucket); ``-inf`` if empty."""
        return self._t

    @property
    def full(self) -> bool:
        return len(self.messages) >= self.capacity

    def append(self, message: Message) -> None:
        if self.full:
            where = "unassigned" if self.cell is None else str(self.cell)
            raise CapacityError(
                f"bucket full at capacity {self.capacity} "
                f"(cell={where}, n={self.n})"
            )
        self.messages.append(message)
        if message.t > self._t:
            self._t = message.t

    def device_nbytes(self) -> int:
        """Transfer size: the paper ships only the used message slots."""
        return self.n * MESSAGE_BYTES


class MessageList:
    """The per-cell chronological update log.

    Example:
        >>> lst = MessageList(capacity=2)
        >>> for i in range(5):
        ...     lst.append(Message(obj=1, edge=0, offset=0.0, t=float(i)))
        >>> lst.num_messages, lst.num_buckets
        (5, 3)
    """

    def __init__(
        self,
        capacity: int,
        cell: int | None = None,
        max_buckets: int | None = None,
    ) -> None:
        """Args:
            capacity: messages per bucket (``delta_b``).
            cell: owning cell id, carried into overflow diagnostics.
            max_buckets: optional backlog cap — :meth:`append` refuses to
                open a bucket beyond this many, raising
                :class:`~repro.errors.CapacityError` so the caller can
                force an in-line cleaning (backpressure) instead of
                growing without bound.  ``None`` (default) is unbounded.
        """
        if capacity < 1:
            raise CapacityError(f"bucket capacity must be >= 1, got {capacity}")
        if max_buckets is not None and max_buckets < 1:
            raise CapacityError(f"max_buckets must be >= 1, got {max_buckets}")
        self.capacity = capacity
        self.cell = cell
        self.max_buckets = max_buckets
        self._head: Bucket | None = None
        self._tail: Bucket | None = None
        self._lock: Bucket | None = None  # p_l: cleaning frontier

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def append(self, message: Message) -> None:
        """Append a message at the tail, opening a new bucket when full.

        Raises:
            CapacityError: opening a new bucket would exceed
                ``max_buckets``; the message names the cell and the
                backlog depth so chaos-test failures are diagnosable.
        """
        if self._tail is None or self._tail.full:
            if self.max_buckets is not None and self.num_buckets >= self.max_buckets:
                where = "unassigned" if self.cell is None else str(self.cell)
                raise CapacityError(
                    f"message list overflow in cell {where}: backlog depth "
                    f"{self.num_buckets} buckets / {self.num_messages} messages "
                    f"at max_buckets={self.max_buckets}; clean the cell to "
                    f"compact before appending"
                )
            bucket = Bucket(self.capacity, cell=self.cell)
            if self._tail is None:
                self._head = self._tail = bucket
            else:
                self._tail.next = bucket
                self._tail = bucket
        self._tail.append(message)

    # ------------------------------------------------------------------
    # cleaning protocol (Section IV-B1)
    # ------------------------------------------------------------------
    @property
    def locked(self) -> bool:
        """True while a cleaning pass owns this list (``p_l`` is set).

        A lock taken on an empty list freezes nothing, but the list is
        still owned by that pass — a second ``lock_for_cleaning`` must
        not steal it, so emptiness does not clear this flag.
        """
        return self._lock is not None

    def lock_for_cleaning(self) -> None:
        """Freeze the current contents: append a fresh (empty) tail bucket
        and point ``p_l`` at it.  Everything before ``p_l`` belongs to the
        cleaner; new messages land in / after the fresh bucket.

        Raises:
            CleaningLockError: the list is already locked.  Re-locking
                would advance ``p_l`` past messages appended after the
                first lock, and the eventual ``release_cleaned`` would
                destroy them without any cleaner ever seeing them.
        """
        if self._lock is not None:
            where = "unassigned" if self.cell is None else str(self.cell)
            raise CleaningLockError(
                f"message list of cell {where} is already locked for "
                f"cleaning; release or abort the in-flight pass first"
            )
        fresh = Bucket(self.capacity, cell=self.cell)
        if self._tail is None:
            self._head = self._tail = fresh
        else:
            self._tail.next = fresh
            self._tail = fresh
        self._lock = fresh

    def locked_buckets(self, t_now: float, t_delta: float) -> list[Bucket]:
        """The live locked buckets to ship to the GPU.

        Buckets whose latest message is older than ``t_now - t_delta`` are
        wholly obsolete (every object must update at least once per
        ``t_delta``) and are skipped — the paper discards them outright.
        """
        cutoff = t_now - t_delta
        result = []
        node = self._head
        while node is not None and node is not self._lock:
            if node.t >= cutoff and node.n > 0:
                result.append(node)
            node = node.next
        return result

    def unlock_abort(self) -> None:
        """Abandon a cleaning pass without consuming anything.

        Clears ``p_l`` so the frozen buckets rejoin the live list intact;
        used when the GPU pipeline fails mid-clean (e.g. device memory
        exhaustion) so no cached update is ever lost to a fault.
        """
        self._lock = None

    def release_cleaned(self) -> int:
        """Drop the buckets consumed by a finished cleaning pass.

        Returns the number of messages discarded.  The list head moves to
        ``p_l`` (the bucket that was fresh at lock time) and the lock
        clears.

        Raises:
            CleaningLockError: no cleaning lock is held.  Releasing an
                unlocked list would walk to the null lock pointer and
                destroy every cached message.
        """
        if self._lock is None:
            where = "unassigned" if self.cell is None else str(self.cell)
            raise CleaningLockError(
                f"release_cleaned on cell {where} without an in-flight "
                f"cleaning lock"
            )
        dropped = 0
        node = self._head
        while node is not None and node is not self._lock:
            dropped += node.n
            node = node.next
        self._head = self._lock if self._lock is not None else None
        if self._head is None:
            self._tail = None
        self._lock = None
        return dropped

    def prepend_snapshot(self, messages: list[Message]) -> None:
        """Re-insert a cleaned snapshot before the current head.

        Section IV-B4: the final result table ``R`` is sent back to the
        CPU "to update the message lists of the corresponding cells" —
        i.e. the cleaned per-object latest locations become the compacted
        new content of the list, ahead of anything that arrived after the
        cleaning lock.  ``messages`` must be in chronological order (their
        timestamps precede any post-lock message by construction).

        On a *locked* list the snapshot is inserted at the lock frontier
        — between the frozen region and ``p_l`` — and ``p_l`` is moved
        back onto the first snapshot bucket.  Inserting before ``p_l``
        without moving it would put the snapshot inside the region a
        later ``release_cleaned`` discards, silently dropping it.
        """
        if not messages:
            return
        buckets: list[Bucket] = []
        for start in range(0, len(messages), self.capacity):
            bucket = Bucket(
                self.capacity,
                list(messages[start : start + self.capacity]),
                cell=self.cell,
            )
            buckets.append(bucket)
        for earlier, later in zip(buckets, buckets[1:]):
            earlier.next = later
        if self._lock is not None:
            # find the predecessor of p_l, splice the snapshot in just
            # before it and repoint p_l so the snapshot survives release
            prev = None
            node = self._head
            while node is not self._lock:
                prev = node
                node = node.next
            buckets[-1].next = self._lock
            if prev is None:
                self._head = buckets[0]
            else:
                prev.next = buckets[0]
            self._lock = buckets[0]
            return
        buckets[-1].next = self._head
        self._head = buckets[0]
        if self._tail is None:
            self._tail = buckets[-1]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def buckets(self) -> Iterator[Bucket]:
        node = self._head
        while node is not None:
            yield node
            node = node.next

    @property
    def num_buckets(self) -> int:
        return sum(1 for _ in self.buckets())

    @property
    def num_messages(self) -> int:
        return sum(b.n for b in self.buckets())

    def messages(self) -> list[Message]:
        """All cached messages in chronological order (test helper)."""
        return [m for b in self.buckets() for m in b.messages]

    def size_bytes(self) -> int:
        """Modelled footprint: full slot arrays plus bucket headers."""
        return self.num_buckets * (self.capacity * MESSAGE_BYTES + 16)
