"""Kernel execution contexts.

A kernel in this simulator is a Python function written in lockstep style:
it manipulates per-lane arrays (one slot per thread) phase by phase and
reports its work through the :class:`KernelContext` —
:meth:`~KernelContext.charge` for plain lane operations,
:meth:`~KernelContext.shuffle_xor` for butterfly shuffles and
:meth:`~KernelContext.sync_threads` for barriers.  The context converts
those into simulated time using the owning device's cost model, including
the warp-size effect: shuffles across warp boundaries cost a full barrier,
which is why bundles larger than one warp slow down (Fig. 4b).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence, TypeVar

from repro.simgpu import warp as warp_mod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simgpu.device import SimGpu

T = TypeVar("T")


class KernelContext:
    """Work-accounting handle passed to every simulated kernel."""

    def __init__(self, device: "SimGpu", name: str, n_threads: int) -> None:
        self.device = device
        self.name = name
        self.n_threads = n_threads
        self.lane_ops = 0
        self.shuffle_ops = 0
        self.sync_count = 0
        self.atomic_ops = 0
        self.elapsed_s = 0.0

    # ------------------------------------------------------------------
    # work charging
    # ------------------------------------------------------------------
    def charge(self, ops_per_thread: float, n_threads: int | None = None) -> None:
        """Charge ``ops_per_thread`` lane operations on ``n_threads`` lanes."""
        n = self.n_threads if n_threads is None else n_threads
        self.lane_ops += int(math.ceil(ops_per_thread * n))
        self.elapsed_s += self.device.cost_model.op_time(n, ops_per_thread)

    def charge_mem(self, ops_per_thread: float, n_threads: int | None = None) -> None:
        """Charge global-memory accesses (slower than register ops)."""
        n = self.n_threads if n_threads is None else n_threads
        self.lane_ops += int(math.ceil(ops_per_thread * n))
        self.elapsed_s += self.device.cost_model.mem_time(n, ops_per_thread)

    def charge_atomic(self, writes: int) -> None:
        """Charge racy/atomic global-table writes (serialised per conflict)."""
        self.atomic_ops += writes
        # atomics contend: model as ~4x a plain lane op each
        self.elapsed_s += writes * 4 * self.device.cost_model.lane_op_time_s

    def sync_threads(self) -> None:
        """A grid-wide barrier (the expensive one past warp boundaries)."""
        self.sync_count += 1
        self.elapsed_s += self.device.cost_model.sync_cost_s

    # ------------------------------------------------------------------
    # warp primitives
    # ------------------------------------------------------------------
    def charge_shuffle(self, bundle_size: int, n_threads: int | None = None) -> None:
        """Charge one butterfly-shuffle step over all lanes of the launch.

        When the bundle fits in a warp the shuffle costs one instruction
        per lane; when it spans multiple warps the exchange must go
        through shared memory guarded by a barrier, modelled as the
        shuffle plus a ``sync_threads`` (this is the Fig. 4b effect).
        """
        cm = self.device.cost_model
        n = self.n_threads if n_threads is None else n_threads
        self.shuffle_ops += n
        self.elapsed_s += cm.op_time(n, 1) * (cm.shuffle_op_time_s / cm.lane_op_time_s)
        if bundle_size > cm.warp_size:
            self.sync_threads()

    def shuffle_xor(self, values: Sequence[T], lane_mask: int) -> list[T]:
        """Butterfly-shuffle one register across a bundle of lanes,
        charging the cost for exactly this bundle's lanes."""
        self.charge_shuffle(len(values), n_threads=len(values))
        return warp_mod.shuffle_xor(values, lane_mask)

    @property
    def warp_size(self) -> int:
        return self.device.cost_model.warp_size


class JobContext:
    """A per-job view of a fused batch launch's context.

    The fused epoch kernels (``sdist_batch_kernel`` & friends, see
    :mod:`repro.core.sdist`) run several queries' jobs inside one launch.
    Each job wraps the launch context in a ``JobContext`` carrying that
    job's own thread count, so the fused launch charges exactly the lane
    operations, barriers and simulated time the per-query launches would
    have — what the batch saves is launch overheads and transfer
    latencies, never silently discounted kernel work.
    """

    __slots__ = ("_ctx", "n_threads")

    def __init__(self, ctx: "KernelContext | HostContext", n_threads: int) -> None:
        self._ctx = ctx
        self.n_threads = max(1, n_threads)

    def charge(self, ops_per_thread: float, n_threads: int | None = None) -> None:
        self._ctx.charge(
            ops_per_thread, self.n_threads if n_threads is None else n_threads
        )

    def charge_mem(self, ops_per_thread: float, n_threads: int | None = None) -> None:
        self._ctx.charge_mem(
            ops_per_thread, self.n_threads if n_threads is None else n_threads
        )

    def charge_atomic(self, writes: int) -> None:
        self._ctx.charge_atomic(writes)

    def charge_shuffle(self, bundle_size: int, n_threads: int | None = None) -> None:
        self._ctx.charge_shuffle(
            bundle_size, self.n_threads if n_threads is None else n_threads
        )

    def sync_threads(self) -> None:
        self._ctx.sync_threads()

    def shuffle_xor(self, values: Sequence[T], lane_mask: int) -> list[T]:
        return self._ctx.shuffle_xor(values, lane_mask)

    @property
    def warp_size(self) -> int:
        return self._ctx.warp_size


class HostContext:
    """A no-device kernel context for degraded-mode host execution.

    The resilience ladder (see :mod:`repro.resilience`) runs the
    same lockstep kernel functions on the CPU when the device is
    faulting.  Work charging is a no-op — host execution is paid for in
    measured wall time, not simulated device time — and no
    :class:`~repro.simgpu.device.SimGpu` state is touched, so a host run
    can never trip the fault injector.
    """

    __slots__ = ("name", "n_threads", "warp_size")

    def __init__(self, name: str = "host", n_threads: int = 1, warp_size: int = 32):
        self.name = name
        self.n_threads = n_threads
        self.warp_size = warp_size

    def charge(self, ops_per_thread: float, n_threads: int | None = None) -> None:
        pass

    def charge_mem(self, ops_per_thread: float, n_threads: int | None = None) -> None:
        pass

    def charge_atomic(self, writes: int) -> None:
        pass

    def charge_shuffle(self, bundle_size: int, n_threads: int | None = None) -> None:
        pass

    def sync_threads(self) -> None:
        pass

    def shuffle_xor(self, values: Sequence[T], lane_mask: int) -> list[T]:
        return warp_mod.shuffle_xor(values, lane_mask)
