"""The simulated GPU device and its cost model.

:class:`SimGpu` owns device memory, a stats block and a
:class:`CostModel`.  Kernels are Python callables executed through
:meth:`SimGpu.launch`; they receive a
:class:`~repro.simgpu.kernel.KernelContext` through which they charge
per-lane operations, execute shuffles and hit barriers, so that simulated
kernel time reflects the work the real kernels would do at the modelled
SIMD width.

Default cost-model constants approximate the paper's Quadro P2000 (1024
cores, 5 GB) talking to the host over PCIe 3.0 x16: the absolute numbers
do not matter for the reproduction, the *ratios* (parallel speedup,
transfer latency vs. bandwidth) do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError, KernelError, TransferError
from repro.simgpu.kernel import KernelContext
from repro.simgpu.memory import DeviceMemory, nbytes_of
from repro.simgpu.stats import GpuStats


@dataclass(frozen=True)
class CostModel:
    """Timing constants for the simulated device.

    Attributes:
        num_cores: physical lanes executing in parallel (P2000: 1024).
        warp_size: lanes per warp (CUDA: 32).  Bundles larger than a warp
            pay the ``sync_cost_s`` barrier per shuffle round, which is
            what makes ``2^eta > 32`` lose in Fig. 4b.
        lane_op_time_s: time for one register/ALU operation on one lane.
        mem_op_time_s: time for one global-memory access per lane
            (amortised over coalescing; dominates data-heavy kernels).
        shuffle_op_time_s: time for one warp shuffle instruction.
        sync_cost_s: cost of a cross-warp ``sync_threads`` barrier.
        kernel_launch_time_s: fixed per-launch overhead.
        transfer_latency_s: fixed per-transfer latency (DMA setup).
        transfer_bandwidth_bps: host<->device bandwidth in bytes/second.
        device_memory_bytes: device memory capacity.
    """

    num_cores: int = 1024
    warp_size: int = 32
    lane_op_time_s: float = 1.0e-9
    mem_op_time_s: float = 2.0e-8
    shuffle_op_time_s: float = 1.0e-9
    sync_cost_s: float = 4.0e-7
    kernel_launch_time_s: float = 5.0e-6
    transfer_latency_s: float = 1.0e-5
    transfer_bandwidth_bps: float = 12.0e9
    device_memory_bytes: int = 5 * 1024**3

    def __post_init__(self) -> None:
        if self.num_cores <= 0 or self.num_cores & (self.num_cores - 1):
            raise KernelError(f"num_cores must be a power of two, got {self.num_cores}")
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise KernelError(f"warp_size must be a power of two, got {self.warp_size}")

    def op_time(self, n_threads: int, ops_per_thread: float) -> float:
        """Time for all threads to run ``ops_per_thread`` lane operations.

        Threads beyond ``num_cores`` serialise in waves, which is what
        makes tiny thread counts under-utilise the device (the rising tail
        of Fig. 4a at large bucket capacity).
        """
        waves = max(1, math.ceil(n_threads / self.num_cores))
        return waves * ops_per_thread * self.lane_op_time_s

    def mem_time(self, n_threads: int, ops_per_thread: float) -> float:
        """Time for all threads to run ``ops_per_thread`` memory accesses."""
        waves = max(1, math.ceil(n_threads / self.num_cores))
        return waves * ops_per_thread * self.mem_op_time_s

    def transfer_time(self, nbytes: int) -> float:
        """Latency + bandwidth model of one host<->device transfer."""
        return self.transfer_latency_s + nbytes / self.transfer_bandwidth_bps


class SimGpu:
    """A deterministic software GPU.

    Example:
        >>> gpu = SimGpu()
        >>> gpu.to_device("xs", [1, 2, 3, 4])
        16
        >>> def double(ctx, xs):
        ...     ctx.charge(1)
        ...     return [x * 2 for x in xs]
        >>> gpu.launch("double", 4, double, gpu.fetch("xs"))
        [2, 4, 6, 8]
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.memory = DeviceMemory(self.cost_model.device_memory_bytes)
        self.stats = GpuStats()
        # Optional fault-injection hook (see repro.chaos).  None on the
        # hot path: launches and transfers pay one attribute check only.
        self.fault_hook: "object | None" = None

    # ------------------------------------------------------------------
    # fault injection (repro.chaos)
    # ------------------------------------------------------------------
    def install_fault_hook(self, hook: object) -> None:
        """Attach a fault-injection hook to this device.

        The hook is consulted before every kernel launch
        (``on_kernel(name, n_threads)``), host<->device transfer
        (``on_transfer(direction, name, nbytes)``) and — via
        :attr:`DeviceMemory.alloc_hook` — allocation
        (``on_alloc(name, nbytes)``); raising from a hook simulates the
        corresponding device fault.

        Raises:
            ConfigError: a hook is already installed (two injectors
                fighting over one device would make fault schedules
                non-reproducible).
        """
        if self.fault_hook is not None:
            raise ConfigError("a fault hook is already installed on this device")
        self.fault_hook = hook
        self.memory.alloc_hook = getattr(hook, "on_alloc", None)

    def uninstall_fault_hook(self) -> None:
        """Detach the fault-injection hook (idempotent)."""
        self.fault_hook = None
        self.memory.alloc_hook = None

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def to_device(self, name: str, data: Any, nbytes: int | None = None) -> int:
        """Copy ``data`` host -> device under ``name``; returns bytes moved."""
        size = nbytes_of(data) if nbytes is None else nbytes
        if size < 0:
            raise TransferError(f"negative transfer size {size}")
        if self.fault_hook is not None:
            self.fault_hook.on_transfer("h2d", name, size)
        self.memory.store(name, data, size)
        self.stats.bytes_h2d += size
        self.stats.transfers_h2d += 1
        self.stats.transfer_time_s += self.cost_model.transfer_time(size)
        return size

    def from_device(self, name: str, nbytes: int | None = None) -> Any:
        """Copy the allocation ``name`` device -> host and return it."""
        if self.fault_hook is not None:
            self.fault_hook.on_transfer("d2h", name, self.memory.nbytes(name))
        data = self.memory.fetch(name)
        size = self.memory.nbytes(name) if nbytes is None else nbytes
        self.stats.bytes_d2h += size
        self.stats.transfers_d2h += 1
        self.stats.transfer_time_s += self.cost_model.transfer_time(size)
        return data

    def fetch(self, name: str) -> Any:
        """Device-side access to an allocation (no transfer charged)."""
        return self.memory.fetch(name)

    def free(self, name: str) -> None:
        self.memory.free(name)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel_name: str,
        n_threads: int,
        fn: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn(ctx, *args, **kwargs)`` as a kernel over ``n_threads``.

        The kernel charges its work through the context; this method adds
        the launch overhead and converts the charged work into simulated
        kernel time using the cost model.

        Raises:
            KernelError: non-positive thread count.
        """
        if n_threads <= 0:
            raise KernelError(
                f"kernel {kernel_name!r} launched with {n_threads} threads"
            )
        if self.fault_hook is not None:
            self.fault_hook.on_kernel(kernel_name, n_threads)
        ctx = KernelContext(self, kernel_name, n_threads)
        self.stats.kernel_launches += 1
        self.stats.kernel_time_s += self.cost_model.kernel_launch_time_s
        result = fn(ctx, *args, **kwargs)
        self.stats.kernel_time_s += ctx.elapsed_s
        self.stats.lane_ops += ctx.lane_ops
        self.stats.shuffle_ops += ctx.shuffle_ops
        self.stats.sync_count += ctx.sync_count
        self.stats.atomic_ops += ctx.atomic_ops
        return result

    def launch_batched(
        self,
        kernel_name: str,
        n_threads: int,
        jobs: int,
        fn: Callable[..., Any],
        *args: Any,
    ) -> Any:
        """Run a fused batch kernel carrying ``jobs`` per-query jobs.

        Identical to :meth:`launch` (one launch overhead, one fault-hook
        consultation) plus batch accounting: when ``jobs > 1``,
        ``batched_launches`` and ``batched_jobs`` record how many
        per-query launches the fusion replaced.  A one-job launch fuses
        nothing and costs exactly what :meth:`launch` costs.  The kernel
        itself is responsible for charging each job's work at that job's
        thread count (see :class:`~repro.simgpu.kernel.JobContext`).

        Raises:
            KernelError: non-positive thread or job count.
        """
        if jobs <= 0:
            raise KernelError(
                f"batched kernel {kernel_name!r} launched with {jobs} jobs"
            )
        result = self.launch(kernel_name, n_threads, fn, *args)
        if jobs > 1:
            self.stats.batched_launches += 1
            self.stats.batched_jobs += jobs
        return result
