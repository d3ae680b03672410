"""A deterministic software GPU used in place of CUDA.

The paper's algorithms use the GPU in four specific ways — lockstep SIMT
kernels, warp *butterfly shuffles* (``shuffle_xor``), ``sync_threads``
barriers, and explicit host<->device transfers (optionally pipelined
through streams).  This subpackage implements exactly those semantics in
software, together with a calibrated cost model, so that every paper
kernel runs unmodified in spirit and the benchmarks report simulated GPU
time and transfer volumes with the right *shape* (see DESIGN.md §2).

* :mod:`repro.simgpu.stats` — operation/transfer counters and times;
* :mod:`repro.simgpu.memory` — device allocations and byte accounting;
* :mod:`repro.simgpu.warp` — warp-level shuffle primitives;
* :mod:`repro.simgpu.kernel` — kernel launch contexts;
* :mod:`repro.simgpu.device` — the :class:`SimGpu` device + cost model;
* :mod:`repro.simgpu.stream` — pipelined transfer/compute streams.
"""

from repro.simgpu.device import CostModel, SimGpu
from repro.simgpu.kernel import KernelContext
from repro.simgpu.stats import GpuStats
from repro.simgpu.stream import PipelinedStream
from repro.simgpu.trace import GpuTrace
from repro.simgpu.warp import shuffle_xor

__all__ = [
    "CostModel",
    "SimGpu",
    "KernelContext",
    "GpuStats",
    "PipelinedStream",
    "shuffle_xor",
    "GpuTrace",
]
