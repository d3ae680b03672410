"""Unit tests for the simulated device and its cost model."""

import pytest

from repro.errors import KernelError
from repro.simgpu.device import CostModel, SimGpu


def test_transfer_accounting():
    gpu = SimGpu()
    moved = gpu.to_device("x", [1, 2, 3])
    assert moved == 12
    assert gpu.stats.bytes_h2d == 12
    assert gpu.stats.transfers_h2d == 1
    gpu.from_device("x")
    assert gpu.stats.bytes_d2h == 12
    assert gpu.stats.transfers_d2h == 1


def test_transfer_time_latency_plus_bandwidth():
    cm = CostModel()
    small = cm.transfer_time(0)
    big = cm.transfer_time(10**9)
    assert small == pytest.approx(cm.transfer_latency_s)
    assert big == pytest.approx(cm.transfer_latency_s + 1e9 / cm.transfer_bandwidth_bps)


def test_fetch_does_not_charge():
    gpu = SimGpu()
    gpu.to_device("x", [1])
    before = gpu.stats.snapshot()
    gpu.fetch("x")
    assert gpu.stats.diff(before).total_bytes == 0


def test_launch_runs_kernel_and_charges():
    gpu = SimGpu()

    def kernel(ctx, xs):
        ctx.charge(2)
        return [x + 1 for x in xs]

    out = gpu.launch("inc", 4, kernel, [1, 2, 3, 4])
    assert out == [2, 3, 4, 5]
    assert gpu.stats.kernel_launches == 1
    assert gpu.stats.lane_ops == 8
    assert gpu.stats.kernel_time_s > 0


def test_one_job_batched_launch_costs_a_plain_launch():
    def kernel(ctx, xs):
        ctx.charge(3)
        ctx.charge_mem(1)
        ctx.charge_atomic(2)
        return sum(xs)

    plain, fused = SimGpu(), SimGpu()
    assert plain.launch("k", 40, kernel, [1, 2]) == 3
    assert fused.launch_batched("k", 40, 1, kernel, [1, 2]) == 3
    # a batch of one fuses nothing: no batch accounting, the same charge
    assert fused.stats.batched_launches == 0
    assert fused.stats.batched_jobs == 0
    assert fused.stats.as_dict() == plain.stats.as_dict()

    fused.launch_batched("k", 40, 3, kernel, [1, 2])
    assert fused.stats.batched_launches == 1
    assert fused.stats.batched_jobs == 3
    with pytest.raises(KernelError):
        fused.launch_batched("k", 40, 0, kernel, [1, 2])


def test_launch_rejects_zero_threads():
    gpu = SimGpu()
    with pytest.raises(KernelError):
        gpu.launch("bad", 0, lambda ctx: None)


def test_op_time_waves():
    """Threads beyond the core count serialise into waves."""
    cm = CostModel(num_cores=4)
    one_wave = cm.op_time(4, 10)
    two_waves = cm.op_time(5, 10)
    assert two_waves == pytest.approx(2 * one_wave)


def test_mem_ops_slower_than_lane_ops():
    cm = CostModel()
    assert cm.mem_time(32, 1) > cm.op_time(32, 1)


def test_shuffle_within_warp_no_sync():
    gpu = SimGpu()

    def kernel(ctx):
        return ctx.shuffle_xor(list(range(32)), 1)

    gpu.launch("s", 32, kernel)
    assert gpu.stats.sync_count == 0
    assert gpu.stats.shuffle_ops == 32


def test_shuffle_across_warps_costs_barrier():
    gpu = SimGpu()

    def kernel(ctx):
        return ctx.shuffle_xor(list(range(64)), 1)

    gpu.launch("s", 64, kernel)
    assert gpu.stats.sync_count == 1


def test_cost_model_validates_geometry():
    with pytest.raises(KernelError):
        CostModel(num_cores=3)
    with pytest.raises(KernelError):
        CostModel(warp_size=0)


def test_device_memory_limit_enforced():
    from repro.errors import DeviceMemoryError

    gpu = SimGpu(CostModel(device_memory_bytes=16))
    with pytest.raises(DeviceMemoryError):
        gpu.to_device("big", [0] * 100)
