"""Configuration for the G-Grid index and its GPU/CPU cost models.

Defaults follow the paper's tuned values (Section VII-C1): cell capacity
``delta_c = 3`` and vertex capacity ``delta_v = 2`` (sized for a 128-byte
L1 line), bucket capacity ``delta_b = 128`` (Fig. 4a), bundle size
``2^eta = 32`` (the warp size, Fig. 4b), workload-balance factor
``rho = 1.8`` (Fig. 4c), and a maximum update interval ``t_delta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.simgpu.device import CostModel


@dataclass(frozen=True)
class GGridConfig:
    """All tunables of the G-Grid index and query processor.

    Attributes:
        delta_c: cell capacity — max vertices per grid cell.
        delta_v: vertex capacity — max edges stored per (virtual) vertex.
        delta_b: bucket capacity — messages per message-list bucket.
        eta: bundles have ``2^eta`` threads in the X-shuffle.
        rho: candidate-set inflation factor (``> 1``); the query gathers
            at least ``rho * k`` candidate objects before the GPU phase.
        t_delta: maximum seconds between two location updates of an
            object; buckets older than this are discarded unread.
        pipelined_transfers: overlap H2D transfers with cleaning kernels.
        sdist_early_exit: stop GPU_SDist after the first synchronous
            round that changes no distance (an optimisation ablated in
            the benchmarks; the paper's Algorithm 5 always runs ``|V|``
            rounds).  GPU_SDist has one kernel, so no backend is chosen.
        partitioner: ``"multilevel"`` (the default: recursive balanced
            bisection via the multilevel partitioner, minimising crossing
            edges) or ``"geometric"`` (coordinate-median splits over
            numpy arrays — same capacity guarantee, near-linear build
            time; the choice for paper-scale graphs).
        max_buckets_per_cell: optional cap on a cell's message-list
            backlog; reaching it makes ingest force an in-line cleaning
            of the cell (backpressure) instead of growing the list.
            ``None`` (default) is unbounded — the paper's behaviour.
            Chaos profiles shrink this to exercise capacity pressure.
        seed: base RNG seed for partitioning and simulated write races.
        gpu: simulated-device cost model.

    The CPU side of the cost model (``cpu_workers``, ``python_speedup``)
    is :class:`~repro.server.metrics.TimingModel`'s, not the index's.
    """

    delta_c: int = 3
    delta_v: int = 2
    delta_b: int = 128
    eta: int = 5
    rho: float = 1.8
    t_delta: float = 60.0
    pipelined_transfers: bool = True
    sdist_early_exit: bool = True
    partitioner: str = "multilevel"
    max_buckets_per_cell: int | None = None
    seed: int = 0
    gpu: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.delta_c < 1:
            raise ConfigError(f"delta_c must be >= 1, got {self.delta_c}")
        if self.delta_v < 1:
            raise ConfigError(f"delta_v must be >= 1, got {self.delta_v}")
        if self.delta_b < 1:
            raise ConfigError(f"delta_b must be >= 1, got {self.delta_b}")
        if self.eta < 1:
            raise ConfigError(f"eta must be >= 1, got {self.eta}")
        if self.rho <= 1.0:
            raise ConfigError(f"rho must be > 1, got {self.rho}")
        if self.t_delta <= 0:
            raise ConfigError(f"t_delta must be positive, got {self.t_delta}")
        if self.partitioner not in ("multilevel", "geometric"):
            raise ConfigError(f"unknown partitioner {self.partitioner!r}")
        if self.max_buckets_per_cell is not None and self.max_buckets_per_cell < 1:
            raise ConfigError(
                f"max_buckets_per_cell must be >= 1, "
                f"got {self.max_buckets_per_cell}"
            )

    @property
    def bundle_size(self) -> int:
        """Threads per X-shuffle bundle: ``2^eta``."""
        return 1 << self.eta

    def with_(self, **overrides: object) -> "GGridConfig":
        """A copy with the given fields replaced (keyword style)."""
        return replace(self, **overrides)  # type: ignore[arg-type]
