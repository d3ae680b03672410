"""Background maintenance policies for the G-Grid message lists.

Pure lazy cleaning (the paper's default) gives the best amortised time
but lets backlog build up in rarely-queried regions, so the first query
to touch a cold region pays a latency spike.  Production deployments
bound that spike with background cleaning; this module provides three
policies a :class:`~repro.server.server.QueryServer` can run between
events:

* :class:`NoMaintenance` — the paper's pure lazy strategy;
* :class:`PeriodicCleaning` — sweep every cell every ``interval``
  seconds (round-robin in bounded slices, so no single tick stalls);
* :class:`BacklogCleaning` — clean any cell whose cached-message count
  exceeds a threshold (targets hot writers, ignores quiet cells).

Queries stay exact under every policy (cleaning is semantics-preserving);
only the latency distribution changes.  The policy/latency trade-off is
measured in ``benchmarks/bench_maintenance.py``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.ggrid import GGridIndex
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry


def _maintenance_counter(registry: MetricsRegistry | None, policy: str):
    """Resolve the shared cells-cleaned counter for one policy label."""
    if registry is None:
        return None
    return registry.counter(
        "repro_maintenance_cells_cleaned_total",
        help="Cells cleaned by background maintenance policies.",
        labelnames=("policy",),
    ).labels(policy=policy)


@runtime_checkable
class MaintenancePolicy(Protocol):
    """Hook invoked by the server after every ingested update."""

    def on_update(self, index: GGridIndex, t_now: float) -> None:
        """Perform any due background cleaning."""
        ...


class NoMaintenance:
    """The paper's pure lazy strategy: never clean in the background."""

    def on_update(self, index: GGridIndex, t_now: float) -> None:
        return None


class PeriodicCleaning:
    """Sweep the whole grid once every ``interval`` seconds.

    Each due tick cleans the next ``slice_cells`` cells round-robin, so
    the sweep amortises across updates instead of stalling one of them.
    """

    def __init__(
        self,
        interval: float,
        slice_cells: int = 16,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval}")
        if slice_cells < 1:
            raise ConfigError(f"slice_cells must be >= 1, got {slice_cells}")
        self.interval = interval
        self.slice_cells = slice_cells
        self._next_due = interval
        self._cursor = 0
        self.cells_cleaned = 0
        self.sweeps = 0
        self._counter = _maintenance_counter(registry, "periodic")

    def on_update(self, index: GGridIndex, t_now: float) -> None:
        if t_now < self._next_due:
            return
        num_cells = index.grid.num_cells
        cells = {
            (self._cursor + i) % num_cells for i in range(self.slice_cells)
        }
        index.clean_cells(cells, t_now=t_now)
        self.cells_cleaned += len(cells)
        if self._counter is not None:
            self._counter.inc(len(cells))
        self._cursor = (self._cursor + self.slice_cells) % num_cells
        if self._cursor < self.slice_cells:  # wrapped: one sweep done
            self.sweeps += 1
        # next slice is due after a proportional share of the interval
        self._next_due = t_now + self.interval * self.slice_cells / max(
            num_cells, 1
        )


class BacklogCleaning:
    """Clean any cell whose cached-message backlog exceeds a threshold.

    This bounds the worst-case per-query cleaning volume to roughly
    ``max_backlog`` messages per touched cell.
    """

    def __init__(
        self, max_backlog: int, registry: MetricsRegistry | None = None
    ) -> None:
        if max_backlog < 1:
            raise ConfigError(f"max_backlog must be >= 1, got {max_backlog}")
        self.max_backlog = max_backlog
        self.cells_cleaned = 0
        self._counter = _maintenance_counter(registry, "backlog")

    def on_update(self, index: GGridIndex, t_now: float) -> None:
        over = {
            cell
            for cell, mlist in index.lists.items()
            if mlist.num_messages > self.max_backlog and not mlist.locked
        }
        if over:
            index.clean_cells(over, t_now=t_now)
            self.cells_cleaned += len(over)
            if self._counter is not None:
                self._counter.inc(len(over))
