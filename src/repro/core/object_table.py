"""The object table: latest known location of every object.

Section III-B: a CPU-side hash table mapping ``o.id -> <c.id, e.id, d>``.
Algorithm 1 updates it eagerly on every message (line 6) — the hash put is
cheap; what the lazy strategy avoids is the expensive per-cell spatial
materialisation, which lives in the message lists until queried.

Alongside the paper's mapping we maintain the inverse ``cell -> objects``
view; the CPU refinement step (Algorithm 6) uses it to enumerate objects
inside an unresolved range, and tests use it as the oracle that lazy
cleaning must agree with.  For the array-native hot paths (DESIGN.md §16)
the inverse view is also available as cached per-cell *columns* —
``(objs, edges, offsets, ts)`` numpy arrays in ascending object order —
so refinement and cleaning score whole cells with vectorised numpy
instead of per-object dict lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import UnknownObjectError
from repro.simgpu.memory import TABLE_ENTRY_BYTES

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class ObjectEntry:
    """Value of one object-table entry: ``<cell, edge, offset>`` at ``t``."""

    cell: int
    edge: int
    offset: float
    t: float


@dataclass(frozen=True, slots=True)
class CellColumns:
    """Array-backed view of one cell's objects (ascending object id)."""

    objs: np.ndarray  # int64 object ids
    edges: np.ndarray  # int64 entry edge ids
    offsets: np.ndarray  # float64 on-edge offsets
    ts: np.ndarray  # float64 report timestamps


class ObjectTable:
    """Hash table of latest object locations with a per-cell inverse."""

    def __init__(self) -> None:
        self._entries: dict[int, ObjectEntry] = {}
        self._cell_objects: dict[int, set[int]] = {}
        self._columns: dict[int, CellColumns] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, obj: int) -> bool:
        return obj in self._entries

    def get(self, obj: int) -> ObjectEntry:
        """Entry for ``obj``.

        Raises:
            UnknownObjectError: when the object was never ingested.
        """
        try:
            return self._entries[obj]
        except KeyError:
            raise UnknownObjectError(f"object {obj} not in the object table") from None

    def try_get(self, obj: int) -> ObjectEntry | None:
        return self._entries.get(obj)

    def cell_of(self, obj: int) -> int:
        """The ``getCellFromOT`` lookup of Algorithm 1."""
        return self.get(obj).cell

    def put(self, obj: int, entry: ObjectEntry) -> None:
        """The ``setOT`` update of Algorithm 1 (eager, O(1))."""
        old = self._entries.get(obj)
        if old is not None and old.cell != entry.cell:
            self._discard_from_cell(old.cell, obj)
        self._entries[obj] = entry
        self._cell_objects.setdefault(entry.cell, set()).add(obj)
        self._columns.pop(entry.cell, None)

    def remove(self, obj: int) -> None:
        """Drop an object entirely (e.g. a car going offline)."""
        entry = self._entries.pop(obj, None)
        if entry is None:
            raise UnknownObjectError(f"object {obj} not in the object table")
        self._discard_from_cell(entry.cell, obj)

    def _discard_from_cell(self, cell: int, obj: int) -> None:
        """Drop ``obj`` from a cell's set, pruning the set when drained —
        a fleet sweeping across the map must not grow the inverse map
        toward ``O(cells ever visited)``."""
        objs = self._cell_objects.get(cell)
        if objs is not None:
            objs.discard(obj)
            if not objs:
                del self._cell_objects[cell]
        self._columns.pop(cell, None)

    def objects_in_cell(self, cell: int) -> frozenset[int]:
        """Objects whose latest location lies in ``cell``.

        Returns a live read-only view (callers must not mutate it and
        must not call :meth:`put` / :meth:`remove` while iterating) —
        the refine hot loop calls this per touched cell, and a defensive
        copy per call is exactly the per-item cost the array layouts
        eliminate.
        """
        return self._cell_objects.get(cell, _EMPTY)  # type: ignore[return-value]

    def occupied(self, cell: int) -> bool:
        """True when some object's latest location lies in ``cell``.  O(1):
        drained per-cell sets are pruned, so presence means non-empty."""
        return cell in self._cell_objects

    def cell_columns(self, cell: int) -> CellColumns | None:
        """The cell's objects as numpy columns, or ``None`` when empty.

        Built on first use per cell and cached until any object enters or
        leaves the cell (or re-reports inside it).  Object order is
        ascending id, so equal-distance ties downstream resolve the same
        way no matter how the underlying set hashed.
        """
        cols = self._columns.get(cell)
        if cols is None:
            objs = self._cell_objects.get(cell)
            if not objs:
                return None
            ids = sorted(objs)
            entries = [self._entries[o] for o in ids]
            n = len(ids)
            cols = CellColumns(
                np.asarray(ids, dtype=np.int64),
                np.fromiter((e.edge for e in entries), np.int64, n),
                np.fromiter((e.offset for e in entries), np.float64, n),
                np.fromiter((e.t for e in entries), np.float64, n),
            )
            self._columns[cell] = cols
        return cols

    def occupied_cells(self) -> list[int]:
        """Cells currently holding at least one object.

        O(occupied cells), independent of the grid size — diagnostics
        iterate this instead of scanning every cell id.  (Sets pruned on
        drain, so no emptiness filter is needed.)
        """
        return list(self._cell_objects)

    def num_tracked_cells(self) -> int:
        """Size of the internal inverse map (churn regression tests)."""
        return len(self._cell_objects)

    def objects(self) -> dict[int, ObjectEntry]:
        """A snapshot copy of all entries (test/diagnostic use)."""
        return dict(self._entries)

    def size_bytes(self) -> int:
        """Modelled memory footprint (Section VI-A: ``O(|O|)``)."""
        return len(self._entries) * (TABLE_ENTRY_BYTES + 16)
