"""Per-cell reference for :meth:`GraphGrid.pack_of_cells`.

Slices the grid's packed arrays one cell at a time, in ascending cell
order, with its own base map instead of the grid's shared scratch.
Returns ``(vertex_ids, src_local, tgt_local, weights, n_elements,
base_of_cell)``, the fields a :class:`CellSlab` is built from.
"""

import numpy as np


def pack_reference(grid, cells):
    base = np.full(grid.num_cells, -1, dtype=np.int64)
    vi = grid._cell_vert_indptr
    ri = grid._cell_rec_indptr
    offset = 0
    n_elements = 0
    vert_parts = []
    src_cell, src_pos, tgt_local, weights = [], [], [], []
    base_of_cell = {}
    for z in sorted(cells):
        base[z] = base_of_cell[z] = offset
        vert_parts.append(grid._cell_vert_ids[vi[z] : vi[z + 1]])
        start, end = int(ri[z]), int(ri[z + 1])
        src_cell.append(grid._rec_src_cell[start:end])
        src_pos.append(grid._rec_src_pos[start:end])
        tgt_local.append(grid._rec_tgt_pos[start:end] + offset)
        weights.append(grid._rec_weight[start:end])
        offset += int(vi[z + 1] - vi[z])
        n_elements += int(grid._cell_elem_counts[z])

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype)

    src_base = base[cat(src_cell, np.int64)]
    keep = src_base >= 0  # drop records whose source is outside the slab
    return (
        cat(vert_parts, np.int64),
        (src_base + cat(src_pos, np.int64))[keep],
        cat(tgt_local, np.int64)[keep],
        cat(weights, np.float64)[keep],
        n_elements,
        base_of_cell,
    )
