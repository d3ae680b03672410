"""Pure-Python reference for ``GPU_SDist``: synchronous Bellman–Ford rounds.

Walks the road network's in-edges directly (not the grid's packed
arrays), so it checks the slab packing as well as the kernel.  Every
relaxation of a round reads the distances of the previous round.
"""

import math


def sync_rounds_reference(graph, vertices, seeds, early_exit=True):
    """``({vertex: distance}, rounds)`` restricted to ``vertices``."""
    index = {v: i for i, v in enumerate(vertices)}
    dist = [math.inf] * len(vertices)
    for v, cost in seeds.items():
        if v in index:
            dist[index[v]] = min(dist[index[v]], cost)
    records = [
        (index[e.source], index[v], e.weight)
        for v in vertices
        for e in graph.in_edges(v)
        if e.source in index
    ]
    rounds = 0
    for _ in range(max(1, len(vertices))):
        rounds += 1
        before = list(dist)
        for s, t, w in records:
            dist[t] = min(dist[t], before[s] + w)
        if early_exit and dist == before:
            break
    return {v: d for v, d in zip(vertices, dist) if d < math.inf}, rounds
