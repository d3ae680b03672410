"""The canonical kNN result order: ``(distance, object id)``.

Every component that ranks objects by network distance — ``GPU_First_k``,
the CPU refinement, the exact-Dijkstra fallback, range queries and the
test oracles — must break distance ties the same way, or "batched ==
sequential == oracle" comparisons are ill-defined: two objects at exactly
the same distance (common with co-located objects or symmetric grids)
could legally appear in either order and a byte-identical assertion would
flap.

The documented total order is **ascending distance, then ascending object
id**.  It is deterministic, independent of dict/set iteration order, and
stable across the single-query, batched and degraded execution paths.
"""

from __future__ import annotations

from typing import Iterable

_INF = float("inf")


def result_sort_key(item: tuple[int, float]) -> tuple[float, int]:
    """Sort key for one ``(obj, distance)`` pair: distance, then id."""
    obj, distance = item
    return (distance, obj)


def rank_results(
    items: Iterable[tuple[int, float]], k: int | None = None
) -> list[tuple[int, float]]:
    """Sort ``(obj, distance)`` pairs into the canonical order.

    Infinite distances (unreachable objects) are dropped; when ``k`` is
    given the list is truncated to the k best.
    """
    ranked = sorted(
        (item for item in items if item[1] < _INF), key=result_sort_key
    )
    return ranked if k is None else ranked[:k]


def _pairs(answer: object) -> list[tuple[int, float]]:
    """``(obj, distance)`` pairs of a kNN answer or of a pair sequence."""
    entries = getattr(answer, "entries", None)
    if entries is None:
        return list(answer)  # type: ignore[call-overload]
    return [(e.obj, e.distance) for e in entries]


def _tie_groups(pairs: list[tuple[int, float]]) -> dict[float, set[int]]:
    groups: dict[float, set[int]] = {}
    for obj, distance in pairs:
        groups.setdefault(round(distance, 9), set()).add(obj)
    return groups


def same_answer(got: object, want: object, exact: bool = False) -> bool:
    """Whether two kNN answers agree.

    Each side is a :class:`~repro.core.knn.KnnAnswer` or a sequence of
    ``(obj, distance)`` pairs.  The default rule is the oracle rule:
    distances equal to 9 decimals, position by position (so a length
    difference is a mismatch), and each rounded-distance tie group the
    same set of ids.  Independent float fold orders (SDist, refinement,
    shard-restricted subgraphs, TEN) may drift in the last ulp, which
    can reorder equidistant objects; ``exact`` instead demands byte
    identity of the ordered pairs.
    """
    a, b = _pairs(got), _pairs(want)
    if exact:
        return a == b
    if [round(d, 9) for _, d in a] != [round(d, 9) for _, d in b]:
        return False
    return _tie_groups(a) == _tie_groups(b)


def answer_mismatches(
    got: list[object], want: list[object], exact: bool = False
) -> list[int]:
    """Positions where two answer streams disagree under :func:`same_answer`.

    A stream-length difference is one more mismatch, at the shorter
    stream's length.
    """
    mismatches = [
        i for i, (g, w) in enumerate(zip(got, want)) if not same_answer(g, w, exact)
    ]
    if len(got) != len(want):
        mismatches.append(min(len(got), len(want)))
    return mismatches
