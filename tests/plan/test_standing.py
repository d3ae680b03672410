"""The standing-answer rule at its boundaries.

The result cache and the subscription manager both decide staleness
through :class:`repro.plan.standing.StandingRule`; these tests pin its
two parts directly: *touched* (members, the ``lb <= d_k`` radius with
ties included, short answers, removals) and *expired* (the index's own
``t_report < t_now - t_delta`` comparison, unseen members).
"""

from __future__ import annotations

import math

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.plan.standing import StandingRule
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation

pytestmark = pytest.mark.plan

_GRAPH = grid_road_network(6, 6, seed=41)
_GRID = GGridIndex(_GRAPH, GGridConfig(eta=3, delta_b=8)).grid
_HERE = NetworkLocation(0, 0.0)


def far_cell(rule):
    """A cell whose lower bound from ``_HERE`` is positive and finite."""
    for cell in range(_GRID.num_cells):
        lb = rule.bound.lower_bound_to_cells(_HERE, range(cell, cell + 1))
        if 0.0 < lb < math.inf:
            return cell, lb
    raise AssertionError("no cell with a positive finite bound")


def full_answer(rule, d_k):
    """A k=2 answer of objects 1 and 2 whose radius is ``d_k``."""
    return rule.answer(_HERE, 2, [(1, d_k / 2), (2, d_k)])


def test_bound_equal_to_radius_touches():
    rule = StandingRule(_GRID, t_delta=math.inf)
    cell, lb = far_cell(rule)
    answer = full_answer(rule, lb)
    assert answer.radius == lb
    assert rule.touched([(0, answer)], {9}, {cell})


def test_bound_one_float_above_radius_does_not_touch():
    rule = StandingRule(_GRID, t_delta=math.inf)
    cell, lb = far_cell(rule)
    answer = full_answer(rule, math.nextafter(lb, -math.inf))
    assert not rule.touched([(0, answer)], {9}, {cell})


def test_short_answer_is_touched_by_any_move():
    rule = StandingRule(_GRID, t_delta=math.inf)
    cell, lb = far_cell(rule)
    short = rule.answer(_HERE, 3, [(1, lb / 4)])
    assert short.radius == math.inf
    assert rule.touched([(0, short)], {9}, {cell})
    # a removal of a non-member moves nothing in, even for a short answer
    assert not rule.touched([(0, short)], {9}, ())


def test_member_move_or_removal_touches_and_nonmember_removal_does_not():
    rule = StandingRule(_GRID, t_delta=math.inf)
    answer = full_answer(rule, 0.5)
    assert rule.touched([(0, answer)], {2}, ())
    assert rule.touched([(0, answer)], {1}, {0})
    assert not rule.touched([(0, answer)], {9}, ())


def test_member_the_clock_never_saw_is_expired():
    for t_delta in (10.0, math.inf):
        rule = StandingRule(_GRID, t_delta=t_delta)
        rule.observe(Message(1, 0, 0.0, 5.0))
        answer = rule.answer(_HERE, 2, [(1, 0.1), (2, 0.2)])  # 2 unseen
        assert answer.oldest == -math.inf
        assert rule.expired(answer, 5.0)


def test_empty_answer_never_expires():
    rule = StandingRule(_GRID, t_delta=1.0)
    assert rule.expired(rule.answer(_HERE, 2, ()), 1e9) is False


def test_oldest_report_at_the_horizon_is_live():
    rule = StandingRule(_GRID, t_delta=2.0)
    for obj, t in ((1, 3.0), (2, 4.0)):
        rule.observe(Message(obj, 0, 0.0, t))
    answer = rule.answer(_HERE, 2, [(1, 0.1), (2, 0.2)])
    assert answer.oldest == 3.0
    assert rule.expired(answer, 5.0) is False  # 3.0 == 5.0 - 2.0
    assert rule.expired(answer, math.nextafter(5.0, math.inf))


def test_removal_clears_the_clock():
    rule = StandingRule(_GRID, t_delta=10.0)
    assert rule.observe(Message(1, 0, 0.0, 1.0)) == _GRID.cell_of_edge(0)
    rule.observe_remove(1)
    assert rule.answer(_HERE, 1, [(1, 0.1)]).oldest == -math.inf
