"""Tests for background maintenance policies."""

import pytest

from repro.baselines.naive import NaiveKnnIndex
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.errors import ConfigError
from repro.mobility.workload import make_workload
from repro.server.maintenance import (
    BacklogCleaning,
    MaintenancePolicy,
    NoMaintenance,
    PeriodicCleaning,
)
from repro.server.server import QueryServer


@pytest.fixture(scope="module")
def workload(medium_graph):
    return make_workload(
        medium_graph, num_objects=40, duration=20.0, num_queries=4, k=6, seed=8
    )


def _replay(medium_graph, workload, policy):
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=4))
    server = QueryServer(index, maintenance=policy)
    report, answers = server.replay(workload, collect_answers=True)
    return index, report, answers


def _max_backlog(index):
    return max((m.num_messages for m in index.lists.values()), default=0)


def test_policies_preserve_answers(medium_graph, workload):
    reference = None
    for policy in (NoMaintenance(), PeriodicCleaning(5.0), BacklogCleaning(10)):
        _, _, answers = _replay(medium_graph, workload, policy)
        dists = [[round(d, 9) for d in a.distances()] for a in answers]
        if reference is None:
            reference = dists
        else:
            assert dists == reference
    # and the shared answers match the exact oracle
    _, oracle_answers = QueryServer(NaiveKnnIndex(medium_graph)).replay(
        workload, collect_answers=True
    )
    oracle = [[round(d, 9) for d in a.distances()] for a in oracle_answers]
    assert reference == oracle


def test_backlog_policy_bounds_backlog(medium_graph, workload):
    lazy_index, _, _ = _replay(medium_graph, workload, NoMaintenance())
    bounded_index, _, _ = _replay(medium_graph, workload, BacklogCleaning(8))
    assert _max_backlog(bounded_index) <= _max_backlog(lazy_index)
    # every unlocked cell respects the bound right after replay
    for mlist in bounded_index.lists.values():
        assert mlist.num_messages <= 8 + 1  # +1: the post-clean arrival


def test_periodic_policy_sweeps(medium_graph, workload):
    policy = PeriodicCleaning(interval=4.0, slice_cells=8)
    _replay(medium_graph, workload, policy)
    assert policy.cells_cleaned > 0


def test_periodic_smooths_query_cleaning(medium_graph, workload):
    """Background sweeps mean queries find less backlog to clean."""
    idx_lazy, rep_lazy, _ = _replay(medium_graph, workload, NoMaintenance())
    idx_bg, rep_bg, _ = _replay(medium_graph, workload, BacklogCleaning(5))
    # the background-cleaned index carries less pending backlog overall
    assert idx_bg.pending_messages() <= idx_lazy.pending_messages()


def test_policy_protocol():
    assert isinstance(NoMaintenance(), MaintenancePolicy)
    assert isinstance(PeriodicCleaning(1.0), MaintenancePolicy)
    assert isinstance(BacklogCleaning(5), MaintenancePolicy)


def test_policy_validation():
    with pytest.raises(ConfigError):
        PeriodicCleaning(0.0)
    with pytest.raises(ConfigError):
        PeriodicCleaning(1.0, slice_cells=0)
    with pytest.raises(ConfigError):
        BacklogCleaning(0)


def test_policies_publish_cells_cleaned_metric(medium_graph, workload):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    periodic = PeriodicCleaning(interval=4.0, slice_cells=8, registry=registry)
    _replay(medium_graph, workload, periodic)
    backlog = BacklogCleaning(2, registry=registry)  # shares one family
    _replay(medium_graph, workload, backlog)

    fam = registry.families()["repro_maintenance_cells_cleaned_total"]
    assert fam.labels(policy="periodic").value == periodic.cells_cleaned > 0
    assert fam.labels(policy="backlog").value == backlog.cells_cleaned > 0


def test_no_maintenance_is_noop(medium_graph, workload):
    index, _, _ = _replay(medium_graph, workload, None)
    index2, _, _ = _replay(medium_graph, workload, NoMaintenance())
    assert index.pending_messages() == index2.pending_messages()
