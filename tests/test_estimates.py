import pytest

import collapselab.estimates as estimates
import collapselab.flow as flow
import collapselab.manifold as manifold
from collapselab.estimates import (
    FIBER_LEVELS,
    default_ball_center,
    default_resolution_rule,
    point_reports,
    run_point,
)


@pytest.fixture
def dijkstra_sources(monkeypatch):
    """Source count of every graph_distances call made through the manifold module."""
    sources = []
    dijkstra = manifold.graph_distances

    def counting(M, src):
        sources.append(len(src))
        return dijkstra(M, src)

    monkeypatch.setattr(manifold, "graph_distances", counting)
    return sources


def test_run_point_reuses_the_first_ball_distances(dijkstra_sources):
    # every concentric region (2r, the Cheng-Yau and main-theorem outer balls,
    # the interior-estimate inner ball) comes from the working ball's distances
    point = run_point(
        "warped-torus", 0.1, 0.3, 0.0, default_resolution_rule(64, 16),
        default_ball_center("warped-torus"), 0.25, 50.0, 6, 0,
    )
    assert dijkstra_sources == [1]
    rows, reports = point_reports(point, 0.25)
    assert len(rows) == len(point["pairs"]) and len(reports) == 3 * len(rows)
    assert dijkstra_sources == [1]


def test_point_reports_trace_each_fiber_once(monkeypatch):
    # the checked fibers and their 2 eps r neighborhoods depend on the
    # splitting map alone: one Dijkstra per fiber, one check per fiber and pair
    point = run_point(
        "warped-torus", 0.1, 0.3, 0.0, default_resolution_rule(64, 16),
        default_ball_center("warped-torus"), 0.25, 50.0, 6, 0,
    )
    neighborhoods, checks = [], []
    dijkstra, check = flow.graph_distances, estimates.fiber_apriori_check

    def counting_dijkstra(M, src):
        neighborhoods.append(len(src))
        return dijkstra(M, src)

    def counting_check(*args, **kwargs):
        checks.append(args[0].level)
        return check(*args, **kwargs)

    monkeypatch.setattr(flow, "graph_distances", counting_dijkstra)
    monkeypatch.setattr(estimates, "fiber_apriori_check", counting_check)
    rows, _ = point_reports(point, 0.25)
    positive = sum(pair.theta > 0 for pair in point["pairs"])
    assert positive >= 2
    assert 0 < len(neighborhoods) <= FIBER_LEVELS
    assert len(checks) == positive * len(neighborhoods)
