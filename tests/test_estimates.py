import pytest

import collapselab.manifold as manifold
from collapselab.estimates import default_ball_center, default_resolution_rule, point_reports, run_point


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
