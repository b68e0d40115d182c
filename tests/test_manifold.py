import numpy as np
import pytest
from scipy.integrate import quad

from collapselab import (
    FamilySpec,
    build_family,
    epsilon_proxy,
    extract_fiber,
    geodesic_ball,
)
from collapselab.manifold import ball_region, base_period_lengths, ricci_lower_bound
from collapselab.splitting import harmonic_coordinates


def test_family_kind_rejected():
    with pytest.raises(ValueError, match="unknown family kind"):
        FamilySpec(kind="klein-bottle", epsilon=0.1, resolution=(32, 16))


def test_epsilon_out_of_range():
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            FamilySpec(kind="flat-product-torus", epsilon=eps, resolution=(32, 16))


def test_fiber_under_resolved():
    with pytest.raises(ValueError, match="under-resolved"):
        FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=(32, 8))


def test_flat_volume_is_product_of_periods(flat_torus):
    # metric period lengths 1 x 0.1
    assert flat_torus.total_volume() == pytest.approx(0.1, abs=1e-12)


def test_warped_volume_quadrature_oracle(warped_torus):
    # oracle: eps * integral of w(x) dx; the sine integrates to zero
    oracle, err = quad(lambda x: 0.1 * (1.0 + 0.3 * np.sin(2 * np.pi * x)), 0.0, 1.0)
    assert err < 1e-12
    assert oracle == pytest.approx(0.1, abs=1e-12)
    assert warped_torus.total_volume() == pytest.approx(oracle, abs=1e-10)


def test_unit_square_torus_volume(unit_torus):
    assert unit_torus.total_volume() == pytest.approx(1.0, abs=1e-12)


def test_twisted_volume(twisted_torus):
    assert twisted_torus.total_volume() == pytest.approx(0.25, abs=1e-12)


def test_volume_refinement_error_within_h_squared():
    # trig warps integrate exactly at every resolution: error far below C h^2
    for res in ((64, 16), (128, 32)):
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=res))
        h = max(M.grid.spacings)
        assert abs(M.total_volume() - 0.1) <= h**2


def test_metric_invariants_checked():
    bad = np.zeros((8, 16, 2, 2))
    bad[..., 0, 0] = 1.0
    bad[..., 1, 1] = -1.0
    grid_spec = FamilySpec(kind="flat-product-torus", epsilon=0.5, resolution=(8, 16))
    M = build_family(grid_spec)
    from collapselab.manifold import DiscreteManifold

    with pytest.raises(ValueError, match="positive definite"):
        DiscreteManifold(dim=2, chart=M.chart, metric=bad, volume_element=np.ones((8, 16)))


def test_periodicity_of_fields(warped_torus):
    # wrap-around agreement is exact for every stored field
    g = warped_torus.metric
    assert np.array_equal(g[0], g[0])  # sanity
    w = warped_torus.volume_element
    assert np.array_equal(np.roll(w, w.shape[0], axis=0), w)
    assert np.array_equal(np.roll(g, g.shape[1], axis=1), g)


def test_base_period_lengths(warped_torus):
    assert base_period_lengths(warped_torus) == pytest.approx((1.0,), abs=1e-12)


def test_ricci_lower_bound_values(flat_torus, warped_torus, twisted_torus):
    assert ricci_lower_bound(flat_torus) == 0.0
    assert ricci_lower_bound(twisted_torus) == 0.0
    assert ricci_lower_bound(warped_torus) == pytest.approx(0.3 * 4 * np.pi**2 / 0.7, rel=1e-6)


# ---------------------------------------------------------------------------
# geodesic balls
# ---------------------------------------------------------------------------


def test_ball_volume_against_brute_force_oracle(flat_torus, flat_ball):
    # oracle: exact flat distance sqrt(dx^2 + eps^2 dy^2) with periodic wrap
    M = flat_torus
    pos = M.positions()
    d = pos - pos[0, 0]
    d = M.grid.wrap_delta(d)
    dist_true = np.sqrt(d[..., 0] ** 2 + (0.1 * d[..., 1]) ** 2)
    vol_true = float(M.node_weights()[dist_true <= 0.25].sum())
    assert flat_ball.volume() == pytest.approx(vol_true, rel=0.03)
    # thin-collapse closed form: 2 r eps
    assert flat_ball.volume() == pytest.approx(0.05, rel=0.05)


def test_ball_r_zero_is_center_only(flat_torus):
    ball = geodesic_ball(flat_torus, (3, 5), 0.0)
    assert ball.members.sum() == 1
    assert ball.members[3, 5]


def test_ball_cut_locus_error(flat_torus):
    with pytest.raises(ValueError, match="cut locus"):
        geodesic_ball(flat_torus, (0, 0), 0.5)


def test_ball_region_rejects_negative_radius(flat_torus):
    with pytest.raises(ValueError, match="nonnegative"):
        ball_region(flat_torus, (0, 0), -1.0)


def test_ball_boundary_nonempty_and_adjacent(flat_torus, flat_ball):
    assert flat_ball.boundary.any()
    # boundary nodes are members
    assert np.all(flat_ball.members[flat_ball.boundary])


def test_ball_region_whole_chart_standin(flat_torus):
    region = ball_region(flat_torus, (0, 0), 0.5)
    assert region.whole
    assert region.members.all()
    assert not region.boundary.any()


@pytest.mark.parametrize("s", [0.0, 0.1, 0.25, 0.37, 0.5, 0.8])
def test_concentric_equals_ball_region(warped_torus, s):
    ball = geodesic_ball(warped_torus, (96, 3), 0.2)
    want = ball_region(warped_torus, (96, 3), s)
    got = ball.concentric(s)
    assert (got.center, got.radius, got.whole) == (want.center, want.radius, want.whole)
    for name in ("members", "boundary", "distances"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_concentric_rejects_negative_radius(flat_ball):
    with pytest.raises(ValueError, match="nonnegative"):
        flat_ball.concentric(-0.1)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def test_flat_fiber_circle(flat_coordinates):
    trace = extract_fiber(flat_coordinates, [0.5])
    assert trace.closed
    assert trace.regular
    assert trace.length == pytest.approx(0.1, rel=1e-10)
    assert trace.diameter == pytest.approx(0.05, rel=1e-10)
    assert trace.level_error <= 1e-8


def test_fiber_closure_endpoints(flat_coordinates):
    trace = extract_fiber(flat_coordinates, [0.3])
    M = flat_coordinates.manifold
    gap = M.grid.wrap_delta(trace.points[0] - trace.points[-1])
    assert np.linalg.norm(gap) <= 2 * max(M.grid.spacings)


def test_fiber_level_outside_range_errors(flat_torus, flat_coordinates):
    ball = geodesic_ball(flat_torus, (0, 0), 0.25)
    from collapselab.splitting import solve_harmonic, coordinate_boundary_data

    phi = solve_harmonic(ball, coordinate_boundary_data(flat_torus, ball))
    with pytest.raises(ValueError, match="outside the splitting map range"):
        extract_fiber(phi, [0.9])


def test_warped_fiber_length_analytic(warped_coordinates):
    # fiber through x = 0.25 has metric length eps * w(0.25) = 0.13
    val = warped_coordinates.evaluate(np.array([[0.25, 0.0]]))[0]
    trace = extract_fiber(warped_coordinates, val)
    assert trace.length == pytest.approx(0.13, rel=1e-3)
    assert trace.diameter == pytest.approx(0.065, rel=1e-3)


def test_twisted_fiber_continuation(twisted_torus):
    phi = harmonic_coordinates(twisted_torus)
    val = phi.evaluate(np.array([[0.3, 0.4, 0.0]]))[0]
    trace = extract_fiber(phi, val)
    assert trace.closed
    assert trace.regular
    # fiber is the collapsed circle of metric length eps
    assert trace.length == pytest.approx(0.25, rel=1e-3)


# ---------------------------------------------------------------------------
# epsilon proxy
# ---------------------------------------------------------------------------


def test_epsilon_proxy_flat(flat_torus, flat_coordinates, flat_ball):
    eps_hat = epsilon_proxy(flat_torus, flat_ball, flat_coordinates)
    assert eps_hat == pytest.approx(0.1, rel=1e-6)


def test_epsilon_proxy_identity_scale():
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=1.0, resolution=(64, 64)))
    phi = harmonic_coordinates(M)
    ball = geodesic_ball(M, (0, 0), 0.25)
    assert epsilon_proxy(M, ball, phi) == pytest.approx(1.0, rel=1e-6)


def test_epsilon_proxy_warped(warped_torus, warped_coordinates):
    # ball centered on the thickest fiber: max diameter eps w(1/4) / 2 = 0.065
    ball = geodesic_ball(warped_torus, (32, 0), 0.25)
    eps_hat = epsilon_proxy(warped_torus, ball, warped_coordinates)
    assert eps_hat == pytest.approx(0.13, rel=1e-3)


def test_epsilon_proxy_seam_straddling_ball(warped_torus, warped_coordinates):
    # ball centered on the thinnest fibers wraps the chart seam; the sampled
    # levels must stay inside the ball's branch, away from the thick fibers
    ball = geodesic_ball(warped_torus, (96, 0), 0.25)
    eps_hat = epsilon_proxy(warped_torus, ball, warped_coordinates)
    assert eps_hat < 0.105
