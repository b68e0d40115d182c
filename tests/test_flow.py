import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import collapselab.cli as cli
import collapselab.flow as flow
from collapselab import extract_fiber, geodesic_ball
from collapselab.manifold import graph_distances
from collapselab.flow import (
    FiberBoundReport,
    fiber_apriori_check,
    fiber_neighborhood,
    flow_rate_bound,
    integrate_flow,
    tangential_part,
    tangential_projection,
)
from collapselab.operators import interp_scalar, metric_inner, region_sup
from collapselab.splitting import SplittingMap, classify_regular, harmonic_coordinates


EPS = 0.1
R = 0.25


# the default thresholds.lambda_min_rel
LAMBDA_MIN_REL = 1e-6


def fiber(phi, level):
    """The fiber at ``level``, regular where the default mask calls it so."""
    return extract_fiber(classify_regular(phi, LAMBDA_MIN_REL), level)


def apriori_rate(field, x0):
    """The step gate's rate as the ``flow`` verb takes it: ``flow_rate_bound``
    of the a priori check on the fiber through the start node."""
    M = field.manifold
    trace = fiber(field.phi, field.phi.evaluate(M.positions()[x0][None, :])[0])
    return flow_rate_bound(fiber_apriori_check(trace, field, EPS, R))


def fiber_mode_field(mask):
    """The tangential projection of one oscillation around the fiber circle of ``mask``'s chart."""
    u = np.sin(2 * np.pi * mask.phi.manifold.positions()[..., 1])
    return flow.tangential_projection(u, mask)


@pytest.fixture(scope="module")
def flat_setup(flat_torus, flat_coordinates):
    mask = classify_regular(flat_coordinates, LAMBDA_MIN_REL)
    return flat_torus, flat_coordinates, mask, fiber_mode_field(mask)


@pytest.fixture(scope="module")
def fiber_report(flat_setup):
    M, phi, mask, field = flat_setup
    trace = fiber(phi, [0.0])
    return fiber_apriori_check(trace, field, EPS, R)


def check_projection_orthogonality_and_pythagoras(field):
    M, phi = field.manifold, field.phi
    ip = metric_inner(M, field.grad_t, phi.gradients()[0])
    gn = np.sqrt(metric_inner(M, field.grad_u, field.grad_u))
    pn = np.sqrt(metric_inner(M, phi.gradients()[0], phi.gradients()[0]))
    assert np.nanmax(np.abs(ip)) <= 1e-10 * np.nanmax(gn * pn)
    total = metric_inner(M, field.grad_u, field.grad_u)
    grad_n = field.grad_u - field.grad_t
    parts = field.speed_sq + metric_inner(M, grad_n, grad_n)
    assert np.nanmax(np.abs(total - parts)) <= 1e-10 * max(1.0, np.nanmax(total))


def test_projection_orthogonality_and_pythagoras(flat_setup):
    check_projection_orthogonality_and_pythagoras(flat_setup[3])


def test_projection_base_mode_vanishes(flat_torus, flat_coordinates):
    # u constant along fibers: tangential part is zero
    M = flat_torus
    mask = classify_regular(flat_coordinates, LAMBDA_MIN_REL)
    pos = M.positions()
    u = np.sin(2 * np.pi * pos[..., 0])
    field = tangential_projection(u, mask)
    assert np.nanmax(np.abs(field.grad_t)) <= 1e-12 * np.nanmax(np.abs(field.grad_u))


def check_projection_fiber_mode_is_full_gradient(field):
    """``field``: ``fiber_mode_field`` on the flat chart at ``EPS``."""
    assert np.nanmax(np.abs(field.grad_t - field.grad_u)) <= 1e-12 * np.nanmax(np.abs(field.grad_u))
    # |grad^T u| = (2 pi / eps)|cos(2 pi y)| up to the difference sinc factor
    assert np.nanmax(field.speed_sq) == pytest.approx((2 * np.pi / EPS) ** 2, rel=2e-2)


def test_projection_fiber_mode_is_full_gradient(flat_setup):
    check_projection_fiber_mode_is_full_gradient(flat_setup[3])


def test_projection_idempotent(flat_setup, warped_torus, warped_coordinates):
    M, phi, mask, field = flat_setup
    t2 = tangential_part(phi, field.mask, np.nan_to_num(field.grad_t))
    assert np.nanmax(np.abs(t2 - field.grad_t)) <= 1e-12 * max(1.0, np.nanmax(np.abs(field.grad_t)))
    mask_w = classify_regular(warped_coordinates, LAMBDA_MIN_REL)
    pos = warped_torus.positions()
    from collapselab.operators import gradient

    gu = gradient(warped_torus, np.sin(2 * np.pi * pos[..., 1]) * np.cos(2 * np.pi * pos[..., 0]))
    t1 = tangential_part(warped_coordinates, mask_w.regular, gu)
    t2 = tangential_part(warped_coordinates, mask_w.regular, np.nan_to_num(t1))
    assert np.nanmax(np.abs(t2 - t1)) <= 1e-12 * max(1.0, np.nanmax(np.abs(t1)))


def test_fixed_point_flow(flat_torus, flat_coordinates):
    M = flat_torus
    mask = classify_regular(flat_coordinates, LAMBDA_MIN_REL)
    pos = M.positions()
    u = np.sin(2 * np.pi * pos[..., 0])
    field = tangential_projection(u, mask)
    traj = integrate_flow(field, (5, 7), T=0.01, dt=1e-4, stability_rate=apriori_rate(field, (5, 7)))
    assert np.max(np.abs(traj.positions - traj.positions[0])) == 0.0


def test_flow_criterion_drift_monotone(flat_setup, fiber_report):
    M, phi, mask, field = flat_setup
    rep = fiber_report
    T = 10.0 / rep.K
    dt = 1e-4 * EPS
    traj = integrate_flow(field, (0, 0), T, dt, stability_rate=flow_rate_bound(rep))
    # (a) fiber confinement after Newton reprojection
    assert traj.drift.max() <= 1e-8
    # (b) u nondecreasing along the flow (tolerance: one step of drift)
    du = np.diff(traj.u_values)
    tol = dt * float(np.nanmax(field.speed_sq)) * 1e-8
    assert du.min() >= -tol


def test_flow_positions_match_ode_oracle(flat_setup, fiber_report):
    # independent oracle: the 1-d chart ODE dy/dt = eps^-2 2 pi cos(2 pi y)
    M, phi, mask, field = flat_setup
    rep = fiber_report
    T = 10.0 / rep.K
    dt = 1e-4 * EPS
    traj = integrate_flow(field, (0, 0), T, dt, stability_rate=flow_rate_bound(rep))
    sol = solve_ivp(
        lambda t, y: 2 * np.pi / EPS**2 * np.cos(2 * np.pi * y),
        (0.0, float(traj.times[-1])),
        [0.0],
        t_eval=traj.times,
        rtol=1e-12,
        atol=1e-14,
    )
    y_oracle = sol.y[0]
    # discrete velocity field differs from the analytic one at O(h^2)
    assert np.max(np.abs(traj.positions[:, 1] - y_oracle)) <= 5e-3
    # u(gamma(t)) approaches the fiber maximum from below
    assert traj.u_values[-1] == pytest.approx(1.0, abs=1e-3)
    assert traj.u_values[-1] <= 1.0


def test_flow_step_size_violation(flat_setup, fiber_report):
    M, phi, mask, field = flat_setup
    with pytest.raises(ValueError, match="step size violation"):
        integrate_flow(field, (0, 0), T=0.01, dt=1.0, stability_rate=flow_rate_bound(fiber_report))


def test_flow_requires_regular_start(flat_setup):
    M, phi, mask, field = flat_setup
    bad_mask = np.zeros_like(field.mask)
    broken = dataclasses.replace(field, mask=bad_mask)
    with pytest.raises(ValueError, match="not regular"):
        integrate_flow(broken, (0, 0), T=0.001, dt=1e-5, stability_rate=1.0)


def test_flow_escape_raises_a_runtime_error_naming_t(flat_setup):
    M, phi, mask, field = flat_setup
    # poison the tangential field away from the start so interpolation hits NaN
    grad_t = field.grad_t.copy()
    grad_t[:, 8:12, :] = np.nan
    broken = dataclasses.replace(field, grad_t=grad_t)
    with pytest.raises(RuntimeError, match=r"flow left the regular region at t = ") as err:
        integrate_flow(broken, (0, 0), T=0.05, dt=1e-5, stability_rate=1.0)
    assert 0.0 < float(str(err.value).rsplit("t = ", 1)[1]) < 0.05


def test_capped_fiber_neighborhood_matches_the_uncapped_search(monkeypatch, warped_torus, warped_coordinates):
    M, grid = warped_torus, warped_torus.grid
    trace = fiber(warped_coordinates, [0.6])
    ij = np.round(grid.wrap(trace.points) / np.asarray(grid.spacings)).astype(int) % np.asarray(grid.shape)
    dist = graph_distances(M, np.unique(np.ravel_multi_index(tuple(ij.T), grid.shape)))
    assert np.isfinite(dist).all()
    limits = []

    def recording(M, sources, **kwargs):
        limits.append(kwargs["limit"])
        return graph_distances(M, sources, **kwargs)

    monkeypatch.setattr(flow, "graph_distances", recording)
    node = int(np.argsort(dist)[len(dist) // 10])       # a node off the fiber
    # radii: below and above that node's distance, exactly at it, and with it
    # on the mask's edge radius + 1e-12
    for radius in (0.02, dist[node], dist[node] - 1e-12, 0.5):
        got = fiber_neighborhood(M, trace, radius)
        assert np.array_equal(got, dist.reshape(grid.shape) <= radius + 1e-12)
        if radius == dist[node]:
            assert got.ravel()[node]
    assert all(np.isfinite(limit) for limit in limits) and len(limits) == 4
    # the cap takes effect: a capped search leaves the far side of the chart at inf
    assert np.isinf(graph_distances(M, [0], limit=limits[0])).any()


def test_the_fiber_check_measures_its_own_neighbourhood(monkeypatch, flat_setup):
    # K is measured on the trace's own 2 eps r neighborhood: one Dijkstra per
    # trace, whatever the number of fields checked on it
    M, phi, mask, field = flat_setup
    pos = M.positions()
    other = tangential_projection(np.sin(2 * np.pi * pos[..., 1]) * np.cos(2 * np.pi * pos[..., 0]), mask)
    searches = []
    dijkstra = flow.graph_distances

    def counting(M, sources, **kwargs):
        searches.append(len(sources))
        return dijkstra(M, sources, **kwargs)

    monkeypatch.setattr(flow, "graph_distances", counting)
    trace = fiber(phi, [0.25])
    reports = [fiber_apriori_check(trace, f, EPS, R) for f in (field, other)]
    assert len(searches) == 1
    fiber_apriori_check(fiber(phi, [0.5]), other, EPS, R)
    assert len(searches) == 2
    monkeypatch.undo()
    region = fiber_neighborhood(M, trace, 2 * EPS * R)
    for f, rep in zip((field, other), reports):
        k_field = R * f.grad_norm() + R**2 * f.hessian_u_norm()
        assert rep.K == region_sup(k_field, region)
    # the cos(2 pi x) factor vanishes on the x = 1/4 fiber: its neighborhood's
    # K is well below the whole chart's
    whole = np.ones(M.grid.shape, bool)
    assert reports[1].K < 0.5 * region_sup(R * other.grad_norm() + R**2 * other.hessian_u_norm(), whole)


def test_apriori_check_trivial_mode(flat_torus, flat_coordinates):
    # u = sin(2 pi x): tangential gradient vanishes, infinite margin
    M = flat_torus
    mask = classify_regular(flat_coordinates, LAMBDA_MIN_REL)
    pos = M.positions()
    u = np.sin(2 * np.pi * pos[..., 0])
    field = tangential_projection(u, mask)
    trace = fiber(flat_coordinates, [0.5])
    rep = fiber_apriori_check(trace, field, EPS, R)
    assert rep.delta0 <= 1e-10
    assert rep.passed
    assert rep.margin == np.inf
    assert rep.to_json_dict()["counterexample"] is False


def test_apriori_check_fiber_mode_recomputed(flat_setup, fiber_report):
    # independent recomputation of both sides from the raw fields
    M, phi, mask, field = flat_setup
    rep = fiber_report
    assert rep.lam == pytest.approx(1.0, abs=1e-10)
    assert rep.Lam == pytest.approx(1.0, abs=1e-10)
    assert rep.c0 == pytest.approx(0.0, abs=1e-10)
    from collapselab.operators import hessian, hessian_norm, metric_inner

    pos = M.positions()
    u = np.sin(2 * np.pi * pos[..., 1])
    gn = np.sqrt(metric_inner(M, field.grad_u, field.grad_u))
    hn = hessian_norm(M, hessian(M, u))
    # neighborhood of the x=0 fiber: |x| <= 2 eps r
    dist_x = np.abs(M.grid.wrap_delta(pos - pos[0, 0])[..., 0])
    region = dist_x <= 2 * EPS * R + 1e-9
    K_expected = float(np.max(R * gn[region] + R**2 * hn[region]))
    assert rep.K == pytest.approx(K_expected, rel=1e-12)
    lhs_expected = R * np.sqrt(np.nanmax(field.speed_sq))
    assert rep.lhs == pytest.approx(lhs_expected, rel=1e-6)
    rhs_expected = 2.0 * np.sqrt(1.0) * K_expected * np.sqrt(EPS)
    assert rep.rhs == pytest.approx(rhs_expected, rel=1e-12)
    assert rep.passed


def test_apriori_scaling_with_fiber_oscillation(flat_setup, fiber_report):
    # K picks up r^2 |Hess u| ~ (2 pi r)^2 / eps^2, so the bound holds with
    # margin even though |grad^T u| ~ 2 pi / eps
    rep = fiber_report
    assert rep.margin > 5.0


def test_counterexample_flag_fires_on_mismatched_inputs(flat_setup):
    # feeding an epsilon measured on the wrong region must trip the flag
    M, phi, mask, field = flat_setup
    trace = fiber(phi, [0.0])
    rep = fiber_apriori_check(trace, field, eps_hat=1e-8, r=R)
    assert not rep.passed
    assert rep.to_json_dict()["counterexample"] is True


@pytest.fixture(scope="module")
def sheared_warped_field(warped_torus):
    # A coordinate map with curved fibers x + 0.02 sin(2 pi y) = c on the
    # warped metric, so that every flow step needs Newton reprojection (the
    # harmonic coordinates of a warped product have straight fibers).
    M = warped_torus
    pos = M.positions()
    phi = SplittingMap(M, (pos[..., 0] + 0.02 * np.sin(2 * np.pi * pos[..., 1]),), (np.array([1.0, 0.0]),))
    mask = classify_regular(phi, LAMBDA_MIN_REL)
    return tangential_projection(np.sin(2 * np.pi * pos[..., 1]), mask)


def record_projections(monkeypatch):
    """Newton steps of every projection, and how far each moved its point."""
    steps, moves = [], []
    project = SplittingMap.project_to_level

    def recording(self, point, *args, **kwargs):
        proj = project(self, point, *args, **kwargs)
        steps.append(proj.newton_steps)
        moves.append(float(np.max(np.abs(np.subtract(proj.point, point)))))
        return proj

    monkeypatch.setattr(SplittingMap, "project_to_level", recording)
    return steps, moves


@pytest.mark.parametrize("family", ["flat", "warped"])
def test_drift_column_is_level_residual_at_recorded_positions(
    monkeypatch, flat_setup, sheared_warped_field, family
):
    field = flat_setup[3] if family == "flat" else sheared_warped_field
    steps, moves = record_projections(monkeypatch)
    rate = apriori_rate(field, (5, 3))
    dt = 0.1 / rate
    traj = integrate_flow(field, (5, 3), T=100 * dt, dt=dt, stability_rate=rate)
    recomputed = np.max(np.abs(field.phi.level_residual(traj.positions, traj.level)), axis=-1)
    assert np.array_equal(traj.drift, recomputed)
    # Newton runs only on steps whose residual misses the tolerance, so at
    # most once per step, and moves the point at least once when it runs
    assert len(steps) <= len(traj.times) - 1
    assert all(1 <= s <= 2 for s in steps)      # the exact Jacobian converges quadratically
    if family == "warped":
        assert sum(steps) > 0                    # Newton moves the points
        assert max(moves) > 1e-12
        assert traj.drift.max() > 0.0            # at round-off after an exact Newton step
    else:
        assert steps == []


def test_curved_fiber_flow_completes_at_the_step_gate(monkeypatch, sheared_warped_field):
    # With the former centered-difference Jacobian, Newton converged only
    # linearly, and at the larger step of the former node-field rate this
    # flow stopped after 7 steps at residual 3.03e-10 > 1e-10
    field = sheared_warped_field
    steps, _ = record_projections(monkeypatch)
    rate = apriori_rate(field, (100, 7))
    dt = 0.1 / rate
    traj = integrate_flow(field, (100, 7), T=200 * dt, dt=dt, stability_rate=rate)
    assert len(traj.times) == 201
    assert traj.drift.max() <= 1e-10
    assert steps and max(steps) <= 2


def count_probe_evaluations(monkeypatch):
    """Points evaluated by every stencil probe that the flow builds."""
    import collapselab.flow as flow_module

    calls = []
    factory = flow_module.stencil_probe

    def counting_factory(*args, **kwargs):
        probe = factory(*args, **kwargs)

        def counting(x):
            calls.append(len(x))
            return probe(x)

        return counting

    monkeypatch.setattr(flow_module, "stencil_probe", counting_factory)
    return calls


def test_flat_flow_interpolates_at_most_four_times_per_step(monkeypatch, flat_setup, fiber_report):
    field = dataclasses.replace(flat_setup[3])     # a fresh probe cache
    rate = flow_rate_bound(fiber_report)
    traj_ref = integrate_flow(flat_setup[3], (0, 0), T=2e-4, dt=1e-5, stability_rate=rate)
    calls = count_probe_evaluations(monkeypatch)
    steps, _ = record_projections(monkeypatch)
    traj = integrate_flow(field, (0, 0), T=2e-4, dt=1e-5, stability_rate=rate)
    n_steps = len(traj.times) - 1
    assert n_steps == 20
    # one probe before the first step, then three stages and the new point;
    # no step leaves the straight fiber, so Newton never runs
    assert len(calls) == 4 * n_steps + 1
    assert all(n == 2 for n in calls)
    assert steps == []
    assert np.array_equal(traj.positions, traj_ref.positions)


def test_trajectory_csv_export(tmp_path, flat_setup, fiber_report):
    # the columns the flow verb writes, through the CLI's one CSV writer
    M, phi, mask, field = flat_setup
    traj = integrate_flow(field, (0, 0), T=1e-3, dt=1e-5, stability_rate=flow_rate_bound(fiber_report))
    columns = [traj.times, *traj.positions.T, traj.u_values, traj.speed_sq, traj.drift]
    path = cli._write_csv(tmp_path / "traj.csv", ["t", "x", "y", "u", "tangential_speed_sq", "drift"], zip(*columns))
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y,u,tangential_speed_sq,drift"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == 6
    assert data.shape[0] == len(traj.times)
    assert np.array_equal(data, np.column_stack(columns))   # .17g round-trips every float


# ---------------------------------------------------------------------------
# the fiber facts of one gather against separate ones
# ---------------------------------------------------------------------------


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def separate_apriori_check(fiber, field, eps_hat, r):
    """``fiber_apriori_check`` as it read the map's fields before the trace
    carried them: every field gathered at the fiber samples from one stack,
    and K on the fiber's 2 eps r neighborhood searched afresh."""
    M, eigs = field.manifold, field.phi.eigh()[0]
    if not fiber.regular:
        raise ValueError("fiber is not regular; a priori constants are undefined")
    samples = np.stack([
        eigs[..., 0],
        eigs[..., -1],
        np.where(field.mask, field.speed_sq, np.nan),
        *field.phi.hessian_norms(),
    ], axis=-1)
    lam_s, Lam_s, speed_sq, *hess_norms = interp_scalar(M, samples, M.grid.wrap(fiber.points)).T
    lam, Lam = float(np.min(lam_s)), float(np.max(Lam_s))
    c0 = 0.0
    for hn in hess_norms:
        c0 = max(c0, float(np.max(hn**2)) * r**2)
    gn, hn_u = field.grad_norm(), field.hessian_u_norm()
    neighborhood = fiber_neighborhood(M, fiber, 2.0 * eps_hat * r)
    K = region_sup(r * gn + r**2 * hn_u, neighborhood)
    speed = np.sqrt(np.maximum(speed_sq, 0.0))
    if not np.all(np.isfinite(speed)):
        raise ValueError("fiber neighborhood exits the regular region of the tangential field")
    delta0 = float(np.max(speed))
    k = field.phi.k
    rhs = 2.0 * np.sqrt(1.0 + np.sqrt(Lam * k) * c0 / lam) * K * np.sqrt(eps_hat)
    lhs = r * delta0
    return FiberBoundReport(
        level=fiber.level, lam=lam, Lam=Lam, c0=c0, K=float(K), delta0=delta0, eps_hat=float(eps_hat),
        r=float(r), k=k, lhs=float(lhs), rhs=float(rhs), passed=bool(lhs <= rhs),
        margin=float(rhs / lhs) if lhs > 0 else np.inf,
    )


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("chart", ["flat_eig_torus", "warped_torus", "twisted_torus", "doubly_warped"])
@pytest.mark.parametrize("cut", [False, True], ids=["all-regular", "median-cut"])
def test_one_gather_gives_the_fiber_facts_of_separate_ones(request, chart, cut):
    # the median-cut threshold calls half the nodes singular (all of them on the
    # flat chart, whose lambda is 1 everywhere), so some fibers' stencils leave the set
    M = request.getfixturevalue(chart)
    phi = harmonic_coordinates(M)
    if phi.k == M.dim:   # the doubly warped chart has no family: trace its first coordinate
        phi = SplittingMap(M, phi.values[:1], phi.windings[:1])
    eigs = phi.eigh()[0]
    lam_field, Lam_field = eigs[..., 0], eigs[..., -1]
    median_cut = float(np.nanmedian(lam_field)) / float(np.nanmedian(Lam_field))
    mask = classify_regular(phi, median_cut if cut else LAMBDA_MIN_REL)
    threshold = mask.threshold
    regular_set = np.where(mask.regular, 0.0, np.nan)
    field = tangential_projection(np.sin(2 * np.pi * M.positions()[..., -1]) + 0.5 * np.cos(
        2 * np.pi * M.positions()[..., 0]), mask)
    values = phi.values_stack().reshape(-1, phi.k)
    lo, hi = values.min(axis=0), values.max(axis=0)
    in_mask = []
    for t in np.linspace(0.1, 0.9, 5):
        trace = extract_fiber(mask, lo + t * (hi - lo))
        pts = M.grid.wrap(trace.points)
        lam = interp_scalar(M, lam_field, pts)
        assert bits(trace.min_lambda) == bits(lam.min())
        assert trace.regular == bool(lam.min() > threshold)
        assert bits(trace.max_Lambda) == bits(np.max(interp_scalar(M, Lam_field, pts)))
        assert bits(trace.hessian_sq_sup) == bits(
            [np.max(interp_scalar(M, hn, pts) ** 2) for hn in phi.hessian_norms()])
        assert trace.in_mask == bool(np.isfinite(interp_scalar(M, regular_set, pts)).all())
        assert bits(trace.level_error) == bits(np.max(np.abs(phi.level_residual(trace.points, trace.level))))
        in_mask.append(trace.in_mask)
        if not trace.regular:
            continue
        args = (trace, field, EPS, R)
        got, want = outcome(fiber_apriori_check, *args), outcome(separate_apriori_check, *args)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
            continue
        for f in dataclasses.fields(FiberBoundReport):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
    assert all(in_mask) != cut
