import concurrent.futures
import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import collapselab.estimates as estimates
import collapselab.flow as flow
import collapselab.manifold as manifold
import collapselab.operators as operators
import collapselab.spectral as spectral
import collapselab.splitting as splitting
from collapselab.estimates import (
    DEGENERATE_LHS_FRACTION,
    FIBER_LEVELS,
    build_cutoff,
    c1_sup_bound,
    certify_ball,
    default_ball_center,
    default_resolution_rule,
    point_reports,
    run_point,
    w22_k_bound,
)
from collapselab.spectral import EigenPair, cheng_yau_ratio


def chart(kind, epsilon, delta, nodes_per_unit):
    """The chart stage of a point at the default thresholds.lambda_min_rel."""
    spec = estimates.point_spec(kind, epsilon, delta, 0.0, default_resolution_rule(nodes_per_unit))
    return splitting.classify_regular(splitting.harmonic_coordinates(manifold.build_family(spec)), 1e-6)


def warped_point():
    return run_point(
        "warped-torus", 0.1, 0.3, 0.0, default_resolution_rule(64, 16),
        default_ball_center("warped-torus"), 0.25, 50.0, 6, 0,
    )


@pytest.fixture
def dijkstra_sources(monkeypatch):
    """Source count of every graph_distances call made through the manifold module."""
    sources = []
    dijkstra = manifold.graph_distances

    def counting(M, src, **kwargs):
        sources.append(len(src))
        return dijkstra(M, src, **kwargs)

    monkeypatch.setattr(manifold, "graph_distances", counting)
    return sources


def test_run_point_reuses_the_first_ball_distances(dijkstra_sources):
    # every concentric region (2r, the Cheng-Yau and main-theorem outer balls,
    # the interior-estimate inner ball) comes from the working ball's distances
    point = warped_point()
    assert dijkstra_sources == [1]
    rows, reports = point_reports(point)
    assert len(rows) == len(point["pairs"]) and len(reports) == 3 * len(rows)
    assert dijkstra_sources == [1]


# (epsilon, delta, twist, ball radius) of a small point per kind
SMALL_POINTS = {"twisted-3-torus": (0.25, 0.0, math.pi / 2, 0.3), "warped-torus": (0.1, 0.3, 0.0, 0.25)}


def small_point(kind):
    epsilon, delta, twist, r = SMALL_POINTS[kind]
    return run_point(kind, epsilon, delta, twist, default_resolution_rule(64, 16), default_ball_center(kind),
                     r, 50.0, 4, 0)


@pytest.fixture
def stage_calls(monkeypatch):
    """The names of the ``eigenpairs`` and ``harmonic_coordinates`` calls
    made through the estimates module, in call order."""
    calls = []

    def recording(name):
        original = getattr(estimates, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapped

    for name in ("eigenpairs", "harmonic_coordinates"):
        monkeypatch.setattr(estimates, name, recording(name))
    return calls


@pytest.mark.parametrize("kind, first", [("twisted-3-torus", "eigenpairs"), ("warped-torus", "harmonic_coordinates")])
def test_run_point_runs_the_whole_chart_factor_first(stage_calls, kind, first):
    # the twisted pairs factor all of L - sigma mass while its coordinates
    # solve nothing; the warped psi factors the whole chart, its pairs a
    # base block
    small_point(kind)
    assert stage_calls[0] == first and sorted(stage_calls) == ["eigenpairs", "harmonic_coordinates"]


@pytest.mark.parametrize("kind", sorted(SMALL_POINTS))
def test_the_stage_order_leaves_the_point_bit_identical(monkeypatch, stage_calls, kind):
    points = [small_point(kind)]
    varies = estimates._metric_varies(points[0]["manifold"])
    monkeypatch.setattr(estimates, "_metric_varies", lambda M: not varies)
    points.append(small_point(kind))
    assert stage_calls[2:] == stage_calls[:2][::-1]    # the flipped predicate swapped the stages
    a, b = points
    assert len(a["pairs"]) == len(b["pairs"]) > 1
    for p, q in zip(a["pairs"], b["pairs"]):
        assert np.float64(p.theta).tobytes() == np.float64(q.theta).tobytes()
        assert p.u.tobytes() == q.u.tobytes()
    assert a["cert"].to_json_dict() == b["cert"].to_json_dict()
    assert a["cutoff"].values.tobytes() == b["cutoff"].values.tobytes()
    assert (a["C0"], a["lambda_ric"]) == (b["C0"], b["lambda_ric"])


def test_point_reports_trace_each_fiber_once(monkeypatch):
    # the checked fibers and their 2 eps r neighborhoods depend on the
    # splitting map alone: one Dijkstra per fiber, one check per fiber and pair
    point = warped_point()
    neighborhoods, checks = [], []
    dijkstra, check = flow.graph_distances, estimates.fiber_apriori_check

    def counting_dijkstra(M, src, **kwargs):
        neighborhoods.append(len(src))
        return dijkstra(M, src, **kwargs)

    def counting_check(*args, **kwargs):
        checks.append(args[0].level)
        return check(*args, **kwargs)

    monkeypatch.setattr(flow, "graph_distances", counting_dijkstra)
    monkeypatch.setattr(estimates, "fiber_apriori_check", counting_check)
    rows, _ = point_reports(point)
    positive = sum(pair.theta > 0 for pair in point["pairs"])
    assert positive >= 2
    assert 0 < len(neighborhoods) <= FIBER_LEVELS
    assert len(checks) == positive * len(neighborhoods)


def test_a_level_that_does_not_trace_drops_out_of_the_fiber_checks(monkeypatch):
    # a fiber check takes the level-failure policy of epsilon_proxy: the
    # middle level's trace raises, and the other fibers are checked for
    # every pair with a row per pair
    point = warped_point()
    levels = np.linspace(*point["mask"].phi.value_box(point["ball"])[1:], FIBER_LEVELS + 2)[1:-1]
    middle = levels[FIBER_LEVELS // 2]
    failed, checked = [], []
    trace, check = manifold.extract_fiber, estimates.fiber_apriori_check

    def failing(mask, level):
        if np.array_equal(level, middle):
            failed.append(level)
            raise ValueError(f"fiber at level {level} is under-resolved (got 0 samples)")
        return trace(mask, level)

    def recording(fiber, *args):
        checked.append(tuple(fiber.level))
        return check(fiber, *args)

    monkeypatch.setattr(manifold, "extract_fiber", failing)
    monkeypatch.setattr(estimates, "fiber_apriori_check", recording)
    rows, reports = point_reports(point)
    positive = sum(pair.theta > 0 for pair in point["pairs"])
    assert len(failed) == 1 and positive >= 2
    assert len(rows) == len(point["pairs"]) and len(reports) == 3 * len(rows)
    assert sorted(set(checked)) == sorted(tuple(lv) for lv in levels if not np.array_equal(lv, middle))
    assert len(checked) == positive * (FIBER_LEVELS - 1)


def test_point_reports_differentiate_each_eigenfunction_once(monkeypatch):
    # every module that differentiates goes through the counting wrappers;
    # each eigenfunction gets one gradient, one Hessian and one Hessian norm,
    # and the cutoff one gradient per point, in build_cutoff
    calls = {"gradient": [], "hessian": [], "hessian_norm": []}

    def counting(name):
        original = getattr(operators, name)

        def wrapped(M, f, *args, **kwargs):
            calls[name].append(f)
            return original(M, f, *args, **kwargs)

        return wrapped

    for module in (estimates, flow, spectral, splitting):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))
    point = warped_point()
    cutoff, pairs = point["cutoff"], point["pairs"]
    assert sum(f is cutoff.values for f in calls["gradient"]) == 1
    for name in calls:
        calls[name].clear()
    rows, reports = point_reports(point)
    assert len(pairs) >= 3
    for name in ("gradient", "hessian"):
        assert [sum(f is pair.u for f in calls[name]) for pair in pairs] == [1] * len(pairs)
        assert len(calls[name]) == len(pairs)
    assert len(calls["hessian_norm"]) == len(pairs)
    monkeypatch.undo()
    # the values read from the cached fields are those of the public bounds
    M, ball, ball2 = point["manifold"], point["ball"], point["ball2"]
    for pair, (rep_h, rep_i, rep_m) in zip(pairs, zip(*[iter(reports)] * 3)):
        grad_sq = operators.norm_sq(M, operators.gradient(M, pair.u))
        hess_norm = operators.hessian_norm(M, operators.hessian(M, pair.u))
        assert rep_h.constants["K"][0] == c1_sup_bound(M, pair.u, ball2.members, 0.25)
        assert rep_i.constants["K"][0] == w22_k_bound(M, pair.u, grad_sq, hess_norm, ball2.members, 0.25)
        assert rep_m.constants["C_CY"][0] == cheng_yau_ratio(pair.u, np.sqrt(grad_sq), ball)


def test_the_report_pass_reads_each_constant_and_its_outer_ball_from_one_owner(monkeypatch):
    # K_W22 and C_CY come from the public functions, looked up on the
    # estimates module where the tracer rebinds them, once per eigenpair; and
    # every reader of B(p, 2r) gets the one region of the bundle's "ball2"
    calls = {"w22_k_bound": 0, "cheng_yau_ratio": 0}

    def recording(name):
        original = getattr(estimates, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(estimates, name, recording(name))
    regions, concentric = [], manifold.GeodesicBall.concentric

    def recording_concentric(ball, s):
        regions.append((sys._getframe(1).f_code.co_name, s, concentric(ball, s)))
        return regions[-1][2]

    monkeypatch.setattr(manifold.GeodesicBall, "concentric", recording_concentric)
    point = warped_point()
    rows, _ = point_reports(point)
    assert len(rows) >= 3 and calls == {"w22_k_bound": len(rows), "cheng_yau_ratio": len(rows)}
    outer = [(reader, region) for reader, s, region in regions if s == 2 * point["ball"].radius]
    assert {reader for reader, _ in outer} == {
        "run_point", "certify", "build_cutoff", "_mode_reports", "hessian_l2_bound", "cheng_yau_ratio",
        "main_theorem_report",
    }
    assert all(region is point["ball2"] for _, region in outer)


def test_the_cutoff_solves_where_the_residual_gate_is_out_of_reach(monkeypatch):
    # flat default at 846 nodes per unit, the coarsest grid where CG cannot
    # bring the cutoff's true residual under 1e-13 |b|: its last iterate is
    # accepted by backward error once a restart stalls, and agrees with the
    # direct solve
    solves, runs = [], []
    pcg, cg = estimates.circulant_pcg, operators.cg

    def recording(A, shape):
        solve = pcg(A, shape)
        return lambda b: solves.append((A, b, solve(b))) or solves[-1][2]

    monkeypatch.setattr(estimates, "circulant_pcg", recording)
    monkeypatch.setattr(operators, "cg", lambda *args, **kwargs: runs.append(None) or cg(*args, **kwargs))
    mask = chart("flat-product-torus", 0.1, 0.0, 846)
    assert mask.phi.manifold.grid.shape == (846, 85)
    ball, cert = certify_ball(mask, default_ball_center("flat-product-torus"), 0.25)
    build_cutoff(ball, cert.epsilon_hat)
    (A, b, x), = solves
    assert 1 < len(runs) <= 5
    residual = np.linalg.norm(A @ x - b)
    assert residual > operators.CG_RTOL * np.linalg.norm(b)
    assert residual <= operators.CG_BACKWARD_TOL * (np.linalg.norm(abs(A) @ np.abs(x)) + np.linalg.norm(b))
    direct = spsolve(A.tocsc(), b)
    assert np.max(np.abs(x - direct)) <= 1e-11 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# one chart, many balls
# ---------------------------------------------------------------------------


def assert_same_certificates(certs, tol):
    """Every value of each certificate matches the first's to ``tol``."""
    first = certs[0].to_json_dict()
    for cert in certs[1:]:
        for key, value in cert.to_json_dict().items():
            assert value == (pytest.approx(first[key], rel=0, abs=tol) if isinstance(value, float) else first[key]), key


def test_every_center_of_the_flat_chart_gets_one_certificate():
    # the flat kind is invariant under every translation, so the ball stage
    # measures one certificate and one collapse scale at every center
    mask = chart("flat-product-torus", 0.1, 0.0, 64)
    balls = [certify_ball(mask, center, 0.25) for center in ((0.25, 0.0), (0.5, 0.4), (0.8, 0.7))]
    assert len({ball.center for ball, _ in balls}) == 3
    assert_same_certificates([cert for _, cert in balls], 1e-15)
    assert balls[0][1].epsilon_hat == pytest.approx(0.1, rel=1e-6)


def test_centers_along_a_warped_fiber_share_one_chart_and_one_certificate(monkeypatch):
    # the warped kind is invariant under the fiber rotation; the ball stage
    # reads the chart stage's map and never solves for it again
    solves = []
    solve = splitting.harmonic_coordinates
    for module in (estimates, splitting):
        monkeypatch.setattr(module, "harmonic_coordinates", lambda M: solves.append(M) or solve(M))
    mask = chart("warped-torus", 0.1, 0.3, 64)
    balls = [certify_ball(mask, (0.75, y), 0.25) for y in (0.0, 0.25, 0.6)]
    assert len(solves) == 1
    assert len({ball.center for ball, _ in balls}) == 3
    assert_same_certificates([cert for _, cert in balls], 1e-14)


# ---------------------------------------------------------------------------
# closed-form oracles for the warped kind
# ---------------------------------------------------------------------------


# certify_ball's error against the closed forms at delta 0.3, eps 0.1 and the
# default ball, per nodes per unit (128 x 16 and 256 x 26 grids): second order
# in h for psi (= sqrt hessEnergy) and sup_grad; gramDev's integrand has kinks
ORACLE_ERRORS = {
    128: {"psi": -1.040e-4, "gram_dev": -2.550e-4, "sup_grad": -3.111e-4},
    256: {"psi": -2.601e-5, "gram_dev": -5.431e-5, "sup_grad": -7.780e-5},
}
# a value passes within this multiple of its measured error
ORACLE_SLACK = 1.5


@pytest.fixture(scope="module")
def warped_certificates():
    """certify_ball on the default warped ball at each resolution of ``ORACLE_ERRORS``."""
    center = default_ball_center("warped-torus")
    return {npu: certify_ball(chart("warped-torus", 0.1, 0.3, npu), center, 0.25)[1] for npu in ORACLE_ERRORS}


def oracle_misses(cert, exact, npu):
    """The certificate values farther from the closed forms than the slack allows."""
    return [name for name, err in ORACLE_ERRORS[npu].items()
            if not abs(getattr(cert, name) - exact[name]) <= ORACLE_SLACK * abs(err)]


@pytest.mark.parametrize("npu", sorted(ORACLE_ERRORS))
def test_the_warped_certificate_matches_its_closed_forms(warped_certificates, warped_oracle, npu):
    exact = warped_oracle(0.3, 0.25)
    assert exact["psi"] == pytest.approx(0.4824816311, abs=1e-10)
    assert exact["gram_dev"] == pytest.approx(0.3804657887, abs=1e-10)
    assert exact["sup_grad"] == pytest.approx(1.3627702877, abs=1e-10)
    cert = warped_certificates[npu]
    assert oracle_misses(cert, exact, npu) == []
    assert math.sqrt(cert.hess_energy) == cert.psi


def test_the_warped_certificate_converges_at_second_order(warped_certificates, warped_oracle):
    exact = warped_oracle(0.3, 0.25)
    coarse, fine = (warped_certificates[npu] for npu in sorted(ORACLE_ERRORS))
    for name in ("psi", "sup_grad"):
        assert abs(getattr(coarse, name) - exact[name]) >= 3 * abs(getattr(fine, name) - exact[name])


def test_a_hessian_without_the_fiber_christoffel_term_misses_the_oracle(warped_oracle):
    # drop Gamma^x_yy: |Hess Phi|^2 loses half its value and psi falls to gramDev
    mask = chart("warped-torus", 0.1, 0.3, 128)
    gamma = mask.phi.manifold.christoffel.copy()
    gamma[..., 0, 1, 1] = 0.0
    M = dataclasses.replace(mask.phi.manifold, christoffel=gamma)
    _, cert = certify_ball(splitting.classify_regular(splitting.harmonic_coordinates(M), 1e-6),
                          default_ball_center("warped-torus"), 0.25)
    exact = warped_oracle(0.3, 0.25)
    assert cert.psi - exact["psi"] == pytest.approx(-0.102, abs=1e-3)
    assert "psi" in oracle_misses(cert, exact, 128)


# certify_ball's epsilon-hat error against its closed form at delta 0.3, eps
# 0.1 and the default ball, per nodes per unit; 4.608e-7 at 512
EPSILON_HAT_ERRORS = {128: 3.043e-6, 256: 1.298e-6}


@pytest.mark.parametrize("npu", sorted(EPSILON_HAT_ERRORS))
def test_the_warped_epsilon_hat_matches_its_closed_form(warped_certificates, warped_epsilon_hat, npu):
    exact = warped_epsilon_hat(0.3, 0.1, default_ball_center("warped-torus")[0], 0.25)
    assert exact == pytest.approx(0.094306655956, abs=1e-12)
    assert abs(warped_certificates[npu].epsilon_hat - exact) <= ORACLE_SLACK * EPSILON_HAT_ERRORS[npu]


def test_the_warped_epsilon_hat_converges(warped_certificates, warped_epsilon_hat):
    # the error falls 2.34x from 128 to 256 nodes per unit and 2.82x from 256 to 512
    center = default_ball_center("warped-torus")
    exact = warped_epsilon_hat(0.3, 0.1, center[0], 0.25)
    finest = certify_ball(chart("warped-torus", 0.1, 0.3, 512), center, 0.25)[1]
    errors = [abs(cert.epsilon_hat - exact) for cert in (warped_certificates[128], warped_certificates[256], finest)]
    assert errors[0] >= 2 * errors[1] >= 4 * errors[2] > 0


def test_the_warped_epsilon_hat_is_proportional_to_epsilon():
    # the ball wraps the fiber, so epsilon-hat / eps depends on delta and the
    # ball alone (measured spread 2.4e-15 at 128 nodes per unit)
    center = default_ball_center("warped-torus")
    ratios = [certify_ball(chart("warped-torus", eps, 0.3, 128), center, 0.25)[1].epsilon_hat / eps
              for eps in (0.05, 0.1, 0.2)]
    assert max(ratios) - min(ratios) <= 1e-14


# grid shape per epsilon: the 200-node points tie, and the order is not epsilon's
SWEEP_NODES = {0.05: (10, 5), 0.1: (10, 20), 0.2: (20, 10), 0.4: (10, 10)}
LARGEST_FIRST = [0.1, 0.2, 0.4, 0.05]


def unsorted_sweep_points():
    return [
        {"kind": "warped-torus", "epsilon": eps, "resolution_rule": lambda kind, eps: SWEEP_NODES[eps]}
        for eps in (0.2, 0.05, 0.4, 0.1)
    ]


@pytest.fixture
def point_tasks(monkeypatch):
    """The epsilon of every sweep point task, in call order; each task yields one informative row."""
    calls = []

    def task(args):
        eps = args["epsilon"]
        calls.append(eps)
        row = estimates.SweepRow(
            epsilon=eps, epsilon_hat=eps, psi=0.0, theta=1.0, K=1.0, lhs=eps, rhs=1.0,
            margin=1.0 - eps, passed=True, degenerate=False, ratio=eps,
        )
        return [row], []

    monkeypatch.setattr(estimates, "_sweep_point_task", task)
    return calls


@pytest.fixture
def pools(monkeypatch):
    """Every process pool a sweep opens, as a stand-in that records its size and
    runs each task when it is submitted, as a FIFO call queue hands it out;
    ``map`` is the executor's own, which submits every task in order."""
    opened = []

    class RecordingPool(concurrent.futures.Executor):
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.submitted = []
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, args):
            self.submitted.append(args["epsilon"])
            future = concurrent.futures.Future()
            future.set_result(fn(args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return opened


@pytest.mark.parametrize("jobs, workers", [(2, 2), (8, 4)])
def test_sweep_pool_runs_the_largest_grid_first(point_tasks, pools, jobs, workers):
    result = estimates.sweep(unsorted_sweep_points(), jobs)
    pool, = pools
    assert pool.max_workers == workers   # never a worker without a point
    assert pool.submitted == LARGEST_FIRST
    assert [row.epsilon for row in result.rows] == sorted(SWEEP_NODES)


def test_serial_sweep_dispatches_in_the_pool_order(point_tasks, pools):
    result = estimates.sweep(unsorted_sweep_points(), 1)
    assert pools == []
    assert point_tasks == LARGEST_FIRST
    assert [row.epsilon for row in result.rows] == sorted(SWEEP_NODES)


# ---------------------------------------------------------------------------
# the headline estimate on a pair past the fiber gap
# ---------------------------------------------------------------------------


def fiber_sine_report(epsilon: float, scale_certificate=None):
    """The headline report of ``u = sqrt(2) sin 2 pi y`` on the flat torus at
    128 nodes per unit, with the Rayleigh quotient as theta: a pair past the
    fiber gap, whose tangential gradient has L2 average 2 pi / eps."""
    mask = chart("flat-product-torus", epsilon, 0.0, 128)
    ball, cert = certify_ball(mask, default_ball_center("flat-product-torus"), 0.25)
    M = mask.phi.manifold
    u = np.sqrt(2.0) * np.sin(2 * np.pi * M.positions()[..., 1])
    L, mass = operators.laplacian_matrix(M)
    Lu = L @ u.ravel()
    theta = float(u.ravel() @ Lu / (mass @ u.ravel() ** 2))
    residual = float(np.sqrt(np.sum(mass * (Lu / mass - theta * u.ravel()) ** 2) / mass.sum()))
    assert residual < 6e-11
    if scale_certificate is not None:
        cert = dataclasses.replace(cert, **{key: getattr(cert, key) * f for key, f in scale_certificate.items()})
    field = flow.tangential_projection(u, mask)
    cutoff = build_cutoff(ball, cert.epsilon_hat)
    return estimates.main_theorem_report(EigenPair(theta, u, residual), field, ball, cert, cutoff)


def check_the_headline_is_informative_past_the_fiber_gap():
    # r ||grad^T u|| = r 2 pi / eps, less the ball's discretization: 1.557,
    # 1.529 and 1.532 times 1 / eps measured
    scaled = []
    for eps in (0.2, 0.1, 0.05):
        rep = fiber_sine_report(eps)
        assert rep.passed and rep.lhs > DEGENERATE_LHS_FRACTION * rep.rhs
        scaled.append(rep.lhs * eps)
    assert max(scaled) <= 1.05 * min(scaled)
    assert scaled[0] == pytest.approx(np.pi / 2, rel=0.05)


def test_the_headline_is_informative_past_the_fiber_gap():
    check_the_headline_is_informative_past_the_fiber_gap()


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_a_too_small_certificate_fails_the_headline(eps):
    rep = fiber_sine_report(eps, scale_certificate={"epsilon_hat": 1e-12, "psi": 1e-6})
    assert rep.lhs > rep.rhs and not rep.passed


# ---------------------------------------------------------------------------
# the headline's inputs, recomputed on the warped kind
# ---------------------------------------------------------------------------


def warped_headline_parts():
    """The headline report of ``u = sin 2 pi y (1 + cos(2 pi x) / 2)`` on the
    default warped ball at 128 nodes per unit, passed as a pair with residual
    0: its tangential gradient varies across B(p, r) at x = 3/4, and so does
    the volume element eps w(x)."""
    mask = chart("warped-torus", 0.1, 0.3, 128)
    ball, cert = certify_ball(mask, default_ball_center("warped-torus"), 0.25)
    x, y = np.moveaxis(mask.phi.manifold.positions(), -1, 0)
    u = np.sin(2 * np.pi * y) * (1.0 + 0.5 * np.cos(2 * np.pi * x))
    field = flow.tangential_projection(u, mask)
    cutoff = build_cutoff(ball, cert.epsilon_hat)
    rep = estimates.main_theorem_report(EigenPair(1.0, u, 0.0), field, ball, cert, cutoff)
    return {"mask": mask, "ball": ball, "field": field, "cutoff": cutoff, "rep": rep}


@pytest.fixture(scope="module")
def warped_headline():
    return warped_headline_parts()


def check_the_headline_lhs_is_a_volume_weighted_average(warped_headline):
    # the plain node mean of |grad^T u|^2 reads 0.75 % higher here
    mask, ball, field = warped_headline["mask"], warped_headline["ball"], warped_headline["field"]
    dom = ball.members & mask.regular
    w, s = mask.phi.manifold.node_weights()[dom], field.speed_sq[dom]
    assert dom.sum() > 1000 and np.ptp(w) > 0.2 * w.max()
    assert warped_headline["rep"].lhs == pytest.approx(0.25 * math.sqrt((w * s).sum() / w.sum()), rel=1e-13)


def test_the_headline_lhs_is_a_volume_weighted_average(warped_headline):
    check_the_headline_lhs_is_a_volume_weighted_average(warped_headline)


def check_the_headline_rhs_and_c2_follow_their_formulas(warped_headline, warped_oracle, warped_epsilon_hat):
    # C2 = 48 m k^2 C_ctf 2^k |B2r| / |Br| with the volumes summed here (B2r
    # is the whole-chart stand-in), and RHS = C2 (1 + C_CY) sup|u| (sqrt(eps_hat)
    # + psi) with psi and eps_hat from the closed forms, within their h^2 errors
    ball, field, cutoff, rep = (warped_headline[key] for key in ("ball", "field", "cutoff", "rep"))
    M = field.manifold
    assert ball.concentric(0.5).whole
    w = M.node_weights()
    C2 = 48.0 * 2 * 1**2 * cutoff.c_ctf * 2.0**1 * (w.sum() / w[ball.members].sum())
    assert rep.constants["C2"][0] == pytest.approx(C2, rel=1e-13)
    scale = C2 * (1.0 + cheng_yau_ratio(field.u, field.grad_norm(), ball)) * np.max(np.abs(field.u))
    eps_hat = warped_epsilon_hat(0.3, 0.1, default_ball_center("warped-torus")[0], 0.25)
    exact = math.sqrt(eps_hat) + warped_oracle(0.3, 0.25)["psi"]
    tol = ORACLE_SLACK * (abs(ORACLE_ERRORS[128]["psi"]) + EPSILON_HAT_ERRORS[128] / (2 * math.sqrt(eps_hat)))
    assert abs(rep.rhs / scale - exact) <= tol


def test_the_headline_rhs_and_c2_follow_their_formulas(warped_headline, warped_oracle, warped_epsilon_hat):
    check_the_headline_rhs_and_c2_follow_their_formulas(warped_headline, warped_oracle, warped_epsilon_hat)


@pytest.mark.parametrize("point", [None, (math.nan, 0.0), (0.75, math.inf), (0.75,), (0.75, 0.0, 0.0)])
def test_a_chart_point_without_two_finite_coordinates_has_no_nearest_node(point):
    # the first four went to nodes (0, 0), (0, 0), (48, 0) and (48, 12) of
    # the warped 64-per-unit chart, the last to a broadcasting error
    M = manifold.build_family(estimates.point_spec("warped-torus", 0.1, 0.3, 0.0, default_resolution_rule(64)))
    assert estimates.nearest_node(M, (0.75, 0.0)) == (48, 0)
    with pytest.raises(ValueError, match=r"is not 2 finite coordinates"):
        estimates.nearest_node(M, point)
