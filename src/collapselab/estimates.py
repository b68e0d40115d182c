"""Integral estimates as executable checks with measured constants.

Every check produces an :class:`EstimateReport` carrying the measured LHS and
RHS, every constant with its provenance (measured vs formula), and a pass
flag equivalent to ``LHS <= RHS``.  The splitting-quality parameter entering
the right-hand sides is always the measured certificate value, never a
modeled smallness function; each report carries a note flagging this
substitution.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse import diags

from .manifold import (
    FAMILIES,
    DiscreteManifold,
    FamilySpec,
    FiberTrace,
    GeodesicBall,
    _traced_fibers,
    build_family,
    epsilon_proxy,
    geodesic_ball,
    ricci_lower_bound,
)
from .operators import (
    circulant_pcg,
    gradient,
    laplace,
    laplacian_matrix,
    metric_inner,
    norm_sq,
    region_average,
    region_sup,
)
from .spectral import RESIDUAL_TOL, EigenPair, cheng_yau_ratio, eigenpairs
from .splitting import (
    Certificate,
    RegularMask,
    SplittingMap,
    _gradient_hessian_sizes,
    certify,
    classify_regular,
    harmonic_coordinates,
)
from .flow import TangentialField, fiber_apriori_check, tangential_projection

__all__ = [
    "CutoffFunction",
    "EstimateReport",
    "SweepRow",
    "SweepResult",
    "build_cutoff",
    "certify_ball",
    "checked_fibers",
    "hessian_l2_bound",
    "interior_l2_report",
    "main_theorem_report",
    "point_reports",
    "sweep",
    "c1_sup_bound",
    "w22_k_bound",
    "phi_c0_bound",
]

PSI_NOTE = "psi/epsilonHat are measured certificate values standing in for the abstract smallness function"


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateReport:
    name: str
    lhs: float
    rhs: float
    constants: dict
    extras: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs)

    @property
    def margin(self) -> float:
        if self.lhs == 0.0:
            return float("inf")
        return float(self.rhs / self.lhs)

    def to_json_dict(self) -> dict:
        return {
            "schema": "estimate-report@1",
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "constants": {
                k: {"value": v, "provenance": p} for k, (v, p) in sorted(self.constants.items())
            },
            "extras": self.extras,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# measured input constants
# ---------------------------------------------------------------------------


def c1_sup_bound(M: DiscreteManifold, u: np.ndarray, region: np.ndarray, r: float) -> float:
    """K with sup(|u| + r |grad u|) <= K on the region."""
    return _c1_sup(u, np.sqrt(norm_sq(M, gradient(M, u))), region, r)


def _c1_sup(u, grad_norm, region, r) -> float:
    return region_sup(np.abs(u) + r * grad_norm, region)


def w22_k_bound(M: DiscreteManifold, u: np.ndarray, grad_sq: np.ndarray, hess_norm: np.ndarray,
                region: np.ndarray, r: float) -> float:
    """K with sup(|u|^2 + r^2|grad u|^2) + r^4 avg|Hess u|^2 <= K^2 on the region,
    from u's |grad u|^2 and |Hess u| fields (``TangentialField`` caches both)."""
    sup_part = region_sup(np.abs(u) ** 2 + r**2 * grad_sq, region)
    avg_part = region_average(M, hess_norm**2, region)
    return float(np.sqrt(sup_part + r**4 * avg_part))


def phi_c0_bound(phi: SplittingMap, region: np.ndarray, r: float) -> float:
    """C0 with sup|grad Phi^a| <= 1 + C0 and r^2 sum_b avg|Hess_Phi^b|^2 <= C0^2."""
    sup_grad, hess_term = _gradient_hessian_sizes(phi, region, r)
    return float(max(sup_grad - 1.0, np.sqrt(hess_term), 0.0))


# ---------------------------------------------------------------------------
# cutoff function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffFunction:
    """Quintic smoothstep of radial distance: 1 inside, 0 outside.

    ``grad`` (contravariant) and ``lap_abs`` are the derivative fields that
    ``build_cutoff`` measures ``C_ctf`` from; ``hessian_l2_bound`` reads them
    for every eigenfunction of the point instead of differentiating again.
    """

    values: np.ndarray
    inner_radius: float
    outer_radius: float
    c_ctf_measured: float    # (1/2) sup(r|grad phi| + r^2|Delta phi|)
    c_ctf: float             # max(measured, 1): the proof normalizes C_ctf > 1
    grad: np.ndarray
    lap_abs: np.ndarray
    r: float


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def build_cutoff(ball: GeodesicBall, eps_hat: float) -> CutoffFunction:
    """Controlled cutoff: 1 on B(p, r + 4 eps r), 0 outside B(p, 2r), C2 transition,
    for the ball B(p, r) and its concentric B(p, 2r).

    The graph distance carries lattice-scale creases whose second differences
    would pollute the measured Laplacian bound, so the distance is mollified
    at a fixed physical scale (an eighth of the annulus width) before the
    smoothstep, and the transition is inset by the mollification error; the
    plateau invariants hold against the raw distances.
    """
    if eps_hat < 0:
        raise ValueError("eps_hat must be nonnegative")
    r, outer = ball.radius, ball.concentric(2 * ball.radius)
    r_in, r_out = r * (1.0 + 4.0 * eps_hat), outer.radius
    if not r_in < r_out:
        raise ValueError(
            f"cutoff radii overlap: inner r(1 + 4 eps) = {r_in:.6g} must be < outer {r_out:.6g}, "
            f"so eps_hat = {eps_hat:.6g} must stay below 1/4; use a larger ball radius (ball.radius)"
        )
    M, d = ball.manifold, outer.distances
    L, mass = laplacian_matrix(M)
    w_s = (r_out - r_in) / 8.0
    d_s = circulant_pcg(diags(mass) + w_s**2 * L, d.shape)(mass * d.ravel()).reshape(d.shape)
    inset = float(np.max(np.abs(d_s - d)))
    phi = _smoothstep((d_s - (r_in + inset)) / ((r_out - inset) - (r_in + inset)))
    g = gradient(M, phi)
    gn = np.sqrt(norm_sq(M, g))
    lap = np.abs(laplace(M, phi))
    measured = 0.5 * float(np.max(r * gn + r**2 * lap))
    return CutoffFunction(
        values=phi,
        inner_radius=r_in,
        outer_radius=r_out,
        c_ctf_measured=measured,
        c_ctf=max(measured, 1.0),
        grad=g,
        lap_abs=lap,
        r=r,
    )


# ---------------------------------------------------------------------------
# Hessian L2 bound (Weitzenboeck test against the cutoff)
# ---------------------------------------------------------------------------


def hessian_l2_bound(field: TangentialField, ball: GeodesicBall, cutoff: CutoffFunction,
                     lambda_ric: float = 0.0) -> EstimateReport:
    """Cutoff-tested Hessian energy bound and its L1 consequence, for the
    function ``field.u`` on the ball B(p, r) and its concentric B(p, 2r) (the
    derivative fields of u are read from ``field``).

    The headline report checks the mean of |Hess u| on the inner ball against
    ``4 m C_ctf K r^-2 + 2 ||Delta u||``; the phi-weighted squared-energy
    inequality it derives from is nested under ``extras['intermediate']``.
    """
    M, u = field.manifold, field.u
    r = ball.radius
    m = M.dim
    reg2 = ball.concentric(2 * r).members
    K = _c1_sup(u, field.grad_norm(), reg2, r)
    du = laplace(M, u)
    du_l2 = math.sqrt(region_average(M, du**2, reg2))
    hn = field.hessian_u_norm()
    phi = cutoff.values

    lhs_int = region_average(M, phi * hn**2, reg2)
    rhs_int = (8.0 * cutoff.c_ctf / r**2 + (m - 1) * lambda_ric) * K**2 / r**2 + 1.5 * du_l2**2

    cross = np.abs(du) * np.abs(metric_inner(M, cutoff.grad, field.grad_u))
    line1 = (
        0.5 * region_average(M, (cutoff.lap_abs + 2.0 * lambda_ric * (m - 1)) * field.grad_sq(), reg2)
        + region_average(M, du**2 * phi, reg2)
        + region_average(M, cross, reg2)
    )

    lhs_fin = region_average(M, hn, ball.members)
    rhs_fin = 4.0 * m * cutoff.c_ctf * K / r**2 + 2.0 * du_l2

    constants = {
        "C_ctf": (cutoff.c_ctf, "measured"),
        "K": (K, "measured (sup |u| + r|grad u| on B2r)"),
        "norm_laplace_u": (du_l2, "measured"),
        "r": (r, "input"),
        "m": (m, "input"),
    }
    intermediate = EstimateReport(
        name="hessian-energy-cutoff",
        lhs=float(lhs_int),
        rhs=float(rhs_int),
        constants={**constants, "lambda_ric": (lambda_ric, "analytic family curvature bound")},
        extras={"fieldLevelRhs": float(line1)},
    )
    return EstimateReport(
        name="hessian-l1-average",
        lhs=float(lhs_fin),
        rhs=float(rhs_fin),
        constants=constants,
        extras={"intermediate": intermediate.to_json_dict()},
    )


# ---------------------------------------------------------------------------
# interior L2 estimate for the tangential gradients
# ---------------------------------------------------------------------------


def interior_l2_report(field: TangentialField, ball_r: GeodesicBall, K: float, C0: float,
                       eps_hat: float) -> EstimateReport:
    """``r^2 int |grad^T u|^2 |J_k| <= C1 |B(p,r)| K^2 (sqrt(eps) + C0)``.

    The integral runs over the ball's nodes in the field's regular mask whose
    map values lie in the value box of the inner ball ``B(p, r(1 - 4 eps))``
    (``SplittingMap.in_value_box``, cached per ball); ``C1`` is assembled
    from ``8 k^2 (1 + C0)^(k-1)``.  A C0 outside [0, 1) is a config error
    that names the kind's parameter and ``ball.radius``: C0 grows with both.
    """
    M = field.manifold
    if not (0.0 <= C0 < 1.0):
        name = M.family and FAMILIES[M.family.kind].parameter
        keys = ([f"family.{name}"] if name else []) + ["ball.radius"]
        raise ValueError(f"hypothesis violation: C0 = {C0:.6g} must lie in [0, 1); lower {' or '.join(keys)}")
    r = ball_r.radius
    k = field.phi.k
    inner = ball_r.concentric(max(r * (1.0 - 4.0 * eps_hat), 1e-9))
    domain = ball_r.members & field.mask & field.phi.in_value_box(inner)
    w = M.node_weights()
    dens = np.where(domain, field.speed_sq * field.phi.absdet(), 0.0)
    lhs = r**2 * float((dens * w).sum())
    C1 = 8.0 * k**2 * (1.0 + C0) ** (k - 1)
    vol = ball_r.volume()
    rhs = C1 * vol * K**2 * (np.sqrt(eps_hat) + C0)
    return EstimateReport(
        name="interior-l2-tangential",
        lhs=float(lhs),
        rhs=float(rhs),
        constants={
            "C0": (C0, "measured (splitting map W22 bound)"),
            "C1": (C1, "formula 8 k^2 (1 + C0)^(k-1)"),
            "K": (K, "measured (u W22 bound)"),
            "ballVolume": (vol, "measured"),
            "epsilonHat": (eps_hat, "measured"),
            "k": (k, "input"),
            "r": (r, "input"),
        },
        extras={"integrationVolumeFraction": float(w[domain].sum() / max(w[ball_r.members].sum(), 1e-300))},
        notes=(PSI_NOTE,),
    )


# ---------------------------------------------------------------------------
# main theorem report
# ---------------------------------------------------------------------------


def main_theorem_report(eig: EigenPair, field: TangentialField, ball_r: GeodesicBall, cert: Certificate,
                        cutoff: CutoffFunction) -> EstimateReport:
    """``r ||grad^T u||_{L2avg(B(p,r))} <= C(m,k,theta) sup|u| (sqrt(eps) + psi)``.

    ``C = C2 (1 + C_CY)`` with the Cheng-Yau constant replaced by the measured
    ratio and ``C2 = 48 m k^2 C_ctf 2^k * (measured |B(p,2r)| / |B(p,r)|)``.
    The unweighted average is the headline LHS; the |J_k|-weighted variant and
    the singular volume excluded by the mask are reported alongside.
    """
    M = field.manifold
    if not eig.residual <= RESIDUAL_TOL * (1.0 + abs(eig.theta)):
        raise ValueError(f"eigenpair residual {eig.residual:.3e} too large for a certified report")
    r = ball_r.radius
    m = M.dim
    k = field.phi.k
    outer = ball_r.concentric(2 * r)
    c_cy = cheng_yau_ratio(eig.u, field.grad_norm(), ball_r)
    vol_ratio = outer.volume() / ball_r.volume()
    C2 = 48.0 * m * k**2 * cutoff.c_ctf * 2.0**k * vol_ratio
    C = C2 * (1.0 + c_cy)
    sup_u = region_sup(np.abs(eig.u), outer.members)

    w = M.node_weights()
    dom = ball_r.members & field.mask     # not empty: certify_ball checks
    excluded = float(w[ball_r.members & ~field.mask].sum() / w[ball_r.members].sum())
    lhs = r * math.sqrt(region_average(M, field.speed_sq, dom))
    lhs_weighted = r * math.sqrt(region_average(M, field.speed_sq * field.phi.absdet(), dom))
    rhs = C * sup_u * (np.sqrt(cert.epsilon_hat) + cert.psi)
    return EstimateReport(
        name="main-theorem-tangential-l2",
        lhs=float(lhs),
        rhs=float(rhs),
        constants={
            "C": (C, "formula C2 (1 + C_CY), measured factors"),
            "C2": (C2, "formula 48 m k^2 C_ctf 2^k * measured volume ratio"),
            "C_CY": (c_cy, "measured (Cheng-Yau ratio)"),
            "C_ctf": (cutoff.c_ctf, "measured"),
            "epsilonHat": (cert.epsilon_hat, "measured"),
            "psi": (cert.psi, "measured certificate"),
            "supU": (sup_u, "measured"),
            "theta": (eig.theta, "measured eigenvalue"),
            "volumeRatio": (vol_ratio, "measured |B2r|/|Br|"),
            "k": (k, "input"),
            "m": (m, "input"),
            "r": (r, "input"),
        },
        extras={
            "lhsWeighted": lhs_weighted,
            "excludedVolumeFraction": excluded,
        },
        notes=(PSI_NOTE,),
    )


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    epsilon_hat: float
    psi: float
    theta: float
    K: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    degenerate: bool
    ratio: float  # lhs / (sup|u| (sqrt(eps_hat) + psi))

# rows with lhs below this fraction of rhs carry no scaling information
DEGENERATE_LHS_FRACTION = 1e-8

# fiber levels traced per eigenpair for the fiberwise a priori check
FIBER_LEVELS = 5


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    reports: tuple[tuple[EstimateReport, ...], ...]    # each point's own, ascending epsilon
    exponent: float | None      # log-log slope of lhs vs eps_hat (None when degenerate)
    ratio_spread: float | None  # max/min of per-row ratio over non-degenerate rows
    degenerate: bool            # too few informative rows for scaling statements
    all_passed: bool


def point_spec(kind: str, epsilon: float, delta: float, twist: float, resolution_rule) -> FamilySpec:
    """The chart of a point's family inputs and resolution rule."""
    return FamilySpec(kind=kind, epsilon=epsilon, delta=delta, twist=twist, resolution=resolution_rule(kind, epsilon))


def certify_ball(mask: RegularMask, ball_center: tuple[float, ...], r: float) -> tuple[GeodesicBall, Certificate]:
    """The ball stage of a point on the chart of ``mask``, the chart stage:
    B(p, r) about the node nearest ``ball_center``, and its certificate with
    the collapse scale measured on the ball."""
    M = mask.phi.manifold
    ball = geodesic_ball(M, nearest_node(M, ball_center), r)
    if not (ball.members & mask.regular).any():
        raise ValueError(
            "the regular mask leaves B(p, r) empty: no node of the ball has a Jacobian eigenvalue above "
            "the regularity threshold; lower thresholds.lambda_min_rel"
        )
    return ball, certify(mask.phi, ball, epsilon_proxy(ball, mask))


def run_point(
    kind: str,
    epsilon: float,
    delta: float,
    twist: float,
    resolution_rule,
    ball_center: tuple[float, ...],
    r: float,
    theta_max: float,
    eig_count: int,
    seed: int,
    lambda_threshold_rel: float = 1e-6,
):
    """Full pipeline at one collapse parameter; returns the per-point bundle."""
    mask = classify_regular(harmonic_coordinates(build_family(
        point_spec(kind, epsilon, delta, twist, resolution_rule))), lambda_threshold_rel)
    ball, cert = certify_ball(mask, ball_center, r)
    M = mask.phi.manifold
    return {
        "mask": mask,
        "ball": ball,
        "cert": cert,
        # perfbench/child.py reads these three; the package reads mask.phi.manifold,
        # ball.concentric(2 * r) and cert.epsilon_hat
        "manifold": M,
        "ball2": ball.concentric(2 * r),
        "eps_hat": cert.epsilon_hat,
        "pairs": eigenpairs(M, eig_count, theta_max=theta_max, seed=seed),
        "cutoff": build_cutoff(ball, cert.epsilon_hat),
        "lambda_ric": ricci_lower_bound(M),
        "C0": phi_c0_bound(mask.phi, np.ones_like(mask.regular), r),
    }


def nearest_node(M: DiscreteManifold, chart_point) -> tuple[int, ...]:
    """The grid node nearest a chart point of ``M.dim`` finite coordinates, as an index tuple."""
    x = np.asarray(chart_point, dtype=float)
    if x.shape != (M.dim,) or not np.isfinite(x).all():
        raise ValueError(f"chart point {chart_point!r} is not {M.dim} finite coordinates: it has no nearest node")
    ij = np.round(x / np.asarray(M.grid.spacings)).astype(int) % np.asarray(M.grid.shape)
    return tuple(int(i) for i in ij)


def default_ball_center(kind: str) -> tuple[float, ...]:
    """Working-ball center of a built-in kind (``FAMILIES``)."""
    return FAMILIES[kind].ball_center


def _resolution(kind: str, epsilon: float, nodes_per_unit: int, min_fiber_nodes: int) -> tuple[int, ...]:
    k = FAMILIES[kind].dim - 1
    base = nodes_per_unit if k == 1 else max(min_fiber_nodes, nodes_per_unit // 4)
    return (base,) * k + (max(min_fiber_nodes, int(round(nodes_per_unit * epsilon))),)


def default_resolution_rule(nodes_per_unit: int = 128, min_fiber_nodes: int = 16):
    """``rule(kind, epsilon)``: nodes per axis.  The fiber, of length eps,
    gets ``nodes_per_unit * eps`` nodes, floored at ``min_fiber_nodes``; a
    base axis gets ``nodes_per_unit`` on a 2-D chart and a quarter of it,
    floored alike, on a 3-D one.  A partial of a module-level function, so
    the rule pickles into sweep worker processes."""
    return partial(_resolution, nodes_per_unit=nodes_per_unit, min_fiber_nodes=min_fiber_nodes)


def point_reports(point: dict) -> tuple[list[SweepRow], list[EstimateReport]]:
    """Sweep rows and estimate reports of every eigenpair of a ``run_point`` bundle."""
    mask, ball = point["mask"], point["ball"]
    levels = np.linspace(*mask.phi.value_box(ball)[1:], FIBER_LEVELS + 2)[1:-1]    # the value box's diagonal
    fibers = checked_fibers(mask, levels) if any(pair.theta > 0 for pair in point["pairs"]) else []
    rows, reports = [], []
    for pair in point["pairs"]:
        row, mode_reports = _mode_reports(point, pair, fibers)
        rows.append(row)
        reports.extend(mode_reports)
    return rows, reports


def _sweep_point_task(args: dict) -> tuple[list, list]:
    return point_reports(run_point(**args))


def sweep(points, jobs: int = 1) -> SweepResult:
    """The pipeline at every point; scaling statistics on the rows.

    ``points`` holds one ``run_point`` argument set per collapse parameter
    (``ExperimentConfig.point_args``), so a sweep point is exactly the
    single-point run at its epsilon.  Rows whose LHS sits below the
    degeneracy floor (1e-8 of the RHS) carry no scaling information: they are
    flagged and excluded from the log-log fit and the bounded-ratio spread.
    With fewer than two informative rows the sweep is marked degenerate and
    the scaling checks pass vacuously.

    Points run most grid nodes first, ties in epsilon order, in one task list
    that ``map`` runs, or with ``jobs > 1`` a pool's (one worker per point at most).  A point's
    cost grows with its node count, so this is longest-processing-time-first
    scheduling (Graham, SIAM J. Appl. Math. 1969): the largest point no
    longer runs alone after the others, and no smaller point runs before it
    in its process (a point that frees large arrays raises glibc's mmap
    threshold, so a larger one after it grows the heap instead).  Results
    merge in epsilon order either way, so outputs are deterministic.
    """
    points = sorted(points, key=lambda args: args["epsilon"])
    if len(points) < 3:
        raise ValueError(f"config field sweep.epsilons must list at least 3 values, got {len(points)}")
    nodes = [math.prod(args["resolution_rule"](args["kind"], args["epsilon"])) for args in points]
    order = sorted(range(len(points)), key=lambda i: -nodes[i])  # stable: ties keep epsilon order
    # the pool's call queue is FIFO, so workers take the points in task order
    with (concurrent.futures.ProcessPoolExecutor(min(jobs, len(points))) if jobs > 1 else nullcontext()) as pool:
        results = dict(zip(order, (pool.map if jobs > 1 else map)(_sweep_point_task, [points[i] for i in order])))
    rows = [row for i in range(len(points)) for row in results[i][0]]
    reports = tuple(tuple(results[i][1]) for i in range(len(points)))
    informative = [row for row in rows if not row.degenerate]
    all_passed = all(row.passed for row in rows) and all(rep.passed for reps in reports for rep in reps)
    degenerate = len(informative) < 2
    ratios = [row.ratio for row in informative]
    ratio_spread = None if degenerate else max(ratios) / min(ratios)
    by_eps: dict[float, float] = {}
    for row in informative:
        by_eps[row.epsilon_hat] = max(by_eps.get(row.epsilon_hat, 0.0), row.lhs)
    xs = sorted(by_eps)
    exponent = float(np.polyfit(np.log(xs), np.log([by_eps[x] for x in xs]), 1)[0]) if len(xs) >= 3 else None
    return SweepResult(
        rows=tuple(rows),
        reports=reports,
        exponent=exponent,
        ratio_spread=ratio_spread,
        degenerate=degenerate,
        all_passed=all_passed,
    )


def checked_fibers(mask: RegularMask, levels) -> list[FiberTrace]:
    """The fibers of ``mask.phi`` at k-component ``levels`` that an a priori
    check reads: regular ones whose stencils stay in the mask
    (``FiberTrace.in_mask``); a level that does not trace is skipped, as
    ``epsilon_proxy`` skips it."""
    return [trace for trace in _traced_fibers(mask, levels) if trace.regular and trace.in_mask]


def _mode_reports(point: dict, pair: EigenPair, fibers: list[FiberTrace]):
    mask, ball, cert, cutoff = point["mask"], point["ball"], point["cert"], point["cutoff"]
    M, r = mask.phi.manifold, ball.radius
    field = tangential_projection(pair.u, mask)
    K_w22 = w22_k_bound(M, field.u, field.grad_sq(), field.hessian_u_norm(), ball.concentric(2 * r).members, r)
    rep_h = hessian_l2_bound(field, ball, cutoff, point["lambda_ric"])
    rep_i = interior_l2_report(field, ball, K_w22, point["C0"], cert.epsilon_hat)
    rep_m = main_theorem_report(pair, field, ball, cert, cutoff)
    tag = {"epsilon": M.family.epsilon, "theta": pair.theta}
    reports = [
        dataclasses.replace(rep, extras={**rep.extras, **tag}) for rep in (rep_h, rep_i, rep_m)
    ]
    apriori_pass = True
    if pair.theta > 0:
        for trace in fibers:
            apriori_pass &= fiber_apriori_check(trace, field, cert.epsilon_hat, r).passed
    denom = rep_m.constants["supU"][0] * (np.sqrt(cert.epsilon_hat) + cert.psi)
    ratio = rep_m.lhs / denom if denom > 0 else np.inf
    degenerate = rep_m.lhs <= DEGENERATE_LHS_FRACTION * rep_m.rhs
    row = SweepRow(
        epsilon=M.family.epsilon,
        epsilon_hat=cert.epsilon_hat,
        psi=cert.psi,
        theta=pair.theta,
        K=rep_h.constants["K"][0],
        lhs=rep_m.lhs,
        rhs=rep_m.rhs,
        margin=rep_m.margin,
        passed=rep_m.passed and rep_h.passed and rep_i.passed and apriori_pass,
        degenerate=bool(degenerate),
        ratio=float(ratio),
    )
    return row, reports

