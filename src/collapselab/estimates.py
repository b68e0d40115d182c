"""Integral estimates as executable checks with measured constants.

Every check produces an :class:`EstimateReport` carrying the measured LHS and
RHS, every constant with its provenance (measured vs formula), and a pass
flag equivalent to ``LHS <= RHS``.  The splitting-quality parameter entering
the right-hand sides is always the measured certificate value, never a
modeled smallness function; each report carries a note flagging this
substitution.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import diags

from .manifold import (
    DiscreteManifold,
    GeodesicBall,
    build_family,
    epsilon_proxy,
    extract_fiber,
    geodesic_ball,
    ricci_lower_bound,
)
from .operators import (
    factorize,
    gradient,
    hessian,
    hessian_norm,
    interp_scalar,
    l2_average,
    laplace,
    laplacian_matrix,
    metric_inner,
    region_average,
    region_sup,
)
from .spectral import RESIDUAL_TOL, EigenPair, cheng_yau_ratio, eigenpairs
from .splitting import Certificate, SplittingMap, certify, classify_regular, harmonic_coordinates, jacobian_stats
from .flow import TangentialField, integrate_flow_ensemble, tangential_projection

__all__ = [
    "CutoffFunction",
    "EstimateReport",
    "SweepRow",
    "SweepResult",
    "build_cutoff",
    "hessian_l2_bound",
    "interior_l2_report",
    "main_theorem_report",
    "change_integral_check",
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
            "extras": _jsonable(self.extras),
            "notes": list(self.notes),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and np.isinf(obj):
        return "inf"
    return obj


# ---------------------------------------------------------------------------
# measured input constants
# ---------------------------------------------------------------------------


def c1_sup_bound(M: DiscreteManifold, u: np.ndarray, region: np.ndarray, r: float) -> float:
    """K with sup(|u| + r |grad u|) <= K on the region."""
    g = gradient(M, u)
    gn = np.sqrt(np.maximum(metric_inner(M, g, g), 0.0))
    return region_sup(np.abs(u) + r * gn, region)


def w22_k_bound(M: DiscreteManifold, u: np.ndarray, region: np.ndarray, r: float) -> float:
    """K with sup(|u|^2 + r^2|grad u|^2) + r^4 avg|Hess u|^2 <= K^2 on the region."""
    g = gradient(M, u)
    gsq = np.maximum(metric_inner(M, g, g), 0.0)
    hn = hessian_norm(M, hessian(M, u))
    sup_part = region_sup(np.abs(u) ** 2 + r**2 * gsq, region)
    avg_part = region_average(M, hn**2, region)
    return float(np.sqrt(sup_part + r**4 * avg_part))


def phi_c0_bound(phi: SplittingMap, region: np.ndarray, r: float) -> float:
    """C0 with sup|grad Phi^a| <= 1 + C0 and r^2 sum_b avg|Hess_Phi^b|^2 <= C0^2."""
    M = phi.manifold
    sup_grad = 0.0
    for g in phi.gradients():
        gn = np.sqrt(np.maximum(metric_inner(M, g, g), 0.0))
        sup_grad = max(sup_grad, region_sup(np.where(region, gn, np.nan), region))
    hess_term = r**2 * sum(
        region_average(M, np.where(region, hn**2, 0.0), region) for hn in phi.hessian_norms()
    )
    return float(max(sup_grad - 1.0, np.sqrt(hess_term), 0.0))


# ---------------------------------------------------------------------------
# cutoff function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffFunction:
    """Quintic smoothstep of radial distance: 1 inside, 0 outside."""

    values: np.ndarray
    inner_radius: float
    outer_radius: float
    c_ctf_measured: float    # (1/2) sup(r|grad phi| + r^2|Delta phi|)
    c_ctf: float             # max(measured, 1): the proof normalizes C_ctf > 1
    grad_norm: np.ndarray
    lap_abs: np.ndarray
    r: float


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def build_cutoff(ball_r: GeodesicBall, ball_2r: GeodesicBall, eps_hat: float) -> CutoffFunction:
    """Controlled cutoff: 1 on B(p, r + 4 eps r), 0 outside B(p, 2r), C2 transition.

    The graph distance carries lattice-scale creases whose second differences
    would pollute the measured Laplacian bound, so the distance is mollified
    at a fixed physical scale (an eighth of the annulus width) before the
    smoothstep, and the transition is inset by the mollification error; the
    plateau invariants hold against the raw distances.
    """
    if eps_hat < 0:
        raise ValueError("eps_hat must be nonnegative")
    r = ball_r.radius
    r_in = r * (1.0 + 4.0 * eps_hat)
    r_out = ball_2r.radius
    if not r_in < r_out:
        raise ValueError(
            f"cutoff radii overlap: inner r(1 + 4 eps) = {r_in:.6g} must be < outer {r_out:.6g}"
        )
    M = ball_r.manifold
    d = ball_2r.distances
    L, mass = laplacian_matrix(M)
    w_s = (r_out - r_in) / 8.0
    d_s = factorize(diags(mass) + w_s**2 * L)(mass * d.ravel()).reshape(d.shape)
    inset = float(np.max(np.abs(d_s - d)))
    phi = _smoothstep((d_s - (r_in + inset)) / ((r_out - inset) - (r_in + inset)))
    g = gradient(M, phi)
    gn = np.sqrt(np.maximum(metric_inner(M, g, g), 0.0))
    lap = np.abs(laplace(M, phi))
    measured = 0.5 * float(np.max(r * gn + r**2 * lap))
    return CutoffFunction(
        values=phi,
        inner_radius=r_in,
        outer_radius=r_out,
        c_ctf_measured=measured,
        c_ctf=max(measured, 1.0),
        grad_norm=gn,
        lap_abs=lap,
        r=r,
    )


# ---------------------------------------------------------------------------
# Hessian L2 bound (Weitzenboeck test against the cutoff)
# ---------------------------------------------------------------------------


def hessian_l2_bound(
    M: DiscreteManifold,
    u: np.ndarray,
    ball_r: GeodesicBall,
    ball_2r: GeodesicBall,
    cutoff: CutoffFunction,
    lambda_ric: float = 0.0,
) -> EstimateReport:
    """Cutoff-tested Hessian energy bound and its L1 consequence.

    The headline report checks the mean of |Hess u| on the inner ball against
    ``4 m C_ctf K r^-2 + 2 ||Delta u||``; the phi-weighted squared-energy
    inequality it derives from is nested under ``extras['intermediate']``.
    """
    r = ball_r.radius
    m = M.dim
    reg2 = ball_2r.members
    K = c1_sup_bound(M, u, reg2, r)
    du = laplace(M, u)
    du_l2 = l2_average(M, du, reg2)
    hn = hessian_norm(M, hessian(M, u))
    phi = cutoff.values

    lhs_int = region_average(M, phi * hn**2, reg2)
    rhs_int = (8.0 * cutoff.c_ctf / r**2 + (m - 1) * lambda_ric) * K**2 / r**2 + 1.5 * du_l2**2

    g_u = gradient(M, u)
    g_phi = gradient(M, phi)
    cross = np.abs(du) * np.abs(metric_inner(M, g_phi, g_u))
    gsq = np.maximum(metric_inner(M, g_u, g_u), 0.0)
    line1 = (
        0.5 * region_average(M, (cutoff.lap_abs + 2.0 * lambda_ric * (m - 1)) * gsq, reg2)
        + region_average(M, du**2 * phi, reg2)
        + region_average(M, cross, reg2)
    )

    lhs_fin = region_average(M, hn, ball_r.members)
    rhs_fin = 4.0 * m * cutoff.c_ctf * K / r**2 + 2.0 * du_l2

    intermediate = EstimateReport(
        name="hessian-energy-cutoff",
        lhs=float(lhs_int),
        rhs=float(rhs_int),
        constants={
            "C_ctf": (cutoff.c_ctf, "measured"),
            "K": (K, "measured (sup |u| + r|grad u| on B2r)"),
            "lambda_ric": (lambda_ric, "analytic family curvature bound"),
            "norm_laplace_u": (du_l2, "measured"),
            "r": (r, "input"),
            "m": (m, "input"),
        },
        extras={"fieldLevelRhs": float(line1)},
    )
    return EstimateReport(
        name="hessian-l1-average",
        lhs=float(lhs_fin),
        rhs=float(rhs_fin),
        constants={
            "C_ctf": (cutoff.c_ctf, "measured"),
            "K": (K, "measured (sup |u| + r|grad u| on B2r)"),
            "norm_laplace_u": (du_l2, "measured"),
            "r": (r, "input"),
            "m": (m, "input"),
        },
        extras={"intermediate": intermediate.to_json_dict()},
    )


# ---------------------------------------------------------------------------
# interior L2 estimate for the tangential gradients
# ---------------------------------------------------------------------------


def interior_l2_report(
    field: TangentialField,
    mask: np.ndarray,
    ball_r: GeodesicBall,
    K: float,
    C0: float,
    eps_hat: float,
) -> EstimateReport:
    """``r^2 int |grad^T u|^2 |J_k| <= C1 |B(p,r)| K^2 (sqrt(eps) + C0)``.

    The integral runs over regular nodes of the ball whose map values lie in
    the range of the inner ball ``B(p, r(1 - 4 eps))``; ``C1`` is assembled
    from ``8 k^2 (1 + C0)^(k-1)``.
    """
    if not (0.0 <= C0 < 1.0):
        raise ValueError(f"hypothesis violation: C0 = {C0:.6g} must lie in [0, 1)")
    M = field.manifold
    r = ball_r.radius
    k = field.phi.k
    inner = ball_r.concentric(max(r * (1.0 - 4.0 * eps_hat), 1e-9))
    anchor = field.phi.evaluate(ball_r.center_position()[None, :])[0]
    lo, hi = field.phi.branch_range(inner.members, anchor)
    dv = field.phi.wrap_value_delta(field.phi.values_stack() - anchor)
    in_range = np.all((dv >= (lo - anchor)) & (dv <= (hi - anchor)), axis=-1)
    domain = ball_r.members & mask & in_range
    w = M.node_weights()
    stats = field.stats
    dens = np.where(domain, np.nan_to_num(field.speed_sq) * np.nan_to_num(stats.absdet), 0.0)
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


def main_theorem_report(
    eig: EigenPair,
    field: TangentialField,
    mask: np.ndarray,
    ball_r: GeodesicBall,
    cert: Certificate,
    cutoff: CutoffFunction,
) -> EstimateReport:
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
    c_cy = cheng_yau_ratio(M, eig.u, ball_r)
    vol_ratio = outer.volume() / ball_r.volume()
    C2 = 48.0 * m * k**2 * cutoff.c_ctf * 2.0**k * vol_ratio
    C = C2 * (1.0 + c_cy)
    sup_u = region_sup(np.abs(eig.u), outer.members)

    w = M.node_weights()
    dom = ball_r.members & mask
    excluded = float(w[ball_r.members & ~mask].sum() / w[ball_r.members].sum())
    wsum = float(w[dom].sum())
    speed = np.nan_to_num(field.speed_sq)
    lhs = r * float(np.sqrt((w[dom] * speed[dom]).sum() / wsum))
    dens_w = speed * np.nan_to_num(field.stats.absdet)
    lhs_weighted = r * float(np.sqrt((w[dom] * dens_w[dom]).sum() / wsum))
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
# change-integral bound along one flow time
# ---------------------------------------------------------------------------


def change_integral_check(
    field: TangentialField,
    mask: np.ndarray,
    ball_r: GeodesicBall,
    K: float,
    C0: float,
    eps_hat: float,
    dt_factor: float = 1e-2,
) -> EstimateReport:
    """Flow the regular ensemble for ``t = sqrt(eps) r^2 / K`` and bound the
    change of ``int u |J_k|`` by ``4 k (1 + C0)^k |B(p,r)| K eps``."""
    M = field.manifold
    r = ball_r.radius
    k = field.phi.k
    t_flow = float(np.sqrt(max(eps_hat, 1e-16)) * r**2 / max(K, 1e-300))
    from .flow import default_stability_rate

    rate = default_stability_rate(field)
    dt = min(t_flow / 8.0, (0.1 / rate) if rate > 0 else t_flow / 8.0, dt_factor * t_flow)
    dom = ball_r.members & mask
    w = M.node_weights()
    starts = M.positions()[dom].reshape(-1, M.dim)
    u0 = field.u[dom]
    j0 = np.nan_to_num(field.stats.absdet)[dom]
    before = float((w[dom] * u0 * j0).sum())
    final = integrate_flow_ensemble(field, starts, t_flow, dt)
    wrapped = M.grid.wrap(final)
    u1 = interp_scalar(M, field.u, wrapped)
    j1 = interp_scalar(M, np.nan_to_num(field.stats.absdet), wrapped)
    after = float((w[dom] * u1 * j1).sum())
    lhs = abs(after - before)
    rhs = 4.0 * k * (1.0 + C0) ** k * ball_r.volume() * K * eps_hat
    return EstimateReport(
        name="change-integral-flow",
        lhs=float(lhs),
        rhs=float(rhs),
        constants={
            "C0": (C0, "measured"),
            "K": (K, "measured (u W22 bound)"),
            "ballVolume": (ball_r.volume(), "measured"),
            "epsilonHat": (eps_hat, "measured"),
            "flowTime": (t_flow, "formula sqrt(eps) r^2 / K"),
            "k": (k, "input"),
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

    def csv_row(self) -> str:
        return ",".join(
            [
                f"{self.epsilon:.17g}",
                f"{self.epsilon_hat:.17g}",
                f"{self.psi:.17g}",
                f"{self.theta:.17g}",
                f"{self.K:.17g}",
                f"{self.lhs:.17g}",
                f"{self.rhs:.17g}",
                f"{self.margin:.17g}" if np.isfinite(self.margin) else "inf",
                "1" if self.passed else "0",
            ]
        )


SWEEP_CSV_HEADER = "epsilon,epsilonHat,psi,theta,K,lhs,rhs,margin,pass"

# rows with lhs below this fraction of rhs carry no scaling information
DEGENERATE_LHS_FRACTION = 1e-8

# fiber levels traced per eigenpair for the fiberwise a priori check
FIBER_LEVELS = 5


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    reports: tuple[EstimateReport, ...]
    exponent: float | None      # log-log slope of lhs vs eps_hat (None when degenerate)
    ratio_spread: float | None  # max/min of per-row ratio over non-degenerate rows
    degenerate: bool            # too few informative rows for scaling statements
    all_passed: bool

    def to_csv(self, path: str | Path) -> None:
        lines = [SWEEP_CSV_HEADER] + [row.csv_row() for row in self.rows]
        Path(path).write_text("\n".join(lines) + "\n")


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
    pairs: list[EigenPair] | None = None,
):
    """Full pipeline at one collapse parameter; returns the per-point bundle."""
    from .manifold import FamilySpec

    resolution = resolution_rule(kind, epsilon)
    M = build_family(FamilySpec(kind=kind, epsilon=epsilon, delta=delta, twist=twist, resolution=resolution))
    phi = harmonic_coordinates(M)
    stats = jacobian_stats(phi)
    mask = classify_regular(stats, max(lambda_threshold_rel * float(np.nanmedian(stats.Lam)), 1e-300))
    p = _nearest_node(M, ball_center)
    ball = geodesic_ball(M, p, r)
    ball2 = ball.concentric(2 * r)
    eps_hat = epsilon_proxy(M, ball, phi)
    cert = certify(phi, ball, epsilon_hat=eps_hat)
    if pairs is None:
        pairs = eigenpairs(M, eig_count, theta_max=theta_max, seed=seed)
    cutoff = build_cutoff(ball, ball2, eps_hat)
    lam_ric = ricci_lower_bound(M)
    C0 = phi_c0_bound(phi, np.ones_like(mask.regular), r)
    return {
        "manifold": M,
        "phi": phi,
        "stats": stats,
        "mask": mask,
        "ball": ball,
        "ball2": ball2,
        "eps_hat": eps_hat,
        "cert": cert,
        "pairs": pairs,
        "cutoff": cutoff,
        "lambda_ric": lam_ric,
        "C0": C0,
    }


def _nearest_node(M: DiscreteManifold, chart_point) -> tuple[int, ...]:
    grid = M.grid
    h = np.asarray(grid.spacings)
    ij = np.round(np.asarray(chart_point, dtype=float) / h).astype(int) % np.asarray(grid.shape)
    return tuple(int(i) for i in ij)


def default_ball_center(kind: str) -> tuple[float, ...]:
    """Working-ball center: the thinnest fibers (best GH approximation) on warps."""
    if kind == "warped-torus":
        return (0.75, 0.0)
    if kind == "twisted-3-torus":
        return (0.25, 0.25, 0.0)
    return (0.25, 0.0)


def default_resolution_rule(nodes_per_unit: int = 128, min_fiber_nodes: int = 16):
    """Nodes per axis: metric period length times density, floored per axis."""

    def rule(kind: str, epsilon: float) -> tuple[int, ...]:
        if kind == "twisted-3-torus":
            base = max(min_fiber_nodes, nodes_per_unit // 4)
            return (base, base, max(min_fiber_nodes, int(round(nodes_per_unit * epsilon))))
        fiber = max(min_fiber_nodes, int(round(nodes_per_unit * epsilon)))
        return (nodes_per_unit, fiber)

    return rule


def point_reports(point: dict, r: float) -> tuple[list[SweepRow], list[EstimateReport]]:
    """Sweep rows and estimate reports of every eigenpair of a ``run_point`` bundle."""
    rows, reports = [], []
    for pair in point["pairs"]:
        row, mode_reports = _mode_reports(point, pair, r)
        rows.append(row)
        reports.extend(mode_reports)
    return rows, reports


def _sweep_point_task(task: dict) -> tuple[list, list]:
    """One sweep point from ``run_point``'s arguments, the resolution rule given by its two numbers."""
    kwargs = dict(task)
    rule = default_resolution_rule(kwargs.pop("nodes_per_unit"), kwargs.pop("min_fiber_nodes"))
    return point_reports(run_point(resolution_rule=rule, **kwargs), task["r"])


def sweep(
    kind: str,
    epsilons,
    theta_max: float,
    r: float,
    delta: float = 0.0,
    twist: float = 0.0,
    ball_center: tuple[float, ...] | None = None,
    eig_count: int = 8,
    seed: int = 0,
    nodes_per_unit: int = 128,
    min_fiber_nodes: int = 16,
    lambda_threshold_rel: float = 1e-6,
    jobs: int = 1,
) -> SweepResult:
    """Full pipeline per collapse parameter; scaling statistics on the rows.

    Rows whose LHS sits below the degeneracy floor (1e-8 of the RHS) carry no
    scaling information: they are flagged and excluded from the log-log fit
    and the bounded-ratio spread.  With fewer than two informative rows the
    sweep is marked degenerate and the scaling checks pass vacuously.

    Each point resolves its grid with ``default_resolution_rule(nodes_per_unit,
    min_fiber_nodes)``.  ``jobs > 1`` runs the sweep points in separate
    processes; results merge in epsilon order either way, so outputs are
    deterministic.
    """
    epsilons = sorted(float(e) for e in epsilons)
    if len(epsilons) < 3:
        raise ValueError(f"sweep needs at least 3 epsilon values, got {len(epsilons)}")
    if ball_center is None:
        ball_center = default_ball_center(kind)
    tasks = [
        dict(kind=kind, epsilon=eps, delta=delta, twist=twist, ball_center=tuple(ball_center), r=r,
             theta_max=theta_max, eig_count=eig_count, seed=seed, nodes_per_unit=nodes_per_unit,
             min_fiber_nodes=min_fiber_nodes, lambda_threshold_rel=lambda_threshold_rel)
        for eps in epsilons
    ]
    rows: list[SweepRow] = []
    reports: list[EstimateReport] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point_task, tasks))
    else:
        results = [_sweep_point_task(task) for task in tasks]
    for point_rows, point_reports in results:
        rows.extend(point_rows)
        reports.extend(point_reports)
    informative = [row for row in rows if not row.degenerate]
    all_passed = all(row.passed for row in rows) and all(rep.passed for rep in reports)
    if len(informative) >= 2:
        ratios = [row.ratio for row in informative]
        ratio_spread = max(ratios) / min(ratios)
        degenerate = False
    else:
        ratio_spread = None
        degenerate = True
    exponent = None
    by_eps: dict[float, float] = {}
    for row in informative:
        by_eps[row.epsilon_hat] = max(by_eps.get(row.epsilon_hat, 0.0), row.lhs)
    if len(by_eps) >= 3:
        xs = np.log(np.array(sorted(by_eps)))
        ys = np.log(np.array([by_eps[x] for x in sorted(by_eps)]))
        exponent = float(np.polyfit(xs, ys, 1)[0])
    return SweepResult(
        rows=tuple(rows),
        reports=tuple(reports),
        exponent=exponent,
        ratio_spread=ratio_spread,
        degenerate=degenerate,
        all_passed=all_passed,
    )


def _mode_reports(point: dict, pair: EigenPair, r: float):
    M = point["manifold"]
    phi = point["phi"]
    stats = point["stats"]
    mask = point["mask"]
    ball = point["ball"]
    ball2 = point["ball2"]
    cert: Certificate = point["cert"]
    cutoff: CutoffFunction = point["cutoff"]
    field = tangential_projection(M, pair.u, phi, stats, mask)
    K_w22 = w22_k_bound(M, pair.u, ball2.members, r)
    rep_h = hessian_l2_bound(M, pair.u, ball, ball2, cutoff, point["lambda_ric"])
    rep_i = interior_l2_report(field, mask.regular, ball, K_w22, point["C0"], point["eps_hat"])
    rep_m = main_theorem_report(pair, field, mask.regular, ball, cert, cutoff)
    tag = {"epsilon": M.family.epsilon, "theta": pair.theta}
    reports = [
        dataclasses.replace(rep, extras={**rep.extras, **tag}) for rep in (rep_h, rep_i, rep_m)
    ]
    apriori_pass = True
    if pair.theta > 0:
        from .flow import fiber_apriori_check

        anchor = phi.evaluate(ball.center_position()[None, :])[0]
        lo, hi = phi.branch_range(ball.members, anchor)
        # k-component levels on the diagonal of the ball's value box; the
        # fibers are judged by the configured mask, as the fields are
        off_mask = np.where(field.mask, 0.0, np.nan)   # interpolates to NaN where a stencil leaves the mask
        for lv in np.linspace(lo, hi, FIBER_LEVELS + 2)[1:-1]:
            trace = extract_fiber(phi, lv, lambda_threshold=mask.threshold)
            touched = interp_scalar(M, off_mask, M.grid.wrap(trace.points))
            if not trace.regular or not np.isfinite(touched).all():
                continue
            rep_f = fiber_apriori_check(trace, field, point["eps_hat"], r)
            apriori_pass &= rep_f.passed
    sup_u = region_sup(np.abs(pair.u), ball2.members)
    denom = sup_u * (np.sqrt(cert.epsilon_hat) + cert.psi)
    ratio = rep_m.lhs / denom if denom > 0 else np.inf
    degenerate = rep_m.lhs <= DEGENERATE_LHS_FRACTION * rep_m.rhs
    row = SweepRow(
        epsilon=M.family.epsilon,
        epsilon_hat=point["eps_hat"],
        psi=cert.psi,
        theta=pair.theta,
        K=c1_sup_bound(M, pair.u, ball2.members, r),
        lhs=rep_m.lhs,
        rhs=rep_m.rhs,
        margin=rep_m.margin,
        passed=rep_m.passed and rep_h.passed and rep_i.passed and apriori_pass,
        degenerate=bool(degenerate),
        ratio=float(ratio),
    )
    return row, reports


def reports_to_json(reports, path: str | Path) -> None:
    payload = [rep.to_json_dict() for rep in reports]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
