"""Tangential gradient projection and fiber-constrained flow dynamics.

The integral curves of the tangential gradient stay inside one fiber of the
splitting map.  Discrete integration steps one point in Python floats through
a stencil probe of the node fields and projects a step back onto the level set
by Newton whenever its level residual exceeds the tolerance (project after
each step: Hairer, Lubich and Wanner, Geometric Numerical Integration,
§IV.4).  The module also measures the fiberwise a priori constants (lambda,
Lambda, C0, K), checks the a priori sup bound with all constants measured
from the discrete fields, and turns them into the rate of the exponential
lower bound that gates the flow's step size (``flow_rate_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manifold import DiscreteManifold, FiberTrace, _cached, graph_distances
from .operators import (
    gradient,
    hessian,
    hessian_norm,
    interp_scalar,
    metric_inner,
    norm_sq,
    region_sup,
    stencil_probe,
)
from .splitting import LEVEL_TOL, RegularMask, SplittingMap, _max_abs

__all__ = [
    "TangentialField",
    "FlowTrajectory",
    "FiberBoundReport",
    "tangential_part",
    "tangential_projection",
    "integrate_flow",
    "flow_rate_bound",
    "fiber_neighborhood",
    "fiber_apriori_check",
]


@dataclass(frozen=True)
class TangentialField:
    """The fiber-tangential part of grad u on the regular mask's nodes (the
    normal part is ``grad_u - grad_t``), with the map it splits against; the
    map's Jacobian fields (|J_k| and the rest) are read from ``phi``.

    It is also where the checks of one function read the derived fields of
    u, each built once on first use and cached: ``grad_sq`` and ``grad_norm``
    (|grad u|^2 and |grad u|, for the report pass's K, Cheng-Yau ratio and
    cutoff terms and the fiber checks' K), ``hessian_u_norm`` (for the W22 K,
    the Hessian bound and the fiber checks), and the K field of
    ``fiber_apriori_check``, shared by every fiber checked.  The map's own
    fiber facts come with each ``FiberTrace``.
    """

    manifold: DiscreteManifold
    u: np.ndarray
    phi: SplittingMap
    mask: np.ndarray            # the regular mask's nodes, where the split is defined
    grad_u: np.ndarray
    grad_t: np.ndarray          # NaN on singular nodes
    speed_sq: np.ndarray        # |grad^T u|^2, NaN on singular nodes
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def grad_sq(self) -> np.ndarray:
        return _cached(self, "grad_sq", lambda: norm_sq(self.manifold, self.grad_u))

    def grad_norm(self) -> np.ndarray:
        return _cached(self, "grad_norm", lambda: np.sqrt(self.grad_sq()))

    def hessian_u_norm(self) -> np.ndarray:
        return _cached(self, "hess_u_norm", lambda: hessian_norm(self.manifold, hessian(self.manifold, self.u)))


def tangential_part(phi: SplittingMap, mask: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The fiber-tangential part ``X - X_perp`` of a vector field on the nodes
    of ``mask`` (NaN elsewhere), where every Gram eigenvalue is positive.

    ``X_perp``, the grad-Phi-span part, is assembled in the pointwise
    eigenbasis of the Gram matrix: ``sum_a <X, phi_a> / lambda_a * grad phi_a``.
    """
    M, eigs, V = phi.manifold, *phi.eigh()
    m, k = M.dim, phi.k
    idx = np.flatnonzero(mask.ravel())
    eigs = eigs.reshape(-1, k)[idx]
    V = V.reshape(-1, k, k)[idx]
    grads = np.stack([g.reshape(-1, m) for g in phi.gradients()], axis=1)[idx]   # (N, k, m)
    rot_grads = np.einsum("nba,nbm->nam", V, grads)
    g = M.metric.reshape(-1, m, m)[idx]
    Xn = X.reshape(-1, m)[idx]
    inner = np.einsum("ni,nij,naj->na", Xn, g, rot_grads)
    out_t = np.full((M.grid.n_nodes, m), np.nan)
    out_t[idx] = Xn - np.einsum("na,nam->nm", inner / eigs, rot_grads)
    return out_t.reshape(M.grid.shape + (m,))


def tangential_projection(u: np.ndarray, mask: RegularMask) -> TangentialField:
    """The tangential part of grad u on the nodes of ``mask``, a ``RegularMask`` of the map ``mask.phi``."""
    M = mask.phi.manifold
    grad_u = gradient(M, u)
    grad_t = tangential_part(mask.phi, mask.regular, grad_u)
    speed_sq = metric_inner(M, np.where(np.isnan(grad_t), 0.0, grad_t), grad_t)
    speed_sq = np.where(np.isnan(grad_t[..., 0]), np.nan, speed_sq)
    return TangentialField(manifold=M, u=np.asarray(u, dtype=float), phi=mask.phi, mask=mask.regular,
                           grad_u=grad_u, grad_t=grad_t, speed_sq=speed_sq)


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled integral curve of the tangential gradient inside one fiber."""

    level: np.ndarray
    times: np.ndarray
    positions: np.ndarray      # (n, m) wrapped chart coordinates
    u_values: np.ndarray
    speed_sq: np.ndarray
    drift: np.ndarray          # max |Phi(gamma) - level| per sample


def integrate_flow(
    field: TangentialField,
    x0: tuple[int, ...],
    T: float,
    dt: float,
    stability_rate: float,
) -> FlowTrajectory:
    """RK4 integration of ``gamma' = grad^T u`` with Newton reprojection.

    The step size must resolve the field's exponential rate:
    ``dt * stability_rate <= 0.1`` (``flow_rate_bound`` gives the rate).
    The state is one point in Python floats, and every velocity comes from
    one ``stencil_probe`` of the stacked node field
    ``[grad_t, psi_1..psi_k]``, which also gives the periodic map parts for
    the level residual ``x . w + psi - Phi(x0)``.  A step whose residual
    exceeds ``LEVEL_TOL`` is reprojected onto the level set by
    ``SplittingMap.project_to_level``; a step within it costs four probes:
    three stage velocities, and one at the new point that gives its residual,
    its drift and the next step's first stage.  If reprojection fails, or a
    stage velocity is not finite, a RuntimeError names the time it happened.
    """
    M = field.manifold
    m = M.dim
    phi = field.phi
    if not field.mask[x0]:
        raise ValueError(f"start node {x0} is not regular")
    if dt * stability_rate > 0.1 * (1 + 1e-9):
        raise ValueError(
            f"step size violation: dt * rate = {dt * stability_rate:.3g} > 0.1; "
            f"reduce dt below {0.1 / stability_rate:.3g}"
        )
    n_steps = int(np.ceil(T / dt - 1e-12))
    pos = M.positions()[x0].astype(float)
    level = phi.node_value(x0)
    probe = _cached(field, "velocity_probe", lambda: stencil_probe(
        M, np.concatenate([field.grad_t, phi._stacked("psi")], axis=-1)))
    periods = [float(p) for p in M.grid.periods]
    level_f = level.tolist()

    x = pos.tolist()
    times = [0.0]
    path = [[xi % p for xi, p in zip(x, periods)]]
    drifts = [0.0]
    t_now = 0.0

    def finite(v):
        if not all(map(math.isfinite, v)):
            raise RuntimeError(f"flow left the regular region at t = {t_now:.6g}")
        return v

    def stage(pts):
        return finite(probe(pts)[0][:m])

    half, sixth = 0.5 * dt, dt / 6.0
    vals = probe(x)[0]
    for i in range(n_steps):
        t_now = i * dt
        k1 = finite(vals[:m])
        k2 = stage([a + half * b for a, b in zip(x, k1)])
        k3 = stage([a + half * b for a, b in zip(x, k2)])
        k4 = stage([a + dt * b for a, b in zip(x, k3)])
        x = [a + sixth * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        vals = probe(x)[0]
        res = phi._point_residual(x, vals[m:], level_f)
        if not _max_abs(res) <= LEVEL_TOL:    # NaN fails too
            try:
                proj = phi.project_to_level(x, level_f)
            except RuntimeError as exc:
                raise RuntimeError(f"reprojection failed at t = {(i + 1) * dt:.6g}: {exc}") from exc
            x, res = proj.point, proj.residual
            vals = probe(x)[0]
        times.append((i + 1) * dt)
        path.append([xi % p for xi, p in zip(x, periods)])
        drifts.append(_max_abs(res))
    return _assemble_trajectory(field, level, times, path, drifts)


def _assemble_trajectory(field, level, times, path, drifts) -> FlowTrajectory:
    M = field.manifold
    pts = np.asarray(path)
    speed_sq = np.where(np.isnan(field.speed_sq), 0.0, field.speed_sq)
    u_vals, w_vals = interp_scalar(M, np.stack([field.u, speed_sq], axis=-1), pts).T
    return FlowTrajectory(
        level=np.asarray(level, dtype=float),
        times=np.asarray(times),
        positions=pts,
        u_values=u_vals,
        speed_sq=w_vals,
        drift=np.asarray(drifts),
    )


# ---------------------------------------------------------------------------
# fiberwise bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberBoundReport:
    """Measured a priori constants and the sup bound on one regular fiber."""

    level: np.ndarray
    lam: float                 # inf of least Jacobian eigenvalue on the fiber
    Lam: float                 # sup of largest Jacobian eigenvalue
    c0: float                  # max_b sup_fiber r^2 |Hess_Phi^b|^2
    K: float                   # sup over the 2 eps r neighborhood of r|grad u| + r^2|Hess u|
    delta0: float              # sup_fiber |grad^T u|
    eps_hat: float
    r: float
    k: int
    lhs: float                 # r * delta0
    rhs: float                 # 2 (1 + lam^-1 sqrt(Lam k) c0)^(1/2) K sqrt(eps_hat)
    passed: bool
    margin: float              # rhs / lhs (inf when lhs = 0)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "lambda": self.lam,
            "Lambda": self.Lam,
            "C0": self.c0,
            "K": self.K,
            "delta0": self.delta0,
            "epsilonHat": self.eps_hat,
            "r": self.r,
            "k": self.k,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": bool(self.passed),
            "margin": self.margin,
            "counterexample": not self.passed,   # the time-bound contradiction flag
        }


def flow_rate_bound(report: FiberBoundReport) -> float:
    """Exponential rate C = 2 (1 + lam^-1 sqrt(Lam k) C0) K / r^2 of the decay bound."""
    return 2.0 * (1.0 + np.sqrt(report.Lam * report.k) * report.c0 / report.lam) * report.K / report.r**2


def fiber_neighborhood(M: DiscreteManifold, fiber: FiberTrace, radius: float) -> np.ndarray:
    """Nodes within graph distance ``radius`` of a fiber: multi-source Dijkstra
    from the nodes nearest its samples, as a grid-shaped boolean mask.

    The search is capped just above ``radius``: distances under the cap are
    exact, so the mask is the one an uncapped search gives, without the
    distances to the rest of the chart.
    """
    grid = M.grid
    reach = radius + 1e-12
    ij = np.round(grid.wrap(fiber.points) / np.asarray(grid.spacings)).astype(int) % np.asarray(grid.shape)
    dist = graph_distances(M, np.unique(np.ravel_multi_index(tuple(ij.T), grid.shape)), limit=1.001 * reach)
    return dist.reshape(grid.shape) <= reach


def fiber_apriori_check(fiber: FiberTrace, field: TangentialField, eps_hat: float, r: float) -> FiberBoundReport:
    """Measure the fiberwise a priori bound ``r sup|grad^T u| <= RHS``.

    All constants come from the discrete fields: the Jacobian eigenvalue
    range and Hessian sups the trace carries, |grad^T u| (NaN off the field's
    mask) gathered at the fiber samples, and K on the fiber's
    ``fiber_neighborhood`` of radius ``2 eps r``, cached on the trace, so
    every field checked on one fiber shares one Dijkstra.
    """
    M = field.manifold
    if not fiber.regular:
        raise ValueError("fiber is not regular; a priori constants are undefined")
    lam, Lam = fiber.min_lambda, fiber.max_Lambda     # lam > the mask's threshold >= 1e-300
    c0 = max([0.0, *(hess_sq * r**2 for hess_sq in fiber.hessian_sq_sup)])   # the builtin max skips a NaN
    speed_sq = interp_scalar(M, field.speed_sq, M.grid.wrap(fiber.points))
    gn, hn_u = field.grad_norm(), field.hessian_u_norm()
    radius = 2.0 * eps_hat * r
    neighborhood = _cached(fiber, ("neighborhood", radius), lambda: fiber_neighborhood(M, fiber, radius))
    K = region_sup(_cached(field, ("apriori_K", r), lambda: r * gn + r**2 * hn_u), neighborhood)
    speed = np.sqrt(np.maximum(speed_sq, 0.0))
    if not np.all(np.isfinite(speed)):
        raise ValueError("fiber neighborhood exits the regular region of the tangential field")
    delta0 = float(np.max(speed))
    k = field.phi.k
    rhs = 2.0 * np.sqrt(1.0 + np.sqrt(Lam * k) * c0 / lam) * K * np.sqrt(eps_hat)
    lhs = r * delta0
    passed = bool(lhs <= rhs)
    margin = float(rhs / lhs) if lhs > 0 else np.inf
    return FiberBoundReport(
        level=fiber.level,
        lam=lam,
        Lam=Lam,
        c0=c0,
        K=float(K),
        delta0=delta0,
        eps_hat=float(eps_hat),
        r=float(r),
        k=k,
        lhs=float(lhs),
        rhs=float(rhs),
        passed=passed,
        margin=margin,
    )
