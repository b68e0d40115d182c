"""Harmonic almost-splitting maps and their Jacobian analytics.

A :class:`SplittingMap` bundles k circle-valued components, each a node
array of finite values and a nonzero winding vector: the component winds
once around a base axis, so every level has a fiber.  Maps come from one
construction, the global degree-one harmonic coordinates of a periodic
family (the discrete analogue of the coordinate projection; exact on flat
families), and the map refuses any other input.

The map owns its pointwise Jacobian analytics: the Gram matrix J of the
component gradients (``gram``), its ascending eigenvalues, whose first and
last are lambda and Lambda, with its eigenframes (``eigh``), and the density
|J_k| = sqrt(det J) from the nonnegative eigenvalues (``absdet``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manifold import DiscreteManifold, GeodesicBall, _cached, _read_only
from .operators import (
    _dot,
    factorize,
    gradient,
    hessian,
    hessian_norm,
    interp_scalar,
    laplacian_matrix,
    metric_inner,
    norm_sq,
    pinned_stiffness_solve,
    region_average,
    region_sup,
    stencil_probe,
    stiffness_apply,
)

__all__ = [
    "SplittingMap",
    "LevelProjection",
    "Certificate",
    "RegularMask",
    "harmonic_coordinates",
    "certify",
    "classify_regular",
]

# absolute tolerance on each component of a level residual after Newton reprojection
LEVEL_TOL = 1e-10
# Newton steps project_to_level takes before it gives up
NEWTON_MAX_ITER = 5


@dataclass(frozen=True)
class SplittingMap:
    """k harmonic component fields with winding-aware evaluation (finite node
    values and a nonzero winding per component, or a ValueError) and every
    node field derived from them, each computed once and cached on the map."""

    manifold: DiscreteManifold
    values: tuple[np.ndarray, ...]         # principal values at nodes, one per component
    windings: tuple[np.ndarray, ...]       # (m,) float winding vectors
    residuals: tuple[float, ...] = ()
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("a splitting map needs at least one component (k = 0 rejected)")
        object.__setattr__(self, "values", tuple(_read_only(np.asarray(v, dtype=float)) for v in self.values))
        object.__setattr__(self, "windings", tuple(_read_only(np.asarray(w, dtype=float)) for w in self.windings))
        if not all(np.any(w != 0) for w in self.windings):
            raise ValueError("every component of a splitting map needs a nonzero winding vector")
        if not all(np.isfinite(v).all() for v in self.values):
            raise ValueError("a splitting map needs finite values at every node")

    @property
    def k(self) -> int:
        return len(self.values)

    def values_stack(self) -> np.ndarray:
        """The component values side by side, ``(*shape, k)``; cached, read-only."""
        return _cached(self, "values_stack", lambda: _read_only(np.stack(self.values, axis=-1)))

    # -- derived fields (cached) -------------------------------------------

    def gradients(self) -> list[np.ndarray]:
        """Contravariant gradients per component."""
        M = self.manifold
        return _cached(self, "gradients", lambda: [gradient(M, v, w) for v, w in zip(self.values, self.windings)])

    def hessians(self) -> list[np.ndarray]:
        M = self.manifold
        return _cached(self, "hessians", lambda: [hessian(M, v, w) for v, w in zip(self.values, self.windings)])

    def hessian_norms(self) -> list[np.ndarray]:
        M = self.manifold
        return _cached(self, "hessian_norms", lambda: [hessian_norm(M, H) for H in self.hessians()])

    def gram(self) -> np.ndarray:
        """The Gram matrix ``J_ab = <grad Phi^a, grad Phi^b>`` per node, ``(*shape, k, k)``."""
        def build():
            grads, k = self.gradients(), self.k
            J = np.zeros(grads[0].shape[:-1] + (k, k))
            for a in range(k):
                for b in range(a, k):
                    J[..., a, b] = J[..., b, a] = metric_inner(self.manifold, grads[a], grads[b])
            return _read_only(J)

        return _cached(self, "gram", build)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``(eigs, frames)``: J's ascending eigenvalues ``(*shape, k)`` and
        eigenvectors, ``J = V diag(eigs) V^T``."""
        return _cached(self, "eigh", lambda: tuple(map(_read_only, np.linalg.eigh(self.gram()))))

    def absdet(self) -> np.ndarray:
        """The Jacobian density ``|J_k| = sqrt(det J)`` from the nonnegative eigenvalues."""
        return _cached(self, "absdet", lambda: _read_only(np.sqrt(np.prod(np.maximum(self.eigh()[0], 0.0), axis=-1))))

    def periodic_parts(self) -> list[np.ndarray]:
        pos = self.manifold.positions()
        return _cached(self, "periodic_parts", lambda: [v - pos @ w for v, w in zip(self.values, self.windings)])

    # -- pointwise evaluation off the lattice --------------------------------

    def _stacked(self, name: str) -> np.ndarray:
        """Cached node fields that are interpolated together: ``psi`` the
        periodic parts ``(*shape, k)``, ``newton`` the periodic parts and the
        metric inverse flattened side by side: all one Newton iteration reads."""
        M = self.manifold
        psi = _cached(self, "stacked_psi", lambda: np.stack(self.periodic_parts(), axis=-1))
        if name == "psi":
            return psi
        ginv = M.metric_inverse().reshape(M.grid.shape + (-1,))
        return _cached(self, "stacked_newton", lambda: np.concatenate([psi, ginv], axis=-1))

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Map values at chart points (N, m) -> (N, k), continuous in pts."""
        M = self.manifold
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._values_at(pts, interp_scalar(M, self._stacked("psi"), M.grid.wrap(pts)))

    def _values_at(self, pts: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """``evaluate`` at chart points ``(N, m)`` from the periodic parts ``psi`` interpolated there."""
        return np.stack([pts @ w + psi[:, a] for a, w in enumerate(self.windings)], axis=-1)

    def node_value(self, node) -> np.ndarray:
        """``evaluate`` at a grid node's position (a tuple); cached per node, read-only."""
        pos = self.manifold.positions()[node]
        return _cached(self, ("node_value", node), lambda: _read_only(self.evaluate(pos)[0]))

    def value_box(self, ball: GeodesicBall) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(anchor, lo, hi)``: the value at the ball's center node and the
        ``branch_range`` of the ball's nodes around it; cached per ball."""
        anchor = self.node_value(ball.center)
        return _cached(self, ("value_box", ball.center, ball.radius),
                       lambda: (anchor, *map(_read_only, self.branch_range(ball.members, anchor))))

    def in_value_box(self, ball: GeodesicBall) -> np.ndarray:
        """Nodes whose value, on the branch around the anchor, lies in
        ``value_box(ball)``; cached per ball, read-only."""
        anchor, lo, hi = self.value_box(ball)

        def build():
            dv = self.wrap_value_delta(self.values_stack() - anchor)
            return _read_only(np.all((dv >= (lo - anchor)) & (dv <= (hi - anchor)), axis=-1))

        return _cached(self, ("in_value_box", ball.center, ball.radius), build)

    def value_periods(self) -> np.ndarray:
        """Period of each component value around the chart, positive by the winding."""
        periods = np.asarray(self.manifold.grid.periods)
        return np.array([float(np.abs(w) @ periods) for w in self.windings])

    def wrap_value_delta(self, dv: np.ndarray) -> np.ndarray:
        """Per-component value difference wrapped to the nearest branch."""
        dv = np.array(dv, dtype=float, copy=True)
        for a, p in enumerate(self.value_periods()):
            dv[..., a] = (dv[..., a] + p / 2) % p - p / 2
        return dv

    def branch_range(self, mask: np.ndarray, anchor: np.ndarray):
        """Value range over masked nodes in the branch continuous around the anchor.

        Returns ``(lo, hi)`` per component; needed when the region straddles
        a component's chart seam.
        """
        dv = self.wrap_value_delta(self.values_stack()[mask].reshape(-1, self.k) - anchor)
        return anchor + dv.min(axis=0), anchor + dv.max(axis=0)

    def level_residual(self, pts: np.ndarray, level: np.ndarray) -> np.ndarray:
        """Phi(pts) - level, wrapped to the nearest branch."""
        return self.wrap_value_delta(self.evaluate(pts) - np.asarray(level, dtype=float))

    def _point_residual(self, x, psi, level) -> list[float]:
        """``level_residual`` at one chart point in Python floats: ``x . w +
        psi - level`` per component, from the periodic parts ``psi`` already
        interpolated at ``x``, wrapped to the nearest branch."""
        out = []
        for (w, p), psi_a, level_a in zip(self._branches(), psi, level):
            dv = _dot(x, w) + psi_a - level_a
            out.append((dv + p / 2) % p - p / 2)
        return out

    def _branches(self) -> list[tuple[list[float], float]]:
        """Winding vector and value period of each component, as floats."""
        return _cached(self, "branches", lambda: [
            (w.tolist(), float(p)) for w, p in zip(self.windings, self.value_periods())
        ])

    def project_to_level(self, point, level) -> "LevelProjection":
        """Newton reprojection of one chart point onto the level set, stepping
        in the grad-Phi span: ``x -= g^-1 J^T (J g^-1 J^T)^-1 res``.

        ``J`` is the exact chart Jacobian of the map's multilinear
        interpolant in the current cell (the winding vectors plus the cell
        derivative of the periodic parts), so the iteration converges
        quadratically to the level set that ``evaluate`` defines.  Each
        iteration reads values, Jacobian and g^-1 from one probe of the
        stacked ``newton`` field; the k x k inverse is closed-form.  A
        residual that misses ``LEVEL_TOL`` after ``NEWTON_MAX_ITER`` steps, or
        is NaN, raises ``RuntimeError``.
        """
        probe = _cached(self, "newton_probe", lambda: stencil_probe(self.manifold, self._stacked("newton"), self.k))
        k, m = self.k, self.manifold.dim
        x = np.ravel(np.asarray(point, dtype=float)).tolist()
        level = np.ravel(np.asarray(level, dtype=float)).tolist()
        for step in range(NEWTON_MAX_ITER + 1):
            vals, dpsi = probe(x)
            res = self._point_residual(x, vals[:k], level)
            jac = [[wi + di for wi, di in zip(w, d)] for (w, _), d in zip(self._branches(), dpsi)]
            worst = _max_abs(res)
            if worst <= LEVEL_TOL:
                return LevelProjection(x, res, step, jac)
            if step == NEWTON_MAX_ITER:
                break
            ginv = [vals[k + i * m:k + (i + 1) * m] for i in range(m)]
            jg = [[_dot(row, col) for col in ginv] for row in jac]     # J g^-1 (g^-1 symmetric)
            gram_inv = _inverse([[_dot(a, b) for b in jac] for a in jg])
            if gram_inv is None:                                       # singular Jacobian
                break
            lam = [_dot(row, res) for row in gram_inv]
            x = [xi - _dot(col, lam) for xi, col in zip(x, zip(*jg))]
        raise RuntimeError(f"Newton reprojection failed: residual {worst:.3e} > {LEVEL_TOL:.1e}")


def _max_abs(values: list[float]) -> float:
    """``max |v|`` that is NaN when any value is NaN, as ``np.max`` is; the
    builtin ``max`` skips a NaN that does not come first."""
    if any(v != v for v in values):
        return math.nan
    return max(abs(v) for v in values)


def _inverse(A: list[list[float]]) -> list[list[float]] | None:
    """Closed-form inverse of a 1x1 or 2x2 matrix (adjugate over the
    determinant); ``None`` when the determinant is exactly zero."""
    if len(A) == 1:
        det, adj = A[0][0], [[1.0]]
    else:
        (a, b), (c, d) = A
        det, adj = a * d - b * c, [[d, -b], [-c, a]]
    if det == 0:
        return None
    return [[v / det for v in row] for row in adj]


@dataclass(frozen=True)
class LevelProjection:
    """One point reprojected onto a level set, in Python floats."""

    point: list[float]            # m chart coordinates (unwrapped)
    residual: list[float]         # k components of level_residual at point
    newton_steps: int
    jacobian: list[list[float]]   # k x m chart Jacobian of the map at point


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def harmonic_coordinates(M: DiscreteManifold) -> SplittingMap:
    """Global degree-one harmonic coordinates on a closed periodic chart.

    Solves ``Delta (x_a + psi_a) = 0`` for a periodic correction psi_a with
    mean zero, one component per base axis ``a``; on flat families psi
    vanishes identically and the coordinate is returned exactly.  The axes
    that need a solve share one pinned stiffness factor
    (:func:`~collapselab.operators.pinned_stiffness_solve`), made on the first
    of them and dropped on return.  It is COLAMD on the stored structure
    (:func:`~collapselab.operators.factorize`), whose round-off the
    references pin.
    """
    grid = M.grid
    pos = M.positions()
    L, _ = laplacian_matrix(M)
    mass = M.node_weights().ravel()
    comps, winds, resid, pinned = [], [], [], None
    for ax in M.base_axes:
        w = np.zeros(grid.dim)
        w[ax] = 1.0
        coord = pos[..., ax]
        rhs = -stiffness_apply(M, coord, w).ravel()
        if np.max(np.abs(rhs)) < 1e-12 * np.max(np.abs(L.diagonal())):
            psi = np.zeros(grid.n_nodes)
        else:
            pinned = pinned or pinned_stiffness_solve(L, mass, factorize)
            psi = pinned(rhs)
        vals = coord + psi.reshape(grid.shape)
        res = (stiffness_apply(M, vals, w).ravel() / mass)
        r = float(np.sqrt((mass * res**2).sum() / mass.sum()))
        comps.append(vals)
        winds.append(w)
        resid.append(r)
    return SplittingMap(M, tuple(comps), tuple(winds), residuals=tuple(resid))


# ---------------------------------------------------------------------------
# regular set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularMask:
    """The regular set of a map: a point's chart stage, which every ball on
    the chart reads."""

    phi: SplittingMap
    regular: np.ndarray
    threshold: float
    singular_fraction: float
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def fiber_fields(self) -> np.ndarray:
        """The node fields a fiber trace reads, side by side for one gather
        (``manifold.extract_fiber``): the map's periodic parts (k), lambda,
        Lambda, 0 on the regular nodes and NaN off them, and each
        |Hess Phi^b| (k); cached."""
        def build():
            phi, eigs = self.phi, self.phi.eigh()[0]
            return np.concatenate([phi._stacked("psi"), np.stack(
                [eigs[..., 0], eigs[..., -1], np.where(self.regular, 0.0, np.nan), *phi.hessian_norms()], axis=-1)],
                axis=-1)

        return _cached(self, "fiber_fields", build)


def classify_regular(phi: SplittingMap, lambda_min_rel: float) -> RegularMask:
    """Nodes whose least Jacobian eigenvalue lies above the threshold
    ``lambda_min_rel`` times the median largest one (floored at 1e-300)."""
    if lambda_min_rel <= 0:
        raise ValueError("lambda_min_rel must be positive")
    eigs = phi.eigh()[0]
    threshold = max(lambda_min_rel * float(np.median(eigs[..., -1])), 1e-300)
    w = phi.manifold.node_weights()
    regular = eigs[..., 0] > threshold
    frac = float(w[~regular].sum() / w.sum())
    return RegularMask(phi=phi, regular=regular, threshold=threshold, singular_fraction=frac)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Measured splitting-quality certificate over B(p, 2r)."""

    sup_grad: float
    gram_dev: float
    hess_energy: float
    range_ok: bool
    psi: float
    epsilon_hat: float

    def to_json_dict(self) -> dict:
        return {
            "supGrad": self.sup_grad,
            "gramDev": self.gram_dev,
            "hessEnergy": self.hess_energy,
            "rangeOk": bool(self.range_ok),
            "psi": self.psi,
            "epsilonHat": self.epsilon_hat,
        }


def certify(phi: SplittingMap, ball: GeodesicBall, epsilon_hat: float) -> Certificate:
    """Measure the four splitting-map conclusions on B(p, 2r).

    sup-gradient of the components, L1-average Gram deviation from the
    identity, scaled Hessian energy, and the range-containment check; the
    smallness stand-in is ``psi = max(gramDev, sqrt(hessEnergy))``.
    ``epsilon_hat`` is the measured collapse scale the certificate carries.
    """
    M = phi.manifold
    r = ball.radius
    mask = ball.concentric(2 * r).members
    sup_grad, hess_energy = _gradient_hessian_sizes(phi, mask, r)
    gram, k = phi.gram(), phi.k
    gram_dev = 0.0
    for a in range(k):
        for b in range(k):
            dev = np.abs(gram[..., a, b] - (1.0 if a == b else 0.0))
            gram_dev = max(gram_dev, region_average(M, dev, mask))
    res = phi.level_residual(M.positions()[mask].reshape(-1, M.dim), phi.node_value(ball.center))
    range_ok = bool(np.all(np.linalg.norm(res, axis=-1) <= 2 * r + 1e-12))
    psi = max(gram_dev, float(np.sqrt(hess_energy)))
    return Certificate(
        sup_grad=float(sup_grad),
        gram_dev=float(gram_dev),
        hess_energy=float(hess_energy),
        range_ok=range_ok,
        psi=float(psi),
        epsilon_hat=float(epsilon_hat),
    )


def _gradient_hessian_sizes(phi: SplittingMap, region: np.ndarray, r: float) -> tuple[float, float]:
    """``max_a sup|grad Phi^a|`` and ``r^2 sum_b avg|Hess Phi^b|^2`` over a
    region: what the certificate and the C0 bound of the estimates read."""
    M = phi.manifold
    sup_grad = max(region_sup(np.sqrt(norm_sq(M, g)), region) for g in phi.gradients())
    hess = r**2 * sum(region_average(M, hn**2, region) for hn in phi.hessian_norms())
    return sup_grad, hess
