"""Harmonic almost-splitting maps and their Jacobian analytics.

A :class:`SplittingMap` bundles k scalar components, each a periodic node
array plus a winding vector (circle-valued coordinates wind once around a
base axis).  Maps come from two constructions: a Dirichlet solve on a
geodesic ball with prescribed boundary values, or the global degree-one
harmonic coordinates of a periodic family (the discrete analogue of the
coordinate projection; exact on flat families).

The pointwise analytics (Gram matrix J, its eigenvalue fields, the Jacobian
density |J_k| = sqrt(det J), and the multilinear quantities F and G) are all
assembled in the pointwise eigenbasis of J, so only nonnegative powers of the
small eigenvalues enter; a direct inverse-based evaluation exists in the test
suite as an oracle at well-conditioned points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .manifold import DiscreteManifold, GeodesicBall
from .operators import (
    _dot,
    factorize,
    gradient,
    hessian,
    hessian_norm,
    interp_scalar,
    laplacian_matrix,
    metric_inner,
    region_average,
    region_sup,
    stencil_probe,
    stiffness_apply,
)

__all__ = [
    "SplittingMap",
    "LevelProjection",
    "JacobianStats",
    "Certificate",
    "RegularMask",
    "solve_harmonic",
    "harmonic_coordinates",
    "coordinate_boundary_data",
    "jacobian_stats",
    "certify",
    "classify_regular",
    "morse_test_map",
]

# absolute tolerance on each component of a level residual after Newton reprojection
LEVEL_TOL = 1e-10


@dataclass(frozen=True)
class SplittingMap:
    """k harmonic component fields with winding-aware evaluation."""

    manifold: DiscreteManifold
    values: tuple[np.ndarray, ...]         # principal values at nodes, one per component
    windings: tuple[np.ndarray, ...]       # (m,) float winding vectors
    domain: GeodesicBall | None = None     # None: whole chart
    residuals: tuple[float, ...] = ()
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("a splitting map needs at least one component (k = 0 rejected)")
        vals = []
        for v in self.values:
            v = np.asarray(v, dtype=float)
            v.setflags(write=False)
            vals.append(v)
        winds = []
        for w in self.windings:
            w = np.asarray(w, dtype=float)
            w.setflags(write=False)
            winds.append(w)
        object.__setattr__(self, "values", tuple(vals))
        object.__setattr__(self, "windings", tuple(winds))

    @property
    def k(self) -> int:
        return len(self.values)

    def component_arrays(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        return self.values[a], self.windings[a]

    def values_stack(self) -> np.ndarray:
        return np.stack(self.values, axis=-1)

    def domain_mask(self) -> np.ndarray:
        if self.domain is not None:
            return self.domain.members
        return np.ones(self.manifold.grid.shape, dtype=bool)

    # -- derived fields (cached) -------------------------------------------

    def gradients(self) -> list[np.ndarray]:
        """Contravariant gradients per component."""
        if "gradients" not in self._cache:
            self._cache["gradients"] = [
                gradient(self.manifold, v, w) for v, w in zip(self.values, self.windings)
            ]
        return self._cache["gradients"]

    def hessians(self) -> list[np.ndarray]:
        if "hessians" not in self._cache:
            self._cache["hessians"] = [
                hessian(self.manifold, v, w) for v, w in zip(self.values, self.windings)
            ]
        return self._cache["hessians"]

    def hessian_norms(self) -> list[np.ndarray]:
        if "hessian_norms" not in self._cache:
            self._cache["hessian_norms"] = [hessian_norm(self.manifold, H) for H in self.hessians()]
        return self._cache["hessian_norms"]

    def periodic_parts(self) -> list[np.ndarray]:
        if "periodic_parts" not in self._cache:
            pos = self.manifold.positions()
            self._cache["periodic_parts"] = [
                v - pos @ w for v, w in zip(self.values, self.windings)
            ]
        return self._cache["periodic_parts"]

    # -- pointwise evaluation off the lattice --------------------------------

    def _stacked(self, name: str) -> np.ndarray:
        """Cached node fields that are interpolated together: ``psi`` the
        periodic parts ``(*shape, k)``, ``newton`` the periodic parts and the
        metric flattened side by side: all that one Newton iteration reads."""
        key = f"stacked_{name}"
        if key not in self._cache:
            M = self.manifold
            psi = np.stack(self.periodic_parts(), axis=-1)
            if name == "psi":
                field = psi
            else:
                field = np.concatenate([psi, M.metric.reshape(M.grid.shape + (-1,))], axis=-1)
            self._cache[key] = field
        return self._cache[key]

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Map values at chart points (N, m) -> (N, k), continuous in pts."""
        M = self.manifold
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        psi = interp_scalar(M, self._stacked("psi"), M.grid.wrap(pts))
        return np.stack([pts @ w + psi[:, a] for a, w in enumerate(self.windings)], axis=-1)

    def value_periods(self) -> np.ndarray:
        """Period of each component value around the chart (0 for plain fields)."""
        periods = np.asarray(self.manifold.grid.periods)
        return np.array([float(np.abs(w) @ periods) for w in self.windings])

    def wrap_value_delta(self, dv: np.ndarray) -> np.ndarray:
        """Per-component value difference wrapped to the nearest branch."""
        dv = np.array(dv, dtype=float, copy=True)
        for a, p in enumerate(self.value_periods()):
            if p > 0:
                dv[..., a] = (dv[..., a] + p / 2) % p - p / 2
        return dv

    def branch_range(self, mask: np.ndarray, anchor: np.ndarray | None = None):
        """Value range over masked nodes in the branch continuous around the anchor.

        Returns ``(lo, hi)`` per component; needed when the region straddles
        the chart seam of a circle-valued component.
        """
        vals = self.values_stack()[mask].reshape(-1, self.k)
        if anchor is None:
            anchor = vals[0]
        dv = self.wrap_value_delta(vals - anchor)
        return anchor + dv.min(axis=0), anchor + dv.max(axis=0)

    def level_residual(self, pts: np.ndarray, level: np.ndarray) -> np.ndarray:
        """Phi(pts) - level, wrapped to the nearest branch for winding components."""
        return self.wrap_value_delta(self.evaluate(pts) - np.asarray(level, dtype=float))

    def _point_residual(self, x, psi, level) -> list[float]:
        """``level_residual`` at one chart point in Python floats: ``x . w +
        psi - level`` per component, from the periodic parts ``psi`` already
        interpolated at ``x``, wrapped to the nearest branch."""
        out = []
        for (w, p), psi_a, level_a in zip(self._branches(), psi, level):
            dv = _dot(x, w) + psi_a - level_a
            out.append((dv + p / 2) % p - p / 2 if p > 0 else dv)
        return out

    def _branches(self) -> list[tuple[list[float], float]]:
        """Winding vector and value period of each component, as floats."""
        if "branches" not in self._cache:
            self._cache["branches"] = [
                (w.tolist(), float(p)) for w, p in zip(self.windings, self.value_periods())
            ]
        return self._cache["branches"]

    def project_to_level(
        self, point, level, tol: float = LEVEL_TOL, max_iter: int = 5
    ) -> "LevelProjection":
        """Newton reprojection of one chart point onto the level set, stepping
        in the grad-Phi span: ``x -= g^-1 J^T (J g^-1 J^T)^-1 res``.

        ``J`` is the exact chart Jacobian of the map's multilinear
        interpolant in the current cell (the winding vectors plus the cell
        derivative of the periodic parts), so the iteration converges
        quadratically to the level set that ``evaluate`` defines.  Each
        iteration reads values, Jacobian and metric from one probe of the
        stacked ``newton`` field; the small inverses are closed-form.  A
        residual that misses ``tol`` after ``max_iter`` steps, or is NaN,
        raises ``RuntimeError``.
        """
        if "newton_probe" not in self._cache:
            self._cache["newton_probe"] = stencil_probe(self.manifold, self._stacked("newton"), self.k)
        probe = self._cache["newton_probe"]
        k, m = self.k, self.manifold.dim
        x = np.ravel(np.asarray(point, dtype=float)).tolist()
        level = np.ravel(np.asarray(level, dtype=float)).tolist()
        for step in range(max_iter + 1):
            vals, dpsi = probe(x)
            res = self._point_residual(x, vals[:k], level)
            jac = [[wi + di for wi, di in zip(w, d)] for (w, _), d in zip(self._branches(), dpsi)]
            worst = _max_abs(res)
            if worst <= tol:
                return LevelProjection(x, res, step, jac)
            if step == max_iter:
                break
            ginv = _inverse([vals[k + i * m:k + (i + 1) * m] for i in range(m)])
            jg = [[_dot(row, col) for col in ginv] for row in jac]     # J g^-1 (g symmetric)
            gram_inv = _inverse([[_dot(a, b) for b in jac] for a in jg])
            if gram_inv is None:                                       # singular Jacobian
                break
            lam = [_dot(row, res) for row in gram_inv]
            x = [xi - _dot(col, lam) for xi, col in zip(x, zip(*jg))]
        raise RuntimeError(f"Newton reprojection failed: residual {worst:.3e} > {tol:.1e}")


def _max_abs(values: list[float]) -> float:
    """``max |v|`` that is NaN when any value is NaN, as ``np.max`` is; the
    builtin ``max`` skips a NaN that does not come first."""
    if any(v != v for v in values):
        return math.nan
    return max(abs(v) for v in values)


def _inverse(A: list[list[float]]) -> list[list[float]] | None:
    """Closed-form inverse of a 1x1, 2x2 or 3x3 matrix (adjugate over the
    determinant); ``None`` when the determinant is exactly zero."""
    n = len(A)
    if n == 1:
        det = A[0][0]
        adj = [[1.0]]
    elif n == 2:
        (a, b), (c, d) = A
        det = a * d - b * c
        adj = [[d, -b], [-c, a]]
    else:
        (a, b, c), (d, e, f), (g, h, i) = A
        adj = [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
        det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
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
# constructions
# ---------------------------------------------------------------------------


def coordinate_boundary_data(
    M: DiscreteManifold, ball: GeodesicBall, axes: Sequence[int] | None = None
):
    """Base coordinates, unwrapped around the ball center, as Dirichlet data."""
    axes = list(M.base_axes if axes is None else axes)
    pos = M.positions()
    center = ball.center_position()
    grid = M.grid
    data = []
    for ax in axes:
        delta = grid.wrap_delta(pos - center)[..., ax]
        w = np.zeros(grid.dim)
        w[ax] = 1.0
        data.append((center[ax] + delta, w))
    return data


def _stencil_interior(M: DiscreteManifold, members: np.ndarray) -> np.ndarray:
    """Members all of whose stiffness-stencil neighbors are members."""
    interior = members.copy()
    m = members.ndim
    for delta in np.ndindex(*(3,) * m):
        d = tuple(x - 1 for x in delta)
        if not any(d):
            continue
        interior &= np.roll(members, d, axis=tuple(range(m)))
    return interior


def solve_harmonic(ball: GeodesicBall, boundary_data) -> SplittingMap:
    """Dirichlet problem on a geodesic ball: each component solves Delta u = 0.

    ``boundary_data`` is a sequence of ``(values, winding)`` pairs defined at
    least on the non-interior member nodes.  On flat uniform charts with
    coordinate data the coordinate itself is returned (it is discretely
    harmonic there).
    """
    M = ball.manifold
    if len(boundary_data) == 0:
        raise ValueError("boundary_data must contain k >= 1 components")
    if not ball.boundary.any():
        raise ValueError("ball has no boundary; use harmonic_coordinates for closed charts")
    members = ball.members
    interior = _stencil_interior(M, members)
    fixed = members & ~interior
    if not interior.any():
        raise ValueError("ball interior is empty at this resolution")
    L, _ = laplacian_matrix(M)
    ii = np.flatnonzero(interior.ravel())
    bb = np.flatnonzero(fixed.ravel())
    solve = factorize(L[ii][:, ii])
    L_ib = L[ii][:, bb]
    comps, winds, resid = [], [], []
    mass = M.node_weights().ravel()
    for vals, w in boundary_data:
        vals = np.asarray(vals, dtype=float)
        x = np.full(M.grid.n_nodes, np.nan)
        x[bb] = vals.ravel()[bb]
        rhs = -L_ib @ x[bb]
        x[ii] = solve(rhs)
        sol = x.reshape(M.grid.shape)
        res_field = np.zeros_like(sol)
        res_field.ravel()[ii] = (L[ii] @ np.where(np.isnan(x), 0.0, x)) / mass[ii]
        scale = max(1.0, float(np.nanmax(np.abs(sol))))
        r = float(np.sqrt(np.sum(mass[ii] * res_field.ravel()[ii] ** 2) / mass[ii].sum()))
        comps.append(sol)
        winds.append(np.asarray(w, dtype=float))
        resid.append(r / scale)
    return SplittingMap(M, tuple(comps), tuple(winds), domain=ball, residuals=tuple(resid))


def harmonic_coordinates(M: DiscreteManifold, axes: Sequence[int] | None = None) -> SplittingMap:
    """Global degree-one harmonic coordinates on a closed periodic chart.

    Solves ``Delta (x_a + psi_a) = 0`` for a periodic correction psi_a with
    mean zero; on flat families psi vanishes identically and the coordinate
    is returned exactly.
    """
    axes = list(M.base_axes if axes is None else axes)
    if not axes:
        raise ValueError("need at least one axis for harmonic coordinates")
    grid = M.grid
    pos = M.positions()
    L, _ = laplacian_matrix(M)
    mass = M.node_weights().ravel()
    comps, winds, resid = [], [], []
    solve = None   # factored on the first axis that needs a solve
    for ax in axes:
        w = np.zeros(grid.dim)
        w[ax] = 1.0
        coord = pos[..., ax]
        rhs = -stiffness_apply(M, coord, w).ravel()
        if np.max(np.abs(rhs)) < 1e-12 * np.max(np.abs(L.diagonal())):
            psi = np.zeros(grid.n_nodes)
        else:
            if solve is None:
                A = L.tolil(copy=True)   # pin node 0: psi is defined up to a constant
                A[0, :] = 0.0
                A[:, 0] = 0.0
                A[0, 0] = 1.0
                solve = factorize(A)
            b = rhs.copy()
            b[0] = 0.0
            psi = solve(b)
            psi -= (mass * psi).sum() / mass.sum()
        vals = coord + psi.reshape(grid.shape)
        res = (stiffness_apply(M, vals, w).ravel() / mass)
        r = float(np.sqrt((mass * res**2).sum() / mass.sum()))
        comps.append(vals)
        winds.append(w)
        resid.append(r)
    return SplittingMap(M, tuple(comps), tuple(winds), domain=None, residuals=tuple(resid))


def morse_test_map(M: DiscreteManifold) -> SplittingMap:
    """Non-degenerate-critical test map sin(2 pi x) / 2 pi with singular circles."""
    pos = M.positions()
    vals = np.sin(2 * np.pi * pos[..., 0]) / (2 * np.pi)
    return SplittingMap(M, (vals,), (np.zeros(M.grid.dim),), domain=None, residuals=(np.nan,))


# ---------------------------------------------------------------------------
# Jacobian analytics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianStats:
    """Pointwise Gram matrix of the splitting map and its eigen-structure."""

    phi: SplittingMap
    gram: np.ndarray       # (*shape, k, k)
    lam: np.ndarray        # least eigenvalue field
    Lam: np.ndarray        # largest eigenvalue field
    absdet: np.ndarray     # |J_k| = sqrt(det J)
    frames: np.ndarray     # (*shape, k, k) eigenvectors, J = V diag(eigs) V^T
    eigs: np.ndarray       # (*shape, k) ascending
    valid: np.ndarray      # where all component gradients are defined

    def default_threshold(self) -> float:
        med = float(np.nanmedian(self.Lam[self.valid]))
        return 1e-6 * med


def jacobian_stats(phi: SplittingMap) -> JacobianStats:
    if "jacobian_stats" in phi._cache:
        return phi._cache["jacobian_stats"]
    M = phi.manifold
    grads = phi.gradients()
    k = phi.k
    shape = grads[0].shape[:-1]
    J = np.zeros(shape + (k, k))
    for a in range(k):
        for b in range(a, k):
            J[..., a, b] = metric_inner(M, grads[a], grads[b])
            J[..., b, a] = J[..., a, b]
    valid = np.all(np.isfinite(J.reshape(shape + (k * k,))), axis=-1)
    Jc = np.where(valid[..., None, None], J, np.eye(k))
    eigs, frames = np.linalg.eigh(Jc)
    eigs = np.where(valid[..., None], eigs, np.nan)
    det = np.prod(np.maximum(eigs, 0.0), axis=-1)
    stats = JacobianStats(
        phi=phi,
        gram=np.where(valid[..., None, None], J, np.nan),
        lam=eigs[..., 0],
        Lam=eigs[..., -1],
        absdet=np.sqrt(det),
        frames=frames,
        eigs=eigs,
        valid=valid,
    )
    phi._cache["jacobian_stats"] = stats
    return stats


@dataclass(frozen=True)
class RegularMask:
    regular: np.ndarray
    threshold: float
    singular_fraction: float


def classify_regular(stats: JacobianStats, threshold: float) -> RegularMask:
    """Nodes with least Jacobian eigenvalue above the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    M = stats.phi.manifold
    w = M.node_weights()
    valid = stats.valid
    regular = valid & (stats.lam > threshold)
    frac = float(w[valid & ~regular].sum() / w[valid].sum())
    return RegularMask(regular=regular, threshold=threshold, singular_fraction=frac)


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


def certify(phi: SplittingMap, ball: GeodesicBall, epsilon_hat: float | None = None) -> Certificate:
    """Measure the four splitting-map conclusions on B(p, 2r).

    sup-gradient of the components, L1-average Gram deviation from the
    identity, scaled Hessian energy, and the range-containment check; the
    smallness stand-in is ``psi = max(gramDev, sqrt(hessEnergy))``.
    """
    M = phi.manifold
    r = ball.radius
    region2 = ball.concentric(2 * r)
    stats = jacobian_stats(phi)
    mask = region2.members & stats.valid
    if not mask.any():
        raise ValueError("certificate region carries no valid derivative data")
    grads = phi.gradients()
    sup_grad = max(
        region_sup(np.sqrt(np.maximum(metric_inner(M, g, g), 0.0)), mask) for g in grads
    )
    k = phi.k
    gram_dev = 0.0
    for a in range(k):
        for b in range(k):
            dev = np.abs(stats.gram[..., a, b] - (1.0 if a == b else 0.0))
            gram_dev = max(gram_dev, region_average(M, np.where(mask, dev, 0.0), mask))
    hess_energy = r**2 * sum(
        region_average(M, np.where(mask, hn**2, 0.0), mask) for hn in phi.hessian_norms()
    )
    center_val = phi.evaluate(ball.center_position()[None, :])[0]
    res = phi.level_residual(M.positions()[mask].reshape(-1, M.dim), center_val)
    range_ok = bool(np.all(np.linalg.norm(res, axis=-1) <= 2 * r + 1e-12))
    if epsilon_hat is None:
        from .manifold import epsilon_proxy

        epsilon_hat = epsilon_proxy(M, ball, phi)
    psi = max(gram_dev, float(np.sqrt(hess_energy)))
    return Certificate(
        sup_grad=float(sup_grad),
        gram_dev=float(gram_dev),
        hess_energy=float(hess_energy),
        range_ok=range_ok,
        psi=float(psi),
        epsilon_hat=float(epsilon_hat),
    )


# ---------------------------------------------------------------------------
# multilinear quantities in the pointwise eigenbasis
# ---------------------------------------------------------------------------


def _rotated_quantities(phi: SplittingMap, stats: JacobianStats, mask: np.ndarray):
    """Per regular node: eigenvalues, rotated gradients and Hessians."""
    M = phi.manifold
    k = phi.k
    m = M.dim
    idx = np.flatnonzero(mask.ravel())
    eigs = stats.eigs.reshape(-1, k)[idx]
    V = stats.frames.reshape(-1, k, k)[idx]
    grads = np.stack([g.reshape(-1, m) for g in phi.gradients()], axis=1)[idx]      # (N, k, m)
    hesss = np.stack([h.reshape(-1, m, m) for h in phi.hessians()], axis=1)[idx]    # (N, k, m, m)
    rot_grads = np.einsum("nba,nbm->nam", V, grads)
    rot_hess = np.einsum("nba,nbij->naij", V, hesss)
    return idx, eigs, rot_grads, rot_hess


def quantities_FG(
    phi: SplittingMap,
    stats: JacobianStats,
    mask: np.ndarray,
    grad_u: np.ndarray,
    grad_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """F and G of the flow-variation identities, eigenbasis assembly.

    ``F = sum_a c_a Hess_{phi^a}(T, T) prod_{b != a} sqrt(lambda_b)`` with
    ``c_a`` the unit-direction pairing of grad u, and
    ``G = sum_a Hess_{phi^a}(T, hat phi^a) prod_{b != a} sqrt(lambda_b)``;
    both use only nonnegative powers of the eigenvalues.  NaN outside mask.
    """
    M = phi.manifold
    k = phi.k
    m = M.dim
    shape = stats.lam.shape
    idx, eigs, rot_grads, rot_hess = _rotated_quantities(phi, stats, mask)
    gu = grad_u.reshape(-1, m)[idx]
    gt = grad_t.reshape(-1, m)[idx]
    g = M.metric.reshape(-1, m, m)[idx]
    sq = np.sqrt(np.maximum(eigs, 0.0))
    inner_u_phi = np.einsum("ni,nij,naj->na", gu, g, rot_grads)
    hess_tt = np.einsum("naij,ni,nj->na", rot_hess, gt, gt)
    hess_t_phi = np.einsum("naij,ni,naj->na", rot_hess, gt, rot_grads)
    F = np.zeros(len(idx))
    G = np.zeros(len(idx))
    for a in range(k):
        others = np.ones(len(idx))
        for b in range(k):
            if b != a:
                others = others * sq[:, b]
        # c_a = <grad u, grad phi^a> / sqrt(lambda_a); hess(T, hat phi^a) likewise
        with np.errstate(divide="ignore", invalid="ignore"):
            c_a = np.where(sq[:, a] > 0, inner_u_phi[:, a] / sq[:, a], 0.0)
            ht = np.where(sq[:, a] > 0, hess_t_phi[:, a] / sq[:, a], 0.0)
        F += c_a * hess_tt[:, a] * others
        G += ht * others
    Ff = np.full(int(np.prod(shape)), np.nan)
    Gf = np.full(int(np.prod(shape)), np.nan)
    Ff[idx] = F
    Gf[idx] = G
    return Ff.reshape(shape), Gf.reshape(shape)
