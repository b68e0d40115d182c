"""Laplace-Beltrami eigenpairs and the measured Cheng-Yau ratio.

Eigenproblems solve the symmetric pencil ``L u = theta mass u`` by
shift-invert Lanczos with a sparse factorization and a deterministic
(seeded) start vector, so repeated runs are bit-reproducible.  Eigenvalues
follow the ``Delta = -div grad`` convention (theta >= 0, constants in the
kernel on closed charts).  A solve answers one question, every pair with
``theta <= theta_max``: the estimate's constant depends on a bound on the
eigenvalue, so that bound is what a run configures.

The factorization depends on the chart.  Where the metric is constant (flat
and twisted tori), the eigensolve factors ``L - sigma mass``.  Where it
varies, it factors a stiffness with node 0 pinned, its stored zeros dropped
and its columns in minimum-degree order, and runs at shift 0 on the
mass-orthogonal complement of the constants; the constant pair is exact.
That stiffness is the base block when the chart is a warped product over its
fiber axis (the warped torus) and ``theta_max`` lies below the fiber gap
gamma: the fiber modes of such a chart have Rayleigh quotients of at least
gamma, so every pair below it is constant along the fiber and solves the base
block, the discrete form of Fukaya's limit problem on the collapsed base.  On
512 x 102 that is a 512-node solve in place of a 52,224-node one.  Other
varying charts (a metric that changes along the fiber, a cross term), and
warped products with ``theta_max`` at or past gamma, factor the whole pinned
stiffness.  The harmonic coordinates factor the whole pinned matrix apart, in
COLAMD order on its stored structure, which fixes their bits.
:func:`cached_eigenpairs` keeps each solve's pairs in one ``.npy`` file.
:func:`cheng_yau_ratio` takes the gradient norm of u that the report pass
already holds (``TangentialField.grad_norm``) and reads B(p, 2r) from the
ball's cached concentric region, so it differentiates nothing itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .manifold import DiscreteManifold, GeodesicBall
from .operators import (
    factorize,
    factorize_symmetric,
    laplacian_matrix,
    pinned_stiffness_solve,
    region_sup,
)

__all__ = [
    "EigenPair",
    "eigenpairs",
    "cheng_yau_ratio",
    "cached_eigenpairs",
]

RESIDUAL_TOL = 1e-8
CLUSTER_REL_GAP = 1e-6


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair ``Delta u = theta u`` with L2-average-normalized u."""

    theta: float
    u: np.ndarray
    residual: float
    cluster: int = 0


def _solver_scale(L, mass) -> float:
    return float(np.max(L.diagonal() / mass))


def eigenpairs(M: DiscreteManifold, count: int, theta_max: float, seed: int = 0) -> list[EigenPair]:
    """Every eigenpair of the Laplace-Beltrami operator on the closed chart
    with ``theta <= theta_max``, ascending.

    The first round asks for the lowest ``max(count, 8)`` pairs; the count
    doubles, up to ``n - 2``, until the top theta of a round exceeds
    ``theta_max``.  Every round reuses one factorization.

    Which factorization depends on the metric.  Where it is constant (flat and
    twisted tori), ``L - sigma mass`` (sigma slightly negative) is factored by
    :func:`~collapselab.operators.factorize`.  Where it varies, Lanczos runs
    at ``sigma = 0`` through the pinned stiffness
    (:func:`~collapselab.operators.pinned_stiffness_solve`), factored by
    :func:`~collapselab.operators.factorize_symmetric`: on the
    mass-orthogonal complement of the constants it applies ``L^-1``, so each
    round asks the solver for one pair fewer and the exact constant pair
    (theta = 0, u = 1) comes first.

    On a warped product over the fiber axis (:func:`_fiber_base`: the warped
    torus) that solve runs on the base block, whose pairs, repeated along the
    fiber, are pairs of ``L``.  Every pair of ``L`` below the fiber gap gamma
    is one of them, so the base block answers exactly when ``theta_max <
    gamma``; otherwise, and on every other varying chart, the pinned solve
    runs on the whole of ``L``.  Either way the residual gate reads the whole
    ``L``.
    """
    L, mass = laplacian_matrix(M)
    n = L.shape[0]
    k = max(count, 8)
    if not (0 < count and k <= n - 2):
        raise ValueError(f"count must lie in [1, {n - 2}]")
    if not _metric_varies(M):
        pairs = _lowest_pairs(M, L, mass, _shift_invert(L, mass, seed, pinned=False), k, n - 2, theta_max)
    else:
        pairs = (_base_block_pairs(M, L, mass, k, theta_max, seed)
                 or _lowest_pairs(M, L, mass, _shift_invert(L, mass, seed, pinned=True), k, n - 2, theta_max))
    return [p for p in pairs if p.theta <= theta_max]


def _base_block_pairs(M: DiscreteManifold, L, mass, k: int, theta_max: float, seed: int) -> list[EigenPair] | None:
    """The pairs of ``L`` from its base block (:func:`_fiber_base`), or None
    where the chart is no warped product or ``theta_max`` is not below its
    fiber gap."""
    base = _fiber_base(M, L, mass)
    if base is None:
        return None
    L0, m0, gamma = base
    n0 = L0.shape[0]
    if k > n0 - 2 or not theta_max < gamma:
        return None
    pairs = _lowest_pairs(M, L, mass, _shift_invert(L0, m0, seed, pinned=True), k, n0 - 2, theta_max,
                          lift=lambda vecs: np.repeat(vecs, L.shape[0] // n0, axis=1))
    return pairs if pairs[-1].theta > theta_max else None


def _shift_invert(A, mass: np.ndarray, seed: int, pinned: bool):
    """``lowest(k)``: the ``k`` lowest pairs of ``A u = theta mass u`` as
    ascending thetas and L2-average-normalized rows, by shift-invert Lanczos
    from a start vector seeded by ``seed``.

    ``pinned`` runs at ``sigma = 0`` through the pinned, minimum-degree factor
    of a stiffness ``A`` whose kernel is the constants, and prepends the exact
    constant pair; otherwise ``A - sigma mass`` is factored, sigma slightly
    negative.  The factor is made here, once for every ``k``.
    """
    n = A.shape[0]
    A = A.tocsc()
    Mmat = diags(mass).tocsc()
    v0 = np.random.default_rng(seed).standard_normal(n)
    total = mass.sum()
    if pinned:
        sigma, constants = 0.0, 1
        solve = pinned_stiffness_solve(A, mass, factorize_symmetric)
        # ARPACK hands OPinv the vector mass * x: projecting it to zero sum
        # takes the constant part out of x
        OPinv = LinearOperator((n, n), matvec=lambda b: solve(b - mass * (b.sum() / total)), dtype=float)
        v0 -= (mass * v0).sum() / total
    else:
        sigma, constants = -max(1e-6 * _solver_scale(A, mass), 1e-9), 0
        OPinv = LinearOperator((n, n), matvec=factorize(A - sigma * Mmat), dtype=float)

    def lowest(k: int) -> tuple[np.ndarray, np.ndarray]:
        try:
            theta, vecs = eigsh(A, k=k - constants, M=Mmat, sigma=sigma, which="LM", v0=v0, tol=0, OPinv=OPinv)
        except ArpackNoConvergence as exc:
            raise RuntimeError(
                f"eigensolver failed to converge: got {len(exc.eigenvalues)} of {k - constants} pairs"
            ) from exc
        order = np.argsort(theta)
        # M-orthonormal -> L2-average norm 1
        theta, vecs = theta[order], (vecs[:, order] * np.sqrt(total)).T
        if constants:
            theta, vecs = np.append(0.0, theta), np.vstack([np.ones(n), vecs])
        return theta, vecs

    return lowest


def _lowest_pairs(M: DiscreteManifold, L, mass, lowest, k: int, k_max: int, theta_max: float,
                  lift=None) -> list[EigenPair]:
    """The gated pairs of ``lowest(k)`` of the first round whose top theta
    exceeds ``theta_max``, ``k`` doubling up to ``k_max``.  ``lift`` maps the
    rows of ``lowest`` to nodes of ``M``."""
    while True:
        theta, vecs = lowest(k)
        pairs = _gated_pairs(M, L, mass, theta, vecs if lift is None else lift(vecs))
        if pairs[-1].theta > theta_max or k >= k_max:
            return pairs
        k = min(2 * k, k_max)


def _metric_varies(M: DiscreteManifold) -> bool:
    """Whether the metric differs between nodes (warped charts; not flat or twisted ones)."""
    g = M.metric.reshape(-1, M.dim * M.dim)
    return bool((g != g[0]).any())


def _fiber_base(M: DiscreteManifold, L, mass: np.ndarray):
    """``(L0, m0, gamma)`` where the chart is a warped product over its fiber
    (last) axis, else None.

    Warped product means, exactly: metric and mass do not change along the
    fiber axis and the metric has no base-fiber cross term.  The corner
    stiffness then splits as ``L = L_base + L_fib``, both PSD: ``L_base``
    couples nodes of one fiber slice, the same block in every slice, and
    ``L_fib`` couples each node to its two fiber neighbours with a weight
    ``a_b = -L[(b, 0), (b, 1)]`` of its base node ``b``.  ``L`` commutes with
    the fiber shift, so its pairs are fiber Fourier modes, and a mode of
    fiber frequency q != 0 has Rayleigh quotient at least
    ``gamma = (2 - 2 cos(2 pi / N_y)) min_b a_b / m_b``.  Every pair below
    gamma is therefore constant along the fiber, ``u = P v`` with ``P`` the
    0/1 fiber-repeat matrix, and ``v`` is a pair of the base block
    ``L0 = L[slice 0] P`` with mass ``m0 = mass[slice 0]``.  Needs at least 3
    fiber nodes, so that the two fiber neighbours differ.
    """
    n_fib = M.grid.shape[-1]
    g, m = M.metric, mass.reshape(-1, n_fib)
    if (n_fib < 3 or (g != g[..., :1, :, :]).any() or (m != m[:, :1]).any()
            or (g[..., :-1, -1] != 0).any()):
        return None
    nodes = np.arange(L.shape[0]).reshape(-1, n_fib)
    m0 = m[:, 0]
    a = -np.asarray(L[nodes[:, 0], nodes[:, 1]]).ravel()
    gamma = float((2.0 - 2.0 * np.cos(2 * np.pi / n_fib)) * np.min(a / m0))
    repeat = csr_matrix((np.ones(L.shape[0]), (nodes.ravel(), np.repeat(np.arange(len(m0)), n_fib))),
                        shape=(L.shape[0], len(m0)))
    return L[nodes[:, 0]] @ repeat, m0, gamma


def _gated_pairs(M: DiscreteManifold, L, mass, theta, vecs) -> list[EigenPair]:
    """Eigenpairs from ascending ``theta`` and L2-average-normalized rows ``vecs``.

    Clamps round-off negative eigenvalues to 0, signs each vector (see
    :func:`_sign_anchor`), applies the residual gate (RuntimeError, NaN
    included) and numbers the clusters.
    """
    total = float(mass.sum())
    scale = _solver_scale(L, mass)
    pairs: list[EigenPair] = []
    cluster = 0
    for i, (th, v) in enumerate(zip(theta, vecs)):
        th = float(max(th, 0.0) if abs(th) < 1e-10 * scale else th)
        if v[_sign_anchor(v)] < 0:
            v = -v
        res = float(np.sqrt(np.sum(mass * ((L @ v) / mass - th * v) ** 2) / total))
        if not res <= RESIDUAL_TOL * (1.0 + abs(th)):
            raise RuntimeError(
                f"eigenpair {i} residual {res:.3e} exceeds {RESIDUAL_TOL:.0e} * (1 + theta)"
            )
        if i > 0 and abs(th - pairs[-1].theta) >= CLUSTER_REL_GAP * max(abs(th), 1.0):
            cluster += 1
        pairs.append(EigenPair(theta=th, u=v.reshape(M.grid.shape), residual=res, cluster=cluster))
    return pairs


def _sign_anchor(v: np.ndarray) -> int:
    """The node whose entry is made positive: the first, in C order, with
    ``|v| >= max|v| / 2``.  The largest entry would do only up to round-off:
    the warped theta ~ 39.17 mode peaks at +-1.42388373581 on two fiber
    columns, equal to about 4e-12, and round-off then picks the sign.  On the
    warped sweep grids (512 nodes per unit, eps 0.2 to 0.05) no entry of a
    pair comes closer to half its peak than 1.7e-3 of the peak, far above
    round-off."""
    a = np.abs(v)
    return int(np.argmax(a >= 0.5 * a.max()))


def cheng_yau_ratio(u: np.ndarray, grad_norm: np.ndarray, ball: GeodesicBall) -> float:
    """Measured gradient-estimate ratio ``r sup_B(p,r) |grad u| / sup_B(p,2r) |u|``,
    from u's gradient norm field (``TangentialField.grad_norm``)."""
    sup_u = region_sup(np.abs(u), ball.concentric(2 * ball.radius).members)
    if sup_u == 0.0:
        raise ValueError("Cheng-Yau ratio undefined for u identically zero")
    return float(ball.radius * region_sup(grad_norm, ball.members) / sup_u)


# ---------------------------------------------------------------------------
# eigenpair cache
# ---------------------------------------------------------------------------

# Part of every cache key, so files written by earlier solvers are never looked up.
_VERSION = 5


def cached_eigenpairs(directory: str | Path, M: DiscreteManifold, count: int, theta_max: float,
                      seed: int = 0) -> tuple[list[EigenPair], Path]:
    """``eigenpairs(M, count, theta_max, seed)`` and the path of its file
    ``<directory>/eig_<key>.npy``, keyed by a hash of the family, the solve
    settings and ``_VERSION``: one float64 row per pair, theta and then ``u``
    in C order.  A file that does not load as such rows, or whose pairs fail
    the solver's residual gate (:func:`_gated_pairs`), is solved afresh and
    overwritten."""
    settings = {**asdict(M.family), "count": count, "theta_max": theta_max, "seed": seed, "version": _VERSION}
    key = hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:16]
    path = Path(directory) / f"eig_{key}.npy"
    with contextlib.suppress(OSError, ValueError, EOFError, RuntimeError):   # unreadable, or failing the gate
        rows = np.load(path)
        # an .npz archive loads as a mapping, not an array
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape[1:] == (1 + M.grid.n_nodes,):
            return _gated_pairs(M, *laplacian_matrix(M), rows[:, 0], rows[:, 1:]), path
    pairs = eigenpairs(M, count, theta_max=theta_max, seed=seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(path, np.array([np.append(p.theta, p.u.ravel()) for p in pairs]))
    return pairs, path
