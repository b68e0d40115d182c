"""Laplace-Beltrami eigenpairs and the measured Cheng-Yau ratio.

Eigenproblems solve the symmetric pencil ``L u = theta mass u`` by
shift-invert Lanczos with a sparse factorization and a deterministic
(seeded) start vector, so repeated runs are bit-reproducible.  Eigenvalues
follow the ``Delta = -div grad`` convention (theta >= 0, constants in the
kernel on closed charts).

The factorization depends on the chart.  Where the metric varies (the warped
torus), the eigensolve factors the stiffness with node 0 pinned, its stored
zeros dropped and its columns in minimum-degree order, and runs at shift 0 on
the mass-orthogonal complement of the constants; the constant pair is exact.
The harmonic coordinates factor the same pinned matrix apart, in COLAMD order
on its stored structure, which fixes their bits.  Where the metric is
constant (flat and twisted tori), the eigensolve factors ``L - sigma mass``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .manifold import DiscreteManifold, GeodesicBall
from .operators import (
    factorize,
    factorize_symmetric,
    gradient,
    laplacian_matrix,
    norm_sq,
    pinned_stiffness_solve,
    region_sup,
)

__all__ = [
    "EigenPair",
    "eigenpairs",
    "cheng_yau_ratio",
    "save_eigen_cache",
    "load_eigen_cache",
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


def eigenpairs(
    M: DiscreteManifold,
    count: int,
    theta_max: float | None = None,
    seed: int = 0,
) -> list[EigenPair]:
    """Lowest eigenpairs of the Laplace-Beltrami operator on the closed chart.

    With ``theta_max`` given, the count doubles until the spectrum is
    exhausted up to the threshold and all eigenvalues <= theta_max are
    returned.  Every round reuses one factorization.

    Which factorization depends on the metric.  Where it varies over the
    chart, Lanczos runs at ``sigma = 0`` through the pinned stiffness
    (:func:`~collapselab.operators.pinned_stiffness_solve`), factored by
    :func:`~collapselab.operators.factorize_symmetric`: on the
    mass-orthogonal complement of the constants it applies ``L^-1``, so the
    solver is asked for the other ``count - 1`` pairs and the exact constant
    pair (theta = 0, u = 1) comes first.  Where the metric is constant,
    ``L - sigma mass`` (sigma slightly negative) is factored by
    :func:`~collapselab.operators.factorize`.
    """
    L, mass = laplacian_matrix(M)
    n = L.shape[0]
    k = count if theta_max is None else max(count, 8)
    if not (0 < k <= n - 2):
        raise ValueError(f"count must lie in [1, {n - 2}]")
    A = L.tocsc()
    Mmat = diags(mass).tocsc()
    v0 = np.random.default_rng(seed).standard_normal(n)
    total = mass.sum()
    if _metric_varies(M):
        sigma, constants = 0.0, 1
        pinned = pinned_stiffness_solve(M, factorize_symmetric)
        # ARPACK hands OPinv the vector mass * x: projecting it to zero sum
        # takes the constant part out of x
        OPinv = LinearOperator((n, n), matvec=lambda b: pinned(b - mass * (b.sum() / total)), dtype=float)
        v0 -= (mass * v0).sum() / total
    else:
        sigma, constants = -max(1e-6 * _solver_scale(L, mass), 1e-9), 0
        OPinv = LinearOperator((n, n), matvec=factorize(A - sigma * Mmat), dtype=float)
    while True:
        theta, vecs = np.zeros(0), np.zeros((0, n))
        if k > constants:
            try:
                theta, vecs = eigsh(A, k=k - constants, M=Mmat, sigma=sigma, which="LM", v0=v0, tol=0,
                                    OPinv=OPinv)
            except ArpackNoConvergence as exc:
                raise RuntimeError(
                    f"eigensolver failed to converge: got {len(exc.eigenvalues)} of {k - constants} pairs"
                ) from exc
            order = np.argsort(theta)
            # M-orthonormal -> L2-average norm 1
            theta, vecs = theta[order], (vecs[:, order] * np.sqrt(total)).T
        if constants:
            theta, vecs = np.append(0.0, theta), np.vstack([np.ones(n), vecs])
        pairs = _gated_pairs(M, L, mass, theta, vecs)
        if theta_max is None:
            return pairs
        if pairs[-1].theta > theta_max or k >= n - 2:
            return [p for p in pairs if p.theta <= theta_max]
        k = min(2 * k, n - 2)


def _metric_varies(M: DiscreteManifold) -> bool:
    """Whether the metric differs between nodes (warped charts; not flat or twisted ones)."""
    g = M.metric.reshape(-1, M.dim * M.dim)
    return bool((g != g[0]).any())


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


def cheng_yau_ratio(M: DiscreteManifold, u: np.ndarray, ball: GeodesicBall) -> float:
    """Measured gradient-estimate ratio ``r sup_B(p,r) |grad u| / sup_B(p,2r) |u|``."""
    u = np.asarray(u, dtype=float)
    return _cheng_yau_ratio(u, np.sqrt(norm_sq(M, gradient(M, u))), ball)


def _cheng_yau_ratio(u: np.ndarray, grad_norm: np.ndarray, ball: GeodesicBall) -> float:
    outer = ball.concentric(2 * ball.radius)
    sup_u = region_sup(np.abs(u), outer.members)
    if sup_u == 0.0:
        raise ValueError("Cheng-Yau ratio undefined for u identically zero")
    return float(ball.radius * region_sup(grad_norm, ball.members) / sup_u)


# ---------------------------------------------------------------------------
# eigenpair cache
# ---------------------------------------------------------------------------
#
# Binary layout (all little-endian):
#   magic   4 bytes  b"EIGC"
#   version u32      2
#   m       u32      chart dimension
#   counts  m x u32  node counts per grid axis
#   npairs  u32
#   theta   npairs x f8
#   u       npairs x N x f8   (C order, N = prod(counts))
#
# Loads validate shape metadata and recompute eigen-residuals against the same
# RESIDUAL_TOL gate as the solver; files that fail either check are reported as
# corrupt so callers rebuild.  Version 3 marks pairs of charts with a varying
# metric solved through the minimum-degree pinned factor and signed by
# _sign_anchor; files of earlier versions, whose pairs came from other factors
# (version 2: the COLAMD pinned factor; version 1: the shifted one), are
# rebuilt rather than mixed in.

_MAGIC = b"EIGC"
_VERSION = 3


def save_eigen_cache(path: str | Path, M: DiscreteManifold, pairs: list[EigenPair]) -> None:
    shape = M.grid.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(shape)))
        fh.write(struct.pack(f"<{len(shape)}I", *shape))
        fh.write(struct.pack("<I", len(pairs)))
        np.asarray([p.theta for p in pairs], dtype="<f8").tofile(fh)
        for p in pairs:
            np.asarray(p.u, dtype="<f8").ravel().tofile(fh)


def load_eigen_cache(path: str | Path, M: DiscreteManifold) -> list[EigenPair] | None:
    """Read a cache file; returns None (caller rebuilds) on any corruption."""
    path = Path(path)
    if not path.exists():
        return None
    shape = M.grid.shape
    n = M.grid.n_nodes
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                return None
            (version,) = struct.unpack("<I", fh.read(4))
            if version != _VERSION:
                return None
            (m,) = struct.unpack("<I", fh.read(4))
            counts = struct.unpack(f"<{m}I", fh.read(4 * m))
            if counts != tuple(shape):
                return None
            (npairs,) = struct.unpack("<I", fh.read(4))
            theta = np.fromfile(fh, dtype="<f8", count=npairs)
            us = np.fromfile(fh, dtype="<f8", count=npairs * n)
            if len(theta) != npairs or us.size != npairs * n:
                return None
    except (OSError, struct.error, ValueError):
        return None
    L, mass = laplacian_matrix(M)
    try:
        return _gated_pairs(M, L, mass, theta, us.reshape(npairs, n))
    except RuntimeError:
        return None  # corrupt payload: semantic checksum failed
