"""Laplace-Beltrami eigenpairs and the measured Cheng-Yau ratio.

Eigenproblems solve the symmetric pencil ``L u = theta mass u`` by
shift-invert Lanczos with a sparse factorization and a deterministic
(seeded) start vector, so repeated runs are bit-reproducible.  Eigenvalues
follow the ``Delta = -div grad`` convention (theta >= 0, constants in the
kernel on closed charts).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .manifold import DiscreteManifold, GeodesicBall
from .operators import factorize, gradient, laplacian_matrix, norm_sq, region_sup

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
    returned.  Every round reuses one factorization of ``L - sigma mass``.
    """
    L, mass = laplacian_matrix(M)
    n = L.shape[0]
    k = count if theta_max is None else max(count, 8)
    if not (0 < k <= n - 2):
        raise ValueError(f"count must lie in [1, {n - 2}]")
    A = L.tocsc()
    Mmat = diags(mass).tocsc()
    sigma = -max(1e-6 * _solver_scale(L, mass), 1e-9)
    OPinv = LinearOperator((n, n), matvec=factorize(A - sigma * Mmat), dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    while True:
        try:
            theta, vecs = eigsh(A, k=k, M=Mmat, sigma=sigma, which="LM", v0=v0, tol=0, OPinv=OPinv)
        except ArpackNoConvergence as exc:
            raise RuntimeError(
                f"eigensolver failed to converge: got {len(exc.eigenvalues)} of {k} pairs"
            ) from exc
        order = np.argsort(theta)
        # M-orthonormal -> L2-average norm 1
        pairs = _gated_pairs(M, L, mass, theta[order], (vecs[:, order] * np.sqrt(mass.sum())).T)
        if theta_max is None:
            return pairs
        if pairs[-1].theta > theta_max or k >= n - 2:
            return [p for p in pairs if p.theta <= theta_max]
        k = min(2 * k, n - 2)


def _gated_pairs(M: DiscreteManifold, L, mass, theta, vecs) -> list[EigenPair]:
    """Eigenpairs from ascending ``theta`` and L2-average-normalized rows ``vecs``.

    Clamps round-off negative eigenvalues to 0, makes each vector's largest
    entry positive, applies the residual gate (RuntimeError, NaN included)
    and numbers the clusters.
    """
    total = float(mass.sum())
    scale = _solver_scale(L, mass)
    pairs: list[EigenPair] = []
    cluster = 0
    for i, (th, v) in enumerate(zip(theta, vecs)):
        th = float(max(th, 0.0) if abs(th) < 1e-10 * scale else th)
        if v[int(np.argmax(np.abs(v)))] < 0:
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
#   version u32      1
#   m       u32      chart dimension
#   counts  m x u32  node counts per grid axis
#   npairs  u32
#   theta   npairs x f8
#   u       npairs x N x f8   (C order, N = prod(counts))
#
# Loads validate shape metadata and recompute eigen-residuals against the same
# RESIDUAL_TOL gate as the solver; files that fail either check are reported as
# corrupt so callers rebuild.

_MAGIC = b"EIGC"
_VERSION = 1


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
