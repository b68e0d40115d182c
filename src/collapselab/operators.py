"""Discrete differential operators under the metric.

Field shape conventions: scalar fields are ``grid.shape``
arrays, vector fields carry contravariant components in a trailing axis
``(*shape, m)``, tensor fields covariant components ``(*shape, m, m)``.
Coordinate-like scalars pass an integer/float ``winding`` vector so that
differences across the periodic seam unwrap correctly.

The Laplace-Beltrami operator uses the sign convention ``Delta = -div grad``
(spectrum >= 0).  The stiffness matrix is assembled from the Dirichlet-energy
form with corner quadrature per cell, which makes it exactly symmetric,
positive semidefinite, and zero-row-sum, with no spurious checkerboard kernel;
on a flat metric it reduces to the classical compact second-order stencil.
The stiffness action on a coordinate-like scalar is ``L`` applied to its
periodic part plus one precomputed vector per winding axis.  Every sparse
linear solve goes through :func:`factorize`.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .manifold import DiscreteManifold, PeriodicGrid

__all__ = [
    "gradient",
    "gradient_norm_sq",
    "metric_inner",
    "laplacian_matrix",
    "laplace",
    "factorize",
    "hessian",
    "hessian_norm",
    "christoffel_fd",
    "l2_average",
    "region_average",
    "region_sup",
    "interp_scalar",
    "interp_metric",
]


# ---------------------------------------------------------------------------
# finite differences with winding-aware wrap
# ---------------------------------------------------------------------------


def _seam_neighbors(f: np.ndarray, axis: int, wrap_add: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward neighbors along one periodic axis.

    ``wrap_add`` is the jump of the represented function across the period
    seam (winding * period); zero for ordinary periodic fields.
    """
    fp = np.roll(f, -1, axis=axis)
    fm = np.roll(f, +1, axis=axis)
    if wrap_add:
        sl_last = [slice(None)] * f.ndim
        sl_last[axis] = -1
        sl_first = [slice(None)] * f.ndim
        sl_first[axis] = 0
        fp[tuple(sl_last)] += wrap_add
        fm[tuple(sl_first)] -= wrap_add
    return fp, fm


def _axis_diff(f: np.ndarray, axis: int, h: float, wrap_add: float) -> np.ndarray:
    """Centered first difference along one periodic axis."""
    fp, fm = _seam_neighbors(f, axis, wrap_add)
    return (fp - fm) / (2.0 * h)


def _axis_diff2(f: np.ndarray, axis: int, h: float, wrap_add: float) -> np.ndarray:
    fp, fm = _seam_neighbors(f, axis, wrap_add)
    return (fp - 2.0 * f + fm) / h**2


def chart_gradient(M: DiscreteManifold, f: np.ndarray, winding=None) -> np.ndarray:
    """Covariant chart derivatives df_i by centered differences, ``(*shape, m)``."""
    grid = M.grid
    w = np.zeros(grid.dim) if winding is None else np.asarray(winding, dtype=float)
    return np.stack(
        [_axis_diff(f, ax, grid.spacings[ax], w[ax] * grid.periods[ax]) for ax in range(grid.dim)],
        axis=-1,
    )


def gradient(M: DiscreteManifold, f: np.ndarray, winding=None) -> np.ndarray:
    """Contravariant gradient ``g^{ij} d_j f`` by centered differences."""
    df = chart_gradient(M, f, winding)
    return np.einsum("...ij,...j->...i", M.metric_inverse(), df)


def metric_inner(M: DiscreteManifold, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pointwise g(X, Y) for contravariant fields."""
    return np.einsum("...i,...ij,...j->...", X, M.metric, Y)


def gradient_norm_sq(M: DiscreteManifold, X: np.ndarray) -> np.ndarray:
    return metric_inner(M, X, X)


# ---------------------------------------------------------------------------
# Laplace-Beltrami assembly
# ---------------------------------------------------------------------------


def _grid_stiffness(M: DiscreteManifold) -> tuple[csr_matrix, list[np.ndarray]]:
    """Dirichlet-energy stiffness by corner quadrature over grid cells.

    Also returns, per axis, the stiffness action on that chart coordinate,
    unwrapped across its period seam, from the same cell loop.  A coordinate's
    corner differences vanish exactly along the other axes, so these vectors
    carry no cancellation noise from the stiff fiber terms of ``L``.
    """
    grid = M.grid
    m = grid.dim
    shape = grid.shape
    n_nodes = grid.n_nodes
    h = grid.spacings
    q = grid.cell_volume / (2**m)
    idx = np.arange(n_nodes).reshape(shape)
    ginv = M.metric_inverse().reshape(n_nodes, m, m)
    w = M.volume_element.reshape(n_nodes)

    # node index of cell corner delta relative to the cell's base node
    corner_idx = {}
    for delta in np.ndindex(*(2,) * m):
        shifted = idx
        for ax, d in enumerate(delta):
            if d:
                shifted = np.roll(shifted, -1, axis=ax)
        corner_idx[delta] = shifted.ravel()
    # per axis: cell differences of the unwrapped chart coordinate along it
    coord_diff = []
    for ax, x in enumerate(np.moveaxis(grid.positions(), -1, 0)):
        x_next = np.roll(x, -1, axis=ax)
        x_next[(slice(None),) * ax + (-1,)] += grid.periods[ax]
        coord_diff.append((x_next.ravel() - x.ravel()) / h[ax])

    rows, cols, vals = [], [], []
    coord_actions = [np.zeros(n_nodes) for _ in range(m)]
    for delta in np.ndindex(*(2,) * m):
        nd = corner_idx[delta]
        coeff = q * w[nd]
        for a in range(m):
            da1 = tuple(1 if ax == a else delta[ax] for ax in range(m))
            da0 = tuple(0 if ax == a else delta[ax] for ax in range(m))
            ia1, ia0 = corner_idx[da1], corner_idx[da0]
            for b in range(m):
                gab = ginv[nd, a, b]
                c = coeff * gab / (h[a] * h[b])
                db1 = tuple(1 if ax == b else delta[ax] for ax in range(m))
                db0 = tuple(0 if ax == b else delta[ax] for ax in range(m))
                ib1, ib0 = corner_idx[db1], corner_idx[db0]
                rows.extend((ia1, ia1, ia0, ia0))
                cols.extend((ib1, ib0, ib1, ib0))
                vals.extend((c, -c, -c, c))
                cx = coeff * gab * coord_diff[b] / h[a]
                coord_actions[b][ia1] += cx
                coord_actions[b][ia0] -= cx
    L = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    ).tocsr()
    L.sum_duplicates()
    return L, coord_actions


def laplacian_matrix(M: DiscreteManifold, region: np.ndarray | None = None):
    """Stiffness matrix and mass weights of ``Delta = -div grad``.

    Returns ``(L, mass)`` with ``Delta f = (L f) / mass``; ``L`` is symmetric
    PSD with zero row sums on the closed chart.  ``region`` (boolean mask)
    restricts to an interior sub-block for Dirichlet problems.
    """
    L = _stiffness_and_coordinate_actions(M)[0]
    mass = M.node_weights().ravel()
    if region is not None:
        idx = np.flatnonzero(region.ravel())
        L = L[idx][:, idx].tocsr()
        mass = mass[idx]
    return L, mass


def _stiffness_and_coordinate_actions(M: DiscreteManifold) -> tuple[csr_matrix, list[np.ndarray]]:
    if "stiffness" not in M._cache:
        L, coord_actions = _grid_stiffness(M)
        bad = np.abs(L.diagonal()) <= 0
        if bad.any():
            node = int(np.argmax(bad))
            raise ValueError(f"degenerate metric cell touching node {node}")
        M._cache["stiffness"] = L
        M._cache["coordinate_actions"] = coord_actions
    return M._cache["stiffness"], M._cache["coordinate_actions"]


def stiffness_apply(M: DiscreteManifold, f: np.ndarray, winding=None) -> np.ndarray:
    """Apply the stiffness to a (possibly winding) scalar field, grid-shaped result.

    A winding field is its periodic part ``f - x . winding`` plus a linear
    combination of unwrapped chart coordinates; the result is the stiffness
    action on the unwrapped function.
    """
    L, coord_actions = _stiffness_and_coordinate_actions(M)
    if winding is None or not np.any(winding):
        return (L @ f.ravel()).reshape(M.grid.shape)
    w = np.asarray(winding, dtype=float)
    out = L @ (f - M.positions() @ w).ravel()
    for ax in np.flatnonzero(w):
        out = out + w[ax] * coord_actions[ax]
    return out.reshape(M.grid.shape)


def laplace(M: DiscreteManifold, f: np.ndarray, winding=None) -> np.ndarray:
    """Pointwise ``Delta f = -div grad f`` (positive spectrum convention)."""
    return stiffness_apply(M, f, winding) / M.node_weights()


def factorize(A):
    """SuperLU (COLAMD) factorization of a square sparse matrix as the solve ``b -> x``.

    The factor lives as long as the returned callable; factor once per matrix.
    """
    return splu(A.tocsc(), permc_spec="COLAMD").solve


# ---------------------------------------------------------------------------
# covariant Hessian
# ---------------------------------------------------------------------------


def christoffel_fd(M: DiscreteManifold) -> np.ndarray:
    """Christoffel symbols from centered differences of the metric field."""
    grid = M.grid
    m = grid.dim
    dg = np.stack(
        [_axis_diff(M.metric, ax, grid.spacings[ax], 0.0) for ax in range(m)], axis=-1
    )  # (..., i, j, partial_axis)
    ginv = M.metric_inverse()
    # Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk})
    out = np.zeros(M.metric.shape[:-2] + (m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                s = 0.0
                for l in range(m):
                    s = s + ginv[..., i, l] * (
                        dg[..., l, k, j] + dg[..., l, j, k] - dg[..., j, k, l]
                    )
                out[..., i, j, k] = 0.5 * s
    return out


def _christoffel_at_nodes(M: DiscreteManifold) -> np.ndarray:
    if "christoffel_nodes" not in M._cache:
        if M.christoffel is not None:
            pos = M.positions().reshape(-1, M.dim)
            gam = M.christoffel(pos).reshape(M.grid.shape + (M.dim,) * 3)
        else:
            gam = christoffel_fd(M)
        gam.setflags(write=False)
        M._cache["christoffel_nodes"] = gam
    return M._cache["christoffel_nodes"]


def hessian(M: DiscreteManifold, f: np.ndarray, winding=None) -> np.ndarray:
    """Covariant Hessian ``Hess_ij = d_i d_j f - Gamma^k_ij d_k f``.

    Requires Christoffel data: the analytic closure when the manifold carries
    one, otherwise finite differences of the metric field.
    """
    grid = M.grid
    m = grid.dim
    w = np.zeros(m) if winding is None else np.asarray(winding, dtype=float)
    df = chart_gradient(M, f, winding)
    out = np.zeros(grid.shape + (m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                out[..., i, i] = _axis_diff2(f, i, grid.spacings[i], w[i] * grid.periods[i])
            elif i < j:
                dif = _axis_diff(f, i, grid.spacings[i], w[i] * grid.periods[i])
                out[..., i, j] = _axis_diff(dif, j, grid.spacings[j], 0.0)
                out[..., j, i] = out[..., i, j]
    gam = _christoffel_at_nodes(M)
    out -= np.einsum("...kij,...k->...ij", gam, df)
    return out


def hessian_norm(M: DiscreteManifold, H: np.ndarray) -> np.ndarray:
    """Full metric norm ``|Hess| = sqrt(g^{ik} g^{jl} H_ij H_kl)``."""
    ginv = M.metric_inverse()
    sq = np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, H, H)
    return np.sqrt(np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# averages and sups
# ---------------------------------------------------------------------------


def _weights_for(M: DiscreteManifold, region: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    w = M.node_weights()
    if region is None:
        return w, np.ones_like(w, dtype=bool)
    region = np.asarray(region, dtype=bool)
    if not region.any():
        raise ValueError("empty region")
    return w, region

def l2_average(M: DiscreteManifold, f: np.ndarray, region: np.ndarray | None = None) -> float:
    """Volume-weighted L2 average ``(sum w f^2 / sum w)^(1/2)`` over a region."""
    w, mask = _weights_for(M, region)
    f = np.asarray(f)
    num = float((w[mask] * f[mask] ** 2).sum())
    den = float(w[mask].sum())
    return float(np.sqrt(num / den))


def region_average(M: DiscreteManifold, f: np.ndarray, region: np.ndarray | None = None) -> float:
    """Volume-weighted mean of f over a region (use abs/squares upstream)."""
    w, mask = _weights_for(M, region)
    f = np.asarray(f)
    return float((w[mask] * f[mask]).sum() / w[mask].sum())


def region_sup(f: np.ndarray, region: np.ndarray | None = None) -> float:
    f = np.asarray(f)
    if region is None:
        return float(np.nanmax(f))
    region = np.asarray(region, dtype=bool)
    if not region.any():
        raise ValueError("empty region")
    return float(np.nanmax(f[region]))


# ---------------------------------------------------------------------------
# multilinear interpolation on periodic grids
# ---------------------------------------------------------------------------


# points per interpolation pass: keeps the per-corner temporaries cache-sized
_INTERP_BLOCK = 2048


@functools.lru_cache(maxsize=32)
def _stencil_layout(grid: PeriodicGrid):
    """Per-grid constants of the multilinear interpolation stencil.

    Node total, periods, node counts ``(m, 1)``, spacings, flat node strides
    ``(m, 1)``, and one index per axis.  That index takes the axis's
    ``(lower, upper)`` pair from a ``(2, m, n)`` array and spreads it over the
    axis's own dimension of a ``(2,) * m + (n,)`` block, so that the flattened
    block lists the cell corners in ``np.ndindex`` order.
    """
    m = grid.dim
    strides = [int(np.prod(grid.shape[ax + 1:])) for ax in range(m)]
    spread = tuple(
        tuple(slice(None) if a == ax else None for a in range(m)) + (ax, slice(None)) for ax in range(m)
    )
    arrays = (
        np.asarray(grid.periods),
        np.asarray(grid.shape)[:, None],
        np.asarray(grid.spacings),
        np.asarray(strides)[:, None],
    )
    for a in arrays:
        a.setflags(write=False)      # shared by every caller through the cache
    return (grid.n_nodes, *arrays, spread)


def interp_scalar(M: DiscreteManifold, f: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Periodic multilinear interpolation of a node field at chart points.

    ``f`` has the grid shape, optionally followed by component axes (vector
    or tensor fields), which carry through to the result ``(N, *components)``.

    The cell stencil of each point (its ``2^m`` flat corner indices and
    weights) is built once per call and serves every component.  Fields
    needed at the same points are therefore best stacked on one trailing axis
    and interpolated together, e.g. ``np.concatenate([grad_t, psi[..., None]],
    axis=-1)`` gives velocity and map values from one gather.  Each
    component is accumulated corner by corner from zero, with weights
    multiplied in axis order, so a stacked component is bit-identical to the
    same field interpolated on its own.
    """
    grid = M.grid
    n_nodes, periods, nodes, h, strides, spread = _stencil_layout(grid)
    f = np.asarray(f)
    values = f.reshape(n_nodes, -1)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros((len(pts), values.shape[1]))
    for start in range(0, len(pts), _INTERP_BLOCK):
        block = pts[start:start + _INTERP_BLOCK]
        n = len(block)
        u = np.mod(block, periods) / h                            # the arithmetic of grid.wrap
        cell = np.floor(u)
        frac = (u - cell).T
        # per axis (rows): the lower and upper neighbor's node index and 1-D weight
        lower = cell.T.astype(np.intp, order="C") % nodes
        upper = lower + 1
        upper[upper == nodes] = 0
        offsets = np.array([lower, upper]) * strides              # (2, m, n)
        axis_wgt = np.array([1.0 - frac, frac])                   # (2, m, n)
        flat, wgt = 0, 1.0
        for sel in spread:
            flat = flat + offsets[sel]
            wgt = wgt * axis_wgt[sel]
        corners = np.take(values, flat.reshape(-1, n), axis=0)   # (2^m, n, C)
        acc = out[start:start + n]
        for term in wgt.reshape(-1, n, 1) * corners:
            acc += term
    return out.reshape((len(pts),) + f.shape[grid.dim:])


def interp_metric(M: DiscreteManifold, pts: np.ndarray) -> np.ndarray:
    return interp_scalar(M, M.metric, pts)
