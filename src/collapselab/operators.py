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
periodic part plus one precomputed vector per winding axis.

Sparse solves go through SuperLU, or through the fill-free
:func:`circulant_pcg` (CG with an FFT-inverted circulant preconditioner) for
SPD matrices over the whole periodic grid, such as the cutoff mollifier.
SuperLU comes in two orderings.  :func:`factorize` orders columns by COLAMD
on the stored structure, explicit zeros included; the constant-metric
shift-invert eigensolve and the harmonic coordinates use it, and their bits
are pinned by that ordering.  :func:`factorize_symmetric` drops stored zeros
and orders by minimum degree on ``A^T + A``, which suits a symmetric matrix:
on the warped 512 x 102 pinned stiffness it keeps 2.8M factor entries where
COLAMD, zeros included, keeps 8.9M.  A singular stiffness, of the whole
chart or of a warped product's base block, is solved through
:func:`pinned_stiffness_solve`, which takes the matrix, its mass and either
factor.  Its callers factor once per call and cache nothing on the manifold,
so a factor lives only as long as the call that made it.

Every volume-weighted mean over a region goes through :func:`region_average`;
an L2 average is the square root of the mean of the squared field.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import LinearOperator, cg, splu

from .manifold import DiscreteManifold, PeriodicGrid, _cached, _csr_from_rows, _grid_roll, _read_only

__all__ = [
    "gradient",
    "metric_inner",
    "norm_sq",
    "laplacian_matrix",
    "laplace",
    "factorize",
    "factorize_symmetric",
    "pinned_stiffness_solve",
    "circulant_pcg",
    "hessian",
    "hessian_norm",
    "christoffel_fd",
    "region_average",
    "region_sup",
    "interp_scalar",
    "stencil_probe",
]


# ---------------------------------------------------------------------------
# finite differences with winding-aware wrap
# ---------------------------------------------------------------------------


def _seam_neighbors(f: np.ndarray, axis: int, wrap_add: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward neighbors along one periodic axis.

    ``wrap_add`` is the jump of the represented function across the period
    seam (winding * period); zero for ordinary periodic fields.
    """
    fp, fm = np.roll(f, -1, axis=axis), np.roll(f, 1, axis=axis)
    if wrap_add:
        fp[(slice(None),) * axis + (-1,)] += wrap_add
        fm[(slice(None),) * axis + (0,)] -= wrap_add
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
    # accumulated from zero over i, j in order: the bits of
    # einsum("...i,...ij,...j->..."), without its generic loop
    g = M.metric
    out = np.zeros(np.broadcast_shapes(X.shape[:-1], g.shape[:-2], Y.shape[:-1]))
    for i, j in np.ndindex(*g.shape[-2:]):
        out += X[..., i] * g[..., i, j] * Y[..., j]
    return out


def norm_sq(M: DiscreteManifold, X: np.ndarray) -> np.ndarray:
    """Pointwise |X|^2 = g(X, X), clipped at 0 against round-off."""
    return np.maximum(metric_inner(M, X, X), 0.0)


# ---------------------------------------------------------------------------
# Laplace-Beltrami assembly
# ---------------------------------------------------------------------------


def _grid_stiffness(M: DiscreteManifold) -> tuple[csr_matrix, list[np.ndarray]]:
    """Dirichlet-energy stiffness by corner quadrature over grid cells.

    Also returns, per axis, the stiffness action on that chart coordinate,
    unwrapped across its period seam, from the same cell loop.  A coordinate's
    corner differences vanish exactly along the other axes, so these vectors
    carry no cancellation noise from the stiff fiber terms of ``L``.

    Each ``(corner, a, b)`` term adds four blocks of one entry per cell, whose
    rows are a corner map of the cells: on the periodic grid, a roll.  Block
    ``s`` gives row ``r`` the entry ``+-F_ab`` (``F_ab = q w g^ab / (h_a h_b)``)
    of the cell with ``r`` at that corner, in column ``r`` plus an offset in
    ``{-1, 0, 1}^m``.  ``L`` is the CSR that a COO scatter of the blocks in
    this order makes: each row lists its entries in block order, and
    ``sum_duplicates`` sorts it by column, a permutation set by the column
    order alone, then sums equal columns left to right.  Interior rows
    (``1 <= i <= N - 2`` on every axis) share one column order, so the sort of
    one such row orders every interior sum, added per offset over the whole
    interior; the seam rows stage their blocks through ``_csr_from_rows``.
    """
    grid = M.grid
    m = grid.dim
    shape = grid.shape
    n_nodes = grid.n_nodes
    h = grid.spacings
    q = grid.cell_volume / (2**m)
    ginv = M.metric_inverse().reshape(n_nodes, m, m)
    qw = q * M.volume_element.reshape(n_nodes)
    # per node and (a, b): the cell coefficient q w g^ab of that corner, and F_ab
    G = {(a, b): qw * ginv[:, a, b] for a, b in np.ndindex(m, m)}
    F = {(a, b): G[a, b] / (h[a] * h[b]) for a, b in np.ndindex(m, m)}
    # per axis: cell differences of the unwrapped chart coordinate along it
    coord_diff = []
    for ax, x in enumerate(np.moveaxis(grid.positions(), -1, 0)):
        x_next = np.roll(x, -1, axis=ax)
        x_next[(slice(None),) * ax + (-1,)] += grid.periods[ax]
        coord_diff.append((x_next.ravel() - x.ravel()) / h[ax])

    blocks = []            # (shift, roll, (a, b), sign): row r's column r - shift, value sign F_ab[r - roll]
    coord_actions = [np.zeros(n_nodes) for _ in range(m)]
    for delta in np.ndindex(*(2,) * m):
        for a in range(m):
            da1 = tuple(1 if ax == a else delta[ax] for ax in range(m))
            da0 = tuple(0 if ax == a else delta[ax] for ax in range(m))
            for b in range(m):
                db1 = tuple(1 if ax == b else delta[ax] for ax in range(m))
                db0 = tuple(0 if ax == b else delta[ax] for ax in range(m))
                # blocks (da1, db1, c), (da1, db0, -c), (da0, db1, -c), (da0, db0, c), c = F_ab
                # at corner delta: row r's cell is r - da, its columns r - da + db
                blocks += [(np.subtract(da, db), np.subtract(da, delta), (a, b), sa * sb)
                           for da, sa in ((da1, 1), (da0, -1)) for db, sb in ((db1, 1), (db0, -1))]
                cx = _grid_roll(grid, G[a, b], np.negative(delta)) * coord_diff[b] / h[a]
                coord_actions[b] += _grid_roll(grid, cx, da1)
                coord_actions[b] -= _grid_roll(grid, cx, da0)

    interior = np.zeros(shape, dtype=bool)
    interior[(slice(1, -1),) * m] = True
    seam = np.flatnonzero(~interior)
    seam_node = np.unravel_index(seam, shape)
    # per shift in {-1, 0, 1}^m: the flat index of each seam node minus the shift, wrapped
    at = {d: np.ravel_multi_index(np.subtract(seam_node, np.array(d)[:, None]), shape, mode="wrap")
          for d in itertools.product((-1, 0, 1), repeat=m)}
    cols = np.empty((len(seam), len(blocks)), dtype=np.int32)
    vals = np.empty(cols.shape)
    for s, (shift, roll, ab, sign) in enumerate(blocks):
        cols[:, s], vals[:, s] = at[tuple(shift)], sign * F[ab][at[tuple(roll)]]
    S = _csr_from_rows(cols, vals, n_nodes)
    if not interior.any():                             # an axis of fewer than 3 nodes: every row is a seam row
        return S, coord_actions
    strides = np.array([math.prod(shape[ax + 1:]) for ax in range(m)])
    rep = int(strides.sum())                           # node (1, ..., 1)
    one = csr_matrix((np.arange(len(blocks), dtype=float), [rep - b[0] @ strides for b in blocks],
                      [0, len(blocks)]), shape=(1, n_nodes))
    one.has_sorted_indices = False                     # L's staged rows always sort: some are out of order
    one.sort_indices()
    starts = np.flatnonzero(np.diff(one.indices, prepend=-1))
    # with 3 or more nodes per axis, every row holds each stencil offset once
    inner, K = (slice(1, -1),) * m, len(starts)
    data, indices = np.empty((n_nodes, K)), np.empty((n_nodes, K), dtype=S.indices.dtype)
    data[seam], indices[seam] = S.data.reshape(-1, K), S.indices.reshape(-1, K)
    node = np.arange(n_nodes).reshape(shape)[inner]
    for k, (start, stop) in enumerate(zip(starts, [*starts[1:], len(blocks)])):
        acc = None
        for s in one.data[start:stop].astype(int):
            _, roll, ab, sign = blocks[s]
            f = F[ab].reshape(shape)[tuple(slice(1 - v, n - 1 - v) for v, n in zip(roll, shape))]
            acc = sign * f if acc is None else (np.add if sign > 0 else np.subtract)(acc, f, out=acc)
        data.reshape(shape + (K,))[inner + (k,)] = acc
        indices.reshape(shape + (K,))[inner + (k,)] = node + (one.indices[start] - rep)
    indptr = np.arange(0, K * n_nodes + 1, K, dtype=S.indptr.dtype)
    return csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(n_nodes, n_nodes)), coord_actions


def laplacian_matrix(M: DiscreteManifold):
    """Stiffness matrix and mass weights of ``Delta = -div grad`` on the closed chart.

    Returns ``(L, mass)`` with ``Delta f = (L f) / mass``; ``L`` is symmetric
    PSD with zero row sums.
    """
    return _stiffness_and_coordinate_actions(M)[0], M.node_weights().ravel()


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


def laplace(M: DiscreteManifold, f: np.ndarray) -> np.ndarray:
    """Pointwise ``Delta f = -div grad f`` (positive spectrum convention)."""
    return stiffness_apply(M, f) / M.node_weights()


def factorize(A):
    """SuperLU (COLAMD) factorization of a square sparse matrix as the solve ``b -> x``.

    The column ordering reads ``A``'s stored structure, explicit zeros
    included, so a different structure gives different round-off.  The factor
    lives as long as the returned callable; factor once per matrix.
    """
    return splu(A.tocsc(), permc_spec="COLAMD").solve


def factorize_symmetric(A):
    """SuperLU factorization of a structurally symmetric sparse matrix as the solve ``b -> x``.

    Stored zeros are dropped, since SuperLU would factor them as nonzeros, and
    the columns are ordered by multiple minimum degree on ``A^T + A`` (Liu,
    ACM TOMS 1985), a fill-reducing ordering for symmetric patterns where
    COLAMD orders for ``A^T A``.  The factor lives as long as the returned
    callable; factor once per matrix.
    """
    A = A.tocsc(copy=True)
    A.eliminate_zeros()
    return splu(A, permc_spec="MMD_AT_PLUS_A").solve


def pinned_stiffness_solve(L, mass: np.ndarray, factor):
    """The solve ``b -> x`` of ``L x = b`` for a stiffness ``L`` whose kernel
    is the constants, for ``b`` of zero sum.

    Row and column 0 are pinned to the unit vector, ``b[0]`` is dropped (the
    row-0 equation follows from the others when ``b`` sums to zero) and ``x``
    is returned with ``mass``-weighted mean zero.  ``factor`` factors the
    pinned matrix, in CSC format (:func:`_pin_first_node`), once, here:
    :func:`factorize` for the harmonic coordinates, whose bits its COLAMD
    order fixes, and :func:`factorize_symmetric` for the eigensolve, on the
    whole chart or on the base block of a warped product.  The factor lives
    as long as the returned callable; nothing is cached.
    """
    solve = factor(_pin_first_node(L))

    def pinned(b: np.ndarray) -> np.ndarray:
        b = b.copy()
        b[0] = 0.0
        x = solve(b)
        x -= (mass * x).sum() / mass.sum()
        return x

    return pinned


def _pin_first_node(L) -> csc_matrix:
    """``L`` in CSC format with row and column 0 replaced by the unit vector:
    their stored entries dropped, then ``(0, 0) = 1``.  The other stored
    entries keep their order, explicit zeros included: :func:`factorize`
    orders the columns by this structure, and so sets the round-off of the
    harmonic coordinates (:func:`factorize_symmetric` drops the zeros)."""
    A = L.tocsc()
    keep = A.indices != 0
    keep[:A.indptr[1]] = False                 # column 0
    indptr = np.zeros_like(A.indptr)           # the index arrays keep L's dtype
    indptr[1:] = 1 + np.concatenate([[0], np.cumsum(keep)])[A.indptr[1:]]
    return csc_matrix((np.insert(A.data[keep], 0, 1.0), np.insert(A.indices[keep], 0, 0), indptr), shape=L.shape)


# CG iteration cap of circulant_pcg (the warped 512 x 102 cutoff takes 18)
# and the relative true residual each of its solves must reach
CG_MAX_ITER = 200
CG_RTOL = 1e-13
# Backward error |Ax - b| / (||A| |x|| + |b|) (2-norms; Rigal and Gaches, J. ACM
# 1967; Higham, Accuracy and Stability of Numerical Algorithms, 7.1) accepted
# where CG_RTOL is out of reach: once |A| |x| outgrows |b|, round-off alone
# leaves more than 1e-13 |b|.  SuperLU reaches 9.0e-17 and 8.7e-17 on the flat
# cutoff systems at 846 and 1024 nodes per unit, where CG_RTOL fails; the
# tolerance leaves ten times that.
CG_BACKWARD_TOL = 1e-15


def _circulant_symbol(A, shape: tuple[int, ...]) -> np.ndarray:
    """Eigenvalues (``rfftn`` layout) of T. Chan's optimal circulant of a symmetric
    matrix over the periodic grid ``shape`` (flat C order): per periodic stencil
    offset (``col - row`` per axis, wrapped, from the CSR arrays in integers), the
    mean of ``A``'s entries over all nodes, summed in CSR storage order."""
    csr, n = A.tocsr(), A.shape[0]
    offset, node, cols = np.zeros(csr.nnz, dtype=np.intp), np.arange(n), csr.indices.astype(np.intp)
    for ax, N in enumerate(shape):
        stride = math.prod(shape[ax + 1:])
        offset += (cols // stride % N - np.repeat(node // stride % N, np.diff(csr.indptr))) % N * stride
    means = np.bincount(offset, csr.data, n) / n
    return np.fft.rfftn(means.reshape(shape)).real    # real as A is symmetric


def circulant_pcg(A, shape: tuple[int, ...]):
    """CG on an SPD matrix over the periodic grid ``shape`` (flat C order) as
    the solve ``b -> x``, preconditioned by T. Chan's optimal circulant (SIAM
    J. Sci. Stat. Comput. 1988; :func:`_circulant_symbol`).  On a constant
    metric it is ``A`` itself.

    A solve restarts CG from its last iterate and returns the first iterate
    whose true residual is within ``CG_RTOL |b|``.  Once a restart fails to
    lower the true residual, or the iterations run out, it also returns the
    last iterate if its backward error is within ``CG_BACKWARD_TOL``; it
    raises ``RuntimeError`` when the iterations run out without either (NaN
    included).  So every solve that meets the residual test while its
    residuals fall returns the iterate it returned before the backward error
    was admitted.
    """
    n = A.shape[0]
    symbol = _circulant_symbol(A, shape)
    if not symbol.min() > 0:
        raise ValueError(f"circulant preconditioner is not positive definite: min eigenvalue {symbol.min():.3e}")
    axes = tuple(range(len(shape)))
    P = LinearOperator((n, n), dtype=float, matvec=lambda r: np.fft.irfftn(
        np.fft.rfftn(r.reshape(shape)) / symbol, s=shape, axes=axes).ravel())

    def solve(b: np.ndarray) -> np.ndarray:
        # CG stops on its recursive residual, which can undershoot the true one
        # (warped cutoff: 1.2e-13 |b|); restart from x while CG makes progress
        iterations, done, x, b_norm, last = [], -1, None, np.linalg.norm(b), np.inf

        def backward_error(x, residual):
            return residual / (np.linalg.norm(abs(A) @ np.abs(x)) + b_norm)

        while done < len(iterations) < CG_MAX_ITER:
            done = len(iterations)
            x, _ = cg(A, b, x0=x, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAX_ITER - done, M=P,
                      callback=lambda xk: iterations.append(None))
            residual = np.linalg.norm(A @ x - b)
            if residual <= CG_RTOL * b_norm:
                return x
            # stalled (flat cutoff at 846 nodes per unit: 1.13e-13, 1.01e-13,
            # then no lower): round-off bounds the residual, so ask the backward error
            if residual >= last and backward_error(x, residual) <= CG_BACKWARD_TOL:
                return x
            last = residual
        backward = backward_error(x, residual)
        if backward <= CG_BACKWARD_TOL:
            return x
        raise RuntimeError(f"circulant-preconditioned CG failed after {len(iterations)} iterations: "
                           f"residual {residual:.3e} > {CG_RTOL:.0e} |b| = {CG_RTOL * b_norm:.3e}, "
                           f"backward error {backward:.3e} > {CG_BACKWARD_TOL:.0e}")

    return solve


# ---------------------------------------------------------------------------
# covariant Hessian
# ---------------------------------------------------------------------------


def christoffel_fd(M: DiscreteManifold) -> np.ndarray:
    """Christoffel symbols from centered differences of the metric field."""
    grid = M.grid
    m = grid.dim
    # (..., i, j, partial_axis)
    dg = np.stack([_axis_diff(M.metric, ax, grid.spacings[ax], 0.0) for ax in range(m)], axis=-1)
    ginv = M.metric_inverse()
    # Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk})
    out = np.zeros(M.metric.shape[:-2] + (m, m, m))
    for i, j, k in np.ndindex(m, m, m):
        s = 0.0
        for l in range(m):
            s = s + ginv[..., i, l] * (dg[..., l, k, j] + dg[..., l, j, k] - dg[..., j, k, l])
        out[..., i, j, k] = 0.5 * s
    return out


def _christoffel_at_nodes(M: DiscreteManifold) -> np.ndarray:
    if M.christoffel is not None:
        return M.christoffel
    return _cached(M, "christoffel_fd", lambda: _read_only(christoffel_fd(M)))


def hessian(M: DiscreteManifold, f: np.ndarray, winding=None) -> np.ndarray:
    """Covariant Hessian ``Hess_ij = d_i d_j f - Gamma^k_ij d_k f``.

    The symbols are the manifold's node array ``M.christoffel`` when it
    carries one, otherwise finite differences of the metric field.
    """
    grid = M.grid
    m = grid.dim
    w = np.zeros(m) if winding is None else np.asarray(winding, dtype=float)
    df = chart_gradient(M, f, winding)
    out = np.zeros(grid.shape + (m, m))
    for i, j in np.ndindex(m, m):
        if i == j:
            out[..., i, i] = _axis_diff2(f, i, grid.spacings[i], w[i] * grid.periods[i])
        elif i < j:
            dif = _axis_diff(f, i, grid.spacings[i], w[i] * grid.periods[i])
            out[..., i, j] = out[..., j, i] = _axis_diff(dif, j, grid.spacings[j], 0.0)
    gam = _christoffel_at_nodes(M)
    out -= np.einsum("...kij,...k->...ij", gam, df)
    return out


def hessian_norm(M: DiscreteManifold, H: np.ndarray) -> np.ndarray:
    """Full metric norm ``|Hess| = sqrt(g^{ik} g^{jl} H_ij H_kl)``."""
    ginv = M.metric_inverse()
    # accumulated from zero over i, j, k, l in order: the bits of
    # einsum("...ik,...jl,...ij,...kl->..."), without its generic loop
    sq = np.zeros(H.shape[:-2])
    for i, j, k, l in np.ndindex(*(M.dim,) * 4):
        sq += ginv[..., i, k] * ginv[..., j, l] * H[..., i, j] * H[..., k, l]
    return np.sqrt(np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# averages and sups
# ---------------------------------------------------------------------------


def region_average(M: DiscreteManifold, f: np.ndarray, region: np.ndarray) -> float:
    """Volume-weighted mean of f over a region (a boolean node mask)."""
    w = M.node_weights()
    mask = np.asarray(region, dtype=bool)
    if not mask.any():
        raise ValueError("empty region")
    f = np.asarray(f)
    return float((w[mask] * f[mask]).sum() / w[mask].sum())


def region_sup(f: np.ndarray, region: np.ndarray) -> float:
    """The largest value of f over a region (a boolean node mask); NaN if
    any value there is NaN."""
    region = np.asarray(region, dtype=bool)
    if not region.any():
        raise ValueError("empty region")
    return float(np.max(np.asarray(f)[region]))


# ---------------------------------------------------------------------------
# multilinear interpolation on periodic grids
# ---------------------------------------------------------------------------


def _stencil_layout(grid: PeriodicGrid):
    """Per-grid constants of the multilinear interpolation stencil.

    Periods, node counts ``(m, 1)``, spacings, flat node strides ``(m, 1)``,
    and one index per axis.  That index takes the axis's ``(lower, upper)``
    pair from a ``(2, m, n)`` array and spreads it over the axis's own
    dimension of a ``(2,) * m + (n,)`` array, so that the flattened array
    lists the cell corners in ``np.ndindex`` order.
    """
    m = grid.dim
    strides = [int(np.prod(grid.shape[ax + 1:])) for ax in range(m)]
    spread = tuple(
        tuple(slice(None) if a == ax else None for a in range(m)) + (ax, slice(None)) for ax in range(m)
    )
    return (np.asarray(grid.periods), np.asarray(grid.shape)[:, None], np.asarray(grid.spacings),
            np.asarray(strides)[:, None], spread)


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
    same field interpolated on its own.  Loops that query one point at a time
    use a :func:`stencil_probe` of the field instead: the same arithmetic in
    Python floats, without the array set-up that dominates a one-point call.
    """
    grid = M.grid
    periods, nodes, h, strides, spread = _stencil_layout(grid)
    f = np.asarray(f)
    values = f.reshape(grid.n_nodes, -1)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    u = np.mod(pts, periods) / h                                  # the arithmetic of grid.wrap
    cell = np.floor(u)
    frac = (u - cell).T
    # per axis (rows): the lower and upper neighbor's node index and 1-D weight
    lower = cell.T.astype(np.intp, order="C") % nodes
    upper = lower + 1
    upper[upper == nodes] = 0
    offsets = np.array([lower, upper]) * strides                  # (2, m, n)
    axis_wgt = np.array([1.0 - frac, frac])                       # (2, m, n)
    flat, wgt = 0, 1.0
    for sel in spread:
        flat = flat + offsets[sel]
        wgt = wgt * axis_wgt[sel]
    n_corners = 2**grid.dim
    corners = np.take(values, flat.reshape(n_corners, n), axis=0)    # (2^m, n, C)
    out = np.zeros((n, values.shape[1]))
    for term in wgt.reshape(n_corners, n, 1) * corners:
        out += term
    return out.reshape((n,) + f.shape[grid.dim:])


def _dot(a, b) -> float:
    """Sum of products accumulated from 0.0 in order, as ``interp_scalar`` sums corners."""
    s = 0.0
    for ai, bi in zip(a, b):
        s += ai * bi
    return s


def stencil_probe(M: DiscreteManifold, f: np.ndarray, n_gradients: int = 0):
    """The single-point form of :func:`interp_scalar`, built once per node field.

    Returns ``probe(x) -> (values, gradients)`` for one chart point ``x`` (a
    sequence of ``m`` floats): ``values`` lists the trailing components of
    ``f`` flattened, in Python floats bit-identical to ``interp_scalar`` at
    that point, and ``gradients`` holds, for each of the first
    ``n_gradients`` components, its ``m`` chart derivatives in the cell of
    ``x`` (the exact derivative of the multilinear form, one-sided on a cell
    face).  A point that is not finite gives NaN throughout.  The probe keeps
    the corner rows of the last cell it visited, so successive points in one
    cell gather nothing.
    """
    grid = M.grid
    m = grid.dim
    values = np.asarray(f).reshape(grid.n_nodes, -1)
    n_comp = values.shape[1]
    strides = [int(np.prod(grid.shape[ax + 1:])) for ax in range(m)]
    spacings = [float(h) for h in grid.spacings]
    axes = list(zip([float(p) for p in grid.periods], spacings, grid.shape))
    cell, columns = None, None

    def corner_weights(factors):
        # axis-order products from 1.0, corners in np.ndindex order
        wgt = [1.0]
        for lo, hi in factors:
            wgt = [w * t for w in wgt for t in (lo, hi)]
        return wgt

    def probe(x):
        nonlocal cell, columns
        lower, frac = [], []
        try:
            for xi, (p, h, n) in zip(x, axes):
                u = xi % p % p / h             # grid.wrap, then the mod inside interp_scalar
                c = math.floor(u)
                lower.append(c % n)
                frac.append(u - c)
        except (ValueError, OverflowError):    # NaN or infinite coordinate
            return [math.nan] * n_comp, [[math.nan] * m for _ in range(n_gradients)]
        if lower != cell:
            flat = [0]
            for ax, lo in enumerate(lower):
                hi = lo + 1 if lo + 1 < axes[ax][2] else 0
                flat = [i + j * strides[ax] for i in flat for j in (lo, hi)]
            cell, columns = lower, list(zip(*values[flat].tolist()))
        factors = [(1.0 - t, t) for t in frac]
        wgt = corner_weights(factors)
        vals = [_dot(wgt, col) for col in columns]
        if not n_gradients:
            return vals, []
        # per axis: the corner weights with that axis's factor differentiated
        dwgt = [corner_weights(factors[:ax] + [(-1.0, 1.0)] + factors[ax + 1:]) for ax in range(m)]
        grads = [[_dot(w, col) / h for w, h in zip(dwgt, spacings)] for col in columns[:n_gradients]]
        return vals, grads

    return probe

