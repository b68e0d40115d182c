import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from collapselab import DiscreteManifold, FamilySpec, build_family
from collapselab.operators import (
    _grid_stiffness,
    chart_gradient,
    christoffel_fd,
    coordinate_actions,
    gradient,
    hessian,
    hessian_norm,
    interp_scalar,
    laplace,
    laplacian_matrix,
    metric_inner,
    region_average,
    region_sup,
    stencil_probe,
    stiffness_apply,
)


def grad_norm(M, f, winding=None):
    g = gradient(M, f, winding)
    return np.sqrt(np.maximum(metric_inner(M, g, g), 0.0))


def test_gradient_base_mode(flat_torus):
    pos = flat_torus.positions()
    f = np.sin(2 * np.pi * pos[..., 0])
    gn = grad_norm(flat_torus, f)
    assert gn.max() == pytest.approx(2 * np.pi, rel=1e-3)
    # pointwise against the analytic derivative, up to the sinc factor
    exact = 2 * np.pi * np.abs(np.cos(2 * np.pi * pos[..., 0]))
    assert np.max(np.abs(gn - exact)) <= 2 * np.pi * (2 * np.pi / 256) ** 2


def test_gradient_constant_zero(flat_torus):
    f = np.full(flat_torus.grid.shape, 3.7)
    assert np.max(np.abs(gradient(flat_torus, f))) == 0.0


def test_gradient_fiber_mode_metric_inverse(flat_torus):
    # one oscillation around the fiber circle of metric length eps:
    # |grad| peaks at 2 pi / eps through g^{yy} = eps^-2
    pos = flat_torus.positions()
    f = np.sin(2 * np.pi * pos[..., 1])
    gn = grad_norm(flat_torus, f)
    # centered differences carry a sinc(2 pi / n_y) factor: 0.64% at 32 nodes
    assert gn.max() == pytest.approx(2 * np.pi / 0.1, rel=1e-2)


def test_gradient_of_winding_coordinate(flat_torus):
    pos = flat_torus.positions()
    g = gradient(flat_torus, pos[..., 0], winding=(1, 0))
    assert np.max(np.abs(g[..., 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(g[..., 1])) <= 1e-12


def test_laplace_analytic_and_order():
    errs = []
    for res in ((128, 16), (256, 32)):
        M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=res))
        pos = M.positions()
        f = np.sin(2 * np.pi * pos[..., 0])
        errs.append(np.max(np.abs(laplace(M, f) - 4 * np.pi**2 * f)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_laplace_constant_exact(flat_torus):
    # row sums cancel to rounding; dividing by the small mass rescales the
    # noise, so compare against the operator scale (max eigenvalue ~ 1e5)
    f = np.full(flat_torus.grid.shape, 2.0)
    L, mass = laplacian_matrix(flat_torus)
    scale = float(np.max(L.diagonal() / mass))
    assert np.max(np.abs(laplace(flat_torus, f))) <= 1e-12 * scale


def test_divergence_theorem(flat_torus, warped_torus, twisted_torus):
    rng = np.random.default_rng(7)
    for M in (flat_torus, warped_torus, twisted_torus):
        f = rng.standard_normal(M.grid.shape)
        total = float((laplace(M, f) * M.node_weights()).sum())
        assert abs(total) <= 1e-10 * np.abs(f).max() * M.grid.n_nodes ** 0.5


def test_operator_symmetry_and_psd(warped_torus):
    L, mass = laplacian_matrix(warped_torus)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(L.shape[0])
        y = rng.standard_normal(L.shape[0])
        scale = max(1.0, abs(x @ (L @ x)))
        assert abs(x @ (L @ y) - y @ (L @ x)) <= 1e-10 * scale
        assert x @ (L @ x) >= -1e-10 * scale


def test_stiffness_row_sums_zero(warped_torus):
    L, _ = laplacian_matrix(warped_torus)
    ones = np.ones(L.shape[0])
    assert np.max(np.abs(L @ ones)) <= 1e-10


def cell_loop_stiffness_apply(M, f, winding):
    """Reference: corner quadrature cell by cell on the unwrapped field, whose
    cell corners take the seam jump winding * period where a cell wraps."""
    grid = M.grid
    m, n, h = grid.dim, grid.n_nodes, grid.spacings
    q = grid.cell_volume / 2**m
    ginv = M.metric_inverse().reshape(n, m, m)
    vol = M.volume_element.ravel()
    corner_idx, corner_val = {}, {}
    for delta in np.ndindex(*(2,) * m):
        shifted, vals = np.arange(n).reshape(grid.shape), f
        for ax, d in enumerate(delta):
            if d:
                shifted = np.roll(shifted, -1, axis=ax)
                vals = np.roll(vals, -1, axis=ax)
                vals[(slice(None),) * ax + (-1,)] += winding[ax] * grid.periods[ax]
        corner_idx[delta], corner_val[delta] = shifted.ravel(), vals.ravel()
    out = np.zeros(n)
    for delta in np.ndindex(*(2,) * m):
        nd = corner_idx[delta]
        for a in range(m):
            da1 = tuple(1 if ax == a else delta[ax] for ax in range(m))
            da0 = tuple(0 if ax == a else delta[ax] for ax in range(m))
            for b in range(m):
                db1 = tuple(1 if ax == b else delta[ax] for ax in range(m))
                db0 = tuple(0 if ax == b else delta[ax] for ax in range(m))
                dbf = (corner_val[db1] - corner_val[db0]) / h[b]
                c = q * vol[nd] * ginv[nd, a, b] * dbf / h[a]
                out[corner_idx[da1]] += c  # each corner map is a permutation of the nodes
                out[corner_idx[da0]] -= c
    return out.reshape(grid.shape)


def winding_action(M, f, w):
    """The stiffness action on a winding field: ``L`` on its periodic part
    plus, per axis, its winding times that coordinate's action."""
    out = stiffness_apply(M, f - M.positions() @ w).ravel()
    for ax in np.flatnonzero(w):
        out = out + w[ax] * coordinate_actions(M)[ax]
    return out.reshape(M.grid.shape)


@pytest.mark.parametrize("family", ["warped_torus", "twisted_torus"])
def test_stiffness_apply_matches_cell_loop(request, family):
    M = request.getfixturevalue(family)
    L, _ = laplacian_matrix(M)
    scale = float(np.max(np.abs(L.diagonal())))
    pos = M.positions()
    for ax in range(M.dim):
        # a chart coordinate runs through the same arithmetic: equal bits, so
        # harmonic coordinates stay exactly unchanged
        assert np.array_equal(coordinate_actions(M)[ax].reshape(M.grid.shape),
                              cell_loop_stiffness_apply(M, pos[..., ax], np.eye(M.dim)[ax]))
    w = np.array([2.0, -1.0, 1.0][: M.dim])
    f = pos @ w + 0.1 * np.random.default_rng(5).standard_normal(M.grid.shape)
    diff = winding_action(M, f, w) - cell_loop_stiffness_apply(M, f, w)
    assert np.max(np.abs(diff)) <= 1e-14 * scale


def coo_scatter_stiffness(M):
    """Reference: every corner-quadrature block scattered as COO triplets,
    block after block, and compressed by ``tocsr`` (the COO assembly), with
    the coordinate actions from the same loop."""
    grid = M.grid
    m, n_nodes, h = grid.dim, grid.n_nodes, grid.spacings
    q = grid.cell_volume / (2**m)
    idx = np.arange(n_nodes).reshape(grid.shape)
    ginv = M.metric_inverse().reshape(n_nodes, m, m)
    w = M.volume_element.reshape(n_nodes)
    corner_idx = {}
    for delta in np.ndindex(*(2,) * m):
        shifted = idx
        for ax, d in enumerate(delta):
            if d:
                shifted = np.roll(shifted, -1, axis=ax)
        corner_idx[delta] = shifted.ravel()
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
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_nodes, n_nodes)
    ).tocsr()
    L.sum_duplicates()
    return L, coord_actions


def csr_bytes(A):
    return [(a.dtype.str, a.tobytes()) for a in (A.indptr, A.indices, A.data)]


@pytest.mark.parametrize("family", ["warped_torus", "twisted_torus", "flat_eig_torus", "doubly_warped",
                                    "random_2x16", "random_16x3", "random_2x3x5", "random_3x6x4"])
def test_stiffness_matches_coo_assembly_bit_for_bit(request, family):
    M = request.getfixturevalue(family)
    L, coord_actions = _grid_stiffness(M)
    ref_L, ref_actions = coo_scatter_stiffness(M)
    assert csr_bytes(L) == csr_bytes(ref_L)
    assert [a.tobytes() for a in coord_actions] == [a.tobytes() for a in ref_actions]


# tracemalloc peak of _grid_stiffness on the warped 128 x 16 fixture: 0.89 MB
# measured for the interior sums in stencil order, 3.55 MB for the staging of
# every row's 64 entries they replaced, 5.23 MB for the COO assembly before that
STIFFNESS_PEAK_BYTES = 1_500_000


def test_stiffness_assembly_memory(warped_torus):
    warped_torus.metric_inverse()    # cached on the manifold, outside the assembly
    tracemalloc.start()
    try:
        _grid_stiffness(warped_torus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STIFFNESS_PEAK_BYTES


@pytest.mark.parametrize("s", [1, 37])
def test_stiffness_apply_seam_invariance(warped_torus, s):
    # moving the chart seam by s nodes along x must not change the stiffness
    # action on a winding field: roll metric, volume and field together and
    # unwrap the field on the rows that crossed the seam
    M = warped_torus
    rolled = DiscreteManifold(grid=M.grid, metric=np.roll(M.metric, s, axis=0))
    w = np.array([2.0, -1.0])
    rng = np.random.default_rng(3)
    f = M.positions() @ w + 0.1 * rng.standard_normal(M.grid.shape)
    f_rolled = np.roll(f, s, axis=0)
    f_rolled[:s] -= w[0] * M.grid.periods[0]
    L, _ = laplacian_matrix(M)
    scale = float(np.max(np.abs(L.diagonal())))
    expected = np.roll(winding_action(M, f, w), s, axis=0)
    assert np.max(np.abs(winding_action(rolled, f_rolled, w) - expected)) <= 1e-12 * scale


def test_hessian_flat_base_mode(flat_torus):
    pos = flat_torus.positions()
    f = np.sin(2 * np.pi * pos[..., 0])
    H = hessian(flat_torus, f)
    exact = -4 * np.pi**2 * f
    assert np.max(np.abs(H[..., 0, 0] - exact)) <= 4 * np.pi**2 * (2 * np.pi / 256) ** 2
    assert np.max(np.abs(H[..., 0, 1])) == 0.0
    assert np.max(np.abs(H[..., 1, 1])) == 0.0


def test_hessian_of_chart_linear_function(flat_torus):
    # the coordinate itself: flat Christoffels vanish, second differences too
    pos = flat_torus.positions()
    H = hessian(flat_torus, pos[..., 0], winding=(1, 0))
    assert np.max(np.abs(H)) <= 1e-10


def test_hessian_warped_christoffel_vs_fd():
    # f = y on the warped torus: Hess_xy = -Gamma^y_xy = -w'/w analytically;
    # the finite-difference Christoffel fallback must converge to the node symbols
    errs = []
    for res in ((64, 16), (128, 32)):
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=res))
        pos = M.positions()
        x = pos[..., 0]
        w = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        wp = 0.3 * 2 * np.pi * np.cos(2 * np.pi * x)
        H = hessian(M, pos[..., 1], winding=(0, 1))
        assert np.max(np.abs(H[..., 0, 1] + wp / w)) <= 1e-10  # analytic symbols are exact here
        M_fd = dataclasses.replace(M, christoffel=None)
        H_fd = hessian(M_fd, pos[..., 1], winding=(0, 1))
        errs.append(np.max(np.abs(H_fd - H)))
    assert np.log2(errs[0] / errs[1]) >= 1.8


@pytest.mark.parametrize("name", ["flat_eig_torus", "flat_torus", "twisted_torus"])
def test_constant_metrics_take_exact_zero_christoffels_from_differences(request, name):
    # flat and twisted charts carry no symbols: differences of a constant
    # metric are +0.0, so their Hessians keep the bits of all-zero symbols
    M = request.getfixturevalue(name)
    assert M.christoffel is None
    gam = christoffel_fd(M)
    assert not np.any(gam) and not np.any(np.signbit(gam))
    m = M.dim
    zero = dataclasses.replace(M, christoffel=np.zeros(M.grid.shape + (m, m, m)))
    f = np.random.default_rng(3).standard_normal(M.grid.shape)
    assert hessian(M, f).tobytes() == hessian(zero, f).tobytes()


def test_christoffel_fd_matches_the_analytic_symbols(warped_torus):
    gam_fd = christoffel_fd(warped_torus)
    h = max(warped_torus.grid.spacings)
    assert np.max(np.abs(gam_fd - warped_torus.christoffel)) <= 50 * h**2


def test_a_christoffel_array_off_the_grid_is_refused(warped_torus):
    M = warped_torus
    for shape in (M.grid.shape + (2, 2), M.grid.shape[::-1] + (2, 2, 2), (M.grid.n_nodes, 2, 2, 2)):
        with pytest.raises(ValueError, match="christoffel shape .* does not match the grid"):
            dataclasses.replace(M, christoffel=np.zeros(shape))
    assert not M.christoffel.flags.writeable


def test_hessian_trace_identity_order():
    errs = []
    for res in ((64, 16), (128, 32)):
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=res))
        pos = M.positions()
        f = np.sin(2 * np.pi * pos[..., 0]) * np.cos(2 * np.pi * pos[..., 1])
        tr = np.einsum("...ij,...ij->...", M.metric_inverse(), hessian(M, f))
        errs.append(np.max(np.abs(tr + laplace(M, f))))
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_gradient_hessian_compatibility_order():
    # directional derivative of <grad f, V> along V equals
    # Hess f(V, V) + <grad f, nabla_V V>, at second order in h
    errs = []
    for res in ((64, 16), (128, 32)):
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=res))
        pos = M.positions()
        x, y = pos[..., 0], pos[..., 1]
        f = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        V = np.stack([np.cos(2 * np.pi * y), np.sin(2 * np.pi * x) + 1.5], axis=-1)
        gf = gradient(M, f)
        s = metric_inner(M, gf, V)
        ds = chart_gradient(M, s)
        lhs = np.einsum("...i,...i->...", V, ds)
        H = hessian(M, f)
        hvv = np.einsum("...ij,...i,...j->...", H, V, V)
        dV = np.stack([chart_gradient(M, V[..., c]) for c in range(2)], axis=-2)  # (.., comp, axis)
        advect = np.einsum("...j,...ij->...i", V, dV)
        nabla_vv = advect + np.einsum("...ijk,...j,...k->...i", M.christoffel, V, V)
        g_lower = np.einsum("...ij,...j->...i", M.metric, gf)
        rhs = hvv + np.einsum("...i,...i->...", g_lower, nabla_vv)
        errs.append(np.max(np.abs(lhs - rhs)))
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_region_average_of_a_constant_square(flat_torus):
    f = np.full(flat_torus.grid.shape, -4.0)
    assert np.sqrt(region_average(flat_torus, f**2, np.ones(f.shape, bool))) == pytest.approx(4.0, abs=1e-13)


def test_region_average_of_a_sine_square(flat_torus):
    # mean of sin^2 over the full torus is exactly 1/2 on alias-free grids
    pos = flat_torus.positions()
    f = np.sin(2 * np.pi * pos[..., 0])
    assert np.sqrt(region_average(flat_torus, f**2, np.ones(f.shape, bool))) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_region_average_of_a_square_on_a_single_node(flat_torus):
    pos = flat_torus.positions()
    f = np.sin(2 * np.pi * pos[..., 0])
    region = np.zeros(flat_torus.grid.shape, dtype=bool)
    region[17, 3] = True
    assert np.sqrt(region_average(flat_torus, f**2, region)) == pytest.approx(abs(f[17, 3]), abs=1e-14)


def test_empty_region_errors(flat_torus):
    with pytest.raises(ValueError, match="empty region"):
        region_average(flat_torus, np.ones(flat_torus.grid.shape), np.zeros(flat_torus.grid.shape, bool))
    with pytest.raises(ValueError, match="empty region"):
        region_sup(np.ones(flat_torus.grid.shape), np.zeros(flat_torus.grid.shape, bool))


def test_a_nan_inside_the_region_is_the_sup(flat_torus):
    # a NaN is not skipped: the sup reads NaN, which the report writer refuses
    f = np.ones(flat_torus.grid.shape)
    f[17, 3] = np.nan
    region = np.zeros(flat_torus.grid.shape, dtype=bool)
    region[16:19, 2:5] = True
    assert np.isnan(region_sup(f, region))
    region[17, 3] = False
    assert region_sup(f, region) == 1.0


def test_interp_scalar_exact_on_nodes_and_linear(flat_torus):
    pos = flat_torus.positions()
    f = np.sin(2 * np.pi * pos[..., 0])
    pts = pos.reshape(-1, 2)[::37]
    assert np.max(np.abs(interp_scalar(flat_torus, f, pts) - f.reshape(-1)[::37])) <= 1e-14
    # midpoints of a linear-in-x field interpolate exactly
    lin = 2.0 * pos[..., 0]
    mids = pts + np.array([flat_torus.grid.spacings[0] / 2, 0.0])
    expect = 2.0 * (mids[:, 0] % 1.0)
    # skip midpoints whose cell straddles the sawtooth seam
    inside = (mids[:, 0] % 1.0) < 1.0 - flat_torus.grid.spacings[0]
    assert np.max(np.abs(interp_scalar(flat_torus, lin, mids)[inside] - expect[inside])) <= 1e-12


def interp_per_corner(M, f, pts):
    """Reference multilinear interpolation: one modulo index tuple per cell corner."""
    grid = M.grid
    m = grid.dim
    f = np.asarray(f)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    u = grid.wrap(pts) / np.asarray(grid.spacings)
    base = np.floor(u).astype(int) % np.asarray(grid.shape)
    frac = u - np.floor(u)
    components = f.shape[m:]
    out = np.zeros((len(base),) + components)
    for delta in np.ndindex(*(2,) * m):
        idx = tuple((base[:, ax] + delta[ax]) % grid.shape[ax] for ax in range(m))
        wgt = np.ones(len(base))
        for ax in range(m):
            wgt = wgt * (frac[:, ax] if delta[ax] else 1.0 - frac[:, ax])
        out += wgt.reshape(wgt.shape + (1,) * len(components)) * f[idx]
    return out


def interp_query_points(M, n_random):
    """Nodes, seam points, points at exactly the period, negative and
    multi-period coordinates, and uniform random points."""
    grid = M.grid
    periods = np.asarray(grid.periods)
    nodes = M.positions().reshape(-1, grid.dim)[:: max(1, grid.n_nodes // 50)]
    seam = nodes.copy()
    seam[:, 0] = periods[0] - 0.5 * grid.spacings[0]
    at_period = np.tile(periods, (3, 1))
    at_period[1, 0] = 0.0
    at_period[2] = -periods
    shifted = nodes + np.array([-1, 3] + [-2] * (grid.dim - 2))[: grid.dim] * periods
    rng = np.random.default_rng(7)
    random = rng.uniform(-2.5, 2.5, size=(n_random, grid.dim)) * periods
    return np.vstack([nodes, seam, at_period, -1e-17 * np.ones((1, grid.dim)), shifted, random])


@pytest.mark.parametrize("family", ["flat_torus", "twisted_torus"])
@pytest.mark.parametrize("components", ["scalar", "vector", "tensor"])
def test_interp_scalar_matches_per_corner_loop(request, family, components):
    M = request.getfixturevalue(family)
    m = M.dim
    rng = np.random.default_rng(3)
    trailing = {"scalar": (), "vector": (m,), "tensor": (m, m)}[components]
    f = rng.standard_normal(M.grid.shape + trailing)
    f.reshape(-1)[::11] = -0.0
    many = interp_query_points(M, 10_000)
    singles = [p[None, :] for p in interp_query_points(M, 0)] + [many[-1]]   # N = 1, last one flat (m,)
    for pts in [many] + singles:
        got = interp_scalar(M, f, pts)
        want = interp_per_corner(M, f, pts)
        assert got.shape == want.shape == (len(np.atleast_2d(pts)),) + trailing
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_interp_scalar_stacked_fields_match_separate_calls(twisted_torus):
    M = twisted_torus
    rng = np.random.default_rng(5)
    a = rng.standard_normal(M.grid.shape)
    b = rng.standard_normal(M.grid.shape + (3,))
    b[0, 0, 0, 1] = np.nan
    pts = interp_query_points(M, 5_000)
    stacked = interp_scalar(M, np.concatenate([a[..., None], b], axis=-1), pts)
    assert np.array_equal(stacked[:, 0], interp_scalar(M, a, pts))
    assert np.array_equal(stacked[:, 1:], interp_scalar(M, b, pts), equal_nan=True)


def probe_query_points(M):
    """The interpolation query points plus the wrap edges of each axis:
    -1e-20 and -0.0 (which wrap to the period, then to 0), the period
    times 1 - 1e-17, and points a hair off the nodes."""
    periods = np.asarray(M.grid.periods)
    nodes = M.positions().reshape(-1, M.dim)[:: max(1, M.grid.n_nodes // 50)]
    edges = [np.full((1, M.dim), v) for v in (-1e-20, -0.0, 1e-300)]
    edges += [(periods * (1 - 1e-17))[None, :], (periods * (1 - 1e-16))[None, :], nodes + 1e-17, nodes - 1e-17]
    return np.vstack([interp_query_points(M, 3_000), *edges])


@pytest.mark.parametrize("family", ["warped_torus", "twisted_torus", "warped_93x49"])
def test_stencil_probe_matches_interp_scalar(request, family):
    # a stacked field of a scalar, a vector and a tensor, with NaN and -0.0 nodes;
    # on 93 and 49 nodes per unit period / spacing is not the node count, so
    # a point that wraps to the period must be wrapped again
    if family == "warped_93x49":
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=(93, 49)))
    else:
        M = request.getfixturevalue(family)
    m = M.dim
    rng = np.random.default_rng(11)
    f = np.concatenate([rng.standard_normal(M.grid.shape + (1,)),
                        rng.standard_normal(M.grid.shape + (m,)),
                        M.metric.reshape(M.grid.shape + (m * m,))], axis=-1)
    f.reshape(-1)[::17] = np.nan
    f.reshape(-1)[::13] = -0.0
    pts = probe_query_points(M)
    want = interp_scalar(M, f, M.grid.wrap(pts))
    probe = stencil_probe(M, f)
    got = np.array([probe(p)[0] for p in pts.tolist()])
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))
    # a probe with gradients returns the same values
    assert np.array_equal([stencil_probe(M, f, 2)(p)[0] for p in pts[:50].tolist()], want[:50], equal_nan=True)
    assert np.isnan(probe([np.nan] * m)[0]).all()
    assert np.isnan(probe([np.inf] * m)[0]).all()


@pytest.mark.parametrize("family", ["warped_torus", "twisted_torus"])
def test_stencil_probe_gradients_are_the_cell_derivative(request, family):
    M = request.getfixturevalue(family)
    m = M.dim
    h = np.asarray(M.grid.spacings)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(M.grid.shape + (2,))
    probe = stencil_probe(M, f, 2)
    for frac in rng.uniform(0.1, 0.9, size=(5, m)):
        x = h * (np.asarray(M.grid.shape) // 3 + frac)
        _, grads = probe(x.tolist())
        for ax in range(m):
            d = np.zeros(m)
            d[ax] = 1e-6 * h[ax]
            # the multilinear form is linear along each axis inside a cell
            fd = (interp_scalar(M, f, x + d) - interp_scalar(M, f, x - d))[0] / (2 * d[ax])
            assert np.allclose([g[ax] for g in grads], fd, rtol=1e-7, atol=1e-7)
    # a chart-linear field has its slope as derivative
    lin = M.positions() @ np.arange(1.0, m + 1)
    _, grads = stencil_probe(M, lin[..., None], 1)((h * 2.5).tolist())
    assert np.allclose(grads[0], np.arange(1.0, m + 1), rtol=1e-12)


def test_hessian_norm_metric_weighting(flat_torus):
    # Hess = diag(0, 1) has g-norm g^{yy} = eps^-2 on the flat collapsed torus
    H = np.zeros(flat_torus.grid.shape + (2, 2))
    H[..., 1, 1] = 1.0
    hn = hessian_norm(flat_torus, H)
    assert np.max(np.abs(hn - 1.0 / 0.1**2)) <= 1e-9


@pytest.mark.parametrize("family", ["warped_torus", "twisted_torus"])
def test_metric_contractions_match_einsum_bit_for_bit(request, family):
    # the ordered loops replace one generic einsum each; a NaN node stays NaN
    M = request.getfixturevalue(family)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(M.grid.shape)
    H = hessian(M, f)
    H[(3,) * M.dim] = np.nan
    X, Y = gradient(M, f), gradient(M, rng.standard_normal(M.grid.shape))
    X[(5,) * M.dim] = np.nan
    ginv = M.metric_inverse()
    ref = np.sqrt(np.maximum(np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, H, H), 0.0))
    assert hessian_norm(M, H).tobytes() == ref.tobytes()
    assert metric_inner(M, X, Y).tobytes() == np.einsum("...i,...ij,...j->...", X, M.metric, Y).tobytes()
    assert np.isnan(hessian_norm(M, H)[(3,) * M.dim]) and np.isnan(metric_inner(M, X, Y)[(5,) * M.dim])
