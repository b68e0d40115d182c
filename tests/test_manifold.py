import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from collapselab import (
    FamilySpec,
    build_family,
    epsilon_proxy,
    extract_fiber,
    geodesic_ball,
)
import collapselab.manifold as manifold
from collapselab.manifold import (
    FAMILIES,
    DiscreteManifold,
    PeriodicGrid,
    _chain_segments,
    _grid_adjacency,
    _grid_neighbor_offsets,
    _level_crossings,
    _march_squares,
    _metric_runs,
    _per_metric,
    base_period_lengths,
    graph_distances,
    ricci_lower_bound,
)
from collapselab.splitting import SplittingMap
from collapselab.splitting import classify_regular, harmonic_coordinates

# a regularity threshold, relative to the median largest Jacobian eigenvalue,
# far below the Jacobian eigenvalues, of order 1, of the maps traced here
THRESHOLD = 1e-6


def test_family_kind_rejected():
    with pytest.raises(ValueError, match="unknown family kind"):
        FamilySpec(kind="klein-bottle", epsilon=0.1, resolution=(32, 16))


def test_epsilon_out_of_range():
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            FamilySpec(kind="flat-product-torus", epsilon=eps, resolution=(32, 16))


def test_fiber_under_resolved():
    with pytest.raises(ValueError, match="under-resolved"):
        FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=(32, 8))


def test_flat_volume_is_product_of_periods(flat_torus):
    # metric period lengths 1 x 0.1
    assert flat_torus.total_volume() == pytest.approx(0.1, abs=1e-12)


def test_warped_volume_quadrature_oracle(warped_torus):
    # oracle: eps * integral of w(x) dx; the sine integrates to zero
    oracle, err = quad(lambda x: 0.1 * (1.0 + 0.3 * np.sin(2 * np.pi * x)), 0.0, 1.0)
    assert err < 1e-12
    assert oracle == pytest.approx(0.1, abs=1e-12)
    assert warped_torus.total_volume() == pytest.approx(oracle, abs=1e-10)


def test_unit_square_torus_volume(unit_torus):
    assert unit_torus.total_volume() == pytest.approx(1.0, abs=1e-12)


def test_twisted_volume(twisted_torus):
    assert twisted_torus.total_volume() == pytest.approx(0.25, abs=1e-12)


def test_volume_refinement_error_within_h_squared():
    # trig warps integrate exactly at every resolution: error far below C h^2
    for res in ((64, 16), (128, 32)):
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=res))
        h = max(M.grid.spacings)
        assert abs(M.total_volume() - 0.1) <= h**2


def test_metric_invariants_checked():
    bad = np.zeros((8, 16, 2, 2))
    bad[..., 0, 0] = 1.0
    bad[..., 1, 1] = -1.0
    grid_spec = FamilySpec(kind="flat-product-torus", epsilon=0.5, resolution=(8, 16))
    M = build_family(grid_spec)
    with pytest.raises(ValueError, match="positive definite"):
        DiscreteManifold(grid=M.grid, metric=bad)


@pytest.mark.parametrize(
    "family, runs",
    [("doubly_warped", 32 * 32), ("warped_torus", 128), ("twisted_torus", 1), ("flat_eig_torus", 1)],
)
def test_one_evaluation_per_distinct_metric_keeps_every_bit(request, family, runs):
    # LAPACK works matrix by matrix: one call per run of equal metrics, gathered
    # back, gives the bytes of the call on every node
    M = request.getfixturevalue(family)
    first, run = _metric_runs(M.metric)
    assert len(first) == runs and run.shape == (M.grid.n_nodes,)
    for fn in (np.linalg.inv, np.linalg.det, np.linalg.eigvalsh):
        got, want = _per_metric(fn, M.metric, (first, run)), fn(M.metric)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert M.metric_inverse().tobytes() == np.linalg.inv(M.metric).tobytes()
    if M.family is not None:
        assert build_family(M.family).volume_element.tobytes() == np.sqrt(np.linalg.det(M.metric)).tobytes()


@pytest.mark.parametrize("family", ["warped_torus", "flat_eig_torus"])
def test_a_single_bad_node_is_named(request, family):
    # the node sits inside a run of equal metrics along the fiber
    M = request.getfixturevalue(family)
    g = M.metric.copy()
    g[37, 5] = [[1.0, 0.0], [0.0, -1e-3]]
    with pytest.raises(ValueError, match=r"not positive definite at node \(37, 5\)"):
        DiscreteManifold(grid=M.grid, metric=g)


@pytest.mark.parametrize("metric_shape", [(16, 2, 2), (8, 16, 3, 3)], ids=["metric-one-axis", "metric-3x3"])
def test_fields_must_match_the_grid(metric_shape):
    # the dimension comes from the grid, and a metric of another shape is
    # rejected even where NumPy would broadcast it
    grid = PeriodicGrid((8, 16), (1.0, 1.0))
    M = DiscreteManifold(grid=grid, metric=np.broadcast_to(np.eye(2), (8, 16, 2, 2)))
    assert M.dim == 2 and M.volume_element.shape == (8, 16)
    metric = np.broadcast_to(np.eye(metric_shape[-1]), metric_shape)
    with pytest.raises(ValueError, match="metric shape"):
        DiscreteManifold(grid=grid, metric=metric)


def test_periodicity_of_fields(warped_torus):
    # wrap-around agreement is exact for every stored field
    g = warped_torus.metric
    assert np.array_equal(g[0], g[0])  # sanity
    w = warped_torus.volume_element
    assert np.array_equal(np.roll(w, w.shape[0], axis=0), w)
    assert np.array_equal(np.roll(g, g.shape[1], axis=1), g)


def test_base_period_lengths(warped_torus):
    assert base_period_lengths(warped_torus) == pytest.approx((1.0,), abs=1e-12)


def test_ricci_lower_bound_values(flat_torus, warped_torus, twisted_torus):
    assert ricci_lower_bound(flat_torus) == 0.0
    assert ricci_lower_bound(twisted_torus) == 0.0
    assert not np.signbit(ricci_lower_bound(flat_torus)) and not np.signbit(ricci_lower_bound(twisted_torus))
    assert ricci_lower_bound(warped_torus) == pytest.approx(0.3 * 4 * np.pi**2 / 0.7, rel=1e-6)


def per_kind_metric(spec):
    """The metric of ``spec`` as built kind by kind before the one family
    formula: the byte oracle of ``build_family``."""
    eps, shape = spec.epsilon, spec.resolution
    if spec.kind == "flat-product-torus":
        g = np.zeros(shape + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = eps**2
    elif spec.kind == "warped-torus":
        x = PeriodicGrid(shape, (1.0, 1.0)).axes()[0][:, None]
        wx = np.broadcast_to(1.0 + spec.delta * np.sin(2 * np.pi * x), shape)
        g = np.zeros(shape + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = (eps * wx) ** 2
    else:
        sigma = spec.twist / (2 * np.pi)
        gc = np.array(
            [
                [1.0 + (eps * sigma) ** 2, 0.0, eps**2 * sigma],
                [0.0, 1.0, 0.0],
                [eps**2 * sigma, 0.0, eps**2],
            ]
        )
        g = np.broadcast_to(gc, shape + (3, 3)).copy()
    return g, np.sqrt(np.linalg.det(g))


# 0.1176 and 0.0397 are among the epsilons whose libm eps**2 is an ulp off
# eps * eps: a constant metric must keep the former
ORACLE_EPSILONS = [1.0, 0.5, 0.25, 0.2, 0.1176, 0.1, 0.05, 0.0397, 0.025, 0.013]


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_one_family_formula_keeps_the_per_kind_metrics(kind):
    rng = np.random.default_rng(7)
    params = {"flat-product-torus": [{}], "warped-torus": [{"delta": 0.3}, {"delta": 0.17}, {"delta": -0.6}],
              "twisted-3-torus": [{"twist": np.pi / 2}, {"twist": 1.234}, {"twist": 0.0}, {"twist": -2.5}]}[kind]
    resolution = (6,) * (FAMILIES[kind].dim - 1) + (16,)
    for eps in ORACLE_EPSILONS + rng.uniform(0.01, 1.0, 20).tolist():
        for param in params:
            spec = FamilySpec(kind=kind, epsilon=eps, resolution=resolution, **param)
            M = build_family(spec)
            g, vol = per_kind_metric(spec)
            assert M.metric.tobytes() == g.tobytes(), (eps, param)
            assert M.volume_element.tobytes() == vol.tobytes(), (eps, param)
            assert (M.christoffel is None) == (spec.delta == 0)


@pytest.mark.parametrize("kind,name", [
    ("flat-product-torus", "delta"),
    ("flat-product-torus", "twist"),
    ("warped-torus", "twist"),
    ("twisted-3-torus", "delta"),
])
def test_a_parameter_the_kind_does_not_read_is_rejected(kind, name):
    # under the one family formula it would change the metric
    resolution = (8,) * (FAMILIES[kind].dim - 1) + (16,)
    with pytest.raises(ValueError, match=f"{kind} does not read family.{name}"):
        FamilySpec(kind=kind, epsilon=0.25, resolution=resolution, **{name: 0.5})
    read = FAMILIES[kind].parameter
    if read is not None:
        assert getattr(FamilySpec(kind=kind, epsilon=0.25, resolution=resolution, **{read: 0.5}), read) == 0.5


@pytest.mark.parametrize("delta", [1.0, -1.0, 1.5, float("nan")])
def test_a_warp_that_reaches_zero_is_rejected(delta):
    # w = 1 + delta sin 2 pi x vanishes somewhere once |delta| >= 1
    with pytest.raises(ValueError, match="family.delta must lie in"):
        FamilySpec(kind="warped-torus", epsilon=0.1, resolution=(64, 16), delta=delta)
    assert FamilySpec(kind="warped-torus", epsilon=0.1, resolution=(64, 16), delta=-0.99).delta == -0.99


# ---------------------------------------------------------------------------
# geodesic balls
# ---------------------------------------------------------------------------


def coo_scatter_adjacency(M):
    """Reference: one block of edges per neighbor offset, scattered as COO
    triplets and compressed by ``tocsr`` (the COO assembly)."""
    grid = M.grid
    m, n_nodes = grid.dim, grid.n_nodes
    h = np.asarray(grid.spacings)
    idx = np.arange(n_nodes).reshape(grid.shape)
    g = M.metric.reshape(n_nodes, m, m)
    rows, cols, vals = [], [], []
    for off in _grid_neighbor_offsets(m):
        shifted = idx
        for ax, o in enumerate(off):
            if o:
                shifted = np.roll(shifted, -o, axis=ax)
        j = shifted.ravel()
        dx = np.asarray(off) * h
        gmid = 0.5 * (g + g[j])
        rows.append(idx.ravel())
        cols.append(j)
        vals.append(np.sqrt(np.einsum("i,nij,j->n", dx, gmid, dx)))
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_nodes, n_nodes)
    ).tocsr()


@pytest.mark.parametrize("family", ["flat_eig_torus", "warped_torus", "twisted_torus", "doubly_warped",
                                    "random_2x16", "random_16x3", "random_2x3x5", "random_3x6x4"])
def test_adjacency_matches_coo_assembly_bit_for_bit(request, family):
    M = request.getfixturevalue(family)
    W, ref = _grid_adjacency(M), coo_scatter_adjacency(M)
    for a, b in ((W.indptr, ref.indptr), (W.indices, ref.indices), (W.data, ref.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", ["flat_torus", "warped_torus", "twisted_torus"])
def test_directed_search_on_the_symmetric_adjacency(request, family):
    # graph_distances runs a directed Dijkstra, which needs W exactly symmetric
    M = request.getfixturevalue(family)
    W = _grid_adjacency(M)
    assert (W != W.T).nnz == 0
    n = M.grid.n_nodes
    for sources in ([0], [0, n // 3, n - 1]):
        for limit in (np.inf, 0.2):
            undirected = dijkstra(W, directed=False, indices=sources, min_only=len(sources) > 1, limit=limit)
            expected = undirected if undirected.ndim == 1 else undirected[0]
            assert np.array_equal(graph_distances(M, sources, limit), expected)


def test_ball_volume_against_brute_force_oracle(flat_torus, flat_ball):
    # oracle: exact flat distance sqrt(dx^2 + eps^2 dy^2) with periodic wrap
    M = flat_torus
    pos = M.positions()
    d = pos - pos[0, 0]
    d = M.grid.wrap_delta(d)
    dist_true = np.sqrt(d[..., 0] ** 2 + (0.1 * d[..., 1]) ** 2)
    vol_true = float(M.node_weights()[dist_true <= 0.25].sum())
    assert flat_ball.volume() == pytest.approx(vol_true, rel=0.03)
    # thin-collapse closed form: 2 r eps
    assert flat_ball.volume() == pytest.approx(0.05, rel=0.05)


def test_ball_r_zero_is_center_only(flat_torus):
    ball = geodesic_ball(flat_torus, (3, 5), 0.0)
    assert ball.members.sum() == 1
    assert ball.members[3, 5]


def test_ball_cut_locus_error(flat_torus):
    with pytest.raises(ValueError, match="cut locus"):
        geodesic_ball(flat_torus, (0, 0), 0.5)


def test_ball_region_rejects_negative_radius(flat_torus):
    with pytest.raises(ValueError, match="nonnegative"):
        geodesic_ball(flat_torus, (0, 0), -1.0)


def test_ball_region_whole_chart_standin(flat_ball):
    # radius 0.5 reaches the cut locus (half the unit base period)
    region = flat_ball.concentric(0.5)
    assert region.whole
    assert region.members.all()
    assert region.distances is flat_ball.distances


@pytest.mark.parametrize("s", [0.0, 0.1, 0.25, 0.37, 0.5, 0.8])
def test_concentric_equals_ball_region(warped_torus, s):
    # below the cut locus (0.5 on the unit base) a concentric region is the
    # geodesic ball; from there on it is the whole-chart stand-in
    ball = geodesic_ball(warped_torus, (96, 3), 0.2)
    got = ball.concentric(s)
    assert (got.center, got.radius) == ((96, 3), s)
    assert np.array_equal(got.distances, ball.distances)
    if s < 0.5:
        want = geodesic_ball(warped_torus, (96, 3), s)
        assert not got.whole and not want.whole
        assert np.array_equal(got.members, want.members)
        assert np.array_equal(got.distances, want.distances)
    else:
        with pytest.raises(ValueError, match="cut locus"):
            geodesic_ball(warped_torus, (96, 3), s)
        assert got.whole
        assert got.members.all()


def test_concentric_rejects_negative_radius(flat_ball):
    with pytest.raises(ValueError, match="nonnegative"):
        flat_ball.concentric(-0.1)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def test_flat_fiber_circle(flat_coordinates):
    trace = extract_fiber(classify_regular(flat_coordinates, THRESHOLD), [0.5])
    assert trace.regular
    assert trace.length == pytest.approx(0.1, rel=1e-10)
    assert trace.diameter == pytest.approx(0.05, rel=1e-10)
    assert trace.level_error <= 1e-8


def test_fiber_closure_endpoints(flat_coordinates):
    trace = extract_fiber(classify_regular(flat_coordinates, THRESHOLD), [0.3])
    M = flat_coordinates.manifold
    gap = M.grid.wrap_delta(trace.points[0] - trace.points[-1])
    assert np.linalg.norm(gap) <= 2 * max(M.grid.spacings)


def test_warped_fiber_length_analytic(warped_coordinates):
    # fiber through x = 0.25 has metric length eps * w(0.25) = 0.13
    val = warped_coordinates.evaluate(np.array([[0.25, 0.0]]))[0]
    trace = extract_fiber(classify_regular(warped_coordinates, THRESHOLD), val)
    assert trace.length == pytest.approx(0.13, rel=1e-3)
    assert trace.diameter == pytest.approx(0.065, rel=1e-3)


def test_twisted_fiber_continuation(twisted_torus):
    phi = harmonic_coordinates(twisted_torus)
    val = phi.evaluate(np.array([[0.3, 0.4, 0.0]]))[0]
    trace = extract_fiber(classify_regular(phi, THRESHOLD), val)
    assert trace.regular
    # fiber is the collapsed circle of metric length eps
    assert trace.length == pytest.approx(0.25, rel=1e-3)


def per_cell_march_squares(phi, v):
    """Reference: marching squares cell by cell, edge keys ``("h", i, j)`` from
    node (i, j) to (i+1, j) and ``("v", i, j)`` to (i, j+1); the first active
    cell in row-major order to cross an edge sets its crossing.  A corner
    across the seam is carried by its jump for the cell mean, and is tested
    against the level on the cell's branch carried back, ``f - (v + (shift -
    jump))``, which keeps the low bits of f and of v.  Returns the chained
    polyline, the segments, the crossings and the number of saddle cells."""
    M = phi.manifold
    grid = M.grid
    n1, n2 = grid.shape
    h1, h2 = grid.spacings
    f, winding = phi.values[0], phi.windings[0]
    p1, p2 = grid.periods
    jump1 = winding[0] * p1
    jump2 = winding[1] * p2

    c00 = f.copy()
    c10 = np.roll(f, -1, axis=0)
    c10[-1, :] += jump1
    c01 = np.roll(f, -1, axis=1)
    c01[:, -1] += jump2
    c11 = np.roll(np.roll(f, -1, axis=0), -1, axis=1)
    c11[-1, :] += jump1
    c11[:, -1] += jump2

    cmean = 0.25 * (c00 + c10 + c01 + c11)
    branch = jump1 if jump1 != 0.0 else jump2
    shift = branch * np.round((cmean - v) / branch)
    j10, j01, j11 = np.zeros(f.shape), np.zeros(f.shape), np.zeros(f.shape)
    j10[-1, :] += jump1
    j01[:, -1] += jump2
    j11[-1, :] += jump1
    j11[:, -1] += jump2
    d00 = f - (v + shift)
    d10 = np.roll(f, -1, axis=0) - (v + (shift - j10))
    d01 = np.roll(f, -1, axis=1) - (v + (shift - j01))
    d11 = np.roll(np.roll(f, -1, axis=0), -1, axis=1) - (v + (shift - j11))

    segments, crossing, saddles = [], {}, 0

    def register(key, a, b, cell_i, cell_j):
        if key in crossing:
            return
        t = a / (a - b)
        if key[0] == "h":
            crossing[key] = (((cell_i + t) * h1) % p1, (key[2] * h2) % p2)
        else:
            crossing[key] = ((key[1] * h1) % p1, ((cell_j + t) * h2) % p2)

    sgn = (d00 > 0, d10 > 0, d01 > 0, d11 > 0)
    active = ~((sgn[0] == sgn[1]) & (sgn[1] == sgn[2]) & (sgn[2] == sgn[3]))
    for i, j in zip(*np.nonzero(active)):
        i, j = int(i), int(j)
        kb, kt = ("h", i, j), ("h", i, (j + 1) % n2)
        kl, kr = ("v", i, j), ("v", (i + 1) % n1, j)
        crossed = []
        for key, (a, b) in (
            (kb, (d00[i, j], d10[i, j])),
            (kt, (d01[i, j], d11[i, j])),
            (kl, (d00[i, j], d01[i, j])),
            (kr, (d10[i, j], d11[i, j])),
        ):
            if (a > 0) != (b > 0):
                register(key, a, b, i, j)
                crossed.append(key)
        if len(crossed) == 2:
            segments.append((crossed[0], crossed[1]))
        elif len(crossed) == 4:
            saddles += 1
            center = 0.25 * (d00[i, j] + d10[i, j] + d01[i, j] + d11[i, j])
            if (center > 0) == bool(sgn[0][i, j]):
                segments += [(kb, kr), (kt, kl)]
            else:
                segments += [(kb, kl), (kt, kr)]
    if not segments:
        return np.zeros((0, 2)), segments, crossing, saddles

    incident = {}
    for s, (a, b) in enumerate(segments):
        incident.setdefault(a, []).append(s)
        incident.setdefault(b, []).append(s)
    used = [False] * len(segments)
    chains = []
    for s0 in range(len(segments)):
        if used[s0]:
            continue
        chain = [segments[s0][0], segments[s0][1]]
        used[s0] = True
        grown = True
        while grown:
            grown = False
            for s in incident.get(chain[-1], []):
                if not used[s]:
                    a, b = segments[s]
                    chain.append(b if a == chain[-1] else a)
                    used[s] = grown = True
                    break
        chains.append(chain)
    chain = max(chains, key=len)
    if chain[0] == chain[-1]:
        chain = chain[:-1]
    pts = np.array([crossing[key] for key in chain])
    deltas = grid.wrap_delta(np.diff(pts, axis=0))
    return np.vstack([pts[:1], pts[:1] + np.cumsum(deltas, axis=0)]), segments, crossing, saddles


def tight_levels(phi):
    """Levels where few cells cross or a cell's test is tight: the map's
    extremes, node values (on the seam rows too) and half a period from a
    cell's corner mean, where the branch choice ties."""
    f = phi.values[0]
    levels = [f.min(), f.max(), f[0, 0], f[-1, 3], f[5, -1], f[17, 9]]
    period = phi.value_periods()[0]
    mean = 0.25 * (f[9, 4] + f[10, 4] + f[9, 5] + f[10, 5])
    for v in (mean + 0.5 * period, mean - 0.5 * period):
        levels += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    return [float(v) for v in levels]


def indexed_search_levels(phi):
    """Levels for the index's binary search: a sweep past both ends of the
    values, the extremes and their neighbors, node values, levels half a
    period (and an ulp either side) from cell means and levels outside one
    period."""
    f = phi.values[0]
    values = np.sort(f.ravel())
    lo, hi = values[0], values[-1]
    levels = list(np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 15))
    levels += [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), np.nextafter(hi, np.inf)]
    levels += list(values[:: len(values) // 9])
    period = phi.value_periods()[0]
    n1, n2 = f.shape
    for i, j in ((0, 0), (n1 // 3, n2 // 2), (n1 - 1, n2 - 1), (n1 // 2, 0)):
        i1, j1 = (i + 1) % n1, (j + 1) % n2
        mean = 0.25 * (f[i, j] + f[i1, j] + f[i, j1] + f[i1, j1])
        for v in (mean + 0.5 * period, mean - 0.5 * period):
            levels += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    levels += [f[5, 5] + period, f[9, 3] - 2 * period]
    return [float(v) for v in levels]


def march_squares_cases(warped):
    """(map, levels) on a warped map, a noisy winding map with saddles, and a
    curved winding map, with levels on the seam, the ``tight_levels`` and the
    ``indexed_search_levels`` of each map."""
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.2, resolution=(48, 16)))
    x, y = np.moveaxis(M.positions(), -1, 0)
    noisy = x + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.random.default_rng(1).standard_normal(x.shape)
    curved = x + 0.02 * np.sin(2 * np.pi * y)
    cases = [
        (warped, [0.0, 1e-4, 0.37, 0.5, 0.999, -0.25]),
        (SplittingMap(M, (noisy,), (np.array([1.0, 0.0]),)), [0.0, 0.2, -0.45, 0.7]),
        (SplittingMap(M, (curved,), (np.array([1.0, 0.0]),)), [0.0, 0.01, 0.5, 0.995, 1.3]),
    ]
    return [(phi, levels + tight_levels(phi) + indexed_search_levels(phi)) for phi, levels in cases]


def test_level_crossings_match_per_cell_loop(warped_coordinates):
    saddles = seams = 0
    for phi, levels in march_squares_cases(warped_coordinates):
        grid = phi.manifold.grid

        def edge(key):    # the edge id of a reference key
            return (key[0] == "v") * grid.n_nodes + key[1] * grid.shape[1] + key[2]

        for v in levels:
            ref_pts, ref_segments, ref_crossing, n_saddles = per_cell_march_squares(phi, v)
            segments, (edges, points) = _level_crossings(phi, v)
            assert segments.tolist() == [[edge(a), edge(b)] for a, b in ref_segments]
            keys = sorted(ref_crossing, key=edge)
            assert edges.tolist() == [edge(k) for k in keys]
            assert points.tobytes() == np.array([ref_crossing[k] for k in keys]).reshape(-1, 2).tobytes()
            assert _march_squares(phi, v)[0].tobytes() == ref_pts.tobytes()
            saddles += n_saddles
            seams += any(k[0] == "h" and k[1] == grid.shape[0] - 1 for k in ref_crossing)
    assert saddles and seams


def test_a_seam_node_within_round_off_of_the_level_closes_its_fiber():
    # level 0 of x + 0.02 sin(2 pi y): node (0, 8) holds 2.4e-18, which a seam
    # cell carrying it, (f + 1) - 1, rounds to 0 and so broke the chain open;
    # tested as f - ((0 + 1) - 1) it keeps its sign, and the fiber closes with
    # the length of a level off that node
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.2, resolution=(48, 16)))
    x, y = np.moveaxis(M.positions(), -1, 0)
    phi = SplittingMap(M, (x + 0.02 * np.sin(2 * np.pi * y),), (np.array([1.0, 0.0]),))
    pts, closed = _march_squares(phi, 0.0)
    assert closed and len(pts) == 18
    off_node = extract_fiber(classify_regular(phi, THRESHOLD), 1e-9)
    assert off_node.length == pytest.approx(0.2183, abs=1e-4)
    assert extract_fiber(classify_regular(phi, THRESHOLD), 0.0).length == pytest.approx(off_node.length, abs=1e-15)


def test_a_level_within_round_off_of_a_seam_node_closes_its_fiber():
    # level -2^-56 at the x = 0 nodes of the coordinate x: a seam cell tested
    # its corner there against (v + 1) - 1, which rounds to 0, so the node lay
    # on the level in that cell and above it in the next, and no cell crossed
    # the level (a flat sweep point at 10 nodes per unit exited on it)
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.05, resolution=(10, 16)))
    trace = extract_fiber(classify_regular(harmonic_coordinates(M), THRESHOLD), -2.0**-56)
    assert trace.length == pytest.approx(0.05, rel=1e-12)


def test_an_open_chain_is_not_returned_as_a_closed_fiber(monkeypatch):
    # the level-0.3 loop of x with one segment cut out chains into an open
    # arc; it is reported open, and extract_fiber refuses it
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.2, resolution=(48, 16)))
    phi = harmonic_coordinates(M)
    segments, (edges, points) = _level_crossings(phi, 0.3)
    assert _chain_segments(M.grid, segments, edges, points)[1]
    pts, closed = _chain_segments(M.grid, segments[1:], edges, points)
    assert not closed and len(pts) == len(segments) == 16
    monkeypatch.setattr(manifold, "_march_squares", lambda phi, v: (pts, closed))
    with pytest.raises(ValueError, match="is open"):
        extract_fiber(classify_regular(phi, THRESHOLD), 0.3)


# ---------------------------------------------------------------------------
# epsilon proxy
# ---------------------------------------------------------------------------


def test_epsilon_proxy_flat(flat_torus, flat_coordinates, flat_ball):
    eps_hat = epsilon_proxy(flat_ball, classify_regular(flat_coordinates, THRESHOLD))
    assert eps_hat == pytest.approx(0.1, rel=1e-6)


def test_epsilon_proxy_identity_scale():
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=1.0, resolution=(64, 64)))
    phi = harmonic_coordinates(M)
    ball = geodesic_ball(M, (0, 0), 0.25)
    assert epsilon_proxy(ball, classify_regular(phi, THRESHOLD)) == pytest.approx(1.0, rel=1e-6)


def test_epsilon_proxy_warped(warped_torus, warped_coordinates):
    # ball centered on the thickest fiber: max diameter eps w(1/4) / 2 = 0.065
    ball = geodesic_ball(warped_torus, (32, 0), 0.25)
    eps_hat = epsilon_proxy(ball, classify_regular(warped_coordinates, THRESHOLD))
    assert eps_hat == pytest.approx(0.13, rel=1e-3)


def test_epsilon_proxy_seam_straddling_ball(warped_torus, warped_coordinates):
    # ball centered on the thinnest fibers wraps the chart seam; the sampled
    # levels must stay inside the ball's branch, away from the thick fibers
    ball = geodesic_ball(warped_torus, (96, 0), 0.25)
    eps_hat = epsilon_proxy(ball, classify_regular(warped_coordinates, THRESHOLD))
    assert eps_hat < 0.105
