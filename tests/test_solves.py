"""Every sparse solve goes through ``operators.factorize`` or
``operators.factorize_symmetric``, once per matrix and call, or, for the
cutoff mollifier, through ``operators.circulant_pcg``.

The references are the solves the helpers replaced: one ``spsolve`` per
right-hand side, and ``eigsh`` factoring ``L - sigma mass`` itself.  They must
give the same bits as ``factorize`` (COLAMD), and the cutoff built by
preconditioned CG must agree with the direct solve to 1e-11.  On a chart with
a varying metric the eigensolve runs through its own minimum-degree factor of
the pinned stiffness instead, which agrees with ``L - sigma mass`` and with
the harmonic coordinates' COLAMD factor to round-off.  On a warped product
below its fiber gap it factors the pinned base block, whose pairs agree with
the whole chart's to round-off.
"""

import dataclasses

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh, spsolve

import collapselab.estimates as estimates
import collapselab.operators as operators
import collapselab.spectral as spectral
from collapselab import FamilySpec, build_family, geodesic_ball
from collapselab.manifold import DiscreteManifold, PeriodicGrid
from collapselab.spectral import eigenpairs
from collapselab.splitting import harmonic_coordinates


def spsolve_factorize(A):
    """The former solve: one ``spsolve`` per right-hand side."""
    return lambda b: spsolve(A.tocsc(), b)


def lil_pin(L):
    """The former pin of the harmonic-coordinate matrix: item assignment on a LIL copy."""
    A = L.tolil(copy=True)
    A[0, :] = 0.0
    A[:, 0] = 0.0
    A[0, 0] = 1.0
    return A


def builtin_shift_invert(*args, OPinv, **kwargs):
    """The former eigensolve: ``eigsh`` factors ``L - sigma mass`` itself."""
    return eigsh(*args, **kwargs)


def count_factorizations(monkeypatch):
    """The matrix and the factor of every ``splu`` call, in order."""
    calls = []
    splu = operators.splu

    def counting(*args, **kwargs):
        factor = splu(*args, **kwargs)
        calls.append((args[0], factor))
        return factor

    monkeypatch.setattr(operators, "splu", counting)
    return calls


@pytest.fixture(scope="module")
def small_flat():
    return build_family(FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=(64, 16)))


@pytest.fixture(scope="module")
def small_twisted():
    return build_family(
        FamilySpec(kind="twisted-3-torus", epsilon=0.25, twist=np.pi / 2, resolution=(16, 16, 16))
    )


def fresh(M):
    """A copy of ``M`` without its cached fields."""
    return dataclasses.replace(M)


def assert_same_maps(got, want):
    assert got.k == want.k
    for a in range(got.k):
        assert np.array_equal(got.values[a], want.values[a], equal_nan=True)
        assert np.array_equal(got.windings[a], want.windings[a])
    assert got.residuals == want.residuals


@pytest.mark.parametrize("family", ["warped_torus", "doubly_warped"])
def test_harmonic_coordinates_match_spsolve(request, monkeypatch, family):
    M = request.getfixturevalue(family)
    got = harmonic_coordinates(fresh(M))
    monkeypatch.setattr(operators, "factorize", spsolve_factorize)
    assert_same_maps(got, harmonic_coordinates(fresh(M)))


@pytest.mark.parametrize("family", ["warped_torus", "doubly_warped"])
def test_pinned_matrix_and_coordinates_match_the_lil_pin(request, monkeypatch, family):
    # the compressed arrays SuperLU receives, explicit zeros of L included,
    # and so the factor and psi, are those of the former LIL pin
    M = request.getfixturevalue(family)
    L, _ = operators.laplacian_matrix(M)
    got, want = operators._pin_first_node(L).tocsc(), lil_pin(L).tocsc()
    assert np.any(want.data == 0.0)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    phi = harmonic_coordinates(fresh(M))
    monkeypatch.setattr(operators, "_pin_first_node", lil_pin)
    assert_same_maps(phi, harmonic_coordinates(fresh(M)))


CUTOFF_BALLS = {"flat_torus": ((32, 0), 0.2), "warped_torus": ((32, 0), 0.2), "small_twisted": ((4, 4, 0), 0.3)}


@pytest.mark.parametrize("family", sorted(CUTOFF_BALLS))
def test_cutoff_matches_spsolve(request, monkeypatch, family):
    M = request.getfixturevalue(family)
    center, r = CUTOFF_BALLS[family]
    ball = geodesic_ball(M, center, r)
    got = estimates.build_cutoff(ball, 0.05)
    monkeypatch.setattr(estimates, "circulant_pcg", lambda A, shape: spsolve_factorize(A))
    want = estimates.build_cutoff(ball, 0.05)
    assert np.ptp(want.values) == 1.0
    assert np.max(np.abs(got.values - want.values)) <= 1e-11
    assert abs(got.c_ctf_measured - want.c_ctf_measured) <= 1e-11 * want.c_ctf_measured


def mollifier(M, width=0.02):
    """The cutoff's matrix ``mass + w^2 L`` and a right-hand side ``mass * d``."""
    L, mass = operators.laplacian_matrix(M)
    d = geodesic_ball(M, (0,) * M.dim, 0.4).distances
    return diags(mass) + width**2 * L, mass * d.ravel()


def watch_cg(monkeypatch):
    """Iteration count and preconditioner of every CG run of ``circulant_pcg``."""
    runs = []
    cg = operators.cg

    def watched(A, b, **kwargs):
        run = {"preconditioner": kwargs["M"], "iterations": 0}
        runs.append(run)
        callback = kwargs["callback"]

        def counting(xk):
            run["iterations"] += 1
            callback(xk)

        return cg(A, b, **{**kwargs, "callback": counting})

    monkeypatch.setattr(operators, "cg", watched)
    return runs


@pytest.mark.parametrize("family", ["small_flat", "small_twisted"])
def test_circulant_preconditioner_is_exact_on_constant_coefficients(request, monkeypatch, family):
    # a constant metric makes mass + w^2 L circulant: its optimal circulant is itself
    M = request.getfixturevalue(family)
    A, b = mollifier(M)
    runs = watch_cg(monkeypatch)
    x = operators.circulant_pcg(A, M.grid.shape)(b)
    assert np.linalg.norm(A @ x - b) <= operators.CG_RTOL * np.linalg.norm(b)
    assert len(runs) == 1 and 1 <= runs[0]["iterations"] <= 2
    v = np.random.default_rng(0).standard_normal(b.size)
    inverted = runs[0]["preconditioner"].matvec(A @ v)
    assert np.max(np.abs(inverted - v)) <= 1e-12 * np.max(np.abs(v))


def unravelled_symbol(A, shape):
    """Reference: the circulant symbol from COO entries, each offset found by
    ``unravel_index`` on both indices and ``ravel_multi_index(mode="wrap")``."""
    coo, n = A.tocoo(), A.shape[0]
    offsets = np.subtract(np.unravel_index(coo.col, shape), np.unravel_index(coo.row, shape))
    means = np.bincount(np.ravel_multi_index(tuple(offsets), shape, mode="wrap"), coo.data, n) / n
    return np.fft.rfftn(means.reshape(shape)).real


@pytest.mark.parametrize("family", ["flat_eig_torus", "warped_torus", "twisted_torus", "doubly_warped"])
def test_circulant_symbol_matches_the_unravelled_offsets_bit_for_bit(request, family):
    M = request.getfixturevalue(family)
    L, mass = operators.laplacian_matrix(M)
    A = diags(mass) + 0.02**2 * L        # the cutoff's matrix
    assert operators._circulant_symbol(A, M.grid.shape).tobytes() == unravelled_symbol(A, M.grid.shape).tobytes()


def test_circulant_pcg_raises_at_the_iteration_cap(monkeypatch, warped_torus):
    # the warped metric varies along the base: CG needs more than one step
    A, b = mollifier(warped_torus)
    monkeypatch.setattr(operators, "CG_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="after 1 iterations: residual"):
        operators.circulant_pcg(A, warped_torus.grid.shape)(b)


def test_circulant_pcg_rejects_nan_and_indefinite_input(small_flat):
    A, b = mollifier(small_flat)
    b[3] = np.nan
    with pytest.raises(RuntimeError, match="residual nan"):
        operators.circulant_pcg(A, small_flat.grid.shape)(b)
    with pytest.raises(ValueError, match="not positive definite"):
        operators.circulant_pcg(-A, small_flat.grid.shape)


@pytest.mark.parametrize(
    "family, kwargs",
    [
        ("small_flat", {"count": 3, "theta_max": 700.0}),   # two rounds: 8 then 16 pairs
        ("warped_torus", {"count": 6, "theta_max": 360.0}),
        ("small_twisted", {"count": 4, "theta_max": 50.0}),
    ],
)
def test_eigenpairs_match_builtin_shift_invert(request, monkeypatch, family, kwargs):
    # constant metrics: the same bits as eigsh factoring L - sigma mass itself;
    # the warped chart's sigma = 0 solve through the pinned base block agrees
    # with that path to round-off, with the same signs
    M = request.getfixturevalue(family)
    varies = spectral._metric_varies(M)
    got = eigenpairs(fresh(M), **kwargs)
    monkeypatch.setattr(spectral, "eigsh", builtin_shift_invert)
    monkeypatch.setattr(spectral, "_metric_varies", lambda M: False)
    want = eigenpairs(fresh(M), **kwargs)
    assert len(got) == len(want) > 0
    assert varies == (family == "warped_torus")
    for p, q in zip(got, want):
        if not varies:
            assert p.theta == q.theta and p.residual == q.residual and p.cluster == q.cluster
            assert np.array_equal(p.u, q.u)
            continue
        assert abs(p.theta - q.theta) <= 1e-10 * max(abs(q.theta), 1.0)
        assert p.cluster == q.cluster
        assert p.residual <= spectral.RESIDUAL_TOL * (1.0 + p.theta)
        assert np.max(np.abs(p.u - q.u)) <= 1e-8 * np.max(np.abs(q.u))
    if varies:
        assert got[0].theta == 0.0 and np.all(got[0].u == 1.0)


def test_theta_max_rounds_share_one_factorization(monkeypatch, small_flat):
    rounds = []

    def counting_eigsh(*args, **kwargs):
        rounds.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counting_eigsh)
    calls = count_factorizations(monkeypatch)
    pairs = eigenpairs(small_flat, 3, theta_max=700.0)
    assert rounds == [8, 16]
    assert len(calls) == 1
    assert len(pairs) == 9


@pytest.mark.parametrize(
    "family, solves", [("flat_torus", 0), ("warped_torus", 1), ("twisted_torus", 0), ("doubly_warped", 1)]
)
def test_harmonic_coordinates_factor_at_most_once(request, monkeypatch, family, solves):
    M = fresh(request.getfixturevalue(family))
    calls = count_factorizations(monkeypatch)
    phi = harmonic_coordinates(M)
    assert len(calls) == solves
    if family == "doubly_warped":
        # both axes were solved for, from the one factorization
        assert phi.k == 2 and all(np.ptp(v - M.positions()[..., a]) > 1e-3 for a, v in enumerate(phi.values))


def assert_pairs_agree(got, want):
    """Thetas to 1e-10 max(theta, 1) and vectors to 1e-8 of their peak; inside
    a cluster only the span, as its vectors are fixed only up to a basis of it
    (Davis and Kahan 1970; warped theta ~ 630: two within 7.8e-5)."""
    assert [p.cluster for p in got] == [q.cluster for q in want]
    for p, q in zip(got, want):
        assert abs(p.theta - q.theta) <= 1e-10 * max(abs(q.theta), 1.0)
    for c in range(want[-1].cluster + 1):
        vecs = np.stack([p.u.ravel() for p in got if p.cluster == c], axis=1)
        basis = np.stack([q.u.ravel() for q in want if q.cluster == c], axis=1)
        if basis.shape[1] > 1:
            basis = basis @ np.linalg.lstsq(basis, vecs, rcond=None)[0]
        assert np.max(np.abs(vecs - basis)) <= 1e-8 * np.max(np.abs(basis))


def fiber_variation(u):
    """Largest change of ``u`` along the fiber (last) axis, over its peak."""
    return np.max(np.abs(u - u[..., :1])) / np.max(np.abs(u))


def factored_sizes(calls):
    return [matrix.shape[0] for matrix, _ in calls]


@pytest.fixture(scope="module")
def thick_warped():
    """A warped torus whose fiber gap (gamma ~ 256) lies among its base modes."""
    return build_family(FamilySpec(kind="warped-torus", epsilon=0.3, delta=0.3, resolution=(64, 16)))


@pytest.fixture(scope="module")
def sheared_warped():
    """g = dx^2 + eps^2 (w(x) dy + 2 dx)^2, eps = 0.3, w = 1 + 0.3 sin 2 pi x:
    constant along the fiber, but with a base-fiber cross term."""
    grid = PeriodicGrid((64, 16), (1.0, 1.0))
    w = 1.0 + 0.3 * np.sin(2 * np.pi * grid.positions()[..., 0])
    g = np.zeros(grid.shape + (2, 2))
    g[..., 0, 0] = 1.0 + (0.3 * 2.0) ** 2
    g[..., 0, 1] = g[..., 1, 0] = 0.3**2 * 2.0 * w
    g[..., 1, 1] = (0.3 * w) ** 2
    return DiscreteManifold(grid=grid, metric=g)


def fiber_gap(M):
    L, mass = operators.laplacian_matrix(M)
    return spectral._fiber_base(M, L, mass)[2]


@pytest.mark.parametrize(
    "family, base_block", [("warped_torus", True), ("doubly_warped", False)], ids=["warped_torus", "doubly_warped"]
)
def test_a_varying_chart_factors_once_for_coordinates_and_pairs(request, monkeypatch, family, base_block):
    # once per call each: the harmonic coordinates factor the whole pinned
    # stiffness in COLAMD order on its stored structure, so psi keeps spsolve's
    # bits.  The eigensolve factors without the stored zeros, in minimum-degree
    # order: the pinned base block on the warped torus, a warped product whose
    # fiber gap (gamma ~ 2306) lies above theta_max; the whole pinned stiffness
    # on the doubly warped chart, whose metric varies along the fiber, with at
    # most half the fill and pairs that agree with the COLAMD factor's
    M = request.getfixturevalue(family)
    n = M.grid.n_nodes
    calls = count_factorizations(monkeypatch)
    phi = harmonic_coordinates(fresh(M))
    assert factored_sizes(calls) == [n]
    pairs = eigenpairs(fresh(M), 3, theta_max=700.0)
    assert len(pairs) > 8   # more than one theta_max round
    assert factored_sizes(calls) == [n, n // M.grid.shape[-1] if base_block else n]
    (colamd_matrix, colamd), (matrix, factor) = calls
    assert np.any(colamd_matrix.data == 0.0) and not np.any(matrix.data == 0.0)
    if base_block:
        assert all(fiber_variation(p.u) == 0.0 for p in pairs)
    else:
        assert matrix.nnz < colamd_matrix.nnz
        assert factor.L.nnz + factor.U.nnz <= 0.5 * (colamd.L.nnz + colamd.U.nnz)
        monkeypatch.setattr(spectral, "factorize_symmetric", operators.factorize)
        assert_pairs_agree(pairs, eigenpairs(fresh(M), 3, theta_max=700.0))
    monkeypatch.setattr(operators, "factorize", spsolve_factorize)
    assert_same_maps(phi, harmonic_coordinates(fresh(M)))


@pytest.mark.parametrize(
    "family, kwargs",
    [
        ("warped_torus", {"count": 3, "theta_max": 700.0}),   # two rounds: 8 then 16 pairs
        ("warped_torus", {"count": 6, "theta_max": 360.0}),
        ("thick_warped", {"count": 5, "theta_max": 160.0}),   # theta_5 ~ 158 < gamma ~ 256
        ("thick_warped", {"count": 3, "theta_max": 250.0}),
    ],
)
def test_base_block_pairs_match_the_whole_chart(request, monkeypatch, family, kwargs):
    M = request.getfixturevalue(family)
    n, fiber = M.grid.n_nodes, M.grid.shape[-1]
    calls = count_factorizations(monkeypatch)
    got = eigenpairs(fresh(M), **kwargs)
    assert factored_sizes(calls) == [n // fiber]
    monkeypatch.setattr(spectral, "_fiber_base", lambda *args: None)
    want = eigenpairs(fresh(M), **kwargs)
    assert factored_sizes(calls) == [n // fiber, n]
    assert len(got) >= kwargs["count"]
    assert_pairs_agree(got, want)
    assert got[0].theta == 0.0 and np.all(got[0].u == 1.0)
    assert all(p.residual <= spectral.RESIDUAL_TOL * (1.0 + p.theta) for p in got)


@pytest.mark.parametrize("family, gap, first", [("warped_torus", 2306.13, 2449.16), ("thick_warped", 256.237, 302.776)])
def test_the_fiber_gap_bounds_every_mode_that_varies_along_the_fiber(request, family, gap, first):
    # the whole chart's pairs (theta_max above gamma) below gamma are constant
    # along the fiber; the first that is not lies above gamma
    M = request.getfixturevalue(family)
    gamma = fiber_gap(M)
    assert gamma == pytest.approx(gap, rel=1e-5)
    pairs = eigenpairs(fresh(M), 3, theta_max=1.25 * gamma)
    varying = [p.theta for p in pairs if fiber_variation(p.u) > 1e-8]
    assert all(fiber_variation(p.u) <= 1e-12 for p in pairs if p.theta < gamma)
    assert varying and varying[0] == pytest.approx(first, rel=1e-5)
    assert varying[0] >= gamma


def test_a_theta_max_at_the_fiber_gap_takes_the_whole_chart(monkeypatch, warped_torus):
    # theta_max = gamma is not below the gap: the whole pinned stiffness is
    # factored; the largest theta_max below it takes the base block, and both
    # return the same pairs
    gamma = fiber_gap(warped_torus)
    n, fiber = warped_torus.grid.n_nodes, warped_torus.grid.shape[-1]
    calls = count_factorizations(monkeypatch)
    whole = eigenpairs(fresh(warped_torus), 3, theta_max=gamma)
    assert factored_sizes(calls) == [n]
    base = eigenpairs(fresh(warped_torus), 3, theta_max=np.nextafter(gamma, 0.0))
    assert factored_sizes(calls) == [n, n // fiber]
    assert len(base) > 8 and whole[-1].theta < gamma
    assert_pairs_agree(base, whole)


def test_a_cross_term_takes_the_whole_chart(monkeypatch, sheared_warped):
    # with a cross term the fiber-neighbour weights bound no fiber mode: they
    # give (2 - 2 cos 2 pi / 16) min a_b / m_b ~ 348, yet a fiber mode sits at
    # ~ 307.5, so the whole chart is solved and that mode is found
    n = sheared_warped.grid.n_nodes
    calls = count_factorizations(monkeypatch)
    pairs = eigenpairs(fresh(sheared_warped), 3, theta_max=330.0)
    varying = [p.theta for p in pairs if fiber_variation(p.u) > 0.1]
    assert varying and varying[0] == pytest.approx(307.461, rel=1e-5)
    assert factored_sizes(calls) == [n]
