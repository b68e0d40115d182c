"""Every sparse solve goes through ``operators.factorize``, once per matrix.

The references are the solves the helper replaced: one ``spsolve`` per
right-hand side, and ``eigsh`` factoring ``L - sigma mass`` itself.  Both must
give the same bits as the shared factorization.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh, spsolve

import collapselab.estimates as estimates
import collapselab.operators as operators
import collapselab.spectral as spectral
import collapselab.splitting as splitting
from collapselab import FamilySpec, build_family, geodesic_ball
from collapselab.manifold import DiscreteManifold, PeriodicGrid
from collapselab.spectral import eigenpairs
from collapselab.splitting import coordinate_boundary_data, harmonic_coordinates, solve_harmonic


def spsolve_factorize(A):
    """The former solve: one ``spsolve`` per right-hand side."""
    return lambda b: spsolve(A.tocsc(), b)


def builtin_shift_invert(*args, OPinv, **kwargs):
    """The former eigensolve: ``eigsh`` factors ``L - sigma mass`` itself."""
    return eigsh(*args, **kwargs)


def count_factorizations(monkeypatch):
    calls = []
    splu = operators.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

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


@pytest.fixture(scope="module")
def doubly_warped():
    """Both chart coordinates need a harmonic correction: g = a(y)^2 dx^2 + b(x)^2 dy^2."""
    grid = PeriodicGrid((32, 32), (1.0, 1.0))
    x, y = np.moveaxis(grid.positions(), -1, 0)
    g = np.zeros(grid.shape + (2, 2))
    g[..., 0, 0] = (1.0 + 0.3 * np.sin(2 * np.pi * y)) ** 2
    g[..., 1, 1] = (0.5 + 0.1 * np.cos(2 * np.pi * x)) ** 2
    return DiscreteManifold(dim=2, chart=grid, metric=g, volume_element=np.sqrt(np.linalg.det(g)))


def assert_same_maps(got, want):
    assert got.k == want.k
    for a in range(got.k):
        assert np.array_equal(got.values[a], want.values[a], equal_nan=True)
        assert np.array_equal(got.windings[a], want.windings[a])
    assert got.residuals == want.residuals


@pytest.mark.parametrize("family", ["warped_torus", "doubly_warped"])
def test_harmonic_coordinates_match_spsolve(request, monkeypatch, family):
    M = request.getfixturevalue(family)
    got = harmonic_coordinates(M)
    monkeypatch.setattr(splitting, "factorize", spsolve_factorize)
    assert_same_maps(got, harmonic_coordinates(M))


@pytest.mark.parametrize("family, center, r", [("warped_torus", (96, 0), 0.2), ("twisted_torus", (6, 6, 0), 0.3)])
def test_solve_harmonic_matches_spsolve(request, monkeypatch, family, center, r):
    M = request.getfixturevalue(family)
    ball = geodesic_ball(M, center, r)
    data = coordinate_boundary_data(M, ball)
    got = solve_harmonic(ball, data)
    monkeypatch.setattr(splitting, "factorize", spsolve_factorize)
    assert_same_maps(got, solve_harmonic(ball, data))


@pytest.mark.parametrize("family", ["flat_torus", "warped_torus"])
def test_cutoff_matches_spsolve(request, monkeypatch, family):
    M = request.getfixturevalue(family)
    ball = geodesic_ball(M, (32, 0), 0.2)
    got = estimates.build_cutoff(ball, ball.concentric(0.4), 0.05)
    monkeypatch.setattr(estimates, "factorize", spsolve_factorize)
    want = estimates.build_cutoff(ball, ball.concentric(0.4), 0.05)
    assert np.array_equal(got.values, want.values)
    assert got.c_ctf_measured == want.c_ctf_measured


@pytest.mark.parametrize(
    "family, kwargs",
    [
        ("small_flat", {"count": 3, "theta_max": 700.0}),   # two rounds: 8 then 16 pairs
        ("warped_torus", {"count": 6}),
        ("small_twisted", {"count": 4, "theta_max": 50.0}),
        ("flat_torus", {"count": 3, "region": "ball"}),
    ],
)
def test_eigenpairs_match_builtin_shift_invert(request, monkeypatch, family, kwargs):
    M = request.getfixturevalue(family)
    if kwargs.get("region") == "ball":
        kwargs = {**kwargs, "region": geodesic_ball(M, (0, 0), 0.2)}
    got = eigenpairs(M, **kwargs)
    monkeypatch.setattr(spectral, "eigsh", builtin_shift_invert)
    want = eigenpairs(M, **kwargs)
    assert len(got) == len(want) > 0
    for p, q in zip(got, want):
        assert p.theta == q.theta and p.residual == q.residual and p.cluster == q.cluster
        assert np.array_equal(p.u, q.u)


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


def test_solve_harmonic_factors_once_for_all_components(monkeypatch, twisted_torus):
    ball = geodesic_ball(twisted_torus, (6, 6, 0), 0.3)
    calls = count_factorizations(monkeypatch)
    phi = solve_harmonic(ball, coordinate_boundary_data(twisted_torus, ball))
    assert phi.k == 2
    assert len(calls) == 1


@pytest.mark.parametrize(
    "family, solves", [("flat_torus", 0), ("warped_torus", 1), ("twisted_torus", 0), ("doubly_warped", 1)]
)
def test_harmonic_coordinates_factor_at_most_once(request, monkeypatch, family, solves):
    M = request.getfixturevalue(family)
    calls = count_factorizations(monkeypatch)
    phi = harmonic_coordinates(M)
    assert len(calls) == solves
    if family == "doubly_warped":
        # both axes were solved for, from the one factorization
        assert phi.k == 2 and all(np.ptp(v - M.positions()[..., a]) > 1e-3 for a, v in enumerate(phi.values))
