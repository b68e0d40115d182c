import dataclasses
import os
import pickle

import numpy as np
import pytest

import collapselab.spectral as spectral
from collapselab import FamilySpec, build_family, geodesic_ball
from collapselab.operators import gradient, laplacian_matrix, metric_inner, norm_sq, region_sup
from collapselab.spectral import (
    RESIDUAL_TOL,
    _gated_pairs,
    EigenPair,
    cheng_yau_ratio,
    cached_eigenpairs,
    eigenpairs,
)


def torus_spectrum_oracle(eps: float, sigma: float = 0.0, count: int = 12, nmax: int = 8):
    """Closed-form flat/twisted torus eigenvalues, sorted with multiplicity."""
    vals = []
    for p in range(-nmax, nmax + 1):
        for q in range(-nmax, nmax + 1):
            if sigma == 0.0:
                vals.append(4 * np.pi**2 * (p**2 + q**2 / eps**2))
            else:
                for n in range(-nmax, nmax + 1):
                    vals.append(4 * np.pi**2 * ((p - sigma * n) ** 2 + q**2 + n**2 / eps**2))
    return np.sort(vals)[:count]


def stencil_symbol(M, ginv) -> np.ndarray:
    """Eigenvalues of the corner stiffness of a constant metric (inverse
    ``ginv``) over its mass, one per integer frequency of the grid:
    sum_a ginv_aa (2 - 2 cos t_a) / h_a^2 + sum_{a != b} ginv_ab sin t_a sin t_b / (h_a h_b),
    t_a = 2 pi p_a / N_a.  The stiffness is circulant, so these are exact."""
    t = np.meshgrid(*[2 * np.pi * np.arange(n) / n for n in M.grid.shape], indexing="ij")
    h = M.grid.spacings
    out = np.zeros(M.grid.shape)
    for a, b in np.ndindex(M.dim, M.dim):
        if a == b:
            out += ginv[a, a] * (2.0 - 2.0 * np.cos(t[a])) / h[a] ** 2
        else:
            out += ginv[a, b] * np.sin(t[a]) * np.sin(t[b]) / (h[a] * h[b])
    return out


def twisted_metric_inverse(eps: float, twist: float) -> np.ndarray:
    """Inverse of g = dx0^2 + dx1^2 + eps^2 (dy + sigma dx0)^2, sigma = twist / (2 pi)."""
    sigma = twist / (2 * np.pi)
    return np.array([[1.0, 0.0, -sigma], [0.0, 1.0, 0.0], [-sigma, 0.0, sigma**2 + 1.0 / eps**2]])


def test_flat_spectrum_is_the_stencil_symbol(flat_eig_torus):
    # (2 - 2 cos 2 pi p / N_x) / h_x^2 + (2 - 2 cos 2 pi q / N_y) / (eps^2 h_y^2)
    pairs = eigenpairs(flat_eig_torus, 10, theta_max=1000.0)
    exact = np.sort(stencil_symbol(flat_eig_torus, np.diag([1.0, 1.0 / 0.1**2])).ravel())[:10]
    for p, e in zip(pairs, exact):
        assert abs(p.theta - e) <= 1e-10 * max(e, 1.0)


def test_twisted_stiffness_acts_by_its_symbol(twisted_torus):
    # a cosine mode is an eigenvector whose eigenvalue is the symbol at its
    # frequency; frequencies along both x0 and the fiber exercise the cross
    # term 2 ginv_0y sin t_0 sin t_y / (h_0 h_y), -2.9 % of theta at (1, 0, 1)
    L, mass = laplacian_matrix(twisted_torus)
    ginv = twisted_metric_inverse(0.25, np.pi / 2)
    symbol = stencil_symbol(twisted_torus, ginv)
    shape = twisted_torus.grid.shape
    phase = np.meshgrid(*[2 * np.pi * np.arange(n) / n for n in shape], indexing="ij")
    for freq in ((1, 0, 1), (1, 2, -1), (3, 1, 2), (0, 2, 0)):
        u = np.cos(sum(f * t for f, t in zip(freq, phase))).ravel()
        value = symbol[tuple(f % n for f, n in zip(freq, shape))]
        angle = 2 * np.pi * np.array(freq) / shape
        cross = 2 * ginv[0, 2] * np.sin(angle[0]) * np.sin(angle[2]) * shape[0] * shape[2]
        assert (abs(cross) > 1e-3 * value) == (freq[0] * freq[2] != 0)
        assert np.max(np.abs(L @ u - value * mass * u)) <= 1e-10 * value * np.max(mass)


def test_collapsed_spectrum_oracle(flat_eig_torus):
    pairs = eigenpairs(flat_eig_torus, 10, theta_max=1000.0)
    exact = torus_spectrum_oracle(0.1, count=10)
    for p, e in zip(pairs, exact):
        assert abs(p.theta - e) <= 1e-2 * max(e, 1.0)


def test_unit_spectrum_oracle(unit_torus):
    pairs = eigenpairs(unit_torus, 10, theta_max=160.0)
    exact = torus_spectrum_oracle(1.0, count=10)
    for p, e in zip(pairs, exact):
        assert abs(p.theta - e) <= 1e-2 * max(e, 1.0)


def test_spectrum_convergence_order():
    exact = torus_spectrum_oracle(0.1, count=10)
    errs = []
    for res in ((128, 16), (256, 32)):
        M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=res))
        pairs = eigenpairs(M, 10, theta_max=1000.0)
        errs.append(max(abs(p.theta - e) / max(e, 1.0) for p, e in zip(pairs, exact)))
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_twisted_spectrum_oracle(twisted_torus):
    sigma = (np.pi / 2) / (2 * np.pi)
    pairs = eigenpairs(twisted_torus, 5, theta_max=40.0)
    exact = torus_spectrum_oracle(0.25, sigma=sigma, count=5)
    for p, e in zip(pairs, exact):
        assert abs(p.theta - e) <= 1e-2 * max(e, 1.0)
    # the grid's own spectrum, the 4-fold cluster at theta ~ 39.25 included
    symbol = np.sort(stencil_symbol(twisted_torus, twisted_metric_inverse(0.25, np.pi / 2)).ravel())[:5]
    for p, e in zip(pairs, symbol):
        assert abs(p.theta - e) <= 1e-10 * max(e, 1.0)


def test_ground_state_constant(flat_eig_torus):
    pairs = eigenpairs(flat_eig_torus, 3, theta_max=40.0)
    assert abs(pairs[0].theta) <= 1e-8
    u0 = pairs[0].u
    assert np.max(np.abs(u0 - u0.mean())) <= 1e-8 * max(1.0, np.abs(u0).max())


def test_fiber_mode_absent_below_threshold(flat_eig_torus):
    # lowest fiber-oscillating mode sits at 4 pi^2 / eps^2 ~ 3948
    pairs = eigenpairs(flat_eig_torus, 4, theta_max=100.0)
    assert all(p.theta <= 100.0 for p in pairs)
    assert [round(p.theta, 1) for p in pairs if p.theta > 1.0] == [39.5, 39.5]


def test_eigen_orthogonality(flat_eig_torus):
    pairs = eigenpairs(flat_eig_torus, 8, theta_max=630.0)
    w = flat_eig_torus.node_weights().ravel()
    U = np.stack([p.u.ravel() for p in pairs])
    gram = (U * w) @ U.T / w.sum()
    assert np.max(np.abs(gram - np.eye(len(pairs)))) <= 1e-8


def test_residual_invariant_and_normalization(flat_eig_torus):
    from collapselab.operators import region_average

    pairs = eigenpairs(flat_eig_torus, 6, theta_max=360.0)
    whole = np.ones(flat_eig_torus.grid.shape, bool)
    for p in pairs:
        assert p.residual <= 1e-8 * (1.0 + p.theta)
        assert np.sqrt(region_average(flat_eig_torus, p.u**2, whole)) == pytest.approx(1.0, abs=1e-10)
    thetas = [p.theta for p in pairs]
    assert thetas == sorted(thetas)


def test_clusters_group_degenerate_pairs(flat_eig_torus):
    pairs = eigenpairs(flat_eig_torus, 5, theta_max=40.0)
    assert pairs[1].cluster == pairs[2].cluster
    assert pairs[0].cluster != pairs[1].cluster


def test_k_bound_reproducibility(flat_eig_torus):
    # K := sup(|u| + r |grad u|) bit-reproducible across solves
    def k_bound():
        pair = eigenpairs(flat_eig_torus, 2, theta_max=40.0)[1]
        g = gradient(flat_eig_torus, pair.u)
        gn = np.sqrt(np.maximum(metric_inner(flat_eig_torus, g, g), 0.0))
        return region_sup(np.abs(pair.u) + 0.25 * gn, np.ones(flat_eig_torus.grid.shape, bool))

    a, b = k_bound(), k_bound()
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def grad_norm(M, u):
    return np.sqrt(norm_sq(M, gradient(M, u)))


def test_cheng_yau_base_mode(flat_eig_torus):
    pos = flat_eig_torus.positions()
    u = np.sin(2 * np.pi * pos[..., 0])
    ball = geodesic_ball(flat_eig_torus, (0, 0), 0.25)
    assert cheng_yau_ratio(u, grad_norm(flat_eig_torus, u), ball) == pytest.approx(np.pi / 2, rel=1e-2)


def test_cheng_yau_constant_zero(flat_eig_torus):
    ball = geodesic_ball(flat_eig_torus, (0, 0), 0.25)
    u = np.ones(flat_eig_torus.grid.shape)
    assert cheng_yau_ratio(u, grad_norm(flat_eig_torus, u), ball) == 0.0


def test_cheng_yau_zero_field_errors(flat_eig_torus):
    ball = geodesic_ball(flat_eig_torus, (0, 0), 0.25)
    with pytest.raises(ValueError, match="identically zero"):
        u = np.zeros(flat_eig_torus.grid.shape)
        cheng_yau_ratio(u, grad_norm(flat_eig_torus, u), ball)


def test_cheng_yau_eigenmode_matches_base_mode(flat_eig_torus):
    # the first nonzero cluster consists of sin/cos(2 pi x) mixtures
    pair = eigenpairs(flat_eig_torus, 2, theta_max=40.0)[1]
    ball = geodesic_ball(flat_eig_torus, (0, 0), 0.25)
    assert cheng_yau_ratio(pair.u, grad_norm(flat_eig_torus, pair.u), ball) == pytest.approx(np.pi / 2, rel=2e-2)


def count_solves(monkeypatch) -> list:
    """One entry per ``eigenpairs`` solve that ``cached_eigenpairs`` runs."""
    solves = []
    solve = spectral.eigenpairs
    monkeypatch.setattr(spectral, "eigenpairs", lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    return solves


def assert_same_pairs(a, b):
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert (p.theta, p.residual, p.cluster) == (q.theta, q.residual, q.cluster)
        assert p.u.tobytes() == q.u.tobytes()


def test_eigen_cache_roundtrip(tmp_path, flat_eig_torus, monkeypatch):
    solves = count_solves(monkeypatch)
    pairs, path = cached_eigenpairs(tmp_path, flat_eig_torus, 5, 200.0)
    assert solves == [1] and path.parent == tmp_path and path.name.startswith("eig_") and path.suffix == ".npy"
    assert_same_pairs(pairs, eigenpairs(flat_eig_torus, 5, 200.0))
    # one float64 row per pair: theta, then u in C order
    rows = np.load(path)
    assert rows.dtype == np.float64 and rows.shape == (5, 1 + flat_eig_torus.grid.n_nodes)
    assert rows[:, 0].tolist() == [p.theta for p in pairs]
    assert rows[:, 1:].tobytes() == np.stack([p.u.ravel() for p in pairs]).tobytes()
    loaded, again = cached_eigenpairs(tmp_path, flat_eig_torus, 5, 200.0)
    assert solves == [1] and again == path     # a hit runs no solve
    assert_same_pairs(pairs, loaded)
    # every solve setting has a file of its own
    assert cached_eigenpairs(tmp_path, flat_eig_torus, 5, 200.0, seed=1)[1] != path
    assert cached_eigenpairs(tmp_path, flat_eig_torus, 5, theta_max=50.0)[1] != path
    assert solves == [1, 1, 1]


def corrupted(data: bytes, rows: np.ndarray, pairs, how: str, path) -> None:
    """Write ``path`` as a damaged copy of the cache file ``data`` of ``rows``."""
    if how == "truncated":
        path.write_bytes(data[: len(data) // 2])
    elif how == "empty":
        path.write_bytes(b"")
    elif how == "garbage":
        path.write_bytes(bytes(range(256)) * 8)
    elif how == "pickle":
        path.write_bytes(pickle.dumps(pairs))
    elif how == "object array":
        np.save(path, np.array(pairs + [None], dtype=object), allow_pickle=True)
    elif how == "npz":
        with open(path, "wb") as fh:
            np.savez(fh, rows=rows)
    elif how == "float32":
        np.save(path, rows.astype(np.float32))
    elif how == "one row":
        np.save(path, rows.ravel())
    else:   # an exponent byte flipped inside the last pair's u
        damaged = bytearray(data)
        damaged[len(data) - 8 * 100 + 7] ^= 0x7F
        path.write_bytes(bytes(damaged))


def test_eigen_cache_detects_corruption(tmp_path, flat_eig_torus, monkeypatch):
    pairs, path = cached_eigenpairs(tmp_path, flat_eig_torus, 5, 200.0)
    data = path.read_bytes()
    solves = count_solves(monkeypatch)
    kinds = ["truncated", "empty", "garbage", "pickle", "object array", "npz", "float32", "one row", "flipped"]
    for n, how in enumerate(kinds, start=1):
        corrupted(data, np.load(path), pairs, how, path)
        assert path.read_bytes() != data, how
        again, same_path = cached_eigenpairs(tmp_path, flat_eig_torus, 5, 200.0)
        assert len(solves) == n and same_path == path, how
        assert_same_pairs(pairs, again)
        assert path.read_bytes() == data, how    # overwritten by the fresh solve


def test_eigen_cache_uses_solver_residual_gate(tmp_path, flat_eig_torus, monkeypatch):
    # a theta off by 1e-7 (1 + theta) leaves a residual between the solver's
    # gate and 100x that gate: the cache must reject it rather than hand the
    # reports a pair they refuse
    pairs, path = cached_eigenpairs(tmp_path, flat_eig_torus, 3, 40.0)
    bad = dataclasses.replace(pairs[2], theta=pairs[2].theta + 1e-7 * (1.0 + pairs[2].theta))
    L, mass = laplacian_matrix(flat_eig_torus)
    v = bad.u.ravel()
    res = np.sqrt(np.sum(mass * ((L @ v) / mass - bad.theta * v) ** 2) / mass.sum())
    assert RESIDUAL_TOL * (1.0 + bad.theta) < res < 100 * RESIDUAL_TOL * (1.0 + bad.theta)
    rows = np.load(path)
    rows[2, 0] = bad.theta
    np.save(path, rows)
    solves = count_solves(monkeypatch)
    assert_same_pairs(pairs, cached_eigenpairs(tmp_path, flat_eig_torus, 3, 40.0)[0])
    assert solves == [1]


def test_eigen_cache_wrong_shape_rejected(tmp_path, flat_eig_torus, flat_torus, monkeypatch):
    # the pairs of a 128 x 16 grid in the file of the 256 x 32 one
    pairs, path = cached_eigenpairs(tmp_path, flat_torus, 3, 40.0)
    data = path.read_bytes()
    other = cached_eigenpairs(tmp_path, flat_eig_torus, 3, 40.0)[1]
    path.write_bytes(other.read_bytes())
    solves = count_solves(monkeypatch)
    assert_same_pairs(pairs, cached_eigenpairs(tmp_path, flat_torus, 3, 40.0)[0])
    assert solves == [1] and path.read_bytes() == data


def test_count_out_of_range(flat_eig_torus):
    # n = 2048 nodes: a first round of up to n - 2 pairs
    for count in (0, 2047):
        with pytest.raises(ValueError, match="count"):
            eigenpairs(flat_eig_torus, count, theta_max=50.0)


def sturm_liouville_limit(delta: float, n: int = 16384, count: int = 2) -> np.ndarray:
    """Lowest positive eigenvalues of -(w u')' / w = theta u on the unit circle,
    w = 1 + delta sin(2 pi x): the fiber-constant modes of the warped torus at
    every epsilon.  Conservative differences with w at the half nodes."""
    from scipy.sparse import diags as sparse_diags
    from scipy.sparse.linalg import eigsh as sparse_eigsh

    h = 1.0 / n
    x = np.arange(n) * h
    w_half = 1.0 + delta * np.sin(2 * np.pi * (x + 0.5 * h))     # w between node i and i + 1
    K = sparse_diags([w_half + np.roll(w_half, 1), -w_half[:-1], -w_half[:-1]], [0, 1, -1], format="lil")
    K[0, n - 1] = K[n - 1, 0] = -w_half[-1]
    W = sparse_diags((1.0 + delta * np.sin(2 * np.pi * x)) * h**2)
    theta = sparse_eigsh(K.tocsc(), k=count + 1, M=W.tocsc(), sigma=-1.0, which="LM", return_eigenvectors=False)
    return np.sort(theta)[1:]


def test_warped_base_modes_converge_to_the_sturm_liouville_limit():
    # the 2-D theta_1, theta_2 at eps = 0.1 approach the 1-D limit at order h^2
    limit = sturm_liouville_limit(0.3)
    assert limit == pytest.approx([39.171109, 41.041718], abs=2e-6)
    errors = []
    for resolution in ((128, 16), (256, 26)):
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=resolution))
        pairs = eigenpairs(M, 3, theta_max=50.0)
        assert pairs[0].theta == 0.0
        errors.append(limit - np.array([p.theta for p in pairs[1:]]))
    coarse, fine = errors
    assert np.all(coarse > 0) and np.all(fine > 0)
    assert coarse[0] == pytest.approx(7.36e-3, rel=0.01) and fine[0] == pytest.approx(1.84e-3, rel=0.01)
    assert np.all(np.abs(np.log2(coarse / fine) - 2.0) <= 0.1)


def test_round_off_at_a_tied_peak_keeps_the_sign(warped_torus):
    # the warped theta ~ 39.16 mode is odd about x = 1/4: it peaks at + and -
    # the same magnitude, up to round-off, so its largest entry cannot set its sign
    L, mass = laplacian_matrix(warped_torus)
    pair = eigenpairs(warped_torus, 2, theta_max=40.0)[1]
    u = pair.u.ravel()
    top, bottom = int(np.argmax(u)), int(np.argmin(u))
    assert abs(u[top] + u[bottom]) <= 1e-12 * u[top]
    for node in (top, bottom):
        for change in (1e-12, -1e-12):
            v = u.copy()
            v[node] += np.sign(v[node]) * change
            for w in (v, -v):
                (signed,) = _gated_pairs(warped_torus, L, mass, [pair.theta], w[None, :])
                assert np.array_equal(signed.u.ravel(), v)
