import dataclasses
import math

import numpy as np
import pytest

from collapselab import FamilySpec, build_family, epsilon_proxy, geodesic_ball
from collapselab.operators import interp_scalar, metric_inner, region_sup
from collapselab.splitting import (
    SplittingMap,
    _max_abs,
    certify,
    classify_regular,
    harmonic_coordinates,
)
from collapselab.flow import tangential_part


# the default thresholds.lambda_min_rel
LAMBDA_MIN_REL = 1e-6


def certified(phi, ball):
    """The certificate with the collapse scale measured as ``certify_ball`` does."""
    return certify(phi, ball, epsilon_proxy(ball, classify_regular(phi, LAMBDA_MIN_REL)))


def test_flat_global_coordinate_exact(flat_torus, flat_coordinates):
    pos = flat_torus.positions()
    assert np.max(np.abs(flat_coordinates.values[0] - pos[..., 0])) == 0.0
    assert flat_coordinates.residuals[0] <= 1e-10


def test_empty_map_rejected(flat_torus):
    with pytest.raises(ValueError, match="k = 0"):
        SplittingMap(flat_torus, (), ())


def test_a_map_refuses_a_zero_winding_and_a_nonfinite_value(flat_torus):
    # harmonic_coordinates builds neither: every component winds once and is
    # finite at every node, so every level has a fiber
    x = flat_torus.positions()[..., 0]
    for values, winding, message in [
        (np.sin(2 * np.pi * x), [0.0, 0.0], "nonzero winding"),       # a plain field
        (np.where(x <= 0.2, x, np.nan), [1.0, 0.0], "finite values"),  # NaN off a band of nodes
        (np.where(x <= 0.2, x, np.inf), [1.0, 0.0], "finite values"),
    ]:
        with pytest.raises(ValueError, match=message):
            SplittingMap(flat_torus, (values,), (np.array(winding),))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_projection_off_the_map_domain_raises():
    # a diverging Newton step can hand the projection a NaN point: it must
    # fail, not return NaN points
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=(64, 16)))
    phi = harmonic_coordinates(M)
    level = phi.evaluate(np.array([[0.1, 0.0]]))[0]
    with pytest.raises(RuntimeError, match="residual nan"):
        phi.project_to_level([np.nan, 0.5], level)


def test_projection_nan_in_a_later_component_raises(twisted_torus):
    # component 0 is met exactly and component 1 is NaN: the NaN must fail
    # the tolerance however the residual components are ordered (the builtin
    # max skips a NaN that does not come first)
    phi = harmonic_coordinates(twisted_torus)
    good = twisted_torus.positions()[5, 7, 2]
    level = phi.evaluate(good[None, :])[0]
    res = phi._point_residual(good.tolist(), [level[0] - good[0], math.nan], level)
    assert res[0] == 0.0 and math.isnan(res[1])
    assert max(abs(v) for v in res) == 0.0
    assert math.isnan(_max_abs(res)) and math.isnan(_max_abs([0.0, math.nan]))
    with pytest.raises(RuntimeError, match="residual nan"):
        phi.project_to_level([good[0], good[1], math.nan], level)
    assert phi.project_to_level(good, level).newton_steps == 0


def test_projection_converges_quadratically_on_a_curved_level_set(warped_torus):
    # x + 0.02 sin(2 pi y): from a 1e-3 offset, one step with the exact cell
    # Jacobian lands on the level set (the centered-difference Jacobian
    # converged only linearly on this map)
    M = warped_torus
    pos = M.positions()
    phi = SplittingMap(M, (pos[..., 0] + 0.02 * np.sin(2 * np.pi * pos[..., 1]),), (np.array([1.0, 0.0]),))
    start = pos[40, 5] + np.array([1e-3, 0.3 * M.grid.spacings[1]])
    level = phi.evaluate(pos[40, 5][None, :])[0]
    proj = phi.project_to_level(start, level)
    assert proj.newton_steps == 1
    assert abs(proj.residual[0]) <= 1e-14
    assert np.array_equal(phi.level_residual(np.array([proj.point]), level)[0], proj.residual)
    # the Jacobian is the derivative of the interpolant: compare with a
    # centered difference inside the cell
    h = 1e-7 * np.asarray(M.grid.spacings)
    fd = [(phi.evaluate((proj.point + d)[None, :]) - phi.evaluate((proj.point - d)[None, :]))[0, 0] / (2 * d.sum())
          for d in np.diag(h)]
    assert np.allclose(proj.jacobian[0], fd, rtol=1e-6)


def test_projection_converges_quadratically_on_a_curved_3d_level_set(twisted_torus):
    # two sheared components on the twisted kind, whose metric couples x_0
    # and the fiber: the 2 x 2 Gram J g^-1 J^T has an off-diagonal entry, and
    # the step from a 1e-3 offset lands on the level set in one iteration,
    # g-orthogonal to the level set, as a step along g^-1 J^T is
    M = twisted_torus
    pos = M.positions()
    y = pos[..., 2]
    phi = SplittingMap(M, (pos[..., 0] + 0.02 * np.sin(2 * np.pi * y), pos[..., 1] + 0.01 * np.sin(2 * np.pi * y)),
                       (np.eye(3)[0], np.eye(3)[1]))
    node = pos[5, 7, 2]
    start = node + np.array([1e-3, -1e-3, 0.3 * M.grid.spacings[2]])
    level = phi.evaluate(node[None, :])[0]
    proj = phi.project_to_level(start, level)
    assert proj.newton_steps == 1
    assert max(abs(v) for v in proj.residual) <= 1e-14
    assert np.array_equal(phi.level_residual(np.array([proj.point]), level)[0], proj.residual)
    J, g = np.array(proj.jacobian), M.metric[0, 0, 0]
    gram = J @ np.linalg.inv(g) @ J.T
    assert abs(gram[0, 1]) > 0.02
    tangent = np.linalg.svd(J)[2][-1]                 # spans the kernel of J
    step = np.array(proj.point) - start
    assert abs(tangent @ g @ step) <= 1e-14 * np.linalg.norm(step)
    assert abs(tangent @ step) > 0.1 * np.linalg.norm(step)        # not a Euclidean normal step
    x = np.array(proj.point)
    fd = np.stack([(phi.evaluate((x + d)[None, :]) - phi.evaluate((x - d)[None, :]))[0] / (2 * d.sum())
                   for d in np.diag(1e-7 * np.asarray(M.grid.spacings))], axis=-1)
    assert np.allclose(J, fd, rtol=1e-6, atol=1e-9)
    # from several cells away the first step lands in another cell, the second on the level set
    far = phi.project_to_level(node + np.array([0.1, -0.08, 0.3]), level)
    assert far.newton_steps == 2 and max(abs(v) for v in far.residual) <= 1e-14


def test_warped_global_solve_matches_quadrature_oracle(warped_torus, warped_coordinates):
    # oracle: phi' = c / w with c = 1 / int dx/w = sqrt(1 - delta^2)
    from scipy.integrate import quad

    c_oracle = 1.0 / quad(lambda x: 1.0 / (1.0 + 0.3 * np.sin(2 * np.pi * x)), 0.0, 1.0)[0]
    assert c_oracle == pytest.approx(np.sqrt(1 - 0.09), rel=1e-10)
    g = warped_coordinates.gradients()[0]
    gn = np.sqrt(metric_inner(warped_torus, g, g))
    assert gn.max() == pytest.approx(c_oracle / 0.7, rel=1e-3)
    assert gn.min() == pytest.approx(c_oracle / 1.3, rel=1e-3)
    assert warped_coordinates.residuals[0] <= 1e-8


def test_warped_coordinate_derivative_converges_at_order_two():
    # d_x Phi = c / w, c = sqrt(1 - delta^2); at x = 0, w = 1.  The fiber
    # stays at its 16-node floor: Phi does not vary along it
    c = np.sqrt(1 - 0.3**2)
    errors = []
    for nodes in (128, 256, 512):
        M = build_family(FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=(nodes, 16)))
        errors.append(harmonic_coordinates(M).gradients()[0][0, :, 0] - c)
    assert all(np.ptp(e) <= 1e-12 for e in errors)
    errors = np.array([e[0] for e in errors])
    assert errors == pytest.approx([8.0e-5, 2.0e-5, 5.0e-6], rel=0.01)
    assert np.all(np.abs(np.log2(errors[:-1] / errors[1:]) - 2.0) <= 0.1)


def test_jacobian_identity_flat(flat_coordinates):
    eigs, _ = flat_coordinates.eigh()
    assert np.max(np.abs(flat_coordinates.gram()[..., 0, 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(eigs[..., 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(eigs[..., -1] - 1.0)) <= 1e-12
    assert np.max(np.abs(flat_coordinates.absdet() - 1.0)) <= 1e-12


def test_jacobian_identity_twisted(twisted_torus):
    phi = harmonic_coordinates(twisted_torus)
    assert phi.k == 2
    eye_dev = np.max(np.abs(phi.gram() - np.eye(2)))
    assert eye_dev <= 1e-10
    assert np.max(np.abs(phi.absdet() - 1.0)) <= 1e-10


def test_determinant_identity(warped_coordinates, twisted_torus):
    for phi in (warped_coordinates, harmonic_coordinates(twisted_torus)):
        det = np.linalg.det(phi.gram())
        assert np.nanmax(np.abs(phi.absdet()**2 - det)) <= 1e-12 * max(1.0, np.nanmax(det))


def test_classify_regular_all_regular(flat_coordinates):
    mask = classify_regular(flat_coordinates, LAMBDA_MIN_REL)
    assert mask.regular.all()
    assert mask.singular_fraction == 0.0


def test_classify_regular_degenerate_threshold(flat_coordinates):
    eigs, _ = flat_coordinates.eigh()
    lam_max = float(np.nanmax(eigs[..., 0]))
    mask = classify_regular(flat_coordinates, 2.0 * lam_max / float(np.nanmedian(eigs[..., -1])))
    assert mask.threshold == 2.0 * lam_max
    assert not mask.regular.any()
    assert mask.singular_fraction == 1.0


def test_threshold_must_be_positive(flat_coordinates):
    with pytest.raises(ValueError, match="positive"):
        classify_regular(flat_coordinates, 0.0)


def test_morse_map_singular_fraction_refines():
    # critical circles at x = 3/8, 5/8 hit grid columns: fraction = 2/n exactly
    fractions = []
    for n in (64, 128, 256):
        M = build_family(FamilySpec(kind="flat-product-torus", epsilon=0.5, resolution=(n, 16)))
        # x + A sin(2 pi x) / 2 pi winds once; its centred difference 1 + A cos(2 pi x) sin(2 pi h) / (2 pi h)
        # vanishes where cos(2 pi x) = -1/sqrt 2 for this A: non-degenerate critical circles
        h, x = 1.0 / n, M.positions()[..., 0]
        A = math.sqrt(2) * 2 * np.pi * h / math.sin(2 * np.pi * h)
        phi = SplittingMap(M, (x + A * np.sin(2 * np.pi * x) / (2 * np.pi),), (np.array([1.0, 0.0]),))
        mask = classify_regular(phi, LAMBDA_MIN_REL)
        assert not mask.regular[[3 * n // 8, 5 * n // 8]].any()
        fractions.append(mask.singular_fraction)
        assert mask.singular_fraction == pytest.approx(2.0 / n, abs=1e-12)
    assert fractions[0] > fractions[1] > fractions[2]
    order = np.log2(fractions[0] / fractions[1])
    assert order >= 0.9


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_flat_exact_splitting(flat_torus, flat_coordinates, flat_ball):
    cert = certified(flat_coordinates, flat_ball)
    assert cert.sup_grad == pytest.approx(1.0, abs=1e-12)
    assert cert.gram_dev <= 1e-10
    assert cert.hess_energy <= 1e-10
    assert cert.range_ok
    assert cert.psi <= 1e-10
    assert cert.epsilon_hat == pytest.approx(0.1, rel=1e-6)
    d = cert.to_json_dict()
    assert set(d) == {"supGrad", "gramDev", "hessEnergy", "rangeOk", "psi", "epsilonHat"}


def test_certificate_unit_torus_identity():
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=1.0, resolution=(64, 64)))
    phi = harmonic_coordinates(M)
    ball = geodesic_ball(M, (0, 0), 0.25)
    cert = certified(phi, ball)
    assert cert.psi <= 1e-10
    assert cert.epsilon_hat == pytest.approx(1.0, rel=1e-6)


def test_certificate_warped_regression_locked(warped_torus, warped_coordinates):
    ball = geodesic_ball(warped_torus, (32, 0), 0.25)
    cert = certified(warped_coordinates, ball)
    assert cert.psi > 0.0
    assert np.isfinite(cert.psi)
    # pinned by the first run of this pipeline at resolution (128, 16)
    assert cert.gram_dev == pytest.approx(0.3802108135566320, rel=1e-6)
    assert cert.hess_energy == pytest.approx(0.2326881447757396, rel=1e-6)
    assert cert.psi == pytest.approx(0.4823775956403237, rel=1e-6)
    assert cert.sup_grad == pytest.approx(1.3624592008426575, rel=1e-6)


# ---------------------------------------------------------------------------
# invariance under orthogonal rotation of the components
# ---------------------------------------------------------------------------


def _synthetic_k2_map(M):
    pos = M.positions()
    x, y, z = pos[..., 0], pos[..., 1], pos[..., 2]
    v1 = x + 0.05 * np.sin(2 * np.pi * (x + z))
    v2 = y + 0.05 * np.cos(2 * np.pi * y) * np.sin(2 * np.pi * z)
    return SplittingMap(
        M, (v1, v2), (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])), residuals=(np.nan, np.nan)
    )


def _field_pair(M, phi):
    pos = M.positions()
    u = np.sin(2 * np.pi * pos[..., M.dim - 1]) + 0.3 * np.sin(2 * np.pi * pos[..., 0])
    mask = classify_regular(phi, LAMBDA_MIN_REL)
    from collapselab.operators import gradient

    grad_u = gradient(M, u)
    grad_t = tangential_part(phi, mask.regular, grad_u)
    return mask.regular, grad_u, grad_t


def _rotate_map(phi, Q):
    stack = np.stack(phi.values, axis=-1) @ Q.T
    winds = np.stack(phi.windings, axis=0)
    new_winds = Q @ winds
    return SplittingMap(
        phi.manifold,
        tuple(stack[..., a] for a in range(phi.k)),
        tuple(new_winds[a] for a in range(phi.k)),
        residuals=phi.residuals,
    )


def _random_orthogonal(rng, k):
    if k == 1:
        return np.array([[rng.choice([-1.0, 1.0])]])
    mat = rng.standard_normal((k, k))
    q, r = np.linalg.qr(mat)
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("k", [1, 2])
def test_orthogonal_invariance_20_rotations(k, warped_torus, warped_coordinates, twisted_torus):
    if k == 1:
        M, phi = warped_torus, warped_coordinates
    else:
        M = twisted_torus
        phi = _synthetic_k2_map(M)
    # |J_k| and the tangential part of grad u depend on the span of the
    # component gradients only, not on the basis
    mask, grad_u, grad_t = _field_pair(M, phi)
    J0 = phi.absdet()
    rng = np.random.default_rng(42)
    scale_t = max(1.0, np.nanmax(np.abs(grad_t)))
    for _ in range(20):
        Q = _random_orthogonal(rng, k)
        phi_q = _rotate_map(phi, Q)
        grad_t_q = tangential_part(phi_q, mask, grad_u)
        assert np.nanmax(np.abs(phi_q.absdet() - J0)) <= 1e-10 * max(1.0, np.nanmax(J0))
        assert np.array_equal(np.isnan(grad_t_q), np.isnan(grad_t))
        assert np.nanmax(np.abs(grad_t_q - grad_t)) <= 1e-10 * scale_t


def test_jacobian_density_derivative_along_curves(warped_torus, warped_coordinates):
    # |d/ds |J_k|(gamma)| <= k (1+C0)^{k-1} |gamma'| sum|Hess_Phi| by finite differences
    M = warped_torus
    phi = warped_coordinates
    J = phi.absdet()
    sup_grad = region_sup(np.sqrt(metric_inner(M, phi.gradients()[0], phi.gradients()[0])), np.ones(M.grid.shape, bool))
    C0 = max(sup_grad - 1.0, 0.0)
    hess_sum = sum(phi.hessian_norms())
    # discretization allowance: the bilinear interpolant's slope deviates from
    # the smooth density by O(h |J|''), which dominates where both sides vanish
    h_max = max(M.grid.spacings)
    d2j = max(
        float(np.max(np.abs(np.roll(J, -1, ax) - 2 * J + np.roll(J, 1, ax))))
        / M.grid.spacings[ax] ** 2
        for ax in range(M.dim)
    )
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, cx, cy = rng.uniform(0.05, 0.2, 4)
        s = np.linspace(0.0, 1.0, 400, endpoint=False)
        curve = np.stack(
            [cx + a * np.cos(2 * np.pi * s), cy + b * np.sin(4 * np.pi * s)], axis=-1
        )
        jvals = interp_scalar(M, J, M.grid.wrap(curve))
        ds = s[1] - s[0]
        dj = (np.roll(jvals, -1) - np.roll(jvals, 1)) / (2 * ds)
        mid_speed = (np.roll(curve, -1, axis=0) - np.roll(curve, 1, axis=0)) / (2 * ds)
        gmid = interp_scalar(M, M.metric, M.grid.wrap(curve))
        speed = np.sqrt(np.einsum("ni,nij,nj->n", mid_speed, gmid, mid_speed))
        bound = (
            phi.k
            * (1 + C0) ** (phi.k - 1)
            * speed
            * interp_scalar(M, hess_sum, M.grid.wrap(curve))
        )
        slack = speed * h_max * d2j
        assert np.all(np.abs(dj) <= bound * 1.05 + slack + 1e-10)
