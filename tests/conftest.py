import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from collapselab import FamilySpec, build_family, geodesic_ball
from collapselab.manifold import PROXY_LEVELS, PROXY_MARGIN, DiscreteManifold, PeriodicGrid
from collapselab.splitting import harmonic_coordinates


@pytest.fixture(scope="session")
def flat_torus():
    return build_family(FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=(256, 32)))


@pytest.fixture(scope="session")
def flat_eig_torus():
    return build_family(FamilySpec(kind="flat-product-torus", epsilon=0.1, resolution=(128, 16)))


@pytest.fixture(scope="session")
def unit_torus():
    return build_family(FamilySpec(kind="flat-product-torus", epsilon=1.0, resolution=(128, 128)))


@pytest.fixture(scope="session")
def warped_torus():
    return build_family(
        FamilySpec(kind="warped-torus", epsilon=0.1, delta=0.3, resolution=(128, 16))
    )


@pytest.fixture(scope="session")
def twisted_torus():
    return build_family(
        FamilySpec(kind="twisted-3-torus", epsilon=0.25, twist=np.pi / 2, resolution=(24, 24, 16))
    )


@pytest.fixture(scope="module")
def doubly_warped():
    """Both chart coordinates need a harmonic correction: g = a(y)^2 dx^2 + b(x)^2 dy^2."""
    grid = PeriodicGrid((32, 32), (1.0, 1.0))
    x, y = np.moveaxis(grid.positions(), -1, 0)
    g = np.zeros(grid.shape + (2, 2))
    g[..., 0, 0] = (1.0 + 0.3 * np.sin(2 * np.pi * y)) ** 2
    g[..., 1, 1] = (0.5 + 0.1 * np.cos(2 * np.pi * x)) ** 2
    return DiscreteManifold(grid=grid, metric=g)


def random_full_metric(shape, seed):
    """A random positive definite metric with every component nonzero, on
    random periods: a chart without the structure of a built-in family."""
    rng = np.random.default_rng(seed)
    m = len(shape)
    a = 0.3 * rng.standard_normal(shape + (m, m))
    g = np.eye(m) + a @ np.swapaxes(a, -1, -2)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    grid = PeriodicGrid(shape, tuple(float(p) for p in rng.uniform(0.5, 2.0, m)))
    return DiscreteManifold(grid=grid, metric=g)


# charts with 2 or 3 nodes along an axis, where every stencil row, or every
# row but a thin slab, wraps around the seam
@pytest.fixture(scope="session")
def random_2x16():
    return random_full_metric((2, 16), seed=1)


@pytest.fixture(scope="session")
def random_16x3():
    return random_full_metric((16, 3), seed=2)


@pytest.fixture(scope="session")
def random_2x3x5():
    return random_full_metric((2, 3, 5), seed=3)


@pytest.fixture(scope="session")
def random_3x6x4():
    return random_full_metric((3, 6, 4), seed=4)


@pytest.fixture(scope="session")
def flat_coordinates(flat_torus):
    return harmonic_coordinates(flat_torus)


@pytest.fixture(scope="session")
def warped_coordinates(warped_torus):
    return harmonic_coordinates(warped_torus)


@pytest.fixture(scope="session")
def flat_ball(flat_torus):
    return geodesic_ball(flat_torus, (0, 0), 0.25)


@pytest.fixture(scope="session")
def warped_oracle():
    """``oracle(delta, r)``: the closed-form certificate of the warped kind
    g = dx^2 + eps^2 w(x)^2 dy^2, w = 1 + delta sin 2 pi x, on a ball whose
    B(p, 2r) is the whole chart, as a dict of ``sup_grad``, ``gram_dev``,
    ``sqrt_hess`` (sqrt of hessEnergy) and ``psi``.

    The harmonic coordinate solves (w Phi')' = 0 with Phi(x + 1) = Phi(x) + 1,
    so Phi' = c/w with c = 1 / int dx/w, |grad Phi|^2 = c^2/w^2 and, with the
    Gamma^x_yy term, |Hess Phi|^2 = 2 (c w'/w^2)^2.  Every value is
    independent of eps: the volume element eps w cancels from each average.
    """

    def oracle(delta, r):
        def w(x):
            return 1.0 + delta * math.sin(2 * math.pi * x)

        def wp(x):
            return 2 * math.pi * delta * math.cos(2 * math.pi * x)

        def average(f, points=None):
            integral = quad(lambda x: f(x) * w(x), 0.0, 1.0, points=points, limit=200, epsabs=1e-14)[0]
            return integral / quad(w, 0.0, 1.0)[0]

        c = 1.0 / quad(lambda x: 1.0 / w(x), 0.0, 1.0, epsabs=1e-14)[0]
        # |c^2/w^2 - 1| has its kinks where w = c, and 1 - |delta| < c < 1
        x0 = math.asin((c - 1.0) / delta) / (2 * math.pi)
        kinks = [x0 % 1.0, (0.5 - x0) % 1.0]
        gram_dev = average(lambda x: abs(c**2 / w(x) ** 2 - 1.0), kinks)
        sqrt_hess = r * math.sqrt(average(lambda x: 2 * (c * wp(x) / w(x) ** 2) ** 2))
        return {"sup_grad": c / (1.0 - abs(delta)), "gram_dev": gram_dev, "sqrt_hess": sqrt_hess,
                "psi": max(gram_dev, sqrt_hess)}

    return oracle


@pytest.fixture(scope="session")
def warped_epsilon_hat():
    """``epsilon_hat(delta, eps, center, r)``: the closed-form collapse scale
    of the warped kind on the ball of radius r about x = ``center``, as
    ``epsilon_proxy`` samples it.

    The ball's values span [Phi(center - r), Phi(center + r)], with Phi(x) =
    c int_0^x dt/w; ``PROXY_LEVELS`` levels spread over that span, trimmed by
    ``PROXY_MARGIN``, are inverted to x = Phi^-1(level).  The fiber there is
    a circle of length eps w(x) and intrinsic diameter eps w(x) / 2, so
    epsilon-hat is eps max w(x) / (4 r), proportional to eps.
    """

    def epsilon_hat(delta, eps, center, r):
        def w(x):
            return 1.0 + delta * math.sin(2 * math.pi * x)

        c = 1.0 / quad(lambda x: 1.0 / w(x), 0.0, 1.0, epsabs=1e-14)[0]

        def phi(x):
            return c * quad(lambda t: 1.0 / w(t), 0.0, x, epsabs=1e-14)[0]

        lo, hi = phi(center - r), phi(center + r)
        span = hi - lo
        levels = np.linspace(lo + PROXY_MARGIN * span, hi - PROXY_MARGIN * span, PROXY_LEVELS)
        xs = [brentq(lambda x: phi(x) - level, center - r, center + r, xtol=1e-15) for level in levels]
        return eps * max(w(x) for x in xs) / (4 * r)

    return epsilon_hat
