"""Numerical laboratory for collapsing manifolds and tangential-gradient estimates."""

from .manifold import (
    DiscreteManifold,
    FamilySpec,
    FiberTrace,
    GeodesicBall,
    PeriodicGrid,
    build_family,
    epsilon_proxy,
    extract_fiber,
    geodesic_ball,
    ricci_lower_bound,
)
from .operators import (
    gradient,
    hessian,
    hessian_norm,
    laplace,
    laplacian_matrix,
)

__version__ = "0.1.0"
