"""Discrete collapsing manifolds: periodic metric grids, geodesic balls and
fibers of splitting maps.

Chart conventions
-----------------
A :class:`PeriodicGrid` chart covers ``[0, P_1) x ... x [0, P_m)`` with
``shape[i]`` nodes along axis ``i`` (node ``j`` sits at ``j * P_i / shape[i]``).
All node fields are periodic arrays of shape ``grid.shape``; the metric is a
``(*shape, m, m)`` array of covariant components.  Coordinate-like functions
(such as the base coordinate ``x`` on a torus) are represented by a periodic
residual plus an integer *winding* vector: the function increases by
``winding[i] * P_i`` around the i-th coordinate circle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

__all__ = [
    "PeriodicGrid",
    "DiscreteManifold",
    "FAMILIES",
    "FamilySpec",
    "GeodesicBall",
    "FiberTrace",
    "build_family",
    "ricci_lower_bound",
    "geodesic_ball",
    "graph_distances",
    "extract_fiber",
    "epsilon_proxy",
]


class FamilyKind(NamedTuple):
    """What a built-in kind fixes of the one family metric (see ``build_family``)."""

    dim: int                          # chart dimension k + 1; the last axis is the fiber
    parameter: str | None             # the FamilySpec field it reads: "delta", "twist" or None
    ball_center: tuple[float, ...]    # default working-ball center
    ball_radius: float                # default working-ball radius


class _KindTable(dict):
    """``FAMILIES[kind]`` of any value other than a built-in kind raises ValueError."""

    def __getitem__(self, kind):
        if isinstance(kind, str) and kind in self.keys():
            return super().__getitem__(kind)
        raise ValueError(f"unknown family kind {kind!r}; expected one of {tuple(self)}")


# Every per-kind fact.  The warped torus's ball sits where its fibers are
# thinnest (x = 3/4), its best GH approximation.  A ball of 0.25 on the
# twisted 3-torus measures eps_hat = 1/4, where the cutoff plateau
# r (1 + 4 eps_hat) reaches 2r, so its ball is 0.3.
FAMILIES = _KindTable(
    {
        "flat-product-torus": FamilyKind(2, None, (0.25, 0.0), 0.25),
        "warped-torus": FamilyKind(2, "delta", (0.75, 0.0), 0.25),
        "twisted-3-torus": FamilyKind(3, "twist", (0.25, 0.25, 0.0), 0.3),
    }
)

MIN_FIBER_NODES = 16


def _cached(owner, key, build):
    """``owner._cache[key]``, made by ``build()`` on first use: how manifolds,
    splitting maps and tangential fields compute each derived field once."""
    if key not in owner._cache:
        owner._cache[key] = build()
    return owner._cache[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PeriodicGrid:
    """Structured periodic chart: node counts and period lengths per axis."""

    shape: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        if len(self.shape) != len(self.periods):
            raise ValueError("shape and periods must have matching length")
        if any(n < 2 for n in self.shape):
            raise ValueError("need at least 2 nodes per axis")
        if any(p <= 0 for p in self.periods):
            raise ValueError("periods must be positive")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / n for p, n in zip(self.periods, self.shape))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axes(self) -> list[np.ndarray]:
        return [np.arange(n) * h for n, h in zip(self.shape, self.spacings)]

    def positions(self) -> np.ndarray:
        """Chart coordinates of every node, shape ``(*shape, m)``."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        return np.mod(pts, np.asarray(self.periods))

    def wrap_delta(self, delta: np.ndarray) -> np.ndarray:
        """Componentwise difference wrapped to the nearest representative."""
        p = np.asarray(self.periods)
        return (np.asarray(delta) + p / 2) % p - p / 2


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of a collapsing family.

    ``warped-torus`` reads ``delta`` (the warp amplitude) and
    ``twisted-3-torus`` reads ``twist`` (the fiber holonomy angle);
    ``flat-product-torus`` reads neither (``FAMILIES[kind].parameter``).
    A nonzero value that the kind does not read is an error: in the one
    family metric of ``build_family`` it would change the metric.  So is
    ``|delta| >= 1``: the warp ``1 + delta sin 2 pi x`` then reaches zero and
    the fiber collapses to a point.
    """

    kind: str
    epsilon: float
    resolution: tuple[int, ...]
    delta: float = 0.0
    twist: float = 0.0

    def __post_init__(self):
        reads = FAMILIES[self.kind].parameter
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"collapse parameter epsilon must lie in (0, 1], got {self.epsilon}")
        for name in ("delta", "twist"):
            if name != reads and getattr(self, name) != 0:
                raise ValueError(f"{self.kind} does not read family.{name}; set it to 0, got {getattr(self, name)}")
        if not abs(self.delta) < 1.0:
            raise ValueError(f"family.delta must lie in (-1, 1), where the warp stays positive, got {self.delta}")
        m = self.dim
        if len(self.resolution) != m:
            raise ValueError(f"{self.kind} needs {m} resolution entries, got {len(self.resolution)}")
        if self.resolution[-1] < MIN_FIBER_NODES:
            raise ValueError(
                f"fiber under-resolved: axis {m - 1} has {self.resolution[-1]} nodes, "
                f"need >= {MIN_FIBER_NODES}"
            )
        object.__setattr__(self, "resolution", tuple(int(n) for n in self.resolution))

    @property
    def dim(self) -> int:
        return FAMILIES[self.kind].dim

    @property
    def k(self) -> int:
        """Base dimension: every built-in family collapses one circle fiber."""
        return self.dim - 1


def _metric_runs(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First node of each run of nodes (flat order) with equal metric bytes, and each node's run."""
    words = np.ascontiguousarray(g).reshape(-1, g.shape[-1] ** 2).view(np.int64)
    starts = np.ones(len(words), dtype=bool)
    np.any(words[1:] != words[:-1], axis=1, out=starts[1:])
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def _per_metric(fn, g: np.ndarray, runs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``fn(g)`` of a batched LAPACK function, such as ``np.linalg.inv``, from one metric per run
    (``_metric_runs``): LAPACK works matrix by matrix, so every value keeps its bits."""
    first, run = runs
    out = fn(g.reshape((-1,) + g.shape[-2:])[first])[run]
    return out.reshape(g.shape[:-2] + out.shape[1:])


@dataclass(frozen=True)
class DiscreteManifold:
    """A discrete Riemannian manifold: periodic grid chart + metric.

    ``metric`` holds covariant components per node, ``(*grid.shape, m, m)``;
    ``volume_element``, sqrt(det g) per node, is derived from it.
    ``christoffel`` optionally holds the symbols ``Gamma^i_{jk}`` per node,
    ``(*grid.shape, m, m, m)``; without it ``christoffel_fd`` differences
    the metric.
    """

    grid: PeriodicGrid
    metric: np.ndarray
    christoffel: np.ndarray | None = None
    family: FamilySpec | None = None
    volume_element: np.ndarray = field(init=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.metric, dtype=float)
        shape, m = self.grid.shape, self.grid.dim
        if g.shape != shape + (m, m):
            raise ValueError(f"metric shape {g.shape} does not match the grid: expected {shape + (m, m)}")
        if self.christoffel is not None:
            gam = np.asarray(self.christoffel, dtype=float)
            if gam.shape != shape + (m, m, m):
                raise ValueError(
                    f"christoffel shape {gam.shape} does not match the grid: expected {shape + (m, m, m)}")
            object.__setattr__(self, "christoffel", _read_only(gam))
        if not np.all(np.isfinite(g)):
            raise ValueError("metric contains non-finite entries")
        if np.max(np.abs(g - np.swapaxes(g, -1, -2))) > 0:
            raise ValueError("metric must be exactly symmetric")
        runs = self._cache["metric_runs"] = _metric_runs(g)
        eig = _per_metric(np.linalg.eigvalsh, g, runs)
        if eig.min() <= 0:
            bad = tuple(int(i) for i in np.unravel_index(int(np.argmin(eig[..., 0])), eig[..., 0].shape))
            raise ValueError(f"metric not positive definite at node {bad}")
        object.__setattr__(self, "metric", _read_only(g))
        object.__setattr__(self, "volume_element", _read_only(np.sqrt(_per_metric(np.linalg.det, g, runs))))

    # -- basic measure ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.grid.dim

    def node_weights(self) -> np.ndarray:
        """Integration weight (volume measure) attached to each node."""
        return _cached(self, "node_weights", lambda: _read_only(self.volume_element * self.grid.cell_volume))

    def total_volume(self) -> float:
        return float(self.node_weights().sum())

    def metric_inverse(self) -> np.ndarray:
        return _cached(self, "metric_inverse", lambda: _read_only(
            _per_metric(np.linalg.inv, self.metric, self._cache["metric_runs"])))

    def positions(self) -> np.ndarray:
        return _cached(self, "positions", lambda: _read_only(self.grid.positions()))

    @property
    def base_axes(self) -> tuple[int, ...]:
        """Axes of the collapsed-base coordinates (first k axes for families)."""
        if self.family is not None:
            return tuple(range(self.family.k))
        return tuple(range(self.dim))


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def _warp(delta: float, x: np.ndarray):
    """The warp ``w(x) = 1 + delta sin(2 pi x)`` and its derivatives w' and w''
    at ``x``: the one copy of the warp formula."""
    s = np.sin(2 * np.pi * x)
    return 1.0 + delta * s, delta * 2 * np.pi * np.cos(2 * np.pi * x), -delta * (2 * np.pi) ** 2 * s


def build_family(spec: FamilySpec) -> DiscreteManifold:
    """Construct one member of a built-in collapsing family.

    Every kind is one metric on the unit chart ``(x_0, ..., x_{k-1}, y)``:

        g = sum_{a<k} dx_a^2 + eps^2 (w(x_0) dy + sigma dx_0)^2,
        w(x) = 1 + delta sin(2 pi x),   sigma = twist / (2 pi),

    a circle fiber of length eps w over a flat k-torus, whose holonomy around
    the first base circle is the twist angle (sigma shears the periodic
    chart).  Each kind is a special case (``FAMILIES``):

    * ``flat-product-torus``: k = 1, delta = sigma = 0: ``g = dx^2 + eps^2 dy^2``;
    * ``warped-torus``: k = 1, sigma = 0: ``g = dx^2 + eps^2 w(x)^2 dy^2``;
    * ``twisted-3-torus``: k = 2, delta = 0: a constant metric whose
      off-diagonal entry ``eps^2 sigma`` couples x_0 and the fiber.

    A warped metric (delta != 0) carries its analytic Christoffel symbols
    at the nodes, ``Gamma^x_yy = -eps^2 w w'`` and ``Gamma^y_xy = w'/w``.
    A constant one (delta = 0, w = 1) carries none: ``christoffel_fd`` gives
    its symbols, exact zeros.
    """
    eps, shape, m = spec.epsilon, spec.resolution, spec.dim
    grid = PeriodicGrid(shape, (1.0,) * m)
    sigma = spec.twist / (2 * np.pi)
    if spec.delta:
        column = (-1,) + (1,) * (m - 1)
        w, wp, _ = (f.reshape(column) for f in _warp(spec.delta, grid.axes()[0]))
        wx = np.broadcast_to(w, shape)
        gamma = np.zeros(w.shape + (m, m, m))    # one column, broadcast along the other axes
        gamma[..., 0, -1, -1] = -(eps**2) * w * wp
        gamma[..., -1, 0, -1] = gamma[..., -1, -1, 0] = wp / w
        gamma = np.broadcast_to(gamma, shape + (m, m, m))
    else:
        # a Python float: the constant entries keep the bits of eps**2, which
        # NumPy's square of an array differs from by an ulp at some eps
        wx, gamma = 1.0, None
    g = np.empty(shape + (m, m))
    g[...] = np.eye(m)
    g[..., 0, 0] = 1.0 + (eps * sigma) ** 2
    g[..., 0, -1] = g[..., -1, 0] = eps**2 * sigma * wx
    g[..., -1, -1] = (eps * wx) ** 2
    return DiscreteManifold(grid=grid, metric=g, christoffel=gamma, family=spec)


def ricci_lower_bound(M: DiscreteManifold) -> float:
    """Analytic lambda with Ric >= -(m-1) lambda g for the built-in families.

    Only the warp curves the family metric: its Gaussian curvature is
    -w''/w, whose most negative value sets the bound (exactly 0 at
    delta = 0, where w'' vanishes).
    """
    if M.family is None:
        return 0.0
    w, _, wpp = _warp(M.family.delta, np.linspace(0.0, 1.0, 4097))    # scan the chart
    kg = -wpp / w
    return float(max(0.0, -kg.min()))


# ---------------------------------------------------------------------------
# geodesic balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicBall:
    """Node set within chart-geodesic distance r of a center node, or the
    whole chart standing in for a ball that reaches the cut locus (``whole``)."""

    manifold: DiscreteManifold
    center: tuple[int, ...]
    radius: float
    members: np.ndarray      # bool, grid-shaped
    distances: np.ndarray    # same shape, np.inf outside computed range
    whole: bool = False      # True when the region is the whole-chart stand-in
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def volume(self) -> float:
        return float(self.manifold.node_weights()[self.members].sum())

    def concentric(self, s: float) -> "GeodesicBall":
        """The region of radius ``s`` about the same center (see ``_region``),
        from the stored distances, without a new Dijkstra; made once per radius
        and cached on this ball, so every reader of B(p, 2r) shares one object."""
        return _cached(self, ("concentric", s), lambda: _region(self.manifold, self.center, self.distances, s))


def _grid_neighbor_offsets(m: int) -> list[tuple[int, ...]]:
    """Moore stencil plus knight moves: keeps graph-metrication error small."""
    offsets = {tuple(int(x) - 1 for x in delta) for delta in np.ndindex(*(3,) * m)} - {(0,) * m}
    # knight moves on each axis pair
    offsets |= {tuple(si if a == i else sj if a == j else 0 for a in range(m))
                for i, j, si, sj in itertools.product(range(m), range(m), (-1, 1), (-2, 2)) if i != j}
    return sorted(offsets)


def _csr_from_rows(cols: np.ndarray, vals: np.ndarray, n: int):
    """CSR matrix of ``n`` columns whose row ``r`` holds ``(cols[r, s], vals[r, s])``
    for ``s = 0, 1, ...`` in that order, duplicates summed.

    This is the CSR that ``coo_matrix(...).tocsr()`` makes from blocks that
    hold one entry per row, block ``s`` after block ``s - 1``: its counting
    sort by row is stable, so each row lists its entries in block order, and
    the index sort and duplicate sum then see the same input.  The row-major
    ``(rows, blocks)`` arrays become the CSR's arrays without a copy.
    """
    A = csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, cols.size + 1, cols.shape[1])), shape=(len(cols), n))
    A.sum_duplicates()
    return A


def _grid_roll(grid: PeriodicGrid, f: np.ndarray, shift: tuple[int, ...]) -> np.ndarray:
    """A flat node field (then any component axes) rolled on the grid: node ``r`` gets node ``r - shift``."""
    rolled = np.roll(f.reshape(grid.shape + f.shape[1:]), shift, axis=tuple(range(grid.dim)))
    return rolled.reshape(f.shape)


def _grid_adjacency(M: DiscreteManifold):
    """Sparse symmetric graph of metric edge lengths between nearby nodes."""
    grid = M.grid
    m = grid.dim
    n_nodes = grid.n_nodes
    h = np.asarray(grid.spacings)
    idx = np.arange(n_nodes, dtype=np.int32)
    g = M.metric.reshape(n_nodes, m, m)
    offsets = _grid_neighbor_offsets(m)
    cols = np.empty((n_nodes, len(offsets)), dtype=np.int32)
    vals = np.empty(cols.shape)
    for s, off in enumerate(offsets):
        dx = np.asarray(off) * h
        cols[:, s] = _grid_roll(grid, idx, np.negative(off))
        # dx . (g + g at node r + off) / 2 . dx summed from 0.0 over i, j in C
        # order, the bits of einsum("i,nij,j->n"); a term with dx_i dx_j = 0 adds +-0
        length_sq = np.zeros(n_nodes)
        for i, j in np.ndindex(m, m):
            if off[i] and off[j]:
                length_sq += dx[i] * (0.5 * (g[:, i, j] + _grid_roll(grid, g[:, i, j], np.negative(off)))) * dx[j]
        np.sqrt(length_sq, out=vals[:, s])
    return _csr_from_rows(cols, vals, n_nodes)


def graph_distances(M: DiscreteManifold, sources: np.ndarray | Sequence[int], limit: float = np.inf) -> np.ndarray:
    """Multi-source Dijkstra distances from flat node indices, flat output.
    The search stops at ``limit``: farther nodes read inf, nearer ones exact."""
    W = _cached(M, "adjacency", lambda: _grid_adjacency(M))
    src = np.atleast_1d(np.asarray(sources, dtype=int))
    # W is exactly symmetric: a directed search skips the transpose an undirected one builds
    d = _csgraph_dijkstra(W, directed=True, indices=src, min_only=len(src) > 1, limit=limit)
    return d if d.ndim == 1 else d[0]


def base_period_lengths(M: DiscreteManifold) -> tuple[float, ...]:
    """Metric length of each base-coordinate circle (through the origin line)."""
    grid = M.grid
    out = []
    for ax in M.base_axes:
        sl = tuple(0 for _ in range(ax)) + (slice(None),) + tuple(0 for _ in range(ax + 1, grid.dim))
        gaa = M.metric[sl + (ax, ax)]
        out.append(float(np.sum(np.sqrt(gaa)) * grid.spacings[ax]))
    return tuple(out)


def _cut_locus_radius(M: DiscreteManifold) -> float:
    """Half the smallest base period: balls this large touch the chart cut locus."""
    return 0.5 * min(base_period_lengths(M))


def geodesic_ball(M: DiscreteManifold, p: tuple[int, ...], r: float) -> GeodesicBall:
    """Geodesic ball by Dijkstra distance under the metric, about the node ``p``.

    The radius must stay below half of the smallest base period so the ball
    does not touch the chart cut locus (wrapping fully around collapsed fiber
    axes is intended and allowed).
    """
    limit = _cut_locus_radius(M)
    if r >= limit:
        raise ValueError(
            f"ball of radius {r} touches the chart cut locus "
            f"(half smallest base period = {limit:.6g}); use a smaller ball radius (ball.radius)"
        )
    dist = graph_distances(M, [int(np.ravel_multi_index(p, M.grid.shape))]).reshape(M.grid.shape)
    return _region(M, p, dist, r)


def _region(M: DiscreteManifold, p: tuple[int, ...], dist: np.ndarray, r: float) -> GeodesicBall:
    """Ball of radius r on the Dijkstra distances from p when it fits the
    chart, otherwise the whole-chart stand-in.

    2r- and 4r-regions of the estimates routinely exceed the chart cut-locus
    limit on a closed torus; the whole chart then stands in for the larger
    ball (it contains it).
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r >= _cut_locus_radius(M):
        return GeodesicBall(M, p, r, np.ones(M.grid.shape, dtype=bool), dist, whole=True)
    return GeodesicBall(M, p, r, dist <= r + 1e-12, dist)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberTrace:
    """Ordered polyline sampling of one fiber (level set) of a splitting map,
    with every fact its readers take from the node fields at its samples
    (``extract_fiber`` gathers them together); the fiber's neighborhoods are
    cached on it (``flow.fiber_apriori_check``)."""

    level: np.ndarray              # (k,)
    points: np.ndarray             # (n, m) chart coordinates, unwrapped along the chain
    regular: bool                  # min_lambda above the regular mask's threshold
    length: float                  # metric length of the polyline
    diameter: float                # intrinsic diameter along the polyline (= length/2 on loops)
    min_lambda: float              # smallest Jacobian eigenvalue seen along the trace
    max_Lambda: float              # largest Jacobian eigenvalue seen along the trace
    hessian_sq_sup: tuple[float, ...]  # per component b, max |Hess Phi^b|^2 over the samples
    in_mask: bool                  # every sample's stencil lies in the regular mask
    level_error: float             # max |Phi(sample) - level|
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _polyline_metric_length(M: DiscreteManifold, pts: np.ndarray) -> float:
    """Metric length of a closed polyline, its closing segment included."""
    from .operators import interp_scalar

    d_close = M.grid.wrap_delta(pts[0] - pts[-1])
    deltas = np.vstack([np.diff(pts, axis=0), d_close])
    mids = np.vstack([0.5 * (pts[:-1] + pts[1:]), pts[-1] + 0.5 * d_close])
    g = interp_scalar(M, M.metric, M.grid.wrap(mids))
    seg = np.sqrt(np.einsum("ni,nij,nj->n", deltas, g, deltas))
    return float(seg.sum())


def extract_fiber(mask, level) -> FiberTrace:
    """Trace the fiber ``Phi^{-1}(level)`` of the map ``mask.phi`` of a
    ``RegularMask`` as an ordered closed polyline.

    Supports one-dimensional fibers only (m - k = 1): marching squares on 2-d
    charts, predictor-corrector continuation with Newton reprojection on 3-d
    charts.  The trace is regular when the smallest Jacobian eigenvalue along
    the curve stays above the mask's threshold, and ``in_mask`` when every
    sample's stencil lies in its nodes.

    Every fiber fact comes from one ``interp_scalar`` gather at the samples
    of ``mask.fiber_fields()``, cached on the mask; a stacked component keeps
    the bits of a gather of its own, so the level error is
    ``level_residual``'s and the rest are the fields' own samples.
    """
    phi, M = mask.phi, mask.phi.manifold
    m, k = M.dim, phi.k
    if m - k != 1:
        raise ValueError(f"fiber tracing supports m - k = 1 only (m={m}, k={k})")
    level = np.atleast_1d(np.asarray(level, dtype=float))
    if level.shape != (k,):
        raise ValueError(f"level must have {k} components")

    if m == 2:
        pts, closed = _march_squares(phi, float(level[0]))
    else:
        pts, closed = _trace_continuation(phi, level), True
    if len(pts) < 3:
        raise ValueError(f"fiber at level {level} is under-resolved (got {len(pts)} samples)")
    if not closed:
        raise ValueError(f"fiber at level {level} is open: its longest chain of level crossings does not close")

    from .operators import interp_scalar

    samples = interp_scalar(M, mask.fiber_fields(), M.grid.wrap(pts))
    lam, Lam, regular_set = samples[:, k], samples[:, k + 1], samples[:, k + 2]
    err = float(np.max(np.abs(phi.wrap_value_delta(phi._values_at(pts, samples[:, :k]) - level))))
    length = _polyline_metric_length(M, pts)
    return FiberTrace(
        level=level,
        points=pts,
        regular=bool(lam.min() > mask.threshold),
        length=length,
        diameter=0.5 * length,
        min_lambda=float(lam.min()),
        max_Lambda=float(np.max(Lam)),
        hessian_sq_sup=tuple(float(np.max(hn**2)) for hn in samples[:, k + 3:].T),
        in_mask=bool(np.isfinite(regular_set).all()),
        level_error=err,
    )


def _traced_fibers(mask, levels):
    """The fibers of ``mask.phi`` at ``levels`` that trace, in level order; a level whose
    trace raises ValueError or RuntimeError (open, under-resolved, Newton failure) is dropped."""
    for level in levels:
        try:
            yield extract_fiber(mask, level)
        except (ValueError, RuntimeError):
            pass


def _march_squares(phi, v: float) -> tuple[np.ndarray, bool]:
    """Marching squares for one periodic scalar level set, chained by edge ids;
    the polyline and whether its chain closed."""
    segments, (edges, points) = _level_crossings(phi, v)
    return _chain_segments(phi.manifold.grid, segments, edges, points)


# the edges of a cell in the order it registers them (bottom, top, left,
# right): their corners among 00, 10, 01, 11, their first node relative to
# the cell's base node, and the axis they run along
_EDGE_CORNERS = np.array([[0, 1], [2, 3], [0, 2], [1, 3]])
_EDGE_NODE = np.array([[0, 0], [0, 1], [0, 0], [1, 0]])
_EDGE_AXIS = np.array([0, 0, 1, 1])
# a cell's segments as offsets into its crossed edges: two crossings, or a
# saddle that joins bottom to right or bottom to left (second row unused for two)
_CELL_SEGMENTS = np.array([[[0, 1], [0, 1]], [[0, 3], [1, 2]], [[0, 2], [1, 3]]])


def _cell_corners(phi):
    """Per cell, in row-major order: the first component at its corners 00,
    10, 01, 11, ``(n_nodes, 4)``, and the jump that carries each corner to the
    cell's side of the seam (0 off it); the mean of the carried corners; a
    margin, twice the largest carried corner's deviation from the mean (a
    level that crosses the cell lies within it) plus ``4 eps (|mean| +
    period)`` for round-off; and the signed value period that picks a cell's
    branch."""
    grid = phi.manifold.grid
    f, winding = phi.values[0], phi.windings[0]
    jump1 = winding[0] * grid.periods[0]
    jump2 = winding[1] * grid.periods[1]
    corners = np.stack([np.roll(f, (-d1, -d2), axis=(0, 1)) for d2, d1 in np.ndindex(2, 2)], axis=-1)
    jumps, c = np.zeros_like(corners), corners.copy()
    for part in (c, jumps):       # across a seam: corners 10 and 11 of the last row, 01 and 11 of the last column
        part[-1, :, 1::2] += jump1
        part[:, -1, 2:] += jump2
    cmean = 0.25 * (c[..., 0] + c[..., 1] + c[..., 2] + c[..., 3]).ravel()
    branch = jump1 if jump1 != 0.0 else jump2
    margin = 2.0 * np.abs(c.reshape(-1, 4) - cmean[:, None]).max(axis=1)
    margin += 4 * np.finfo(float).eps * (np.abs(cmean) + abs(branch))
    return (_read_only(corners.reshape(-1, 4)), _read_only(jumps.reshape(-1, 4)), _read_only(cmean),
            _read_only(margin), branch)


def _level_crossings(phi, v: float) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Marching-squares segments of one periodic level set of a 2-d map's first
    component, and where each grid edge crosses it.

    Edge ``a * n_nodes + i`` runs along axis ``a`` from flat node ``i`` to its
    next neighbor, indices wrapped.  ``segments`` holds edge pairs, one per
    active cell in row-major order, or two for a saddle, joined by the sign at
    the cell center.  ``crossing`` is ``(edges, points)``: the sorted ids of
    the crossed edges and where each crosses, interpolated in the first cell
    in that order to cross it, so adjacent cells chain exactly.

    Only a cell whose corner mean on the level's branch lies within its margin
    (``_cell_corners``), plus ``4 eps |v|``, of the level can cross it; every
    cell's margin is tested, in row-major order.
    """
    grid = phi.manifold.grid
    corners, jumps, cmean, margin, branch = _cached(phi, "corners", lambda: _cell_corners(phi))
    # pick the value branch nearest each cell
    wraps = branch * np.round((cmean - v) / branch)
    test = np.abs(cmean - v - wraps) - 4 * np.finfo(float).eps * abs(v) <= margin
    cand = np.flatnonzero(test)
    d = corners[cand] - (v + (wraps[test, None] - jumps[cand]))    # a seam corner keeps its and v's low bits
    sgn = d > 0
    active = ~(sgn == sgn[:, :1]).all(axis=1)
    i, j = np.divmod(cand[active], grid.shape[1])
    dc = d[active]                                     # (cells, corners)
    a, b = dc[:, _EDGE_CORNERS[:, 0]], dc[:, _EDGE_CORNERS[:, 1]]
    crossed = (a > 0) != (b > 0)                       # (cells, edges): two or four per cell
    cell, edge = np.nonzero(crossed)
    node = (np.stack([i, j], axis=1)[cell] + _EDGE_NODE[edge]) % grid.shape
    frac = np.zeros(node.shape)
    frac[np.arange(len(edge)), _EDGE_AXIS[edge]] = a[crossed] / (a[crossed] - b[crossed])
    points = (node + frac) * grid.spacings % grid.periods
    ids = _EDGE_AXIS[edge] * grid.n_nodes + node[:, 0] * grid.shape[1] + node[:, 1]
    edges, first = np.unique(ids, return_index=True)

    count = crossed.sum(axis=1)
    center = 0.25 * (dc[:, 0] + dc[:, 1] + dc[:, 2] + dc[:, 3])
    kind = np.where(count == 4, np.where((center > 0) == (dc[:, 0] > 0), 1, 2), 0)
    seg = (np.cumsum(count) - count)[:, None, None] + _CELL_SEGMENTS[kind]
    return ids[seg[np.stack([np.ones(len(kind), dtype=bool), kind > 0], axis=1)]], (edges, points[first])


def _chain_segments(grid: PeriodicGrid, segments: np.ndarray, edges: np.ndarray, points: np.ndarray):
    """The longest chain of segments (edge pairs, ``(n, 2)``) as a polyline
    through the crossing ``points`` of the sorted ``edges``, unwrapped along
    the chain, and whether that chain closed (its last edge is its first).
    A chain starts at the first segment no chain holds, and grows from its
    last edge through the other segment there (an edge bounds two cells)."""
    if not len(segments):
        return np.zeros((0, grid.dim)), False
    ends = np.searchsorted(edges, segments).ravel()    # end 2 s + k: edge k of segment s, as its index
    by_edge = np.argsort(ends, kind="stable")
    pair = np.flatnonzero(ends[by_edge[1:]] == ends[by_edge[:-1]])
    across = np.full(len(ends), -1)                     # the other segment's end at the same edge
    across[by_edge[pair]], across[by_edge[pair + 1]] = by_edge[pair + 1], by_edge[pair]
    ends, across = ends.tolist(), across.tolist()
    used, chain = [False] * len(segments), []
    for s in range(len(segments)):
        if used[s]:
            continue
        used[s] = True
        grown, end = [ends[2 * s], ends[2 * s + 1]], 2 * s + 1
        while across[end] >= 0 and not used[across[end] >> 1]:
            end = across[end] ^ 1                       # leave the next segment by its other edge
            used[end >> 1] = True
            grown.append(ends[end])
        if len(grown) > len(chain):
            chain = grown
    closed = chain[0] == chain[-1]
    if closed:
        chain = chain[:-1]
    pts = points[chain]
    # unwrap along the chain so consecutive deltas are the nearest representatives
    deltas = grid.wrap_delta(np.diff(pts, axis=0))
    return np.vstack([pts[:1], pts[:1] + np.cumsum(deltas, axis=0)]), closed


# continuation steps after which a fiber trace that has not closed is abandoned
TRACE_MAX_STEPS = 200_000


def _trace_continuation(phi, level: np.ndarray) -> np.ndarray:
    """Predictor-corrector tracing of a curve fiber of a 3-d chart (k = 2).

    Each step predicts along the null direction of the exact chart Jacobian
    that the last Newton projection returns with its point, then projects the
    prediction back onto the level set.
    """
    M = phi.manifold
    grid = M.grid
    step = 0.5 * min(grid.spacings)
    periods = [float(p) for p in grid.periods]

    # seed: node nearest the level, Newton-projected onto the fiber
    vals = phi.values_stack()
    dist = np.linalg.norm(vals.reshape(-1, phi.k) - level, axis=1)
    seed_flat = int(np.argmin(dist))
    proj = phi.project_to_level(M.positions().reshape(-1, M.dim)[seed_flat], level)

    start = proj.point
    pts = [start]
    prev_tau = None
    for it in range(TRACE_MAX_STEPS):
        tau = _nullspace_direction(proj.jacobian)
        if prev_tau is not None and sum(a * b for a, b in zip(tau, prev_tau)) < 0:
            tau = [-t for t in tau]
        prev_tau = tau
        proj = phi.project_to_level([xi + step * t for xi, t in zip(pts[-1], tau)], level)
        pts.append(proj.point)
        if it >= 3:
            gap = [(a - b + p / 2) % p - p / 2 for a, b, p in zip(proj.point, start, periods)]
            if math.hypot(*gap) < 0.6 * step:
                return np.asarray(pts[:-1])
    raise RuntimeError(f"fiber trace at level {level} did not close after {TRACE_MAX_STEPS} steps")


def _nullspace_direction(jac: list[list[float]]) -> list[float]:
    """Unit null direction of a 2 x 3 chart Jacobian: its rows' cross product."""
    (a1, a2, a3), (b1, b2, b3) = jac
    tau = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
    n = math.hypot(*tau)
    if n == 0:
        raise RuntimeError("singular point encountered while tracing fiber")
    return [t / n for t in tau]


# levels epsilon_proxy samples (their k-th root per component), and the
# fraction of the value range it trims at each end
PROXY_LEVELS = 33
PROXY_MARGIN = 0.05


def epsilon_proxy(ball: GeodesicBall, mask) -> float:
    """Measured collapse scale: max regular-fiber intrinsic diameter over 2r.

    Levels are sampled uniformly (per component) across the range of the map
    ``mask.phi`` over the ball interior, trimmed by ``PROXY_MARGIN`` at both
    ends.  A fiber counts when its least Jacobian eigenvalue stays above the
    threshold of ``mask``, the map's ``RegularMask``.
    """
    if ball.radius <= 0:
        raise ValueError("epsilon proxy needs a ball of positive radius")
    k = mask.phi.k
    _, lo, hi = mask.phi.value_box(ball)
    span = hi - lo
    lo = lo + PROXY_MARGIN * span
    hi = hi - PROXY_MARGIN * span
    n = max(3, int(round(PROXY_LEVELS ** (1 / k))))
    axes = np.meshgrid(*[np.linspace(lo[a], hi[a], n) for a in range(k)], indexing="ij")
    best = -np.inf
    for trace in _traced_fibers(mask, np.stack([g.ravel() for g in axes], axis=-1)):
        if trace.regular:
            best = max(best, trace.diameter)
    if best == -np.inf:
        raise ValueError("no regular fiber found while measuring the collapse proxy")
    return float(best / (2.0 * ball.radius))

