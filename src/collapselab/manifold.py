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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

__all__ = [
    "PeriodicGrid",
    "DiscreteManifold",
    "FamilySpec",
    "GeodesicBall",
    "FiberTrace",
    "build_family",
    "ricci_lower_bound",
    "geodesic_ball",
    "ball_region",
    "graph_distances",
    "extract_fiber",
    "epsilon_proxy",
]

FAMILY_KINDS = ("flat-product-torus", "warped-torus", "twisted-3-torus")

MIN_FIBER_NODES = 16


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
    """Parameters selecting one member of a collapsing family."""

    kind: str
    epsilon: float
    resolution: tuple[int, ...]
    delta: float = 0.0
    twist: float = 0.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"collapse parameter epsilon must lie in (0, 1], got {self.epsilon}")
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
        return {"flat-product-torus": 2, "warped-torus": 2, "twisted-3-torus": 3}[self.kind]

    @property
    def k(self) -> int:
        """Base dimension: every built-in family collapses one circle fiber."""
        return self.dim - 1


@dataclass(frozen=True)
class DiscreteManifold:
    """A discrete Riemannian manifold: periodic grid chart + metric + volume element.

    ``metric`` holds covariant components per node, ``(*shape, m, m)``.
    ``christoffel`` is an optional analytic closure mapping chart points
    ``(N, m)`` to ``(N, m, m, m)`` symbols ``Gamma^i_{jk}``.
    """

    dim: int
    chart: PeriodicGrid
    metric: np.ndarray
    volume_element: np.ndarray
    christoffel: Callable[[np.ndarray], np.ndarray] | None = None
    family: FamilySpec | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.metric, dtype=float)
        w = np.asarray(self.volume_element, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("metric contains non-finite entries")
        if np.max(np.abs(g - np.swapaxes(g, -1, -2))) > 0:
            raise ValueError("metric must be exactly symmetric")
        eig = np.linalg.eigvalsh(g)
        if eig.min() <= 0:
            bad = np.unravel_index(int(np.argmin(eig[..., 0])), eig[..., 0].shape)
            raise ValueError(f"metric not positive definite at node {bad}")
        det = np.linalg.det(g)
        if np.max(np.abs(np.sqrt(det) - w)) > 1e-12 * max(1.0, float(np.max(w))):
            raise ValueError("volume_element inconsistent with sqrt(det(metric))")
        g.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "metric", g)
        object.__setattr__(self, "volume_element", w)

    # -- basic measure ------------------------------------------------------

    @property
    def grid(self) -> PeriodicGrid:
        return self.chart

    def node_weights(self) -> np.ndarray:
        """Integration weight (volume measure) attached to each node."""
        if "node_weights" not in self._cache:
            w = self.volume_element * self.chart.cell_volume
            w.setflags(write=False)
            self._cache["node_weights"] = w
        return self._cache["node_weights"]

    def total_volume(self) -> float:
        return float(self.node_weights().sum())

    def metric_inverse(self) -> np.ndarray:
        if "metric_inverse" not in self._cache:
            ginv = np.linalg.inv(self.metric)
            ginv.setflags(write=False)
            self._cache["metric_inverse"] = ginv
        return self._cache["metric_inverse"]

    def positions(self) -> np.ndarray:
        if "positions" not in self._cache:
            pos = self.chart.positions()
            pos.setflags(write=False)
            self._cache["positions"] = pos
        return self._cache["positions"]

    @property
    def base_axes(self) -> tuple[int, ...]:
        """Axes of the collapsed-base coordinates (first k axes for families)."""
        if self.family is not None:
            return tuple(range(self.family.k))
        return tuple(range(self.dim))


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def _warp(delta: float):
    def w(x):
        return 1.0 + delta * np.sin(2 * np.pi * x)

    def wp(x):
        return delta * 2 * np.pi * np.cos(2 * np.pi * x)

    return w, wp


def build_family(spec: FamilySpec) -> DiscreteManifold:
    """Construct one member of a built-in collapsing family.

    The three families come with exact metrics and analytic Christoffel
    closures:

    * ``flat-product-torus``: ``g = dx^2 + eps^2 dy^2`` on the unit chart;
    * ``warped-torus``: ``g = dx^2 + eps^2 w(x)^2 dy^2``,
      ``w(x) = 1 + delta sin(2 pi x)``;
    * ``twisted-3-torus``: unit 2-torus base with an eps-circle fiber whose
      holonomy around the first base circle is the twist angle.  In the
      sheared periodic chart the metric is constant with off-diagonal
      coupling ``sigma = twist / (2 pi)``.
    """
    eps = spec.epsilon
    shape = spec.resolution
    if spec.kind == "flat-product-torus":
        grid = PeriodicGrid(shape, (1.0, 1.0))
        g = np.zeros(shape + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = eps**2
        gamma = _flat_christoffel(2)
    elif spec.kind == "warped-torus":
        grid = PeriodicGrid(shape, (1.0, 1.0))
        w, wp = _warp(spec.delta)
        x = grid.axes()[0][:, None]
        wx = np.broadcast_to(w(x), shape)
        g = np.zeros(shape + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = (eps * wx) ** 2
        gamma = _warped_christoffel(eps, spec.delta)
    elif spec.kind == "twisted-3-torus":
        grid = PeriodicGrid(shape, (1.0, 1.0, 1.0))
        sigma = spec.twist / (2 * np.pi)
        gc = np.array(
            [
                [1.0 + (eps * sigma) ** 2, 0.0, eps**2 * sigma],
                [0.0, 1.0, 0.0],
                [eps**2 * sigma, 0.0, eps**2],
            ]
        )
        g = np.broadcast_to(gc, shape + (3, 3)).copy()
        gamma = _flat_christoffel(3)
    else:  # pragma: no cover - guarded by FamilySpec
        raise ValueError(spec.kind)

    vol = np.sqrt(np.linalg.det(g))
    return DiscreteManifold(
        dim=grid.dim, chart=grid, metric=g, volume_element=vol, christoffel=gamma, family=spec
    )


def _flat_christoffel(m: int):
    def gamma(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.zeros(pts.shape[:-1] + (m, m, m))

    return gamma


def _warped_christoffel(eps: float, delta: float):
    w, wp = _warp(delta)

    def gamma(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts)
        x = pts[..., 0]
        out = np.zeros(pts.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = -(eps**2) * w(x) * wp(x)   # Gamma^x_yy
        out[..., 1, 0, 1] = wp(x) / w(x)               # Gamma^y_xy
        out[..., 1, 1, 0] = out[..., 1, 0, 1]
        return out

    return gamma


def ricci_lower_bound(M: DiscreteManifold) -> float:
    """Analytic lambda with Ric >= -(m-1) lambda g for the built-in families.

    Flat and twisted families are flat (0); the warped torus has Gaussian
    curvature -w''/w whose most negative value sets the bound.
    """
    fam = M.family
    if fam is None or fam.kind in ("flat-product-torus", "twisted-3-torus"):
        return 0.0
    if fam.kind == "warped-torus":
        # K_G = -w''/w with w'' = -delta (2 pi)^2 sin(2 pi x); scan the chart.
        x = np.linspace(0.0, 1.0, 4097)
        w = 1.0 + fam.delta * np.sin(2 * np.pi * x)
        wpp = -fam.delta * (2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
        kg = -wpp / w
        return float(max(0.0, -kg.min()))
    return 0.0


# ---------------------------------------------------------------------------
# geodesic balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicBall:
    """Node set within chart-geodesic distance r of a center node."""

    manifold: DiscreteManifold
    center: tuple[int, ...]
    radius: float
    members: np.ndarray      # bool, grid-shaped
    boundary: np.ndarray     # bool, members adjacent to non-members
    distances: np.ndarray    # same shape, np.inf outside computed range
    whole: bool = False      # True when the region is the whole-chart stand-in

    def volume(self) -> float:
        return float(self.manifold.node_weights()[self.members].sum())

    def center_position(self) -> np.ndarray:
        return self.manifold.positions()[self.center]

    def concentric(self, s: float) -> "GeodesicBall":
        """``ball_region(M, center, s)`` from the stored distances, without a new Dijkstra."""
        return _region(self.manifold, self.center, self.distances, s)


def _grid_neighbor_offsets(m: int) -> list[tuple[int, ...]]:
    """Moore stencil plus knight moves: keeps graph-metrication error small."""
    offsets = set()
    for delta in np.ndindex(*(3,) * m):
        d = tuple(int(x) - 1 for x in delta)
        if any(d):
            offsets.add(d)
    # knight moves on each axis pair
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            for si in (-1, 1):
                for sj in (-2, 2):
                    d = [0] * m
                    d[i], d[j] = si, sj
                    offsets.add(tuple(d))
    return sorted(offsets)


def _grid_adjacency(M: DiscreteManifold):
    """Sparse symmetric graph of metric edge lengths between nearby nodes."""
    if "adjacency" in M._cache:
        return M._cache["adjacency"]
    grid = M.grid
    m = grid.dim
    n_nodes = grid.n_nodes
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
        ell = np.sqrt(np.einsum("i,nij,j->n", dx, gmid, dx))
        rows.append(idx.ravel())
        cols.append(j)
        vals.append(ell)
    W = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    ).tocsr()
    M._cache["adjacency"] = W
    return W


def graph_distances(M: DiscreteManifold, sources: np.ndarray | Sequence[int]) -> np.ndarray:
    """Multi-source Dijkstra distances from flat node indices, flat output."""
    W = _grid_adjacency(M)
    src = np.atleast_1d(np.asarray(sources, dtype=int))
    d = _csgraph_dijkstra(W, directed=False, indices=src, min_only=len(src) > 1)
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


def _distances_from(M: DiscreteManifold, p: tuple[int, ...] | int) -> tuple[tuple[int, ...], np.ndarray]:
    """The center as a node tuple and the grid-shaped Dijkstra distances from it."""
    grid = M.grid
    p = p if isinstance(p, tuple) else tuple(np.unravel_index(int(p), grid.shape))
    return p, graph_distances(M, [int(np.ravel_multi_index(p, grid.shape))]).reshape(grid.shape)


def geodesic_ball(M: DiscreteManifold, p: tuple[int, ...] | int, r: float) -> GeodesicBall:
    """Geodesic ball by Dijkstra distance under the metric.

    The radius must stay below half of the smallest base period so the ball
    does not touch the chart cut locus (wrapping fully around collapsed fiber
    axes is intended and allowed).
    """
    limit = _cut_locus_radius(M)
    if r >= limit:
        raise ValueError(
            f"ball of radius {r} touches the chart cut locus "
            f"(half smallest base period = {limit:.6g}); use a smaller r"
        )
    return _region(M, *_distances_from(M, p), r)


def _boundary_of(members: np.ndarray) -> np.ndarray:
    if members.all():
        return np.zeros_like(members)
    out = np.zeros_like(members)
    for ax in range(members.ndim):
        for s in (1, -1):
            out |= members & ~np.roll(members, s, axis=ax)
    return out


def ball_region(M: DiscreteManifold, p: tuple[int, ...] | int, r: float) -> GeodesicBall:
    """Ball when it fits the chart, otherwise the whole-chart stand-in.

    2r- and 4r-regions of the estimates routinely exceed the chart cut-locus
    limit on a closed torus; the whole chart then stands in for the larger
    ball (it contains it).
    """
    return _region(M, *_distances_from(M, p), r)


def _region(M: DiscreteManifold, p: tuple[int, ...], dist: np.ndarray, r: float) -> GeodesicBall:
    """The ``ball_region`` rule on the Dijkstra distances from p."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r >= _cut_locus_radius(M):
        members = np.ones(M.grid.shape, dtype=bool)
        return GeodesicBall(M, p, r, members, np.zeros_like(members), dist, whole=True)
    members = dist <= r + 1e-12
    return GeodesicBall(M, p, r, members, _boundary_of(members), dist)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberTrace:
    """Ordered polyline sampling of one fiber (level set) of a splitting map."""

    level: np.ndarray              # (k,)
    points: np.ndarray             # (n, m) chart coordinates, unwrapped along the chain
    closed: bool
    regular: bool
    length: float                  # metric length of the polyline
    diameter: float                # intrinsic diameter along the polyline (= length/2 on loops)
    min_lambda: float              # smallest Jacobian eigenvalue seen along the trace
    level_error: float             # max |Phi(sample) - level|

    @property
    def n_samples(self) -> int:
        return len(self.points)


def _polyline_metric_length(M: DiscreteManifold, pts: np.ndarray, closed: bool) -> float:
    from .operators import interp_metric

    if len(pts) < 2:
        return 0.0
    deltas = np.diff(pts, axis=0)
    mids = 0.5 * (pts[:-1] + pts[1:])
    if closed:
        d_close = M.grid.wrap_delta(pts[0] - pts[-1])
        deltas = np.vstack([deltas, d_close])
        mids = np.vstack([mids, pts[-1] + 0.5 * d_close])
    g = interp_metric(M, M.grid.wrap(mids))
    seg = np.sqrt(np.einsum("ni,nij,nj->n", deltas, g, deltas))
    return float(seg.sum())


def extract_fiber(phi, level, *, lambda_threshold: float | None = None) -> FiberTrace:
    """Trace the fiber ``Phi^{-1}(level)`` as an ordered closed polyline.

    Supports one-dimensional fibers only (m - k = 1): marching squares on 2-d
    charts, predictor-corrector continuation with Newton reprojection on 3-d
    charts.  Returns a trace with ``regular=False`` when the smallest Jacobian
    eigenvalue drops below the threshold anywhere along the curve.
    """
    from .splitting import SplittingMap, jacobian_stats

    if not isinstance(phi, SplittingMap):
        raise TypeError("extract_fiber expects a SplittingMap")
    M = phi.manifold
    m, k = M.dim, phi.k
    if m - k != 1:
        raise ValueError(f"fiber tracing supports m - k = 1 only (m={m}, k={k})")
    level = np.atleast_1d(np.asarray(level, dtype=float))
    if level.shape != (k,):
        raise ValueError(f"level must have {k} components")

    lo, hi = phi.branch_range(phi.domain_mask())
    periods = phi.value_periods()
    for a in range(k):
        if periods[a] > 0 and phi.domain is None:
            continue  # degree-one circle-valued component on the closed chart: surjective
        if not (lo[a] - 1e-12 <= level[a] <= hi[a] + 1e-12):
            raise ValueError(
                f"level {level} outside the splitting map range [{lo}, {hi}] (component {a})"
            )

    if m == 2:
        pts = _march_squares(phi, float(level[0]))
    else:
        pts = _trace_continuation(phi, level)
    if len(pts) < 3:
        raise ValueError(f"fiber at level {level} is under-resolved (got {len(pts)} samples)")

    stats = jacobian_stats(phi)
    if lambda_threshold is None:
        lambda_threshold = stats.default_threshold()
    from .operators import interp_scalar

    lam = interp_scalar(M, stats.lam, M.grid.wrap(pts))
    err = float(np.max(np.abs(phi.level_residual(pts, level))))
    length = _polyline_metric_length(M, pts, closed=True)
    return FiberTrace(
        level=level,
        points=pts,
        closed=True,
        regular=bool(lam.min() > lambda_threshold),
        length=length,
        diameter=0.5 * length,
        min_lambda=float(lam.min()),
        level_error=err,
    )


def _march_squares(phi, v: float) -> np.ndarray:
    """Marching squares for one periodic scalar level set, chained by edge ids.

    Edge keys: ``("h", i, j)`` runs from node (i, j) to (i+1, j) and
    ``("v", i, j)`` from (i, j) to (i, j+1), indices wrapped.  Crossing
    positions are stored once per edge, so adjacent cells chain exactly.
    """
    M = phi.manifold
    grid = M.grid
    n1, n2 = grid.shape
    h1, h2 = grid.spacings
    f, winding = phi.component_arrays(0)
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

    # pick the value branch nearest each cell (circle-valued maps)
    cmean = 0.25 * (c00 + c10 + c01 + c11)
    branch = jump1 if jump1 != 0.0 else jump2
    if branch != 0.0:
        vloc = v + branch * np.round((cmean - v) / branch)
    else:
        vloc = np.full_like(cmean, v)
    d00, d10, d01, d11 = c00 - vloc, c10 - vloc, c01 - vloc, c11 - vloc

    segments: list[tuple[tuple, tuple]] = []
    crossing: dict[tuple, tuple[float, float]] = {}

    def register(key: tuple, a: float, b: float, cell_i: int, cell_j: int) -> None:
        if key in crossing:
            return
        t = a / (a - b)
        kind = key[0]
        if kind == "h":
            crossing[key] = (((cell_i + t) * h1) % p1, (key[2] * h2) % p2)
        else:
            crossing[key] = ((key[1] * h1) % p1, ((cell_j + t) * h2) % p2)

    sgn = (d00 > 0, d10 > 0, d01 > 0, d11 > 0)
    finite = np.isfinite(d00) & np.isfinite(d10) & np.isfinite(d01) & np.isfinite(d11)
    active = finite & ~((sgn[0] == sgn[1]) & (sgn[1] == sgn[2]) & (sgn[2] == sgn[3]))
    for i, j in zip(*np.nonzero(active)):
        i, j = int(i), int(j)
        kb = ("h", i, j)
        kt = ("h", i, (j + 1) % n2)
        kl = ("v", i, j)
        kr = ("v", (i + 1) % n1, j)
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
            # saddle: connect according to the sign at the cell center
            center = 0.25 * (d00[i, j] + d10[i, j] + d01[i, j] + d11[i, j])
            if (center > 0) == bool(sgn[0][i, j]):
                segments.append((kb, kr))
                segments.append((kt, kl))
            else:
                segments.append((kb, kl))
                segments.append((kt, kr))
    return _chain_segments(grid, segments, crossing)


def _chain_segments(grid: PeriodicGrid, segments, crossing) -> np.ndarray:
    if not segments:
        return np.zeros((0, grid.dim))
    incident: dict[tuple, list[int]] = {}
    for s, (a, b) in enumerate(segments):
        incident.setdefault(a, []).append(s)
        incident.setdefault(b, []).append(s)
    # walk the largest closed chain
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
            tail = chain[-1]
            for s in incident.get(tail, []):
                if used[s]:
                    continue
                a, b = segments[s]
                nxt = b if a == tail else a
                used[s] = True
                chain.append(nxt)
                grown = True
                break
        chains.append(chain)
    chain = max(chains, key=len)
    closed = chain[0] == chain[-1]
    if closed:
        chain = chain[:-1]
    pts = np.array([crossing[key] for key in chain])
    # unwrap along the chain so consecutive deltas are the nearest representatives
    deltas = grid.wrap_delta(np.diff(pts, axis=0))
    return np.vstack([pts[:1], pts[:1] + np.cumsum(deltas, axis=0)])


def _trace_continuation(phi, level: np.ndarray, max_steps: int = 200_000) -> np.ndarray:
    """Predictor-corrector tracing of a codimension-k curve fiber (m = k + 1)."""
    M = phi.manifold
    grid = M.grid
    step = 0.5 * min(grid.spacings)

    # seed: node nearest the level, Newton-projected onto the fiber
    vals = phi.values_stack()
    dist = np.linalg.norm(vals.reshape(-1, phi.k) - level, axis=1)
    seed_flat = int(np.argmin(dist))
    x = M.positions().reshape(-1, M.dim)[seed_flat].astype(float).copy()
    x = phi.project_to_level(x[None, :], level).points[0]

    pts = [x.copy()]
    prev_tau = None
    start = x.copy()
    for it in range(max_steps):
        jac = phi.chart_jacobian(pts[-1][None, :])[0]  # (k, m)
        tau = _nullspace_direction(jac)
        if prev_tau is not None and float(tau @ prev_tau) < 0:
            tau = -tau
        prev_tau = tau
        x_pred = pts[-1] + step * tau
        x_new = phi.project_to_level(x_pred[None, :], level).points[0]
        pts.append(x_new)
        if it >= 3:
            gap = np.linalg.norm(grid.wrap_delta(x_new - start))
            if gap < 0.6 * step:
                return np.asarray(pts[:-1])
    raise RuntimeError(f"fiber trace at level {level} did not close after {max_steps} steps")


def _nullspace_direction(jac: np.ndarray) -> np.ndarray:
    if jac.shape == (1, 2):
        tau = np.array([-jac[0, 1], jac[0, 0]])
    elif jac.shape == (2, 3):
        tau = np.cross(jac[0], jac[1])
    else:
        _, _, vt = np.linalg.svd(jac)
        tau = vt[-1]
    n = np.linalg.norm(tau)
    if n == 0:
        raise RuntimeError("singular point encountered while tracing fiber")
    return tau / n


def epsilon_proxy(
    M: DiscreteManifold,
    ball: GeodesicBall,
    phi,
    *,
    n_levels: int = 33,
    margin: float = 0.05,
) -> float:
    """Measured collapse scale: max regular-fiber intrinsic diameter over 2r.

    Levels are sampled uniformly (per component) across the splitting map's
    range over the ball interior, trimmed by ``margin`` at both ends.
    """
    if ball.radius <= 0:
        raise ValueError("epsilon proxy needs a ball of positive radius")
    anchor = phi.evaluate(ball.center_position()[None, :])[0]
    lo, hi = phi.branch_range(ball.members, anchor)
    span = hi - lo
    lo = lo + margin * span
    hi = hi - margin * span
    axes = [np.linspace(lo[a], hi[a], n_levels if phi.k == 1 else max(3, int(round(n_levels ** (1 / phi.k)))))
            for a in range(phi.k)]
    best = -np.inf
    found = False
    for level in _level_product(axes):
        try:
            trace = extract_fiber(phi, level)
        except (ValueError, RuntimeError):
            continue
        if not trace.regular:
            continue
        found = True
        best = max(best, trace.diameter)
    if not found:
        raise ValueError("no regular fiber found while measuring the collapse proxy")
    return float(best / (2.0 * ball.radius))


def _level_product(axes: list[np.ndarray]):
    if len(axes) == 1:
        for v in axes[0]:
            yield np.array([v])
    else:
        grids = np.meshgrid(*axes, indexing="ij")
        stacked = np.stack([g.ravel() for g in grids], axis=-1)
        yield from stacked
