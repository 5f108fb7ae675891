"""Uniform grids, grid functions, discrete measures and distances.

This is the numerical substrate shared by every other module: real-valued
functions sampled at cell midpoints of a uniform grid over an interval or a
circle, nonnegative cell weights standing in for measures, and the handful of
metrics (Wasserstein-1, Kolmogorov-Smirnov) used to compare them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "DiscreteMeasure",
    "GridMismatchError",
    "integrate",
    "wasserstein1",
    "histogram",
    "ks_distance",
    "stream_rng",
    "uniform_measure",
    "arcsine_measure",
    "gauss_measure",
    "measure_from_cdf",
    "arcsine_cdf",
    "gauss_cdf",
    "measure_ppf",
    "ks_two_sample",
    "arcsine_ppf",
    "gauss_ppf",
    "uniform_ppf",
]


class GridMismatchError(ValueError):
    """Raised when two objects live on incompatible discretizations."""


def _readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.flags.writeable = False
    return out


_TINY = float(np.finfo(float).tiny)  # the least normal float

# points per block: long inputs are evaluated, counted and sampled in
# blocks of this size, whose temporaries stay in cache
_BLOCK = 1 << 16


def _blocks(n: int) -> list:
    """Slices of ``_BLOCK`` consecutive indices of 0..n-1 (the last may be shorter)."""
    return [slice(a, min(a + _BLOCK, n)) for a in range(0, n, _BLOCK)]


def _mod_width(y, width: float):
    """np.mod(y, width) for a period width > 0, bit for bit, overwriting
    the float array y, which the caller hands over.

    Where all of y lies in [0, 2 width), the remainder is y or y - width,
    and y - width is exact there (Sterbenz's lemma), as np.mod's is; a
    block already in [0, width) is left as it is.  np.mod turns a zero of
    either sign into +0.0.  The rest (negatives, NaN, infinities, far
    values, scalars) goes to np.mod itself."""
    if np.ndim(y) == 0 or y.size == 0:
        return np.mod(y, width)
    low, high = y.min(), y.max()
    if not (0.0 <= low and high < 2.0 * width):
        return np.mod(y, width)
    if high >= width:
        y -= (y >= width) * width  # y - 0.0 is y, bit for bit
    if low == 0.0:
        y += 0.0  # -0.0 + 0.0 is +0.0; every other value is unchanged
    return y


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` cells over ``[lower, upper]``.

    Nodes sit at cell midpoints ``lower + (i + 1/2) * width / n``.  For
    ``circle`` domains the coordinate is taken modulo the period
    ``upper - lower``.
    """

    lower: float
    upper: float
    n: int
    domain_kind: str = "interval"  # "interval" | "circle"

    def __post_init__(self):
        if self.domain_kind not in ("interval", "circle"):
            raise ValueError(f"unknown domain_kind {self.domain_kind!r}")
        if not self.lower < self.upper:
            raise ValueError("grid requires lower < upper")
        if self.n < 2:
            raise ValueError("grid requires n >= 2 cells")
        if not _TINY <= self.dx < np.inf:  # a bound is infinite, or the cells underflow
            raise ValueError(f"grid needs finite cells at least {_TINY:.3g} wide, "
                             f"got {self.n} cells on [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def dx(self) -> float:
        return self.width / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.lower + (np.arange(self.n) + 0.5) * self.dx

    @property
    def edges(self) -> np.ndarray:
        return self.edge(np.arange(self.n + 1))

    def edge(self, k):
        """Left edge of cell k, for any integer k: cell k is [edge(k), edge(k + 1))."""
        return self.lower + k * self.dx

    def wrap(self, x):
        """Reduce coordinates into the domain (mod period on circles): on
        circles lower + np.mod(x - lower, width), bit for bit."""
        x = np.asarray(x, dtype=float)
        if self.domain_kind == "circle":
            y = _mod_width(x - self.lower, self.width)
            if self.lower:  # y holds no -0.0, so y + 0.0 is y, bit for bit
                y += self.lower  # a float sum is commutative, bit for bit
            return y
        return x

    def distance(self, a, b) -> np.ndarray:
        """|a - b|, taken the short way round on circles."""
        d = np.abs(np.asarray(a) - np.asarray(b))
        return np.minimum(d, self.width - d) if self.domain_kind == "circle" else d

    def stencil(self, x):
        """Linear-interpolation stencil of interval points: the left node
        index i0 (kept in 0..n-2, so the half-cell end strips extrapolate
        the boundary segment) and the fraction of the way to node i0 + 1,
        which is < 0 or > 1 in the end strips."""
        t = (x - (self.lower + 0.5 * self.dx)) / self.dx
        i0 = np.clip(np.floor(t).astype(int), 0, self.n - 2)
        return i0, t - i0

    def cell_index(self, x) -> np.ndarray:
        """Index of the cell containing x (circle points wrapped first)."""
        x = self.wrap(x)
        idx = np.floor((x - self.lower) / self.dx).astype(int)
        return np.clip(idx, 0, self.n - 1)

    def contains(self, x) -> bool:
        """Every point in the domain; on circles, every point finite (it
        wraps).  Tested by the min and max, which a NaN fails."""
        x = np.asarray(x, dtype=float)
        low, high = np.min(x, initial=np.inf), np.max(x, initial=-np.inf)
        if self.domain_kind == "circle":
            return bool(-np.inf < low and high < np.inf)
        return bool(self.lower <= low and high <= self.upper)


@dataclass(frozen=True)
class GridFunction:
    """Real function known at the midpoints of a grid.

    Off-node evaluation is linear interpolation between midpoints; circle
    functions wrap around.  In the half-cell strips at interval ends the
    boundary segment is extended linearly and the result clamped into the
    signed envelope of the data (so nonnegative data never evaluates
    negative, which positivity of the transfer operators relies on).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        if vals.shape != (self.grid.n,):
            raise ValueError("values must have one entry per grid cell")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n, float(value)))

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Values at x, of x's shape (a float for a scalar x)."""
        x = np.asarray(x, dtype=float)
        xs = x[None] if x.ndim == 0 else x
        g, v = self.grid, self.values
        if g.domain_kind == "circle":
            # reduce into the period before the half-cell shift so that
            # exactly representable translates by the period evaluate
            # bit-identically
            t = _mod_width(xs - g.lower, g.width) / g.dx - 0.5
            i0 = np.floor(t).astype(int)
            frac = t - i0
            out = v[i0 % g.n] * (1 - frac) + v[(i0 + 1) % g.n] * frac
        else:
            out = self.sign_clamp(self.linear(xs))
        return float(out[0]) if x.ndim == 0 else out

    def linear(self, x) -> np.ndarray:
        """Interval grids: linear interpolation between midpoints, extended
        linearly into the end strips; ``eval`` before its sign clamp."""
        i0, frac = self.grid.stencil(x)
        v = self.values
        return v[i0] * (1 - frac) + v[i0 + 1] * frac

    def antiderivative(self, x) -> np.ndarray:
        """Interval grids: the exact integral of ``linear`` from the first node."""
        i0, frac = self.grid.stencil(x)
        v, dx = self.values, self.grid.dx
        at_nodes = np.concatenate(([0.0], np.cumsum(0.5 * dx * (v[:-1] + v[1:]))))
        return at_nodes[i0] + dx * frac * (v[i0] + 0.5 * frac * (v[i0 + 1] - v[i0]))

    def sign_clamp(self, out) -> np.ndarray:
        """Sign-preserving floor/cap: with nonnegative data, values are
        floored at 0 (and symmetrically), which operator positivity needs."""
        v = self.values
        if v.min() >= 0.0:
            return np.maximum(out, 0.0)
        if v.max() <= 0.0:
            return np.minimum(out, 0.0)
        return out

    # pointwise algebra (same grid)
    def _binop(self, other, op):
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise GridMismatchError("grid functions on different grids")
            return GridFunction(self.grid, op(self.values, other.values))
        return GridFunction(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights on grid cells; ``normalized`` means they sum to 1."""

    grid: Grid
    weights: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        w = _readonly(self.weights)
        if w.shape != (self.grid.n,):
            raise ValueError("weights must have one entry per grid cell")
        if np.any(w < 0):
            raise ValueError("measure weights must be nonnegative")
        if self.normalized and abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(
                f"normalized measure weights sum to {w.sum()!r}, not 1"
            )
        object.__setattr__(self, "weights", w)

    @property
    def density(self) -> np.ndarray:
        """Density view: weight / cell width."""
        return self.weights / self.grid.dx

    def normalize(self) -> "DiscreteMeasure":
        s = self.weights.sum()
        if s <= 0:
            raise ValueError("cannot normalize a zero measure")
        return DiscreteMeasure(self.grid, self.weights / s, normalized=True)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def stream_rng(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Generator for stream ``stream_id`` derived from ``master_seed``.

    Uses the splittable SeedSequence construction, so streams are
    reproducible and independent of thread scheduling.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def integrate(f: GridFunction, mu: DiscreteMeasure) -> float:
    """Integral of ``f`` against ``mu``: sum of node values times cell weights."""
    if f.grid != mu.grid:
        raise GridMismatchError("function and measure use incompatible discretizations")
    return float(np.dot(f.values, mu.weights))


def wasserstein1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Wasserstein-1 distance of two normalized measures on a shared grid.

    On the line this is the L1 distance of CDFs, computed here as
    ``dx * sum_i |cumsum(mu)_i - cumsum(nu)_i|``.  For circle grids the same
    formula is used (an upper bound for the rotational transport distance).
    """
    if mu.grid != nu.grid:
        raise GridMismatchError("measures on different grids")
    if not (mu.normalized and nu.normalized):
        raise ValueError("wasserstein1 requires normalized measures")
    diff = np.cumsum(mu.weights) - np.cumsum(nu.weights)
    return float(mu.grid.dx * np.abs(diff).sum())


def histogram(points, grid: Grid) -> DiscreteMeasure:
    """Normalized bin counts of sample points on a grid: integer counts
    summed over blocks of ``_BLOCK`` points, so exact in any order."""
    points = np.asarray(points, dtype=float).reshape(-1)
    if points.size == 0:
        raise ValueError("cannot histogram an empty sample")
    counts = np.zeros(grid.n, dtype=np.int64)
    for b in _blocks(points.size):
        counts += np.bincount(_histogram_cells(points[b], grid), minlength=grid.n)
    counts = counts.astype(float)
    return DiscreteMeasure(grid, counts / counts.sum(), normalized=True)


def _histogram_cells(x, grid: Grid) -> np.ndarray:
    """``cell_index`` of a block of histogram points, bit for bit.  On an
    interval grid the block is tested by its min and max, which a NaN fails,
    and its cells are (x - lower) / dx truncated, which for x >= lower is
    the floor, and capped at n - 1 only where its max needs it.  A circle
    block must be finite."""
    if grid.domain_kind == "circle":
        if not grid.contains(x):
            raise ValueError("sample points outside the grid domain")
        return grid.cell_index(x)
    high = x.max()
    if not (grid.lower <= x.min() and high <= grid.upper):
        raise ValueError("sample points outside the grid domain")
    t = x - grid.lower
    t /= grid.dx
    cells = t.astype(np.intp)
    if (high - grid.lower) / grid.dx >= grid.n:  # the largest cell, as t is monotone in x
        np.minimum(cells, grid.n - 1, out=cells)
    return cells


def ks_distance(points, mu: DiscreteMeasure) -> float:
    """Kolmogorov-Smirnov distance between sample points and a grid measure.

    Sup over grid nodes of |empirical CDF - model CDF|, the model CDF at a
    midpoint counting half of that cell's weight (mass uniform within cells).
    """
    grid, points = mu.grid, np.asarray(points, dtype=float)
    if not grid.contains(points):
        raise GridMismatchError("sample outside the measure's domain")
    pts = np.sort(grid.wrap(points))
    nodes = grid.nodes
    emp = np.searchsorted(pts, nodes, side="right") / pts.size
    model = np.cumsum(mu.weights) - 0.5 * mu.weights
    return float(np.max(np.abs(emp - model)))


# ---------------------------------------------------------------------------
# built-in reference measures (cell-averaged from exact CDFs)
# ---------------------------------------------------------------------------

def measure_from_cdf(grid: Grid, cdf: Callable) -> DiscreteMeasure:
    """Cell weights from an exact CDF: weight_i = F(edge_{i+1}) - F(edge_i).

    Stores cell-averaged mass rather than pointwise density samples, which
    keeps integrable singularities (arcsine endpoints, Gauss at 0) finite.
    """
    F = np.asarray(cdf(grid.edges), dtype=float)
    w = np.diff(F)
    w = np.clip(w, 0.0, None)
    return DiscreteMeasure(grid, w / w.sum(), normalized=True)


def arcsine_cdf(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return (2.0 / np.pi) * np.arcsin(np.sqrt(x))


def gauss_cdf(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return np.log2(1.0 + x)


def uniform_measure(grid: Grid) -> DiscreteMeasure:
    return DiscreteMeasure(grid, np.full(grid.n, 1.0 / grid.n), normalized=True)


def arcsine_measure(grid: Grid) -> DiscreteMeasure:
    """Beta(1/2,1/2) law on [0,1]; CDF (2/pi) arcsin sqrt(x)."""
    return measure_from_cdf(grid, arcsine_cdf)


def gauss_measure(grid: Grid) -> DiscreteMeasure:
    """Gauss (continued-fraction) law on [0,1]; CDF log2(1+x)."""
    return measure_from_cdf(grid, gauss_cdf)


def measure_ppf(mu: DiscreteMeasure, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a grid measure, its mass uniform within each cell: at
    uniform levels u it returns a sample of mu."""
    cdf = np.cumsum(mu.weights)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, u, side="left")
    idx = np.clip(idx, 0, mu.grid.n - 1)
    prev = np.where(idx > 0, cdf[idx - 1], 0.0)
    cell_mass = np.maximum(cdf[idx] - prev, 1e-300)
    frac = (u - prev) / cell_mass
    return mu.grid.lower + (idx + np.clip(frac, 0.0, 1.0)) * mu.grid.dx


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    both = np.concatenate((a, b))
    ca = np.searchsorted(a, both, side="right") / a.size
    cb = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


# exact inverse CDFs of the built-in laws (grid-free sampling)

def arcsine_ppf(u):
    return np.sin(0.5 * np.pi * np.asarray(u, dtype=float)) ** 2


def gauss_ppf(u):
    return np.exp2(np.asarray(u, dtype=float)) - 1.0


def uniform_ppf(u):
    return np.asarray(u, dtype=float)
