import tracemalloc

import numpy as np
import pytest

from transferchain.grids import (
    DiscreteMeasure,
    Grid,
    GridFunction,
    GridMismatchError,
    arcsine_measure,
    arcsine_ppf,
    gauss_measure,
    histogram,
    integrate,
    ks_distance,
    measure_ppf,
    stream_rng,
    uniform_measure,
    wasserstein1,
)
from transferchain.grids import _BLOCK


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 8, "weird")
    # infinite bounds, a width that overflows, and cells that underflow
    for lower, upper, n in [(0.0, np.inf, 4), (-np.inf, np.inf, 4), (-1e308, 1e308, 4),
                            (-1e-320, 1e-320, 512)]:
        with pytest.raises(ValueError, match="grid needs finite cells at least 2.23e-308 wide"):
            Grid(lower, upper, n)
    tiny = np.finfo(float).tiny
    assert Grid(0.0, 2 * tiny, 2).dx == tiny
    g = Grid(0.0, 1.0, 4)
    assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])


def test_gridfunction_finite_required():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.inf, 0.0, 0.0]))


def test_integrate_constant_and_mean():
    g = Grid(0.0, 1.0, 1000)
    one = GridFunction.constant(g, 1.0)
    ident = GridFunction.from_callable(g, lambda x: x)
    mu = uniform_measure(g)
    assert integrate(one, mu) == pytest.approx(1.0, abs=1e-14)
    assert integrate(ident, mu) == pytest.approx(0.5, abs=1e-6)


def test_integrate_arcsine_second_moment():
    g = Grid(0.0, 1.0, 2048)
    f = GridFunction.from_callable(g, lambda x: x**2)
    # Beta(1/2,1/2) second moment is 3/8
    assert integrate(f, arcsine_measure(g)) == pytest.approx(0.375, abs=2e-3)


def test_integrate_linearity():
    g = Grid(0.0, 1.0, 256)
    rng = stream_rng(0, 0)
    f = GridFunction(g, rng.normal(size=g.n))
    h = GridFunction(g, rng.normal(size=g.n))
    mu = DiscreteMeasure(g, rng.random(g.n), normalized=False)
    lhs = integrate(GridFunction(g, 2.5 * f.values - 1.25 * h.values), mu)
    rhs = 2.5 * integrate(f, mu) - 1.25 * integrate(h, mu)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_integrate_grid_mismatch():
    f = GridFunction.constant(Grid(0.0, 1.0, 8), 1.0)
    with pytest.raises(GridMismatchError):
        integrate(f, uniform_measure(Grid(0.0, 1.0, 16)))


def test_wasserstein_identity_and_point_masses():
    g = Grid(0.0, 1.0, 200)
    mu = arcsine_measure(g)
    assert wasserstein1(mu, mu) == 0.0
    d0 = np.zeros(g.n)
    d0[0] = 1.0
    d1 = np.zeros(g.n)
    d1[-1] = 1.0
    w = wasserstein1(DiscreteMeasure(g, d0), DiscreteMeasure(g, d1))
    # transport distance between the extreme cells: 1 up to one cell width
    assert abs(w - 1.0) <= 1.5 / g.n


def test_wasserstein_uniform_vs_midpoint_mass():
    g = Grid(0.0, 1.0, 1000)
    spike = np.zeros(g.n)
    spike[g.cell_index(0.5)] = 1.0
    w = wasserstein1(uniform_measure(g), DiscreteMeasure(g, spike))
    assert abs(w - 0.25) <= 1.0 / g.n


def test_wasserstein_metric_axioms():
    g = Grid(0.0, 1.0, 128)
    rng = stream_rng(1, 0)
    ms = []
    for _ in range(3):
        w = rng.random(g.n)
        ms.append(DiscreteMeasure(g, w / w.sum()))
    a, b, c = ms
    assert wasserstein1(a, b) == wasserstein1(b, a)
    assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-12
    assert wasserstein1(a, a) == 0.0
    assert wasserstein1(a, b) > 0.0


def test_wasserstein_requires_normalized():
    g = Grid(0.0, 1.0, 16)
    half = DiscreteMeasure(g, np.full(g.n, 0.5 / g.n), normalized=False)
    with pytest.raises(ValueError):
        wasserstein1(uniform_measure(g), half)


def test_histogram_single_point():
    g = Grid(0.0, 1.0, 10)
    mu = histogram(np.array([0.5]), g)
    assert mu.weights[g.cell_index(0.5)] == 1.0


def test_histogram_uniform_draws():
    g = Grid(0.0, 1.0, 512)
    rng = stream_rng(2, 0)
    mu = histogram(rng.random(1_000_000), g)
    assert wasserstein1(mu, uniform_measure(g)) <= 3e-3


def test_histogram_bernoulli_half_is_uniform():
    # (E_{1/2} + 1)/2 with E_a = sum w_k a^k has the uniform law
    rng = stream_rng(3, 0)
    n = 1_000_000
    x = np.zeros(n)
    for k in range(1, 54):
        x += np.where(rng.random(n) < 0.5, -1.0, 1.0) * 0.5**k
    g = Grid(0.0, 1.0, 512)
    mu = histogram((x + 1.0) / 2.0, g)
    assert wasserstein1(mu, uniform_measure(g)) <= 3e-3


def test_histogram_empty_error():
    with pytest.raises(ValueError):
        histogram(np.array([]), Grid(0.0, 1.0, 8))


# ---------------------------------------------------------------------------
# blocked eval and histogram against one pass over the whole input
# ---------------------------------------------------------------------------

def one_pass_eval(f, x):
    """GridFunction.eval in one pass: the circle form with np.mod, the
    interval form linear interpolation, then the sign clamp."""
    g, v = f.grid, f.values
    if g.domain_kind == "circle":
        t = np.mod(x - g.lower, g.width) / g.dx - 0.5
        i0 = np.floor(t).astype(int)
        frac = t - i0
        return v[i0 % g.n] * (1 - frac) + v[(i0 + 1) % g.n] * frac
    i0, frac = g.stencil(x)
    out = v[i0] * (1 - frac) + v[i0 + 1] * frac
    if v.min() >= 0.0:
        return np.maximum(out, 0.0)
    if v.max() <= 0.0:
        return np.minimum(out, 0.0)
    return out


def one_pass_histogram(points, grid):
    """Normalized counts from one bincount over all points."""
    if not grid.contains(points):
        raise ValueError("sample points outside the grid domain")
    counts = np.bincount(grid.cell_index(points), minlength=grid.n).astype(float)
    return counts / counts.sum()


CHUNK_GRIDS = {"interval": Grid(-0.5, 2.0, 512), "circle": Grid(0.25, 1.25, 64, "circle")}
CHUNK_SIZES = (1, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 5)


def chunk_points(grid, n, seed, spill):
    """n points over the grid and ``spill`` widths beyond each end, with
    both ends and the first node among them."""
    x = grid.lower - spill * grid.width + (1 + 2 * spill) * grid.width * stream_rng(seed).random(n)
    ends = [grid.nodes[0], grid.lower, grid.upper][:n]
    x[: len(ends)] = ends
    return x


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("kind", sorted(CHUNK_GRIDS))
def test_blocked_eval_matches_one_pass(kind, n):
    g = CHUNK_GRIDS[kind]
    x = chunk_points(g, n, 70, spill=0.1 if kind == "interval" else 3.0)
    signed = np.cos(7 * g.nodes)
    for values in (signed, np.abs(signed), -np.abs(signed)):
        f = GridFunction(g, values)
        assert f.eval(x).tobytes() == one_pass_eval(f, x).tobytes()
        # a strided view and a 2-d array of the same points
        wide = np.stack([x, x[::-1]])
        assert f.eval(wide.T[:, 0]).tobytes() == one_pass_eval(f, x).tobytes()
        assert f.eval(wide).shape == wide.shape
        assert f.eval(wide).tobytes() == one_pass_eval(f, wide).tobytes()
    assert f.eval(x[0]) == float(one_pass_eval(f, x[:1])[0])


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("kind", sorted(CHUNK_GRIDS))
def test_blocked_histogram_matches_one_pass(kind, n):
    g = CHUNK_GRIDS[kind]
    x = chunk_points(g, n, 71, spill=0.0 if kind == "interval" else 3.0)
    assert histogram(x, g).weights.tobytes() == one_pass_histogram(x, g).tobytes()
    strided = np.stack([x, x]).T[:, 1]
    assert histogram(strided, g).weights.tobytes() == one_pass_histogram(x, g).tobytes()
    if kind == "interval":  # one point past the upper end, in the last block
        x[-1] = np.nextafter(g.upper, np.inf)
        with pytest.raises(ValueError) as ref:
            one_pass_histogram(x, g)
        with pytest.raises(ValueError) as got:
            histogram(x, g)
        assert str(got.value) == str(ref.value)


def test_ks_quantile_sample():
    g = Grid(0.0, 1.0, 512)
    mu = arcsine_measure(g)
    m = 10_000
    mid_levels = (np.arange(m) + 0.5) / m
    assert ks_distance(measure_ppf(mu, mid_levels), mu) <= 1.0 / m + 2.0 / g.n


def test_ks_matching_and_separating_laws():
    g = Grid(0.0, 1.0, 2048)
    mu = arcsine_measure(g)
    rng = stream_rng(4, 0)
    draws = arcsine_ppf(rng.random(100_000))
    assert ks_distance(draws, mu) <= 0.01
    uniform_draws = rng.random(100_000)
    # CDF gap between uniform and arcsine peaks near 0.18
    assert ks_distance(uniform_draws, mu) >= 0.1


@pytest.mark.parametrize("points", [[], [0.0, 1.0], [-0.0], [0.5, np.nan], [np.nan], [np.inf],
                                    [0.2, -np.inf], [np.nextafter(1.0, 2.0)], [-5e-324, 0.5]])
def test_contains_is_the_two_comparisons_per_point(points):
    # contains tests by the min and max, which a NaN fails; ks_distance
    # refuses a sample by it
    g = Grid(0.0, 1.0, 8)
    x = np.array(points, dtype=float)
    assert g.contains(x) is bool(np.all((x >= g.lower) & (x <= g.upper)))
    if x.size and not g.contains(x):
        with pytest.raises(GridMismatchError, match="sample outside the measure's domain"):
            ks_distance(x, uniform_measure(g))


@pytest.mark.parametrize("points", [[], [0.0, 1.0], [-3.5, 7.25], [0.5, np.nan], [np.nan],
                                    [np.inf], [0.2, -np.inf], [1e308, -1e308]])
def test_circle_contains_is_finiteness(points):
    # every finite point wraps into a circle; NaN and +-inf (which wrap to
    # NaN) are refused by ks_distance and by histogram
    g = Grid(0.0, 1.0, 8, "circle")
    x = np.array(points, dtype=float)
    assert g.contains(x) is bool(np.all(np.isfinite(x)))
    if not g.contains(x):
        with pytest.raises(GridMismatchError, match="sample outside the measure's domain"):
            ks_distance(x, uniform_measure(g))
        with pytest.raises(ValueError, match="sample points outside the grid domain"):
            histogram(x, g)


def test_circle_ks_refuses_a_half_nan_sample():
    g = Grid(0.0, 1.0, 64, "circle")
    x = stream_rng(5, 0).random(1000)
    x[::2] = np.nan
    with pytest.raises(GridMismatchError, match="sample outside the measure's domain"):
        ks_distance(x, uniform_measure(g))
    assert ks_distance(x[1::2], uniform_measure(g)) < 0.1


@pytest.mark.parametrize("where", [0, _BLOCK + 7])
def test_circle_histogram_refuses_a_nan_in_any_block(where):
    g = Grid(0.0, 1.0, 16, "circle")
    x = 3.0 * stream_rng(6, 0).random(2 * _BLOCK) - 1.0
    finite = histogram(x, g).weights.copy()
    x[where] = np.nan
    with pytest.raises(ValueError, match="sample points outside the grid domain"):
        histogram(x, g)
    x[where] = 0.5
    assert histogram(x, g).weights.sum() == 1.0 and finite.sum() == 1.0


def test_ks_decreases_with_sample_size():
    g = Grid(0.0, 1.0, 1024)
    mu = gauss_measure(g)
    medians = []
    for size in (10_000, 100_000, 1_000_000):
        vals = []
        for seed in (10, 11, 12):
            s = measure_ppf(mu, stream_rng(seed, 0).random(size))
            vals.append(ks_distance(s, mu))
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]


def test_circle_periodicity_exact():
    g = Grid(0.0, 1.0, 64, "circle")
    f = GridFunction(g, stream_rng(6, 0).normal(size=g.n))
    # dyadic points, so x + 1 is itself exactly representable
    x = np.arange(129) / 128.0
    assert np.array_equal(f.eval(x), f.eval(x + 1.0))
    assert np.array_equal(f.eval(x), f.eval(x - 1.0))


def test_grid_distance_short_way_round():
    a, b = np.array([0.1, 0.9, 0.4]), np.array([0.9, 0.1, 0.6])
    assert np.allclose(Grid(0.0, 1.0, 8, "circle").distance(a, b), [0.2, 0.2, 0.2])
    assert np.allclose(Grid(0.0, 1.0, 8).distance(a, b), [0.8, 0.8, 0.2])
    assert Grid(-1.0, 1.0, 8, "circle").distance(-0.9, 0.9) == pytest.approx(0.2)


def test_antiderivative_integrates_linear_exactly():
    # linear is affine between neighbouring nodes and extends its first and
    # last segments into the end strips, so the trapezoid rule over the
    # nodes between the first node and x, plus x, is exact
    g = Grid(-1.0, 2.0, 7)
    f = GridFunction(g, stream_rng(8, 0).normal(size=g.n))
    x0 = g.nodes[0]
    points = np.concatenate((g.edges, g.nodes, stream_rng(8, 1).uniform(-1.0, 2.0, 50)))
    for x in points:
        pts = np.append(g.nodes[(g.nodes > x0) & (g.nodes < x)], x)
        pts = np.concatenate(([x0], pts))
        vals = f.linear(pts)
        expect = np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(pts))
        assert f.antiderivative(x) == pytest.approx(expect, rel=0.0, abs=1e-14)
    # both end strips: the mean over a strip is linear at the strip's middle
    for a, b in ((g.lower, x0), (g.nodes[-1], g.upper)):
        mean = (f.antiderivative(b) - f.antiderivative(a)) / (b - a)
        assert mean == pytest.approx(f.linear(0.5 * (a + b)), rel=0.0, abs=1e-14)


def test_stream_rng_reproducible_and_split():
    a = stream_rng(42, 7).random(5)
    b = stream_rng(42, 7).random(5)
    c = stream_rng(42, 8).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_measure_points_in_domain():
    g = Grid(0.0, 1.0, 64)
    s = measure_ppf(arcsine_measure(g), stream_rng(9, 3).random(1000))
    assert np.all((s >= 0.0) & (s <= 1.0))


def test_normalized_measure_validation():
    g = Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        DiscreteMeasure(g, np.full(8, 0.2), normalized=True)
    with pytest.raises(ValueError):
        DiscreteMeasure(g, -np.ones(8), normalized=False)
    mu = uniform_measure(g)
    assert mu.density == pytest.approx(np.ones(8))


@pytest.mark.parametrize("grid, blocks", [(Grid(-1e-9, 1.0 + 1e-9, 128), 2.5),
                                          (Grid(0.0, 1.0, 64, "circle"), 3.5)])
def test_histogram_memory_is_a_few_blocks(grid, blocks):
    # 10^6 points, as one row of simulate's ensembles: the counts take a
    # block at a time, and no array as long as the row
    x = stream_rng(86, 0).random(10**6)
    tracemalloc.start()
    try:
        histogram(x, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= blocks * _BLOCK * 8 < x.nbytes
