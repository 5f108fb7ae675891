"""The Gauss branch sum and the sparse cell flows against the constructions
they replaced, which are kept here as references: the chunked
``GridFunction.eval`` loop of the Gauss sums, the per-column two-cell split
of the Gauss flow, and the dense ``np.add.at`` overlap spreading of the
branch flows, the circle-filter chain's among them.  The Gauss references
use the one truncated kernel, in which branch K carries the mass of every
branch n >= K, and sum every branch, where the library sums runs of them
in closed form."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferchain import operators
from transferchain.grids import DiscreteMeasure, Grid, GridFunction, stream_rng
from transferchain.invariant import UlamMatrix, affine_ifs, halving_ifs
from transferchain.operators import (
    BranchSystem,
    apply_gauss,
    bernoulli_support,
    bernoulli_system,
    cell_flow_matrix,
    circle_filter_system,
    doubling_system,
    gauss_operator,
    logistic_system,
    parametric_system,
    random_control_system,
)
from transferchain.wavelets import haar_filter, stretched_box_filter

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# references: the constructions the library replaced
# ---------------------------------------------------------------------------

def _reference_weights(K, x, ns, raw):
    """Weights of branches ns at x: (n+x)^-2 raw, P(N = n | x) for the
    chain; branch K adds the tail sum_{n>K} (n+x)^-2 = 1/(K+x+1/2) +
    O(K^-3) raw, and takes P(N >= K | x) = (1+x)/(K+x) for the chain."""
    if raw:
        return (ns + x) ** -2.0 + np.where(ns == K, 1.0 / (K + x + 0.5), 0.0)
    return np.where(ns == K, (1.0 + x) / (K + x), (1.0 + x) / ((ns + x) * (ns + x + 1.0)))


def _chunked_branch_sum(op, f, x, raw, chunk=4096):
    out = np.zeros(x.size)
    K = op.truncation_K
    for start in range(1, K + 1, chunk):
        ns = np.arange(start, min(start + chunk, K + 1), dtype=float)[:, None]
        v = f.eval((1.0 / (ns + x[None, :])).ravel()).reshape(ns.size, x.size)
        out += np.sum(_reference_weights(K, x[None, :], ns, raw) * v, axis=0)
    return out


def _reference_apply(op, f, x):
    return _chunked_branch_sum(op, f, x, raw=True)


def _reference_chain_apply(op, f):
    return _chunked_branch_sum(op, f, f.grid.nodes, raw=False)


def _reference_gauss_flow(op, grid, raw):
    n = grid.n
    M = np.zeros((n, n))
    edges_l, edges_r, x = grid.edges[:-1], grid.edges[1:], grid.nodes
    ns = np.arange(1, op.truncation_K + 1, dtype=float)
    for j in range(n):
        w = _reference_weights(op.truncation_K, x[j], ns, raw)
        a = 1.0 / (ns + edges_r[j])
        b = 1.0 / (ns + edges_l[j])
        k0 = np.floor((a - grid.lower) / grid.dx).astype(int)
        k0 -= a < grid.edge(k0)
        k1 = np.floor((b - grid.lower) / grid.dx - 1e-15).astype(int)
        k1 = np.maximum(k1, k0)
        width = b - a
        same = k0 == k1
        M[:, j] += np.bincount(np.clip(k0[same], 0, n - 1), weights=w[same], minlength=n)
        split = ~same
        if np.any(split):
            cut = grid.edge(k1[split])
            fr_hi = np.clip((b[split] - cut) / width[split], 0.0, 1.0)
            M[:, j] += np.bincount(np.clip(k1[split], 0, n - 1),
                                   weights=w[split] * fr_hi, minlength=n)
            M[:, j] += np.bincount(np.clip(k0[split], 0, n - 1),
                                   weights=w[split] * (1 - fr_hi), minlength=n)
    return np.clip(M, 0.0, None)


def _dense_spread(M, col_weights, a, b, grid):
    n, dx, lo = grid.n, grid.dx, grid.lower
    a, b = np.minimum(a, b), np.maximum(a, b)
    width = b - a
    tiny = width <= 1e-15 * grid.width
    if np.any(tiny):
        mids = grid.cell_index(0.5 * (a + b))
        np.add.at(M, (mids[tiny], np.nonzero(tiny)[0]), col_weights[tiny])
    live = ~tiny
    if not np.any(live):
        return
    j_idx = np.nonzero(live)[0]
    a, b, w, width = a[live], b[live], col_weights[live], width[live]
    k0 = np.floor((a - lo) / dx).astype(int)
    k1 = np.floor((b - lo) / dx - 1e-15).astype(int)
    k0 -= a < grid.edge(k0)
    for s in range(int(np.max(k1 - k0)) + 1):
        k = k0 + s
        overlap = np.minimum(b, grid.edge(k + 1)) - np.maximum(a, grid.edge(k))
        frac = np.clip(overlap, 0.0, None) / width
        k_t = np.mod(k, n) if grid.domain_kind == "circle" else np.clip(k, 0, n - 1)
        nz = frac > 0
        if np.any(nz):
            np.add.at(M, (k_t[nz], j_idx[nz]), w[nz] * frac[nz])


def _reference_branch_flow(bs, grid):
    M = np.zeros((grid.n, grid.n))
    probs = bs.weight_matrix(grid.nodes)
    for i, tau in enumerate(bs.branches):
        a = np.asarray(tau(grid.edges[:-1]), dtype=float)
        b = np.asarray(tau(grid.edges[1:]), dtype=float)
        if grid.domain_kind == "circle":
            base = grid.wrap(a)
            b = base + (b - a)
            a = base
        _dense_spread(M, probs[i], a, b, grid)
    return np.clip(M, 0.0, None)


def _same_bytes(flow, dense):
    view = np.asarray(flow)
    return view.shape == dense.shape and view.tobytes() == dense.tobytes()


# ---------------------------------------------------------------------------
# test functions, including ones whose end-strip clamp binds
# ---------------------------------------------------------------------------

KINDS = ("x^2", "nonnegative with zeros", "nonpositive", "mixed sign")


def _test_function(kind, grid, seed):
    rng = stream_rng(seed, 0)
    if kind == "x^2":
        return GridFunction.from_callable(grid, lambda x: x**2)
    v = rng.random(grid.n)
    if kind == "nonnegative with zeros":
        v[rng.random(grid.n) < 0.3] = 0.0
        v[:2] = (0.0, v[1] + 0.5)  # the left end strip extrapolates below 0
    elif kind == "nonpositive":
        v = -v
        v[-2:] = (-1.0, 0.0)  # the right end strip extrapolates above 0
    else:
        v = v - 0.5
    return GridFunction(grid, v)


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# grid bounds off the unit interval too: on [0, 0.2] and [0, 0.02] the
# images up to 1/(1 + x) lie many grid widths past the right end.  Grids
# narrower than 1/operators._RUNS_FROM are left out: there the run sums
# extrapolate past the right end, and miss by a few 1e-12
BOUNDS = ((0.0, 1.0), (-0.3, 1.0), (0.01, 1.0), (0.0, 0.2), (0.3, 0.9), (0.0, 3.0),
          (0.0, 0.02))
sizes = st.tuples(st.integers(2, 700), st.integers(2, 3000), st.integers(0, 10_000),
                  st.sampled_from(BOUNDS))


@SETTINGS
@given(sizes, st.sampled_from(KINDS))
def test_compiled_gauss_apply_matches_chunked_eval_loop(size, kind):
    n, K, seed, bounds = size
    op = gauss_operator(K=K)
    f = _test_function(kind, Grid(*bounds, n), seed)
    assert _close(apply_gauss(op, f).values, _reference_apply(op, f, f.grid.nodes))
    assert _close(op.chain_apply(f).values, _reference_chain_apply(op, f))


def test_end_strip_clamp_binds_in_the_examples():
    # these functions make eval's sign clamp bind in an end strip: the
    # unclamped branch sum misses eval's by far more than the 1e-12 the
    # direct sum is held to, so the clamp correction is needed
    g = Grid(0.0, 1.0, 64)
    op = gauss_operator(K=500)
    x = g.nodes
    for kind in KINDS[:3]:
        f = _test_function(kind, g, 3)
        want = _reference_apply(op, f, x)
        unclamped = sum(f.linear(1.0 / (k + x)) * _reference_weights(500, x, k, raw=True)
                        for k in range(1, op.truncation_K + 1))
        assert np.max(np.abs(unclamped - want)) > 1e-9 * np.max(np.abs(want))
        assert _close(apply_gauss(op, f).values, want)


def test_end_strip_clamp_at_the_default_truncation():
    # x^2 extrapolates below 0 left of the first node, past the zero 3/8 of
    # a cell in: the images of the branches from about 2730 to K lie there,
    # so the correction is one closed-form run sum per node
    g = Grid(0.0, 1.0, 1024)
    op = gauss_operator(K=10_000)
    f = GridFunction.from_callable(g, lambda x: x**2)
    assert _close(apply_gauss(op, f).values, _reference_apply(op, f, g.nodes))


@SETTINGS
@given(sizes, st.sampled_from(("nonnegative with zeros", "spike")))
def test_gauss_positivity_is_exact(size, kind):
    n, K, seed, bounds = size
    op = gauss_operator(K=K)
    g = Grid(*bounds, n)
    if kind == "spike":
        # only node n-2: at x near 0 the one image that reaches it is in the
        # right end strip, where the clamp correction cancels it to round-off
        v = np.zeros(n)
        v[n - 2] = 1.0 + stream_rng(seed, 2).random()
        f = GridFunction(g, v)
    else:
        f = _test_function(kind, g, seed)
    assert np.min(apply_gauss(op, f).values) >= 0.0
    assert np.min(op.chain_apply(f).values) >= 0.0


@SETTINGS
@given(st.data(), st.floats(-0.5, 2.0), st.integers(operators._RUNS_FROM, 10**6))
def test_run_sums_match_the_branch_sums(data, x, K):
    A = operators._RUNS_FROM
    a = data.draw(st.integers(A, K))
    b = data.draw(st.one_of(st.just(K), st.just(a), st.integers(a, K)))
    ns = np.arange(a, b + 1, dtype=float)
    got = operators._gauss_run_sums(x, float(a), float(b), K)
    # the docstring's bound: 1e-18 of truncation and 8 eps of round-off,
    # relative to (2 + x) / (a + x); the reference's terms are rounded too,
    # each by at most 4 eps of itself, and they sum to at most that scale
    tol = (1e-18 + 12 * np.finfo(float).eps) * (2.0 + x) / (a + x)
    for kernel, raw in enumerate((True, False)):
        w = _reference_weights(K, x, ns, raw)
        want = (math.fsum(w), math.fsum(w / (ns + x)))
        assert np.all(np.abs(got[kernel] - want) <= tol)


def test_gauss_builds_do_not_grow_with_the_truncation():
    # a branch-by-branch sum would take n K = 2.6e8 (point, branch) pairs;
    # by runs it takes about n (_RUNS_FROM + segments or cells hit).  The
    # chain sum of 1 at a node, and a flow column, sum at most 2 _RUNS_FROM
    # parts below the runs and at most 4 per cell above, each within a few
    # roundings, so each is 1 to within that many eps
    g = Grid(0.0, 1.0, 256)
    K = 10**6
    tol = (2 * operators._RUNS_FROM + 4 * g.n + 16) * np.finfo(float).eps
    op = gauss_operator(K=K)
    ones = op.chain_apply(GridFunction.constant(g, 1.0)).values
    flow = np.ones(g.n) @ cell_flow_matrix(op, g)
    for sums in (ones, flow):
        assert np.all(np.abs(sums - 1.0) <= tol)


def test_compiled_gauss_apply_memory_is_bounded():
    """Memory stays bounded as ``grid_n`` grows: a Gauss apply at n = 4096
    and K = 10^4 peaks under 128 MB of traced allocations; the
    branch-by-node loop it replaced peaked over 1 GB."""
    g = Grid(0.0, 1.0, 4096)
    f = GridFunction.from_callable(g, lambda x: x)
    tracemalloc.start()
    try:
        apply_gauss(gauss_operator(K=10_000), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


# ---------------------------------------------------------------------------
# sparse flows
# ---------------------------------------------------------------------------

def _gauss_flow_tolerance(grid, K, reference):
    """Entrywise bound on |flow - reference|, from two sources.

    Cell edges: both cut an image at the grid's own edges (``grid.edge``),
    the flow at both edges of each cell the image covers, the reference
    once, at edge(k1), giving the other cell the rest.  So a part differs
    only by the roundings of the subtractions and the division that give
    it, a few eps times the image's weight.  A weight is at most E^2, with
    E the largest |point| an edge or an image reaches: the raw (n+x)^-2 is
    at most 1/(1 + lo)^2, and the chain weights and branch K's lumps are at
    most 1.  An entry holds at most the two images that cross its cell's
    edges, and 8 eps E (1 + E) / dx >= 8 eps E^2 covers them, as dx <= 1.

    Summation: an entry sums at most K + 1 nonnegative parts, each within 2
    roundings of the reference's, in another order than the reference,
    which moves it by at most (K + 2) eps times itself."""
    eps = np.finfo(float).eps
    lo, hi = grid.lower, grid.upper
    E = max(abs(lo), abs(hi), 1.0 / (1.0 + lo)) + grid.dx
    return 8 * eps * E * (1.0 + E) / grid.dx + (K + 2) * eps * reference


@SETTINGS
@given(st.integers(2, 700), st.integers(2, 3000), st.booleans(),
       st.sampled_from(((0.0, 1.0), (0.0, 2.0), (0.3, 1.0), (-0.5, 1.5))))
def test_gauss_flow_matches_column_loop(n, K, raw, interval):
    # on intervals other than [0, 1] the columns of one block reach cell 0
    # at different branches, and some images leave the grid.  The
    # reference splits an image between two cells, which is only right
    # where no image is wider than a cell: images 1/(n + cell) are at most
    # dx / ((1 + left)(1 + right)) wide, so left of 0 the first ones are not
    g = Grid(*interval, n)
    op = gauss_operator(K=K)
    want = _reference_gauss_flow(op, g, raw)
    got = np.asarray(cell_flow_matrix(op, g, raw=raw))
    narrow = (1.0 + g.edges[:-1]) * (1.0 + g.edges[1:]) >= 1.0
    assert np.all((np.abs(got - want) <= _gauss_flow_tolerance(g, K, want))[:, narrow])


def test_gauss_flow_spreads_wide_images_by_overlap():
    # left of 0 the images of the first branches cross several cells; each
    # cell gets the weight times its share of the image, the end cells also
    # what lies beyond the grid
    g = Grid(-0.5, 1.5, 13)
    K = 3
    want = np.zeros((g.n, g.n))
    inner = g.edges[1:-1]
    for j, (left, right, x) in enumerate(zip(g.edges[:-1], g.edges[1:], g.nodes)):
        for k in range(1, K + 1):
            a, b = 1.0 / (k + right), 1.0 / (k + left)
            cut = np.concatenate(([min(a, g.lower)], inner, [max(b, g.upper)]))
            share = np.clip(np.minimum(b, cut[1:]) - np.maximum(a, cut[:-1]), 0.0, None)
            want[:, j] += _reference_weights(K, x, k, raw=False) * share / (b - a)
    got = np.asarray(cell_flow_matrix(gauss_operator(K=K), g))
    # entries below 1, each a sum of at most K + 1 parts within a few
    # roundings: 1e-14 is about 45 eps
    assert np.max(np.abs(got - want)) <= 1e-14
    # the two-cell split put more than 0.1 of some column's mass in a wrong cell
    assert np.max(np.abs(_reference_gauss_flow(gauss_operator(K=K), g, False) - want)) > 0.1


@pytest.mark.parametrize("raw", [False, True])
def test_gauss_flow_keeps_the_column_loop_pattern(raw):
    # an entry the edge round-off creates or removes would show here; the
    # default truncation at the verify grid size has none
    g = Grid(0.0, 1.0, 512)
    op = gauss_operator(K=10_000)
    want = _reference_gauss_flow(op, g, raw)
    got = np.asarray(cell_flow_matrix(op, g, raw=raw))
    assert np.array_equal(got != 0, want != 0)
    assert np.all(np.abs(got - want) <= _gauss_flow_tolerance(g, 10_000, want))


@SETTINGS
@given(st.integers(1, 10), st.integers(2, 3000), st.booleans(),
       st.sampled_from(((0.0, 1.0), (-0.5, 1.5))))
def test_gauss_flow_columns_carry_the_kernel_mass(log_n, K, raw, interval):
    # on a power-of-two grid over these intervals the cell edges are exact,
    # and the end cells keep what lies beyond the grid, so each column holds
    # its kernel mass, 1 for the chain: a tail of cell-0 images dropped or
    # counted twice moves it by about 1/n.  A column sums at most 2K + 1
    # parts over n cells, each part within 6 roundings of its share of the
    # weight, and the mass carries a few roundings of its own.
    g = Grid(*interval, 2**log_n)
    ns = np.arange(1, K + 1, dtype=float)[:, None]
    mass = np.sum(_reference_weights(K, g.nodes, ns, raw=True), axis=0) if raw else 1.0
    sums = np.ones(g.n) @ cell_flow_matrix(gauss_operator(K=K), g, raw=raw)
    tol = (K + g.n + 16) * np.finfo(float).eps * mass
    assert np.all(np.abs(sums - mass) <= tol)


BRANCH_SYSTEMS = (
    ("doubling", lambda g: doubling_system(g)),
    ("logistic", lambda g: logistic_system(g)),
    ("parametric", lambda g: parametric_system(g, 0.3)),
    ("halving", lambda g: halving_ifs(g)),
    ("place-dependent", lambda g: BranchSystem(
        grid=g, branches=[lambda x: 0.5 * x, lambda x: 0.5 * (x + 1.0)],
        weights=lambda x: np.stack((x, 1.0 - x)))),
)


@SETTINGS
@given(st.integers(2, 700), st.sampled_from(BRANCH_SYSTEMS), st.booleans())
def test_branch_flow_matches_dense_spreading_bytes(n, system, circle):
    name, make = system
    if circle and name not in ("doubling", "halving"):
        circle = False
    g = Grid(0.0, 1.0, n, "circle" if circle else "interval")
    bs = make(g)
    assert _same_bytes(cell_flow_matrix(bs, g), _reference_branch_flow(bs, g))


@SETTINGS
@given(st.integers(2, 400), st.floats(0.3, 0.9))
def test_overlapping_ifs_flow_matches_dense_spreading_bytes(n, a):
    s = bernoulli_support(a)
    g = Grid(-s, s, n)
    ifs = bernoulli_system(g, a)
    assert _same_bytes(cell_flow_matrix(ifs, g), _reference_branch_flow(ifs, g))
    # three maps with overlapping images: three masses meet in one cell,
    # so the order in which they are added shows in the bits
    g1 = Grid(0.0, 1.0, n)
    three = affine_ifs(g1, slopes=[0.5, 0.45, 0.4], shifts=[0.0, 0.02, 0.05],
                       probs=[0.3, 0.3, 0.4])
    assert _same_bytes(cell_flow_matrix(three, g1), _reference_branch_flow(three, g1))


@SETTINGS
@given(st.integers(1, 200), st.sampled_from(("haar", "box-3")))
def test_circle_filter_flows_match_dense_spreading_bytes(m, filt_name):
    filt = haar_filter() if filt_name == "haar" else stretched_box_filter(3)
    g = Grid(0.0, 1.0, filt.N * m, "circle")
    system = circle_filter_system(g, filt)
    assert _same_bytes(cell_flow_matrix(system, g), _reference_branch_flow(system, g))


def test_sparse_flow_products_match_dense():
    g = Grid(0.0, 1.0, 300)
    M = cell_flow_matrix(gauss_operator(K=2000), g)
    dense = np.asarray(M)
    w = stream_rng(5, 0).random(g.n)
    assert np.allclose(M @ w, dense @ w, rtol=1e-13, atol=0.0)
    assert np.allclose(w @ M, w @ dense, rtol=1e-13, atol=0.0)
    # column sums in row order add exactly as the dense column sums
    assert np.array_equal(np.ones(g.n) @ M, dense.sum(axis=0))
    assert M.min() == 0.0


# ---------------------------------------------------------------------------
# Ulam matrices and the random-control flow
# ---------------------------------------------------------------------------

def test_ulam_matrix_keeps_the_callers_array():
    g = Grid(0.0, 1.0, 8)
    e = np.eye(8)
    m = UlamMatrix(g, e)
    assert m.entries is e and e.flags.writeable
    assert np.array_equal(m.push(DiscreteMeasure(g, np.full(8, 0.125))),
                          np.full(8, 0.125))
    bad = np.eye(8)
    bad[0, 1] = -1e-13
    with pytest.raises(ValueError, match="negative"):
        UlamMatrix(g, bad)


def test_random_control_flow_holds_only_linear_arrays():
    # the dense flow at n = 2^16 would take 2^32 floats (32 GiB); the closed
    # form holds a few arrays of O(n) and pushes through O(n) temporaries
    g = Grid(0.0, 1.0, 1 << 16)
    rc = random_control_system(g)
    w = np.full(g.n, 1.0 / g.n)
    tracemalloc.start()
    try:
        M = cell_flow_matrix(rc, g)
        pushed, sums = M @ w, np.ones(g.n) @ M
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * g.n  # 64 floats per cell: 32 MiB
    assert pushed.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
