"""The sparse cell-flow assembly against the dense one it replaced, kept
here as a frozen reference, as test_step_reference keeps the sampler
steps: each block of columns summed into a dense columns x n
``np.bincount`` and its nonzeros collected, the branch entries argsorted by
column and cut into blocks of ``_BLOCK // n`` columns, and the Gauss flow
in blocks of at most ``_BLOCK // n`` points.  Every flow's ``indptr``,
``indices`` and ``data`` must be the same, and so must the products, which
now add one chunk of stored entries at a time, against one whole-array
``np.bincount``."""

import numpy as np
import pytest

from transferchain import verify
from transferchain.grids import Grid, stream_rng
from transferchain.invariant import cantor_ifs, halving_ifs
from transferchain.operators import (
    _RUNS_FROM,
    _WEIGHTS,
    BranchSystem,
    CSCMatrix,
    _branch_runs,
    _first_cell,
    _gauss_run_sums,
    _last_cell,
    _ranges,
    _spread_interval,
    cell_flow_matrix,
    circle_filter_system,
    gauss_operator,
)
from transferchain.wavelets import (
    autocorrelation,
    box_scaling_function,
    haar_filter,
    stretched_box_filter,
)

# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

REFERENCE_BLOCK = 1 << 17


def reference_flow(n, blocks):
    counts, indices, data = [], [], []
    for acc in blocks:
        nz = np.flatnonzero(np.maximum(acc, 0.0, out=acc) != 0.0)
        counts.append(np.bincount(nz // n, minlength=acc.size // n))
        indices.append(nz % n)
        data.append(acc[nz])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return CSCMatrix((n, n), indptr, np.concatenate(indices), np.concatenate(data))


def reference_flow_from_entries(n, entries):
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*entries))
    order = np.argsort(cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    width = max(1, REFERENCE_BLOCK // n)

    def blocks():
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            lo, hi = np.searchsorted(cols, [c0, c1])
            key = (cols[lo:hi] - c0) * n + rows[lo:hi]
            yield np.bincount(key, vals[lo:hi], minlength=(c1 - c0) * n)

    return reference_flow(n, blocks())


def reference_branch_flow(bs, grid):
    probs = bs.weight_matrix(grid.nodes)
    entries = []
    for i, tau in enumerate(bs.branches):
        a = np.asarray(tau(grid.edges[:-1]), dtype=float)
        b = np.asarray(tau(grid.edges[1:]), dtype=float)
        if grid.domain_kind == "circle":
            base = grid.wrap(a)
            b = base + (b - a)
            a = base
        entries.append(_spread_interval(probs[i], a, b, grid))
    return reference_flow_from_entries(grid.n, entries)


def reference_gauss_blocks(K, m, n):
    ns = np.arange(1, min(K, _RUNS_FROM - 1) + 1, dtype=float)
    points = max(1, min(REFERENCE_BLOCK // ns.size, REFERENCE_BLOCK // n))
    for p0 in range(0, m, points):
        yield slice(p0, min(p0 + points, m)), ns


def reference_gauss_flow(op, grid, raw):
    n, K = grid.n, op.truncation_K
    nodes, edges = grid.nodes, grid.edges
    kernel = 0 if raw else 1
    weights = _WEIGHTS[kernel]

    def spread(x, ns, left, right):
        return _spread_interval(weights(x, ns, ns + x, K).ravel(), (1.0 / (ns + right)).ravel(),
                                (1.0 / (ns + left)).ravel(), grid)

    def blocks():
        for cols, ns in reference_gauss_blocks(K, n, n):
            x = nodes[cols]
            left, right = edges[:-1][cols], edges[1:][cols]
            rows, j, vals = spread(x[:, None], ns, left[:, None], right[:, None])
            entries = [(rows, j // ns.size, vals)]
            if K >= _RUNS_FROM:
                ends = [(lambda q, k: _first_cell(1.0 / (k + right[q]), grid),
                         lambda q, c: np.floor(1.0 / grid.edge(c) - right[q]) + 1.0),
                        (lambda q, k: _last_cell(1.0 / (k + left[q]), grid),
                         lambda q, c: np.floor(1.0 / grid.edge(c) - left[q]) + 1.0)]
                q, first, last = _branch_runs(x.size, ends, K)
                cell = _first_cell(1.0 / (first + right[q]), grid)
                whole = cell == _last_cell(1.0 / (first + left[q]), grid)
                entries.append((np.clip(cell[whole], 0, n - 1), q[whole],
                                _gauss_run_sums(x[q[whole]], first[whole], last[whole],
                                                K)[kernel, 0]))
                count = (last - first + 1)[~whole].astype(int)
                q, ns = np.repeat(q[~whole], count), _ranges(first[~whole], count)
                rows, j, vals = spread(x[q], ns, left[q], right[q])
                entries.append((rows, q[j], vals))
            rows, col, vals = map(np.concatenate, zip(*entries))
            yield np.bincount(col * n + rows, vals, minlength=x.size * n)

    return reference_flow(n, blocks())


def reference(op, grid, raw):
    if isinstance(op, BranchSystem):
        return reference_branch_flow(op, grid)
    return reference_gauss_flow(op, grid, raw)


def assert_same_arrays(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# the flows
# ---------------------------------------------------------------------------

SPARSE_SYSTEMS = [name for name in verify.SYSTEMS if name != "random-control"]


@pytest.mark.parametrize("raw", [False, True], ids=["chain", "raw"])
@pytest.mark.parametrize("n", [64, 512, 2187])
@pytest.mark.parametrize("name", SPARSE_SYSTEMS)
def test_system_flows_match_the_dense_assembly(name, n, raw):
    system = verify.SYSTEMS[name]
    op = system.build(n, **system.params)
    grid = getattr(op, "grid", Grid(0.0, 1.0, n))
    assert_same_arrays(cell_flow_matrix(op, grid, raw=raw), reference(op, grid, raw))


GAUSS_INTERVALS = [(0.0, 1.0), (-0.3, 1.0), (0.0, 0.2), (0.3, 0.9)]


@pytest.mark.parametrize("raw", [False, True], ids=["chain", "raw"])
@pytest.mark.parametrize("interval", GAUSS_INTERVALS, ids=lambda iv: f"{iv[0]}..{iv[1]}")
@pytest.mark.parametrize("K", [2, 5, 255, 256, 300, 500, 10**4, 10**6])
def test_gauss_flows_match_the_dense_assembly(K, interval, raw):
    # 700 points are several blocks of both assemblies, none of them full
    grid = Grid(*interval, 700)
    op = gauss_operator(K)
    assert_same_arrays(cell_flow_matrix(op, grid, raw=raw), reference(op, grid, raw))


def _fejer(m):
    return stretched_box_filter(m), autocorrelation(box_scaling_function(m, 8))


CIRCLE_FILTERS = {
    "haar": lambda: (haar_filter(), None),
    "box-2": lambda: (stretched_box_filter(2), None),
    "fejer-1": lambda: _fejer(1),
    "fejer-3": lambda: _fejer(3),
}


@pytest.mark.parametrize("n", [6, 64, 999])
@pytest.mark.parametrize("filt", CIRCLE_FILTERS)
def test_circle_filter_flows_match_the_dense_assembly(filt, n):
    grid = Grid(0.0, 1.0, n, "circle")
    system = circle_filter_system(grid, *CIRCLE_FILTERS[filt]())
    assert_same_arrays(cell_flow_matrix(system, grid), reference(system, grid, False))


@pytest.mark.parametrize("n", [3, 81, 1000, 2187, 6561])
@pytest.mark.parametrize("ifs", [cantor_ifs, halving_ifs])
def test_ifs_flows_match_the_dense_assembly(ifs, n):
    grid = Grid(0.0, 1.0, n)
    system = ifs(grid)
    assert_same_arrays(cell_flow_matrix(system, grid), reference(system, grid, False))


# ---------------------------------------------------------------------------
# the products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw", [False, True], ids=["chain", "raw"])
def test_products_match_one_whole_array_bincount(raw):
    # more than one chunk of 2^16 stored entries, so the chunked sums meet
    # in the one output
    grid = Grid(0.0, 1.0, 3000)
    M = cell_flow_matrix(gauss_operator(10**4), grid, raw=raw)
    assert M.data.size > 2 * (1 << 16)
    cols = np.repeat(np.arange(grid.n), np.diff(M.indptr))
    rng = stream_rng(29, 0)
    for w in (rng.random(grid.n), rng.normal(size=grid.n), np.ones(grid.n)):
        want = np.bincount(M.indices, M.data * w[cols], minlength=grid.n)
        assert (M @ w).tobytes() == want.tobytes()
        want = np.bincount(cols, w[M.indices] * M.data, minlength=grid.n)
        assert (w @ M).tobytes() == want.tobytes()
