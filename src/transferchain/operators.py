"""Concrete transfer-operator forms and their action on grid functions.

Three chain kernels are defined here: branch-weighted sums over the maps of
an iterated function system (the inverse branches of an endomorphism, where
there is one; the branch weights are one function of x with a row per
branch), an IFS with random control, and the Gauss (continued fraction)
operator.  Each has the four operations: ``apply`` acts on grid functions,
``flow`` moves cell masses (the matrix behind the invariant measures), and
``step`` and ``chain_apply`` move its chain.  A finite chain and a circle
filter's move are branch systems (``finite_system``, ``circle_filter_system``);
the filter's weighted Ruelle operator and its adjoint act in ``TrigPoly``
arithmetic (``apply_ruelle_circle``, ``apply_ruelle_adjoint``).

A random-control flow is a closed-form ``ControlFlow`` of O(n) arrays.  The
other flows are ``CSCMatrix`` objects summed from their sparse (row, column,
value) entries, the Gauss flow's in blocks of at most ``_BLOCK`` entries, so
their build memory does not grow with n^2 or with the Gauss truncation.

Neither does the Gauss sums' time grow with the truncation K.  Past
A = ``_RUNS_FROM`` branches, many consecutive images 1/(k+x) share one
stencil segment or one cell, and each such run enters by its two sums
S0 = sum w_k and S1 = sum w_k/(k+x) in closed form (``_gauss_run_sums``):
the chain weights telescope, and the other sums are differences of
Euler-Maclaurin tails of zeta(2, .) and zeta(3, .), within 1e-18 for
z >= A - 1.  So a Gauss apply, summed afresh each time, and the flow take
O(n (A + segments or cells hit)) (point, branch) terms, not O(n K).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import DiscreteMeasure, Grid, GridFunction, GridMismatchError, _blocks, _mod_width
from .wavelets import TrigPoly, WaveletFilter

__all__ = [
    "BranchSystem",
    "ControlledSystem",
    "GaussOperator",
    "BranchEscapeError",
    "CSCMatrix",
    "ControlFlow",
    "apply_branch",
    "apply_integral",
    "apply_ruelle_circle",
    "apply_ruelle_adjoint",
    "apply_gauss",
    "pullout_check",
    "radon_nikodym",
    "cell_flow_matrix",
    "logistic_system",
    "doubling_system",
    "parametric_system",
    "parametric_weight",
    "random_control_system",
    "gauss_operator",
    "bernoulli_support",
    "bernoulli_system",
    "circle_filter_system",
    "finite_system",
]


# the round-off of sigma(1/(n+x)) - x grows like n eps, so Gauss digits past
# about 10^6 break the 1e-10 solenoid constraint (GaussOperator.step)
MAX_GAUSS_K = 10**6


class BranchEscapeError(ValueError):
    """A branch image left the grid domain by more than round-off."""


# terms per block of a Gauss sum or flow; each float temporary of a block
# then takes 1 MB
_BLOCK = 1 << 17


def _vector(x, shape, axis: int) -> np.ndarray:
    """x as a float vector along ``axis`` of a flow of the given shape."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape[axis:axis + 1]:
        raise ValueError(f"a flow of shape {shape} and a vector of shape {x.shape} do not align")
    return x


class CSCMatrix:
    """Sparse matrix in compressed sparse column arrays: column j holds the
    values data[indptr[j]:indptr[j+1]] in rows indices[indptr[j]:indptr[j+1]],
    rows ascending.  ``M @ w`` and ``v @ M`` are its products, each summing
    in storage order one ``grids._BLOCK`` of stored entries at a time, and
    ``np.asarray(M)`` is its dense view."""

    __array_ufunc__ = None  # so that ``ndarray @ M`` defers to __rmatmul__

    def __init__(self, shape, indptr, indices, data):
        self.shape = tuple(shape)
        self.indptr, self.indices, self.data = (np.asarray(a) for a in (indptr, indices, data))
        for a in (self.indptr, self.indices, self.data):
            a.flags.writeable = False  # frozen in place, not copied
        self._cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))

    def _sum(self, x, at, gather, axis: int) -> np.ndarray:
        """out[at[e]] += x[gather[e]] * data[e] over the stored entries e, in
        order and a chunk at a time: np.add.at gives one np.bincount's bits."""
        x = _vector(x, self.shape, axis)
        out = np.zeros(self.shape[1 - axis])
        for b in _blocks(self.data.size):
            np.add.at(out, at[b], x[gather[b]] * self.data[b])
        return out

    def __matmul__(self, w) -> np.ndarray:
        """(M w)_i = sum_j M[i, j] w_j."""
        return self._sum(w, self.indices, self._cols, 1)

    def __rmatmul__(self, v) -> np.ndarray:
        """(v M)_j = sum_i v_i M[i, j]."""
        return self._sum(v, self._cols, self.indices, 0)

    def min(self) -> float:
        """The smallest entry, counting the entries not stored as zeros."""
        low = float(self.data.min(initial=np.inf))
        return min(low, 0.0) if self.data.size < self.shape[0] * self.shape[1] else low

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype or float)
        dense[self.indices, self._cols] = self.data
        return dense


def _flow(n: int, blocks) -> CSCMatrix:
    """The n x n cell flow that sums the (rows, cols, values) entry arrays
    ``blocks`` yields for consecutive ranges of columns: np.bincount over the
    ranks of the sorted keys col * n + row adds each cell's values one by one
    in the order given.  A sum is clipped at 0, so that round-off never
    leaves a negative mass, and dropped where it is 0."""
    counts, indices, data = np.zeros(n + 1, dtype=np.intp), [], []
    for rows, cols, vals in blocks:
        key, rank = np.unique(cols * n + rows, return_inverse=True)
        sums = np.bincount(rank, vals)
        live = np.maximum(sums, 0.0, out=sums) != 0.0
        col, row = np.divmod(key[live], n)
        counts[1:] += np.bincount(col, minlength=n)
        indices.append(row)
        data.append(sums[live])
    return CSCMatrix((n, n), np.cumsum(counts), np.concatenate(indices), np.concatenate(data))


def _gauss_blocks(K: int, grid: Grid, per_term: int):
    """Blocks of the nodes of an interval grid for a Gauss sum or flow, with
    the branches below _RUNS_FROM that the truncation K keeps: yields (node
    slice, branch numbers).  A block holds at most _BLOCK terms, one node at
    least: ``per_term`` at each node for each of those branches and for each
    cell that the later branches' images, split into runs, reach from it."""
    ns, lo, A = np.arange(1, min(K, _RUNS_FROM - 1) + 1, dtype=float), grid.lower, _RUNS_FROM
    cells = (1.0 / (A + lo) - 1.0 / (K + lo)) / grid.dx + 2.0 if K >= A else 0.0
    points = max(1, int(_BLOCK // (per_term * (ns.size + cells))))
    for p0 in range(0, grid.n, points):
        yield slice(p0, min(p0 + points, grid.n)), ns


# ---------------------------------------------------------------------------
# operator types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchSystem:
    """Branch maps tau_i with weights p_i(x): an iterated function system.

    Defines (Rf)(x) = sum_i p_i(x) f(tau_i(x)).  Branch maps are vectorized
    callables, and ``weights`` is one vectorized callable p(x) whose value
    broadcasts to (n_branches, len(x)): row i holds p_i, at least 0 at
    nodes.  ``normalized`` asserts sum_i p_i(x) = 1 at nodes.  ``sigma`` is
    the endomorphism the branches invert, when there is one; an IFS whose
    branch images overlap has none.

    ``draft``, where given, maps x to (q, tol): q a new float array like
    p(x), cheaper and inexact, and tol a row per branch, each a scalar or
    an array over x, with |sum_{i<=j} q_i - sum_{i<=j} p_i| <= tol[j] for
    the running sums in branch order.  ``step`` then evaluates p only at
    the states whose uniform or sum the bounds leave undecided, and moves
    every state as it would from p alone.
    """

    kind = "branch"
    channels = 1

    grid: Grid
    branches: Sequence[Callable]
    weights: Callable
    sigma: Optional[Callable] = None
    normalized: bool = True
    name: str = ""
    draft: Optional[Callable] = None

    def __post_init__(self):
        x = self.grid.nodes
        probs = np.asarray(self.weights(x), dtype=float)
        rows = (len(self.branches), x.size)
        if probs.ndim > 2 or any(s not in (1, r) for s, r in zip(probs.shape[::-1], rows[::-1])):
            raise ValueError(f"{self.name or 'the branch system'}: weights of shape "
                             f"{probs.shape} do not give one row per branch, {rows}")
        if probs.min() < 0.0:
            raise ValueError(f"{self.name or 'the branch system'}: a branch weight is "
                             f"negative at the nodes (min {probs.min():.3g})")
        if self.sigma is not None:
            for i, tau in enumerate(self.branches):
                err = self.grid.distance(self.sigma(np.asarray(tau(x), dtype=float)), x)
                if np.max(err) > 1e-10:
                    raise ValueError(
                        f"branch {i} is not a right inverse of sigma "
                        f"(max |sigma(tau(x)) - x| = {np.max(err):.2e})"
                    )
        if self.normalized:
            total = np.broadcast_to(probs, rows).sum(axis=0)
            if np.max(np.abs(total - 1.0)) > 1e-12:
                raise ValueError("branch weights do not sum to 1 at the nodes")

    def weight_matrix(self, x) -> np.ndarray:
        """The branch weights p(x) broadcast to shape (n_branches, len(x))."""
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(self.weights(x), dtype=float),
                               (len(self.branches),) + x.shape)

    def branch_values(self, x) -> np.ndarray:
        """Stacked branch images tau_i(x), clamped/validated against the domain.
        An interval branch is tested once, by its min and max, and only one
        that leaves the domain (or holds a NaN) is examined and clamped."""
        x = np.asarray(x, dtype=float)
        g = self.grid
        out = np.empty((len(self.branches), x.size))
        for i, tau in enumerate(self.branches):
            y = np.asarray(tau(x), dtype=float)
            if g.domain_kind == "circle":
                y = g.wrap(y)
            elif not (g.lower <= y.min(initial=np.inf) and y.max(initial=-np.inf) <= g.upper):
                low, high = y < g.lower, y > g.upper
                if np.any(y < g.lower - 1e-12) or np.any(y > g.upper + 1e-12):
                    # the state, not its index: a caller may pass any slice
                    # of its states, and the message must not depend on which
                    j = int(np.argmax((y < g.lower - 1e-12) | (y > g.upper + 1e-12)))
                    raise BranchEscapeError(
                        f"branch {i} escapes the domain: tau({x.flat[j]!r}) = {y.flat[j]!r}"
                    )
                y = np.where(low, g.lower, np.where(high, g.upper, y))
            out[i] = y
        return out

    def apply(self, f: GridFunction) -> GridFunction:
        return apply_branch(self, f)

    chain_apply = apply  # the chain's one-step operator is R itself

    def flow(self, grid: Grid, raw: bool = False) -> CSCMatrix:
        """Each source cell's image under tau_i, weighted by p_i at its midpoint."""
        if self.grid != grid:
            raise GridMismatchError("operator grid differs from requested grid")
        probs = self.weight_matrix(grid.nodes)
        entries = []
        for i, tau in enumerate(self.branches):
            a = np.asarray(tau(grid.edges[:-1]), dtype=float)
            b = np.asarray(tau(grid.edges[1:]), dtype=float)
            if grid.domain_kind == "circle":
                # place the image interval continuously, wrap targets
                base = grid.wrap(a)
                b = base + (b - a)
                a = base
            entries.append(_spread_interval(probs[i], a, b, grid))
        return _flow(grid.n, [tuple(map(np.concatenate, zip(*entries)))])

    def step(self, x: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Branch i for each state where uniforms[0] falls in p_i's CDF slot.
        With a ``draft``, each running sum c_j of p lies within tol_j of the
        draft's c~_j.  Rounding is monotone and c_j and tol_j are floats, so
        where fl(|u - c~_j|) > tol_j, u lies on the same side of c_j as of
        c~_j; and where fl(c~ + tol) and fl(c~ - tol) of the last row pass
        the sum test, so does its c.  The other states, a NaN among them,
        take p itself."""
        u = uniforms[0]
        if self.draft is None or x.size == 0:
            choice = self._choice(x, u)  # its sum test before any branch's escape test
            return _pick(self.branch_values(x), choice)
        q, tol = self.draft(x)
        for j in range(1, len(q)):  # the running sums in place, np.cumsum's bits
            q[j] += q[j - 1]
        last, e = q[-1], tol[-1]
        # the sum test, passed by every state at once where the widest ends
        # pass it (a NaN fails), else state by state
        far = None
        if not (np.max(last) + np.max(e) - 1.0 <= 1e-9
                and 1.0 - (np.min(last) - np.max(e)) <= 1e-9):
            far = (last + e - 1.0 <= 1e-9) & (1.0 - (last - e) <= 1e-9)
        choice = _branch_choice(u, q)
        for c, e in zip(q, tol):  # each edge's distance from u, in place
            np.abs(np.subtract(u, c, out=c), out=c)
            far = c > e if far is None else np.logical_and(far, c > e, out=far)
        redo = np.flatnonzero(~far)
        if redo.size:
            choice[redo] = self._choice(x[redo], u[redo])
        return _pick(self.branch_values(x), choice)

    def _choice(self, x, u) -> np.ndarray:
        """The branch of each state from its weights p(x) and uniform u,
        after the test that p sums to 1 there."""
        probs = self.weight_matrix(x)
        if probs.strides[-1] == 0:
            probs = probs[:, :1]  # weights constant in x: one column does
        # the running sum in branch order is np.cumsum's, bit for bit; its
        # last row is the sum over branches
        cdf = list(itertools.accumulate(probs))
        # max |sum - 1| <= 1e-9 by the sums' min and max, as x - 1.0 is
        # monotone in x; a NaN sum fails both tests
        low, high = cdf[-1].min(), cdf[-1].max()
        if not (high - 1.0 <= 1e-9 and 1.0 - low <= 1e-9):
            nan = " (NaN at some state)" if np.isnan(low) else ""  # min and max propagate NaN
            raise ValueError(f"branch weights at the current states do not sum to 1{nan}")
        return _branch_choice(u, cdf)


class ControlFlow:
    """The cell flow of a controlled move from each source cell's midpoint:
    with probability p_i, uniform between lo[i, j] and hi[i, j].  ``M @ w`` sums
    density times length per cell, and ``v @ M`` averages v over each interval."""

    __array_ufunc__ = None  # so that ``ndarray @ M`` defers to __rmatmul__

    def __init__(self, grid: Grid, probs, lo, hi):
        self.shape = (grid.n, grid.n)
        self._scale = probs[:, None] / (hi - lo)  # density per unit mass, < 0 where hi < lo
        ends = np.concatenate((lo.ravel(), hi.ravel(), grid.edges))
        self._order = np.argsort(ends, kind="stable")
        self._length = np.diff(ends[self._order])
        # a segment lies in the cell of the last edge before it; end cells take the rest
        self._cell = np.clip(np.cumsum(self._order >= 2 * lo.size)[:-1] - 1, 0, grid.n - 1)
        self._rank = np.argsort(self._order)

    def __matmul__(self, w) -> np.ndarray:
        """(M w)_i = sum_j M[i, j] w_j."""
        w = _vector(w, self.shape, 1)
        jumps = (self._scale * w).ravel()
        density = np.cumsum(np.concatenate((jumps, -jumps, np.zeros(w.size + 1)))[self._order])
        out = np.bincount(self._cell, density[:-1] * self._length, minlength=w.size)
        # entries are overlap masses: for w >= 0, a negative cell is round-off
        return np.maximum(out, 0.0) if w.min() >= 0.0 else out

    def __rmatmul__(self, v) -> np.ndarray:
        """(v M)_j = sum_i v_i M[i, j]."""
        v = _vector(v, self.shape, 0)
        at_ends = np.concatenate(([0.0], np.cumsum(v[self._cell] * self._length)))
        lo, hi = at_ends[self._rank[:2 * self._scale.size]].reshape(2, *self._scale.shape)
        return ((hi - lo) * self._scale).sum(axis=0)

    def min(self) -> float:
        """0.0, a lower bound on the entries: each is a sum of overlap masses."""
        return 0.0


@dataclass(frozen=True)
class ControlledSystem:
    """IFS with random control: from x, branch i with probability p_i
    (``branch_probs``), then F(x, i, u) for uniform u, which must be affine
    in u, so a uniform point of the control interval [F(x, i, 0), F(x, i, 1)].
    F is vectorized in x and u.  The chain draws i and u: two channels."""

    kind = "controlled"
    channels = 2

    grid: Grid
    F: Callable
    branch_probs: np.ndarray
    name: str = ""

    def __post_init__(self):
        p = np.asarray(self.branch_probs, dtype=float)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("branch probabilities must be a distribution")
        object.__setattr__(self, "branch_probs", p)
        if self.grid.domain_kind != "interval":
            raise GridMismatchError("a controlled system lives on an interval grid")
        live, (lo, hi, mid) = self._ends(self.grid.nodes, (0.0, 1.0, 0.5))
        err = np.max(np.abs(mid - 0.5 * (lo + hi)), axis=1)
        if np.any(err > 1e-12 * np.max(np.abs(self.grid.nodes))):
            raise ValueError(f"{self.name or 'the controlled system'}: F(x, i, u) is not "
                             f"affine in u for branch i = {live[np.argmax(err)]}")

    def _ends(self, x, us=(0.0, 1.0)):
        """The branches i with p_i != 0, and F(x, i, u) for each u in us."""
        live = np.flatnonzero(self.branch_probs)
        return live, [np.array([np.broadcast_to(np.asarray(self.F(x, i, u), dtype=float), x.shape)
                                for i in live]) for u in us]

    def apply(self, f: GridFunction) -> GridFunction:
        return apply_integral(self, f)

    chain_apply = apply  # the chain's one-step operator is R itself

    def flow(self, grid: Grid, raw: bool = False) -> ControlFlow:
        """The move from each source cell's midpoint; a point interval has no density."""
        if self.grid != grid:
            raise GridMismatchError("operator grid differs from requested grid")
        live, (lo, hi) = self._ends(grid.nodes)
        point = np.any(np.abs(hi - lo) <= 1e-15 * grid.width, axis=0)
        if np.any(point):
            x = float(grid.nodes[np.argmax(point)])
            raise ValueError(f"{self.name or 'the controlled system'} has a control interval "
                             f"of zero width at x = {x!r}, so no cell flow")
        return ControlFlow(grid, self.branch_probs[live], lo, hi)

    def step(self, x: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Branch i where uniforms[0] falls in its slot, then F(x, i, uniforms[1]).

        F is evaluated on the whole block for each branch that some state
        takes, and each state keeps its own branch's value."""
        choice = _branch_choice(uniforms[0], np.cumsum(self.branch_probs))
        moves = np.empty((self.branch_probs.size, x.size))
        for i, move in enumerate(moves):
            if np.any(choice == i):
                move[...] = self.F(x, i, uniforms[1])
        return _pick(moves, choice)


@dataclass(frozen=True)
class GaussOperator:
    """Gauss operator (Rf)(x) = sum_{n>=1} (n+x)^-2 f(1/(n+x)), truncated.

    Branches n < ``truncation_K`` keep their weights, and branch K carries
    the mass of every n >= K on its image 1/(K+x), in the raw sum and in
    the chain kernel (``_raw_weights``, ``_chain_weights``).  ``apply``,
    ``chain_apply``, ``flow`` and ``step`` all move by this one kernel.
    """

    kind = "gauss-backward"
    channels = 1

    truncation_K: int = 10_000

    def __post_init__(self):
        if self.truncation_K < 2:
            raise ValueError("need at least 2 Gauss branches")
        if self.truncation_K > MAX_GAUSS_K:
            raise ValueError(f"need at most {MAX_GAUSS_K} Gauss branches")

    @staticmethod
    def sigma(x):
        r = 1.0 / np.asarray(x, dtype=float)
        r -= np.floor(r)
        return r

    @staticmethod
    def density(x):
        """The invariant density 1 / (ln 2 (1+x))."""
        return 1.0 / (np.log(2.0) * (1.0 + np.asarray(x, dtype=float)))

    def apply(self, f: GridFunction) -> GridFunction:
        return apply_gauss(self, f)

    def chain_apply(self, f: GridFunction) -> GridFunction:
        """The chain's operator: the branch sum with the chain kernel's weights."""
        return GridFunction(f.grid, _gauss_sum(self.truncation_K, f, 1))

    def flow(self, grid: Grid, raw: bool = False) -> CSCMatrix:
        """Each source cell's images 1/(n + cell) for n <= K, weighted by the
        chain kernel at its midpoint, or by the raw weights when ``raw``;
        branch K's image carries the mass of every n >= K, so a chain column
        sums to 1.  The images of branches below _RUNS_FROM, and each image
        that straddles a cell edge, are spread by ``_spread_interval``.  From
        _RUNS_FROM on, a run of images that lie whole in one cell adds its
        S0 there (``_gauss_run_sums``), so a column costs O(_RUNS_FROM +
        cells hit), not O(K): past about n branches the images are in
        cell 0, one run."""
        if grid.domain_kind != "interval":
            raise GridMismatchError("Gauss operator lives on an interval grid")
        n, K = grid.n, self.truncation_K
        nodes, edges = grid.nodes, grid.edges
        kernel = 0 if raw else 1
        weights = _WEIGHTS[kernel]

        def spread(x, ns, left, right):
            return _spread_interval(weights(x, ns, ns + x, K).ravel(), (1.0 / (ns + right)).ravel(),
                                    (1.0 / (ns + left)).ravel(), grid)

        def blocks():
            for cols, ns in _gauss_blocks(K, grid, 2):  # an image meets up to 2 cells
                x = nodes[cols]
                left, right = edges[:-1][cols], edges[1:][cols]
                rows, j, vals = spread(x[:, None], ns, left[:, None], right[:, None])
                entries = [(rows, j // ns.size, vals)]
                if K >= _RUNS_FROM:
                    # a branch's image lies in one cell whole where its two
                    # ends do, as _spread_interval places them
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
                    # the rest straddle a cell edge, one branch each where
                    # an image is narrower than a cell, as past _RUNS_FROM
                    count = (last - first + 1)[~whole].astype(int)
                    q, ns = np.repeat(q[~whole], count), _ranges(first[~whole], count)
                    rows, j, vals = spread(x[q], ns, left[q], right[q])
                    entries.append((rows, q[j], vals))
                rows, col, vals = map(np.concatenate, zip(*entries))
                yield rows, col + cols.start, vals

        return _flow(n, blocks())

    def step(self, x: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Digit n from the kernel's inverse CDF at uniforms[0]: n < K where
        P(N <= n | x) = 1 - (1+x)/(n+1+x) first reaches it, else K."""
        n = np.ceil((1.0 + x) / (1.0 - uniforms[0]) - 1.0 - x)
        # the cap bounds the round-off of sigma(1/(n+x)) - x, which grows
        # like n eps: digits past about 10^6 break the solenoid constraint
        return 1.0 / (np.clip(n, 1, self.truncation_K) + x)


def _branch_choice(u, cdf) -> np.ndarray:
    """The branch of each state: how many rows of the CDF ``cdf`` (a
    sequence, each row a scalar or broadcasting to u) lie at or below u,
    capped at the last branch.  For two branches that count is a bool:
    u >= cdf[0] or u >= cdf[1]."""
    if len(cdf) == 2:
        choice = u >= cdf[0]
        choice |= u >= cdf[1]
        return choice
    choice = np.zeros(np.shape(u), dtype=np.intp)
    for row in cdf:
        choice += u >= row
    return np.minimum(choice, len(cdf) - 1, out=choice)


def _pick(rows, choice) -> np.ndarray:
    """rows[choice[j], j] for every column j of the float rows.  Two rows
    are selected without a branch, on their 64-bit patterns: r0 ^ ((r0 ^ r1)
    & mask), the mask all ones where choice is 1 (np.where branches on each
    column, at several times the cost for a random choice).  More rows are
    gathered by one take from the flat rows (an index array into the 2-D
    rows gathers several times slower), and choice is overwritten with the
    flat index."""
    if len(rows) == 2:
        bits = rows.view(np.uint64)
        mask = choice.astype(np.int64)
        np.negative(mask, out=mask)
        out = np.bitwise_xor(bits[0], bits[1])
        out &= mask.view(np.uint64)
        out ^= bits[0]
        return out.view(float)
    n = rows.shape[1]
    choice *= n
    choice += np.arange(n)
    return np.take(rows.ravel(), choice)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def apply_branch(bs: BranchSystem, f: GridFunction) -> GridFunction:
    """(Rf)(x_j) = sum_i p_i(x_j) f(tau_i(x_j)) at every node."""
    if f.grid != bs.grid:
        raise GridMismatchError("function not on the system grid")
    x = bs.grid.nodes
    taus = bs.branch_values(x)
    probs = bs.weight_matrix(x)
    vals = np.zeros(bs.grid.n)
    for i in range(len(bs.branches)):
        vals += probs[i] * f.eval(taus[i])
    return GridFunction(bs.grid, vals)


def apply_integral(cs: ControlledSystem, f: GridFunction) -> GridFunction:
    """sum_i p_i (exact mean of ``f.linear`` over the control interval, or
    its value at a zero-width one) at every node, clamped like ``eval``."""
    if f.grid != cs.grid:
        raise GridMismatchError("function not on the system grid")
    live, (lo, hi) = cs._ends(cs.grid.nodes)
    mean = np.divide(f.antiderivative(hi) - f.antiderivative(lo), hi - lo,
                     out=f.linear(lo), where=hi != lo)
    return GridFunction(cs.grid, f.sign_clamp((cs.branch_probs[live, None] * mean).sum(axis=0)))


def apply_ruelle_circle(filt: WaveletFilter, f: GridFunction) -> GridFunction:
    """The filter's (Rf)(t) = (1/N) sum_k |m0((t+k)/N)|^2 f((t+k)/N) on the
    same grid, exact on the trigonometric interpolant of f's node values."""
    g = f.grid
    if g.domain_kind != "circle":
        raise GridMismatchError("Ruelle circle operator needs a circle grid")
    rf = filt.ruelle(TrigPoly.from_samples(f.values))
    return GridFunction(g, rf.on_grid(g.n).real)


def apply_ruelle_adjoint(filt: WaveletFilter, f: GridFunction) -> GridFunction:
    """(R* f)(t) = |m0(t)|^2 f(N t mod 1), exact on the trigonometric
    interpolant of f's node values."""
    g = f.grid
    if g.domain_kind != "circle":
        raise GridMismatchError("adjoint Ruelle operator needs a circle grid")
    adj = filt.autocorr * TrigPoly.from_samples(f.values).dilate(filt.N)
    return GridFunction(g, adj.on_grid(g.n).real)


def apply_gauss(op: GaussOperator, f: GridFunction) -> GridFunction:
    return GridFunction(f.grid, _gauss_sum(op.truncation_K, f, 0))


# The truncated Gauss kernel's weights at points x and branches ns, which
# broadcast together, denom = ns + x; with ``_gauss_run_sums``, the only
# code that treats branch K apart.

def _raw_weights(x, ns, denom, K):
    """(n+x)^-2, plus sum_{n>K} (n+x)^-2 = 1/(K+x+1/2) + O(K^-3) on branch K."""
    return 1.0 / (denom * denom) + np.where(ns == K, 1.0 / (K + x + 0.5), 0.0)


def _chain_weights(x, ns, denom, K):
    """The chain kernel P(N = n | x) = (1+x)/((n+x)(n+x+1)), the density-
    normalized (n+x)^-2 h(1/(n+x)) / h(x), and P(N >= K | x) = (1+x)/(K+x)
    on branch K: it sums to 1 at every x."""
    return np.where(ns == K, (1.0 + x) / (K + x), (1.0 + x) / (denom * (denom + 1.0)))


_WEIGHTS = (_raw_weights, _chain_weights)  # by kernel: 0 raw, 1 chain


# Branches from A = _RUNS_FROM on are summed by runs in closed form.  At
# z >= A - 1 the Euler-Maclaurin tails below leave out less than 1e-18 of
# their value, and a run near A holds about A^2 dx branches.
_RUNS_FROM = 256


def _zeta_tails(z):
    """zeta(2, z) - 1/z and zeta(3, z), where zeta(s, z) = sum_{k>=0}
    (k+z)^-s, by Euler-Maclaurin through B_6.  The omitted remainders are
    below their first terms, 1/(30 z^9) and 3/(20 z^10), as the summands'
    derivatives alternate in sign: relative to the values (at least
    1/(2 z^2)), below z^-7/15 and 0.3 z^-8, under 1e-18 for z >= 255."""
    v = 1.0 / z
    v2 = v * v
    return (v2 * (0.5 + v * (1 / 6 + v2 * (-1 / 30 + v2 / 42))),
            v2 * (0.5 + v * (0.5 + v * (0.25 + v2 * (-1 / 12 + v2 / 12)))))


def _gauss_run_sums(x, a, b, K):
    """S0 = sum w_k and S1 = sum w_k u_k over the branches k = a..b, with
    u_k = 1/(k+x) and branch K's lump included when b = K, for the raw
    weights and for the chain kernel: an array indexed [kernel, sum, ...],
    kernel 0 raw and 1 chain, sum 0 for S0 and 1 for S1.

    The chain weights (1+x)(u_k - u_{k+1}) telescope: S0 = (1+x)(u_a -
    u_{b+1}), and the tail to K is exactly (1+x) u_a.  The raw S0 and S1
    and the chain S1 = (1+x) sum (u_k^2 - u_k u_{k+1}) are differences of
    zeta(2, .) and zeta(3, .) tails at a + x and b + 1 + x (``_zeta_tails``).
    For a + x >= 255 (a >= _RUNS_FROM, x >= -1) the omitted terms are below
    1e-18 (2 + x) u_a, and round-off, of the few tails of size at most
    (2 + x) u_a that are added, below 8 eps (2 + x) u_a."""
    u_a, u_b = 1.0 / (a + x), 1.0 / (b + 1.0 + x)
    (g_a, z_a), (g_b, z_b) = _zeta_tails(a + x), _zeta_tails(b + 1.0 + x)
    lump = b == K
    tail, u_K = 1.0 / (K + x + 0.5), 1.0 / (K + x)
    dg = g_a - g_b
    return np.array([
        [u_a - u_b + dg + np.where(lump, tail, 0.0), z_a - z_b + np.where(lump, u_K * tail, 0.0)],
        [(1.0 + x) * (u_a - np.where(lump, 0.0, u_b)),
         (1.0 + x) * (dg + np.where(lump, u_K * u_b, 0.0))],
    ])


def _ranges(first, count):
    """first[i], first[i] + 1, .., first[i] + count[i] - 1 for each i, in turn."""
    return np.repeat(first, count) + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                                          count)


def _branch_runs(m, cells, K):
    """The branches _RUNS_FROM..K at each of m points, split into runs
    along which every function in ``cells`` is constant.

    Each entry is a pair (cell, guess): cell(q, k) is an integer at points
    q and branches k, non-increasing in k, and guess(q, c) the first branch
    at which it falls below c, in closed form and right to within one
    branch: it is corrected here by cell itself.  Returns the point index
    and the first and last branch of every run, as float arrays."""
    A, every = float(_RUNS_FROM), np.arange(m)
    points, breaks = [every], [np.full(m, A)]
    for cell, guess in cells:
        # the values cell drops below along k: bottom + 1 .. top at each point
        top, bottom = cell(every, A), cell(every, float(K))
        q, c = np.repeat(every, top - bottom), _ranges(bottom + 1, top - bottom)
        k = guess(q, c)
        k = k + (cell(q, k) >= c)
        k = k - (cell(q, k - 1.0) < c)
        points.append(q)
        breaks.append(np.clip(k, A, K + 1.0))
    key = np.unique(np.concatenate(points) * (K + 2) + np.concatenate(breaks).astype(np.int64))
    q, first = np.divmod(key, K + 2)
    last = np.append(first[1:], K + 1) - 1
    last[np.append(q[1:] != q[:-1], True)] = K
    keep = first <= last
    return q[keep], first[keep].astype(float), last[keep].astype(float)


def _gauss_sum(K: int, f: GridFunction, kernel: int) -> np.ndarray:
    """sum over n <= K of w_n(x) f(1/(n+x)) at the nodes x of f's grid, with
    the raw weights (kernel 0) or the chain kernel's (kernel 1), summed
    directly at each apply: nothing is kept between applies.

    Branches below _RUNS_FROM enter one by one through ``f.eval``, its sign
    clamp included.  From _RUNS_FROM on, the branches whose images share a
    stencil segment s enter as one run, by the segment's line p_s + q_s u:
    p_s S0 + q_s S1 (``_gauss_run_sums``).  That line is ``eval`` without
    its clamp, which changes a value only in an end strip, where the
    boundary segment is extrapolated, and there only past the line's zero.
    When the clamp can bind on the runs' images, which lie between
    1/(K + x) and 1/(_RUNS_FROM + x), the correction sum w (clamp(u) - u) =
    -w (p + q u) = -(p S0 + q S1) is added over the branches from
    _RUNS_FROM on whose images lie past the zero, one run per end.  The sum
    is then clamped like eval's values: R is a positive operator, so that
    only removes round-off, and R f >= 0 holds exactly for f >= 0."""
    grid, v, x = f.grid, f.values, f.grid.nodes
    if grid.domain_kind != "interval":
        raise GridMismatchError("Gauss operator lives on an interval grid")
    slope = np.diff(v) / grid.dx  # segment s is the line p_s + q_s u
    icept = v[:-1] - slope * x[:-1]

    def segment(q, k):  # at the points xs of the block being summed
        return grid.stencil(1.0 / (k + xs[q]))[0]

    def below(q, s):  # the first branch whose image is left of node s
        return np.floor(1.0 / (grid.lower + (s + 0.5) * grid.dx) - xs[q]) + 1.0

    out = np.empty(x.size)
    for cols, ns in _gauss_blocks(K, grid, 1):
        xs = x[cols]
        denom = ns + xs[:, None]
        out[cols] = np.sum(_WEIGHTS[kernel](xs[:, None], ns, denom, K) * f.eval(1.0 / denom),
                           axis=1)
        if K >= _RUNS_FROM:
            q, first, last = _branch_runs(xs.size, [(segment, below)], K)
            s = segment(q, first)
            s0, s1 = _gauss_run_sums(xs[q], first, last, K)[kernel]
            out[cols] += np.bincount(q, icept[s] * s0 + slope[s] * s1, minlength=xs.size)
    A = float(_RUNS_FROM)
    u = f.linear(np.array([1.0 / (K + x.max()), 1.0 / (A + x.min())]))
    if np.all(f.sign_clamp(u) == u):
        return f.sign_clamp(out)
    sign = 1.0 if v.min() >= 0.0 else -1.0  # the clamp floors at 0, or caps at 0
    for i, side in ((0, 1.0), (grid.n - 2, -1.0)):
        # the left line takes the wrong sign below its zero, the right one
        # above it
        if sign * side * slope[i] <= 0.0:
            continue
        zero = x[i] - v[i] / slope[i]
        # the image 1/(k + x) lies left of a zero > 0 where k > 1/zero - x
        c = 1.0 / zero - x if zero > 0.0 else np.full(x.size, np.inf)
        if side > 0.0:
            first, last = np.maximum(np.floor(c) + 1.0, A), np.full(x.size, float(K))
        else:
            first, last = np.full(x.size, A), np.minimum(np.ceil(c) - 1.0, K)
        runs = np.flatnonzero(first <= last)
        s0, s1 = _gauss_run_sums(x[runs], first[runs], last[runs], K)[kernel]
        out[runs] -= icept[i] * s0 + slope[i] * s1
    return f.sign_clamp(out)


def pullout_check(bs: BranchSystem, f: GridFunction, g: GridFunction) -> float:
    """Max node residual of R((f o sigma) g) - f R(g)."""
    if bs.sigma is None:
        raise ValueError(f"{bs.name or 'the system'} has no endomorphism sigma")
    x = bs.grid.nodes
    comp = GridFunction(bs.grid, f.eval(bs.grid.wrap(bs.sigma(x))) * g.values)
    lhs = apply_branch(bs, comp).values
    rhs = f.values * apply_branch(bs, g).values
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# cell flow (mass transport of mu -> mu R) and Radon-Nikodym weights
# ---------------------------------------------------------------------------

def _first_cell(a, grid: Grid):
    """The cell, of any integer index, whose span [edge(k), edge(k + 1)) holds a."""
    k = np.floor((a - grid.lower) / grid.dx).astype(int)
    return k - (a < grid.edge(k))  # the division can round up into the next cell


def _last_cell(b, grid: Grid):
    """The cell, of any integer index, in which an interval ending at b ends:
    one left of b's where b is an edge to within 1e-15 cells."""
    return np.floor((b - grid.lower) / grid.dx - 1e-15).astype(int)


def _spread_interval(col_weights, a, b, grid: Grid):
    """(rows, cols, values) entries that distribute col_weights[j] from
    source cell j over the target cells covering [a_j, b_j], proportionally
    to overlap.  Exact for affine branch images; circle targets wrap."""
    n = grid.n
    a, b = np.minimum(a, b), np.maximum(a, b)
    width = b - a
    j_idx, w = np.arange(a.size), col_weights
    tiny = width <= 1e-15 * grid.width
    entries = [(grid.cell_index(0.5 * (a[tiny] + b[tiny])), j_idx[tiny], w[tiny])]
    if np.any(tiny):
        live = ~tiny
        a, b, w, width, j_idx = a[live], b[live], w[live], width[live], j_idx[live]
    k, k1 = _first_cell(a, grid), _last_cell(b, grid)
    # both edges of cell k as the grid places them, so that neighbours
    # share one: a cell's right edge is the next one's left
    right = grid.edge(k)
    for s in range(int(np.max(k1 - k, initial=0)) + 1):
        if s:
            # an image that ends left of cell k's left edge has no part in
            # it, nor in any cell further right
            k = k + 1
            reach = b > right
            a, b, w, width, j_idx, k, right = (v[reach] for v in (a, b, w, width, j_idx, k, right))
        left, right = right, grid.edge(k + 1)
        overlap = np.minimum(b, right) - np.maximum(a, left)
        frac = np.maximum(overlap, 0.0) / width
        if grid.domain_kind == "circle":
            k_t = np.mod(k, n)
        else:
            k_t = np.minimum(np.maximum(k, 0), n - 1)
        entries.append((k_t, j_idx, w * frac))  # a zero adds nothing to a sum
    return tuple(map(np.concatenate, zip(*entries)))


def cell_flow_matrix(op, grid: Grid, raw: bool = False):
    """Matrix M with M[i, j] = mass sent from cell j to cell i by one step
    of the operator's Markov kernel (column-stochastic when normalized),
    with no negative entry, as the operator's ``flow`` builds it.  A
    ``CSCMatrix``, or a ``ControlFlow`` for a controlled system; either
    acts through ``M @ w`` and ``v @ M``.  ``raw=True`` gives the Gauss
    operator's raw weights (n+x)^-2, whose dual fixes Lebesgue measure, in
    place of its chain kernel.
    """
    return op.flow(grid, raw)


def radon_nikodym(op, lam: DiscreteMeasure) -> GridFunction:
    """W = d(lambda R)/d lambda from the operator's action on cell indicators.

    (lambda R)(cell_i) = sum_j M[i, j] lambda_j; W_i is that mass divided by
    lambda's own mass in cell i.  For the Gauss operator this uses the raw
    branch weights, so that int (R f) d lambda = int f W d lambda holds for
    the operator as applied, not for its normalized chain kernel.
    """
    if not lam.normalized:
        raise ValueError("reference measure must be normalized")
    if np.any(lam.weights <= 0):
        raise ValueError("reference measure must charge every cell")
    M = cell_flow_matrix(op, lam.grid, raw=True)
    pushed = M @ lam.weights
    return GridFunction(lam.grid, pushed / lam.weights)


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

def logistic_system(grid: Grid) -> BranchSystem:
    """sigma(x) = 4x(1-x) with uniform half weights on the two branches."""
    def tau_plus(x):
        return 0.5 * (1.0 + np.sqrt(np.clip(1.0 - x, 0.0, None)))

    def tau_minus(x):
        return 0.5 * (1.0 - np.sqrt(np.clip(1.0 - x, 0.0, None)))

    return BranchSystem(
        grid=grid,
        sigma=lambda x: 4.0 * x * (1.0 - x),
        branches=[tau_minus, tau_plus],
        weights=lambda x: 0.5,
        name="logistic",
    )


def doubling_system(grid: Grid) -> BranchSystem:
    """sigma(x) = 2x mod 1 with branches x/2 and (x+1)/2, weights 1/2."""
    def sigma(x):
        y = 2.0 * np.asarray(x, dtype=float)
        if grid.domain_kind == "interval":
            y -= y >= 1.0  # y - 1 where y >= 1, as y - True; y - False is y, bit for bit
        return y

    return BranchSystem(
        grid=grid,
        sigma=sigma,
        branches=[lambda x: 0.5 * x, lambda x: 0.5 * (x + 1.0)],
        weights=lambda x: 0.5,
        name="doubling",
    )


def parametric_weight(u: float) -> Callable:
    """The Radon-Nikodym weight W^(u): 1/(2u) left of u, 1/(2(1-u)) right."""
    def W(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < u, 1.0 / (2.0 * u), 1.0 / (2.0 * (1.0 - u)))

    return W


def parametric_system(grid: Grid, u: float) -> BranchSystem:
    """Branches ux and u + (1-u)x, weights 1/2; sigma rescales each piece."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")

    def sigma(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= u, x / u, (x - u) / (1.0 - u))

    return BranchSystem(
        grid=grid,
        sigma=sigma,
        branches=[lambda x: u * x, lambda x: u + (1.0 - u) * x],
        weights=lambda x: 0.5,
        name=f"parametric-{u}",
    )


def random_control_system(grid: Grid) -> ControlledSystem:
    """The two-branch system with uniformly random contraction parameter.

    F(x, (i, u)) is u x for i = 0 and u + (1-u) x for i = 1, with u uniform
    on (0, 1): the move is U(0, x) or U(x, 1), evenly.
    """
    def F(x, i, u):
        x = np.asarray(x, dtype=float)
        return u * x if i == 0 else u + (1.0 - u) * x

    return ControlledSystem(
        grid=grid,
        F=F,
        branch_probs=np.array([0.5, 0.5]),
        name="random-control",
    )


def gauss_operator(K: int = 10_000) -> GaussOperator:
    return GaussOperator(truncation_K=K)


def bernoulli_support(a: float) -> float:
    """Half-width a/(1-a) of the interval the Bernoulli chain lives on."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    return a / (1.0 - a)


def bernoulli_system(grid: Grid, a: float) -> BranchSystem:
    """Backward chain of the random series sum_k w_k a^k on [-a/(1-a), a/(1-a)].

    Branches a(x-1) and a(x+1) with equal weights; the stationary law is the
    Bernoulli convolution with parameter a.  For a > 1/2 the branch images
    overlap, so no endomorphism sigma undoes a move.
    """
    bernoulli_support(a)  # rejects a outside (0, 1)

    def sigma(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, x / a - 1.0, x / a + 1.0)

    return BranchSystem(
        grid=grid,
        sigma=sigma if a <= 0.5 else None,
        branches=[lambda x: a * (x - 1.0), lambda x: a * (x + 1.0)],
        weights=lambda x: 0.5,
        name=f"bernoulli-{a}",
    )


def circle_filter_system(grid: Grid, filt: WaveletFilter,
                         h: Optional[TrigPoly] = None) -> BranchSystem:
    """The solenoid Markov move of a circle filter as a branch system.

    Branches (t+k)/N with weights (1/N) |m0|^2((t+k)/N) h((t+k)/N) / h(t);
    h defaults to the constant 1 (orthonormal filters).  An h with
    coefficient residual |Rh - h| above 1e-8 is refused: its weights would
    not be a chain's.
    """
    if grid.domain_kind != "circle":
        raise ValueError("filter chains live on circle grids")
    given = h is not None
    h = h if given else TrigPoly(0, [1.0])
    resid = filt.ruelle_residual(h)
    if resid > 1e-8:
        raise ValueError(f"filter {filt.name or 'circle'}: |Rh - h| = {resid:.3g} > 1e-8 "
                         f"for h = {'the given h' if given else '1 (not normalized)'}")
    N = filt.N

    def make_tau(k):
        return lambda t: (t + k) / N

    def raw_weight(s):
        # the default h = 1 is not multiplied in: v * 1.0 == v, bit for bit
        return filt.m0_sq(s) * h(s) if given else filt.m0_sq(s)

    def weights(t):
        # the raw weights sum to (R h)(t) = h(t); dividing by their own sum
        # instead of h(t) is the same ratio but stays conditioned near the
        # zeros of h.  Row k is evaluated at (t + k)/N, all rows at once.
        t = np.asarray(t, dtype=float)
        s = np.empty((N,) + t.shape)
        for k, row in enumerate(s):
            np.add(t, k, out=row)
        s /= N
        raw = raw_weight(s)
        raw /= raw.sum(axis=0)
        return raw

    return BranchSystem(
        grid=grid,
        sigma=lambda t: _mod_width(N * np.asarray(t, dtype=float), grid.width),
        branches=[make_tau(k) for k in range(N)],
        weights=weights,
        name=f"filter-{filt.name or 'circle'}",
        draft=_filter_draft(filt, h if given else None),
    )


def _filter_draft(filt: WaveletFilter, h: Optional[TrigPoly]) -> Optional[Callable]:
    """The ``BranchSystem.draft`` of a filter chain with N = 2 and a real
    even h (or none), else None.  Its raw weights R_k = |m0|^2 h at
    s_k = (t + k)/2 are drafted by ``TrigPoly.draft_halves`` of the product
    |m0|^2 h as R~_0 = E + O and R~_1 = E - O, so their sum is S~ = 2E,
    and q_k = R~_k / S~.

    The bound.  Let l_A and l_H be the l1 masses of |m0|^2 and h, so that
    |A| <= l_A and |H| <= l_H (l_H = 1 without h).
      - The exact weights round A and H within eta_A and eta_H
        (``TrigPoly.rounding``), and R = A H within eta = eta_A (l_H +
        eta_H) + l_A eta_H + 2^-53 (l_A + eta_A)(l_H + eta_H).
      - The draft is within eps of the real product, plus (k + 1) 2^-53
        l_A l_H for its convolved coefficients (k the shorter length).
      - So the raw weights of the two sides differ by at most e_R, the sum
        of the three, and both are at most W = l_A l_H + e_R in size (where
        h makes S vary with t, the tighter max_k |R~_k| + e_R per state).
      - The sums differ by at most e_S = 2 e_R + 2^-50 W (2E is R~_0 + R~_1
        within 2^-52 W, and the exact sum rounds), so the exact sum is at
        least L = S~ - e_S.  States with L <= 0, near the zeros of h, take
        tol = inf: the exact weights decide them.
      - Elsewhere P = W / L bounds every weight of either side, and
        |q_0 - p_0| <= (e_R + P e_S) / L + 2^-50 P, from |R~/S~ - R/S| <=
        (|R~ - R| + |R/S| |S~ - S|) / S~ and the rounding of both quotients.
      - Each side's sum of its two weights lies within 3 P + 2 units of
        2^-53 of 1, so the last running sums agree within 2^-48 P."""
    A = filt.autocorr
    if filt.N != 2 or (h is not None and not h.real_even):
        return None
    raw = A if h is None else A * h
    l_A, l_H = float(np.sum(np.abs(A.c))), 1.0 if h is None else float(np.sum(np.abs(h.c)))
    conv = 0.0 if h is None else (min(len(A.c), len(h.c)) + 1) * 2.0**-53 * l_A * l_H

    def draft(t):
        t = np.asarray(t, dtype=float)
        t_abs = max(-t.min(), t.max())  # NaN if any state is
        q = np.empty((2,) + t.shape)
        with np.errstate(all="ignore"):  # a state the draft cannot bound takes p
            E, eps = raw.draft_halves(t, t_abs, q)
            S = 2.0 * E
            if not eps < np.inf:
                return q / S, (np.inf, np.inf)
            eta_A = A.rounding(t_abs + 1.0)
            eta_H = 0.0 if h is None else h.rounding(t_abs + 1.0)
            eta = eta_A * (l_H + eta_H) + l_A * eta_H + 2.0**-53 * (l_A + eta_A) * (l_H + eta_H)
            e_R = eps + conv + eta
            W = e_R + (l_A * l_H if np.ndim(E) == 0 else np.abs(q).max(axis=0))
            q /= S
            e_S = 2.0 * e_R + 2.0**-50 * W
            L = S - e_S
            big = W / L
            tol = np.where(L > 0, (e_R + big * e_S) / L + 2.0**-50 * big, np.inf)
            return q, (tol, np.where(L > 0, 2.0**-48 * big, np.inf))

    return draft


def finite_system(grid: Grid, states, P) -> BranchSystem:
    """The chain on ``states`` with transition matrix P as an IFS: branch j
    maps every point to states[j], and the weights p(x) are the row of P of
    the state nearest x.  A P that is not square over the states, has a
    negative entry or a row not summing to 1 is refused."""
    s, P = np.asarray(states, dtype=float), np.asarray(P, dtype=float)
    if P.shape != (s.size, s.size):
        raise ValueError("transition matrix must be square over the states")
    if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("rows must be probability distributions")
    order = np.argsort(s)
    mids = 0.5 * (s[order][1:] + s[order][:-1])  # the edges between nearest states
    return BranchSystem(
        grid=grid,
        branches=[lambda x, state=state: np.full(np.shape(x), state) for state in s],
        weights=lambda x: P[order[np.searchsorted(mids, x)]].T,
        name=f"finite-{s.size}",
    )
