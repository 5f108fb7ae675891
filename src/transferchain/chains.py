"""Markov chains synthesized from transfer operators, and the statistical
checks of their defining identities: the Markov property, the nested moment
formula, quasi-invariance of the path measure, and martingales from
harmonic functions.

Samplers are vectorized over a batch of paths.  All randomness for an
ensemble comes from one PCG64 stream seeded by the sampler's seed, laid out
as if drawn in turn: the initial uniforms first, then one block of uniforms
per step, so a truncated simulation with the same number of paths is a
bit-exact prefix of a longer one.  An ensemble is stored step-major, and
its paths are moved in fixed blocks of ``_BLOCK`` paths, on as many threads
as the caller asks for (at most the CPU count).  Each block draws its own
slices of the stream, by jumping its own copy of the generator to each
slice's offset, and every kernel acts path by path, so the bits depend on
neither the block nor the thread count.  The ensemble's reductions run on
the same threads and are exact in any order.  The estimators stream over
the same blocks on the caller's thread, adding into their bins in block
order, so each holds the paths and a few block-sized arrays at a time.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .grids import (_BLOCK, DiscreteMeasure, Grid, GridFunction, _blocks, histogram,
                    stream_rng)

__all__ = [
    "MarkovSampler",
    "PathEnsemble",
    "ConditionalEstimate",
    "step_batch",
    "simulate_paths",
    "chain_apply",
    "estimate_conditional",
    "pooled_transitions",
    "markov_property_check",
    "conditional_expectation_check",
    "nested_operator_expectation",
    "path_moment_mc",
    "quasi_invariance_check",
    "martingale_check",
    "estimate_transition_matrix",
    "perron_harmonic_residual",
]


@dataclass(frozen=True)
class MarkovSampler:
    """One-step sampler of the chain generated by a transfer operator.

    The system decides how the chain moves: it carries the ``kind`` label
    ("branch", "controlled" or "gauss-backward"), the number of
    uniform ``channels`` one move consumes, and the ``step`` and
    ``chain_apply`` kernels.  ``initial_ppf`` maps uniforms to initial
    states (exact inverse CDF).
    """

    system: object
    initial_ppf: Callable
    master_seed: int = 9001
    # diagnostic fixture: drive step n with step n-1's noise.  Note this
    # only breaks the Markov property visibly for controlled moves; branch
    # moves are backward-deterministic (the previous state is sigma of the
    # current one), so no reuse is detectable through state conditioning.
    reuse_driver_noise: bool = False

    def __post_init__(self):
        if not hasattr(type(self.system), "kind"):
            raise TypeError(f"{type(self.system).__name__} does not generate a Markov chain")

    @property
    def kind(self) -> str:
        return self.system.kind

    @property
    def channels(self) -> int:
        return self.system.channels

    @property
    def grid(self) -> Optional[Grid]:
        return getattr(self.system, "grid", None)

    def sigma(self, x):
        """The endomorphism undone by one chain move (where defined)."""
        back = getattr(self.system, "sigma", None)
        if back is None:
            raise ValueError(f"{self.kind} sampler has no endomorphism")
        g = self.grid
        return back(x) if g is None else g.wrap(back(x))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def step_batch(s: MarkovSampler, x: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Advance a batch of states one move; uniforms has shape (channels, len(x))."""
    return s.system.step(np.asarray(x, dtype=float), uniforms)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _map_blocks(fn, tasks, workers: int) -> list:
    """[fn(t) for t in tasks], on up to ``workers`` threads (none but the
    caller's for one): results, and so the first error, in task order."""
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here, so that commands which sample nothing do not load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, tasks))


def _stream_reader(stream) -> Callable:
    """A function draw(starts, out) that fills ``out`` row by row, row r
    with the draws from ``starts[r]`` on of the bit generator ``stream``,
    which is left as it is: one copy of it is moved by ``advance`` (modulo
    2^128, so back too) from where its last row ended.  ``Generator.random``
    takes one 64-bit output per double, so these are the bits of drawing the
    whole stream in turn."""
    bits = copy.copy(stream)
    gen, at = np.random.Generator(bits), 0

    def draw(starts, out: np.ndarray) -> np.ndarray:
        nonlocal at
        for row, start in zip(out, starts):
            bits.advance(start - at)
            gen.random(out=row)
            at = start + row.size
        return out

    return draw


@dataclass(frozen=True)
class PathEnsemble:
    """A batch of sampled trajectories, stored step-major: paths[k, p] = T_k
    on path p, so T_k over the ensemble is the contiguous row paths[k].
    Its reductions run on ``workers`` threads, the count that sampled it."""

    paths: np.ndarray
    sampler: MarkovSampler
    workers: int = 1

    def __post_init__(self):
        p = np.ascontiguousarray(self.paths, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "paths", p)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[1]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[0] - 1

    def solenoid_violation(self) -> float:
        """Max |sigma(T_{k+1}) - T_k| over all stored transitions, one task
        per step and block of paths."""
        g, sigma = self.sampler.grid, self.sampler.sigma
        circle = g is not None and g.domain_kind == "circle"

        def gap(task):
            k, b = task
            d = np.subtract(sigma(self.paths[k + 1, b]), self.paths[k, b])
            np.abs(d, out=d)
            if circle:
                np.minimum(d, g.width - d, out=d)  # g.distance, in place
            return d.max()

        tasks = [(k, b) for k in range(self.n_steps) for b in _blocks(self.n_paths)]
        return float(np.max(_map_blocks(gap, tasks, self.workers), initial=0.0))

    def extent(self) -> tuple:
        """(min, max) over all stored states, one task per row."""
        lows, highs = zip(*_map_blocks(lambda row: (row.min(), row.max()),
                                       self.paths, self.workers))
        return float(np.min(lows)), float(np.max(highs))

    def marginals(self, grid: Grid) -> list:
        """``histogram`` of each T_k on ``grid``, k = 0 .. n_steps."""
        return _map_blocks(lambda row: histogram(row, grid), self.paths, self.workers)


def simulate_paths(s: MarkovSampler, n_paths: int, n_steps: int,
                   threads: int = 1) -> PathEnsemble:
    """Independent paths with initial states drawn i.i.d. from the initial law.

    The uniforms are laid out in one PCG64 stream seeded by the sampler
    seed as if drawn in turn: the initial uniforms at offset p for path p,
    then channel c of step k at ``n_paths + (j * channels + c) * n_paths
    + p``, with j = k, or j = 0 at every step under ``reuse_driver_noise``.
    So a shorter simulation of the same seed and path count is a bit-exact
    prefix of a longer one.  Each block of ``_BLOCK`` paths draws its own
    slices of the stream and runs every move, on ``min(threads, cpu count)``
    threads, writing its slice of each row of the step-major ``paths``.
    The result does not depend on ``threads``, and neither does an error: a
    failing run raises the error of the first block to fail at the first
    failing step.
    """
    if n_paths < 1 or n_steps < 0:
        raise ValueError("need n_paths >= 1 and n_steps >= 0")
    if threads < 1:
        raise ValueError("need threads >= 1")
    blocks = _blocks(n_paths)
    workers = min(threads, os.cpu_count() or 1, len(blocks))
    stream = stream_rng(s.master_seed, 0).bit_generator
    channels = s.channels
    paths = np.empty((n_steps + 1, n_paths))

    def run(b):
        """Block b through every move: None, or (step, error) of its first
        failure, the initial law being step -1."""
        k, u = -1, np.empty((channels, b.stop - b.start))  # one buffer for every move
        draw = _stream_reader(stream)
        try:
            paths[0, b] = s.initial_ppf(draw([b.start], u[:1])[0])
            for k in range(n_steps):
                j = 0 if s.reuse_driver_noise else k
                first = n_paths + j * channels * n_paths + b.start
                draw([first + c * n_paths for c in range(channels)], u)
                paths[k + 1, b] = step_batch(s, paths[k, b], u)
        except Exception as err:
            return k, err
        return None

    failures = [f for f in _map_blocks(run, blocks, workers) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]  # the first block among the first step's
    return PathEnsemble(paths=paths, sampler=s, workers=workers)


def chain_apply(s: MarkovSampler, f: GridFunction) -> GridFunction:
    """The chain's realized one-step operator: x -> E[f(next) | x] on the grid."""
    return s.system.chain_apply(f)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

# observations a bin (or a pair of bins) needs before the binned estimators
# score it
_MIN_COUNT = 100


@dataclass(frozen=True)
class ConditionalEstimate:
    """Binned estimate of E[f(T_{m+1}) | T_m in bin]; empty bins are absent
    (NaN values), never reported as zero."""

    grid: Grid
    values: np.ndarray
    counts: np.ndarray
    std_errors: np.ndarray

    @property
    def occupied(self) -> np.ndarray:
        return self.counts >= _MIN_COUNT


def _bin_sums(n_bins: int, blocks, squares: bool = True) -> tuple:
    """Per bin, the count, the sum and (if ``squares``) the sum of squares of
    the values of ``blocks``, an iterable of (bin indices, values) pairs.
    ``np.add.at`` adds the values one by one in block order, the additions
    of one ``np.bincount(weights=...)`` over the whole sample, so the sums
    are its bits; summing per-block ``bincount``s would round differently."""
    counts = np.zeros(n_bins, dtype=np.intp)
    sums = np.zeros(n_bins)
    sq = np.zeros(n_bins) if squares else None
    for idx, y in blocks:
        counts += np.bincount(idx, minlength=n_bins)
        np.add.at(sums, idx, y)
        if squares:
            np.add.at(sq, idx, y * y)
    return counts, sums, sq


def _grid_sums(grid: Grid, x: np.ndarray, y: Callable) -> tuple:
    """``_bin_sums`` of the observations ``y(b)`` in the cells of ``grid``
    holding the points ``x[b]``, over the ``_BLOCK``-point slices b of x."""
    return _bin_sums(grid.n, ((grid.cell_index(x[b]), y(b)) for b in _blocks(x.size)))


def _max_z(counts, sums, sq, floor: float) -> float:
    """Max over bins of at least ``_MIN_COUNT`` values of |mean| / its
    standard error, from the bins' counts, sums and sums of squares; the
    variance is floored at 1e-300 and the standard error at ``floor``."""
    live = counts >= _MIN_COUNT
    if not np.any(live):
        return 0.0
    mean = sums[live] / counts[live]
    var = np.maximum(sq[live] / counts[live] - mean**2, 1e-300)
    return float(np.max(np.abs(mean) / np.maximum(np.sqrt(var / counts[live]), floor)))


def estimate_conditional(pe: PathEnsemble, f, from_step: int, bins: Grid) -> ConditionalEstimate:
    """Binned mean of f(T_{from_step+1}) given T_{from_step}."""
    if from_step >= pe.n_steps:
        raise ValueError("from_step must leave at least one transition")
    x, nxt = pe.paths[from_step], pe.paths[from_step + 1]
    counts, sums, sq = _grid_sums(bins, x, lambda b: f(nxt[b]))
    values = np.full(bins.n, np.nan)
    ses = np.full(bins.n, np.nan)
    nz = counts > 0
    values[nz] = sums[nz] / counts[nz]
    var = np.zeros(bins.n)
    var[nz] = np.maximum(sq[nz] / counts[nz] - values[nz] ** 2, 0.0)
    pos = counts > 1
    ses[pos] = np.sqrt(var[pos] / counts[pos])
    return ConditionalEstimate(grid=bins, values=values, counts=counts, std_errors=ses)


def pooled_transitions(pe: PathEnsemble, lag: int = 1):
    """All (T_n, T_{n+lag}) pairs of the ensemble, flattened step by step:
    views of the step-major ``paths``, no copies."""
    if lag < 1 or lag > pe.n_steps:
        raise ValueError("lag must lie in [1, n_steps]")
    return pe.paths[:-lag].ravel(), pe.paths[lag:].ravel()


def markov_property_check(pe: PathEnsemble, f, n: int, bins: Grid) -> float:
    """Max standardized dependence of f(T_{n+1}) on the previous coordinate
    once the current one is accounted for.

    A fine-binned estimate of E[f(T_{n+1}) | T_n], on 128 times as many bins
    (at most 8192), is subtracted from each observation; for a Markov chain
    the residual has mean zero in every
    (T_{n-1} bin, T_n bin) cell up to fine-bin discretization, while any
    carried-over driving noise leaves a mean shift with a large z-score.
    Comparing raw binned means instead would confound the check: the pair
    conditioning narrows where T_n sits inside its bin.
    """
    if n < 1 or n + 1 > pe.n_steps:
        raise ValueError("need 1 <= n and n+1 <= n_steps")
    prev, x, nxt = pe.paths[n - 1], pe.paths[n], pe.paths[n + 1]
    blocks = _blocks(pe.n_paths)

    fine = Grid(bins.lower, bins.upper, min(bins.n * 128, 8192), bins.domain_kind)
    fine_counts, fine_sums, _ = _bin_sums(
        fine.n, ((fine.cell_index(x[b]), f(nxt[b])) for b in blocks), squares=False)
    baseline = np.where(fine_counts > 0, fine_sums / np.maximum(fine_counts, 1), 0.0)

    def residuals(b):
        pair = bins.cell_index(prev[b]) * bins.n + bins.cell_index(x[b])
        return pair, f(nxt[b]) - baseline[fine.cell_index(x[b])]

    return _max_z(*_bin_sums(bins.n * bins.n, map(residuals, blocks)), floor=0.0)


def nested_operator_expectation(op, h: GridFunction, lam: DiscreteMeasure,
                                fs: Sequence[GridFunction]) -> float:
    """int f0 R(f1 R(f2 ... R(f_m h) ...)) dlambda by grid quadrature."""
    if not fs:
        raise ValueError("need at least one test function")
    if len(fs) > 7:
        raise ValueError("nested expectation supports at most 7 factors")
    g = fs[-1] * h
    for f in reversed(fs[:-1]):
        g = f * op.apply(g)
    return float(np.dot(g.values, lam.weights))


class MomentEstimate(NamedTuple):
    mean: float
    std_error: float


def path_moment_mc(pe: PathEnsemble, fs: Sequence) -> MomentEstimate:
    """Sample mean and standard error of prod_k f_k(T_k)."""
    if len(fs) > pe.n_steps + 1:
        raise ValueError("more factors than stored coordinates")
    prod = np.empty(pe.n_paths)
    for b in _blocks(pe.n_paths):
        p = np.ones(b.stop - b.start)
        for k, f in enumerate(fs):
            p = p * f(pe.paths[k, b])
        prod[b] = p
    mean = float(prod.mean())
    se = float(prod.std(ddof=1) / np.sqrt(pe.n_paths))
    return MomentEstimate(mean=mean, std_error=se)


# ---------------------------------------------------------------------------
# quasi-invariance
# ---------------------------------------------------------------------------

def quasi_invariance_check(pe: PathEnsemble, W: Callable, f: Callable, k: int) -> float:
    """z-score of the paired Monte Carlo check of E[psi] = E[(psi o
    sigma-hat) (W o pi_0)] for psi = f o pi_k, with any vectorized W, such
    as the ``GridFunction`` ``radon_nikodym`` returns or an exact weight
    function.  Coordinate k of sigma-hat(x0, x1, ..) = (sigma(x0), x0, ..)
    is sigma(x0) for k = 0 and x_{k-1} after; sigma-hat is defined only
    where the chain undoes an endomorphism, so a sampler with none is
    refused at every k.  The paired differences are made a ``_BLOCK`` of
    paths at a time."""
    if k > pe.n_steps:
        raise ValueError("functional needs more coordinates than stored")
    sigma = pe.sampler.sigma
    sigma(pe.paths[0, :0])  # raises for a sampler with no endomorphism
    d = np.empty(pe.n_paths)
    for b in _blocks(pe.n_paths):
        x0 = pe.paths[0, b]
        shifted = sigma(x0) if k == 0 else pe.paths[k - 1, b]
        d[b] = f(pe.paths[k, b]) - f(shifted) * W(x0)
    se = d.std(ddof=1) / np.sqrt(pe.n_paths)
    return float(abs(d.mean()) / se if se > 0 else 0.0)


# ---------------------------------------------------------------------------
# martingales
# ---------------------------------------------------------------------------

def _paired_bin_z(bins: Grid, x: np.ndarray, resid: Callable, scale: float = 1.0) -> float:
    """Max over occupied bins of |mean residual| / its standard error, with
    ``resid(b)`` the residuals at the points ``x[b]``.

    The denominator is floored at round-off relative to ``scale`` so that a
    residual which is identically zero up to float dust scores zero instead
    of dust-over-dust."""
    return _max_z(*_grid_sums(bins, x, resid), floor=1e-13 * max(scale, 1e-300))


def martingale_check(pe: PathEnsemble, h: GridFunction, k: int, bins: Grid,
                     eigenvalue: float = 1.0) -> float:
    """Max z-score of the binned martingale residual h(T_{n+k}) - lambda^k h(T_n).

    Requires h to satisfy R h = lambda h for the chain's realized operator to
    1e-6 on h's grid (error otherwise); transitions are pooled over n.  The
    target is evaluated at the sample points rather than the bin center, so
    the statistic carries no bin-discretization bias.
    """
    if k < 1 or k > pe.n_steps:
        raise ValueError("need 1 <= k <= n_steps")
    rh = chain_apply(pe.sampler, h)
    harm_resid = float(np.max(np.abs(rh.values - eigenvalue * h.values)))
    if harm_resid > 1e-6:
        raise ValueError(
            f"h is not harmonic for the chain operator (residual {harm_resid:.2e})"
        )
    x, y = pooled_transitions(pe, lag=k)
    lam = eigenvalue**k
    return _paired_bin_z(bins, x, lambda b: h(y[b]) - lam * h(x[b]),
                         scale=float(np.max(np.abs(h.values))))


def conditional_expectation_check(pe: PathEnsemble, f: GridFunction, k: int,
                                  bins: Grid) -> float:
    """Max z-score of the binned residual f(T_{n+k}) - (R^k f)(T_n), with R
    the chain's realized operator.  This is the k-step conditional
    expectation identity for arbitrary f, not only harmonic ones."""
    if k < 1 or k > pe.n_steps:
        raise ValueError("need 1 <= k <= n_steps")
    g = f
    for _ in range(k):
        g = chain_apply(pe.sampler, g)
    x, y = pooled_transitions(pe, lag=k)
    return _paired_bin_z(bins, x, lambda b: f(y[b]) - g.eval(x[b]),
                         scale=float(np.max(np.abs(f.values))))


# ---------------------------------------------------------------------------
# discrete chains
# ---------------------------------------------------------------------------

def _state_indices(x, states) -> np.ndarray:
    """Index of the state nearest each x; its caller passes at most a
    ``_BLOCK`` of points, so the distance table stays block-sized."""
    x = np.asarray(x, dtype=float).ravel()
    idx = np.argmin(np.abs(x[:, None] - states[None, :]), axis=1)
    if not np.max(np.abs(x - states[idx]), initial=0.0) <= 1e-9:  # a NaN fails
        raise ValueError("path value outside the declared finite state set")
    return idx


def estimate_transition_matrix(pe: PathEnsemble, states) -> np.ndarray:
    """Row-normalized empirical transition counts over a declared state
    set; the row of a state that is never left is zero."""
    states = np.asarray(states, dtype=float)
    m = states.size
    x, y = pooled_transitions(pe, lag=1)
    counts = sum(np.bincount(_state_indices(x[b], states) * m + _state_indices(y[b], states),
                             minlength=m * m) for b in _blocks(x.size))
    counts = counts.reshape(m, m).astype(float)
    row_tot = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, row_tot, out=np.zeros_like(counts), where=row_tot > 0)


def perron_harmonic_residual(P: np.ndarray) -> float:
    """Residual max|P h - h| for P's own right eigenvector at the eigenvalue
    nearest 1 (the discrete harmonic-function identity)."""
    vals, vecs = np.linalg.eig(P)
    i = int(np.argmin(np.abs(vals - 1.0)))
    h = np.real(vecs[:, i])
    scale = np.max(np.abs(h))
    if scale == 0:
        return 0.0
    h = h / scale
    return float(np.max(np.abs(P @ h - h)))
