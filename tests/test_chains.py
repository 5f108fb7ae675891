import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from transferchain.grids import (
    Grid,
    GridFunction,
    arcsine_measure,
    arcsine_ppf,
    gauss_measure,
    gauss_ppf,
    histogram,
    ks_distance,
    ks_two_sample,
    stream_rng,
    uniform_measure,
    uniform_ppf,
)
from transferchain.chains import (
    _BLOCK,
    MarkovSampler,
    chain_apply,
    conditional_expectation_check,
    estimate_conditional,
    estimate_transition_matrix,
    markov_property_check,
    martingale_check,
    nested_operator_expectation,
    path_moment_mc,
    perron_harmonic_residual,
    pooled_transitions,
    quasi_invariance_check,
    simulate_paths,
    step_batch,
)
from transferchain.operators import (
    BranchEscapeError,
    BranchSystem,
    GaussOperator,
    bernoulli_support,
    bernoulli_system,
    circle_filter_system,
    doubling_system,
    finite_system,
    gauss_operator,
    parametric_system,
    parametric_weight,
    radon_nikodym,
    random_control_system,
)
from transferchain.wavelets import haar_filter

G512 = Grid(0.0, 1.0, 512)


def deterministic_doubling(grid=G512):
    base = doubling_system(grid)
    return BranchSystem(grid=grid, sigma=base.sigma, branches=list(base.branches),
                        weights=lambda x: np.array([[1.0], [0.0]]),
                        name="doubling-left-only")


# ---------------------------------------------------------------------------
# kernel contract: the system decides how the chain moves
# ---------------------------------------------------------------------------

TWO_STATE_P = np.array([[0.9, 0.1], [0.5, 0.5]])
TWO_STATE = finite_system(G512, [0.0, 1.0], TWO_STATE_P)


def finite_sampler(states, P, p0, master_seed):
    """The chain of ``finite_system`` on a grid spanning the states, with
    T_0 drawn from the law p0 on them."""
    states = np.asarray(states, dtype=float)
    system = finite_system(Grid(states.min(), states.max(), 64), states, P)
    def ppf(u):
        return states[np.minimum(np.searchsorted(np.cumsum(p0), u), states.size - 1)]

    return MarkovSampler(system, ppf, master_seed)


@pytest.mark.parametrize("system, kind, channels", [
    (doubling_system(G512), "branch", 1),
    (random_control_system(G512), "controlled", 2),
    (gauss_operator(K=100), "gauss-backward", 1),
    (TWO_STATE, "branch", 1),
])
def test_sampler_kind_and_channels_come_from_the_system(system, kind, channels):
    s = MarkovSampler(system, uniform_ppf)
    assert (s.kind, s.channels) == (kind, channels)
    with pytest.raises(AttributeError):
        s.kind = "branch"


def test_operator_without_a_chain_is_no_sampler():
    with pytest.raises(TypeError, match="WaveletFilter does not generate a Markov chain"):
        MarkovSampler(haar_filter(), uniform_ppf)


def test_gauss_chain_apply_matches_chunked_branch_loop():
    op = gauss_operator(K=10_000)
    f = GridFunction.from_callable(Grid(0.0, 1.0, 256), lambda x: np.cos(3 * x) + x**2)
    # the loop chain_apply once ran; the library sums the branches from
    # operators._RUNS_FROM on by runs in closed form, so the match is to
    # round-off.
    # Branch K carries P(N >= K | x) = (1+x)/(K+x), so the kernel sums to 1
    x = f.grid.nodes
    K = op.truncation_K
    expected = np.zeros(f.grid.n)
    for start in range(1, K + 1, 4096):
        ns = np.arange(start, min(start + 4096, K + 1), dtype=float)[:, None]
        w = np.where(ns == K, (1.0 + x) / (K + x), (1.0 + x) / ((ns + x) * (ns + x + 1.0)))
        expected += np.sum(w * f.eval((1.0 / (ns + x[None, :])).ravel()).reshape(w.shape),
                           axis=0)
    s = MarkovSampler(op, gauss_ppf)
    got = chain_apply(s, f).values
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_gauss_step_digit_law():
    # the digit is n < K where P(N <= n | x) = 1 - (1+x)/(n+1+x) first
    # reaches the uniform, and K past the last boundary: it steps from n to
    # n + 1 at each closed-form boundary (either digit exactly there, which
    # round-off decides)
    K, x = 6, 0.37
    op = gauss_operator(K=K)
    n = np.arange(1, K, dtype=float)
    bounds = 1.0 - (1.0 + x) / (n + 1.0 + x)

    def digits(u):
        u = np.asarray(u, dtype=float)
        return np.rint(1.0 / op.step(np.full(u.size, x), u[None, :]) - x)

    assert np.array_equal(digits(bounds - 1e-9), n)
    assert np.all((digits(bounds) == n) | (digits(bounds) == n + 1))
    assert np.array_equal(digits(bounds + 1e-9), n + 1)
    assert np.array_equal(digits([0.0, 0.999, np.nextafter(1.0, 0.0)]), [1, K, K])


def test_degenerate_weights_always_first_branch():
    s = MarkovSampler(deterministic_doubling(), uniform_ppf, master_seed=1)
    rng = stream_rng(1, 5)
    for x in (0.1, 0.5, 0.93):
        assert step_batch(s, np.array([x]), rng.random((s.channels, 1)))[0] == x / 2.0


def test_doubling_states_stay_dyadic_and_branch_frequency():
    s = MarkovSampler(doubling_system(G512), lambda u: np.zeros(np.shape(u)),
                      master_seed=2)
    pe = simulate_paths(s, 100_000, 4)
    for k in range(5):
        scaled = pe.paths[k] * 2.0**k
        assert np.array_equal(scaled, np.round(scaled))
    # each move is (x + b)/2 with a fair bit
    bits = (pe.paths[1:] >= 0.5).mean()
    assert abs(bits - 0.5) <= 0.005


def test_branch_frequency_binomial_from_fixed_state():
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=3)
    u = stream_rng(3, 9).random((1, 100_000))
    ys = step_batch(s, np.full(100_000, 0.3), u)
    freq = np.mean(ys < 0.5)
    assert abs(freq - 0.5) <= 0.005  # ~4 sigma of a fair coin at 1e5


def test_random_control_one_step_kernel(random_control_cdf):
    g = G512
    rc = random_control_system(g)
    s = MarkovSampler(rc, arcsine_ppf, master_seed=4)
    u = stream_rng(4, 2).random((2, 100_000))
    x0 = 0.37
    y = step_batch(s, np.full(100_000, x0), u)
    # the one-step law from x is an even mixture of U(0,x) and U(x,1)
    for t in (0.1, 0.37, 0.8):
        emp = np.mean(y <= t)
        assert abs(emp - random_control_cdf(x0, t)) <= 0.006


def test_step_rejects_unnormalized_weights():
    g = Grid(0.0, 1.0, 32)
    bad = BranchSystem(grid=g, sigma=lambda x: 2 * np.mod(x, 0.5),
                       branches=[lambda x: x / 2.0, lambda x: x / 2.0 + 0.5],
                       weights=lambda x: 0.3,
                       normalized=False)
    s = MarkovSampler(bad, uniform_ppf, master_seed=5)
    with pytest.raises(ValueError, match="sum to 1"):
        step_batch(s, np.array([0.25]), stream_rng(5, 0).random((s.channels, 1)))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_simulation_reproducible_and_prefix_consistent():
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=6)
    a = simulate_paths(s, 50_000, 6)
    b = simulate_paths(s, 50_000, 6)
    c = simulate_paths(s, 50_000, 3)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.paths[:4], c.paths)
    assert a.sampler.master_seed == 6


def test_zero_steps_samples_initial_law():
    s = MarkovSampler(random_control_system(G512), arcsine_ppf, master_seed=7)
    pe = simulate_paths(s, 100_000, 0)
    ks = ks_distance(pe.paths[0], arcsine_measure(Grid(0, 1, 2048)))
    assert ks <= 0.01


def test_solenoid_constraint_along_paths():
    for s in (MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=8),
              MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=9)):
        pe = simulate_paths(s, 20_000, 8)
        assert pe.solenoid_violation() <= 1e-10


def test_stationary_marginals():
    s = MarkovSampler(random_control_system(G512), arcsine_ppf, master_seed=10)
    pe = simulate_paths(s, 100_000, 25)
    ref = arcsine_measure(Grid(0, 1, 2048))
    for k in (1, 5, 25):
        assert ks_distance(pe.paths[k], ref) <= 0.02


def test_gauss_backward_stationary():
    s = MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=11)
    pe = simulate_paths(s, 100_000, 10)
    ks = ks_distance(pe.paths[10], gauss_measure(Grid(0, 1, 2048)))
    assert ks <= 0.02


def test_estimators_read_strided_path_columns():
    s = MarkovSampler(random_control_system(G512), arcsine_ppf, master_seed=10)
    pe = simulate_paths(s, 10_000, 3)
    ref = arcsine_measure(Grid(0, 1, 2048))
    path_major = pe.paths.T.copy()
    for k in range(4):
        col = path_major[:, k]
        assert not col.flags.c_contiguous
        dense = np.ascontiguousarray(col)
        assert np.array_equal(histogram(col, G512).weights, histogram(dense, G512).weights)
        assert ks_distance(col, ref) == ks_distance(dense, ref)


def test_overlapping_bernoulli_chain_variance():
    # for a > 1/2 the branch images overlap and no sigma exists; from 0 the
    # chain after k steps is sum_{j<=k} +-a^j, of variance sum_j a^(2j)
    a, k, n = 0.6, 40, 200_000
    s = bernoulli_support(a)
    sampler = MarkovSampler(bernoulli_system(Grid(-s, s, 1024), a),
                            lambda u: np.zeros(np.shape(u)), master_seed=3)
    x = simulate_paths(sampler, n, k).paths[k]
    var = np.sum(a ** (2.0 * np.arange(1, k + 1)))
    se_var = np.sqrt((np.mean((x - x.mean()) ** 4) - x.var() ** 2) / n)
    assert abs(x.var() - var) / se_var <= 4.0
    assert abs(x.mean()) / np.sqrt(var / n) <= 4.0
    with pytest.raises(ValueError, match="no endomorphism"):
        sampler.sigma(x)


# ---------------------------------------------------------------------------
# blocked, threaded sampling against the one-pass loop
# ---------------------------------------------------------------------------

def one_pass_paths(s, n_paths, n_steps):
    """The one-pass sampler: every move drawn and applied over the whole
    ensemble, stored path-major; returned step-major for comparison."""
    rng = stream_rng(s.master_seed, 0)
    u0 = rng.random(n_paths)
    paths = np.empty((n_paths, n_steps + 1))
    paths[:, 0] = s.initial_ppf(u0)
    prev_u = None
    for k in range(n_steps):
        u = rng.random((s.channels, n_paths))
        if s.reuse_driver_noise and prev_u is not None:
            u = prev_u
        paths[:, k + 1] = step_batch(s, paths[:, k], u)
        prev_u = u
    return np.ascontiguousarray(paths.T)


GC64 = Grid(0.0, 1.0, 64, "circle")
SAMPLER_CASES = {
    "branch": lambda: MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=60),
    "controlled": lambda: MarkovSampler(random_control_system(G512), arcsine_ppf,
                                        master_seed=61),
    "gauss-backward": lambda: MarkovSampler(gauss_operator(K=10_000), gauss_ppf,
                                            master_seed=62),
    "finite": lambda: finite_sampler([0.0, 1.0], TWO_STATE_P, [0.5, 0.5], 63),
    "circle-filter": lambda: MarkovSampler(circle_filter_system(GC64, haar_filter()),
                                           uniform_ppf, master_seed=64),
    "reused-noise": lambda: MarkovSampler(random_control_system(G512), arcsine_ppf, 65,
                                          reuse_driver_noise=True),
}
PATH_COUNTS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


@pytest.mark.parametrize("n_paths", PATH_COUNTS)
@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_blocked_sampler_matches_one_pass_loop_bitwise(case, n_paths):
    s = SAMPLER_CASES[case]()
    want = one_pass_paths(s, n_paths, 3)
    bins = Grid(want.min() - 1e-9, want.max() + 1e-9, 128)
    want_marginals = [np.bincount(bins.cell_index(row), minlength=bins.n) / n_paths
                      for row in want]
    want_extent = (float(want.min()), float(want.max()))
    if getattr(s.system, "sigma", None) is not None:
        back, prev, g = s.sigma(want[1:]), want[:-1], s.grid
        want_violation = np.max(np.abs(back - prev) if g is None else g.distance(back, prev))
    for threads in (1, 2, 3):
        before = threading.active_count()
        pe = simulate_paths(s, n_paths, 3, threads)
        assert pe.paths.shape == (4, n_paths)
        assert pe.paths.tobytes() == want.tobytes(), (case, n_paths, threads)
        assert [mu.weights.tobytes() for mu in pe.marginals(bins)] == \
            [w.tobytes() for w in want_marginals]
        assert pe.extent() == want_extent
        if getattr(s.system, "sigma", None) is not None:
            assert pe.solenoid_violation() == want_violation
        assert threading.active_count() == before


def test_sampling_memory_is_the_paths_and_bounded_blocks():
    # the uniforms are drawn block by block on the workers, not as a whole
    # (channels, n_paths) array per step
    s = MarkovSampler(random_control_system(G512), arcsine_ppf, master_seed=72,
                      reuse_driver_noise=True)
    n_paths = 16 * _BLOCK
    tracemalloc.start()
    try:
        pe = simulate_paths(s, n_paths, 3, threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.channels == 2 and pe.paths.nbytes == 4 * n_paths * 8
    assert peak <= pe.paths.nbytes + 16 * 2**20


def recording(system, threads_seen):
    """``system`` with a step that records the thread it runs on."""
    class Recording:
        kind, channels = system.kind, system.channels

        def step(self, x, uniforms):
            threads_seen.add(threading.get_ident())
            return system.step(x, uniforms)

    return Recording()


@pytest.mark.parametrize("n_paths", [1, _BLOCK])
def test_no_worker_thread_for_a_single_block(n_paths):
    seen = set()
    s = MarkovSampler(recording(doubling_system(G512), seen), uniform_ppf, master_seed=66)
    simulate_paths(s, n_paths, 2, threads=3)
    assert seen == {threading.get_ident()}


def test_workers_run_blocks_and_end_with_the_call():
    seen = set()
    s = MarkovSampler(recording(doubling_system(G512), seen), uniform_ppf, master_seed=67)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        pe = simulate_paths(s, 8 * _BLOCK + 1, 2, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    if (os.cpu_count() or 1) == 1:
        assert seen == {threading.get_ident()}
    else:
        assert threading.get_ident() not in seen and 1 <= len(seen) <= 3
    assert pe.paths.tobytes() == one_pass_paths(s, 8 * _BLOCK + 1, 2).tobytes()


ESCAPING = BranchSystem(grid=G512, sigma=lambda x: x - 0.5, branches=[lambda x: x + 0.5],
                        weights=lambda x: 1.0, normalized=False, name="escaping")
UNDER_WEIGHTED = BranchSystem(grid=G512, branches=list(doubling_system(G512).branches),
                              weights=lambda x: 0.45, normalized=False, name="under")
ERROR_SEED, ERROR_PATHS = 68, 3 * _BLOCK + 5
# the initial states of the first block of paths, all below FIRST_BLOCK_TOP;
# from those above it, the one branch escapes
FIRST_BLOCK_TOP = uniform_ppf(stream_rng(ERROR_SEED, 0).random(_BLOCK)).max()
LATE_ESCAPING = BranchSystem(
    grid=G512, branches=[lambda x: np.where(x > FIRST_BLOCK_TOP, x + 1.0, 0.5 * x)],
    weights=lambda x: 1.0, name="late-escaping")


@pytest.mark.parametrize("system, error", [
    (ESCAPING, BranchEscapeError),
    (UNDER_WEIGHTED, ValueError),  # "branch weights ... do not sum to 1"
    (LATE_ESCAPING, BranchEscapeError),
])
def test_step_errors_are_the_same_at_any_thread_count(system, error):
    s = MarkovSampler(system, uniform_ppf, master_seed=ERROR_SEED)
    n_paths = ERROR_PATHS
    with pytest.raises(error) as ref:
        one_pass_paths(s, n_paths, 3)
    if system is LATE_ESCAPING:  # some path past the first block escapes
        later = uniform_ppf(stream_rng(ERROR_SEED, 0).random(n_paths)[_BLOCK:])
        assert later.max() > FIRST_BLOCK_TOP
    # ESCAPING fails in every block and LATE_ESCAPING first in block 1; the
    # first failing block's error names the one-pass loop's state
    for threads in (1, 2, 3):
        before = threading.active_count()
        with pytest.raises(error) as got:
            simulate_paths(s, n_paths, 3, threads)
        assert threading.active_count() == before
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("system, ppf", [
    (doubling_system(G512), uniform_ppf),
    (circle_filter_system(GC64, haar_filter()), uniform_ppf),
])
def test_reductions_allocate_less_than_two_rows(system, ppf):
    pe = simulate_paths(MarkovSampler(system, ppf, master_seed=69), 1 << 18, 8)
    row_bytes = pe.paths[0].nbytes
    for reduce in (lambda: pe.solenoid_violation(),
                   lambda: pooled_transitions(pe, 1),
                   lambda: pooled_transitions(pe, 8)):
        tracemalloc.start()
        try:
            reduce()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * row_bytes


@pytest.mark.parametrize("system", [doubling_system(G512), gauss_operator(1000),
                                    circle_filter_system(GC64, haar_filter())],
                         ids=["interval", "no grid", "circle"])
def test_solenoid_gap_memory_is_a_few_blocks(system):
    # 10^6 paths: each gap is formed in place, a block at a time
    pe = simulate_paths(MarkovSampler(system, uniform_ppf, master_seed=87), 10**6, 2)
    tracemalloc.start()
    try:
        pe.solenoid_violation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * _BLOCK * 8 < pe.paths[0].nbytes


def test_estimators_hold_the_paths_and_bounded_blocks():
    # the binned estimators stream over path blocks: no residual, index or
    # pooled-value array as long as a row, let alone the pooled rows
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=73)
    b1 = GridFunction.from_callable(G512, lambda x: x - 0.5)
    tracemalloc.start()
    try:
        pe = simulate_paths(s, 16 * _BLOCK, 3)
        for check in (lambda: markov_property_check(pe, lambda x: x, 2, Grid(0.0, 1.0, 8)),
                      lambda: martingale_check(pe, b1, 1, Grid(0.0, 1.0, 16), eigenvalue=0.5)):
            tracemalloc.reset_peak()
            check()
            _, peak = tracemalloc.get_traced_memory()
            assert peak <= pe.paths.nbytes + 16 * _BLOCK * 8
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# conditional expectation estimates
# ---------------------------------------------------------------------------

def test_estimate_conditional_deterministic():
    s = MarkovSampler(deterministic_doubling(), uniform_ppf, master_seed=12)
    pe = simulate_paths(s, 100_000, 1)
    bins = Grid(0.0, 1.0, 16)
    est = estimate_conditional(pe, lambda x: x, 0, bins)
    occ = est.occupied
    # E[T1 | T0 in bin] = E[T0 | bin] / 2, within half a bin width of the center
    assert np.nanmax(np.abs(est.values[occ] - bins.nodes[occ] / 2.0)) <= bins.dx / 2
    assert np.all(np.isnan(est.values[~(est.counts > 0)]))


def test_estimate_conditional_matches_closed_forms():
    bins = Grid(0.0, 1.0, 32)
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=13)
    pe = simulate_paths(s, 1_000_000, 1)
    est = estimate_conditional(pe, lambda x: x, 0, bins)
    live = est.occupied & (est.std_errors > 0)
    z = np.abs(est.values[live] - (bins.nodes[live] / 2 + 0.25)) / est.std_errors[live]
    assert np.max(z) <= 4.0

    s2 = MarkovSampler(random_control_system(G512), arcsine_ppf, master_seed=14)
    pe2 = simulate_paths(s2, 1_000_000, 1)
    est2 = estimate_conditional(pe2, lambda x: x, 0, bins)
    live2 = est2.occupied & (est2.std_errors > 0)
    z2 = np.abs(est2.values[live2] - (1 + 2 * bins.nodes[live2]) / 4) / est2.std_errors[live2]
    assert np.max(z2) <= 4.0


def test_conditional_expectation_identity_many_functions():
    bins = Grid(0.0, 1.0, 16)
    fns = [lambda x: np.ones(np.shape(x)), lambda x: x, lambda x: x**2,
           lambda x: np.cos(2 * np.pi * x)]
    samplers = [
        MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=15),
        MarkovSampler(random_control_system(G512), arcsine_ppf, master_seed=16),
        MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=17),
    ]
    for s in samplers:
        pe = simulate_paths(s, 1_000_000, 1)
        for fn in fns:
            f = GridFunction.from_callable(G512, fn)
            assert conditional_expectation_check(pe, f, 1, bins) <= 5.0


# ---------------------------------------------------------------------------
# Markov property
# ---------------------------------------------------------------------------

def test_markov_property_honest_chains():
    bins = Grid(0.0, 1.0, 8)
    for s in (MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=18),
              MarkovSampler(random_control_system(G512), arcsine_ppf, master_seed=19),
              MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=20)):
        pe = simulate_paths(s, 1_000_000, 3)
        assert markov_property_check(pe, lambda x: x, 2, bins) <= 5.0


def test_markov_property_violated_by_noise_reuse():
    s = MarkovSampler(random_control_system(G512), arcsine_ppf, 21, reuse_driver_noise=True)
    pe = simulate_paths(s, 1_000_000, 3)
    assert markov_property_check(pe, lambda x: x, 2, Grid(0.0, 1.0, 8)) >= 8.0


def test_markov_property_deterministic_zero():
    s = MarkovSampler(deterministic_doubling(), uniform_ppf, master_seed=22)
    pe = simulate_paths(s, 200_000, 3)
    assert markov_property_check(pe, lambda x: x, 2, Grid(0.0, 1.0, 8)) <= 1e-6


# ---------------------------------------------------------------------------
# Kolmogorov moment formula
# ---------------------------------------------------------------------------

def test_nested_expectation_base_case():
    g = Grid(0.0, 1.0, 1024)
    h = GridFunction(g, gauss_measure(g).density)
    val = nested_operator_expectation(gauss_operator(K=100), h, uniform_measure(g),
                                      [GridFunction.constant(g, 1.0)])
    assert val == pytest.approx(1.0, abs=1e-6)


def test_nested_expectation_doubling_polynomial():
    g = Grid(0.0, 1.0, 32768)
    ident = GridFunction.from_callable(g, lambda x: x)
    val = nested_operator_expectation(doubling_system(g), GridFunction.constant(g, 1.0),
                                      uniform_measure(g), [ident, ident])
    assert abs(val - 7.0 / 24.0) <= 1e-9


def test_path_moments_match_nested():
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=23)
    pe = simulate_paths(s, 1_000_000, 2)
    mom = path_moment_mc(pe, [lambda x: x, lambda x: x])
    assert abs(mom.mean - 7.0 / 24.0) <= 4 * mom.std_error

    g = Grid(0.0, 1.0, 8192)
    rc = random_control_system(g)
    s2 = MarkovSampler(rc, arcsine_ppf, master_seed=24)
    pe2 = simulate_paths(s2, 1_000_000, 2)
    ident = GridFunction.from_callable(g, lambda x: x)
    nested = nested_operator_expectation(rc, GridFunction.constant(g, 1.0),
                                         arcsine_measure(g), [ident, ident])
    mom2 = path_moment_mc(pe2, [lambda x: x, lambda x: x])
    assert abs(mom2.mean - nested) <= 4 * mom2.std_error


def test_path_moment_trivial_cases():
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=25)
    pe = simulate_paths(s, 100_000, 2)
    ones = path_moment_mc(pe, [lambda x: np.ones(np.shape(x))] * 3)
    assert ones.mean == 1.0
    assert ones.std_error == 0.0
    first = path_moment_mc(pe, [lambda x: x])
    assert abs(first.mean - 0.5) <= 4 * first.std_error


# ---------------------------------------------------------------------------
# quasi-invariance and martingales
# ---------------------------------------------------------------------------

def test_quasi_invariance_measure_preserving():
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=26)
    pe = simulate_paths(s, 1_000_000, 2)
    assert quasi_invariance_check(pe, lambda x: 1.0, lambda x: np.cos(2 * np.pi * x), 1) <= 4.0


@pytest.mark.parametrize("u", [0.3, 0.5, 0.7])
def test_quasi_invariance_parametric(u):
    s = MarkovSampler(parametric_system(G512, u), uniform_ppf, master_seed=27)
    pe = simulate_paths(s, 1_000_000, 2)
    assert quasi_invariance_check(pe, parametric_weight(u), lambda x: x, 1) <= 4.0
    if u == 0.5:
        assert np.max(np.abs(parametric_weight(u)(G512.nodes) - 1.0)) == 0.0


def test_quasi_invariance_takes_the_grid_weight():
    g = Grid(0.0, 1.0, 512)
    W = radon_nikodym(parametric_system(g, 0.3), uniform_measure(g))
    assert isinstance(W, GridFunction)
    s = MarkovSampler(parametric_system(g, 0.3), uniform_ppf, master_seed=27)
    pe = simulate_paths(s, 1_000_000, 2)
    assert quasi_invariance_check(pe, W, lambda x: x, 1) <= 4.0


def test_quasi_invariance_wrong_weight_detected():
    s = MarkovSampler(parametric_system(G512, 0.3), uniform_ppf, master_seed=28)
    pe = simulate_paths(s, 1_000_000, 2)
    assert quasi_invariance_check(pe, parametric_weight(0.7), lambda x: x, 1) >= 8.0


def test_martingale_constant_harmonic():
    s = MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=29)
    pe = simulate_paths(s, 500_000, 2)
    one = GridFunction.constant(G512, 1.0)
    for k in (1, 2):
        assert martingale_check(pe, one, k, Grid(0.0, 1.0, 32)) <= 4.0


def test_martingale_rejects_non_harmonic():
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=30)
    pe = simulate_paths(s, 10_000, 2)
    ident = GridFunction.from_callable(G512, lambda x: x)
    with pytest.raises(ValueError, match="harmonic"):
        martingale_check(pe, ident, 1, Grid(0.0, 1.0, 16))


def test_martingale_eigenfunction_scaling():
    # R(x - 1/2) = (x - 1/2)/2 for the doubling operator, so 2^n (T_n - 1/2)
    # is a martingale
    s = MarkovSampler(doubling_system(G512), uniform_ppf, master_seed=31)
    pe = simulate_paths(s, 1_000_000, 2)
    b1 = GridFunction.from_callable(G512, lambda x: x - 0.5)
    for k in (1, 2):
        assert martingale_check(pe, b1, k, Grid(0.0, 1.0, 16), eigenvalue=0.5) <= 4.0


def test_gauss_density_conditional_identity():
    s = MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=32)
    pe = simulate_paths(s, 1_000_000, 2)
    h = GridFunction.from_callable(G512, GaussOperator.density)
    for k in (1, 2):
        assert conditional_expectation_check(pe, h, k, Grid(0.0, 1.0, 32)) <= 5.0


def test_chain_apply_gauss_normalized():
    s = MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=33)
    one = GridFunction.constant(G512, 1.0)
    r1 = chain_apply(s, one)
    assert np.max(np.abs(r1.values - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# Kolmogorov consistency
# ---------------------------------------------------------------------------

def test_kolmogorov_consistency_across_lengths():
    a = simulate_paths(MarkovSampler(doubling_system(G512), uniform_ppf,
                                     master_seed=34), 100_000, 6)
    b = simulate_paths(MarkovSampler(doubling_system(G512), uniform_ppf,
                                     master_seed=35), 100_000, 3)
    thresh = 2.4 * np.sqrt(2.0 / 100_000)
    for k in range(4):
        assert ks_two_sample(a.paths[k], b.paths[k]) <= thresh


# ---------------------------------------------------------------------------
# discrete chains
# ---------------------------------------------------------------------------

def test_transition_matrix_two_state():
    s = finite_sampler([0.0, 1.0], TWO_STATE_P, [0.5, 0.5], 36)
    pe = simulate_paths(s, 10_000, 100)
    est = estimate_transition_matrix(pe, [0.0, 1.0])
    assert np.max(np.abs(est - TWO_STATE_P)) <= 0.005
    assert perron_harmonic_residual(est) <= 1e-6


def test_transition_matrix_deterministic_cycle():
    P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    s = finite_sampler([0.0, 1.0, 2.0], P, [1.0, 0.0, 0.0], 37)
    pe = simulate_paths(s, 100, 30)
    assert np.array_equal(estimate_transition_matrix(pe, [0.0, 1.0, 2.0]), P)


def test_transition_matrix_absent_state_flagged():
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = finite_sampler([0.0, 1.0], P, [1.0, 0.0], 38)
    pe = simulate_paths(s, 50, 10)  # never leaves state 0
    est = estimate_transition_matrix(pe, [0.0, 1.0, 2.0])
    assert np.array_equal(est, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="state set"):
        estimate_transition_matrix(pe, [5.0, 6.0])
