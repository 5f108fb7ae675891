"""The path-ensemble estimators against the whole-array versions they
replaced, kept here as frozen references, as test_step_reference keeps the
sampler steps: the binned statistics by one ``np.bincount(weights=...)``
over the whole sample, the Markov-property residuals, the path moments,
the quasi-invariance differences and the finite chain's state lookup and
step, each over whole rows.  The estimators now stream over blocks of ``_BLOCK``
paths; every statistic must be the same bits."""

import functools

import numpy as np
import pytest

from transferchain import verify
from transferchain.chains import (
    _BLOCK,
    MarkovSampler,
    PathEnsemble,
    _paired_bin_z,
    _state_indices,
    chain_apply,
    conditional_expectation_check,
    estimate_conditional,
    estimate_transition_matrix,
    markov_property_check,
    martingale_check,
    path_moment_mc,
    pooled_transitions,
    quasi_invariance_check,
    simulate_paths,
)
from transferchain.grids import Grid, GridFunction, arcsine_ppf, gauss_ppf, uniform_ppf
from transferchain.operators import (
    GaussOperator,
    circle_filter_system,
    doubling_system,
    finite_system,
    gauss_operator,
    parametric_system,
    parametric_weight,
    random_control_system,
)
from transferchain.wavelets import haar_filter

# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

_MIN_COUNT = 100


def reference_binned_stats(grid, x, y):
    idx = grid.cell_index(x)
    counts = np.bincount(idx, minlength=grid.n).astype(int)
    sums = np.bincount(idx, weights=y, minlength=grid.n)
    sq = np.bincount(idx, weights=y * y, minlength=grid.n)
    values = np.full(grid.n, np.nan)
    ses = np.full(grid.n, np.nan)
    nz = counts > 0
    values[nz] = sums[nz] / counts[nz]
    var = np.zeros(grid.n)
    var[nz] = np.maximum(sq[nz] / counts[nz] - values[nz] ** 2, 0.0)
    pos = counts > 1
    ses[pos] = np.sqrt(var[pos] / counts[pos])
    return values, counts, ses


def reference_paired_bin_z(bins, x, resid, scale=1.0):
    values, counts, ses = reference_binned_stats(bins, x, resid)
    live = counts >= _MIN_COUNT
    if not np.any(live):
        return 0.0
    floor = 1e-13 * max(scale, 1e-300)
    se = np.maximum(np.where(np.isnan(ses), 0.0, ses)[live], floor)
    return float(np.max(np.abs(values[live]) / se))


def reference_markov_property_check(pe, f, n, bins):
    x = pe.paths[n]
    y = f(pe.paths[n + 1])
    fine = Grid(bins.lower, bins.upper, min(bins.n * 128, 8192), bins.domain_kind)
    fine_idx = fine.cell_index(x)
    fine_counts = np.bincount(fine_idx, minlength=fine.n)
    fine_sums = np.bincount(fine_idx, weights=y, minlength=fine.n)
    baseline = np.where(fine_counts > 0, fine_sums / np.maximum(fine_counts, 1), 0.0)
    r = y - baseline[fine_idx]
    pair_idx = bins.cell_index(pe.paths[n - 1]) * bins.n + bins.cell_index(x)
    counts = np.bincount(pair_idx, minlength=bins.n * bins.n)
    sums = np.bincount(pair_idx, weights=r, minlength=bins.n * bins.n)
    sq = np.bincount(pair_idx, weights=r * r, minlength=bins.n * bins.n)
    live = counts >= _MIN_COUNT
    if not np.any(live):
        return 0.0
    mean = sums[live] / counts[live]
    var = np.maximum(sq[live] / counts[live] - mean**2, 1e-300)
    return float(np.max(np.abs(mean) / np.sqrt(var / counts[live])))


def reference_path_moment_mc(pe, fs):
    prod = np.ones(pe.n_paths)
    for k, f in enumerate(fs):
        prod = prod * f(pe.paths[k])
    return float(prod.mean()), float(prod.std(ddof=1) / np.sqrt(pe.n_paths))


def reference_quasi_invariance(pe, W, f, k):
    def psi(rows):  # f o pi_k on coordinates 0..k, a row per coordinate
        return f(rows[k])

    lhs_vals = psi(pe.paths[: k + 1])
    shifted = np.vstack([pe.sampler.sigma(pe.paths[0]), pe.paths[:k]])
    rhs_vals = psi(shifted) * W(pe.paths[0])
    d = lhs_vals - rhs_vals
    se = d.std(ddof=1) / np.sqrt(pe.n_paths)
    return float(abs(d.mean()) / se if se > 0 else 0.0)


def reference_martingale_check(pe, h, k, bins, eigenvalue=1.0):
    x, y_state = pooled_transitions(pe, lag=k)
    d = h(y_state) - eigenvalue**k * h(x)
    return reference_paired_bin_z(bins, x, d, scale=float(np.max(np.abs(h.values))))


def reference_conditional_expectation_check(pe, f, k, bins):
    g = f
    for _ in range(k):
        g = chain_apply(pe.sampler, g)
    x, y_state = pooled_transitions(pe, lag=k)
    d = f(y_state) - g.eval(x)
    return reference_paired_bin_z(bins, x, d, scale=float(np.max(np.abs(f.values))))


def reference_state_indices(x, states):
    x = np.asarray(x, dtype=float).ravel()
    idx = np.argmin(np.abs(x[:, None] - states[None, :]), axis=1)
    if np.max(np.abs(x - states[idx])) > 1e-9:
        raise ValueError("path value outside the declared finite state set")
    return idx


def reference_finite_step(states, P, x, uniforms):
    rows = np.cumsum(P, axis=1)[reference_state_indices(x, states)]
    nxt = (uniforms[0][:, None] >= rows).sum(axis=1)
    return states[np.clip(nxt, 0, states.size - 1)]


def reference_transition_counts(pe, states):
    m = states.size
    x, y = pooled_transitions(pe, lag=1)
    xi = reference_state_indices(x, states)
    yi = reference_state_indices(y, states)
    return np.bincount(xi * m + yi, minlength=m * m).reshape(m, m).astype(float)


def reference_transition_matrix(counts):
    row_tot = counts.sum(axis=1)
    present = row_tot > 0
    probs = np.zeros_like(counts)
    probs[present] = counts[present] / row_tot[present, None]
    return probs


# ---------------------------------------------------------------------------
# the ensembles: a path count that is no multiple of _BLOCK
# ---------------------------------------------------------------------------

N_PATHS = 2 * _BLOCK + 37
G = Grid(0.0, 1.0, 512)
GC = Grid(0.0, 1.0, 64, "circle")
ONE_CIRCLE = GridFunction.constant(GC, 1.0)
COS_CIRCLE = GridFunction.from_callable(GC, lambda x: np.cos(2 * np.pi * x))
B1 = GridFunction.from_callable(G, lambda x: x - 0.5)  # doubling eigenvalue 1/2
GAUSS_DENSITY = GridFunction.from_callable(G, GaussOperator.density)
SINE = GridFunction.from_callable(G, lambda x: np.sin(2 * np.pi * x))

SAMPLERS = {
    "doubling": lambda: MarkovSampler(doubling_system(G), uniform_ppf, master_seed=81),
    "parametric": lambda: MarkovSampler(parametric_system(G, 0.3), uniform_ppf, master_seed=82),
    "gauss": lambda: MarkovSampler(gauss_operator(K=10_000), gauss_ppf, master_seed=83),
    "noise-reuse": lambda: MarkovSampler(random_control_system(G), arcsine_ppf,
                                         master_seed=84, reuse_driver_noise=True),
    "haar": lambda: MarkovSampler(circle_filter_system(GC, haar_filter()), uniform_ppf,
                                  master_seed=85),
}


@functools.lru_cache(maxsize=None)
def ensemble(name):
    return simulate_paths(SAMPLERS[name](), N_PATHS, 3)


BINS = {
    "interval": Grid(0.0, 1.0, 16),
    "empty-bins": Grid(-1.0, 2.0, 24),  # a third of the bins on each side stay empty
    "circle": Grid(0.0, 1.0, 8, "circle"),
}


def same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---------------------------------------------------------------------------
# the streamed estimators, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, f, bins", [
    ("doubling", lambda x: x * x, "interval"),
    ("gauss", lambda x: x, "empty-bins"),
    ("haar", COS_CIRCLE, "circle"),
])
def test_estimate_conditional_matches_reference(name, f, bins):
    pe, grid = ensemble(name), BINS[bins]
    got = estimate_conditional(pe, f, 1, grid)
    values, counts, ses = reference_binned_stats(grid, pe.paths[1], f(pe.paths[2]))
    assert same(got.values, values) and same(got.counts, counts) and same(got.std_errors, ses)
    assert np.isnan(values).any() == (bins == "empty-bins")


@pytest.mark.parametrize("name", ["doubling", "gauss", "noise-reuse", "haar"])
@pytest.mark.parametrize("bins", BINS)
def test_markov_property_check_matches_reference(name, bins):
    pe, grid = ensemble(name), BINS[bins]
    for f in (lambda x: x, lambda x: np.cos(2 * np.pi * x)):
        assert markov_property_check(pe, f, 2, grid) == \
            reference_markov_property_check(pe, f, 2, grid)


@pytest.mark.parametrize("name, h, eigenvalue, bins", [
    ("doubling", B1, 0.5, "interval"),
    ("doubling", B1, 0.5, "empty-bins"),
    ("gauss", GridFunction.constant(G, 1.0), 1.0, "interval"),
    ("haar", ONE_CIRCLE, 1.0, "circle"),
])
def test_martingale_check_matches_reference(name, h, eigenvalue, bins):
    pe, grid = ensemble(name), BINS[bins]
    for k in (1, 2, 3):
        got = martingale_check(pe, h, k, grid, eigenvalue=eigenvalue)
        assert got == reference_martingale_check(pe, h, k, grid, eigenvalue)


@pytest.mark.parametrize("name, f, bins", [
    ("gauss", GAUSS_DENSITY, "interval"),
    ("gauss", GAUSS_DENSITY, "empty-bins"),
    ("doubling", SINE, "interval"),
    ("haar", COS_CIRCLE, "circle"),
])
def test_conditional_expectation_check_matches_reference(name, f, bins):
    pe, grid = ensemble(name), BINS[bins]
    for k in (1, 2):
        assert conditional_expectation_check(pe, f, k, grid) == \
            reference_conditional_expectation_check(pe, f, k, grid)


def test_closed_form_z_matches_reference():
    pe = ensemble("doubling")
    x, y = pe.paths[0], pe.paths[1]
    for shift in (0.0, 0.02):
        def closed_form(x):
            return x / 2 + 0.25 + shift
        assert verify._closed_form_z(pe, closed_form) == \
            reference_paired_bin_z(Grid(0.0, 1.0, 32), x, y - closed_form(x))


@pytest.mark.parametrize("name", ["doubling", "gauss", "haar"])
def test_path_moment_mc_matches_reference(name):
    pe = ensemble(name)
    for fs in ([], [lambda x: x], [lambda x: x, lambda x: x**2, lambda x: x],
               [lambda x: 1.0, lambda x: np.cos(2 * np.pi * x)]):
        got = path_moment_mc(pe, fs)
        assert (got.mean, got.std_error) == reference_path_moment_mc(pe, fs)


@pytest.mark.parametrize("name, W, psi", [  # psi = f o pi_k as the pair (f, k)
    ("parametric", parametric_weight(0.3), (lambda x: x, 1)),
    ("parametric", parametric_weight(0.7), (lambda x: x ** 2, 1)),
    ("doubling", lambda x: 1.0, (lambda x: np.sin(2 * np.pi * x) ** 2, 0)),
    ("haar", lambda x: 1.0, (lambda x: np.cos(2 * np.pi * x), 2)),
])
def test_quasi_invariance_check_matches_reference(name, W, psi):
    pe = ensemble(name)
    assert quasi_invariance_check(pe, W, *psi) == reference_quasi_invariance(pe, W, *psi)


def test_quasi_invariance_refuses_a_chain_with_no_endomorphism():
    # the bernoulli-0.6 branch images overlap, so no sigma undoes a move and
    # sigma-hat is undefined on its paths, even where psi skips coordinate 0
    pe = simulate_paths(verify._sampler("bernoulli-a", 88, a=0.6), 1000, 2)
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match="no endomorphism"):
            quasi_invariance_check(pe, lambda x: 1.0, lambda x: x, k)


THREE_STATE = (np.array([0.0, 0.5, 2.0]),  # the states and the transition matrix
               np.array([[0.2, 0.3, 0.5],
                         [0.6, 0.0, 0.4],
                         [0.1, 0.8, 0.1]]))
G3 = Grid(0.0, 2.0, 64)


def three_state_sampler(master_seed):
    """The three-state chain, started in the law (0.3, 0.3, 0.4)."""
    states = THREE_STATE[0]

    def ppf(u):
        return states[np.clip(np.searchsorted(np.cumsum([0.3, 0.3, 0.4]), u), 0, 2)]

    return MarkovSampler(finite_system(G3, *THREE_STATE), ppf, master_seed)


def test_finite_chain_matches_reference():
    pe = simulate_paths(three_state_sampler(86), N_PATHS, 2)
    x, _ = pooled_transitions(pe, lag=1)
    # a fourth state, never visited, gets a zero row
    for states in (THREE_STATE[0], np.append(THREE_STATE[0], 7.0)):
        counts = reference_transition_counts(pe, states)
        assert same(estimate_transition_matrix(pe, states), reference_transition_matrix(counts))
    u = np.random.default_rng(87).random((1, x.size))
    # the branches follow the states in the order given, sorted or not
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        states, P = THREE_STATE[0][order], THREE_STATE[1][np.ix_(order, order)]
        assert same(finite_system(G3, states, P).step(x, u),
                    reference_finite_step(states, P, x, u))


def test_state_lookup_raises_the_reference_error():
    x = np.zeros(2 * _BLOCK + 5)
    x[_BLOCK + 3] = 0.25  # in the second block, between two states
    pe = PathEnsemble(np.stack([x, x]), three_state_sampler(88))
    for lookup in (lambda: estimate_transition_matrix(pe, THREE_STATE[0]),
                   lambda: reference_finite_step(*THREE_STATE, x, np.zeros((1, x.size)))):
        with pytest.raises(ValueError, match="outside the declared finite state set"):
            lookup()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_lookup_refuses_a_non_finite_path_value(bad):
    # a NaN is no state: it must not count as the first one
    states = THREE_STATE[0]
    with pytest.raises(ValueError, match="outside the declared finite state set"):
        _state_indices(np.array([states[0], bad, states[1]]), states)
    x = np.full(2 * _BLOCK + 5, states[0])
    x[_BLOCK + 3] = bad
    pe = PathEnsemble(np.stack([x, np.full_like(x, states[1])]), three_state_sampler(88))
    with pytest.raises(ValueError, match="outside the declared finite state set"):
        estimate_transition_matrix(pe, states)


def test_state_lookup_of_no_points_is_empty():
    idx = _state_indices(np.array([]), THREE_STATE[0])
    assert idx.dtype == np.intp and idx.size == 0


def test_paired_bin_z_floors_a_zero_residual():
    x = ensemble("doubling").paths[1]
    assert _paired_bin_z(BINS["interval"], x, lambda b: np.zeros(b.stop - b.start)) == \
        reference_paired_bin_z(BINS["interval"], x, np.zeros(x.size)) == 0.0
