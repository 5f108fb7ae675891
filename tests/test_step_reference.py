"""The sampler steps against the ones they replaced, kept here as frozen
references, as ``one_pass_paths`` in test_chains keeps the one-pass loop:
the branch step with its ``np.cumsum`` CDF and its gather by a 2-D index,
``branch_values`` with two escape tests per branch, the controlled step's
boolean-mask gather and scatter, the circle wrap and the endomorphisms by
``np.where`` and ``np.mod``, and the filter weights that multiply by the
default h = 1.  Every state, sampled bit and error message must be the
same."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from transferchain.chains import _BLOCK, MarkovSampler, PathEnsemble, simulate_paths
from transferchain.grids import (Grid, GridFunction, _blocks, _mod_width, arcsine_ppf, histogram,
                                 stream_rng, uniform_ppf)
from transferchain.operators import (
    BranchEscapeError,
    BranchSystem,
    ControlledSystem,
    GaussOperator,
    _branch_choice,
    _pick,
    bernoulli_support,
    bernoulli_system,
    circle_filter_system,
    doubling_system,
    logistic_system,
    parametric_system,
    random_control_system,
)
from transferchain.wavelets import (
    TrigPoly,
    autocorrelation,
    box_scaling_function,
    haar_filter,
    stretched_box_filter,
)

# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------


def reference_wrap(grid, x):
    x = np.asarray(x, dtype=float)
    if grid.domain_kind == "circle":
        return grid.lower + np.mod(x - grid.lower, grid.width)
    return x


def reference_branch_values(bs, x):
    x = np.asarray(x, dtype=float)
    g = bs.grid
    out = np.empty((len(bs.branches), x.size))
    for i, tau in enumerate(bs.branches):
        y = np.asarray(tau(x), dtype=float)
        if g.domain_kind == "circle":
            y = reference_wrap(g, y)
        else:
            low, high = y < g.lower, y > g.upper
            if np.any(y < g.lower - 1e-12) or np.any(y > g.upper + 1e-12):
                j = int(np.argmax((y < g.lower - 1e-12) | (y > g.upper + 1e-12)))
                raise BranchEscapeError(
                    f"branch {i} escapes the domain: tau({x.flat[j]!r}) = {y.flat[j]!r}"
                )
            y = np.where(low, g.lower, np.where(high, g.upper, y))
        out[i] = y
    return out


def reference_branch_step(bs, x, uniforms):
    probs = bs.weight_matrix(x)
    total = probs.sum(axis=0)
    # a NaN sum is refused too, which the step once let through to branch 0
    if not np.max(np.abs(total - 1.0)) <= 1e-9:
        nan = " (NaN at some state)" if np.isnan(total).any() else ""
        raise ValueError(f"branch weights at the current states do not sum to 1{nan}")
    cdf = np.cumsum(probs, axis=0)
    choice = np.minimum((uniforms[0][None, :] >= cdf).sum(axis=0), len(bs.branches) - 1)
    return reference_branch_values(bs, x)[choice, np.arange(x.size)]


def reference_controlled_step(cs, x, uniforms):
    p = np.cumsum(cs.branch_probs)
    branch = np.minimum((uniforms[0][None, :] >= p[:, None]).sum(axis=0), p.size - 1)
    out = np.empty_like(x)
    for i in range(p.size):
        sel = branch == i
        if np.any(sel):
            out[sel] = cs.F(x[sel], i, uniforms[1][sel])
    return out


def reference_filter_system(grid, filt, h=None):
    """``circle_filter_system``'s weights and sigma as they were: h = 1
    multiplied in, and sigma by np.mod."""
    h = h if h is not None else TrigPoly(0, [1.0])
    N = filt.N

    def weights(t):
        t = np.asarray(t, dtype=float)
        raw = np.stack([filt.m0_sq((t + k) / N) * h((t + k) / N) for k in range(N)])
        raw /= raw.sum(axis=0)
        return raw

    return dataclasses.replace(circle_filter_system(grid, filt, h), weights=weights,
                               sigma=lambda t: np.mod(N * np.asarray(t, dtype=float),
                                                      grid.width))


def reference_doubling_system(grid):
    def sigma(x):
        y = 2.0 * np.asarray(x, dtype=float)
        return np.where(y < 1.0, y, y - 1.0) if grid.domain_kind == "interval" else y

    return dataclasses.replace(doubling_system(grid), sigma=sigma)


def reference_step(system, x, uniforms):
    if system.kind == "controlled":
        return reference_controlled_step(system, x, uniforms)
    return reference_branch_step(system, x, uniforms)


# ---------------------------------------------------------------------------
# the systems, each with its reference twin
# ---------------------------------------------------------------------------

G = Grid(0.0, 1.0, 512)
GC = Grid(0.0, 1.0, 64, "circle")
BERNOULLI = Grid(-bernoulli_support(0.6), bernoulli_support(0.6), 256)
FEJER_H = autocorrelation(box_scaling_function(1, 8))


def _thirds(x):
    """Three branches' weights, each varying with x."""
    w0 = 0.25 + 0.125 * x
    w1 = 0.5 - 0.25 * x * x
    return np.stack((w0, w1, 1.0 - w0 - w1))


THREE = BranchSystem(grid=G, branches=[lambda x: x / 3.0, lambda x: (x + 1.0) / 3.0,
                                       lambda x: (x + 2.0) / 3.0],
                     weights=_thirds, name="three-place-dependent")

SYSTEMS = {
    "doubling": lambda: (doubling_system(G), reference_doubling_system(G)),
    "logistic": lambda: (logistic_system(G),) * 2,
    "parametric-0.3": lambda: (parametric_system(G, 0.3),) * 2,
    "bernoulli-0.6": lambda: (bernoulli_system(BERNOULLI, 0.6),) * 2,
    "random-control": lambda: (random_control_system(G),) * 2,
    "haar": lambda: (circle_filter_system(GC, haar_filter()),
                     reference_filter_system(GC, haar_filter())),
    "box-1": lambda: (circle_filter_system(GC, stretched_box_filter(1), FEJER_H),
                      reference_filter_system(GC, stretched_box_filter(1), FEJER_H)),
    "three-branch": lambda: (THREE,) * 2,
}


def special_states(grid, odd):
    """Ends, signed zeros and a subnormal; on intervals, states round-off
    outside the domain, from which the clamp binds.  ``odd`` adds a NaN
    and, on circles, states off the period, which send a whole block of
    images to ``np.mod``."""
    lo, hi = grid.lower, grid.upper
    states = [lo, hi, 0.0, -0.0, 5e-324, np.nextafter(hi, lo), 0.5 * (lo + hi)]
    if grid.domain_kind == "interval":
        states += [lo - 1e-13, hi + 1e-13, lo - 1e-14, hi + 1e-14]
    elif odd:
        states += [hi + 0.25 * (hi - lo), lo - 0.25 * (hi - lo), 7.5]
    return np.array(states + [np.nan] * odd)


def states_and_uniforms(grid, n, seed):
    """n states, uniform in the domain after the special ones (the odd ones
    too at two of the sizes), and two rows of uniforms, some of them on the
    CDF steps of even weights."""
    rng = stream_rng(seed, 0)
    x = grid.lower + grid.width * rng.random(n)
    special = special_states(grid, odd=n in (1000, _BLOCK - 1))
    x[: min(n, special.size)] = special[: n]
    u = rng.random((2, n))
    edges = np.array([0.0, 0.5, 1.0 / 3.0, 2.0 / 3.0, 0.25, np.nextafter(1.0, 0.0)])
    u[0, -min(n, edges.size):] = edges[: min(n, edges.size)]
    return x, u


# ---------------------------------------------------------------------------
# the steps, bit for bit
# ---------------------------------------------------------------------------

def _outcome(step, *args):
    """step(*args), or the type and message of the ValueError it raises."""
    try:
        return step(*args)
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("n", [1, 5, 1000, _BLOCK - 1, _BLOCK])
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_step_matches_frozen_reference_bitwise(name, n):
    system, reference = SYSTEMS[name]()
    x, u = states_and_uniforms(system.grid, n, seed=len(name) * 1000 + n)
    with np.errstate(invalid="ignore"):
        want = _outcome(reference_step, reference, x, u)
        got = _outcome(system.step, x, u)
        if isinstance(want, tuple):
            # weights that vary with x are NaN at a NaN state, and such a
            # block is refused; the states without the NaN still move
            assert got == want and np.isnan(x).any()
            ok = ~np.isnan(x)
            x, u = x[ok], u[:, ok]
            want, got = reference_step(reference, x, u), system.step(x, u)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if system.kind == "branch":
        with np.errstate(invalid="ignore"):
            assert (system.branch_values(x).tobytes()
                    == reference_branch_values(reference, x).tobytes())
            assert system.weight_matrix(x).tobytes() == reference.weight_matrix(x).tobytes()
    if getattr(system, "sigma", None) is not None:
        ok = ~np.isnan(x)
        assert system.sigma(x[ok]).tobytes() == reference.sigma(x[ok]).tobytes()


@pytest.mark.parametrize("name", ["random-control", "doubling", "haar"])
def test_reused_noise_ensemble_matches_frozen_reference(name):
    system, reference = SYSTEMS[name]()
    ppf = arcsine_ppf if name == "random-control" else uniform_ppf
    s = MarkovSampler(system, ppf, 65, reuse_driver_noise=True)
    n_paths, n_steps = _BLOCK + 5, 3
    rng = stream_rng(s.master_seed, 0)
    want = np.empty((n_steps + 1, n_paths))
    want[0] = ppf(rng.random(n_paths))
    u = None
    for k in range(n_steps):
        fresh = rng.random((s.channels, n_paths))
        u = fresh if u is None else u  # every step reuses the first step's noise
        want[k + 1] = reference_step(reference, want[k], u)
    assert simulate_paths(s, n_paths, n_steps, threads=2).paths.tobytes() == want.tobytes()


def test_controlled_step_evaluates_only_the_branches_taken():
    calls = []

    def F(x, i, u):
        calls.append(i)
        return u * x if i == 0 else u + (1.0 - u) * x

    cs = ControlledSystem(grid=G, F=F, branch_probs=np.array([0.5, 0.5]))
    x, u = np.linspace(0.0, 1.0, 9), np.vstack((np.full(9, 0.75), np.linspace(0.0, 0.9, 9)))
    for step in (reference_controlled_step, ControlledSystem.step):
        calls.clear()
        taken = step(cs, x, u)
        assert calls == [1]
    assert taken.tobytes() == reference_controlled_step(cs, x, u).tobytes()


# ---------------------------------------------------------------------------
# the errors, word for word
# ---------------------------------------------------------------------------

def _message(fn, *args):
    with pytest.raises(ValueError) as err:
        fn(*args)
    return type(err.value), str(err.value)


ERROR_CASES = {
    "escapes above": (BranchSystem(grid=G, branches=[lambda x: 0.5 * x, lambda x: x + 0.5],
                                   weights=lambda x: 0.5, name="above"),
                      np.linspace(0.0, 1.0, 101)),
    "escapes below": (BranchSystem(grid=G, branches=[lambda x: x - 0.25],
                                   weights=lambda x: 1.0, name="below"),
                      np.linspace(0.0, 1.0, 101)),
    "logistic off the domain": (logistic_system(G), np.array([0.5, -1e-10, 0.25])),
    "under-weighted": (BranchSystem(grid=G, branches=list(doubling_system(G).branches),
                                    weights=lambda x: 0.45, normalized=False, name="under"),
                       np.linspace(0.0, 1.0, 11)),
    "under-weighted and escaping": (BranchSystem(grid=G, branches=[lambda x: x - 0.25],
                                                 weights=lambda x: 0.9, normalized=False,
                                                 name="both"), np.linspace(0.0, 1.0, 11)),
    "weights off at some states": (BranchSystem(
        grid=G, branches=list(doubling_system(G).branches),
        weights=lambda x: np.stack((np.where(x > 0.95, 0.6, 0.5), np.full(np.shape(x), 0.5))),
        normalized=False, name="off"), np.linspace(0.0, 1.0, 11)),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_step_errors_match_frozen_reference(case):
    system, x = ERROR_CASES[case]
    u = stream_rng(3, 0).random((1, x.size))
    want = _message(reference_branch_step, system, x, u)
    assert _message(system.step, x, u) == want
    if want[0] is BranchEscapeError:
        assert _message(system.branch_values, x) == _message(reference_branch_values, system, x)


# ---------------------------------------------------------------------------
# the exact circle reduction
# ---------------------------------------------------------------------------

CIRCLES = [Grid(0.0, 1.0, 64, "circle"), Grid(-0.5, 0.75, 16, "circle"),
           Grid(3.0, 3.1, 8, "circle"), Grid(-8e307, 8e307, 4, "circle")]
SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
           1.0, -1.0, 2.0, 3.0, 1e300, -1e300]


def _top(grid):
    """lower + 2 width, or the largest float where that overflows."""
    with np.errstate(over="ignore"):
        return min(grid.lower + 2.0 * grid.width, np.finfo(float).max)


@st.composite
def circle_and_points(draw, circles=CIRCLES):
    grid = draw(st.sampled_from(circles))
    # half the lists stay in [lower, lower + 2 width], where the exact
    # reduction applies; any other point sends its list to np.mod
    in_range = st.floats(grid.lower, _top(grid))
    ends = [grid.lower, grid.upper, _top(grid), np.nextafter(_top(grid), -np.inf),
            grid.lower - grid.width, grid.lower + 0.5 * grid.width]
    anything = st.one_of(in_range, st.sampled_from(SPECIAL + ends),
                         st.floats(allow_nan=True, allow_infinity=True))
    points = draw(st.lists(anything if draw(st.booleans()) else in_range,
                           min_size=1, max_size=40))
    return grid, np.array(points, dtype=float)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(circle_and_points())
@example((CIRCLES[0], np.array([-0.0, 0.0, 1.0, 1.5, np.nextafter(2.0, 0.0)])))
@example((CIRCLES[1], np.array([-0.5, -0.0, 0.75, 1.9999999999999998])))
@example((CIRCLES[3], np.array([-8e307, 0.0, 7.9e307, 1.7e308])))
def test_circle_wrap_is_np_mod_bitwise(case):
    grid, x = case
    with np.errstate(invalid="ignore", over="ignore"):
        assert grid.wrap(x).tobytes() == reference_wrap(grid, x).tobytes()
        for v in x[:3]:
            got, want = grid.wrap(float(v)), reference_wrap(grid, float(v))
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 5e-324, 0.5])),
                min_size=1, max_size=40))
def test_filter_sigma_is_np_mod_bitwise(points):
    t = np.array(points)
    for system, reference in (SYSTEMS["haar"](), SYSTEMS["box-1"]()):
        assert system.sigma(t).tobytes() == reference.sigma(t).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(circle_and_points(CIRCLES[:3]))  # x - lower stays finite for finite x
def test_circle_eval_reduction_matches_np_mod_bitwise(case):
    grid, x = case
    x = x[np.isfinite(x)]
    assume(x.size)
    f = GridFunction.from_callable(grid, np.cos)
    t = np.mod(x - grid.lower, grid.width) / grid.dx - 0.5
    i0 = np.floor(t).astype(int)
    frac = t - i0
    want = f.values[i0 % grid.n] * (1 - frac) + f.values[(i0 + 1) % grid.n] * frac
    assert f.eval(x).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# simulate's per-state kernels: histograms, the filter weights' cosines, the
# exact circle reduction and the solenoid gap, against frozen copies
# ---------------------------------------------------------------------------

def reference_cell_index(grid, x):
    idx = np.floor((reference_wrap(grid, x) - grid.lower) / grid.dx).astype(int)
    return np.clip(idx, 0, grid.n - 1)


def reference_histogram(points, grid):
    """The counts as they were: a domain test by two comparisons per point,
    and ``cell_index``'s floor and clip."""
    points = np.asarray(points, dtype=float).reshape(-1)
    counts = np.zeros(grid.n, dtype=np.int64)
    for b in _blocks(points.size):
        x = points[b]
        if grid.domain_kind == "interval" and not np.all((x >= grid.lower) & (x <= grid.upper)):
            raise ValueError("sample points outside the grid domain")
        counts += np.bincount(reference_cell_index(grid, x), minlength=grid.n)
    counts = counts.astype(float)
    return counts / counts.sum()


def reference_trig_call(p, t):
    """``TrigPoly.__call__`` as it was: a new array for every term."""
    t = np.asarray(t, dtype=float)[()]
    hi = max(-p.lo, p.lo + len(p.c) - 1, 0)
    full = np.zeros(2 * hi + 1, dtype=p.c.dtype)
    full[hi + p.lo : hi + p.lo + len(p.c)] = p.c
    pos, neg = full[hi + 1 :], full[:hi][::-1]
    out = np.full(t.shape, full[hi])
    for m, a, b in zip(range(1, hi + 1), pos + neg, pos - neg):
        if a != 0:
            out = out + a * np.cos(2 * np.pi * m * t)
        if b != 0:
            out = out + 1j * b * np.sin(2 * np.pi * m * t)
    return out


def reference_solenoid_violation(pe):
    """Max |sigma(T_{k+1}) - T_k| by ``Grid.distance`` over whole rows."""
    g, sigma = pe.sampler.grid, pe.sampler.sigma
    gaps = []
    for k in range(pe.n_steps):
        back, prev = sigma(pe.paths[k + 1]), pe.paths[k]
        d = np.abs(back - prev)
        if g is not None and g.domain_kind == "circle":
            d = np.minimum(d, g.width - d)
        gaps.append(np.max(d))
    return float(np.max(gaps, initial=0.0))


# simulate's histogram grid, a grid with its lower end at 0, and one off it
HIST_GRIDS = [Grid(-1e-9, 1.0 + 1e-9, 128), Grid(0.0, 1.0, 8), Grid(-0.5, 2.0, 512)]


@st.composite
def interval_points(draw):
    grid = draw(st.sampled_from(HIST_GRIDS))
    ends = [grid.lower, grid.upper, np.nextafter(grid.upper, grid.lower),
            np.nextafter(grid.lower, grid.upper), grid.nodes[0], grid.edge(1)]
    if grid.lower == 0.0:
        ends += [-0.0, 5e-324]
    inside = st.one_of(st.floats(grid.lower, grid.upper), st.sampled_from(ends))
    return grid, np.array(draw(st.lists(inside, min_size=1, max_size=60)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(interval_points())
@example((HIST_GRIDS[1], np.array([-0.0, 0.0, 1.0, np.nextafter(1.0, 0.0), 0.125])))
def test_interval_histogram_matches_frozen_reference_bitwise(case):
    grid, x = case
    assert histogram(x, grid).weights.tobytes() == reference_histogram(x, grid).tobytes()


@pytest.mark.parametrize("grid", HIST_GRIDS)
def test_interval_histogram_of_many_blocks_matches_frozen_reference(grid):
    # three blocks and five points, the ends among them, and one row of a
    # sampled ensemble as simulate bins it
    x = grid.lower + grid.width * stream_rng(80, 0).random(3 * _BLOCK + 5)
    x[:4] = [grid.lower, grid.upper, grid.upper, grid.lower]
    x[-1] = grid.upper
    assert histogram(x, grid).weights.tobytes() == reference_histogram(x, grid).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 3.0, "below", "above"])
@pytest.mark.parametrize("where", [0, _BLOCK + 7])
def test_interval_histogram_refuses_what_the_reference_refuses(bad, where):
    grid = HIST_GRIDS[1]
    x = stream_rng(81, 0).random(2 * _BLOCK)
    x[where] = {"below": np.nextafter(grid.lower, -1.0),
                "above": np.nextafter(grid.upper, 2.0)}.get(bad, bad)
    with pytest.raises(ValueError) as want:
        reference_histogram(x, grid)
    with pytest.raises(ValueError) as got:
        histogram(x, grid)
    assert str(got.value) == str(want.value) == "sample points outside the grid domain"


@pytest.mark.parametrize("grid", [Grid(0.0, 1.0, 64, "circle"), Grid(-0.5, 0.75, 16, "circle")])
def test_circle_histogram_matches_frozen_reference(grid):
    x = grid.lower + 5.0 * grid.width * (stream_rng(82, 0).random(2 * _BLOCK + 3) - 0.5)
    x[:5] = [grid.lower, grid.upper, -0.0, grid.lower - grid.width, grid.upper + grid.width]
    assert histogram(x, grid).weights.tobytes() == reference_histogram(x, grid).tobytes()


TRIG_POLYS = {
    "haar |m0|^2": haar_filter().autocorr,
    "box-2 |m0|^2": stretched_box_filter(2).autocorr,
    "fejer h": FEJER_H,
    "constant": TrigPoly(0, [1.0]),
    "zero terms": TrigPoly(-3, [0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5]),
    "real, not even": TrigPoly(-1, [0.3, 1.0, 0.7]),
    "positive lags": TrigPoly(2, [1.0, -0.5]),
    "complex": TrigPoly(-2, [1 + 2j, 0.5, -1j, 0.25, 3.0]),
    "interpolant": TrigPoly.from_samples(np.cos(np.arange(6.0))),
}
T_ARRAY = np.concatenate(([0.0, -0.0, 0.5, 1.0, 1e6, -2.75, 5e-324, np.inf, np.nan],
                          stream_rng(83, 0).random(40)))


@pytest.mark.parametrize("t", [0.3, -0.0, np.float64(0.71), np.array(0.125), T_ARRAY,
                               np.stack((T_ARRAY / 2, (T_ARRAY + 1) / 2))],
                         ids=["float", "-0.0", "np.float64", "0-d", "array", "2-d"])
@pytest.mark.parametrize("name", list(TRIG_POLYS))
def test_trig_poly_call_matches_frozen_reference_bitwise(name, t):
    p = TRIG_POLYS[name]
    with np.errstate(invalid="ignore"):
        got, want = p(t), reference_trig_call(p, t)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if np.ndim(t) == 0:
        assert not isinstance(got, np.ndarray)  # a scalar t gives a scalar


@pytest.mark.parametrize("width", [1.0, 0.1, 2.5])
@pytest.mark.parametrize("lows", [(0.0, 1.0, False), (0.0, 1.0, True), (1.0, 2.0, False),
                                  (0.0, 2.0, False)],
                         ids=["[0, w)", "[0, w]", "[w, 2w)", "[0, 2w)"])
def test_mod_width_matches_np_mod_bitwise(width, lows):
    a, b, closed = lows
    y = width * (a + (b - a) * stream_rng(84, 0).random(1000))
    specials = [a * width, np.nextafter(b * width, 0.0)] + [-0.0, 0.0] * (a == 0.0)
    specials += [b * width] * closed  # a block whose max is the width itself
    y[:len(specials)] = specials
    want = np.mod(y, width)
    got = _mod_width(y.copy(), width)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


SHIFTED = Grid(-0.5, 0.5, 16, "circle")
GAP_SYSTEMS = {
    "doubling": (doubling_system(G), uniform_ppf),
    "gauss": (GaussOperator(1000), uniform_ppf),
    "logistic": (logistic_system(G), arcsine_ppf),
    "haar": (circle_filter_system(GC, haar_filter()), uniform_ppf),
    # a circle off 0, whose wrap adds its lower end back
    "doubling, shifted circle": (BranchSystem(
        grid=SHIFTED, sigma=lambda t: 2.0 * t, branches=[lambda t: 0.5 * t, lambda t: 0.5 * t + 0.5],
        weights=lambda t: 0.5, name="shifted"), lambda u: u - 0.5),
}


@pytest.mark.parametrize("name", list(GAP_SYSTEMS))
def test_solenoid_violation_matches_frozen_reference(name):
    system, ppf = GAP_SYSTEMS[name]
    s = MarkovSampler(system, ppf, master_seed=85)
    ensembles = [simulate_paths(s, 2 * _BLOCK + 9, 3, threads) for threads in (1, 2)]
    g = getattr(system, "grid", None)
    if g is not None and g.domain_kind == "circle":
        # sigma(T_1) is the lower end, 1e-7 from T_0 the short way round
        t0 = np.array([g.upper - 1e-7, g.lower + 0.25 * g.width])
        t1 = system.branches[0](np.array([g.lower, t0[1]]))
        ensembles.append(PathEnsemble(np.stack((t0, t1)), s))
    for pe in ensembles:
        got = pe.solenoid_violation()
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(reference_solenoid_violation(pe)).tobytes()
    if len(ensembles) == 3:
        assert 0.0 < got < 1e-6


@pytest.mark.parametrize("branches", [1, 2, 3])
def test_branch_choice_and_pick_match_the_count_and_gather(branches):
    # CDF rows in any order, as weights negative off the nodes give them,
    # and rows of any bits, signed zeros, NaN and infinities among them
    rng = stream_rng(88, branches)
    n = 1000
    u = rng.random(n)
    u[:3] = [0.0, np.nextafter(1.0, 0.0), 0.5]
    cdf = [2.0 * rng.random(n) for _ in range(branches)]
    cdf[-1][:2] = [0.5, 0.5]
    want_choice = np.minimum((u[None, :] >= np.array(cdf)).sum(axis=0), branches - 1)
    choice = _branch_choice(u, cdf)
    assert np.array_equal(choice, want_choice)
    rows = rng.standard_normal((branches, n))
    rows[:, :4] = [-0.0, np.nan, np.inf, -5e-324]
    want = rows[want_choice, np.arange(n)]
    assert _pick(rows, choice).tobytes() == want.tobytes()
