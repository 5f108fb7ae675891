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

from transferchain.chains import _BLOCK, MarkovSampler, simulate_paths
from transferchain.grids import Grid, GridFunction, arcsine_ppf, stream_rng, uniform_ppf
from transferchain.operators import (
    BranchEscapeError,
    BranchSystem,
    ControlledSystem,
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
    if np.max(np.abs(probs.sum(axis=0) - 1.0)) > 1e-9:
        raise ValueError("branch weights at the current states do not sum to 1")
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

@pytest.mark.parametrize("n", [1, 5, 1000, _BLOCK - 1, _BLOCK])
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_step_matches_frozen_reference_bitwise(name, n):
    system, reference = SYSTEMS[name]()
    x, u = states_and_uniforms(system.grid, n, seed=len(name) * 1000 + n)
    with np.errstate(invalid="ignore"):
        want = reference_step(reference, x, u)
        got = system.step(x, u)
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
