"""The filter chains' float32 draft of their branch weights, and the
``BranchSystem.draft`` protocol it serves.

``circle_filter_system`` gives a two-branch filter a ``draft``: weights
from one float32 cosine per state, with a bound on their distance from the
exact weights.  The bound must hold, and a step must choose every branch
as the exact weights do, near the CDF edges, at the zeros of h, one state
at a time and at NaN states alike."""

import dataclasses

import numpy as np
import pytest

from transferchain.chains import _BLOCK
from transferchain.grids import Grid, stream_rng
from transferchain.operators import BranchSystem, _cosines, _draft_halves, circle_filter_system
from transferchain.wavelets import (
    TrigPoly,
    WaveletFilter,
    autocorrelation,
    box_scaling_function,
    haar_filter,
    stretched_box_filter,
)

GC = Grid(0.0, 1.0, 4096, "circle")


def fejer(m):
    return circle_filter_system(GC, stretched_box_filter(m),
                                autocorrelation(box_scaling_function(m, 8)))


FILTERS = {"haar": lambda: circle_filter_system(GC, haar_filter()),
           **{f"fejer-{m}": (lambda m=m: fejer(m)) for m in (1, 2, 3)}}


def zeros(name):
    """The states where h or a preimage's |m0|^2 vanishes, and their
    neighbours: j / (2m + 1) for the Fejer kernel, 0 and 1 for haar."""
    m = int(name.split("-")[1]) if name != "haar" else 0
    z = np.concatenate(([0.0, 1.0, 0.5], np.arange(1, 2 * m + 1) / (2 * m + 1)))
    return np.concatenate((z, np.nextafter(z, -1.0), np.nextafter(z, 2.0), z + 1e-9, z - 1e-9))


def exact(system):
    return dataclasses.replace(system, draft=None)


def draft_rows(system, t):
    q, tol = system.draft(t)
    return np.cumsum(q, axis=0), [np.broadcast_to(e, t.shape) for e in tol]


@pytest.mark.parametrize("name", list(FILTERS))
def test_draft_bound_holds_on_a_dense_grid(name):
    system = FILTERS[name]()
    for t in (np.linspace(0.0, 1.0, 1_000_001), np.linspace(-1.5, 2.5, 400_001), zeros(name)):
        cdf, tol = draft_rows(system, t)
        with np.errstate(invalid="ignore"):  # 0/0 at a zero of h
            want = np.cumsum(system.weight_matrix(t), axis=0)
        for row, (c, w, e) in enumerate(zip(cdf, want, tol)):
            finite = np.isfinite(e)
            assert np.max(np.abs(c - w)[finite] / e[finite], initial=0.0) < 1.0, row
        if t.size > 1000:  # only states near the zeros of h take the exact weights
            assert np.mean(~np.isfinite(tol[0])) < (0.03 if name != "haar" else 1e-12)


def stress_states(name, n, seed):
    """n states on the circle, the zeros of h among them, and uniforms of
    which a third lie within +-tol/2 of a draft CDF edge (left to the exact
    weights), a third just past +-tol (decided by the draft) and a third
    uniform."""
    system = FILTERS[name]()
    rng = stream_rng(seed, 0)
    x = rng.random(n)
    z = zeros(name)
    x[: z.size] = z
    cdf, tol = draft_rows(system, x)
    edge = rng.integers(0, 2, n)
    c = np.choose(edge, cdf)
    e = np.where(np.isfinite(np.choose(edge, tol)), np.choose(edge, tol), 1e-3)
    v = rng.random(n)
    third = np.arange(n) % 3
    u = np.where(third == 0, c + (v - 0.5) * e,
                 np.where(third == 1, c + np.where(v < 0.5, -1.0, 1.0) * e * (1.0 + v), v))
    return x, u[None, :]


def outcome(system, x, u):
    """The states a step moves to, or the message of the error it raises."""
    try:
        with np.errstate(invalid="ignore"):
            return system.step(x, u).tobytes()
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("name", list(FILTERS))
def test_drafted_choices_are_the_exact_choices(name):
    system = FILTERS[name]()
    ref = exact(system)
    for b in range(16):  # 2^20 states, a block at a time
        x, u = stress_states(name, _BLOCK, seed=100 * b + len(name))
        # where h is 0 at a state, its exact weights are 0/0 and the step
        # refuses the block; the other states must move
        ok = np.ones(x.size, dtype=bool)
        for j in range(zeros(name).size):
            ok[j] = isinstance(outcome(ref, x[j:j + 1], u[:, j:j + 1]), bytes)
        assert outcome(system, x, u) == outcome(ref, x, u)
        moved = outcome(system, x[ok], u[:, ok])
        assert isinstance(moved, bytes) and moved == outcome(ref, x[ok], u[:, ok])
    # one state at a time, near an edge and at a zero of h
    for j in list(range(3 * 40)) + list(range(zeros(name).size)):
        assert outcome(system, x[j:j + 1], u[:, j:j + 1]) == outcome(ref, x[j:j + 1], u[:, j:j + 1])


@pytest.mark.parametrize("name", list(FILTERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_states_raise_the_exact_message(name, bad):
    system = FILTERS[name]()
    x, u = stress_states(name, 1000, seed=7)
    x[500] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError) as want:
            exact(system).step(x, u)
        with pytest.raises(ValueError) as got:
            system.step(x, u)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("do not sum to 1 (NaN at some state)")


@pytest.mark.parametrize("name", ["haar", "fejer-2"])
def test_states_off_the_period_and_far_out_step_exactly(name):
    system = FILTERS[name]()
    x, u = stress_states(name, 4096, seed=11)
    for shift in (1.0, -3.0, 1e3, 2.0**15):  # the last takes the exact weights
        y = x + shift
        assert system.step(y, u).tobytes() == exact(system).step(y, u).tobytes()


def test_only_two_branch_filters_with_a_real_even_h_have_a_draft():
    assert FILTERS["haar"]().draft is not None
    three = WaveletFilter(N=3, coeffs=np.ones(3) / np.sqrt(3), name="box-3")
    assert circle_filter_system(GC, three).draft is None
    h = TrigPoly(0, [1.0])  # even, with one lag
    assert circle_filter_system(GC, haar_filter(), h).draft is not None


def test_draft_half_turns_of_a_constant_and_an_odd_polynomial():
    t = np.linspace(-1.0, 1.0, 101)
    for p in (TrigPoly(0, [2.5]), TrigPoly.even([0.0, 0.5, 0.0, 0.25])):
        out = np.empty((2, t.size))
        E, err = _draft_halves(_cosines(p))(t, 1.0, out)
        assert np.max(np.abs(out[0] - p(t / 2))) <= err
        assert np.max(np.abs(out[1] - p((t + 1) / 2))) <= err
    _, err = _draft_halves(_cosines(TrigPoly(0, [1.0])))(np.array([np.nan]), np.nan, out[:, :1])
    assert err == np.inf


def exact_states(monkeypatch):
    """A list that receives the number of states each later
    ``BranchSystem._choice`` call evaluates at the exact weights."""
    sizes, choice = [], BranchSystem._choice

    def counted(self, x, u):
        sizes.append(x.size)
        return choice(self, x, u)

    monkeypatch.setattr(BranchSystem, "_choice", counted)
    return sizes


# states that one step of a fixed block of 2^20 uniform states leaves to the
# exact weights: a looser bound raises them, which no byte test can see
EXACT_STATES = {"haar": 3, "fejer-1": 11472, "fejer-2": 33689, "fejer-3": 67105}


@pytest.mark.parametrize("name", list(FILTERS))
def test_draft_leaves_few_states_to_the_exact_weights(name, monkeypatch):
    system = FILTERS[name]()
    rng = stream_rng(5, 0)
    x, u = rng.random(2**20), rng.random((1, 2**20))
    sizes = exact_states(monkeypatch)
    system.step(x, u)
    assert sum(sizes) <= EXACT_STATES[name]


def three_branches(scale=1.0):
    """A three-branch IFS on [0, 1] with weights that vary with x, and its
    draft: the weights plus 1e-6 sin(1e3 x) times (1, -2, 1), so the
    running sums lie within 1e-6, 1e-6 and round-off of the exact ones,
    and tol bounds them by 2e-6, 2e-6 and 1e-14.  ``scale`` < 1
    under-weights both."""
    def weights(x):
        p0 = 0.2 + 0.1 * np.cos(2 * np.pi * x)
        p1 = 0.3 + 0.2 * x * x
        return scale * np.array([p0, p1, 1.0 - p0 - p1])

    def draft(x):
        return (weights(x) + scale * 1e-6 * np.sin(1e3 * x) * np.array([[1.0], [-2.0], [1.0]]),
                (2e-6, 2e-6, 1e-14))

    return BranchSystem(grid=Grid(0.0, 1.0, 64), branches=[lambda x, k=k: (x + k) / 3 for k in range(3)],
                        weights=weights, normalized=scale == 1.0, name="three", draft=draft)


def test_a_three_branch_draft_steps_as_its_weights(monkeypatch):
    system = three_branches()
    rng = stream_rng(12, 0)
    x = rng.random(3000)
    cdf = np.cumsum(system.weight_matrix(x), axis=0)
    v = rng.random(x.size)
    # a third of the uniforms within 1e-6 of a CDF edge, for the exact weights
    edge = np.choose(rng.integers(0, 2, x.size), cdf[:2]) + (v - 0.5) * 2e-6
    u = np.where(np.arange(x.size) % 3 == 0, edge, v)[None, :]
    sizes = exact_states(monkeypatch)
    got = system.step(x, u)
    assert 0 < sum(sizes) < x.size  # both paths ran
    assert got.tobytes() == exact(system).step(x, u).tobytes()
    under = three_branches(0.9)
    for s in (under, exact(under)):
        with pytest.raises(ValueError, match="do not sum to 1$"):
            s.step(x, u)
