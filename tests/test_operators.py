import re

import numpy as np
import pytest

from transferchain.grids import (
    DiscreteMeasure,
    Grid,
    GridFunction,
    GridMismatchError,
    integrate,
    stream_rng,
    uniform_measure,
)
from transferchain.invariant import halving_ifs
from transferchain.operators import (
    BranchEscapeError,
    BranchSystem,
    CircleFilterOperator,
    ControlledSystem,
    GaussOperator,
    apply_branch,
    apply_gauss,
    apply_integral,
    apply_ruelle_adjoint,
    apply_ruelle_circle,
    cell_flow_matrix,
    circle_filter_system,
    bernoulli_support,
    bernoulli_system,
    doubling_system,
    gauss_operator,
    logistic_system,
    parametric_system,
    parametric_weight,
    pullout_check,
    radon_nikodym,
    random_control_system,
)
from transferchain.wavelets import (
    TrigPoly,
    WaveletFilter,
    autocorrelation,
    box_scaling_function,
    haar_filter,
    stretched_box_filter,
)


def rand_trig(grid, rng, deg=3):
    a = rng.normal(size=deg) / np.arange(1, deg + 1) ** 2
    b = rng.normal(size=deg) / np.arange(1, deg + 1) ** 2

    def fn(x):
        out = np.zeros(np.shape(x))
        for k in range(deg):
            out = out + a[k] * np.cos(2 * np.pi * (k + 1) * x) \
                      + b[k] * np.sin(2 * np.pi * (k + 1) * x)
        return out / 3.0

    return GridFunction.from_callable(grid, fn)


# ---------------------------------------------------------------------------
# branch form
# ---------------------------------------------------------------------------

def test_branch_normalized_r1():
    g = Grid(0.0, 1.0, 512)
    for sys in (doubling_system(g), logistic_system(g), parametric_system(g, 0.3)):
        r1 = apply_branch(sys, GridFunction.constant(g, 1.0))
        assert np.max(np.abs(r1.values - 1.0)) == 0.0


def test_logistic_identity_collapses():
    g = Grid(0.0, 1.0, 4096)
    rid = apply_branch(logistic_system(g), GridFunction.from_callable(g, lambda x: x))
    # the two branches sum to 1, so R(id) = 1/2 pointwise
    assert np.max(np.abs(rid.values - 0.5)) <= 1e-12


def test_doubling_kills_first_harmonic():
    g = Grid(0.0, 1.0, 1024, "circle")
    f = GridFunction.from_callable(g, lambda x: np.cos(2 * np.pi * x))
    rf = apply_branch(doubling_system(g), f)
    assert np.max(np.abs(rf.values)) <= 1e-10


def test_branch_left_inverse_validation():
    g = Grid(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="right inverse"):
        BranchSystem(grid=g, sigma=lambda x: x,
                     branches=[lambda x: x / 2.0],
                     weights=lambda x: 1.0)


def test_branch_escape_error_names_branch():
    g = Grid(0.0, 1.0, 64)
    sys = BranchSystem(grid=g, sigma=lambda x: x - 0.5,
                       branches=[lambda x: x + 0.5],
                       weights=lambda x: 1.0,
                       normalized=False)
    with pytest.raises(BranchEscapeError, match="branch 0"):
        apply_branch(sys, GridFunction.constant(g, 1.0))


# ---------------------------------------------------------------------------
# controlled form
# ---------------------------------------------------------------------------

def test_integral_constant():
    g = Grid(0.0, 1.0, 256)
    rc = random_control_system(g)
    r1 = apply_integral(rc, GridFunction.constant(g, 1.0))
    assert np.max(np.abs(r1.values - 1.0)) <= 1e-10


def test_integral_identity_closed_form():
    g = Grid(0.0, 1.0, 2048)
    rc = random_control_system(g)
    rid = apply_integral(rc, GridFunction.from_callable(g, lambda x: x))
    assert np.max(np.abs(rid.values - (1.0 + 2.0 * g.nodes) / 4.0)) <= 1e-8


def test_integral_degenerate_control():
    g = Grid(0.0, 1.0, 128)
    cs = ControlledSystem(grid=g, F=lambda x, i, u: x / 2.0 if i == 0 else x,
                          branch_probs=np.array([1.0, 0.0]))
    f = GridFunction.from_callable(g, lambda x: x)
    out = apply_integral(cs, f)
    assert np.allclose(out.values, f.eval(g.nodes / 2.0))


def test_controlled_flow_refuses_zero_width_interval():
    # a control interval of zero width is a point mass, which has no density
    # to spread; apply still evaluates it (test_integral_degenerate_control)
    g = Grid(0.0, 1.0, 16)
    cs = ControlledSystem(grid=g, F=lambda x, i, u: x / 2.0, branch_probs=np.array([1.0]),
                          name="halver")
    with pytest.raises(ValueError, match="halver has a control interval of zero width "
                                         r"at x = 0\.03125, so no cell flow"):
        cs.flow(g)
    # one zero-width branch is enough, even where the other has width
    mixed = ControlledSystem(grid=g, F=lambda x, i, u: u * x if i == 0 else x,
                             branch_probs=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="the controlled system has a control interval"):
        mixed.flow(g)


@pytest.mark.parametrize("make", [halving_ifs, random_control_system],
                         ids=["sparse", "controlled"])
def test_flow_products_refuse_a_vector_of_the_wrong_length(make):
    # a vector one too long was read up to the flow's length, silently
    g = Grid(0.0, 1.0, 8)
    M = cell_flow_matrix(make(g), g)
    for x in (np.ones(9), np.ones(7), np.ones((8, 1)), np.float64(1.0)):
        shapes = rf"a flow of shape \(8, 8\) and a vector of shape {re.escape(str(x.shape))}"
        with pytest.raises(ValueError, match=shapes):
            M @ x
        with pytest.raises(ValueError, match=shapes):
            x @ M
    # the right lengths still pass: both flows are column-stochastic
    assert (M @ np.full(8, 0.125)).sum() == pytest.approx(1.0)
    assert np.allclose(np.ones(8) @ M, np.ones(8))


def test_controlled_validation():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        ControlledSystem(grid=g, F=lambda x, i, u: x, branch_probs=np.array([0.7, 0.7]))
    # u^2 x is not affine in u: F(x, 0, 1/2) = x/4, not the midpoint x/2
    with pytest.raises(ValueError,
                       match=r"squarer: F\(x, i, u\) is not affine in u for branch i = 0$"):
        ControlledSystem(grid=g, F=lambda x, i, u: u * u * x, branch_probs=np.array([1.0]),
                         name="squarer")
    # each branch that can be taken is checked; one of probability 0 is not
    def sqrt_second(x, i, u):
        return u * x if i == 0 else np.sqrt(u) * x

    with pytest.raises(ValueError, match=r"not affine in u for branch i = 1$"):
        ControlledSystem(grid=g, F=sqrt_second, branch_probs=np.array([0.5, 0.5]))
    ControlledSystem(grid=g, F=sqrt_second, branch_probs=np.array([1.0, 0.0]))
    # apply and flow integrate over intervals of the line, not of a circle
    with pytest.raises(GridMismatchError, match="interval grid"):
        ControlledSystem(grid=Grid(0.0, 1.0, 16, "circle"), F=lambda x, i, u: u * x,
                         branch_probs=np.array([1.0]))


# ---------------------------------------------------------------------------
# circle Ruelle form
# ---------------------------------------------------------------------------

def test_from_samples_interpolates_midpoint_samples():
    pts = np.array([0.0, 0.1234, 0.5, 0.777])
    for n in (7, 8, 9, 12, 64):
        g = Grid(0.0, 1.0, n, "circle")
        v = stream_rng(n, 0).normal(size=n)
        p = TrigPoly.from_samples(v)
        assert p.lo == -(n // 2) and len(p.c) == 2 * (n // 2) + 1
        assert np.max(np.abs(p(g.nodes) - v)) <= 1e-13
        # band-limited data comes back as its own polynomial, between the nodes too
        fn = lambda t: 0.3 + np.cos(2 * np.pi * t) - 0.7 * np.sin(2 * np.pi * ((n - 1) // 2) * t)
        assert np.max(np.abs(TrigPoly.from_samples(fn(g.nodes))(pts) - fn(pts))) <= 1e-13
        if n % 2 == 0:  # the alternating samples are the Nyquist sine
            alt = TrigPoly.from_samples((-1.0) ** np.arange(n))
            assert np.max(np.abs(alt(pts) - np.sin(np.pi * n * pts))) <= 1e-13


def test_ruelle_haar_constant():
    g = Grid(0.0, 1.0, 1024, "circle")
    op = CircleFilterOperator(haar_filter())
    r1 = apply_ruelle_circle(op, GridFunction.constant(g, 1.0))
    assert np.max(np.abs(r1.values - 1.0)) <= 1e-12


def test_ruelle_zero_filter():
    g = Grid(0.0, 1.0, 64, "circle")
    zero = WaveletFilter(N=2, coeffs=np.zeros(2))
    out = apply_ruelle_circle(CircleFilterOperator(zero), GridFunction.constant(g, 1.0))
    assert np.all(out.values == 0.0)


def test_ruelle_haar_cosine_closed_form():
    g = Grid(0.0, 1.0, 1024, "circle")
    op = CircleFilterOperator(haar_filter())
    f = GridFunction.from_callable(g, lambda t: np.cos(2 * np.pi * t))
    rf = apply_ruelle_circle(op, f)
    t = g.nodes
    # |m0|^2 = 2 cos^2(pi t); average the two preimage contributions by hand
    expect = 0.5 * ((1 + np.cos(np.pi * t)) * np.cos(np.pi * t)
                    - (1 - np.cos(np.pi * t)) * np.cos(np.pi * t))
    assert np.max(np.abs(rf.values - expect)) <= 1e-10


def test_ruelle_grid_divisibility():
    # R acts on the trigonometric interpolant, so n need not be a multiple of N
    g = Grid(0.0, 1.0, 63, "circle")
    op = CircleFilterOperator(haar_filter())
    r1 = apply_ruelle_circle(op, GridFunction.constant(g, 1.0))
    assert np.max(np.abs(r1.values - 1.0)) <= 1e-12
    rc = apply_ruelle_circle(op, GridFunction.from_callable(g, lambda t: np.cos(2 * np.pi * t)))
    assert np.max(np.abs(rc.values - 0.5 * (1 + np.cos(2 * np.pi * g.nodes)))) <= 1e-12


def test_adjoint_closed_form_and_zero():
    g = Grid(0.0, 1.0, 512, "circle")
    op = CircleFilterOperator(haar_filter())
    a1 = apply_ruelle_adjoint(op, GridFunction.constant(g, 1.0))
    assert np.max(np.abs(a1.values - 2 * np.cos(np.pi * g.nodes) ** 2)) <= 1e-10
    z = apply_ruelle_adjoint(op, GridFunction.constant(g, 0.0))
    assert np.all(z.values == 0.0)


def test_adjoint_n3_alternating_closed_form():
    # the alternating samples on n = 12 midpoints interpolate to sin(12 pi t),
    # so R* f = |m0(t)|^2 sin(36 pi t); a doubled Nyquist term would double it
    g = Grid(0.0, 1.0, 12, "circle")
    box = WaveletFilter(N=3, coeffs=np.ones(3) / np.sqrt(3), name="box-3taps")
    t = g.nodes
    out = apply_ruelle_adjoint(CircleFilterOperator(box), GridFunction(g, (-1.0) ** np.arange(12)))
    m0_sq = (3 + 4 * np.cos(2 * np.pi * t) + 2 * np.cos(4 * np.pi * t)) / 3
    assert np.max(np.abs(out.values - m0_sq * np.sin(36 * np.pi * t))) <= 1e-12


def test_adjoint_duality():
    g = Grid(0.0, 1.0, 1024, "circle")
    rng = stream_rng(7, 0)
    for op in (CircleFilterOperator(haar_filter()), CircleFilterOperator(stretched_box_filter(3))):
        for _ in range(3):
            f = rand_trig(g, rng)
            h = rand_trig(g, rng)
            lhs = np.mean(apply_ruelle_circle(op, f).values * h.values)
            rhs = np.mean(f.values * apply_ruelle_adjoint(op, h).values)
            scale = np.max(np.abs(f.values)) * np.max(np.abs(h.values))
            assert abs(lhs - rhs) <= 1e-9 * max(scale, 1e-30)


def test_circle_filter_system_refuses_non_harmonic_h():
    g = Grid(0.0, 1.0, 16, "circle")
    with pytest.raises(ValueError, match=r"filter box-1: \|Rh - h\| = 0.15 > 1e-8"):
        circle_filter_system(g, stretched_box_filter(1), TrigPoly.even([1.0, 0.3]))
    bad = WaveletFilter(N=2, coeffs=np.array([0.8, 0.7]), name="bad")
    with pytest.raises(ValueError, match=r"filter bad: .* for h = 1 \(not normalized\)"):
        circle_filter_system(g, bad)
    for m in (1, 20):
        circle_filter_system(g, stretched_box_filter(m),
                             autocorrelation(box_scaling_function(m, 8)))


@pytest.mark.parametrize("base, h", [
    pytest.param(haar_filter(), None, id="haar"),
    pytest.param(stretched_box_filter(1), autocorrelation(box_scaling_function(1, 8)), id="box-1"),
    pytest.param(WaveletFilter(N=3, coeffs=np.ones(3) / np.sqrt(3)), None, id="box-3taps"),
])
def test_filter_weights_evaluate_m0_sq_once_per_branch(base, h):
    points = []

    class RecordingFilter(WaveletFilter):
        def m0_sq(self, t):
            points.append(np.size(t))
            return super().m0_sq(t)

    filt = RecordingFilter(N=base.N, coeffs=base.coeffs, name=base.name)
    system = circle_filter_system(Grid(0.0, 1.0, 64, "circle"), filt, h)
    points.clear()
    t = stream_rng(11, 0).random(37)
    w = system.weight_matrix(t)
    assert points == [t.size] * filt.N
    # (1/N) |m0|^2 h at the preimages over h(t), row k for preimage (t + k)/N;
    # the weights divide by the raw sum, which equals h(t) to round-off
    h_eval = h if h is not None else (lambda s: np.ones(np.shape(s)))
    pre = (t + np.arange(filt.N)[:, None]) / filt.N
    expect = base.m0_sq(pre) * h_eval(pre) / (filt.N * h_eval(t))
    assert w.shape == (filt.N, t.size)
    assert np.max(np.abs(w - expect)) <= 1e-10


@pytest.mark.parametrize("shape", [(3, 64), (3, 1), (2, 5)])
def test_branch_weights_need_one_row_per_branch(shape):
    g = Grid(0.0, 1.0, 64)
    with pytest.raises(ValueError, match=r"halves: weights of shape \(\d, \d+\) do not give "
                                         r"one row per branch, \(2, 64\)"):
        BranchSystem(grid=g, branches=[lambda x: 0.5 * x, lambda x: 0.5 * (x + 1.0)],
                     weights=lambda x: np.full(shape, 0.5), name="halves")
    ok = BranchSystem(grid=g, branches=[lambda x: 0.5 * x, lambda x: 0.5 * (x + 1.0)],
                      weights=lambda x: np.full((2, 1), 0.5), name="halves")
    assert np.array_equal(ok.weight_matrix(g.nodes), np.full((2, 64), 0.5))


# ---------------------------------------------------------------------------
# Gauss operator
# ---------------------------------------------------------------------------

def test_gauss_basel_sum():
    # R1(x) = sum_{n>=1} (n+x)^-2 = psi'(1+x): branch K's tail estimate
    # 1/(K + x + 1/2) leaves an O(K^-3) error, where dropping the tail
    # would leave 1/K.  The reference is 10^6 terms plus the same tail
    # estimate, whose O(10^-18) error is below round-off.
    g = Grid(0.0, 1.0, 64)
    val = apply_gauss(gauss_operator(K=1000), GridFunction.constant(g, 1.0)).values
    n = np.arange(1, 10**6 + 1)
    trigamma = np.array([np.sum((n + x) ** -2.0) + 1.0 / (10**6 + x + 0.5) for x in g.nodes])
    assert np.max(np.abs(val - trigamma)) <= 1e-9


def test_gauss_zero_and_validation():
    g = Grid(0.0, 1.0, 64)
    out = apply_gauss(gauss_operator(K=100), GridFunction.constant(g, 0.0))
    assert np.all(out.values == 0.0)
    with pytest.raises(ValueError):
        GaussOperator(truncation_K=1)


def test_gauss_truncation_capped_at_a_million_branches():
    # digits past 10^6 break the 1e-10 solenoid constraint (GaussOperator.step)
    with pytest.raises(ValueError, match="need at most 1000000 Gauss branches"):
        gauss_operator(10**6 + 1)
    assert gauss_operator(10**6).truncation_K == 10**6


def test_gauss_weight_consistency():
    # int (R f) dx = int f W dx with W from the operator's own cell flow
    g = Grid(0.0, 1.0, 512)
    op = gauss_operator(K=10_000)
    lam = uniform_measure(g)
    f = GridFunction.from_callable(g, lambda x: x)
    lhs = integrate(apply_gauss(op, f), lam)
    W = radon_nikodym(op, lam)
    rhs = integrate(GridFunction(g, f.values * W.values), lam)
    assert abs(lhs - rhs) <= 2e-4


def test_gauss_density_harmonic():
    g = Grid(0.0, 1.0, 512)
    op = gauss_operator(K=10_000)
    h = GridFunction.from_callable(g, GaussOperator.density)
    rh = apply_gauss(op, h)
    assert np.max(np.abs(rh.values - h.values)) <= 1e-6


# ---------------------------------------------------------------------------
# pull-out property
# ---------------------------------------------------------------------------

def test_pullout_constant_f():
    g = Grid(0.0, 1.0, 512)
    sys = doubling_system(g)
    rng = stream_rng(8, 0)
    gfun = rand_trig(g, rng)
    c = GridFunction.constant(g, 0.7)
    assert pullout_check(sys, c, gfun) <= 1e-12


def test_pullout_doubling_budget():
    g = Grid(0.0, 1.0, 4096)
    f = GridFunction.from_callable(g, lambda x: np.sin(2 * np.pi * x))
    ident = GridFunction.from_callable(g, lambda x: x)
    assert pullout_check(doubling_system(g), f, ident) <= 5e-6


def test_pullout_logistic_random_trig():
    g = Grid(0.0, 1.0, 4096)
    rng = stream_rng(9, 0)
    sys = logistic_system(g)
    for _ in range(3):
        assert pullout_check(sys, rand_trig(g, rng), rand_trig(g, rng)) <= 1e-5


def test_pullout_quadratic_refinement():
    rng_master = 10
    medians = []
    for n in (512, 1024, 2048, 4096):
        g = Grid(0.0, 1.0, n)
        sys = logistic_system(g)
        rng = stream_rng(rng_master, 0)
        vals = [pullout_check(sys, rand_trig(g, rng), rand_trig(g, rng))
                for _ in range(3)]
        medians.append(np.median(vals))
    for a, b in zip(medians, medians[1:]):
        assert a / b >= 3.0


def test_pullout_needs_sigma():
    # the Bernoulli branches invert an endomorphism only while their images
    # do not overlap, that is for a <= 1/2
    for a, has_sigma in ((0.5, True), (0.6, False)):
        s = bernoulli_support(a)
        sys = bernoulli_system(Grid(-s, s, 256), a)
        assert (sys.sigma is not None) == has_sigma
    f = GridFunction.constant(sys.grid, 1.0)
    with pytest.raises(ValueError, match="no endomorphism"):
        pullout_check(sys, f, f)


# ---------------------------------------------------------------------------
# Radon-Nikodym weights
# ---------------------------------------------------------------------------

def test_rn_doubling_is_one():
    g = Grid(0.0, 1.0, 512)
    W = radon_nikodym(doubling_system(g), uniform_measure(g))
    assert np.max(np.abs(W.values - 1.0)) <= 1e-10


@pytest.mark.parametrize("n", [1000, 512])
def test_rn_parametric_step_function(n):
    g = Grid(0.0, 1.0, n)
    u = 0.3
    W = radon_nikodym(parametric_system(g, u), uniform_measure(g))
    exact = parametric_weight(u)(g.nodes)
    off_break = np.abs(g.nodes - u) > g.dx
    assert np.max(np.abs(W.values - exact)[off_break]) <= 1e-10


def test_rn_requires_fully_charged_reference():
    g = Grid(0.0, 1.0, 16)
    w = np.full(g.n, 1.0 / (g.n - 1))
    w[3] = 0.0
    with pytest.raises(ValueError):
        radon_nikodym(doubling_system(g), DiscreteMeasure(g, w, normalized=False))


# ---------------------------------------------------------------------------
# cell flow
# ---------------------------------------------------------------------------

def test_decreasing_branch_spreads_over_its_image():
    # cell 63 = [63/64, 1) maps to [1/2 - 1/16, 1/2] under the decreasing
    # branch (1 - sqrt(1-x))/2 and to [1/2, 1/2 + 1/16] under the other: each
    # image covers four cells, and each branch carries weight 1/2
    g = Grid(0.0, 1.0, 64)
    col = np.asarray(cell_flow_matrix(logistic_system(g), g))[:, 63]
    assert np.allclose(col[28:36], 0.125, rtol=0, atol=1e-12)
    assert np.sum(col[28:36]) == pytest.approx(1.0, abs=1e-12)
    assert np.all(col[:28] == 0.0) and np.all(col[36:] == 0.0)


def test_random_control_flow_matches_cdf_rows(random_control_cdf):
    # entry (i, j) is the difference of the closed-form CDF from midpoint j
    # at the edges of cell i
    for n in (2, 3, 64, 1000):
        g = Grid(0.0, 1.0, n)
        M = cell_flow_matrix(random_control_system(g), g)
        ref = np.diff(random_control_cdf(g.nodes[None, :], g.edges[:, None]), axis=0)
        columns = np.stack([M @ e for e in np.eye(n)], axis=1)
        assert np.allclose(columns, ref, rtol=0.0, atol=4e-16)
        v = stream_rng(3, 0).normal(size=n)
        assert np.allclose(v @ M, v @ ref, rtol=0.0, atol=1e-13)
        assert np.allclose(np.ones(n) @ M, 1.0, rtol=0.0, atol=4e-16)
        w = stream_rng(3, 1).random(n)
        assert np.allclose(M @ w, ref @ w, rtol=1e-13, atol=0.0)
        assert M.min() == 0.0 and M.shape == (n, n)


def test_controlled_flow_spreads_affine_intervals_like_branch_images():
    # with F(x, i, u) = tau_i(x) + u h, each source midpoint's mass spreads
    # uniformly over [tau_i(x), tau_i(x) + h]: a decreasing F in u, images
    # that leave the grid (their mass goes to the end cell) and a branch of
    # probability 0 that adds nothing
    g = Grid(-1.0, 1.0, 10)
    h = 0.3
    cs = ControlledSystem(grid=g, F=lambda x, i, u: (0.5 * x + (1.0 - u) * h if i == 0
                                                      else 0.5 * x + 0.6 + u * h if i == 1
                                                      else x + u),
                          branch_probs=np.array([0.25, 0.75, 0.0]))
    M = cell_flow_matrix(cs, g)
    cuts = np.concatenate(([-np.inf], g.edges[1:-1], [np.inf]))  # end cells reach out
    ref = np.zeros((g.n, g.n))
    for j, x in enumerate(g.nodes):
        for p, lo in ((0.25, 0.5 * x), (0.75, 0.5 * x + 0.6)):
            ref[:, j] += p * np.diff(np.clip(cuts, lo, lo + h)) / h
    columns = np.stack([M @ e for e in np.eye(g.n)], axis=1)
    assert np.allclose(columns, ref, rtol=0.0, atol=1e-15)
    assert ref[-1, -1] > 0.0  # the image past the upper end went to the end cell
    # apply averages over the interval whichever way F runs through it
    rising = ControlledSystem(grid=g, F=lambda x, i, u: (0.5 * x + u * h if i == 0
                                                          else 0.5 * x + 0.6 + u * h),
                              branch_probs=np.array([0.25, 0.75]))
    f = GridFunction(g, stream_rng(4, 0).normal(size=g.n))
    assert np.array_equal(apply_integral(cs, f).values, apply_integral(rising, f).values)


# ---------------------------------------------------------------------------
# shared operator properties
# ---------------------------------------------------------------------------

def test_positivity_all_forms():
    rng = stream_rng(11, 0)
    g = Grid(0.0, 1.0, 256)
    gc = Grid(0.0, 1.0, 256, "circle")
    ops = [doubling_system(g), logistic_system(g), parametric_system(g, 0.4),
           random_control_system(g), gauss_operator(K=200),
           circle_filter_system(gc, haar_filter())]
    for op in ops:
        grid = getattr(op, "grid", None) or g
        f = GridFunction(grid, rng.random(grid.n))
        assert np.min(op.apply(f).values) >= 0.0


def test_normalization_propagation():
    g = Grid(0.0, 1.0, 512)
    gc = Grid(0.0, 1.0, 512, "circle")
    ops = [doubling_system(g), parametric_system(g, 0.25),
           random_control_system(g), circle_filter_system(gc, haar_filter())]
    for op in ops:
        grid = getattr(op, "grid", None) or g
        r1 = op.apply(GridFunction.constant(grid, 1.0))
        assert np.max(np.abs(r1.values - 1.0)) <= 1e-10
