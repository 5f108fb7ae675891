"""Named verification checks grouped into suites, and the built-in systems.

``SYSTEMS`` declares each built-in system once: its operator, the law of
T_0 and its stationary law where there is one.  The checks and the CLI's
``invariant`` and ``simulate`` commands build their chains from it.  Each
check declares its threshold and direction once, beside its name, and
computes one statistic; the CLI's ``verify`` command runs a suite and
reports one record per check.  All randomness is derived from the run's
master seed through fixed stream offsets, so a seed pins every statistic
exactly, and checks can run at the same time.  A check holds one path
ensemble at a time, so two checks at once stay within memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import chains, invariant, operators, schur, solenoid, wavelets
from .grids import (
    DiscreteMeasure,
    Grid,
    GridFunction,
    arcsine_measure,
    arcsine_ppf,
    gauss_measure,
    gauss_ppf,
    ks_distance,
    ks_two_sample,
    measure_ppf,
    stream_rng,
    uniform_measure,
    uniform_ppf,
)

__all__ = ["CheckResult", "run_suite", "logistic_separation_search"]


@dataclass
class CheckResult:
    name: str
    statistic: float
    threshold: float
    direction: str  # "<=" or ">="
    suite: str = ""
    runtime_ms: float = 0.0
    detail: str = ""

    @property
    def label(self) -> str:
        """``suite/name`` for a registered check, the bare name otherwise."""
        return f"{self.suite}/{self.name}" if self.suite else self.name

    @property
    def passed(self) -> bool:
        if self.direction == "<=":
            return self.statistic <= self.threshold
        return self.statistic >= self.threshold


_REGISTRY: list = []  # (suite, name, threshold, direction, fn), in declaration order


def _check(suite: str, name: str, threshold: float, direction: str = "<="):
    """Register fn(master_seed, fault) -> (statistic, detail) as the check
    ``suite/name``, which passes when ``statistic direction threshold``."""
    def deco(fn: Callable):
        _REGISTRY.append((suite, name, threshold, direction, fn))
        return fn

    return deco


def run_suite(suite: str, master_seed: int = 9001,
              inject_fault: Optional[str] = None, threads: int = 1) -> list:
    """Run every check of a suite ("all" runs the union, suite order) on
    ``min(threads, cpu count)`` threads, each check sampling on its own.
    Every check seeds itself, so the statistics do not depend on
    ``threads``.  Each statistic is compared against its check's declared
    threshold.  The results come in registry order, and a failing run
    raises the error of the first failing check in that order.  An
    ``inject_fault`` outside ``FAULTS`` is refused, not ignored."""
    known = {c[0] for c in _REGISTRY}
    if suite != "all" and suite not in known:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(known)} or 'all'")
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; choose from {list(FAULTS)}")
    if threads < 1:
        raise ValueError("need threads >= 1")

    def run(check) -> CheckResult:
        s, name, thresh, direction, fn = check
        t0 = time.perf_counter()
        stat, detail = fn(master_seed, inject_fault)
        ms = (time.perf_counter() - t0) * 1000.0
        return CheckResult(name=name, suite=s, statistic=float(stat),
                           threshold=float(thresh), direction=direction,
                           runtime_ms=ms, detail=detail)

    checks = [c for c in _REGISTRY if suite in ("all", c[0])]
    return chains._map_blocks(run, checks, min(threads, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class System:
    """A built-in system, declared once.  ``build(grid_n, **params)``
    constructs it; ``params`` holds each parameter's default, whose type is
    the parameter's.  ``simulate`` serves the systems with a ``t0``, where
    ``t0(**params)`` is the quantile function of T_0's law; ``invariant``
    those with a ``gate``, the metric ("l1" or "w1") and tolerance the
    stationary density on ``Grid(0, 1, grid_n)`` is held to.  Both compare
    against ``stationary(grid)``, the stationary law, where there is one."""

    build: Callable
    params: dict = field(default_factory=dict)
    t0: Optional[Callable] = None
    stationary: Optional[Callable] = None
    gate: Optional[tuple] = None


def _circle(n: int) -> Grid:
    return Grid(0.0, 1.0, max(n, 4096), "circle")


def _bernoulli(n: int, a: float):
    span = operators.bernoulli_support(a)
    return operators.bernoulli_system(Grid(-span, span, n), a)


def _fejer(m: int):  # the stretched box filter and its harmonic function
    return (wavelets.stretched_box_filter(m),
            wavelets.autocorrelation(wavelets.box_scaling_function(m, 8)))


def _fejer_t0(m: int):  # the law of the solenoid coordinate 0
    return partial(measure_ppf, solenoid.pi_k_distribution(*_fejer(m), 0, _circle(4096)))


_TWO_STATE = np.array([[0.9, 0.1], [0.5, 0.5]])  # the two-state chain's transition matrix

SYSTEMS = {
    "gauss": System(lambda n, K: operators.gauss_operator(K), {"K": 10_000},
                    t0=lambda K: gauss_ppf, stationary=gauss_measure, gate=("l1", 0.02)),
    "doubling": System(lambda n: operators.doubling_system(Grid(0.0, 1.0, n)),
                       t0=lambda: uniform_ppf, stationary=uniform_measure, gate=("l1", 1e-6)),
    "random-control": System(lambda n: operators.random_control_system(Grid(0.0, 1.0, n)),
                             t0=lambda: arcsine_ppf, stationary=arcsine_measure,
                             gate=("l1", 0.03)),
    # the arcsine density is unbounded at both ends, so the logistic law is
    # gated on Wasserstein-1, which weighs the endpoint cells by their mass
    "logistic": System(lambda n: operators.logistic_system(Grid(0.0, 1.0, n)),
                       t0=lambda: arcsine_ppf, stationary=arcsine_measure, gate=("w1", 0.01)),
    "halving": System(lambda n: invariant.halving_ifs(Grid(0.0, 1.0, n)),
                      stationary=uniform_measure, gate=("l1", 1e-3)),
    "parametric-u": System(lambda n, u: operators.parametric_system(Grid(0.0, 1.0, n), u),
                           {"u": 0.3}, t0=lambda u: uniform_ppf),
    # starts at the fixed point 0 and mixes toward the convolution law, so
    # no stationary-marginal check applies at finite step counts
    "bernoulli-a": System(_bernoulli, {"a": 0.5}, t0=lambda a: np.zeros_like),
    "haar": System(lambda n: operators.circle_filter_system(_circle(n),
                                                            wavelets.haar_filter()),
                   t0=lambda: uniform_ppf),
    "fejer-m": System(lambda n, m: operators.circle_filter_system(_circle(n), *_fejer(m)),
                      {"m": 1}, t0=_fejer_t0),
    # the chain on the states 0 and 1, started uniform on them
    "two-state": System(lambda n: operators.finite_system(Grid(0.0, 1.0, n), [0.0, 1.0],
                                                          _TWO_STATE),
                        t0=lambda: lambda u: np.where(u > 0.5, 1.0, 0.0)),
}


def _sampler(name: str, seed: int, n: int = 512, **params) -> chains.MarkovSampler:
    """The chain of the built-in system ``name`` on ``n`` cells, started in
    its T_0 law and seeded with ``seed``; ``params`` override the defaults."""
    system = SYSTEMS[name]
    params = {**system.params, **params}
    return chains.MarkovSampler(system.build(n, **params), system.t0(**params), seed)


def _ulam_stationary(name: str, n: int, iterate: dict, **params):
    """The Ulam stationary law of the built-in system ``name`` on
    ``Grid(0, 1, n)``, by ``power_iterate(..., **iterate)``, with
    ``params`` over the defaults: the L1 distance from the system's
    stationary law, the iteration's result and that law on the grid."""
    system, g = SYSTEMS[name], Grid(0.0, 1.0, n)
    op = system.build(n, **{**system.params, **params})
    res = invariant.power_iterate(invariant.build_ulam(op, g), **iterate)
    ref = system.stationary(g)
    return float(np.abs(res.measure.weights - ref.weights).sum()), res, ref


def _trig_pair(grid: Grid, rng: np.random.Generator):
    deg = 3  # harmonics in each random trigonometric polynomial

    def draw():
        a = rng.normal(size=deg) / np.arange(1, deg + 1) ** 2
        b = rng.normal(size=deg) / np.arange(1, deg + 1) ** 2

        def fn(x):
            out = np.zeros(np.shape(x))
            for k in range(deg):
                out = out + a[k] * np.cos(2 * np.pi * (k + 1) * x) \
                          + b[k] * np.sin(2 * np.pi * (k + 1) * x)
            return out / 3.0

        return GridFunction.from_callable(grid, fn)

    return draw(), draw()


# ---------------------------------------------------------------------------
# operators suite (includes the invariant-measure criteria)
# ---------------------------------------------------------------------------

@_check("operators", "gauss-invariant-density-l1", SYSTEMS["gauss"].gate[1])
def _gauss_density(seed, fault):
    l1, res, _ = _ulam_stationary("gauss", 512, dict(tol=1e-12, max_iters=2000))
    return l1, f"{res.iterations} iterations, residual {res.residual:.2e}"


@_check("operators", "gauss-ulam-column-sums", 1e-3)
def _gauss_colsums(seed, fault):
    g = Grid(0.0, 1.0, 512)
    cs = invariant.build_ulam(operators.gauss_operator(K=10_000), g).column_sums
    worst = float(np.max(np.abs(cs - 1.0)))
    return worst, f"column sums in [{cs.min():.6f}, {cs.max():.6f}]"


@_check("operators", "doubling-invariant-uniform-l1", SYSTEMS["doubling"].gate[1])
def _doubling_density(seed, fault):
    l1, _, _ = _ulam_stationary("doubling", 512, {})
    return l1, ""


@_check("operators", "random-control-invariant-arcsine-l1", SYSTEMS["random-control"].gate[1])
def _rc_density(seed, fault):
    l1, _, _ = _ulam_stationary("random-control", 1024, dict(max_iters=3000))
    return l1, ""


@_check("operators", "arcsine-invariance-residuals", 5e-4)
def _arcsine_residuals(seed, fault):
    g = Grid(0.0, 1.0, 2048)
    rc = operators.random_control_system(g)
    fs = [GridFunction.constant(g, 1.0),
          GridFunction.from_callable(g, lambda x: x),
          GridFunction.from_callable(g, lambda x: x**2),
          GridFunction.from_callable(g, lambda x: np.cos(2 * np.pi * x))]
    res = invariant.verify_invariance(arcsine_measure(g), rc, fs)
    return max(res), "f in {1, x, x^2, cos 2pi x}"


@_check("operators", "gauss-lebesgue-invariance", 5e-4)
def _gauss_lebesgue(seed, fault):
    g = Grid(0.0, 1.0, 512)
    res = invariant.verify_invariance(
        uniform_measure(g), operators.gauss_operator(K=10_000),
        [GridFunction.from_callable(g, lambda x: x)])
    return res[0], ""


@_check("operators", "logistic-pushforward-arcsine-ks", 0.02)
def _logistic_pushforward(seed, fault):
    rng = stream_rng(seed, 101)
    x = arcsine_ppf(rng.random(100_000))
    for _ in range(20):
        x = 4.0 * x * (1.0 - x)
    ks = ks_distance(x, arcsine_measure(Grid(0.0, 1.0, 2048)))
    return ks, "20 forward iterations of 10^5 arcsine points"


@_check("operators", "logistic-uniform-weight-separation", 0.01, ">=")
def _logistic_separation(seed, fault):
    best_name, best = logistic_separation_search()
    detail = ("no separating test function exists: the uniform-weight "
              "backward move provably preserves the arcsine law "
              f"(largest residual {best:.2e} from {best_name})")
    return best, detail


def logistic_separation_search():
    """Search the candidate family for a function separating the arcsine
    measure from its image under the uniform-weight logistic operator on a
    4096-cell grid.

    The search comes up empty: with x = sin^2(theta) the two inverse
    branches are sin^2(theta/2) and sin^2(pi/2 - theta/2), and an even
    mixture of theta/2 and pi/2 - theta/2 for theta uniform on (0, pi/2)
    is again uniform, so the move maps arcsine to arcsine exactly.
    """
    g = Grid(0.0, 1.0, 4096)
    ls = operators.logistic_system(g)
    mu = arcsine_measure(g)
    cands = {
        "x": lambda x: x,
        "x^2": lambda x: x**2,
        "x^3": lambda x: x**3,
        "x^4": lambda x: x**4,
        "cos(pi x)": lambda x: np.cos(np.pi * x),
        "cos(2 pi x)": lambda x: np.cos(2 * np.pi * x),
        "exp(x)": lambda x: np.exp(x),
        "sqrt(x)": lambda x: np.sqrt(x),
        "|x - 0.7|": lambda x: np.abs(x - 0.7),
        "indicator[0,0.3]": lambda x: (x <= 0.3).astype(float),
    }
    best_name, best = "", -np.inf
    for name, fn in cands.items():
        r = invariant.verify_invariance(mu, ls, [GridFunction.from_callable(g, fn)])[0]
        if r > best:
            best_name, best = name, r
    return best_name, best


_MIS_NORMALIZED = "mis-normalized-filter"
FAULTS = (_MIS_NORMALIZED,)  # the faults a run can inject, each read by the check below


@_check("operators", "normalization-R1", 1e-10)
def _normalization(seed, fault):
    g = Grid(0.0, 1.0, 1024)
    gc = Grid(0.0, 1.0, 1024, "circle")
    ops = [operators.doubling_system(g),
           operators.parametric_system(g, 0.3),
           operators.random_control_system(g),
           operators.circle_filter_system(gc, wavelets.haar_filter())]
    r1s = [op.apply(GridFunction.constant(op.grid, 1.0)) for op in ops]
    if fault == _MIS_NORMALIZED:
        bad = wavelets.WaveletFilter(N=2, coeffs=np.array([0.8, 0.7]), name="bad")
        r1s.append(operators.apply_ruelle_circle(bad, GridFunction.constant(gc, 1.0)))
    worst = max(float(np.max(np.abs(r1.values - 1.0))) for r1 in r1s)
    return worst, "R1 = 1 on every normalized operator"


@_check("operators", "pullout-residual", 5e-6)
def _pullout(seed, fault):
    g = Grid(0.0, 1.0, 4096)
    rng = stream_rng(seed, 102)
    f = GridFunction.from_callable(g, lambda x: np.sin(2 * np.pi * x))
    ident = GridFunction.from_callable(g, lambda x: x)
    r_doub = operators.pullout_check(operators.doubling_system(g), f, ident)
    r_log = max(operators.pullout_check(operators.logistic_system(g), *_trig_pair(g, rng))
                for _ in range(3))
    return max(r_doub, r_log / 2.0), f"doubling {r_doub:.2e}, logistic {r_log:.2e} (<= 1e-5)"


@_check("operators", "ruelle-adjoint-duality", 1e-9)
def _duality(seed, fault):
    g = Grid(0.0, 1.0, 1024, "circle")
    rng = stream_rng(seed, 103)
    haar = wavelets.haar_filter()
    worst = 0.0
    for _ in range(3):
        f, h = _trig_pair(g, rng)
        lhs = float(np.mean(operators.apply_ruelle_circle(haar, f).values * h.values))
        rhs = float(np.mean(f.values * operators.apply_ruelle_adjoint(haar, h).values))
        scale = max(np.max(np.abs(f.values)) * np.max(np.abs(h.values)), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst, ""


@_check("operators", "radon-nikodym-parametric", 1e-10)
def _rn_parametric(seed, fault):
    g = Grid(0.0, 1.0, 1000)
    W = operators.radon_nikodym(operators.parametric_system(g, 0.3), uniform_measure(g))
    exact = operators.parametric_weight(0.3)(g.nodes)
    return float(np.max(np.abs(W.values - exact))), "u = 0.3, breakpoint on a cell edge"


@_check("operators", "positivity", 0.0)
def _positivity(seed, fault):
    rng = stream_rng(seed, 104)
    g = Grid(0.0, 1.0, 512)
    gc = Grid(0.0, 1.0, 512, "circle")
    worst = 0.0
    for op, grid in ((operators.doubling_system(g), g),
                     (operators.logistic_system(g), g),
                     (operators.random_control_system(g), g),
                     (operators.gauss_operator(K=500), g),
                     (operators.circle_filter_system(gc, wavelets.haar_filter()), gc)):
        f = GridFunction(grid, rng.random(grid.n))
        worst = min(worst, float(np.min(op.apply(f).values)))
    return -worst, "min node value of R f over nonnegative f"


_CANTOR_N = 2187  # 3^7 cells: the grid of both Cantor checks


@_check("operators", "hutchinson-cantor-moments", 1e-3)
def _cantor(seed, fault):
    g = Grid(0.0, 1.0, _CANTOR_N)
    res = invariant.hutchinson_iterate(invariant.cantor_ifs(g), uniform_measure(g), 40)
    mean, var = invariant.measure_moments(res.measure)
    stat = max(abs(mean - 0.5), abs(var - 0.125))
    return stat, f"mean {mean:.6f}, variance {var:.6f}"


@_check("operators", "hutchinson-contraction-ratio", 1.0 / 3.0 + 2.0 / _CANTOR_N)
def _cantor_ratio(seed, fault):
    g = Grid(0.0, 1.0, _CANTOR_N)
    spike = np.zeros(g.n)
    spike[100] = 1.0
    cert = invariant.contraction_certificate(
        invariant.cantor_ifs(g), uniform_measure(g),
        DiscreteMeasure(g, spike, normalized=True))
    return cert.ratio, f"alpha bound {cert.alpha_bound:.4f}"


# ---------------------------------------------------------------------------
# chains suite
# ---------------------------------------------------------------------------

@_check("chains", "kolmogorov-moment-doubling", 4.0)
def _moment_doubling(seed, fault):
    gq = Grid(0.0, 1.0, 32768)
    op = operators.doubling_system(gq)
    one = GridFunction.constant(gq, 1.0)
    ident = GridFunction.from_callable(gq, lambda x: x)
    sq = GridFunction.from_callable(gq, lambda x: x**2)
    pe = chains.simulate_paths(_sampler("doubling", seed), 1_000_000, 2)
    worst = 0.0
    for fs_grid, fs_mc in (([ident, ident], [lambda x: x] * 2),
                           ([ident, sq, ident], [lambda x: x, lambda x: x**2, lambda x: x])):
        nested = chains.nested_operator_expectation(op, one, uniform_measure(gq), fs_grid)
        mom = chains.path_moment_mc(pe, fs_mc)
        worst = max(worst, abs(mom.mean - nested) / mom.std_error)
    return worst, "products of up to 3 coordinate functions, 10^6 paths"


@_check("chains", "kolmogorov-moment-random-control", 4.0)
def _moment_rc(seed, fault):
    gq = Grid(0.0, 1.0, 8192)
    s = _sampler("random-control", seed + 1, gq.n)
    op = s.system
    one = GridFunction.constant(gq, 1.0)
    ident = GridFunction.from_callable(gq, lambda x: x)
    cosf = GridFunction.from_callable(gq, lambda x: np.cos(2 * np.pi * x))
    pe = chains.simulate_paths(s, 1_000_000, 2)
    worst = 0.0
    for fs_grid, fs_mc in (([ident, ident], [lambda x: x] * 2),
                           ([ident, cosf, ident],
                            [lambda x: x, lambda x: np.cos(2 * np.pi * x), lambda x: x])):
        nested = chains.nested_operator_expectation(op, one, arcsine_measure(gq), fs_grid)
        mom = chains.path_moment_mc(pe, fs_mc)
        worst = max(worst, abs(mom.mean - nested) / mom.std_error)
    return worst, ""


@_check("chains", "quasi-invariance-parametric", 4.0)
def _quasi(seed, fault):
    worst = 0.0
    details = []
    for i, u in enumerate((0.3, 0.5, 0.7)):
        g = Grid(0.0, 1.0, 512)
        s = _sampler("parametric-u", seed + 10 + i, u=u)
        W = operators.parametric_weight(u)
        if u == 0.5:
            flat = float(np.max(np.abs(W(g.nodes) - 1.0)))
            details.append(f"W(0.5) deviates from 1 by {flat:.1e}")
        z = chains.quasi_invariance_check(chains.simulate_paths(s, 1_000_000, 2), W,
                                          lambda x: x, 1)
        worst = max(worst, z)
        details.append(f"u={u}: z={z:.2f}")
    return worst, "; ".join(details)


@_check("chains", "quasi-invariance-wrong-weight", 8.0, ">=")
def _quasi_wrong(seed, fault):
    pe = chains.simulate_paths(_sampler("parametric-u", seed + 13, u=0.3), 1_000_000, 2)
    z = chains.quasi_invariance_check(pe, operators.parametric_weight(0.7), lambda x: x, 1)
    return z, "swapped weight constants must be detected"


@_check("chains", "martingale-harmonic", 5.0)
def _martingale(seed, fault):
    g = Grid(0.0, 1.0, 512)
    gc = _circle(g.n)
    bins = Grid(0.0, 1.0, 32)
    one = GridFunction.constant(g, 1.0)
    systems = [
        (_sampler("doubling", seed + 20), one, g),
        (_sampler("parametric-u", seed + 21, u=0.3), one, g),
        (_sampler("random-control", seed + 22), one, g),
        (_sampler("gauss", seed + 23), one, g),
        (_sampler("haar", seed + 24), GridFunction.constant(gc, 1.0), gc),
    ]
    worst = 0.0
    for s, h, grid in systems:
        pe = chains.simulate_paths(s, 500_000, 2)
        for k in (1, 2):
            bins_here = bins if grid.domain_kind == "interval" else Grid(0, 1, 32, "circle")
            worst = max(worst, chains.martingale_check(pe, h, k, bins_here))
        del pe  # before the next system samples
    return worst, "h = 1 on every normalized system, k in {1, 2}"


@_check("chains", "martingale-gauss-density", 5.0)
def _martingale_gauss(seed, fault):
    g = Grid(0.0, 1.0, 512)
    h = GridFunction.from_callable(g, operators.GaussOperator.density)
    pe = chains.simulate_paths(_sampler("gauss", seed + 25), 1_000_000, 2)
    worst = max(chains.conditional_expectation_check(pe, h, k, Grid(0.0, 1.0, 32))
                for k in (1, 2))
    return worst, "k-step conditional expectation of the stationary density"


@_check("chains", "martingale-eigenfunction-doubling", 4.0)
def _martingale_eigen(seed, fault):
    g = Grid(0.0, 1.0, 512)
    b1 = GridFunction.from_callable(g, lambda x: x - 0.5)
    pe = chains.simulate_paths(_sampler("doubling", seed + 26), 1_000_000, 2)
    worst = max(chains.martingale_check(pe, b1, k, Grid(0.0, 1.0, 16), eigenvalue=0.5)
                for k in (1, 2))
    return worst, "eigenpair (x - 1/2, 1/2) of the doubling operator"


@_check("chains", "markov-property-honest", 5.0)
def _markov_honest(seed, fault):
    bins = Grid(0.0, 1.0, 8)
    samplers = [_sampler("doubling", seed + 30), _sampler("random-control", seed + 31),
                _sampler("gauss", seed + 32)]
    worst = max(chains.markov_property_check(chains.simulate_paths(s, 1_000_000, 3),
                                             lambda x: x, 2, bins) for s in samplers)
    return worst, "10^6 paths per system"


@_check("chains", "markov-property-violation", 8.0, ">=")
def _markov_violation(seed, fault):
    s = replace(_sampler("random-control", seed + 33), reuse_driver_noise=True)
    pe = chains.simulate_paths(s, 1_000_000, 3)
    z = chains.markov_property_check(pe, lambda x: x, 2, Grid(0.0, 1.0, 8))
    return z, "driver noise reused from the previous step"


@_check("chains", "solenoid-constraint", 1e-10)
def _solenoid_constraint(seed, fault):
    worst = 0.0
    for s in (_sampler("doubling", seed + 34), _sampler("gauss", seed + 35),
              _sampler("parametric-u", seed + 36, u=0.7)):
        worst = max(worst, chains.simulate_paths(s, 50_000, 10).solenoid_violation())
    return worst, "sigma(T_{k+1}) = T_k along every stored path"


@_check("chains", "stationarity-marginals", 0.02)
def _stationarity(seed, fault):
    ref = arcsine_measure(Grid(0.0, 1.0, 2048))
    pe = chains.simulate_paths(_sampler("random-control", seed + 37), 100_000, 25)
    worst = max(ks_distance(pe.paths[k], ref) for k in (1, 5, 25))
    del pe  # before the Gauss chain samples
    refg = gauss_measure(Grid(0.0, 1.0, 2048))
    pe = chains.simulate_paths(_sampler("gauss", seed + 38), 100_000, 10)
    worst = max(worst, ks_distance(pe.paths[10], refg))
    return worst, "arcsine at steps {1,5,25}; gauss law at step 10"


def _closed_form_z(pe: chains.PathEnsemble, closed_form: Callable) -> float:
    """Max binned z-score of T_1 - closed_form(T_0), the closed form taken at
    each sample rather than at the bin centre, so the binned mean carries no
    bias from where the samples sit inside a bin."""
    x, y = pe.paths[0], pe.paths[1]
    return chains._paired_bin_z(Grid(0.0, 1.0, 32), x, lambda b: y[b] - closed_form(x[b]))


@_check("chains", "conditional-expectation-closed-form", 5.0)
def _conditional_closed(seed, fault):
    z1 = _closed_form_z(chains.simulate_paths(_sampler("doubling", seed + 39), 1_000_000, 1),
                        lambda x: x / 2 + 0.25)
    z2 = _closed_form_z(chains.simulate_paths(_sampler("random-control", seed + 40),
                                              1_000_000, 1), lambda x: (1 + 2 * x) / 4)
    return max(z1, z2), "R(id) closed forms for doubling and random control"


# the threshold: a 4-sigma-level Kolmogorov quantile with a Bonferroni
# factor for the max over 4 coordinates
@_check("chains", "kolmogorov-consistency", 2.4 * np.sqrt(2.0 / 100_000))
def _consistency(seed, fault):
    long_pe = chains.simulate_paths(_sampler("doubling", seed + 41), 100_000, 6)
    short_pe = chains.simulate_paths(_sampler("doubling", seed + 42), 100_000, 3)
    worst = max(ks_two_sample(long_pe.paths[k], short_pe.paths[k]) for k in range(4))
    return worst, "prefix of a longer run matches a fresh shorter run in law"


@_check("chains", "reproducibility", 0.0)
def _reproducibility(seed, fault):
    a = chains.simulate_paths(_sampler("doubling", seed + 43), 20_000, 8)
    b = chains.simulate_paths(_sampler("doubling", seed + 43), 20_000, 8)
    same = np.array_equal(a.paths, b.paths)
    return 0.0 if same else 1.0, "bit-identical ensembles from one seed"


@_check("chains", "transition-matrix-2state", 0.005)
def _transition(seed, fault):
    pe = chains.simulate_paths(_sampler("two-state", seed + 44), 10_000, 100)
    est = chains.estimate_transition_matrix(pe, [0.0, 1.0])
    dev = float(np.max(np.abs(est - _TWO_STATE)))
    harm = chains.perron_harmonic_residual(est)
    return max(dev, harm * (0.005 / 1e-6)), \
        f"entry deviation {dev:.4f}; harmonic residual {harm:.1e} (<= 1e-6)"


# ---------------------------------------------------------------------------
# solenoid suite
# ---------------------------------------------------------------------------

@_check("solenoid", "prefix-invariant", 1e-12)
def _prefix_invariant(seed, fault):
    pe = chains.simulate_paths(_sampler("haar", seed + 50, 8192), 20_000, 8)
    return pe.solenoid_violation(), "N t_{k+1} = t_k mod 1 along sampled paths"


@_check("solenoid", "shift-roundtrip", 0.0)
def _shift_roundtrip(seed, fault):
    pe = chains.simulate_paths(_sampler("haar", seed + 51, 64), 1, 6)
    p = solenoid.SolenoidPrefix(2, pe.paths[:, 0])
    q = solenoid.shift_inverse(solenoid.shift_hat(p))
    back = float(np.max(np.abs(q.angles - p.angles)))
    k = 3
    r = p
    for _ in range(k):
        r = solenoid.shift_hat(r)
    recover = float(abs(r.angles[k] - p.angles[0]))
    return max(back, recover), "shift inverse and coordinate recovery exact"


@_check("solenoid", "pd-gram-minimum-eigenvalue", 1e-8)
def _pd_gram(seed, fault):
    rng = stream_rng(seed, 52)
    h_haar = wavelets.TrigPoly(0, [1.0])
    worst = np.inf
    for filt, h in ((wavelets.haar_filter(), h_haar), _fejer(1)):
        for _ in range(20):
            pts = [(int(rng.integers(-8, 9)), int(rng.integers(0, 4))) for _ in range(6)]
            G = solenoid.pd_gram(filt, h, pts, z_angle=float(rng.random()))
            worst = min(worst, float(np.linalg.eigvalsh(G).min()))
    return -worst, "20 random 6-point sets, haar and box filters"


@_check("solenoid", "pd-well-defined", 1e-9)
def _pd_well(seed, fault):
    rng = stream_rng(seed, 53)
    h1 = wavelets.TrigPoly(0, [1.0])
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(-6, 7))
        k = int(rng.integers(0, 3))
        z = float(rng.random())
        a = solenoid.pd_value(wavelets.haar_filter(), h1, n, k, z)
        b = solenoid.pd_value(wavelets.haar_filter(), h1, 2 * n, k + 1, z)
        worst = max(worst, abs(a - b))
    return worst, "L(Nn/N^{k+1}) = L(n/N^k)"


@_check("solenoid", "coordinate-distribution-mass", 1e-8)
def _pi_k_mass(seed, fault):
    g = Grid(0.0, 1.0, 1024, "circle")
    h1 = wavelets.TrigPoly(0, [1.0])
    worst = 0.0
    for filt, h in ((wavelets.haar_filter(), h1), _fejer(1)):
        for k in range(6):
            mu = solenoid.pi_k_distribution(filt, h, k, g)
            worst = max(worst, abs(float(mu.weights.sum()) - 1.0))
    return worst, "total mass of |m^(k)|^2 h for k = 0..5"


@_check("solenoid", "coordinate-distribution-sampled", 0.02)
def _pi_k_sampled(seed, fault):
    pe = chains.simulate_paths(_sampler("haar", seed + 54, 8192), 100_000, 3)
    h1 = wavelets.TrigPoly(0, [1.0])
    mu3 = solenoid.pi_k_distribution(wavelets.haar_filter(), h1, 3, Grid(0, 1, 2048, "circle"))
    ks = ks_distance(pe.paths[3], mu3)
    return ks, "sampled third coordinate vs its exact density"


@_check("solenoid", "scaling-unitary", 4.0)
def _scaling_unitary(seed, fault):
    # the isometry E[W o pi_0 |psi o sigma-hat|^2] = E[|psi|^2] is the
    # quasi-invariance of the path measure applied to psi^2
    z1 = chains.quasi_invariance_check(
        chains.simulate_paths(_sampler("doubling", seed + 55), 1_000_000, 2), lambda x: 1.0,
        lambda x: np.sin(2 * np.pi * x) ** 2, 0)
    sp = _sampler("parametric-u", seed + 56, u=0.3)
    z2 = chains.quasi_invariance_check(chains.simulate_paths(sp, 1_000_000, 2),
                                       operators.parametric_weight(0.3), lambda x: x ** 2, 1)
    return max(z1, z2), f"doubling z={z1:.2f}, parametric z={z2:.2f}"


@_check("solenoid", "line-embedding", 1e-12)
def _line_embed(seed, fault):
    rng = stream_rng(seed, 57)
    worst = 0.0
    for _ in range(5):
        t = float(10.0 * (rng.random() - 0.5))
        p = solenoid.embed_line(2, t, 6)
        worst = max(worst, p.invariant_violation())
    zero = solenoid.embed_line(2, 0.0, 6)
    worst = max(worst, float(np.max(np.abs(zero.angles))))
    return worst, "gamma_N prefixes satisfy the solenoid constraint"


# ---------------------------------------------------------------------------
# wavelet suite
# ---------------------------------------------------------------------------

@_check("wavelet", "haar-orthonormality", 1e-10)
def _haar_h(seed, fault):
    phi = wavelets.cascade(wavelets.haar_filter(), J=10, iters=2)
    h = wavelets.autocorrelation(phi)
    g = Grid(0.0, 1.0, 1024, "circle")
    return float(np.max(np.abs(h(g.nodes) - 1.0))), \
        "h of the Haar scaling function is the constant 1"


@_check("wavelet", "fejer-autocorrelation", 1e-10)
def _fejer_autocorrelation(seed, fault):
    worst = 0.0
    for m in (1, 2, 3):
        h = _fejer(m)[1]
        r = h.c[-h.lo :]  # r_0 .. r_M
        L = 2 * m + 1
        expect = np.maximum(L - np.arange(len(r)), 0) / L
        want = np.zeros(len(r))
        want[: L] = expect[: L]
        worst = max(worst, float(np.max(np.abs(r - want))))
    return worst, "r_n = (2m+1-|n|)/(2m+1) for m in {1,2,3}"


@_check("wavelet", "ruelle-fixed-point", 1e-8)
def _ruelle_fixed(seed, fault):
    worst = wavelets.verify_ruelle_fixed(wavelets.haar_filter(),
                                         wavelets.TrigPoly(0, [1.0]))
    for m in (1, 2, 3):
        worst = max(worst, wavelets.verify_ruelle_fixed(*_fejer(m)))
    return worst, "R h = h in coefficient arithmetic"


@_check("wavelet", "intertwining", 1e-10)
def _intertwine(seed, fault):
    rng = stream_rng(seed, 60)
    phi = wavelets.cascade(wavelets.haar_filter(), J=10, iters=3)
    worst = wavelets.intertwine_check(wavelets.haar_filter(), phi, {0: 1.0})
    xi = {int(k): float(rng.normal()) for k in range(8)}
    worst = max(worst, wavelets.intertwine_check(wavelets.haar_filter(), phi, xi))
    return worst, "K S = U K on the sample mesh"


@_check("wavelet", "cascade-contraction", 1e-6)
def _cascade_contract(seed, fault):
    phi = wavelets.cascade(wavelets.haar_filter(), J=10, iters=9)
    return phi.sup_delta, "sup distance of cascade iterates 8 and 9"


@_check("wavelet", "compact-support-autocorrelation", 1e-12)
def _compact_support(seed, fault):
    worst = 0.0
    for m in (1, 2):
        h = _fejer(m)[1]
        beyond = h.c[-h.lo + 2 * m + 1 :]  # r_{2m+1} .. r_M
        if beyond.size:
            worst = max(worst, float(np.max(np.abs(beyond))))
    return worst, "no autocorrelation beyond the support width"


# ---------------------------------------------------------------------------
# schur suite
# ---------------------------------------------------------------------------

@_check("schur", "roundtrip", 1e-8)
def _schur_roundtrip(seed, fault):
    rng = stream_rng(seed, 70)
    worst = 0.0
    for _ in range(100):
        r = 0.9 * np.sqrt(rng.random(8))
        params = schur.SchurParams(r * np.exp(2j * np.pi * rng.random(8)))
        rec = schur.extract_params(schur.SchurEval.from_params(params), 8)
        worst = max(worst, float(np.max(np.abs(rec.params - params.params))))
    return worst, "100 random length-8 sequences, radius <= 0.9"


@_check("schur", "blaschke-termination", 1e-8)
def _blaschke(seed, fault):
    rng = stream_rng(seed, 71)
    worst = 0.0
    for d in (1, 2, 3):
        zeros = 0.6 * (rng.random(d) - 0.5) + 0.3j * (rng.random(d) - 0.5)
        p = schur.extract_params(schur.blaschke_product(list(zeros)), 12)
        if not p.terminated or len(p) != d + 1:
            return 1.0, f"degree {d} failed to stop in {d + 1} steps"
        worst = max(worst, abs(abs(p.params[-1]) - 1.0))
    return worst, "degree d stops in d+1 steps at modulus 1"


@_check("schur", "contractivity-preservation", 1e-9)
def _contractivity(seed, fault):
    rng = stream_rng(seed, 72)
    worst = -np.inf
    for i in range(10):
        r = 0.8 * np.sqrt(rng.random(5))
        params = schur.SchurParams(r * np.exp(2j * np.pi * rng.random(5)))
        s = schur.SchurEval.from_params(params)
        nxt = schur.schur_step(s).next
        worst = max(worst, schur.contractivity_defect(nxt, master_seed=seed + i,
                                                      radius=0.99))
    return worst, "|s_{n+1}| <= 1 at random points of radius 0.99"


@_check("schur", "move-matches-step", 1e-10)
def _move_step(seed, fault):
    rng = stream_rng(seed, 73)
    z = 0.7 * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
    s = schur.SchurEval(num=[0.5, 0.1j], den=[1.0, -0.2])
    a = schur.schur_move(s, s.at0()).eval(z)
    b = schur.schur_step(s).next.eval(z)
    return float(np.max(np.abs(a - b))), "F(s, s(0)) equals the recursion step"


@_check("schur", "shift-invariance", 0.01)
def _shift_invariance(seed, fault):
    nu = schur.uniform_disk_sampler(0.5)
    rng = stream_rng(seed, 74)
    draws = nu(rng, 3 * 100_000).reshape(100_000, 3)
    worst = max(ks_two_sample(draws[:, 0].real, draws[:, 1].real),
                ks_two_sample(draws[:, 0].imag, draws[:, 1].imag),
                ks_two_sample(np.abs(draws[:, 0]), np.abs(draws[:, 2])))
    mean0 = abs(draws[:, 0].mean())
    return max(worst, mean0 * (0.01 / (4 * 0.25 / np.sqrt(100_000)))), \
        "coordinate laws of the parameter sequence agree under the shift"


SUITES = tuple(dict.fromkeys(c[0] for c in _REGISTRY))  # in registry order
