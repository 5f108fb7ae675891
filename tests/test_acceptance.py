"""Acceptance criteria, one test per criterion, each printing a PASS line
with its headline statistic (run with -s to see them inline).

Criterion 3's second clause is implemented exactly as stated and is
expected to FAIL: it asserts that some test function separates the arcsine
law from its image under the uniform-weight logistic backward operator,
but that operator provably preserves the law (substituting x = sin^2 theta
turns the even branch mixture into a re-uniformized angle), so no
separating function exists.  The red outcome is kept deliberately rather
than weakening the assertion; see the README's known-defect note.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from transferchain import chains, invariant, operators, solenoid, wavelets
from transferchain.grids import (
    Grid,
    GridFunction,
    arcsine_measure,
    arcsine_ppf,
    gauss_measure,
    gauss_ppf,
    ks_distance,
    stream_rng,
    uniform_measure,
    uniform_ppf,
)
from transferchain.operators import GaussOperator
from transferchain.verify import logistic_separation_search

SEED = 9001
SRC = Path(__file__).resolve().parent.parent / "src"
# sha256 of ``verify --suite all --master-seed 7``'s report.json
REPORT_SHA256_SEED_7 = "9b3e7dc89ba3a3018f05e77afde447fa83bdae6aecfbe656baad48e88dbd8b85"


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_01_gauss_invariant_density():
    t0 = time.perf_counter()
    g = Grid(0.0, 1.0, 512)
    m = invariant.build_ulam(operators.gauss_operator(K=10_000), g)
    res = invariant.power_iterate(m, tol=1e-12, max_iters=2000)
    l1 = float(np.abs(res.measure.weights - gauss_measure(g).weights).sum())
    elapsed = time.perf_counter() - t0
    ok = l1 <= 0.02 and elapsed <= 10.0
    assert report(1, ok, f"gauss density L1 = {l1:.5f} (<= 0.02), {elapsed:.2f} s (<= 10 s)")


def test_criterion_02_arcsine_invariance_residuals():
    t0 = time.perf_counter()
    g = Grid(0.0, 1.0, 2048)
    rc = operators.random_control_system(g)
    fs = [GridFunction.constant(g, 1.0),
          GridFunction.from_callable(g, lambda x: x),
          GridFunction.from_callable(g, lambda x: x**2),
          GridFunction.from_callable(g, lambda x: np.cos(2 * np.pi * x))]
    worst = max(invariant.verify_invariance(arcsine_measure(g), rc, fs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-4 and elapsed <= 5.0
    assert report(2, ok, f"max residual = {worst:.2e} (<= 5e-4), {elapsed:.2f} s (<= 5 s)")


def test_criterion_03a_logistic_pushforward_invariance():
    rng = stream_rng(SEED, 301)
    x = arcsine_ppf(rng.random(100_000))
    for _ in range(20):
        x = 4.0 * x * (1.0 - x)
    ks = ks_distance(x, arcsine_measure(Grid(0.0, 1.0, 2048)))
    assert report("3a", ks <= 0.02, f"pushforward KS = {ks:.4f} (<= 0.02)")


def test_criterion_03b_logistic_uniform_weight_separation():
    """Implemented as specified; fails because the premise is false.

    The criterion asks for a test function f with
    |int R f d mu - int f d mu| >= 0.01 for the uniform-weight logistic
    branch operator and mu = arcsine.  Writing x = sin^2 theta with theta
    uniform on (0, pi/2), the two inverse branches are sin^2(theta/2) and
    sin^2(pi/2 - theta/2); picking one with probability 1/2 makes the new
    angle uniform again, so mu R = mu exactly and every candidate residual
    sits at quadrature noise.  The assertion below therefore cannot pass;
    it is kept as stated instead of being weakened.
    """
    name, best = logistic_separation_search()
    ok = best >= 0.01
    report("3b", ok, f"largest residual = {best:.2e} from {name} (needs >= 0.01); "
                     "no separating function exists - the law is exactly invariant")
    assert ok, (
        "the uniform-weight logistic backward operator preserves the arcsine "
        f"law exactly; the best candidate ({name}) reaches only {best:.2e}, "
        "so the required 0.01 separation is mathematically unattainable"
    )


def test_criterion_04_kolmogorov_moment_formula():
    t0 = time.perf_counter()
    worst = 0.0
    # doubling, products of 2 and 3 coordinate functions
    gq = Grid(0.0, 1.0, 32768)
    op = operators.doubling_system(gq)
    one = GridFunction.constant(gq, 1.0)
    ident = GridFunction.from_callable(gq, lambda x: x)
    sq = GridFunction.from_callable(gq, lambda x: x**2)
    s = chains.MarkovSampler(op, uniform_ppf, master_seed=SEED + 400)
    pe = chains.simulate_paths(s, 1_000_000, 2)
    for fs_g, fs_m in (([ident, ident], [lambda x: x] * 2),
                       ([ident, sq, ident],
                        [lambda x: x, lambda x: x**2, lambda x: x])):
        nested = chains.nested_operator_expectation(op, one, uniform_measure(gq), fs_g)
        mom = chains.path_moment_mc(pe, fs_m)
        worst = max(worst, abs(mom.mean - nested) / mom.std_error)
    # random control
    gq2 = Grid(0.0, 1.0, 8192)
    rc = operators.random_control_system(gq2)
    one2 = GridFunction.constant(gq2, 1.0)
    id2 = GridFunction.from_callable(gq2, lambda x: x)
    cos2 = GridFunction.from_callable(gq2, lambda x: np.cos(2 * np.pi * x))
    s2 = chains.MarkovSampler(rc, arcsine_ppf, master_seed=SEED + 401)
    pe2 = chains.simulate_paths(s2, 1_000_000, 2)
    for fs_g, fs_m in (([id2, id2], [lambda x: x] * 2),
                       ([id2, cos2, id2],
                        [lambda x: x, lambda x: np.cos(2 * np.pi * x), lambda x: x])):
        nested = chains.nested_operator_expectation(rc, one2, arcsine_measure(gq2), fs_g)
        mom = chains.path_moment_mc(pe2, fs_m)
        worst = max(worst, abs(mom.mean - nested) / mom.std_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed <= 60.0
    assert report(4, ok, f"max |MC - nested|/se = {worst:.2f} (<= 4), "
                         f"{elapsed:.1f} s (<= 60 s)")


def test_criterion_05_quasi_invariance():
    g = Grid(0.0, 1.0, 512)
    worst = 0.0
    details = []
    for i, u in enumerate((0.3, 0.5, 0.7)):
        W = operators.parametric_weight(u)
        if u == 0.5:
            assert np.max(np.abs(W(g.nodes) - 1.0)) == 0.0  # measure-preserving case
        s = chains.MarkovSampler(operators.parametric_system(g, u), uniform_ppf,
                                 master_seed=SEED + 500 + i)
        pe = chains.simulate_paths(s, 1_000_000, 2)
        z = chains.quasi_invariance_check(pe, W, lambda x: x, 1)
        worst = max(worst, z)
        details.append(f"u={u}: z={z:.2f}")
    assert report(5, worst <= 4.0, "; ".join(details) + " (all <= 4)")


def test_criterion_06_martingales():
    g = Grid(0.0, 1.0, 512)
    gc = Grid(0.0, 1.0, 4096, "circle")
    one = GridFunction.constant(g, 1.0)
    bins = Grid(0.0, 1.0, 32)
    worst = 0.0
    systems = [
        chains.MarkovSampler(operators.doubling_system(g), uniform_ppf,
                             master_seed=SEED + 600),
        chains.MarkovSampler(operators.parametric_system(g, 0.3), uniform_ppf,
                             master_seed=SEED + 601),
        chains.MarkovSampler(operators.random_control_system(g), arcsine_ppf,
                             master_seed=SEED + 602),
        chains.MarkovSampler(operators.gauss_operator(K=10_000), gauss_ppf,
                             master_seed=SEED + 603),
        chains.MarkovSampler(operators.circle_filter_system(gc, wavelets.haar_filter()),
                             uniform_ppf, master_seed=SEED + 604),
    ]
    for s in systems:
        pe = chains.simulate_paths(s, 500_000, 2)
        h = one if s.grid is None or s.grid.domain_kind == "interval" \
            else GridFunction.constant(gc, 1.0)
        b = bins if h.grid.domain_kind == "interval" else Grid(0, 1, 32, "circle")
        for k in (1, 2):
            worst = max(worst, chains.martingale_check(pe, h, k, b))
    # the Gauss chain's harmonic density through the k-step identity
    sg = chains.MarkovSampler(operators.gauss_operator(K=10_000), gauss_ppf,
                              master_seed=SEED + 605)
    peg = chains.simulate_paths(sg, 1_000_000, 2)
    hd = GridFunction.from_callable(g, GaussOperator.density)
    for k in (1, 2):
        worst = max(worst, chains.conditional_expectation_check(peg, hd, k, bins))
    assert report(6, worst <= 5.0, f"max martingale z = {worst:.2f} (<= 5), "
                                   "k in {1,2}, 10^6 transitions")


def test_criterion_07_wavelet_identities():
    t0 = time.perf_counter()
    gc = Grid(0.0, 1.0, 1024, "circle")
    haar_h = wavelets.autocorrelation(wavelets.cascade(wavelets.haar_filter(), 10, 2))
    haar_dev = float(np.max(np.abs(haar_h(gc.nodes) - 1.0)))
    fejer_dev = 0.0
    ruelle_dev = wavelets.verify_ruelle_fixed(wavelets.haar_filter(), haar_h)
    for m in (1, 2, 3):
        h = wavelets.autocorrelation(wavelets.box_scaling_function(m, 8))
        L = 2 * m + 1
        expect = (L - np.arange(L)) / L
        fejer_dev = max(fejer_dev, float(np.max(np.abs(h.c[-h.lo :] - expect))))
        ruelle_dev = max(ruelle_dev,
                         wavelets.verify_ruelle_fixed(wavelets.stretched_box_filter(m), h))
    phi = wavelets.cascade(wavelets.haar_filter(), J=10, iters=3)
    rng = stream_rng(SEED, 700)
    xi = {int(k): float(rng.normal()) for k in range(8)}
    ks_uk = max(wavelets.intertwine_check(wavelets.haar_filter(), phi, {0: 1.0}),
                wavelets.intertwine_check(wavelets.haar_filter(), phi, xi))
    elapsed = time.perf_counter() - t0
    ok = (haar_dev <= 1e-10 and fejer_dev <= 1e-10 and ruelle_dev <= 1e-8
          and ks_uk <= 1e-10 and elapsed <= 2.0)
    assert report(7, ok, f"haar h-1: {haar_dev:.1e}, fejer: {fejer_dev:.1e}, "
                         f"Ruelle fix: {ruelle_dev:.1e}, KS=UK: {ks_uk:.1e}, "
                         f"{elapsed:.2f} s (<= 2 s)")


def test_criterion_08_positive_definite_gram():
    rng = stream_rng(SEED, 800)
    h1 = wavelets.TrigPoly(0, [1.0])
    h_box = wavelets.autocorrelation(wavelets.box_scaling_function(1, 8))
    worst = np.inf
    for filt, h in ((wavelets.haar_filter(), h1),
                    (wavelets.stretched_box_filter(1), h_box)):
        for _ in range(20):
            pts = [(int(rng.integers(-8, 9)), int(rng.integers(0, 4)))
                   for _ in range(6)]
            G = solenoid.pd_gram(filt, h, pts, z_angle=float(rng.random()))
            worst = min(worst, float(np.linalg.eigvalsh(G).min()))
    assert report(8, worst >= -1e-8,
                  f"min Gram eigenvalue = {worst:.2e} (>= -1e-8), 20 sets x 2 filters")


def test_criterion_09_schur_roundtrip_and_termination():
    from transferchain import schur as schur_mod
    rng = stream_rng(SEED, 900)
    worst = 0.0
    for _ in range(100):
        r = 0.9 * np.sqrt(rng.random(8))
        params = schur_mod.SchurParams(r * np.exp(2j * np.pi * rng.random(8)))
        rec = schur_mod.extract_params(schur_mod.SchurEval.from_params(params), 8)
        worst = max(worst, float(np.max(np.abs(rec.params - params.params))))
    term_ok = True
    for d in (1, 2, 3):
        zeros = 0.6 * (rng.random(d) - 0.5) + 0.3j * (rng.random(d) - 0.5)
        p = schur_mod.extract_params(schur_mod.blaschke_product(list(zeros)), 12)
        term_ok &= p.terminated and len(p) == d + 1 \
            and abs(abs(p.params[-1]) - 1.0) <= 1e-8
    ok = worst <= 1e-8 and term_ok
    assert report(9, ok, f"roundtrip max err = {worst:.2e} (<= 1e-8); "
                         f"Blaschke d+1-step termination: {term_ok}")


def test_criterion_10_hutchinson():
    g = Grid(0.0, 1.0, 2187)
    res = invariant.hutchinson_iterate(invariant.cantor_ifs(g), uniform_measure(g), 40)
    mean, var = invariant.measure_moments(res.measure)
    spike = np.zeros(g.n)
    spike[100] = 1.0
    from transferchain.grids import DiscreteMeasure
    cert = invariant.contraction_certificate(invariant.cantor_ifs(g),
                                             uniform_measure(g),
                                             DiscreteMeasure(g, spike))
    ok = (abs(mean - 0.5) <= 1e-3 and abs(var - 0.125) <= 1e-3
          and cert.ratio <= 1.0 / 3.0 + 2.0 / g.n)
    assert report(10, ok, f"cantor mean = {mean:.6f}, var = {var:.6f}, "
                          f"contraction ratio = {cert.ratio:.6f} "
                          f"(<= {1/3 + 2/g.n:.6f})")


def test_criterion_11_determinism(tmp_path):
    # the CLI runs in a fresh interpreter, which must import this checkout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    t0 = time.perf_counter()
    reports = []
    for i, extra in enumerate((["--threads", "1"], ["--threads", "4"])):
        out = tmp_path / f"run{i}"
        cmd = [sys.executable, "-m", "transferchain.cli", "verify", "--suite", "all",
               "--master-seed", "7", "--out", str(out)] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 1, "exit must flag the documented red check"
        reports.append((out / "report.json").read_bytes())
    elapsed = time.perf_counter() - t0
    identical = reports[0] == reports[1]
    # the pinned bytes: a bit that moves in any sampler or check fails here
    pinned = hashlib.sha256(reports[0]).hexdigest() == REPORT_SHA256_SEED_7
    parsed = json.loads(reports[0])
    failing = {c["name"] for c in parsed["checks"] if c["status"] == "fail"}
    ok = (identical and pinned and elapsed <= 300.0
          and failing == {"operators/logistic-uniform-weight-separation"})
    assert report(11, ok, f"byte-identical reports across thread counts: {identical}; "
                          f"report.json sha256 pinned: {pinned}; "
                          f"full suite 2x in {elapsed:.0f} s (<= 300 s); "
                          f"only the documented red check fails")
