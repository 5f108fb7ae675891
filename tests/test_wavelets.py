import math

import numpy as np
import pytest

from transferchain.grids import Grid, stream_rng
from transferchain.wavelets import (
    TrigPoly,
    WaveletFilter,
    apply_slanted,
    autocorrelation,
    box_scaling_function,
    cascade,
    haar_filter,
    intertwine_check,
    stretched_box_filter,
    verify_ruelle_fixed,
)


def _cosine_series(r, t):
    """r_0 + 2 sum_{n>0} r_n cos(2 pi n t), summed term by term."""
    out = np.full(t.shape, r[0])
    for n in range(1, len(r)):
        out = out + 2.0 * r[n] * np.cos(2 * np.pi * n * t)
    return out


def _direct(p, t):
    return sum(c * np.exp(2j * np.pi * m * t) for m, c in zip(p.lags, p.c))


def test_even_polynomials_match_cosine_series_bitwise():
    t = stream_rng(3, 0).random(10_000) * 3.0 - 1.0
    daub4 = WaveletFilter(N=2, coeffs=[0.48296291314453416, 0.8365163037378079,
                                       0.22414386804201339, -0.12940952255126037])
    for filt in (haar_filter(), stretched_box_filter(2), daub4):
        a = filt.coeffs
        c = np.correlate(a, a, mode="full")[len(a) - 1:]
        assert filt.m0_sq(t).dtype == np.float64
        assert np.array_equal(filt.m0_sq(t), _cosine_series(c, t))
    for h in (autocorrelation(box_scaling_function(2, 8)),
              TrigPoly.even([1.0, 0.3, 0.0, -0.2])):
        assert np.array_equal(h(t), _cosine_series(h.c[-h.lo :], t))


def test_trig_poly_algebra_matches_direct_sums():
    rng = stream_rng(4, 0)
    t = rng.random(64)
    p = TrigPoly(-2, rng.normal(size=5) + 1j * rng.normal(size=5))
    q = TrigPoly(1, rng.normal(size=3))
    assert np.allclose(p(t), _direct(p, t), atol=1e-12)
    assert np.allclose((p * q)(t), p(t) * q(t), atol=1e-12)
    assert np.allclose(p.shift(3)(t), np.exp(6j * np.pi * t) * p(t), atol=1e-12)
    assert np.allclose(p.dilate(3)(t), p(3 * t), atol=1e-12)
    for N in (2, 3):
        avg = sum(p((t + k) / N) for k in range(N)) / N
        assert np.allclose(p.decimate(N)(t), avg, atol=1e-12)
    assert np.all(TrigPoly(0, [1.0]).decimate(2)(t) == 1.0)
    assert np.all(TrigPoly(1, [1.0]).decimate(2)(t) == 0.0)


@pytest.mark.parametrize("n, lo, size", [(1, -3, 7), (2, -2, 5), (7, -9, 19), (8, 5, 3),
                                          (1024, -1024, 2049)])
def test_trig_poly_on_grid_matches_exact_phase_sums(n, lo, size):
    # lags past +-n fold onto the FFT's n bins; the reference reduces each
    # phase m (2j + 1) / (2n) mod 1 in integers before its cosine and sine,
    # so its error does not grow with the lag
    rng = stream_rng(23, n)
    p = TrigPoly(lo, rng.normal(size=size) + 1j * rng.normal(size=size))
    j = np.arange(n)
    phase = np.pi * np.mod(np.outer(p.lags, 2 * j + 1), 2 * n) / n
    terms = p.c[:, None] * (np.cos(phase) + 1j * np.sin(phase))
    want = np.array([math.fsum(terms.real[:, k]) + 1j * math.fsum(terms.imag[:, k])
                     for k in range(n)])
    # an FFT of size n is within a few eps log2(n) of the coefficient mass
    tol = 8 * np.finfo(float).eps * np.log2(2 * n) * np.abs(p.c).sum()
    assert np.max(np.abs(p.on_grid(n) - want)) <= tol


def test_haar_filter_normalized():
    f = haar_filter()
    assert f.ruelle_residual(TrigPoly(0, [1.0])) <= 1e-12
    t = Grid(0.0, 1.0, 256, "circle").nodes
    assert np.max(np.abs((f.m0_sq(t / 2) + f.m0_sq((t + 1) / 2)) / 2 - 1.0)) <= 1e-12
    # |m0|^2 = 1 + cos(2 pi t)
    t = np.linspace(0.0, 1.0, 7)
    assert np.allclose(f.m0_sq(t), 1.0 + np.cos(2 * np.pi * t))


def test_stretched_box_filters_normalized():
    for m in (1, 2, 3):
        assert stretched_box_filter(m).ruelle_residual(TrigPoly(0, [1.0])) <= 1e-12


def test_cascade_haar_is_unit_box():
    phi = cascade(haar_filter(), J=10, iters=1)
    assert phi.sup_delta == 0.0  # the box is already the fixed point
    assert np.all(phi.samples == 1.0)
    assert phi.samples.sum() * phi.step == pytest.approx(1.0)


def test_box_is_refinement_fixed_point():
    # the stretched filter fails Cohen's criterion, so the cascade from the
    # unit box does not find the box; the directly constructed box is
    # nevertheless an exact fixed point of the refinement step
    for m in (1, 2):
        ref = box_scaling_function(m, 8)
        phi = cascade(stretched_box_filter(m), J=8, iters=1, start=ref)
        assert phi.sup_delta <= 1e-12
        assert np.max(np.abs(phi.samples - ref.samples)) <= 1e-12
        assert ref.samples.sum() * ref.step == pytest.approx(np.sqrt(2 * m + 1), abs=1e-8)


def test_cascade_contraction_and_divergence():
    phi = cascade(haar_filter(), J=10, iters=9)
    assert phi.sup_delta <= 1e-6
    blowup = WaveletFilter(N=2, coeffs=np.array([3.0, 3.0]))
    with pytest.raises(ArithmeticError):
        cascade(blowup, J=6, iters=40)


def test_autocorrelation_haar():
    h = autocorrelation(cascade(haar_filter(), J=10, iters=2))
    assert h.lo == 0 and h.c.size == 1
    assert h.c[0] == pytest.approx(1.0, abs=1e-12)
    g = Grid(0.0, 1.0, 512, "circle")
    assert np.max(np.abs(h(g.nodes) - 1.0)) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
def test_autocorrelation_fejer(m):
    h = autocorrelation(box_scaling_function(m, 8))
    L = 2 * m + 1
    expect = (L - np.arange(L)) / L
    r = h.c[-h.lo :]  # r_0 .. r_M
    assert r.size == L
    assert np.max(np.abs(r - expect)) <= 1e-10
    # h is the Fejer kernel F_{2m}: nonnegative trigonometric polynomial
    g = Grid(0.0, 1.0, 1024, "circle")
    vals = h(g.nodes)
    assert np.min(vals) >= -1e-10
    if m == 1:
        t = g.nodes
        fejer = (np.sin(3 * np.pi * t) / (3 * np.sin(np.pi * t))) ** 2 * 3
        assert np.max(np.abs(vals - fejer)) <= 1e-9


def test_autocorrelation_compact_support():
    for m in (1, 2):
        h = autocorrelation(box_scaling_function(m, 8))
        assert 1 - h.lo <= 2 * m + 1  # nothing beyond the support width


def test_ruelle_fixed_point():
    assert verify_ruelle_fixed(haar_filter(), TrigPoly(0, [1.0])) <= 1e-12
    for m in (1, 2, 3):
        h = autocorrelation(box_scaling_function(m, 8))
        assert verify_ruelle_fixed(stretched_box_filter(m), h) <= 1e-8


def test_ruelle_fixed_point_detects_perturbation():
    h = autocorrelation(box_scaling_function(1, 8))
    bad = np.array(h.c[-h.lo :])
    bad[1] += 0.1
    assert verify_ruelle_fixed(stretched_box_filter(1), TrigPoly.even(bad)) >= 0.01


def test_slanted_toeplitz_haar_delta():
    out = apply_slanted(haar_filter(), {0: 1.0})
    assert out == {0: pytest.approx(2**-0.5), 1: pytest.approx(2**-0.5)}


def test_intertwine_haar_delta_and_zero():
    phi = cascade(haar_filter(), J=10, iters=2)
    assert intertwine_check(haar_filter(), phi, {0: 1.0}) == 0.0
    assert intertwine_check(haar_filter(), phi, {}) == 0.0


def test_intertwine_haar_random_sequence():
    phi = cascade(haar_filter(), J=10, iters=3)
    rng = stream_rng(1, 0)
    xi = {int(k): float(rng.normal()) for k in range(8)}
    assert intertwine_check(haar_filter(), phi, xi) <= 1e-10


def test_intertwine_box_filter():
    filt = stretched_box_filter(1)
    phi = cascade(filt, J=8, iters=20)
    rng = stream_rng(2, 0)
    xi = {int(k): float(rng.normal()) for k in range(5)}
    assert intertwine_check(filt, phi, xi) <= 1e-9
