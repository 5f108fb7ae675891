"""Wavelet filters on the circle and their scaling functions.

Everything that can be done in coefficient space is done there, on one
``TrigPoly`` type: |m0|^2 is the autocorrelation trigonometric polynomial
of the filter taps, and the weighted Ruelle operator acts on Fourier
coefficients by convolution with that autocorrelation followed by index
decimation.  This makes the fixed point identity for the harmonic function
an exact (round-off level) check instead of a quadrature-limited one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Grid

__all__ = [
    "TrigPoly",
    "WaveletFilter",
    "ScalingFunction",
    "haar_filter",
    "stretched_box_filter",
    "box_scaling_function",
    "cascade",
    "autocorrelation",
    "verify_ruelle_fixed",
    "intertwine_check",
]


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial p(t) = sum_k c[k] e^{2 pi i (lo + k) t}.

    The coefficient algebra of the transfer operator: multiplication is
    convolution, and the circle Ruelle average (1/N) sum_k p((t+k)/N) keeps
    the coefficients at lags divisible by N.
    """

    lo: int
    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=complex if np.iscomplexobj(self.c) else float)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @classmethod
    def from_samples(cls, values) -> "TrigPoly":
        """The real interpolant of samples at the midpoints (j + 1/2)/n of the
        unit circle, of degree at most n/2.  For even n the Nyquist term is
        the sine through the alternating part, split evenly over lags +-n/2."""
        v = np.asarray(values, dtype=float)
        n = v.size
        c = np.fft.rfft(v) * np.exp(-1j * np.pi * np.arange(n // 2 + 1) / n) / n
        if n % 2 == 0:
            c[-1] *= 0.5
        return cls(-(n // 2), np.concatenate((np.conj(c[:0:-1]), c)))

    @classmethod
    def even(cls, r) -> "TrigPoly":
        """Real even polynomial r_0 + sum_{m>0} r_m (e_m + e_{-m})."""
        r = np.asarray(r, dtype=float)
        return cls(1 - len(r), np.concatenate((r[:0:-1], r)))

    @property
    def lags(self) -> np.ndarray:
        return self.lo + np.arange(len(self.c))

    def coef(self, m: int):
        """Coefficient at lag m (0 outside the stored range)."""
        k = m - self.lo
        return self.c[k] if 0 <= k < len(self.c) else 0.0

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly(self.lo + other.lo, np.convolve(self.c, other.c))

    def shift(self, n: int) -> "TrigPoly":
        """e_n p."""
        return TrigPoly(self.lo + n, self.c)

    def dilate(self, N: int) -> "TrigPoly":
        """p(N t)."""
        c = np.zeros(N * (len(self.c) - 1) + 1, dtype=self.c.dtype)
        c[::N] = self.c
        return TrigPoly(N * self.lo, c)

    def decimate(self, N: int) -> "TrigPoly":
        """(1/N) sum_k p((t+k)/N): the coefficients at lags N p become lag p."""
        first = -self.lo % N
        return TrigPoly((self.lo + first) // N, self.c[first::N])

    def on_grid(self, n: int) -> np.ndarray:
        """p at the n midpoints t_j = (j + 1/2)/n of the unit circle, by one
        inverse FFT: p(t_j) = sum_r d_r e^{2 pi i r j/n}, where d_r sums
        c[m] e^{i pi m/n} over the lags m = r mod n.  Complex, like ``__call__``
        of a polynomial that is not real even."""
        d = np.zeros(n, dtype=complex)
        np.add.at(d, self.lags % n, self.c * np.exp(1j * np.pi * self.lags / n))
        return n * np.fft.ifft(d)

    def __call__(self, t):
        """p(t), vectorized in t; a scalar t gives a scalar.  Lags +-m are
        paired into a cosine and a sine term, and a zero term is skipped, so
        a real even polynomial evaluates in real arithmetic, each of its
        cosine terms formed in one buffer and added in place."""
        t = np.asarray(t, dtype=float)
        hi = max(-self.lo, self.lo + len(self.c) - 1, 0)
        full = np.zeros(2 * hi + 1, dtype=self.c.dtype)  # lags -hi..hi
        full[hi + self.lo : hi + self.lo + len(self.c)] = self.c
        pos, neg = full[hi + 1 :], full[:hi][::-1]
        out = np.full(t.shape, full[hi])
        term = np.empty(t.shape)
        for m, a, b in zip(range(1, hi + 1), pos + neg, pos - neg):
            if a != 0:
                np.cos(np.multiply(2 * np.pi * m, t, out=term), out=term)
                if out.dtype == complex:
                    out += a * term
                else:
                    term *= a  # a * cos, bit for bit
                    out += term
            if b != 0:
                np.sin(np.multiply(2 * np.pi * m, t, out=term), out=term)
                out = out + 1j * b * term
        return out[()]

    @property
    def real_even(self) -> bool:
        """Real coefficients, symmetric bit for bit about lag 0: then
        ``__call__`` is real, p(t) = sum_m alpha_m cos(2 pi m t)."""
        c = self.c
        return bool(np.isrealobj(c) and 2 * self.lo == 1 - len(c) and np.array_equal(c, c[::-1]))

    def _cosines(self) -> np.ndarray:
        """alpha_0 .. alpha_d of Re p(t) = sum_m alpha_m cos(2 pi m t) for real
        coefficients: alpha_0 = c_0 and alpha_m = c_m + c_{-m}."""
        d = max(-self.lo, self.lo + len(self.c) - 1, 0)
        return np.array([self.coef(0)] + [self.coef(m) + self.coef(-m) for m in range(1, d + 1)],
                        dtype=float)

    def rounding(self, s_max: float) -> float:
        """A bound on the error of ``__call__`` for a real even p at a float
        s = fl(fl(t + k)/N), |s| <= s_max, against p in real arithmetic at
        (t + k)/N, as the filter weights evaluate it.  Per cosine term of
        degree m <= d: its argument 2 pi m s rounds at most 5 times (s
        twice, 2 pi, the products by m and by s), within 31.7 m s_max 2^-53
        < 2^-48 m s_max; ``np.cos`` errs by less than 4 ulp of 1, 2^-50; the
        term and the sum of at most d + 1 terms round by (d + 2) 2^-53;
        each is taken relative to the l1 mass sum_m |alpha_m|."""
        a = self._cosines()
        d = len(a) - 1
        return float(np.sum(np.abs(a))) * (2.0**-48 * d * s_max + (d + 12) * 2.0**-53)

    def draft_halves(self, t, t_abs: float, out: np.ndarray) -> tuple:
        """Re p at the two half-turn points t/2 and (t + 1)/2, drafted from
        one float32 cosine per state into out[0] and out[1], shape
        (2,) + t.shape.  With E and O the even and odd parts, out[k] holds
        E +- O rounded in float64, within err of the real value for every
        state |t| <= t_abs (err is inf past 2^14 or for a NaN t_abs).
        Returns (E, err); E is a float where p has no even lag but 0.

        With theta = pi t, cos(2 pi m (t + k)/2) = (-1)^(mk) T_m(cos theta),
        so E and O are the even and odd m of sum_m alpha_m T_m(c), with c
        the float32 cosine of theta clipped to [-1, 1] and T_m by its
        recurrence in float64.  The bound has four parts:
          - the float32 argument: theta rounds to float32 within
            2^-23 |theta| <= 2^-21 t_abs (pi < 4);
          - float32 ``np.cos``: numpy keeps it within 1.49 ulp below
            |theta| = 71476, and 2^-22 = 4 ulp of 1 is allowed;
          - Markov's inequality, |T_m'| <= m^2 on [-1, 1], carries the error
            of c into sum_m |alpha_m| m^2 (the l1 mass weighted by m^2);
          - the float64 recurrence (each T_m within 2.5 m^2 units of 2^-53),
            alpha, the sums and E +- O round within (d + 2)^2 2^-50 of the
            l1 mass, a wide margin over their 2.5 d^2 + 2 d + 2 units."""
        a = self._cosines()
        d, m = len(a) - 1, np.arange(len(a))
        err = (float(np.sum(np.abs(a) * m * m)) * (2.0**-21 * t_abs + 2.0**-22)
               + float(np.sum(np.abs(a))) * (d + 2) ** 2 * 2.0**-50)
        if not t_abs <= 2.0**14:
            err = np.inf
        even, odd = out
        c = np.multiply(t, np.pi, out=even).astype(np.float32)  # even is a work buffer here
        np.cos(c, out=c)
        np.clip(c, -1.0, 1.0, out=c)
        E, O = a[0], 0.0
        if d == 1:
            O = np.multiply(c, a[1], out=odd, dtype=float)
        elif d > 1:
            # T_n = 2 x T_{n-1} - T_{n-2} in three rotating buffers; E in its
            # own, O in the odd row
            x = c.astype(float)
            E, O = np.full(x.shape, a[0]), np.multiply(x, a[1], out=odd)
            prev, cur, spare, term = np.ones_like(x), x.copy(), np.empty_like(x), np.empty_like(x)
            for n in range(2, d + 1):
                np.multiply(x, cur, out=spare)
                spare *= 2.0
                spare -= prev
                prev, cur, spare = cur, spare, prev
                if a[n]:
                    acc = E if n % 2 == 0 else O
                    np.add(acc, np.multiply(cur, a[n], out=term), out=acc)
        np.add(E, O, out=even)
        np.subtract(E, O, out=odd)
        return E, err


@dataclass(frozen=True)
class WaveletFilter:
    """Low-pass filter m0(t) = sum_k a_k e^{2 pi i k t} with real taps.

    ``coeffs[k]`` is the tap at integer offset k.  |m0|^2 is carried as the
    real even polynomial with the autocorrelation c_j = sum_k a_k a_{k+j} of
    the taps as coefficients.
    """

    N: int
    coeffs: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("branching factor N must be >= 2")
        a = np.asarray(self.coeffs, dtype=float).copy()
        a.flags.writeable = False
        object.__setattr__(self, "coeffs", a)

    @cached_property
    def autocorr(self) -> TrigPoly:
        """|m0|^2 with coefficients c_j, c_{-j} = c_j, for |j| < len(coeffs)."""
        a = self.coeffs
        full = np.correlate(a, a, mode="full")
        return TrigPoly.even(full[len(a) - 1 :])

    def m0_sq(self, t):
        """|m0(t)|^2 evaluated exactly from the autocorrelation."""
        return self.autocorr(t)

    def ruelle(self, p: TrigPoly) -> TrigPoly:
        """(R p)(t) = (1/N) sum_k (|m0|^2 p)((t+k)/N): multiply by |m0|^2,
        then decimate by N."""
        return (self.autocorr * p).decimate(self.N)

    def ruelle_residual(self, p: TrigPoly) -> float:
        """Largest coefficient of R p - p in absolute value."""
        rp = self.ruelle(p)
        return float(max(abs(rp.coef(m) - p.coef(m)) for m in {*rp.lags, *p.lags}))


def haar_filter() -> WaveletFilter:
    return WaveletFilter(N=2, coeffs=np.array([1.0, 1.0]) / np.sqrt(2), name="haar")


def stretched_box_filter(m: int) -> WaveletFilter:
    """Two equal taps at offsets 0 and 2m+1; scaling function is the box
    (2m+1)^{-1/2} on [0, 2m+1] and the harmonic function is a Fejer kernel."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = np.zeros(2 * m + 2)
    a[0] = a[-1] = 1.0 / np.sqrt(2)
    return WaveletFilter(N=2, coeffs=a, name=f"box-{m}")


@dataclass(frozen=True)
class ScalingFunction:
    """Samples of phi0 at step N^-J over [0, extent].

    samples[i] is the value on the half-open cell [i*step, (i+1)*step); this
    convention makes integrals of the shipped box-type fixed points exact.
    """

    N: int
    J: int
    samples: np.ndarray
    sup_delta: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float).copy()
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    @property
    def step(self) -> float:
        return float(self.N) ** (-self.J)

    @property
    def cells_per_unit(self) -> int:
        return self.N**self.J

    def value_at_cells(self, idx: np.ndarray) -> np.ndarray:
        """phi0 at sample cells idx (0 outside the stored support)."""
        idx = np.asarray(idx)
        out = np.zeros(idx.shape, dtype=float)
        ok = (idx >= 0) & (idx < self.samples.size)
        out[ok] = self.samples[idx[ok]]
        return out


def cascade(filt: WaveletFilter, J: int, iters: int,
            start: "ScalingFunction | None" = None) -> ScalingFunction:
    """Iterate phi <- sqrt(N) sum_k a_k phi(N . - k), by default from the
    unit box; ``start`` substitutes another initial profile (e.g. to verify
    that a directly constructed scaling function is refinement-invariant).

    The refinement only ever reads phi at points of its own sample grid, so
    no interpolation enters; box-type fixed points are reproduced exactly.
    """
    if iters < 1:
        raise ValueError("need at least one cascade iteration")
    N, cpu = filt.N, filt.N**J
    k_max = len(filt.coeffs) - 1
    extent = max(1, int(np.ceil(k_max / (N - 1))))
    size = extent * cpu
    phi = np.zeros(size)
    if start is not None:
        if start.N != N or start.J != J:
            raise ValueError("start profile must share N and J")
        m = min(size, start.samples.size)
        phi[:m] = start.samples[:m]
    else:
        phi[:cpu] = 1.0  # unit box on [0, 1)
    root_n = np.sqrt(N)
    idx = np.arange(size) * N
    delta = np.inf
    for _ in range(iters):
        new = np.zeros(size)
        for k, a_k in enumerate(filt.coeffs):
            if a_k == 0.0:
                continue
            src = idx - k * cpu
            ok = (src >= 0) & (src < size)
            new[ok] += root_n * a_k * phi[src[ok]]
        delta = float(np.max(np.abs(new - phi)))
        phi = new
        if np.max(np.abs(phi)) > 1e6:
            raise ArithmeticError("cascade iteration diverged")
    return ScalingFunction(N=N, J=J, samples=phi, sup_delta=delta)


def box_scaling_function(m: int, J: int) -> ScalingFunction:
    """(2m+1)^{-1/2} * indicator of [0, 2m+1], sampled at step 2^-J."""
    cpu = 2**J
    samples = np.full((2 * m + 1) * cpu, 1.0 / np.sqrt(2 * m + 1))
    return ScalingFunction(N=2, J=J, samples=samples, sup_delta=0.0)


def autocorrelation(phi: ScalingFunction) -> TrigPoly:
    """The harmonic function h(t) = sum_n r_n e^{2 pi i n t} spanned by the
    autocorrelation r_n = int phi0(x+n) phi0(x) dx of phi0 on the sample
    grid (exact for boxes), as the real even ``TrigPoly.even(r)``: r_0 .. r_M
    are its coefficients at lags 0 .. M."""
    s, cpu, step = phi.samples, phi.cells_per_unit, phi.step
    max_shift = (s.size - 1) // cpu
    r = np.empty(max_shift + 1)
    for n in range(max_shift + 1):
        r[n] = step * float(np.dot(s[n * cpu :], s[: s.size - n * cpu]))
    while len(r) > 1 and abs(r[-1]) < 1e-15:
        r = r[:-1]
    return TrigPoly.even(r)


def verify_ruelle_fixed(filt: WaveletFilter, h: TrigPoly) -> float:
    """Max residual of R h - h at the 1024 circle nodes, where
    (Rf)(t) = (1/N) sum_k (|m0|^2 f)((t+k)/N) is taken in coefficient space
    by ``WaveletFilter.ruelle``."""
    rh = filt.ruelle(h)
    t = Grid(0.0, 1.0, 1024, "circle").nodes
    return float(np.max(np.abs(rh(t) - h(t))))


def apply_slanted(filt: WaveletFilter, xi: dict) -> dict:
    """(S xi)_n = sum_j a_{n-jN} xi_j for a sparse sequence {index: value}."""
    out: dict = {}
    for j, xj in xi.items():
        for k, a_k in enumerate(filt.coeffs):
            n = k + j * filt.N
            out[n] = out.get(n, 0.0) + a_k * xj
    return out


def intertwine_check(filt: WaveletFilter, phi: ScalingFunction, xi: dict) -> float:
    """Sup over the coarse sample mesh of |K(S xi)(x) - (U K xi)(x)|.

    (K xi)(x) = sum_n xi_n phi0(x - n); (U g)(x) = N^{-1/2} g(x/N).  The mesh
    is the set of sample points whose image under x -> x/N is again a sample
    point, so both sides evaluate by exact indexing.
    """
    if not xi:
        return 0.0
    N, cpu = phi.N, phi.cells_per_unit
    sxi = apply_slanted(filt, xi)
    lo = min(min(xi), min(sxi)) - 1
    hi = max(max(xi), max(sxi)) + (phi.samples.size // cpu) + 2
    # coarse mesh: x = i * N * step
    i_cells = np.arange(lo * cpu // N, hi * cpu // N + 1) * N
    lhs = np.zeros(i_cells.size)
    for n, v in sxi.items():
        lhs += v * phi.value_at_cells(i_cells - n * cpu)
    rhs = np.zeros(i_cells.size)
    for j, v in xi.items():
        rhs += v * phi.value_at_cells(i_cells // N - j * cpu)
    rhs /= np.sqrt(N)
    return float(np.max(np.abs(lhs - rhs)))
