"""Circle-solenoid structures: backward path prefixes of t -> Nt mod 1,
the shift and its inverse, the line embedding, the positive-definite
function on the N-adic rationals, and coordinate distributions.

A prefix (t_0, .., t_K) satisfies N t_{k+1} = t_k (mod 1); extending it is
one move of the filter's Markov chain, so a sampled prefix is a path, a
column of a ``chains.simulate_paths`` ensemble of
``operators.circle_filter_system``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import DiscreteMeasure, Grid
from .wavelets import TrigPoly, WaveletFilter

__all__ = [
    "SolenoidPrefix",
    "shift_hat",
    "shift_inverse",
    "embed_line",
    "filter_product",
    "pd_value",
    "pd_gram",
    "pi_k_distribution",
]

_UNIT_CIRCLE = Grid(0.0, 1.0, 2, "circle")  # for its periodic distance


@dataclass(frozen=True)
class SolenoidPrefix:
    """Angles (t_0, .., t_K) in [0,1) with N t_{k+1} = t_k (mod 1)."""

    N: int
    angles: np.ndarray

    def __post_init__(self):
        a = np.mod(np.asarray(self.angles, dtype=float), 1.0)
        a.flags.writeable = False
        object.__setattr__(self, "angles", a)
        if a.size == 0:
            raise ValueError("prefix needs at least one angle")
        if self.invariant_violation() > 1e-12:
            raise ValueError("angles violate the solenoid constraint")

    def invariant_violation(self) -> float:
        a = self.angles
        if a.size < 2:
            return 0.0
        return float(np.max(_UNIT_CIRCLE.distance(np.mod(self.N * a[1:], 1.0), a[:-1])))

    def __len__(self) -> int:
        return self.angles.size


def shift_hat(p: SolenoidPrefix) -> SolenoidPrefix:
    """sigma-hat: prepend N t_0 mod 1 (path gets one angle longer)."""
    first = np.mod(p.N * p.angles[0], 1.0)
    return SolenoidPrefix(p.N, np.concatenate(([first], p.angles)))


def shift_inverse(p: SolenoidPrefix) -> SolenoidPrefix:
    """sigma-hat^{-1}: drop the leading angle."""
    if len(p) < 2:
        raise ValueError("cannot shift a single-angle prefix back")
    return SolenoidPrefix(p.N, p.angles[1:])


def embed_line(N: int, t: float, K: int) -> SolenoidPrefix:
    """gamma_N: the real number t as the prefix (t, t/N, .., t/N^K) mod 1."""
    if K < 0:
        raise ValueError("K must be >= 0")
    angles = np.mod(t / float(N) ** np.arange(K + 1), 1.0)
    return SolenoidPrefix(N, angles)


# ---------------------------------------------------------------------------
# coefficient-space machinery for |m^(k)|^2 and the positive-definite function
# ---------------------------------------------------------------------------

def pd_value(filt: WaveletFilter, h: TrigPoly, n: int, k: int,
             z_angle: float) -> complex:
    """L(n / N^k) = (R^k (e_n h))(z) with everything in coefficient space."""
    if k < 0:
        raise ValueError("k must be >= 0")
    g = h.shift(n)
    for _ in range(k):
        g = filt.ruelle(g)
    return complex(g(z_angle))


def pd_gram(filt: WaveletFilter, h: TrigPoly,
            points: Sequence[tuple], z_angle: float) -> np.ndarray:
    """Gram matrix G[u, v] = L(n_u/N^{k_u} - n_v/N^{k_v}) on the N-adic
    rationals, assembled after common-denominator reduction."""
    N = filt.N
    ks = [k for (_, k) in points]
    if any(k < 0 for k in ks):
        raise ValueError("denominators N^k need k >= 0")
    K = max(ks)
    nums = [n * N ** (K - k) for (n, k) in points]
    m = len(points)
    G = np.empty((m, m), dtype=complex)
    cache: dict = {}
    for u in range(m):
        for v in range(m):
            d = nums[u] - nums[v]
            if d not in cache:
                cache[d] = pd_value(filt, h, d, K, z_angle)
            G[u, v] = cache[d]
    herm_defect = float(np.max(np.abs(G - G.conj().T)))
    if herm_defect > 1e-8:
        raise ArithmeticError(f"Gram matrix not Hermitian (defect {herm_defect:.2e})")
    return G


def filter_product(filt: WaveletFilter, k: int) -> TrigPoly:
    """|m^(k)(t)|^2 = prod_{j<k} |m0(N^j t)|^2 as an exact trig polynomial."""
    poly = TrigPoly(0, [1.0])
    for j in range(k):
        poly = poly * filt.autocorr.dilate(filt.N**j)
    return poly


def pi_k_distribution(filt: WaveletFilter, h: TrigPoly, k: int,
                      grid: Grid) -> DiscreteMeasure:
    """Law of the k-th solenoid coordinate: density |m^(k)|^2 h on the circle.

    Cell masses are exact integrals of the trigonometric polynomial, so the
    total mass equals the constant coefficient (1 for a harmonic h of unit
    mean) to round-off.
    """
    if grid.domain_kind != "circle":
        raise ValueError("coordinate laws live on circle grids")
    dens = filter_product(filt, k) * h
    edges = (grid.edges - grid.lower) / grid.width
    masses = np.full(grid.n, float(np.real(dens.coef(0))) * grid.dx / grid.width)
    for m, coef in zip(dens.lags, dens.c):
        if m == 0 or coef == 0:
            continue
        prim = (np.exp(2j * np.pi * m * edges[1:]) -
                np.exp(2j * np.pi * m * edges[:-1])) / (2j * np.pi * m)
        masses += np.real(coef * prim)
    total = masses.sum()
    if abs(total - 1.0) > 1e-8:
        raise ArithmeticError(f"coordinate density mass {total!r} differs from 1")
    return DiscreteMeasure(grid, np.clip(masses, 0.0, None) / total, normalized=True)
