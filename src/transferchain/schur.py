"""The Schur algorithm: parameter extraction, continued-fraction
reconstruction, the controlled move F(s, rho), and random Schur functions.

A Schur function is carried as a rational function (complex num/den
coefficient arrays), so the recursion is exact polynomial algebra and
Blaschke termination is detected algebraically.  A parameter sequence
becomes one through its truncated continued fraction (``from_params``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .grids import stream_rng

__all__ = [
    "SchurParams",
    "SchurEval",
    "SchurStep",
    "schur_step",
    "extract_params",
    "eval_from_params",
    "schur_move",
    "sample_random_schur",
    "uniform_disk_sampler",
    "blaschke_product",
    "contractivity_defect",
    "TERMINATION_TOL",
]

TERMINATION_TOL = 1e-8


def _polyval(coeffs: np.ndarray, z):
    return np.polynomial.polynomial.polyval(z, coeffs)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(coeffs))) or 1.0
    keep = np.nonzero(np.abs(coeffs) > 1e-13 * scale)[0]
    if keep.size == 0:
        return np.zeros(1, dtype=complex)
    return coeffs[: keep[-1] + 1]


@dataclass(frozen=True)
class SchurParams:
    """Schur parameter sequence rho_0, rho_1, ...; ``terminated`` means the
    recursion stopped at a final parameter of modulus 1 (Blaschke case)."""

    params: np.ndarray
    terminated: bool = False

    def __post_init__(self):
        p = np.asarray(self.params, dtype=complex).copy()
        p.flags.writeable = False
        object.__setattr__(self, "params", p)
        mods = np.abs(p)
        interior = mods[:-1] if self.terminated and p.size else mods
        if np.any(interior >= 1.0):
            raise ValueError("non-terminal Schur parameters must have |rho| < 1")
        if self.terminated and p.size and abs(mods[-1] - 1.0) > 1e-10:
            raise ValueError("terminal parameter must have modulus 1")

    def __len__(self) -> int:
        return self.params.size


@dataclass(frozen=True)
class SchurEval:
    """A Schur-class function num/den (coefficient arrays, low-to-high)."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num", _trim(np.asarray(self.num, dtype=complex)))
        object.__setattr__(self, "den", _trim(np.asarray(self.den, dtype=complex)))
        if np.all(self.den == 0):
            raise ValueError("zero denominator polynomial")

    @classmethod
    def constant(cls, c: complex) -> "SchurEval":
        return cls(num=np.array([c]), den=np.array([1.0 + 0j]))

    @classmethod
    def from_params(cls, params: SchurParams) -> "SchurEval":
        """The continued fraction of ``params`` with a zero tail, built from
        the last level out: s_n = (rho_n + z s_{n+1}) / (1 + conj(rho_n) z s_{n+1})."""
        num, den = np.zeros(1, dtype=complex), np.ones(1, dtype=complex)
        for rho in params.params[::-1]:
            zn = np.concatenate(([0.0 + 0j], num))
            num, den = (np.polynomial.polynomial.polyadd(rho * den, zn),
                        np.polynomial.polynomial.polyadd(den, np.conj(rho) * zn))
        return cls(num=num, den=den)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        return _polyval(self.num, z) / _polyval(self.den, z)

    def __call__(self, z):
        return self.eval(z)

    def at0(self) -> complex:
        return complex(self.num[0] / self.den[0])

    @property
    def is_unitary_constant(self) -> bool:
        return self.num.size == 1 and self.den.size == 1 and \
            abs(abs(self.at0()) - 1.0) <= 1e-12


def contractivity_defect(s: SchurEval, master_seed: int = 0,
                         radius: float = 1.0 - 1e-6) -> float:
    """max(|s(z)| - 1) over 64 random test points with |z| <= radius."""
    rng = stream_rng(master_seed, 0)
    r = radius * np.sqrt(rng.random(64))
    z = r * np.exp(2j * np.pi * rng.random(64))
    return float(np.max(np.abs(s.eval(z)) - 1.0))


class SchurStep(NamedTuple):
    rho: complex
    next: Optional[SchurEval]
    terminated: bool


def _shifted_image(s: SchurEval, rho: complex, zero_at_origin: bool) -> SchurEval:
    """(s - rho) / (z (1 - conj(rho) s)) as num/den.  The z cancels, and the
    numerator's constant term is dropped, when ``zero_at_origin`` or when
    that term is round-off (1e-12 of the numerator's largest); otherwise z
    stays in the denominator, a pole at 0."""
    n1 = np.polynomial.polynomial.polysub(s.num, rho * s.den)
    d1 = np.polynomial.polynomial.polysub(s.den, np.conj(rho) * s.num)
    scale = float(np.max(np.abs(n1))) or 1.0
    if zero_at_origin or abs(n1[0]) <= 1e-12 * scale:
        return SchurEval(num=n1[1:] if n1.size > 1 else np.zeros(1, dtype=complex), den=d1)
    return SchurEval(num=n1, den=np.concatenate(([0.0 + 0j], d1)))


def schur_step(s: SchurEval) -> SchurStep:
    """One Schur recursion step: rho = s(0) and the shifted Moebius image
    (s - rho) / (z (1 - conj(rho) s)).

    |rho| reaching 1 is the termination signal (finite Blaschke product):
    no next function is produced.
    """
    rho = s.at0()
    if abs(rho) >= 1.0 - TERMINATION_TOL:
        return SchurStep(rho=rho, next=None, terminated=True)
    # the numerator vanishes at the origin by construction
    return SchurStep(rho=rho, next=_shifted_image(s, rho, zero_at_origin=True),
                     terminated=False)


def extract_params(s: SchurEval, max_depth: int) -> SchurParams:
    """Run the recursion to depth max_depth or Blaschke termination.

    Round-off grows with the depth and with the parameters' radius, and the
    output can lose all accuracy with no sign of it: the 32 parameters drawn
    by ``schur --schur-spec random:0.99,32 --master-seed 7`` come back all
    inside the disk, with a worst error of 0.82.  README's "Schur round-trip
    accuracy" table gives the error by depth and radius."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rhos = []
    cur = s
    for _ in range(max_depth):
        step_result = schur_step(cur)
        rhos.append(step_result.rho)
        if step_result.terminated:
            rho_last = rhos[-1]
            rhos[-1] = rho_last / abs(rho_last)  # record the unimodular limit
            return SchurParams(np.array(rhos), terminated=True)
        cur = step_result.next
    return SchurParams(np.array(rhos), terminated=False)


def eval_from_params(p: SchurParams, z):
    """Evaluate the continued fraction pointwise, with a zero tail:
    s_n = (rho_n + z s_{n+1}) / (1 + conj(rho_n) z s_{n+1}).  The reference
    that ``SchurEval.from_params`` is tested against."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation points must lie in the open disk")
    t = np.zeros(z.shape, dtype=complex)
    for level in range(len(p) - 1, -1, -1):
        rho = p.params[level]
        denom = 1.0 + np.conj(rho) * z * t
        if np.any(np.abs(denom) < 1e-14):
            raise ZeroDivisionError(f"continued fraction denominator vanished at level {level}")
        t = (rho + z * t) / denom
    if np.any(np.abs(t) > 1.0 + 1e-10):
        raise ArithmeticError("continued fraction left the closed unit disk")
    return t


def schur_move(s: SchurEval, rho: complex) -> SchurEval:
    """The controlled map F(s, rho)(z) = (s(z) - rho) / (z (1 - s(z) conj(rho))).

    Coincides with the recursion step's next function when rho = s(0).
    """
    if abs(rho) >= 1.0:
        raise ValueError("control parameter must lie in the open disk")
    if s.is_unitary_constant:
        raise ValueError("unitary constants are outside the state space")
    return _shifted_image(s, rho, zero_at_origin=False)


def uniform_disk_sampler(radius: float) -> Callable:
    """nu = the uniform law on the closed disk of the given radius."""
    if not 0.0 <= radius < 1.0:
        raise ValueError("support radius must lie in [0, 1)")

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        r = radius * np.sqrt(rng.random(size))
        return r * np.exp(2j * np.pi * rng.random(size))

    draw.radius = radius
    return draw


def sample_random_schur(nu: Callable, depth: int, master_seed: int) -> SchurParams:
    """Draw rho_0..rho_{depth-1} i.i.d. from nu; the sequence identifies a
    point of the Schur class.  nu must declare its support radius < 1."""
    radius = getattr(nu, "radius", None)
    if radius is None or radius >= 1.0:
        raise ValueError("the control law must declare a support radius < 1")
    rng = stream_rng(master_seed, 0)
    draws = np.asarray(nu(rng, depth), dtype=complex)
    if np.any(np.abs(draws) > radius + 1e-12):
        raise ValueError("control law produced mass outside its declared disk")
    return SchurParams(draws, terminated=False)


def blaschke_product(zeros: Sequence[complex]) -> SchurEval:
    """prod_i (z - a_i) / (1 - conj(a_i) z), a finite Blaschke product."""
    num = np.array([1.0 + 0j])
    den = np.array([1.0 + 0j])
    for a in zeros:
        if abs(a) >= 1.0:
            raise ValueError("Blaschke zeros must lie in the open disk")
        num = np.polynomial.polynomial.polymul(num, np.array([-a, 1.0 + 0j]))
        den = np.polynomial.polynomial.polymul(den, np.array([1.0 + 0j, -np.conj(a)]))
    return SchurEval(num=num, den=den)
