"""Stationary measures: Ulam discretization with power iteration, and
Hutchinson pushforward iteration for iterated function systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grids import DiscreteMeasure, Grid, GridFunction, integrate, uniform_measure, wasserstein1
from .operators import BranchSystem, ControlFlow, CSCMatrix, cell_flow_matrix

__all__ = [
    "UlamMatrix",
    "StationaryResult",
    "build_ulam",
    "power_iterate",
    "verify_invariance",
    "hutchinson_iterate",
    "affine_ifs",
    "alpha_bound",
    "contraction_certificate",
    "ContractionCertificate",
    "halving_ifs",
    "cantor_ifs",
    "measure_moments",
]


@dataclass(frozen=True)
class UlamMatrix:
    """Discretized action mu -> mu R: entries[i, j] is the mass sent from
    cell j to cell i.  Columns of a normalized operator sum to 1.

    ``entries`` is a cell flow as ``cell_flow_matrix`` returns it, used
    through ``@`` only; it is kept as given, never copied or changed."""

    grid: Grid
    entries: CSCMatrix | ControlFlow

    def __post_init__(self):
        if self.entries.shape != (self.grid.n, self.grid.n):
            raise ValueError("entries must be n x n for the grid")
        if self.entries.min() < 0.0:
            raise ValueError("flow matrix has a negative entry")

    @property
    def column_sums(self) -> np.ndarray:
        return np.ones(self.grid.n) @ self.entries

    def push(self, mu: DiscreteMeasure) -> np.ndarray:
        if mu.grid != self.grid:
            raise ValueError("measure grid mismatch")
        return self.entries @ mu.weights


@dataclass(frozen=True)
class StationaryResult:
    measure: DiscreteMeasure
    residual: float
    iterations: int
    converged: bool


def build_ulam(op, grid: Grid) -> UlamMatrix:
    """Column j = the operator's Markov kernel applied to cell j's mass,
    resolved onto target cells by exact interval overlap."""
    return UlamMatrix(grid=grid, entries=cell_flow_matrix(op, grid))


def power_iterate(m: UlamMatrix, tol: float = 1e-12, max_iters: int = 5000) -> StationaryResult:
    """Iterate mu <- normalize(mu M) from the uniform start until the
    Wasserstein-1 step size drops below tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = m.grid
    prev = uniform_measure(grid)
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        w = m.push(prev)
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise ArithmeticError("power iteration diverged")
        cur = DiscreteMeasure(grid, w / total, normalized=True)
        if wasserstein1(cur, prev) <= tol:
            prev = cur
            converged = True
            break
        prev = cur
    pushed = m.push(prev)
    pushed_measure = DiscreteMeasure(grid, pushed / pushed.sum(), normalized=True)
    residual = wasserstein1(pushed_measure, prev)
    return StationaryResult(measure=prev, residual=residual,
                            iterations=iterations,
                            converged=converged and residual <= tol)


def verify_invariance(mu: DiscreteMeasure, op, test_fns: Sequence[GridFunction]) -> list:
    """Per test function, |int (Rf) dmu - int f dmu|."""
    out = []
    for f in test_fns:
        rf = op.apply(f)
        out.append(abs(integrate(rf, mu) - integrate(f, mu)))
    return out


# ---------------------------------------------------------------------------
# iterated function systems
# ---------------------------------------------------------------------------

def affine_ifs(grid: Grid, slopes, shifts, probs, name: str = "") -> BranchSystem:
    """The IFS of affine maps x -> slope_j x + shift_j with constant
    probabilities, as a branch system without an endomorphism: its map
    images may overlap."""
    s, t, p = (np.asarray(v, dtype=float) for v in (slopes, shifts, probs))
    if not (s.shape == t.shape == p.shape):
        raise ValueError("slopes, shifts, probs must align")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    return BranchSystem(
        grid=grid,
        branches=[lambda x, s_j=s_j, t_j=t_j: s_j * x + t_j for s_j, t_j in zip(s, t)],
        weights=lambda x: p[:, None],
        name=name,
    )


def halving_ifs(grid: Grid) -> BranchSystem:
    return affine_ifs(grid, slopes=[0.5, 0.5], shifts=[0.0, 0.5], probs=[0.5, 0.5],
                      name="halving")


def cantor_ifs(grid: Grid) -> BranchSystem:
    return affine_ifs(grid, slopes=[1 / 3, 1 / 3], shifts=[0.0, 2 / 3], probs=[0.5, 0.5],
                      name="cantor")


def alpha_bound(ifs: BranchSystem) -> float:
    """sum_j p_j Lip(tau_j), the Hutchinson contraction bound of an IFS with
    constant probabilities.  Lip(tau_j) is the largest stretch of a grid
    cell under tau_j, exact for affine maps up to round-off."""
    g = ifs.grid
    p = ifs.weight_matrix(g.nodes)
    if np.any(p != p[:, :1]):
        raise ValueError("alpha_bound needs constant branch probabilities")
    lip = [np.max(np.abs(np.diff(np.asarray(tau(g.edges), dtype=float)))) / g.dx
           for tau in ifs.branches]
    return float(np.dot(p[:, 0], lip))


def hutchinson_iterate(ifs: BranchSystem, mu0: DiscreteMeasure, iters: int) -> StationaryResult:
    """Repeated pushforward mu <- sum_j p_j mu o tau_j^{-1}.

    Raises if the Wasserstein distance between successive iterates ever
    expands; the contractive case decays geometrically.
    """
    if mu0.grid != ifs.grid:
        raise ValueError("start measure not on the IFS grid")
    M = cell_flow_matrix(ifs, ifs.grid)
    mu = mu0
    last_step = np.inf
    for it in range(1, iters + 1):
        w = M @ mu.weights
        nxt = DiscreteMeasure(ifs.grid, w / w.sum(), normalized=True)
        step = wasserstein1(nxt, mu)
        if step > last_step * (1.0 + 1e-9) and step > 4.0 / ifs.grid.n:
            raise ArithmeticError(
                f"pushforward expanding at iteration {it}: {last_step:.3e} -> {step:.3e}"
            )
        last_step = step
        mu = nxt
    w = M @ mu.weights
    pushed = DiscreteMeasure(ifs.grid, w / w.sum(), normalized=True)
    return StationaryResult(measure=mu, residual=wasserstein1(pushed, mu),
                            iterations=iters, converged=last_step <= 4.0 / ifs.grid.n)


class ContractionCertificate(NamedTuple):
    ratio: float
    alpha_bound: float


def contraction_certificate(ifs: BranchSystem, mu: DiscreteMeasure,
                            nu: DiscreteMeasure) -> ContractionCertificate:
    """Observed one-step contraction ratio of the pushforward against the
    Lipschitz bound ``alpha_bound``."""
    base = wasserstein1(mu, nu)
    if base == 0.0:
        raise ValueError("mu and nu must differ")
    M = cell_flow_matrix(ifs, ifs.grid)
    pm = DiscreteMeasure(ifs.grid, (M @ mu.weights), normalized=False).normalize()
    pn = DiscreteMeasure(ifs.grid, (M @ nu.weights), normalized=False).normalize()
    return ContractionCertificate(ratio=wasserstein1(pm, pn) / base,
                                  alpha_bound=alpha_bound(ifs))


def measure_moments(mu: DiscreteMeasure) -> tuple:
    """(mean, variance) of a grid measure, nodes weighted by cell masses."""
    x = mu.grid.nodes
    mean = float(np.dot(x, mu.weights))
    var = float(np.dot((x - mean) ** 2, mu.weights))
    return mean, var
