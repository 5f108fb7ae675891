import tracemalloc

import numpy as np
import pytest

from transferchain.grids import (
    DiscreteMeasure,
    Grid,
    GridFunction,
    arcsine_measure,
    gauss_measure,
    uniform_measure,
    wasserstein1,
)
from transferchain.invariant import (
    affine_ifs,
    alpha_bound,
    build_ulam,
    cantor_ifs,
    contraction_certificate,
    halving_ifs,
    hutchinson_iterate,
    measure_moments,
    power_iterate,
    verify_invariance,
)
from transferchain.operators import (
    BranchSystem,
    GaussOperator,
    bernoulli_support,
    bernoulli_system,
    cell_flow_matrix,
    doubling_system,
    gauss_operator,
    logistic_system,
    random_control_system,
)
from transferchain.verify import logistic_separation_search


def point_mass(grid, cell):
    w = np.zeros(grid.n)
    w[cell] = 1.0
    return DiscreteMeasure(grid, w)


# ---------------------------------------------------------------------------
# Ulam matrices
# ---------------------------------------------------------------------------

def test_ulam_doubling_two_band():
    g = Grid(0.0, 1.0, 8)
    m = build_ulam(doubling_system(g), g)
    assert np.max(np.abs(m.column_sums - 1.0)) == 0.0
    for j in range(8):
        col = np.asarray(m.entries)[:, j]
        nz = np.nonzero(col)[0]
        assert list(nz) == sorted({j // 2, (j + 8) // 2})
        assert np.allclose(col[nz], 0.5)


def test_ulam_identity_branch():
    g = Grid(0.0, 1.0, 16)
    sys = BranchSystem(grid=g, sigma=lambda x: x, branches=[lambda x: x],
                       weights=lambda x: 1.0)
    m = build_ulam(sys, g)
    assert np.array_equal(m.entries, np.eye(16))


def test_ulam_gauss_column_deficit():
    g = Grid(0.0, 1.0, 512)
    cs = build_ulam(gauss_operator(K=10_000), g).column_sums
    assert np.all(cs >= 0.999)
    assert np.all(cs <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

def test_power_iterate_doubling_uniform():
    g = Grid(0.0, 1.0, 512)
    res = power_iterate(build_ulam(doubling_system(g), g), tol=1e-12, max_iters=60)
    assert res.converged
    assert res.iterations <= 60
    assert wasserstein1(res.measure, uniform_measure(g)) <= 1e-10
    assert res.residual <= 1e-10


def test_power_iterate_gauss_density():
    g = Grid(0.0, 1.0, 512)
    res = power_iterate(build_ulam(gauss_operator(K=10_000), g))
    l1 = np.abs(res.measure.weights - gauss_measure(g).weights).sum()
    assert l1 <= 0.02


def test_power_iterate_random_control_arcsine():
    g = Grid(0.0, 1.0, 1024)
    res = power_iterate(build_ulam(random_control_system(g), g), max_iters=3000)
    l1 = np.abs(res.measure.weights - arcsine_measure(g).weights).sum()
    assert l1 <= 0.03


def test_power_iterate_stationary_vector_sane():
    g = Grid(0.0, 1.0, 256)
    res = power_iterate(build_ulam(random_control_system(g), g))
    assert np.all(res.measure.weights >= 0.0)
    assert abs(res.measure.weights.sum() - 1.0) <= 1e-12


def test_power_iterate_residual_monotone_after_burn_in():
    for op_fn in (lambda g: doubling_system(g), lambda g: random_control_system(g),
                  lambda g: logistic_system(g)):
        g = Grid(0.0, 1.0, 256)
        m = build_ulam(op_fn(g), g)
        mu = uniform_measure(g)
        steps = []
        for _ in range(40):
            w = m.push(mu)
            nxt = DiscreteMeasure(g, w / w.sum())
            steps.append(wasserstein1(nxt, mu))
            mu = nxt
        tail = steps[5:]
        assert all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(tail, tail[1:]))


def test_power_iterate_allocates_chunks_not_flow_sized_arrays():
    # memory stays bounded as grid_n grows: each product adds one chunk of
    # stored entries at a time, so the 524k-entry Gauss flow at n = 4096 is
    # iterated in well under 2 MiB of temporaries; products through two
    # entry-sized temporaries took 8 MiB
    g = Grid(0.0, 1.0, 4096)
    m = build_ulam(gauss_operator(K=10_000), g)
    assert m.entries.data.size > 500_000
    tracemalloc.start()
    try:
        res = power_iterate(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= 2 * 2**20


def test_power_iterate_rejects_bad_tol():
    g = Grid(0.0, 1.0, 32)
    with pytest.raises(ValueError):
        power_iterate(build_ulam(doubling_system(g), g), tol=0.0)


# ---------------------------------------------------------------------------
# invariance residuals
# ---------------------------------------------------------------------------

def _test_functions(g):
    return [GridFunction.constant(g, 1.0),
            GridFunction.from_callable(g, lambda x: x),
            GridFunction.from_callable(g, lambda x: x**2),
            GridFunction.from_callable(g, lambda x: np.cos(2 * np.pi * x))]


def test_arcsine_invariant_for_random_control():
    g = Grid(0.0, 1.0, 2048)
    res = verify_invariance(arcsine_measure(g), random_control_system(g),
                            _test_functions(g))
    assert max(res) <= 5e-4


def test_lebesgue_invariant_for_gauss():
    g = Grid(0.0, 1.0, 512)
    res = verify_invariance(uniform_measure(g), gauss_operator(K=10_000),
                            [GridFunction.from_callable(g, lambda x: x)])
    assert res[0] <= 5e-4


def test_logistic_oracle_finds_no_separating_function():
    # The uniform-weight logistic move preserves the arcsine law exactly
    # (substitute x = sin^2 theta: the branch mixture re-uniformizes the
    # angle), so the residual oracle comes up empty at every candidate.
    name, best = logistic_separation_search()
    assert best <= 1e-3, f"unexpected separation via {name}: {best}"
    g = Grid(0.0, 1.0, 2048)
    res = verify_invariance(arcsine_measure(g), logistic_system(g), _test_functions(g))
    assert max(res) <= 1e-4


def test_invariance_residuals_refine_with_grid():
    medians = []
    for n in (512, 1024, 2048):
        g = Grid(0.0, 1.0, n)
        res = verify_invariance(arcsine_measure(g), random_control_system(g),
                                _test_functions(g))
        medians.append(np.median(res))
    assert medians[0] >= medians[1] >= medians[2]


# ---------------------------------------------------------------------------
# Hutchinson iteration
# ---------------------------------------------------------------------------

def test_hutchinson_halving_uniform():
    g = Grid(0.0, 1.0, 1024)
    res = hutchinson_iterate(halving_ifs(g), point_mass(g, 0), 30)
    assert wasserstein1(res.measure, uniform_measure(g)) <= 1e-3
    assert res.converged


def test_hutchinson_cantor_moments():
    g = Grid(0.0, 1.0, 2187)
    res = hutchinson_iterate(cantor_ifs(g), uniform_measure(g), 40)
    mean, var = measure_moments(res.measure)
    assert mean == pytest.approx(0.5, abs=1e-3)
    assert var == pytest.approx(0.125, abs=1e-3)


def test_hutchinson_single_map_collapses():
    g = Grid(0.0, 1.0, 1024)
    single = affine_ifs(g, slopes=np.array([0.5]), shifts=np.array([0.0]),
                        probs=np.array([1.0]))
    res = hutchinson_iterate(single, uniform_measure(g), 60)
    assert res.measure.weights[0] == pytest.approx(1.0, abs=1e-9)


def test_hutchinson_expansion_detected():
    g = Grid(-2.0, 2.0, 256)
    expanding = affine_ifs(g, slopes=np.array([1.3]), shifts=np.array([0.0]),
                           probs=np.array([1.0]))
    start = point_mass(g, g.cell_index(0.5))
    with pytest.raises(ArithmeticError, match="expanding"):
        hutchinson_iterate(expanding, start, 12)


def _hutchinson_loop(g, slopes, shifts, probs):
    """Reference pushforward matrix, one overlap pass per map and target offset."""
    M = np.zeros((g.n, g.n))
    for s_j, t_j, p_j in zip(np.asarray(slopes, dtype=float),
                             np.asarray(shifts, dtype=float), probs):
        a = s_j * g.edges[:-1] + t_j
        b = s_j * g.edges[1:] + t_j
        aa, bb = np.minimum(a, b), np.maximum(a, b)
        k0 = np.floor((aa - g.lower) / g.dx).astype(int)
        k0 -= aa < g.edge(k0)
        k1 = np.floor((bb - g.lower) / g.dx - 1e-15).astype(int)
        for s in range(int(np.max(k1 - k0)) + 1):
            k = k0 + s
            overlap = np.clip(np.minimum(bb, g.edge(k + 1)) - np.maximum(aa, g.edge(k)),
                              0.0, None)
            np.add.at(M, (np.clip(k, 0, g.n - 1), np.arange(g.n)),
                      p_j * (overlap / (bb - aa)))
    return M


def test_hutchinson_matrix_matches_overlap_loop():
    escaping = ([1.3], [0.0], [1.0])
    overlapping = ([-0.4, 0.35], [0.7, 0.1], [0.3, 0.7])
    cantor = ([1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5])
    halving = ([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    for ifs, maps in ((cantor_ifs(Grid(0.0, 1.0, 2187)), cantor),
                      (halving_ifs(Grid(0.0, 1.0, 512)), halving),
                      (affine_ifs(Grid(-2.0, 2.0, 256), *escaping), escaping),
                      (affine_ifs(Grid(0.0, 1.0, 300), *overlapping), overlapping)):
        assert np.array_equal(cell_flow_matrix(ifs, ifs.grid), _hutchinson_loop(ifs.grid, *maps))


def test_hutchinson_geometric_decay():
    for ifs_fn in (halving_ifs, cantor_ifs):
        g = Grid(0.0, 1.0, 729)
        ifs = ifs_fn(g)
        M = cell_flow_matrix(ifs, g)
        mu = point_mass(g, 10).weights
        last = None
        for _ in range(12):
            nxt = M @ mu
            step = wasserstein1(DiscreteMeasure(g, nxt / nxt.sum()),
                                DiscreteMeasure(g, mu / mu.sum()))
            if last is not None and step > 1e-12:
                assert step / last <= alpha_bound(ifs) + 3.0 / g.n
            last = step
            mu = nxt


def test_contraction_certificates():
    g = Grid(0.0, 1.0, 2187)
    cert = contraction_certificate(cantor_ifs(g), uniform_measure(g), point_mass(g, 100))
    assert cert.ratio <= 1.0 / 3.0 + 2.0 / g.n
    assert cert.alpha_bound == pytest.approx(1.0 / 3.0)

    ident = affine_ifs(g, slopes=np.array([1.0]), shifts=np.array([0.0]),
                       probs=np.array([1.0]))
    ident_ratio = contraction_certificate(ident, uniform_measure(g), point_mass(g, 5)).ratio
    assert ident_ratio == pytest.approx(1.0, abs=1e-12)

    gh = Grid(0.0, 1.0, 1024)
    cert_h = contraction_certificate(halving_ifs(gh), point_mass(gh, 0),
                                     point_mass(gh, gh.n - 1))
    assert abs(cert_h.ratio - 0.5) <= 2.0 / gh.n


def test_contraction_certificate_requires_distinct():
    g = Grid(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        contraction_certificate(halving_ifs(g), uniform_measure(g), uniform_measure(g))


def test_affine_ifs_rejects_bad_maps():
    g = Grid(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="align"):
        affine_ifs(g, slopes=[0.5, 0.5], shifts=[0.0], probs=[0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        affine_ifs(g, slopes=[0.5, 0.5], shifts=[0.0, 0.5], probs=[1.5, -0.5])
    with pytest.raises(ValueError, match="sum to 1"):
        affine_ifs(g, slopes=[0.5, 0.5], shifts=[0.0, 0.5], probs=[0.5, 0.6])


def test_alpha_bound_needs_constant_probabilities():
    g = Grid(0.0, 1.0, 64)
    placed = BranchSystem(grid=g, branches=[lambda x: 0.5 * x, lambda x: 0.5 * (x + 1.0)],
                          weights=lambda x: np.stack((x, 1.0 - x)))
    with pytest.raises(ValueError, match="constant"):
        alpha_bound(placed)


def test_hutchinson_overlapping_bernoulli_variance():
    # for a > 1/2 the two maps a(x -+ 1) have overlapping images; the
    # stationary law of sum_k +-a^k has mean 0 and variance a^2 / (1 - a^2)
    a = 0.6
    s = bernoulli_support(a)
    g = Grid(-s, s, 1024)
    ifs = bernoulli_system(g, a)
    assert ifs.sigma is None
    res = hutchinson_iterate(ifs, uniform_measure(g), 60)
    mean, var = measure_moments(res.measure)
    assert res.converged
    assert mean == pytest.approx(0.0, abs=1e-9)
    assert var == pytest.approx(a**2 / (1.0 - a**2), abs=1e-3)


def test_gauss_sigma_fractional_part():
    x = np.array([0.3, 0.7, 0.09])
    expect = 1.0 / x - np.floor(1.0 / x)
    assert np.allclose(GaussOperator.sigma(x), expect)
