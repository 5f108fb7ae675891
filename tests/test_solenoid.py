from fractions import Fraction

import numpy as np
import pytest

from transferchain.chains import (
    MarkovSampler,
    quasi_invariance_check,
    simulate_paths,
)
from transferchain.grids import (
    Grid,
    ks_distance,
    stream_rng,
    uniform_ppf,
)
from transferchain.operators import (
    circle_filter_system,
    doubling_system,
    parametric_system,
    parametric_weight,
)
from transferchain.solenoid import (
    SolenoidPrefix,
    embed_line,
    filter_product,
    pd_gram,
    pd_value,
    pi_k_distribution,
    shift_hat,
    shift_inverse,
)
from transferchain.wavelets import (
    TrigPoly,
    autocorrelation,
    box_scaling_function,
    haar_filter,
    stretched_box_filter,
)

H1 = TrigPoly(0, [1.0])


def test_prefix_invariant_enforced():
    SolenoidPrefix(2, np.array([0.3, 0.65]))  # 2*0.65 = 1.3 = 0.3 mod 1
    with pytest.raises(ValueError):
        SolenoidPrefix(2, np.array([0.3, 0.6]))


def sampled_prefixes(filt, h, n_paths, n_steps, seed):
    """Paths of a filter-chain ensemble, each a solenoid prefix."""
    system = circle_filter_system(Grid(0.0, 1.0, 64, "circle"), filt, h)
    pe = simulate_paths(MarkovSampler(system, uniform_ppf, master_seed=seed), n_paths, n_steps)
    return [SolenoidPrefix(filt.N, path) for path in pe.paths.T]


def test_extension_preserves_invariant():
    h_box = autocorrelation(box_scaling_function(1, 8))
    for filt, h in ((haar_filter(), None), (stretched_box_filter(1), h_box)):
        for p in sampled_prefixes(filt, h, 20, 10, seed=1):
            assert p.invariant_violation() <= 1e-12
            assert len(p) == 11


def test_extension_probabilities_haar():
    system = circle_filter_system(Grid(0.0, 1.0, 64, "circle"), haar_filter())
    probs = system.weight_matrix(np.array([0.3]))[:, 0]
    # (1/2)|m0|^2 at the two preimages; sums to 1 because h = 1 is harmonic
    pre = (0.3 + np.arange(2)) / 2.0
    assert np.allclose(probs, 0.5 * (1 + np.cos(2 * np.pi * pre)))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_extension_rejects_non_harmonic_weight():
    bad_h = TrigPoly.even([1.0, 0.4])  # not Ruelle-fixed
    with pytest.raises(ValueError, match=r"filter haar: \|Rh - h\| = 0.4 > 1e-8"):
        circle_filter_system(Grid(0.0, 1.0, 64, "circle"), haar_filter(), bad_h)


def test_vanishing_branch_never_chosen():
    # |m0|^2 of the Haar filter vanishes at angle 1/2: from t = 0 the second
    # preimage (0 + 1)/2 = 1/2 has weight 0, and step never takes it
    system = circle_filter_system(Grid(0.0, 1.0, 64, "circle"), haar_filter())
    assert system.weight_matrix(np.array([0.0]))[1, 0] == 0.0
    u = np.append(stream_rng(2, 0).random(50), np.nextafter(1.0, 0.0))
    assert np.all(system.step(np.zeros(u.size), u[None, :]) == 0.0)


def test_haar_branch_frequency():
    # |m0|^2 is not flat, but its average over a uniform start is: the
    # ensemble frequency of the lower preimage branch is exactly 1/2
    gc = Grid(0.0, 1.0, 4096, "circle")
    sys = circle_filter_system(gc, haar_filter())
    s = MarkovSampler(sys, uniform_ppf, master_seed=3)
    pe = simulate_paths(s, 100_000, 1)
    freq = np.mean(pe.paths[1] < 0.5)
    assert abs(freq - 0.5) <= 0.005
    # and at the balance angle t = 1/2 the two branch weights are equal
    w = sys.weight_matrix(np.array([0.5]))
    assert np.allclose(w.ravel(), 0.5)


def test_shift_roundtrip_and_fixed_point():
    (p,) = sampled_prefixes(haar_filter(), None, 1, 5, seed=4)
    assert np.array_equal(shift_inverse(shift_hat(p)).angles, p.angles)
    zeros = SolenoidPrefix(2, np.zeros(4))
    assert np.array_equal(shift_hat(zeros).angles, np.zeros(5))
    with pytest.raises(ValueError):
        shift_inverse(SolenoidPrefix(2, np.array([0.2])))


def test_shift_composition_recovers_head():
    p = SolenoidPrefix(3, np.mod(0.7 / 3.0 ** np.arange(4), 1.0))
    q = p
    for _ in range(3):
        q = shift_hat(q)
    assert q.angles[3] == p.angles[0]


def test_dyadic_prefixes_exact():
    # exact rational arithmetic on the dense dyadic subset
    angles = [Fraction(3, 8)]
    for j in (0, 1, 1, 0, 1):
        angles.append((angles[-1] + j) / 2)
    assert all((2 * angles[k + 1]) % 1 == angles[k] % 1 for k in range(len(angles) - 1))
    floats = SolenoidPrefix(2, np.array([float(a) for a in angles]))
    assert floats.invariant_violation() == 0.0


def test_embed_line():
    z = embed_line(2, 0.0, 5)
    assert np.all(z.angles == 0.0)
    p = embed_line(2, 5.375, 6)
    assert p.invariant_violation() == 0.0
    t, K = 3.7, 3
    a = embed_line(2, t, K)
    b = embed_line(2, t + 2.0**K, K)
    assert np.allclose(a.angles[:K], b.angles[:K])
    assert a.angles[K] != b.angles[K]
    with pytest.raises(ValueError):
        embed_line(2, 1.0, -1)


# ---------------------------------------------------------------------------
# positive-definite function on Z[1/N]
# ---------------------------------------------------------------------------

def test_pd_value_at_zero_is_h():
    h_box = autocorrelation(box_scaling_function(1, 8))
    for z in (0.1, 0.37, 0.9):
        assert pd_value(haar_filter(), H1, 0, 3, z) == pytest.approx(1.0, abs=1e-12)
        expect = float(h_box(np.array([z]))[0])
        assert pd_value(stretched_box_filter(1), h_box, 0, 2, z) == \
            pytest.approx(expect, abs=1e-10)


def test_pd_well_defined_under_denominator_lift():
    rng = stream_rng(5, 0)
    for _ in range(10):
        n = int(rng.integers(-6, 7))
        k = int(rng.integers(0, 3))
        z = float(rng.random())
        a = pd_value(haar_filter(), H1, n, k, z)
        b = pd_value(haar_filter(), H1, 2 * n, k + 1, z)
        assert abs(a - b) <= 1e-9


def test_pd_gram_positive_semidefinite():
    rng = stream_rng(6, 0)
    h_box = autocorrelation(box_scaling_function(1, 8))
    for filt, h in ((haar_filter(), H1), (stretched_box_filter(1), h_box)):
        for _ in range(20):
            pts = [(int(rng.integers(-8, 9)), int(rng.integers(0, 4)))
                   for _ in range(6)]
            G = pd_gram(filt, h, pts, z_angle=float(rng.random()))
            assert np.linalg.eigvalsh(G).min() >= -1e-8


# ---------------------------------------------------------------------------
# coordinate distributions
# ---------------------------------------------------------------------------

def test_pi_zero_is_h():
    g = Grid(0.0, 1.0, 1024, "circle")
    h_box = autocorrelation(box_scaling_function(1, 8))
    mu = pi_k_distribution(stretched_box_filter(1), h_box, 0, g)
    dens = mu.density
    target = h_box(g.nodes)
    assert np.max(np.abs(dens - target)) <= 1e-4  # cell averaging only


def test_pi_one_haar_density():
    g = Grid(0.0, 1.0, 1024, "circle")
    mu = pi_k_distribution(haar_filter(), H1, 1, g)
    assert np.max(np.abs(mu.density - 2 * np.cos(np.pi * g.nodes) ** 2)) <= 1e-5
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", range(6))
def test_pi_k_total_mass(k):
    g = Grid(0.0, 1.0, 512, "circle")
    h_box = autocorrelation(box_scaling_function(1, 8))
    for filt, h in ((haar_filter(), H1), (stretched_box_filter(1), h_box)):
        mu = pi_k_distribution(filt, h, k, g)
        assert abs(mu.weights.sum() - 1.0) <= 1e-8


def test_filter_product_norm():
    # int |m^(k)|^2 h dlambda = 1 for a normalized filter and its harmonic h
    g = Grid(0.0, 1.0, 2048, "circle")
    h_box = autocorrelation(box_scaling_function(1, 8))
    fp = filter_product(stretched_box_filter(1), 3)
    vals = np.real(fp(g.nodes)) * h_box(g.nodes)
    assert np.mean(vals) == pytest.approx(1.0, abs=1e-8)


def test_pi_k_matches_sampled_paths():
    gc = Grid(0.0, 1.0, 8192, "circle")
    s = MarkovSampler(circle_filter_system(gc, haar_filter()), uniform_ppf,
                      master_seed=7)
    pe = simulate_paths(s, 100_000, 3)
    mu3 = pi_k_distribution(haar_filter(), H1, 3, Grid(0, 1, 2048, "circle"))
    assert ks_distance(pe.paths[3], mu3) <= 0.02


# ---------------------------------------------------------------------------
# scaling unitary
# ---------------------------------------------------------------------------

def test_scaling_unitary_constant_psi():
    g = Grid(0.0, 1.0, 512)
    s = MarkovSampler(doubling_system(g), uniform_ppf, master_seed=8)
    pe = simulate_paths(s, 100_000, 2)
    assert quasi_invariance_check(pe, lambda x: 1.0, lambda x: np.ones(x.size) ** 2, 0) == 0.0


def test_scaling_unitary_measure_preserving():
    g = Grid(0.0, 1.0, 512)
    s = MarkovSampler(doubling_system(g), uniform_ppf, master_seed=9)
    pe = simulate_paths(s, 1_000_000, 2)
    assert quasi_invariance_check(pe, lambda x: 1.0,
                                  lambda x: np.sin(2 * np.pi * x) ** 2, 0) <= 4.0


def test_scaling_unitary_parametric():
    g = Grid(0.0, 1.0, 512)
    s = MarkovSampler(parametric_system(g, 0.3), uniform_ppf, master_seed=10)
    pe = simulate_paths(s, 1_000_000, 2)
    W = parametric_weight(0.3)
    assert quasi_invariance_check(pe, W, lambda x: x ** 2, 1) <= 4.0
