import numpy as np
import pytest

from transferchain.grids import ks_two_sample, stream_rng
from transferchain.schur import (
    SchurEval,
    SchurParams,
    blaschke_product,
    contractivity_defect,
    eval_from_params,
    extract_params,
    sample_random_schur,
    schur_move,
    schur_step,
    uniform_disk_sampler,
)

DISK_POINTS = np.array([0.3 + 0.1j, -0.5j, 0.2, -0.6 + 0.2j])


def test_params_validation():
    with pytest.raises(ValueError):
        SchurParams(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        SchurParams(np.array([0.5, 0.9]), terminated=True)
    p = SchurParams(np.array([0.5, np.exp(0.3j)]), terminated=True)
    assert len(p) == 2


def test_step_constant():
    s = SchurEval.constant(0.3 + 0.2j)
    st = schur_step(s)
    assert st.rho == 0.3 + 0.2j
    assert not st.terminated
    assert np.max(np.abs(st.next.eval(DISK_POINTS))) <= 1e-14


def test_step_identity_function():
    st = schur_step(SchurEval(num=[0, 1], den=[1]))
    assert st.rho == 0
    assert np.max(np.abs(st.next.eval(DISK_POINTS) - 1.0)) <= 1e-14
    st2 = schur_step(st.next)
    assert st2.terminated
    assert abs(st2.rho) == pytest.approx(1.0)


def test_extract_z_over_two():
    p = extract_params(SchurEval(num=[0, 0.5], den=[1]), 5)
    assert np.allclose(p.params, [0, 0.5, 0, 0, 0])
    assert not p.terminated


def test_eval_from_params_examples():
    const = eval_from_params(SchurParams([0.4 + 0j]), DISK_POINTS)
    assert np.allclose(const, 0.4)
    half_z = eval_from_params(SchurParams([0, 0.5]), DISK_POINTS)
    assert np.max(np.abs(half_z - DISK_POINTS / 2)) <= 1e-12
    with pytest.raises(ValueError):
        eval_from_params(SchurParams([0.1]), np.array([1.0 + 0j]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_blaschke_termination(d):
    rng = stream_rng(d, 0)
    zeros = 0.6 * (rng.random(d) - 0.5) + 0.3j * (rng.random(d) - 0.5)
    p = extract_params(blaschke_product(list(zeros)), 12)
    assert p.terminated
    assert len(p) == d + 1
    assert abs(abs(p.params[-1]) - 1.0) <= 1e-8


def test_blaschke_degree_two_concrete():
    # z (z - 1/2) / (1 - z/2): parameters (0, -1/2, 1)
    p = extract_params(blaschke_product([0.0, 0.5]), 10)
    assert np.allclose(p.params[:2], [0.0, -0.5])
    assert abs(p.params[-1]) == pytest.approx(1.0, abs=1e-10)


def test_roundtrip_hundred_sequences():
    rng = stream_rng(3, 0)
    worst = 0.0
    for _ in range(100):
        r = 0.9 * np.sqrt(rng.random(8))
        params = SchurParams(r * np.exp(2j * np.pi * rng.random(8)))
        rec = extract_params(SchurEval.from_params(params), 8)
        worst = max(worst, float(np.max(np.abs(rec.params - params.params))))
    assert worst <= 1e-8


@pytest.mark.parametrize("length", range(1, 25))
def test_from_params_matches_continued_fraction(length):
    rng = stream_rng(100 + length, 0)
    params = SchurParams(0.9 * np.sqrt(rng.random(length))
                         * np.exp(2j * np.pi * rng.random(length)))
    z = 0.99 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    s = SchurEval.from_params(params)
    assert np.max(np.abs(s.eval(z) - eval_from_params(params, z))) <= 1e-13


def test_roundtrip_radius_09_depth_12_over_seeds():
    nu = uniform_disk_sampler(0.9)
    worst = 0.0
    for seed in range(50):
        params = sample_random_schur(nu, 12, master_seed=seed)
        rec = extract_params(SchurEval.from_params(params), 12)
        assert len(rec) == 12 and not rec.terminated
        worst = max(worst, float(np.max(np.abs(rec.params - params.params))))
    assert worst <= 1e-8


def test_contractivity_of_step_outputs():
    rng = stream_rng(4, 0)
    for i in range(10):
        r = 0.8 * np.sqrt(rng.random(5))
        params = SchurParams(r * np.exp(2j * np.pi * rng.random(5)))
        nxt = schur_step(SchurEval.from_params(params)).next
        assert contractivity_defect(nxt, master_seed=i, radius=0.99) <= 1e-9


def test_move_coincides_with_step():
    s = SchurEval(num=[0.5, 0.1j], den=[1.0, -0.2])
    a = schur_move(s, s.at0()).eval(DISK_POINTS)
    b = schur_step(s).next.eval(DISK_POINTS)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_move_zero_control_on_square():
    mv = schur_move(SchurEval(num=[0, 0, 1], den=[1]), 0.0)
    assert np.max(np.abs(mv.eval(DISK_POINTS) - DISK_POINTS)) <= 1e-14


def test_iterated_moves_reconstruct_iterates():
    s0 = SchurEval(num=[0.5, 0.2j], den=[1.0, -0.3])
    params = extract_params(s0, 4)
    cur = s0
    step_fn = s0
    for rho in params.params[:3]:
        cur = schur_move(cur, rho)
        step_fn = schur_step(step_fn).next
        assert np.max(np.abs(cur.eval(DISK_POINTS) - step_fn.eval(DISK_POINTS))) <= 1e-9


def test_move_rejects_bad_inputs():
    with pytest.raises(ValueError):
        schur_move(SchurEval.constant(0.3), 1.0)
    with pytest.raises(ValueError):
        schur_move(SchurEval.constant(np.exp(0.7j)), 0.2)


def test_point_mass_control_law():
    p = sample_random_schur(uniform_disk_sampler(0.0), 6, master_seed=5)
    assert np.all(p.params == 0.0)
    assert np.allclose(eval_from_params(p, DISK_POINTS), 0.0)


def test_random_schur_mean_and_shift_invariance():
    nu = uniform_disk_sampler(0.5)
    rng = stream_rng(6, 0)
    draws = nu(rng, 3 * 100_000).reshape(100_000, 3)
    se = 0.25 / np.sqrt(100_000)
    assert abs(draws[:, 0].mean()) <= 4 * se
    assert ks_two_sample(draws[:, 0].real, draws[:, 1].real) <= 0.01
    assert ks_two_sample(draws[:, 0].imag, draws[:, 2].imag) <= 0.01
    assert ks_two_sample(np.abs(draws[:, 1]), np.abs(draws[:, 2])) <= 0.01


def test_sampler_radius_enforced():
    def liar(rng, size):
        return np.full(size, 0.9 + 0j)

    liar.radius = 0.5
    with pytest.raises(ValueError, match="outside"):
        sample_random_schur(liar, 4, master_seed=7)
    with pytest.raises(ValueError):
        uniform_disk_sampler(1.0)


def test_parametric_representation_stepping():
    params = SchurParams([0.2, -0.3j, 0.1, 0.4])
    rec = extract_params(SchurEval.from_params(params), 4)
    assert np.max(np.abs(rec.params - params.params)) <= 1e-12
