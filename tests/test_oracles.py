import math

import numpy as np
import pytest

from chiralflow import dynamics, models, oracles
from conftest import evolve_spec, return_weights, spec_hamiltonian

T0 = 2.0 * math.pi / (3.0 * math.sqrt(3.0))


def test_three_node_anchor_values():
    assert oracles.three_node_sgf_population(1, 0.0) == pytest.approx(1.0)
    assert oracles.three_node_sgf_population(2, T0) == pytest.approx(1.0, abs=1e-12)
    # cos(2 pi / 3) = -1/2 makes the residual amplitude vanish on node 1
    assert oracles.three_node_sgf_population(1, T0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        oracles.three_node_sgf_population(4, 0.0)


def test_four_node_ring_relations():
    t = np.linspace(0.0, 20.0, 500)
    dark = oracles.four_node_sgf_populations(math.pi / 4, t)
    assert np.max(dark[2]) <= 1e-28
    for theta in (0.3, math.pi / 2, 1.1):
        pops = oracles.four_node_sgf_populations(theta, t)
        assert np.array_equal(pops[1], pops[3])
    start = oracles.four_node_sgf_populations(0.7, 0.0)[:, 0]
    assert np.allclose(start, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_four_node_centre_amplitude_values():
    assert oracles.four_node_asgf_amplitude(1, 2.0, 0.0) == pytest.approx(1.0)
    # quarter cycle moves the excitation fully onto node 2
    assert abs(oracles.four_node_asgf_amplitude(2, 2.0, math.pi / 4.0)) == pytest.approx(
        1.0, abs=1e-12)
    t = np.linspace(0.0, 8 * math.pi, 20001)
    off = np.max(np.abs(oracles.four_node_asgf_amplitude(2, 1.0, t)))
    assert off < 1.0 - 1e-3


def test_four_node_centre_regrouped_identity():
    t = np.linspace(0.0, 10.0, 400)
    for j in (1, 2, 3, 4):
        for beta in (1.0, 2.0, 2.7):
            direct = oracles.four_node_asgf_amplitude(j, beta, t)
            regrouped = oracles.four_node_asgf_amplitude_regrouped(j, beta, t)
            assert np.max(np.abs(direct - regrouped)) <= 1e-12


def test_six_node_centre_peak_is_one_ninth():
    for beta in (math.sqrt(2.0), 2.0, 3.0):
        t_star = math.pi / (math.sqrt(6.0) * beta)
        p4 = oracles.six_node_asgf_populations(beta, t_star)[3, 0]
        assert p4 == pytest.approx(1.0 / 9.0, abs=1e-12)
        t = np.linspace(0.0, 30.0, 7000)
        assert np.max(oracles.six_node_asgf_populations(beta, t)[3]) <= 1.0 / 9.0 + 1e-12
    start = oracles.six_node_asgf_populations(2.0, 0.0)[:, 0]
    assert np.allclose(start, [1, 0, 0, 0, 0, 0], atol=1e-15)


def test_six_node_centre_matches_numeric():
    t = np.linspace(0.0, 15.0, 1100)
    traj = evolve_spec(models.asgf(6, 1.3, math.pi / 2), t)
    oracle = oracles.six_node_asgf_populations(1.3, t)
    assert np.max(np.abs(traj.populations[:, :6].T - oracle)) <= 1e-9


def test_plane_wave_spectrum_matches():
    h, _ = spec_hamiltonian(models.sgf_ring(4, 2 * math.pi))
    values = dynamics.eigendecompose(h).eigenvalues
    expected = sorted(oracles.ring_dispersion(4, m) for m in oracles.ring_mode_numbers(4))
    assert np.allclose(values, expected, atol=1e-12)


def test_even_ring_site_bound():
    assert oracles.even_site_population_bound(6) == pytest.approx((1 - 2 / 6) ** 2)
    t = np.linspace(0.0, 60.0, 12001)
    pops = np.abs(oracles.n_node_sgf_solution(6, 2, t)) ** 2
    assert np.max(pops) <= oracles.even_site_population_bound(6) + 1e-9
    with pytest.raises(ValueError):
        oracles.even_site_population_bound(5)


def test_three_node_plane_wave_reduces_to_closed_form():
    # The pi/2-per-link ring circulates opposite to the pi/2-flux ring, so
    # the closed form applies with sites 2 and 3 exchanged.
    t = np.linspace(0.0, 12.0, 800)
    relabel = {1: 1, 2: 3, 3: 2}
    for j in (1, 2, 3):
        plane = np.abs(oracles.n_node_sgf_solution(3, j, t)) ** 2
        closed = oracles.three_node_sgf_population(relabel[j], t)
        assert np.max(np.abs(plane - closed)) <= 1e-12


@pytest.mark.parametrize("n", range(3, 9))
def test_plane_wave_solution_matches_numeric(n):
    t = np.linspace(0.0, 12.0, 1000)
    traj = evolve_spec(models.sgf_ring(n, n * math.pi / 2), t)
    for j in range(1, n + 1):
        oracle = np.abs(oracles.n_node_sgf_solution(n, j, t)) ** 2
        assert np.max(np.abs(traj.node_population(j) - oracle)) <= 1e-9


def test_five_node_spectrum_ratios():
    h, _ = spec_hamiltonian(models.chiral_n_node(5))
    values = dynamics.eigendecompose(h).eigenvalues
    e1 = values[values > 1e-9].min()
    assert np.allclose(np.sort(values) / e1, [-5, -2, -1, 1, 2, 5], atol=1e-9)


def test_six_node_energy_conditions():
    h, _ = spec_hamiltonian(models.chiral_n_node(6))
    values = np.sort(dynamics.eigendecompose(h).eigenvalues)
    e2 = values[values > 1e-9].min()
    assert np.allclose(values / e2, [-3, -2, -1, 0, 1, 2, 3], atol=1e-9)


EXPECTED_POLES = (math.sqrt(2.0), 2.0 * math.sqrt(2.0), 3.0 * math.sqrt(2.0),
                  2.0 * math.sqrt(7.0))
EXPECTED_COEFFS = (3.0 / 8.0, 11.0 / 40.0, 1.0 / 8.0, 1.0 / 35.0)


def test_ladder_three_cell_reference_model():
    # Reference constants correspond to the ladder whose rows hold four
    # nodes, i.e. three shared-corner cells: corner 1's weights per level
    # are the coefficients of its return amplitude, a symmetric pole set
    # with equal weights at +x and -x, so the amplitude is real.
    levels, weights = return_weights(models.ladder(3, [2.0]))
    expected = np.concatenate([-np.array(EXPECTED_POLES[::-1]), [0.0], EXPECTED_POLES])
    assert levels.shape == (9,)
    assert np.max(np.abs(levels - expected)) <= 1e-9
    assert np.max(np.abs(weights - weights[::-1])) <= 1e-9
    assert weights[4] == pytest.approx(11.0 / 56.0, abs=1e-12)
    coeffs = weights[5:] + weights[3::-1]
    assert coeffs == pytest.approx(EXPECTED_COEFFS, abs=1e-9)
    assert weights[4] + coeffs.sum() == pytest.approx(1.0, abs=1e-12)


def test_three_cell_ladder_amplitude_matches_numeric():
    # oracle-check's grid
    t = np.linspace(0.0, 12.0, 1200)
    traj = evolve_spec(models.ladder(3, [2.0]), t)
    oracle = oracles.three_cell_ladder_amplitude(t) ** 2
    assert np.max(np.abs(traj.node_population(1) - oracle)) <= 1e-12


def test_oracle_populations_bounded_and_normalised():
    t = np.linspace(0.0, 10.0, 400)
    pops = oracles.four_node_sgf_populations(0.9, t)
    assert np.all(pops >= -1e-15) and np.all(pops <= 1.0 + 1e-12)
    traj = evolve_spec(models.asgf(6, 2.0, math.pi / 2), t)
    total = np.sum(traj.populations, axis=1)
    assert np.allclose(total, 1.0, atol=1e-10)
