import math

import numpy as np
import pytest

from chiralflow import dynamics, hilbert, models, oracles
from chiralflow.dynamics import Direction
from chiralflow.errors import (
    DimensionMismatch,
    EmptyWindow,
    NoPeaks,
    NonHermitian,
    OutOfGrid,
)
from conftest import evolve_spec, spec_hamiltonian


def test_eigendecompose_three_node_spectrum():
    h, _ = spec_hamiltonian(models.sgf_ring(3, math.pi / 2))
    values = dynamics.eigendecompose(h).eigenvalues
    assert np.allclose(values, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-12)


def test_eigendecompose_four_node_spectrum():
    h, _ = spec_hamiltonian(models.sgf_ring(4, 2 * math.pi))
    values = dynamics.eigendecompose(h).eigenvalues
    assert np.allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_eigendecompose_identity():
    system = dynamics.eigendecompose(np.eye(4, dtype=complex))
    assert np.allclose(system.eigenvalues, 1.0)


def test_eigendecompose_invariants_and_determinism():
    h, _ = spec_hamiltonian(models.chiral_n_node(5))
    system = dynamics.eigendecompose(h)
    m = h.matrix
    for i in range(system.dim):
        v = system.eigenvectors[:, i]
        assert np.linalg.norm(m @ v - system.eigenvalues[i] * v) <= 1e-10 * np.linalg.norm(m)
    gram = system.eigenvectors.conj().T @ system.eigenvectors
    assert np.max(np.abs(gram - np.eye(system.dim))) <= 1e-10
    again = dynamics.eigendecompose(h)
    assert np.array_equal(system.eigenvectors, again.eigenvectors)


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        dynamics.eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_zero_hamiltonian_is_stationary():
    times = np.linspace(0, 5, 50)
    traj = dynamics.evolve(np.zeros((3, 3), dtype=complex), dynamics.basis_state(3, 0), times)
    assert np.allclose(traj.populations[:, 0], 1.0)
    assert np.allclose(traj.populations[:, 1:], 0.0)


def test_three_node_matches_closed_form():
    times = np.linspace(0.0, 4 * math.pi / math.sqrt(3.0), 1000)
    traj = evolve_spec(models.sgf_ring(3, math.pi / 2), times)
    for j in (1, 2, 3):
        oracle = oracles.three_node_sgf_population(j, times)
        assert np.max(np.abs(traj.node_population(j) - oracle)) <= 1e-9


def test_four_node_dark_site():
    times = np.linspace(0.0, 40.0, 3000)
    traj = evolve_spec(models.sgf_ring(4, math.pi), times)
    assert np.max(traj.node_population(3)) <= 1e-12


def test_evolve_dimension_mismatch():
    h, _ = spec_hamiltonian(models.sgf_ring(3, math.pi / 2))
    with pytest.raises(DimensionMismatch):
        dynamics.evolve(h, dynamics.basis_state(4, 0), np.linspace(0, 1, 5))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad_time", [np.nan, np.inf])
def test_evolve_rejects_non_finite_times(bad_time):
    h, _ = spec_hamiltonian(models.sgf_ring(3, math.pi / 2))
    with pytest.raises(ValueError, match="norm"):
        dynamics.evolve(h, dynamics.basis_state(3, 0), np.array([0.0, bad_time]))


def test_norm_and_energy_conservation():
    rng = np.random.default_rng(2)
    spec = models.asgf(5, float(rng.uniform(0.5, 3.0)), float(rng.uniform(-math.pi, math.pi)))
    h, basis = spec_hamiltonian(spec)
    psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 25.0, 1500)
    traj = dynamics.evolve(h, psi0, times, basis=basis)
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert np.max(np.abs(norms**2 - 1.0)) <= 1e-10
    energies = np.einsum("ti,ij,tj->t", traj.amplitudes.conj(), h.matrix, traj.amplitudes)
    scale = np.max(np.abs(h.matrix))
    assert np.max(np.abs(energies - energies[0])) <= 1e-9 * scale


def rk4_reference(h, psi0, times):
    """Independent fixed-step integrator for cross-validation."""
    m = h.matrix if isinstance(h, hilbert.HermitianMatrix) else h
    out = [np.asarray(psi0, dtype=complex)]
    for t0, t1 in zip(times, times[1:]):
        steps = 40
        dt = (t1 - t0) / steps
        psi = out[-1]
        for _ in range(steps):
            k1 = -1j * (m @ psi)
            k2 = -1j * (m @ (psi + 0.5 * dt * k1))
            k3 = -1j * (m @ (psi + 0.5 * dt * k2))
            k4 = -1j * (m @ (psi + dt * k3))
            psi = psi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(psi)
    return np.asarray(out)


@pytest.mark.parametrize("make_spec", [
    lambda: models.asgf(4, 2.0, math.pi / 2),
    lambda: models.chiral_n_node(5),
])
def test_evolution_matches_runge_kutta(make_spec):
    spec = make_spec()
    h, _ = spec_hamiltonian(spec)
    times = np.linspace(0.0, 3.0, 61)
    psi0 = dynamics.basis_state(spec.n_sites, 0)
    traj = dynamics.evolve(h, psi0, times)
    reference = rk4_reference(h, psi0, times)
    assert np.max(np.abs(traj.amplitudes - reference)) <= 1e-6


def test_transfer_fidelity_full_cycle():
    times = np.linspace(0.0, math.pi, 1601)
    traj = evolve_spec(models.asgf(4, 2.0, math.pi / 2), times)
    assert dynamics.transfer_fidelity(traj, math.pi) == pytest.approx(1.0, abs=1e-9)
    assert dynamics.transfer_fidelity(traj, 0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(OutOfGrid):
        dynamics.transfer_fidelity(traj, 2 * math.pi)


def test_transfer_fidelity_imperfect_on_large_ladder():
    from chiralflow import experiments

    spec = models.ladder(6, [2.0])
    _, period = experiments.revival_fidelity(spec)
    times = np.linspace(0.0, 1.1 * period, 3001)
    traj = evolve_spec(spec, times)
    value = dynamics.transfer_fidelity(traj, period)
    assert 0.5 < value < 1.0 - 1e-3
    overlap = traj.initial_overlap()
    idx = int(np.argmin(np.abs(times - period)))
    assert overlap[idx] == pytest.approx(value, abs=1e-12)


def test_average_fidelity_values():
    times = np.linspace(0.0, math.pi, 1601)
    traj = evolve_spec(models.asgf(4, 2.0, math.pi / 2), times)
    assert dynamics.average_fidelity(traj, [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-9)
    frozen = dynamics.evolve(np.zeros((4, 4), dtype=complex), dynamics.basis_state(4, 0), times)
    assert dynamics.average_fidelity(frozen, [1, 2, 3, 4]) == pytest.approx(0.25)
    with pytest.raises(EmptyWindow):
        dynamics.average_fidelity(traj, [])


def test_chirality_order_perfect_flow():
    times = np.linspace(0.0, math.pi, 1601)
    traj = evolve_spec(models.asgf(4, 2.0, math.pi / 2), times)
    verdict = dynamics.chirality_order(traj, [1, 2, 3, 4])
    assert verdict.order == (1, 2, 3, 4)
    assert verdict.direction is Direction.CLOCKWISE
    assert verdict.min_peak >= 1.0 - 1e-8


def test_chirality_none_for_mirror_symmetric_flow():
    times = np.linspace(0.0, 20.0, 4001)
    traj = evolve_spec(models.sgf_ring(4, math.pi / 2), times)
    verdict = dynamics.chirality_order(traj, [1, 2, 3, 4], peak_threshold=0.5)
    assert verdict.direction is Direction.NONE


def test_chirality_no_peaks():
    times = np.linspace(0.0, 1.0, 11)
    traj = dynamics.evolve(np.zeros((3, 3), dtype=complex), dynamics.basis_state(3, 2), times)
    with pytest.raises(NoPeaks):
        dynamics.chirality_order(traj, [1])  # node 1 stays dark
    with pytest.raises(ValueError):
        dynamics.chirality_order(traj, [1, 2, 3], peak_threshold=0.0)


def test_chirality_none_unless_every_ring_node_is_visited():
    # Only nodes 1 and 2 are coupled: node 3 stays dark, so no orientation.
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    traj = dynamics.evolve(h, dynamics.basis_state(3, 0), np.linspace(0.0, math.pi, 201))
    verdict = dynamics.chirality_order(traj, [1, 2, 3])
    assert verdict.order == (1, 2)
    assert verdict.direction is Direction.NONE


def test_reversed_flux_reverses_direction():
    times = np.linspace(0.0, 2 * math.pi / math.sqrt(3.0), 1201)
    forward = evolve_spec(models.sgf_ring(3, math.pi / 2), times)
    backward = evolve_spec(models.sgf_ring(3, -math.pi / 2), times)
    assert dynamics.chirality_order(forward, [1, 2, 3]).direction is Direction.CLOCKWISE
    assert dynamics.chirality_order(backward, [1, 2, 3]).direction is Direction.COUNTERCLOCKWISE


def test_gauge_invariance_of_populations():
    spec = models.asgf(4, 2.0, math.pi / 2)
    times = np.linspace(0.0, 2 * math.pi, 800)
    reference = evolve_spec(spec, times)
    landau = evolve_spec(models.asgf(4, 2.0, math.pi / 2, gauge=models.LANDAU), times)
    assert np.max(np.abs(reference.populations - landau.populations)) <= 1e-12
    rng = np.random.default_rng(17)
    for _ in range(10):
        phases = rng.uniform(-math.pi, math.pi, 5)
        transformed = evolve_spec(models.gauge_transform(spec, phases), times)
        assert np.max(np.abs(reference.populations - transformed.populations)) <= 1e-12


def test_trajectory_csv_format():
    times = np.linspace(0.0, 1.0, 3)
    traj = evolve_spec(models.sgf_ring(3, math.pi / 2), times)
    text = dynamics.trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,node_1,node_2,node_3"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1.0
    value = float(lines[2].split(",")[1])
    assert f"{value:.12g}" == lines[2].split(",")[1]


def test_multi_excitation_populations():
    spec = models.sgf_ring(3, 3 * math.pi / 2)
    times = np.linspace(0.0, 5.0, 101)
    traj = evolve_spec(spec, times, start=(1, 1, 0), n_excitations=2)
    total = np.sum(traj.populations, axis=1)
    assert np.allclose(total, 2.0, atol=1e-10)


def test_cycle_grid_resolution():
    grid = dynamics.cycle_grid(np.array([-2.0, 0.0, 2.0]), periods=1.0, points_per_period=100)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)
    assert grid.size == 101
