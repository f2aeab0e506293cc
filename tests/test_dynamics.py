import importlib
import logging
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralflow import cli, commands, dynamics, hilbert, models, oracles
from chiralflow.dynamics import Direction
from chiralflow.errors import DimensionMismatch, EmptyWindow, NoPeaks, OutOfRange
from conftest import evolve_spec, first_peak_time, hermitian, spec_hamiltonian

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_eigendecompose_three_node_spectrum():
    h, _ = spec_hamiltonian(models.sgf_ring(3, math.pi / 2))
    values = dynamics.eigendecompose(h).eigenvalues
    assert np.allclose(values, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-12)


def test_eigendecompose_four_node_spectrum():
    h, _ = spec_hamiltonian(models.sgf_ring(4, 2 * math.pi))
    values = dynamics.eigendecompose(h).eigenvalues
    assert np.allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_eigendecompose_identity():
    system = dynamics.eigendecompose(hermitian(np.eye(4)))
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


def test_zero_hamiltonian_is_stationary():
    times = np.linspace(0, 5, 50)
    traj = dynamics.evolve(hermitian(np.zeros((3, 3))), dynamics.basis_state(3, 0), times)
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
    # A stack of matrices is refused, as its factors would be stacked too.
    stack = hilbert.HermitianMatrix(3, h.rows, h.cols, np.stack([h.values, h.values]))
    with pytest.raises(DimensionMismatch):
        dynamics.evolve(stack, dynamics.basis_state(3, 0), np.linspace(0, 1, 5))


def uniform_ring(n):
    """The n-site ring with unit real hoppings."""
    h = np.zeros((n, n))
    sites = np.arange(n)
    h[sites, (sites + 1) % n] = h[(sites + 1) % n, sites] = 1.0
    return hermitian(h)


@pytest.mark.parametrize("bad_time", [np.nan, np.inf])
def test_evolve_rejects_non_finite_times(bad_time, monkeypatch):
    # Refused up front, on both branches: nothing is decomposed.
    calls = []
    monkeypatch.setattr(dynamics, "eigendecompose", calls.append)
    h, _ = spec_hamiltonian(models.sgf_ring(3, math.pi / 2))
    with pytest.raises(ValueError, match="finite"):
        dynamics.evolve(h, dynamics.basis_state(3, 0), np.array([0.0, bad_time]))
    n = dynamics.KRYLOV_MIN_DIM
    with pytest.raises(ValueError, match="finite"):
        dynamics.evolve(uniform_ring(n), dynamics.basis_state(n, 0), np.array([0.0, bad_time]))
    assert calls == []


def krylov_steps(h, psi0, times):
    """(rows, Ritz count, bound) of each Krylov step of ``evolve``."""
    return [(rows, phases.shape[1], bound)
            for rows, phases, _, bound in dynamics._krylov_steps(h, psi0, times)]


def test_krylov_branch_stops_on_invariant_subspaces():
    n = dynamics.KRYLOV_MIN_DIM
    times = np.linspace(0.0, 5.0, 50)
    zero = hermitian(np.zeros((n, n)))
    traj = dynamics.evolve(zero, dynamics.basis_state(n, 7), times)
    assert np.array_equal(traj.amplitudes, np.tile(dynamics.basis_state(n, 7), (times.size, 1)))
    assert krylov_steps(zero, dynamics.basis_state(n, 7), times) == [(slice(0, 50), 1, 0.0)]
    # The uniform state is an eigenvector (energy 2) of the unit-hopping ring.
    h = uniform_ring(n)
    psi0 = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    ((rows, size, _),) = krylov_steps(h, psi0, times)
    assert (rows, size) == (slice(0, 50), 1)
    traj = dynamics.evolve(h, psi0, times)
    assert np.max(np.abs(traj.amplitudes - np.exp(-2j * times)[:, None] * psi0)) <= 1e-12
    # A zero window is one step of one vector, whatever the start.
    assert krylov_steps(h, dynamics.basis_state(n, 0), np.zeros(3)) == [(slice(0, 3), 1, 0.0)]


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
    m = h.matrix
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


def test_average_fidelity_values():
    times = np.linspace(0.0, math.pi, 1601)
    traj = evolve_spec(models.asgf(4, 2.0, math.pi / 2), times)
    assert dynamics.average_fidelity(traj.populations, [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-9)
    frozen = dynamics.evolve(hermitian(np.zeros((4, 4))), dynamics.basis_state(4, 0), times)
    assert dynamics.average_fidelity(frozen.populations, [1, 2, 3, 4]) == pytest.approx(0.25)
    with pytest.raises(EmptyWindow):
        dynamics.average_fidelity(traj.populations, [])


def test_average_fidelity_of_a_stack_is_each_trajectory_alone():
    stack = np.random.default_rng(5).random((6, 300, 5))
    values = dynamics.average_fidelity(stack, [4, 1, 2])
    assert values.shape == (6,)
    assert values.tolist() == [dynamics.average_fidelity(p, [4, 1, 2]) for p in stack]


def test_node_labels_outside_the_network_raise():
    # Label 0 used to read column -1, the last node's, without complaint.
    traj = evolve_spec(models.sgf_ring(3, math.pi / 2), np.linspace(0.0, 1.0, 11))
    stack = np.stack([traj.populations, traj.populations[::-1]])
    for label in (0, -1, 4):
        with pytest.raises(OutOfRange):
            traj.node_population(label)
        with pytest.raises(OutOfRange):
            dynamics.average_fidelity(traj.populations, [label])
        with pytest.raises(OutOfRange):
            dynamics.average_fidelity(stack, [1, label])
    assert np.array_equal(traj.node_population(3), traj.populations[:, 2])


def test_average_fidelity_rejects_empty_windows_and_node_lists():
    with pytest.raises(EmptyWindow):
        dynamics.average_fidelity(np.zeros((3, 0, 4)), [1, 2])
    with pytest.raises(EmptyWindow):
        dynamics.average_fidelity(np.zeros((0, 4)), [1])
    with pytest.raises(EmptyWindow):
        dynamics.average_fidelity(np.ones((3, 10, 4)), [])


@PROPERTY_SETTINGS
@given(st.lists(st.one_of(st.just(0.0), st.just(5e-324), st.just(2.2250738585072014e-308),
                          st.floats(0.0, 1e300, allow_subnormal=True)),
                min_size=1, max_size=40))
def test_root_of_the_maximum_is_the_maximum_root(values):
    # average_fidelity takes sqrt after the time maximum: a correctly rounded
    # sqrt is monotone, so the order of the two is bitwise immaterial.
    values = np.array(values)
    assert np.sqrt(np.max(values)).tobytes() == np.max(np.sqrt(values)).tobytes()


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
    traj = dynamics.evolve(hermitian(np.zeros((3, 3))), dynamics.basis_state(3, 2), times)
    with pytest.raises(NoPeaks):
        dynamics.chirality_order(traj, [1])  # node 1 stays dark
    with pytest.raises(ValueError):
        dynamics.chirality_order(traj, [1, 2, 3], peak_threshold=0.0)


def test_first_peak_time_refines_a_sampled_cosine():
    times = np.linspace(0.0, 4.0, 401)
    peak = 1.2345
    # An earlier bump below the threshold is skipped; the grid misses the
    # peak by 0.0045, and the parabola recovers it to about 3e-8.
    trace = 1.0 + np.cos(2.0 * (times - peak)) + 0.3 * np.exp(-((times - 0.3) / 0.05) ** 2)
    assert abs(first_peak_time(times, trace, 0.8) - peak) <= 1e-6
    assert first_peak_time(times, trace, 0.4) < 0.35
    with pytest.raises(NoPeaks):
        first_peak_time(times, np.zeros_like(times), 0.8)


def direct_populations(energies, coefficients, times):
    """F_j(t) = |sum_k c_jk e^{-i E_k t}|^2 by the direct sum, (n_times, n_nodes)."""
    amplitudes = np.exp(-1j * np.outer(times, energies)) @ coefficients.T
    return np.square(amplitudes.real) + np.square(amplitudes.imag)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.floats(0.05, 4.0),
       st.floats(-5.0, 5.0), st.floats(0.05, 12.0), st.floats(0.05, 5.0))
# A scan of 6 points where W h = 100: bisection runs out of intervals, and
# the certificate (0.43 of the ceiling) says so.
@example(8, 1, 100.0, 0.0, 12.0, 5.0)
def test_window_peaks_are_the_certified_maximum_of_random_spectra(dim, seed, phase, t0, span,
                                                                  scale):
    # c_jk = V_jk (V^dag psi0)_k of a random Hermitian h and start state,
    # scanned on [t0, t0 + span] in steps of ``phase`` / W, W the spectral
    # width (the disorder sweep scans with W h <= 1).  Against a 20 001-point
    # grid of step h: each value is at most the grid's maximum plus M_j h^2 / 8,
    # and at least that maximum less the certificate, which is at most
    # PEAK_TOL of the ceiling (sum_k |c_jk|)^2; both less rounding (1e-13 of
    # the ceiling).  So the node's modulus sqrt(F), which the sweep averages,
    # is within sqrt(PEAK_TOL * ceiling) of its maximum, as
    # sqrt(F + g) - sqrt(F) <= sqrt(g).
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    energies, vectors = np.linalg.eigh(scale * (a + a.conj().T) / 2.0)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    coefficients = vectors * (vectors.conj().T @ (psi0 / np.linalg.norm(psi0)))
    count = 1 + math.ceil(span * (energies[-1] - energies[0]) / phase)
    step = span / (count - 1)
    scan = direct_populations(energies, coefficients, t0 + np.arange(count) * step)
    peaks = dynamics.window_peaks(energies, coefficients, t0, step, scan)

    fine = np.linspace(t0, t0 + span, 20_001)
    grid = direct_populations(energies, coefficients, fine).max(axis=0)
    size = np.abs(coefficients)
    ceiling = size.sum(axis=1) ** 2
    curvature = np.einsum("jk,jl,kl->j", size, size,
                          np.subtract.outer(energies, energies) ** 2)
    rounding = 1e-13 * ceiling
    h = fine[1] - fine[0]
    assert np.all(peaks.values <= grid + curvature * h * h / 8.0 + rounding)
    assert np.all(peaks.values + peaks.certificates >= grid - rounding)
    if phase <= 4.0:
        assert np.all(peaks.certificates <= dynamics.PEAK_TOL * ceiling + 4.0 * np.spacing(ceiling))
        modulus_gap = np.sqrt(peaks.values + peaks.certificates) - np.sqrt(peaks.values)
        assert np.all(modulus_gap <= math.sqrt(dynamics.PEAK_TOL) * np.sqrt(ceiling))
    # Each time lies in the window, and F there is the value.
    assert np.all((t0 <= peaks.times) & (peaks.times <= t0 + span + 1e-12))
    at_times = np.diagonal(direct_populations(energies, coefficients, peaks.times))
    assert np.all(np.abs(at_times - peaks.values) <= rounding)


def test_window_peaks_certify_an_edge_maximum_at_zero():
    # F(t) = |0.6 + 0.3 e^{-i(t + pi/3)}|^2 = 0.45 + 0.36 cos(t + pi/3) falls
    # all through [0, 1], so its maximum is the first sample, 0.63, below the
    # ceiling 0.81.  No Newton bracket exists; the edge bound, F below F(0)
    # within 2 |F'(0)| / M = 1.73 of t = 0, certifies the window without
    # bisection.
    energies = np.array([0.0, 1.0])
    coefficients = np.array([[0.6, 0.3 * np.exp(-1j * math.pi / 3.0)]])
    step, count = 0.1, 11
    scan = direct_populations(energies, coefficients, np.arange(count) * step)
    peaks = dynamics.window_peaks(energies, coefficients, 0.0, step, scan)
    assert peaks.times[0] == 0.0
    assert peaks.values[0] == scan[0, 0] == pytest.approx(0.63, abs=1e-15)
    assert peaks.certificates[0] <= dynamics.PEAK_TOL * 0.81
    assert (peaks.refined, peaks.bisected) == (0, 0)


def test_window_peaks_of_a_zero_width_spectrum_are_the_constant():
    # Equal levels: F is constant, so M = L = 0.  Where the c_k partly cancel
    # it stays below the ceiling; nothing is bisected, and the certificate is
    # rounding.  The second node is at its ceiling from the start.
    energies = np.full(3, 1.5)
    coefficients = np.array([[0.5, -0.3, 0.2j], [1.0, 0.0, 0.0]])
    step, count = 0.25, 9
    scan = direct_populations(energies, coefficients, np.arange(count) * step)
    peaks = dynamics.window_peaks(energies, coefficients, 0.0, step, scan)
    assert np.allclose(peaks.values, [0.2**2 + 0.2**2, 1.0], rtol=0.0, atol=1e-15)
    assert peaks.bisected == 0
    assert np.all(peaks.certificates <= 1e-15)


def test_window_peaks_of_a_stack_are_each_row_alone():
    # The sweep searches a chunk of samples at once; each sample's values,
    # times and certificates are bitwise those of a search of it alone.
    rng = np.random.default_rng(5)
    systems = [np.linalg.eigh((lambda a: a + a.conj().T)(
        rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))) for _ in range(6)]
    energies = np.array([e for e, _ in systems])
    coefficients = np.array([v[1:4] * v[0].conj() for _, v in systems])
    step, count = 0.05, 41
    scan = np.array([direct_populations(e, c, np.arange(count) * step)
                     for e, c in zip(energies, coefficients)])
    stacked = dynamics.window_peaks(energies, coefficients, 0.0, step, scan)
    for i in range(len(systems)):
        alone = dynamics.window_peaks(energies[i], coefficients[i], 0.0, step, scan[i])
        for field in ("values", "times", "certificates"):
            assert np.array_equal(getattr(stacked, field)[i], getattr(alone, field))


def test_chirality_none_unless_every_ring_node_is_visited():
    # Only nodes 1 and 2 are coupled: node 3 stays dark, so no orientation.
    h = np.zeros((3, 3))
    h[0, 1] = h[1, 0] = 1.0
    traj = dynamics.evolve(hermitian(h), dynamics.basis_state(3, 0), np.linspace(0.0, math.pi, 201))
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
    landau = evolve_spec(models.landau_gauge(spec, 2 * math.pi), times)
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


def direct_evolution(system, psi0, times, basis):
    """The direct-exponential pipeline on a full eigensystem: weights * exp(-i E t)
    on every grid point."""
    weights = system.eigenvectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, system.eigenvalues))
    amplitudes = (phases * weights[None, :]) @ system.eigenvectors.T
    abs2 = amplitudes.real**2 + amplitudes.imag**2
    return amplitudes, abs2 @ basis.occupation_matrix()


@PROPERTY_SETTINGS
@given(st.integers(1, 5000), st.floats(0.0, 10.0), st.floats(0.0, 100.0),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
def test_uniform_phases_match_direct_exponential(count, t0, span, energies):
    energies = np.array(energies)
    times = np.linspace(t0, t0 + span, count)
    # Against identity modes the amplitudes are the phase table.
    identity = np.eye(energies.size, dtype=complex)
    table = dynamics._amplitudes(
        *dynamics._phase_modes(times, energies, np.ones(energies.size), identity), count)
    # The direct table rounds each phase E*t to half an ulp, so the bound
    # grows with the largest phase (5500 rad at the corner of this domain).
    tol = max(1e-13, 4 * np.finfo(float).eps * (t0 + span) * float(np.max(np.abs(energies))))
    assert np.max(np.abs(table - np.exp(-1j * np.outer(times, energies)))) <= tol


def test_grid_far_from_zero_folds_when_shifted_by_its_origin():
    # 400 points of a uniform grid near t = 1500, less a start just before
    # them. The grid rounds at the scale of 1500; the shifted times are near
    # 0, and a tolerance taken from them would send the grid to the direct path.
    times = np.linspace(0.0, 2000.0, 200001)[150000:150400]
    now = times[0] - 0.0037
    energies = np.array([-1.3, 0.2, 2.9])
    identity = np.eye(energies.size, dtype=complex)
    shifted = dynamics._phase_modes(times - now, energies, np.ones(energies.size), identity)
    assert shifted[1].shape[-2] == 1
    phases, modes = dynamics._phase_modes(times, energies, np.ones(energies.size), identity, now)
    assert modes.shape[-2] == dynamics._fold(times.size, energies.size) > 1
    table = dynamics._amplitudes(phases, modes, times.size)
    # The grid is uniform within 8 eps max|t|, which the phases carry times
    # max|E| (1.2e-12 here; measured 4.0e-13).
    tol = 8 * np.finfo(float).eps * float(np.max(times)) * float(np.max(np.abs(energies)))
    assert np.max(np.abs(table - np.exp(-1j * np.outer(times - now, energies)))) <= tol


def test_every_krylov_step_of_a_uniform_grid_folds(monkeypatch):
    # With the tolerance taken from the shifted times, only 15 of these 76
    # steps were factorised.
    calls = []
    uniform_phases = dynamics._uniform_phases

    def counted(*args):
        calls.append(args[2])
        return uniform_phases(*args)

    monkeypatch.setattr(dynamics, "_uniform_phases", counted)
    n = dynamics.KRYLOV_MIN_DIM
    steps = krylov_steps(uniform_ring(n), dynamics.basis_state(n, 0), np.linspace(0.0, 500.0, 3000))
    assert len(steps) > 50
    assert calls == [rows.stop - rows.start for rows, *_ in steps]


@PROPERTY_SETTINGS
@given(st.integers(1, 10**7), st.integers(1, 2000))
@example(1601, 39)
@example(1601, 40)
@example(1, 1)
def test_fold_is_the_root_wherever_it_fits_and_never_outgrows_the_table(count, dim):
    width = dynamics._fold(count, dim)
    root = math.isqrt(count - 1) + 1
    assert (root - 1) ** 2 < count <= root ** 2  # root = ceil(sqrt(count))
    assert width >= 1
    assert width == 1 or width * dim < count
    assert root * dim >= count or width == root


@PROPERTY_SETTINGS
@given(st.integers(1, 60), st.integers(1, 3000), st.floats(-20.0, 20.0), st.floats(0.0, 40.0),
       st.integers(0, 2**32 - 1))
# On 1601 points K is 41 for 39 states and is cut to 40 for 40 states; 5
# states take K = 5 on 30 points and K = 6 on 31; 60 states on 50 points
# take K = 1.
@example(39, 1601, 0.0, math.pi, 0)
@example(40, 1601, 0.0, math.pi, 0)
@example(40, 1601, -20.0, 40.0, 2)
@example(5, 30, -1.0, 2.0, 1)
@example(5, 31, -1.0, 2.0, 1)
@example(60, 50, -1.0, 2.0, 3)
@example(60, 50, 20.0, 40.0, 4)
def test_evolve_matches_direct_exponential_on_both_sides_of_the_fold(dim, count, t0, span, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    h = hermitian((a + a.conj().T) / 2)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(t0, t0 + span, count)
    system = dynamics.eigendecompose(h)
    weights = system.eigenvectors.conj().T @ psi0
    amplitudes = (np.exp(-1j * np.outer(times, system.eigenvalues)) * weights) @ system.eigenvectors.T
    traj = dynamics.evolve(h, psi0, times)
    # Both sides round each phase E*t to a few ulps, so the bar grows with
    # the largest phase.  On 1500 random cases of this domain the worst
    # deviation was 2.2 units of ``scale`` for the amplitudes and 3.3 for
    # the populations, and 0.6 and 0.3 where K is cut below ceil(sqrt(count)).
    scale = np.finfo(float).eps * max(1.0, float(np.max(np.abs(system.eigenvalues)))
                                      * float(np.max(np.abs(times))))
    assert np.max(np.abs(traj.amplitudes - amplitudes)) <= 16 * scale
    assert np.max(np.abs(traj.populations - np.abs(amplitudes) ** 2)) <= 16 * scale


@pytest.mark.parametrize("times", [
    np.array([0.0, 0.1, 0.3, 0.35, 1.2, 2.0]),
    np.geomspace(1e-3, 10.0, 300),
    np.linspace(0.0, 5.0, 401) + np.where(np.arange(401) == 200, 1e-9, 0.0),
], ids=["irregular", "geometric", "one-point-off"])
def test_evolve_is_direct_on_non_uniform_grids(times):
    spec = models.asgf(4, 2.0, math.pi / 2)
    h, basis = spec_hamiltonian(spec)
    psi0 = dynamics.basis_state(spec.n_sites, 0)
    amplitudes, populations = direct_evolution(dynamics.eigendecompose(h), psi0, times, basis)
    traj = dynamics.evolve(h, psi0, times, basis=basis)
    assert np.array_equal(traj.amplitudes, amplitudes)
    assert np.array_equal(traj.populations, populations)


def test_dense_sector_populations_match_direct_exponential(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    cfg = cli.RunConfig(model="ladder", n=workloads.DENSE_CELLS)
    spec = commands.build_spec(cfg)
    basis = hilbert.enumerate_basis(spec.n_sites, workloads.DENSE_EXCITATIONS, spec.statistics)
    assert len(basis) >= dynamics.KRYLOV_MIN_DIM
    h = hilbert.build_hamiltonian(spec, basis)
    times = np.linspace(0.0, cli.parse_angle(cfg.tmax), cfg.grid)
    # One sector for every seed: the full-eigh reference is decomposed once.
    system = dynamics.eigendecompose(h)
    for seed in range(10):
        pattern = tuple(int(c) for c in workloads.dense_pattern(seed))
        psi0 = basis.unit_vector(pattern)
        _, populations = direct_evolution(system, psi0, times, basis)
        traj = dynamics.evolve(h, psi0, times, basis=basis)
        assert np.max(np.abs(traj.populations - populations)) <= 1e-12


def test_dense_sector_simulate_stays_sparse(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    spec = commands.build_spec(cli.RunConfig(model="ladder", n=workloads.DENSE_CELLS))
    pattern = tuple(int(c) for c in workloads.dense_pattern(0))
    times = np.linspace(0.0, 2.0 * math.pi, workloads.DENSE_GRID)

    def forbidden(name):
        return property(lambda self: pytest.fail(f"{name} materialised"))

    # The Lanczos tridiagonal is a HermitianMatrix too and is decomposed dense.
    dense = hilbert.HermitianMatrix.matrix.func
    sector = workloads.dense_dim()
    monkeypatch.setattr(hilbert.HermitianMatrix, "matrix", property(
        lambda self: pytest.fail("dense H materialised") if self.dim == sector else dense(self)))
    monkeypatch.setattr(dynamics.Trajectory, "amplitudes", forbidden("amplitude table"))
    tracemalloc.start()
    try:
        traj = dynamics.simulate(spec, pattern, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.populations.shape == (times.size, spec.n_sites)
    assert peak < 80 * 2**20


def test_krylov_array_stays_at_fixed_size(monkeypatch):
    # The 1540-state sector over 2 pi: one space grown over the whole window
    # (about 155 vectors) peaked at 10.8 MiB, and reserving rows for a share
    # of the dimension near 19 MiB.  The steps hold KRYLOV_DIM vectors (1 MiB)
    # and the padded rows of H (0.4 MiB), and peak at 3.0 MiB.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    spec = commands.build_spec(cli.RunConfig(model="ladder", n=workloads.DENSE_CELLS))
    basis = hilbert.enumerate_basis(spec.n_sites, workloads.DENSE_EXCITATIONS, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    psi0 = basis.unit_vector(tuple(int(c) for c in workloads.dense_pattern(0)))
    times = np.linspace(0.0, 2.0 * math.pi, workloads.DENSE_GRID)
    tracemalloc.start()
    try:
        steps = krylov_steps(h, psi0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(steps) > 1 and sum(bound for *_, bound in steps) <= dynamics.KRYLOV_TOL
    assert peak < 12 * 2**20


def test_stacked_average_fidelity_is_each_trajectory_alone():
    # More than 8 corner nodes: a strided mean over the nodes of a stack
    # would sum them in another order than a single trajectory's mean.
    rng = np.random.default_rng(3)
    populations = rng.random((5, 200, 40))
    nodes = range(2, 40)
    stacked = dynamics.average_fidelity(populations, nodes)
    assert [float(f).hex() for f in stacked] == [
        float(dynamics.average_fidelity(p, nodes)).hex() for p in populations]


def test_populations_in_blocks_match_one_shot(caplog):
    caplog.set_level(logging.INFO, logger="chiralflow.dynamics")
    spec = models.sgf_ring(12, 6 * math.pi / 2, statistics=hilbert.Statistics.spin())
    times = np.linspace(0.0, 3.0, 5000)
    traj = evolve_spec(spec, times, start=(1, 1, 0, 1, 0, 0, 1) + (0,) * 5, n_excitations=4)
    dim = traj.amplitudes.shape[1]
    assert dim >= dynamics.KRYLOV_MIN_DIM
    assert times.size > 2 * (dynamics.POPULATION_BLOCK // dim)
    # Some step spans more than one population block.
    steps, blocks = map(int, re.search(r"(\d+) Krylov steps.*, (\d+) population blocks",
                                       caplog.records[0].getMessage()).groups())
    assert blocks > steps
    basis = hilbert.enumerate_basis(12, 4, spec.statistics)
    abs2 = traj.amplitudes.real**2 + traj.amplitudes.imag**2
    assert np.max(np.abs(traj.populations - abs2 @ basis.occupation_matrix())) <= 1e-15


def test_evolve_logs_one_line_per_krylov_call(caplog):
    caplog.set_level(logging.INFO, logger="chiralflow.dynamics")
    evolve_spec(models.asgf(4, 2.0, math.pi / 2), np.linspace(0.0, math.pi, 1601))
    assert caplog.records == []
    n = dynamics.KRYLOV_MIN_DIM
    dynamics.evolve(uniform_ring(n), dynamics.basis_state(n, 0), np.linspace(0.0, 5.0, 50))
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    message = record.getMessage()
    assert message.startswith(f"evolve: {n} states, 1 Krylov steps of m<={dynamics.KRYLOV_DIM}, ")
    assert "summed bound" in message
    assert message.endswith(f", 1 population blocks of <={dynamics.POPULATION_BLOCK // n} rows")
    # A window far longer than one space of KRYLOV_DIM vectors resolves, on
    # more grid points than one population block holds: each step's few grid
    # rows make one block.
    caplog.clear()
    times = np.linspace(0.0, 500.0, 3000)
    dynamics.evolve(uniform_ring(n), dynamics.basis_state(n, 0), times)
    (record,) = caplog.records
    steps = krylov_steps(uniform_ring(n), dynamics.basis_state(n, 0), times)
    assert len(steps) > 2
    bound = sum(bound for *_, bound in steps)
    assert bound <= dynamics.KRYLOV_TOL
    assert record.getMessage() == (
        f"evolve: {n} states, {len(steps)} Krylov steps of m<={dynamics.KRYLOV_DIM}, "
        f"summed bound {bound:.3g}, {len(steps)} population blocks of "
        f"<={dynamics.POPULATION_BLOCK // n} rows")


# Sectors just above the Krylov threshold: (sites, excitations, spin).
KRYLOV_SECTORS = [(12, 4, True), (11, 5, True), (15, 3, True), (9, 4, False), (13, 3, False)]


def random_sector(sector, rng):
    """A random network on one of KRYLOV_SECTORS: its H, basis and full eigensystem."""
    n_sites, n_exc, spin = sector
    stats = hilbert.Statistics.spin() if spin else hilbert.Statistics.boson()
    pairs = [(j, k) for j in range(1, n_sites + 1) for k in range(j + 1, n_sites + 1)
             if rng.random() < 3.0 / n_sites]
    hops = tuple(hilbert.Hopping(j, k, rng.uniform(0.2, 2.0), rng.uniform(-math.pi, math.pi))
                 for j, k in pairs)
    onsite = tuple(hilbert.OnSite(j, rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
                   for j in range(1, n_sites + 1))
    spec = models.NetworkSpec(n_sites, 0, hops, onsite, stats)
    h, basis = spec_hamiltonian(spec, n_exc)
    assert dynamics.KRYLOV_MIN_DIM <= len(basis) <= 1.25 * dynamics.KRYLOV_MIN_DIM
    return h, basis, dynamics.eigendecompose(h)


def random_state(dim, rng):
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi0 / np.linalg.norm(psi0)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(st.sampled_from(KRYLOV_SECTORS), st.integers(0, 2**32 - 1),
       st.sampled_from(["late-start", "non-uniform", "single-point", "long"]))
def test_krylov_branch_matches_full_eigh(sector, seed, grid):
    rng = np.random.default_rng(seed)
    h, basis, system = random_sector(sector, rng)
    psi0 = random_state(len(basis), rng)
    # A window of about 0.2 * dim / width: several steps of KRYLOV_DIM vectors.
    width = 0.5 * float(system.eigenvalues[-1] - system.eigenvalues[0])
    long = 0.2 * len(basis) / width
    times = {
        "late-start": np.linspace(0.5 * long, 0.6 * long, 301),
        "non-uniform": np.sort(rng.uniform(0.0, 0.3 * long, 200)),
        "single-point": np.array([0.4 * long]),
        "long": np.linspace(0.0, long, 2001),
    }[grid]
    steps = krylov_steps(h, psi0, times)
    assert sum(bound for *_, bound in steps) <= dynamics.KRYLOV_TOL
    if grid == "long":
        assert len(steps) >= 3
    amplitudes, populations = direct_evolution(system, psi0, times, basis)
    traj = dynamics.evolve(h, psi0, times, basis=basis)
    assert np.max(np.abs(traj.amplitudes - amplitudes)) <= 1e-12
    assert np.max(np.abs(traj.populations - populations)) <= 1e-12


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(st.sampled_from(KRYLOV_SECTORS), st.integers(0, 2**32 - 1),
       st.floats(-1.0, 0.5), st.integers(3, 8))
def test_krylov_steps_match_full_eigh(sector, seed, start, scale):
    # Windows of at least 3 steps, some reaching back before t = 0.
    rng = np.random.default_rng(seed)
    h, basis, system = random_sector(sector, rng)
    psi0 = random_state(len(basis), rng)
    width = 0.5 * float(system.eigenvalues[-1] - system.eigenvalues[0])
    span = scale * dynamics.KRYLOV_DIM / width
    times = np.linspace(start * span, (1.0 + start) * span, 701)
    steps = krylov_steps(h, psi0, times)
    assert len(steps) >= 3
    assert sum(bound for *_, bound in steps) <= dynamics.KRYLOV_TOL
    amplitudes, populations = direct_evolution(system, psi0, times, basis)
    traj = dynamics.evolve(h, psi0, times, basis=basis)
    assert np.max(np.abs(traj.amplitudes - amplitudes)) <= 1e-12
    assert np.max(np.abs(traj.populations - populations)) <= 1e-12


def test_krylov_restarts_keep_the_state_over_many_steps():
    # Each step restarts Lanczos from the normalised state at the previous
    # step's end; a restart that does not renormalise compounds its error.
    n = dynamics.KRYLOV_MIN_DIM
    h = uniform_ring(n)
    psi0 = random_state(n, np.random.default_rng(7))
    times = np.linspace(0.0, 400.0, 801)
    steps = krylov_steps(h, psi0, times)
    assert len(steps) >= 25
    assert sum(bound for *_, bound in steps) <= dynamics.KRYLOV_TOL
    system = dynamics.eigendecompose(h)
    weights = system.eigenvectors.conj().T @ psi0
    exact = (np.exp(-1j * np.outer(times, system.eigenvalues)) * weights) @ system.eigenvectors.T
    traj = dynamics.evolve(h, psi0, times)
    assert np.max(np.abs(traj.amplitudes - exact)) <= 1e-12


entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def triplet_patterns(draw):
    """A random operator's triplets on a few busy rows, so that degrees are
    uneven and other rows empty, with some (row, col) pairs repeated, and a
    vector to multiply."""
    dim = draw(st.integers(1, 12))
    busy = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(busy), st.integers(0, dim - 1)),
                          max_size=40))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    values = draw(st.lists(entries, min_size=len(pairs), max_size=len(pairs)))
    x = draw(st.lists(entries, min_size=dim, max_size=dim))
    return dim, pairs, values, x


@PROPERTY_SETTINGS
@given(triplet_patterns())
@example((3, [], [], [1.0, 2j, -1.0]))
@example((4, [(2, 0), (2, 3), (2, 0), (0, 1), (2, 0)], [1.0, 2j, 0.5 - 1j, 3.0, -1.0],
          [1.0, 1j, 2.0, -1.0]))
def test_padded_rows_multiply_as_the_dense_matrix(case):
    # Duplicate triplets are summed in triplet order, as the dense form sums
    # them; empty rows and an empty pattern give zeros.
    dim, pairs, values, x = case
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    h = hilbert.HermitianMatrix(dim, rows, cols, np.array(values, dtype=complex))
    x = np.array(x, dtype=complex)
    product = dynamics._padded_product(h)(x)
    assert product.shape == (dim,)
    assert np.all(np.abs(product - h.matrix @ x) <= 1e-13 * (np.abs(h.matrix) @ np.abs(x)))


@pytest.mark.parametrize("model, n, n_excitations", [("ladder", 6, 3), ("chiral", 12, 4),
                                                     ("asgf", 20, 3)])
def test_padded_rows_multiply_as_scipy_csr_bit_for_bit(model, n, n_excitations):
    # The CLI's Krylov sectors, with rows of 3 to 12 (ladder), 11 to 45
    # (chiral) and 3 to 26 (asgf) entries: each row sums in CSR order, as
    # scipy's csr_matvec sums it.
    from scipy.sparse import csr_array  # a reference here only

    spec = commands.build_spec(cli.RunConfig(model=model, n=n))
    basis = hilbert.enumerate_basis(spec.n_sites, n_excitations, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    assert h.dim >= dynamics.KRYLOV_MIN_DIM
    csr = csr_array((h.values, (h.rows, h.cols)), shape=(h.dim, h.dim))
    rng = np.random.default_rng(5)
    product = dynamics._padded_product(h)
    for x in (random_state(h.dim, rng), basis.unit_vector(basis.states[0])):
        assert product(x).tobytes() == (csr @ x).tobytes()


def test_overlong_windows_are_refused_before_marching(monkeypatch):
    n = dynamics.KRYLOV_MIN_DIM
    h, psi0 = uniform_ring(n), dynamics.basis_state(n, 0)
    runs = []
    lanczos = dynamics._lanczos
    monkeypatch.setattr(dynamics, "_lanczos", lambda *args: runs.append(1) or lanczos(*args))
    with pytest.raises(OutOfRange, match="Krylov steps"):
        dynamics.evolve(h, psi0, np.array([0.0, 1e300]))
    assert len(runs) == 1
    # The estimate adds the steps taken to the rest of the window over the
    # current step: a cap of the steps a window takes lets it through, one
    # less stops it at the first step forward, once the march back is done.
    times = np.linspace(-200.0, 200.0, 401)
    steps = krylov_steps(h, psi0, times)
    back = sum(rows.stop <= 200 for rows, *_ in steps)
    assert 0 < back < len(steps)
    monkeypatch.setattr(dynamics, "KRYLOV_MAX_STEPS", len(steps))
    assert len(krylov_steps(h, psi0, times)) == len(steps)
    monkeypatch.setattr(dynamics, "KRYLOV_MAX_STEPS", len(steps) - 1)
    runs.clear()
    with pytest.raises(OutOfRange, match="Krylov steps"):
        dynamics.evolve(h, psi0, times)
    assert len(runs) == back + 1


def test_cli_exits_3_on_an_overlong_window(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    out = tmp_path / "traj.csv"
    argv = ["simulate", "--model", "ladder", "--n", str(workloads.DENSE_CELLS),
            "--init", workloads.dense_pattern(0), "--tmax", "1e300", "--out", str(out)]
    assert cli.main(argv) == 3
    assert not out.exists()


def test_stepped_amplitudes_ignore_later_changes_to_the_start():
    n = dynamics.KRYLOV_MIN_DIM
    psi0 = dynamics.basis_state(n, 0)
    times = np.linspace(0.0, 30.0, 61)
    traj = dynamics.evolve(uniform_ring(n), psi0, times)
    psi0[:] = dynamics.basis_state(n, 5)
    abs2 = traj.amplitudes.real**2 + traj.amplitudes.imag**2
    assert np.max(np.abs(abs2 - traj.populations)) <= 1e-15


def test_long_window_on_the_50_site_ladder_holds_a_fixed_krylov_array():
    # 22 100 three-boson states over 20 pi: the one growing space of the
    # whole window needed a (4352, 22100) Lanczos array, 1.43 GiB.
    spec = commands.build_spec(cli.RunConfig(model="ladder", n=16))
    basis = hilbert.enumerate_basis(spec.n_sites, 3, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    psi0 = basis.unit_vector(hilbert.occupation(spec.n_sites, 2, 25, 26))
    times = np.linspace(0.0, 20.0 * math.pi, 201)
    tracemalloc.start()
    try:
        traj = dynamics.evolve(h, psi0, times, basis=basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(traj.populations.sum(axis=1) - 3.0)) <= 1e-9
    # The Lanczos array, one amplitude block, its squares and the padded rows of H.
    assert peak < 6 * dynamics.KRYLOV_DIM * len(basis) * 16


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(0.01, 20.0))
def test_power_bound_bounds_a_fine_quadrature(m, seed, span):
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.1, 2.0, m - 1)
    t = np.diag(rng.uniform(-3.0, 3.0, m)) + np.diag(off, 1) + np.diag(off, -1)
    system = dynamics.eigendecompose(hermitian(t))
    s = np.linspace(0.0, span, 20001)
    g = np.abs((np.exp(-1j * np.outer(s, system.eigenvalues)) * system.eigenvectors[0].conj())
               @ system.eigenvectors[-1])
    quadrature = (s[1] - s[0]) * (g.sum() - 0.5 * (g[0] + g[-1]))
    # The closed form is the leading term of g's Taylor series and ignores
    # T's diagonal, so it is not a tight bound over long spans.
    assert quadrature * (1 - 1e-6) - 1e-15 <= dynamics._power_bound(off, span)


@PROPERTY_SETTINGS
@given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=39),
       st.floats(-20.0, 1.0), st.floats(1e-3, 1e3), st.floats(0.0, 1.0))
def test_step_length_is_certified_by_the_power_bound(off, exponent, window, share):
    # m = 2..40 Lanczos vectors; the residual norm's exponent spans values
    # small enough to certify the whole window at once.
    last = 10.0 ** exponent
    beta = np.array(off + [last])
    rest = share * window
    tau, bound = dynamics._step_length(beta, rest, window)
    if last * window <= dynamics.KRYLOV_TOL or rest == 0.0:
        # A small residual, or nothing left to march, ends the march at once.
        assert (tau, bound) == (rest, last * rest)
        return
    assert 0.0 < tau <= rest
    assert bound == last * dynamics._power_bound(beta[:-1], tau)
    assert bound <= dynamics.KRYLOV_TOL * tau / window


def first_peak_index_reference(trace, threshold):
    """Loop form of ``dynamics._first_peak_index``: the first i with
    trace[i] >= both neighbours (-inf past either end) and >= threshold."""
    n = trace.size
    for i in range(n):
        left = trace[i - 1] if i > 0 else -np.inf
        right = trace[i + 1] if i < n - 1 else -np.inf
        if trace[i] >= left and trace[i] >= right and trace[i] >= threshold:
            return i
    return None


# More examples than the other properties: a plateau right after a NaN is
# the rare case that tells >= from > on the left neighbour.
@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, math.nan]), st.floats(0.0, 1.0)),
                max_size=30),
       st.floats(0.0, 1.0, exclude_min=True))
def test_first_peak_index_matches_loop(values, threshold):
    trace = np.array(values, dtype=float)
    assert dynamics._first_peak_index(trace, threshold) == first_peak_index_reference(trace, threshold)


def rows_to_csv_reference(rows, header):
    """F-string form of ``dynamics.rows_to_csv``: ``.12g`` for every float
    (``np.float64`` is one, ``np.float32`` is not), ``str`` otherwise."""
    lines = [header]
    lines += [",".join([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row])
              for row in rows]
    return "\n".join(lines) + "\n"


special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                  -2.2250738585072014e-308, 1e-310, 1.7976931348623157e308])
csv_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), special_floats,
    special_floats.map(np.float64), st.floats(width=64).map(np.float64),
    st.floats(width=32).map(np.float32), st.integers(), st.integers(-9, 9).map(np.int64),
    st.booleans(), st.text(max_size=5), st.just("%s%%"))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.lists(st.lists(csv_values, max_size=6).map(tuple), max_size=8))
def test_rows_to_csv_matches_the_fstring_writer(rows):
    # Rows of repeated value types reuse one format string.
    rows = rows + rows[::-1]
    assert dynamics.rows_to_csv(rows, "h") == rows_to_csv_reference(rows, "h")
    assert dynamics.rows_to_csv([list(r) for r in rows], "h") == rows_to_csv_reference(rows, "h")
