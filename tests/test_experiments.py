import math

import numpy as np
import pytest

from chiralflow import experiments, hilbert, models
from chiralflow.errors import BadInitial, NotSpin
from chiralflow.experiments import DisorderConfig, concurrence


@pytest.fixture(scope="module")
def base_spec():
    return models.asgf(4, 2.0, math.pi / 2)


def test_zero_disorder_is_perfect(base_spec):
    cfg = DisorderConfig("hopping_strength", 0.0, 5, 1)
    points = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.0])
    assert points[0].mean_fidelity == pytest.approx(1.0, abs=1e-9)
    assert points[0].stderr == 0.0


def test_disorder_reproducible(base_spec):
    cfg = DisorderConfig("hopping_phase", 0.3, 40, 42)
    first = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.1, 0.3])
    second = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.1, 0.3])
    assert first == second
    other_seed = DisorderConfig("hopping_phase", 0.3, 40, 43)
    assert experiments.disorder_sweep(base_spec, other_seed, amplitudes=[0.1, 0.3]) != first


def test_hopping_disorder_robustness(base_spec):
    for kind in ("hopping_strength", "hopping_phase"):
        cfg = DisorderConfig(kind, 0.3, 200, 7)
        points = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.3])
        assert points[0].mean_fidelity > 0.9


def test_fidelity_non_increasing_with_amplitude(base_spec):
    cfg = DisorderConfig("hopping_strength", 1.0, 500, 11)
    points = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.0, 0.25, 0.5, 1.0])
    means = [p.mean_fidelity for p in points]
    errs = [p.stderr for p in points]
    for i in range(len(means) - 1):
        assert means[i + 1] <= means[i] + 2 * (errs[i] + errs[i + 1])


def test_frequency_disorder_dominates_at_matched_relative_size(base_spec):
    # 30% of the node frequency, converted to hopping units, versus 30% of
    # the hopping itself.
    freq_amp = 0.3 * experiments.FREQUENCY_TO_HOPPING_RATIO
    freq = experiments.disorder_sweep(
        base_spec, DisorderConfig("frequency", freq_amp, 100, 3), amplitudes=[freq_amp])
    hop = experiments.disorder_sweep(
        base_spec, DisorderConfig("hopping_strength", 0.3, 100, 3), amplitudes=[0.3])
    assert freq[0].mean_fidelity < hop[0].mean_fidelity


def test_hopping_scale_frequency_disorder_beats_tiny_hopping_disorder(base_spec):
    # Frequency disorder comparable to the hopping rate is a minute fraction
    # of the node frequency; hopping disorder of that same fraction is
    # harmless by comparison.
    fraction = 1.0 / experiments.FREQUENCY_TO_HOPPING_RATIO
    freq = experiments.disorder_sweep(
        base_spec, DisorderConfig("frequency", 1.0, 120, 9), amplitudes=[1.0])
    hop = experiments.disorder_sweep(
        base_spec, DisorderConfig("hopping_strength", fraction, 120, 9),
        amplitudes=[fraction])
    assert freq[0].mean_fidelity < hop[0].mean_fidelity - 0.01
    assert hop[0].mean_fidelity > 0.999


def test_perturbed_spec_respects_invariants(base_spec):
    rng = np.random.default_rng(0)
    for kind in experiments.DISORDER_KINDS:
        spec = experiments.perturbed_spec(base_spec, kind, 0.5, rng)
        assert all(h.amplitude >= 0 for h in spec.hoppings)
        assert all(-math.pi < h.phase <= math.pi for h in spec.hoppings)


def test_revival_fidelity_of_perfect_cell(base_spec):
    fidelity, period = experiments.revival_fidelity(base_spec)
    assert fidelity == pytest.approx(1.0, abs=1e-9)
    assert period == pytest.approx(math.pi, abs=1e-6)


def test_ladder_curve_decreasing():
    points = experiments.ladder_fidelity_curve(range(1, 9))
    assert points[0].fidelity == pytest.approx(1.0, abs=1e-9)
    fidelities = [p.fidelity for p in points]
    assert all(b < a for a, b in zip(fidelities, fidelities[1:]))


def test_ladder_curve_linear_tail():
    points = experiments.ladder_fidelity_curve(range(2, 9))
    sizes = np.array([p.n_copies for p in points], dtype=float)
    fidelities = np.array([p.fidelity for p in points])
    slope, intercept = np.polyfit(sizes, fidelities, 1)
    residual = fidelities - (slope * sizes + intercept)
    r_squared = 1.0 - np.sum(residual**2) / np.sum((fidelities - fidelities.mean())**2)
    assert slope < 0
    assert r_squared >= 0.95


def test_optimize_without_free_parameters_returns_uniform():
    result = experiments.optimize_ladder(2, seed=0)
    uniform = experiments.ladder_fidelity_curve([2])[0]
    assert result.beta_profile == (2.0,)
    assert result.fidelity == pytest.approx(uniform.fidelity, abs=1e-9)
    assert result.monotone


def test_optimize_improves_on_uniform():
    uniform = experiments.ladder_fidelity_curve([4])[0]
    result = experiments.optimize_ladder(4, seed=0, restarts=2)
    assert result.fidelity > uniform.fidelity + 1e-3
    assert result.monotone
    assert result.beta_profile[0] == 2.0
    assert all(b > a for a, b in zip(result.beta_profile, result.beta_profile[1:]))


def test_optimize_budget_validation():
    with pytest.raises(ValueError):
        experiments.optimize_ladder(4, budget=10)


def test_optimize_is_deterministic():
    first = experiments.optimize_ladder(3, seed=5, restarts=2)
    second = experiments.optimize_ladder(3, seed=5, restarts=2)
    assert first == second


@pytest.fixture(scope="module")
def spin_ring():
    return models.sgf_ring(3, 3 * math.pi / 2, statistics=hilbert.Statistics.spin())


def test_bell_initial_conditions(spin_ring):
    psi = experiments.bell_transport(spin_ring, experiments.PSI_PLUS)
    assert psi.psi_populations[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert psi.concurrence[0, 0] == pytest.approx(1.0, abs=1e-6)
    phi = experiments.bell_transport(spin_ring, experiments.PHI_PLUS)
    assert phi.phi_populations[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert phi.concurrence[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_bell_states_counter_propagate(spin_ring):
    psi = experiments.bell_transport(spin_ring, experiments.PSI_PLUS)
    phi = experiments.bell_transport(spin_ring, experiments.PHI_PLUS)
    t_psi = [experiments.first_peak_time(psi.times, psi.psi_populations[p], 0.8)
             for p in (1, 2)]
    t_phi = [experiments.first_peak_time(phi.times, phi.phi_populations[p], 0.8)
             for p in (1, 2)]
    # pair order is (12), (23), (31): one initial state reaches (31) before
    # (23), the other the opposite way around
    psi_orientation = t_psi[0] < t_psi[1]
    phi_orientation = t_phi[0] < t_phi[1]
    assert psi_orientation != phi_orientation


def test_concurrence_tracks_bell_populations(spin_ring):
    for initial, traces in (
        (experiments.PSI_PLUS, "psi_populations"),
        (experiments.PHI_PLUS, "phi_populations"),
    ):
        result = experiments.bell_transport(spin_ring, initial)
        pops = getattr(result, traces)
        pop_times = [experiments.first_peak_time(result.times, pops[p], 0.8)
                     for p in range(3)]
        conc_times = [experiments.first_peak_time(result.times, result.concurrence[p], 0.8)
                      for p in range(3)]
        assert np.argsort(pop_times).tolist() == np.argsort(conc_times).tolist()


def test_bell_transport_validation(spin_ring):
    with pytest.raises(BadInitial):
        experiments.bell_transport(spin_ring, "ghz")
    with pytest.raises(NotSpin):
        experiments.bell_transport(models.sgf_ring(3, 3 * math.pi / 2),
                                   experiments.PSI_PLUS)


def test_concurrence_reference_values():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert concurrence(bell, (1, 2)) == pytest.approx(1.0, abs=1e-12)
    product = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert concurrence(product, (1, 2)) == pytest.approx(0.0, abs=1e-12)
    phased = np.array([0.0, 1.0, 1.0j, 0.0], dtype=complex) / math.sqrt(2.0)
    assert concurrence(phased, (1, 2)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(23)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    reference = concurrence(state, (1, 3))
    embeddings = (lambda q: np.kron(q, np.eye(4)),              # site 1
                  lambda q: np.kron(np.eye(4), q))              # site 3
    for embed in embeddings:
        for _ in range(5):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            rotated = embed(q) @ state
            assert concurrence(rotated, (1, 3)) == pytest.approx(reference, abs=1e-9)


def test_concurrence_requires_qubit_state():
    with pytest.raises(NotSpin):
        concurrence(np.ones(3) / math.sqrt(3.0), (1, 2))
