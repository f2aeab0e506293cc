"""End-to-end acceptance battery.

Every test checks one headline claim at its stated tolerance and prints a
one-line verdict; run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines.  Grids are chosen so that exact peak times are grid points.
"""

import math

import numpy as np
import pytest

from chiralflow import criteria, dynamics, experiments, floquet, hilbert, models, oracles
from chiralflow.dynamics import Direction
from conftest import evolve_spec, return_weights, spec_hamiltonian

SQ2 = math.sqrt(2.0)
SQ7 = math.sqrt(7.0)


def announce(number, message):
    print(f"criterion {number}: PASS - {message}")


def test_criterion_01_oracle_equivalence():
    worst = 0.0

    def track(traj_pops, oracle_pops):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(traj_pops - oracle_pops))))

    t = np.linspace(0.0, 12.0, 1200)

    traj = evolve_spec(models.sgf_ring(3, math.pi / 2), t)
    for j in (1, 2, 3):
        track(traj.node_population(j), oracles.three_node_sgf_population(j, t))

    for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 8):
        traj = evolve_spec(models.sgf_ring(4, 4 * theta), t)
        track(traj.populations.T, oracles.four_node_sgf_populations(theta, t))

    for beta in (1.0, 2.0, 3.0):
        traj = evolve_spec(models.asgf(4, beta, math.pi / 2), t)
        for j in (1, 2, 3, 4):
            oracle = np.asarray(oracles.four_node_asgf_amplitude(j, beta, t)) ** 2
            track(traj.node_population(j), oracle)

    for beta in (SQ2, 2.0):
        traj = evolve_spec(models.asgf(6, beta, math.pi / 2), t)
        track(traj.populations[:, :6].T, oracles.six_node_asgf_populations(beta, t))

    for n in range(3, 9):
        traj = evolve_spec(models.sgf_ring(n, n * math.pi / 2), t)
        for j in range(1, n + 1):
            oracle = np.abs(oracles.n_node_sgf_solution(n, j, t)) ** 2
            track(traj.node_population(j), oracle)

    # ladder with four-node rows: frozen closed-form return population
    ladder_oracle = (11.0 / 56.0 + 3.0 / 8.0 * np.cos(SQ2 * t)
                     + 11.0 / 40.0 * np.cos(2 * SQ2 * t)
                     + 1.0 / 8.0 * np.cos(3 * SQ2 * t)
                     + 1.0 / 35.0 * np.cos(2 * SQ7 * t)) ** 2
    traj = evolve_spec(models.ladder(3, [2.0]), t)
    track(traj.node_population(1), ladder_oracle)

    assert worst <= 1e-9
    announce(1, f"all closed forms match numerics, max error {worst:.2e}")


def test_criterion_02_perfect_flows():
    t3 = np.linspace(0.0, 2 * math.pi / math.sqrt(3.0), 3 * 500 + 1)
    traj = evolve_spec(models.sgf_ring(3, math.pi / 2), t3)
    verdict = dynamics.chirality_order(traj, [1, 2, 3])
    assert verdict.order == (1, 2, 3)
    assert verdict.direction is Direction.CLOCKWISE
    assert verdict.min_peak >= 1.0 - 1e-8

    fine = np.linspace(0.0, 1.3, 2601)
    transfer = dynamics.first_peak_time(
        fine, evolve_spec(models.sgf_ring(3, math.pi / 2), fine).node_population(2), 0.99)
    expected = 2.0 * math.pi / (3.0 * math.sqrt(3.0))
    assert abs(transfer - expected) <= 1e-6

    t4 = np.linspace(0.0, math.pi, 1601)
    verdict = dynamics.chirality_order(evolve_spec(models.asgf(4, 2.0, math.pi / 2), t4),
                                       [1, 2, 3, 4])
    assert verdict.order == (1, 2, 3, 4)
    assert verdict.min_peak >= 1.0 - 1e-8

    for n in range(4, 13):
        spec = models.chiral_n_node(n)
        h, _ = spec_hamiltonian(spec)
        values = dynamics.eigendecompose(h).eigenvalues
        unit = float(np.min(np.abs(values[np.abs(values) > 1e-9])))
        grid = np.linspace(0.0, 2.0 * math.pi / unit, n * 400 + 1)
        verdict = dynamics.chirality_order(evolve_spec(spec, grid), list(range(1, n + 1)))
        assert verdict.order == tuple(range(1, n + 1))
        assert verdict.direction is Direction.CLOCKWISE
        assert verdict.min_peak >= 1.0 - 1e-8
    announce(2, f"sequential unit peaks, transfer time off by {abs(transfer - expected):.1e}")


def test_criterion_03_negative_controls():
    t = np.linspace(0.0, 25.0, 2500)
    traj = evolve_spec(models.sgf_ring(4, math.pi / 2), t)
    mirror = float(np.max(np.abs(traj.node_population(2) - traj.node_population(4))))
    assert mirror <= 1e-12

    traj = evolve_spec(models.sgf_ring(4, math.pi), t)
    dark = float(np.max(traj.node_population(3)))
    assert dark <= 1e-12

    for n in (5, 6):
        h, _ = spec_hamiltonian(models.sgf_ring(n, n * math.pi / 2))
        report = criteria.check_criteria(h, list(range(1, n + 1)))
        assert not report.equally_spaced
        assert not report.verdict
    announce(3, f"mirror pair {mirror:.1e}, dark site {dark:.1e}, large rings flagged")


def test_criterion_04_six_node_peak_bound():
    for beta in (SQ2, 2.0, 3.0):
        spec = models.asgf(6, beta, math.pi / 2)
        t_star = math.pi / (math.sqrt(6.0) * beta)
        grid = np.linspace(0.0, 4.0 * t_star, 4 * 600 + 1)  # t_star on the grid
        traj = evolve_spec(spec, grid)
        peak = float(np.max(traj.node_population(4)))
        assert peak == pytest.approx(1.0 / 9.0, abs=1e-9)
    announce(4, "opposite-site population peaks at exactly 1/9")


def test_criterion_05_spectra_and_chiral_symmetry():
    for n in range(3, 11):
        h, _ = spec_hamiltonian(models.sgf_ring(n, n * math.pi / 2))
        values = dynamics.eigendecompose(h).eigenvalues
        expected = np.sort([oracles.ring_dispersion(n, m) for m in oracles.ring_mode_numbers(n)])
        assert np.max(np.abs(values - expected)) <= 1e-10

    worst = 0.0
    for n in range(3, 9):
        h, _ = spec_hamiltonian(models.asgf(n, 2.0, math.pi / 2))
        op = models.chiral_operator(n, with_auxiliary=True)
        worst = max(worst, criteria.check_chiral_symmetry(h, op))
        h, _ = spec_hamiltonian(models.sgf_ring(n, n * math.pi / 2))
        op = models.chiral_operator(n, with_auxiliary=False)
        worst = max(worst, criteria.check_chiral_symmetry(h, op))
    for n in range(4, 13):
        h, _ = spec_hamiltonian(models.chiral_n_node(n))
        op = models.chiral_operator(n, with_auxiliary=True)
        worst = max(worst, criteria.check_chiral_symmetry(h, op))
    assert worst <= 1e-12
    announce(5, f"plane-wave spectra exact, worst symmetry residual {worst:.2e}")


def test_criterion_06_gauge_invariance():
    spec = models.asgf(4, 2.0, math.pi / 2)
    t = np.linspace(0.0, 2.0 * math.pi, 1000)
    reference = evolve_spec(spec, t).populations
    worst = float(np.max(np.abs(
        evolve_spec(models.landau_gauge(spec, 2.0 * math.pi), t).populations
        - reference)))
    rng = np.random.default_rng(2024)
    for _ in range(50):
        phases = rng.uniform(-math.pi, math.pi, 5)
        transformed = evolve_spec(models.gauge_transform(spec, phases), t).populations
        worst = max(worst, float(np.max(np.abs(transformed - reference))))
    assert worst <= 1e-12
    announce(6, f"populations identical across 52 gauges, worst {worst:.2e}")


def test_criterion_07_spin_chirality_and_bell_transport():
    spin = hilbert.Statistics.spin()
    cases = [
        (models.sgf_ring(3, 3 * math.pi / 2, statistics=spin), 3),
        (models.asgf(4, 2.0, math.pi / 2, statistics=spin), 4),
    ]
    for spec, n in cases:
        t = np.linspace(0.0, 4.0 * math.pi, n * 500 + 1)
        up_state = tuple(1 if j == 1 else 0 for j in range(1, spec.n_sites + 1))
        up = dynamics.chirality_order(
            evolve_spec(spec, t, start=up_state, n_excitations=1),
            list(range(1, n + 1)), peak_threshold=0.9)
        flipped = tuple(1 - b for b in up_state)
        down_traj = evolve_spec(spec, t, start=flipped, n_excitations=sum(flipped))
        down = dynamics.chirality_order(criteria.hole_view(down_traj),
                                        list(range(1, n + 1)), peak_threshold=0.9)
        assert {up.direction, down.direction} == {Direction.CLOCKWISE,
                                                  Direction.COUNTERCLOCKWISE}

    ring = models.sgf_ring(3, 3 * math.pi / 2, statistics=spin)
    psi = experiments.bell_transport(ring, "psi")
    phi = experiments.bell_transport(ring, "phi")
    assert psi.psi_populations[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert phi.phi_populations[0, 0] == pytest.approx(1.0, abs=1e-9)
    t_psi = [dynamics.first_peak_time(psi.times, psi.psi_populations[p], 0.8)
             for p in (1, 2)]
    t_phi = [dynamics.first_peak_time(phi.times, phi.phi_populations[p], 0.8)
             for p in (1, 2)]
    assert (t_psi[0] < t_psi[1]) != (t_phi[0] < t_phi[1])  # opposite circulation
    for result, pops in ((psi, psi.psi_populations), (phi, phi.phi_populations)):
        pop_order = np.argsort([dynamics.first_peak_time(result.times, pops[p], 0.8)
                                for p in range(3)])
        conc_order = np.argsort([dynamics.first_peak_time(result.times,
                                                          result.concurrence[p], 0.8)
                                 for p in range(3)])
        assert pop_order.tolist() == conc_order.tolist()
    announce(7, "flipped spin states and Bell families counter-propagate")


def test_criterion_08_hardcore_crossover():
    study = criteria.hardcore_limit_study(100.0)
    assert study.single_direction is not Direction.NONE
    assert study.double_direction is not Direction.NONE
    assert study.single_direction != study.double_direction
    assert study.asymmetry_two_exc < 0.05
    announce(8, f"two-excitation flow reversed, band asymmetry {study.asymmetry_two_exc:.3f}")


def test_criterion_09_disorder_robustness():
    base = models.asgf(4, 2.0, math.pi / 2)
    results = {}
    for kind, amplitude in (
        ("hopping_strength", 0.3),
        ("hopping_phase", 0.3),
        ("frequency", experiments.relative_frequency_amplitude(0.3)),
    ):
        cfg = experiments.DisorderConfig(kind, 200, 2024)
        point = experiments.disorder_sweep(base, cfg, amplitudes=[amplitude])[0]
        results[kind] = point.mean_fidelity
    assert results["hopping_strength"] > 0.9
    assert results["hopping_phase"] > 0.9
    assert results["frequency"] < results["hopping_strength"]
    assert results["frequency"] < results["hopping_phase"]
    announce(9, "30% hopping disorder keeps fidelity {:.3f}/{:.3f}; "
                "matched frequency disorder drops to {:.3f}".format(
                    results["hopping_strength"], results["hopping_phase"],
                    results["frequency"]))


def test_criterion_10_ladder_extension():
    sizes = list(range(2, 9))
    uniform = {p.n_copies: p.fidelity for p in experiments.ladder_fidelity_curve(sizes)}
    fidelities = np.array([uniform[n] for n in sizes])
    assert all(b < a for a, b in zip(fidelities, fidelities[1:]))
    slope, intercept = np.polyfit(sizes, fidelities, 1)
    residual = fidelities - (slope * np.array(sizes) + intercept)
    r_squared = 1.0 - np.sum(residual**2) / np.sum((fidelities - fidelities.mean())**2)
    assert r_squared >= 0.95

    for n in sizes:
        result = experiments.optimize_ladder(n, seed=0)
        assert result.monotone
        if n == 2:
            assert result.fidelity >= uniform[n] - 1e-12
        else:
            assert result.fidelity >= uniform[n] + 1e-3

    ten_copies = experiments.optimize_ladder(10, seed=0)
    ten_node_scale = experiments.optimize_ladder(16, seed=0)  # 50 sites total
    assert ten_copies.monotone and ten_node_scale.monotone
    assert np.all(np.diff(ten_node_scale.beta_profile) > 0.0)
    assert ten_copies.fidelity > 0.8
    assert ten_node_scale.fidelity > 0.8
    announce(10, f"uniform curve linear (R^2={r_squared:.3f}); optimised profiles win "
                 f"everywhere and reach {ten_copies.fidelity:.3f} (10 cells) / "
                 f"{ten_node_scale.fidelity:.3f} (10x site count)")


def test_criterion_11_ladder_three_cells():
    levels, weights = return_weights(models.ladder(3, [2.0]))
    expected = np.sort([0.0] + [s * v for v in (SQ2, 2 * SQ2, 3 * SQ2, 2 * SQ7)
                                for s in (1.0, -1.0)])
    assert levels.shape == expected.shape
    assert np.max(np.abs(levels - expected)) <= 1e-9
    constant = weights[4]
    assert constant == pytest.approx(11.0 / 56.0, abs=1e-9)
    coeffs = weights[5:] + weights[3::-1]
    assert coeffs == pytest.approx([3.0 / 8.0, 11.0 / 40.0, 1.0 / 8.0, 1.0 / 35.0],
                                   abs=1e-9)
    assert constant + coeffs.sum() == pytest.approx(1.0, abs=1e-12)
    announce(11, "three-cell ladder levels and return-amplitude coefficients recovered")


def test_criterion_12_floquet_synthesis():
    scan = floquet.rwa_deviation_scan([10.0, 20.0, 40.0])
    deviations = dict(scan)
    assert deviations[20.0] <= 0.05
    assert deviations[10.0] > deviations[20.0] > deviations[40.0]

    drive = floquet.bus_resonator_ring(4, nu=40.0)
    f = drive.delta / drive.nu
    nn = [abs(floquet.bus_effective_coupling(1.0, 1.0, drive.nu, f,
                                             drive.phis[j - 1], drive.phis[j % 4]))
          for j in range(1, 5)]
    nnn = [abs(floquet.bus_effective_coupling(1.0, 1.0, drive.nu, f,
                                              drive.phis[j - 1], drive.phis[(j + 1) % 4]))
           for j in range(1, 5)]
    assert max(nnn) <= 1e-12
    assert (max(nn) - min(nn)) <= 1e-10 * max(nn)
    announce(12, f"drive tracks the ideal network (dev {deviations[20.0]:.3f} at ratio 20, "
                 f"falling to {deviations[40.0]:.3f}); bus scheme gives clean links")
