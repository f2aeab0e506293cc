import math
from dataclasses import replace

import numpy as np
import pytest

from chiralflow import criteria, dynamics, models
from chiralflow.dynamics import Direction
from chiralflow.errors import DimensionMismatch, NotSpin, OutOfRange
from chiralflow.hilbert import OnSite, Statistics
from conftest import evolve_spec, spec_hamiltonian


def report_for(spec, n_exc=1):
    h, _ = spec_hamiltonian(spec, n_exc)
    return criteria.check_criteria(h, spec.ring_nodes)


def test_three_node_ring_passes():
    assert report_for(models.sgf_ring(3, 3 * math.pi / 2)).verdict


def test_five_node_ring_fails_equal_spacing():
    report = report_for(models.sgf_ring(5, 5 * math.pi / 2))
    assert not report.equally_spaced
    assert report.spectrum_symmetric
    assert not report.verdict


def test_six_node_ring_flagged_by_degeneracy():
    report = report_for(models.sgf_ring(6, 3 * math.pi))
    assert report.degenerate_levels > 0
    assert not report.equally_spaced
    assert not report.verdict


def test_four_node_ring_flagged_by_zero_degeneracy():
    report = report_for(models.sgf_ring(4, 2 * math.pi))
    assert report.degenerate_levels == 1
    assert not report.verdict


def test_perfect_models_pass():
    for spec in (models.asgf(4, 2.0, math.pi / 2), models.chiral_n_node(5),
                 models.chiral_n_node(6)):
        report = report_for(spec)
        assert report.verdict, report.summary()


def test_detuned_centre_coupling_fails():
    assert not report_for(models.asgf(4, 1.0, math.pi / 2)).verdict
    assert not report_for(models.asgf(6, 2.0, math.pi / 2)).verdict


@pytest.mark.parametrize("n", range(3, 9))
def test_ring_winding_numbers_complete(n):
    report = report_for(models.sgf_ring(n, n * math.pi / 2))
    windings = sorted(m for m in report.windings if m is not None)
    assert windings == sorted(set(range(-(n // 2) + (0 if n % 2 else 1), n // 2 + 1)))
    assert report.chiral_modes_complete


@pytest.mark.parametrize("ring_nodes", [[0, 1, 2, 3], [1, 2, 3, 6]])
def test_ring_labels_outside_the_block_are_refused(ring_nodes):
    # On the 5-row block, label 0 would wrap round to the auxiliary row and
    # label 6 would run past the end.
    h, _ = spec_hamiltonian(models.asgf(4, 2.0, math.pi / 2))
    with pytest.raises(OutOfRange):
        criteria.check_criteria(h, ring_nodes)


def test_verdict_matches_observed_flow():
    """The spectral criteria and the dynamical peak test agree on the zoo."""
    zoo = [
        (models.sgf_ring(3, 3 * math.pi / 2), 3),
        (models.sgf_ring(4, 2 * math.pi), 4),
        (models.sgf_ring(5, 5 * math.pi / 2), 5),
        (models.sgf_ring(6, 3 * math.pi), 6),
        (models.asgf(4, 2.0, math.pi / 2), 4),
        (models.asgf(4, 1.0, math.pi / 2), 4),
        (models.asgf(6, 2.0, math.pi / 2), 6),
        (models.chiral_n_node(5), 5),
        (models.chiral_n_node(6), 6),
    ]
    for spec, n in zoo:
        verdict = report_for(spec).verdict
        h, _ = spec_hamiltonian(spec)
        values = dynamics.eigendecompose(h).eigenvalues
        scale = np.max(np.abs(values))
        x_min = np.min(np.abs(values[np.abs(values) > 1e-9 * scale]))
        times = np.linspace(0.0, 3.0 * 2.0 * math.pi / x_min, 2 * 3 * 4 * 5 * 6 * 10 + 1)
        traj = evolve_spec(spec, times)
        peaks = [float(np.max(traj.node_population(j))) for j in range(1, n + 1)]
        assert verdict == (min(peaks) >= 0.999), f"{spec.labels} verdict={verdict}"


def test_chiral_symmetry_residual_perfect():
    h, _ = spec_hamiltonian(models.asgf(4, 2.0, math.pi / 2))
    op = models.chiral_operator(4, with_auxiliary=True)
    assert criteria.check_chiral_symmetry(h, op) <= 1e-12


def test_chiral_symmetry_residual_diagonal_disorder():
    spec = models.asgf(4, 2.0, math.pi / 2)
    # a frequency offset on site 1 commutes with the site permutation, so the
    # residual is exactly twice the offset
    delta = 0.37
    disordered = replace(spec, onsite=(OnSite(1, delta, 0.0),))
    h, _ = spec_hamiltonian(disordered)
    op = models.chiral_operator(4, with_auxiliary=True)
    assert criteria.check_chiral_symmetry(h, op) == pytest.approx(2 * delta, abs=1e-12)


def test_chiral_symmetry_of_plain_even_ring_is_exact():
    # A pure nearest-neighbour even ring is bipartite, so the alternating
    # sublattice operator inverts its spectrum for any link phase.
    h, _ = spec_hamiltonian(models.sgf_ring(4, math.pi))
    op = models.chiral_operator(4, with_auxiliary=False)
    assert criteria.check_chiral_symmetry(h, op) <= 1e-12


def test_chiral_symmetry_broken_away_from_quarter_phase():
    # With the centre node attached the symmetry requires the pi/2 link
    # phase; a pi/4 phase leaves a residual 2 cos(pi/4) on the ring links.
    h, _ = spec_hamiltonian(models.asgf(4, 2.0, math.pi / 4))
    op = models.chiral_operator(4, with_auxiliary=True)
    assert criteria.check_chiral_symmetry(h, op) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_chiral_symmetry_dimension_mismatch():
    h, _ = spec_hamiltonian(models.sgf_ring(4, math.pi))
    with pytest.raises(DimensionMismatch):
        criteria.check_chiral_symmetry(h, models.chiral_operator(4, with_auxiliary=True))


def test_time_reversal_spin_three_node():
    spec = models.sgf_ring(3, 3 * math.pi / 2, statistics=Statistics.spin())
    assert criteria.check_time_reversal_spin(spec)


def test_time_reversal_spin_four_node_centre():
    spec = models.asgf(4, 2.0, math.pi / 2, statistics=Statistics.spin())
    assert criteria.check_time_reversal_spin(spec)


def test_time_reversal_requires_spin():
    with pytest.raises(NotSpin):
        criteria.check_time_reversal_spin(models.asgf(4, 2.0, math.pi / 2))


def test_flip_mirror_holds_for_every_zoo_model():
    times = np.linspace(0.0, 9.0, 901)
    for spec in (
        models.sgf_ring(3, 3 * math.pi / 2, statistics=Statistics.spin()),
        models.sgf_ring(4, 2 * math.pi, statistics=Statistics.spin()),
        models.asgf(4, 2.0, math.pi / 2, statistics=Statistics.spin()),
        models.chiral_n_node(5, statistics=Statistics.spin()),
    ):
        assert criteria.check_time_reversal_spin(spec, times=times)


def test_opposite_chirality_of_flipped_states():
    spec = models.sgf_ring(3, 3 * math.pi / 2, statistics=Statistics.spin())
    times = np.linspace(0.0, 2 * math.pi / math.sqrt(3.0), 1201)
    up = evolve_spec(spec, times, start=(1, 0, 0), n_excitations=1)
    down = evolve_spec(spec, times, start=(0, 1, 1), n_excitations=2)
    up_verdict = dynamics.chirality_order(up, [1, 2, 3], peak_threshold=0.9)
    hole_verdict = dynamics.chirality_order(criteria.hole_view(down), [1, 2, 3],
                                            peak_threshold=0.9)
    assert {up_verdict.direction, hole_verdict.direction} == {
        Direction.CLOCKWISE, Direction.COUNTERCLOCKWISE}


def test_hardcore_single_subspace_symmetric_at_zero():
    study = criteria.hardcore_limit_study(0.0)
    spec = models.sgf_ring(3, 3 * math.pi / 2)
    h, _ = spec_hamiltonian(spec)
    values = dynamics.eigendecompose(h).eigenvalues
    assert np.max(np.abs(values + values[::-1])) <= 1e-12
    assert study.single_direction is not Direction.NONE


def test_hardcore_crossover_direction_flip():
    study = criteria.hardcore_limit_study(100.0)
    assert study.single_direction is not Direction.NONE
    assert study.double_direction is not Direction.NONE
    assert study.single_direction != study.double_direction
    assert study.asymmetry_two_exc < 0.05


def test_hardcore_asymmetry_decreases():
    values = [criteria.hardcore_limit_study(u).asymmetry_two_exc for u in (10.0, 30.0, 100.0)]
    assert values[0] > values[1] > values[2]


def test_hardcore_same_direction_at_zero_coupling():
    study = criteria.hardcore_limit_study(0.0)
    assert study.single_direction == study.double_direction
