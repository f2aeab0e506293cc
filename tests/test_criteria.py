import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralflow import criteria, dynamics, models
from chiralflow.dynamics import Direction
from chiralflow.errors import DimensionMismatch, NotSpin, OutOfRange
from chiralflow.hilbert import OnSite, Statistics
from conftest import evolve_spec, hermitian, spec_hamiltonian


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


def circulant(levels, n, theta=0.0):
    """A ring of n sites whose plane wave exp(2 pi i m j / n) / sqrt(n) has
    the level levels[m][0]; with two levels for m = 0, a uniformly coupled
    auxiliary site (row n) hybridises that wave with itself at angle theta,
    into the two levels levels[0]."""
    size = n + (len(levels[0]) - 1)
    sites = np.arange(n)
    h = np.zeros((size, size), dtype=complex)
    for m, values in enumerate(levels):
        wave = np.zeros(size, dtype=complex)
        wave[:n] = np.exp(2j * math.pi * m * sites / n) / math.sqrt(n)
        if len(values) == 1:
            h += values[0] * np.outer(wave, wave.conj())
            continue
        aux = np.eye(size)[n]
        for value, vector in zip(values, (math.cos(theta) * wave + math.sin(theta) * aux,
                                          -math.sin(theta) * wave + math.cos(theta) * aux)):
            h += value * np.outer(vector, vector.conj())
    return (h + h.conj().T) / 2.0


def shift_fidelities(h, n):
    """min_j |<j + s|U(tau)|j>|^2 over the ring sites for each stride s
    coprime to n, which steps the excitation through every site, U(tau) =
    exp(-i h tau) at tau = 2 pi / (n unit), the unit the smallest positive
    level; None without a positive level.  (A stride of 2 on 4 sites, as
    levels 1, -1, 1, -1 at m = 0..3 give, only swaps opposite sites.)"""
    values, vectors = np.linalg.eigh(h)
    positive = values[values > 1e-9 * max(1.0, float(np.max(np.abs(values))))]
    if not positive.size:
        return None
    tau = 2.0 * math.pi / (n * float(np.min(positive)))
    u = (vectors * np.exp(-1j * values * tau)) @ vectors.conj().T
    sites = np.arange(n)
    return {s: float(np.min(np.abs(u[(sites + s) % n, sites]) ** 2)) for s in range(1, n)
            if math.gcd(s, n) == 1}


@pytest.mark.parametrize("levels, stride", [((0, 1, -1, 2, -2), None),
                                            ((0, 1, 2, -2, -1), 1),
                                            ((0, 2, -1, 1, -2), 2)])
def test_five_node_circulant_needs_levels_linear_in_the_winding(levels, stride):
    # Levels at windings m = 0..4.  All three orders are symmetric, harmonic
    # and complete plane waves; only the orders linear in m mod 5 step the
    # excitation s sites per tau = 2 pi / 5.  Criteria (i) and (ii) alone
    # pass the first order, though no shift's fidelity exceeds 0.6.
    h = circulant([[value] for value in levels], 5)
    report = criteria.check_criteria(hermitian(h), range(1, 6))
    assert report.spectrum_symmetric and report.equally_spaced and report.chiral_modes_complete
    assert report.stride == stride
    assert report.verdict == (stride is not None)
    assert report.step_time == pytest.approx(2.0 * math.pi / 5.0, abs=1e-12)
    fidelities = shift_fidelities(h, 5)
    if stride is None:
        assert max(fidelities.values()) < 0.6
    else:
        assert fidelities[stride] == pytest.approx(1.0, abs=1e-9)


@st.composite
def integer_circulants(draw):
    """(n, levels per winding, theta) of a ring circulant with integer levels
    and a symmetric spectrum, with or without a uniform auxiliary.  Half the
    odd rings take levels s m + n z(m), linear in m mod n; the rest take a
    symmetric set of integers in any order."""
    n = draw(st.integers(3, 7))
    auxiliary = draw(st.booleans())
    levels = [None] * n
    if n % 2 and draw(st.booleans()):
        s = draw(st.sampled_from([s for s in range(1, n) if math.gcd(s, n) == 1]))
        for m in range(1, n // 2 + 1):
            k = s * m + n * draw(st.integers(-1, 1))
            levels[m], levels[n - m] = [k], [-k]
        pair = n * draw(st.integers(1, 2))
        levels[0] = [pair, -pair] if auxiliary else [0]
    else:
        size = n + auxiliary
        positive = draw(st.lists(st.integers(1, 2 * n), min_size=size // 2, max_size=size // 2))
        values = draw(st.permutations(positive + [-p for p in positive] + [0] * (size % 2)))
        levels[0] = values[:1 + auxiliary]
        levels[1:] = [[value] for value in values[1 + auxiliary:]]
    return n, levels, draw(st.floats(0.3, 1.2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_circulants())
@example((4, [[1], [-1], [1], [-1]], 1.0))
def test_verdict_holds_iff_the_propagator_steps_the_excitation(case):
    # The verdict claims a perfect step of ``stride`` sites per step time;
    # U(tau) built from the eigensystem bears that out, and no stride gives a
    # perfect step when the verdict is false.
    n, levels, theta = case
    h = circulant(levels, n, theta)
    report = criteria.check_criteria(hermitian(h), range(1, n + 1))
    fidelities = shift_fidelities(h, n)
    perfect = [s for s, value in (fidelities or {}).items() if abs(value - 1.0) <= 1e-9]
    assert report.verdict == bool(perfect), (levels, report.summary(), fidelities)
    if report.verdict:
        assert perfect == [report.stride]


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
