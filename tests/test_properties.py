"""Property tests of the spec-to-trajectory pipeline on random small networks.

Each example draws 2-5 sites with random hopping amplitudes and phases,
random on-site terms, boson (capped or not) or spin statistics, and one
occupation pattern of 1-3 excitations; the chiral-symmetry property draws
+-pi/2-phase rings of 3-10 sites instead.  Examples are derandomised so the
suite stays reproducible.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralflow import criteria, dynamics, hilbert, models

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
statistics = st.one_of(
    st.just(hilbert.Statistics.boson()),
    st.integers(1, 3).map(hilbert.Statistics.boson),
    st.just(hilbert.Statistics.spin()),
)


@st.composite
def networks(draw):
    """A random network spec, an occupation pattern on it and a time grid."""
    n = draw(st.integers(2, 5))
    stats = draw(statistics)
    capacity = n * (stats.max_occupation or 3)
    n_exc = draw(st.integers(1, min(3, capacity)))
    hops = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            if draw(st.booleans()):
                amplitude = draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
                hops.append(hilbert.Hopping(j, k, amplitude, draw(angles)))
    onsite = tuple(hilbert.OnSite(j, draw(finite), draw(finite)) for j in range(1, n + 1))
    spec = models.NetworkSpec(n, 0, tuple(hops), onsite, stats)
    states = hilbert.enumerate_basis(n, n_exc, stats).states
    occupation = states[draw(st.integers(0, len(states) - 1))]
    times = np.linspace(0.0, draw(st.floats(min_value=0.1, max_value=5.0)), 21)
    return spec, occupation, times


@PROPERTY_SETTINGS
@given(networks())
def test_simulate_matches_explicit_pipeline(case):
    spec, occupation, times = case
    basis = hilbert.enumerate_basis(spec.n_sites, sum(occupation), spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    psi0 = np.zeros(len(basis), dtype=complex)
    psi0[basis.state_index(occupation)] = 1.0
    reference = dynamics.evolve(h, psi0, times, basis=basis, labels=spec.labels)
    traj = dynamics.simulate(spec, occupation, times)
    assert np.array_equal(traj.amplitudes, reference.amplitudes)
    assert np.array_equal(traj.populations, reference.populations)
    assert traj.labels == reference.labels


@PROPERTY_SETTINGS
@given(networks())
def test_populations_sum_to_excitations_and_norm_is_kept(case):
    spec, occupation, times = case
    traj = dynamics.simulate(spec, occupation, times)
    assert np.allclose(traj.populations.sum(axis=1), sum(occupation), rtol=0.0, atol=1e-9)
    assert np.allclose(np.linalg.norm(traj.amplitudes, axis=1), 1.0, rtol=0.0, atol=1e-9)
    assert np.allclose(traj.populations[0], occupation, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(networks())
def test_build_hamiltonian_is_exactly_hermitian(case):
    spec, occupation, _ = case
    basis = hilbert.enumerate_basis(spec.n_sites, sum(occupation), spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis).matrix
    assert np.array_equal(h, h.conj().T)


@PROPERTY_SETTINGS
@given(st.integers(3, 10), st.floats(min_value=0.1, max_value=5.0),
       st.sampled_from([math.pi / 2, -math.pi / 2]), st.booleans())
def test_quarter_phase_rings_are_chiral_symmetric(n, beta_c, phase, with_auxiliary):
    spec = models.asgf(n, beta_c, phase) if with_auxiliary else models.sgf_ring(n, n * phase)
    basis = hilbert.enumerate_basis(spec.n_sites, 1, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    operator = models.chiral_operator(n, with_auxiliary)
    assert criteria.check_chiral_symmetry(h, operator) <= 1e-12


@PROPERTY_SETTINGS
@given(networks(), st.lists(angles, min_size=5, max_size=5))
def test_populations_are_gauge_invariant(case, phases):
    spec, occupation, times = case
    transformed = models.gauge_transform(spec, phases[:spec.n_sites])
    reference = dynamics.simulate(spec, occupation, times).populations
    gauged = dynamics.simulate(transformed, occupation, times).populations
    assert np.allclose(gauged, reference, rtol=0.0, atol=1e-9)


def _fold(m, n):
    """The winding number of m in -n/2 < m <= n/2."""
    r = m % n
    return r - n if 2 * r > n else r


@st.composite
def criteria_networks(draw):
    """A perfect chiral network, a quarter-phase ring (degenerate for even n)
    or a random auxiliary-node network."""
    n = draw(st.integers(4, 12))
    kind = draw(st.sampled_from(["chiral", "sgf", "asgf"]))
    if kind == "chiral":
        return models.chiral_n_node(n)
    if kind == "sgf":
        return models.sgf_ring(n, n * math.pi / 2)
    return models.asgf(draw(st.integers(3, 12)), draw(st.floats(0.0, 3.0)), draw(angles))


@PROPERTY_SETTINGS
@given(criteria_networks(), st.integers(-12, 12))
def test_windings_follow_a_ring_gauge_shift(spec, k):
    n = spec.n_network
    shift = [2 * math.pi * k * (j - 1) / n for j in spec.ring_nodes]
    gauged = models.gauge_transform(spec, shift + [0.0] * spec.auxiliary_count)
    reports = []
    for network in (spec, gauged):
        basis = hilbert.enumerate_basis(network.n_sites, 1, network.statistics)
        reports.append(criteria.check_criteria(hilbert.build_hamiltonian(network, basis),
                                               network.ring_nodes))
    before, after = reports
    assert sorted(_fold(m + k, n) for m in before.windings if m is not None) == sorted(
        m for m in after.windings if m is not None)
    assert before.windings.count(None) == after.windings.count(None)
    assert before.verdict == after.verdict
