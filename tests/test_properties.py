"""Property tests of the spec-to-trajectory pipeline on random small networks.

Each example draws 2-5 sites with random hopping amplitudes and phases,
random on-site terms, boson (capped or not) or spin statistics, and one
occupation pattern of 1-3 excitations.  Examples are derandomised so the
suite stays reproducible.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiralflow import dynamics, hilbert, models

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
    spec = models.NetworkSpec(n, 0, tuple(hops), onsite, stats,
                              tuple(f"node_{j}" for j in range(1, n + 1)))
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
@given(networks(), st.lists(angles, min_size=5, max_size=5))
def test_populations_are_gauge_invariant(case, phases):
    spec, occupation, times = case
    transformed = models.gauge_transform(spec, phases[:spec.n_sites])
    reference = dynamics.simulate(spec, occupation, times).populations
    gauged = dynamics.simulate(transformed, occupation, times).populations
    assert np.allclose(gauged, reference, rtol=0.0, atol=1e-9)


@PROPERTY_SETTINGS
@given(st.integers(1, 5), st.integers(0, 3), statistics)
def test_subspace_dimension_matches_enumeration(n_sites, n_exc, stats):
    assume(not (stats.is_spin and n_exc > n_sites))
    assume(stats.max_occupation is None or stats.max_occupation * n_sites >= n_exc)
    basis = hilbert.enumerate_basis(n_sites, n_exc, stats)
    assert hilbert.subspace_dimension(n_sites, n_exc, stats) == len(basis)
