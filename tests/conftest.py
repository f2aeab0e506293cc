import numpy as np

from chiralflow import dynamics, experiments, hilbert
from chiralflow.errors import DimensionMismatch


def evolve_spec(spec, times, start=None, n_excitations=1):
    """Evolve a basis start state (default: every excitation on site 1)."""
    if start is None:
        start = hilbert.occupation(spec.n_sites, *[1] * n_excitations)
    return dynamics.simulate(spec, start, times)


def hermitian(array):
    """The operator of an exactly Hermitian array, as its nonzero triplets."""
    array = np.asarray(array, dtype=complex)
    assert np.array_equal(array, array.conj().T)
    rows, cols = np.nonzero(array)
    return hilbert.HermitianMatrix(array.shape[0], rows, cols, array[rows, cols])


def disordered_stack(base, kind, amplitude, basis, pattern, rng, count):
    """The stacked operator of ``count`` disordered copies of ``base`` drawn
    in turn from ``rng``, on the triplet ``pattern`` of any one copy, built
    as a chunk of ``experiments.disorder_sweep`` builds it."""
    amplitudes, phases, terms = experiments._draw(base, kind, amplitude, rng, count)
    values = hilbert._fill(pattern, hilbert._coefficients(amplitudes, phases), terms)
    return hilbert.HermitianMatrix(len(basis), *pattern[:2], values)


def spec_hamiltonian(spec, n_excitations=1):
    basis = hilbert.enumerate_basis(spec.n_sites, n_excitations, spec.statistics)
    return hilbert.build_hamiltonian(spec, basis), basis


def return_weights(spec):
    """Single-excitation levels of spec, clustered, and the weight |V_1k|^2 of
    site 1 summed per cluster: the return amplitude on site 1 is
    sum_k weight_k exp(-i level_k t)."""
    h, basis = spec_hamiltonian(spec)
    system = dynamics.eigendecompose(h)
    start = basis.state_index(hilbert.occupation(spec.n_sites, 1))
    weight = np.abs(system.eigenvectors[start]) ** 2
    scale = max(1.0, float(np.max(np.abs(system.eigenvalues))))
    clusters = dynamics.cluster_levels(system.eigenvalues, 1e-9 * scale)
    return (np.array([np.mean(system.eigenvalues[c]) for c in clusters]),
            np.array([np.sum(weight[c]) for c in clusters]))


def sector_block(full_matrix, basis, local_dim=2):
    """Restrict a full tensor-space operator to a fixed-excitation basis."""
    full_matrix = np.asarray(full_matrix)
    expected = local_dim ** basis.n_sites
    if full_matrix.shape != (expected, expected):
        raise DimensionMismatch(
            f"expected {(expected, expected)} matrix, got {full_matrix.shape}"
        )
    idx = hilbert.embedding_indices(basis, local_dim)
    return full_matrix[np.ix_(idx, idx)]
