from chiralflow import dynamics, hilbert


def evolve_spec(spec, times, start=None, n_excitations=1):
    """Evolve a basis start state (default: every excitation on site 1)."""
    if start is None:
        start = hilbert.occupation(spec.n_sites, *[1] * n_excitations)
    return dynamics.simulate(spec, start, times)


def spec_hamiltonian(spec, n_excitations=1):
    basis = hilbert.enumerate_basis(spec.n_sites, n_excitations, spec.statistics)
    return hilbert.build_hamiltonian(spec, basis), basis
