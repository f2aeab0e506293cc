import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralflow import dynamics, experiments, hilbert, models
from chiralflow.errors import CapacityOverflow, DimensionMismatch, SpecMismatch
from chiralflow.hilbert import Hopping, OnSite, Statistics
from conftest import disordered_stack, sector_block


def matrix_element(bra, ket, term, statistics=Statistics.boson()):
    """Matrix element of a single Hermitian network term between occupation
    vectors, evaluated term by term as the oracle for ``build_hamiltonian``.

    For a :class:`Hopping` the full pair ``J e^{i theta} a_j^dag a_k + h.c.``
    is evaluated, so both hop directions contribute; on-site terms are
    diagonal.  Returns 0 for states the term does not connect.
    """
    bra = tuple(bra)
    ket = tuple(ket)
    if len(bra) != len(ket):
        raise DimensionMismatch("bra and ket have different site counts")
    if isinstance(term, OnSite):
        if bra != ket:
            return 0.0 + 0.0j
        n = ket[term.j - 1]
        return complex(term.delta_omega * n + term.kerr_u * n * n)
    coeff = term.coefficient()
    return (coeff * _transfer_factor(bra, ket, term.j, term.k, statistics)
            + coeff.conjugate() * _transfer_factor(bra, ket, term.k, term.j, statistics))


def _transfer_factor(bra, ket, dst, src, statistics):
    """<bra| a_dst^dag a_src |ket> on raw occupation vectors (1-based sites)."""
    d, s = dst - 1, src - 1
    if ket[s] == 0:
        return 0.0
    if statistics.is_spin and ket[d] == 1:
        return 0.0
    moved = list(ket)
    moved[s] -= 1
    moved[d] += 1
    if tuple(moved) != bra:
        return 0.0
    return math.sqrt(ket[s]) * math.sqrt(ket[d] + 1)


def number_operator(basis):
    """Diagonal total-occupation operator on the basis (constant block)."""
    return np.diag(np.array([sum(state) for state in basis.states], dtype=float))


def embed_state(amplitudes, basis, local_dim=2):
    """Embed subspace amplitudes into the full tensor-product space."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (len(basis),):
        raise DimensionMismatch("amplitude vector does not match basis dimension")
    full = np.zeros(local_dim ** basis.n_sites, dtype=complex)
    full[hilbert.embedding_indices(basis, local_dim)] = amplitudes
    return full


def brute_force_states(n_sites, n_exc, cap):
    """Independent enumeration: filter the full occupation product, site by
    site, dropping partial vectors that already hold more than n_exc."""
    partial = [()]
    for _ in range(n_sites):
        partial = [p + (n,) for p in partial for n in range(cap + 1) if sum(p) + n <= n_exc]
    return sorted((p for p in partial if sum(p) == n_exc), reverse=True)


def test_single_excitation_basis():
    basis = hilbert.enumerate_basis(3, 1, Statistics.boson())
    assert basis.states == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(hilbert.enumerate_basis(5, 1, Statistics.boson())) == 5


def test_two_boson_capped_basis():
    basis = hilbert.enumerate_basis(3, 2, Statistics.boson(2))
    expected = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert basis.states == expected
    assert basis.states == tuple(brute_force_states(3, 2, 2))


@pytest.mark.parametrize("n_sites", range(1, 13))
@pytest.mark.parametrize("n_exc", range(0, 5))
def test_dimension_formulas(n_sites, n_exc):
    boson = Statistics.boson()
    basis = hilbert.enumerate_basis(n_sites, n_exc, boson)
    assert len(basis) == math.comb(n_sites + n_exc - 1, n_exc)
    # independent enumeration: bosonic states are site multisets
    multisets = {
        tuple(combo.count(site) for site in range(n_sites))
        for combo in itertools.combinations_with_replacement(range(n_sites), n_exc)
    }
    assert multisets == set(basis.states)
    if n_exc <= n_sites:
        spin_basis = hilbert.enumerate_basis(n_sites, n_exc, Statistics.spin())
        assert len(spin_basis) == math.comb(n_sites, n_exc)
        subsets = {
            tuple(1 if site in combo else 0 for site in range(n_sites))
            for combo in itertools.combinations(range(n_sites), n_exc)
        }
        assert subsets == set(spin_basis.states)
        capped = hilbert.enumerate_basis(n_sites, n_exc, Statistics.boson(1))
        assert spin_basis.states == capped.states


@pytest.mark.parametrize("n_sites,n_exc,cap", [(4, 3, 2), (5, 4, 3), (6, 2, 1)])
def test_enumeration_matches_brute_force(n_sites, n_exc, cap):
    basis = hilbert.enumerate_basis(n_sites, n_exc, Statistics.boson(cap))
    assert list(basis.states) == brute_force_states(n_sites, n_exc, cap)


@pytest.mark.parametrize("statistics", [
    Statistics.spin(), Statistics.boson(), Statistics.boson(1), Statistics.boson(2),
], ids=["spin", "boson", "boson-cap1", "boson-cap2"])
def test_enumeration_is_sorted_filtered_product(statistics):
    overflows = 0
    for n_sites in range(1, 7):
        for n_exc in range(0, 5):
            expected = brute_force_states(n_sites, n_exc, statistics.site_cap(n_exc))
            if expected:
                basis = hilbert.enumerate_basis(n_sites, n_exc, statistics)
                assert list(basis.states) == expected
                continue
            overflows += 1
            with pytest.raises(CapacityOverflow):
                hilbert.enumerate_basis(n_sites, n_exc, statistics)
    assert (overflows > 0) == (statistics.max_occupation is not None)


def test_index_is_inverse_of_states():
    basis = hilbert.enumerate_basis(6, 3, Statistics.boson())
    for i, state in enumerate(basis.states):
        assert basis.state_index(state) == i
        assert basis.state_index(np.array(state)) == i
    assert len(set(basis.states)) == len(basis)
    for outside in [(1, 1, 1, 0, 0), (1, 1, 1, 0, 0, 1), (4, 0, 0, 0, 0, -1)]:
        with pytest.raises(KeyError):
            basis.state_index(outside)
    with pytest.raises(KeyError):
        hilbert.enumerate_basis(4, 2, Statistics.spin()).unit_vector((2, 0, 0, 0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.integers(0, 5), st.sampled_from([None, 1, 2, 3]))
@example(9, 0, None)
@example(9, 5, None)
@example(9, 5, 1)
@example(1, 5, 3)
def test_array_basis_is_the_brute_force_enumeration(n_sites, n_exc, cap):
    statistics = Statistics.boson(cap)
    expected = brute_force_states(n_sites, n_exc, statistics.site_cap(n_exc))
    if not expected:
        with pytest.raises(CapacityOverflow):
            hilbert.enumerate_basis(n_sites, n_exc, statistics)
        return
    basis = hilbert.enumerate_basis(n_sites, n_exc, statistics)
    occ = basis.occupations
    assert occ.dtype.kind == "u" and not occ.flags.writeable
    assert occ.shape == (len(expected), n_sites) == (len(basis), n_sites)
    assert np.array_equal(occ, np.array(expected).reshape(occ.shape))
    assert basis.states == tuple(expected)
    assert np.array_equal(basis.occupation_matrix(), occ.astype(float))
    assert [basis.state_index(state) for state in expected] == list(range(len(expected)))


def test_basis_above_255_excitations():
    basis = hilbert.enumerate_basis(2, 300, Statistics.boson())
    assert basis.occupations.dtype == np.uint16
    assert basis.states == tuple((300 - k, k) for k in range(301))
    assert basis.state_index((45, 255)) == 255 and basis.state_index((0, 300)) == 300
    spec = SimpleNamespace(n_sites=2, hoppings=(Hopping(1, 2, 0.7, 0.3), Hopping(2, 1, 1.1, -2.0)),
                           onsite=(OnSite(2, 0.25, 0.5),), statistics=Statistics.boson())
    h = hilbert.build_hamiltonian(spec, basis)
    assert_triplets_match_loop(h, spec, basis)
    assert np.array_equal(h.matrix.view(np.uint64), dense_hamiltonian(spec, basis).view(np.uint64))


def test_bases_compare_by_sector_not_by_array():
    a = hilbert.enumerate_basis(5, 2, Statistics.boson())
    b = hilbert.enumerate_basis(5, 2, Statistics.boson())
    assert a == b and hash(a) == hash(b) and a.occupations is not b.occupations
    assert a != hilbert.enumerate_basis(5, 2, Statistics.boson(1))
    assert "occupations" not in repr(a)


def test_enumeration_errors():
    with pytest.raises(CapacityOverflow):
        hilbert.enumerate_basis(3, 4, Statistics.spin())
    with pytest.raises(CapacityOverflow):
        hilbert.enumerate_basis(2, 5, Statistics.boson(2))
    with pytest.raises(ValueError):
        hilbert.enumerate_basis(0, 1, Statistics.boson())


def test_spin_is_a_boson_capped_at_one():
    assert Statistics.spin() == Statistics.boson(1)
    assert Statistics.boson(1).is_spin and not Statistics.boson(2).is_spin
    spec = models.sgf_ring(4, math.pi, statistics=Statistics.spin())
    own = hilbert.build_hamiltonian(spec, hilbert.enumerate_basis(4, 2, spec.statistics))
    capped = hilbert.build_hamiltonian(spec, hilbert.enumerate_basis(4, 2, Statistics.boson(1)))
    for name in ("rows", "cols", "values"):
        assert np.array_equal(getattr(own, name), getattr(capped, name))


def test_single_particle_hop_element():
    hop = Hopping(1, 2, 1.0, math.pi / 2)
    value = matrix_element((1, 0, 0), (0, 1, 0), hop)
    assert value == pytest.approx(1j, abs=1e-15)
    # Hermitian partner direction comes from the conjugate part of the term.
    value = matrix_element((0, 1, 0), (1, 0, 0), hop)
    assert value == pytest.approx(-1j, abs=1e-15)
    assert matrix_element((0, 0, 1), (1, 0, 0), hop) == 0


def test_bosonic_enhancement_element():
    hop = Hopping(1, 2, 1.0, 0.0)
    value = matrix_element((2, 0, 0), (1, 1, 0), hop)
    assert value == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_spin_blocking_element():
    hop = Hopping(1, 2, 1.0, 0.0)
    value = matrix_element((2, 0, 0), (1, 1, 0), hop, Statistics.spin())
    assert value == 0
    value = matrix_element((1, 0, 1), (0, 1, 1), hop, Statistics.spin())
    assert value == pytest.approx(1.0, abs=1e-15)


def test_onsite_element():
    term = OnSite(1, 0.0, 1.0)
    assert matrix_element((2, 0, 0), (2, 0, 0), term) == pytest.approx(4.0)
    assert matrix_element((2, 0, 0), (1, 1, 0), term) == 0
    shifted = OnSite(2, 0.5, 0.0)
    assert matrix_element((1, 2, 0), (1, 2, 0), shifted) == pytest.approx(1.0)


def test_three_node_ring_matrix():
    spec = models.sgf_ring(3, 3 * math.pi / 2)
    basis = hilbert.enumerate_basis(3, 1, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis).matrix
    expected = np.array([[0, 1j, -1j], [-1j, 0, 1j], [1j, -1j, 0]])
    assert np.allclose(h, expected, atol=1e-15)


def test_four_node_symmetric_gauge_matrix():
    theta = math.pi / 4
    spec = models.sgf_ring(4, 4 * theta)
    basis = hilbert.enumerate_basis(4, 1, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis).matrix
    phase = np.exp(1j * theta)
    expected = np.array([
        [0, phase, 0, np.conj(phase)],
        [np.conj(phase), 0, phase, 0],
        [0, np.conj(phase), 0, phase],
        [phase, 0, np.conj(phase), 0],
    ])
    assert np.allclose(h, expected, atol=1e-15)


def test_hamiltonian_exactly_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        spec = models.asgf(n, float(rng.uniform(0, 3)), float(rng.uniform(-math.pi, math.pi)))
        basis = hilbert.enumerate_basis(spec.n_sites, 2, spec.statistics)
        h = hilbert.build_hamiltonian(spec, basis).matrix
        assert np.array_equal(h, h.conj().T)


def test_number_operator_commutes_exactly():
    spec = models.asgf(4, 2.0, math.pi / 2)
    basis = hilbert.enumerate_basis(spec.n_sites, 2, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis).matrix
    n_op = number_operator(basis)
    assert np.max(np.abs(h @ n_op - n_op @ h)) == 0.0


def loop_triplets(spec, basis):
    """The assembly loop over states: each hopping entry followed by its
    mirror, hop by hop and state by state, then the on-site terms.  Moved
    states are ranked through a dict built here from ``basis.states``."""
    index = {state: i for i, state in enumerate(basis.states)}
    triplets = []
    for hop in spec.hoppings:
        coeff = hop.coefficient()
        d, s = hop.j - 1, hop.k - 1
        for col, state in enumerate(basis.states):
            if state[s] == 0 or (spec.statistics.is_spin and state[d] == 1):
                continue
            moved = list(state)
            moved[s] -= 1
            moved[d] += 1
            row = index.get(tuple(moved))
            if row is None:
                continue
            amp = coeff * math.sqrt(state[s]) * math.sqrt(state[d] + 1)
            triplets += [(row, col, amp), (col, row, amp.conjugate())]
    for term in spec.onsite:
        for i, state in enumerate(basis.states):
            n = state[term.j - 1]
            triplets.append((i, i, complex(term.delta_omega * n + term.kerr_u * n * n)))
    return triplets


def dense_hamiltonian(spec, basis):
    """The dense assembly loop: the triplets of ``loop_triplets`` added in
    order into a zero dim x dim matrix."""
    h = np.zeros((len(basis), len(basis)), dtype=complex)
    for row, col, value in loop_triplets(spec, basis):
        h[row, col] += value
    return h


def assert_triplets_match_loop(h, spec, basis):
    """Rows, columns and values equal the loop's, bit for bit and in order."""
    triplets = loop_triplets(spec, basis)
    rows = np.array([t[0] for t in triplets], dtype=np.intp)
    cols = np.array([t[1] for t in triplets], dtype=np.intp)
    values = np.array([t[2] for t in triplets], dtype=complex)
    assert np.array_equal(h.rows, rows) and np.array_equal(h.cols, cols)
    assert np.array_equal(h.values.view(np.uint64), values.view(np.uint64))


@st.composite
def raw_networks(draw):
    """Spin, boson and capped-boson networks whose hopping list may repeat a
    pair or list it in both directions, with on-site terms."""
    n = draw(st.integers(2, 5))
    stats = draw(st.one_of(st.just(Statistics.spin()), st.just(Statistics.boson()),
                           st.integers(1, 2).map(Statistics.boson)))
    n_exc = draw(st.integers(1, min(3, n * (stats.max_occupation or 3))))
    sites = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(sites, sites).filter(lambda p: p[0] != p[1]),
                          max_size=8))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    pairs += [(k, j) for j, k in pairs if draw(st.booleans())]
    values = st.floats(-2.0, 2.0)
    hops = tuple(Hopping(j, k, draw(values), draw(values)) for j, k in pairs)
    onsite = tuple(OnSite(draw(sites), draw(values), draw(values))
                   for _ in range(draw(st.integers(0, 4))))
    return SimpleNamespace(n_sites=n, hoppings=hops, onsite=onsite, statistics=stats), n_exc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw_networks())
def test_triplets_scatter_to_the_dense_loop_bit_for_bit(case):
    spec, n_exc = case
    basis = hilbert.enumerate_basis(spec.n_sites, n_exc, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    expected = dense_hamiltonian(spec, basis)
    assert h.dim == len(basis)
    assert np.array_equal(h.matrix.view(np.uint64), expected.view(np.uint64))
    assert not h.matrix.flags.writeable


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw_networks(), st.integers(0, 2**32 - 1))
def test_triplets_are_the_loop_triplets_bit_for_bit(case, seed):
    spec, n_exc = case
    rng = np.random.default_rng(seed)
    # Kerr terms on every site, with zeros of both signs among the values.
    kerr = tuple(OnSite(j, float(rng.choice([0.0, -0.0, rng.normal()])), float(rng.normal()))
                 for j in range(1, spec.n_sites + 1))
    spec = SimpleNamespace(**{**vars(spec), "onsite": spec.onsite + kerr})
    basis = hilbert.enumerate_basis(spec.n_sites, n_exc, spec.statistics)
    assert_triplets_match_loop(hilbert.build_hamiltonian(spec, basis), spec, basis)


def test_consecutive_builds_on_one_basis_are_each_their_own_build():
    basis = hilbert.enumerate_basis(5, 3, Statistics.boson(2))
    kerr = (OnSite(2, 0.3, 0.7), OnSite(5, -0.1, 0.2))
    first = SimpleNamespace(n_sites=5, statistics=Statistics.boson(2), onsite=kerr, hoppings=(
        Hopping(1, 2, 1.0, 0.5), Hopping(2, 3, 0.4, -1.0), Hopping(4, 5, 2.0, 3.0)))
    # Equal pairs and sites, other amplitudes, phases and on-site values.
    second = SimpleNamespace(**{**vars(first), "hoppings": tuple(
        Hopping(h.j, h.k, h.amplitude + 0.25, h.phase - 0.5) for h in first.hoppings),
        "onsite": tuple(OnSite(t.j, 2.0 * t.kerr_u, t.delta_omega) for t in kerr)})
    # Other pairs, and other sites, of the same counts.
    third = SimpleNamespace(**{**vars(first), "hoppings": (
        Hopping(1, 3, 1.0, 0.5), Hopping(2, 3, 0.4, -1.0), Hopping(5, 4, 2.0, 3.0))})
    fourth = SimpleNamespace(**{**vars(first), "onsite": (OnSite(1, 0.3, 0.7), OnSite(5, -0.1, 0.2))})
    for spec in (first, second, third, fourth, first, third):
        assert_triplets_match_loop(hilbert.build_hamiltonian(spec, basis), spec, basis)
    # A fresh basis of the same sector gives the same triplets.
    fresh = hilbert.build_hamiltonian(third, hilbert.enumerate_basis(5, 3, Statistics.boson(2)))
    assert_triplets_match_loop(fresh, third, basis)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
def test_coefficients_are_each_hopping_coefficient_bit_for_bit(pairs):
    # Tiny amplitudes and phases make parts that underflow to zeros of
    # either sign; zero amplitudes of both signs are among the draws.
    amplitudes, phases = map(np.array, zip(*pairs))
    coefficients = hilbert._coefficients(amplitudes, phases)
    expected = np.array([Hopping(1, 2, a, p).coefficient() for a, p in pairs])
    assert np.array_equal(coefficients.view(np.uint64), expected.view(np.uint64))


def as_network_spec(raw):
    """A ``NetworkSpec`` of a raw network: the first hopping of each site
    pair, its amplitude made non-negative, and every on-site term."""
    hops = {}
    for hop in raw.hoppings:
        hops.setdefault(frozenset((hop.j, hop.k)), Hopping(hop.j, hop.k, abs(hop.amplitude), hop.phase))
    return models.NetworkSpec(raw.n_sites, 0, tuple(hops.values()), raw.onsite, raw.statistics)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw_networks(), st.sampled_from(experiments.DISORDER_KINDS),
       st.sampled_from([0.0, 0.3, 3.0, 4.0]), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_disordered_rows_are_each_build_bit_for_bit(case, kind, amplitude, count, seed):
    raw, n_exc = case
    rng = np.random.default_rng(seed)
    # Kerr terms on every site, with zeros of both signs among the values,
    # before the drawn ones of frequency disorder.
    kerr = tuple(OnSite(j, float(rng.choice([0.0, -0.0, rng.normal()])), float(rng.normal()))
                 for j in range(1, raw.n_sites + 1))
    base = as_network_spec(SimpleNamespace(**{**vars(raw), "onsite": raw.onsite + kerr}))
    basis = hilbert.enumerate_basis(base.n_sites, n_exc, base.statistics)

    def copies(stream):
        """``count`` specs drawn one after another from ``stream``."""
        return [experiments.perturbed_spec(base, kind, amplitude, stream) for _ in range(count)]

    # Strength draws of 3 cross zero and phase draws of 4 wrap past pi.
    pattern = hilbert._spec_pattern(copies(np.random.default_rng(seed))[-1], basis)
    values = disordered_stack(base, kind, amplitude, basis, pattern,
                              np.random.default_rng(seed), count).values
    assert values.shape == (count, pattern[0].size)
    for row, spec in zip(values, copies(np.random.default_rng(seed))):
        h = hilbert.build_hamiltonian(spec, basis)
        assert np.array_equal(h.rows, pattern[0]) and np.array_equal(h.cols, pattern[1])
        assert np.array_equal(row.view(np.uint64), h.values.view(np.uint64))
        assert_triplets_match_loop(h, spec, basis)


@pytest.mark.parametrize("kind, hop, term", [
    # A base amplitude near the float max whose drawn strength overflows.
    ("hopping_strength", Hopping(1, 2, 1.79e308, 0.5), OnSite(2, 0.3, 0.7)),
    # An infinite detuning times an empty site.
    ("frequency", Hopping(1, 2, 1.0, 0.5), OnSite(2, math.inf, 0.0)),
])
def test_disordered_values_refuse_non_finite_entries(kind, hop, term):
    base = models.NetworkSpec(3, 0, (hop,), (term,), Statistics.boson())
    basis = hilbert.enumerate_basis(3, 1, base.statistics)
    with np.errstate(over="ignore", invalid="ignore"):
        pattern = hilbert._spec_pattern(base, basis)
        with pytest.raises(ValueError):
            disordered_stack(base, kind, 1e307, basis, pattern, np.random.default_rng(0), 8)
        # A sample's own build refuses it as well.
        stream = np.random.default_rng(0)
        with pytest.raises(ValueError):
            for _ in range(8):
                hilbert.build_hamiltonian(
                    experiments.perturbed_spec(base, kind, 1e307, stream), basis)


def test_hermitian_matrix_rejects_negative_indices():
    # A negative index would wrap around to the last row or column.
    with pytest.raises(DimensionMismatch):
        hilbert.HermitianMatrix(2, [-1, 0], [0, -1], [1.0, 1.0])


def test_hermitian_matrix_rejects_indices_past_dim():
    with pytest.raises(DimensionMismatch):
        hilbert.HermitianMatrix(2, [2, 0], [0, 2], [1.0, 1.0])
    assert hilbert.HermitianMatrix(2, [1, 0], [0, 1], [1.0, 1.0]).matrix.shape == (2, 2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 4),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
       st.integers(0, 2**32 - 1))
@example(dim=3, count=2, pairs=[], seed=0)
@example(dim=2, count=3, pairs=[(0, 1), (1, 1), (0, 1), (1, 1)], seed=1)
def test_a_stack_is_each_row_own_matrix_bit_for_bit(dim, count, pairs, seed):
    # Repeated pairs put duplicate triplets on one entry, summed in order.
    rng = np.random.default_rng(seed)
    rows, cols, values = [], [], []
    for r, c in ((r % dim, c % dim) for r, c in pairs):
        column = rng.normal(size=count) + (1j * rng.normal(size=count) if r != c else 0.0)
        rows += [r, c] if r != c else [r]
        cols += [c, r] if r != c else [c]
        values += [column, column.conj()] if r != c else [column]
    values = np.array(values, dtype=complex).reshape(-1, count).T
    stack = hilbert.HermitianMatrix(dim, rows, cols, values)
    own = [hilbert.HermitianMatrix(dim, rows, cols, row) for row in values]
    assert stack.matrix.shape == (count, dim, dim)
    assert np.array_equal(stack.matrix.view(np.uint64),
                          np.stack([h.matrix for h in own]).view(np.uint64))
    system = dynamics.eigendecompose(stack)
    assert system.dim == dim
    for i, h in enumerate(own):
        alone = dynamics.eigendecompose(h)
        assert np.array_equal(system.eigenvalues[i].view(np.uint64), alone.eigenvalues.view(np.uint64))
        assert np.array_equal(np.ascontiguousarray(system.eigenvectors[i]).view(np.uint64),
                              np.ascontiguousarray(alone.eigenvectors).view(np.uint64))


def full_space_hamiltonian(spec, local_dim):
    """Independent construction from dense ladder operators on the full
    tensor space."""
    lower = np.diag(np.sqrt(np.arange(1, local_dim)), k=1)
    raise_op = lower.T.conj()
    n_sites = spec.n_sites
    dim = local_dim ** n_sites

    def site_op(op, site):
        out = np.eye(1)
        for j in range(1, n_sites + 1):
            out = np.kron(out, op if j == site else np.eye(local_dim))
        return out

    h = np.zeros((dim, dim), dtype=complex)
    for hop in spec.hoppings:
        coeff = hop.amplitude * np.exp(1j * hop.phase)
        term = coeff * site_op(raise_op, hop.j) @ site_op(lower, hop.k)
        h += term + term.conj().T
    for onsite in spec.onsite:
        n_op = site_op(raise_op @ lower, onsite.j)
        h += onsite.delta_omega * n_op + onsite.kerr_u * n_op @ n_op
    return h


@pytest.mark.parametrize("statistics,n_exc", [
    (Statistics.boson(), 2),
    (Statistics.spin(), 2),
])
def test_subspace_block_matches_full_space(statistics, n_exc):
    spec = models.sgf_ring(4, 2 * math.pi, statistics=statistics)
    spec = models.NetworkSpec(
        spec.n_network, spec.auxiliary_count, spec.hoppings,
        (OnSite(1, 0.3, 0.7), OnSite(3, -0.2, 0.1)), spec.statistics,
    )
    basis = hilbert.enumerate_basis(4, n_exc, statistics)
    block = hilbert.build_hamiltonian(spec, basis).matrix
    local_dim = 2 if statistics.is_spin else n_exc + 1
    full = full_space_hamiltonian(spec, local_dim)
    projected = sector_block(full, basis, local_dim)
    assert np.allclose(block, projected, atol=1e-12)


def test_build_rejects_bad_sites():
    spec = models.sgf_ring(3, math.pi / 2)
    bad = models.NetworkSpec(3, 0, spec.hoppings, (OnSite(7, 1.0, 0.0),), spec.statistics)
    basis = hilbert.enumerate_basis(3, 1, spec.statistics)
    with pytest.raises(SpecMismatch):
        hilbert.build_hamiltonian(bad, basis)
    with pytest.raises(SpecMismatch):
        hilbert.build_hamiltonian(spec, hilbert.enumerate_basis(4, 1, spec.statistics))
    with pytest.raises(SpecMismatch):
        hilbert.build_hamiltonian(spec, hilbert.enumerate_basis(3, 1, Statistics.spin()))
    # A hopping to a site outside the basis, which a NetworkSpec refuses.
    outside = SimpleNamespace(n_sites=3, statistics=spec.statistics, onsite=(),
                              hoppings=(Hopping(2, 5, 1.0, 0.0),))
    with pytest.raises(SpecMismatch):
        hilbert.build_hamiltonian(outside, basis)


def test_full_space_embedding():
    basis = hilbert.enumerate_basis(3, 1, Statistics.spin())
    assert hilbert.full_space_index((1, 0, 0)) == 4
    assert hilbert.full_space_index((0, 0, 1)) == 1
    assert list(hilbert.embedding_indices(basis)) == [4, 2, 1]
    vec = embed_state(np.array([1.0, 2.0, 3.0], dtype=complex), basis)
    assert vec[4] == 1.0 and vec[2] == 2.0 and vec[1] == 3.0
    assert np.sum(np.abs(vec)) == 6.0


def test_embedding_indices_are_the_digit_expansion():
    basis = hilbert.enumerate_basis(4, 3, Statistics.boson())
    expected = [hilbert.full_space_index(state, 4) for state in basis.states]
    assert hilbert.embedding_indices(basis, 4).tolist() == expected
    with pytest.raises(CapacityOverflow):
        hilbert.embedding_indices(basis, 3)
