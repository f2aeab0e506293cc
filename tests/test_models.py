import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralflow import dynamics, hilbert, models
from chiralflow.errors import BadGauge, ConfigError, ProfileLength, SpecMismatch
from chiralflow.hilbert import Hopping, Statistics
from conftest import sector_block


def test_symmetric_gauge_link_phases():
    spec = models.sgf_ring(3, 3 * math.pi / 2)
    assert all(hop.phase == pytest.approx(math.pi / 2) for hop in spec.hoppings)
    spec = models.sgf_ring(4, math.pi)
    assert all(hop.phase == pytest.approx(math.pi / 4) for hop in spec.hoppings)


def test_ring_flux_matches_request_for_random_gauges():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        flux = float(rng.uniform(-math.pi, math.pi))
        kind = rng.choice(["symmetric", "landau", "custom"])
        spec = models.sgf_ring(n, flux)
        if kind == "custom":
            spec = models.gauge_transform(spec, rng.uniform(-math.pi, math.pi, n))
        elif kind == "landau":
            spec = models.landau_gauge(spec, flux)
        measured = spec.ring_flux()
        assert measured == pytest.approx(flux, abs=1e-12)


def test_asgf_structure():
    spec = models.asgf(4, 2.0, math.pi / 2)
    assert spec.n_network == 4 and spec.auxiliary_count == 1
    ring = [h for h in spec.hoppings if 5 not in (h.j, h.k)]
    centre = [h for h in spec.hoppings if 5 in (h.j, h.k)]
    assert len(ring) == 4 and len(centre) == 4
    assert all(h.phase == pytest.approx(math.pi / 2) for h in ring)
    assert all(h.amplitude == 2.0 and h.phase == 0.0 for h in centre)


def test_asgf_zero_coupling_reduces_to_ring():
    assert models.asgf(4, 0.0, math.pi / 2) == models.sgf_ring(4, 2 * math.pi)
    assert models.asgf(5, 0.0, 0.3) == models.sgf_ring(5, 5 * 0.3)


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
def test_asgf_rejects_negative_or_non_finite_coupling(beta):
    # A configuration error (exit 2 at the CLI), naming the value.
    with pytest.raises(ConfigError, match=repr(beta)):
        models.asgf(4, beta, math.pi / 2)


def test_asgf_subtriangle_fluxes_are_quarter_flux():
    spec = models.asgf(4, 2.0, math.pi / 2)
    fluxes = [spec.loop_flux([j, j % 4 + 1, 5]) for j in range(1, 5)]
    assert all(f == pytest.approx(fluxes[0], abs=1e-12) for f in fluxes)
    assert abs(fluxes[0]) == pytest.approx(math.pi / 2, abs=1e-12)


def test_chiral_five_node_coefficients():
    spec = models.chiral_n_node(5)
    alpha = math.sqrt((3.0 - math.sqrt(5.0)) / 2.0)
    beta = 5.0 * math.sqrt(2.0 / (5.0 + math.sqrt(5.0)))
    nn = [h for h in spec.hoppings if (h.k - h.j) % 5 == 1 and h.k <= 5]
    nnn = [h for h in spec.hoppings if (h.k - h.j) % 5 == 2 and h.k <= 5]
    aux = [h for h in spec.hoppings if h.k == 6]
    assert all(h.amplitude == 1.0 and h.phase == pytest.approx(-math.pi / 2) for h in nn)
    assert all(h.amplitude == pytest.approx(alpha) and h.phase == pytest.approx(math.pi / 2)
               for h in nnn)
    assert all(h.amplitude == pytest.approx(beta) and h.phase == pytest.approx(math.pi)
               for h in aux)


def test_chiral_six_node_coefficients():
    spec = models.chiral_n_node(6)
    nnn = [h for h in spec.hoppings if (h.k - h.j) % 6 == 2 and h.k <= 6]
    aux = [h for h in spec.hoppings if h.k == 7]
    assert all(h.amplitude == pytest.approx(1.0 / 3.0) for h in nnn)
    assert all(h.amplitude == pytest.approx(math.sqrt(2.0)) and h.phase == pytest.approx(math.pi)
               for h in aux)


def test_chiral_four_node_is_asgf():
    # The auxiliary node's phase pi is a pure gauge.
    gauged = models.gauge_transform(models.asgf(4, 2.0, math.pi / 2), [0, 0, 0, 0, math.pi])
    assert models.chiral_n_node(4) == gauged


def test_chiral_unsupported_size():
    # At n = 3 the plain ring sgf_ring(3, pi/2) is the perfect chiral network.
    with pytest.raises(ConfigError):
        models.chiral_n_node(3)


def chiral_closed_form(spec, t):
    """Ring amplitudes C_j(t) from site 1 at the levels the criteria demand.

    Plane wave m != 0 sits at E_m = u r_m, r_m the residue of smallest modulus
    of m + c/u (mod n), with c = 0 for odd n and n u / 2 for even n; the m = 0
    wave and the auxiliary node split into +-beta sqrt(n) = +-(n u or n u / 2).
    """
    n = spec.n_network
    shift = 0 if n % 2 else n // 2
    beta = spec.hoppings[-1].amplitude
    u = beta * math.sqrt(n) / (n if n % 2 else n // 2)
    m = np.arange(1, n)
    residues = (m + shift) - n * np.round((m + shift) / n)
    k = 2 * math.pi * m / n
    waves = np.exp(1j * np.outer(np.arange(n), k))            # e^{i k_m (j - 1)}
    phases = np.exp(-1j * np.outer(u * residues, t))          # e^{-i E_m t}
    return (waves @ phases + np.cos(beta * math.sqrt(n) * t)) / n


def test_chiral_n_node_matches_closed_form():
    for n in range(4, 13):
        spec = models.chiral_n_node(n)
        assert all(h.amplitude == 1.0 for h in spec.hoppings[:n])
        t = np.linspace(0.0, 12.0, 1201)
        traj = dynamics.simulate(spec, hilbert.occupation(spec.n_sites, 1), t)
        oracle = np.abs(chiral_closed_form(spec, t)) ** 2
        assert np.max(np.abs(traj.populations[:, :n].T - oracle)) <= 1e-12, n


def test_ladder_single_cell_is_asgf():
    assert models.ladder(1, [2.0]) == models.asgf(4, 2.0, math.pi / 2)


def test_ladder_four_cells_structure():
    spec = models.ladder(4, [2.0])
    assert spec.n_network == 10 and spec.auxiliary_count == 4
    assert models.ladder_corners(4) == (1, 5, 6, 10)
    ring_pairs = {frozenset((h.j, h.k)) for h in spec.hoppings if h.j <= 10 and h.k <= 10}
    assert ring_pairs == {frozenset((j, j % 10 + 1)) for j in range(1, 11)}
    # shared vertical pairs carry no hopping
    for i in range(1, 4):
        assert frozenset((i + 1, 10 - i)) not in ring_pairs
    cell_of = {11: {1, 2, 9, 10}, 12: {2, 3, 8, 9}, 13: {3, 4, 7, 8}, 14: {4, 5, 6, 7}}
    for aux, cell in cell_of.items():
        linked = {h.j for h in spec.hoppings if h.k == aux}
        assert linked == cell


def test_ladder_profile_assignment_symmetric():
    spec = models.ladder(4, [2.0, 3.0])
    betas = {}
    for h in spec.hoppings:
        if h.k > 10:
            betas.setdefault(h.k - 10, set()).add(h.amplitude)
    assert betas == {1: {2.0}, 2: {3.0}, 3: {3.0}, 4: {2.0}}


def test_ladder_profile_length_error():
    with pytest.raises(ProfileLength):
        models.ladder(4, [2.0, 3.0, 4.0])


def test_gauge_transform_identity_and_flux():
    spec = models.asgf(4, 2.0, math.pi / 2)
    assert models.gauge_transform(spec, [0.0] * 5) == spec
    rng = np.random.default_rng(5)
    for _ in range(25):
        phases = rng.uniform(-math.pi, math.pi, 5)
        transformed = models.gauge_transform(spec, phases)
        for loop in ([1, 2, 3, 4], [1, 2, 5], [2, 3, 5], [3, 4, 5], [4, 1, 5]):
            assert transformed.loop_flux(loop) == pytest.approx(
                spec.loop_flux(loop), abs=1e-12)


def test_gauge_transform_landau_equivalence():
    sym = models.sgf_ring(4, 2 * math.pi)
    landau = models.landau_gauge(sym, 2 * math.pi)
    assert landau.ring_flux() == pytest.approx(sym.ring_flux(), abs=1e-12)
    assert landau.hoppings != sym.hoppings  # genuinely different gauge


def landau_peierls_phase(b_field, r_from, r_to):
    """Line integral of A = (-By, 0) along the straight hop r_from -> r_to."""
    (x0, y0), (x1, y1) = r_from, r_to
    return -0.5 * b_field * (y0 + y1) * (x1 - x0)


@pytest.mark.parametrize("n", range(3, 9))
def test_landau_phases_are_peierls_line_integrals(n):
    # Sites on the unit circle, site 1 at angle 0, labels counterclockwise;
    # the centre auxiliary sits at the origin.  A field along -z realises a
    # positive flux, and a stored phase theta_jk belongs to the hop k -> j.
    angles = 2.0 * math.pi * np.arange(n) / n
    sites = np.column_stack([np.cos(angles), np.sin(angles)])
    area = 0.5 * n * math.sin(2.0 * math.pi / n)
    for flux in (0.3, -1.7, math.pi, 2.0 * math.pi, 2.5 * math.pi, 7.1, -9.4):
        b_field = -flux / area
        expected = {(j, j % n + 1): landau_peierls_phase(b_field, sites[j % n], sites[j - 1])
                    for j in range(1, n + 1)}
        centre = {(j, n + 1): landau_peierls_phase(b_field, (0.0, 0.0), sites[j - 1])
                  for j in range(1, n + 1)}
        for spec, links in ((models.sgf_ring(n, flux), expected),
                            (models.asgf(n, 1.3, flux / n), {**expected, **centre})):
            spec = models.landau_gauge(spec, flux)
            assert {(hop.j, hop.k) for hop in spec.hoppings} == set(links)
            for hop in spec.hoppings:
                error = math.remainder(hop.phase - links[(hop.j, hop.k)], 2.0 * math.pi)
                assert abs(error) <= 1e-12, (n, flux, hop)


def test_gauge_transform_requires_matching_length():
    spec = models.sgf_ring(4, math.pi)
    with pytest.raises(BadGauge):
        models.gauge_transform(spec, [0.0, 0.0])


def test_chiral_operator_matches_reference_form():
    op = models.chiral_operator(4, with_auxiliary=True)
    expected = np.array([
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, -1],
    ], dtype=float)
    assert np.array_equal(op.matrix.real, expected)
    assert np.array_equal(op.matrix.imag, np.zeros((5, 5)))


@pytest.mark.parametrize("n", range(3, 11))
def test_chiral_operator_is_involution(n):
    for with_aux in (False, True):
        op = models.chiral_operator(n, with_aux)
        assert op.involutive
        assert np.allclose(op.matrix @ op.matrix, np.eye(op.dim), atol=1e-14)


def test_chiral_operator_reports_a_non_involutive_unitary():
    # The 3-cycle shift is unitary with C^2 != 1; involutive is computed,
    # never passed in.
    shift = np.roll(np.eye(3), 1, axis=0)
    assert models.ChiralOperator(shift).involutive is False
    with pytest.raises(TypeError):
        models.ChiralOperator(np.eye(3), involutive=False)


@pytest.mark.parametrize("n", range(3, 9))
def test_chiral_operator_inverts_spectrum(n):
    spec = models.asgf(n, 1.3, math.pi / 2)
    basis = hilbert.enumerate_basis(spec.n_sites, 1, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis).matrix
    c = models.chiral_operator(n, with_auxiliary=True).matrix
    assert np.max(np.abs(c.conj().T @ h @ c + h)) <= 1e-12


CIRCULATION_PATTERN = np.array([[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]])


def test_three_body_blocks_have_chiral_hopping_structure():
    spin = Statistics.spin()
    basis1 = hilbert.enumerate_basis(3, 1, spin)
    basis2 = hilbert.enumerate_basis(3, 2, spin)
    sci = models.three_body_spin("SCI", 1.0).matrix
    asi = models.three_body_spin("ASI", 1.0).matrix
    sci1 = sector_block(sci, basis1)
    asi1 = sector_block(asi, basis1)
    # single excitation: SCI follows the pattern, the z-weighted variant is
    # flipped (it circulates the other way)
    assert np.allclose(sci1, 2.0 * CIRCULATION_PATTERN, atol=1e-14)
    assert np.allclose(asi1, -CIRCULATION_PATTERN, atol=1e-14)
    # double excitation, read in the hole ordering (reverse of the pair
    # enumeration): SCI keeps its pattern, the z-weighted variant flips sign
    # relative to its own single-excitation block
    rev = np.ix_([2, 1, 0], [2, 1, 0])
    sci2 = sector_block(sci, basis2)[rev]
    asi2 = sector_block(asi, basis2)[rev]
    assert np.allclose(sci2, 2.0 * CIRCULATION_PATTERN, atol=1e-14)
    assert np.allclose(asi2, CIRCULATION_PATTERN, atol=1e-14)


def test_three_body_hermitian_traceless_u1():
    for kind in ("ASI", "SCI"):
        h = models.three_body_spin(kind, 0.7).matrix
        assert np.array_equal(h, h.conj().T)
        assert abs(np.trace(h)) == 0.0
        counts = np.diag([bin(i).count("1") for i in range(8)]).astype(float)
        assert np.max(np.abs(h @ counts - counts @ h)) == 0.0


def test_spec_serialization_round_trip():
    for spec in (models.chiral_n_node(5), models.ladder(3, [2.0, 2.5]),
                 models.sgf_ring(4, math.pi, statistics=Statistics.spin())):
        assert models.NetworkSpec.from_dict(spec.to_dict()) == spec
        assert models.NetworkSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_spec_serialization_reads_the_statistics_kind_format():
    # Specs serialised with a statistics "kind" next to the cap load to the
    # same statistics: only the cap is read.
    for kind, cap, statistics in (("spin", 1, Statistics.spin()),
                                  ("boson", None, Statistics.boson()),
                                  ("boson", 2, Statistics.boson(2))):
        spec = models.sgf_ring(4, math.pi, statistics=statistics)
        data = spec.to_dict()
        data["statistics"] = {"kind": kind, "max_occupation": cap}
        assert models.NetworkSpec.from_dict(data) == spec
        assert spec.to_dict()["statistics"] == {"max_occupation": cap}


def test_spec_serialization_rejects_unknown_keys():
    data = models.sgf_ring(3, math.pi).to_dict()
    data["extra"] = 1
    with pytest.raises(SpecMismatch):
        models.NetworkSpec.from_dict(data)


def test_spec_validation():
    ring = models.sgf_ring(3, math.pi)
    with pytest.raises(SpecMismatch):
        models.NetworkSpec(3, 0, ring.hoppings + (Hopping(1, 2, 1.0, 0.0),),
                           (), ring.statistics, ring.labels)
    with pytest.raises(SpecMismatch):
        models.NetworkSpec(3, 0, (Hopping(1, 1, 1.0, 0.0),), (), ring.statistics,
                           ring.labels)
    with pytest.raises(SpecMismatch):
        models.NetworkSpec(3, 0, (Hopping(1, 9, 1.0, 0.0),), (), ring.statistics,
                           ring.labels)


def test_phases_normalised_at_construction():
    spec = models.sgf_ring(4, 10 * math.pi)  # per-link phase 2.5 pi -> 0.5 pi
    assert all(abs(h.phase) <= math.pi for h in spec.hoppings)
    assert spec.hoppings[0].phase == pytest.approx(math.pi / 2)


def test_normalised_hops_are_kept_and_others_wrapped():
    ring = models.sgf_ring(4, 0.0)
    inside = Hopping(1, 2, 1.0, 0.5)
    spec = models.NetworkSpec(4, 0, (inside, Hopping(2, 3, 1.0, -math.pi),
                                     Hopping(3, 4, 1.0, 3 * math.pi)),
                              (), ring.statistics, ring.labels)
    assert spec.hoppings[0] is inside
    assert [h.phase for h in spec.hoppings[1:]] == [math.pi, math.pi]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(-8.0, 8.0), st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([math.pi, -math.pi, models.TWO_PI, -models.TWO_PI])),
                min_size=1, max_size=8))
def test_normalize_phases_is_normalize_phase_bit_for_bit(angles):
    phases = models.normalize_phases(np.array(angles))
    expected = np.array([models.normalize_phase(theta) for theta in angles])
    assert np.array_equal(phases.view(np.uint64), expected.view(np.uint64))
    assert np.all((-math.pi < phases) & (phases <= math.pi))
