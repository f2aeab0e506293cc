import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralflow import dynamics, floquet, models
from chiralflow.errors import DimensionMismatch, OutOfRange, SpecMismatch, StepTooLarge
from chiralflow.hilbert import Hopping, OnSite, Statistics


def rk4_reference(drive, psi0, times, dt):
    """The fixed-step RK4 vector stepper that ``integrate_tdse`` replaced,
    stepping through every period from one record time to the next with
    steps no larger than dt; lab-frame amplitudes on ``times``."""
    h_of = drive.hamiltonian
    psi = np.asarray(psi0, dtype=complex)
    states = [psi]
    for a, b in zip(times[:-1], times[1:]):
        n_steps = max(1, math.ceil((b - a) / dt))
        h = (b - a) / n_steps
        for step in range(n_steps):
            t = a + step * h
            h_mid = h_of(t + 0.5 * h)
            k1 = -1j * (h_of(t) @ psi)
            k2 = -1j * (h_mid @ (psi + 0.5 * h * k1))
            k3 = -1j * (h_mid @ (psi + 0.5 * h * k2))
            k4 = -1j * (h_of(t + h) @ (psi + h * k3))
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(psi)
    return drive.to_lab_frame(np.asarray(times), np.asarray(states))


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def network(n, *hops):
    """The n-node network with the given hoppings and nothing else."""
    return models.NetworkSpec(n, 0, hops, (), Statistics.boson())


def static_pair_drive():
    return floquet.CouplerDrive(network(3), (0.0, 20.0, 45.0))


def incommensurate_drive():
    # Carriers at 2 and 2 sqrt(2): no common period, so one pass spans t_final.
    omegas = (0.0, 1.0, 1.0 + math.sqrt(2.0))
    return floquet.CouplerDrive(network(3, Hopping(1, 2, 1.0, -0.3), Hopping(2, 3, 0.7, 1.1)),
                                omegas)


def bessel_series(order, x, terms=60):
    """Independent alternating-series evaluation of J_n(x)."""
    total = 0.0
    for m in range(terms):
        term = (-1.0) ** m * (x / 2.0) ** (2 * m + order)
        total += term / (math.factorial(m) * math.factorial(m + order))
    return total


def test_bessel_matches_series_oracle():
    for order in (0, 1, 2, 5):
        for x in (0.0, 0.5, 2.404825557695773, 7.3):
            reference = bessel_series(order, x)
            value = floquet.bessel_j(order, x)
            assert value == pytest.approx(reference, abs=1e-10, rel=1e-10)
    assert floquet.bessel_j(0, 0.0) == 1.0


def test_bessel_matches_scipy_reference():
    from scipy import special  # a reference here only: the package needs no scipy

    orders = np.arange(201)
    for x in np.linspace(-50.0, 50.0, 201):
        values = floquet.bessel_j(orders, float(x))
        assert values.shape == orders.shape
        assert np.max(np.abs(values - special.jv(orders, x))) <= 2e-14
    for order in (0, 1, 7, 200):
        assert floquet.bessel_j(order, 13.5) == pytest.approx(special.jv(order, 13.5), abs=2e-14)


def test_j0_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_series(0, mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(floquet.J0_FIRST_ZERO - root) <= math.ulp(root)
    assert abs(floquet.bessel_j(0, floquet.J0_FIRST_ZERO)) < 1e-14


def test_bessel_range_checks():
    with pytest.raises(OutOfRange):
        floquet.bessel_j(0, 60.0)
    with pytest.raises(OutOfRange):
        floquet.bessel_j(0, math.nan)
    with pytest.raises(OutOfRange):
        floquet.bessel_j(-1, 1.0)
    with pytest.raises(OutOfRange):
        floquet.bessel_j(10**4 + 1, 1.0)  # each order takes a row of N points


@pytest.mark.parametrize("order", [0.5, 1.0, np.array([1, 2.5]), True],
                         ids=["half", "float-one", "float-array", "bool"])
def test_bessel_refuses_non_integer_orders(order):
    # The trapezoid formula holds for integer orders only.
    with pytest.raises(OutOfRange, match="integer"):
        floquet.bessel_j(order, 1.0)


def test_bus_coupling_phase_differences():
    f = floquet.J0_FIRST_ZERO
    assert floquet.bus_effective_coupling(1.0, 1.0, 40.0, f, 0.3, 0.3) == 0.0
    opposite = floquet.bus_effective_coupling(1.0, 1.0, 40.0, f, 0.0, math.pi)
    assert abs(opposite) <= 1e-12
    # quarter-turn phase difference: odd-harmonic series with signs
    series = sum(2.0 * bessel_series(n, f) ** 2 * math.sin(n * math.pi / 2.0) / n
                 for n in range(1, 40))
    quarter = floquet.bus_effective_coupling(1.0, 1.0, 40.0, f, 0.0, math.pi / 2.0)
    assert quarter.real == pytest.approx(0.0, abs=1e-15)
    assert quarter.imag == pytest.approx(series / 40.0, abs=1e-12)


def test_bus_coupling_antisymmetry():
    f = floquet.J0_FIRST_ZERO
    forward = floquet.bus_effective_coupling(1.0, 1.2, 30.0, f, 0.2, 1.1)
    backward = floquet.bus_effective_coupling(1.0, 1.2, 30.0, f, 1.1, 0.2)
    assert forward == pytest.approx(-backward, abs=1e-15)


def test_bus_coupling_warns_off_zero():
    with pytest.warns(UserWarning):
        floquet.bus_effective_coupling(1.0, 1.0, 30.0, 2.3, 0.0, math.pi / 2)


def test_bus_ring_kills_next_nearest_neighbours():
    drive = floquet.bus_resonator_ring(4, nu=40.0)
    f = drive.delta / drive.nu
    nn = [floquet.bus_effective_coupling(1.0, 1.0, drive.nu, f,
                                         drive.phis[j - 1], drive.phis[j % 4])
          for j in range(1, 5)]
    nnn = [floquet.bus_effective_coupling(1.0, 1.0, drive.nu, f,
                                          drive.phis[j - 1], drive.phis[(j + 1) % 4])
           for j in range(1, 5)]
    magnitudes = [abs(c) for c in nn]
    assert max(magnitudes) - min(magnitudes) <= 1e-10 * max(magnitudes)
    assert all(abs(c) <= 1e-12 for c in nnn)


@pytest.mark.parametrize("omegas, link", [
    # Unchecked, site 0 would index omegas[-1] and couple the last node.
    pytest.param((0.0, 10.0, 30.0), Hopping(0, 1, 1.0, 0.0), id="site-0"),
    pytest.param((0.0, 10.0), Hopping(1, 3, 1.0, 0.0), id="site-past-end"),
    pytest.param((0.0, 10.0), Hopping(2, 2, 1.0, 0.0), id="self-link"),
    pytest.param((0.0, 10.0), Hopping(1, 2, -1.0, 0.0), id="negative-amplitude"),
])
def test_coupler_drive_rejects_bad_link_sites(omegas, link):
    # The spec a coupler drive synthesises refuses the link itself.
    with pytest.raises(SpecMismatch):
        floquet.CouplerDrive(network(len(omegas), link), omegas)


@pytest.mark.parametrize("kwargs", [
    # A NaN node frequency used to yield NaN lab-frame populations without
    # an error.  A network spec takes non-finite hoppings; the drive does not.
    dict(spec=network(2, Hopping(1, 2, 1.0, 0.0)), omegas=(0.0, math.nan)),
    dict(spec=network(2, Hopping(1, 2, math.inf, 0.0)), omegas=(0.0, 5.0)),
    dict(spec=network(2, Hopping(1, 2, 1.0, math.nan)), omegas=(0.0, 5.0)),
    # A NaN bus frequency would slip past the nu > 0 check (NaN compares False).
    dict(delta=96.0, nu=math.nan, phis=(0.0,), gs=(1.0,)),
    dict(delta=math.inf, nu=40.0, phis=(0.0,), gs=(1.0,)),
    dict(delta=96.0, nu=40.0, phis=(math.nan,), gs=(1.0,)),
])
def test_drive_spec_rejects_non_finite_numbers(kwargs):
    # Cases with bus couplings describe a bus drive, the others a coupler drive.
    drive_type = floquet.BusDrive if "gs" in kwargs else floquet.CouplerDrive
    with pytest.raises(ValueError, match="finite"):
        drive_type(**kwargs)


def test_coupler_drive_needs_one_frequency_per_site():
    with pytest.raises(DimensionMismatch):
        floquet.CouplerDrive(network(3, Hopping(1, 2, 1.0, 0.0)), (0.0, 10.0))


def test_coupler_drive_refuses_on_site_terms():
    spec = models.NetworkSpec(2, 0, (Hopping(1, 2, 1.0, 0.0),), (OnSite(1, 0.5),),
                              Statistics.boson())
    with pytest.raises(ValueError, match="hoppings only"):
        floquet.CouplerDrive(spec, (0.0, 10.0))


def test_integrate_tdse_refuses_a_nan_initial_state():
    # A NaN amplitude used to pass the norm check and return NaN populations.
    drive = floquet.tunable_coupler_asgf4(ratio=10.0)
    psi0 = dynamics.basis_state(5, 0)
    psi0[1] = math.nan
    dt = 2.0 * math.pi / (800.0 * drive.max_frequency)
    with pytest.raises(ValueError, match="norm"):
        floquet.integrate_tdse(drive, psi0, 0.1, dt)


def test_compare_effective_refuses_a_bus_drive():
    # A bus drive's spec is the node-bus star, not the ring the bus
    # synthesises: the comparison used to return 0.749 without complaint.
    with pytest.raises(TypeError, match="BusDrive"):
        floquet.compare_effective(floquet.bus_resonator_ring(4, 40.0))


def test_compare_effective_without_a_carrier():
    # No hopping, so no drive frequency: the step used to be 2 pi / 0.
    drive = floquet.CouplerDrive(network(3), (0.0, 20.0, 45.0))
    assert drive.max_frequency == 0.0
    assert floquet.compare_effective(drive) == 0.0


def test_zero_drive_keeps_populations():
    drive = static_pair_drive()
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    traj = floquet.integrate_tdse(drive, psi0, 1.0, 1e-3)
    assert np.allclose(traj.populations, [0.0, 1.0, 0.0], atol=1e-12)


def test_step_size_guard():
    drive = floquet.tunable_coupler_asgf4(ratio=20.0)
    psi0 = dynamics.basis_state(5, 0)
    with pytest.raises(StepTooLarge):
        floquet.integrate_tdse(drive, psi0, 1.0, 1.0)
    with pytest.raises(StepTooLarge):
        floquet.integrate_tdse(drive, psi0, 1.0, math.inf)


@pytest.mark.parametrize("dt", [0.0, -1e-6, math.nan])
def test_rejects_a_step_that_is_not_positive_and_finite(dt, monkeypatch):
    drive = floquet.tunable_coupler_asgf4(ratio=20.0)
    psi0 = dynamics.basis_state(5, 0)
    # Refused up front: no RK4 map is built.
    monkeypatch.setattr(floquet, "_propagators", None)
    with pytest.raises(ValueError, match="dt="):
        floquet.integrate_tdse(drive, psi0, 1.0, dt)


def test_rejects_more_cycles_than_it_can_step(monkeypatch):
    # About 1e200 drive periods in one chiral cycle: refused up front, before
    # any RK4 map is built, where the powers of U(T) would never end.
    drive = floquet.tunable_coupler_asgf4(ratio=1e200)
    monkeypatch.setattr(floquet, "_propagators", None)
    with pytest.raises(OutOfRange, match="drive periods"):
        floquet.integrate_tdse(drive, dynamics.basis_state(5, 0), math.pi, 1e-204)


def test_rejects_empty_time_range():
    drive = floquet.tunable_coupler_asgf4(ratio=10.0)
    psi0 = dynamics.basis_state(5, 0)
    for t_final, points in ((0.0, 11), (-1.0, 11), (math.nan, 11), (1.0, 1)):
        with pytest.raises(ValueError):
            floquet.integrate_tdse(drive, psi0, t_final, 1e-4, record_points=points)


def test_integrator_norm_and_convergence():
    drive = floquet.tunable_coupler_asgf4(ratio=10.0)
    psi0 = dynamics.basis_state(5, 0)
    dt = 2.0 * math.pi / (800.0 * drive.max_frequency)
    coarse = floquet.integrate_tdse(drive, psi0, 0.5, dt)
    fine = floquet.integrate_tdse(drive, psi0, 0.5, dt / 2.0)
    assert abs(np.linalg.norm(coarse.amplitudes[-1]) - 1.0) <= 1e-10
    assert np.max(np.abs(coarse.populations[-1] - fine.populations[-1])) <= 1e-8


def test_coupler_drive_parameter_set():
    drive = floquet.tunable_coupler_asgf4(ratio=20.0)
    assert drive.spec == models.asgf(4, 2.0, math.pi / 2)
    ring = [hop for hop in drive.spec.hoppings if hop.k != 5]
    centre = [hop for hop in drive.spec.hoppings if hop.k == 5]
    assert len(ring) == 4 and len(centre) == 4
    assert all(hop.amplitude == 1.0 and hop.phase == math.pi / 2 for hop in ring)
    assert all(hop.amplitude == 2.0 and hop.phase == 0.0 for hop in centre)
    pairs = {frozenset((hop.j, hop.k)) for hop in drive.spec.hoppings}
    assert frozenset((1, 3)) not in pairs and frozenset((2, 4)) not in pairs
    detunings = {abs(drive.omegas[a] - drive.omegas[b])
                 for a in range(5) for b in range(a + 1, 5)}
    assert len(detunings) == 10  # all pairwise detunings distinct
    assert min(map(abs, drive.detunings)) == pytest.approx(20.0)


def test_coupler_scheme_tracks_effective_model():
    drive = floquet.tunable_coupler_asgf4(ratio=20.0)
    assert floquet.compare_effective(drive) <= 0.05


def test_rwa_deviation_decreases_with_ratio():
    scan = floquet.rwa_deviation_scan([10.0, 20.0, 40.0])
    deviations = [d for _, d in scan]
    assert deviations[0] > deviations[1] > deviations[2]


def test_weak_coupling_limit_matches_effective():
    # With the drive frequencies held at the ratio-20 ladder and the
    # couplings scaled down tenfold, the residual deviation shrinks.  In
    # base-hopping units that drive is the ratio-200 ladder, and a lab time
    # of 1 in units of the ratio-20 coupling is 0.1.
    strong = floquet.compare_effective(floquet.tunable_coupler_asgf4(ratio=20.0), t_final=1.0)
    weak = floquet.compare_effective(floquet.tunable_coupler_asgf4(ratio=200.0), t_final=0.1)
    assert weak < strong
    assert weak < 0.01


def test_bus_integration_smoke():
    drive = floquet.bus_resonator_ring(4, nu=60.0)
    psi0 = dynamics.basis_state(5, 0)
    dt = 2.0 * math.pi / (400.0 * drive.nu)
    traj = floquet.integrate_tdse(drive, psi0, 2.0, dt, record_points=201)
    assert abs(np.linalg.norm(traj.amplitudes[-1]) - 1.0) <= 1e-8
    assert np.max(traj.populations[:, 1:]) > 1e-4  # excitation actually moves
    # The bus is the auxiliary site of the drive's star of node-bus links.
    assert drive.spec == models.NetworkSpec(
        4, 1, tuple(Hopping(j, 5, 1.0, 0.0) for j in range(1, 5)), (), Statistics.boson())
    assert traj.labels == ("node_1", "node_2", "node_3", "node_4", "aux_1")


# Coupler steps are the compare_effective default 2 pi / (800 nu_max), with
# nu_max = 12 * ratio; bus steps are those of test_bus_integration_smoke.
@pytest.mark.parametrize("drive, t_final, dt", [
    pytest.param(floquet.tunable_coupler_asgf4(ratio=10.0), math.pi, 2.0 * math.pi / (800.0 * 120.0),
                 id="coupler-ratio-10"),
    pytest.param(floquet.tunable_coupler_asgf4(ratio=20.0), math.pi, 2.0 * math.pi / (800.0 * 240.0),
                 id="coupler-ratio-20"),
    pytest.param(floquet.bus_resonator_ring(4, nu=60.0), 2.0, 2.0 * math.pi / (400.0 * 60.0),
                 id="bus-nu-60"),
])
def test_record_grid_is_uniform(drive, t_final, dt):
    traj = floquet.integrate_tdse(drive, dynamics.basis_state(5, 0), t_final, dt, record_points=1201)
    assert len(traj.times) == 1201
    assert traj.times[-1] == t_final
    assert np.allclose(np.diff(traj.times), t_final / 1200, rtol=0.0, atol=1e-15)
    assert np.array_equal(traj.times, np.linspace(0.0, t_final, 1201))


@pytest.mark.parametrize("drive, t_final, dt, psi0", [
    # 3.5 periods of the coupler drive keep the reference stepper near 1 s.
    pytest.param(floquet.tunable_coupler_asgf4(ratio=10.0), 3.5 * math.pi / 10.0,
                 2.0 * math.pi / (800.0 * 120.0), dynamics.basis_state(5, 0), id="coupler-ratio-10"),
    pytest.param(floquet.tunable_coupler_asgf4(ratio=20.0), 3.5 * math.pi / 20.0,
                 2.0 * math.pi / (800.0 * 240.0), dynamics.basis_state(5, 1), id="coupler-ratio-20"),
    # 2 / (2 pi / 60) = 19.1 bus periods.
    pytest.param(floquet.bus_resonator_ring(4, nu=60.0), 2.0, 2.0 * math.pi / (400.0 * 60.0),
                 dynamics.basis_state(5, 0), id="bus-non-integer-periods"),
    pytest.param(static_pair_drive(), 1.0, 1e-3, np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0),
                 id="no-links"),
    pytest.param(incommensurate_drive(), 1.5, 1e-3, np.array([0.6, 0.0, 0.8j]),
                 id="no-common-period"),
])
def test_one_period_propagator_matches_rk4_reference(drive, t_final, dt, psi0):
    traj = floquet.integrate_tdse(drive, psi0, t_final, dt, record_points=201)
    reference = rk4_reference(drive, psi0, traj.times, dt)
    assert np.max(np.abs(traj.amplitudes - reference)) <= 1e-8


def test_drive_period():
    for ratio in (10.0, 20.0, 200.0, 13.65):
        period = floquet.tunable_coupler_asgf4(ratio=ratio).period()
        assert period == pytest.approx(math.pi / ratio, rel=1e-12)
    assert floquet.bus_resonator_ring(4, nu=60.0).period() == 2.0 * math.pi / 60.0
    assert incommensurate_drive().period() is None
    assert static_pair_drive().period() is None


@pytest.mark.parametrize("ratio, detunings, max_frequency, period", [
    (10.0, (-10.0, -20.0, -40.0, 70.0, -120.0, -110.0, -90.0, -50.0), 120.0,
     float.fromhex("0x1.41b2f769cf0e0p-2")),
    (20.0, (-20.0, -40.0, -80.0, 140.0, -240.0, -220.0, -180.0, -100.0), 240.0,
     float.fromhex("0x1.41b2f769cf0e0p-3")),
    (40.0, (-40.0, -80.0, -160.0, 280.0, -480.0, -440.0, -360.0, -200.0), 480.0,
     float.fromhex("0x1.41b2f769cf0e0p-4")),
])
def test_coupler_drive_frequencies_are_pinned(ratio, detunings, max_frequency, period):
    # The doubles the drive had when each link stored its own frequency.
    drive = floquet.tunable_coupler_asgf4(ratio=ratio)
    assert drive.detunings == detunings
    assert drive.max_frequency == max_frequency
    assert drive.period() == period


BLOCK = floquet.RK4_BLOCK


def sequential_propagators(maps, lands):
    """U after each landing step, one ``u = step @ u`` product per step."""
    u = np.eye(maps.shape[-1], dtype=complex)
    out = [u]
    for step, land in zip(maps, lands):
        u = step @ u
        if land:
            out.append(u)
    return np.asarray(out)


def fold_edges(total):
    """Steps on the edges of the blocks and of the fold's rows in a stack of
    ``total`` steps: the first and last step of each row and the step before it."""
    edges = set()
    for lo in range(0, total, BLOCK):
        size = min(BLOCK, total - lo)
        width = math.isqrt(size - 1) + 1
        for row in range(lo, lo + size, width):
            edges |= {row - 1, row, min(row + width, lo + size) - 1}
    return sorted(k for k in edges if 0 <= k < total)


# 1 step, one block, one block + 1, three blocks + 7.
@PROPERTY_SETTINGS
@given(st.sampled_from([1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.data())
def test_folded_product_matches_sequential_steps(total, n, seed, data):
    edges = fold_edges(total)
    lands = {0, total - 1}  # a one-step first segment, and the end
    lands |= set(data.draw(st.lists(st.sampled_from(edges), max_size=12)))
    lands |= set(data.draw(st.lists(st.integers(0, total - 1), max_size=12)))
    # Unit steps: segment lengths are whole numbers, so each takes exactly
    # as many steps as its length.
    stops = np.array([0, *(k + 1 for k in sorted(lands))], dtype=float)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    hs = a + np.swapaxes(a, -1, -2).conj()
    hs /= np.linalg.norm(hs, 2, axis=(-2, -1))[:, None, None]

    def h_of(t):
        t = np.asarray(t)[..., None, None]
        return 0.25 * (np.cos(t) * hs[0] + np.sin(1.7 * t) * hs[1])

    u, count = floquet._propagators(h_of, n, stops, 1.0)
    starts, steps, flags = floquet._step_times(stops, 1.0)
    assert count == total
    assert np.array_equal(np.flatnonzero(flags), sorted(lands))
    reference = sequential_propagators(floquet._rk4_maps(h_of, starts, steps), flags)
    assert u.shape == reference.shape == (len(lands) + 1, n, n)
    # Only the association of the product differs. Worst of 6000 random
    # cases of this kind (n <= 5, up to 775 steps, entries up to 1.15): 2.5e-14.
    assert np.max(np.abs(u - reference)) <= 1e-13


def linspace_starts(stops, dt):
    """Per-segment ``np.linspace`` start times: the reference for ``_step_times``."""
    counts = np.maximum(1, np.ceil(np.diff(stops) / dt)).astype(int)
    return np.concatenate([np.linspace(a, b, c, endpoint=False)
                           for a, b, c in zip(stops[:-1], stops[1:], counts)])


# The in-period offsets of ``integrate_tdse`` for ratio 20 in ``study floquet``.
RATIO_20_OFFSETS = np.unique(np.divmod(
    np.round(np.linspace(0.0, math.pi, 1201) / (math.pi / 20.0), 12), 1.0)[1])


@PROPERTY_SETTINGS
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
       st.floats(1e-3, 10.0), st.floats(1e-4, 1.0))
@example(list(RATIO_20_OFFSETS), math.pi / 20.0, 2.0 * math.pi / (800.0 * 240.0))
def test_step_starts_are_the_per_segment_linspace_bit_for_bit(offsets, period, dt):
    stops = np.append(np.unique([0.0, *offsets]), 1.0) * period
    starts, steps, lands = floquet._step_times(stops, dt)
    assert starts.tobytes() == linspace_starts(stops, dt).tobytes()
    assert steps.size == starts.size == lands.size and lands.sum() == stops.size - 1


@pytest.mark.parametrize("drive", [floquet.tunable_coupler_asgf4(20.0),
                                   floquet.bus_resonator_ring()], ids=["coupler", "bus"])
def test_rk4_maps_evaluate_the_drive_once_per_block(drive):
    # One call on the stacked stage times t, t + h/2, t + h gives the maps of
    # one call per stage bit for bit.
    starts, steps, _ = floquet._step_times(np.array([0.0, 0.4, 1.0]) * drive.period(), 1e-3)
    calls = []
    maps = floquet._rk4_maps(lambda t: calls.append(t.shape) or drive.hamiltonian(t),
                             starts, steps)
    assert calls == [(3, steps.size)]
    scale = -1j * steps[:, None, None]
    k1, am, a1 = (scale * drive.hamiltonian(t)
                  for t in (starts, starts + 0.5 * steps, starts + steps))
    eye = np.eye(drive.n_modes)
    k2 = am @ (eye + 0.5 * k1)
    k3 = am @ (eye + 0.5 * k2)
    reference = eye + (k1 + 2.0 * k2 + 2.0 * k3 + a1 @ (eye + k3)) / 6.0
    assert maps.tobytes() == reference.tobytes()


def test_propagator_memory_stays_per_block():
    # No common period: the one "period" is the whole run, so ten times the
    # run is ten times the RK4 steps of one pass (1500 against 15 000).
    drive = incommensurate_drive()
    psi0 = np.array([0.6, 0.0, 0.8j])
    floquet.integrate_tdse(drive, psi0, 1.5, 1e-3, record_points=201)
    peaks = []
    for t_final in (1.5, 15.0):
        tracemalloc.start()
        try:
            floquet.integrate_tdse(drive, psi0, t_final, 1e-3, record_points=201)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Measured: 0.24 MB more, the per-step start times, lengths and landing
    # flags; RK4 maps folded across the whole run took 15.9 MB more.
    assert peaks[1] - peaks[0] <= 1_000_000


def test_integrate_tdse_logs_one_line(caplog):
    caplog.set_level(logging.INFO, logger="chiralflow.floquet")
    drive = floquet.tunable_coupler_asgf4(ratio=10.0)
    dt = 2.0 * math.pi / (800.0 * drive.max_frequency)
    floquet.integrate_tdse(drive, dynamics.basis_state(5, 0), math.pi, dt)
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    match = re.fullmatch(r"integrate_tdse: 5 modes, (\d+) RK4 steps per period in (\d+) "
                         rf"blocks of <={BLOCK}, (\d+) in-period offsets, norm drift (\S+)",
                         record.getMessage())
    assert match
    steps, blocks, offsets = map(int, match.groups()[:3])
    # Ten periods on 1201 points put 120 distinct offsets in a period, with
    # no copies a rounding apart; each segment between them takes at most one
    # step more than its length in dt.
    assert offsets == 120
    assert drive.period() / dt <= steps <= drive.period() / dt + offsets
    assert blocks == -(-steps // BLOCK)
    assert float(match[4]) <= 1e-8
