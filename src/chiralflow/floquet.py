"""Driven lab-frame models that synthesise the chiral ring couplings.

Two schemes are covered: parametrically modulated couplers (``CouplerDrive``,
one coupler per hopping of the network it synthesises, at the detuning of its
nodes) and a common bus resonator with modulated node frequencies
(``BusDrive``), where the effective hoppings follow a Bessel-function series,
summed in NumPy (``bessel_j``).  A drive is a set of links on a
``NetworkSpec``, each with a time coefficient: each drive type supplies those
coefficients, its sites' frame phases and its period, and ``Drive`` turns
them into the interaction-picture Hamiltonian and the map back to the lab
frame, all in base-hopping units, as the target networks are.  Lab-frame
integration is done in the exact interaction picture of the time-dependent
diagonal, which leaves populations untouched and keeps the integrator error
independent of the large carrier frequencies.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory, basis_state, checked_state, simulate
from .errors import ConfigError, DimensionMismatch, OutOfRange, StepTooLarge
from .hilbert import Hopping, Statistics, occupation
from .models import NetworkSpec, asgf

log = logging.getLogger(__name__)

# RK4 steps whose maps are built and multiplied at once. The block's map
# stack and its fold take about 0.1 MB each for five modes, so memory does
# not grow with the steps of a pass, also when an aperiodic drive makes the
# one "period" the whole run. On a ratio 10,20 scan, 1024-step blocks took
# 3 MB more peak RSS and a quarter more time.
RK4_BLOCK = 256
# Drive periods in one integration: U(T)^m psi0 is formed one product at a
# time, about 1.3 us per period on a 2-vCPU host, so 1e7 periods take 13 s.
MAX_CYCLES = 10**7


J0_FIRST_ZERO = 2.404825557695773  # j_{0,1}, the first zero of J_0, correctly rounded


def bessel_j(order, x: float):
    """J_n(x) for an integer order n in [0, 10^4], or an integer array of them,
    at |x| <= 50: the trapezoid rule (1/N) sum_k cos(n t_k - x sin t_k) on
    N = ceil(|x|) + max n + 64 points t_k = 2 pi k / N, exact to rounding for
    this periodic integrand (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    n t_k is reduced mod 2 pi in integers, so high orders add no rounding."""
    orders = np.asarray(order)
    if orders.dtype.kind not in "iu" or np.any((orders < 0) | (orders > 10**4)):
        raise OutOfRange("order must be an integer in [0, 10^4]")
    if not abs(x) <= 50.0:
        raise OutOfRange("argument outside the supported range |x| <= 50")
    points = math.ceil(abs(x)) + int(np.max(orders, initial=0)) + 64
    k = np.arange(points)
    step = 2.0 * math.pi / points
    phases = orders[..., None] * k % points * step
    values = np.mean(np.cos(phases - x * np.sin(k * step)), axis=-1)
    return values if orders.ndim else float(values)


def bus_effective_coupling(g_j: float, g_k: float, nu: float, f: float,
                           phi_j: float, phi_k: float) -> complex:
    """Effective hopping between two bus-coupled nodes with modulated
    frequencies: (g_j g_k / nu) * beta_jk * e^{i pi/2} with
    beta_jk = sum_n 2 J_n(f)^2 sin(n (phi_k - phi_j)) / n.

    The series is truncated once its envelope drops below 1e-12; a warning
    is emitted when f is not close to the first Bessel zero, because the
    leftover static coupling then competes with the modulated one.
    """
    if abs(f - J0_FIRST_ZERO) > 0.01:
        warnings.warn("drive ratio f is far from the first Bessel zero; "
                      "a static bus coupling survives", stacklevel=2)
    orders = np.arange(1, 200)
    beta = 0.0
    for n, envelope in zip(orders.tolist(), (2.0 * bessel_j(orders, f) ** 2 / orders).tolist()):
        if envelope < 1e-12:
            break
        beta += envelope * math.sin(n * (phi_k - phi_j))
    return (g_j * g_k / nu) * beta * 1j


def _require_finite(numbers) -> None:
    if not all(math.isfinite(x) for x in numbers):
        raise ValueError("drive parameters must be finite")


def _max_step(drive: Drive, steps_per_cycle: float) -> float:
    """2 pi / (steps_per_cycle nu_max), the step that resolves the fastest
    drive frequency; nu_max is floored at 1e-30, so a drive without a carrier
    takes a finite step."""
    return 2.0 * math.pi / (steps_per_cycle * max(drive.max_frequency, 1e-30))


class Drive:
    """Links on the network ``spec``, each with a time coefficient.  A drive
    type supplies ``spec``, ``link_values(t)`` (the interaction-picture
    coefficient of each hopping of the spec at each time of ``t``, stacked
    over the shape of ``t``, which ends in an axis of 1) and
    ``frame_phases(t)`` (each site's interaction-picture phase, likewise)."""

    spec: NetworkSpec

    @property
    def n_modes(self) -> int:
        return self.spec.n_sites

    def hamiltonian(self, t) -> np.ndarray:
        """Interaction-picture Hamiltonian at each time of ``t`` (stacked over
        its shape): each link's value on the (j, k) entry of its hopping."""
        rows, cols = np.array([(hop.j - 1, hop.k - 1) for hop in self.spec.hoppings],
                              dtype=int).reshape(-1, 2).T
        t = np.asarray(t, dtype=float)[..., None]
        values = self.link_values(t)
        h = np.zeros(t.shape[:-1] + (self.n_modes, self.n_modes), dtype=complex)
        h[..., rows, cols] = values
        h[..., cols, rows] = values.conjugate()
        return h

    def to_lab_frame(self, times: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
        """Undo the interaction-picture phases of a (times, modes) amplitude array."""
        return amplitudes * np.exp(-1j * self.frame_phases(times[:, None]))


@dataclass(frozen=True)
class CouplerDrive(Drive):
    """Parametrically driven couplers that synthesise ``spec`` between nodes
    at static frequencies ``omegas``: hopping l of the spec, (j, k, J, theta),
    is the coupler 2 J cos(nu_l t - theta), driven at the detuning
    nu_l = omega_j - omega_k of its two nodes."""

    spec: NetworkSpec
    omegas: tuple[float, ...]

    def __post_init__(self):
        _require_finite([*self.omegas, *(x for hop in self.spec.hoppings
                                         for x in (hop.amplitude, hop.phase))])
        if len(self.omegas) != self.spec.n_sites:
            raise DimensionMismatch(f"need {self.spec.n_sites} frequencies, one per site")
        if self.spec.onsite:
            raise ValueError("couplers synthesise hoppings only; the spec has on-site terms")

    @functools.cached_property
    def detunings(self) -> tuple[float, ...]:
        """The drive frequency nu_l of each hopping."""
        return tuple(self.omegas[hop.j - 1] - self.omegas[hop.k - 1]
                     for hop in self.spec.hoppings)

    @property
    def max_frequency(self) -> float:
        return max(map(abs, self.detunings), default=0.0)

    def period(self) -> float | None:
        """Period of the interaction-picture Hamiltonian, or None if it has
        none: carriers oscillate at 2 nu_l, so it is pi / gcd |nu_l| over the
        driven links."""
        freqs = [abs(nu) for nu in self.detunings if nu != 0.0]
        if not freqs:
            return None
        base, tol = freqs[0], 1e-9 * max(freqs)
        for freq in freqs[1:]:
            a, b = max(base, freq), min(base, freq)
            while b > tol:
                a, b = b, math.fmod(a, b)
            base = a
        if any(abs(freq / base - round(freq / base)) > 1e-12 for freq in freqs):
            return None
        return math.pi / base

    def link_values(self, t: np.ndarray) -> np.ndarray:
        # In the frame of the static diagonal the co-rotating part of a
        # coupler is J e^{i theta} = J e^{-i phi}, with phi = -theta; the
        # counter-rotating part oscillates at 2 nu.
        gs = np.array([hop.amplitude for hop in self.spec.hoppings])
        phis = -np.array([hop.phase for hop in self.spec.hoppings])
        nus = np.array(self.detunings)
        return gs * (np.exp(1j * (2.0 * nus * t + phis)) + np.exp(-1j * phis))

    def frame_phases(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.omegas) * t


@dataclass(frozen=True)
class BusDrive(Drive):
    """Nodes coupled with strengths ``gs`` to a common bus, their frequencies
    modulated about the bus's as delta cos(nu t - phi_j); the lab frame
    rotates with the bus.  ``spec`` is the star of node-bus links, with the
    bus as ``aux_1``."""

    nu: float
    delta: float
    phis: tuple[float, ...]
    gs: tuple[float, ...]
    spec: NetworkSpec = field(init=False, repr=False)

    def __post_init__(self):
        _require_finite([self.nu, self.delta, *self.phis, *self.gs])
        if len(self.phis) != len(self.gs):
            raise DimensionMismatch("need one phase per bus coupling")
        if self.nu <= 0:
            raise ValueError("bus modulation frequency must be positive")
        if abs(self.delta / self.nu - J0_FIRST_ZERO) > 0.01:
            warnings.warn("bus drive ratio is far from the first Bessel zero",
                          stacklevel=2)
        n = len(self.gs)
        star = tuple(Hopping(j, n + 1, g, 0.0) for j, g in enumerate(self.gs, start=1))
        object.__setattr__(self, "spec", NetworkSpec(n, 1, star, (), Statistics.boson()))

    @property
    def max_frequency(self) -> float:
        return self.nu

    def period(self) -> float:
        """Period of the interaction-picture Hamiltonian, 2 pi / nu."""
        return 2.0 * math.pi / self.nu

    def link_values(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.gs) * np.exp(1j * self.frame_phases(t)[..., :-1])

    def frame_phases(self, t: np.ndarray) -> np.ndarray:
        # The integral of each node's detuning delta cos(nu t - phi_j); the
        # bus is the frame's reference, at phase 0.
        phis = np.asarray(self.phis)
        nodes = self.delta / self.nu * (np.sin(self.nu * t - phis) + np.sin(phis))
        return np.concatenate([nodes, np.zeros_like(nodes[..., :1])], axis=-1)


def tunable_coupler_asgf4(ratio: float = 20.0) -> CouplerDrive:
    """Coupler drives that synthesise the perfect four-node chiral network
    ``asgf(4, 2, pi/2)``: ring couplers of strength 1 at phase pi/2, centre
    couplers of strength 2 at phase 0.  Node frequencies sit on a ladder
    with all pairwise detunings distinct and the smallest equal to
    ``ratio``.
    """
    spacing = (0, 1, 3, 7, 12)  # pairwise-distinct multiples of the base detuning
    return CouplerDrive(asgf(4, 2.0, math.pi / 2), tuple(s * ratio for s in spacing))


def bus_resonator_ring(n: int = 4, nu: float = 40.0) -> BusDrive:
    """Bus scheme with unit couplings and node phases phi_j = j pi/2:
    equal-strength NN hops, no next-nearest-neighbour coupling.  The drive
    ratio delta / nu is the first Bessel zero, which removes the static bus
    coupling."""
    return BusDrive(nu=nu, delta=J0_FIRST_ZERO * nu, gs=(1.0,) * n,
                    phis=tuple(j * math.pi / 2 for j in range(1, n + 1)))


def _rk4_maps(h_of, starts: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """One classical RK4 step of U' = -i H(t) U from each start time, as a
    stack of step matrices (the RK4 stages applied to the identity).  The
    drive is evaluated once, on the stacked stage times t, t + h/2, t + h."""
    scale = -1j * steps[:, None, None]
    k1, am, a1 = scale * h_of(np.stack([starts, starts + 0.5 * steps, starts + steps]))
    eye = np.eye(k1.shape[-1])
    k2 = am @ (eye + 0.5 * k1)
    k3 = am @ (eye + 0.5 * k2)
    k4 = a1 @ (eye + k3)
    return eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _step_times(stops: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start times, lengths and landing flags of RK4 steps no larger than dt
    from the first of the increasing ``stops`` to the last: each segment
    between two stops takes equal steps, and the last step of a segment
    lands on its stop.  The starts are j * step + a per segment [a, b), as
    ``np.linspace(a, b, count, endpoint=False)`` forms them."""
    counts = np.maximum(1, np.ceil(np.diff(stops) / dt)).astype(int)
    steps = np.repeat(np.diff(stops) / counts, counts)
    ends = np.cumsum(counts)
    starts = ((np.arange(steps.size) - np.repeat(ends - counts, counts)) * steps
              + np.repeat(stops[:-1], counts))
    lands = np.zeros(steps.size, dtype=bool)
    lands[ends - 1] = True
    return starts, steps, lands


def _landed_products(maps: np.ndarray, lands: np.ndarray,
                     u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The products maps[k] ... maps[0] @ u at each step k where ``lands`` is
    set, stacked, and the product over all of ``maps``.

    The maps are folded into R rows of W = ceil(sqrt(count)) steps, padded
    with identities: W - 1 batched products form the prefix products of every
    row, R small products carry U from row to row, and one batched product
    forms U at the landing steps.  Only the association of the product
    differs from one ``u = step @ u`` per step.
    """
    count, n = maps.shape[0], maps.shape[-1]
    width = math.isqrt(count - 1) + 1
    rows = -(-count // width)
    prefix = np.empty((rows * width, n, n), dtype=complex)
    prefix[:count] = maps
    prefix[count:] = np.eye(n)
    prefix = prefix.reshape(rows, width, n, n)
    for w in range(1, width):
        prefix[:, w] = prefix[:, w] @ prefix[:, w - 1]
    carry = np.empty((rows, n, n), dtype=complex)
    for r in range(rows):
        carry[r] = u
        u = prefix[r, -1] @ u
    landed = np.flatnonzero(lands)
    return prefix.reshape(-1, n, n)[landed] @ carry[landed // width], u


def _propagators(h_of, n: int, stops: np.ndarray, dt: float) -> tuple[np.ndarray, int]:
    """RK4 propagators U(s) from 0 to each of the increasing ``stops``
    (the first is 0), with the steps of ``_step_times``, and the number of
    those steps.

    The RK4 maps are built and multiplied in blocks of ``RK4_BLOCK`` steps,
    each folded by ``_landed_products``.
    """
    starts, steps, lands = _step_times(stops, dt)
    u = np.eye(n, dtype=complex)
    out = [u[None]]
    for lo in range(0, steps.size, RK4_BLOCK):
        block = slice(lo, lo + RK4_BLOCK)
        landed, u = _landed_products(_rk4_maps(h_of, starts[block], steps[block]),
                                     lands[block], u)
        out.append(landed)
    return np.concatenate(out), steps.size


def integrate_tdse(drive: Drive, psi0, t_final: float, dt: float,
                   record_points: int = 1201) -> Trajectory:
    """Lab-frame amplitudes of the driven single-excitation model on the
    uniform grid ``np.linspace(0, t_final, record_points)``.

    The interaction-picture Hamiltonian repeats with the drive period T
    (``t_final`` itself when the drive has no period shorter than it).  One
    fixed-step RK4 pass over [0, T] gives the propagator U(tau) at every
    in-period offset of the grid and U(T); each time t = m T + tau then gets
    psi(t) = U(tau) U(T)^m psi0, keeping only the powers of the cycles m the
    grid reaches, at most ``MAX_CYCLES``.  The pass multiplies its RK4 maps
    in blocks of ``RK4_BLOCK`` steps, each folded into a few batched products
    (see ``_landed_products``), so its memory grows neither with T / dt nor
    with t_final / T.  The step must resolve the fastest drive: dt <= 2 pi /
    (200 nu_max).  The initial state is checked as ``evolve`` checks it.
    One INFO line logs the steps, blocks, offsets and the norm drift.
    """
    if dt > _max_step(drive, 200.0):
        raise StepTooLarge(f"dt={dt} too coarse for drive frequency {drive.max_frequency}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt={dt} must be finite and > 0")
    if not 0.0 < t_final < math.inf or record_points < 2:
        raise ValueError("need a finite t_final > 0 and at least 2 record points")
    n = drive.n_modes
    psi = checked_state(psi0, n)
    period = drive.period()
    if period is None or period >= t_final:
        period = t_final
    if not t_final / period <= MAX_CYCLES:
        raise OutOfRange(f"t_final spans {t_final / period:.3g} drive periods, over {MAX_CYCLES}")
    times = np.linspace(0.0, t_final, record_points)
    # Rounding the phase after the divmod merges offsets that differ only by
    # the rounding of the grid; a phase that rounds to 1 (t = m T - 1e-17)
    # starts the next cycle.
    cycles, phase = np.divmod(times / period, 1.0)
    phase = np.round(phase, 12)
    wrap = phase == 1.0
    cycles[wrap] += 1.0
    phase[wrap] = 0.0
    offsets, which = np.unique(phase, return_inverse=True)
    u, count = _propagators(drive.hamiltonian, n, np.append(offsets, 1.0) * period, dt)
    reached, cycle = np.unique(cycles.astype(int), return_inverse=True)
    powers = [psi]
    for gap in np.diff(reached).tolist():
        for _ in range(gap):
            psi = u[-1] @ psi
        powers.append(psi)
    states = np.einsum("tab,tb->ta", u[which], np.asarray(powers)[cycle])
    drift = abs(float(np.linalg.norm(states[-1])) - 1.0)
    log.info("integrate_tdse: %d modes, %d RK4 steps per period in %d blocks of <=%d, "
             "%d in-period offsets, norm drift %.3g", n, count, -(-count // RK4_BLOCK),
             RK4_BLOCK, offsets.size, drift)
    if not drift <= 1e-8:
        raise ValueError(f"norm drift {drift:.2e} exceeds 1e-8; reduce dt")

    amplitudes = drive.to_lab_frame(times, states)
    populations = np.abs(amplitudes) ** 2
    for arr in (times, amplitudes, populations):
        arr.setflags(write=False)
    return Trajectory(times, populations, drive.spec.labels, amplitudes, None)


def compare_effective(drive: CouplerDrive, t_final: float = math.pi) -> float:
    """Max population deviation between the lab-frame drive and the network
    its couplers synthesise, ``drive.spec``, both started on the first mode,
    over one chiral cycle (or up to ``t_final``).

    Drive and spec share the base-hopping units, so the spec runs through
    ``simulate`` on the lab times.  The drive is integrated with steps
    dt = 2 pi / (800 nu_max), nu_max floored as ``integrate_tdse`` floors it.
    Other drives are refused: a bus drive's spec is its node-bus star.
    """
    if not isinstance(drive, CouplerDrive):
        raise TypeError(f"compare_effective takes a CouplerDrive, not {type(drive).__name__}")
    lab = integrate_tdse(drive, basis_state(drive.n_modes, 0), t_final, _max_step(drive, 800.0))
    eff = simulate(drive.spec, occupation(drive.n_modes, 1), lab.times)
    return float(np.max(np.abs(lab.populations - eff.populations)))


def rwa_deviation_scan(ratios) -> list[tuple[float, float]]:
    """Deviation of the coupler scheme (unit coupling) from the ideal
    four-node chiral model as a function of the drive-to-coupling ratio."""
    ratios = [float(r) for r in ratios]
    for ratio in ratios:
        if not 0 < ratio < math.inf:
            raise ConfigError(f"drive ratio {ratio} must be finite and positive")
    return [(ratio, compare_effective(tunable_coupler_asgf4(ratio))) for ratio in ratios]
