"""Driven lab-frame models that synthesise the chiral ring couplings.

Two schemes are covered: parametrically modulated couplers (``CouplerDrive``,
one drive per link, at the detuning of its nodes) and a common bus resonator
with modulated node frequencies (``BusDrive``), where the effective hoppings
follow a Bessel-function series.  Each drive type supplies its
interaction-picture Hamiltonian, its period and the map back to the lab frame,
all in base-hopping units, as the target networks are.
Lab-frame integration is done in the exact interaction picture of the
time-dependent diagonal, which leaves populations untouched and keeps the
integrator error independent of the large carrier frequencies.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, basis_state, simulate
from .errors import ConfigError, DimensionMismatch, OutOfRange, StepTooLarge
from .hilbert import occupation
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


def bessel_j(order: int, x: float) -> float:
    """First-kind Bessel function, |x| <= 50."""
    if order < 0:
        raise OutOfRange("order must be >= 0")
    if abs(x) > 50.0:
        raise OutOfRange("argument outside the supported range |x| <= 50")
    from scipy import special  # imported here: it would double CLI start-up

    return float(special.jv(order, x))


def first_bessel_zero() -> float:
    """First positive zero of J_0, the drive ratio that removes the static
    bus-mediated coupling."""
    from scipy import special  # imported here: it would double CLI start-up

    return float(special.jn_zeros(0, 1)[0])


def bus_effective_coupling(g_j: float, g_k: float, nu: float, f: float,
                           phi_j: float, phi_k: float) -> complex:
    """Effective hopping between two bus-coupled nodes with modulated
    frequencies: (g_j g_k / nu) * beta_jk * e^{i pi/2} with
    beta_jk = sum_n 2 J_n(f)^2 sin(n (phi_k - phi_j)) / n.

    The series is truncated once its envelope drops below 1e-12; a warning
    is emitted when f is not close to the first Bessel zero, because the
    leftover static coupling then competes with the modulated one.
    """
    if abs(f - first_bessel_zero()) > 0.01:
        warnings.warn("drive ratio f is far from the first Bessel zero; "
                      "a static bus coupling survives", stacklevel=2)
    beta = 0.0
    n = 1
    while n < 200:
        envelope = 2.0 * bessel_j(n, f) ** 2 / n
        if envelope < 1e-12:
            break
        beta += envelope * math.sin(n * (phi_k - phi_j))
        n += 1
    return (g_j * g_k / nu) * beta * 1j


@dataclass(frozen=True)
class CouplerLink:
    """One parametrically driven link: 2 g cos(nu t + phi) on (j, k)."""

    j: int
    k: int
    g: float
    phi: float


def _require_finite(numbers) -> None:
    if not all(math.isfinite(x) for x in numbers):
        raise ValueError("drive parameters must be finite")


@dataclass(frozen=True)
class CouplerDrive:
    """Parametrically driven couplers between nodes at static frequencies
    ``omegas``; link l is driven at the detuning nu_l = omega_j - omega_k of
    its two nodes."""

    omegas: tuple[float, ...]
    links: tuple[CouplerLink, ...] = ()

    def __post_init__(self):
        numbers = list(self.omegas)
        for link in self.links:
            numbers += [link.j, link.k, link.g, link.phi]
        _require_finite(numbers)
        n = len(self.omegas)
        for link in self.links:
            if link.j == link.k or not (1 <= link.j <= n and 1 <= link.k <= n):
                raise ValueError(f"link ({link.j},{link.k}) needs two distinct nodes in 1..{n}")

    @property
    def n_modes(self) -> int:
        return len(self.omegas)

    @functools.cached_property
    def detunings(self) -> tuple[float, ...]:
        """The drive frequency nu_l of each link."""
        return tuple(self.omegas[link.j - 1] - self.omegas[link.k - 1] for link in self.links)

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

    def hamiltonian(self, t) -> np.ndarray:
        """Interaction-picture Hamiltonian at each time of ``t`` (stacked over
        its shape).  In the frame of the static diagonal the co-rotating part
        of a link is g e^{-i phi}, the counter-rotating part oscillates at
        2 nu."""
        rows = np.array([link.j - 1 for link in self.links], dtype=int)
        cols = np.array([link.k - 1 for link in self.links], dtype=int)
        gs = np.array([link.g for link in self.links])
        nus = np.array(self.detunings)
        phis = np.array([link.phi for link in self.links])
        t = np.asarray(t, dtype=float)[..., None]
        values = gs * (np.exp(1j * (2.0 * nus * t + phis)) + np.exp(-1j * phis))
        h = np.zeros(t.shape[:-1] + (self.n_modes, self.n_modes), dtype=complex)
        h[..., rows, cols] = values
        h[..., cols, rows] = values.conjugate()
        return h

    def to_lab_frame(self, times: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
        """Undo the interaction-picture phases of a (times, modes) amplitude array."""
        return amplitudes * np.exp(-1j * np.outer(times, np.asarray(self.omegas)))


@dataclass(frozen=True)
class BusDrive:
    """Nodes coupled with strengths ``gs`` to a common bus, their frequencies
    modulated about the bus's as delta cos(nu t - phi_j); the lab frame
    rotates with the bus."""

    nu: float
    delta: float
    phis: tuple[float, ...]
    gs: tuple[float, ...]

    def __post_init__(self):
        _require_finite([self.nu, self.delta, *self.phis, *self.gs])
        if len(self.phis) != len(self.gs):
            raise DimensionMismatch("need one phase per bus coupling")
        if self.nu <= 0:
            raise ValueError("bus modulation frequency must be positive")
        if abs(self.delta / self.nu - first_bessel_zero()) > 0.01:
            warnings.warn("bus drive ratio is far from the first Bessel zero",
                          stacklevel=2)

    @property
    def n_modes(self) -> int:
        return len(self.gs) + 1  # nodes plus the bus

    @property
    def max_frequency(self) -> float:
        return self.nu

    def period(self) -> float:
        """Period of the interaction-picture Hamiltonian, 2 pi / nu."""
        return 2.0 * math.pi / self.nu

    def _node_phases(self, t: np.ndarray) -> np.ndarray:
        # Frame of the modulated node frequencies: the integral of the
        # detuning delta cos(nu t - phi_j) turns each bus coupling into a phase.
        phis = np.asarray(self.phis)
        return self.delta / self.nu * (np.sin(self.nu * t - phis) + np.sin(phis))

    def hamiltonian(self, t) -> np.ndarray:
        """Interaction-picture Hamiltonian at each time of ``t`` (stacked over
        its shape); the bus is the last mode."""
        n_nodes = len(self.gs)
        t = np.asarray(t, dtype=float)[..., None]
        values = np.asarray(self.gs) * np.exp(1j * self._node_phases(t))
        h = np.zeros(t.shape[:-1] + (n_nodes + 1, n_nodes + 1), dtype=complex)
        h[..., :n_nodes, n_nodes] = values
        h[..., n_nodes, :n_nodes] = values.conjugate()
        return h

    def to_lab_frame(self, times: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
        """Undo the interaction-picture phases of a (times, modes) amplitude array."""
        node_part = amplitudes[:, :-1] * np.exp(-1j * self._node_phases(times[:, None]))
        return np.concatenate([node_part, amplitudes[:, -1:]], axis=1)


def tunable_coupler_asgf4(ratio: float = 20.0) -> CouplerDrive:
    """Coupler drives that synthesise the perfect four-node chiral network.

    Ring links are driven with phase -pi/2 and strength 1, the centre links
    with strength 2 and phase 0, so the rotating-frame model has unit ring
    hopping with phase +pi/2 and centre coupling 2.  Node frequencies sit on
    a ladder with all pairwise detunings distinct and the smallest equal to
    ``ratio``.
    """
    spacing = (0, 1, 3, 7, 12)  # pairwise-distinct multiples of the base detuning
    omegas = tuple(s * ratio for s in spacing)
    links = [CouplerLink(j, j % 4 + 1, 1.0, -math.pi / 2) for j in range(1, 5)]
    links += [CouplerLink(j, 5, 2.0, 0.0) for j in range(1, 5)]
    return CouplerDrive(omegas=omegas, links=tuple(links))


def bus_resonator_ring(n: int = 4, nu: float = 40.0) -> BusDrive:
    """Bus scheme with unit couplings and node phases phi_j = j pi/2:
    equal-strength NN hops, no next-nearest-neighbour coupling.  The drive
    ratio delta / nu is the first Bessel zero, which removes the static bus
    coupling."""
    return BusDrive(nu=nu, delta=first_bessel_zero() * nu, gs=(1.0,) * n,
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


def integrate_tdse(drive: CouplerDrive | BusDrive, psi0, t_final: float, dt: float,
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
    (200 nu_max).  One INFO line logs the steps, blocks, offsets and the
    norm drift.
    """
    nu_max = drive.max_frequency
    if dt > 2.0 * math.pi / (200.0 * max(nu_max, 1e-30)):
        raise StepTooLarge(
            f"dt={dt} too coarse for drive frequency {nu_max}"
        )
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt={dt} must be finite and > 0")
    if not 0.0 < t_final < math.inf or record_points < 2:
        raise ValueError("need a finite t_final > 0 and at least 2 record points")
    psi = np.asarray(psi0, dtype=complex)
    n = drive.n_modes
    if psi.shape != (n,):
        raise DimensionMismatch(f"state must have length {n}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalised")
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
    if drift > 1e-8:
        raise ValueError(f"norm drift {drift:.2e} exceeds 1e-8; reduce dt")

    amplitudes = drive.to_lab_frame(times, states)
    populations = np.abs(amplitudes) ** 2
    labels = tuple(f"node_{j}" for j in range(1, n + 1))
    for arr in (times, amplitudes, populations):
        arr.setflags(write=False)
    return Trajectory(times, populations, labels, amplitudes, None)


def compare_effective(drive: CouplerDrive | BusDrive, target: NetworkSpec,
                      t_final: float = math.pi) -> float:
    """Max population deviation between the lab-frame drive and the target
    network, both started on the first mode, over one chiral cycle (or up to
    ``t_final``).

    Drive and target share the base-hopping units, so the target runs
    through ``simulate`` on the lab times.  The drive is integrated with
    steps dt = 2 pi / (800 nu_max).
    """
    dt = 2.0 * math.pi / (800.0 * drive.max_frequency)
    lab = integrate_tdse(drive, basis_state(drive.n_modes, 0), t_final, dt)
    eff = simulate(target, occupation(target.n_sites, 1), lab.times)
    n_cmp = min(target.n_sites, drive.n_modes)
    diff = np.abs(lab.populations[:, :n_cmp] - eff.populations[:, :n_cmp])
    return float(np.max(diff))


def rwa_deviation_scan(ratios) -> list[tuple[float, float]]:
    """Deviation of the coupler scheme (unit coupling) from the ideal
    four-node chiral model as a function of the drive-to-coupling ratio."""
    ratios = [float(r) for r in ratios]
    for ratio in ratios:
        if not 0 < ratio < math.inf:
            raise ConfigError(f"drive ratio {ratio} must be finite and positive")
    target = asgf(4, 2.0, math.pi / 2)
    out = []
    for ratio in ratios:
        drive = tunable_coupler_asgf4(ratio=ratio)
        out.append((ratio, compare_effective(drive, target)))
    return out
