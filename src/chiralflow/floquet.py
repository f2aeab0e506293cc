"""Driven lab-frame models that synthesise the chiral ring couplings.

Two schemes are covered: parametrically modulated couplers (one drive per
link, at the link detuning) and a common bus resonator with modulated node
frequencies, where the effective hoppings follow a Bessel-function series.
Lab-frame integration is done in the exact interaction picture of the
time-dependent diagonal, which leaves populations untouched and keeps the
integrator error independent of the large carrier frequencies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .dynamics import Trajectory, basis_state, evolve
from .errors import ConfigError, DimensionMismatch, OutOfRange, StepTooLarge
from .hilbert import build_hamiltonian, enumerate_basis
from .models import NetworkSpec, asgf

TUNABLE_COUPLER = "tunable_coupler"
BUS_RESONATOR = "bus_resonator"


def bessel_j(order: int, x: float) -> float:
    """First-kind Bessel function, |x| <= 50."""
    if order < 0:
        raise OutOfRange("order must be >= 0")
    if abs(x) > 50.0:
        raise OutOfRange("argument outside the supported range |x| <= 50")
    return float(special.jv(order, x))


def first_bessel_zero() -> float:
    """First positive zero of J_0, the drive ratio that removes the static
    bus-mediated coupling."""
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
    nu: float
    phi: float


@dataclass(frozen=True)
class DriveSpec:
    """Lab-frame drive description for one of the two synthesis schemes."""

    scheme: str
    omegas: tuple[float, ...] = ()
    links: tuple[CouplerLink, ...] = ()
    omega_r: float = 0.0
    delta: float = 0.0
    nu: float = 0.0
    phis: tuple[float, ...] = ()
    gs: tuple[float, ...] = ()
    kerr_u: float = 0.0
    base_rate: float = 1.0
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.scheme == TUNABLE_COUPLER:
            for link in self.links:
                detuning = self.omegas[link.j - 1] - self.omegas[link.k - 1]
                if abs(link.nu - detuning) > 1e-9 * max(1.0, abs(detuning)):
                    raise ValueError(
                        f"link ({link.j},{link.k}) drive frequency {link.nu} "
                        f"is not the node detuning {detuning}"
                    )
        elif self.scheme == BUS_RESONATOR:
            if len(self.phis) != len(self.gs):
                raise DimensionMismatch("need one phase per bus coupling")
            if self.nu <= 0:
                raise ValueError("bus modulation frequency must be positive")
            f = self.delta / self.nu
            if abs(f - first_bessel_zero()) > 0.01:
                warnings.warn("bus drive ratio is far from the first Bessel zero",
                              stacklevel=2)
        else:
            raise ValueError(f"unknown drive scheme {self.scheme!r}")

    @property
    def n_modes(self) -> int:
        if self.scheme == TUNABLE_COUPLER:
            return len(self.omegas)
        return len(self.gs) + 1  # nodes plus the bus

    @property
    def max_frequency(self) -> float:
        if self.scheme == TUNABLE_COUPLER:
            return max((abs(link.nu) for link in self.links), default=0.0)
        return self.nu


def tunable_coupler_asgf4(g: float = 1.0, ratio: float = 20.0) -> DriveSpec:
    """Coupler drives that synthesise the perfect four-node chiral network.

    Ring links are driven with phase -pi/2 and strength g, the centre links
    with strength 2g and phase 0, so the rotating-frame model has unit-ring
    hopping phase +pi/2 and centre coupling 2 in units of g.  Node
    frequencies sit on a ladder with all pairwise detunings distinct and the
    smallest equal to ratio * g.
    """
    spacing = (0, 1, 3, 7, 12)  # pairwise-distinct multiples of the base detuning
    omegas = tuple(s * ratio * g for s in spacing)
    links = []
    for j in range(1, 5):
        k = j % 4 + 1
        links.append(CouplerLink(j, k, g, omegas[j - 1] - omegas[k - 1], -math.pi / 2))
    for j in range(1, 5):
        links.append(CouplerLink(j, 5, 2.0 * g, omegas[j - 1] - omegas[4], 0.0))
    return DriveSpec(
        scheme=TUNABLE_COUPLER,
        omegas=omegas,
        links=tuple(links),
        base_rate=g,
        labels=("node_1", "node_2", "node_3", "node_4", "aux_1"),
    )


def bus_resonator_ring(n: int = 4, g: float = 1.0, nu: float = 40.0,
                       f: float | None = None) -> DriveSpec:
    """Bus scheme with node phases phi_j = j pi/2: equal-strength NN hops,
    no next-nearest-neighbour coupling."""
    if f is None:
        f = first_bessel_zero()
    return DriveSpec(
        scheme=BUS_RESONATOR,
        omega_r=0.0,
        delta=f * nu,
        nu=nu,
        phis=tuple(j * math.pi / 2 for j in range(1, n + 1)),
        gs=(g,) * n,
        base_rate=g,
        labels=tuple(f"node_{j}" for j in range(1, n + 1)) + ("bus",),
    )


def _coupler_hamiltonian_factory(drive: DriveSpec):
    n = drive.n_modes
    rows = np.array([link.j - 1 for link in drive.links], dtype=int)
    cols = np.array([link.k - 1 for link in drive.links], dtype=int)
    gs = np.array([link.g for link in drive.links])
    nus = np.array([link.nu for link in drive.links])
    phis = np.array([link.phi for link in drive.links])

    def h_of(t: float) -> np.ndarray:
        # Interaction picture of the static diagonal: the co-rotating part is
        # g e^{-i phi}, the counter-rotating part oscillates at 2 nu.
        values = gs * (np.exp(1j * (2.0 * nus * t + phis)) + np.exp(-1j * phis))
        h = np.zeros((n, n), dtype=complex)
        h[rows, cols] = values
        h.T[rows, cols] = values.conjugate()
        return h

    return h_of


def _bus_hamiltonian_factory(drive: DriveSpec):
    n_nodes = len(drive.gs)
    n = n_nodes + 1
    f = drive.delta / drive.nu
    gs = np.array(drive.gs)
    phis = np.array(drive.phis)

    def h_of(t: float) -> np.ndarray:
        # Frame of the modulated node frequencies: integral of the detuning
        # Delta cos(nu t - phi_j) turns each bus coupling into a phase.
        phase = f * (np.sin(drive.nu * t - phis) + np.sin(phis))
        values = gs * np.exp(1j * phase)
        h = np.zeros((n, n), dtype=complex)
        h[:n_nodes, n_nodes] = values
        h[n_nodes, :n_nodes] = values.conjugate()
        return h

    return h_of


def integrate_tdse(drive: DriveSpec, psi0, t_final: float, dt: float,
                   record_points: int = 1201) -> Trajectory:
    """Fixed-step 4th-order integration of the driven single-excitation model.

    The step must resolve the fastest drive: dt <= 2 pi / (200 nu_max).
    Amplitudes are reported on a uniform grid of ``record_points`` times.
    """
    nu_max = drive.max_frequency
    if dt > 2.0 * math.pi / (200.0 * max(nu_max, 1e-30)):
        raise StepTooLarge(
            f"dt={dt} too coarse for drive frequency {nu_max}"
        )
    psi = np.asarray(psi0, dtype=complex).copy()
    n = drive.n_modes
    if psi.shape != (n,):
        raise DimensionMismatch(f"state must have length {n}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalised")
    h_of = (_coupler_hamiltonian_factory(drive) if drive.scheme == TUNABLE_COUPLER
            else _bus_hamiltonian_factory(drive))

    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps
    record_every = max(1, n_steps // max(record_points - 1, 1))

    times = [0.0]
    states = [psi.copy()]
    t = 0.0
    for step in range(1, n_steps + 1):
        k1 = -1j * (h_of(t) @ psi)
        k2 = -1j * (h_of(t + 0.5 * dt) @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h_of(t + 0.5 * dt) @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h_of(t + dt) @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * dt
        if step % record_every == 0 or step == n_steps:
            times.append(t)
            states.append(psi.copy())
    drift = abs(float(np.linalg.norm(states[-1])) - 1.0)
    if drift > 1e-8:
        raise ValueError(f"norm drift {drift:.2e} exceeds 1e-8; reduce dt")

    times = np.asarray(times)
    amplitudes = np.asarray(states)
    # Undo the interaction-picture phases so amplitudes are lab-frame.
    if drive.scheme == TUNABLE_COUPLER:
        carrier = np.exp(-1j * np.outer(times, np.asarray(drive.omegas)))
        amplitudes = amplitudes * carrier
    else:
        f = drive.delta / drive.nu
        phis = np.asarray(drive.phis)
        phase = f * (np.sin(drive.nu * times[:, None] - phis[None, :]) + np.sin(phis)[None, :])
        node_part = amplitudes[:, :-1] * np.exp(-1j * phase)
        amplitudes = np.concatenate([node_part, amplitudes[:, -1:]], axis=1)
        amplitudes = amplitudes * np.exp(-1j * drive.omega_r * times)[:, None]
    populations = np.abs(amplitudes) ** 2
    labels = drive.labels or tuple(f"node_{j}" for j in range(1, n + 1))
    for arr in (times, amplitudes, populations):
        arr.setflags(write=False)
    return Trajectory(times, amplitudes, populations, labels)


@dataclass(frozen=True)
class EffectiveComparison:
    """Deviation between the driven model and its static effective model."""

    max_population_deviation: float
    per_node_deviation: tuple[float, ...]
    samples: tuple[tuple[float, float], ...] = field(default=())


def compare_effective(drive: DriveSpec, target: NetworkSpec, psi0=None,
                      t_final: float | None = None, dt: float | None = None) -> EffectiveComparison:
    """Max population deviation between the lab-frame drive and the target
    network over one chiral cycle.

    The target spec is interpreted in units of the drive's base rate.
    """
    if t_final is None:
        t_final = math.pi / drive.base_rate
    if dt is None:
        dt = 2.0 * math.pi / (800.0 * drive.max_frequency)
    n = drive.n_modes
    if psi0 is None:
        psi0 = basis_state(n, 0)
    lab = integrate_tdse(drive, psi0, t_final, dt)
    basis = enumerate_basis(target.n_sites, 1, target.statistics)
    h_eff = build_hamiltonian(target, basis).matrix * drive.base_rate
    n_cmp = min(target.n_sites, n)
    eff = evolve(h_eff, np.asarray(psi0, dtype=complex)[:n_cmp], lab.times)
    diff = np.abs(lab.populations[:, :n_cmp] - eff.populations[:, :n_cmp])
    per_node = tuple(float(x) for x in np.max(diff, axis=0))
    return EffectiveComparison(float(np.max(diff)), per_node)


def rwa_deviation_scan(ratios, g: float = 1.0) -> list[tuple[float, float]]:
    """Deviation of the coupler scheme from the ideal four-node chiral model
    as a function of the drive-to-coupling ratio."""
    ratios = [float(r) for r in ratios]
    for ratio in ratios:
        if not 0 < ratio < math.inf:
            raise ConfigError(f"drive ratio {ratio} must be finite and positive")
    target = asgf(4, 2.0, math.pi / 2)
    out = []
    for ratio in ratios:
        drive = tunable_coupler_asgf4(g=g, ratio=ratio)
        comparison = compare_effective(drive, target)
        out.append((ratio, comparison.max_population_deviation))
    return out
