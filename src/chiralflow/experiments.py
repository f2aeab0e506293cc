"""Reproducible studies: disorder robustness, ladder fidelity and coupling
optimisation, and entangled-state transport on the spin ring.

All randomness is driven by per-sample generators seeded with
``(seed, amplitude_index, sample_index)``, so every sample is fixed by the
seed and its position alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    _first_peak_index,
    average_fidelity,
    basis_state,
    eigendecompose,
    evolve,
    simulate,
)
from .errors import BadInitial, ConfigError, EmptyWindow, NotSpin
from .hilbert import (
    OnSite,
    build_hamiltonian,
    embed_state,
    enumerate_basis,
    occupation,
)
from .models import NetworkSpec, ladder, normalize_phase

log = logging.getLogger(__name__)

# Reference transmon parameters the four-node disorder study is scaled from:
# node frequency 5.6 GHz, base hopping 2*pi*4.29 MHz.  The study itself runs
# in the rotating frame, so only frequency offsets (in units of the hopping)
# enter the dynamics; the ratio converts a fraction of the node frequency
# into those units.
FREQUENCY_TO_HOPPING_RATIO = 5.6e3 / 4.29


def relative_frequency_amplitude(fraction: float) -> float:
    """Frequency-disorder amplitude, as a fraction of the node frequency,
    expressed in hopping units."""
    return fraction * FREQUENCY_TO_HOPPING_RATIO


FREQUENCY = "frequency"
HOPPING_STRENGTH = "hopping_strength"
HOPPING_PHASE = "hopping_phase"
DISORDER_KINDS = (FREQUENCY, HOPPING_STRENGTH, HOPPING_PHASE)


@dataclass(frozen=True)
class DisorderConfig:
    """One disorder family: kind, maximum amplitude, sample count, seed."""

    kind: str
    max_amplitude: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.kind not in DISORDER_KINDS:
            raise ConfigError(f"kind must be one of {DISORDER_KINDS}")
        if self.samples < 1:
            raise ConfigError("need at least one sample")
        _check_amplitude(self.max_amplitude)


def _check_amplitude(amplitude: float) -> None:
    if not 0 <= amplitude < math.inf:
        raise ConfigError(f"disorder amplitude {amplitude} must be finite and >= 0")


@dataclass(frozen=True)
class DisorderPoint:
    amplitude: float
    mean_fidelity: float
    stderr: float
    samples: int


def perturbed_spec(base: NetworkSpec, kind: str, amplitude: float,
                   rng: np.random.Generator) -> NetworkSpec:
    """Draw one disordered copy of a network spec.

    Frequency disorder adds an offset per node, hopping disorder an additive
    amplitude (in base-hopping units) or phase shift per link, each sampled
    uniformly from [-amplitude, amplitude].
    """
    if kind == FREQUENCY:
        offsets = rng.uniform(-amplitude, amplitude, base.n_sites)
        extra = tuple(OnSite(j + 1, float(offsets[j]), 0.0) for j in range(base.n_sites))
        return replace(base, onsite=base.onsite + extra)
    if kind == HOPPING_STRENGTH:
        deltas = rng.uniform(-amplitude, amplitude, len(base.hoppings))
        hops = []
        for hop, d in zip(base.hoppings, deltas):
            amp = hop.amplitude + float(d)
            if amp >= 0:
                hops.append(replace(hop, amplitude=amp))
            else:
                hops.append(replace(hop, amplitude=-amp,
                                    phase=normalize_phase(hop.phase + math.pi)))
        return replace(base, hoppings=tuple(hops))
    if kind == HOPPING_PHASE:
        deltas = rng.uniform(-amplitude, amplitude, len(base.hoppings))
        hops = tuple(replace(hop, phase=normalize_phase(hop.phase + float(d)))
                     for hop, d in zip(base.hoppings, deltas))
        return replace(base, hoppings=hops)
    raise ValueError(f"unknown disorder kind {kind!r}")


def _sample_fidelity(base: NetworkSpec, kind: str, amplitude: float,
                     rng: np.random.Generator, times: np.ndarray) -> float:
    spec = perturbed_spec(base, kind, amplitude, rng)
    traj = simulate(spec, occupation(spec.n_sites, 1), times)
    return average_fidelity(traj, spec.ring_nodes)


def disorder_sweep(base: NetworkSpec, cfg: DisorderConfig, amplitudes=None,
                   times=None) -> list[DisorderPoint]:
    """Mean corner-peak fidelity of the disordered network per amplitude.

    Every sample redraws all perturbations, evolves one chiral cycle and
    records the average over ring nodes of the peak amplitude modulus.
    """
    if amplitudes is None:
        amplitudes = [cfg.max_amplitude]
    if times is None:
        times = np.linspace(0.0, math.pi, 1601)
    amplitudes = [float(a) for a in amplitudes]
    for amplitude in amplitudes:
        _check_amplitude(amplitude)
    points = []
    for a_idx, amplitude in enumerate(amplitudes):
        results = np.array([
            _sample_fidelity(base, cfg.kind, amplitude,
                             np.random.default_rng((cfg.seed, a_idx, sample_idx)), times)
            for sample_idx in range(cfg.samples)
        ])
        mean = float(np.mean(results))
        stderr = float(np.std(results, ddof=1) / math.sqrt(cfg.samples)) if cfg.samples > 1 else 0.0
        points.append(DisorderPoint(amplitude, mean, stderr, cfg.samples))
        log.info("disorder kind=%s amplitude=%.4f mean=%.6f stderr=%.2e",
                 cfg.kind, amplitude, mean, stderr)
    return points


def revival_fidelity(spec: NetworkSpec, start_node: int = 1,
                     window: tuple[float, float] = (0.5, 1.7),
                     points: int = 4001) -> tuple[float, float]:
    """Return-state fidelity and cycle period of a network.

    The cycle period is located as the maximum of |<psi0|psi(t)>|^2 inside a
    window around 2*pi over the slowest populated frequency, then refined on
    the exact spectral expression.
    """
    basis = enumerate_basis(spec.n_sites, 1, spec.statistics)
    h = build_hamiltonian(spec, basis)
    system = eigendecompose(h)
    psi0 = basis_state(spec.n_sites, start_node - 1)
    weights = np.abs(system.eigenvectors.conj().T @ psi0) ** 2
    scale = max(1.0, float(np.max(np.abs(system.eigenvalues))))
    populated = (weights > 1e-8) & (np.abs(system.eigenvalues) > 1e-9 * scale)
    if not np.any(populated):
        return 1.0, 0.0  # stationary state: trivially revived at all times
    x_min = float(np.min(np.abs(system.eigenvalues[populated])))
    t_est = 2.0 * math.pi / x_min

    def overlap_sq(t):
        phases = np.exp(-1j * np.outer(np.atleast_1d(t), system.eigenvalues))
        return np.abs(phases @ weights) ** 2

    grid = np.linspace(window[0] * t_est, window[1] * t_est, points)
    values = overlap_sq(grid)
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, points - 1)]
    for _ in range(40):  # golden-section polish on the smooth overlap
        m1 = lo + 0.381966011 * (hi - lo)
        m2 = hi - 0.381966011 * (hi - lo)
        if overlap_sq(m1)[0] >= overlap_sq(m2)[0]:
            hi = m2
        else:
            lo = m1
    period = 0.5 * (lo + hi)
    return float(overlap_sq(period)[0]), float(period)


@dataclass(frozen=True)
class LadderPoint:
    n_copies: int
    fidelity: float
    period: float
    profile: tuple[float, ...]


def ladder_fidelity_curve(n_values, profile=None) -> list[LadderPoint]:
    """Cycle fidelity of the ladder for each size.

    ``profile`` may be None (uniform coupling 2), a list used for every size,
    or a mapping from size to profile (e.g. optimiser output).
    """
    points = []
    for n in n_values:
        if profile is None:
            prof = [2.0]
        elif isinstance(profile, dict):
            prof = list(profile[n])
        else:
            prof = list(profile)
        spec = ladder(n, prof)
        fidelity, period = revival_fidelity(spec)
        full = tuple(prof * ((n + 1) // 2) if len(prof) == 1 else prof)
        points.append(LadderPoint(n, fidelity, period, full))
        log.info("ladder n=%d fidelity=%.6f period=%.4f", n, fidelity, period)
    return points


@dataclass(frozen=True)
class OptimizationResult:
    beta_profile: tuple[float, ...]
    fidelity: float
    period: float
    iterations: int
    monotone: bool
    budget_exhausted: bool


def _profile_from_increments(increments: np.ndarray) -> list[float]:
    profile = [2.0]
    for x in increments:
        profile.append(profile[-1] + math.exp(x))
    return profile


def optimize_ladder(n_copies: int, budget: int | None = None, seed: int = 0,
                    restarts: int = 5) -> OptimizationResult:
    """Maximise the ladder cycle fidelity over a monotone coupling profile.

    The end cells keep coupling 2; inner couplings are parametrised through
    log-increments so every candidate satisfies 2 = b_0 < b_1 < ... < b_m.
    Derivative-free coordinate descent with shrinking steps and seeded
    restarts; deterministic for a fixed seed.
    """
    if n_copies < 1:
        raise ConfigError("need at least one cell")
    n_free = (n_copies + 1) // 2 - 1
    if n_free == 0:
        spec = ladder(n_copies, [2.0])
        fidelity, period = revival_fidelity(spec)
        return OptimizationResult((2.0,), fidelity, period, 1, True, False)
    if budget is None:
        budget = 600 * n_free
    if budget < 50 * n_free:
        raise ConfigError(f"budget must be at least {50 * n_free} for {n_free} parameters")

    evaluations = 0
    exhausted = False

    def objective(increments: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        profile = _profile_from_increments(increments)
        fidelity, _ = revival_fidelity(ladder(n_copies, profile), points=2001)
        return fidelity

    rng = np.random.default_rng(seed)
    best_x = None
    best_f = -1.0
    for restart in range(restarts):
        if restart == 0:
            x = np.full(n_free, math.log(0.3))
        else:
            x = np.log(rng.uniform(0.05, 1.5, n_free))
        if evaluations >= budget:
            exhausted = True
            break
        f = objective(x)
        step = 0.8
        while step > 1e-3:
            improved = False
            for i in range(n_free):
                for direction in (+1.0, -1.0):
                    if evaluations >= budget:
                        exhausted = True
                        break
                    trial = x.copy()
                    trial[i] += direction * step
                    f_trial = objective(trial)
                    if f_trial > f + 1e-12:
                        x, f = trial, f_trial
                        improved = True
                if exhausted:
                    break
            if exhausted:
                break
            if not improved:
                step *= 0.5
        if f > best_f:
            best_f, best_x = f, x.copy()
        log.info("optimize n=%d restart=%d fidelity=%.6f evals=%d",
                 n_copies, restart, f, evaluations)
        if exhausted:
            break
    profile = _profile_from_increments(best_x)
    fidelity, period = revival_fidelity(ladder(n_copies, profile))
    monotone = all(b2 > b1 for b1, b2 in zip(profile, profile[1:]))
    return OptimizationResult(tuple(profile), fidelity, period,
                              evaluations, monotone, exhausted)


PAIRS = ((1, 2), (2, 3), (3, 1))
PSI_PLUS = "psi_plus"
PHI_PLUS = "phi_plus"


@dataclass(frozen=True)
class BellTransportResult:
    initial: str
    times: np.ndarray
    psi_populations: np.ndarray  # (3, n_times), pair order PAIRS
    phi_populations: np.ndarray
    concurrence: np.ndarray
    pairs: tuple[tuple[int, int], ...]


def bell_transport(spec: NetworkSpec, initial: str, times=None) -> BellTransportResult:
    """Evolve a Bell pair on sites 1,2 of a three-site spin ring.

    The one-excitation Bell state (|up down> + |down up>)/sqrt(2) lives in a
    single number sector; the parity Bell state (|down down> + |up up>)/sqrt(2)
    superposes the empty and doubly-excited sectors, whose relative phase is
    retained.  Both Bell projector families and the pairwise concurrence are
    tracked for every pair.
    """
    if not spec.statistics.is_spin:
        raise NotSpin("Bell transport runs on spin networks")
    if spec.n_sites != 3:
        raise BadInitial("Bell transport is defined for the three-site ring")
    if initial not in (PSI_PLUS, PHI_PLUS):
        raise BadInitial(f"unknown initial state {initial!r}")
    if times is None:
        times = np.linspace(0.0, 3.0 * 2.0 * math.pi / math.sqrt(3.0), 1801)
    times = np.asarray(times, dtype=float)

    sector_bases = {k: enumerate_basis(3, k, spec.statistics) for k in (0, 1, 2)}
    sector_h = {k: build_hamiltonian(spec, b) for k, b in sector_bases.items()}

    full = np.zeros((times.size, 8), dtype=complex)
    if initial == PSI_PLUS:
        basis = sector_bases[1]
        psi0 = np.zeros(3, dtype=complex)
        psi0[basis.state_index(occupation(3, 1))] = 1.0 / math.sqrt(2.0)
        psi0[basis.state_index(occupation(3, 2))] = 1.0 / math.sqrt(2.0)
        traj = evolve(sector_h[1], psi0, times, basis=basis)
        for i in range(times.size):
            full[i] += embed_state(traj.amplitudes[i], basis)
    else:
        basis2 = sector_bases[2]
        traj2 = evolve(sector_h[2], basis2.unit_vector(occupation(3, 1, 2)), times, basis=basis2)
        basis0 = sector_bases[0]
        vac = embed_state(np.array([1.0 + 0.0j]), basis0)
        for i in range(times.size):
            full[i] += vac / math.sqrt(2.0)
            full[i] += embed_state(traj2.amplitudes[i] / math.sqrt(2.0), basis2)

    psi_pop = np.zeros((3, times.size))
    phi_pop = np.zeros((3, times.size))
    conc = np.zeros((3, times.size))
    basis1 = sector_bases[1]
    basis2 = sector_bases[2]
    basis0 = sector_bases[0]
    vac_full = embed_state(np.array([1.0 + 0.0j]), basis0)
    for p, (j, k) in enumerate(PAIRS):
        up_j = embed_state(basis1.unit_vector(occupation(3, j)), basis1)
        up_k = embed_state(basis1.unit_vector(occupation(3, k)), basis1)
        psi_bra = (up_j + up_k) / math.sqrt(2.0)
        pair_full = embed_state(basis2.unit_vector(occupation(3, j, k)), basis2)
        phi_bra = (vac_full + pair_full) / math.sqrt(2.0)
        psi_pop[p] = np.abs(full @ psi_bra.conj()) ** 2
        phi_pop[p] = np.abs(full @ phi_bra.conj()) ** 2
        for i in range(times.size):
            conc[p, i] = concurrence(full[i], (j, k))

    for arr in (psi_pop, phi_pop, conc):
        arr.setflags(write=False)
    return BellTransportResult(initial, times, psi_pop, phi_pop, conc, PAIRS)


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence(state, pair: tuple[int, int]) -> float:
    """Two-site concurrence of a pure multi-qubit state.

    ``state`` is a full tensor-product vector (site 1 is the most significant
    qubit); the pair is traced out and the standard spin-flip construction
    lambda_1 - lambda_2 - lambda_3 - lambda_4 is evaluated on the reduced
    density matrix.
    """
    state = np.asarray(state, dtype=complex)
    n = int(round(math.log2(state.size)))
    if 2 ** n != state.size or n < 2:
        raise NotSpin("state must be a full vector over at least two qubits")
    j, k = pair
    if j == k or not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"invalid pair {pair} for {n} qubits")
    tensor = state.reshape((2,) * n)
    tensor = np.moveaxis(tensor, (j - 1, k - 1), (0, 1))
    m = tensor.reshape(4, -1)
    rho = m @ m.conj().T
    # The flip-spectrum values are the singular values of
    # sqrt(rho) (Y x Y) sqrt(rho*), which avoids squaring; rank-deficient
    # directions are zeroed before the root so they do not amplify noise.
    vals, vecs = np.linalg.eigh(rho)
    vals = np.where(vals > 1e-12 * max(float(vals[-1]), 1e-300), vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    lambdas = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]))


def first_peak_time(times: np.ndarray, trace: np.ndarray, threshold: float = 0.5) -> float:
    """Time of the first local maximum above threshold times the global max."""
    top = float(np.max(trace))
    if top <= 0:
        raise EmptyWindow("trace has no peaks")
    idx = _first_peak_index(trace, threshold * top)
    if idx is None:
        raise EmptyWindow("trace has no peaks above the threshold")
    return float(times[idx])
