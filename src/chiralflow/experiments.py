"""Reproducible studies: disorder robustness, ladder fidelity and coupling
optimisation, and entangled-state transport on the spin ring.

The disorder sweep draws from one generator per amplitude, seeded with
``(seed, amplitude_index)``: sample s takes the next block of doubles of that
stream, so every sample is fixed by the seed, the amplitude index and its own
position alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import DISORDER_KINDS
from .dynamics import (
    _eigen_phase_modes,
    _populations,
    _uniform_phases,
    average_fidelity,
    eigendecompose,
    evolve,
    window_peaks,
)
from .errors import BadInitial, ConfigError, NotSpin
from .hilbert import (
    HermitianMatrix,
    Hopping,
    OnSite,
    _coefficients,
    _fill,
    _spec_pattern,
    _spec_terms,
    build_hamiltonian,
    embedding_indices,
    enumerate_basis,
    full_space_index,
    occupation,
)
from .models import NetworkSpec, ladder, normalize_phases

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


FREQUENCY, HOPPING_STRENGTH, HOPPING_PHASE = DISORDER_KINDS


@dataclass(frozen=True)
class DisorderConfig:
    """One disorder family: kind, sample count, seed."""

    kind: str
    samples: int
    seed: int

    def __post_init__(self):
        if self.kind not in DISORDER_KINDS:
            raise ConfigError(f"kind must be one of {DISORDER_KINDS}")
        if self.samples < 1:
            raise ConfigError("need at least one sample")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DisorderPoint:
    amplitude: float
    mean_fidelity: float
    stderr: float
    samples: int


def _draw(base: NetworkSpec, kind: str, amplitude: float, rng: np.random.Generator,
          count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` disordered copies of ``base``, drawn one after another from
    ``rng`` as ``count`` calls of ``perturbed_spec`` on it would draw them, as
    arrays: hopping amplitudes and phases of shape (count, n_hoppings) and
    on-site (delta_omega, kerr_u) of shape (count, n_terms, 2), the base's
    terms before the drawn ones.

    A strength that crosses zero keeps its modulus and gains pi of phase, and
    every phase is normalised as ``NetworkSpec`` normalises it.
    """
    if kind not in DISORDER_KINDS:
        raise ValueError(f"unknown disorder kind {kind!r}")
    amplitudes, phases, terms = _spec_terms(base)
    size = base.n_sites if kind == FREQUENCY else amplitudes.size
    amplitude += 0.0  # -0 is 0: uniform(0, -0) would refuse its interval
    deltas = rng.uniform(-amplitude, amplitude, (count, size))
    amplitudes = np.broadcast_to(amplitudes, (count, amplitudes.size))
    phases = np.broadcast_to(phases, (count, phases.size))
    terms = np.broadcast_to(terms, (count,) + terms.shape)
    if kind == FREQUENCY:
        terms = np.concatenate([terms, np.stack([deltas, np.zeros_like(deltas)], axis=-1)], axis=1)
    elif kind == HOPPING_STRENGTH:
        amplitudes = amplitudes + deltas
        kept = amplitudes >= 0
        amplitudes = np.where(kept, amplitudes, -amplitudes)
        phases = np.where(kept, phases, phases + math.pi)
    else:
        phases = phases + deltas
    return amplitudes, normalize_phases(phases), terms


def perturbed_spec(base: NetworkSpec, kind: str, amplitude: float,
                   rng: np.random.Generator) -> NetworkSpec:
    """Draw one disordered copy of a network spec.

    Frequency disorder adds an offset per node, hopping disorder an additive
    amplitude (in base-hopping units) or phase shift per link, each sampled
    uniformly from [-amplitude, amplitude].  A strength that crosses zero
    keeps its modulus and gains pi of phase.
    """
    amplitudes, phases, terms = (rows[0].tolist() for rows in _draw(base, kind, amplitude, rng, 1))
    drawn = range(1, base.n_sites + 1) if kind == FREQUENCY else ()
    sites = [term.j for term in base.onsite] + list(drawn)
    return replace(base,
                   hoppings=tuple(Hopping(hop.j, hop.k, amp, phase) for hop, amp, phase
                                  in zip(base.hoppings, amplitudes, phases)),
                   onsite=tuple(OnSite(j, delta, kerr) for j, (delta, kerr) in zip(sites, terms)))


# The largest phase W h that one step h of the sweep's scan of [0, pi] may
# span, W a bound on the spectral width (see ``_scan_points``): 1 gives the
# default study 27-42 points, where no node needs bisection.  In-process
# passes of the default study (2-vCPU host, one BLAS thread, best of 7
# interleaved) took 0.105 s at 0.3 (85-136 points), 0.062 s at 1 and
# 0.051 s at 2 (14-22 points); criterion 9's frequency row (amplitude
# 391.6, 200 samples, scans of 8287, 2487 and 1244 points) took 0.43,
# 0.33 and 0.23 s.  At 30 (84 points) that row ran out of bisection
# intervals, and its certificates (up to 9.4e-7) said so.
_SCAN_PHASE = 1.0
# The longest scan: W = 2e4 would need 62 833 points.  Beyond it the
# search certifies the maximum by bisecting more intervals.
_SCAN_POINTS_MAX = 2**16
# Amplitudes (samples times scan points times states) of one chunk: the
# samples drawn, assembled, diagonalised, scanned and searched at once,
# drawn as one array from the amplitude's stream, so the draws do not
# depend on the chunk.  On the four-node ring a sample takes 8-11 kB at
# 27-42 points (tracemalloc), so a chunk of 2^15 (156 samples at 42 points,
# 242 at 27) takes a 200-sample row of the default study whole up to 32
# points and in two chunks beyond, 15 chunks in all (one per clean row),
# and peaks near 2 MB.  Each chunk has a fixed cost of about 1 ms:
# in-process passes of the default study (2-vCPU host, one BLAS thread,
# best of 15, 8 interleaved processes) took 50 ms at 2^14 (24 chunks),
# 48 ms at 2^15 and 46 ms at 2^16 (12), but peak RSS rose 1.0 and 1.3 MB
# over 2^14, and ``bench/run.py`` read 1.5 MB (3.4%) more at 2^16.  Long
# scans still take at least ``_CHUNK_MIN_SAMPLES`` samples, as each chunk's
# search has a fixed cost: on criterion 9's frequency row (2487 points)
# chunks of 1, 8 and 16 samples took 0.52, 0.16 and 0.14 s and peaked at
# 0.4, 3.3 and 6.5 MB, and an 80-sample ``asgf(38)`` sweep (222 points, 39
# states) 0.19, 0.18 and 0.12 s at 0.5, 3.7 and 7.4 MB.
_CHUNK_ENTRIES = 2**15
_CHUNK_MIN_SAMPLES = 8


def _scan_points(base: NetworkSpec, kind: str, amplitudes, basis) -> list[int]:
    """Points of the sweep's scan of [0, pi] at each amplitude: steps of at
    most ``_SCAN_PHASE`` / W, W a bound on the spectral width of every copy
    that can be drawn, so that the scan depends on the base, the kind and
    the amplitude alone, never on the samples or the chunk.

    W is the base's width plus twice a bound on the norm of a perturbation,
    its largest row sum of moduli: a for frequency offsets, a per link for
    strength shifts, and |t| min(a, 2) per link for phase shifts of a link
    of modulus |t|.  At most ``_SCAN_POINTS_MAX`` points, and 2 where W is 0.
    """
    levels = eigendecompose(build_hamiltonian(base, basis)).eigenvalues
    counts = []
    for amplitude in amplitudes:
        if kind == FREQUENCY:
            norm = amplitude
        else:
            rows = np.zeros(base.n_sites)
            for hop in base.hoppings:
                change = (amplitude if kind == HOPPING_STRENGTH
                          else hop.amplitude * min(amplitude, 2.0))
                rows[[hop.j - 1, hop.k - 1]] += change
            norm = float(np.max(rows))
        width = float(levels[-1] - levels[0]) + 2.0 * norm
        counts.append(max(2, 1 + math.ceil(min(math.pi * width / _SCAN_PHASE,
                                               _SCAN_POINTS_MAX - 1))))
    return counts


def disorder_sweep(base: NetworkSpec, cfg: DisorderConfig, amplitudes) -> list[DisorderPoint]:
    """Mean corner-peak fidelity of the disordered network per amplitude.

    Every sample redraws all perturbations, evolves one chiral cycle [0, pi]
    from node 1 and records the average over ring nodes of the peak
    amplitude modulus, the square root of the certified maximum of the
    node's population on the cycle (``window_peaks``).  Amplitude a_idx
    draws its samples in order from one generator seeded with
    ``(cfg.seed, a_idx)``: sample s is the doubles s * size ...
    (s + 1) * size - 1 of that stream, size the drawn offsets per copy, so a
    run with fewer samples draws the same first samples.  At amplitude 0
    every sample is the base network, bitwise, so only sample 0 is drawn and
    searched and its value fills the row: mean and standard error see the
    array that searching every sample would give.  The samples of an
    amplitude run in chunks of ``_CHUNK_ENTRIES`` = 2^15 scan amplitudes (at
    least ``_CHUNK_MIN_SAMPLES`` samples; one or two per row of the default
    study) on one shared one-excitation basis and
    one triplet pattern, taken from a single ``perturbed_spec`` copy drawn
    from a generator of its own: each chunk
    draws its perturbations as one array from the amplitude's stream and
    fills one row of triplet values per sample, with no spec object per
    sample.  The rows make one stacked ``HermitianMatrix``, which goes
    through one ``eigendecompose`` and is factored by ``evolve``'s own
    ``_eigen_phase_modes`` on the scan of ``_scan_points``, so no phase table
    is built.  The scan's populations are checked for norm, and
    ``window_peaks`` refines their maxima from the eigensystem; each
    certificate is at most ``PEAK_TOL`` times the node's ceiling, which is
    at most 1, so each modulus is within sqrt(``PEAK_TOL``) = 1e-6 of its
    maximum, and within 1e-12 where the population peaks above 1/4.  Basis
    state i is node i + 1, so the |amplitude|^2 are the node populations.
    The sector is small, so the sweep always uses the full eigensystem,
    never the Krylov branch of ``evolve``; each sample's fidelity is bitwise
    what ``simulate`` on the same scan and ``window_peaks`` on the sample's
    eigensystem give it alone.  At INFO it logs, per amplitude, the samples
    searched, the scan points, and for those samples the Newton brackets
    refined, the nodes bisection had to search and the largest certificate.
    """
    amplitudes = [float(a) + 0.0 for a in amplitudes]  # -0 is 0
    for amplitude in amplitudes:
        # Samples are drawn from [-a, a], whose width 2a must be finite too.
        if not 0 <= 2.0 * amplitude < math.inf:
            raise ConfigError(f"disorder amplitude {amplitude} must be >= 0, with 2a finite")
    basis = enumerate_basis(base.n_sites, 1, base.statistics)
    psi0 = basis.unit_vector(occupation(base.n_sites, 1))
    ring = [j - 1 for j in base.ring_nodes]
    nodes = range(1, len(ring) + 1)  # the ring's columns of the peak values
    points = []
    counts = _scan_points(base, cfg.kind, amplitudes, basis)
    for a_idx, (amplitude, count) in enumerate(zip(amplitudes, counts)):
        # Every copy has the hopping pairs and on-site sites of this one, a
        # copy of sample 0 drawn from a generator of its own, so that it does
        # not advance the samples' stream.
        pattern = _spec_pattern(perturbed_spec(base, cfg.kind, amplitude,
                                               np.random.default_rng((cfg.seed, a_idx))), basis)
        times = np.linspace(0.0, math.pi, count)
        chunk = max(_CHUNK_MIN_SAMPLES, _CHUNK_ENTRIES // (count * len(basis)))
        rng = np.random.default_rng((cfg.seed, a_idx))
        # At amplitude 0 every sample is the base network, bitwise.
        searched = cfg.samples if amplitude > 0 else 1
        results = np.empty(cfg.samples)
        refined = bisected = 0
        certificate = 0.0
        for lo in range(0, searched, chunk):
            n = min(chunk, searched - lo)
            drawn, angles, terms = _draw(base, cfg.kind, amplitude, rng, n)
            h = HermitianMatrix(len(basis), *pattern[:2],
                                _fill(pattern, _coefficients(drawn, angles), terms))
            system, weights, phases, modes = _eigen_phase_modes(h, psi0, times)
            # Without an occupation matrix these are |amplitude|^2 per basis
            # state, which are the node populations.
            scan = _populations(phases, modes, None, count)[..., ring]
            # The search needs the eigensystem only: the factors go first.
            del phases, modes
            peaks = window_peaks(system.eigenvalues,
                                 system.eigenvectors[:, ring] * weights[:, None, :],
                                 0.0, math.pi / (count - 1), scan)
            results[lo:lo + n] = average_fidelity(peaks.values[:, None, :], nodes)
            refined += peaks.refined
            bisected += peaks.bisected
            certificate = max(certificate, float(np.max(peaks.certificates)))
            # Freed now, so that they never coexist with the next chunk's.
            del h, system, weights, scan, peaks
        results[searched:] = results[0]
        mean = float(np.mean(results))
        # Shifted by the first sample: the spread is the same, and equal
        # samples give exactly 0 (their mean need not round back to their value).
        stderr = (float(np.std(results - results[0], ddof=1) / math.sqrt(cfg.samples))
                  if cfg.samples > 1 else 0.0)
        points.append(DisorderPoint(amplitude, mean, stderr, cfg.samples))
        log.info("disorder kind=%s amplitude=%.4f mean=%.6f stderr=%.2e searched=%d "
                 "scan=%d points refined=%d bisected=%d certificate=%.2e", cfg.kind, amplitude,
                 mean, stderr, searched, count, refined, bisected, certificate)
    return points


# Samples of the revival window: one scan for the ladder study and the optimiser.
_REVIVAL_POINTS = 2001


def revival_fidelity(spec: NetworkSpec) -> tuple[float, float]:
    """Return-state fidelity and cycle period of a network started on node 1.

    The cycle period is the time of the maximum of
    F(t) = |A(t)|^2, A(t) = <psi0|psi(t)> = sum_k w_k exp(-i E_k t), over
    [0.5, 1.7] times t_est = 2*pi over the slowest populated frequency,
    scanned on ``_REVIVAL_POINTS`` samples.  The maximum is then the root of
    F'(t) = 2 Re(conj(A) A') between the neighbours of the best sample,
    found by Newton's method on the exact spectral sums A, A' and A'', with
    bisection whenever F'' >= 0 or a step leaves the bracket.  F' crosses
    zero linearly where F is flat to rounding, so the period is fixed to a
    few ulps (the uniform one-cell ladder reports pi to 12 digits) and the
    fidelity is F at that root.  When F' has no sign change across the
    bracket, as with a maximum at the window's edge, the best sample stands.
    """
    basis = enumerate_basis(spec.n_sites, 1, spec.statistics)
    system = eigendecompose(build_hamiltonian(spec, basis))
    weights = np.abs(system.eigenvectors[0]) ** 2  # overlaps with node 1
    return _revival_peak(system.eigenvalues, weights)


def _revival_peak(eigenvalues: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Maximum of |sum_k weights_k exp(-i E_k t)|^2 and its time, searched as
    ``revival_fidelity`` documents."""
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    populated = (weights > 1e-8) & (np.abs(eigenvalues) > 1e-9 * scale)
    if not np.any(populated):
        return 1.0, 0.0  # stationary state: trivially revived at all times
    x_min = float(np.min(np.abs(eigenvalues[populated])))
    t_est = 2.0 * math.pi / x_min

    grid = np.linspace(0.5 * t_est, 1.7 * t_est, _REVIVAL_POINTS)
    # |(P w) Q^T|^2 row-major is the scan over the uniform grid, with K =
    # ceil(sqrt(grid.size)): the grid is uniform by construction, so it skips
    # the check of ``_phase_modes``, which each objective evaluation would repeat.
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    big, small = _uniform_phases(grid[0], step, grid.size, math.isqrt(grid.size - 1) + 1,
                                 eigenvalues)
    values = np.abs(((big * weights) @ small.T).ravel()[:grid.size]) ** 2
    best = int(np.argmax(values))

    # s_p = sum_k E_k^p w_k exp(-i E_k t): A = s_0, A' = -i s_1, A'' = -s_2.
    moments = np.array([weights, weights * eigenvalues, weights * eigenvalues**2],
                       dtype=complex)

    def derivatives(t: float) -> tuple[float, float, float]:
        """F, F' and F'' at t."""
        a, s1, s2 = (moments @ np.exp(eigenvalues * (-1j * t))).tolist()
        return (abs(a) ** 2, 2.0 * (a.conjugate() * s1).imag,
                2.0 * (abs(s1) ** 2 - (a.conjugate() * s2).real))

    t = float(grid[best])
    fidelity, slope, curvature = derivatives(t)
    other = float(grid[min(best + 1, grid.size - 1)] if slope > 0 else grid[max(best - 1, 0)])
    if slope * derivatives(other)[1] >= 0:
        # No root of F' is bracketed: the maximum is at the window's edge, or
        # the scan does not resolve F here.
        return float(values[best]), t
    # F' > 0 at ``rising`` and < 0 at ``falling``: the maximum lies between.
    rising, falling = (t, other) if slope > 0 else (other, t)
    for _ in range(64):  # bisection alone reaches 4 ulps in fewer halvings
        if slope > 0:
            rising = t
        elif slope < 0:
            falling = t
        else:
            break
        # Newton from t, an end of the bracket; where F'' >= 0 it would descend.
        new = t - slope / curvature if curvature < 0 else math.inf
        if not min(rising, falling) <= new <= max(rising, falling):
            new = 0.5 * (rising + falling)
        if abs(new - t) <= 4.0 * math.ulp(t):
            break
        t = new
        fidelity, slope, curvature = derivatives(t)
    return fidelity, t


@dataclass(frozen=True)
class LadderPoint:
    n_copies: int
    fidelity: float
    period: float
    profile: tuple[float, ...]


def ladder_fidelity_curve(n_values) -> list[LadderPoint]:
    """Cycle fidelity of the ladder with uniform coupling 2 for each size."""
    points = []
    for n in n_values:
        fidelity, period = revival_fidelity(ladder(n, [2.0]))
        points.append(LadderPoint(n, fidelity, period, (2.0,) * ((n + 1) // 2)))
        log.info("ladder n=%d fidelity=%.6f period=%.4f", n, fidelity, period)
    return points


@dataclass(frozen=True)
class OptimizationResult:
    beta_profile: tuple[float, ...]
    fidelity: float
    period: float
    evaluations: int
    monotone: bool
    budget_exhausted: bool


# Floor on each profile increment: without it BFGS drives exp(x) below the
# rounding of b_{i-1}, and the profile is no longer strictly increasing.
MIN_INCREMENT = 1e-3


def _profile_from_increments(increments: np.ndarray) -> list[float]:
    profile = [2.0]
    for x in increments:
        profile.append(profile[-1] + MIN_INCREMENT + math.exp(x))
    return profile


def _ladder_objective(n_copies: int):
    """Ladder cycle fidelity and its gradient in the log-increments of
    ``_profile_from_increments``.

    H(b) = H_0 + sum_d b_d A_d on one triplet pattern.  Every profile of
    ``ladder`` emits the same hopping pairs, so H_0 = ``ladder(n_copies,
    zeros)`` and each unit profile ``ladder(n_copies, e_d)`` share their rows
    and cols, and the generator A_d is the difference of their value vectors.
    Each evaluation adds sum_d b_d A_d to the values of H_0 and makes one
    ``eigendecompose``.  At the revival time t* (envelope theorem) the return
    amplitude A = <0|exp(-iHt*)|0> has the Daleckii-Krein derivative
    dA/db_d = sum_km V_0k (V^dag A_d V)_km Phi_km conj(V_0m),
    Phi_km = (e^{-iE_k t} - e^{-iE_m t}) / (E_k - E_m), or -it e^{-iE_k t}
    for degenerate levels; dF/db_d = 2 Re(conj(A) dA/db_d).
    """
    n_profiles = (n_copies + 1) // 2
    spec = ladder(n_copies, [0.0] * n_profiles)
    basis = enumerate_basis(spec.n_sites, 1, spec.statistics)
    h0 = build_hamiltonian(spec, basis)
    generators = np.array([build_hamiltonian(ladder(n_copies, unit), basis).values - h0.values
                           for unit in np.eye(n_profiles)])

    def objective(increments: np.ndarray) -> tuple[float, np.ndarray]:
        profile = np.array(_profile_from_increments(increments))
        system = eigendecompose(replace(h0, values=h0.values + profile @ generators))
        values, vectors = system.eigenvalues, system.eigenvectors
        lead = vectors[0]
        weights = np.abs(lead) ** 2
        fidelity, t = _revival_peak(values, weights)
        phases = np.exp(-1j * values * t)
        amplitude = phases @ weights
        gaps = values[:, None] - values[None, :]
        near = np.abs(gaps) < 1e-9
        phi = np.where(near, -1j * t * phases[:, None],
                       (phases[:, None] - phases[None, :]) / np.where(near, 1.0, gaps))
        # sum_km (V^dag A_d V)_km G_km = sum_ij (A_d)_ij (V G^T V^dag)_ji,
        # summed over the triplets (i, j); the end cells keep coupling 2.
        g = phi * np.outer(lead, lead.conj())
        w = vectors @ g.T @ vectors.conj().T
        d_amplitude = generators[1:] @ w[h0.cols, h0.rows]
        d_profile = 2.0 * np.real(np.conj(amplitude) * d_amplitude)
        # b_i = b_{i-1} + MIN_INCREMENT + exp(x_i) moves every b_j with j >= i.
        grad = np.exp(increments) * np.cumsum(d_profile[::-1])[::-1]
        return fidelity, grad

    return objective


def _bfgs_ascent(evaluate, x: np.ndarray, budget: int):
    """Maximise ``evaluate(x) -> (f, grad)`` by BFGS with Armijo backtracking
    and steps of at most 1 per coordinate, until max|grad| < 1e-9, a step
    gains less than 1e-13 or ``budget`` evaluations are spent.  Returns
    (x, f, evaluations used, whether the budget cut the run)."""
    f, grad = evaluate(x)
    used = 1
    inverse = np.eye(x.size)
    while np.max(np.abs(grad)) >= 1e-9:
        direction = inverse @ grad
        direction /= max(1.0, float(np.max(np.abs(direction))))
        slope = float(direction @ grad)
        alpha = 1.0
        while True:
            if used >= budget:
                return x, f, used, True
            f_new, grad_new = evaluate(x + alpha * direction)
            used += 1
            if f_new >= f + 1e-4 * alpha * slope or alpha < 1e-10:
                break
            alpha *= 0.5
        if f_new - f < 1e-13:
            break
        step = alpha * direction
        change = grad - grad_new  # gradient change of -f
        x, f, grad = x + step, f_new, grad_new
        curvature = float(step @ change)
        if curvature > 0.0:
            rho = 1.0 / curvature
            left = np.eye(x.size) - rho * np.outer(step, change)
            inverse = left @ inverse @ left.T + rho * np.outer(step, step)
    return x, f, used, False


def optimize_ladder(n_copies: int, budget: int | None = None, seed: int = 0) -> OptimizationResult:
    """Maximise the ladder cycle fidelity over a monotone coupling profile.

    The end cells keep coupling 2; inner couplings are parametrised through
    log-increments, b_i = b_{i-1} + MIN_INCREMENT + exp(x_i), so every
    candidate satisfies 2 = b_0 < b_1 < ... < b_m.  Each of five starts
    (x_i = log 0.3, then four drawn from the seed) runs BFGS on the exact
    gradient of ``_ladder_objective``; ``budget`` caps the objective
    evaluations of all starts together.  Deterministic for a fixed seed.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_copies < 1:
        raise ConfigError("need at least one cell")
    n_free = (n_copies + 1) // 2 - 1
    if budget is None:
        budget = 600 * n_free
    if budget < 50 * n_free:
        raise ConfigError(f"budget must be at least {50 * n_free} for {n_free} parameters")
    objective = _ladder_objective(n_copies)
    evaluations = 0
    exhausted = False
    rng = np.random.default_rng(seed)
    # With no free coupling no start runs and no objective is evaluated.
    x = best_x = np.full(n_free, math.log(0.3))
    best_f = -1.0
    for restart in range(5 if n_free else 0):
        if restart > 0:
            x = np.log(rng.uniform(0.05, 1.5, n_free))
        if evaluations >= budget:
            exhausted = True
            break
        x, f, used, exhausted = _bfgs_ascent(objective, x, budget - evaluations)
        evaluations += used
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
# Occupation patterns superposed with equal weight in each Bell state.
_BELL_PATTERNS = {"psi": ((1, 0, 0), (0, 1, 0)), "phi": ((0, 0, 0), (1, 1, 0))}


@dataclass(frozen=True)
class BellTransportResult:
    times: np.ndarray
    psi_populations: np.ndarray  # (3, n_times), pair order PAIRS
    phi_populations: np.ndarray
    concurrence: np.ndarray


def bell_transport(spec: NetworkSpec, initial: str) -> BellTransportResult:
    """Evolve a Bell pair on sites 1,2 of a three-site spin ring over three
    cycles, 1801 points on [0, 6 pi / sqrt(3)].

    The one-excitation Bell state ``"psi"``, (|up down> + |down up>)/sqrt(2),
    lives in a single number sector; the parity Bell state ``"phi"``,
    (|down down> + |up up>)/sqrt(2), superposes the empty and doubly-excited
    sectors.  Each number sector of the initial state is evolved on its own
    and scattered into the full eight-dimensional space, which retains the
    relative phase of the sectors.  Both Bell projector families and the
    pairwise concurrence are tracked for every pair.
    """
    if not spec.statistics.is_spin:
        raise NotSpin("Bell transport runs on spin networks")
    if spec.n_sites != 3:
        raise BadInitial("Bell transport is defined for the three-site ring")
    if initial not in _BELL_PATTERNS:
        raise BadInitial(f"unknown initial state {initial!r}")
    times = np.linspace(0.0, 3.0 * 2.0 * math.pi / math.sqrt(3.0), 1801)

    full = np.zeros((times.size, 8), dtype=complex)
    patterns = _BELL_PATTERNS[initial]
    for n_up in sorted({sum(p) for p in patterns}):
        sector = [p for p in patterns if sum(p) == n_up]
        basis = enumerate_basis(3, n_up, spec.statistics)
        psi0 = sum(basis.unit_vector(p) for p in sector) / math.sqrt(len(sector))
        traj = evolve(build_hamiltonian(spec, basis), psi0, times)
        # Every pattern carries amplitude 1/sqrt(len(patterns)) in the Bell state.
        full[:, embedding_indices(basis)] += (traj.amplitudes
                                              / math.sqrt(len(patterns) / len(sector)))

    eye = np.eye(8, dtype=complex)

    def ket(*sites):
        return eye[full_space_index(occupation(3, *sites))]

    psi_pop = np.zeros((3, times.size))
    phi_pop = np.zeros((3, times.size))
    for p, (j, k) in enumerate(PAIRS):
        psi_bra = (ket(j) + ket(k)) / math.sqrt(2.0)
        phi_bra = (ket() + ket(j, k)) / math.sqrt(2.0)
        psi_pop[p] = np.abs(full @ psi_bra.conj()) ** 2
        phi_pop[p] = np.abs(full @ phi_bra.conj()) ** 2
    conc = np.array([_concurrences(full, pair) for pair in PAIRS])

    for arr in (psi_pop, phi_pop, conc):
        arr.setflags(write=False)
    return BellTransportResult(times, psi_pop, phi_pop, conc)


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence(state, pair: tuple[int, int]) -> float:
    """Two-site concurrence of a pure multi-qubit state.

    ``state`` is a full tensor-product vector (site 1 is the most significant
    qubit); the pair is traced out and the standard spin-flip construction
    lambda_1 - lambda_2 - lambda_3 - lambda_4 is evaluated on the reduced
    density matrix.
    """
    return float(_concurrences(np.asarray(state, dtype=complex).reshape(1, -1), pair)[0])


def _concurrences(states: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """``concurrence`` of every row of a (n_states, 2**n) array."""
    n = int(round(math.log2(states.shape[1])))
    if 2 ** n != states.shape[1] or n < 2:
        raise NotSpin("state must be a full vector over at least two qubits")
    j, k = pair
    if j == k or not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"invalid pair {pair} for {n} qubits")
    tensor = states.reshape((len(states),) + (2,) * n)
    tensor = np.moveaxis(tensor, (j, k), (1, 2))
    m = tensor.reshape(len(states), 4, -1)
    rho = m @ m.conj().transpose(0, 2, 1)
    # The flip-spectrum values are the singular values of
    # sqrt(rho) (Y x Y) sqrt(rho*), which avoids squaring; rank-deficient
    # directions are zeroed before the root so they do not amplify noise.
    vals, vecs = np.linalg.eigh(rho)
    vals = np.where(vals > 1e-12 * np.maximum(vals[:, -1:], 1e-300), vals, 0.0)
    root = (vecs * np.sqrt(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    lambdas = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return np.maximum(0.0, lambdas[:, 0] - lambdas[:, 1] - lambdas[:, 2] - lambdas[:, 3])

