"""Exact time evolution plus chirality metrics.

``evolve`` propagates through the Hermitian eigendecomposition of H.  From
``KRYLOV_MIN_DIM`` states on it decomposes instead the Lanczos tridiagonal
of H on the Krylov space of the initial state, grown until a certified
bound puts the state within ``KRYLOV_TOL`` of exact over the whole window
(or the full H, when that space would cost more).  That branch works on a
sparse H built from the triplets and forms populations in blocks of time
steps, so neither a dense H nor the full amplitude table is ever held.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, EmptyWindow, NoPeaks, OutOfGrid
from .hilbert import HermitianMatrix, SubspaceBasis, build_hamiltonian, enumerate_basis

log = logging.getLogger(__name__)

NORM_TOL = 1e-10
DARK_NODE_FLOOR = 1e-12
# Krylov propagation in ``evolve``: the dimension from which it replaces the
# full eigendecomposition (measured crossover on ladder and random sectors
# at the CLI's default window), the certified bound on ||psi(t) - psi_m(t)||,
# the first check of that bound and the growth of the space between checks,
# and the share of the dimension at which the space gives way to the full
# ``eigh``, so that a window too long for a small space costs at most about
# 1.2 times the full path.
KRYLOV_MIN_DIM = 400
KRYLOV_TOL = 1e-13
KRYLOV_START = 16
KRYLOV_GROWTH = 1.25
KRYLOV_MAX_SHARE = 0.4
TAYLOR_ORDER = 15
# Complex entries of one block of amplitudes in ``evolve``'s population loop
# (16 MB): below KRYLOV_MIN_DIM states, grids of up to 2628 points take a
# single block.
POPULATION_BLOCK = 2**20


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(h: HermitianMatrix) -> EigenSystem:
    """Read-only ``eigh`` of the dense form of h.

    Eigenvector phases are whatever LAPACK returns; every consumer uses
    phase-invariant quantities (|V^dag psi|^2, V e^{-i L t} V^dag, moduli).
    """
    values, vectors = np.linalg.eigh(h.matrix)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(values, vectors)


@dataclass(frozen=True)
class RitzSystem(EigenSystem):
    """Ritz pairs of a Krylov space, with the certified bound on
    ||psi(t) - psi_m(t)|| over the window they were grown for."""

    bound: float


@dataclass(frozen=True)
class Trajectory:
    """Time grid with per-node populations and, on demand, the state amplitudes.

    The amplitudes are kept factored as ``phases @ modes``: a (n_times, m)
    table of weighted phases and an (m, dim) map from eigen- or Ritz modes
    to basis states, or ``modes=None`` when ``phases`` already holds them.
    ``amplitudes`` multiplies the factors out on first read, so callers that
    only read populations never hold the (n_times, dim) table.
    """

    times: np.ndarray
    populations: np.ndarray  # (n_times, n_nodes) real
    labels: tuple[str, ...]
    phases: np.ndarray  # (n_times, m) complex
    modes: np.ndarray | None  # (m, dim) complex

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """Read-only (n_times, dim) state amplitudes."""
        if self.modes is None:
            return self.phases
        amplitudes = self.phases @ self.modes
        amplitudes.setflags(write=False)
        return amplitudes

    def node_population(self, node: int) -> np.ndarray:
        """Population trace of a 1-based node label."""
        return self.populations[:, node - 1]


class Direction(Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    NONE = "none"


@dataclass(frozen=True)
class ChiralityVerdict:
    """Visiting order of node-population peaks and the inferred orientation."""

    order: tuple[int, ...]
    direction: Direction
    min_peak: float


def evolve(h: HermitianMatrix, psi0, times, basis: SubspaceBasis | None = None,
           labels: tuple[str, ...] | None = None) -> Trajectory:
    """Evolve a normalised state on a time grid: psi(t) = V e^{-i L t} V^dag psi0.

    Below ``KRYLOV_MIN_DIM`` states, V and L are the full eigensystem of h.
    Larger operators take the Ritz pairs of ``_krylov_system`` instead: the
    eigensystem of h on the Krylov space of psi0, grown on a sparse copy of
    the triplets until psi(t) is within ``KRYLOV_TOL`` of exact for every
    |t| <= max|times|, or the full eigensystem when that space would cost
    more.  Populations and the norm check are formed in blocks of
    ``POPULATION_BLOCK // dim`` time steps; the amplitudes stay factored
    (see :class:`Trajectory`).

    Without a basis each amplitude is treated as one node (the single
    excitation case); with a basis, node populations are occupation-weighted
    sums over basis states.
    """
    dim = h.dim
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if psi0.shape != (dim,):
        raise DimensionMismatch(
            f"state has dimension {psi0.shape}, matrix {dim}"
        )
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-empty ascending grid")
    norm = float(np.linalg.norm(psi0))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"initial state norm {norm} is not 1")
    rows = max(1, POPULATION_BLOCK // dim)  # time steps per population block
    system = None
    if dim >= KRYLOV_MIN_DIM:
        system = _krylov_system(h, psi0 / norm, float(np.max(np.abs(times))))
        blocks = -(-times.size // rows)
        if system is None:
            log.info("evolve: %d states, Krylov space uncertified within %d vectors, "
                     "fell back to eigh, %d population blocks",
                     dim, int(KRYLOV_MAX_SHARE * dim), blocks)
        else:
            log.info("evolve: %d states, Krylov m=%d, defect bound %.3g, no eigh "
                     "fallback, %d population blocks",
                     dim, system.eigenvalues.size, system.bound, blocks)
    if system is None:
        system = eigendecompose(h)
    weights = system.eigenvectors.conj().T @ psi0
    phases = _weighted_phases(times, system.eigenvalues, weights)
    modes = system.eigenvectors.T
    modes.setflags(write=False)
    occupations = basis.occupation_matrix() if basis is not None else None
    populations = np.concatenate([_populations(phases[lo:lo + rows], modes, occupations)
                                  for lo in range(0, times.size, rows)])
    if basis is not None:
        node_labels = labels or tuple(f"node_{j}" for j in range(1, basis.n_sites + 1))
    else:
        node_labels = labels or tuple(f"node_{j}" for j in range(1, dim + 1))
    times = times.copy()
    for arr in (times, populations, phases):
        arr.setflags(write=False)
    return Trajectory(times, populations, tuple(node_labels), phases, modes)


def _populations(phases: np.ndarray, modes: np.ndarray,
                 occupations: np.ndarray | None) -> np.ndarray:
    """Populations of the amplitudes ``phases @ modes``, checked for norm.

    ``phases`` is (..., n_times, m) and ``modes`` (..., m, dim), with any
    leading batch axes; the result is |amplitude|^2 per basis state, or with
    a (dim, n_nodes) occupation matrix the occupation-weighted node
    populations.  Raises ValueError when a row's norm is off by more than
    ``NORM_TOL``.
    """
    amplitudes = phases @ modes
    abs2 = amplitudes.real**2 + amplitudes.imag**2
    # Negated so that NaN amplitudes (from a non-finite time) fail the check.
    if not float(np.max(np.abs(abs2 @ np.ones(abs2.shape[-1]) - 1.0))) <= NORM_TOL:
        raise ValueError("evolution failed to conserve the norm")
    return abs2 if occupations is None else abs2 @ occupations


def _krylov_system(h: HermitianMatrix, start: np.ndarray, span: float) -> RitzSystem | None:
    """Ritz values and vectors of h on the Krylov space of the unit vector
    ``start``, large enough that V e^{-i L t} V^dag start is within
    ``KRYLOV_TOL`` of e^{-i h t} start for every |t| <= span.

    Lanczos with full reorthogonalisation on a CSR copy of h's triplets gives
    h Q = Q T + beta q e_m^T, and the Krylov state Q e^{-i T t} e_1 is off by
    at most beta * integral_0^|t| |e_m^T e^{-i T s} e_1| ds (Saad, SIAM J.
    Numer. Anal. 29, 209 (1992); Hochbruck & Lubich, ibid. 34, 1911 (1997)).
    The space grows by ``KRYLOV_GROWTH`` between checks of that bound from
    ``KRYLOV_START`` on; a step whose beta * span is within the tolerance
    ends it at once, which covers breakdown, eigenvector starts and a zero
    span.  The array of Lanczos vectors doubles its rows as the space
    grows.  The result carries the bound it was certified with.  Past
    ``KRYLOV_MAX_SHARE`` of the dimension it gives up and returns None.
    """
    from scipy.sparse import csr_array  # imported here: ~0.2 s, as long as all of CLI start-up

    if not math.isfinite(span):
        span = math.nan  # no certificate: stop at once; evolve's norm check rejects it
    limit = int(KRYLOV_MAX_SHARE * h.dim)
    matrix = csr_array((h.values, (h.rows, h.cols)), shape=(h.dim, h.dim))
    basis = np.empty((1, h.dim), dtype=complex)
    basis[0] = start
    alpha: list[float] = []
    beta: list[float] = []
    target = KRYLOV_START
    while target <= limit:
        if target >= len(basis):  # rows 0..target must fit; keep the len(alpha) + 1 in use
            grown = np.empty((min(limit + 1, max(2 * len(basis), target + 1)), h.dim),
                             dtype=complex)
            grown[:len(alpha) + 1] = basis[:len(alpha) + 1]
            basis = grown
        for j in range(len(alpha), target):
            w = matrix @ basis[j]
            if j:
                w -= beta[-1] * basis[j - 1]
            alpha.append(float(np.vdot(basis[j], w).real))
            w -= alpha[-1] * basis[j]
            # Classical Gram-Schmidt against all of Q, repeated when it cancels
            # more than 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart).
            norm = float(np.linalg.norm(w))
            for _ in range(2):
                w -= (basis[:j + 1] @ w.conj()).conj() @ basis[:j + 1]
                norm, before = float(np.linalg.norm(w)), norm
                if norm > before / math.sqrt(2.0):
                    break
            beta.append(norm)
            if not norm * span > KRYLOV_TOL:  # negated so that a NaN span stops too
                break
            basis[j + 1] = w / norm
        # T_m: alpha on the diagonal, beta_1..beta_{m-1} beside it on both sides.
        k = np.arange(len(alpha))
        off = beta[:-1]
        system = eigendecompose(HermitianMatrix(len(alpha), np.r_[k, k[:-1], k[1:]],
                                                np.r_[k, k[1:], k[:-1]], np.r_[alpha, off, off]))
        # beta * span bounds the defect too, as |e_m^T e^{-i T s} e_1| <= 1.
        bound = beta[-1] * span
        if bound > KRYLOV_TOL:
            bound = beta[-1] * _defect_integral(system, span)
        if not bound > KRYLOV_TOL:
            return RitzSystem(system.eigenvalues, basis[:len(alpha)].T @ system.eigenvectors,
                              bound)
        target = math.ceil(target * KRYLOV_GROWTH)
    return None


def _defect_integral(system: EigenSystem, span: float) -> float:
    """Upper bound on the integral over [0, span] of |g(s)|, where
    g(s) = e_m^T e^{-i T s} e_1 for the tridiagonal T with this eigensystem.

    With the levels centred, g(s) = sum_k c_k e^{-i E_k s} where
    c_k = Z[m, k] conj(Z[1, k]).  [0, span] splits into cells of half-width
    r <= 1/(2 max|E|) centred on s_j = (2 j + 1) r; on each, |g| is bounded
    by its Taylor polynomial of order ``TAYLOR_ORDER`` at s_j in absolute
    values plus the remainder bound sum_k |c_k| |E_k|^{P+1} |s - s_j|^{P+1}/(P+1)!,
    and those bounds integrate in closed form.  A window of more than 8 m
    cells is longer than m Lanczos vectors resolve, so it is not evaluated
    and reads as infinite.
    """
    levels = system.eigenvalues
    energies = levels - 0.5 * (levels[0] + levels[-1])
    coefficients = system.eigenvectors[-1] * system.eigenvectors[0].conj()
    cells = max(1, math.ceil(span * float(np.max(np.abs(energies)))))
    if cells > 8 * levels.size:
        return math.inf
    radius = 0.5 * span / cells
    orders = np.arange(TAYLOR_ORDER + 1)
    derivatives = coefficients * (-1j * energies) ** orders[:, None]
    big, small = _uniform_phases(radius, 2.0 * radius, cells, energies)
    # Row j of the table holds g^(p)(s_j) for p = 0..P.
    table = big @ (small[:, None, :] * derivatives).reshape(-1, levels.size).T
    table = table.reshape(-1, orders.size)[:cells]
    factorials = np.cumprod(np.arange(1.0, orders.size + 2))  # 1!, ..., (P+2)!
    taylor = float(np.sum(np.abs(table) @ (2.0 * radius ** (orders + 1) / factorials[:-1])))
    top = float(np.abs(coefficients) @ np.abs(energies) ** orders.size)
    return taylor + 2.0 * cells * top * radius ** (orders.size + 1) / factorials[-1]


def _uniform_phases(t0: float, step: float, count: int,
                    energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors of exp(-i E t_j) on the uniform grid t_j = t0 + j*step, j < count.

    With K = ceil(sqrt(count)) and j = a*K + b, exp(-i E t_j) = P[a] * Q[b],
    where P[a] = exp(-i E a K step) and Q[b] = exp(-i E (t0 + b step)).  The
    row-major products of P's and Q's rows, cut to ``count``, are the phase
    table; it costs about 2 sqrt(count) exponentials per energy instead of
    ``count``.  ``energies`` may carry leading batch axes, which P and Q keep
    in front of their (rows, energies) axes.
    """
    width = math.isqrt(count - 1) + 1
    rows = -(-count // width)
    big = np.exp(-1j * _outer(np.arange(rows) * width * step, energies))
    small = np.exp(-1j * _outer(t0 + np.arange(width) * step, energies))
    return big, small


def _outer(times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """``np.outer(times, energies)`` for each row of a batch of energies."""
    return times[:, None] * energies[..., None, :]


def _weighted_phases(times: np.ndarray, energies: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """weights * exp(-i E t) as a (times, energies) table, with the leading
    batch axes of ``energies`` and ``weights`` in front.

    A grid uniform to rounding, |t_j - (t_0 + j step)| <= 8 eps max(1, max|t|),
    takes the factorised ``_uniform_phases`` with the weights folded into Q;
    any other grid, and any grid with a non-finite time, takes the direct
    exponential.
    """
    count = times.size
    step = (times[-1] - times[0]) / (count - 1) if count > 1 else 0.0
    tol = 8.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(times))))
    weights = weights[..., None, :]
    # Negated so that NaN or inf times fall to the direct path.
    if not float(np.max(np.abs(times - (times[0] + np.arange(count) * step)))) <= tol:
        return np.exp(-1j * _outer(times, energies)) * weights
    big, small = _uniform_phases(times[0], step, count, energies)
    small *= weights
    table = big[..., :, None, :] * small[..., None, :, :]
    return table.reshape(table.shape[:-3] + (-1, energies.shape[-1]))[..., :count, :]


def simulate(spec, occupation, times) -> Trajectory:
    """Evolve one occupation pattern of a network spec on a time grid.

    The sector of ``sum(occupation)`` excitations is enumerated, its
    Hamiltonian assembled and the basis state of ``occupation`` evolved;
    node populations carry the spec's site labels.
    """
    basis = enumerate_basis(spec.n_sites, sum(occupation), spec.statistics)
    h = build_hamiltonian(spec, basis)
    return evolve(h, basis.unit_vector(occupation), times, basis=basis, labels=spec.labels)


def cluster_levels(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of ascending levels whose neighbours lie within tol."""
    clusters: list[list[int]] = []
    for i, v in enumerate(values):
        if clusters and abs(v - values[clusters[-1][-1]]) <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def transfer_fidelity(traj: Trajectory, period: float) -> float:
    """Squared overlap with the initial state at the grid time nearest to period."""
    times = traj.times
    if period < times[0] - 1e-12 or period > times[-1] + 1e-12:
        raise OutOfGrid(f"time {period} outside grid [{times[0]}, {times[-1]}]")
    idx = int(np.argmin(np.abs(times - period)))
    overlap = np.vdot(traj.amplitudes[0], traj.amplitudes[idx])
    return float(abs(overlap) ** 2)


def average_fidelity(populations: np.ndarray, corner_nodes):
    """Mean over the given 1-based nodes of the peak amplitude modulus on that node.

    ``populations`` is (..., n_times, n_nodes), one trajectory's or a stack
    of them; the result holds one value per leading index (a float for a
    single trajectory).  The per-node modulus is sqrt of the node population,
    which reduces to |C_j(t)| in a single-excitation sector; the root is
    taken after the time maximum, which is bitwise the same because a
    correctly rounded sqrt is monotone.
    """
    corner_nodes = [j - 1 for j in corner_nodes]
    if populations.shape[-2] == 0 or not corner_nodes:
        raise EmptyWindow("trajectory window or node list is empty")
    # Indexing copies the columns out node-major, so the time maximum runs
    # over contiguous memory instead of a strided middle axis.
    return np.sqrt(populations[..., corner_nodes].max(axis=-2)).mean(axis=-1)


def _first_peak_index(trace: np.ndarray, threshold: float) -> int | None:
    """Index of the first local maximum reaching threshold (endpoints count;
    NaN never matches)."""
    padded = np.concatenate(([-np.inf], trace, [-np.inf]))
    hits = np.flatnonzero((trace >= padded[:-2]) & (trace >= padded[2:]) & (trace >= threshold))
    return int(hits[0]) if hits.size else None


def chirality_order(traj: Trajectory, ring_nodes, peak_threshold: float = 0.99) -> ChiralityVerdict:
    """Order ring nodes by the time of their first significant population peak.

    A node counts as visited once its population has a local peak at or above
    ``peak_threshold`` times its own global maximum; nodes whose population
    never rises above the dark floor are skipped, and ``order`` lists the
    visited nodes only.  The orientation is clockwise when every ring node is
    visited and the order steps through ``ring_nodes`` in ascending cyclic
    order, counterclockwise for descending, and none otherwise (in particular
    whenever some ring node is never visited).
    """
    if not 0 < peak_threshold <= 1:
        raise ValueError("peak_threshold must be in (0, 1]")
    ring_nodes = list(ring_nodes)
    events = []
    peak_heights = []
    for node in ring_nodes:
        trace = traj.node_population(node)
        top = float(np.max(trace))
        if top < DARK_NODE_FLOOR:
            continue
        idx = _first_peak_index(trace, peak_threshold * top)
        if idx is None:
            continue
        events.append((float(traj.times[idx]), node))
        peak_heights.append(top)
    if not events:
        raise NoPeaks("no node population reaches the peak threshold")
    order = [node for _, node in sorted(events, key=lambda item: item[0])]
    direction = (_cyclic_direction(order, ring_nodes) if len(order) == len(ring_nodes)
                 else Direction.NONE)
    return ChiralityVerdict(tuple(order), direction, float(min(peak_heights)))


def _cyclic_direction(order, ring_nodes) -> Direction:
    if len(order) < 2:
        return Direction.NONE
    k = len(ring_nodes)
    positions = [ring_nodes.index(node) for node in order]
    steps = {(positions[i + 1] - positions[i]) % k for i in range(len(positions) - 1)}
    if steps == {1}:
        return Direction.CLOCKWISE
    if steps == {k - 1}:
        return Direction.COUNTERCLOCKWISE
    return Direction.NONE


def first_peak_time(times: np.ndarray, trace: np.ndarray, threshold: float) -> float:
    """Parabolically refined time of the first local maximum of a trace that
    reaches ``threshold`` times its global maximum."""
    top = float(np.max(trace))
    idx = _first_peak_index(trace, threshold * top) if top > 0 else None
    if idx is None:
        raise NoPeaks("trace never peaks above the threshold")
    if 0 < idx < trace.size - 1:
        y0, y1, y2 = trace[idx - 1], trace[idx], trace[idx + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0:
            shift = 0.5 * (y0 - y2) / denom
            return float(times[idx] + shift * (times[idx + 1] - times[idx]))
    return float(times[idx])


def rows_to_csv(rows, header: str) -> str:
    """Render rows as CSV under a header line: floats (NumPy ones included)
    with 12 significant digits, anything else through ``str``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render populations as CSV with 12 significant digits."""
    rows = ((t, *populations) for t, populations in zip(traj.times, traj.populations))
    return rows_to_csv(rows, "t," + ",".join(traj.labels))


def basis_state(dim: int, index: int) -> np.ndarray:
    """Unit vector |index> (0-based) in a dim-dimensional space."""
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi
