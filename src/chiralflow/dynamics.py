"""Exact time evolution via Hermitian eigendecomposition plus chirality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyWindow,
    NoPeaks,
    NonHermitian,
    OutOfGrid,
)
from .hilbert import HermitianMatrix, SubspaceBasis, build_hamiltonian, enumerate_basis

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
DARK_NODE_FLOOR = 1e-12


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, HermitianMatrix):
        return h.matrix
    m = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if float(np.max(np.abs(m - m.conj().T))) > HERMITICITY_TOL * scale:
        raise NonHermitian("matrix is not Hermitian within 1e-12")
    return m


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def lead_component(vector: np.ndarray) -> int:
    """First component whose modulus is within rounding of the maximum.

    Ties (uniform-modulus eigenvectors) resolve to the lowest index, so the
    phase convention below is reproducible.
    """
    moduli = np.abs(vector)
    return int(np.argmax(moduli >= moduli.max() - 1e-12 * max(moduli.max(), 1.0)))


def eigendecompose(h) -> EigenSystem:
    """Eigendecomposition with a deterministic phase convention: in every
    eigenvector the leading (largest-modulus) component is made real and
    positive."""
    m = _as_matrix(h)
    values, vectors = np.linalg.eigh(m)
    for i in range(vectors.shape[1]):
        col = vectors[:, i]
        pivot = col[lead_component(col)]
        if abs(pivot) > 0:
            vectors[:, i] = col * (pivot.conjugate() / abs(pivot))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(values, vectors)


@dataclass(frozen=True)
class Trajectory:
    """Time grid with full state amplitudes and per-node populations."""

    times: np.ndarray
    amplitudes: np.ndarray  # (n_times, dim) complex
    populations: np.ndarray  # (n_times, n_nodes) real
    labels: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return self.populations.shape[1]

    def node_population(self, node: int) -> np.ndarray:
        """Population trace of a 1-based node label."""
        return self.populations[:, node - 1]

    def initial_overlap(self) -> np.ndarray:
        """|<psi(0)|psi(t)>|^2 on the grid."""
        overlaps = self.amplitudes @ self.amplitudes[0].conj()
        return np.abs(overlaps) ** 2


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
    peak_times: tuple[float, ...]


def evolve(h, psi0, times, basis: SubspaceBasis | None = None,
           labels: tuple[str, ...] | None = None) -> Trajectory:
    """Evolve a normalised state on a time grid: psi(t) = V e^{-i L t} V^dag psi0.

    Without a basis each amplitude is treated as one node (the single
    excitation case); with a basis, node populations are occupation-weighted
    sums over basis states.
    """
    m = _as_matrix(h)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if psi0.shape != (m.shape[0],):
        raise DimensionMismatch(
            f"state has dimension {psi0.shape}, matrix {m.shape[0]}"
        )
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-empty ascending grid")
    norm = float(np.linalg.norm(psi0))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"initial state norm {norm} is not 1")
    system = eigendecompose(m)
    weights = system.eigenvectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, system.eigenvalues))
    amplitudes = (phases * weights[None, :]) @ system.eigenvectors.T
    norms = np.linalg.norm(amplitudes, axis=1)
    # Negated so that NaN amplitudes (from a non-finite time) fail the check.
    if not float(np.max(np.abs(norms**2 - 1.0))) <= NORM_TOL:
        raise ValueError("evolution failed to conserve the norm")
    if basis is not None:
        occupations = basis.occupation_matrix()
        populations = (np.abs(amplitudes) ** 2) @ occupations
        node_labels = labels or tuple(f"node_{j}" for j in range(1, basis.n_sites + 1))
    else:
        populations = np.abs(amplitudes) ** 2
        node_labels = labels or tuple(f"node_{j}" for j in range(1, m.shape[0] + 1))
    times = times.copy()
    for arr in (times, amplitudes, populations):
        arr.setflags(write=False)
    return Trajectory(times, amplitudes, populations, tuple(node_labels))


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


def average_fidelity(traj: Trajectory, corner_nodes) -> float:
    """Mean over the given nodes of the peak amplitude modulus on that node.

    The per-node modulus is sqrt of the node population, which reduces to
    |C_j(t)| in a single-excitation sector.
    """
    corner_nodes = list(corner_nodes)
    if traj.times.size == 0 or not corner_nodes:
        raise EmptyWindow("trajectory window or node list is empty")
    peaks = [float(np.max(np.sqrt(traj.node_population(j)))) for j in corner_nodes]
    return float(np.mean(peaks))


def _first_peak_index(trace: np.ndarray, threshold: float) -> int | None:
    """Index of the first local maximum reaching threshold (endpoints count)."""
    n = trace.size
    for i in range(n):
        left = trace[i - 1] if i > 0 else -np.inf
        right = trace[i + 1] if i < n - 1 else -np.inf
        if trace[i] >= left and trace[i] >= right and trace[i] >= threshold:
            return i
    return None


def chirality_order(traj: Trajectory, ring_nodes, peak_threshold: float = 0.99) -> ChiralityVerdict:
    """Order ring nodes by the time of their first significant population peak.

    A node counts as visited once its population has a local peak at or above
    ``peak_threshold`` times its own global maximum; nodes whose population
    never rises above the dark floor are skipped.  The orientation is
    clockwise when the visiting order steps through ``ring_nodes`` in
    ascending cyclic order, counterclockwise for descending, none otherwise.
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
    times = sorted(time for time, _ in events)
    direction = _cyclic_direction(order, ring_nodes)
    return ChiralityVerdict(tuple(order), direction, float(min(peak_heights)), tuple(times))


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


def refine_peak_time(times: np.ndarray, trace: np.ndarray, index: int) -> float:
    """Parabolic refinement of a discrete peak position."""
    if index <= 0 or index >= trace.size - 1:
        return float(times[index])
    y0, y1, y2 = trace[index - 1], trace[index], trace[index + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0:
        return float(times[index])
    shift = 0.5 * (y0 - y2) / denom
    step = times[index + 1] - times[index]
    return float(times[index] + shift * step)


def first_full_transfer_time(traj: Trajectory, node: int, threshold: float = 0.99) -> float:
    """Refined time of the first near-unit population peak on a node."""
    trace = traj.node_population(node)
    idx = _first_peak_index(trace, threshold * float(np.max(trace)))
    if idx is None:
        raise NoPeaks(f"node {node} never peaks above the threshold")
    return refine_peak_time(traj.times, trace, idx)


def cycle_grid(eigenvalues, periods: float = 1.0, points_per_period: int = 2000) -> np.ndarray:
    """Uniform grid resolving the slowest nonzero beat of a spectrum."""
    values = np.asarray(eigenvalues, dtype=float)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    nonzero = np.abs(values) > 1e-12 * max(scale, 1.0)
    if not np.any(nonzero):
        return np.linspace(0.0, 1.0, points_per_period)
    omega_min = float(np.min(np.abs(values[nonzero])))
    t_max = periods * 2.0 * math.pi / omega_min
    return np.linspace(0.0, t_max, int(points_per_period * periods) + 1)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render populations as CSV with 12 significant digits."""
    header = "t," + ",".join(traj.labels)
    lines = [header]
    for i, t in enumerate(traj.times):
        row = [f"{t:.12g}"] + [f"{p:.12g}" for p in traj.populations[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def basis_state(dim: int, index: int) -> np.ndarray:
    """Unit vector |index> (0-based) in a dim-dimensional space."""
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi
