"""Exact time evolution plus chirality metrics.

``evolve`` propagates through the Hermitian eigendecomposition of H.  On a
uniform grid the phases e^{-iEt} factor into P[a] * Q[b] for t = t_{aK+b}
(``_uniform_phases``), and ``_phase_modes`` folds Q into the modes, with K
cut so that the fold is never larger than the phase table; the table itself
is never built.  From ``KRYLOV_MIN_DIM`` states on ``evolve`` marches
through the window in Krylov steps instead: each step runs at most
``KRYLOV_DIM`` Lanczos vectors from the state at its start, on H held as
padded rows of its triplets (``_padded_product``), and lasts as long as the
closed-form defect bound of ``_power_bound`` keeps within its share of
``KRYLOV_TOL``, so the state is within ``KRYLOV_TOL`` of exact over the
whole window.  Populations are formed in blocks of at least ``KRYLOV_DIM``
time steps in one reused buffer, so neither a dense H nor the full amplitude
table is ever held, and memory is O(``KRYLOV_DIM`` * dim) for any window.
Time is linear in the window, and a window of more than
``KRYLOV_MAX_STEPS`` steps is refused up front.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, EmptyWindow, NoPeaks, OutOfRange
from .hilbert import HermitianMatrix, SubspaceBasis, build_hamiltonian, enumerate_basis

log = logging.getLogger(__name__)

NORM_TOL = 1e-10
DARK_NODE_FLOOR = 1e-12
# Krylov propagation in ``evolve``: the dimension from which it replaces the
# full eigendecomposition (measured crossover on ladder and random sectors
# at the CLI's default window), the bound of ``_power_bound`` on
# ||psi(t) - psi_m(t)|| summed over the steps of a window, the Lanczos
# vectors of one step (on the 1540-state ladder sector over 2 pi, 32 to 64
# vectors cost the same within noise; longer windows gain a little from
# more, and memory grows with them), and the most steps a window may take
# (cost is linear in the window: 10 000 steps cover about 2400 pi on the
# three-boson ladder sectors, a minute at 1540 states and 13 at 22 100; a
# window of 1e300 would never end).
KRYLOV_MIN_DIM = 400
KRYLOV_TOL = 1e-13
KRYLOV_DIM = 40
KRYLOV_MAX_STEPS = 10_000
# Complex entries of one block of amplitudes in ``evolve``'s population loop
# (2 MB), which takes at least KRYLOV_DIM rows per block: each block re-reads
# the whole Lanczos basis, and 2**17 entries alone would cut the 22 100-state
# ladder sector into blocks of 5 rows.  A Krylov step's buffer is then at most
# max(KRYLOV_DIM * dim, POPULATION_BLOCK) entries, within 8.2 times the
# Lanczos array.  Below KRYLOV_MIN_DIM states, grids of up to 328 points take
# a single block.
POPULATION_BLOCK = 2**17
# ``window_peaks``: the certificate it aims for, relative to each node's
# ceiling (sum_k |c_k|)^2 and well above the rounding of F (about 1e-16 of
# it); the halvings of a scan step after which bisection stops (40 halvings
# leave 1e-12 of the step; at the tolerance the interval bound of a scan
# step with W h <= 1 is met after about 20); and the intervals one node may
# bisect at once, per scan interval (plus 64), so that memory stays within
# a small multiple of the scan's when the scan is far coarser than 1 / W.
PEAK_TOL = 1e-12
_MAX_HALVINGS = 40
_MAX_INTERVALS = 2

# One step of a propagation: the grid rows it covers, factors (R, m)
# ``phases`` and (m, K, dim) ``modes`` whose product is the amplitude table
# on those rows (see ``_amplitudes``), and the certified bound the step adds
# to the error (0 for an exact step).
Step = tuple[slice, np.ndarray, np.ndarray, float]


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns, stacked for a stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def eigendecompose(h: HermitianMatrix) -> EigenSystem:
    """Read-only ``eigh`` of the dense form of h, matrix by matrix for a stack.

    Eigenvector phases are whatever LAPACK returns; every consumer uses
    phase-invariant quantities (|V^dag psi|^2, V e^{-i L t} V^dag, moduli).
    """
    values, vectors = np.linalg.eigh(h.matrix)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(values, vectors)


def _eigen_phase_modes(h: HermitianMatrix, psi0: np.ndarray, times: np.ndarray
                       ) -> tuple[EigenSystem, np.ndarray, np.ndarray, np.ndarray]:
    """The full eigensystem V, L of h, the weights V^dag psi0, and the
    ``_phase_modes`` factors of V e^{-i L t} V^dag psi0; for a stack of
    matrices they carry its leading axes."""
    system = eigendecompose(h)
    modes = np.swapaxes(system.eigenvectors, -1, -2)
    weights = modes.conj() @ psi0
    return (system, weights) + _phase_modes(times, system.eigenvalues, weights, modes)


@dataclass(frozen=True)
class Trajectory:
    """Time grid with per-node populations and, on demand, the state amplitudes.

    ``table`` holds the (n_times, dim) amplitudes when they are known up
    front.  Otherwise ``steps`` re-runs the propagation of ``evolve``: a
    generator of :data:`Step` tuples whose factors, contracted by
    ``_amplitudes``, fill the table row block by row block.  ``amplitudes``
    multiplies them out on first read, so callers that only read populations
    never hold the table, and a trajectory keeps no per-step state.
    """

    times: np.ndarray
    populations: np.ndarray  # (n_times, n_nodes) real
    labels: tuple[str, ...]
    table: np.ndarray | None  # (n_times, dim) complex
    steps: Callable[[], Iterator[Step]] | None

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """Read-only (n_times, dim) state amplitudes."""
        if self.steps is None:
            return self.table
        amplitudes = None
        for rows, phases, modes, _ in self.steps():
            if amplitudes is None:
                amplitudes = np.empty((self.times.size, modes.shape[-1]), dtype=complex)
            amplitudes[rows] = _amplitudes(phases, modes, rows.stop - rows.start)
        amplitudes.setflags(write=False)
        return amplitudes

    def node_population(self, node: int) -> np.ndarray:
        """Population trace of a 1-based node label; OutOfRange outside
        1..n_nodes."""
        return self.populations[:, _node_columns([node], self.populations.shape[-1])[0]]


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


def checked_state(psi0, dim: int) -> np.ndarray:
    """A complex copy of ``psi0``, refused unless it has ``dim`` amplitudes
    and unit norm within 1e-9 (the negated test refuses a NaN norm too)."""
    psi = np.array(psi0, dtype=complex)
    if psi.shape != (dim,):
        raise DimensionMismatch(f"state of shape {psi.shape} for {dim} states")
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"initial state norm {norm} is not 1")
    return psi


def evolve(h: HermitianMatrix, psi0, times, basis: SubspaceBasis | None = None,
           labels: tuple[str, ...] | None = None) -> Trajectory:
    """Evolve a normalised state on a finite time grid: psi(t) = V e^{-i L t} V^dag psi0.

    Below ``KRYLOV_MIN_DIM`` states, V and L are the full eigensystem of h,
    in one step over the whole grid, factored by ``_eigen_phase_modes``: on a
    uniform grid, the phases P of every K-th time against the modes V with
    the K phases Q between folded in, otherwise the direct phases against V.
    Larger operators take the steps of ``_krylov_steps``: Ritz pairs of h on
    a Krylov space of at most ``KRYLOV_DIM`` vectors per step, certified so
    that psi(t) is within ``KRYLOV_TOL`` of exact at every grid time, each
    factored by ``_phase_modes`` in turn.  Populations and the norm
    check are formed in blocks of rows of the phases, ``POPULATION_BLOCK``
    amplitudes each but at least ``KRYLOV_DIM`` rows, multiplied into one
    reused amplitude buffer; the amplitudes themselves are recomputed on
    demand (see :class:`Trajectory`).

    Without a basis each amplitude is treated as one node (the single
    excitation case); with a basis, node populations are occupation-weighted
    sums over basis states.
    """
    dim = h.dim
    if h.values.ndim != 1:
        raise DimensionMismatch(f"a stack of {h.values.shape[:-1]} matrices, not one")
    # Copies: a stepped trajectory re-runs its propagation from both later.
    psi0 = checked_state(psi0, dim)
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-empty ascending grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    psi0.setflags(write=False)
    times.setflags(write=False)
    if dim < KRYLOV_MIN_DIM:
        _, _, phases, modes = _eigen_phase_modes(h, psi0, times)
        phases.setflags(write=False)
        modes.setflags(write=False)

        def steps() -> Iterator[Step]:
            yield slice(0, times.size), phases, modes, 0.0
    else:
        steps = functools.partial(_krylov_steps, h, psi0, times)
    occupations = basis.occupation_matrix() if basis is not None else None
    populations = np.empty((times.size, dim if basis is None else basis.n_sites))
    buffer = None
    count = blocks = 0
    bound = 0.0
    for rows, phases, modes, step_bound in steps():
        count += 1
        bound += step_bound
        fold = modes.shape[-2]  # time steps per row of phases
        block = max(KRYLOV_DIM, POPULATION_BLOCK // (fold * dim))  # rows of phases per block
        if buffer is None:
            buffer = np.empty((min(block, -(-times.size // fold)), fold * dim), dtype=complex)
        for lo in range(0, phases.shape[0], block):
            hi = min(lo + block, phases.shape[0])
            first, last = rows.start + lo * fold, min(rows.start + hi * fold, rows.stop)
            populations[first:last] = _populations(
                phases[lo:hi], modes, occupations, last - first, buffer[:hi - lo])
            blocks += 1
    if dim >= KRYLOV_MIN_DIM:
        log.info("evolve: %d states, %d Krylov steps of m<=%d, summed bound %.3g, "
                 "%d population blocks of <=%d rows", dim, count, KRYLOV_DIM, bound, blocks,
                 block)
    labels = labels or tuple(f"node_{j}" for j in range(1, populations.shape[1] + 1))
    populations.setflags(write=False)
    return Trajectory(times, populations, tuple(labels), None, steps)


def _amplitudes(phases: np.ndarray, modes: np.ndarray, count: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """The first ``count`` rows of the amplitude table of factors (..., R, m)
    ``phases`` and (..., m, K, dim) ``modes``, with any leading batch axes:
    row a*K + b is phases[a] @ modes[:, b].  The (R, K*dim) product is
    multiplied into ``out`` when that is given."""
    *batch, m, fold, dim = modes.shape
    product = np.matmul(phases, modes.reshape(*batch, m, fold * dim), out=out)
    return product.reshape(*batch, -1, dim)[..., :count, :]


def _populations(phases: np.ndarray, modes: np.ndarray, occupations: np.ndarray | None,
                 count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Populations of the first ``count`` rows of the amplitudes of
    ``_amplitudes``, checked for norm.

    The result is |amplitude|^2 per basis state, or with a (dim, n_nodes)
    occupation matrix the occupation-weighted node populations.  Raises
    ValueError when a row's norm is off by more than ``NORM_TOL``.
    """
    amplitudes = _amplitudes(phases, modes, count, out)
    abs2 = np.square(amplitudes.real)
    abs2 += np.square(amplitudes.imag)
    # Negated so that NaN amplitudes fail the check.
    if not float(np.max(np.abs(abs2 @ np.ones(abs2.shape[-1]) - 1.0))) <= NORM_TOL:
        raise ValueError("evolution failed to conserve the norm")
    return abs2 if occupations is None else abs2 @ occupations


def _krylov_steps(h: HermitianMatrix, psi0: np.ndarray, times: np.ndarray) -> Iterator[Step]:
    """The Krylov steps that carry psi0 from t = 0 across an ascending grid.

    Each step runs ``_lanczos`` from the normalised state at its start, on
    the product of ``_padded_product``, and lasts as long as
    ``_step_length`` certifies it within ``KRYLOV_TOL`` * tau / T, T the
    length of the window from 0, so the bounds of all steps sum to at most
    ``KRYLOV_TOL``.  It yields the grid rows it reaches, the Ritz phases of
    t minus its start weighted by V^dag psi and mapped back to the Lanczos
    basis (their ``_phase_modes`` factors multiplied out by ``_amplitudes``,
    at most ``KRYLOV_DIM`` wide), and the Lanczos vectors as ``modes`` with
    K = 1, which the next step overwrites; the next step starts from
    V (e^{-i L tau} * w).
    Grid times before 0 take a march backward from psi0.  A march that one
    space certifies to its end takes one step (eigenvector starts, a zero H,
    a zero window).
    Raises OutOfRange, before marching on, once the steps taken and the rest
    of the window over the current step's length exceed ``KRYLOV_MAX_STEPS``.
    """
    matvec = _padded_product(h)
    vectors = np.empty((KRYLOV_DIM, h.dim), dtype=complex)
    first = int(np.searchsorted(times, 0.0))  # the rows before it lie before 0
    window = float(np.maximum(times[-1], 0.0) - np.minimum(times[0], 0.0))
    count = 0  # steps taken in both directions
    for sign, lo, hi in ((-1.0, 0, first), (1.0, first, times.size)):
        # The rows lo..hi - 1 are still to reach; the march ends at ``end``.
        state, now, end = psi0, 0.0, float(times[0 if sign < 0 else -1])
        while lo < hi:
            system, beta = _lanczos(matvec, state / np.linalg.norm(state), vectors, window)
            rest = abs(end - now)
            tau, bound = _step_length(beta, rest, window)
            if tau < rest and count + rest / tau > KRYLOV_MAX_STEPS:
                raise OutOfRange(
                    f"a window of {window:.6g} needs about {count + rest / tau:.3g} "
                    f"Krylov steps of length {tau:.3g}, more than {KRYLOV_MAX_STEPS}")
            count += 1
            if tau >= rest:
                rows = slice(lo, hi)
            elif sign > 0:
                rows = slice(lo, int(np.searchsorted(times, now + tau, "right")))
            else:
                rows = slice(int(np.searchsorted(times, now - tau, "left")), hi)
            m = system.dim
            # V^dag state, V = Q Z the Ritz vectors.
            weights = system.eigenvectors.conj().T @ (vectors[:m] @ state.conj()).conj()
            # Coefficients of the step's states on the Lanczos vectors.
            reached = rows.stop - rows.start
            ritz = (_amplitudes(*_phase_modes(times[rows], system.eigenvalues, weights,
                                              system.eigenvectors.T, now), reached)
                    if reached else np.empty((0, m), dtype=complex))
            yield rows, ritz, vectors[:m, None], bound
            lo, hi = (rows.stop, hi) if sign > 0 else (lo, rows.start)
            if lo < hi:
                now += sign * tau
                step = np.exp(-1j * sign * tau * system.eigenvalues) * weights
                state = (system.eigenvectors @ step) @ vectors[:m]


def _padded_product(h: HermitianMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The product x -> h @ x, a new array, on h held as padded rows (an ELL
    layout): (dim, max row degree) ``cols`` and ``values``, each row's
    entries in ascending column order and padded with column 0 and value 0,
    so that (h @ x)[i] = sum_j values[i, j] x[cols[i, j]].

    Duplicate triplets are summed first, in triplet order, as in
    ``HermitianMatrix.matrix``.  Sorted by row, then column, the entries are
    in canonical CSR order, and each row sums in that order, as scipy's
    ``csr_matvec`` does (the padding adds zeros).
    """
    order = np.lexsort((h.cols, h.rows))  # stable: duplicates keep triplet order
    rows, cols = h.rows[order], h.cols[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    values = np.zeros(np.count_nonzero(new), dtype=complex)
    np.add.at(values, np.cumsum(new) - 1, h.values[order])
    rows, cols = rows[new], cols[new]
    degree = np.bincount(rows, minlength=h.dim)
    slot = np.arange(rows.size) - (np.cumsum(degree) - degree)[rows]
    padded_cols = np.zeros((h.dim, int(degree.max(initial=0))), dtype=np.intp)
    padded_values = np.zeros(padded_cols.shape, dtype=complex)
    padded_cols[rows, slot] = cols
    padded_values[rows, slot] = values
    return lambda x: np.einsum("ij,ij->i", padded_values, x[padded_cols])


def _lanczos(matvec: Callable[[np.ndarray], np.ndarray], start: np.ndarray,
             vectors: np.ndarray, window: float) -> tuple[EigenSystem, np.ndarray]:
    """Lanczos from the unit vector ``start`` on h, given by ``matvec``, its
    product with a vector as a new array: the eigensystem of the tridiagonal
    T_m, and its off-diagonal entries beta_1..beta_m, where beta_m is the
    norm of the residual.

    With full reorthogonalisation it fills the rows of ``vectors`` with Q,
    where h Q = Q T_m + beta_m q e_m^T.  It stops when ``vectors`` is full,
    or when beta * window is within ``KRYLOV_TOL`` (see ``_step_length``).
    """
    vectors[0] = start
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(vectors.shape[0]):
        w = matvec(vectors[j])
        if j:
            w -= beta[-1] * vectors[j - 1]
        alpha.append(float(np.vdot(vectors[j], w).real))
        w -= alpha[-1] * vectors[j]
        # Classical Gram-Schmidt against all of Q, repeated when it cancels
        # more than 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart).
        norm = float(np.linalg.norm(w))
        for _ in range(2):
            w -= (vectors[:j + 1] @ w.conj()).conj() @ vectors[:j + 1]
            norm, before = float(np.linalg.norm(w)), norm
            if norm > before / math.sqrt(2.0):
                break
        beta.append(norm)
        if norm * window <= KRYLOV_TOL or j + 1 == vectors.shape[0]:
            break
        vectors[j + 1] = w / norm
    # T_m: alpha on the diagonal, beta_1..beta_{m-1} beside it on both sides.
    k = np.arange(len(alpha))
    off = beta[:-1]
    system = eigendecompose(HermitianMatrix(len(alpha), np.r_[k, k[:-1], k[1:]],
                                            np.r_[k, k[1:], k[:-1]], np.r_[alpha, off, off]))
    return system, np.array(beta)


def _step_length(beta: np.ndarray, rest: float, window: float) -> tuple[float, float]:
    """A step tau <= rest whose certified bound on the Krylov defect is at
    most ``KRYLOV_TOL`` * tau / window, and that bound.

    ``beta`` holds the off-diagonal entries of the Lanczos tridiagonal T_m
    and then its residual norm beta_m.  The Krylov state Q e^{-i T t} e_1 is
    off by at most beta_m * integral_0^|t| |e_m^T e^{-i T s} e_1| ds (Saad,
    SIAM J. Numer. Anal. 29, 209 (1992); Hochbruck & Lubich, ibid. 34, 1911
    (1997)).  The step is the longest one that ``_power_bound`` certifies,
    which has a closed form, and its bound is beta_m times that integral
    bound.  As the integrand is at most 1, a beta_m with beta_m * window
    within the tolerance certifies the rest of the window at once, as does a
    zero rest.
    """
    if beta[-1] * window <= KRYLOV_TOL or rest <= 0:
        return rest, beta[-1] * rest
    # beta_m * _power_bound(tau) is beta_m P / m! times tau^m; it meets
    # KRYLOV_TOL * tau / window where the logs below agree (a hair inside).
    m = beta.size
    log_scale = float(np.sum(np.log(beta))) - math.lgamma(m + 1)
    tau = min(rest, math.exp((math.log(KRYLOV_TOL / window) - log_scale) / (m - 1))
              * (1.0 - 1e-9))
    return tau, beta[-1] * _power_bound(beta[:-1], tau)


def _power_bound(off: np.ndarray, span: float) -> float:
    """Upper bound on the integral over [0, span] of |g(s)|, where
    g(s) = e_m^T e^{-i T s} e_1 for a Hermitian tridiagonal T with
    off-diagonal entries ``off`` = beta_1..beta_{m-1}.

    Decoupling the first site of T by Duhamel's formula gives
    |g(s)| <= beta_1 integral_0^s |e_m^T e^{-i T r} e_2| dr, with the propagator
    of the decoupled block of modulus at most 1; repeating it down the chain
    bounds |g(s)| by P s^(m-1) / (m-1)!, P = beta_1 ... beta_{m-1}, whatever
    the diagonal.  The integral is P span^m / m!, formed in logs.  Unlike
    an evaluation of g, it has no rounding floor, so it certifies steps
    within any share of the tolerance.
    """
    m = off.size + 1
    return math.exp(float(np.sum(np.log(off))) + m * math.log(span) - math.lgamma(m + 1))


def _uniform_phases(t0: float, step: float, count: int, width: int,
                    energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors of exp(-i E t_j) on the uniform grid t_j = t0 + j*step, j < count.

    With K = ``width`` and j = a*K + b, exp(-i E t_j) = P[a] * Q[b], where
    P[a] = exp(-i E a K step) and Q[b] = exp(-i E (t0 + b step)); the
    row-major products of P's and Q's rows, cut to ``count``, are the phase
    table.  They cost about count / K + K exponentials per energy instead of
    ``count``.  ``energies`` may carry leading batch axes, which P and Q keep
    in front of their (rows, energies) axes.
    """
    rows = -(-count // width)
    big = np.exp(-1j * _outer(np.arange(rows) * width * step, energies))
    small = np.exp(-1j * _outer(t0 + np.arange(width) * step, energies))
    return big, small


def _fold(count: int, dim: int) -> int:
    """K of ``_phase_modes`` on ``count`` grid points against modes of
    ``dim`` entries: ceil(sqrt(count)), cut where needed so that K * dim <
    count, and at least 1.  The (m, K, dim) fold is then never larger than
    the (count, m) phase table, and at K = 1 it is the size of the modes."""
    return max(1, min(math.isqrt(count - 1) + 1, (count - 1) // dim))


def _outer(times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """``np.outer(times, energies)`` for each row of a batch of energies."""
    return times[:, None] * energies[..., None, :]


def _phase_modes(times: np.ndarray, energies: np.ndarray, weights: np.ndarray,
                 modes: np.ndarray, origin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Factors (phases, (..., m, K, dim) modes) of ``_amplitudes`` for the
    amplitude table (weights * exp(-i E t)) @ modes on a grid, t the grid
    times less ``origin``, ``modes`` an (..., m, dim) array with the batch
    axes of ``energies``.

    On a grid uniform to rounding, |t_j - (t_0 + j step)| <= 8 eps max(1,
    max|times|), they are P of ``_uniform_phases`` with K = ``_fold`` and the
    fold Q[b, m] * weights[m] * modes[m] at [m, b], whose product with P has
    the phase table's multiply-add count.  On any other grid they are the
    direct weights * exp(-i E t) and the modes with K = 1.  The tolerance
    scales with the grid times before the shift, as their rounding does.
    """
    count = times.size
    tol = 8.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(times))))
    times = times - origin
    step = (times[-1] - times[0]) / (count - 1) if count > 1 else 0.0
    # Negated so that NaN or inf times fall to the direct path.
    if not float(np.max(np.abs(times - (times[0] + np.arange(count) * step)))) <= tol:
        return np.exp(-1j * _outer(times, energies)) * weights[..., None, :], modes[..., None, :]
    *batch, m, dim = modes.shape
    big, small = _uniform_phases(times[0], step, count, _fold(count, dim), energies)
    small *= weights[..., None, :]
    folded = np.empty((*batch, m, small.shape[-2], dim), dtype=complex)
    np.multiply(np.swapaxes(small, -1, -2)[..., None], modes[..., None, :], out=folded)
    return big, folded


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


def average_fidelity(populations: np.ndarray, corner_nodes):
    """Mean over the given 1-based nodes of the peak amplitude modulus on that node.

    ``populations`` is (..., n_times, n_nodes), one trajectory's or a stack
    of them; the result holds one value per leading index (a float for a
    single trajectory).  The per-node modulus is sqrt of the node population,
    which reduces to |C_j(t)| in a single-excitation sector; the root is
    taken after the time maximum, which is bitwise the same because a
    correctly rounded sqrt is monotone.  A label outside 1..n_nodes raises
    OutOfRange.
    """
    corner_nodes = _node_columns(corner_nodes, populations.shape[-1])
    if populations.shape[-2] == 0 or not corner_nodes:
        raise EmptyWindow("trajectory window or node list is empty")
    # Indexing copies the columns out node-major, so the time maximum runs
    # over contiguous memory instead of a strided middle axis.  Its node-major
    # result is laid out row by row again, so that each row's mean sums in
    # the order of a single trajectory's (a strided mean over more than 8
    # nodes rounds differently).
    peaks = np.ascontiguousarray(populations[..., corner_nodes].max(axis=-2))
    return np.sqrt(peaks).mean(axis=-1)


@dataclass(frozen=True)
class WindowPeaks:
    """Per-node maxima of a spectral sum on a window (see ``window_peaks``).

    ``certificates`` holds an upper bound on each true maximum less the
    value returned.  ``refined`` counts the nodes whose Newton solve had a
    bracket, ``bisected`` the nodes that bisection still had to search.
    """

    values: np.ndarray  # (..., n_nodes)
    times: np.ndarray
    certificates: np.ndarray
    refined: int
    bisected: int


# Overflowing levels make bounds inf or NaN, which then certify nothing.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def window_peaks(energies, coefficients, t0: float, step: float, scan) -> WindowPeaks:
    """Certified maximum of F_j(t) = |A_j(t)|^2, A_j = sum_k c_jk e^{-i E_k t},
    over a window, per node j.

    ``energies`` is (..., m), ``coefficients`` the (..., n, m) c_jk, such as
    V_jk (V^dag psi0)_k, and ``scan`` the (..., T, n) values F_j(t0 + i step),
    i < T, such as populations already checked for norm; the window is
    [t0, t0 + (T - 1) step].  Per node, with Q = sum_k |c_k| (E_k - E)^2
    about the |c|-weighted mean level E (so |A''| <= Q), with
    M = sum_kl |c_k||c_l| (E_k - E_l)^2 = 2 Q sum_k |c_k| (so |F''| <= M) and
    with L = sum_kl |c_k||c_l||E_k - E_l|^3 (so |F'''| <= L):

    - on an interval of width h, sqrt(F) = |A| is at most its larger end
      value plus Q h^2 / 8 (``_interval_bounds``), and intervals whose bound
      is within the tolerance of the best value are set aside;
    - a safeguarded Newton solve of F' = 0 starts from the best sample, on
      the bracket of its neighbour on the climbing side, as in
      ``experiments._revival_peak``.  Where it ends at t* with F''(t*) < 0,
      the cubic Taylor bound keeps F below F(t*) + |F'(t*)| r within
      r = -3 F''(t*) / L of t*.  Where the best sample is at an edge of the
      window and F' points out of it, F stays below that sample within
      2 |F'| / M of the edge;
    - every interval still above the best value by more than the tolerance
      is bisected, at most ``_MAX_HALVINGS`` times, while the node has at
      most ``_MAX_INTERVALS`` intervals per scan interval (plus 64) and a
      finite bound on each.

    The tolerance is ``PEAK_TOL`` times the node's ceiling (sum_k |c_k|)^2,
    which F never exceeds, and a node whose best value comes within it of
    the ceiling stops.  The certificate is the largest bound of any part of
    the window, capped by the ceiling, less the value returned: at most the
    tolerance, rounding of F (about 1e-16 of the ceiling) apart, unless a
    limit of the bisection stopped the node, as on a scan far coarser than
    1 / W (W the spectral width) or with overflowing levels.  On
    sqrt(F) that is at most sqrt(tolerance), as sqrt(F + g) - sqrt(F) <=
    sqrt(g), and at most tolerance / (2 sqrt(F)).  Each step is elementwise
    per node or a sum over that node's levels, so a node's result does not
    depend on the rest of the batch.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    *shape, m = coefficients.shape
    count = scan.shape[-2]
    c = coefficients.reshape(-1, m)
    levels = np.broadcast_to(np.asarray(energies, dtype=float)[..., None, :],
                             coefficients.shape).reshape(-1, m)
    samples = np.swapaxes(scan, -1, -2).reshape(-1, count)
    size = np.abs(c)
    total = size.sum(axis=-1)
    ceiling = np.square(total)
    tol = PEAK_TOL * ceiling
    # |A''| <= bend about the |c|-weighted mean level, which leaves |A| = sqrt(F)
    # unchanged, and M = 2 * total * bend.
    mean = np.divide((size * levels).sum(axis=-1), total, out=np.zeros_like(total),
                     where=total > 0)
    bend = (size * np.square(levels - mean[:, None])).sum(axis=-1)
    curvature = 2.0 * total * bend
    jerk = np.zeros(c.shape[0])  # L
    for k in range(m):
        gap = np.abs(levels - levels[:, k, None])
        jerk += (size[:, k, None] * size * gap * gap * gap).sum(axis=-1)

    index = samples.argmax(axis=-1)
    best = samples[np.arange(index.size), index]
    is_open = best < ceiling - tol
    open_nodes = np.flatnonzero(is_open)
    best_t = t0 + index * step
    # The certified region of each Newton solve: F <= top within radius of centre.
    centre = np.full(index.size, np.nan)
    radius = np.zeros(index.size)
    top = np.full(index.size, np.inf)
    refined = 0
    if count > 1 and open_nodes.size:
        sel = open_nodes
        t, f, slope, curv, bracketed = _newton_peaks(c[sel], levels[sel], t0, step, count,
                                                     index[sel])
        refined = int(np.count_nonzero(bracketed))
        interior = bracketed & (curv < 0)
        # A best sample at an edge whose slope points out of the window.
        edge = ~bracketed & (((index[sel] == 0) & (slope < 0))
                             | ((index[sel] == count - 1) & (slope > 0)))
        # Zero bounds leave no region: F is then constant, and so are the
        # interval bounds.
        radius[sel] = np.where(interior & (jerk[sel] > 0), -3.0 * curv / jerk[sel],
                               np.where(edge & (curvature[sel] > 0),
                                        2.0 * np.abs(slope) / curvature[sel], 0.0))
        centre[sel] = t
        top[sel] = f + np.where(interior, np.abs(slope) * radius[sel], 0.0)
        gain = f > best[sel]
        best[sel[gain]] = f[gain]
        best_t[sel[gain]] = t[gain]

    # The scan intervals within the tolerance of the best value are set
    # aside at once, and the largest of their bounds kept; the ceiling
    # settles the nodes left out of the search.  The rest go on as (node,
    # interval) rows.
    bound = _interval_bounds(samples[:, :-1], samples[:, 1:],
                             (bend * (0.125 * step * step))[:, None])
    keep = (bound > (best + tol)[:, None]) & is_open[:, None]
    bound[keep] = -np.inf
    upper = np.where(is_open, bound.max(axis=-1, initial=-np.inf), np.inf)
    node, cols = np.nonzero(keep)
    lo = t0 + cols * step
    f_lo, f_hi = samples[node, cols], samples[node, cols + 1]
    width = step
    bisected = 0
    for level in range(_MAX_HALVINGS + 1):
        bound = _interval_bounds(f_lo, f_hi, bend[node] * (0.125 * width * width))
        inside = ((lo >= centre[node] - radius[node])
                  & (lo + width <= centre[node] + radius[node]))
        bound = np.where(inside, np.fmin(bound, top[node]), bound)
        keep = (bound > best[node] + tol[node]) & (best[node] < ceiling[node] - tol[node])
        # An interval whose bound overflowed stays set aside, as do the
        # intervals of a node that would outgrow ``_MAX_INTERVALS`` scans (as
        # where the scan is far coarser than 1 / W), and every node's after the
        # last halving: their bounds enter the certificates.
        keep &= np.isfinite(bound)
        keep &= (np.bincount(node[keep], minlength=index.size)[node]
                 <= _MAX_INTERVALS * (count - 1) + 64)
        if level == _MAX_HALVINGS:
            keep[:] = False
        np.maximum.at(upper, node[~keep], bound[~keep])
        node, lo, f_lo, f_hi = node[keep], lo[keep], f_lo[keep], f_hi[keep]
        if not node.size:
            break
        if level == 0:
            bisected = np.unique(node).size
        width *= 0.5
        mid = lo + width
        (f_mid,) = _spectral(c[node], levels[node], mid, derivatives=False)
        # The largest midpoint of each node, the earliest among equals.
        order = np.lexsort((-f_mid, node))
        first = order[np.concatenate(([True], node[order[1:]] != node[order[:-1]]))]
        first = first[f_mid[first] > best[node[first]]]
        best[node[first]] = f_mid[first]
        best_t[node[first]] = mid[first]
        # The halves of each interval, in time order.
        node = np.repeat(node, 2)
        lo, f_lo, f_hi = _interleave(lo, mid), _interleave(f_lo, f_mid), _interleave(f_mid, f_hi)
    certificates = np.maximum(np.minimum(np.maximum(upper, best), ceiling) - best, 0.0)
    return WindowPeaks(best.reshape(shape), best_t.reshape(shape),
                       certificates.reshape(shape), refined, bisected)


def _interval_bounds(f_lo: np.ndarray, f_hi: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Upper bounds on F = |A|^2 over intervals with end values f_lo and
    f_hi: a linear interpolation of A between the ends is no longer than
    the longer end, and A is off it by at most |A''| h^2 / 8 = ``gap``.
    That is max(f_lo, f_hi) + M h^2 / 8 less 2 gap (sqrt(ceiling) -
    sqrt(f)) - gap^2, so far tighter where F peaks well below its ceiling."""
    bound = np.maximum(f_lo, f_hi)
    np.sqrt(bound, out=bound)
    bound += gap
    np.square(bound, out=bound)
    # A NaN end value or gap bounds nothing.
    bound[np.isnan(bound)] = np.inf
    return bound


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """first[0], second[0], first[1], second[1], ..."""
    out = np.empty(2 * first.size)
    out[0::2] = first
    out[1::2] = second
    return out


def _newton_peaks(c: np.ndarray, levels: np.ndarray, t0: float, step: float, count: int,
                  index: np.ndarray) -> tuple[np.ndarray, ...]:
    """Safeguarded Newton on F' = 0 for each row, from the scan sample
    ``index`` of t0 + i step, i < count: ``experiments._revival_peak``'s
    loop, one row per node, run under ``window_peaks``'s floating-point error
    state.  Returns t, F, F', F'' at the end and whether a root was
    bracketed (where not, t is the sample)."""
    t = t0 + index * step
    f, slope, curv = _spectral(c, levels, t)
    other = t0 + np.where(slope > 0, np.minimum(index + 1, count - 1),
                          np.maximum(index - 1, 0)) * step
    # Where F' has no sign change, the maximum is at the window's edge, or
    # the scan does not resolve F there.
    bracketed = slope * _spectral(c, levels, other)[1] < 0
    # F' > 0 at ``rising`` and < 0 at ``falling``: a maximum lies between.
    rising = np.where(slope > 0, t, other)
    falling = np.where(slope > 0, other, t)
    active = np.flatnonzero(bracketed)
    for _ in range(64):  # bisection alone reaches 4 ulps in fewer halvings
        if not active.size:
            break
        now, rate, bend = t[active], slope[active], curv[active]
        rising[active] = np.where(rate > 0, now, rising[active])
        falling[active] = np.where(rate < 0, now, falling[active])
        ends = rising[active], falling[active]
        # Newton from t, an end of the bracket; where F'' >= 0 it would descend.
        new = np.where(bend < 0, now - rate / bend, np.inf)
        new = np.where((np.minimum(*ends) <= new) & (new <= np.maximum(*ends)),
                       new, 0.5 * (ends[0] + ends[1]))
        moving = (rate != 0) & (np.abs(new - now) > 4.0 * np.spacing(np.abs(now)))
        active = active[moving]
        t[active] = new[moving]
        f[active], slope[active], curv[active] = _spectral(c[active], levels[active], t[active])
    return t, f, slope, curv, bracketed


def _spectral(c: np.ndarray, levels: np.ndarray, t: np.ndarray,
              derivatives: bool = True) -> tuple[np.ndarray, ...]:
    """F = |A|^2, A = sum_k c_k e^{-i E_k t}, row by row at the times t, and
    with ``derivatives`` F' and F''.  With s_p = sum_k E_k^p c_k e^{-i E_k t},
    A' = -i s_1 and A'' = -s_2."""
    terms = c * np.exp(-1j * (levels * t[:, None]))
    a = terms.sum(axis=-1)
    f = np.square(a.real) + np.square(a.imag)
    if not derivatives:
        return (f,)
    s1 = (terms * levels).sum(axis=-1)
    s2 = (terms * (levels * levels)).sum(axis=-1)
    return (f, 2.0 * (a.conj() * s1).imag,
            2.0 * (np.square(s1.real) + np.square(s1.imag) - (a.conj() * s2).real))


def _node_columns(nodes, n_nodes: int) -> list[int]:
    """0-based columns of 1-based node labels; OutOfRange for a label outside
    1..n_nodes, which would otherwise wrap around to another node."""
    columns = [j - 1 for j in nodes]
    if not all(0 <= c < n_nodes for c in columns):
        raise OutOfRange(f"node labels {[c + 1 for c in columns]} outside 1..{n_nodes}")
    return columns


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


def rows_to_csv(rows, header: str) -> str:
    """Render rows as CSV under a header line: floats (``np.float64``
    included, ``np.float32`` not) with 12 significant digits, anything else
    through ``str``.

    Each row is formatted by one ``%`` format string, made once per tuple of
    value types.
    """
    formats: dict[tuple[type, ...], str] = {}
    lines = [header]
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                ["%.12g" if issubclass(t, float) else "%s" for t in types])
        lines.append(fmt % row)
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render populations as CSV with 12 significant digits."""
    # ``tolist`` hands over Python floats, which format faster than NumPy's.
    rows = np.column_stack([traj.times, traj.populations]).tolist()
    return rows_to_csv(rows, "t," + ",".join(traj.labels))


def basis_state(dim: int, index: int) -> np.ndarray:
    """Unit vector |index> (0-based) in a dim-dimensional space."""
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi
