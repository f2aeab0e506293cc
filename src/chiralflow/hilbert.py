"""Occupation-number bases for fixed-excitation subspaces and operator matrices on them.

Site labels are 1-based throughout the public API (site ``n_sites`` is the
last one); occupation vectors are plain tuples indexed 0-based.  Basis order
is lexicographic descending on occupation vectors, so bases are reproducible
across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityOverflow, DimensionMismatch, SpecMismatch, SpinOverflow

BOSON = "boson"
SPIN = "spin"


@dataclass(frozen=True)
class Statistics:
    """Per-site occupation rule: capped bosons or hard-core spin-1/2.

    ``max_occupation=None`` for bosons means "no explicit cap"; the basis
    builder then caps at the total excitation number, which is exact for
    number-conserving dynamics.
    """

    kind: str
    max_occupation: int | None = None

    def __post_init__(self):
        if self.kind not in (BOSON, SPIN):
            raise ValueError(f"unknown statistics kind {self.kind!r}")
        if self.kind == SPIN and self.max_occupation not in (None, 1):
            raise ValueError("spin sites hold at most one excitation")
        if self.max_occupation is not None and self.max_occupation < 1:
            raise ValueError("max_occupation must be >= 1")

    @classmethod
    def boson(cls, max_occupation: int | None = None) -> "Statistics":
        return cls(BOSON, max_occupation)

    @classmethod
    def spin(cls) -> "Statistics":
        return cls(SPIN, 1)

    @property
    def is_spin(self) -> bool:
        return self.kind == SPIN

    def site_cap(self, n_excitations: int) -> int:
        if self.kind == SPIN:
            return 1
        if self.max_occupation is None:
            return n_excitations
        return min(self.max_occupation, n_excitations)


@dataclass(frozen=True)
class Hopping:
    """The Hermitian pair ``amplitude * exp(i*phase) * a_j^dag a_k + h.c.``"""

    j: int
    k: int
    amplitude: float
    phase: float

    def coefficient(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True)
class OnSite:
    """Diagonal term ``delta_omega * n_j + kerr_u * n_j**2`` on site j."""

    j: int
    delta_omega: float = 0.0
    kerr_u: float = 0.0


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered occupation-vector basis of a fixed-excitation subspace."""

    n_sites: int
    n_excitations: int
    statistics: Statistics
    states: tuple[tuple[int, ...], ...]
    index: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return len(self.states)

    def occupation_matrix(self) -> np.ndarray:
        """(dim, n_sites) array with occupations of every basis state."""
        return np.array(self.states, dtype=float).reshape(len(self.states), self.n_sites)

    def state_index(self, occupations) -> int:
        return self.index[tuple(int(n) for n in occupations)]

    def unit_vector(self, occupations) -> np.ndarray:
        """Basis vector of one occupation pattern, as complex amplitudes."""
        vec = np.zeros(len(self.states), dtype=complex)
        vec[self.state_index(occupations)] = 1.0
        return vec


def occupation(n_sites: int, *sites: int) -> tuple[int, ...]:
    """Occupation vector with one excitation on each given 1-based site."""
    occ = [0] * n_sites
    for site in sites:
        occ[site - 1] += 1
    return tuple(occ)


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense complex square matrix that is Hermitian exactly as constructed."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(m, m.conj().T):
            raise ValueError("matrix is not exactly Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _descending_occupations(n_sites: int, remaining: int, cap: int):
    if n_sites == 0:
        if remaining == 0:
            yield ()
        return
    top = min(cap, remaining)
    for occ in range(top, -1, -1):
        for rest in _descending_occupations(n_sites - 1, remaining - occ, cap):
            yield (occ,) + rest


def subspace_dimension(n_sites: int, n_excitations: int, statistics: Statistics) -> int:
    """Closed-form dimension; capped bosons fall back to enumeration."""
    if statistics.is_spin:
        return math.comb(n_sites, n_excitations)
    cap = statistics.site_cap(n_excitations)
    if cap >= n_excitations:
        return math.comb(n_sites + n_excitations - 1, n_excitations)
    return sum(1 for _ in _descending_occupations(n_sites, n_excitations, cap))


def enumerate_basis(n_sites: int, n_excitations: int, statistics: Statistics) -> SubspaceBasis:
    """Enumerate all occupation vectors with the given total excitation number.

    Ordering is lexicographic descending, e.g. 3 sites / 2 bosons gives
    (2,0,0), (1,1,0), (1,0,1), (0,2,0), (0,1,1), (0,0,2).
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if n_excitations < 0:
        raise ValueError("n_excitations must be >= 0")
    if statistics.is_spin and n_excitations > n_sites:
        raise SpinOverflow(
            f"{n_excitations} excitations do not fit on {n_sites} spin sites"
        )
    cap = statistics.site_cap(n_excitations) if n_excitations > 0 else 0
    if not statistics.is_spin and cap * n_sites < n_excitations:
        raise CapacityOverflow(
            f"cap {cap} on {n_sites} sites cannot hold {n_excitations} excitations"
        )
    states = tuple(_descending_occupations(n_sites, n_excitations, cap))
    if not states:
        raise CapacityOverflow("occupation cap leaves the subspace empty")
    index = {state: i for i, state in enumerate(states)}
    return SubspaceBasis(n_sites, n_excitations, statistics, states, index)


def matrix_element(bra, ket, term, statistics: Statistics = Statistics.boson()) -> complex:
    """Matrix element of a single Hermitian network term between occupation vectors.

    For a :class:`Hopping` the full pair ``J e^{i theta} a_j^dag a_k + h.c.``
    is evaluated, so both hop directions contribute; on-site terms are
    diagonal.  Returns 0 for states the term does not connect.
    """
    bra = tuple(bra)
    ket = tuple(ket)
    if len(bra) != len(ket):
        raise DimensionMismatch("bra and ket have different site counts")
    if isinstance(term, OnSite):
        if bra != ket:
            return 0.0 + 0.0j
        n = ket[term.j - 1]
        return complex(term.delta_omega * n + term.kerr_u * n * n)
    value = 0.0 + 0.0j
    coeff = term.coefficient()
    value += coeff * _transfer_factor(bra, ket, term.j, term.k, statistics)
    value += coeff.conjugate() * _transfer_factor(bra, ket, term.k, term.j, statistics)
    return value


def _transfer_factor(bra, ket, dst: int, src: int, statistics: Statistics) -> float:
    """<bra| a_dst^dag a_src |ket> on raw occupation vectors (1-based sites)."""
    d, s = dst - 1, src - 1
    if ket[s] == 0:
        return 0.0
    if statistics.is_spin and ket[d] == 1:
        return 0.0
    moved = list(ket)
    moved[s] -= 1
    moved[d] += 1
    if tuple(moved) != bra:
        return 0.0
    return math.sqrt(ket[s]) * math.sqrt(ket[d] + 1)


def build_hamiltonian(spec, basis: SubspaceBasis) -> HermitianMatrix:
    """Assemble the subspace Hamiltonian of a network spec on a basis.

    ``spec`` must expose ``n_sites``, ``hoppings`` (list of :class:`Hopping`),
    ``onsite`` (list of :class:`OnSite`) and ``statistics``.  The result is one
    fixed-excitation block; it commutes with the total number operator by
    construction.  Hops that would exceed a boson cap are dropped (the target
    state is outside the basis), which keeps the truncation Hermitian.
    """
    if spec.n_sites != basis.n_sites:
        raise SpecMismatch(
            f"spec has {spec.n_sites} sites but basis has {basis.n_sites}"
        )
    if spec.statistics != basis.statistics:
        raise SpecMismatch("spec and basis disagree on statistics")
    dim = len(basis)
    h = np.zeros((dim, dim), dtype=complex)
    spin = spec.statistics.is_spin
    for hop in spec.hoppings:
        if not (1 <= hop.j <= spec.n_sites and 1 <= hop.k <= spec.n_sites):
            raise SpecMismatch(f"hopping {hop} references a nonexistent site")
        coeff = hop.coefficient()
        d, s = hop.j - 1, hop.k - 1
        for col, state in enumerate(basis.states):
            if state[s] == 0:
                continue
            if spin and state[d] == 1:
                continue
            moved = list(state)
            moved[s] -= 1
            moved[d] += 1
            row = basis.index.get(tuple(moved))
            if row is None:  # outside an explicit boson cap
                continue
            amp = coeff * math.sqrt(state[s]) * math.sqrt(state[d] + 1)
            h[row, col] += amp
            h[col, row] += amp.conjugate()
    for term in spec.onsite:
        if not 1 <= term.j <= spec.n_sites:
            raise SpecMismatch(f"on-site term {term} references a nonexistent site")
        for i, state in enumerate(basis.states):
            n = state[term.j - 1]
            h[i, i] += term.delta_omega * n + term.kerr_u * n * n
    return HermitianMatrix(h)


def number_operator(basis: SubspaceBasis) -> np.ndarray:
    """Diagonal total-occupation operator on the basis (constant block)."""
    totals = [sum(state) for state in basis.states]
    return np.diag(np.array(totals, dtype=float))


def full_space_index(state, local_dim: int = 2) -> int:
    """Tensor-product index of an occupation vector; site 1 is the most
    significant digit and each site contributes a factor ``local_dim``."""
    idx = 0
    for n in state:
        if n >= local_dim:
            raise CapacityOverflow(f"occupation {n} exceeds local dimension {local_dim}")
        idx = idx * local_dim + int(n)
    return idx


def embedding_indices(basis: SubspaceBasis, local_dim: int = 2) -> np.ndarray:
    """Full tensor-space index of every basis state, in basis order."""
    return np.array([full_space_index(s, local_dim) for s in basis.states], dtype=int)


def sector_block(full_matrix: np.ndarray, basis: SubspaceBasis, local_dim: int = 2) -> np.ndarray:
    """Restrict a full tensor-space operator to a fixed-excitation basis."""
    full_matrix = np.asarray(full_matrix)
    expected = local_dim ** basis.n_sites
    if full_matrix.shape != (expected, expected):
        raise DimensionMismatch(
            f"expected {(expected, expected)} matrix, got {full_matrix.shape}"
        )
    idx = embedding_indices(basis, local_dim)
    return full_matrix[np.ix_(idx, idx)]


def embed_state(amplitudes, basis: SubspaceBasis, local_dim: int = 2) -> np.ndarray:
    """Embed subspace amplitudes into the full tensor-product space."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (len(basis),):
        raise DimensionMismatch("amplitude vector does not match basis dimension")
    full = np.zeros(local_dim ** basis.n_sites, dtype=complex)
    full[embedding_indices(basis, local_dim)] = amplitudes
    return full
