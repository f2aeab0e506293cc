"""Occupation-number bases for fixed-excitation subspaces and operators on them.

Site labels are 1-based throughout the public API (site ``n_sites`` is the
last one); occupation vectors are plain tuples indexed 0-based.  Basis order
is lexicographic descending on occupation vectors, so bases are reproducible
across runs and platforms.  Sector Hamiltonians are kept as COO triplets
(:class:`HermitianMatrix`), so a large sector never needs a dense dim x dim
array unless a caller asks for ``.matrix``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityOverflow, DimensionMismatch, SpecMismatch


@dataclass(frozen=True)
class Statistics:
    """Per-site occupation cap.  A spin-1/2 site is a boson capped at one
    (the hard-core lattice-gas mapping).

    ``max_occupation=None`` means "no explicit cap"; the basis builder then
    caps at the total excitation number, which is exact for
    number-conserving dynamics.
    """

    max_occupation: int | None = None

    def __post_init__(self):
        if self.max_occupation is not None and self.max_occupation < 1:
            raise ValueError("max_occupation must be >= 1")

    @classmethod
    def boson(cls, max_occupation: int | None = None) -> "Statistics":
        return cls(max_occupation)

    @classmethod
    def spin(cls) -> "Statistics":
        return cls(1)

    @property
    def is_spin(self) -> bool:
        return self.max_occupation == 1

    def site_cap(self, n_excitations: int) -> int:
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
    """Hermitian dim x dim operator as COO triplets: entry ``values[i]`` at
    ``(rows[i], cols[i])``, duplicates summed in triplet order.  It is the
    only operator type the spectral and propagation layers take.

    The triplets must hold every off-diagonal entry together with its
    conjugate mirror; the constructor checks shapes, finiteness and that
    every index lies in ``range(dim)``, not Hermiticity.  ``build_hamiltonian``
    emits each entry next to its mirror, and ``models.three_body_spin``
    checks its dense matrix before passing its nonzero entries.  Scaling the
    values by a real factor (``dataclasses.replace``) keeps it Hermitian.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        values = np.asarray(self.values, dtype=complex)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != values.shape:
            raise DimensionMismatch(
                f"triplets of shapes {rows.shape}, {cols.shape}, {values.shape}")
        # Viewed as unsigned, a negative index exceeds any dim.
        if rows.size and np.maximum(rows.view(np.uintp), cols.view(np.uintp)).max() >= self.dim:
            raise DimensionMismatch(f"triplet indices outside range({self.dim})")
        if not np.isfinite(values.view(float)).all():
            raise ValueError("matrix entries must be finite")
        for name, arr in (("rows", rows), ("cols", cols), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Read-only dense form; the triplets are added in order, as a dense
        ``h[row, col] += value`` loop would."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        np.add.at(m, (self.rows, self.cols), self.values)
        m.setflags(write=False)
        return m


def _capped_occupations(n_sites: int, n_excitations: int, cap: int) -> list[tuple[int, ...]]:
    """Occupation vectors in descending lexicographic order: the ascending
    site multisets that ``itertools`` yields map onto exactly that order."""
    choose = itertools.combinations if cap == 1 else itertools.combinations_with_replacement
    multisets = choose(range(1, n_sites + 1), n_excitations)
    states = (occupation(n_sites, *sites) for sites in multisets)
    return [state for state in states if max(state) <= cap]


def enumerate_basis(n_sites: int, n_excitations: int, statistics: Statistics) -> SubspaceBasis:
    """Enumerate all occupation vectors with the given total excitation number.

    Ordering is lexicographic descending, e.g. 3 sites / 2 bosons gives
    (2,0,0), (1,1,0), (1,0,1), (0,2,0), (0,1,1), (0,0,2).
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if n_excitations < 0:
        raise ValueError("n_excitations must be >= 0")
    cap = statistics.site_cap(n_excitations)
    if cap * n_sites < n_excitations:
        raise CapacityOverflow(
            f"cap {cap} on {n_sites} sites cannot hold {n_excitations} excitations"
        )
    states = tuple(_capped_occupations(n_sites, n_excitations, cap))
    index = {state: i for i, state in enumerate(states)}
    return SubspaceBasis(n_sites, n_excitations, statistics, states, index)


def build_hamiltonian(spec, basis: SubspaceBasis) -> HermitianMatrix:
    """Assemble the subspace Hamiltonian of a network spec on a basis.

    ``spec`` must expose ``n_sites``, ``hoppings`` (list of :class:`Hopping`),
    ``onsite`` (list of :class:`OnSite`) and ``statistics``.  The result is one
    fixed-excitation block; it commutes with the total number operator by
    construction.  Hops that would exceed the occupation cap (a spin site holds
    one) are dropped, because the target state is outside the basis; that
    keeps the truncation Hermitian.
    """
    if spec.n_sites != basis.n_sites:
        raise SpecMismatch(
            f"spec has {spec.n_sites} sites but basis has {basis.n_sites}"
        )
    if spec.statistics != basis.statistics:
        raise SpecMismatch("spec and basis disagree on statistics")
    # Each hopping entry is followed by its conjugate mirror, and the on-site
    # terms come last, state by state: the order of a dense ``+=`` loop.
    rows: list[int] = []
    cols: list[int] = []
    values: list[complex] = []
    for hop in spec.hoppings:
        if not (1 <= hop.j <= spec.n_sites and 1 <= hop.k <= spec.n_sites):
            raise SpecMismatch(f"hopping {hop} references a nonexistent site")
        coeff = hop.coefficient()
        d, s = hop.j - 1, hop.k - 1
        for col, state in enumerate(basis.states):
            if state[s] == 0:
                continue
            moved = list(state)
            moved[s] -= 1
            moved[d] += 1
            row = basis.index.get(tuple(moved))
            if row is None:  # outside the occupation cap
                continue
            amp = coeff * math.sqrt(state[s]) * math.sqrt(state[d] + 1)
            rows += (row, col)
            cols += (col, row)
            values += (amp, amp.conjugate())
    for term in spec.onsite:
        if not 1 <= term.j <= spec.n_sites:
            raise SpecMismatch(f"on-site term {term} references a nonexistent site")
        for i, state in enumerate(basis.states):
            n = state[term.j - 1]
            rows.append(i)
            cols.append(i)
            values.append(term.delta_omega * n + term.kerr_u * n * n)
    return HermitianMatrix(len(basis), rows, cols, values)


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
