"""Occupation-number bases for fixed-excitation subspaces and operators on them.

Site labels are 1-based throughout the public API (site ``n_sites`` is the
last one).  A basis holds its occupation vectors as one read-only
(dim, n_sites) unsigned-integer array, indexed 0-based by site, in
lexicographic descending order, so bases are reproducible across runs and
platforms.  States are ranked by binary search on byte keys of that order,
and a Hamiltonian is assembled by applying each hopping to every state at
once, with no loop over states.  Sector Hamiltonians are kept as COO triplets
(:class:`HermitianMatrix`), so a large sector never needs a dense dim x dim
array unless a caller asks for ``.matrix``.  The triplet values are filled
from arrays of hopping coefficients and on-site terms, one row per spec, so
specs that share their hopping pairs and on-site sites fill at once, as one
stacked :class:`HermitianMatrix`.
"""

from __future__ import annotations

import functools
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
    """Ordered occupation-vector basis of a fixed-excitation subspace.

    ``occupations`` is the read-only (dim, n_sites) unsigned-integer array of
    the occupation vectors, row i being basis state i.  The sizes and the
    statistics determine the states, so bases compare by those alone.
    """

    n_sites: int
    n_excitations: int
    statistics: Statistics
    occupations: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.occupations.setflags(write=False)

    def __len__(self) -> int:
        return self.occupations.shape[0]

    @functools.cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """The occupation vectors as tuples of ints, in basis order."""
        return tuple(map(tuple, self.occupations.tolist()))

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        return _order_keys(self.occupations)

    def occupation_matrix(self) -> np.ndarray:
        """(dim, n_sites) float array with occupations of every basis state."""
        return self.occupations.astype(float)

    def state_index(self, occupations) -> int:
        """Position of an occupation vector in the basis; KeyError if it is
        not a state of the basis."""
        occ = tuple(int(n) for n in occupations)
        cap = self.statistics.site_cap(self.n_excitations)
        if (len(occ) != self.n_sites or sum(occ) != self.n_excitations
                or not all(0 <= n <= cap for n in occ)):
            raise KeyError(occ)
        key = _order_keys(np.array([occ], dtype=self.occupations.dtype))
        return int(np.searchsorted(self._keys, key)[0])

    def unit_vector(self, occupations) -> np.ndarray:
        """Basis vector of one occupation pattern, as complex amplitudes."""
        vec = np.zeros(len(self), dtype=complex)
        vec[self.state_index(occupations)] = 1.0
        return vec


def _order_keys(occupations: np.ndarray) -> np.ndarray:
    """One bytes key per row of an unsigned occupation array, ascending in
    the basis order: each occupation n becomes the big-endian bytes of
    M - n, M the largest value of the dtype, so descending lexicographic
    order on the rows is ascending byte order on the keys."""
    flipped = (np.iinfo(occupations.dtype).max - occupations).astype(
        occupations.dtype.newbyteorder(">"))
    return flipped.view(f"S{flipped.shape[1] * flipped.itemsize}").ravel()


def occupation(n_sites: int, *sites: int) -> tuple[int, ...]:
    """Occupation vector with one excitation on each given 1-based site."""
    occ = [0] * n_sites
    for site in sites:
        occ[site - 1] += 1
    return tuple(occ)


@dataclass(frozen=True)
class HermitianMatrix:
    """Hermitian dim x dim operator as COO triplets: entry ``values[..., i]``
    at ``(rows[i], cols[i])``, duplicates summed in triplet order.  It is the
    only operator type the spectral and propagation layers take.

    Leading axes of ``values`` make a stack of matrices on one pattern (rows
    and cols), one row of values each.  The triplets must hold every
    off-diagonal entry with its conjugate mirror; the constructor checks
    shapes, finiteness and that every index lies in ``range(dim)``, not
    Hermiticity.  ``build_hamiltonian`` emits each entry next to its mirror,
    and ``models.three_body_spin`` checks its dense matrix before passing
    its nonzero entries.  A real linear combination of value vectors on one
    pattern, put in with ``dataclasses.replace``, keeps it Hermitian.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        values = np.ascontiguousarray(self.values, dtype=complex)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != values.shape[-1:]:
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
        """Read-only dense form, (..., dim, dim) for a stack; each row's
        triplets are added in order, as a dense ``h[row, col] += value`` loop
        would."""
        m = np.zeros(self.values.shape[:-1] + (self.dim, self.dim), dtype=complex)
        stack = [i[..., None] for i in np.indices(m.shape[:-2], sparse=True)]
        np.add.at(m, (*stack, self.rows, self.cols), self.values)
        m.setflags(write=False)
        return m


def _capped_occupations(n_sites: int, n_excitations: int, cap: int) -> np.ndarray:
    """Occupation vectors with every site at most ``cap``, as a (dim, n_sites)
    array in descending lexicographic order.

    Built one site at a time: each partial vector branches into the
    occupations its site can take, largest first, with enough room left on
    the later sites for the rest, so every branch completes and the branches
    come out in order.  A site keeps only its branch values and their
    parents; the vectors are read back from the last site.
    """
    left = np.array([n_excitations])  # excitations still to place, per branch
    levels = []
    for site in range(n_sites):
        high = np.minimum(left, cap)
        low = np.maximum(left - cap * (n_sites - 1 - site), 0)
        counts = high - low + 1
        parent = np.repeat(np.arange(left.size), counts)
        firsts = np.cumsum(counts) - counts
        value = high[parent] - (np.arange(parent.size) - firsts[parent])
        left = left[parent] - value
        levels.append((value, parent))
    occupations = np.empty((left.size, n_sites), dtype=np.min_scalar_type(cap))
    branch = np.arange(left.size)
    for site in reversed(range(n_sites)):
        value, parent = levels[site]
        occupations[:, site] = value[branch]
        branch = parent[branch]
    return occupations


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
    return SubspaceBasis(n_sites, n_excitations, statistics,
                         _capped_occupations(n_sites, n_excitations, cap))


def _pattern(basis: SubspaceBasis, pairs: tuple[tuple[int, int], ...],
             sites: tuple[int, ...]):
    """The structure that hoppings between the (j, k) ``pairs`` and on-site
    terms on ``sites`` (1-based, like j and k) give on a basis.

    Returns ``(rows, cols, hop, sqrt_src, sqrt_dst, n)``.  Hopping entry e
    moves one excitation from site k to site j of state ``cols[2e]`` by
    hopping ``hop[e]``, landing on state ``rows[2e]``; entries run hop by hop
    and by state within a hop, and each is followed by its mirror at
    ``(rows[2e + 1], cols[2e + 1])``.  ``sqrt_src`` and ``sqrt_dst`` are
    sqrt(n_k) and sqrt(n_j + 1) of the state moved from.  Hops that would
    exceed the occupation cap land outside the basis and are left out.  The
    diagonal of each on-site term follows, state by state, and ``n`` holds
    the float occupations of its site, one row per term.
    """
    occ = basis.occupations
    cap = basis.statistics.site_cap(basis.n_excitations)
    dst = np.array([j - 1 for j, _ in pairs], dtype=np.intp)
    src = np.array([k - 1 for _, k in pairs], dtype=np.intp)
    movable = (occ[:, src] > 0) & ((occ[:, dst] < cap) | (dst == src))
    hop, col = np.nonzero(movable.T)  # hop-major, by state within a hop
    moved = occ[col]
    entry = np.arange(col.size)
    moved[entry, src[hop]] -= 1
    moved[entry, dst[hop]] += 1
    row = np.searchsorted(basis._keys, _order_keys(moved))
    diagonal = np.tile(np.arange(len(basis)), len(sites))
    rows = np.empty(2 * col.size + diagonal.size, dtype=np.intp)
    cols = np.empty_like(rows)
    rows[0:2 * col.size:2] = cols[1:2 * col.size:2] = row
    rows[1:2 * col.size:2] = cols[0:2 * col.size:2] = col
    rows[2 * col.size:] = cols[2 * col.size:] = diagonal
    sqrt_src = np.sqrt(occ[col, src[hop]].astype(float))
    sqrt_dst = np.sqrt(occ[col, dst[hop]].astype(float) + 1.0)
    n = occ[:, [j - 1 for j in sites]].T.astype(float)
    return rows, cols, hop, sqrt_src, sqrt_dst, n


def _spec_pattern(spec, basis: SubspaceBasis):
    """The ``_pattern`` of a spec's hopping pairs and on-site sites on a
    basis; SpecMismatch unless the spec's sizes, statistics and sites fit the
    basis."""
    if spec.n_sites != basis.n_sites:
        raise SpecMismatch(
            f"spec has {spec.n_sites} sites but basis has {basis.n_sites}"
        )
    if spec.statistics != basis.statistics:
        raise SpecMismatch("spec and basis disagree on statistics")
    for hop in spec.hoppings:
        if not (1 <= hop.j <= spec.n_sites and 1 <= hop.k <= spec.n_sites):
            raise SpecMismatch(f"hopping {hop} references a nonexistent site")
    for term in spec.onsite:
        if not 1 <= term.j <= spec.n_sites:
            raise SpecMismatch(f"on-site term {term} references a nonexistent site")
    return _pattern(basis, tuple((h.j, h.k) for h in spec.hoppings),
                    tuple(term.j for term in spec.onsite))


def _spec_terms(spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The amplitudes and phases of a spec's hoppings, as float arrays, and
    the (delta_omega, kerr_u) of its on-site terms, as an (n_terms, 2) one."""
    amplitudes = np.array([h.amplitude for h in spec.hoppings], dtype=float)
    phases = np.array([h.phase for h in spec.hoppings], dtype=float)
    terms = np.array([(t.delta_omega, t.kerr_u) for t in spec.onsite], dtype=float)
    return amplitudes, phases, terms.reshape(-1, 2)


def _coefficients(amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """``Hopping.coefficient`` elementwise, bit for bit.

    Python multiplies the float amplitude a into cos + i sin as the complex
    a + 0i.  A part that underflows to zero takes its sign from the products
    of that zero, where NumPy's fused complex product would keep the sign of
    the underflowed one.
    """
    cos, sin = np.cos(phases), np.sin(phases)
    coefficients = np.empty(np.shape(phases), dtype=complex)
    coefficients.real = amplitudes * cos - 0.0 * sin
    coefficients.imag = amplitudes * sin + 0.0 * cos
    return coefficients


def _fill(pattern, coefficients: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Triplet values on one pattern, one row per spec, from the (n_specs,
    n_hoppings) hopping coefficients and the (n_specs, n_terms, 2) on-site
    (delta_omega, kerr_u).

    Each hopping entry is followed by its conjugate mirror, and the on-site
    terms come last, state by state: the order of a dense ``+=`` loop.  Every
    value is formed by the same operations whatever the number of specs.
    """
    rows, _, hop, sqrt_src, sqrt_dst, n = pattern
    amp = coefficients[:, hop] * sqrt_src * sqrt_dst
    values = np.empty((len(coefficients), rows.size), dtype=complex)
    values[:, 0:2 * hop.size:2] = amp
    values[:, 1:2 * hop.size:2] = amp.conj()
    if n.size:
        values[:, 2 * hop.size:] = (terms[..., :1] * n + terms[..., 1:] * n * n).reshape(
            len(coefficients), -1)
    return values


def build_hamiltonian(spec, basis: SubspaceBasis) -> HermitianMatrix:
    """Assemble the subspace Hamiltonian of a network spec on a basis.

    ``spec`` must expose ``n_sites``, ``hoppings`` (list of :class:`Hopping`),
    ``onsite`` (list of :class:`OnSite`) and ``statistics``.  The result is one
    fixed-excitation block; it commutes with the total number operator by
    construction.  Hops that would exceed the occupation cap (a spin site holds
    one) are dropped, because the target state is outside the basis; that
    keeps the truncation Hermitian.  Specs with the same hopping pairs and
    on-site sites give the same rows and cols, so their value vectors combine
    on one pattern.
    """
    pattern = _spec_pattern(spec, basis)
    amplitudes, phases, terms = _spec_terms(spec)
    values = _fill(pattern, _coefficients(amplitudes, phases)[None], terms[None])[0]
    return HermitianMatrix(len(basis), pattern[0], pattern[1], values)


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
    top = int(basis.occupations.max())
    if top >= local_dim:
        raise CapacityOverflow(f"occupation {top} exceeds local dimension {local_dim}")
    weights = np.array([local_dim ** p for p in reversed(range(basis.n_sites))], dtype=np.int64)
    return basis.occupations @ weights
