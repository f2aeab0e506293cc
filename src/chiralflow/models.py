"""Network constructors: gauge-field rings, auxiliary-node networks, ladders,
spin variants, three-body chirality models, gauge transforms and the unitary
that anticommutes with every pi/2-phase network Hamiltonian.

Conventions
-----------
Sites are labelled 1..n around the ring; auxiliary nodes are appended after
the ring sites.  A stored hopping ``(j, k, J, theta)`` is the Hermitian pair
``J e^{i theta} a_j^dag a_k + h.c.``, so ``theta`` is the phase picked up by
an excitation moving from k to j.  The flux of a ring equals the sum of its
nearest-neighbour phases ``theta_{j,j+1}``; with that convention a +pi/2
phase per link drives the excitation through sites in ascending order.
Phases are normalised to (-pi, pi] at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadGauge, ConfigError, ProfileLength, SpecMismatch
from .hilbert import HermitianMatrix, Hopping, OnSite, Statistics

TWO_PI = 2.0 * math.pi


def normalize_phase(theta: float) -> float:
    """Map an angle to the canonical interval (-pi, pi]."""
    theta = math.fmod(theta, TWO_PI)
    if theta <= -math.pi:
        theta += TWO_PI
    elif theta > math.pi:
        theta -= TWO_PI
    return theta


def normalize_phases(theta: np.ndarray) -> np.ndarray:
    """``normalize_phase`` of every angle of an array, by the same float
    operations."""
    theta = np.fmod(theta, TWO_PI)
    return np.where(theta <= -math.pi, theta + TWO_PI,
                    np.where(theta > math.pi, theta - TWO_PI, theta))


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative network graph: ring size, auxiliaries, hoppings, on-site terms."""

    n_network: int
    auxiliary_count: int
    hoppings: tuple[Hopping, ...]
    onsite: tuple[OnSite, ...]
    statistics: Statistics

    def __post_init__(self):
        n = self.n_network + self.auxiliary_count
        seen = set()
        hoppings = []
        for hop in self.hoppings:
            if hop.j == hop.k:
                raise SpecMismatch(f"self-hopping on site {hop.j}")
            if not (1 <= hop.j <= n and 1 <= hop.k <= n):
                raise SpecMismatch(f"hopping {hop} references a nonexistent site")
            pair = frozenset((hop.j, hop.k))
            if pair in seen:
                raise SpecMismatch(f"duplicate hopping on pair {sorted(pair)}")
            seen.add(pair)
            if hop.amplitude < 0:
                raise SpecMismatch("hopping amplitudes must be >= 0")
            phase = normalize_phase(hop.phase)
            hoppings.append(hop if phase == hop.phase else replace(hop, phase=phase))
        object.__setattr__(self, "hoppings", tuple(hoppings))
        object.__setattr__(self, "onsite", tuple(self.onsite))

    @property
    def n_sites(self) -> int:
        return self.n_network + self.auxiliary_count

    @property
    def ring_nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_network + 1))

    @property
    def labels(self) -> tuple[str, ...]:
        return (tuple(f"node_{j}" for j in self.ring_nodes)
                + tuple(f"aux_{i}" for i in range(1, self.auxiliary_count + 1)))

    def directed_phase(self, src: int, dst: int) -> float:
        """Phase acquired moving src -> dst along a stored hopping."""
        for hop in self.hoppings:
            if hop.j == dst and hop.k == src:
                return hop.phase
            if hop.j == src and hop.k == dst:
                return -hop.phase
        raise SpecMismatch(f"no hopping between sites {src} and {dst}")

    def loop_flux(self, loop) -> float:
        """Gauge-invariant flux around a closed node loop, in (-pi, pi]."""
        loop = list(loop)
        total = 0.0
        for a, b in zip(loop, loop[1:] + loop[:1]):
            total += self.directed_phase(a, b)
        return normalize_phase(total)

    def ring_flux(self) -> float:
        return self.loop_flux(list(range(self.n_network, 0, -1)))

    def to_dict(self) -> dict:
        return {
            "n_network": self.n_network,
            "auxiliary_count": self.auxiliary_count,
            "statistics": {"max_occupation": self.statistics.max_occupation},
            "hoppings": [[h.j, h.k, h.amplitude, h.phase] for h in self.hoppings],
            "onsite": [[t.j, t.delta_omega, t.kerr_u] for t in self.onsite],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        # Older dicts carry a "labels" key, which must name the derived labels.
        expected = {"n_network", "auxiliary_count", "statistics", "hoppings", "onsite"}
        unknown = set(data) - expected - {"labels"}
        if unknown:
            raise SpecMismatch(f"unknown spec keys: {sorted(unknown)}")
        missing = expected - set(data)
        if missing:
            raise SpecMismatch(f"missing spec keys: {sorted(missing)}")
        spec = cls(
            n_network=int(data["n_network"]),
            auxiliary_count=int(data["auxiliary_count"]),
            hoppings=tuple(Hopping(int(j), int(k), float(a), float(p))
                           for j, k, a, p in data["hoppings"]),
            onsite=tuple(OnSite(int(j), float(d), float(u)) for j, d, u in data["onsite"]),
            statistics=Statistics(data["statistics"]["max_occupation"]),
        )
        if "labels" in data and tuple(map(str, data["labels"])) != spec.labels:
            raise SpecMismatch(f"labels {data['labels']} are not the spec's {list(spec.labels)}")
        return spec


def _ring_positions(n: int) -> np.ndarray:
    """Ring sites on the unit circle; site 1 at angle 0, ascending labels
    counterclockwise."""
    angles = TWO_PI * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _polygon_area(n: int) -> float:
    return 0.5 * n * math.sin(TWO_PI / n)


def landau_gauge(spec: NetworkSpec, flux: float) -> NetworkSpec:
    """Re-express a symmetric-gauge ring spec carrying ``flux`` in the Landau gauge.

    The symmetric gauge is A = (B/2)(-y, x) with B = -flux / polygon area (a
    field along -z realises positive flux for counterclockwise site
    numbering).  The Landau gauge A = (-By, 0) differs from it by the
    gradient of chi = -B x y / 2, so it is the gauge transform with site
    phases chi(r_j); auxiliary nodes sit at the centre, where chi = 0.
    """
    n = spec.n_network
    b_field = -flux / _polygon_area(n)
    x, y = _ring_positions(n).T
    chi = -0.5 * b_field * x * y
    return gauge_transform(spec, [*chi, *[0.0] * spec.auxiliary_count])


def sgf_ring(n: int, total_flux: float,
             statistics: Statistics = Statistics.boson()) -> NetworkSpec:
    """Ring of n sites threaded by a synthetic flux, in the symmetric gauge.

    Nearest-neighbour amplitudes are 1 (in units of the base hopping rate) and
    each link carries the phase ``total_flux / n``; other gauges follow from
    ``gauge_transform`` or ``landau_gauge``.
    """
    if n < 3:
        raise ConfigError(f"need at least 3 ring sites, got {n}")
    theta = total_flux / n
    hops = [Hopping(j, j % n + 1, 1.0, theta) for j in range(1, n + 1)]
    return NetworkSpec(n, 0, tuple(hops), (), statistics)


def asgf(n: int, beta_c: float, nn_phase: float,
         statistics: Statistics = Statistics.boson()) -> NetworkSpec:
    """Ring with an auxiliary node coupled equally to every ring site.

    Each link of the ring carries phase ``nn_phase``; the auxiliary coupling
    has real amplitude ``beta_c``.  With ``beta_c == 0`` the auxiliary node
    drops out and the plain ring with flux ``n * nn_phase`` is returned, so
    the two constructors agree in that limit.
    """
    if n < 3:
        raise ConfigError(f"need at least 3 ring sites, got {n}")
    if not 0 <= beta_c < math.inf:
        raise ConfigError(f"beta_c {beta_c!r} must be finite and >= 0")
    if beta_c == 0:
        return sgf_ring(n, n * nn_phase, statistics)
    hops = [Hopping(j, j % n + 1, 1.0, nn_phase) for j in range(1, n + 1)]
    hops += [Hopping(j, n + 1, beta_c, 0.0) for j in range(1, n + 1)]
    return NetworkSpec(n, 1, tuple(hops), (), statistics)


def chiral_n_node(n: int, statistics: Statistics = Statistics.boson()) -> NetworkSpec:
    """Auxiliary-node network with the couplings that the criteria fix for a
    perfect n-node chiral flow, n >= 4.  Flow 1 -> 2 -> ... in steps
    2 pi / (n u) needs each ring plane wave m != 0 at E_m = u r_m, r_m the
    residue of smallest modulus of m + c/u (mod n), with c = 0 for odd n and
    n u / 2 for even n.  The couplings are the inverse DFT
    t_d = (1/n) sum_m E_m e^{-i k_m d}, purely imaginary for d <= (n-1)//2, and
    |t_1| = 1 fixes u.  The m = 0 wave and the auxiliary node split into
    +-beta sqrt(n) = +-(n u or n u / 2).  At n = 3 this rule runs a faster
    counter-rotating flow, and ``sgf_ring(3, pi/2)`` is already perfect.
    """
    if n < 4:
        raise ConfigError(f"chiral_n_node needs n >= 4, got {n}; at n = 3 use sgf_ring(3, pi/2)")
    half = n // 2
    # E_m / u for m = 0..n-1; the m = 0 entry only adds to the real part, which is dropped.
    levels = (np.arange(n) + (0 if n % 2 else half) + half) % n - half
    s = (np.fft.fft(levels).imag[1:(n - 1) // 2 + 1] / n).tolist()
    beta = (n if n % 2 else half) / (abs(s[0]) * math.sqrt(n))
    hops = [Hopping(j, (j + d - 1) % n + 1, abs(s_d / s[0]), math.copysign(math.pi / 2, s_d))
            for d, s_d in enumerate(s, start=1) for j in range(1, n + 1)]
    hops += [Hopping(j, n + 1, beta, math.pi) for j in range(1, n + 1)]
    return NetworkSpec(n, 1, tuple(hops), (), statistics)


def ladder(n_copies: int, beta_profile, statistics: Statistics = Statistics.boson()) -> NetworkSpec:
    """Chain of four-node cells sharing corner sites, one auxiliary per cell.

    The outer ring has 2N+2 sites with a +pi/2 phase on every link; hops
    between the shared (vertical) node pairs are absent.  Cell i couples its
    auxiliary to its four sites with amplitude ``beta_profile[d]`` where d is
    the cell's distance to the nearest end of the chain, so the profile is
    applied symmetrically from both ends.  A length-1 profile is uniform.
    """
    if n_copies < 1:
        raise ConfigError(f"need at least one cell, got {n_copies}")
    beta_profile = [float(b) for b in beta_profile]
    n_profiles = (n_copies + 1) // 2
    if len(beta_profile) == 1:
        beta_profile = beta_profile * n_profiles
    if len(beta_profile) != n_profiles:
        raise ProfileLength(
            f"profile needs {n_profiles} entries for {n_copies} cells, got {len(beta_profile)}"
        )
    n_ring = 2 * n_copies + 2
    hops = [Hopping(j, j % n_ring + 1, 1.0, math.pi / 2) for j in range(1, n_ring + 1)]
    for i in range(1, n_copies + 1):
        aux = n_ring + i
        cell = (i, i + 1, 2 * n_copies + 2 - i, 2 * n_copies + 3 - i)
        beta = beta_profile[min(i - 1, n_copies - i)]
        hops += [Hopping(j, aux, beta, 0.0) for j in cell]
    return NetworkSpec(n_ring, n_copies, tuple(hops), (), statistics)


def gauge_transform(spec: NetworkSpec, site_phases) -> NetworkSpec:
    """Relabel every site j by the local phase phi_j: each stored hopping
    phase becomes theta_jk + phi_j - phi_k.  Loop fluxes are unchanged and so
    are all populations."""
    phases = [float(p) for p in site_phases]
    if len(phases) != spec.n_sites:
        raise BadGauge(f"need {spec.n_sites} site phases, got {len(phases)}")
    if not all(math.isfinite(p) for p in phases):
        raise BadGauge("site phases must be finite")
    hops = tuple(
        replace(hop, phase=hop.phase + phases[hop.j - 1] - phases[hop.k - 1])
        for hop in spec.hoppings
    )
    return replace(spec, hoppings=hops)


@dataclass(frozen=True)
class ChiralOperator:
    """Unitary C with C H C^-1 = -H for pi/2-phase networks; ``involutive``
    (C^2 = 1) is computed from the matrix."""

    matrix: np.ndarray
    involutive: bool = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = m.shape[0]
        if not np.allclose(m @ m.conj().T, np.eye(dim), atol=1e-12):
            raise ValueError("chiral operator must be unitary")
        involutive = np.allclose(m @ m, np.eye(dim), atol=1e-12)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "involutive", bool(involutive))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def chiral_operator(n: int, with_auxiliary: bool) -> ChiralOperator:
    """Spectrum-inverting unitary for single-excitation ring networks.

    With an auxiliary node: site 1 is fixed, sites 2..n are reversed and the
    auxiliary picks up a sign.  Without: even rings use alternating signs on
    the diagonal, odd rings the site-reversal (anti-diagonal) permutation.
    """
    if n < 3:
        raise ValueError("need at least 3 ring sites")
    if with_auxiliary:
        m = np.zeros((n + 1, n + 1))
        m[0, 0] = 1.0
        for j in range(2, n + 1):
            m[j - 1, n + 1 - j] = 1.0
        m[n, n] = -1.0
        return ChiralOperator(m)
    if n % 2 == 0:
        return ChiralOperator(np.diag([(-1.0) ** j for j in range(n)]))
    return ChiralOperator(np.fliplr(np.eye(n)))


_PAULI = {
    # Single-site basis order (|0>, |1>) = (ground, excited).
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}


def _site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator; site 1 is the most significant factor."""
    out = np.eye(1, dtype=complex)
    for j in range(1, n_sites + 1):
        out = np.kron(out, op if j == site else np.eye(2, dtype=complex))
    return out


def scalar_chirality() -> np.ndarray:
    """sigma_1 . (sigma_2 x sigma_3) as a full three-spin matrix."""
    eps = {("x", "y", "z"): 1, ("y", "z", "x"): 1, ("z", "x", "y"): 1,
           ("x", "z", "y"): -1, ("z", "y", "x"): -1, ("y", "x", "z"): -1}
    total = np.zeros((8, 8), dtype=complex)
    for (a, b, c), sign in eps.items():
        total += sign * (_site_operator(_PAULI[a], 1, 3)
                         @ _site_operator(_PAULI[b], 2, 3)
                         @ _site_operator(_PAULI[c], 3, 3))
    return total


def three_body_spin(kind: str, kappa: float) -> HermitianMatrix:
    """Full 8x8 Hamiltonian of a three-spin chirality interaction.

    ``kind="SCI"`` is ``kappa * sigma_1.(sigma_2 x sigma_3)``; ``kind="ASI"``
    multiplies that by the total spin-z component, which flips the sign of
    the interaction between the single- and double-excitation sectors.
    """
    c_z = scalar_chirality()
    if kind.upper() == "SCI":
        m = kappa * c_z
    elif kind.upper() == "ASI":
        s_z = sum(_site_operator(_PAULI["z"], j, 3) for j in range(1, 4)) / 2.0
        m = kappa * (c_z @ s_z)
    else:
        raise ValueError(f"unknown three-body kind {kind!r} (use 'ASI' or 'SCI')")
    if not np.array_equal(m, m.conj().T):
        raise ValueError("matrix is not exactly Hermitian")
    rows, cols = np.nonzero(m)
    return HermitianMatrix(m.shape[0], rows, cols, m[rows, cols])
