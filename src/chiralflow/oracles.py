"""Closed-form reference dynamics for the ring and ladder networks.

Every function here evaluates an analytic expression only (no matrix
exponentials), so the results can be compared against the numeric evolution
as an independent check.  Times are in units of the inverse base hopping
rate and the base rate itself is set to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import cluster_levels, eigendecompose
from .errors import SingularProjection
from .hilbert import build_hamiltonian, enumerate_basis
from .models import ladder, ladder_corners


def three_node_sgf_population(j: int, t) -> np.ndarray | float:
    """Node population of the three-site ring with total flux pi/2.

    P_j(t) = (1/3 + 2/3 cos(sqrt(3) t - 2 pi (j-1)/3))^2, which cycles the
    excitation through sites 1 -> 2 -> 3.
    """
    if j not in (1, 2, 3):
        raise ValueError("node label must be 1, 2 or 3")
    t = np.asarray(t, dtype=float)
    value = (1.0 / 3.0 + 2.0 / 3.0 * np.cos(math.sqrt(3.0) * t - 2.0 * math.pi * (j - 1) / 3.0)) ** 2
    return value if value.ndim else float(value)


def four_node_sgf_populations(theta: float, t) -> np.ndarray:
    """Populations of the four-site ring with per-link phase theta.

    Sites 2 and 4 share one trace for every theta; at theta = pi/4 site 3 is
    a dark site.  Returns shape (4,) or (4, n_times).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    fast = np.cos(2.0 * math.cos(theta) * t)
    slow = np.cos(2.0 * math.sin(theta) * t)
    p1 = 0.25 * (fast + slow) ** 2
    p24 = 0.25 * (np.sin(2.0 * math.sin(theta) * t) ** 2 + np.sin(2.0 * math.cos(theta) * t) ** 2)
    p3 = 0.25 * (fast - slow) ** 2
    return np.stack([p1, p24, p3, p24])


def four_node_asgf_amplitude(j: int, beta_c: float, t) -> np.ndarray | float:
    """Node amplitude of the four-site ring with a centre node, pi/2 links.

    C_j(t) = 1/2 cos(2t + (j-1) pi/2) + 1/4 cos(2 beta_c t) + (-1)^(j-1)/4.
    The flow is perfect exactly at beta_c = 2.
    """
    if j not in (1, 2, 3, 4):
        raise ValueError("node label must be in 1..4")
    t = np.asarray(t, dtype=float)
    value = (
        0.5 * np.cos(2.0 * t + (j - 1) * math.pi / 2.0)
        + 0.25 * np.cos(2.0 * beta_c * t)
        + 0.25 * (-1.0) ** (j - 1)
    )
    return value if value.ndim else float(value)


def four_node_asgf_amplitude_regrouped(j: int, beta_c: float, t) -> np.ndarray | float:
    """Same amplitude regrouped as an alternating-sign travelling wave:

    C_j(t) = (-1)^(j-1) [ 1/2 cos(2t - (j-1) pi/2)
                          + 1/4 cos(2 beta_c t - (j-1) pi) + 1/4 ].
    """
    if j not in (1, 2, 3, 4):
        raise ValueError("node label must be in 1..4")
    t = np.asarray(t, dtype=float)
    value = (-1.0) ** (j - 1) * (
        0.5 * np.cos(2.0 * t - (j - 1) * math.pi / 2.0)
        + 0.25 * np.cos(2.0 * beta_c * t - (j - 1) * math.pi)
        + 0.25
    )
    return value if value.ndim else float(value)


def six_node_asgf_populations(beta_c: float, t) -> np.ndarray:
    """Populations of the six-site ring with a centre node and pi/2 links.

    The centre node lifts the zero modes but cannot make the flow perfect:
    the opposite site obeys P_4(t) = (1 - cos(sqrt(6) beta_c t))^2 / 36 with
    peak value 1/9 for any coupling.  Returns shape (6, n_times).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    hybrid = np.cos(math.sqrt(6.0) * beta_c * t)
    ring = np.cos(math.sqrt(3.0) * t)
    ring_sin = np.sin(math.sqrt(3.0) * t)
    p1 = (1.0 + hybrid + 4.0 * ring) ** 2 / 36.0
    p2 = (1.0 - hybrid + 2.0 * math.sqrt(3.0) * ring_sin) ** 2 / 36.0
    p3 = (1.0 + hybrid - 2.0 * ring) ** 2 / 36.0
    p4 = (1.0 - hybrid) ** 2 / 36.0
    p5 = (1.0 + hybrid - 2.0 * ring) ** 2 / 36.0
    p6 = (1.0 - hybrid - 2.0 * math.sqrt(3.0) * ring_sin) ** 2 / 36.0
    return np.stack([p1, p2, p3, p4, p5, p6])


def ring_mode_numbers(n: int) -> list[int]:
    """Winding numbers m with -n/2 < m <= n/2."""
    return list(range(-(n // 2) + (0 if n % 2 else 1), n // 2 + 1))


def ring_dispersion(n: int, m: int) -> float:
    """Plane-wave energy -2 sin(2 pi m / n) of the pi/2-per-link ring."""
    return -2.0 * math.sin(2.0 * math.pi * m / n)


def n_node_sgf_solution(n: int, j: int, t) -> np.ndarray | complex:
    """Plane-wave amplitude on node j of the pi/2-per-link n-site ring.

    C_j(t) = sum_m e^{i k_m (j-1)} e^{-i E_m t} / n over the full mode set,
    with k_m = 2 pi m / n and E_m = -2 sin k_m.  For even n the two zero
    modes leave even sites bounded by (1 - 2/n)^2.
    """
    if n < 3:
        raise ValueError("need at least 3 ring sites")
    if not 1 <= j <= n:
        raise ValueError(f"node label must be in 1..{n}")
    t = np.asarray(t, dtype=float)
    value = np.zeros(t.shape if t.ndim else (), dtype=complex)
    for m in ring_mode_numbers(n):
        k = 2.0 * math.pi * m / n
        value = value + np.exp(1j * (k * (j - 1) - ring_dispersion(n, m) * t)) / n
    return value if value.ndim else complex(value)


def even_site_population_bound(n: int) -> float:
    """Peak population bound (1 - 2/n)^2 on even sites of an even ring."""
    if n % 2:
        raise ValueError("bound applies to even rings")
    return (1.0 - 2.0 / n) ** 2


def five_node_energy_conditions() -> tuple[float, float]:
    """Spectrum ratios (E_2/E_1, E_aux/E_1) that make the five-node flow
    close perfectly."""
    return (2.0, 5.0)


@dataclass(frozen=True)
class PoleSet:
    """Real poles of the corner-projected resolvent with residue matrices.

    ``residues[i]`` is the 4x4 residue of the corner-block resolvent at
    ``poles[i]``; the amplitude on corner a after starting at corner b is
    ``sum_i residues[i][a, b] * exp(-i * poles[i] * t)``.
    """

    poles: tuple[float, ...]
    residues: tuple[np.ndarray, ...]
    corner_labels: tuple[int, int, int, int]
    omega0: float = 0.0


def _adjugate(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    adj = np.empty_like(m)
    for r in range(n):
        for c in range(n):
            minor = np.delete(np.delete(m, r, axis=0), c, axis=1)
            adj[c, r] = (-1.0) ** (r + c) * np.linalg.det(minor)
    return adj


def ladder_resolvent(n_copies: int, beta_c: float = 2.0, omega0: float = 0.0,
                     residue_tol: float = 1e-8) -> PoleSet:
    """Corner-subspace resolvent of the ladder network.

    The hopping graph is split into the corner-incident part and the rest;
    the corner block of the resolvent is ``(omega - Sigma(omega))^{-1}`` with
    the one-step self-energy ``Sigma = V + V Q (omega - H0)^{-1} Q V``.
    Residues at every simple pole are computed from the adjugate and the
    derivative of the denominator determinant, and cross-checked against the
    projected eigendecomposition of the full network; the routine raises if
    the two routes disagree.
    """
    spec = ladder(n_copies, [beta_c])
    basis = enumerate_basis(spec.n_sites, 1, spec.statistics)
    h = build_hamiltonian(spec, basis).matrix.copy()
    corners = ladder_corners(n_copies)
    corner_idx = [c - 1 for c in corners]
    if len(set(corner_idx)) != 4 or min(corner_idx) < 0 or max(corner_idx) >= h.shape[0]:
        raise SingularProjection(f"invalid corner labels {corners}")
    h = h + omega0 * np.eye(h.shape[0])
    other_idx = [i for i in range(h.shape[0]) if i not in corner_idx]

    v_pp = h[np.ix_(corner_idx, corner_idx)].astype(complex)
    np.fill_diagonal(v_pp, 0.0)  # the corner diagonal (omega0) belongs to H0
    h0_qq = h[np.ix_(other_idx, other_idx)]
    coupling = h[np.ix_(corner_idx, other_idx)]
    q_vals, q_vecs = np.linalg.eigh(h0_qq)
    bridge = coupling @ q_vecs  # 4 x nQ

    def m_of(omega: float) -> np.ndarray:
        sigma = v_pp + (bridge / (omega - q_vals)) @ bridge.conj().T
        return (omega - omega0) * np.eye(4, dtype=complex) - sigma

    def m_prime(omega: float) -> np.ndarray:
        return np.eye(4, dtype=complex) + (bridge / (omega - q_vals) ** 2) @ bridge.conj().T

    # Pole locations and reference residues from the full eigendecomposition;
    # the determinant-derivative route is evaluated wherever the self-energy
    # is regular (pole away from every eigenvalue of the decoupled rest).
    system = eigendecompose(h)
    scale = max(1.0, float(np.max(np.abs(system.eigenvalues))))
    poles = []
    residues = []
    for cluster in cluster_levels(system.eigenvalues, 1e-9 * scale):
        vecs = system.eigenvectors[np.ix_(corner_idx, cluster)]
        spectral = vecs @ vecs.conj().T
        if float(np.max(np.abs(spectral))) < residue_tol:
            continue  # dark at the corners
        pole = float(np.mean(system.eigenvalues[cluster]))
        if float(np.min(np.abs(pole - q_vals))) > 1e-6 * scale:
            adj = _adjugate(m_of(pole))
            denom = np.trace(adj @ m_prime(pole))
            if abs(denom) < 1e-12:
                raise SingularProjection(
                    f"pole at {pole} is not simple; determinant derivative vanished"
                )
            analytic = adj / denom
            if float(np.max(np.abs(analytic - spectral))) > 1e-7:
                raise SingularProjection(f"residue routes disagree at pole {pole}")
        poles.append(pole)
        residues.append(spectral)
    order = np.argsort(poles)
    return PoleSet(
        poles=tuple(poles[i] for i in order),
        residues=tuple(residues[i] for i in order),
        corner_labels=corners,
        omega0=omega0,
    )


def corner_amplitudes(pole_set: PoleSet, t, start_corner: int = 1) -> np.ndarray:
    """Reconstruct the four corner amplitudes from the pole expansion."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    col = pole_set.corner_labels.index(start_corner)
    out = np.zeros((4, t.size), dtype=complex)
    for pole, residue in zip(pole_set.poles, pole_set.residues):
        out += residue[:, col][:, None] * np.exp(-1j * pole * t)
    return out


def cosine_expansion(pole_set: PoleSet, corner: int = 1) -> tuple[float, list[tuple[float, float]]]:
    """Express the return amplitude on one corner as const + sum c_k cos(x_k t).

    Valid when the pole set is symmetric with conjugate residues so the
    amplitude is real; returns the constant and (frequency, coefficient)
    pairs for the positive poles.
    """
    row = pole_set.corner_labels.index(corner)
    col = pole_set.corner_labels.index(1)
    constant = 0.0
    terms = []
    for pole, residue in zip(pole_set.poles, pole_set.residues):
        value = residue[row, col]
        shifted = pole - pole_set.omega0
        if abs(shifted) < 1e-10:
            constant += float(value.real)
        elif shifted > 0:
            terms.append((float(shifted), 2.0 * float(value.real)))
    terms.sort()
    return constant, terms


def ladder_return_population(n_copies: int, t, beta_c: float = 2.0) -> np.ndarray:
    """Population back on corner 1, reconstructed from the resolvent poles."""
    poles = ladder_resolvent(n_copies, beta_c=beta_c)
    amps = corner_amplitudes(poles, t)
    return np.abs(amps[0]) ** 2
