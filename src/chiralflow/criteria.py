"""Spectral criteria for perfect chiral flow and the symmetry checks behind them.

A network supports a perfect single-subspace chiral flow when (i) the
spectrum is symmetric about zero and harmonic (every nonzero level an
integer multiple of the smallest one, no degeneracies) and (ii) the
eigenvectors restricted to the ring form a complete set of uniform-modulus
plane waves, one winding number per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    Direction,
    Trajectory,
    chirality_order,
    cluster_levels,
    eigendecompose,
    evolve,
    simulate,
)
from .errors import DimensionMismatch, NotSpin
from .hilbert import HermitianMatrix, OnSite, build_hamiltonian, enumerate_basis, occupation
from .models import ChiralOperator, NetworkSpec, sgf_ring
from .oracles import ring_mode_numbers


@dataclass(frozen=True)
class ChiralModeTag:
    """Winding classification of one eigenmode on the ring sites."""

    winding: int | None
    uniform_modulus: bool
    phase_ramp_residual: float


@dataclass(frozen=True)
class CriteriaReport:
    spectrum_symmetric: bool
    max_asymmetry: float
    equally_spaced: bool
    max_spacing_deviation: float
    degenerate_levels: int
    chiral_modes_complete: bool
    mode_tags: tuple[ChiralModeTag, ...]
    verdict: bool

    def summary(self) -> str:
        lines = [
            f"spectrum_symmetric: {str(self.spectrum_symmetric).lower()}"
            f" (max asymmetry {self.max_asymmetry:.3e})",
            f"equally_spaced: {str(self.equally_spaced).lower()}"
            f" (max deviation {self.max_spacing_deviation:.3e},"
            f" degenerate levels {self.degenerate_levels})",
            f"chiral_modes_complete: {str(self.chiral_modes_complete).lower()}"
            f" (windings {[t.winding for t in self.mode_tags]})",
            f"verdict: {str(self.verdict).lower()}",
        ]
        return "\n".join(lines)


def _ring_plane_wave(dim: int, ring_idx: list[int], winding: int) -> np.ndarray:
    n = len(ring_idx)
    vec = np.zeros(dim, dtype=complex)
    for pos, site in enumerate(ring_idx):
        vec[site] = np.exp(2j * math.pi * winding * pos / n) / math.sqrt(n)
    return vec


def _classify_single(vector: np.ndarray, ring_idx: list[int], mod_tol: float) -> ChiralModeTag:
    restricted = vector[ring_idx]
    norm = float(np.linalg.norm(restricted))
    n = len(ring_idx)
    if norm < 1e-9:
        return ChiralModeTag(None, False, math.inf)
    r = restricted / norm
    moduli = np.abs(r)
    uniform = float(np.max(np.abs(moduli - 1.0 / math.sqrt(n)))) <= mod_tol
    # Match against every plane wave; the residual is the out-of-mode weight
    # of the best match, which avoids branch cuts in per-link phase steps.
    positions = np.arange(n)
    best_m = None
    best_residual = math.inf
    for m in ring_mode_numbers(n):
        wave = np.exp(2j * math.pi * m * positions / n) / math.sqrt(n)
        overlap = abs(np.vdot(wave, r))
        residual = math.sqrt(max(0.0, 1.0 - overlap * overlap))
        if residual < best_residual:
            best_m, best_residual = m, residual
    if not uniform or best_residual > mod_tol:
        return ChiralModeTag(None, uniform, best_residual)
    return ChiralModeTag(best_m, uniform, best_residual)


def check_criteria(h: HermitianMatrix, ring_nodes) -> CriteriaReport:
    """Evaluate the two chiral-flow criteria on one excitation block.

    ``ring_nodes`` are the 1-based ring site labels; any remaining rows are
    treated as auxiliary.  The spectral tests use the relative tolerance
    1e-9; the eigenvector modulus and phase-ramp tests use sqrt(1e-9).
    """
    tol = 1e-9
    system = eigendecompose(h)
    values = system.eigenvalues
    dim = values.size
    scale = max(1.0, float(np.max(np.abs(values))))
    mod_tol = math.sqrt(tol)

    asym = float(np.max(np.abs(values + values[::-1])))
    symmetric = asym <= tol * scale

    level_tol = tol * scale
    clusters = cluster_levels(values, level_tol)
    degenerate = sum(1 for c in clusters if len(c) > 1)
    positive = values[values > level_tol]
    if positive.size:
        unit = float(np.min(positive))
        ratios = positive / unit
        spacing_dev = float(np.max(np.abs(ratios - np.round(ratios)) / np.maximum(ratios, 1.0)))
    else:
        spacing_dev = 0.0
    equally_spaced = degenerate == 0 and spacing_dev <= tol

    ring_idx = [node - 1 for node in ring_nodes]
    n = len(ring_idx)
    tags: list[ChiralModeTag] = []
    for cluster in clusters:
        if len(cluster) == 1:
            tags.append(_classify_single(system.eigenvectors[:, cluster[0]], ring_idx, mod_tol))
            continue
        # Degenerate block: rotate back to plane waves by projecting each
        # candidate winding onto the block before classification.
        block = system.eigenvectors[:, cluster]
        matched = 0
        for m in ring_mode_numbers(n):
            wave = _ring_plane_wave(dim, ring_idx, m)
            weight = float(np.linalg.norm(block.conj().T @ wave))
            if weight >= 1.0 - mod_tol:
                tags.append(ChiralModeTag(m, True, 0.0))
                matched += 1
        for _ in range(len(cluster) - matched):
            tags.append(ChiralModeTag(None, False, math.inf))

    windings = [t.winding for t in tags if t.winding is not None]
    needed = set(ring_mode_numbers(n))
    complete = (len(windings) == dim) and needed <= set(windings)

    return CriteriaReport(
        spectrum_symmetric=symmetric,
        max_asymmetry=asym,
        equally_spaced=equally_spaced,
        max_spacing_deviation=spacing_dev,
        degenerate_levels=degenerate,
        chiral_modes_complete=complete,
        mode_tags=tuple(tags),
        verdict=symmetric and equally_spaced and complete,
    )


def check_chiral_symmetry(h: HermitianMatrix, operator: ChiralOperator) -> float:
    """Max-norm residual of C^-1 H C + H; zero iff C inverts the spectrum."""
    m = h.matrix
    c = operator.matrix
    if c.shape != m.shape:
        raise DimensionMismatch(f"operator {c.shape} does not match matrix {m.shape}")
    residual = c.conj().T @ m @ c + m
    return float(np.max(np.abs(residual)))


def flipped_state(occupations) -> tuple[int, ...]:
    return tuple(1 - n for n in occupations)


def check_time_reversal_spin(spec: NetworkSpec, times=None) -> bool:
    """Behavioural time-reversal check for spin networks.

    Evolving the globally spin-flipped image of the excitation on site 1
    under the same Hamiltonian must reproduce the original excitation traces
    with the flow direction reversed, P_flip_j(t) = 1 - P_orig_j(-t), to
    within 1e-9.  ``times`` defaults to 1601 points on [0, 12].
    """
    if not spec.statistics.is_spin:
        raise NotSpin("time-reversal mirroring is defined for spin networks")
    n = spec.n_sites
    if times is None:
        times = np.linspace(0.0, 12.0, 1601)
    initial = occupation(n, 1)

    def run(state, sign):
        basis = enumerate_basis(n, sum(state), spec.statistics)
        h = build_hamiltonian(spec, basis)
        h = replace(h, values=h.values * sign)
        return evolve(h, basis.unit_vector(state), times, basis=basis)

    forward_flipped = run(flipped_state(initial), +1.0)
    backward_original = run(initial, -1.0)  # populations of the original at -t
    mirror = 1.0 - backward_original.populations
    return float(np.max(np.abs(forward_flipped.populations - mirror))) <= 1e-9


def hole_view(traj: Trajectory) -> Trajectory:
    """Trajectory whose populations track the empty site (1 - n_j)."""
    holes = np.clip(1.0 - traj.populations, 0.0, None)
    holes.setflags(write=False)
    return replace(traj, populations=holes)


@dataclass(frozen=True)
class HardcoreStudy:
    u_over_j: float
    asymmetry_two_exc: float
    single_direction: Direction
    double_direction: Direction


def hardcore_limit_study(u_over_j: float) -> HardcoreStudy:
    """Three-site ring with on-site repulsion: spectra and flow per subspace.

    The repulsion term U n_j^2 leaves the single-excitation block untouched
    up to a uniform shift, while for U much larger than the hopping the
    double-excitation block splits off a singly-occupied band that mimics a
    hard-core (spin) network and circulates the opposite way.  The double
    subspace is read out through the hole population 1 - n_j.  Both flows
    run over three cycles, 4801 points on [0, 6 pi / sqrt(3)].
    """
    ring = sgf_ring(3, 3 * math.pi / 2)
    spec = replace(ring, onsite=tuple(OnSite(j, 0.0, float(u_over_j)) for j in (1, 2, 3)))
    times = np.linspace(0.0, 3.0 * 2.0 * math.pi / math.sqrt(3.0), 4801)

    verdict1 = chirality_order(simulate(spec, (1, 0, 0), times), [1, 2, 3], peak_threshold=0.9)
    traj2 = simulate(spec, (1, 1, 0), times)
    verdict2 = chirality_order(hole_view(traj2), [1, 2, 3], peak_threshold=0.9)

    basis2 = enumerate_basis(3, 2, spec.statistics)
    system2 = eigendecompose(build_hamiltonian(spec, basis2))
    single_occ = (basis2.occupations.max(axis=1) == 1).astype(float)
    weights = (np.abs(system2.eigenvectors) ** 2).T @ single_occ
    band = np.sort(system2.eigenvalues[np.argsort(weights)[-3:]])
    # Asymmetry of the hard-core band about its centroid: zero iff the levels
    # pair up symmetrically around the centre.
    centre = float(np.mean(band))
    asymmetry = float(np.max(np.abs((band - centre) + (band[::-1] - centre))))

    return HardcoreStudy(
        u_over_j=float(u_over_j),
        asymmetry_two_exc=asymmetry,
        single_direction=verdict1.direction,
        double_direction=verdict2.direction,
    )
