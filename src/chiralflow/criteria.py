"""Spectral criteria for perfect chiral flow and the symmetry checks behind them.

A perfect single-subspace chiral flow needs (i) a spectrum symmetric about
zero and harmonic (every nonzero level an integer multiple of the smallest
one, the unit, with no degeneracies), (ii) eigenvectors whose restrictions
to the ring form a complete set of uniform-modulus plane waves, one winding
number per mode, and (iii) each level linear in its winding mod n: some
stride s coprime to n and some c with level / unit = s m + c (mod n) for
every level of winding m.  Then at the step time tau = 2 pi / (n unit) every
plane wave gains the phase of one common shift by s sites, and the
excitation steps from site j to site j + s.  A 5-node ring circulant whose
windings m = 0..4 carry the levels 0, 1, -1, 2, -2 meets (i) and (ii) but
not (iii), and for no shift does the shifted site's population ever exceed
0.6.  The verdict needs all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    Direction,
    Trajectory,
    _node_columns,
    chirality_order,
    cluster_levels,
    eigendecompose,
    simulate,
)
from .errors import DimensionMismatch, NotSpin
from .hilbert import HermitianMatrix, OnSite, build_hamiltonian, enumerate_basis, occupation
from .models import ChiralOperator, NetworkSpec, sgf_ring
from .oracles import ring_mode_numbers


@dataclass(frozen=True)
class CriteriaReport:
    spectrum_symmetric: bool
    max_asymmetry: float
    equally_spaced: bool
    max_spacing_deviation: float
    degenerate_levels: int
    chiral_modes_complete: bool
    windings: tuple[int | None, ...]  # one per level, None where no plane wave fits
    stride: int | None  # s of criterion (iii), None where no s fits
    step_time: float | None  # tau = 2 pi / (n unit), None without a positive level
    verdict: bool

    def summary(self) -> str:
        lines = [
            f"spectrum_symmetric: {str(self.spectrum_symmetric).lower()}"
            f" (max asymmetry {self.max_asymmetry:.3e})",
            f"equally_spaced: {str(self.equally_spaced).lower()}"
            f" (max deviation {self.max_spacing_deviation:.3e},"
            f" degenerate levels {self.degenerate_levels})",
            f"chiral_modes_complete: {str(self.chiral_modes_complete).lower()}"
            f" (windings {list(self.windings)})",
            f"levels_linear_in_winding: {str(self.stride is not None).lower()}"
            f" (stride {'none' if self.stride is None else self.stride}, step time"
            f" {'none' if self.step_time is None else format(self.step_time, '.6g')})",
            f"verdict: {str(self.verdict).lower()}",
        ]
        return "\n".join(lines)


def check_criteria(h: HermitianMatrix, ring_nodes) -> CriteriaReport:
    """Evaluate the three chiral-flow criteria on one excitation block.

    ``ring_nodes`` are the 1-based ring site labels, OutOfRange outside
    1..dim; any remaining rows are treated as auxiliary.  The spectral tests
    use the relative tolerance 1e-9.  The ring part of each eigen-cluster is
    matched against one table of the n plane waves
    exp(2 pi i m j / n) / sqrt(n): a single level takes the best-matching
    wave when its renormalised ring part has uniform moduli and a residual
    sqrt(1 - overlap^2) both within sqrt(1e-9); a degenerate cluster takes,
    in mode order, every wave whose projection onto it has norm at least
    1 - sqrt(1e-9).  Levels left unmatched have winding None.  The stride
    of criterion (iii) is the smallest that fits every matched level, each
    level / unit rounded to an integer.
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
    unit = None
    if positive.size:
        unit = float(np.min(positive))
        ratios = positive / unit
        spacing_dev = float(np.max(np.abs(ratios - np.round(ratios)) / np.maximum(ratios, 1.0)))
    else:
        spacing_dev = 0.0
    equally_spaced = degenerate == 0 and spacing_dev <= tol

    ring = _node_columns(ring_nodes, dim)
    n = len(ring)
    modes = ring_mode_numbers(n)
    waves = np.exp(2j * math.pi * np.outer(modes, np.arange(n)) / n) / math.sqrt(n)
    windings: list[int | None] = []
    for cluster in clusters:
        block = system.eigenvectors[np.ix_(ring, cluster)]
        if len(cluster) > 1:
            weights = np.linalg.norm(waves.conj() @ block, axis=1)
            matched = [m for m, w in zip(modes, weights) if w >= 1.0 - mod_tol]
            windings += matched + [None] * (len(cluster) - len(matched))
            continue
        norm = float(np.linalg.norm(block))
        if norm < 1e-9:
            windings.append(None)
            continue
        part = block[:, 0] / norm
        uniform = float(np.max(np.abs(np.abs(part) - 1.0 / math.sqrt(n)))) <= mod_tol
        # The residual is the out-of-mode weight of the best match, which
        # avoids branch cuts in per-link phase steps.
        overlaps = np.abs(waves.conj() @ part)
        best = int(np.argmax(overlaps))
        residual = math.sqrt(max(0.0, 1.0 - overlaps[best] * overlaps[best]))
        windings.append(modes[best] if uniform and residual <= mod_tol else None)

    found = [m for m in windings if m is not None]
    complete = len(found) == dim and set(modes) <= set(found)
    stride = None if unit is None else _stride(values / unit, windings, n)

    return CriteriaReport(
        spectrum_symmetric=symmetric,
        max_asymmetry=asym,
        equally_spaced=equally_spaced,
        max_spacing_deviation=spacing_dev,
        degenerate_levels=degenerate,
        chiral_modes_complete=complete,
        windings=tuple(windings),
        stride=stride,
        step_time=None if unit is None else 2.0 * math.pi / (n * unit),
        verdict=symmetric and equally_spaced and complete and stride is not None,
    )


def _stride(ratios: np.ndarray, windings, n: int) -> int | None:
    """The smallest s coprime to n for which some c gives round(ratio) =
    s m + c (mod n) for every level with a winding m, or None."""
    pairs = [(round(float(r)), m) for r, m in zip(ratios, windings) if m is not None]
    if not pairs:
        return None
    k0, m0 = pairs[0]
    for s in range(1, n):
        if math.gcd(s, n) == 1 and all((k - k0 - s * (m - m0)) % n == 0 for k, m in pairs):
            return s
    return None


def check_chiral_symmetry(h: HermitianMatrix, operator: ChiralOperator) -> float:
    """Max-norm residual of C^-1 H C + H; zero iff C inverts the spectrum."""
    m = h.matrix
    c = operator.matrix
    if c.shape != m.shape:
        raise DimensionMismatch(f"operator {c.shape} does not match matrix {m.shape}")
    residual = c.conj().T @ m @ c + m
    return float(np.max(np.abs(residual)))


def check_time_reversal_spin(spec: NetworkSpec, times=None) -> bool:
    """Behavioural time-reversal check for spin networks.

    Evolving the globally spin-flipped image of the excitation on site 1
    under the same Hamiltonian must reproduce the original excitation traces
    with the flow direction reversed, P_flip_j(t) = 1 - P_orig_j(-t), to
    within 1e-9.  Both runs go through ``simulate``: the flipped state on
    ``times``, the original on the negated grid read back in reverse.
    ``times`` is an ascending grid and defaults to 1601 points on [0, 12].
    """
    if not spec.statistics.is_spin:
        raise NotSpin("time-reversal mirroring is defined for spin networks")
    times = np.linspace(0.0, 12.0, 1601) if times is None else np.asarray(times, float)
    initial = occupation(spec.n_sites, 1)
    forward_flipped = simulate(spec, tuple(1 - n for n in initial), times).populations
    backward_original = simulate(spec, initial, -times[::-1]).populations[::-1]
    return float(np.max(np.abs(forward_flipped - (1.0 - backward_original)))) <= 1e-9


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
