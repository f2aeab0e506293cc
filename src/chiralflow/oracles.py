"""Closed-form reference dynamics for the ring and ladder networks.

Every function evaluates an analytic expression only (no matrix
exponentials or eigendecompositions), so its results can be compared
against the numeric evolution as an independent check.  Times are in units
of the inverse base hopping rate and the base rate itself is set to 1.
"""

from __future__ import annotations

import math

import numpy as np


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


def three_cell_ladder_amplitude(t) -> np.ndarray | float:
    """Return amplitude on corner 1 of the three-cell ladder, ``ladder(3, [2])``.

    A(t) = 11/56 + 3/8 cos(sqrt(2) t) + 11/40 cos(2 sqrt(2) t)
           + 1/8 cos(3 sqrt(2) t) + 1/35 cos(2 sqrt(7) t);
    the population back on corner 1 is A(t)^2.
    """
    t = np.asarray(t, dtype=float)
    r2 = math.sqrt(2.0)
    value = (11.0 / 56.0 + 3.0 / 8.0 * np.cos(r2 * t) + 11.0 / 40.0 * np.cos(2.0 * r2 * t)
             + 1.0 / 8.0 * np.cos(3.0 * r2 * t) + 1.0 / 35.0 * np.cos(2.0 * math.sqrt(7.0) * t))
    return value if value.ndim else float(value)
