"""The benchmark's workloads: the CLI command each pass runs, and the check
applied to its output.

Each workload is one ``chiralflow`` command, run in-process through
``chiralflow.cli.main(argv)``.  Inputs derive only from the seed.  A check
returns the list of problems it found (empty when the output is correct)
and the workload's ``fidelity`` figure, the quality of the result against
its ideal, so that a faster program cannot pay for speed with accuracy.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

LADDER_CELLS = 8
# Every seed needs more than 1600 objective evaluations at 8 cells (1601 to
# 1800 for seeds 0-9), so this cap gives each seed the same work; without it
# the evaluation count, and with it wall_s, splits into two groups by seed.
LADDER_BUDGET = 1500
DENSE_CELLS = 6
DENSE_SITES = 2 * DENSE_CELLS + 2 + DENSE_CELLS  # ring sites plus one auxiliary per cell
DENSE_EXCITATIONS = 3
DENSE_GRID = 2001  # the CLI's default --grid
DISORDER_ROWS = 12  # three kinds times the CLI's four default amplitudes


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dense_pattern(seed: int) -> str:
    """Bit pattern with DENSE_EXCITATIONS sites drawn from the seed."""
    sites = set(random.Random(seed).sample(range(DENSE_SITES), DENSE_EXCITATIONS))
    return "".join("1" if j in sites else "0" for j in range(DENSE_SITES))


def dense_dim() -> int:
    """Dimension of the bosonic three-excitation sector of the dense workload."""
    return math.comb(DENSE_SITES + DENSE_EXCITATIONS - 1, DENSE_EXCITATIONS)


def uniform_ladder_fidelity(cli_main, out: str) -> float:
    """Cycle fidelity of the uniform-profile ladder, the bar criterion 10 sets."""
    if cli_main(["study", "ladder", "--nrange", str(LADDER_CELLS), "--out", out]) != 0:
        raise RuntimeError("study ladder failed")
    return float(_rows(out)[0]["fidelity"])


def check_ladder_opt(path: str, seed: int, reference: float) -> tuple[list[str], float]:
    problems = []
    rows = _rows(path)
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"], math.nan
    row = rows[0]
    fidelity = float(row["fidelity"])
    if row["monotone"] != "true":
        problems.append(f"profile not monotone: {row['profile']}")
    if not fidelity >= reference + 1e-3:
        problems.append(f"fidelity {fidelity:.6f} does not beat uniform {reference:.6f} by 1e-3")
    return problems, fidelity


def check_disorder(path: str, seed: int, reference: float) -> tuple[list[str], float]:
    problems = []
    rows = _rows(path)
    if len(rows) != DISORDER_ROWS:
        return [f"expected {DISORDER_ROWS} rows, got {len(rows)}"], math.nan
    clean = []
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        amplitude, mean = float(row["amplitude"]), float(row["mean_fidelity"])
        by_kind.setdefault(row["kind"], []).append((amplitude, mean))
        if amplitude == 0.0:
            clean.append(mean)
            if abs(mean - 1.0) > 1e-9:
                problems.append(f"{row['kind']}: clean mean {mean!r} is not 1 within 1e-9")
    for kind, points in by_kind.items():
        means = [mean for _, mean in sorted(points)]
        if any(b >= a for a, b in zip(means, means[1:])):
            problems.append(f"{kind}: mean fidelity does not fall with amplitude: {means}")
    if not clean:
        problems.append("no amplitude-0 rows")
    return problems, statistics.fmean(clean) if clean else math.nan


def check_floquet(path: str, seed: int, reference: float) -> tuple[list[str], float]:
    problems = []
    deviation = {float(row["ratio"]): float(row["max_deviation"]) for row in _rows(path)}
    if set(deviation) != {10.0, 20.0}:
        return [f"expected ratios 10 and 20, got {sorted(deviation)}"], math.nan
    if not deviation[10.0] > deviation[20.0]:
        problems.append(f"deviation does not fall with ratio: {deviation}")
    if not deviation[20.0] <= 0.05:
        problems.append(f"deviation at ratio 20 is {deviation[20.0]:.4f} > 0.05")
    return problems, 1.0 - deviation[20.0]


def check_dense_sector(path: str, seed: int, reference: float) -> tuple[list[str], float]:
    import numpy as np  # imported late: the harness sets BLAS threads first

    problems = []
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (DENSE_GRID, DENSE_SITES + 1):
        return [f"expected a {DENSE_GRID}x{DENSE_SITES + 1} table, got {table.shape}"], math.nan
    populations = table[:, 1:]
    drift = float(np.max(np.abs(populations.sum(axis=1) - DENSE_EXCITATIONS)))
    if drift > 1e-9:
        problems.append(f"populations sum to 3 only within {drift:.2e}")
    initial = np.array([int(c) for c in dense_pattern(seed)], dtype=float)
    if table[0, 0] != 0.0 or float(np.max(np.abs(populations[0] - initial))) > 1e-9:
        problems.append("the t=0 row is not the initial pattern")
    return problems, 1.0 - drift / DENSE_EXCITATIONS


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, str], list[str]]
    # A short command on the same code path, run untimed before the passes:
    # without it the first pass of a process runs up to 30% slower.
    warmup: Callable[[int, str], list[str]]
    check: Callable[[str, int, float], tuple[list[str], float]]
    # Spans the traced run requires to record calls.  Each is a layer this
    # workload exists to exercise and that no planned rewrite removes.
    expected: tuple[str, ...]
    # Computes the check's reference value once, before any timed pass.
    reference: Callable[[Callable, str], float] | None = None
    # The kernel set in calibration.KERNELS that matches the pass's work.
    calibration: str = "python"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ladder-opt",
        argv=lambda seed, out: ["study", "optimize", "--ncopies", str(LADDER_CELLS),
                                "--budget", str(LADDER_BUDGET), "--seed", str(seed), "--out", out],
        warmup=lambda seed, out: ["study", "optimize", "--ncopies", str(LADDER_CELLS),
                                  "--budget", "300", "--seed", str(seed), "--out", out],
        check=check_ladder_opt,
        expected=("cli.main", "cli.write_atomic", "experiments.optimize_ladder",
                  "experiments.revival_fidelity", "models.ladder"),
        reference=uniform_ladder_fidelity,
    ),
    Workload(
        name="disorder",
        argv=lambda seed, out: ["study", "disorder", "--seed", str(seed), "--out", out],
        warmup=lambda seed, out: ["study", "disorder", "--samples", "50", "--seed", str(seed),
                                  "--out", out],
        check=check_disorder,
        expected=("cli.main", "cli.write_atomic", "experiments.disorder_sweep",
                  "experiments.perturbed_spec", "dynamics.average_fidelity"),
    ),
    Workload(
        name="floquet",
        argv=lambda seed, out: ["study", "floquet", "--ratios", "10,20", "--out", out],
        warmup=lambda seed, out: ["study", "floquet", "--ratios", "2", "--out", out],
        check=check_floquet,
        expected=("cli.main", "cli.write_atomic", "floquet.compare_effective"),
    ),
    Workload(
        name="dense-sector",
        argv=lambda seed, out: ["simulate", "--model", "ladder", "--n", str(DENSE_CELLS),
                                "--init", dense_pattern(seed), "--out", out],
        warmup=lambda seed, out: ["simulate", "--model", "ladder", "--n", "4",
                                  "--init", "1110" + "0" * 10, "--out", out],
        check=check_dense_sector,
        expected=("cli.main", "cli.write_atomic", "hilbert.enumerate_basis",
                  "hilbert.build_hamiltonian", "dynamics.eigendecompose", "dynamics.evolve",
                  "dynamics.trajectory_to_csv"),
        calibration="lapack",
    ),
)}
