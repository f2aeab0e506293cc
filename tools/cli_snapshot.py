"""Record the CLI's output on a fixed command set, for byte-identity checks.

Usage: python tools/cli_snapshot.py OUTDIR

Each command runs in a fresh interpreter on the ``src`` tree next to this
script, with ``OUTDIR/<name>`` as its working directory, so the files it
writes land there under relative names.  Beside them go ``stdout``,
``stderr`` and ``exit_code``.  A refactor that should not change behaviour
is checked by snapshotting the parent and the change into two directories
and comparing them with ``diff -r``.  Nothing is written outside OUTDIR.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "floquet-default": ["study", "floquet", "--out", "floquet.csv"],
    "floquet-10-20": ["study", "floquet", "--ratios", "10,20", "--out", "floquet.csv"],
    "bell-psi": ["study", "bell", "--initial", "psi", "--out", "bell.csv"],
    "bell-phi": ["study", "bell", "--initial", "phi", "--out", "bell.csv"],
    "simulate-asgf": ["simulate", "--model", "asgf", "--n", "4",
                      "--out", "traj.csv", "--svg", "traj.svg"],
    "simulate-spin-sgf": ["simulate", "--model", "spin-sgf", "--init", "110",
                          "--out", "traj.csv"],
    "spectrum-chiral-6": ["spectrum", "--model", "chiral", "--n", "6"],
    "criteria-sgf-4": ["criteria", "--model", "sgf", "--n", "4"],
    # A true verdict: every winding, the two hybridised m = 0 levels included.
    "criteria-chiral-12": ["criteria", "--model", "chiral", "--n", "12"],
    "disorder": ["study", "disorder", "--samples", "20", "--out", "disorder.csv"],
    # The benchmark's command: 12 rows of 200 samples.
    "disorder-default": ["study", "disorder", "--seed", "0", "--out", "disorder.csv"],
    # Strength draws of 3 cross zero (the phase gains pi); phase draws of 4
    # wrap past pi.
    "disorder-strength-cross": ["study", "disorder", "--kind", "hopping_strength",
                                "--amplitudes", "0,3", "--samples", "50", "--out", "disorder.csv"],
    "disorder-phase-wrap": ["study", "disorder", "--kind", "hopping_phase",
                            "--amplitudes", "4", "--samples", "50", "--out", "disorder.csv"],
    "ladder": ["study", "ladder", "--nrange", "1:6", "--out", "ladder.csv"],
    "oracle-check": ["oracle-check"],
    "optimize": ["study", "optimize", "--ncopies", "8", "--budget", "1500", "--seed", "0",
                 "--out", "optimize.csv"],
    # A 120-state sector: the dense branch, with K cut to 16 so that the fold
    # of the phases into the modes is no larger than the phase table.
    "simulate-ladder-3b": ["simulate", "--model", "ladder", "--n", "2", "--init", "11100000",
                           "--out", "traj.csv"],
    # The same sector on 100 points: K = 1, the fold is the size of the modes.
    "simulate-ladder-3b-short": ["simulate", "--model", "ladder", "--n", "2", "--init", "11100000",
                                 "--grid", "100", "--out", "traj.csv"],
    # A 1540-state sector: the Krylov branch of evolve.
    "dense-sector": ["simulate", "--model", "ladder", "--n", "6",
                     "--init", "01000000000011000000", "--out", "traj.csv"],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name, args in COMMANDS.items():
        cwd = out / name
        cwd.mkdir(parents=True, exist_ok=False)
        run = subprocess.run([sys.executable, "-m", "chiralflow.cli", *args],
                             cwd=cwd, env=env, capture_output=True)
        (cwd / "stdout").write_bytes(run.stdout)
        (cwd / "stderr").write_bytes(run.stderr)
        (cwd / "exit_code").write_text(f"{run.returncode}\n")
        print(f"{name}: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
