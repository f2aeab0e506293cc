"""Benchmark of the chiralflow command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One client runs
the workload's CLI command in-process through ``chiralflow.cli.main(argv)``,
one pass after another (a closed loop), until ``--seconds`` have passed
(and for at least ``MIN_PASSES`` timed passes); a short untimed command on
the same code path warms the process up first.  Every pass's output is
checked.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
Times are reference wall times: each timed pass and set-up is calibrated
against the host's speed by ``calibration.py``, and the raw wall times go to
the record.
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones; the tracing overhead is the difference of
their median wall times.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the environment, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import BLOCK_S, KERNELS, Calibration, python_kernels
from tracer import TARGETS, Tracer, TraceError
from workloads import WORKLOADS, dense_dim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MIN_PASSES = 2
# setup_s: a fresh interpreter imports chiralflow.cli and builds its parser.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from chiralflow.cli import main; main(['--help'])")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def spawn_setup() -> None:
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   stdout=subprocess.DEVNULL, cwd=ROOT)


def time_setups() -> tuple[list[float], list[float]]:
    """Wall and reference wall times of SETUP_REPEATS set-ups.  The child
    interpreter runs on its own, so the parent samples no kernels during it."""
    calibration = Calibration(python_kernels(), sample=False)
    times = [calibration.measure(spawn_setup)[:2] for _ in range(SETUP_REPEATS)]
    return [wall for wall, _ in times], [ref for _, ref in times]


def plain_timer(run):
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, math.nan, result


def run_pass(cli, workload, seed: int, out: str, reference: float, timer):
    """One CLI command timed by ``timer``; returns (wall seconds, reference
    wall seconds, problems, fidelity)."""
    if os.path.exists(out):
        os.unlink(out)
    argv = workload.argv(seed, out)

    def command():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            return "exception"

    wall, ref_wall, code = timer(command)
    if code != 0:
        return wall, ref_wall, [f"exit code {code}"], math.nan
    try:
        problems, fidelity = workload.check(out, seed, reference)
    except (OSError, ValueError, KeyError) as exc:
        problems, fidelity = [f"unreadable output: {exc}"], math.nan
    return wall, ref_wall, problems, fidelity


# --- environment --------------------------------------------------------

def _cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    """Per cache level: size of one instance and the number of instances."""
    out: dict[str, dict] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = "L" + (index / "level").read_text().strip()
            shared = {p.read_text().strip() for p in
                      Path("/sys/devices/system/cpu").glob(f"cpu[0-9]*/cache/{index.name}/shared_cpu_list")}
            out[level] = {"size": (index / "size").read_text().strip(), "instances": len(shared)}
    return out


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    with contextlib.suppress(OSError):
        libs = {line.split()[-1] for line in open("/proc/self/maps", encoding="utf-8")
                if "openblas" in line.lower() and line.split()[-1].startswith("/")}
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    dim = dense_dim()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
        "dense_sector_dim": dim,
        "dense_sector_matrix_mb_computed": dim * dim * 16 / 1e6,
    }


# --- measurement --------------------------------------------------------

def check_trace(workload, totals: dict) -> None:
    missing = [name for name in workload.expected if totals[name]["calls"] == 0]
    if missing:
        raise TraceError(f"expected spans recorded no calls on {workload.name}: {missing}")


def run_passes(cli, workload, args, reference: float, out: str) -> dict:
    """Passes while the next one is expected to end before the deadline,
    and at least ``min_passes``.
    Untraced passes are timed with host-speed calibration.  With tracing,
    untraced (u) and traced (t) passes follow the order u t t u u t t u ...,
    so a drift in machine speed does not land on one side of the overhead."""
    runs = {"wall_s": [], "ref_wall_s": [], "traced_wall_s": [], "fidelity": [],
            "totals": [], "problems": []}
    deadline = time.perf_counter() + args.seconds
    calibration = Calibration(KERNELS[workload.calibration](),
                              sample=workload.calibration == "python")
    # The traced run needs one pass of each kind; a timed run takes a median
    # of at least MIN_PASSES, even when that overruns --seconds.
    min_passes = 1 if args.trace else MIN_PASSES
    last = 0.0
    while (len(runs["wall_s"]) < min_passes or (args.trace and not runs["traced_wall_s"])
           or time.perf_counter() + last + BLOCK_S < deadline):
        if args.trace and len(runs["fidelity"]) % 4 in (1, 2):
            tracer = Tracer()
            with tracer:
                wall, _, problems, fidelity = run_pass(cli, workload, args.seed, out,
                                                       reference, plain_timer)
            calibration.skip()
            check_trace(workload, totals := tracer.totals())
            runs["traced_wall_s"].append(wall)
            runs["totals"].append(totals)
            runs["tracer"] = tracer
        else:
            wall, ref_wall, problems, fidelity = run_pass(cli, workload, args.seed, out,
                                                          reference, calibration.measure)
            runs["wall_s"].append(wall)
            runs["ref_wall_s"].append(ref_wall)
        last = wall
        runs["fidelity"].append(fidelity)
        runs["problems"].extend(problems[:1])  # one entry per failed pass
        for problem in problems:
            print(f"check failed: {workload.name} seed {args.seed}: {problem}", file=sys.stderr)
    return runs


def layer_values(runs: dict, names: list[str], spans_path: Path) -> dict[str, float]:
    """Median over traced passes of each ``<module>.<function>.<stat>``, and
    the tracing overhead."""
    values = {}
    for name in names:
        function, stat = name.rsplit(".", 1)
        if function in TARGETS:
            values[name] = statistics.median(t[function][stat] for t in runs["totals"])
    overhead = statistics.median(runs["traced_wall_s"]) - statistics.median(runs["wall_s"])
    values["trace.overhead_s"] = overhead
    # Self times partition cli.main's span, so their sum must match it.
    residual = statistics.median(sum(t[f]["self_s"] for f in TARGETS) - t["cli.main"]["s"]
                                 for t in runs["totals"])
    if abs(residual) > abs(overhead) + 1e-6:
        raise TraceError(f"span self times miss cli.main.s by {residual:.3g} s")
    runs["tracer"].write(spans_path)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chiralflow" / "__init__.py").is_file():
        print(f"error: no chiralflow source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0))
    # OpenBLAS reads these when numpy loads it, so they precede the import.
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    os.environ.pop("CHIRALFLOW_THREADS", None)
    sys.path.insert(0, str(SRC))
    import chiralflow.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "chiralflow").resolve():
        print(f"error: imported chiralflow from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            out = os.path.join(tmp, "out.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                reference = workload.reference(cli.main, out) if workload.reference else math.nan
            setup_walls, setups = ([], []) if args.trace else time_setups()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(workload.warmup(args.seed, out)) != 0:
                    print(f"error: warm-up of {workload.name} failed", file=sys.stderr)
                    return 1
            runs = run_passes(cli, workload, args, reference, out)
        if args.trace:
            values = layer_values(runs, [m["name"] for m in spec["per_layer"]],
                                  OUT / f"spans-{workload.name}-s{args.seed}.jsonl")
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = runs["wall_s"]
    q1, median, q3 = quartiles(walls)
    if not args.trace:
        fidelities = [f for f in runs["fidelity"] if not math.isnan(f)]
        values = {
            "setup_s": statistics.median(setups),
            "ref_wall_s": statistics.median(runs["ref_wall_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fidelity": statistics.median(fidelities or [0.0]),
        }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = len(runs["fidelity"])
    failed = len(runs["problems"])
    env = environment(args.seed, nproc)
    record = {"workload": workload.name, "trace": args.trace, "environment": env,
              "wall_s": walls, "wall_s_quartiles": [q1, median, q3],
              "ref_wall_s": runs["ref_wall_s"],
              "traced_wall_s": runs["traced_wall_s"], "setup_wall_s": setup_walls,
              "setup_s": setups,
              "problems": runs["problems"], "error_rate": failed / attempted, "metrics": metrics}
    (OUT / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name} seed {args.seed}: {attempted} passes, error_rate {failed / attempted:g}")
    print(f"  environment {json.dumps(env)}")
    print(f"  wall_s quartiles {q1:.4f} / {median:.4f} / {q3:.4f} s (untraced passes)")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
