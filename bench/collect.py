"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads ladder-opt,floquet --seeds 0-9 \
        --seconds 15 --trace 0 --out bench/out/summary.json

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
reports for every metric the values, the median, the quartiles and the
spread (distance between the quartiles as a share of the median).  For
end-to-end metrics the spread is compared with a third of the metric's bound
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else None
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,7")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds),
                flush=True)
            results.append(result)
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": {}}
        for name, metric in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = metric["unit"]
            entry["metrics"][name] = stats
            if name in bounds:
                ok = stats["spread"] is not None and stats["spread"] < bounds[name] / 3
                steady &= ok or name == "setup_s"  # the driver does not bound setup's spread
                print(f"  {workload} {name}: median {stats['median']:.6g} spread "
                      f"{stats['spread']:.4f} (bound/3 {bounds[name] / 3:.4f}) "
                      f"{'ok' if ok else 'WIDE'}", flush=True)
        steady &= entry["correct"]
        summary[workload] = entry
    Path(args.out).write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                          "trace": args.trace, "workloads": summary},
                                         indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
