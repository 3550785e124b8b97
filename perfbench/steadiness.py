"""Run the benchmark on several seeds and summarise how steady it is.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads switch_mixed engine_hot deploy_churn \\
        --seeds 1-10 --out perfbench/results/steadiness.json

For every workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e. the
inter-quartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  Each run's full result line is kept too,
with the share of CPU time the hypervisor stole from the host during its
window, each sub-window and each set-up launch (``/proc/stat``), how many
times slower than the reference the host ran in each sub-window, and the
metrics before they were scaled to the reference speed, whose spreads are
summarised next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(runs: list[dict], bounds: dict, key: str = "metrics") -> dict:
    out = {}
    for name in runs[0][key]:
        values = [run[key][name]["value"] if key == "metrics" else run[key][name]
                  for run in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import host_record

    record = {"seconds": seconds, "host": host_record(), "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            run_record = max(ROOT.glob(f".perfbench_runs/{workload}-s{seed}-t0-*/record.json"),
                             key=lambda p: p.stat().st_mtime)
            details = json.loads(run_record.read_text())["details"]
            result["host_steal_ratio"] = details["host_steal_ratio"]
            result["subwindow_steal"] = [w["steal"] for w in details["subwindows"]]
            result["setup_steal"] = [p["steal"] for p in details["setup_s"]["phases"]]
            result["subwindow_slowdown"] = details["subwindow_slowdown"]
            result["unscaled"] = details["unscaled"]
            runs.append(result)
            print(workload, seed, result["correct"], result["failed"],
                  len(result["subwindow_steal"]), file=sys.stderr)
        summary = summarise(runs, bounds)
        unscaled = summarise(runs, bounds, "unscaled")
        record["workloads"][workload] = {"summary": summary, "unscaled_summary": unscaled,
                                         "runs": runs}
        for name, row in summary.items():
            flag = "" if row["bound"] is None or row["spread"] <= row["bound"] / 3 else "  <-- wide"
            print(f"{workload:13s} {name:20s} median {row['median']:12.4f} "
                  f"spread {row['spread']:.3f} (unscaled {unscaled[name]['spread']:.3f}) "
                  f"bound {row['bound']}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
