"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads maxmult fiber]
        [--trace] [--out perfbench/results/<label>.json]

For every workload and end-to-end metric it prints the median over the
seeds and the spread, the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, and flags
a spread above a third of the metric's bound in BENCHMARK.json.  ``--trace``
adds one traced run per workload (the first seed) for the per-layer
metrics.  ``--out`` saves every value with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu": cpu_model(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in names:
        runs = [run(workload, s, bench["run_seconds"], 0) for s in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = "  <-- above a third of the bound" if spread > bounds[metric] / 3 else ""
            print(f"{workload:8s} {metric:16s} median {median:10.4f}  spread {spread:.4f}{flag}")
            entry["end_to_end"][metric] = {"median": median, "spread": spread, "values": values}
        entry["run_s"] = [round(r["run_s"], 1) for r in runs]
        if args.trace:
            traced = run(workload, args.seeds[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["correct"] = entry["correct"] and traced["correct"]
        print(f"{workload:8s} correct {entry['correct']}  run seconds {entry['run_s']}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
