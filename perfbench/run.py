"""numsgps benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload maxmult --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh Python
process (``worker.py``) that drives ``numsgps.cli.main`` in-process.  Set-up
is timed from process start to the first timed query, several times, and
reported as the median.  The last line printed is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9  # set-up is timed this many times; the median is reported
READY_LIMIT_S = 60.0
RUN_LIMIT_S = 170.0


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NUMSGPS_ORACLE_CEILING", None)  # the census ceiling stays at its default
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, probe: bool):
    """(process, set-up seconds at reference speed): the worker started and
    past its READY line."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    if probe:
        cmd.append("--probe")
    before = speed.edge()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True
    )
    ready, _, _ = select.select([proc.stdout], [], [], READY_LIMIT_S)
    line = proc.stdout.readline() if ready else ""
    setup = (time.perf_counter() - t0) * speed.factor(before + speed.edge())
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker did not get ready (exit {proc.returncode})")
    return proc, setup


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "numsgps", "cli.py")):
        print("perfbench: run from a numsgps checkout (src/numsgps not found)", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, probe=True)
            proc.communicate(timeout=READY_LIMIT_S)
            if proc.returncode != 0:
                print(f"perfbench: set-up probe failed with exit {proc.returncode}", file=sys.stderr)
                return 1
            setups.append(setup)
    proc, setup = start_worker(args, probe=False)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: worker ran out of time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"perfbench: worker failed with exit {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["setup_samples_s"] = setups

    for key, value in result.items():
        if key != "metrics":
            print(f"# {key}: {json.dumps(value)}")
    for name, m in sorted(metrics.items()):
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    final = {k: result[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
