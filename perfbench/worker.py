"""One workload in one fresh Python process: a closed loop with one client.

Started by ``run.py``.  It imports ``numsgps`` from the checkout's ``src``,
builds the seeded query list, runs one warm-up query, prints ``READY``, and
then calls ``numsgps.cli.main(argv)`` in-process for each query in turn,
with stdout and stderr captured, checking every output.  ``--probe`` stops
after ``READY`` (set-up is timed from outside).  The last line it prints is
its result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import checks
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_DIR = os.path.join(HERE, "expected")
OUT_DIR = os.path.join(HERE, "out")

QUERY_LIMIT_S = 30.0  # a query running longer than this fails
# Within a pass a query runs again, back to back, until its runs add up to
# REPEAT_UNTIL_S or it has run MAX_RUNS times: a single run of a
# millisecond query is too noisy on a shared machine to place a median.
REPEAT_UNTIL_S = 0.05
MAX_RUNS = 3
RUN_LIMIT_S = 120.0  # no query starts later than this into the run
TRACE_QUERY_LIMIT_S = 3 * QUERY_LIMIT_S


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout()


def import_cli():
    """``numsgps.cli`` from the checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "numsgps", "__init__.py")):
        raise SystemExit(f"perfbench: no numsgps package under {SRC}")
    sys.path.insert(0, SRC)
    import numsgps.cli

    if not os.path.abspath(numsgps.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: numsgps was imported from {numsgps.cli.__file__}")
    return numsgps.cli


def load_expected(workload: str, pool) -> list[dict]:
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if record["fingerprint"] != checks.fingerprint(e.key for e in pool):
        raise SystemExit(f"perfbench: {path} does not match the {workload} pool; re-record it")
    return record["entries"]


def run_query(main, argv, limit_s: float):
    """(seconds, exit code or failure tag, stdout) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 1
    except QueryTimeout:
        code = "timeout"
    except Exception as exc:  # noqa: BLE001 - any crash is a failed query
        code = f"raised {type(exc).__name__}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = saved
    return elapsed, code, out.getvalue()


def check(workload: str, expected: dict, code, stdout: str) -> str | None:
    """Why an outcome is wrong, or None when it matches the record."""
    if not isinstance(code, int):
        return code
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    if workload == "sweep":
        if checks.sweep_digest(code, stdout) != expected["digest"]:
            return "columns fixed by S differ from the record"
        return checks.sweep_low_e_error(stdout) if code == 0 else None
    if checks.digest(code, stdout) != expected["digest"]:
        return "output differs from the record"
    return None


class Loop:
    """Runs passes over the query list and keeps what the metrics need.

    Query times are kept at reference speed (see ``speed.Clock``).
    """

    def __init__(self, workload, cli, queries, expected):
        self.workload = workload
        self.cli = cli  # main is looked up per call, so a traced pass sees the wrapper
        self.queries = queries
        self.expected = expected
        self.samples = [[] for _ in queries]  # scaled seconds of every run, per query
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, limit_s: float, deadline: float | None = None, max_runs: int = MAX_RUNS):
        """(wall seconds, raw and scaled seconds of the queries) of one pass."""
        clock = speed.Clock()
        clock.start()
        try:
            return self._pass(clock, limit_s, deadline, max_runs)
        finally:
            clock.stop()

    def _pass(self, clock, limit_s, deadline, max_runs):
        raw = scaled = 0.0
        t0 = time.perf_counter()
        before = speed.edge()
        for i, q in enumerate(self.queries):
            if deadline is not None and time.perf_counter() > deadline:
                break
            spent = 0.0
            for _ in range(max_runs):
                gc.collect()  # each run starts from the same collector state
                seconds, seconds_scaled, before, (_, code, stdout) = clock.measure(
                    lambda: run_query(self.cli.main, q.argv, limit_s), before
                )
                spent += seconds
                raw += seconds
                scaled += seconds_scaled
                self.samples[i].append(seconds_scaled)
                self.attempted += 1
                why = check(self.workload, self.expected[q.index], code, stdout)
                if why is not None:
                    self.failures.append(f"{' '.join(q.argv)}: {why}")
                if spent >= REPEAT_UNTIL_S:
                    break
        return time.perf_counter() - t0, raw, scaled


def tail(values: list[float]) -> tuple[float, int, float]:
    """(percentile, samples, value): the highest whole percentile with at
    least ten samples beyond it (nearest rank), or the maximum if there are
    at most ten samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, n, ordered[-1]
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct / 100 * n)
    return float(pct), n, ordered[rank - 1]


def end_to_end(loop: Loop, raw_s: float, scaled_s: float) -> tuple[dict, dict]:
    per_query = [statistics.median(s) for s in loop.samples if s]
    pct, n, tail_s = tail(per_query)
    failed = len(loop.failures)
    metrics = {
        "queries_per_s": (len(per_query) / sum(per_query), "1/s"),
        "latency_p50_ms": (statistics.median(per_query) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": ((loop.attempted - failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "tail_percentile": pct,
        "tail_samples": n,
        "failed_ratio": failed / loop.attempted,
        "speed_factor": scaled_s / raw_s,
        "runs_per_query": max(len(s) for s in loop.samples),
        "queries_per_pass": len(loop.queries),
    }
    return metrics, detail


def traced_pass(loop: Loop, untraced_scaled: float):
    import tracer

    tr = tracer.Tracer()
    snapshot = module_attributes()
    tr.install()
    try:
        wall, raw, scaled = loop.one_pass(TRACE_QUERY_LIMIT_S, max_runs=1)
    finally:
        tr.restore()
    summary = tr.summary()
    errors = list(summary["errors"])
    if module_attributes() != snapshot:
        errors.append("module attributes differ after the traced pass")
    metrics = tracer.layer_metrics(summary, wall, wall - raw, scaled / untraced_scaled)
    accounted = metrics["trace.accounted_ratio"][0]
    if not 0.95 <= accounted <= 1.0 + 1e-6:
        errors.append(f"self times plus harness time cover {accounted:.4f} of the wall time")
    tr.write(os.path.join(OUT_DIR, f"trace-{loop.workload}.spans"))
    return metrics, errors, summary["spans"]


def module_attributes() -> dict:
    return {
        (name, key): id(value)
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "numsgps"
        for key, value in vars(module).items()
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    cli = import_cli()
    t_import = time.perf_counter()
    pool = workloads.pool(args.workload)
    expected = load_expected(args.workload, pool)
    queries = workloads.select(args.workload, args.seed, pool, expected)
    t_inputs = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    run_query(cli.main, workloads.WARMUP[args.workload], QUERY_LIMIT_S)
    gc.collect()
    gc.freeze()  # the harness's own objects stay out of every later collection
    t_ready = time.perf_counter()
    print("READY", flush=True)
    if args.probe:
        return 0

    loop = Loop(args.workload, cli, queries, expected)
    deadline = t_ready + RUN_LIMIT_S
    result = {
        "setup_parts_s": {
            "import": t_import - t0,
            "inputs": t_inputs - t_import,
            "warmup": t_ready - t_inputs,
        }
    }
    if args.trace:
        # One run per query in both passes, so counts repeat exactly.
        _, _, untraced = loop.one_pass(QUERY_LIMIT_S, deadline, max_runs=1)
        metrics, errors, spans = traced_pass(loop, untraced)
        result.update(trace_errors=errors, spans=spans)
    else:
        raw = scaled = 0.0
        passes = 0
        while True:  # whole passes, as many as fit in --seconds (at least one)
            _, pass_raw, pass_scaled = loop.one_pass(QUERY_LIMIT_S, deadline)
            raw += pass_raw
            scaled += pass_scaled
            passes += 1
            elapsed = time.perf_counter() - t_ready
            if elapsed * (passes + 1) / passes > args.seconds:
                break
        metrics, detail = end_to_end(loop, raw, scaled)
        result.update(detail, passes=passes)
        errors = []
    result.update(
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=loop.failures[:20],
        correct=not loop.failures and not errors,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
