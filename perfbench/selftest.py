"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is emitted with its unit, that a
wrong output, an exception, a timeout and a bad sweep certificate each count
as failures, and that the tracer's wrappers reach every namespace that bound
a traced function and leave every module attribute as it was.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import types

import checks
import tracer
import worker
import workloads

TINY = 4  # queries per workload


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny_loop(workload: str, cli) -> worker.Loop:
    pool = workloads.pool(workload)
    expected = worker.load_expected(workload, pool)
    queries = workloads.select(workload, 1, pool, expected)
    if workload == "sweep":  # the cheapest sweep seeds keep this quick
        queries = [q for q in queries if q.argv[-1] in {"1", "5", "6", "12"}] or queries
    return worker.Loop(workload, cli, queries[:TINY], expected)


def check_metric_names(cli, bench):
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in workloads.WORKLOADS:
        loop = tiny_loop(workload, cli)
        _, raw, scaled = loop.one_pass(worker.QUERY_LIMIT_S)
        e2e, _ = worker.end_to_end(loop, raw, scaled)
        got = {k: u for k, (_, u) in e2e.items()}
        got["setup_s"] = "s"  # added by run.py from its timed start-ups
        expect(got == want_e2e, f"{workload} end-to-end metrics {got} != {want_e2e}")
        layer, errors, _ = worker.traced_pass(loop, scaled)
        got = {k: u for k, (_, u) in layer.items()}
        expect(got == want_layer, f"{workload} per-layer metrics differ: {set(got) ^ set(want_layer)}")
        expect(not errors, f"{workload} trace errors: {errors}")
        expect(not loop.failures, f"{workload} failed on real outputs: {loop.failures}")


def check_failures_count(cli):
    def wrong_output(argv):
        sys.stdout.write("not the recorded answer\n")
        return 0

    def crash(argv):
        raise RuntimeError("injected")

    def hang(argv):
        time.sleep(5)
        return 0

    for fake, limit, tag in (
        (wrong_output, worker.QUERY_LIMIT_S, "output differs"),
        (crash, worker.QUERY_LIMIT_S, "raised RuntimeError"),
        (hang, 0.05, "timeout"),
    ):
        loop = tiny_loop("maxmult", types.SimpleNamespace(main=fake))
        loop.queries = loop.queries[:2]
        loop.one_pass(limit)
        expect(loop.attempted >= 2, f"{fake.__name__}: attempted {loop.attempted}")
        expect(len(loop.failures) == loop.attempted, f"{fake.__name__}: failures {loop.failures}")
        expect(all(tag in f for f in loop.failures), f"{fake.__name__}: {loop.failures}")
        _, detail = worker.end_to_end(loop, 1.0, 1.0)
        expect(detail["failed_ratio"] == 1.0, f"{fake.__name__}: failed_ratio {detail}")


def check_sweep_certificate():
    header = "msg,frobenius,genus,embedding_dimension,multiplicity,condition_holds,"
    header += "multiplicity_bound_ok,obstruction_found,low_e_d,low_e_multiple\n"
    row = '"3,4,5",2,2,3,3,True,True,True,{},"{}"\n'
    expect(checks.sweep_low_e_error(header + row.format("", "")) is None, "empty low_e refused")
    # ⟨3,5⟩ has gaps {1,2,4,7} ⊇ 2·{1,2} and avoids 2·⟨3,4,5⟩: a valid 2-multiple.
    expect(checks.sweep_low_e_error(header + row.format(2, "3,5")) is None, "valid T refused")
    # ⟨3,7⟩ has the gap 8 = 2·4 with 4 ∈ S: not a 2-multiple.
    expect(checks.sweep_low_e_error(header + row.format(2, "3,7")) is not None, "invalid T accepted")
    # ⟨3,4,5⟩ itself does not have fewer generators than S.
    expect(checks.sweep_low_e_error(header + row.format(1, "3,4,5")) is not None, "e(T) = e(S) accepted")


def check_wrappers(cli):
    import numsgps.core
    import numsgps.multiples
    import numsgps.rank

    before = worker.module_attributes()
    original_build = numsgps.core._from_gap_tuple
    original_max = numsgps.multiples.max_multiples
    tr = tracer.Tracer()
    tr.install()
    try:
        for name in ("core", "multiples", "fibers", "oracle"):
            module = sys.modules[f"numsgps.{name}"]
            expect(module._from_gap_tuple is not original_build, f"{name} bypasses the trace")
        expect(numsgps.rank.max_multiples is not original_max, "rank.max_multiples bypasses the trace")
        worker.run_query(cli.main, ["max-multiples", "--sgp", "3,4,5", "--d", "2"], worker.QUERY_LIMIT_S)
    finally:
        tr.restore()
    expect(worker.module_attributes() == before, "module attributes changed by the tracer")
    summary = tr.summary()
    expect(not summary["errors"], f"span errors {summary['errors']}")
    expect(summary["per_name"]["cli.main"]["calls"] == 1, "cli.main span missing")
    expect(summary["per_name"]["core.build"]["calls"] > 0, "core builds missing")


def main() -> int:
    cli = worker.import_cli()
    signal.signal(signal.SIGALRM, worker._alarm)
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    check_sweep_certificate()
    check_failures_count(cli)
    check_wrappers(cli)
    check_metric_names(cli, bench)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
