"""Record the expected outcome of every pool query from the current sources.

    python3 perfbench/record.py [workload ...]

Writes ``perfbench/expected/<workload>.json``: the pool's fingerprint and,
per pool query in pool order, its exit code and its output digest (for
``sweep``, the digest of the columns fixed by S, plus the low_e columns as
recorded).  Run it only on a commit whose outputs are trusted; the record
checked in was made at the commit that introduced the benchmark.  For
``maxmult`` it first checks every recorded answer whose enumeration fits
against ``numsgps.oracle.all_multiples_bounded``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import checks
import workloads
from worker import EXPECTED_DIR, QUERY_LIMIT_S, _alarm, import_cli, run_query

ORACLE_NODE_LIMIT = 50_000


def oracle_maximals(numsgps, msg, d: int):
    """Generator tuples of the inclusion-maximal d-multiples of ⟨msg⟩ among
    all d-multiples with F ≤ d·F(S), or None when there are too many."""
    S = numsgps.core.from_generators(msg)
    ctx = numsgps.multiples.MultipleContext(S, d)
    fmax = d * S.frobenius
    budget = numsgps.oracle.EnumerationBudget(fmax, fmax, ORACLE_NODE_LIMIT)
    try:
        found = numsgps.oracle.all_multiples_bounded(ctx, budget)
    except numsgps.errors.CeilingExceeded:
        return None
    gap_sets = {frozenset(t.gaps) for t in found}
    # T ⊊ T' among d-multiples implies T ∪ {max(T' ∖ T)} is one too, so T is
    # maximal iff adjoining no single gap stays in the set.
    return sorted(
        t.msg for t in found if all(frozenset(t.gaps) - {z} not in gap_sets for z in t.gaps)
    )


def check_maxmult_against_oracle(numsgps, pool, outcomes) -> dict:
    checked, too_large, wrong = 0, [], []
    for entry, (code, stdout) in zip(pool, outcomes):
        msg, d, _ = entry.data
        want = oracle_maximals(numsgps, msg, d)
        if want is None:
            too_large.append(entry.key)
            continue
        if entry.key.endswith("json"):
            got = sorted(tuple(t["msg"]) for t in json.loads(stdout)["maximals"])
        else:
            got = sorted(tuple(checks.parse_ints(line.strip("⟨⟩"))) for line in stdout.splitlines())
        checked += 1
        if code != 0 or got != want:
            wrong.append(entry.key)
    if wrong:
        raise SystemExit(f"record: max-multiples disagrees with the oracle on {wrong}")
    return {"checked": checked, "too_large": too_large, "node_limit": ORACLE_NODE_LIMIT}


def record(workload: str, cli) -> None:
    pool = workloads.pool(workload)
    outcomes, entries = [], []
    for entry in pool:
        _, code, stdout = run_query(cli.main, entry.key.split(), QUERY_LIMIT_S)
        if code not in (0, 2, 3):
            raise SystemExit(f"record: {entry.key} ended with {code}")
        outcomes.append((code, stdout))
        if workload == "sweep":
            row = checks.split_sweep(stdout)[1]
            entries.append({
                "exit": code,
                "digest": checks.sweep_digest(code, stdout),
                "low_e": row[checks.SWEEP_S_COLUMNS:],
            })  # fmt: skip
        else:
            entries.append({"exit": code, "digest": checks.digest(code, stdout)})
    doc = {"workload": workload, "fingerprint": checks.fingerprint(e.key for e in pool)}
    if workload == "maxmult":
        import numsgps.oracle

        doc["oracle_check"] = check_maxmult_against_oracle(numsgps, pool, outcomes)
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        head = json.dumps(doc)[:-1]
        body = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
        handle.write(f'{head}, "entries": [\n{body}\n]}}\n')
    print(f"{workload}: {len(entries)} outcomes -> {path}", file=sys.stderr)


def main(argv) -> int:
    cli = import_cli()
    signal.signal(signal.SIGALRM, _alarm)
    for workload in argv or workloads.WORKLOADS:
        t0 = time.perf_counter()
        record(workload, cli)
        print(f"{workload}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
