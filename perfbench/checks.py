"""Output checks and the small amount of semigroup arithmetic they need.

Everything here is written for the benchmark alone and imports nothing from
``numsgps``: an answer is judged by a digest recorded at a reference commit
or by a certificate this module verifies itself, never by the code under
test.
"""

from __future__ import annotations

import csv
import hashlib
import io
from functools import reduce
from math import gcd

# rank-sweep prints these columns; the first eight depend on S alone, the
# last two report the bounded low-embedding-dimension search.
SWEEP_S_COLUMNS = 8
SWEEP_DMAX = 3


def digest(exit_code, stdout: str) -> str:
    """Short digest of one query's exit code and standard output."""
    return hashlib.sha256(f"{exit_code}\n{stdout}".encode()).hexdigest()[:20]


def fingerprint(keys) -> str:
    """Digest of a pool's canonical query keys, to detect a stale record."""
    h = hashlib.sha256()
    for key in keys:
        h.update(key.encode())
        h.update(b"\n")
    return h.hexdigest()[:20]


def gaps_from_generators(gens) -> tuple[int, ...]:
    """Gaps of the numerical semigroup generated by ``gens`` (gcd must be 1)."""
    g = sorted(set(gens))
    if not g or g[0] < 1 or reduce(gcd, g) != 1:
        raise ValueError(f"{g} does not generate a numerical semigroup")
    m = g[0]
    member = bytearray([1])
    gaps = []
    run = n = 0
    while run < m:
        n += 1
        if any(a <= n and member[n - a] for a in g):
            member.append(1)
            run += 1
        else:
            member.append(0)
            gaps.append(n)
            run = 0
    return tuple(gaps)


def minimal_generators(gaps) -> tuple[int, ...]:
    """Minimal generators of the semigroup whose gap set is ``gaps``."""
    gap_set = set(gaps)
    frob = max(gap_set, default=-1)
    member = lambda x: x > frob or x not in gap_set  # noqa: E731
    m = 1
    while m in gap_set:
        m += 1
    msg = []
    for x in range(1, max(frob, 0) + m + 1):
        if member(x) and not any(member(x - a) for a in msg if a < x):
            msg.append(x)
    return tuple(msg)


def semigroups_by_genus(max_genus: int) -> list[tuple[int, ...]]:
    """Gap tuples of every semigroup with 1 ≤ genus ≤ max_genus, sorted by
    (genus, gaps), grown by removing minimal generators above the
    Frobenius number."""
    out = []
    frontier = [()]
    for _ in range(max_genus):
        nxt = []
        for gaps in frontier:
            frob = gaps[-1] if gaps else -1
            nxt.extend(gaps + (x,) for x in minimal_generators(gaps) if x > frob)
        out.extend(nxt)
        frontier = nxt
    return sorted(out, key=lambda g: (len(g), g))


def parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def split_sweep(stdout: str):
    """(header, row) of a one-row rank-sweep CSV, or None if malformed."""
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != 2 or len(rows[1]) != SWEEP_S_COLUMNS + 2:
        return None
    return rows[0], rows[1]


def sweep_digest(exit_code, stdout: str) -> str:
    """Digest of a rank-sweep result restricted to the columns fixed by S."""
    parts = split_sweep(stdout) if exit_code == 0 else None
    if parts is None:
        return digest(exit_code, stdout)
    header, row = parts
    return digest(exit_code, ",".join(header) + "\n" + "|".join(row[:SWEEP_S_COLUMNS]))


def sweep_low_e_error(stdout: str) -> str | None:
    """Why the low_e columns of a rank-sweep row are not acceptable, or None.

    Empty columns are always acceptable (the search is bounded and proves
    nothing).  A reported (d, T) must be certified: d·gaps(S) ⊆ gaps(T),
    gaps(T) avoids d·S, and T has fewer generators than e(S).
    """
    parts = split_sweep(stdout)
    if parts is None:
        return "malformed rank-sweep output"
    row = parts[1]
    low_d, low_t = row[SWEEP_S_COLUMNS], row[SWEEP_S_COLUMNS + 1]
    if low_d == "" and low_t == "":
        return None
    try:
        d = int(low_d)
        s_gens = parse_ints(row[0])
        t_gens = parse_ints(low_t)
        s_gaps = set(gaps_from_generators(s_gens))
        t_gaps = set(gaps_from_generators(t_gens))
    except ValueError as err:
        return f"low_e columns do not parse: {err}"
    if not 1 <= d <= SWEEP_DMAX:
        return f"low_e_d={d} is outside 1..{SWEEP_DMAX}"
    if not {d * h for h in s_gaps} <= t_gaps:
        return f"T={low_t} does not contain {d}·gaps(S) among its gaps"
    if any(h % d == 0 and h // d not in s_gaps for h in t_gaps):
        return f"T={low_t} misses a member of {d}·S"
    if len(set(t_gens)) >= len(s_gens):
        return f"T={low_t} does not have fewer generators than S={row[0]}"
    return None
