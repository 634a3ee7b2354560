"""The four workloads: their query pools and the seeded query list of a run.

Each workload has a fixed, finite *pool* of queries whose expected outcomes
are recorded in ``expected/<workload>.json`` (see ``record.py``).  A run's
query list is drawn from the pool by ``select(workload, seed, expected)``
with a ``random.Random(seed)``; the program under test only ever sees the
resulting argv lists.  Query costs span milliseconds to seconds, so a plain
sample would make every time a run reports depend on the seed.  The seed
therefore varies the inputs in ways that keep the work fixed (spelling of
S, implied bounds, which sweep seed reaches a given S, order) or,
for the cheap ``queries`` mix, draws many queries in fixed per-kind counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from checks import gaps_from_generators, minimal_generators, semigroups_by_genus

WORKLOADS = ("maxmult", "fiber", "sweep", "queries")

# One cheap query per workload, run once before timing starts so that lazy
# imports and first-call costs land in set-up, not in the first sample.
WARMUP = {
    "maxmult": ["max-multiples", "--sgp", "2,3", "--d", "2"],
    "fiber": ["fiber-tree", "--sgp", "2,3", "--d", "2", "--max-depth", "2"],
    "sweep": ["rank-sweep", "--count", "1", "--max-genus", "2", "--seed", "0"],
    "queries": ["info", "--sgp", "3,5,7"],
}

MAXMULT_MAX_GENUS = 6
MAXMULT_DS = (2, 3)

# (generators of S, d): contexts whose root discovery is cheap.  Every S
# here is irreducible, so all roots share F = f0 = d·F(S) and genus
# g0 = ⌊f0/2⌋ + 1, and a child one level down has genus one more.
FIBER_CONTEXTS = (
    ((2, 3), 5), ((2, 3), 7), ((2, 3), 11), ((2, 3), 13),
    ((2, 5), 2), ((2, 5), 3), ((3, 4), 2), ((3, 4), 3),
    ((3, 5), 2), ((3, 5), 3), ((3, 4, 5), 2), ((3, 4, 5), 3),
)  # fmt: skip
# Each truncation as (flag, its value, a second bound it implies), given f0
# and g0.  The implied bound never prunes a node the first one keeps (F < 2g;
# g ≤ F; depth D means genus g0 + D; depth < node count), so adding it
# leaves the tree, the output and the work unchanged.
FIBER_TRUNCATIONS = (
    ("--max-genus", lambda f0, g0: g0 + 6, lambda v, f0, g0: ("--max-frobenius", 2 * v - 1)),
    ("--max-frobenius", lambda f0, g0: f0 + 8, lambda v, f0, g0: ("--max-genus", v)),
    ("--max-depth", lambda f0, g0: 6, lambda v, f0, g0: ("--max-genus", g0 + v)),
    ("--max-nodes", lambda f0, g0: 90, lambda v, f0, g0: ("--max-depth", v)),
)
FORMATS = ("text", "json")

SWEEP_POOL = 240
SWEEP_ARGS = ["rank-sweep", "--count", "1", "--max-genus", "8"]

QUERIES_POOL_SEED = 24020441
QUERIES_DRAW = 3  # a run takes a third of each kind's pool entries
# Pool size per query kind; a run draws exactly a third of each.
QUERY_KINDS = (
    ("info", 420),
    ("quotient", 300),
    ("is-multiple", 330),
    ("md-monoid", 330),
    ("ed1", 330),
    ("full-rank", 300),
    ("unique-betti", 240),
    ("census", 210),
    ("multiples-bounded", 240),
    ("refuse-gcd", 180),
    ("refuse-ceiling", 120),
)


@dataclass(frozen=True)
class PoolEntry:
    key: str  # canonical argv, one line; also the query's identity
    data: tuple  # what select() needs to spell the argv


@dataclass(frozen=True)
class Query:
    index: int  # into the pool and its expected outcomes
    argv: tuple[str, ...]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _spell(rng: random.Random, msg) -> str:
    """The generators of S in a seeded order, sometimes with a redundant one."""
    gens = list(msg)
    if rng.random() < 0.5:
        gens.append(rng.choice(msg) + rng.choice(msg))
    rng.shuffle(gens)
    return _csv(gens)


# --- maxmult -------------------------------------------------------------


def _maxmult_pool() -> list[PoolEntry]:
    # Text for d = 2, JSON for d = 3, so both renderers run on every S.
    out = []
    for gaps in semigroups_by_genus(MAXMULT_MAX_GENUS):
        msg = minimal_generators(gaps)
        for d, fmt in zip(MAXMULT_DS, FORMATS):
            argv = ["max-multiples", "--sgp", _csv(msg), "--d", str(d), "--format", fmt]
            out.append(PoolEntry(" ".join(argv), (msg, d, fmt)))
    return out


def _maxmult_select(pool, rng, expected) -> list[Query]:
    # The whole grid, each S in a seeded spelling, in a seeded order.
    queries = []
    for index, entry in enumerate(pool):
        msg, d, fmt = entry.data
        argv = ("max-multiples", "--sgp", _spell(rng, msg), "--d", str(d), "--format", fmt)
        queries.append(Query(index, argv))
    rng.shuffle(queries)
    return queries


# --- fiber ---------------------------------------------------------------


def _fiber_pool() -> list[PoolEntry]:
    out = []
    for gens, d in FIBER_CONTEXTS:
        f0 = d * gaps_from_generators(gens)[-1]
        g0 = f0 // 2 + 1
        for flag, value, implied in FIBER_TRUNCATIONS:
            v = value(f0, g0)
            extra = implied(v, f0, g0)
            for fmt in FORMATS:
                argv = [
                    "fiber-tree", "--sgp", _csv(gens), "--d", str(d),
                    "--root", "auto", flag, str(v), "--format", fmt,
                ]  # fmt: skip
                out.append(PoolEntry(" ".join(argv), (gens, d, (flag, v), extra, fmt)))
    return out


def _fiber_select(pool, rng, expected) -> list[Query]:
    # Every pool query in pool order, so the work, and the peak memory that
    # depends on the order, are the same for every seed; the seed spells S
    # and adds the implied second bound or not.
    queries = []
    for index, entry in enumerate(pool):
        gens, d, (flag, v), (extra_flag, extra_v), fmt = entry.data
        bounds = [flag, str(v)]
        if rng.random() < 0.5:
            bounds += [extra_flag, str(extra_v)]
        argv = ["fiber-tree", "--sgp", _spell(rng, gens), "--d", str(d), "--root", "auto"]
        queries.append(Query(index, tuple(argv + bounds + ["--format", fmt])))
    return queries


# --- sweep ---------------------------------------------------------------


def _sweep_pool() -> list[PoolEntry]:
    return [
        PoolEntry(" ".join(SWEEP_ARGS + ["--seed", str(k)]), (k,)) for k in range(SWEEP_POOL)
    ]


def _sweep_select(pool, rng, expected) -> list[Query]:
    # The 240 sweep seeds draw far fewer distinct semigroups S, and a query's
    # work is fixed by its S, which the recorded digest identifies.  One
    # query per distinct S, through a seeded choice among the sweep seeds
    # that draw it, varies the input without varying the work.
    by_s: dict[str, list[int]] = {}
    for i, e in enumerate(expected):
        by_s.setdefault(e["digest"], []).append(i)
    picks = [rng.choice(group) for group in by_s.values()]
    rng.shuffle(picks)
    return [Query(i, tuple(pool[i].key.split())) for i in picks]


# --- queries -------------------------------------------------------------


def _small_generators(rng: random.Random, a_max: int, spread: int) -> list[int]:
    """Two to four generators with gcd 1 by construction (a, b coprime)."""
    a = rng.randint(2, a_max)
    b = rng.choice([v for v in range(a + 1, a + spread + 1) if gcd(v, a) == 1])
    extra = rng.sample(range(a + 1, a + spread + 1), rng.randint(0, 2))
    return sorted({a, b, *extra})


def _member_coprime_to(rng: random.Random, gens, d: int) -> int:
    """A member of ⟨gens⟩ coprime to d, as a seeded sum of one to three
    generators.  For d ≤ 4, d is a prime power and gcd(gens) = 1, so some
    generator is coprime to d; it is the fallback."""
    for _ in range(64):
        x = sum(rng.choice(gens) for _ in range(rng.randint(1, 3)))
        if gcd(x, d) == 1:
            return x
    return next(g for g in gens if gcd(g, d) == 1)


def _pairwise_coprime(rng: random.Random) -> list[int]:
    factors = []
    for _ in range(rng.randint(2, 3)):
        choices = [v for v in (2, 3, 4, 5, 7, 9, 11) if all(gcd(v, c) == 1 for c in factors)]
        factors.append(rng.choice(choices))
    return factors


def _query_argv(kind: str, rng: random.Random) -> list[str]:
    fmt = ["--format", rng.choice(FORMATS)]
    if kind == "info":
        return ["info", "--sgp", _csv(_small_generators(rng, 9, 10))] + fmt
    if kind == "quotient":
        return ["quotient", "--sgp", _csv(_small_generators(rng, 9, 10)),
                "--d", str(rng.randint(2, 4))] + fmt  # fmt: skip
    if kind == "is-multiple":
        gens = _small_generators(rng, 6, 6)
        d = rng.randint(2, 3)
        if rng.random() < 0.5:  # a true d-multiple: ⟨x⟩ + d·S
            cand = [_member_coprime_to(rng, gens, d)] + [d * g for g in gens]
        else:
            cand = _small_generators(rng, 9, 10)
        return ["is-multiple", "--sgp", _csv(gens), "--d", str(d),
                "--candidate", _csv(sorted(set(cand)))] + fmt  # fmt: skip
    if kind == "md-monoid":
        # X inside the d-multiple ⟨x⟩ + d·S, so X is an md-set.
        gens = _small_generators(rng, 6, 6)
        d = rng.randint(2, 3)
        x = _member_coprime_to(rng, gens, d)
        xs = {x} | {
            rng.randint(0, 2) * x + d * rng.choice(gens) for _ in range(rng.randint(0, 2))
        }
        return ["md-monoid", "--sgp", _csv(gens), "--d", str(d), "--x", _csv(sorted(xs))] + fmt
    if kind == "ed1":
        gens = _small_generators(rng, 7, 8)
        d = rng.randint(2, 4)
        x = _member_coprime_to(rng, gens, d)
        return ["ed1", "--sgp", _csv(gens), "--d", str(d), "--x", str(x)] + fmt
    if kind == "full-rank":
        return ["full-rank", "--sgp", _csv(_small_generators(rng, 9, 10))] + fmt
    if kind == "unique-betti":
        return ["unique-betti", "--c", _csv(_pairwise_coprime(rng))] + fmt
    if kind == "census":
        return ["oracle", "frobenius-census", "--f", str(rng.randint(1, 14))] + fmt
    if kind == "multiples-bounded":
        d = rng.randint(2, 3)
        while True:  # keep d·F(S) ≤ 14 so the descent stays small
            gens = _small_generators(rng, 4, 4)
            frob = gaps_from_generators(gens)[-1]  # 1 is always a gap here
            if d * frob <= 14:
                break
        fmax = d * frob + rng.randint(0, 4)
        return ["oracle", "multiples-bounded", "--sgp", _csv(gens), "--d", str(d),
                "--max-frobenius", str(fmax)] + fmt  # fmt: skip
    if kind == "refuse-gcd":  # gcd ≠ 1: exit 2
        g = rng.randint(2, 3)
        gens = [g * v for v in _small_generators(rng, 6, 6)]
        command = rng.choice(["info", "full-rank", "max-multiples"])
        extra = ["--d", "2"] if command == "max-multiples" else []
        return [command, "--sgp", _csv(gens)] + extra + fmt
    if kind == "refuse-ceiling":  # above the census ceiling of 20: exit 3
        return ["oracle", "frobenius-census", "--f", str(rng.randint(21, 60))] + fmt
    raise ValueError(f"unknown query kind {kind}")


def _queries_pool() -> list[PoolEntry]:
    rng = random.Random(QUERIES_POOL_SEED)
    out = []
    for kind, count in QUERY_KINDS:
        for _ in range(count):
            argv = _query_argv(kind, rng)
            out.append(PoolEntry(" ".join(argv), tuple(argv)))
    return out


def _queries_select(pool, rng, expected) -> list[Query]:
    queries = []
    start = 0
    for _, count in QUERY_KINDS:
        for index in rng.sample(range(start, start + count), count // QUERIES_DRAW):
            queries.append(Query(index, pool[index].data))
        start += count
    rng.shuffle(queries)
    return queries


_POOLS = {
    "maxmult": (_maxmult_pool, _maxmult_select),
    "fiber": (_fiber_pool, _fiber_select),
    "sweep": (_sweep_pool, _sweep_select),
    "queries": (_queries_pool, _queries_select),
}


def pool(workload: str) -> list[PoolEntry]:
    return _POOLS[workload][0]()


def select(workload: str, seed: int, pool_entries, expected) -> list[Query]:
    """The run's query list: a seeded, cost-balanced draw from the pool."""
    return _POOLS[workload][1](pool_entries, random.Random(seed), expected)
