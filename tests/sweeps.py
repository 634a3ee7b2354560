"""Property sweeps shared by the unit suites and the acceptance battery.

Each function raises AssertionError on the first violation and returns the
number of cases it checked, so callers can both gate on and report volume.
"""

import random

from numsgps.core import from_gaps, intersect
from numsgps.errors import CeilingExceeded, NotMdSet
from numsgps.fibers import divisibility_check
from numsgps.monoids import build_monoid, is_md_set
from numsgps.multiples import MultipleContext, is_d_multiple, max_multiples, quotient
from numsgps.oracle import EnumerationBudget, all_multiples_bounded, semigroups_by_genus
from numsgps.rank import bounded_low_e_multiple_search, full_rank_condition

from conftest import modular_order


def tail_family(ctx, extra=6):
    """Multiples d·S ∪ {m ≥ n} for n near d·F(S), built from the definition.

    Cheap positive witnesses for contexts whose full enumeration is too
    large to afford.
    """
    out = []
    for n in range(ctx.scaled_frobenius + 1, ctx.scaled_frobenius + extra + 2):
        gaps = [h for h in range(1, n) if not ctx.in_scaled_semigroup(h)]
        out.append(from_gaps(gaps))
    return out


def multiples_pool(ctx, fmax, cap=4000):
    """Complete bounded enumeration when it fits, else a constructed family."""
    try:
        return list(all_multiples_bounded(ctx, EnumerationBudget(fmax, fmax, cap)))
    except CeilingExceeded:
        return [T for T in tail_family(ctx) if T.frobenius <= fmax]


def sandwich_equivalence_sweep(census_getter) -> int:
    """quotient(T, d) = S ⇔ the gap sandwich, for all S with F(S) ≤ 10 and
    d ≤ 4, over bounded multiple pools plus the census below F = 12."""
    census = [T for f in range(1, 13) for T in census_getter(f)]
    cases = 0
    for f in range(1, 11):
        for S in census_getter(f):
            for d in range(1, 5):
                ctx = MultipleContext(S, d)
                fmax = d * S.frobenius + 6
                positives = multiples_pool(ctx, fmax)
                pool = set(positives) | {T for T in census if T.frobenius <= fmax}
                for T in pool:
                    assert is_d_multiple(ctx, T) == (quotient(T, d) == S)
                    cases += 1
                assert all(is_d_multiple(ctx, T) for T in positives)
    return cases


def maximal_frobenius_sweep(census_getter) -> int:
    """Maximal multiples: nonempty, Frobenius exactly d·F(S), pairwise
    incomparable, for all S with F(S) ≤ 6 and d ≤ 3."""
    cases = 0
    for f in range(1, 7):
        for S in census_getter(f):
            for d in range(1, 4):
                maximals = max_multiples(MultipleContext(S, d)).maximals
                assert maximals
                for T in maximals:
                    assert T.frobenius == d * S.frobenius
                for a in maximals:
                    for b in maximals:
                        assert a == b or not a <= b
                cases += len(maximals)
    return cases


def divisibility_sweep(census_getter) -> int:
    """d | F(T) ⇔ F(T) = d·F(S) on every bounded multiple, F(S) ≤ 6, d ≤ 3."""
    cases = 0
    for f in range(1, 7):
        for S in census_getter(f):
            for d in range(1, 4):
                ctx = MultipleContext(S, d)
                for T in multiples_pool(ctx, d * S.frobenius + 6):
                    assert divisibility_check(ctx, T) == (
                        T.frobenius == d * S.frobenius
                    )
                    cases += 1
    return cases


def intersection_closure_sweep(census_getter, samples=200) -> int:
    """Intersections of d-multiples stay d-multiples."""
    rng = random.Random(61)
    pools = []
    for f in range(1, 7):
        for S in census_getter(f):
            for d in range(1, 4):
                ctx = MultipleContext(S, d)
                pools.append((ctx, multiples_pool(ctx, d * S.frobenius + 5)))
    cases = 0
    for _ in range(samples):
        ctx, pool = rng.choice(pools)
        t1, t2 = rng.choice(pool), rng.choice(pool)
        assert is_d_multiple(ctx, intersect(t1, t2))
        cases += 1
    return cases


def monoid_equivalence_battery(small_semigroups, samples=300) -> int:
    """Extendability of X, ⟨X⟩ avoiding d·gaps(S), and ⟨X⟩ + d·S avoiding
    d·gaps(S) agree pairwise on random (S, d, X)."""
    rng = random.Random(41)
    cases = 0
    while cases < samples:
        S = rng.choice(small_semigroups)
        d = rng.randint(1, 4)
        ctx = MultipleContext(S, d)
        members = [x for x in S.members_up_to(3 * S.frobenius) if x > 0]
        xs = rng.sample(members, min(len(members), rng.randint(0, 4)))
        if d * S.frobenius > 30:
            continue
        budget = EnumerationBudget(max(d * S.frobenius, 1), 60, 20000)
        try:
            pool = all_multiples_bounded(ctx, budget)
        except CeilingExceeded:
            continue
        cases += 1
        cond2 = is_md_set(ctx, xs)
        monoid = None
        try:
            monoid = build_monoid(ctx, xs)
        except NotMdSet:
            pass
        cond3 = monoid is not None and not any(
            monoid.contains(ctx.d * h) for h in ctx.semigroup.gaps
        )
        cond1 = any(all(T.contains(x) for x in xs) for T in pool)
        assert cond1 == cond2 == cond3
    return cases


def apery_shape_sweep(census_getter, random_samples=150) -> int:
    """|Ap(S,x)| = x, one member per residue class, max = F + x; complete
    below F = 10 plus seeded random semigroups up to F = 40."""
    from functools import reduce
    from math import gcd

    from numsgps.core import apery, from_generators

    def check(S):
        for x in S.msg:
            ap = apery(S, x)
            assert len(ap) == x
            assert sorted(a % x for a in ap) == list(range(x))
            assert max(ap) == S.frobenius + x

    cases = 0
    for f in range(1, 11):
        for S in census_getter(f):
            check(S)
            cases += 1
    rng = random.Random(11)
    produced = 0
    while produced < random_samples:
        gens = rng.sample(range(2, 30), rng.randint(2, 4))
        if reduce(gcd, gens) != 1:
            continue
        S = from_generators(gens)
        if not 1 <= S.frobenius <= 40:
            continue
        produced += 1
        cases += 1
        check(S)
    return cases


def quotient_rank_case(S, d_max):
    """The converse of the Apéry condition on one S ≠ ℕ: whether the
    condition holds, and for e(S) ≥ 4 where it fails, the hit (d, T) of the
    low-e search, else None.  For e(S) = 2 the condition holds.  For
    e(S) = 3 it holds exactly when msg(S) has no order as in
    conftest.modular_order, that is when no d has a multiple of e = 2
    (proven in rank.bounded_low_e_multiple_search).  For e(S) ≥ 4 a holding
    condition proves full rank, so the search finds nothing and S is never
    a hit (⟨8,12,14,15⟩, at genus 17, is the first); where it fails, the
    search finds a multiple of smaller e at some d ≤ d_max, checked with
    is_d_multiple."""
    e, holds = S.embedding_dimension, full_rank_condition(S).condition_holds
    if e <= 3:
        assert holds == (e == 2 or not modular_order(S.msg)), S
        return holds, None
    hit = bounded_low_e_multiple_search(S, d_max)
    if holds:
        assert hit is None, S
        return True, None
    assert hit is not None, S
    d, T = hit
    assert is_d_multiple(MultipleContext(S, d), T) and T.embedding_dimension < e, S
    return False, hit


def quotient_rank_census(max_genus, d_max):
    """:func:`quotient_rank_case` on every S ≠ ℕ with genus ≤ max_genus.
    Returns the number of S and the hits (S, d, T) of e(S) ≥ 4."""
    cases, witnesses = 0, []
    for S in semigroups_by_genus(max_genus):
        if S.is_whole_n:
            continue
        cases += 1
        _, hit = quotient_rank_case(S, d_max)
        if hit:
            witnesses.append((S, *hit))
    return cases, witnesses
