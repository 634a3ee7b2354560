"""M_d(S)-sets and monoids ⟨X⟩ + d·S: the membership equivalences, minimal
systems, and decomposition of multiples, against exhaustive subset search."""

import random

import pytest

from numsgps.core import WHOLE_N, from_gaps
from numsgps.errors import InternalInvariantError, InvalidInput, NotAMultiple, NotMdSet
from numsgps.monoids import build_monoid, decompose_multiple, is_md_set
from numsgps.multiples import MultipleContext, is_d_multiple
from numsgps.oracle import (
    EnumerationBudget,
    all_multiples_bounded,
    brute_minimal_md_system,
)

from conftest import sgp


def ctx_of(gens, d):
    return MultipleContext(sgp(*gens), d)


def members_to_bound(ctx, monoid, xs):
    """Members of the monoid up to d·F(S) + d·max(gens) + 1, with gens the
    union of X and d·msg(S)."""
    top = max([*xs, *(ctx.d * a for a in ctx.semigroup.msg)])
    bound = ctx.scaled_frobenius + ctx.d * top + 1
    return [v for v in range(bound + 1) if monoid.contains(v)]


class TestIsMdSet:
    def test_example(self):
        assert is_md_set(ctx_of((5, 7, 9), 2), [9, 10])

    def test_empty(self):
        assert is_md_set(ctx_of((5, 7, 9), 2), [])

    def test_counterexample(self):
        # 2 generates 2 = 2·1 which is a scaled gap.
        assert not is_md_set(ctx_of((5, 7, 9), 2), [2])

    def test_whole_n(self):
        # ℕ has no gaps, so every set of naturals qualifies; d·F(ℕ) = −d
        # must not reach the closure as a bound.
        ctx = MultipleContext(WHOLE_N, 2)
        assert is_md_set(ctx, [3])
        assert is_md_set(ctx, [])
        with pytest.raises(InvalidInput):
            is_md_set(ctx, [-1])

    def test_equivalence_battery(self, small_semigroups):
        """Three characterizations agree on 300 random (S, d, X):
        extendability to a bounded multiple, ⟨X⟩ avoiding d·gaps(S), and
        ⟨X⟩ + d·S avoiding d·gaps(S).

        Any extendable X sits in a multiple with F ≤ d·F(S), so the bounded
        pool decides condition (1) exactly; contexts whose complete pool
        does not fit the node cap are skipped rather than judged from a
        truncated pool.
        """
        from numsgps.errors import CeilingExceeded

        rng = random.Random(41)
        cases = 0
        while cases < 300:
            S = rng.choice(small_semigroups)
            d = rng.randint(1, 4)
            ctx = MultipleContext(S, d)
            members = [
                x for x in S.members_up_to(3 * S.frobenius) if x > 0
            ]
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
                monoid.contains(p) for p in ctx.scaled_gaps
            )

            cond1 = any(all(T.contains(x) for x in xs) for T in pool)

            assert cond1 == cond2 == cond3


class TestBuildMonoid:
    def test_example_91014(self):
        monoid = build_monoid(ctx_of((5, 7, 9), 2), [9])
        assert monoid.is_semigroup
        assert monoid.to_semigroup() == sgp(9, 10, 14)

    def test_empty_gives_scaled_copy(self):
        ctx = ctx_of((5, 7, 9), 2)
        monoid = build_monoid(ctx, [])
        assert not monoid.is_semigroup
        assert monoid.scale == 2
        assert monoid.reduced == ctx.semigroup
        assert monoid.md_embedding_dimension == 0
        assert monoid.contains(10) and not monoid.contains(9)

    def test_derived_example_38(self):
        monoid = build_monoid(ctx_of((3, 4), 2), [3])
        assert monoid.to_semigroup() == sgp(3, 8)
        assert monoid.minimal_system == (3,)

    def test_rejects_non_md_set(self):
        with pytest.raises(NotMdSet):
            build_monoid(ctx_of((5, 7, 9), 2), [2])

    def test_semigroup_iff_gcd_one(self, small_semigroups):
        rng = random.Random(43)
        from math import gcd
        from functools import reduce
        for _ in range(150):
            S = rng.choice(small_semigroups)
            d = rng.randint(1, 4)
            ctx = MultipleContext(S, d)
            members = [x for x in S.members_up_to(2 * S.frobenius + 3) if x > 0]
            xs = rng.sample(members, min(len(members), rng.randint(0, 3)))
            if not is_md_set(ctx, xs):
                continue
            monoid = build_monoid(ctx, xs)
            assert monoid.is_semigroup == (reduce(gcd, list(xs) + [d]) == 1)


class TestMinimalSystem:
    def test_example(self):
        monoid = build_monoid(ctx_of((5, 7, 9), 2), [9, 10])
        assert monoid.minimal_system == (9,)
        assert monoid.md_embedding_dimension == 1

    def test_removing_any_element_changes_monoid(self, small_semigroups):
        rng = random.Random(47)
        checked = 0
        while checked < 80:
            S = rng.choice(small_semigroups)
            d = rng.randint(2, 4)
            ctx = MultipleContext(S, d)
            members = [x for x in S.members_up_to(2 * S.frobenius + 3) if x > 0]
            xs = rng.sample(members, min(len(members), rng.randint(1, 3)))
            if not is_md_set(ctx, xs):
                continue
            monoid = build_monoid(ctx, xs)
            system = monoid.minimal_system
            if not system:
                continue
            checked += 1
            for drop in system:
                smaller = build_monoid(ctx, [v for v in system if v != drop])
                assert (smaller.scale, smaller.reduced) != (monoid.scale, monoid.reduced)

    def test_smallest_monoid_property(self, small_semigroups):
        """⟨X⟩ + d·S sits inside every bounded multiple containing X."""
        rng = random.Random(53)
        for _ in range(60):
            S = rng.choice([s for s in small_semigroups if s.frobenius <= 8])
            d = rng.randint(1, 3)
            ctx = MultipleContext(S, d)
            budget = EnumerationBudget(max(d * S.frobenius, 1), 50, 4000)
            pool = all_multiples_bounded(ctx, budget)
            if not pool:
                continue
            T = rng.choice(pool)
            members = [x for x in T.members_up_to(2 * T.frobenius + 2) if x > 0]
            xs = rng.sample(members, min(len(members), 3))
            monoid = build_monoid(ctx, xs)
            for v in members_to_bound(ctx, monoid, xs):
                assert T.contains(v)

    def test_agrees_with_bruteforce(self, small_semigroups):
        rng = random.Random(59)
        checked = 0
        while checked < 40:
            S = rng.choice([s for s in small_semigroups if s.frobenius <= 8])
            d = rng.randint(2, 3)
            ctx = MultipleContext(S, d)
            members = [x for x in S.members_up_to(2 * S.frobenius) if x > 0]
            xs = rng.sample(members, min(len(members), rng.randint(0, 2)))
            if not is_md_set(ctx, xs):
                continue
            checked += 1
            monoid = build_monoid(ctx, xs)
            elements = members_to_bound(ctx, monoid, xs)
            assert brute_minimal_md_system(ctx, elements) == monoid.minimal_system


class TestDecomposeMultiple:
    def test_example(self):
        assert decompose_multiple(ctx_of((5, 7, 9), 2), sgp(9, 10, 14)) == (9,)

    def test_d_one_gives_empty(self):
        S = sgp(3, 5, 7)
        assert decompose_multiple(MultipleContext(S, 1), S) == ()

    def test_paper_fiber_example(self):
        got = decompose_multiple(ctx_of((2, 3), 11), sgp(5, 7, 8, 9))
        assert got == (5, 7, 8, 9)

    def test_requires_multiple(self):
        with pytest.raises(NotAMultiple):
            decompose_multiple(ctx_of((5, 7, 9), 2), sgp(2, 3))

    def test_regeneration_mismatch_raises(self, monkeypatch):
        import numsgps.monoids as monoids

        real = monoids.build_monoid
        # Regenerate without the first generator, as a decomposition that
        # lost one would.
        monkeypatch.setattr(monoids, "build_monoid", lambda ctx, xs: real(ctx, xs[1:]))
        with pytest.raises(InternalInvariantError) as err:
            decompose_multiple(ctx_of((5, 7, 9), 2), sgp(9, 10, 14))
        assert err.value.exit_code == 4

    def test_regenerates_on_pool(self, small_semigroups):
        for S in small_semigroups[::6]:
            if S.frobenius > 6:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                budget = EnumerationBudget(d * S.frobenius + 3, 40, 2000)
                for T in all_multiples_bounded(ctx, budget):
                    xs = decompose_multiple(ctx, T)
                    rebuilt = build_monoid(ctx, xs)
                    assert rebuilt.is_semigroup and rebuilt.to_semigroup() == T


class TestInfiniteIntersectionCaveat:
    def test_tail_family_intersects_to_scaled_copy(self):
        """The T(n) = d·S ∪ {m ≥ n} family intersects down to d·S, which is
        not a d-multiple for d > 1 (it is not even a numerical semigroup)."""
        S = sgp(3, 4, 5)
        d = 3
        ctx = MultipleContext(S, d)
        bound = d * S.frobenius + 10
        family = []
        for n in range(d * S.frobenius + 1, bound + 2):
            gaps = [h for h in range(1, n) if not ctx.in_scaled_semigroup(h)]
            family.append(from_gaps(gaps))
        for T in family:
            assert is_d_multiple(ctx, T)
        # Probe strictly below the last tail start, where the finite
        # intersection already agrees with the full one.
        probe = range(0, bound + 1)
        common = [
            v for v in probe if all(T.contains(v) for T in family)
        ]
        scaled = [v for v in probe if ctx.in_scaled_semigroup(v)]
        assert common == scaled
