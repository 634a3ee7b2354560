"""Quotients, the d-multiple sandwich test, and maximal d-multiples, all
cross-checked against exhaustive oracle enumeration."""

import random

import pytest

from numsgps.core import WHOLE_N, from_gaps, from_generators, intersect, is_irreducible
from numsgps.errors import CeilingExceeded, NotNumerical, WholeN
from numsgps.multiples import (
    MultipleContext,
    irreducibility_transfer,
    is_d_multiple,
    max_multiples,
    quotient,
)
from numsgps.oracle import EnumerationBudget, all_multiples_bounded

from conftest import reference_max_multiples, sgp
from sweeps import multiples_pool


class TestQuotient:
    def test_example_both_routes(self):
        assert quotient(sgp(4, 7, 9, 10), 3) == sgp(3, 4, 5)
        assert quotient(sgp(4, 5, 7), 3) == sgp(3, 4, 5)

    def test_by_one(self, small_semigroups):
        for T in small_semigroups[::9]:
            assert quotient(T, 1) == T

    def test_6911_by_5(self):
        assert quotient(sgp(6, 9, 11), 5) == sgp(3, 4)

    def test_whole_n(self):
        assert quotient(WHOLE_N, 7) == WHOLE_N

    def test_composition(self, small_semigroups):
        rng = random.Random(23)
        for _ in range(200):
            T = rng.choice(small_semigroups)
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            assert quotient(quotient(T, a), b) == quotient(T, a * b)


class TestIsMultiple:
    def test_example(self):
        ctx = MultipleContext(sgp(3, 4, 5), 3)
        assert is_d_multiple(ctx, sgp(4, 5, 7))

    def test_scaled_copy_is_not_constructible(self):
        # d·S itself has gcd d > 1, so it never even builds for d > 1.
        with pytest.raises(NotNumerical):
            sgp(*(3 * a for a in sgp(3, 4, 5).msg))

    def test_paper_fiber_example(self):
        ctx = MultipleContext(sgp(2, 3), 11)
        assert is_d_multiple(ctx, sgp(5, 7, 8, 9))

    def test_agrees_with_quotient_everywhere(self, small_semigroups, census_by_frobenius):
        """Sandwich test ⇔ quotient equality, positives and negatives.

        For every S with F(S) ≤ 10 and d ≤ 4 the pool holds the bounded
        multiple enumeration below d·F(S)+6 (complete up to a node cap,
        tail-completion witnesses beyond it) plus the census below F = 12
        as negatives.
        """
        census = [T for f in range(1, 13) for T in census_by_frobenius(f)]
        for S in small_semigroups:
            if S.frobenius > 10:
                continue
            for d in range(1, 5):
                ctx = MultipleContext(S, d)
                fmax = d * S.frobenius + 6
                positives = multiples_pool(ctx, fmax)
                pool = set(positives) | {T for T in census if T.frobenius <= fmax}
                for T in pool:
                    assert is_d_multiple(ctx, T) == (quotient(T, d) == S)
                assert all(is_d_multiple(ctx, T) for T in positives)


class TestMaxMultiples:
    def test_example_345(self):
        ctx = MultipleContext(sgp(3, 4, 5), 3)
        assert max_multiples(ctx).maximals == (sgp(4, 5, 7),)

    def test_d_one(self):
        S = sgp(3, 5, 7)
        assert max_multiples(MultipleContext(S, 1)).maximals == (S,)

    def test_d_one_of_a_large_genus(self):
        # d = 1 runs the general search, which reads all 499,500 gaps of S
        # and its scaled gap mask.  CI bounds the time of the same case.
        S = from_generators([1000, 1001])
        (T,) = max_multiples(MultipleContext(S, 1)).maximals
        assert T == S
        assert len(T.gaps) == T.genus == 499_500

    def test_357_d3(self):
        got = set(max_multiples(MultipleContext(sgp(3, 5, 7), 3)).maximals)
        assert got == {sgp(5, 8, 9, 11), sgp(7, 8, 9, 10, 11, 13)}

    def test_whole_n_rejected(self):
        with pytest.raises(WholeN):
            max_multiples(MultipleContext(WHOLE_N, 3))

    def test_frobenius_and_incomparability(self, small_semigroups):
        for S in small_semigroups:
            if S.frobenius > 6:
                continue
            for d in range(1, 4):
                result = max_multiples(MultipleContext(S, d)).maximals
                assert result
                assert all(T.frobenius == d * S.frobenius for T in result)
                for a in result:
                    for b in result:
                        assert a == b or not a <= b

    def test_completeness_against_census(self, small_semigroups, census_by_frobenius):
        """Production search equals the maximal elements of the census filter."""
        for S in small_semigroups:
            if S.frobenius > 8:
                continue
            for d in range(1, 4):
                ctx = MultipleContext(S, d)
                candidates = [
                    T
                    for T in census_by_frobenius(d * S.frobenius)
                    if quotient(T, d) == S
                ]
                expected = {
                    T
                    for T in candidates
                    if not any(T < U for U in candidates)
                }
                assert set(max_multiples(ctx).maximals) == expected

    def test_node_cap_counts_search_paths(self, small_semigroups):
        """The least node_cap k that passes, the search's path count, lies
        between the number of maximals and the number N of d-multiples with
        Frobenius d·F(S) that the oracle enumerates, since each path ends in
        its own multiple.  Cap k gives the uncapped result, k − 1 raises,
        and 0 always raises, as every search takes a path."""
        for S in small_semigroups:
            if S.frobenius > 7:
                continue
            for d in range(1, 5):
                ctx = MultipleContext(S, d)
                f = d * S.frobenius
                budget = EnumerationBudget(f, f, 100_000)
                n = sum(T.frobenius == f for T in all_multiples_bounded(ctx, budget))
                uncapped = max_multiples(ctx)
                lo, hi = 0, n  # bisect for k, checked below
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    try:
                        max_multiples(ctx, node_cap=mid)
                        hi = mid
                    except CeilingExceeded:
                        lo = mid
                k = hi
                assert len(uncapped.maximals) <= k <= n
                assert max_multiples(ctx, node_cap=k) == uncapped
                with pytest.raises(
                    CeilingExceeded,
                    match=f"^more than {k - 1} search paths for the maximal {d}-multiples of {S}$",
                ):
                    max_multiples(ctx, node_cap=k - 1)
                with pytest.raises(CeilingExceeded, match="^more than 0 search paths"):
                    max_multiples(ctx, node_cap=0)

    def test_one_path_per_maximal(self, genus_tree_12):
        """On every S with genus ≤ 6 and d ∈ {2, 3}, the 98 contexts of the
        ``maxmult`` benchmark workload, the search takes one path per
        maximal: a cap of their number passes and one less raises."""
        cases = 0
        for S in genus_tree_12:
            if not 1 <= S.genus <= 6:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                uncapped = max_multiples(ctx)
                k = len(uncapped.maximals)
                assert max_multiples(ctx, node_cap=k) == uncapped
                with pytest.raises(CeilingExceeded, match=f"^more than {k - 1} search paths"):
                    max_multiples(ctx, node_cap=k - 1)
                cases += 1
        assert cases == 98

    # msg(S) of the 29 S with genus ≤ 7 whose reference search at d = 4
    # passes 30,000 visits, each of genus 6 or 7; none does at d = 2 or 3.
    # Found once by running the reference to that limit on every pair.
    OVER_VISIT_LIMIT_AT_D4 = frozenset({
        (3, 8), (4, 5), (4, 6, 9), (4, 6, 11), (4, 7, 9), (4, 7, 10), (5, 6, 9), (5, 7, 8),
        (4, 6, 13, 15), (4, 9, 10, 15), (5, 7, 8, 9), (5, 7, 9, 11), (5, 7, 9, 13),
        (5, 8, 9, 11), (5, 8, 9, 12), (6, 7, 8, 9), (6, 7, 8, 10), (6, 7, 8, 11),
        (6, 7, 9, 10), (6, 7, 9, 11), (6, 7, 8, 9, 10), (6, 7, 8, 9, 11), (6, 8, 9, 10, 11),
        (6, 8, 9, 10, 13), (6, 8, 9, 11, 13), (7, 8, 9, 10, 11, 12), (7, 8, 9, 10, 11, 13),
        (7, 8, 9, 10, 12, 13), (7, 8, 9, 11, 12, 13),
    })

    def test_matches_reference_search(self, genus_tree_12):
        """Gap masks and msg equal the reference search's, which visits every
        d-multiple with Frobenius d·F(S), on every S with genus ≤ 7 and
        d ∈ {2, 3, 4} that has at most 30,000 of them: every pair but the
        pinned ones, on which the reference would give up after 30,001."""
        cases = 0
        for S in genus_tree_12:
            if not 1 <= S.genus <= 7:
                continue
            for d in range(2, 5):
                if d == 4 and S.msg in self.OVER_VISIT_LIMIT_AT_D4:
                    continue
                ctx = MultipleContext(S, d)
                expected = reference_max_multiples(ctx, max_visits=30_000)
                assert expected is not None, ctx
                got = max_multiples(ctx).maximals
                assert [(T.gap_mask, T.msg) for T in got] == [
                    (T.gap_mask, T.msg) for T in expected
                ], ctx
                cases += 1
        assert cases == 235


class TestMultipleFamilies:
    def test_tail_completion_stays_multiple(self, small_semigroups):
        """Adding the whole tail above any n > d·F(S) preserves membership."""
        rng = random.Random(31)
        for _ in range(60):
            S = rng.choice([s for s in small_semigroups if s.frobenius <= 8])
            d = rng.randint(1, 3)
            ctx = MultipleContext(S, d)
            pool = multiples_pool(ctx, d * S.frobenius + 4)
            T = rng.choice(pool)
            n = rng.randint(d * S.frobenius + 1, d * S.frobenius + 5)
            completed = from_gaps([h for h in T.gaps if h < n])
            assert is_d_multiple(ctx, completed)

    def test_intersection_closure(self, small_semigroups):
        rng = random.Random(37)
        for _ in range(60):
            S = rng.choice([s for s in small_semigroups if s.frobenius <= 8])
            d = rng.randint(1, 3)
            ctx = MultipleContext(S, d)
            pool = multiples_pool(ctx, d * S.frobenius + 5)
            t1, t2 = rng.choice(pool), rng.choice(pool)
            assert is_d_multiple(ctx, intersect(t1, t2))


class TestIrreducibilityTransfer:
    def test_examples(self):
        assert irreducibility_transfer(MultipleContext(sgp(3, 5, 7), 3)) == (True, True)
        # ⟨3,4,5⟩ is pseudo-symmetric (gaps {1,2}), hence irreducible.
        assert irreducibility_transfer(MultipleContext(sgp(3, 4, 5), 3)) == (True, True)
        assert irreducibility_transfer(MultipleContext(sgp(5, 6, 8, 9), 2)) == (False, False)
        for d in range(1, 8):
            assert irreducibility_transfer(MultipleContext(sgp(2, 3), d)) == (True, True)

    def test_whole_n_refused(self):
        with pytest.raises(WholeN, match="^irreducibility is undefined for the whole of ℕ$"):
            irreducibility_transfer(MultipleContext(WHOLE_N, 2))

    def test_sweep(self, small_semigroups):
        for S in small_semigroups:
            if S.frobenius > 6:
                continue
            for d in range(1, 4):
                s_irr, all_irr = irreducibility_transfer(MultipleContext(S, d))
                assert s_irr == all_irr == is_irreducible(S)
