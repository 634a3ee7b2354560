"""Full quotient rank: the Apéry condition, unique-Betti families, the
subset-sum obstruction, the exact low-e search, and the seeded sweep."""

import random
import time
from functools import reduce
from itertools import combinations
from math import gcd, prod

import pytest

from numsgps import rank
from numsgps.core import apery, from_generators
from numsgps.errors import NotPairwiseCoprime, TooSmall, WholeN
from numsgps.fibers import TruncationBounds
from numsgps.multiples import MultipleContext, max_multiples, quotient
from numsgps.oracle import (
    EnumerationBudget,
    all_multiples_bounded,
    all_with_frobenius,
    semigroups_by_genus,
)
from numsgps.rank import (
    UniqueBettiSpec,
    _coin_decomposition,
    _generator_tuples,
    _low_e_multiples,
    bounded_low_e_multiple_search,
    full_rank_condition,
    j_subset_obstruction,
    rank_sweep,
    random_semigroup,
    unique_betti,
    unique_betti_apery,
)

from conftest import (
    coin_dp,
    modular_order,
    reference_low_e_search,
    reference_random_semigroup,
    reference_root_walk,
    sgp,
)
from sweeps import quotient_rank_case, quotient_rank_census


def assert_no_earlier(got, walk, S):
    """The exact search's answer got is no later than a bounded walk's:
    a hit at an earlier d, or at the same d with no greater (genus, gaps)."""
    if walk is not None:
        assert got is not None, S
        (d, T), (d_walk, T_walk) = got, walk
        assert d < d_walk or (d == d_walk and (T.genus, T.gaps) <= (T_walk.genus, T_walk.gaps)), S


def coprime_specs(product_cap: int):
    """Every pairwise-coprime tuple (c_1 < ... < c_e), e ≥ 2, c_i ≥ 2, with
    prod(c) ≤ product_cap."""
    from math import gcd

    specs = []

    def extend(prefix, start, left):
        for c in range(start, left + 1):
            if any(gcd(c, p) != 1 for p in prefix):
                continue
            cand = prefix + [c]
            if len(cand) >= 2:
                specs.append(tuple(cand))
            extend(cand, c + 1, left // c)

    extend([], 2, product_cap)
    return specs


class TestFullRankCondition:
    def test_paper_example(self):
        report = full_rank_condition(sgp(21, 24, 25, 31))
        assert report.condition_holds
        assert [w.partner_sum for w in report.witnesses] == [80, 77, 76, 70]
        assert all(w.in_apery for w in report.witnesses)
        assert report.multiplicity_bound_ok

    def test_witnesses_against_apery(self):
        S = sgp(21, 24, 25, 31)
        for w in full_rank_condition(S).witnesses:
            assert (w.partner_sum in apery(S, w.generator)) == w.in_apery

    def test_two_generators(self):
        assert full_rank_condition(sgp(2, 3)).condition_holds

    def test_4567_fails_by_multiplicity(self):
        S = sgp(4, 5, 6, 7)
        report = full_rank_condition(S)
        # m = 4 < 2³, so the condition cannot hold.
        assert S.multiplicity < 2 ** (S.embedding_dimension - 1)
        assert not report.condition_holds

    def test_decides_at_most_three_generators(self):
        """On every S ≠ ℕ of genus ≤ 14 with e(S) ≤ 3: for e(S) = 2 the
        condition holds; for e(S) = 3 it holds iff no generator divides the
        sum of the other two, and that divisibility is the order form of
        conftest.modular_order, whose gcd conditions it implies."""
        counts = {2: 0, 3: 0}
        held = 0
        for S in semigroups_by_genus(14):
            e = S.embedding_dimension
            if S.is_whole_n or e > 3:
                continue
            counts[e] += 1
            holds = full_rank_condition(S).condition_holds
            if e == 2:
                assert holds, S
                continue
            divides = any((sum(S.msg) - n) % n == 0 for n in S.msg)
            assert holds == (not divides), S
            assert divides == modular_order(S.msg), S
            held += holds
        assert (counts, held) == ({2: 28, 3: 143}, 52)

    def test_whole_n_rejected(self):
        from numsgps.core import WHOLE_N

        with pytest.raises(WholeN):
            full_rank_condition(WHOLE_N)

    def test_multiplicity_bound_on_sweep(self, small_semigroups):
        for S in small_semigroups:
            report = full_rank_condition(S)
            if report.condition_holds:
                assert S.multiplicity >= 2 ** (S.embedding_dimension - 1)
                assert report.multiplicity_bound_ok

    def test_subset_sums_distinct_in_apery(self, small_semigroups):
        """When the condition holds, the 2^(e-1) subset sums over the
        non-minimal generators are distinct members of Ap(S, m)."""
        pool = [S for S in small_semigroups if full_rank_condition(S).condition_holds]
        pool += [sgp(21, 24, 25, 31), sgp(4, 6, 9)]
        for S in pool:
            rest = S.msg[1:]
            ap = set(apery(S, S.msg[0]))
            sums = set()
            for r in range(len(rest) + 1):
                for js in combinations(rest, r):
                    sums.add(sum(js))
            assert len(sums) == 2 ** len(rest)
            assert sums <= ap


class TestUniqueBetti:
    def test_pair(self):
        assert unique_betti(UniqueBettiSpec((2, 3))) == sgp(2, 3)

    def test_triple(self):
        assert unique_betti(UniqueBettiSpec((2, 3, 5))) == sgp(6, 10, 15)

    def test_345(self):
        assert unique_betti(UniqueBettiSpec((3, 4, 5))) == sgp(12, 15, 20)

    def test_validation(self):
        with pytest.raises(TooSmall):
            UniqueBettiSpec((1, 3))
        with pytest.raises(TooSmall):
            UniqueBettiSpec((5,))
        with pytest.raises(NotPairwiseCoprime):
            UniqueBettiSpec((2, 3, 4))

    def test_full_rank_and_multiplicity_for_all_small_specs(self):
        for c in coprime_specs(500):
            spec = UniqueBettiSpec(c)
            S = unique_betti(spec)
            assert S.msg == spec.msg_out
            report = full_rank_condition(S)
            assert report.condition_holds
            assert S.multiplicity >= 2 ** (S.embedding_dimension - 1)

    def test_apery_matches_core(self):
        for c in coprime_specs(300):
            spec = UniqueBettiSpec(c)
            S = unique_betti(spec)
            for i in range(len(c)):
                a_i = prod(c) // c[i]
                assert unique_betti_apery(spec, i) == apery(S, a_i)

    def test_apery_example(self):
        # c = (2,3): the generator opposite c_1 = 2 is 3, Ap(⟨2,3⟩, 3) = {0,2,4}.
        assert unique_betti_apery(UniqueBettiSpec((2, 3)), 0) == (0, 2, 4)
        assert apery(sgp(2, 3), 3) == (0, 2, 4)


class TestJSubsetObstruction:
    def test_4567_has_witness(self):
        witness = j_subset_obstruction(sgp(4, 5, 6, 7))
        assert witness is not None
        total = sum(u * a for a, u in witness.coefficients)
        assert total == witness.target
        assert any(u > 0 for _, u in witness.coefficients)

    def test_full_rank_examples_have_none(self):
        assert j_subset_obstruction(sgp(21, 24, 25, 31)) is None
        assert j_subset_obstruction(sgp(2, 3)) is None

    def test_witness_exactly_when_condition_fails(self):
        """The proof in full_rank_condition's docstring, checked on all
        11,769 S ≠ ℕ of genus ≤ 16."""
        cases = [S for S in semigroups_by_genus(16) if not S.is_whole_n]
        assert len(cases) == 11769
        for S in cases:
            assert (j_subset_obstruction(S) is None) == full_rank_condition(S).condition_holds, S


class TestCoinDecomposition:
    def test_matches_coin_dp(self):
        rng = random.Random(71)
        for _ in range(3000):
            gens = rng.sample(range(1, 30), rng.randint(1, 5))
            target = rng.randint(0, 90)
            assert _coin_decomposition(gens, target) == coin_dp(gens, target)[1]


class TestBoundedLowESearch:
    def test_full_rank_excludes_hits(self):
        for gens in [(2, 3), (21, 24, 25, 31), (4, 6, 9)]:
            S = sgp(*gens)
            assert full_rank_condition(S).condition_holds
            assert bounded_low_e_multiple_search(S, 6) is None

    def test_condition_holding_searches_nothing(self, monkeypatch):
        """When the Apéry condition holds, None is exact for every d, so no
        tuple walk runs, however large d_max: ⟨21,24,25,31⟩, three
        unique-Betti semigroups and a two-generated one, for which it always
        holds (e = 1 only for ℕ, and ℕ/d = ℕ)."""

        def refuse(*args, **kwargs):
            raise AssertionError("the tuple walk ran")

        cases = [(sgp(21, 24, 25, 31), 30), (sgp(3, 5), 10**6)]
        for c in [(2, 3, 5), (2, 3, 5, 7), (3, 4, 5, 7)]:
            cases.append((unique_betti(UniqueBettiSpec(c)), 30))
        monkeypatch.setattr(rank, "_generator_tuples", refuse)
        start = time.perf_counter()
        for S, d_max in cases:
            assert bounded_low_e_multiple_search(S, d_max) is None, S
        assert time.perf_counter() - start < 1

    def test_tuples_to_first_hit_have_gcd_one(self):
        """Every tuple the walk yields at each d ≤ 15 up to and including
        the first d with one has gcd 1, on every S with e(S) ≥ 3 and genus
        ≤ 9 that fails the Apéry condition: the search takes its first
        tuple without a gcd check.  ⟨3,14,16⟩ first hits at d = 19."""
        cases = hits = 0
        for S in semigroups_by_genus(9):
            e = S.embedding_dimension
            if e < 3 or full_rank_condition(S).condition_holds:
                continue
            cases += 1
            for d in range(2, 16):
                found = [gens for gens, _ in _generator_tuples(MultipleContext(S, d), e - 1)]
                assert all(reduce(gcd, gens) == 1 for gens in found), (S, d)
                if found:
                    hits += 1
                    break
        assert (cases, hits) == (245, 244)

    def test_457_finds_57_at_d3(self):
        S = sgp(4, 5, 7)
        hit = bounded_low_e_multiple_search(S, 3)
        assert hit is not None
        d, T = hit
        assert (d, T) == (3, sgp(5, 7))
        assert quotient(T, d) == S
        assert T.embedding_dimension < S.embedding_dimension

    def test_matches_oracle(self):
        """On every S with e(S) ≥ 3 and genus ≤ 6, with d_max 4, the search
        gives the exact answer of the brute-force reference: the first d
        with a multiple of smaller e and that d's least (genus, gaps) one,
        or None."""
        cases = hits = 0
        for S in semigroups_by_genus(6):
            if S.embedding_dimension < 3:
                continue
            expected = reference_low_e_search(S, 4)
            assert bounded_low_e_multiple_search(S, 4) == expected, S
            cases += 1
            hits += expected is not None
        assert (cases, hits) == (39, 32)

    def test_sound_and_complete(self):
        """On every S with e(S) ≥ 3 and genus ≤ 8, with d_max 4: a hit (d, T)
        has T/d = S and e(T) < e(S); and wherever the tuple search lists
        multiples of smaller e with F ≤ 3·d·F(S) + 20, the search hits at a
        d' ≤ d, with the least (genus, gaps) one listed at d'."""
        cases = hits = listed = 0
        for S in semigroups_by_genus(8):
            e = S.embedding_dimension
            if e < 3:
                continue
            got = bounded_low_e_multiple_search(S, 4)
            if got is not None:
                d, T = got
                assert quotient(T, d) == S and T.embedding_dimension < e, S
            for d in range(2, 5):
                ctx = MultipleContext(S, d)
                found = _low_e_multiples(ctx, 3 * ctx.scaled_frobenius + 20, e - 1)
                if found:
                    assert got is not None and got[0] <= d, (S, d)
                    if got[0] == d:
                        assert got[1] == min(found, key=lambda t: (t.genus, t.gaps)), S
                    listed += 1
            cases += 1
            hits += got is not None
        assert (cases, hits, listed) == (142, 118, 285)

    def test_three_generated_order_decides(self):
        """For e(S) = 3 the search walks only when the Apéry condition
        fails, that is when msg(S) has an order (n₁, n₂, n₃) with gcd(n₁,
        n₂) = gcd(n₂, n₃) = 1 and n₂ | n₁ + n₃ (conftest.modular_order).  On
        every such S with genus ≤ 10 the walk itself, run for every d ≤ 20,
        finds a tuple of gcd 1 at some d exactly when that order exists.
        The latest first d is 19, at ⟨3,14,16⟩."""
        first = {}
        for S in semigroups_by_genus(10):
            if S.embedding_dimension != 3:
                continue
            first[S] = next(
                (
                    d
                    for d in range(2, 21)
                    for gens, _ in _generator_tuples(MultipleContext(S, d), 2)
                    if gcd(*gens) == 1
                ),
                None,
            )
            assert (first[S] is not None) == modular_order(S.msg), S
        hits = {S: d for S, d in first.items() if d is not None}
        assert (len(first), len(hits), max(hits.values())) == (62, 45, 19)
        assert [S for S, d in hits.items() if d == 19] == [sgp(3, 14, 16)]

    @pytest.mark.parametrize(
        "make_bounds, expected",
        [
            (
                lambda S: TruncationBounds(max_frobenius=4 * S.frobenius + 3, max_nodes=2000),
                10,
            ),
            (lambda S: TruncationBounds(max_genus=2 * S.frobenius + 3), 10),
            (lambda S: TruncationBounds(max_depth=3), 11),
            (lambda S: TruncationBounds(max_nodes=300), 11),
            (lambda S: TruncationBounds(max_depth=0), 0),
            (lambda S: TruncationBounds(max_nodes=1), 0),
        ],
        ids=[
            "max_frobenius+max_nodes",
            "max_genus",
            "max_depth",
            "max_nodes",
            "max_depth_0",
            "max_nodes_1",
        ],
    )
    def test_three_generated_matches_walking_every_root(
        self, census_by_frobenius, make_bounds, expected
    ):
        """On every S with e(S) = 3, F(S) ≤ 13 and d ≤ 4, walking every
        root found by root discovery under these bounds never finds a
        multiple of smaller e that the exact search misses: it hits at a d
        no earlier, and at the same d with no lesser (genus, gaps) one.  The
        pinned counts of the walk's hits and the search's keep both
        covered."""
        walked = found = 0
        for f in range(1, 14):
            for S in census_by_frobenius(f):
                if S.embedding_dimension != 3:
                    continue
                got = bounded_low_e_multiple_search(S, 4)
                walk = reference_root_walk(S, 4, make_bounds(S))
                assert_no_earlier(got, walk, S)
                walked += walk is not None
                found += got is not None
        assert (walked, found) == (expected, 11)

    def test_no_root_discovery_for_three_generated(self, monkeypatch):
        """The search needs no root discovery: with rank.max_multiples made
        to raise, it answers on every S with e(S) = 3 and F(S) ≤ 13 at
        d ≤ 5, and every hit is a multiple of smaller e.  For d ≤ 5 the
        maximal d-multiples with e < 3 are exactly the two-generated ones
        with F = d·F(S) the tuple search lists; ⟨4,5,6⟩ and ⟨4,7,10⟩ have
        one at d = 5."""
        three_generated = [
            S for f in range(1, 14) for S in all_with_frobenius(f) if S.embedding_dimension == 3
        ]
        low_roots = 0
        for S in three_generated:
            for d in range(2, 6):
                ctx = MultipleContext(S, d)
                low = [R for R in max_multiples(ctx).maximals if R.embedding_dimension < 3]
                assert sorted(low, key=lambda t: t.msg) == sorted(
                    _low_e_multiples(ctx, ctx.scaled_frobenius, 2), key=lambda t: t.msg
                ), (S, d)
                low_roots += len(low)
        assert (len(three_generated), low_roots) == (30, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("root discovery ran")

        monkeypatch.setattr(rank, "max_multiples", refuse)
        hits = 0
        for S in three_generated:
            got = bounded_low_e_multiple_search(S, 5)
            if got is not None:
                d, T = got
                assert quotient(T, d) == S and T.embedding_dimension < 3, S
                hits += 1
        assert hits == 15

    def test_two_generated_multiples_match_oracle(self, small_semigroups):
        """On every S with F(S) ≤ 9 and d ≤ 3, the generator tuple search
        for two generators bounded at F ≤ 3·F(S) + 3 gives the oracle's
        two-generated d-multiples there."""
        cases = found = 0
        for S in small_semigroups:
            if S.frobenius > 9:
                continue
            f = 3 * S.frobenius + 3
            for d in range(1, 4):
                ctx = MultipleContext(S, d)
                expected = sorted(
                    (
                        T
                        for T in all_multiples_bounded(ctx, EnumerationBudget(f, f, 10**6))
                        if T.embedding_dimension == 2
                    ),
                    key=lambda t: t.msg,
                )
                got = sorted(_low_e_multiples(ctx, f, 2), key=lambda t: t.msg)
                assert got == expected, (S, d)
                cases += 1
                found += len(expected)
        assert (cases, found) == (171, 30)

    def test_low_e_multiples_match_oracle(self, small_semigroups):
        """On every S with e(S) ≥ 4, F(S) ≤ 9 and d ∈ {2, 3}, the generator
        tuple search bounded at F ≤ 3·F(S) + 3 gives the oracle's d-multiples
        with e < e(S) there."""
        cases = found = 0
        for S in small_semigroups:
            e = S.embedding_dimension
            if S.frobenius > 9 or e < 4:
                continue
            f = 3 * S.frobenius + 3
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                expected = sorted(
                    (
                        T
                        for T in all_multiples_bounded(ctx, EnumerationBudget(f, f, 10**6))
                        if T.embedding_dimension < e
                    ),
                    key=lambda t: t.msg,
                )
                got = sorted(_low_e_multiples(ctx, f, e - 1), key=lambda t: t.msg)
                assert got == expected, (S, d)
                cases += 1
                found += len(expected)
        assert (cases, found) == (76, 2499)

    @pytest.mark.parametrize(
        "make_bounds, expected",
        [
            (
                lambda S: TruncationBounds(max_frobenius=3 * S.frobenius + 6, max_nodes=2000),
                91,
            ),
            (lambda S: TruncationBounds(max_genus=2 * S.frobenius), 92),
            (lambda S: TruncationBounds(max_depth=3), 92),
            (lambda S: TruncationBounds(max_nodes=100), 93),
            (lambda S: TruncationBounds(max_depth=0), 26),
        ],
        ids=["sweep", "max_genus", "max_depth", "max_nodes", "max_depth_0"],
    )
    def test_four_or_more_generated_matches_walking_every_root(self, make_bounds, expected):
        """On every S with e(S) ≥ 4 and genus ≤ 8 (108 of them) and d ≤ 3,
        walking every root found by root discovery under these bounds never
        finds a multiple of smaller e that the exact search misses.  The
        first bounds are those the sweep once used.  The pinned counts of
        the walk's hits and the search's keep both covered."""
        walked = found = 0
        for S in semigroups_by_genus(8):
            if S.embedding_dimension < 4:
                continue
            got = bounded_low_e_multiple_search(S, 3)
            walk = reference_root_walk(S, 3, make_bounds(S))
            assert_no_earlier(got, walk, S)
            walked += walk is not None
            found += got is not None
        assert (walked, found) == (expected, 101)


class TestQuotientRankCensus:
    def test_to_genus_12(self):
        """The converse of the Apéry condition on all 1,412 S ≠ ℕ of genus
        ≤ 12 (sweeps.quotient_rank_census); CI runs it to genus 14.  Five
        of the 1,289 witnesses of e(S) ≥ 4 need d > 8."""
        cases, witnesses = quotient_rank_census(12, 15)
        late = sorted((d, S.msg, T.msg) for S, d, T in witnesses if d > 8)
        assert (cases, len(witnesses)) == (1412, 1289)
        assert late == [
            (9, (4, 14, 15, 21), (12, 34, 55)),
            (9, (4, 14, 17, 19), (17, 19, 69)),
            (9, (4, 14, 19, 21), (14, 22, 101)),
            (9, (8, 9, 12, 14), (16, 28, 49)),
            (11, (8, 9, 11, 12), (19, 23, 75)),
        ]

    def test_proven_full_rank_is_no_hit(self):
        """The first e(S) = 4 semigroups past the census that pass the Apéry
        condition, at genus 17 and 19: each is classed as of proven full
        rank, and the search finds nothing."""
        for gens, genus in (((8, 12, 14, 15), 17), ((8, 12, 14, 19), 19), ((10, 12, 15, 16), 19)):
            S = sgp(*gens)
            assert (S.genus, S.embedding_dimension) == (genus, 4)
            assert quotient_rank_case(S, 15) == (True, None)


class TestRankSweep:
    def test_reproducible(self):
        a = rank_sweep(8, 8, seed=2024)
        b = rank_sweep(8, 8, seed=2024)
        assert a == b
        assert rank_sweep(8, 8, seed=2025) != a

    def test_one_condition_check_per_row(self, monkeypatch):
        """Each row checks the Apéry condition once: the low-e search past
        its gate reuses the row's verdict."""
        calls = []

        def counted(S):
            calls.append(S)
            return full_rank_condition(S)

        monkeypatch.setattr(rank, "full_rank_condition", counted)
        rows = rank_sweep(50, 8, seed=7)
        assert len(calls) == len(rows) == 50
        assert any(row["low_e_d"] != "" for row in rows)

    def test_rows_are_consistent(self):
        for row in rank_sweep(12, 8, seed=7):
            S = from_generators(int(v) for v in row["msg"].split(","))
            assert row["frobenius"] == S.frobenius
            assert row["genus"] == S.genus
            if row["condition_holds"]:
                assert row["low_e_d"] == ""
                assert not row["obstruction_found"]
                assert row["multiplicity_bound_ok"]

    def test_random_semigroup_draws_as_the_reference(self):
        """Testing the genus before the build changes neither the draws nor
        the rng state: twin generators give the same S and next number."""
        for seed in range(500):
            for max_genus in range(1, 13):
                rng, twin = random.Random(seed), random.Random(seed)
                S = random_semigroup(rng, max_genus)
                assert S == reference_random_semigroup(twin, max_genus), (seed, max_genus)
                assert rng.random() == twin.random(), (seed, max_genus)

    def test_random_semigroup_respects_genus(self):
        import random as _random

        rng = _random.Random(99)
        for _ in range(30):
            S = random_semigroup(rng, 6)
            assert 1 <= S.genus <= 6
