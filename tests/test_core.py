"""Construction, invariants, Apéry and pseudo-Frobenius data, irreducibility,
generator surgery, and the gcd-reduction Frobenius formula."""

import random
import time
from itertools import combinations
from math import gcd
from functools import reduce

import pytest

from numsgps.core import (
    WHOLE_N,
    _adjoined,
    _closure,
    _from_gap_mask,
    _from_gap_tuple,
    _generators_among,
    _minimal_generators,
    _removed,
    _removed_msg,
    adjoin,
    apery,
    brauer_step,
    from_gaps,
    from_generators,
    intersect,
    is_irreducible,
    is_pseudo_symmetric,
    is_symmetric,
    preceq,
    pseudo_frobenius,
    remove_minimal_generator,
    semigroup_type,
)
from numsgps.errors import (
    InvalidInput,
    NotAdjoinable,
    NotClosed,
    NotCoprime,
    NotMember,
    NotMinimalGenerator,
    NotNumerical,
    WholeN,
)
from numsgps.fibers import TruncationBounds, enumerate_fiber
from numsgps.multiples import MultipleContext, is_d_multiple, max_multiples
from numsgps.oracle import is_irreducible_bruteforce, semigroups_by_genus

from conftest import coin_dp, sgp


class TestFromGenerators:
    def test_345(self):
        S = sgp(3, 4, 5)
        assert S.gaps == (1, 2)
        assert S.frobenius == 2
        assert S.genus == 2

    def test_whole_n(self):
        S = sgp(1)
        assert S.gaps == ()
        assert S.frobenius == -1
        assert S.genus == 0
        assert S == WHOLE_N

    def test_redundant_generator_dropped(self):
        assert sgp(9, 10, 14, 18).msg == (9, 10, 14)

    def test_non_coprime_rejected(self):
        with pytest.raises(NotNumerical):
            sgp(4, 6)

    def test_bad_values_rejected(self):
        with pytest.raises(InvalidInput):
            sgp(0, 3)
        with pytest.raises(InvalidInput):
            sgp(-2, 3)
        with pytest.raises(InvalidInput):
            from_generators([])


class TestClosure:
    def test_matches_coin_dp(self):
        rng = random.Random(67)
        for _ in range(3000):
            gens = rng.sample(range(1, 40), rng.randint(0, 5))
            bound = rng.randint(0, 60)
            reach, _ = coin_dp(gens, bound)
            mask = _closure(gens, bound)
            assert mask >> (bound + 1) == 0
            assert [mask >> n & 1 for n in range(bound + 1)] == list(reach)

    def test_edges(self):
        assert _closure([5, 3], 0) == 1
        assert _closure([], 9) == 1
        assert _closure([7, 12], 6) == 1  # every generator above the bound
        assert _closure([9, 2], 5) == 0b10101


class TestFromGaps:
    def test_empty(self):
        assert from_gaps([]) == WHOLE_N

    def test_gap_pair(self):
        assert from_gaps([1, 2]) == sgp(3, 4, 5)

    def test_124_closed(self):
        assert from_gaps([1, 2, 4]) == sgp(3, 5, 7)

    def test_not_closed_witness(self):
        with pytest.raises(NotClosed) as err:
            from_gaps([1, 4])
        a, b = err.value.witness
        assert a + b == 4 and a not in (1, 4) and b not in (1, 4)

    def test_round_trip_every_gap_set_to_genus_15(self):
        """All 6964 closed gap sets with at most 15 gaps survive both
        round trips (the count itself pins the enumerator)."""
        pool = semigroups_by_genus(15)
        assert len(pool) == 6964
        for S in pool:
            again = from_gaps(S.gaps)
            assert again == S
            assert from_generators(again.msg) == S


class TestMembership:
    def test_examples(self):
        S = sgp(3, 5, 7)
        assert not S.contains(4)
        assert S.contains(0)
        assert S.contains(12)
        assert not S.contains(-3)

    def test_closure(self, small_semigroups):
        for S in small_semigroups[::7]:
            members = S.members_up_to(2 * S.frobenius + 2)
            for a, b in combinations(members, 2):
                assert S.contains(a + b)


class TestApery:
    def test_paper_value(self):
        assert 80 in apery(sgp(21, 24, 25, 31), 21)

    def test_whole_n(self):
        assert apery(WHOLE_N, 1) == (0,)

    def test_23(self):
        assert apery(sgp(2, 3), 2) == (0, 3)

    def test_requires_member(self):
        with pytest.raises(NotMember):
            apery(sgp(3, 5, 7), 4)
        with pytest.raises(NotMember):
            apery(sgp(3, 5, 7), 0)

    def _check_shape(self, S):
        for x in S.msg:
            ap = apery(S, x)
            assert len(ap) == x
            assert sorted(a % x for a in ap) == list(range(x))
            assert max(ap) == S.frobenius + x
            assert 0 in ap
            assert all(S.contains(a) and not S.contains(a - x) for a in ap)

    def test_shape_census(self, census_by_frobenius):
        for f in range(1, 11):
            for S in census_by_frobenius(f):
                self._check_shape(S)

    def test_shape_random_to_f40(self):
        rng = random.Random(11)
        produced = 0
        while produced < 150:
            gens = rng.sample(range(2, 30), rng.randint(2, 4))
            if reduce(gcd, gens) != 1:
                continue
            S = from_generators(gens)
            if not 1 <= S.frobenius <= 40:
                continue
            produced += 1
            self._check_shape(S)


class TestPseudoFrobenius:
    def test_579(self):
        assert pseudo_frobenius(sgp(5, 7, 9)) == (11, 13)

    def test_6911_minus_9(self):
        T = remove_minimal_generator(sgp(6, 9, 11), 9)
        assert pseudo_frobenius(T) == (9, 16, 25)

    def test_single_gap(self):
        assert pseudo_frobenius(sgp(2, 3)) == (1,)

    def test_whole_n_rejected(self):
        with pytest.raises(WholeN):
            pseudo_frobenius(WHOLE_N)

    def test_equals_maximal_gaps(self, genus_tree_12):
        """PF(S) is the set of gaps maximal for the order x ⪯ y iff y-x ∈ S."""
        for S in genus_tree_12:
            if S.is_whole_n:
                continue
            maximals = tuple(
                z
                for z in S.gaps
                if not any(
                    y != z and preceq(S, z, y).difference_in_S for y in S.gaps
                )
            )
            assert pseudo_frobenius(S) == maximals

    def test_type_examples(self):
        assert semigroup_type(sgp(5, 7, 9)) == 2
        assert semigroup_type(sgp(2, 3)) == 1
        assert semigroup_type(sgp(4, 5, 6, 7)) == 3


class TestIrreducible:
    def test_examples(self):
        assert is_irreducible(sgp(3, 5, 7))
        assert is_pseudo_symmetric(sgp(3, 5, 7))  # F = 4 even
        assert is_symmetric(sgp(2, 3))  # F = 1 odd
        assert not is_irreducible(sgp(5, 6, 8, 9))

    def test_whole_n_rejected(self):
        with pytest.raises(WholeN):
            is_irreducible(WHOLE_N)

    def test_against_bruteforce(self, small_semigroups):
        for S in small_semigroups:
            expected = is_irreducible_bruteforce(S)
            assert is_irreducible(S) == expected
            if expected:
                assert is_symmetric(S) == (S.frobenius % 2 == 1)
                assert is_pseudo_symmetric(S) == (S.frobenius % 2 == 0)


class TestGeneratorSurgery:
    def test_remove_examples(self):
        T = sgp(5, 7, 8, 9)
        assert remove_minimal_generator(T, 8) == sgp(5, 7, 9, 13)
        assert remove_minimal_generator(T, 9) == sgp(5, 7, 8)
        assert remove_minimal_generator(WHOLE_N, 1) == sgp(2, 3)

    def test_remove_requires_minimal_generator(self):
        with pytest.raises(NotMinimalGenerator):
            remove_minimal_generator(sgp(3, 5, 7), 8)

    def test_adjoin_examples(self):
        assert adjoin(sgp(3, 5, 7), 4) == sgp(3, 4, 5)
        assert adjoin(sgp(2, 3), 1) == WHOLE_N

    def test_adjoin_frobenius_always_works(self, small_semigroups):
        for S in small_semigroups[::5]:
            bigger = adjoin(S, S.frobenius)
            assert bigger.genus == S.genus - 1

    def test_adjoin_reasons(self):
        S = sgp(3, 5, 7)
        with pytest.raises(NotAdjoinable, match="not a gap"):
            adjoin(S, 3)
        with pytest.raises(NotAdjoinable, match="pseudo-Frobenius"):
            adjoin(S, 1)
        S2 = sgp(4, 5, 6, 7)  # PF = {1, 2, 3}, but 2·1 = 2 is a gap
        with pytest.raises(NotAdjoinable, match="twice"):
            adjoin(S2, 1)

    def test_adjoin_then_remove_is_identity(self, small_semigroups):
        for S in small_semigroups:
            bigger = adjoin(S, S.frobenius)
            if S.frobenius in bigger.msg:
                assert remove_minimal_generator(bigger, S.frobenius) == S


class TestIncrementalKernels:
    """The one-step kernels agree with a from-scratch build of the gap set."""

    def test_removed_matches_rebuild(self, genus_tree_12):
        for S in genus_tree_12:
            for x in S.msg:
                assert _removed(S, x) == _from_gap_tuple(S.gaps + (x,)), (S, x)

    def test_removed_msg_matches_a_scan(self, genus_tree_12):
        """The raw removal kernel gives the msg of a full scan of the new
        gap mask, on both of its branches: x > F(S) with x ≠ m(S), and the
        rest."""
        branches = set()
        for S in genus_tree_12:
            for x in S.msg:
                got = _removed_msg(S.gap_mask, S.msg, x)
                assert got == _minimal_generators(S.gap_mask | 1 << x), (S, x)
                branches.add(x > S.frobenius and x != S.multiplicity)
        assert branches == {False, True}

    def test_removed_needs_three_x(self):
        # ℕ ∖ {1} = ⟨2, 3⟩: 3 = 3x is neither a generator of ℕ nor x + a.
        assert _removed(WHOLE_N, 1) == sgp(2, 3)
        assert _removed(WHOLE_N, 1).msg == (2, 3)

    def test_removed_both_branches_on_fiber_edges(self, monkeypatch):
        """Every fiber edge removes x from T, with x < F(T) = d·F(S) at
        depth 1 and x > F(T) below it; with x = m(T) > F(T) the one-candidate
        branch does not apply.  Both branches must run and agree with a
        rebuild of the gap mask."""
        accumulated = 0

        def counted(gap_mask, candidates):
            nonlocal accumulated
            accumulated += 1
            return _generators_among(gap_mask, candidates)

        edges = [(WHOLE_N, 1), (sgp(2, 3), 2)]
        for gens, d, bounds in (
            ((2, 3), 11, TruncationBounds(max_genus=12)),
            ((3, 4, 5), 3, TruncationBounds(max_nodes=500)),
        ):
            ctx = MultipleContext(sgp(*gens), d)
            for R in max_multiples(ctx).maximals:
                tree = enumerate_fiber(ctx, R, bounds)
                edges += [
                    (tree.semigroup[p], x)
                    for p, x in zip(tree.parent[1:], tree.removed_generator[1:])
                ]
        above = sum(x > T.frobenius and x != T.multiplicity for T, x in edges)
        monkeypatch.setattr("numsgps.core._generators_among", counted)
        removed = [_removed(T, x) for T, x in edges]
        # The accumulator ran exactly for the other edges, the depth-1
        # edges with x < F(T) among them, and not only for the two x = m(T).
        assert accumulated == len(edges) - above
        assert above > 0 and accumulated > 2
        monkeypatch.undo()
        for (T, x), U in zip(edges, removed):
            assert U == _from_gap_mask(T.gap_mask | 1 << x), (T, x)
        assert removed[:2] == [sgp(2, 3), sgp(3, 4, 5)]

    def test_adjoined_matches_rebuild(self, genus_tree_12):
        checked = 0
        for S in genus_tree_12:
            if S.is_whole_n:
                continue
            for z in pseudo_frobenius(S):
                if S.contains(2 * z):
                    rebuilt = _from_gap_tuple(h for h in S.gaps if h != z)
                    assert _adjoined(S, z) == rebuilt, (S, z)
                    checked += 1
        assert checked > len(genus_tree_12)

    def test_pseudo_frobenius_matches_definition(self, genus_tree_12):
        for S in genus_tree_12:
            if S.is_whole_n:
                continue
            members = [s for s in range(1, S.frobenius + 1) if S.contains(s)]
            expected = tuple(
                z for z in S.gaps if all(S.contains(z + s) for s in members)
            )
            assert pseudo_frobenius(S) == expected, S


class TestMaskRepresentation:
    """Every mask-level primitive agrees with its gap-tuple definition."""

    def test_mask_is_the_gap_set(self, genus_tree_12):
        for S in genus_tree_12:
            assert S.gap_mask == sum(1 << h for h in S.gaps), S

    def test_scaled_mask_is_the_scaled_gap_set(self, genus_tree_12):
        for S in genus_tree_12[:27]:  # every S of genus <= 5
            for d in range(1, 6):
                ctx = MultipleContext(S, d)
                assert ctx.scaled_gap_mask == sum(1 << d * h for h in S.gaps), (S, d)

    def test_invariants_match_gap_tuple(self, genus_tree_12):
        for S in genus_tree_12:
            gaps = S.gaps
            assert S.frobenius == (max(gaps) if gaps else -1)
            assert S.genus == len(gaps)
            for x in range(-2, S.frobenius + 3):
                assert S.contains(x) == (x >= 0 and x not in gaps), (S, x)

    def test_inclusion_matches_gap_subsets(self, genus_tree_12):
        rng = random.Random(12)
        pairs = [(S, _removed(S, x)) for S in genus_tree_12[:200] for x in S.msg]
        pairs += [tuple(rng.sample(genus_tree_12, 2)) for _ in range(3000)]
        pairs += [(S, S) for S in genus_tree_12[:50]]
        for A, B in pairs:
            for X, Y in ((A, B), (B, A)):
                gx, gy = set(X.gaps), set(Y.gaps)
                assert (X <= Y) == (gy <= gx), (X, Y)
                assert (X < Y) == (gy < gx), (X, Y)

    def test_minimal_generators_match_definition(self, genus_tree_12):
        for S in genus_tree_12:
            top = S.frobenius + S.multiplicity + 1
            members = [x for x in range(1, top + 1) if x not in S.gaps]
            brute = tuple(
                x for x in members
                if not any(x - a in members for a in members if a < x)
            )
            assert _minimal_generators(S.gap_mask) == brute, S
            assert S.msg == brute, S

    def test_is_d_multiple_matches_quotient_definition(self, genus_tree_12):
        targets = genus_tree_12[:27]  # every S of genus <= 5
        positives = 0
        for d in (2, 3, 4):
            for S in targets:
                ctx = MultipleContext(S, d)
                for T in genus_tree_12:
                    top = max(T.frobenius // d, S.frobenius) + 1
                    quotient_is_s = all(
                        T.contains(d * x) == S.contains(x) for x in range(top + 1)
                    )
                    assert is_d_multiple(ctx, T) == quotient_is_s, (S, d, T)
                    positives += quotient_is_s
        assert positives > len(genus_tree_12)

    def test_gap_tuple_build_takes_any_order_in_linear_time(self, genus_tree_12):
        """The gaps may come unsorted and from a generator.  Setting one bit
        per gap copied the growing mask once per gap: the 2^20 gaps of
        ⟨2, 2^21 + 1⟩ took seconds, where one pass takes a fraction."""
        rng = random.Random(20)
        for S in genus_tree_12[:200]:
            gaps = list(S.gaps)
            rng.shuffle(gaps)
            assert _from_gap_tuple(h for h in gaps) == S, S
        start = time.perf_counter()
        S = _from_gap_tuple(range(2**21 - 1, 0, -2))
        assert time.perf_counter() - start < 2
        assert (S.msg, S.genus) == ((2, 2**21 + 1), 2**20)

    def test_gap_round_trip_keeps_value_and_hash(self, genus_tree_12):
        for S in genus_tree_12:
            again = from_gaps(S.gaps)
            assert again == S and hash(again) == hash(S), S

    def test_whole_n(self, genus_tree_12):
        assert genus_tree_12[0] == WHOLE_N
        assert WHOLE_N.gap_mask == 0
        assert WHOLE_N.frobenius == -1
        assert WHOLE_N.msg == (1,)


class TestIntersect:
    def test_containment_example(self):
        assert intersect(sgp(4, 5, 7), sgp(4, 7, 9, 10)) == sgp(4, 7, 9, 10)

    def test_whole_n_neutral(self):
        S = sgp(3, 5, 7)
        assert intersect(S, WHOLE_N) == S

    def test_gap_union(self):
        got = intersect(sgp(2, 3), sgp(3, 4, 5))
        assert set(got.gaps) == {1, 2}

    def test_membership_agrees(self, small_semigroups):
        rng = random.Random(3)
        for _ in range(100):
            s1, s2 = rng.sample(small_semigroups, 2)
            both = intersect(s1, s2)
            for x in range(0, max(s1.frobenius, s2.frobenius) + 3):
                assert both.contains(x) == (s1.contains(x) and s2.contains(x))


class TestBrauerStep:
    def test_reduction_example(self):
        assert brauer_step(9, [10, 14, 18]) == (35, 20)

    def test_gcd_one_is_direct(self):
        S = sgp(5, 7, 9)
        assert brauer_step(5, [7, 9]) == (S.frobenius, S.genus)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            brauer_step(4, [6, 10])

    def test_matches_direct_on_random_tuples(self):
        rng = random.Random(17)
        done = 0
        while done < 200:
            a1 = rng.randint(2, 200)
            rest = rng.sample(range(2, 201), rng.randint(1, 3))
            if reduce(gcd, rest, a1) != 1:
                continue
            done += 1
            S = from_generators([a1, *rest])
            assert brauer_step(a1, rest) == (S.frobenius, S.genus)


class TestValueSemantics:
    def test_hash_and_equality(self):
        assert sgp(3, 4, 5) == from_gaps([1, 2])
        assert len({sgp(3, 4, 5), from_gaps([1, 2]), sgp(2, 3)}) == 2

    def test_str(self):
        assert str(sgp(5, 7, 9)) == "⟨5,7,9⟩"

    def test_inclusion_order(self):
        assert sgp(4, 7, 9, 10) <= sgp(4, 5, 7)
        assert not sgp(4, 5, 7) <= sgp(4, 7, 9, 10)


class TestWidthGuard:
    def test_brauer_overflow_reported(self):
        from numsgps.errors import Overflow

        # b = 2**63 scales the reduction past the 64-bit range.
        with pytest.raises(Overflow):
            brauer_step(3, [2**63, 5 * 2**63])

    def test_huge_generators_stay_small(self):
        from numsgps.errors import CeilingExceeded

        # A generator above the closure bound is never shifted by.
        assert from_generators([2, 3, 2**61]) == sgp(2, 3)
        with pytest.raises(CeilingExceeded):
            from_generators([2, 2**61 + 1])

    def test_huge_d_multiple_test_stays_small(self):
        d = 2**61  # the masks of d·S would need 2**61 bits
        assert not is_d_multiple(MultipleContext(sgp(2, 3), d), sgp(3, 4, 5))
        assert is_d_multiple(MultipleContext(WHOLE_N, d), sgp(2, 3))

    def test_context_overflow_reported(self):
        from numsgps.errors import Overflow
        from numsgps.multiples import MultipleContext

        with pytest.raises(Overflow):
            MultipleContext(sgp(2, 3), 2**63)
