"""The brute-force layer itself: censuses by two independent methods,
bounded multiple enumeration, over-semigroups, and the exhaustive minimal
system search."""

import hashlib

import pytest

from numsgps import core, oracle
from numsgps.core import WHOLE_N, from_generators
from numsgps.errors import CeilingExceeded, InvalidInput
from numsgps.multiples import MultipleContext, is_d_multiple, quotient
from numsgps.oracle import (
    EnumerationBudget,
    all_multiples_bounded,
    all_with_frobenius,
    all_with_frobenius_genus_tree,
    brute_minimal_md_system,
    oversemigroups,
    semigroups_by_genus,
)

from conftest import sgp


class TestCensus:
    def test_f6_exactly_four(self):
        got = set(all_with_frobenius(6))
        assert got == {
            sgp(4, 5, 7),
            sgp(4, 7, 9, 10),
            sgp(5, 7, 8, 9, 11),
            sgp(7, 8, 9, 10, 11, 12, 13),
        }

    def test_f1(self):
        assert all_with_frobenius(1) == (sgp(2, 3),)

    def test_two_enumerators_agree(self):
        """Two independent derivations of every msg: the descent reads it
        off its own sum mask, the genus tree builds each semigroup through
        the production kernel of numsgps.core."""
        for f in range(1, 13):
            assert all_with_frobenius(f) == all_with_frobenius_genus_tree(f)

    def test_every_output_is_well_formed(self, census_by_frobenius):
        from functools import reduce
        from math import gcd

        from numsgps.core import from_gaps

        for f in (4, 7, 10):
            for S in census_by_frobenius(f):
                assert S.frobenius == f
                assert from_generators(S.msg) == S
                assert from_gaps(S.gaps) == S  # complement really is closed
                # no proper subset of msg regenerates the same semigroup
                for drop in S.msg:
                    subset = [a for a in S.msg if a != drop]
                    if not subset or reduce(gcd, subset) != 1:
                        continue
                    assert from_generators(subset) != S

    def test_ceiling(self):
        """The census has no ceiling of its own (the CLI command keeps
        one), and refuses f < 1."""
        assert len(all_with_frobenius(21)) > 0
        with pytest.raises(InvalidInput):
            all_with_frobenius(0)


class TestGenusTree:
    def test_counts(self):
        by_genus = {}
        for S in semigroups_by_genus(8):
            by_genus.setdefault(S.genus, 0)
            by_genus[S.genus] += 1
        assert [by_genus[g] for g in range(9)] == [1, 1, 2, 4, 7, 12, 23, 39, 67]

    def test_one_build_per_semigroup(self, monkeypatch):
        """Each semigroup of genus 1 … 12 is built once (ℕ is a constant),
        and the listing's gap masks and msg are those recorded when every
        one but the last level was built twice."""
        builds = []
        build = oracle._from_gap_mask
        monkeypatch.setattr(oracle, "_from_gap_mask", lambda g: builds.append(g) or build(g))
        listing = semigroups_by_genus(12)
        assert len(listing) == 1413
        assert len(builds) == len(set(builds)) == 1412
        text = ",".join(f"{S.gap_mask}:{S.msg}" for S in listing)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8b528f3ed7a920c86f8ed30a2d15884eae3ea40404ceed06c1646c3bf77039fd"
        )


class TestBoundedMultiples:
    def test_example_29(self):
        ctx = MultipleContext(sgp(3, 4, 5), 3)
        got = all_multiples_bounded(ctx, EnumerationBudget(6, 6, 1000))
        assert sgp(4, 5, 7) in got
        assert sgp(4, 7, 9, 10) in got

    def test_d_one(self):
        S = sgp(3, 5, 7)
        ctx = MultipleContext(S, 1)
        assert all_multiples_bounded(ctx, EnumerationBudget(S.frobenius, 40, 1000)) == (S,)

    def test_every_output_is_a_multiple(self, small_semigroups):
        for S in small_semigroups[::8]:
            if S.frobenius > 6:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                for T in all_multiples_bounded(
                    ctx, EnumerationBudget(d * S.frobenius + 3, 40, 4000)
                ):
                    assert is_d_multiple(ctx, T)
                    assert quotient(T, d) == S

    def test_node_limit(self):
        ctx = MultipleContext(sgp(2, 3), 3)
        with pytest.raises(CeilingExceeded):
            all_multiples_bounded(ctx, EnumerationBudget(9, 9, 2))

    def test_unreachable_bound_is_empty(self):
        ctx = MultipleContext(sgp(3, 5, 7), 3)
        assert all_multiples_bounded(ctx, EnumerationBudget(5, 40, 100)) == ()


class TestOversemigroups:
    def test_example(self):
        got = [str(t) for t in oversemigroups(sgp(3, 5, 7))]
        assert got == ["⟨1⟩", "⟨2,3⟩", "⟨3,4,5⟩", "⟨3,5,7⟩"]

    def test_whole_n(self):
        assert oversemigroups(WHOLE_N) == (WHOLE_N,)

    def test_all_contain(self, small_semigroups):
        for S in small_semigroups[::10]:
            for T in oversemigroups(S):
                assert S <= T


# The S of the over-semigroup listings (ℕ included) and the (S, d,
# max_frobenius) of the bounded-multiples listings that the order and
# independence tests run.
OVERSEMIGROUP_CASES = [(3, 5, 7), (5, 7, 9), (4, 6, 13, 15), (6, 9, 11), (1,)]
MULTIPLE_CASES = [
    ((3, 4, 5), 2, 14), ((2, 3), 3, 13), ((5, 7, 9), 2, 30),
    ((1,), 2, 9), ((3, 5, 7), 3, 16),
]


class TestIndependence:
    def test_msg_without_the_production_kernel(self, monkeypatch):
        """The descent-based listings read msg from their own sum mask: they
        run with the production minimal-generator kernel and the oracle's
        core builder refused, and each msg is the kernel's, computed after."""

        def refused(gap_mask):
            raise AssertionError(f"production build of gap mask {gap_mask}")

        contexts = [(MultipleContext(sgp(*gens), d), fmax) for gens, d, fmax in MULTIPLE_CASES]
        overs = [sgp(*gens) for gens in OVERSEMIGROUP_CASES]
        with monkeypatch.context() as patch:
            patch.setattr(core, "_minimal_generators", refused)
            patch.setattr(oracle, "_from_gap_mask", refused)
            listings = [all_with_frobenius(f) for f in range(1, 17)]
            listings += [
                all_multiples_bounded(ctx, EnumerationBudget(fmax, fmax, 10000))
                for ctx, fmax in contexts
            ]
            listings += [oversemigroups(S) for S in overs]
        assert WHOLE_N in overs
        checked = 0
        for listing in listings:
            for S in listing:
                assert S.msg == core._minimal_generators(S.gap_mask)
                checked += 1
        assert checked > 1000


def assert_canonical_order(listing):
    """The oracle's order contract: sorted by (genus, gaps), no duplicates."""
    listing = list(listing)
    assert listing == sorted(listing, key=lambda S: (S.genus, S.gaps))
    assert len(set(listing)) == len(listing)


class TestOrderContract:
    """Each enumerator's own order, against the key itself;
    test_two_enumerators_agree cannot see an order both of them share."""

    def test_census(self):
        for f in range(1, 13):
            assert_canonical_order(all_with_frobenius(f))

    def test_genus_tree(self):
        listing = semigroups_by_genus(9)
        assert len(listing) == 1 + 1 + 2 + 4 + 7 + 12 + 23 + 39 + 67 + 118
        assert_canonical_order(listing)

    @pytest.mark.parametrize("gens", OVERSEMIGROUP_CASES)
    def test_oversemigroups(self, gens):
        assert_canonical_order(oversemigroups(sgp(*gens)))

    @pytest.mark.parametrize("gens, d, fmax", MULTIPLE_CASES)
    def test_multiples_bounded(self, gens, d, fmax):
        ctx = MultipleContext(sgp(*gens), d)
        listing = all_multiples_bounded(ctx, EnumerationBudget(fmax, fmax, 10000))
        assert len({S.genus for S in listing}) > 1
        assert_canonical_order(listing)


class TestBruteMinimalSystem:
    def test_example(self):
        ctx = MultipleContext(sgp(5, 7, 9), 2)
        M = sgp(9, 10, 14)
        assert brute_minimal_md_system(ctx, M.members_up_to(45)) == (9,)

    def test_scaled_copy_needs_nothing(self):
        ctx = MultipleContext(sgp(5, 7, 9), 2)
        scaled = [2 * v for v in sgp(5, 7, 9).members_up_to(30)]
        assert brute_minimal_md_system(ctx, scaled) == ()

    def test_requires_zero(self):
        ctx = MultipleContext(sgp(5, 7, 9), 2)
        with pytest.raises(InvalidInput):
            brute_minimal_md_system(ctx, [9, 10])

    def test_refuses_a_list_its_atoms_overshoot(self):
        # 1 and 3 are atoms outside 2·⟨2,3⟩, and ⟨1,3⟩ + 2·⟨2,3⟩ holds 2.
        ctx = MultipleContext(sgp(2, 3), 2)
        with pytest.raises(
            InvalidInput, match=r"^element list is not a monoid of the form ⟨X⟩ \+ d·S$"
        ):
            brute_minimal_md_system(ctx, [0, 1, 3])
