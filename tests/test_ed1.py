"""Closed forms for ⟨x⟩ + d·S: Frobenius, genus, pseudo-Frobenius, type,
θ-closure, gluing detection and symmetry transfer, each checked against the
materialized semigroup."""

from math import gcd

import pytest

from numsgps.core import (
    WHOLE_N,
    adjoin,
    is_symmetric,
    pseudo_frobenius,
    semigroup_type,
)
from numsgps.ed1 import (
    construct_ed1,
    ed1_frobenius,
    ed1_genus,
    ed1_pseudo_frobenius,
    ed1_symmetry_transfer,
    ed1_theta_closure,
    is_gluing_of_n_and_s,
)
from numsgps.errors import DIsOne, NotCoprime, NotMember, WholeN
from numsgps.fibers import theta
from numsgps.multiples import MultipleContext

from conftest import sgp


def build(gens, d, x):
    return construct_ed1(MultipleContext(sgp(*gens), d), x)


class TestConstruct:
    def test_example(self):
        assert build((5, 7, 9), 2, 9).semigroup == sgp(9, 10, 14)

    def test_d_one_returns_s(self):
        S = sgp(5, 7, 9)
        for x in (5, 9, 14):
            assert construct_ed1(MultipleContext(S, 1), x).semigroup == S

    def test_derived_example(self):
        assert build((3, 4), 5, 6).semigroup == sgp(6, 15, 20)

    def test_rejects_bad_x(self):
        ctx = MultipleContext(sgp(5, 7, 9), 2)
        with pytest.raises(NotMember, match=r"^8 is not a nonzero member of ⟨5,7,9⟩$"):
            construct_ed1(ctx, 8)
        with pytest.raises(NotCoprime):
            construct_ed1(ctx, 10)

    def test_min_recovery(self):
        """x = min(T ∖ d·S) for every constructed instance with d ≥ 2."""
        for gens, d, x in [((5, 7, 9), 2, 9), ((3, 4), 5, 6), ((2, 3), 3, 2)]:
            m = build(gens, d, x)
            ctx = m.context
            smallest = next(
                v
                for v in m.semigroup.members_up_to(ctx.scaled_frobenius + x + 1)
                if v > 0 and not ctx.in_scaled_semigroup(v)
            )
            assert smallest == x


class TestClosedForms:
    def test_frobenius_examples(self):
        assert ed1_frobenius(build((5, 7, 9), 2, 9)) == 35
        assert ed1_frobenius(build((3, 4), 5, 6)) == 49
        S = sgp(5, 7, 9)
        assert ed1_frobenius(construct_ed1(MultipleContext(S, 1), 7)) == S.frobenius

    def test_genus_examples(self):
        assert ed1_genus(build((5, 7, 9), 2, 9)) == 20
        assert ed1_genus(build((3, 4), 5, 6)) == 25

    def test_pf_examples(self):
        assert ed1_pseudo_frobenius(build((5, 7, 9), 2, 9)) == (31, 35)
        assert ed1_pseudo_frobenius(build((3, 4), 5, 6)) == (49,)
        S = sgp(5, 7, 9)
        assert ed1_pseudo_frobenius(
            construct_ed1(MultipleContext(S, 1), 5)
        ) == pseudo_frobenius(S)

    def test_pf_refused_for_whole_n(self):
        m = construct_ed1(MultipleContext(WHOLE_N, 2), 1)
        with pytest.raises(WholeN, match="^PF is undefined for the whole of ℕ$"):
            ed1_pseudo_frobenius(m)

    def test_sweep_small(self, small_semigroups):
        """Formulas equal materialized invariants; type and symmetry carry
        over; the construction is never maximal for d ≥ 2 (so θ exists)."""
        for S in small_semigroups:
            if S.frobenius > 8:
                continue
            for d in range(1, 4):
                ctx = MultipleContext(S, d)
                for x in range(1, 2 * S.frobenius + 4):
                    if not (S.contains(x) and gcd(x, d) == 1):
                        continue
                    m = construct_ed1(ctx, x)
                    T = m.semigroup
                    assert ed1_frobenius(m) == T.frobenius
                    assert ed1_genus(m) == T.genus
                    assert ed1_pseudo_frobenius(m) == pseudo_frobenius(T)
                    assert semigroup_type(T) == semigroup_type(S)
                    assert is_symmetric(T) == is_symmetric(S)
                    if d >= 2:
                        assert theta(ctx, T) is not None


class TestThetaClosure:
    def test_cross_check_with_adjoin(self):
        for gens, d, x in [((5, 7, 9), 2, 9), ((3, 4), 5, 6), ((2, 3), 2, 3)]:
            m = build(gens, d, x)
            closure = ed1_theta_closure(m)
            step = theta(m.context, m.semigroup)
            assert step == ed1_frobenius(m)
            assert closure == adjoin(m.semigroup, step)

    def test_d_one_rejected(self):
        with pytest.raises(DIsOne):
            ed1_theta_closure(build((5, 7, 9), 1, 7))

    def test_example_23(self):
        assert ed1_theta_closure(build((2, 3), 2, 3)) == sgp(3, 4, 5)


class TestGluing:
    def test_example_generator_not_gluing(self):
        assert not is_gluing_of_n_and_s(build((5, 7, 9), 2, 9))

    def test_non_generator_is_gluing(self):
        m = build((5, 7, 9), 2, 35)  # 35 = 5·7 ∈ S ∖ msg(S), odd
        assert is_gluing_of_n_and_s(m)

    def test_d_one_never_gluing(self):
        assert not is_gluing_of_n_and_s(build((5, 7, 9), 1, 12))


class TestSymmetryTransfer:
    def test_examples(self):
        assert ed1_symmetry_transfer(build((2, 3), 3, 2)) == (True, True)
        assert ed1_symmetry_transfer(build((3, 5, 7), 2, 3)) == (False, False)
        m = build((5, 7, 9), 1, 5)
        assert ed1_symmetry_transfer(m) == (False, False)
