"""Closed forms for the d-multiples of S generated by a single extra element.

These are the semigroups T = ⟨x⟩ + d·S with x ∈ S and gcd(x, d) = 1; x is
recovered as min(T ∖ d·S).  Frobenius number, genus, pseudo-Frobenius set
and type of T all have closed forms in terms of S and x, each cross-checked
against the materialized semigroup; a mismatch is a bug and raises
:class:`~numsgps.errors.InternalInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import (
    NumericalSemigroup,
    checked,
    from_generators,
    is_symmetric,
    pseudo_frobenius,
)
from .errors import DIsOne, InternalInvariantError, NotCoprime, NotMember, WholeN
from .multiples import MultipleContext


@dataclass(frozen=True)
class Ed1Multiple:
    """T = ⟨x⟩ + d·S with x = min(T ∖ d·S) whenever d ≥ 2."""

    context: MultipleContext
    x: int
    semigroup: NumericalSemigroup


def construct_ed1(ctx: MultipleContext, x: int) -> Ed1Multiple:
    """Build ⟨x⟩ + d·S for x ∈ S with gcd(x, d) = 1."""
    if x < 1 or not ctx.semigroup.contains(x):
        raise NotMember(f"{x} is not a nonzero member of {ctx.semigroup}")
    if gcd(x, ctx.d) != 1:
        raise NotCoprime(f"gcd({x}, {ctx.d}) != 1")
    T = from_generators([x] + [ctx.d * a for a in ctx.semigroup.msg])
    return Ed1Multiple(ctx, x, T)


def _cross_check(what: str, closed_form, materialized, m: Ed1Multiple):
    if closed_form != materialized:
        raise InternalInvariantError(
            f"closed-form {what} = {closed_form} but {what}({m.semigroup}) = {materialized}"
        )


def ed1_frobenius(m: Ed1Multiple) -> int:
    """F(T) = (d-1)·x + d·F(S)."""
    d, x = m.context.d, m.x
    value = checked((d - 1) * x + m.context.scaled_frobenius)
    _cross_check("F", value, m.semigroup.frobenius, m)
    return value


def ed1_genus(m: Ed1Multiple) -> int:
    """g(T) = (d-1)(x-1)/2 + d·g(S); coprimality makes the product even."""
    d, x = m.context.d, m.x
    if (d - 1) * (x - 1) % 2 != 0:
        raise InternalInvariantError(f"(d-1)(x-1) odd for d={d}, x={x}")
    value = checked((d - 1) * (x - 1) // 2 + d * m.context.semigroup.genus)
    _cross_check("g", value, m.semigroup.genus, m)
    return value


def ed1_pseudo_frobenius(m: Ed1Multiple) -> tuple[int, ...]:
    """PF(T) = {d·f + (d-1)·x | f ∈ PF(S)}; in particular types agree."""
    d, x = m.context.d, m.x
    value = tuple(sorted(d * f + (d - 1) * x for f in pseudo_frobenius(m.context.semigroup)))
    _cross_check("PF", value, pseudo_frobenius(m.semigroup), m)
    return value


def ed1_theta_closure(m: Ed1Multiple) -> NumericalSemigroup:
    """T ∪ {θ(T)} = ⟨x, (d-1)·x + d·F(S)⟩ + d·S, for d ≥ 2."""
    if m.context.d == 1:
        raise DIsOne("the θ-closure needs d ≥ 2")
    if m.context.semigroup.is_whole_n:
        raise WholeN("θ is undefined on a maximal multiple of ℕ")
    d, x = m.context.d, m.x
    extra = (d - 1) * x + m.context.scaled_frobenius
    return from_generators([x, extra] + [d * a for a in m.context.semigroup.msg])


def is_gluing_of_n_and_s(m: Ed1Multiple) -> bool:
    """True iff T is a gluing of ℕ and S: d ≥ 2 and x ∈ S ∖ msg(S)."""
    return m.context.d >= 2 and m.x not in m.context.semigroup.msg


def ed1_symmetry_transfer(m: Ed1Multiple) -> tuple[bool, bool]:
    """(S symmetric, T symmetric); always equal."""
    if m.context.semigroup.is_whole_n:
        raise WholeN("symmetry is undefined for the whole of ℕ")
    s_sym = is_symmetric(m.context.semigroup)
    t_sym = is_symmetric(m.semigroup)
    if s_sym != t_sym:
        raise InternalInvariantError(f"symmetry transfer violated for {m.semigroup}")
    return s_sym, t_sym
