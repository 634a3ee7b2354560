"""Submonoids cut out by d-multiples of S: the sets X they contain, the
monoids ⟨X⟩ + d·S they intersect to, and minimal generating data.

A set X extends to some d-multiple of S iff ⟨X⟩ avoids every point of
d·gaps(S); one bitset closure :func:`~numsgps.core._closure` of X up to
d·F(S), masked by d·gaps(S), decides every point at once.  The monoid
M = ⟨X⟩ + d·S is a numerical semigroup iff gcd(X ∪ {d}) = 1; otherwise
M = g·M' for the reduced semigroup M' obtained by dividing out g = gcd,
which gives exact membership everywhere without any element list.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .core import NumericalSemigroup, _closure, from_generators
from .errors import InternalInvariantError, InvalidInput, NotMdSet
from .multiples import MultipleContext, _require_multiple


def _normalized_naturals(xs: Iterable[int]) -> tuple[int, ...]:
    out = sorted(set(xs))
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in out):
        raise InvalidInput(f"expected a set of naturals, got {out}")
    return tuple(v for v in out if v > 0)


def _generates(gens: tuple[int, ...], target: int) -> bool:
    """target ∈ ⟨gens⟩, as a bit test on the closure of gens up to target.

    Unused by the library; perfbench/tracer.py still traces it by name.
    """
    return bool(_closure(gens, target) >> target & 1)


def is_md_set(ctx: MultipleContext, xs: Iterable[int]) -> bool:
    """True iff X is contained in some d-multiple of S.

    Equivalent to ⟨X⟩ ∩ d·gaps(S) = ∅.  ⟨∅⟩ = {0} meets no gap, and S = ℕ
    has none, so both qualify without a closure (d·F(S) may pass the
    ceiling, and d·F(ℕ) = −d bounds none).
    """
    gens = _normalized_naturals(xs)
    if not gens or ctx.semigroup.is_whole_n:
        return True
    scaled = ctx.scaled_gap_mask  # refuses a d·F(S) past the ceiling before the closure
    return not _closure(gens, ctx.scaled_frobenius) & scaled


@dataclass(frozen=True)
class MdMonoid:
    """The monoid M = ⟨X⟩ + d·S and its minimal system.

    ``scale`` is the gcd of all generators and ``reduced`` the numerical
    semigroup with M = scale·reduced; the pair gives O(1) membership.
    """

    x_set: tuple[int, ...]
    minimal_system: tuple[int, ...]
    scale: int
    reduced: NumericalSemigroup

    @property
    def is_semigroup(self) -> bool:
        return self.scale == 1

    def contains(self, x: int) -> bool:
        return x >= 0 and x % self.scale == 0 and self.reduced.contains(x // self.scale)

    def to_semigroup(self) -> NumericalSemigroup:
        if not self.is_semigroup:
            raise InvalidInput(f"gcd {self.scale} > 1: not a numerical semigroup")
        return self.reduced

    @property
    def md_embedding_dimension(self) -> int:
        return len(self.minimal_system)


def build_monoid(ctx: MultipleContext, xs: Iterable[int]) -> MdMonoid:
    """The smallest monoid of the form ⟨X⟩ + d·S containing X.

    Raises :class:`NotMdSet` when X meets no d-multiple of S at all.  The
    minimal system of the result is msg(M) minus the scaled generators of S.
    """
    x_tuple = _normalized_naturals(xs)
    if not is_md_set(ctx, x_tuple):
        x_text = ",".join(map(str, x_tuple)) or "∅"
        raise NotMdSet(f"⟨{x_text}⟩ meets {ctx.d}·gaps({ctx.semigroup})")
    S, d = ctx.semigroup, ctx.d
    gens = sorted(set(x_tuple) | {d * a for a in S.msg})
    scale = gcd(*gens)
    reduced = from_generators([v // scale for v in gens])
    msg_m = tuple(scale * a for a in reduced.msg)
    scaled_msg = {d * a for a in S.msg}
    minimal_system = tuple(a for a in msg_m if a not in scaled_msg)
    return MdMonoid(x_tuple, minimal_system, scale, reduced)


def decompose_multiple(ctx: MultipleContext, T: NumericalSemigroup) -> tuple[int, ...]:
    """The minimal X ⊆ S with T = ⟨X⟩ + d·S, for a d-multiple T."""
    _require_multiple(ctx, T)
    scaled_msg = {ctx.d * a for a in ctx.semigroup.msg}
    xs = tuple(a for a in T.msg if a not in scaled_msg)
    regenerated = build_monoid(ctx, xs)
    if not (regenerated.is_semigroup and regenerated.reduced == T):
        raise InternalInvariantError(f"⟨{xs}⟩ + {ctx.d}·{ctx.semigroup} does not regenerate {T}")
    return xs
