"""Quotients T/d, the d-multiple membership test, and the finite set of
inclusion-maximal d-multiples of a fixed semigroup S.

T is a d-multiple of S when T/d = {x | d·x ∈ T} equals S, equivalently when
the gap sandwich d·(ℕ∖S) ⊆ ℕ∖T ⊆ ℕ∖d·S holds.  The maximal d-multiples all
share the Frobenius number d·F(S) and are found by a breadth-first closure
over single-gap adjunctions starting from the ground multiple
d·S ∪ {n | n > d·F(S)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    NumericalSemigroup,
    _adjoined,
    _from_gap_tuple,
    checked,
    is_irreducible,
    pseudo_frobenius,
)
from .errors import CeilingExceeded, InternalInvariantError, InvalidInput, WholeN


@dataclass(frozen=True)
class MultipleContext:
    """A pair (S, d) with the scaled data every d-multiple predicate needs."""

    semigroup: NumericalSemigroup
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInput(f"d must be a positive integer, got {self.d}")
        checked(self.d * max(self.semigroup.frobenius, 1))

    @cached_property
    def scaled_gaps(self) -> tuple[int, ...]:
        return tuple(self.d * h for h in self.semigroup.gaps)

    @cached_property
    def scaled_gap_set(self) -> frozenset[int]:
        return frozenset(self.scaled_gaps)

    @property
    def scaled_frobenius(self) -> int:
        return self.d * self.semigroup.frobenius

    def in_scaled_semigroup(self, x: int) -> bool:
        """Membership of x in d·S."""
        return x % self.d == 0 and self.semigroup.contains(x // self.d)

    def __str__(self) -> str:
        return f"({self.semigroup}, d={self.d})"


@dataclass(frozen=True)
class MaxMultiplesResult:
    context: MultipleContext
    maximals: tuple[NumericalSemigroup, ...]


def quotient(T: NumericalSemigroup, d: int) -> NumericalSemigroup:
    """The quotient T/d = {x ∈ ℕ | d·x ∈ T}.

    Its gaps are exactly the gaps of T divisible by d, divided by d.
    """
    if d < 1:
        raise InvalidInput(f"d must be a positive integer, got {d}")
    return _from_gap_tuple(h // d for h in T.gaps if h % d == 0)


def is_d_multiple(ctx: MultipleContext, T: NumericalSemigroup) -> bool:
    """True iff T/d = S, tested via the gap sandwich.

    Requires d·gaps(S) ⊆ gaps(T) and gaps(T) ∩ d·S = ∅.
    """
    if not ctx.scaled_gap_set <= T.gap_set:
        return False
    return not any(ctx.in_scaled_semigroup(h) for h in T.gaps)


def addable_gaps(ctx: MultipleContext, T: NumericalSemigroup) -> tuple[int, ...]:
    """Gaps z of T with T ∪ {z} still a d-multiple of S.

    These are the pseudo-Frobenius numbers z with 2z ∈ T and z outside
    d·gaps(S); the set is empty exactly when T is a maximal d-multiple.
    """
    if T.is_whole_n:
        return ()
    scaled = ctx.scaled_gap_set
    return tuple(
        z for z in pseudo_frobenius(T) if T.contains(2 * z) and z not in scaled
    )


def _ground_multiple(ctx: MultipleContext) -> NumericalSemigroup:
    """d·S ∪ {n | n > d·F(S)}, the least d-multiple with Frobenius d·F(S)."""
    gaps = [
        n for n in range(1, ctx.scaled_frobenius + 1) if not ctx.in_scaled_semigroup(n)
    ]
    return _from_gap_tuple(gaps)


def max_multiples(ctx: MultipleContext, node_cap: int | None = None) -> MaxMultiplesResult:
    """The complete set of inclusion-maximal d-multiples of S.

    Breadth-first closure: start from the ground multiple, repeatedly adjoin
    every addable gap, deduplicate by gap set, and collect the semigroups
    whose addable set is empty.  Each adjunction removes one gap, so the
    search terminates; every maximal contains the ground multiple, so none
    is missed.  The maximals are sorted by (genus, gap tuple) at the end, so
    the output does not depend on frontier order.

    The BFS visits every d-multiple with Frobenius number d·F(S), which can
    be enormous; callers that only need a best-effort answer may pass
    ``node_cap`` and catch :class:`CeilingExceeded`.
    """
    S = ctx.semigroup
    if S.is_whole_n:
        raise WholeN("maximal multiples are undefined for the whole of ℕ")
    if ctx.d == 1:
        return MaxMultiplesResult(ctx, (S,))
    start = _ground_multiple(ctx)
    seen = {start.gaps}
    frontier = [start]
    maximals: list[NumericalSemigroup] = []
    while frontier:
        if node_cap is not None and len(seen) > node_cap:
            raise CeilingExceeded(
                f"more than {node_cap} multiples with Frobenius {ctx.scaled_frobenius}"
            )
        next_frontier: list[NumericalSemigroup] = []
        for T in frontier:
            addable = addable_gaps(ctx, T)
            if not addable:
                maximals.append(T)
                continue
            for z in addable:
                child = _adjoined(T, z)
                if child.gaps not in seen:
                    seen.add(child.gaps)
                    next_frontier.append(child)
        frontier = next_frontier
    maximals.sort(key=lambda t: (t.genus, t.gaps))
    return MaxMultiplesResult(ctx, tuple(maximals))


def irreducibility_transfer(ctx: MultipleContext) -> tuple[bool, bool]:
    """(S irreducible, every maximal d-multiple irreducible); always equal."""
    if ctx.semigroup.is_whole_n:
        raise WholeN("irreducibility is undefined for the whole of ℕ")
    s_irr = is_irreducible(ctx.semigroup)
    all_irr = all(is_irreducible(T) for T in max_multiples(ctx).maximals)
    if s_irr != all_irr:
        raise InternalInvariantError(
            f"irreducibility transfer violated for {ctx}: {s_irr} vs {all_irr}"
        )
    return s_irr, all_irr
