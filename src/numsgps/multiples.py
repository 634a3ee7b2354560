"""Quotients T/d, the d-multiple membership test, and the finite set of
inclusion-maximal d-multiples of a fixed semigroup S.

T is a d-multiple of S when T/d = {x | d·x ∈ T} equals S, equivalently when
the gap sandwich d·(ℕ∖S) ⊆ ℕ∖T ⊆ ℕ∖d·S holds.  The maximal d-multiples all
share the Frobenius number d·F(S) and are found by a depth-first search
that adjoins single gaps, in decreasing order only, to the ground multiple
d·S ∪ {n | n > d·F(S)}.  Every d-multiple with that Frobenius number is the
ground multiple plus a set E, and adjoining E from its largest element down
is its one path in the search, so no multiple is built twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    CLOSURE_CEILING,
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
    def scaled_gap_mask(self) -> int:
        """Bitmask of d·gaps(S), refused with :class:`CeilingExceeded` when
        d·F(S) passes :data:`~numsgps.core.CLOSURE_CEILING`.  Everything that
        loops or closes up to d·F(S) reads it first."""
        if self.scaled_frobenius > CLOSURE_CEILING:
            raise CeilingExceeded(f"d·F(S) = {self.scaled_frobenius} passes {CLOSURE_CEILING}")
        mask = 0
        for h in self.scaled_gaps:
            mask |= 1 << h
        return mask

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

    The sandwich d·gaps(S) ⊆ gaps(T) ⊆ ℕ ∖ d·S says, since dℕ is the
    disjoint union of d·S and d·gaps(S), exactly that gaps(T) ∩ dℕ =
    d·gaps(S).  With R the mask of 0, d, 2d, … up to F(T), that is
    G & R == d·gaps(S) as bitmasks; R = (2^{dk} − 1) / (2^d − 1).  The two
    early answers keep every mask within about 2·F(T) bits, however large
    d is.
    """
    d, F = ctx.d, T.frobenius
    if F < d:  # no gap of T is a positive multiple of d
        return ctx.semigroup.is_whole_n
    if F < ctx.scaled_frobenius:  # d·F(S) must be a gap of T
        return False
    k = F // d + 1
    R = ((1 << d * k) - 1) // ((1 << d) - 1)
    return T.gap_mask & R == ctx.scaled_gap_mask


def addable_gaps(ctx: MultipleContext, T: NumericalSemigroup) -> tuple[int, ...]:
    """Gaps z of T with T ∪ {z} still a d-multiple of S.

    These are the pseudo-Frobenius numbers z with 2z ∈ T and z outside
    d·gaps(S); the set is empty exactly when T is a maximal d-multiple.
    """
    if T.is_whole_n:
        return ()
    G, scaled = T.gap_mask, ctx.scaled_gap_mask
    return tuple(
        z for z in pseudo_frobenius(T) if not (G >> 2 * z & 1 or scaled >> z & 1)
    )


def _ground_multiple(ctx: MultipleContext) -> NumericalSemigroup:
    """d·S ∪ {n | n > d·F(S)}, the least d-multiple with Frobenius d·F(S)."""
    d, scaled = ctx.d, ctx.scaled_gap_mask
    return _from_gap_tuple(
        n for n in range(1, ctx.scaled_frobenius + 1) if n % d or scaled >> n & 1
    )


def max_multiples(ctx: MultipleContext, node_cap: int | None = None) -> MaxMultiplesResult:
    """The complete set of inclusion-maximal d-multiples of S.

    Depth-first search from the ground multiple that adjoins addable gaps in
    decreasing order only: a multiple reached by adjoining z adjoins only
    gaps below z.  A d-multiple T with F(T) = d·F(S) is the ground multiple
    plus a set E, and adjoining E from its largest element down is the one
    such path to T, so each T is built once and no ``seen`` set is needed.
    The maximals, those with no addable gap, are sorted by (genus, gap tuple).

    The search visits every d-multiple with Frobenius number d·F(S), which
    can be enormous; callers that only need a best-effort answer may pass
    ``node_cap`` and catch :class:`CeilingExceeded`.  A negative
    ``node_cap`` is refused with :class:`InvalidInput`.
    """
    if node_cap is not None and node_cap < 0:
        raise InvalidInput(f"--max-nodes must be a non-negative integer, got {node_cap}")
    S = ctx.semigroup
    if S.is_whole_n:
        raise WholeN("maximal multiples are undefined for the whole of ℕ")
    if ctx.d == 1:
        return MaxMultiplesResult(ctx, (S,))
    stack = [(_ground_multiple(ctx), ctx.scaled_frobenius)]
    visited = 0
    maximals: list[NumericalSemigroup] = []
    while stack:
        T, below = stack.pop()
        visited += 1
        if node_cap is not None and visited > node_cap:
            raise CeilingExceeded(
                f"more than {node_cap} multiples with Frobenius {ctx.scaled_frobenius}"
            )
        addable = addable_gaps(ctx, T)
        if not addable:
            maximals.append(T)
        stack.extend((_adjoined(T, z), z) for z in addable if z < below)
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
