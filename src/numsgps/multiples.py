"""Quotients T/d, the d-multiple membership test, and the finite set of
inclusion-maximal d-multiples of a fixed semigroup S.

T is a d-multiple of S when T/d = {x | d·x ∈ T} equals S, equivalently when
the gap sandwich d·(ℕ∖S) ⊆ ℕ∖T ⊆ ℕ∖d·S holds.  The maximal d-multiples all
share the Frobenius number N = d·F(S), so each one is fixed by its closed
member mask M within [0, N]: M holds d·S ∩ [0, N], misses d·gaps(S), and
its other members are free positions p < N with d ∤ p.  A subset of free
positions whose closure with d·S misses d·gaps(S) stays one when shrunk,
so the maximal d-multiples are the maximal sets of an independence system
(Lawler, Lenstra & Rinnooy Kan, SIAM J. Comput. 9, 1980).  They are found
by a depth-first search over the free positions in ascending order that
includes or excludes each one, on bitmasks alone.  It excludes a position
only while a later one that could still block it is open, so it takes
about one path per maximal, and it builds a semigroup only for the leaves
it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    CLOSURE_CEILING,
    NumericalSemigroup,
    _bits,
    _closure,
    _from_gap_tuple,
    checked,
    is_irreducible,
    pseudo_frobenius,
)
from .errors import (
    CeilingExceeded,
    InternalInvariantError,
    InvalidInput,
    NotAMultiple,
    WholeN,
)


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
    def scaled_gap_mask(self) -> int:
        """Bitmask of d·gaps(S), refused with :class:`CeilingExceeded` when
        d·F(S) passes :data:`~numsgps.core.CLOSURE_CEILING`.  Everything that
        loops or closes up to d·F(S) reads it first.  It is the gap mask of
        S with d − 1 zero digits put between its binary digits; for S = ℕ,
        where d·F(S) = −d bounds no d, it is 0 without that separator."""
        if self.scaled_frobenius > CLOSURE_CEILING:
            raise CeilingExceeded(f"d·F(S) = {self.scaled_frobenius} passes {CLOSURE_CEILING}")
        if self.semigroup.is_whole_n:
            return 0
        return int(("0" * (self.d - 1)).join(bin(self.semigroup.gap_mask)[2:]), 2)

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


def _require_multiple(ctx: MultipleContext, T: NumericalSemigroup) -> None:
    """Refuse T with :class:`NotAMultiple` unless it is a d-multiple of S."""
    if not is_d_multiple(ctx, T):
        raise NotAMultiple(f"{T} is not a {ctx.d}-multiple of {ctx.semigroup}")


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


def _gap_masks(ctx: MultipleContext, node_cap: int | None):
    """Gap masks of the maximal d-multiples, by a depth-first search over
    the d-multiples with Frobenius number N = d·F(S).

    A gap mask is the complement in [0, N] of a closed member mask M.  With
    B = d·gaps(S), a closed M admits a free position p (p < N, d ∤ p) iff
    no kp + u with k ≥ 1 and u ∈ M lies in B, that is iff M misses W_p =
    ⋃ₖ (B >> kp); then M ∪ {p} closes to ⋃ₖ (M << kp).  The search starts
    from d·S ∩ [0, N] and decides the free positions in ascending order: a
    closure adds only sums above p, so a position it leaves out never comes
    back.  The path being walked includes each admitted p, a pushed branch
    excludes it, and each set of decisions gives its own M, so no mask is
    met twice.  Two rules keep a path only where it can end in a maximal:

    - Push test: the exclude branch of an admitted p is pushed only while
      some free q > p in W_p ∖ M is still admitted, that is M misses W_q.
      A final M_f that blocks p meets W_p in some q; q > p, as M_f and M
      agree below p and M misses W_p, and q is free and outside M.  M_f is
      closed and misses B, so it misses W_q, and so does the smaller M.
    - Leaf test: a leaf is maximal iff M blocks every position it
      excluded, that is M meets its W_p; only those leaves are yielded.

    Each stack entry popped is one search path; past ``node_cap`` of them
    the search raises :class:`CeilingExceeded`.
    """
    d, N, B = ctx.d, ctx.scaled_frobenius, ctx.scaled_gap_mask
    steps = ((1 << d * (N // d + 1)) - 1) // ((1 << d) - 1)  # 0, d, …, N
    free = (1 << N) - 1 & ~steps
    positions = _bits(free)
    blockers = [0] * N  # W_p at each free position p
    for p in positions:
        # W_p by doubling: B >> kp for k = 1 … 2^j after j steps, and a
        # shift past N adds nothing, as B lies in [0, N].
        W, step = B >> p, p
        while step < N:
            W |= W >> step
            step *= 2
        blockers[p] = W
    paths_left = -1 if node_cap is None else node_cap  # never 0 when uncapped
    stack = [(0, steps & ~B, ())]  # (next index, M, excluded positions)
    while stack:
        if not paths_left:
            raise CeilingExceeded(
                f"more than {node_cap} search paths for the maximal {d}-multiples"
                f" of {ctx.semigroup}"
            )
        paths_left -= 1
        i, M, excluded = stack.pop()
        for i in range(i, len(positions)):
            p = positions[i]
            if M >> p & 1 or M & blockers[p]:
                continue
            rest = blockers[p] & free & ~M & -2 << p
            while rest:  # from the top, where W_q is smallest
                q = rest.bit_length() - 1
                if not M & blockers[q]:
                    stack.append((i + 1, M, (*excluded, p)))
                    break
                rest ^= 1 << q
            M = _closure((p,), N, M)
        if all(M & blockers[p] for p in excluded):
            yield (2 << N) - 1 & ~M


def max_multiples(ctx: MultipleContext, node_cap: int | None = None) -> MaxMultiplesResult:
    """The complete set of inclusion-maximal d-multiples of S, by the
    search of :func:`_gap_masks`, which excludes a position only while it
    can still be blocked and builds a semigroup only for the leaves it
    keeps.  For d = 1 there is no free position, and it yields S alone.
    Each kept gap mask becomes its gap tuple once; the maximals are sorted
    by (genus, gap tuple) on those tuples and built from them.

    ``node_cap`` caps the search's paths: past it, as for a d·F(S) past the
    closure ceiling whatever the cap, :class:`CeilingExceeded` is raised.
    Every search takes a path, so cap 0 raises for every d.  The search
    takes about one path per maximal (exactly one on every S of genus ≤ 6
    with d ∈ {2, 3}); each path ends in its own d-multiple with Frobenius
    number d·F(S), so a cap of their number never raises.  A negative
    ``node_cap`` is refused with :class:`InvalidInput`.
    """
    if node_cap is not None and node_cap < 0:
        raise InvalidInput(f"--max-nodes must be a non-negative integer, got {node_cap}")
    if ctx.semigroup.is_whole_n:
        raise WholeN("maximal multiples are undefined for the whole of ℕ")
    gap_sets = sorted(map(_bits, _gap_masks(ctx, node_cap)), key=lambda g: (len(g), g))
    return MaxMultiplesResult(tuple(map(_from_gap_tuple, gap_sets)))


def irreducibility_transfer(ctx: MultipleContext) -> tuple[bool, bool]:
    """(S irreducible, every maximal d-multiple irreducible); always equal."""
    s_irr = is_irreducible(ctx.semigroup)
    all_irr = all(is_irreducible(T) for T in max_multiples(ctx).maximals)
    if s_irr != all_irr:
        raise InternalInvariantError(
            f"irreducibility transfer violated for {ctx}: {s_irr} vs {all_irr}"
        )
    return s_irr, all_irr
