"""Brute-force enumerators and checkers, slow by design and independent of
the production algorithms; every other module's property tests lean on them.

The workhorse is a depth-first descent over gap subsets of [1, limit]: each
position is decided member-or-gap in increasing order while an integer
bitmask ``gen`` tracks every pairwise sum of nonzero members, so a position
may become a gap only when no two members add up to it.  Censuses, bounded
multiple enumeration and over-semigroup listings are all instances of that
descent with different forced/allowed position sets.

Each leaf also reads its minimal generators off ``gen``, which keeps every
sum up to 2·limit.  A nonzero member n is a minimal generator iff no two
nonzero members add up to n.  Every generator is at most F + m ≤ limit + m,
with m the multiplicity, and every n in (limit, limit + m] is a member whose
splits use two members ≤ n − m ≤ limit.  So every split of a candidate is
already a bit of ``gen``, and msg is the bits of the members in
[1, limit] ∪ (limit, limit + m] outside ``gen``.  These listings never call
the production minimal-generator kernel of :mod:`numsgps.core`; the genus
tree, :func:`semigroups_by_genus`, still builds through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .core import NumericalSemigroup, WHOLE_N, _bits, _from_gap_mask, _from_gap_tuple, from_gaps
from .errors import CeilingExceeded, InternalInvariantError, InvalidInput, NotClosed
from .multiples import MultipleContext, quotient

@dataclass(frozen=True)
class EnumerationBudget:
    """Hard, finite, non-negative limits for brute-force enumeration; a
    refusal names the ``oracle multiples-bounded`` flag of the limit."""

    max_frobenius: int
    max_genus: int
    hard_node_limit: int

    def __post_init__(self):
        for name, flag in (
            ("max_frobenius", "--max-frobenius"),
            ("max_genus", "--max-genus"),
            ("hard_node_limit", "--limit"),
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInput(f"{name} must be a finite integer, got {v!r}")
            if v < 0:
                raise InvalidInput(f"{flag} must be a non-negative integer, got {v}")


def _closed_gap_sets(
    limit: int,
    allowed_mask: int,
    forced_mask: int,
    node_limit: int | None = None,
) -> list[tuple[int, int]]:
    """The (gap mask, msg mask) pairs of all gap sets G with forced ⊆ G ⊆
    forced ∪ allowed ⊆ [1, limit] whose complement in ℕ is additively
    closed.

    Positions outside allowed ∪ forced are members.  ``gen`` holds every sum
    of two nonzero members decided so far, up to 2·limit, so a gap is legal
    exactly while its gen bit is clear, and a member is refused as soon as
    it would force a sum onto a forced gap.  A finished descent has decided
    every position, so its gap mask G is ``full & ~members``.  Its
    multiplicity m is the lowest clear bit of G above 0, limit + 1 when
    every position is a gap (at limit = 0, S = ℕ and m = 1).  Its msg mask
    is the nonzero members up to limit, with the band (limit, limit + m],
    minus ``gen``: the module docstring shows that every split of those
    candidates is a bit of ``gen``.
    """
    full = (1 << (limit + 1)) - 1
    gapable = allowed_mask | forced_mask
    out: list[tuple[int, int]] = []
    # Depth-first on an explicit stack of (pos, members, gen), so depth is
    # not bounded by the recursion limit; the gap branch is pushed first so
    # the member branch is explored first.
    stack = [(1, 1, 0)]
    while stack:
        if node_limit is not None and len(out) > node_limit:
            break
        pos, members, gen = stack.pop()
        if pos > limit:
            gaps = full ^ members
            low = (gaps + 2) & ~gaps  # the multiplicity's bit
            band = (low - 1) << (limit + 1)  # (limit, limit + m]
            out.append((gaps, ((members & ~1) | band) & ~gen))
            continue
        bit = 1 << pos
        if (gapable & bit) and not (gen & bit):
            stack.append((pos + 1, members, gen))
        if not (forced_mask & bit):
            new_gen = gen | (((members & ~1) | bit) << pos)
            if not (new_gen & forced_mask):
                stack.append((pos + 1, members | bit, new_gen))
    return out


_SWAP_01 = str.maketrans("01", "10")


def _canonical(pairs) -> tuple[NumericalSemigroup, ...]:
    """The semigroups with the given (gap mask, msg mask) pairs, sorted by
    (genus, gaps) under the key (genus, bin(mask) reversed with 0 and 1
    swapped), whose string reads 0 at each gap, lowest position first.

    For two gap sets A ≠ B of equal genus, let b be the lowest bit of
    A ^ B.  Both share every gap below b, and the one holding b has b as
    its next gap where the other has a larger one (it has one, the genus
    being equal), so A's gap tuple sorts first iff b ∈ A.  The key strings
    first differ at b, where the gap set holding b reads 0, so they sort
    the same way.  Neither string is a proper prefix of the other: that
    would put all of A's gaps among B's with more above, a larger genus.
    """
    ordered = sorted(pairs, key=lambda p: (p[0].bit_count(), bin(p[0])[:1:-1].translate(_SWAP_01)))
    return tuple(NumericalSemigroup(gaps, _bits(msg)) for gaps, msg in ordered)


def all_with_frobenius(f: int) -> tuple[NumericalSemigroup, ...]:
    """Every numerical semigroup with Frobenius number exactly f.

    Descent over gap subsets of [1, f] containing f.
    """
    if f < 1:
        raise InvalidInput(f"the Frobenius number must be positive, got {f}")
    sets = _closed_gap_sets(f, (1 << f) - 2, 1 << f)
    return _canonical(sets)


def all_with_frobenius_genus_tree(f: int) -> tuple[NumericalSemigroup, ...]:
    """Second, independent census: the genus tree of
    :func:`semigroups_by_genus` to genus f, filtered by F(S) = f.  It holds
    every such S, as g(S) ≤ F(S), and in the same (genus, gaps) order."""
    if f < 1:
        raise InvalidInput(f"the Frobenius number must be positive, got {f}")
    return tuple(S for S in semigroups_by_genus(f) if S.frobenius == f)


def semigroups_by_genus(max_genus: int) -> tuple[NumericalSemigroup, ...]:
    """All numerical semigroups with genus ≤ max_genus (ℕ included), in
    (genus, gaps) order, each built once for both the next level and the
    listing.  Level g of the genus tree holds genus g and comes out sorted
    by gaps: a child's gaps are its parent's with x > F appended, parents
    come in order and each one's x ascend with its msg."""
    out = level = [WHOLE_N]
    for _ in range(max_genus):
        level = [
            _from_gap_mask(S.gap_mask | 1 << x) for S in level for x in S.msg if x > S.frobenius
        ]
        out.extend(level)
    return tuple(out)


def all_multiples_bounded(
    ctx: MultipleContext, budget: EnumerationBudget
) -> tuple[NumericalSemigroup, ...]:
    """Every d-multiple T of S with F(T) ≤ budget.max_frobenius and
    genus ≤ budget.max_genus, straight from the gap sandwich.

    Scaled gaps are forced gaps, scaled members are forced members, and the
    remaining positions up to max_frobenius are free.
    """
    fmax = budget.max_frobenius
    forced = 0
    for h in (ctx.d * g for g in ctx.semigroup.gaps):
        if h > fmax:
            return ()
        forced |= 1 << h
    allowed = 0
    for n in range(1, fmax + 1):
        if not (forced >> n & 1) and not ctx.in_scaled_semigroup(n):
            allowed |= 1 << n
    sets = _closed_gap_sets(fmax, allowed, forced, node_limit=budget.hard_node_limit)
    if len(sets) > budget.hard_node_limit:
        raise CeilingExceeded(
            f"more than {budget.hard_node_limit} multiples below F={fmax}"
        )
    return _canonical(p for p in sets if p[0].bit_count() <= budget.max_genus)


def oversemigroups(S: NumericalSemigroup) -> tuple[NumericalSemigroup, ...]:
    """All numerical semigroups containing S (finitely many; S and ℕ included)."""
    return _canonical(_closed_gap_sets(max(S.frobenius, 0), S.gap_mask, 0))


def is_irreducible_bruteforce(S: NumericalSemigroup) -> bool:
    """Irreducibility from the definition: no two strictly larger semigroups
    intersect to S (their gap sets would union to gaps(S))."""
    target = frozenset(S.gaps)
    strict = [frozenset(T.gaps) for T in oversemigroups(S) if T != S]
    return not any(
        g1 | g2 == target for g1, g2 in combinations_with_replacement(strict, 2)
    )


def theta_bruteforce(ctx: MultipleContext, T: NumericalSemigroup) -> int | None:
    """θ from the definition: the largest gap x of T with T ∪ {x} an
    additively closed d-multiple of S, else None."""
    for x in sorted(T.gaps, reverse=True):
        remaining = tuple(h for h in T.gaps if h != x)
        try:
            candidate = from_gaps(remaining)
        except NotClosed:
            continue
        if quotient(candidate, ctx.d) == ctx.semigroup:
            return x
    return None


def children_bruteforce(
    ctx: MultipleContext, T: NumericalSemigroup
) -> tuple[tuple[int, NumericalSemigroup], ...]:
    """Fiber-tree children from the definitions only: all T ∖ {x} that are
    d-multiples whose brute-force θ equals x."""
    out = []
    for x in T.msg:
        child = _from_gap_tuple(T.gaps + (x,))
        if quotient(child, ctx.d) != ctx.semigroup:
            continue
        if theta_bruteforce(ctx, child) == x:
            out.append((x, child))
    return tuple(out)


def _monoid_members_up_to(ctx: MultipleContext, extra_gens, bound: int) -> frozenset[int]:
    """Members of ⟨extra_gens⟩ + d·S within [0, bound]."""
    gens = sorted(set(extra_gens) | {ctx.d * a for a in ctx.semigroup.msg})
    gens = [a for a in gens if a <= bound]
    reach = bytearray(bound + 1)
    reach[0] = 1
    for n in range(1, bound + 1):
        if any(a <= n and reach[n - a] for a in gens):
            reach[n] = 1
    return frozenset(n for n in range(bound + 1) if reach[n])


def brute_minimal_md_system(ctx: MultipleContext, elements) -> tuple[int, ...]:
    """Lexicographically least, minimum-cardinality X with ⟨X⟩ + d·S equal to
    the monoid whose members up to their maximum are ``elements``.

    Any generating X must contain every atom of the monoid outside d·S (an
    atom is no sum of two nonzero members, so it can only enter as a bare
    generator).  That core is the whole answer or there is none: every
    listed element is a sum of atoms, each in the core or in d·S, so
    ⟨core⟩ + d·S holds the whole list, and a larger X only adds members.
    """
    elems = sorted(set(elements))
    if not elems or elems[0] != 0:
        raise InvalidInput("element list must contain 0")
    eset = frozenset(elems)
    bound = elems[-1]
    nonzero = [m for m in elems if m > 0]
    atoms = [
        m
        for m in nonzero
        if not any(a <= m // 2 and (m - a) in eset for a in nonzero)
    ]
    base = [a for a in atoms if not ctx.in_scaled_semigroup(a)]
    if _monoid_members_up_to(ctx, base, bound) != eset:
        raise InvalidInput("element list is not a monoid of the form ⟨X⟩ + d·S")
    for a in base:
        rest = [b for b in base if b != a]
        if _monoid_members_up_to(ctx, rest, bound) == eset:
            raise InternalInvariantError(f"atom {a} is redundant in {base}")
    return tuple(base)
