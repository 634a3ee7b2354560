"""Exact arithmetic for a single numerical semigroup.

A numerical semigroup S is an additively closed subset of ℕ containing 0
whose complement (the *gap* set) is finite.  The canonical representation
here is the gap bitmask G (bit h set iff h is a gap) plus the derived
minimal generating set.  Every predicate is a bit operation on G:
membership is a bit test (bits above the Frobenius number are clear), the
Frobenius number is the top bit and the genus the bit count, and inclusion
is a mask-subset test.  The sorted gap tuple is built only when asked for.

Minimal generators are decided with a sum accumulator D: scanning the
nonzero members M up to F + m in ascending order, a member x is a
generator iff bit x of D is clear, and each generator x adds M << x to D.

Searches over semigroups move one element at a time, so two kernels here,
and the fiber walk, derive the new ``msg`` from the old one instead of
rebuilding it from the gaps, by three facts:

* adjoining a pseudo-Frobenius gap z with 2z ∈ T (:func:`_adjoined`):
  msg(T ∪ {z}) = {z} ∪ {a ∈ msg(T) : a < z or a − z ∉ T ∪ {z}};
* removing a minimal generator x (:func:`_removed_msg`): msg(T ∖ {x}) lies in
  (msg(T) ∖ {x}) ∪ {x + a : a ∈ msg(T)} ∪ {3x}, decided in ascending
  order with the same sum accumulator;
* removing a minimal generator x > F(T) other than m = m(T), the case of
  most fiber-tree edges: msg(T ∖ {x}) = (msg(T) ∖ {x}) ∪ {x + m unless it
  splits in T ∖ {x}}, as every other candidate splits through m.  The
  fiber walk, :func:`numsgps.fibers.enumerate_fiber`, applies this one in
  its own loop, which holds x, m and F(T); every other removal, of any x,
  is :func:`_removed_msg`'s.

Pseudo-Frobenius numbers come from shifts of G: PF = G & ~⋃ₐ (G >> a) over
a ∈ msg.  Every bounded coin problem (is n ∈ ⟨gens⟩?), from_generators
included, is one bitset closure by shifts, :func:`_closure`.

Conventions for S = ℕ: gaps = (), frobenius = -1, genus = 0.  Operations
that are undefined there (pseudo-Frobenius numbers, type, irreducibility)
raise :class:`~numsgps.errors.WholeN` instead of guessing.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count
from math import gcd
from typing import Iterable

from .errors import (
    CeilingExceeded,
    InvalidInput,
    NotAdjoinable,
    NotClosed,
    NotCoprime,
    NotMember,
    NotMinimalGenerator,
    NotNumerical,
    Overflow,
    WholeN,
)

# Values are kept inside the signed 64-bit range so results stay portable;
# Python itself would happily exceed it.
INT_LIMIT = 2**63 - 1

# from_generators refuses a semigroup whose Frobenius number plus
# multiplicity exceeds this, far above anything the tests or examples reach.
CLOSURE_CEILING = 2**20


def checked(value: int) -> int:
    if abs(value) > INT_LIMIT:
        raise Overflow(f"value {value} exceeds the supported integer width")
    return value


# bin(mask) reversed, as bytes, reads 1 at each set bit and 0 elsewhere once
# translated; itertools.compress then picks the positions, or the names, of
# the set bits.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask: int) -> bytes:
    """One byte per binary digit of a nonnegative mask, lowest first: 1
    where the bit is set, else 0.  It reads the digits in one pass (a loop
    clearing the lowest set bit would copy the mask once per set bit)."""
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of a nonnegative mask, ascending."""
    return tuple(compress(count(), _bit_flags(mask)))


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup, canonically identified by its gap bitmask.

    Bit h of ``gap_mask`` is set iff h is a gap; ``msg`` is the strictly
    increasing tuple of minimal generators.  ``gaps``, the sorted gap
    tuple, is derived from the mask on first use.  Instances are immutable
    values, safe to share, hash and compare.
    """

    gap_mask: int
    msg: tuple[int, ...]

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        return _bits(self.gap_mask)

    @property
    def frobenius(self) -> int:
        return self.gap_mask.bit_length() - 1

    @property
    def genus(self) -> int:
        return self.gap_mask.bit_count()

    @property
    def multiplicity(self) -> int:
        return self.msg[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.msg)

    @property
    def is_whole_n(self) -> bool:
        return not self.gap_mask

    def contains(self, x: int) -> bool:
        return x >= 0 and not self.gap_mask >> x & 1

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def members_up_to(self, bound: int) -> list[int]:
        """All members in [0, bound]."""
        return [x for x in range(bound + 1) if self.contains(x)]

    def __str__(self) -> str:
        return "⟨" + ",".join(map(str, self.msg)) + "⟩"

    def __le__(self, other: NumericalSemigroup) -> bool:
        """Inclusion: self ⊆ other iff gaps(other) ⊆ gaps(self)."""
        return not other.gap_mask & ~self.gap_mask

    def __lt__(self, other: NumericalSemigroup) -> bool:
        return self <= other and other.gap_mask != self.gap_mask

    def to_json_dict(self) -> dict:
        return {
            "msg": list(self.msg),
            "gaps": list(self.gaps),
            "frobenius": self.frobenius,
            "genus": self.genus,
        }


def _generators_among(gap_mask: int, candidates: int) -> tuple[int, ...]:
    """The minimal generators of the semigroup with the given gap bitmask,
    provided every one of them is a bit of ``candidates``.

    A nonzero member is a minimal generator iff it is not a smaller
    generator plus a nonzero member; no generator exceeds frobenius +
    multiplicity.  With M the nonzero members up to that bound, the lowest
    candidate member not yet in D = ⋃ ((M | 1) << a) over the generators a
    found so far is the next generator.
    """
    low = ~gap_mask & (gap_mask + 2)  # the multiplicity's bit
    bound = max(gap_mask.bit_length() - 1, 0) + low.bit_length() - 1
    members = ((2 << bound) - 2) & ~gap_mask
    left = candidates & members
    sums = members | 1  # x + s for s ∈ {0} ∪ M, shifted by x below
    msg: list[int] = []
    while left:
        x = (left & -left).bit_length() - 1
        msg.append(x)
        left &= ~(sums << x)
    return tuple(msg)


def _minimal_generators(gap_mask: int) -> tuple[int, ...]:
    """Minimal generators of the semigroup with the given gap bitmask."""
    return _generators_among(gap_mask, -1)


def _from_gap_mask(gap_mask: int) -> NumericalSemigroup:
    return NumericalSemigroup(gap_mask, _minimal_generators(gap_mask))


def _from_gap_tuple(gaps: Iterable[int]) -> NumericalSemigroup:
    """Build the value from an already-validated closed gap set, in any
    order.  The mask is read from one string of binary digits, as setting
    one bit per gap would copy the growing mask once per gap."""
    gaps = sorted(gaps, reverse=True)
    top = gaps[0] if gaps else 0
    digits = bytearray(b"0") * (top + 1)
    for h in gaps:
        digits[top - h] = 49  # "1"
    return _from_gap_mask(int(digits, 2))


def _adjoined(T: NumericalSemigroup, z: int) -> NumericalSemigroup:
    """T ∪ {z}, unchecked: z must be a pseudo-Frobenius gap of T with 2z ∈ T.

    z is the only new member, and a minimal generator.  An old generator a
    stops being minimal exactly when a = z + s with s ∈ T ∪ {z} nonzero,
    since a split of a that is not already inside T must use z.  So
    msg(T ∪ {z}) = {z} ∪ {a ∈ msg(T) : a < z or a − z ∉ T ∪ {z}}, and
    a − z ∉ T ∪ {z} is a bit test on the new gap mask.
    """
    G = T.gap_mask ^ (1 << z)
    msg = [a for a in T.msg if a < z or G >> (a - z) & 1]
    insort(msg, z)
    return NumericalSemigroup(G, tuple(msg))


def _removed_msg(gap_mask: int, msg: tuple[int, ...], x: int) -> tuple[int, ...]:
    """msg(T ∖ {x}) from T's gap mask and msg, unchecked: x must be a
    minimal generator of T.  :func:`_removed` calls it, and so does the
    fiber walk for each x < F(T) or x = m(T); the walk's other removals
    take the one-candidate case of the module docstring, inline.

    A generator y of T ∖ {x} that is not one of T is x + s with s ∈ T
    nonzero.  Unless s is a generator of T, s = a + t with a a generator,
    and y = (x + a) + t splits inside T ∖ {x} unless t = x; then
    y = 2x + a, which splits as (2x) + a unless a = x too.  So the
    candidates are (msg(T) ∖ {x}) ∪ {x + a : a ∈ msg(T)} ∪ {3x}; 3x is
    needed, e.g. ℕ ∖ {1} = ⟨2, 3⟩.  As a bitmask, with A the mask of
    msg(T), the candidates are (A ∖ {x}) | (A << x) | {3x}.
    """
    A = sum(map((1).__lshift__, msg))
    return _generators_among(gap_mask | 1 << x, (A ^ 1 << x) | A << x | 1 << 3 * x)


def _removed(T: NumericalSemigroup, x: int) -> NumericalSemigroup:
    """T ∖ {x}, unchecked: x must be a minimal generator of T."""
    return NumericalSemigroup(T.gap_mask | 1 << x, _removed_msg(T.gap_mask, T.msg, x))


def _closure(gens: Iterable[int], bound: int, members: int = 1) -> int:
    """Bitmask of (members + ⟨gens⟩) ∩ [0, bound], unchecked: gens must be
    positive and ``members`` a mask within [0, bound]; by default {0}.

    Closes the members under each generator a by shifts by a, 2a, 4a, …
    totalling at least ``bound``.  Generators above the bound add nothing
    and are skipped, so gens may come in any order.
    """
    full = (2 << bound) - 1
    for a in gens:
        if a > bound:
            continue
        step, covered = a, 0
        while covered < bound:
            members |= (members << step) & full
            covered += step
            step *= 2
    return members


def _validated_positive(values: Iterable[int], what: str) -> list[int]:
    out = sorted(set(values))
    if any(not isinstance(v, int) or isinstance(v, bool) for v in out):
        raise InvalidInput(f"{what} must be integers")
    if not all(v >= 1 for v in out):
        raise InvalidInput(f"{what} must be positive, got {out}")
    return out


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Numerical semigroup generated by ``gens``.

    Requires gcd(gens) = 1.  The members up to a bound come from
    :func:`_closure`.  By Schur's bound F ≤ (m − 1)(max − 1) − 1 with
    m = min(gens), the bound F + m holds F and the m consecutive members
    after it, above which everything is a member.  A semigroup whose
    closure would run past :data:`CLOSURE_CEILING` before m consecutive
    members is refused with :class:`CeilingExceeded`.
    """
    g = _validated_positive(gens, "generators")
    if not g:
        raise InvalidInput("generator set must be nonempty")
    if reduce(gcd, g) != 1:
        raise NotNumerical(f"gcd({','.join(map(str, g))}) != 1")
    m = g[0]
    bound = min(max((m - 1) * (g[-1] - 1) - 1, 0) + m, CLOSURE_CEILING)
    gap_mask = _closure(g, bound) ^ ((2 << bound) - 1)
    if gap_mask.bit_length() - 1 + m > bound:
        raise CeilingExceeded(
            f"the closure of {','.join(map(str, g))} passes {CLOSURE_CEILING} "
            f"before {m} consecutive members"
        )
    return _from_gap_mask(gap_mask)


def from_gaps(gaps: Iterable[int]) -> NumericalSemigroup:
    """Numerical semigroup whose gap set is exactly ``gaps``.

    Raises :class:`NotClosed` with a witnessing pair of members summing to a
    gap when the complement is not additively closed.
    """
    tup = _validated_positive(gaps, "gaps")
    gap_set = frozenset(tup)
    for h in tup:
        for a in range(1, h // 2 + 1):
            if a not in gap_set and (h - a) not in gap_set:
                raise NotClosed(a, h - a)
    return _from_gap_tuple(tup)


def apery(S: NumericalSemigroup, x: int) -> tuple[int, ...]:
    """Apéry set Ap(S, x) = {y ∈ S | y - x ∉ S} for a nonzero member x.

    Has exactly x elements, one per residue class mod x; its maximum is
    frobenius + x.
    """
    if x <= 0 or not S.contains(x):
        raise NotMember(f"{x} is not a nonzero member of {S}")
    first: dict[int, int] = {}
    for n in range(0, S.frobenius + x + 1):
        r = n % x
        if r not in first and S.contains(n):
            first[r] = n
    return tuple(sorted(first.values()))


def pseudo_frobenius(S: NumericalSemigroup) -> tuple[int, ...]:
    """PF(S): gaps z with z + s ∈ S for every nonzero member s.

    Checking the minimal generators suffices, by closure.  With G the gap
    bitmask, bit z of G >> a is set iff z + a is a gap, so
    PF = G & ~⋃ₐ (G >> a) over a ∈ msg(S).
    """
    if S.is_whole_n:
        raise WholeN("PF is undefined for the whole of ℕ")
    G = S.gap_mask
    covered = 0
    for a in S.msg:
        covered |= G >> a
    return _bits(G & ~covered)


def semigroup_type(S: NumericalSemigroup) -> int:
    return len(pseudo_frobenius(S))


def is_irreducible(S: NumericalSemigroup) -> bool:
    """True iff S is not an intersection of two strictly larger semigroups.

    Uses the genus characterization g(S) = ceil((F(S)+1)/2); the brute-force
    intersection oracle confirms it on every small semigroup in the tests.
    """
    if S.is_whole_n:
        raise WholeN("irreducibility is undefined for the whole of ℕ")
    return S.genus == (S.frobenius + 2) // 2


def is_symmetric(S: NumericalSemigroup) -> bool:
    return is_irreducible(S) and S.frobenius % 2 == 1


def is_pseudo_symmetric(S: NumericalSemigroup) -> bool:
    return is_irreducible(S) and S.frobenius % 2 == 0


def remove_minimal_generator(S: NumericalSemigroup, x: int) -> NumericalSemigroup:
    """The semigroup S \\ {x}; only defined for minimal generators x."""
    if x not in S.msg:
        raise NotMinimalGenerator(f"{x} is not a minimal generator of {S}")
    return _removed(S, x)


def adjoin(S: NumericalSemigroup, x: int) -> NumericalSemigroup:
    """The semigroup S ∪ {x}; defined iff x is pseudo-Frobenius and 2x ∈ S."""
    if not (x >= 1 and S.gap_mask >> x & 1):
        raise NotAdjoinable(x, "not a gap")
    if not all(S.contains(x + a) for a in S.msg):
        raise NotAdjoinable(x, "not a pseudo-Frobenius number")
    if not S.contains(2 * x):
        raise NotAdjoinable(x, "twice the value is not a member")
    return _adjoined(S, x)


def intersect(S1: NumericalSemigroup, S2: NumericalSemigroup) -> NumericalSemigroup:
    """Intersection; its gap set is the union of the two gap sets."""
    return _from_gap_mask(S1.gap_mask | S2.gap_mask)


def brauer_step(a1: int, rest: Iterable[int]) -> tuple[int, int]:
    """Frobenius number and genus of ⟨a1⟩ ∪ rest by the b = gcd(rest) reduction.

    F = (b-1)·a1 + b·F(⟨a1, rest/b⟩) and g = (b-1)(a1-1)/2 + b·g(⟨a1, rest/b⟩),
    recursing until b = 1 and then delegating to direct gap enumeration.
    """
    r = _validated_positive(rest, "generators")
    if not r:
        raise InvalidInput("rest must be nonempty")
    a1 = _validated_positive([a1], "generators")[0]
    if reduce(gcd, r, a1) != 1:
        raise NotCoprime(f"gcd of {a1} and {r} is not 1")
    b = reduce(gcd, r)
    if b == 1:
        S = from_generators([a1, *r])
        return S.frobenius, S.genus
    f, g = brauer_step(a1, [v // b for v in r])
    # gcd(a1, b) = 1, so (b-1)(a1-1) is even.
    assert (b - 1) * (a1 - 1) % 2 == 0
    return checked((b - 1) * a1 + b * f), (b - 1) * (a1 - 1) // 2 + b * g


WHOLE_N = _from_gap_tuple(())
