"""Exact arithmetic for a single numerical semigroup.

A numerical semigroup S is an additively closed subset of ℕ containing 0
whose complement (the *gap* set) is finite.  The canonical representation
here is the sorted gap tuple plus the derived minimal generating set; every
predicate reduces to O(1) membership tests against the gap set, membership
above the largest gap being implicit.

Searches over semigroups move one element at a time, so two kernels derive
the new ``msg`` from the old one, with O(e) membership tests for an
adjunction and O(e²) for a removal (e the embedding dimension), instead of
rebuilding it from the gap set:

* adjoining a pseudo-Frobenius gap z with 2z ∈ T (:func:`_adjoined`):
  msg(T ∪ {z}) = {z} ∪ {a ∈ msg(T) : a < z or a − z ∉ T ∪ {z}};
* removing a minimal generator x (:func:`_removed`): msg(T ∖ {x}) lies in
  (msg(T) ∖ {x}) ∪ {x + a : a ∈ msg(T)} ∪ {3x}, and a candidate, taken in
  ascending order, is a generator unless it is a smaller generator plus a
  nonzero member.

Pseudo-Frobenius numbers come from shifts of the gap bitmask G:
PF = G & ~⋃ₐ (G >> a) over a ∈ msg.

Conventions for S = ℕ: gaps = (), frobenius = -1, genus = 0.  Operations
that are undefined there (pseudo-Frobenius numbers, type, irreducibility)
raise :class:`~numsgps.errors.WholeN` instead of guessing.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd
from typing import Iterable

from .errors import (
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


def checked(value: int) -> int:
    if abs(value) > INT_LIMIT:
        raise Overflow(f"value {value} exceeds the supported integer width")
    return value


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup, canonically identified by its finite gap set.

    ``gaps`` and ``msg`` are strictly increasing tuples; ``msg`` is the
    unique minimal system of generators.  Instances are immutable values,
    safe to share, hash and compare.
    """

    gaps: tuple[int, ...]
    msg: tuple[int, ...]

    @cached_property
    def gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps)

    @property
    def frobenius(self) -> int:
        return self.gaps[-1] if self.gaps else -1

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def multiplicity(self) -> int:
        return self.msg[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.msg)

    @property
    def is_whole_n(self) -> bool:
        return not self.gaps

    def contains(self, x: int) -> bool:
        return x >= 0 and (x > self.frobenius or x not in self.gap_set)

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def members_up_to(self, bound: int) -> list[int]:
        """All members in [0, bound]."""
        return [x for x in range(bound + 1) if self.contains(x)]

    def __str__(self) -> str:
        return "⟨" + ",".join(str(a) for a in self.msg) + "⟩"

    def __le__(self, other: NumericalSemigroup) -> bool:
        """Inclusion: self ⊆ other iff gaps(other) ⊆ gaps(self)."""
        return other.gap_set <= self.gap_set

    def __lt__(self, other: NumericalSemigroup) -> bool:
        return other.gap_set < self.gap_set

    def to_json_dict(self) -> dict:
        return {
            "msg": list(self.msg),
            "gaps": list(self.gaps),
            "frobenius": self.frobenius,
            "genus": self.genus,
        }


@dataclass(frozen=True)
class PartialOrderWitness:
    """Record of one comparison x ⪯_S y, which holds iff y - x ∈ S."""

    x: int
    y: int
    difference_in_S: bool


def preceq(S: NumericalSemigroup, x: int, y: int) -> PartialOrderWitness:
    return PartialOrderWitness(x, y, S.contains(y - x))


def _minimal_generators(gap_set: frozenset[int], frobenius: int) -> tuple[int, ...]:
    """Minimal generators of the semigroup with the given gaps.

    A nonzero member is a minimal generator iff it is not a sum of two
    nonzero members; no generator exceeds frobenius + multiplicity.
    """

    def member(x: int) -> bool:
        return x > frobenius or x not in gap_set

    m = 1
    while m in gap_set:
        m += 1
    msg: list[int] = []
    for x in range(1, max(frobenius, 0) + m + 1):
        if not member(x):
            continue
        if not any(member(x - a) for a in msg if a < x):
            msg.append(x)
    return tuple(msg)


def _from_gap_tuple(gaps: Iterable[int]) -> NumericalSemigroup:
    """Build the value from an already-validated closed gap set."""
    tup = tuple(sorted(set(gaps)))
    frob = tup[-1] if tup else -1
    return NumericalSemigroup(tup, _minimal_generators(frozenset(tup), frob))


def _adjoined(T: NumericalSemigroup, z: int) -> NumericalSemigroup:
    """T ∪ {z}, unchecked: z must be a pseudo-Frobenius gap of T with 2z ∈ T.

    z is the only new member, and a minimal generator.  An old generator a
    stops being minimal exactly when a = z + s with s ∈ T ∪ {z} nonzero,
    since a split of a that is not already inside T must use z.  So
    msg(T ∪ {z}) = {z} ∪ {a ∈ msg(T) : a < z or a − z ∉ T ∪ {z}}.
    """
    gaps = T.gaps
    i = bisect_left(gaps, z)
    gap_set = T.gap_set
    msg = [a for a in T.msg if a < z or (a != 2 * z and a - z in gap_set)]
    insort(msg, z)
    return NumericalSemigroup(gaps[:i] + gaps[i + 1 :], tuple(msg))


def _removed(T: NumericalSemigroup, x: int) -> NumericalSemigroup:
    """T ∖ {x}, unchecked: x must be a minimal generator of T.

    A generator y of T ∖ {x} that is not one of T is x + s with s ∈ T
    nonzero.  Unless s is a generator of T, s = a + t with a a generator,
    and y = (x + a) + t splits inside T ∖ {x} unless t = x; then
    y = 2x + a, which splits as (2x) + a unless a = x too.  So the
    candidates are (msg(T) ∖ {x}) ∪ {x + a : a ∈ msg(T)} ∪ {3x}; 3x is
    needed, e.g. ℕ ∖ {1} = ⟨2, 3⟩.  Taken in ascending order, a candidate
    is a generator unless it is an already-kept one plus a nonzero member.
    """
    gaps = T.gaps
    i = bisect_left(gaps, x)
    gap_set = T.gap_set
    candidates = {a for a in T.msg if a != x}
    candidates.update(x + a for a in T.msg)
    candidates.add(3 * x)
    msg: list[int] = []
    for c in sorted(candidates):
        # c - k > 0 is a member of T ∖ {x} iff it is neither x nor a gap.
        if all(c - k == x or c - k in gap_set for k in msg):
            msg.append(c)
    return NumericalSemigroup(gaps[:i] + (x,) + gaps[i:], tuple(msg))


def _validated_positive(values: Iterable[int], what: str) -> list[int]:
    out = sorted(set(values))
    if any(not isinstance(v, int) or isinstance(v, bool) for v in out):
        raise InvalidInput(f"{what} must be integers")
    if not all(v >= 1 for v in out):
        raise InvalidInput(f"{what} must be positive, got {out}")
    return out


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Numerical semigroup generated by ``gens``.

    Requires gcd(gens) = 1.  The gap set is found by dynamic closure: once
    min(gens) consecutive members appear, everything above them is a member,
    so no a-priori bound on the conductor is needed.
    """
    g = _validated_positive(gens, "generators")
    if not g:
        raise InvalidInput("generator set must be nonempty")
    if reduce(gcd, g) != 1:
        raise NotNumerical(f"gcd({','.join(map(str, g))}) != 1")
    m = g[0]
    member = bytearray([1])
    gaps: list[int] = []
    run, n = 0, 0
    while run < m:
        n += 1
        if any(a <= n and member[n - a] for a in g):
            member.append(1)
            run += 1
        else:
            member.append(0)
            gaps.append(n)
            run = 0
    return _from_gap_tuple(gaps)


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
    G = sum(map((1).__lshift__, S.gaps))
    covered = 0
    for a in S.msg:
        covered |= G >> a
    pf = G & ~covered
    out = []
    while pf:
        low = pf & -pf
        out.append(low.bit_length() - 1)
        pf ^= low
    return tuple(out)


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
    if not (x >= 1 and x in S.gap_set):
        raise NotAdjoinable(x, "not a gap")
    if not all(S.contains(x + a) for a in S.msg):
        raise NotAdjoinable(x, "not a pseudo-Frobenius number")
    if not S.contains(2 * x):
        raise NotAdjoinable(x, "twice the value is not a member")
    return _adjoined(S, x)


def intersect(S1: NumericalSemigroup, S2: NumericalSemigroup) -> NumericalSemigroup:
    """Intersection; its gap set is the union of the two gap sets."""
    return _from_gap_tuple(set(S1.gaps) | set(S2.gaps))


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
