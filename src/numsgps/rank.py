"""Full quotient rank: the Apéry sufficient condition, semigroups with a
unique Betti element, the J-subset obstruction (the condition's negation)
and an exact search for multiples of small embedding dimension up to d.

The quotient rank of S is min e(T) over all multiples T of S; it is full
when it equals e(S).  If the sum of all minimal generators but a_i lies in
Ap(S, a_i) for every i, the rank is full.  The converse is proven for
e(S) ≤ 3: the condition always holds for e(S) = 2, and for e(S) = 3 it
fails exactly when S is proportionally modular, a quotient of a
two-generated semigroup.  For e(S) ≥ 4 it is open; on every S of genus
≤ 12 in the tests and ≤ 14 in CI the condition never holds and every S
has a multiple of smaller e at some d ≤ 15.  It first holds for e(S) ≥ 4
at genus 17, at ⟨8,12,14,15⟩.  The search walks generator tuples capped
at d·max msg(S), pruned by Sylvester's bound F(⟨a,b⟩) = ab − a − b
(Rosales & García-Sánchez, Numerical Semigroups, Springer 2009, ch. 1-5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, gcd, prod

from .core import CLOSURE_CEILING, NumericalSemigroup, _closure, from_generators
from .errors import (
    CeilingExceeded,
    InternalInvariantError,
    InvalidInput,
    NotPairwiseCoprime,
    TooSmall,
    WholeN,
)
from .multiples import MultipleContext
# Unused here; perfbench/selftest.py checks that its tracer reaches
# max_multiples through this namespace.
from .multiples import max_multiples  # noqa: F401


@dataclass(frozen=True)
class ApexWitness:
    """One Apéry membership check: does sum_{j != i} a_j lie in Ap(S, a_i)?"""

    generator: int
    partner_sum: int
    in_apery: bool


@dataclass(frozen=True)
class RankReport:
    condition_holds: bool
    witnesses: tuple[ApexWitness, ...]
    multiplicity_bound_ok: bool


def full_rank_condition(S: NumericalSemigroup) -> RankReport:
    """Check the Apéry sufficient condition for full quotient rank.

    condition_holds = True is a proof; False proves nothing.  When the
    condition holds, the multiplicity is at least 2^(e-1).

    It fails exactly when :func:`j_subset_obstruction` has a witness.  (⇐)
    Take i ∉ J with u_i ≥ 1: then Σ_{j≠i} a_j − a_i ∈ S, so it fails at a_i.
    (⇒) If it fails at a_i, Σ_{j≠i} a_j = (v_i + 1)·a_i + Σ_{k≠i} v_k a_k.
    Cancelling each a_j with v_j ≥ 1 from both sides leaves a J-relation
    with J = {j ≠ i : v_j = 0}, non-empty as the right side is positive.
    """
    if S.is_whole_n:
        raise WholeN("quotient rank analysis is undefined for the whole of ℕ")
    total = sum(S.msg)
    witnesses = []
    for a in S.msg:
        w = total - a
        in_apery = S.contains(w) and not S.contains(w - a)
        witnesses.append(ApexWitness(a, w, in_apery))
    holds = all(w.in_apery for w in witnesses)
    bound_ok = not holds or S.multiplicity >= 2 ** (S.embedding_dimension - 1)
    return RankReport(holds, tuple(witnesses), bound_ok)


@dataclass(frozen=True)
class UniqueBettiSpec:
    """Pairwise-coprime c_1, ..., c_e ≥ 2; generators are the products
    of all c_j but one."""

    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.c) < 2:
            raise TooSmall("need at least two factors")
        if any(v < 2 for v in self.c):
            raise TooSmall(f"every factor must be at least 2, got {self.c}")
        for a, b in combinations(self.c, 2):
            if gcd(a, b) != 1:
                raise NotPairwiseCoprime(f"gcd({a}, {b}) != 1")

    @property
    def msg_out(self) -> tuple[int, ...]:
        p = prod(self.c)
        return tuple(sorted(p // v for v in self.c))


def unique_betti(spec: UniqueBettiSpec) -> NumericalSemigroup:
    """The semigroup generated by the complementary products of spec.c.

    Its minimal generators are exactly those products and it always has
    full quotient rank (asserted through the Apéry condition).
    """
    S = from_generators(spec.msg_out)
    if S.msg != spec.msg_out:
        raise InternalInvariantError(
            f"derived generators {spec.msg_out} are not minimal for {S}"
        )
    if not full_rank_condition(S).condition_holds:
        raise InternalInvariantError(f"{S} fails the full-rank condition")
    return S


def unique_betti_apery(spec: UniqueBettiSpec, i: int) -> tuple[int, ...]:
    """Ap(S, a_i) = {sum u_j a_j | 0 ≤ u_j ≤ c_j - 1, j != i}, 0-based i.

    The bound c_j - 1 is forced: the Apéry set has exactly a_i elements,
    which is the number of coefficient tuples below it.
    """
    cs = spec.c
    if not 0 <= i < len(cs):
        raise InvalidInput(f"index {i} out of range for {cs}")
    p = prod(cs)
    gens = {j: p // cs[j] for j in range(len(cs)) if j != i}
    values = {
        sum(u * gens[j] for u, j in zip(us, gens))
        for us in product(*(range(cs[j]) for j in gens))
    }
    if len(values) != p // cs[i]:
        raise InternalInvariantError(f"Apéry coefficient tuples collide for {cs}")
    return tuple(sorted(values))


@dataclass(frozen=True)
class JSubsetWitness:
    """Generators indexed by J sum to a nonnegative combination of the rest."""

    subset: tuple[int, ...]
    coefficients: tuple[tuple[int, int], ...]

    @property
    def target(self) -> int:
        return sum(self.subset)


def j_subset_obstruction(S: NumericalSemigroup) -> JSubsetWitness | None:
    """Search for J with sum_{j in J} a_j = sum_{j not in J} u_j a_j, u != 0.

    A witness exists exactly when :func:`full_rank_condition` fails (proof
    there), so finding none (the search is exhaustive, the equation bounds
    the coefficients) proves full quotient rank.
    """
    if S.is_whole_n:
        raise WholeN("quotient rank analysis is undefined for the whole of ℕ")
    msg = S.msg
    e = len(msg)
    for r in range(1, e):
        for idx in combinations(range(e), r):
            others = [msg[j] for j in range(e) if j not in idx]
            target = sum(msg[j] for j in idx)
            coeffs = _coin_decomposition(others, target)
            if coeffs is not None:
                return JSubsetWitness(
                    subset=tuple(msg[j] for j in idx),
                    coefficients=tuple(zip(others, coeffs)),
                )
    return None


def _coin_decomposition(gens: list[int], target: int) -> list[int] | None:
    """Nonnegative u with sum u_i gens_i = target, else None.  Walks down
    from target, at each n taking the first a in gens with n − a in ⟨gens⟩."""
    reach = _closure(gens, target)
    if not reach >> target & 1:
        return None
    coeffs = [0] * len(gens)
    n = target
    while n:
        k = next(k for k, a in enumerate(gens) if a <= n and reach >> (n - a) & 1)
        coeffs[k] += 1
        n -= gens[k]
    return coeffs


def _generator_tuples(ctx: MultipleContext, k_max: int, f: int | None = None):
    """Depth-first search over the minimal generating tuples a₁ < … < a_k,
    k ≤ k_max, whose closure holds d·msg(S) and misses d·gaps(S), for S ≠ ℕ
    and d ≥ 1; yields each with its member mask closed up to top.  With
    f None, top = max(d·max msg(S), d·F(S)) and a tuple holding d·msg(S) is
    not extended.  With f ≥ N = d·F(S), top = f + d·m(S), a tuple must also
    hold (f, f + a₁], so it generates a d-multiple with F ≤ f, and it is
    extended by its gaps.  A d·F(S), and then a top, past the closure
    ceiling is refused with :class:`CeilingExceeded` before any tuple.

    a₁ ≤ d·m(S), as d·m(S) ∈ T.  An element n the tuple must hold is a sum
    of generators ≤ n, so while the prefix misses one, the next generator
    is a non-member no larger than the least such n: with f None, at most
    d·max msg(S).  A branch whose closure meets d·gaps(S) is cut.

    With f set, Ap(T, a₁) has a₁ elements, each at most F(T) + a₁ ≤ L =
    f + a₁ and a sum of the other generators, so there are at least a₁
    combinations of a₂, …, a_k and of the r generators still allowed (each
    above a_k) of value ≤ L.  There are at most ∏ᵢ≥₂ (⌊L/aᵢ⌋ + 1) ·
    C(⌊L/(a_k + 1)⌋ + r, r), so a branch where that count is below a₁ is
    cut.  The count never grows with a_k, nor for a₁ alone (where L grows
    with a₁) with a₁, so each loop over candidates stops at the first cut.

    Two more cuts skip a candidate b without a closure.  For b coprime to
    a₁, every n ≥ (a₁ − 1)(b − 1) lies in ⟨a₁, b⟩ (Sylvester), so
    (a₁ − 1)(b − 1) ≤ N would put the gap N of d·S in T.  And the last
    generator allowed must bring the gcd of the tuple to 1.  With a₁ alone
    that gcd is a₁, so one of the two cuts holds for every b up to
    ⌊N/(a₁ − 1)⌋ + 1.
    """
    S, d, N = ctx.semigroup, ctx.d, ctx.scaled_frobenius
    gap_mask = ctx.scaled_gap_mask  # refuses d·F(S) past the closure ceiling
    m = d * S.multiplicity
    # N is within the ceiling here, so a top past it is d·max msg(S) when f is None.
    top, bound = max(d * S.msg[-1], N), "generator cap d·max msg(S) ="
    if f is not None:
        top, bound = f + m, f"Frobenius reach plus d·m(S), {f} + {m} ="
    if top > CLOSURE_CEILING:
        raise CeilingExceeded(f"the low-e search's {bound} {top} passes {CLOSURE_CEILING}")
    scaled_msg = sum(1 << d * s for s in S.msg)
    below = (2 << top) - 1
    for a1 in range(2, m + 1):
        required = scaled_msg
        if f is not None:
            L = f + a1
            if comb(L // (a1 + 1) + k_max - 1, k_max - 1) < a1:
                break
            required |= (1 << L + 1) - (1 << f + 1)
        M = _closure((a1,), top)
        if M & gap_mask:
            continue
        b_sylvester = N // (a1 - 1) + 1  # the largest b with (a₁ − 1)(b − 1) ≤ N
        # (generators, closed member mask, ∏ᵢ≥₂ (⌊L/aᵢ⌋ + 1))
        stack = [((a1,), M, 1)]
        while stack:
            gens, M, count = stack.pop()
            missing = required & ~M
            if not missing:
                yield gens, M
                if f is None:
                    continue
            # The least missing element, or else F(T).
            upper = ((missing & -missing) or below & ~M).bit_length() - 1
            r = k_max - len(gens) - 1  # generators allowed after the next
            if r < 0:
                continue
            g = gcd(*gens)
            lo = gens[-1] + 1
            if r == 0 and g == a1:  # every b ≤ b_sylvester meets a cut below
                lo = max(lo, b_sylvester + 1)
            for b in range(lo, upper + 1):
                if M >> b & 1:
                    continue
                grown = count
                if f is not None:
                    grown *= L // b + 1
                    if grown * comb(L // (b + 1) + r, r) < a1:
                        break
                if (b <= b_sylvester and gcd(a1, b) == 1) or (r == 0 and gcd(g, b) > 1):
                    continue
                Mb = _closure((b,), top, M)
                if not Mb & gap_mask:
                    stack.append(((*gens, b), Mb, grown))


def _low_e_multiples(ctx: MultipleContext, f: int, k_max: int) -> list[NumericalSemigroup]:
    """Every d-multiple T of S with 2 ≤ e(T) ≤ k_max and F(T) ≤ f, for
    S ≠ ℕ, d ≥ 1 and f ≥ N = d·F(S), from :func:`_generator_tuples`."""
    below = (2 << f) - 1
    return [NumericalSemigroup(below & ~M, gens) for gens, M in _generator_tuples(ctx, k_max, f)]


def bounded_low_e_multiple_search(
    S: NumericalSemigroup, d_max: int
) -> tuple[int, NumericalSemigroup] | None:
    """The least d ≤ d_max with a d-multiple T of S of e(T) < e(S), and the
    least (genus, gap tuple) such T; None, exactly, when no d ≤ d_max has
    one.  When :func:`full_rank_condition` holds, no d has one and no d is
    searched.  A d·F(S), a d·max msg(S) or the least multiple's reach below
    plus d·m(S) past the closure ceiling propagates its
    :class:`CeilingExceeded`.

    That gate decides e(S) ≤ 3 in full.  For msg(S) = (a, b) the condition
    holds, as b − a ∈ ⟨a, b⟩ would need a | b, and no multiple of e = 1
    exists: that is ℕ, and ℕ/d = ℕ.  For msg(S) = (nᵢ, nⱼ, nₖ) it fails at
    nᵢ iff nⱼ + nₖ − nᵢ ∈ S.  Write that as a combination of the
    generators: a term in nⱼ, cancelled, would leave nₖ a sum of the
    others, and likewise a term in nₖ, so it fails iff nᵢ | nⱼ + nₖ.  Then
    gcd(nᵢ, nⱼ) divides nₖ, so it is 1, and so is gcd(nᵢ, nₖ): S is
    proportionally modular, which is being a quotient of a two-generated
    semigroup (ch. 5), so some d has a multiple of e = 2 exactly when the
    condition fails.  For e(S) ≥ 4 the condition proves full rank.

    Let T be such a d-multiple, and A the semigroup generated by its
    minimal generators up to d·max msg(S).  Each d·s, s ∈ msg(S), is in T
    and a sum of generators no larger than itself, so d·S ⊆ A ⊆ T, A/d = S
    and e(A) ≤ e(T).  With g = gcd(A), A/g is a (d/g)-multiple of S,
    d/g ≥ 2, with generators up to (d/g)·max msg(S).  So, with d from 2,
    the first d is the first where :func:`_generator_tuples` finds a tuple,
    and the first tuple H it finds has gcd 1.  Had H gcd g > 1, g would
    divide every d·s, s ∈ msg(S), and so d, and H/g would be fewer than
    e(S) generators of S (g = d) or a tuple of gcd 1 that the walk, whose
    cuts keep every such tuple, yields, or yields a prefix of, at d/g < d.
    A multiple of least genus g has F ≤ 2g − 1 ≤ 2·g(H) − 1, so the least
    one comes from :func:`_low_e_multiples` at that reach.
    """
    holds = full_rank_condition(S).condition_holds  # refuses ℕ
    if d_max < 0:
        raise InvalidInput(f"--dmax must be a non-negative integer, got {d_max}")
    return None if holds else _low_e_search(S, d_max)


def _low_e_search(S: NumericalSemigroup, d_max: int) -> tuple[int, NumericalSemigroup] | None:
    """:func:`bounded_low_e_multiple_search` past its gate, for an S that
    fails the Apéry condition and d_max ≥ 0.  The first tuple found has
    gcd 1, as proven there, so no gcd is checked."""
    e = S.embedding_dimension
    for d in range(2, d_max + 1):
        ctx = MultipleContext(S, d)
        first = next((gens for gens, _ in _generator_tuples(ctx, e - 1)), None)
        if first is not None:
            reach = 2 * from_generators(first).genus - 1
            return d, min(_low_e_multiples(ctx, reach, e - 1), key=lambda t: (t.genus, t.gaps))
    return None


def random_semigroup(rng: random.Random, max_genus: int) -> NumericalSemigroup:
    """A random numerical semigroup with 1 ≤ genus ≤ max_genus.  A draw with
    more than max_genus non-members, all gaps, up to 2·max_genus (or the
    closure ceiling) is rejected unbuilt.  As F ≤ 2g − 1 (ch. 1), that range
    holds every gap of a kept S.  The test draws no random number."""
    high = max(6, 3 * max_genus)
    reach = min(2 * max_genus, CLOSURE_CEILING)
    while True:
        k = rng.randint(2, 5)
        gens = rng.sample(range(2, high + 1), k)
        if gcd(*gens) != 1 or reach + 1 - _closure(gens, reach).bit_count() > max_genus:
            continue
        S = from_generators(gens)
        if 1 <= S.genus <= max_genus:
            return S


SWEEP_FIELDS = (
    "msg",
    "frobenius",
    "genus",
    "embedding_dimension",
    "multiplicity",
    "condition_holds",
    "multiplicity_bound_ok",
    "obstruction_found",
    "low_e_d",
    "low_e_multiple",
)


def rank_sweep(count: int, max_genus: int, seed: int, d_max: int = 3) -> list[dict]:
    """Seeded sweep comparing the Apéry condition against the low-e search.

    Each row records, for one random semigroup, the condition verdict, its
    negation as obstruction_found (see :func:`full_rank_condition`), and
    :func:`bounded_low_e_multiple_search` over d ≤ d_max, whose empty cells
    are exact: no d ≤ d_max has a multiple of smaller embedding dimension.
    No verdict on the open converse is derived, only evidence.
    """
    if count < 0:
        raise InvalidInput(f"--count must be a non-negative integer, got {count}")
    if max_genus < 1:
        raise InvalidInput(f"--max-genus must be a positive integer, got {max_genus}")
    if d_max < 0:  # even when no row searches
        raise InvalidInput(f"--dmax must be a non-negative integer, got {d_max}")
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        S = random_semigroup(rng, max_genus)
        report = full_rank_condition(S)
        low = None if report.condition_holds else _low_e_search(S, d_max)
        rows.append(
            {
                "msg": ",".join(map(str, S.msg)),
                "frobenius": S.frobenius,
                "genus": S.genus,
                "embedding_dimension": S.embedding_dimension,
                "multiplicity": S.multiplicity,
                "condition_holds": report.condition_holds,
                "multiplicity_bound_ok": report.multiplicity_bound_ok,
                "obstruction_found": not report.condition_holds,
                "low_e_d": low[0] if low else "",
                "low_e_multiple": ",".join(map(str, low[1].msg)) if low else "",
            }
        )
    return rows
