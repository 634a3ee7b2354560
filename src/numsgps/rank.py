"""Full quotient rank: the Apéry sufficient condition, semigroups with a
unique Betti element, obstruction search, and a bounded hunt for multiples
of small embedding dimension.

The quotient rank of S is min e(T) over all multiples T of S; it is full
when it equals e(S).  If the sum of all minimal generators but a_i lies in
Ap(S, a_i) for every i, the rank is full; the converse is open, so a false
verdict proves nothing and the bounded search below never claims one.
Its None is exact within its bounds, and for two-generated S outright:
the only semigroup with e = 1 is ℕ, and ℕ/d = ℕ, so for e(S) = 2 no d is
searched.  Otherwise a hit lies in
the fiber of its own saturation and the bounds cap its Frobenius number,
so the hunt walks only the fibers of the saturations of the d-multiples of
smaller embedding dimension under that cap.  One depth-first search over
their generator tuples finds them for every e(S), pruned by the Apéry sets
and by Sylvester's bound F(⟨a,b⟩) = ab − a − b (Rosales & García-Sánchez,
Numerical Semigroups, Springer 2009, ch. 1-2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
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
from .fibers import TruncationBounds, enumerate_fiber, saturate
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

    A witness is consistent with S not having full quotient rank; finding
    none (the search is exhaustive, the equation bounds the coefficients)
    reports only that no obstruction of this shape exists.
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


def _low_e_multiples(ctx: MultipleContext, f: int, k_max: int) -> list[NumericalSemigroup]:
    """Every d-multiple T of S with 2 ≤ e(T) ≤ k_max and F(T) ≤ f, for
    S ≠ ℕ, d ≥ 1 and f ≥ N = d·F(S).  A d·F(S) past the closure ceiling,
    and then an f + d·m(S) past it, is refused with
    :class:`CeilingExceeded` before any tuple is tried.

    A depth-first search over the minimal generating tuples a₁ < … < a_k,
    k ≤ k_max, on member masks closed up to f + d·m(S).  a₁ ≤ d·m(S), as
    d·m(S) ∈ T.  T holds d·msg(S) and, as F(T) ≤ f, (f, f + a₁]; such an
    element n is a sum of generators ≤ n, so while the prefix misses one,
    the next generator is a non-member no larger than the least such n.
    A branch whose closure meets d·gaps(S) is cut.  A tuple whose closure
    holds them all generates a d-multiple with F ≤ f: it holds d·S, misses
    d·gaps(S) and a₁ consecutive integers.  It is recorded and extended by
    its gaps, the non-members up to F(T).

    Ap(T, a₁) has a₁ elements, each at most F(T) + a₁ ≤ L = f + a₁ and a
    sum of the other generators, so there are at least a₁ combinations of
    a₂, …, a_k and of the r generators still allowed (each above a_k) of
    value ≤ L.  There are at most ∏ᵢ≥₂ (⌊L/aᵢ⌋ + 1) · C(⌊L/(a_k + 1)⌋ + r, r),
    so a branch where that count is below a₁ is cut.  The count never grows
    with a_k, nor for a₁ alone (where L grows with a₁) with a₁, so each loop
    over candidates stops at the first cut.

    Two more cuts skip a candidate b without a closure.  For b coprime to
    a₁, every n ≥ (a₁ − 1)(b − 1) lies in ⟨a₁, b⟩ (Sylvester), so
    (a₁ − 1)(b − 1) ≤ N would put the gap N of d·S in T.  And the last
    generator allowed must bring the gcd of the tuple to 1.  With a₁ alone
    that gcd is a₁, so one of the two cuts holds for every b up to
    ⌊N/(a₁ − 1)⌋ + 1.  For k_max = 2, T = ⟨a₁, b⟩ with b ≤ d·max msg(S):
    a₁ ∤ d, as T/d ≠ ℕ, so a₁ ∤ d·s for some s ∈ msg(S), and d·s ∈ T.  So
    F(T) = (a₁ − 1)(b − 1) − 1 < (d·m(S) − 1)(d·max msg(S) − 1), and f is
    clamped below that first.
    """
    S, d, N = ctx.semigroup, ctx.d, ctx.scaled_frobenius
    gap_mask = ctx.scaled_gap_mask  # refuses d·F(S) past the closure ceiling
    m = d * S.multiplicity
    if k_max == 2:
        f = min(f, (m - 1) * (d * S.msg[-1] - 1) - 1)
    top = f + m
    if top > CLOSURE_CEILING:
        raise CeilingExceeded(
            f"the low-e search's Frobenius reach plus d·m(S), {f} + {m}, passes {CLOSURE_CEILING}"
        )
    scaled_msg = sum(1 << d * s for s in S.msg)
    below = (2 << f) - 1
    out = []
    for a1 in range(2, m + 1):
        L = f + a1
        if comb(L // (a1 + 1) + k_max - 1, k_max - 1) < a1:
            break
        M = _closure((a1,), top)
        if M & gap_mask:
            continue
        b_sylvester = N // (a1 - 1) + 1  # the largest b with (a₁ − 1)(b − 1) ≤ N
        required = scaled_msg | (1 << L + 1) - (1 << f + 1)
        # (generators, closed member mask, ∏ᵢ≥₂ (⌊L/aᵢ⌋ + 1))
        stack = [((a1,), M, 1)]
        while stack:
            gens, M, count = stack.pop()
            missing = required & ~M
            if not missing:
                out.append(NumericalSemigroup(below & ~M, gens))
            # The least missing element, or else F(T).
            upper = ((missing & -missing) or below & ~M).bit_length() - 1
            r = k_max - len(gens) - 1  # generators allowed after the next
            if r < 0:
                continue
            g = reduce(gcd, gens)
            lo = gens[-1] + 1
            if r == 0 and g == a1:  # every b ≤ b_sylvester meets a cut below
                lo = max(lo, b_sylvester + 1)
            for b in range(lo, upper + 1):
                if M >> b & 1:
                    continue
                grown = count * (L // b + 1)
                if grown * comb(L // (b + 1) + r, r) < a1:
                    break
                if (b <= b_sylvester and gcd(a1, b) == 1) or (r == 0 and gcd(g, b) > 1):
                    continue
                Mb = _closure((b,), top, M)
                if not Mb & gap_mask:
                    stack.append(((*gens, b), Mb, grown))
    return out


def bounded_low_e_multiple_search(
    S: NumericalSemigroup, d_max: int, bounds: TruncationBounds
) -> tuple[int, NumericalSemigroup] | None:
    """First multiple T of S with e(T) < e(S) in the bounded fiber walks,
    scanning d ascending; a fiber's root is examined whatever the bounds.

    A hit, a root past the bounds included, certifies quotient rank < e(S);
    None is exact within the bounds: no d ≤ d_max has a hit in the bounded
    walk of any fiber.  For e(S) = 2 it is exact outright: a multiple with
    e = 1 would be ℕ, and ℕ/d = ℕ ≠ S, so no d is searched.  Otherwise d
    runs from 2, as the only 1-multiple is S itself.  Within one d the hit
    of least (genus, gap tuple) is returned, so the outcome is
    deterministic.  A d·F(S) past the closure ceiling propagates its
    :class:`CeilingExceeded`, as in ``max-multiples``.

    A hit lies in the fiber of its own saturation.  A root has F = N =
    d·F(S) and holds d·S ∪ (N, ∞), so its genus is at most that set's,
    g₀ = N − F(S) + g(S); a node at depth k has genus ≤ g₀ + k, the first
    M preorder nodes have depth < M, and F ≤ 2g − 1 for every semigroup,
    so every node of the bounded walks has F ≤ f = max(N, the least of
    ``max_frobenius``, 2·``max_genus`` − 1, 2·(g₀ + ``max_depth``) − 1
    and 2·(g₀ + ``max_nodes``) − 1 that are set).  So walking, with
    :func:`enumerate_fiber`, the saturations of the d-multiples with
    e < e(S) and F ≤ f gives the answer of walking every root.  Those
    multiples come from :func:`_low_e_multiples` for every e(S) ≥ 3, which
    refuses f + d·m(S) past the closure ceiling, f clamped for e(S) = 3 to
    the reach of two generators.
    """
    if S.is_whole_n:
        raise WholeN("quotient rank analysis is undefined for the whole of ℕ")
    if d_max < 0:
        raise InvalidInput(f"--dmax must be a non-negative integer, got {d_max}")
    bounds.require_finite("the low-e search")
    e = S.embedding_dimension
    if e <= 2:
        return None
    for d in range(2, d_max + 1):
        ctx = MultipleContext(S, d)
        N = ctx.scaled_frobenius
        g0 = N - S.frobenius + S.genus
        genus_caps = ((0, bounds.max_genus), (g0, bounds.max_depth), (g0, bounds.max_nodes))
        reach = [2 * (base + k) - 1 for base, k in genus_caps if k is not None]
        if bounds.max_frobenius is not None:
            reach.append(bounds.max_frobenius)
        f = max(N, min(reach))
        roots = dict.fromkeys(saturate(ctx, T) for T in _low_e_multiples(ctx, f, e - 1))
        hits = [
            NumericalSemigroup(G, msg)
            for tree in (enumerate_fiber(ctx, root, bounds) for root in roots)
            for G, msg in zip(tree.gap_mask, tree.msg)
            if len(msg) < e
        ]
        if hits:
            return d, min(hits, key=lambda t: (t.genus, t.gaps))
    return None


def random_semigroup(rng: random.Random, max_genus: int) -> NumericalSemigroup:
    """A random numerical semigroup with 1 ≤ genus ≤ max_genus."""
    high = max(6, 3 * max_genus)
    while True:
        k = rng.randint(2, 5)
        gens = rng.sample(range(2, high + 1), k)
        if reduce(gcd, gens) != 1:
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
    """Seeded sweep comparing the Apéry condition against bounded searches.

    Each row records, for one random semigroup, the condition verdict, the
    subset obstruction, and the bounded low-embedding-dimension hunt (over
    d ≤ d_max, fibers truncated at F ≤ d_max·F(S) + 6 and 2000 nodes).  The
    hunt's empty cells are exact for e(S) = 2, where no d is searched, and
    otherwise say that no d ≤ d_max has a hit within those bounds, proving
    nothing beyond them.  No verdict on the open converse is derived, only
    evidence.
    """
    if count < 0:
        raise InvalidInput(f"--count must be a non-negative integer, got {count}")
    if max_genus < 1:
        raise InvalidInput(f"--max-genus must be a positive integer, got {max_genus}")
    if d_max < 0:  # before d_max·F(S) + 6 becomes a negative Frobenius bound
        raise InvalidInput(f"--dmax must be a non-negative integer, got {d_max}")
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        S = random_semigroup(rng, max_genus)
        report = full_rank_condition(S)
        obstruction = j_subset_obstruction(S)
        bounds = TruncationBounds(
            max_frobenius=d_max * S.frobenius + 6, max_nodes=2000
        )
        low = bounded_low_e_multiple_search(S, d_max, bounds)
        rows.append(
            {
                "msg": ",".join(map(str, S.msg)),
                "frobenius": S.frobenius,
                "genus": S.genus,
                "embedding_dimension": S.embedding_dimension,
                "multiplicity": S.multiplicity,
                "condition_holds": report.condition_holds,
                "multiplicity_bound_ok": report.multiplicity_bound_ok,
                "obstruction_found": obstruction is not None,
                "low_e_d": low[0] if low else "",
                "low_e_multiple": ",".join(map(str, low[1].msg)) if low else "",
            }
        )
    return rows
