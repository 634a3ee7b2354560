from functools import reduce
from itertools import combinations, permutations
from math import gcd

import pytest

# sweeps.py is a helper, not a test module: without this its asserts are
# left to the interpreter, which strips them under python -O.
pytest.register_assert_rewrite("sweeps")

from numsgps.core import (
    NumericalSemigroup,
    _adjoined,
    _from_gap_tuple,
    _removed,
    from_generators,
)
from numsgps.fibers import FiberNode, TruncationBounds, _child_pairs, enumerate_fiber
from numsgps.multiples import MultipleContext, addable_gaps, is_d_multiple, max_multiples
from numsgps.oracle import all_with_frobenius, semigroups_by_genus


def sgp(*gens) -> NumericalSemigroup:
    return from_generators(gens)


def modular_order(msg) -> bool:
    """Whether msg has an order (n₁, n₂, n₃) with gcd(n₁, n₂) = gcd(n₂, n₃)
    = 1 and n₂ | n₁ + n₃: for e(S) = 3, whether S is proportionally
    modular, that is a quotient of a two-generated semigroup (Rosales &
    García-Sánchez, Numerical Semigroups, ch. 5)."""
    return any(
        gcd(a, b) == gcd(b, c) == 1 and (a + c) % b == 0 for a, b, c in permutations(msg)
    )


def coin_dp(gens, target):
    """Reference coin-problem DP for ⟨gens⟩ ∩ [0, target].

    Returns the reachable flags as a bytearray and the decomposition of
    target that takes, at each n, the first generator a with n − a
    reachable (None when target is not reachable).
    """
    parent = [None] * (target + 1)
    reachable = bytearray(target + 1)
    reachable[0] = 1
    for n in range(1, target + 1):
        for k, a in enumerate(gens):
            if a <= n and reachable[n - a]:
                reachable[n] = 1
                parent[n] = k
                break
    if not reachable[target]:
        return reachable, None
    coeffs = [0] * len(gens)
    n = target
    while n:
        k = parent[n]
        coeffs[k] += 1
        n -= gens[k]
    return reachable, coeffs


def reference_random_semigroup(rng, max_genus: int) -> NumericalSemigroup:
    """Reference for rank.random_semigroup: the same draws, each built in
    full before its genus is tested."""
    high = max(6, 3 * max_genus)
    while True:
        k = rng.randint(2, 5)
        gens = rng.sample(range(2, high + 1), k)
        if reduce(gcd, gens) != 1:
            continue
        S = from_generators(gens)
        if 1 <= S.genus <= max_genus:
            return S


def reference_max_multiples(ctx: MultipleContext, max_visits=None):
    """Reference for max_multiples, for d ≥ 2: the maximal d-multiples,
    sorted by (genus, gap tuple), found by visiting every d-multiple with
    Frobenius number d·F(S), or None once it would visit more than
    ``max_visits`` of them.

    Depth-first search from the ground multiple d·S ∪ {n | n > d·F(S)}
    that adjoins addable gaps in decreasing order only: a d-multiple T with
    F(T) = d·F(S) is the ground multiple plus a set E, and adjoining E from
    its largest element down is its one path, so each T is built once.
    """
    d, scaled = ctx.d, ctx.scaled_gap_mask
    ground = _from_gap_tuple(
        n for n in range(1, ctx.scaled_frobenius + 1) if n % d or scaled >> n & 1
    )
    stack = [(ground, ctx.scaled_frobenius)]
    maximals = []
    visits = 0
    while stack:
        visits += 1
        if max_visits is not None and visits > max_visits:
            return None
        T, below = stack.pop()
        addable = addable_gaps(ctx, T)
        if not addable:
            maximals.append(T)
        stack.extend((_adjoined(T, z), z) for z in addable if z < below)
    maximals.sort(key=lambda t: (t.genus, t.gaps))
    return tuple(maximals)


def reference_low_e_search(S, d_max):
    """Reference for rank.bounded_low_e_multiple_search with e(S) ≥ 3,
    exact and without its tuple walk.  The first d is the first where
    fewer than e(S) integers up to d·max msg(S), of gcd 1, generate a
    d-multiple H (the fact the search rests on), tried by brute force over
    combinations.  The least (genus, gaps) multiple of smaller e there has
    genus ≤ g(H), so walking the fiber of every maximal d-multiple to genus
    g(H) finds it."""
    e = S.embedding_dimension
    for d in range(2, d_max + 1):
        ctx = MultipleContext(S, d)
        tuples = (
            gens
            for k in range(2, e)
            for gens in combinations(range(2, d * S.msg[-1] + 1), k)
            if reduce(gcd, gens) == 1
        )
        H = next((H for H in map(from_generators, tuples) if is_d_multiple(ctx, H)), None)
        if H is not None:
            bounds = TruncationBounds(max_genus=H.genus)
            hits = [
                T
                for root in max_multiples(ctx).maximals
                for T in enumerate_fiber(ctx, root, bounds).semigroup
                if T.genus <= H.genus and T.embedding_dimension < e
            ]
            return d, min(hits, key=lambda t: (t.genus, t.gaps))
    return None


def reference_root_walk(S, d_max, bounds):
    """The first d ≤ d_max, and its least (genus, gaps) multiple, with a
    multiple of smaller e in the bounded fiber walk of some maximal
    d-multiple from root discovery: a lower bound on what the exact
    search finds."""
    for d in range(2, d_max + 1):
        ctx = MultipleContext(S, d)
        hits = [
            T
            for root in max_multiples(ctx).maximals
            for T in enumerate_fiber(ctx, root, bounds).semigroup
            if T.embedding_dimension < S.embedding_dimension
        ]
        if hits:
            return d, min(hits, key=lambda t: (t.genus, t.gaps))
    return None


def reference_fiber_walk(ctx: MultipleContext, root: NumericalSemigroup, bounds) -> FiberNode:
    """Reference for enumerate_fiber: the nested walk it replaced.  It pops
    edges (parent node, x) off one stack, last first, builds each child when
    it attaches it to its parent's FiberNode, and stops at the same
    max_nodes count.  Returns the root node."""
    root_node = FiberNode(root, None, 0)

    def edges(node):
        T = node.semigroup
        if (
            (bounds.max_depth is not None and node.depth >= bounds.max_depth)
            or (bounds.max_genus is not None and T.genus >= bounds.max_genus)
            or (bounds.max_frobenius is not None and T.frobenius > bounds.max_frobenius)
        ):
            return []
        pairs = _child_pairs(ctx, T.gap_mask, T.msg, bounds.max_frobenius)
        return [(node, x) for x in reversed(pairs)]

    stack = edges(root_node)
    count = 1
    while stack and (bounds.max_nodes is None or count < bounds.max_nodes):
        parent, x = stack.pop()
        child = FiberNode(_removed(parent.semigroup, x), x, parent.depth + 1)
        parent.children.append(child)
        count += 1
        stack += edges(child)
    return root_node


def fiber_node_to_json_dict(node) -> dict:
    """Reference for fiber JSON: the subtree under a FiberNode as the nested
    dicts that json.dumps renders, built without recursion."""
    top: dict = {}
    stack = [(node, top)]
    while stack:
        n, out = stack.pop()
        out.update(
            semigroup=n.semigroup.to_json_dict(),
            removed_generator=n.removed_generator,
            depth=n.depth,
            children=[{} for _ in n.children],
        )
        stack.extend(zip(n.children, out["children"]))
    return top


@pytest.fixture(scope="session")
def census_by_frobenius():
    """Complete censuses, cached per session: f -> all semigroups with F = f."""
    cache: dict[int, tuple] = {}

    def get(f: int):
        if f not in cache:
            cache[f] = all_with_frobenius(f)
        return cache[f]

    return get


@pytest.fixture(scope="session")
def small_semigroups(census_by_frobenius):
    """Every numerical semigroup with 1 <= F <= 12."""
    out = []
    for f in range(1, 13):
        out.extend(census_by_frobenius(f))
    return out


@pytest.fixture(scope="session")
def genus_tree_12():
    """Every numerical semigroup with genus <= 12 (ℕ included)."""
    return semigroups_by_genus(12)
