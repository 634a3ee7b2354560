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
from numsgps.fibers import FiberNode, _child_pairs, enumerate_fiber
from numsgps.multiples import MultipleContext, addable_gaps, max_multiples
from numsgps.oracle import all_with_frobenius, semigroups_by_genus


def sgp(*gens) -> NumericalSemigroup:
    return from_generators(gens)


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


def reference_max_multiples(ctx: MultipleContext):
    """Reference for max_multiples, for d ≥ 2: the maximal d-multiples,
    sorted by (genus, gap tuple), found by visiting every d-multiple with
    Frobenius number d·F(S).

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
    while stack:
        T, below = stack.pop()
        addable = addable_gaps(ctx, T)
        if not addable:
            maximals.append(T)
        stack.extend((_adjoined(T, z), z) for z in addable if z < below)
    maximals.sort(key=lambda t: (t.genus, t.gaps))
    return tuple(maximals)


def reference_low_e_search(S, d_max, bounds):
    """Reference for rank.bounded_low_e_multiple_search with e(S) ≥ 3: the
    same scan over d, walking the fiber of every maximal d-multiple from
    root discovery."""
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
