"""The saturation map on d-multiples and its fibers, arranged as rooted trees.

θ(T) is the largest gap whose adjunction keeps T a d-multiple of S; iterating
it (the saturation map Θ) reaches a maximal d-multiple R.  The fiber of R is
arranged as a rooted tree with root R, where the children of T are the
T ∖ {x} whose θ-step leads straight back to T.  Fibers may be infinite, so
enumeration always demands an explicit truncation bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import NumericalSemigroup, _adjoined, _removed
# Unused here; perfbench/selftest.py checks that its tracer reaches the
# builder through every namespace that bound it, this one included.
from .core import _from_gap_tuple  # noqa: F401
from .errors import (
    BoundsMissing,
    InternalInvariantError,
    NotAMultiple,
    NotMaximal,
)
from .multiples import MultipleContext, addable_gaps, is_d_multiple


@dataclass(frozen=True)
class TruncationBounds:
    """Pruning limits for fiber enumeration; at least one must be set."""

    max_frobenius: int | None = None
    max_genus: int | None = None
    max_depth: int | None = None
    max_nodes: int | None = None

    def require_finite(self):
        if all(
            b is None
            for b in (self.max_frobenius, self.max_genus, self.max_depth, self.max_nodes)
        ):
            raise BoundsMissing("fiber enumeration requires at least one bound")


@dataclass
class FiberNode:
    """One semigroup in a fiber; removed_generator is the x with
    parent = node ∪ {x} (None at the root)."""

    semigroup: NumericalSemigroup
    removed_generator: int | None
    depth: int
    children: list["FiberNode"] = field(default_factory=list)


@dataclass
class FiberTree:
    context: MultipleContext
    root: FiberNode

    def nodes(self) -> list[FiberNode]:
        """Depth-first preorder, children by ascending removed generator."""
        out: list[FiberNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def semigroups(self) -> list[NumericalSemigroup]:
        return [n.semigroup for n in self.nodes()]


def _require_multiple(ctx: MultipleContext, T: NumericalSemigroup):
    if not is_d_multiple(ctx, T):
        raise NotAMultiple(f"{T} is not a {ctx.d}-multiple of {ctx.semigroup}")


def _check_divisibility(ctx: MultipleContext, T: NumericalSemigroup) -> bool:
    """d | F(T) iff F(T) = d·F(S); violating that is a bug, not bad input."""
    divisible = T.frobenius % ctx.d == 0
    minimal = T.frobenius == ctx.scaled_frobenius
    if divisible != minimal:
        raise InternalInvariantError(
            f"divisibility of F({T}) = {T.frobenius} by {ctx.d} disagrees with "
            f"minimality against {ctx.scaled_frobenius}"
        )
    return divisible


def theta(ctx: MultipleContext, T: NumericalSemigroup) -> int | None:
    """θ(T): the largest gap z with T ∪ {z} still a d-multiple, else None.

    None exactly when T is a maximal d-multiple.  When d does not divide
    F(T), θ(T) = F(T) and no pseudo-Frobenius computation is needed.
    """
    _require_multiple(ctx, T)
    if T.is_whole_n:
        return None
    if not _check_divisibility(ctx, T):
        return T.frobenius
    addable = addable_gaps(ctx, T)
    return max(addable) if addable else None


def saturate(ctx: MultipleContext, T: NumericalSemigroup) -> NumericalSemigroup:
    """The maximal d-multiple reached by repeatedly adjoining θ."""
    _require_multiple(ctx, T)
    current = T
    while True:
        z = theta(ctx, current)
        if z is None:
            return current
        current = _adjoined(current, z)


def divisibility_check(ctx: MultipleContext, T: NumericalSemigroup) -> bool:
    """Whether d divides F(T); asserted equivalent to F(T) = d·F(S)."""
    _require_multiple(ctx, T)
    return _check_divisibility(ctx, T)


def children(ctx: MultipleContext, T: NumericalSemigroup) -> tuple[FiberNode, ...]:
    """The children of T in its fiber tree, ascending by removed generator.

    A child is T ∖ {x} for x a minimal generator outside d·S whose θ-step
    returns x.  When F(T) differs from d·F(S) the θ recomputation collapses
    to the test x > F(T).
    """
    _require_multiple(ctx, T)
    return tuple(
        FiberNode(child, x, 0) for x, child in _child_pairs(ctx, T)
    )


def _child_pairs(ctx, T, theta_cache=None):
    # A candidate T ∖ {x} can be probed from every node containing it one
    # generator up, so enumerations share θ results via theta_cache.
    d, scaled, F = ctx.d, ctx.scaled_gap_mask, T.frobenius
    fast = F != ctx.scaled_frobenius
    if fast:
        # Same invariant as divisibility_check, kept hot-path cheap.
        assert F % d != 0
    out = []
    for x in T.msg:
        if x % d == 0 and not scaled >> x & 1:  # x ∈ d·S
            continue
        if fast:
            if x > F:
                out.append((x, _removed(T, x)))
        else:
            child = _removed(T, x)
            if theta_cache is None:
                step = theta(ctx, child)
            elif child.gap_mask in theta_cache:
                step = theta_cache[child.gap_mask]
            else:
                step = theta_cache[child.gap_mask] = theta(ctx, child)
            if step == x:
                out.append((x, child))
    return out


def enumerate_fiber(
    ctx: MultipleContext, root: NumericalSemigroup, bounds: TruncationBounds
) -> FiberTree:
    """Materialize the fiber tree of a maximal d-multiple, pruned at bounds.

    Frobenius number and genus grow monotonically along any branch, so
    pruning at either loses no node inside the bound.  max_nodes counts in
    depth-first preorder with children ascending by removed generator.
    """
    bounds.require_finite()
    _require_multiple(ctx, root)
    if addable_gaps(ctx, root):
        raise NotMaximal(f"{root} is not a maximal {ctx.d}-multiple of {ctx.semigroup}")
    root_node = FiberNode(root, None, 0)
    tree = FiberTree(ctx, root_node)
    count = 1
    theta_cache: dict = {}

    def pending(node: FiberNode):
        if bounds.max_depth is not None and node.depth >= bounds.max_depth:
            return iter(())
        return iter(_child_pairs(ctx, node.semigroup, theta_cache))

    # An explicit stack of (node, its unvisited child pairs) keeps depth off
    # the interpreter's recursion limit.
    stack = [(root_node, pending(root_node))]
    while stack:
        node, rest = stack[-1]
        for x, child in rest:
            if bounds.max_frobenius is not None and child.frobenius > bounds.max_frobenius:
                continue
            if bounds.max_genus is not None and child.genus > bounds.max_genus:
                continue
            if bounds.max_nodes is not None and count >= bounds.max_nodes:
                return tree
            child_node = FiberNode(child, x, node.depth + 1)
            node.children.append(child_node)
            count += 1
            stack.append((child_node, pending(child_node)))
            break
        else:
            stack.pop()
    return tree


def fiber_tree_to_dot(tree: FiberTree) -> str:
    """DOT rendering: node label '⟨msg⟩ F=.. g=..', edge label = removed generator."""
    lines = ["digraph fiber {"]
    for node in tree.nodes():
        s = node.semigroup
        lines.append(f'  "{s}" [label="{s} F={s.frobenius} g={s.genus}"];')
    for node in tree.nodes():
        for child in node.children:
            lines.append(
                f'  "{node.semigroup}" -> "{child.semigroup}" '
                f'[label="{child.removed_generator}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def fiber_node_to_json_dict(node: FiberNode) -> dict:
    return {
        "semigroup": node.semigroup.to_json_dict(),
        "removed_generator": node.removed_generator,
        "depth": node.depth,
        "children": [fiber_node_to_json_dict(c) for c in node.children],
    }
