"""The saturation map on d-multiples and its fibers, arranged as rooted trees.

θ(T) is the largest gap whose adjunction keeps T a d-multiple of S; iterating
it (the saturation map Θ) reaches a maximal d-multiple R.  Above
N = d·F(S), θ(T) is F(T), so :func:`saturate` takes those steps as one
build of T ∪ (N, ∞) and adjoins addable gaps only below N.  The fiber of R is
arranged as a rooted tree with root R, where the children of T are the
T ∖ {x} whose θ-step leads straight back to T.  Fibers may be infinite, so
enumeration always demands an explicit truncation bound.

:func:`enumerate_fiber` is one walk that records a fiber as flat preorder
lists (:class:`FiberTree`: gap mask, msg, removed generator, depth and
parent index per node), which the low-e search and the text, JSON and DOT
renderers of :mod:`numsgps.cli` read directly; no semigroup object is built
per node.  Most nodes cost the walk one kernel call, the removal that
gives their msg: as in the tree of numerical semigroups (Fromentin &
Hivert, Math. Comp. 85, 2016), a child T = P ∖ {x} with x > F(P) and
x ≠ m(P) takes its child edges from P's: the later ones, plus x + m(P)
when that is a new generator.  Only the root and a child with x < F(P) or
x = m(P) decide theirs from bits, in :func:`_child_pairs`: about one node
in ten of the benchmark's ``fiber`` workload.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate
from operator import or_

from .core import NumericalSemigroup, _adjoined, _bits, _from_gap_mask, _removed, _removed_msg
# Unused here; perfbench/selftest.py checks that its tracer reaches the
# builder through every namespace that bound it, this one included.
from .core import _from_gap_tuple  # noqa: F401
from .errors import (
    BoundsMissing,
    InternalInvariantError,
    InvalidInput,
    NotAMultiple,
    NotMaximal,
)
from .multiples import MultipleContext, addable_gaps, is_d_multiple


@dataclass(frozen=True)
class TruncationBounds:
    """Pruning limits for fiber enumeration and the low-e search; at least
    one must be set, and none may be negative.  They prune only the
    descendants of a fiber's root, which :func:`enumerate_fiber` always
    keeps: max_nodes 0 and 1 both give the root alone."""

    max_frobenius: int | None = None
    max_genus: int | None = None
    max_depth: int | None = None
    max_nodes: int | None = None

    def __post_init__(self):
        for bound in fields(self):
            value = getattr(self, bound.name)
            if value is not None and value < 0:
                flag = "--" + bound.name.replace("_", "-")
                raise InvalidInput(f"{flag} must be a non-negative integer, got {value}")

    def require_finite(self, search: str):
        """Refuse, naming ``search`` (the caller), when no bound is set."""
        if all(getattr(self, bound.name) is None for bound in fields(self)):
            raise BoundsMissing(
                f"{search} requires at least one bound: --max-frobenius, "
                "--max-genus, --max-depth or --max-nodes"
            )


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
    """A fiber as flat lists in depth-first preorder, children by ascending
    removed generator: node i is the semigroup (``gap_mask[i]``, ``msg[i]``)
    at depth ``depth[i]``, reached from node ``parent[i]`` by removing
    ``removed_generator[i]``.  Node 0 is the root, with parent -1 and
    removed generator None.  ``semigroup`` is built on first read; the
    caller keeps the (S, d) context."""

    gap_mask: list[int]
    msg: list[tuple[int, ...]]
    removed_generator: list[int | None]
    depth: list[int]
    parent: list[int]

    @cached_property
    def semigroup(self) -> list[NumericalSemigroup]:
        return list(map(NumericalSemigroup, self.gap_mask, self.msg))

    def nodes(self) -> list[FiberNode]:
        """The nodes as linked :class:`FiberNode` objects, in preorder; they
        are built on each call, as nothing in the package needs them."""
        out = list(map(FiberNode, self.semigroup, self.removed_generator, self.depth))
        for node, p in zip(out[1:], self.parent[1:]):
            out[p].children.append(node)
        return out


def _require_multiple(ctx: MultipleContext, T: NumericalSemigroup):
    if not is_d_multiple(ctx, T):
        raise NotAMultiple(f"{T} is not a {ctx.d}-multiple of {ctx.semigroup}")


def theta(ctx: MultipleContext, T: NumericalSemigroup) -> int | None:
    """θ(T): the largest gap z with T ∪ {z} still a d-multiple, else None.

    None exactly when T is a maximal d-multiple.  Raises
    :class:`NotAMultiple` unless T is a d-multiple of S.  When
    F(T) ≠ d·F(S), d ∤ F(T) (:func:`divisibility_check`), so θ(T) = F(T)
    without any pseudo-Frobenius computation.
    """
    _require_multiple(ctx, T)
    if T.is_whole_n:
        return None
    if T.frobenius != ctx.scaled_frobenius:
        return T.frobenius
    addable = addable_gaps(ctx, T)
    return max(addable) if addable else None


def saturate(ctx: MultipleContext, T: NumericalSemigroup) -> NumericalSemigroup:
    """The maximal d-multiple Θ(T) reached by repeatedly adjoining θ.

    While F(T) > N = d·F(S), θ(T) = F(T), so those steps end at
    T ∪ (N, ∞), which is built at once (ℕ when S = ℕ, where N = −d).
    From there F(T) = N, and θ(T) is the largest addable gap.
    """
    _require_multiple(ctx, T)
    N = ctx.scaled_frobenius
    if T.frobenius > N:
        T = _from_gap_mask(T.gap_mask & (1 << max(N + 1, 0)) - 1)
    while addable := addable_gaps(ctx, T):
        T = _adjoined(T, max(addable))
    return T


def divisibility_check(ctx: MultipleContext, T: NumericalSemigroup) -> bool:
    """Whether d divides F(T), for a d-multiple T.

    The one check of the lemma d | F(T) ⇔ F(T) = d·F(S), which θ and the
    fiber children rely on; a disagreement is a bug, not bad input, and
    raises :class:`InternalInvariantError`.
    """
    _require_multiple(ctx, T)
    divisible = T.frobenius % ctx.d == 0
    if divisible != (T.frobenius == ctx.scaled_frobenius):
        raise InternalInvariantError(
            f"divisibility of F({T}) = {T.frobenius} by {ctx.d} disagrees with "
            f"minimality against {ctx.scaled_frobenius}"
        )
    return divisible


def children(ctx: MultipleContext, T: NumericalSemigroup) -> tuple[FiberNode, ...]:
    """The children of T in its fiber tree, ascending by removed generator.

    A child is T ∖ {x} for x a minimal generator outside d·S whose θ-step
    returns x.  Which x qualify is decided from the bits of T alone: when
    F(T) differs from d·F(S) it is the test x > F(T), and otherwise a
    pseudo-Frobenius mask of T ∖ {x} computed from T's own gap mask and
    generators.  Only the kept children are built.
    """
    _require_multiple(ctx, T)
    return tuple(FiberNode(_removed(T, x), x, 0) for x in _child_pairs(ctx, T.gap_mask, T.msg))


def _child_pairs(ctx, G, msg, x_max=None):
    # The ascending removed generators x of the children of T, the
    # semigroup with gap mask G and msg, decided from bits; nothing is
    # built here.  enumerate_fiber calls it only at a root and at a child
    # T = P ∖ {x} with x < F(P) or x = m(P); every other child inherits its
    # edges from P.  (The name stays: perfbench/tracer.py wraps this
    # function by it.)  Each candidate T' = T ∖ {x} is again a
    # d-multiple, since x ∉ d·S, and F(T') = max(F, x) with F = F(T).
    # When F(T') ≠ d·F(S), θ(T') = F(T'), so T' is kept iff x > F.  If
    # F ≠ d·F(S), that holds for every x, and as then F > d·F(S), an x > F
    # lies in d·S iff d | x: the kept x are one slice of msg less its
    # multiples of d.  When x < F = d·F(S), x itself is addable in T'
    # (T' ∪ {x} = T), so θ(T') = x iff no z in (x, F] is addable in T':
    # z ∈ PF(T'), 2z ∈ T' and z ∉ d·gaps(S).  The members a (a ∈ msg(T), a ≠ x), x + a and 3x
    # generate T' (see core._removed_msg), so z > x is in PF(T') iff it is a
    # gap with no z + c a gap for those c; above bit x the gap mask of T' is
    # G, so the shifts are shifts of G.  No verdict is cached: one child is
    # probed from several parents, with different x.  F(T') > x_max (a
    # Frobenius bound) would only be dropped, so only the x ≤ x_max are
    # probed.
    d, scaled, F = ctx.d, ctx.scaled_gap_mask, G.bit_length() - 1
    end = len(msg) if x_max is None else bisect_right(msg, x_max)
    if F != ctx.scaled_frobenius:
        return [x for x in msg[bisect_right(msg, F):end] if x % d]
    shifted = [G >> a for a in msg]
    before = [0, *accumulate(shifted, or_)]  # before[i]: a < msg[i]
    after = [*accumulate(reversed(shifted), or_)][::-1] + [0]  # a ≥ msg[i]
    out = []
    for i, x in enumerate(msg[:end]):
        if x % d == 0 and not scaled >> x & 1:  # x ∈ d·S
            continue
        if x < F:
            # Shifts by c = a ≠ x, then x + a, then 3x.
            covered = before[i] | after[i + 1] | after[0] >> x | G >> 3 * x
            pf = G & ~(covered | scaled | (2 << x) - 1)  # PF(T') above x, off d·gaps(S)
            # Such a z is addable iff 2z ∈ T', as it is whenever 2z > F.
            if pf >> F // 2 + 1 or not all(G >> 2 * z & 1 for z in _bits(pf)):
                continue
        out.append(x)
    return out


def enumerate_fiber(
    ctx: MultipleContext, root: NumericalSemigroup, bounds: TruncationBounds
) -> FiberTree:
    """The fiber tree of a maximal d-multiple, pruned at bounds, as flat
    preorder lists (:class:`FiberTree`).

    The root is always in the tree, whatever the bounds: they prune only its
    descendants, so max_nodes 0, max_depth 0, max_genus ≤ g(root) or
    max_frobenius < F(root) give the root alone.

    Frobenius number and genus grow monotonically along any branch, so
    pruning at either loses no node inside the bound.  max_nodes counts in
    depth-first preorder with children ascending by removed generator.

    A child T ∖ {x} of T has genus g(T) + 1 and Frobenius number
    max(F(T), x), both known before it is built.  So a node at max_depth, at
    max_genus or past max_frobenius (only the root can be) gets no edges at
    all, and every other node gets only the x ≤ max_frobenius that the
    θ-step keeps.  The walk keeps one stack of nodes with the child edges
    they have left, and appends a child's gap mask and msg only when it pops
    its edge, so every node made is in the tree, and the msg from
    :func:`~numsgps.core._removed_msg` is the one kernel call of most nodes.

    A child T = P ∖ {x} with x > F(P) and x ≠ m = m(P) has
    F(T) = x > F(P) ≥ d·F(S), so its edges are its generators in
    (x, max_frobenius] outside d·S, that is, not divisible by d.  Those of P
    are P's later edges, and the one new generator T can have is x + m
    (:func:`~numsgps.core._removed_msg` adds it), so T takes its edges from P
    without a look at its bits.  The root and a child with x < F(P) (so
    F(T) = d·F(S)) or x = m(P) (an ordinary P, which gains more generators)
    get theirs from :func:`_child_pairs`, as :func:`children` does.  No θ
    result is cached across nodes.
    """
    bounds.require_finite("fiber enumeration")
    _require_multiple(ctx, root)
    if addable_gaps(ctx, root):
        raise NotMaximal(f"{root} is not a maximal {ctx.d}-multiple of {ctx.semigroup}")
    gap_mask, msg, removed, depth, parent = [root.gap_mask], [root.msg], [None], [0], [-1]
    # A node at depth k has genus g(root) + k, so one depth limit holds both
    # bounds: only a node at depth k < limit gets child edges.
    limit = min(
        float("inf") if bounds.max_depth is None else bounds.max_depth,
        float("inf") if bounds.max_genus is None else bounds.max_genus - root.genus,
    )
    x_max = bounds.max_frobenius
    if x_max is not None and root.frobenius > x_max:
        limit = 0  # the children's F(T) ≤ x_max, as x ≤ x_max
    y_max = float("inf") if x_max is None else x_max
    max_nodes = float("inf") if bounds.max_nodes is None else bounds.max_nodes
    d = ctx.d
    # An entry (p, edges) holds node p's child edges not yet taken, in
    # descending order, so popping them takes them ascending; an entry
    # leaves the stack with its last edge.  The explicit stack keeps depth
    # off the interpreter's recursion limit.
    edges = _child_pairs(ctx, root.gap_mask, root.msg, x_max)[::-1] if limit > 0 else []
    stack = [(0, edges)] if edges else []
    while stack and len(msg) < max_nodes:
        p, edges = stack[-1]
        x = edges.pop()
        if not edges:
            stack.pop()
        P_mask, P_msg = gap_mask[p], msg[p]
        T_mask, T_msg = P_mask | 1 << x, _removed_msg(P_mask, P_msg, x)
        k = depth[p] + 1
        if k < limit:
            m = P_msg[0]
            if x > P_mask.bit_length() - 1 and x != m:
                # P's later edges, plus x + m if it is a new generator of
                # T within x_max and off d·S.
                y = x + m
                if len(T_msg) == len(P_msg) and y % d and y <= y_max:
                    own = [y, *edges]
                else:
                    own = edges[:]
            else:
                own = _child_pairs(ctx, T_mask, T_msg, x_max)[::-1]
            if own:
                stack.append((len(msg), own))
        gap_mask.append(T_mask)
        msg.append(T_msg)
        removed.append(x)
        depth.append(k)
        parent.append(p)
    return FiberTree(gap_mask, msg, removed, depth, parent)
