"""θ, saturation, fiber-tree children and truncated enumeration, checked
against definition-level brute force."""

import itertools
from math import inf

import pytest

from numsgps.core import WHOLE_N, NumericalSemigroup, _removed, _removed_msg, adjoin
from numsgps.errors import BoundsMissing, InvalidInput, NotAMultiple, NotMaximal
from numsgps.fibers import (
    TruncationBounds,
    _child_pairs,
    children,
    divisibility_check,
    enumerate_fiber,
    saturate,
    theta,
)
from numsgps.multiples import MultipleContext, addable_gaps, is_d_multiple, max_multiples, quotient
from numsgps.oracle import (
    EnumerationBudget,
    all_multiples_bounded,
    children_bruteforce,
    semigroups_by_genus,
    theta_bruteforce,
)

from conftest import reference_fiber_walk, sgp


def ctx_of(gens, d):
    return MultipleContext(sgp(*gens), d)


# (gens, d, bounds) of the fiber walks held against the nested reference walk.
FLAT_WALK_CASES = [
    ((2, 3), 11, {"max_genus": 12}),
    ((2, 3), 7, {"max_frobenius": 24}),
    ((3, 4, 5), 3, {"max_depth": 4}),
    ((4, 5, 6), 3, {"max_frobenius": 27, "max_genus": 16}),
    ((3, 4, 5), 3, {"max_nodes": 1}),
    ((3, 4, 5), 3, {"max_nodes": 2}),
    ((3, 4, 5), 3, {"max_nodes": 7}),
    ((3, 4, 5), 3, {"max_nodes": 2000}),
    ((2, 3), 13, {"max_nodes": 90}),
    # x = m(P) > F(P): ⟨3,4,5⟩ ∖ {3} is the ordinary ⟨4,5,6,7⟩.
    ((2, 3), 2, {"max_genus": 7}),
    # Some x + m lie in d·S, and the cap falls among siblings.
    ((4, 6, 13, 15), 3, {"max_frobenius": 39, "max_nodes": 2000}),
    # Some x + m are generators above max_frobenius.
    ((3, 4, 5), 2, {"max_frobenius": 9}),
    # The root ℕ, with F = -1 and x = m(ℕ) = 1.
    ((1,), 2, {"max_nodes": 3}),
    ((1,), 3, {"max_genus": 6}),
]


class TestTheta:
    def test_ed1_value(self):
        ctx = ctx_of((5, 7, 9), 2)
        assert theta(ctx, sgp(9, 10, 14)) == 35

    def test_maximal_gives_none(self):
        ctx = ctx_of((3, 4), 5)
        assert theta(ctx, sgp(6, 9, 11)) is None

    def test_every_maximal_gives_none(self, small_semigroups):
        for S in small_semigroups[::6]:
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                for R in max_multiples(ctx).maximals:
                    assert theta(ctx, R) is None

    def test_requires_multiple(self):
        with pytest.raises(NotAMultiple):
            theta(ctx_of((3, 4), 5), sgp(2, 3))

    def test_matches_bruteforce(self, small_semigroups):
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                budget = EnumerationBudget(d * S.frobenius + 4, 40, 4000)
                for T in all_multiples_bounded(ctx, budget):
                    assert theta(ctx, T) == theta_bruteforce(ctx, T)

    def test_never_lands_in_scaled_semigroup(self, small_semigroups):
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                budget = EnumerationBudget(d * S.frobenius + 4, 40, 4000)
                for T in all_multiples_bounded(ctx, budget):
                    z = theta(ctx, T)
                    if z is not None:
                        assert not ctx.in_scaled_semigroup(z)

    def test_fast_path_when_not_divisible(self, small_semigroups):
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                budget = EnumerationBudget(d * S.frobenius + 4, 40, 4000)
                for T in all_multiples_bounded(ctx, budget):
                    if T.frobenius % d != 0:
                        assert theta(ctx, T) == T.frobenius


class TestSaturate:
    def test_example_29(self):
        ctx = ctx_of((3, 4, 5), 3)
        assert saturate(ctx, sgp(4, 7, 9, 10)) == sgp(4, 5, 7)

    def test_fixed_point_on_maximal(self):
        ctx = ctx_of((3, 4), 5)
        assert saturate(ctx, sgp(6, 9, 11)) == sgp(6, 9, 11)

    def test_lands_in_maximals(self, small_semigroups):
        """Θ(T) is a maximal multiple above T, and the one that adjoining θ
        until it is None reaches, also from F(T) > d·F(S)."""
        above = 0
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                maximals = set(max_multiples(ctx).maximals)
                budget = EnumerationBudget(d * S.frobenius + 4, 40, 4000)
                for T in all_multiples_bounded(ctx, budget):
                    R = saturate(ctx, T)
                    assert R in maximals
                    assert T <= R
                    above += T.frobenius > ctx.scaled_frobenius
                    while (z := theta(ctx, T)) is not None:
                        T = adjoin(T, z)
                    assert R == T
        assert above


class TestChildren:
    def test_children_include_8_and_9_removals(self):
        ctx = ctx_of((2, 3), 11)
        got = {
            (n.removed_generator, n.semigroup)
            for n in children(ctx, sgp(5, 7, 8, 9))
        }
        assert (8, sgp(5, 7, 9, 13)) in got
        assert (9, sgp(5, 7, 8)) in got

    def test_full_child_set_oracle_confirmed(self):
        """The complete child set of ⟨5,7,8,9⟩ has a third member, ⟨5,8,9,12⟩,
        since θ(⟨5,7,8,9⟩ ∖ {7}) = 7; brute force from the definitions agrees."""
        ctx = ctx_of((2, 3), 11)
        T = sgp(5, 7, 8, 9)
        got = {(n.removed_generator, n.semigroup) for n in children(ctx, T)}
        assert got == {
            (7, sgp(5, 8, 9, 12)),
            (8, sgp(5, 7, 9, 13)),
            (9, sgp(5, 7, 8)),
        }
        assert got == set(children_bruteforce(ctx, T))

    def test_leaf_589(self):
        assert children(ctx_of((3, 5, 7), 3), sgp(5, 8, 9)) == ()

    def test_leaf_589_pf_data(self):
        """The PF sets behind the ⟨5,8,9⟩ leaf verdict: in every case the
        largest eligible adjunction differs from the removed generator."""
        from numsgps.core import pseudo_frobenius, remove_minimal_generator

        T = sgp(5, 8, 9)
        expected = {
            5: (5, 6, 7, 11, 12),
            8: (4, 8, 11, 12),
            9: (9, 11, 12),
        }
        for x, pf in expected.items():
            assert pseudo_frobenius(remove_minimal_generator(T, x)) == pf

    def test_leaf_6911_all_d(self):
        T = sgp(6, 9, 11)
        for d in range(1, 9):
            S = quotient(T, d)
            assert children(MultipleContext(S, d), T) == ()

    def test_matches_bruteforce(self, small_semigroups):
        for S in small_semigroups:
            if S.frobenius > 4:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                budget = EnumerationBudget(d * S.frobenius + 4, 40, 4000)
                for T in all_multiples_bounded(ctx, budget):
                    got = {
                        (n.removed_generator, n.semigroup)
                        for n in children(ctx, T)
                    }
                    assert got == set(children_bruteforce(ctx, T))

    def test_child_verdict_matches_theta_step(self):
        """_child_pairs decides each child from T's bits before building it;
        at every node of the truncated fibers of every S with genus ≤ 4 it
        keeps exactly the x ∉ d·S with θ(T ∖ {x}) = x, and a Frobenius
        bound x_max cuts that list at x ≤ x_max."""
        nodes = 0
        for S in semigroups_by_genus(4)[1:]:
            for d in (2, 3, 4):
                ctx = MultipleContext(S, d)
                bounds = TruncationBounds(max_frobenius=d * S.frobenius + 6, max_nodes=200)
                for R in max_multiples(ctx).maximals:
                    for T in enumerate_fiber(ctx, R, bounds).semigroup:
                        nodes += 1
                        kept = [
                            x for x in T.msg
                            if not ctx.in_scaled_semigroup(x)
                            and theta(ctx, _removed(T, x)) == x
                        ]
                        assert _child_pairs(ctx, T.gap_mask, T.msg) == kept
                        x_max = T.msg[len(T.msg) // 2]
                        assert _child_pairs(ctx, T.gap_mask, T.msg, x_max) == [
                            x for x in kept if x <= x_max
                        ]
        assert nodes == 9174

    def test_edge_soundness(self, small_semigroups):
        """Every child arises by removing a minimal generator outside d·S,
        and adjoining θ(child) recovers the parent."""
        for S in small_semigroups[::4]:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                for R in max_multiples(ctx).maximals:
                    for node in children(ctx, R):
                        x = node.removed_generator
                        assert x in R.msg
                        assert not ctx.in_scaled_semigroup(x)
                        assert theta(ctx, node.semigroup) == x
                        assert frozenset(node.semigroup.gaps) == frozenset(R.gaps) | {x}

    def test_children_exceed_theta(self, small_semigroups):
        """Every child T ∖ {x} of a non-maximal d-multiple T has x > θ(T),
        so the walk probes a child T = P ∖ {x0}, whose θ is x0, only above
        x0; along every fiber branch the removed generators rise."""
        at_f0 = 0  # T with F(T) = d·F(S) and a child, where x > θ(T) needs the proof
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                budget = EnumerationBudget(d * S.frobenius + 5, 45, 4000)
                for T in all_multiples_bounded(ctx, budget):
                    t = theta(ctx, T)
                    if t is None:
                        continue
                    xs = [n.removed_generator for n in children(ctx, T)]
                    assert all(x > t for x in xs), (S, d, T)
                    at_f0 += bool(xs) and T.frobenius == d * S.frobenius
        assert at_f0 > 200
        for gens, d, bound in FLAT_WALK_CASES:
            ctx = ctx_of(gens, d)
            roots = [WHOLE_N] if gens == (1,) else max_multiples(ctx).maximals
            for R in roots:
                tree = enumerate_fiber(ctx, R, TruncationBounds(**bound))
                x = tree.removed_generator
                for i, p in enumerate(tree.parent):
                    if p > 0:
                        assert x[i] > x[p], (gens, d, bound, i)


class TestDivisibility:
    def test_examples(self):
        assert divisibility_check(ctx_of((2, 3), 11), sgp(5, 7, 8, 9)) is True
        assert divisibility_check(ctx_of((5, 7, 9), 2), sgp(9, 10, 14)) is False
        S = sgp(3, 5, 7)
        assert divisibility_check(MultipleContext(S, 1), S) is True

    def test_equivalence_on_pool(self, small_semigroups):
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                budget = EnumerationBudget(d * S.frobenius + 5, 45, 4000)
                for T in all_multiples_bounded(ctx, budget):
                    assert divisibility_check(ctx, T) == (
                        T.frobenius == d * S.frobenius
                    )


class TestEnumerateFiber:
    def test_singleton_fiber(self):
        ctx = ctx_of((3, 4), 5)
        tree = enumerate_fiber(ctx, sgp(6, 9, 11), TruncationBounds(max_genus=30))
        assert tree.semigroup == [sgp(6, 9, 11)]

    def test_contains_chain_down_to_578(self):
        ctx = ctx_of((2, 3), 11)
        root = saturate(ctx, sgp(5, 7, 8, 9))
        assert root == sgp(5, 7, 8, 9)
        bound = sgp(5, 7, 8).genus
        tree = enumerate_fiber(ctx, root, TruncationBounds(max_genus=bound))
        got = set(tree.semigroup)
        assert {sgp(5, 7, 8, 9), sgp(5, 7, 9, 13), sgp(5, 7, 8)} <= got

    @pytest.mark.parametrize(
        "bound, value",
        [("max_nodes", 0), ("max_nodes", 1), ("max_depth", 0), ("max_genus", 0),
         ("max_frobenius", 0)],
    )
    def test_max_nodes_one(self, bound, value):
        # The bounds prune only below the root, which is always kept.
        ctx = ctx_of((2, 3), 11)
        tree = enumerate_fiber(ctx, sgp(5, 7, 8, 9), TruncationBounds(**{bound: value}))
        assert tree.semigroup == [sgp(5, 7, 8, 9)]

    def test_bounds_required(self):
        with pytest.raises(
            BoundsMissing,
            match=r"^fiber enumeration requires at least one bound: --max-frobenius, "
            r"--max-genus, --max-depth or --max-nodes$",
        ):
            TruncationBounds()

    @pytest.mark.parametrize("field", ["max_frobenius", "max_genus", "max_depth", "max_nodes"])
    def test_negative_bound_refused(self, field):
        flag = "--" + field.replace("_", "-")
        with pytest.raises(InvalidInput, match=f"^{flag} must be a non-negative integer, got -1$"):
            TruncationBounds(**{field: -1})
        assert getattr(TruncationBounds(**{field: 0}), field) == 0

    def test_root_must_be_maximal(self):
        ctx = ctx_of((3, 4, 5), 3)
        with pytest.raises(NotMaximal):
            enumerate_fiber(ctx, sgp(4, 7, 9, 10), TruncationBounds(max_genus=9))
        with pytest.raises(NotAMultiple):
            enumerate_fiber(ctx, sgp(2, 3), TruncationBounds(max_genus=9))

    def test_every_node_saturates_to_root(self, small_semigroups):
        for S in small_semigroups[::5]:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                for R in max_multiples(ctx).maximals:
                    bounds = TruncationBounds(max_frobenius=d * S.frobenius + 4)
                    for T in enumerate_fiber(ctx, R, bounds).semigroup:
                        assert saturate(ctx, T) == R

    def test_partition_of_bounded_multiples(self, small_semigroups):
        """Truncated fibers over all roots partition the bounded multiples."""
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                fmax = d * S.frobenius + 5
                bounds = TruncationBounds(max_frobenius=fmax)
                seen: dict = {}
                for R in max_multiples(ctx).maximals:
                    for T in enumerate_fiber(ctx, R, bounds).semigroup:
                        assert T not in seen, "fibers must be disjoint"
                        seen[T] = R
                budget = EnumerationBudget(fmax, fmax, 8000)
                expected = set(all_multiples_bounded(ctx, budget))
                assert set(seen) == expected

    def test_partition_of_genus_bounded_multiples(self, small_semigroups):
        """Fibers truncated at a genus bound above every root's genus
        partition the multiples of genus at most that bound; F < 2g bounds
        their Frobenius numbers for the oracle."""
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                roots = max_multiples(ctx).maximals
                gmax = max(R.genus for R in roots) + 2
                bounds = TruncationBounds(max_genus=gmax)
                seen = [T for R in roots for T in enumerate_fiber(ctx, R, bounds).semigroup]
                assert len(seen) == len(set(seen)), "fibers must be disjoint"
                budget = EnumerationBudget(2 * gmax - 1, gmax, 100_000)
                assert set(seen) == set(all_multiples_bounded(ctx, budget))

    def test_pruning_matches_filtered_reference(self, small_semigroups):
        """Every mix of the four bounds gives the preorder of a deeper
        depth-bounded tree, filtered by the bounds (the root always stays)
        and cut to the first max_nodes.  So building only the children the
        bounds keep loses no node, adds none and keeps the order.

        The reference depth covers every mix: a node with F ≤ f0 + 4 has
        genus at most F, so depth at most f0 + 4 − g(root); genus g(root) + 3
        means depth 3; and the first 9 nodes in preorder lie within depth 8.
        """
        for S in small_semigroups:
            if S.frobenius > 5:
                continue
            for d in (2, 3):
                ctx = MultipleContext(S, d)
                f0 = d * S.frobenius
                for R in max_multiples(ctx).maximals:
                    g0 = R.genus
                    deep = TruncationBounds(max_depth=max(f0 + 4 - g0, 8))
                    reference = [
                        (n.semigroup, n.removed_generator, n.depth)
                        for n in enumerate_fiber(ctx, R, deep).nodes()
                    ]
                    for mix in itertools.product(
                        (None, f0 - 1, f0, f0 + 2, f0 + 4),
                        (None, g0 - 1, g0, g0 + 1, g0 + 3),
                        (None, 0, 1, 3),
                        (None, 0, 1, 4, 9),
                    ):
                        if mix == (None,) * 4:
                            continue
                        fmax, gmax, dmax, nmax = mix
                        kept = [
                            (T, x, depth)
                            for T, x, depth in reference
                            if depth == 0
                            or (
                                (fmax is None or T.frobenius <= fmax)
                                and (gmax is None or T.genus <= gmax)
                                and (dmax is None or depth <= dmax)
                            )
                        ]
                        if nmax is not None:
                            kept = kept[: max(nmax, 1)]
                        tree = enumerate_fiber(ctx, R, TruncationBounds(*mix))
                        got = [(n.semigroup, n.removed_generator, n.depth) for n in tree.nodes()]
                        assert got == kept, (S, d, R, mix)

    def test_depth_bound(self):
        ctx = ctx_of((2, 3), 11)
        tree = enumerate_fiber(
            ctx, sgp(5, 7, 8, 9), TruncationBounds(max_depth=1, max_genus=20)
        )
        assert {n.depth for n in tree.nodes()} == {0, 1}

    @pytest.mark.parametrize(
        "gens, d, max_nodes, roots, nodes",
        [((3, 4, 5), 3, 2000, 1, 2000), ((2, 3), 13, 90, 8, 452)],
    )
    def test_builds_only_attached_children(self, monkeypatch, gens, d, max_nodes, roots, nodes):
        """A node-capped walk runs the removal kernel exactly for the
        non-root nodes T = P ∖ {x} with x ≤ F(P) or x = m(P), and for
        nothing else: the other nodes take the one-candidate removal inside
        the walk, and no child is computed ahead of the cap and then
        dropped."""
        builds = 0

        def counted(gap_mask, msg, x):
            nonlocal builds
            builds += 1
            return _removed_msg(gap_mask, msg, x)

        monkeypatch.setattr("numsgps.fibers._removed_msg", counted)
        ctx = ctx_of(gens, d)
        maximals = max_multiples(ctx).maximals
        got = kernel_nodes = 0
        for R in maximals:
            tree = enumerate_fiber(ctx, R, TruncationBounds(max_nodes=max_nodes))
            got += len(tree.nodes())
            kernel_nodes += sum(
                x <= tree.gap_mask[p].bit_length() - 1 or x == tree.msg[p][0]
                for p, x in zip(tree.parent[1:], tree.removed_generator[1:])
            )
        assert (len(maximals), got) == (roots, nodes)
        assert 0 < builds == kernel_nodes < nodes - roots

    @pytest.mark.parametrize("gens, d, bound", FLAT_WALK_CASES)
    def test_flat_walk_matches_nested_walk(self, monkeypatch, gens, d, bound):
        """The flat preorder lists hold the (depth, x, T) preorder of the
        nested walk they replaced, on each bound kind and on max_nodes cuts
        between siblings and, in a forest, at every root; each parent index
        points at the node the child is built from.

        The reference calls _child_pairs at every node.  The walk calls it
        only at a node that gets child edges and is a root or a child
        T = P ∖ {x} with x < F(P) or x = m(P); every other node inherits its
        edges from its parent's later siblings.  Each case past two nodes
        runs both branches."""
        probed = []

        def counted(ctx, G, msg, x_max=None, x_min=0):
            probed.append(NumericalSemigroup(G, msg))
            return _child_pairs(ctx, G, msg, x_max, x_min)

        monkeypatch.setattr("numsgps.fibers._child_pairs", counted)
        ctx = ctx_of(gens, d)
        bounds = TruncationBounds(**bound)
        roots = [WHOLE_N] if gens == (1,) else max_multiples(ctx).maximals
        branches = {"probed": 0, "inherited": 0}
        nodes = 0
        for R in roots:
            probed.clear()
            tree = enumerate_fiber(ctx, R, bounds)
            nodes += len(tree.parent)
            reference = reference_fiber_walk(ctx, R, bounds)
            nested, stack = [], [reference]
            while stack:
                nested.append(stack.pop())
                stack.extend(reversed(nested[-1].children))
            expected = [(n.depth, n.removed_generator, n.semigroup) for n in nested]
            assert list(zip(tree.depth, tree.removed_generator, tree.semigroup)) == expected
            assert tree.semigroup == [T for _, _, T in expected]
            # The FiberNode view links the same children.
            assert [(n.semigroup, len(n.children)) for n in tree.nodes()] == [
                (n.semigroup, len(n.children)) for n in nested
            ]
            assert tree.parent[0] == -1
            for i in range(1, len(tree.parent)):
                p = tree.parent[i]
                assert tree.depth[p] == tree.depth[i] - 1
                assert _removed(tree.semigroup[p], tree.removed_generator[i]) == tree.semigroup[i]
            # A node gets child edges below the depth and genus bounds, and
            # none under a root past max_frobenius.
            limit = min(bound.get("max_depth", inf), bound.get("max_genus", inf) - R.genus)
            if R.frobenius > bound.get("max_frobenius", inf):
                limit = 0
            calls = [R] if limit > 0 else []
            for i in range(1, len(tree.parent)):
                if tree.depth[i] >= limit:
                    continue
                P, x = tree.semigroup[tree.parent[i]], tree.removed_generator[i]
                if x < P.frobenius or x == P.multiplicity:
                    calls.append(tree.semigroup[i])
                    branches["probed"] += 1
                else:
                    branches["inherited"] += 1
            assert probed == calls
        if nodes > 2:
            assert branches["probed"] and branches["inherited"]

    def test_inline_removal_meets_every_outcome(self):
        """Over the cases above, the walk's own one-candidate removal, of
        T = P ∖ {x} with x > F(P) and x ≠ m(P) at a node that gets child
        edges, meets every outcome of y = x + m(P): y is new and pushed as
        an edge of T, so T has the child T ∖ {y}; y is new and dropped, as
        d | y or y > max_frobenius; y splits in T.
        test_flat_walk_matches_nested_walk holds each of those nodes and
        its children against the reference walk."""
        outcomes = set()
        for gens, d, bound in FLAT_WALK_CASES:
            ctx = ctx_of(gens, d)
            roots = [WHOLE_N] if gens == (1,) else max_multiples(ctx).maximals
            y_max = bound.get("max_frobenius", inf)
            for R in roots:
                tree = enumerate_fiber(ctx, R, TruncationBounds(**bound))
                limit = min(bound.get("max_depth", inf), bound.get("max_genus", inf) - R.genus)
                edges = set(zip(tree.parent, tree.removed_generator))
                for i in range(1, len(tree.parent)):
                    p, x = tree.parent[i], tree.removed_generator[i]
                    m = tree.msg[p][0]
                    if x <= tree.gap_mask[p].bit_length() - 1 or x == m or tree.depth[i] >= limit:
                        continue
                    y = x + m
                    if y not in tree.msg[i]:
                        outcomes.add("splits")
                    elif y % d == 0:
                        outcomes.add("in d·S")
                    elif y > y_max:
                        outcomes.add("above max_frobenius")
                    elif (i, y) in edges:  # a node cap may cut it
                        outcomes.add("pushed")
        assert outcomes == {"pushed", "in d·S", "above max_frobenius", "splits"}


class TestWholeNContext:
    def test_children_work_when_s_is_whole_n(self):
        # T/6 = ℕ for T = ⟨6,9,11⟩; the child rule still applies.
        T = sgp(6, 9, 11)
        ctx = MultipleContext(WHOLE_N, 6)
        assert is_d_multiple(ctx, T)
        assert children(ctx, T) == ()
        assert saturate(ctx, T) == WHOLE_N

    def test_d_past_the_closure_ceiling(self):
        # d·F(ℕ) = −d bounds no d, so the scaled gap mask must not be built
        # from d itself.
        ctx = MultipleContext(WHOLE_N, 10**12)
        assert ctx.scaled_gap_mask == 0
        tree = enumerate_fiber(ctx, WHOLE_N, TruncationBounds(max_nodes=3))
        assert [str(n.semigroup) for n in tree.nodes()] == ["⟨1⟩", "⟨2,3⟩", "⟨3,4,5⟩"]
        assert addable_gaps(ctx, sgp(2, 3)) == (1,)
        assert saturate(ctx, sgp(2, 3)) == WHOLE_N
