"""The command-line surface: exact text fixtures, canonical JSON round
trips, DOT output, CSV reproducibility and exit codes."""

import csv
import errno
import hashlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import numsgps
from numsgps import cli, fibers, multiples, rank
from numsgps.cli import canonical_json, main, parse_semigroup
from numsgps.oracle import (
    EnumerationBudget,
    all_multiples_bounded,
    all_with_frobenius,
    semigroups_by_genus,
)

from conftest import fiber_node_to_json_dict, reference_fiber_walk, sgp


# One or more JSON outputs of every subcommand that has a JSON format.
JSON_COMMANDS = (
    ["info", "--sgp", "5,7,9", "--format", "json"],
    ["info", "--sgp", "1", "--format", "json"],
    ["quotient", "--sgp", "6,9,11", "--d", "5", "--format", "json"],
    ["quotient", "--sgp", "3,5", "--d", "100", "--format", "json"],
    ["is-multiple", "--sgp", "3,4,5", "--d", "3", "--candidate", "4,5,7", "--format", "json"],
    ["is-multiple", "--sgp", "3,4,5", "--d", "2", "--candidate", "4,5,7", "--format", "json"],
    # ℕ nested as S (and as the candidate), and ⟨3,4⟩, whose largest
    # generator is below F, as the candidate.
    ["is-multiple", "--sgp", "1", "--d", "3", "--candidate", "1", "--format", "json"],
    ["ed1", "--sgp", "1", "--d", "2", "--x", "1", "--format", "json"],
    ["md-monoid", "--sgp", "1", "--d", "3", "--x", "2", "--format", "json"],
    ["is-multiple", "--sgp", "2,3", "--d", "2", "--candidate", "3,4", "--format", "json"],
    ["max-multiples", "--sgp", "3,5,7", "--d", "3", "--format", "json"],
    ["ed1", "--sgp", "5,7,9", "--d", "2", "--x", "9", "--format", "json"],
    ["full-rank", "--sgp", "4,5,6,7", "--format", "json"],
    ["md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", "9,10", "--format", "json"],
    ["md-monoid", "--sgp", "5,7,9", "--d", "2", "--format", "json"],
    ["unique-betti", "--c", "2,3,5", "--format", "json"],
    ["search-low-e", "--sgp", "4,5,7", "--dmax", "2", "--format", "json"],
    ["search-low-e", "--sgp", "3,5,7", "--dmax", "3", "--format", "json"],
    ["search-low-e", "--sgp", "3,5", "--dmax", "3", "--format", "json"],
    [
        "fiber-tree", "--sgp", "2,3", "--d", "11",
        "--root", "5,7,8,9", "--max-genus", "8", "--format", "json",
    ],
    ["oracle", "frobenius-census", "--f", "6", "--format", "json"],
    [
        "oracle", "multiples-bounded", "--sgp", "3,4,5", "--d", "2",
        "--max-frobenius", "6", "--format", "json",
    ],
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_generators(self):
        assert parse_semigroup("3,4,5") == sgp(3, 4, 5)

    def test_gaps(self):
        assert parse_semigroup("gaps:1,2") == sgp(3, 4, 5)

    def test_garbage(self, capsys):
        code, _, err = run(capsys, "info", "--sgp", "3,x")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "spec, outcome",
        [
            ("0,3", (2, "", "error: generators must be positive, got [0, 3]\n")),
            ("3,a", (2, "", "error: cannot parse generator list '3,a' as a comma list of integers\n")),
            (" 3, ,5", (0, "⟨3,5⟩\n", "")),  # blank parts are skipped, spaces stripped
            ("gaps:0,1", (2, "", "error: gaps must be positive, got [0, 1]\n")),
            ("gaps:1,x", (2, "", "error: cannot parse gap set '1,x' as a comma list of integers\n")),
        ],
    )
    def test_refusals_and_spacing(self, capsys, spec, outcome):
        assert run(capsys, "quotient", "--sgp", spec, "--d", "1") == outcome

    @pytest.mark.parametrize(
        "argv, what, raw",
        [
            (("info", "--sgp", "1_0,1_1"), "generator list", "1_0,1_1"),
            (("info", "--sgp", "٣,٥"), "generator list", "٣,٥"),
            (("info", "--sgp", "gaps:1,٢"), "gap set", "1,٢"),
            (("md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", "9,1_0"), "x set", "9,1_0"),
            (("md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", "٩"), "x set", "٩"),
            (("is-multiple", "--sgp", "3,4,5", "--d", "3", "--candidate", "4,5,7_0"),
             "generator list", "4,5,7_0"),
            (("is-multiple", "--sgp", "3,4,5", "--d", "3", "--candidate", "٤,٥,٧"),
             "generator list", "٤,٥,٧"),
        ],
    )
    def test_ascii_digits_only(self, capsys, argv, what, raw):
        """int() alone would take underscores and non-ASCII digits; a comma
        list is refused for either."""
        assert run(capsys, *argv) == (
            2, "", f"error: cannot parse {what} {raw!r} as a comma list of integers\n"
        )


class TestTextFixtures:
    def test_quotient(self, capsys):
        assert run(capsys, "quotient", "--sgp", "4,7,9,10", "--d", "3") == (
            0,
            "⟨3,4,5⟩\n",
            "",
        )

    def test_info_whole_n(self, capsys):
        assert run(capsys, "info", "--sgp", "1") == (0, "⟨1⟩ F=-1 g=0 e=1 m=1\n", "")

    def test_census(self, capsys):
        code, out, _ = run(capsys, "oracle", "frobenius-census", "--f", "6")
        assert code == 0
        assert out == "⟨4,5,7⟩\n⟨4,7,9,10⟩\n⟨5,7,8,9,11⟩\n⟨7,8,9,10,11,12,13⟩\n"

    def test_max_multiples(self, capsys):
        code, out, _ = run(capsys, "max-multiples", "--sgp", "3,4,5", "--d", "3")
        assert (code, out) == (0, "⟨4,5,7⟩\n")

    def test_is_multiple(self, capsys):
        code, out, _ = run(
            capsys, "is-multiple", "--sgp", "3,4,5", "--d", "3", "--candidate", "4,5,7"
        )
        assert (code, out) == (0, "true\n")

    def test_md_monoid(self, capsys):
        code, out, _ = run(capsys, "md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", "9,10")
        assert code == 0
        assert out == "minimal system {9} md-e=1 semigroup ⟨9,10,14⟩\n"

    def test_md_monoid_not_a_semigroup(self, capsys):
        """X = ∅ leaves M = 2·⟨5,7,9⟩, of gcd 2, so the scaled monoid is
        printed and the JSON has no semigroup."""
        code, out, _ = run(capsys, "md-monoid", "--sgp", "5,7,9", "--d", "2")
        assert (code, out) == (0, "minimal system {} md-e=0 monoid 2*⟨5,7,9⟩\n")
        code, out, _ = run(capsys, "md-monoid", "--sgp", "5,7,9", "--d", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["is_semigroup"], payload["semigroup"]) == (False, None)
        assert (payload["minimal_system"], payload["md_embedding_dimension"]) == ([], 0)

    def test_md_monoid_over_whole_n(self, capsys):
        code, out, _ = run(capsys, "md-monoid", "--sgp", "1", "--d", "2", "--x", "3")
        assert (code, out) == (0, "minimal system {3} md-e=1 semigroup ⟨2,3⟩\n")

    def test_ed1(self, capsys):
        code, out, _ = run(capsys, "ed1", "--sgp", "5,7,9", "--d", "2", "--x", "9")
        assert code == 0
        assert out == "⟨9,10,14⟩ F=35 g=20 PF={31,35} t=2 gluing=no\n"

    def test_full_rank(self, capsys):
        code, out, _ = run(capsys, "full-rank", "--sgp", "21,24,25,31")
        assert code == 0
        assert out.endswith("full quotient rank (condition holds)\n")
        assert "80 in Ap(⟨21,24,25,31⟩,21): yes" in out

    def test_unique_betti(self, capsys):
        code, out, _ = run(capsys, "unique-betti", "--c", "2,3,5")
        assert (code, out) == (0, "⟨6,10,15⟩ F=29 g=15 full quotient rank\n")


# Pieces of random str keys and values: ASCII, non-ASCII, and characters
# that JSON escapes.
_TEXT_PIECES = (
    "a", "S", "gaps", "é", "⟨2,3⟩", "·", "🂡", '"', "\\", "\n", "\t", "\x00", "\x1f", "\u2028", "/",
)


def random_text(rng) -> str:
    return "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randrange(4)))


def random_scalar(rng):
    return rng.choice((
        lambda: rng.randint(-1000, 1000),
        lambda: rng.randint(2**64, 2**70) * rng.choice((1, -1)),
        lambda: rng.choice((True, False, None)),
        lambda: rng.choice((0.0, -0.0, 1.5, 1e-7, 1e300, -2.5e16, rng.uniform(-1e6, 1e6),
                            float("inf"), float("-inf"), float("nan"))),
        lambda: random_text(rng),
    ))()


def random_payload(rng, depth=0):
    """A random JSON payload of str-keyed dicts, lists and tuples (some
    of plain ints, some with bools mixed in, some empty) and scalars."""
    roll = rng.random() if depth < 5 else 1.0
    n = rng.randrange(5)
    if roll < 0.25:
        return {random_text(rng): random_payload(rng, depth + 1) for _ in range(n)}
    if roll < 0.45:
        return [random_payload(rng, depth + 1) for _ in range(n)]
    if roll < 0.55:
        return tuple(random_payload(rng, depth + 1) for _ in range(n))
    if roll < 0.75:
        ints = [rng.choice((rng.randint(-50, 50), rng.randint(2**64, 2**66))) for _ in range(n)]
        if ints and rng.random() < 0.3:
            ints[rng.randrange(n)] = rng.choice((True, False))
        return ints
    return random_scalar(rng)


class TestJson:
    def test_round_trip_byte_identical(self, capsys):
        for argv in JSON_COMMANDS:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            payload = json.loads(out)
            expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
            assert canonical_json(payload) == out == expected + "\n"

    def test_canonical_json_scalars(self):
        payload = {"é": ["⟨2,3⟩", 'q"\\\n', -7, 2**70, 1.5, True, False, None, [], {}]}
        expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
        assert canonical_json(payload) == expected + "\n"

    @pytest.mark.parametrize(
        "payload",
        [
            [1, True],
            [True, 1],
            [-1, -(2**70), 0, 2**64, 2**64 + 1],
            (3, 4, 5),
            {"t": ((1, 2), (), (3,))},
            [[[1, 2], [3]], [[[4, 5], [6]]]],
            {"a": [], "b": [[]], "c": [[], [7]]},
            [{"msg": [3, 4, 5], "gaps": [1, 2]}, {"msg": [1], "gaps": []}],
        ],
    )
    def test_canonical_json_int_lists(self, payload):
        expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
        assert canonical_json(payload) == expected + "\n"

    def test_canonical_json_random_payloads(self):
        rng = random.Random(38)
        for _ in range(400):
            payload = random_payload(rng)
            expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
            assert canonical_json(payload) == expected + "\n", payload

    def test_canonical_json_semigroups(self):
        # Every S of genus ≤ 8, ℕ and ⟨3,4⟩ (largest generator below F)
        # among them, at nesting levels 0 to 3: a semigroup value is
        # written as its to_json_dict() would be.
        found = semigroups_by_genus(8)
        assert {(1,), (3, 4)} <= {S.msg for S in found}
        for S in found:
            for shape in (
                lambda v: v,
                lambda v: {"S": v, "d": 2},
                lambda v: [v, 7, None],
                lambda v: {"a": [[], v], "z": True},
            ):
                expected = shape(S.to_json_dict())
                expected = json.dumps(expected, sort_keys=True, indent=2, ensure_ascii=False)
                assert canonical_json(shape(S)) == expected + "\n", S

    def test_quotient_json(self, capsys):
        code, out, _ = run(capsys, "quotient", "--sgp", "6,9,11", "--d", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "msg": [3, 4],
            "gaps": [1, 2, 5],
            "frobenius": 5,
            "genus": 3,
        }


class TestFiberTree:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "fiber-tree", "--sgp", "3,4", "--d", "5",
            "--root", "6,9,11", "--max-genus", "20",
        )
        assert (code, out) == (0, "⟨6,9,11⟩ F=25 g=13\n")

    def test_dot(self, capsys, tmp_path):
        target = tmp_path / "tree.dot"
        argv = (
            "fiber-tree", "--sgp", "2,3", "--d", "11",
            "--root", "5,7,8,9", "--max-genus", "7", "--format", "dot",
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, "--out", str(target), *argv) == (0, "", "")
        assert out == target.read_text(encoding="utf-8")
        assert '"⟨5,7,8,9⟩" -> "⟨5,7,8⟩" [label="9"]' in out
        assert out.splitlines()[0] == "digraph fiber {"

    def test_dot_output_is_stable(self):
        ctx = multiples.MultipleContext(sgp(2, 3), 11)
        bounds = fibers.TruncationBounds(max_genus=7)
        roots = (sgp(5, 7, 8, 9), sgp(4, 5))
        trees = [fibers.enumerate_fiber(ctx, root, bounds) for root in roots]
        dot = "".join(cli._trees_dot(trees))
        assert dot == (
            "digraph fiber {\n"
            '  "⟨5,7,8,9⟩" [label="⟨5,7,8,9⟩ F=11 g=6"];\n'
            '  "⟨5,8,9,12⟩" [label="⟨5,8,9,12⟩ F=11 g=7"];\n'
            '  "⟨5,7,9,13⟩" [label="⟨5,7,9,13⟩ F=11 g=7"];\n'
            '  "⟨5,7,8⟩" [label="⟨5,7,8⟩ F=11 g=7"];\n'
            '  "⟨5,7,8,9⟩" -> "⟨5,8,9,12⟩" [label="7"];\n'
            '  "⟨5,7,8,9⟩" -> "⟨5,7,9,13⟩" [label="8"];\n'
            '  "⟨5,7,8,9⟩" -> "⟨5,7,8⟩" [label="9"];\n'
            '  "⟨4,5⟩" [label="⟨4,5⟩ F=11 g=6"];\n'
            "}\n"
        )
        assert dot == "".join(cli._trees_dot(trees))

    def test_auto_root(self, capsys):
        code, out, _ = run(
            capsys, "fiber-tree", "--sgp", "3,4,5", "--d", "3", "--max-nodes", "1"
        )
        assert (code, out) == (0, "⟨4,5,7⟩ F=6 g=4\n")

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "5be28995d11fe6252c6d213a3c0d226c5513b5155145fac3c32d856ef0b10203"),
            ("dot", "87935ccc411f1eded28a303979cffbd70e734f73402a162941e308a714d2e609"),
        ],
    )
    def test_whole_n_root(self, capsys, fmt, digest):
        # ℕ is a maximal d-multiple of ℕ with F = -1, the one node whose
        # Frobenius number is not an index into a table of names.
        argv = ["fiber-tree", "--sgp", "1", "--d", "2", "--root", "1", "--max-nodes", "3"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (
            0, "⟨1⟩ F=-1 g=0\n  [x=1] ⟨2,3⟩ F=1 g=1\n    [x=3] ⟨2,5⟩ F=3 g=2\n"
        )
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if fmt == "json":
            assert len(out.encode()) == 1070
            assert json.loads(out)["trees"][0]["semigroup"]["frobenius"] == -1

    def test_semigroup_view_is_lazy(self, capsys, monkeypatch):
        """The walk and the text, JSON and DOT renderers read a tree's gap
        masks and msg only, so none builds its semigroup view, and the
        low-e search walks no fiber; on first read the view holds the nodes
        of the nested reference walk in preorder."""
        walk, walks = fibers.enumerate_fiber, []

        def recorded(ctx, root, bounds):
            walks.append((ctx, root, bounds, walk(ctx, root, bounds)))
            return walks[-1][-1]

        monkeypatch.setattr(fibers, "enumerate_fiber", recorded)
        argv = ("fiber-tree", "--sgp", "2,3", "--d", "13", "--max-nodes", "90")
        for fmt in ("text", "json", "dot"):
            assert run(capsys, *argv, "--format", fmt)[0] == 0
        assert run(capsys, "search-low-e", "--sgp", "4,5,7", "--dmax", "3") == (
            0, "d=3 ⟨5,7⟩ e=2\n", ""
        )
        assert len(walks) == 24
        assert not any("semigroup" in vars(tree) for *_, tree in walks)
        for ctx, root, bounds, tree in walks:
            nested, stack = [], [reference_fiber_walk(ctx, root, bounds)]
            while stack:
                nested.append(stack.pop())
                stack.extend(reversed(nested[-1].children))
            assert tree.semigroup == [n.semigroup for n in nested]
            assert "semigroup" in vars(tree)

    def test_missing_bounds(self, capsys):
        code, _, err = run(capsys, "fiber-tree", "--sgp", "3,4", "--d", "5", "--root", "6,9,11")
        assert code == 2
        assert "bound" in err

    def test_missing_bounds_refused_before_root_discovery(self, capsys, monkeypatch):
        # Uncapped root discovery at d = 120 runs for many seconds.
        def discover(*args, **kwargs):
            raise AssertionError("roots were searched before the bounds were checked")

        monkeypatch.setattr(multiples, "max_multiples", discover)
        assert run(capsys, "fiber-tree", "--sgp", "2,3", "--d", "120") == (
            2,
            "",
            "error: fiber enumeration requires at least one bound: --max-frobenius, "
            "--max-genus, --max-depth or --max-nodes\n",
        )

    def test_non_maximal_root(self, capsys):
        code, _, err = run(
            capsys, "fiber-tree", "--sgp", "3,4,5", "--d", "3",
            "--root", "4,7,9,10", "--max-genus", "9",
        )
        assert code == 2
        assert "maximal" in err

    def test_max_nodes_preorder(self, capsys):
        code, out, _ = run(
            capsys, "fiber-tree", "--sgp", "2,3", "--d", "11",
            "--root", "5,7,8,9", "--max-genus", "8", "--max-nodes", "3",
        )
        assert code == 0
        assert out.count("\n") == 3
        assert out.splitlines()[0] == "⟨5,7,8,9⟩ F=11 g=6"

    def test_deep_chain_is_cut_at_max_nodes(self, capsys):
        # The ⟨3,4⟩ fiber of (⟨2,3⟩, d=5) is a chain deeper than the
        # interpreter's recursion limit.
        code, out, _ = run(
            capsys, "fiber-tree", "--sgp", "2,3", "--d", "5", "--max-nodes", "1000"
        )
        assert code == 0
        sizes = []
        for line in out.splitlines():
            if line.startswith(" "):
                sizes[-1] += 1
            else:
                sizes.append(1)
        assert len(sizes) == 2
        assert max(sizes) == 1000

    def test_deep_chain_json(self, capsys):
        # Each fiber level nests two JSON containers.  The JSON output grows
        # with the cube of the depth, so instead of a chain deeper than the
        # default recursion limit, the limit is lowered to just above the
        # current depth: a 150-node chain then overflows any builder or
        # encoder that recurses per level.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            code, out, _ = run(
                capsys, "fiber-tree", "--sgp", "2,3", "--d", "5",
                "--max-nodes", "150", "--format", "json",
            )
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0
        payload = json.loads(out)
        assert canonical_json(payload) == out
        node, depth = payload["trees"][-1], 0
        while node["children"]:
            node, depth = node["children"][0], depth + 1
        assert depth == 149


def reference_forest(sgp_arg, d, root, bounds):
    """(context, the root FiberNode of each tree) of the fiber-tree
    command, from the nested reference walk."""
    ctx = multiples.MultipleContext(parse_semigroup(sgp_arg), d)
    if root is None:
        roots = sorted(multiples.max_multiples(ctx).maximals, key=lambda s: s.msg)
    else:
        roots = [parse_semigroup(root)]
    return ctx, [reference_fiber_walk(ctx, r, bounds) for r in roots]


def fiber_json_reference(ctx, trees) -> str:
    """The fiber-tree JSON built as nested dicts from the trees of the
    nested reference walk (:func:`reference_forest`) and dumped by the
    standard library, to hold the streamed output against."""
    payload = {
        "S": ctx.semigroup.to_json_dict(),
        "d": ctx.d,
        "trees": [fiber_node_to_json_dict(node) for node in trees],
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class TestFiberJson:
    """fiber-tree --format json is streamed from the nodes; it must match
    the standard library's rendering of the nested payload byte for byte."""

    @staticmethod
    def cases():
        """(argv, S, d, root, bounds) of each case: every S with F(S) <= 5,
        d in {2, 3}, each kind of truncation; many of these contexts have
        more than one maximal multiple, so a forest."""
        def case(sgp_arg, d, root, **bound):
            argv = ["fiber-tree", "--sgp", sgp_arg, "--d", str(d)]
            for key, value in bound.items():
                argv += ["--" + key.replace("_", "-"), str(value)]
            if root is not None:
                argv += ["--root", root]
            return argv, sgp_arg, d, root, fibers.TruncationBounds(**bound)

        for f in range(1, 6):
            for S in all_with_frobenius(f):
                for d in (2, 3):
                    f0 = d * f
                    for bound in (
                        {"max_genus": f0 // 2 + 4},
                        {"max_frobenius": f0 + 4},
                        {"max_depth": 3},
                        {"max_nodes": 25},
                    ):
                        yield case(",".join(map(str, S.msg)), d, None, **bound)
        # An explicit root, and ℕ as a root (its gap list is empty).
        yield case("2,3", 11, "5,7,8,9", max_genus=8)
        yield case("1", 2, "1", max_nodes=5)
        # Node caps that cut a deep fiber between siblings, and a forest of
        # 8 roots with every tree cut.
        for cap in (1, 2, 7):
            yield case("3,4,5", 3, None, max_nodes=cap)
        yield case("2,3", 13, None, max_nodes=90)
        # A forest with many children T = P ∖ {x} with x < F(P), whose x
        # lands mid-list, and a node-capped chain 119 levels deep.
        yield case("4,6,13,15", 3, None, max_frobenius=39, max_nodes=300)
        yield case("3,5,7", 3, None, max_nodes=120)

    @staticmethod
    def gap_list_kinds(trees) -> set:
        """The ways the renderer writes the gap lists of these trees, read
        off the nested reference walk.  A child T = P ∖ {x} with x > F(P)
        is written from P's gaps, which are held while the closes, in
        postorder, share P: "replaced" when P's held list is replaced by
        another parent's and joined again, "ℕ parent" when P's list is
        empty.  A child with x < F(P) is "mid-list"."""
        kinds = set()
        for root in trees:
            held, joined = None, set()  # the held P, and every P joined so far
            stack = [(root, None, False)]
            while stack:
                node, parent, expanded = stack.pop()
                if not expanded:
                    stack.append((node, parent, True))
                    stack.extend((c, node, False) for c in reversed(node.children))
                elif parent is None:
                    continue
                elif node.removed_generator < parent.semigroup.frobenius:
                    kinds.add("mid-list")
                else:
                    if parent.semigroup.is_whole_n:
                        kinds.add("ℕ parent")
                    if parent is not held:
                        if id(parent) in joined:
                            kinds.add("replaced")
                        held = parent
                        joined.add(id(parent))
        return kinds

    def test_matches_reference(self, capsys):
        forests = 0
        kinds = set()
        for argv, sgp_arg, d, root, bounds in self.cases():
            code, out, err = run(capsys, *argv, "--format", "json")
            ctx, trees = reference_forest(sgp_arg, d, root, bounds)
            assert (code, err) == (0, "") and out == fiber_json_reference(ctx, trees), argv
            forests += len(trees) > 1
            kinds |= self.gap_list_kinds(trees)
        assert forests > 10
        assert kinds == {"replaced", "mid-list", "ℕ parent"}

    def test_text_matches_reference(self, capsys):
        """The text format on the same cases: one line per node of the
        nested reference walk in preorder, indented by depth and tagged
        with the removed generator."""
        for argv, sgp_arg, d, root, bounds in self.cases():
            code, out, err = run(capsys, *argv)
            lines = []
            for node in reference_forest(sgp_arg, d, root, bounds)[1]:
                stack = [node]
                while stack:
                    n = stack.pop()
                    stack.extend(reversed(n.children))
                    T = n.semigroup
                    tag = f"{'  ' * n.depth}[x={n.removed_generator}] " if n.depth else ""
                    lines.append(f"{tag}{T} F={T.frobenius} g={T.genus}\n")
            assert (code, err) == (0, "") and out == "".join(lines), argv

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["fiber-tree", "--sgp", "3,5", "--d", "3", "--max-genus", "12", "--format", "json"]
        target = tmp_path / "forest.json"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["trees"]) > 1
        assert run(capsys, "--out", str(target), *argv) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    def test_bounded_memory(self):
        # 183 MB of JSON: built as one string it needs far more than the
        # 256 MB address-space limit set in the child; streamed it fits.
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        src = str(Path(numsgps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["fiber-tree", "--sgp", "3,5,7", "--d", "3", "--max-nodes", "500", "--format", "json"]
        child = subprocess.Popen(
            [sys.executable, "-m", "numsgps.cli", *argv],
            env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=limit_memory,
        )
        digest, size = hashlib.sha256(), 0
        for block in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(block)
            size += len(block)
        err = child.stderr.read().decode("utf-8", "replace")
        assert child.wait(timeout=60) == 0, err
        assert (size, digest.hexdigest()) == (
            183_210_923,
            "dcc4f1afeecc87601ae5c4957949c65cdb0e7bfa75b3f9dfb4c4084275f71a1b",
        )


def listing_json_reference(payload, key, semigroups) -> str:
    """A listing's JSON as the nested payload, its semigroups sorted by msg
    and turned into dicts, dumped by the standard library."""
    ordered = sorted(semigroups, key=lambda s: s.msg)
    payload = {**payload, key: [T.to_json_dict() for T in ordered]}
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class TestListingJson:
    """max-multiples and the oracle listings stream their JSON one
    semigroup at a time; it must match the standard library's rendering of
    the nested payload byte for byte."""

    def test_max_multiples(self, capsys, genus_tree_12):
        cases = 0
        for S in genus_tree_12:
            if not 1 <= S.genus <= 4:
                continue
            for d in (1, 2, 3):
                sgp_arg = ",".join(map(str, S.msg))
                argv = ["max-multiples", "--sgp", sgp_arg, "--d", str(d), "--format", "json"]
                ctx = multiples.MultipleContext(S, d)
                expected = listing_json_reference(
                    {"S": S.to_json_dict(), "d": d}, "maximals",
                    multiples.max_multiples(ctx).maximals,
                )
                assert run(capsys, *argv) == (0, expected, ""), argv
                cases += 1
        assert cases == 3 * 14

    def test_census(self, capsys):
        # Every census the CLI allows, so the templated count/f head is
        # checked against the standard library on each.
        for f in range(1, cli._CENSUS_CEILING + 1):
            found = all_with_frobenius(f)
            expected = listing_json_reference(
                {"f": f, "count": len(found)}, "semigroups", found
            )
            argv = ["oracle", "frobenius-census", "--f", str(f), "--format", "json"]
            assert run(capsys, *argv) == (0, expected, ""), argv

    @pytest.mark.parametrize(
        "sgp_arg, d, f, count",
        [
            ("1", 2, 3, 3),  # ℕ, ⟨2,3⟩, ⟨2,5⟩: ℕ has F = -1 and no gaps
            ("3,5", 2, 5, 0),  # no multiple with F ≤ 5: an empty list
            ("2,3", 1000, 5, 0),  # empty, and d is past every name in the table
            ("3,4,5", 2, 9, 12),
        ],
    )
    def test_multiples_bounded(self, capsys, tmp_path, sgp_arg, d, f, count):
        argv = [
            "oracle", "multiples-bounded", "--sgp", sgp_arg, "--d", str(d),
            "--max-frobenius", str(f), "--format", "json",
        ]
        code, out, err = run(capsys, *argv)
        ctx = multiples.MultipleContext(parse_semigroup(sgp_arg), d)
        found = all_multiples_bounded(ctx, EnumerationBudget(f, f, 100_000))
        assert len(found) == count
        expected = listing_json_reference(
            {"S": ctx.semigroup.to_json_dict(), "d": d, "max_frobenius": f}, "multiples", found
        )
        assert (code, out, err) == (0, expected, "")
        target = tmp_path / "listing.json"
        assert run(capsys, "--out", str(target), *argv) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("gens", [(1,), (3, 4), (5, 7, 9)])
    def test_semigroup_template(self, gens):
        # ⟨3,4⟩ has its largest generator below F = 5, so the names table
        # must reach F; ℕ has F = -1 and no gaps, and is one chunk.
        T = sgp(*gens)
        names: list = []
        cli._name_through(names, [T.gap_mask], [T.msg])
        # (pieces, what goes before the braces, after them, their nesting
        # level): a listing element, and a fiber node's semigroup at depths
        # 0 and 7.
        cases = [(cli._json_level(2, "\n    ", ""), "\n    ", "", 2)]
        for k in (0, 7):
            pad = "\n" + "  " * (2 + 2 * k)
            cases.append((cli._fiber_level(k)[4], f',{pad}  "semigroup": ', pad + "}", 3 + 2 * k))
        for level, before, after, n in cases:
            chunks = cli._semigroup_json("head", T.gap_mask, T.msg, names, level)
            text = "".join(chunks)
            assert text.startswith("head" + before) and text.endswith(after)
            text = text[len("head" + before) : len(text) - len(after)]
            assert json.loads(text) == T.to_json_dict()
            pad = "\n" + "  " * n
            assert text.startswith("{" + pad + "  ") and text.endswith(pad + "}")
            # The gaps are a chunk of their own, between their brackets.
            element = pad + "    "
            if T.gaps:
                assert chunks[0].endswith('"gaps": [' + element)
                assert chunks[1] == ("," + element).join(map(str, T.gaps))
            assert len(chunks) == (3 if T.gaps else 1)


class TestExitCodes:
    def test_invalid_gcd(self, capsys):
        code, _, err = run(capsys, "info", "--sgp", "4,6")
        assert code == 2
        assert "gcd" in err

    def test_ceiling(self, capsys):
        """The census lists f ≤ 20 and refuses f = 21 with exit 3."""
        code, out, _ = run(capsys, "oracle", "frobenius-census", "--f", "20")
        assert (code, len(out.splitlines())) == (0, 900)
        code, out, err = run(capsys, "oracle", "frobenius-census", "--f", "21")
        assert (code, out) == (3, "")
        assert "census for f=21 exceeds ceiling 20" in err

    def test_deep_oracle_descent(self, capsys):
        # One decision per position up to 1500, deeper than the
        # interpreter's recursion limit.
        code, out, _ = run(
            capsys, "oracle", "multiples-bounded", "--sgp", "2,3", "--d", "1",
            "--max-frobenius", "1500", "--limit", "10",
        )
        assert (code, out) == (0, "⟨2,3⟩\n")

    @pytest.mark.parametrize("d", ["0", "-2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("is-multiple", "--sgp", "3,4", "--candidate", "3,4"),
            ("max-multiples", "--sgp", "3,4"),
            ("fiber-tree", "--sgp", "3,4", "--max-nodes", "3"),
            ("md-monoid", "--sgp", "3,4"),
            ("ed1", "--sgp", "3,4", "--x", "3"),
            ("oracle", "multiples-bounded", "--sgp", "3,4", "--max-frobenius", "5"),
        ],
        ids=lambda argv: argv[0] if argv[0] != "oracle" else argv[1],
    )
    def test_d_must_be_positive(self, capsys, argv, d):
        # Every command that builds an (S, d) context refuses d < 1 there;
        # argparse reads "-2" as a value, as no option looks like a number.
        assert run(capsys, *argv, "--d", d) == (
            2, "", f"error: d must be a positive integer, got {d}\n"
        )

    def test_md_set_refusal_lists_x_sorted(self, capsys):
        assert run(capsys, "md-monoid", "--sgp", "3,5", "--d", "2", "--x", "13,7") == (
            2, "", "error: ⟨7,13⟩ meets 2·gaps(⟨3,5⟩)\n"
        )

    def test_huge_generators_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "info", "--sgp", "1000003,1000033")
        assert (code, out) == (3, "")
        assert "1048576" in err
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("md-monoid", "--sgp", "2,3", "--d", "1000000000000", "--x", "5"),
            ("max-multiples", "--sgp", "2,3", "--d", "1000000000000"),
            ("fiber-tree", "--sgp", "2,3", "--d", "1000000000000", "--max-nodes", "3"),
        ],
    )
    def test_huge_d_refused(self, capsys, argv):
        # d·F(S) = 10**12 is far past the closure ceiling; a mask or loop
        # up to it would exhaust memory or time.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1048576" in err
        assert time.perf_counter() - start < 5

    def test_max_multiples_node_cap(self, capsys):
        # ⟨2,3⟩ with d = 40 takes 196 search paths, one per maximal.
        start = time.perf_counter()
        argv = ("max-multiples", "--sgp", "2,3", "--d", "40")
        code, out, err = run(capsys, *argv, "--max-nodes", "195")
        assert (code, out) == (3, "")
        assert err == "error: more than 195 search paths for the maximal 40-multiples of ⟨2,3⟩\n"
        code, out, err = run(capsys, *argv, "--max-nodes", "196")
        assert (code, out.count("\n"), err) == (0, 196, "")
        assert run(capsys, *argv) == (code, out, err)
        assert time.perf_counter() - start < 5
        # ⟨3,5,7⟩, d = 3 takes 2 search paths, of its 20 multiples with Frobenius 12.
        argv = ("max-multiples", "--sgp", "3,5,7", "--d", "3")
        assert run(capsys, *argv, "--max-nodes", "1") == (
            3, "", "error: more than 1 search paths for the maximal 3-multiples of ⟨3,5,7⟩\n"
        )
        assert run(capsys, *argv, "--max-nodes", "2") == run(capsys, *argv)
        # d = 1 runs the same search, whose one path finds S.
        argv = ("max-multiples", "--sgp", "3,4,5", "--d", "1")
        assert run(capsys, *argv, "--max-nodes", "0") == (
            3, "", "error: more than 0 search paths for the maximal 1-multiples of ⟨3,4,5⟩\n"
        )
        uncapped = run(capsys, *argv)
        assert run(capsys, *argv, "--max-nodes", "1") == uncapped == (0, "⟨3,4,5⟩\n", "")

    @pytest.mark.parametrize(
        "argv, d",
        [
            (("max-multiples", "--sgp", "19,1000", "--d", "12", "--max-nodes", "1"), 12),
            (("fiber-tree", "--sgp", "19,1000", "--d", "3", "--max-nodes", "1"), 3),
        ],
    )
    def test_search_table_ceiling(self, capsys, argv, d):
        """The max-multiples search charges its table of W_p, |free|·N bits
        for N = d·F(S), before building it, and exits 3 past the ceiling.
        Built, the d = 12 table ended in a MemoryError under a 2 GB
        address-space limit; root discovery for the fiber tree builds the
        same table."""
        N = d * 17981
        free = N - N // d
        start = time.perf_counter()
        assert run(capsys, *argv) == (
            3,
            "",
            f"error: the maximal {d}-multiples of ⟨19,1000⟩ need a table of {free}·{N} bits,"
            f" past {multiples.TABLE_CEILING}\n",
        )
        assert time.perf_counter() - start < 1

    def test_max_multiples_uncapped_finishes(self, capsys):
        # ⟨2,3⟩ with d = 60 did not finish in 4 minutes when every multiple
        # with Frobenius 60 was built.
        start = time.perf_counter()
        code, out, err = run(capsys, "max-multiples", "--sgp", "2,3", "--d", "60")
        assert (code, err) == (0, "")
        assert out.count("\n") == 1857
        assert time.perf_counter() - start < 5

    def test_fiber_tree_auto_root_discovery_finishes(self, capsys):
        # Root discovery for ⟨2,3⟩ with d = 40 took 13.2 s; the digest is of
        # the 572 lines it printed then.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "fiber-tree", "--sgp", "2,3", "--d", "40", "--max-nodes", "3"
        )
        assert (code, err) == (0, "")
        assert time.perf_counter() - start < 5
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "499039df2efe29294ea0eee254f1590db6c22abec589e880606810b5518f438a"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("max-multiples", "--sgp", "3,5,7", "--d", "3", "--max-nodes", "-1"),
            ("fiber-tree", "--sgp", "3,5,7", "--d", "3", "--max-nodes", "-1"),
            ("fiber-tree", "--sgp", "3,5,7", "--d", "3", "--max-depth", "-2"),
            ("fiber-tree", "--sgp", "3,5,7", "--d", "3", "--max-genus", "-1"),
            ("fiber-tree", "--sgp", "3,5,7", "--d", "3", "--max-frobenius", "-5"),
            ("search-low-e", "--sgp", "4,5,7", "--dmax", "-1"),
            ("rank-sweep", "--count", "1", "--max-genus", "8", "--seed", "0", "--dmax", "-1"),
            ("oracle", "multiples-bounded", "--sgp", "3,4,5", "--d", "2", "--max-frobenius", "-5"),
            ("oracle", "multiples-bounded", "--sgp", "3,4,5", "--d", "2",
             "--max-frobenius", "8", "--max-genus", "-1"),
            ("oracle", "multiples-bounded", "--sgp", "3,4,5", "--d", "2",
             "--max-frobenius", "8", "--limit", "-1"),
            ("rank-sweep", "--max-genus", "8", "--seed", "0", "--count", "-1"),
            ("rank-sweep", "--count", "1", "--seed", "0", "--max-genus", "0"),
        ],
    )
    def test_negative_bound_refused(self, capsys, argv):
        # A bound refused at 0 must be positive; every other one, non-negative.
        kind = "positive" if argv[-1] == "0" else "non-negative"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[-2]} must be a {kind} integer, got {argv[-1]}\n"

    def test_md_monoid_huge_d(self, capsys):
        # d·F(S) = 10**12 passes the closure ceiling, but an empty X needs no closure.
        argv = ("md-monoid", "--sgp", "2,3", "--d", "1000000000000")
        assert run(capsys, *argv) == (
            0, "minimal system {} md-e=0 monoid 1000000000000*⟨2,3⟩\n", ""
        )
        assert run(capsys, *argv, "--x", "5")[:2] == (3, "")

    def test_low_e_search_names_its_bounds(self, capsys):
        """The search is exact up to --dmax, so it takes no truncation
        bound: argparse refuses each one with exit 2, naming it."""
        for flag in ("--max-frobenius", "--max-genus", "--max-depth", "--max-nodes"):
            with pytest.raises(SystemExit) as exc:
                main(["search-low-e", "--sgp", "4,5,7", "--dmax", "2", flag, "10"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: unrecognized arguments: {flag} 10\n")

    def test_fiber_tree_names_its_bounds_before_root_discovery(self, capsys, monkeypatch):
        """With no bound, fiber-tree refuses before max_multiples runs (it
        took 2.6 s on ⟨2,3⟩ at d = 90 before refusing)."""

        def refuse(*args, **kwargs):
            raise AssertionError("root discovery ran without a bound")

        monkeypatch.setattr(multiples, "max_multiples", refuse)
        code, out, err = run(capsys, "fiber-tree", "--sgp", "2,3", "--d", "90")
        assert (code, out) == (2, "")
        assert err.startswith("error: fiber enumeration requires at least one bound")
        for flag in ("--max-frobenius", "--max-genus", "--max-depth", "--max-nodes"):
            assert flag in err

    def test_low_e_search_skips_no_d(self, capsys):
        """Every none is exact up to --dmax and writes nothing to stderr:
        ⟨6,8,9,11⟩ has no multiple of smaller e at d = 2, 3."""
        argv = ("search-low-e", "--sgp", "6,8,9,11", "--dmax", "3")
        assert run(capsys, *argv) == (0, "none\n", "")
        argv = ("search-low-e", "--sgp", "4,5,7", "--dmax")
        assert run(capsys, *argv, "3") == (0, "d=3 ⟨5,7⟩ e=2\n", "")
        assert run(capsys, *argv, "2") == (0, "none\n", "")
        # For e(S) = 2 the none is exact and no d is searched.
        assert run(capsys, "search-low-e", "--sgp", "3,5", "--dmax", "3") == (0, "none\n", "")

    def test_low_e_search_finds_8_18_19(self, capsys):
        """⟨8,18,19⟩ is a 3-multiple of ⟨6,8,9,19⟩ with e = 3 and F = 49.
        It was missed when every d with more than 4,000 multiples of
        Frobenius number d·F(S) went unsearched, and then past a Frobenius
        bound of 30; the exact search finds it whatever --dmax ≥ 3."""
        for dmax in ("3", "12", "20"):
            assert run(capsys, "search-low-e", "--sgp", "6,8,9,19", "--dmax", dmax) == (
                0, "d=3 ⟨8,18,19⟩ e=3\n", ""
            )

    def test_low_e_search_root_past_the_bounds_is_a_hit(self, capsys):
        """⟨4,13⟩ is a 5-multiple of ⟨4,5,6⟩ with e = 2 and Frobenius number
        35, five times F(S), and no d < 5 has a multiple of smaller e."""
        argv = ("search-low-e", "--sgp", "4,5,6", "--dmax")
        assert run(capsys, *argv, "5") == (0, "d=5 ⟨4,13⟩ e=2\n", "")
        assert run(capsys, *argv, "4") == (0, "none\n", "")

    def test_low_e_search_refuses_the_closure_ceiling(self, capsys):
        """The search refuses with exit 3, naming the bound, a mask longer
        than the closure ceiling: d·F(S), as in max-multiples; the generator
        cap d·max msg(S), where d·F(S) is within it; and, once a tuple H is
        found, the reach 2·g(H) − 1 plus d·m(S) of the least multiple.
        Without the old Frobenius reach, ⟨4,5,6,7⟩ finds a hit and
        ⟨600,601,602⟩ its none at once."""
        argv = ("search-low-e", "--sgp", "1100,1101,1102", "--dmax", "3")
        assert run(capsys, *argv) == (3, "", "error: d·F(S) = 1209998 passes 1048576\n")
        argv = ("search-low-e", "--sgp", "3,524290,524291", "--dmax", "2")
        assert run(capsys, *argv) == (
            3,
            "",
            "error: the low-e search's generator cap d·max msg(S) = 1048582 passes 1048576\n",
        )
        argv = ("search-low-e", "--sgp", "33,16400,32767", "--dmax", "2")
        assert run(capsys, *argv) == (
            3,
            "",
            "error: the low-e search's Frobenius reach plus d·m(S), 1048511 + 66 = 1048577 "
            "passes 1048576\n",
        )
        argv = ("search-low-e", "--sgp", "4,5,6,7", "--dmax", "2")
        assert run(capsys, *argv) == (0, "d=2 ⟨5,7,8⟩ e=3\n", "")
        start = time.perf_counter()
        argv = ("search-low-e", "--sgp", "600,601,602", "--dmax", "2")
        assert run(capsys, *argv) == (0, "none\n", "")
        assert time.perf_counter() - start < 5

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestRankSweep:
    def test_table_is_the_dictwriter_rendering(self, capsys):
        """The table, written by csv.writer from the rows' values in
        SWEEP_FIELDS order, equals csv.DictWriter's rendering of the same
        rows byte for byte, quoted msg cells and empty low_e cells too."""
        outputs = []
        for count, max_genus, seed, dmax in (
            (1, 8, 0, 3), (1, 8, 2027, 3), (12, 8, 7, 3), (25, 10, 5151, 3),
            (40, 3, 11, 3), (8, 14, 99, 2), (6, 6, 1, 0), (0, 5, 3, 3),
        ):
            rows = rank.rank_sweep(count, max_genus, seed, d_max=dmax)
            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=rank.SWEEP_FIELDS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
            argv = ("rank-sweep", "--count", str(count), "--max-genus", str(max_genus),
                    "--seed", str(seed), "--dmax", str(dmax))
            assert run(capsys, *argv) == (0, buffer.getvalue(), ""), argv
            outputs.append(buffer.getvalue())
        lines = "".join(outputs).splitlines()
        assert any(line.startswith('"') for line in lines)  # a quoted msg cell
        assert any(line.endswith(",,") for line in lines)  # empty low_e cells
        assert any(line.endswith('"') for line in lines)  # a quoted low_e multiple

    def test_csv_reproducible(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ("rank-sweep", "--count", "5", "--max-genus", "7", "--seed", "11")
        for path in (a, b):
            assert run(capsys, "--out", str(path), *argv) == (0, "", "")
        assert a.read_text() == b.read_text() == run(capsys, *argv)[1]
        header = a.read_text().splitlines()[0]
        assert header.startswith("msg,frobenius,genus,")

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "rank-sweep", "--count", "2", "--max-genus", "6", "--seed", "3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_large_genus_draws_are_tested_before_they_are_built(self, capsys):
        """A draw whose closure would pass the ceiling, ⟨3195,3547⟩ here, is
        rejected by its genus before it is built: the sweep exits 0 where it
        once exited 3 on a draw it would have discarded."""
        argv = ("rank-sweep", "--count", "3", "--max-genus", "2000", "--seed", "1", "--dmax", "0")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert all(1 <= int(row["genus"]) <= 2000 for row in rows)

    def test_sixty_rows_derive_from_the_bounded_table(self, capsys):
        """The 60-row table pinned in CI differs from the one the bounded
        search printed only in the low_e cells of ⟨6,8,9,19⟩ and ⟨4,5,11⟩,
        empty there and now 3-multiples of smaller e past the old reach of
        3·F(S) + 6: emptying them again gives back the old digest."""
        argv = ("rank-sweep", "--count", "60", "--max-genus", "10", "--seed", "7")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2173033a24f16db6ccc303774c51a074e6d9a68fbb7341343f9f13b4d8ac529b"
        )
        old = out
        for S, T, row in (
            (sgp(6, 8, 9, 19), sgp(8, 18, 19), '"6,8,9,19",13,9,4,6,False,True,True,'),
            (sgp(4, 5, 11), sgp(4, 11), '"4,5,11",7,5,3,4,False,True,True,'),
        ):
            assert multiples.quotient(T, 3) == S and T.frobenius > 3 * S.frobenius + 6
            cells = f'3,"{",".join(map(str, T.msg))}"'
            assert out.count(f"\n{row}{cells}\n") == 1
            old = old.replace(f"\n{row}{cells}\n", f"\n{row},\n")
        assert hashlib.sha256(old.encode()).hexdigest() == (
            "fa4df8f46a9ea9ce06a6316528c4bc9749572800be4be6c50505805fa1c27e0e"
        )


class TestOutFile:
    def test_out_redirects(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(
            capsys, "--out", str(target), "quotient", "--sgp", "4,5,7", "--d", "3"
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == "⟨3,4,5⟩\n"


class TestUnwritablePaths:
    """An --out path that cannot be written is refused with exit 2 and
    leaves stdout empty, whether the output is a JSON payload, streamed
    DOT chunks or the CSV table."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--out", "{bad}", "info", "--sgp", "3,4"],
            ["--out", "{bad}", "fiber-tree", "--sgp", "3,4,5", "--d", "3", "--max-nodes", "2",
             "--format", "dot"],
            ["--out", "{bad}", "rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1"],
        ],
        ids=["out", "dot", "csv"],
    )
    def test_exit_2(self, capsys, tmp_path, argv):
        bad = str(tmp_path / "missing" / "file.txt")
        code, out, err = run(capsys, *(a.replace("{bad}", bad) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write ") and bad in err


class TestUnwritableStdout:
    def test_full_disk(self, capsys, monkeypatch, tmp_path):
        # A stdout whose writes fail with ENOSPC: exit 1 with one error
        # line, and fd 1 (here a file of the test's own) points at devnull.
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def fileno(self):
                return held.fileno()

        with open(tmp_path / "fd", "w") as held:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", FullStdout())
                code = main(["info", "--sgp", "3,5"])
            assert os.path.samestat(os.fstat(held.fileno()), os.stat(os.devnull))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        )


class TestOneOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fiber-tree", "--sgp", "3,4,5", "--d", "3", "--max-nodes", "2", "--dot", "{path}"],
            ["rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1", "--csv", "{path}"],
        ],
        ids=["dot", "csv"],
    )
    def test_side_file_options_are_refused(self, capsys, tmp_path, argv):
        """The --dot and --csv side files are gone: DOT and the CSV table go
        to --out or stdout, and argparse refuses either flag with exit 2."""
        path = tmp_path / "side.txt"
        with pytest.raises(SystemExit) as exc:
            main([a.replace("{path}", str(path)) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not path.exists()
        assert captured.err.endswith(f"error: unrecognized arguments: {argv[-2]} {path}\n")


class TestHelp:
    def help_text(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_subcommand_order(self, capsys):
        usage = self.help_text(capsys)
        assert re.search(r"\{([\w,-]+)\}", usage).group(1).split(",") == [
            "info", "quotient", "is-multiple", "max-multiples", "fiber-tree", "md-monoid",
            "ed1", "full-rank", "unique-betti", "search-low-e", "rank-sweep", "oracle",
        ]

    def test_fiber_tree_option_order(self, capsys):
        text = self.help_text(capsys, "fiber-tree")
        section = text.split("\noptions:\n")[1]
        assert re.findall(r"^  (--[\w-]+)", section, re.MULTILINE) == [
            "--sgp", "--d", "--root", "--max-frobenius", "--max-genus",
            "--max-depth", "--max-nodes", "--format",
        ]


def outcome(capsys, argv, out_path):
    """(exit code, stdout, stderr, --out file text) of main(argv), usage errors included."""
    out_path.unlink(missing_ok=True)
    try:
        code = main([a.replace("{out}", str(out_path)) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return code, captured.out, captured.err, written


class TestOneRowParser:
    """main parses a plain argv from the command table and every other argv
    with an argparse parser built for that argv.  Each of these argv
    (plain ones, help, usage errors, every ``--out`` spelling and the other
    spellings only argparse reads), run in order after every earlier one,
    gives the outcome of a freshly built argparse parser alone, byte for
    byte.  The class keeps the name of the one-row parser these argv were
    first written for."""

    @pytest.mark.parametrize(
        "argv",
        [
            # a valid call of every table row
            ["info", "--sgp", "3,5,7"],
            ["quotient", "--sgp", "6,9,11", "--d", "5"],
            ["is-multiple", "--sgp", "3,4,5", "--d", "3", "--candidate", "4,5,7"],
            ["max-multiples", "--sgp", "3,5,7", "--d", "3", "--max-nodes", "20"],
            ["fiber-tree", "--sgp", "3,4,5", "--d", "2", "--max-nodes", "3", "--format", "dot"],
            ["md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", "9,10"],
            ["ed1", "--sgp", "5,7,9", "--d", "2", "--x", "9", "--format", "json"],
            ["full-rank", "--sgp", "4,5,6,7"],
            ["unique-betti", "--c", "2,3,5"],
            ["search-low-e", "--sgp", "4,5,7", "--dmax", "2"],
            ["rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1"],
            ["oracle", "frobenius-census", "--f", "6"],
            ["oracle", "multiples-bounded", "--sgp", "3,4,5", "--d", "2", "--max-frobenius", "6"],
            # --out before the command, in each spelling
            ["--out", "{out}", "info", "--sgp", "3,4"],
            ["--out={out}", "info", "--sgp", "3,4"],
            ["--o", "{out}", "info", "--sgp", "3,4"],
            ["--ou={out}", "oracle", "frobenius-census", "--f", "4"],
            ["--out", "{out}"],
            ["--out"],
            ["--out", "--help"],
            # unrecognized arguments
            ["info", "--sgp", "3,4", "extra"],
            ["oracle", "frobenius-census", "--f", "4", "--bogus"],
            ["--bogus", "info", "--sgp", "3,4"],
            # a missing required option, a bad --format
            ["quotient", "--sgp", "3,4"],
            ["info", "--sgp", "3,4", "--format", "xml"],
            # unknown command or leaf, bare group, no command, a leading --
            ["no-such-command"],
            ["oracle", "no-such-leaf"],
            ["oracle frobenius-census", "--f", "4"],
            ["oracle"],
            [],
            ["--", "info", "--sgp", "3,4"],
            # help
            ["--help"],
            ["-h", "info"],
            ["info", "--help"],
            ["oracle", "--help"],
            ["oracle", "multiples-bounded", "-h"],
            # spellings the plain parser leaves to argparse, and an empty value
            ["quotient", "--sg", "6,9,11", "--d", "5"],
            ["quotient", "--sgp=6,9,11", "--d", "5"],
            ["quotient", "--sgp", "6,9,11", "--d", "-3"],
            ["quotient", "--sgp", "6,9,11", "--d", "x"],
            ["quotient", "--sgp", "6,9,11", "--d"],
            ["md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", ""],
        ],
    )
    def test_same_as_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        out_path = tmp_path / "out.txt"
        reused = outcome(capsys, argv, out_path)
        monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
        assert outcome(capsys, argv, out_path) == reused

    def test_full_parser_errors_name_the_dest(self, capsys, tmp_path):
        # No metavar is set, so argparse names the dest in these errors.
        out_path = tmp_path / "out.txt"
        assert outcome(capsys, ["no-such-command"], out_path)[2].endswith(
            "\nnumsgps: error: argument command: invalid choice: 'no-such-command' (choose from "
            "'info', 'quotient', 'is-multiple', 'max-multiples', 'fiber-tree', 'md-monoid', "
            "'ed1', 'full-rank', 'unique-betti', 'search-low-e', 'rank-sweep', 'oracle')\n"
        )
        assert outcome(capsys, ["oracle"], out_path)[2].endswith(
            "\nnumsgps oracle: error: the following arguments are required: oracle_command\n"
        )


def _row_argvs(path, formats, options, rng):
    """Plain argv of one table row: its required options, then each other
    option added, all options in shuffled orders, and each option given
    twice with a different value last."""
    words = path.split()
    first, last = {}, {}
    for flag, spec in options:
        first[flag], last[flag] = ("7", "11") if spec.get("type") is int else ("3,5,7", "4,6")
    if formats:
        first["--format"], last["--format"] = formats[-1], formats[0]
    required = [flag for flag, spec in options if spec.get("required")]
    base = words + [x for flag in required for x in (flag, first[flag])]
    yield base
    for flag in first:
        if flag not in required:
            yield base + [flag, first[flag]]
    pairs = list(first.items())
    for _ in range(3):
        rng.shuffle(pairs)
        yield words + [x for pair in pairs for x in pair]
    for flag in first:
        yield words + [x for pair in pairs for x in pair] + [flag, last[flag]]


class TestPlainParser:
    """The plain parser's attributes equal argparse's on every plain argv,
    and it leaves every other spelling to argparse."""

    LEAVES = [row for row in cli._COMMANDS if row[2] is not None]

    @pytest.mark.parametrize("row", LEAVES, ids=[row[0] for row in LEAVES])
    def test_same_namespace_as_argparse(self, row):
        path, _, _, formats, *options = row
        for argv in _row_argvs(path, formats, options, random.Random(path)):
            plain = cli._plain_args(argv)
            assert plain is not None, argv
            assert vars(plain) == vars(cli.build_parser().parse_args(argv)), argv

    def test_empty_value(self):
        argv = ["md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", ""]
        assert vars(cli._plain_args(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["quotient", "--sg", "6,9,11", "--d", "5"],
            ["quotient", "--sgp=6,9,11", "--d", "5"],
            ["quotient", "--sgp", "6,9,11", "--d", "-3"],
            ["quotient", "--sgp", "6,9,11", "--d", "x"],
            ["quotient", "--sgp", "6,9,11", "--d"],
            ["quotient", "--sgp", "6,9,11", "--d", "5", "--format"],
            ["quotient", "--sgp", "6,9,11", "--d", "5", "--format", "xml"],
            ["quotient", "--sgp", "6,9,11"],
            ["quotient", "-h", "--sgp", "6,9,11", "--d", "5"],
            ["quotient", "--sgp", "6,9,11", "--d", "5", "--help", "x"],
            ["--", "quotient", "--sgp", "6,9,11", "--d", "5"],
            ["quotient", "--", "--sgp", "6,9,11", "--d", "5"],
            ["--out", "p", "quotient", "--sgp", "6,9,11", "--d", "5"],
            ["oracle"],
            ["oracle", "frobenius-census"],
            ["oracle frobenius-census", "--f", "6"],
            ["quotient", "--sgp", "6,9,11", "--d", "5", "--bogus", "1"],
            ["quotient", "extra", "--sgp", "6,9,11", "--d", "5"],
            ["rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1", "--format", "text"],
            ["no-such-command"],
            [],
        ],
        ids="|".join,
    )
    def test_declines_other_spellings(self, argv):
        assert cli._plain_args(argv) is None


class TestParserReuse:
    """Options given in one call leave nothing behind for the next: without
    them, nothing goes to a file and the output goes to stdout in the
    default format, as from a freshly built parser."""

    @pytest.mark.parametrize(
        "with_path, without",
        [
            (
                ["--out", "{path}", "fiber-tree", "--sgp", "3,4,5", "--d", "2", "--max-nodes", "3",
                 "--format", "dot"],
                ["fiber-tree", "--sgp", "3,4,5", "--d", "2", "--max-nodes", "3"],
            ),
            (
                ["--out", "{path}", "rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1"],
                ["rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1"],
            ),
            (["--out", "{path}", "info", "--sgp", "3,4"], ["info", "--sgp", "3,4"]),
        ],
        ids=["dot", "csv", "out"],
    )
    def test_nothing_carries_over(self, capsys, monkeypatch, tmp_path, with_path, without):
        path = tmp_path / "side.txt"
        assert run(capsys, *(a.replace("{path}", str(path)) for a in with_path))[0] == 0
        path.unlink()
        code, out, err = run(capsys, *without)
        assert not path.exists()
        monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
        assert (code, out, err) == run(capsys, *without)
        assert out and code == 0


class TestAsProgram:
    """The CLI run as ``python -m numsgps.cli`` in a fresh interpreter."""

    def program(self, *argv, stdout=subprocess.PIPE):
        src = str(Path(numsgps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "numsgps.cli", *argv],
            env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
            stdout=stdout,
            stderr=subprocess.PIPE,
            encoding="utf-8",
            timeout=60,
        )

    def test_readme_info_line(self):
        done = self.program("info", "--sgp", "5,7,9")
        assert (done.returncode, done.stdout, done.stderr) == (
            0,
            "⟨5,7,9⟩ F=13 g=8 e=3 m=5 t=2 PF={11,13} reducible\n",
            "",
        )

    def test_gcd_refused(self):
        done = self.program("info", "--sgp", "4,6")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: gcd(4,6) != 1\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_full(self):
        with open("/dev/full", "w") as full:
            done = self.program("info", "--sgp", "3,5", stdout=full)
        assert (done.returncode, done.stderr) == (
            1, "error: cannot write stdout: No space left on device\n"
        )

    def test_reader_closes_pipe_early(self):
        # 3.1 MB of JSON, far more than a pipe holds: the reader takes 100
        # bytes and closes, as `| head -c 100` does.  Exit 1, no traceback.
        src = str(Path(numsgps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["fiber-tree", "--sgp", "2,3", "--d", "13", "--max-nodes", "90", "--format", "json"]
        child = subprocess.Popen(
            [sys.executable, "-m", "numsgps.cli", *argv],
            env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.read(100).startswith(b"{")
        child.stdout.close()
        err = child.stderr.read().decode("utf-8", "replace")
        assert (child.wait(timeout=60), err) == (1, "")


class TestInternalInvariantExit:
    def test_exit_code_4(self, capsys, monkeypatch):
        from numsgps import cli
        from numsgps.errors import InternalInvariantError

        def boom(spec):
            raise InternalInvariantError("simulated bug")

        monkeypatch.setattr(cli, "parse_semigroup", boom)
        code = cli.main(["info", "--sgp", "2,3"])
        err = capsys.readouterr().err
        assert code == 4
        assert "simulated bug" in err

    def test_ed1_cross_check_mismatch(self, capsys, monkeypatch):
        from numsgps import core, ed1

        # Materialize the wrong semigroup, so the closed forms disagree.
        monkeypatch.setattr(ed1, "from_generators", lambda gens: core.from_generators([2, 3]))
        code, out, err = run(capsys, "ed1", "--sgp", "3,4,5", "--d", "2", "--x", "5")
        assert (code, out) == (4, "")
        assert "closed-form" in err
