"""The command-line surface: exact text fixtures, canonical JSON round
trips, DOT output, CSV reproducibility and exit codes."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import numsgps
from numsgps import cli, fibers, multiples, rank
from numsgps.cli import canonical_json, main, parse_semigroup
from numsgps.oracle import EnumerationBudget, all_multiples_bounded, all_with_frobenius

from conftest import fiber_node_to_json_dict, reference_fiber_walk, sgp


# One or more JSON outputs of every subcommand that has a JSON format.
JSON_COMMANDS = (
    ["info", "--sgp", "5,7,9", "--format", "json"],
    ["info", "--sgp", "1", "--format", "json"],
    ["quotient", "--sgp", "6,9,11", "--d", "5", "--format", "json"],
    ["is-multiple", "--sgp", "3,4,5", "--d", "3", "--candidate", "4,5,7", "--format", "json"],
    ["max-multiples", "--sgp", "3,5,7", "--d", "3", "--format", "json"],
    ["ed1", "--sgp", "5,7,9", "--d", "2", "--x", "9", "--format", "json"],
    ["full-rank", "--sgp", "4,5,6,7", "--format", "json"],
    ["md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", "9,10", "--format", "json"],
    ["md-monoid", "--sgp", "5,7,9", "--d", "2", "--format", "json"],
    ["unique-betti", "--c", "2,3,5", "--format", "json"],
    ["search-low-e", "--sgp", "4,5,7", "--dmax", "2", "--max-frobenius", "20", "--format", "json"],
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
        code, out, _ = run(
            capsys, "fiber-tree", "--sgp", "2,3", "--d", "11",
            "--root", "5,7,8,9", "--max-genus", "7",
            "--format", "dot", "--dot", str(target),
        )
        assert code == 0
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
        """The walk, the text, JSON and DOT renderers and the low-e search
        read a tree's gap masks and msg only, so none builds its semigroup
        view; on first read the view holds the nodes of the nested
        reference walk in preorder."""
        walk, walks = fibers.enumerate_fiber, []

        def recorded(ctx, root, bounds):
            walks.append((ctx, root, bounds, walk(ctx, root, bounds)))
            return walks[-1][-1]

        monkeypatch.setattr(fibers, "enumerate_fiber", recorded)
        monkeypatch.setattr(rank, "enumerate_fiber", recorded)
        argv = ("fiber-tree", "--sgp", "2,3", "--d", "13", "--max-nodes", "90")
        for fmt in ("text", "json", "dot"):
            assert run(capsys, *argv, "--format", fmt)[0] == 0
        rendered = len(walks)
        argv = ("search-low-e", "--sgp", "4,5,7", "--dmax", "3", "--max-frobenius", "24")
        assert run(capsys, *argv) == (0, "d=3 ⟨5,7⟩ e=2\n", "")
        assert rendered == 24 and len(walks) > rendered
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


def fiber_json_reference(sgp_arg, d, root, bounds) -> str:
    """The fiber-tree JSON built as nested dicts from the nested reference
    walk and dumped by the standard library, to hold the streamed output
    against."""
    ctx = multiples.MultipleContext(parse_semigroup(sgp_arg), d)
    if root is None:
        roots = sorted(multiples.max_multiples(ctx).maximals, key=lambda s: s.msg)
    else:
        roots = [parse_semigroup(root)]
    payload = {
        "S": ctx.semigroup.to_json_dict(),
        "d": d,
        "trees": [
            fiber_node_to_json_dict(reference_fiber_walk(ctx, r, bounds)) for r in roots
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class TestFiberJson:
    """fiber-tree --format json is streamed from the nodes; it must match
    the standard library's rendering of the nested payload byte for byte."""

    @staticmethod
    def cases():
        # Every S with F(S) <= 5, d in {2, 3}, each kind of truncation; many
        # of these contexts have more than one maximal multiple, so a forest.
        for f in range(1, 6):
            for S in all_with_frobenius(f):
                for d in (2, 3):
                    f0 = d * f
                    for flag, value in (
                        ("--max-genus", f0 // 2 + 4),
                        ("--max-frobenius", f0 + 4),
                        ("--max-depth", 3),
                        ("--max-nodes", 25),
                    ):
                        yield ",".join(map(str, S.msg)), d, None, flag, value
        # An explicit root, and ℕ as a root (its gap list is empty).
        yield "2,3", 11, "5,7,8,9", "--max-genus", 8
        yield "1", 2, "1", "--max-nodes", 5
        # Node caps that cut a deep fiber between siblings, and a forest of
        # 8 roots with every tree cut.
        for cap in (1, 2, 7):
            yield "3,4,5", 3, None, "--max-nodes", cap
        yield "2,3", 13, None, "--max-nodes", 90

    def test_matches_reference(self, capsys):
        forests = 0
        for sgp_arg, d, root, flag, value in self.cases():
            argv = ["fiber-tree", "--sgp", sgp_arg, "--d", str(d), flag, str(value)]
            if root is not None:
                argv += ["--root", root]
            code, out, err = run(capsys, *argv, "--format", "json")
            bounds = fibers.TruncationBounds(**{flag[2:].replace("-", "_"): value})
            expected = fiber_json_reference(sgp_arg, d, root, bounds)
            assert (code, err) == (0, "") and out == expected, argv
            forests += len(json.loads(out)["trees"]) > 1
        assert forests > 10

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
        for f in range(1, 13):
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
        # must reach F; ℕ has F = -1 and no gaps.
        T = sgp(*gens)
        for indents in (cli._json_indents(2), cli._json_level(0)[1:], cli._json_level(7)[1:]):
            names: list = []
            text = cli._semigroup_json(T.gap_mask, T.msg, names, indents)
            assert json.loads(text) == T.to_json_dict()
            assert text.startswith("{" + indents[1]) and text.endswith(indents[0] + "}")


class TestExitCodes:
    def test_invalid_gcd(self, capsys):
        code, _, err = run(capsys, "info", "--sgp", "4,6")
        assert code == 2
        assert "gcd" in err

    def test_ceiling(self, capsys, monkeypatch):
        monkeypatch.delenv("NUMSGPS_ORACLE_CEILING", raising=False)
        code, _, err = run(capsys, "oracle", "frobenius-census", "--f", "25")
        assert code == 3
        assert "ceiling" in err

    def test_malformed_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMSGPS_ORACLE_CEILING", "abc")
        code, out, err = run(capsys, "oracle", "frobenius-census", "--f", "6")
        assert (code, out) == (2, "")
        assert "NUMSGPS_ORACLE_CEILING" in err

    def test_deep_oracle_descent(self, capsys):
        # One decision per position up to 1500, deeper than the
        # interpreter's recursion limit.
        code, out, _ = run(
            capsys, "oracle", "multiples-bounded", "--sgp", "2,3", "--d", "1",
            "--max-frobenius", "1500", "--limit", "10",
        )
        assert (code, out) == (0, "⟨2,3⟩\n")

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
        # ⟨2,3⟩ with d = 40 has far too many multiples with Frobenius 40 to visit.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "max-multiples", "--sgp", "2,3", "--d", "40", "--max-nodes", "1000"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert time.perf_counter() - start < 5
        # ⟨3,5,7⟩, d = 3 has exactly 20 multiples with Frobenius 12.
        argv = ("max-multiples", "--sgp", "3,5,7", "--d", "3")
        assert run(capsys, *argv, "--max-nodes", "19") == (
            3, "", "error: more than 19 multiples with Frobenius 12\n"
        )
        assert run(capsys, *argv, "--max-nodes", "20") == run(capsys, *argv)
        # d = 1 runs the same search, and its one multiple S passes cap 0.
        argv = ("max-multiples", "--sgp", "3,4,5", "--d", "1")
        assert run(capsys, *argv, "--max-nodes", "0") == (
            3, "", "error: more than 0 multiples with Frobenius 2\n"
        )
        uncapped = run(capsys, *argv)
        assert run(capsys, *argv, "--max-nodes", "1") == uncapped == (0, "⟨3,4,5⟩\n", "")

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
            ("search-low-e", "--sgp", "4,5,7", "--dmax", "2", "--max-frobenius", "-5"),
            ("search-low-e", "--sgp", "4,5,7", "--max-frobenius", "20", "--dmax", "-1"),
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
        code, out, err = run(capsys, "search-low-e", "--sgp", "4,5,7", "--dmax", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: the low-e search requires at least one bound")
        for flag in ("--max-frobenius", "--max-genus", "--max-depth", "--max-nodes"):
            assert flag in err

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
        """A none is exact within the bounds for every e(S) and writes
        nothing to stderr, however small --max-nodes is: ⟨6,8,9,11⟩ has no
        multiple of smaller e in the walks bounded by it for d = 2, 3."""
        argv = ("search-low-e", "--sgp", "6,8,9,11", "--dmax", "3", "--max-frobenius", "45")
        assert run(capsys, *argv, "--max-nodes", "10") == (0, "none\n", "")
        # For e(S) = 3 the roots come from the two-generated multiples.
        argv = ("search-low-e", "--sgp", "4,5,7", "--max-frobenius", "24")
        assert run(capsys, *argv, "--dmax", "3", "--max-nodes", "10") == (
            0, "d=3 ⟨5,7⟩ e=2\n", ""
        )
        assert run(capsys, *argv, "--dmax", "2") == (0, "none\n", "")
        # For e(S) = 2 the none is exact and no d is searched.
        argv = ("search-low-e", "--sgp", "3,5", "--dmax", "3", "--max-frobenius", "24")
        assert run(capsys, *argv, "--max-nodes", "2") == (0, "none\n", "")

    def test_low_e_search_finds_8_18_19(self, capsys):
        """⟨8,18,19⟩ is a 3-multiple of ⟨6,8,9,19⟩ with e = 3 and F = 49.
        It was missed when every d with more than 4,000 multiples of
        Frobenius number d·F(S) went unsearched, and d = 3 has more."""
        argv = ("search-low-e", "--sgp", "6,8,9,19")
        assert run(capsys, *argv, "--dmax", "12", "--max-frobenius", "60") == (
            0, "d=3 ⟨8,18,19⟩ e=3\n", ""
        )
        assert run(capsys, *argv, "--dmax", "20", "--max-frobenius", "30") == (0, "none\n", "")

    def test_low_e_search_root_past_the_bounds_is_a_hit(self, capsys):
        """A fiber's root is examined whatever the bounds: ⟨4,13⟩ is a
        5-multiple of ⟨4,5,6⟩ with e = 2, so it certifies the answer though
        its Frobenius number, 35, is past --max-frobenius."""
        argv = ("search-low-e", "--sgp", "4,5,6", "--dmax", "5", "--max-frobenius", "10")
        assert run(capsys, *argv) == (0, "d=5 ⟨4,13⟩ e=2\n", "")

    def test_low_e_search_refuses_the_closure_ceiling(self, capsys):
        """d·F(S) past the closure ceiling is refused with exit 3, as in
        max-multiples.  So is a Frobenius reach f with f + d·m(S) past it,
        as the search closes masks that long.  For e(S) = 3, f is first
        clamped to the reach of two generators, below
        (d·m(S) − 1)(d·max msg(S) − 1), so a huge bound still answers."""
        code, out, err = run(
            capsys, "search-low-e", "--sgp", "1100,1101,1102", "--dmax", "3",
            "--max-frobenius", "10",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1048576" in err
        argv = ("search-low-e", "--dmax", "2", "--max-frobenius", "1048576")
        assert run(capsys, *argv, "--sgp", "4,5,6,7") == (
            3,
            "",
            "error: the low-e search's Frobenius reach plus d·m(S), 1048576 + 8, "
            "passes 1048576\n",
        )
        assert run(capsys, *argv, "--sgp", "4,5,7") == (0, "none\n", "")
        argv = ("search-low-e", "--sgp", "4,6,7", "--dmax", "5", "--max-genus", "1000000")
        assert run(capsys, *argv) == (0, "none\n", "")
        argv = ("search-low-e", "--sgp", "600,601,602", "--dmax", "2")
        assert run(capsys, *argv, "--max-frobenius", "2000000") == (
            3,
            "",
            "error: the low-e search's Frobenius reach plus d·m(S), 1442396 + 1200, "
            "passes 1048576\n",
        )

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestRankSweep:
    def test_csv_reproducible(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "rank-sweep", "--count", "5", "--max-genus", "7",
                "--seed", "11", "--csv", str(path),
            )
            assert code == 0
        assert a.read_text() == b.read_text()
        header = a.read_text().splitlines()[0]
        assert header.startswith("msg,frobenius,genus,")

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "rank-sweep", "--count", "2", "--max-genus", "6", "--seed", "3")
        assert code == 0
        assert len(out.splitlines()) == 3


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
    """A path that cannot be written is refused with exit 2 and leaves
    stdout empty, whichever option names it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--out", "{bad}", "info", "--sgp", "3,4"],
            ["fiber-tree", "--sgp", "3,4,5", "--d", "3", "--max-nodes", "2", "--dot", "{bad}"],
            ["rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1", "--csv", "{bad}"],
        ],
        ids=["out", "dot", "csv"],
    )
    def test_exit_2(self, capsys, tmp_path, argv):
        bad = str(tmp_path / "missing" / "file.txt")
        code, out, err = run(capsys, *(a.replace("{bad}", bad) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write ") and bad in err


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
            "--sgp", "--d", "--root", "--dot", "--max-frobenius", "--max-genus",
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
    """main parses every argv with the one parser it built on its first
    call.  Each of these argv (help, usage errors, every ``--out``
    spelling), run in order on that parser after every earlier one, gives
    the outcome of a freshly built parser byte for byte.  The class keeps
    the name of the one-row parser these argv were first written for."""

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
            ["search-low-e", "--sgp", "4,5,7", "--dmax", "2", "--max-frobenius", "20"],
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
        ],
    )
    def test_same_as_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        out_path = tmp_path / "out.txt"
        reused = outcome(capsys, argv, out_path)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
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


class TestParserReuse:
    """An option given in one call on the reused parser leaves nothing
    behind for the next: without it, nothing goes to a file and the output
    goes to stdout, as from a freshly built parser."""

    @pytest.mark.parametrize(
        "with_path, without",
        [
            (
                ["fiber-tree", "--sgp", "3,4,5", "--d", "2", "--max-nodes", "3", "--dot", "{path}"],
                ["fiber-tree", "--sgp", "3,4,5", "--d", "2", "--max-nodes", "3"],
            ),
            (
                ["rank-sweep", "--count", "1", "--max-genus", "4", "--seed", "1", "--csv", "{path}"],
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
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert (code, out, err) == run(capsys, *without)
        assert out and code == 0


class TestAsProgram:
    """The CLI run as ``python -m numsgps.cli`` in a fresh interpreter."""

    def program(self, *argv):
        src = str(Path(numsgps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "numsgps.cli", *argv],
            env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
            capture_output=True,
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
