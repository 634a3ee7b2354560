"""The command-line surface: exact text fixtures, canonical JSON round
trips, DOT output, CSV reproducibility and exit codes."""

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
from numsgps.cli import canonical_json, main, parse_semigroup

from conftest import sgp


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

    def test_auto_root(self, capsys):
        code, out, _ = run(
            capsys, "fiber-tree", "--sgp", "3,4,5", "--d", "3", "--max-nodes", "1"
        )
        assert (code, out) == (0, "⟨4,5,7⟩ F=6 g=4\n")

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

        def boom(args):
            raise InternalInvariantError("simulated bug")

        monkeypatch.setitem(cli.__dict__, "_cmd_info", boom)
        # rebuild the parser so the patched handler is wired in
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
