"""Command-line surface: stable text/JSON/DOT output for every subsystem.

Each subcommand is one row of the table in :func:`_commands` (path, help,
handler, formats, options), and :func:`build_parser` loops over it.  A
handler computes its result once and returns one zero-argument renderer
per output (a JSON payload under ``"json"``, text under any other key).
:func:`main` alone picks the format, runs only the renderers it needs,
calls :func:`canonical_json` and writes: the ``--dot``/``--csv`` side files
first, then ``--out`` or stdout.  An unwritable path is invalid input.

Exit codes: 0 success, 2 invalid input, 3 budget or ceiling exceeded,
4 internal invariant violation.  JSON is canonical (sorted keys, two-space
indent) so that parsing and re-rendering is byte-stable; semigroup lists
are sorted by their minimal generators to stay diffable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring

from . import core, ed1, fibers, monoids, multiples, oracle, rank
from .core import NumericalSemigroup
from .errors import InvalidInput, NumsgpsError


def canonical_json(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\\n",
    byte for byte, emitted from an explicit stack so that nesting as deep as a
    long fiber chain stays off the recursion limit.  Keys must be strings."""
    out = []
    todo = ["\n", (0, "", payload)]  # literal text, or (nesting level, text before, value)
    while todo:
        entry = todo.pop()
        if type(entry) is str:
            out.append(entry)
            continue
        level, head, v = entry
        if type(v) is int:
            out.append(head + int.__repr__(v))
        elif type(v) is str:
            out.append(head + encode_basestring(v))
        elif isinstance(v, (dict, list, tuple)) and v:
            if isinstance(v, dict):
                brackets = "{}"
                items = [(encode_basestring(k) + ": ", x) for k, x in sorted(v.items())]
            else:
                brackets, items = "[]", [("", x) for x in v]
            pad = "\n" + "  " * (level + 1)
            sep = "," + pad
            out.append(head + brackets[0])
            todo.append("\n" + "  " * level + brackets[1])
            for i in range(len(items) - 1, -1, -1):
                prefix, x = items[i]
                todo.append((level + 1, (sep if i else pad) + prefix, x))
        else:  # None, booleans, floats and empty containers
            out.append(head + json.dumps(v, ensure_ascii=False))
    return "".join(out)


def _csv_ints(raw: str, what: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise InvalidInput(f"cannot parse {what} {raw!r} as a comma list of integers")


def parse_semigroup(spec: str) -> NumericalSemigroup:
    """Parse 'a,b,c' as generators or 'gaps:g1,g2,...' as a gap set."""
    if spec.startswith("gaps:"):
        return core.from_gaps(_csv_ints(spec[len("gaps:"):], "gap set"))
    return core.from_generators(_csv_ints(spec, "generator list"))


def _context(args) -> multiples.MultipleContext:
    return multiples.MultipleContext(parse_semigroup(args.sgp), args.d)


def _head(ctx: multiples.MultipleContext) -> dict:
    """The S/d fields that head every JSON payload about a context."""
    return {"S": ctx.semigroup.to_json_dict(), "d": ctx.d}


def _join(values) -> str:
    return ",".join(map(str, values))


def _listing(semigroups, key: str, ctx=None, **fields) -> dict:
    """Renderers of a semigroup list sorted by msg: one per line as text,
    under ``key`` (after the S/d head when ctx is given) as JSON."""
    ordered = sorted(semigroups, key=lambda s: s.msg)

    def payload():
        return {**(_head(ctx) if ctx else {}), **fields, key: [t.to_json_dict() for t in ordered]}

    return {"json": payload, "text": lambda: "".join(f"{t}\n" for t in ordered)}


def _bounds(args) -> fibers.TruncationBounds:
    return fibers.TruncationBounds(
        args.max_frobenius, args.max_genus, args.max_depth, args.max_nodes
    )


def _cmd_info(args) -> dict:
    S = parse_semigroup(args.sgp)
    facts = {"embedding_dimension": S.embedding_dimension, "multiplicity": S.multiplicity}
    if not S.is_whole_n:
        facts.update(
            pseudo_frobenius=list(core.pseudo_frobenius(S)),
            type=core.semigroup_type(S),
            irreducible=core.is_irreducible(S),
            symmetric=core.is_symmetric(S),
            pseudo_symmetric=core.is_pseudo_symmetric(S),
        )

    def text():
        line = f"{S} F={S.frobenius} g={S.genus} e={S.embedding_dimension} m={S.multiplicity}"
        if S.is_whole_n:
            return line + "\n"
        flags = "irreducible" if facts["irreducible"] else "reducible"
        if facts["symmetric"]:
            flags += ",symmetric"
        elif facts["pseudo_symmetric"]:
            flags += ",pseudo-symmetric"
        return f"{line} t={facts['type']} PF={{{_join(facts['pseudo_frobenius'])}}} {flags}\n"

    return {"json": lambda: {**S.to_json_dict(), **facts}, "text": text}


def _cmd_quotient(args) -> dict:
    S = multiples.quotient(parse_semigroup(args.sgp), args.d)
    return {"json": S.to_json_dict, "text": lambda: f"{S}\n"}


def _cmd_is_multiple(args) -> dict:
    ctx = _context(args)
    T = parse_semigroup(args.candidate)
    verdict = multiples.is_d_multiple(ctx, T)
    return {
        "json": lambda: {**_head(ctx), "candidate": T.to_json_dict(), "is_multiple": verdict},
        "text": lambda: ("true" if verdict else "false") + "\n",
    }


def _cmd_max_multiples(args) -> dict:
    ctx = _context(args)
    return _listing(multiples.max_multiples(ctx).maximals, "maximals", ctx)


def _trees_text(trees) -> str:
    """One line per node in preorder, indented by depth and tagged with the
    generator removed to reach it."""
    return "".join(
        ("" if n.removed_generator is None else "  " * n.depth + f"[x={n.removed_generator}] ")
        + f"{n.semigroup} F={n.semigroup.frobenius} g={n.semigroup.genus}\n"
        for tree in trees
        for n in tree.nodes()
    )


def _cmd_fiber_tree(args) -> dict:
    ctx = _context(args)
    if args.root == "auto":
        roots = sorted(multiples.max_multiples(ctx).maximals, key=lambda s: s.msg)
    else:
        roots = [parse_semigroup(args.root)]
    trees = [fibers.enumerate_fiber(ctx, root, _bounds(args)) for root in roots]
    return {
        "json": lambda: {
            **_head(ctx),
            "trees": [fibers.fiber_node_to_json_dict(t.root) for t in trees],
        },
        "text": lambda: _trees_text(trees),
        "dot": lambda: fibers.fiber_tree_to_dot(*trees),
    }


def _cmd_md_monoid(args) -> dict:
    ctx = _context(args)
    monoid = monoids.build_monoid(ctx, _csv_ints(args.x, "x set") if args.x else [])
    semigroup = monoid.to_semigroup() if monoid.is_semigroup else None
    shape = str(semigroup) if semigroup else f"{monoid.scale}*{monoid.reduced}"
    return {
        "json": lambda: {
            **_head(ctx),
            "x_set": list(monoid.x_set),
            "minimal_system": list(monoid.minimal_system),
            "md_embedding_dimension": monoid.md_embedding_dimension,
            "is_semigroup": monoid.is_semigroup,
            "semigroup": semigroup.to_json_dict() if semigroup else None,
        },
        "text": lambda: (
            f"minimal system {{{_join(monoid.minimal_system)}}} "
            f"md-e={monoid.md_embedding_dimension} "
            f"{'semigroup' if semigroup else 'monoid'} {shape}\n"
        ),
    }


def _cmd_ed1(args) -> dict:
    ctx = _context(args)
    m = ed1.construct_ed1(ctx, args.x)
    pf = list(ed1.ed1_pseudo_frobenius(m)) if not ctx.semigroup.is_whole_n else []
    facts = {
        "x": m.x,
        "frobenius": ed1.ed1_frobenius(m),
        "genus": ed1.ed1_genus(m),
        "pf": pf,
        "type": len(pf),
        "gluing": ed1.is_gluing_of_n_and_s(m),
    }
    return {
        "json": lambda: {"semigroup": m.semigroup.to_json_dict(), **facts},
        "text": lambda: (
            f"{m.semigroup} F={facts['frobenius']} g={facts['genus']} PF={{{_join(pf)}}} "
            f"t={len(pf)} gluing={'yes' if facts['gluing'] else 'no'}\n"
        ),
    }


def _cmd_full_rank(args) -> dict:
    S = parse_semigroup(args.sgp)
    report = rank.full_rank_condition(S)
    return {
        "json": lambda: {
            "semigroup": S.to_json_dict(),
            "condition_holds": report.condition_holds,
            "multiplicity_bound_ok": report.multiplicity_bound_ok,
            "witnesses": [
                {"generator": w.generator, "partner_sum": w.partner_sum, "in_apery": w.in_apery}
                for w in report.witnesses
            ],
        },
        "text": lambda: "".join(
            f"{w.partner_sum} in Ap({S},{w.generator}): {'yes' if w.in_apery else 'no'}\n"
            for w in report.witnesses
        )
        + ("full quotient rank (condition holds)\n" if report.condition_holds
           else "condition fails (no verdict)\n"),
    }


def _cmd_unique_betti(args) -> dict:
    spec = rank.UniqueBettiSpec(tuple(sorted(_csv_ints(args.c, "factor list"))))
    S = rank.unique_betti(spec)
    return {
        "json": lambda: {"c": list(spec.c), "semigroup": S.to_json_dict(), "condition_holds": True},
        "text": lambda: f"{S} F={S.frobenius} g={S.genus} full quotient rank\n",
    }


def _cmd_search_low_e(args) -> dict:
    S = parse_semigroup(args.sgp)
    d, T = rank.bounded_low_e_multiple_search(S, args.dmax, _bounds(args)) or (None, None)
    return {
        "json": lambda: {
            "semigroup": S.to_json_dict(),
            "dmax": args.dmax,
            "found": T is not None,
            "d": d,
            "multiple": T.to_json_dict() if T else None,
        },
        "text": lambda: f"d={d} {T} e={T.embedding_dimension}\n" if T else "none\n",
    }


def _cmd_rank_sweep(args) -> dict:
    rows = rank.rank_sweep(args.count, args.max_genus, args.seed, d_max=args.dmax)

    def table():
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=rank.SWEEP_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue()

    if args.csv:
        return {"csv": table, "text": lambda: f"wrote {len(rows)} rows to {args.csv}\n"}
    return {"text": table}


def _cmd_oracle_census(args) -> dict:
    found = oracle.all_with_frobenius(args.f)
    return _listing(found, "semigroups", f=args.f, count=len(found))


def _cmd_oracle_multiples(args) -> dict:
    ctx = _context(args)
    budget = oracle.EnumerationBudget(
        max_frobenius=args.max_frobenius,
        max_genus=args.max_genus if args.max_genus is not None else args.max_frobenius,
        hard_node_limit=args.limit,
    )
    found = oracle.all_multiples_bounded(ctx, budget)
    return _listing(found, "multiples", ctx, max_frobenius=args.max_frobenius)


# An option is (flag, keyword arguments of add_argument).
_REQUIRED, _REQUIRED_INT = {"required": True}, {"type": int, "required": True}
_SGP, _D = ("--sgp", _REQUIRED), ("--d", _REQUIRED_INT)
_BOUNDS = tuple((f"--max-{b}", {"type": int}) for b in ("frobenius", "genus", "depth", "nodes"))
_TEXT_JSON = ("text", "json")


def _commands():
    """The command table in --help order: (path, help, handler, formats,
    *options) per subcommand, where a row without a handler is a group.
    Built on each call, so it holds the handlers bound at that time."""
    return (
        ("info", "invariants of one semigroup", _cmd_info, _TEXT_JSON, _SGP),
        ("quotient", "compute T/d", _cmd_quotient, _TEXT_JSON, _SGP, _D),
        ("is-multiple", "test whether a candidate is a d-multiple of S", _cmd_is_multiple,
         _TEXT_JSON, _SGP, _D, ("--candidate", _REQUIRED)),
        ("max-multiples", "all inclusion-maximal d-multiples of S", _cmd_max_multiples,
         _TEXT_JSON, _SGP, _D),
        ("fiber-tree", "enumerate a saturation fiber as a rooted tree", _cmd_fiber_tree,
         ("text", "json", "dot"), _SGP, _D,
         ("--root", {"default": "auto", "help": "'auto' or a generator list"}),
         ("--dot", {"help": "also write DOT to this path"}), *_BOUNDS),
        ("md-monoid", "the monoid ⟨X⟩ + d·S and its minimal system", _cmd_md_monoid,
         _TEXT_JSON, _SGP, _D, ("--x", {"default": "", "help": "comma list, may be empty"})),
        ("ed1", "closed forms for ⟨x⟩ + d·S", _cmd_ed1, _TEXT_JSON, _SGP, _D,
         ("--x", _REQUIRED_INT)),
        ("full-rank", "Apéry sufficient condition for full quotient rank", _cmd_full_rank,
         _TEXT_JSON, _SGP),
        ("unique-betti", "semigroup from pairwise-coprime factors", _cmd_unique_betti,
         _TEXT_JSON, ("--c", _REQUIRED)),
        ("search-low-e", "bounded hunt for a multiple of smaller e", _cmd_search_low_e,
         _TEXT_JSON, _SGP, ("--dmax", _REQUIRED_INT), *_BOUNDS),
        ("rank-sweep", "seeded CSV experiment on random semigroups", _cmd_rank_sweep, (),
         ("--count", _REQUIRED_INT), ("--max-genus", _REQUIRED_INT), ("--seed", _REQUIRED_INT),
         ("--dmax", {"type": int, "default": 3}), ("--csv", {})),
        ("oracle", "brute-force enumerators (test fixtures)", None, ()),
        ("oracle frobenius-census", "all semigroups with Frobenius number f",
         _cmd_oracle_census, _TEXT_JSON, ("--f", _REQUIRED_INT)),
        ("oracle multiples-bounded", "all d-multiples up to a Frobenius bound",
         _cmd_oracle_multiples, _TEXT_JSON, _SGP, _D, ("--max-frobenius", _REQUIRED_INT),
         ("--max-genus", {"type": int}), ("--limit", {"type": int, "default": 100000})),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="Numerical semigroups, their d-multiples, fiber trees and rank tools.",
    )
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, run, formats, *options in _commands():
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, help=help_text)
        if run is None:
            groups[path] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        for flag, spec in options:
            p.add_argument(flag, **spec)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(run=run)
    return parser


def _write(path, text: str) -> None:
    """Write text to stdout, or to the file at path as UTF-8 with its line ends unchanged."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise InvalidInput(f"cannot write {path}: {err.strerror or err}") from err


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        renderers = args.run(args)
        # The side files --dot and --csv get the renderer of their name;
        # stdout (or --out) comes last, so a refused path leaves it empty.
        targets = [(getattr(args, k, None), k) for k in ("dot", "csv") if getattr(args, k, None)]
        targets.append((args.out, getattr(args, "format", "text")))
        rendered = {key: renderers[key]() for _, key in targets}
        if "json" in rendered:
            rendered["json"] = canonical_json(rendered["json"])
        for path, key in targets:
            _write(path, rendered[key])
    except NumsgpsError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
