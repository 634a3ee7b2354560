"""Command-line surface: stable text/JSON/DOT output for every subsystem.

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


def _sorted_by_msg(semigroups) -> list[NumericalSemigroup]:
    return sorted(semigroups, key=lambda s: s.msg)


def _info_line(S: NumericalSemigroup) -> str:
    head = f"{S} F={S.frobenius} g={S.genus} e={S.embedding_dimension} m={S.multiplicity}"
    if S.is_whole_n:
        return head
    pf = ",".join(map(str, core.pseudo_frobenius(S)))
    flags = "irreducible" if core.is_irreducible(S) else "reducible"
    if core.is_symmetric(S):
        flags += ",symmetric"
    elif core.is_pseudo_symmetric(S):
        flags += ",pseudo-symmetric"
    return f"{head} t={core.semigroup_type(S)} PF={{{pf}}} {flags}"


def _cmd_info(args) -> str:
    S = parse_semigroup(args.sgp)
    if args.format == "json":
        payload = S.to_json_dict()
        payload["embedding_dimension"] = S.embedding_dimension
        payload["multiplicity"] = S.multiplicity
        if not S.is_whole_n:
            payload["pseudo_frobenius"] = list(core.pseudo_frobenius(S))
            payload["type"] = core.semigroup_type(S)
            payload["irreducible"] = core.is_irreducible(S)
            payload["symmetric"] = core.is_symmetric(S)
            payload["pseudo_symmetric"] = core.is_pseudo_symmetric(S)
        return canonical_json(payload)
    return _info_line(S) + "\n"


def _cmd_quotient(args) -> str:
    S = multiples.quotient(parse_semigroup(args.sgp), args.d)
    if args.format == "json":
        return canonical_json(S.to_json_dict())
    return f"{S}\n"


def _cmd_is_multiple(args) -> str:
    ctx = multiples.MultipleContext(parse_semigroup(args.sgp), args.d)
    T = parse_semigroup(args.candidate)
    verdict = multiples.is_d_multiple(ctx, T)
    if args.format == "json":
        return canonical_json(
            {
                "S": ctx.semigroup.to_json_dict(),
                "d": ctx.d,
                "candidate": T.to_json_dict(),
                "is_multiple": verdict,
            }
        )
    return ("true" if verdict else "false") + "\n"


def _cmd_max_multiples(args) -> str:
    ctx = multiples.MultipleContext(parse_semigroup(args.sgp), args.d)
    result = multiples.max_multiples(ctx)
    ordered = _sorted_by_msg(result.maximals)
    if args.format == "json":
        return canonical_json(
            {
                "S": ctx.semigroup.to_json_dict(),
                "d": ctx.d,
                "maximals": [t.to_json_dict() for t in ordered],
            }
        )
    return "".join(f"{t}\n" for t in ordered)


def _bounds_from_args(args) -> fibers.TruncationBounds:
    return fibers.TruncationBounds(
        max_frobenius=args.max_frobenius,
        max_genus=args.max_genus,
        max_depth=args.max_depth,
        max_nodes=args.max_nodes,
    )


def _render_tree_text(tree: fibers.FiberTree) -> str:
    lines = []
    for node in tree.nodes():
        s = node.semigroup
        label = f"{s} F={s.frobenius} g={s.genus}"
        if node.removed_generator is None:
            lines.append(label)
        else:
            lines.append("  " * node.depth + f"[x={node.removed_generator}] {label}")
    return "\n".join(lines) + "\n"


def _cmd_fiber_tree(args) -> str:
    ctx = multiples.MultipleContext(parse_semigroup(args.sgp), args.d)
    bounds = _bounds_from_args(args)
    if args.root == "auto":
        roots = _sorted_by_msg(multiples.max_multiples(ctx).maximals)
    else:
        roots = [parse_semigroup(args.root)]
    trees = [fibers.enumerate_fiber(ctx, root, bounds) for root in roots]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(fibers.fiber_tree_to_dot(*trees))
    if args.format == "dot":
        return fibers.fiber_tree_to_dot(*trees)
    if args.format == "json":
        return canonical_json(
            {
                "S": ctx.semigroup.to_json_dict(),
                "d": ctx.d,
                "trees": [fibers.fiber_node_to_json_dict(t.root) for t in trees],
            }
        )
    return "".join(_render_tree_text(t) for t in trees)


def _cmd_md_monoid(args) -> str:
    ctx = multiples.MultipleContext(parse_semigroup(args.sgp), args.d)
    xs = _csv_ints(args.x, "x set") if args.x else []
    monoid = monoids.build_monoid(ctx, xs)
    semigroup = monoid.to_semigroup() if monoid.is_semigroup else None
    if args.format == "json":
        return canonical_json(
            {
                "S": ctx.semigroup.to_json_dict(),
                "d": ctx.d,
                "x_set": list(monoid.x_set),
                "minimal_system": list(monoid.minimal_system),
                "md_embedding_dimension": monoid.md_embedding_dimension,
                "is_semigroup": monoid.is_semigroup,
                "semigroup": semigroup.to_json_dict() if semigroup else None,
            }
        )
    shape = str(semigroup) if semigroup else f"{monoid.scale}*{monoid.reduced}"
    return (
        f"minimal system {{{','.join(map(str, monoid.minimal_system))}}} "
        f"md-e={monoid.md_embedding_dimension} "
        f"{'semigroup' if monoid.is_semigroup else 'monoid'} {shape}\n"
    )


def _cmd_ed1(args) -> str:
    ctx = multiples.MultipleContext(parse_semigroup(args.sgp), args.d)
    m = ed1.construct_ed1(ctx, args.x)
    pf = ed1.ed1_pseudo_frobenius(m) if not ctx.semigroup.is_whole_n else ()
    payload = {
        "semigroup": m.semigroup.to_json_dict(),
        "x": m.x,
        "frobenius": ed1.ed1_frobenius(m),
        "genus": ed1.ed1_genus(m),
        "pf": list(pf),
        "type": len(pf),
        "gluing": ed1.is_gluing_of_n_and_s(m),
    }
    if args.format == "json":
        return canonical_json(payload)
    return (
        f"{m.semigroup} F={payload['frobenius']} g={payload['genus']} "
        f"PF={{{','.join(map(str, pf))}}} t={payload['type']} "
        f"gluing={'yes' if payload['gluing'] else 'no'}\n"
    )


def _cmd_full_rank(args) -> str:
    S = parse_semigroup(args.sgp)
    report = rank.full_rank_condition(S)
    if args.format == "json":
        return canonical_json(
            {
                "semigroup": S.to_json_dict(),
                "condition_holds": report.condition_holds,
                "multiplicity_bound_ok": report.multiplicity_bound_ok,
                "witnesses": [
                    {
                        "generator": w.generator,
                        "partner_sum": w.partner_sum,
                        "in_apery": w.in_apery,
                    }
                    for w in report.witnesses
                ],
            }
        )
    lines = [
        f"{w.partner_sum} in Ap({S},{w.generator}): {'yes' if w.in_apery else 'no'}"
        for w in report.witnesses
    ]
    verdict = (
        "full quotient rank (condition holds)"
        if report.condition_holds
        else "condition fails (no verdict)"
    )
    return "\n".join(lines + [verdict]) + "\n"


def _cmd_unique_betti(args) -> str:
    spec = rank.UniqueBettiSpec(tuple(sorted(_csv_ints(args.c, "factor list"))))
    S = rank.unique_betti(spec)
    if args.format == "json":
        return canonical_json(
            {
                "c": list(spec.c),
                "semigroup": S.to_json_dict(),
                "condition_holds": True,
            }
        )
    return f"{S} F={S.frobenius} g={S.genus} full quotient rank\n"


def _cmd_search_low_e(args) -> str:
    S = parse_semigroup(args.sgp)
    bounds = _bounds_from_args(args)
    hit = rank.bounded_low_e_multiple_search(S, args.dmax, bounds)
    if args.format == "json":
        return canonical_json(
            {
                "semigroup": S.to_json_dict(),
                "dmax": args.dmax,
                "found": hit is not None,
                "d": hit[0] if hit else None,
                "multiple": hit[1].to_json_dict() if hit else None,
            }
        )
    if hit is None:
        return "none\n"
    return f"d={hit[0]} {hit[1]} e={hit[1].embedding_dimension}\n"


def _cmd_rank_sweep(args) -> str:
    rows = rank.rank_sweep(args.count, args.max_genus, args.seed, d_max=args.dmax)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=rank.SWEEP_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return f"wrote {len(rows)} rows to {args.csv}\n"
    return text


def _cmd_oracle_census(args) -> str:
    found = _sorted_by_msg(oracle.all_with_frobenius(args.f))
    if args.format == "json":
        return canonical_json(
            {"f": args.f, "count": len(found), "semigroups": [t.to_json_dict() for t in found]}
        )
    return "".join(f"{t}\n" for t in found)


def _cmd_oracle_multiples(args) -> str:
    ctx = multiples.MultipleContext(parse_semigroup(args.sgp), args.d)
    budget = oracle.EnumerationBudget(
        max_frobenius=args.max_frobenius,
        max_genus=args.max_genus if args.max_genus is not None else args.max_frobenius,
        hard_node_limit=args.limit,
    )
    found = _sorted_by_msg(oracle.all_multiples_bounded(ctx, budget))
    if args.format == "json":
        return canonical_json(
            {
                "S": ctx.semigroup.to_json_dict(),
                "d": ctx.d,
                "max_frobenius": args.max_frobenius,
                "multiples": [t.to_json_dict() for t in found],
            }
        )
    return "".join(f"{t}\n" for t in found)


def _add_format(p, choices=("text", "json")):
    p.add_argument("--format", choices=choices, default="text")


def _add_bounds(p):
    p.add_argument("--max-frobenius", type=int, default=None)
    p.add_argument("--max-genus", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="Numerical semigroups, their d-multiples, fiber trees and rank tools.",
    )
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="invariants of one semigroup")
    p.add_argument("--sgp", required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_info)

    p = sub.add_parser("quotient", help="compute T/d")
    p.add_argument("--sgp", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_quotient)

    p = sub.add_parser("is-multiple", help="test whether a candidate is a d-multiple of S")
    p.add_argument("--sgp", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--candidate", required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_is_multiple)

    p = sub.add_parser("max-multiples", help="all inclusion-maximal d-multiples of S")
    p.add_argument("--sgp", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_max_multiples)

    p = sub.add_parser("fiber-tree", help="enumerate a saturation fiber as a rooted tree")
    p.add_argument("--sgp", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--root", default="auto", help="'auto' or a generator list")
    p.add_argument("--dot", default=None, help="also write DOT to this path")
    _add_bounds(p)
    _add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(run=_cmd_fiber_tree)

    p = sub.add_parser("md-monoid", help="the monoid ⟨X⟩ + d·S and its minimal system")
    p.add_argument("--sgp", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", default="", help="comma list, may be empty")
    _add_format(p)
    p.set_defaults(run=_cmd_md_monoid)

    p = sub.add_parser("ed1", help="closed forms for ⟨x⟩ + d·S")
    p.add_argument("--sgp", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_ed1)

    p = sub.add_parser("full-rank", help="Apéry sufficient condition for full quotient rank")
    p.add_argument("--sgp", required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_full_rank)

    p = sub.add_parser("unique-betti", help="semigroup from pairwise-coprime factors")
    p.add_argument("--c", required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_unique_betti)

    p = sub.add_parser("search-low-e", help="bounded hunt for a multiple of smaller e")
    p.add_argument("--sgp", required=True)
    p.add_argument("--dmax", type=int, required=True)
    _add_bounds(p)
    _add_format(p)
    p.set_defaults(run=_cmd_search_low_e)

    p = sub.add_parser("rank-sweep", help="seeded CSV experiment on random semigroups")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--csv", default=None)
    p.set_defaults(run=_cmd_rank_sweep)

    p_oracle = sub.add_parser("oracle", help="brute-force enumerators (test fixtures)")
    osub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("frobenius-census", help="all semigroups with Frobenius number f")
    p.add_argument("--f", type=int, required=True)
    _add_format(p)
    p.set_defaults(run=_cmd_oracle_census)

    p = osub.add_parser("multiples-bounded", help="all d-multiples up to a Frobenius bound")
    p.add_argument("--sgp", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-frobenius", type=int, required=True)
    p.add_argument("--max-genus", type=int, default=None)
    p.add_argument("--limit", type=int, default=100000)
    _add_format(p)
    p.set_defaults(run=_cmd_oracle_multiples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.run(args)
    except NumsgpsError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
