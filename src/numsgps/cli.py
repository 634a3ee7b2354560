"""Command-line surface: stable text/JSON/DOT output for every subsystem.

Each subcommand is one row of the table :data:`_COMMANDS` (path, help,
handler, formats, options), and :func:`build_parser` loops over it.
:func:`main` builds that parser once per process, on its first call, and
parses every later argv with it too: in-process callers parse many argv,
and a parse leaves the parser as it was.  A handler computes its result
once and returns one zero-argument renderer per output.  A renderer
returns text, a small JSON payload (a dict, under ``"json"``) or an
iterable of text chunks; the three ``fiber-tree`` renderers (text, JSON
and DOT) yield chunks node by node or line by line from each fiber's flat
preorder lists, so its output, which grows with the cube of the tree
depth as JSON, never has to fit in memory.  The JSON of a semigroup
listing (``max-multiples`` and the oracle census and bounded multiples)
is streamed too, one semigroup per chunk.  Both JSON streams write a
semigroup's JSON object through one template, :func:`_semigroup_json`,
and they and the fiber text format each integer once per output, into a
table of names read by index; the fiber text and JSON also build each
depth's indents once.  Those tables grow with the largest integer
printed and with the square of the tree depth.  All search happens in
the handler, so a refusal comes before the first byte.  :func:`main`
alone picks the format, runs only the renderers it needs, encodes small
payloads with the standard library's ``json`` (:func:`canonical_json`)
and streams the chunks: the ``--dot``/``--csv`` side files first, then
``--out`` or stdout.  An unwritable path is invalid input.

Exit codes: 0 success, 2 invalid input, 3 budget or ceiling exceeded,
4 internal invariant violation.  JSON is canonical (sorted keys, two-space
indent) so that parsing and re-rendering is byte-stable; semigroup lists
are sorted by their minimal generators to stay diffable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from itertools import compress

from . import core, ed1, fibers, monoids, multiples, oracle, rank
from .core import _BIT_FLAGS, NumericalSemigroup
from .errors import InvalidInput, NumsgpsError


def canonical_json(payload) -> str:
    """The payload as sorted-key, two-space-indented JSON with a final
    newline.  With ``indent`` the standard library encoder is its pure
    Python one, which recurses once per nesting level, so only small
    payloads come through here: the fiber forest is written chunk by chunk
    from its preorder lists by :func:`_trees_json`, and a semigroup
    listing one semigroup at a time by :func:`_listing`; each takes only
    its head from here."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
    under ``key`` (after the S/d head when ctx is given) as JSON.

    The JSON is canonical_json of that payload, byte for byte, in chunks:
    the head, which is the payload with an empty list cut before its
    ``[]`` (``key`` sorts after every other key), then one
    :func:`_semigroup_json` per semigroup, then the close.  An empty list
    is the head as it is."""
    ordered = sorted(semigroups, key=lambda s: s.msg)

    def json_chunks():
        head = canonical_json({**(_head(ctx) if ctx else {}), **fields, key: []})
        if not ordered:
            yield head
            return
        start, _, end = head.rpartition("[]")
        names: list = []
        indents = _json_indents(2)
        opening = start + "["
        for T in ordered:
            yield opening + indents[0] + _semigroup_json(T.gap_mask, T.msg, names, indents)
            opening = ","
        yield "\n  ]" + end

    return {"json": json_chunks, "text": lambda: "".join(f"{t}\n" for t in ordered)}


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
    return _listing(multiples.max_multiples(ctx, args.max_nodes).maximals, "maximals", ctx)


def _name_through(names: list, top: int) -> None:
    """Extend ``names``, the table with str(n) at index n, through top.

    The renderers grow it through max(F(T), max msg(T)) for each
    semigroup T they print (max msg is below F for ⟨3,4⟩), which names
    everything T prints: its gaps and genus are at most F(T), and so is a
    fiber node's depth, as the genus grows by one per level, and its
    removed generator is one of its gaps.  Only ℕ has F = -1, which its
    renderer names itself."""
    names.extend(map(str, range(len(names), top + 1)))


def _trees_text(trees):
    """One line per node, indented by depth and tagged with the generator
    removed to reach it, each integer read from one table of names.  The
    indent and tag of depth k are built once; a forest of depth K keeps
    about K² bytes of them."""
    names: list = []
    tags: list = [""]  # per depth k ≥ 1: the indent and "[x="
    for tree in trees:
        for G, msg, x, k in zip(tree.gap_mask, tree.msg, tree.removed_generator, tree.depth):
            F = G.bit_length() - 1
            if F >= len(names) or msg[-1] >= len(names):
                _name_through(names, max(F, msg[-1]))
            if k == len(tags):  # preorder descends one level at a time
                tags.append("  " * k + "[x=")
            tag = f"{tags[k]}{names[x]}] " if k else ""
            F = names[F] if G else "-1"  # ℕ has F = -1
            gens = ",".join(map(names.__getitem__, msg))
            yield f"{tag}⟨{gens}⟩ F={F} g={names[G.bit_count()]}\n"


def _json_indents(n: int) -> tuple[str, ...]:
    """The newline-indents of a JSON object whose braces sit at nesting
    level n, of its fields and of their list elements, with the separator
    of those elements."""
    pad = "\n" + "  " * n
    elements = pad + "    "
    return pad, pad + "  ", elements, "," + elements


def _json_level(k: int) -> tuple[str, ...]:
    """The newline-indent of a fiber node at depth k, at nesting level
    2 + 2k, then the :func:`_json_indents` of its fields' level, which is
    its ``"semigroup"`` object's."""
    return ("\n" + "  " * (2 + 2 * k), *_json_indents(3 + 2 * k))


def _semigroup_json(G: int, msg: tuple[int, ...], names: list, indents) -> str:
    """The canonical JSON object (the fields of ``to_json_dict``) of the
    semigroup (G, msg), from its opening brace to its closing one, at
    ``indents`` (:func:`_json_indents` of the braces' level).  Every integer
    is read from ``names``, grown here as needed; the gaps are picked by the
    bits of the gap mask G, without building the gap tuple."""
    close, field, element, sep = indents
    F = G.bit_length() - 1
    if F >= len(names) or msg[-1] >= len(names):
        _name_through(names, max(F, msg[-1]))
    if G:
        flags = bin(G)[:1:-1].encode().translate(_BIT_FLAGS)
        F, gaps = names[F], f"[{element}{sep.join(compress(names, flags))}{field}]"
    else:
        F, gaps = "-1", "[]"  # ℕ
    return (
        f'{{{field}"frobenius": {F},{field}"gaps": {gaps},{field}"genus": '
        f'{names[G.bit_count()]},{field}"msg": [{element}{sep.join(map(names.__getitem__, msg))}'
        f"{field}]{close}}}"
    )


def _node_fields(G: int, msg: tuple[int, ...], x: int | None, k: int, names: list, level) -> str:
    """Everything of a fiber node's JSON object after its children: the
    fields at its indent and the closing brace.  ``level`` is
    ``_json_level(k)``; the ``"semigroup"`` object is
    :func:`_semigroup_json`'s, which also names every integer printed."""
    semigroup = _semigroup_json(G, msg, names, level[1:])
    pad, fields = level[0], level[1]
    return (
        f'{fields}"depth": {names[k]},{fields}"removed_generator": '
        f'{"null" if x is None else names[x]},{fields}"semigroup": {semigroup}{pad}}}'
    )


def _trees_json(ctx, trees):
    """canonical_json of the fiber-tree payload (the S/d head, then
    ``trees``), byte for byte, in chunks written from the trees' preorder
    lists.

    A node's ``"children"`` key sorts first, so its chunk opens that list.
    The list stays open while the next node is deeper, as that node is its
    first child; otherwise the node is closed, with its fields, and so is
    each ancestor, found by parent index, whose depth is not less than the
    next node's.  Each integer is formatted once per output, into a table
    of names (:func:`_name_through`), and the indents of each depth
    (:func:`_json_level`) are built once; at depth k they hold about 20k
    characters, so a forest of depth K keeps about 10K² bytes of them
    (2.5 MB at K = 500).  Memory stays at the trees, those tables and one
    node's text.  ``trees`` is not empty: every S other than ℕ has a
    maximal d-multiple.
    """
    start, _, end = canonical_json({**_head(ctx), "trees": []}).rpartition("[]")
    yield start + "["
    names: list = []
    levels: list = []
    for t, tree in enumerate(trees):
        gap_mask, msg, removed, depth, parent = (
            tree.gap_mask, tree.msg, tree.removed_generator, tree.depth, tree.parent
        )
        last = len(depth) - 1
        for i, k in enumerate(depth):
            if k == len(levels):  # preorder descends one level at a time
                levels.append(_json_level(k))
            level = levels[k]
            first = depth[i - 1] < k if i else t == 0  # first of its list
            after = depth[i + 1] if i < last else 0
            opening = f'{"" if first else ","}{level[0]}{{{level[1]}"children": ['
            if after > k:
                yield opening
                continue
            yield opening + "]," + _node_fields(gap_mask[i], msg[i], removed[i], k, names, level)
            j = parent[i]
            while j >= 0 and depth[j] >= after:
                k = depth[j]
                yield levels[k][1] + "]," + _node_fields(
                    gap_mask[j], msg[j], removed[j], k, names, levels[k]
                )
                j = parent[j]
    yield "\n  ]" + end


def _trees_dot(trees):
    """DOT rendering of the fiber trees as one digraph, one line per
    chunk: node label '⟨msg⟩ F=.. g=..', edge label = removed generator, each
    tree's node lines before its edge lines, the edges grouped by parent in
    preorder."""
    yield "digraph fiber {\n"
    for tree in trees:
        name = [f"⟨{_join(msg)}⟩" for msg in tree.msg]  # each formatted once
        for n, G in zip(name, tree.gap_mask):
            yield f'  "{n}" [label="{n} F={G.bit_length() - 1} g={G.bit_count()}"];\n'
        # A stable sort by parent keeps each node's children in preorder.
        for i in sorted(range(1, len(name)), key=tree.parent.__getitem__):
            p = tree.parent[i]
            yield f'  "{name[p]}" -> "{name[i]}" [label="{tree.removed_generator[i]}"];\n'
    yield "}\n"


def _cmd_fiber_tree(args) -> dict:
    bounds = _bounds(args)  # refuses a negative bound before root discovery
    bounds.require_finite("fiber enumeration")  # and a missing one
    ctx = _context(args)
    if args.root == "auto":
        roots = sorted(multiples.max_multiples(ctx).maximals, key=lambda s: s.msg)
    else:
        roots = [parse_semigroup(args.root)]
    # Every tree is enumerated here, so a refusal comes before any output;
    # the renderers only format the nodes, chunk by chunk.
    trees = [fibers.enumerate_fiber(ctx, root, bounds) for root in roots]
    return {
        "json": lambda: _trees_json(ctx, trees),
        "text": lambda: _trees_text(trees),
        "dot": lambda: _trees_dot(trees),
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


# The command table in --help order: (path, help, handler, formats,
# *options) per subcommand, where a row without a handler is a group.
# :func:`main` reads it once per process, when it first builds its parser,
# since in-process callers parse many argv with that parser.
_COMMANDS = (
    ("info", "invariants of one semigroup", _cmd_info, _TEXT_JSON, _SGP),
    ("quotient", "compute T/d", _cmd_quotient, _TEXT_JSON, _SGP, _D),
    ("is-multiple", "test whether a candidate is a d-multiple of S", _cmd_is_multiple,
     _TEXT_JSON, _SGP, _D, ("--candidate", _REQUIRED)),
    ("max-multiples", "all inclusion-maximal d-multiples of S", _cmd_max_multiples,
     _TEXT_JSON, _SGP, _D, ("--max-nodes", {"type": int})),
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
    """A new parser for every row of the table.  :func:`main` builds one per
    process, through :func:`_parser`, since in-process callers parse many argv."""
    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="Numerical semigroups, their d-multiples, fiber trees and rank tools.",
    )
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, run, formats, *options in _COMMANDS:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call."""
    return build_parser()


def _chunks(rendered):
    """A renderer's result as str chunks: text is one chunk, a JSON payload
    (a dict) is its canonical JSON, and anything else already is chunks."""
    if isinstance(rendered, str):
        return (rendered,)
    if isinstance(rendered, dict):
        return (canonical_json(rendered),)
    return rendered


def _write(path, chunks) -> None:
    """Write str chunks to stdout, or to the file at path as UTF-8 with
    their line ends unchanged."""
    if not path:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as err:
        raise InvalidInput(f"cannot write {path}: {err.strerror or err}") from err


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        renderers = args.run(args)
        # The side files --dot and --csv get the renderer of their name;
        # stdout (or --out) comes last, so a refused path leaves it empty.
        targets = [(getattr(args, k, None), k) for k in ("dot", "csv") if getattr(args, k, None)]
        targets.append((args.out, getattr(args, "format", "text")))
        # Each target calls its renderer, so chunks that stream are fresh for
        # each (--dot PATH --format dot writes the same DOT twice).
        outputs = [(path, _chunks(renderers[key]())) for path, key in targets]
        for path, chunks in outputs:
            _write(path, chunks)
    except NumsgpsError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
