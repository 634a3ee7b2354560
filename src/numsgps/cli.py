"""Command-line surface: stable text/JSON/DOT output for every subsystem.

Each subcommand is one row of the table :data:`_COMMANDS` (path, help,
handler, formats, options), and both parsers are read from it.
:func:`_plain_args` parses a plain argv, a command path followed only by
``--flag value`` pairs that spell out that row's options in full with
valid values, from a table built once at import, into a
``types.SimpleNamespace`` with the attributes of argparse's Namespace.
Every other argv (``--out``, help, an abbreviation, ``--flag=value``,
``--``, a dash-led value and every usage error) goes unchanged to a new
argparse parser of :func:`build_parser`, built for that argv alone, so
argparse alone writes help and usage errors.  A handler computes its
result once and returns one zero-argument renderer per format.  A
renderer returns text, a small JSON payload (a dict or a semigroup, under
``"json"``) or an iterable of text chunks.  :func:`canonical_json`
writes the standard library's sorted, indented JSON text itself, for
every one-shot payload and the head of every streamed JSON output; every
semigroup in it goes through one template, :func:`_semigroup_json`, from
constant pieces built once per nesting level, as three chunks: up to its
gap list, the gaps, and the rest, so the gap list, the bulk of a deep
fiber's JSON, is never copied into a larger string.  The bodies stream: a
semigroup listing (``max-multiples`` and the oracle census and bounded
multiples) one semigroup at a time through that template, and the three
``fiber-tree`` renderers (text, JSON and DOT) node by node or line by
line from each fiber's flat preorder lists, so its output, which grows
with the cube of the tree depth as JSON, never has to fit in memory.
Each integer is formatted once per output, into a table of names read by
index.  All search happens in the handler, so a refusal comes before the
first byte.  :func:`main` alone picks the format, runs the one renderer it
names and streams its chunks to ``--out`` or stdout.  An unwritable path
is invalid input.

Exit codes: 0 success, 1 stdout closed early or not writable, 2 invalid
input, 3 budget or ceiling exceeded, 4 internal invariant violation.  JSON
is canonical (sorted keys, two-space indent) so that parsing and
re-rendering is byte-stable; semigroup lists are sorted by their minimal
generators to stay diffable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from itertools import compress
from json.encoder import encode_basestring
from operator import itemgetter
from types import SimpleNamespace

from . import core, ed1, fibers, monoids, multiples, oracle, rank
from .core import NumericalSemigroup, _bit_flags
from .errors import CeilingExceeded, InvalidInput, NumsgpsError


def canonical_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    + "\\n"`` byte for byte, a semigroup written as its ``to_json_dict()``
    by :func:`_semigroup_json`, without the standard library's pure-Python
    indenting encoder: every piece goes into one list, joined once, a list
    of plain ints is one join, and only str and float scalars go through
    ``json``.  It writes every one-shot payload and the head of every
    streamed JSON output; the bodies of the fiber forest and the semigroup
    listings stream and match its text byte for byte."""
    out: list[str] = []
    _json_chunks(payload, "\n", out, [])
    out.append("\n")
    return "".join(out)


def _json_chunks(value, pad: str, out: list, names: list) -> None:
    """Append the canonical JSON of value to out, its nested lines
    indented past ``pad`` (a newline and the current indent).  A semigroup
    is written by :func:`_semigroup_json` at the nesting level of ``pad``,
    its integers read from ``names``, which is grown through it."""
    if isinstance(value, dict):
        inner, opening = pad + "  ", "{"
        for key in sorted(value):
            out.append(f"{opening}{inner}{encode_basestring(key)}: ")
            _json_chunks(value[key], inner, out, names)
            opening = ","
        out.append(pad + "}" if value else "{}")
    elif isinstance(value, NumericalSemigroup):
        _name_through(names, (value.gap_mask,), (value.msg,))
        out += _semigroup_json("", value.gap_mask, value.msg, names, _json_level(len(pad) // 2))
    elif isinstance(value, (list, tuple)):
        inner, opening = pad + "  ", "["
        if value and all(type(v) is int for v in value):
            out += "[", inner, ("," + inner).join(map(str, value)), pad, "]"
            return
        for v in value:
            out.append(opening + inner)
            _json_chunks(v, inner, out, names)
            opening = ","
        out.append(pad + "]" if value else "[]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif type(value) is int:
        out.append(str(value))
    else:
        out.append(json.dumps(value, ensure_ascii=False))


def _csv_ints(raw: str, what: str) -> list[int]:
    """The integers of a comma list; blank parts are skipped and spaces
    around a part stripped.  Digits must be ASCII without the underscores
    that ``int`` would also take."""
    if raw.isascii() and "_" not in raw:
        try:
            return [int(part) for part in raw.split(",") if part.strip() != ""]
        except ValueError:
            pass
    raise InvalidInput(f"cannot parse {what} {raw!r} as a comma list of integers")


def parse_semigroup(spec: str) -> NumericalSemigroup:
    """Parse 'a,b,c' as generators or 'gaps:g1,g2,...' as a gap set."""
    if spec.startswith("gaps:"):
        return core.from_gaps(_csv_ints(spec[len("gaps:"):], "gap set"))
    return core.from_generators(_csv_ints(spec, "generator list"))


def _context(args) -> multiples.MultipleContext:
    return multiples.MultipleContext(parse_semigroup(args.sgp), args.d)


def _join(values) -> str:
    return ",".join(map(str, values))


def _listing(semigroups, key: str, **head) -> dict:
    """Renderers of a semigroup list sorted by msg: one per line as text,
    as JSON under ``key``, which sorts after the ``head`` fields.

    The JSON is canonical_json of that payload, byte for byte: the head
    (the payload with an empty list, cut at its ``[``), then the
    :func:`_semigroup_json` chunks of each semigroup, then the close."""
    ordered = sorted(semigroups, key=lambda s: s.msg)

    def json_chunks():
        out: list = []
        names: list = []
        _json_chunks({**head, key: []}, "\n", out, names)
        out[-2:] = ["["]  # "[]" and the close, "\n}"
        yield from out
        if not ordered:
            yield "]\n}\n"
            return
        _name_through(names, (T.gap_mask for T in ordered), (T.msg for T in ordered))
        opening, listed = "", _json_level(2, "\n    ")
        for T in ordered:
            yield from _semigroup_json(opening, T.gap_mask, T.msg, names, listed)
            opening = ","
        yield "\n  ]\n}\n"

    return {"json": json_chunks, "text": lambda: "".join(f"{t}\n" for t in ordered)}


def _cmd_info(args) -> dict:
    S = parse_semigroup(args.sgp)
    facts = {"embedding_dimension": S.embedding_dimension, "multiplicity": S.multiplicity}
    if not S.is_whole_n:
        pf = core.pseudo_frobenius(S)
        facts.update(
            pseudo_frobenius=list(pf),
            type=len(pf),
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
    return {"json": lambda: S, "text": lambda: f"{S}\n"}


def _cmd_is_multiple(args) -> dict:
    ctx = _context(args)
    T = parse_semigroup(args.candidate)
    verdict = multiples.is_d_multiple(ctx, T)
    return {
        "json": lambda: {"S": ctx.semigroup, "d": ctx.d, "candidate": T, "is_multiple": verdict},
        "text": lambda: ("true" if verdict else "false") + "\n",
    }


def _cmd_max_multiples(args) -> dict:
    ctx = _context(args)
    maximals = multiples.max_multiples(ctx, args.max_nodes).maximals
    return _listing(maximals, "maximals", S=ctx.semigroup, d=ctx.d)


def _name_through(names: list, gap_masks, msgs) -> None:
    """Extend ``names``, the table with str(n) at index n, through the
    largest F(T) and max msg(T) of the semigroups T with these gap masks
    and msgs (max msg is below F for ⟨3,4⟩).  That names everything the
    renderers print of them: gaps and genus are at most F(T), and so is a
    fiber node's depth, as the genus grows by one per level, and its
    removed generator is one of its gaps.  Only ℕ has F = -1, which its
    renderer names itself."""
    top = max(max(gap_masks).bit_length() - 1, max(map(itemgetter(-1), msgs)))
    names.extend(map(str, range(len(names), top + 1)))


def _trees_text(trees):
    """One line per node, indented by depth and tagged with the generator
    removed to reach it, each integer read from one table of names, grown
    once per tree.  The indent and tag of depth k are built once; a forest
    of depth K keeps about K² bytes of them."""
    names: list = []
    name = names.__getitem__
    tags: list = []  # per depth k ≥ 1: the indent and "[x="
    for tree in trees:
        gap_mask, msg, depth = tree.gap_mask, tree.msg, tree.depth
        _name_through(names, gap_mask, msg)
        tags.extend("  " * k + "[x=" for k in range(len(tags), max(depth) + 1))
        G, gens = gap_mask[0], ",".join(map(name, msg[0]))
        F = names[G.bit_length() - 1] if G else "-1"  # ℕ, only ever a root, has F = -1
        yield f"⟨{gens}⟩ F={F} g={names[G.bit_count()]}\n"
        for G, gens, x, k in zip(gap_mask[1:], msg[1:], tree.removed_generator[1:], depth[1:]):
            gens = ",".join(map(name, gens))
            yield (
                f"{tags[k]}{names[x]}] ⟨{gens}⟩ "
                f"F={names[G.bit_length() - 1]} g={names[G.bit_count()]}\n"
            )


@functools.cache
def _json_level(n: int, before: str = "", after: str = "") -> tuple[str, ...]:
    """The constant pieces of the JSON object of a semigroup whose braces
    sit at nesting level n, in :func:`_semigroup_json`'s order: ``before``
    goes before its opening brace and ``after`` after its closing one."""
    pad = "\n" + "  " * n
    field = pad + "  "
    element = field + "  "
    return (
        f'{before}{{{field}"frobenius": ',
        f',{field}"gaps": [{element}',
        "," + element,
        f'{field}],{field}"genus": ',
        f',{field}"msg": [{element}',
        f"{field}]{pad}}}{after}",
        field,
    )


def _semigroup_json(head: str, G: int, msg: tuple[int, ...], names: list, level):
    """The canonical JSON object (the fields of ``to_json_dict``) of the
    semigroup (G, msg), after ``head``, as three chunks: everything up to
    its gap list's ``[``, the gaps, and the rest.  ``level`` is its
    :func:`_json_level`, and every integer is read from ``names``, which
    the caller has grown (:func:`_name_through`).  The gaps are picked by
    the bits of the gap mask G, without building the gap tuple, and their
    chunk is never copied into a larger string.  ℕ, with no gaps, is one
    chunk.  It writes every semigroup of every JSON output but a fiber
    child P ∖ {x} with x > F(P), which :func:`_trees_json` writes inline
    from the same level pieces."""
    opening, gaps, sep, genus, msg_key, close, field = level
    gens = sep.join(map(names.__getitem__, msg))
    if not G:  # ℕ
        return (f'{head}{opening}-1,{field}"gaps": [],{field}"genus": 0{msg_key}{gens}{close}',)
    return (
        f"{head}{opening}{names[G.bit_length() - 1]}{gaps}",
        sep.join(compress(names, _bit_flags(G))),
        f"{genus}{names[G.bit_count()]}{msg_key}{gens}{close}",
    )


def _fiber_level(k: int) -> tuple[str, ...]:
    """The constant pieces of a fiber node's JSON object at depth k, whose
    braces sit at nesting level 2 + 2k: its opening through its children's
    ``[`` as the first of its list and after a sibling, its fields from
    the close of an empty and of a filled children list through
    ``"removed_generator": ``, and the :func:`_json_level` of its
    ``"semigroup"`` object, with the node's close after it."""
    pad = "\n" + "  " * (2 + 2 * k)
    field = pad + "  "
    opening = f'{pad}{{{field}"children": ['
    fields = f'],{field}"depth": {k},{field}"removed_generator": '
    semigroup = _json_level(3 + 2 * k, f',{field}"semigroup": ', pad + "}")
    return opening, "," + opening, fields, field + fields, semigroup


def _trees_json(ctx, trees):
    """canonical_json of the fiber-tree payload (S, d, then ``trees``),
    byte for byte, in chunks: the head (the payload with no trees, cut at
    its ``[``), then the nodes written from the trees' preorder lists.

    A node's ``"children"`` key sorts first, so its chunk opens that list.
    The list stays open while the next node is deeper, as that node is its
    first child; otherwise the node is closed, with its fields, and so is
    each ancestor, found by parent index, whose depth is not less than the
    next node's.  One loop closes them, each from the pieces of its depth
    (:func:`_fiber_level`) as three chunks: up to its gap list, the gaps,
    and the rest.  The root and a child with x < F(P), whose x lands
    mid-list, go through :func:`_semigroup_json` with the removed
    generator (``null`` at the root) as the end of their head.

    A child T = P ∖ {x} with x > F(P), about nine nodes in ten, is written
    inline: it has the gaps of P followed by x, and F(T) = x.  Its gap
    list is written as the gaps of P, joined at the children's indent,
    then a separator and x.  That join is held while the closes share P,
    as consecutive leaves do, and made again when P changes; one list is
    held, not one per open ancestor.

    Each integer is formatted once per output, into a table of names
    grown once per tree (:func:`_name_through`), and the pieces of each
    depth are built once; at depth k they hold about 90k characters, so a
    forest of depth K keeps about 45K² bytes of them (11 MB at K = 500,
    where one deepest node's gap list alone holds about 1M characters).
    Memory stays at the trees, those tables, one node's text and one held
    parent gap list.  ``trees`` is not empty: every S other than ℕ has a
    maximal d-multiple.
    """
    yield canonical_json({"S": ctx.semigroup, "d": ctx.d, "trees": []})[:-4]
    names: list = []
    name = names.__getitem__
    levels: list = []
    for t, tree in enumerate(trees):
        gap_mask, msg, removed, depth, parent = (
            tree.gap_mask, tree.msg, tree.removed_generator, tree.depth, tree.parent
        )
        _name_through(names, gap_mask, msg)
        levels.extend(map(_fiber_level, range(len(levels), max(depth) + 1)))
        last = len(depth) - 1
        held_for = -1  # the parent whose gaps ``held`` joins
        for i, k in enumerate(depth):
            first, later, fields, _, _ = levels[k]
            opening = first if (depth[i - 1] < k if i else t == 0) else later
            after = depth[i + 1] if i < last else 0
            if after > k:
                yield opening
                continue
            j, head = i, opening + fields
            while True:
                p, level = parent[j], levels[depth[j]][4]
                if not j or gap_mask[p] >> removed[j]:  # the root, or x < F(P) mid-list
                    x = names[removed[j]] if j else "null"
                    yield from _semigroup_json(head + x, gap_mask[j], msg[j], names, level)
                else:  # the gaps of P, then x
                    frobenius, gaps, sep, genus, msg_key, close, _ = level
                    x, gens = names[removed[j]], sep.join(map(name, msg[j]))
                    rest = f"{genus}{names[gap_mask[j].bit_count()]}{msg_key}{gens}{close}"
                    if p != held_for:
                        held, held_for = sep.join(compress(names, _bit_flags(gap_mask[p]))), p
                    if held:
                        yield f"{head}{x}{frobenius}{x}{gaps}"
                        yield held
                        yield f"{sep}{x}{rest}"
                    else:  # P is ℕ
                        yield f"{head}{x}{frobenius}{x}{gaps}{x}{rest}"
                if not j or depth[p] < after:
                    break
                j, head = p, levels[depth[p]][3]
    yield "\n  ]\n}\n"


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
    # A negative or missing bound is refused before root discovery.
    bounds = fibers.TruncationBounds(
        args.max_frobenius, args.max_genus, args.max_depth, args.max_nodes
    )
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
    monoid = monoids.build_monoid(ctx, _csv_ints(args.x, "x set"))
    semigroup = monoid.reduced if monoid.is_semigroup else None
    shape = str(semigroup) if semigroup else f"{monoid.scale}*{monoid.reduced}"
    return {
        "json": lambda: {
            "S": ctx.semigroup,
            "d": ctx.d,
            "x_set": list(monoid.x_set),
            "minimal_system": list(monoid.minimal_system),
            "md_embedding_dimension": monoid.md_embedding_dimension,
            "is_semigroup": monoid.is_semigroup,
            "semigroup": semigroup,
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
        "json": lambda: {"semigroup": m.semigroup, **facts},
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
            "semigroup": S,
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
        "json": lambda: {"c": list(spec.c), "semigroup": S, "condition_holds": True},
        "text": lambda: f"{S} F={S.frobenius} g={S.genus} full quotient rank\n",
    }


def _cmd_search_low_e(args) -> dict:
    S = parse_semigroup(args.sgp)
    d, T = rank.bounded_low_e_multiple_search(S, args.dmax) or (None, None)
    return {
        "json": lambda: {
            "semigroup": S,
            "dmax": args.dmax,
            "found": T is not None,
            "d": d,
            "multiple": T,
        },
        "text": lambda: f"d={d} {T} e={T.embedding_dimension}\n" if T else "none\n",
    }


def _cmd_rank_sweep(args) -> dict:
    rows = rank.rank_sweep(args.count, args.max_genus, args.seed, d_max=args.dmax)

    def table():  # csv.DictWriter's text, from the row values in field order
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(rank.SWEEP_FIELDS)
        writer.writerows(map(itemgetter(*rank.SWEEP_FIELDS), rows))
        return buffer.getvalue()

    return {"text": table}


_CENSUS_CEILING = 20  # the largest Frobenius number the census command lists


def _cmd_oracle_census(args) -> dict:
    if args.f > _CENSUS_CEILING:
        raise CeilingExceeded(f"census for f={args.f} exceeds ceiling {_CENSUS_CEILING}")
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
    return _listing(found, "multiples", S=ctx.semigroup, d=ctx.d, max_frobenius=args.max_frobenius)


# An option is (flag, keyword arguments of add_argument).
_REQUIRED, _REQUIRED_INT = {"required": True}, {"type": int, "required": True}
_SGP, _D = ("--sgp", _REQUIRED), ("--d", _REQUIRED_INT)
_BOUNDS = tuple((f"--max-{b}", {"type": int}) for b in ("frobenius", "genus", "depth", "nodes"))
_TEXT_JSON = ("text", "json")


# The command table in --help order: (path, help, handler, formats,
# *options) per subcommand, where a row without a handler is a group.
# Both parsers read it: :func:`_plain_rows` once, at import, and
# :func:`build_parser` on each call.
_COMMANDS = (
    ("info", "invariants of one semigroup", _cmd_info, _TEXT_JSON, _SGP),
    ("quotient", "compute T/d", _cmd_quotient, _TEXT_JSON, _SGP, _D),
    ("is-multiple", "test whether a candidate is a d-multiple of S", _cmd_is_multiple,
     _TEXT_JSON, _SGP, _D, ("--candidate", _REQUIRED)),
    ("max-multiples", "all inclusion-maximal d-multiples of S", _cmd_max_multiples,
     _TEXT_JSON, _SGP, _D,
     ("--max-nodes", {"type": int, "help": "exit 3 past this many search paths"})),
    ("fiber-tree", "enumerate a saturation fiber as a rooted tree", _cmd_fiber_tree,
     ("text", "json", "dot"), _SGP, _D,
     ("--root", {"default": "auto", "help": "'auto' or a generator list"}), *_BOUNDS),
    ("md-monoid", "the monoid ⟨X⟩ + d·S and its minimal system", _cmd_md_monoid,
     _TEXT_JSON, _SGP, _D, ("--x", {"default": "", "help": "comma list, may be empty"})),
    ("ed1", "closed forms for ⟨x⟩ + d·S", _cmd_ed1, _TEXT_JSON, _SGP, _D,
     ("--x", _REQUIRED_INT)),
    ("full-rank", "Apéry sufficient condition for full quotient rank", _cmd_full_rank,
     _TEXT_JSON, _SGP),
    ("unique-betti", "semigroup from pairwise-coprime factors", _cmd_unique_betti,
     _TEXT_JSON, ("--c", _REQUIRED)),
    ("search-low-e", "least d ≤ --dmax with a multiple of smaller e", _cmd_search_low_e,
     _TEXT_JSON, _SGP, ("--dmax", _REQUIRED_INT)),
    ("rank-sweep", "seeded CSV experiment on random semigroups", _cmd_rank_sweep, (),
     ("--count", _REQUIRED_INT), ("--max-genus", _REQUIRED_INT), ("--seed", _REQUIRED_INT),
     ("--dmax", {"type": int, "default": 3})),
    ("oracle", "brute-force enumerators (test fixtures)", None, ()),
    ("oracle frobenius-census", "all semigroups with Frobenius number f",
     _cmd_oracle_census, _TEXT_JSON, ("--f", _REQUIRED_INT)),
    ("oracle multiples-bounded", "all d-multiples up to a Frobenius bound",
     _cmd_oracle_multiples, _TEXT_JSON, _SGP, _D, ("--max-frobenius", _REQUIRED_INT),
     ("--max-genus", {"type": int}), ("--limit", {"type": int, "default": 100000})),
)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every row of the table.  :func:`main` builds one for
    each argv that is not plain (:func:`_plain_args`) and parses that argv
    with it alone: it writes help and usage errors."""
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


def _plain_rows() -> dict:
    """The plain parser's table, keyed by each leaf row's path as a tuple of
    words: the number of words, the attributes of the Namespace that
    argparse gives when no option is given (``out``, the command dests,
    every dest at its default, ``format`` and ``run``), the dests of the
    required options, and per option string its dest, type and choices."""
    rows = {}
    for path, _, run, formats, *options in _COMMANDS:
        if run is None:
            continue
        words = tuple(path.split())
        defaults = {"out": None, "command": words[0], "run": run}
        defaults.update((f"{group}_command", leaf) for group, leaf in zip(words, words[1:]))
        flags, required = {}, []
        for flag, spec in options:
            dest = flag[2:].replace("-", "_")
            defaults[dest] = spec.get("default")
            flags[flag] = (dest, spec.get("type"), spec.get("choices"))
            if spec.get("required"):
                required.append(dest)
        if formats:
            defaults["format"] = "text"
            flags["--format"] = ("format", None, formats)
        rows[words] = (len(words), defaults, tuple(required), flags)
    return rows


_PLAIN = _plain_rows()


def _plain_args(argv):
    """A ``types.SimpleNamespace`` with the attributes of the Namespace that
    argparse gives a plain argv, or None when argv is not plain (the
    handlers read only attributes).  A plain argv is the words of a leaf
    row's path, then only pairs of one of that row's option strings,
    spelled out in full, and a value that does not start with ``-``,
    converts with the option's type and is one of its choices; every
    required option is given, and a repeated option keeps its last value.
    Anything else, help and every usage error included, is left to
    argparse."""
    row = _PLAIN.get(tuple(argv[:1])) or _PLAIN.get(tuple(argv[:2]))
    if row is None:
        return None
    n, defaults, required, flags = row
    if (len(argv) - n) % 2:
        return None
    values = defaults.copy()
    for flag, value in zip(argv[n::2], argv[n + 1::2]):
        option = flags.get(flag)
        if option is None or value[:1] == "-":
            return None
        dest, kind, choices = option
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for dest in required:
        if values[dest] is None:
            return None
    return SimpleNamespace(**values)


def _chunks(rendered):
    """A renderer's result as str chunks: text is one chunk, a JSON payload
    (a dict or a semigroup) is its canonical JSON, and anything else
    already is chunks."""
    if isinstance(rendered, str):
        return (rendered,)
    if isinstance(rendered, (dict, NumericalSemigroup)):
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        renderer = args.run(args)[getattr(args, "format", "text")]
        _write(args.out, _chunks(renderer()))
        sys.stdout.flush()
    except NumsgpsError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        # The reader closed stdout early (say, `| head`), silently, or stdout
        # cannot be written (say, a full disk).  Point fd 1 at devnull so
        # that the flush at interpreter exit does not fail again.
        if not isinstance(err, BrokenPipeError):
            print(f"error: cannot write stdout: {err.strerror or err}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
