"""Out-of-process spans around the library's functions, and the per-layer
metrics derived from them.

``Tracer.install()`` replaces each function in ``TRACED`` by a wrapper in
every ``numsgps`` module namespace that bound it (``_from_gap_tuple`` is
imported into ``multiples``, ``fibers`` and ``oracle``; ``max_multiples``
into ``rank``), so internal calls are traced too; ``restore()`` puts the
originals back.  Each call becomes one span (name, parent span, start, end,
status, value) kept in parallel arrays; ``write()`` saves them at the end of
the run.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# (span name, module, function).  Names shared by several functions add up.
TRACED = (
    ("cli.main", "cli", "main"),
    ("cli.parser_build", "cli", "build_parser"),
    ("core.build", "core", "_from_gap_tuple"),
    ("core.msg", "core", "_minimal_generators"),
    ("core.from_generators", "core", "from_generators"),
    ("core.pseudo_frobenius", "core", "pseudo_frobenius"),
    ("multiples.max_multiples", "multiples", "max_multiples"),
    ("multiples.addable_gaps", "multiples", "addable_gaps"),
    ("multiples.is_d_multiple", "multiples", "is_d_multiple"),
    ("fibers.enumerate_fiber", "fibers", "enumerate_fiber"),
    ("fibers.theta", "fibers", "theta"),
    ("fibers.child_pairs", "fibers", "_child_pairs"),
    ("rank.sweep", "rank", "rank_sweep"),
    ("rank.random", "rank", "random_semigroup"),
    ("rank.low_e_search", "rank", "bounded_low_e_multiple_search"),
    ("rank.coin", "rank", "_coin_decomposition"),
    ("rank.j_subset", "rank", "j_subset_obstruction"),
    ("rank.full_rank", "rank", "full_rank_condition"),
    ("monoids.build_monoid", "monoids", "build_monoid"),
    ("monoids.is_md_set", "monoids", "is_md_set"),
    ("monoids.generates", "monoids", "_generates"),
    ("ed1", "ed1", "construct_ed1"),
    ("ed1", "ed1", "ed1_frobenius"),
    ("ed1", "ed1", "ed1_genus"),
    ("ed1", "ed1", "ed1_pseudo_frobenius"),
    ("ed1", "ed1", "is_gluing_of_n_and_s"),
    ("oracle.entry", "oracle", "all_with_frobenius"),
    ("oracle.entry", "oracle", "all_multiples_bounded"),
    ("oracle.closed_gap_sets", "oracle", "_closed_gap_sets"),
)
# parse_args is a method of the parser build_parser returns; the
# build_parser wrapper traces it on that instance.
PARSE_SPAN = "cli.parse"

OK, CAPPED, RAISED = 0, 1, 2


def _count_value(name):
    """The number a span records besides its times, or None."""
    if name == "multiples.max_multiples":
        return lambda result: len(result.maximals)
    if name == "fibers.enumerate_fiber":
        return lambda tree: len(tree.nodes())
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.value = array("i")
        self.stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name: str, capped_type=None):
        nid = self._nid(name)
        measure = _count_value(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        statuses, values, stack = self.status, self.value, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            statuses.append(OK)
            values.append(-1)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                ends[i] = clock()
                stack.pop()
                statuses[i] = CAPPED if capped_type and isinstance(err, capped_type) else RAISED
                raise
            ends[i] = clock()
            stack.pop()
            if measure is not None:
                values[i] = measure(result)
            return result

        return traced

    def install(self, package: str = "numsgps"):
        """Wrap every function in TRACED wherever a package module bound it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        capped_type = sys.modules[f"{package}.errors"].CeilingExceeded
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == package]
        wrappers = {}
        for name, module, attr in TRACED:
            original = getattr(sys.modules[f"{package}.{module}"], attr)
            traced = self.wrap(original, name, capped_type)
            if name == "cli.parser_build":
                traced = self._trace_parse(traced)
            wrappers[id(original)] = (original, traced)
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, key, value))
                    setattr(module, key, hit[1])

    def _trace_parse(self, traced_build):
        @functools.wraps(traced_build)
        def build_parser(*args, **kwargs):
            parser = traced_build(*args, **kwargs)
            parser.parse_args = self.wrap(parser.parse_args, PARSE_SPAN)
            return parser

        return build_parser

    def restore(self):
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def __len__(self):
        return len(self.start)

    def write(self, path: str):
        """Save the spans: ``path`` holds the arrays back to back, and
        ``path + '.json'`` their names, typecodes and lengths."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("name", "parent", "start", "end", "status", "value")
        with open(path, "wb") as handle:
            for field in fields:
                getattr(self, field).tofile(handle)
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [[f, getattr(self, f).typecode] for f in fields],
            "status": {"0": "ok", "1": "CeilingExceeded", "2": "raised"},
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and the counts
        the per-layer metrics need; plus structural errors, if any."""
        n = len(self)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        status, value = self.status, self.value
        k = len(self.names)
        calls = [0] * k
        incl = [0.0] * k
        child = [0.0] * n
        errors = []
        nid = self.name_id.get
        mm, low_e, pairs, build, fiber = (
            nid("multiples.max_multiples", -1),
            nid("rank.low_e_search", -1),
            nid("fibers.child_pairs", -1),
            nid("core.build", -1),
            nid("fibers.enumerate_fiber", -1),
        )
        # Index of the innermost enclosing max_multiples / low-e span.
        in_mm = array("i", [-1]) * n
        in_low_e = array("i", [-1]) * n
        mm_builds = pair_builds = d_capped = capped = maximals = 0
        fiber_nodes = fiber_calls = 0
        for i in range(n):
            s = name[i]
            p = parent[i]
            dur = end[i] - start[i]
            if dur < 0 or end[i] == 0.0:
                errors.append(f"span {i} ({self.names[s]}) did not close")
            calls[s] += 1
            incl[s] += dur
            if p >= 0:
                child[p] += dur
                if start[i] < start[p] or end[i] > end[p]:
                    errors.append(f"span {i} ({self.names[s]}) leaves its parent {p}")
                in_mm[i] = in_mm[p]
                in_low_e[i] = in_low_e[p]
            if s == mm:
                if in_low_e[i] >= 0 and status[i] == CAPPED:
                    d_capped += 1
                if status[i] == CAPPED:
                    capped += 1
                elif value[i] >= 0:
                    maximals += value[i]
                in_mm[i] = i
            elif s == low_e:
                in_low_e[i] = i
            elif s == build:
                if in_mm[i] >= 0:
                    mm_builds += 1
                if p >= 0 and name[p] == pairs:
                    pair_builds += 1
            elif s == fiber and value[i] >= 0:
                fiber_nodes += value[i]
                fiber_calls += 1
        self_s = [0.0] * k
        for i in range(n):
            self_s[name[i]] += end[i] - start[i] - child[i]
        if len(self.stack) != 1:
            errors.append(f"{len(self.stack) - 1} spans still open")
        per = {
            nm: {"calls": calls[j], "incl_s": incl[j], "self_s": self_s[j]}
            for j, nm in enumerate(self.names)
        }
        return {
            "spans": n,
            "per_name": per,
            "mm_builds": mm_builds,
            "mm_capped": capped,
            "mm_maximals": maximals,
            "d_capped": d_capped,
            "fiber_nodes": fiber_nodes,
            "fiber_trees": fiber_calls,
            "pair_builds": pair_builds,
            "errors": errors[:20],
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict, wall_s: float, harness_s: float, overhead: float) -> dict:
    """Every per-layer metric as name -> (value, unit).  ``overhead`` is the
    traced pass's time inside cli.main over the untraced pass's, both at
    reference speed."""
    per = summary["per_name"]

    def get(name, field):
        return per.get(name, {}).get(field, 0)

    m = {}
    for name, fields in (
        ("core.build", ("calls", "self_s")),
        ("core.msg", ("self_s",)),
        ("core.from_generators", ("calls", "self_s")),
        ("core.pseudo_frobenius", ("calls", "self_s")),
        ("multiples.max_multiples", ("calls", "self_s")),
        ("multiples.addable_gaps", ("self_s",)),
        ("multiples.is_d_multiple", ("calls", "self_s")),
        ("fibers.enumerate_fiber", ("calls", "self_s")),
        ("fibers.theta", ("calls", "self_s")),
        ("fibers.child_pairs", ("calls", "self_s")),
        ("rank.sweep", ("self_s",)),
        ("rank.random", ("self_s",)),
        ("rank.low_e_search", ("self_s",)),
        ("rank.coin", ("calls", "self_s")),
        ("rank.j_subset", ("self_s",)),
        ("rank.full_rank", ("self_s",)),
        ("monoids.build_monoid", ("calls", "self_s")),
        ("monoids.is_md_set", ("self_s",)),
        ("monoids.generates", ("calls", "self_s")),
        ("ed1", ("calls", "self_s")),
        ("oracle.entry", ("self_s",)),
        ("oracle.closed_gap_sets", ("calls", "self_s")),
        ("cli.parse", ("self_s",)),
        ("cli", ("self_s",)),
    ):
        span = "cli.main" if name == "cli" else name
        for field in fields:
            unit = "count" if field == "calls" else "s"
            m[f"{name}.{field}"] = (get(span, field), unit)
    builds = summary["mm_builds"]
    m["multiples.max_multiples.capped"] = (summary["mm_capped"], "count")
    m["multiples.max_multiples.maximals"] = (summary["mm_maximals"], "count")
    m["multiples.max_multiples.builds"] = (builds, "count")
    m["multiples.max_multiples.yield"] = (_ratio(summary["mm_maximals"], builds), "ratio")
    nodes = summary["fiber_nodes"]
    m["fibers.enumerate_fiber.nodes"] = (nodes, "count")
    m["fibers.nodes_per_s"] = (_ratio(nodes, get("fibers.enumerate_fiber", "incl_s")), "1/s")
    m["fibers.child_yield"] = (
        _ratio(nodes - summary["fiber_trees"], summary["pair_builds"]),
        "ratio",
    )
    m["rank.d_capped"] = (summary["d_capped"], "count")
    m["cli.parser_build_s"] = (get("cli.parser_build", "self_s"), "s")
    layer_total = sum(v["self_s"] for v in per.values())
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.harness_s"] = (harness_s, "s")
    m["trace.accounted_ratio"] = (_ratio(layer_total + harness_s, wall_s), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m
