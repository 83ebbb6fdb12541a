"""In-memory span tracer that wraps polarlines' public functions from outside.

`Tracer.install()` replaces every public function of every loaded
`polarlines.*` module, at each module attribute that binds it (its import
sites, e.g. both `polarlines.spaces.load_space` and `polarlines.cli.load_space`),
with one wrapper that records a span: name, start, end, parent span and task
id.  `Field.scale` and `Field.add_vec` run millions of times per build, so
they are counted, not spanned.  `uninstall()` restores the originals.  Nothing
under `src/` is edited.
"""

from __future__ import annotations

import gzip
import json
import sys
import types
from collections import Counter
from time import perf_counter


def _space_name(space):
    return f"{space.family.lower()}_q{space.q}"


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _build_info(args, kwargs, out):
    return {"space": _space_name(out), "lines": out.n_lines, "planes": len(out.plane_basis)}


def _save_info(args, kwargs, out):
    import os

    path = str(_arg(args, kwargs, 1, "path"))
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".labels.npy")}


def _verify_info(args, kwargs, out):
    space = _arg(args, kwargs, 0, "space")
    k = kwargs.get("k", args[2] if len(args) > 2 else 5)
    return {"space": _space_name(space), "entries": k * space.n_lines**2}


def _probe_info(args, kwargs, out):
    support = _arg(args, kwargs, 2, "support")
    if len(support) == 1:
        engine = "probe_degree"
    elif out.note == "catalog construction":
        engine = "catalog"
    else:
        engine = "probe_projector"
    return {"engine": engine, "nodes": out.nodes}


# result readers for the functions whose outputs carry the per-layer counts
_INFO = {
    "spaces.build_space": _build_info,
    "spaces.save_space": _save_info,
    "schemetables.verify_scheme": _verify_info,
    "search.enumerate_regular_sets": lambda a, k, out: {
        "engine": "regular",
        "nodes": out.nodes,
        "sets": len(out.sets),
    },
    "search.feasibility_probe": _probe_info,
    "search.line_spread_search": lambda a, k, out: {"engine": "spread", "nodes": out.nodes},
    "search.m_ovoid_search": lambda a, k, out: {"engine": "movoid", "nodes": out.nodes},
    "search.disjoint_section_packing": lambda a, k, out: {"engine": "packing", "nodes": out.nodes},
}


class Span:
    __slots__ = ("name", "module", "start", "end", "parent", "task", "info")

    def __init__(self, name, parent, task):
        self.name = name
        self.module = name.split(".", 1)[0]
        self.parent = parent
        self.task = task
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.field_ops = 0  # Field.scale and Field.add_vec calls
        self._stack = []
        self._task = -1
        self._restore = []

    # -- recording -------------------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1, self._task)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def task(self, task_id, kind, fn):
        """Run fn() as task `task_id` under a root span named task.<kind>."""
        self._task = task_id
        span = self._open(f"task.{kind}")
        try:
            return fn()
        finally:
            self._close(span)
            self._task = -1

    def _wrap(self, name, fn):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn):
        def counted(*args):
            self.field_ops += 1
            return fn(*args)

        return counted

    # -- installing ------------------------------------------------------------

    def install(self):
        wrappers = {}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "polarlines" or modname.startswith("polarlines.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("polarlines.")
                ):
                    continue
                if obj not in wrappers:
                    short = obj.__module__.split(".", 1)[1]
                    wrappers[obj] = self._wrap(f"{short}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[obj])
                self._restore.append((mod, attr, obj))
        from polarlines.gf import Field

        for meth in ("scale", "add_vec"):
            orig = getattr(Field, meth)
            setattr(Field, meth, self._count(orig))
            self._restore.append((Field, meth, orig))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path, header):
        """Write the header and every span as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                rec = [i, s.name, s.start, s.end, s.parent, s.task]
                if s.info:
                    rec.append(s.info)
                fh.write(json.dumps(rec) + "\n")


# -- per-layer metrics ---------------------------------------------------------

ENGINES = ("regular", "probe_degree", "probe_projector", "spread", "movoid", "packing")
CLI_GROUPS = ("space", "scheme", "set", "construct", "lp", "search")
MODULES = (
    "linalg",
    "spaces",
    "schemetables",
    "analysis",
    "constructions",
    "delsarte",
    "search",
    "files",
    "cli",
)
# per-function time totals reported as <name>.s
_TIMED = (
    "spaces.save_space",
    "spaces.load_space",
    "schemetables.empirical_valencies",
    "schemetables.tables_for_space",
    "analysis.regular_set_check",
    "analysis.dual_distribution",
    "analysis.plane_profile",
    "analysis.design_check",
    "files.build_report",
    "files.parse_lineset_file",
    "files.write_lineset",
    "constructions.hyperplane_sections",
    "constructions.hexagon_lines",
    "delsarte.delsarte_lp_bound",
)


def per_layer_spec(build_spaces, scheme_spaces):
    """(name, unit, better) of every per-layer metric, in report order."""
    lo, hi = "lower", "higher"
    spec = [
        ("gf.field_ops.calls", "count", lo),
        ("linalg.rref.calls", "count", lo),
        ("linalg.rref.s", "s", lo),
        ("spaces.build_space.planes_per_rref", "ratio", hi),
        ("spaces.build_space.s", "s", lo),
    ]
    spec += [(f"spaces.build_space.{sp}.s", "s", lo) for sp in build_spaces]
    spec += [
        ("spaces.build_space.lines_per_s", "lines/s", hi),
        ("spaces.save_space.s", "s", lo),
        ("spaces.save_space.bytes", "bytes", lo),
        ("spaces.load_space.s", "s", lo),
        ("spaces.load_space.calls", "count", lo),
        ("spaces.load_space.share", "ratio", lo),
        ("schemetables.verify_scheme.s", "s", lo),
    ]
    spec += [(f"schemetables.verify_scheme.{sp}.s", "s", lo) for sp in scheme_spaces]
    spec += [
        ("schemetables.verify_scheme.entries_per_s", "entries/s", hi),
        ("schemetables.empirical_valencies.s", "s", lo),
        ("schemetables.tables_for_space.s", "s", lo),
        ("analysis.regular_set_check.s", "s", lo),
        ("analysis.regular_set_check.calls", "count", lo),
        ("analysis.dual_distribution.s", "s", lo),
        ("analysis.plane_profile.s", "s", lo),
        ("analysis.design_check.s", "s", lo),
        ("files.build_report.s", "s", lo),
        ("files.parse_lineset_file.s", "s", lo),
        ("files.write_lineset.s", "s", lo),
        ("constructions.s", "s", lo),
        ("constructions.hyperplane_sections.s", "s", lo),
        ("constructions.hexagon_lines.s", "s", lo),
        ("delsarte.delsarte_lp_bound.s", "s", lo),
        ("delsarte.delsarte_lp_bound.calls", "count", lo),
    ]
    for e in ENGINES:
        spec += [
            (f"search.{e}.nodes", "count", lo),
            (f"search.{e}.nodes_per_s", "nodes/s", hi),
            (f"search.{e}.s", "s", lo),
        ]
    spec += [
        ("search.regular.sets", "count", hi),
        ("search.regular.nodes_per_set", "ratio", lo),
        ("cli.main.calls", "count", lo),
    ]
    spec += [(f"cli.{g}.s", "s", lo) for g in CLI_GROUPS]
    spec += [("cli.errors_expected", "count", hi)]
    spec += [(f"{m}.self_s", "s", lo) for m in MODULES]
    spec += [("trace.overhead_s", "s", lo)]
    return spec


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, field_ops, pass_wall, build_spaces, scheme_spaces, errors_expected):
    """Per-layer metrics of one traced pass, whose spans are `spans`.

    A function's time is the summed duration of its outermost spans (those
    with no ancestor of the same name); a module's self time is the summed
    duration of its spans minus what their child spans cover.
    """
    first = spans[0][0] if spans else 0
    by_index = dict(spans)
    child = Counter()
    total = Counter()
    calls = Counter()
    self_s = Counter()
    outer_info = []  # outermost spans whose function reports counts (see _INFO)
    module_outer = Counter()
    cli_group = Counter()
    rref_in_build = 0
    for i, s in spans:
        d = s.duration
        calls[s.name] += 1
        if s.parent >= first:
            child[s.parent] += d
        outer_name = outer_module = True
        in_build = False
        root = s
        p = s.parent
        while p >= first:
            ps = by_index[p]
            outer_name &= ps.name != s.name
            outer_module &= ps.module != s.module
            in_build |= ps.name == "spaces.build_space"
            root = ps
            p = ps.parent
        if outer_name:
            total[s.name] += d
            if s.info is not None:
                outer_info.append(s)
            if s.name == "cli.main":
                cli_group[root.name.split(".", 1)[1]] += d
        if outer_module:
            module_outer[s.module] += d
        if s.name == "linalg.rref" and in_build:
            rref_in_build += 1
    for i, s in spans:
        self_s[s.module] += s.duration - child[i]

    def info_sum(name, key, where=lambda s: True):
        return sum(s.info[key] for s in outer_info if s.name == name and where(s))

    def info_time(name, where):
        return sum(s.duration for s in outer_info if s.name == name and where(s))

    m = {
        "gf.field_ops.calls": field_ops,
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.s": total["linalg.rref"],
        "spaces.build_space.planes_per_rref": _ratio(
            info_sum("spaces.build_space", "planes"), rref_in_build
        ),
        "spaces.build_space.s": total["spaces.build_space"],
    }
    for sp in build_spaces:
        m[f"spaces.build_space.{sp}.s"] = info_time(
            "spaces.build_space", lambda s: s.info["space"] == sp
        )
    m["spaces.build_space.lines_per_s"] = _ratio(
        info_sum("spaces.build_space", "lines"), total["spaces.build_space"]
    )
    m["spaces.save_space.bytes"] = info_sum("spaces.save_space", "bytes")
    m["spaces.load_space.calls"] = calls["spaces.load_space"]
    m["spaces.load_space.share"] = _ratio(total["spaces.load_space"], pass_wall)
    m["schemetables.verify_scheme.s"] = total["schemetables.verify_scheme"]
    for sp in scheme_spaces:
        m[f"schemetables.verify_scheme.{sp}.s"] = info_time(
            "schemetables.verify_scheme", lambda s: s.info["space"] == sp
        )
    m["schemetables.verify_scheme.entries_per_s"] = _ratio(
        info_sum("schemetables.verify_scheme", "entries"), total["schemetables.verify_scheme"]
    )
    for name in _TIMED:
        m[f"{name}.s"] = total[name]
    m["analysis.regular_set_check.calls"] = calls["analysis.regular_set_check"]
    m["delsarte.delsarte_lp_bound.calls"] = calls["delsarte.delsarte_lp_bound"]
    m["constructions.s"] = module_outer["constructions"]
    for e in ENGINES:
        searches = [s for s in outer_info if s.module == "search" and s.info["engine"] == e]
        nodes = sum(s.info["nodes"] for s in searches)
        secs = sum(s.duration for s in searches)
        m[f"search.{e}.nodes"] = nodes
        m[f"search.{e}.nodes_per_s"] = _ratio(nodes, secs)
        m[f"search.{e}.s"] = secs
    sets = info_sum("search.enumerate_regular_sets", "sets")
    m["search.regular.sets"] = sets
    m["search.regular.nodes_per_set"] = _ratio(m["search.regular.nodes"], sets)
    m["cli.main.calls"] = calls["cli.main"]
    for g in CLI_GROUPS:
        m[f"cli.{g}.s"] = cli_group[g]
    m["cli.errors_expected"] = errors_expected
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_s[mod]
    return m
