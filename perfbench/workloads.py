"""The benchmark's workloads: task lists, their set-up and their oracles.

Every task answers one exact question through polarlines' public API; its
untimed `summarize` turns the answer into a small JSON-able summary.
`check(ctx, summary)` compares the summary with a pinned value or with an
independent recomputation and returns a list of mismatches.  Checks run after
timing ends.  The program is always reached through module attributes
(`pl_spaces.build_space`, not a bound import), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import polarlines.cli as pl_cli
import polarlines.constructions as pl_con
import polarlines.schemetables as pl_scheme
import polarlines.search as pl_search
import polarlines.spaces as pl_spaces

import oracles

SPACES = {
    "o6plus_q2": ("O6plus", 2),
    "sp6_q2": ("Sp6", 2),
    "o8minus_q2": ("O8minus", 2),
    "o6plus_q3": ("O6plus", 3),
    "sp6_q3": ("Sp6", 3),
    "o7_q3": ("O7", 3),
    "u6_q4": ("U6", 4),
}
_E2 = {"O6plus": 0, "U6": 1, "Sp6": 2, "O7": 2, "U7": 3, "O8minus": 4}

BUILD_SPACES = ("o8minus_q2", "o6plus_q3", "sp6_q2", "o7_q3")
SCHEME_SPACES = ("o6plus_q2", "sp6_q2", "o8minus_q2", "o6plus_q3", "o7_q3")
SEARCH_SPACES = ("o6plus_q2", "sp6_q2", "o6plus_q3", "o7_q3")
VERIFY_VECTORS = 2
# node budgets of the two budget-stopped searches; the unbudgeted
# enumeration of V11/30 takes 148,339 nodes (over 20 s)
REGULAR_BUDGET = 5_000
PROJECTOR_BUDGET = 15_000


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _params(name):
    """(q, s) with s = q^e, computed here rather than by the program."""
    family, q = SPACES[name]
    s = math.isqrt(q ** _E2[family])
    assert s * s == q ** _E2[family]
    return q, s


def order_digest(space):
    """Digest of the point and plane bases in index order, which the fingerprint omits."""
    points = np.array(space.points, dtype=np.uint8).tobytes()
    return digest(points + np.array(space.plane_basis, dtype=np.uint8).tobytes())


def predicted_counts(name):
    q, s = _params(name)
    theta = q * q + q + 1
    points = (s * q * q + 1) * theta
    lines = (s * q + 1) * (s * q * q + 1) * theta
    return [points, lines, (s + 1) * (s * q + 1) * (s * q * q + 1)]


class Context:
    """Inputs of one run: seed, cache and scratch directories, loaded spaces."""

    def __init__(self, seed, cache_dir, workdir):
        self.rng = np.random.default_rng(seed)
        self.cache_dir = cache_dir
        self.workdir = workdir
        self.spaces = {}
        self.tables = {}

    def space(self, name):
        if name not in self.spaces:
            family, q = SPACES[name]
            path = os.path.join(self.cache_dir, f"{family}_q{q}.json")
            self.spaces[name] = pl_spaces.load_space(path)
        return self.spaces[name]

    def table(self, name):
        if name not in self.tables:
            self.tables[name] = pl_scheme.tables_for_space(self.space(name))
        return self.tables[name]


def _as_is(result):
    return result


@dataclass
class Task:
    name: str
    kind: str  # root span name suffix; for CLI tasks the command group
    run: Callable[[], object]  # the timed part: calls into polarlines only
    check: Callable[[Context, dict], list]
    summarize: Callable[[object], dict] = _as_is  # run()'s result to a summary, untimed


# -- independent recomputations used by the checks ------------------------------


def own_inner(space, lines):
    idx = np.array(sorted(lines), dtype=np.int64)
    counts = np.bincount(space.labels[np.ix_(idx, idx)].ravel(), minlength=5)
    return [Fraction(int(c), len(idx)) for c in counts]


def own_dual(ctx, name, lines):
    a = own_inner(ctx.space(name), lines)
    Q = ctx.table(name).Q
    return a, [sum(a[i] * Q[i][j] for i in range(5)) for j in range(5)]


def own_support(ctx, name, lines):
    _, aq = own_dual(ctx, name, lines)
    return {pl_spaces.REL_TAGS[j] for j in range(1, 5) if aq[j] != 0}


def _expect(cond, msg, out):
    if not cond:
        out.append(msg)


# -- build: cold build, save, reload --------------------------------------------


def _build_task(ctx, name):
    family, q = SPACES[name]
    path = os.path.join(ctx.workdir, f"{name}.json")

    def run():
        space = pl_spaces.build_space(family, q)
        pl_spaces.save_space(space, path)
        return space, pl_spaces.load_space(path)

    def summarize(built):
        space, back = built
        same = (
            back.points == space.points
            and back.line_basis == space.line_basis
            and back.plane_basis == space.plane_basis
            and np.array_equal(back.labels, space.labels)
        )
        return {
            "fingerprint": space.fingerprint,
            "order_digest": order_digest(space),
            "reloaded_fingerprint": back.fingerprint,
            "counts": [len(space.points), space.n_lines, len(space.plane_basis)],
            "reload_identical": bool(same),
        }

    def check(ctx, s):
        out = []
        want = oracles.FINGERPRINTS[name]
        _expect(s["fingerprint"] == want, f"fingerprint {s['fingerprint']} != {want}", out)
        _expect(s["reloaded_fingerprint"] == want, "reloaded fingerprint differs", out)
        _expect(s["order_digest"] == oracles.ORDER_DIGESTS[name], "point or plane order", out)
        _expect(s["counts"] == predicted_counts(name), f"counts {s['counts']} != predicted", out)
        _expect(s["reload_identical"], "reload differs from the build", out)
        return out

    return Task(f"build {name}", "build", run, check, summarize)


def build_tasks(ctx, names=BUILD_SPACES):
    return [_build_task(ctx, names[i]) for i in ctx.rng.permutation(len(names))]


# -- scheme: tables, valency census, randomized-exact verification --------------


def _scheme_task(ctx, name, vseed):
    space = ctx.space(name)

    def run():
        tables = pl_scheme.tables_for_space(space)
        valencies = pl_scheme.empirical_valencies(space)
        rep = pl_scheme.verify_scheme(space, tables, k=VERIFY_VECTORS, seed=vseed)
        return {
            "valencies": [int(v) for v in valencies],
            "table_valencies": [int(v) for v in tables.valencies],
            "ok": bool(rep["ok"]),
            "all_pairs": all(rep["pairs"].values()),
            "resolution": bool(rep["resolution_of_identity"]),
            "vectors": rep["vectors"],
            "seed": int(rep["seed"]),
        }

    def check(ctx, s):
        out = []
        want = oracles.VALENCIES[name]
        _expect(s["valencies"] == want, f"valencies {s['valencies']} != {want}", out)
        _expect(s["table_valencies"] == want, "table valencies differ", out)
        _expect(s["ok"] and s["all_pairs"] and s["resolution"], "verify_scheme failed", out)
        _expect((s["vectors"], s["seed"]) == (VERIFY_VECTORS, vseed), "vectors or seed", out)
        return out

    return Task(f"scheme {name}", "scheme", run, check)


def scheme_tasks(ctx, names=SCHEME_SPACES):
    seeds = [int(x) for x in ctx.rng.integers(0, 2**31, size=len(names))]
    return [_scheme_task(ctx, n, s) for n, s in zip(names, seeds)]


# -- search: every DFS engine on inputs prepared in set-up ----------------------


def _regular_task(ctx, j, size, budget=None):
    space, tables = ctx.space("o6plus_q2"), ctx.table("o6plus_q2")
    name = f"regular V{j}/{size}" + (f" budget {budget}" if budget else "")

    def run():
        res = pl_search.enumerate_regular_sets(space, tables, j, size, budget=budget)
        return {
            "complete": res.complete,
            "nodes": res.nodes,
            "sets": sorted(list(s) for s in res.sets),
        }

    def check(ctx, s):
        out = []
        want = oracles.REGULAR_COUNTS[(j, size)]
        if s["complete"]:
            _expect(len(s["sets"]) == want, f"{len(s['sets'])} sets != {want}", out)
            pinned = oracles.REGULAR_DIGESTS.get((j, size))
            if pinned:
                _expect(digest(json.dumps(s["sets"])) == pinned, "set list differs", out)
        else:
            _expect(budget is not None and s["nodes"] > budget, "incomplete without budget", out)
            _expect(len(s["sets"]) <= want, "more sets than exist", out)
        for lines in s["sets"]:
            if len(lines) != size or own_support(ctx, "o6plus_q2", lines) != {j}:
                out.append(f"set {lines[:4]}... is not a V{j} set of size {size}")
                break
        return out

    return Task(name, "regular", run, check)


def _probe_task(ctx, support, size, budget=None, catalog=True, prefilter=True):
    space, tables = ctx.space("o6plus_q2"), ctx.table("o6plus_q2")
    name = f"probe {','.join(sorted(support))}/{size}" + (f" budget {budget}" if budget else "")
    name += "" if catalog else " no-catalog"

    def run():
        res = pl_search.feasibility_probe(
            space, tables, set(support), size, budget=budget, prefilter=prefilter, catalog=catalog
        )
        return {
            "status": res.status,
            "nodes": res.nodes,
            "witness": list(res.witness) if res.witness else None,
        }

    def check(ctx, s):
        out = []
        allowed = oracles.PROBE_STATUS[(tuple(sorted(support)), size, catalog)]
        _expect(s["status"] in allowed, f"status {s['status']} not in {allowed}", out)
        if s["status"] == "unknown":
            _expect(budget is not None and s["nodes"] > budget, "unknown without budget", out)
        if s["witness"] is not None:
            w = s["witness"]
            _expect(len(w) == size, "witness has the wrong size", out)
            _expect(own_support(ctx, "o6plus_q2", w) <= set(support), "witness support", out)
        return out

    return Task(name, "probe", run, check)


def _spread_task(ctx, name, section):
    space = ctx.space(name)
    if section:
        sec = pl_con.quadric_section(space, "minus")
        points = tuple(sec.point_indices)
        inside = set(points)
        pool = [li for li, lp in enumerate(space.line_points) if all(p in inside for p in lp)]
    else:
        points, pool = tuple(range(len(space.points))), None
    label = f"spread {name}" + (" one-system" if section else "")

    def run():
        if section:
            res = pl_search.line_spread_search(space, points, pool)
        else:
            res = pl_search.line_spread_search(space)
        return {"complete": res.complete, "nodes": res.nodes, "lines": list(res.lines or ())}

    def check(ctx, s):
        out = []
        _expect(s["complete"] and s["lines"], "no spread found", out)
        covered = [p for li in s["lines"] for p in space.line_points[li]]
        _expect(sorted(covered) == sorted(points), "lines do not partition the points", out)
        if section:
            _expect(set(s["lines"]) <= set(pool), "one-system leaves the section", out)
            q, qe = _params(name)
            a = own_inner(space, s["lines"])
            _expect(a == [1, 0, 0, 0, qe * q * q], f"one-system distribution {a}", out)
        return out

    return Task(label, "spread", run, check)


def _movoid_task(ctx, name, m):
    space = ctx.space(name)
    sec = pl_con.find_section(space, "gq")
    points = pl_con.section_point_indices(space, sec)
    lines = list(pl_con.hyperplane_section_lines(space, sec).indices)

    def run():
        res = pl_search.m_ovoid_search(space, points, lines, m)
        return {"complete": res.complete, "nodes": res.nodes, "points": list(res.points or ())}

    def check(ctx, s):
        out = []
        _expect(s["complete"] and s["points"], "no m-ovoid found", out)
        chosen = set(s["points"])
        _expect(chosen <= set(points), "m-ovoid leaves the section", out)
        bad = [li for li in lines if sum(p in chosen for p in space.line_points[li]) != m]
        _expect(not bad, f"{len(bad)} section lines not met in exactly {m} points", out)
        return out

    return Task(f"movoid {name} m={m}", "movoid", run, check)


def _packing_task(ctx, name):
    space = ctx.space(name)

    def run():
        res = pl_search.disjoint_section_packing(space)
        return {
            "complete": res.complete,
            "count": res.count,
            "nodes": res.nodes,
            "line_sets": [list(ls) for ls in res.line_sets],
        }

    def check(ctx, s):
        out = []
        q, qe = _params(name)
        _expect(s["complete"] and s["count"] == oracles.PACKING[name], f"g = {s['count']}", out)
        sizes = {len(ls) for ls in s["line_sets"]}
        _expect(sizes == {(qe * q + 1) * (qe * q * q + 1)}, f"section sizes {sizes}", out)
        union = [li for ls in s["line_sets"] for li in ls]
        _expect(len(union) == len(set(union)), "sections share a line", out)
        for ls in s["line_sets"]:
            _expect(own_support(ctx, name, ls) == {"11"}, "a packed section is not a V11 set", out)
        return out

    return Task(f"packing {name}", "packing", run, check)


def search_tasks(ctx):
    tasks = [
        _regular_task(ctx, "11", 15),
        _regular_task(ctx, "11", 30, budget=REGULAR_BUDGET),
        _regular_task(ctx, "20", 35),
        _regular_task(ctx, "10", 42),
        _probe_task(ctx, {"10"}, 21, prefilter=False),
        _probe_task(ctx, {"10", "20"}, 7, budget=PROJECTOR_BUDGET, catalog=False),
        _probe_task(ctx, {"10", "20"}, 14),
        _spread_task(ctx, "sp6_q2", section=False),
        _spread_task(ctx, "sp6_q2", section=True),
        _movoid_task(ctx, "o7_q3", 2),
        _packing_task(ctx, "o6plus_q2"),
        _packing_task(ctx, "o6plus_q3"),
    ]
    return [tasks[i] for i in ctx.rng.permutation(len(tasks))]


# -- session: CLI commands against the warm cache -------------------------------


def _cli_task(ctx, argv, check):
    full = ["--cache", ctx.cache_dir] + argv

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = pl_cli.main(full)
        text = buf.getvalue().replace(ctx.workdir, "<work>")
        return {"rc": rc, "out": text}

    label = " ".join(a.replace(ctx.workdir + os.sep, "") for a in argv)
    return Task(label, argv[0], run, check)


def _on_success(check):
    """A check of a command's JSON output, text; a nonzero exit code fails first."""

    def wrapped(ctx, s):
        if s["rc"] != 0:
            return [f"exit code {s['rc']}: {s['out'][:200]}"]
        return check(ctx, json.loads(s["out"]), s["out"])

    return wrapped


def _pinned(key):
    def check(ctx, doc, text):
        same = digest(text) == oracles.SESSION_DIGESTS[key]
        return [] if same else ["output differs from the pinned one"]

    return _on_success(check)


def _pinned_search(key):
    """Search output pinned without its node count, which a faster search may change."""

    def check(ctx, doc, text):
        doc.pop("nodes", None)
        ok = digest(json.dumps(doc, sort_keys=True)) == oracles.SESSION_DIGESTS[key]
        return [] if ok else ["search output differs from the pinned one"]

    return _on_success(check)


_succeeded = _on_success(lambda ctx, doc, text: [])


def _expect_error(ctx, s):
    if s["rc"] != 1:
        return [f"expected exit code 1, got {s['rc']}"]
    doc = json.loads(s["out"])
    return [] if set(doc) == {"error"} else ["expected a single {'error': ...} document"]


def _constructed(size):
    return _on_success(
        lambda ctx, doc, text: [] if doc["size"] == size else [f"size {doc['size']} != {size}"]
    )


def _eval_against(name, lines_of, a_expected=None, members=None):
    """set-eval report checked against an own recomputation of a, aQ and the verdict.

    `members(space)`, when given, is the line set the evaluated file must hold.
    """

    def check(ctx, doc, text):
        lines = lines_of(ctx)
        if members is not None and sorted(lines) != sorted(members(ctx.space(name))):
            return ["the constructed file holds the wrong lines"]
        a, aq = own_dual(ctx, name, lines)
        support = sorted(pl_spaces.REL_TAGS[j] for j in range(1, 5) if aq[j] != 0)
        out = []
        _expect(doc["size"] == len(lines), "size differs", out)
        _expect(doc["a"] == [str(x) for x in a], f"a {doc['a']} != {a}", out)
        _expect(doc["aQ"] == [str(x) for x in aq], "aQ differs", out)
        _expect(doc["support"] == support, "support differs", out)
        verdict = "regular" if len(support) == 1 else "not regular"
        _expect(doc["regular"]["verdict"] == verdict, "regularity verdict differs", out)
        if a_expected is not None:
            want = [Fraction(x) for x in a_expected]
            _expect(a == want, f"a {a} != closed form {want}", out)
        return out

    return _on_success(check)


def _lines_in_file(path):
    def lines_of(ctx):
        with open(path) as fh:
            return json.load(fh)["lines"]

    return lines_of


FIXED_CONSTRUCTIONS = (
    ("hexagon", "sp6_q2", 63),
    ("hexagon", "o7_q3", 364),
    ("spread", "sp6_q2", 63),
    ("pencil-union", "o6plus_q2", 45),
    ("pencil-union", "o6plus_q3", 160),
    ("m-ovoid-lift", "o6plus_q3", 120),
    ("rank3-section", "o8minus_q2", 315),
    ("gq-section", "o6plus_q2", 15),
    ("one-system", "sp6_q2", 9),
)
# (construction, space, closed-form inner distribution in (q, s), the lines
# that index i must give, or None)
SEEDED_CONSTRUCTIONS = (
    ("plane", "o6plus_q3", lambda q, s: (1, q * q + q, 0, 0, 0), lambda sp, i: sp.plane_lines[i]),
    ("pencil", "sp6_q2", lambda q, s: (1, s * q + q, s * q * q, 0, 0),
     lambda sp, i: sp.point_lines[i]),
    (
        "pencil-perp-avoiding",
        "o8minus_q2",
        lambda q, s: (1, q * q - 1, s * q * (q + 1), (q * q - 1) * s * q, s * s * q**3),
        None,
    ),
)
RANDOM_SUBSET_SPACES = ("o6plus_q2", "sp6_q2", "o6plus_q3")
LP_GRID = (
    ("2", "0", "R11,R21"),
    ("2", "1", "R10"),
    ("2", "2", "R11,R20"),
    ("3", "0", "R10,R20,R21"),
    ("3", "1", "R11,R21"),
    ("3", "2", "R10,R11"),
    ("4", "0", "R11"),
    ("4", "1/2", "R10,R21"),
    ("4", "1", "R20"),
    ("4", "3/2", "R11,R21"),
    ("4", "2", "R10,R20,R21"),
    ("5", "0", "R11,R20"),
    ("5", "1", "R10,R21"),
    ("5", "2", "R11"),
)
SCHEME_GRID = (("2", "0"), ("3", "1"), ("4", "1/2"), ("2", "2"))
SEARCH_COMMANDS = (
    ("regular", "--space", "o6plus_q2", "--j", "11", "--size", "15"),
    ("probe", "--space", "o6plus_q2", "--support", "10", "--size", "21", "--no-prefilter"),
    ("spread", "--space", "sp6_q2"),
    ("packing", "--space", "o6plus_q2"),
    ("movoid", "--space", "sp6_q2", "--m", "1"),
)


def _write_random_subset(ctx, name):
    """A seeded random line set, written in the documented line-set format."""
    n = predicted_counts(name)[1]
    size = int(ctx.rng.integers(8, n // 3))
    lines = sorted(int(x) for x in ctx.rng.choice(n, size=size, replace=False))
    family, q = SPACES[name]
    p = min(d for d in range(2, q + 1) if q % d == 0)
    header = {"family": family, "p": p, "h": round(math.log(q, p))}
    path = os.path.join(ctx.workdir, f"random_{name}.json")
    with open(path, "w") as fh:
        json.dump({"version": 1, "space": header, "name": "random", "lines": lines}, fh)
    return path


def _construct_and_eval(ctx, what, name, index=None):
    """construct, then set eval of its output file; returns (argv, argv, path)."""
    path = os.path.join(ctx.workdir, f"{what}_{name}.json")
    construct = ["construct", what, "--space", name, "-o", path]
    if index is not None:
        construct[4:4] = ["--index", str(index)]
    return construct, ["set", "eval", "--space", name, "--file", path], path


def _seeded_tasks(ctx):
    """Constructions at seeded indices and seeded random line sets, with set eval."""
    tasks = []
    for what, name, closed_form, members in SEEDED_CONSTRUCTIONS:
        index = int(ctx.rng.integers(0, predicted_counts(name)[2 if what == "plane" else 0]))
        construct, evaluate, path = _construct_and_eval(ctx, what, name, index)
        tasks.append(_cli_task(ctx, construct, _succeeded))
        held = None if members is None else functools.partial(members, i=index)
        check = _eval_against(name, _lines_in_file(path), closed_form(*_params(name)), held)
        tasks.append(_cli_task(ctx, evaluate, check))
    for name in RANDOM_SUBSET_SPACES:
        path = _write_random_subset(ctx, name)
        check = _eval_against(name, _lines_in_file(path))
        tasks.append(_cli_task(ctx, ["set", "eval", "--space", name, "--file", path], check))
    return tasks


def session_tasks(
    ctx, spaces=tuple(SPACES), constructions=FIXED_CONSTRUCTIONS, lp=LP_GRID, seeded=True
):
    tasks = [_cli_task(ctx, ["space", "info", "--space", n], _pinned(f"info {n}")) for n in spaces]
    for what, name, size in constructions:
        construct, evaluate, _ = _construct_and_eval(ctx, what, name)
        tasks.append(_cli_task(ctx, construct, _constructed(size)))
        tasks.append(_cli_task(ctx, evaluate, _pinned(f"eval {what} {name}")))
    if seeded:
        tasks += _seeded_tasks(ctx)
    for q, e, forbid in lp:
        argv = ["lp", "bound", "--q", q, "--e", e, "--forbid", forbid]
        tasks.append(_cli_task(ctx, argv, _pinned(" ".join(argv))))
    for q, e in SCHEME_GRID:
        argv = ["scheme", "tables", "--q", q, "--e", e]
        tasks.append(_cli_task(ctx, argv, _pinned(" ".join(argv))))
    vseed = int(ctx.rng.integers(0, 2**31))

    def verified(ctx, doc, text):
        ok = doc["ok"] and doc["seed"] == vseed and all(doc["pairs"].values())
        return [] if ok else ["scheme verify failed"]

    argv = ["scheme", "verify", "--space", "o6plus_q2", "--vectors", "2", "--seed", str(vseed)]
    tasks.append(_cli_task(ctx, argv, _on_success(verified)))
    for args in SEARCH_COMMANDS:
        argv = ["search", *args]
        tasks.append(_cli_task(ctx, argv, _pinned_search(" ".join(argv))))
    hexagon = os.path.join(ctx.workdir, "hexagon_sp6_q2.json")
    missing = os.path.join(ctx.workdir, "missing.json")
    for argv in (
        ["space", "info", "--space", "o9_q2"],
        ["lp", "bound", "--q", "2", "--e", "3", "--forbid", "R11"],
        ["lp", "bound", "--q", "2", "--e", "0", "--forbid", "R99"],
        ["set", "eval", "--space", "o6plus_q2", "--file", hexagon],
        ["set", "eval", "--space", "o6plus_q2", "--file", missing],
    ):
        tasks.append(_cli_task(ctx, argv, _expect_error))
    return tasks


def is_expected_error(task):
    return task.check is _expect_error


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    cached: tuple  # spaces the cache must hold
    make_tasks: Callable[[Context], list]  # loads what it needs from the cache


def _smoke_tasks(ctx):
    return (
        build_tasks(ctx, ("o6plus_q2", "sp6_q2"))
        + scheme_tasks(ctx, ("o6plus_q2", "sp6_q2"))
        + [
            _regular_task(ctx, "11", 15),
            _spread_task(ctx, "sp6_q2", section=True),
            _packing_task(ctx, "o6plus_q2"),
        ]
        + session_tasks(
            ctx,
            spaces=("o6plus_q2",),
            constructions=(("hexagon", "sp6_q2", 63),),
            lp=LP_GRID[:1],
            seeded=False,
        )
    )


# each workload's rationale is its "why" in BENCHMARK.json
WORKLOADS = {
    "build": Workload((), build_tasks),
    "scheme": Workload(SCHEME_SPACES, scheme_tasks),
    "search": Workload(SEARCH_SPACES, search_tasks),
    "session": Workload(tuple(SPACES), session_tasks),
    # a seconds-long run over the two smallest spaces, used by test_smoke.py
    "smoke": Workload(("o6plus_q2", "sp6_q2"), _smoke_tasks),
}
