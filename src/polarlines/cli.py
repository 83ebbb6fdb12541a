"""Command-line front-end; every subcommand prints one JSON document.

Spaces are named by lowercase identifiers like o6plus_q2, sp6_q3, u6_q4.
Built spaces can be cached (--cache or POLARLINES_CACHE) and are reloaded
bit-exactly.  All numbers in the output are exact.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from . import files
from .analysis import make_lineset
from .delsarte import delsarte_lp_bound
from .schemetables import make_tables, tables_for_space, verify_scheme
from .search import (
    disjoint_section_packing,
    enumerate_regular_sets,
    feasibility_probe,
    line_spread_search,
    m_ovoid_search,
)
from .spaces import (
    DEFAULT_MAX_LINES,
    FAMILIES,
    REL_TAGS,
    bare_tag,
    build_space,
    load_space,
    save_space,
)

_FAMILY_BY_LOWER = {name.lower(): name for name in FAMILIES}

DEFAULT_SEED = 0x5EED


class CommandError(Exception):
    pass


def _parse_space_name(name):
    try:
        fam, qpart = name.lower().split("_q")
        return _FAMILY_BY_LOWER[fam], int(qpart)
    except (ValueError, KeyError):
        raise CommandError(
            f"bad space name {name!r}; expected e.g. o6plus_q2, sp6_q3, o7_q3, u6_q4"
        )


def _positive_int(text):
    """argparse type: an integer of at least 1, so a smaller one is a usage error."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _space_path(cache_dir, family, q):
    return os.path.join(cache_dir, f"{family}_q{q}.json")


def _cache_dir(args):
    """The space cache directory: --cache, else POLARLINES_CACHE, else None."""
    return args.cache or os.environ.get("POLARLINES_CACHE")


def _get_space(args):
    family, q = _parse_space_name(args.space)
    cache = _cache_dir(args)
    if cache:
        path = _space_path(cache, family, q)
        if os.path.exists(path):
            return load_space(path)
    space = build_space(family, q)
    if cache:
        os.makedirs(cache, exist_ok=True)
        save_space(space, _space_path(cache, family, q))
    return space


def _parse_e(text):
    bad = CommandError(f"e must be one of 0, 1/2, 1, 3/2, 2, got {text!r}")
    try:
        e2 = Fraction(text) * 2
    except ZeroDivisionError:  # 1/0 and 0/0
        raise bad from None
    if e2.denominator != 1 or e2 < 0 or e2 > 4:
        raise bad
    return int(e2)


def _emit(doc):
    # one write of the whole text, not json.dump's one per chunk
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    # a reader that closed stdout early fails the command here, not at exit
    sys.stdout.flush()


def _cmd_space_build(args):
    family, q = _parse_space_name(args.space)
    space = build_space(family, q, max_lines=args.max_lines)
    cache = _cache_dir(args)
    out = {
        "space": args.space,
        "fingerprint": space.fingerprint,
        "points": len(space.pts_arr),
        "lines": space.n_lines,
        "planes": len(space.plane_basis_arr),
    }
    if cache:
        os.makedirs(cache, exist_ok=True)
        path = _space_path(cache, family, q)
        save_space(space, path)
        out["cache_file"] = path
    _emit(out)


def _cmd_space_info(args):
    space = _get_space(args)
    tables = tables_for_space(space)
    _emit(
        {
            "space": args.space,
            "family": space.family,
            "q": space.q,
            "e": str(Fraction(space.e2, 2)),
            "fingerprint": space.fingerprint,
            "points": len(space.pts_arr),
            "lines": space.n_lines,
            "planes": len(space.plane_basis_arr),
            "valencies": list(tables.valencies),
            "multiplicities": list(tables.multiplicities),
        }
    )


def _cmd_scheme_tables(args):
    e2 = _parse_e(args.e)
    tables = make_tables(args.q, e2)
    if args.csv:
        for name, mat in (("P", tables.P), ("Q", tables.Q)):
            sys.stdout.write(f"# {name}\n")
            for row in mat:
                sys.stdout.write(",".join(str(x) for x in row) + "\n")
        return
    _emit(
        {
            "q": args.q,
            "e": args.e,
            "n": tables.n,
            "P": [[str(x) for x in row] for row in tables.P],
            "Q": [[str(x) for x in row] for row in tables.Q],
            "multiplicities": list(tables.multiplicities),
        }
    )


def _cmd_scheme_verify(args):
    space = _get_space(args)
    tables = tables_for_space(space)
    report = verify_scheme(space, tables, k=args.vectors, seed=args.seed)
    out = {
        "space": args.space,
        "ok": report["ok"],
        "vectors": report["vectors"],
        "seed": report["seed"],
        "resolution_of_identity": report["resolution_of_identity"],
        "pairs": {f"{i},{j}": ok for (i, j), ok in report["pairs"].items()},
    }
    _emit(out)
    if not report["ok"]:
        raise CommandError("scheme verification failed")


def _cmd_set_eval(args):
    space = _get_space(args)
    tables = tables_for_space(space)
    y = files.parse_lineset_file(args.file, space)
    _emit(files.build_report(space, tables, y))


def _cmd_construct(args):
    from . import constructions as con

    space = _get_space(args)
    name = args.what
    if name == "plane":
        y = con.plane_lines(space, args.index)
    elif name == "pencil":
        y = con.point_pencil(space, args.index, "through")
    elif name == "pencil-perp-avoiding":
        y = con.point_pencil(space, args.index, "perp_avoiding")
    elif name == "gq-section":
        y = con.hyperplane_section_lines(space, con.find_section(space, "gq"))
    elif name == "rank3-section":
        y = con.hyperplane_section_lines(space, con.find_section(space, "rank3"))
    elif name == "quadric-plus-section":
        y = con.quadric_section_lines(space, con.quadric_section(space, "plus"))
    elif name == "quadric-minus-section":
        y = con.quadric_section_lines(space, con.quadric_section(space, "minus"))
    elif name == "ovoid":
        points = con.elliptic_ovoid(space)
        files.write_pointset(space, points, args.output, name="elliptic_ovoid")
        _emit({"construct": name, "points": list(points), "file": args.output})
        return
    elif name == "pencil-union":
        if args.point_file:
            points = files.parse_pointset_file(args.point_file, space)
        else:
            points = con.elliptic_ovoid(space)
        y = con.pencil_union(space, points)
    elif name == "m-ovoid-lift":
        section = con.find_section(space, "gq")
        if args.point_file:
            points = files.parse_pointset_file(args.point_file, space)
        else:
            points = con.elliptic_ovoid(space, fixed_duals=[section.dual_point])
        y = con.m_ovoid_lift(space, section, points)
    elif name == "spread":
        y = con.symplectic_spread_lines(space)
    elif name == "hexagon":
        y = con.hexagon_lines(space)
    elif name == "one-system":
        y = _construct_one_system(space, args)
    else:
        raise CommandError(f"unknown construction {name!r}")
    files.write_lineset(space, y, args.output)
    _emit(
        {
            "construct": name,
            "space": args.space,
            "size": len(y),
            "file": args.output,
        }
    )


def _gq_points_and_lines(space):
    """Points and lines of the generalized quadrangle that hosts spreads and m-ovoids.

    In Sp(6,q), q even, that is the elliptic quadric section; elsewhere the
    first GQ hyperplane section.
    """
    from . import constructions as con

    if space.family == "Sp6" and space.q % 2 == 0:
        pts = con.quadric_section(space, "minus").point_indices
        return pts, space.lines_inside(pts)
    section = con.find_section(space, "gq")
    lines = con.hyperplane_section_lines(space, section).indices
    return con.section_point_indices(space, section), list(lines)


def _construct_one_system(space, args):
    from .analysis import inner_distribution

    if space.family != "O7" and not (space.family == "Sp6" and space.q % 2 == 0):
        raise CommandError("one-system search runs in Sp6 (even q) or O7")
    pts, lines = _gq_points_and_lines(space)
    res = line_spread_search(space, pts, lines, budget=args.budget)
    if res.lines is None:
        raise CommandError(
            "no line spread found" + ("" if res.complete else " (budget exhausted)")
        )
    y = make_lineset(space, res.lines, name="one_system")
    s, q = space.qe, space.q
    a = inner_distribution(space, y)
    if a != (1, 0, 0, 0, Fraction(s * q * q)):
        raise CommandError("spread lift failed one-system validation")
    return y


def _cmd_lp_bound(args):
    e2 = _parse_e(args.e)
    forbidden = [t for t in args.forbid.split(",") if t]
    result = delsarte_lp_bound(args.q, e2, forbidden)
    _emit(
        {
            "q": args.q,
            "e": args.e,
            "forbid": list(result.forbidden),
            "optimum": str(result.optimum),
            "optimum_floor": result.optimum.numerator // result.optimum.denominator,
            "a": [str(x) for x in result.a],
            "tight": sorted(result.tight),
            "certificate": {
                "bound": str(result.certificate["bound"]),
                "multipliers": {
                    f"{kind}:{tag}": str(v)
                    for (kind, tag), v in result.certificate["multipliers"].items()
                },
            },
        }
    )


def _cmd_search_regular(args):
    space = _get_space(args)
    tables = tables_for_space(space)
    res = enumerate_regular_sets(
        space, tables, args.j, args.size, budget=args.budget, stop_after=args.limit
    )
    _emit(
        {
            "space": args.space,
            "eigenspace": args.j,
            "size": args.size,
            "complete": res.complete,
            "nodes": res.nodes,
            "note": res.note,
            "count": len(res.sets),
            "sets": [list(s) for s in res.sets],
        }
    )


def _cmd_search_probe(args):
    space = _get_space(args)
    tables = tables_for_space(space)
    support = [t for t in args.support.split(",") if t]
    res = feasibility_probe(
        space,
        tables,
        support,
        args.size,
        budget=args.budget,
        prefilter=not args.no_prefilter,
    )
    _emit(
        {
            "space": args.space,
            "support": sorted({bare_tag(t) for t in support}),
            "size": args.size,
            "status": res.status,
            "witness": list(res.witness) if res.witness is not None else None,
            "nodes": res.nodes,
            "note": res.note,
        }
    )


def _cmd_search_spread(args):
    space = _get_space(args)
    res = line_spread_search(space, budget=args.budget)
    _emit(
        {
            "space": args.space,
            "found": res.lines is not None,
            "complete": res.complete,
            "nodes": res.nodes,
            "lines": list(res.lines) if res.lines else None,
        }
    )


def _cmd_search_movoid(args):
    space = _get_space(args)
    pts, lines = _gq_points_and_lines(space)
    res = m_ovoid_search(space, pts, lines, args.m, budget=args.budget)
    out = {
        "space": args.space,
        "m": args.m,
        "found": res.points is not None,
        "complete": res.complete,
        "nodes": res.nodes,
        "points": list(res.points) if res.points is not None else None,
    }
    if res.points is not None and args.output:
        files.write_pointset(space, res.points, args.output, name=f"{args.m}_ovoid")
        out["file"] = args.output
    _emit(out)


def _cmd_search_packing(args):
    space = _get_space(args)
    res = disjoint_section_packing(space, budget=args.budget)
    _emit(
        {
            "space": args.space,
            "count": res.count,
            "complete": res.complete,
            "nodes": res.nodes,
            "sections": [list(s.dual_point) for s in res.sections],
        }
    )


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    top = argparse.ArgumentParser(prog="polarlines", description=__doc__)
    top.add_argument("--cache", help="space cache directory (or POLARLINES_CACHE)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="build or inspect a polar space")
    ss = p.add_subparsers(dest="subcommand", required=True)
    b = ss.add_parser("build")
    b.add_argument("--space", required=True)
    b.add_argument("--max-lines", type=int, default=DEFAULT_MAX_LINES)
    b.add_argument("--cache", default=argparse.SUPPRESS, help="write the built space here")
    i = ss.add_parser("info")
    i.add_argument("--space", required=True)

    p = sub.add_parser("scheme", help="eigenvalue tables and scheme verification")
    ss = p.add_subparsers(dest="subcommand", required=True)
    t = ss.add_parser("tables")
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--e", required=True)
    t.add_argument("--csv", action="store_true")
    v = ss.add_parser("verify")
    v.add_argument("--space", required=True)
    v.add_argument("--vectors", type=int, default=5)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("set", help="evaluate a line-set file")
    ss = p.add_subparsers(dest="subcommand", required=True)
    e = ss.add_parser("eval")
    e.add_argument("--space", required=True)
    e.add_argument("--file", required=True)

    p = sub.add_parser("construct", help="build a known family and write it to a file")
    p.add_argument("what")
    p.add_argument("--space", required=True)
    p.add_argument("--index", type=int, default=0, help="plane/point index where relevant")
    p.add_argument("--point-file", help="point-set JSON for ovoid-driven constructions")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("-o", "--output", default="lineset.json")

    p = sub.add_parser("lp", help="Delsarte LP bounds")
    ss = p.add_subparsers(dest="subcommand", required=True)
    b = ss.add_parser("bound")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--e", required=True)
    b.add_argument("--forbid", required=True, help="comma list, e.g. R10,R11")

    p = sub.add_parser("search", help="exhaustive and budgeted searches")
    ss = p.add_subparsers(dest="subcommand", required=True)
    r = ss.add_parser("regular")
    r.add_argument("--space", required=True)
    r.add_argument("--j", required=True, choices=list(REL_TAGS[1:]))
    r.add_argument("--size", type=int, required=True)
    r.add_argument("--budget", type=_positive_int, default=None)
    r.add_argument("--limit", type=_positive_int, default=None)
    pr = ss.add_parser("probe")
    pr.add_argument("--space", required=True)
    pr.add_argument("--support", required=True, help="comma list, e.g. 10,20")
    pr.add_argument("--size", type=int, required=True)
    pr.add_argument("--budget", type=_positive_int, default=None)
    pr.add_argument("--no-prefilter", action="store_true")
    sp = ss.add_parser("spread")
    sp.add_argument("--space", required=True)
    sp.add_argument("--budget", type=_positive_int, default=None)
    mo = ss.add_parser("movoid")
    mo.add_argument("--space", required=True)
    mo.add_argument("--m", type=int, required=True)
    mo.add_argument("--budget", type=_positive_int, default=None)
    mo.add_argument("-o", "--output", default=None)
    pk = ss.add_parser("packing")
    pk.add_argument("--space", required=True)
    pk.add_argument("--budget", type=_positive_int, default=None)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the parser is built once, so it holds no handler: _cmd_<command>[_<subcommand>]
    # is looked up by name when the command runs
    name = "_cmd_" + args.command + (f"_{args.subcommand}" if "subcommand" in args else "")
    try:
        globals()[name](args)
        return 0
    except BrokenPipeError:
        # the reader is gone, so no error document either; what stdout still
        # buffers goes to devnull at exit (a StringIO has no descriptor to redirect)
        with contextlib.suppress(OSError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    except (CommandError, ValueError, OSError) as exc:
        code, error = 1, exc
    except MemoryError as exc:  # a space too large for this machine is bad input too
        code, error = 1, f"out of memory: {exc}"
    except RuntimeError as exc:  # GeometryError among them: the program contradicts itself
        code, error = 3, exc
    print(json.dumps({"error": str(error)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
