"""Versioned JSON formats: line-set files, point-set files, evaluation reports.

All rationals in reports are rendered as exact strings ("7" or "49/6"); no
floating point appears anywhere.
"""

from __future__ import annotations

import json

import numpy as np

from .analysis import (
    LineSet,
    _as_indices,
    _dual,
    _regular_set_check,
    design_check,
    divisibility_report,
    inner_distribution,
    make_lineset,
    plane_profile,
)
from .linalg import rref
from .spaces import REL_TAGS

LINESET_VERSION = 1
POINTSET_VERSION = 1
REPORT_VERSION = 1


def _space_header(space):
    return {"family": space.family, "p": space.field.p, "h": space.field.h}


def write_lineset(space, y, path, with_bases=False):
    doc = {
        "version": LINESET_VERSION,
        "space": _space_header(space),
        "fingerprint": space.fingerprint,
        "name": y.name if isinstance(y, LineSet) else "",
        "lines": list(y.indices if isinstance(y, LineSet) else sorted(y)),
    }
    if with_bases:
        doc["bases"] = space.line_basis_arr[doc["lines"]].tolist()
    with open(str(path), "w") as fh:
        json.dump(doc, fh)


def _read_object(path, what):
    with open(str(path)) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    return doc


def _list_of(doc, key, is_entry, what):
    """doc[key], which must be a list whose entries all pass is_entry."""
    values = doc.get(key)
    if not isinstance(values, list) or not all(is_entry(v) for v in values):
        raise ValueError(f"{what} file has a missing or malformed {key!r} list")
    return values


def _is_index(x):
    return type(x) is int


def _is_vector(v, space):
    return (
        isinstance(v, list)
        and len(v) == space.d
        and all(_is_index(x) and 0 <= x < space.q for x in v)
    )


def _is_basis(rows, space):
    return isinstance(rows, list) and all(_is_vector(r, space) for r in rows)


def parse_lineset_file(path, space):
    """Load a line-set file, resolving bases through canonical RREF if needed."""
    doc = _read_object(path, "line-set")
    if doc.get("version") != LINESET_VERSION:
        raise ValueError(f"unsupported line-set file version {doc.get('version')!r}")
    head = doc.get("space", {})
    if head != _space_header(space):
        raise ValueError(f"line-set file is for space {head}, not {_space_header(space)}")
    if doc.get("fingerprint") not in (None, space.fingerprint):
        raise ValueError("line-set file fingerprint does not match this space")
    if "bases" in doc:
        given = _list_of(doc, "bases", lambda b: _is_basis(b, space), "line-set")
        reduced = [rref(rows, space.field)[0] for rows in given]
        # zero rows, which name no line, stand in for a basis of another rank
        reduced = [b if len(b) == 2 else [[0] * space.d] * 2 for b in reduced]
        indices = space.basis_indices(np.reshape(reduced, (-1, 2, space.d))).tolist()
        for rows, i in zip(given, indices):
            if i < 0:
                raise ValueError(f"basis {rows} is not a line of this space")
        if "lines" in doc and set(indices) != set(_list_of(doc, "lines", _is_index, "line-set")):
            raise ValueError("line indices and bases disagree")
    else:
        indices = _list_of(doc, "lines", _is_index, "line-set")
    return make_lineset(space, indices, name=doc.get("name", ""))


def write_pointset(space, points, path, name=""):
    doc = {
        "version": POINTSET_VERSION,
        "space": _space_header(space),
        "fingerprint": space.fingerprint,
        "name": name,
        "points": sorted(int(p) for p in points),
    }
    with open(str(path), "w") as fh:
        json.dump(doc, fh)


def parse_pointset_file(path, space):
    doc = _read_object(path, "point-set")
    if doc.get("version") != POINTSET_VERSION:
        raise ValueError(f"unsupported point-set file version {doc.get('version')!r}")
    if doc.get("space", {}) != _space_header(space):
        raise ValueError("point-set file is for a different space")
    if doc.get("fingerprint") not in (None, space.fingerprint):
        raise ValueError("point-set file fingerprint does not match this space")
    if "vectors" in doc:
        vectors = _list_of(doc, "vectors", lambda v: _is_vector(v, space), "point-set")
        points = space.point_indices(np.reshape(vectors, (-1, space.d))).tolist()
        for v, p in zip(vectors, points):
            if p < 0:
                no_point = f"vector {v} is not a point of this space"
                raise ValueError(no_point if any(v) else "cannot normalize the zero vector")
        if "points" in doc and set(points) != set(_list_of(doc, "points", _is_index, "point-set")):
            raise ValueError("point indices and vectors disagree")
    else:
        points = _list_of(doc, "points", _is_index, "point-set")
    bad = [p for p in points if p < 0 or p >= len(space.pts_arr)]
    if bad:
        raise ValueError(f"point indices out of range: {bad[:4]}")
    return tuple(sorted(set(points)))


def build_report(space, tables, y):
    """Full evaluation report of a line set, all values exact strings."""
    idx = _as_indices(space, y)
    # one census of Y x Y feeds a, aQ and the support route of the regularity check
    a = inner_distribution(space, idx)
    aq = _dual(tables, a)
    reg = _regular_set_check(space, tables, idx, aq)
    prof = plane_profile(space, idx)
    divis = {}
    for j in REL_TAGS[1:]:
        rep = divisibility_report(len(idx), j, space.q, space.e2)
        divis[j] = {
            "consistent": rep.consistent,
            "modulus": str(rep.modulus),
            "m": str(rep.m) if rep.m is not None else None,
            "reason": rep.reason,
        }
    designs = {}
    for level in ("points", "planes"):
        d = design_check(space, tables, idx, level)
        designs[level] = {
            "is_design": d.is_design,
            "m": d.m,
            "size_formula_ok": d.size_formula_ok,
            "support_ok": d.support_ok,
        }
    return {
        "version": REPORT_VERSION,
        "space": _space_header(space),
        "fingerprint": space.fingerprint,
        "name": y.name if isinstance(y, LineSet) else "",
        "size": len(idx),
        "a": [str(v) for v in a],
        "aQ": [str(v) for v in aq],
        "support": sorted(str(t) for t in (reg.support)),
        "regular": {
            "verdict": "regular" if reg.is_regular else "not regular",
            "eigenspace": reg.eigenspace,
            "inside_degrees": list(reg.inside_degrees) if reg.inside_degrees else None,
            "outside_degrees": list(reg.outside_degrees) if reg.outside_degrees else None,
        },
        "plane_histogram": {str(k): v for k, v in sorted(prof.histogram.items())},
        "pencil_condition": prof.pencil_ok,
        "divisibility": divis,
        "design": designs,
    }
