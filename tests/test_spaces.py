import base64
import functools
import hashlib
import itertools
import json
import os
import random

import numpy as np
import pytest

from polarlines import spaces as spaces_module
from polarlines.analysis import regular_set_check
from polarlines.constructions import hexagon_lines
from polarlines.gf import _CONWAY, field_make
from polarlines.linalg import rref
from polarlines.schemetables import empirical_valencies, tables_for_space, verify_scheme
from polarlines.spaces import (
    REL_TAGS,
    FormSpec,
    GeometryError,
    PolarSpace,
    _anisotropic_binary,
    _coefficient_points,
    _fingerprint,
    _first_pairs,
    _plane_lines,
    _point_table,
    _projective_points,
    _space_points,
    _span_entries,
    _span_points,
    build_space,
    form_values,
    load_space,
    predicted_line_count,
    save_space,
)

from conftest import form_perp
from test_linalg import intersection, nullspace, span_vectors


def _normalize(field, v):
    """The vector scaled to lead with 1, one field operation at a time."""
    for x in v:
        if x:
            c = field.inv(x)
            return tuple(field.mul(c, y) for y in v)
    raise ValueError("cannot normalize the zero vector")


def _basis_key(basis):
    """A basis's bytes, whose order is the order of the cached bases."""
    return b"".join(bytes(r) for r in basis)

EXPECTED_COUNTS = {
    # family, q: (points, lines, planes)
    ("O6plus", 2): (35, 105, 30),
    ("Sp6", 2): (63, 315, 135),
    ("O6plus", 3): (130, 520, 80),
    ("O8minus", 2): (119, 1071, 765),
    ("O7", 3): (364, 3640, 1120),
    ("Sp6", 3): (364, 3640, 1120),
    ("U6", 4): (693, 6237, 891),
}

# copied from perfbench/oracles.py, not imported, so a change in basis order fails here too
EXPECTED_FINGERPRINTS = {
    ("O6plus", 2): "f3cba4a549f48de9",
    ("Sp6", 2): "a3ca35c6127593ba",
    ("O8minus", 2): "e6593b7eaf47089b",
    ("O6plus", 3): "9dbff42cbd265fa7",
    ("Sp6", 3): "35c7f40b8dac6a3a",
    ("O7", 3): "a5bf988fd5909aee",
    ("U6", 4): "2d3e1ac8ae40baee",
}


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_object_counts(spaces, family, q):
    space = spaces.get(family, q)
    got = (len(space.points), space.n_lines, len(space.plane_basis))
    assert got == EXPECTED_COUNTS[(family, q)]
    assert space.n_lines == predicted_line_count(family, q)


@pytest.mark.parametrize("family,q", sorted(EXPECTED_FINGERPRINTS))
def test_fingerprints_are_pinned(spaces, family, q):
    assert spaces.get(family, q).fingerprint == EXPECTED_FINGERPRINTS[(family, q)]


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_incidence_constants(spaces, family, q):
    space = spaces.get(family, q)
    s = space.qe
    assert all(len(v) == (q + 1) * (s * q + 1) for v in space.point_lines)
    assert all(len(v) == s + 1 for v in space.line_planes_arr)
    assert all(len(v) == space.theta for v in space.plane_lines)
    assert all(len(pts) == q + 1 for pts in space.line_points)
    # the lines of a plane are the lines inside its point set
    assert [tuple(space.lines_inside(pts)) for pts in space.plane_points_arr] == space.plane_lines


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_valency_census_matches_first_p_row(spaces, family, q):
    space = spaces.get(family, q)
    tables = tables_for_space(space)
    assert empirical_valencies(space) == tables.valencies


@pytest.mark.parametrize("family,q", [("O6plus", 2), ("Sp6", 2), ("O8minus", 2), ("U6", 4)])
def test_table_agrees_with_geometric_classification(spaces, family, q):
    space = spaces.get(family, q)
    rng = random.Random(4321)
    for _ in range(25):
        li = rng.randrange(space.n_lines)
        mi = rng.randrange(space.n_lines)
        tag = space.classify_pair(li, mi)
        assert tag == space.classify_pair(mi, li)
        assert tag == space.classify_pair_geometric(li, mi)
    assert space.classify_pair(7, 7) == "00"


def _perp(space, basis):
    """RREF basis of S^perp: the nullspace of the rows G . conj(m) over the rows m of S."""
    f = space.field
    rows = []
    for m in basis:
        if space.form.kind == "hermitian":
            m = [f.conj(x) for x in m]
        rows.append([functools.reduce(f.add, map(f.mul, g, m), 0) for g in space.form.gram])
    return nullspace(rows, f, space.d)


def _reference_classify_pair(space, li, mi):
    """Relation tag from Zassenhaus intersections with the line and with its perp."""
    f, d = space.field, space.d
    L, M = space.line_basis[li], space.line_basis[mi]
    s = len(intersection(f, d, L, M))
    t = len(intersection(f, d, L, _perp(space, M)))
    table = {(2, 2): "00", (1, 2): "10", (1, 1): "11", (0, 1): "20", (0, 0): "21"}
    if (s, t) not in table:
        raise GeometryError(f"illegal (s,t)=({s},{t}) for lines {li},{mi}")
    return table[(s, t)]


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_two_rank_classification_matches_the_intersections(spaces, family, q):
    space = spaces.get(family, q)
    rng = random.Random(77)
    for rel, tag in enumerate(REL_TAGS):
        for _ in range(6):
            li = rng.randrange(space.n_lines)
            mi = rng.choice(np.flatnonzero(space.labels[li] == rel).tolist())
            assert space.classify_pair_geometric(li, mi) == tag
            assert _reference_classify_pair(space, li, mi) == tag


@pytest.mark.parametrize("family,q", [("O6plus", 2), ("Sp6", 2), ("O8minus", 2)])
def test_batched_classification_matches_the_table_on_every_pair(spaces, family, q):
    space = spaces.get(family, q)
    n = space.n_lines
    for lo in range(0, n, 64):
        li, mi = np.divmod(np.arange(lo * n, min(lo + 64, n) * n), n)
        assert np.array_equal(space.classify_pairs_geometric(li, mi), space.labels[li, mi])


@pytest.mark.parametrize("family,q", [("O7", 3), ("U6", 4)])
def test_batched_classification_matches_the_table_on_seeded_pairs(spaces, family, q):
    space = spaces.get(family, q)
    li, mi = np.random.default_rng(17).integers(0, space.n_lines, size=(2, 10**5))
    assert np.array_equal(space.classify_pairs_geometric(li, mi), space.labels[li, mi])


def test_geometric_classification_rejects_an_illegal_pair(o6plus2):
    space = PolarSpace.__new__(PolarSpace)
    space.form, space.field, space.d = o6plus2.form, o6plus2.field, o6plus2.d
    # e0 and e1 span a hyperbolic line, so L = M but L meets L^perp in 0
    space.line_basis_arr = np.array([((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))], dtype=np.uint8)
    with pytest.raises(GeometryError, match=r"illegal \(s,t\)=\(2,0\) for lines 0,0"):
        space.classify_pair_geometric(0, 0)


def test_coplanar_concurrent_lines_are_relation_10(o6plus2):
    lines = o6plus2.plane_lines[0]
    a, b = lines[0], lines[1]
    if set(o6plus2.line_points[a]) & set(o6plus2.line_points[b]):
        assert o6plus2.classify_pair(a, b) == "10"


def test_perp_of_whole_space_is_zero(o6plus2):
    space = o6plus2
    whole = [tuple(int(i == j) for j in range(space.d)) for i in range(space.d)]
    assert _perp(space, whole) == ()


def test_perp_of_isotropic_point_contains_it(o6plus2):
    space = o6plus2
    perp = _perp(space, [space.points[0]])
    assert len(perp) == space.d - 1
    assert intersection(space.field, space.d, perp, [space.points[0]]) == (space.points[0],)


def test_perp_of_line_contains_it(o6plus2):
    space = o6plus2
    basis = space.line_basis[0]
    perp = _perp(space, basis)
    assert len(perp) == space.d - 2
    assert intersection(space.field, space.d, perp, basis) == basis
    # every vector of the perp is perpendicular to the line under the form itself
    for x in span_vectors(space.field, space.d, perp):
        assert all(space.form.bilinear(x, m) == 0 for m in basis)


def test_o7_rejected_for_even_q():
    with pytest.raises(ValueError, match="Sp6"):
        build_space("O7", 2)


def test_hermitian_requires_square_q():
    with pytest.raises(ValueError, match="square"):
        FormSpec("U6", 2)


def test_degenerate_form_is_rejected(monkeypatch):
    import polarlines.spaces as spaces_mod

    # x6^2 alone over GF(2) polarizes to 2 x6 y6 = 0, so Gram rows 6 and 7 vanish
    monkeypatch.setattr(spaces_mod, "_anisotropic_binary", lambda field: (0, 0))
    with pytest.raises(GeometryError, match="O8minus/q=2: bilinear form is degenerate"):
        FormSpec("O8minus", 2)


def test_u7_form_is_the_hermitian_identity():
    form = FormSpec("U7", 4)
    assert form.d == 7 and form.e2 == 3
    # Hermitian Gram is the identity with conjugation on the second slot
    assert form.bilinear((1,) + (0,) * 6, (1,) + (0,) * 6) == 1
    assert form.singular_rows((1, 1, 0, 0, 0, 0, 0))[0]  # 1 + 1 = 0 in GF(4) norms



@pytest.mark.slow
def test_u7_q4_is_built_past_the_line_cap(u74):
    """U(7,4), the smallest space of the sixth family, has 89,397 lines.

    The build is criterion 1's; no save, since the labels sidecar would force
    its 7.44 GiB relation table.
    """
    space = u74
    assert (len(space.pts_arr), space.n_lines, len(space.plane_basis_arr)) == (2709, 89397, 38313)
    assert empirical_valencies(space) == (1, 180, 640, 23040, 65536)
    assert verify_scheme(space, tables_for_space(space), k=2)["ok"]
    assert space.fingerprint == "d1bfd35f15590521"


# O(7,5) first: criterion 3's hexagon leaves it built
@pytest.mark.slow
@pytest.mark.parametrize("family,fingerprint", [("O7", "7aba17f8b1ded221"), ("Sp6", "e1f1aabdd2921b63")])
def test_spaces_of_over_100_000_lines(past_the_cap, family, fingerprint):
    """O(7,5) and Sp(6,5), 101,556 lines each, built one at a time with room to spare."""
    space = past_the_cap(family, 5, 120_000)
    assert (len(space.pts_arr), space.n_lines, len(space.plane_basis_arr)) == (3906, 101556, 19656)
    assert space.fingerprint == fingerprint
    assert empirical_valencies(space) == (1, 180, 750, 22500, 78125)
    assert verify_scheme(space, tables_for_space(space), k=2)["ok"]


def test_the_hexagon_past_the_default_line_cap(past_the_cap):
    """The split Cayley hexagon of Sp(6,4) is V20-regular; regular_set_check runs both routes."""
    space = past_the_cap("Sp6", 4, 30_000)
    y = hexagon_lines(space)
    assert len(y) == 1365
    rep = regular_set_check(space, tables_for_space(space), y)
    assert rep.is_regular and rep.eigenspace == "20"


@pytest.mark.parametrize(
    "family,q,counts,fingerprint,valencies",
    [
        ("Sp6", 4, (1365, 23205, 5525), "bce7e8b7e00e0563", (1, 100, 320, 6400, 16384)),
        ("O8minus", 3, (1066, 29848, 22960), "51a60a715ad5be78", (1, 120, 324, 9720, 19683)),
    ],
)
def test_spaces_past_the_default_line_cap(past_the_cap, family, q, counts, fingerprint, valencies):
    """Sp(6,4) and O-(8,3) have more lines than the default cap admits, so they are built past it."""
    space = past_the_cap(family, q, 30_000)
    assert (len(space.pts_arr), space.n_lines, len(space.plane_basis_arr)) == counts
    assert space.fingerprint == fingerprint
    assert empirical_valencies(space) == valencies
    assert verify_scheme(space, tables_for_space(space), k=2)["ok"]


def _reference_is_singular(form, v):
    """Whether <v> is a point, one field operation at a time."""
    f = form.field
    if form.kind == "symplectic":
        return any(v)
    if form.kind == "orthogonal":
        acc = 0
        for (i, j, c) in form.quad:
            acc = f.add(acc, f.mul(c, f.mul(v[i], v[j])))
        return any(v) and acc == 0
    return any(v) and form.bilinear(v, v) == 0


@pytest.mark.parametrize(
    "family,q", [("O6plus", 3), ("O8minus", 2), ("O7", 3), ("Sp6", 2), ("U6", 4)]
)
def test_singular_rows_match_the_per_vector_forms(family, q):
    form = FormSpec(family, q)
    vectors = list(itertools.product(range(q), repeat=form.d))
    mask = form.singular_rows(np.array(vectors, dtype=np.uint8))
    assert [bool(m) and any(v) for m, v in zip(mask, vectors)] == [
        _reference_is_singular(form, v) for v in vectors
    ]


@pytest.mark.parametrize(
    "family,q", [("O6plus", 3), ("O8minus", 2), ("O7", 3), ("Sp6", 3), ("U6", 4)]
)
def test_rowwise_bilinear_matches_the_per_pair_form(family, q):
    form = FormSpec(family, q)
    rng = np.random.default_rng(q)
    X, Y = rng.integers(0, q, size=(2, 300, form.d), dtype=np.uint8)
    assert form._bilinear_rows(X, Y).tolist() == [
        form.bilinear(x, y) for x, y in zip(X.tolist(), Y.tolist())
    ]


def _reference_anisotropic_binary(field):
    """The first anisotropic (c1, c0), one scalar field operation at a time."""
    q = field.q
    for c1 in range(q):
        for c0 in range(1, q):
            ok = True
            for a in range(q):
                for b in range(q):
                    if a == 0 and b == 0:
                        continue
                    v = field.add(
                        field.mul(a, a),
                        field.add(field.mul(c1, field.mul(a, b)), field.mul(c0, field.mul(b, b))),
                    )
                    if v == 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return c1, c0
    raise AssertionError("no anisotropic binary quadratic form found")


@pytest.mark.parametrize("p,h", sorted(_CONWAY))
def test_anisotropic_binary_matches_the_scalar_search(p, h):
    field = field_make(p, h)
    assert _anisotropic_binary(field) == _reference_anisotropic_binary(field)


def test_enumeration_budget():
    with pytest.raises(ValueError, match="budget"):
        build_space("U7", 4)
    with pytest.raises(ValueError, match="budget"):
        build_space("O8minus", 3)


def test_cache_roundtrip_is_bit_exact(tmp_path, o6plus2):
    path = tmp_path / "o6plus_q2.json"
    save_space(o6plus2, path)
    again = load_space(path)
    assert again.fingerprint == o6plus2.fingerprint
    assert again.line_basis == o6plus2.line_basis
    assert again.plane_basis == o6plus2.plane_basis
    assert again.points == o6plus2.points
    assert np.array_equal(again.labels, o6plus2.labels)
    # the decoded bytes are copies, writable as a built space's arrays are
    assert all(a.flags.writeable for a in (again.pts_arr, again.line_basis_arr))


@pytest.mark.parametrize("family,q", [("O6plus", 2), ("O7", 3), ("U6", 4)])
def test_save_load_save_writes_the_same_bytes(tmp_path, spaces, family, q):
    save_space(spaces.get(family, q), tmp_path / "first.json")
    save_space(load_space(tmp_path / "first.json"), tmp_path / "second.json")
    for name in ("{}.json", "{}.json.labels.npy"):
        first, second = (tmp_path / name.format(k) for k in ("first", "second"))
        assert first.read_bytes() == second.read_bytes()
    doc = json.loads((tmp_path / "first.json").read_text())
    assert doc["format_version"] == 2
    assert all(isinstance(doc[key], str) for key in _CACHED_ROWS)


# each cached array's shape per row, after the row count and before the dimension d
_CACHED_ROWS = {"points": (), "lines": (2,), "planes": (3,)}


def decoded_cache(doc):
    """A space cache document with its points and bases as nested lists of ints."""
    d = FormSpec(doc["family"], doc["p"] ** doc["h"]).d
    return dict(
        doc,
        **{
            key: np.frombuffer(base64.b64decode(doc[key]), np.uint8)
            .reshape((-1, *shape, d))
            .tolist()
            for key, shape in _CACHED_ROWS.items()
        },
    )


def encoded_cache(doc):
    """decoded_cache undone: each nested list, ragged or not, as base64 of its ints in order."""

    def flat(rows):
        return [x for r in rows for x in flat(r)] if isinstance(rows, list) else [rows]

    return dict(doc, **{k: base64.b64encode(bytes(flat(doc[k]))).decode() for k in _CACHED_ROWS})


VIEWS = {
    "points": "pts_arr",
    "line_points": "line_points_arr",
    "plane_lines": "plane_lines_arr",
    "point_lines": "point_lines_arr",
    "line_basis": "line_basis_arr",
    "plane_basis": "plane_basis_arr",
}
DELETED_VIEWS = ("point_index", "line_key_index", "plane_key_index", "plane_points", "line_planes")


def test_views_are_built_on_first_use_and_equal_their_arrays(tmp_path):
    built = build_space("O6plus", 2)
    save_space(built, tmp_path / "o6plus_q2.json")
    loaded = load_space(tmp_path / "o6plus_q2.json")
    for space in (built, loaded):
        assert not set(VIEWS) & set(vars(space))
        for view, name in VIEWS.items():
            arr = getattr(space, name)
            rows = arr.tolist() if arr.ndim < 3 else [map(tuple, b) for b in arr.tolist()]
            assert getattr(space, view) == [tuple(r) for r in rows]
            assert view in vars(space)
        assert not any(hasattr(space, view) for view in DELETED_VIEWS)


@pytest.mark.parametrize("which", ["lines", "planes"])
@pytest.mark.parametrize("fault", ["equal", "swapped"])
def test_bases_out_of_order_are_rejected(o6plus2, which, fault):
    space = o6plus2
    bases = {"lines": space.line_basis_arr.copy(), "planes": space.plane_basis_arr.copy()}
    arr = bases[which]
    k = len(arr) // 2
    if fault == "equal":
        arr[k + 1] = arr[k]
    else:
        arr[[k, k + 1]] = arr[[k + 1, k]]
    with pytest.raises(ValueError, match="bases are not in strictly increasing order"):
        PolarSpace(space.form, space.pts_arr, bases["lines"], bases["planes"])


def test_deterministic_rebuild(o6plus2):
    again = build_space("O6plus", 2)
    assert again.fingerprint == o6plus2.fingerprint
    assert again.line_basis == o6plus2.line_basis


# -- incidence against brute-force span enumeration ------------------------------


def _span_point_set(space, basis):
    """Point indices of a subspace, from its q^dim vectors by field arithmetic."""
    vecs = span_vectors(space.field, space.d, basis)
    index = {p: i for i, p in enumerate(space.points)}
    return tuple(sorted({index[_normalize(space.field, v)] for v in vecs if any(v)}))


@pytest.mark.parametrize(
    "family,q,sample",
    [("O6plus", 2, None), ("Sp6", 2, None), ("O8minus", 2, None), ("O7", 3, 200), ("U6", 4, 200)],
)
def test_incidence_matches_span_enumeration(spaces, family, q, sample):
    space = spaces.get(family, q)
    rng = random.Random(2024)
    for bases, point_sets in (
        (space.line_basis, space.line_points_arr),
        (space.plane_basis, space.plane_points_arr),
    ):
        idx = range(len(bases)) if sample is None else rng.sample(range(len(bases)), sample)
        for i in idx:
            assert tuple(point_sets[i].tolist()) == _span_point_set(space, bases[i])


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_lookup_maps_each_point_line_and_plane_back_to_its_index(spaces, family, q):
    space = spaces.get(family, q)
    f = space.field
    # a nonzero scalar per object, every one of them in turn
    scale = np.arange(space.n_lines) % (q - 1) + 1
    n = len(space.pts_arr)
    assert space.point_indices(space.pts_arr).tolist() == list(range(n))
    scaled = f.MUL[scale[:n, None], space.pts_arr]
    assert space.point_indices(scaled).tolist() == list(range(n))
    lookup = space.basis_indices
    for bases in (space.line_basis_arr, space.plane_basis_arr):
        own = list(range(len(bases)))
        assert lookup(bases).tolist() == own
        assert lookup(f.MUL[scale[: len(bases), None, None], bases]).tolist() == own
        # rows swapped and the new second row added to the first: no RREF, so
        # the lookup finds nothing until rref reduces it
        mixed = bases[:, ::-1].copy()
        mixed[:, 0] = f.ADD[mixed[:, 0], mixed[:, 1]]
        assert (lookup(mixed) == -1).all()
        reduced = np.array([rref(b, f)[0] for b in mixed.tolist()], dtype=np.uint8)
        assert lookup(reduced).tolist() == own


def test_lookup_gives_minus_one_for_what_is_no_point_line_or_plane(o6plus2):
    space = o6plus2
    e = np.eye(6, dtype=np.uint8)
    # Q = x0 x1 + x2 x3 + x4 x5: e0 and e1 are points, e0 + e1 is none, B(e0, e1) = 1
    assert space.point_indices([e[0] + e[1], 0 * e[0]]).tolist() == [-1, -1]
    no_lines = [[e[0], e[1]], [e[0], e[0]], [e[0] + e[1], e[2]]]
    assert space.basis_indices(no_lines).tolist() == [-1] * 3
    plane = space.plane_basis_arr[0]
    assert space.basis_indices([plane, [plane[0], plane[1], plane[1]]]).tolist() == [0, -1]
    # over GF(2), 3 e5 would share its base-2 code with e4 + e5 were entries not checked
    with pytest.raises(ValueError, match="outside GF"):
        space.point_indices([3 * e[5]])
    with pytest.raises(ValueError, match="outside GF"):
        space.basis_indices([[e[0], 2 * e[2]]])


@pytest.mark.parametrize(
    "family,q", [("O6plus", 2), ("Sp6", 2), ("O8minus", 2), ("O7", 3), ("U6", 4)]
)
def test_reload_gives_the_built_incidence(tmp_path, spaces, family, q):
    space = spaces.get(family, q)
    path = tmp_path / "space.json"
    save_space(space, path)
    again = load_space(path)
    assert again.line_points == space.line_points
    assert np.array_equal(again.plane_points_arr, space.plane_points_arr)
    assert np.array_equal(_collinear(again), form_perp(space))
    # build and load share one constructor, so equal incidence shows that the
    # cache keeps every basis in its order
    assert again.point_lines == space.point_lines
    assert again.plane_lines == space.plane_lines
    assert np.array_equal(again.line_planes_arr, space.line_planes_arr)
    for bases in (again.line_basis_arr, again.plane_basis_arr):
        assert again.basis_indices(bases).tolist() == list(range(len(bases)))


def test_cache_with_a_non_isotropic_point_is_rejected(tmp_path, u64):
    path = tmp_path / "u6_q4.json"
    save_space(u64, path)
    doc = decoded_cache(json.loads(path.read_text()))
    # five nonzero coordinates of norm 1: B(v, v) = 1 in characteristic 2
    vector = [1, 3, 3, 3, 3, 0]
    assert not u64.form.singular_rows(vector)[0]
    # in place of the next point, so the points still strictly increase
    k = next(i for i, p in enumerate(doc["points"]) if p > vector)
    doc["points"][k] = vector
    path.write_text(json.dumps(encoded_cache(doc)))
    with pytest.raises(ValueError, match="space cache points are not the points of the space"):
        load_space(path)


def _pair_lines(n_points, line_points):
    """points x points int32 array: the line through each collinear pair, else -1.

    Every ordered pair of a line's points, (q+1)^2 writes per line, with the
    diagonal reset to -1 since a point alone names no line.  _plane_lines
    writes each line once, at its two least points.
    """
    lines = np.asarray(line_points)
    pair = np.full((n_points, n_points), -1, dtype=np.int32)
    index = np.arange(len(lines), dtype=np.int32)
    pair[lines[:, :, None], lines[:, None, :]] = index[:, None, None]
    np.fill_diagonal(pair, -1)
    return pair


def _lines_in(pair, point_sets, per_set):
    """For each row of point indices, the ascending lines through two of its points.

    The theta^2 route to the lines of a plane: every pair of its points is
    read, and the pairs' lines are sorted and deduplicated.  Returns a rows x
    per_set array; raises GeometryError unless every row holds exactly
    per_set lines.
    """
    pts = np.asarray(point_sets)
    found = np.sort(pair[pts[:, :, None], pts[:, None, :]].reshape(len(pts), -1), axis=1)
    first = found >= 0
    first[:, 1:] &= found[:, 1:] != found[:, :-1]
    if (first.sum(axis=1) != per_set).any():
        raise GeometryError("lines in a plane is not the predicted constant")
    return found[first].reshape(len(pts), per_set)


def _line_points(perp, a, b):
    """Points of the line through points a and b.

    A point of the line's perp lies on the line exactly when it is
    perpendicular to every point of that perp, because those points span it.
    """
    c = np.flatnonzero(perp[a] & perp[b])
    return tuple(c[perp[c[:, None], c].all(axis=1)].tolist())


def _plane_points(perp, a, b, x):
    """Points of the plane spanned by points a, b and x.

    In a rank-3 space a plane is maximal, so the only singular points of its
    perp are its own.
    """
    return tuple(np.flatnonzero(perp[a] & perp[b] & perp[x]).tolist())


def _reference_bases(form):
    """The RREF line and plane bases in _basis_key order, by discovery on the perp matrix.

    Each line is found once, from its least point i and the first point j
    whose pair with i lies on no line found so far; each plane once, through
    the first line in it.  Every object's basis is the rref of the points it
    was found through.
    """
    candidates = np.array(_projective_points(form.field, form.d), dtype=np.uint8)
    pts_arr = candidates[form.singular_rows(candidates)]
    points = [tuple(p) for p in pts_arr.tolist()]
    perp = form_values(form, pts_arr, pts_arr) == 0

    on_a_line = np.zeros_like(perp)
    lines = []
    for i in range(len(points)):
        rest = perp[i] & ~on_a_line[i]
        rest[: i + 1] = False
        while rest.any():
            j = int(rest.argmax())
            pts = _line_points(perp, i, j)
            idx = np.array(pts)
            on_a_line[idx[:, None], idx] = True
            rest[idx] = False
            lines.append((rref([points[i], points[j]], form.field)[0], pts))
    lines.sort(key=lambda line: _basis_key(line[0]))

    # covered[li] holds the points of the planes already found through line li
    pair = _pair_lines(len(points), [pts for _, pts in lines])
    covered = np.zeros((len(lines), len(points)), dtype=bool)
    planes = []
    for li, ((u, w), pts) in enumerate(lines):
        a, b = pts[:2]
        rest = perp[a] & perp[b] & ~covered[li]
        rest[list(pts)] = False
        while rest.any():
            x = int(rest.argmax())
            plane = _plane_points(perp, a, b, x)
            (plane_lines,) = _lines_in(pair, [plane], form.q * form.q + form.q + 1)
            idx = np.array(plane)
            covered[np.array(plane_lines)[:, None], idx] = True
            rest[idx] = False
            planes.append(rref([u, w, points[x]], form.field)[0])
    return [b for b, _ in lines], sorted(planes, key=_basis_key)


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_span_points_match_the_perp_route(spaces, family, q):
    """Span-derived point sets, against the perp matrix read from their first points."""
    space = spaces.get(family, q)
    perp = form_perp(space)
    for pts in space.line_points:
        assert _line_points(perp, *pts[:2]) == pts
    for pts in map(tuple, space.plane_points_arr.tolist()):
        a, b = pts[:2]
        line = _line_points(perp, a, b)
        x = next(x for x in pts if x not in line)
        assert _plane_points(perp, a, b, x) == pts


def _collinear(space):
    """points x points bool, read off the incidence: a line joins the pair, or it is one point."""
    collinear = np.eye(len(space.pts_arr), dtype=bool)
    lines = space.line_points_arr
    collinear[lines[:, :, None], lines[:, None, :]] = True
    return collinear


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_perp_from_the_lines_matches_the_form(spaces, family, q):
    """Collinearity, read off the lines, against the form on every pair of points."""
    space = spaces.get(family, q)
    assert np.array_equal(_collinear(space), form_perp(space))


def test_span_points_reject_a_span_vector_that_is_no_point(o6plus2):
    space = o6plus2
    # an RREF basis whose first row has Q = x0 x1 + x2 x3 + x4 x5 = 1
    with pytest.raises(ValueError, match="not a point of the space"):
        _span_points(space.field, space._point_table, [((1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))])


def _reference_projective_points(q, d):
    """The normalized vectors of GF(q)^d, each a leading 1 and any tail, sorted."""
    pts = []
    for lead in range(d):
        for tail in itertools.product(range(q), repeat=d - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    return sorted(pts)


# (q, d) = (2, 2), (3, 3), (4, 6), (4, 7), (5, 3), (8, 3) and (9, 3)
@pytest.mark.parametrize(
    "p,h,d", [(2, 1, 2), (3, 1, 3), (2, 2, 6), (2, 2, 7), (5, 1, 3), (2, 3, 3), (3, 2, 3)]
)
def test_projective_points_match_the_itertools_definition(p, h, d):
    field = field_make(p, h)
    points = _projective_points(field, d)
    assert points.dtype == np.uint8
    assert [tuple(v) for v in points.tolist()] == _reference_projective_points(field.q, d)


def _reference_span_points(field, points, bases):
    """Span positions by whole span vectors: an axpy per coefficient, then a lookup by index.

    Every normalized coefficient vector times each basis is built as a d-vector,
    and its point is read off a table over the ravel_multi_index codes of every
    nonzero multiple of the points.
    """
    q, (_, r, d) = field.q, bases.shape
    coeffs = np.array(_reference_projective_points(q, r), dtype=np.uint8)
    vectors = np.zeros((len(bases), len(coeffs), d), dtype=np.uint8)
    for k in range(r):
        vectors = field.axpy(vectors, coeffs[:, k, None], bases[:, None, k])
    table = np.full(q**d, -1, dtype=np.int64)
    for c in range(1, q):
        table[np.ravel_multi_index(field.times(c, points).T, (q,) * d)] = np.arange(len(points))
    return table[np.ravel_multi_index(np.moveaxis(vectors, -1, 0), (q,) * d)]


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_span_points_match_the_whole_vector_route(spaces, family, q):
    space = spaces.get(family, q)
    for bases in (space.line_basis_arr, space.plane_basis_arr):
        want = _reference_span_points(space.field, space.pts_arr, bases)
        assert np.array_equal(_span_points(space.field, space._point_table, bases), want)


def _replaced_in_order(bases, basis):
    """The bases with basis put in place of the first one above it, so they still increase."""
    bases = [list(map(list, b)) for b in bases]
    k = next(i for i, b in enumerate(bases) if _basis_key(b) > _basis_key(basis))
    bases[k] = [list(row) for row in basis]
    return bases


@pytest.mark.parametrize(
    "family,q,key,fault,message",
    [
        # the last row of a plane times 2: its pivot entry is no 1
        ("O6plus", 3, "planes", "scaled", "is not in reduced row echelon form"),
        # Q(x) = x0 x1 + x2 x3 + x4 x5 is 1 at the first row
        (
            "O6plus", 2, "lines", ((1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
            "spans a vector that is not a point of the space",
        ),
        # every vector of Sp(6,2) is a point, but B(e0, e3) = 1
        (
            "Sp6", 2, "lines", ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
            "spans no totally isotropic subspace",
        ),
    ],
)
def test_a_cache_with_a_bad_basis_is_rejected(tmp_path, spaces, family, q, key, fault, message):
    space = spaces.get(family, q)
    path = tmp_path / "space.json"
    save_space(space, path)
    doc = decoded_cache(json.loads(path.read_text()))
    if fault == "scaled":
        # a plane whose neighbours differ from it before its last row, so the order holds
        rows = [b[:2] for b in doc[key]]
        k = next(i for i in range(1, len(rows) - 1) if rows[i - 1] != rows[i] != rows[i + 1])
        doc[key][k][2] = [space.field.mul(2, x) for x in doc[key][k][2]]
    else:
        doc[key] = _replaced_in_order(doc[key], fault)
    lines = np.array(doc["lines"], dtype=np.uint8)
    doc["fingerprint"] = _fingerprint(space.form, lines)
    path.write_text(json.dumps(encoded_cache(doc)))
    with pytest.raises(ValueError, match=f"^a line or plane basis {message}$"):
        load_space(path)


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_build_matches_the_perp_route_discovery(family, q):
    """The echelon filter's bases, against an rref per object found through its point set.

    Calls build_space itself, so a run on cached spaces still checks a build.
    """
    space = build_space(family, q)
    line_bases, plane_bases = _reference_bases(space.form)
    assert space.line_basis == line_bases
    assert space.plane_basis == plane_bases


def _dense_echelon_bases(form):
    """The line and plane bases by the dense route that build_space's kernel replaced.

    follows is read off the points x points matrix of B, and the third points
    of the lines off one bool per (line, point), the AND of their two rows.
    """
    pts = _space_points(form.family, form.q)
    lead = (pts != 0).argmax(axis=1)
    follows = (form_values(form, pts, pts) == 0) & (lead[:, None] < lead) & (pts[:, lead] == 0)
    a, b = np.nonzero(follows)
    line, c = np.nonzero(follows[a] & follows[b])
    return np.stack((pts[a], pts[b]), axis=1), np.stack((pts[a[line]], pts[b[line]], pts[c]), axis=1)


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS) + [("O8minus", 3), ("Sp6", 4)])
def test_build_matches_the_dense_echelon_route(family, q):
    """The bases of the echelon pairs' B and the bit-packed AND, against the dense route."""
    space = build_space(family, q, max_lines=30_000)
    line_bases, plane_bases = _dense_echelon_bases(space.form)
    assert np.array_equal(space.line_basis_arr, line_bases)
    assert np.array_equal(space.plane_basis_arr, plane_bases)


# -- the labels sidecar -----------------------------------------------------------


def test_a_missing_labels_sidecar_is_rebuilt(tmp_path, o6plus2):
    path = tmp_path / "o6plus_q2.json"
    save_space(o6plus2, path)
    (tmp_path / "o6plus_q2.json.labels.npy").unlink()
    assert np.array_equal(load_space(path).labels, o6plus2.labels)


@pytest.mark.parametrize("failing", ["labels", "json"])
def test_failed_cache_write_keeps_the_previous_cache(tmp_path, monkeypatch, o6plus2, failing):
    import polarlines.spaces as spaces_mod

    path = tmp_path / "o6plus_q2.json"
    save_space(o6plus2, path)
    before = sorted(p.name for p in tmp_path.iterdir())

    def partial_write(fh, *args, **kwargs):
        fh.write(b"partial")
        raise OSError("disk full")

    def failing_dumps(*args, **kwargs):
        raise OSError("disk full")

    if failing == "labels":
        monkeypatch.setattr(spaces_mod.np, "save", partial_write)
    else:
        monkeypatch.setattr(spaces_mod.json, "dumps", failing_dumps)
    with pytest.raises(OSError, match="disk full"):
        save_space(o6plus2, path)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == before
    again = load_space(path)
    assert again.fingerprint == o6plus2.fingerprint
    assert np.array_equal(again.labels, o6plus2.labels)


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_a_reloaded_table_is_the_built_one_byte_for_byte(tmp_path, spaces, family, q):
    space = spaces.get(family, q)
    save_space(space, tmp_path / "space.json")
    assert load_space(tmp_path / "space.json").labels.tobytes() == space._label_table().tobytes()


def test_a_built_space_builds_its_table_on_first_use():
    space = build_space("O6plus", 2)
    assert "labels" not in vars(space)
    assert np.array_equal(space.labels, space._label_table())
    assert "labels" in vars(space)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_loaded_space_holds_no_file_open(tmp_path, o6plus2):
    path = tmp_path / "o6plus_q2.json"
    save_space(o6plus2, path)
    before = len(os.listdir("/proc/self/fd"))
    kept = [load_space(path) for _ in range(50)]
    assert len(os.listdir("/proc/self/fd")) == before
    assert all(space.fingerprint == o6plus2.fingerprint for space in kept)
    # and no table: a loaded space builds its own on first use, as a built one does
    assert "labels" not in vars(kept[0])


# -- the relation table against incidence counts ----------------------------------


def _incidence(members, width):
    M = np.zeros((len(members), width), dtype=np.float32)
    for i, m in enumerate(members):
        M[i, list(m)] = 1
    return M


@pytest.mark.parametrize(
    "family,q,sample",
    [
        ("O6plus", 2, None),
        ("Sp6", 2, None),
        ("O8minus", 2, None),
        ("O6plus", 3, None),
        ("O7", 3, None),
        ("U6", 4, 300),
    ],
)
def test_label_table_against_point_and_plane_incidence(spaces, family, q, sample):
    """N N^T = (q+1) I + A10 + A11 and K K^T = (s+1) I + A10.

    N is the line-point and K the line-plane incidence.  The lines of a plane
    come from its point pairs, not from the perp matrix, so K shares nothing
    with the table's own decode.
    """
    space = spaces.get(family, q)
    n = space.n_lines
    N = _incidence(space.line_points, len(space.points))
    K = _incidence(space.line_planes_arr, len(space.plane_basis))
    rows = np.arange(n)
    if sample is not None:
        rows = np.sort(np.random.default_rng(99).choice(n, sample, replace=False))
    for block in np.array_split(rows, max(1, len(rows) // 512)):
        A = space.labels[block]
        eye = block[:, None] == np.arange(n)
        assert np.array_equal(N[block] @ N.T, (q + 1) * eye + (A == 1) + (A == 2))
        assert np.array_equal(K[block] @ K.T, (space.qe + 1) * eye + (A == 1))


def _reference_label_table(space):
    """The relation table from a float32 incidence product per row block.

    An independent route to PolarSpace._label_table's table: entry (L, M) of
    N (T + (q+2) N)^T, with N the line-point incidence and T the incidence of
    lines with the points of their perps, is t + (q+2) s, decoded by the same
    five legal values.
    """
    q, n = space.q, space.n_lines
    decode = np.full(256, 255, dtype=np.uint8)
    for rel, (s, t) in enumerate(((q + 1, q + 1), (1, q + 1), (1, 1), (0, 1), (0, 0))):
        decode[t + (q + 2) * s] = rel
    lines, perp = space.line_points_arr, form_perp(space)
    N = np.zeros((n, len(space.points)), dtype=np.float32)
    N[np.arange(n)[:, None], lines] = 1
    W = (perp[lines[:, 0]] & perp[lines[:, 1]]) + (q + 2) * N
    labels = np.empty((n, n), dtype=np.uint8)
    block = max(1, 2**24 // max(n, 1))
    for lo in range(0, n, block):
        labels[lo : lo + block] = decode[(N[lo : lo + block] @ W.T).astype(np.uint8)]
    return labels


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS))
def test_label_table_matches_the_float_product(spaces, family, q):
    space = spaces.get(family, q)
    labels = space._label_table()
    assert labels.dtype == np.uint8
    assert np.array_equal(labels, _reference_label_table(space))
    assert np.array_equal(labels, space.labels)


def _made_up_space(q, extra_perp, n_lines=2):
    """n_lines point-disjoint lines {0, 1, 2}, {3, 4, 5}, ..., each on one plane of its own points.

    extra_perp corrupts that plane incidence: each (line, point) adds the point
    to the line's plane, so to the line's perp, which need not stay symmetric.
    """
    space = PolarSpace.__new__(PolarSpace)
    space.q, space.n_lines = q, n_lines
    space.pts_arr = np.zeros((3 * n_lines, 0), dtype=np.uint8)
    space.line_points_arr = np.arange(3 * n_lines).reshape(n_lines, 3)
    planes = [
        pts + [p for line, p in extra_perp if line == k]
        for k, pts in enumerate(space.line_points_arr.tolist())
    ]
    width = max(map(len, planes))
    # rows padded with their first point, which the perp holds anyway
    space.plane_points_arr = np.array([pts + pts[:1] * (width - len(pts)) for pts in planes])
    space.line_planes_arr = np.arange(n_lines)[:, None]
    return space


def test_label_table_decode_rejects_what_no_space_gives():
    assert _made_up_space(2, [])._label_table().tolist() == [[0, 4], [4, 0]]
    # line 0's perp meets line 1 in one point, not conversely: R20 one way, R21 back
    with pytest.raises(GeometryError, match="not symmetric"):
        _made_up_space(2, [(0, 3)])._label_table()
    # two points of line 0 in line 1's perp: no relation has s = 0, t = 2
    with pytest.raises(GeometryError, match="lines 0,1: s-count=0, t-count=2"):
        _made_up_space(2, [(1, 0), (1, 1)])._label_table()
    # with 600 lines, row 599 lies in the last, partial row block of 2^18
    # entries, and the pair of lines 599 and 0 in an off-diagonal 256 x 256 tile
    assert np.array_equal(_made_up_space(2, [], 600)._label_table(), 4 - 4 * np.eye(600))
    with pytest.raises(GeometryError, match="not symmetric"):
        _made_up_space(2, [(0, 1797)], 600)._label_table()
    with pytest.raises(GeometryError, match="lines 599,0: s-count=0, t-count=2"):
        _made_up_space(2, [(0, 1797), (0, 1798)], 600)._label_table()
    # (q+1)(q+3) = 323 does not fit the uint8 decode
    with pytest.raises(GeometryError, match="too large"):
        _made_up_space(16, [])._label_table()


# -- the GF(q) kernels against two-index reads of the q x q tables ----------------

KERNEL_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5)]  # GF(4) .. GF(32)


def _two_index_quad_values(field, terms, X, Y):
    """spaces._quad_values by two-index reads of the ADD and MUL tables."""
    acc = np.zeros(np.shape(X)[:-1], dtype=np.uint8)
    for i, j, c in terms:
        acc = field.ADD[acc, field.MUL[c, field.MUL[X[..., i], Y[..., j]]]]
    return acc


def _two_index_table_matmul(field, A, M):
    """spaces._table_matmul by two-index reads of the ADD and MUL tables."""
    out = np.zeros((A.shape[0], M.shape[1]), dtype=np.uint8)
    for l in range(A.shape[1]):
        out = field.ADD[out, field.MUL[A[:, l, None], M[l][None, :]]]
    return out


def _forms_over(p, h):
    field = field_make(p, h)
    families = ["O6plus", "Sp6", "O8minus"] + ["O7"] * (p > 2) + ["U6"] * (h % 2 == 0)
    return [FormSpec(family, field.q) for family in families]


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_form_kernels_match_the_two_index_route(p, h):
    """form_values, singular_rows and Hermitian _bilinear_rows on seeded random vectors."""
    for form in _forms_over(p, h):
        f = form.field
        rng = np.random.default_rng(f.q * form.d)
        X = rng.integers(0, f.q, size=(40, form.d), dtype=np.uint8)
        Y = rng.integers(0, f.q, size=(30, form.d), dtype=np.uint8)
        conj = f.CONJ if form.kind == "hermitian" else np.arange(f.q, dtype=np.uint8)
        gram = np.array(form.gram, dtype=np.uint8)
        want = _two_index_table_matmul(f, X, _two_index_table_matmul(f, gram, conj[Y].T))
        assert np.array_equal(form_values(form, X, Y), want)
        terms = [(i, j, c) for i, row in enumerate(form.gram) for j, c in enumerate(row) if c]
        if form.kind == "orthogonal":
            singular = _two_index_quad_values(f, form.quad, X, X) == 0
        elif form.kind == "hermitian":
            singular = _two_index_quad_values(f, terms, X, conj[X]) == 0
            want = _two_index_quad_values(f, terms, X[:30], conj[Y])
            assert np.array_equal(form._bilinear_rows(X[:30], Y), want)
        else:
            singular = np.ones(len(X), dtype=bool)
        assert np.array_equal(form.singular_rows(X), singular)


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_span_points_match_the_two_index_route(p, h):
    """Span positions in coefficient order, for seeded random lines of PG(2,q) and the plane."""
    f = field_make(p, h)
    points = np.array(_projective_points(f, 3), dtype=np.uint8)
    index = {pt: i for i, pt in enumerate(map(tuple, points.tolist()))}
    rng = random.Random(f.q)
    lines = set()
    while len(lines) < 20:
        basis = rref([[rng.randrange(f.q) for _ in range(3)] for _ in range(2)], f)[0]
        if len(basis) == 2:
            lines.add(basis)
    for bases in (np.array(sorted(lines), dtype=np.uint8), np.eye(3, dtype=np.uint8)[None]):
        r = bases.shape[1]
        coeffs = np.array(_projective_points(f, r), dtype=np.uint8)
        vectors = np.zeros((len(bases), len(coeffs), 3), dtype=np.uint8)
        for k in range(r):
            vectors = f.ADD[vectors, f.MUL[coeffs[:, k, None], bases[:, None, k]]]
        want = [[index[_normalize(f, v)] for v in row] for row in vectors.tolist()]
        assert _span_points(f, _point_table(f, points), bases).tolist() == want


def _random_in(field, rng, basis):
    """A seeded random vector of the span of the rows, one field operation at a time."""
    v = [0] * len(basis[0])
    for row in basis:
        c = rng.randrange(field.q)
        v = [field.add(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_geometric_classification_matches_the_intersections_over_extension_fields(p, h):
    """classify_pairs_geometric on seeded totally isotropic line pairs of Sp(6,q).

    Each pair (L, M) is drawn to fall in a chosen relation: M = L; M through a
    point l of L and a vector of l^perp, or of L^perp; M through a vector of
    L^perp and one of its perp; or any line.  The tags come from the
    Zassenhaus intersections, one field operation at a time.
    """
    f = field_make(p, h)
    space = PolarSpace.__new__(PolarSpace)
    space.form, space.field, space.d = FormSpec("Sp6", f.q), f, 6
    rng = random.Random(f.q)

    def line(u, room):
        while True:
            basis = rref([u, _random_in(f, rng, room)], f)[0]
            if len(basis) == 2:
                return basis

    def any_line():
        u = [rng.randrange(f.q) for _ in range(6)]
        return line(u, _perp(space, [u])) if any(u) else any_line()

    bases = []
    for k in range(40):
        L = any_line()
        l0 = L[0]
        if k % 5 == 0:
            M = L
        elif k % 5 == 1:
            M = line(l0, _perp(space, [l0]))
        elif k % 5 == 2:
            M = line(l0, _perp(space, L))
        elif k % 5 == 3:
            x = _random_in(f, rng, _perp(space, L))
            M = line(x, _perp(space, [x])) if any(x) else any_line()
        else:
            M = any_line()
        bases += [L, M]
    space.line_basis_arr = np.array(bases, dtype=np.uint8)
    li, mi = np.arange(0, 80, 2), np.arange(1, 80, 2)
    got = [REL_TAGS[r] for r in space.classify_pairs_geometric(li, mi)]
    assert got == [_reference_classify_pair(space, a, b) for a, b in zip(li, mi)]
    assert set(got) == set(REL_TAGS)


# -- the lines of a plane from theta pair lookups ---------------------------------


# built through past_the_cap, which keeps one space alive at a time
PAST_THE_CAP = [("Sp6", 4), ("O8minus", 3)]


def _space(spaces, past_the_cap, family, q):
    """A test space from the pool, or one of PAST_THE_CAP through past_the_cap."""
    if (family, q) in PAST_THE_CAP:
        return past_the_cap(family, q, 30_000)
    return spaces.get(family, q)


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS) + [("O6plus", 4)] + PAST_THE_CAP)
def test_plane_lines_match_the_theta_squared_route(spaces, past_the_cap, family, q):
    space = _space(spaces, past_the_cap, family, q)
    pair = _pair_lines(len(space.pts_arr), space.line_points_arr)
    assert np.array_equal(
        space.plane_lines_arr, _lines_in(pair, space.plane_points_arr, space.theta)
    )


def test_plane_lines_reject_a_pair_on_no_line_or_two_pairs_on_one(o6plus2):
    space = o6plus2
    n, lines = len(space.pts_arr), space.line_points_arr
    plane_pos = _span_points(space.field, space._point_table, space.plane_basis_arr)
    assert np.array_equal(_plane_lines(space.field, n, lines, plane_pos), space.plane_lines_arr)
    # no line filed: every pair is on none
    with pytest.raises(GeometryError, match="lines in a plane"):
        _plane_lines(space.field, n, lines[:0], plane_pos)
    # coefficient point 5, (1,1,0), is in the first pair of one line of PG(2,2)
    # only, {0, 5, 6}; made plane 0's point 1, it names plane 0's line {0, 1, 2} twice
    twice = plane_pos.copy()
    twice[0, 5] = twice[0, 1]
    with pytest.raises(GeometryError, match="lines in a plane"):
        _plane_lines(space.field, n, lines, twice)


# -- one key per line and plane: the points of its RREF rows -----------------------


@pytest.mark.parametrize("family,q", sorted(EXPECTED_COUNTS) + PAST_THE_CAP)
def test_the_rref_rows_are_the_least_points(spaces, past_the_cap, family, q):
    """A line's RREF rows are its points 1 and 0, and a plane's its points q+1, 1 and 0."""
    space = _space(spaces, past_the_cap, family, q)
    rows = space.point_indices(space.line_basis_arr)
    assert np.array_equal(rows, space.line_points_arr[:, [1, 0]])
    rows = space.point_indices(space.plane_basis_arr)
    assert np.array_equal(rows, space.plane_points_arr[:, [q + 1, 1, 0]])
    for bases in (space.line_basis_arr, space.plane_basis_arr):
        assert np.array_equal(space.basis_indices(bases), np.arange(len(bases)))


@pytest.mark.parametrize("which", ["lines", "planes"])
@pytest.mark.parametrize("fault", ["dropped", "zeroed"])
def test_the_order_check_reads_the_keys(monkeypatch, o6plus2, which, fault):
    """Neighbouring keys are compared: one dropped leaves them increasing, one zeroed does not."""
    space = o6plus2
    keys, width = spaces_module._keys, {"lines": space.q + 1, "planes": space.theta}[which]

    def faulty(q, n_points, point_sets):
        k = keys(q, n_points, point_sets)
        if point_sets.shape[1] != width:
            return k
        if fault == "dropped":
            return np.delete(k, len(k) // 2)
        k[len(k) // 2] = 0
        return k

    monkeypatch.setattr(spaces_module, "_keys", faulty)
    args = (space.form, space.pts_arr, space.line_basis_arr, space.plane_basis_arr)
    if fault == "dropped":
        assert PolarSpace(*args).fingerprint == space.fingerprint
    else:
        with pytest.raises(ValueError, match="bases are not in strictly increasing order"):
            PolarSpace(*args)


def test_o6plus_q4_is_pinned(spaces):
    """The one orthogonal space over an extension field that builds in milliseconds."""
    space = spaces.get("O6plus", 4)
    assert (len(space.pts_arr), space.n_lines, len(space.plane_basis_arr)) == (357, 1785, 170)
    assert space.fingerprint == "1e713514815842f4"
    assert hashlib.sha256(space.labels.tobytes()).hexdigest()[:16] == "35460c1f5f43fcf8"


@pytest.mark.parametrize("family,q", [("O6plus", 3), ("U6", 4)])
def test_the_cached_tables_are_shared_and_read_only(family, q):
    field = FormSpec(family, q).field
    makers = [
        functools.partial(_coefficient_points, field, 2),
        functools.partial(_coefficient_points, field, 3),
        functools.partial(_span_entries, field, 2),
        functools.partial(_span_entries, field, 3),
        functools.partial(_first_pairs, field),
        functools.partial(_space_points, family, q),
    ]
    for make in makers:
        table = make()
        assert make() is table
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1


def test_a_built_and_a_loaded_space_own_writable_points(tmp_path):
    built = build_space("O6plus", 2)
    path = tmp_path / "O6plus_q2.json"
    save_space(built, path)
    loaded = load_space(path)
    want = (built.fingerprint, built.line_basis_arr.copy(), built.plane_basis_arr.copy())
    for space in (built, loaded):
        assert space.pts_arr.flags.writeable
        assert not np.shares_memory(space.pts_arr, _space_points("O6plus", 2))
        space.pts_arr[:] = 0
    fresh = build_space("O6plus", 2)
    assert fresh.fingerprint == want[0] == "f3cba4a549f48de9"
    assert np.array_equal(fresh.line_basis_arr, want[1])
    assert np.array_equal(fresh.plane_basis_arr, want[2])
