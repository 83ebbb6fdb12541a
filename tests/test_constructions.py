import hashlib
from fractions import Fraction

import numpy as np
import pytest

from polarlines import analysis, files, schemetables
from polarlines import constructions as con
from polarlines.analysis import (
    eigenspace_support,
    inner_distribution,
    plane_profile,
    regular_set_check,
)
from polarlines.gf import field_make
from polarlines.linalg import rref
from polarlines.schemetables import tables_for_space
from polarlines.search import line_spread_search
from polarlines.spaces import GeometryError, build_space

from conftest import form_perp


def one_system_of(space):
    if space.family == "Sp6" and space.q % 2 == 0:
        sec = con.quadric_section(space, "minus")
        inside = set(sec.point_indices)
        lines = [li for li, pts in enumerate(space.line_points) if all(p in inside for p in pts)]
        res = line_spread_search(space, sec.point_indices, lines)
    else:
        raise NotImplementedError
    assert res.lines is not None
    return res.lines


def test_plane_lines_pairwise_intersections(o6plus2):
    y0 = con.plane_lines(o6plus2, 0)
    assert len(y0) == 7
    shared_line_planes = o6plus2.line_planes_arr[y0.indices[0]].tolist()
    assert len(shared_line_planes) == 2
    other = [p for p in shared_line_planes if p != 0]
    y1 = con.plane_lines(o6plus2, other[0])
    assert len(set(y0.indices) & set(y1.indices)) == 1


def test_plane_lines_sp63(sp63):
    y = con.plane_lines(sp63, 0)
    assert len(y) == 13


def test_point_pencil_sizes(o6plus2, o6plus3):
    assert len(con.point_pencil(o6plus2, 0)) == 9
    assert len(con.point_pencil(o6plus2, 0, "perp_avoiding")) == 24
    assert len(con.point_pencil(o6plus3, 5)) == 16


def test_hyperplane_classification_counts(o6plus2):
    secs = con.hyperplane_sections(o6plus2)
    assert len(secs) == 63
    kinds = {}
    for s in secs:
        kinds[s.kind] = kinds.get(s.kind, 0) + 1
    assert kinds == {"degenerate": 35, "gq": 28}
    for s in secs:
        if s.kind == "degenerate":
            assert s.radical_point is not None


def test_gq_section_lines_o6plus3(o6plus3):
    y = con.hyperplane_section_lines(o6plus3, con.find_section(o6plus3, "gq"))
    assert len(y) == 40


def test_gq_section_lines_o73(o73):
    tables = tables_for_space(o73)
    y = con.hyperplane_section_lines(o73, con.find_section(o73, "gq"))
    # elliptic section of the parabolic space: a quadrangle of order (3, 9)
    assert len(y) == 280
    assert eigenspace_support(o73, tables, y) == {"11"}


def test_rank3_section_lines_o73(o73):
    y = con.hyperplane_section_lines(o73, con.find_section(o73, "rank3"))
    assert len(y) == 520


def test_rank3_section_lines_u64(u64):
    with pytest.raises(ValueError, match="no rank3"):
        con.find_section(u64, "rank3")
    y = con.hyperplane_section_lines(u64, con.find_section(u64, "gq"))
    assert len(y) == 297


def test_degenerate_section_rejected(o6plus2):
    sec = next(s for s in con.hyperplane_sections(o6plus2) if s.kind == "degenerate")
    with pytest.raises(ValueError, match="degenerate"):
        con.hyperplane_section_lines(o6plus2, sec)


@pytest.mark.parametrize(
    "name, counts",
    [
        ("o6plus2", {"gq": 28, "rank3": 0}),
        ("o6plus3", {"gq": 234, "rank3": 0}),
        ("o8minus2", {"gq": 0, "rank3": 136}),
        ("o73", {"gq": 351, "rank3": 378}),
        ("u64", {"gq": 672, "rank3": 0}),
    ],
)
def test_section_line_sets_match_the_one_by_one_sections(request, name, counts):
    space = request.getfixturevalue(name)
    for kind, count in counts.items():
        sections, incidence = con.section_line_sets(space, kind)
        assert sections == [s for s in con.hyperplane_sections(space) if s.kind == kind]
        assert incidence.shape == (count, space.n_lines)
        for sec, row in zip(sections, incidence):
            want = con.hyperplane_section_lines(space, sec).indices
            assert tuple(np.flatnonzero(row).tolist()) == want


def test_section_line_sets_check_the_closed_form(o6plus2, monkeypatch):
    with pytest.raises(ValueError, match="kind"):
        con.section_line_sets(o6plus2, "degenerate")
    a, support, what = con._section_closed_form(o6plus2, "gq")
    doctored = (a[0], a[1] + 1) + a[2:]
    monkeypatch.setattr(con, "_section_closed_form", lambda space, kind: (doctored, support, what))
    with pytest.raises(GeometryError, match="inner distribution"):
        con.section_line_sets(o6plus2, "gq")
    monkeypatch.setattr(con, "_section_closed_form", lambda space, kind: (a, {"10"}, what))
    with pytest.raises(GeometryError, match="eigenspace support"):
        con.section_line_sets(o6plus2, "gq")


def test_section_line_sets_name_the_first_bad_row(monkeypatch, o6plus2):
    """A relation changed inside later sections fails the first of them, with its own distribution.

    The relation products are what the check reads, so they move the pair
    (a, b) of section 5 from its relation r to r + 1, as a changed label did
    in the table.
    """
    _, incidence = con.section_line_sets(o6plus2, "gq")
    a, b = np.flatnonzero(incidence[5])[:2]
    r = int(o6plus2.labels[a, b])
    exact = schemetables.relation_products

    def moved(space, Y):
        Y = np.asarray(Y, dtype=np.int64)
        AY = exact(space, Y)
        for x, y in ((a, b), (b, a)):
            AY[r, x] -= Y[y]
            AY[(r + 1) % 5, x] += Y[y]
        return AY

    for module in (analysis, con):
        monkeypatch.setattr(module, "relation_products", moved)
    first = int(np.flatnonzero(incidence[:, a] & incidence[:, b])[0])
    row = np.flatnonzero(incidence[first]).tolist()
    want, _, what = con._section_closed_form(o6plus2, "gq")
    message = f"{what}: inner distribution {inner_distribution(o6plus2, row)} != expected "
    message += str(tuple(Fraction(v) for v in want))
    with pytest.raises(GeometryError) as info:
        con.section_line_sets(o6plus2, "gq")
    assert str(info.value) == message


# (sections, sha256 of their dual points and packed incidence rows) of each
# kind that exists, as a bulk census of the label table gave them
_SECTION_DIGESTS = {
    ("o6plus2", "gq"): (28, "23419740e2a32055"),
    ("o6plus3", "gq"): (234, "42bbbe9f665b20f4"),
    ("o8minus2", "rank3"): (136, "bd83037e92020e92"),
    ("o73", "rank3"): (378, "9f6174ffd937f161"),
    ("o73", "gq"): (351, "080561352ed4ec04"),
    ("u64", "gq"): (672, "eb3380d17fdc7e50"),
}


@pytest.mark.parametrize("name, kind", sorted(_SECTION_DIGESTS))
def test_section_line_sets_keep_their_sections_and_incidence(request, name, kind):
    sections, incidence = con.section_line_sets(request.getfixturevalue(name), kind)
    digest = hashlib.sha256(np.array([s.dual_point for s in sections], dtype=np.uint8).tobytes())
    digest.update(np.packbits(incidence, axis=1).tobytes())
    assert (len(sections), digest.hexdigest()[:16]) == _SECTION_DIGESTS[name, kind]


def test_quadric_sections_in_sp62(sp62):
    plus = con.quadric_section_lines(sp62, con.quadric_section(sp62, "plus"))
    assert len(plus) == 105
    minus = con.quadric_section_lines(sp62, con.quadric_section(sp62, "minus"))
    assert len(minus) == 45


def _reference_quadric_section(space, kind):
    """(quad, point indices) of a quadric section, one scalar field operation at a time."""
    f = space.field
    quad = [(0, 3, 1), (1, 4, 1), (2, 5, 1)]
    if kind == "minus":
        alpha = beta = None
        for a in range(f.q):
            for b in range(f.q):
                # x^2*a + x + b irreducible over GF(q) <=> x2*x5+a*x2^2+b*x5^2 anisotropic
                if all(
                    f.add(f.mul(a, f.mul(z, z)), f.add(z, b)) != 0 for z in range(f.q)
                ) and b != 0 and a != 0:
                    alpha, beta = a, b
                    break
            if alpha is not None:
                break
        quad += [(2, 2, alpha), (5, 5, beta)]

    def qval(v):
        acc = 0
        for (i, j, c) in quad:
            acc = f.add(acc, f.mul(c, f.mul(v[i], v[j])))
        return acc

    return tuple(quad), tuple(i for i, p in enumerate(space.points) if qval(p) == 0)


@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_quadric_section_matches_the_scalar_search(sp62, kind):
    sec = con.quadric_section(sp62, kind)
    assert (sec.quad, sec.point_indices) == _reference_quadric_section(sp62, kind)


def test_quadric_section_odd_q_rejected(sp63):
    with pytest.raises(ValueError, match="even"):
        con.quadric_section(sp63, "plus")


def test_elliptic_ovoid(o6plus2, o6plus3):
    ov2 = con.elliptic_ovoid(o6plus2)
    assert len(ov2) == 5
    for plane_pts in o6plus2.plane_points_arr.tolist():
        assert len(set(plane_pts) & set(ov2)) == 1
    assert len(con.elliptic_ovoid(o6plus3)) == 10


def test_ovoid_points_pairwise_non_perpendicular(o6plus2):
    ov = con.elliptic_ovoid(o6plus2)
    perp = form_perp(o6plus2)
    for i, a in enumerate(ov):
        for b in ov[i + 1 :]:
            assert not perp[a, b]


def test_pencil_union(o6plus2, o6plus3):
    tables = tables_for_space(o6plus2)
    y = con.pencil_union(o6plus2, con.elliptic_ovoid(o6plus2))
    assert len(y) == 45
    rep = regular_set_check(o6plus2, tables, y)
    assert rep.is_regular and rep.eigenspace == "11"
    # size agrees with (q+1)(q^{e+1}+1)(q^{e+2}+1) and with the pencil count
    q, s = o6plus3.q, o6plus3.qe
    y3 = con.pencil_union(o6plus3, con.elliptic_ovoid(o6plus3))
    assert len(y3) == (q + 1) * (s * q + 1) * (s * q * q + 1) == 160
    assert len(y3) == (s * q * q + 1) * len(con.point_pencil(o6plus3, 0))


def test_pencil_union_rejects_non_ovoid(o6plus2):
    with pytest.raises(ValueError, match="ovoid must have"):
        con.pencil_union(o6plus2, (0, 1, 2))
    # five points, three of them on line 0: their pencils meet, and this is bad input
    pts = list(o6plus2.line_points[0]) + [o6plus2.line_points[1][0], o6plus2.line_points[2][-1]]
    pts = list(dict.fromkeys(pts))
    assert len(pts) == 5
    with pytest.raises(ValueError, match="point-pencils are not pairwise disjoint; not an ovoid"):
        con.pencil_union(o6plus2, pts)


def test_m_ovoid_lift(o6plus3):
    tables = tables_for_space(o6plus3)
    sec = con.find_section(o6plus3, "gq")
    ovoid = con.elliptic_ovoid(o6plus3, fixed_duals=[sec.dual_point])
    assert con.validate_m_ovoid(o6plus3, sec, ovoid) == 1
    y = con.m_ovoid_lift(o6plus3, sec, ovoid)
    assert len(y) == 120
    rep = regular_set_check(o6plus3, tables, y)
    assert rep.is_regular and rep.eigenspace == "11"


def test_m_ovoid_lift_all_points_is_degenerate_case(o6plus3):
    sec = con.find_section(o6plus3, "gq")
    allpts = con.section_point_indices(o6plus3, sec)
    assert con.validate_m_ovoid(o6plus3, sec, allpts) == 4
    y = con.m_ovoid_lift(o6plus3, sec, allpts)
    q, s = o6plus3.q, o6plus3.qe
    assert len(y) == (q + 1) * q * (s * q + 1) * (s * q * q + 1)


def test_m_ovoid_lift_rejects_even_q(o6plus2):
    sec = con.find_section(o6plus2, "gq")
    with pytest.raises(ValueError, match="odd"):
        con.m_ovoid_lift(o6plus2, sec, con.section_point_indices(o6plus2, sec))


def test_m_ovoid_validation_rejects_bad_sets(o6plus3):
    sec = con.find_section(o6plus3, "gq")
    pts = con.section_point_indices(o6plus3, sec)
    with pytest.raises(ValueError, match="not an m-ovoid"):
        con.validate_m_ovoid(o6plus3, sec, pts[:7])


def test_symplectic_spread(sp62, sp63):
    planes2 = con.symplectic_spread_planes(sp62)
    assert len(planes2) == 9
    y2 = con.symplectic_spread_lines(sp62)
    assert len(y2) == 63
    assert inner_distribution(sp62, y2) == (1, 6, 0, 24, 32)
    planes3 = con.symplectic_spread_planes(sp63)
    assert len(planes3) == 28
    y3 = con.symplectic_spread_lines(sp63)
    assert len(y3) == 364
    tables = tables_for_space(sp63)
    rep = regular_set_check(sp63, tables, y3)
    assert rep.is_regular and rep.eigenspace == "20"


def _reference_spread_planes(space):
    """The spread's plane indices, from a trace-dual basis pair and RREF inverses."""
    f = space.field
    cubic = field_make(f.p, 3)
    p = f.p

    def digitvec(z):
        return [(z // p**i) % p for i in range(3)]

    basis = [1, p, cubic.mul(p, p)]  # 1, g, g^2 where g is the class of x

    def inverse(rows):
        """Inverse over GF(p), read off the RREF [I | M^-1] of [M | I]."""
        eye = [tuple(int(i == j) for j in range(3)) for i in range(3)]
        rr, pivots = rref([tuple(r) + e for r, e in zip(rows, eye)], f)
        assert pivots[:3] == (0, 1, 2)
        return [row[3:] for row in rr]

    # dual basis: rows of M^-1 (over GF(p)) combine basis into trace-dual elements
    M = [[cubic.trace(cubic.mul(bi, bj)) for bj in basis] for bi in basis]
    Minv = inverse(M)
    dual_basis = []
    for j in range(3):
        acc = 0
        for k in range(3):
            acc = cubic.add(acc, cubic.mul(Minv[j][k], basis[k]))
        dual_basis.append(acc)

    Binv = inverse([digitvec(b) for b in basis])
    Bstarinv = inverse([digitvec(b) for b in dual_basis])

    def coords(z, inv):
        dv = digitvec(z)
        return tuple(sum(dv[k] * inv[k][j] for k in range(3)) % p for j in range(3))

    planes = []
    for mslope in range(cubic.q):
        planes.append([coords(b, Binv) + coords(cubic.mul(mslope, b), Bstarinv) for b in basis])
    planes.append([(0, 0, 0) + coords(b, Bstarinv) for b in dual_basis])
    return tuple(space.basis_indices([rref(rows, f)[0] for rows in planes]).tolist())


def test_spread_planes_match_the_trace_dual_construction(sp62, sp63):
    for space in (sp62, sp63):
        assert con.symplectic_spread_planes(space) == _reference_spread_planes(space)


def test_each_checked_line_set_is_counted_once(monkeypatch, o6plus2, o8minus2, sp62):
    """One relation product per construction, regularity check and evaluation report."""
    exact = schemetables.relation_products
    calls = []

    def counted(space, Y):
        calls.append(np.shape(Y))
        return exact(space, Y)

    for module in (analysis, con, schemetables):
        monkeypatch.setattr(module, "relation_products", counted)
    tables = tables_for_space(sp62)
    hexagon = con.hexagon_lines(sp62)
    rank3, gq = con.find_section(o8minus2, "rank3"), con.find_section(o6plus2, "gq")
    plus, minus = con.quadric_section(sp62, "plus"), con.quadric_section(sp62, "minus")
    runs = {
        "hexagon": lambda: con.hexagon_lines(sp62),
        "spread lines": lambda: con.symplectic_spread_lines(sp62),
        "rank-3 section": lambda: con.hyperplane_section_lines(o8minus2, rank3),
        "gq section": lambda: con.hyperplane_section_lines(o6plus2, gq),
        "plus quadric section": lambda: con.quadric_section_lines(sp62, plus),
        "minus quadric section": lambda: con.quadric_section_lines(sp62, minus),
        "perp-avoiding pencil": lambda: con.point_pencil(o6plus2, 0, "perp_avoiding"),
        "regular_set_check": lambda: regular_set_check(sp62, tables, hexagon),
        "build_report": lambda: files.build_report(sp62, tables, hexagon),
    }
    for what, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1, what


def test_constructions_and_reports_read_no_label():
    """On freshly built spaces, whose table is built on first use, none is built."""
    families = (("O6plus", 2), ("O6plus", 3), ("O8minus", 2), ("Sp6", 2))
    o62, o63, o82, sp = (build_space(family, q) for family, q in families)
    gq3 = con.find_section(o63, "gq")
    runs = {
        "plane": lambda: con.plane_lines(o62, 0),
        "pencil": lambda: con.point_pencil(o62, 0),
        "perp-avoiding pencil": lambda: con.point_pencil(o62, 0, "perp_avoiding"),
        "gq section": lambda: con.hyperplane_section_lines(o62, con.find_section(o62, "gq")),
        "rank-3 section": lambda: con.hyperplane_section_lines(o82, con.find_section(o82, "rank3")),
        "gq sections in bulk": lambda: con.section_line_sets(o63, "gq"),
        "rank-3 sections in bulk": lambda: con.section_line_sets(o82, "rank3"),
        "pencil union": lambda: con.pencil_union(o62, con.elliptic_ovoid(o62)),
        "m-ovoid lift": lambda: con.m_ovoid_lift(
            o63, gq3, con.elliptic_ovoid(o63, fixed_duals=[gq3.dual_point])
        ),
        "plus quadric section": lambda: con.quadric_section_lines(
            sp, con.quadric_section(sp, "plus")
        ),
        "minus quadric section": lambda: con.quadric_section_lines(
            sp, con.quadric_section(sp, "minus")
        ),
        "spread lines": lambda: con.symplectic_spread_lines(sp),
        "hexagon": lambda: con.hexagon_lines(sp),
        "two-weight profile": lambda: con.two_weight_profile(sp, one_system_of(sp)),
        "report": lambda: files.build_report(sp, tables_for_space(sp), con.hexagon_lines(sp)),
    }
    for what, run in runs.items():
        run()
        assert all("labels" not in vars(space) for space in (o62, o63, o82, sp)), what


def test_spread_rejected_outside_sp6(o6plus2):
    with pytest.raises(ValueError, match="Sp6"):
        con.symplectic_spread_lines(o6plus2)


def _incidence_girth(space, lines, cap=16):
    """Girth of the point-line incidence graph of the lines, by a BFS from every node."""
    adj = {}
    for li in lines:
        for p in space.line_points[li]:
            adj.setdefault(("L", li), []).append(("P", p))
            adj.setdefault(("P", p), []).append(("L", li))
    best = cap
    for start in adj:
        dist, parent, queue = {start: 0}, {start: None}, [start]
        while queue:
            nxt = []
            for node in queue:
                if dist[node] * 2 >= best:
                    continue
                for nb in adj[node]:
                    if nb not in dist:
                        dist[nb], parent[nb] = dist[node] + 1, node
                        nxt.append(nb)
                    elif parent[node] != nb and parent.get(nb) != node:
                        best = min(best, dist[node] + dist[nb] + 1)
            queue = nxt
    return best


def test_hexagon_sp62(sp62):
    tables = tables_for_space(sp62)
    y = con.hexagon_lines(sp62)
    assert len(y) == 63
    assert inner_distribution(sp62, y) == (1, 6, 0, 24, 32)
    rep = regular_set_check(sp62, tables, y)
    assert rep.is_regular and rep.eigenspace == "20"
    prof = plane_profile(sp62, y)
    assert set(prof.histogram) <= {0, 1, sp62.q + 1}
    assert prof.pencil_ok
    assert _incidence_girth(sp62, y.indices) == 12


def test_hexagon_o73(o73):
    tables = tables_for_space(o73)
    y = con.hexagon_lines(o73)
    assert len(y) == 364
    assert inner_distribution(o73, y) == (1, 12, 0, 108, 243)
    rep = regular_set_check(o73, tables, y)
    assert rep.is_regular and rep.eigenspace == "20"


def _reference_tits_coords(space, vec):
    """One host vector in the reference quadric's coordinates, one field operation at a time."""
    f = space.field
    if space.family == "O7":
        x = vec
        neg = f.neg
        # (x0,x1)(x2,x3)(x4,x5) hyperbolic pairs, x6^2 square term
        return (x[0], x[2], x[4], x[6], neg(x[1]), neg(x[3]), neg(x[5]))
    # Sp6, q even: symplectic coords pair i with i+3
    x = vec
    prod = 0
    X = (x[0], x[1], x[2], 0, x[3], x[4], x[5])
    for i, j in ((0, 4), (1, 5), (2, 6)):
        prod = f.add(prod, f.mul(X[i], X[j]))
    root = prod
    for _ in range(f.h - 1):
        root = f.mul(root, root)
    # char 2: (root)^2 = prod since squaring has order h on GF(2^h)
    if f.mul(root, root) != prod:
        raise GeometryError("square root failed in characteristic 2")
    return (X[0], X[1], X[2], root, X[4], X[5], X[6])


def _reference_hexagon_lines(space):
    """The hexagon's line indices, from all 42 Plucker coordinates of each line in turn."""
    f = space.field

    def plucker(u, v):
        p = {}
        for i in range(7):
            for j in range(7):
                if i != j:
                    p[(i, j)] = f.sub(f.mul(u[i], v[j]), f.mul(u[j], v[i]))
        return p

    keep = []
    for li, basis in enumerate(space.line_basis):
        u = _reference_tits_coords(space, basis[0])
        v = _reference_tits_coords(space, basis[1])
        p = plucker(u, v)
        if all(p[a] == p[b] for a, b in con._HEXAGON_EQS):
            keep.append(li)
    return tuple(keep)


@pytest.mark.parametrize("name", ["sp62", "o73"])
def test_hexagon_lines_match_the_per_line_filter(request, name):
    space = request.getfixturevalue(name)
    assert con.hexagon_lines(space).indices == _reference_hexagon_lines(space)


def test_hexagon_rejected_elsewhere(o6plus2, sp63):
    with pytest.raises(ValueError):
        con.hexagon_lines(o6plus2)
    with pytest.raises(ValueError):
        con.hexagon_lines(sp63)  # odd q symplectic has no hexagon here


def test_two_weight_profile(sp62):
    one = one_system_of(sp62)
    tw = con.two_weight_profile(sp62, one)
    assert tw.m == 1
    assert tw.values == {Fraction(15): 36, Fraction(11): 27}
    assert tw.dichotomy_ok


def test_two_weight_rejects_meeting_lines(sp62):
    with pytest.raises(ValueError, match="non-intersecting"):
        con.two_weight_profile(sp62, con.plane_lines(sp62, 0))


def test_two_weight_rejects_wrong_family(o6plus2):
    with pytest.raises(ValueError, match="Sp6"):
        con.two_weight_profile(o6plus2, [0])


def test_two_weight_rejects_support_meeting_v10(sp62):
    # a partial 1-system of 8 lines keeps pairwise opposition but picks up a
    # nonzero projection onto the first eigenspace
    one = one_system_of(sp62)
    with pytest.raises(ValueError, match="orthogonal to V10"):
        con.two_weight_profile(sp62, one[:8])


def test_srg_parameters():
    assert con.srg_parameters(1, 2, 2) == (64, 27, 3, -5)
    assert con.srg_parameters(1, 2, 4) == (256, 51, 3, -13)
    assert con.srg_parameters(1, 3, 2) == (729, 224, 8, -19)
    with pytest.raises(ValueError):
        con.srg_parameters(Fraction(1, 7), 2, 2)


def test_srg_graph_from_one_system(sp62):
    one = one_system_of(sp62)
    params = con.srg_parameters(1, 2, 2)
    adj = con.two_weight_graph(sp62, one)
    assert con.srg_check(adj, *params)
    assert not con.srg_check(adj, 64, 27, 3, -4)
