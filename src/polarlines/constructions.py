"""Constructions of the known structured line families, each self-validating.

Every constructor checks the inner distribution (and usually the eigenspace
support) of what it built against the known closed form and raises
GeometryError on any mismatch, so a returned set is already verified.
Input that cannot give the structure, such as a point set that is no ovoid,
raises ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import (
    _as_indices,
    dual_distribution,
    eigenspace_support,
    inner_distribution,
    make_lineset,
)
from .gf import field_make
from .linalg import rref
from .spaces import (
    GeometryError,
    _anisotropic_binary,
    _projective_points,
    _quad_values,
    _vector_indices,
    form_values,
)
from .schemetables import relation_census, tables_for_space


def _check_inner(space, y, expected, what):
    got = inner_distribution(space, y)
    want = tuple(Fraction(v) for v in expected)
    if got != want:
        raise GeometryError(f"{what}: inner distribution {got} != expected {want}")


def _check_support(space, y, expected, what):
    tables = tables_for_space(space)
    got = eigenspace_support(space, tables, y)
    if got != frozenset(expected):
        raise GeometryError(f"{what}: eigenspace support {set(got)} != expected {set(expected)}")


# -- planes and pencils --------------------------------------------------------


def _check_index(index, count, what):
    """Reject an index that is not in range(count), negative ones included."""
    if not 0 <= index < count:
        raise ValueError(f"{what} index {index} is out of range: the space has {count} {what}s")


def plane_lines(space, plane_index):
    """All q^2+q+1 lines inside one plane."""
    _check_index(plane_index, len(space.plane_lines_arr), "plane")
    q = space.q
    y = make_lineset(space, space.plane_lines_arr[plane_index], name=f"plane[{plane_index}]")
    _check_inner(space, y, (1, q * q + q, 0, 0, 0), "plane lines")
    return y


def point_pencil(space, point_index, mode="through"):
    """Lines through a point, or the lines inside its perp that avoid it."""
    _check_index(point_index, len(space.pts_arr), "point")
    q, s = space.q, space.qe
    if mode == "through":
        y = make_lineset(space, space.point_lines_arr[point_index], name=f"pencil[{point_index}]")
        _check_inner(space, y, (1, s * q + q, s * q * q, 0, 0), "point pencil")
        return y
    if mode != "perp_avoiding":
        raise ValueError("mode must be 'through' or 'perp_avoiding'")
    avoiding = space.perp_points[point_index].copy()
    avoiding[point_index] = False
    keep = space.lines_inside(avoiding)
    y = make_lineset(space, keep, name=f"pencil_perp_avoiding[{point_index}]")
    a1 = (1, q * q - 1, s * q * (q + 1), (q * q - 1) * s * q, s * s * q**3)
    _check_inner(space, y, a1, "perp-avoiding pencil")
    _check_support(space, y, {"10", "11"}, "perp-avoiding pencil")
    return y


# -- hyperplane sections ---------------------------------------------------------


@dataclass(frozen=True)
class HyperplaneSection:
    """An ambient hyperplane u^perp with its polar-space classification."""

    dual_point: tuple
    kind: str  # "degenerate" | "rank3" | "gq"
    radical_point: int | None
    singular_count: int


def ambient_projective_points(space):
    """All projective points of the ambient GF(q)^d, in lex order."""
    return _projective_points(space.field, space.d)


def hyperplane_sections(space):
    """Classify every ambient hyperplane u^perp of the space's vector space.

    Symplectic spaces have only degenerate hyperplanes; orthogonal and
    Hermitian spaces split into degenerate ones (u a point of the space,
    which is then the radical) and nondegenerate ones carrying either a
    rank-3 polar space with parameter e-1 or a generalized quadrangle with
    parameter e+1, told apart by their point counts.
    """
    return _section_census(space)[0]


def _section_census(space):
    """(hyperplane_sections, points x sections mask of the points each one holds)."""
    q, s = space.q, space.qe
    theta = space.theta
    rank3_count = ((s // q) * q * q + 1) * theta if space.e2 >= 2 else None
    gq_count = (s * q * q + 1) * (q + 1)
    duals = ambient_projective_points(space)
    inside = form_values(space.form, space.pts_arr, duals) == 0
    # u is normalized, so it is singular exactly when it is a point
    radicals = space.point_indices(duals).tolist()
    out = []
    for u, cnt, pt in zip(duals, inside.sum(axis=0).tolist(), radicals):
        if pt >= 0:
            out.append(HyperplaneSection(u, "degenerate", pt, cnt))
        elif rank3_count is not None and cnt == rank3_count:
            out.append(HyperplaneSection(u, "rank3", None, cnt))
        elif cnt == gq_count:
            out.append(HyperplaneSection(u, "gq", None, cnt))
        else:
            raise GeometryError(
                f"hyperplane of {space.family}/q={q} has unrecognized point count {cnt}"
            )
    return out, inside


def find_section(space, kind):
    """First hyperplane section of the requested kind, in dual-point lex order."""
    for sec in hyperplane_sections(space):
        if sec.kind == kind:
            return sec
    raise ValueError(f"{space.family}/q={space.q} has no {kind} hyperplane section")


def section_point_indices(space, section):
    inside = form_values(space.form, space.pts_arr, [section.dual_point])[:, 0] == 0
    return tuple(np.flatnonzero(inside).tolist())


def _section_closed_form(space, kind):
    """(inner distribution, eigenspace support, name) of a nondegenerate section's lines."""
    q, s = space.q, space.qe
    if kind == "rank3":
        t = s // q  # q^(e-1)
        a = (
            1,
            q * (q + 1) * (t + 1),
            s * q * (q + 1),
            s * q * q * (q + 1) * (t + 1),
            s * s * q**3,
        )
        return a, {"10"}, "rank-3 section lines"
    a = (1, 0, s * q * (q + 1), 0, s * s * q**3)
    return a, {"11"}, "generalized quadrangle section lines"


def hyperplane_section_lines(space, section):
    """Lines of the space inside a nondegenerate hyperplane, distribution-checked."""
    if section.kind == "degenerate":
        raise ValueError("section is degenerate; expected a nondegenerate hyperplane")
    keep = space.lines_inside(section_point_indices(space, section))
    y = make_lineset(space, keep, name=f"{section.kind}_section")
    a, support, what = _section_closed_form(space, section.kind)
    _check_inner(space, y, a, what)
    _check_support(space, y, support, what)
    return y


def section_line_sets(space, kind):
    """Every hyperplane section of one nondegenerate kind with its lines, in bulk.

    Returns (sections, incidence): the sections of that kind in the order
    hyperplane_sections lists them, and the boolean sections x lines matrix
    whose row i marks the lines inside section i, as hyperplane_section_lines
    would return them.  Every row's inner distribution is checked against the
    closed form; the eigenspace support is a function of that distribution
    alone, so it is checked once for all rows.
    """
    if kind not in ("rank3", "gq"):
        raise ValueError("kind must be 'rank3' or 'gq'")
    sections, inside = _section_census(space)
    cols = [k for k, sec in enumerate(sections) if sec.kind == kind]
    sections = [sections[k] for k in cols]
    inside = np.ascontiguousarray(inside[:, cols].T)
    lines = space.line_points_arr
    incidence = inside[:, lines[:, 0]]
    for c in range(1, lines.shape[1]):
        incidence &= inside[:, lines[:, c]]
    a, support, what = _section_closed_form(space, kind)
    # every section of one kind has sum(a) lines; the rows of that size
    # gather their label blocks in bulk, about 2^22 labels at a time
    size = sum(a)
    ok = incidence.sum(axis=1) == size
    rows = np.flatnonzero(ok)
    members = np.nonzero(incidence[rows])[1].reshape(len(rows), size)
    step = max(1, 2**22 // size**2)
    for lo in range(0, len(rows), step):
        m = members[lo : lo + step]
        block = space.labels[m[:, :, None], m[:, None, :]].reshape(len(m), -1)
        ok[rows[lo : lo + step]] = (relation_census(block) == np.multiply(a, size)).all(axis=1)
    bad = np.flatnonzero(~ok)
    if bad.size:
        # the first bad row's own distribution names it, as a one-row check would
        _check_inner(space, np.flatnonzero(incidence[bad[0]]).tolist(), a, what)
        raise GeometryError(f"{what}: bulk and one-row relation counts disagree")
    if sections:
        _check_support(space, np.flatnonzero(incidence[0]).tolist(), support, what)
    return sections, incidence


# -- quadric sections of Sp(6,q), q even ----------------------------------------


@dataclass(frozen=True)
class QuadricSection:
    """A quadratic form polarizing to the symplectic form, with its point set."""

    kind: str  # "plus" | "minus"
    quad: tuple
    point_indices: tuple


def quadric_section(space, kind):
    """Hyperbolic or elliptic quadric inside Sp(6,q), q even.

    The quadratic form x0*x3 + x1*x4 + x2*x5 (+ anisotropic correction on the
    last pair for the elliptic kind) polarizes to the standard symplectic
    form, so its singular lines are symplectic lines.  The correction makes
    x2^2 + x2*x5 + c0*x5^2 anisotropic: in characteristic 2 the first
    anisotropic binary form x^2 + c1*x*y + c0*y^2 has c1 = 1.
    """
    if space.family != "Sp6" or space.q % 2 != 0:
        raise ValueError("quadric sections are for Sp6 with even q")
    quad = [(0, 3, 1), (1, 4, 1), (2, 5, 1)]
    if kind == "minus":
        c1, c0 = _anisotropic_binary(space.field)
        if c1 != 1:
            raise GeometryError("no anisotropic correction found")
        quad += [(2, 2, 1), (5, 5, c0)]
    elif kind != "plus":
        raise ValueError("kind must be 'plus' or 'minus'")

    values = _quad_values(space.field, quad, space.pts_arr, space.pts_arr)
    pts = tuple(np.flatnonzero(values == 0).tolist())
    q, s = space.q, space.qe
    want = (q * q + 1) * space.theta if kind == "plus" else (s * q * q + 1) * (q + 1)
    if len(pts) != want:
        raise GeometryError(f"{kind} quadric section has {len(pts)} points, expected {want}")
    return QuadricSection(kind=kind, quad=tuple(quad), point_indices=pts)


def quadric_section_lines(space, section):
    """Sp(6,q) lines all of whose points are singular for the section's quadric."""
    q, s = space.q, space.qe
    keep = space.lines_inside(section.point_indices)
    y = make_lineset(space, keep, name=f"quadric_{section.kind}_section")
    if section.kind == "plus":
        a = (1, q * (q + 1) * 2, s * q * (q + 1), s * q * q * (q + 1) * 2, s * s * q**3)
        _check_inner(space, y, a, "hyperbolic quadric section lines")
        _check_support(space, y, {"10"}, "hyperbolic quadric section lines")
    else:
        a = (1, 0, s * q * (q + 1), 0, s * s * q**3)
        _check_inner(space, y, a, "elliptic quadric section lines")
        _check_support(space, y, {"11"}, "elliptic quadric section lines")
    return y


# -- ovoids and pencil unions ----------------------------------------------------


def elliptic_ovoid(space, fixed_duals=()):
    """Point set of a fixed 4-dimensional elliptic section of O+(6,q).

    With fixed_duals one functional can be pinned, which searches for an
    elliptic 4-space inside that hyperplane (giving an ovoid of the O(5,q)
    section).  Returns the tuple of point indices; pairwise non-collinearity
    and the one-point-per-plane property are asserted.
    """
    if space.family != "O6plus":
        raise ValueError("elliptic ovoids are built in O6plus only")
    q = space.q
    duals = ambient_projective_points(space)
    vals = form_values(space.form, space.pts_arr, duals)
    fixed = _vector_indices(space.field, duals, np.reshape(fixed_duals, (-1, space.d))).tolist()
    if -1 in fixed:
        raise ValueError("cannot normalize the zero vector")
    need = 2 - len(fixed)
    if need < 0:
        raise ValueError("at most two functionals cut out a 4-space in dimension 6")
    masks = vals == 0
    fixed_mask = np.ones(len(space.pts_arr), dtype=bool)
    for k in fixed:
        fixed_mask &= masks[:, k]
    for combo in itertools.combinations(range(len(duals)), need):
        if any(k in fixed for k in combo):
            continue
        mask = fixed_mask.copy()
        for k in combo:
            mask &= masks[:, k]
        pts = np.nonzero(mask)[0]
        if len(pts) != q * q + 1:
            continue
        sub = space.perp_points[np.ix_(pts, pts)]
        if (sub & ~np.eye(len(pts), dtype=bool)).any():
            continue
        if not fixed_duals and (mask[space.plane_points_arr].sum(axis=1) != 1).any():
            raise GeometryError("elliptic section is not one point per plane")
        return tuple(pts.tolist())
    raise GeometryError("no elliptic 4-space found")


def pencil_union(space, ovoid_points):
    """Union of the point-pencils through an ovoid, a regular set in V11."""
    q, s = space.q, space.qe
    if len(ovoid_points) != s * q * q + 1:
        raise ValueError(f"ovoid must have q^(e+2)+1 = {s * q * q + 1} points")
    lines = space.point_lines_arr[list(ovoid_points)].ravel()
    if len(np.unique(lines)) != len(lines):
        raise ValueError("point-pencils are not pairwise disjoint; not an ovoid")
    y = make_lineset(space, lines, name="pencil_union")
    want = (q + 1) * (s * q + 1) * (s * q * q + 1)
    if len(y) != want:
        raise GeometryError(f"pencil union has {len(y)} lines, expected {want}")
    _check_support(space, y, {"11"}, "pencil union")
    return y


# -- m-ovoid lifts ----------------------------------------------------------------


def validate_m_ovoid(space, section, point_indices):
    """Check that every line of the GQ section meets the set in m points; return m."""
    if section.kind != "gq":
        raise ValueError("m-ovoids live in a generalized quadrangle section")
    if not set(point_indices) <= set(section_point_indices(space, section)):
        raise ValueError("m-ovoid points must lie in the section")
    chosen = np.zeros(len(space.pts_arr), dtype=bool)
    chosen[list(point_indices)] = True
    section_lines = space.line_points_arr[list(hyperplane_section_lines(space, section).indices)]
    ms = set(chosen[section_lines].sum(axis=1).tolist())
    if len(ms) != 1:
        raise ValueError(f"not an m-ovoid: line intersection sizes {sorted(ms)}")
    return ms.pop()


def m_ovoid_lift(space, section, point_indices):
    """Lines meeting the GQ section in exactly one point, that point in the m-ovoid.

    Defined for odd q; the result is a regular set in V11 of size
    m q (q^{e+1}+1)(q^{e+2}+1).
    """
    if space.q % 2 == 0:
        raise ValueError("the m-ovoid lift requires odd q")
    m = validate_m_ovoid(space, section, point_indices)
    q, s = space.q, space.qe
    in_h = np.zeros(len(space.pts_arr), dtype=bool)
    in_h[list(section_point_indices(space, section))] = True
    hits = in_h[space.line_points_arr].sum(axis=1)
    if not np.isin(hits, (1, q + 1)).all():
        raise GeometryError("a line meets the hyperplane in an impossible point count")
    chosen = np.zeros(len(space.pts_arr), dtype=bool)
    chosen[list(point_indices)] = True
    # the m-ovoid lies in the hyperplane, so a line meeting it in one point meets the m-ovoid there
    keep = np.flatnonzero((hits == 1) & chosen[space.line_points_arr].any(axis=1))
    y = make_lineset(space, keep, name=f"{m}_ovoid_lift")
    want = m * q * (s * q + 1) * (s * q * q + 1)
    if len(y) != want:
        raise GeometryError(f"m-ovoid lift has {len(y)} lines, expected {want}")
    _check_support(space, y, {"11"}, "m-ovoid lift")
    return y


# -- symplectic spreads ------------------------------------------------------------


def symplectic_spread_planes(space):
    """The regular plane spread of Sp(6,q) from the GF(q^3) trace form.

    Works for prime q (the cubic extension tables must exist); the planes are
    {(x, mx)} for m in GF(q^3) plus {(0, y)}, written in a trace-dual pair of
    bases so the form becomes the standard one.
    """
    if space.family != "Sp6":
        raise ValueError("plane spreads are built in Sp6 only")
    f = space.field
    if f.h != 1:
        raise ValueError("spread construction needs GF(q^3) arithmetic tables (prime q only)")
    cubic = field_make(f.p, 3)
    p = f.p

    def digitvec(z):
        return [(z // p**i) % p for i in range(3)]

    basis = [1, p, cubic.mul(p, p)]  # 1, g, g^2 where g is the class of x

    def tr(z):
        out = cubic.trace(z)
        if out >= p:
            raise GeometryError("trace left the prime subfield")
        return out

    def inverse(rows):
        """Inverse over GF(p), read off the RREF [I | M^-1] of [M | I]."""
        eye = [tuple(int(i == j) for j in range(3)) for i in range(3)]
        rr, pivots = rref([tuple(r) + e for r, e in zip(rows, eye)], f)
        if pivots[:3] != (0, 1, 2):
            raise GeometryError("basis change over GF(p) is singular")
        return [row[3:] for row in rr]

    # dual basis: rows of M^-1 (over GF(p)) combine basis into trace-dual elements
    M = [[tr(cubic.mul(bi, bj)) for bj in basis] for bi in basis]
    Minv = inverse(M)
    dual_basis = []
    for j in range(3):
        acc = 0
        for k in range(3):
            acc = cubic.add(acc, cubic.mul(Minv[j][k], basis[k]))
        dual_basis.append(acc)

    Bmat = [digitvec(b) for b in basis]
    Bstar = [digitvec(b) for b in dual_basis]
    Binv = inverse(Bmat)
    Bstarinv = inverse(Bstar)

    def coords(z, inv):
        dv = digitvec(z)
        return tuple(sum(dv[k] * inv[k][j] for k in range(3)) % p for j in range(3))

    planes = []
    for mslope in range(cubic.q):
        rows = [coords(b, Binv) + coords(cubic.mul(mslope, b), Bstarinv) for b in basis]
        planes.append(rows)
    planes.append([(0, 0, 0) + coords(b, Bstarinv) for b in dual_basis])

    indices = space.basis_indices(np.array([rref(rows, f)[0] for rows in planes], dtype=np.uint8))
    if (indices < 0).any():
        raise GeometryError("spread plane is not totally isotropic")
    if len(set(indices.tolist())) != cubic.q + 1:
        raise GeometryError("spread planes are not distinct")
    # each plane's points are distinct, so the planes meet exactly when a point repeats
    points = space.plane_points_arr[indices]
    if len(np.unique(points)) != points.size:
        raise GeometryError("spread planes intersect")
    return tuple(indices.tolist())


def symplectic_spread_lines(space):
    """All lines inside the planes of the standard spread; regular in V20."""
    lines = space.plane_lines_arr[list(symplectic_spread_planes(space))].ravel()
    q, s = space.q, space.qe
    y = make_lineset(space, lines, name="spread_lines")
    want = (s * q * q + 1) * space.theta
    if len(y) != want:
        raise GeometryError(f"spread line set has {len(y)} lines, expected {want}")
    a = (1, q * q + q, 0, s * q * q * (q + 1), s * q**4)
    _check_inner(space, y, a, "spread lines")
    _check_support(space, y, {"20"}, "spread lines")
    return y


# -- the split Cayley hexagon -------------------------------------------------------


def _to_tits_coords(space, vecs):
    """Map host vectors to the 7 coordinates of the reference quadric.

    The vectors lie along the last axis of a uint8 array.  Reference
    quadric: X0X4 + X1X5 + X2X6 - X3^2 = 0.  For O(7,q) hosts the map is
    linear with negations; for Sp(6,q), q even, the vector is lifted to the
    quadric by solving for the X3 coordinate (unique square root).
    """
    f = space.field
    if space.family == "O7":
        # (x0,x1)(x2,x3)(x4,x5) hyperbolic pairs, x6^2 square term
        X = vecs[..., [0, 2, 4, 6, 1, 3, 5]]
        X[..., 4:] = f.NEG[X[..., 4:]]
        return X
    # Sp6, q even: symplectic coords pair i with i+3, and X3 goes in between
    X = np.insert(vecs, 3, 0, axis=-1)
    prod = _quad_values(f, ((0, 3, 1), (1, 4, 1), (2, 5, 1)), vecs, vecs)
    # char 2: x -> x^(q/2) inverts squaring, which has order h on GF(2^h)
    sqrt = np.array([f.pow(x, f.q // 2) for x in range(f.q)], dtype=np.uint8)
    X[..., 3] = sqrt[prod]
    if (f.MUL[X[..., 3], X[..., 3]] != prod).any():
        raise GeometryError("square root failed in characteristic 2")
    return X


_HEXAGON_EQS = (
    # (i, j, k, l): Plucker coordinate p_ij must equal p_kl
    ((1, 2), (3, 4)),
    ((5, 4), (3, 2)),
    ((2, 0), (3, 5)),
    ((6, 5), (3, 0)),
    ((0, 1), (3, 6)),
    ((4, 6), (3, 1)),
)


def hexagon_lines(space):
    """Line set of the split Cayley hexagon in O(7,q), q odd, or Sp(6,q), q even.

    Lines are filtered by the six linear conditions on their Plucker
    coordinates in the reference quadric frame; the result is validated by
    its inner distribution, so any convention error fails loudly.
    """
    if not (space.family == "O7" or (space.family == "Sp6" and space.q % 2 == 0)):
        raise ValueError("the hexagon lives in O7 (odd q) or Sp6 (even q)")
    f = space.field
    tits = _to_tits_coords(space, space.line_basis_arr)
    u, v = tits[:, 0], tits[:, 1]

    def plucker(i, j):
        return f.SUB[f.MUL[u[:, i], v[:, j]], f.MUL[u[:, j], v[:, i]]]

    on = np.ones(space.n_lines, dtype=bool)
    for a, b in _HEXAGON_EQS:
        on &= plucker(*a) == plucker(*b)
    q = space.q
    y = make_lineset(space, np.flatnonzero(on).tolist(), name="hexagon_lines")
    want = (q**3 + 1) * space.theta
    if len(y) != want:
        raise GeometryError(f"hexagon has {len(y)} lines, expected {want}")
    a = (1, q * q + q, 0, q**4 + q**3, q**5)
    _check_inner(space, y, a, "hexagon lines")
    _check_support(space, y, {"20"}, "hexagon lines")
    return y


# -- two-weight point sets and strongly regular graphs -------------------------------


@dataclass(frozen=True)
class TwoWeightProfile:
    values: dict
    big: Fraction
    small: Fraction
    m: Fraction
    dichotomy_ok: bool


def covered_points(space, y):
    return tuple(np.unique(space.line_points_arr[_as_indices(space, y)]).tolist())


def two_weight_profile(space, y):
    """Hyperplane census of the points covered by pairwise-opposite lines.

    For a family of pairwise non-intersecting lines orthogonal to V10 in
    Sp(6,q), U(7,q) or O-(8,q), every ambient hyperplane contains either
    m(q+1)(q^{e+1}+1) covered points or q^{e+1} fewer, the smaller value
    exactly for degenerate hyperplanes whose radical is covered.
    """
    if space.family not in ("Sp6", "U7", "O8minus"):
        raise ValueError("two-weight profiles need Sp6, U7 or O8minus")
    idx = _as_indices(space, y)
    if any(inner_distribution(space, idx)[1:3]):
        raise ValueError("lines must be pairwise non-intersecting")
    tables = tables_for_space(space)
    aq = dual_distribution(space, tables, idx)
    if aq[1] != 0:
        raise ValueError("the line set must be orthogonal to V10")
    q, s = space.q, space.qe
    m = Fraction(len(idx), s * q * q + 1)
    big = m * (q + 1) * (s * q + 1)
    small = big - s * q

    cov = covered_points(space, y)
    duals = ambient_projective_points(space)
    counts = (form_values(space.form, space.pts_arr[list(cov)], duals) == 0).sum(axis=0)
    # only a degenerate hyperplane, u a point, can have a covered radical
    radical_covered = np.isin(space.point_indices(duals), cov).tolist()

    values = {}
    dichotomy_ok = True
    for count, covered in zip(counts.tolist(), radical_covered):
        c = Fraction(count)
        values[c] = values.get(c, 0) + 1
        if c != (small if covered else big):
            dichotomy_ok = False
    if not set(values) <= {big, small}:
        raise GeometryError(f"hyperplane profile {sorted(values)} is not two-valued as expected")
    return TwoWeightProfile(values=values, big=big, small=small, m=m, dichotomy_ok=dichotomy_ok)


def srg_parameters(m, q, e2):
    """Strongly regular graph parameters (v, k, r, s) from a two-weight set."""
    from .spaces import q_to_e_power

    s_pow = q_to_e_power(q, e2)
    m = Fraction(m)
    if m <= 0 or (m * (s_pow * q * q + 1)).denominator != 1:
        raise ValueError("m must be positive with m(q^{e+2}+1) integral")
    v = s_pow * s_pow * q**4
    k = m * (s_pow * q * q + 1) * (q * q - 1)
    r = m * (q * q - 1)
    s_eig = r - s_pow * q * q
    mu = k + r * s_eig
    lam = mu + r + s_eig
    if k.denominator != 1 or mu.denominator != 1 or mu < 0 or lam < -1:
        raise ValueError("parameters fail basic strong regularity feasibility")
    return (int(v), int(k), int(r), int(s_eig))


def two_weight_graph(space, y):
    """Explicit SRG on the ambient vectors: x ~ y iff <x - y> is covered.

    Only sensible for tiny ambient spaces (q^d vectors).
    """
    f = space.field
    d = space.d
    if f.q**d > 4096:
        raise ValueError("ambient vector space too large for an explicit graph")
    # covered[-1] is False, for the zero vector, which spans no point
    covered = np.zeros(len(space.pts_arr) + 1, dtype=np.int64)
    covered[list(covered_points(space, y))] = 1
    # the vectors in base-q code order, so a difference is read by its code
    vectors = np.array(list(itertools.product(range(f.q), repeat=d)), dtype=np.uint8)
    covered = covered[space.point_indices(vectors)]
    adj = np.empty((len(vectors), len(vectors)), dtype=np.int64)
    # row blocks bound the n x block x d differences
    for lo in range(0, len(vectors), 256):
        diffs = f.SUB[vectors[lo : lo + 256, None], vectors[None]]
        adj[lo : lo + 256] = covered[np.ravel_multi_index(np.moveaxis(diffs, -1, 0), (f.q,) * d)]
    return adj


def srg_check(adj, v, k, r, s):
    """Exact strong-regularity test of an adjacency matrix against (v,k,r,s)."""
    if adj.shape != (v, v):
        return False
    if not (adj.sum(axis=1) == k).all():
        return False
    lam = k + r * s + r + s
    mu = k + r * s
    sq = adj @ adj
    want = k * np.eye(v, dtype=np.int64) + lam * adj + mu * (1 - np.eye(v, dtype=np.int64) - adj)
    return bool((sq == want).all())
