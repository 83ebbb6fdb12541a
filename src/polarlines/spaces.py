"""Finite classical rank-3 polar spaces: forms, enumeration, pair relations.

Six families are supported (hyperbolic O+(6,q), parabolic O(7,q) for odd q,
elliptic O-(8,q), symplectic Sp(6,q), Hermitian U(6,q) and U(7,q) for square
q).  A built space enumerates all totally isotropic 1-, 2- and 3-spaces as
canonical RREF subspaces, indexed in a deterministic lexicographic order, and
classifies every ordered pair of lines into one of the five relations

    00: L = M
    10: dim(L cap M) = 1 and dim(L cap M^perp) = 2
    11: dim(L cap M) = 1 and dim(L cap M^perp) = 1
    20: dim(L cap M) = 0 and dim(L cap M^perp) = 1
    21: dim(L cap M) = 0 and dim(L cap M^perp) = 0

which are the classes of a 5-class association scheme on the lines.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
from functools import cached_property

import numpy as np

from .gf import MAX_Q, field_for_order
from .linalg import rref

REL_TAGS = ("00", "10", "11", "20", "21")


def bare_tag(tag):
    """A relation or eigenspace tag given as "R10", "r10" or "10", as "10".

    One leading R at most is dropped, so "RR10" stays an unknown tag.
    """
    return str(tag).upper().removeprefix("R")


FAMILIES = {
    # family: (ambient dim, 2e, kind)
    "O6plus": (6, 0, "orthogonal"),
    "U6": (6, 1, "hermitian"),
    "Sp6": (6, 2, "symplectic"),
    "O7": (7, 2, "orthogonal"),
    "U7": (7, 3, "hermitian"),
    "O8minus": (8, 4, "orthogonal"),
}

SPACE_FORMAT_VERSION = 2
DEFAULT_MAX_LINES = 20_000


class GeometryError(RuntimeError):
    """Internal consistency failure: the enumerated geometry contradicts itself."""


def q_to_e_power(q, e2):
    """q^e as an exact integer (e = e2/2); requires square q for odd e2."""
    f = field_for_order(q)
    exp2 = f.h * e2
    if exp2 % 2 != 0:
        raise ValueError(f"half-integer e requires square q, got q={q}")
    return f.p ** (exp2 // 2)


def _anisotropic_binary(field):
    """Lexicographically first (c1, c0) with x^2 + c1*x*y + c0*y^2 anisotropic.

    Q(a v) = a^2 Q(v), so it is enough that Q vanishes at no projective point.
    """
    P = np.array(_projective_points(field, 2), dtype=np.uint8)
    for c1, c0 in itertools.product(range(field.q), range(1, field.q)):
        if _quad_values(field, ((0, 0, 1), (0, 1, c1), (1, 1, c0)), P, P).all():
            return c1, c0
    raise GeometryError("no anisotropic binary quadratic form found")


def _quad_values(field, terms, X, Y):
    """The sum of c * x_i * y_j over the (i, j, c) terms, for vectors along the last axis.

    X and Y are uint8 arrays of one shape; the result has that shape without
    its last axis.  With Y = X and a quadratic form's terms it is Q(x); with
    the nonzero Gram entries it is B(x, y).
    """
    acc = np.zeros(np.shape(X)[:-1], dtype=np.uint8)
    for i, j, c in terms:
        acc = field.axpy(acc, c, field.times(X[..., i], Y[..., j]))
    return acc


class FormSpec:
    """A fixed standard sesquilinear/quadratic form for one family over GF(q)."""

    def __init__(self, family, q):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        d, e2, kind = FAMILIES[family]
        field = field_for_order(q)
        if kind == "hermitian" and field.h % 2 != 0:
            raise ValueError(f"{family} requires square q, got q={q}")
        if family == "O7" and field.p == 2:
            raise ValueError(
                "O7 requires odd q; for even q build Sp6, which has the same line geometry"
            )
        self.family = family
        self.q = q
        self.field = field
        self.d = d
        self.e2 = e2
        self.kind = kind

        gram = [[0] * d for _ in range(d)]
        quad = []
        if kind == "symplectic":
            for i in range(3):
                gram[i][3 + i] = 1
                gram[3 + i][i] = field.neg(1)
        elif kind == "hermitian":
            for i in range(d):
                gram[i][i] = 1
        else:
            npairs = d // 2
            for i in range(npairs):
                quad.append((2 * i, 2 * i + 1, 1))
            if family == "O7":
                quad.append((6, 6, 1))
            elif family == "O8minus":
                # replace the last hyperbolic pair by a fixed anisotropic plane
                quad.pop()
                c1, c0 = _anisotropic_binary(field)
                quad.extend([(6, 6, 1), (6, 7, c1), (7, 7, c0)])
            # polarization of the quadratic form
            for (i, j, c) in quad:
                if i == j:
                    gram[i][i] = field.add(gram[i][i], field.add(c, c))
                else:
                    gram[i][j] = field.add(gram[i][j], c)
                    gram[j][i] = field.add(gram[j][i], c)
        self.gram = tuple(tuple(r) for r in gram)
        self.quad = tuple(quad)

        if len(rref(self.gram, field)[0]) != d:
            raise GeometryError(f"{family}/q={q}: bilinear form is degenerate")

    def bilinear(self, u, v):
        """B(u, v), with conjugation on the second argument for Hermitian forms."""
        f = self.field
        if self.kind == "hermitian":
            v = tuple(f.conj(x) for x in v)
        acc = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.gram[i]
                for j, vj in enumerate(v):
                    if vj and row[j]:
                        acc = f.add(acc, f.mul(ui, f.mul(row[j], vj)))
        return acc

    def _bilinear_rows(self, X, Y):
        """B(x_k, y_k) for the vectors x_k of X and y_k of Y along their last axis."""
        f = self.field
        if self.kind == "hermitian":
            Y = f.CONJ[Y]
        terms = [(i, j, c) for i, row in enumerate(self.gram) for j, c in enumerate(row) if c]
        return _quad_values(f, terms, X, Y)

    def singular_rows(self, X):
        """Boolean mask of the singular rows of an n x d uint8 array.

        A row v is singular when Q(v) = 0 for an orthogonal form and when
        B(v, v) = 0 for a Hermitian one; every row is for a symplectic form.
        The zero row passes too: whether a row is a vector is the caller's check.
        """
        X = np.asarray(X, dtype=np.uint8).reshape(-1, self.d)
        if self.kind == "symplectic":
            return np.ones(len(X), dtype=bool)
        if self.kind == "orthogonal":
            return _quad_values(self.field, self.quad, X, X) == 0
        return self._bilinear_rows(X, X) == 0


def _projective_points(field, d):
    """All projective points of GF(q)^d, leading coordinate 1, in lex order."""
    q = field.q
    pts = []
    for lead in range(d):
        for tail in itertools.product(range(q), repeat=d - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def _table_matmul(field, A, M):
    """(A . M) over GF(q) for uint8 arrays A (n,d) and M (d,m), one kernel call per column of A."""
    out = np.zeros((A.shape[0], M.shape[1]), dtype=np.uint8)
    for l in range(A.shape[1]):
        col = A[:, l]
        if col.any():
            out = field.axpy(out, col[:, None], M[l][None, :])
    return out


def form_values(form, X, Y):
    """The matrix of B(x_i, y_j) over GF(q), for row vectors x_i of X and y_j of Y.

    Table-driven: build_space reads the perp matrix of the points off
    form_values(form, pts, pts) == 0.
    """
    f = form.field
    X = np.asarray(X, dtype=np.uint8).reshape(-1, form.d)
    Y = np.asarray(Y, dtype=np.uint8).reshape(-1, form.d)
    if form.kind == "hermitian":
        Y = f.CONJ[Y]
    gram = np.array(form.gram, dtype=np.uint8)
    return _table_matmul(f, X, _table_matmul(f, gram, Y.T))


def _vector_indices(field, vectors, rows):
    """The index in vectors of each row of rows up to a nonzero scalar, else -1.

    vectors holds one vector of each of some distinct points, one per row;
    rows lie along the last axis of a uint8 array of any shape.  A dense
    table over all q^d base-q codes maps every nonzero multiple of each of
    the vectors to its index, so each row is looked up by its own code with
    no normalization.  The zero row, code 0, and a row whose point is not
    among the vectors give -1.
    """
    vectors, rows = np.asarray(vectors, dtype=np.uint8), np.asarray(rows, dtype=np.uint8)
    shape = (field.q,) * rows.shape[-1]
    # q^d is at most about q times the line count in every family, so the
    # table is tiny next to the n x n label table
    table = np.full(field.q ** rows.shape[-1], -1, dtype=np.int32)
    index = np.arange(len(vectors), dtype=np.int32)
    for c in range(1, field.q):
        table[np.ravel_multi_index(field.times(c, vectors).T, shape)] = index
    return table[np.ravel_multi_index(np.moveaxis(rows, -1, 0), shape)]


def _span_points(field, points, bases):
    """Point indices of the spans of many RREF bases of one dimension r, in coefficient order.

    The normalized coefficient vectors of GF(q)^r, in _projective_points
    order, times an RREF basis are the normalized vectors of its span, one
    per point, each looked up among the points by _vector_indices.  Raises
    ValueError if a basis is not in RREF or its span holds a vector that is
    not a point.
    """
    bases = np.asarray(bases, dtype=np.uint8)
    r = bases.shape[1]
    pivots = (bases != 0).argmax(axis=2)
    at_pivots = np.take_along_axis(bases, np.repeat(pivots[:, None], r, axis=1), axis=2)
    if not ((np.diff(pivots, axis=1) > 0).all() and (at_pivots == np.eye(r)).all()):
        raise ValueError("a line or plane basis is not in reduced row echelon form")
    coeffs = np.array(_projective_points(field, r), dtype=np.uint8)
    vectors = np.zeros((len(bases), len(coeffs), bases.shape[2]), dtype=np.uint8)
    for k in range(r):
        vectors = field.axpy(vectors, coeffs[:, k, None], bases[:, None, k])
    pos = _vector_indices(field, points, vectors)
    if (pos < 0).any():
        raise ValueError("a line or plane basis spans a vector that is not a point of the space")
    return pos


def _check_increasing(bases):
    """Raise ValueError unless the rows' bytes strictly increase.

    Each pair of neighbours is compared at its first differing byte; equal
    neighbours have none, and fail too.
    """
    flat = bases.reshape(len(bases), -1)
    a, b = flat[:-1], flat[1:]
    first = (a != b).argmax(axis=1)[:, None]
    if not (np.take_along_axis(a, first, 1) < np.take_along_axis(b, first, 1)).all():
        raise ValueError("line or plane bases are not in strictly increasing order")


def _pair_lines(n_points, line_points):
    """points x points int32 array: the line through each collinear pair, else -1.

    The diagonal is -1 too, since a point alone names no line.
    """
    lines = np.asarray(line_points)
    pair = np.full((n_points, n_points), -1, dtype=np.int32)
    index = np.arange(len(lines), dtype=np.int32)
    pair[lines[:, :, None], lines[:, None, :]] = index[:, None, None]
    np.fill_diagonal(pair, -1)
    return pair


def _plane_lines(field, pair, plane_pos):
    """Each plane's ascending line indices, from its span points in coefficient order.

    The lines of PG(2,q) are fixed in coefficient space: each is {c : u.c = 0}
    for a dual point u, and its first two coefficient points name it.  So a
    plane's theta lines are the lines through those pairs of its points.
    Raises GeometryError if a pair is on no line or two pairs are on one.
    """
    coeffs = np.array(_projective_points(field, 3), dtype=np.uint8)
    on = _table_matmul(field, coeffs, coeffs.T) == 0
    two = np.nonzero(on)[1].reshape(len(coeffs), field.q + 1)[:, :2]
    lines = np.sort(pair[plane_pos[:, two[:, 0]], plane_pos[:, two[:, 1]]], axis=1)
    if (lines[:, 0] < 0).any() or (lines[:, 1:] == lines[:, :-1]).any():
        raise GeometryError("lines in a plane is not the predicted constant")
    return lines


def _transpose(members, n, per_object, what):
    """For each of n objects, the ascending indices of the rows of members that hold it.

    members is a 2-d array of object indices, and each object must lie in
    exactly per_object rows; otherwise this raises GeometryError naming what.
    Returns an n x per_object array.
    """
    flat = members.ravel()
    if (np.bincount(flat, minlength=n) != per_object).any():
        raise GeometryError(f"{what} is not the predicted constant")
    # a stable sort keeps each object's rows in ascending order
    return (np.argsort(flat, kind="stable") // members.shape[1]).reshape(n, per_object)


def _tuples(arr):
    """The rows of a 2-d array as tuples of ints."""
    return [tuple(r) for r in arr.tolist()]


# the relation index at [s][t], s = dim(L cap M) and t = dim(L cap M^perp);
# 255 where no pair of lines has that (s, t)
_RELATION_OF_ST = np.array([[4, 3, 255], [255, 2, 1], [255, 255, 0]], dtype=np.uint8)


class PolarSpace:
    """An enumerated rank-3 polar space with its line-pair relation table."""

    def __init__(self, form, points, line_bases, plane_bases):
        """A space from its points and the canonical bases of its lines and planes.

        Each argument is a uint8 array, or anything np.asarray turns into one:
        points is n x d, and the bases are n x 2 x d and n x 3 x d.  The points
        must be normalized and in lexicographic order.  The line and plane
        bases must be RREF, totally isotropic and strictly increasing in the
        order of their bytes, as build_space writes them; otherwise this raises
        ValueError.  Every line's and every plane's point set comes from one
        bulk span pass over its bases.  Two distinct points are perpendicular
        exactly when a line joins them, so perp_points is read off the lines.
        The relation table, labels, is built from them on first use.
        """
        self.form = form
        self.family = form.family
        self.q = form.q
        self.e2 = form.e2
        self.field = form.field
        self.qe = q_to_e_power(self.q, self.e2)
        self.d = form.d

        self.pts_arr = np.ascontiguousarray(points, dtype=np.uint8)
        line_bases = np.ascontiguousarray(line_bases, dtype=np.uint8)
        plane_bases = np.ascontiguousarray(plane_bases, dtype=np.uint8)
        got = (len(self.pts_arr), len(line_bases), len(plane_bases))
        want = _predicted_counts(self.family, self.q)
        if got != want:
            raise GeometryError(f"{self.family}/q={self.q}: counts {got} != predicted {want}")

        spans = []
        for bases in (line_bases, plane_bases):
            _check_increasing(bases)
            spans.append(_span_points(self.field, self.pts_arr, bases))
            # all vectors of Sp(6,q) are isotropic, so a point set alone is no proof
            for a, b in itertools.combinations(range(bases.shape[1]), 2):
                if form._bilinear_rows(bases[:, a], bases[:, b]).any():
                    raise ValueError("a line or plane basis spans no totally isotropic subspace")
        self.line_points_arr, self.plane_points_arr = (np.sort(pos, axis=1) for pos in spans)

        # the validated uint8 bases
        self.line_basis_arr, self.plane_basis_arr = line_bases, plane_bases
        self.n_lines = len(line_bases)
        q, s = self.q, self.qe
        pair = _pair_lines(len(self.pts_arr), self.line_points_arr)
        self.perp_points = pair >= 0
        np.fill_diagonal(self.perp_points, True)
        self.plane_lines_arr = _plane_lines(self.field, pair, spans[1])
        self.point_lines_arr = _transpose(
            self.line_points_arr, len(self.pts_arr), (q + 1) * (s * q + 1), "lines through a point"
        )
        self.line_planes_arr = _transpose(
            self.plane_lines_arr, self.n_lines, s + 1, "planes through a line"
        )

        self.fingerprint = _fingerprint(self.form, line_bases)

    @cached_property
    def labels(self):
        """The n x n uint8 relation table of a built or a loaded space, built on first use."""
        return self._label_table()

    def _label_table(self):
        """n x n uint8 relation table, one exact gather-sum per row block.

        W^T is the points x lines table whose entry (p, M) is [p in M^perp] +
        (q+2) [p in M].  Row L of the table's code matrix is the sum of the
        q+1 rows of W^T at L's points, so entry (L, M) is t + (q+2) s, where
        s = |L cap M| and t = |L cap M^perp| count points.  Both are at most
        q+1, so the entry fixes (s, t), and it is at most (q+1)(q+3) <= 254:
        the sums are exact in uint8.  The five legal codes rise as 0 < 1 <
        q+3 < 2q+3 < (q+1)(q+3) for the relations 21, 20, 11, 10, 00, so a
        code's label is 4 minus the number of the upper four that it reaches,
        and a code is legal exactly when it equals one of the five.
        """
        q, n = self.q, self.n_lines
        if (q + 1) * (q + 3) > 254:
            raise GeometryError(f"q={q} is too large for the uint8 relation decode")
        upper = [t + (q + 2) * s for s, t in ((0, 1), (1, 1), (1, q + 1), (q + 1, q + 1))]
        lines, perp = self.line_points_arr, self.perp_points
        WT = np.ascontiguousarray((perp[lines[:, 0]] & perp[lines[:, 1]]).T, dtype=np.uint8)
        WT[lines, np.arange(n)[:, None]] += q + 2
        labels = np.empty((n, n), dtype=np.uint8)
        # a block of codes is decoded while it is still in cache
        block = max(1, 2**18 // max(n, 1))
        for lo in range(0, n, block):
            at = lines[lo : lo + block]
            codes = WT[at[:, 0]]
            for k in range(1, q + 1):
                codes += WT[at[:, k]]
            out = labels[lo : lo + block]
            out.fill(4)
            legal = codes == 0
            for c in upper:
                out -= codes >= c
                legal |= codes == c
            if not legal.all():
                i, j = np.argwhere(~legal)[0]
                s, t = divmod(int(WT[lines[lo + i], j].sum()), q + 2)
                raise GeometryError(
                    f"illegal (s,t) pair for lines {lo + i},{j}: s-count={s}, t-count={t}"
                )
        # symmetry over square tiles, each pair compared once, with no n x n transpose
        tiles = [slice(a, a + 256) for a in range(0, n, 256)]
        for k, ta in enumerate(tiles):
            for tb in tiles[k:]:
                if not (labels[ta, tb] == labels[tb, ta].T).all():
                    raise GeometryError("relation table is not symmetric")
        return labels

    # -- views, each built from its array on first use ---------------------------

    @cached_property
    def points(self):
        """Each point as a tuple of coordinates."""
        # besides tests, only perfbench/ reads this view; ROADMAP item 1b removes it
        return _tuples(self.pts_arr)

    @cached_property
    def line_points(self):
        """Each line's ascending point indices."""
        # besides tests, only perfbench/ reads this view; ROADMAP item 1b removes it
        return _tuples(self.line_points_arr)

    @cached_property
    def plane_lines(self):
        """Each plane's ascending line indices."""
        # besides tests, only perfbench/ reads this view; ROADMAP item 1b removes it
        return _tuples(self.plane_lines_arr)

    @cached_property
    def point_lines(self):
        """The ascending indices of the lines through each point."""
        # besides tests, only perfbench/ reads this view; ROADMAP item 1b removes it
        return _tuples(self.point_lines_arr)

    @cached_property
    def line_basis(self):
        """Each line's RREF basis as a tuple of row tuples."""
        # besides tests, only perfbench/ reads this view; ROADMAP item 1b removes it
        return [tuple(map(tuple, b)) for b in self.line_basis_arr.tolist()]

    @cached_property
    def plane_basis(self):
        """Each plane's RREF basis as a tuple of row tuples."""
        # besides tests, only perfbench/ reads this view; ROADMAP item 1b removes it
        return [tuple(map(tuple, b)) for b in self.plane_basis_arr.tolist()]

    # -- lookups -----------------------------------------------------------------

    def point_indices(self, vectors):
        """The point of each vector along the last axis, by _vector_indices; -1 if none."""
        return _vector_indices(self.field, self.pts_arr, vectors)

    def basis_indices(self, bases):
        """For each basis, the line (2 rows) or plane (3 rows) it is the RREF basis of, or -1.

        Rows are compared up to a nonzero scalar, as points.  So an RREF
        basis is found exactly when it spans a line or a plane.
        Each row of a totally isotropic basis is a point, and the point indices
        of a basis's rows combine into one int64 code, base the point count.
        The points are in lexicographic order, so the codes of the canonical
        bases ascend, and each given code is searched among them.
        """
        bases = np.asarray(bases, dtype=np.uint8)
        known = {2: self.line_basis_arr, 3: self.plane_basis_arr}[bases.shape[1]]
        weights = len(self.pts_arr) ** np.arange(known.shape[1] - 1, -1, -1, dtype=np.int64)
        # the given and the canonical bases share one lookup table
        rows = self.point_indices(np.concatenate([bases, known]))
        codes, known_codes = np.split(rows @ weights, [len(bases)])
        pos = np.searchsorted(known_codes, codes).clip(max=len(known) - 1)
        found = (rows[: len(bases)] >= 0).all(axis=1) & (known_codes[pos] == codes)
        return np.where(found, pos, -1)

    # -- queries ---------------------------------------------------------------

    @property
    def theta(self):
        return self.q * self.q + self.q + 1

    def classify_pair(self, li, mi):
        """Relation tag of an ordered line pair, from the precomputed table."""
        return REL_TAGS[int(self.labels[li, mi])]

    def classify_pair_geometric(self, li, mi):
        """Relation tag of one line pair, recomputed by classify_pairs_geometric."""
        return REL_TAGS[self.classify_pairs_geometric([li], [mi])[0]]

    def classify_pairs_geometric(self, li, mi):
        """Relation indices of the line pairs (li[k], mi[k]), from the bases and the form.

        Independent of the table and of the incidence.  M reduced modulo the
        RREF basis of L is a 2-row block M' that vanishes at L's pivots, so
        s = dim(L cap M) = 2 - rank M'.  The rank of a 2-row block is 0 when
        it is zero, and 2 when a 2 x 2 minor x_0a x_1b - x_0b x_1a is nonzero.
        L cap M^perp is the kernel on L of x -> (B(x, m1), B(x, m2)), so
        t = dim(L cap M^perp) = 2 - rank G, with G[i][j] = B(l_i, m_j).  An
        illegal (s, t) raises GeometryError naming the first such pair.
        """
        f = self.field
        li, mi = np.asarray(li), np.asarray(mi)
        L, M = self.line_basis_arr[li], self.line_basis_arr[mi]
        rows = np.arange(len(L))
        reduced = M
        for r, pivot in enumerate((L != 0).argmax(axis=2).T):
            coeff = M[rows, :, pivot]
            reduced = f.axpy(reduced, f.NEG[coeff[:, :, None]], L[:, None, r])
        minors = f.times(reduced[:, 0, :, None], reduced[:, 1, None, :])
        s = 2 - reduced.any(axis=(1, 2)) - (minors != minors.transpose(0, 2, 1)).any(axis=(1, 2))
        G = self.form._bilinear_rows(*np.broadcast_arrays(L[:, :, None], M[:, None]))
        det = f.times(G[:, 0, 0], G[:, 1, 1]) != f.times(G[:, 0, 1], G[:, 1, 0])
        t = 2 - G.any(axis=(1, 2)) - det
        rel = _RELATION_OF_ST[s, t]
        if (rel == 255).any():
            k = int((rel == 255).argmax())
            raise GeometryError(f"illegal (s,t)=({s[k]},{t[k]}) for lines {li[k]},{mi[k]}")
        return rel

    def lines_inside(self, points):
        """Indices of the lines all of whose points lie in a point set.

        The set is given as point indices or as a boolean mask over the points.
        """
        inside = np.zeros(len(self.pts_arr), dtype=bool)
        inside[list(points)] = True
        return np.flatnonzero(inside[self.line_points_arr].all(axis=1)).tolist()


def _predicted_counts(family, q):
    """(points, lines, planes) of the space, from the closed forms."""
    s = q_to_e_power(q, FAMILIES[family][1])
    theta = q * q + q + 1
    return (
        (s * q * q + 1) * theta,
        (s * q + 1) * (s * q * q + 1) * theta,
        (s + 1) * (s * q + 1) * (s * q * q + 1),
    )


def predicted_line_count(family, q):
    return _predicted_counts(family, q)[1]


def build_space(family, q, max_lines=DEFAULT_MAX_LINES):
    """Enumerate the polar space of the given family over GF(q).

    The RREF basis of a totally isotropic r-space is r of its points in
    echelon position: their leading positions increase, and each is zero at
    the others' leading positions.  Conversely, r pairwise perpendicular
    points in echelon position are the RREF basis of the totally isotropic
    space they span.  So each line is one pair and each plane one triple of
    such points, read off the perp matrix with no rref call.  The points are
    in lexicographic order, so the row-major order of np.nonzero is already
    the order of the bases' bytes.
    """
    form = FormSpec(family, q)
    n_pred = predicted_line_count(family, q)
    if n_pred > max_lines:
        raise ValueError(
            f"{family}/q={q} has {n_pred} lines, over the enumeration budget of {max_lines}"
        )
    pts = _space_points(form)
    perp = form_values(form, pts, pts) == 0
    # follows[i, j]: j may come after i in an RREF basis of points, the two
    # perpendicular, j's leading position past i's and i zero at it
    lead = (pts != 0).argmax(axis=1)
    follows = perp & (lead[:, None] < lead) & (pts[:, lead] == 0)
    a, b = np.nonzero(follows)
    line, c = np.nonzero(follows[a] & follows[b])
    line_bases = np.stack((pts[a], pts[b]), axis=1)
    plane_bases = np.stack((pts[a[line]], pts[b[line]], pts[c]), axis=1)
    return PolarSpace(form, pts, line_bases, plane_bases)


def _space_points(form):
    """The points of the space: its singular normalized vectors, in lexicographic order."""
    candidates = np.array(_projective_points(form.field, form.d), dtype=np.uint8)
    return candidates[form.singular_rows(candidates)]


def _fingerprint(form, line_bases):
    """Digest of the form and the n x 2 x d uint8 array of line bases, in index order."""
    h = hashlib.sha256()
    f = form.field
    # the salt stays "v1" while SPACE_FORMAT_VERSION moves: the digest names the
    # space, not the cache layout, and set files, tests and benchmark oracles pin it
    h.update(f"polarlines-space-v1|{form.family}|p{f.p}|h{f.h}|e2{form.e2}".encode())
    h.update(line_bases.tobytes())
    return h.hexdigest()[:16]


# -- cache file format --------------------------------------------------------


def save_space(space, path):
    """Write the space cache file: a JSON header, the points and the canonical bases.

    The points and the line and plane bases are in index order, each the
    base64 text of its uint8 array's C-order bytes.  The relation table goes
    to a labels sidecar that no load reads.
    """
    f = space.field
    doc = {
        "format_version": SPACE_FORMAT_VERSION,
        "family": space.family,
        "p": f.p,
        "h": f.h,
        "e2": space.e2,
        "counts": {
            "points": len(space.pts_arr),
            "lines": space.n_lines,
            "planes": len(space.plane_basis_arr),
        },
        "fingerprint": space.fingerprint,
        "points": _encoded(space.pts_arr),
        "lines": _encoded(space.line_basis_arr),
        "planes": _encoded(space.plane_basis_arr),
    }
    path = str(path)
    # written only for the benchmark harness: perfbench/run.py's _fill_cache renames
    # it and perfbench/tracer.py's _save_info sizes it; ROADMAP item 2b drops all three
    _write_atomically(path + ".labels.npy", lambda fh: np.save(fh, space.labels))
    _write_atomically(path, lambda fh: fh.write(json.dumps(doc).encode()))


def _write_atomically(path, write):
    """Write a file through write(fh) into a temporary sibling, then rename it over path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_space(path):
    """Reload a cached space; indices are bit-exact with the original build.

    The document's shape, fingerprint, counts and points are checked before
    any geometry is derived from it, and a malformed, corrupt or stale file
    raises ValueError.  No labels sidecar is read: the space builds its
    relation table from the bases on first use, as a built one does.
    """
    path = str(path)
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("space cache must hold a JSON object")
    if doc.get("format_version") != SPACE_FORMAT_VERSION:
        raise ValueError(f"unsupported space cache version {doc.get('format_version')!r}")
    family, p, h = doc.get("family"), doc.get("p"), doc.get("h")
    if not (isinstance(family, str) and type(p) is type(h) is int and 1 < p and 0 < h <= MAX_Q):
        raise ValueError("space cache has a malformed family or field")
    if p**h > MAX_Q:
        raise ValueError(f"unsupported field: q={p}^{h}")
    form = FormSpec(family, p**h)
    n_points, n_lines, n_planes = _predicted_counts(family, form.q)
    points = _cached_rows(doc, "points", form, (n_points,))
    lines = _cached_rows(doc, "lines", form, (n_lines, 2))
    planes = _cached_rows(doc, "planes", form, (n_planes, 3))
    if _fingerprint(form, lines) != doc.get("fingerprint"):
        raise ValueError("space cache fingerprint mismatch; file corrupt or stale")
    counts = doc.get("counts")
    if not isinstance(counts, dict) or (n_points, n_lines, n_planes) != tuple(
        counts.get(k) for k in ("points", "lines", "planes")
    ):
        raise ValueError("space cache counts mismatch; file corrupt or stale")
    if not np.array_equal(points, _space_points(form)):
        raise ValueError("space cache points are not the points of the space")
    del doc  # freed before the geometry is derived, to lower the peak memory of a load
    return PolarSpace(form, points, lines, planes)


def _encoded(arr):
    """The base64 text of a uint8 array's C-order bytes."""
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _cached_rows(doc, key, form, shape):
    """doc[key], base64 text, as a uint8 array of the given shape + (d,) over GF(q).

    The decoded bytes are copied into a writable buffer, so a loaded space's
    arrays are writable like a built one's.
    """
    shape += (form.d,)
    try:
        arr = np.frombuffer(bytearray(base64.b64decode(doc.get(key), validate=True)), np.uint8)
    except (TypeError, ValueError):  # not text, not ASCII or not base64
        arr = None
    if arr is None or arr.size != np.prod(shape) or (arr >= form.q).any():
        raise ValueError(f"space cache has a missing or malformed {key!r} list")
    return arr.reshape(shape)
