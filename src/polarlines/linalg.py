"""Exact linear algebra: RREF canonical forms and subspaces over GF(q), and
Gauss-Jordan solving over the rationals.

Vectors are tuples of field element codes (ints).  A subspace is identified
globally by its reduced row echelon basis; equal subspaces have byte-identical
canonical forms, which is what the geometry layer hashes on.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows, field):
    """Reduced row echelon form; returns (basis_rows, pivot_columns).

    Zero rows are dropped, so len(basis_rows) is the rank.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    add, mul, neg, inv = field.ADD, field.MUL, field.NEG, field.INV
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, len(mat)):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        piv = int(inv[mat[prow][col]])
        if piv != 1:
            mat[prow] = [int(mul[piv, x]) for x in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col]:
                c = int(neg[mat[r][col]])
                row_r, row_p = mat[r], mat[prow]
                for j in range(col, ncols):
                    if row_p[j]:
                        row_r[j] = int(add[row_r[j], mul[c, row_p[j]]])
        pivots.append(col)
        prow += 1
        if prow == len(mat):
            break
    basis = tuple(tuple(r) for r in mat[:prow])
    return basis, tuple(pivots)


class Subspace:
    """A subspace of GF(q)^d in canonical RREF form."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, rows=()):
        self.field = field
        self.ambient = ambient
        for r in rows:
            if len(r) != ambient:
                raise ValueError("row length does not match ambient dimension")
        self.basis, self.pivots = rref(rows, field)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        """Membership test via elimination against the RREF basis."""
        f = self.field
        v = list(vec)
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                cneg = f.neg(c)
                v = [f.add(x, f.mul(cneg, y)) for x, y in zip(v, row)]
        return not any(v)

    def vectors(self):
        """All q^dim vectors of the subspace (small dims only)."""
        f = self.field
        out = [(0,) * self.ambient]
        for row in self.basis:
            nxt = []
            for v in out:
                for c in range(f.q):
                    nxt.append(f.add_vec(v, f.scale(c, row)))
            out = nxt
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def rref_canonicalize(rows, field, ambient=None):
    """Canonical Subspace spanned by the given rows."""
    rows = [tuple(r) for r in rows]
    if ambient is None:
        if not rows:
            raise ValueError("ambient dimension required for an empty row list")
        ambient = len(rows[0])
    return Subspace(field, ambient, rows)


def subspace_sum(a, b):
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.field, a.ambient, a.basis + b.basis)


def intersect(a, b):
    """Intersection via the Zassenhaus trick; returns (subspace, dim)."""
    if a.ambient != b.ambient or a.field is not b.field:
        raise ValueError("ambient dimension mismatch")
    d = a.ambient
    stacked = [tuple(r) + tuple(r) for r in a.basis]
    stacked += [tuple(r) + (0,) * d for r in b.basis]
    echelon, pivots = rref(stacked, a.field)
    inter_rows = [r[d:] for r, p in zip(echelon, pivots) if p >= d]
    sub = Subspace(a.field, d, inter_rows)
    if sub.dim != a.dim + b.dim - subspace_sum(a, b).dim:
        raise RuntimeError("intersection violates dim(A + B) + dim(A & B) = dim A + dim B")
    return sub, sub.dim


def kernel(rows, field, ncols):
    """Basis of {x : rows . x^T = 0} as a canonical Subspace."""
    basis, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    neg = field.NEG
    out = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, piv in zip(basis, pivots):
            v[piv] = int(neg[row[fc]])
        out.append(tuple(v))
    return Subspace(field, ncols, out)


def solve_rational(mat, rhs):
    """Exact X with mat . X = rhs by Gauss-Jordan over the rationals; None if singular.

    mat is square and rhs has one row per row of mat; returns the rows of X.
    """
    k = len(mat)
    aug = [[Fraction(x) for x in (*row, *extra)] for row, extra in zip(mat, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]
