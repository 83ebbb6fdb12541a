"""Exact linear algebra: RREF canonical forms over GF(q), and Gauss-Jordan
solving over the rationals.

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
