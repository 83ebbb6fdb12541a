"""Exact linear algebra: RREF canonical forms over GF(q), and fraction-free
solving over the rationals.

Vectors are tuples of field element codes (ints).  A subspace is identified
globally by its reduced row echelon basis; equal subspaces have byte-identical
canonical forms, which is what the geometry layer hashes on.
"""

from __future__ import annotations


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
    """Exact X with mat . X = rhs, as (N, d) with X = N / d and d > 0; None if singular.

    mat is a square integer matrix and rhs an integer matrix with one row per
    row of mat; N is the list of the rows of d X, all integers.  Fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968): after each
    step every entry is a minor of the augmented matrix, so each division by
    the previous pivot is exact, and the last pivot is d = +-det(mat).
    """
    k = len(mat)
    aug = [[*row, *extra] for row, extra in zip(mat, rhs)]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(k):
            if r != col:
                c = aug[r][col]
                aug[r] = [(p * x - c * y) // prev for x, y in zip(aug[r], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [[sign * x for x in row[k:]] for row in aug], sign * prev
