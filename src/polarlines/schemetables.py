"""Exact eigenvalue tables of the 5-class line scheme and their verification.

P is the 5x5 integer eigenvalue matrix (rows indexed by eigenspaces, columns
by relations, both in the order 00, 10, 11, 20, 21) and Q = n * P^(-1) is the
dual eigenvalue matrix.  Everything is exact: P entries are integers (q^e is
an integer because the Hermitian families force square q), Q entries are
Fractions.  Q is computed twice, from the closed form and by inverting P, and
the two must agree entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .linalg import solve_rational
from .spaces import REL_TAGS, GeometryError, q_to_e_power


def p_matrix(q, e2):
    """Eigenvalue matrix P for parameters (q, e), rows 00,10,11,20,21."""
    s = q_to_e_power(q, e2)
    return (
        (1, q * (q + 1) * (s + 1), s * q * q * (q + 1), s * q**3 * (q + 1) * (s + 1), s * s * q**5),
        (1, s * q + q * q + q - 1, q * (s * q - 1), q * (s * q * q - s * q - s - q), -s * q**3),
        (1, -(s + 1), s * (q * q + 1), -s * q * q * (s + 1), s * s * q * q),
        (1, (q - 1) * (q + 1), -q * (q + 1), -(q - 1) * q * (q + 1), q**3),
        (1, -(s + 1), s - q, q * (s + 1), -s * q),
    )


def _q_matrix_closed_form(q, e2):
    """Dual eigenvalue matrix Q, rows = relations, columns = eigenspaces."""
    s = q_to_e_power(q, e2)
    F = Fraction
    theta = q * q + q + 1
    eta = s * q + q * q + q - 1
    nu = s * q * q + 1
    return (
        (
            F(1),
            F(s * q * theta * (s * q + 1), s + q),
            F(q * q * (q + 1) * nu, s + q),
            F(s * s * q * theta * nu, s + q * q),
            F(s * q**3 * theta * nu, s + q * q),
        ),
        (
            F(1),
            F(s * theta * eta * (s * q + 1), (q + 1) * (s + 1) * (s + q)),
            F(-q * nu, s + q),
            F((q - 1) * s * s * theta * nu, (s + 1) * (s + q * q)),
            F(-s * q * q * theta * nu, (q + 1) * (s + q * q)),
        ),
        (
            F(1),
            F(theta * (s * q - 1) * (s * q + 1), (q + 1) * (s + q)),
            F((q * q + 1) * nu, s + q),
            F(-s * theta * nu, s + q * q),
            F(q * theta * (s - q) * nu, (q + 1) * (s + q * q)),
        ),
        (
            F(1),
            # numerator polynomial is q^(e+2) - q^(e+1) - q^e - q, matching
            # Q[i][j] = m_j P[j][i] / v_i; eta here would break P.Q = n.I
            F(theta * (s * q + 1) * (s * q * q - s * q - s - q), q * (q + 1) * (s + 1) * (s + q)),
            F(-q * nu, s + q),
            F(-(q - 1) * s * theta * nu, q * (s + 1) * (s + q * q)),
            F(q * theta * nu, (q + 1) * (s + q * q)),
        ),
        (
            F(1),
            F(-theta * (s * q + 1), q * (s + q)),
            F((q + 1) * nu, q * (s + q)),
            F(theta * nu, q * (s + q * q)),
            F(-theta * nu, q * (s + q * q)),
        ),
    )


@dataclass(frozen=True)
class SchemeTables:
    q: int
    e2: int
    qe: int
    n: int
    P: tuple
    Q: tuple
    multiplicities: tuple

    @property
    def valencies(self):
        return self.P[0]


@lru_cache(maxsize=None)
def make_tables(q, e2):
    """Exact scheme tables for parameters (q, e = e2/2), built once per pair."""
    s = q_to_e_power(q, e2)
    n = (s * q + 1) * (s * q * q + 1) * (q * q + q + 1)
    P = p_matrix(q, e2)
    Q = _q_matrix_closed_form(q, e2)
    # n P^-1 = n N / d; a singular P gives no rows, which fails the comparison
    N, d = solve_rational(P, [[int(i == j) for j in range(5)] for i in range(5)]) or ((), 1)
    if Q != tuple(tuple(Fraction(n * x, d) for x in row) for row in N):
        raise RuntimeError(
            f"dual eigenvalue matrix mismatch at (q={q}, e2={e2}): closed form != n*P^-1"
        )
    mult = Q[0]
    if any(m.denominator != 1 or m <= 0 for m in mult):
        raise RuntimeError(f"multiplicities not positive integers at (q={q}, e2={e2})")
    if sum(mult) != n:
        raise RuntimeError(f"multiplicities do not sum to n at (q={q}, e2={e2})")
    if sum(P[0]) != n or any(sum(row) != 0 for row in P[1:]):
        raise RuntimeError(f"P row sums wrong at (q={q}, e2={e2})")
    return SchemeTables(
        q=q, e2=e2, qe=s, n=n, P=P, Q=Q, multiplicities=tuple(int(m) for m in mult)
    )


def tables_for_space(space):
    tables = make_tables(space.q, space.e2)
    if tables.n != space.n_lines:
        raise RuntimeError("line count disagrees with the scheme order")
    return tables


# -- randomized-exact verification against an enumerated space ----------------


def relation_products(space, Y):
    """Exact A_i Y for all five relations, as an int64 array of shape (5, n, m).

    Y is an n x m integer matrix, n = space.n_lines; the products come from
    the incidence arrays alone.  With N and K the line-point and line-plane
    incidences (q+1 points and s+1 planes on a line, lpp lines on a point)
    and T[M, p] = [M lies in p^perp], counting shared planes, shared points
    and the points of L in M^perp gives

        K K^T = (s+1) I + A_10,  N N^T = (q+1) I + A_10 + A_11,
        N T^T = (q+1) (I + A_10) + A_11 + A_20,  A_21 Y = sum(Y) - the other four.

    A line outside the hyperplane p^perp meets it in one point, so
    q T^T Y = N^T N N^T Y - (lpp-1) N^T Y - sum(Y); a remainder means the
    incidence is no polar space and raises GeometryError.  Each step is a
    fixed-width int64 gather-sum.  With B = max|Y|, that numerator's terms
    are at most (q+1) lpp^2 B, (lpp-1) lpp B and n B, and on a polar space
    every other partial sum is smaller, so B ((q+2) lpp^2 - lpp + n) >= 2^63
    raises OverflowError.
    """
    Y = np.asarray(Y, dtype=np.int64)
    n, q = space.n_lines, space.q
    if Y.ndim != 2 or len(Y) != n:
        raise ValueError(f"operand of shape {Y.shape} does not fit {n} lines")
    on_line, on_point = space.line_points_arr, space.point_lines_arr
    lpp = on_point.shape[1]
    top = max(int(Y.max(initial=0)), -int(Y.min(initial=0)))
    if top * ((q + 2) * lpp**2 - lpp + n) >= 2**63:
        raise OverflowError("operand too large for exact int64 relation products")
    col_sums = Y.sum(axis=0)
    A10 = _gather_sum(_gather_sum(Y, space.plane_lines_arr), space.line_planes_arr)
    A10 -= space.line_planes_arr.shape[1] * Y
    NtY = _gather_sum(Y, on_point)
    NNtY = _gather_sum(NtY, on_line)
    A11 = NNtY - (q + 1) * Y - A10
    TtY, rest = np.divmod(_gather_sum(NNtY, on_point) - (lpp - 1) * NtY - col_sums, q)
    if rest.any():
        raise GeometryError("incidence of no polar space: a perp count is not a multiple of q")
    A20 = _gather_sum(TtY, on_line) - (q + 1) * (Y + A10) - A11
    return np.stack([Y, A10, A11, A20, col_sums - Y - A10 - A11 - A20])


def _gather_sum(Y, rows):
    """For each row r of the index array rows, the sum of the rows of Y at r.

    The width of rows goes outermost, so each summand is one contiguous block:
    a sum over a middle axis of a few columns costs several times more.
    """
    return np.take(Y, rows.T, axis=0).sum(axis=0)


def integer_column(tables, j):
    """(L Q[:, j] as a list of ints, L), with L the least common denominator of the column.

    n E_j = sum_i Q[i][j] A_i, so the column scaled by L gives the integer
    projector nL E_j = sum_i (L Q[i][j]) A_i.
    """
    L = lcm(*(tables.Q[i][j].denominator for i in range(5)))
    return [int(tables.Q[i][j] * L) for i in range(5)], L


def _project(tables, j, AX):
    """(D * E_j X, D) from the relation products AX of an integer matrix X."""
    col, L = integer_column(tables, j)
    return sum(c * AiX for c, AiX in zip(col, AX)), tables.n * L


def verify_scheme(space, tables, k=5, seed=0x5EED):
    """Check A_i E_j x = P[j][i] E_j x exactly on k random integer vectors.

    Also checks that the projections sum back to x.  Returns a report dict;
    report["ok"] is True iff all 25 (relation, eigenspace) pairs pass on all
    vectors.  The k vectors and their five projections are stacked, so
    relation_products runs twice whatever k is, and the check reads the
    incidence arrays alone, never the relation table.
    """
    if tables.n != space.n_lines:
        raise ValueError("tables do not match the space")
    if k < 1:
        raise ValueError(f"verify_scheme needs at least one vector, got {k}")
    rng = np.random.default_rng(seed)
    n = space.n_lines
    X = np.stack([rng.integers(-9, 10, size=n) for _ in range(k)], axis=1).astype(np.int64)
    AX = relation_products(space, X)
    parts = [_project(tables, j, AX) for j in range(5)]
    AZ = relation_products(space, np.concatenate([Z for Z, _ in parts], axis=1))
    pair_ok = {
        (i, j): np.array_equal(AZ[i][:, j * k : (j + 1) * k], tables.P[j][i] * Z)
        for j, (Z, _) in enumerate(parts)
        for i in range(5)
    }
    D_all = lcm(*(D for _, D in parts))
    total = sum(Z * (D_all // D) for Z, D in parts)
    resolution_ok = np.array_equal(total, D_all * X)
    ok = resolution_ok and all(pair_ok.values())
    return {
        "ok": ok,
        "pairs": {
            (REL_TAGS[i], REL_TAGS[j]): pair_ok[(i, j)] for i in range(5) for j in range(5)
        },
        "resolution_of_identity": resolution_ok,
        "vectors": k,
        "seed": seed,
    }


def empirical_valencies(space):
    """Per-line relation counts A_i 1; raises if they are not constant over lines."""
    counts = relation_products(space, np.ones((space.n_lines, 1), dtype=np.int64))[..., 0].T
    first = counts[0]
    if not (counts == first).all():
        bad = int(np.nonzero((counts != first).any(axis=1))[0][0])
        raise RuntimeError(f"valency census is not constant; first deviation at line {bad}")
    return tuple(int(c) for c in first)
