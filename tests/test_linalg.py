import itertools
import random
from fractions import Fraction

import pytest

from polarlines.gf import field_for_order
from polarlines.linalg import rref, solve_rational

GF2 = field_for_order(2)


def test_identity_is_already_canonical():
    basis, pivots = rref([(1, 0), (0, 1)], GF2)
    assert basis == ((1, 0), (0, 1))
    assert pivots == (0, 1)


def test_zero_rows_are_dropped():
    basis, pivots = rref([(1, 1), (0, 0)], GF2)
    assert basis == ((1, 1),)
    assert pivots == (0,)


def test_hand_reduced_example_over_gf2():
    basis, _ = rref([(1, 1, 0), (1, 0, 1)], GF2)
    assert basis == ((1, 0, 1), (0, 1, 1))


def test_zero_matrix_gives_zero_subspace():
    assert rref([(0, 0, 0)], GF2) == ((), ())
    assert rref([], GF2) == ((), ())


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_canonical_form_is_basis_independent(q):
    f = field_for_order(q)
    rng = random.Random(1234 + q)
    for _ in range(25):
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        rows = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(k)]
        basis, _ = rref(rows, f)
        # random invertible recombination of the rows
        mixed = list(basis)
        if not mixed:
            continue
        for _ in range(6):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            c = rng.randrange(1, q)
            if i != j:
                mixed[i] = tuple(f.add(a, f.mul(c, b)) for a, b in zip(mixed[i], mixed[j]))
            else:
                mixed[i] = tuple(f.mul(c, a) for a in mixed[i])
        assert rref(mixed, f)[0] == basis
        assert rref(basis, f)[0] == basis  # idempotent


def nullspace(rows, field, d):
    """RREF basis of {x : r . x = 0 for every row r}, one vector per free column of rref(rows)."""
    basis, pivots = rref(rows, field)
    out = []
    for fc in (c for c in range(d) if c not in pivots):
        v = [0] * d
        v[fc] = 1
        for row, piv in zip(basis, pivots):
            v[piv] = field.neg(row[fc])
        out.append(v)
    return rref(out, field)[0]


def intersection(field, d, a, b):
    """RREF basis of A cap B by the Zassenhaus trick: the right halves of rref [a | a; b | 0]."""
    if any(len(r) != d for r in (*a, *b)):
        raise ValueError(f"rows must lie in the same {d}-dimensional space")
    echelon, pivots = rref([tuple(r) * 2 for r in a] + [tuple(r) + (0,) * d for r in b], field)
    return rref([r[d:] for r, p in zip(echelon, pivots) if p >= d], field)[0]


def span_vectors(field, d, basis):
    """All q^r vectors of the span of r rows, one coefficient vector at a time."""
    out = []
    for coeffs in itertools.product(range(field.q), repeat=len(basis)):
        v = (0,) * d
        for c, row in zip(coeffs, basis):
            v = tuple(int(field.ADD[x, field.MUL[c, y]]) for x, y in zip(v, row))
        out.append(v)
    return out


def _random_rows(rng, q, d):
    return [tuple(rng.randrange(q) for _ in range(d)) for _ in range(rng.randint(1, d))]


def test_intersection_idempotent_and_disjoint():
    a = [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert intersection(GF2, 4, a, a) == rref(a, GF2)[0]
    assert intersection(GF2, 4, a, [(0, 0, 1, 0), (0, 0, 0, 1)]) == ()


def test_intersection_matches_bruteforce_span_membership():
    a = [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert intersection(GF2, 4, a, [(1, 0, 0, 0), (0, 0, 1, 1)]) == ((1, 0, 0, 0),)
    for q in (2, 3, 4):
        f = field_for_order(q)
        rng = random.Random(99 + q)
        for _ in range(30):
            d = rng.randint(2, 4)
            a, b = _random_rows(rng, q, d), _random_rows(rng, q, d)
            common = set(span_vectors(f, d, a)) & set(span_vectors(f, d, b))
            assert sorted(span_vectors(f, d, intersection(f, d, a, b))) == sorted(common)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dimension_formula(q):
    f = field_for_order(q)
    rng = random.Random(99 + q)
    for _ in range(30):
        d = rng.randint(2, 5)
        a, b = _random_rows(rng, q, d), _random_rows(rng, q, d)
        dim_a, dim_b = len(rref(a, f)[0]), len(rref(b, f)[0])
        assert len(intersection(f, d, a, b)) + len(rref(a + b, f)[0]) == dim_a + dim_b


def test_kernel_rank_nullity():
    f = field_for_order(3)
    rows = [(1, 2, 0, 1), (0, 1, 1, 1)]
    ker = nullspace(rows, f, 4)
    assert len(ker) == 4 - len(rref(rows, f)[0])
    for v in span_vectors(f, 4, ker):
        for row in rows:
            assert sum(int(f.MUL[x, y]) for x, y in zip(row, v)) % 3 == 0


def test_mismatched_ambient_rejected():
    with pytest.raises(ValueError):
        intersection(GF2, 3, [(1, 0, 0)], [(1, 0, 0, 0)])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fraction_free_solve_matches_fraction_gauss_jordan(k):
    from test_lp import fraction_solve

    rng = random.Random(k)
    for trial in range(200):
        mat = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if trial % 4 == 0:
            # a singular system
            mat[-1] = [2 * x for x in mat[0]] if k > 1 else [0]
        rhs = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(k)]
        want = fraction_solve(mat, rhs)
        got = solve_rational(mat, rhs)
        if want is None:
            assert got is None
        else:
            N, d = got
            assert d > 0 and all(isinstance(x, int) for row in N for x in row)
            assert [[Fraction(x, d) for x in row] for row in N] == want
