import random

import pytest

from polarlines.gf import field_for_order
from polarlines.linalg import Subspace, intersect, kernel, rref, rref_canonicalize, subspace_sum

GF2 = field_for_order(2)


def test_identity_is_already_canonical():
    sub = rref_canonicalize([(1, 0), (0, 1)], GF2)
    assert sub.basis == ((1, 0), (0, 1))
    assert sub.dim == 2


def test_zero_rows_are_dropped():
    sub = rref_canonicalize([(1, 1), (0, 0)], GF2)
    assert sub.basis == ((1, 1),)
    assert sub.dim == 1


def test_hand_reduced_example_over_gf2():
    sub = rref_canonicalize([(1, 1, 0), (1, 0, 1)], GF2)
    assert sub.basis == ((1, 0, 1), (0, 1, 1))


def test_zero_matrix_gives_zero_subspace():
    sub = Subspace(GF2, 3, [(0, 0, 0)])
    assert sub.dim == 0
    assert sub.contains((0, 0, 0))
    assert not sub.contains((1, 0, 0))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_canonical_form_is_basis_independent(q):
    f = field_for_order(q)
    rng = random.Random(1234 + q)
    for _ in range(25):
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        rows = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(k)]
        sub = Subspace(f, d, rows)
        # random invertible recombination of the rows
        mixed = list(sub.basis)
        if not mixed:
            continue
        for _ in range(6):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            c = rng.randrange(1, q)
            if i != j:
                mixed[i] = tuple(f.add(a, f.mul(c, b)) for a, b in zip(mixed[i], mixed[j]))
            else:
                mixed[i] = tuple(f.mul(c, a) for a in mixed[i])
        again = Subspace(f, d, mixed)
        assert again.basis == sub.basis
        assert Subspace(f, d, sub.basis).basis == sub.basis  # idempotent


def test_intersection_idempotent_and_disjoint():
    a = Subspace(GF2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = Subspace(GF2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    full, dim = intersect(a, a)
    assert dim == 2 and full == a
    zero, dim = intersect(a, b)
    assert dim == 0


def test_intersection_matches_bruteforce_span_membership():
    f = field_for_order(2)
    a = Subspace(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = Subspace(f, 4, [(1, 0, 0, 0), (0, 0, 1, 1)])
    sub, dim = intersect(a, b)
    brute = [v for v in a.vectors() if b.contains(v) and any(v)]
    assert dim == 1
    assert sorted(brute) == sorted(v for v in sub.vectors() if any(v))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dimension_formula(q):
    f = field_for_order(q)
    rng = random.Random(99 + q)
    for _ in range(30):
        d = rng.randint(2, 5)
        a = Subspace(f, d, [tuple(rng.randrange(q) for _ in range(d)) for _ in range(rng.randint(1, d))])
        b = Subspace(f, d, [tuple(rng.randrange(q) for _ in range(d)) for _ in range(rng.randint(1, d))])
        _, dim_int = intersect(a, b)
        assert dim_int + subspace_sum(a, b).dim == a.dim + b.dim


def test_intersection_dimension_check_raises(monkeypatch):
    # the dimension identity is enforced by an exception, so python -O keeps it
    import polarlines.linalg as la

    a = Subspace(GF2, 3, [(1, 0, 0)])
    b = Subspace(GF2, 3, [(0, 1, 0)])
    monkeypatch.setattr(la, "subspace_sum", lambda x, y: x)
    with pytest.raises(RuntimeError, match="dim"):
        la.intersect(a, b)


def test_kernel_rank_nullity():
    f = field_for_order(3)
    rows = [(1, 2, 0, 1), (0, 1, 1, 1)]
    ker = kernel(rows, f, 4)
    basis, _ = rref(rows, f)
    assert ker.dim == 4 - len(basis)
    for v in ker.vectors():
        for row in rows:
            assert f.dot(row, v) == 0


def test_mismatched_ambient_rejected():
    a = Subspace(GF2, 3, [(1, 0, 0)])
    b = Subspace(GF2, 4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        intersect(a, b)
