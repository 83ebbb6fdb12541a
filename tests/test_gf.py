import itertools

import numpy as np
import pytest

from polarlines import gf
from polarlines.gf import MAX_Q, _CONWAY, field_make, field_for_order, is_prime
from polarlines.groups import _primitive_element

SUPPORTED_Q = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32]


def test_arithmetic_tables_exhaustive_small():
    # full field axioms for q <= 9: associativity, commutativity,
    # distributivity, inverses
    for q in [2, 3, 4, 5, 7, 8, 9]:
        f = field_for_order(q)
        els = range(q)
        for a, b in itertools.product(els, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(els, repeat=3):
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
            assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_multiplication_is_a_group(q):
    # quotient by the reduction polynomial is a field iff every nonzero row
    # of the multiplication table is a permutation
    f = field_for_order(q)
    full = set(range(q))
    for a in range(1, q):
        assert set(int(x) for x in f.MUL[a]) == full


# -- the schoolbook construction: the oracle of the tables read off the powers of x


def _digits(k, p, h):
    out = []
    for _ in range(h):
        out.append(k % p)
        k //= p
    return out


def _undigits(ds, p):
    k = 0
    for c in reversed(ds):
        k = k * p + c
    return k


def _poly_mul_mod(a, b, red, p):
    """Multiply coefficient lists a*b and reduce modulo the monic poly red."""
    h = len(red) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, h - 1, -1):
        c = prod[i]
        for j in range(h + 1):
            prod[i - h + j] = (prod[i - h + j] - c * red[j]) % p
    return prod[:h]


def _schoolbook_tables(p, h):
    """ADD, MUL, NEG, INV and CONJ from digits and polynomial products mod the Conway polynomial.

    INV is found by searching each row of MUL for 1, and CONJ by iterating the
    Frobenius map a -> a^p h/2 times (None for odd h).
    """
    q, red = p**h, list(_CONWAY[(p, h)])
    add = np.zeros((q, q), dtype=np.uint8)
    mul = np.zeros((q, q), dtype=np.uint8)
    for a in range(q):
        for b in range(q):
            da, db = _digits(a, p, h), _digits(b, p, h)
            add[a, b] = _undigits([(x + y) % p for x, y in zip(da, db)], p)
            mul[a, b] = _undigits(_poly_mul_mod(da, db, red, p), p)
    neg = np.array([_undigits([-c % p for c in _digits(a, p, h)], p) for a in range(q)], np.uint8)
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(1, q):
        inv[a] = [b for b in range(q) if mul[a, b] == 1][0]
    conj = None
    if h % 2 == 0:
        frob = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            acc = a
            for _ in range(p - 1):
                acc = mul[acc, a]
            frob[a] = acc
        conj = np.arange(q, dtype=np.uint8)
        for _ in range(h // 2):
            conj = frob[conj]
    return add, mul, neg, inv, conj


def _square_and_multiply(mul, a, k):
    out, base = 1, a
    while k:
        if k & 1:
            out = int(mul[out, base])
        base = int(mul[base, base])
        k >>= 1
    return out


def _order(mul, a):
    x, order = a, 1
    while x != 1:
        x, order = int(mul[x, a]), order + 1
    return order


@pytest.mark.parametrize("p,h", sorted(_CONWAY))
def test_tables_match_the_schoolbook_construction(p, h):
    """All seven tables byte for byte, dtype included; powers; the primitive element."""
    f = field_make(p, h)
    q = f.q
    add, mul, neg, inv, conj = _schoolbook_tables(p, h)
    want = {
        "ADD": add,
        "MUL": mul,
        "NEG": neg,
        "INV": inv,
        "CONJ": conj,
        "_times": mul.ravel(),
        "_axpy": add[:, mul].ravel(),
    }
    for name, table in want.items():
        got = getattr(f, name)
        if table is None:
            assert got is None, name
        else:
            assert (got.dtype, got.shape, got.tobytes()) == (
                table.dtype,
                table.shape,
                table.tobytes(),
            ), name
    for a in range(q):
        for k in range(2 * q + 1):
            assert f.pow(a, k) == _square_and_multiply(mul, a, k), (a, k)
    generators = [a for a in range(2, q) if _order(mul, a) == q - 1]
    assert _primitive_element(f) == (generators[0] if generators else 1)


def test_a_polynomial_that_is_not_primitive_is_refused(monkeypatch):
    # x^2 + 1 is irreducible over GF(3), but x^4 = 1, so the powers of x miss half of GF(9)*
    monkeypatch.setitem(_CONWAY, (3, 2), (1, 0, 1))
    with pytest.raises(ValueError, match="not primitive"):
        gf.Field(3, 2)


def test_gf4_generator_cubes_to_one():
    f = field_make(2, 2)
    x = 2  # the class of the indeterminate
    assert f.mul(x, f.mul(x, x)) == 1
    assert f.mul(x, x) == 3


@pytest.mark.parametrize("p,h", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_conjugation_is_an_involutory_automorphism(p, h):
    f = field_make(p, h)
    for a in range(f.q):
        assert f.conj(f.conj(a)) == a
        for b in range(f.q):
            assert f.conj(f.mul(a, b)) == f.mul(f.conj(a), f.conj(b))
            assert f.conj(f.add(a, b)) == f.add(f.conj(a), f.conj(b))
    fixed = [a for a in range(f.q) if f.conj(a) == a]
    assert len(fixed) == f.r


def test_gf9_conjugation_is_cubing():
    f = field_make(3, 2)
    for a in range(9):
        assert f.conj(a) == f.pow(a, 3)


def test_prime_fields_have_no_conjugation():
    f = field_make(3, 1)
    with pytest.raises(ValueError):
        f.conj(2)


def test_unsupported_fields_rejected():
    with pytest.raises(ValueError, match="unsupported field"):
        field_make(4, 1)  # not prime
    with pytest.raises(ValueError, match="unsupported field"):
        field_make(2, 6)  # q = 64 over the cap
    with pytest.raises(ValueError):
        field_for_order(6)


def test_field_order_out_of_range_fails_before_any_primality_test(monkeypatch):
    is_small_prime = gf.is_prime

    def guarded(n):
        assert n <= MAX_Q, f"is_prime({n}) called"
        return is_small_prime(n)

    monkeypatch.setattr(gf, "is_prime", guarded)
    for q in (-1, 0, 1, MAX_Q + 1, 64, 1000003, 10**9 + 7):
        with pytest.raises(ValueError, match="unsupported field"):
            field_for_order(q)
    # every supported order still resolves
    for p, h in _CONWAY:
        f = field_for_order.__wrapped__(p**h)
        assert (f.p, f.h) == (p, h)


def test_trace_lands_in_prime_field():
    f = field_make(2, 2)
    values = {a: f.trace(a) for a in range(4)}
    assert all(v in (0, 1) for v in values.values())
    assert values[2] == 1 and values[3] == 1  # both roots of x^2+x+1 have trace 1


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _scalar_kinds(x):
    """x as a Python int, a NumPy uint8 scalar and a 0-d uint8 array."""
    return (int(x), np.uint8(x), np.array(x, dtype=np.uint8))


def _as_uint8(out):
    assert np.asarray(out).dtype == np.uint8
    return np.asarray(out).tolist()


@pytest.mark.parametrize("p,h", sorted(_CONWAY))
def test_kernels_match_the_scalar_tables(p, h):
    """times and axpy against the q x q tables, read one entry at a time.

    Every triple is checked, up to (q-1, q-1, q-1) at the kernel index
    q^3 - 1: 32,767 at q = 32, which a uint8 index would wrap.
    """
    f = field_make(p, h)
    q = f.q
    add, mul = f.ADD.tolist(), f.MUL.tolist()
    a, c, b = (x.ravel() for x in np.indices((q, q, q), dtype=np.uint8))
    want = [add[x][mul[y][z]] for x, y, z in zip(a.tolist(), c.tolist(), b.tolist())]
    assert _as_uint8(f.axpy(a, c, b)) == want
    x, y = (v.ravel() for v in np.indices((q, q), dtype=np.uint8))
    assert _as_uint8(f.times(x, y)) == [mul[i][j] for i, j in zip(x.tolist(), y.tolist())]

    # each operand in turn as a scalar of each kind, the others arrays
    els = np.arange(q, dtype=np.uint8)
    col, row = els[:, None], els[None, :]
    for k in range(q):
        grids = (
            [[add[k][mul[i][j]] for j in range(q)] for i in range(q)],
            [[add[i][mul[k][j]] for j in range(q)] for i in range(q)],
            [[add[i][mul[j][k]] for j in range(q)] for i in range(q)],
        )
        for s in _scalar_kinds(k):
            assert _as_uint8(f.axpy(s, col, row)) == grids[0]
            assert _as_uint8(f.axpy(col, s, row)) == grids[1]
            assert _as_uint8(f.axpy(col, row, s)) == grids[2]
            assert _as_uint8(f.times(s, els)) == mul[k]
            assert _as_uint8(f.times(els, s)) == mul[k]
    # all operands scalars, of mixed kinds, at the top index
    for kinds in itertools.product(range(3), repeat=3):
        top = [_scalar_kinds(q - 1)[i] for i in kinds]
        assert _as_uint8(f.axpy(*top)) == add[q - 1][mul[q - 1][q - 1]]
        assert _as_uint8(f.times(*top[:2])) == mul[q - 1][q - 1]
    # (n,1) x (1,m) broadcasting
    assert _as_uint8(f.times(col, row)) == mul
    assert _as_uint8(f.axpy(0, col, row)) == mul
    assert _as_uint8(f.axpy(col, 1, row)) == add
