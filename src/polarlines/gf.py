"""Small finite fields GF(p^h) with fixed Conway reduction polynomials.

Elements of GF(p^h) are encoded as integers 0..q-1: the integer whose base-p
digits are (c_0, c_1, ..., c_{h-1}) stands for c_0 + c_1*x + ... + c_{h-1}*x^{h-1}
modulo the reduction polynomial.  Scalar arithmetic reads precomputed q-by-q
numpy tables; array arithmetic goes through two kernels, Field.times and
Field.axpy, each one read of a flat table at a uint16 index.

The reduction polynomials are hardcoded (Conway polynomials), so element
encodings, canonical forms and all derived indices are reproducible across
runs and machines.  Conway polynomials are primitive: the q - 1 powers of x
are the nonzero elements.  So addition is digitwise mod p, and multiplication,
inverses, conjugation and powers are read off one walk over the powers of x,
as sums of discrete logarithms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_Q = 32

# Conway polynomials, ascending coefficients, monic of degree h.
# For h = 1 this is x - g with g the least primitive root mod p.
_CONWAY = {
    (2, 1): (1, 1),
    (3, 1): (1, 1),
    (5, 1): (3, 1),
    (7, 1): (4, 1),
    (11, 1): (9, 1),
    (13, 1): (11, 1),
    (17, 1): (14, 1),
    (19, 1): (17, 1),
    (23, 1): (18, 1),
    (29, 1): (27, 1),
    (31, 1): (28, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
}


def is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class Field:
    """GF(q) with table-driven arithmetic and optional conjugation x -> x^r."""

    def __init__(self, p, h):
        if not is_prime(p):
            raise ValueError(f"unsupported field: p={p} is not prime")
        q = p**h
        if h < 1 or q > MAX_Q or (p, h) not in _CONWAY:
            raise ValueError(f"unsupported field: q={p}^{h} has no hardcoded reduction polynomial")
        self.p = p
        self.h = h
        self.q = q
        self.poly = _CONWAY[(p, h)]
        # conjugation of order 2 exists iff h is even: x -> x^(p^(h/2))
        self.r = p ** (h // 2) if h % 2 == 0 else None

        # base-p digits of every code, least significant first: a q x h array
        weights = p ** np.arange(h)
        digits = np.arange(q)[:, None] // weights % p
        self.ADD = ((digits[:, None] + digits) % p @ weights).astype(np.uint8)
        self.NEG = (-digits % p @ weights).astype(np.uint8)
        # x times each code: its digits shifted up, less its top digit times the
        # monic polynomial.  For h = 1 the polynomial is x - g, so x is g.
        shifted = digits[np.arange(q) * p % q]  # a p mod q: a's digits moved up, the top one dropped
        times_x = ((shifted - digits[:, -1:] * self.poly[:h]) % p @ weights).tolist()
        exp = [1]
        for _ in range(q - 2):
            exp.append(times_x[exp[-1]])
        if sorted(exp) != list(range(1, q)):
            raise ValueError(f"unsupported field: the polynomial {self.poly} is not primitive")
        # x^k at _exp[k] for k < q - 1, and k at _log[x^k]; _log[0] is unused
        self._exp = np.array(exp, dtype=np.uint8)
        self._log = np.zeros(q, dtype=np.int64)
        self._log[self._exp] = np.arange(q - 1)
        logs = self._log[1:]
        self.MUL = mul = np.zeros((q, q), dtype=np.uint8)
        mul[1:, 1:] = self._exp[(logs[:, None] + logs) % (q - 1)]
        self.INV = np.zeros(q, dtype=np.uint8)
        self.INV[1:] = self._exp[-logs % (q - 1)]
        self.CONJ = None
        if self.r is not None:
            # x -> x^r multiplies a logarithm by r
            self.CONJ = np.zeros(q, dtype=np.uint8)
            self.CONJ[1:] = self._exp[logs * self.r % (q - 1)]
        # the kernels' flat tables: a*b at a q + b, and a + c b at (a q + c) q + b,
        # an index below q^3 <= 32,768, so uint16 holds it
        self._q16 = np.uint16(q)
        self._times = mul.ravel()
        self._axpy = self.ADD[:, mul].ravel()

    # array kernels: uint8 arrays or ints in, broadcast together; uint8 out.  Each
    # operand is cast to uint16 first, so no NumPy casting rule can compute the
    # index in uint8, where it would wrap.

    def times(self, a, b):
        """a * b elementwise."""
        return self._times[np.asarray(a, np.uint16) * self._q16 + np.asarray(b, np.uint16)]

    def axpy(self, a, c, b):
        """a + c * b elementwise."""
        # one expression, so NumPy can reuse a temporary in place where shapes agree
        q, u16 = self._q16, np.uint16
        return self._axpy[(np.asarray(a, u16) * q + np.asarray(c, u16)) * q + np.asarray(b, u16)]

    # scalar helpers (ints in, ints out)
    def add(self, a, b):
        return int(self.ADD[a, b])

    def sub(self, a, b):
        return int(self.ADD[a, self.NEG[b]])

    def mul(self, a, b):
        return int(self.MUL[a, b])

    def neg(self, a):
        return int(self.NEG[a])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return int(self.INV[a])

    def conj(self, a):
        if self.CONJ is None:
            raise ValueError(f"GF({self.q}) has no conjugation (odd extension degree)")
        return int(self.CONJ[a])

    def pow(self, a, k):
        """a^k for k >= 0, with 0^0 = 1."""
        if a == 0:
            return int(k == 0)
        return int(self._exp[self._log[a] * k % (self.q - 1)])

    def scale(self, c, v):
        return tuple(int(self.MUL[c, x]) for x in v)

    def add_vec(self, u, v):
        return tuple(int(self.ADD[a, b]) for a, b in zip(u, v))

    def trace(self, a):
        """Absolute trace GF(q) -> GF(p)."""
        out, cur = 0, a
        for _ in range(self.h):
            out = self.add(out, cur)
            cur = self.pow(cur, self.p)
        return out

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_make(p, h=1):
    """Return the field GF(p^h) with its fixed reduction polynomial."""
    return Field(p, h)


@lru_cache(maxsize=None)
def field_for_order(q):
    """Return GF(q), factoring q as p^h."""
    # checked first, so a huge q costs no trial division
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"unsupported field: q={q} is outside 2..{MAX_Q}")
    for p in range(2, q + 1):
        if is_prime(p):
            h, t = 0, 1
            while t < q:
                t *= p
                h += 1
            if t == q:
                return field_make(p, h)
    raise ValueError(f"unsupported field: q={q} is not a prime power")
