"""Exact coefficient fields: rationals and small Galois fields.

Rationals are Python ints and ``fractions.Fraction`` values; elements of
GF(q), q = p^k, are the integers 0..q-1, each the base-p encoding of a
polynomial over F_p.  Every GF(q) operation, for prime and non-prime q
alike, is a lookup in tables built once per field.  Every operation is
exact; nothing here ever touches floating point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache


class RationalField:
    """Arbitrary-precision rational arithmetic (singleton ``QQ``).

    An element is an ``int`` or a ``Fraction``: an int is the rational
    with denominator 1, and it compares, hashes, prints and tests for zero
    as that ``Fraction`` does, so no ``Fraction`` is built around an int:
    ``zero``, ``one`` and ``from_int`` give ints, and the ring operations
    are ``operator``'s, whose int results stay ints.  A ``Fraction`` is
    built where a value enters (``from_fraction``) or is inverted: ``inv``
    refuses 0 and inverts a ``Fraction``, so 1 / int is exact."""

    zero = 0
    one = 1
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    neg = operator.neg
    from_int = operator.index
    from_fraction = Fraction

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"

    def __reduce__(self):
        return "QQ"  # the singleton, so ``field is QQ`` survives pickling


QQ = RationalField()

MAX_Q = 64  # the largest q for which GF(q) builds its q x q tables


def _factor_prime_power(q):
    """(p, k) with q = p^k.  Trial division stops at isqrt(q): a q >= 2 with
    no factor up to there is prime."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def _poly_mul_mod(a, b, mod_poly, p):
    """Multiply two F_p[x] polynomials (coefficient lists, low degree first)
    and reduce modulo mod_poly (monic)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    deg_m = len(mod_poly) - 1
    while len(prod) > deg_m:
        lead = prod.pop()
        if lead:
            shift = len(prod) - deg_m
            for t in range(deg_m):
                prod[shift + t] = (prod[shift + t] - lead * mod_poly[t]) % p
    return prod


class GaloisField:
    """GF(q) for a prime power q = p^k, with table-driven arithmetic.

    Elements are ints in range(q): the integer n encodes the polynomial
    sum_i c_i x^i over F_p with n = sum_i c_i p^i, taken modulo the
    smallest monic irreducible polynomial of degree k (x itself when
    k = 1, so prime fields are the integers mod p).  ``__init__`` builds
    the add, neg, mul and inv tables once; each operation is a lookup.
    The tables hold q^2 entries, so a q past :data:`MAX_Q` = 64 is refused
    before it is factored or any table is built (GF(256) took 12 s).
    """

    def __init__(self, q):
        if q > MAX_Q:
            raise ValueError(f"GF({q}) is past the cap q <= {MAX_Q}: its tables hold q^2 entries")
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.zero = 0
        self.one = 1
        decode = []
        for n in range(q):
            coeffs = []
            for _ in range(k):
                coeffs.append(n % p)
                n //= p
            decode.append(coeffs)

        def encode(coeffs):
            n = 0
            for c in reversed(coeffs):
                n = n * p + c
            return n

        self._add = [
            [encode([(x + y) % p for x, y in zip(a, b)]) for b in decode] for a in decode
        ]
        self._neg = [encode([-x % p for x in a]) for a in decode]
        # The modulus is the first monic candidate of degree k, in the order
        # of the base-p codes of its lower coefficients, whose product table
        # has no zero product of nonzero elements: a factor of a reducible
        # candidate would be such a zero divisor.
        for code in range(q):
            mod_poly = decode[code] + [1]
            mul = [[encode(_poly_mul_mod(a, b, mod_poly, p)) for b in decode] for a in decode]
            if all(all(row[1:]) for row in mul[1:]):
                break
        self._mul = mul
        self._inv = [0] + [self._mul[a].index(1) for a in range(1, q)]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, x):
        if x.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {x} not invertible mod {self.p}")
        return self.mul(self.from_int(x.numerator), self.inv(self.from_int(x.denominator)))

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.q})"

    def __reduce__(self):
        return GF, (self.q,)  # the cached instance, as for QQ


@lru_cache(maxsize=None)
def GF(q):
    """Cached GF(q) instance for a prime power q <= :data:`MAX_Q`."""
    return GaloisField(q)


def is_prime_power(q):
    try:
        _factor_prime_power(q)
        return True
    except ValueError:
        return False
