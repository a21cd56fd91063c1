import math
import random
from fractions import Fraction

import pytest

from quatmatch.exactnum import (
    OO,
    CyclotomicNumber,
    hilbert_symbol,
    kronecker_symbol,
    zeta,
)


def test_zeta_basics():
    assert zeta(1) == 1
    assert zeta(2) == -1
    assert zeta(4) ** 2 == -1
    z3 = zeta(3)
    assert z3 ** 3 == 1 and z3 != 1
    assert z3 ** 2 + z3 + 1 == 0


def test_canonical_conductor():
    # zeta_6 lives in the conductor-3 field; values equal iff coordinates equal
    assert zeta(6).n == 3
    assert zeta(12, 3).n == 4  # = i
    assert zeta(12, 4) == zeta(3)
    s = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert s.is_rational and s.rational_value() == -1


def test_cyclotomic_arithmetic():
    random.seed(11)
    vals = [zeta(12, k) * Fraction(random.randint(-3, 3), random.randint(1, 4))
            for k in range(5)]
    a, b, c = vals[0] + vals[1], vals[2], vals[3] - vals[4]
    assert (a + b) * c == a * c + b * c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    nz = zeta(7) + 2
    assert nz / nz == 1
    assert (nz * nz._inverse()) == 1


def _moebius(n):
    out = 1
    for p in range(2, n + 1):
        if n % p == 0 and all(p % d for d in range(2, p)):
            out = 0 if n % (p * p) == 0 else -out
    return out


def test_cyclotomic_canonical_form():
    for n in (8, 9, 12, 15, 20, 21, 25):
        for k in range(n):
            # e(k/n) has conductor n/gcd(k, n), or half that when it is 2 mod 4
            g = n // math.gcd(k, n)
            assert zeta(n, k).n == (g // 2 if g % 4 == 2 else g), (n, k)
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 21, 24, 25, 30):
        s = sum((zeta(n, k) for k in range(n) if math.gcd(k, n) == 1),
                CyclotomicNumber.from_rational(0))
        assert s == _moebius(n), n
    assert zeta(15) == zeta(3, 2) * zeta(5, -3)
    x = zeta(15) + 3 * zeta(15, 7) - zeta(21, 2)
    y = zeta(20, 3) - Fraction(1, 2) * zeta(12) + zeta(7, 4)
    z = 2 - zeta(35, 6) + zeta(8, 5)
    assert x.n == 105
    assert x * x._inverse() == 1
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert (x + y) * z == x * z + y * z
    # a rational factor scales the terms: zero gives the rational zero, and
    # a nonzero factor keeps the form the constructor would give
    for v in (x, y, z, zeta(9, 4), CyclotomicNumber.from_rational(0)):
        for r in (0, 1, -3, Fraction(2, 7), Fraction(0)):
            want = CyclotomicNumber(v.n, [(e, c * r) for e, c in v.terms])
            for w in (v * r, r * v):
                assert (w.n, w.terms) == (want.n, want.terms), (v, r)


def _hilbert_search_oracle(a, b, p):
    """Primitive-solution search for z^2 = a x^2 + b y^2 over Z/p^3 (Z/32 at 2)."""
    mod = 32 if p == 2 else p ** 3
    squares = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, []).append(z)
    for x in range(mod):
        for y in range(mod):
            val = (a * x * x + b * y * y) % mod
            for z in squares.get(val, ()):
                if x % p or y % p or z % p:
                    return 1
    return -1


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, OO) == -1
    assert hilbert_symbol(1, 5, 3) == 1
    assert hilbert_symbol(1, -7, 2) == 1
    # exhaustive mod-32 search agrees at p = 2 on small inputs
    for a, b in [(-1, -1), (-1, 3), (2, 5), (-2, -5), (3, 7), (-1, 2)]:
        assert hilbert_symbol(a, b, 2) == _hilbert_search_oracle(a, b, 2), (a, b)
    for a, b in [(-1, -1), (2, 3), (-1, 3), (2, 5)]:
        assert hilbert_symbol(a, b, 3) == _hilbert_search_oracle(a, b, 3), (a, b)


def test_hilbert_symbol_multiplicative():
    vals = [-10, -5, -3, -2, -1, 1, 2, 3, 5, 10]
    for place in (2, 3, 5, OO):
        for a in vals:
            for b in vals:
                for c in vals:
                    assert hilbert_symbol(a, b * c, place) == \
                        hilbert_symbol(a, b, place) * hilbert_symbol(a, c, place)


def test_hilbert_product_formula():
    def places(a, b):
        n = 2 * abs(a * b)
        out = {OO}
        d = 2
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            out.add(n)
        return out

    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0 or b == 0:
                continue
            prod = 1
            for v in places(a, b):
                prod *= hilbert_symbol(a, b, v)
            assert prod == 1, (a, b)


def test_kronecker_symbol():
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(17, 1) == 1
    assert kronecker_symbol(3, 5) == -1
    # brute-force Legendre cross-check at odd primes
    for p in (3, 5, 7, 11, 13):
        sq = {(x * x) % p for x in range(1, p)}
        for a in range(-12, 13):
            want = 0 if a % p == 0 else (1 if a % p in sq else -1)
            assert kronecker_symbol(a, p) == want, (a, p)
    # complete multiplicativity in the top argument
    for n in (-15, -4, 3, 8, 45):
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert kronecker_symbol(a * b, n) == \
                    kronecker_symbol(a, n) * kronecker_symbol(b, n)
    with pytest.raises(ValueError):
        kronecker_symbol(3, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dft_matrix_unitary(p):
    mat = [[zeta(p, i * j) for j in range(p)] for i in range(p)]
    assert mat[0] == [CyclotomicNumber.from_rational(1)] * p
    for i in range(p):
        for j in range(p):
            s = sum((mat[i][k] * mat[j][k].conjugate() for k in range(p)),
                    CyclotomicNumber.from_rational(0))
            assert s == (p if i == j else 0)


def test_dft_matrix_small_values():
    assert [[zeta(2, i * j) for j in range(2)] for i in range(2)] == [[1, 1], [1, -1]]
    m3 = [[zeta(3, i * j) for j in range(3)] for i in range(3)]
    assert m3[1][1] == zeta(3) and m3[2][2] == zeta(3)
