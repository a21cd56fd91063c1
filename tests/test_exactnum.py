import random
from fractions import Fraction

import pytest

from quatmatch.exactnum import OO, hilbert_symbol, legendre_symbol

from cyclotomic import CyclotomicNumber, zeta


PRIMES = (2, 3, 5, 7, 11, 13)


def _sample(p, rng, size=4):
    """A random value of Q(zeta_p) with small rational coordinates."""
    return sum((zeta(p, rng.randrange(p))
                * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for _ in range(size)), CyclotomicNumber.from_rational(0))


def test_zeta_basics():
    assert zeta(1) == 1
    assert zeta(2) == -1
    z3 = zeta(3)
    assert zeta(3, 3) == 1 and z3 != 1
    assert z3.rotate(3, 2) == 1
    assert zeta(3, 2) + z3 + 1 == 0


def test_canonical_conductor():
    # a value whose only term is r = 0 is rational; values equal iff coordinates equal
    assert zeta(5, 5).n == 1 and zeta(5, 10) == 1
    assert zeta(5, 6) == zeta(5) and zeta(5, -1) == zeta(5, 4)
    s = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert s.n == 1 and s.rational_value() == -1
    d = zeta(7) - zeta(7)
    assert (d.n, d.terms) == (1, ()) and d == 0


def test_cyclotomic_arithmetic():
    rng = random.Random(11)
    for p in (5, 7):
        a, b, c = (_sample(p, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert a - a == 0 and a + (-a) == 0 and -(-a) == a
        assert 3 - a == -(a - 3)
        r = Fraction(-2, 5)
        assert (a + b) * r == a * r + b * r == r * (a + b)
        assert a * CyclotomicNumber.from_rational(r) == a * r
        assert CyclotomicNumber.from_rational(r) * a == a * r
        # rotation is Q-linear
        assert (a + b).rotate(p, 3) == a.rotate(p, 3) + b.rotate(p, 3)
        assert (a * r).rotate(p, 2) == a.rotate(p, 2) * r
    # there is no field product of two irrational values
    with pytest.raises(TypeError):
        zeta(7) * zeta(7, 2)


def test_cyclotomic_canonical_form():
    for p in PRIMES:
        for k in range(-p, 2 * p):
            # e(k/p) is rational iff p | k, or p = 2
            v = zeta(p, k)
            assert v.n == (1 if k % p == 0 or p == 2 else p), (p, k)
            assert all(0 <= r < max(p - 1, 1) and c for r, c in v.terms)
            assert [r for r, _c in v.terms] == sorted(r for r, _c in v.terms)
        # the primitive p-th roots of unity sum to mu(p) = -1
        s = sum((zeta(p, k) for k in range(1, p)), CyclotomicNumber.from_rational(0))
        assert s == -1, p
    # a rational factor scales the terms: zero gives the rational zero, and
    # a nonzero factor keeps the form the constructor would give
    x = zeta(7) + 3 * zeta(7, 6) - zeta(7, 2)
    y = zeta(5, 3) - Fraction(1, 2) * zeta(5) + 2
    for v in (x, y, zeta(11, 4), CyclotomicNumber.from_rational(0)):
        for r in (0, 1, -3, Fraction(2, 7), Fraction(0)):
            want = CyclotomicNumber(v.n, [(e, c * r) for e, c in v.terms])
            for w in (v * r, r * v):
                assert (w.n, w.terms) == (want.n, want.terms), (v, r)


def test_zeta_top_power_rewrite():
    for p in PRIMES:
        rest = sum((zeta(p, k) for k in range(p - 1)),
                   CyclotomicNumber.from_rational(0))
        assert zeta(p, p - 1) == -rest, p
        if p > 2:
            assert zeta(p, p - 1).terms == tuple((r, -1) for r in range(p - 1))


def test_roots_of_unity_sum_to_zero():
    for p in PRIMES:
        s = sum((zeta(p, k) for k in range(p)), CyclotomicNumber.from_rational(0))
        assert (s.n, s.terms) == (1, ()), p


def test_rotation():
    rng = random.Random(5)
    for p in PRIMES:
        for _ in range(5):
            v = _sample(p, rng)
            a, b = rng.randrange(-2 * p, 2 * p), rng.randrange(-2 * p, 2 * p)
            assert v.rotate(p, p) == v and v.rotate(p, 0) == v
            assert v.rotate(p, a).rotate(p, b) == v.rotate(p, a + b)
            assert zeta(p, a).rotate(p, b) == zeta(p, a + b)
        # a rational value rotates into Q(zeta_p)
        assert CyclotomicNumber.from_rational(3).rotate(p, 1) == 3 * zeta(p)
    with pytest.raises(ValueError):
        zeta(5).rotate(7, 1)


def test_rational_value_equals_and_hashes_as_fraction():
    for q in (0, 1, -4, Fraction(3, 7), Fraction(-5, 2)):
        for v in (CyclotomicNumber.from_rational(q), zeta(7, 7) * q,
                  (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)) * -q):
            assert v == Fraction(q) and Fraction(q) == v
            assert hash(v) == hash(Fraction(q))
            assert {v: 1}[Fraction(q)] == 1
    assert zeta(7) != Fraction(1) and zeta(7) != zeta(7, 2) and zeta(5) != zeta(7)


def test_adding_different_primes_raises():
    with pytest.raises(ValueError):
        zeta(5) + zeta(7)
    with pytest.raises(ValueError):
        zeta(3) - zeta(5, 2)
    # a rational value adds to either
    assert (zeta(5) + zeta(7, 7)) - 1 == zeta(5)


def test_str_format():
    assert str(zeta(7, 3)) == "z7^3"
    assert str(zeta(7)) == "z7"
    assert str(2 * zeta(7) - zeta(7, 3) + Fraction(1, 2)) == "1/2 + 2*z7 - z7^3"
    assert str(zeta(5, 4)) == "-1 - z5 - z5^2 - z5^3"
    assert str(Fraction(-3, 4) * zeta(5, 2)) == "-3/4*z5^2"
    assert str(zeta(3, 3) * Fraction(2, 6)) == "1/3"


def test_zeta_rejects_composite_conductor():
    for n in (0, -3, 4, 6, 12, 15):
        with pytest.raises(ValueError):
            zeta(n)
        with pytest.raises(ValueError):
            CyclotomicNumber.from_rational(1).rotate(n, 1)
    with pytest.raises(ValueError):
        CyclotomicNumber(12, [(1, 1)])


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


def test_hilbert_symbol_takes_integers():
    with pytest.raises(TypeError):
        hilbert_symbol(Fraction(1, 3), 5, 3)


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
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 5) == -1
    # brute-force Legendre cross-check at odd primes
    for p in (3, 5, 7, 11, 13):
        sq = {(x * x) % p for x in range(1, p)}
        for a in range(-12, 13):
            want = 0 if a % p == 0 else (1 if a % p in sq else -1)
            assert legendre_symbol(a, p) == want, (a, p)
    # complete multiplicativity in the top argument
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert legendre_symbol(a * b, 3) == \
                legendre_symbol(a, 3) * legendre_symbol(b, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dft_matrix_unitary(p):
    # row i times the conjugate of row j is sum_k zeta_p^((i - j) k)
    mat = [[zeta(p, i * j) for j in range(p)] for i in range(p)]
    assert mat[0] == [CyclotomicNumber.from_rational(1)] * p
    for i in range(p):
        for j in range(p):
            s = sum((zeta(p, (i - j) * k) for k in range(p)),
                    CyclotomicNumber.from_rational(0))
            assert s == (p if i == j else 0)


def test_dft_matrix_small_values():
    assert [[zeta(2, i * j) for j in range(2)] for i in range(2)] == [[1, 1], [1, -1]]
    m3 = [[zeta(3, i * j) for j in range(3)] for i in range(3)]
    assert m3[1][1] == zeta(3) and m3[2][2] == zeta(3)
