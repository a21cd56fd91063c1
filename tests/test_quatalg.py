import random
from fractions import Fraction

import pytest

from quatmatch.exactnum import OO, hilbert_symbol, is_squarefree
from quatmatch.quatalg import (
    QuaternionAlgebra,
    construct_algebra,
    ramified_model,
    ramified_places,
)

from genus_reference import element


def _squarefree_up_to(bound):
    return [n for n in range(1, bound + 1) if is_squarefree(n)]


def test_construct_small_cases():
    assert (construct_algebra(1).a, construct_algebra(1).b) == (1, 1)
    a2 = construct_algebra(2)
    assert (a2.a, a2.b) == (-1, -1)
    assert a2.ramified_primes == (2,) and a2.is_definite
    a6 = construct_algebra(6)
    assert (a6.a, a6.b) == (-1, 3)
    assert a6.ramified_primes == (2, 3) and not a6.is_definite
    a30 = construct_algebra(30)
    assert a30.ramified_primes == (2, 3, 5) and a30.is_definite
    assert a30.a < 0 and a30.b < 0


def test_construct_grid_up_to_210():
    for d in _squarefree_up_to(210):
        alg = construct_algebra(d)
        assert alg.discriminant == d
        finite, infinite = ramified_places(alg.a, alg.b)
        count = len(finite) + (1 if infinite else 0)
        assert count % 2 == 0
        assert infinite == (len(finite) % 2 == 1)
        if alg.is_definite:
            assert alg.a < 0 and alg.b < 0


def test_construct_rejects_bad_discriminants():
    for bad in (0, -2, 4, 12, 18):
        with pytest.raises(ValueError):
            construct_algebra(bad)


def test_element_examples():
    alg = construct_algebra(2)
    one = element(alg, 1)
    assert one.reduced_norm() == 1 and one.reduced_trace() == 2
    x = element(alg, 0, 1, 1, 1)
    assert x.reduced_norm() == 3 and x.reduced_trace() == 0
    i, j, k = element(alg, 0, 1), element(alg, 0, 0, 1), element(alg, 0, 0, 0, 1)
    assert i * j == k and j * i == -k
    assert i * i == element(alg, -1) and k * k == element(alg, -1)


def test_norm_trace_properties():
    random.seed(23)
    for alg in (construct_algebra(2), construct_algebra(6), construct_algebra(10)):
        for _ in range(25):
            x = element(alg, *[Fraction(random.randint(-8, 8), random.randint(1, 5))
                              for _ in range(4)])
            y = element(alg, *[Fraction(random.randint(-8, 8), random.randint(1, 5))
                              for _ in range(4)])
            assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
            assert x + x.conjugate() == element(alg, x.reduced_trace() / 2 * 2)
            assert x * x.conjugate() == element(alg, x.reduced_norm())
            assert x.pairing(x) == 2 * x.reduced_norm()
            # det(x+y) - det(x) - det(y) is the (bilinear) pairing
            z = element(alg, *[Fraction(random.randint(-5, 5)) for _ in range(4)])
            lhs = (x + y).pairing(z) - x.pairing(z) - y.pairing(z)
            assert lhs == 0


def test_ramification_is_hilbert_locus():
    alg = construct_algebra(15)
    for p in (2, 3, 5, 7):
        want = -1 if p in alg.ramified_primes else 1
        assert hilbert_symbol(alg.a, alg.b, p) == want
    assert hilbert_symbol(alg.a, alg.b, OO) == 1  # two primes: indefinite
    alg30 = construct_algebra(30)
    assert hilbert_symbol(alg30.a, alg30.b, OO) == -1
    assert QuaternionAlgebra(alg30.a, alg30.b).is_definite


def test_ramified_model_parameters():
    m3 = ramified_model(3)
    assert (m3.t, m3.n) == (0, 1)
    assert m3.d_value(1, 0) == 1 and m3.d_value(0, 1) == 1 and m3.d_value(1, 1) == 2
    m2 = ramified_model(2)
    assert (m2.t, m2.n) == (1, 1)
    assert m2.d_value(1, 1) == 3
    assert m2.d_value(0, 0) == 0
    for p in (2, 3, 5, 7, 11):
        m = ramified_model(p)
        # x^2 - t x + n irreducible mod p
        assert all((x * x - m.t * x + m.n) % p for x in range(p))
        # the norm form is anisotropic mod p
        for k in range(p):
            for l in range(p):
                if (k, l) != (0, 0):
                    assert m.d_value(k, l) % p != 0


def test_ramified_model_arithmetic():
    for p in (2, 3, 5):
        m = ramified_model(p)
        elems = [(1, 2, 0, 3), (2, 0, 1, 1), (0, 1, 4, 2), (3, 1, 2, 0)]
        one = (1, 0, 0, 0)
        for x in elems:
            # the standard involution: conj(a + b*pi) = conj(a) - b*pi
            a1, a2, b1, b2 = x
            conj = (a1 + m.t * a2, -a2, -b1, -b2)
            assert m.mul(one, x) == x and m.mul(x, one) == x
            assert m.nrd(conj) == m.nrd(x)
            prod = m.mul(x, conj)
            assert prod == (m.nrd(x), 0, 0, 0)
            for y in elems:
                assert m.nrd(m.mul(x, y)) == m.nrd(x) * m.nrd(y)

