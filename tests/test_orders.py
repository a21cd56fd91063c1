import random
from fractions import Fraction

import pytest

from quatmatch.quatalg import construct_algebra
from quatmatch.orders import (
    OrderLattice,
    dual_lattice,
    eichler_order,
    index_in,
    lattice_product,
    local_splitting,
    maximal_order,
    multiplication_table,
    standard_order,
)


def test_hurwitz_maximal_order():
    alg = construct_algebra(2)
    order = maximal_order(alg)
    assert abs(order.gram_det()) == 4
    assert order.is_order() and order.is_even_integral()
    half = alg.element(*([Fraction(1, 2)] * 4))
    assert order.contains(half)
    assert order.level == (2, 1)


def test_split_maximal_order_selfdual():
    alg = construct_algebra(1)
    order = maximal_order(alg)
    assert abs(order.gram_det()) == 1
    assert dual_lattice(order) == order


@pytest.mark.parametrize("d,target", [(3, 9), (5, 25), (6, 36), (10, 100), (30, 900)])
def test_maximal_orders_certificates(d, target):
    alg = construct_algebra(d)
    order = maximal_order(alg)
    assert abs(order.gram_det()) == target
    assert order.is_order()
    assert order.is_even_integral()


def test_dual_examples():
    alg = construct_algebra(2)
    order = maximal_order(alg)
    dual = dual_lattice(order)
    assert index_in(order, dual) == 4
    assert dual_lattice(dual) == order
    # rank-deficient input is rejected before any Gram is formed
    with pytest.raises(ValueError):
        OrderLattice.from_rows(
            construct_algebra(1),
            [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [2, 0, 0, 0]])


def test_eichler_orders():
    alg = construct_algebra(2)
    omax = maximal_order(alg)
    assert eichler_order(omax, 1) == omax
    e3 = eichler_order(omax, 3)
    assert abs(e3.gram_det()) == 36
    assert index_in(e3, omax) == 3
    assert e3.level == (2, 3)
    assert e3.is_order() and e3.is_even_integral()
    e15 = eichler_order(omax, 15)
    assert abs(e15.gram_det()) == 900 and index_in(e15, omax) == 15
    with pytest.raises(ValueError):
        eichler_order(omax, 2)  # level must be coprime to the discriminant
    with pytest.raises(ValueError, match="positive"):
        eichler_order(omax, 0)


def test_eichler_split_model():
    omax = maximal_order(construct_algebra(1))
    for n in (2, 3, 5):
        en = eichler_order(omax, n)
        assert index_in(en, omax) == n
        assert abs(en.gram_det()) == n * n


def test_local_splitting_frames():
    alg = construct_algebra(2)
    omax = maximal_order(alg)
    for p, k in [(3, 1), (3, 3), (5, 1), (7, 2)]:
        frame = local_splitting(omax, p, k)
        mod = p ** k
        one = omax.coordinates(alg.one())
        e11, e12 = frame.units[0]
        e21, e22 = frame.units[1]
        assert tuple((a + b) % mod for a, b in zip(e11, e22)) == \
            tuple(int(c) % mod for c in one)
        # entry functionals reproduce matrix coordinates of the identity
        assert frame.coord(tuple(int(c) for c in one), 0, 0) == 1 % mod
        assert frame.coord(tuple(int(c) for c in one), 1, 0) == 0
    with pytest.raises(ValueError):
        local_splitting(omax, 2, 1)  # ramified prime: no splitting


def test_local_splitting_homomorphism():
    alg = construct_algebra(3)
    omax = maximal_order(alg)
    table = multiplication_table(omax)
    frame = local_splitting(omax, 5, 2)
    mod = 25
    random.seed(5)
    from quatmatch.orders import _vec_mul
    for _ in range(40):
        x = tuple(random.randrange(mod) for _ in range(4))
        y = tuple(random.randrange(mod) for _ in range(4))
        xy = _vec_mul(table, x, y, mod)
        mx = [[frame.coord(x, i, j) for j in range(2)] for i in range(2)]
        my = [[frame.coord(y, i, j) for j in range(2)] for i in range(2)]
        prod = [[sum(mx[i][t] * my[t][j] for t in range(2)) % mod
                 for j in range(2)] for i in range(2)]
        assert prod == [[frame.coord(xy, i, j) for j in range(2)] for i in range(2)]


def test_serialization_roundtrip():
    alg = construct_algebra(2)
    omax = maximal_order(alg)
    e3 = eichler_order(omax, 3)
    # den, then the 4x4 HNF numerators row by row (`classset` prints this)
    text = e3.to_text()
    assert text == "2 1 1 1 3 0 2 0 4 0 0 2 2 0 0 0 6"
    den, *cells = (int(x) for x in text.split())
    rows = [[Fraction(x, den) for x in cells[4 * r:4 * r + 4]] for r in range(4)]
    assert OrderLattice.from_rows(alg, rows) == e3


def test_multiplication_table_integrality():
    alg = construct_algebra(5)
    omax = maximal_order(alg)
    table = multiplication_table(omax)
    assert len(table) == 4 and all(len(row) == 4 for row in table)
    # the standard order Z<1,i,j,k> is closed as well
    std = standard_order(alg)
    multiplication_table(std)


def test_lattice_product_is_ideal_product():
    alg = construct_algebra(2)
    omax = maximal_order(alg)
    prod = lattice_product(omax, omax)
    assert prod == omax
