import itertools
import random
from fractions import Fraction

import pytest

from quatmatch.quatalg import construct_algebra
from quatmatch.orders import (
    _coordinates,
    _multiplicative_closure,
    _vec_mul,
    conjugate_lattice,
    eichler_order,
    index_in,
    lattice_product,
    lattice_sum,
    local_splitting,
    maximal_order,
    multiplication_table,
    standard_order,
    sublattice,
)

from genus_reference import (
    basis,
    contains,
    coordinates,
    det4,
    dual_lattice,
    element,
    from_rows,
)


def _even_integral(lat):
    """nrd is integral on the lattice: `even_gram` certifies it or raises."""
    try:
        lat.even_gram()
    except ArithmeticError:
        return False
    return True


def _matrix(f, x, mod):
    """The residue matrix of the coordinate vector x under the functionals f."""
    return [[sum(a * c for a, c in zip(f[i][j], x)) % mod for j in range(2)]
            for i in range(2)]


def test_hurwitz_maximal_order():
    alg = construct_algebra(2)
    order = maximal_order(alg)
    assert abs(order.gram_det()) == 4
    assert order.is_order() and _even_integral(order)
    half = element(alg, *([Fraction(1, 2)] * 4))
    assert contains(order, half)
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
    assert _even_integral(order)


@pytest.mark.parametrize("d,pair", [(1009, (-11, -1009)), (2018, (11, 2018)),
                                    (6054, (-13, -6054)), (10007, (-1, -10007))])
def test_maximal_order_for_a_prime_above_the_search_bound(d, pair):
    # no pair with |a|, |b| <= 1000 ramifies at a prime above 1000: the
    # constants come from b = -D (definite) or b = +-D (indefinite)
    alg = construct_algebra(d)
    assert (alg.a, alg.b) == pair and alg.discriminant == d
    order = maximal_order(alg)
    assert abs(order.gram_det()) == d * d
    assert order.is_order()
    assert _even_integral(order)


def test_dual_examples():
    alg = construct_algebra(2)
    order = maximal_order(alg)
    dual = dual_lattice(order)
    assert index_in(order, dual) == 4
    assert dual_lattice(dual) == order
    # rank-deficient input is rejected before any Gram is formed
    with pytest.raises(ValueError):
        from_rows(
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
    assert e3.is_order() and _even_integral(e3)
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
        f = local_splitting(omax, p, k)
        one = [int(c) for c in coordinates(omax, element(alg, 1))]
        # the identity maps to the identity matrix
        assert _matrix(f, one, p ** k) == [[1, 0], [0, 1]]
        # the four entry functionals are independent mod p: O/pO ~ M_2(F_p)
        assert det4([list(f[i][j]) for i in range(2) for j in range(2)]) % p
    with pytest.raises(ValueError):
        local_splitting(omax, 2, 1)  # ramified prime: no splitting


def test_local_splitting_homomorphism():
    alg = construct_algebra(3)
    omax = maximal_order(alg)
    table = multiplication_table(omax)
    f = local_splitting(omax, 5, 2)
    mod = 25
    random.seed(5)
    for _ in range(40):
        x = tuple(random.randrange(mod) for _ in range(4))
        y = tuple(random.randrange(mod) for _ in range(4))
        xy = _vec_mul(table, x, y, mod)
        mx, my = _matrix(f, x, mod), _matrix(f, y, mod)
        prod = [[sum(mx[i][t] * my[t][j] for t in range(2)) % mod
                 for j in range(2)] for i in range(2)]
        assert prod == _matrix(f, xy, mod)


def _first_idempotent_by_products(order, p):
    """The reference search: the lexicographically first of all p^4 residues
    x mod p, other than 0 and 1, with x*x = x by the multiplication table."""
    table = multiplication_table(order)
    one = tuple(c % p for c in coordinates(order, element(order.algebra, 1)))
    for x in itertools.product(range(p), repeat=4):
        if any(x) and x != one and _vec_mul(table, x, x, p) == x:
            return x
    return None


@pytest.mark.parametrize("D", [2, 3, 5, 7, 11, 13, 19, 37, 61, 6, 10, 30, 42, 1009])
def test_trace_norm_scan_finds_the_first_idempotent(D):
    # the frame's e11 is the scan's idempotent, so the reference idempotent
    # reads diag(1, 0) exactly when the two searches agree
    omax = maximal_order(construct_algebra(D))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if D % p:
            ref = _first_idempotent_by_products(omax, p)
            assert _matrix(local_splitting(omax, p), ref, p) == [[1, 0], [0, 0]]


def test_local_splitting_needs_an_odd_trace_at_2():
    # every trace of Z<1, i, j, k> is even, so it has no idempotent of trace 1 mod 2
    with pytest.raises(ArithmeticError, match="trace"):
        local_splitting(standard_order(construct_algebra(3)), 2)


def test_serialization_roundtrip():
    alg = construct_algebra(2)
    omax = maximal_order(alg)
    e3 = eichler_order(omax, 3)
    # den, then the 4x4 HNF numerators row by row (`classset` prints this)
    text = e3.to_text()
    assert text == "2 1 1 1 3 0 2 0 4 0 0 2 2 0 0 0 6"
    den, *cells = (int(x) for x in text.split())
    rows = [[Fraction(x, den) for x in cells[4 * r:4 * r + 4]] for r in range(4)]
    assert from_rows(alg, rows) == e3


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


# ---------------------------------------------------------------------------
# the integer-HNF lattice operations against their element-wise definitions

def _random_lattices(alg, rng, count):
    """Random full-rank lattices: rational ones over small denominators and
    integer sublattices of the maximal order (which are even integral).

    The list starts with two fixed ones: Z<(1+i)/2, 1, j, k>, whose Gram is
    integral with the odd diagonal entry (1 - a)/2 = 1 (all algebras here
    have a = -1), and Z<1, i, j, 2k>, which has 1 and integral trd and nrd
    on its basis but is no order (ij = k).
    """
    omax = maximal_order(alg)
    half = Fraction(1, 2)
    out = [omax, standard_order(alg),
           from_rows(alg, [[half, half, 0, 0], [1, 0, 0, 0],
                           [0, 0, 1, 0], [0, 0, 0, 1]]),
           sublattice(standard_order(alg), [[1, 0, 0, 0], [0, 1, 0, 0],
                                            [0, 0, 1, 0], [0, 0, 0, 2]])]
    while len(out) < count:
        coeffs = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if det4(coeffs) == 0:
            continue
        if len(out) % 2:
            out.append(sublattice(omax, coeffs))
        else:
            den = rng.randint(1, 4)
            out.append(from_rows(
                alg, [[Fraction(c, den) for c in row] for row in coeffs]))
    return out


def _inverse(m):
    """Inverse of a small rational matrix by cofactors."""
    n, d = len(m), det4(m)
    return [[(-1) ** (i + j) * Fraction(det4(
        [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j]), d)
        for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("D", [2, 3, 6])
def test_integer_lattice_operations(D):
    alg = construct_algebra(D)
    rng = random.Random(D)
    lats = _random_lattices(alg, rng, 10)
    for a, b in zip(lats, lats[1:] + lats[:1]):
        ea, eb = basis(a), basis(b)
        assert lattice_product(a, b) == from_rows(
            alg, [(u * v).coords for u in ea for v in eb])
        assert conjugate_lattice(a) == from_rows(
            alg, [u.conjugate().coords for u in ea])
        rng.choice([-3, -1, 2, 5]), rng.randint(1, 6)  # keep the draw sequence fixed
        assert lattice_sum(a, b) == from_rows(
            alg, [u.coords for u in ea + eb])
        coeffs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        if det4(coeffs):
            assert sublattice(a, coeffs) == from_rows(
                alg, [[sum(k[t] * ea[t].coords[col] for t in range(4))
                       for col in range(4)] for k in coeffs])


@pytest.mark.parametrize("D", [2, 3, 6])
def test_integer_lattice_invariants(D):
    alg = construct_algebra(D)
    rng = random.Random(10 + D)
    lats = _random_lattices(alg, rng, 12) + [eichler_order(maximal_order(alg), 5)]
    assert alg.a == -1
    even, integral = [], []
    for a, b in zip(lats, lats[1:] + lats[:1]):
        assert all(x % 2 == 0 for row in a.gram() for x in row)
        gram = [[Fraction(x, a.den ** 2) for x in row] for row in a.gram()]
        assert a.gram_det() == det4(gram)
        ea = basis(a)
        rows = [u.coords for u in ea]
        assert index_in(a, b) == abs(Fraction(det4(rows))
                                     / det4([u.coords for u in basis(b)]))
        x = element(alg, *(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(4)))
        coords = coordinates(a, x)
        assert sum((u * c for u, c in zip(ea, coords)),
                   element(alg, 0)) == x
        gram_inv = _inverse(gram)
        assert dual_lattice(a) == from_rows(
            alg, [[sum(gram_inv[r][k] * rows[k][col] for k in range(4))
                   for col in range(4)] for r in range(4)])
        pair_sums = [ea[r] + ea[s] for r in range(4) for s in range(r + 1, 4)]
        expected = all(u.reduced_norm().denominator == 1 for u in ea + pair_sums)
        assert _even_integral(a) == expected
        even.append(expected)
        integral.append(all(x.denominator == 1 for row in gram for x in row))
        assert a.is_order() == (
            contains(a, element(alg, 1))
            and all(u.reduced_trace().denominator == 1
                    and u.reduced_norm().denominator == 1 for u in ea)
            and all(contains(a, u * v) for u in ea for v in ea))
    # even, integral with an odd diagonal, and not integral all occur
    assert any(even) and any(i and not e for i, e in zip(integral, even))
    assert not all(integral)


@pytest.mark.parametrize("D", [2, 3, 6])
def test_integer_coordinates(D):
    # `_coordinates` is the one exact solve: integer forward substitution
    # that raises off the lattice, checked against the Fraction reference
    alg = construct_algebra(D)
    rng = random.Random(20 + D)
    for lat in _random_lattices(alg, rng, 10):
        for _ in range(5):
            c = tuple(rng.randint(-9, 9) for _ in range(4))
            v = [sum(c[r] * lat.mat[r][k] for r in range(4)) for k in range(4)]
            den = rng.randint(1, 6)
            x = element(alg, *(Fraction(t, lat.den) for t in v))
            assert _coordinates(lat, [den * t for t in v], den * lat.den) == c
            assert tuple(coordinates(lat, x)) == c
            # a random rational vector: integer coordinates or ValueError
            w = [rng.randint(-20, 20) for _ in range(4)]
            ref = coordinates(lat, element(alg, *(Fraction(t, den) for t in w)))
            if all(r.denominator == 1 for r in ref):
                assert _coordinates(lat, w, den) == tuple(ref)
            else:
                with pytest.raises(ValueError):
                    _coordinates(lat, w, den)
        # b_3 / 2 is never in the lattice
        with pytest.raises(ValueError):
            _coordinates(lat, lat.mat[3], 2 * lat.den)


def test_multiplication_table_needs_closure():
    alg = construct_algebra(2)
    # Z<1, i, j, 2k> holds 1 but not ij = k
    not_closed = _random_lattices(alg, random.Random(0), 4)[3]
    with pytest.raises(ValueError):
        multiplication_table(not_closed)
    assert not not_closed.is_order()


def test_closure_rejects_non_integral_lattice():
    # Z<1, i, j, k, (1+i)/2> in B(2): its square term i/2 has nrd 1/4
    alg = construct_algebra(2)
    rows = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2], [1, 1, 0, 0]]
    assert _multiplicative_closure(alg, 2, rows) is None
    assert element(alg, 0, Fraction(1, 2)).reduced_norm() == Fraction(1, 4)
