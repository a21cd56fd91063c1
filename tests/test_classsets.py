import hashlib
import pathlib
import random
from fractions import Fraction

import pytest

from quatmatch import classsets, verifycli
from quatmatch.orders import (
    OrderLattice,
    conjugate_lattice,
    eichler_order,
    lattice_product,
    maximal_order,
)
from quatmatch.quatalg import construct_algebra
from quatmatch.classsets import (
    class_set_for,
    genus_theta,
    ideal_class_set,
    ideals_equivalent,
    make_right_ideal,
    mass_formula,
    p_neighbors,
    pair_gram,
    theta_counts,
    unit_weight,
)

from genus_reference import (
    as_even,
    automorphism_count,
    basis,
    contains,
    det4,
    element,
    from_rows,
    genus_closed_under_neighbors,
    genus_lattices,
    isometric,
    kneser_neighbors,
    list_vectors,
    q_gram,
    reference_genus_theta,
    reference_theta_counts,
)


def _as_root_ideal(order):
    return make_right_ideal(
        from_rows(order.algebra, [u.coords for u in basis(order)]), order)


def sigma_odd(m):
    return sum(d for d in range(1, m + 1) if m % d == 0 and d % 2)


def test_hurwitz_counts():
    order = maximal_order(construct_algebra(2))
    e = order.even_gram()
    assert theta_counts(e, 1)[1] == 24
    assert theta_counts(e, 2)[2] == 24
    assert theta_counts(e, 3)[3] == 96
    assert theta_counts(e, 3) == [1, 24, 24, 96]
    assert theta_counts(e, 0)[0] == 1
    assert unit_weight(order) == 12


def test_counts_match_divisor_formula():
    order = maximal_order(construct_algebra(2))
    theta = theta_counts(order.even_gram(), 40)
    for m in range(1, 41):
        assert theta[m] == 24 * sigma_odd(m)


def test_sums_of_four_squares_are_jacobis_count():
    # Q = x1^2 + ... + x4^2: every offset U_ij is 0, so each coordinate's
    # range is symmetric and the x, -x halving alone decides what is visited
    E = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    theta = theta_counts(E, 60)
    assert theta[0] == 1
    for m in range(1, 61):
        assert theta[m] == 8 * sum(d for d in range(1, m + 1)
                                   if m % d == 0 and d % 4), m


def _scrambled_hurwitz_forms():
    """The Hurwitz Q-Gram and five images under random unimodular maps."""
    qg = q_gram(maximal_order(construct_algebra(2)))
    random.seed(3)
    forms = []
    for _ in range(5):
        # random unimodular transform built from elementary row operations
        u = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        for _ in range(8):
            i, j = random.sample(range(4), 2)
            c = random.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        assert abs(det4(u)) == 1
        forms.append([[sum(u[i][a] * qg[a][b] * u[j][b]
                           for a in range(4) for b in range(4))
                       for j in range(4)] for i in range(4)])
    return qg, forms


def test_count_vectors_basis_change_invariance():
    qg, forms = _scrambled_hurwitz_forms()
    for scrambled in forms:
        for m in (1, 2, 5):
            assert theta_counts(as_even(scrambled), m)[m] == theta_counts(as_even(qg), m)[m]


def test_list_vectors_consistency():
    order = maximal_order(construct_algebra(3))
    for m in (1, 2, 3):
        vecs = list_vectors(order, m)
        assert len(vecs) == theta_counts(order.even_gram(), m)[m]
        for v in vecs:
            x = sum((b * int(c) for b, c in zip(basis(order), v)),
                    element(order.algebra, 0))
            assert x.reduced_norm() == m


def test_non_positive_definite_rejected():
    order = maximal_order(construct_algebra(6))  # indefinite norm form
    with pytest.raises(ValueError):
        theta_counts(order.even_gram(), 1)[1]


@pytest.mark.parametrize("E", [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # odd diagonal
    [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],  # not symmetric
])
def test_theta_counts_requires_an_even_gram(E):
    # the identity used to give [1, 24, 24, 96], dropping the odd values
    with pytest.raises(ValueError, match="even Gram"):
        theta_counts(E, 3)


def _random_even_grams(count, seed):
    """Positive definite even Grams: a random symmetric matrix with an even
    diagonal, kept if its leading minors are positive, then moved by a
    random unimodular map so that the off-diagonal entries are large."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        e = [[0] * 4 for _ in range(4)]
        for i in range(4):
            e[i][i] = 2 * rng.randint(1, 6)
            for j in range(i):
                e[i][j] = e[j][i] = rng.randint(-3, 3)
        if min(det4([row[:k] for row in e[:k]]) for k in range(1, 5)) <= 0:
            continue
        u = [[int(i == j) for j in range(4)] for i in range(4)]
        for _ in range(6):
            i, j = rng.sample(range(4), 2)
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        forms.append([[sum(u[i][a] * e[a][b] * u[j][b]
                           for a in range(4) for b in range(4))
                       for j in range(4)] for i in range(4)])
    return forms


def test_halved_enumeration_on_random_forms():
    # theta_counts visits one vector of each pair x, -x; the reference
    # enumerator in tests/ visits both
    for e in _random_even_grams(50, seed=27):
        counts = theta_counts(e, 20)
        qgram = [[Fraction(x, 2) for x in row] for row in e]
        assert counts == reference_theta_counts(qgram, 20), e
        assert counts[0] == 1 and all(r % 2 == 0 for r in counts[1:]), e


def test_unit_weight_generic_large_prime():
    order = maximal_order(construct_algebra(13))
    assert unit_weight(order) == 1  # only the units +-1


MASS_GRID = [(2, 1, Fraction(1, 12)), (3, 1, Fraction(1, 6)),
             (2, 3, Fraction(1, 3)), (3, 2, Fraction(1, 2)),
             (5, 1, Fraction(1, 3)), (2, 5, Fraction(1, 2)),
             (30, 1, Fraction(2, 3))]


@pytest.mark.parametrize("D,N,mass", MASS_GRID)
def test_mass_formula_values(D, N, mass):
    assert mass_formula(D, N) == mass


def test_class_sets_meet_mass(pool):
    for D, N, mass in MASS_GRID:
        cs = pool.get(D, N)
        assert cs.mass == mass
        assert sum(Fraction(1, w) for w in cs.weights) == mass


def test_class_numbers(pool):
    assert pool.get(2, 1).class_number == 1
    assert pool.get(3, 1).class_number == 1
    assert pool.get(30, 1).class_number == 2
    assert pool.get(30, 1).weights == [3, 3]


def test_neighbors_hurwitz():
    order = maximal_order(construct_algebra(2))
    root = _as_root_ideal(order)
    nbs = p_neighbors(root, 3)
    assert len(nbs) == 4
    for nb in nbs:
        assert nb.nrd == 3
        assert all(contains(nb.lattice, u * v)
                   for u in basis(nb.lattice) for v in basis(order))
        assert ideals_equivalent(nb, root)


def test_neighbors_split_desk_model():
    order = maximal_order(construct_algebra(1))
    root = _as_root_ideal(order)
    assert len(p_neighbors(root, 2)) == 3


def test_neighbor_prime_guard(pool):
    cs = pool.get(2, 3)
    with pytest.raises(ValueError):
        p_neighbors(cs.representatives[0], 3)


def test_equivalence_reflexive_and_distinct(pool):
    cs30 = pool.get(30, 1)
    a, b = cs30.representatives
    assert ideals_equivalent(a, a)
    assert ideals_equivalent(b, b)
    assert not ideals_equivalent(a, b)


def test_left_order_weights(pool):
    cs30 = pool.get(30, 1)
    for ideal, w in zip(cs30.representatives, cs30.weights):
        assert unit_weight(ideal.left_order) == w


def test_genus_lattice_invariants(pool):
    for D, N in [(2, 3), (3, 2), (30, 1)]:
        cs = pool.get(D, N)
        for (i, j), qg in genus_lattices(cs).items():
            bil = [[qg[a][b] + qg[b][a] for b in range(4)] for a in range(4)]
            assert det4(bil) == (D * N) ** 2
            for a in range(4):
                assert qg[a][a].denominator == 1  # even integral (Q in Z)
                for b in range(4):
                    assert bil[a][b].denominator == 1
            assert theta_counts(as_even(qg), 0)[0] == 1  # positive definite, min >= 1
            if i == j:
                assert theta_counts(as_even(qg), 1)[1] == 2 * cs.weights[i]


def test_genus_average_frozen_values(pool):
    cs21 = pool.get(2, 1)
    assert genus_theta(cs21, 1)[1] == 24
    assert genus_theta(cs21, 5)[5] == 144
    assert genus_theta(pool.get(2, 3), 1)[1] == 6
    assert genus_theta(pool.get(3, 2), 1)[1] == 4
    assert genus_theta(pool.get(30, 1), 1)[1] == 3
    assert genus_theta(pool.get(30, 1), 7)[7] == 24


def test_theta_qexpansion(pool):
    order = maximal_order(construct_algebra(2))
    assert theta_counts(order.even_gram(), 3) == [1, 24, 24, 96]
    cs = pool.get(2, 1)
    assert genus_theta(cs, 3) == [1, 24, 24, 96]  # H = 1 genus
    assert genus_theta(cs, 0) == [1]


# (5, 7), (11, 3), (17, 2) and (7, 5) have four classes each; (23, 1) and
# (7, 5) need two p-neighbor layers
AUT_GRID = [(2, 1, 3), (2, 3, 3), (3, 2, 3), (5, 1, 3), (30, 1, 3),
            (5, 7, 5), (11, 3, 5), (17, 2, 5), (23, 1, 3), (7, 5, 3)]


def test_pair_weighted_equals_aut_weighted(pool):
    # production (pair-lattice) average against the 1/|Aut| reference
    for D, N, mmax in AUT_GRID:
        cs = pool.get(D, N)
        assert genus_theta(cs, mmax) == reference_genus_theta(cs, mmax), (D, N)


def test_theta_counts_match_rational_enumerator(pool):
    # the integer enumeration against the Fraction one kept in tests/
    forms = [qg for D, N, _m in AUT_GRID
             for qg in genus_lattices(pool.get(D, N)).values()]
    qg, scrambled = _scrambled_hurwitz_forms()
    for form in forms + [qg] + scrambled:
        assert theta_counts(as_even(form), 20) == reference_theta_counts(form, 20)


def test_multilayer_class_sets(pool):
    # both used to stop with "neighbor does not have index p^2"
    for D, N, h in [(23, 1, 3), (7, 5, 4)]:
        cs = pool.get(D, N)
        assert cs.class_number == h
        assert sum(Fraction(1, w) for w in cs.weights) == cs.mass == mass_formula(D, N)
        for ideal, w in zip(cs.representatives, cs.weights):
            assert unit_weight(ideal.left_order) == w


@pytest.mark.parametrize("D,N", [(7, 5), (11, 2), (2, 9), (3, 4), (2, 15), (5, 6)])
def test_class_set_from_every_left_order(D, N, pool):
    # a left order is an Eichler order of the same level, in the same genus:
    # its class set has the same mass, weights and genus average
    cs = pool.get(D, N)
    for ideal in cs.representatives:
        other = ideal_class_set(ideal.left_order)
        assert (other.D, other.N) == (D, N)
        assert other.mass == cs.mass
        assert other.class_number == cs.class_number
        assert sorted(other.weights) == sorted(cs.weights)
        assert genus_theta(other, 10) == genus_theta(cs, 10)


def test_left_order_built_once_per_class(monkeypatch):
    # each class's left order is built, and certified by is_order, once:
    # its unit weight and its neighbours read the same one
    order = eichler_order(maximal_order(construct_algebra(7)), 5)
    checked = []
    is_order = OrderLattice.is_order

    def counting(lat):
        checked.append(lat)
        return is_order(lat)

    monkeypatch.setattr(OrderLattice, "is_order", counting)
    cs = ideal_class_set(order)
    assert cs.class_number == 4
    assert len(checked) == cs.class_number
    assert set(checked) == {ideal.left_order for ideal in cs.representatives}


def test_genus_theta_memo(monkeypatch):
    calls = []
    counted = classsets.theta_counts

    def counting(*args):
        calls.append(args[1])
        return counted(*args)

    monkeypatch.setattr(classsets, "theta_counts", counting)
    cs = class_set_for(2, 3)
    first = genus_theta(cs, 50)
    expected = list(first)
    n_first = len(calls)
    assert n_first > 0
    second = genus_theta(cs, 30)
    assert len(calls) == n_first  # served from the memo
    assert second == expected[:31]
    first[1] = second[2] = -1
    assert genus_theta(cs, 50) == expected
    assert genus_theta(cs, 30) == expected[:31]
    longer = genus_theta(cs, 60)
    assert len(calls) > n_first and calls[-1] == 60
    assert longer == genus_theta(class_set_for(2, 3), 60)


def test_traversal_prime_independence():
    order = eichler_order(maximal_order(construct_algebra(30)), 1)
    cs_a = ideal_class_set(order, traversal_prime=7)
    cs_b = ideal_class_set(order, traversal_prime=11)
    for m in range(1, 8):
        assert genus_theta(cs_a, m)[m] == genus_theta(cs_b, m)[m]


@pytest.mark.parametrize("p", [9, 4, -5, 0])
def test_traversal_prime_rejected(p):
    # two prime squares, a negative and zero: none is a prime
    order = eichler_order(maximal_order(construct_algebra(23)), 1)
    with pytest.raises(ValueError, match=r"prime coprime to D\*N = 23, got %d$" % p):
        ideal_class_set(order, traversal_prime=p)


@pytest.mark.parametrize("D,N", [(19, 6), (7, 5)])
def test_traversal_stops_at_mass(D, N, monkeypatch):
    # once the last class is weighed the mass is met: no further pair test
    log = []
    for name in ("ideals_equivalent", "unit_weight"):
        def logged(*args, _name=name, _fn=getattr(classsets, name)):
            log.append(_name)
            return _fn(*args)
        monkeypatch.setattr(classsets, name, logged)
    cs = class_set_for(D, N)
    assert log.count("unit_weight") == cs.class_number
    assert "ideals_equivalent" in log
    assert log[-1] == "unit_weight"


def test_traversal_exhausted_raises(monkeypatch):
    # every neighbour read as a known class: the queue empties below the mass
    monkeypatch.setattr(classsets, "ideals_equivalent", lambda a, b: True)
    with pytest.raises(ArithmeticError,
                       match=r"\(D, N\) = \(23, 1\) at p = 2 ran out"):
        class_set_for(23, 1)


# SHA-256 of `quatmatch classset --D D --N N` stdout: representatives,
# weights and genus theta, byte for byte
CLASSSET_DIGESTS = {
    (19, 6): "983ec55d1882fff449d476c8b06a9d9b221637cb5ac5fa71d1df7a089bfd080b",
    (11, 10): "8caa072db7c1eaaf13a0da4400fa6835cf64393c3a9697bceb06c29b7b3b7c03",
    (23, 1): "ef9aff2f8fa2a8097247e1c25695f9c76edd2f34da192df2aaaef4fc5a4d2ed0",
    (30, 1): "34f6203956b6d52b4ad00d109ab742b27790bcf5d4ae57ace34057c32f8bfdee",
    (2, 9): "1b8452894c4b6cd9386ad9adc70bbe1fc788cab22e72359e2bfd266ee5b2f7b3",
    # p^2 | N: the Newton lift in local_splitting runs (the grid has none)
    (3, 4): "db4f01e3b491c59acca0386cda3286e24b5cddf26db008d3156c3df928f85934",
    (3, 8): "fe122e1db8804d10d9e42b768a49c860327b3fb6056858368b6d0ed42405ee8d",
    (7, 9): "d1e66f4c7432374902fcadaf49d3c2bad6bfe0f7d382b04873ed0c580592d423",
    (2, 27): "d7e913376de14100ffd898f0af0bd25a4595e073bf6ad3b7cc1657dc355fbd38",
    (2, 25): "d161fafa21ed317f1b990a7b9571b71dd56c48df44bac686cc6035fb732267a3",
    (7, 4): "ba09202c4df603ddde4812cbd90d68b0ea524066b5205db773e28628aa360d16",
    (42, 1): "0a96c82d0642f6a14b08ba41e7dfcba5ac679bcb851fb516d76bc6190ac88b4d",
    # a prime square times another prime: eichler_order's CRT join of p^k || N
    (5, 12): "84420c24e061605d9e10f86f39e50ab606939c3bf07ff8a3072e5090fd87db1a",
    (3, 20): "636f4bebd0c005c713395a6d9ff0716458e46e9a7c19892385cf053665bca41f",
    (7, 12): "0d9a09800de3d4f34f64671643f6c271323039ee1014a1c210f56face44929da",
    (2, 45): "9ff58e8f875167c95aacdf896bd16a46cc95e440daf4a2fee3a80bd735773abb",
    (5, 18): "f4b5f2fe24f8cf718c48866d47ec7a34b78171484947dce84ba3c374eb49d9cc",
}


@pytest.mark.parametrize("D,N", sorted(CLASSSET_DIGESTS))
def test_classset_output_pinned(D, N, capsys):
    assert verifycli.main(["classset", "--D", str(D), "--N", str(N)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSSET_DIGESTS[D, N]


def test_grid_digests_file():
    # CI runs `sha256sum -c` on this file over the 87-set grid's stdout
    path = pathlib.Path(__file__).with_name("classset_grid.sha256")
    digests = {name: h for h, name in
               (line.split() for line in path.read_text().splitlines())}
    assert set(digests) == {"%d-%d.txt" % (D, N)
                            for D in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
                            for N in (1, 2, 3, 5, 6, 7, 10, 11) if N % D}
    for (D, N), h in CLASSSET_DIGESTS.items():
        assert digests.get("%d-%d.txt" % (D, N), h) == h


def test_genus_closure_under_kneser_neighbors(pool):
    assert genus_closed_under_neighbors(pool.get(2, 3), 5)
    assert genus_closed_under_neighbors(pool.get(30, 1), 7)


def test_kneser_neighbors_stay_in_genus(pool):
    cs = pool.get(3, 2)
    root = cs.representatives[0]
    root_form = [[Fraction(x, 2) for x in row] for row in pair_gram(root, root)]
    for nb in kneser_neighbors(root_form, 5)[:4]:
        bil = [[nb[a][b] + nb[b][a] for b in range(4)] for a in range(4)]
        assert det4(bil) == 36


def test_isometry_and_automorphisms():
    hurwitz = maximal_order(construct_algebra(2))
    qg = q_gram(hurwitz)
    assert automorphism_count(qg) == 1152  # the root lattice of 24 unit vectors
    assert isometric(qg, qg)
    other = q_gram(maximal_order(construct_algebra(3)))
    assert not isometric(qg, other)


def test_even_gram_certificate(pool):
    # E = gram / (den^2 scale) must be integral with an even diagonal
    a, b = pool.get(30, 1).representatives
    pair = lattice_product(b.lattice, conjugate_lattice(a.lattice))
    assert pair.even_gram(a.nrd * b.nrd) == pair_gram(a, b)
    with pytest.raises(ArithmeticError):
        pair.even_gram(2 * a.nrd * b.nrd)
    # Z<(1+i)/2, 1, j, k>: (x, y) is integral, but nrd((1+i)/2) = 1/2
    half = Fraction(1, 2)
    odd = from_rows(construct_algebra(2), [[half, half, 0, 0], [1, 0, 0, 0],
                                           [0, 0, 1, 0], [0, 0, 0, 1]])
    assert all(x % odd.den ** 2 == 0 for row in odd.gram() for x in row)
    with pytest.raises(ArithmeticError):
        odd.even_gram()


def test_requires_definite(pool):
    indefinite = maximal_order(construct_algebra(6))
    with pytest.raises(ValueError):
        ideal_class_set(indefinite)
    with pytest.raises(ValueError):
        unit_weight(indefinite)

