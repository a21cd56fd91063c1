import collections
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from quatmatch import heckedeg
from quatmatch.exactnum import valuation
from quatmatch.matrices import hnf_rows
from quatmatch.heckedeg import (
    deg_T,
    degree_column,
    local_degree,
    oracle_local_orbits,
    volume,
)
from quatmatch.quatalg import ramified_model
from quatmatch.verifycli import (ClassSetPool, TheoremCase, _column,
                                 default_suite_cases)


def test_volume_values():
    assert volume(6, 1) == Fraction(-1, 6)
    assert volume(10, 1) == Fraction(-1, 3)
    assert volume(6, 5) == Fraction(-1)
    assert volume(10, 3) == Fraction(-4, 3)
    assert volume(6, 1) * 12 == Fraction(-2)  # value lies in (1/12) Z


def test_volume_guards():
    for bad in [(1, 1), (2, 1), (30, 1), (4, 1)]:
        with pytest.raises(ValueError):
            volume(*bad)
    with pytest.raises(ValueError):
        volume(6, 2)  # level shares a factor with D


def test_local_factor_values():
    assert local_degree("split", 5, 1) == 6
    assert local_degree("split", 2, 3) == 15
    assert local_degree("split", 7, 0) == 1
    assert local_degree("level", 2, 1) == 5
    assert local_degree("level", 5, 1) == 11
    assert local_degree("level", 3, 2) == 13 + 3 * 4
    assert local_degree("level", 7, 0) == 1
    assert local_degree("ramified", 2, 1) == 1
    assert local_degree("ramified", 3, 5) == 1


def test_local_degree_rejects_unknown_pattern():
    with pytest.raises(ValueError, match="unknown local pattern"):
        local_degree("inert", 3, 1)
    with pytest.raises(ValueError):
        local_degree("split", 3, -1)


def test_deg_values():
    assert deg_T(6, 1, 1) == 1
    assert deg_T(6, 1, 5) == 6
    assert deg_T(6, 1, 2) == 1
    assert deg_T(6, 1, 3) == 1
    assert deg_T(6, 5, 5) == 11
    assert deg_T(6, 5, 25) == 61
    assert deg_T(6, 1, 35) == 48
    with pytest.raises(ValueError):
        deg_T(2, 1, 5)  # odd number of prime factors
    assert deg_T(6, 25, 7) == 8  # p^2 | N is checked only at the primes of m
    with pytest.raises(ValueError):
        deg_T(6, 25, 5)  # non-squarefree level factor
    with pytest.raises(ValueError, match="positive"):
        deg_T(6, 0, 2)  # N = 0 is not a level, whatever gcd(D, N) says


def test_deg_multiplicative():
    pairs = [(m1, m2) for m1 in range(1, 16) for m2 in range(1, 16)
             if math.gcd(m1, m2) == 1]
    for m1, m2 in pairs:
        assert deg_T(6, 1, m1 * m2) == deg_T(6, 1, m1) * deg_T(6, 1, m2)
        assert deg_T(10, 3, m1 * m2) == deg_T(10, 3, m1) * deg_T(10, 3, m2)


def _r_prime(D, N, m_max):
    """[r'(1), ..., r'(m_max)] from the integer column that verify sums."""
    nums, den = _column("r'", D, N, m_max, ClassSetPool())
    assert den > 0
    return [None] + [Fraction(n, den) for n in nums]


def test_r_prime_values_and_signs():
    assert _r_prime(6, 1, 5)[1] == -12
    assert _r_prime(6, 1, 5)[5] == -72
    assert _r_prime(6, 5, 1)[1] == -2
    assert _r_prime(10, 3, 1)[1] == Fraction(-3, 2)
    for D in (6, 10):
        assert all(value < 0 for value in _r_prime(D, 1, 39)[1:])


def test_r_prime_is_twice_the_degree_over_the_volume():
    # the column is 2*vol.den*deg over vol.num with the sign moved to the
    # numerators; the quotient of Fractions is the reference
    for D, N in [(6, 1), (6, 5), (6, 35), (10, 3), (14, 15), (15, 7),
                 (21, 1), (210, 1), (210, 11)]:
        column = _r_prime(D, N, 40)
        for m in range(1, 41):
            want = Fraction(2 * deg_T(D, N, m)) / volume(D, N)
            assert column[m] == want, (D, N, m)


def _identity_levels(cases):
    """The (D', N') of every r' term of the cases."""
    return {(D, N) for case in cases for terms in case.terms()
            for _w, side, D, N in terms if side == "r'"}


# the off-grid identity cases that CI runs through the command line
CI_CASES = [("1.1", 1, 2, 5, 1), ("1.3", 7, 2, 3, 5), ("1.4", 5, 2, None, 3),
            ("1.5", 10, 3, None, 1), ("1.4", 2, 13, None, 1), ("1.5", 6, 7, None, 1)]


def test_degree_column_is_deg_T_on_every_identity_level():
    ci = [TheoremCase(t, D=D, p=p, q=q, N=N) for t, D, p, q, N in CI_CASES]
    suite = _identity_levels(default_suite_cases())
    assert len(suite) == 26
    four_primes = {(210, 1), (210, 11), (210, 143)}
    for D, N in sorted(suite | _identity_levels(ci) | four_primes):
        column = degree_column(D, N, 200)
        assert len(column) == 201 and column[0] == 0
        assert column[1:] == [deg_T(D, N, m) for m in range(1, 201)], (D, N)


def test_eisenstein_check_catches_a_wrong_local_factor(monkeypatch):
    # one local factor off by one, at the first m that reads it
    original = heckedeg.local_degree
    def corrupted(pattern, p, k):
        return original(pattern, p, k) + ((pattern, p, k) == ("level", 5, 2))
    monkeypatch.setattr(heckedeg, "local_degree", corrupted)
    with pytest.raises(ArithmeticError, match=r"\(6, 5\) at m=25:"):
        degree_column(6, 5, 100)
    degree_column(6, 5, 24)  # no m below 25 reads the factor


def test_degree_column_rejects_a_non_squarefree_level():
    with pytest.raises(ValueError, match="squarefree"):
        degree_column(6, 25, 7)
    with pytest.raises(ValueError):
        degree_column(2, 1, 7)  # definite: no volume
    assert deg_T(6, 25, 7) == 8  # the per-m evaluator still reads only m's primes


def _subgroup_count(modulus, index):
    """Index-`index` subgroups of (Z/modulus)^2 by explicit pair generation."""
    group = [(a, b) for a in range(modulus) for b in range(modulus)]
    target = (modulus * modulus) // index
    seen = set()
    for v in group:
        for w in group:
            members = set()
            for s in range(modulus):
                sv = (s * v[0] % modulus, s * v[1] % modulus)
                for t in range(modulus):
                    members.add(((sv[0] + t * w[0]) % modulus,
                                 (sv[1] + t * w[1]) % modulus))
            if len(members) == target:
                seen.add(frozenset(members))
    return len(seen)


def test_split_factor_matches_subgroup_count():
    # independent combinatorial count of index-p^k subgroups of Z^2
    for p, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        assert local_degree("split", p, k) == _subgroup_count(p ** k, p ** k), (p, k)


def test_mixed_modulus_subgroup_oracle():
    # sublattice counts remain multiplicative across prime factors
    for m in (6, 10, 12, 15):
        fac = 1
        mm = m
        for p in (2, 3, 5):
            k = 0
            while mm % p == 0:
                mm //= p
                k += 1
            fac *= local_degree("split", p, k)
        assert _subgroup_count(m, m) == fac, m


@pytest.mark.parametrize("pattern,p,k", [
    ("split", 2, 1), ("split", 3, 1), ("split", 2, 2),
    ("level", 2, 1), ("level", 3, 1), ("level", 2, 2),
    ("ramified", 2, 1), ("ramified", 3, 1), ("ramified", 2, 2),
    # k = 0: the family modulus p^0 = 1, one candidate, closed form 1
    ("split", 2, 0), ("split", 3, 0), ("level", 2, 0), ("level", 3, 0),
    ("ramified", 2, 0), ("ramified", 3, 0),
])
def test_oracle_small_cases(pattern, p, k):
    closed = local_degree(pattern, p, k)
    assert oracle_local_orbits(pattern, p, k, k + 2) == closed


def test_oracle_guards():
    with pytest.raises(ValueError):
        oracle_local_orbits("split", 2, 2, 3)  # insufficient margin
    with pytest.raises(ValueError):
        oracle_local_orbits("weird", 2, 1, 3)
    with pytest.raises(ValueError, match="k must be >= 0"):
        oracle_local_orbits("split", 2, -1, 3)
    # the residue counts are closed forms in a prime p
    for p in (4, 1):
        with pytest.raises(ValueError, match="p must be prime"):
            oracle_local_orbits("split", p, 1, 3)


def _mul2(x, y):
    """The product of 2x2 matrices in flat coordinates (x11, x12, x21, x22)."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _mul(order):
    """The order's product in flat coordinates: the ramified model's, which
    the order carries, or the matrix product, which `heckedeg` never takes
    (it reads the matrix orders' forms by columns)."""
    return order.mul or _mul2


def _unit(order, p):
    """The first unit of the order mod p, in product order, other than 1."""
    return next(g for g in itertools.product(range(p), repeat=4)
                if g != (1, 0, 0, 0) and order.member(g) and order.nrd(g) % p)


def _nonunit(order, p):
    """The first nonzero nonunit of the order mod p, in product order."""
    return next(s for s in itertools.product(range(p), repeat=4)
                if any(s) and order.member(s) and order.nrd(s) % p == 0)


def _unit_of_norm_one(order, p):
    """A unit g != +-1 of the order with nrd(g) = +-1: (1, 1, 0, 1) for the
    matrix orders, 1 + pi at p = 2 (nrd -1) and 2 + pi at p = 3 (nrd 1)."""
    if order.pi_squared_is_p:
        g = {2: (1, 0, 1, 0), 3: (2, 0, 1, 0)}[p]
    else:
        g = (1, 1, 0, 1)
    assert order.member(g) and abs(order.nrd(g)) == 1
    return g


# mutation -> (candidate family, the check that must catch it); a check of
# None is the member/norm check if the added candidate fails it, else
# "are equivalent"
_MUTATIONS = {
    "duplicated": (lambda cands, order, p, M: cands + cands[:1], "are equivalent"),
    # the orbits left no longer fill S_M
    "dropped": (lambda cands, order, p, M: cands[:-1], "class equation fails"),
    # p * c has nrd +-p^(k+2); for ramified p * pi^k = pi^(k+2)
    "wrong-valuation": (lambda cands, order, p, M:
                        cands[:-1] + [tuple(p * v for v in cands[-1])],
                        "member/norm check fails"),
    # c * g mod p^M generates the right ideal of c, so its form repeats c's;
    # where the reduction mod p^M moves its nrd off +-p^k (ramified, odd k)
    # the member/norm check catches it first
    "translated-duplicate": (lambda cands, order, p, M: cands + [
        tuple(v % p ** M for v in _mul(order)(cands[-1], _unit(order, p)))],
        None),
    # c * g for a unit g != +-1 of nrd +-1, not reduced: nrd +-p^k, and the
    # right ideal of c
    "unit-multiple": (lambda cands, order, p, M: cands + [
        _mul(order)(cands[-1], _unit_of_norm_one(order, p))],
        "are equivalent"),
}


def _caught_by(mutation, family, order, p, k):
    """The message `mutation` of the family must raise: for a check of
    None, the member/norm check's, naming the added candidate and its nrd,
    if that nrd is not +-p^k."""
    caught_by = _MUTATIONS[mutation][1]
    if caught_by is not None:
        return caught_by
    c = family[-1]
    if abs(order.nrd(c)) == p ** k:
        return "are equivalent"
    return re.escape("member/norm check fails") + ".*" + re.escape(
        "candidate %r has nrd %d" % (c, order.nrd(c)))


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize("pattern,p,k,M,side", [
    ("split", 2, 1, 3, "sweep"), ("level", 2, 1, 3, "sweep"),
    ("ramified", 2, 1, 3, "sweep"),
    ("split", 3, 1, 4, "panel"), ("level", 3, 1, 4, "panel"),
    ("ramified", 3, 1, 4, "panel"),
    ("split", 2, 2, 4, "sweep"), ("level", 2, 2, 4, "sweep"),
    ("ramified", 2, 2, 4, "sweep"),
])
def test_oracle_rejects_mutated_candidates(mutation, pattern, p, k, M, side,
                                           monkeypatch):
    # the ops of both kinds the tests check coverage at: small enough to
    # enumerate in full, or only sampled by test_panel_coverage
    assert ((pattern, p, k, M) in _PANEL_OPS) == (side == "panel")
    order = heckedeg._local_order(pattern, p)
    mutate = _MUTATIONS[mutation][0]
    family = mutate(heckedeg._candidates(pattern, p, k), order, p, M)
    caught_by = _caught_by(mutation, family, order, p, k)
    if mutation == "translated-duplicate":
        # the reduction mod p^M moves pi * u off nrd +-p for ramified k = 1
        assert caught_by.startswith("member") == (
            (pattern, k) == ("ramified", 1))
    monkeypatch.setattr(heckedeg, "_candidates", lambda *a: family)
    with pytest.raises(ArithmeticError, match=caught_by):
        oracle_local_orbits(pattern, p, k, M)


@pytest.mark.parametrize("pattern,p,k", [
    ("split", 2, 1), ("level", 2, 1), ("ramified", 2, 1),
    ("split", 3, 1), ("level", 3, 1), ("ramified", 3, 1),
])
def test_certificate_cache_cannot_hide_a_mutation(pattern, p, k, monkeypatch):
    # the honest family is certified at M = k + 2 and its certificate is
    # stored; each mutated family must still be caught at M = k + 3, and
    # caught again on a second call, as a failed certificate is never stored
    heckedeg._certify.cache_clear()
    closed = local_degree(pattern, p, k)
    assert oracle_local_orbits(pattern, p, k, k + 2) == closed
    assert heckedeg._certify.cache_info().currsize == 1
    M = k + 3
    # the forms do not depend on M, so the family's stored certificate
    # serves M = k + 3 with no new form
    calls = []
    right_ideal = heckedeg._right_ideal
    monkeypatch.setattr(heckedeg, "_right_ideal",
                        lambda *a: calls.append(a) or right_ideal(*a))
    assert oracle_local_orbits(pattern, p, k, M) == closed
    assert calls == []
    order = heckedeg._local_order(pattern, p)
    cands = heckedeg._candidates(pattern, p, k)
    for mutation, (mutate, _) in _MUTATIONS.items():
        family = mutate(cands, order, p, M)
        caught_by = _caught_by(mutation, family, order, p, k)
        monkeypatch.setattr(heckedeg, "_candidates", lambda *a: family)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match=caught_by):
                oracle_local_orbits(pattern, p, k, M)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_level_oracle_rejects_a_non_member(p, k, monkeypatch):
    # (1, 0, 1, p^k) has nrd p^k but a lower-left entry that p does not
    # divide: a split matrix outside the level order, whose rows c*b do not
    # lie in its Z-basis
    family = heckedeg._candidates("level", p, k) + [(1, 0, 1, p ** k)]
    monkeypatch.setattr(heckedeg, "_candidates", lambda *a: family)
    with pytest.raises(ArithmeticError, match=re.escape(
            "member/norm check fails for level p=%d k=%d: candidate "
            "(1, 0, 1, %d) has nrd %d" % (p, k, p ** k, p ** k))):
        oracle_local_orbits("level", p, k, k + 2)


_GRID = [(pattern, p, k, M) for pattern in ("split", "level", "ramified")
         for p in (2, 3, 5, 7) for k in (1, 2, 3) for M in (k + 2, k + 3)]
_CI_OPS = [(pattern, p, k, k + 2) for pattern in ("split", "level", "ramified")
           for p in (11, 13) for k in (2, 3)]


def _form_mod(order, x, q):
    """The Hermite normal form of x*O + q*O in the order's Z-basis, of the
    rows of q*I and a row x*b mod q for each basis element b, as one flat
    tuple, for any member x: the reference `heckedeg._right_ideal` is
    checked against where x*O contains q*O, as at q = |nrd(x)|.
    Its pivots, h[::5], multiply to the index of x*O + q*O in O, the number
    of y in O/qO with x*y in qO."""
    s = order.scale
    rows = [[q * int(i == j) for j in range(4)] for i in range(4)]
    for i, d in enumerate(s):
        b = [0, 0, 0, 0]
        b[i] = d
        rows.append([v // e % q for v, e in zip(_mul(order)(x, b), s)])
    return tuple([v for row in hnf_rows(rows) for v in row])


def _stabilizer(order, c, q):
    """|{y in O/qO : c*y in qO}|, the product of the pivots of the form."""
    return math.prod(_form_mod(order, c, q)[::5])


def test_right_ideal_is_the_form_mod_p_k():
    # each candidate c has nrd +-p^k, so c*O contains p^k*O and the four
    # rows of c*O have the form of c*O + p^k*O, read mod p^k
    for pattern, p, k in sorted({op[:3] for op in _GRID + _CI_OPS}):
        order = heckedeg._local_order(pattern, p)
        for c in heckedeg._candidates(pattern, p, k):
            assert abs(order.nrd(c)) == p ** k
            assert heckedeg._right_ideal(order, c) == \
                _form_mod(order, c, p ** k), (pattern, p, k, c)


@pytest.mark.parametrize("pattern", ["split", "level", "ramified"])
def test_right_ideal_off_the_candidates(pattern):
    # any member c of nrd n != 0 has c*O containing n*O = c*conj(c)*O, so its
    # form is the form mod |n|: the column forms hold off the candidates'
    # shapes, at any nrd and either sign
    rng = random.Random(37)
    for p in (2, 3, 5, 7, 11):
        order = heckedeg._local_order(pattern, p)
        signs = set()
        for _ in range(60):
            c = tuple(d * rng.randint(-40, 40) for d in order.scale)
            n = order.nrd(c)
            if n == 0:
                continue
            signs.add(n > 0)
            assert heckedeg._right_ideal(order, c) == \
                _form_mod(order, c, abs(n)), (pattern, p, c)
        assert signs == {True, False}, (pattern, p)


def _conj(pattern, p, x):
    """The standard involution: the adjugate of a matrix, and in the flat
    coordinates of `ramified_model(p)`, (a1 + t*a2, -a2, -b1, -b2)."""
    if pattern == "ramified":
        a1, a2, b1, b2 = x
        return (a1 + ramified_model(p).t * a2, -a2, -b1, -b2)
    return (x[3], -x[1], -x[2], x[0])


def _equivalent_mod(pattern, p, k, M, x, y):
    """The right-equivalence test with g = conj(x)*y / nrd(x) reduced mod
    p^(M-k), written out independently of `_right_ideal`."""
    order = heckedeg._local_order(pattern, p)
    n = order.nrd(x)
    if valuation(n, p) != k:
        return False
    pk, mod = p ** k, p ** (M - k)
    num = _mul(order)(_conj(pattern, p, x), y)
    if any(v % pk for v in num):
        return False
    uinv = pow(n // pk % mod, -1, mod)
    g = tuple(v // pk * uinv % mod for v in num)
    return bool(order.nrd(g) % p and order.member(g))


def test_right_ideal_decides_equivalence():
    # the form mod p^k against `_equivalent_mod` on members of valuation k:
    # each candidate c shares its form with c*u mod p^M for a unit u,
    # equivalent to it mod p^M, and not with the next candidate d,
    # inequivalent to it.  c*s for a nonzero nonunit s is inequivalent too,
    # but its valuation exceeds k, where the form mod p^k need not name
    # c*s*O_p and can equal c's (split p=2 k=1: c = (2,0,0,1) and s = e22),
    # so `_certify`'s member/norm check runs first
    for pattern, p, k, M in _GRID + _CI_OPS:
        order = heckedeg._local_order(pattern, p)
        u, s = _unit(order, p), _nonunit(order, p)
        cands = heckedeg._candidates(pattern, p, k)
        for c, d in itertools.zip_longest(cands, cands[1:]):
            form = _form_mod(order, c, p ** k)
            cu, cs = (tuple(v % p ** M for v in _mul(order)(c, g))
                      for g in (u, s))
            assert _equivalent_mod(pattern, p, k, M, c, cu)
            assert _form_mod(order, cu, p ** k) == form, (
                pattern, p, k, M, c)
            assert not _equivalent_mod(pattern, p, k, M, c, cs)
            assert order.nrd(cs) % p ** (k + 1) == 0
            if d is not None:
                assert not _equivalent_mod(pattern, p, k, M, c, d)
                assert _form_mod(order, d, p ** k) != form, (
                    pattern, p, k, M, c, d)


def test_stabilizer_does_not_depend_on_M():
    # for v_p(nrd c) = k and M >= k, {y mod p^M : c*y in p^M*O} is
    # p^(M-k)*{z mod p^k : c*z in p^k*O}, so the count at p^k that the
    # family stores is the count at every M of the oracle
    for pattern, p, k in sorted({op[:3] for op in _GRID + _CI_OPS}):
        order = heckedeg._local_order(pattern, p)
        for c in heckedeg._candidates(pattern, p, k):
            stab = _stabilizer(order, c, p ** k)
            for M in (k + 2, k + 3, k + 5):
                assert _stabilizer(order, c, p ** M) == stab, (
                    pattern, p, k, M, c)


def _kernel_by_count(order, c, p, M):
    """|{y in O/p^M O : c*y in p^M*O}|, counted over every y: y is the sum
    of a first half (y0, y1, 0, 0) and a second half (0, 0, y2, y3), and
    c*y vanishes exactly when the two halves' products are opposite."""
    q = p ** M
    mods = tuple(q * d for d in order.scale)

    def products(i):
        out = collections.Counter()
        for a in range(0, mods[i], order.scale[i]):
            for b in range(0, mods[i + 1], order.scale[i + 1]):
                y = [0, 0, 0, 0]
                y[i], y[i + 1] = a, b
                out[tuple(v % m for v, m in zip(_mul(order)(c, y), mods))] += 1
        return out

    first, second = products(0), products(2)
    return sum(n * second[tuple(-v % m for v, m in zip(u, mods))]
               for u, n in first.items())


@pytest.mark.parametrize("pattern", ["split", "level", "ramified"])
def test_stabilizer_is_the_kernel_count(pattern):
    # elements where the p^M rows of the HNF move its pivots (0, p^M*x and
    # v_p(nrd c) > M, where c*O does not hold p^M*O) and random ones, each
    # against a count over every element of O/p^M O
    rng = random.Random("stabilizer-%s" % pattern)
    for p in (2, 3):
        order = heckedeg._local_order(pattern, p)
        for M in (1, 2, 3):
            q = p ** M

            def member():
                return tuple(d * rng.randrange(q) for d in order.scale)

            deep = (heckedeg._pi_power(p, 2 * M + 1) if pattern == "ramified"
                    else (p ** (M + 1), 0, 0, 1))
            elements = [(0, 0, 0, 0), tuple(q * v for v in member()), deep,
                        _mul(order)(deep, member())]
            elements += [member() for _ in range(4)]
            elements += [tuple(p ** rng.randrange(M + 2) * v for v in member())
                         for _ in range(4)]
            for c in elements:
                assert order.member(c)
                assert _stabilizer(order, c, q) == \
                    _kernel_by_count(order, c, p, M), (p, M, c)
            assert valuation(order.nrd(deep), p) > M


def test_local_order_is_built_once():
    for p in (2, 3, 5, 7, 11):
        for pattern in ("split", "level", "ramified"):
            order = heckedeg._local_order(pattern, p)
            assert heckedeg._local_order(pattern, p) is order
        inner = heckedeg._local_order("level", p).inner
        assert inner is heckedeg._local_order("split", p)


# the ops of _GRID + _CI_OPS with at most 6*10^5 flat tuples mod p^M (level
# counted as matrices), small enough to enumerate; the others are sampled
_SWEPT = {
    ("split", 2, 1, 3), ("split", 2, 1, 4), ("split", 2, 2, 4),
    ("split", 3, 1, 3), ("level", 2, 1, 3), ("level", 2, 1, 4),
    ("level", 2, 2, 4), ("level", 2, 2, 5), ("level", 2, 3, 5),
    ("level", 3, 1, 3), ("ramified", 2, 1, 3), ("ramified", 2, 1, 4),
    ("ramified", 2, 2, 4), ("ramified", 3, 1, 3),
}
_PANEL_OPS = [op for op in _GRID + _CI_OPS if op not in _SWEPT]


def _valuation_k(order, p, k, modulus):
    """Every member mod `modulus` whose nrd has valuation exactly k."""
    return [x for x in itertools.product(range(modulus), repeat=4)
            if order.member(x) and order.nrd(x) % p ** k == 0
            and order.nrd(x) % p ** (k + 1)]


@pytest.mark.parametrize("pattern,p,k,M", _PANEL_OPS)
def test_panel_coverage(pattern, p, k, M):
    # a fixed-seed panel of 25 uniform draws from S_M, each right-equivalent
    # to a candidate by `_equivalent_mod`: an independent sample of the
    # coverage that the class equation proves.  Split and level draws are
    # rejection-sampled; in the ramified order pi normalises O, so
    # S_M = U_M * pi^k and a uniform unit times pi^k is a uniform draw
    order = heckedeg._local_order(pattern, p)
    cands = heckedeg._candidates(pattern, p, k)
    rng = random.Random("%s-%d-%d-%d" % (pattern, p, k, M))
    q = p ** M
    step = p if pattern == "level" else 1
    panel = []
    while len(panel) < 25:
        x = (rng.randrange(q), rng.randrange(q), rng.randrange(0, q, step),
             rng.randrange(q))
        if pattern == "ramified":
            if order.nrd(x) % p:
                panel.append(tuple(v % q for v in _mul(order)(x, cands[0])))
        elif valuation(order.nrd(x), p) == k:
            panel.append(x)
    for x in panel:
        assert order.member(x) and valuation(order.nrd(x), p) == k, x
        assert any(_equivalent_mod(pattern, p, k, M, c, x) for c in cands), x


# the ops small enough to check against every element mod p^M
_SMALL_SWEEPS = [
    ("split", 2, 1, 3), ("split", 2, 2, 4), ("level", 2, 1, 3),
    ("level", 2, 2, 4), ("ramified", 2, 1, 3), ("ramified", 2, 2, 4),
]


@pytest.mark.parametrize("pattern,p,k,M", _SMALL_SWEEPS)
def test_sweep_is_every_element_of_valuation_k(pattern, p, k, M):
    # v_p(nrd x) is decided by x mod p^(k+1): the valuation-k elements mod
    # p^M are the lifts of the valuation-k residues mod p^(k+1), the sweep,
    # p^(4(M-k-1)) lifts each, and `_count` counts both sets
    order = heckedeg._local_order(pattern, p)
    sweep = _valuation_k(order, p, k, p ** (k + 1))
    assert len(sweep) == len(set(sweep)) == heckedeg._count(order, p, k, k + 1)
    lifts = collections.Counter(tuple(v % p ** (k + 1) for v in x)
                                for x in _valuation_k(order, p, k, p ** M))
    assert set(lifts) == set(sweep)
    assert set(lifts.values()) == {p ** (4 * (M - k - 1))}
    assert sum(lifts.values()) == heckedeg._count(order, p, k, M)


# (pattern, p, k) with M = k + 2 and at most 2*10^6 elements mod p^M
_SMALL_COUNTS = [(pattern, p, k) for pattern in ("split", "level", "ramified")
                 for p in (2, 3, 5) for k in range(4)
                 if p ** (4 * k + 8) <= 2 * 10 ** 6]


@pytest.mark.parametrize("pattern,p", sorted({op[:2] for op in _SMALL_COUNTS}))
def test_count_is_the_enumerated_number(pattern, p):
    # `_count` against the valuation-k elements mod p^M, enumerated, k = 0
    # to 3
    order = heckedeg._local_order(pattern, p)
    for k in (k for pat, q, k in _SMALL_COUNTS if (pat, q) == (pattern, p)):
        M = k + 2
        got = _valuation_k(order, p, k, p ** M)
        assert heckedeg._count(order, p, k, M) == len(got), (k, M)


def _right(order, g, mods):
    """x -> x*g on flat tuples, each coordinate reduced mod its entry of
    `mods`: the matrix of the Z-linear map, with rows e_i*g."""
    rows = [_mul(order)(e, g) for e in ((1, 0, 0, 0), (0, 1, 0, 0),
                                      (0, 0, 1, 0), (0, 0, 0, 1))]
    (r00, r01, r02, r03), (r10, r11, r12, r13), \
        (r20, r21, r22, r23), (r30, r31, r32, r33) = rows
    m0, m1, m2, m3 = mods

    def act(x):
        a, b, c, d = x
        return ((a * r00 + b * r10 + c * r20 + d * r30) % m0,
                (a * r01 + b * r11 + c * r21 + d * r31) % m1,
                (a * r02 + b * r12 + c * r22 + d * r32) % m2,
                (a * r03 + b * r13 + c * r23 + d * r33) % m3)
    return act


@pytest.mark.parametrize("pattern", ["split", "level", "ramified"])
@pytest.mark.parametrize("p,k,M", [(2, 1, 3), (2, 2, 4), (3, 1, 3)])
def test_class_equation_inputs_by_brute_force(pattern, p, k, M):
    # every element of O/p^M O: flat tuples whose coordinate i runs over
    # scale_i * Z / p^M * scale_i, for the Z-basis scale_i * e_i of O (for
    # level e11, e12, p*e21, e22), so the quotient has p^(4M) elements
    order = heckedeg._local_order(pattern, p)
    q, pk = p ** M, p ** k
    scale = (1, 1, p, 1) if pattern == "level" else (1, 1, 1, 1)
    mods = tuple(q * d for d in scale)
    units, level_k = [], []
    for x in itertools.product(*(range(0, m, d) for m, d in zip(mods, scale))):
        n = order.nrd(x)
        if n % p:
            units.append(x)
        elif n % pk == 0 and n // pk % p:
            level_k.append(x)
    # the flat count of `_count` is the matrices mod p^M for level, p times
    # fewer than O/p^M O
    index = p if pattern == "level" else 1
    assert len(units) == index * heckedeg._count(order, p, 0, M)
    assert len(level_k) == index * heckedeg._count(order, p, k, M)

    # fixed-seed units join the generating set until the closure of the
    # set under right multiplication, which is the group it generates, is
    # all of U_M; a unit already in the closure would add nothing
    one = (1, 0, 0, 0) if pattern == "ramified" else (1, 0, 0, 1)
    rng = random.Random(0)
    gens, closure = [], {one}
    while len(closure) < len(units):
        g = rng.choice(units)
        if g in closure:
            continue
        gens.append(_right(order, g, mods))
        todo, closure = [one], {one}
        for x in todo:
            for act in gens:
                y = act(x)
                if y not in closure:
                    closure.add(y)
                    todo.append(y)

    # the orbits of U_M on S_M, by union-find under the generators
    parent = {x: x for x in level_k}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for act in gens:
        for x in level_k:
            a, b = find(x), find(act(x))
            if a != b:
                parent[a] = b
    orbit = collections.Counter(find(x) for x in level_k)
    # the form mod p^k is one per orbit, over all of S_M: constant on each
    # orbit, and different across orbits
    forms = {}
    for x in level_k:
        forms.setdefault(find(x), set()).add(_form_mod(order, x, pk))
    assert all(len(f) == 1 for f in forms.values())
    assert len(set().union(*forms.values())) == len(orbit)
    cands = heckedeg._candidates(pattern, p, k)
    roots = [find(tuple(v % m for v, m in zip(c, mods))) for c in cands]
    assert len(orbit) == len(cands) == len(set(roots))
    stored = {}
    for c, root in zip(cands, roots):
        # orbit-stabilizer: |Stab_M(c)| = |U_M| / |orbit of c|
        assert len(units) == orbit[root] * _stabilizer(order, c, q), c
        count, first = stored.get(len(units) // orbit[root], (0, c))
        stored[len(units) // orbit[root]] = (count + 1, first)
    # the orders the family stores, counted once at p^k, are these at p^M
    assert dict(heckedeg._certify(pattern, p, k, tuple(cands))) == stored
