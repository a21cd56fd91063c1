import itertools
import math
import random
from fractions import Fraction

import pytest

from quatmatch import heckedeg
from quatmatch.heckedeg import (
    deg_T,
    local_degree_level,
    local_degree_ramified,
    local_degree_split,
    oracle_local_orbits,
    r_prime,
    volume,
)


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
    assert local_degree_split(5, 1) == 6
    assert local_degree_split(2, 3) == 15
    assert local_degree_split(7, 0) == 1
    assert local_degree_level(2, 1) == 5
    assert local_degree_level(5, 1) == 11
    assert local_degree_level(3, 2) == 13 + 3 * 4
    assert local_degree_level(7, 0) == 1
    assert local_degree_ramified(2, 1) == 1
    assert local_degree_ramified(3, 5) == 1


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


def test_r_prime_values_and_signs():
    assert r_prime(6, 1, 0) == 1
    assert r_prime(6, 1, 1) == -12
    assert r_prime(6, 1, 5) == -72
    assert r_prime(6, 5, 1) == -2
    assert r_prime(10, 3, 1) == Fraction(-3, 2)
    for m in range(1, 40):
        assert r_prime(6, 1, m) < 0
        assert r_prime(10, 1, m) < 0


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
        assert local_degree_split(p, k) == _subgroup_count(p ** k, p ** k), (p, k)


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
            fac *= local_degree_split(p, k)
        assert _subgroup_count(m, m) == fac, m


@pytest.mark.parametrize("pattern,p,k", [
    ("split", 2, 1), ("split", 3, 1), ("split", 2, 2),
    ("level", 2, 1), ("level", 3, 1), ("level", 2, 2),
    ("ramified", 2, 1), ("ramified", 3, 1), ("ramified", 2, 2),
])
def test_oracle_small_cases(pattern, p, k):
    closed = {"split": local_degree_split,
              "level": local_degree_level,
              "ramified": local_degree_ramified}[pattern](p, k)
    assert oracle_local_orbits(pattern, p, k, k + 2) == closed


def test_oracle_guards():
    with pytest.raises(ValueError):
        oracle_local_orbits("split", 2, 2, 3)  # insufficient margin
    with pytest.raises(ValueError):
        oracle_local_orbits("weird", 2, 1, 3)


def _unit(order, p):
    """The first unit of the order mod p, in product order, other than 1."""
    return next(g for g in itertools.product(range(p), repeat=4)
                if g != (1, 0, 0, 0) and order.member(g) and order.nrd(g) % p)


# mutation -> (candidate family, the check that must catch it)
_MUTATIONS = {
    "duplicated": (lambda cands, order, p, M: cands + cands[:1], "are equivalent"),
    "dropped": (lambda cands, order, p, M: cands[:-1], "matched 0 candidates"),
    # p * c has v_p(nrd) = k + 2; for ramified p * pi^k = pi^(k+2)
    "wrong-valuation": (lambda cands, order, p, M:
                        cands[:-1] + [tuple(p * v for v in cands[-1])],
                        "matched 0 candidates"),
    # c * g mod p^M lies in the bucket of c, so the pairwise test meets it
    "translated-duplicate": (lambda cands, order, p, M: cands + [
        tuple(v % p ** M for v in order.mul(cands[-1], _unit(order, p)))],
        "are equivalent"),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize("pattern,p,k,M,side", [
    ("split", 2, 1, 3, "sweep"), ("level", 2, 1, 3, "sweep"),
    ("ramified", 2, 1, 3, "sweep"),
    ("split", 3, 1, 4, "panel"), ("level", 3, 1, 4, "panel"),
    ("ramified", 3, 1, 4, "panel"),
])
def test_oracle_rejects_mutated_candidates(mutation, pattern, p, k, M, side,
                                           monkeypatch):
    order = heckedeg._local_order(pattern, p)
    cands = heckedeg._candidates(pattern, p, k)
    # the panel is a list, the full sweep a generator
    assert isinstance(heckedeg._sample(order, cands, p, k, M), list) == (side == "panel")
    mutate, caught_by = _MUTATIONS[mutation]
    original = heckedeg._candidates
    monkeypatch.setattr(heckedeg, "_candidates",
                        lambda *a: mutate(original(*a), order, p, M))
    with pytest.raises(ArithmeticError, match=caught_by):
        oracle_local_orbits(pattern, p, k, M)


@pytest.mark.parametrize("pattern", ["split", "level"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_key_of_candidate_is_itself(pattern, p):
    for k in range(4):
        for c in heckedeg._candidates(pattern, p, k):
            assert heckedeg._key(pattern, p, k, c) == c, (pattern, p, k, c)


@pytest.mark.parametrize("pattern,p,k,M", [
    ("split", 2, 2, 4), ("level", 2, 2, 4), ("split", 5, 3, 5),
    ("level", 5, 3, 5), ("level", 7, 2, 4), ("ramified", 7, 3, 5),
])
def test_key_matches_every_sample(pattern, p, k, M):
    # the key is what keeps the oracle linear: no element may need the scan
    order = heckedeg._local_order(pattern, p)
    cands = heckedeg._candidates(pattern, p, k)
    for x in heckedeg._sample(order, cands, p, k, M):
        key = heckedeg._key(pattern, p, k, x)
        assert key in cands and heckedeg._equivalents(order, p, k, M, x, [key]), x


@pytest.mark.parametrize("fake", ["none", "wrong"])
@pytest.mark.parametrize("pattern,p,k", [
    ("split", 2, 1), ("split", 3, 1), ("split", 2, 2),
    ("level", 2, 1), ("level", 3, 1), ("level", 2, 2),
    ("ramified", 2, 1), ("ramified", 3, 1), ("ramified", 2, 2),
])
def test_key_is_only_a_hint(fake, pattern, p, k, monkeypatch):
    # a key that is no candidate, or the first candidate whatever the
    # element, must not change the count, nor let a mutation through
    M = k + 2
    order = heckedeg._local_order(pattern, p)
    first = heckedeg._candidates(pattern, p, k)[0]
    monkeypatch.setattr(heckedeg, "_key",
                        lambda *a: None if fake == "none" else first)
    closed = {"split": local_degree_split,
              "level": local_degree_level,
              "ramified": local_degree_ramified}[pattern](p, k)
    assert oracle_local_orbits(pattern, p, k, M) == closed
    original = heckedeg._candidates
    for mutate, caught_by in _MUTATIONS.values():
        monkeypatch.setattr(heckedeg, "_candidates",
                            lambda *a: mutate(original(*a), order, p, M))
        with pytest.raises(ArithmeticError, match=caught_by):
            oracle_local_orbits(pattern, p, k, M)


@pytest.mark.parametrize("pattern", ["split", "level"])
def test_rows_are_right_unit_invariant(pattern):
    rng = random.Random(20240611)
    for p in (2, 3, 5, 7):
        order = heckedeg._local_order(pattern, p)
        for M in (2, 3, 4, 5):
            q = p ** M
            seen = set()
            for _ in range(300):
                # rows of random content, so that every invariant varies
                x = tuple(p ** e * rng.randrange(q) % q
                          for e in [rng.randrange(M + 1)] * 2
                          + [rng.randrange(M + 1)] * 2)
                g = (0, 0, 0, 0)
                while not (order.member(g) and order.nrd(g) % p):
                    g = tuple(rng.randrange(q) for _ in range(4))
                xg = tuple(v % q for v in order.mul(x, g))
                rows = heckedeg._rows(pattern, p, M, x)
                assert heckedeg._rows(pattern, p, M, xg) == rows, (p, M, x, g)
                seen.add(rows)
            assert len(seen) > M, (p, M)


@pytest.mark.parametrize("pattern,p,k,M", [
    ("split", 2, 1, 3), ("split", 2, 2, 4), ("level", 2, 1, 3),
    ("level", 2, 2, 4), ("ramified", 2, 1, 3), ("ramified", 2, 2, 4),
])
def test_sweep_is_every_element_of_valuation_k(pattern, p, k, M):
    order = heckedeg._local_order(pattern, p)
    sweep = list(heckedeg._sample(order, heckedeg._candidates(pattern, p, k),
                                  p, k, M))
    want = [x for x in itertools.product(range(p ** M), repeat=4)
            if order.member(x) and heckedeg._vp(order.nrd(x), p) == k]
    assert len(sweep) == len(set(sweep)) and set(sweep) == set(want)


# (pattern, p, k, M) -> panel size before the draws were conditioned on the
# residues mod p (the cases that fell short of 125 hits + 250 translates)
_PANEL_FLOOR = {
    ("level", 5, 3, 5): 374, ("level", 7, 3, 5): 291,
    ("ramified", 3, 3, 5): 304, ("ramified", 5, 2, 4): 328,
    ("ramified", 5, 3, 5): 251, ("ramified", 7, 2, 4): 264,
    ("ramified", 7, 3, 5): 250, ("ramified", 7, 3, 6): 250,
    ("split", 11, 3, 5): 282, ("level", 11, 2, 4): 327,
    ("level", 11, 3, 5): 253, ("ramified", 11, 3, 5): 250,
}


@pytest.mark.parametrize("pattern,p,k,M", sorted(_PANEL_FLOOR))
def test_panel_coverage(pattern, p, k, M):
    order = heckedeg._local_order(pattern, p)
    panel = heckedeg._panel(order, heckedeg._candidates(pattern, p, k),
                            p, k, M)
    assert len(panel) >= _PANEL_FLOOR[pattern, p, k, M]
    for x in panel:
        assert order.member(x) and heckedeg._vp(order.nrd(x), p) == k, x
