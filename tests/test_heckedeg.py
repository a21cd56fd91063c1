import math
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


# mutation -> (candidate family, the check that must catch it)
_MUTATIONS = {
    "duplicated": (lambda cands, p: cands + cands[:1], "are equivalent"),
    "dropped": (lambda cands, p: cands[:-1], "matched 0 candidates"),
    # p * c has v_p(nrd) = k + 2; for ramified p * pi^k = pi^(k+2)
    "wrong-valuation": (lambda cands, p: cands[:-1] + [tuple(p * v for v in cands[-1])],
                        "matched 0 candidates"),
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
    monkeypatch.setattr(heckedeg, "_candidates", lambda *a: mutate(original(*a), p))
    with pytest.raises(ArithmeticError, match=caught_by):
        oracle_local_orbits(pattern, p, k, M)
