"""Indefinite side: degrees of determinant-m correspondences and volumes.

For an Eichler order O of level N in the indefinite algebra of discriminant
D, the determinant-m locus {(z1, z2): z1 = x z2, x in O, det x = m} is a
correspondence whose degree over either factor is a multiplicative function
of m with local factors

    p coprime to D*N :  sigma(p^k) = 1 + p + ... + p^k
    p | N (exactly)  :  sigma(p^k) + p * sigma(p^(k-1))
    p | D            :  1

where k = v_p(m).  Each closed form is certified by `oracle_local_orbits`,
an explicit orbit count in the local order of the pattern (M_2(Z_p), the
Iwahori order, the maximal order of the division algebra) reduced mod p^M.
The three patterns share one path: one right-equivalence test, one sweep of
the order and one deterministic panel; a pattern supplies only its order's
multiplication, conjugation, reduced norm, membership test and candidate
representatives.

`volume` is the exact rational -D*N/12 * prod_{p|N}(1+1/p) * prod_{p|D}(1-1/p),
and the normalised coefficient attached to the correspondence is

    r_prime(D, N, m) = (deg over first factor + deg over second factor)
                       / volume(D, N)
                     = 2 * deg_T(D, N, m) / volume(D, N)     (m >= 1)

with r_prime(D, N, 0) = 1.  The two projection degrees coincide because
conjugation exchanges them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .classsets import mass_formula
from .exactnum import is_squarefree, prime_factors, prime_power_factors
from .quatalg import ramified_model


@lru_cache(maxsize=None)
def volume(D: int, N: int) -> Fraction:
    """Exact (negative) volume of the level-N curve for discriminant D.

    Its magnitude is the same product as the definite-side mass formula.
    """
    if D <= 1 or not is_squarefree(D):
        raise ValueError("D must be a squarefree integer > 1")
    if len(prime_factors(D)) % 2:
        raise ValueError("D must have an even number of prime factors "
                         "(indefinite, anisotropic side)")
    if N < 1 or math.gcd(D, N) != 1:
        raise ValueError("N must be a positive integer coprime to D")
    return -mass_formula(D, N)


def _sigma(p: int, k: int) -> int:
    return sum(p ** i for i in range(k + 1))


def local_degree_split(p: int, k: int) -> int:
    """Local factor at p coprime to D*N: the number of index-p^k sublattices."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return _sigma(p, k)


def local_degree_level(p: int, k: int) -> int:
    """Local factor at p || N: sigma(p^k) + p*sigma(p^(k-1))."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return 1
    return _sigma(p, k) + p * _sigma(p, k - 1)


def local_degree_ramified(p: int, k: int) -> int:
    """Local factor at p | D: a single orbit for every exponent."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return 1


def deg_T(D: int, N: int, m: int) -> int:
    """Degree (over one factor) of the determinant-m correspondence."""
    volume(D, N)  # the one check that (D, N) is an indefinite level
    if m < 1:
        raise ValueError("m must be a positive integer")
    total = 1
    for p, k in prime_power_factors(m):
        if D % p == 0:
            total *= local_degree_ramified(p, k)
        elif N % p == 0:
            if N % (p * p) == 0:
                raise ValueError("level factors are implemented for squarefree N only")
            total *= local_degree_level(p, k)
        else:
            total *= local_degree_split(p, k)
    return total


def r_prime(D: int, N: int, m: int) -> Fraction:
    """Normalized two-sided degree: 1 at m=0, else 2*deg_T/volume (negative)."""
    if m == 0:
        return Fraction(1)
    return Fraction(2 * deg_T(D, N, m)) / volume(D, N)


# ---------------------------------------------------------------------------
# orbit-counting oracles over the finite local patterns
#
# Each pattern is a local order: M_2(Z_p) (split), the Iwahori order of
# matrices with lower-left entry = 0 mod p (level) and the maximal order of
# the division algebra in the flat coordinates of quatalg.RamifiedModel
# (ramified).  All three go through one path.  Elements x of the order with
# v_p(nrd x) = k are counted modulo right multiplication by units of the
# order; the oracle certifies, with one right-equivalence test,
#   (i)  the candidate representatives are pairwise inequivalent, and
#   (ii) every sampled element is equivalent to exactly one candidate.
# The sample is every element of the order mod p^M when there are at most
# _SWEEP_CAP of them, and otherwise a deterministic splitmix panel: uniform
# draws with v_p(nrd) = k, topped up with translates u*c of the candidates
# by units u.  Left units permute the right orbits, so the translates reach
# orbits that uniform draws rarely hit at large k.  The panel does not use
# pi^k * unit: it is right-equivalent to pi^k by construction, so it tests
# nothing, whereas u * pi^k must pass the full test.

_SWEEP_CAP = 600_000


class _LocalOrder(NamedTuple):
    mul: Callable
    conj: Callable
    nrd: Callable
    member: Callable


def _det2(x):
    return x[0] * x[3] - x[1] * x[2]


def _adj2(x):
    return (x[3], -x[1], -x[2], x[0])


def _mul2(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _vp(n: int, p: int):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _local_order(pattern: str, p: int) -> _LocalOrder:
    if pattern == "ramified":
        model = ramified_model(p)
        return _LocalOrder(model.mul, model.involution, model.nrd,
                           lambda x: True)
    if pattern == "level":
        return _LocalOrder(_mul2, _adj2, _det2, lambda x: x[2] % p == 0)
    return _LocalOrder(_mul2, _adj2, _det2, lambda x: True)


def _candidates(pattern: str, p: int, k: int):
    """Orbit representatives, each of reduced norm +-p^k."""
    if pattern == "ramified":  # pi^k, with pi^2 = p
        half, odd = divmod(k, 2)
        return [(0, 0, p ** half, 0) if odd else (p ** half, 0, 0, 0)]
    step = p if pattern == "level" else 1
    cands = []
    for a in range(k + 1):
        b = k - a
        cands.extend((p ** a, 0, step * c, p ** b) for c in range(p ** b))
    if pattern == "level":
        for b in range(1, k + 1):
            cands.extend((0, p ** (k - b), p ** b, d) for d in range(p ** b))
    return cands


def _equivalents(order, p, k, M, x, ys):
    """The y in ys with y = x*g for a unit g of the order, tested mod p^M.

    g = conj(x)*y / nrd(x) must be integral (p^k divides conj(x)*y), have a
    unit nrd and lie in the order.  M >= k + 2 makes the reduced test decide
    equivalence of mod-p^M classes; on elements of norm +-p^k such as the
    candidates it is the exact test over Z_p.
    """
    n = order.nrd(x)
    if _vp(n, p) != k:
        return []
    pk = p ** k
    mod = p ** (M - k)
    uinv = pow(n // pk % mod, -1, mod)
    cx = order.conj(x)
    out = []
    for y in ys:
        num = order.mul(cx, y)
        if any(v % pk for v in num):
            continue
        g = tuple(v // pk * uinv % mod for v in num)
        if order.nrd(g) % p and order.member(g):
            out.append(y)
    return out


def _splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) % 2 ** 64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    return state, z ^ (z >> 31)


def _panel(order, cands, p, k, M):
    """Up to 125 uniform elements with v_p(nrd) = k among 50,000 draws, then
    250 translates u*c, c running through the candidates in turn and u a
    uniformly drawn unit of the order."""
    q = p ** M
    state = 987654321

    def draw():
        nonlocal state
        vals = []
        for _ in range(4):
            state, z = _splitmix(state)
            vals.append(z % q)
        return tuple(vals)

    out = []
    for _ in range(50_000):
        if len(out) == 125:
            break
        x = draw()
        if order.member(x) and _vp(order.nrd(x), p) == k:
            out.append(x)
    for c in itertools.islice(itertools.cycle(cands), 250):
        u = draw()
        while not (order.member(u) and order.nrd(u) % p):
            u = draw()
        out.append(tuple(v % q for v in order.mul(u, c)))
    return out


def _sample(order, cands, p, k, M):
    """Every element of the order mod p^M with v_p(nrd) = k, or a panel."""
    # membership is decided mod p
    size = p ** (4 * M - 4) * sum(map(order.member,
                                      itertools.product(range(p), repeat=4)))
    if size > _SWEEP_CAP:
        return _panel(order, cands, p, k, M)
    return (x for x in itertools.product(range(p ** M), repeat=4)
            if order.member(x) and _vp(order.nrd(x), p) == k)


def oracle_local_orbits(pattern: str, p: int, k: int, M: int) -> int:
    """Count orbits of determinant-p^k-unit elements under right unit action.

    `pattern` is "split", "level" or "ramified"; the computation is carried
    out in the corresponding local order reduced mod p^M.  The margin
    M >= k + 2 makes the reduced equivalence tests decide equivalence of
    mod-p^M classes; callers check stability by re-running at M + 1.
    """
    if pattern not in ("split", "level", "ramified"):
        raise ValueError("unknown pattern %r" % (pattern,))
    if M < k + 2:
        raise ValueError("need M >= k + 2 for a stable orbit count")
    order = _local_order(pattern, p)
    cands = _candidates(pattern, p, k)
    for i, c in enumerate(cands):
        same = _equivalents(order, p, k, M, c, cands[i + 1:])
        if same:
            raise ArithmeticError(
                "candidates %r and %r are equivalent" % (c, same[0]))
    checked = 0
    for x in _sample(order, cands, p, k, M):
        hits = len(_equivalents(order, p, k, M, x, cands))
        if hits != 1:
            raise ArithmeticError(
                "element %r matched %d candidates" % (x, hits))
        checked += 1
    if checked == 0:
        raise ArithmeticError("empty sample for %s p=%d k=%d M=%d"
                              % (pattern, p, k, M))
    return len(cands)
