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
the order and one deterministic panel.  A pattern supplies its order's
multiplication, conjugation, reduced norm and membership test, its candidate
representatives, a key naming the candidate an element should match, and
invariants of each row under right units.  The oracle is linear in the
sample: an element is tested exactly against its key only, and falls back
to a scan of every candidate, which must find exactly one, when the key is
no candidate or fails the test.  Candidates are tested pairwise only within
a bucket of equal row invariants.  Sweep and panel both visit only elements
whose residue mod p a valuation-k element can have, and the panel's draws
stay uniform over the elements of valuation k.

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
# (i) runs inside buckets of `_rows`, a right-unit invariant, so candidates
# in different buckets are inequivalent without a test.  For (ii), `_key`
# names the candidate x should match, its column-reduced form; the key is
# only a hint.  When the key is a candidate and passes the exact test, x
# matches no other candidate: the test passing for x and c means c = x'*g
# for every lift x' of x and an exact unit g, so two hits would make two
# candidates equivalent, which (i) excludes.  Otherwise x gets the full scan
# over all candidates, which must find exactly one hit.
# The sample is every element of the order mod p^M when there are at most
# _SWEEP_CAP of them, and otherwise a deterministic splitmix panel: draws
# uniform over the elements with v_p(nrd) = k, topped up with translates
# u*c of the candidates by units u.  Both are built from `_residues`, the
# residues mod p that elements of valuation k have, so neither visits an
# element outside them.  Left units permute the right orbits, so the
# translates reach orbits that uniform draws rarely hit at large k.  The
# panel does not use pi^k * unit: it is right-equivalent to pi^k by
# construction, so it tests nothing, whereas u * pi^k must pass the full
# test.

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


def _pi_power(p: int, k: int):
    """pi^k in the ramified order, with pi^2 = p."""
    half, odd = divmod(k, 2)
    return (0, 0, p ** half, 0) if odd else (p ** half, 0, 0, 0)


def _candidates(pattern: str, p: int, k: int):
    """Orbit representatives, each of reduced norm +-p^k."""
    if pattern == "ramified":
        return [_pi_power(p, k)]
    step = p if pattern == "level" else 1
    cands = []
    for a in range(k + 1):
        b = k - a
        cands.extend((p ** a, 0, step * c, p ** b) for c in range(p ** b))
    if pattern == "level":
        for b in range(1, k + 1):
            cands.extend((0, p ** (k - b), p ** b, d) for d in range(p ** b))
    return cands


def _key(pattern: str, p: int, k: int, x):
    """The candidate that x, of v_p(nrd) = k, reduces to by column operations.

    Split: the column Hermite form (p^a, 0, c mod p^b, p^b), the columns
    first swapped when v(x1) < v(x0).  Level: the Iwahori form, where col1
    may take only p times col2 and the columns never swap:
    (p^a, 0, c mod p^(b+1), p^b) when v(x0) <= v(x1), else
    (0, p^a, p^b, d mod p^b).  Ramified: pi^k.  None when x has no such
    form.  A hint only: `oracle_local_orbits` tests it exactly.
    """
    if pattern == "ramified":
        return _pi_power(p, k)
    v0, v1 = _vp(x[0], p), _vp(x[1], p)
    swap = v0 is None or (v1 is not None and v1 < v0)
    a = v1 if swap else v0
    if a is None or a > k:
        return None
    b = k - a
    top, low = (x[1], x[3]) if swap else (x[0], x[2])
    mod = p ** (b + 1) if pattern == "level" and not swap else p ** b
    c = low * pow(top // p ** a, -1, mod) % mod
    if pattern == "level" and swap:
        return (0, p ** a, p ** b, c)
    return (p ** a, 0, c, p ** b)


def _rows(pattern: str, p: int, M: int, x):
    """Right-unit invariants of x mod p^M: p^min(v, M) of each row's content.

    A right unit g acts on each row r by r -> r*g, which keeps the content.
    An Iwahori unit adds to r0 only p times a multiple of r1, so it also
    keeps min(v(r0), v(r1) + 1).  The ramified pattern has one candidate.
    """
    if pattern == "ramified":
        return ()
    q = p ** M
    rows = (math.gcd(x[0], x[1], q), math.gcd(x[2], x[3], q))
    if pattern == "level":
        rows += (math.gcd(x[0], p * x[1], q), math.gcd(x[2], p * x[3], q))
    return rows


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


def _residues(order, p, k):
    """The members mod p whose nrd is divisible by p exactly when k > 0.

    Membership is decided mod p, so these are the residues of the elements
    with v_p(nrd) = k; at k = 0 they are the residues of the units.
    """
    return [r for r in itertools.product(range(p), repeat=4)
            if order.member(r) and (order.nrd(r) % p == 0) == (k > 0)]


def _splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) % 2 ** 64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    return state, z ^ (z >> 31)


def _panel(order, cands, p, k, M):
    """Up to 125 uniform elements with v_p(nrd) = k among 50,000 draws, then
    250 translates u*c, c running through the candidates in turn and u a
    uniformly drawn unit of the order.

    A draw takes its residue mod p uniformly from `_residues` and its higher
    digits uniformly, so it is uniform over the elements with that residue,
    and an element with v_p(nrd) = k among them is uniform over all such.
    """
    q = p ** M
    state = 987654321
    # random words for the residue index and four digits mod p^(M-1), at
    # most p^(4M) choices, with 32 bits to spare against modulo bias
    words = (4 * M * p.bit_length() + 32) // 64 + 1

    def draw(residues):
        nonlocal state
        z = 0
        for _ in range(words):
            state, w = _splitmix(state)
            z = z << 64 | w
        z, i = divmod(z, len(residues))
        vals = []
        for r in residues[i]:
            z, d = divmod(z, q // p)
            vals.append(r + p * d)
        return tuple(vals)

    residues, units = _residues(order, p, k), _residues(order, p, 0)
    out = []
    for _ in range(50_000):
        if len(out) == 125:
            break
        x = draw(residues)
        if _vp(order.nrd(x), p) == k:
            out.append(x)
    for c in itertools.islice(itertools.cycle(cands), 250):
        out.append(tuple(v % q for v in order.mul(draw(units), c)))
    return out


def _sample(order, cands, p, k, M):
    """Every element of the order mod p^M with v_p(nrd) = k, or a panel."""
    # membership is decided mod p
    size = p ** (4 * M - 4) * sum(map(order.member,
                                      itertools.product(range(p), repeat=4)))
    if size > _SWEEP_CAP:
        return _panel(order, cands, p, k, M)
    q = p ** M
    return (x for r in _residues(order, p, k)
            for x in itertools.product(*(range(v, q, p) for v in r))
            if _vp(order.nrd(x), p) == k)


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
    buckets = {}
    for c in cands:
        buckets.setdefault(_rows(pattern, p, M, c), []).append(c)
    for bucket in buckets.values():
        for i, c in enumerate(bucket):
            same = _equivalents(order, p, k, M, c, bucket[i + 1:])
            if same:
                raise ArithmeticError(
                    "candidates %r and %r are equivalent" % (c, same[0]))
    known = set(cands)
    checked = 0
    for x in _sample(order, cands, p, k, M):
        key = _key(pattern, p, k, x)
        if not (key in known and _equivalents(order, p, k, M, x, (key,))):
            hits = len(_equivalents(order, p, k, M, x, cands))
            if hits != 1:
                raise ArithmeticError(
                    "element %r matched %d candidates" % (x, hits))
        checked += 1
    if checked == 0:
        raise ArithmeticError("empty sample for %s p=%d k=%d M=%d"
                              % (pattern, p, k, M))
    return len(cands)
