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
right-unit invariants, the contents of row combinations.  The oracle is
linear in the sample: an element is tested exactly against its key only,
and falls back to a scan of every candidate, which must find exactly one,
when the key is no candidate or fails the test.  Candidates are tested
pairwise only within a bucket of equal invariants, of at most p(p-1) on
the tested ops.  Neither the invariants nor the exact test depend on M, so
a candidate family is certified once per process, at M = k + 2, and the
certificate is kept under the family itself.  Each local order and its
residue tables mod p are also built once per process.  What the oracle
reads of an element x with v_p(nrd x) = k is fixed by x mod p^(k+1), so a
sweep visits each valuation-k residue mod p^(k+1) once rather than all its
lifts mod p^M.  A panel unranks uniform indices through a bijection onto
the elements of valuation k mod p^M, so it draws uniformly over them and
rejects no draw.

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
import random
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


def local_degree(pattern: str, p: int, k: int) -> int:
    """The closed-form local factor at p^k (see the module docstring) of the
    pattern "split" (p coprime to D*N), "level" (p || N) or "ramified" (p | D)."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if pattern == "split":
        return _sigma(p, k)
    if pattern == "level":
        return _sigma(p, k) + p * _sigma(p, k - 1)  # sigma(p^-1) = 0
    if pattern == "ramified":
        return 1
    raise ValueError("unknown local pattern: %r" % (pattern,))


def deg_T(D: int, N: int, m: int) -> int:
    """Degree (over one factor) of the determinant-m correspondence."""
    volume(D, N)  # the one check that (D, N) is an indefinite level
    if m < 1:
        raise ValueError("m must be a positive integer")
    total = 1
    for p, k in prime_power_factors(m):
        if D % p == 0:
            total *= local_degree("ramified", p, k)
        elif N % p == 0:
            if N % (p * p) == 0:
                raise ValueError("level factors are implemented for squarefree N only")
            total *= local_degree("level", p, k)
        else:
            total *= local_degree("split", p, k)
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
# in different buckets are inequivalent without a test; candidates with
# equal row contents differ in the contents of row combinations.  For (ii),
# `_key` names the candidate x should match, its column-reduced form; the
# key is only a hint.  When the key is a candidate and passes the exact
# test, x matches no other candidate: the test passing for x and c means
# c = x'*g for every lift x' of x and an exact unit g, so two hits would
# make two candidates equivalent, which (i) excludes.  Otherwise x gets the
# full scan over all candidates, which must find exactly one hit.
# The exact test reads h = conj(x)*y / p^k, a unit multiple of g, only
# mod p, and `_rows` is a right-unit invariant at every M; so (i) does not
# depend on M.  `_certify` runs it at M = k + 2, where `_rows` is cheapest,
# once per process for each candidate family: its cache is keyed on the
# family tuple, not on (pattern, p, k), so a changed family is certified
# anew, and a failed certificate raises and is never stored.
# For x with v_p(nrd x) = k, all of this reads x only mod p^(k+1):
# nrd(x) and conj(x)*y are integer polynomials, so the p^k-divisibility of
# conj(x)*y and h mod p agree across lifts of x; `_key` reads x mod
# p^(k+1).
# When the order mod p^M has at most _SWEEP_CAP elements, the sample is
# therefore every valuation-k element mod p^(k+1), each once, standing for
# its p^(4(M-k-1)) lifts mod p^M.  Otherwise it is a deterministic panel:
# `_unrank` of uniform indices from a fixed-seed Mersenne Twister, which are
# uniform elements mod p^M with v_p(nrd) = k, as no draw is rejected, then
# translates u*c of the candidates by uniform units u.  Both read the
# residue tables of `_local_order`, built once per (pattern, p) and kept
# as bytes.  Left units permute the right orbits, so the translates reach
# orbits that uniform draws rarely hit at large k.
# The panel does not use pi^k * unit: it is right-equivalent to pi^k by
# construction, so it tests nothing, whereas u * pi^k must pass the full
# test.

_SWEEP_CAP = 600_000

# (j, s) for each entry i of a 2x2 x: det x = s*x_i*x_j + terms free of x_j
_PARTNER = ((3, 1), (2, -1), (1, -1), (0, 1))


class _LocalOrder(NamedTuple):
    mul: Callable
    conj: Callable
    nrd: Callable
    member: Callable
    # the unit and the nonzero nonunit residues mod p, in product order,
    # four bytes each (p < 256): a cached order holds about 4 bytes per
    # residue instead of a 4-tuple's 80
    units: bytes
    singular: bytes
    inner: object = None  # the order of x' for x = p*x' (None: this one)
    # pi^2 = p, so a nonzero nonunit residue lifts only to v_p(nrd) = 1
    pi_squared_is_p: bool = False


def _det2(x):
    return x[0] * x[3] - x[1] * x[2]


def _adj2(x):
    return (x[3], -x[1], -x[2], x[0])


def _mul2(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@lru_cache(maxsize=None)
def _local_order(pattern: str, p: int) -> _LocalOrder:
    """The pattern's order and its residue tables mod p, which decide
    membership, built once per (pattern, p).  An x = p*x' of the level
    order has any split x'."""
    inner = _local_order("split", p) if pattern == "level" else None
    if pattern == "ramified":
        model = ramified_model(p)
        ops = (model.mul, model.involution, model.nrd, lambda x: True)
    elif inner:
        ops = (_mul2, _adj2, _det2, lambda x: x[2] % p == 0)
    else:
        ops = (_mul2, _adj2, _det2, lambda x: True)
    units, singular = bytearray(), bytearray()
    # every member residue but zero, the first in product order
    for r in itertools.islice(itertools.product(range(p), repeat=4), 1, None):
        if ops[3](r):
            (units if ops[2](r) % p else singular).extend(r)
    return _LocalOrder(*ops, bytes(units), bytes(singular), inner,
                       pattern == "ramified")


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
    # p^min(v, k + 1) of the top entries: only valuations up to k matter
    pk = p ** k
    g0, g1 = math.gcd(x[0], pk * p), math.gcd(x[1], pk * p)
    swap = g1 < g0
    pa = g1 if swap else g0
    if pa > pk:
        return None
    pb = pk // pa
    top, low = (x[1], x[3]) if swap else (x[0], x[2])
    mod = pb * p if pattern == "level" and not swap else pb
    c = low * pow(top // pa, -1, mod) % mod
    if pattern == "level" and swap:
        return (0, pa, pb, c)
    return (pa, 0, c, pb)


@lru_cache(maxsize=None)
def _row_vectors(p: int, M: int):
    """The vectors f of `_rows`, built once per (p, M)."""
    return tuple(f for s in range(p) for t in (p ** j for j in range(M - 1))
                 for f in ((s, t), (t, s)))


def _rows(pattern: str, p: int, M: int, x):
    """Right-unit invariants of x mod p^M: p^min(v, M) of the content of
    f*x for f = (s, p^j) and (p^j, s), 0 <= s < p, 0 <= j <= M - 2.

    A right unit g keeps the content of each row vector f*x, as (f*x)*g =
    f*(x*g); f = (0, 1) and (1, 0) give the rows.  An Iwahori unit adds to
    column 0 only multiples of p*column 1, so it also keeps the content of
    (r_0, p*r_1) for each row r.  The ramified pattern has one candidate.
    """
    if pattern == "ramified":
        return ()
    q = p ** M
    x0, x1, x2, x3 = x
    gcd = math.gcd
    rows = tuple([gcd(a * x0 + b * x2, a * x1 + b * x3, q)
                  for a, b in _row_vectors(p, M)])
    if pattern == "level":
        rows += (gcd(x0, p * x1, q), gcd(x2, p * x3, q))
    return rows


def _equivalents(order, p, k, x, ys):
    """The y in ys with y = x*g for a unit g of the order: the exact test
    over Z_p.

    g = conj(x)*y / nrd(x) must be integral (p^k divides conj(x)*y), have a
    unit nrd and lie in the order.  With nrd(x) = p^k*u, u a unit, the test
    reads h = conj(x)*y / p^k = u*g instead: nrd(h) = u^2*nrd(g) is a unit
    when nrd(g) is, and the order, a Z_p-module, holds h when it holds g.
    Both conditions read h only mod p, so no modulus enters.
    """
    n = order.nrd(x)
    pk = p ** k
    if n % pk or not n // pk % p:  # v_p(nrd x) != k
        return []
    mul, nrd, member = order.mul, order.nrd, order.member
    cx = order.conj(x)
    out = []
    for y in ys:
        a, b, c, d = mul(cx, y)
        if a % pk or b % pk or c % pk or d % pk:
            continue
        h = (a // pk % p, b // pk % p, c // pk % p, d // pk % p)
        if nrd(h) % p and member(h):
            out.append(y)
    return out


@lru_cache(maxsize=None)
def _certify(pattern: str, p: int, k: int, cands: tuple) -> None:
    """Certify that no two of the candidates are right-equivalent, or raise
    ArithmeticError naming two that are.

    Pairs are tested only within a bucket of equal `_rows` at M = k + 2.
    Neither step depends on M: `_rows` is a right-unit invariant at every
    M and `_equivalents` is exact over Z_p, so the certificate holds at
    every M of the oracle and p^(k+2) is the cheapest modulus.  The cache
    is keyed on the family itself, so a changed family is certified anew,
    and a failed certificate raises and is never stored.
    """
    order = _local_order(pattern, p)
    buckets = {}
    for c in cands:
        buckets.setdefault(_rows(pattern, p, k + 2, c), []).append(c)
    for bucket in buckets.values():
        for i, c in enumerate(bucket):
            same = _equivalents(order, p, k, c, bucket[i + 1:])
            if same:
                raise ArithmeticError(
                    "candidates %r and %r are equivalent" % (c, same[0]))


def _count(order, p, k, M):
    """The number of elements of the order mod p^M with v_p(nrd) = k."""
    if k == 0:
        return len(order.units) // 4 * p ** (4 * M - 4)
    zero = _count(order.inner or order, p, k - 2, M - 1) if k >= 2 else 0
    if order.pi_squared_is_p:
        return zero + (k == 1) * len(order.singular) // 4 * p ** (4 * M - 4)
    return zero + len(order.singular) // 4 * (p - 1) * p ** (4 * M - k - 4)


def _unrank(order, p, k, M, z):
    """The z-th element of the order mod p^M with v_p(nrd) = k, a bijection
    from range(_count(order, p, k, M)) onto those elements.

    k = 0: a unit residue and four digits mod p^(M-1).  k >= 2 first: p*x'
    for x' of valuation k - 2 mod p^(M-1).  Then a nonzero nonunit residue
    r: with four digits when pi^2 = p (so k = 1), else with digits for the
    entries but the partner j of r's first unit entry i, and x_j solving
    nrd x = p^k*u for a unit u mod p^(M-k); nrd is linear in x_j with unit
    coefficient +-x_i, and x_j = r_j mod p as nrd r = 0 mod p.
    """
    if k >= 2:
        inner = order.inner or order
        zero = _count(inner, p, k - 2, M - 1)
        if z < zero:
            return tuple(p * v for v in _unrank(inner, p, k - 2, M - 1, z))
        z -= zero
    table = order.singular if k else order.units
    z, i = divmod(z, len(table) // 4)
    x, free, j = list(table[4 * i:4 * i + 4]), p ** (M - 1), None
    if k and not order.pi_squared_is_p:
        i = next(filter(x.__getitem__, range(4)))
        j, sign = _PARTNER[i]
        x[j] = 0
    for n in range(4):
        if n != j:
            z, d = divmod(z, free)
            x[n] += p * d
    if j is not None:
        z, d = divmod(z, p - 1)
        q = p ** M
        x[j] = ((p ** k * (1 + d + p * z) - order.nrd(x))
                * pow(sign * x[i], -1, q) % q)
    return tuple(x)


def _panel(order, cands, p, k, M):
    """125 uniform elements mod p^M with v_p(nrd) = k, then 250 translates
    u*c, c running through the candidates in turn and u a uniform unit: each
    `_unrank` of a uniform index from a fixed-seed Mersenne Twister."""
    q = p ** M
    rng = random.Random(987654321)

    def draw(j, count):
        x = _unrank(order, p, j, M, rng.randrange(count))
        n, pj = order.nrd(x), p ** j
        if not (order.member(x) and n % pj == 0 and n // pj % p):
            raise ArithmeticError("%r is no member of valuation %d" % (x, j))
        return x

    count, units = _count(order, p, k, M), _count(order, p, 0, M)
    out = [draw(k, count) for _ in range(125)]
    for c in itertools.islice(itertools.cycle(cands), 250):
        out.append(tuple(v % q for v in order.mul(draw(0, units), c)))
    return out


def _sample(order, cands, p, k, M):
    """Every element of the order mod p^(k+1) with v_p(nrd) = k, each once,
    which decide every element mod p^M, when the order mod p^M has at most
    _SWEEP_CAP elements; else `_panel`."""
    members = (len(order.units) + len(order.singular)) // 4 + 1
    if p ** (4 * M - 4) * members > _SWEEP_CAP:
        return _panel(order, cands, p, k, M)
    pk, q = p ** k, p ** (k + 1)
    residues = order.singular + bytes(4) if k else order.units
    return (x for i in range(0, len(residues), 4)
            for x in itertools.product(*(range(v, q, p)
                                         for v in residues[i:i + 4]))
            if (n := order.nrd(x)) % pk == 0 and n // pk % p)


def oracle_local_orbits(pattern: str, p: int, k: int, M: int) -> int:
    """Count orbits of determinant-p^k-unit elements under right unit action.

    `pattern` is "split", "level" or "ramified"; the computation is carried
    out in the corresponding local order.  M is the modulus of the panel's
    digits, and the size of the order mod p^M decides between sweep and
    panel; the margin M >= k + 2 keeps the count of mod-p^M classes stable.
    The exact test and the certificate of the candidates read no modulus:
    the certificate is made once per family and holds at every M.  A sweep
    visits the valuation-k elements mod p^(k+1), which decide every test.
    """
    if pattern not in ("split", "level", "ramified"):
        raise ValueError("unknown pattern %r" % (pattern,))
    if M < k + 2:
        raise ValueError("need M >= k + 2 for a stable orbit count")
    if p > 255:
        raise ValueError("the residue tables hold digits mod p < 256")
    order = _local_order(pattern, p)
    cands = tuple(_candidates(pattern, p, k))
    _certify(pattern, p, k, cands)
    known = set(cands)
    checked = 0
    for x in _sample(order, cands, p, k, M):
        key = _key(pattern, p, k, x)
        if not (key in known and _equivalents(order, p, k, x, (key,))):
            hits = len(_equivalents(order, p, k, x, cands))
            if hits != 1:
                raise ArithmeticError(
                    "element %r matched %d candidates" % (x, hits))
        checked += 1
    if checked == 0:
        raise ArithmeticError("empty sample for %s p=%d k=%d M=%d"
                              % (pattern, p, k, M))
    return len(cands)
