"""Rational quaternion algebras (a,b | Q): local invariants, coordinate arithmetic.

An algebra is presented by structure constants (a, b): i^2 = a, j^2 = b,
ij = -ji = k.  The reduced norm is the quadratic form

    nrd(x0 + x1 i + x2 j + x3 k) = x0^2 - a x1^2 - b x2^2 + ab x3^2,

the reduced trace is 2 x0, and conjugation negates the pure part.  The
bilinear form used everywhere is (x, y) = trd(x * conj(y)), so that
(x, x) = 2 nrd(x).  An element is its coordinate 4-tuple (x0, x1, x2, x3);
`quat_mul` and `quat_nrd` act on such tuples.  The element-wise reference
the tests check the lattice code against is in tests/genus_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exactnum import OO, hilbert_symbol, is_squarefree, prime_factors


def ramified_places(a: int, b: int):
    """(finite ramified primes, True if the real place ramifies)."""
    primes = set(prime_factors(2 * abs(a) * abs(b)))
    finite = sorted(p for p in primes if hilbert_symbol(a, b, p) == -1)
    return finite, hilbert_symbol(a, b, OO) == -1


@dataclass(frozen=True)
class QuaternionAlgebra:
    a: int
    b: int

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise ValueError("structure constants must be nonzero")

    @property
    def ramified_primes(self):
        return _ram_cache(self.a, self.b)[0]

    @property
    def discriminant(self) -> int:
        return math.prod(self.ramified_primes)

    @property
    def is_definite(self) -> bool:
        return _ram_cache(self.a, self.b)[1]


@lru_cache(maxsize=None)
def _ram_cache(a, b):
    finite, inf = ramified_places(a, b)
    return tuple(finite), inf


def quat_mul(a, b, x, y):
    """Coordinates of x * y in (a, b | Q), for coordinate 4-tuples x and y."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def quat_nrd(a, b, x):
    """nrd of the element with coordinate 4-tuple x in (a, b | Q)."""
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


# ---------------------------------------------------------------------------
# construction from a target discriminant

def _candidate_values(bound: int, definite: bool):
    """Structure-constant candidates ordered by magnitude (positives first)."""
    out = [-1]
    for v in range(2, bound + 1):
        if definite:
            out.append(-v)
        else:
            out.append(v)
            out.append(-v)
    return out


def construct_algebra(D: int) -> QuaternionAlgebra:
    """The quaternion algebra over Q ramified exactly at the primes of D.

    D must be squarefree.  The real place ramifies iff D has an odd number
    of prime factors; in that case the returned constants are negative so
    the norm form is positive definite.  The search over candidate pairs is
    deterministic (magnitude-lexicographic), so the result is reproducible.
    A bound below the largest prime q of D is skipped: q is odd and divides
    neither constant, so no pair within it ramifies at q.  When the bounded
    search fails, b = -D (definite) or b = +-D (indefinite) is tried with
    each a of the widest candidate list.
    """
    if D < 1 or not is_squarefree(D):
        raise ValueError("discriminant must be a squarefree positive integer")
    if D == 1:
        return QuaternionAlgebra(1, 1)
    primes = tuple(prime_factors(D))
    definite = len(primes) % 2 == 1
    target = (primes, definite)
    for bound in (50, 200, 1000):
        if bound < primes[-1]:
            continue
        values = _candidate_values(bound, definite)
        for a in values:
            for b in values:
                if _ram_cache(a, b) == target:
                    return QuaternionAlgebra(a, b)
    for a in _candidate_values(1000, definite):
        for b in ((-D,) if definite else (D, -D)):
            if _ram_cache(a, b) == target:
                return QuaternionAlgebra(a, b)
    raise ArithmeticError("no structure constants found for D=%d" % D)


# ---------------------------------------------------------------------------
# the local division algebra at a ramified prime

@dataclass(frozen=True)
class RamifiedModel:
    """Local model of the p-adic division quaternion algebra.

    The unramified quadratic extension is generated by u with
    u^2 = t*u - n, where x^2 - t x + n is irreducible mod p and (t, n) is
    the lexicographically least such pair.  A uniformizer pi satisfies
    pi^2 = p and pi * r = conj(r) * pi for r in the quadratic subfield.
    Elements are flat tuples (a1, a2, b1, b2) standing for
    (a1 + a2 u) + (b1 + b2 u) pi, the coordinates in which
    `weilmatch.ramified_space` derives its coset norms.
    """
    p: int
    t: int
    n: int

    def d_value(self, k: int, l: int) -> int:
        """Norm-form value k^2 + k*l*t + l^2*n of k + l*u."""
        return k * k + k * l * self.t + l * l * self.n

    def mul(self, x, y):
        """(a + b pi)(c + d pi) = (a c + p b conj(d)) + (a d + b conj(c)) pi,
        each product in the quadratic subfield written out by u^2 = t*u - n."""
        a1, a2, b1, b2 = x
        c1, c2, d1, d2 = y
        p, t, n = self.p, self.t, self.n
        e1, e2 = d1 + t * d2, -d2  # conj(d)
        f1, f2 = c1 + t * c2, -c2  # conj(c)
        return (a1 * c1 - n * a2 * c2 + p * (b1 * e1 - n * b2 * e2),
                a1 * c2 + a2 * c1 + t * a2 * c2
                + p * (b1 * e2 + b2 * e1 + t * b2 * e2),
                a1 * d1 - n * a2 * d2 + b1 * f1 - n * b2 * f2,
                a1 * d2 + a2 * d1 + t * a2 * d2
                + b1 * f2 + b2 * f1 + t * b2 * f2)

    def nrd(self, x):
        """N(a1 + a2 u) - p * N(b1 + b2 u)."""
        a1, a2, b1, b2 = x
        return self.d_value(a1, a2) - self.p * self.d_value(b1, b2)


@lru_cache(maxsize=None)
def ramified_model(p: int) -> RamifiedModel:
    for t in range(p):
        for n in range(p):
            if all((x * x - t * x + n) % p for x in range(p)):
                return RamifiedModel(p, t, n)
    raise ArithmeticError("no irreducible quadratic mod %d" % p)
