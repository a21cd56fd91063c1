"""Rational quaternion algebras (a,b | Q): elements, norms, local invariants.

An algebra is presented by structure constants (a, b): i^2 = a, j^2 = b,
ij = -ji = k.  The reduced norm is the quadratic form

    nrd(x0 + x1 i + x2 j + x3 k) = x0^2 - a x1^2 - b x2^2 + ab x3^2,

the reduced trace is 2 x0, and conjugation negates the pure part.  The
bilinear form used everywhere is (x, y) = trd(x * conj(y)), so that
(x, x) = 2 nrd(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    def ramified_at_infinity(self) -> bool:
        return _ram_cache(self.a, self.b)[1]

    @property
    def discriminant(self) -> int:
        return math.prod(self.ramified_primes)

    @property
    def is_definite(self) -> bool:
        return self.ramified_at_infinity

    def element(self, x0, x1=0, x2=0, x3=0) -> "QuatElement":
        return QuatElement(self, (Fraction(x0), Fraction(x1),
                                  Fraction(x2), Fraction(x3)))

    def one(self) -> "QuatElement":
        return self.element(1)

    def basis(self):
        return (self.element(1), self.element(0, 1),
                self.element(0, 0, 1), self.element(0, 0, 0, 1))

    def __repr__(self):
        return "QuaternionAlgebra(a=%d, b=%d)" % (self.a, self.b)


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


@dataclass(frozen=True)
class QuatElement:
    algebra: QuaternionAlgebra
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           tuple(Fraction(c) for c in self.coords))
        if len(self.coords) != 4:
            raise ValueError("quaternion elements have 4 coordinates")

    def _check(self, other):
        if self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return QuatElement(self.algebra,
                           tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return QuatElement(self.algebra,
                           tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        return QuatElement(self.algebra, tuple(-x for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuatElement(self.algebra,
                               tuple(x * other for x in self.coords))
        self._check(other)
        return QuatElement(self.algebra, quat_mul(
            self.algebra.a, self.algebra.b, self.coords, other.coords))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "QuatElement":
        x0, x1, x2, x3 = self.coords
        return QuatElement(self.algebra, (x0, -x1, -x2, -x3))

    def reduced_trace(self) -> Fraction:
        return 2 * self.coords[0]

    def reduced_norm(self) -> Fraction:
        return quat_nrd(self.algebra.a, self.algebra.b, self.coords)

    def pairing(self, other) -> Fraction:
        """(x, y) = trd(x * conj(y)); satisfies (x, x) = 2 nrd(x)."""
        return (self * other.conjugate()).reduced_trace()


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
    """
    if D < 1 or not is_squarefree(D):
        raise ValueError("discriminant must be a squarefree positive integer")
    if D == 1:
        return QuaternionAlgebra(1, 1)
    target = tuple(prime_factors(D))
    definite = len(target) % 2 == 1
    for bound in (50, 200, 1000):
        values = _candidate_values(bound, definite)
        for a in values:
            for b in values:
                finite, inf = _ram_cache(a, b)
                if finite == target and inf == definite:
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

    def _quad_mul(self, x1, x2, y1, y2):
        """(x1 + x2 u)(y1 + y2 u), using u^2 = t*u - n."""
        return (x1 * y1 - self.n * x2 * y2,
                x1 * y2 + x2 * y1 + self.t * x2 * y2)

    def mul(self, x, y):
        """(a + b pi)(c + d pi) = (a c + p b conj(d)) + (a d + b conj(c)) pi."""
        a1, a2, b1, b2 = x
        c1, c2, d1, d2 = y
        t = self.t
        ac = self._quad_mul(a1, a2, c1, c2)
        bd = self._quad_mul(b1, b2, d1 + t * d2, -d2)
        ad = self._quad_mul(a1, a2, d1, d2)
        bc = self._quad_mul(b1, b2, c1 + t * c2, -c2)
        return (ac[0] + self.p * bd[0], ac[1] + self.p * bd[1],
                ad[0] + bc[0], ad[1] + bc[1])

    def involution(self, x):
        a1, a2, b1, b2 = x
        return (a1 + self.t * a2, -a2, -b1, -b2)

    def nrd(self, x):
        a1, a2, b1, b2 = x
        return self.d_value(a1, a2) - self.p * self.d_value(b1, b2)


@lru_cache(maxsize=None)
def ramified_model(p: int) -> RamifiedModel:
    for t in range(p):
        for n in range(p):
            if all((x * x - t * x + n) % p for x in range(p)):
                return RamifiedModel(p, t, n)
    raise ArithmeticError("no irreducible quadratic mod %d" % p)
