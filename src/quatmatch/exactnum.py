"""Exact arithmetic foundation: rationals, values in Q(zeta_p), residue symbols.

Conventions used across the package:

* ``e(t)`` denotes ``exp(2*pi*i*t)``; ``zeta(n, k)`` is the exact value
  ``e(k/n)`` for n = 1 or a prime, in the power basis of `CyclotomicNumber`.
* The Hilbert symbol at odd p uses the Legendre symbols of the unit parts;
  at p = 2 it uses the classical (u-1)/2 and (u^2-1)/8 exponents.

Every value is immutable and every function is pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: marker for the archimedean place in `hilbert_symbol`
OO = math.inf


# ---------------------------------------------------------------------------
# integer factoring (trial division; the package only factors small integers)

def prime_power_factors(n: int):
    """[(p, v_p(n)), ...] over the primes dividing n, in increasing order."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int):
    """The distinct primes dividing n, in increasing order."""
    return [p for p, _k in prime_power_factors(n)]


def valuation(n: int, p: int):
    """v_p(n), or None for n = 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    return n >= 2 and prime_power_factors(n) == [(n, 1)]


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(k == 1 for _p, k in prime_power_factors(n))


# ---------------------------------------------------------------------------
# values in Q(zeta_p)

@lru_cache(maxsize=None)
def _conductor(n: int) -> int:
    """n, if it is 1 or a prime; the power-basis rewrite holds only there."""
    if n != 1 and not is_prime(n):
        raise ValueError("conductor must be 1 or a prime, got %r" % (n,))
    return n


class CyclotomicNumber:
    """An element of Q(zeta_p) for one prime p, in the power basis.

    The value is sum c * zeta_n^r over the sorted nonzero `terms` (r, c),
    r < p - 1: the basis 1, zeta_p, ..., zeta_p^(p-2) of Washington,
    "Introduction to Cyclotomic Fields", ch. 1.  The conductor n is p, or 1
    for a rational value (its only term is r = 0), so two values are equal
    iff their (n, terms) pairs are.  `CyclotomicNumber(n, terms)` takes any
    (r, c) pairs with rational c, for n = 1 or a prime: exponents are read
    mod n, repeats add up, and zeta_p^(p-1) becomes -(1 + ... + zeta_p^(p-2)).
    Values add, scale by a rational and rotate; two primes do not mix.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=()):
        n = _conductor(n)
        acc = {}
        for r, c in terms:
            r %= n
            acc[r] = acc[r] + c if r in acc else c
        top = acc.pop(n - 1, 0) if n > 1 else 0
        if top:
            for r in range(n - 1):
                acc[r] = acc[r] - top if r in acc else -top
        terms = tuple(sorted((r, c) for r, c in acc.items() if c))
        self.n = n if terms and terms[-1][0] else 1
        self.terms = terms

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, ((0, Fraction(q)),))

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ValueError("value is not rational: %s" % (self,))
        return Fraction(self.terms[0][1]) if self.terms else Fraction(0)

    # -- arithmetic ----------------------------------------------------------
    def rotate(self, p: int, k: int) -> "CyclotomicNumber":
        """self * zeta_p^k, for self in Q(zeta_p)."""
        if self.n not in (1, p):
            raise ValueError("cannot rotate a value of conductor %d by zeta_%d"
                             % (self.n, p))
        return CyclotomicNumber(p, [(r + k, c) for r, c in self.terms])

    @staticmethod
    def _coerce(x):
        if isinstance(x, CyclotomicNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CyclotomicNumber.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n != other.n and 1 not in (self.n, other.n):
            raise ValueError("cannot add values of conductors %d and %d"
                             % (self.n, other.n))
        return CyclotomicNumber(max(self.n, other.n), self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """Scaling by a rational: an int, a Fraction or a rational value."""
        if isinstance(other, CyclotomicNumber):
            if self.n == 1:
                self, other = other, self
            if other.n != 1:
                return NotImplemented
            other = other.rational_value()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return CyclotomicNumber(1)
        out = object.__new__(CyclotomicNumber)  # the terms stay canonical
        out.n, out.terms = self.n, tuple((r, c * other) for r, c in self.terms)
        return out

    __rmul__ = __mul__

    # -- comparison / hashing -------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self.n == 1:
            return hash(self.rational_value())
        return hash((self.n, self.terms))

    def __repr__(self):
        return "CyclotomicNumber(%d, %r)" % (self.n, list(self.terms))

    def __str__(self):
        if self.n == 1:
            return str(self.rational_value())
        parts = []
        for i, c in self.terms:
            if i == 0:
                parts.append(str(c))
            else:
                mono = "z%d" % self.n if i == 1 else "z%d^%d" % (self.n, i)
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append("-" + mono)
                else:
                    parts.append("%s*%s" % (c, mono))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    """The exact root of unity e(k/n), for n = 1 or a prime."""
    return CyclotomicNumber(n, ((k, 1),))


# ---------------------------------------------------------------------------
# residue symbols

def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) at an odd prime p, by Euler's criterion."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def hilbert_symbol(a: int, b: int, place) -> int:
    """Hilbert symbol (a, b) of nonzero integers at a finite prime or the
    archimedean place.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at `place` (an int prime, or OO for the real place).
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("Hilbert symbol arguments must be integers")
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == OO:
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    if p < 2:
        raise ValueError("invalid place: %r" % (place,))
    alpha, beta = valuation(a, p), valuation(b, p)
    u, w = a // p ** alpha, b // p ** beta
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= legendre_symbol(u, p)
        if alpha % 2:
            sign *= legendre_symbol(w, p)
        return sign
    eps_u = (u % 4 - 1) // 2
    eps_w = (w % 4 - 1) // 2
    omega_u = 0 if u % 8 in (1, 7) else 1
    omega_w = 0 if w % 8 in (1, 7) else 1
    exponent = (eps_u * eps_w + alpha * omega_w + beta * omega_u) % 2
    return -1 if exponent else 1

