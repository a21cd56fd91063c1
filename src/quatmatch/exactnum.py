"""Exact arithmetic foundation: rationals, cyclotomic numbers, residue symbols.

Conventions used across the package:

* ``e(t)`` denotes ``exp(2*pi*i*t)``; ``zeta(n, k)`` is the exact value
  ``e(k/n)`` in the canonical basis of `CyclotomicNumber`.
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


def is_prime(n: int) -> bool:
    return n >= 2 and prime_power_factors(n) == [(n, 1)]


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(k == 1 for _p, k in prime_power_factors(n))


# ---------------------------------------------------------------------------
# cyclotomic numbers

@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple:
    """(q, p, phi(q), (n/q)^(-1) mod q, (q/p)*(n/q)) for each prime power q || n."""
    out = []
    for p, k in prime_power_factors(n):
        q = p ** k
        out.append((q, p, q - q // p, pow(n // q, -1, q), q // p * (n // q)))
    return tuple(out)


class CyclotomicNumber:
    """An element of some cyclotomic field, stored at its minimal conductor.

    The representation is canonical.  The conductor n is the smallest n with
    the value in Q(zeta_n) (never 2 mod 4), and the value is sum c * zeta_n^r
    over the sorted nonzero `terms` (r, c), where r runs over the basis
    exponents: for each prime power q = p^k || n, e_q(r) = r * (n/q)^(-1)
    mod q satisfies e_q(r) < phi(q).  Since zeta_n^r is the product of the
    zeta_q^(e_q(r)), this basis is the tensor product of the power bases
    1, zeta_q, ..., zeta_q^(phi(q)-1), so for a prime power n it is the
    power basis.  It contains the basis of every cyclotomic subfield
    (Bosma, "Canonical bases for cyclotomic fields", AAECC 1, 1990):
    reduction is one rewrite pass per q and descent a gcd of exponents.
    Two values are equal iff their (conductor, terms) pairs are equal.

    `CyclotomicNumber(n, terms)` is the value sum c * zeta_n^r over any
    (r, c) pairs with rational c (int or Fraction): exponents are taken
    mod n and repeats add up.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=()):
        acc = {}
        for r, c in terms:
            r %= n
            acc[r] = acc.get(r, 0) + c
        if n % 4 == 2:
            # zeta_n = -zeta_h^((h+1)/2) with h = n/2 odd
            h, acc2 = n // 2, {}
            for r, c in acc.items():
                s = r * ((h + 1) // 2) % h
                acc2[s] = acc2.get(s, 0) + (-c if r % 2 else c)
            n, acc = h, acc2
        for q, p, phi, inv, step in _prime_powers(n):
            # zeta_q^e with e >= phi(q) is -sum_{j=1}^{p-1} zeta_q^(e - j*q/p);
            # in exponents of zeta_n this moves e_q(r) only, so one pass per
            # q is enough
            for r in [r for r in acc if r * inv % q >= phi]:
                c = acc.pop(r)
                for j in range(1, p):
                    s = (r - j * step) % n
                    acc[s] = acc.get(s, 0) - c
        nonzero = [(r, c) for r, c in acc.items() if c]
        # the value lies in Q(zeta_(n/p)) iff p divides every basis exponent
        g = math.gcd(n, *(r for r, _c in nonzero))
        self.n = n // g
        self.terms = tuple(sorted((r // g, c) for r, c in nonzero))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, ((0, Fraction(q)),))

    # -- predicates / conversions -------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ValueError("value is not rational: %s" % (self,))
        return Fraction(self.terms[0][1]) if self.terms else Fraction(0)

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ----------------------------------------------------------
    def _lifted(self, m):
        """The (exponent, coefficient) pairs of self over zeta_m; requires n | m."""
        step = m // self.n
        return [(r * step, c) for r, c in self.terms]

    def _galois(self, a):
        """The automorphism zeta_n -> zeta_n^a, for a coprime to n."""
        return CyclotomicNumber(self.n, [(a * r, c) for r, c in self.terms])

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
        m = math.lcm(self.n, other.n)
        return CyclotomicNumber(m, self._lifted(m) + other._lifted(m))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.n, [(r, -c) for r, c in self.terms])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # scaling by a nonzero rational keeps the terms canonical
            out = CyclotomicNumber.__new__(CyclotomicNumber)
            out.n, out.terms = 1, ()
            if other:
                out.n = self.n
                out.terms = tuple((r, c * other) for r, c in self.terms)
            return out
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = math.lcm(self.n, other.n)
        return CyclotomicNumber(m, [(r + s, c * d) for r, c in self._lifted(m)
                                    for s, d in other._lifted(m)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._inverse()

    def _inverse(self):
        """The product of the other Galois conjugates over the rational norm."""
        if self.is_zero():
            raise ZeroDivisionError("division by cyclotomic zero")
        others = CyclotomicNumber.from_rational(1)
        for a in range(2, self.n):
            if math.gcd(a, self.n) == 1:
                others = others * self._galois(a)
        return others * (1 / (self * others).rational_value())

    def __pow__(self, k: int):
        if k < 0:
            return (self ** (-k))._inverse()
        out = CyclotomicNumber.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation (zeta -> zeta^{-1})."""
        return self._galois(-1)

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
    """The exact root of unity e(k/n)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return CyclotomicNumber(n, ((k, 1),))


# ---------------------------------------------------------------------------
# residue symbols

def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), completely multiplicative extension of Legendre."""
    if n == 0:
        raise ValueError("modulus must be nonzero")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for odd positive n
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _val_unit(x: Fraction, p: int):
    """x = p^v * u with u a p-unit; returns (v, u)."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_mod(u: Fraction, m: int) -> int:
    return (u.numerator * pow(u.denominator, -1, m)) % m


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or the archimedean place.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at `place` (an int prime, or OO for the real place).
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == OO:
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    if p < 2:
        raise ValueError("invalid place: %r" % (place,))
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= kronecker_symbol(_unit_mod(u, p), p)
        if alpha % 2:
            sign *= kronecker_symbol(_unit_mod(w, p), p)
        return sign
    eps_u = (_unit_mod(u, 4) - 1) // 2 % 2
    eps_w = (_unit_mod(w, 4) - 1) // 2 % 2
    omega_u = 0 if _unit_mod(u, 8) in (1, 7) else 1
    omega_w = 0 if _unit_mod(w, 8) in (1, 7) else 1
    exponent = (eps_u * eps_w + alpha * omega_w + beta * omega_u) % 2
    return -1 if exponent else 1

