"""Values in Q(zeta_p): the exact field the test references compute in.

``e(t)`` denotes ``exp(2*pi*i*t)``; ``zeta(n, k)`` is the exact value
``e(k/n)`` for n = 1 or a prime, in the power basis of `CyclotomicNumber`.
The package itself never leaves Q: `weilmatch` evaluates lambda only where
it is rational and reads every other root of unity as an integer exponent
mod p.  `weil_reference` acts on Schwartz functions with coefficients
here, and the tests compare its values with the exponents the package
certifies.
"""

from fractions import Fraction
from functools import lru_cache

from quatmatch.exactnum import is_prime


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
