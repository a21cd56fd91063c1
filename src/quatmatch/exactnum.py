"""Exact arithmetic foundation: rationals, cyclotomic numbers, residue symbols.

Conventions used across the package:

* ``e(t)`` denotes ``exp(2*pi*i*t)``; ``zeta(n, k)`` is the exact value
  ``e(k/n)`` in the power basis of the n-th cyclotomic field.
* The additive character of Q_p is ``psi_p(x) = e(-frac_p(x))`` where
  ``frac_p`` is the p-adic fractional part.  With this normalisation psi_p
  is trivial on p-adic integers and ``e(x) * prod_p psi_p(x) = 1`` on Q.
* The Hilbert symbol at odd p uses the Legendre symbols of the unit parts;
  at p = 2 it uses the classical (u-1)/2 and (u^2-1)/8 exponents.

Every value is immutable and every function is pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

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
# dense integer/rational polynomial helpers (ascending coefficients)

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod_monic(a, b):
    """Divide by a monic polynomial; works over Z or Q, stays exact."""
    a = list(a)
    _poly_trim(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    while len(a) >= db + 1:
        shift = len(a) - 1 - db
        coeff = a[-1]
        quot[shift] = coeff
        for i, y in enumerate(b):
            a[i + shift] -= coeff * y
        _poly_trim(a)
    return quot, a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial (ascending, integer)."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_monic(poly, list(cyclotomic_polynomial(d)))
            if _poly_trim(list(r)):
                raise ArithmeticError("cyclotomic division failed")
            poly = q
    return tuple(int(c) for c in poly)


def _euler_phi(n: int) -> int:
    phi = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            phi -= phi // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        phi -= phi // m
    return phi


def _reduce_mod_cyclotomic(n, coeffs):
    """Reduce an ascending coefficient list modulo Phi_n; pad to phi(n)."""
    phi = _euler_phi(n)
    _, rem = _poly_divmod_monic([Fraction(c) for c in coeffs],
                                list(cyclotomic_polynomial(n)))
    rem = list(rem) + [Fraction(0)] * (phi - len(rem))
    return [Fraction(c) for c in rem[:phi]]


@lru_cache(maxsize=None)
def _monomial_coords(n: int, k: int) -> tuple:
    """Coordinates of zeta_n^k in the power basis of Q(zeta_n)."""
    k %= n
    phi = _euler_phi(n)
    if k < phi:
        out = [Fraction(0)] * phi
        out[k] = Fraction(1)
        return tuple(out)
    return tuple(_reduce_mod_cyclotomic(n, [0] * k + [1]))


class CyclotomicNumber:
    """An element of some cyclotomic field, stored at its minimal conductor.

    The representation is canonical: the conductor is the smallest n with
    the value in Q(zeta_n) (never 2 mod 4), and the coordinates are taken in
    the power basis 1, zeta, ..., zeta^(phi(n)-1).  Two values are equal iff
    their (conductor, coordinates) pairs are equal.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs, _canonical=False):
        if _canonical:
            self.n = n
            self.coeffs = tuple(coeffs)
            return
        coeffs = _reduce_mod_cyclotomic(n, list(coeffs))
        n, coeffs = _descend_conductor(n, coeffs)
        self.n = n
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(q),), _canonical=True)

    # -- predicates / conversions -------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ValueError("value is not rational: %s" % (self,))
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return self.n == 1 and self.coeffs[0] == 0

    # -- arithmetic ----------------------------------------------------------
    def _lift(self, m):
        """Coefficient list of self inside Q(zeta_m); requires n | m."""
        step = m // self.n
        out = [Fraction(0)] * _euler_phi(m)
        for i, c in enumerate(self.coeffs):
            if c:
                mono = _monomial_coords(m, i * step)
                for j, x in enumerate(mono):
                    if x:
                        out[j] += c * x
        return out

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
        m = _lcm(self.n, other.n)
        a = self._lift(m)
        b = other._lift(m)
        return CyclotomicNumber(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.n, tuple(-c for c in self.coeffs),
                                _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.n == 1:
            c = other.coeffs[0]
            return CyclotomicNumber(self.n, tuple(x * c for x in self.coeffs),
                                    _canonical=True) if c else CyclotomicNumber.from_rational(0)
        if self.n == 1:
            return other * self
        m = _lcm(self.n, other.n)
        prod = _poly_mul(self._lift(m), other._lift(m))
        return CyclotomicNumber(m, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._inverse()

    def _inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by cyclotomic zero")
        if self.n == 1:
            return CyclotomicNumber.from_rational(Fraction(1) / self.coeffs[0])
        from .matrices import rat_solve
        phi = _euler_phi(self.n)
        # multiplication-by-self matrix in the power basis (columns)
        cols = []
        for j in range(phi):
            prod = _reduce_mod_cyclotomic(self.n,
                                          _poly_mul(list(self.coeffs),
                                                    [0] * j + [1]))
            cols.append(prod)
        mat = [[cols[j][i] for j in range(phi)] for i in range(phi)]
        rhs = [Fraction(1)] + [Fraction(0)] * (phi - 1)
        sol = rat_solve(mat, rhs)
        if sol is None:
            raise ZeroDivisionError("non-invertible cyclotomic element")
        return CyclotomicNumber(self.n, sol)

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
        if self.n == 1:
            return self
        out = [0] * (self.n)
        for i, c in enumerate(self.coeffs):
            if c:
                out[(-i) % self.n] += c
        return CyclotomicNumber(self.n, out)

    # -- comparison / hashing -------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if self.n == 1:
            return hash(self.coeffs[0])
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return "CyclotomicNumber(%d, %r)" % (self.n, list(self.coeffs))

    def __str__(self):
        if self.n == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
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


def _lcm(a, b):
    return a * b // math.gcd(a, b)


def _descend_conductor(n, coeffs):
    """Push coordinates down to the smallest cyclotomic subfield, stepwise."""
    from .matrices import rat_solve
    changed = True
    while changed and n > 1:
        changed = False
        for q in prime_factors(n):
            d = n // q
            step = n // d
            phi_n, phi_d = _euler_phi(n), _euler_phi(d)
            emb = [[Fraction(0)] * phi_d for _ in range(phi_n)]
            for j in range(phi_d):
                mono = _monomial_coords(n, j * step)
                for i in range(phi_n):
                    emb[i][j] = mono[i]
            sol = rat_solve(emb, list(coeffs))
            if sol is not None:
                n, coeffs = d, sol
                changed = True
                break
    return n, [Fraction(c) for c in coeffs]


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    """The exact root of unity e(k/n)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    g = math.gcd(k % n if k % n else n, n)
    return CyclotomicNumber(n // g, _monomial_coords(n // g, (k % n) // g),
                            _canonical=False) if n > 1 else CyclotomicNumber.from_rational(1)


def e_frac(x) -> CyclotomicNumber:
    """e(x) for rational x."""
    x = Fraction(x)
    return zeta(x.denominator, x.numerator % x.denominator)


# ---------------------------------------------------------------------------
# additive characters

def padic_fractional_part(p: int, x) -> Fraction:
    """The unique a/p^k in [0,1) with x - a/p^k a p-adic integer."""
    x = Fraction(x)
    den = x.denominator
    m = den
    while m % p == 0:
        m //= p
    if m != 1:
        raise ValueError("denominator of %s is not a power of %d" % (x, p))
    return Fraction(x.numerator % den, den)


def additive_character(p: int, x) -> CyclotomicNumber:
    """psi_p(x) = e(-frac_p(x)) for x with p-power denominator."""
    frac = padic_fractional_part(p, x)
    return e_frac(-frac)


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


def dft_matrix(p: int):
    """The p x p matrix with entries e(i*j/p), exact."""
    return [[zeta(p, (i * j) % p) for j in range(p)] for i in range(p)]
