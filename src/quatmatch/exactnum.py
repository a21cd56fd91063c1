"""Exact arithmetic foundation: integer factoring and residue symbols.

The Hilbert symbol at odd p uses the Legendre symbols of the unit parts;
at p = 2 it uses the classical (u-1)/2 and (u^2-1)/8 exponents.  The
package computes over Z and Q only: the one place a value of Q(zeta_p)
arises, the Weil layer, reads its roots of unity as integer exponents mod
p (see `weilmatch`).

Every function is pure.
"""

from __future__ import annotations

import math

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

