"""Indefinite side: degrees of determinant-m correspondences and volumes.

For an Eichler order O of level N in the indefinite algebra of discriminant
D, the determinant-m locus {(z1, z2): z1 = x z2, x in O, det x = m} is a
correspondence whose degree over either factor is a multiplicative function
of m with local factors

    p coprime to D*N :  sigma(p^k) = 1 + p + ... + p^k
    p | N (exactly)  :  sigma(p^k) + p * sigma(p^(k-1))
    p | D            :  1

where k = v_p(m).  Each closed form is certified by `oracle_local_orbits`,
an orbit count in the local order O of the pattern (M_2(Z_p), the Iwahori
order, the maximal order of the division algebra) reduced mod p^M, proved
by the class equation with no element sampled; the proof is the comment
block above the oracles.  The three patterns share one path.  A pattern
supplies its order's reduced norm, membership test, Z-basis and Hermite
form of a principal right ideal (the ramified order also its product, which
that form reads), its numbers of unit and of nonzero nonunit residues mod
p, and its candidate representatives.

`volume` is the exact rational -D*N/12 * prod_{p|N}(1+1/p) * prod_{p|D}(1-1/p),
and the normalised coefficient of the correspondence is r' = (deg over the
first factor + deg over the second) / volume = 2 * deg_T / volume for
m >= 1; conjugation exchanges the two projection degrees.  `deg_T` reads
one m.  `degree_column` reads every m <= m_max in one pass over the prime
powers and checks the column against the weight-2 Eisenstein series of
level D*N (Diamond-Shurman, GTM 228, 1.2 and 4.6), built by a divisor-sum
sieve that reads no local factor:

    deg_T(D, N, m) = sum_{t | DN} eps(t) * t * sigma(m/t),

eps(t) = (-1)^(number of primes of t dividing D), sigma(m/t) = 0 unless t | m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .classsets import mass_formula
from .exactnum import (is_prime, is_squarefree, prime_factors,
                       prime_power_factors)
from .matrices import hnf2, hnf_rows
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
    return (p ** (k + 1) - 1) // (p - 1)  # 1 + p + ... + p^k; 0 at k = -1


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


def _pattern(D: int, N: int, p: int) -> str:
    """The pattern of `local_degree` at p for the level (D, N)."""
    return "ramified" if D % p == 0 else "level" if N % p == 0 else "split"


def deg_T(D: int, N: int, m: int) -> int:
    """Degree (over one factor) of the determinant-m correspondence."""
    volume(D, N)  # the one check that (D, N) is an indefinite level
    if m < 1:
        raise ValueError("m must be a positive integer")
    total = 1
    for p, k in prime_power_factors(m):
        if N % (p * p) == 0:
            raise ValueError("level factors are implemented for squarefree N only")
        total *= local_degree(_pattern(D, N, p), p, k)
    return total


def degree_column(D: int, N: int, m_max: int) -> list:
    """[0, deg_T(D, N, 1), ..., deg_T(D, N, m_max)] for squarefree N, checked
    against the Eisenstein series of the module docstring: ArithmeticError
    naming (D, N) and the first m where they differ."""
    volume(D, N)
    if not is_squarefree(N):
        raise ValueError("level factors are implemented for squarefree N only")
    sigma = [0] * (m_max + 1)
    for d in range(1, m_max + 1):
        for m in range(d, m_max + 1, d):
            sigma[m] += d
    primes = [p for p in range(2, m_max + 1) if sigma[p] == p + 1]
    deg = [0] + [1] * m_max
    for p in primes:
        pk, k = p, 1
        while pk <= m_max:
            factor = local_degree(_pattern(D, N, p), p, k)
            for m in range(pk, m_max + 1, pk):
                if m // pk % p:
                    deg[m] *= factor
            pk, k = pk * p, k + 1
    signed = [(1, 1)]  # (t, eps(t) * t) over the divisors t of D*N
    for p in prime_factors(D * N):
        signed += [(t * p, -e * p if D % p == 0 else e * p) for t, e in signed]
    f = [0] * (m_max + 1)
    for t, e in signed:
        for j in range(1, m_max // t + 1):
            f[t * j] += e * sigma[j]
    if deg != f:
        m = next(m for m in range(m_max + 1) if deg[m] != f[m])
        raise ArithmeticError(
            "Eisenstein check fails for (D, N) = (%d, %d) at m=%d: "
            "deg_T = %d, f(m) = %d" % (D, N, m, deg[m], f[m]))
    return deg


# ---------------------------------------------------------------------------
# orbit-counting oracles over the finite local patterns
#
# Each pattern is a local order O: M_2(Z_p) (split), the Iwahori order of
# matrices with lower-left entry = 0 mod p (level) and the maximal order of
# the division algebra in the flat coordinates of quatalg.RamifiedModel
# (ramified).  All three go through one path.  The units U_M of O/p^M O act
# by right multiplication on S_M, the elements of O/p^M O with
# v_p(nrd) = k, and the oracle proves that the candidates are one element
# of each orbit:
#   (i)  no two candidates are right-equivalent over Z_p;
#   (ii) each candidate c lies in S_M, |Stab_M(c)| divides |U_M|, and
#        sum_c |U_M| / |Stab_M(c)| = |S_M|, the class equation.
# Each candidate c lies in O with nrd(c) = c*conj(c) = +-p^k, and the
# orders are closed under the standard involution, so conj(c) lies in O.
# For M > k, (i) also holds mod p^M: a congruence c' = c*g + p^M*z is the
# equation c' = c*(g + w) over Z_p, with w = +-p^(M-k)*conj(c)*z in p*O,
# and g + w is a unit.  So the orbits of the candidates are disjoint, and
# by (ii) they fill S_M.
# (i) compares principal right ideals.  c' = c*g with g in O_p^x exactly
# when c'*O_p = c*O_p (then g = c^-1*c' and its inverse lie in O_p).  And
# p^k*O = +-c*conj(c)*O lies in c*O, so the Z-lattice c*O, in the order's
# Z-basis, contains p^k*Z^4: c is a unit at every prime l != p, and c*O is
# fixed by its p-adic completion c*O_p.  Its Hermite normal form, which is
# unique, names c*O_p.  So candidates with distinct forms are pairwise
# inequivalent over Z_p: one form per candidate, no pair test, and no M.
# The matrix orders read the form by columns.  There O is the y in M_2(Z)
# with y21 in q*Z, q = 1 (split) or p (level): the columns of y run
# independently over L1 = Z + q*Z and L2 = Z^2, so c*O is the x whose first
# column lies in c*L1 and whose second lies in c*L2.  In the Z-basis e11,
# e12, q*e21, e22 the form of c*O therefore interleaves the 2x2 forms
# (a0, a1; 0, a3) of c*L1, in the basis e1, q*e2, and (b0, b1; 0, b3) of
# c*L2: its rows (a0, 0, a1, 0), (0, b0, 0, b1), (0, 0, a3, 0) and
# (0, 0, 0, b3) have positive pivots on the diagonal and each entry above
# a pivot reduced, so they are the unique form.  For split, c*L1 = c*L2.
# The ramified order's form is the HNF of the four rows c*b for its
# Z-basis b.
# In (ii), Stab_M(c) = {1 + y : c*y = 0 in O/p^M O}.  Such a y has
# nrd(c)*y = conj(c)*c*y in p^M*O, so y lies in p^(M-k)*O; with M >= k + 1
# that puts nrd(1 + y) = 1 + tr(y) + nrd(y) in 1 + p*Z_p, so 1 + y is a
# unit, and y -> 1 + y is onto the stabilizer.  Write y = p^(M-k)*z, with z
# unique mod p^k: then c*y lies in p^M*O exactly when c*z lies in p^k*O.
# So for every M >= k, y -> z is a bijection from the kernel of y -> c*y on
# O/p^M O onto the kernel of z -> c*z on O/p^k O = (Z/p^k)^4, as large as
# its cokernel O/c*O (c*O contains p^k*O), whose order is the product of
# the pivots of the form of (i).  It stays a count: no closed form is
# assumed.
# Per family, once: (i), the member/norm check and the stabilizer orders,
# all in `_certify`.  Per M: |U_M| and |S_M|, that each order divides
# |U_M|, and the class equation.
# All three counts are of O/p^M O.  `_count` counts the flat coordinates
# mod p^M: the level order's Z-basis is e11, e12, p*e21, e22, so O/p^M O
# has p elements over each level matrix mod p^M, all of one nrd mod p^M,
# and |S_M| is p times the count there.


class _LocalOrder(NamedTuple):
    nrd: Callable
    member: Callable
    scale: tuple  # the order's Z-basis: scale[i] * e_i in flat coordinates
    form: Callable  # (order, c) -> the form `_right_ideal` of c*O
    # the unit and the nonzero nonunit residues mod p, in flat coordinates
    units: int
    singular: int
    inner: object = None  # the order of x' for x = p*x' (None: this one)
    # pi^2 = p, so a nonzero nonunit residue lifts only to v_p(nrd) = 1
    pi_squared_is_p: bool = False
    # the product `_rows_form` reads; None for the matrix orders, whose
    # forms are read by columns with no product taken
    mul: Callable = None


def _det2(x):
    return x[0] * x[3] - x[1] * x[2]


def _rows_form(order, c):
    """The form of the four rows c*b, for b the ramified order's Z-basis,
    the unit vectors of its flat coordinates."""
    rows = [order.mul(c, b) for b in ((1, 0, 0, 0), (0, 1, 0, 0),
                                      (0, 0, 1, 0), (0, 0, 0, 1))]
    return tuple([v for row in hnf_rows(rows) for v in row])


def _split_form(order, c):
    """The form of c*O from the one 2x2 form of c*Z^2, both columns."""
    g, x, h = hnf2(c[0], c[2], c[1], c[3])
    return (g, 0, x, 0, 0, g, 0, x, 0, 0, h, 0, 0, 0, 0, h)


def _level_form(order, c):
    """The form of c*O from the 2x2 forms of its first column c*(Z + p*Z),
    in the basis e1, p*e2, and of its second, c*Z^2."""
    p = order.scale[2]
    a0, a1, a3 = hnf2(c[0], c[2] // p, p * c[1], c[3])
    b0, b1, b3 = hnf2(c[0], c[2], c[1], c[3])
    return (a0, 0, a1, 0, 0, b0, 0, b1, 0, 0, a3, 0, 0, 0, 0, b3)


@lru_cache(maxsize=None)
def _local_order(pattern: str, p: int) -> _LocalOrder:
    """The pattern's order and its residue counts mod p, built once per
    (pattern, p).  An x = p*x' of the level order has any split x'."""
    if pattern == "ramified":
        # the nonunits mod p are pi*O/p*O, the p^2 residues of pi*(a + b*u)
        model = ramified_model(p)
        return _LocalOrder(model.nrd, lambda x: True, (1, 1, 1, 1),
                           _rows_form, p ** 4 - p * p, p * p - 1,
                           pi_squared_is_p=True, mul=model.mul)
    if pattern == "level":
        units = (p - 1) ** 2 * p  # x0, x3 nonzero, x1 free, x2 = 0
        return _LocalOrder(_det2, lambda x: x[2] % p == 0,
                           (1, 1, p, 1), _level_form, units,
                           p ** 3 - 1 - units, _local_order("split", p))
    units = (p * p - 1) * (p * p - p)  # |GL_2(F_p)|
    return _LocalOrder(_det2, lambda x: True, (1, 1, 1, 1),
                       _split_form, units, p ** 4 - 1 - units)


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


def _right_ideal(order, c):
    """The Hermite normal form of c*O in the order's Z-basis, as one flat
    tuple; c is a member of O with nrd(c) != 0.  It is computed from c: two
    2x2 forms, one per column, for a split or level c (for split one form
    serves both), and four rows c*b for the ramified order; the comment
    block above proves the column forms exact.

    It has full rank, so row i has its pivot in column i and the pivots are
    h[::5]; their product is the index of c*O in O.  For nrd(c) = +-p^k the
    form names the right ideal c*O_p and the index is |Stab_M(c)| for every
    M >= k, by (i) and (ii) of the comment block above.
    """
    return order.form(order, c)


@lru_cache(maxsize=None)
def _certify(pattern: str, p: int, k: int, cands: tuple) -> tuple:
    """Certify the candidate family and count its stabilizers, or raise
    ArithmeticError naming the check that fails and a candidate.

    Each candidate must lie in the order with nrd(c) = +-p^k, and no two
    may share the form `_right_ideal` of c*O; the product of its pivots is
    |Stab_M(c)| at every M >= k of the oracle.  Returns the pairs (order,
    (how many candidates, first candidate)) of the stabilizer orders.  The
    cache is keyed on the family itself, not on (pattern, p, k), so a
    changed family is certified anew, and a failed family raises and is
    never stored.
    """
    order, pk = _local_order(pattern, p), p ** k
    ideals, stabs = {}, {}
    for c in cands:
        n = order.nrd(c)
        if not (order.member(c) and abs(n) == pk):
            raise ArithmeticError(
                "member/norm check fails for %s p=%d k=%d: candidate %r "
                "has nrd %d, want a member with nrd = +-%d"
                % (pattern, p, k, c, n, pk))
        form = _right_ideal(order, c)
        # c*O contains p^k*Z^4, so each entry lies in [0, p^k]; the form is
        # 0 below its diagonal, and its upper triangle is the digits of one
        # int in base p^k + 1.  A dict of int keys, unlike one of tuples,
        # leaves no tuples on CPython's free list when it is freed
        ideal = 0
        for i in (0, 1, 2, 3, 5, 6, 7, 10, 11, 15):
            ideal = ideal * (pk + 1) + form[i]
        if ideal in ideals:
            raise ArithmeticError(
                "candidates %r and %r are equivalent" % (ideals[ideal], c))
        ideals[ideal] = c
        stab = math.prod(form[::5])
        count, first = stabs.get(stab, (0, c))
        stabs[stab] = (count + 1, first)
    return tuple(stabs.items())


def _count(order, p, k, M):
    """The number of elements of the order mod p^M, in flat coordinates,
    with v_p(nrd) = k, for M > k.

    k = 0: a unit residue and four digits mod p^(M-1).  k >= 2 first: p*x'
    for x' of valuation k - 2 mod p^(M-1).  Then a nonzero nonunit residue:
    when pi^2 = p all its lifts have valuation 1.  In M_2, nrd is linear in
    the entry paired with the residue's first unit entry, with a unit
    coefficient, and runs over the p^(M-1) lifts of its residue, so nrd is
    uniform over p*Z/p^M and (p-1)/p^k of the lifts have valuation k.
    """
    if k == 0:
        return order.units * p ** (4 * M - 4)
    zero = _count(order.inner or order, p, k - 2, M - 1) if k >= 2 else 0
    if order.pi_squared_is_p:
        return zero + (k == 1) * order.singular * p ** (4 * M - 4)
    return zero + order.singular * (p - 1) * p ** (4 * M - k - 4)


def oracle_local_orbits(pattern: str, p: int, k: int, M: int) -> int:
    """Count orbits of elements of reduced norm p^k*unit under right
    multiplication by units, and prove the count at (p, k, M).

    `pattern` is "split", "level" or "ramified"; the computation is carried
    out in the corresponding local order O mod p^M.  Once per family,
    `_certify` checks the candidates and counts their stabilizers.  Per M,
    each stabilizer order must divide |U_M|, the units of O/p^M O, and the
    orbit sizes |U_M| / |Stab_M(c)| must add up exactly to the number |S_M|
    of elements of O/p^M O with v_p(nrd) = k: the class equation.  The
    proof needs M >= k + 1; the margin M >= k + 2 is kept as the caller's
    contract.  A failed check raises ArithmeticError naming it, the op (the
    family's checks name (pattern, p, k)) and both sides.
    """
    if pattern not in ("split", "level", "ramified"):
        raise ValueError("unknown pattern %r" % (pattern,))
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    if k < 0:
        raise ValueError("k must be >= 0, got %d" % k)
    if M < k + 2:
        raise ValueError("need M >= k + 2 for a stable orbit count")
    order = _local_order(pattern, p)
    cands = tuple(_candidates(pattern, p, k))
    stabs = _certify(pattern, p, k, cands)
    op = "%s p=%d k=%d M=%d" % (pattern, p, k, M)
    index = math.prod(order.scale)
    units = index * _count(order, p, 0, M)
    total = 0
    for stab, (count, c) in stabs:
        if units % stab:
            raise ArithmeticError(
                "stabilizer check fails for %s: |Stab_M(%r)| = %d does not "
                "divide |U_M| = %d" % (op, c, stab, units))
        total += count * (units // stab)
    want = index * _count(order, p, k, M)
    if total != want:
        raise ArithmeticError(
            "class equation fails for %s: the orbit sizes add up to %d, "
            "|S_M| = %d" % (op, total, want))
    return len(cands)
