"""Definite side: ideal class sets, vector counts, theta series, genus averages.

Pipeline:

* `ideal_class_set` enumerates right-ideal classes of a definite Eichler
  order by p-neighbor traversal; completeness is certified by the exact
  mass identity  sum 1/w_i = D N/12 * prod_{p|D}(1-1/p) * prod_{p|N}(1+1/p).
* Pair lattices I_j*conj(I_i), with the reduced norm scaled by
  1/(nrd I_i nrd I_j), realise the genus of the order.  The genus average is
  the unit-weighted pair-lattice (Brandt) average
      r_{D,N}(m) = (1/mass^2) * sum_{i,j} r_{I_j conj(I_i)}(m) / (w_i w_j),
  which equals the 1/|Aut|-weighted average over isometry classes (the
  reference in tests/).
* All vector counting is exact lattice-point enumeration with rational
  Cholesky data (no floating point anywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import is_prime, prime_factors
from .matrices import congruence_kernel
from .orders import (
    OrderLattice,
    conjugate_lattice,
    eichler_order,
    index_in,
    lattice_product,
    local_splitting,
    maximal_order,
    scale_lattice,
)
from .quatalg import construct_algebra


def mass_formula(D: int, N: int) -> Fraction:
    """Exact mass D*N/12 * prod_{p|D}(1 - 1/p) * prod_{p|N}(1 + 1/p)."""
    mass = Fraction(D * N, 12)
    for p in prime_factors(D):
        mass *= Fraction(p - 1, p)
    for p in prime_factors(N):
        mass *= Fraction(p + 1, p)
    return mass


# ---------------------------------------------------------------------------
# exact vector enumeration (rational Cholesky, ellipsoid pruning)

def _as_qgram(lattice_or_gram):
    if isinstance(lattice_or_gram, OrderLattice):
        return lattice_or_gram.q_gram()
    return [[Fraction(x) for x in row] for row in lattice_or_gram]


def _ldl(qgram):
    """Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2, exact."""
    a = [[Fraction(qgram[i][j] + qgram[j][i], 2) for j in range(4)] for i in range(4)]
    d = [Fraction(0)] * 4
    u = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        val = a[i][i] - sum(d[k] * u[k][i] * u[k][i] for k in range(i))
        if val <= 0:
            raise ValueError("form is not positive definite")
        d[i] = val
        for j in range(i + 1, 4):
            aij = a[i][j] - sum(d[k] * u[k][i] * u[k][j] for k in range(i))
            u[i][j] = aij / val
    return d, u


def _enumerate(qgram, mmax, leaf):
    """Call leaf(value, coords) for every x in Z^4 with Q(x) <= mmax."""
    d, u = _ldl(qgram)
    x = [0, 0, 0, 0]

    def rec(i, used):
        rem = mmax - used
        off = sum(u[i][j] * x[j] for j in range(i + 1, 4)) if i < 3 else Fraction(0)
        # integer bound: |x_i + off| <= sqrt(rem / d_i), with exact filtering
        q = rem / d[i]
        s_hi = math.isqrt(int(q)) + 1
        on, od = off.numerator, off.denominator
        dn, dd = d[i].numerator, d[i].denominator
        rn, rd = rem.numerator, rem.denominator
        # t = dn*(xi*od+on)^2 / (dd*od^2);  t <= rem  <=>  dn*(xi*od+on)^2 * rd <= rn*dd*od^2
        rhs = rn * dd * od * od
        lo = math.ceil(-off - s_hi)
        hi = math.floor(-off + s_hi)
        den_t = dd * od * od
        for xi in range(lo, hi + 1):
            w = xi * od + on
            lhs = dn * w * w
            if lhs * rd > rhs:
                continue
            t = Fraction(lhs, den_t)
            x[i] = xi
            if i == 0:
                leaf(used + t, x)
            else:
                rec(i - 1, used + t)
        x[i] = 0

    rec(3, Fraction(0))


def theta_counts(lattice_or_gram, mmax: int):
    """[r(0), r(1), ..., r(mmax)] for an integral positive definite form."""
    qgram = _as_qgram(lattice_or_gram)
    counts = [0] * (mmax + 1)

    def leaf(value, _x):
        if value.denominator == 1:
            v = int(value)
            if v <= mmax:
                counts[v] += 1

    _enumerate(qgram, Fraction(mmax), leaf)
    return counts


def count_vectors(lattice_or_gram, m: int) -> int:
    """Number of lattice vectors of norm exactly m (exact enumeration)."""
    if m < 0:
        return 0
    qgram = _as_qgram(lattice_or_gram)
    total = 0

    def leaf(value, _x):
        nonlocal total
        if value == m:
            total += 1

    _enumerate(qgram, Fraction(m), leaf)
    return total



# ---------------------------------------------------------------------------
# right ideals

@dataclass(frozen=True)
class RightIdeal:
    lattice: OrderLattice
    right_order: OrderLattice
    nrd: Fraction

    def sort_key(self):
        return (self.nrd, self.lattice.sort_key())


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def ideal_reduced_norm(lattice: OrderLattice) -> Fraction:
    """Positive generator of the fractional ideal generated by nrd on the lattice."""
    qg = lattice.q_gram()
    g = Fraction(0)
    for i in range(4):
        g = _frac_gcd(g, qg[i][i])
        for j in range(i + 1, 4):
            g = _frac_gcd(g, qg[i][j] + qg[j][i])
    return g


def make_right_ideal(lattice: OrderLattice, right_order: OrderLattice) -> RightIdeal:
    nrd = ideal_reduced_norm(lattice)
    D, N = right_order.level
    expected = nrd ** 4 * (D * N) ** 2
    if abs(lattice.gram_det()) != expected:
        raise ArithmeticError("ideal norm/Gram scaling is inconsistent")
    return RightIdeal(lattice, right_order, nrd)


def left_order(ideal: RightIdeal) -> OrderLattice:
    """The left order (1/nrd I) * I * conj(I) of a locally principal ideal."""
    prod = lattice_product(ideal.lattice, conjugate_lattice(ideal.lattice))
    ol = scale_lattice(prod, Fraction(1, ideal.nrd))
    if not ol.is_order():
        raise ArithmeticError("left order computation failed")
    return ol


def unit_weight(order: OrderLattice) -> int:
    """|units|/2 = half the number of norm-1 vectors of a definite order."""
    if not order.algebra.is_definite:
        raise ValueError("unit weights require a definite algebra")
    n = count_vectors(order, 1)
    if n % 2:
        raise ArithmeticError("unit count must be even")
    return n // 2


@lru_cache(maxsize=None)
def _frame_mod_p(order: OrderLattice, p: int):
    return local_splitting(order, p, 1)


def p_neighbors(ideal: RightIdeal, p: int):
    """The p+1 right sub-ideals of index p^2, one per line of the residue module."""
    order = ideal.right_order
    D, N = order.level
    if D * N % p == 0:
        raise ValueError("neighbor prime must be coprime to the level data")
    frame = _frame_mod_p(order, p)
    bas_rows = ideal.lattice.basis_rows()
    coords = []
    for row in bas_rows:
        x = order.coordinates(order.algebra.element(*row))
        coords.append(tuple(int(c) for c in x))
    entries = [[frame.coord(c, i, j) for c in coords] for i in range(2) for j in range(2)]
    c11, c12, c21, c22 = entries
    out = []
    lines = [(1, t) for t in range(p)] + [(0, 1)]
    for w1, w2 in lines:
        # column space of the residue matrix inside the line spanned by (w1, w2)
        v1 = [(c11[r] * w2 - c21[r] * w1) % p for r in range(4)]
        v2 = [(c12[r] * w2 - c22[r] * w1) % p for r in range(4)]
        kern = congruence_kernel([v1, v2], p)
        rows = [[sum(Fraction(kern[r][t]) * bas_rows[t][c] for t in range(4))
                 for c in range(4)] for r in range(4)]
        sub = OrderLattice.from_rows(order.algebra, rows)
        if index_in(sub, ideal.lattice) != p * p:
            raise ArithmeticError("neighbor does not have index p^2")
        out.append(make_right_ideal(sub, order))
    return out


def pair_lattice(ii: RightIdeal, jj: RightIdeal) -> OrderLattice:
    """The lattice J * conj(I) (unscaled); carries nrd/(nrd I * nrd J)."""
    return lattice_product(jj.lattice, conjugate_lattice(ii.lattice))


def pair_q_gram(ii: RightIdeal, jj: RightIdeal):
    """Integral normalized Q-Gram of the pair lattice Hom-style form."""
    prod = pair_lattice(ii, jj)
    scale = Fraction(1, ii.nrd * jj.nrd)
    qg = [[x * scale for x in row] for row in prod.q_gram()]
    for i in range(4):
        if qg[i][i].denominator != 1:
            raise ArithmeticError("pair lattice normalization is not integral")
        for j in range(4):
            if (qg[i][j] + qg[j][i]).denominator != 1:
                raise ArithmeticError("pair lattice bilinear form is not integral")
    return qg


def ideals_equivalent(a: RightIdeal, b: RightIdeal) -> bool:
    """True iff a = x*b for some invertible x (minimum-vector criterion)."""
    if a.right_order != b.right_order:
        raise ValueError("ideals must share their right order")
    qg = pair_q_gram(a, b)
    return count_vectors(qg, 1) > 0


# ---------------------------------------------------------------------------
# class sets

class IdealClassSet:
    """Complete set of right-ideal class representatives with unit weights."""

    def __init__(self, order, representatives, weights, mass):
        self.order = order
        self.representatives = list(representatives)
        self.weights = list(weights)
        self.mass = mass
        self.D, self.N = order.level

    @property
    def class_number(self) -> int:
        return len(self.representatives)

    def __repr__(self):
        return ("IdealClassSet(D=%d, N=%d, H=%d, weights=%r)"
                % (self.D, self.N, self.class_number, self.weights))


def _smallest_primes_coprime(n: int):
    p = 2
    while True:
        if n % p and is_prime(p):
            yield p
        p += 1


def ideal_class_set(order: OrderLattice, traversal_prime=None) -> IdealClassSet:
    """Enumerate the right-ideal classes of a definite Eichler order.

    Traversal: p-neighbors at the smallest prime coprime to D*N (escalating
    if a traversal stalls).  The exact mass identity certifies completeness;
    overshooting it raises, signalling an arithmetic bug.
    """
    if not order.algebra.is_definite:
        raise ValueError("class sets require a definite algebra")
    if order.level is None:
        raise ValueError("order has no level data; build it via maximal_order/eichler_order")
    D, N = order.level
    mass = mass_formula(D, N)
    root = make_right_ideal(
        OrderLattice.from_rows(order.algebra, order.basis_rows()), order)
    reps = [root]
    weights = [unit_weight(order)]
    acc = Fraction(1, weights[0])
    if acc > mass:
        raise ArithmeticError("mass certificate exceeded at the first class")

    prime_iter = _smallest_primes_coprime(D * N)
    p = traversal_prime
    if p is None:
        p = next(prime_iter)
    elif D * N % p == 0:
        raise ValueError("traversal prime must be coprime to D*N")
    frontier = list(reps)
    stalls = 0
    while acc != mass:
        new = []
        for ideal in frontier:
            for nb in p_neighbors(ideal, p):
                if any(ideals_equivalent(nb, r) for r in reps):
                    continue
                w = unit_weight(left_order(nb))
                reps.append(nb)
                weights.append(w)
                new.append(nb)
                acc += Fraction(1, w)
                if acc > mass:
                    raise ArithmeticError("mass certificate exceeded during traversal")
        if acc == mass:
            break
        if not new:
            stalls += 1
            if stalls > 8:
                raise ArithmeticError("class set traversal failed to meet the mass")
            p = next(prime_iter)
            frontier = list(reps)
        else:
            frontier = new

    paired = sorted(zip(reps, weights), key=lambda t: t[0].sort_key())
    reps = [r for r, _ in paired]
    weights = [w for _, w in paired]
    return IdealClassSet(order, reps, weights, mass)


# ---------------------------------------------------------------------------
# the genus average

def genus_theta(cs: IdealClassSet, mmax: int):
    """Exact genus-averaged theta coefficients [1, r(1), ..., r(mmax)].

    r_{D,N}(m) = (1/mass^2) * sum_{i,j} r_{I_j conj(I_i)}(m) / (w_i w_j).
    The pair lattices for (i, j) and (j, i) are conjugate, since
    I conj(J) = conj(J conj(I)), so each unordered pair is enumerated once.
    """
    reps, weights = cs.representatives, cs.weights
    total = [Fraction(0)] * (mmax + 1)
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            coeff = Fraction(1 if i == j else 2, weights[i] * weights[j])
            theta = theta_counts(pair_q_gram(reps[i], reps[j]), mmax)
            for m in range(mmax + 1):
                total[m] += coeff * theta[m]
    mass2 = cs.mass * cs.mass
    return [t / mass2 for t in total]


def genus_average(cs: IdealClassSet, m: int) -> Fraction:
    """The genus-averaged representation number r_{D,N}(m)."""
    return genus_theta(cs, m)[m]


def theta_qexpansion(lattice_or_classset, m_max: int):
    """Theta coefficients: plain counts for a lattice, averages for a genus."""
    if isinstance(lattice_or_classset, IdealClassSet):
        return genus_theta(lattice_or_classset, m_max)
    return theta_counts(lattice_or_classset, m_max)


def class_set_for(D: int, N: int, traversal_prime=None) -> IdealClassSet:
    """Convenience: build the class set of an Eichler order of level N in B(D)."""
    alg = construct_algebra(D)
    omax = maximal_order(alg)
    order = eichler_order(omax, N)
    return ideal_class_set(order, traversal_prime=traversal_prime)

