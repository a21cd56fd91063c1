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
* All vector counting is exact lattice-point enumeration: one
  fraction-free (Bareiss) elimination of the even Gram per form, in
  integers, then a Fincke-Pohst recursion on integer remainders with
  `isqrt` bounds (no floating point anywhere, and no Fraction per lattice
  point).
"""

from __future__ import annotations

import itertools
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
    sublattice,
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
# exact vector enumeration (integer Fincke-Pohst)

def theta_counts(qgram, mmax: int):
    """[r(0), r(1), ..., r(mmax)] for the integral positive definite form with
    Q-Gram `qgram`.

    Fraction-free (Bareiss) elimination of the even Gram E = A + A^T, with
    leading minors Delta_0 = 1, Delta_1, ..., Delta_4 and eliminated rows U
    (U_ii = Delta_i), gives
        T*Q(x) = sum_i a_i (U_ii x_i + sum_{j>i} U_ij x_j)^2,
        T = lcm_i(2 Delta_{i-1} Delta_i),  a_i = T / (2 Delta_{i-1} Delta_i),
    all in integers.  Fincke-Pohst then runs on the integer remainder
    R = T*mmax - (the terms already fixed).  The bound is exact: for integers
    a > 0 and R >= 0, a*w^2 <= R holds exactly when |w| <= isqrt(R // a), so
    every x_i in range meets it and no point outside the ellipsoid is visited.
    """
    U = [[qgram[i][j] + qgram[j][i] for j in range(4)] for i in range(4)]
    if any(e.denominator != 1 for row in U for e in row):
        raise ValueError("form is not integral: A + A^T has a non-integer entry")
    U = [[int(e) for e in row] for row in U]
    dens = []
    prev = 1
    for k in range(4):
        pivot = U[k][k]
        if pivot <= 0:
            raise ValueError("form is not positive definite")
        for i in range(k + 1, 4):
            for j in range(k + 1, 4):
                U[i][j] = (U[i][j] * pivot - U[i][k] * U[k][j]) // prev
        dens.append(2 * prev * pivot)
        prev = pivot
    T = math.lcm(*dens)
    a = [T // d for d in dens]
    top = T * mmax
    counts = [0] * (mmax + 1)
    x = [0, 0, 0, 0]

    def rec(i, R):
        off = sum(U[i][j] * x[j] for j in range(i + 1, 4))
        s = math.isqrt(R // a[i])
        ai, ci = a[i], U[i][i]
        for xi in range(-((s + off) // ci), (s - off) // ci + 1):
            w = ci * xi + off
            rem = R - ai * w * w
            if i == 0:
                v, r = divmod(top - rem, T)
                if not r:
                    counts[v] += 1
            else:
                x[i] = xi
                rec(i - 1, rem)
        x[i] = 0

    rec(3, top)
    return counts


# ---------------------------------------------------------------------------
# right ideals

@dataclass(frozen=True)
class RightIdeal:
    lattice: OrderLattice
    right_order: OrderLattice
    nrd: Fraction

    def sort_key(self):
        return (self.nrd, self.lattice.sort_key())


def ideal_reduced_norm(lattice: OrderLattice) -> Fraction:
    """Positive generator of the fractional ideal generated by nrd on the lattice."""
    qg = lattice.q_gram()
    vals = [qg[i][j] + qg[j][i] if i != j else qg[i][i]
            for i in range(4) for j in range(i, 4)]
    den = math.lcm(*(v.denominator for v in vals))
    return Fraction(math.gcd(*(int(v * den) for v in vals)), den)


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
    n = theta_counts(order.q_gram(), 1)[1]
    if n % 2:
        raise ArithmeticError("unit count must be even")
    return n // 2


@lru_cache(maxsize=None)
def _frame_mod_p(order: OrderLattice, p: int):
    return local_splitting(order, p, 1)


def p_neighbors(ideal: RightIdeal, p: int):
    """The p+1 right sub-ideals of index p^2, one per line of the residue module.

    The lines are read in the left order O_L of I, where I is locally free
    of rank one (I_p = O_L,p alpha): for a line W of F_p^2, P_W is the right
    ideal of the y in O_L whose residue matrix has its columns in W, and the
    neighbor is P_W * I.  (Reading I through its right order instead fails
    once p divides nrd I, where I/pI -> O/pO is not injective.)
    """
    order = ideal.right_order
    D, N = order.level
    if D * N % p == 0:
        raise ValueError("neighbor prime must be coprime to the level data")
    ol = left_order(ideal)
    (c11, c12), (c21, c22) = _frame_mod_p(ol, p).functionals
    out = []
    lines = [(1, t) for t in range(p)] + [(0, 1)]
    for w1, w2 in lines:
        # column space of the residue matrix inside the line spanned by (w1, w2)
        v1 = [(c11[r] * w2 - c21[r] * w1) % p for r in range(4)]
        v2 = [(c12[r] * w2 - c22[r] * w1) % p for r in range(4)]
        pw = sublattice(ol, congruence_kernel([v1, v2], p))
        sub = lattice_product(pw, ideal.lattice)
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
    return theta_counts(qg, 1)[1] > 0


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
        self._theta = []  # genus_theta at the largest m_max asked so far

    @property
    def class_number(self) -> int:
        return len(self.representatives)

    def __repr__(self):
        return ("IdealClassSet(D=%d, N=%d, H=%d, weights=%r)"
                % (self.D, self.N, self.class_number, self.weights))


def ideal_class_set(order: OrderLattice, traversal_prime=None) -> IdealClassSet:
    """Enumerate the right-ideal classes of a definite Eichler order.

    Traversal: breadth first through the p-neighbors at one prime p, by
    default the smallest prime coprime to D*N, with the list of class
    representatives as the queue.  The exact mass identity certifies
    completeness, so the traversal stops the moment it is met; overshooting
    it, or running out of neighbors below it, raises, signalling an
    arithmetic bug.
    """
    if not order.algebra.is_definite:
        raise ValueError("class sets require a definite algebra")
    if order.level is None:
        raise ValueError("order has no level data; build it via maximal_order/eichler_order")
    D, N = order.level
    mass = mass_formula(D, N)
    p = traversal_prime
    if p is None:
        p = next(q for q in itertools.count(2) if D * N % q and is_prime(q))
    elif D * N % p == 0:
        raise ValueError("traversal prime must be coprime to D*N")
    root = make_right_ideal(OrderLattice(order.algebra, order.den, order.mat), order)
    reps = [root]
    weights = [unit_weight(order)]
    acc = Fraction(1, weights[0])
    # iterating `reps` also reaches the classes appended while it runs
    neighbors = (nb for ideal in reps for nb in p_neighbors(ideal, p))
    while acc < mass:
        nb = next(neighbors, None)
        if nb is None:
            raise ArithmeticError("class set traversal for (D, N) = (%d, %d) at p = %d "
                                  "ran out of neighbors below the mass" % (D, N, p))
        if any(ideals_equivalent(nb, r) for r in reps):
            continue
        w = unit_weight(left_order(nb))
        reps.append(nb)
        weights.append(w)
        acc += Fraction(1, w)
    if acc > mass:
        raise ArithmeticError("mass certificate exceeded for (D, N) = (%d, %d)" % (D, N))

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
    The class set keeps the series at the largest mmax computed so far and
    serves smaller requests from it; each call returns a fresh list.
    """
    if len(cs._theta) <= mmax:
        reps, weights = cs.representatives, cs.weights
        total = [Fraction(0)] * (mmax + 1)
        for i in range(len(reps)):
            for j in range(i, len(reps)):
                coeff = Fraction(1 if i == j else 2, weights[i] * weights[j])
                theta = theta_counts(pair_q_gram(reps[i], reps[j]), mmax)
                for m in range(mmax + 1):
                    total[m] += coeff * theta[m]
        mass2 = cs.mass * cs.mass
        cs._theta = [t / mass2 for t in total]
    return cs._theta[:mmax + 1]


def class_set_for(D: int, N: int, traversal_prime=None) -> IdealClassSet:
    """Convenience: build the class set of an Eichler order of level N in B(D)."""
    alg = construct_algebra(D)
    omax = maximal_order(alg)
    order = eichler_order(omax, N)
    return ideal_class_set(order, traversal_prime=traversal_prime)

