"""Definite side: ideal class sets, vector counts, theta series, genus averages.

Pipeline:

* `ideal_class_set` enumerates right-ideal classes of a definite Eichler
  order by p-neighbor traversal; completeness is certified by the exact
  mass identity  sum 1/w_i = D N/12 * prod_{p|D}(1-1/p) * prod_{p|N}(1+1/p).
* Pair lattices I_j*conj(I_i), with the reduced norm scaled by
  1/(nrd I_i nrd I_j), realise the genus of the order.  The genus average
  is the unit-weighted pair-lattice (Brandt) average
      r_{D,N}(m) = (1/mass^2) * sum_{i,j} r_{I_j conj(I_i)}(m) / (w_i w_j),
  which equals the 1/|Aut|-weighted average over isometry classes (the
  reference in tests/).
* Every form is one integer matrix, the even Gram E with
  nrd(x) = x E x^T / 2: `OrderLattice.even_gram` for an order, `pair_gram`
  for a pair lattice, each certified integral there and nowhere else.
* All vector counting is exact lattice-point enumeration: one
  fraction-free (Bareiss) elimination of E per form, then a Fincke-Pohst
  recursion on integer remainders with `isqrt` bounds (no floating point
  anywhere, and no Fraction in the enumeration).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

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

def theta_counts(E, mmax: int):
    """[r(0), r(1), ..., r(mmax)] for the integral positive definite form
    Q(x) = x E x^T / 2 of the integer even Gram E.

    Fraction-free (Bareiss) elimination of E, with
    leading minors Delta_0 = 1, Delta_1, ..., Delta_4 and eliminated rows U
    (U_ii = Delta_i), gives
        T*Q(x) = sum_i a_i (U_ii x_i + sum_{j>i} U_ij x_j)^2,
        T = lcm_i(2 Delta_{i-1} Delta_i),  a_i = T / (2 Delta_{i-1} Delta_i),
    all in integers.  Fincke-Pohst then runs on the integer remainder
    R = T*mmax - (the terms already fixed).  The bound is exact: for integers
    a > 0 and R >= 0, a*w^2 <= R holds exactly when |w| <= isqrt(R // a), so
    every x_i in range meets it and no point outside the ellipsoid is visited.
    """
    U = [list(row) for row in E]
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
    nrd: int

    def sort_key(self):
        return (self.nrd, self.lattice.sort_key())


def ideal_reduced_norm(lattice: OrderLattice) -> int:
    """Positive generator of the ideal of Z generated by nrd on an integral
    lattice: the gcd of nrd on the basis, E_rr / 2, and of the pairings E_rs."""
    e = lattice.even_gram()
    return math.gcd(*(e[r][s] if r != s else e[r][r] // 2
                      for r in range(4) for s in range(r, 4)))


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
    n = theta_counts(order.even_gram(), 1)[1]
    if n % 2:
        raise ArithmeticError("unit count must be even")
    return n // 2


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
    (c11, c12), (c21, c22) = local_splitting(ol, p)
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


def pair_gram(ii: RightIdeal, jj: RightIdeal):
    """Even Gram of the pair lattice J * conj(I) with the form
    nrd/(nrd I * nrd J), which is integral on it."""
    pair = lattice_product(jj.lattice, conjugate_lattice(ii.lattice))
    return pair.even_gram(ii.nrd * jj.nrd)


def ideals_equivalent(a: RightIdeal, b: RightIdeal) -> bool:
    """True iff a = x*b for some invertible x (minimum-vector criterion)."""
    if a.right_order != b.right_order:
        raise ValueError("ideals must share their right order")
    return theta_counts(pair_gram(a, b), 1)[1] > 0


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

    Traversal: breadth first through the p-neighbors at one prime p, with
    the list of class representatives as the queue.  p is `traversal_prime`,
    which must be a prime coprime to D*N (ValueError otherwise), or by
    default the smallest such prime.  The exact mass identity certifies
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
    elif not (is_prime(p) and D * N % p):
        raise ValueError("traversal prime must be a prime coprime to D*N = %d, "
                         "got %r" % (D * N, p))
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
                theta = theta_counts(pair_gram(reps[i], reps[j]), mmax)
                for m in range(mmax + 1):
                    total[m] += coeff * theta[m]
        mass2 = cs.mass * cs.mass
        cs._theta = [t / mass2 for t in total]
    return cs._theta[:mmax + 1]


def class_set_for(D: int, N: int) -> IdealClassSet:
    """Convenience: build the class set of an Eichler order of level N in B(D)."""
    return ideal_class_set(eichler_order(maximal_order(construct_algebra(D)), N))

