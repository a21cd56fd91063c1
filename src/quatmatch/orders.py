"""Rank-4 lattices and orders in a rational quaternion algebra.

A lattice is stored by a canonical pair (den, mat): `mat` is the row
Hermite normal form of an integer 4x4 matrix and the basis vectors are the
rows of mat/den in the coordinates 1, i, j, k of the ambient algebra.  The
canonical form makes equality, hashing and serialization deterministic.
Every lattice operation here works on these integer rows and returns
through `_lattice`.  A full-rank HNF is upper triangular, which is what
`gram_det`, `index_in` and `_coordinates` rely on: the basis determinant
is the product of the diagonal over den^4, and coordinates come from
integer forward substitution, which raises ValueError when a vector is not
in the lattice.  Coordinates and multiplication tables are integers.
`is_order` reads the multiplication table: a lattice that holds 1 and is
closed under products is a ring finitely generated over Z, so every
element is integral and no separate integrality test is needed.

The Gram matrix is taken with respect to (x, y) = trd(x * conj(y)), whose
determinant equals the square of the reduced discriminant; a maximal order
of B(D) has |det| = D^2 and an Eichler order of level N has |det| = (DN)^2.
`gram` returns it as the integer matrix G read off the HNF, (x, y) = G/den^2,
and `even_gram(scale)` as the integer even Gram G/(den^2 scale) of
nrd/scale; the latter is the only integrality certificate of a form.  A
local splitting is handed out as its bare entry functionals.  An Eichler
order is one CRT congruence mod N on a maximal order.  Only the constructors
that know a level set the (D, N) tag: `maximal_order`, `eichler_order` and
`classsets.RightIdeal.left_order`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exactnum import prime_factors, prime_power_factors
from .matrices import congruence_kernel, hnf_rows
from .quatalg import QuaternionAlgebra, quat_mul, quat_nrd


def _lattice(algebra, den, rows) -> "OrderLattice":
    """The canonical lattice spanned by the integer rows over den > 0."""
    mat = hnf_rows(rows)
    if len(mat) != 4:
        raise ValueError("lattice is not of full rank 4")
    g = math.gcd(den, *(x for row in mat for x in row))
    return OrderLattice(algebra, den // g,
                        tuple(tuple(x // g for x in row) for row in mat))


@dataclass(frozen=True)
class OrderLattice:
    algebra: QuaternionAlgebra
    den: int
    mat: tuple
    # (D, N) tag set by the order constructors; not part of identity
    level: tuple | None = field(default=None, compare=False)

    def gram(self):
        """Integer matrix G[r][s] = sum_k w_k r_k s_k of the HNF rows r, s,
        w = (2, -2a, -2b, 2ab).  The form (x, y) = trd(x conj(y)) on the
        basis is G / den^2; every entry of G is even."""
        a, b = self.algebra.a, self.algebra.b
        w = (2, -2 * a, -2 * b, 2 * a * b)
        return [[sum(w[k] * r[k] * s[k] for k in range(4)) for s in self.mat]
                for r in self.mat]

    def even_gram(self, scale: int = 1):
        """E = G / (den^2 scale), the even Gram of the form nrd/scale:
        nrd(sum c_r b_r) = scale * c E c^T / 2.

        Raises ArithmeticError unless E is integral with an even diagonal.
        Since nrd(x + y) = nrd x + nrd y + (x, y), that holds exactly when
        nrd/scale takes integer values on the lattice.
        """
        d = self.den * self.den * scale
        g = self.gram()
        if any(x % d for row in g for x in row) \
                or any(g[r][r] % (2 * d) for r in range(4)):
            raise ArithmeticError("nrd/%d is not integral on the lattice" % scale)
        return [[x // d for x in row] for row in g]

    def gram_det(self) -> Fraction:
        """det(gram / den^2) = det(w) * det(mat)^2 / den^8, det(w) = 16 a^2 b^2."""
        ab = self.algebra.a * self.algebra.b
        d = _diagonal_product(self)
        return Fraction(16 * ab * ab * d * d, self.den ** 8)

    def is_order(self) -> bool:
        """1 lies in L and L*L lies in L (the multiplication table exists).

        Such a ring is finitely generated over Z, so trd and nrd are
        integral on it (Voight, Quaternion Algebras, ch. 10)."""
        try:
            _coordinates(self, (1, 0, 0, 0))
            multiplication_table(self)
        except ValueError:
            return False
        return True

    # -- serialization ---------------------------------------------------------
    def to_text(self) -> str:
        cells = " ".join(str(x) for row in self.mat for x in row)
        return "%d %s" % (self.den, cells)

    def sort_key(self):
        return (self.den,) + self.mat


def _diagonal_product(lat: OrderLattice) -> int:
    return math.prod(lat.mat[r][r] for r in range(4))


def _coordinates(lat: OrderLattice, v, den: int = 1) -> tuple:
    """The integer c with sum_r c_r mat[r] / lat.den = v / den, for an
    integer vector v, by forward substitution (the HNF is upper triangular).

    Raises ValueError when v / den is not in the lattice.
    """
    c = []
    for k in range(4):
        t = lat.den * v[k] - den * sum(c[r] * lat.mat[r][k] for r in range(k))
        q, rem = divmod(t, den * lat.mat[k][k])
        if rem:
            raise ValueError("vector is not in the lattice")
        c.append(q)
    return tuple(c)


# ---------------------------------------------------------------------------
# lattice operations

def lattice_sum(a: OrderLattice, b: OrderLattice) -> OrderLattice:
    den = math.lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    return _lattice(a.algebra, den, [[x * sa for x in row] for row in a.mat]
                    + [[x * sb for x in row] for row in b.mat])


def lattice_product(a: OrderLattice, b: OrderLattice) -> OrderLattice:
    """Lattice spanned by all products x*y, x in a, y in b."""
    alg = a.algebra
    return _lattice(alg, a.den * b.den,
                    [quat_mul(alg.a, alg.b, u, v) for u in a.mat for v in b.mat])


def conjugate_lattice(a: OrderLattice) -> OrderLattice:
    return _lattice(a.algebra, a.den,
                    [(x0, -x1, -x2, -x3) for x0, x1, x2, x3 in a.mat])


def sublattice(lat: OrderLattice, coeffs) -> OrderLattice:
    """The lattice spanned by the integer combinations `coeffs` of lat's basis."""
    rows = [[sum(c[t] * lat.mat[t][col] for t in range(4)) for col in range(4)]
            for c in coeffs]
    return _lattice(lat.algebra, lat.den, rows)


def index_in(sub: OrderLattice, sup: OrderLattice) -> Fraction:
    """Index [sup : sub] (a positive rational for commensurable lattices)."""
    return Fraction(_diagonal_product(sub) * sup.den ** 4,
                    _diagonal_product(sup) * sub.den ** 4)


# ---------------------------------------------------------------------------
# multiplication tables (for finite-ring computations inside an order)

def multiplication_table(order: OrderLattice):
    """T[r][s] = integer coordinates of b_r * b_s in the order's basis.

    Raises ValueError unless the lattice is closed under multiplication.
    """
    a, b, den2 = order.algebra.a, order.algebra.b, order.den * order.den
    return [[_coordinates(order, quat_mul(a, b, u, v), den2) for v in order.mat]
            for u in order.mat]


def _vec_mul(table, x, y, mod):
    out = [0, 0, 0, 0]
    for r in range(4):
        xr = x[r]
        if xr:
            for s in range(4):
                ys = y[s]
                if ys:
                    t = table[r][s]
                    f = xr * ys
                    out[0] += f * t[0]
                    out[1] += f * t[1]
                    out[2] += f * t[2]
                    out[3] += f * t[3]
    return tuple(c % mod for c in out)


# ---------------------------------------------------------------------------
# maximal orders

def standard_order(algebra: QuaternionAlgebra) -> OrderLattice:
    return _lattice(algebra, 1, [[int(r == c) for c in range(4)] for r in range(4)])


def _multiplicative_closure(algebra, den, rows, max_rounds=24):
    """Smallest multiplicatively closed lattice containing the integer rows
    over den.

    Returns None if closure does not stabilise quickly or nrd is not
    integral on a step (the candidate generates no order).
    """
    lat = _lattice(algebra, den, rows)
    for _ in range(max_rounds):
        merged = lattice_sum(lat, lattice_product(lat, lat))
        if merged == lat:
            return lat
        lat = merged
        try:
            lat.even_gram()
        except ArithmeticError:
            return None
    return None


def maximal_order(algebra: QuaternionAlgebra) -> OrderLattice:
    """A maximal order, produced by saturating Z<1,i,j,k> prime by prime.

    Termination certificate: the Gram determinant of the result equals D^2,
    the square of the algebra's discriminant, and `is_order` is verified on
    the way out.
    """
    target = algebra.discriminant ** 2
    lat = standard_order(algebra)
    current = lat.gram_det()
    while current > target:
        excess = Fraction(current, target)
        if excess.denominator != 1:
            raise ArithmeticError("D=%d: Gram determinant %s is not a multiple "
                                  "of D^2" % (algebra.discriminant, current))
        primes = prime_factors(int(excess))
        enlarged = False
        for p in primes:
            bigger = _enlarge_at(algebra, lat, p)
            if bigger is not None:
                lat = bigger
                current = lat.gram_det()
                enlarged = True
                break
        if not enlarged:
            raise ArithmeticError("saturation failure at discriminant %s" % current)
    if current != target or not lat.is_order():
        raise ArithmeticError("maximal order certificate failed")
    return replace(lat, level=(algebra.discriminant, 1))


def _enlarge_at(algebra, lat, p):
    """One enlargement step: adjoin an integral x = sum_r c_r b_r / p, close up.

    With 0 <= c_r < p not all zero, x is never in lat already; a closure
    holds 1 and is closed under products, so it is an order.
    """
    a, b, den = algebra.a, algebra.b, lat.den * p
    scaled = [[x * p for x in row] for row in lat.mat]
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs):
            continue
        x = [sum(c * row[k] for c, row in zip(coeffs, lat.mat)) for k in range(4)]
        if 2 * x[0] % den or quat_nrd(a, b, x) % (den * den):
            continue
        closed = _multiplicative_closure(algebra, den, scaled + [x])
        if closed is not None and closed.gram_det() < lat.gram_det():
            return closed
    return None


# ---------------------------------------------------------------------------
# local splitting O/p^k O  ~  2x2 matrices over Z/p^k

def _trd_vector(order):
    return tuple(2 * row[0] // order.den for row in order.mat)


def local_splitting(order: OrderLattice, p: int, k: int = 1):
    """Split O/p^k O as 2x2 matrices over Z/p^k (requires p unramified).

    Returns the entry functionals f[i][j][s]: the (i, j) matrix entry of
    x = sum_s x_s b_s is sum_s f[i][j][s] x_s mod p^k, so f[1][0] gives the
    lower-left entry used by the Eichler congruence.  The idempotent is
    found by exhaustive search mod p (deterministic, lexicographic), lifted
    by the Newton step e <- 3e^2 - 2e^3, then completed to a matrix-unit
    frame e_ij with e22 = 1 - e; all sixteen relations are verified, which
    covers e^2 = e after the lift and e12 e21 = e.
    """
    if p in order.algebra.ramified_primes:
        raise ValueError("algebra is ramified at %d: no splitting" % p)
    table = multiplication_table(order)
    one = _coordinates(order, (1, 0, 0, 0))
    modulus = p ** k

    e = None
    for cand in itertools.product(range(p), repeat=4):
        if not any(cand):
            continue
        if all((a - b) % p == 0 for a, b in zip(cand, one)):
            continue
        sq = _vec_mul(table, cand, cand, p)
        if sq == tuple(c % p for c in cand):
            e = cand
            break
    if e is None:
        raise ArithmeticError("no nontrivial idempotent mod %d" % p)

    m = p
    while m < modulus:
        m = min(m * m, modulus)
        sq = _vec_mul(table, e, e, m)
        cube = _vec_mul(table, sq, e, m)
        e = tuple((3 * sq[t] - 2 * cube[t]) % m for t in range(4))

    f = tuple((one[t] - e[t]) % modulus for t in range(4))  # complementary idempotent
    bas_vecs = [tuple(int(v == s) for v in range(4)) for s in range(4)]

    def sandwich(left, mid, right):
        return _vec_mul(table, _vec_mul(table, left, mid, modulus), right, modulus)

    e12 = next((v for v in (sandwich(e, b, f) for b in bas_vecs)
                if any(c % p for c in v)), None)
    e21raw = next((v for v in (sandwich(f, b, e) for b in bas_vecs)
                   if any(c % p for c in v)), None)
    if e12 is None or e21raw is None:
        raise ArithmeticError("failed to build off-diagonal matrix units")
    prod = _vec_mul(table, e12, e21raw, modulus)
    # prod = lambda * e with lambda a unit (the relation e12 e21 = e checks it)
    idx = next(t for t in range(4) if e[t] % p)
    lam = (prod[idx] * pow(e[idx], -1, modulus)) % modulus
    if lam % p == 0:
        raise ArithmeticError("off-diagonal pairing degenerate")
    lam_inv = pow(lam, -1, modulus)
    e21 = tuple((lam_inv * c) % modulus for c in e21raw)

    units = ((e, e12), (e21, f))
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for s in range(2):
                    expect = units[i][s] if j == r else (0, 0, 0, 0)
                    got = _vec_mul(table, units[i][j], units[r][s], modulus)
                    if got != tuple(c % modulus for c in expect):
                        raise ArithmeticError("matrix-unit relations failed")

    # entry (i, j) of x equals trd(e_ji * x)
    trd_vec = _trd_vector(order)

    def functional(u):
        return tuple(sum(c * t for c, t in zip(_vec_mul(table, u, b, modulus), trd_vec))
                     % modulus for b in bas_vecs)

    return tuple(tuple(functional(units[j][i]) for j in range(2)) for i in range(2))


# ---------------------------------------------------------------------------
# Eichler orders

def eichler_order(omax: OrderLattice, N: int) -> OrderLattice:
    """The level-N Eichler suborder of a maximal order.

    Each q = p^k || N gives "lower-left entry f_q = 0 mod q" through a
    splitting of O/qO.  CRT joins them into one condition sum (N/q) f_q mod N:
    N/q is a unit mod q and 0 mod every other prime power of N.  Its
    congruence kernel cuts out the order (Z^4 at N = 1): index N in the
    maximal order, Gram determinant (DN)^2.
    """
    algebra = omax.algebra
    D = algebra.discriminant
    if N < 1:
        raise ValueError("level must be positive")
    if math.gcd(N, D) != 1:
        raise ValueError("level must be coprime to the discriminant")
    cond = [0, 0, 0, 0]
    for p, k in prime_power_factors(N):
        lower_left = local_splitting(omax, p, k)[1][0]
        cond = [(c + N // p ** k * f) % N for c, f in zip(cond, lower_left)]
    result = sublattice(omax, congruence_kernel([cond], N))
    if index_in(result, omax) != N:
        raise ArithmeticError("Eichler order has wrong index")
    if not result.is_order():
        raise ArithmeticError("Eichler order certificate failed")
    result.even_gram()  # raises unless nrd is integral on the order
    if abs(result.gram_det()) != (D * N) ** 2:
        raise ArithmeticError("Eichler order has wrong discriminant")
    return replace(result, level=(D, N))
