"""Reference genus average: isometry dedupe with exact automorphism counts.

The package computes r_{D,N}(m) as the unit-weighted pair-lattice average

    (1/mass^2) * sum_{i,j} r_{I_j conj(I_i)}(m) / (w_i w_j).

This module computes the same number the classical way, for the tests to
check against: collect the H^2 pair lattices, keep one per isometry class
(LLL reduction plus an exact isometry search), and weight each class by
1/|Aut| with the full automorphism group, improper maps included.  It also
holds the Kneser p-neighbour map used to certify that the classes found
are closed in the genus, and a rational-Cholesky vector enumerator that
builds a Fraction per lattice point, kept independent of the package's
integer enumeration so that the two can be checked against each other.
Forms here are Q-Grams A of Fractions, Q(x) = x A x^T; `as_even` turns one
into the integer even Gram A + A^T that `theta_counts` takes.
The dual lattice and the cofactor determinant are test-side helpers for
the lattice checks.

The package works on coordinate 4-tuples and integer HNF rows only.  The
element-wise reference the lattice tests check it against is here:
`QuatElement` with its ring operations, and the free functions `element`,
`from_rows`, `basis`, `coordinates` and `contains`.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from quatmatch.classsets import pair_gram, theta_counts
from quatmatch.matrices import congruence_kernel, hnf_rows
from quatmatch.orders import OrderLattice, _lattice
from quatmatch.quatalg import QuaternionAlgebra, quat_mul, quat_nrd


# ---------------------------------------------------------------------------
# elements and lattices, element-wise

@dataclass(frozen=True)
class QuatElement:
    """x0 + x1 i + x2 j + x3 k in (a, b | Q), by its Fraction coordinates."""
    algebra: QuaternionAlgebra
    coords: tuple

    def __add__(self, other):
        return element(self.algebra,
                       *(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return element(self.algebra,
                       *(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        return element(self.algebra, *(-x for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return element(self.algebra, *(x * other for x in self.coords))
        alg = self.algebra
        return element(alg, *quat_mul(alg.a, alg.b, self.coords, other.coords))

    def __rmul__(self, other):
        return self * other

    def conjugate(self):
        x0, x1, x2, x3 = self.coords
        return element(self.algebra, x0, -x1, -x2, -x3)

    def reduced_trace(self) -> Fraction:
        return 2 * self.coords[0]

    def reduced_norm(self) -> Fraction:
        return quat_nrd(self.algebra.a, self.algebra.b, self.coords)

    def pairing(self, other) -> Fraction:
        """(x, y) = trd(x * conj(y)); satisfies (x, x) = 2 nrd(x)."""
        return (self * other.conjugate()).reduced_trace()


def element(alg, *xs) -> QuatElement:
    """x0 + x1 i + x2 j + x3 k from the leading coordinates xs (the rest 0)."""
    return QuatElement(alg, tuple(Fraction(x) for x in xs + (0,) * (4 - len(xs))))


def from_rows(alg, rows) -> OrderLattice:
    """The lattice spanned by rational rows (ints or Fractions)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return _lattice(alg, den, [[int(x * den) for x in row] for row in rows])


def basis(lat: OrderLattice):
    """The lattice's basis rows mat/den, as elements."""
    return [element(lat.algebra, *(Fraction(x, lat.den) for x in row))
            for row in lat.mat]


def coordinates(lat: OrderLattice, x: QuatElement):
    """Coordinates of x with respect to the lattice basis (Fractions): c with
    sum_r c_r mat[r] = den * x, by forward substitution (the HNF is upper
    triangular).  The package's `_coordinates` is the integer solve, which
    raises off the lattice; the tests check it against this one."""
    c = []
    for k in range(4):
        t = lat.den * x.coords[k] - sum(c[r] * lat.mat[r][k] for r in range(k))
        c.append(t / lat.mat[k][k])
    return c


def contains(lat: OrderLattice, x: QuatElement) -> bool:
    return all(c.denominator == 1 for c in coordinates(lat, x))


def det4(a):
    """Exact determinant by cofactor expansion (any small square size)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if a[0][j] != 0:
            minor = [[a[i][k] for k in range(n) if k != j] for i in range(1, n)]
            total += sign * a[0][j] * det4(minor)
        sign = -sign
    return total


def dual_lattice(lat: OrderLattice) -> OrderLattice:
    """Dual with respect to (x, y) = trd(x conj(y)).

    Its basis gram^-1 B equals B^-T w^-1, w = diag(2, -2a, -2b, 2ab), and
    row c of B^-1 holds the coordinates of the c-th unit quaternion.
    """
    alg = lat.algebra
    w = (2, -2 * alg.a, -2 * alg.b, 2 * alg.a * alg.b)
    inv = [coordinates(lat, element(alg, *(int(r == c) for c in range(4))))
           for r in range(4)]
    return from_rows(
        alg, [[inv[c][r] / w[c] for c in range(4)] for r in range(4)])


# ---------------------------------------------------------------------------
# reference enumeration (rational Cholesky, ellipsoid pruning)

def q_gram(lat: OrderLattice):
    """Q-Gram of nrd on the lattice basis: gram / (2 den^2)."""
    return [[Fraction(x, 2 * lat.den ** 2) for x in row] for row in lat.gram()]


def as_even(qgram):
    """The integer even Gram A + A^T of an integral Q-Gram A."""
    e = [[Fraction(qgram[i][j] + qgram[j][i]) for j in range(4)] for i in range(4)]
    if any(x.denominator != 1 for row in e for x in row):
        raise ValueError("form is not integral: A + A^T has a non-integer entry")
    return [[int(x) for x in row] for row in e]


def _as_qgram(lattice_or_gram):
    if isinstance(lattice_or_gram, OrderLattice):
        return q_gram(lattice_or_gram)
    return lattice_or_gram


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


def reference_theta_counts(lattice_or_gram, mmax: int):
    """[r(0), ..., r(mmax)] by the rational enumerator."""
    counts = [0] * (mmax + 1)

    def leaf(value, _x):
        if value.denominator == 1:
            counts[int(value)] += 1

    _enumerate(_as_qgram(lattice_or_gram), Fraction(mmax), leaf)
    return counts


def list_vectors(lattice_or_gram, m: int):
    """All coordinate vectors of norm exactly m."""
    qgram = _as_qgram(lattice_or_gram)
    out = []

    def leaf(value, xvec):
        if value == m:
            out.append(tuple(xvec))

    _enumerate(qgram, Fraction(m), leaf)
    return out


def genus_lattices(cs):
    """All pair Q-Grams indexed by (i, j); diagonal entries are left orders."""
    out = {}
    for i, a in enumerate(cs.representatives):
        for j, b in enumerate(cs.representatives):
            out[(i, j)] = [[Fraction(x, 2) for x in row] for row in pair_gram(a, b)]
    return out


# ---------------------------------------------------------------------------
# lattice reduction + isometry testing (exact, rank 4)

def _gram_bilinear(qgram):
    return [[qgram[i][j] + qgram[j][i] for j in range(4)] for i in range(4)]


def lll_reduce_qgram(qgram):
    """LLL-reduce the form (delta = 3/4); returns (new qgram, transform U)."""
    g = [[Fraction(qgram[i][j] + qgram[j][i], 2) for j in range(4)] for i in range(4)]
    u_mat = [[1 if i == j else 0 for j in range(4)] for i in range(4)]

    k = 1
    guard = 0
    while k < 4 and guard < 500:
        guard += 1
        # size-reduce row k against rows < k via Gram-Schmidt coefficients
        bstar = _gso(u_mat, g)
        for j in range(k - 1, -1, -1):
            mu = bstar[1][k][j]
            if abs(mu) > Fraction(1, 2):
                r = math.floor(mu + Fraction(1, 2))
                u_mat[k] = [a - r * b for a, b in zip(u_mat[k], u_mat[j])]
                bstar = _gso(u_mat, g)
        bnorm, mu = bstar
        if bnorm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bnorm[k - 1]:
            k += 1
        else:
            u_mat[k], u_mat[k - 1] = u_mat[k - 1], u_mat[k]
            k = max(k - 1, 1)
    new = [[sum(u_mat[i][a] * g[a][b] * u_mat[j][b]
                for a in range(4) for b in range(4)) for j in range(4)]
           for i in range(4)]
    return new, u_mat


def _gso(u_mat, g):
    """GSO norms and mu coefficients of the rows of u_mat w.r.t. the form g."""
    def dot(i, j):
        return sum(u_mat[i][a] * g[a][b] * u_mat[j][b]
                   for a in range(4) for b in range(4))

    mu = [[Fraction(0)] * 4 for _ in range(4)]
    bnorm = [Fraction(0)] * 4
    for i in range(4):
        bnorm[i] = dot(i, i)
        for j in range(i):
            mu[i][j] = (dot(i, j) - sum(mu[i][t] * mu[j][t] * bnorm[t]
                                        for t in range(j))) / bnorm[j]
            bnorm[i] -= mu[i][j] ** 2 * bnorm[j]
    return bnorm, mu


def _isometry_search(qA, qB, count_all):
    """Isometries (Z^4, qB) -> (Z^4, qA), as images of qA's basis in qB.

    Returns the number of isometries if count_all, else True/False for
    existence.  An isometry is a unimodular integer matrix U with
    U * bil(qB) * U^T = bil(qA).
    """
    bilA = _gram_bilinear(qA)
    cand = []
    for i in range(4):
        n = qA[i][i]
        if n.denominator != 1:
            return 0 if count_all else False
        cand.append(list_vectors(qB, int(n)))
    order = sorted(range(4), key=lambda i: len(cand[i]))
    twoqB = _gram_bilinear(qB)

    def bilin(v, w):
        return sum(v[a] * twoqB[a][b] * w[b] for a in range(4) for b in range(4))

    placed = {}
    count = 0
    found = False

    def rec(depth):
        nonlocal count, found
        if found and not count_all:
            return
        if depth == 4:
            umat = [placed[i] for i in range(4)]
            if abs(det4([list(r) for r in umat])) == 1:
                count += 1
                found = True
            return
        i = order[depth]
        for v in cand[i]:
            if all(bilin(v, placed[j]) == bilA[i][j] for j in placed):
                placed[i] = v
                rec(depth + 1)
                del placed[i]
                if found and not count_all:
                    return

    rec(0)
    return count if count_all else found


def _reduced(qgram):
    red, _ = lll_reduce_qgram(qgram)
    return [[Fraction(x) for x in row] for row in red]


def isometric(qA, qB) -> bool:
    """Exact isometry test for two integral positive definite forms."""
    qa, qb = _reduced(qA), _reduced(qB)
    if det4(qa) != det4(qb):
        return False
    return bool(_isometry_search(qa, qb, count_all=False))


def automorphism_count(qgram) -> int:
    """Order of the full isometry group of the form (improper maps included)."""
    q = _reduced(qgram)
    return _isometry_search(q, q, count_all=True)


# ---------------------------------------------------------------------------
# the genus as isometry classes

def genus_classes(cs):
    """[(qgram, |Aut|)], one per isometry class among the pair lattices.

    A theta fingerprint (m <= 6) filters candidates before the exact
    isometry test, so the dedupe stays exact.
    """
    classes = []
    fingerprints = []
    for _ij, qg in sorted(genus_lattices(cs).items()):
        fp = tuple(theta_counts(as_even(qg), 6))
        if not any(fp == known and isometric(qg, rep)
                   for (rep, _aut), known in zip(classes, fingerprints)):
            classes.append((qg, automorphism_count(qg)))
            fingerprints.append(fp)
    return classes


def reference_genus_theta(cs, mmax: int):
    """[r_{D,N}(0), ..., r_{D,N}(mmax)] as the 1/|Aut|-weighted class average."""
    classes = genus_classes(cs)
    total_mass = sum(Fraction(1, aut) for _qg, aut in classes)
    thetas = [theta_counts(as_even(qg), mmax) for qg, _aut in classes]
    return [sum(Fraction(th[m], aut) for th, (_qg, aut) in zip(thetas, classes))
            / total_mass for m in range(mmax + 1)]


# ---------------------------------------------------------------------------
# Kneser neighbors of a quadratic lattice (genus-closure certification)

def kneser_neighbors(qgram, p: int):
    """All p-neighbors of the integral lattice (Z^4, qgram) at an odd prime p.

    Returns one Q-Gram per isotropic-mod-p line; every neighbor lies in the
    genus of the input, so closure of a claimed set of genus classes under
    this map certifies that no class is missing from the reachable part.
    """
    if p == 2:
        raise ValueError("use an odd neighbor prime")
    A = [[Fraction(x) for x in row] for row in qgram]

    def q_val(v):
        val = sum(A[i][j] * v[i] * v[j] for i in range(4) for j in range(4))
        assert val.denominator == 1
        return int(val)

    def b_val(v, w):
        val = sum((A[i][j] + A[j][i]) * v[i] * w[j]
                  for i in range(4) for j in range(4))
        assert val.denominator == 1
        return int(val)

    out = []
    seen = set()
    for v in itertools.product(range(p), repeat=4):
        if not any(v):
            continue
        first = next(x for x in v if x)
        inv = pow(first, -1, p)
        line = tuple((x * inv) % p for x in v)
        if line in seen:
            continue
        seen.add(line)
        v = list(v)
        if q_val(v) % p:
            continue
        if q_val(v) % (p * p):
            target = (-(q_val(v) // p)) % p
            for w in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
                bw = b_val(v, w) % p
                if bw:
                    t = (target * pow(bw, -1, p)) % p
                    v = [v[i] + p * t * w[i] for i in range(4)]
                    break
        assert q_val(v) % (p * p) == 0
        cond = [b_val([1 if i == r else 0 for i in range(4)], v) % p
                for r in range(4)]
        kern = congruence_kernel([cond], p)
        rows = [[Fraction(x) for x in row] for row in kern]
        rows.append([Fraction(vi, p) for vi in v])
        mat = hnf_rows([[int(x * p) for x in row] for row in rows])
        if len(mat) != 4:
            raise ArithmeticError("neighbor lattice is degenerate")
        u = [[Fraction(x, p) for x in row] for row in mat]
        nb = [[sum(u[i][a] * Fraction(A[a][b] + A[b][a], 2) * u[j][b]
                   for a in range(4) for b in range(4)) for j in range(4)]
              for i in range(4)]
        out.append(nb)
    return out


def genus_closed_under_neighbors(cs, p: int) -> bool:
    """Check that the isometry classes absorb all their p-neighbors."""
    classes = genus_classes(cs)
    fingerprints = [theta_counts(as_even(qg), 6) for qg, _aut in classes]
    for qg, _aut in classes:
        for nb in kneser_neighbors(qg, p):
            fp = theta_counts(as_even(nb), 6)
            if not any(fp == known and isometric(nb, other)
                       for (other, _a), known in zip(classes, fingerprints)):
                return False
    return True
