"""Local Weil-representation computations at a finite prime, in exact arithmetic.

The three standard local quadratic spaces are the 2x2 matrix algebra with
its maximal lattice, the same algebra with the level lattice (lower-left
entry divisible by p), and the division quaternion algebra with its maximal
order.  The Weil representation of an even lattice L depends only on its
discriminant module (L_dual/L, Q mod 1), so each space is stored as that
module: the cosets mu_{i,j} + L carry labels (i, j) mod p, and a table
holds the integers p*Q(mu_{i,j}) mod p.  Every section built here is the
indicator of a union of these cosets.

A section phi is read through lambda(phi)(g) = (omega(g) phi)(0) on the
transversal {1, w n(b)}.  There lambda(phi)(1) is phi(0), and

    lambda(phi)(w n(b)) = gamma * vol(L) * sum_mu phi(mu) psi(b * Q(mu))

(Weil, Acta Math. 111, 1964), with w = w n(0), vol(L) = [L_dual : L]^(-1/2)
and the Weil index gamma = +1 for the split spaces and -1 for the ramified
one.  On {1, w} the value is rational, and `lambda_eval` returns it as a
Fraction: the matchings of Prop. 3.1 and the identity weights read only
these.  At w n(b) a coset section has the one term
gamma * vol(L) * zeta_p^(-b * pQ(mu)), which the DFT and A x = t
certificates read as its rational scalar and its exponent mod p.  No value
of Q(zeta_p) is formed here; the test suite keeps the group action on
Schwartz functions, with coefficients in Q(zeta_p), as the reference.

Character convention: e(t) = exp(2 pi i t) and psi_p(x) = e(-frac_p(x)),
where frac_p is the p-adic fractional part, so psi_p is trivial on Z_p and
psi_p(a/p) = zeta_p^(-a).  Both psi and each space's gamma are fixed; each
space constructor sets its own gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .quatalg import ramified_model


@dataclass(frozen=True)
class LocalQuadSpace:
    """The discriminant module of a local lattice.

    `table[i][j]` is p*Q(mu_{i,j}) mod p; the table is 1x1 for a self-dual
    lattice (the single label (0, 0)) and p x p otherwise.
    """
    p: int
    table: tuple
    gamma: int

    @property
    def vol(self) -> Fraction:
        # [L_dual : L] is the square of the table's side
        return Fraction(1, len(self.table))

    def labels(self):
        size = len(self.table)
        return [(i, j) for i in range(size) for j in range(size)]


def _table(p: int, quad) -> tuple:
    return tuple(tuple(quad(i, j) % p for j in range(p)) for i in range(p))


def split_maximal_space(p: int) -> LocalQuadSpace:
    """2x2 matrices over Z_p with Q = det; self-dual."""
    return LocalQuadSpace(p, ((0,),), 1)


def split_level_space(p: int) -> LocalQuadSpace:
    """The level lattice (lower-left entry in pZ_p) with Q = det.

    The dual cosets are mu_{i,j} = [[0, j/p],[i, 0]], so Q(mu_{i,j}) = -ij/p.
    """
    return LocalQuadSpace(p, _table(p, lambda i, j: -i * j), 1)


@lru_cache(maxsize=None)
def ramified_space(p: int) -> LocalQuadSpace:
    """Maximal order of the division quaternion algebra at p.

    In the coordinates (a1 + a2 u) + (b1 + b2 u) pi of `quatalg.RamifiedModel`
    (u^2 = t*u - n, pi^2 = p), Q = N(alpha) - p N(beta).  The dual cosets are
    mu_{i,j} = (i + j u)/pi, so Q(mu_{i,j}) = -N(i + j u)/p = -d_value(i, j)/p.
    """
    d_value = ramified_model(p).d_value
    return LocalQuadSpace(p, _table(p, lambda i, j: -d_value(i, j)), -1)


# ---------------------------------------------------------------------------
# sections and their lambda-values

@dataclass(frozen=True)
class Section:
    """The indicator of a union of cosets mu + L: `labels` is the sorted
    tuple of their labels (i, j)."""
    space: LocalQuadSpace
    labels: tuple


def char_lattice(space: LocalQuadSpace) -> Section:
    """char(L): the zero coset."""
    return Section(space, ((0, 0),))


def char_dual(space: LocalQuadSpace) -> Section:
    """char(L_dual): every coset."""
    return Section(space, tuple(space.labels()))


def lambda_eval(phi: Section, b) -> Fraction:
    """lambda(phi)(g) = (omega(g) phi)(0) at g = 1 for b = None, and at
    g = w = w n(0) for b = 0; ValueError for any other b.

    At g = 1 the value is phi(0).  At g = w every character value
    psi(0 * Q(mu)) is 1, so the sum is gamma vol(L) times the number of
    cosets of phi.
    """
    if b is None:
        return Fraction(int((0, 0) in phi.labels))
    if b != 0:
        raise ValueError("lambda is evaluated on {1, w} only (b = None or 0), "
                         "got b = %r" % (b,))
    space = phi.space
    return space.gamma * space.vol * len(phi.labels)


# ---------------------------------------------------------------------------
# the matching statements

def _standard_sections(p: int) -> tuple:
    """The five characters of Prop. 3.1, each as (report name, section)."""
    ra = ramified_space(p)
    sp1 = split_level_space(p)
    return (("char(L_ram)", char_lattice(ra)), ("char(L_ram_dual)", char_dual(ra)),
            ("char(L0)", char_lattice(split_maximal_space(p))),
            ("char(L1)", char_lattice(sp1)), ("char(L1_dual)", char_dual(sp1)))


@lru_cache(maxsize=None)
def matching_weights(p: int) -> tuple:
    """The local matching coefficients (a, b): char(L_ram) matches
    a char(L0) + b char(L1).

    {1, w} is a full transversal for these K0(p)-invariant sections, and
    their lambda-values there give (1, -1/p) = a (1, 1) + b (1, 1/p), so
    a = -2/(p-1) and b = (p+1)/(p-1).  The solution is checked against both
    equations; ArithmeticError naming p if the system is singular.  Cached,
    as `ramified_space` is, so each prime is solved once per process.
    """
    (r1, rw), (x1, xw), (y1, yw) = (
        [lambda_eval(char_lattice(space), b) for b in (None, 0)]
        for space in (ramified_space(p), split_maximal_space(p), split_level_space(p)))
    det = x1 * yw - y1 * xw
    if det == 0:
        raise ArithmeticError("matching system at p = %d is singular" % p)
    a = (r1 * yw - y1 * rw) / det
    b = (x1 * rw - r1 * xw) / det
    if (a * x1 + b * y1, a * xw + b * yw) != (r1, rw):
        raise ArithmeticError("matching weights at p = %d fail their system" % p)
    return a, b


def verify_prop_3_1(p: int) -> bool:
    """Both local matchings of Prop. 3.1, exact on the transversal {1, w}:
    (1) char(L_ram) against a char(L0) + b char(L1), solved by `matching_weights`;
    (2) char(L_ram_dual) against -p a char(L0) - b char(L1_dual), the image of
    (1) under omega(w), as omega(w) char(L) = gamma_L vol(L) char(L_dual).
    """
    a, b = matching_weights(p)
    _, (_, ra_dual), (_, l0), _, (_, l1_dual) = _standard_sections(p)
    return all(lambda_eval(ra_dual, g)
               == lambda_eval(l0, g) * (-p * a) - lambda_eval(l1_dual, g) * b
               for g in (None, 0))


@lru_cache(maxsize=None)
def _dft_matrix(p: int):
    """The exponents of A = (p * lambda(phi_{1,j})(w n(i))), checked
    entrywise to be those of the DFT matrix (zeta_p^(i * j)); A is therefore
    invertible with A^(-1) = conj(A) / p.  Returns the exponent table e,
    A_ij = zeta_p^(e[i][j]).  Raises ArithmeticError on any other entry.

    Each entry is p times the one-term Weil value of a coset section (see
    the module docstring): A_ij = p gamma vol(L) zeta_p^(-i pQ(mu_{1,j})).
    The rational scalar p gamma vol(L) = 1 of the split level space is
    checked once; after it, as zeta_p has order p, A_ij = zeta_p^(i j)
    holds exactly when -i pQ(mu_{1,j}) = i j (mod p).
    """
    sp1 = split_level_space(p)
    scale = p * sp1.gamma * sp1.vol
    if scale != 1:
        raise ArithmeticError("lambda block is not the DFT matrix at p = %d: "
                              "p*gamma*vol = %s, not 1" % (p, scale))
    exponents = tuple(tuple(-i * t % p for t in sp1.table[1])
                      for i in range(p))
    for i in range(p):
        for j in range(p):
            if exponents[i][j] != i * j % p:
                raise ArithmeticError(
                    "lambda block is not the DFT matrix at (%d, %d): zeta_%d^%d"
                    % (i, j, p, exponents[i][j]))
    return exponents


def match_coefficients(p: int, k: int, l: int):
    """Rational coefficients expressing the (k,l) division-order coset section
    in the split coset sections.

    The answer is the closed form x = -e_d: a single -1 at j = d_{k,l} mod p,
    where d_{k,l} is the norm-form value of the residue label.  With both
    sides scaled by p the matching is the system A x = t for the checked DFT
    matrix A (see `_dft_matrix`); A is invertible, so checking A x = t
    exactly, row by row, certifies x as its unique solution.

    Row i reads A_id = t_i = -p lambda(phi_kl)(w n(i)), and the right side is
    -p times the one-term Weil value of the coset section (see the module
    docstring), -p gamma vol(L) zeta_p^(-i pQ(mu_kl)).  The rational scalar
    -p gamma vol(L) = 1 of the ramified space is checked once; after it, as
    zeta_p has order p, the row holds exactly when i d = -i pQ(mu_kl)
    (mod p).
    """
    if (k % p, l % p) == (0, 0):
        raise ValueError("the zero coset has no matching of this shape")
    ra = ramified_space(p)
    scale = -p * ra.gamma * ra.vol
    if scale != 1:
        raise ArithmeticError("closed-form matching fails A x = t at p = %d: "
                              "-p*gamma*vol = %s, not 1" % (p, scale))
    exponents = _dft_matrix(p)
    d = ramified_model(p).d_value(k, l) % p
    pq = ra.table[k % p][l % p]
    for i in range(p):
        if (exponents[i][d] + i * pq) % p:
            raise ArithmeticError("closed-form matching x = -e_%d fails A x = t "
                                  "at row %d" % (d, i))
    return [Fraction(-1) if j == d else Fraction(0) for j in range(p)]


def lambda_table_text(p: int) -> str:
    """Human-readable table of the standard lambda-values and matchings."""
    lines = ["lambda values at prime p = %d (columns: 1, w)" % p]
    for name, phi in _standard_sections(p):
        vals = [str(lambda_eval(phi, b)) for b in (None, 0)]
        lines.append("  %-17s : %s" % (name, ", ".join(vals)))
    lines.append("matching weights: -2/(p-1) = %s, (p+1)/(p-1) = %s"
                 % matching_weights(p))
    lines.append("prop-3.1 matchings hold: %s" % verify_prop_3_1(p))
    model = ramified_model(p)
    lines.append("division-order residue parameters (t, n) = (%d, %d)"
                 % (model.t, model.n))
    for k in range(p):
        for l in range(p):
            if (k, l) == (0, 0):
                continue
            coeffs = match_coefficients(p, k, l)
            nz = [(j, c) for j, c in enumerate(coeffs) if c]
            lines.append("  coset (%d,%d): d = %d, coefficients %s"
                         % (k, l, model.d_value(k, l) % p, nz))
    return "\n".join(lines)
