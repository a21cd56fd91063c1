"""Local Weil-representation computations at a finite prime, in exact arithmetic.

The three standard local quadratic spaces are the 2x2 matrix algebra with
its maximal lattice, the same algebra with the level lattice (lower-left
entry divisible by p), and the division quaternion algebra with its maximal
order.  The Weil representation of an even lattice L depends only on its
discriminant module (L_dual/L, Q mod 1), so each space is stored as that
module: the cosets mu_{i,j} + L carry labels (i, j) mod p, and a table
holds the integers p*Q(mu_{i,j}) mod p.  Schwartz functions are
combinations of indicator functions of these cosets with coefficients in
Q(zeta_p); the group action is generated by

    n(b):  multiply the mu-coset coefficient by psi(b * Q(mu))
    w:     finite Fourier transform over L_dual / L, scaled by gamma * vol(L)

with vol(L) = [L_dual : L]^(-1/2) and the Weil index gamma = +1 for the
split spaces and -1 for the ramified one.  The Fourier kernel is
psi(B(nu, mu)) with B(nu, mu) = Q(nu + mu) - Q(nu) - Q(mu).  The section
value lambda(phi)(g) is (omega(g) phi)(0).

Character convention: psi_p(x) = e(-frac_p(x)), where frac_p is the p-adic
fractional part, so psi_p is trivial on Z_p and psi_p(a/p) = zeta_p^(-a).
Both psi and each space's gamma are fixed; each space constructor sets its
own gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import CyclotomicNumber, zeta
from .quatalg import ramified_model

ZERO = CyclotomicNumber.from_rational(0)
ONE = CyclotomicNumber.from_rational(1)
IDENTITY = ()
W = (("w",),)


def wn(i: int):
    """The group word w * n(i)."""
    return (("w",), ("n", i))


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
    mu_{i,j} = (i + j u)/pi, so Q(mu_{i,j}) = -(i^2 + t*ij + n*j^2)/p.
    """
    model = ramified_model(p)
    t, n = model.t, model.n
    return LocalQuadSpace(p, _table(p, lambda i, j: -(i * i + t * i * j + n * j * j)), -1)


# ---------------------------------------------------------------------------
# Schwartz combinations and the group action

@dataclass(frozen=True)
class SchwartzCombo:
    """Finite combination sum_label coeff * char(mu_label + L); every
    coefficient is a `CyclotomicNumber` in Q(zeta_p)."""
    space: LocalQuadSpace
    terms: tuple  # sorted tuple of (label, coefficient)

    @staticmethod
    def from_dict(space, data) -> "SchwartzCombo":
        items = tuple(sorted((lab, c) for lab, c in data.items() if c != ZERO))
        return SchwartzCombo(space, items)


def char_lattice(space: LocalQuadSpace) -> SchwartzCombo:
    """char(L): the zero coset with coefficient 1."""
    return SchwartzCombo.from_dict(space, {(0, 0): ONE})


def char_dual(space: LocalQuadSpace) -> SchwartzCombo:
    """char(L_dual): every coset with coefficient 1."""
    return SchwartzCombo.from_dict(space,
                                   {lab: ONE for lab in space.labels()})


def coset_char(space: LocalQuadSpace, i: int, j: int) -> SchwartzCombo:
    """char(mu_{i,j} + L)."""
    if len(space.table) == 1 and (i, j) != (0, 0):
        raise ValueError("self-dual lattice has only the zero coset")
    return SchwartzCombo.from_dict(space,
                                   {(i % space.p, j % space.p): ONE})


def weil_act(word, combo: SchwartzCombo) -> SchwartzCombo:
    """Apply a generator word: ("n", b) or ("w",)."""
    space = combo.space
    p, table = space.p, space.table
    kind = word[0]
    if kind == "n":
        b = int(word[1])
        out = {(i, j): v.rotate(p, -b * table[i][j])
               for (i, j), v in combo.terms}
        return SchwartzCombo.from_dict(space, out)
    if kind == "w":
        factor = space.vol * space.gamma
        out = {}
        for nu_i, nu_j in space.labels():
            q_nu = table[nu_i][nu_j]
            bins = [0] * p  # the coefficient of zeta_p^r, r mod p
            for (i, j), v in combo.terms:
                # p*B(nu, mu) = p*(Q(nu + mu) - Q(nu) - Q(mu)) mod p
                pb = table[(nu_i + i) % p][(nu_j + j) % p] - q_nu - table[i][j]
                for r, c in v.terms:
                    bins[(r - pb) % p] += c
            out[(nu_i, nu_j)] = CyclotomicNumber(
                p, [(r, c * factor) for r, c in enumerate(bins)])
        return SchwartzCombo.from_dict(space, out)
    raise ValueError("unknown generator word %r" % (word,))


def lambda_eval(combo: SchwartzCombo, g) -> CyclotomicNumber:
    """lambda(phi)(g) = (omega(g) phi)(0) for a word tuple g = (g1, g2, ...)."""
    space = combo.space
    current = combo
    words = list(g)
    while len(words) > 1:
        current = weil_act(words.pop(), current)
    if len(words) == 1 and words[0][0] == "w":
        # only the zero-coset output coefficient is needed
        total = sum((v for _lab, v in current.terms), ZERO)
        return total * (space.vol * space.gamma)
    if words:
        current = weil_act(words[0], current)
    return dict(current.terms).get((0, 0), ZERO)


# ---------------------------------------------------------------------------
# the matching statements

def _standard_sections(p: int) -> tuple:
    """The five characters of Prop. 3.1, each as (report name, combination)."""
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
        [lambda_eval(char_lattice(space), g).rational_value() for g in (IDENTITY, W)]
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
               for g in (IDENTITY, W))


@lru_cache(maxsize=None)
def _dft_matrix(p: int):
    """A = (p * lambda(phi_{1,j})(w n(i))), checked entrywise to be the DFT
    matrix (zeta_p^(i * j)); A is therefore invertible with A^(-1) = conj(A) / p.
    Raises ArithmeticError on any other entry.
    """
    sp1 = split_level_space(p)
    amat = tuple(tuple(lambda_eval(coset_char(sp1, 1, j), wn(i)) * p
                       for j in range(p)) for i in range(p))
    for i in range(p):
        for j in range(p):
            if amat[i][j] != zeta(p, i * j % p):
                raise ArithmeticError("lambda block is not the DFT matrix at "
                                      "(%d, %d): %s" % (i, j, amat[i][j]))
    return amat


def verify_basis_lemma(p: int) -> bool:
    """The p+1 sections are a basis and coset sections depend only on ab mod p.

    On the transversal {1, w n(i)} the sections lambda(phi0), lambda(phi_{1,j})
    form a block-triangular matrix: column g = 1 is (c, 0, ..., 0) with
    c != 0, and the remaining p x p block is A^T / p for the checked DFT
    matrix A, so the matrix is invertible.
    """
    try:
        _dft_matrix(p)
    except ArithmeticError:
        return False
    sp0 = split_maximal_space(p)
    sp1 = split_level_space(p)
    if lambda_eval(char_lattice(sp0), IDENTITY) == 0:
        return False
    if any(lambda_eval(coset_char(sp1, 1, j), IDENTITY) != 0 for j in range(p)):
        return False
    transversal = [IDENTITY] + [wn(i) for i in range(p)]
    values = {}
    for a in range(p):
        for b in range(p):
            if (a, b) == (0, 0):
                continue
            vals = tuple(lambda_eval(coset_char(sp1, a, b), g)
                         for g in transversal)
            if values.setdefault((a * b) % p, vals) != vals:
                return False
    return True


def match_coefficients(p: int, k: int, l: int):
    """Rational coefficients expressing the (k,l) division-order coset section
    in the split coset sections.

    The answer is the closed form x = -e_d: a single -1 at j = d_{k,l} mod p,
    where d_{k,l} is the norm-form value of the residue label.  With both
    sides scaled by p the matching is the system A x = t for the checked DFT
    matrix A (see `_dft_matrix`); A is invertible, so checking A x = t
    exactly, row by row, certifies x as its unique solution.
    """
    if (k % p, l % p) == (0, 0):
        raise ValueError("the zero coset has no matching of this shape")
    phi_kl = coset_char(ramified_space(p), k, l)
    amat = _dft_matrix(p)
    d = ramified_model(p).d_value(k, l) % p
    for i in range(p):
        if amat[i][d] != lambda_eval(phi_kl, wn(i)) * -p:
            raise ArithmeticError("closed-form matching x = -e_%d fails A x = t "
                                  "at row %d" % (d, i))
    return [Fraction(-1) if j == d else Fraction(0) for j in range(p)]


def lambda_table_text(p: int) -> str:
    """Human-readable table of the standard lambda-values and matchings."""
    lines = ["lambda values at prime p = %d (columns: 1, w)" % p]
    for name, combo in _standard_sections(p):
        vals = [str(lambda_eval(combo, g)) for g in (IDENTITY, W)]
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
