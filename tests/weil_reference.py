"""Reference checks for the local Weil layer, independent of `lambda_eval`.

`weilmatch` evaluates lambda(phi) only on {1, w}, where it is rational, and
reads the values at w n(b) as integer exponents mod p.  Here the group acts
on Schwartz functions themselves:

`SchwartzCombo` is a combination of coset indicators with coefficients in
Q(zeta_p), and `weil_act` applies the generators

    n(b):  multiply the mu-coset coefficient by psi(b * Q(mu))
    w:     finite Fourier transform over L_dual / L, scaled by gamma * vol(L)

with the Fourier kernel psi(B(nu, mu)), B(nu, mu) = Q(nu + mu) - Q(nu) - Q(mu).
`act` extends `weil_act` by the words m(a) and n_-(c), and
`verify_k_invariance` uses it to check that every listed generator of a
level subgroup fixes a section.  `reference_lambda` reads a word's action
at 0, the value `lambda_eval` is checked against on {1, w}.
`table_lambda` is lambda(phi)(w n(i)) read off the discriminant table, one
term gamma * vol(L) * zeta_p^(-i pQ(mu)) per coset: the value whose scalar
and exponents the DFT and A x = t certificates read.  `coset_char` is the
indicator of one coset, and `verify_basis_lemma` checks that the p + 1
sections char(L0), char(mu_{1,j} + L1) are a basis on {1, w n(i)}.

`Form4` is a local lattice written out in Z_p^4 coordinates: a 4x4 Gram
matrix and the two generators of L_dual/L.  `level_form` and
`ramified_form` are the level and division-order lattices that
`weilmatch` stores only as discriminant modules.  `lambda_eval_bruteforce`
evaluates lambda(phi)(w n(i)) as a raw character sum over residue points
of such a form, without the discriminant-module table.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from quatmatch import weilmatch
from quatmatch.quatalg import ramified_model
from quatmatch.weilmatch import LocalQuadSpace, Section

from cyclotomic import CyclotomicNumber, zeta

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


@dataclass(frozen=True)
class SchwartzCombo:
    """Finite combination sum_label coeff * char(mu_label + L); every
    coefficient is a nonzero `CyclotomicNumber` in Q(zeta_p)."""
    space: LocalQuadSpace
    terms: tuple  # sorted tuple of (label, coefficient)

    @staticmethod
    def from_dict(space, data) -> "SchwartzCombo":
        items = tuple(sorted((lab, c) for lab, c in data.items() if c != _ZERO))
        return SchwartzCombo(space, items)

    @staticmethod
    def of(section: Section) -> "SchwartzCombo":
        """The section's indicator: coefficient 1 on each of its cosets."""
        return SchwartzCombo(section.space, tuple((lab, _ONE) for lab in section.labels))

    def at_zero(self) -> CyclotomicNumber:
        """The value at 0: the coefficient of the zero coset."""
        return dict(self.terms).get((0, 0), _ZERO)


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


class Form4(NamedTuple):
    """Q(v) = v qgram v^T on Z_p^4; L_dual/L = {i v_i + j v_j : i, j mod p}."""
    p: int
    qgram: tuple
    v_i: tuple
    v_j: tuple

    def coset_vector(self, label):
        i, j = label
        return tuple(i * a + j * b for a, b in zip(self.v_i, self.v_j))

    def q(self, v) -> Fraction:
        return sum(self.qgram[r][s] * v[r] * v[s] for r in range(4) for s in range(4))

    def bilin(self, v, w) -> Fraction:
        return sum((self.qgram[r][s] + self.qgram[s][r]) * v[r] * w[s]
                   for r in range(4) for s in range(4))


def _vec(*xs):
    return tuple(Fraction(x) for x in xs)


def level_form(p: int) -> Form4:
    """The level lattice, basis E11, E12, p*E21, E22: Q(y) = y1 y4 - p y2 y3;
    the dual cosets are mu_{i,j} = [[0, j/p],[i, 0]]."""
    h = Fraction(1, 2)
    qg = (_vec(0, 0, 0, h), _vec(0, 0, -h * p, 0), _vec(0, -h * p, 0, 0), _vec(h, 0, 0, 0))
    return Form4(p, qg, _vec(0, 0, Fraction(1, p), 0), _vec(0, Fraction(1, p), 0, 0))


def ramified_form(p: int) -> Form4:
    """The division order in the coordinates (a1, a2, b1, b2) of
    (a1 + a2 u) + (b1 + b2 u) pi: Q = N(alpha) - p N(beta); the dual cosets
    are mu_{i,j} = (i + j u)/pi."""
    model = ramified_model(p)
    t, n = model.t, model.n
    h = Fraction(1, 2)
    qg = (_vec(1, h * t, 0, 0), _vec(h * t, n, 0, 0),
          _vec(0, 0, -p, -h * t * p), _vec(0, 0, -h * t * p, -n * p))
    return Form4(p, qg, _vec(0, 0, Fraction(1, p), 0), _vec(0, 0, 0, Fraction(1, p)))


def lambda_eval_bruteforce(section: Section, form: Form4,
                           i: int) -> CyclotomicNumber:
    """lambda(phi)(w n(i)) as a raw character sum over (mu + L)/pL of `form`.

    The sum runs over p^4 residue points per coset; [L_dual : L] = p^2, so
    vol(L) = 1/p.
    """
    p = form.p
    total = _ZERO
    for lab in section.labels:
        mu = form.coset_vector(lab)
        coset_sum = _ZERO
        for r0 in range(p):
            for r1 in range(p):
                for r2 in range(p):
                    for r3 in range(p):
                        x = (mu[0] + r0, mu[1] + r1, mu[2] + r2, mu[3] + r3)
                        # psi_p(y) = e(-y) for y with denominator dividing p
                        y = i * form.q(x)
                        assert p % y.denominator == 0
                        coset_sum = coset_sum + zeta(y.denominator, -y.numerator)
        total = total + coset_sum
    return total * Fraction(section.space.gamma, p) * Fraction(1, p ** 4)


def table_lambda(section: Section, i: int) -> CyclotomicNumber:
    """lambda(phi)(w n(i)) = gamma vol(L) sum_mu phi(mu) zeta_p^(-i pQ(mu)),
    each coset's term read off `space.table`."""
    space = section.space
    return CyclotomicNumber(space.p, [(-i * space.table[a][b],
                                       space.gamma * space.vol)
                                      for a, b in section.labels])


def coset_char(space: LocalQuadSpace, i: int, j: int) -> Section:
    """char(mu_{i,j} + L), for the label (i, j) read mod p."""
    label = (i % space.p, j % space.p)
    if len(space.table) == 1 and label != (0, 0):
        raise ValueError("self-dual lattice has only the zero coset")
    return Section(space, (label,))


def verify_basis_lemma(p: int) -> bool:
    """The p+1 sections are a basis and coset sections depend only on ab mod p.

    On the transversal {1, w n(i)} the sections lambda(phi0), lambda(phi_{1,j})
    form a block-triangular matrix: column g = 1 is (1, 0, ..., 0), as
    phi0 = char(L0) holds the zero coset and no phi_{1,j} does, and the
    remaining p x p block is A^T / p for the checked DFT matrix A of
    `weilmatch._dft_matrix`, so the matrix is invertible.  Every nonzero
    coset section is 0 at g = 1, and at w n(i) its one-term Weil value is
    named by its table entry pQ(mu_{a,b}); so the values depend only on
    ab mod p exactly when the table entries do.  The spaces are read
    through `weilmatch`, so a test that patches one there patches it here.
    """
    try:
        weilmatch._dft_matrix(p)
    except ArithmeticError:
        return False
    sp1 = weilmatch.split_level_space(p)
    entries = {}
    for a in range(p):
        for b in range(p):
            if (a, b) == (0, 0):
                continue
            if weilmatch.lambda_eval(coset_char(sp1, a, b), None) != 0:
                return False
            if entries.setdefault(a * b % p, sp1.table[a][b]) != sp1.table[a][b]:
                return False
    return True


def act(word, combo: SchwartzCombo) -> SchwartzCombo:
    """Apply ("m", a) for a unit a, ("nminus", c), or a word of `weil_act`."""
    p = combo.space.p
    if word[0] == "m":
        a = int(word[1])
        if math.gcd(a, p) != 1:
            raise ValueError("m(a) is implemented for units a only")
        # x -> a*x permutes the labels, so no two terms meet
        out = {((a * i) % p, (a * j) % p): v for (i, j), v in combo.terms}
        return SchwartzCombo.from_dict(combo.space, out)
    if word[0] == "nminus":
        # n_-(c) = w^{-1} n(-c) w and w^{-1} = w m(-1)
        step = weil_act(("n", -int(word[1])), weil_act(("w",), combo))
        return weil_act(("w",), act(("m", -1), step))
    return weil_act(word, combo)


def reference_lambda(section: Section, g) -> CyclotomicNumber:
    """(omega(g) phi)(0) for a word g = (g1, g2, ...) of `act`, applied
    right to left to the section's indicator phi."""
    combo = SchwartzCombo.of(section)
    for word in reversed(g):
        combo = act(word, combo)
    return combo.at_zero()


_LEVELS = ("K0", "K0plus", "K")


def _generator_words(space, level):
    p = space.p
    if level == "K0":
        ns = [("n", b) for b in range(1, p)]
        nms = [("nminus", p * t) for t in range(1, p)]
    elif level == "K0plus":
        ns = [("n", p * b) for b in range(1, p)]
        nms = [("nminus", c) for c in range(1, p)]
    elif level == "K":
        ns = [("n", p * b) for b in range(1, p)]
        nms = [("nminus", p * t) for t in range(1, p)]
    else:
        raise ValueError("level must be one of %r" % (_LEVELS,))
    return ns + nms


def verify_k_invariance(section: Section, level: str) -> bool:
    """True iff every listed generator of the level group fixes the section."""
    combo = SchwartzCombo.of(section)
    for word in _generator_words(combo.space, level):
        if act(word, combo) != combo:
            return False
    return True
