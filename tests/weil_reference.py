"""Reference checks for the local Weil layer, independent of `lambda_eval`.

`lambda_eval_bruteforce` evaluates lambda(phi)(w n(i)) as a raw character
sum over residue points, without the coset Fourier transform of
`weil_act`.  `verify_k_invariance` checks that every listed generator of a
level subgroup fixes a Schwartz combination.
"""

from fractions import Fraction

from quatmatch.exactnum import CyclotomicNumber
from quatmatch.weilmatch import SchwartzCombo, weil_act


def lambda_eval_bruteforce(combo: SchwartzCombo, i: int) -> CyclotomicNumber:
    """lambda(phi)(w n(i)) as a raw character sum over (mu + L)/pL.

    The sum runs over p^4 residue points per coset.
    """
    space = combo.space
    p = space.p
    total = CyclotomicNumber.from_rational(0)
    for lab, coeff in combo.terms:
        mu = space.coset_vector(lab)
        coset_sum = CyclotomicNumber.from_rational(0)
        for r0 in range(p):
            for r1 in range(p):
                for r2 in range(p):
                    for r3 in range(p):
                        x = (mu[0] + r0, mu[1] + r1, mu[2] + r2, mu[3] + r3)
                        coset_sum = coset_sum + space.psi(i * space.q(x))
        total = total + coset_sum * coeff
    return total * Fraction(space.gamma) * space.vol * Fraction(1, p ** 4)


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


def verify_k_invariance(combo: SchwartzCombo, level: str) -> bool:
    """True iff every listed generator of the level group fixes the combo."""
    for word in _generator_words(combo.space, level):
        if weil_act(word, combo) != combo:
            return False
    return True
