import itertools
import math
import random

import pytest

from quatmatch.matrices import congruence_kernel, hnf2, hnf_rows


def _image_size(vectors, modulus):
    """|{(c . v_j mod modulus)_j : c in (Z/modulus)^4}| by brute force."""
    return len({tuple(sum(a * b for a, b in zip(c, v)) % modulus for v in vectors)
                for c in itertools.product(range(modulus), repeat=4)})


@pytest.mark.parametrize("seed", range(4))
def test_congruence_kernel_against_definition(seed):
    rng = random.Random(seed)
    for _ in range(40):
        modulus = rng.choice([2, 3, 4, 5, 6, 7, 8, 9])
        vectors = [[rng.randint(-20, 20) for _ in range(4)]
                   for _ in range(rng.randint(0, 3))]
        basis = congruence_kernel(vectors, modulus)
        assert basis == hnf_rows(basis) and len(basis) == 4
        for row in basis:
            for v in vectors:
                assert sum(a * b for a, b in zip(row, v)) % modulus == 0
        # K contains modulus * Z^4, so [Z^4 : K] is the size of Z^4 / K, the
        # image of c -> (c . v_j mod modulus)_j
        index = math.prod(basis[i][i] for i in range(4))
        assert index == _image_size(vectors, modulus)


def _hnf2_cases(seed):
    """Seeded 2x2 integer matrices of nonzero determinant, of either sign,
    with zero entries, and each first-column entry 0 in turn."""
    rng = random.Random(seed)
    cases = [(0, 3, 5, 7), (5, 7, 0, 3), (0, -3, -5, 7), (-4, 0, 0, -9),
             (1, 0, 0, 1), (0, 1, 1, 0), (6, 4, 9, 0), (-6, 0, 9, 2)]
    while len(cases) < 300:
        a, b, c, d = (rng.choice([0, rng.randint(-30, 30), rng.randint(-999, 999)])
                      for _ in range(4))
        if a * d - b * c:
            cases.append((a, b, c, d))
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_hnf2_is_hnf_rows(seed):
    cases = _hnf2_cases(seed)
    assert {a * d - b * c > 0 for a, b, c, d in cases} == {True, False}
    assert any(a == 0 for a, _, _, _ in cases) and any(c == 0 for _, _, c, _ in cases)
    for a, b, c, d in cases:
        g, x, h = hnf2(a, b, c, d)
        assert hnf_rows([[a, b], [c, d]]) == [[g, x], [0, h]], (a, b, c, d)
        assert g == math.gcd(a, c) and g * h == abs(a * d - b * c)
        assert 0 <= x < h
