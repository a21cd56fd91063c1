import itertools
import math
import random

import pytest

from quatmatch.matrices import congruence_kernel, hnf_rows


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
