import itertools

import numpy as np

from conifold_lab.exterior import _sort_with_sign


def test_sort_with_sign_against_permutation_determinants():
    """Every index tuple of length <= 5 over five covectors: the key is the
    sorted tuple, a repeated index gives sign 0, and otherwise the sign is
    the determinant of the sorting permutation's matrix."""
    for length in range(6):
        for indices in itertools.product(range(5), repeat=length):
            key, sign = _sort_with_sign(indices)
            assert key == tuple(sorted(indices))
            if len(set(indices)) < length:
                assert sign == 0
                continue
            perm = np.zeros((length, length))
            for position, index in enumerate(indices):
                perm[position, key.index(index)] = 1.0
            assert sign == (round(np.linalg.det(perm)) if length else 1)

