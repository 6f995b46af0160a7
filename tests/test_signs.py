import random

import pytest

from signs import (
    OrientedFactor,
    OrientedFactorization,
    boundary_fibre_signs,
    gluing_sign,
    moduli_dim,
    permute_sign,
    squarezero_chain,
)


def _factorization(dims):
    return OrientedFactorization(tuple(OrientedFactor("f%d" % i, d)
                                       for i, d in enumerate(dims)))


def test_permute_sign_identity():
    f = _factorization([2, 3, 1])
    assert permute_sign(f, [0, 1, 2]) == 1


def test_permute_sign_odd_swap():
    assert permute_sign(_factorization([1, 1]), [1, 0]) == -1


def test_permute_sign_even_factor_commutes():
    assert permute_sign(_factorization([2, 7]), [1, 0]) == 1


def test_permute_sign_dim1_past_block():
    # moving a 1-dimensional factor past a block of dimension d costs (-1)^d
    for d in range(6):
        f = _factorization([d, 1])
        assert permute_sign(f, [1, 0]) == (-1) ** d


def test_permute_sign_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_sign(_factorization([1, 2]), [0, 0])


def test_permute_sign_is_multiplicative():
    rng = random.Random(3)
    for _ in range(200):
        size = rng.randint(2, 6)
        dims = [rng.randint(0, 4) for _ in range(size)]
        f = _factorization(dims)
        sigma = list(range(size))
        rho = list(range(size))
        rng.shuffle(sigma)
        rng.shuffle(rho)
        composed = [rho[s] for s in sigma]
        lhs = permute_sign(f, composed)
        # sign of rho on the original dims, then sigma on the rho-reordered dims
        inner = permute_sign(f, rho)
        outer = permute_sign(OrientedFactorization(
            tuple(f.factors[r] for r in rho)), sigma)
        assert lhs == inner * outer


def test_boundary_fibre_signs_values():
    assert boundary_fibre_signs(3, 2) == (1, -1)
    assert boundary_fibre_signs(4, 4) == (1, 1)
    assert boundary_fibre_signs(2, 2) == (1, 1)


def test_boundary_fibre_signs_shuffle_replay_exhaustive():
    for x in range(6):
        for l in range(6):
            first, second = boundary_fibre_signs(x, l)
            assert first == 1
            assert second == (-1) ** (x + l)


def test_gluing_sign_parity():
    assert gluing_sign(1) == 1
    assert gluing_sign(2) == -1
    assert gluing_sign(3) == 1


def test_squarezero_chain_examples():
    assert squarezero_chain(2, 2) == (-1, -1)
    assert squarezero_chain(3, 2) == (-1, -1)
    assert squarezero_chain(1, 4) == (-1, -1)


def test_squarezero_chain_full_sweep():
    for n in range(1, 7):
        for mu in range(2, 11, 2):
            assert squarezero_chain(n, mu) == (-1, -1)


def test_squarezero_chain_rejects_odd_index():
    with pytest.raises(ValueError):
        squarezero_chain(2, 3)
    with pytest.raises(ValueError):
        squarezero_chain(2, 0)


def test_moduli_dimension_bookkeeping():
    # two marked points after the automorphism quotient: n + mu - 1; the
    # image chain of a degree-k input then sits in degree k - mu + 1
    for n in range(1, 5):
        for mu in range(2, 9, 2):
            x = moduli_dim(n, mu)
            assert x == n + mu - 1
            for k in range(n + 1):
                p = n - k  # chain dimension of a degree-k input
                fibre_dim = x + p - n
                assert n - fibre_dim == k - mu + 1
