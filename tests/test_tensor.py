import numpy as np
import pytest

from bezproj import tensor


def test_reversed_kron_puts_first_factor_fastest(rng):
    A = rng.normal(size=(2, 3))
    B = rng.normal(size=(4, 2))
    assert np.allclose(tensor.reversed_kron([A, B]), np.kron(B, A))
    C = rng.normal(size=(3, 3))
    assert np.allclose(
        tensor.reversed_kron([A, B, C]), np.kron(C, np.kron(B, A))
    )
    # stacks of matrices multiply pairwise, entry by entry as np.kron does
    As, Bs, Cs = rng.normal(size=(5, 2, 3)), rng.normal(size=(5, 4, 2)), rng.normal(size=(5, 3, 3))
    got = tensor.reversed_kron([As, Bs, Cs])
    assert got.shape == (5, 24, 18)
    for e in range(5):
        assert np.array_equal(got[e], tensor.reversed_kron([As[e], Bs[e], Cs[e]]))


def test_reversed_kron_action_consistency(rng):
    # applying the reversed kron to a raveled grid of coefficients equals
    # applying the factors dimension by dimension
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(2, 5))
    X = rng.normal(size=(4, 5))  # coefficients indexed (dir1, dir2)
    got = tensor.reversed_kron([A, B]) @ X.ravel(order="F")
    expect = (A @ X @ B.T).ravel(order="F")
    assert np.allclose(got, expect)


def _assembled(ops, gather, scatter, n_in, n_out):
    """Dense matrix of one direction's gather, per-element map, scatter-add."""
    L = np.zeros((n_out, n_in))
    for M, g, s in zip(ops, gather, scatter):
        L[np.ix_(s, g)] += M
    return L


def test_apply_along_matches_assembled_kronecker(rng):
    # direction 0: overlapping windows of 3 out of 6, scattered into 5;
    # direction 1: consecutive blocks of 2 in, consecutive blocks of 3 out
    ops0 = rng.normal(size=(4, 2, 3))
    gather0 = np.arange(4)[:, None] + np.arange(3)
    scatter0 = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
    ops1 = rng.normal(size=(2, 3, 2))
    X = rng.normal(size=(4, 6, 2))  # (direction 1, direction 0, components)
    Y = tensor._apply_along(X, 0, ops0, gather=gather0, scatter=scatter0, n_out=5)
    Y = tensor._apply_along(Y, 1, ops1)
    assert Y.shape == (6, 5, 2)
    L0 = _assembled(ops0, gather0, scatter0, 6, 5)
    L1 = _assembled(ops1, np.arange(4).reshape(2, 2), np.arange(6).reshape(2, 3), 4, 6)
    expect = tensor.reversed_kron([L0, L1]) @ X.reshape(-1, 2)
    assert np.allclose(Y.reshape(-1, 2), expect, atol=1e-13)
