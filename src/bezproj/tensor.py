"""Kronecker assembly for tensor-product bases.

The convention throughout the package: the first parametric direction
cycles fastest, so the matrix of a tensor-product operator is the
reversed Kronecker product kron(A_d, ..., kron(A_2, A_1)).

A *grid* holds k values per tensor index, direction d on axis -2 - d,
so ``grid.reshape(-1, k)`` lists rows in the global ordering. Tensor
operators act on a grid one direction at a time (:func:`_apply_along`),
never as assembled Kronecker matrices.
"""

import math
from functools import reduce

import numpy as np

__all__ = ["reversed_kron"]


def reversed_kron(factors):
    """Kronecker product of the factors in reversed order.

    reversed_kron([A1, A2, A3]) == kron(A3, kron(A2, A1)), which makes
    the first factor's index cycle fastest. A single factor is returned
    as an array. Factors that are (n, r, c) stacks of matrices, n
    shared, give the stack of the n products.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    return reduce(_kron, factors[1:], np.asarray(factors[0]))


def _kron(acc, f):
    """kron(f, acc), or for stacks the product of each pair of matrices."""
    if np.ndim(f) != 3:
        return np.kron(f, acc)
    (n, r, c), (_, ra, ca) = f.shape, acc.shape
    return (f[:, :, None, :, None] * acc[:, None, :, None, :]).reshape(n, r * ra, c * ca)


def _unit_segments(lo, hi):
    """The unit segments [t, t + 1] of integer intervals [lo, hi]: the
    interval of each, and its t (so t runs over lo..hi - 1 per interval)."""
    n = hi - lo
    which = np.repeat(np.arange(n.size), n)
    return which, lo[which] + np.arange(which.size) - np.repeat(np.cumsum(n) - n, n)


def _apply_along(X, d, ops, gather=None, scatter=None, n_out=None):
    """Apply per-element operators along direction d of a grid.

    ops is (E, r, c): element e maps c input entries to r outputs.
    gather (E, c) indexes each element's input window on direction d's
    axis; without it the axis is read as E consecutive blocks of c.
    scatter (E, r) adds each element's outputs into an axis of length
    n_out; without it the outputs lay out as E consecutive blocks of r.
    """
    axis = X.ndim - 2 - d
    Xm = np.moveaxis(X, axis, 0)
    rest = Xm.shape[1:]
    E, r, c = ops.shape
    Xg = Xm[gather] if gather is not None else Xm.reshape((E, c) + rest)
    Y = np.einsum("erc,ec...->er...", ops, Xg)
    if scatter is None:
        out = Y.reshape((E * r,) + rest)
    else:
        out = _scatter_add(scatter, Y, n_out)
    return np.moveaxis(out, 0, axis)


def _scatter_add(index, values, n):
    """Sums of the entries of values into n rows by index.

    index has the leading shape of values; each output row sums its
    entries in input order, as np.add.at does, by one np.bincount.
    """
    rest = values.shape[index.ndim :]
    k = math.prod(rest)
    flat = (index.reshape(-1, 1) * k + np.arange(k)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=n * k)
    return sums.reshape((n,) + rest)
