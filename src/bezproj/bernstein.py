"""Bernstein-basis algebra on the biunit interval [-1, 1].

Everything in this module is small dense linear algebra built from exact
integer binomial coefficients: basis evaluation, Gramians and their
closed-form inverses, interval transformation matrices, and degree
elevation / reduction matrices. Matrices are returned as float64 arrays;
each entry is computed as a ratio of exact integers and converted to
float once, so entries are correctly rounded for any practical degree.

Basis ordering is B_1 .. B_{p+1} (left endpoint function first). Arrays
are stored zero-based, so ``basis[0]`` is the function that equals 1 at
xi = -1.
"""

import warnings
from math import comb

import numpy as np

from .tensor import reversed_kron

__all__ = [
    "eval_basis",
    "eval_basis_multi",
    "bernstein_matrix",
    "bernstein_integral",
    "gramian",
    "gramian_inverse",
    "gramian_multi",
    "gramian_inverse_multi",
    "interval_transform",
    "elevation_matrix",
    "reduction_matrix",
]

# Above this degree the Gramian inverse and interval transforms start to
# amplify roundoff noticeably (cond(G) grows like 16^p).
_CONDITION_WARN_DEGREE = 5


def _check_degree(p):
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {p!r}")


def _condition_guard(p):
    if p > _CONDITION_WARN_DEGREE:
        warnings.warn(
            f"degree {p} exceeds {_CONDITION_WARN_DEGREE}; expect amplified "
            "roundoff in Gramian inverses and interval transforms",
            RuntimeWarning,
            stacklevel=3,
        )


def _basis_value(p, i, xi):
    """B_{i+1}^p at xi, zero-based i, no domain clamping.

    Evaluation outside [-1, 1] is deliberate: interval transforms need the
    polynomial extension of the basis.
    """
    lo = (1.0 - xi) / 2.0
    hi = (1.0 + xi) / 2.0
    return comb(p, i) * lo ** (p - i) * hi**i


def eval_basis(p, xi):
    """Evaluate all p+1 Bernstein basis functions at a point of [-1, 1].

    Returns a vector of length p+1. The entries are nonnegative and sum
    to one; entry 0 is 1 at xi=-1 and entry p is 1 at xi=+1.
    """
    _check_degree(p)
    xi = float(xi)
    if xi < -1.0 or xi > 1.0:
        raise ValueError(f"evaluation point {xi} outside [-1, 1]")
    return np.array([_basis_value(p, i, xi) for i in range(p + 1)])


def bernstein_matrix(p, xi):
    """Design matrix of the degree-p Bernstein basis on [-1, 1].

    Returns shape (len(xi), p + 1); row k holds all basis values at
    xi[k]. Points outside the biunit interval are allowed and evaluate
    the polynomial extension.
    """
    x = np.ascontiguousarray(xi, dtype=np.float64).ravel()
    lo = (1.0 - x) / 2.0
    hi = (1.0 + x) / 2.0
    out = np.empty((x.size, p + 1))
    binom = 1.0
    for i in range(p + 1):
        out[:, i] = binom * lo ** (p - i) * hi**i
        binom = binom * (p - i) / (i + 1)
    return out


def eval_basis_multi(degrees, xi):
    """Tensor-product Bernstein basis values at a point of [-1, 1]^d.

    Ordering follows the multi-index convention of :mod:`bezproj.tensor`:
    the first parametric direction cycles fastest.
    """
    degrees = tuple(int(p) for p in degrees)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (len(degrees),):
        raise ValueError("point dimension does not match number of degrees")
    return reversed_kron([eval_basis(p, x) for p, x in zip(degrees, xi)])


def bernstein_integral(p, a=-1.0, b=1.0):
    """Integral of any one Bernstein basis function of degree p over [a, b].

    All p+1 functions share the same integral, (b - a) / (p + 1).
    """
    _check_degree(p)
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    return (b - a) / (p + 1)


def gramian(p):
    """Gramian of the degree-p basis on [-1, 1].

    G[j, k] = (2 / (2p+1)) * C(p,j) C(p,k) / C(2p, j+k), symmetric
    positive definite, rows summing to 2/(p+1).
    """
    _check_degree(p)
    G = np.empty((p + 1, p + 1))
    for j in range(p + 1):
        for k in range(j, p + 1):
            val = 2.0 * comb(p, j) * comb(p, k) / ((2 * p + 1) * comb(2 * p, j + k))
            G[j, k] = val
            G[k, j] = val
    return G


def gramian_inverse(p):
    """Closed-form inverse of :func:`gramian`.

    Built from exact integer binomial sums, so no linear solve is
    involved; accuracy degrades only through the final float conversion.
    """
    _check_degree(p)
    _condition_guard(p)
    Gi = np.empty((p + 1, p + 1))
    for j in range(p + 1):
        for k in range(j, p + 1):
            s = 0
            for i in range(1, min(j, k) + 2):
                s += (
                    (2 * i - 1)
                    * comb(p - i + 1, p - j)
                    * comb(p - i + 1, p - k)
                    * comb(p + i, p - j)
                    * comb(p + i, p - k)
                )
            val = (-1) ** (j + k) * s / (2 * comb(p, j) * comb(p, k))
            Gi[j, k] = val
            Gi[k, j] = val
    return Gi


def gramian_multi(degrees):
    """Tensor-product Gramian, reversed Kronecker product of the factors."""
    return reversed_kron([gramian(p) for p in degrees])


def gramian_inverse_multi(degrees):
    """Closed-form inverse of the tensor-product Gramian."""
    return reversed_kron([gramian_inverse(p) for p in degrees])


def interval_transform(p, a, b):
    """Change-of-interval matrices A for the degree-p Bernstein basis.

    Let c be the coefficients of a polynomial on [-1, 1]. Then ``A @ c``
    gives the coefficients of the same polynomial expressed in the local
    basis of the window [a, b], i.e. in the coordinate that maps [a, b]
    to [-1, 1]. The window may extend outside the biunit interval, in
    which case the transform extrapolates the polynomial.

    a and b may be arrays of window ends (broadcast together): the result
    then stacks one matrix per window, shape ``a.shape + (p+1, p+1)``,
    computed in one array pass. Scalar a and b give one matrix.

    Row 0 of A evaluates the basis at a, row p evaluates it at b, and
    every row sums to one: A[j, k] = sum_i B^j_i(b) B^{p-j}_{k-i}(a).
    """
    _check_degree(p)
    _condition_guard(p)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    bad = np.flatnonzero(~(a < b))
    if bad.size:
        i = bad[0]
        raise ValueError(f"need a < b, got window [{float(a.flat[i])}, {float(b.flat[i])}]")
    e = np.arange(p + 1)

    def terms(x, deg):
        """terms(x, deg)[n, j, i] = B^{deg[j]}_i(x[n]), zero for i > deg[j]."""
        lo = ((1.0 - x.ravel()) / 2.0)[:, None] ** e
        hi = ((1.0 + x.ravel()) / 2.0)[:, None] ** e
        binom = np.array([[comb(int(d), k) for k in range(p + 1)] for d in deg], dtype=np.float64)
        return binom * lo[:, np.clip(deg[:, None] - e, 0, p)] * hi[:, None, :]

    X = terms(b, e)  # B^j_i(b)
    Y = terms(a, p - e)  # B^{p-j}_m(a)
    A = np.zeros(X.shape)
    for s in range(p + 1):
        A[:, :, s:] += X[:, :, s, None] * Y[:, :, : p + 1 - s]
    return A.reshape(a.shape + (p + 1, p + 1))


def elevation_matrix(p, q):
    """Degree elevation matrix E with B^p = E B^q for q >= p.

    E is (p+1) x (q+1); coefficients map contravariantly, c_q = E.T @ c_p.
    Built by chaining one-step elevations, each bidiagonal with
    E[i, i] = (p + 1 - i) / (p + 1) and E[i, i + 1] = (i + 1) / (p + 1).
    """
    _check_degree(p)
    _check_degree(q)
    if q < p:
        raise ValueError(f"target degree {q} below source degree {p}")
    E = np.eye(p + 1)
    for r in range(p, q):
        step = np.zeros((r + 1, r + 2))
        for i in range(r + 1):
            step[i, i] = (r + 1 - i) / (r + 1)
            step[i, i + 1] = (i + 1) / (r + 1)
        E = E @ step
    return E


def reduction_matrix(p, q):
    """Degree reduction matrix D, the pseudoinverse counterpart of elevation.

    D is (p+1) x (q+1) for q <= p and satisfies E @ D = I where
    E = elevation_matrix(q, p): reducing an exactly-degree-q polynomial
    recovers it. For genuinely degree-p input, c_q = D.T @ c_p is the
    best l2 coefficient approximation, which coincides with the L2-best
    polynomial up to the equivalence of the two norms on a fixed degree.
    """
    _check_degree(p)
    _check_degree(q)
    if q > p:
        raise ValueError(f"target degree {q} above source degree {p}")
    _condition_guard(p)
    D = np.eye(p + 1)
    for r in range(p, q, -1):
        E = elevation_matrix(r - 1, r)
        # one-step reduction: E.T (E E.T)^-1, shape (r+1, r)
        step = E.T @ np.linalg.inv(E @ E.T)
        D = D @ step
    return D
