"""Bernstein-basis algebra on the biunit interval [-1, 1].

Basis evaluation, Gramians and their closed-form inverses, interval
transforms, degree elevation / reduction, and the blossom kernel that
spline extraction and reconstruction share, as float64 arrays. Gramians,
their inverses, elevation and reduction are exact integer ratios rounded
once; interval transforms are blossoms of the float window ends
(Ramshaw 1989).

Basis ordering is B_1 .. B_{p+1} (left endpoint function first). Arrays
are stored zero-based, so ``basis[0]`` is the function that equals 1 at
xi = -1.
"""

import warnings
from math import comb, factorial

import numpy as np

from .tensor import reversed_kron

__all__ = [
    "eval_basis",
    "bernstein_matrix",
    "bernstein_rows",
    "gramian",
    "gramian_inverse",
    "interval_transform",
    "elevation_matrix",
    "reduction_matrix",
]

# Above this degree the Gramian inverse and interval transforms start to
# amplify roundoff noticeably (cond(G) grows like 16^p).
_CONDITION_WARN_DEGREE = 5


def _check_degree(p):
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {p!r}")


def _condition_guard(p):
    if p > _CONDITION_WARN_DEGREE:
        warnings.warn(
            f"degree {p} exceeds {_CONDITION_WARN_DEGREE}; expect amplified "
            "roundoff in Gramian inverses and interval transforms",
            RuntimeWarning,
            stacklevel=3,
        )


def _bernstein_blossoms(lo, hi):
    """Coefficients of z^0..z^p in prod_i (lo_i + z hi_i), over the last axis,
    by + and *: for lo_i = b - u_i and hi_i = u_i - a, (b - a)^p times the
    blossoms at the u_i of the Bernstein polynomials on [a, b]."""
    c = np.zeros(lo.shape[:-1] + (lo.shape[-1] + 1,), dtype=lo.dtype)
    c[..., 0] = 1
    for i in range(lo.shape[-1]):
        c[..., 1:] = c[..., 1:] * lo[..., i, None] + c[..., :-1] * hi[..., i, None]
        c[..., :1] *= lo[..., i, None]
    return c


def _dual_functionals(U, a, b):
    """_bernstein_blossoms over (b - a)^p on float knots, with the factors
    scaled exactly by the power of two of b - a: no power of it over- or underflows."""
    m, e = np.frexp(b - a)
    return _bernstein_blossoms(np.ldexp(b - U, -e), np.ldexp(U - a, -e)) / m ** U.shape[-1]


def eval_basis(p, xi):
    """Evaluate all p+1 Bernstein basis functions at a point of [-1, 1].

    Returns a vector of length p+1. The entries are nonnegative and sum
    to one; entry 0 is 1 at xi=-1 and entry p is 1 at xi=+1.
    """
    _check_degree(p)
    xi = float(xi)
    if xi < -1.0 or xi > 1.0:
        raise ValueError(f"evaluation point {xi} outside [-1, 1]")
    return bernstein_matrix(p, xi)[0]


def bernstein_matrix(p, xi):
    """Design matrix of the degree-p Bernstein basis on [-1, 1].

    Returns shape (len(xi), p + 1); row k holds all basis values at
    xi[k]. Points outside the biunit interval are allowed and evaluate
    the polynomial extension. The transpose of :func:`bernstein_rows`,
    copied to C order: the matrix products it enters round by layout.
    """
    return np.ascontiguousarray(bernstein_rows(p, xi).T)


def bernstein_rows(p, xi):
    """The degree-p Bernstein basis on [-1, 1] at the m points xi, as
    (p + 1, m) rows: row i, C(p, i) lo^(p - i) hi^i with lo = (1 - xi) / 2
    and hi = (1 + xi) / 2, is one contiguous row over the points."""
    x = np.ascontiguousarray(xi, dtype=np.float64).ravel()
    lo = (1.0 - x) / 2.0
    hi = (1.0 + x) / 2.0
    out = np.empty((p + 1, x.size))
    binom = 1.0
    for i in range(p + 1):
        # (binom lo^(p-i)) hi^i, leaving out factors of exactly 1: no bit changes
        row = out[i]
        row[...] = lo ** (p - i) if i < p else hi**i
        if binom != 1.0:
            row *= binom
        if 0 < i < p:
            row *= hi**i
        binom = binom * (p - i) / (i + 1)
    return out


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
            val = _gramian_inverse_sum(p, j, k) / (2 * comb(p, j) * comb(p, k))
            Gi[j, k] = val
            Gi[k, j] = val
    return Gi


def _gramian_inverse_sum(p, j, k):
    """The integer s with gramian_inverse(p)[j, k] = s / (2 C(p,j) C(p,k))."""
    return (-1) ** (j + k) * sum(
        (2 * i - 1) * comb(p - i + 1, p - j) * comb(p - i + 1, p - k)
        * comb(p + i, p - j) * comb(p + i, p - k)
        for i in range(1, min(j, k) + 2)
    )


def gramian_inverse_multi(degrees):
    """Inverse of the tensor-product Gramian."""
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

    Row j of A is the blossom of the basis at (a^(p-j), b^j): row 0 is
    its value at a, row p its value at b, and every row sums to one.
    """
    _check_degree(p)
    _condition_guard(p)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    bad = np.flatnonzero(~(a < b))
    if bad.size:
        i = bad[0]
        raise ValueError(f"need a < b, got window [{float(a.flat[i])}, {float(b.flat[i])}]")
    at_b = np.arange(p) >= p - np.arange(p + 1)[:, None]
    U = np.where(at_b, b[..., None, None], a[..., None, None])
    return _bernstein_blossoms((1.0 - U) / 2.0, (1.0 + U) / 2.0)


def elevation_matrix(p, q):
    """Degree elevation matrix E with B^p = E B^q for q >= p.

    E is (p+1) x (q+1); coefficients map contravariantly, c_q = E.T @ c_p.
    In closed form, E[i, i + k] = C(p, i) C(q - p, k) / C(q, i + k).
    """
    _check_degree(p)
    _check_degree(q)
    if q < p:
        raise ValueError(f"target degree {q} below source degree {p}")
    E = np.zeros((p + 1, q + 1))
    for i in range(p + 1):
        for k in range(q - p + 1):
            E[i, i + k] = comb(p, i) * comb(q - p, k) / comb(q, i + k)
    return E


def reduction_matrix(p, q):
    """Degree reduction matrix D, (p+1) x (q+1) for q <= p: c_q = D.T @ c_p
    is the L2-best degree-q polynomial, and also the best l2 approximation
    of the coefficients by elevated ones (Lutterkort, Peters & Reif 1999).

    D = M G_q^{-1}, with M[i, k] = 2 C(p,i) C(q,k) / ((p+q+1) C(p+q,i+k))
    the mixed Gramian of the two bases, each entry one ratio of exact
    integers rounded once. E @ D = I for E = elevation_matrix(q, p).
    """
    _check_degree(p)
    _check_degree(q)
    if q > p:
        raise ValueError(f"target degree {q} above source degree {p}")
    _condition_guard(p)
    n = p + q
    f = [factorial(m) for m in range(n + 2)]
    s = [[_gramian_inverse_sum(q, k, j) for j in range(q + 1)] for k in range(q + 1)]
    D = np.empty((p + 1, q + 1))
    for i in range(p + 1):
        for j in range(q + 1):
            # (n+1) C(n, i+k) = (n+1)! / ((i+k)! (n-i-k)!)
            num = sum(s[k][j] * f[i + k] * f[n - i - k] for k in range(q + 1))
            D[i, j] = comb(p, i) * num / (f[n + 1] * comb(q, j))
    return D
