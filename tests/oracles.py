"""Independent reference implementations used by the test suite.

Everything above the "slow references" heading is built from scipy and
brute-force Gauss quadrature so that agreement with the package is
meaningful: none of it calls into bezproj except for trivially safe
containers. The slow references below it keep the scalar, one-window-
at-a-time paths that the package replaced with batched ones; the
batched paths must agree with them.
"""

from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import BSpline
from scipy.special import binom


def bernstein_ref(p, j, xi):
    """B_j^p on the biunit interval, straight from the binomial formula."""
    xi = np.asarray(xi, dtype=np.float64)
    return binom(p, j) * (1.0 + xi) ** j * (1.0 - xi) ** (p - j) / 2.0**p


def bernstein_design_ref(p, xi):
    return np.stack([bernstein_ref(p, j, xi) for j in range(p + 1)], axis=1)


def gauss_panels(f, a, b, nq=30, breaks=()):
    """Integral of f over [a, b], split at the given interior breaks."""
    cuts = [a] + sorted(t for t in breaks if a < t < b) + [b]
    x, w = leggauss(nq)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * np.dot(w, f(mid + half * x))
    return total


def exact_bernstein_proj(f, a, b, p, nq=30, breaks=()):
    """L2-best degree-p Bernstein coefficients of f on [a, b].

    The Gramian and right-hand side are both assembled by quadrature, so
    the result is independent of any closed-form identities under test.
    f may be piecewise smooth with kinks at `breaks`.
    """

    def to_biunit(x):
        return 2.0 * (x - a) / (b - a) - 1.0

    G = np.empty((p + 1, p + 1))
    rhs = np.empty(p + 1)
    for j in range(p + 1):
        for k in range(j, p + 1):
            G[j, k] = G[k, j] = gauss_panels(
                lambda x: bernstein_ref(p, j, to_biunit(x))
                * bernstein_ref(p, k, to_biunit(x)),
                a, b, nq,
            )
        rhs[j] = gauss_panels(
            lambda x, j=j: bernstein_ref(p, j, to_biunit(x)) * np.asarray(f(x)),
            a, b, nq, breaks,
        )
    return np.linalg.solve(G, rhs)


def exact_bernstein_proj_2d(f, rect, degrees, nq=20, breaks=((), ())):
    """Tensor-product analogue of exact_bernstein_proj.

    rect = ((ax, bx), (ay, by)); f takes meshgrid-compatible arrays.
    Coefficient ordering: first direction cycles fastest.
    """
    (ax, bx), (ay, by) = rect
    p1, p2 = degrees
    cx = [ax] + sorted(t for t in breaks[0] if ax < t < bx) + [bx]
    cy = [ay] + sorted(t for t in breaks[1] if ay < t < by) + [by]
    x1, w1 = leggauss(nq)

    n = (p1 + 1) * (p2 + 1)
    G = np.zeros((n, n))
    rhs = np.zeros(n)
    for lx, hx in zip(cx[:-1], cx[1:]):
        for ly, hy in zip(cy[:-1], cy[1:]):
            mx, sx = 0.5 * (lx + hx), 0.5 * (hx - lx)
            my, sy = 0.5 * (ly + hy), 0.5 * (hy - ly)
            xs = mx + sx * x1
            ys = my + sy * x1
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            W = sx * sy * np.outer(w1, w1)
            D1 = bernstein_design_ref(p1, 2 * (xs - ax) / (bx - ax) - 1)
            D2 = bernstein_design_ref(p2, 2 * (ys - ay) / (by - ay) - 1)
            # design rows ordered with direction 1 fastest
            B = np.einsum("xi,yj->xyij", D1, D2).reshape(nq, nq, n, order="F")
            vals = np.asarray(f(X, Y))
            G += np.einsum("xyi,xyj,xy->ij", B, B, W)
            rhs += np.einsum("xyi,xy,xy->i", B, vals, W)
    return np.linalg.solve(G, rhs)


def l2_dist(f, g, a, b, nq=30, breaks=()):
    v = gauss_panels(lambda x: (np.asarray(f(x)) - np.asarray(g(x))) ** 2,
                     a, b, nq, breaks)
    return np.sqrt(max(v, 0.0))


def bspline_design(knots, p, xs):
    """Design matrix of all B-spline basis functions on an open knot
    vector, evaluated with scipy one basis function at a time."""
    knots = np.asarray(knots, dtype=np.float64)
    n = len(knots) - p - 1
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros((xs.size, n))
    hi = knots[-1]
    at_end = xs == hi
    for A in range(n):
        b = BSpline.basis_element(knots[A : A + p + 2], extrapolate=False)
        vals = b(xs)
        vals = np.where(np.isnan(vals), 0.0, vals)
        # scipy treats the last span half-open; on an open knot vector the
        # exact limit at the domain end is 1 for the last function, 0 else
        vals = np.where(at_end, 1.0 if A == n - 1 else 0.0, vals)
        out[:, A] = vals
    return out


def spline_eval_scipy(knots, p, coeffs, xs):
    return bspline_design(knots, p, xs) @ np.asarray(coeffs)


def extraction_by_collocation(knots, p):
    """Per-element extraction operators via collocation against scipy.

    Returns a list of (bounds, support, C) with C solving
    N_A(x) = sum_k C[A, k] B_k(xi(x)) on each element.
    """
    knots = np.asarray(knots, dtype=np.float64)
    uniq = np.unique(knots)
    out = []
    for a, b in zip(uniq[:-1], uniq[1:]):
        xs = a + (b - a) * np.linspace(0.05, 0.95, p + 1)
        D = bspline_design(knots, p, xs)
        support = np.nonzero(np.max(np.abs(D), axis=0) > 1e-14)[0]
        Bd = bernstein_design_ref(p, 2 * (xs - a) / (b - a) - 1)
        C = np.linalg.solve(Bd, D[:, support]).T
        out.append(((a, b), support, C))
    return out


def random_open_kv(rng, p, n_breaks=None, max_mult=None, lo=0.0, hi=1.0):
    """Random open knot vector as a plain list (not a package object)."""
    if n_breaks is None:
        n_breaks = int(rng.integers(1, 5))
    if max_mult is None:
        max_mult = p
    interior = np.sort(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo),
                                   size=n_breaks))
    while np.any(np.diff(interior) < 1e-3 * (hi - lo)):
        interior = np.sort(rng.uniform(lo + 0.05 * (hi - lo),
                                       hi - 0.05 * (hi - lo), size=n_breaks))
    knots = [lo] * (p + 1)
    for t in interior:
        knots.extend([float(t)] * int(rng.integers(1, max_mult + 1)))
    knots.extend([hi] * (p + 1))
    return knots


# ---------------------------------------------------------------------------
# slow references: scalar window transforms, span pairs and T-mesh rows


def interval_transform_ref(p, a, b):
    """Window transform of the degree-p Bernstein basis, one window, as a
    scalar triple loop: A[j, k] = sum_i B^j_i(b) B^{p-j}_{k-i}(a)."""

    def basis(q, i, x):
        return comb(q, i) * ((1.0 - x) / 2.0) ** (q - i) * ((1.0 + x) / 2.0) ** i

    a, b = float(a), float(b)
    A = np.zeros((p + 1, p + 1))
    for j in range(p + 1):
        for k in range(p + 1):
            s = 0.0
            for i in range(max(0, j + k - p), min(j, k) + 1):
                s += basis(j, i, b) * basis(p - j, k - i, a)
            A[j, k] = s
    return A


def dim_factor_ref(src_iv, tgt_iv, p_src, p_tgt, tol=1e-12):
    """One span pair's matrix F and share phi, or None without overlap
    (the per-pair kernel described in bezproj.spline_ops)."""
    from bezproj.bernstein import elevation_matrix, gramian, gramian_inverse, reduction_matrix

    def to_local(iv, lo, hi):
        a, b = iv
        return (2.0 * lo - a - b) / (b - a), (2.0 * hi - a - b) / (b - a)

    lo = max(src_iv[0], tgt_iv[0])
    hi = min(src_iv[1], tgt_iv[1])
    scale = max(tgt_iv[1] - tgt_iv[0], src_iv[1] - src_iv[0])
    if hi - lo <= tol * scale:
        return None
    if p_tgt > p_src:
        D = elevation_matrix(p_src, p_tgt).T
    elif p_tgt < p_src:
        D = reduction_matrix(p_src, p_tgt).T
    else:
        D = None
    q = p_tgt
    if abs(lo - src_iv[0]) <= tol * scale and abs(hi - src_iv[1]) <= tol * scale:
        T = None
    else:
        T = interval_transform_ref(q, *to_local(src_iv, lo, hi))
    phi = (hi - lo) / (tgt_iv[1] - tgt_iv[0])
    if abs(lo - tgt_iv[0]) <= tol * scale and abs(hi - tgt_iv[1]) <= tol * scale:
        F = np.eye(q + 1)
    else:
        A = interval_transform_ref(q, *to_local(tgt_iv, lo, hi))
        F = gramian_inverse(q) @ A.T @ gramian(q)
    if T is not None:
        F = F @ T
    if D is not None:
        F = F @ D
    return phi * F, phi


def dim_pairing_ref(kv_src, kv_tgt):
    """(targets, sources, matrices) of one direction: every source span
    against every target span, sorted by target then source."""
    targets, sources, mats = [], [], []
    for k in range(kv_tgt.n_elements):
        for j in range(kv_src.n_elements):
            got = dim_factor_ref(
                kv_src.element_bounds(j), kv_tgt.element_bounds(k), kv_src.degree, kv_tgt.degree
            )
            if got is not None:
                targets.append(k)
                sources.append(j)
                mats.append(got[0])
    return np.array(targets), np.array(sources), np.array(mats)


def local_function_bernstein_row_ref(g, p, a, b):
    """Bernstein coefficients on [a, b] of the local-knot-vector function.

    g has p+2 entries. The function is embedded in a padded open knot
    vector (it is that vector's basis function of index pad_lo), its row
    of the extraction operator on the span containing [a, b] is taken,
    and the row is restricted from the span to [a, b].
    """
    from bezproj.spline_space import KnotVector

    g = np.asarray(g, dtype=np.float64)
    span = g[-1] - g[0]
    if span <= 0:
        raise ValueError("local knot vector has empty support")
    m_lo = int(np.sum(np.abs(g - g[0]) <= 1e-12 * span))
    m_hi = int(np.sum(np.abs(g - g[-1]) <= 1e-12 * span))
    pad_lo = max(p + 1 - m_lo, 0)
    pad_hi = max(p + 1 - m_hi, 0)
    kv = KnotVector(np.concatenate([[g[0]] * pad_lo, g, [g[-1]] * pad_hi]), p)
    e = kv.element_index(0.5 * (a + b))
    ea, eb = kv.element_bounds(e)
    tol = 1e-10 * (kv.domain[1] - kv.domain[0])
    if a < ea - tol or b > eb + tol:
        raise ValueError("the requested interval is not a polynomial piece of the local function")
    row = kv.extraction()[e][pad_lo - kv.element_support(e)[0]]
    wa = (2 * a - ea - eb) / (eb - ea)
    wb = (2 * b - ea - eb) / (eb - ea)
    return interval_transform_ref(p, wa, wb) @ row


def tmesh_extraction_ref(mesh, e):
    """(C, R) of T-mesh element e, one anchor and direction at a time."""
    el = mesh.bezier_elements()[e]
    p1, p2 = mesh.degrees
    (a1, b1), (a2, b2) = el.bounds
    anchors = mesh.anchors()
    rows = []
    for k in el.anchors:
        g1, g2 = mesh.local_knot_vectors(anchors[k])
        r1 = local_function_bernstein_row_ref(g1, p1, a1, b1)
        r2 = local_function_bernstein_row_ref(g2, p2, a2, b2)
        rows.append(np.kron(r2, r1))
    C = np.vstack(rows)
    return C, np.linalg.inv(C)
