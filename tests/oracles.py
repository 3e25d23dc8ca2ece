"""Independent reference implementations used by the test suite.

Everything above the "slow references" heading is built from scipy and
brute-force Gauss quadrature so that agreement with the package is
meaningful: none of it calls into bezproj except for trivially safe
containers. The slow references below it keep the scalar, one-window-
at-a-time paths that the package replaced with batched ones; the
batched paths must agree with them.
"""

import json
from fractions import Fraction
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


def l2_change_ref(space_in, net_in, space_out, net_out, nq=20):
    """L2 distance between two spline fields on one domain: an nq-point
    Gauss rule per direction on every span of the union of their
    breakpoints, each field evaluated through scipy's basis functions
    (rational if weighted), the first direction cycling fastest."""
    x, w = leggauss(nq)
    cuts = [np.union1d(a.knots, b.knots) for a, b in zip(space_in.knot_vectors,
                                                          space_out.knot_vectors)]
    pts = [((c[1:] + c[:-1]) / 2)[:, None] + ((c[1:] - c[:-1]) / 2)[:, None] * x for c in cuts]
    wts = [((c[1:] - c[:-1]) / 2)[:, None] * w for c in cuts]

    def field(space, net):
        design = np.ones((1, 1))
        for kv, xs in zip(space.knot_vectors, pts):
            design = np.kron(bspline_design(kv.knots, kv.degree, xs.ravel()), design)
        if net.weights is None:
            return design @ net.points
        H = design @ np.c_[net.points * net.weights[:, None], net.weights]
        return H[:, :-1] / H[:, -1:]

    weight = np.ones(1)
    for wd in wts:
        weight = np.kron(wd.ravel(), weight)
    diff = field(space_in, net_in) - field(space_out, net_out)
    return np.sqrt(np.sum(weight * np.sum(diff**2, axis=1)))


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
# slow reference: Bezier extraction by knot insertion


def bezier_extraction_ref(U, p):
    """Per-element Bezier extraction operators of an open knot vector.

    Borden, Scott, Evans & Hughes (2011), "Isogeometric finite element
    data structures based on Bezier extraction of NURBS", Algorithm 1:
    one sweep over the breakpoints raises each interior knot to
    multiplicity p, updating only the (p+1) x (p+1) operator of the
    current element; the trailing columns of that operator seed the
    next one. U is a sequence of floats or Fractions; returns one nested
    list per nonzero span, rows by ascending function index, columns by
    ascending Bernstein index.
    """
    U = list(U)
    zero = U[0] - U[0]
    one = zero + 1

    def identity():
        return [[one if i == j else zero for j in range(p + 1)] for i in range(p + 1)]

    m = len(U)
    out = []
    C = identity()
    a, b = p, p + 1
    while b < m - 1:
        nxt = identity()
        i = b
        while b < m - 1 and U[b + 1] == U[b]:
            b += 1
        mult = b - i + 1
        if mult < p:
            numer = U[b] - U[a]
            alphas = [numer / (U[a + j] - U[a]) for j in range(mult + 1, p + 1)]
            r = p - mult
            for j in range(1, r + 1):
                s = mult + j
                for k in range(p, s - 1, -1):
                    alpha = alphas[k - s]
                    for row in C:
                        row[k] = alpha * row[k] + (1 - alpha) * row[k - 1]
                save = r - j
                for t in range(j + 1):
                    nxt[save + t][save] = C[p - j + t][p]
        out.append(C)
        C = nxt
        a, b = b, b + 1
    return out


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


def positions_ref(values, span):
    """Position of each value in the sorted list of values, and the value
    of each position: a run of values, each within 1e-12 * span of the
    run's first, is one position, held at that first value (the snapping
    rule of KnotVector)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    out, anchors = [0] * len(values), []
    for i in order:
        if not anchors or values[i] - anchors[-1] > 1e-12 * span:
            anchors.append(values[i])
        out[i] = len(anchors) - 1
    return out, anchors


def dim_factor_ref(src_iv, tgt_iv, p_src, p_tgt):
    """One span pair's matrix F and share phi, or None without overlap
    (the per-pair kernel described in bezproj.spline_ops). The bounds
    are the values of their positions, so a bound of both spans is one
    float."""
    from bezproj.bernstein import elevation_matrix, gramian, gramian_inverse, reduction_matrix

    def to_local(iv, lo, hi):
        """[lo, hi] in the biunit coordinates of iv; its ends map to -1 and +1 exactly."""
        a, b = iv
        return 2.0 * (lo - a) / (b - a) - 1.0, 2.0 * (hi - a) / (b - a) - 1.0

    lo = max(src_iv[0], tgt_iv[0])
    hi = min(src_iv[1], tgt_iv[1])
    if hi <= lo:
        return None
    if p_tgt > p_src:
        D = elevation_matrix(p_src, p_tgt).T
    elif p_tgt < p_src:
        D = reduction_matrix(p_src, p_tgt).T
    else:
        D = None
    q = p_tgt
    if (lo, hi) == tuple(src_iv):
        T = None
    else:
        T = interval_transform_ref(q, *to_local(src_iv, lo, hi))
    if (lo, hi) == tuple(tgt_iv):
        F, phi = np.eye(q + 1), 1.0
    else:
        A = interval_transform_ref(q, *to_local(tgt_iv, lo, hi))
        F = gramian_inverse(q) @ A.T @ gramian(q)
        phi = (hi - lo) / (tgt_iv[1] - tgt_iv[0])
    if T is not None:
        F = F @ T
    if D is not None:
        F = F @ D
    return phi * F, phi


def dim_pairing_ref(kv_src, kv_tgt):
    """(targets, sources, matrices) of one direction: every source span
    against every target span, their bounds held at the values of their
    positions (positions_ref, on the extent of both), sorted by target
    then source."""
    bs, bt = list(kv_src.breakpoints), list(kv_tgt.breakpoints)
    pos, anchors = positions_ref(bs + bt, max(bs + bt) - min(bs + bt))
    vs = [anchors[i] for i in pos[: len(bs)]]
    vt = [anchors[i] for i in pos[len(bs):]]
    targets, sources, mats = [], [], []
    for k in range(kv_tgt.n_elements):
        for j in range(kv_src.n_elements):
            got = dim_factor_ref(
                tuple(vs[j : j + 2]), tuple(vt[k : k + 2]), kv_src.degree, kv_tgt.degree
            )
            if got is not None:
                targets.append(k)
                sources.append(j)
                mats.append(got[0])
    return np.array(targets), np.array(sources), np.array(mats)


def contains_ref(kv_src, kv_tgt):
    """Whether the target space contains the source's: the degree does
    not drop, and each source breakpoint lies within 1e-12 of the extent
    of both of a target breakpoint of no higher continuity."""
    p, q = kv_src.degree, kv_tgt.degree
    if q < p:
        return False
    span = max(kv_src.domain[1], kv_tgt.domain[1]) - min(kv_src.domain[0], kv_tgt.domain[0])
    for b, m in zip(kv_src.breakpoints, kv_src.multiplicities):
        near = [k for k, c in enumerate(kv_tgt.breakpoints) if abs(c - b) <= 1e-12 * span]
        if not near or q - kv_tgt.multiplicities[near[0]] > p - m:
            return False
    return True


def local_function_bernstein_row_ref(g, p, a, b):
    """Bernstein coefficients on [a, b] of the local-knot-vector function.

    g has p+2 entries. The function is embedded in a padded open knot
    vector (it is that vector's basis function of index pad_lo), its row
    of the extraction operator on the span containing [a, b] is taken
    (Algorithm 1, above), and the row is restricted from the span to
    [a, b].
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
    e = int(np.searchsorted(kv.breakpoints, 0.5 * (a + b), side="right")) - 1
    e = min(e, kv.n_elements - 1)
    ea, eb = kv.breakpoints[e : e + 2]
    tol = 1e-10 * (kv.domain[1] - kv.domain[0])
    if a < ea - tol or b > eb + tol:
        raise ValueError("the requested interval is not a polynomial piece of the local function")
    row = bezier_extraction_ref(kv.knots.tolist(), p)[e][pad_lo - kv.supports()[e][0]]
    wa = (2 * a - ea - eb) / (eb - ea)
    wb = (2 * b - ea - eb) / (eb - ea)
    return interval_transform_ref(p, wa, wb) @ row


def tmesh_extraction_ref(mesh, e):
    """(C, R) of T-mesh element e, one anchor and direction at a time."""
    p1, p2 = mesh.degrees
    (a1, b1), (a2, b2) = mesh.bounds([e])[0]
    rows = []
    for k in mesh.supports([e])[0]:
        g1, g2 = mesh.local_knot_vectors(k)
        r1 = local_function_bernstein_row_ref(g1, p1, a1, b1)
        r2 = local_function_bernstein_row_ref(g2, p2, a2, b2)
        rows.append(np.kron(r2, r1))
    C = np.vstack(rows)
    return C, np.linalg.inv(C)


# ---------------------------------------------------------------------------
# slow references: the exact CLI extract on Fraction objects, and the
# T-mesh local knot indices and extensions one anchor or junction at a
# time, on Python sets of the mesh's vertices and unit edge segments


def fraction_inverse_ref(A):
    """Inverse of a square matrix of Fractions by Gauss-Jordan elimination,
    as nested lists; ValueError if singular."""
    n = len(A)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("extraction operator is singular")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _format_matrix_ref(rows):
    cells = [[str(x) for x in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  [" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)


def extract_exact_ref(path, element):
    """The stdout of `bezproj extract` on an exact spline file, computed
    with one Fraction object per entry: every knot parsed as a Fraction,
    the element's window cut from the Fraction knot vector, C the
    Kronecker product of the Fraction factors and R that of their
    Gauss-Jordan inverses."""
    from bezproj.spline_space import (
        _bezier_extraction,
        _open_knots,
        _span_windows,
        read_spline_json,
    )
    from bezproj.tensor import reversed_kron

    with open(path) as fh:
        raw = json.load(fh)
    space, _ = read_spline_json(raw)
    factors = []
    for G, kv, k in zip(raw["knot_vectors"], space.knot_vectors, space.unravel_element(element)):
        U = np.array([Fraction(u) for u in G], dtype=object)
        p = kv.degree
        W = _span_windows(U, _open_knots(U, p, 0)[1], p)[k : k + 1]
        factors.append(_bezier_extraction(W, W[:, p], W[:, p + 1])[0])
    C = reversed_kron(factors)
    R = reversed_kron([np.array(fraction_inverse_ref(F), dtype=object) for F in factors])
    lines = []
    if len(factors) > 1:
        for d, F in enumerate(factors):
            lines += [f"C factor, direction {d}:", _format_matrix_ref(F.tolist())]
    lines += ["C:", _format_matrix_ref(C.tolist()), "R:", _format_matrix_ref(R.tolist())]
    return "\n".join(lines) + "\n"


def _skeleton_ref(mesh):
    """The vertex set of a T-mesh and, per direction d, the set of unit
    segments (c, t), each [t, t + 1] at index c, of its edges of direction
    d (0: vertical, 1: horizontal), read from the mesh's JSON lists."""
    from bezproj.tmesh import tmesh_to_dict

    data = tmesh_to_dict(mesh)
    units = (set(), set())
    for x1, y1, x2, y2 in data["edges"]:
        d = 0 if x1 == x2 else 1
        c, a, b = (x1, y1, y2) if d == 0 else (y1, x1, x2)
        units[d].update((c, t) for t in range(min(a, b), max(a, b)))
    return set(map(tuple, data["vertices"])), units


def _covering_ref(mesh, d, lo, hi, skeleton=None):
    """Indices c, ascending, at which entities of direction d span the
    closed band [lo, hi] of the other direction; a point band is also
    spanned by a vertex or by an edge ending on it."""
    vertices, units = skeleton or _skeleton_ref(mesh)
    out = []
    for c in range(1, mesh.N[d] + 1):
        if lo < hi:
            hit = all((c, t) in units[d] for t in range(lo, hi))
        else:
            vertex = (c, lo) if d == 0 else (lo, c)
            hit = (c, lo - 1) in units[d] or (c, lo) in units[d] or vertex in vertices
        if hit:
            out.append(c)
    return out


def local_knot_indices_ref(mesh, spans, skeleton=None):
    """Index vectors (i1, i2) of the local knot vectors of the anchor with
    index spans ((x1, x2), (y1, y2)), one direction at a time: list the
    indices whose perpendicular entities cross the anchor's band, then
    keep the nearest ceil((p+1)/2) on each side of its centre (and the
    centre itself for odd p)."""
    skeleton = skeleton or _skeleton_ref(mesh)
    out = []
    for d, p in enumerate(mesh.degrees):
        span, band = spans[d], spans[1 - d]
        center = 0.5 * (span[0] + span[1])
        need = (p + 1 + 1) // 2
        covering = _covering_ref(mesh, d, *band, skeleton=skeleton)
        left = [i for i in covering if i < center][-need:]
        right = [i for i in covering if i > center][:need]
        if len(left) < need or len(right) < need:
            raise ValueError(f"anchor {spans} finds too few crossed entities in direction {d}")
        out.append(left + ([int(center)] if p % 2 else []) + right)
    return tuple(out)


def _walk_ref(mesh, start, d, step, count, skeleton):
    """Walk from start along direction d counting crossed entities: the
    direction-d coordinate of the count-th crossed entity of direction d
    (vertex or crossing edge); stops at the domain boundary, which is
    always an entity."""
    c, t = start[d], start[1 - d]
    covering = _covering_ref(mesh, d, t, t, skeleton=skeleton)
    ahead = [k for k in covering if (k - c) * step > 0][::step]
    return ahead[:count][-1] if ahead and count else c


def extensions_ref(mesh):
    """[(junction, d, face, edge)] of every T-junction, one junction at a
    time, by junction (x, y).

    A T-junction is an interior vertex with edges leaving it on exactly
    three sides. Its extensions run along the direction d of the missing
    side: the face towards it, across ceil((p_d+1)/2) crossed entities,
    and the edge away from it, across ceil((p_d-1)/2). Each is a pair of
    (x, y) points, ascending along d.
    """
    skeleton = vertices, units = _skeleton_ref(mesh)
    out = []
    for x, y in sorted(vertices):
        if not (2 <= x <= mesh.N[0] - 1 and 2 <= y <= mesh.N[1] - 1):
            continue
        # sides[d][k]: an edge leaves along direction d, forwards (k = 0) or backwards
        sides = (
            ((y, x) in units[1], (y, x - 1) in units[1]),
            ((x, y) in units[0], (x, y - 1) in units[0]),
        )
        missing = [(d, k) for d in (0, 1) for k in (0, 1) if not sides[d][k]]
        if len(missing) != 1:
            continue
        ((d, k),) = missing
        v, step, p = (x, y), 1 - 2 * k, mesh.degrees[d]
        ends = (
            _walk_ref(mesh, v, d, step, (p + 1) // 2, skeleton),
            _walk_ref(mesh, v, d, -step, p // 2, skeleton),
        )
        face, edge = (
            tuple((c, v[1]) if d == 0 else (v[0], c) for c in sorted((v[d], e))) for e in ends
        )
        out.append((v, d, face, edge))
    return out


def analysis_violations_ref(mesh):
    """[(i, j)] positions into extensions_ref(mesh) of every vertical
    extension i and horizontal extension j whose full extents (face and
    edge together) touch, by i and then j."""
    exts = extensions_ref(mesh)

    def full(ext):
        _, _, face, edge = ext
        pts = face + edge
        return [min(q[a] for q in pts) for a in (0, 1)], [max(q[a] for q in pts) for a in (0, 1)]

    bad = []
    for i, ev in enumerate(exts):
        if ev[1] != 1:
            continue
        (vx, vy1), (_, vy2) = full(ev)
        for j, eh in enumerate(exts):
            if eh[1] != 0:
                continue
            (hx1, hy), (hx2, _) = full(eh)
            if hx1 <= vx <= hx2 and vy1 <= hy <= vy2:
                bad.append((i, j))
    return bad


# ---------------------------------------------------------------------------
# slow references: knot-vector edits, one knot at a time
#
# The edit methods KnotVector had before every plan builder edited
# (breakpoints, multiplicities, degree) arrays. They insert and remove
# knot values through sorted merges and list scans; the plan builders'
# target knot vectors must equal theirs.


def _kv(knots, degree):
    from bezproj.spline_space import KnotVector

    return KnotVector(knots, degree)


def _snap_tol(kv):
    return 1e-12 * (kv.knots[-1] - kv.knots[0])


def with_inserted_ref(kv, values):
    """kv with the given values inserted, in one sorted merge."""
    values = np.asarray(values, dtype=np.float64).ravel()
    a, b = kv.domain
    for t in values:
        if not a < t < b:
            raise ValueError(f"insertion point {t} not strictly inside ({a}, {b})")
    return _kv(np.sort(np.concatenate([kv.knots, values])), kv.degree)


def with_removed_ref(kv, values):
    """kv with one copy of each listed value removed."""
    U = kv.knots.tolist()
    tol = _snap_tol(kv)
    for t in values:
        matches = [i for i, u in enumerate(U) if abs(u - t) <= tol]
        interior = [i for i in matches if kv.degree < i < len(U) - kv.degree - 1]
        if not interior:
            raise ValueError(f"no removable interior knot at {t}")
        del U[interior[0]]
    return _kv(U, kv.degree)


def elevated_ref(kv, inc=1):
    """Degree + inc, every multiplicity + inc."""
    return _kv(np.repeat(kv.breakpoints, kv.multiplicities + inc), kv.degree + inc)


def reduced_ref(kv, dec=1):
    """Degree - dec, every multiplicity - dec; breakpoints left with no
    copies disappear."""
    if kv.degree - dec < 1:
        raise ValueError(f"cannot reduce degree {kv.degree} by {dec}")
    mult = kv.multiplicities - dec
    keep = mult > 0
    return _kv(np.repeat(kv.breakpoints[keep], mult[keep]), kv.degree - dec)


def roughened_ref(kv, values, inc=1):
    """Insert inc more copies of each listed interior breakpoint. A value
    matches a breakpoint within 1e-12 of the domain span."""
    for t in values:
        if not np.any(np.abs(kv.breakpoints[1:-1] - t) <= _snap_tol(kv)):
            raise ValueError(f"{t} is not an interior breakpoint")
    return with_inserted_ref(kv, np.repeat(values, inc))


def smoothed_ref(kv, values, dec=1):
    """Remove dec copies of each listed interior breakpoint."""
    return with_removed_ref(kv, np.repeat(values, dec))


def reparameterized_ref(kv, new_interior):
    """Move the interior breakpoints, keeping their multiplicities."""
    new_interior = np.asarray(new_interior, dtype=np.float64)
    old_interior = kv.breakpoints[1:-1]
    if new_interior.size != old_interior.size:
        raise ValueError(
            f"expected {old_interior.size} interior breakpoints, got {new_interior.size}"
        )
    a, b = kv.domain
    if new_interior.size and not (
        np.all(np.diff(new_interior) > 0) and new_interior[0] > a and new_interior[-1] < b
    ):
        raise ValueError("new interior breakpoints must be strictly increasing inside the domain")
    bp = kv.breakpoints.copy()
    bp[1:-1] = new_interior
    return _kv(np.repeat(bp, kv.multiplicities), kv.degree)


# ---------------------------------------------------------------------------
# slow reference: evaluation through per-point index tensors


def evaluate_ref(space, net, points):
    """Spline values at parametric points (rational if weighted), as
    evaluate computed them before it summed one gather per local
    function: the (m, (p+1)^d) global indices and tensor-product values
    of every point's local functions, one (m, (p+1)^d, D) gather of the
    control net, and one contraction."""
    from bezproj.bernstein import bernstein_matrix

    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    H = net.homogeneous()
    m = pts.shape[0]
    rows = np.zeros((m, 1), dtype=np.int64)
    vals = np.ones((m, 1))
    stride = 1
    for d, kv in enumerate(space.knot_vectors):
        x = pts[:, d]
        s = np.searchsorted(kv.breakpoints, x, side="right") - 1
        np.clip(s, 0, kv.n_elements - 1, out=s)
        lo, hi = kv.breakpoints[s], kv.breakpoints[s + 1]
        xi = (2.0 * x - lo - hi) / (hi - lo)
        N = np.einsum("mab,mb->ma", kv.extraction()[s], bernstein_matrix(kv.degree, xi))
        rows = (stride * kv.supports()[s][:, :, None] + rows[:, None, :]).reshape(m, -1)
        vals = (N[:, :, None] * vals[:, None, :]).reshape(m, -1)
        stride *= kv.n
    out = np.einsum("mi,mik->mk", vals, np.take(H, rows, axis=0))
    if net.is_rational:
        return out[:, :-1] / out[:, -1:]
    return out


def evaluate_derivative_ref(space, net, points):
    """First derivative of a spline curve through its hodograph, as
    evaluate_derivative computed it before it differentiated each element
    in Bernstein form: the degree p-1 spline on the interior knots with
    coefficients p (P_{i+1} - P_i) / (u_{i+p+1} - u_{i+1}), and the
    quotient rule for rational curves. The hodograph's knot vector is
    invalid when an interior knot has multiplicity p."""
    from bezproj.spline_space import ControlNet, KnotVector, SplineSpace, evaluate

    kv = space.knot_vectors[0]
    p, U, n = kv.degree, kv.knots, kv.n
    H = net.homogeneous()
    Q = p * (H[1:] - H[:-1]) / (U[p + 1 : p + n] - U[1:n])[:, None]
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p > 1:
        dH = evaluate(SplineSpace([KnotVector(U[1:-1], p - 1)]), ControlNet(Q), pts)
    else:
        # a polyline's hodograph is piecewise constant, right-continuous
        s = np.searchsorted(kv.breakpoints, pts[:, 0], side="right") - 1
        dH = Q[np.clip(s, 0, kv.n_elements - 1)]
    if not net.is_rational:
        return dH
    val = evaluate(space, ControlNet(H), pts)
    w, dw = val[:, -1:], dH[:, -1:]
    return (dH[:, :-1] - val[:, :-1] / w * dw) / w


# ---------------------------------------------------------------------------
# slow references: projection one element at a time


def _element_gauss(bounds, degrees, orders):
    """Tensor Gauss rule on one element: the (m, d) points, first
    direction fastest, their weights and the Bernstein design there."""
    pts, w, B = np.zeros((1, 0)), np.ones(1), np.ones((1, 1))
    for (a, b), p, q in zip(bounds, degrees, orders):
        x, wx = leggauss(q)
        s = 0.5 * (a + b) + 0.5 * (b - a) * x
        pts = np.hstack([np.tile(pts, (q, 1)), np.repeat(s, len(pts))[:, None]])
        w = np.kron(0.5 * (b - a) * wx, w)
        B = np.kron(bernstein_design_ref(p, x), B)
    return pts, w, B


def _orders(space, quad_order):
    if quad_order is None:
        return [p + 3 for p in space.degrees]
    return list(np.broadcast_to(quad_order, space.parametric_dim))


def _values(f, pts):
    vals = np.asarray(f(pts), dtype=np.float64)
    return vals[:, None] if vals.ndim == 1 else vals


def local_bernstein_projection(f, space, e, quad_order=None):
    """L2-best Bernstein coefficients of f on element e, (n_bern, k): the
    Kronecker product of the per-direction Gauss-rule fits G^{-1} B^T W
    applied to the values of f at the element's tensor Gauss points."""
    from bezproj.bernstein import gramian_inverse

    orders = _orders(space, quad_order)
    pts, _, _ = _element_gauss(space.bounds([e])[0], space.degrees, orders)
    fit = np.ones((1, 1))
    for p, q in zip(space.degrees, orders):
        x, w = leggauss(q)
        fit = np.kron(gramian_inverse(p) @ (bernstein_design_ref(p, x).T * w), fit)
    return fit @ _values(f, pts)


def global_l2_project_ref(f, space, weights=None, quad_order=None):
    """Coefficients of the globally assembled L2 projection, (n_funcs,
    k), as global_l2_project computed them one element at a time: the
    local basis is the design times C^T, made rational with the control
    weights of the element's support."""
    orders = _orders(space, quad_order)
    bounds, support, C = space.bounds(), space.supports(), space.extraction()
    M = np.zeros((space.n_funcs, space.n_funcs))
    rhs = np.zeros((space.n_funcs, _values(f, bounds[:1, :, 0]).shape[1]))
    for e in range(space.n_elements):
        pts, w, B = _element_gauss(bounds[e], space.degrees, orders)
        N = B @ C[e].T
        if weights is not None:
            Nw = N * weights[support[e]]
            N = Nw / Nw.sum(axis=1, keepdims=True)
        wN = w[:, None] * N
        M[np.ix_(support[e], support[e])] += N.T @ wN
        rhs[support[e]] += wN.T @ _values(f, pts)
    return np.linalg.solve(M, rhs)
