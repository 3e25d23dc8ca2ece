"""Tensor-product B-spline and NURBS spaces with element extraction.

A :class:`KnotVector` owns univariate structure (validation, spans,
extraction to element-local Bernstein form); a :class:`SplineSpace` is
a list of knot vectors plus the tensor-product bookkeeping; a
:class:`ControlNet` carries coefficients and optional positive
weights. Extraction operators C map element-local spline functions to
the Bernstein basis of the element,

    N_A|_e = sum_b C[A, b] B_b,

so spline coefficients P pull back to Bernstein coefficients Q = C^T P,
and the reconstruction operator R = C^{-1} pushes them forward again.
Both are blossoms, so nothing is inverted: R[b, A] is N_A's de Boor-Fix
dual functional of B_b, its blossom at N_A's interior knots (de Boor &
Fix 1973); the Bernstein blossom kernels live in :mod:`bezproj.bernstein`.

Indexing: arrays, element ids and function ids are zero-based. Global
function and element orderings make the first parametric direction
cycle fastest, matching :func:`bezproj.tensor.reversed_kron`.
"""

import json
import math
import os
from fractions import Fraction
from itertools import chain

import numpy as np

from .bernstein import _dual_functionals, bernstein_rows
from .tensor import reversed_kron

__all__ = [
    "KnotVector",
    "SplineSpace",
    "ControlNet",
    "univariate_extraction_exact",
    "parse_number",
    "read_spline_json",
    "write_spline_json",
    "spline_to_dict",
]

# Knots closer than this (relative to the domain span) are snapped to a
# single breakpoint value on construction.
_SNAP_TOL = 1e-12


def _bezier_extraction(W, a, b):
    """Bernstein coefficients on [a, b] of the functions around knot spans.

    W is an (m, 2p+2) array of knot windows, each around the nonempty span
    [W[:, p], W[:, p+1]] that contains [a, b]; a and b have length m.
    Returns the (m, p+1, p+1) stack whose row i is the function on
    W[:, i:i+p+2] and whose column j is its coefficient of Bernstein
    polynomial j on [a, b]: the blossom of the function's piece at
    (a^(p-j), b^j) (Ramshaw 1989). De Boor's algorithm evaluates a blossom
    as a weighted sum of the p+1 coefficients; run in reverse, it starts
    from weight 1 on the span's last function and pushes each weight one
    level down, alpha to its own row and 1 - alpha to the row before. Only
    + - * / are applied, so float knots give float operators and Fraction
    knots (an object array) exact ones.
    """
    p = W.shape[1] // 2 - 1
    cols = np.arange(p + 1)
    w = np.zeros((W.shape[0], p + 1, p + 1), dtype=W.dtype)  # [window, row, column]
    w[:, p] = 1
    for r in range(p, 0, -1):
        # rows r..p; column j takes u_r = b on the first j levels, a on the rest
        lo, hi = W[:, r : p + 1, None], W[:, p + 1 : 2 * p + 2 - r, None]
        alpha = (np.where(cols >= r, b[:, None], a[:, None])[:, None, :] - lo) / (hi - lo)
        x = w[:, r:]
        push = (1 - alpha) * x
        w[:, r:] = alpha * x
        w[:, r - 1 : p] += push
    return w


def _window_knots(W):
    """Interior knots (m, p+1, p) of the functions of knot windows, span ends (m, 1, 1)."""
    p = W.shape[1] // 2 - 1
    U = W[:, np.arange(1, p + 2)[:, None] + np.arange(p)]
    return U, W[:, p, None, None], W[:, p + 1, None, None]


def _positions(values, tol=None):
    """Where "the same breakpoint" is decided, for knot vectors and plans.

    values is a list of arrays of one direction (knots, breakpoints, user
    values, element bounds). Returns, per array, the integer position of
    each value in their merged, sorted list, and the value of each
    position. A value within tol (default: _SNAP_TOL times the values'
    extent) of the one before it, once that is snapped, takes its position.
    """
    v = np.sort(np.concatenate([np.ravel(x) for x in values]))
    tol = _SNAP_TOL * (v[-1] - v[0]) if tol is None else tol
    # snapping only lowers a value, so only one whose own gap starts small can move
    gaps = v[1:] - v[:-1]
    if ((gaps > 0) & (gaps <= tol)).any():
        for i in np.flatnonzero(gaps <= tol) + 1:
            if v[i] - v[i - 1] <= tol:
                v[i] = v[i - 1]
    # a value lies at or after its run's first value and before the next run's
    at = v[np.concatenate(([True], v[1:] != v[:-1]))]
    return [np.searchsorted(at, x, side="right") - 1 for x in values], at


def _open_knots(knots, degree, snap_tol, interior=None):
    """Validate an open knot vector of a float or Fraction (object) array.

    Nonzero gaps of at most snap_tol times the span are closed in place
    (:func:`_positions`), so span logic can use exact equality. An
    interior knot repeats at most `interior` times, by default the
    degree (a T-mesh allows p + 1). Returns (breakpoints,
    multiplicities); ValueError names the first broken rule.
    """
    p = _integer(degree, "degree")
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if knots.dtype != object and not np.all(np.isfinite(knots)):
        raise ValueError("knots must be finite")
    if knots.size < 2 * (p + 1):
        raise ValueError(f"need at least {2 * (p + 1)} knots for degree {p}, got {knots.size}")
    if np.any(np.diff(knots) < 0):
        raise ValueError("knots must be nondecreasing")
    span = knots[-1] - knots[0]
    if span <= 0:
        raise ValueError("knot vector spans an empty domain")

    (pos,), breakpoints = _positions([knots], snap_tol * span)
    knots[:] = breakpoints[pos]
    if not (np.all(knots[: p + 1] == knots[0]) and np.all(knots[-p - 1 :] == knots[-1])):
        raise ValueError("knot vector must be open: p+1 repeated end knots")
    counts = np.bincount(pos)
    most = p if interior is None else interior
    if np.any(counts[1:-1] > most):
        bound = f"degree {p}" if most == p else most
        raise ValueError(f"interior knot multiplicity exceeds {bound}")
    if counts[0] > p + 1 or counts[-1] > p + 1:
        raise ValueError("boundary knot multiplicity exceeds degree + 1")
    return breakpoints, counts


def _span_windows(knots, multiplicities, p):
    """The (n_elements, 2p+2) knot windows around the nonzero spans."""
    last = np.cumsum(multiplicities[:-1]) - 1
    return knots[last[:, None] + np.arange(-p, p + 2)]


def _common_denominator(values):
    """Exact numbers (ints, Fractions or "n/d" strings), each read once,
    as integer numerators over one common denominator: an object array
    of ints shaped like values, and the positive int denominator."""
    F = np.frompyfunc(Fraction, 1, 1)(np.array(values, dtype=object))
    den = math.lcm(*(f.denominator for f in F.flat))
    return np.frompyfunc(lambda f: f.numerator * (den // f.denominator), 1, 1)(F), den


def _exact_windows(numerators, degree):
    """Knot windows of the nonzero spans of integer knots; the knots are
    checked like :class:`KnotVector`'s, with exact comparisons."""
    _, counts = _open_knots(numerators, degree, 0)
    return _span_windows(numerators, counts, int(degree))


def _exact_extraction(W):
    """Extraction operators of integer knot windows, as Fractions. A
    common scale of all knots leaves every operator unchanged, so the
    numerators of :func:`_common_denominator` serve as knots."""
    W = np.frompyfunc(Fraction, 1, 1)(W)
    p = W.shape[1] // 2 - 1
    return _bezier_extraction(W, W[:, p], W[:, p + 1])


class KnotVector:
    """Open (clamped) univariate knot vector of a given degree.

    Validates on construction: nondecreasing knots, first and last p+1
    entries repeated, interior multiplicities at most p, at least one
    nonzero span, degree at least 1.
    """

    def __init__(self, knots, degree):
        knots = np.asarray(knots, dtype=np.float64).ravel().copy()
        self.breakpoints, self.multiplicities = _open_knots(knots, degree, _SNAP_TOL)
        self.knots = knots
        self.knots.flags.writeable = False
        self.degree = int(degree)
        self._extraction = None
        self._entries = None
        self._reconstruction = None
        self._supports = None

    @property
    def n(self):
        """Number of basis functions."""
        return self.knots.size - self.degree - 1

    @property
    def domain(self):
        return float(self.knots[0]), float(self.knots[-1])

    @property
    def n_elements(self):
        return self.breakpoints.size - 1

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, n={self.n}, elements={self.n_elements})"

    def __eq__(self, other):
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self.degree == other.degree and np.array_equal(self.knots, other.knots)

    def __hash__(self):
        return hash((self.degree, self.knots.tobytes()))

    def supports(self):
        """Indices of the p+1 functions supported on each element, as one
        (n_elements, p+1) array of ascending rows. Computed once and cached."""
        if self._supports is None:
            last = np.searchsorted(self.knots, self.breakpoints[:-1], side="right") - 1
            first = last - self.degree
            self._supports = first[:, None] + np.arange(self.degree + 1)
        return self._supports

    def extraction(self):
        """Per-element Bernstein extraction operators.

        Returns one (n_elements, p+1, p+1) array; entry e is element e's
        operator, rows ordered by ascending function index, columns by
        ascending Bernstein index. Computed once and cached.
        """
        if self._extraction is None:
            p = self.degree
            W = _span_windows(self.knots, self.multiplicities, p)
            self._extraction = _bezier_extraction(W, W[:, p], W[:, p + 1])
        return self._extraction

    def _extraction_entries(self):
        """The extraction operators entry by entry: a read-only
        ((p+1)^2, n_elements) array whose row a (p+1) + b holds C[:, a, b]
        contiguously, for sums along evaluation points. Computed once."""
        if self._entries is None:
            self._entries = self.extraction().reshape(self.n_elements, -1).T.copy()
            self._entries.flags.writeable = False
        return self._entries

    def reconstruction(self):
        """Reconstruction operators R = C^-1 from the dual functionals,
        stacked like the extraction operators. Computed once and cached."""
        if self._reconstruction is None:
            W = _span_windows(self.knots, self.multiplicities, self.degree)
            self._reconstruction = _dual_functionals(*_window_knots(W)).transpose(0, 2, 1)
        return self._reconstruction


def univariate_extraction_exact(knots, degree):
    """Extraction operators in exact rational arithmetic.

    knots is a sequence of Fractions (or ints); returns a list of
    (p+1) x (p+1) nested lists of Fractions, one per nonzero span. Used
    for bit-exact output when inputs are rational; the float path lives
    on :meth:`KnotVector.extraction`.
    """
    return _exact_extraction(_exact_windows(_common_denominator(knots)[0], degree)).tolist()


class SplineSpace:
    """Tensor product of univariate open-knot-vector spaces."""

    def __init__(self, knot_vectors):
        kvs = tuple(knot_vectors)
        if not all(isinstance(kv, KnotVector) for kv in kvs):
            raise TypeError("SplineSpace expects KnotVector instances")
        if not kvs:
            raise ValueError("need at least one knot vector")
        self.knot_vectors = kvs

    @property
    def parametric_dim(self):
        return len(self.knot_vectors)

    @property
    def degrees(self):
        return tuple(kv.degree for kv in self.knot_vectors)

    @property
    def shape(self):
        """Per-direction function counts."""
        return tuple(kv.n for kv in self.knot_vectors)

    @property
    def n_funcs(self):
        return math.prod(self.shape)

    @property
    def element_shape(self):
        return tuple(kv.n_elements for kv in self.knot_vectors)

    @property
    def n_elements(self):
        return math.prod(self.element_shape)

    def __repr__(self):
        return f"SplineSpace(degrees={self.degrees}, shape={self.shape})"

    def __eq__(self, other):
        if not isinstance(other, SplineSpace):
            return NotImplemented
        return self.knot_vectors == other.knot_vectors

    def ravel_element(self, per_dim):
        e = 0
        for n, i in zip(self.element_shape[::-1], list(per_dim)[::-1]):
            e = e * n + i
        return e

    def unravel_element(self, e):
        return tuple(int(s[0]) for _, s in self._spans([e]))

    # The element interface: stacks over element ids (all by default),
    # built from the per-direction stacks on every call, never cached.

    def _spans(self, ids):
        """(knot vector, span index of each element of ids) per direction."""
        spans = np.unravel_index(_element_ids(ids, self.n_elements), self.element_shape[::-1])
        return list(zip(self.knot_vectors, spans[::-1]))

    def bounds(self, ids=None):
        """Parametric bounds of the elements, (n, d, 2)."""
        spans = self._spans(ids)
        return np.stack([kv.breakpoints[np.stack([s, s + 1], axis=1)] for kv, s in spans], axis=1)

    def supports(self, ids=None):
        """Global ids of the functions supported on the elements, (n,
        n_loc), in the local order of the extraction rows."""
        spans = self._spans(ids)
        out, stride = np.zeros((len(spans[0][1]), 1), dtype=np.int64), 1
        for kv, s in spans:
            rows = stride * kv.supports()[s]
            out = (rows[:, :, None] + out[:, None, :]).reshape(-1, rows.shape[1] * out.shape[1])
            stride *= kv.n
        return out

    def extraction(self, ids=None):
        """Extraction operators of the elements, (n, n_loc, n_bern): each
        the reversed Kronecker product of its per-direction operators."""
        return reversed_kron([kv.extraction()[s] for kv, s in self._spans(ids)])

    def reconstruction(self, ids=None):
        """Reconstruction operators R = C^-1 from dual functionals, stacked the same way."""
        return reversed_kron([kv.reconstruction()[s] for kv, s in self._spans(ids)])

    # Single-element readers of the same stacks, under the names that
    # perfbench/tracing.py reports layers by (ROADMAP item 4).

    def element(self, e):
        """Bounds, supports, C and R of element e."""
        readers = (self.bounds, self.supports, self.extraction, self.reconstruction)
        return tuple(read([e])[0] for read in readers)

    def extraction_operator(self, e):
        return self.extraction([e])[0]

    def reconstruction_operator(self, e):
        return self.reconstruction([e])[0]


def _element_ids(ids, n, what="element"):
    """Element (or other) ids as a 1-D int array (all n for None), each in
    0..n-1; IndexError names what."""
    if ids is None:
        return np.arange(n)
    ids = np.asarray(ids).reshape(-1)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise IndexError(f"{what} ids must be integers, got {ids.dtype} {ids[:1].tolist()}")
    ids = ids.astype(np.int64)
    bad = np.flatnonzero((ids < 0) | (ids >= n))
    if bad.size:
        raise IndexError(f"{what} {ids[bad[0]]} outside 0..{n - 1}")
    return ids


def _checked_weights(weights, n, what):
    """weights as a vector of n finite positive floats (what names n),
    or None for None."""
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.size != n:
        raise ValueError(f"weight count does not match {what}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    return weights


class ControlNet:
    """Control points with optional positive weights."""

    def __init__(self, points, weights=None):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2:
            raise ValueError("control points must be a 2-D array")
        if not np.all(np.isfinite(points)):
            raise ValueError("control points must be finite")
        self.points = points
        self.weights = _checked_weights(weights, points.shape[0], "control point count")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def physical_dim(self):
        return self.points.shape[1]

    @property
    def is_rational(self):
        return self.weights is not None

    def homogeneous(self):
        """Homogeneous coordinates (w * P, w) as a new array; a polynomial
        net's points as a read-only view, which costs nothing."""
        if self.weights is None:
            view = self.points.view()
            view.flags.writeable = False
            return view
        return np.hstack([self.points * self.weights[:, None], self.weights[:, None]])

    @classmethod
    def from_homogeneous(cls, H, rational):
        H = np.asarray(H, dtype=np.float64)
        if not rational:
            return cls(H)
        w = H[:, -1]
        if np.any(w <= 0):
            raise ValueError("projection produced nonpositive weights")
        return cls(H[:, :-1] / w[:, None], w)


def _checked_points(space, net, points):
    """points as an (m, d) array; ValueError unless they fit space and net."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != space.parametric_dim:
        raise ValueError("point dimension mismatch")
    if net.n != space.n_funcs:
        raise ValueError("control net size does not match space dimension")
    if pts.shape[0]:
        # one min and one max per direction: NaN and inf reach both
        ends = np.array([(x.min(), x.max()) for x in pts.T])
        if not np.all(np.isfinite(ends)):
            raise ValueError("evaluation points must be finite")
        domains = np.array([kv.domain for kv in space.knot_vectors])
        if np.any(ends[:, 0] < domains[:, 0]) or np.any(ends[:, 1] > domains[:, 1]):
            raise ValueError("evaluation point outside the parametric domain")
    return pts


def _lookup(kv, x):
    """Element s of each point x along kv, right-continuous at breakpoints
    (the last element keeps the domain's end), the first function
    supported there, the point's biunit coordinate xi in s, and the
    width of s."""
    bp = kv.breakpoints
    s = np.searchsorted(bp[1:-1], x, side="right")
    lo, hi = bp.take(s), bp.take(s + 1)
    h = hi - lo
    return s, kv.supports().take(s * (kv.degree + 1)), (2.0 * x - lo - hi) / h, h


def _function_rows(kv, s, B):
    """Values (p+1, m) of the p+1 functions supported on each point's
    element s, N[a] = sum_b C[s, a, b] B[b], from Bernstein rows B (p+1, m)."""
    q = kv.degree + 1
    G = kv._extraction_entries().take(s, axis=1).reshape(q, q, -1)
    G *= B
    return G.sum(axis=1)


def _net_sum(H, first, local):
    """sum of w H[first + offset] over the (offset, (m,) w) pairs of local,
    as (D, m) rows: each control-point gather is scaled through its
    transpose into one reused buffer and added."""
    out = np.zeros((H.shape[1], first.size))
    scaled = np.empty_like(out)
    for offset, w in local:
        np.multiply(H.take(first + offset, axis=0).T, w, out=scaled)
        out += scaled
    return out


def evaluate(space, net, points):
    """Evaluate the spline (rational if weighted) at parametric points.

    points is (m, d) or a single point; returns a C-contiguous
    (m, physical_dim) array. Every pass runs along the m points, on
    (., m) rows. Per direction one lookup gives each point's element s
    and biunit coordinate xi, the Bernstein basis there is (p+1, m)
    rows, and the p+1 functions supported on s are N = C[s] B(xi),
    summed along rows of the knot vector's cached transposed C. The
    (p+1)^d local functions of a point are the control points at fixed
    offsets from its first supported one, so the sum runs over the local
    functions: one control-point gather each, weighted by its
    tensor-product value and added into a (D, m) accumulator.
    """
    pts = _checked_points(space, net, points)
    first = np.zeros(pts.shape[0], dtype=np.int64)
    local = [(0, None)]  # (offset from first, (m,) values) per local function
    stride = 1
    for d, kv in enumerate(space.knot_vectors):
        s, first_d, xi, _ = _lookup(kv, pts[:, d])
        N = _function_rows(kv, s, bernstein_rows(kv.degree, xi))
        first += stride * first_d
        # the first direction cycles fastest
        local = [
            (offset + stride * i, Ni if w is None else w * Ni)
            for i, Ni in enumerate(N)
            for offset, w in local
        ]
        stride *= kv.n
    out = _net_sum(net.homogeneous(), first, local)
    if net.is_rational:
        out = out[:-1] / out[-1]
    return np.ascontiguousarray(out.T)


def evaluate_derivative(space, net, points):
    """First derivative of a univariate spline curve at parametric points.

    Only parametric dimension 1 is supported. Each point's element is
    differentiated in Bernstein form, N' = C[s] dB(xi) / (hi - lo) with
    dB_j = p (B^{p-1}_{j-1} - B^{p-1}_j) from the rows of degree p - 1,
    after the lookup of :func:`evaluate`, and so right-continuous at
    breakpoints like it; rational curves use the quotient rule on
    N = C[s] B(xi).
    """
    if space.parametric_dim != 1:
        raise ValueError("derivative evaluation implemented for curves only")
    kv = space.knot_vectors[0]
    pts = _checked_points(space, net, points)
    H = net.homogeneous()
    p = kv.degree
    s, first, xi, h = _lookup(kv, pts[:, 0])
    B = np.pad(bernstein_rows(p - 1, xi), ((1, 1), (0, 0)))
    dH = _net_sum(H, first, enumerate(_function_rows(kv, s, (p / h) * (B[:-1] - B[1:]))))
    if net.is_rational:
        val = _net_sum(H, first, enumerate(_function_rows(kv, s, bernstein_rows(p, xi))))
        w, dw = val[-1], dH[-1]
        dH = (dH[:-1] - val[:-1] / w * dw) / w
    return np.ascontiguousarray(dH.T)


def bspline_basis_matrix(knots, p, xs):
    """B-spline design matrix (len(xs), n) of an open knot vector."""
    space = SplineSpace([KnotVector(knots, p)])
    return evaluate(space, ControlNet(np.eye(space.n_funcs)), np.reshape(xs, (-1, 1)))


def parse_number(x):
    """Parse a JSON scalar that may be an exact rational string 'n/d' as a
    finite float; ValueError names x when it is not one."""
    try:
        value = float(Fraction(x)) if isinstance(x, str) else float(x)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise ValueError(f"{x!r} is not a finite number")


def _number_array(values, what, ndim):
    """A JSON array of numbers and exact "n/d" strings as an ndim-D float
    array. An array of numbers converts in one call; otherwise only the
    string entries go through parse_number. Booleans are not numbers.
    ValueError names what."""
    try:
        arr = np.array(values)
        if arr.dtype.kind == "b" or (arr.dtype.kind in "iuf" and _holds_bool(values, arr.ndim)):
            raise TypeError("booleans are not numbers")
        if arr.dtype.kind not in "iuf" and arr.ndim:
            arr = np.array(values, dtype=object)
            if np.frompyfunc(isinstance, 2, 1)(arr, bool).any():
                raise TypeError("booleans are not numbers")
            strings = np.frompyfunc(isinstance, 2, 1)(arr, str).astype(bool)
            arr[strings] = [parse_number(x) for x in arr[strings]]
            if np.any(np.equal(arr, None)):
                raise TypeError("null entry")
        if arr.ndim == ndim:
            return arr.astype(np.float64)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f'{what} must hold numbers or "n/d" strings ({exc})') from None
    raise ValueError(f"{what} must be a {ndim}-D array of numbers")


def _holds_bool(values, ndim):
    """Whether nested lists, ndim levels deep, that numpy read as an array
    of numbers hold a bool, which it took for 0 or 1."""
    if isinstance(values, np.ndarray) or ndim == 0:
        return False
    for _ in range(ndim - 1):
        values = chain.from_iterable(values)
    return bool in set(map(type, values))


def _integer(x, what):
    """x as an int; ValueError names what unless x is integral."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{what} must be integers, got {x!r}")


def _fields(data, *names):
    """The named fields of a JSON object; ValueError names a missing one."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    return [data[name] for name in names]


def _list_fields(data, *names):
    """The named fields of a JSON object, each a list; ValueError names
    the first that is missing or not a list."""
    values = _fields(data, *names)
    for name, value in zip(names, values):
        if not isinstance(value, (list, np.ndarray)):
            raise ValueError(f"{name} must be a list, got {value!r}")
    return values


def _space_from_dict(data):
    degrees, knot_vectors = _list_fields(data, "degrees", "knot_vectors")
    if len(degrees) != len(knot_vectors):
        raise ValueError(
            f"degrees has {len(degrees)} entries but knot_vectors has {len(knot_vectors)}"
        )
    kvs = [
        KnotVector(_number_array(knots, "knot_vectors", 1), _integer(p, "degrees"))
        for knots, p in zip(knot_vectors, degrees)
    ]
    return SplineSpace(kvs)


def _read_json(source):
    """The JSON data of a file path or file object; data passes as is."""
    if hasattr(source, "read"):
        return json.load(source)
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            return json.load(fh)
    return source


def read_spline_json(source):
    """Read a spline from a JSON file path, file object, or dict.

    Expected keys: parametric_dim, physical_dim, degrees, knot_vectors,
    control_points, and optionally weights. Numeric entries may be
    rational strings like "1/3".
    """
    data = _read_json(source)
    space = _space_from_dict(data)
    dim, points, physical_dim = _fields(data, "parametric_dim", "control_points", "physical_dim")
    if _integer(dim, "parametric_dim") != space.parametric_dim:
        raise ValueError("parametric_dim does not match knot_vectors")
    points = _number_array(points, "control_points", 2)
    if points.shape[1] != _integer(physical_dim, "physical_dim"):
        raise ValueError("physical_dim does not match control_points")
    weights = None
    if data.get("weights") is not None:
        weights = _number_array(data["weights"], "weights", 1)
    net = ControlNet(points, weights)
    if net.n != space.n_funcs:
        raise ValueError(
            f"control net has {net.n} rows, space needs {space.n_funcs}"
        )
    return space, net


def spline_to_dict(space, net):
    out = {
        "parametric_dim": space.parametric_dim,
        "physical_dim": net.physical_dim,
        "degrees": list(space.degrees),
        "knot_vectors": [kv.knots.tolist() for kv in space.knot_vectors],
        "control_points": net.points.tolist(),
    }
    if net.weights is not None:
        out["weights"] = net.weights.tolist()
    return out


def write_spline_json(path, space, net, extra=None):
    data = spline_to_dict(space, net)
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
