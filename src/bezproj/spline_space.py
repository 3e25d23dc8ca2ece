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

Indexing: arrays are zero-based everywhere in this module. Element and
function ids exposed here are zero-based; the one-based multi-index
helpers in :mod:`bezproj.tensor` exist for the local tensor algebra.
Global function ordering makes the first parametric direction cycle
fastest, matching :func:`bezproj.tensor.reversed_kron`.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernstein import bernstein_matrix
from .tensor import reversed_kron

__all__ = [
    "KnotVector",
    "SplineSpace",
    "ControlNet",
    "Element",
    "ElementOperators",
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


def _open_knots(knots, degree, snap_tol):
    """Validate an open knot vector of a float or Fraction (object) array.

    Nonzero gaps of at most snap_tol times the span are closed in place,
    so span logic can use exact equality. Returns (breakpoints,
    multiplicities); ValueError names the first broken rule.
    """
    p = int(degree)
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if knots.dtype != object and not np.all(np.isfinite(knots)):
        raise ValueError("knots must be finite")
    if knots.size < 2 * (p + 1):
        raise ValueError(f"need at least {2 * (p + 1)} knots for degree {p}, got {knots.size}")
    gaps = np.diff(knots)
    if np.any(gaps < 0):
        raise ValueError("knots must be nondecreasing")
    span = knots[-1] - knots[0]
    if span <= 0:
        raise ValueError("knot vector spans an empty domain")

    # a snapped knot can only move the next gap up, so the loop runs only
    # when some gap is small to begin with
    if np.any((gaps > 0) & (gaps <= snap_tol * span)):
        for i in range(1, knots.size):
            if knots[i] != knots[i - 1] and knots[i] - knots[i - 1] <= snap_tol * span:
                knots[i] = knots[i - 1]

    if not (np.all(knots[: p + 1] == knots[0]) and np.all(knots[-p - 1 :] == knots[-1])):
        raise ValueError("knot vector must be open: p+1 repeated end knots")
    breakpoints, counts = np.unique(knots, return_counts=True)
    if np.any(counts[1:-1] > p):
        raise ValueError(f"interior knot multiplicity exceeds degree {p}")
    if counts[0] > p + 1 or counts[-1] > p + 1:
        raise ValueError("boundary knot multiplicity exceeds degree + 1")
    return breakpoints, counts


def _span_windows(knots, multiplicities, p):
    """The (n_elements, 2p+2) knot windows around the nonzero spans."""
    last = np.cumsum(multiplicities[:-1]) - 1
    return knots[last[:, None] + np.arange(-p, p + 2)]


def _exact_windows(knots, degree):
    """Knot windows of the nonzero spans of an exact knot vector (ints,
    Fractions or "n/d" strings), as a Fraction object array; the knots
    are checked like :class:`KnotVector`'s, with exact comparisons."""
    U = np.array([Fraction(u) for u in knots], dtype=object)
    _, counts = _open_knots(U, degree, 0)
    return _span_windows(U, counts, int(degree))


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

    def element_bounds(self, e):
        if not 0 <= e < self.n_elements:
            raise IndexError(f"element {e} outside 0..{self.n_elements - 1}")
        return float(self.breakpoints[e]), float(self.breakpoints[e + 1])

    def find_span(self, t):
        """Knot index i with knots[i] <= t < knots[i+1], right end closed."""
        a, b = self.domain
        if t < a or t > b:
            raise ValueError(f"parameter {t} outside domain [{a}, {b}]")
        i = int(np.searchsorted(self.knots, t, side="right")) - 1
        return min(max(i, self.degree), self.n - 1)

    def element_index(self, t):
        """Index of the element containing t (half-open, right end closed)."""
        a, b = self.domain
        if t < a or t > b:
            raise ValueError(f"parameter {t} outside domain [{a}, {b}]")
        e = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(e, 0), self.n_elements - 1)

    def element_support(self, e):
        """Zero-based indices of the p+1 functions supported on element e."""
        if not 0 <= e < self.n_elements:
            raise IndexError(f"element {e} outside 0..{self.n_elements - 1}")
        return self.supports()[e]

    def supports(self):
        """Indices of the p+1 functions supported on each element, as one
        (n_elements, p+1) array of ascending rows. Computed once and cached."""
        if self._supports is None:
            last = np.searchsorted(self.knots, self.breakpoints[:-1], side="right") - 1
            first = last - self.degree
            self._supports = first[:, None] + np.arange(self.degree + 1)
        return self._supports

    def function_support(self, A):
        """Indices of the elements on which function A is nonzero."""
        if not 0 <= A < self.n:
            raise IndexError(f"function {A} outside 0..{self.n - 1}")
        lo, hi = self.knots[A], self.knots[A + self.degree + 1]
        first = int(np.searchsorted(self.breakpoints, lo, side="left"))
        last = int(np.searchsorted(self.breakpoints, hi, side="left")) - 1
        return np.arange(first, last + 1)

    def local_knots(self, A):
        """The p+2 knots defining function A."""
        if not 0 <= A < self.n:
            raise IndexError(f"function {A} outside 0..{self.n - 1}")
        return np.array(self.knots[A : A + self.degree + 2])

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

    def reconstruction(self):
        """Inverses of the extraction operators, stacked the same way."""
        if self._reconstruction is None:
            self._reconstruction = np.linalg.inv(self.extraction())
        return self._reconstruction


def univariate_extraction_exact(knots, degree):
    """Extraction operators in exact rational arithmetic.

    knots is a sequence of Fractions (or ints); returns a list of
    (p+1) x (p+1) nested lists of Fractions, one per nonzero span. Used
    for bit-exact output when inputs are rational; the float path lives
    on :meth:`KnotVector.extraction`.
    """
    W = _exact_windows(knots, degree)
    p = int(degree)
    return _bezier_extraction(W, W[:, p], W[:, p + 1]).tolist()


def bspline_basis_matrix(knots, p, xs):
    """Dense B-spline design matrix via the de Boor triangle.

    knots is an open knot vector (floats, nondecreasing), xs a vector of
    evaluation points inside the parametric domain. Returns shape
    (len(xs), n) with n = len(knots) - p - 1. Span lookup is half-open
    with the right domain end closed.
    """
    U = np.ascontiguousarray(knots, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64).ravel()
    n = U.size - p - 1
    m = x.size
    spans = np.searchsorted(U, x, side="right") - 1
    np.clip(spans, p, n - 1, out=spans)

    # Cox-de Boor recurrence, vectorized over evaluation points. The
    # denominators never vanish because every looked-up span is nonzero.
    N = np.zeros((m, p + 1))
    N[:, 0] = 1.0
    left = np.empty((m, p + 1))
    right = np.empty((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = x - U[spans + 1 - j]
        right[:, j] = U[spans + j] - x
        saved = np.zeros(m)
        for r in range(j):
            tmp = N[:, r] / (right[:, r + 1] + left[:, j - r])
            N[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        N[:, j] = saved

    out = np.zeros((m, n))
    rows = np.arange(m)
    for c in range(p + 1):
        out[rows, spans - p + c] = N[:, c]
    return out


@dataclass(frozen=True)
class Element:
    """One Bezier element of a tensor-product space."""

    index: int
    spans: tuple
    bounds: tuple
    support: np.ndarray

    @property
    def measure(self):
        return math.prod(b - a for a, b in self.bounds)

    def map_from_biunit(self, xi):
        """Affine map from [-1, 1]^d to the element, applied row-wise."""
        a, b = np.array(self.bounds).T
        return 0.5 * (a + b) + 0.5 * (b - a) * np.atleast_2d(np.asarray(xi, dtype=np.float64))

    def map_to_biunit(self, s):
        """Inverse of :meth:`map_from_biunit`."""
        a, b = np.array(self.bounds).T
        return (2.0 * np.atleast_2d(np.asarray(s, dtype=np.float64)) - a - b) / (b - a)


@dataclass(frozen=True)
class ElementOperators:
    """Extraction operator of one element with its univariate factors."""

    C: np.ndarray
    factors: tuple


def _ravel(per_dim, shape):
    """Global index from per-direction indices, first direction fastest.

    The per-direction indices may be broadcastable arrays.
    """
    a = 0
    for n, i in zip(reversed(shape), reversed(list(per_dim))):
        a = a * n + i
    return a


def _unravel(a, shape, what):
    """Per-direction indices of global index a (inverse of _ravel)."""
    out = []
    for n in shape:
        a, r = divmod(a, n)
        out.append(r)
    if a:
        raise IndexError(f"{what} index out of range")
    return tuple(out)


def _grid_indices(per_dim, shape):
    """Global indices of the tensor grid of per-direction index lists,
    first direction fastest."""
    grids = np.meshgrid(*per_dim[::-1], indexing="ij")[::-1]
    return _ravel(grids, shape).ravel()


class SplineSpace:
    """Tensor product of univariate open-knot-vector spaces."""

    def __init__(self, knot_vectors):
        kvs = tuple(knot_vectors)
        if not all(isinstance(kv, KnotVector) for kv in kvs):
            raise TypeError("SplineSpace expects KnotVector instances")
        if not kvs:
            raise ValueError("need at least one knot vector")
        self.knot_vectors = kvs
        self._elements = None

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

    def ravel_func(self, per_dim):
        """Global function index from per-direction indices (zero-based)."""
        return _ravel(per_dim, self.shape)

    def ravel_element(self, per_dim):
        return _ravel(per_dim, self.element_shape)

    def unravel_element(self, e):
        return _unravel(e, self.element_shape, "element")

    def elements(self):
        """All elements, first parametric direction cycling fastest."""
        if self._elements is None:
            self._elements = [
                self._build_element(e) for e in range(self.n_elements)
            ]
        return self._elements

    def element(self, e):
        if not 0 <= e < self.n_elements:
            raise IndexError(f"element {e} outside 0..{self.n_elements - 1}")
        return self.elements()[e]

    def _build_element(self, e):
        spans = self.unravel_element(e)
        bounds = tuple(
            kv.element_bounds(k) for kv, k in zip(self.knot_vectors, spans)
        )
        windows = [kv.supports()[k] for kv, k in zip(self.knot_vectors, spans)]
        support = _grid_indices(windows, self.shape)
        return Element(index=e, spans=spans, bounds=bounds, support=support)

    def extraction_operator(self, e):
        """Extraction operator of element e.

        Rows follow the element's support ordering (ascending global
        index), columns the tensor Bernstein ordering.
        """
        spans = self.unravel_element(e)
        factors = tuple(
            kv.extraction()[k] for kv, k in zip(self.knot_vectors, spans)
        )
        return ElementOperators(C=reversed_kron(factors), factors=factors)

    def reconstruction_operator(self, e):
        """Inverse extraction operator of element e."""
        spans = self.unravel_element(e)
        return reversed_kron(
            [kv.reconstruction()[k] for kv, k in zip(self.knot_vectors, spans)]
        )

    def element_containing(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        per_dim = tuple(
            kv.element_index(x) for kv, x in zip(self.knot_vectors, s)
        )
        return self.ravel_element(per_dim)

    def eval_basis(self, s):
        """Values of the supported functions at a parametric point.

        Returns (element_index, values) where values follows the
        element's support ordering. The values are nonnegative and sum
        to one.
        """
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        if s.shape != (self.parametric_dim,):
            raise ValueError("point dimension mismatch")
        windows = []
        for kv, x in zip(self.knot_vectors, s):
            row = bspline_basis_matrix(kv.knots, kv.degree, [x])[0]
            i = kv.find_span(x)
            windows.append(row[i - kv.degree : i + 1])
        return self.element_containing(s), reversed_kron(windows)

    def local_knot_vector(self, A, d):
        """Local knot vector of global function A in direction d."""
        per_dim = _unravel(A, self.shape, "function")
        return self.knot_vectors[d].local_knots(per_dim[d])

    def function_elements(self, A):
        """Indices of the elements in the support of global function A."""
        per_dim = _unravel(A, self.shape, "function")
        grids = [kv.function_support(i) for kv, i in zip(self.knot_vectors, per_dim)]
        return _grid_indices(grids, self.element_shape)

    def local_index_of(self, e, A):
        """Position of global function A inside element e's support."""
        sup = self.element(e).support
        hits = np.nonzero(sup == A)[0]
        if hits.size == 0:
            raise ValueError(f"function {A} not supported on element {e}")
        return int(hits[0])


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
        """Homogeneous coordinates (w * P, w); plain points if polynomial."""
        if self.weights is None:
            return self.points.copy()
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


def evaluate(space, net, points):
    """Evaluate the spline (rational if weighted) at parametric points.

    points is (m, d) or a single point; returns (m, physical_dim).
    Per direction every point looks up its element and the values of
    the p+1 functions supported there, N = C B(xi). The (p+1)^d local
    functions of a point are the control points at fixed offsets from
    its first supported one, so the sum runs over the local functions:
    one control-point gather each, weighted by its tensor-product value.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != space.parametric_dim:
        raise ValueError("point dimension mismatch")
    if net.n != space.n_funcs:
        raise ValueError("control net size does not match space dimension")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    # only read: a polynomial net's points are not copied, which would
    # cost O(n_funcs) per call whatever the number of points
    H = net.homogeneous() if net.is_rational else net.points

    m = pts.shape[0]
    first = np.zeros(m, dtype=np.int64)
    local = [(0, 1.0)]  # (offset from first, (m, 1) values) per local function
    stride = 1
    for d, kv in enumerate(space.knot_vectors):
        a, b = kv.domain
        x = pts[:, d]
        if np.any(x < a) or np.any(x > b):
            raise ValueError("evaluation point outside the parametric domain")
        s = np.searchsorted(kv.breakpoints, x, side="right") - 1
        np.clip(s, 0, kv.n_elements - 1, out=s)
        lo, hi = kv.breakpoints[s], kv.breakpoints[s + 1]
        xi = (2.0 * x - lo - hi) / (hi - lo)
        N = np.einsum("mab,mb->ma", kv.extraction()[s], bernstein_matrix(kv.degree, xi))
        first += stride * kv.supports()[s, 0]
        # the first direction cycles fastest
        local = [
            (offset + stride * i, w * Ni)
            for i, Ni in enumerate(N.T[:, :, None])
            for offset, w in local
        ]
        stride *= kv.n
    out = np.zeros((m, H.shape[1]))
    for offset, w in local:
        # scaled in place: one more (m, D) temporary per function is
        # fresh memory on every call, paid in page faults
        g = H.take(first + offset, axis=0)
        g *= w
        out += g
    if net.is_rational:
        return out[:, :-1] / out[:, -1:]
    return out


def evaluate_derivative(space, net, points):
    """First derivative of a univariate spline curve at parametric points.

    Only parametric dimension 1 is supported; rational curves use the
    quotient rule on the homogeneous components.
    """
    if space.parametric_dim != 1:
        raise ValueError("derivative evaluation implemented for curves only")
    kv = space.knot_vectors[0]
    p = kv.degree
    U = kv.knots
    H = net.homogeneous()
    n = kv.n

    # hodograph: degree p-1 on the interior knots
    denom = U[p + 1 : p + n] - U[1:n]
    Q = p * (H[1:] - H[:-1]) / denom[:, None]

    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p > 1:
        dH = evaluate(SplineSpace([KnotVector(U[1:-1], p - 1)]), ControlNet(Q), pts)
    else:
        # a polyline's hodograph is piecewise constant: Q[e] is the slope
        # of element e (right-continuous at breakpoints, like evaluate)
        evaluate(space, net, pts)  # validates the points
        s = np.searchsorted(kv.breakpoints, pts[:, 0], side="right") - 1
        dH = Q[np.clip(s, 0, kv.n_elements - 1)]
    if not net.is_rational:
        return dH
    val_h = evaluate(SplineSpace([kv]), ControlNet(H), pts)
    w = val_h[:, -1:]
    num = val_h[:, :-1]
    dw = dH[:, -1:]
    dnum = dH[:, :-1]
    return (dnum - (num / w) * dw) / w


def parse_number(x):
    """Parse a JSON scalar that may be an exact rational string 'n/d'."""
    if isinstance(x, str):
        return float(Fraction(x))
    return float(x)


def _number_array(values, what, ndim):
    """A JSON array of numbers and exact "n/d" strings as an ndim-D float
    array. An array of numbers converts in one call; otherwise only the
    string entries go through parse_number. ValueError names what."""
    try:
        arr = np.array(values)
        if arr.dtype.kind not in "biuf":
            arr = np.array(values, dtype=object)
            strings = np.frompyfunc(isinstance, 2, 1)(arr, str).astype(bool)
            arr[strings] = [parse_number(x) for x in arr[strings]]
            if np.any(np.equal(arr, None)):
                raise TypeError("null entry")
        if arr.ndim == ndim:
            return arr.astype(np.float64)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f'{what} must hold numbers or "n/d" strings ({exc})') from None
    raise ValueError(f"{what} must be a {ndim}-D array of numbers")


def _integer(x, what):
    """x as an int; ValueError names what unless x is integral."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"{what} must be integers, got {x!r}")


def _space_from_dict(data):
    kvs = [
        KnotVector(_number_array(knots, "knot_vectors", 1), _integer(p, "degrees"))
        for knots, p in zip(data["knot_vectors"], data["degrees"])
    ]
    return SplineSpace(kvs)


def _read_json(source):
    """The JSON data of a file path or file object; a dict passes as is."""
    if isinstance(source, dict):
        return source
    if hasattr(source, "read"):
        return json.load(source)
    with open(source) as fh:
        return json.load(fh)


def read_spline_json(source):
    """Read a spline from a JSON file path, file object, or dict.

    Expected keys: parametric_dim, physical_dim, degrees, knot_vectors,
    control_points, and optionally weights. Numeric entries may be
    rational strings like "1/3".
    """
    data = _read_json(source)
    space = _space_from_dict(data)
    if int(data["parametric_dim"]) != space.parametric_dim:
        raise ValueError("parametric_dim does not match knot_vectors")
    points = _number_array(data["control_points"], "control_points", 2)
    if points.shape[1] != int(data["physical_dim"]):
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
