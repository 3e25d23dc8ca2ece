"""Local L2 projection onto spline spaces through element extraction.

The projector runs in three steps, none of which assembles or solves a
global system:

1. per element, project the target onto the element-local Bernstein
   basis: beta^e = G^{-1} b with b_i = integral of B_i * (f o phi_e)
   over the biunit domain (the constant element Jacobian cancels);
2. pull the Bernstein coefficients back to element-local spline
   coefficients: lambda^e = R^T beta^e;
3. blend the per-element values of every function with convex
   smoothing weights: lambda_A = sum_e w_A^e lambda_A^e.

Rational spaces are handled homogeneously: the weighted target w * f is
projected onto the underlying polynomial space and the result divided
by the control weights.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import bernstein
from .spline_space import ControlNet, evaluate, evaluate_derivative
from .tensor import reversed_kron

__all__ = [
    "TargetFunction",
    "ProjectionReport",
    "local_bernstein_projection",
    "local_spline_coefficients",
    "smoothing_weights",
    "smoothing_weight_table",
    "bezier_project",
    "global_l2_project",
    "l2_error",
    "lift_normals",
]


class TargetFunction:
    """Callable target for projection.

    Wraps either a vectorized function taking an (m, d) array of
    parametric points and returning (m,) or (m, k), or a per-point
    function (set vectorized=False). Instances are callable with the
    vectorized convention either way.

    degree, if given, declares the target to be a polynomial of at most
    that degree per parametric direction; projection quadrature then
    drops to the minimal exact order.
    """

    def __init__(self, f, vectorized=True, degree=None):
        self._f = f
        self._vectorized = vectorized
        if degree is not None:
            degree = int(degree)
            if degree < 0:
                raise ValueError("declared degree must be >= 0")
        self.degree = degree

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self._vectorized:
            out = np.asarray(self._f(pts), dtype=np.float64)
        else:
            out = np.asarray([self._f(p) for p in pts], dtype=np.float64)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape[0] != pts.shape[0]:
            raise ValueError("target function returned a wrong number of values")
        return out


def _as_target(f):
    return f if isinstance(f, TargetFunction) else TargetFunction(f)


def _as_weights(weights, space):
    """Control weights of a rational space as a checked vector, or None."""
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.size != space.n_funcs:
        raise ValueError("weight count does not match space dimension")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    return weights


def _quad_orders(space, quad_order, f_degree=None, rational=False):
    """Gauss point counts per direction.

    Defaults to p + 3 points; a declared polynomial target degree lowers
    this to the minimal count that integrates the projection integrand
    exactly (the weight function adds another p in the rational case).
    """
    if quad_order is None:
        if f_degree is None:
            return tuple(p + 3 for p in space.degrees)
        mult = 2 if rational else 1
        return tuple((mult * p + int(f_degree)) // 2 + 1 for p in space.degrees)
    if np.isscalar(quad_order):
        return tuple(int(quad_order) for _ in space.degrees)
    orders = tuple(int(q) for q in quad_order)
    if len(orders) != space.parametric_dim:
        raise ValueError("quad_order length does not match parametric dimension")
    return orders


def _tensor_rule(degrees, orders):
    """Tensor Gauss rule on [-1,1]^d with the matching Bernstein design.

    Returns (points, weights, design): points (m, d) with the first
    direction cycling fastest, design (m, prod(p_i + 1)) ordered like
    the tensor Bernstein basis.
    """
    nodes, wts, designs = [], [], []
    for p, q in zip(degrees, orders):
        x, w = leggauss(q)
        nodes.append(x)
        wts.append(w)
        designs.append(bernstein.bernstein_matrix(p, x))
    mesh = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([m.ravel(order="F") for m in mesh], axis=1)
    weights = reversed_kron(wts)
    design = reversed_kron(designs)
    return pts, weights, design


def local_bernstein_projection(f, space, element, quad_order=None):
    """L2-best Bernstein coefficients of f on one element.

    f follows the vectorized target convention; returns an array of
    shape (prod(p_i + 1), output_dim).
    """
    f = _as_target(f)
    orders = _quad_orders(space, quad_order, f_degree=f.degree)
    xi, wq, design = _tensor_rule(space.degrees, orders)
    el = space.element(element) if np.isscalar(element) else element
    vals = f(el.map_from_biunit(xi))
    b = design.T @ (wq[:, None] * vals)
    return bernstein.gramian_inverse_multi(space.degrees) @ b


def local_spline_coefficients(space, element, beta):
    """Element-local spline coefficients from Bernstein coefficients."""
    R = space.reconstruction_operator(element)
    return R.T @ beta


def smoothing_weight_table(space, mode="approximate"):
    """Convex smoothing weights for every (function, element) pair.

    Returns a list with one (n_local,) array per element, aligned with
    the element's support ordering. Per function the weights over its
    support elements sum to one.

    Modes:
      approximate: extraction row sums, normalized per function. Cheap
        and geometry-free; agrees with "exact" on uniform meshes.
      exact: exact parametric integrals of each function per element.
        Since all Bernstein functions share the same integral, the
        integral of N_A over an element is its extraction row sum times
        the element volume up to one global constant, so this is the
        volume-weighted variant of "approximate"; no quadrature needed.
      uniform: plain averaging over the support elements.
    """
    if mode not in ("approximate", "exact", "uniform"):
        raise ValueError(f"unknown smoothing mode {mode!r}")
    nums = []
    denom = np.zeros(space.n_funcs)
    for e in range(space.n_elements):
        el = space.element(e)
        if mode == "uniform":
            num = np.ones(el.support.size)
        else:
            C = space.extraction_operator(e).C
            num = C.sum(axis=1)
            if mode == "exact":
                num = num * el.measure
        denom[el.support] += num
        nums.append(num)
    return [num / denom[space.element(e).support] for e, num in enumerate(nums)]


def smoothing_weights(space, A, mode="approximate"):
    """Smoothing weights of one function, as {element_index: weight}."""
    table = smoothing_weight_table(space, mode)
    out = {}
    for e in space.function_elements(A):
        loc = space.local_index_of(e, A)
        out[int(e)] = float(table[e][loc])
    return out


@dataclass
class ProjectionReport:
    """Result of a Bezier projection run."""

    net: ControlNet
    coefficients: np.ndarray
    weight_mode: str = "approximate"


def bezier_project(f, space, weights=None, weight_mode="approximate", quad_order=None):
    """Project a target function onto a spline space without a global solve.

    weights, if given, are the positive control weights of the rational
    space; the projection then runs homogeneously on w(s) * f(s) and the
    resulting coefficients are divided by the control weights.
    """
    f = _as_target(f)
    weights = _as_weights(weights, space)

    table = smoothing_weight_table(space, weight_mode)
    orders = _quad_orders(
        space, quad_order, f_degree=f.degree, rational=weights is not None
    )
    xi, wq, design = _tensor_rule(space.degrees, orders)
    Gi = bernstein.gramian_inverse_multi(space.degrees)

    coeffs = None
    for e in range(space.n_elements):
        el = space.element(e)
        vals = f(el.map_from_biunit(xi))
        if weights is not None:
            # weight function at the quadrature points, via extraction
            C = space.extraction_operator(e).C
            wvals = (design @ C.T) @ weights[el.support]
            vals = wvals[:, None] * vals
        if coeffs is None:
            coeffs = np.zeros((space.n_funcs, vals.shape[1]))
        beta = Gi @ (design.T @ (wq[:, None] * vals))
        lam = local_spline_coefficients(space, e, beta)
        coeffs[el.support] += table[e][:, None] * lam

    if weights is not None:
        out = ControlNet(coeffs / weights[:, None], weights)
    else:
        out = ControlNet(coeffs)
    return ProjectionReport(
        net=out,
        coefficients=out.points,
        weight_mode=weight_mode,
    )


def _rational_design(space, e, design_bern, weights):
    """Design matrix of the local rational basis at element quad points."""
    C = space.extraction_operator(e).C
    sup = space.element(e).support
    N = design_bern @ C.T
    Nw = N * weights[sup][None, :]
    return Nw / Nw.sum(axis=1, keepdims=True)


def global_l2_project(f, space, weights=None, quad_order=None):
    """Globally assembled L2 projection, the reference the local
    projector is measured against. Returns a ControlNet."""
    f = _as_target(f)
    weights = _as_weights(weights, space)
    orders = _quad_orders(
        space, quad_order, f_degree=f.degree, rational=weights is not None
    )
    xi, wq, design = _tensor_rule(space.degrees, orders)

    n = space.n_funcs
    M = np.zeros((n, n))
    rhs = None
    for e in range(space.n_elements):
        el = space.element(e)
        scale = el.measure / 2 ** space.parametric_dim
        if weights is None:
            N = design @ space.extraction_operator(e).C.T
        else:
            N = _rational_design(space, e, design, weights)
        vals = f(el.map_from_biunit(xi))
        if rhs is None:
            rhs = np.zeros((n, vals.shape[1]))
        sup = el.support
        wN = wq[:, None] * N
        M[np.ix_(sup, sup)] += scale * (N.T @ wN)
        rhs[sup] += scale * (wN.T @ vals)
    coeffs = np.linalg.solve(M, rhs)
    return ControlNet(coeffs, weights)


def l2_error(f, space, net, quad_order=None, relative=False):
    """Parametric L2 distance between the target and a spline field."""
    f = _as_target(f)
    if not isinstance(net, ControlNet):
        net = ControlNet(net)
    if quad_order is None:
        if f.degree is not None and not net.is_rational:
            orders = tuple(max(p, f.degree) + 1 for p in space.degrees)
        else:
            orders = tuple(p + 4 for p in space.degrees)
    else:
        orders = _quad_orders(space, quad_order)
    xi, wq, design = _tensor_rule(space.degrees, orders)
    H = net.homogeneous()

    err2 = 0.0
    ref2 = 0.0
    for e in range(space.n_elements):
        el = space.element(e)
        scale = el.measure / 2 ** space.parametric_dim
        vals = f(el.map_from_biunit(xi))
        N = design @ space.extraction_operator(e).C.T
        S = N @ H[el.support]
        if net.is_rational:
            S = S[:, :-1] / S[:, -1:]
        err2 += scale * float(wq @ np.sum((vals - S) ** 2, axis=1))
        ref2 += scale * float(wq @ np.sum(vals**2, axis=1))
    err = np.sqrt(err2)
    if relative:
        return err / np.sqrt(ref2)
    return err


def lift_normals(space, net, weight_mode="approximate", quad_order=None):
    """Control vectors reproducing the unit normal field of a planar curve.

    The curve tangent is rotated by +90 degrees, normalized, and
    projected onto the curve's own space. The returned net shares the
    curve's weights when the curve is rational. Raises if the tangent
    degenerates anywhere on the quadrature grid.
    """
    if space.parametric_dim != 1 or net.physical_dim != 2:
        raise ValueError("normal lifting needs a planar curve")

    def unit_normal(pts):
        T = evaluate_derivative(space, net, pts)
        mag = np.linalg.norm(T, axis=1)
        scale = max(np.max(mag), 1.0)
        if np.any(mag < 1e-12 * scale):
            raise ValueError("tangent vanishes; normal undefined")
        return np.stack([-T[:, 1], T[:, 0]], axis=1) / mag[:, None]

    report = bezier_project(
        TargetFunction(unit_normal),
        space,
        weights=net.weights,
        weight_mode=weight_mode,
        quad_order=quad_order,
    )
    return report.net
