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
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import bernstein
from .spline_space import ControlNet, _checked_weights, _integer, evaluate_derivative
from .tensor import _apply_along, _scatter_add, reversed_kron

__all__ = [
    "TargetFunction",
    "ProjectionReport",
    "smoothing_weight_table",
    "bezier_project",
    "global_l2_project",
    "l2_error",
    "lift_normals",
]


class TargetFunction:
    """Callable target for projection.

    Wraps a vectorized function taking an (m, d) array of parametric
    points and returning (m,) or (m, k) values, which are checked.
    """

    def __init__(self, f):
        self._f = f

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        out = np.asarray(self._f(pts), dtype=np.float64)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape[0] != pts.shape[0]:
            raise ValueError("target function returned a wrong number of values")
        if not np.all(np.isfinite(out)):
            raise ValueError("target function returned non-finite values")
        return out


def _as_target(f):
    return f if isinstance(f, TargetFunction) else TargetFunction(f)


def _quad_orders(space, quad_order):
    """Gauss point counts per direction: quad_order, checked, or p + 3."""
    if quad_order is None:
        return tuple(p + 3 for p in space.degrees)
    if np.isscalar(quad_order):
        quad_order = [quad_order] * space.parametric_dim
    orders = tuple(_integer(q, "quad_order") for q in quad_order)
    if len(orders) != space.parametric_dim:
        raise ValueError("quad_order length does not match parametric dimension")
    if min(orders) < 1:
        raise ValueError(f"quad_order must be >= 1, got {min(orders)}")
    return orders


@lru_cache(maxsize=128)
def _gauss_rule(p, q):
    """The q-point Gauss rule on [-1, 1] for degree p: (nodes, weights,
    Bernstein design at the nodes), read-only, built once per (p, q)."""
    x, w = leggauss(q)
    rule = (x, w, bernstein.bernstein_matrix(p, x))
    for a in rule:
        a.flags.writeable = False
    return rule


def _target_on_grid(f, space, orders):
    """One call of f on the Gauss points of all elements, as a grid,
    orders[d] points per element in direction d. Also returns per
    direction the rule (Gauss nodes, weights, Bernstein design there).
    """
    coords, rules = [], []
    for kv, q in zip(space.knot_vectors, orders):
        rule = _gauss_rule(kv.degree, q)
        a, b = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
        coords.append((0.5 * (a + b) + 0.5 * (b - a) * rule[0]).ravel())
        rules.append(rule)
    mesh = np.meshgrid(*coords[::-1], indexing="ij")
    points = np.stack([g.ravel() for g in mesh[::-1]], axis=1)
    return f(points).reshape(mesh[0].shape + (-1,)), rules


def _local_fit(p, rule):
    """Bernstein L2 fit from values at Gauss nodes: G^{-1} B^T diag(w)."""
    _, w, B = rule
    return bernstein.gramian_inverse(p) @ (B.T * w)


def local_spline_coefficients(space, beta, ids=None):
    """Step 2 per element of ids: R^T beta from Bernstein coefficients
    beta, (n, n_bern, ...) -> (n, n_loc, ...)."""
    return np.einsum("eba,eb...->ea...", space.reconstruction(ids), beta)


def _direction_weights(kv, mode):
    """One direction's factor of the smoothing weights, (n_elements, p+1).

    Row sums, element measures, support counts and so the per-function
    normalization all factor over directions in every mode.
    """
    if mode not in ("approximate", "exact", "uniform"):
        raise ValueError(f"unknown smoothing mode {mode!r}")
    if mode == "uniform":
        num = np.ones((kv.n_elements, kv.degree + 1))
    else:
        num = kv.extraction().sum(axis=2)
        if mode == "exact":
            num = num * np.diff(kv.breakpoints)[:, None]
    return num / _scatter_add(kv.supports(), num, kv.n)[kv.supports()]


def smoothing_weight_table(space, mode="approximate"):
    """Convex smoothing weights for every (function, element) pair.

    Returns an (n_elements, n_local) array whose row e is aligned with
    element e's support ordering. Per function the weights over its
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
    return reversed_kron([_direction_weights(kv, mode) for kv in space.knot_vectors])


@dataclass
class ProjectionReport:
    """Result of a Bezier projection run."""

    net: ControlNet


def _spline_on_grid(space, H, rules):
    """Spline values on the quadrature grid, one direction at a time:
    gather each element's coefficients, apply C^T, then the design."""
    X = H.reshape(space.shape[::-1] + (-1,))
    for d, (kv, (_, _, B)) in enumerate(zip(space.knot_vectors, rules)):
        ops = np.einsum("qb,eab->eqa", B, kv.extraction())
        X = _apply_along(X, d, ops, gather=kv.supports())
    return X


def bezier_project(f, space, weights=None, weight_mode="approximate", quad_order=None):
    """Project a target function onto a spline space without a global solve.

    weights, if given, are the positive control weights of the rational
    space; the projection then runs homogeneously on w(s) * f(s) and the
    resulting coefficients are divided by the control weights.

    The target is called once on the Gauss points of all elements; then,
    one direction at a time for all elements: the local fit
    G^{-1} B^T diag(w_q), R^T, the smoothing weight and the scatter-add.
    """
    f = _as_target(f)
    weights = _checked_weights(weights, space.n_funcs, "space dimension")
    orders = _quad_orders(space, quad_order)
    X, rules = _target_on_grid(f, space, orders)
    if weights is not None:
        X = _spline_on_grid(space, weights[:, None], rules) * X
    for d, (kv, rule) in enumerate(zip(space.knot_vectors, rules)):
        fit = _local_fit(kv.degree, rule)
        blend = _direction_weights(kv, weight_mode)
        ops = blend[:, :, None] * np.einsum("eba,bq->eaq", kv.reconstruction(), fit)
        X = _apply_along(X, d, ops, scatter=kv.supports(), n_out=kv.n)
    coeffs = X.reshape(space.n_funcs, -1)

    if weights is not None:
        return ProjectionReport(ControlNet(coeffs / weights[:, None], weights))
    return ProjectionReport(ControlNet(coeffs))


def global_l2_project(f, space, weights=None, quad_order=None):
    """Globally assembled L2 projection, the reference the local
    projector is measured against. Returns a ControlNet.

    For all elements at once, the local basis at the Gauss points is the
    design times C^T; one scatter-add each assembles the dense mass
    matrix and right-hand side for one dense solve. The mass matrix needs
    p + 1 Gauss points per direction; a quad_order below that raises.
    """
    f = _as_target(f)
    weights = _checked_weights(weights, space.n_funcs, "space dimension")
    orders = _quad_orders(space, quad_order)
    for q, p in zip(orders, space.degrees):
        if q < p + 1:
            raise ValueError(
                f"quad_order must be >= p + 1 = {p + 1} for the global mass matrix, got {q}"
            )
    X, rules = _target_on_grid(f, space, orders)
    wq = reversed_kron([w for _, w, _ in rules])
    design = reversed_kron([B for _, _, B in rules])

    # per element, its values at its Gauss points: the grid's axes
    # (element, point) per direction, regrouped as (elements, points)
    d, k = space.parametric_dim, X.shape[-1]
    cells = [m for n, q in zip(space.element_shape[::-1], orders[::-1]) for m in (n, q)]
    axes = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2)) + [2 * d]
    vals = X.reshape(cells + [k]).transpose(axes).reshape(space.n_elements, -1, k)

    support = space.supports()
    N = design @ space.extraction().transpose(0, 2, 1)
    if weights is not None:
        # local rational basis
        Nw = N * weights[support][:, None, :]
        N = Nw / Nw.sum(axis=2, keepdims=True)
    scale = np.prod(np.diff(space.bounds(), axis=2)[:, :, 0], axis=1)[:, None, None] / 2**d
    wN = wq[:, None] * N
    n = space.n_funcs
    pairs = support[:, :, None] * n + support[:, None, :]
    M = _scatter_add(pairs, scale * (N.transpose(0, 2, 1) @ wN), n * n)
    rhs = _scatter_add(support, scale * (wN.transpose(0, 2, 1) @ vals), n)
    return ControlNet(np.linalg.solve(M.reshape(n, n), rhs), weights)


def l2_error(f, space, net, quad_order=None, relative=False):
    """Parametric L2 distance between the target and a spline field."""
    f = _as_target(f)
    if not isinstance(net, ControlNet):
        net = ControlNet(net)
    # by default one Gauss point more than the projectors take
    default = [p + 4 for p in space.degrees]
    orders = _quad_orders(space, default if quad_order is None else quad_order)
    vals, rules = _target_on_grid(f, space, orders)
    S = _spline_on_grid(space, net.homogeneous(), rules)
    if net.is_rational:
        S = S[..., :-1] / S[..., -1:]

    # quadrature weight of each grid point: Gauss weight times the half
    # element length, multiplied over the directions
    wgrid = np.ones(())
    for kv, (_, wq, _) in zip(space.knot_vectors, rules):
        half = 0.5 * np.diff(kv.breakpoints)
        wgrid = np.multiply.outer((half[:, None] * wq).ravel(), wgrid)
    err2 = float(np.sum(wgrid * np.sum((vals - S) ** 2, axis=-1)))
    ref2 = float(np.sum(wgrid * np.sum(vals**2, axis=-1)))
    err = np.sqrt(err2)
    if relative:
        if ref2 == 0.0:
            raise ValueError("target has zero L2 norm; the relative error is undefined")
        return err / np.sqrt(ref2)
    return err


def lift_normals(space, net, weight_mode="approximate"):
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

    return bezier_project(unit_normal, space, weights=net.weights, weight_mode=weight_mode).net
