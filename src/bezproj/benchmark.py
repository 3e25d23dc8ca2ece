"""Built-in convergence benchmarks.

Two targets are wired up:

  sine        univariate, f(x) = sin(2 pi x) on [0, 1], uniform meshes
              starting at 8 elements;
  govindjee   a scalar field over a quarter-cylinder shell (radius 1,
              length 2, quadratic NURBS arc times a linear axis),
              f = sin(3 pi x / (sqrt(2) R)) * sin(2 pi z / L) evaluated
              through the geometry map, meshes starting at 4 x 4.

Each ladder rung projects the target with the local (Bezier) projector
and with the globally assembled L2 projector, records parametric L2
errors, and reports observed convergence rates between rungs. Rational
rungs reuse the exactly refined geometry weights, so the projected
space is the rational space of the refined geometry.
"""

import ast
from dataclasses import asdict, dataclass

import numpy as np

from .projection import TargetFunction, bezier_project, global_l2_project, l2_error
from .spline_space import ControlNet, KnotVector, SplineSpace, evaluate
from .spline_ops import apply_plan, compose, plan_h_refine, plan_p_elevate

__all__ = [
    "BenchmarkConfig",
    "sine_target",
    "expression_target",
    "uniform_space",
    "quarter_cylinder",
    "run_convergence",
    "CSV_HEADER",
]

CSV_HEADER = "degree,h,n_elements,error_bezier,error_global,rate_bezier,rate_global"


def sine_target():
    return TargetFunction(lambda pts: np.sin(2.0 * np.pi * pts[:, 0]))


_EXPR_NAMESPACE = {
    "np": np,
    "pi": np.pi,
    "e": np.e,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


# Syntax an expression target may use: arithmetic, comparisons, calls.
_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call, ast.Name,
    ast.Load, ast.Attribute, ast.Constant, ast.operator, ast.unaryop, ast.cmpop,
)


def _check_expression(expr):
    """Parse expr, admitting only whitelisted syntax, the names of
    _EXPR_NAMESPACE and x, public numpy names read off np, and numbers."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"target expression {expr!r} does not parse: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            bad = f"{type(node).__name__} syntax"
        elif isinstance(node, ast.Name) and node.id not in {*_EXPR_NAMESPACE, "x"}:
            bad = f"name {node.id!r}"
        elif isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id == "np"
            and not node.attr.startswith("_") and hasattr(np, node.attr)
        ):
            bad = f"attribute {node.attr!r}"
        elif isinstance(node, ast.Constant) and not isinstance(node.value, (int, float, complex)):
            bad = f"constant {node.value!r}"
        else:
            continue
        raise ValueError(f"target expression {expr!r} uses disallowed {bad}")
    return tree


def expression_target(expr):
    """Univariate target from an expression in x, e.g. "sin(2*pi*x)*x"."""
    code = compile(_check_expression(expr), "<target>", "eval")

    def f(pts):
        ns = dict(_EXPR_NAMESPACE, x=pts[:, 0])
        return np.asarray(eval(code, {"__builtins__": {}}, ns), dtype=np.float64)

    return TargetFunction(f)


@dataclass
class BenchmarkConfig:
    """Validated configuration of one convergence run.

    target is "sine", "govindjee", or an expression in x for a custom
    univariate target on [0, 1].
    """

    target: str = "sine"
    degrees: tuple = (2, 3)
    levels: int = 5
    weighting: str = "approximate"
    projector: str = "both"
    quad_order: int = None

    def __post_init__(self):
        self.degrees = tuple(int(p) for p in self.degrees)
        if self.levels < 2:
            raise ValueError("a convergence rate needs at least 2 levels")
        if any(not 1 <= p <= 5 for p in self.degrees):
            raise ValueError("degrees must lie in [1, 5]")
        if self.projector not in ("bezier", "global", "both"):
            raise ValueError(f"unknown projector {self.projector!r}")

    def run(self):
        return run_convergence(**asdict(self))


def uniform_space(degree, n_elements, lo=0.0, hi=1.0):
    """Maximally smooth uniform univariate space on [lo, hi]."""
    bp = np.linspace(lo, hi, n_elements + 1)
    knots = np.concatenate([[lo] * degree, bp, [hi] * degree])
    return SplineSpace([KnotVector(knots, degree)])


def quarter_cylinder(radius=1.0, length=2.0):
    """Quarter-cylinder shell as a biquadratic-by-linear NURBS surface.

    The arc runs in the xy-plane from (0, 0) to (sqrt(2) R, 0); the axis
    is z in [0, length]. Returns (space, net).
    """
    s = np.sqrt(2.0) / 2.0
    c = np.sqrt(2.0) * radius
    kv1 = KnotVector([0, 0, 0, 1, 1, 1], 2)
    kv2 = KnotVector([0, 0, 1, 1], 1)
    arc = np.array([[0.0, 0.0], [c / 2.0, c / 2.0], [c, 0.0]])
    pts = np.zeros((6, 3))
    pts[0:3, 0:2] = arc
    pts[3:6, 0:2] = arc
    pts[3:6, 2] = length
    weights = np.array([1.0, s, 1.0, 1.0, s, 1.0])
    return SplineSpace([kv1, kv2]), ControlNet(pts, weights)


def _govindjee_target(radius=1.0, length=2.0):
    space0, net0 = quarter_cylinder(radius, length)
    c = np.sqrt(2.0) * radius

    def f(pts):
        x = evaluate(space0, net0, pts)
        return np.sin(3.0 * np.pi * x[:, 0] / c) * np.sin(2.0 * np.pi * x[:, 2] / length)

    return space0, net0, TargetFunction(f)


def _govindjee_rung(space0, net0, degree, n):
    """Space and weights for an n x n rung at the given (equal) degree."""
    plans = []
    if (degree, degree) != space0.degrees:
        inc = [degree - p for p in space0.degrees]
        if min(inc) < 0:
            raise ValueError(f"degree {degree} below the geometry degree")
        plans.append(plan_p_elevate(space0, inc))
        cur = plans[-1].target
    else:
        cur = space0
    interior = np.linspace(0.0, 1.0, n + 1)[1:-1]
    if interior.size:
        plans.append(plan_h_refine(cur, {0: interior, 1: interior}))
        cur = plans[-1].target
    if plans:
        net = apply_plan(compose(*plans), net0)
    else:
        net = net0
    return cur, net.weights


def _rates(hs, errs):
    out = [None]
    for k in range(1, len(errs)):
        if errs[k] > 0 and errs[k - 1] > 0:
            out.append(np.log(errs[k - 1] / errs[k]) / np.log(hs[k - 1] / hs[k]))
        else:
            out.append(None)
    return out


def run_convergence(
    target="sine",
    degrees=(2, 3),
    levels=5,
    weighting="approximate",
    projector="both",
    quad_order=None,
):
    """Run a refinement ladder; returns a list of row dicts.

    Row keys match CSV_HEADER. Unavailable entries (first-rung rates,
    or the column of a projector that was not run) are None.
    """
    if target == "sine":
        base = 8
        f = sine_target()
    elif target == "govindjee":
        base = 4
        space0, net0, f = _govindjee_target()
    else:
        base = 8
        f = expression_target(target)
    do_b = projector in ("bezier", "both")
    do_g = projector in ("global", "both")
    if not (do_b or do_g):
        raise ValueError(f"unknown projector {projector!r}")

    rows = []
    for p in degrees:
        hs, errs_b, errs_g, counts = [], [], [], []
        for lv in range(levels):
            n = base * 2**lv
            if target == "govindjee":
                space, weights = _govindjee_rung(space0, net0, p, n)
            else:
                space = uniform_space(p, n)
                weights = None
            hs.append(1.0 / n)
            counts.append(space.n_elements)
            if do_b:
                rep = bezier_project(
                    f, space, weights=weights, weight_mode=weighting,
                    quad_order=quad_order,
                )
                errs_b.append(l2_error(f, space, rep.net, quad_order=quad_order))
            if do_g:
                gnet = global_l2_project(f, space, weights=weights, quad_order=quad_order)
                errs_g.append(l2_error(f, space, gnet, quad_order=quad_order))
        rb = _rates(hs, errs_b) if do_b else [None] * levels
        rg = _rates(hs, errs_g) if do_g else [None] * levels
        for k in range(levels):
            rows.append(
                {
                    "degree": p,
                    "h": hs[k],
                    "n_elements": counts[k],
                    "error_bezier": errs_b[k] if do_b else None,
                    "error_global": errs_g[k] if do_g else None,
                    "rate_bezier": rb[k],
                    "rate_global": rg[k],
                }
            )
    return rows


def rows_to_csv(rows):
    lines = [CSV_HEADER]
    for r in rows:
        cells = [str(r["degree"]), f"{r['h']:.10g}", str(r["n_elements"])]
        for key in ("error_bezier", "error_global"):
            cells.append("" if r[key] is None else f"{r[key]:.12e}")
        for key in ("rate_bezier", "rate_global"):
            cells.append("" if r[key] is None else f"{r[key]:.6f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
