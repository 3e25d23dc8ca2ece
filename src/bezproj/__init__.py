"""Local L2 projection onto spline spaces via Bezier extraction.

The package builds per-element extraction operators for B-spline,
NURBS, and analysis-suitable T-spline spaces, inverts them into
reconstruction operators, and uses the pair to project fields and to
move splines between spaces (h/p/k refinement and coarsening, knot
repositioning) without assembling or solving global systems.
"""

from .bernstein import (
    elevation_matrix,
    eval_basis,
    gramian,
    gramian_inverse,
    interval_transform,
    reduction_matrix,
)
from .benchmark import BenchmarkConfig, quarter_cylinder, run_convergence, uniform_space
from .projection import (
    TargetFunction,
    bezier_project,
    global_l2_project,
    l2_error,
    lift_normals,
    smoothing_weight_table,
)
from .spline_ops import (
    OpPlan,
    apply_plan,
    compose,
    h_coarsen,
    h_refine,
    k_roughen,
    k_smooth,
    large_to_small,
    multi_to_one,
    p_elevate,
    p_reduce,
    plan_generic,
    plan_h_coarsen,
    plan_h_refine,
    plan_k_roughen,
    plan_k_smooth,
    plan_p_elevate,
    plan_p_reduce,
    plan_reparameterize,
    project_generic,
    reparameterize,
)
from .spline_space import (
    ControlNet,
    KnotVector,
    SplineSpace,
    evaluate,
    evaluate_derivative,
    read_spline_json,
    univariate_extraction_exact,
    write_spline_json,
)
from .tensor import reversed_kron
from .tmesh import TMesh, read_tmesh_json, write_tmesh_json

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bernstein
    "eval_basis",
    "gramian",
    "gramian_inverse",
    "interval_transform",
    "elevation_matrix",
    "reduction_matrix",
    # tensor
    "reversed_kron",
    # spaces
    "KnotVector",
    "SplineSpace",
    "ControlNet",
    "evaluate",
    "evaluate_derivative",
    "read_spline_json",
    "write_spline_json",
    "univariate_extraction_exact",
    # projection
    "TargetFunction",
    "bezier_project",
    "global_l2_project",
    "l2_error",
    "lift_normals",
    "smoothing_weight_table",
    # ops
    "OpPlan",
    "apply_plan",
    "compose",
    "plan_h_refine",
    "plan_h_coarsen",
    "plan_p_elevate",
    "plan_p_reduce",
    "plan_k_roughen",
    "plan_k_smooth",
    "plan_reparameterize",
    "plan_generic",
    "project_generic",
    "h_refine",
    "h_coarsen",
    "p_elevate",
    "p_reduce",
    "k_roughen",
    "k_smooth",
    "reparameterize",
    "large_to_small",
    "multi_to_one",
    # T-meshes
    "TMesh",
    "read_tmesh_json",
    "write_tmesh_json",
    # benchmarks
    "BenchmarkConfig",
    "run_convergence",
    "uniform_space",
    "quarter_cylinder",
]
