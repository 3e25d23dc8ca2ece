"""Every exported name resolves, the README documents the exports, and
removed names and calls stay gone."""

import ast
import dataclasses
import glob
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import bezproj
from bezproj.projection import ProjectionReport

MODULES = ["bezproj"] + [
    f"bezproj.{m.name}" for m in pkgutil.iter_modules(bezproj.__path__)
]

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _documented():
    """The names in backticks of the README's "Public API" section."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


def test_readme_lists_every_export():
    missing = [n for n in bezproj.__all__ if n not in _documented()]
    assert not missing, f"exported but not in the README's Public API list: {missing}"


def test_per_element_api_is_gone():
    gone = {
        "Element", "ElementOperators", "eval_basis_multi", "bernstein_integral",
        "local_bernstein_projection", "smoothing_weights", "multi_index_2d", "multi_index_3d",
        # a T-mesh is held and queried as arrays only
        "Anchor", "Extension", "BezierElement", "v_edges", "h_edges", "_covering", "_walk",
        # a transfer runs one way: plan_*, then apply_plan
        "h_refine", "h_coarsen", "p_elevate", "p_reduce", "k_roughen", "k_smooth",
        "reparameterize", "project_generic",
    }
    # thin readers of the arrays, kept unexported under names perfbench traces
    traced = {"gramian_inverse_multi", "bspline_basis_matrix", "local_spline_coefficients"}
    assert not [n for n in gone | traced if hasattr(bezproj, n)]
    for name in MODULES:
        module = importlib.import_module(name)
        exported = set(getattr(module, "__all__", []))
        left = [n for n in gone if hasattr(module, n)] + sorted(traced & exported)
        assert not left, f"{name} still has {left}"
    methods = {
        bezproj.SplineSpace: ["elements", "element_containing", "eval_basis",
                              "local_knot_vector", "function_elements", "local_index_of"],
        bezproj.KnotVector: ["find_span", "element_support", "function_support", "local_knots",
                             "element_index", "element_bounds"],
        bezproj.TMesh: ["vertices", "v_edges", "h_edges", "_covering", "_walk", "t_junctions",
                        "cells"],
    }
    for cls, names in methods.items():
        assert not [n for n in names if hasattr(cls, n)], cls


def test_the_command_has_one_error_boundary():
    """Errors become `Error: ...` in the command group's invoke alone;
    _exact_read's try chooses a reader and reports nothing."""
    cli = importlib.import_module("bezproj.cli")
    assert not [n for n in ("_fail", "_echo") if hasattr(cli, n)]
    tree = ast.parse(inspect.getsource(cli))
    holders = [
        f.name for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and any(isinstance(n, ast.Try) for n in ast.walk(f))
    ]
    assert sorted(holders) == ["_exact_read", "invoke"]
    assert sum(isinstance(n, ast.Try) for n in ast.walk(tree)) == 2


def test_no_option_only_tests_set():
    """Options that no caller outside the tests set are constants, and a
    projection reports its net alone."""
    removed = {
        bezproj.TargetFunction: {"vectorized", "degree"},
        bezproj.plan_k_roughen: {"inc"},
        bezproj.plan_k_smooth: {"dec"},
        bezproj.lift_normals: {"quad_order"},
        bezproj.uniform_space: {"lo", "hi"},
        bezproj.quarter_cylinder: {"radius", "length"},
    }
    for fn, names in removed.items():
        left = names & set(inspect.signature(fn).parameters)
        assert not left, f"{fn.__name__} still takes {sorted(left)}"
    assert [f.name for f in dataclasses.fields(ProjectionReport)] == ["net"]


def _defined(name):
    """Names of the functions and classes that a module's source defines, at any depth."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    return {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def test_bernstein_kernels_are_defined_once():
    """The blossom kernels live in bernstein.py; Bernstein values come from
    bernstein_rows alone (bernstein_matrix is its transpose)."""
    defined = {name: _defined(name) for name in MODULES}
    for kernel in ("_bernstein_blossoms", "_dual_functionals", "bernstein_rows"):
        assert [m for m, names in defined.items() if kernel in names] == ["bezproj.bernstein"]
    assert not [m for m, names in defined.items() if "_basis_value" in names]


def test_convergence_has_one_entry_point():
    """The ladder is run_convergence alone; the sine target is an expression."""
    for name in MODULES:
        module = importlib.import_module(name)
        assert not [n for n in ("BenchmarkConfig", "sine_target") if hasattr(module, n)], name


def test_no_matrix_inversion_in_the_package():
    src = os.path.dirname(bezproj.__file__)
    calls = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "inv":
                    calls.append(f"{os.path.basename(path)}:{node.lineno}")
    assert not calls, f"inv called at {calls}"


@pytest.mark.parametrize("module", ["tmesh", "spline_ops"])
def test_no_float_tolerance_outside_the_snapping_rule(module):
    """The T-mesh and the plans decide "the same knot" by KnotVector's rule
    alone (spline_space._SNAP_TOL), so they hold no tolerance literal."""
    path = os.path.join(os.path.dirname(bezproj.__file__), module + ".py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    small = [
        f"{module}.py:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < node.value < 1e-6
    ]
    assert not small, f"float tolerances at {small}"


@pytest.mark.parametrize("kwargs, message", [
    (dict(levels=1), "a convergence rate needs at least 2 levels"),
    (dict(degrees=(7,)), r"degrees must lie in \[1, 5\]"),
    (dict(degrees=(2.5,)), r"degrees must lie in \[1, 5\]"),
    (dict(projector="neither"), "unknown projector 'neither'"),
    (dict(target="govindjee", degrees=(1,)), "degree 1 below the geometry degree"),
    (dict(target="govindjee", degrees=(3, 1)), "degree 1 below the geometry degree"),
])
def test_run_convergence_checks_its_inputs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        bezproj.run_convergence(**{"levels": 2, **kwargs})
