import gc
import io
import json
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import bezier_extraction_ref, fraction_inverse_ref, l2_change_ref

import bezproj
from bezproj import spline_ops
from bezproj.benchmark import CSV_HEADER, expression_target
from bezproj.cli import _default_coarsen, _l2_change, main
from bezproj.spline_space import (
    ControlNet,
    KnotVector,
    SplineSpace,
    evaluate,
    read_spline_json,
    univariate_extraction_exact,
    write_spline_json,
)
from bezproj.tensor import reversed_kron
from bezproj.tmesh import read_tmesh_json


@pytest.fixture
def runner():
    return CliRunner()


def _quadratic_curve(path):
    space = SplineSpace([KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)])
    net = ControlNet(np.array([[0.0, 0.0], [1.0, 2.0], [2.5, 1.0], [3.0, 0.0]]))
    write_spline_json(path, space, net)
    return space, net


def _quarter_circle(path):
    s = np.sqrt(2.0) / 2.0
    space = SplineSpace([KnotVector([0, 0, 0, 1, 1, 1], 2)])
    net = ControlNet(
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        weights=np.array([1.0, s, 1.0]),
    )
    write_spline_json(path, space, net)
    return space, net


def _parse_matrix(output, label):
    """Grab the token rows printed under a `label` heading."""
    lines = output.splitlines()
    start = lines.index(label) + 1
    rows = []
    for line in lines[start:]:
        line = line.strip()
        if not line.startswith("["):
            break
        rows.append(line.strip("[]").split())
    return rows


# ------------------------------------------------------------------- op


def test_op_h_refine(runner, tmp_path):
    src = tmp_path / "curve.json"
    dst = tmp_path / "fine.json"
    space, net = _quadratic_curve(src)
    result = runner.invoke(
        main, ["op", "h-refine", "--in", str(src), "--out", str(dst), "--knots", "0.2,0.7"]
    )
    assert result.exit_code == 0, result.output
    assert "h-refine: 2 -> 4 elements" in result.output
    assert "exact: yes" in result.output
    assert "L2 change" not in result.output
    assert f"wrote {dst}" in result.output

    out_space, out_net = read_spline_json(dst)
    ts = np.linspace(0.0, 1.0, 41).reshape(-1, 1)
    assert np.allclose(
        evaluate(space, net, ts), evaluate(out_space, out_net, ts), atol=1e-12
    )


def test_op_h_coarsen_default_split(runner, tmp_path):
    src = tmp_path / "curve.json"
    mid = tmp_path / "fine.json"
    dst = tmp_path / "coarse.json"
    _quadratic_curve(src)
    runner.invoke(main, ["op", "h-refine", "--in", str(src), "--out", str(mid),
                         "--knots", "0.2,0.7"])
    result = runner.invoke(main, ["op", "h-coarsen", "--in", str(mid), "--out", str(dst)])
    assert result.exit_code == 0, result.output
    assert "exact: no" in result.output
    assert "L2 change:" in result.output
    # removing every second interior breakpoint: 4 -> 2 elements
    assert "h-coarsen: 4 -> 2 elements" in result.output


def test_op_h_coarsen_nothing_to_remove(runner, tmp_path):
    src = tmp_path / "arc.json"
    _quarter_circle(src)
    result = runner.invoke(
        main, ["op", "h-coarsen", "--in", str(src), "--out", str(tmp_path / "o.json")]
    )
    assert result.exit_code == 1
    assert "nothing to coarsen" in result.output


def test_op_p_elevate_to_degree(runner, tmp_path):
    src = tmp_path / "curve.json"
    dst = tmp_path / "cubic.json"
    space, net = _quadratic_curve(src)
    result = runner.invoke(
        main, ["op", "p-elevate", "--in", str(src), "--out", str(dst), "--degree", "4"]
    )
    assert result.exit_code == 0, result.output
    assert "exact: yes" in result.output
    out_space, out_net = read_spline_json(dst)
    assert out_space.degrees == (4,)
    ts = np.linspace(0.0, 1.0, 31).reshape(-1, 1)
    assert np.allclose(
        evaluate(space, net, ts), evaluate(out_space, out_net, ts), atol=1e-12
    )


def test_op_p_elevate_rejects_lower_degree(runner, tmp_path):
    src = tmp_path / "curve.json"
    _quadratic_curve(src)
    result = runner.invoke(
        main, ["op", "p-elevate", "--in", str(src), "--out",
               str(tmp_path / "o.json"), "--degree", "2"]
    )
    assert result.exit_code == 1
    assert "does not p elevate" in result.output


def test_op_reparam_needs_knots(runner, tmp_path):
    src = tmp_path / "curve.json"
    _quadratic_curve(src)
    result = runner.invoke(
        main, ["op", "reparam", "--in", str(src), "--out", str(tmp_path / "o.json")]
    )
    assert result.exit_code == 1
    assert "reparam needs --knots" in result.output


def test_op_reparam_onto_current_breakpoints_is_exact(runner, tmp_path):
    src = tmp_path / "curve.json"
    dst = tmp_path / "same.json"
    space, net = _quadratic_curve(src)
    result = runner.invoke(
        main, ["op", "reparam", "--in", str(src), "--out", str(dst), "--knots", "0.4"]
    )
    assert result.exit_code == 0, result.output
    assert "exact: yes" in result.output
    assert "L2 change" not in result.output
    out_space, out_net = read_spline_json(dst)
    assert out_space == space
    assert np.allclose(out_net.points, net.points, atol=1e-14)


def test_op_rejects_excess_knot_groups(runner, tmp_path):
    src = tmp_path / "curve.json"
    _quadratic_curve(src)
    result = runner.invoke(
        main, ["op", "h-refine", "--in", str(src), "--out", str(tmp_path / "o.json"),
               "--knots", "0.1", "--knots", "0.2"]
    )
    assert result.exit_code == 1
    assert "2 times for 1 directions" in result.output


def test_op_surface_per_direction_knots(runner, tmp_path):
    src = tmp_path / "surf.json"
    dst = tmp_path / "out.json"
    sp = SplineSpace(
        [KnotVector([0, 0, 0, 1, 1, 1], 2), KnotVector([0, 0, 1, 1], 1)]
    )
    pts = np.random.default_rng(7).normal(size=(sp.n_funcs, 3))
    write_spline_json(src, sp, ControlNet(pts))
    result = runner.invoke(
        main, ["op", "h-refine", "--in", str(src), "--out", str(dst),
               "--knots", "0.5", "--knots", "0.25,0.75"]
    )
    assert result.exit_code == 0, result.output
    assert "h-refine: 1 -> 6 elements" in result.output
    out_space, _ = read_spline_json(dst)
    assert out_space.knot_vectors[0].n_elements == 2
    assert out_space.knot_vectors[1].n_elements == 3


def _random_field(rng, degrees, n):
    """A polynomial spline with n functions per direction on random
    interior breakpoints of multiplicity 1, with random points in the
    unit square."""
    kvs = []
    for p, m in zip(degrees, n):
        interior = np.sort(rng.uniform(0.05, 0.95, m - p - 1))
        kvs.append(KnotVector(np.r_[[0.0] * (p + 1), interior, [1.0] * (p + 1)], p))
    space = SplineSpace(kvs)
    return space, ControlNet(rng.random((space.n_funcs, 2)))


def _coarsen(space):
    """The plan of `bezproj op h-coarsen` without --knots."""
    return spline_ops.plan_h_coarsen(space, _default_coarsen(space))


@pytest.mark.parametrize(
    "plan, degrees, n",
    [
        (_coarsen, (1,), (16,)),
        (_coarsen, (3,), (12,)),
        (_coarsen, (2, 1), (8, 6)),
        (spline_ops.plan_p_reduce, (2,), (16,)),
        (spline_ops.plan_p_reduce, (4,), (11,)),
        (spline_ops.plan_p_reduce, (2, 3), (7, 8)),
    ],
    ids=["coarsen p1", "coarsen p3", "coarsen 2d", "reduce p2", "reduce p4", "reduce 2d"],
)
def test_l2_change_integrates_across_the_breakpoints_the_target_lacks(plan, degrees, n):
    """The target lacks source breakpoints, so per target element the
    source field has kinks; a Gauss rule on the target elements alone
    was off by up to 22% in these cases."""
    space, net = _random_field(np.random.default_rng(sum(n)), degrees, n)
    op = plan(space)
    out = spline_ops.apply_plan(op, net)
    ref = l2_change_ref(space, net, op.target, out)
    assert abs(_l2_change(space, net, op.target, out) - ref) <= 1e-12 * ref


def test_op_prints_the_l2_change_of_the_written_net(runner, tmp_path):
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    space, net = _random_field(np.random.default_rng(5), (2,), (16,))
    write_spline_json(src, space, net)
    result = runner.invoke(main, ["op", "p-reduce", "--in", str(src), "--out", str(dst)])
    assert result.exit_code == 0, result.output
    (line,) = [s for s in result.output.splitlines() if s.startswith("L2 change: ")]
    got = float(line.split(": ")[1])
    ref = l2_change_ref(space, net, *read_spline_json(dst))
    assert abs(got - ref) <= 5e-7 * ref


# -------------------------------------------------------------- extract


def test_extract_exact_rationals(runner, tmp_path):
    src = tmp_path / "int_knots.json"
    payload = {
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": [2],
        "knot_vectors": [[0, 0, 0, 1, 2, 2, 2]],
        "control_points": [[0.0], [1.0], [2.0], [3.0]],
    }
    src.write_text(json.dumps(payload))
    result = runner.invoke(main, ["extract", "--in", str(src), "--element", "0"])
    assert result.exit_code == 0, result.output
    C = _parse_matrix(result.output, "C:")
    R = _parse_matrix(result.output, "R:")
    assert C == [["1", "0", "0"], ["0", "1", "1/2"], ["0", "0", "1/2"]]
    assert R == [["1", "0", "0"], ["0", "1", "-1"], ["0", "0", "2"]]
    # univariate output has no per-direction factor blocks
    assert "C factor" not in result.output


def test_extract_fraction_string_knots(runner, tmp_path):
    src = tmp_path / "frac_knots.json"
    payload = {
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": [2],
        "knot_vectors": [["0", "0", "0", "1/3", "1", "1", "1"]],
        "control_points": [[0.0], [1.0], [2.0], [3.0]],
    }
    src.write_text(json.dumps(payload))
    result = runner.invoke(main, ["extract", "--in", str(src), "--element", "1"])
    assert result.exit_code == 0, result.output
    C = _parse_matrix(result.output, "C:")
    # second element of [0,0,0,1/3,1,1,1]: window fractions stay exact
    assert C == [["2/3", "0", "0"], ["1/3", "1", "0"], ["0", "0", "1"]]


def test_extract_tensor_prints_factors(runner, tmp_path):
    src = tmp_path / "surf_int.json"
    payload = {
        "parametric_dim": 2,
        "physical_dim": 1,
        "degrees": [2, 1],
        "knot_vectors": [[0, 0, 0, 1, 2, 2, 2], [0, 0, 1, 1]],
        "control_points": [[float(i)] for i in range(8)],
    }
    src.write_text(json.dumps(payload))
    result = runner.invoke(main, ["extract", "--in", str(src), "--element", "0"])
    assert result.exit_code == 0, result.output
    assert "C factor, direction 0:" in result.output
    assert "C factor, direction 1:" in result.output
    C = _parse_matrix(result.output, "C:")
    assert len(C) == 6 and len(C[0]) == 6


def test_extract_exact_tensor_first_middle_and_last_element(runner, tmp_path):
    """The printed factors and C of the first, a middle and the last
    element match the full exact extraction."""
    knots = [["0", "0", "0", "1/4", "1/2", "3/4", "1", "1", "1"], [0, 0, 0, 0, 1, 3, 3, 3, 3]]
    degrees = [2, 3]
    src = tmp_path / "surf_exact.json"
    src.write_text(json.dumps({
        "parametric_dim": 2,
        "physical_dim": 1,
        "degrees": degrees,
        "knot_vectors": knots,
        "control_points": [[0.0]] * (6 * 5),
    }))
    full = [
        univariate_extraction_exact([Fraction(u) for u in G], p)
        for G, p in zip(knots, degrees)
    ]
    assert [len(ops) for ops in full] == [4, 2]
    for element, spans in ((0, (0, 0)), (5, (1, 1)), (7, (3, 1))):
        result = runner.invoke(main, ["extract", "--in", str(src), "--element", str(element)])
        assert result.exit_code == 0, result.output
        factors = [ops[k] for ops, k in zip(full, spans)]
        for d, F in enumerate(factors):
            printed = _parse_matrix(result.output, f"C factor, direction {d}:")
            assert printed == [[str(x) for x in row] for row in F]
        C = reversed_kron([np.array(F, dtype=object) for F in factors])
        assert _parse_matrix(result.output, "C:") == [[str(x) for x in row] for row in C]


def test_extract_exact_every_element_matches_knot_insertion(runner, tmp_path):
    """Every element of an exact bicubic 6 x 5 file, with repeated knots:
    the printed factors, C and R are those of knot insertion."""
    knots = [
        [0, 0, 0, 0, "1/7", "1/3", "1/3", "1/2", "2/3", "4/5", "4/5", "4/5", 1, 1, 1, 1],
        ["-1", "-1", "-1", "-1", "-1/2", "1/9", "1/9", "2/3", "5/2", 3, 3, 3, 3],
    ]
    src = tmp_path / "bicubic.json"
    src.write_text(json.dumps({
        "parametric_dim": 2,
        "physical_dim": 1,
        "degrees": [3, 3],
        "knot_vectors": knots,
        "control_points": [[0.0]] * (12 * 9),
    }))
    ref = [bezier_extraction_ref([Fraction(u) for u in G], 3) for G in knots]
    assert [len(ops) for ops in ref] == [6, 5]
    for element in range(30):
        result = runner.invoke(main, ["extract", "--in", str(src), "--element", str(element)])
        assert result.exit_code == 0, result.output
        factors = [ref[0][element % 6], ref[1][element // 6]]
        for d, F in enumerate(factors):
            printed = _parse_matrix(result.output, f"C factor, direction {d}:")
            assert printed == [[str(x) for x in row] for row in F]
        C = reversed_kron([np.array(F, dtype=object) for F in factors]).tolist()
        assert _parse_matrix(result.output, "C:") == [[str(x) for x in row] for row in C]
        R = fraction_inverse_ref(C)
        assert _parse_matrix(result.output, "R:") == [[str(x) for x in row] for row in R]


def test_extract_exact_rejects_knots_that_merge_as_floats(runner, tmp_path):
    """1/2 + 2^-50 is a knot of its own in exact arithmetic, but the float
    space snaps it onto 1/2, so its element 1 is [1/2, 1]: the exact path
    must not print the operator of the sliver [1/2, 1/2 + 2^-50]."""
    src = tmp_path / "sliver.json"
    src.write_text(json.dumps({
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": [2],
        "knot_vectors": [[0, 0, 0, "1/2", "562949953421313/1125899906842624", 1, 1, 1]],
        "control_points": [[0.0]] * 5,
    }))
    assert read_spline_json(str(src))[0].n_elements == 2
    result = runner.invoke(main, ["extract", "--in", str(src), "--element", "1"])
    assert result.exit_code == 1
    assert "direction 0: 3 exact nonzero spans but 2 float elements" in result.output


def test_extract_decimal_fallback(runner, tmp_path):
    src = tmp_path / "float_knots.json"
    space = SplineSpace([KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)])
    write_spline_json(src, space, ControlNet(np.zeros((4, 1))))
    result = runner.invoke(main, ["extract", "--in", str(src), "--element", "0"])
    assert result.exit_code == 0, result.output
    assert "/" not in result.output.split("C:")[1]


def test_extract_float_prints_the_library_operators(runner, tmp_path):
    """With float knots, extract prints, entry for entry, the C and R that
    the library applies to each element, R = space.reconstruction()."""
    src = tmp_path / "float_surface.json"
    space = SplineSpace([
        KnotVector([0, 0, 0, 0.3, 0.45, 1, 1, 1], 2),
        KnotVector([0, 0, 0, 0.1, 0.7, 0.7, 1, 1, 1], 2),
    ])
    write_spline_json(src, space, ControlNet(np.zeros((space.n_funcs, 1))))
    for e in range(space.n_elements):
        result = runner.invoke(main, ["extract", "--in", str(src), "--element", str(e)])
        assert result.exit_code == 0, result.output
        for label, ops in (("C:", space.extraction), ("R:", space.reconstruction)):
            printed = np.array(_parse_matrix(result.output, label), dtype=float)
            assert np.array_equal(printed, ops([e])[0]), (e, label)


def test_in_process_extract_frees_captured_output(tmp_path):
    src = tmp_path / "curve.json"
    _quadratic_curve(src)
    buf = io.StringIO()
    with redirect_stdout(buf):
        main.main(
            args=["extract", "--in", str(src), "--element", "0"],
            prog_name="bezproj", standalone_mode=False,
        )
    assert "R:" in buf.getvalue()
    captured = weakref.ref(buf)
    del buf
    gc.collect()
    assert captured() is None


def test_extract_element_out_of_range(runner, tmp_path):
    src = tmp_path / "curve.json"
    _quadratic_curve(src)
    result = runner.invoke(main, ["extract", "--in", str(src), "--element", "5"])
    assert result.exit_code == 1
    assert "outside 0..1" in result.output


def _extract_linear(runner, tmp_path, **changes):
    """bezproj extract on a valid degree-1 curve file with some keys replaced."""
    payload = {
        "parametric_dim": 1,
        "physical_dim": 2,
        "degrees": [1],
        "knot_vectors": [[0, 0, 1, 1]],
        "control_points": [[0, 0], [1, 1]],
    }
    payload.update(changes)
    src = tmp_path / "linear.json"
    src.write_text(json.dumps(payload))
    return runner.invoke(main, ["extract", "--in", str(src), "--element", "0"])


def _assert_rejected(result, what):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: ") and what in result.output


def test_extract_rejects_empty_control_points(runner, tmp_path):
    _assert_rejected(_extract_linear(runner, tmp_path, control_points=[]), "control_points")


def test_extract_rejects_flat_control_points(runner, tmp_path):
    _assert_rejected(_extract_linear(runner, tmp_path, control_points=[0, 1]), "control_points")


def test_extract_rejects_null_control_point(runner, tmp_path):
    result = _extract_linear(runner, tmp_path, control_points=[[None, 0], [1, 1]])
    _assert_rejected(result, "control_points")


def test_extract_rejects_overflowing_control_point(runner, tmp_path):
    result = _extract_linear(runner, tmp_path, control_points=[["1e400", 0], [1, 1]])
    _assert_rejected(result, "control_points")


def test_extract_rejects_fractional_degree(runner, tmp_path):
    _assert_rejected(_extract_linear(runner, tmp_path, degrees=[1.5]), "degrees")


@pytest.mark.parametrize("key", ["parametric_dim", "physical_dim"])
def test_extract_rejects_non_integer_dimensions(runner, tmp_path, key):
    result = _extract_linear(runner, tmp_path, **{key: 1.7 if key == "parametric_dim" else 2.5})
    _assert_rejected(result, f"{key} must be integers")


def test_extract_rejects_boolean_knots(runner, tmp_path):
    """[false, false, true, true] would otherwise print the exact operators
    of the knots 0, 0, 1, 1."""
    result = _extract_linear(runner, tmp_path, knot_vectors=[[False, False, True, True]])
    _assert_rejected(result, 'knot_vectors must hold numbers or "n/d" strings (booleans')


def test_extract_rejects_a_file_that_is_not_a_json_object(runner, tmp_path):
    """A file holding a JSON string was read as the path of another file."""
    src, wrapper = tmp_path / "curve.json", tmp_path / "wrapper.json"
    _quadratic_curve(src)
    wrapper.write_text(json.dumps(str(src)))
    result = runner.invoke(main, ["extract", "--in", str(wrapper), "--element", "0"])
    _assert_rejected(result, "expected a JSON object, got str")


def test_op_names_a_degrees_field_that_is_not_a_list(runner, tmp_path):
    src = tmp_path / "curve.json"
    _quadratic_curve(src)
    src.write_text(json.dumps(dict(json.loads(src.read_text()), degrees=2)))
    result = runner.invoke(
        main, ["op", "h-refine", "--in", str(src), "--out", str(tmp_path / "o.json")]
    )
    _assert_rejected(result, "degrees must be a list, got 2")


# ---------------------------------------------------------- convergence


def test_convergence_stdout_csv(runner):
    result = runner.invoke(
        main, ["convergence", "--degrees", "2", "--levels", "2", "--projector", "both"]
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == "2" and second[0] == "2"
    assert first[2] == "8" and second[2] == "16"
    # first rung has no rate yet
    assert first[5] == "" and first[6] == ""
    rate = float(second[5])
    assert 2.5 < rate < 3.5
    # errors drop under refinement for both projectors
    assert float(second[3]) < float(first[3])
    assert float(second[4]) < float(first[4])


def test_convergence_single_projector_blanks_other_column(runner):
    result = runner.invoke(
        main, ["convergence", "--degrees", "2", "--levels", "2", "--projector", "bezier"]
    )
    assert result.exit_code == 0, result.output
    rows = [ln.split(",") for ln in result.output.strip().splitlines()[1:]]
    assert all(r[4] == "" and r[6] == "" for r in rows)
    assert all(r[3] != "" for r in rows)


def test_convergence_expression_target(runner):
    result = runner.invoke(
        main,
        ["convergence", "--target", "x*x - x", "--degrees", "2", "--levels", "2",
         "--projector", "bezier"],
    )
    assert result.exit_code == 0, result.output
    rows = [ln.split(",") for ln in result.output.strip().splitlines()[1:]]
    # quadratic target is reproduced to rounding on every rung
    assert all(float(r[3]) < 1e-13 for r in rows)


def test_expression_target_allows_numpy_functions():
    f = expression_target("np.sin(2*pi*x) + exp(-x**2) * abs(x - 0.5) / 3")
    x = np.linspace(0, 1, 5)
    ref = np.sin(2 * np.pi * x) + np.exp(-(x**2)) * np.abs(x - 0.5) / 3
    assert np.allclose(f(x[:, None])[:, 0], ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "expr",
    [
        "().__class__.__base__.__subclasses__().__len__() + 0*x",
        "x.__class__",
        "np._core",
        "np.sin(x).real",
        "open('f') + x",
        "np.save('f', x)",
        "__import__('os')",
        "y + x",
        "[t for t in x]",
        "lambda: x",
    ],
)
def test_expression_target_rejects_escapes(expr):
    with pytest.raises(ValueError, match="target expression"):
        expression_target(expr)


def test_convergence_rejects_unsafe_expression(runner):
    result = runner.invoke(
        main,
        ["convergence", "--target", "().__class__.__base__.__subclasses__().__len__() + 0*x",
         "--degrees", "2", "--levels", "2", "--projector", "bezier"],
    )
    assert result.exit_code == 1
    assert "target expression" in result.output


def test_convergence_reports_expression_evaluation_errors(runner):
    result = runner.invoke(
        main, ["convergence", "--target", "x(1)", "--levels", "2", "--projector", "bezier"]
    )
    assert result.exit_code == 1
    assert "Error: target expression 'x(1)' failed to evaluate: TypeError" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_convergence_global_rejects_quad_order_below_p_plus_one(runner):
    """It printed numpy's "Singular matrix", which does not name the option."""
    result = runner.invoke(
        main,
        ["convergence", "--quad-order", "1", "--projector", "global", "--levels", "2",
         "--degrees", "2"],
    )
    _assert_rejected(result, "Error: quad_order must be >= p + 1 = 3")


@pytest.mark.parametrize("order", ["0", "-1"])
def test_convergence_rejects_quad_order_below_one(runner, order):
    result = runner.invoke(
        main, ["convergence", "--levels", "2", "--projector", "bezier", "--quad-order", order]
    )
    assert result.exit_code == 1
    assert f"Error: quad_order must be >= 1, got {order}" in result.output
    assert "Traceback" not in result.output


def test_convergence_out_file(runner, tmp_path):
    out = tmp_path / "ladder.csv"
    result = runner.invoke(
        main, ["convergence", "--degrees", "2,3", "--levels", "2",
               "--projector", "bezier", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert f"wrote 4 rows to {out}" in result.output
    text = out.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert len(text.strip().splitlines()) == 5


def test_convergence_rejects_bad_degree(runner):
    result = runner.invoke(main, ["convergence", "--degrees", "7", "--levels", "2"])
    assert result.exit_code == 1
    assert "degrees must lie in [1, 5]" in result.output


def test_convergence_rejects_single_level(runner):
    result = runner.invoke(main, ["convergence", "--levels", "1"])
    assert result.exit_code == 1
    assert "at least 2 levels" in result.output


# --------------------------------------------------------- lift-normals


def test_lift_normals_cli(runner, tmp_path):
    src = tmp_path / "arc.json"
    dst = tmp_path / "normals.json"
    _quarter_circle(src)
    result = runner.invoke(
        main, ["lift-normals", "--in", str(src), "--out", str(dst)]
    )
    assert result.exit_code == 0, result.output
    assert "control vector magnitudes:" in result.output
    lo, hi = result.output.split("magnitudes:")[1].split("\n")[0].split("..")
    assert float(hi) >= float(lo) > 0.0

    payload = json.loads(dst.read_text())
    vecs = np.array(payload["normal_vectors"])
    assert vecs.shape == (3, 2)
    # circle: lifted normal field is the inward-pointing position field
    assert np.allclose(vecs, -np.array(payload["control_points"]), atol=1e-10)


def test_lift_normals_cli_on_a_c0_curve(runner, tmp_path):
    """The hodograph of a curve with a C0 breakpoint was not a valid spline."""
    src = tmp_path / "c0.json"
    sp = SplineSpace([KnotVector([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)])
    write_spline_json(src, sp, ControlNet([[0, 0], [1, 1], [2, 0], [3, 1], [4, 0]]))
    dst = tmp_path / "normals.json"
    result = runner.invoke(main, ["lift-normals", "--in", str(src), "--out", str(dst)])
    assert result.exit_code == 0, result.output
    vecs = np.array(json.loads(dst.read_text())["normal_vectors"])
    assert vecs.shape == (5, 2) and np.all(np.isfinite(vecs))


def test_lift_normals_rejects_surface(runner, tmp_path):
    src = tmp_path / "surf.json"
    sp = SplineSpace(
        [KnotVector([0, 0, 1, 1], 1), KnotVector([0, 0, 1, 1], 1)]
    )
    write_spline_json(src, sp, ControlNet(np.zeros((4, 2))))
    result = runner.invoke(
        main, ["lift-normals", "--in", str(src), "--out", str(tmp_path / "o.json")]
    )
    assert result.exit_code == 1


def test_lift_normals_names_a_missing_field(runner, tmp_path):
    src = tmp_path / "arc.json"
    _quarter_circle(src)
    data = json.loads(src.read_text())
    del data["knot_vectors"]
    src.write_text(json.dumps(data))
    result = runner.invoke(
        main, ["lift-normals", "--in", str(src), "--out", str(tmp_path / "o.json")]
    )
    _assert_rejected(result, "missing field 'knot_vectors'")


# ---------------------------------------------------------------- tmesh


def test_tmesh_check_as_pass(runner, fixtures_dir):
    path = os.path.join(fixtures_dir, "tmesh_ext_right.json")
    result = runner.invoke(main, ["tmesh", "check-as", "--in", path])
    assert result.exit_code == 0, result.output
    assert "analysis-suitable: yes" in result.output


def test_tmesh_check_as_fail(runner, fixtures_dir):
    path = os.path.join(fixtures_dir, "tmesh_ext_left.json")
    result = runner.invoke(main, ["tmesh", "check-as", "--in", path])
    assert result.exit_code == 1
    assert "analysis-suitable: no" in result.output
    hits = [ln for ln in result.output.splitlines() if "intersects" in ln]
    assert len(hits) == 3
    assert all("extension of junction (10, 9)" in ln for ln in hits)


def test_tmesh_anchors_listing(runner, fixtures_dir):
    path = os.path.join(fixtures_dir, "tmesh_a.json")
    mesh = read_tmesh_json(path)
    result = runner.invoke(main, ["tmesh", "anchors", "--in", path])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == len(mesh.anchors())
    assert lines[0].startswith("0: cell x=[")


def test_tmesh_local_kv(runner, fixtures_dir):
    path = os.path.join(fixtures_dir, "tmesh_a.json")
    mesh = read_tmesh_json(path)
    (idx,) = np.flatnonzero((mesh.anchors() == [(4, 8), (3, 7)]).all(axis=(1, 2)))
    result = runner.invoke(
        main, ["tmesh", "local-kv", "--in", path, "--anchor", str(idx)]
    )
    assert result.exit_code == 0, result.output
    assert "indices 1: [3, 4, 8, 10]" in result.output
    assert "indices 2: [2, 3, 7, 9]" in result.output
    assert "knots 1: [0.0, 1.0, 5.0, 7.0]" in result.output
    assert "knots 2: [0.0, 0.0, 4.0, 6.0]" in result.output


def test_tmesh_local_kv_out_of_range(runner, fixtures_dir):
    path = os.path.join(fixtures_dir, "tmesh_a.json")
    result = runner.invoke(main, ["tmesh", "local-kv", "--in", path, "--anchor", "999"])
    assert result.exit_code == 1
    assert "outside" in result.output


def test_tmesh_extract_output(runner, fixtures_dir):
    path = os.path.join(fixtures_dir, "tmesh_ext_right.json")
    result = runner.invoke(main, ["tmesh", "extract", "--in", path, "--element", "0"])
    assert result.exit_code == 0, result.output
    assert "bounds:" in result.output and "anchors:" in result.output
    C = _parse_matrix(result.output, "C:")
    R = _parse_matrix(result.output, "R:")
    assert len(C) == 16 and len(C[0]) == 16
    assert len(R) == 16
    Cf = np.array([[float(x) for x in row] for row in C])
    Rf = np.array([[float(x) for x in row] for row in R])
    assert np.allclose(Cf @ Rf, np.eye(16), atol=1e-9)


def test_tmesh_rejects_null_knot(runner, fixtures_dir, tmp_path):
    with open(os.path.join(fixtures_dir, "tmesh_d.json")) as fh:
        data = json.load(fh)
    data["knot_vectors"][0][4] = None
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["tmesh", "anchors", "--in", str(path)])
    _assert_rejected(result, "knot_vectors")
    assert "Traceback" not in result.output


def test_tmesh_rejects_boolean_vertex(runner, fixtures_dir, tmp_path):
    with open(os.path.join(fixtures_dir, "tmesh_d.json")) as fh:
        data = json.load(fh)
    data["vertices"][0] = [True, True]
    src = tmp_path / "bool_vertex.json"
    src.write_text(json.dumps(data))
    result = runner.invoke(main, ["tmesh", "anchors", "--in", str(src)])
    _assert_rejected(result, "vertex [True, True] must be two integers")


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(degrees=2), "degrees must be a list, got 2"),
        (dict(knot_vectors=5), "knot_vectors must be a list, got 5"),
        (dict(vertices=7), "vertices must be a list, got 7"),
        (dict(edges=None), "edges must be a list, got None"),
        (None, "expected a JSON object, got list"),
    ],
    ids=["degrees", "knot_vectors", "vertices", "edges", "array"],
)
def test_tmesh_reader_names_a_malformed_field(runner, fixtures_dir, tmp_path, change, message):
    with open(os.path.join(fixtures_dir, "tmesh_a.json")) as fh:
        data = json.load(fh)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(list(data.values()) if change is None else dict(data, **change)))
    result = runner.invoke(main, ["tmesh", "anchors", "--in", str(path)])
    _assert_rejected(result, message)


def test_tmesh_local_kv_names_a_short_anchor(runner, fixtures_dir, tmp_path):
    """An anchor without enough crossed entities is named by its position
    and its spans, as `tmesh anchors` lists it."""
    G = [0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7]
    frame = [(1, 1, 1, 14), (1, 14, 7, 14), (7, 14, 14, 14), (14, 1, 14, 14)]
    edges = frame + [(1, 1, 7, 1), (7, 1, 14, 1), (7, 1, 7, 7), (7, 7, 7, 14)]
    vertices = [(1, 1), (7, 1), (14, 1), (1, 14), (7, 14), (14, 14), (7, 7)]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(
        {"degrees": [3, 3], "knot_vectors": [G, G], "vertices": vertices, "edges": edges}
    ))
    listing = runner.invoke(main, ["tmesh", "anchors", "--in", str(path)])
    assert listing.stdout == "0: vertex x=[7, 7] y=[7, 7]\n"
    result = runner.invoke(main, ["tmesh", "local-kv", "--in", str(path), "--anchor", "0"])
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == (
        "Error: anchor 0 (vertex x=[7, 7] y=[7, 7]) finds too few crossed entities in "
        "direction 0\n"
    )


def test_tmesh_extract_out_of_range(runner, fixtures_dir):
    path = os.path.join(fixtures_dir, "tmesh_ext_right.json")
    result = runner.invoke(main, ["tmesh", "extract", "--in", path, "--element", "99"])
    assert result.exit_code == 1
    assert "outside" in result.output


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "args, message",
    [
        (["op", "h-refine", "--in", "{curve}", "--out", "{missing}/o.json"], "No such file"),
        (["convergence", "--degrees", "1", "--levels", "2", "--projector", "bezier",
          "--out", "{missing}/x.csv"], "No such file"),
        (["lift-normals", "--in", "{arc}", "--out", "{missing}/n.json"], "No such file"),
        (["op", "h-refine", "--in", "{curve}", "--out", "{tmp}/o.json", "--knots", "1/0"],
         "--knots must hold numbers or \"n/d\" strings ('1/0' is not a finite number)"),
        (["op", "h-refine", "--in", "{curve}", "--out", "{tmp}/o.json", "--knots", "0.5,1e400"],
         "--knots must hold numbers or \"n/d\" strings ('1e400' is not a finite number)"),
        (["extract", "--in", "{curve}", "--element", "2"], "element 2 outside 0..1"),
        (["tmesh", "extract", "--in", "{tmesh}", "--element", "99"], "element 99 outside 0..16"),
        (["tmesh", "local-kv", "--in", "{tmesh}", "--anchor", "99"], "anchor 99 outside 0..42"),
    ],
    ids=["op-out", "convergence-out", "lift-normals-out", "knots-zero-denominator",
         "knots-overflow", "extract-element", "tmesh-extract-element", "tmesh-local-kv-anchor"],
)
def test_every_command_reports_a_bad_path_number_or_id(runner, tmp_path, fixtures_dir,
                                                       args, message):
    """Each failure is one `Error: ...` line and exit status 1, not a traceback."""
    paths = dict(curve=tmp_path / "curve.json", arc=tmp_path / "arc.json",
                 tmesh=os.path.join(fixtures_dir, "tmesh_ext_right.json"),
                 missing=tmp_path / "missing", tmp=tmp_path)
    _quadratic_curve(paths["curve"])
    _quarter_circle(paths["arc"])
    result = runner.invoke(main, [a.format(**paths) for a in args])
    _assert_rejected(result, message)
    assert "Traceback" not in result.output


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(bezproj.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_a_bad_path_ends_the_process_with_an_error_line(tmp_path):
    """What a terminal sees: CliRunner would catch an escaping exception."""
    run = subprocess.run(
        [sys.executable, "-m", "bezproj.cli", "convergence", "--degrees", "1", "--levels", "2",
         "--projector", "bezier", "--out", str(tmp_path / "missing" / "x.csv")],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("Error:") and "Traceback" not in run.stderr, run.stderr


def test_a_closed_stdout_ends_a_command_quietly(tmp_path):
    """`bezproj extract ... | head -1`: a reader that stops early is not
    an error to report."""
    src = tmp_path / "cube.json"
    kv = KnotVector([0, 0, 0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1, 1, 1], 4)
    space = SplineSpace([kv, kv, kv])
    write_spline_json(src, space, ControlNet(np.zeros((space.n_funcs, 1))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bezproj.cli", "extract", "--in", str(src), "--element", "13"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_subprocess_env(),
    )
    assert proc.stdout.readline() == "C factor, direction 0:\n"
    proc.stdout.close()  # the rest, more than a pipe holds, is still to write
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1 and stderr == ""


# ---------------------------------------------------------------- imports

_RUN_AND_LIST_NUMPY_MA = """
import sys
from bezproj.cli import main
main(sys.argv[1:], standalone_mode=False)
print("numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma(tmp_path, fixtures_dir):
    """Importing numpy.ma costs tens of milliseconds and no command
    needs it; np.unique imports it unless asked for index outputs."""
    exact, curve = tmp_path / "exact.json", tmp_path / "curve.json"
    exact.write_text(json.dumps({
        "parametric_dim": 1, "physical_dim": 1, "degrees": [2],
        "knot_vectors": [[0, 0, 0, "1/3", 1, 1, 1]], "control_points": [[0], [1], [2], [3]],
    }))
    _quadratic_curve(curve)
    commands = [
        ["extract", "--in", str(exact), "--element", "1"],
        ["op", "h-coarsen", "--in", str(curve), "--out", str(tmp_path / "coarse.json")],
        ["tmesh", "extract", "--in", os.path.join(fixtures_dir, "tmesh_d.json"), "--element", "0"],
        ["convergence", "--levels", "2"],
    ]
    src = os.path.dirname(os.path.dirname(bezproj.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for args in commands:
        run = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_NUMPY_MA, *args],
                             capture_output=True, text=True, env=env, check=True)
        assert run.stdout.splitlines()[-1] == "False", args
