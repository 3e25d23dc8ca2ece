import json
from fractions import Fraction

import numpy as np
import pytest

from bezproj.spline_space import (
    ControlNet,
    KnotVector,
    SplineSpace,
    evaluate,
    evaluate_derivative,
    parse_number,
    read_spline_json,
    spline_to_dict,
    univariate_extraction_exact,
    write_spline_json,
)
from oracles import (
    bernstein_design_ref,
    bspline_design,
    extraction_by_collocation,
    random_open_kv,
    spline_eval_scipy,
)


# ---------------------------------------------------------------- KnotVector


def test_knot_vector_validation():
    with pytest.raises(ValueError):
        KnotVector([0, 0, 1, 1], 0)  # degree must be positive
    with pytest.raises(ValueError):
        KnotVector([0, 0, 1], 1)  # too few knots
    with pytest.raises(ValueError):
        KnotVector([0, 0.5, 1, 1], 1)  # not open at the left
    with pytest.raises(ValueError):
        KnotVector([0, 0, 1, 0.5, 1, 1], 1)  # decreasing
    with pytest.raises(ValueError):
        KnotVector([0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1], 2)  # interior mult > p
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="knots must be finite"):
            KnotVector([0, 0, bad, 1, 1], 1)


def test_knot_vector_counts():
    kv = KnotVector([0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1], 2)
    assert kv.n == 7
    assert kv.n_elements == 4
    assert kv.domain == (0.0, 1.0)
    assert np.allclose(kv.breakpoints, [0, 0.25, 0.5, 0.75, 1])
    assert list(kv.multiplicities) == [3, 1, 2, 1, 3]


def test_find_span_right_closed():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    assert kv.element_index(0.0) == 0
    assert kv.element_index(0.25) == 0
    # breakpoints belong to the element on their left only at the far end
    assert kv.element_index(0.5) == 1
    assert kv.element_index(1.0) == 1


def test_element_and_function_support_match_scipy(rng):
    for p in (1, 2, 3):
        knots = random_open_kv(rng, p)
        kv = KnotVector(knots, p)
        for e in range(kv.n_elements):
            a, b = kv.element_bounds(e)
            xs = np.linspace(a, b, 7)[1:-1]
            D = bspline_design(knots, p, xs)
            live = np.nonzero(np.max(np.abs(D), axis=0) > 1e-13)[0]
            assert np.array_equal(kv.element_support(e), live)
        for A in range(kv.n):
            els = kv.function_support(A)
            for e in range(kv.n_elements):
                a, b = kv.element_bounds(e)
                xs = np.linspace(a, b, 9)[1:-1]
                lively = np.max(bspline_design(knots, p, xs)[:, A]) > 1e-13
                assert (e in els) == lively


def test_local_knots_slice():
    kv = KnotVector([0, 0, 0, 1, 2, 3, 4, 4, 4], 2)
    assert np.allclose(kv.local_knots(0), [0, 0, 0, 1])
    assert np.allclose(kv.local_knots(2), [0, 1, 2, 3])
    assert np.allclose(kv.local_knots(5), [3, 4, 4, 4])


def test_with_inserted_and_removed_roundtrip():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    fine = kv.with_inserted([0.25, 0.5, 0.5])
    assert list(fine.multiplicities) == [3, 1, 2, 3]
    back = fine.with_removed([0.25, 0.5, 0.5])
    assert back == kv


def test_with_inserted_merges_like_sequential_insertion(rng):
    kv = KnotVector([0, 0, 0, 0.3, 0.6, 1, 1, 1], 2)
    values = np.r_[rng.uniform(0.05, 0.95, 6), 0.3, 0.45, 0.45]
    rng.shuffle(values)
    U = kv.knots
    for t in values:
        U = np.insert(U, np.searchsorted(U, t, side="right"), t)
    merged = kv.with_inserted(values)
    assert np.array_equal(merged.knots, U)
    assert merged == KnotVector(U, 2)
    assert kv.with_inserted([]) == kv
    for bad in (0.0, 1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match=f"insertion point {bad} not strictly inside"):
            kv.with_inserted([0.5, bad, 0.7])


def test_structural_variants():
    kv = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
    up = kv.elevated()
    assert up.degree == 3 and list(up.multiplicities) == [4, 2, 4]
    down = up.reduced()
    assert down == kv
    rough = kv.roughened([0.4])
    assert list(rough.multiplicities) == [3, 2, 3]
    smooth = rough.smoothed([0.4])
    assert smooth == kv
    # smoothing a multiplicity-one knot removes it outright
    assert kv.smoothed([0.4]).n_elements == 1
    rep = kv.reparameterized([0.7])
    assert np.allclose(rep.breakpoints, [0, 0.7, 1])
    assert list(rep.multiplicities) == list(kv.multiplicities)
    with pytest.raises(ValueError):
        kv.reparameterized([0.2, 0.6])


def test_extraction_matches_collocation_oracle(rng):
    for p in (1, 2, 3, 4):
        for _ in range(3):
            knots = random_open_kv(rng, p)
            kv = KnotVector(knots, p)
            ops = kv.extraction()
            ref = extraction_by_collocation(knots, p)
            assert len(ops) == kv.n_elements == len(ref)
            for e, ((a, b), sup, C_ref) in enumerate(ref):
                assert np.array_equal(kv.element_support(e), sup)
                assert np.allclose(ops[e], C_ref, atol=1e-10)
                # smooth basis functions sum to the Bernstein partition
                assert np.allclose(ops[e].sum(axis=0), 1, atol=1e-12)


def test_extraction_exact_matches_float():
    knots = [0, 0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, 1, 1]
    exact = univariate_extraction_exact(knots, 2)
    kv = KnotVector([float(t) for t in knots], 2)
    ops = kv.extraction()
    for Cq, C in zip(exact, ops):
        assert np.allclose(np.array(Cq, dtype=float), C, atol=1e-15)
        assert all(isinstance(v, Fraction) for row in Cq for v in row)


def test_element_mapping_roundtrip():
    kv = KnotVector([0, 0, 0, 2, 5, 5, 5], 2)
    sp = SplineSpace([kv])
    el = sp.element(1)
    assert el.measure == pytest.approx(3.0)
    xi = np.array([[-1.0], [0.0], [1.0]])
    s = el.map_from_biunit(xi)
    assert np.allclose(s[:, 0], [2, 3.5, 5])
    assert np.allclose(el.map_to_biunit(s), xi)


# ---------------------------------------------------------------- SplineSpace


def test_space_layout_2d():
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 1, 2, 2], 1),
        ]
    )
    assert sp.parametric_dim == 2
    assert sp.degrees == (2, 1)
    assert sp.shape == (4, 3)
    assert sp.n_funcs == 12
    assert sp.element_shape == (2, 2)
    assert sp.n_elements == 4
    # first direction cycles fastest
    assert sp.ravel_func((1, 2)) == 9
    assert sp.ravel_element((1, 1)) == 3
    assert sp.unravel_element(3) == (1, 1)
    assert sp.element_containing([0.7, 1.5]) == 3


def test_space_element_support_is_tensor_product():
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 1, 2, 2], 1),
        ]
    )
    el = sp.element(sp.ravel_element((1, 0)))
    sup1 = sp.knot_vectors[0].element_support(1)
    sup2 = sp.knot_vectors[1].element_support(0)
    expect = sorted(sp.ravel_func((i, j)) for i in sup1 for j in sup2)
    assert np.array_equal(np.sort(el.support), expect)
    assert el.measure == pytest.approx(0.5 * 1.0)


def test_space_extraction_tensorizes(rng):
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.3, 0.8, 1, 1, 1], 2),
            KnotVector([0, 0, 0.5, 1, 1], 1),
        ]
    )
    for e in range(sp.n_elements):
        ops = sp.extraction_operator(e)
        i1, i2 = sp.unravel_element(e)
        C1 = sp.knot_vectors[0].extraction()[i1]
        C2 = sp.knot_vectors[1].extraction()[i2]
        assert np.allclose(ops.C, np.kron(C2, C1), atol=1e-13)
        R = sp.reconstruction_operator(e)
        assert np.allclose(ops.C @ R, np.eye(ops.C.shape[0]), atol=1e-10)


def test_eval_basis_matches_scipy(rng):
    kv1 = KnotVector([0, 0, 0, 0.3, 0.8, 1, 1, 1], 2)
    kv2 = KnotVector([0, 0, 0.5, 1, 1], 1)
    sp = SplineSpace([kv1, kv2])
    for _ in range(10):
        pt = rng.uniform(0, 1, size=2)
        e, vals = sp.eval_basis(pt)
        assert e == sp.element_containing(pt)
        sup = sp.element(e).support
        D1 = bspline_design(kv1.knots, 2, [pt[0]])[0]
        D2 = bspline_design(kv2.knots, 1, [pt[1]])[0]
        full = np.kron(D2, D1)
        assert np.allclose(vals, full[sup], atol=1e-12)
        assert vals.sum() == pytest.approx(1.0)


def test_function_elements_and_local_index():
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 1, 2, 2], 1),
        ]
    )
    for A in range(sp.n_funcs):
        for e in sp.function_elements(A):
            loc = sp.local_index_of(e, A)
            assert sp.element(e).support[loc] == A
    with pytest.raises(ValueError):
        sp.local_index_of(0, sp.n_funcs - 1)


def test_local_knot_vector_slices_by_direction():
    kv1 = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    kv2 = KnotVector([0, 0, 1, 2, 2], 1)
    sp = SplineSpace([kv1, kv2])
    A = sp.ravel_func((2, 1))
    assert np.allclose(sp.local_knot_vector(A, 0), kv1.local_knots(2))
    assert np.allclose(sp.local_knot_vector(A, 1), kv2.local_knots(1))


# ---------------------------------------------------------------- evaluation


def test_evaluate_polynomial_curve_matches_scipy(rng):
    for p in (1, 2, 3):
        knots = random_open_kv(rng, p)
        kv = KnotVector(knots, p)
        sp = SplineSpace([kv])
        pts = rng.normal(size=(kv.n, 2))
        xs = np.linspace(*kv.domain, 50)
        got = evaluate(sp, ControlNet(pts), xs[:, None])
        ref = spline_eval_scipy(knots, p, pts, xs)
        assert np.allclose(got, ref, atol=1e-12)


def test_evaluate_rational_quarter_circle():
    s = np.sqrt(2.0) / 2.0
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    sp = SplineSpace([kv])
    net = ControlNet(
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([1.0, s, 1.0]),
    )
    ts = np.linspace(0, 1, 33)[:, None]
    xy = evaluate(sp, net, ts)
    assert np.allclose(np.linalg.norm(xy, axis=1), 1.0, atol=1e-13)
    assert np.allclose(xy[0], [1, 0]) and np.allclose(xy[-1], [0, 1])


def test_evaluate_tensor_surface(rng):
    kv1 = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    kv2 = KnotVector([0, 0, 1, 1], 1)
    sp = SplineSpace([kv1, kv2])
    pts = rng.normal(size=(sp.n_funcs, 3))
    net = ControlNet(pts)
    P = rng.uniform(0, 1, size=(20, 2))
    got = evaluate(sp, net, P)
    D1 = bspline_design(kv1.knots, 2, P[:, 0])
    D2 = bspline_design(kv2.knots, 1, P[:, 1])
    ref = np.einsum("xi,xj->xij", D1, D2).reshape(20, -1, order="F") @ pts
    assert np.allclose(got, ref, atol=1e-12)


def test_evaluate_rejects_non_finite_points():
    sp = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    net = ControlNet(np.arange(4.0))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            evaluate(sp, net, [[bad], [0.25]])


def test_evaluate_rejects_points_outside_domain():
    sp = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    net = ControlNet(np.arange(4.0))
    with pytest.raises(ValueError, match="outside the parametric domain"):
        evaluate(sp, net, [[1.5]])


def test_evaluate_derivative_matches_finite_differences(rng):
    kv = KnotVector([0, 0, 0, 0.4, 0.8, 1, 1, 1], 2)
    sp = SplineSpace([kv])
    net = ControlNet(
        rng.normal(size=(kv.n, 2)), rng.uniform(0.5, 2.0, size=kv.n)
    )
    ts = np.array([0.1, 0.35, 0.55, 0.9])[:, None]
    got = evaluate_derivative(sp, net, ts)
    h = 1e-6
    ref = (evaluate(sp, net, ts + h) - evaluate(sp, net, ts - h)) / (2 * h)
    assert np.allclose(got, ref, atol=1e-5)


def test_evaluate_derivative_exact_for_line():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    sp = SplineSpace([kv])
    # straight line with nonuniform speed: quadratic parameterization
    net = ControlNet(np.array([[0.0, 0.0], [0.3, 0.6], [1.0, 2.0]]))
    ts = np.linspace(0, 1, 9)[:, None]
    d = evaluate_derivative(sp, net, ts)
    # direction stays proportional to (1, 2)
    assert np.allclose(d[:, 1] / d[:, 0], 2.0, atol=1e-12)


def test_evaluate_derivative_of_polyline_is_its_slopes():
    kv = KnotVector([0, 0, 0.25, 1, 1], 1)
    sp = SplineSpace([kv])
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [4.0, 0.5]])
    ts = np.array([0.0, 0.1, 0.25, 0.6, 1.0])[:, None]
    d = evaluate_derivative(sp, ControlNet(pts), ts)
    slopes = np.diff(pts, axis=0) / np.diff(kv.breakpoints)[:, None]
    # right-continuous at the breakpoint, like evaluate
    assert np.array_equal(d, slopes[[0, 0, 1, 1, 1]])
    with pytest.raises(ValueError, match="outside the parametric domain"):
        evaluate_derivative(sp, ControlNet(pts), [[1.5]])


def test_lift_normals_of_polyline():
    from bezproj.projection import lift_normals

    sp = SplineSpace([KnotVector([0, 0, 0.25, 1, 1], 1)])
    straight = ControlNet(np.array([[0.0, 0.0], [1.0, 2.0], [4.0, 8.0]]))
    unit = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    assert np.allclose(lift_normals(sp, straight).points, unit, rtol=0, atol=1e-14)
    bent = ControlNet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    lifted = lift_normals(sp, bent).points
    assert lifted.shape == (3, 2) and np.all(np.isfinite(lifted))


# ---------------------------------------------------------------- ControlNet


def test_control_net_homogeneous_roundtrip(rng):
    pts = rng.normal(size=(5, 3))
    w = rng.uniform(0.5, 2.0, size=5)
    net = ControlNet(pts, w)
    assert net.is_rational
    H = net.homogeneous()
    assert np.allclose(H[:, :-1], pts * w[:, None])
    assert np.allclose(H[:, -1], w)
    back = ControlNet.from_homogeneous(H, rational=True)
    assert np.allclose(back.points, pts)
    assert np.allclose(back.weights, w)


def test_control_net_rejects_bad_weights(rng):
    with pytest.raises(ValueError):
        ControlNet(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ControlNet(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        ControlNet(np.zeros((3, 2)), np.ones(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            ControlNet(np.zeros((3, 2)), np.array([1.0, bad, 1.0]))


def test_control_net_rejects_non_finite_points():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="control points must be finite"):
            ControlNet(np.array([[0.0, 0.0], [bad, 1.0]]))


# ---------------------------------------------------------------- file format


def test_parse_number_fractions():
    # rational strings parse exactly, then convert to the nearest float
    assert parse_number("1/3") == pytest.approx(1 / 3, abs=0)
    assert parse_number("7") == 7.0
    assert parse_number(0.25) == 0.25
    assert parse_number("0.25") == 0.25
    assert isinstance(parse_number("1/3"), float)


def test_spline_json_roundtrip(tmp_path, rng):
    kv1 = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    kv2 = KnotVector([0, 0, 1, 1], 1)
    sp = SplineSpace([kv1, kv2])
    net = ControlNet(
        rng.normal(size=(sp.n_funcs, 3)), rng.uniform(0.5, 2, size=sp.n_funcs)
    )
    path = tmp_path / "surf.json"
    write_spline_json(path, sp, net, extra={"note": "roundtrip"})
    sp2, net2 = read_spline_json(path)
    assert sp2 == sp
    assert np.allclose(net2.points, net.points)
    assert np.allclose(net2.weights, net.weights)
    assert json.loads(path.read_text())["note"] == "roundtrip"


def test_spline_json_rational_strings(tmp_path):
    doc = {
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": [2],
        "knot_vectors": [["0", "0", "0", "1/2", "1", "1", "1"]],
        "control_points": [[0.0], [0.5], [0.75], [1.0]],
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    sp, net = read_spline_json(path)
    assert sp.knot_vectors[0].knots[3] == 0.5
    assert not net.is_rational
    d = spline_to_dict(sp, net)
    assert d["degrees"] == [2]


def test_spline_json_rejects_non_finite_entries():
    def data(**changes):
        out = {
            "parametric_dim": 1,
            "physical_dim": 1,
            "degrees": [1],
            "knot_vectors": [[0, 0, 0.5, 1, 1]],
            "control_points": [[0.0], [1.0], [2.0]],
            "weights": [1, 1, 1],
        }
        out.update(changes)
        return out

    nan = float("nan")
    with pytest.raises(ValueError, match="knots must be finite"):
        read_spline_json(data(knot_vectors=[[0, 0, nan, 1, 1]]))
    with pytest.raises(ValueError, match="control points must be finite"):
        read_spline_json(data(control_points=[[0.0], [nan], [2.0]]))
    with pytest.raises(ValueError, match="weights must be finite"):
        read_spline_json(data(weights=[1, nan, 1]))


def test_knot_vector_caches_stacked_operators(rng):
    for p in (1, 2, 3):
        kv = KnotVector(random_open_kv(rng, p), p)
        C, R, S = kv.extraction(), kv.reconstruction(), kv.supports()
        assert C.shape == R.shape == (kv.n_elements, p + 1, p + 1)
        assert S.shape == (kv.n_elements, p + 1)
        assert kv.extraction() is C and kv.reconstruction() is R and kv.supports() is S
        assert np.allclose(C @ R, np.eye(p + 1), atol=1e-10)
        for e in range(kv.n_elements):
            assert np.array_equal(S[e], kv.element_support(e))
