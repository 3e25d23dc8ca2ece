import re

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from bezproj.benchmark import uniform_space
from bezproj.bernstein import bernstein_matrix
from bezproj.projection import (
    ProjectionReport,
    TargetFunction,
    _gauss_rule,
    bezier_project,
    global_l2_project,
    l2_error,
    lift_normals,
    local_spline_coefficients,
    smoothing_weight_table,
)
from bezproj.spline_space import ControlNet, KnotVector, SplineSpace, evaluate
from oracles import (
    exact_bernstein_proj,
    exact_bernstein_proj_2d,
    global_l2_project_ref,
    local_bernstein_projection,
    random_open_kv,
)


def _space(knots, p):
    return SplineSpace([KnotVector(knots, p)])


# ------------------------------------------------------- local projection


def test_local_bernstein_projection_matches_bruteforce_1d():
    sp = _space([0, 0, 0, 0.4, 1, 1, 1], 2)

    def f(pts):
        return np.exp(pts[:, 0]) * np.sin(3 * pts[:, 0])

    for e, (a, b) in enumerate([(0.0, 0.4), (0.4, 1.0)]):
        beta = local_bernstein_projection(f, sp, e)
        ref = exact_bernstein_proj(lambda x: np.exp(x) * np.sin(3 * x), a, b, 2)
        assert np.allclose(beta[:, 0], ref, atol=1e-11)


def test_local_bernstein_projection_matches_bruteforce_2d():
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 1, 2, 2], 1),
        ]
    )

    def f(pts):
        return np.cos(pts[:, 0] + 0.3 * pts[:, 1] ** 2)

    e = sp.ravel_element((1, 0))
    beta = local_bernstein_projection(f, sp, e)
    ref = exact_bernstein_proj_2d(
        lambda X, Y: np.cos(X + 0.3 * Y**2), ((0.5, 1.0), (0.0, 1.0)), (2, 1)
    )
    assert np.allclose(beta[:, 0], ref, atol=1e-10)


def test_local_spline_coefficients_inverts_extraction(rng):
    sp = _space([0, 0, 0, 0.4, 1, 1, 1], 2)
    lam = rng.normal(size=(2, 3, 1))
    beta = sp.extraction().transpose(0, 2, 1) @ lam
    assert np.allclose(local_spline_coefficients(sp, beta), lam, atol=1e-12)
    assert np.allclose(local_spline_coefficients(sp, beta[1:], ids=[1]), lam[1:], atol=1e-12)


# ------------------------------------------------------- smoothing weights


def test_smoothing_weights_golden_two_element_quadratic():
    sp = _space([0, 0, 0, 0.7, 1, 1, 1], 2)
    # element 0 supports functions 0, 1, 2 and element 1 functions 1, 2, 3
    assert sp.supports().tolist() == [[0, 1, 2], [1, 2, 3]]
    t = smoothing_weight_table(sp)
    assert t[0, 1] == pytest.approx(13 / 16, abs=1e-15)
    assert t[1, 0] == pytest.approx(3 / 16, abs=1e-15)
    assert t[0, 2] == pytest.approx(7 / 24, abs=1e-15)
    assert t[1, 1] == pytest.approx(17 / 24, abs=1e-15)
    # volume-weighted variant
    tx = smoothing_weight_table(sp, "exact")
    assert tx[0, 1] == pytest.approx(91 / 100, abs=1e-14)
    assert tx[1, 0] == pytest.approx(9 / 100, abs=1e-14)
    # functions supported on one element only get weight one
    assert t[0, 0] == 1.0


def test_smoothing_weights_sum_like_add_at(rng):
    """The per-function sums in input order, as np.add.at forms them: the same bits."""
    for p in (1, 2, 3):
        kv = KnotVector(random_open_kv(rng, p, 40), p)
        for mode in ("approximate", "exact", "uniform"):
            if mode == "uniform":
                num = np.ones((kv.n_elements, p + 1))
            else:
                num = kv.extraction().sum(axis=2)
                if mode == "exact":
                    num = num * np.diff(kv.breakpoints)[:, None]
            denom = np.zeros(kv.n)
            np.add.at(denom, kv.supports(), num)
            got = smoothing_weight_table(SplineSpace([kv]), mode)
            assert np.array_equal(got, num / denom[kv.supports()])


def test_smoothing_weights_normalized_all_modes(rng):
    for _ in range(5):
        p = int(rng.integers(1, 5))
        sp = _space(random_open_kv(rng, p), p)
        for mode in ("approximate", "exact", "uniform"):
            table = smoothing_weight_table(sp, mode)
            sums = np.zeros(sp.n_funcs)
            np.add.at(sums, sp.supports(), table)
            assert np.allclose(sums, 1.0, atol=1e-13)
            assert all(np.all(t >= -1e-15) for t in table)


def test_smoothing_weights_uniform_mode():
    sp = _space([0, 0, 0, 0.5, 1, 1, 1], 2)
    t = smoothing_weight_table(sp, "uniform")
    # function 1 is local function 1 of element 0 and 0 of element 1
    assert (t[0, 1], t[1, 0]) == (0.5, 0.5)
    assert np.allclose(t[0], [1.0, 0.5, 0.5])


def test_smoothing_weights_exact_equals_approximate_on_uniform_mesh():
    sp = _space([0, 0, 0, 0.5, 1, 1, 1], 2)
    ta = smoothing_weight_table(sp, "approximate")
    tx = smoothing_weight_table(sp, "exact")
    for a, x in zip(ta, tx):
        assert np.allclose(a, x, atol=1e-14)


def test_smoothing_weights_unknown_mode():
    sp = _space([0, 0, 1, 1], 1)
    with pytest.raises(ValueError):
        smoothing_weight_table(sp, "fancy")


# ------------------------------------------------------- bezier_project


def test_projection_reproduces_member_splines(rng):
    for p in (2, 3):
        sp = _space(random_open_kv(rng, p), p)
        coeffs = rng.normal(size=(sp.n_funcs, 2))
        net = ControlNet(coeffs)
        f = TargetFunction(lambda pts: evaluate(sp, net, pts))
        report = bezier_project(f, sp)
        assert isinstance(report, ProjectionReport)
        assert np.allclose(report.net.points, coeffs, atol=1e-11)


def test_projection_reproduces_rational_member(rng):
    sp = _space([0, 0, 0, 0.3, 0.8, 1, 1, 1], 2)
    w = rng.uniform(0.5, 2.0, size=sp.n_funcs)
    net = ControlNet(rng.normal(size=(sp.n_funcs, 2)), w)
    f = TargetFunction(lambda pts: evaluate(sp, net, pts))
    report = bezier_project(f, sp, weights=w)
    assert np.allclose(report.net.points, net.points, atol=1e-11)
    assert np.allclose(report.net.weights, w)


def test_projection_constant_on_rational_arc():
    s = np.sqrt(2.0) / 2.0
    sp = _space([0, 0, 0, 1, 1, 1], 2)
    w = np.array([1.0, s, 1.0])
    report = bezier_project(lambda pts: np.full(pts.shape[0], 4.25), sp, weights=w)
    assert np.allclose(report.net.points, 4.25, atol=1e-13)


def test_projection_unit_weights_equal_polynomial_path():
    sp = _space([0, 0, 0, 0.4, 1, 1, 1], 2)

    def f(pts):
        return np.sin(2 * pts[:, 0])

    a = bezier_project(f, sp)
    b = bezier_project(f, sp, weights=np.ones(sp.n_funcs))
    assert np.allclose(a.net.points, b.net.points, atol=1e-14)


def test_projection_weight_validation():
    sp = _space([0, 0, 1, 1], 1)
    with pytest.raises(ValueError):
        bezier_project(lambda p: p[:, 0], sp, weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        bezier_project(lambda p: p[:, 0], sp, weights=np.ones(5))
    for project in (bezier_project, global_l2_project):
        with pytest.raises(ValueError, match="weights must be finite"):
            project(lambda p: p[:, 0], sp, weights=np.array([1.0, np.nan]))


def test_projection_near_global_on_sine():
    sp = _space(np.r_[[0.0, 0.0], np.linspace(0, 1, 65), [1.0, 1.0]], 2)
    assert sp.n_elements == 64

    def f(pts):
        return np.sin(2 * np.pi * pts[:, 0])

    local = bezier_project(f, sp).net
    ref = global_l2_project(f, sp)
    e_local = l2_error(f, sp, local)
    e_global = l2_error(f, sp, ref)
    assert e_local <= 2.0 * e_global


@pytest.mark.parametrize(
    "quad_order, message",
    [
        (0, "quad_order must be >= 1, got 0"),
        (-1, "quad_order must be >= 1, got -1"),
        ((3, 0), "quad_order must be >= 1, got 0"),
        (2.5, "quad_order must be integers, got 2.5"),
        (True, "quad_order must be integers, got True"),
        ((3, 2.5), "quad_order must be integers, got 2.5"),
    ],
    ids=["zero", "negative", "zero-in-pair", "fraction", "bool", "fraction-in-pair"],
)
def test_quad_order_is_checked_where_it_enters(quad_order, message):
    sp = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)] * 2)

    def f(pts):
        return pts[:, 0] * pts[:, 1]

    net = ControlNet(np.zeros((sp.n_funcs, 1)))
    for call in (
        lambda: bezier_project(f, sp, quad_order=quad_order),
        lambda: global_l2_project(f, sp, quad_order=quad_order),
        lambda: l2_error(f, sp, net, quad_order=quad_order),
    ):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            call()
    # an integral float is an integer count
    assert np.array_equal(
        bezier_project(f, sp, quad_order=4.0).net.points,
        bezier_project(f, sp, quad_order=4).net.points,
    )


def test_gauss_rules_are_cached_and_read_only():
    x, w, B = rule = _gauss_rule(3, 5)
    assert _gauss_rule(3, 5) is rule
    ref_x, ref_w = leggauss(5)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert np.array_equal(B, bernstein_matrix(3, ref_x))
    for a in rule:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_target_function_validates_output_shape():
    f = TargetFunction(lambda pts: np.zeros(3))
    with pytest.raises(ValueError):
        f(np.zeros((2, 1)))


def test_target_function_rejects_non_finite_values():
    sp = _space([0, 0, 0, 0.5, 1, 1, 1], 2)
    for bad in (np.nan, np.inf):
        f = TargetFunction(lambda pts, bad=bad: np.where(pts[:, 0] > 0.7, bad, 1.0))
        with pytest.raises(ValueError, match="target function returned non-finite values"):
            f(np.array([[0.2], [0.9]]))
        with pytest.raises(ValueError, match="target function returned non-finite values"):
            bezier_project(f, sp)


# ------------------------------------------------------- global reference


def test_global_projection_exact_for_members(rng):
    sp = _space([0, 0, 0, 0.3, 0.8, 1, 1, 1], 2)
    coeffs = rng.normal(size=(sp.n_funcs, 1))
    net = ControlNet(coeffs)
    f = TargetFunction(lambda pts: evaluate(sp, net, pts))
    got = global_l2_project(f, sp)
    assert np.allclose(got.points, coeffs, atol=1e-11)


def test_global_equals_local_on_single_element():
    sp = _space([0, 0, 0, 1, 1, 1], 2)

    def f(pts):
        return np.exp(pts[:, 0])

    a = bezier_project(f, sp).net.points
    b = global_l2_project(f, sp).points
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("quad_order", [None, 4])
@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_global_projection_matches_element_loop_reference(rng, dim, rational, quad_order):
    kvs = [KnotVector(random_open_kv(rng, p, n_breaks=3), p) for p in (2, 3, 1)[:dim]]
    sp = SplineSpace(kvs)
    w = rng.uniform(0.5, 2.0, size=sp.n_funcs) if rational else None

    def f(pts):
        x, y = pts[:, 0], pts[:, -1]
        return np.stack([np.sin(3 * x) * np.cos(y), np.exp(pts.sum(axis=1))], axis=1)

    got = global_l2_project(f, sp, weights=w, quad_order=quad_order).points
    ref = global_l2_project_ref(f, sp, weights=w, quad_order=quad_order)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_global_projection_of_a_declared_constant():
    """The mass matrix needs p + 1 Gauss points per direction, which the
    default rule, p + 3, gives a constant target too."""
    f = TargetFunction(lambda pts: np.full(len(pts), 2.0))
    got = global_l2_project(f, uniform_space(1, 8))
    assert np.allclose(got.points, 2.0, rtol=0, atol=1e-13)


def test_global_projection_rejects_a_quad_order_below_p_plus_one():
    """One Gauss point per cubic element returned garbage without a word
    (a first coefficient of 2.18 for 1.8e-4); the local projector and the
    error measure still accept it."""
    sp = uniform_space(3, 4)

    def f(pts):
        return np.sin(3 * pts[:, 0])

    with pytest.raises(ValueError, match=r"^quad_order must be >= p \+ 1 = 4 .*, got 1$"):
        global_l2_project(f, sp, quad_order=1)
    assert abs(global_l2_project(f, sp, quad_order=4).points[0, 0]) < 1e-3
    net = bezier_project(f, sp, quad_order=1).net
    assert np.isfinite(l2_error(f, sp, net, quad_order=1))


def test_global_rational_constant():
    s = np.sqrt(2.0) / 2.0
    sp = _space([0, 0, 0, 1, 1, 1], 2)
    w = np.array([1.0, s, 1.0])
    got = global_l2_project(lambda pts: np.full(pts.shape[0], -2.5), sp, weights=w)
    assert np.allclose(got.points, -2.5, atol=1e-12)
    assert np.allclose(got.weights, w)


# ------------------------------------------------------- error measurement


def test_l2_error_known_value():
    # distance between x^2 and its best linear approximation on [0, 1]
    sp = _space([0, 0, 1, 1], 1)
    net = ControlNet(np.array([[-1.0 / 6.0], [5.0 / 6.0]]))
    err = l2_error(lambda pts: pts[:, 0] ** 2, sp, net)
    assert err == pytest.approx(np.sqrt(1.0 / 180.0), abs=1e-14)


def test_l2_error_relative_and_array_input():
    sp = _space([0, 0, 1, 1], 1)
    net = np.array([[0.0], [1.0]])  # the identity map
    aerr = l2_error(lambda pts: 2 * pts[:, 0], sp, net)
    rerr = l2_error(lambda pts: 2 * pts[:, 0], sp, net, relative=True)
    # |2x - x| over [0,1]: absolute 1/sqrt(3), reference 2/sqrt(3)
    assert aerr == pytest.approx(1 / np.sqrt(3))
    assert rerr == pytest.approx(0.5)


@pytest.mark.parametrize("points", [[[0.0], [0.0]], [[0.0], [1.0]]], ids=["zero net", "net"])
def test_l2_error_relative_to_a_zero_target_is_undefined(points):
    """0 / 0 gave NaN and x / 0 gave inf."""
    sp = _space([0, 0, 1, 1], 1)
    with pytest.raises(ValueError, match="^target has zero L2 norm; the relative error is undefined$"):
        l2_error(lambda pts: np.zeros_like(pts[:, 0]), sp, ControlNet(points), relative=True)


def test_l2_error_zero_for_exact_member():
    sp = _space([0, 0, 0, 0.5, 1, 1, 1], 2)
    net = ControlNet(np.array([[0.0], [0.25], [0.75], [1.0]]))
    f = TargetFunction(lambda pts: evaluate(sp, net, pts))
    assert l2_error(f, sp, net) < 1e-14


# ------------------------------------------------------- local stability


def test_local_stability_constant_small(rng):
    """The element-local error of the projector is controlled by the
    target's norm over the support extension; the constant stays modest."""
    worst = 0.0
    x1, wq = leggauss(12)
    for trial in range(10):
        p = int(rng.integers(1, 5))
        sp = _space(random_open_kv(rng, p, n_breaks=int(rng.integers(2, 5))), p)
        freq = 1.0 + 4.0 * rng.uniform()
        shift = rng.uniform(0, 2 * np.pi)

        def f(pts):
            return np.sin(freq * 2 * np.pi * pts[:, 0] + shift)

        report = bezier_project(f, sp)
        bounds, sup = sp.bounds()[:, 0], sp.supports()
        for e in range(sp.n_elements):
            a, b = bounds[e]
            xs = (0.5 * (a + b) + 0.5 * (b - a) * x1)[:, None]
            vals = evaluate(sp, report.net, xs)[:, 0]
            num = np.sqrt(0.5 * (b - a) * wq @ vals**2)
            # support extension: every element sharing a function with e
            ext = np.isin(sup, sup[e]).any(axis=1)
            lo, hi = bounds[ext, 0].min(), bounds[ext, 1].max()
            xs2 = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x1)[:, None]
            den = np.sqrt(0.5 * (hi - lo) * wq @ f(xs2) ** 2)
            if den > 1e-12:
                worst = max(worst, num / den)
    print(f"measured local stability constant: {worst:.3f}")
    assert worst <= 10.0


# ------------------------------------------------------- normal lifting


def test_lift_normals_straight_line_constant():
    sp = _space([0, 0, 0, 0.5, 1, 1, 1], 2)
    # nonuniformly parameterized straight segment along (3, 4) / 5
    t = np.array([0.0, 0.2, 0.7, 1.0])[:, None]
    net = ControlNet(np.hstack([3 * t**1.0, 4 * t**1.0]))
    lifted = lift_normals(sp, net)
    expect = np.array([-4.0, 3.0]) / 5.0
    assert np.allclose(lifted.points, expect[None, :], atol=1e-12)


def test_lift_normals_circle_arc_exceeds_unit_length():
    s = np.sqrt(2.0) / 2.0
    sp = _space([0, 0, 0, 1, 1, 1], 2)
    net = ControlNet(
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.array([1.0, s, 1.0])
    )
    lifted = lift_normals(sp, net)
    # inward normal of the counterclockwise arc is -position
    assert np.allclose(lifted.points, -net.points, atol=1e-11)
    assert np.allclose(lifted.weights, net.weights)
    mags = np.linalg.norm(lifted.points, axis=1)
    assert mags.max() > 1.0 + 1e-6


def test_lift_normals_rejects_cusp():
    sp = _space([0, 0, 0, 1, 1, 1], 2)
    # out-and-back segment: the tangent vanishes at the midpoint, which
    # the odd-count Gauss grid samples exactly
    net = ControlNet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        lift_normals(sp, net)


def test_lift_normals_needs_planar_curve():
    sp = SplineSpace(
        [KnotVector([0, 0, 1, 1], 1), KnotVector([0, 0, 1, 1], 1)]
    )
    net = ControlNet(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        lift_normals(sp, net)
    sp1 = _space([0, 0, 1, 1], 1)
    with pytest.raises(ValueError):
        lift_normals(sp1, ControlNet(np.zeros((2, 3))))
