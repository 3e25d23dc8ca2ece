import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    bezier_extraction_ref,
    bspline_design,
    evaluate_derivative_ref,
    evaluate_ref,
    extraction_by_collocation,
    fraction_inverse_ref,
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


def test_knot_vector_snaps_near_equal_knots():
    tol = 1e-12  # relative to the domain span, here 1
    # each knot snaps onto its predecessor as already snapped, so a chain of
    # gaps of 0.6 tol snaps every other knot
    chain = [0.5 + k * 0.6 * tol for k in range(4)]
    kv = KnotVector([0, 0, 0, 0, *chain, 1, 1, 1, 1], 3)
    assert kv.knots[4:8].tolist() == [chain[0], chain[0], chain[2], chain[2]]
    assert kv.multiplicities.tolist() == [4, 2, 2, 4]
    # a gap just under tol snaps, one just over it stays
    knots = [0, 0, 0, 0.5, 0.5 + 0.99 * tol, 0.75, 0.75 + 1.01 * tol, 1, 1, 1]
    kv = KnotVector(knots, 2)
    assert kv.knots[3:7].tolist() == [0.5, 0.5, 0.75, knots[6]]


def test_find_span_right_closed():
    # a polyline's slope is its element's: the breakpoints belong to the
    # element on their right, except the right end of the domain
    sp = SplineSpace([KnotVector([0, 0, 0.5, 1, 1], 1)])
    net = ControlNet([[0.0], [1.0], [3.0]])
    slopes = evaluate_derivative(sp, net, [[0.0], [0.25], [0.5], [1.0]])[:, 0]
    assert slopes.tolist() == [2.0, 2.0, 4.0, 4.0]


def test_element_and_function_support_match_scipy(rng):
    for p in (1, 2, 3):
        knots = random_open_kv(rng, p)
        sp = SplineSpace([KnotVector(knots, p)])
        for (a, b), sup in zip(sp.bounds()[:, 0], sp.supports()):
            xs = np.linspace(a, b, 7)[1:-1]
            D = bspline_design(knots, p, xs)
            live = np.nonzero(np.max(np.abs(D), axis=0) > 1e-13)[0]
            assert np.array_equal(sup, live)


def test_extraction_matches_collocation_oracle(rng):
    for p in (1, 2, 3, 4):
        for _ in range(3):
            knots = random_open_kv(rng, p)
            kv = KnotVector(knots, p)
            ops = kv.extraction()
            ref = extraction_by_collocation(knots, p)
            assert len(ops) == kv.n_elements == len(ref)
            for e, ((a, b), sup, C_ref) in enumerate(ref):
                assert np.array_equal(kv.supports()[e], sup)
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


def test_reconstruction_matches_exact_inverse(rng):
    """R from dual functionals against the exact inverse of the exact C on
    the same float knots (knot insertion in Fractions), to 1e-15 of the
    largest entry. Inverting the float C errs by up to 2e-14 on these
    knot vectors and by 3e-13 on others of the same kind."""
    for case in range(250):
        p = 1 + case % 5
        kv = KnotVector(random_open_kv(rng, p), p)
        R = kv.reconstruction()
        exact = bezier_extraction_ref([Fraction(u) for u in kv.knots], p)
        assert len(exact) == len(R)
        for got, C in zip(R, exact):
            ref = np.array(fraction_inverse_ref(C), dtype=float)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (p, kv.knots)


@pytest.mark.parametrize(
    "knots, p, message",
    [
        ([0, 0, Fraction(1, 2), Fraction(1, 4), 1, 1], 1, "knots must be nondecreasing"),
        ([0, 1, 1, 2, 2], 1, "knot vector must be open: p+1 repeated end knots"),
        ([0, 0, 1, 1], 0, "degree must be >= 1, got 0"),
        ([0, 0, 0, 1, 1, 1, 2, 2, 2], 2, "interior knot multiplicity exceeds degree 2"),
        ([0, 0, 1], 1, "need at least 4 knots for degree 1, got 3"),
        ([0, 0, 0, 1, 1, 1], 2.5, "degree must be integers, got 2.5"),
        ([0, 0, 1, 1], True, "degree must be integers, got True"),
    ],
    ids=["unsorted", "not-open", "degree", "multiplicity", "short", "fractional-degree",
         "boolean-degree"],
)
def test_exact_extraction_checks_its_knots_like_knot_vector(knots, p, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        univariate_extraction_exact(knots, p)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        KnotVector([float(t) for t in knots], p)


def test_exact_extraction_compares_knots_exactly():
    # equal as floats, out of order as fractions
    knots = [0, 0, 0, Fraction(1, 2) + Fraction(1, 10**30), Fraction(1, 2), 1, 1, 1]
    KnotVector([float(t) for t in knots], 2)
    with pytest.raises(ValueError, match="knots must be nondecreasing"):
        univariate_extraction_exact(knots, 2)


def test_element_mapping_roundtrip():
    sp = SplineSpace([KnotVector([0, 0, 0, 2, 5, 5, 5], 2)])
    ((a, b),) = sp.bounds([1])[0]
    assert (a, b) == (2.0, 5.0)
    # the biunit coordinate xi maps to s on the element, where the basis
    # of the element's support is C B(xi)
    xi = np.array([-1.0, 0.0, 1.0])
    s = 0.5 * (a + b) + 0.5 * (b - a) * xi
    assert np.allclose(s, [2, 3.5, 5])
    assert np.allclose((2 * s - a - b) / (b - a), xi)
    values = evaluate(sp, ControlNet(np.eye(sp.n_funcs)), s[:, None])
    local = bernstein_design_ref(2, xi) @ sp.extraction([1])[0].T
    assert np.allclose(values[:, sp.supports([1])[0]], local, atol=1e-15)


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
    assert sp.supports([3])[0, -1] == sp.n_funcs - 1
    assert sp.ravel_element((1, 1)) == 3
    assert sp.unravel_element(3) == (1, 1)
    assert sp.bounds([3]).tolist() == [[[0.5, 1.0], [1.0, 2.0]]]


def test_space_element_support_is_tensor_product():
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 1, 2, 2], 1),
        ]
    )
    e = sp.ravel_element((1, 0))
    sup1 = sp.knot_vectors[0].supports()[1]
    sup2 = sp.knot_vectors[1].supports()[0]
    expect = sorted(i + sp.shape[0] * j for i in sup1 for j in sup2)
    assert np.array_equal(np.sort(sp.supports([e])[0]), expect)
    assert np.prod(np.diff(sp.bounds([e])[0])) == pytest.approx(0.5 * 1.0)


def test_space_extraction_tensorizes(rng):
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.3, 0.8, 1, 1, 1], 2),
            KnotVector([0, 0, 0.5, 1, 1], 1),
        ]
    )
    C, R = sp.extraction(), sp.reconstruction()
    for e in range(sp.n_elements):
        i1, i2 = sp.unravel_element(e)
        C1 = sp.knot_vectors[0].extraction()[i1]
        C2 = sp.knot_vectors[1].extraction()[i2]
        assert np.allclose(C[e], np.kron(C2, C1), atol=1e-13)
        assert np.allclose(C[e] @ R[e], np.eye(C.shape[1]), atol=1e-10)


def test_eval_basis_matches_scipy(rng):
    kv1 = KnotVector([0, 0, 0, 0.3, 0.8, 1, 1, 1], 2)
    kv2 = KnotVector([0, 0, 0.5, 1, 1], 1)
    sp = SplineSpace([kv1, kv2])
    bounds, sup, C = sp.bounds(), sp.supports(), sp.extraction()
    for _ in range(10):
        pt = rng.uniform(0, 1, size=2)
        (e,) = np.flatnonzero(np.all((bounds[:, :, 0] <= pt) & (pt < bounds[:, :, 1]), axis=1))
        xi = 2 * (pt - bounds[e, :, 0]) / (bounds[e, :, 1] - bounds[e, :, 0]) - 1
        B = np.kron(bernstein_design_ref(1, xi[1:]), bernstein_design_ref(2, xi[:1]))[0]
        vals = C[e] @ B
        D1 = bspline_design(kv1.knots, 2, [pt[0]])[0]
        D2 = bspline_design(kv2.knots, 1, [pt[1]])[0]
        full = np.kron(D2, D1)
        assert np.allclose(vals, full[sup[e]], atol=1e-12)
        assert vals.sum() == pytest.approx(1.0)


def test_function_elements_and_local_index():
    sp = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 1, 2, 2], 1),
        ]
    )
    # each function sits at most once on an element, and its elements
    # are the tensor product of its per-direction elements
    sup = sp.supports()
    for A in range(sp.n_funcs):
        els, _ = np.nonzero(sup == A)
        assert np.array_equal(els, np.unique(els))
        i, j = A % sp.shape[0], A // sp.shape[0]
        per_dim = [
            np.flatnonzero((kv.supports() == k).any(axis=1))
            for kv, k in zip(sp.knot_vectors, (i, j))
        ]
        expect = sorted(sp.ravel_element((a, b)) for a in per_dim[0] for b in per_dim[1])
        assert els.tolist() == expect
    assert sp.n_funcs - 1 not in sup[0]


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


def test_evaluate_trivariate_volume(rng):
    kvs = [
        KnotVector([0, 0, 0, 0.3, 1, 1, 1], 2),
        KnotVector([0, 0, 0.5, 1, 1], 1),
        KnotVector([0, 0, 0, 0, 0.4, 1, 1, 1, 1], 3),
    ]
    sp = SplineSpace(kvs)
    pts = rng.normal(size=(sp.n_funcs, 3))
    P = rng.uniform(0, 1, size=(40, 3))
    P[0], P[1], P[2] = 0.0, 1.0, [0.3, 0.5, 0.4]
    got = evaluate(sp, ControlNet(pts), P)
    D = [bspline_design(kv.knots, kv.degree, P[:, d]) for d, kv in enumerate(kvs)]
    ref = np.einsum("xi,xj,xk->xijk", *D).reshape(40, -1, order="F") @ pts
    assert np.allclose(got, ref, atol=1e-12)


@st.composite
def evaluation_cases(draw):
    """Random open knot vectors in 1 to 3 directions, degree 1 to 4, the
    point count, the physical dimension, whether the net is rational, and
    a seed for the control net and the points."""
    knots = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(1, 4))
        den = draw(st.integers(2, 16))
        interior = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=4))
        U = [0.0] * (p + 1)
        for t in sorted(interior):
            U += [t / den] * draw(st.integers(1, p))
        knots.append((U + [1.0] * (p + 1), p))
    m = draw(st.sampled_from([1, 50, 1000]))
    dim = draw(st.integers(1, 3))
    return knots, m, dim, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(evaluation_cases())
def test_evaluate_matches_index_tensor_reference(case):
    knots, m, dim, rational, seed = case
    rng = np.random.default_rng(seed)
    sp = SplineSpace([KnotVector(U, p) for U, p in knots])
    weights = rng.uniform(0.5, 2.0, sp.n_funcs) if rational else None
    net = ControlNet(rng.normal(size=(sp.n_funcs, dim)), weights)
    # points on breakpoints (domain ends included) and in between
    cols = []
    for kv in sp.knot_vectors:
        x = rng.uniform(0.0, 1.0, m)
        on_break = rng.random(m) < 0.5
        x[on_break] = rng.choice(kv.breakpoints, on_break.sum())
        cols.append(x)
    pts = np.stack(cols, axis=1)
    if m > 1:
        pts[0], pts[-1] = 0.0, 1.0
    got, ref = evaluate(sp, net, pts), evaluate_ref(sp, net, pts)
    assert got.shape == ref.shape == (m, dim)
    # two summation orders of sum_A N_A(x) P_A differ by rounding, bounded
    # per point by a multiple of sum_A |N_A(x)| |P_A| (N_A >= 0): a bound
    # relative to max |ref| fails where the value cancels. A rational value
    # is num / w of homogeneous sums, so its bound is (e_num + |ref| e_w) / w.
    H = net.homogeneous()
    bound = 1e-14 * evaluate_ref(sp, ControlNet(np.abs(H)), pts)
    if rational:
        w = evaluate_ref(sp, ControlNet(H[:, -1:]), pts)
        bound = (bound[:, :-1] + np.abs(ref) * bound[:, -1:]) / w
    assert np.all(np.abs(got - ref) <= bound)


def test_homogeneous_points_of_a_polynomial_net_are_a_read_only_view():
    net = ControlNet(np.arange(6.0).reshape(3, 2))
    H = net.homogeneous()
    assert np.shares_memory(H, net.points)
    with pytest.raises(ValueError, match="read-only"):
        H[0, 0] = -1.0
    assert np.array_equal(net.points, np.arange(6.0).reshape(3, 2))
    # a rational net's homogeneous points are a new array
    rational = ControlNet(net.points, [1.0, 2.0, 3.0])
    assert not np.shares_memory(rational.homogeneous(), net.points)
    assert rational.homogeneous().flags.writeable


@pytest.mark.parametrize("rational", [False, True])
def test_evaluate_returns_contiguous_float_rows(rng, rational):
    """(m, D) float64 in C order, for 1 to 3 directions and 1 to 3 coordinates."""
    for d in (1, 2, 3):
        sp = SplineSpace([KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)] * d)
        for D in (1, 2, 3):
            weights = rng.uniform(0.5, 2.0, sp.n_funcs) if rational else None
            net = ControlNet(rng.normal(size=(sp.n_funcs, D)), weights)
            for m in (1, 7):
                got = evaluate(sp, net, rng.uniform(0.0, 1.0, (m, d)))
                assert got.shape == (m, D)
                assert got.dtype == np.float64
                assert got.flags.c_contiguous


def test_cached_transposed_extraction_is_read_only_and_equal(rng):
    for p in (1, 2, 3, 4):
        kv = KnotVector(random_open_kv(rng, p, 6), p)
        C = kv.extraction()
        E = kv._extraction_entries()
        assert E is kv._extraction_entries()
        assert E.shape == ((p + 1) ** 2, kv.n_elements)
        assert not E.flags.writeable and E.flags.c_contiguous
        for a in range(p + 1):
            for b in range(p + 1):
                assert np.array_equal(E[a * (p + 1) + b], C[:, a, b])


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


@pytest.mark.parametrize("n, points, message", [
    (4, [[0.5, 0.5]], "point dimension mismatch"),
    (3, [[0.5]], "control net size does not match space dimension"),
    (4, [[np.nan]], "evaluation points must be finite"),
    (4, [[0.5], [-np.inf]], "evaluation points must be finite"),
    (4, [[-0.1]], "evaluation point outside the parametric domain"),
    (4, [[0.5], [1.5]], "evaluation point outside the parametric domain"),
])
def test_evaluate_and_its_derivative_reject_bad_points_alike(n, points, message):
    sp = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    for net in (ControlNet(np.ones((n, 2))), ControlNet(np.ones((n, 2)), np.full(n, 2.0))):
        for fn in (evaluate, evaluate_derivative):
            with pytest.raises(ValueError) as info:
                fn(sp, net, points)
            assert str(info.value) == message, fn


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


@st.composite
def derivative_cases(draw):
    """A random open knot vector of degree 1 to 5 whose interior knots
    stay below multiplicity p (polylines may have simple knots), the
    physical dimension, whether the net is rational, and a seed."""
    p = draw(st.integers(1, 5))
    den = draw(st.integers(2, 16))
    interior = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=4))
    U = [0.0] * (p + 1)
    for t in sorted(interior):
        U += [t / den] * draw(st.integers(1, max(1, p - 1)))
    U += [1.0] * (p + 1)
    return U, p, draw(st.integers(1, 3)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(derivative_cases())
def test_evaluate_derivative_matches_hodograph_reference(case):
    U, p, dim, rational, seed = case
    rng = np.random.default_rng(seed)
    kv = KnotVector(U, p)
    sp = SplineSpace([kv])
    net = ControlNet(rng.normal(size=(kv.n, dim)), rng.uniform(0.5, 2.0, kv.n) if rational else None)
    # points on breakpoints (domain ends included) and in between
    pts = np.concatenate([kv.breakpoints, rng.uniform(0.0, 1.0, 20)])[:, None]
    got, ref = evaluate_derivative(sp, net, pts), evaluate_derivative_ref(sp, net, pts)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _c0_parabolas():
    """Two parabolic arcs meeting at a C0 breakpoint, where the degree-1
    hodograph's knot vector would repeat 0.5 twice."""
    sp = SplineSpace([KnotVector([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)])
    return sp, ControlNet([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0], [4.0, 0.0]])


def test_evaluate_derivative_at_a_c0_breakpoint():
    from bezproj.projection import lift_normals

    sp, net = _c0_parabolas()
    d = evaluate_derivative(sp, net, [[0.25], [0.5], [0.75]])
    # right-continuous at 0.5, like evaluate
    assert np.array_equal(d, [[4.0, 0.0], [4.0, 4.0], [4.0, 0.0]])
    lifted = lift_normals(sp, net).points
    assert lifted.shape == (5, 2) and np.all(np.isfinite(lifted))


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


@pytest.mark.parametrize(
    "x", ["1/0", "1e400", "inf", "abc", None, float("nan"), 1e400],
    ids=["zero-denominator", "overflow", "inf-string", "word", "null", "nan", "inf"],
)
def test_parse_number_names_what_is_not_a_finite_number(x):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(x))} is not a finite number$"):
        parse_number(x)


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("control_points", [[True], [False]]),
        ("control_points", [[0.5], [True]]),
        ("weights", [True, True]),
        ("knot_vectors", [[False, False, True, True]]),
        ("knot_vectors", [[0, 0, "1", True]]),
    ],
    ids=["control points", "control point among numbers", "weights", "knots", "knot among strings"],
)
def test_spline_json_rejects_booleans(key, value):
    """JSON true and false are not the numbers 1 and 0."""
    data = {
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": [1],
        "knot_vectors": [[0, 0, 1, 1]],
        "control_points": [[0.0], [1.0]],
        key: value,
    }
    message = f'{key} must hold numbers or "n/d" strings (booleans are not numbers)'
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_spline_json(data)


@pytest.mark.parametrize("key", ["parametric_dim", "physical_dim"])
@pytest.mark.parametrize("value", [True, 1.7, "1"], ids=["bool", "fraction", "string"])
def test_spline_json_rejects_non_integer_dimensions(key, value):
    """int() took true as 1, truncated 1.7 to 1 and parsed "1"."""
    data = {
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": [1],
        "knot_vectors": [[0, 0, 1, 1]],
        "control_points": [[0.0], [1.0]],
        key: value,
    }
    with pytest.raises(ValueError, match=f"^{key} must be integers, got {re.escape(repr(value))}$"):
        read_spline_json(data)


@pytest.mark.parametrize(
    "degrees, knot_vectors",
    [([2, 3], [[0, 0, 0, 1, 1, 1]]), ([2], [[0, 0, 0, 1, 1, 1], [0, 0, 1, 1]])],
    ids=["two degrees, one knot vector", "one degree, two knot vectors"],
)
def test_spline_json_needs_one_degree_per_knot_vector(degrees, knot_vectors):
    """Either file was read as a 1-D quadratic, the extra entry dropped."""
    data = {
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": degrees,
        "knot_vectors": knot_vectors,
        "control_points": [[0.0], [1.0], [2.0]],
    }
    message = f"degrees has {len(degrees)} entries but knot_vectors has {len(knot_vectors)}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_spline_json(data)


@pytest.mark.parametrize(
    "key, value, ndim",
    [("control_points", None, 2), ("control_points", {"x": 1}, 2), ("knot_vectors", [None], 1),
     ("weights", "1/2", 1)],
    ids=["null control points", "object control points", "null knot vector", "text weights"],
)
def test_spline_json_names_a_field_that_is_not_an_array(key, value, ndim):
    """A null, object or string where an array belongs raised AttributeError."""
    data = {
        "parametric_dim": 1,
        "physical_dim": 1,
        "degrees": [1],
        "knot_vectors": [[0, 0, 1, 1]],
        "control_points": [[0.0], [1.0]],
        key: value,
    }
    with pytest.raises(ValueError, match=f"^{key} must be a {ndim}-D array of numbers$"):
        read_spline_json(data)


def test_knot_vector_caches_stacked_operators(rng):
    for p in (1, 2, 3):
        kv = KnotVector(random_open_kv(rng, p), p)
        C, R, S = kv.extraction(), kv.reconstruction(), kv.supports()
        assert C.shape == R.shape == (kv.n_elements, p + 1, p + 1)
        assert S.shape == (kv.n_elements, p + 1)
        assert kv.extraction() is C and kv.reconstruction() is R and kv.supports() is S
        assert np.allclose(C @ R, np.eye(p + 1), atol=1e-10)
