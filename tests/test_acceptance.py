"""Acceptance gate: nine numbered end-to-end criteria.

Run with -v to get one pass/fail line per criterion. Each test prints
the quantities it measured, so a failing criterion shows the actual
numbers next to the required window.

  1  golden extraction / elevation / window / Gramian matrices
  2  T-mesh local knot vectors and analysis-suitability verdicts
  3  projection recovers member-spline coefficients (100 random cases)
  4  sine ladder convergence slopes, p = 2..5
  5  local projector tracks the global one; uniform averaging is worse
  6  quarter-cylinder shell ladder convergence slopes, p = 2, 3
  7  h-refine / p-elevate / k-roughen leave 50 random curves unchanged
  8  element-merge residual is orthogonal to the target basis
  9  window ops agree with brute-force quadrature projection
"""

import os
import time
from fractions import Fraction as F

import numpy as np
import pytest

from bezproj.benchmark import run_convergence
from bezproj.bernstein import (
    elevation_matrix,
    gramian,
    interval_transform,
    reduction_matrix,
)
from bezproj.projection import TargetFunction, bezier_project, smoothing_weight_table
from bezproj.spline_space import (
    ControlNet,
    KnotVector,
    SplineSpace,
    evaluate,
    univariate_extraction_exact,
)
from bezproj.spline_ops import (
    apply_plan,
    large_to_small,
    multi_to_one,
    plan_h_refine,
    plan_k_roughen,
    plan_p_elevate,
)
from bezproj.tmesh import read_tmesh_json
from oracles import (
    bernstein_design_ref,
    exact_bernstein_proj,
    exact_bernstein_proj_2d,
    gauss_panels,
    random_open_kv,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _finv(M):
    """Exact Gauss-Jordan inverse of a Fraction matrix."""
    n = len(M)
    W = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next(r for r in range(c, n) if W[r][c] != 0)
        W[c], W[piv] = W[piv], W[c]
        pv = W[c][c]
        W[c] = [x / pv for x in W[c]]
        for r in range(n):
            if r != c and W[r][c] != 0:
                f = W[r][c]
                W[r] = [a - f * b for a, b in zip(W[r], W[c])]
    return [row[n:] for row in W]


def _slope(rows, degree, key="error_bezier", n_rungs=None):
    sel = [r for r in rows if r["degree"] == degree]
    if n_rungs is not None:
        sel = sel[:n_rungs]
    hs = np.log([r["h"] for r in sel])
    es = np.log([r[key] for r in sel])
    return float(np.polyfit(hs, es, 1)[0])


@pytest.fixture(scope="module")
def sine_ladder():
    t0 = time.perf_counter()
    rows = run_convergence(target="sine", degrees=(2, 3, 4), levels=5,
                           projector="both")
    rows += run_convergence(target="sine", degrees=(5,), levels=5,
                            projector="bezier")
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def sine_uniform_ladder():
    return run_convergence(target="sine", degrees=(2, 3, 4), levels=5,
                           weighting="uniform", projector="bezier")


@pytest.fixture(scope="module")
def shell_ladder():
    t0 = time.perf_counter()
    rows = run_convergence(target="govindjee", degrees=(2, 3), levels=4,
                           projector="both")
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


# --------------------------------------------------------- criterion 1


def test_criterion_1_golden_matrices():
    t0 = time.perf_counter()
    third, half = F(1, 3), F(1, 2)

    # cubic with double interior knots: second-element extraction
    kv_a = [F(0)] * 4 + [third] * 2 + [2 * third] * 2 + [F(1)] * 4
    C_a = univariate_extraction_exact(kv_a, 3)[1]
    assert C_a == [
        [half, 0, 0, 0],
        [half, 1, 0, 0],
        [0, 0, 1, half],
        [0, 0, 0, half],
    ]

    # its degree-elevated quartic: extraction and reconstruction
    kv_b = [F(0)] * 5 + [third] * 3 + [2 * third] * 3 + [F(1)] * 5
    C_b = univariate_extraction_exact(kv_b, 4)[1]
    assert C_b == [
        [half, 0, 0, 0, 0],
        [half, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, half],
        [0, 0, 0, 0, half],
    ]
    R_b = _finv(C_b)
    assert R_b == [
        [2, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, -1],
        [0, 0, 0, 0, 2],
    ]

    # degree elevation and L2 degree reduction maps
    assert np.max(np.abs(elevation_matrix(3, 4) - np.array([
        [1, 0.25, 0, 0, 0],
        [0, 0.75, 0.5, 0, 0],
        [0, 0, 0.5, 0.75, 0],
        [0, 0, 0, 0.25, 1],
    ]))) <= 1e-12
    assert np.max(np.abs(reduction_matrix(3, 2) - np.array([
        [19, -5, 1],
        [3, 15, -3],
        [-3, 15, 3],
        [1, -5, 19],
    ]) / 20.0)) <= 1e-12

    # smoothness-decreased cubic: middle element C and R
    kv_k = [F(0)] * 4 + [third, 2 * third] + [F(1)] * 4
    C_k = univariate_extraction_exact(kv_k, 3)[1]
    assert C_k == [
        [F(1, 4), 0, 0, 0],
        [F(7, 12), F(2, 3), third, F(1, 6)],
        [F(1, 6), third, F(2, 3), F(7, 12)],
        [0, 0, 0, F(1, 4)],
    ]
    assert _finv(C_k) == [
        [4, 0, 0, 0],
        [-4, 2, -1, 1],
        [1, -1, 2, -4],
        [0, 0, 0, 4],
    ]

    # four-element quadratic: first-element extraction
    kv_q = [F(0)] * 3 + [F(1, 4), half, F(3, 4)] + [F(1)] * 3
    C_1 = univariate_extraction_exact(kv_q, 2)[0]
    assert C_1 == [[1, 0, 0], [0, 1, half], [0, 0, half]]

    # biunit-window transforms: left/right halves and their inverses
    assert np.max(np.abs(interval_transform(2, -1.0, 0.0) - np.array(
        [[1, 0, 0], [0.5, 0.5, 0], [0.25, 0.5, 0.25]]))) <= 1e-12
    assert np.max(np.abs(interval_transform(2, 0.0, 1.0) - np.array(
        [[0.25, 0.5, 0.25], [0, 0.5, 0.5], [0, 0, 1]]))) <= 1e-12
    assert np.max(np.abs(interval_transform(2, -1.0, 3.0) - np.array(
        [[1, 0, 0], [-1, 2, 0], [1, -4, 4]]))) <= 1e-12
    assert np.max(np.abs(interval_transform(2, -3.0, 1.0) - np.array(
        [[4, -4, 1], [0, 2, -1], [0, 0, 1]]))) <= 1e-12

    # quadratic Gramian on the biunit interval, unit measure
    assert np.max(np.abs(gramian(2) - np.array([
        [F(2, 5), F(1, 5), F(1, 15)],
        [F(1, 5), F(4, 15), F(1, 5)],
        [F(1, 15), F(1, 5), F(2, 5)],
    ], dtype=np.float64))) <= 1e-12

    # shifted-breakpoint transforms for the two-element move 0.5 -> 0.7
    assert np.max(np.abs(interval_transform(2, -1.0, 3.0 / 7.0) - np.array(
        [[49, 0, 0], [14, 35, 0], [4, 20, 25]]) / 49.0)) <= 1e-12
    assert np.max(np.abs(interval_transform(2, -1.0, -0.6) - np.array(
        [[1, 0, 0], [0.8, 0.2, 0], [0.64, 0.32, 0.04]]))) <= 1e-12
    assert np.max(np.abs(interval_transform(2, -6.0, 1.0) - np.array(
        [[49, -70, 25], [0, 14, -10], [0, 0, 4]]) / 4.0)) <= 1e-12

    # smoothing weights of the two-element quadratic with break 0.7
    # (elements 0 and 1 support functions 0..2 and 1..3)
    sp = SplineSpace([KnotVector([0, 0, 0, 0.7, 1, 1, 1], 2)])
    table = smoothing_weight_table(sp)
    for got, want in ((table[0, 1], F(13, 16)), (table[0, 2], F(7, 24)),
                      (table[1, 0], F(3, 16)), (table[1, 1], F(17, 24))):
        assert abs(got - float(want)) <= 1e-12

    elapsed = time.perf_counter() - t0
    print(f"16 golden matrices and 4 golden weights matched, {elapsed:.3f} s")
    assert elapsed < 1.0


# --------------------------------------------------------- criterion 2


def test_criterion_2_tmesh_local_knot_suite():
    t0 = time.perf_counter()
    cases = [
        ("tmesh_a", (4, 8), (3, 7), [0, 1, 5, 7], [0, 0, 4, 6]),
        ("tmesh_b", (9, 9), (7, 9), [1, 4, 5, 7, 7], [3, 4, 6, 7]),
        ("tmesh_c", (4, 7), (8, 8), [0, 1, 4, 5], [0, 0, 4, 5, 6]),
        ("tmesh_d", (8, 8), (8, 8), [0, 1, 4, 5, 7], [0, 0, 4, 5, 6]),
    ]
    for name, xs, ys, want1, want2 in cases:
        mesh = read_tmesh_json(os.path.join(FIXTURES, name + ".json"))
        (anchor,) = np.flatnonzero((mesh.anchors() == [xs, ys]).all(axis=(1, 2)))
        g1, g2 = mesh.local_knot_vectors(anchor)
        print(f"{name}: g1={list(g1)} g2={list(g2)}")
        assert list(g1) == want1 and list(g2) == want2

    left = read_tmesh_json(os.path.join(FIXTURES, "tmesh_ext_left.json"))
    right = read_tmesh_json(os.path.join(FIXTURES, "tmesh_ext_right.json"))
    assert not left.is_analysis_suitable()
    assert right.is_analysis_suitable()
    print("extension fixtures: left not suitable, right suitable")

    elapsed = time.perf_counter() - t0
    print(f"{elapsed:.3f} s")
    assert elapsed < 1.0


# --------------------------------------------------------- criterion 3


def _jittered_kv(rng, p, n_breaks):
    """Open knot vector with bounded element-size ratio.

    Breakpoints jitter around a uniform grid, so adjacent spans differ
    by at most ~4x; reconstruction stays well conditioned and roundoff
    cannot masquerade as a projection defect.
    """
    grid = np.linspace(0.0, 1.0, n_breaks + 2)[1:-1]
    step = 1.0 / (n_breaks + 1)
    interior = grid + rng.uniform(-0.3, 0.3, size=n_breaks) * step
    knots = [0.0] * (p + 1)
    for t in sorted(interior):
        knots.extend([float(t)] * int(rng.integers(1, p + 1)))
    knots.extend([1.0] * (p + 1))
    return KnotVector(knots, p)


def test_criterion_3_spline_preservation():
    rng = np.random.default_rng(20250831)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        dim = 1 if case % 5 < 3 else 2
        degrees = [int(rng.integers(1, 5)) for _ in range(dim)]
        kvs = [_jittered_kv(rng, p, int(rng.integers(1, 4))) for p in degrees]
        sp = SplineSpace(kvs)
        pts = rng.normal(size=(sp.n_funcs, int(rng.integers(1, 4))))
        weights = None
        if rng.random() < 0.4:
            weights = rng.uniform(0.5, 2.0, size=sp.n_funcs)
        net = ControlNet(pts, weights)
        f = TargetFunction(lambda q, s=sp, n=net: evaluate(s, n, q))
        rep = bezier_project(f, sp, weights=weights)
        worst = max(worst, float(np.max(np.abs(rep.net.points - pts))))
    elapsed = time.perf_counter() - t0
    print(f"100 random spaces: worst coefficient deviation {worst:.3e}, "
          f"{elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 30.0


# --------------------------------------------------------- criterion 4


def test_criterion_4_sine_convergence_rates(sine_ladder):
    rows = sine_ladder["rows"]
    checks = [(f"p={p}", _slope(rows, p), p + 0.9, p + 1.1) for p in (2, 3, 4)]
    # degree five sits at the rounding floor on the finest rung, so the
    # slope window widens and only the coarse rungs enter the fit
    checks.append(("p=5 coarse rungs", _slope(rows, 5, n_rungs=4), 5.7, 6.3))

    failures = []
    for label, s, lo, hi in checks:
        ok = lo <= s <= hi
        print(f"{label}: slope {s:.4f}, window [{lo:.1f}, {hi:.1f}]"
              f" -> {'ok' if ok else 'OUTSIDE'}")
        if not ok:
            failures.append(f"{label}: {s:.4f} outside [{lo:.1f}, {hi:.1f}]")
    print(f"ladder wall time {sine_ladder['elapsed']:.1f} s")
    assert sine_ladder["elapsed"] < 30.0
    assert not failures, "; ".join(failures)


# --------------------------------------------------------- criterion 5


def test_criterion_5_local_near_global(sine_ladder, sine_uniform_ladder):
    rows = sine_ladder["rows"]
    worst = 0.0
    for r in rows:
        if r["degree"] > 4:
            continue
        ratio = r["error_bezier"] / r["error_global"]
        worst = max(worst, ratio)
        assert ratio <= 2.0, (
            f"p={r['degree']} n={r['n_elements']}: local/global {ratio:.3f} > 2"
        )
    print(f"worst local/global error ratio over all rungs: {worst:.4f}")

    for p in (2, 3, 4):
        fine = [r for r in rows if r["degree"] == p][-1]
        fine_u = [r for r in sine_uniform_ladder if r["degree"] == p][-1]
        print(f"p={p} finest rung: blended {fine['error_bezier']:.3e}, "
              f"uniform {fine_u['error_bezier']:.3e}")
        assert fine_u["error_bezier"] > fine["error_bezier"], (
            f"uniform averaging not worse at the finest rung for p={p}"
        )


# --------------------------------------------------------- criterion 6


def test_criterion_6_shell_benchmark_rates(shell_ladder):
    rows = shell_ladder["rows"]
    failures = []
    for p in (2, 3):
        s = _slope(rows, p)
        lo, hi = p + 0.8, p + 1.2
        ok = lo <= s <= hi
        errs = [r["error_bezier"] for r in rows if r["degree"] == p]
        print(f"p={p}: errors {['%.3e' % e for e in errs]}")
        print(f"p={p}: slope {s:.4f}, window [{lo:.1f}, {hi:.1f}]"
              f" -> {'ok' if ok else 'OUTSIDE'}")
        if not ok:
            failures.append(f"p={p}: {s:.4f} outside [{lo:.1f}, {hi:.1f}]")
    print(f"ladder wall time {shell_ladder['elapsed']:.1f} s")
    assert shell_ladder["elapsed"] < 60.0
    assert not failures, "; ".join(failures)


# --------------------------------------------------------- criterion 7


def test_criterion_7_nested_ops_exact():
    rng = np.random.default_rng(20250832)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 5))
        kv = KnotVector(
            random_open_kv(rng, p, n_breaks=int(rng.integers(1, 5)),
                           max_mult=p - 1),
            p,
        )
        sp = SplineSpace([kv])
        net = ControlNet(
            rng.normal(size=(sp.n_funcs, int(rng.integers(2, 4)))),
            weights=rng.uniform(0.5, 2.0, size=sp.n_funcs),
        )
        ts = np.linspace(0.0, 1.0, 100).reshape(-1, 1)
        ref = evaluate(sp, net, ts)
        for plan in (plan_h_refine(sp), plan_p_elevate(sp), plan_k_roughen(sp)):
            assert plan.exact
            out = apply_plan(plan, net)
            dev = float(np.max(np.abs(evaluate(plan.target, out, ts) - ref)))
            worst = max(worst, dev)
            assert dev <= 1e-10, f"{plan.name}: deviation {dev:.3e}"
    elapsed = time.perf_counter() - t0
    print(f"50 random rational curves x 3 ops: worst pointwise deviation "
          f"{worst:.3e}, {elapsed:.2f} s")


# --------------------------------------------------------- criterion 8


def test_criterion_8_coarsening_orthogonality():
    rng = np.random.default_rng(20250833)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 5))
        coarse = SplineSpace(
            [KnotVector(random_open_kv(rng, p, n_breaks=int(rng.integers(1, 3))), p)]
        )
        inner = rng.uniform(0.08, 0.92, size=int(rng.integers(2, 5)))
        bps = coarse.knot_vectors[0].breakpoints
        inner = [t for t in inner if np.min(np.abs(bps - t)) > 1e-3]
        fine = plan_h_refine(coarse, splits={0: sorted(inner)}).target
        coeffs = rng.normal(size=(fine.n_funcs, 1))

        fbps = fine.knot_vectors[0].breakpoints
        fine_bounds = fine.bounds()[:, 0]
        for te in range(coarse.n_elements):
            (ta, tb), = coarse.bounds([te])[0]
            els = np.flatnonzero(
                (fine_bounds[:, 0] >= ta - 1e-12) & (fine_bounds[:, 1] <= tb + 1e-12)
            ).tolist()
            lam = multi_to_one(fine, els, coarse, te, coeffs)
            beta = coarse.extraction([te])[0].T @ lam

            fnet = ControlNet(coeffs)
            cuts = [t for t in fbps if ta < t < tb]

            def resid(x):
                src = evaluate(fine, fnet, x.reshape(-1, 1))[:, 0]
                xi = 2.0 * (x - ta) / (tb - ta) - 1.0
                return src - bernstein_design_ref(p, xi) @ beta[:, 0]

            for j in range(p + 1):
                moment = gauss_panels(
                    lambda x: resid(x)
                    * bernstein_design_ref(p, 2.0 * (x - ta) / (tb - ta) - 1.0)[:, j],
                    ta, tb, nq=20, breaks=cuts,
                )
                worst = max(worst, abs(moment))
                assert abs(moment) <= 1e-10
    print(f"largest residual moment against the target basis: {worst:.3e}")


# --------------------------------------------------------- criterion 9


def test_criterion_9_window_ops_match_quadrature():
    rng = np.random.default_rng(20250834)
    worst = 0.0

    for fix in range(20):
        bivariate = fix % 4 == 3
        dim = 2 if bivariate else 1
        degrees = [int(rng.integers(1, 4 if bivariate else 5)) for _ in range(dim)]
        coarse = SplineSpace(
            [
                KnotVector(random_open_kv(rng, p, n_breaks=int(rng.integers(1, 3))), p)
                for p in degrees
            ]
        )
        splits = {}
        for d in range(dim):
            bps = coarse.knot_vectors[d].breakpoints
            inner = rng.uniform(0.08, 0.92, size=2 if bivariate else 3)
            splits[d] = sorted(t for t in inner if np.min(np.abs(bps - t)) > 1e-3)
        fine = plan_h_refine(coarse, splits=splits).target

        # merge: fine-element fields onto one coarse element
        coeffs = rng.normal(size=(fine.n_funcs, 1))
        te = int(rng.integers(coarse.n_elements))
        tb, fb = coarse.bounds([te])[0], fine.bounds()
        tel_bounds = tb.tolist()
        els = np.flatnonzero(np.all(
            (fb[:, :, 0] >= tb[:, 0] - 1e-12) & (fb[:, :, 1] <= tb[:, 1] + 1e-12), axis=1
        )).tolist()
        lam = multi_to_one(fine, els, coarse, te, coeffs)
        fnet = ControlNet(coeffs)
        if bivariate:
            def f2(X, Y, s=fine, n=fnet):
                pts = np.column_stack([X.ravel(), Y.ravel()])
                return evaluate(s, n, pts)[:, 0].reshape(X.shape)

            breaks = tuple(
                [t for t in fine.knot_vectors[d].breakpoints
                 if tel_bounds[d][0] < t < tel_bounds[d][1]]
                for d in range(2)
            )
            beta_ref = exact_bernstein_proj_2d(
                f2, tel_bounds, coarse.degrees, nq=12, breaks=breaks
            )
        else:
            (ta, tb), = tel_bounds
            cuts = [t for t in fine.knot_vectors[0].breakpoints if ta < t < tb]
            beta_ref = exact_bernstein_proj(
                lambda x, s=fine, n=fnet: evaluate(s, n, x.reshape(-1, 1))[:, 0],
                ta, tb, coarse.degrees[0], nq=20, breaks=cuts,
            )
        lam_ref = coarse.reconstruction([te])[0].T @ beta_ref.reshape(-1, 1)
        dev = float(np.max(np.abs(lam - lam_ref)))
        worst = max(worst, dev)
        assert dev <= 1e-9, f"merge fixture {fix}: deviation {dev:.3e}"

        # restrict: one coarse element's field onto the fine elements inside
        ccoeffs = rng.normal(size=(coarse.n_funcs, 1))
        got = large_to_small(coarse, te, fine, els, ccoeffs)
        cnet = ControlNet(ccoeffs)
        for fe, lam_f in got.items():
            (fel_bounds,) = fine.bounds([fe]).tolist()
            if bivariate:
                def g2(X, Y, s=coarse, n=cnet):
                    pts = np.column_stack([X.ravel(), Y.ravel()])
                    return evaluate(s, n, pts)[:, 0].reshape(X.shape)

                beta_f = exact_bernstein_proj_2d(
                    g2, fel_bounds, fine.degrees, nq=10
                )
            else:
                (fa, fb), = fel_bounds
                beta_f = exact_bernstein_proj(
                    lambda x, s=coarse, n=cnet: evaluate(s, n, x.reshape(-1, 1))[:, 0],
                    fa, fb, fine.degrees[0], nq=20,
                )
            ref_f = fine.reconstruction([fe])[0].T @ beta_f.reshape(-1, 1)
            dev = float(np.max(np.abs(lam_f - ref_f)))
            worst = max(worst, dev)
            assert dev <= 1e-9, f"restrict fixture {fix}: deviation {dev:.3e}"

    print(f"20 fixtures, both window ops: worst deviation {worst:.3e}")
