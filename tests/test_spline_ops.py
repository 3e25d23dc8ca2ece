import numpy as np
import pytest

from bezproj.bernstein import elevation_matrix
from bezproj.spline_ops import (
    _to_local,
    apply_plan,
    compose,
    large_to_small,
    multi_to_one,
    plan_generic,
    plan_h_coarsen,
    plan_h_refine,
    plan_k_roughen,
    plan_k_smooth,
    plan_p_elevate,
    plan_p_reduce,
    plan_reparameterize,
)
from bezproj.spline_space import ControlNet, KnotVector, SplineSpace, evaluate
from oracles import exact_bernstein_proj, random_open_kv


def _curve(rng, knots, p, rational=False):
    sp = SplineSpace([KnotVector(knots, p)])
    w = rng.uniform(0.5, 2.0, size=sp.n_funcs) if rational else None
    net = ControlNet(rng.normal(size=(sp.n_funcs, 2)), w)
    return sp, net


def _max_deviation(sp_a, net_a, sp_b, net_b, n=100):
    lo, hi = sp_a.knot_vectors[0].domain
    ts = np.linspace(lo, hi, n)[:, None]
    return float(
        np.max(np.abs(evaluate(sp_a, net_a, ts) - evaluate(sp_b, net_b, ts)))
    )


# ------------------------------------------------------- refinement family


def test_h_refine_and_k_smooth_roundtrip():
    sp = SplineSpace([KnotVector([0, 0, 0, 1, 1, 1], 2)])
    # h-refinement adds breakpoints of multiplicity 1; k-roughening repeats one
    fine = plan_k_roughen(plan_h_refine(sp, [0.25, 0.5]).target, [0.5]).target
    assert list(fine.knot_vectors[0].multiplicities) == [3, 1, 2, 3]
    back = plan_k_smooth(fine, [0.25, 0.5, 0.5]).target
    assert back == sp


def test_h_refine_and_k_roughen_merge_like_sequential_insertion(rng):
    kv = KnotVector([0, 0, 0, 0.3, 0.6, 1, 1, 1], 2)
    sp = SplineSpace([kv])
    new = np.r_[rng.uniform(0.05, 0.95, 6), 0.45]
    rng.shuffle(new)
    U = kv.knots
    for t in np.r_[new, 0.45, 0.3]:
        U = np.insert(U, np.searchsorted(U, t, side="right"), t)
    # new breakpoints come from h-refine, copies of breakpoints from k-roughen
    merged = plan_k_roughen(plan_h_refine(sp, new).target, [0.45, 0.3]).target.knot_vectors[0]
    assert np.array_equal(merged.knots, U)
    assert merged == KnotVector(U, 2)
    assert plan_h_refine(sp, {0: []}).target == sp
    for bad in (0.0, 1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match=f"insertion point {bad} not strictly inside"):
            plan_h_refine(sp, [0.5, bad, 0.7])


def test_structural_variants():
    sp = SplineSpace([KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)])
    up = plan_p_elevate(sp).target
    kv = up.knot_vectors[0]
    assert kv.degree == 3 and list(kv.multiplicities) == [4, 2, 4]
    down = plan_p_reduce(up).target
    assert down == sp
    rough = plan_k_roughen(sp, [0.4]).target
    assert list(rough.knot_vectors[0].multiplicities) == [3, 2, 3]
    smooth = plan_k_smooth(rough, [0.4]).target
    assert smooth == sp
    # smoothing a multiplicity-one knot removes it outright
    assert plan_k_smooth(sp, [0.4]).target.n_elements == 1
    rep = plan_reparameterize(sp, [0.7]).target.knot_vectors[0]
    assert np.allclose(rep.breakpoints, [0, 0.7, 1])
    assert list(rep.multiplicities) == list(sp.knot_vectors[0].multiplicities)
    with pytest.raises(ValueError, match="expected 1 interior breakpoints, got 2"):
        plan_reparameterize(sp, [0.2, 0.6])


def test_k_roughen_matches_breakpoints_relative_to_the_domain():
    # 5e-13 is 5e-4 of a 1e-9 domain: no breakpoint is that close
    tiny = SplineSpace([KnotVector([0, 0, 0, 0.4e-9, 1e-9, 1e-9, 1e-9], 2)])
    with pytest.raises(ValueError, match="is not an interior breakpoint"):
        plan_k_roughen(tiny, [0.4e-9 + 5e-13])
    # 1e-10 is 1e-13 of a 1000-wide domain: the breakpoint at 400
    wide = SplineSpace([KnotVector([0, 0, 0, 400, 1000, 1000, 1000], 2)])
    kv = plan_k_roughen(wide, [400 + 1e-10]).target.knot_vectors[0]
    assert list(kv.breakpoints) == [0, 400, 1000]
    assert list(kv.multiplicities) == [3, 2, 3]


def test_p_elevate_and_reduce_check_one_entry_per_direction():
    sp = SplineSpace(
        [KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2), KnotVector([0, 0, 0, 1, 1, 1], 2)]
    )
    for plan, arg in ((plan_p_elevate, "inc"), (plan_p_reduce, "dec")):
        for steps in ([1, 1, 1], [1]):
            with pytest.raises(ValueError, match=f"{arg}: expected one entry per direction"):
                plan(sp, steps)
        assert plan(sp, {1: 1}).target.degrees == (2, 3 if plan is plan_p_elevate else 1)


@pytest.mark.parametrize("steps", [1.5, True, [1, 0.5]], ids=["fraction", "bool", "list"])
def test_p_elevate_and_reduce_take_integer_steps(steps):
    """int() elevated by 1 for 1.5 and for true."""
    sp = SplineSpace([KnotVector([0, 0, 0, 1, 1, 1], 2), KnotVector([0, 0, 0, 1, 1, 1], 2)])
    for plan, arg in ((plan_p_elevate, "inc"), (plan_p_reduce, "dec")):
        with pytest.raises(ValueError, match=f"^{arg} must be integers, got "):
            plan(sp, steps)


def test_h_refine_preserves_curve(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.5, 1, 1, 1], 2, rational=True)
    plan = plan_h_refine(sp, {0: [0.2, 0.7]})
    tgt, out = plan.target, apply_plan(plan, net)
    assert plan.exact and tgt.n_elements == 4
    assert _max_deviation(sp, net, tgt, out) < 1e-12


def test_h_refine_default_bisects_every_element(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.4, 1, 1, 1], 2)
    plan = plan_h_refine(sp)
    tgt, out = plan.target, apply_plan(plan, net)
    assert np.allclose(tgt.knot_vectors[0].breakpoints, [0, 0.2, 0.4, 0.7, 1])
    assert _max_deviation(sp, net, tgt, out) < 1e-12


def test_h_refine_rejects_existing_breakpoint(rng):
    sp, _ = _curve(rng, [0, 0, 0, 0.5, 1, 1, 1], 2)
    with pytest.raises(ValueError):
        plan_h_refine(sp, {0: [0.5]})


def test_h_coarsen_roundtrip_recovers_refined_curve(rng):
    sp, net = _curve(rng, [0, 0, 0, 1, 1, 1], 2)
    fine = plan_h_refine(sp, {0: [0.3, 0.6]})
    back = plan_h_coarsen(fine.target, {0: [0.3, 0.6]})
    back_sp, back_net = back.target, apply_plan(back, apply_plan(fine, net))
    assert back_sp == sp
    assert np.allclose(back_net.points, net.points, atol=1e-11)


def test_h_coarsen_removes_full_multiplicity(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)
    plan = plan_h_coarsen(sp, {0: [0.5]})
    assert plan.target.n_elements == 1
    assert apply_plan(plan, net).n == plan.target.n_funcs


def test_p_elevate_preserves_curve(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.3, 1, 1, 1], 2, rational=True)
    plan = plan_p_elevate(sp)
    tgt, out = plan.target, apply_plan(plan, net)
    assert plan.exact and tgt.degrees == (3,)
    assert _max_deviation(sp, net, tgt, out) < 1e-12


def test_p_elevate_zero_increment_direction():
    # mixed-degree surface raised to equal degree: one direction stays
    sp = SplineSpace(
        [KnotVector([0, 0, 0, 1, 1, 1], 2), KnotVector([0, 0, 1, 1], 1)]
    )
    plan = plan_p_elevate(sp, [0, 1])
    assert plan.target.degrees == (2, 2)
    assert plan.exact
    with pytest.raises(ValueError):
        plan_p_elevate(sp, [-1, 1])


def test_p_reduce_roundtrip(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.4, 1, 1, 1], 2)
    up = plan_p_elevate(sp)
    down = plan_p_reduce(up.target)
    down_sp, down_net = down.target, apply_plan(down, apply_plan(up, net))
    assert down_sp == sp
    assert np.allclose(down_net.points, net.points, atol=1e-10)


def test_k_roughen_preserves_curve(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.25, 0.75, 1, 1, 1], 2, rational=True)
    plan = plan_k_roughen(sp)
    tgt, out = plan.target, apply_plan(plan, net)
    assert plan.exact
    assert list(tgt.knot_vectors[0].multiplicities) == [3, 2, 2, 3]
    assert _max_deviation(sp, net, tgt, out) < 1e-12


def test_k_smooth_roundtrip(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.5, 1, 1, 1], 2)
    rough = plan_k_roughen(sp)
    back = plan_k_smooth(rough.target)
    back_sp, back_net = back.target, apply_plan(back, apply_plan(rough, net))
    assert back_sp == sp
    assert np.allclose(back_net.points, net.points, atol=1e-11)


def test_k_smooth_raises_when_nothing_to_spare(rng):
    sp, _ = _curve(rng, [0, 0, 0, 0.5, 1, 1, 1], 2)
    with pytest.raises(ValueError):
        plan_k_smooth(sp)


def test_reparameterize_moves_breakpoints(rng):
    """Shifting the interior breakpoint re-approximates the curve on the
    new partition: per-element estimates must match the brute-force
    piecewise projection, blended with the smoothing weights."""
    from bezproj.projection import smoothing_weight_table

    sp, net = _curve(rng, [0, 0, 0, 0.5, 1, 1, 1], 2)
    plan = plan_reparameterize(sp, {0: [0.7]})
    tgt, out = plan.target, apply_plan(plan, net)
    assert np.allclose(tgt.knot_vectors[0].breakpoints, [0, 0.7, 1])

    lams = []
    for te, (a, b) in enumerate([(0.0, 0.7), (0.7, 1.0)]):
        beta = np.stack(
            [
                exact_bernstein_proj(
                    lambda x, k=k: evaluate(
                        sp, net, np.atleast_1d(x)[:, None]
                    )[:, k],
                    a, b, 2, breaks=(0.5,),
                )
                for k in range(2)
            ],
            axis=1,
        )
        lams.append(tgt.reconstruction([te])[0].T @ beta)
    table = smoothing_weight_table(tgt)
    expect = np.zeros((tgt.n_funcs, 2))
    for sup, w, lam in zip(tgt.supports(), table, lams):
        expect[sup] += w[:, None] * lam
    assert np.allclose(out.points, expect, atol=1e-10)


def test_ops_work_on_surfaces(rng):
    sp = SplineSpace(
        [KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2), KnotVector([0, 0, 1, 1], 1)]
    )
    net = ControlNet(rng.normal(size=(sp.n_funcs, 3)))
    plan = plan_h_refine(sp, {0: [0.25], 1: [0.5]})
    tgt, out = plan.target, apply_plan(plan, net)
    assert tgt.element_shape == (3, 2)
    pts = rng.uniform(0, 1, size=(40, 2))
    assert np.allclose(
        evaluate(sp, net, pts), evaluate(tgt, out, pts), atol=1e-12
    )


# ------------------------------------------------------- plan mechanics


def test_compose_fuses_chains(rng):
    sp, net = _curve(rng, [0, 0, 0, 0.5, 1, 1, 1], 2)
    plan1 = plan_h_refine(sp, {0: [0.25]})
    plan2 = plan_p_elevate(plan1.target, 1)
    fused = compose(plan1, plan2)
    assert fused.exact
    step = apply_plan(plan2, apply_plan(plan1, net))
    direct = apply_plan(fused, net)
    assert np.allclose(step.points, direct.points, atol=1e-12)


def test_identity_plans_are_exact(rng):
    """A plan onto its own source space is exact, whichever builder made it;
    coarsening and refining back composes to an inexact plan all the same."""
    sp, net = _curve(rng, [0, 0, 0, 0.3, 0.3, 0.6, 1, 1, 1], 2, rational=True)
    plans = [
        plan_h_coarsen(sp, None),
        plan_p_reduce(sp, 0),
        plan_k_roughen(sp, [[]]),
        plan_reparameterize(sp, [[0.3, 0.6]]),
        plan_generic(sp, sp),
    ]
    for plan in plans:
        assert plan.target == sp and plan.exact, plan
        assert np.allclose(apply_plan(plan, net).points, net.points, atol=1e-13)
    down = plan_h_coarsen(sp, [[0.6]])
    back = compose(down, plan_h_refine(down.target, [[0.6]]))
    assert back.target == sp and not back.exact


@pytest.mark.parametrize("build, exact", [
    (lambda sp: plan_h_refine(sp), True),
    (lambda sp: plan_p_elevate(sp, [1, 0]), True),
    (lambda sp: plan_k_roughen(sp, [[0.6], [0.5]]), True),
    (lambda sp: plan_h_coarsen(sp, {0: [0.3]}), False),
    (lambda sp: plan_p_reduce(sp, [0, 1]), False),
    (lambda sp: plan_k_smooth(sp, {0: [0.3]}), False),
    (lambda sp: plan_reparameterize(sp, [[0.35, 0.6], [0.5]]), False),
])
def test_plans_that_change_the_space_are_exact_iff_it_grows(build, exact):
    sp = SplineSpace([
        KnotVector([0, 0, 0, 0.3, 0.3, 0.6, 1, 1, 1], 2),
        KnotVector([0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3),
    ])
    plan = build(sp)
    assert plan.target != sp and plan.exact is exact


def test_compose_requires_matching_spaces(rng):
    sp, _ = _curve(rng, [0, 0, 0, 0.5, 1, 1, 1], 2)
    other = SplineSpace([KnotVector([0, 0, 0, 1, 1, 1], 2)])
    with pytest.raises(ValueError):
        compose(plan_h_refine(sp), plan_h_refine(other))


def test_plan_generic_superspace_is_exact(rng):
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1], 3)])
    plan = plan_generic(src, tgt)
    assert plan.exact
    net = ControlNet(rng.normal(size=(src.n_funcs, 2)))
    out = apply_plan(plan, net)
    ts = np.linspace(0, 1, 60)[:, None]
    assert np.allclose(
        evaluate(src, net, ts), evaluate(tgt, out, ts), atol=1e-12
    )


def test_plan_generic_subspace_is_projection(rng):
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    plan = plan_generic(src, tgt)
    assert not plan.exact
    net = ControlNet(rng.normal(size=(src.n_funcs, 1)))
    out = apply_plan(plan, net)
    assert out.points.shape == (tgt.n_funcs, 1)


def test_plan_exactness_matches_breakpoints_within_the_tolerance():
    """Breakpoints within 1e-12 of the domain span are one breakpoint, for
    the exact flag as for every plan builder."""
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 0, 0.5 + 8e-13, 0.5 + 8e-13, 1, 1, 1, 1], 3)])
    assert plan_generic(src, tgt).exact


def test_plan_pairs_breakpoints_within_the_tolerance_as_one(rng):
    """A target breakpoint 8e-13 from the source's is the same breakpoint
    for the pairing too: each target span pairs with its own source span
    through the exact elevation matrix, and no sliver pair appears. The
    elevated pieces meet C1 only up to the 8e-13 shift in the target's
    geometry, so the blended net keeps them to 1e-12, not to rounding."""
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 0, 0.5 + 8e-13, 0.5 + 8e-13, 1, 1, 1, 1], 3)])
    plan = plan_generic(src, tgt)
    assert plan.exact
    (P,) = plan.pairings
    assert P.target.tolist() == [0, 1] and P.source.tolist() == [0, 1]
    assert all(np.array_equal(M, elevation_matrix(2, 3).T) for M in P.matrix)
    net = ControlNet(rng.normal(size=(src.n_funcs, 2)))
    out = apply_plan(plan, net)
    got = tgt.extraction().transpose(0, 2, 1) @ out.points[tgt.supports()]
    source = src.extraction().transpose(0, 2, 1) @ net.points[src.supports()]
    want = elevation_matrix(2, 3).T @ source
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_plan_domains_within_the_tolerance_are_one_domain():
    """On [0, 1e6] a target end 1e-7 away is within the tolerance: the
    plan builds, each span paired with itself as an exact identity."""
    src = SplineSpace([KnotVector([0, 0, 0, 5e5, 1e6, 1e6, 1e6], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 5e5] + [1e6 + 1e-7] * 3, 2)])
    plan = plan_generic(src, tgt)
    assert plan.exact
    (P,) = plan.pairings
    assert P.target.tolist() == [0, 1] and P.source.tolist() == [0, 1]
    assert all(np.array_equal(M, np.eye(3)) for M in P.matrix)


def test_window_ends_at_the_span_ends_are_minus_one_and_one_exactly(rng):
    """A window end at its span's end is exactly -1 or +1 in the span's
    biunit coordinates, for spans inside [0, 1] and on any scale."""
    a, b = np.sort(rng.uniform(0, 1, size=(2, 10**5)), axis=0)
    scale = 10.0 ** rng.uniform(-6, 6, size=10**5)
    for lo, hi in ((a, b), (scale * (a - 0.5), scale * (b - 0.5))):
        left, right = _to_local(lo, hi, lo, hi)
        assert np.all(left == -1.0) and np.all(right == 1.0)


@pytest.mark.parametrize("splits", [[0.3, 0.3], [0.3, 0.3 + 5e-13], [0.3 + 5e-13, 0.3]])
def test_h_refine_rejects_a_repeated_split(splits):
    """h-refinement adds breakpoints of multiplicity 1: a split at (or
    within the tolerance of) an earlier split is already a breakpoint."""
    sp = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    with pytest.raises(ValueError, match=f"split point {splits[1]} is already a breakpoint"):
        plan_h_refine(sp, splits)


@pytest.mark.parametrize("new", [[0.5, 0.5 + 5e-13], [1e-13, 0.5], [0.5, 1 - 1e-13]])
def test_reparameterize_rejects_breakpoints_within_the_tolerance(new):
    """New interior breakpoints that would snap together, or onto an end,
    would change the element count; they are refused."""
    sp = SplineSpace([KnotVector([0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], 3)])
    with pytest.raises(ValueError, match="strictly increasing inside the domain"):
        plan_reparameterize(sp, new)


def test_plan_generic_needs_matching_breakpoints(rng):
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)])
    with pytest.raises(ValueError):
        plan_generic(src, tgt)


def test_plan_domain_mismatch_raises(rng):
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    # same structure but a different parametric domain
    with pytest.raises(ValueError):
        plan_generic(src, SplineSpace([KnotVector([0, 0, 0, 1, 2, 2, 2], 2)]))


# ------------------------------------------------------- window projections


def test_large_to_small_restriction_is_exact(rng):
    """Splitting one element of a curve into the matching refined cells
    reproduces the curve restriction exactly."""
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    coeffs = rng.normal(size=(src.n_funcs, 2))
    tgt = SplineSpace([KnotVector([0, 0, 0, 0.25, 0.5, 1, 1, 1], 2)])
    out = large_to_small(src, 0, tgt, [0, 1], coeffs)
    assert set(out) == {0, 1}
    net = ControlNet(coeffs)
    for te, lam in out.items():
        ((a, b),) = tgt.bounds([te])[0]
        xs = np.linspace(a, b, 15)[:, None]
        # evaluate the local polynomial through the target extraction
        C = tgt.extraction([te])[0]
        from bezproj.bernstein import bernstein_matrix

        xi = (2 * xs[:, 0] - a - b) / (b - a)
        vals = bernstein_matrix(2, xi) @ (C.T @ lam)
        assert np.allclose(vals, evaluate(src, net, xs), atol=1e-11)


def test_large_to_small_requires_containment(rng):
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 0.25, 0.5, 1, 1, 1], 2)])
    coeffs = rng.normal(size=(src.n_funcs, 1))
    with pytest.raises(ValueError):
        large_to_small(src, 0, tgt, [0, 2], coeffs)


def test_window_ops_take_a_breakpoint_within_the_domain_tolerance(rng):
    """0.5 and 0.5 + 7e-13 are one breakpoint of the domain [0, 1], for the
    plans and for both window ops: each accepts the element it bounds and
    returns the field's Bernstein coefficients there."""
    A = SplineSpace([KnotVector([0, 0, 0, 0.25, 0.5, 1, 1, 1], 2)])
    B = SplineSpace([KnotVector([0, 0, 0, 0.25, 0.5 + 7e-13, 1, 1, 1], 2)])
    assert plan_generic(A, B).exact
    coeffs = rng.normal(size=(A.n_funcs, 2))
    want = A.extraction([1])[0].T @ coeffs[A.supports([1])[0]]
    for lam in (large_to_small(A, 1, B, [1], coeffs)[1], multi_to_one(A, [1], B, 1, coeffs)):
        assert np.max(np.abs(B.extraction([1])[0].T @ lam - want)) <= 1e-14
    # a refusal names the target element not covered once, or the stray source
    with pytest.raises(ValueError, match="^source elements do not cover target element 2 once$"):
        large_to_small(A, 1, B, [1, 2], coeffs)
    with pytest.raises(ValueError, match="^source elements do not cover target element 0 once$"):
        multi_to_one(A, [0, 0], SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)]), 0, coeffs)
    with pytest.raises(ValueError, match="^source element 2 overlaps no target element$"):
        multi_to_one(A, [1, 2], B, 1, coeffs)


def test_multi_to_one_matches_bruteforce(rng):
    """Merging two source elements into one target element equals the
    brute-force piecewise L2 projection."""
    src = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    coeffs = rng.normal(size=(src.n_funcs, 1))
    tgt = SplineSpace([KnotVector([0, 0, 0, 1, 1, 1], 2)])
    lam = multi_to_one(src, [0, 1], tgt, 0, coeffs)
    net = ControlNet(coeffs)
    ref = exact_bernstein_proj(
        lambda x: evaluate(src, net, np.atleast_1d(x)[:, None])[:, 0],
        0.0, 1.0, 2, breaks=(0.5,),
    )
    R = tgt.reconstruction([0])[0]
    lam_ref = R.T @ ref[:, None]
    assert np.allclose(lam, lam_ref, atol=1e-10)


def test_multi_to_one_requires_tiling(rng):
    src = SplineSpace([KnotVector([0, 0, 0, 0.25, 0.5, 1, 1, 1], 2)])
    tgt = SplineSpace([KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)])
    coeffs = rng.normal(size=(src.n_funcs, 1))
    with pytest.raises(ValueError):
        multi_to_one(src, [0], tgt, 1, coeffs)


def test_multi_to_one_residual_orthogonal(rng):
    """What the merged polynomial misses is invisible to every target
    Bernstein function."""
    src = SplineSpace([KnotVector([0, 0, 0, 0.3, 0.7, 1, 1, 1], 2)])
    coeffs = rng.normal(size=(src.n_funcs, 1))
    tgt = SplineSpace([KnotVector([0, 0, 0, 1, 1, 1], 2)])
    lam = multi_to_one(src, [0, 1, 2], tgt, 0, coeffs)
    beta = tgt.extraction([0])[0].T @ lam
    net = ControlNet(coeffs)

    from oracles import bernstein_design_ref, gauss_panels

    for j in range(3):
        val = gauss_panels(
            lambda x: (
                evaluate(src, net, np.atleast_1d(x)[:, None])[:, 0]
                - bernstein_design_ref(2, 2 * np.atleast_1d(x) - 1) @ beta[:, 0]
            )
            * bernstein_design_ref(2, 2 * np.atleast_1d(x) - 1)[:, j],
            0.0, 1.0, breaks=(0.3, 0.7),
        )
        assert abs(val) < 1e-12


def test_rational_refinement_keeps_circle_on_circle(rng):
    s = np.sqrt(2.0) / 2.0
    sp = SplineSpace([KnotVector([0, 0, 0, 1, 1, 1], 2)])
    net = ControlNet(
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.array([1.0, s, 1.0])
    )
    fine = plan_h_refine(sp, {0: [0.5]})
    tgt, out = fine.target, apply_plan(fine, net)
    ts = np.linspace(0, 1, 41)[:, None]
    xy = evaluate(tgt, out, ts)
    assert np.allclose(np.linalg.norm(xy, axis=1), 1.0, atol=1e-12)
    up = plan_p_elevate(tgt)
    tgt2, out2 = up.target, apply_plan(up, out)
    xy2 = evaluate(tgt2, out2, ts)
    assert np.allclose(np.linalg.norm(xy2, axis=1), 1.0, atol=1e-12)


def test_exact_plans_random_suite(rng):
    """Property sweep: every structurally exact op preserves the curve."""
    for _ in range(15):
        p = int(rng.integers(1, 5))
        knots = random_open_kv(rng, p)
        sp, net = _curve(rng, knots, p, rational=bool(rng.integers(2)))
        kind = rng.choice(["h", "p", "k"])
        if kind == "h":
            a, b = sp.knot_vectors[0].domain
            new = rng.uniform(a + 0.01, b - 0.01, size=2)
            while min(
                abs(t - u) for t in new for u in sp.knot_vectors[0].breakpoints
            ) < 1e-3 or abs(new[0] - new[1]) < 1e-3:
                new = rng.uniform(a + 0.01, b - 0.01, size=2)
            plan = plan_h_refine(sp, {0: sorted(float(t) for t in new)})
        elif kind == "p":
            plan = plan_p_elevate(sp, int(rng.integers(1, 3)))
        else:
            kv = sp.knot_vectors[0]
            candidates = [
                t
                for t, m in zip(kv.breakpoints[1:-1], kv.multiplicities[1:-1])
                if m < p
            ]
            if not candidates:
                continue
            plan = plan_k_roughen(sp, {0: candidates[:1]})
        assert plan.exact
        assert _max_deviation(sp, net, plan.target, apply_plan(plan, net)) < 1e-11
