"""The whole-space paths against per-element references.

`bezier_project` and `apply_plan` work on all elements at once, one
direction at a time. The references below rebuild their results one
element at a time from the space's element arrays (supports, C and R),
`smoothing_weight_table`, `OpPlan.pairs` and a dense Gauss-rule fit per
element.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bezproj.projection import TargetFunction, bezier_project, smoothing_weight_table
from bezproj.spline_ops import (
    apply_plan,
    compose,
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
from oracles import local_bernstein_projection

MODES = ("approximate", "exact", "uniform")


def _close(got, ref, rel=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(got - ref))) <= rel * scale


def _spaces():
    """A 1D cubic and a 2D quadratic-by-cubic space, both nonuniform."""
    cubic = SplineSpace([KnotVector([0, 0, 0, 0, 0.2, 0.5, 0.5, 0.9, 1, 1, 1, 1], 3)])
    surface = SplineSpace(
        [
            KnotVector([0, 0, 0, 0.3, 0.45, 0.45, 1, 1, 1], 2),
            KnotVector([0, 0, 0, 0, 0.6, 1.5, 2, 2, 2, 2], 3),
        ]
    )
    return [cubic, surface]


def _target(pts):
    x = pts[:, 0]
    y = pts[:, -1]
    return np.stack([np.sin(3 * x) * np.cos(y), np.exp(0.5 * x * y)], axis=1)


def _bezier_project_ref(f, space, weights, mode, quad_order):
    """Per element: local fit, R^T, then the smoothing-weight blend."""
    if weights is not None:
        wnet = ControlNet(weights)

        def g(pts):
            return evaluate(space, wnet, pts) * f(pts)
    else:
        g = f
    table = smoothing_weight_table(space, mode)
    R, support = space.reconstruction(), space.supports()
    coeffs = None
    for e in range(space.n_elements):
        beta = local_bernstein_projection(g, space, e, quad_order=quad_order)
        lam = R[e].T @ beta
        if coeffs is None:
            coeffs = np.zeros((space.n_funcs, lam.shape[1]))
        coeffs[support[e]] += table[e][:, None] * lam
    if weights is not None:
        return coeffs / weights[:, None]
    return coeffs


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_bezier_project_matches_per_element_reference(rng, mode, rational):
    for space in _spaces():
        weights = rng.uniform(0.5, 2.0, size=space.n_funcs) if rational else None
        quad = tuple(p + 3 for p in space.degrees)
        got = bezier_project(_target, space, weights=weights, weight_mode=mode)
        ref = _bezier_project_ref(TargetFunction(_target), space, weights, mode, quad)
        _close(got.net.points, ref, rel=1e-13)


def _apply_plan_ref(plan, net, mode):
    """Per target element: sum the pair matrices, R^T, then blend."""
    source, target = plan.source, plan.target
    H = net.homogeneous()
    Q = source.extraction().transpose(0, 2, 1) @ H[source.supports()]
    table = smoothing_weight_table(target, mode)
    R, support = target.reconstruction(), target.supports()
    out = np.zeros((target.n_funcs, H.shape[1]))
    for e, entries in enumerate(plan.pairs):
        Qbar = sum(pair.matrix @ Q[pair.source] for pair in entries)
        lam = R[e].T @ Qbar
        out[support[e]] += table[e][:, None] * lam
    return ControlNet.from_homogeneous(out, net.is_rational)


def _all_plans(space):
    """One plan of every builder, plus composed chains, all from space."""
    kvs = space.knot_vectors
    inner = {d: kv.breakpoints[1:-1] for d, kv in enumerate(kvs)}
    refine = plan_h_refine(space)
    elevate = plan_p_elevate(space, 1)
    rough = plan_k_roughen(space, {0: kvs[0].breakpoints[1:2]})
    coarsen = plan_h_coarsen(space, {0: inner[0][:1]})
    lift = plan_p_elevate(coarsen.target, 1)
    return [
        refine,
        elevate,
        rough,
        coarsen,
        plan_p_reduce(space, 1),
        compose(rough, plan_k_smooth(rough.target, {0: kvs[0].breakpoints[1:2]})),
        plan_reparameterize(space, {0: inner[0] + 0.01}),
        plan_generic(space, elevate.target),
        compose(elevate, plan_generic(elevate.target, space)),
        compose(elevate, plan_h_refine(elevate.target)),
        compose(refine, plan_h_coarsen(refine.target, {0: inner[0][:1]})),
        compose(coarsen, lift, plan_p_reduce(lift.target, 1)),
    ]


@pytest.mark.parametrize("rational", [False, True])
def test_apply_plan_matches_per_element_reference(rng, rational):
    for space in _spaces():
        w = rng.uniform(0.5, 2.0, size=space.n_funcs) if rational else None
        net = ControlNet(rng.normal(size=(space.n_funcs, 2)), w)
        for plan in _all_plans(space):
            for mode in MODES:
                got = apply_plan(plan, net, mode)
                ref = _apply_plan_ref(plan, net, mode)
                _close(got.points, ref.points, rel=1e-13)
                if rational:
                    _close(got.weights, ref.weights, rel=1e-13)


# ------------------------------------------------------- plan properties


@st.composite
def surfaces(draw):
    """A random open 2D space, degrees 1..3, with a random net."""
    kvs = []
    for _ in range(2):
        p = draw(st.integers(1, 3))
        n_inner = draw(st.integers(0, 3))
        cuts = sorted(draw(st.sets(st.integers(1, 19), min_size=n_inner, max_size=n_inner)))
        knots = [0.0] * (p + 1)
        for c in cuts:
            knots += [c / 20.0] * draw(st.integers(1, p))
        knots += [1.0] * (p + 1)
        kvs.append(KnotVector(knots, p))
    space = SplineSpace(kvs)
    seed = draw(st.integers(0, 2**31 - 1))
    rational = draw(st.booleans())
    return _surface(space, seed, rational)


def _surface(space, seed, rational):
    """space with a seeded net; the weights stay near one, but an inexact
    projection of a rational net can still give a nonpositive weight."""
    gen = np.random.default_rng(seed)
    w = gen.uniform(0.8, 1.25, size=space.n_funcs) if rational else None
    return space, ControlNet(gen.normal(size=(space.n_funcs, 2)), w)


# coarsening this rational net after elevating it gives a nonpositive weight
_NONPOSITIVE = _surface(
    SplineSpace([
        KnotVector([0] * 4 + [0.55] * 3 + [1] * 4, 3),
        KnotVector([0] * 3 + [0.1, 0.1, 0.8, 0.8, 0.85, 0.85] + [1] * 3, 2),
    ]),
    1568063286,
    True,
)


def _exact_plan(space, kind):
    if kind == "h":
        return plan_h_refine(space)
    if kind == "p":
        return plan_p_elevate(space, [1, 0])
    kv = space.knot_vectors[1]
    spare = kv.breakpoints[1:-1][kv.multiplicities[1:-1] < kv.degree]
    return plan_k_roughen(space, [[], spare])


def _last_plan(space, kind):
    if kind == "coarsen":
        inner = space.knot_vectors[0].breakpoints[1:-1]
        if inner.size == 0:
            return plan_p_elevate(space, [0, 1])
        return plan_h_coarsen(space, {0: inner[::2]})
    if kind == "reduce":
        if min(space.degrees) < 2:
            return plan_h_refine(space)
        return plan_p_reduce(space, 1)
    return plan_h_refine(space)


def _run_or_error(apply):
    """The net apply returns, or the message of the nonpositive-weight error it raises."""
    try:
        return apply()
    except ValueError as exc:
        if str(exc) != "projection produced nonpositive weights":
            raise
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(
    surfaces(),
    st.lists(st.sampled_from("hpk"), min_size=1, max_size=2),
    st.sampled_from(["coarsen", "reduce", "refine"]),
    st.sampled_from(MODES),
)
@example(_NONPOSITIVE, ["p"], "coarsen", "approximate")
def test_compose_matches_sequential_apply(case, kinds, last, mode):
    """A chain of exact plans ending in any plan: fusing the chain and
    running it step by step give the same net, or both raise the
    nonpositive-weight error."""
    space, net = case
    plans = []
    cur = space
    for kind in kinds:
        plans.append(_exact_plan(cur, kind))
        cur = plans[-1].target
    plans.append(_last_plan(cur, last))

    def stepwise():
        step = net
        for plan in plans:
            step = apply_plan(plan, step, mode)
        return step

    step = _run_or_error(stepwise)
    fused = _run_or_error(lambda: apply_plan(compose(*plans), net, mode))
    if isinstance(step, str) or isinstance(fused, str):
        assert fused == step
        return
    _close(fused.points, step.points, rel=1e-10)
    if net.is_rational:
        _close(fused.weights, step.weights, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(surfaces(), st.sampled_from(["h", "p", "hp"]), st.sampled_from(MODES))
def test_refine_then_coarsen_keeps_members(case, kind, mode):
    """Refining exactly and coarsening back returns every member net."""
    space, net = case
    up, down = [], []
    cur = space
    if "p" in kind:
        up.append(plan_p_elevate(cur, 1))
        cur = up[-1].target
    if "h" in kind:
        up.append(plan_h_refine(cur))
        cur = up[-1].target
        mids = [(kv.breakpoints[:-1] + kv.breakpoints[1:]) / 2 for kv in space.knot_vectors]
        down.append(plan_h_coarsen(cur, {0: mids[0], 1: mids[1]}))
        cur = down[-1].target
    if "p" in kind:
        down.append(plan_p_reduce(cur, 1))
        cur = down[-1].target
    assert cur == space
    fine = apply_plan(compose(*up), net, mode)
    back = apply_plan(compose(*down), fine, mode)
    _close(back.points, net.points, rel=1e-10)
    if net.is_rational:
        _close(back.weights, net.weights, rel=1e-10)
