"""Plans between knot vectors whose breakpoints agree to within the
snapping tolerance (1e-12 of the domain span) or just beyond it: the
pairing, the exact flag and a round trip against scalar references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bezproj import spline_ops
from bezproj.spline_space import ControlNet, KnotVector, SplineSpace
from oracles import contains_ref, dim_pairing_ref, positions_ref

# target breakpoints are the source's moved by these multiples of 1e-12 * span
NUDGES = (0.0, 0.3, -0.3, 0.9, -0.9, 3.0, -3.0)
DOMAINS = [(0.0, 1.0), (-3.0, 10.0), (0.0, 1e6)]


@st.composite
def band_cases(draw):
    """(source, target, in-band shift, seed): interior source breakpoints
    on an eighth grid; the target's are the source's, each nudged, plus
    fresh ones on the sixteenth grid between them. Half the cases grow
    the space (degree and multiplicities do not drop), so the plan is
    exact unless a nudge leaves the band."""
    p = draw(st.integers(1, 4))
    lo, span = draw(st.sampled_from(DOMAINS))
    ticks = sorted(draw(st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True)))
    mult = [draw(st.integers(1, p)) for _ in ticks]
    nudges = [draw(st.sampled_from(NUDGES)) for _ in ticks]
    fresh = draw(st.lists(st.integers(0, 7), max_size=2, unique=True))
    grow = draw(st.booleans())
    q = draw(st.integers(p, min(p + 1, 5)) if grow else st.integers(max(p - 1, 1), min(p + 1, 5)))

    def t_mult(m):
        return min(q, m + q - p + draw(st.integers(0, 1))) if grow else draw(st.integers(1, q))

    bp = [lo + span * (k / 8 + d * 1e-12) for k, d in zip(ticks, nudges)]
    bp += [lo + span * (2 * k + 1) / 16 for k in fresh]
    mt = [t_mult(m) for m in mult] + [t_mult(1) for _ in fresh]
    order = np.argsort(bp)

    def open_kv(interior, m, deg):
        ends = [lo] * (deg + 1), [lo + span] * (deg + 1)
        return KnotVector(np.r_[ends[0], np.repeat(interior, m), ends[1]], deg)

    src = open_kv([lo + span * k / 8 for k in ticks], mult, p)
    tgt = open_kv(np.array(bp)[order], np.array(mt)[order], q)
    shift = max([abs(d) for d in nudges if abs(d) < 1], default=0.0) * 1e-12 * span
    return src, tgt, shift, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(band_cases())
def test_pairing_exactness_and_round_trip_across_the_band(case):
    kvs, kvt, shift, seed = case
    source, target = SplineSpace([kvs]), SplineSpace([kvt])
    plan = spline_ops._build_plan("band", source, target)
    (P,) = plan.pairings

    targets, sources, mats = dim_pairing_ref(kvs, kvt)
    assert np.array_equal(P.target, targets) and np.array_equal(P.source, sources)
    for got, ref in zip(P.matrix, mats):
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
        if np.array_equal(ref, np.eye(ref.shape[0])):
            assert np.array_equal(got, ref)

    # every pair shares at least one position: no sliver
    bs, bt = list(kvs.breakpoints), list(kvt.breakpoints)
    pos = np.array(positions_ref(bs + bt, max(bs + bt) - min(bs + bt))[0])
    ps, pt = pos[: len(bs)], pos[len(bs) :]
    lo = np.maximum(ps[P.source], pt[P.target])
    hi = np.minimum(ps[P.source + 1], pt[P.target + 1])
    assert np.all(lo < hi)

    assert plan.exact is contains_ref(kvs, kvt)
    if plan.exact:
        # a member of the source survives refining and coarsening back; an
        # in-band nudge moves the target's geometry by shift, so the
        # member's continuity holds there only to shift / shortest element
        net = ControlNet(np.random.default_rng(seed).normal(size=(kvs.n, 2)))
        back = spline_ops._build_plan("back", target, source)
        out = spline_ops.apply_plan(back, spline_ops.apply_plan(plan, net))
        h = np.min(np.diff(kvs.breakpoints))
        bound = (1e-12 + 4 * shift / h) * np.max(np.abs(net.points))
        assert np.max(np.abs(out.points - net.points)) <= bound
