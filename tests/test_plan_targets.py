"""Every plan builder's target space against the one-knot-at-a-time
reference edits of tests/oracles.py, on random open knot vectors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bezproj.spline_ops import (
    plan_h_coarsen,
    plan_h_refine,
    plan_k_roughen,
    plan_k_smooth,
    plan_p_elevate,
    plan_p_reduce,
    plan_reparameterize,
)
from bezproj.spline_space import KnotVector, SplineSpace
from oracles import (
    elevated_ref,
    reduced_ref,
    reparameterized_ref,
    roughened_ref,
    smoothed_ref,
    with_inserted_ref,
    with_removed_ref,
)

# ------------------------------------------------- reference builders


def _near(kv, t):
    return np.abs(kv.breakpoints - t) <= 1e-12 * (kv.domain[1] - kv.domain[0])


def ref_h_refine(kv, pts, _):
    if pts is None:
        pts = (kv.breakpoints[:-1] + kv.breakpoints[1:]) / 2.0
    pts = np.asarray(pts, dtype=np.float64).ravel()
    a, b = kv.domain
    running = kv
    for t in pts:
        if a < t < b:
            # a split names a breakpoint of the knot vector refined so far
            if np.any(_near(running, t)):
                raise ValueError(f"split point {t} is already a breakpoint")
            running = with_inserted_ref(running, [t])
    return with_inserted_ref(kv, pts) if pts.size else kv


def ref_h_coarsen(kv, vals, _):
    out = kv
    for t in vals or []:
        hit = np.nonzero(_near(out, t))[0]
        if hit.size == 0:
            raise ValueError(f"{t} is not a breakpoint")
        out = with_removed_ref(out, [t] * int(out.multiplicities[hit[0]]))
    return out


def ref_p_elevate(kv, inc, _):
    return elevated_ref(kv, inc) if inc else kv


def ref_p_reduce(kv, dec, _):
    return reduced_ref(kv, dec) if dec else kv


def ref_k_roughen(kv, vals, inc):
    if vals is None:
        vals = kv.breakpoints[1:-1]
    return roughened_ref(kv, vals, inc) if len(vals) else kv


def ref_k_smooth(kv, vals, dec):
    return smoothed_ref(kv, vals, dec) if len(vals) else kv


def ref_reparameterize(kv, vals, _):
    return kv if vals is None else reparameterized_ref(kv, vals)


def reference(op, kvs, args, k):
    """Target knot vectors of op, or the message of the error it raises."""
    try:
        if op in ("p_elevate", "p_reduce") and min(args) < 0:
            what = "elevation increments" if op == "p_elevate" else "reduction decrements"
            raise ValueError(f"{what} must be >= 0")
        # None raises or lowers each interior knot (with one to spare) once
        steps = [1 if a is None else k for a in args]
        if op == "k_smooth":
            args = [
                kv.breakpoints[1:-1][kv.multiplicities[1:-1] > 1] if a is None else a
                for kv, a in zip(kvs, args)
            ]
            if all(len(a) == 0 for a in args):
                raise ValueError("no interior knot has multiplicity to spare")
        return tuple(REFERENCES[op](kv, a, s) for kv, a, s in zip(kvs, args, steps))
    except ValueError as exc:
        return str(exc)


REFERENCES = {
    "h_refine": ref_h_refine,
    "h_coarsen": ref_h_coarsen,
    "p_elevate": ref_p_elevate,
    "p_reduce": ref_p_reduce,
    "k_roughen": ref_k_roughen,
    "k_smooth": ref_k_smooth,
    "reparameterize": ref_reparameterize,
}


def built(op, kvs, args, k):
    """Target knot vectors of the plan builder, or its error message. The
    k-builders raise or lower by one per listed value, so each value goes
    in k times."""
    space = SplineSpace(kvs)
    if op in ("k_roughen", "k_smooth"):
        args = [a if a is None else [t for t in a for _ in range(k)] for a in args]
    per_dim = args if op in ("p_elevate", "p_reduce") else dict(enumerate(args))
    try:
        plan = {
            "h_refine": lambda: plan_h_refine(space, per_dim),
            "h_coarsen": lambda: plan_h_coarsen(space, per_dim),
            "p_elevate": lambda: plan_p_elevate(space, per_dim),
            "p_reduce": lambda: plan_p_reduce(space, per_dim),
            "k_roughen": lambda: plan_k_roughen(space, per_dim),
            "k_smooth": lambda: plan_k_smooth(space, per_dim),
            "reparameterize": lambda: plan_reparameterize(space, per_dim),
        }[op]()
    except ValueError as exc:
        return str(exc)
    return plan.target.knot_vectors


# ------------------------------------------------- random inputs

DOMAINS = [(0.0, 1.0), (-3.0, 10.0), (0.0, 1000.0), (0.0, 1e-9)]


@st.composite
def knot_vectors(draw):
    """Open knot vector of degree 1..5 with interior breakpoints on a
    1/64 grid of the domain and multiplicities 1..p."""
    p = draw(st.integers(1, 5))
    lo, span = draw(st.sampled_from(DOMAINS))
    ticks = sorted(draw(st.lists(st.integers(1, 63), max_size=5, unique=True)))
    interior = [lo + span * k / 64 for k in ticks]
    mult = [draw(st.integers(1, p)) for _ in ticks]
    knots = [lo] * (p + 1) + list(np.repeat(interior, mult)) + [lo + span] * (p + 1)
    return KnotVector(knots, p)


@st.composite
def value_lists(draw, kv):
    """None, or interior breakpoints (often repeated), now and then
    mixed with a domain end, a point between breakpoints, a point
    outside the domain or NaN."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    a, b = kv.domain
    between = a + (b - a) * (2 * draw(st.integers(0, 63)) + 1) / 128
    odd = [a, b, between, a - (b - a) / 2, b + (b - a) / 2, float("nan")]
    interior = list(kv.breakpoints[1:-1]) or odd
    values = draw(st.lists(st.sampled_from(interior), max_size=4))
    if draw(st.integers(0, 2)) == 0:
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(odd)))
    return values


@st.composite
def new_interiors(draw, kv):
    """None, or sorted grid points (possibly repeated, outside the
    domain, or of the wrong count) for the interior breakpoints."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    n = kv.n_elements - 1
    ticks = draw(st.lists(st.integers(-8, 72), min_size=max(n - 1, 0), max_size=n + 1))
    a, b = kv.domain
    return [a + (b - a) * k / 64 for k in sorted(ticks)]


@st.composite
def cases(draw):
    op = draw(st.sampled_from(sorted(REFERENCES)))
    kvs = draw(st.lists(knot_vectors(), min_size=1, max_size=2))
    if op in ("p_elevate", "p_reduce"):
        args = [draw(st.integers(-1, 3)) for _ in kvs]
    elif op == "reparameterize":
        args = [draw(new_interiors(kv)) for kv in kvs]
    else:
        args = [draw(value_lists(kv)) for kv in kvs]
    k = draw(st.integers(1, 3))
    return op, kvs, args, k


@settings(max_examples=400, deadline=None)
@given(cases())
def test_plan_targets_match_reference_edits(case):
    op, kvs, args, k = case
    assert built(op, kvs, args, k) == reference(op, kvs, args, k)
