"""Quadrature-free refinement, coarsening, and reparameterization.

Every operation is a two-stage pipeline. First a *plan* is built: per
parametric direction, a span pairing of (target span, source span,
matrix) entries, such that a target span's Bernstein coefficients are
the sum of the matrices applied to those of its source spans. Then the
plan runs on a control net one direction at a time, for all elements
at once: pull to Bernstein form (C^T), map the spans, reconstruct
(R^T) and blend with the target's smoothing weights. Exact plans blend
too; their element values agree, so the convex blend returns them.

Whether two values are the same breakpoint is decided once: per
direction the values in play get integer positions (:func:`_positions`),
and pairing, containment, coverage and the domain check compare those.

The span matrices come from one kernel. With O the positions source
span s and target span t share, q the target degree and G the Gramian:

    F = phi * G^{-1} A^T G T D

where D is the degree elevation/reduction map (identity if degrees
match), T rebases source coefficients to O in the source's local
coordinates (identity if O is all of s), A expresses O in the target's
local coordinates, and phi = |O| / |t|. When O is all of t this is
F = T D with phi = 1, a plain restriction. An element pair's matrix is
the reversed Kronecker product of its span matrices: :attr:`OpPlan.pairs`
builds those for inspection, and no operation forms them.

Plans compose direction by direction into one plan with a single
smoothing pass. Rational nets ride along homogeneously; weights
transform with the coefficients and are divided out at the end.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bernstein import (
    elevation_matrix,
    gramian,
    gramian_inverse,
    interval_transform,
    reduction_matrix,
)
from .projection import _direction_weights
from .spline_space import _SNAP_TOL, ControlNet, KnotVector, SplineSpace, _positions
from .tensor import _apply_along, _scatter_add, _unit_segments, reversed_kron

__all__ = [
    "PairTransform",
    "SpanPairing",
    "OpPlan",
    "apply_plan",
    "compose",
    "large_to_small",
    "multi_to_one",
    "plan_h_refine",
    "plan_h_coarsen",
    "plan_p_elevate",
    "plan_p_reduce",
    "plan_k_roughen",
    "plan_k_smooth",
    "plan_reparameterize",
    "plan_generic",
]


@dataclass
class PairTransform:
    """One (source element -> target element) Bernstein-level transform,
    kept as its per-direction span matrices."""

    source: int
    factors: tuple

    @property
    def matrix(self):
        """The transform, as the reversed Kronecker product of the factors."""
        return reversed_kron(self.factors)


class SpanPairing(NamedTuple):
    """One direction of a plan, sorted by target then source span: entry
    i adds matrix[i] (q+1, p+1) times the Bernstein coefficients of span
    source[i] to those of span target[i]."""

    target: np.ndarray
    source: np.ndarray
    matrix: np.ndarray


@dataclass
class OpPlan:
    """Description of one operation (or a fused pipeline), one span
    pairing per parametric direction."""

    name: str
    source: SplineSpace
    target: SplineSpace
    pairings: tuple
    exact: bool

    def __repr__(self):
        return (
            f"OpPlan({self.name!r}, {self.source.n_elements} -> "
            f"{self.target.n_elements} elements, exact={self.exact})"
        )

    @cached_property
    def pairs(self):
        """Per target element, its list of PairTransforms: a read-only
        view, built on first access and used by no operation."""
        cuts = [
            np.searchsorted(P.target, np.arange(kv.n_elements + 1))
            for P, kv in zip(self.pairings, self.target.knot_vectors)
        ]
        out = []
        # the target elements in order, the first direction fastest
        for spans in itertools.product(*map(range, self.target.element_shape[::-1])):
            ranges = [range(c[k], c[k + 1]) for c, k in zip(cuts, spans[::-1])]
            entries = []
            for idx in itertools.product(*ranges):
                picks = list(zip(self.pairings, idx))
                entries.append(PairTransform(
                    source=self.source.ravel_element([P.source[i] for P, i in picks]),
                    factors=tuple(P.matrix[i] for P, i in picks),
                ))
            out.append(entries)
        return out


def _to_local(a, b, lo, hi):
    """Windows [lo, hi] in the biunit coordinates of intervals [a, b];
    an end at a maps to -1 and one at b to +1, exactly."""
    return 2.0 * (lo - a) / (b - a) - 1.0, 2.0 * (hi - a) / (b - a) - 1.0


def _span_factors(src, tgt, p_src, p_tgt):
    """Span matrices of paired source and target spans, in one array pass.

    src and tgt are (n, 2) arrays of span bounds, each held at the value
    of its position (:func:`_positions`), so bounds at one position are
    one float. The overlap of a pair is at least one position wide.
    Returns the (q+1, p+1) matrices F and the shares phi of the target
    span covered by the overlap. A span the overlap covers whole needs no
    window: a target span paired with it gets F = D (the degree map) and
    phi = 1 exactly.
    """
    lo = np.maximum(src[:, 0], tgt[:, 0])
    hi = np.minimum(src[:, 1], tgt[:, 1])
    q = p_tgt
    F = np.tile(np.eye(q + 1), (lo.size, 1, 1))
    t = (lo != tgt[:, 0]) | (hi != tgt[:, 1])
    if t.any():
        A = interval_transform(q, *_to_local(tgt[t, 0], tgt[t, 1], lo[t], hi[t]))
        F[t] = gramian_inverse(q) @ A.transpose(0, 2, 1) @ gramian(q)
    s = (lo != src[:, 0]) | (hi != src[:, 1])
    if s.any():
        F[s] = F[s] @ interval_transform(q, *_to_local(src[s, 0], src[s, 1], lo[s], hi[s]))
    if p_tgt > p_src:
        F = F @ elevation_matrix(p_src, p_tgt).T
    elif p_tgt < p_src:
        F = F @ reduction_matrix(p_src, p_tgt).T
    phi = (hi - lo) / (tgt[:, 1] - tgt[:, 0])
    return phi[:, None, None] * F, phi


def _dim_pairing(kv_src, kv_tgt, p_src, p_tgt):
    """Span pairing of one direction, with coverage and the domain
    validated, and whether the target space contains the source's.

    Spans pair when their position ranges (:func:`_positions`) intersect,
    so a target span meets the source spans that overlap it and no
    sliver; all pairs are transformed in one array pass. The target
    contains the source when the degree does not drop and every source
    breakpoint is a target one of no higher continuity.
    """
    (ps, pt), at = _positions([kv_src.breakpoints, kv_tgt.breakpoints])
    first = np.searchsorted(ps[1:], pt[:-1], side="right")
    counts = np.maximum(np.searchsorted(ps[:-1], pt[1:], side="left") - first, 0)
    tgt, src = _unit_segments(first, first + counts)
    F, phi = _span_factors(
        at[np.stack([ps[src], ps[src + 1]], axis=1)],
        at[np.stack([pt[tgt], pt[tgt + 1]], axis=1)],
        p_src, p_tgt,
    )
    # source spans are consecutive: they cover every target span inside their range
    bad = np.flatnonzero((pt[:-1] < ps[0]) | (pt[1:] > ps[-1]))
    if bad.size:
        cover = np.bincount(tgt, weights=phi, minlength=kv_tgt.n_elements)[bad[0]]
        raise ValueError(
            f"source elements cover {cover:.15g} of a target span; "
            "the spaces do not tile the same domain"
        )
    if ps[0] != pt[0] or ps[-1] != pt[-1]:
        raise ValueError("source and target parametric domains differ")
    i = np.minimum(np.searchsorted(pt, ps), pt.size - 1)
    smooth_t, smooth_s = p_tgt - kv_tgt.multiplicities[i], p_src - kv_src.multiplicities
    contains = p_tgt >= p_src and bool(np.all((pt[i] == ps) & (smooth_t <= smooth_s)))
    return SpanPairing(tgt, src, F), contains


def _build_plan(name, source, target):
    """Plan from source to target; exact iff the target space contains the source's."""
    if source.parametric_dim != target.parametric_dim:
        raise ValueError("parametric dimensions differ")
    dims = [
        _dim_pairing(kvs, kvt, kvs.degree, kvt.degree)
        for kvs, kvt in zip(source.knot_vectors, target.knot_vectors)
    ]
    return OpPlan(
        name=name, source=source, target=target,
        pairings=tuple(P for P, _ in dims), exact=all(c for _, c in dims),
    )


def apply_plan(plan, net, weight_mode="approximate"):
    """Run a plan on a control net; returns the target net.

    Per direction, for all span pairs at once: pull the source
    coefficients to Bernstein form (C^T), map them with the span matrix,
    reconstruct (R^T), weight with the target's smoothing weights of
    the given mode, and scatter-add into the target coefficients.
    """
    source, target = plan.source, plan.target
    if net.n != source.n_funcs:
        raise ValueError("control net does not match the plan's source space")
    X = net.homogeneous().reshape(source.shape[::-1] + (-1,))
    for d, (kvs, kvt, P) in enumerate(
        zip(source.knot_vectors, target.knot_vectors, plan.pairings)
    ):
        pull = kvs.extraction()[P.source].transpose(0, 2, 1)
        push = kvt.reconstruction()[P.target].transpose(0, 2, 1)
        blend = _direction_weights(kvt, weight_mode)[P.target, :, None]
        X = _apply_along(
            X, d, blend * (push @ P.matrix @ pull),
            gather=kvs.supports()[P.source], scatter=kvt.supports()[P.target], n_out=kvt.n,
        )
    return ControlNet.from_homogeneous(X.reshape(target.n_funcs, -1), net.is_rational)


def _compose_pairings(first, then):
    """Span pairing of `then` after `first`: sum over the middle spans."""
    i2, i1 = _unit_segments(
        np.searchsorted(first.target, then.source, side="left"),
        np.searchsorted(first.target, then.source, side="right"),
    )
    tgt, src = then.target[i2], first.source[i1]
    keys, inverse = np.unique(np.stack([tgt, src], axis=1), axis=0, return_inverse=True)
    mats = _scatter_add(inverse.ravel(), then.matrix[i2] @ first.matrix[i1], keys.shape[0])
    return SpanPairing(keys[:, 0], keys[:, 1], mats)


def compose(*plans):
    """Fuse a chain of plans into one plan from first source to last target.

    Span matrices multiply direction by direction; the middle elements
    form a tensor grid, so the sum over them of Kronecker products is
    the Kronecker product of per-direction sums. The fused plan runs
    with one smoothing pass. A chain of exact plans stays exact.
    """
    if not plans:
        raise ValueError("need at least one plan")
    fused = plans[0]
    for nxt in plans[1:]:
        if nxt.source != fused.target:
            raise ValueError(
                f"cannot chain {fused.name!r} into {nxt.name!r}: spaces differ"
            )
        fused = OpPlan(
            name=f"{fused.name}+{nxt.name}",
            source=fused.source,
            target=nxt.target,
            pairings=tuple(
                _compose_pairings(a, b) for a, b in zip(fused.pairings, nxt.pairings)
            ),
            exact=fused.exact and nxt.exact,
        )
    return fused


# ---------------------------------------------------------------------------
# element-level building blocks


def large_to_small(space, element, target_space, target_elements, coeffs):
    """Restrict one element's field to contained target elements.

    coeffs is the full (n, k) coefficient array on space. Returns
    {target_element: element-local spline coefficients}. Exact: the
    target elements must lie inside the source element.
    """
    if target_space.degrees != space.degrees:
        raise ValueError("source and target degrees must match")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    (src,) = space.bounds([element])
    Q = space.extraction([element])[0].T @ coeffs[space.supports([element])[0]]
    tgt = target_space.bounds(target_elements)
    factors = []
    for p, s_iv, t in zip(space.degrees, src, tgt.transpose(1, 0, 2)):
        (ps, pt), at = _positions([s_iv, t])
        if np.any(pt[:, 0] < ps[0]) or np.any(pt[:, 1] > ps[1]):
            raise ValueError("target element not contained in source element")
        # the overlap is the target span: phi = 1 and F = T
        factors.append(_span_factors(np.broadcast_to(at[ps], pt.shape), at[pt], p, p)[0])
    R = target_space.reconstruction(target_elements).transpose(0, 2, 1)
    return dict(zip(target_elements, R @ (reversed_kron(factors) @ Q)))


def multi_to_one(space, elements, target_space, target_element, coeffs):
    """Merge several elements' fields into one containing target element.

    The result is the L2-best representation on the target element of
    the piecewise field, reconstructed to element-local spline
    coefficients. The source elements must tile the target element;
    the caller applies smoothing across elements.
    """
    if target_space.degrees != space.degrees:
        raise ValueError("source and target degrees must match")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    (tgt,) = target_space.bounds([target_element])
    src = space.bounds(elements)
    factors, shape, boxes = [], [], []
    for p, t_iv, s in zip(target_space.degrees, tgt, src.transpose(1, 0, 2)):
        (pt, ps), at = _positions([t_iv, s])
        lo, hi = np.maximum(ps[:, 0], pt[0]) - pt[0], np.minimum(ps[:, 1], pt[1]) - pt[0]
        if np.any(lo >= hi):
            raise ValueError("source element does not overlap the target element")
        factors.append(_span_factors(at[ps], np.broadcast_to(at[pt], ps.shape), p, p)[0])
        shape.append(pt[1] - pt[0])
        boxes.append(map(slice, lo, hi))
    # every cell between consecutive target positions lies in exactly one source element
    count = np.zeros(shape, dtype=np.int64)
    for box in zip(*boxes):
        count[box] += 1
    if np.any(count != 1):
        raise ValueError("source elements do not tile the target element")
    C, S = space.extraction(elements), space.supports(elements)
    Qbar = (reversed_kron(factors) @ (C.transpose(0, 2, 1) @ coeffs[S])).sum(axis=0)
    return target_space.reconstruction([target_element])[0].T @ Qbar


# ---------------------------------------------------------------------------
# plan builders
#
# A knot vector is its breakpoints, their multiplicities and its degree.
# Every builder edits those three per direction; the target knot vector
# is np.repeat(breakpoints, multiplicities), so multiplicity 0 drops one.


def _per_dim_arg(space, arg, what, scalars=False):
    """Normalize a per-direction argument given as dict, list, or None.
    Entries are value lists, or with scalars numbers (one for all)."""
    d = space.parametric_dim
    if arg is None or (scalars and np.isscalar(arg)):
        return [arg] * d
    if isinstance(arg, dict):
        out = [None] * d
        for k, v in arg.items():
            if not 0 <= int(k) < d:
                raise ValueError(f"{what}: direction {k} out of range")
            out[int(k)] = v
        return out
    arg = list(arg)
    if not scalars and d == 1 and arg and np.isscalar(arg[0]):
        return [arg]
    if len(arg) != d:
        raise ValueError(f"{what}: expected one entry per direction")
    return arg


def _breakpoint_index(kv, values):
    """Index of the breakpoint of kv at the position (:func:`_positions`,
    on kv's domain span) of each value, or -1."""
    (pb, pv), _ = _positions([kv.breakpoints, np.ravel(values)], _SNAP_TOL * np.ptp(kv.breakpoints))
    i = np.minimum(np.searchsorted(pb, pv), pb.size - 1)
    return np.where(pb[i] == pv, i, -1)


def _repeat_rank(idx):
    """How many earlier entries of idx equal each entry."""
    order = np.argsort(idx, kind="stable")
    rank = np.empty_like(idx)
    rank[order] = np.arange(idx.size) - np.searchsorted(idx[order], idx[order])
    return rank


def _reject(values, reason, *messages):
    """Raise messages[r - 1] for the first value whose reason r is not 0."""
    bad = np.flatnonzero(reason)
    if bad.size:
        raise ValueError(messages[int(reason[bad[0]]) - 1].format(list(values)[bad[0]]))


def _edit_plan(name, space, args, edit):
    """Plan to the space whose direction d has the (breakpoints,
    multiplicities, degree) that edit(knot_vector, args[d]) returns. A
    direction left as it was keeps its knot vector, extraction cached."""
    kvs = []
    for kv, arg in zip(space.knot_vectors, args):
        bp, mult, p = edit(kv, arg)
        order = np.argsort(bp, kind="stable")
        knots = np.repeat(bp[order], mult[order])
        same = p == kv.degree and np.array_equal(knots, kv.knots)
        kvs.append(kv if same else KnotVector(knots, p))
    return _build_plan(name, space, SplineSpace(kvs))


def plan_h_refine(space, splits=None):
    """Split elements by inserting new breakpoints; exact.

    splits maps direction -> new breakpoint values, each of multiplicity
    1: strictly inside an existing span, and not the same breakpoint as
    another split. None bisects every span in every direction.
    """

    def edit(kv, pts):
        bp, (a, b) = kv.breakpoints, kv.domain
        pts = np.asarray((bp[:-1] + bp[1:]) / 2.0 if pts is None else pts, dtype=np.float64).ravel()
        inside = (a < pts) & (pts < b)
        # at the position of a breakpoint or of an earlier split
        pos = np.concatenate(_positions([bp, pts], _SNAP_TOL * (b - a))[0])
        hit = inside & (_repeat_rank(pos)[bp.size:] > 0)
        _reject(pts, hit, "split point {} is already a breakpoint")
        _reject(pts, ~inside, f"insertion point {{}} not strictly inside ({a}, {b})")
        return np.r_[bp, pts], np.r_[kv.multiplicities, np.ones(pts.size, int)], kv.degree

    return _edit_plan("h-refine", space, _per_dim_arg(space, splits, "splits"), edit)


def plan_h_coarsen(space, remove):
    """Remove interior breakpoints (all copies); inexact."""

    def edit(kv, vals):
        mult = kv.multiplicities.copy()
        if vals is not None:
            i = _breakpoint_index(kv, vals)
            missing = (i < 0) | (_repeat_rank(i) > 0)
            end = (i == 0) | (i == kv.n_elements)
            _reject(vals, np.select([missing, end], [1, 2]),
                    "{} is not a breakpoint", "no removable interior knot at {}")
            mult[i] = 0
        return kv.breakpoints, mult, kv.degree

    return _edit_plan("h-coarsen", space, _per_dim_arg(space, remove, "remove"), edit)


def _degree_plan(name, space, steps, what, sign):
    """Change the degree and every multiplicity by sign * steps."""
    steps = [0 if s is None else int(s) for s in _per_dim_arg(space, steps, what, scalars=True)]
    if min(steps) < 0:
        kind = "elevation increments" if sign > 0 else "reduction decrements"
        raise ValueError(f"{kind} must be >= 0")

    def edit(kv, s):
        if kv.degree + sign * s < 1:
            raise ValueError(f"cannot reduce degree {kv.degree} by {s}")
        return kv.breakpoints, np.maximum(kv.multiplicities + sign * s, 0), kv.degree + sign * s

    return _edit_plan(name, space, steps, edit)


def plan_p_elevate(space, inc=1):
    """Raise degree and every knot multiplicity together; exact.

    A per-dimension increment of 0 leaves that direction unchanged.
    """
    return _degree_plan("p-elevate", space, inc, "inc", 1)


def plan_p_reduce(space, dec=1):
    """Lower degree and every knot multiplicity together; inexact.

    Breakpoints whose multiplicity drops to zero disappear; the
    continuity class at every surviving breakpoint is preserved. A
    per-dimension decrement of 0 leaves that direction unchanged.
    """
    return _degree_plan("p-reduce", space, dec, "dec", -1)


def plan_k_roughen(space, values=None):
    """Raise interior knot multiplicities by one, lowering continuity; exact.

    A value listed twice is raised twice; None raises every interior knot.
    """

    def edit(kv, vals):
        i = np.arange(1, kv.n_elements) if vals is None else _breakpoint_index(kv, vals)
        _reject(vals, (i <= 0) | (i == kv.n_elements), "{} is not an interior breakpoint")
        mult = kv.multiplicities.copy()
        np.add.at(mult, i, 1)
        return kv.breakpoints, mult, kv.degree

    return _edit_plan("k-roughen", space, _per_dim_arg(space, values, "values"), edit)


def plan_k_smooth(space, values=None):
    """Lower interior knot multiplicities by one, raising continuity; inexact.

    A value listed twice is lowered twice; None lowers every interior
    knot whose multiplicity exceeds one.
    """
    values = [
        kv.breakpoints[1:-1][kv.multiplicities[1:-1] > 1] if vals is None else vals
        for kv, vals in zip(space.knot_vectors, _per_dim_arg(space, values, "values"))
    ]
    if all(len(vals) == 0 for vals in values):
        raise ValueError("no interior knot has multiplicity to spare")

    def edit(kv, vals):
        i = _breakpoint_index(kv, vals)
        mult = kv.multiplicities.copy()
        spent = _repeat_rank(i) >= mult[i]
        _reject(vals, (i <= 0) | (i == kv.n_elements) | spent, "no removable interior knot at {}")
        np.add.at(mult, i, -1)
        return kv.breakpoints, mult, kv.degree

    return _edit_plan("k-smooth", space, values, edit)


def plan_reparameterize(space, new_interior):
    """Move interior breakpoints, keeping counts and multiplicities; inexact.

    The new breakpoints must be strictly increasing inside the domain,
    no two of them (or one and an end) the same breakpoint.
    """

    def edit(kv, vals):
        bp, (a, b) = kv.breakpoints.copy(), kv.domain
        if vals is not None:
            new = np.asarray(vals, dtype=np.float64).ravel()
            if new.size != bp.size - 2:
                raise ValueError(f"expected {bp.size - 2} interior breakpoints, got {new.size}")
            bp[1:-1] = new
            # one position each, in order: none the same breakpoint as another or an end
            if np.any(np.diff(_positions([bp], _SNAP_TOL * (b - a))[0][0]) <= 0):
                raise ValueError(
                    "new interior breakpoints must be strictly increasing inside the domain"
                )
        return bp, kv.multiplicities, kv.degree

    args = _per_dim_arg(space, new_interior, "new_interior")
    return _edit_plan("reparameterize", space, args, edit)


def plan_generic(source, target):
    """Plan between spaces sharing breakpoints, degrees free to differ.

    Used for degree and continuity changes where elements coincide
    geometrically.
    """
    for kvs, kvt in zip(source.knot_vectors, target.knot_vectors):
        if not np.array_equal(*_positions([kvs.breakpoints, kvt.breakpoints])[0]):
            raise ValueError("generic projection needs matching breakpoints")
    return _build_plan("generic", source, target)
