"""Quadrature-free refinement, coarsening, and reparameterization.

Every operation is a two-stage pipeline. First a *plan* is built: per
parametric direction, a span pairing of (target span, source span,
matrix) entries, such that a target span's Bernstein coefficients are
the sum of the matrices applied to those of its source spans. Then the
plan runs on a control net one direction at a time, for all elements
at once: pull to Bernstein form (C^T), map the spans, reconstruct
(R^T) and blend with the target's smoothing weights. Exact plans blend
too; their element values agree, so the convex blend returns them.

The span matrices come from one kernel. With O the overlap of source
span s and target span t, q the target degree and G the Gramian:

    F = phi * G^{-1} A^T G T D

where D is the degree elevation/reduction map (identity if degrees
match), T rebases source coefficients to O in the source's local
coordinates (identity if O = s), A expresses O in the target's local
coordinates, and phi = |O| / |t|. When O = t this is F = T D, a plain
restriction. An element pair's matrix is the reversed Kronecker
product of its span matrices: :attr:`OpPlan.pairs` builds those for
inspection, and no operation forms them.

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
from .spline_space import ControlNet, SplineSpace
from .tensor import _apply_along, reversed_kron

__all__ = [
    "PairTransform",
    "SpanPairing",
    "OpPlan",
    "apply_plan",
    "compose",
    "large_to_small",
    "multi_to_one",
    "project_generic",
    "plan_h_refine",
    "plan_h_coarsen",
    "plan_p_elevate",
    "plan_p_reduce",
    "plan_k_roughen",
    "plan_k_smooth",
    "plan_reparameterize",
    "plan_generic",
    "h_refine",
    "h_coarsen",
    "p_elevate",
    "p_reduce",
    "k_roughen",
    "k_smooth",
    "reparameterize",
]

_TOL = 1e-12


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
        for e in range(self.target.n_elements):
            spans = self.target.unravel_element(e)
            ranges = [range(c[k], c[k + 1]) for c, k in zip(cuts, spans)]
            entries = []
            for idx in itertools.product(*ranges):
                picks = list(zip(self.pairings, idx))
                entries.append(PairTransform(
                    source=self.source.ravel_element([P.source[i] for P, i in picks]),
                    factors=tuple(P.matrix[i] for P, i in picks),
                ))
            out.append(entries)
        return out


def _to_local(iv, lo, hi):
    """Window [lo, hi] in the biunit coordinates of interval iv."""
    a, b = iv
    return (2.0 * lo - a - b) / (b - a), (2.0 * hi - a - b) / (b - a)


def _dim_factor(src_iv, tgt_iv, p_src, p_tgt):
    """Per-direction pair factor, or None if the intervals do not overlap."""
    lo = max(src_iv[0], tgt_iv[0])
    hi = min(src_iv[1], tgt_iv[1])
    scale = max(tgt_iv[1] - tgt_iv[0], src_iv[1] - src_iv[0])
    if hi - lo <= _TOL * scale:
        return None

    if p_tgt > p_src:
        D = elevation_matrix(p_src, p_tgt).T
    elif p_tgt < p_src:
        D = reduction_matrix(p_src, p_tgt).T
    else:
        D = None
    q = p_tgt

    if abs(lo - src_iv[0]) <= _TOL * scale and abs(hi - src_iv[1]) <= _TOL * scale:
        T = None
    else:
        T = interval_transform(q, *_to_local(src_iv, lo, hi))

    phi = (hi - lo) / (tgt_iv[1] - tgt_iv[0])
    if abs(lo - tgt_iv[0]) <= _TOL * scale and abs(hi - tgt_iv[1]) <= _TOL * scale:
        F = np.eye(q + 1)
    else:
        A = interval_transform(q, *_to_local(tgt_iv, lo, hi))
        F = gramian_inverse(q) @ A.T @ gramian(q)
    if T is not None:
        F = F @ T
    if D is not None:
        F = F @ D
    return phi * F, phi


def _dim_pairing(kv_src, kv_tgt, p_src, p_tgt):
    """Span pairing of one direction, with coverage validated. Each
    target span visits only the source spans that overlap it."""
    bs, bt = kv_src.breakpoints, kv_tgt.breakpoints
    first = np.searchsorted(bs[1:], bt[:-1], side="right")
    stop = np.searchsorted(bs[:-1], bt[1:], side="left")
    entries = []
    for k in range(kv_tgt.n_elements):
        t_iv = kv_tgt.element_bounds(k)
        cover = 0.0
        for j in range(first[k], stop[k]):
            got = _dim_factor(kv_src.element_bounds(j), t_iv, p_src, p_tgt)
            if got is not None:
                entries.append((k, j, got[0]))
                cover += got[1]
        if abs(cover - 1.0) > 1e-10:
            raise ValueError(
                f"source elements cover {cover:.15g} of a target span; "
                "the spaces do not tile the same domain"
            )
    targets, sources, mats = zip(*entries)
    return SpanPairing(np.array(targets), np.array(sources), np.array(mats))


def _build_plan(name, source, target, exact):
    if source.parametric_dim != target.parametric_dim:
        raise ValueError("parametric dimensions differ")
    for kvs, kvt in zip(source.knot_vectors, target.knot_vectors):
        if not (
            abs(kvs.domain[0] - kvt.domain[0]) <= _TOL
            and abs(kvs.domain[1] - kvt.domain[1]) <= _TOL
        ):
            raise ValueError("source and target parametric domains differ")
    pairings = tuple(
        _dim_pairing(kvs, kvt, kvs.degree, kvt.degree)
        for kvs, kvt in zip(source.knot_vectors, target.knot_vectors)
    )
    return OpPlan(name=name, source=source, target=target, pairings=pairings, exact=exact)


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
    lo = np.searchsorted(first.target, then.source, side="left")
    counts = np.searchsorted(first.target, then.source, side="right") - lo
    i2 = np.repeat(np.arange(then.source.size), counts)
    i1 = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    tgt, src = then.target[i2], first.source[i1]
    keys, inverse = np.unique(np.stack([tgt, src], axis=1), axis=0, return_inverse=True)
    mats = np.zeros((keys.shape[0],) + then.matrix.shape[1:2] + first.matrix.shape[2:])
    np.add.at(mats, inverse.ravel(), then.matrix[i2] @ first.matrix[i1])
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
    el = space.element(element)
    Q = space.extraction_operator(element).C.T @ coeffs[el.support]
    out = {}
    for te in target_elements:
        tel = target_space.element(te)
        factors = []
        for p, s_iv, t_iv in zip(space.degrees, el.bounds, tel.bounds):
            if t_iv[0] < s_iv[0] - _TOL or t_iv[1] > s_iv[1] + _TOL:
                raise ValueError("target element not contained in source element")
            # the overlap is the target span: phi = 1 and F = T
            factors.append(_dim_factor(s_iv, t_iv, p, p)[0])
        Qt = reversed_kron(factors) @ Q
        out[te] = target_space.reconstruction_operator(te).T @ Qt
    return out


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
    tel = target_space.element(target_element)
    degrees = target_space.degrees
    Qbar = None
    cover = 0.0
    for se in elements:
        el = space.element(se)
        Q = space.extraction_operator(se).C.T @ coeffs[el.support]
        factors = []
        phi = 1.0
        for d, ((sa, sb), (ta, tb)) in enumerate(zip(el.bounds, tel.bounds)):
            got = _dim_factor((sa, sb), (ta, tb), degrees[d], degrees[d])
            if got is None:
                raise ValueError("source element does not overlap the target element")
            F, phi_d = got
            factors.append(F)
            phi *= phi_d
        term = reversed_kron(factors) @ Q
        Qbar = term if Qbar is None else Qbar + term
        cover += phi
    if abs(cover - 1.0) > 1e-10:
        raise ValueError("source elements do not tile the target element")
    return target_space.reconstruction_operator(target_element).T @ Qbar


# ---------------------------------------------------------------------------
# plan builders


def _per_dim_arg(space, arg, what):
    """Normalize a per-direction argument given as dict, list, or None."""
    d = space.parametric_dim
    if arg is None:
        return [None] * d
    if isinstance(arg, dict):
        out = [None] * d
        for k, v in arg.items():
            if not 0 <= int(k) < d:
                raise ValueError(f"{what}: direction {k} out of range")
            out[int(k)] = v
        return out
    arg = list(arg)
    if d == 1 and arg and np.isscalar(arg[0]):
        return [arg]
    if len(arg) != d:
        raise ValueError(f"{what}: expected one entry per direction")
    return arg


def plan_h_refine(space, splits=None):
    """Split elements by inserting new breakpoints; exact.

    splits maps direction -> new breakpoint values (strictly inside
    existing spans). None bisects every span in every direction.
    """
    splits = _per_dim_arg(space, splits, "splits")
    kvs = []
    for kv, pts in zip(space.knot_vectors, splits):
        if pts is None:
            bp = kv.breakpoints
            pts = (bp[:-1] + bp[1:]) / 2.0
        pts = np.asarray(pts, dtype=np.float64).ravel()
        for t in pts:
            if np.any(np.abs(kv.breakpoints - t) <= _TOL * (kv.domain[1] - kv.domain[0])):
                raise ValueError(f"split point {t} is already a breakpoint")
        kvs.append(kv.with_inserted(pts) if pts.size else kv)
    return _build_plan("h-refine", space, SplineSpace(kvs), exact=True)


def plan_h_coarsen(space, remove):
    """Remove interior breakpoints (all copies); inexact."""
    remove = _per_dim_arg(space, remove, "remove")
    kvs = []
    for kv, vals in zip(space.knot_vectors, remove):
        if vals is None:
            kvs.append(kv)
            continue
        out = kv
        for t in vals:
            idx = np.nonzero(
                np.abs(out.breakpoints - t)
                <= _TOL * (out.domain[1] - out.domain[0])
            )[0]
            if idx.size == 0:
                raise ValueError(f"{t} is not a breakpoint")
            mult = int(out.multiplicities[idx[0]])
            out = out.with_removed([t] * mult)
        kvs.append(out)
    return _build_plan("h-coarsen", space, SplineSpace(kvs), exact=False)


def plan_p_elevate(space, inc=1):
    """Raise degree and every knot multiplicity together; exact.

    A per-dimension increment of 0 leaves that direction unchanged.
    """
    incs = inc if not np.isscalar(inc) else [inc] * space.parametric_dim
    if any(int(i) < 0 for i in incs):
        raise ValueError("elevation increments must be >= 0")
    kvs = [
        kv.elevated(int(i)) if int(i) > 0 else kv
        for kv, i in zip(space.knot_vectors, incs)
    ]
    return _build_plan("p-elevate", space, SplineSpace(kvs), exact=True)


def plan_p_reduce(space, dec=1):
    """Lower degree and every knot multiplicity together; inexact.

    A per-dimension decrement of 0 leaves that direction unchanged.
    """
    decs = dec if not np.isscalar(dec) else [dec] * space.parametric_dim
    if any(int(d) < 0 for d in decs):
        raise ValueError("reduction decrements must be >= 0")
    kvs = [
        kv.reduced(int(d)) if int(d) > 0 else kv
        for kv, d in zip(space.knot_vectors, decs)
    ]
    return _build_plan("p-reduce", space, SplineSpace(kvs), exact=False)


def plan_k_roughen(space, values=None, inc=1):
    """Raise interior knot multiplicities, lowering continuity; exact."""
    values = _per_dim_arg(space, values, "values")
    kvs = []
    for kv, vals in zip(space.knot_vectors, values):
        if vals is None:
            vals = kv.breakpoints[1:-1]
        if len(vals) == 0:
            kvs.append(kv)
            continue
        kvs.append(kv.roughened(vals, inc))
    return _build_plan("k-roughen", space, SplineSpace(kvs), exact=True)


def plan_k_smooth(space, values=None, dec=1):
    """Lower interior knot multiplicities, raising continuity; inexact."""
    values = _per_dim_arg(space, values, "values")
    kvs = []
    changed = False
    for kv, vals in zip(space.knot_vectors, values):
        if vals is None:
            vals = kv.breakpoints[1:-1][kv.multiplicities[1:-1] > dec]
        if len(vals) == 0:
            kvs.append(kv)
            continue
        kvs.append(kv.smoothed(vals, dec))
        changed = True
    if not changed:
        raise ValueError("no interior knot has multiplicity to spare")
    return _build_plan("k-smooth", space, SplineSpace(kvs), exact=False)


def plan_reparameterize(space, new_interior):
    """Move interior breakpoints, keeping counts and multiplicities; inexact."""
    new_interior = _per_dim_arg(space, new_interior, "new_interior")
    kvs = [
        kv if vals is None else kv.reparameterized(vals)
        for kv, vals in zip(space.knot_vectors, new_interior)
    ]
    return _build_plan("reparameterize", space, SplineSpace(kvs), exact=False)


def _is_superspace(source, target):
    """True if every source function is exactly representable on target."""
    for kvs, kvt in zip(source.knot_vectors, target.knot_vectors):
        if kvt.degree < kvs.degree:
            return False
        scale = kvs.domain[1] - kvs.domain[0]
        for t, m in zip(kvs.breakpoints[1:-1], kvs.multiplicities[1:-1]):
            hit = np.nonzero(np.abs(kvt.breakpoints - t) <= _TOL * scale)[0]
            if hit.size == 0:
                return False
            mt = int(kvt.multiplicities[hit[0]])
            # continuity on target must not exceed continuity on source
            if kvt.degree - mt > kvs.degree - int(m):
                return False
        # target may add breakpoints only if source has none there; any
        # extra breakpoint still contains the source piecewise structure
    return True


def plan_generic(source, target):
    """Plan between spaces sharing breakpoints, degrees free to differ.

    Used for degree and continuity changes where elements coincide
    geometrically. Exact iff the target contains the source space.
    """
    for kvs, kvt in zip(source.knot_vectors, target.knot_vectors):
        if kvs.n_elements != kvt.n_elements or not np.allclose(
            kvs.breakpoints, kvt.breakpoints, rtol=0, atol=_TOL
        ):
            raise ValueError("generic projection needs matching breakpoints")
    return _build_plan(
        "generic", source, target, exact=_is_superspace(source, target)
    )


def project_generic(source, target, net, weight_mode="approximate"):
    """Project a net between same-breakpoint spaces (degree/continuity)."""
    return apply_plan(plan_generic(source, target), net, weight_mode)


# ---------------------------------------------------------------------------
# user-facing operations


def h_refine(space, net, splits=None, weight_mode="approximate"):
    plan = plan_h_refine(space, splits)
    return plan.target, apply_plan(plan, net, weight_mode)


def h_coarsen(space, net, remove, weight_mode="approximate"):
    plan = plan_h_coarsen(space, remove)
    return plan.target, apply_plan(plan, net, weight_mode)


def p_elevate(space, net, inc=1, weight_mode="approximate"):
    plan = plan_p_elevate(space, inc)
    return plan.target, apply_plan(plan, net, weight_mode)


def p_reduce(space, net, dec=1, weight_mode="approximate"):
    plan = plan_p_reduce(space, dec)
    return plan.target, apply_plan(plan, net, weight_mode)


def k_roughen(space, net, values=None, inc=1, weight_mode="approximate"):
    plan = plan_k_roughen(space, values, inc)
    return plan.target, apply_plan(plan, net, weight_mode)


def k_smooth(space, net, values=None, dec=1, weight_mode="approximate"):
    plan = plan_k_smooth(space, values, dec)
    return plan.target, apply_plan(plan, net, weight_mode)


def reparameterize(space, net, new_interior, weight_mode="approximate"):
    plan = plan_reparameterize(space, new_interior)
    return plan.target, apply_plan(plan, net, weight_mode)
