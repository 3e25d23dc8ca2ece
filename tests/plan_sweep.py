"""Sweep of seeded random 1-D plans, saved for a bit-for-bit comparison
between two versions of bezproj.

    PYTHONPATH=<checkout>/src python tests/plan_sweep.py --save out.npz [-n 4800] [--seed 0]
    PYTHONPATH=src python tests/plan_sweep.py --compare a.npz b.npz

``--save`` builds n plans, twelve per random open knot vector (degree
1..4, interior multiplicities up to the degree): h-refinement by
bisection and at random points, h-coarsening, p-elevation by 1 and 2,
p-reduction, k-roughening, k-smoothing, reparameterization and
``plan_generic`` onto a superspace, a subspace and a smoother space.
Every 50th knot vector moves the values the builders are given (splits,
breakpoints to remove or roughen, new interior breakpoints, the
generic target's breakpoints) by 0.3 or 0.9 times 1e-12 of the domain
span, into the snapping tolerance. Each plan is saved as its pairing
(target, source, matrix) and exact flag, or as the message of the error
it raised, with a flag for whether two of its breakpoints and values lie
within 1e-12 of the domain span of each other.

``--compare`` lists the plans whose records differ bit for bit, with
their pairings on both sides. Pytest does not collect this file.
"""

import argparse
import sys

import numpy as np

from bezproj import spline_ops
from bezproj.spline_space import KnotVector, SplineSpace

KINDS = (
    "h-refine bisect", "h-refine points", "h-coarsen", "p-elevate 1", "p-elevate 2", "p-reduce",
    "k-roughen", "k-smooth", "reparameterize", "generic super", "generic sub", "generic smoother",
)
BAND_EVERY = 50


def _kv(bp, mult, p):
    return KnotVector(np.repeat(bp, mult), p)


def _c0(bp, p):
    """The space of degree p with breakpoints bp, all interior ones simple."""
    return SplineSpace([_kv(bp, np.r_[p + 1, np.ones(bp.size - 2, int), p + 1], p)])


def _inputs(seed, i):
    """A random knot vector and the values of every kind, drawn before
    any plan is built so that both versions see the same inputs."""
    rng = np.random.default_rng([seed, i])
    p = int(rng.integers(1, 5))
    a, span = [(0.0, 1.0), (-3.0, 10.0), (0.0, 1e6)][int(rng.integers(3))]
    n = int(rng.integers(1, 7))
    bp = np.r_[a, a + span * np.sort(rng.uniform(0.02, 0.98, n)), a + span]
    mult = np.r_[p + 1, rng.integers(1, p + 1, n), p + 1]
    band = i % BAND_EVERY == BAND_EVERY - 1
    shift = rng.choice([-0.9, -0.3, 0.3, 0.9], size=n) * 1e-12 * span if band else np.zeros(n)
    interior = bp[1:-1] + shift
    pick = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    points = a + span * rng.uniform(0.02, 0.98, 2)
    if band:
        points[0] = interior[0]
    gaps = np.diff(bp)
    moved = bp[1:-1] + rng.uniform(-0.3, 0.3, n) * np.minimum(gaps[:-1], gaps[1:])
    return dict(
        p=p, bp=bp, mult=mult, band=band, interior=interior, pick=np.sort(pick), points=points,
        moved=np.where(shift != 0, interior, moved), span=span,
    )


def _plan(kind, x):
    """The plan of one kind, and the values it was given."""
    p, bp, mult = x["p"], x["bp"], x["mult"]
    space = SplineSpace([_kv(bp, mult, p)])
    nudged = np.r_[bp[0], x["interior"], bp[-1]]
    picked = x["interior"][x["pick"]]
    build = {
        "h-refine bisect": lambda: (spline_ops.plan_h_refine(space), []),
        "h-refine points": lambda: (spline_ops.plan_h_refine(space, x["points"]), x["points"]),
        "h-coarsen": lambda: (spline_ops.plan_h_coarsen(space, picked), picked),
        "p-elevate 1": lambda: (spline_ops.plan_p_elevate(space, 1), []),
        "p-elevate 2": lambda: (spline_ops.plan_p_elevate(space, 2), []),
        "p-reduce": lambda: (spline_ops.plan_p_reduce(space, 1), []),
        "k-roughen": lambda: (spline_ops.plan_k_roughen(space, picked), picked),
        "k-smooth": lambda: (
            spline_ops.plan_k_smooth(spline_ops.plan_k_roughen(space).target, picked), picked
        ),
        "reparameterize": lambda: (spline_ops.plan_reparameterize(space, x["moved"]), x["moved"]),
        "generic super": lambda: (
            spline_ops.plan_generic(space, SplineSpace([_kv(nudged, mult + 1, p + 1)])), nudged
        ),
        "generic sub": lambda: (spline_ops.plan_generic(space, _c0(nudged, p)), nudged),
        "generic smoother": lambda: (spline_ops.plan_generic(space, _c0(nudged, p + 1)), nudged),
    }[kind]
    return build()


def _in_band(values, span):
    """Whether two of the values differ by more than 0 and at most 1e-12 * span."""
    d = np.diff(np.sort(np.concatenate([np.ravel(v) for v in values])))
    return bool(np.any((d > 0) & (d <= 1e-12 * span)))


def save(path, n, seed):
    labels, exact, errors, band, arrays = [], [], [], [], {}
    for k in range(n):
        i, kind = divmod(k, len(KINDS))
        x = _inputs(seed, i)
        kind = KINDS[kind]
        labels.append(f"{kind} p={x['p']}")
        try:
            plan, given = _plan(kind, x)
        except ValueError as exc:
            exact.append(-1)
            errors.append(str(exc))
            band.append(x["band"])
            continue
        (P,) = plan.pairings
        exact.append(int(plan.exact))
        errors.append("")
        band.append(_in_band([x["bp"], plan.target.knot_vectors[0].breakpoints, given], x["span"]))
        arrays.update({f"{k}.target": P.target, f"{k}.source": P.source, f"{k}.matrix": P.matrix})
    np.savez(
        path, labels=np.array(labels), exact=np.array(exact), errors=np.array(errors),
        band=np.array(band), **arrays,
    )
    print(f"{n} plans ({sum(band)} in the band, {exact.count(-1)} errors) -> {path}")


def _pairs(f, k):
    if f"{k}.target" not in f:
        return "error"
    return "t" + str(f[f"{k}.target"].tolist()) + " s" + str(f[f"{k}.source"].tolist())


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def compare(a_path, b_path):
    a, b = np.load(a_path), np.load(b_path)
    n = a["labels"].size
    if b["labels"].size != n or not np.array_equal(a["labels"], b["labels"]):
        sys.exit("the two sweeps hold different plans")
    differ = band = 0
    for k in range(n):
        keys = [f"{k}.{part}" for part in ("target", "source", "matrix")]
        same = a["exact"][k] == b["exact"][k] and a["errors"][k] == b["errors"][k] and all(
            (key in a) == (key in b) and (key not in a or _bits(a[key]) == _bits(b[key]))
            for key in keys
        )
        if same:
            continue
        differ += 1
        in_band = bool(a["band"][k] or b["band"][k])
        band += in_band
        print(f"plan {k} ({a['labels'][k]}, {'in the band' if in_band else 'OUTSIDE the band'}):")
        for name, f in ((a_path, a), (b_path, b)):
            flag = {1: "exact", 0: "inexact", -1: f"error: {f['errors'][k]}"}[int(f["exact"][k])]
            print(f"  {name}: {_pairs(f, k)} {flag}")
        if all(key in a and key in b for key in keys) and a[keys[2]].shape == b[keys[2]].shape:
            print(f"  max |matrix difference| {np.max(np.abs(a[keys[2]] - b[keys[2]])):.3g}")
    print(f"{n} plans, {differ} differ: {band} in the band, {differ - band} outside")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--save", metavar="OUT")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("-n", type=int, default=4800)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if bool(args.save) == bool(args.compare):
        ap.error("give one of --save and --compare")
    if args.save:
        save(args.save, args.n, args.seed)
    else:
        compare(*args.compare)


if __name__ == "__main__":
    main()
