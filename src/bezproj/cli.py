"""Command-line driver.

Subcommands:

  op           apply one refinement / coarsening operation to a spline file
  extract      dump element extraction operators (exact rationals when
               the knot vectors are written as integers or "n/d" strings)
  convergence  run a projection convergence ladder, emit CSV
  lift-normals project the unit normal field of a planar curve
  tmesh        T-mesh queries: check-as, anchors, local-kv, extract

All file payloads are JSON; numeric entries may be exact rational
strings like "3/8".
"""

import math

import click
import numpy as np

from . import benchmark, spline_ops
from .bernstein import _bernstein_blossoms
from .projection import l2_error, lift_normals
from .spline_space import (
    _common_denominator,
    _exact_extraction,
    _exact_windows,
    _fields,
    _integer,
    _number_array,
    _read_json,
    _window_knots,
    evaluate,
    read_spline_json,
    write_spline_json,
)
from .tensor import reversed_kron
from .tmesh import read_tmesh_json

_WEIGHTING = {
    "approx": "approximate",
    "approximate": "approximate",
    "exact": "exact",
    "uniform": "uniform",
}

_weighting_option = click.option(
    "--weighting",
    type=click.Choice(sorted(_WEIGHTING)),
    default="approx",
    show_default=True,
    help="smoothing weight mode for inexact operations",
)


class _Commands(click.Group):
    """The command group: the one place where bad input, a bad path or a
    bad id becomes `Error: ...` and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's main exits quietly when the reader of stdout has gone
        except (ValueError, IndexError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main():
    """Local spline projection and refinement tools."""


def _knots_arg(knots, dim):
    """Map repeated --knots occurrences to a per-dimension dict."""
    if not knots:
        return None
    if len(knots) > dim:
        raise ValueError(f"--knots given {len(knots)} times for {dim} directions")
    return {
        d: _number_array([tok for tok in text.split(",") if tok.strip()], "--knots", 1)
        for d, text in enumerate(knots)
    }


def _default_coarsen(space):
    """Without --knots, h-coarsen removes every second interior breakpoint."""
    out = {}
    for d, kv in enumerate(space.knot_vectors):
        out[d] = [float(b) for b in kv.breakpoints[1:-1][::2]]
    if not any(out.values()):
        raise ValueError("nothing to coarsen: no interior breakpoints")
    return out


def _l2_change(space_in, net_in, space_out, net_out):
    """L2 distance between the input and output fields. The output is
    first refined, exactly, at the input breakpoints it lacks, so that
    both fields are smooth on every element its Gauss rule integrates."""
    splits = [
        kv_in.breakpoints[spline_ops._breakpoint_index(kv_out, kv_in.breakpoints) < 0]
        for kv_in, kv_out in zip(space_in.knot_vectors, space_out.knot_vectors)
    ]
    if any(s.size for s in splits):
        refine = spline_ops.plan_h_refine(space_out, splits)
        space_out, net_out = refine.target, spline_ops.apply_plan(refine, net_out)
    return l2_error(lambda pts: evaluate(space_in, net_in, pts), space_out, net_out)


@main.command("op")
@click.argument(
    "name",
    type=click.Choice(
        [
            "h-refine",
            "h-coarsen",
            "p-elevate",
            "p-reduce",
            "k-roughen",
            "k-smooth",
            "reparam",
        ]
    ),
)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option(
    "--knots",
    multiple=True,
    help="comma-separated knot values, repeat once per parametric direction",
)
@click.option("--degree", type=int, default=None, help="target degree for p-elevate/p-reduce")
@_weighting_option
def cmd_op(name, in_path, out_path, knots, degree, weighting):
    """Apply a refinement or coarsening operation to a spline file."""
    space, net = read_spline_json(in_path)
    kargs = _knots_arg(knots, space.parametric_dim)
    if name == "h-refine":
        plan = spline_ops.plan_h_refine(space, splits=kargs)
    elif name == "h-coarsen":
        plan = spline_ops.plan_h_coarsen(
            space, kargs if kargs is not None else _default_coarsen(space)
        )
    elif name in ("p-elevate", "p-reduce"):
        if degree is None:
            steps = [1] * space.parametric_dim
        else:
            sign = 1 if name == "p-elevate" else -1
            steps = [sign * (degree - p) for p in space.degrees]
            if any(s <= 0 for s in steps):
                raise ValueError(
                    f"target degree {degree} does not {name.replace('-', ' ')} "
                    f"a degree-{space.degrees} space"
                )
        if name == "p-elevate":
            plan = spline_ops.plan_p_elevate(space, inc=steps)
        else:
            plan = spline_ops.plan_p_reduce(space, dec=steps)
    elif name == "k-roughen":
        plan = spline_ops.plan_k_roughen(space, values=kargs)
    elif name == "k-smooth":
        plan = spline_ops.plan_k_smooth(space, values=kargs)
    else:  # reparam
        if kargs is None:
            raise ValueError("reparam needs --knots with the new interior breakpoints")
        plan = spline_ops.plan_reparameterize(space, kargs)
    out_net = spline_ops.apply_plan(plan, net, weight_mode=_WEIGHTING[weighting])
    write_spline_json(out_path, plan.target, out_net)
    print(f"{name}: {space.n_elements} -> {plan.target.n_elements} elements")
    print(f"exact: {'yes' if plan.exact else 'no'}")
    if not plan.exact:
        print(f"L2 change: {_l2_change(space, net, plan.target, out_net):.6e}")
    print(f"wrote {out_path}")


def _format_matrix(rows):
    cells = [[str(x) for x in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  [" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)


def _exact_read(raw):
    """The knots of a spline file, each read once as exact integers.

    Per direction, the numerators over one denominator, and raw with its
    knots replaced by the floats of the same values. (None, raw) unless
    every knot is an int or a string that reads as a rational; then
    read_spline_json reads the file as it is and names any bad knot.
    """
    _fields(raw)  # a JSON object, else ValueError
    G = raw.get("knot_vectors")
    if not (
        isinstance(G, list)
        and all(isinstance(g, list) and all(type(u) in (int, str) for u in g) for g in G)
    ):
        return None, raw
    try:
        exact = [_common_denominator(g) for g in G]
        floats = [[n / den for n in U] for U, den in exact]
    except (ValueError, ZeroDivisionError, OverflowError):
        return None, raw
    return exact, dict(raw, knot_vectors=floats)


def _ratio_rows(N, den):
    """Rows of str(Fraction(n, den)) for the entries n of N: each entry
    reduced by its gcd only here."""
    g = np.frompyfunc(math.gcd, 2, 1)(N, den)
    return [
        [str(n) if d == 1 else f"{n}/{d}" for n, d in zip(nums, dens)]
        for nums, dens in zip((N // g).tolist(), (den // g).tolist())
    ]


def _ratio_kron(factors):
    """Text rows of the Kronecker product of (numerators, denominator)
    factors, first factor fastest."""
    return _ratio_rows(reversed_kron([N for N, _ in factors]), math.prod(d for _, d in factors))


@main.command("extract")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--element", type=int, required=True, help="zero-based element index")
def cmd_extract(in_path, element):
    """Print the extraction operator C and reconstruction operator R of
    one element. Exact rationals when every knot is an integer or an
    "n/d" string, decimals otherwise."""
    exact, raw = _exact_read(_read_json(in_path))
    space, _ = read_spline_json(raw)
    spans = space.unravel_element(element)
    if exact:
        # integer numerator matrices, each over one denominator
        factors, duals = [], []
        for d, ((U, _), kv, k) in enumerate(zip(exact, space.knot_vectors, spans)):
            W = _exact_windows(U, kv.degree)
            if len(W) != kv.n_elements:
                raise ValueError(
                    f"direction {d}: {len(W)} exact nonzero spans but {kv.n_elements} "
                    "float elements; near-equal knots merge in floating point"
                )
            factors.append(_common_denominator(_exact_extraction(W[k : k + 1])[0]))
            U, a, b = _window_knots(W[k : k + 1])
            duals.append((_bernstein_blossoms(b - U, U - a)[0].T, (b - a).item() ** kv.degree))
        C, R = _ratio_kron(factors), _ratio_kron(duals)
        factors = [_ratio_rows(N, den) for N, den in factors]
    else:
        factors = [kv.extraction()[k].tolist() for kv, k in zip(space.knot_vectors, spans)]
        C = space.extraction([element])[0].tolist()
        R = space.reconstruction([element])[0].tolist()
    if len(factors) > 1:
        for d, F in enumerate(factors):
            print(f"C factor, direction {d}:")
            print(_format_matrix(F))
    print("C:")
    print(_format_matrix(C))
    print("R:")
    print(_format_matrix(R))


@main.command("convergence")
@click.option("--target", default="sine", show_default=True,
              help="sine, govindjee, or an expression in x")
@click.option("--degrees", default="2,3", show_default=True)
@click.option("--levels", type=int, default=5, show_default=True)
@_weighting_option
@click.option("--projector", type=click.Choice(["bezier", "global", "both"]),
              default="both", show_default=True)
@click.option("--quad-order", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="CSV path; stdout when omitted")
def cmd_convergence(target, degrees, levels, weighting, projector, quad_order, out_path):
    """Run a refinement ladder and report L2 errors and observed rates."""
    tokens = [tok for tok in degrees.split(",") if tok.strip()]
    rows = benchmark.run_convergence(
        target=target,
        degrees=[_integer(p, "--degrees") for p in _number_array(tokens, "--degrees", 1).tolist()],
        levels=levels,
        weighting=_WEIGHTING[weighting],
        projector=projector,
        quad_order=quad_order,
    )
    text = benchmark.rows_to_csv(rows)
    if out_path is None:
        print(text, end="")
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {out_path}")


@main.command("lift-normals")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_weighting_option
def cmd_lift_normals(in_path, out_path, weighting):
    """Project the unit normal field of a planar curve onto its own
    space; writes the input spline plus a "normal_vectors" array."""
    space, net = read_spline_json(in_path)
    vecs = lift_normals(space, net, weight_mode=_WEIGHTING[weighting])
    write_spline_json(out_path, space, net, extra={"normal_vectors": vecs.points.tolist()})
    mags = np.linalg.norm(vecs.points, axis=1)
    print(f"control vector magnitudes: {mags.min():.6f} .. {mags.max():.6f}")
    print(f"wrote {out_path}")


@main.group()
def tmesh():
    """T-mesh queries."""


@tmesh.command("check-as")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def cmd_check_as(in_path):
    """Report analysis-suitability; exit 1 when extensions intersect."""
    mesh = read_tmesh_json(in_path)
    bad = mesh.analysis_violations()
    junction = mesh.extensions().junction.tolist()
    print(f"analysis-suitable: {'no' if len(bad) else 'yes'}")
    for v, h in bad.tolist():
        print(
            f"  extension of junction {tuple(junction[v])} intersects "
            f"extension of junction {tuple(junction[h])}"
        )
    if len(bad):
        raise SystemExit(1)


@tmesh.command("anchors")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def cmd_anchors(in_path):
    """List anchors in global ordering."""
    mesh = read_tmesh_json(in_path)
    for k, (x, y) in enumerate(mesh.anchors().tolist()):
        print(f"{k}: {mesh.anchor_kind} x={x} y={y}")


@tmesh.command("local-kv")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--anchor", type=int, required=True, help="anchor index (see `anchors`)")
def cmd_local_kv(in_path, anchor):
    """Print an anchor's local knot index vectors and knot vectors."""
    mesh = read_tmesh_json(in_path)
    idx1, idx2 = mesh.local_knot_indices(anchor)
    g1, g2 = mesh.local_knot_vectors(anchor)
    print(f"indices 1: {idx1.tolist()}")
    print(f"indices 2: {idx2.tolist()}")
    print(f"knots 1: {g1.tolist()}")
    print(f"knots 2: {g2.tolist()}")


@tmesh.command("extract")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--element", type=int, required=True, help="Bezier element index")
def cmd_tmesh_extract(in_path, element):
    """Print one Bezier element's extraction and reconstruction operators."""
    mesh = read_tmesh_json(in_path)
    C, R = mesh.element_extraction(element)
    (x, y), anchors = mesh.bounds([element])[0].tolist(), mesh.supports([element])[0]
    print(f"bounds: {tuple(x)} x {tuple(y)}")
    print(f"anchors: {anchors.tolist()}")
    print("C:")
    print(_format_matrix(np.round(C, 14).tolist()))
    print("R:")
    print(_format_matrix(np.round(R, 14).tolist()))


if __name__ == "__main__":
    main()
