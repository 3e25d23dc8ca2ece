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

import json
import sys
from fractions import Fraction

import click
import numpy as np

from . import benchmark, spline_ops
from .projection import TargetFunction, l2_error, lift_normals
from .spline_space import (
    evaluate,
    parse_number,
    read_spline_json,
    univariate_extraction_exact,
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


@click.group()
def main():
    """Local spline projection and refinement tools."""


def _fail(exc):
    raise click.ClickException(str(exc))


def _echo(message, nl=True):
    """click.echo to the current sys.stdout.

    Without a file, click.echo caches a text wrapper per stdout object,
    and for an in-memory stream that wrapper is the stream itself, which
    the cache then keeps alive: every in-process call that captures
    stdout (tests, embedding, benchmarks) would keep its whole output.
    """
    click.echo(message, file=sys.stdout, nl=nl)


def _parse_values(text):
    return [parse_number(tok) for tok in text.split(",") if tok.strip()]


def _knots_arg(knots, dim):
    """Map repeated --knots occurrences to a per-dimension dict."""
    if not knots:
        return None
    if len(knots) > dim:
        raise ValueError(f"--knots given {len(knots)} times for {dim} directions")
    return {d: _parse_values(text) for d, text in enumerate(knots)}


def _default_coarsen(space):
    """Without --knots, h-coarsen removes every second interior breakpoint."""
    out = {}
    for d, kv in enumerate(space.knot_vectors):
        out[d] = [float(b) for b in kv.breakpoints[1:-1][::2]]
    if not any(out.values()):
        raise ValueError("nothing to coarsen: no interior breakpoints")
    return out


def _l2_change(space_in, net_in, space_out, net_out):
    f = TargetFunction(lambda pts: evaluate(space_in, net_in, pts))
    return l2_error(f, space_out, net_out)


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
    try:
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
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    _echo(f"{name}: {space.n_elements} -> {plan.target.n_elements} elements")
    _echo(f"exact: {'yes' if plan.exact else 'no'}")
    if not plan.exact:
        _echo(f"L2 change: {_l2_change(space, net, plan.target, out_net):.6e}")
    _echo(f"wrote {out_path}")


def _format_matrix(rows):
    cells = [[str(x) for x in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  [" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)


def _fraction_inverse(A):
    n = len(A)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("extraction operator is singular")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


@main.command("extract")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--element", type=int, required=True, help="zero-based element index")
def cmd_extract(in_path, element):
    """Print the extraction operator C and reconstruction operator R of
    one element. Exact rationals when every knot is an integer or an
    "n/d" string, decimals otherwise."""
    try:
        with open(in_path) as fh:
            raw = json.load(fh)
        space, _ = read_spline_json(raw)
        if not 0 <= element < space.n_elements:
            raise ValueError(f"element {element} outside 0..{space.n_elements - 1}")
        exact = all(
            isinstance(u, (int, str)) for G in raw["knot_vectors"] for u in G
        )
        spans = space.unravel_element(element)
        if exact:
            factors = [
                univariate_extraction_exact([Fraction(u) for u in G], int(p))[k]
                for G, p, k in zip(raw["knot_vectors"], raw["degrees"], spans)
            ]
            C = reversed_kron([np.array(F, dtype=object) for F in factors]).tolist()
            # C is a Kronecker product, so R is that of the factor inverses
            R = reversed_kron(
                [np.array(_fraction_inverse(F), dtype=object) for F in factors]
            ).tolist()
        else:
            op = space.extraction_operator(element)
            factors = [F.tolist() for F in op.factors]
            C = op.C.tolist()
            R = np.linalg.inv(op.C).tolist()
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    if len(factors) > 1:
        for d, F in enumerate(factors):
            _echo(f"C factor, direction {d}:")
            _echo(_format_matrix(F))
    _echo("C:")
    _echo(_format_matrix(C))
    _echo("R:")
    _echo(_format_matrix(R))


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
    try:
        config = benchmark.BenchmarkConfig(
            target=target,
            degrees=[int(tok) for tok in degrees.split(",") if tok.strip()],
            levels=levels,
            weighting=_WEIGHTING[weighting],
            projector=projector,
            quad_order=quad_order,
        )
        rows = config.run()
    except ValueError as exc:
        _fail(exc)
    text = benchmark.rows_to_csv(rows)
    if out_path is None:
        _echo(text, nl=False)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
        _echo(f"wrote {len(rows)} rows to {out_path}")


@main.command("lift-normals")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_weighting_option
def cmd_lift_normals(in_path, out_path, weighting):
    """Project the unit normal field of a planar curve onto its own
    space; writes the input spline plus a "normal_vectors" array."""
    try:
        space, net = read_spline_json(in_path)
        vecs = lift_normals(space, net, weight_mode=_WEIGHTING[weighting])
    except ValueError as exc:
        _fail(exc)
    write_spline_json(
        out_path, space, net, extra={"normal_vectors": vecs.points.tolist()}
    )
    mags = np.linalg.norm(vecs.points, axis=1)
    _echo(f"control vector magnitudes: {mags.min():.6f} .. {mags.max():.6f}")
    _echo(f"wrote {out_path}")


@main.group()
def tmesh():
    """T-mesh queries."""


@tmesh.command("check-as")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def cmd_check_as(in_path):
    """Report analysis-suitability; exit 1 when extensions intersect."""
    try:
        mesh = read_tmesh_json(in_path)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    bad = mesh.analysis_violations()
    _echo(f"analysis-suitable: {'yes' if not bad else 'no'}")
    for ev, eh in bad:
        _echo(
            f"  extension of junction {ev.junction} intersects "
            f"extension of junction {eh.junction}"
        )
    if bad:
        raise SystemExit(1)


@tmesh.command("anchors")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def cmd_anchors(in_path):
    """List anchors in global ordering."""
    try:
        mesh = read_tmesh_json(in_path)
        anchors = mesh.anchors()
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    for k, a in enumerate(anchors):
        _echo(f"{k}: {a.kind} x={list(a.x_span)} y={list(a.y_span)}")


@tmesh.command("local-kv")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--anchor", type=int, required=True, help="anchor index (see `anchors`)")
def cmd_local_kv(in_path, anchor):
    """Print an anchor's local knot index vectors and knot vectors."""
    try:
        mesh = read_tmesh_json(in_path)
        anchors = mesh.anchors()
        if not 0 <= anchor < len(anchors):
            raise ValueError(f"anchor {anchor} outside 0..{len(anchors) - 1}")
        idx1, idx2 = mesh.local_knot_indices(anchors[anchor])
        g1, g2 = mesh.local_knot_vectors(anchors[anchor])
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    _echo(f"indices 1: {list(idx1)}")
    _echo(f"indices 2: {list(idx2)}")
    _echo(f"knots 1: {g1.tolist()}")
    _echo(f"knots 2: {g2.tolist()}")


@tmesh.command("extract")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--element", type=int, required=True, help="Bezier element index")
def cmd_tmesh_extract(in_path, element):
    """Print one Bezier element's extraction and reconstruction operators."""
    try:
        mesh = read_tmesh_json(in_path)
        els = mesh.bezier_elements()
        if not 0 <= element < len(els):
            raise ValueError(f"element {element} outside 0..{len(els) - 1}")
        C, R = mesh.element_extraction(element)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    el = els[element]
    _echo(f"bounds: {el.bounds[0]} x {el.bounds[1]}")
    _echo(f"anchors: {list(el.anchors)}")
    _echo("C:")
    _echo(_format_matrix(np.round(C, 14).tolist()))
    _echo("R:")
    _echo(_format_matrix(np.round(R, 14).tolist()))


if __name__ == "__main__":
    main()
