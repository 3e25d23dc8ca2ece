"""Batched paths against the scalar paths they replaced: the batched
window transform, the span pairings of every plan builder, the stacked
T-mesh element operators and the exact CLI reconstruction operator."""

import json
import os
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dim_pairing_ref,
    extract_exact_ref,
    fraction_inverse_ref,
    interval_transform_ref,
    tmesh_extraction_ref,
)
from test_tmesh import _generator, _transposed

from bezproj import spline_ops
from bezproj.bernstein import interval_transform
from bezproj.cli import main
from bezproj.spline_space import KnotVector, SplineSpace
from bezproj.tmesh import read_tmesh_json


def _random_windows(rng, n):
    """Windows [a, b] inside, across and outside [-1, 1]."""
    a = rng.uniform(-3.0, 2.0, n)
    return a, a + rng.uniform(0.01, 4.0, n)


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))


# ------------------------------------------------------ interval_transform


@pytest.mark.parametrize("p", range(6))
def test_batched_interval_transform_matches_scalar_reference(rng, p):
    a, b = _random_windows(rng, 64)
    stacked = interval_transform(p, a, b)
    assert stacked.shape == (64, p + 1, p + 1)
    for k in range(64):
        ref = interval_transform_ref(p, a[k], b[k])
        assert _rel(stacked[k], ref) <= 1e-14
        single = interval_transform(p, a[k], b[k])
        assert single.shape == (p + 1, p + 1)
        assert _rel(single, ref) <= 1e-14
    # windows broadcast, and the stack keeps their shape
    grid = interval_transform(p, a[:6].reshape(2, 3), b[:6].reshape(2, 3))
    assert grid.shape == (2, 3, p + 1, p + 1)
    assert np.array_equal(grid.reshape(6, p + 1, p + 1), stacked[:6])


@pytest.mark.parametrize("p", range(6))
def test_batched_interval_transform_matches_fraction_arithmetic(rng, p):
    a, b = _random_windows(rng, 16)
    stacked = interval_transform(p, a, b)
    for k in range(16):
        fa, fb = Fraction(float(a[k])), Fraction(float(b[k]))

        def basis(q, i, x):
            return comb(q, i) * ((1 - x) / 2) ** (q - i) * ((1 + x) / 2) ** i

        exact = np.array([
            [
                float(sum(
                    basis(j, i, fb) * basis(p - j, m - i, fa)
                    for i in range(max(0, j + m - p), min(j, m) + 1)
                ))
                for m in range(p + 1)
            ]
            for j in range(p + 1)
        ])
        # relative to the matrix's largest entry, which may be below one
        assert np.max(np.abs(stacked[k] - exact)) <= 1e-15 * np.max(np.abs(exact))


def test_batched_interval_transform_checks_every_window():
    with pytest.raises(ValueError, match=r"need a < b, got window \[0.5, 0.5\]"):
        interval_transform(2, [-1.0, 0.5, 0.0], [1.0, 0.5, -1.0])
    with pytest.warns(RuntimeWarning, match="degree 6 exceeds 5"):
        interval_transform(6, [-1.0, 0.0], [0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        interval_transform(5, [-1.0, 0.0], [0.0, 1.0])


# ------------------------------------------------------------ span pairing


def _space(rng, degrees, n_el):
    kvs = []
    for p, n in zip(degrees, n_el):
        bp = np.sort(rng.uniform(0.05, 0.95, n - 1))
        kvs.append(KnotVector(np.r_[[0.0] * (p + 1), bp, [1.0] * (p + 1)], p))
    return SplineSpace(kvs)


def _plans(rng):
    """One plan of every builder, with the exact flag each must carry."""
    space = _space(rng, (2, 3), (5, 4))
    rough = spline_ops.plan_k_roughen(space)
    interior = [kv.breakpoints[1:-1] for kv in space.knot_vectors]
    bp = space.knot_vectors[0].breakpoints
    # degree 3 at the same breakpoints, C2 where the source is C1: inexact
    smoother = SplineSpace([KnotVector(np.r_[[0.0] * 3, bp, [1.0] * 3], 3), space.knot_vectors[1]])
    # the same breakpoints up to 5e-14, within the snapping tolerance: every span
    # pairs with its own source span as an exact identity
    nudged = SplineSpace([
        KnotVector(np.r_[[0.0] * 3, bp[1:-1] + 5e-14, [1.0] * 3], 2), space.knot_vectors[1]
    ])
    return [
        (spline_ops.plan_generic(space, nudged), True),
        (spline_ops.plan_h_refine(space), True),
        (spline_ops.plan_h_refine(space, {0: [0.02, 0.5]}), True),
        (spline_ops.plan_h_coarsen(space, {0: interior[0][::2], 1: interior[1][1:2]}), False),
        (spline_ops.plan_p_elevate(space, [1, 2]), True),
        (spline_ops.plan_p_reduce(space, [1, 1]), False),
        (rough, True),
        (spline_ops.plan_k_smooth(rough.target), False),
        (spline_ops.plan_reparameterize(space, {1: interior[1] + 0.01}), False),
        (spline_ops.plan_generic(space, smoother), False),
    ]


def test_dim_pairing_matches_scalar_reference_for_every_builder(rng):
    identities = 0
    plans = _plans(rng)
    for plan, exact in plans:
        assert plan.exact is exact, plan.name
        for kvs, kvt, P in zip(plan.source.knot_vectors, plan.target.knot_vectors, plan.pairings):
            targets, sources, mats = dim_pairing_ref(kvs, kvt)
            assert np.array_equal(P.target, targets), plan.name
            assert np.array_equal(P.source, sources), plan.name
            assert P.matrix.shape == mats.shape
            for got, ref in zip(P.matrix, mats):
                assert _rel(got, ref) <= 1e-14, plan.name
                # a window that equals its span gives an exact identity
                if np.array_equal(ref, np.eye(ref.shape[0])):
                    assert np.array_equal(got, ref), plan.name
                    identities += 1
    assert identities > 0
    nudged = plans[0][0].pairings[0]
    assert np.array_equal(nudged.target, nudged.source)
    assert all(np.array_equal(M, np.eye(3)) for M in nudged.matrix)


def test_dim_pairing_keeps_its_coverage_check():
    short = SplineSpace([KnotVector([0, 0, 0.5, 0.7, 0.7], 1)])
    long = SplineSpace([KnotVector([0, 0, 0.5, 1, 1], 1)])
    with pytest.raises(ValueError, match="cover .* of a target span; the spaces do not tile"):
        spline_ops._dim_pairing(short.knot_vectors[0], long.knot_vectors[0], 1, 1)


# ----------------------------------------------------------------- T-mesh


@pytest.mark.parametrize(
    "name", ["tmesh_c", "tmesh_d", "tmesh_ext_right", "half_refined_2_8", "half_refined_3_8"]
)
def test_stacked_tmesh_operators_match_scalar_reference(fixtures_dir, name):
    if name.startswith("half_refined"):
        mesh = _generator(fixtures_dir).half_refined(*map(int, name.split("_")[2:]))
    else:
        mesh = read_tmesh_json(os.path.join(fixtures_dir, name + ".json"))
    for mesh in (mesh, _transposed(mesh)):
        for e in range(mesh.n_elements):
            C, R = mesh.element_extraction(e)
            C_ref, R_ref = tmesh_extraction_ref(mesh, e)
            assert _rel(C, C_ref) <= 1e-14
            assert _rel(R, R_ref) <= 1e-14
            assert not C.flags.writeable and not R.flags.writeable


def test_tmesh_element_errors_raise_from_every_read(fixtures_dir):
    """A malformed element fails the checks that run when the stacks are
    built, so every read raises its error, whichever elements it asks for."""
    path = os.path.join(fixtures_dir, "tmesh_d.json")

    def mesh_with(**changes):
        """tmesh_d with fields of the element arrays that its stacks read replaced."""
        mesh = read_tmesh_json(path)
        mesh._elements = mesh._elements._replace(**changes)
        return mesh

    mesh = read_tmesh_json(path)
    n = len(mesh.bezier_elements())
    with pytest.raises(IndexError, match=f"element {n} outside 0..{n - 1}"):
        mesh.element_extraction(n)

    els = mesh._elements
    drop = np.flatnonzero(els.element == 3)[-1]
    short = mesh_with(element=np.delete(els.element, drop), anchor=np.delete(els.anchor, drop))
    # element 5 widened to the whole index and parametric range in x
    G1 = mesh.knot_vectors[0]
    box, bounds = els.box.copy(), els.bounds.copy()
    box[5, 0], bounds[5, 0] = (1, G1.size), (G1[0], G1[-1])
    wide = mesh_with(box=box, bounds=bounds)
    for bad, message in (
        (short, "element 3 supports 15 functions, expected 16"),
        (wide, "not a polynomial piece of the local function"),
    ):
        for read in (lambda: bad.element_extraction(3), lambda: bad.element_extraction(5),
                     lambda: bad.element_extraction(2), lambda: bad.bounds([4])):
            with pytest.raises(ValueError, match=message):
                read()


# ------------------------------------------------------------ exact extract


def _exact_knots(rng, p):
    den = int(rng.integers(2, 40))
    ticks = sorted(set(int(t) for t in rng.integers(1, den, int(rng.integers(1, 4)))))
    knots = [0] * (p + 1)
    for t in ticks:
        knots += [str(Fraction(t, den))] * int(rng.integers(1, p + 1))
    return knots + [1] * (p + 1)


def _printed(output, label):
    lines = output.splitlines()
    rows = []
    for line in lines[lines.index(label) + 1:]:
        if not line.strip().startswith("["):
            break
        rows.append([Fraction(tok) for tok in line.strip().strip("[]").split()])
    return rows


def test_exact_cli_reconstruction_equals_full_inverse(rng, tmp_path):
    runner = CliRunner()
    for case in range(50):
        kv = [_exact_knots(rng, 3), _exact_knots(rng, 3)]
        shape = [len(G) - 4 for G in kv]
        path = tmp_path / f"s{case}.json"
        path.write_text(json.dumps({
            "parametric_dim": 2,
            "physical_dim": 1,
            "degrees": [3, 3],
            "knot_vectors": kv,
            "control_points": [[0.0]] * (shape[0] * shape[1]),
        }))
        n_el = [len(set(G)) - 1 for G in kv]
        element = int(rng.integers(0, n_el[0] * n_el[1]))
        result = runner.invoke(main, ["extract", "--in", str(path), "--element", str(element)])
        assert result.exit_code == 0, result.output
        C, R = _printed(result.output, "C:"), _printed(result.output, "R:")
        assert len(C) == 16
        assert R == fraction_inverse_ref(C)


@st.composite
def exact_spline_files(draw):
    """Exact spline files in 1 to 3 directions, degree 1 to 4 each, with
    repeated interior knots, negative knots and non-dyadic denominators
    (up to 2^40 + 3, with knots far enough apart to stay apart as
    floats); integral knots as JSON ints, the others as "n/d" strings."""
    degrees, knot_vectors = [], []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(1, 4))
        den = draw(st.sampled_from([1, 3, 7, 10, 12, 97]))
        shift = Fraction(draw(st.integers(0, 1)), 2**40 + 3)
        lo = draw(st.integers(-3, 1))
        ticks = draw(st.lists(st.integers(1, 4 * den - 1), unique=True, max_size=4))
        values = [Fraction(lo)] * (p + 1)
        for t in sorted(ticks):
            values += [lo + Fraction(t, den) + shift] * draw(st.integers(1, p))
        values += [Fraction(lo + 4)] * (p + 1)
        degrees.append(p)
        knot_vectors.append([int(v) if v.denominator == 1 else str(v) for v in values])
    n = 1
    for G, p in zip(knot_vectors, degrees):
        n *= len(G) - p - 1
    return {
        "parametric_dim": len(degrees),
        "physical_dim": 1,
        "degrees": degrees,
        "knot_vectors": knot_vectors,
        "control_points": [[0.0]] * n,
    }


@settings(max_examples=40, deadline=None)
@given(exact_spline_files())
def test_exact_extract_prints_what_fraction_arithmetic_prints(tmp_path_factory, data):
    """bezproj extract on integer numerators prints, byte for byte, what
    one Fraction object per entry prints, on the first, a middle and the
    last element."""
    path = tmp_path_factory.mktemp("exact") / "spline.json"
    path.write_text(json.dumps(data))
    n = 1
    for G in data["knot_vectors"]:
        n *= len(set(G)) - 1
    for element in sorted({0, n // 2, n - 1}):
        result = CliRunner().invoke(main, ["extract", "--in", str(path), "--element", str(element)])
        assert result.exit_code == 0, result.output
        assert result.output == extract_exact_ref(path, element)
