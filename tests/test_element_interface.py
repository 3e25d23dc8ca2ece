"""The element interface: bounds, supports, C and R as stacked arrays.

SplineSpace builds them from its per-direction knot-vector stacks, TMesh
reads them from the stacks it caches; both agree with the one-element
views they replace.
"""

import itertools
import json
import os

import numpy as np
import pytest

from bezproj.bernstein import bernstein_matrix
from bezproj.spline_ops import large_to_small, multi_to_one
from bezproj.spline_space import KnotVector, SplineSpace
from bezproj.tensor import reversed_kron
from bezproj.tmesh import TMesh, read_tmesh_json
from oracles import random_open_kv


def _space(rng, dim, jittered):
    kvs = []
    for p in (2, 3, 1)[:dim]:
        if jittered:
            kvs.append(KnotVector(random_open_kv(rng, p, n_breaks=3, max_mult=p), p))
        else:
            kvs.append(KnotVector(np.r_[[0.0] * p, np.linspace(0, 1, 4), [1.0] * p], p))
    return SplineSpace(kvs)


def _element_refs(sp, e):
    """Bounds, supports, C and R of element e from the per-direction rows."""
    spans = sp.unravel_element(e)
    kvs = sp.knot_vectors
    bounds = [kv.breakpoints[k : k + 2] for kv, k in zip(kvs, spans)]
    per_dim = [kv.supports()[k] for kv, k in zip(kvs, spans)]
    # the first direction cycles fastest
    strides = np.cumprod((1,) + sp.shape[:-1])
    support = [strides @ i[::-1] for i in itertools.product(*per_dim[::-1])]
    C = reversed_kron([kv.extraction()[k] for kv, k in zip(kvs, spans)])
    R = reversed_kron([kv.reconstruction()[k] for kv, k in zip(kvs, spans)])
    return bounds, support, C, R


@pytest.mark.parametrize("jittered", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_space_arrays_are_kronecker_products_of_direction_rows(rng, dim, jittered):
    sp = _space(rng, dim, jittered)
    n_loc = n_bern = int(np.prod([p + 1 for p in sp.degrees]))
    picks = rng.integers(0, sp.n_elements, size=5)
    for ids in (None, picks, [sp.n_elements - 1], []):
        chosen = range(sp.n_elements) if ids is None else list(ids)
        got = (sp.bounds(ids), sp.supports(ids), sp.extraction(ids), sp.reconstruction(ids))
        assert got[0].shape == (len(chosen), dim, 2)
        assert got[1].shape == (len(chosen), n_loc)
        assert got[2].shape == got[3].shape == (len(chosen), n_loc, n_bern)
        for row, e in enumerate(chosen):
            # the one-element readers return the same rows
            one = sp.element(e) + (sp.extraction_operator(e), sp.reconstruction_operator(e))
            assert all(np.array_equal(a, g[row]) for a, g in zip(one, got + got[2:]))
            for a, ref in zip(got, _element_refs(sp, e)):
                if dim <= 2 or a.dtype.kind == "i":
                    assert np.array_equal(a[row], ref)
                else:
                    assert np.max(np.abs(a[row] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_space_arrays_reject_unknown_elements():
    sp = SplineSpace([KnotVector([0, 0, 0.5, 1, 1], 1)] * 2)
    with pytest.raises(IndexError, match=r"^element 4 outside 0\.\.3$"):
        sp.extraction([0, 4])
    with pytest.raises(IndexError, match=r"^element -1 outside 0\.\.3$"):
        sp.bounds([-1])


def test_curve_arrays_are_its_knot_vectors(rng):
    kv = KnotVector(random_open_kv(rng, 3, max_mult=3), 3)
    sp = SplineSpace([kv])
    assert np.array_equal(sp.extraction(), kv.extraction())
    assert np.array_equal(sp.reconstruction(), kv.reconstruction())
    assert np.array_equal(sp.supports(), kv.supports())
    bp = kv.breakpoints
    assert np.array_equal(sp.bounds()[:, 0], np.stack([bp[:-1], bp[1:]], axis=1))


def _mesh(fixtures_dir, name):
    return read_tmesh_json(os.path.join(fixtures_dir, name + ".json"))


@pytest.mark.parametrize("name", ["tmesh_c", "tmesh_d", "tmesh_ext_right"])
def test_tmesh_arrays_match_its_elements(fixtures_dir, name):
    mesh = _mesh(fixtures_dir, name)
    boxes = mesh.bezier_elements()
    assert (mesh.n_elements, mesh.n_funcs) == (len(boxes), len(mesh.anchors()))
    bounds, support = mesh.bounds(), mesh.supports()
    C, R = mesh.extraction(), mesh.reconstruction()
    # the bounds are the global knots at the index boxes' ends
    G = mesh.knot_vectors
    assert np.array_equal(bounds, np.stack([G[d][boxes[:, d] - 1] for d in (0, 1)], axis=1))
    # the supports are the element's (element, anchor) pairs, in order
    els = mesh._elements
    assert np.array_equal(els.element, np.repeat(np.arange(len(boxes)), support.shape[1]))
    assert np.array_equal(support.ravel(), els.anchor)
    for e in range(len(boxes)):
        Ce, Re = mesh.element_extraction(e)
        assert np.array_equal(C[e], Ce) and np.array_equal(R[e], Re)
    ids = [len(boxes) - 1, 0]
    assert np.array_equal(mesh.extraction(ids), C[ids])
    assert np.array_equal(mesh.supports(ids), support[ids])


def test_tmesh_arrays_raise_the_element_error(fixtures_dir):
    mesh = _mesh(fixtures_dir, "tmesh_d")
    n = mesh.n_elements
    # drop element 3's last anchor from the (element, anchor) pairs the stacks read
    els = mesh._elements
    drop = np.flatnonzero(els.element == 3)[-1]
    mesh._elements = els._replace(
        element=np.delete(els.element, drop), anchor=np.delete(els.anchor, drop)
    )
    message = "element 3 supports 15 functions, expected 16; mesh is malformed"
    # the checks run once, when the stacks are built, so every read raises
    for read in (lambda: mesh.element_extraction(3), mesh.extraction, mesh.reconstruction,
                 mesh.supports, mesh.bounds, lambda: mesh.extraction([5, 3]),
                 lambda: mesh.extraction([2, 4]), lambda: mesh.bounds([n])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read()
    with pytest.raises(IndexError, match=f"^element {n} outside 0..{n - 1}$"):
        _mesh(fixtures_dir, "tmesh_d").extraction([n])


@pytest.mark.parametrize("ids", [[1.7], [True, False, True, False]], ids=["float", "mask"])
def test_arrays_reject_ids_that_are_not_integers(fixtures_dir, ids):
    sp = SplineSpace([KnotVector([0, 0, 0.5, 1, 1], 1)] * 2)
    mesh = _mesh(fixtures_dir, "tmesh_d")
    for space in (sp, mesh):
        for read in (space.bounds, space.supports, space.extraction, space.reconstruction):
            with pytest.raises(IndexError, match="^element ids must be integers"):
                read(ids)


@pytest.mark.parametrize("scale", [2.0**-400, 2.0**400], ids=["2^-400", "2^400"])
def test_reconstruction_at_extreme_knot_scales(fixtures_dir, scale):
    """R does not depend on the scale of the knots: scaled by a power of
    two, every operator is the same bit for bit, and no power of an
    element length over- or underflows on the way to it."""
    with open(os.path.join(fixtures_dir, "tmesh_d.json")) as fh:
        data = json.load(fh)
    mesh = read_tmesh_json(data)
    knots = np.r_[[0] * 6, 1, 2, 2, 3, [4] * 6]
    pairs = [
        (mesh, read_tmesh_json(dict(data, knot_vectors=[scale * g for g in mesh.knot_vectors]))),
        (SplineSpace([KnotVector(knots, 5)] * 2), SplineSpace([KnotVector(scale * knots, 5)] * 2)),
    ]
    for space, scaled in pairs:
        assert np.array_equal(scaled.extraction(), space.extraction())
        assert np.array_equal(scaled.reconstruction(), space.reconstruction())
        C, R = space.extraction(), space.reconstruction()
        assert np.max(np.abs(C @ R - np.eye(C.shape[1]))) <= 1e-12


@pytest.mark.parametrize("name", ["tmesh_c", "tmesh_d", "tmesh_ext_right"])
def test_element_windows_restrict_a_tmesh_to_its_tensor_cells(rng, fixtures_dir, name):
    """large_to_small from every element of an analysis-suitable T-mesh onto
    the cells of the tensor mesh on its global knots inside it reproduces
    the element's polynomial."""
    mesh = _mesh(fixtures_dir, name)
    cells = TMesh.tensor(mesh.degrees, mesh.knot_vectors)
    coeffs = rng.normal(size=(mesh.n_funcs, 2))
    inner, worst = cells.bounds(), 0.0

    def values(space, e, lam, x):
        """The Bernstein form of element e with spline coefficients lam at points x."""
        box = space.bounds([e])[0]
        xi = (2 * x - box[:, 0] - box[:, 1]) / (box[:, 1] - box[:, 0])
        rows = [bernstein_matrix(p, xi[:, d])[:, None, :] for d, p in enumerate(space.degrees)]
        return reversed_kron(rows)[:, 0] @ (space.extraction([e])[0].T @ lam)

    for e, box in enumerate(mesh.bounds()):
        inside = (box[:, 0] <= inner[:, :, 0]) & (inner[:, :, 1] <= box[:, 1])
        (kids,) = np.nonzero(inside.all(axis=1))
        for k, lam in large_to_small(mesh, e, cells, kids, coeffs).items():
            x = inner[k, :, 0] + rng.random((20, 2)) * (inner[k, :, 1] - inner[k, :, 0])
            want = values(mesh, e, coeffs[mesh.supports([e])[0]], x)
            worst = max(worst, np.max(np.abs(values(cells, k, lam, x) - want)))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_element_windows_on_a_tensor_tmesh_match_its_spline_space(rng, p):
    """large_to_small and multi_to_one read a space only through the
    element interface, so on the TMesh.tensor pair of a coarse space and
    its bisection they give the SplineSpace results, bit for bit: the
    operators agree in value and in memory layout. (A T-mesh R held as
    a transposed view sent matmul down another summation order, which
    moved results at p = 3 and 4 by up to 1.2e-13 of their size.)"""
    coarse = [random_open_kv(rng, p, n_breaks=2) for _ in range(2)]
    fine = [sorted(G + list((np.unique(G)[1:] + np.unique(G)[:-1]) / 2)) for G in coarse]
    spaces = [SplineSpace([KnotVector(G, p) for G in knots]) for knots in (coarse, fine)]
    meshes = [TMesh.tensor((p, p), knots) for knots in (coarse, fine)]
    outer, inner = spaces[0].bounds(), spaces[1].bounds()
    points = [rng.random((space.n_funcs, 2)) for space in spaces]
    for e, box in enumerate(outer):
        inside = (box[:, 0] <= inner[:, :, 0]) & (inner[:, :, 1] <= box[:, 1])
        (kids,) = np.nonzero(inside.all(axis=1))
        want = large_to_small(spaces[0], e, spaces[1], kids, points[0])
        got = large_to_small(meshes[0], e, meshes[1], kids, points[0])
        assert all(np.array_equal(got[k], want[k]) for k in kids)
        assert np.array_equal(
            multi_to_one(meshes[1], kids, meshes[0], e, points[1]),
            multi_to_one(spaces[1], kids, spaces[0], e, points[1]),
        )
