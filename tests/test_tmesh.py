import importlib.util
import json
import os
import re

import numpy as np
import pytest
from oracles import (
    _skeleton_ref,
    analysis_violations_ref,
    extensions_ref,
    local_knot_indices_ref,
    positions_ref,
)
from scipy.interpolate import BSpline

from bezproj.spline_space import KnotVector, SplineSpace
from bezproj.tmesh import TMesh, read_tmesh_json, tmesh_to_dict, write_tmesh_json


def _load(fixtures_dir, name):
    return read_tmesh_json(os.path.join(fixtures_dir, name + ".json"))


def _anchor_by_span(mesh, x_span, y_span):
    """The position of the anchor with the given index spans."""
    (hit,) = np.flatnonzero((mesh.anchors() == [x_span, y_span]).all(axis=(1, 2)))
    return hit


# the sides of a vertex along each direction: forwards, backwards
_SIDES = (("right", "left"), ("up", "down"))


def _t_junctions(mesh):
    """[(junction, missing side)] of every T-junction: its face extension
    points to the missing side."""
    ext = mesh.extensions()
    return [
        # a face ending at its junction runs backwards
        (tuple(v), _SIDES[d][int(face[1][d] == v[d])])
        for v, d, face in zip(ext.junction.tolist(), ext.direction.tolist(), ext.face.tolist())
    ]


def _junction_position(mesh, junction):
    (hit,) = np.flatnonzero((mesh.extensions().junction == junction).all(axis=1))
    return hit


def _blend_eval(g1, g2, x, y):
    """Tensor blending function straight from scipy basis elements."""
    f1 = BSpline.basis_element(np.asarray(g1, dtype=float), extrapolate=False)
    f2 = BSpline.basis_element(np.asarray(g2, dtype=float), extrapolate=False)
    v1 = np.nan_to_num(f1(x))
    v2 = np.nan_to_num(f2(y))
    return v1 * v2


# ------------------------------------------------------- worked examples


def test_local_knots_even_even(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_a")
    assert mesh.degrees == (2, 2)
    a = _anchor_by_span(mesh, (4, 8), (3, 7))
    assert mesh.anchor_kind == "cell"
    i1, i2 = mesh.local_knot_indices(a)
    assert list(i1) == [3, 4, 8, 10]
    assert list(i2) == [2, 3, 7, 9]
    g1, g2 = mesh.local_knot_vectors(a)
    assert list(g1) == [0, 1, 5, 7]
    assert list(g2) == [0, 0, 4, 6]


def test_local_knots_odd_even(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_b")
    assert mesh.degrees == (3, 2)
    a = _anchor_by_span(mesh, (9, 9), (7, 9))
    assert mesh.anchor_kind == "vedge"
    i1, i2 = mesh.local_knot_indices(a)
    assert list(i1) == [5, 8, 9, 11, 12]
    assert list(i2) == [6, 7, 9, 10]
    g1, g2 = mesh.local_knot_vectors(a)
    assert list(g1) == [1, 4, 5, 7, 7]
    assert list(g2) == [3, 4, 6, 7]


def test_local_knots_even_odd(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_c")
    assert mesh.degrees == (2, 3)
    a = _anchor_by_span(mesh, (4, 7), (8, 8))
    assert mesh.anchor_kind == "hedge"
    i1, i2 = mesh.local_knot_indices(a)
    assert list(i1) == [3, 4, 7, 8]
    assert list(i2) == [3, 4, 8, 9, 10]
    g1, g2 = mesh.local_knot_vectors(a)
    assert list(g1) == [0, 1, 4, 5]
    assert list(g2) == [0, 0, 4, 5, 6]


def test_local_knots_odd_odd(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_d")
    assert mesh.degrees == (3, 3)
    a = _anchor_by_span(mesh, (8, 8), (8, 8))
    assert mesh.anchor_kind == "vertex"
    i1, i2 = mesh.local_knot_indices(a)
    assert list(i1) == [4, 5, 8, 9, 11]
    assert list(i2) == [3, 4, 8, 9, 10]
    g1, g2 = mesh.local_knot_vectors(a)
    assert list(g1) == [0, 1, 4, 5, 7]
    assert list(g2) == [0, 0, 4, 5, 6]


def test_anchor_kinds_follow_degree_parity(fixtures_dir):
    kinds = {
        "tmesh_a": "cell",
        "tmesh_b": "vedge",
        "tmesh_c": "hedge",
        "tmesh_d": "vertex",
    }
    for name, kind in kinds.items():
        mesh = _load(fixtures_dir, name)
        assert mesh.anchor_kind == kind


def test_local_knot_vectors_structurally_sound(fixtures_dir):
    for name in ("tmesh_a", "tmesh_b", "tmesh_c", "tmesh_d"):
        mesh = _load(fixtures_dir, name)
        p1, p2 = mesh.degrees
        for k in range(mesh.n_funcs):
            g1, g2 = mesh.local_knot_vectors(k)
            assert len(g1) == p1 + 2 and len(g2) == p2 + 2
            assert np.all(np.diff(g1) >= 0) and np.all(np.diff(g2) >= 0)
            assert g1[0] < g1[-1] and g2[0] < g2[-1]


# ------------------------------------------------------- junctions, AS


def test_t_junctions_even_even_case(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_a")
    got = set(_t_junctions(mesh))
    assert got == {((8, 6), "left"), ((9, 6), "up"), ((9, 7), "down")}


def test_even_even_case_has_crossing_extensions(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_a")
    assert not mesh.is_analysis_suitable()


def test_extensions_left_fixture_violations(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_ext_left")
    junctions = dict(_t_junctions(mesh))
    assert junctions == {
        (4, 7): "left",
        (8, 7): "right",
        (9, 9): "left",
        (9, 10): "left",
        (10, 9): "up",
    }
    bad = mesh.analysis_violations()
    assert bad.shape == (3, 2)
    ext = mesh.extensions()
    pairs = {tuple(map(tuple, ext.junction[pair].tolist())) for pair in bad}
    assert pairs == {((10, 9), (8, 7)), ((10, 9), (9, 9)), ((10, 9), (9, 10))}
    # the vertical extension spans, face and edge sides together
    k = _junction_position(mesh, (10, 9))
    assert ext.direction[k] == 1
    ends = np.concatenate([ext.face[k], ext.edge[k]])
    assert (ends.min(axis=0).tolist(), ends.max(axis=0).tolist()) == ([10, 4], [10, 11])
    assert not mesh.is_analysis_suitable()


def test_extensions_right_fixture_is_suitable(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_ext_right")
    assert {v for v, _ in _t_junctions(mesh)} == {
        (4, 7), (8, 7), (9, 9), (9, 10),
    }
    assert (mesh.extensions().direction == 0).all()
    assert mesh.is_analysis_suitable()
    assert mesh.analysis_violations().shape == (0, 2)


def test_extension_lengths_for_cubic(fixtures_dir):
    # cubic: faces advance ceil((p+1)/2) = 2 crossings, edges ceil((p-1)/2) = 1
    mesh = _load(fixtures_dir, "tmesh_ext_left")
    ext, k = mesh.extensions(), _junction_position(mesh, (10, 9))
    (fx1, fy1), (fx2, fy2) = ext.face[k].tolist()
    (ex1, ey1), (ex2, ey2) = ext.edge[k].tolist()
    assert fx1 == fx2 == ex1 == ex2 == 10
    assert (fy1, fy2) == (9, 11)  # two crossings upward
    assert (ey1, ey2) == (4, 9)  # one crossing downward


# ------------------------------------------------------- extraction oracle


def test_bezier_elements_partition_and_extraction(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_ext_right")
    p1, p2 = mesh.degrees
    els = mesh.bezier_elements()
    assert len(els), "no elements returned"
    assert els.shape == (mesh.n_elements, 2, 2)

    # the nonzero-area elements tile the parametric rectangle
    size = np.diff(mesh.bounds(), axis=2)[:, :, 0]
    G1, G2 = mesh.knot_vectors
    assert np.sum(size[:, 0] * size[:, 1]) == pytest.approx((G1[-1] - G1[0]) * (G2[-1] - G2[0]))

    assert mesh.supports().shape == (len(els), (p1 + 1) * (p2 + 1))
    for e in range(len(els)):
        C, R = mesh.element_extraction(e)
        assert C.shape == ((p1 + 1) * (p2 + 1),) * 2
        assert np.allclose(C @ R, np.eye(C.shape[0]), atol=1e-9)
        # partition of unity: blending functions sum to one elementwise
        assert np.allclose(C.sum(axis=0), 1.0, atol=1e-10)


def test_extraction_matches_scipy_blending_functions(fixtures_dir):
    """Every blending function, evaluated through the extraction rows,
    equals the tensor B-spline built from its own local knot vectors."""
    from bezproj.bernstein import bernstein_matrix

    mesh = _load(fixtures_dir, "tmesh_ext_right")
    p1, p2 = mesh.degrees
    for e, ((a1, b1), (a2, b2)) in enumerate(mesh.bounds().tolist()):
        xs = a1 + (b1 - a1) * np.array([0.21, 0.57, 0.83])
        ys = a2 + (b2 - a2) * np.array([0.13, 0.49, 0.91])
        C, _ = mesh.element_extraction(e)
        D1 = bernstein_matrix(p1, 2 * (xs - a1) / (b1 - a1) - 1)
        D2 = bernstein_matrix(p2, 2 * (ys - a2) / (b2 - a2) - 1)
        for row, k in enumerate(mesh.supports([e])[0]):
            g1, g2 = mesh.local_knot_vectors(k)
            for ix, x in enumerate(xs):
                for iy, y in enumerate(ys):
                    design = np.kron(D2[iy], D1[ix])
                    got = design @ C[row]
                    ref = _blend_eval(g1, g2, x, y)
                    assert got == pytest.approx(ref, abs=1e-10)


def test_tensor_mesh_recovers_tensor_extraction():
    K1 = {2: [0, 0, 0, 0.5, 1.25, 2, 3, 3, 3], 3: [0, 0, 0, 0, 0.5, 1.25, 2, 3, 3, 3, 3]}
    K2 = {2: [0, 0, 0, 1, 2.5, 3, 3, 3], 3: [0, 0, 0, 0, 1, 2.5, 3, 3, 3, 3]}
    for p1, p2 in ((2, 2), (3, 2), (3, 3)):
        kv1, kv2 = KnotVector(K1[p1], p1), KnotVector(K2[p2], p2)
        mesh = TMesh.tensor((p1, p2), [kv1.knots, kv2.knots])
        sp = SplineSpace([kv1, kv2])

        assert mesh.extensions().junction.shape == (0, 2)
        assert mesh.is_analysis_suitable()
        assert (mesh.n_funcs, mesh.n_elements) == (sp.n_funcs, sp.n_elements)
        # both order elements with the first direction fastest
        assert np.array_equal(mesh.bounds(), sp.bounds())
        # an anchor's tensor index is its rank among the anchor centers
        # per direction, the first direction fastest
        centers = mesh.anchors().sum(axis=2) / 2
        rank = [np.unique(c, return_inverse=True)[1] for c in centers.T]
        tensor_id = rank[0] + kv1.n * rank[1]
        assert np.array_equal(tensor_id[mesh.supports()], sp.supports())
        pairs = ((mesh.extraction(), sp.extraction()), (mesh.reconstruction(), sp.reconstruction()))
        for got, ref in pairs:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tensor_mesh_local_knots_match_slices():
    kv1 = KnotVector([0, 0, 0, 1, 2, 3, 3, 3], 2)
    kv2 = KnotVector([0, 0, 0, 2, 4, 4, 4], 2)
    mesh = TMesh.tensor((2, 2), [kv1.knots, kv2.knots])
    sp = SplineSpace([kv1, kv2])
    seen = set()
    for k in range(mesh.n_funcs):
        g1, g2 = mesh.local_knot_vectors(k)
        hits = [
            (i, j)
            for i in range(kv1.n)
            for j in range(kv2.n)
            if np.allclose(kv1.knots[i : i + 4], g1)
            and np.allclose(kv2.knots[j : j + 4], g2)
            and (i, j) not in seen
        ]
        assert hits, f"anchor {k} matches no tensor function"
        seen.add(hits[0])
    assert len(seen) == sp.n_funcs


def _random_knots(rng, p):
    """An open knot vector of degree p on a span from 1e-6 to 1e6, with
    one to five interior breakpoints of multiplicity 1..p."""
    span = 10.0 ** rng.uniform(-6, 6)
    lo = span * rng.uniform(-1, 1)
    interior = np.sort(rng.uniform(0, 1, size=rng.integers(1, 6)))
    knots = np.repeat(interior, rng.integers(1, p + 1, size=interior.size))
    return lo + span * np.r_[[0.0] * (p + 1), knots, [1.0] * (p + 1)]


def _assert_matches_tensor_space(degrees, knots):
    mesh = TMesh.tensor(degrees, knots)
    sp = SplineSpace([KnotVector(G, p) for G, p in zip(knots, degrees)])
    for G, kv in zip(mesh.knot_vectors, sp.knot_vectors):
        assert np.array_equal(G, kv.knots)
    assert (mesh.n_funcs, mesh.n_elements) == (sp.n_funcs, sp.n_elements)
    # anchors and elements run in the tensor order, the first direction fastest
    for read in ("bounds", "supports", "extraction", "reconstruction"):
        assert np.array_equal(getattr(mesh, read)(), getattr(sp, read)()), read


def test_tensor_mesh_matches_its_spline_space_bit_for_bit():
    """TMesh.tensor decides "the same knot" per direction, as KnotVector
    does: on x knots 1e-7 apart and y knots 5e5 apart, a tolerance taken
    from the wider direction dropped the x element [0, 1e-7]."""
    _assert_matches_tensor_space(
        (2, 2), [[0, 0, 0, 1e-7, 1, 1, 1], [0, 0, 0, 5e5, 1e6, 1e6, 1e6]]
    )
    rng = np.random.default_rng(23)
    for _ in range(200):
        degrees = tuple(int(p) for p in rng.integers(1, 5, size=2))
        _assert_matches_tensor_space(degrees, [_random_knots(rng, p) for p in degrees])


def test_knots_within_the_snapping_tolerance_are_one_knot(fixtures_dir):
    """A global knot within 1e-12 of its direction's span of the knot
    before it is that knot: the mesh is the one with the two knots equal."""
    mesh = _load(fixtures_dir, "tmesh_d")
    d = tmesh_to_dict(mesh)
    G = mesh.knot_vectors[1]
    near, equal = G.copy(), G.copy()
    near[8] = G[7] + 0.5e-12 * (G[-1] - G[0])
    equal[8] = G[7]
    a, b = (TMesh(d["degrees"], [d["knot_vectors"][0], y], d["vertices"], d["edges"])
            for y in (near, equal))
    assert a.n_elements == mesh.n_elements - 4
    assert np.array_equal(a.knot_vectors[1], b.knot_vectors[1])
    for read in ("bounds", "supports", "extraction", "reconstruction"):
        assert np.array_equal(getattr(a, read)(), getattr(b, read)()), read


# ------------------------------------------------------- nesting, I/O


def test_fixture_nested_in_tensor_mesh(fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_ext_right")
    full = TMesh.tensor(mesh.degrees, mesh.knot_vectors)
    assert mesh.is_nested(full)
    assert not full.is_nested(mesh)
    other = _load(fixtures_dir, "tmesh_b")
    with pytest.raises(ValueError):
        mesh.is_nested(other)


@pytest.mark.parametrize("scale, apart", [(1e-9, 0.5e-9), (1e9, 1e4)])
def test_is_nested_compares_knots_within_the_span_tolerance(scale, apart):
    """Global knots differ when more than 1e-12 of the knot span apart, at
    any scale: np.allclose took these knots for equal, by its absolute
    tolerance 1e-8 at scale 1e-9 and its relative 1e-5 at 1e9."""
    G = np.array([0, 0, 0, 1, 2, 3, 3, 3]) * scale
    mesh = TMesh.tensor((2, 2), [G, G])
    H = G.copy()
    H[3] += apart
    with pytest.raises(ValueError, match="different global knot vectors"):
        TMesh.tensor((2, 2), [H, G]).is_nested(mesh)
    H[3] = G[3] + 1e-13 * scale
    assert TMesh.tensor((2, 2), [H, G]).is_nested(mesh)


def test_is_nested_compares_each_direction_on_its_own_span():
    """An x knot moved by 1e-7 of the x span is another knot, however wide
    the y span is."""
    Gx, Gy = np.array([0, 0, 0, 0.5, 1, 1, 1]), np.array([0, 0, 0, 5e5, 1e6, 1e6, 1e6])
    mesh = TMesh.tensor((2, 2), [Gx, Gy])
    moved = Gx.copy()
    moved[3] += 1e-7
    with pytest.raises(ValueError, match="different global knot vectors"):
        TMesh.tensor((2, 2), [moved, Gy]).is_nested(mesh)


def test_tmesh_json_roundtrip(tmp_path, fixtures_dir):
    mesh = _load(fixtures_dir, "tmesh_a")
    d = tmesh_to_dict(mesh)
    path = tmp_path / "mesh.json"
    write_tmesh_json(path, mesh)
    back = read_tmesh_json(path)
    assert back.degrees == mesh.degrees
    assert tmesh_to_dict(back) == d
    assert _t_junctions(back) == _t_junctions(mesh)
    assert json.loads(path.read_text())["degrees"] == list(d["degrees"])


def _tensor_lists(N1, N2):
    """Vertices and unit edges of the full tensor mesh on N1 x N2 indices."""
    vertices = [(i, j) for i in range(1, N1 + 1) for j in range(1, N2 + 1)]
    edges = [(i, j, i, j + 1) for i in range(1, N1 + 1) for j in range(1, N2)]
    edges += [(i, j, i + 1, j) for j in range(1, N2 + 1) for i in range(1, N1)]
    return vertices, edges


def _frame(N, inner_vertices, inner_edges, bottom_cuts=(), right_cuts=()):
    """Boundary of [1, N]^2, its sides split at the given cuts, plus more."""
    xs = sorted({1, N, *bottom_cuts})
    ys = sorted({1, N, *right_cuts})
    vertices = {(1, 1), (1, N), (N, N), *((x, 1) for x in xs), *((N, y) for y in ys)}
    edges = [(a, 1, b, 1) for a, b in zip(xs, xs[1:])]
    edges += [(N, a, N, b) for a, b in zip(ys, ys[1:])]
    edges += [(1, 1, 1, N), (1, N, N, N)]
    return sorted(vertices | set(inner_vertices)), edges + list(inner_edges)


G7 = [0, 0, 0, 1, 2, 2, 2]
G14 = [0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7]


def _single_fault_meshes():
    """(message, vertices, edges) of bidegree-2 meshes on G7 x G7, one
    fault each."""
    V, E = _tensor_lists(7, 7)
    inside = [e for e in E if e not in ((4, 2, 4, 3), (4, 3, 4, 4))] + [(4, 2, 4, 4)]
    crossing = [
        e for e in E if (e[0], e[1]) != (4, 4) and (e[2], e[3]) != (4, 4)
    ] + [(4, 3, 4, 5), (3, 4, 5, 4)]
    frame_v, frame_e = _frame(7, [(3, 3)], [(3, 1, 3, 3)], bottom_cuts=[3])
    l_v, l_e = _frame(
        7, [(4, 4)], [(4, 1, 4, 4), (4, 4, 7, 4)], bottom_cuts=[4], right_cuts=[4]
    )
    return [
        ("vertex (9, 1) outside the index domain", [(1, 1), (9, 1)], []),
        ("edge (1,1)-(1,2) endpoint is not a vertex", [(1, 1)], [(1, 1, 1, 2)]),
        (
            "edge (1,1)-(2,2) must be axis-aligned with nonzero length",
            [(1, 1), (2, 2)],
            [(1, 1, 2, 2)],
        ),
        ("vertex (4,3) lies inside an edge; split edges at vertices", V, inside),
        ("overlapping vertical edges at index 4", V, E + [(4, 2, 4, 3)]),
        ("overlapping horizontal edges at index 5", V, E + [(2, 5, 3, 5)]),
        (
            "edges cross at (4,4) without a vertex; split them there",
            [v for v in V if v != (4, 4)],
            crossing,
        ),
        ("index-domain boundary is not fully covered by edges", [], []),
        ("vertex (3, 3) is dangling (degree 1)", frame_v, frame_e),
        ("mesh cells do not form a rectangular partition", l_v, l_e),
    ]


_FAULT_IDS = [
    "outside", "endpoint", "diagonal", "inside", "overlap-vertical", "overlap-horizontal",
    "crossing", "boundary", "dangling", "not-rectangles",
]


@pytest.mark.parametrize("message, vertices, edges", _single_fault_meshes(), ids=_FAULT_IDS)
def test_tmesh_validation_names_each_fault(message, vertices, edges):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        TMesh((2, 2), [G7, G7], vertices, edges)


def test_tmesh_query_errors(fixtures_dir):
    with pytest.raises(ValueError, match="^mesh is not analysis-suitable$"):
        _load(fixtures_dir, "tmesh_a").bezier_elements()
    # one vertical line: the vertex (7, 7) sees only the boundary to its left
    vertices, edges = _frame(
        14,
        [(7, 7), (7, 14)],
        [(7, 1, 7, 7), (7, 7, 7, 14)],
        bottom_cuts=[7],
    )
    edges = [e for e in edges if e != (1, 14, 14, 14)] + [(1, 14, 7, 14), (7, 14, 14, 14)]
    mesh = TMesh((3, 3), [G14, G14], vertices, edges)
    assert mesh.anchors().tolist() == [[[7, 7], [7, 7]]]
    message = (
        r"^anchor 0 \(vertex x=\[7, 7\] y=\[7, 7\]\) "
        r"finds too few crossed entities in direction 0$"
    )
    for read in (lambda: mesh.local_knot_vectors(0), mesh.bezier_elements):
        with pytest.raises(ValueError, match=message):
            read()


@pytest.mark.parametrize(
    "k, message",
    [(43, "anchor 43 outside 0..42"), (-1, "anchor -1 outside 0..42"),
     (True, "anchor ids must be integers, got bool"), (1.0, "anchor ids must be integers")],
    ids=["past the end", "negative", "bool", "float"],
)
def test_anchor_positions_must_be_integers_in_range(fixtures_dir, k, message):
    mesh = _load(fixtures_dir, "tmesh_d")
    for read in (mesh.local_knot_indices, mesh.local_knot_vectors):
        with pytest.raises(IndexError, match=f"^{message}"):
            read(k)


def test_tmesh_validation():
    kv = [0, 0, 0, 1, 2, 2, 2]
    with pytest.raises(ValueError, match="degrees must be >= 1"):
        TMesh((0, 2), [kv, kv], [(1, 1)], [])
    with pytest.raises(ValueError, match="^global knot vector 0: knots must be finite$"):
        TMesh.tensor((2, 2), [[0, 0, 0, np.nan, 2, 2, 2], kv])


@pytest.mark.parametrize(
    "knots, message",
    [
        ([0, 0, 0, 0, 0.5, 1, 1, 1], "boundary knot multiplicity exceeds degree + 1"),
        ([1, 1, 1, 1, 1, 1], "knot vector spans an empty domain"),
    ],
    ids=["end knot repeated p + 2 times", "all knots equal"],
)
@pytest.mark.parametrize("d", [0, 1])
def test_tmesh_refuses_knots_that_a_knot_vector_refuses(knots, message, d):
    """Accepted before: the first gave an anchor with local knots
    [0, 0, 0, 0], the zero function, and the second no elements."""
    G = [[0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]]
    G[d] = knots
    with pytest.raises(ValueError) as mesh:
        TMesh.tensor((2, 2), G)
    assert str(mesh.value) == f"global knot vector {d}: {message}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        KnotVector(knots, 2)


def _faulty_knots(rng, p):
    """_random_knots with at most one fault of KnotVector's rules, or an
    interior knot repeated p + 1 or p + 2 times."""
    G = _random_knots(rng, p)
    a, b = G[0], G[-1]
    i = int(rng.integers(p + 1, G.size - p - 1))  # an interior knot
    fault = rng.integers(10)
    if fault == 1:
        G[rng.integers(G.size)] = rng.choice([np.nan, np.inf, -np.inf])
    elif fault == 2:
        G = G[: rng.integers(1, 2 * (p + 1))]
    elif fault == 3:
        G[[i, i + 1]] = G[[i + 1, i]]
    elif fault == 4:
        G = G[1:] if rng.integers(2) else G[:-1]
    elif fault == 5:
        G = np.r_[a, G] if rng.integers(2) else np.r_[G, b]
    elif fault == 6:
        G = np.sort(np.r_[G[G != G[i]], np.repeat(G[i], p + 1 + rng.integers(2))])
    elif fault == 7:
        G = np.full(G.size, a)
    elif fault == 8:
        # a copy of an interior knot within the snapping tolerance
        G = np.insert(G, i + 1, G[i] + 0.5e-12 * (b - a))
    return G


def test_tmesh_refuses_exactly_what_a_knot_vector_refuses():
    """TMesh.tensor and KnotVector check knots by the same rules and
    report the same fault, the mesh naming the direction. The one
    difference: a T-mesh interior knot may repeat p + 1 times."""
    rng = np.random.default_rng(26)
    seen = set()
    for _ in range(600):
        p, d = int(rng.integers(1, 5)), int(rng.integers(2))
        G, ok = _faulty_knots(rng, p), [0.0] * (p + 1) + [1.0] * (p + 1)
        try:
            KnotVector(G, p)
            want = None
        except ValueError as exc:
            want = str(exc)
        seen.add(want and re.sub(r"\d+", "#", want))
        if want == f"interior knot multiplicity exceeds degree {p}":
            pos, _ = positions_ref(G.tolist(), G[-1] - G[0])
            most = np.bincount(pos)[1:-1].max()
            want = None if most == p + 1 else f"interior knot multiplicity exceeds {p + 1}"
            seen.add(f"interior knot repeated {'p + 1' if most == p + 1 else 'more'} times")
        try:
            TMesh.tensor((p, p), [G, ok] if d == 0 else [ok, G])
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == (want and f"global knot vector {d}: {want}"), (p, G.tolist())
    # no fault, each of the eight rules broken, and both interior cases
    assert len(seen) == 10, seen


@pytest.mark.parametrize(
    "degrees, knot_vectors, vertices, edges, message",
    [
        ((2, 2), [G7, G7], [(1.5, 1)], [], r"vertex \(1\.5, 1\) must be two integers"),
        ((2, 2), [G7, G7], [(1, 1, 1)], [], r"vertex \(1, 1, 1\) must be two integers"),
        ((2, 2), [G7, G7], [(1, 1)], [(1, 1, 1)], "must be two vertices or four integers"),
        ((2, 2), [G7, G7], [(1, 1)], [((1, 1), (1, 2.5))], "must be two vertices or four"),
        ((2, 2, 2), [G7, G7], [], [], "expected two degrees"),
        ((2, 2), [G7, G7, G7], [], [], "expected two knot vectors"),
    ],
    ids=["fractional vertex", "long vertex", "short edge", "fractional edge", "degrees", "knots"],
)
def test_tmesh_input_names_the_bad_field(degrees, knot_vectors, vertices, edges, message):
    with pytest.raises(ValueError, match=message):
        TMesh(degrees, knot_vectors, vertices, edges)


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([(1, 1), (True, True)], [], r"vertex \(True, True\) must be two integers"),
        ([(1, 1), (1, 2)], [(1, 1, 1, True)], r"edge \(1, 1, 1, True\) must be two vertices"),
        ([(1, 1), (1, 2)], [((1, 1), (True, 2))], r"edge \(\(1, 1\), \(True, 2\)\) must be two"),
    ],
    ids=["vertex", "edge", "edge as two vertices"],
)
def test_tmesh_rejects_boolean_indices(vertices, edges, message):
    """JSON true is not the index 1."""
    with pytest.raises(ValueError, match=message):
        TMesh((2, 2), [G7, G7], vertices, edges)


def test_read_tmesh_json_rejects_boolean_vertex(fixtures_dir):
    with open(os.path.join(fixtures_dir, "tmesh_d.json")) as fh:
        data = json.load(fh)
    data["vertices"][3] = [True, True]
    with pytest.raises(ValueError, match=r"^vertex \[True, True\] must be two integers$"):
        read_tmesh_json(data)


def test_read_tmesh_json_rejects_fractional_vertex(fixtures_dir):
    with open(os.path.join(fixtures_dir, "tmesh_a.json")) as fh:
        data = json.load(fh)
    data["vertices"][5] = [data["vertices"][5][0] + 0.5, data["vertices"][5][1]]
    with pytest.raises(ValueError, match="must be two integers"):
        read_tmesh_json(data)


def _set(path, value):
    """Change the entry at path (keys and indices) of JSON data."""

    def change(data):
        *head, last = path
        for k in head:
            data = data[k]
        data[last] = value

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (_set(["degrees"], [3.5, 3]), "degrees must be integers, got 3.5"),
        (_set(["knot_vectors", 0, 4], None), 'knot_vectors must hold numbers or "n/d" strings'),
        (_set(["knot_vectors", 1], 5), "knot_vectors must be a 1-D array of numbers"),
        (_set(["knot_vectors", 0, 4], "abc"), 'knot_vectors must hold numbers or "n/d" strings'),
        (_set(["knot_vectors", 1], None), "knot_vectors must be a 1-D array of numbers"),
    ],
    ids=["fractional degree", "null knot", "scalar knot vector", "text knot", "null knot vector"],
)
def test_read_tmesh_json_names_the_bad_field(fixtures_dir, change, message):
    with open(os.path.join(fixtures_dir, "tmesh_d.json")) as fh:
        data = json.load(fh)
    change(data)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_tmesh_json(data)


# ------------------------------------------------------- transpose symmetry


def _transposed(mesh):
    """The same mesh with the two parametric directions swapped."""
    data = tmesh_to_dict(mesh)
    return TMesh(
        mesh.degrees[::-1],
        mesh.knot_vectors[::-1],
        [(j, i) for i, j in data["vertices"]],
        [(y1, x1, y2, x2) for x1, y1, x2, y2 in data["edges"]],
    )


_SWAP_KIND = {"vertex": "vertex", "cell": "cell", "vedge": "hedge", "hedge": "vedge"}


def _keys(boxes):
    """Hashable keys of (n, 2, 2) index spans or boxes."""
    return [tuple(map(tuple, b)) for b in boxes.tolist()]


def _extension_set(mesh, swap=False):
    """{(junction, direction, face, edge)} of a mesh, with the two
    directions swapped if asked; the ends of a segment keep their order."""
    ext = mesh.extensions()
    flip = slice(None, None, -1 if swap else 1)
    return set(
        zip(
            map(tuple, ext.junction[:, flip].tolist()),
            (1 - ext.direction if swap else ext.direction).tolist(),
            _keys(ext.face[:, :, flip]),
            _keys(ext.edge[:, :, flip]),
        )
    )


def _transpose_meshes(fixtures_dir):
    names = ["tmesh_a", "tmesh_b", "tmesh_c", "tmesh_d", "tmesh_ext_left", "tmesh_ext_right"]
    meshes = [_load(fixtures_dir, n) for n in names]
    meshes.append(TMesh.tensor((2, 3), [[0, 0, 0, 1, 2, 3, 3, 3], G14]))
    meshes.append(TMesh.tensor((3, 1), [[0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0.5, 1, 1]]))
    return meshes


def test_transpose_symmetry(fixtures_dir):
    for mesh in _transpose_meshes(fixtures_dir):
        tr = _transposed(mesh)
        assert tr.anchor_kind == _SWAP_KIND[mesh.anchor_kind]
        anchors = _keys(mesh.anchors()[:, ::-1])
        assert set(anchors) == set(_keys(tr.anchors()))
        assert _extension_set(mesh, swap=True) == _extension_set(tr)
        assert mesh.is_analysis_suitable() == tr.is_analysis_suitable()
        if not mesh.is_analysis_suitable():
            continue
        p1, p2 = mesh.degrees
        tr_pos = {a: k for k, a in enumerate(_keys(tr.anchors()))}
        tr_els = {b: e for e, b in enumerate(_keys(tr.bezier_elements()[:, ::-1]))}
        assert len(tr_els) == mesh.n_elements
        for e, box in enumerate(_keys(mesh.bezier_elements())):
            te = tr_els[box]
            tr_support = tr.supports([te])[0].tolist()
            rows = [tr_support.index(tr_pos[anchors[k]]) for k in mesh.supports([e])[0]]
            C, _ = mesh.element_extraction(e)
            Ct, _ = tr.element_extraction(te)
            # column b2 (p1 + 1) + b1 of C is column b1 (p2 + 1) + b2 of Ct
            swapped = C.reshape(-1, p2 + 1, p1 + 1).transpose(0, 2, 1).reshape(C.shape)
            assert np.allclose(Ct[rows], swapped, rtol=0, atol=1e-14)


# ------------------------------------------------------- fixture generator


def _generator(fixtures_dir):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(fixtures_dir, "make_fixtures.py")
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_fixture_generator_reproduces_committed_files(fixtures_dir):
    gen = _generator(fixtures_dir)
    left, right = gen.extensions_pair()
    built = {
        "tmesh_a": gen.case_a(),
        "tmesh_b": gen.case_b(),
        "tmesh_c": gen.case_c(),
        "tmesh_d": gen.case_d(),
        "tmesh_ext_left": left,
        "tmesh_ext_right": right,
    }
    for name, mesh in built.items():
        with open(os.path.join(fixtures_dir, name + ".json")) as fh:
            committed = json.load(fh)
        assert json.loads(json.dumps(tmesh_to_dict(mesh))) == committed, name


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("p", [2, 3])
def test_half_refined_family_is_suitable_and_invertible(fixtures_dir, p, n):
    mesh = _generator(fixtures_dir).half_refined(p, n)
    assert mesh.is_analysis_suitable()
    # n // 2 stopped lines, each with one T-junction on the middle line
    assert len(mesh.extensions().junction) == n // 2
    assert mesh.n_elements > n * n * 3 // 4
    I = np.eye((p + 1) ** 2)
    for e in range(mesh.n_elements):
        C, R = mesh.element_extraction(e)
        assert np.max(np.abs(C @ R - I)) <= 1e-10


def _reference_meshes(fixtures_dir):
    """The six fixtures and their transposes, tensor meshes of degree 1 to
    4 in each direction, and half-refined meshes with p = 2, 3 and n = 8,
    16, 32 and their transposes."""
    names = ["tmesh_a", "tmesh_b", "tmesh_c", "tmesh_d", "tmesh_ext_left", "tmesh_ext_right"]
    for name in names:
        mesh = _load(fixtures_dir, name)
        yield mesh
        yield _transposed(mesh)
    for p1 in range(1, 5):
        for p2 in range(1, 5):
            G1 = [0] * (p1 + 1) + [1, 2, 2, 3] + [4] * (p1 + 1)
            G2 = [0] * (p2 + 1) + [0.5, 1, 3] + [4] * (p2 + 1)
            yield TMesh.tensor((p1, p2), [G1, G2])
    for p in (2, 3):
        for n in (8, 16, 32):
            mesh = _generator(fixtures_dir).half_refined(p, n)
            yield mesh
            yield _transposed(mesh)


_N_REFERENCE_MESHES = 12 + 16 + 12


def test_knot_table_matches_per_anchor_reference(fixtures_dir):
    """The array pass that builds every anchor's local knot indices gives
    what sweeping the covering entities one anchor at a time gives."""
    count = 0
    for mesh in _reference_meshes(fixtures_dir):
        skeleton = _skeleton_ref(mesh)
        ref = [local_knot_indices_ref(mesh, s, skeleton) for s in mesh.anchors().tolist()]
        index, short = mesh._knot_table
        assert not short.any()
        for d, p in enumerate(mesh.degrees):
            assert index[d].shape == (len(ref), p + 2)
            assert index[d].tolist() == [r[d] for r in ref]
        for k, r in enumerate(ref):
            assert tuple(i.tolist() for i in mesh.local_knot_indices(k)) == r
        count += 1
    assert count == _N_REFERENCE_MESHES


def _boundary_walk_meshes():
    """A quintic mesh whose four extension segments all cross fewer
    entities than their counts and stop at the domain boundary, and its
    transpose."""
    G = [0] * 6 + [1, 2] + [3] * 6
    vertices = [(x, y) for x in (1, 4, 11, 14) for y in (1, 14)]
    vertices += [(1, 7), (4, 7), (11, 8), (14, 8)]
    edges = [(a, y, b, y) for y in (1, 14) for a, b in ((1, 4), (4, 11), (11, 14))]
    edges += [(1, 1, 1, 7), (1, 7, 1, 14), (14, 1, 14, 8), (14, 8, 14, 14)]
    edges += [(4, 1, 4, 7), (4, 7, 4, 14), (11, 1, 11, 8), (11, 8, 11, 14)]
    edges += [(1, 7, 4, 7), (11, 8, 14, 8)]  # T-junctions at (4, 7) and (11, 8)
    mesh = TMesh((5, 5), [G, G], vertices, edges)
    return [mesh, _transposed(mesh)]


def test_extension_arrays_match_the_walk_reference(fixtures_dir):
    """The extension arrays and the analysis-suitability pairs equal, in
    order, what walking from one T-junction at a time and testing every
    vertical against every horizontal extension gives."""
    count = violating = 0
    for mesh in [*_reference_meshes(fixtures_dir), *_boundary_walk_meshes()]:
        ext, ref = mesh.extensions(), extensions_ref(mesh)
        assert ext.junction.tolist() == [list(r[0]) for r in ref]
        assert ext.direction.tolist() == [r[1] for r in ref]
        assert ext.face.tolist() == [[list(q) for q in r[2]] for r in ref]
        assert ext.edge.tolist() == [[list(q) for q in r[3]] for r in ref]
        bad = mesh.analysis_violations()
        assert bad.shape[1:] == (2,) and bad.dtype == np.int64
        assert bad.tolist() == [list(r) for r in analysis_violations_ref(mesh)]
        violating += len(bad) > 0
        count += 1
    # tmesh_a, tmesh_b and tmesh_ext_left, and their transposes
    assert (count, violating) == (_N_REFERENCE_MESHES + 2, 6)
