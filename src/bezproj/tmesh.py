"""Two-dimensional T-meshes: anchors, extensions, and element extraction.

A T-mesh lives in the integer index domain [1, N1] x [1, N2] of a pair
of global knot vectors (N_d knots in direction d). Vertices sit on
integer coordinates; edges are axis-aligned segments between vertices,
listed pre-split (no vertex in an edge interior, no unsplit crossings).
Cells are the rectangles of the induced partition. The mesh is held,
and answers every query, as arrays.

Anchors are the mesh entities carrying basis functions: `anchors()`
gives their (n, 2, 2) index spans and `anchor_kind` their one kind,
which follows the degree parities (odd: vertices along that direction,
even: cells/edge spans). Each anchor, named by its position, owns one
local knot vector per direction, collected by sweeping a line through
the anchor and keeping the nearest entities that fully cross the
anchor's perpendicular extent.

T-junction extensions (`extensions()`) classify the mesh: if no
vertical extension touches a horizontal one (endpoint contact counts as
touching), the mesh is analysis-suitable, its functions are locally
linearly independent, and every Bezier element (cell of the mesh plus
the face extensions; `bezier_elements()` gives their index boxes)
supports exactly (p1+1)(p2+1) functions, which makes the element
extraction operators square and invertible.

Every rule reads the same in both parametric directions, so each query
takes a direction d (0: x, 1: y). The edges of direction d sit at one
index c in direction d and span [lo, hi] in the other: d = 0 holds the
vertical edges (x, y1, y2), d = 1 the horizontal ones (y, x1, x2). A
walk along direction d crosses the edges of direction d; an extension
walking along it adds an edge of direction 1 - d.

All index geometry is exact integer arithmetic; parametric values enter
only when mapping elements and local knot vectors through the global
knot vectors.
"""

import json
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bernstein import _dual_functionals
from .spline_space import (
    _SNAP_TOL,
    _bezier_extraction,
    _element_ids,
    _holds_bool,
    _integer,
    _list_fields,
    _number_array,
    _open_knots,
    _positions,
    _read_json,
)
from .tensor import _unit_segments

__all__ = [
    "TMesh",
    "read_tmesh_json",
    "write_tmesh_json",
    "tmesh_to_dict",
]

# the kind of anchor by the parities of the two degrees
_ANCHOR_KINDS = (("cell", "hedge"), ("vedge", "vertex"))


class TMesh:
    def __init__(self, degrees, knot_vectors, vertices, edges):
        for name, given in (("degrees", degrees), ("knot vectors", knot_vectors)):
            if len(given) != 2:
                raise ValueError(f"expected two {name}, got {len(given)}")
        self.degrees = tuple(_integer(p, "degrees") for p in degrees)
        if min(self.degrees) < 1:
            raise ValueError("degrees must be >= 1")
        self.anchor_kind = _ANCHOR_KINDS[self.degrees[0] % 2][self.degrees[1] % 2]
        self.knot_vectors = tuple(_number_array(G, "knot_vectors", 1) for G in knot_vectors)
        for d, (G, p) in enumerate(zip(self.knot_vectors, self.degrees)):
            # KnotVector's rules, but an interior knot may repeat p + 1 times; G
            # is snapped in place, so that every later comparison of knots is exact
            try:
                _open_knots(G, p, _SNAP_TOL, interior=p + 1)
            except ValueError as exc:
                raise ValueError(f"global knot vector {d}: {exc}") from None
        self.N = tuple(G.size for G in self.knot_vectors)

        N = np.array(self.N)
        V, bad = _index_rows(vertices, 2, "vertex", "two integers")
        out = np.flatnonzero(((V < 1) | (V > N)).any(axis=1))
        if out.size:
            i, j = V[out[0]].tolist()
            raise ValueError(f"vertex ({i}, {j}) outside the index domain")
        if bad:
            raise ValueError(bad)
        self._vertex = np.zeros(N + 2, dtype=bool)
        self._vertex[tuple(V.T)] = True

        E, bad = _index_rows(edges, 4, "edge", "two vertices or four integers")
        ends = np.clip(E.reshape(-1, 2, 2), 0, N + 1)  # an end outside lands off every vertex
        not_vertex = ~self._vertex[ends[:, :, 0], ends[:, :, 1]].all(axis=1)
        i1, j1, i2, j2 = E.T
        vertical, horizontal = (i1 == i2) & (j1 != j2), (j1 == j2) & (i1 != i2)
        fault = np.flatnonzero(not_vertex | ~(vertical | horizontal))
        if fault.size:
            f = fault[0]
            what = "endpoint is not a vertex" if not_vertex[f] else (
                "must be axis-aligned with nonzero length"
            )
            raise ValueError("edge ({},{})-({},{}) ".format(*E[f].tolist()) + what)
        if bad:
            raise ValueError(bad)
        # per direction d: (c, lo, hi) rows, in input order
        self._edges = tuple(
            np.stack([c[m], np.minimum(a, b)[m], np.maximum(a, b)[m]], axis=1)
            for c, a, b, m in ((i1, j1, j2, vertical), (j1, i1, i2, horizontal))
        )

        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self):
        """Check the edges and build the wall grid and the cells.

        Grids are indexed [x, y] over 0..N_d + 1: _wall[0][x, y] marks a
        vertical edge over [y, y + 1] at x and _wall[1][x, y] a horizontal
        one over [x, x + 1] at y. Each check runs on the unit segments of
        all edges of one direction at once.
        """
        vertex = self._vertex
        shape = vertex.shape
        cover = np.zeros((2,) + shape, dtype=np.int64)
        interior = np.zeros((2,) + shape, dtype=bool)
        # ends[a, k][x, y]: an edge leaves vertex (x, y) along direction a,
        # forwards for k = 0 and backwards for k = 1
        ends = np.zeros((2, 2) + shape, dtype=bool)
        for d, word in enumerate(("vertical", "horizontal")):
            c, lo, hi = self._edges[d].T
            edge, t = _unit_segments(lo, hi)
            ct = (c[edge], t)  # the unit segments [t, t + 1] of every edge
            start = t > lo[edge]  # segments that start at an interior point
            inner = (ct[0][start], t[start])
            hit = np.flatnonzero(vertex[_xy(d, *inner)])
            if hit.size:
                x, y = _xy(d, int(inner[0][hit[0]]), int(inner[1][hit[0]]))
                raise ValueError(f"vertex ({x},{y}) lies inside an edge; split edges at vertices")
            interior[d][_xy(d, *inner)] = True
            np.add.at(cover[d], _xy(d, *ct), 1)
            over = np.flatnonzero(cover[d][_xy(d, *ct)] > 1)
            if over.size:
                raise ValueError(f"overlapping {word} edges at index {ct[0][over[0]]}")
            for k, end in enumerate((lo, hi)):
                ends[1 - d, k][_xy(d, c, end)] = True
        # an edge interior holds no vertex, so two interiors meet only at a crossing
        cross = np.argwhere(interior[0] & interior[1])
        if cross.size:
            x, y = cross[0]
            raise ValueError(f"edges cross at ({x},{y}) without a vertex; split them there")
        self._wall = cover > 0
        self._ends = ends
        for d, w in enumerate(_by_direction(self._wall)):
            n = self.N[1 - d]
            if not (w[1, 1:n].all() and w[self.N[d], 1:n].all()):
                raise ValueError("index-domain boundary is not fully covered by edges")
        degree = ends.sum(axis=(0, 1))
        dangling = np.argwhere(vertex & (degree < 2))
        if dangling.size:
            i, j = (int(k) for k in dangling[0])
            raise ValueError(f"vertex {(i, j)} is dangling (degree {degree[i, j]})")
        # the (i1, i2, j1, j2) rectangles of the partition
        self._cells, _ = _rectangles(self._wall, "mesh cells do not form a rectangular partition")

    def _crossings(self, d, lo, hi, cuts):
        """The entities of direction d that cross the bands [lo, hi] of the
        other direction, counted by prefix sums of the wall grid once per
        distinct band; a point band is also crossed by a vertex on it or
        by an edge ending there.

        Returns the crossed indices of all distinct bands in one array,
        ascending per band, and per entry: the position of its band's
        first one there, how many lie below each of the cuts (index
        arrays, one entry each) and how many there are.
        """
        w = _by_direction(self._wall)[d]  # [c, t]
        _, bands, which = np.unique(lo * w.shape[1] + hi, return_index=True, return_inverse=True)
        lo, hi = lo[bands], hi[bands]
        prefix = np.zeros((w.shape[0], w.shape[1] + 1), dtype=np.int64)
        np.cumsum(w, axis=1, out=prefix[:, 1:])
        point = w[:, lo - 1] | w[:, lo] | (self._vertex, self._vertex.T)[d][:, lo]
        crossed = np.where(lo < hi, prefix[:, hi] - prefix[:, lo] == hi - lo, point).T
        below = np.zeros((len(bands), w.shape[0] + 1), dtype=np.int64)
        np.cumsum(crossed, axis=1, out=below[:, 1:])  # crossed indices below c
        at = np.flatnonzero(crossed.ravel()) % w.shape[0]
        start = np.cumsum(below[:, -1]) - below[:, -1]
        return at, start[which], [below[which, c] for c in cuts], below[which, -1]

    # -- anchors -----------------------------------------------------------

    def anchors(self):
        """Index spans of all anchors, (n, 2, 2) int64 and read-only:
        [anchor, direction, (lo, hi)], ordered by (y centre, x centre).

        Their kind is anchor_kind. An odd direction places anchors on one
        index, an even direction on an interval between two; both keep
        (p + 1) // 2 indices clear of each end of the domain.
        """
        return self._anchor_spans

    @cached_property
    def _anchor_spans(self):
        if self.anchor_kind == "vertex":
            spans = np.repeat(np.argwhere(self._vertex)[:, :, None], 2, axis=2)
        elif self.anchor_kind == "cell":
            spans = self._cells.reshape(-1, 2, 2)
        else:
            d = ("vedge", "hedge").index(self.anchor_kind)
            spans = self._edges[d][:, np.array(_xy(d, [0, 0], [1, 2]))]  # (c, c), (lo, hi)
        h = np.array([(p + 1) // 2 for p in self.degrees])
        clear = (h < spans[:, :, 0]) & (spans[:, :, 1] <= np.array(self.N) - h)
        spans = spans[clear.all(axis=1)]
        twice_center = spans.sum(axis=2)
        spans = spans[np.lexsort((twice_center[:, 0], twice_center[:, 1]))]
        spans.flags.writeable = False
        return spans

    def local_knot_indices(self, k):
        """Index vectors (i1, i2) of anchor k's local knot vectors, its
        read-only rows of the knot table; ValueError if it finds too few
        crossed entities, IndexError unless 0 <= k < n_funcs."""
        index, short = self._knot_table
        (k,) = _element_ids([k], len(short), "anchor")
        if short[k].any():
            x, y = self.anchors()[k].tolist()
            raise ValueError(
                f"anchor {k} ({self.anchor_kind} x={x} y={y}) "
                f"finds too few crossed entities in direction {np.argmax(short[k])}"
            )
        return tuple(i[k] for i in index)

    def local_knot_vectors(self, k):
        """Local knot vectors (g1, g2) of anchor k, length p_d + 2 each."""
        return tuple(G[i - 1] for G, i in zip(self.knot_vectors, self.local_knot_indices(k)))

    @cached_property
    def _knot_table(self):
        """Local knot index vectors of every anchor, one (n_anchors, p + 2)
        array per direction, and the (n_anchors, 2) mask of the anchors
        and directions with too few crossed entities, all read-only; a
        masked anchor's rows are left unspecified.

        Each anchor keeps the nearest ceil((p+1)/2) of the entities
        crossing its band on each side of its centre, and its centre for
        odd p.
        """
        spans, index, short = self.anchors(), [], []
        for d, p in enumerate(self.degrees):
            twice_center = spans[:, d].sum(axis=1)
            cuts = ((twice_center + 1) // 2, twice_center // 2 + 1)
            # crossed below the centre, and at or below it
            at, start, (left, right), total = self._crossings(d, *spans[:, 1 - d].T, cuts)
            need = (p + 2) // 2
            short.append((left < need) | (total - right < need))
            # the nearest `need` on each side start at these positions of `at`
            pick = np.stack([start + left - need, start + right], axis=1)[:, :, None]
            side = at[np.clip(pick + np.arange(need), 0, at.size - 1)]
            centre = [spans[:, d, :1]] if p % 2 else []
            index.append(np.concatenate([side[:, 0], *centre, side[:, 1]], axis=1))
        short = np.stack(short, axis=1)
        for a in (*index, short):
            a.flags.writeable = False
        return index, short

    # -- T-junctions and extensions -----------------------------------------

    def extensions(self):
        """Extensions of every T-junction, by junction (x, y): arrays
        junction (n, 2), direction (n,), face and edge (n, 2, 2).

        A T-junction is an interior vertex with edges leaving it on three
        sides; its extensions run along the direction d of the missing
        side. The face, towards that side, ends at the ceil((p+1)/2)-th
        entity of direction d it crosses and the edge, away from it, at
        the ceil((p-1)/2)-th; either stops at the domain boundary.
        """
        return self._extensions

    @cached_property
    def _extensions(self):
        junction = np.argwhere(self._ends[:, :, 2:-2, 2:-2].sum(axis=(0, 1)) == 3) + 2
        missing = ~self._ends[:, :, junction[:, 0], junction[:, 1]].reshape(4, -1)
        direction, backwards = np.divmod(missing.argmax(axis=0), 2)
        face, edge = (np.zeros((len(junction), 2, 2), dtype=np.int64) for _ in range(2))
        for d in set(direction.tolist()):
            sel, p = direction == d, self.degrees[d]
            c, t = junction[sel, d], junction[sel, 1 - d]
            at, start, (lower, upper), total = self._crossings(d, t, t, (c, c + 1))

            def end(forwards, count):
                """The count-th crossed entity from c, or the last one."""
                n = np.minimum(count, np.where(forwards, total - upper, lower))
                pos = np.where(forwards, start + upper + n - 1, start + lower - n)
                return np.where(n > 0, at[np.clip(pos, 0, at.size - 1)], c)

            towards = backwards[sel] == 0
            for out, e in ((face, end(towards, (p + 1) // 2)), (edge, end(~towards, p // 2))):
                out[sel, :, d] = np.sort(np.stack([c, e], axis=1), axis=1)
                out[sel, :, 1 - d] = t[:, None]
        for a in (junction, direction, face, edge):
            a.flags.writeable = False
        return _Extensions(junction, direction, face, edge)

    def analysis_violations(self):
        """Positions (i, j) into extensions() of every vertical extension i
        and horizontal extension j whose full extents, face and edge
        together, touch (endpoint contact counts): (m, 2), by i, then j."""
        ext = self.extensions()
        ends = np.concatenate([ext.face, ext.edge], axis=1)
        lo, hi = ends.min(axis=1), ends.max(axis=1)  # corners of the full extents
        v, h = np.flatnonzero(ext.direction == 1), np.flatnonzero(ext.direction == 0)
        x, y1, y2 = lo[v, 0, None], lo[v, 1, None], hi[v, 1, None]
        touch = (lo[h, 0] <= x) & (x <= hi[h, 0]) & (y1 <= lo[h, 1]) & (lo[h, 1] <= y2)
        i, j = np.nonzero(touch)
        return np.stack([v[i], h[j]], axis=1)

    def is_analysis_suitable(self):
        return not len(self.analysis_violations())

    # -- Bezier mesh and extraction -----------------------------------------

    def bezier_elements(self):
        """Index boxes [element, direction, (first, last)] of the elements
        of the extended mesh (cells plus face extensions) of nonzero
        parametric area, by (j1, i1); (n, 2, 2), read-only. Requires an
        analysis-suitable mesh."""
        return self._elements.box

    @cached_property
    def _elements(self):
        """The Bezier elements as arrays, and their (element, anchor) pairs."""
        if not self.is_analysis_suitable():
            raise ValueError("mesh is not analysis-suitable")
        ext, wall = self.extensions(), self._wall.copy()
        for d in (0, 1):
            # a face walking along direction d adds edges of direction 1 - d
            face = ext.face[ext.direction == d]
            which, t = _unit_segments(face[:, 0, d], face[:, 1, d])
            _by_direction(wall)[1 - d][face[which, 0, 1 - d], t] = True
        rects, label = _rectangles(wall, "extended mesh is not a rectangular partition")

        # elements: the rectangles of nonzero parametric area, by (j1, i1)
        G = self.knot_vectors
        order = np.lexsort((rects[:, 0], rects[:, 2]))
        box = rects[order].reshape(-1, 2, 2)  # [rectangle, direction, (first, last)]
        bounds = np.stack([G[d][box[:, d] - 1] for d in (0, 1)], axis=1)
        keep = np.all(bounds[:, :, 1] - bounds[:, :, 0] > 0, axis=1)
        element = np.full(len(rects), -1)
        element[order[keep]] = np.arange(keep.sum())
        box, bounds = box[keep], bounds[keep]
        box.flags.writeable = False

        # anchor k covers an element when the support of its local knots
        # holds the element; such an element shares a unit index square
        # with the box between k's first and last local knot indices
        index, short = self._knot_table
        if short.any():  # the ValueError of the first anchor short of crossed entities
            self.local_knot_indices(np.argwhere(short)[0, 0])
        n_anchors = len(index[0])
        lo = np.stack([i[:, 0] for i in index], axis=1)
        size = np.stack([i[:, -1] for i in index], axis=1) - lo
        n_sq = size[:, 0] * size[:, 1]
        k, sq = _unit_segments(np.zeros_like(n_sq), n_sq)
        e = element[label[lo[k, 0] + sq % size[k, 0], lo[k, 1] + sq // size[k, 0]]]
        # each pair once, by element then anchor (np.unique would import numpy.ma)
        pair = np.sort((e * n_anchors + k)[e >= 0])
        e, k = np.divmod(pair[np.diff(pair, prepend=-1) > 0], max(n_anchors, 1))
        support = np.stack([g[i[:, [0, -1]] - 1] for g, i in zip(G, index)], axis=1)[k]
        inside = (support[:, :, 0] <= bounds[e, :, 0]) & (bounds[e, :, 1] <= support[:, :, 1])
        covers = inside.all(axis=1)
        return _Elements(box, bounds, e[covers], k[covers])

    # -- the element interface of SplineSpace --------------------------------

    @property
    def n_funcs(self):
        return len(self.anchors())

    @property
    def n_elements(self):
        return len(self.bezier_elements())

    def bounds(self, ids=None):
        """Parametric bounds of the Bezier elements, (n, 2, 2)."""
        return self._stacks[0][_element_ids(ids, self.n_elements)]

    def supports(self, ids=None):
        """Anchor positions (function ids) supported on each element,
        (n, n_loc), in the mesh-wide anchor order."""
        return self._stacks[1][_element_ids(ids, self.n_elements)]

    def extraction(self, ids=None):
        """Extraction operators C of the elements, (n, n_loc, n_bern)."""
        return self._stacks[2][_element_ids(ids, self.n_elements)]

    def reconstruction(self, ids=None):
        """Reconstruction operators R = C^{-1} from dual functionals, stacked like C."""
        return self._stacks[3][_element_ids(ids, self.n_elements)]

    def element_extraction(self, e):
        """Extraction and reconstruction operators (C, R) of Bezier
        element e, as read-only views of the cached stacks; row k of C is
        the function of anchor supports([e])[0, k]."""
        _, _, C, R = self._stacks
        (e,) = _element_ids([e], self.n_elements)
        return C[e], R[e]

    @cached_property
    def _stacks(self):
        """Bounds, supports, C and R of every Bezier element, read-only;
        ValueError, for every read, unless each element lies in one
        polynomial piece of each function supported on it and supports
        (p1+1)(p2+1) of them, as on an analysis-suitable mesh.

        Per direction, one call of each blossom kernel gives the rows of
        every distinct (anchor, element interval); a row of C is the
        Kronecker product of the anchor's two rows, a column of R that of
        its two dual-functional rows (Beirao da Veiga, Buffa, Cho & Sangalli
        2012).
        """
        els = self._elements
        e, k = els.element, els.anchor
        n = (self.degrees[0] + 1) * (self.degrees[1] + 1)
        rows = []
        for d, (G, p, idx) in enumerate(zip(self.knot_vectors, self.degrees, self._knot_table[0])):
            span, base = els.box[e, d], self.N[d] + 1  # each pair's element interval
            key = (k * base + span[:, 0]) * base + span[:, 1]
            _, first, which = np.unique(key, return_index=True, return_inverse=True)
            g, (a, b) = G[idx[k[first]] - 1], els.bounds[e[first], d].T
            r = _bernstein_rows(g, p, a, b)
            dual = _dual_functionals(g[:, 1 : p + 1], a[:, None], b[:, None])
            rows.append(np.stack([r, dual])[:, which])
        count = np.bincount(e, minlength=len(els.box))
        bad = np.flatnonzero(count != n)
        if bad.size:
            x = bad[0]
            raise ValueError(
                f"element {x} supports {count[x]} functions, expected {n}; mesh is malformed"
            )
        C, R = (rows[1][:, :, :, None] * rows[0][:, :, None, :]).reshape(2, -1, n, n)
        # R in C order, as SplineSpace's, so that products with it round alike
        S, R = k.reshape(-1, n), R.transpose(0, 2, 1).copy()
        for a in (els.bounds, S, C, R):
            a.flags.writeable = False
        return els.bounds, S, C, R

    def is_nested(self, other):
        """True if this mesh is nested in `other`: vertices preserved and
        every edge covered by edges of `other`; ValueError unless degrees
        and global knot vectors agree, knot for knot, by KnotVector's rule
        for the same knot. Nested meshes need not span nested spaces,
        which is not checked.
        """
        if not isinstance(other, TMesh):
            raise TypeError("is_nested expects a TMesh")
        if self.degrees != other.degrees:
            raise ValueError("meshes have different degrees")
        for Ga, Gb in zip(self.knot_vectors, other.knot_vectors):
            if Ga.size != Gb.size or not np.array_equal(*_positions([Ga, Gb])[0]):
                raise ValueError("meshes have different global knot vectors")
        return not ((self._vertex & ~other._vertex).any() or (self._wall & ~other._wall).any())

    @classmethod
    def tensor(cls, degrees, knot_vectors):
        """Full tensor-product mesh on the given global knot vectors."""
        N1, N2 = (len(G) for G in knot_vectors)
        vertices = np.argwhere(np.ones((N1, N2), dtype=bool)) + 1
        i, j = np.mgrid[1 : N1 + 1, 1:N2].reshape(2, -1)  # vertical unit edges, by x
        y, x = np.mgrid[1 : N2 + 1, 1:N1].reshape(2, -1)  # horizontal ones, by y
        edges = np.concatenate([np.stack([i, j, i, j + 1], axis=1), np.stack([x, y, x + 1, y], 1)])
        return cls(degrees, knot_vectors, vertices, edges)


def _xy(d, c, t):
    """The (x, y) pair with c in direction d and t in the other."""
    return (c, t) if d == 0 else (t, c)


def _by_direction(grids):
    """[c, t] views of a stacked (2, N1 + 2, N2 + 2) pair of [x, y] grids."""
    return grids[0], grids[1].T


class _Extensions(NamedTuple):
    """The extensions of every T-junction, by junction (x, y)."""

    junction: np.ndarray  # (n, 2) the junction (x, y)
    direction: np.ndarray  # (n,) the direction d the extensions run along
    face: np.ndarray  # (n, 2, 2) the face's two ends (x, y), ascending along d
    edge: np.ndarray  # (n, 2, 2) the edge's, the same way


class _Elements(NamedTuple):
    """The Bezier elements, by (j1, i1), and their (element, anchor)
    pairs, by element and then anchor."""

    box: np.ndarray  # (n, 2, 2) index bounds [element, direction, (first, last)]
    bounds: np.ndarray  # (n, 2, 2) parametric bounds, the same way
    element: np.ndarray  # the element of each pair
    anchor: np.ndarray  # the anchor of each pair


_INT64_MAX = np.iinfo(np.int64).max


def _index_rows(entries, n, name, expected):
    """Input vertices (n = 2) or edges (n = 4, each possibly as two
    vertices) as an (m, n) int64 array, converted in one call.

    Returns the array and None, or, when some entry is not n integers,
    the rows of the entries before the first such one and its message,
    so that the caller can report an earlier entry's fault first.
    """
    if not isinstance(entries, np.ndarray):
        entries = list(entries)
    try:
        a = np.array(entries)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.shape == (0,):
        return np.zeros((0, n), dtype=np.int64), None
    if (
        a is not None
        and a.dtype.kind == "i"
        and a.shape[1:] in ((n,), (n // 2, 2))
        and not _holds_bool(entries, a.ndim)
    ):
        return a.reshape(-1, n).astype(np.int64), None
    rows = []
    for entry in entries:
        try:
            flat = [x for v in entry for x in v] if n == 4 and len(entry) == 2 else list(entry)
            ints = [int(x) for x in flat]
            if len(ints) == n and ints == flat and not any(isinstance(x, bool) for x in flat):
                # ints beyond int64 lie outside any index domain; they saturate
                rows.append([max(-_INT64_MAX, min(_INT64_MAX, x)) for x in ints])
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        return np.array(rows, dtype=np.int64).reshape(-1, n), f"{name} {entry!r} must be {expected}"
    return np.array(rows, dtype=np.int64).reshape(-1, n), None


def _rectangles(wall, message):
    """The rectangles between walls, and the rectangle of each unit square.

    wall[0][x, y] is a wall between unit squares (x - 1, y) and (x, y),
    wall[1][x, y] one between (x, y - 1) and (x, y); the domain boundary
    is walled. A rectangle starts at each square walled on its left and
    below, and runs to the next wall along its bottom row and along its
    left column. Returns the (n, 4) array of (i1, i2, j1, j2), ordered by
    (i1, j1), and the grid holding the rectangle of square (i, j) at
    [i, j]; raises ValueError(message) unless walls close every rectangle
    and none runs inside one.
    """
    V, H = wall
    N1, N2 = V.shape[0] - 2, V.shape[1] - 2
    x, y = np.arange(N1 + 2)[:, None], np.arange(N2 + 2)
    corner = np.zeros(V.shape, dtype=bool)
    corner[1:N1, 1:N2] = V[1:N1, 1:N2] & H[1:N1, 1:N2]
    i1, j1 = np.nonzero(corner)
    # the first wall at or after each index along each line
    i2 = np.minimum.accumulate(np.where(V, x, N1)[::-1], axis=0)[::-1][i1 + 1, j1]
    j2 = np.minimum.accumulate(np.where(H, y, N2)[:, ::-1], axis=1)[:, ::-1][i1, j1 + 1]

    sums = np.zeros((2, N1 + 3, N2 + 3), dtype=np.int64)
    for w, s in zip(wall, sums):
        np.cumsum(w.cumsum(0), 1, out=s[1:, 1:])

    def walls(d, xa, xb, ya, yb):
        """Walls of wall[d] over x in [xa, xb) and y in [ya, yb), per rectangle."""
        s = sums[d]
        return s[xb, yb] - s[xa, yb] - s[xb, ya] + s[xa, ya]

    closed = (
        (walls(0, i1, i2 + 1, j1, j2) == 2 * (j2 - j1))
        & (walls(0, i1 + 1, i2, j1, j2) == 0)
        & (walls(1, i1, i2, j1, j2 + 1) == 2 * (i2 - i1))
        & (walls(1, i1, i2, j1 + 1, j2) == 0)
    )
    if not closed.all():
        raise ValueError(message)
    # a square's rectangle starts at the last wall to its left, then the
    # last wall below in that column
    left = np.maximum.accumulate(np.where(V, x, 0), axis=0)
    below = np.maximum.accumulate(np.where(H, y, 0), axis=1)
    corner_id = np.full(V.shape, -1)
    corner_id[i1, j1] = np.arange(i1.size)
    return np.stack([i1, i2, j1, j2], axis=1), corner_id[left, below[left, y]]


def _bernstein_rows(g, p, a, b):
    """Bernstein coefficients on [a, b] of local-knot-vector functions.

    g holds one local knot vector of p+2 knots per row; its [a, b], read
    from the same snapped global knots, must lie in one polynomial piece
    [g[k], g[k+1]] of the function, else ValueError. Padded with p copies
    of each end knot, g puts the function in row p - k of the 2p+2 knots
    from padded index k, the kernel window of that piece, so one kernel
    call computes every row. Returns the (m, p+1) rows.
    """
    m = np.arange(len(g))
    k = np.sum(g[:, 1 : p + 1] <= a[:, None], axis=1)
    if np.any((a < g[m, k]) | (b > g[m, k + 1])):
        raise ValueError("the requested interval is not a polynomial piece of the local function")
    W = g[m[:, None], np.clip(k[:, None] + np.arange(-p, p + 2), 0, p + 1)]
    return _bezier_extraction(W, a, b)[m, p - k]


def read_tmesh_json(source):
    """Read a T-mesh from a JSON file path, file object, or dict."""
    data = _read_json(source)
    return TMesh(*_list_fields(data, "degrees", "knot_vectors", "vertices", "edges"))


def tmesh_to_dict(mesh):
    # (x1, y1, x2, y2) from the (c, lo, hi) rows of each direction
    edges = np.concatenate([mesh._edges[0][:, [0, 1, 0, 2]], mesh._edges[1][:, [1, 0, 2, 0]]])
    return {
        "degrees": list(mesh.degrees),
        "knot_vectors": [G.tolist() for G in mesh.knot_vectors],
        "vertices": np.argwhere(mesh._vertex).tolist(),
        "edges": edges[np.lexsort(edges.T[::-1])].tolist(),
    }


def write_tmesh_json(path, mesh):
    with open(path, "w") as fh:
        json.dump(tmesh_to_dict(mesh), fh, indent=2)
        fh.write("\n")
