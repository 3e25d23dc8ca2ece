"""Two-dimensional T-meshes: anchors, extensions, and element extraction.

A T-mesh lives in the integer index domain [1, N1] x [1, N2] of a pair
of global knot vectors (N_d knots in direction d). Vertices sit on
integer coordinates; edges are axis-aligned segments between vertices,
listed pre-split (no vertex in an edge interior, no unsplit crossings).
Cells are the rectangles of the induced partition.

Anchors are the mesh entities carrying basis functions; their kind
follows the degree parities (odd: vertices along that direction, even:
cells/edge spans). Each anchor owns one local knot vector per direction,
collected by sweeping a line through the anchor and keeping the nearest
entities that fully cross the anchor's perpendicular extent.

T-junction extensions classify the mesh: if no vertical extension
touches a horizontal one (endpoint contact counts as touching), the
mesh is analysis-suitable, its functions are locally linearly
independent, and every Bezier element (cell of the mesh plus the face
extensions) supports exactly (p1+1)(p2+1) functions, which makes the
element extraction operators square and invertible.

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
from dataclasses import dataclass

import numpy as np

from .bernstein import interval_transform
from .spline_space import KnotVector, _read_json, parse_number

__all__ = [
    "TMesh",
    "Anchor",
    "Extension",
    "BezierElement",
    "read_tmesh_json",
    "write_tmesh_json",
    "tmesh_to_dict",
]


@dataclass(frozen=True)
class Anchor:
    """One anchor entity; spans are index-space intervals (may be points)."""

    kind: str
    x_span: tuple
    y_span: tuple

    @property
    def center(self):
        return (
            0.5 * (self.x_span[0] + self.x_span[1]),
            0.5 * (self.y_span[0] + self.y_span[1]),
        )


@dataclass(frozen=True)
class Extension:
    """Extensions of one T-junction, as index-space segments."""

    junction: tuple
    orientation: str  # 'v' or 'h': direction the extension line runs
    face: tuple  # ((x1, y1), (x2, y2))
    edge: tuple

    @property
    def full(self):
        (a1, b1), (a2, b2) = self.face, self.edge
        xs = (a1[0], a2[0], b1[0], b2[0])
        ys = (a1[1], a2[1], b1[1], b2[1])
        return ((min(xs), min(ys)), (max(xs), max(ys)))


@dataclass(frozen=True)
class BezierElement:
    """One element of the extended (Bezier) mesh."""

    index: int
    index_bounds: tuple  # ((i1, i2), (j1, j2))
    bounds: tuple  # parametric ((a1, b1), (a2, b2))
    anchors: tuple  # positions into TMesh.anchors()


class TMesh:
    def __init__(self, degrees, knot_vectors, vertices, edges):
        for name, given in (("degrees", degrees), ("knot vectors", knot_vectors)):
            if len(given) != 2:
                raise ValueError(f"expected two {name}, got {len(given)}")
        self.degrees = tuple(int(p) for p in degrees)
        if min(self.degrees) < 1:
            raise ValueError("degrees must be >= 1")
        self.knot_vectors = tuple(np.asarray(G, dtype=np.float64) for G in knot_vectors)
        for G, p in zip(self.knot_vectors, self.degrees):
            if not np.all(np.isfinite(G)):
                raise ValueError("global knot vectors must be finite")
            if np.any(np.diff(G) < 0):
                raise ValueError("global knot vectors must be nondecreasing")
            if G.size < 2 * (p + 1):
                raise ValueError("global knot vector too short for its degree")
            if not (np.all(G[: p + 1] == G[0]) and np.all(G[-p - 1 :] == G[-1])):
                raise ValueError("global knot vectors must be open")
        self.N = tuple(G.size for G in self.knot_vectors)

        self.vertices = set()
        for v in vertices:
            i, j = _integers(v, 2, "vertex", "two integers")
            if not (1 <= i <= self.N[0] and 1 <= j <= self.N[1]):
                raise ValueError(f"vertex ({i}, {j}) outside the index domain")
            self.vertices.add((i, j))

        self._edges = ([], [])  # per direction d: (c, lo, hi)
        for e in edges:
            i1, j1, i2, j2 = _integers(e, 4, "edge", "two vertices or four integers")
            if (i1, j1) not in self.vertices or (i2, j2) not in self.vertices:
                raise ValueError(f"edge ({i1},{j1})-({i2},{j2}) endpoint is not a vertex")
            if i1 == i2 and j1 != j2:
                self._edges[0].append((i1, min(j1, j2), max(j1, j2)))
            elif j1 == j2 and i1 != i2:
                self._edges[1].append((j1, min(i1, i2), max(i1, i2)))
            else:
                raise ValueError(
                    f"edge ({i1},{j1})-({i2},{j2}) must be axis-aligned with nonzero length"
                )
        self.v_edges, self.h_edges = self._edges

        self._validate()
        self._anchors = None
        self._anchor_knots = {}
        self._extensions = None
        self._bezier = None
        self._operators = None

    # -- structure ---------------------------------------------------------

    def _validate(self):
        """Check the edges and build the wall grid and the cells.

        Grids are indexed [x, y] over 0..N_d + 1: _wall[0][x, y] marks a
        vertical edge over [y, y + 1] at x and _wall[1][x, y] a horizontal
        one over [x, x + 1] at y. Each check runs on the unit segments of
        all edges of one direction at once.
        """
        shape = (self.N[0] + 2, self.N[1] + 2)
        vertex = np.zeros(shape, dtype=bool)
        vertex[tuple(np.array(list(self.vertices), dtype=np.int64).reshape(-1, 2).T)] = True
        cover = np.zeros((2,) + shape, dtype=np.int64)
        interior = np.zeros((2,) + shape, dtype=bool)
        # ends[a, k][x, y]: an edge leaves vertex (x, y) along direction a,
        # forwards for k = 0 and backwards for k = 1
        ends = np.zeros((2, 2) + shape, dtype=bool)
        for d, word in enumerate(("vertical", "horizontal")):
            c, lo, hi = np.array(self._edges[d], dtype=np.int64).reshape(-1, 3).T
            n = hi - lo
            edge = np.repeat(np.arange(n.size), n)
            t = lo[edge] + np.arange(edge.size) - np.repeat(np.cumsum(n) - n, n)
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
        self._vertex = vertex
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
        self._cells = _rectangles(self._wall, "mesh cells do not form a rectangular partition")

    def cells(self):
        """Index-space rectangles (i1, i2, j1, j2) of the partition."""
        return list(self._cells)

    def _covering(self, d, lo, hi):
        """Indices c, ascending, at which entities of direction d span the
        closed band [lo, hi] of the other direction; a point band is also
        spanned by a vertex."""
        w = _by_direction(self._wall)[d]
        if lo < hi:
            return np.flatnonzero(w[:, lo:hi].all(axis=1)).tolist()
        point = w[:, lo - 1 : lo + 1].any(axis=1) | self._vertex[_xy(d, slice(None), lo)]
        return np.flatnonzero(point).tolist()

    # -- anchors -----------------------------------------------------------

    def anchors(self):
        """All anchors, ordered by (y center, x center).

        An odd direction places anchors on one index, an even direction
        on an interval between two; both keep (p + 1) // 2 indices clear
        of each end of the domain.
        """
        if self._anchors is not None:
            return self._anchors
        odd = [p % 2 for p in self.degrees]
        if all(odd):
            kind, spans = "vertex", [((i, i), (j, j)) for i, j in self.vertices]
        elif not any(odd):
            kind, spans = "cell", [((i1, i2), (j1, j2)) for i1, i2, j1, j2 in self._cells]
        else:
            d = odd.index(1)
            kind = ("vedge", "hedge")[d]
            spans = [_xy(d, (c, c), (lo, hi)) for c, lo, hi in self._edges[d]]
        h = [(p + 1) // 2 for p in self.degrees]
        out = [
            Anchor(kind, *s)
            for s in spans
            if all(h[d] < s[d][0] and s[d][1] <= N - h[d] for d, N in enumerate(self.N))
        ]
        out.sort(key=lambda a: (a.center[1], a.center[0]))
        self._anchors = out
        return out

    def local_knot_indices(self, anchor):
        """Index vectors (i1, i2) of an anchor's local knot vectors.

        Per direction: sweep outward from the anchor center, keeping the
        nearest ceil((p+1)/2) indices on each side whose perpendicular
        entities fully cross the anchor's extent; odd degrees include
        the anchor's own index.
        """
        spans = (anchor.x_span, anchor.y_span)
        out = []
        for d, p in enumerate(self.degrees):
            span, band = spans[d], spans[1 - d]
            center = 0.5 * (span[0] + span[1])
            need = (p + 1 + 1) // 2  # ceil((p+1)/2)
            covering = self._covering(d, *band)
            left = [i for i in covering if i < center][-need:]
            right = [i for i in covering if i > center][:need]
            if len(left) < need or len(right) < need:
                raise ValueError(
                    f"anchor {anchor} finds too few crossed entities in direction {d}"
                )
            idx = left + ([int(center)] if p % 2 else []) + right
            out.append(idx)
        return tuple(out)

    def local_knot_vectors(self, anchor):
        """Local knot vectors (g1, g2) of an anchor, length p_d + 2 each."""
        key = (anchor.kind, anchor.x_span, anchor.y_span)
        if key not in self._anchor_knots:
            self._anchor_knots[key] = tuple(
                np.array([G[i - 1] for i in idx])
                for G, idx in zip(self.knot_vectors, self.local_knot_indices(anchor))
            )
        return self._anchor_knots[key]

    # -- T-junctions and extensions -----------------------------------------

    def t_junctions(self):
        """Interior vertices with exactly three incident edge directions.

        Returns [(vertex, missing_direction)] with the missing direction
        one of 'up', 'down', 'left', 'right'.
        """
        inner = np.zeros(self._vertex.shape, dtype=bool)
        inner[2:-2, 2:-2] = True
        out = []
        for x, y in np.argwhere(inner & (self._ends.sum(axis=(0, 1)) == 3)).tolist():
            ((a, k),) = np.argwhere(~self._ends[:, :, x, y])
            out.append(((x, y), _SIDES[a][k]))
        return out

    def _walk(self, start, d, step, count):
        """Walk from start along direction d counting crossed entities.

        Returns the direction-d coordinate of the count-th crossed
        entity of direction d (vertex or crossing edge); stops at the
        domain boundary, which is always an entity.
        """
        c, t = start[d], start[1 - d]
        ahead = [k for k in self._covering(d, t, t) if (k - c) * step > 0][::step]
        return ahead[:count][-1] if ahead and count else c

    def extensions(self):
        """Face and edge extensions of every T-junction."""
        if self._extensions is not None:
            return self._extensions
        out = []
        for v, missing in self.t_junctions():
            d = int(missing in _SIDES[1])
            step = 1 - 2 * _SIDES[d].index(missing)
            p = self.degrees[d]
            # faces cross ceil((p+1)/2) entities, edges ceil((p-1)/2)
            ends = (self._walk(v, d, step, (p + 1) // 2), self._walk(v, d, -step, p // 2))
            face, edge = (tuple(_xy(d, c, v[1 - d]) for c in sorted((v[d], e))) for e in ends)
            out.append(Extension(v, "hv"[d], face, edge))
        self._extensions = out
        return out

    def analysis_violations(self):
        """Pairs of perpendicular T-junction extensions that touch."""
        vs, hs = ([e for e in self.extensions() if e.orientation == o] for o in "vh")
        bad = []
        for ev in vs:
            (vx, vy1), (_, vy2) = ev.full
            for eh in hs:
                (hx1, hy), (hx2, _) = eh.full
                if hx1 <= vx <= hx2 and vy1 <= hy <= vy2:
                    bad.append((ev, eh))
        return bad

    def is_analysis_suitable(self):
        return not self.analysis_violations()

    # -- Bezier mesh and extraction -----------------------------------------

    def bezier_elements(self):
        """Elements of the extended mesh (cells plus face extensions).

        Zero-parametric-area cells are dropped. Each element records the
        anchors whose local knot vectors cover it. Requires an
        analysis-suitable mesh.
        """
        if self._bezier is not None:
            return self._bezier
        if not self.is_analysis_suitable():
            raise ValueError("mesh is not analysis-suitable")
        wall = self._wall.copy()
        for ext in self.extensions():
            # an extension walking along direction d adds an edge of direction 1 - d
            f = "vh".index(ext.orientation)
            a, b = ext.face
            _by_direction(wall)[f][a[f], a[1 - f] : b[1 - f]] = True
        rects = _rectangles(wall, "extended mesh is not a rectangular partition")

        G1, G2 = self.knot_vectors
        anchors = self.anchors()
        supports = []
        for a in anchors:
            g1, g2 = self.local_knot_vectors(a)
            supports.append((g1[0], g1[-1], g2[0], g2[-1]))

        rects.sort(key=lambda r: (r[2], r[0]))
        out = []
        tol = 1e-12 * max(
            G1[-1] - G1[0], G2[-1] - G2[0]
        )
        for i1, i2, j1, j2 in rects:
            a1, b1 = G1[i1 - 1], G1[i2 - 1]
            a2, b2 = G2[j1 - 1], G2[j2 - 1]
            if b1 - a1 <= tol or b2 - a2 <= tol:
                continue
            overlapping = tuple(
                k
                for k, (x1, x2, y1, y2) in enumerate(supports)
                if x1 <= a1 + tol and b1 <= x2 + tol and y1 <= a2 + tol and b2 <= y2 + tol
            )
            out.append(
                BezierElement(
                    index=len(out),
                    index_bounds=((i1, i2), (j1, j2)),
                    bounds=((float(a1), float(b1)), (float(a2), float(b2))),
                    anchors=overlapping,
                )
            )
        self._bezier = out
        return out

    def element_extraction(self, e):
        """Extraction operator (C, R) of one Bezier element.

        Row k of C holds the Bernstein coefficients of the k-th
        overlapping anchor's function on the element; anchors follow the
        mesh-wide ordering. For an analysis-suitable mesh C is square
        and R = C^{-1}. The operators of all elements are computed on
        the first call and cached, read-only.
        """
        els = self.bezier_elements()
        if not 0 <= e < len(els):
            raise IndexError(f"element {e} outside 0..{len(els) - 1}")
        if self._operators is None:
            self._operators = self._element_operators()
        C, R, errors = self._operators
        if e in errors:
            raise ValueError(errors[e])
        return C[e], R[e]

    def _element_operators(self):
        """Stacked C and R of every Bezier element, and the message of
        the error each malformed element raises.

        Per direction, each distinct (local knot vector, element
        interval) row is computed once, and all of them are restricted
        to their intervals with one batched window transform. A row of
        C is the Kronecker product of the anchor's two rows.
        """
        els = self.bezier_elements()
        anchors = self.anchors()
        n = (self.degrees[0] + 1) * (self.degrees[1] + 1)
        pairs = [(el, k) for el in els for k in el.anchors]
        knots = [self.local_knot_vectors(a) for a in anchors]
        (rows1, at1, bad1), (rows2, at2, bad2) = (
            _bernstein_rows(p, [(tuple(knots[k][d]), el.bounds[d]) for el, k in pairs])
            for d, p in enumerate(self.degrees)
        )
        errors, good, sel, start = {}, [], [], 0
        for el in els:
            stop = start + len(el.anchors)
            msg = next(
                (bad[i] for i in range(start, stop) for bad in (bad1, bad2) if i in bad), None
            )
            if msg is None and stop - start != n:
                msg = (
                    f"element {el.index} supports {stop - start} functions, "
                    f"expected {n}; mesh is malformed"
                )
            if msg is None:
                good.append(el.index)
                sel.extend(range(start, stop))
            else:
                errors[el.index] = msg
            start = stop
        C = np.zeros((len(els), n, n))
        R = np.zeros((len(els), n, n))
        if good:
            r1, r2 = rows1[at1[sel]], rows2[at2[sel]]
            C[good] = (r2[:, :, None] * r1[:, None, :]).reshape(-1, n, n)
            R[good] = np.linalg.inv(C[good])
        C.flags.writeable = False
        R.flags.writeable = False
        return C, R, errors

    def is_nested(self, other):
        """True if every function of this mesh lives in `other`'s space.

        Checked structurally: same degrees and global knot vectors,
        vertices preserved, and every edge covered by edges of `other`.
        """
        if not isinstance(other, TMesh):
            raise TypeError("is_nested expects a TMesh")
        if self.degrees != other.degrees:
            raise ValueError("meshes have different degrees")
        for Ga, Gb in zip(self.knot_vectors, other.knot_vectors):
            if Ga.size != Gb.size or not np.allclose(Ga, Gb):
                raise ValueError("meshes have different global knot vectors")
        return self.vertices <= other.vertices and not (self._wall & ~other._wall).any()

    @classmethod
    def tensor(cls, degrees, knot_vectors):
        """Full tensor-product mesh on the given global knot vectors."""
        N1 = len(knot_vectors[0])
        N2 = len(knot_vectors[1])
        vertices = [(i, j) for i in range(1, N1 + 1) for j in range(1, N2 + 1)]
        edges = []
        for i in range(1, N1 + 1):
            for j in range(1, N2):
                edges.append((i, j, i, j + 1))
        for j in range(1, N2 + 1):
            for i in range(1, N1):
                edges.append((i, j, i + 1, j))
        return cls(degrees, knot_vectors, vertices, edges)


# the sides by which an edge leaves a vertex along each direction:
# forwards, backwards
_SIDES = (("right", "left"), ("up", "down"))


def _xy(d, c, t):
    """The (x, y) pair with c in direction d and t in the other."""
    return (c, t) if d == 0 else (t, c)


def _by_direction(grids):
    """[c, t] views of a stacked (2, N1 + 2, N2 + 2) pair of [x, y] grids."""
    return grids[0], grids[1].T


def _integers(entry, n, name, expected):
    """An input vertex (n = 2) or edge (n = 4, possibly as two vertices)
    as a tuple of ints; ValueError naming the entry otherwise."""
    try:
        flat = [x for v in entry for x in v] if n == 4 and len(entry) == 2 else list(entry)
        ints = [int(x) for x in flat]
        if len(ints) == n and ints == flat:
            return tuple(ints)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} {entry!r} must be {expected}")


def _rectangles(wall, message):
    """Region-grow unit index squares into the rectangles between walls.

    wall[0][x, y] blocks the crossing between squares (x - 1, y) and
    (x, y); wall[1][x, y] blocks the one between (x, y - 1) and (x, y).
    Returns (i1, i2, j1, j2) per region in discovery order and raises
    ValueError(message) when a region is not a rectangle.
    """
    vwall, hwall = wall
    N1, N2 = vwall.shape[0] - 2, vwall.shape[1] - 2
    label = -np.ones((N1 + 1, N2 + 1), dtype=np.int64)
    rects = []
    for i0 in range(1, N1):
        for j0 in range(1, N2):
            if label[i0, j0] >= 0:
                continue
            rid = len(rects)
            stack = [(i0, j0)]
            label[i0, j0] = rid
            members = []
            while stack:
                i, j = stack.pop()
                members.append((i, j))
                if i + 1 < N1 and not vwall[i + 1, j] and label[i + 1, j] < 0:
                    label[i + 1, j] = rid
                    stack.append((i + 1, j))
                if i - 1 >= 1 and not vwall[i, j] and label[i - 1, j] < 0:
                    label[i - 1, j] = rid
                    stack.append((i - 1, j))
                if j + 1 < N2 and not hwall[i, j + 1] and label[i, j + 1] < 0:
                    label[i, j + 1] = rid
                    stack.append((i, j + 1))
                if j - 1 >= 1 and not hwall[i, j] and label[i, j - 1] < 0:
                    label[i, j - 1] = rid
                    stack.append((i, j - 1))
            xs = [m[0] for m in members]
            ys = [m[1] for m in members]
            i1, i2 = min(xs), max(xs) + 1
            j1, j2 = min(ys), max(ys) + 1
            if len(members) != (i2 - i1) * (j2 - j1):
                raise ValueError(message)
            rects.append((i1, i2, j1, j2))
    return rects


def _padded(g, p):
    """Open knot vector in which the local function of the p+2 knots g
    is the basis function of index pad_lo; returns (knot vector, pad_lo).

    Each end is padded up to multiplicity p+1.
    """
    g = np.asarray(g, dtype=np.float64)
    span = g[-1] - g[0]
    if span <= 0:
        raise ValueError("local knot vector has empty support")
    m_lo = int(np.sum(np.abs(g - g[0]) <= 1e-12 * span))
    m_hi = int(np.sum(np.abs(g - g[-1]) <= 1e-12 * span))
    pad_lo = max(p + 1 - m_lo, 0)
    pad_hi = max(p + 1 - m_hi, 0)
    pad = np.concatenate([[g[0]] * pad_lo, g, [g[-1]] * pad_hi])
    return KnotVector(pad, p), pad_lo


def _bernstein_rows(p, keys):
    """Bernstein coefficients of local-knot-vector functions on intervals.

    keys lists (g, (a, b)) pairs: g a tuple of p+2 local knots, [a, b]
    an interval that must lie inside one polynomial piece of g's
    function. Each distinct g gets one padded knot vector and each
    distinct key one row: the function's row of that knot vector's
    extraction operator on the span containing [a, b], restricted from
    the span to [a, b]. All rows are restricted by one batched window
    transform. Returns the (m, p+1) rows, the row index of each key (-1
    where the key fails) and {key position: message of the ValueError
    it raises}.
    """
    padded, at, failed, found = {}, {}, {}, []
    for key in dict.fromkeys(keys):
        g, (a, b) = key
        try:
            if g not in padded:
                padded[g] = _padded(g, p)
            kv, pad_lo = padded[g]
            e = kv.element_index(0.5 * (a + b))
            ea, eb = kv.element_bounds(e)
            tol = 1e-10 * (kv.domain[1] - kv.domain[0])
            if a < ea - tol or b > eb + tol:
                raise ValueError(
                    "the requested interval is not a polynomial piece of the local function"
                )
        except ValueError as exc:
            failed[key] = str(exc)
            continue
        at[key] = len(found)
        # window [a, b] in the biunit coordinate of the span [ea, eb]
        found.append((
            kv.extraction()[e][pad_lo - kv.supports()[e][0]],
            (2 * a - ea - eb) / (eb - ea),
            (2 * b - ea - eb) / (eb - ea),
        ))
    rows = np.zeros((0, p + 1))
    if found:
        row, wa, wb = (np.array(x) for x in zip(*found))
        rows = np.einsum("nij,nj->ni", interval_transform(p, wa, wb), row)
    pos = np.array([at.get(key, -1) for key in keys], dtype=np.int64)
    return rows, pos, {i: failed[key] for i, key in enumerate(keys) if key in failed}


def read_tmesh_json(source):
    """Read a T-mesh from a JSON file path, file object, or dict."""
    data = _read_json(source)
    kvs = [[parse_number(u) for u in G] for G in data["knot_vectors"]]
    return TMesh(data["degrees"], kvs, data["vertices"], data["edges"])


def tmesh_to_dict(mesh):
    edges = [_xy(d, c, lo) + _xy(d, c, hi) for d in (0, 1) for c, lo, hi in mesh._edges[d]]
    return {
        "degrees": list(mesh.degrees),
        "knot_vectors": [G.tolist() for G in mesh.knot_vectors],
        "vertices": sorted(mesh.vertices),
        "edges": sorted(edges),
    }


def write_tmesh_json(path, mesh):
    with open(path, "w") as fh:
        json.dump(tmesh_to_dict(mesh), fh, indent=2)
        fh.write("\n")
