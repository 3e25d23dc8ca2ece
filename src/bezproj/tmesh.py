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

All index geometry is exact integer arithmetic; parametric values enter
only when mapping elements and local knot vectors through the global
knot vectors.
"""

import json
from dataclasses import dataclass

import numpy as np

from .bernstein import interval_transform
from .spline_space import KnotVector, parse_number

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
        p1, p2 = (int(p) for p in degrees)
        if p1 < 1 or p2 < 1:
            raise ValueError("degrees must be >= 1")
        self.degrees = (p1, p2)
        G1 = np.asarray(knot_vectors[0], dtype=np.float64)
        G2 = np.asarray(knot_vectors[1], dtype=np.float64)
        for G, p in ((G1, p1), (G2, p2)):
            if not np.all(np.isfinite(G)):
                raise ValueError("global knot vectors must be finite")
            if np.any(np.diff(G) < 0):
                raise ValueError("global knot vectors must be nondecreasing")
            if G.size < 2 * (p + 1):
                raise ValueError("global knot vector too short for its degree")
            if not (np.all(G[: p + 1] == G[0]) and np.all(G[-p - 1 :] == G[-1])):
                raise ValueError("global knot vectors must be open")
        self.knot_vectors = (G1, G2)
        self.N = (G1.size, G2.size)

        self.vertices = set()
        for i, j in vertices:
            i, j = int(i), int(j)
            if not (1 <= i <= self.N[0] and 1 <= j <= self.N[1]):
                raise ValueError(f"vertex ({i}, {j}) outside the index domain")
            self.vertices.add((i, j))

        self.v_edges = []  # (x, y1, y2)
        self.h_edges = []  # (y, x1, x2)
        for e in edges:
            if len(e) == 2:
                (i1, j1), (i2, j2) = e
            else:
                i1, j1, i2, j2 = e
            i1, j1, i2, j2 = int(i1), int(j1), int(i2), int(j2)
            if (i1, j1) not in self.vertices or (i2, j2) not in self.vertices:
                raise ValueError(f"edge ({i1},{j1})-({i2},{j2}) endpoint is not a vertex")
            if i1 == i2 and j1 != j2:
                self.v_edges.append((i1, min(j1, j2), max(j1, j2)))
            elif j1 == j2 and i1 != i2:
                self.h_edges.append((j1, min(i1, i2), max(i1, i2)))
            else:
                raise ValueError(
                    f"edge ({i1},{j1})-({i2},{j2}) must be axis-aligned with nonzero length"
                )

        self._validate()
        self._anchors = None
        self._anchor_knots = {}
        self._extensions = None
        self._bezier = None
        self._operators = None

    # -- structure ---------------------------------------------------------

    def _validate(self):
        N1, N2 = self.N
        vwall = np.zeros((N1 + 2, N2 + 2), dtype=bool)
        hwall = np.zeros((N1 + 2, N2 + 2), dtype=bool)
        for x, y1, y2 in self.v_edges:
            for y in range(y1 + 1, y2):
                if (x, y) in self.vertices:
                    raise ValueError(
                        f"vertex ({x},{y}) lies inside an edge; split edges at vertices"
                    )
            if vwall[x, y1:y2].any():
                raise ValueError(f"overlapping vertical edges at index {x}")
            vwall[x, y1:y2] = True
        for y, x1, x2 in self.h_edges:
            for x in range(x1 + 1, x2):
                if (x, y) in self.vertices:
                    raise ValueError(
                        f"vertex ({x},{y}) lies inside an edge; split edges at vertices"
                    )
            if hwall[x1:x2, y].any():
                raise ValueError(f"overlapping horizontal edges at index {y}")
            hwall[x1:x2, y] = True
        for x, y1, y2 in self.v_edges:
            for y, x1, x2 in self.h_edges:
                if x1 < x < x2 and y1 < y < y2:
                    raise ValueError(
                        f"edges cross at ({x},{y}) without a vertex; split them there"
                    )
        self._vwall = vwall
        self._hwall = hwall
        self._v_merged = _merged_by_coordinate(self.v_edges)
        self._h_merged = _merged_by_coordinate(self.h_edges)

        if not (vwall[1, 1:N2].all() and vwall[N1, 1:N2].all()):
            raise ValueError("index-domain boundary is not fully covered by edges")
        if not (hwall[1:N1, 1].all() and hwall[1:N1, N2].all()):
            raise ValueError("index-domain boundary is not fully covered by edges")

        degree = {v: 0 for v in self.vertices}
        for x, y1, y2 in self.v_edges:
            degree[(x, y1)] += 1
            degree[(x, y2)] += 1
        for y, x1, x2 in self.h_edges:
            degree[(x1, y)] += 1
            degree[(x2, y)] += 1
        for v, d in degree.items():
            if d < 2:
                raise ValueError(f"vertex {v} is dangling (degree {d})")

        self._cells = _rectangles(vwall, hwall, "mesh cells do not form a rectangular partition")

    def cells(self):
        """Index-space rectangles (i1, i2, j1, j2) of the partition."""
        return list(self._cells)

    def _v_entities_at(self, x):
        """Merged vertical-edge intervals at index x."""
        return self._v_merged.get(x, [])

    def _h_entities_at(self, y):
        """Merged horizontal-edge intervals at index y."""
        return self._h_merged.get(y, [])

    # -- anchors -----------------------------------------------------------

    def _odd_window(self, d):
        p, N = self.degrees[d], self.N[d]
        return range((p + 3) // 2, N - (p + 1) // 2 + 1)

    def _even_band(self, d):
        p, N = self.degrees[d], self.N[d]
        return (p // 2 + 1, N - p // 2)

    def anchors(self):
        """All anchors, ordered by (y center, x center)."""
        if self._anchors is not None:
            return self._anchors
        p1, p2 = self.degrees
        out = []
        if p1 % 2 and p2 % 2:
            w1, w2 = set(self._odd_window(0)), set(self._odd_window(1))
            for i, j in self.vertices:
                if i in w1 and j in w2:
                    out.append(Anchor("vertex", (i, i), (j, j)))
        elif p1 % 2 == 0 and p2 % 2 == 0:
            b1, b2 = self._even_band(0), self._even_band(1)
            for i1, i2, j1, j2 in self._cells:
                if b1[0] <= i1 and i2 <= b1[1] and b2[0] <= j1 and j2 <= b2[1]:
                    out.append(Anchor("cell", (i1, i2), (j1, j2)))
        elif p1 % 2:
            # odd x even: anchors are vertical edges
            w1, b2 = set(self._odd_window(0)), self._even_band(1)
            for x, y1, y2 in self.v_edges:
                if x in w1 and b2[0] <= y1 and y2 <= b2[1]:
                    out.append(Anchor("vedge", (x, x), (y1, y2)))
        else:
            b1, w2 = self._even_band(0), set(self._odd_window(1))
            for y, x1, x2 in self.h_edges:
                if y in w2 and b1[0] <= x1 and x2 <= b1[1]:
                    out.append(Anchor("hedge", (x1, x2), (y, y)))
        out.sort(key=lambda a: (a.center[1], a.center[0]))
        self._anchors = out
        return out

    def _covers_vertical(self, x, lo, hi):
        """Vertical entities at index x span the closed band [lo, hi]."""
        if lo == hi:
            if (x, lo) in self.vertices:
                return True
            return any(y1 <= lo <= y2 for y1, y2 in self._v_entities_at(x))
        for y1, y2 in self._v_entities_at(x):
            if y1 <= lo and hi <= y2:
                return True
        return False

    def _covers_horizontal(self, y, lo, hi):
        if lo == hi:
            if (lo, y) in self.vertices:
                return True
            return any(x1 <= lo <= x2 for x1, x2 in self._h_entities_at(y))
        for x1, x2 in self._h_entities_at(y):
            if x1 <= lo and hi <= x2:
                return True
        return False

    def local_knot_indices(self, anchor):
        """Index vectors (i1, i2) of an anchor's local knot vectors.

        Per direction: sweep outward from the anchor center, keeping the
        nearest ceil((p+1)/2) indices on each side whose perpendicular
        entities fully cross the anchor's extent; odd degrees include
        the anchor's own index.
        """
        p1, p2 = self.degrees
        out = []
        for d in (0, 1):
            p = (p1, p2)[d]
            N = self.N[d]
            if d == 0:
                span = anchor.x_span
                band = anchor.y_span
                covers = lambda i: self._covers_vertical(i, band[0], band[1])
            else:
                span = anchor.y_span
                band = anchor.x_span
                covers = lambda j: self._covers_horizontal(j, band[0], band[1])
            center = 0.5 * (span[0] + span[1])
            need = (p + 1 + 1) // 2  # ceil((p+1)/2)
            left = []
            i = int(np.ceil(center)) - 1
            while i >= 1 and len(left) < need:
                if i < center and covers(i):
                    left.append(i)
                i -= 1
            right = []
            i = int(np.floor(center)) + 1
            while i <= N and len(right) < need:
                if i > center and covers(i):
                    right.append(i)
                i += 1
            if len(left) < need or len(right) < need:
                raise ValueError(
                    f"anchor {anchor} finds too few crossed entities in direction {d}"
                )
            idx = sorted(left) + ([int(center)] if p % 2 else []) + right
            out.append(idx)
        return tuple(out)

    def local_knot_vectors(self, anchor):
        """Local knot vectors (g1, g2) of an anchor, length p_d + 2 each."""
        key = (anchor.kind, anchor.x_span, anchor.y_span)
        if key not in self._anchor_knots:
            idx1, idx2 = self.local_knot_indices(anchor)
            g1 = np.array([self.knot_vectors[0][i - 1] for i in idx1])
            g2 = np.array([self.knot_vectors[1][j - 1] for j in idx2])
            self._anchor_knots[key] = (g1, g2)
        return self._anchor_knots[key]

    # -- T-junctions and extensions -----------------------------------------

    def t_junctions(self):
        """Interior vertices with exactly three incident edge directions.

        Returns [(vertex, missing_direction)] with the missing direction
        one of 'up', 'down', 'left', 'right'.
        """
        N1, N2 = self.N
        up = {(x, y1) for x, y1, y2 in self.v_edges}
        down = {(x, y2) for x, y1, y2 in self.v_edges}
        right = {(x1, y) for y, x1, x2 in self.h_edges}
        left = {(x2, y) for y, x1, x2 in self.h_edges}
        out = []
        for v in sorted(self.vertices):
            i, j = v
            if i in (1, N1) or j in (1, N2):
                continue
            dirs = {
                "up": v in up,
                "down": v in down,
                "left": v in left,
                "right": v in right,
            }
            if sum(dirs.values()) == 3:
                missing = next(k for k, have in dirs.items() if not have)
                out.append((v, missing))
        return out

    def _walk(self, i, j, axis, step, count):
        """Walk from (i, j) counting crossed perpendicular entities.

        axis 'v' walks in y, 'h' walks in x. Returns the coordinate of
        the count-th crossed entity (vertex or crossing edge); stops at
        the domain boundary, which is always an entity.
        """
        hits = 0
        if axis == "v":
            y, last = j, j
            while hits < count:
                y += step
                if not 1 <= y <= self.N[1]:
                    break
                if (i, y) in self.vertices or self._covers_horizontal(y, i, i):
                    hits += 1
                    last = y
            return last
        x, last = i, i
        while hits < count:
            x += step
            if not 1 <= x <= self.N[0]:
                break
            if (x, j) in self.vertices or self._covers_vertical(x, j, j):
                hits += 1
                last = x
        return last

    def extensions(self):
        """Face and edge extensions of every T-junction."""
        if self._extensions is not None:
            return self._extensions
        p1, p2 = self.degrees
        out = []
        for (i, j), missing in self.t_junctions():
            if missing in ("up", "down"):
                p = p2
                face_n = (p + 1) // 2
                edge_n = max((p - 1 + 1) // 2, 0)  # ceil((p-1)/2)
                step = 1 if missing == "up" else -1
                yf = self._walk(i, j, "v", step, face_n)
                ye = self._walk(i, j, "v", -step, edge_n)
                face = ((i, min(j, yf)), (i, max(j, yf)))
                edge = ((i, min(j, ye)), (i, max(j, ye)))
                out.append(Extension((i, j), "v", face, edge))
            else:
                p = p1
                face_n = (p + 1) // 2
                edge_n = max((p - 1 + 1) // 2, 0)
                step = 1 if missing == "right" else -1
                xf = self._walk(i, j, "h", step, face_n)
                xe = self._walk(i, j, "h", -step, edge_n)
                face = ((min(i, xf), j), (max(i, xf), j))
                edge = ((min(i, xe), j), (max(i, xe), j))
                out.append(Extension((i, j), "h", face, edge))
        self._extensions = out
        return out

    def analysis_violations(self):
        """Pairs of perpendicular T-junction extensions that touch."""
        exts = self.extensions()
        vs = [e for e in exts if e.orientation == "v"]
        hs = [e for e in exts if e.orientation == "h"]
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
        vwall = self._vwall.copy()
        hwall = self._hwall.copy()
        for ext in self.extensions():
            (x1, y1), (x2, y2) = ext.face
            if ext.orientation == "v":
                vwall[x1, y1:y2] = True
            else:
                hwall[x1:x2, y1] = True

        rects = _rectangles(vwall, hwall, "extended mesh is not a rectangular partition")

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
        if not self.vertices <= other.vertices:
            return False
        if (self._vwall & ~other._vwall).any():
            return False
        if (self._hwall & ~other._hwall).any():
            return False
        return True

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


def _merged_by_coordinate(edges):
    """{coordinate: merged (lo, hi) intervals} of (coordinate, lo, hi) edges."""
    out = {}
    for c, lo, hi in sorted(edges):
        ivs = out.setdefault(c, [])
        if ivs and lo <= ivs[-1][1]:
            ivs[-1] = (ivs[-1][0], max(ivs[-1][1], hi))
        else:
            ivs.append((lo, hi))
    return out


def _rectangles(vwall, hwall, message):
    """Region-grow unit index squares into the rectangles between walls.

    vwall[x, y] blocks the crossing between squares (x - 1, y) and
    (x, y); hwall[x, y] blocks the one between (x, y - 1) and (x, y).
    Returns (i1, i2, j1, j2) per region in discovery order and raises
    ValueError(message) when a region is not a rectangle.
    """
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
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    degrees = [int(p) for p in data["degrees"]]
    kvs = [[parse_number(u) for u in G] for G in data["knot_vectors"]]
    vertices = [(int(i), int(j)) for i, j in data["vertices"]]
    edges = [tuple(int(x) for x in e) for e in data["edges"]]
    return TMesh(degrees, kvs, vertices, edges)


def tmesh_to_dict(mesh):
    edges = [(x, y1, x, y2) for x, y1, y2 in mesh.v_edges]
    edges += [(x1, y, x2, y) for y, x1, x2 in mesh.h_edges]
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
