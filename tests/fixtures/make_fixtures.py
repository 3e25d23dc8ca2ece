"""Generate the T-mesh fixture files.

Meshes are described as maximal line segments; this script splits them
at every vertex (segment endpoints and crossings), validates the result
by constructing a TMesh, and writes the JSON files next to itself.
Run directly to regenerate: python3 tests/fixtures/make_fixtures.py
"""

import os

from bezproj.tmesh import TMesh, write_tmesh_json

HERE = os.path.dirname(os.path.abspath(__file__))


def build(degrees, knot_vectors, vsegs, hsegs):
    """TMesh from maximal segments; vsegs = (x, y1, y2), hsegs = (y, x1, x2)."""
    vertices = set()
    for x, y1, y2 in vsegs:
        vertices.add((x, y1))
        vertices.add((x, y2))
    for y, x1, x2 in hsegs:
        vertices.add((x1, y))
        vertices.add((x2, y))
    for x, y1, y2 in vsegs:
        for y, x1, x2 in hsegs:
            if x1 <= x <= x2 and y1 <= y <= y2:
                vertices.add((x, y))
    edges = []
    for x, y1, y2 in vsegs:
        cuts = sorted({y for (vx, y) in vertices if vx == x and y1 <= y <= y2})
        edges += [(x, a, x, b) for a, b in zip(cuts, cuts[1:])]
    for y, x1, x2 in hsegs:
        cuts = sorted({x for (x, vy) in vertices if vy == y and x1 <= x <= x2})
        edges += [(a, y, b, y) for a, b in zip(cuts, cuts[1:])]
    return TMesh(degrees, knot_vectors, sorted(vertices), edges)


G9 = [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7]  # 12 knots, degree 2
G10 = [0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7]  # 14 knots, degree 3


def frame(n, lo_count, others):
    """Full lines at the repeated-knot indices plus the given interior ones."""
    full = list(range(1, lo_count + 1)) + list(range(n - lo_count + 1, n + 1))
    return sorted(set(full + list(others)))


def case_a():
    # degrees (2, 2); anchor cell [4,8]x[3,7]
    # interior lines run through the zero-measure frame to the index
    # boundary, so T-junctions occur only where a line stops mid-domain
    vsegs = [(x, 1, 12) for x in (1, 2, 3, 10, 11, 12)]
    vsegs += [(4, 1, 12), (8, 1, 12), (9, 1, 6), (9, 7, 12)]
    hsegs = [(y, 1, 12) for y in (1, 2, 3, 10, 11, 12)]
    hsegs += [(7, 1, 12), (9, 1, 12), (6, 8, 12)]
    return build((2, 2), (G9, G9), vsegs, hsegs)


def case_b():
    # degrees (3, 2); anchor vertical edge (9,7)-(9,9)
    vsegs = [(x, 1, 12) for x in (1, 2, 3, 4, 11, 12, 13, 14)]
    vsegs += [(5, 1, 12), (8, 1, 12), (7, 8, 12), (9, 1, 9)]
    hsegs = [(y, 1, 14) for y in (1, 2, 3, 10, 11, 12)]
    hsegs += [(6, 8, 14), (7, 8, 14), (8, 5, 8), (9, 5, 14)]
    return build((3, 2), (G10, G9), vsegs, hsegs)


def case_c():
    # degrees (2, 3); anchor horizontal edge (4,8)-(7,8)
    vsegs = [(x, 1, 14) for x in (1, 2, 3, 10, 11, 12)]
    vsegs += [(4, 1, 14), (7, 1, 14), (8, 1, 14)]
    hsegs = [(y, 1, 12) for y in (1, 2, 3, 4, 11, 12, 13, 14)]
    hsegs += [(8, 4, 7), (9, 1, 12), (10, 1, 12), (6, 8, 12)]
    return build((2, 3), (G9, G10), vsegs, hsegs)


def case_d():
    # degrees (3, 3); anchor vertex (8,8)
    vsegs = [(x, 1, 14) for x in (1, 2, 3, 4, 11, 12, 13, 14)]
    vsegs += [(5, 1, 14), (8, 1, 14), (9, 1, 14)]
    hsegs = [(y, 1, 14) for y in (1, 2, 3, 4, 11, 12, 13, 14)]
    hsegs += [(8, 5, 9), (9, 5, 14), (10, 1, 14)]
    return build((3, 3), (G10, G10), vsegs, hsegs)


def extensions_pair():
    """Bicubic meshes: crossing extensions (not AS) and the repaired one.

    The only difference is the segment at index 10: stopping it at the
    T-junction (10, 9) spawns a vertical extension that crosses three
    horizontal ones; running it through to the boundary removes them.
    """
    vsegs = [(x, 1, 14) for x in (1, 2, 3, 4, 11, 12, 13, 14)]
    vsegs += [(7, 1, 14), (8, 1, 14), (9, 1, 14)]
    hsegs = [(y, 1, 14) for y in (1, 2, 3, 4, 11, 12, 13, 14)]
    hsegs += [(7, 4, 8), (9, 9, 14), (10, 9, 14)]
    left = build((3, 3), (G10, G10), vsegs + [(10, 1, 9)], hsegs)
    right = build((3, 3), (G10, G10), vsegs + [(10, 1, 14)], hsegs)
    return left, right


def half_refined(p, n):
    """Bidegree (p, p) mesh of n x n unit elements (n even): every
    vertical line is full and every other interior horizontal line stops
    at the middle vertical line. All T-junctions lie on that line and
    their extensions are parallel, so the mesh is analysis-suitable at
    every size."""
    G = [0] * (p + 1) + list(range(1, n)) + [n] * (p + 1)
    N, mid = len(G), p + 1 + n // 2  # index of the knot n / 2
    vsegs = [(x, 1, N) for x in range(1, N + 1)]
    hsegs = [(y, 1, mid if p + 1 < y < N - p and (y - p) % 2 == 0 else N) for y in range(1, N + 1)]
    return build((p, p), (G, G), vsegs, hsegs)


def main():
    meshes = {
        "tmesh_a.json": case_a(),
        "tmesh_b.json": case_b(),
        "tmesh_c.json": case_c(),
        "tmesh_d.json": case_d(),
    }
    left, right = extensions_pair()
    meshes["tmesh_ext_left.json"] = left
    meshes["tmesh_ext_right.json"] = right
    for name, mesh in meshes.items():
        write_tmesh_json(os.path.join(HERE, name), mesh)
        print("wrote", name)


if __name__ == "__main__":
    main()
