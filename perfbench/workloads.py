"""The benchmark workloads: inputs, one timed operation, and checks.

Every operation of a workload has the same size. Inputs come from
``numpy.random.default_rng([seed, stream, index])``, so the same seed
gives the same inputs, and each timed operation gets its own values:
a cache keyed on input content cannot turn a cold workload warm.

A workload object has

- ``name`` and ``elements`` (elements per operation);
- ``setup(seed)``: the inputs shared by all operations of a run;
- ``make_input(rng)``: the inputs of one operation;
- ``run(inp)``: the timed operation, calling bezproj only through the
  package namespace so that traced runs see every call;
- ``check(inp, out)``: a list of failure messages (empty when the
  result is correct) and the operation's relative L2 error, or None.

``check`` runs outside the timed region and outside any span.
"""

import importlib
import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

import bezproj

HERE = os.path.dirname(os.path.abspath(__file__))

# Upper bounds on the relative L2 error of the projection workloads. The
# largest values over 80 operations (seeds 0..19) at the commit that
# added this benchmark were 5.0e-6 (cold-project-1d) and 3.9e-3
# (warm-shell-2d); the bounds leave a factor of four.
COLD_REL_ERR_BOUND = 2e-5
SHELL_REL_ERR_BOUND = 1.6e-2


def _jittered_breakpoints(rng, n):
    """n + 1 breakpoints on [0, 1], uniform and jittered by up to h/4."""
    h = 1.0 / n
    bp = np.linspace(0.0, 1.0, n + 1)
    bp[1:-1] += rng.uniform(-0.25 * h, 0.25 * h, n - 1)
    return bp


def _open_knots(bp, p):
    return np.concatenate([[bp[0]] * p, bp, [bp[-1]] * p])


def _bspline_design(knots, p, x):
    """Cox-de Boor design matrix, an oracle independent of extraction."""
    t = np.asarray(knots, dtype=float)
    x = x[:, None]
    n = t.size - p - 1
    span = np.clip(np.searchsorted(t, x[:, 0], side="right") - 1, p, n - 1)
    N = np.zeros((x.shape[0], t.size - 1))
    N[np.arange(x.shape[0]), span] = 1.0
    for q in range(1, p + 1):
        i = np.arange(t.size - 1 - q)
        d1, d2 = t[i + q] - t[i], t[i + q + 1] - t[i + 1]
        w1 = np.where(d1 > 0, (x - t[i]) / np.where(d1 > 0, d1, 1.0), 0.0)
        w2 = np.where(d2 > 0, (t[i + q + 1] - x) / np.where(d2 > 0, d2, 1.0), 0.0)
        N = w1 * N[:, :-1] + w2 * N[:, 1:]
    return N


class ColdProject1D:
    """Fresh cubic space of 128 jittered elements, project and measure."""

    name = "cold-project-1d"
    degree = 3
    n_elements = 128
    elements = 128

    def setup(self, seed):
        pass

    def make_input(self, rng):
        return {
            "breakpoints": _jittered_breakpoints(rng, self.n_elements),
            "k": rng.uniform(2.0, 4.0),
            "phase": rng.uniform(0.0, 2.0 * np.pi),
            "member": rng.standard_normal(self.n_elements + self.degree),
        }

    def run(self, inp):
        k, phase = inp["k"], inp["phase"]
        kv = bezproj.KnotVector(_open_knots(inp["breakpoints"], self.degree), self.degree)
        space = bezproj.SplineSpace([kv])
        f = bezproj.TargetFunction(lambda x: np.sin(2.0 * np.pi * k * x[:, 0] + phase))
        rep = bezproj.bezier_project(f, space)
        err = bezproj.l2_error(f, space, rep.net, relative=True)
        return space, rep.net, err

    def check(self, inp, out):
        space, net, err = out
        bad = []
        if not np.all(np.isfinite(net.points)):
            bad.append("non-finite coefficients")
        if not err < COLD_REL_ERR_BOUND:
            bad.append(f"rel_l2_err {err:.3e} above {COLD_REL_ERR_BOUND:.1e}")
        member = bezproj.ControlNet(inp["member"])
        f = bezproj.TargetFunction(lambda x: bezproj.evaluate(space, member, x))
        got = bezproj.bezier_project(f, space).net.points[:, 0]
        dev = np.max(np.abs(got - inp["member"]))
        if not dev <= 1e-10 * max(1.0, np.max(np.abs(inp["member"]))):
            bad.append(f"spline member reproduced only to {dev:.3e}")
        return bad, float(err)


class WarmShell2D:
    """Biquadratic 16x16 NURBS shell built in set-up; project and evaluate."""

    name = "warm-shell-2d"
    n_side = 16
    n_points = 4096
    elements = 256

    def setup(self, seed):
        space0, net0 = bezproj.quarter_cylinder()
        interior = np.linspace(0.0, 1.0, self.n_side + 1)[1:-1]
        up = bezproj.plan_p_elevate(space0, [0, 1])
        fine = bezproj.plan_h_refine(up.target, {0: interior, 1: interior})
        self.geometry = (space0, net0)
        self.space = fine.target
        self.weights = bezproj.apply_plan(bezproj.compose(up, fine), net0).weights
        self.radius_scale = float(np.max(net0.points[:, 0]))
        self.length = float(np.max(net0.points[:, 2]))

    def make_input(self, rng):
        return {
            "a": rng.uniform(2.0, 4.0),
            "b": rng.uniform(1.0, 3.0),
            "phase": rng.uniform(0.0, 2.0 * np.pi, 2),
            "points": rng.uniform(0.0, 1.0, (self.n_points, 2)),
        }

    def run(self, inp):
        space0, net0 = self.geometry
        a, b, (p1, p2) = inp["a"], inp["b"], inp["phase"]
        c, length = self.radius_scale, self.length

        def shell_field(pts):
            x = bezproj.evaluate(space0, net0, pts)
            return np.sin(a * np.pi * x[:, 0] / c + p1) * np.sin(b * np.pi * x[:, 2] / length + p2)

        f = bezproj.TargetFunction(shell_field)
        rep = bezproj.bezier_project(f, self.space, weights=self.weights)
        err = bezproj.l2_error(f, self.space, rep.net, relative=True)
        vals = bezproj.evaluate(self.space, rep.net, inp["points"])
        return rep.net, err, vals

    def check(self, inp, out):
        net, err, vals = out
        bad = []
        if not np.all(np.isfinite(net.points)):
            bad.append("non-finite coefficients")
        if not err < SHELL_REL_ERR_BOUND:
            bad.append(f"rel_l2_err {err:.3e} above {SHELL_REL_ERR_BOUND:.1e}")
        pts = inp["points"]
        kx, ky = self.space.knot_vectors
        Bx = _bspline_design(kx.knots, kx.degree, pts[:, 0])
        By = _bspline_design(ky.knots, ky.degree, pts[:, 1])
        H = net.homogeneous().reshape(ky.n, kx.n, -1)
        ref = np.einsum("ki,kj,jid->kd", Bx, By, H)
        ref = ref[:, :-1] / ref[:, -1:]
        dev = np.max(np.abs(vals - ref))
        if not dev <= 1e-12 * max(1.0, np.max(np.abs(ref))):
            bad.append(f"evaluate differs from de Boor by {dev:.3e}")
        return bad, float(err)


class Transfer2D:
    """Rational biquadratic 16x16 source: exact up (p then h), inexact back."""

    name = "transfer-2d"
    degree = 2
    n_side = 16
    # 32x32 target of the forward plan plus 16x16 target of the backward one
    elements = 1024 + 256

    def setup(self, seed):
        pass

    def make_input(self, rng):
        n = self.n_side + self.degree
        return {
            "breakpoints": [_jittered_breakpoints(rng, self.n_side) for _ in range(2)],
            "points": rng.standard_normal((n * n, 3)),
            "weights": rng.uniform(0.5, 2.0, n * n),
        }

    def run(self, inp):
        p = self.degree
        bps = inp["breakpoints"]
        source = bezproj.SplineSpace([bezproj.KnotVector(_open_knots(bp, p), p) for bp in bps])
        net = bezproj.ControlNet(inp["points"], inp["weights"])
        up_p = bezproj.plan_p_elevate(source, 1)
        up_h = bezproj.plan_h_refine(up_p.target)
        forward = bezproj.compose(up_p, up_h)
        fine = bezproj.apply_plan(forward, net)
        mids = {d: (bp[:-1] + bp[1:]) / 2.0 for d, bp in enumerate(bps)}
        down_h = bezproj.plan_h_coarsen(forward.target, mids)
        down_p = bezproj.plan_p_reduce(down_h.target, 1)
        backward = bezproj.compose(down_h, down_p)
        back = bezproj.apply_plan(backward, fine)
        return forward, backward, back

    def check(self, inp, out):
        forward, backward, back = out
        bad = []
        if not forward.exact:
            bad.append("forward plan is not exact")
        if backward.exact:
            bad.append("backward plan claims to be exact")
        dp = np.max(np.abs(back.points - inp["points"]))
        dw = np.max(np.abs(back.weights - inp["weights"]))
        if not (dp <= 1e-10 and dw <= 1e-10):
            bad.append(f"round trip off by {dp:.3e} (points), {dw:.3e} (weights)")
        return bad, None


def _parse_printed_matrix(lines):
    return [[Fraction(tok) for tok in ln.strip().strip("[]").split()] for ln in lines]


def _printed_operators(text):
    """The C and R matrices from `bezproj extract` output."""
    lines = text.splitlines()
    c_at, r_at = lines.index("C:"), lines.index("R:")
    return _parse_printed_matrix(lines[c_at + 1 : r_at]), _parse_printed_matrix(lines[r_at + 1 :])


class ExtractExactTmesh:
    """`bezproj extract` on an exact bicubic file, then T-mesh extraction."""

    name = "extract-exact-tmesh"
    degree = 3
    n_side = 32
    # one exact tensor element plus the 16 Bezier elements of the T-mesh
    elements = 1 + 16
    # a wide jitter range keeps knot values distinct across operations;
    # the cost of the exact extraction does not depend on it
    denominator = 2**40

    def setup(self, seed):
        with open(os.path.join(HERE, "inputs", "tmesh_d.json")) as fh:
            self.topology = json.load(fh)
        self.cli = importlib.import_module("bezproj.cli")

    def _exact_knots(self, rng):
        """Open knot strings "n/d" with distinct jittered interior values."""
        step = self.denominator // self.n_side
        ticks = np.arange(self.n_side + 1) * step
        ticks[1:-1] += rng.integers(-step // 4, step // 4 + 1, self.n_side - 1)
        bp = [str(Fraction(int(t), self.denominator)) for t in ticks]
        return [bp[0]] * self.degree + bp + [bp[-1]] * self.degree

    def make_input(self, rng):
        p, n = self.degree, self.n_side + self.degree
        spline = {
            "parametric_dim": 2,
            "physical_dim": 3,
            "degrees": [p, p],
            "knot_vectors": [self._exact_knots(rng), self._exact_knots(rng)],
            "control_points": rng.standard_normal((n * n, 3)).tolist(),
        }
        mesh = dict(self.topology)
        mesh["knot_vectors"] = []
        for G in self.topology["knot_vectors"]:
            G = np.asarray(G, dtype=float)
            inner = (G > G[0]) & (G < G[-1])
            G[inner] += rng.uniform(-0.25, 0.25, int(inner.sum()))
            mesh["knot_vectors"].append(G.tolist())
        return {
            "spline_json": json.dumps(spline),
            "element": int(rng.integers(0, self.n_side * self.n_side)),
            "tmesh_json": json.dumps(mesh),
        }

    def prepare(self, inp, path):
        """Write the operation's spline file; done outside the timed region."""
        with open(path, "w") as fh:
            fh.write(inp["spline_json"])
        inp["path"] = path

    def run(self, inp):
        buf = io.StringIO()
        with redirect_stdout(buf):
            self.cli.main.main(
                args=["extract", "--in", inp["path"], "--element", str(inp["element"])],
                prog_name="bezproj",
                standalone_mode=False,
            )
        mesh = bezproj.read_tmesh_json(io.StringIO(inp["tmesh_json"]))
        ops = [mesh.element_extraction(e) for e in range(len(mesh.bezier_elements()))]
        return buf.getvalue(), ops

    def check(self, inp, out):
        text, ops = out
        bad = []
        C, R = _printed_operators(text)
        m = len(C)
        if m != (self.degree + 1) ** 2:
            bad.append(f"printed C has {m} rows")
        for i in range(m):
            for j in range(m):
                if sum(C[i][k] * R[k][j] for k in range(m)) != (i == j):
                    bad.append(f"printed C R differs from I at ({i}, {j})")
                    return bad, None
        if len(ops) != 16:
            bad.append(f"T-mesh has {len(ops)} Bezier elements, expected 16")
        for e, (Ce, Re) in enumerate(ops):
            dev = np.max(np.abs(Ce @ Re - np.eye(Ce.shape[0])))
            if not dev <= 1e-10:
                bad.append(f"T-mesh element {e}: |C R - I| = {dev:.3e}")
        return bad, None


class ColdSequence:
    """The three cold operations back to back, timed as one operation.

    One workload rather than three: with two workloads each run can
    measure for 55 s within the benchmark's time budget, where four
    allowed about 28 s, and on a host whose speed drifts over tens of
    seconds the longer runs spread less (see README.md).
    """

    name = "cold-project-transfer-extract"
    part_types = (ColdProject1D, Transfer2D, ExtractExactTmesh)

    def __init__(self):
        self.parts = [cls() for cls in self.part_types]
        self.elements = sum(part.elements for part in self.parts)

    def setup(self, seed):
        for part in self.parts:
            part.setup(seed)

    def make_input(self, rng):
        return [part.make_input(rng) for part in self.parts]

    def prepare(self, inp, path):
        for part, x in zip(self.parts, inp):
            if hasattr(part, "prepare"):
                part.prepare(x, path)

    def run(self, inp):
        return [part.run(x) for part, x in zip(self.parts, inp)]

    def check(self, inp, out):
        bad, rel = [], None
        for part, x, y in zip(self.parts, inp, out):
            problems, err = part.check(x, y)
            bad += [f"{part.name}: {msg}" for msg in problems]
            rel = err if err is not None else rel
        return bad, rel


# the benchmark's two workloads, then the cold workload's parts, which
# run.py can also run alone to see where the cold operation's time goes
WORKLOADS = {w.name: w for w in (ColdSequence, WarmShell2D, *ColdSequence.part_types)}
