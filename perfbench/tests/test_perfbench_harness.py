"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import OPS, WARMUP  # noqa: E402

COLD_PARTS = workloads.ColdSequence.part_types
PROJECTIONS = (workloads.ColdProject1D, workloads.WarmShell2D)


def _input(work, seed, stream, *index):
    return work.make_input(np.random.default_rng([seed, stream, *index]))


def _workload(cls, seed=7):
    work = cls()
    work.setup(seed)
    return work


def _flat(value):
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in [key, *_flat(value[key])]]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _flat(item)]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    return [value]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.tail(samples) == (90, 90.0)
    value, pct = run.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    assert run.tail(list(range(10))) == (None, None)


def test_tail_reads_slow_outliers_only_when_ten_are_beyond():
    samples = [1.0] * 95 + [50.0] * 5
    assert run.tail(samples)[0] == 1.0
    assert run.tail([1.0] * 89 + [50.0] * 11)[0] == 50.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_nests_spans_and_counts_a_doubly_wrapped_call_once():
    rec = tracing.Recorder()
    leaf = tracing.Layer("x.leaf", "function", "leaf", ("calls", "points", "self_ms"),
                         amount_stat="points", amount=tracing._result_rows)
    outer = tracing.Layer("x.outer", "function", "outer", ("calls", "self_ms"))
    leaf_fn = rec.wrap(leaf, rec.wrap(leaf, lambda n: [0] * n))
    outer_fn = rec.wrap(outer, lambda: leaf_fn(3) + leaf_fn(4))
    outer_fn()  # outside an operation: not recorded
    rec.begin_op()
    outer_fn()
    rec.end_op()
    assert list(rec.parent) == [-1, 0, 0]
    got = rec.summarise([leaf, outer])
    assert got["x.leaf.calls"] == 2 and got["x.leaf.points"] == 7
    assert got["x.outer.calls"] == 1
    assert got["x.outer.self_ms"] >= 0 and got["x.leaf.self_ms"] >= 0


def test_install_wraps_by_name_imports_and_reports_absent_layers():
    import bezproj
    from bezproj import spline_space, tensor

    rec = tracing.Recorder()
    gone = tracing.Layer("x.gone", "function", "no_such_function", ("calls",))
    layer_list = tracing.layers() + [gone]
    original = tensor.reversed_kron
    absent, patches = tracing.install(rec, layer_list)
    try:
        assert absent == ["x.gone"]
        assert spline_space.reversed_kron is tensor.reversed_kron is bezproj.reversed_kron
        assert tensor.reversed_kron is not original
        wrapper = tensor.reversed_kron
        rec.begin_op()
        spline_space.reversed_kron([np.eye(2), np.eye(3)])
        rec.end_op()
        patches.set(False)  # untraced operations call the originals
        assert spline_space.reversed_kron is tensor.reversed_kron is original
        patches.set(True)
        assert spline_space.reversed_kron is wrapper
    finally:
        patches.set(False)
    got = rec.summarise(layer_list)
    assert got["tensor.reversed_kron.calls"] == 1
    assert got["x.gone.calls"] == 0


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()), ids=list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(cls):
    a = _flat(_input(_workload(cls), 3, OPS, 5))
    b = _flat(_input(_workload(cls), 3, OPS, 5))
    c = _flat(_input(_workload(cls), 4, OPS, 5))
    assert a == b
    assert a != c


@pytest.mark.parametrize("cls", PROJECTIONS, ids=lambda cls: cls.name)
def test_same_seed_gives_identical_rel_l2_err(cls):
    errs = []
    for _ in range(2):
        work = _workload(cls)
        inp = _input(work, 3, OPS, 0)
        out = work.run(inp)
        problems, err = work.check(inp, out)
        assert problems == []
        errs.append(err)
    assert errs[0] == errs[1]


def _breakpoint_values(name, inp):
    if name == workloads.ExtractExactTmesh.name:
        spline = json.loads(inp["spline_json"])
        mesh = json.loads(inp["tmesh_json"])
        values = [u for kv in spline["knot_vectors"] for u in kv[4:-4]]
        return values + [u for G in mesh["knot_vectors"] for u in G[4:-4]]
    return [float(u) for bp in np.atleast_2d(inp["breakpoints"]) for u in bp[1:-1]]


def test_cold_ops_share_no_breakpoint_values():
    work = _workload(workloads.ColdSequence)
    inputs = [_input(work, 11, WARMUP)] + [_input(work, 11, OPS, i) for i in range(150)]
    seen = set()
    for i, inp in enumerate(inputs):
        values = {v for part, x in zip(COLD_PARTS, inp) for v in _breakpoint_values(part.name, x)}
        assert not values & seen, f"op {i} reuses a breakpoint value"
        seen |= values


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
