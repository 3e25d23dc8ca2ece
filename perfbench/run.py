"""Benchmark of bezproj: two closed-loop workloads, checked and timed.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in fresh processes
(perfbench/worker.py) with one caller and one thread, and bezproj is
imported from the checkout's ``src``. With ``--trace 0`` the command
prints the end-to-end metrics; with ``--trace 1`` it runs the workload
in one process whose operations alternate between traced and untraced,
and prints the per-layer metrics of the traced ones and the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import metric_names  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

WORKLOADS = ("cold-project-transfer-extract", "warm-shell-2d")
# the cold workload's parts, which can be run alone to see where its time goes
PARTS = ("cold-project-1d", "transfer-2d", "extract-exact-tmesh")

# set-up is timed in this many fresh processes (the measuring one included)
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
# beyond the measured seconds: set-up, the operations in flight, checks
MEASURE_GRACE_S = 90

END_TO_END = {  # name -> unit
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "elements_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def tail(samples, beyond=10):
    """Value at the highest percentile with at least `beyond` samples above it.

    Returns (value, percentile); value is None with fewer than beyond + 1
    samples.
    """
    n = len(samples)
    if n <= beyond:
        return None, None
    k = n - beyond - 1
    return sorted(samples)[k], 100.0 * (k + 1) / n


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "bezproj")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def spawn(workload, seed, seconds, mode, trace=0):
    """Run one worker process; returns its record with setup_s added."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode, "--trace", str(trace),
    ]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else seconds + MEASURE_GRACE_S
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_op_at"] - started
    return record


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup_times(workload, seed, seconds, count):
    return [spawn(workload, seed, seconds, "setup")["setup_s"] for _ in range(count)]


def end_to_end(workload, seed, seconds):
    # set-up processes run before and after the measuring one, so that
    # their median spans more of the host's slow and fast phases
    before = _setup_times(workload, seed, seconds, (SETUP_RUNS - 1) // 2)
    run = spawn(workload, seed, seconds, "measure")
    setups = before + [run["setup_s"]] + _setup_times(workload, seed, seconds, SETUP_RUNS // 2)
    samples = run["samples_ms"]
    if not samples:
        raise WorkerFailed(f"{workload}: every operation failed: {run['failures']}")
    tail_ms, pct = tail(samples)
    if tail_ms is None:
        raise WorkerFailed(f"{workload}: {len(samples)} samples are too few for op_tail_ms")
    values = {
        "op_p50_ms": statistics.median(samples),
        "op_tail_ms": tail_ms,
        "elements_per_s": run["elements"] * len(samples) / (sum(samples) / 1e3),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    counts = {
        "op_p50_ms": f"n={len(samples)}",
        "op_tail_ms": f"p{pct:.1f}, n={len(samples)}, 10 beyond",
        "elements_per_s": f"{run['elements']} elements x n={len(samples)} ops / summed op time",
        "setup_s": f"median of n={len(setups)} processes",
        "peak_rss_mb": "n=1 process",
    }
    extra = {
        "fail_frac": run["failed"] / run["attempted"],
        "op_tail_percentile": pct,
        "setup_samples_s": setups,
    }
    if run["rel_l2_err"]:  # the projection workloads
        extra["rel_l2_err"] = statistics.median(run["rel_l2_err"])
    return run, metrics, counts, extra


def per_layer(workload, seed, seconds):
    traced = spawn(workload, seed, seconds, "measure", trace=1)
    plain = traced["untraced_samples_ms"]
    if not plain or not traced["samples_ms"]:
        raise WorkerFailed(f"{workload}: every operation failed: {traced['failures']}")
    p50_plain = statistics.median(plain)
    p50_traced = statistics.median(traced["samples_ms"])
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = p50_traced / p50_plain - 1.0
    units = {}
    for name in metric_names():
        stat = name.rsplit(".", 1)[1]
        units[name] = {"self_ms": "ms", "overhead_frac": "ratio"}.get(stat, "count")
    metrics = {name: _metric(values[name], units[name]) for name in metric_names()}
    counts = {name: f"per traced op, n={len(traced['samples_ms'])}" for name in metrics}
    counts["trace.overhead_frac"] = (
        f"p50 {p50_traced:.2f} ms traced (n={len(traced['samples_ms'])}) / "
        f"{p50_plain:.2f} ms untraced (n={len(plain)}), alternating in one process"
    )
    return traced, metrics, counts, {"absent_layers": traced["absent"]}


def run_workload(workload, seed, seconds, trace):
    measure = per_layer if trace else end_to_end
    run, metrics, counts, extra = measure(workload, seed, seconds)
    print(f"== {workload}  seed {seed}  {seconds:g} s  trace {trace}  "
          f"ops {run['attempted']} ({run['failed']} failed)")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']:6s} {counts[name]}")
    for name in ("fail_frac", "rel_l2_err"):
        if name in extra:
            print(f"  {name:48s} {extra[name]:14.6g}")
    if extra.get("absent_layers"):
        print(f"  absent layers: {', '.join(extra['absent_layers'])}")
    for msg in run["failures"]:
        print(f"  FAILED {msg}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "env": run["env"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "sample_counts": counts,
        **extra,
    }
    print("record " + json.dumps(record))
    return run, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS, *PARTS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bezproj", "__init__.py")):
        sys.exit(f"no bezproj sources under {os.path.join(ROOT, 'src')}; "
                 "run from the root of a bezproj checkout")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            run, m = run_workload(name, args.seed, args.seconds, args.trace)
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
    except WorkerFailed as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
