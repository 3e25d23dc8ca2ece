"""One workload process: set up, warm up, then time operations in a closed loop.

Started by run.py, one process per workload run, with one caller and one
thread. Prints one JSON line. In ``setup`` mode the process stops just
before its first timed operation; run.py times several such processes
to measure set-up. With ``--trace 1`` the operations alternate between
traced (wrappers in, spans recorded) and untraced (original functions),
so that the tracing overhead is measured in pairs under the same host
conditions.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode measure|setup --trace 0|1
"""

import os

# The BLAS and OpenMP pools read these when numpy loads. With the
# default two-thread OpenBLAS the first extraction in a fresh process
# took 0.71 s, against 0.03 s with one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# At least this many timed operations, so that op_tail_ms has ten
# samples beyond it even when an operation takes longer than the run.
MIN_OPS = 20
WARMUP, OPS = 0, 1  # random streams of the warm-up and of the timed operations


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    """Thread setting and versions, written into every result record."""
    import numpy as np

    blas = None
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    import bezproj

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "compiled_kernels": getattr(bezproj, "COMPILED", None),
    }


def _import_bezproj():
    src = os.path.join(ROOT, "src")
    import bezproj

    where = os.path.realpath(bezproj.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"bezproj was imported from {where}, not from {src}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_bezproj()
    import numpy as np

    import workloads

    recorder = layer_list = patches = None
    absent = []
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        layer_list = tracing.layers()
        absent, patches = tracing.install(recorder, layer_list)

    seed = args.seed % 2**63
    work = workloads.WORKLOADS[args.workload]()
    work.setup(seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = os.path.join(tmp, "op.json")

        def make_input(stream, *index):
            inp = work.make_input(np.random.default_rng([seed, stream, *index]))
            if hasattr(work, "prepare"):
                work.prepare(inp, path)
            return inp

        work.run(make_input(WARMUP))  # discarded: finishes lazy set-up

        samples, plain_samples, rel_errs, failures = [], [], [], []
        attempted = failed = 0
        first_op_at = deadline = None
        while deadline is None or attempted < MIN_OPS or time.perf_counter() < deadline:
            inp = make_input(OPS, attempted)
            gc.collect()
            if first_op_at is None:
                first_op_at = time.monotonic()
                if args.mode == "setup":
                    break
                deadline = time.perf_counter() + args.seconds
            traced = recorder is not None and attempted % 2 == 0
            if patches:
                patches.set(traced)
            if traced:
                recorder.begin_op()
            t0 = time.perf_counter()
            try:
                out = work.run(inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                out, problems = None, [f"raised {exc!r}"]
            dt = time.perf_counter() - t0
            if traced:
                recorder.end_op()
            attempted += 1
            if out is not None:
                try:
                    problems, rel = work.check(inp, out)
                except Exception as exc:
                    problems, rel = [f"check raised {exc!r}"], None
                if rel is not None:
                    rel_errs.append(rel)
            if problems:
                failed += 1
                failures.append(f"op {attempted - 1}: " + "; ".join(problems))
            else:
                untraced = recorder is not None and not traced
                (plain_samples if untraced else samples).append(1e3 * dt)

    result = {"first_op_at": first_op_at}
    if args.mode == "measure":
        result.update(
            elements=work.elements,
            samples_ms=samples,
            attempted=attempted,
            failed=failed,
            failures=failures[:5],
            rel_l2_err=rel_errs,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(),
        )
        if recorder:
            result["layers"] = recorder.summarise(layer_list)
            result["absent"] = absent
            result["untraced_samples_ms"] = plain_samples
    print(json.dumps(result))


if __name__ == "__main__":
    main()
