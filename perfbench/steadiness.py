"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 0-9] [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one after the
other, and prints for each metric the median of the runs and the
distance between the first and third quartiles as a share of that
median (``statistics.quantiles(values, n=4)``). With --out, every
run's final JSON line is appended to FILE as it arrives.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            print(f"  {name:16s} median {med:12.6g}  IQR/median {rel:7.4f}  "
                  f"min {min(values):.6g}  max {max(values):.6g}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
