"""Repeat benchmark runs over seeds and summarize their spread.

    python3 perfbench/repeat.py --workload holomorphic --runs 10
    python3 perfbench/repeat.py --workload real_lyapunov --first-seed 101

Runs `perfbench/run.py` untraced at its default run length (`run_seconds`
of BENCHMARK.json) once per seed (first-seed, first-seed + 1, ...), one
process at a time.  It prints each run's wall time and metrics, then for
every end-to-end metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        t = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed} ({time.monotonic() - t:.0f} s): "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)
    names = sorted(runs[0]["metrics"])
    summary = {n: summarize([r["metrics"][n]["value"] for r in runs])
               for n in names}
    for n, s in summary.items():
        print(f"{n:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares seen: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
