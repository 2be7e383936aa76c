"""centerfocus benchmark: seeded documents, CLI workloads, oracles.

Run from the root of a checkout (src/centerfocus must be there):

    python3 perfbench/run.py --workload real_lyapunov --seed 1
    python3 perfbench/run.py --workload holomorphic --trace 1
    python3 perfbench/run.py            # every workload, default seed

One run writes the workload's documents, then, one process computing at
a time:
  * starts the warm child, which imports centerfocus.cli and parses every
    document (its set-up time is one `setup_s` sample),
  * has it run whole passes of `main([<command>, doc, "--out", tmp])`
    until the timed calls add up to --seconds (default: `run_seconds` of
    BENCHMARK.json),
  * after each pass, while the child waits, runs the next of PROBES, as
    many as keep them in step with the share of --seconds timed so far:
    a cold `python -m centerfocus.cli` process on the workload's cold
    document, or a fresh interpreter that only sets up,
  * checks every distinct report against the oracles in this process.
With --trace 1 the warm child wraps the program's public functions and
the run prints the per-layer metrics instead; no end-to-end metric comes
from a traced run, and no probe runs.  The last line of output is one
JSON object.  A run whose documents fail or whose reports differ between
passes prints `"correct": false` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import oracles
import tracing
from child import report_key
from exact import height_bits, parse_coeff

HERE = Path(__file__).resolve().parent
# What the parent runs between warm passes, in turn, while the warm
# child waits: after each pass, as many as keep the probes done in step
# with the share of --seconds timed so far.  Spread over the whole run,
# they meet the same fast and slow phases of the host as the passes do.
PROBES = ("cold", "setup", "cold", "cold", "cold", "setup", "cold", "cold")
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
EXIT_TIMEOUT_S = 10


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed document)."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class WarmChild:
    """child.py driven one pass at a time over its stdin and stdout.

    While it waits for its next command the child uses no CPU, so the
    parent's cold processes run between passes without two processes
    computing at once.  Leaving the `with` block always ends the child.
    """

    def __init__(self, job: dict, work: Path, env: dict):
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="ascii")
        self.err_path = work / "child.err"
        with open(self.err_path, "w", encoding="utf-8") as err:
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path),
                 repr(t0)], env=env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        self.setup_s = self._answer()["setup_s"]

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            err = self.err_path.read_text(encoding="utf-8", errors="replace")
            raise BenchError(f"warm child ended (exit {self.proc.returncode})"
                             f":\n{err[-2000:]}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._answer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.watchdog.cancel()
        # a child that waits for a command exits when its stdin closes
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _setup_sample(job_path: Path, env) -> float:
    """Set-up seconds of a fresh child that only sets up."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                           str(job_path), repr(t0)], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _cold_run(command, doc, out, env) -> tuple:
    """One cold CLI process: (seconds, exit code)."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "centerfocus.cli",
                           command, doc, "--out", str(out)], env=env,
                          capture_output=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - t, proc.returncode


_EXACT = re.compile(r"-?\d+(/\d+)?|-?\d+(/\d+)?\+-?\d+(/\d+)? i")
_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times(env) -> dict:
    """Cumulative import seconds from `python -X importtime`.

    A package's time is the sum of the cumulative times of its outermost
    entries, the imports of it made from outside the package; `total` is
    that of centerfocus itself.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import centerfocus.cli"], env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
    out = {"centerfocus": 0, "numpy": 0, "scipy": 0, "sympy": 0}
    stack: list[tuple[int, str]] = []  # (indent, top-level package)
    # importtime prints a module after the modules it imports; read the
    # lines backwards so that every parent comes before its children
    for line in reversed(proc.stderr.splitlines()):
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, indent = int(m.group(2)), len(m.group(3))
        top = m.group(4).split(".")[0]
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else None
        stack.append((indent, top))
        if top in out and parent != top:
            out[top] += cumulative
    out["total"] = out.pop("centerfocus")
    return {k: v / 1e6 for k, v in out.items()}


def _import_metrics(env) -> dict:
    samples = [import_times(env) for _ in range(IMPORT_SAMPLES)]
    return {f"import.{k}_s": statistics.median(s[k] for s in samples)
            for k in ("total", "scipy", "sympy", "numpy")}


def _coeff_bits(node) -> int:
    """Largest numerator or denominator bit length among exact entries."""
    if isinstance(node, dict):
        return max((_coeff_bits(v) for k, v in node.items()
                    if k != "provenance"), default=0)
    if isinstance(node, list):
        return max((_coeff_bits(v) for v in node), default=0)
    if isinstance(node, str) and _EXACT.fullmatch(node):
        return height_bits(parse_coeff(node))
    return 0


def _load(path) -> dict:
    return json.loads(Path(path).read_text(encoding="ascii"))


def _check_reports(items, reports, cold_reports):
    """Oracle verdicts on every distinct report.

    Returns the indices of failing documents, their problems, and the
    problems that are not a whole failed document (a report that changes
    between passes, a bad cold report).
    """
    failing: set[int] = set()
    doc_problems: list[str] = []
    inconsistent: list[str] = []
    per_doc: dict[int, int] = {}
    for rep in reports:
        idx = rep["doc"]
        per_doc[idx] = per_doc.get(idx, 0) + 1
        found = oracles.check(items[idx], _load(rep["path"]))
        if found:
            failing.add(idx)
            doc_problems += [f"{items[idx]['id']}: {p}" for p in found]
    for idx, count in per_doc.items():
        if count > 1:
            inconsistent.append(f"{items[idx]['id']}: {count} different "
                                "reports across passes")
    for idx, path in cold_reports:
        found = oracles.check(items[idx], _load(path))
        inconsistent += [f"cold {items[idx]['id']}: {p}" for p in found]
    return failing, doc_problems, inconsistent


def _docs_per_s(doc_s: list[list[float]]) -> float:
    """Documents per second at each document's median time over passes."""
    return len(doc_s) / sum(statistics.median(ts) for ts in doc_s)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    env = _env(root)
    out_root = HERE / "out"
    work = out_root / f"work-{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        items = gen.make_workload(workload, seed)
        docs = [str(p) for p in gen.write_workload(items, work / "docs")]
        expected = [it["expected_exit"] for it in items]
        job = {"commands": [it["command"] for it in items], "docs": docs,
               "expected_exit": expected, "out_dir": str(work / "reports")}
        setup_job = work / "setup-job.json"
        setup_job.write_text(json.dumps({"docs": docs, "setup_only": True}),
                             encoding="ascii")
        cold_idx = next(i for i, it in enumerate(items) if it["cold"])
        setups, colds = [], []

        def probe(kind):
            if kind == "setup":
                setups.append(_setup_sample(setup_job, env))
            else:
                out = work / f"cold{len(colds)}.report.json"
                colds.append(_cold_run(items[cold_idx]["command"],
                                       docs[cold_idx], out, env) + (out,))

        if trace:
            metrics = _import_metrics(env)
            job["trace"] = True
            job["spans_path"] = str(out_root /
                                    f"trace-{workload}-seed{seed}.json")
        probes = [] if trace else list(PROBES)
        doc_s: list[list[float]] = [[] for _ in docs]
        with WarmChild(job, work, env) as child:
            setups.append(child.setup_s)
            wall = 0.0
            while not doc_s[0] or wall < seconds:
                times = child.ask("pass")["doc_s"]
                wall += sum(times)
                for per_doc, t in zip(doc_s, times):
                    per_doc.append(t)
                while probes and (len(PROBES) - len(probes)
                                  < len(PROBES) * wall / seconds):
                    probe(probes.pop(0))
            result = child.ask("end")

        cold_reports, cold_problems = [], []
        if trace:
            summary = result["trace"]
            metrics.update(tracing.layer_metrics(summary, len(docs)))
            metrics["series.gr_ops"] = summary["gr_ops"]
            metrics["trace.docs_per_s"] = _docs_per_s(doc_s)
            metrics["series.coeff_bits_max"] = max(
                (_coeff_bits(_load(rep["path"])) for rep in result["reports"]),
                default=0)
            unknown = set(metrics) - set(tracing.PER_LAYER_METRICS)
            if unknown:
                raise BenchError(f"undeclared metrics {sorted(unknown)}: "
                                 "a swept call ran at an order no plan "
                                 "names")
            metrics = {k: metrics.get(k, 0)
                       for k in tracing.PER_LAYER_METRICS}
        else:
            distinct = {}  # identical cold reports get one oracle check
            for _, rc, out in colds:
                if rc == expected[cold_idx]:
                    distinct.setdefault(
                        report_key(out.read_text(encoding="ascii")), out)
                else:
                    cold_problems.append(f"cold {items[cold_idx]['id']}: "
                                         f"exit {rc}")
            cold_reports = [(cold_idx, out) for out in distinct.values()]
            metrics = {
                "setup_s": statistics.median(setups),
                "docs_per_s": _docs_per_s(doc_s),
                "cli_cold_s": statistics.median(dt for dt, _, _ in colds),
                "peak_rss_mb": result["peak_rss_mb"],
            }
        failing, doc_problems, inconsistent = _check_reports(
            items, result["reports"], cold_reports)
        for p, idx, rc in result["wrong_exit"]:
            failing.add(idx)
            doc_problems.append(f"{items[idx]['id']}: exit {rc} in pass "
                                f"{p}, expected {expected[idx]}")
        inconsistent += cold_problems
        for p in doc_problems + inconsistent:
            print(f"[{workload}] {p}", file=sys.stderr)
        # every pass runs the same documents: a failing one fails each time
        passes = result["passes"]
        return {"correct": not (failing or inconsistent),
                "attempted": passes * len(docs),
                "failed": len(failing) * passes, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


UNITS = {"setup_s": "s", "docs_per_s": "1/s", "cli_cold_s": "s",
         "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s.N" in name:
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def result_line(result: dict) -> str:
    metrics = {k: {"value": v, "unit": _unit(k)}
               for k, v in sorted(result["metrics"].items())}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _run_seconds() -> float:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return float(bench["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "centerfocus" / "cli.py").is_file():
        print("error: run from the root of a centerfocus checkout "
              "(src/centerfocus/cli.py not found)", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    status = 0
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace), root)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        line = result_line(result)
        print(line if args.workload else f"{workload}: {line}", flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
