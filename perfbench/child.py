"""Warm child: one interpreter that imports centerfocus and runs documents.

Run as `python child.py <job.json> <spawn instant>` with `src` on
PYTHONPATH.  The job file names each document with its command and
expected exit code, and where reports go.  After set-up the child prints
one JSON line, `{"setup_s": ...}`, then obeys commands read from stdin,
one a line, answering each with one JSON line:

  pass  run every document once; answers `{"doc_s": [...]}`, the wall
        time of each `main` call in pass order;
  end   answers with everything else it measured, then exits.

So the parent decides how many passes run and can run its cold processes
between passes, while this child waits.  Timing covers only the
`main([...])` calls.  Reading each report back, comparing it with earlier
passes and saving copies for the oracles happen between calls, outside
the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def report_key(text: str) -> str:
    """Hash of a report with its timestamp blanked."""
    report = json.loads(text)
    report["provenance"]["timestamp"] = ""
    return hashlib.sha256(json.dumps(report, sort_keys=True)
                          .encode()).hexdigest()


class Runner:
    """Runs whole passes over a job's documents and keeps their reports."""

    def __init__(self, job: dict, main):
        self.job, self.main = job, main
        self.out_dir = Path(job["out_dir"])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.scratch = self.out_dir / "current.report.json"
        self.seen: list[set] = [set() for _ in job["docs"]]
        self.reports: list[dict] = []
        self.wrong_exit: list[list] = []
        self.passes = 0
        self.tracer = None
        if job.get("trace"):
            import tracing
            self.tracer = tracing.Tracer()
            self.tracer.install()

    def run_pass(self) -> list[float]:
        job, tracer = self.job, self.tracer
        doc_s = []
        for idx, (command, path) in enumerate(zip(job["commands"],
                                                  job["docs"])):
            if tracer:
                tracer.begin_doc(f"{self.passes}:{idx}")
            t = time.perf_counter()
            rc = self.main([command, path, "--out", str(self.scratch)])
            doc_s.append(time.perf_counter() - t)
            if tracer:
                tracer.end_doc()
            if rc != job["expected_exit"][idx]:
                self.wrong_exit.append([self.passes, idx, rc])
                continue
            text = self.scratch.read_text(encoding="ascii")
            key = report_key(text)
            if key not in self.seen[idx]:
                saved = (self.out_dir
                         / f"{idx:02d}.pass{self.passes}.report.json")
                saved.write_text(text, encoding="ascii")
                self.seen[idx].add(key)
                self.reports.append({"doc": idx, "pass": self.passes,
                                     "path": str(saved)})
        self.passes += 1
        return doc_s

    def finish(self) -> dict:
        self.scratch.unlink(missing_ok=True)
        result = {
            "passes": self.passes,
            "wrong_exit": self.wrong_exit,
            "reports": self.reports,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        if self.tracer:
            self.tracer.uninstall()
            result["trace"] = self.tracer.summary(self.passes)
            result["trace"]["gr_ops"] = self._count_gr_ops()
            Path(self.job["spans_path"]).write_text(
                json.dumps({"spans": self.tracer.span_table()}),
                encoding="ascii")
            self.scratch.unlink(missing_ok=True)
        return result

    def _count_gr_ops(self) -> int:
        """GaussianRational + - * / per pass, from one separate pass.

        Counting every scalar operation would distort the layer times, so
        the timed passes run without it.
        """
        import tracing
        with tracing.count_gr_ops() as counter:
            for command, path in zip(self.job["commands"], self.job["docs"]):
                self.main([command, path, "--out", str(self.scratch)])
        return counter[0]


def serve(job: dict, t0: float, commands, reply) -> None:
    """Set up, answer one line, then obey `commands`; t0 is the spawn."""
    from centerfocus.cli import main, parse_spec

    for path in job["docs"]:
        parse_spec(path)

    def answer(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    answer({"setup_s": time.monotonic() - t0})
    if job.get("setup_only"):
        return
    runner = Runner(job, main)
    for line in commands:
        if line.strip() == "pass":
            answer({"doc_s": runner.run_pass()})
        elif line.strip() == "end":
            answer(runner.finish())
            return
        else:
            raise SystemExit(f"unknown command {line!r}")
    raise SystemExit("stdin closed before `end`")


if __name__ == "__main__":
    job = json.loads(Path(sys.argv[1]).read_text(encoding="ascii"))
    # answers go to the original stdout alone; anything the program
    # prints goes to stderr
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    serve(job, float(sys.argv[2]), sys.stdin, reply)
