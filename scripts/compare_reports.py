"""Compare the reports of two checkouts of centerfocus, run by run.

    python3 scripts/compare_reports.py --base OLD --head NEW --seeds 1 2 3

OLD and NEW are checkout roots (each holding src/centerfocus).  The
script runs, in a fresh `python -m centerfocus.cli` process per run and
checkout:

  * every fixture of NEW's tests/fixtures under every command, the
    pairs the command rejects included (they must fail the same way);
  * every document of `perfbench/gen.make_workload`, taken from NEW, for
    each workload and seed, under the document's own command, and each
    `slice` document under `blowup` and `analyze` too, since no workload
    runs the blow-up.

The two processes of a run, one per checkout, run side by side, each
writing its own report file.  A run matches when the exit code, stderr
(with the checkout root written as <root>) and the report (with its
timestamp blanked) are the same in both checkouts.  A run that takes
longer than TIMEOUT_S seconds in either checkout is stopped and counts
as a mismatch.  Each mismatch is printed, a report mismatch with the
first JSON path at which the two reports differ and both values there
(floats compared by repr, so that the sign of a zero shows); the exit
status is 1 if there is any mismatch, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ("analyze", "lyapunov", "returnmap", "blowup", "germ", "slice")
WORKLOADS = ("real_lyapunov", "holomorphic", "real_returnmap")
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
TIMEOUT_S = 600
# commands run on a workload document besides its own
ALSO = {"slice": ("blowup", "analyze")}
ABSENT = object()  # a key or list item that one report does not have


def runs(head: Path, seeds: list[int], work: Path) -> list[tuple]:
    """(label, command, document path) of every run, documents written
    under `work`."""
    out = [(f"{path.stem} {command}", command, path)
           for path in sorted((head / "tests" / "fixtures").glob("*.json"))
           for command in COMMANDS]
    sys.path.insert(0, str(head / "perfbench"))
    import gen
    for workload in WORKLOADS:
        for seed in seeds:
            items = gen.make_workload(workload, seed)
            paths = gen.write_workload(items, work / f"{workload}-{seed}")
            out += [(f"{workload} seed {seed} {item['id']} {command}",
                     command, path) for item, path in zip(items, paths)
                    for command in (item["command"],
                                    *ALSO.get(item["command"], ()))]
    return out


def start(root: Path, command: str, doc: Path,
          out: Path) -> subprocess.Popen:
    """A cold `centerfocus.cli` process of `root` on one run, writing its
    report to `out`."""
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.Popen(
        [sys.executable, "-m", "centerfocus.cli", command, str(doc),
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def finish(proc: subprocess.Popen, root: Path, out: Path,
           deadline: float) -> tuple | None:
    """(exit code, stderr, report text or None) of a started run, or None
    when it is still running at `deadline` (then it is stopped)."""
    try:
        _, stderr = proc.communicate(
            timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    report = TIMESTAMP.sub('"timestamp": ""', out.read_text()) \
        if out.exists() else None
    return proc.returncode, stderr.replace(str(root), "<root>"), report


def run_pair(roots: tuple[Path, Path], command: str, doc: Path,
             work: Path) -> list:
    """The results of one run in each checkout, run side by side."""
    outs = [work / f"report-{k}.json" for k in range(len(roots))]
    procs = [start(root, command, doc, out) for root, out in zip(roots, outs)]
    deadline = time.monotonic() + TIMEOUT_S
    return [finish(proc, root, out, deadline)
            for proc, root, out in zip(procs, roots, outs)]


def first_difference(base, head, path: str = "") -> tuple | None:
    """(JSON path, base value, head value) at the first place, in document
    order, where two parsed reports differ, or None; a key or item only
    one side has is ABSENT on the other, and leaves compare by repr."""
    if isinstance(base, dict) and isinstance(head, dict):
        items = [(f"{path}.{key}" if path else key, base.get(key, ABSENT),
                  head.get(key, ABSENT)) for key in {**base, **head}]
    elif isinstance(base, list) and isinstance(head, list):
        pad = [ABSENT] * abs(len(base) - len(head))  # to the longer one
        items = [(f"{path}[{k}]", b, h)
                 for k, (b, h) in enumerate(zip(base + pad, head + pad))]
    else:
        return None if repr(base) == repr(head) else (path, base, head)
    return next(filter(None, (first_difference(b, h, at)
                              for at, b, h in items)), None)


def report_difference(base: str | None, head: str | None) -> str:
    """' at PATH: B != H' for the first difference of two report texts,
    or '' when either is missing or no parsed value differs."""
    try:
        found = first_difference(json.loads(base), json.loads(head))
    except (TypeError, ValueError):
        return ""
    if found is None:
        return ""
    path, b, h = found
    b, h = ("absent" if v is ABSENT else json.dumps(v) for v in (b, h))
    return f" at {path}: {b} != {h}"


def differences(base: tuple | None, head: tuple | None) -> list[str]:
    if base is None or head is None:
        return [f"{name} timed out after {TIMEOUT_S} s"
                for name, got in (("base", base), ("head", head))
                if got is None]
    names = ("exit code", "stderr", "report")
    details = {"exit code": lambda b, h: f": {b} != {h}",
               "stderr": lambda b, h: "", "report": report_difference}
    return [f"{name} differs" + details[name](b, h)
            for name, b, h in zip(names, base, head) if b != h]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        todo = runs(head, args.seeds, work)
        for label, command, doc in todo:
            lines = differences(*run_pair((base, head), command, doc, work))
            mismatches += bool(lines)
            for line in lines:
                print(f"MISMATCH {label}: {line}", flush=True)
    print(json.dumps({"runs": len(todo), "mismatches": mismatches}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
