"""A warm process holds its memory flat across documents.

Two things made the peak grow with every document in CPython 3.11:

* `f(*<generator>)` and `tuple(<generator>)` allocate a 10-slot tuple and
  shrink it; freed, the shrunk tuple parks on the free list of its true
  size, which nothing drains, until every list holds 2000 tuples.  The
  program builds such tuples from lists or literals instead
  (`test_no_tuple_from_a_generator`).
* a `pathlib.Path` per document interns its components anew once the
  last one died, and the interpreter's table of interned names, filled
  with deleted slots, is rebuilt at about 400 KiB a time.  The command
  line reads and writes with `open`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "centerfocus").glob("*.py"))


def tuples_from_generators(source: str) -> list[int]:
    """The lines of the calls in `source` that build a tuple from a
    generator expression: a starred generator argument, or
    `tuple(<generator>)`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        starred = [a.value for a in node.args if isinstance(a, ast.Starred)]
        built = node.args if isinstance(node.func, ast.Name) \
            and node.func.id == "tuple" else []
        if any(isinstance(a, ast.GeneratorExp) for a in starred + built):
            lines.append(node.lineno)
    return sorted(lines)


def test_lint_flags_each_form():
    source = ("f(*(x for x in y))\ng(1, *(x for x in y))\n"
              "tuple(x for x in y)\n"
              "f(*[x for x in y])\ntuple([x for x in y])\nf(*y)\n"
              "(*(x for x in y), 1)\nmax(x for x in y)\n")
    assert tuples_from_generators(source) == [1, 2, 3]


def test_no_tuple_from_a_generator():
    found = {path.name: tuples_from_generators(path.read_text())
             for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


# Runs `slice` on one document again and again in one interpreter and
# prints the peak resident set (kB) after each run that argv names.  The
# peak is the process's own, VmHWM: `ru_maxrss` keeps, across the exec,
# the peak of the forked test runner, which is larger than this one's.
_REPEAT = """
import json, sys
from centerfocus.cli import main
fixture, out, marks = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
peaks = {}
for run in range(1, max(marks) + 1):
    assert main(["slice", fixture, "--out", out]) == 0
    if run in marks:
        with open("/proc/self/status") as fh:
            peaks[run] = next(int(line.split()[1]) for line in fh
                              if line.startswith("VmHWM:"))
print(json.dumps(peaks))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc")
def test_peak_memory_is_flat_over_repeated_documents(tmp_path):
    """Runs 50 to 200 of `slice` raise the peak by at most 128 kB (it
    rose by 270-510 kB while each run parked tuples on the free lists
    and churned the interned-name table)."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPEAT,
         str(ROOT / "tests" / "fixtures" / "product_form_perturbed.json"),
         str(tmp_path / "report.json"), json.dumps([50, 200])],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    peaks = json.loads(proc.stdout)
    assert peaks["200"] - peaks["50"] <= 128, peaks
