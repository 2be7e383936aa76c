import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"

# A stand-in for `python -m centerfocus.cli COMMAND DOC --out OUT`: it
# writes REPORT, after sleeping first when SLEEP is set and the
# document's name holds "slow".
FAKE_CLI = """
import sys, time
if SLEEP and "slow" in sys.argv[2]:
    time.sleep(60)
open(sys.argv[4], "w").write(REPORT)
"""


def load_script():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkout(root: Path, sleep: bool, report: str = "{}") -> Path:
    package = root / "src" / "centerfocus"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        f"SLEEP = {sleep}\nREPORT = {report!r}\n{FAKE_CLI}")
    return root


def test_timeout_is_a_mismatch_and_later_runs_go_on(tmp_path, monkeypatch,
                                                    capsys):
    compare = load_script()
    base = fake_checkout(tmp_path / "base", sleep=False)
    head = fake_checkout(tmp_path / "head", sleep=True)
    docs = [tmp_path / name for name in ("slow.json", "fast.json")]
    monkeypatch.setattr(compare, "TIMEOUT_S", 2)
    monkeypatch.setattr(compare, "runs", lambda *args: [
        (doc.stem, "analyze", doc) for doc in docs])
    assert compare.main(["--base", str(base), "--head", str(head)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["MISMATCH slow: head timed out after 2 s",
                     json.dumps({"runs": 2, "mismatches": 1})]


def test_report_mismatch_names_the_first_moved_value(tmp_path, monkeypatch,
                                                     capsys):
    # -0.0 and 0.0 are equal as floats but not as reprs; the later
    # difference at "b" is not the first one
    compare = load_script()
    reports = [{"a": [1, {"x": -0.0, "y": 2}], "b": 1},
               {"a": [1, {"x": 0.0, "y": 3}], "b": 2}]
    base, head = (fake_checkout(tmp_path / name, sleep=False,
                                report=json.dumps(report))
                  for name, report in zip(("base", "head"), reports))
    monkeypatch.setattr(compare, "runs", lambda *args: [
        ("doc", "blowup", tmp_path / "doc.json")])
    assert compare.main(["--base", str(base), "--head", str(head)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "MISMATCH doc: report differs at a[1].x: -0.0 != 0.0",
        json.dumps({"runs": 1, "mismatches": 1})]


def test_first_difference_reads_absent_keys_and_items():
    compare = load_script()
    assert compare.first_difference({"a": [1, 2]}, {"a": [1, 2]}) is None
    assert compare.report_difference('{"a": [1]}', '{"a": [1, 2.5]}') == \
        " at a[1]: absent != 2.5"
    assert compare.report_difference('{"a": 1}', '{"b": 1}') == \
        " at a: 1 != absent"
    assert compare.report_difference(None, "{}") == ""
