"""The benchmark's own checks: generator, oracles and span arithmetic."""

from __future__ import annotations

import json

import pytest

import gen
import oracles
import tracing
from centerfocus.cli import main


def _item(workload, family, seed=1):
    return next(it for it in gen.make_workload(workload, seed)
                if it["family"] == family)


def _report(item, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(item["doc"]), encoding="ascii")
    out = tmp_path / "report.json"
    assert main([item["command"], str(doc), "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="ascii"))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert gen.make_workload(workload, 7) == gen.make_workload(workload, 7)
    assert gen.make_workload(workload, 7) != gen.make_workload(workload, 8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_families_for_every_seed(workload):
    first = [(it["family"], it["doc"]["truncation"])
             for it in gen.make_workload(workload, 1)]
    assert first == [(it["family"], it["doc"]["truncation"])
                     for it in gen.make_workload(workload, 2)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_cold_document_per_workload(workload):
    assert sum(it["cold"] for it in gen.make_workload(workload, 1)) == 1


def test_flipped_obstruction_sign_is_rejected(tmp_path):
    item = _item("real_lyapunov", "focus")
    report = _report(item, tmp_path)
    assert oracles.check(item, report) == []
    for row in report["sections"]["lyapunov"]["obstructions"]:
        if row["value"] != "0":
            row["value"] = (row["value"][1:] if row["value"][0] == "-"
                            else "-" + row["value"])
            break
    assert oracles.check(item, report)


def test_wrong_first_integral_term_is_rejected(tmp_path):
    item = _item("real_lyapunov", "ham")
    report = _report(item, tmp_path)
    rows = report["sections"]["lyapunov"]["first_integral"]
    rows[-1][2] = "7/3"
    assert oracles.check(item, report)


def test_r_out_off_by_1e6_is_rejected(tmp_path):
    item = _item("real_returnmap", "radial")
    report = _report(item, tmp_path)
    assert oracles.check(item, report) == []
    report["sections"]["return_maps"]["rows"][3]["r_out"] += 1e-6
    assert oracles.check(item, report)


def test_center_that_does_not_return_is_rejected(tmp_path):
    item = _item("real_returnmap", "ham")
    report = _report(item, tmp_path)
    assert oracles.check(item, report) == []
    report["sections"]["return_maps"]["rows"][0]["r_out"] *= 1 + 1e-6
    assert oracles.check(item, report)


def test_dropped_term_of_f_is_rejected(tmp_path):
    item = _item("holomorphic", "exact_dense")
    report = _report(item, tmp_path)
    assert oracles.check(item, report) == []
    f_rows = report["sections"]["factorization"]["f"]
    del f_rows[len(f_rows) // 2]
    assert oracles.check(item, report)


def test_moved_slice_sample_is_rejected(tmp_path):
    item = _item("holomorphic", "complexified_center")
    report = _report(item, tmp_path)
    report["sections"]["real_slice"]["samples"][0]["y"][1] += 1e-5
    assert oracles.check(item, report)


def test_slice_sample_far_out_is_rejected(tmp_path):
    # so far out that the truncation tail bounds nothing: the residual
    # check must fail, not pass unchecked
    item = _item("holomorphic", "exact_sparse")
    report = _report(item, tmp_path)
    assert oracles.check(item, report) == []
    report["sections"]["real_slice"]["samples"][0]["x"] = [5.0, 0.0]
    assert any("tolerance undefined" in p
               for p in oracles.check(item, report))


def test_wrong_germ_order_is_rejected(tmp_path):
    item = _item("holomorphic", "mobius")
    report = _report(item, tmp_path)
    assert oracles.check(item, report) == []
    report["sections"]["finite_order"]["order"] = 2
    assert oracles.check(item, report)


def test_polynomial_germ_orders_follow_sympy(tmp_path):
    items = [it for it in gen.make_workload("holomorphic", 3)
             if it["truth"].get("family") == "polynomial"]
    orders = set()
    for item in items:
        report = _report(item, tmp_path)
        assert oracles.check(item, report) == []
        orders.add(report["sections"]["finite_order"]["order"])
        report["sections"]["finite_order"]["order"] = 3
        assert oracles.check(item, report)
    # generic terms give no finite order; late nonresonant ones keep it
    assert None in orders and orders - {None}


def test_self_times_add_up_on_synthetic_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; [2, 3] inside the first
    spans = [["root", 0.0, 10.0, -1, "d", None],
             ["a", 1.0, 4.0, 0, "d", None],
             ["b", 2.0, 3.0, 1, "d", None],
             ["c", 5.0, 9.0, 0, "d", None]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_times_add_up_on_a_traced_document(tmp_path):
    item = _item("holomorphic", "exact_sparse")
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(item["doc"]), encoding="ascii")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_doc("0")
        main([item["command"], str(doc), "--out", str(tmp_path / "r.json")])
        tracer.end_doc()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert {s[0] for s in spans} >= {"cli.main", "cli.parse_spec",
                                     "foliation.factor_fg",
                                     "series.poly_mul"}
    root = spans[0][2] - spans[0][1]
    assert sum(tracing.self_times(spans)) == pytest.approx(root, rel=1e-9)
    assert all(st >= -1e-9 for st in tracing.self_times(spans))
    summary = tracer.summary(passes=1)
    metrics = tracing.layer_metrics(summary, docs_per_pass=1)
    layers = sum(metrics[f"self.{layer}_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(root, rel=1e-9)


def test_benchmark_json_matches_the_code():
    import run
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(n, run._unit(n)) for n in tracing.PER_LAYER_METRICS]
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == \
        set(run.UNITS.items())


def test_warm_child_runs_passes_on_request(tmp_path):
    import run
    items = [it for it in gen.make_workload("holomorphic", 1) if it["cold"]]
    docs = [str(p) for p in gen.write_workload(items, tmp_path / "docs")]
    job = {"commands": [it["command"] for it in items], "docs": docs,
           "expected_exit": [0], "out_dir": str(tmp_path / "reports")}
    with run.WarmChild(job, tmp_path, run._env(run.HERE.parent)) as child:
        assert child.setup_s > 0
        for _ in range(2):
            assert len(child.ask("pass")["doc_s"]) == 1
        result = child.ask("end")
    assert child.proc.returncode == 0
    assert result["passes"] == 2 and not result["wrong_exit"]
    # both passes give the same report, so one copy is kept
    assert len(result["reports"]) == 1


def test_docs_per_s_takes_each_documents_median():
    import run
    # medians 1 s and 3 s: two documents in 4 s
    assert run._docs_per_s([[1.0, 9.0, 1.0], [3.0, 2.0, 4.0]]) == 0.5
