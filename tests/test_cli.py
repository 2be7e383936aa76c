import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from centerfocus.cli import (
    ParseError,
    ValidationError,
    _STAGES,
    format_coefficient,
    main,
    parse_coefficient,
    parse_spec,
    render_report,
    run_pipeline,
)
from centerfocus.series import gr

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def normalize(report):
    """Round floats and drop the timestamp so runs compare structurally."""
    def walk(node):
        if isinstance(node, dict):
            return {k: ("TIMESTAMP" if k == "timestamp" else walk(v))
                    for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        if isinstance(node, float):
            return float(f"{node:.9g}")
        return node
    return walk(report)


class TestCoefficientFormat:
    def test_real_round_trip(self):
        for text in ("1", "-3/4", "0", "12/7"):
            c = parse_coefficient(text, "t")
            assert parse_coefficient(format_coefficient(c), "t") == c

    def test_complex_round_trip(self):
        for text in ("1/2+-3/4 i", "0+1 i", "-2+5/3 i"):
            c = parse_coefficient(text, "t")
            assert not c.is_real
            assert parse_coefficient(format_coefficient(c), "t") == c

    def test_bad_coefficient(self):
        with pytest.raises(ValidationError):
            parse_coefficient("1/0", "t")
        with pytest.raises(ValidationError):
            parse_coefficient("one half", "t")


class TestParseSpec:
    def test_linear_center_fixture(self):
        spec = parse_spec(FIXTURES / "linear_center.json")
        assert spec.kind == "real_field"
        fld = spec.build_field(4)
        assert fld.p.coefficient(0, 1) == gr(-1)
        assert fld.q.coefficient(1, 0) == gr(1)
        assert len(fld.p.terms) == 1 and len(fld.q.terms) == 1

    def test_cusp_fixture_matches_hand_form(self):
        spec = parse_spec(FIXTURES / "cusp_hamiltonian.json")
        fld = spec.build_field(4)
        assert fld.p.coefficient(0, 2) == gr(3)
        assert fld.q.coefficient(1, 0) == gr(2)

    def test_exponent_beyond_truncation_rejected(self, tmp_path):
        doc = {"kind": "real_field", "truncation": 2,
               "dx": [[2, 1, "1"]], "dy": [[1, 0, "1"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="exceeds"):
            parse_spec(path)

    def test_duplicate_exponent_rejected(self, tmp_path):
        doc = {"kind": "real_field", "truncation": 2,
               "dx": [[0, 1, "1"], [0, 1, "2"]], "dy": [[1, 0, "1"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            parse_spec(path)

    def test_complex_coefficient_in_real_field_rejected(self, tmp_path):
        doc = {"kind": "real_field", "truncation": 2,
               "dx": [[0, 1, "0+1 i"]], "dy": [[1, 0, "1"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="imaginary"):
            parse_spec(path)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "germ",')
        with pytest.raises(ParseError, match="line 1"):
            parse_spec(path)

    def test_multiplier_root_maps_to_exact_unit(self, tmp_path):
        doc = {"kind": "germ", "truncation": 6,
               "coeffs": [[3, "1"]], "multiplier_root": [1, 4]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        spec = parse_spec(path)
        assert spec.build_germ().multiplier == gr(0, 1)

    def test_unrepresentable_multiplier_order_rejected(self, tmp_path):
        doc = {"kind": "germ", "truncation": 6,
               "coeffs": [[2, "1"]], "multiplier_root": [1, 3]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="orders are 1, 2 and 4"):
            parse_spec(path)

    def test_multiplier_root_contradiction_rejected(self, tmp_path):
        doc = {"kind": "germ", "truncation": 6,
               "coeffs": [[1, "1"]], "multiplier_root": [1, 4]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="contradicts"):
            parse_spec(path)


class TestRunPipeline:
    def test_hamiltonian_center_agreement(self):
        spec = parse_spec(FIXTURES / "hamiltonian_cubic.json")
        report = run_pipeline(spec)
        verdict = report["sections"]["verdict"]
        assert verdict["symbolic"] == "CENTER_TO_ORDER_N"
        assert verdict["numeric"] == "PERIODIC_SEQUENCE"
        assert verdict["agreement"] is True

    def test_focus_agreement(self):
        spec = parse_spec(FIXTURES / "cubic_focus.json")
        report = run_pipeline(spec)
        verdict = report["sections"]["verdict"]
        assert verdict["symbolic"] == "FOCUS"
        assert verdict["numeric"] == "NOT_PERIODIC"
        assert verdict["agreement"] is True
        rows = report["sections"]["return_maps"]["rows"]
        assert all("tol" in row for row in rows)

    def test_product_form_pipeline(self):
        spec = parse_spec(FIXTURES / "product_form.json")
        report = run_pipeline(spec)
        sections = report["sections"]
        assert sections["siegel"]["is_siegel"] is True
        assert sections["formal_first_integral"]["first_integral"] == \
            [[1, 1, "1"]]
        assert sections["factorization"]["f"] == [[0, 1, "1"]]
        assert sections["factorization"]["g"] == [[1, 0, "1"]]
        sl = sections["real_slice"]
        assert sl["n_samples"] >= 50
        assert sl["max_abs_im_fg"] <= 1e-9
        assert sl["min_re_fg"] >= -1e-9
        assert sl["contact_order_histogram"] == {"1": sl["n_samples"]}

    def test_saddle_not_applicable(self, tmp_path):
        doc = {"kind": "real_field", "truncation": 2,
               "dx": [[0, 1, "1"]], "dy": [[1, 0, "1"]]}
        path = tmp_path / "saddle.json"
        path.write_text(json.dumps(doc))
        report = run_pipeline(parse_spec(path))
        assert report["sections"]["verdict"]["symbolic"] == "NOT_APPLICABLE"
        assert report["sections"]["verdict"]["agreement"] is None

    def test_germ_pipeline(self):
        spec = parse_spec(FIXTURES / "germ_quarter_rotation.json")
        report = run_pipeline(spec)
        assert report["sections"]["finite_order"]["order"] == 4
        rows = report["sections"]["pseudo_orbits"]["rows"]
        assert all(r["status"] == "periodic" and 4 % r["period"] == 0
                   for r in rows)


class TestDeterminismAndGolden:
    def test_reports_identical_modulo_timestamp(self):
        spec = parse_spec(FIXTURES / "linear_center.json")
        a = render_report(run_pipeline(spec))
        b = render_report(run_pipeline(spec))
        strip = re.compile(r'"timestamp": "[^"]*"')
        assert strip.sub('"timestamp": "-"', a) == \
            strip.sub('"timestamp": "-"', b)


def _golden_cases():
    """Every (fixture, command) pair that `cli._STAGES` accepts."""
    for path in sorted(FIXTURES.glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        for command, kinds in _STAGES.items():
            if kind in kinds:
                yield path.stem, command


def _golden_path(fixture, command):
    suffix = "" if command == "analyze" else f".{command}"
    return GOLDEN / f"{fixture}{suffix}.report.json"


@pytest.mark.parametrize("fixture,command", list(_golden_cases()))
def test_golden(fixture, command):
    """Exact strings compare exactly, floats to 9 significant digits."""
    spec = parse_spec(FIXTURES / f"{fixture}.json")
    got = normalize(run_pipeline(spec, command=command))
    assert got == json.loads(_golden_path(fixture, command).read_text())


@pytest.mark.parametrize("fixture", ["linear_center", "cubic_focus"])
def test_golden_orbit_dumps(tmp_path, fixture):
    """`--dump-orbits` writes the recorded CSVs byte for byte."""
    dump = tmp_path / "orbits"
    assert main(["analyze", str(FIXTURES / f"{fixture}.json"), "--out",
                 str(tmp_path / "report.json"), "--dump-orbits",
                 str(dump)]) == 0
    golden = GOLDEN / "orbits" / fixture
    assert sorted(p.name for p in dump.iterdir()) == \
        sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (dump / path.name).read_bytes() == path.read_bytes()


class TestMainExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", "/nonexistent/spec.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_kind_for_command(self, capsys):
        assert main(["blowup", str(FIXTURES / "linear_center.json")]) == 1

    def test_analyze_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", str(FIXTURES / "linear_center.json"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["sections"]["verdict"]["agreement"] is True

    def test_radii_override(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["returnmap", str(FIXTURES / "linear_center.json"),
                     "--radii", "0.1,0.05", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        rows = report["sections"]["return_maps"]["rows"]
        assert [row["r_in"] for row in rows] == [0.1, 0.05]
        assert set(report["sections"]) == {"normalization", "return_maps"}

    def test_dump_orbits(self, tmp_path):
        out = tmp_path / "report.json"
        dump = tmp_path / "orbits"
        code = main(["analyze", str(FIXTURES / "linear_center.json"),
                     "--out", str(out), "--dump-orbits", str(dump)])
        assert code == 0
        files = sorted(dump.glob("*.csv"))
        assert len(files) == 4
        first = files[0].read_text().splitlines()
        assert first[0] == "t,x,y"

    def test_numeric_failure_exit_code(self, tmp_path):
        # strong outward drift escapes the domain before any return
        doc = {"kind": "real_field", "truncation": 3,
               "dx": [[0, 1, "-1"], [3, 0, "60"], [1, 2, "60"]],
               "dy": [[1, 0, "1"], [2, 1, "60"], [0, 3, "60"]]}
        spec_path = tmp_path / "strong_focus.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["returnmap", str(spec_path), "--out", str(out)])
        assert code == 2
        section = json.loads(out.read_text())["sections"]["return_maps"]
        assert section["error"]["type"] == "NoReturn"
        assert section["error"]["category"] == "numeric"

    def test_lyapunov_subcommand_sections(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["lyapunov", str(FIXTURES / "hamiltonian_cubic.json"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["sections"]) == {"normalization", "lyapunov",
                                           "morse"}


IRRATIONAL = {"kind": "real_field", "truncation": 1,
              "dx": [[0, 1, "-1"]], "dy": [[1, 0, "2"]]}


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


REAL = {"kind": "real_field", "truncation": 2,
        "dx": [[0, 1, "-1"]], "dy": [[1, 0, "1"]]}
GERM = {"kind": "germ", "truncation": 4, "coeffs": [[1, "0+1 i"]]}
FORM = {"kind": "complex_form", "truncation": 2,
        "dx": [[0, 1, "1"]], "dy": [[1, 0, "1"]]}


# Values of the wrong shape, including booleans where JSON integers belong
MALFORMED = {
    "order-string": {**REAL, "analysis": {"order": "ten"}},
    "order-bool": {**REAL, "analysis": {"order": True}},
    "order-float": {**REAL, "analysis": {"order": 10.0}},
    "radii-string": {**REAL, "analysis": {"radii": "0.1"}},
    "radius-string": {**REAL, "analysis": {"radii": [0.1, "0.05"]}},
    "rel_tol-bool": {**REAL, "analysis": {"rel_tol": False}},
    "exponent-bool": {**REAL, "dx": [[0, True, "-1"]]},
    "coefficient-bool": {**REAL, "dx": [[0, 1, True]]},
    "point-single": {**GERM, "analysis": {"points": [[0.01]]}},
    "points-flat": {**GERM, "analysis": {"points": [0.01, 0.02]}},
    "point-null": {**GERM, "analysis": {"points": [[0.01, None]]}},
    "k_max-bool": {**GERM, "analysis": {"k_max": True}},
    "truncation-bool": {**GERM, "truncation": True,
                        "coeffs": [[True, "0+1 i"]]},
    "degree-bool": {**GERM, "coeffs": [[True, "0+1 i"]]},
    "multiplier_root-bool": {**GERM, "multiplier_root": [True, 4]},
}

# Values of the right shape out of range, with the key the error names
OUT_OF_RANGE = {
    "tol-zero": ("tol", {**REAL, "analysis": {"tol": 0.0}}),
    "rel_tol-negative": ("rel_tol", {**REAL, "analysis": {"rel_tol": -1e-8}}),
    "escape_radius-zero": ("escape_radius",
                           {**GERM, "analysis": {"escape_radius": 0}}),
    "radii-empty": ("radii", {**REAL, "analysis": {"radii": []}}),
    "radii-zero": ("radii", {**REAL, "analysis": {"radii": [0.1, 0]}}),
    "slice_radii-empty": ("slice_radii",
                          {**FORM, "analysis": {"slice_radii": []}}),
    "slice_radii-negative": ("slice_radii",
                             {**FORM, "analysis": {"slice_radii": [-0.1]}}),
    "slice_angles-zero": ("slice_angles",
                          {**FORM, "analysis": {"slice_angles": 0}}),
    "k_max-zero": ("k_max", {**GERM, "analysis": {"k_max": 0}}),
    "order-complex-zero": ("order", {**FORM, "analysis": {"order": 0}}),
    "order-complex-one": ("order", {**FORM, "analysis": {"order": 1}}),
}
MALFORMED.update({name: doc for name, (_, doc) in OUT_OF_RANGE.items()})


@pytest.mark.parametrize("name", list(MALFORMED), ids=list(MALFORMED))
def test_malformed_values_are_input_errors(tmp_path, capsys, name):
    assert main(["analyze", str(_write(tmp_path, MALFORMED[name]))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if name in OUT_OF_RANGE:
        assert err.startswith(f"error: {OUT_OF_RANGE[name][0]}:")


def test_out_of_range_override_is_input_error(capsys):
    assert main(["returnmap", str(FIXTURES / "linear_center.json"),
                 "--tol=-1e-9"]) == 1
    assert capsys.readouterr().err.startswith("error: tol:")


class TestIrrationalFrequency:
    """det 2 is a rotation whose frequency sqrt(2) is not rational."""

    @pytest.mark.parametrize("command", ["lyapunov", "returnmap", "analyze"])
    def test_report_instead_of_error(self, tmp_path, command):
        out = tmp_path / "report.json"
        code = main([command, str(_write(tmp_path, IRRATIONAL)),
                     "--out", str(out)])
        assert code == 0
        sections = json.loads(out.read_text())["sections"]
        assert sections["normalization"]["status"] == "irrational_frequency"
        assert "not a rational square" in \
            sections["normalization"]["summary"]
        expected = {"normalization", "verdict"} if command == "analyze" \
            else {"normalization"}
        assert set(sections) == expected

    def test_analyze_verdict_not_applicable(self, tmp_path):
        report = run_pipeline(parse_spec(_write(tmp_path, IRRATIONAL)))
        verdict = report["sections"]["verdict"]
        assert verdict["symbolic"] == "NOT_APPLICABLE"
        assert verdict["numeric"] is None and verdict["agreement"] is None
        assert "exact normalization is unavailable" in verdict["summary"]


class TestStagesPerCommand:
    def test_unasked_stages_do_not_run(self, monkeypatch, tmp_path):
        from centerfocus import flow, foliation

        def refuse(*args, **kwargs):
            raise AssertionError("an unasked stage ran")

        monkeypatch.setattr(flow, "detect_periodic_sequence", refuse)
        monkeypatch.setattr(foliation, "blowup", refuse)
        out = str(tmp_path / "report.json")
        assert main(["lyapunov", str(FIXTURES / "hamiltonian_cubic.json"),
                     "--out", out]) == 0
        assert main(["slice", str(FIXTURES / "product_form.json"),
                     "--out", out]) == 0

    def test_exit_code_reflects_only_the_stages_run(self, tmp_path):
        doc = json.loads((FIXTURES / "cubic_focus.json").read_text())
        doc.setdefault("analysis", {})["radii"] = [1.5, 0.1]
        path = _write(tmp_path, doc)
        out = tmp_path / "report.json"
        assert main(["lyapunov", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "numeric_failure" not in report
        assert set(report["sections"]) == {"normalization", "lyapunov",
                                           "morse"}
        assert main(["returnmap", str(path), "--out", str(out)]) == 2

    def test_slice_sections(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["slice", str(FIXTURES / "product_form.json"),
                     "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["sections"]) == {
            "siegel", "formal_first_integral", "factorization", "real_slice"}


def corrupted(inverse):
    """A structured homological inverse with one coefficient of F_5 off."""
    def solve(k, rhs):
        f, eta = inverse(k, rhs)
        if k == 5:
            f = [f[0] + 1, *f[1:]]
        return f, eta
    return solve


_FAIL_A_CHECK = """
import sys
from centerfocus import center
from centerfocus.cli import main
inverse = center._rotation_inverse
def solve(k, rhs):
    f, eta = inverse(k, rhs)
    return ([f[0] + 1, *f[1:]] if k == 5 else f), eta
center._rotation_inverse = solve
sys.exit(main(["lyapunov", sys.argv[1], "--out", sys.argv[2]]))
"""


class TestInternalError:
    def test_failed_check_exits_3(self, monkeypatch, capsys):
        from centerfocus import center
        monkeypatch.setattr(center, "_rotation_inverse",
                            corrupted(center._rotation_inverse))
        code = main(["lyapunov", str(FIXTURES / "cubic_focus.json")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: ")
        assert "obstruction decomposition failed" in captured.err
        assert captured.out == ""

    def test_check_survives_optimize_flag(self, tmp_path):
        import centerfocus
        src = str(Path(centerfocus.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _FAIL_A_CHECK,
             str(FIXTURES / "cubic_focus.json"), str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3, proc.stderr
        assert "internal error: obstruction decomposition failed" \
            in proc.stderr

    def test_failed_siegel_check_exits_3(self, monkeypatch, capsys):
        from centerfocus import foliation
        monkeypatch.setattr(foliation, "_siegel_inverse",
                            corrupted(foliation._siegel_inverse))
        code = main(["slice", str(FIXTURES / "product_form.json")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: ")
        assert "Siegel obstruction decomposition failed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("target, message", [
        ("substitution_root", "branch residual"),
        ("_solve_unit", "f * g * unit fails to reconstruct F"),
    ])
    def test_failed_factorization_exits_3(self, monkeypatch, capsys,
                                          target, message):
        # one coefficient of a branch (a_2) or of the unit (u_0) is off by 1
        from centerfocus import foliation
        solve = getattr(foliation, target)

        def corrupted(*args):
            out = solve(*args)
            if target == "_solve_unit":
                return out + 1
            return {**out, 2: out.get(2, gr(0)) + 1}

        monkeypatch.setattr(foliation, target, corrupted)
        code = main(["slice", str(FIXTURES / "product_form_perturbed.json")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: ")
        assert message in captured.err
        assert captured.out == ""
