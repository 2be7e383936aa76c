import argparse
import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import example, given, strategies as st

from centerfocus import cli
from centerfocus.cli import (
    ParseError,
    ValidationError,
    _STAGES,
    _build_parser,
    format_coefficient,
    main,
    parse_coefficient,
    parse_spec,
    render_report,
    run_pipeline,
)
from centerfocus.series import GaussianRational, Poly2, gr

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


def reference_format(c: GaussianRational) -> str:
    """A coefficient as the reports printed it from a GaussianRational,
    through str(Fraction)."""
    if c.im == 0:
        return str(c.re)
    return f"{c.re}+{c.im} i"


def reference_parse(text, where):
    """A coefficient as parsing read it into a GaussianRational."""
    if isinstance(text, int) and not isinstance(text, bool):
        return gr(text)
    m = cli._COMPLEX_RE.match(text)
    try:
        if m:
            return GaussianRational(Fraction(m.group(1)), Fraction(m.group(2)))
        return GaussianRational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: bad coefficient {text!r} ({exc})")


def value(parts) -> GaussianRational:
    """The Gaussian triple (re, im, den) as a GaussianRational."""
    re, im, den = parts
    return GaussianRational(Fraction(re, den), Fraction(im, den))


BIG = 2 ** 200


class TestCoefficientFormat:
    def test_real_round_trip(self):
        for text in ("1", "-3/4", "0", "12/7"):
            c = parse_coefficient(text, "t")
            assert value(parse_coefficient(format_coefficient(c), "t")) == \
                value(c)

    def test_complex_round_trip(self):
        for text in ("1/2+-3/4 i", "0+1 i", "-2+5/3 i"):
            c = parse_coefficient(text, "t")
            assert c[1]  # a nonzero imaginary part
            assert value(parse_coefficient(format_coefficient(c), "t")) == \
                value(c)

    def test_bad_coefficient(self):
        with pytest.raises(ValidationError):
            parse_coefficient("1/0", "t")
        with pytest.raises(ValidationError):
            parse_coefficient("one half", "t")

    @given(st.one_of(st.integers(-99, 99), st.integers(-BIG * 8, BIG * 8)),
           st.one_of(st.integers(-99, 99), st.integers(-BIG * 8, BIG * 8)),
           st.one_of(st.integers(1, 99), st.integers(1, BIG * 8)))
    @example(0, 0, 1)
    @example(0, 0, 7)
    @example(-6, 0, 4)
    @example(0, -5, 10)
    @example(0, 3, 1)
    @example(BIG + 1, -BIG - 3, 1)
    @example(-3 * BIG, 5 * BIG, 6 * BIG)
    def test_parts_format_matches_fraction(self, re, im, den):
        # one gcd per part prints what str(Fraction) printed, from the
        # parts of a series row and from a GaussianRational alike
        c = value((re, im, den))
        assert format_coefficient((re, im, den)) == reference_format(c)
        assert format_coefficient(c) == reference_format(c)

    @pytest.mark.parametrize("text", [
        "1", "-3/4", "0", "-0", "12/7", "6/8", " 3/4 ", "007/010", 5, -2, 0,
        "0.5", "1e-3", "+3", "3 / 4", "1_000", "\u0663/\u0664",
        "1/2+-3/4 i", "0+1 i", "-2+5/3 i", " 4/6 + -0/3 i ",
        "1/0", "-3/0", "one half", "", "1/2+1/0 i", "1/0+1/0 i", "1/2 i",
        "9" * 4301, "1/" + "9" * 4301])
    def test_parse_matches_fraction(self, text):
        # parsing straight into parts reads what Fraction read, and
        # rejects what it rejected, with the same message
        try:
            want = reference_parse(text, "t")
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                parse_coefficient(text, "t")
            assert str(got.value) == str(exc)
        else:
            re, im, den = got = parse_coefficient(text, "t")
            assert den > 0 and value(got) == want


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
        assert not any("tol" in row for row in rows)
        assert report["provenance"]["parameters"]["tol"] == 1e-12

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

    def test_order_above_k_max_is_named(self, tmp_path):
        # z -> iz has order 4; k_max = 3 only rules out orders up to 3
        doc = {"kind": "germ", "truncation": 8, "coeffs": [[1, "0+1 i"]],
               "analysis": {"k_max": 3}}
        section = run_pipeline(parse_spec(_write(tmp_path, doc)),
                               command="germ")["sections"]["finite_order"]
        assert section["order"] is None
        assert section["multiplier_order"] == 4
        assert section["summary"] == ("no finite order up to k_max = 3; the "
                                      "multiplier is a root of unity of "
                                      "order 4")
        doc["analysis"]["k_max"] = 4
        section = run_pipeline(parse_spec(_write(tmp_path, doc)),
                               command="germ")["sections"]["finite_order"]
        assert section["summary"] == "finite order 4"


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


# Dense documents at high order, with their reports recorded while each
# coefficient of a series was still stored as its own pair of Fractions:
# a conjugated quartic Hamiltonian at order 24 (`lyapunov`, coefficients of
# F near 160 bits) and a dense exact form dF at order 12 (`slice`).  They
# live apart from `FIXTURES`, so no other command runs on them.
HIGH_ORDER = Path(__file__).parent / "high_order"


@pytest.mark.parametrize("report", sorted(
    p.name for p in HIGH_ORDER.glob("*.report.json")))
def test_high_order_golden(report):
    fixture, command = report.split(".")[:2]
    spec = parse_spec(HIGH_ORDER / f"{fixture}.json")
    got = normalize(run_pipeline(spec, command=command))
    assert got == json.loads((HIGH_ORDER / report).read_text())


def test_report_rows_build_no_fraction(monkeypatch):
    # the rows of the dense order-24 `lyapunov` report are printed from
    # the stored integers: no Fraction is built while they are formatted
    # (two per coefficient when rows were read through `Poly2.terms`)
    built, formatting, rows = [], [False], cli._poly_rows
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        if formatting[0]:
            built.append(1)
        return new(cls, *args, **kwargs)

    def poly_rows(p):
        formatting[0] = True
        try:
            return rows(p)
        finally:
            formatting[0] = False

    monkeypatch.setattr(Fraction, "__new__", counted)
    monkeypatch.setattr(cli, "_poly_rows", poly_rows)
    spec = parse_spec(HIGH_ORDER / "quartic_hamiltonian_dense.json")
    report = run_pipeline(spec, command="lyapunov")
    assert len(report["sections"]["lyapunov"]["first_integral"]) > 100
    assert normalize(report) == json.loads(
        (HIGH_ORDER / "quartic_hamiltonian_dense.lyapunov.report.json")
        .read_text())
    assert built == []
    poly_rows(Poly2.constant(Fraction(1, 3), 0))
    formatting[0] = True
    Fraction(1, 3)  # the wrapper does see a construction
    assert built == [1]


# Schema 2 states each value once: these keys only repeated a parameter
# (kept under provenance.parameters) or a sibling key, or, for a return
# map's `crossings`, a constant.
ECHOED = {"tol", "relative_tolerance", "crossings", "k_max", "escape_radius"}


def _echoed_keys(node, path):
    """Paths of the keys in `node`, at any depth, named in `ECHOED`."""
    if isinstance(node, list):
        return [p for k, v in enumerate(node)
                for p in _echoed_keys(v, f"{path}[{k}]")]
    if not isinstance(node, dict):
        return []
    return [f"{path}.{k}" for k in node if k in ECHOED] + \
        [p for k, v in node.items() for p in _echoed_keys(v, f"{path}.{k}")]


def _check_schema_2(report):
    sections = report["sections"]
    assert report["schema_version"] == 2
    assert _echoed_keys(sections, "sections") == []
    # the order is a parameter; `finite_order.order` is a result and stays
    for name in ("lyapunov", "formal_first_integral"):
        assert "order" not in sections.get(name, {})


@pytest.mark.parametrize("path", sorted(
    [*GOLDEN.glob("*.report.json"), *HIGH_ORDER.glob("*.report.json")]),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_recorded_reports_state_each_value_once(path):
    _check_schema_2(json.loads(path.read_text()))


@pytest.mark.parametrize("fixture,command", list(_golden_cases()))
def test_reports_state_each_value_once(fixture, command):
    spec = parse_spec(FIXTURES / f"{fixture}.json")
    _check_schema_2(run_pipeline(spec, command=command))


def _not_json(node, path):
    """Paths of the values in `node` that JSON has no type for; a tuple,
    such as a NamedTuple record, would be written as a list unnoticed."""
    if isinstance(node, dict):
        return [p for k, v in node.items()
                for p in _not_json(v, f"{path}.{k}")]
    if type(node) is list:
        return [p for k, v in enumerate(node)
                for p in _not_json(v, f"{path}[{k}]")]
    return [] if type(node) in (str, int, float, bool, type(None)) else \
        [f"{path}: {type(node).__name__}"]


@pytest.mark.parametrize("fixture,command", list(_golden_cases()))
def test_reports_hold_only_json_values(fixture, command):
    spec = parse_spec(FIXTURES / f"{fixture}.json")
    assert _not_json(run_pipeline(spec, command=command), "report") == []


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

    def test_numeric_failures_share_one_base(self):
        from centerfocus.flow import NoReturn, StepUnderflow
        from centerfocus.foliation import NoSamples
        from centerfocus.series import InternalError, NumericFailure
        for exc in (StepUnderflow, NoReturn, NoSamples):
            assert issubclass(exc, NumericFailure)
        assert not issubclass(InternalError, NumericFailure)

    def test_no_samples_lands_under_real_slice(self, monkeypatch, tmp_path):
        # every seed fails to refine, so `real_slice` raises NoSamples
        from centerfocus import foliation
        monkeypatch.setattr(foliation, "_refine", lambda *args: None)
        out = tmp_path / "report.json"
        code = main(["slice", str(FIXTURES / "product_form.json"),
                     "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["numeric_failure"] is True
        assert report["sections"]["factorization"]["general_position"]
        assert report["sections"]["real_slice"]["error"] == {
            "type": "NoSamples", "message": "no seed converged to the slice",
            "category": "numeric"}

    def test_parser_is_built_once_and_keeps_no_options(self, tmp_path):
        # one parser serves every call in a process; an option given to
        # one call does not carry over to the next
        doc = {"kind": "germ", "truncation": 8, "coeffs": [[1, "0+1 i"]]}
        path, out = _write(tmp_path, doc), tmp_path / "report.json"
        assert main(["germ", str(path), "--kmax", "3", "--out", str(out)]) == 0
        first = json.loads(out.read_text())
        assert main(["germ", str(path), "--out", str(out)]) == 0
        second = json.loads(out.read_text())
        assert (first["provenance"]["parameters"]["k_max"],
                second["provenance"]["parameters"]["k_max"]) == (3, 200)
        assert second["sections"]["finite_order"]["order"] == 4
        assert main(["germ", str(path), "--kmax", "three"]) == 1
        assert _build_parser() is _build_parser()

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
    "order-real-three": ("order", {**REAL, "analysis": {"order": 3}}),
    # json.dumps writes these as the literals NaN, Infinity and -Infinity,
    # which json.loads accepts
    "tol-nan": ("tol", {**REAL, "analysis": {"tol": float("nan")}}),
    "rel_tol-minus-infinity": ("rel_tol", {
        **REAL, "analysis": {"rel_tol": float("-inf")}}),
    "radii-infinite": ("radii",
                       {**REAL, "analysis": {"radii": [0.1, float("inf")]}}),
    "slice_radii-nan": ("slice_radii",
                        {**FORM, "analysis": {"slice_radii": [float("nan")]}}),
    "point-nan": ("points",
                  {**GERM, "analysis": {"points": [[float("nan"), 0.0]]}}),
    # a starting point is named by its index; the radius itself is open
    "point-outside-escape_radius": (
        "points[0]", {**GERM, "analysis": {"escape_radius": 0.01}}),
    "point-on-escape_radius": ("points[1]", {**GERM, "analysis": {
        "escape_radius": 0.1, "points": [[0.01, 0.0], [0.0, 0.1]]}}),
}
MALFORMED.update({name: doc for name, (_, doc) in OUT_OF_RANGE.items()})

# Malformed documents, with what the message says
REFUSED = {
    "kind-unknown": ("kind: expected one of", {**REAL, "kind": "field"}),
    "top-level-list": ("top level must be an object", [REAL]),
    "analysis-list": ("analysis: expected an object",
                      {**REAL, "analysis": [10]}),
    "analysis-unknown-key": (
        "analysis: unknown keys ['k_max', 'slice_angles'] for kind "
        "real_field", {**REAL, "analysis": {"slice_angles": 1, "k_max": 1}}),
    "top-level-unknown-key": (
        "unknown keys ['analysys'] for kind real_field",
        {**REAL, "analysys": {"order": 12}}),
    "top-level-key-of-another-kind": (
        "unknown keys ['dx'] for kind germ", {**GERM, "dx": []}),
    "dx-missing": ("dx: required for kind real_field",
                   {k: v for k, v in REAL.items() if k != "dx"}),
    "dx-not-a-list": ("dx: expected a list of [i, j, coeff] rows",
                      {**REAL, "dx": {"0": "-1"}}),
    "dx-row-of-two": ("dx[0]: expected [i, j, coeff]",
                      {**REAL, "dx": [[0, 1]]}),
    "coeffs-missing": ("coeffs: required list for kind germ",
                       {k: v for k, v in GERM.items() if k != "coeffs"}),
    "coeffs-row-of-three": ("coeffs[0]: expected [degree, coeff]",
                            {**GERM, "coeffs": [[1, "0+1 i", 2]]}),
    "degree-above-truncation": (
        "coeffs[1]: degree 5 exceeds the declared truncation 4",
        {**GERM, "coeffs": [[1, "0+1 i"], [5, "1"]]}),
    "degree-duplicate": ("coeffs[1]: duplicate degree 1",
                         {**GERM, "coeffs": [[1, "0+1 i"], [1, "1"]]}),
    "degree-1-missing": ("coeffs: nonzero degree-1 coefficient",
                         {**GERM, "coeffs": [[2, "1"]]}),
    "multiplier_root-order-zero": ("multiplier_root: root order must be "
                                   "positive",
                                   {**GERM, "multiplier_root": [1, 0]}),
}
MALFORMED.update({name: doc for name, (_, doc) in REFUSED.items()})


@pytest.mark.parametrize("name", list(MALFORMED), ids=list(MALFORMED))
def test_malformed_values_are_input_errors(tmp_path, capsys, name):
    assert main(["analyze", str(_write(tmp_path, MALFORMED[name]))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if name in OUT_OF_RANGE:
        assert err.startswith(f"error: {OUT_OF_RANGE[name][0]}:")
    if name in REFUSED:
        assert REFUSED[name][0] in err


# Command lines that are input errors, with the whole of stderr; {real},
# {germ} and {form} stand for REAL, GERM and FORM written to files, {tmp}
# for the test's directory
REFUSED_ARGV = {
    "radii-on-germ": ("analyze {germ} --radii 0.1", "analysis: unknown keys "
                      "['radii'] for kind germ"),
    "radii-on-form": ("analyze {form} --radii 0.1", "analysis: unknown keys "
                      "['radii'] for kind complex_form"),
    "truncation-on-germ": ("analyze {germ} --truncation 7", "analysis: "
                           "unknown keys ['order'] for kind germ"),
    "dump-orbits-on-germ": ("analyze {germ} --dump-orbits {tmp}/orbits",
                            "--dump-orbits: analyze dumps no orbits for "
                            "kind germ"),
    "radii-not-numbers": ("returnmap {real} --radii 0.1,x", "centerfocus "
                          "returnmap: argument --radii: invalid radii value: "
                          "'0.1,x'"),
    "kmax-not-a-number": ("germ {germ} --kmax three", "centerfocus germ: "
                          "argument --kmax: invalid int value: 'three'"),
    "out-in-missing-directory": ("germ {germ} --out {tmp}/missing/r.json",
                                 "[Errno 2] No such file or directory: "
                                 "'{tmp}/missing/r.json'"),
    "spec-missing": ("germ", "centerfocus germ: the following arguments are "
                             "required: spec"),
    "command-missing": ("", "centerfocus: the following arguments are "
                            "required: command"),
}


@pytest.mark.parametrize("argv, message", list(REFUSED_ARGV.values()),
                         ids=list(REFUSED_ARGV))
def test_refused_command_lines_are_input_errors(tmp_path, capsys, argv,
                                                message):
    names = {"tmp": tmp_path}
    for name, doc in (("real", REAL), ("germ", GERM), ("form", FORM)):
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(doc))
    assert main([word.format(**names) for word in argv.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(**names)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["form.json", "germ.json", "real.json"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["germ", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: centerfocus germ")


def test_every_option_sets_an_analysis_key():
    # an option drives a stage only through a key of the analysis of a
    # kind its command accepts; the rest name files
    exempt = {"spec", "out", "help", "dump_dir"}
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_STAGES)
    for command, parser in subparsers.choices.items():
        keys = {key for kind in _STAGES[command]
                for key in cli.DEFAULT_ANALYSIS[kind]}
        dests = {a.dest for a in parser._actions} - exempt
        assert dests <= keys, (command, dests - keys)


def test_out_of_range_override_is_input_error(capsys):
    assert main(["returnmap", str(FIXTURES / "linear_center.json"),
                 "--tol=-1e-9"]) == 1
    assert capsys.readouterr().err.startswith("error: tol:")


@pytest.mark.parametrize("command, option, key", [
    ("returnmap", "--tol=nan", "tol"),
    ("returnmap", "--radii=0.1,inf", "radii"),
    ("lyapunov", "--truncation=0", "order"),
    ("analyze", "--truncation=3", "order"),
])
def test_nonfinite_or_low_override_is_input_error(capsys, command, option,
                                                 key):
    assert main([command, str(FIXTURES / "linear_center.json"), option]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}:")


def test_order_four_is_accepted(capsys):
    assert main(["lyapunov", str(FIXTURES / "linear_center.json"),
                 "--truncation=4"]) == 0


def test_huge_exponent_is_refused_before_it_is_expanded(tmp_path, capsys):
    # 10^4000000 would have more digits than int allows; it is refused
    # at once and named, while 10^4000 still parses
    doc = {**REAL, "dx": [[0, 1, "-1"], [2, 0, "1e4000000"]]}
    start = time.perf_counter()
    assert main(["lyapunov", str(_write(tmp_path, doc))]) == 1
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == (
        "error: dx[1]: bad coefficient '1e4000000' (exponent beyond the "
        "integer digit limit)\n")
    doc["dx"][1][2] = "1e4000"
    assert parse_spec(_write(tmp_path, doc)).dx_terms[2, 0] == \
        (10 ** 4000, 0, 1)


def test_stage_value_error_names_the_stage(tmp_path, capsys):
    # 10^4000 parses, but a first-integral coefficient built from it has
    # more digits than an int may print: an input error of the stage
    doc = {**REAL, "dx": [[0, 1, "-1"], [1, 1, "1e4000"]]}
    assert main(["lyapunov", str(_write(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lyapunov: Exceeds the limit")
    assert "Traceback" not in err


# A coefficient beyond the binary64 range (1e400), and the stage that
# rounds it: the return maps, the pseudo-orbits, the slice, and the
# blow-up's divisor roots (a huge linear part) or Jacobian (a huge
# y^2 dx, which the exact chart Jacobian sums before it rounds)
HUGE_REAL = {**REAL, "dy": [[1, 0, "1"], [2, 0, "1e400"]]}
HUGE = {
    "returnmap": ("returnmap", HUGE_REAL, "return_maps"),
    "analyze": ("analyze", HUGE_REAL, "return_maps"),
    "germ": ("germ", {**GERM, "coeffs": [[1, "0+1 i"], [3, "1e400"]]},
             "pseudo_orbits"),
    "slice": ("slice", {**FORM, "truncation": 3,
                        "dx": [[0, 1, "1"], [2, 1, "1e400"]]}, "real_slice"),
    "blowup-roots": ("blowup", {**FORM, "dx": [[0, 1, "1e400"]],
                                "dy": [[1, 0, "1"], [0, 1, "2"]]}, "blowup"),
    "blowup-jacobian": ("blowup", {**FORM, "dx": [[0, 1, "1"],
                                                  [0, 2, "1e400"]],
                                   "dy": [[1, 0, "1"], [0, 1, "2"]]},
                        "blowup"),
}


@pytest.mark.parametrize("command, doc, stage", list(HUGE.values()),
                         ids=list(HUGE))
def test_coefficient_beyond_binary64_is_a_numeric_failure(tmp_path, command,
                                                          doc, stage):
    out = tmp_path / "report.json"
    assert main([command, str(_write(tmp_path, doc)), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["sections"][stage]["error"] == {
        "type": "NumericFailure", "category": "numeric",
        "message": "exact value beyond the binary64 range"}


def test_lyapunov_runs_on_a_coefficient_beyond_binary64(tmp_path):
    # the exact stages round nothing
    out = tmp_path / "report.json"
    assert main(["lyapunov", str(_write(tmp_path, HUGE_REAL)),
                 "--out", str(out)]) == 0
    assert "numeric_failure" not in json.loads(out.read_text())


class TestDivisorPoints:
    """The points on E are the distinct roots of gcd(a0, b0), a0 and b0
    the chart t components on E (b0 = 0 when E is invariant), and a
    multiple root has the eigenvalue 0 exactly: a saddle-node."""

    def blowup(self, tmp_path, dx, dy):
        out = tmp_path / "report.json"
        doc = {**FORM, "truncation": 6, "dx": dx, "dy": dy}
        assert main(["blowup", str(_write(tmp_path, doc)),
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())["sections"]["blowup"]

    def test_triple_root_is_one_point(self, tmp_path):
        # -x^2 dx + (3x^2 - 3xy + y^2) dy: a0 = (t - 1)^3
        section = self.blowup(tmp_path, [[2, 0, "-1"]],
                              [[2, 0, "3"], [1, 1, "-3"], [0, 2, "1"]])
        assert section["summary"] == \
            "divisor invariant; 1 singular point(s) on E"
        (point,) = section["singularities"]
        assert (point["chart"], point["location"], point["eigenvalues"]) == \
            ("t", [1.0, 0.0], [[0.0, 0.0], [1.0, 0.0]])

    def test_double_root_is_a_saddle_node(self, tmp_path):
        # -2x^2 dx + (5x^2 - 4xy + y^2) dy: a0 = (t - 1)^2 (t - 2)
        points = self.blowup(tmp_path, [[2, 0, "-2"]],
                             [[2, 0, "5"], [1, 1, "-4"], [0, 2, "1"]]
                             )["singularities"]
        assert sorted(p["location"] for p in points) == \
            [[1.0, 0.0], [2.0, 0.0]]
        (double,) = [p for p in points if p["location"] == [1.0, 0.0]]
        assert [0.0, 0.0] in double["eigenvalues"]

    def test_irrational_double_roots_are_saddle_nodes(self, tmp_path):
        # a0 = (t^2 - 2)^2: the eigenvalue -a0' is 0 at the exact root,
        # not at its binary64 rounding
        points = self.blowup(
            tmp_path, [[0, 4, "1"], [2, 2, "-4"], [3, 1, "-1"], [4, 0, "4"]],
            [[4, 0, "1"]])["singularities"]
        on_t = [p for p in points if p["chart"] == "t"]
        assert sorted(p["location"] for p in on_t) == \
            [[-math.sqrt(2), 0.0], [math.sqrt(2), 0.0]]
        assert all(p["eigenvalues"][0] == [0.0, 0.0] for p in on_t)

    def test_dicritical_points_are_the_shared_roots(self, tmp_path):
        # a0 = (t - 1)(t - 2) and b0 = 1 - t share only t = 1
        section = self.blowup(
            tmp_path, [[1, 1, "-1"], [0, 2, "1"], [1, 2, "1"], [2, 1, "-4"],
                       [3, 0, "2"]],
            [[2, 0, "1"], [1, 1, "-1"], [3, 0, "1"]])
        assert not section["divisor_invariant"]
        assert [(p["chart"], p["location"])
                for p in section["singularities"]] == [("t", [1.0, 0.0])]


    @pytest.mark.parametrize("eps, near", [
        ("1/100000", 1.00001), ("1/10000000000", 1.0000000001),
        ("1/1000000000000000", 1.000000000000001)])
    def test_clustered_roots_are_real_points(self, tmp_path, eps, near):
        # (c0 x^3 + c1 x^2 y + c2 x y^2 + y^3) dx + x^4 dy: a0 = (t - 1)
        # (t - 1 - eps)(t - 3), where -a0' is -2 eps and 2 eps - eps^2
        e = Fraction(eps)
        dx = [[3, 0, str(-3 * (1 + e))], [2, 1, str(7 + 4 * e)],
              [1, 2, str(-5 - e)], [0, 3, "1"]]
        points = self.blowup(tmp_path, dx, [[4, 0, "1"]])["singularities"]
        assert [(p["chart"], p["location"]) for p in points] == [
            ("t", [1.0, 0.0]), ("t", [near, 0.0]), ("t", [3.0, 0.0]),
            ("s", [0.0, 0.0])]
        for point, eig in zip(points, (-2 * e, 2 * e)):
            zero, (re, im) = point["eigenvalues"]
            assert zero == [0.0, 0.0] and im == 0.0
            assert abs(re - eig) <= 1e-5 * abs(eig)


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

    def test_blowup_of_a_form_with_a_common_factor(self, tmp_path):
        # x y dx + x^2 dy: both components vanish along x = 0
        doc = {"kind": "complex_form", "truncation": 2,
               "dx": [[1, 1, "1"]], "dy": [[2, 0, "1"]]}
        out = tmp_path / "report.json"
        assert main(["blowup", str(_write(tmp_path, doc)),
                     "--out", str(out)]) == 0
        section = json.loads(out.read_text())["sections"]["blowup"]
        assert section["error"] == {
            "type": "NotIsolated", "category": "input",
            "message": "components share the common factor x to truncation"}

    def test_slice_of_a_complexified_focus(self, tmp_path):
        # the Siegel route finds the focus's nonzero obstruction
        from centerfocus.center import normalize_rotation
        from centerfocus.foliation import complexify
        spec = parse_spec(FIXTURES / "cubic_focus.json")
        form = complexify(normalize_rotation(spec.build_field(3)))
        doc = {"kind": "complex_form", "truncation": 3,
               "dx": cli._poly_rows(form.a), "dy": cli._poly_rows(form.b)}
        out = tmp_path / "report.json"
        assert main(["slice", str(_write(tmp_path, doc)),
                     "--out", str(out)]) == 0
        section = json.loads(out.read_text())["sections"][
            "formal_first_integral"]
        assert section["summary"] == \
            "nonzero resonant obstructions; no formal first integral"


def corrupted(inverse):
    """A structured homological inverse with one coefficient of F_5 off:
    the part (den, [(r, re, im), ...]) gains 1 on x^5 (r = 0)."""
    def solve(k, rhs):
        (den, row), eta_s = inverse(k, rhs)
        if k == 5:
            x, y = next(((x, y) for r, x, y in row if r == 0), (0, 0))
            row = [(0, x + den, y)] + [t for t in row if t[0]]
        return (den, row), eta_s
    return solve


_FAIL_A_CHECK = """
import importlib, sys
from centerfocus.cli import main
module, name, command, fixture, out = sys.argv[1:]
module = importlib.import_module("centerfocus." + module)
inverse = getattr(module, name)
def solve(k, rhs):
    (den, row), eta_s = inverse(k, rhs)
    if k == 5:
        x, y = next(((x, y) for r, x, y in row if r == 0), (0, 0))
        row = [(0, x + den, y)] + [t for t in row if t[0]]
    return (den, row), eta_s
setattr(module, name, solve)
sys.exit(main([command, fixture, "--out", out]))
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

    @pytest.mark.parametrize("module, inverse, command, fixture, message", [
        ("center", "_rotation_inverse", "lyapunov", "cubic_focus.json",
         "internal error: obstruction decomposition failed"),
        ("foliation", "_siegel_inverse", "slice", "product_form.json",
         "internal error: Siegel obstruction decomposition failed"),
    ], ids=["center", "siegel"])
    def test_check_survives_optimize_flag(self, tmp_path, module, inverse,
                                          command, fixture, message):
        import centerfocus
        src = str(Path(centerfocus.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _FAIL_A_CHECK, module, inverse,
             command, str(FIXTURES / fixture), str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr

    def test_src_holds_no_assert(self):
        # lint: `python -O` strips assert statements, so every check in the
        # program raises instead
        import centerfocus
        root = Path(centerfocus.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(root.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_src_imports_no_dataclasses(self):
        # lint: `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`,
        # a seventh of a cold `lyapunov` process; the value types are
        # NamedTuples and slotted classes instead
        import centerfocus
        root = Path(centerfocus.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(root.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(
                     a.name.split(".")[0] == "dataclasses" for a in node.names)
                 or isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "dataclasses"]
        assert found == []

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
            return out + (1 if target == "_solve_unit" else
                          Poly2.monomial(2, 0, 1, out.truncation_degree))

        monkeypatch.setattr(foliation, target, corrupted)
        code = main(["slice", str(FIXTURES / "product_form_perturbed.json")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: ")
        assert message in captured.err
        assert captured.out == ""


# Imports `centerfocus.cli` (or only `centerfocus`, with no command
# line), runs the command line given after the script (if any) with its
# report sent to a file, and prints the exit code, which of the watched
# modules the interpreter then holds, and which centerfocus submodules.
_LOADED_AFTER = """
import json, sys
import centerfocus
code = None
if len(sys.argv) > 2:
    from centerfocus.cli import main
    if sys.argv[2] != "-":
        code = main(sys.argv[2:] + ["--out", sys.argv[1]])
print(json.dumps([code, sorted(m for m in %r if m in sys.modules),
                  sorted(m.split(".", 1)[1] for m in sys.modules
                         if m.startswith("centerfocus."))]))
"""
# numpy, scipy and sympy are heavy; `dataclasses` and `inspect` (with its
# `ast`, `dis` and `tokenize`) cost a cold process more than the exact
# stages' own import; `argparse` loads with the first command line
_WATCHED = ("argparse", "dataclasses", "inspect", "numpy", "scipy", "sympy")
_CLI = ["cli", "germ", "series"]  # what `import centerfocus.cli` loads


@pytest.mark.parametrize("argv, loaded, own", [
    ([], [], []),
    (["-"], [], _CLI),
    (["lyapunov", "linear_center.json"], ["argparse"], _CLI + ["center"]),
    (["germ", "germ_parabolic.json"], ["argparse"], _CLI),
    (["slice", "product_form.json"], ["argparse"], _CLI + ["foliation"]),
    (["returnmap", "linear_center.json"],
     ["argparse", "dataclasses", "inspect", "numpy", "scipy"],
     _CLI + ["center", "flow"]),
    (["blowup", "product_form.json"], ["argparse", "inspect", "sympy"],
     _CLI + ["foliation"]),
], ids=["import", "import-cli", "lyapunov", "germ", "slice", "returnmap",
        "blowup"])
def test_heavy_modules_load_where_their_stage_runs(tmp_path, argv, loaded,
                                                   own):
    """The exact stages run on the standard library alone, and load
    neither `dataclasses` nor `inspect`; numpy, scipy and sympy are
    imported by the stages that use them, argparse by the first command
    line, and each centerfocus module by the first stage that calls it."""
    src = Path(__file__).resolve().parents[1] / "src"
    args = argv[:1] + [str(FIXTURES / name) for name in argv[1:]]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER % (_WATCHED,),
         str(tmp_path / "r.json"), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    code, modules, submodules = json.loads(proc.stdout)
    assert code == (0 if argv[:1] not in ([], ["-"]) else None)
    assert modules == loaded
    assert submodules == sorted(own)


@pytest.mark.parametrize("kind, keys, module, name, params", [
    ("complex_form", ["slice_radii", "slice_angles"], "foliation",
     "SliceGrid", ["radii", "n_angles"]),
    ("real_field", ["tol", "rel_tol"], "flow", "detect_periodic_sequence",
     ["tol", "rel_tol"]),
    ("germ", ["escape_radius", "tol"], "germ", "pseudo_orbit",
     ["escape_radius", "return_tolerance"]),
], ids=["complex_form", "real_field", "germ"])
def test_cli_defaults_are_the_library_defaults(kind, keys, module, name,
                                               params):
    # the command line copies these defaults so that it loads no stage
    # module before it needs one; each copy equals its source
    target = getattr(importlib.import_module(f"centerfocus.{module}"), name)
    signature = inspect.signature(target).parameters
    library = [signature[param].default for param in params]
    assert [cli.DEFAULT_ANALYSIS[kind][key] for key in keys] == \
        [list(v) if isinstance(v, tuple) else v for v in library]


def test_package_names_resolve():
    """Every public name of the package loads from the module that
    defines it, and README's library example runs as printed."""
    import centerfocus
    for name in centerfocus.__all__:
        value = getattr(centerfocus, name)
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError):
        centerfocus.no_such_name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example")[1].split("```python\n")[1] \
        .split("```")[0]
    names = re.match(r"from centerfocus import (.+)\n", example).group(1)
    assert set(names.split(", ")) <= set(centerfocus.__all__)
    out = subprocess.run([sys.executable, "-c", example], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(
                             Path(centerfocus.__file__).parents[1])})
    assert out.returncode == 0, out.stderr
    assert out.stdout == example.rsplit("# ", 1)[1]


@pytest.mark.parametrize("ns", [
    0, 1_700_000_000_000_000_000, 1_700_000_000_000_000_999,
    1_709_210_096_123_456_789, 1_767_225_599_999_999_999])
def test_timestamp_is_what_datetime_writes(monkeypatch, ns):
    """The report's timestamp, taken from `time`, reads as
    `datetime.isoformat` in UTC: microseconds floored, and left out when
    they are 0."""
    from datetime import datetime, timezone
    monkeypatch.setattr(cli.time, "time_ns", lambda: ns)
    s, us = divmod(ns // 1000, 10 ** 6)
    expected = datetime.fromtimestamp(s, timezone.utc).replace(
        microsecond=us).isoformat()
    report = run_pipeline(parse_spec(FIXTURES / "germ_parabolic.json"),
                          command="germ")
    assert report["provenance"]["timestamp"] == expected
