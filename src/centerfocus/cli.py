"""Batch front end: JSON problem specs in, JSON reports out.

Input format (all coefficients are exact rational strings):

  real field      {"kind": "real_field", "truncation": 8,
                   "dx": [[i, j, "num/den"], ...],   # xdot component
                   "dy": [[i, j, "num/den"], ...],   # ydot component
                   "analysis": {"order": 10, "radii": [0.2, 0.1], ...}}

  complex 1-form  {"kind": "complex_form", ...} with "dx"/"dy" holding the
                  dx/dy coefficients; complex entries are written
                  "re_num/re_den+im_num/im_den i".

  germ            {"kind": "germ", "truncation": 12,
                   "coeffs": [[degree, coeff], ...],
                   "multiplier_root": [p, q]}         # optional exp(2pi i p/q)

Coefficient lists define exact polynomials; "truncation" bounds the
exponents and sets the default series order, and pipelines lift the
polynomials to whatever order an analysis requests.  Reports are JSON
with one human-readable summary string per section; floats are printed
in the shortest form that round-trips binary64 exactly.  Orbit dumps are
CSV (t,x,y) with 17 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from . import center as center_mod
from . import flow as flow_mod
from . import foliation as fol_mod
from .germ import ROOTS_OF_UNITY, Germ1, InconclusiveOrder, finite_order, \
    multiplier_order, pseudo_orbit
from .series import GaussianRational, InternalError, OneForm2, Poly2, \
    VectorField2, gr

__all__ = ["ParseError", "ValidationError", "ProblemSpec", "parse_spec",
           "run_pipeline", "main"]


class ParseError(ValueError):
    """Malformed input document."""


class ValidationError(ValueError):
    """Well-formed input breaching a spec invariant."""


DEFAULT_ANALYSIS = {
    "real_field": {
        "order": 10,
        "radii": [0.2, 0.1, 0.05, 0.025],
        "tol": 1e-12,
        "rel_tol": 1e-8,
    },
    "complex_form": {
        "order": 10,
        "slice_radii": [0.05, 0.08, 0.12, 0.16, 0.2],
        "slice_angles": 12,
        "tol": 1e-9,
    },
    "germ": {
        "k_max": 200,
        "points": [[0.03, 0.0], [0.0, 0.03], [-0.02, 0.015]],
        "escape_radius": 1.0,
        "tol": 1e-9,
    },
}

# Each of these analysis values, or every entry of such a list (which must
# not be empty), exceeds its floor; a complex form's order is at least 2.
_FLOORS = {"tol": 0, "rel_tol": 0, "escape_radius": 0, "radii": 0,
           "slice_radii": 0, "slice_angles": 0, "k_max": 0}

_COMPLEX_RE = re.compile(
    r"^\s*(-?\d+(?:/\d+)?)\s*\+\s*(-?\d+(?:/\d+)?)\s*i\s*$"
)


def _is_int(value) -> bool:
    """A JSON integer: `bool` subclasses `int`, but true is no number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_shape(value, default, where: str, pair: bool = False) -> None:
    """`value` has the shape of its `DEFAULT_ANALYSIS` default: an integer
    for an int, a number for a float, a list of such for a list, and a
    list of the default's length inside a list (a point)."""
    if isinstance(default, list):
        if not isinstance(value, list) or pair and len(value) != len(default):
            raise ValidationError(f"{where}: expected a list like {default}")
        for k, item in enumerate(value):
            _check_shape(item, default[0], f"{where}[{k}]", pair=True)
    elif not (_is_int(value) or (isinstance(value, float)
                                 and isinstance(default, float))):
        raise ValidationError(f"{where}: expected "
                              f"{type(default).__name__}, got {value!r}")


def _check_ranges(params: dict, kind: str) -> None:
    floors = dict(_FLOORS, order=1) if kind == "complex_form" else _FLOORS
    for key, floor in floors.items():
        value = params.get(key)
        many = isinstance(value, list)
        values = value if many else [value]
        if key in params and (not values or min(values) <= floor):
            what = "a nonempty list of values" if many else "a value"
            raise ValidationError(f"{key}: expected {what} above {floor}, "
                                  f"got {value!r}")


def parse_coefficient(text, where: str) -> GaussianRational:
    if _is_int(text):
        return gr(text)
    if not isinstance(text, str):
        raise ValidationError(f"{where}: coefficient must be a string, "
                              f"got {type(text).__name__}")
    m = _COMPLEX_RE.match(text)
    try:
        if m:
            return GaussianRational(Fraction(m.group(1)), Fraction(m.group(2)))
        return GaussianRational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: bad coefficient {text!r} ({exc})")


def format_coefficient(c: GaussianRational) -> str:
    if c.is_real:
        return str(c.re)
    return f"{c.re}+{c.im} i"


def _root_of_unity(p: int, q: int, where: str) -> GaussianRational:
    if q <= 0:
        raise ValidationError(f"{where}: root order must be positive")
    g = gcd(p, q)
    p, q = (p // g) % (q // g), q // g
    if (p, q) in ROOTS_OF_UNITY:
        return ROOTS_OF_UNITY[p, q]
    raise ValidationError(
        f"{where}: exp(2 pi i {p}/{q}) is not a Gaussian rational; "
        "exactly representable multiplier orders are 1, 2 and 4"
    )


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    truncation: int
    dx_terms: dict | None
    dy_terms: dict | None
    germ_coeffs: dict | None
    analysis: dict
    input_sha256: str

    def build_field(self, order: int) -> VectorField2:
        n = max(self.truncation, order)
        p = Poly2(self.dx_terms, self.truncation).lift(n)
        q = Poly2(self.dy_terms, self.truncation).lift(n)
        return VectorField2(p, q)

    def build_form(self, order: int) -> OneForm2:
        n = max(self.truncation, order)
        a = Poly2(self.dx_terms, self.truncation, real=False).lift(n)
        b = Poly2(self.dy_terms, self.truncation, real=False).lift(n)
        return OneForm2(a, b)

    def build_germ(self) -> Germ1:
        return Germ1(self.germ_coeffs, self.truncation)


def _parse_term_list(raw, truncation, key, real_only) -> dict:
    if not isinstance(raw, list):
        raise ValidationError(f"{key}: expected a list of [i, j, coeff] rows")
    terms = {}
    for idx, row in enumerate(raw):
        where = f"{key}[{idx}]"
        if not (isinstance(row, list) and len(row) == 3):
            raise ValidationError(f"{where}: expected [i, j, coeff]")
        i, j, coeff = row
        if not (_is_int(i) and _is_int(j) and i >= 0 and j >= 0):
            raise ValidationError(f"{where}: exponents must be nonnegative "
                                  "integers")
        if i + j > truncation:
            raise ValidationError(f"{where}: exponent ({i}, {j}) exceeds the "
                                  f"declared truncation {truncation}")
        if (i, j) in terms:
            raise ValidationError(f"{where}: duplicate exponent ({i}, {j})")
        c = parse_coefficient(coeff, where)
        if real_only and not c.is_real:
            raise ValidationError(f"{where}: real field cannot carry an "
                                  "imaginary coefficient")
        terms[(i, j)] = c
    return terms


def parse_spec(path) -> ProblemSpec:
    """Load and validate a problem document."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    sha = hashlib.sha256(data).hexdigest()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in DEFAULT_ANALYSIS:
        raise ValidationError(
            f"kind: expected one of {sorted(DEFAULT_ANALYSIS)}, got {kind!r}"
        )
    truncation = doc.get("truncation")
    if not _is_int(truncation) or truncation < 1:
        raise ValidationError("truncation: expected a positive integer")
    analysis = doc.get("analysis", {})
    if not isinstance(analysis, dict):
        raise ValidationError("analysis: expected an object")
    unknown = set(analysis) - set(DEFAULT_ANALYSIS[kind])
    if unknown:
        raise ValidationError(f"analysis: unknown keys {sorted(unknown)} "
                              f"for kind {kind}")
    for key, value in analysis.items():
        _check_shape(value, DEFAULT_ANALYSIS[kind][key], f"analysis.{key}")
    dx_terms = dy_terms = germ_coeffs = None
    if kind in ("real_field", "complex_form"):
        for key in ("dx", "dy"):
            if key not in doc:
                raise ValidationError(f"{key}: required for kind {kind}")
        real_only = kind == "real_field"
        dx_terms = _parse_term_list(doc["dx"], truncation, "dx", real_only)
        dy_terms = _parse_term_list(doc["dy"], truncation, "dy", real_only)
    else:
        raw = doc.get("coeffs")
        if not isinstance(raw, list):
            raise ValidationError("coeffs: required list for kind germ")
        germ_coeffs = {}
        for idx, row in enumerate(raw):
            where = f"coeffs[{idx}]"
            if not (isinstance(row, list) and len(row) == 2):
                raise ValidationError(f"{where}: expected [degree, coeff]")
            k, coeff = row
            if not _is_int(k) or k < 1:
                raise ValidationError(f"{where}: degree must be a positive "
                                      "integer")
            if k > truncation:
                raise ValidationError(f"{where}: degree {k} exceeds the "
                                      f"declared truncation {truncation}")
            if k in germ_coeffs:
                raise ValidationError(f"{where}: duplicate degree {k}")
            germ_coeffs[k] = parse_coefficient(coeff, where)
        if "multiplier_root" in doc:
            root = doc["multiplier_root"]
            if not (isinstance(root, list) and len(root) == 2
                    and all(_is_int(v) for v in root)):
                raise ValidationError("multiplier_root: expected [p, q]")
            lam = _root_of_unity(root[0], root[1], "multiplier_root")
            if 1 in germ_coeffs and germ_coeffs[1] != lam:
                raise ValidationError(
                    "multiplier_root contradicts the degree-1 coefficient"
                )
            germ_coeffs[1] = lam
        if 1 not in germ_coeffs or not germ_coeffs[1]:
            raise ValidationError("coeffs: nonzero degree-1 coefficient "
                                  "(or multiplier_root) is required")
    return ProblemSpec(kind, truncation, dx_terms, dy_terms, germ_coeffs,
                       dict(analysis), sha)


# ---------------------------------------------------------------------------
# report assembly: one function per stage, each writing its own sections

_NUMERIC_FAILURES = (flow_mod.NoReturn, flow_mod.StepUnderflow,
                     fol_mod.NoSamples)

# Why a real field has no exact normalization: status, verdict summary.
_NO_NORMALIZATION = {
    center_mod.NotARotation: ("not_a_rotation", "rotation hypothesis fails"),
    center_mod.IrrationalRotationFrequency: (
        "irrational_frequency", "exact normalization is unavailable"),
}


def _poly_rows(p: Poly2) -> list:
    return [[i, j, format_coefficient(c)]
            for (i, j), c in sorted(p.terms.items())]


def _normalization(run):
    try:
        run.norm = norm = center_mod.normalize_rotation(
            run.spec.build_field(run.params["order"]))
    except tuple(_NO_NORMALIZATION) as exc:
        status, run.why_not = _NO_NORMALIZATION[type(exc)]
        run.sections["normalization"] = {"status": status,
                                         "summary": str(exc)}
        return
    run.sections["normalization"] = {
        "status": "ok",
        "change_matrix": [[format_coefficient(c) for c in row]
                          for row in norm.change_matrix],
        "time_rescale": format_coefficient(norm.time_rescale),
        "summary": f"linear part conjugated to the standard rotation; "
                   f"time rescaled by {format_coefficient(norm.time_rescale)}",
    }


def _lyapunov(run):
    if run.norm is None:
        return
    order = run.params["order"]
    rep = center_mod.lyapunov_quantities(run.norm, order)
    morse = center_mod.morse_check(rep.first_integral)
    first_deg = None if rep.first_nonzero is None else \
        rep.obstructions[rep.first_nonzero][0]
    run.sections["lyapunov"] = {
        "order": order,
        "obstructions": [{"degree": d, "value": format_coefficient(e)}
                         for d, e in rep.obstructions],
        "first_nonzero_degree": first_deg,
        "first_integral": _poly_rows(rep.first_integral),
        "summary": ("all obstructions vanish up to degree "
                    f"{order}" if first_deg is None else
                    f"first nonzero obstruction at degree {first_deg}"),
    }
    run.sections["morse"] = {
        "nondegenerate": morse.nondegenerate,
        "definite": morse.definite,
        "summary": "quadratic part is "
                   + ("definite" if morse.definite else "nondegenerate but "
                      "indefinite" if morse.nondegenerate else "degenerate"),
    }


def _return_maps(run):
    if run.norm is None:
        return
    params = run.params
    seg = flow_mod.TransverseSegment((1.0, 0.0), max(params["radii"]))
    seq = flow_mod.detect_periodic_sequence(
        run.norm.normalized, seg, params["radii"],
        rel_tol=params["rel_tol"], tol=params["tol"],
    )
    run.sections["return_maps"] = {
        "rows": [
            {"r_in": s.r_in, "r_out": s.r_out, "residual": res,
             "crossings": s.crossings, "tol": params["tol"]}
            for s, res in zip(seq.samples, seq.residuals)
        ],
        "relative_tolerance": seq.relative_tolerance,
        "verdict": seq.verdict,
        "summary": f"{seq.verdict} over radii {list(seq.radii)}",
    }


def _verdict(run):
    if run.norm is None:
        symbolic, numeric, agreement = "NOT_APPLICABLE", None, None
        summary = f"{run.why_not}; nothing to compare"
    else:
        center = run.sections["lyapunov"]["first_nonzero_degree"] is None
        symbolic = "CENTER_TO_ORDER_N" if center else "FOCUS"
        numeric = run.sections["return_maps"].get("verdict")
        agreement = None if numeric is None else \
            center == (numeric == "PERIODIC_SEQUENCE")
        summary = (
            f"symbolic {symbolic} vs numeric {numeric}; "
            f"agreement={agreement}. Numeric detection cannot distinguish "
            "a center from a focus whose first obstruction lies beyond the "
            "tolerance horizon; the symbolic verdict is authoritative.")
    run.sections["verdict"] = {"symbolic": symbolic, "numeric": numeric,
                               "agreement": agreement, "summary": summary}


def _orbit_dumps(run):
    if run.norm is None or run.dump_dir is None:
        return
    dump_dir = Path(run.dump_dir)
    dump_dir.mkdir(parents=True, exist_ok=True)
    files = [f"orbit_r{r}.csv" for r in run.params["radii"]]
    for r, name in zip(run.params["radii"], files):
        traj = flow_mod.integrate(run.norm.normalized, (r, 0.0), 7.0,
                                  tol=run.params["tol"])
        flow_mod.trajectory_to_csv(traj, dump_dir / name)
    run.sections["orbit_dumps"] = {
        "directory": str(dump_dir), "files": files,
        "summary": f"dumped {len(files)} orbits",
    }


def _siegel(run):
    # factorization verification loses three degrees
    run.form = run.spec.build_form(run.params["order"] + 3)
    is_siegel = fol_mod.siegel_check(run.form)
    run.sections["siegel"] = {
        "is_siegel": is_siegel,
        "summary": "linear part is exactly x dy + y dx" if is_siegel
                   else "form is not in Siegel resonant shape",
    }


def _blowup(run):
    try:
        res = fol_mod.blowup(run.form)
    except fol_mod.NotIsolated as exc:
        run.sections["blowup"] = {
            "error": {"type": "NotIsolated", "message": str(exc),
                      "category": "input"},
            "summary": f"blow-up skipped: {exc}",
        }
        return
    divisor = ("invariant" if res.divisor_invariant
               else "not invariant (dicritical)")
    run.sections["blowup"] = {
        "divisor_invariant": res.divisor_invariant,
        "divided_power_t": res.divided_power_t,
        "divided_power_s": res.divided_power_s,
        "chart_t": {"dx": _poly_rows(res.chart_t.a),
                    "dt": _poly_rows(res.chart_t.b)},
        "chart_s": {"ds": _poly_rows(res.chart_s.a),
                    "dy": _poly_rows(res.chart_s.b)},
        "singularities": [
            {"chart": s.chart,
             "location": [s.location.real, s.location.imag],
             "eigenvalues": [[e.real, e.imag] for e in s.eigenvalues],
             "ratio": None if s.ratio is None
             else [s.ratio.real, s.ratio.imag]}
            for s in res.singularities_on_E
        ],
        "summary": (
            f"divisor {divisor}; "
            f"{len(res.singularities_on_E)} singular point(s) on E"
        ),
    }


def _formal_first_integral(run):
    """The first integral and its factorization F = f*g*unit."""
    if not run.sections["siegel"]["is_siegel"]:
        run.sections["formal_first_integral"] = {
            "skipped": True,
            "summary": "skipped: the construction needs the Siegel shape",
        }
        return
    order = run.params["order"]
    f_int, obstructions = fol_mod.formal_first_integral_siegel(
        run.form, order + 3)
    visible = [(d, e) for d, e in obstructions if d <= order]
    all_zero = all(not e for _, e in obstructions)
    run.sections["formal_first_integral"] = {
        "order": order,
        "obstructions": [{"degree": d, "value": format_coefficient(e)}
                         for d, e in visible],
        "all_zero_to_internal_order": all_zero,
        "first_integral": _poly_rows(f_int.truncate(order)),
        "summary": ("formal first integral exists to order "
                    f"{order}" if all_zero else
                    "nonzero resonant obstructions; no formal first integral"),
    }
    run.pair = pair = fol_mod.factor_fg(f_int, order)
    run.sections["factorization"] = {
        "verified_degree": pair.verified_degree,
        "f": _poly_rows(pair.f.truncate(order)),
        "g": _poly_rows(pair.g.truncate(order)),
        "unit": _poly_rows(pair.unit.truncate(order)),
        "general_position": pair.general_position,
        "summary": f"F = f*g*unit verified exactly to degree "
                   f"{pair.verified_degree}",
    }


def _real_slice(run):
    if run.pair is None:
        return
    params = run.params
    grid = fol_mod.SliceGrid(tuple(params["slice_radii"]),
                             params["slice_angles"])
    sl, ver = fol_mod.real_slice(run.pair, grid)
    hist = dict(Counter(str(c) for c in ver.contact_orders))
    run.sections["real_slice"] = {
        "n_samples": ver.n_samples,
        "n_failed_seeds": ver.n_failed_seeds,
        "max_abs_im_fg": ver.max_abs_im_fg,
        "min_re_fg": ver.min_re_fg,
        "contact_order_histogram": hist,
        "tol": params["tol"],
        "residual_tol": ver.residual_tol,
        "samples": [
            {"x": [x.real, x.imag], "y": [y.real, y.imag],
             "tol": ver.residual_tol}
            for x, y in sl.sample_points
        ],
        "summary": (
            f"{ver.n_samples} samples; max |Im(fg)| = "
            f"{ver.max_abs_im_fg:.3e}, min Re(fg) = {ver.min_re_fg:.3e}, "
            f"contact orders {hist}"
        ),
    }


def _finite_order(run):
    g = run.spec.build_germ()
    section = {
        "multiplier": format_coefficient(g.multiplier),
        "multiplier_order": multiplier_order(g.multiplier),
        "k_max": run.params["k_max"],
    }
    try:
        order = finite_order(g, run.params["k_max"])
        section["order"] = order
        section["summary"] = (
            f"finite order {order}" if order is not None else
            "no finite order (multiplier not a root of unity, or a nonzero "
            "term survives in the iterate)"
        )
    except InconclusiveOrder as exc:
        section["order"] = None
        section["inconclusive"] = {"needed_degree": exc.needed_degree}
        section["summary"] = str(exc)
    run.sections["finite_order"] = section


def _pseudo_orbits(run):
    g = run.spec.build_germ()
    params = run.params
    rows = []
    for pt in params["points"]:
        z0 = complex(pt[0], pt[1])
        rec = pseudo_orbit(g, z0, params["k_max"],
                           escape_radius=params["escape_radius"],
                           return_tolerance=params["tol"])
        rows.append({
            "z0": [z0.real, z0.imag],
            "status": rec.status,
            "period": rec.period,
            "iterations": len(rec.iterates) - 1,
            "tol": params["tol"],
        })
    statuses = sorted({r["status"] for r in rows})
    run.sections["pseudo_orbits"] = {
        "escape_radius": params["escape_radius"],
        "rows": rows,
        "summary": f"{len(rows)} starting points; statuses {statuses}",
    }


# The stages each command runs, in order, for each kind it accepts.  A
# stage that needs an earlier one which did not succeed writes nothing.
_REAL = (_normalization, _lyapunov, _return_maps, _verdict, _orbit_dumps)
_COMPLEX = (_siegel, _blowup, _formal_first_integral, _real_slice)
_GERM = (_finite_order, _pseudo_orbits)
_STAGES = {
    "analyze": {"real_field": _REAL, "complex_form": _COMPLEX, "germ": _GERM},
    "lyapunov": {"real_field": (_normalization, _lyapunov)},
    "returnmap": {"real_field": (_normalization, _return_maps)},
    "blowup": {"complex_form": (_siegel, _blowup)},
    "germ": {"germ": _GERM},
    "slice": {"complex_form": (_siegel, _formal_first_integral, _real_slice)},
}


def run_pipeline(spec: ProblemSpec, overrides: dict | None = None,
                 dump_dir=None, command: str = "analyze") -> dict:
    """Run the stages `command` lists for the spec's kind; a numeric
    failure is embedded under the stage's name and later stages still run."""
    stages = _STAGES.get(command, {}).get(spec.kind)
    if stages is None:
        raise ValidationError(f"command {command!r} does not apply to kind "
                              f"{spec.kind!r}")
    params = dict(DEFAULT_ANALYSIS[spec.kind])
    params.update(spec.analysis)
    if overrides:
        params.update({k: v for k, v in overrides.items() if v is not None})
    _check_ranges(params, spec.kind)
    report = {
        "schema_version": 1,
        "kind": spec.kind,
        "provenance": {
            "tool": "centerfocus",
            "version": __version__,
            "input_sha256": spec.input_sha256,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "parameters": params,
        },
        "sections": {},
    }
    # what the stages hand on: norm (or why_not), form, pair
    run = SimpleNamespace(spec=spec, params=params, dump_dir=dump_dir,
                          sections=report["sections"], norm=None, form=None,
                          pair=None, why_not=None)
    for stage in stages:
        try:
            stage(run)
        except _NUMERIC_FAILURES as exc:
            name = stage.__name__.lstrip("_")
            report["sections"][name] = {
                "error": {"type": type(exc).__name__, "message": str(exc),
                          "category": "numeric"},
                "summary": f"{name} failed: {exc}",
            }
            report["numeric_failure"] = True
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# command line

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="centerfocus",
        description="center-focus analysis of planar rotational "
                    "singularities",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, text):
        p = subs.add_parser(name, help=text)
        p.add_argument("spec", help="path to the JSON problem document")
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    p = command("analyze", "run the full pipeline for the kind")
    p.add_argument("--truncation", type=int, dest="order",
                   help="series order for the symbolic stages")
    p.add_argument("--radii", help="comma-separated return-map radii")
    p.add_argument("--tol", type=float, help="integrator / slice tolerance")
    p.add_argument("--dump-orbits", dest="dump_dir",
                   help="directory for CSV orbit dumps (real fields)")
    p = command("lyapunov", "symbolic stages only (real field)")
    p.add_argument("--truncation", type=int, dest="order")
    p = command("returnmap", "return-map table only (real field)")
    p.add_argument("--radii")
    p.add_argument("--tol", type=float)
    command("blowup", "blow-up report (complex form)")
    p = command("germ", "finite order and pseudo-orbits")
    p.add_argument("--kmax", type=int, dest="k_max")
    p = command("slice", "first integral, factors, real slice")
    p.add_argument("--truncation", type=int, dest="order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_spec(args.spec)
        overrides = {key: getattr(args, key, None)
                     for key in ("order", "tol", "k_max")}
        if getattr(args, "radii", None):
            try:
                overrides["radii"] = [float(v)
                                      for v in args.radii.split(",") if v]
            except ValueError as exc:
                raise ValidationError(f"--radii: {exc}")
        report = run_pipeline(spec, overrides,
                              getattr(args, "dump_dir", None), args.command)
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = render_report(report)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 2 if report.get("numeric_failure") else 0


if __name__ == "__main__":
    sys.exit(main())
