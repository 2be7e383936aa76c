"""Batch front end: JSON problem specs in, JSON reports out.

Input format (coefficients are JSON integers or strings that `Fraction`
reads, such as "-2/7" or "5e-3", exponents below sys.get_int_max_str_digits()):

  real field      {"kind": "real_field", "truncation": 8,
                   "dx": [[i, j, "num/den"], ...],   # xdot component
                   "dy": [[i, j, "num/den"], ...],   # ydot component
                   "analysis": {"order": 10, "radii": [0.2, 0.1], ...}}

  complex 1-form  {"kind": "complex_form", ...} with "dx"/"dy" holding the
                  dx/dy coefficients, complex ones as "a/b+c/d i".

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

import hashlib
import json
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, inf, isfinite
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from .germ import ROOTS_OF_UNITY, Germ1, InconclusiveOrder, finite_order, \
    multiplier_order, pseudo_orbit
from .series import Gaussian, InternalError, NumericFailure, OneForm2, \
    Poly2, VectorField2, format_coefficient

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
        "slice_radii": [0.05, 0.08, 0.12, 0.16, 0.2],  # foliation.SliceGrid
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

# Every analysis number is finite.  Each of these analysis values, or
# every entry of such a list (which must not be empty), exceeds its floor;
# the order of a real field is at least 4, of a complex form at least 2.
_FLOORS = {"tol": 0, "rel_tol": 0, "escape_radius": 0, "radii": 0,
           "slice_radii": 0, "slice_angles": 0, "k_max": 0}
_ORDER_FLOORS = {"real_field": 3, "complex_form": 1}

_COMPLEX_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*\+\s*(-?\d+(?:/\d+)?)\s*i\s*$")


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


def _check_params(given: dict, params: dict, kind: str) -> None:
    """Check `given`, the analysis values and then the flags that were
    set, for keys, shapes and ranges; `params` is `given` over the
    defaults."""
    defaults = DEFAULT_ANALYSIS[kind]
    unknown = given.keys() - defaults.keys()
    if unknown:
        raise ValidationError(f"analysis: unknown keys {sorted(unknown)} "
                              f"for kind {kind}")
    for key, value in given.items():
        _check_shape(value, defaults[key], f"analysis.{key}")
        many = isinstance(value, list)
        values = value if many else [value]
        if any(isinstance(v, float) and not isfinite(v) for item in values
               for v in (item if isinstance(item, list) else [item])):
            raise ValidationError(f"{key}: expected finite numbers, "
                                  f"got {value!r}")
        floor = _ORDER_FLOORS[kind] if key == "order" else _FLOORS.get(key)
        if floor is not None and (not values or min(values) <= floor):
            what = "a nonempty list of values" if many else "a value"
            raise ValidationError(f"{key}: expected {what} above {floor}, "
                                  f"got {value!r}")
    if given.keys() & {"points", "escape_radius"}:
        for k, point in enumerate(params["points"]):
            if abs(complex(*point)) >= params["escape_radius"]:
                raise ValidationError(f"points[{k}]: not inside the escape "
                                      "radius")


def parse_coefficient(text, where: str) -> Gaussian:
    """`text` as Gaussian integers over a denominator, not reduced."""
    if _is_int(text):
        return text, 0, 1
    if not isinstance(text, str):
        raise ValidationError(f"{where}: coefficient must be a string, "
                              f"got {type(text).__name__}")
    m = _COMPLEX_RE.match(text)
    e = re.search(r"[eE]([-+]?[\d_]+)", text)  # Fraction expands 10^e
    try:
        if e and abs(int(e[1])) >= (sys.get_int_max_str_digits() or inf):
            raise ValueError("exponent beyond the integer digit limit")
        if m:
            (a, b), (c, d) = (Fraction(t).as_integer_ratio() for t in m.groups())
        else:
            (a, b), (c, d) = Fraction(text.strip()).as_integer_ratio(), (0, 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: bad coefficient {text!r} ({exc})")
    return a * d, c * b, b * d


def _root_of_unity(p: int, q: int, where: str) -> Gaussian:
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


class ProblemSpec(NamedTuple):
    kind: str
    truncation: int
    dx_terms: dict | None
    dy_terms: dict | None
    germ_coeffs: dict | None
    analysis: dict
    input_sha256: str

    def _components(self, order: int) -> tuple[Poly2, Poly2]:
        n = max(self.truncation, order)
        return (Poly2(self.dx_terms, self.truncation).lift(n),
                Poly2(self.dy_terms, self.truncation).lift(n))

    def build_field(self, order: int) -> VectorField2:
        return VectorField2(*self._components(order))

    def build_form(self, order: int) -> OneForm2:
        return OneForm2(*self._components(order))

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
        if real_only and c[1]:
            raise ValidationError(f"{where}: real field cannot carry an "
                                  "imaginary coefficient")
        terms[(i, j)] = c
    return terms


def parse_spec(path) -> ProblemSpec:
    """Load and validate a problem document; `run_pipeline` checks its
    analysis values.  It is read with `open`, as a `Path` per document
    churns the interpreter's table of interned names."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    sha = hashlib.sha256(data).hexdigest()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column "
                         f"{exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in DEFAULT_ANALYSIS:
        raise ValidationError(
            f"kind: expected one of {sorted(DEFAULT_ANALYSIS)}, got {kind!r}"
        )
    unknown = doc.keys() - {"kind", "truncation", "analysis", *(
        ("coeffs", "multiplier_root") if kind == "germ" else ("dx", "dy"))}
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} for kind "
                              f"{kind}")
    truncation = doc.get("truncation")
    if not _is_int(truncation) or truncation < 1:
        raise ValidationError("truncation: expected a positive integer")
    analysis = doc.get("analysis", {})
    if not isinstance(analysis, dict):
        raise ValidationError("analysis: expected an object")
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
            re, im, den = germ_coeffs.get(1, lam)  # lam has den 1
            if (re, im) != (lam[0] * den, lam[1] * den):
                raise ValidationError(
                    "multiplier_root contradicts the degree-1 coefficient"
                )
            germ_coeffs[1] = lam
        if not any(germ_coeffs.get(1, (0, 0))[:2]):
            raise ValidationError("coeffs: nonzero degree-1 coefficient "
                                  "(or multiplier_root) is required")
    return ProblemSpec(kind, truncation, dx_terms, dy_terms, germ_coeffs,
                       dict(analysis), sha)


# ---------------------------------------------------------------------------
# report assembly: one function per stage, each writing its own sections;
# a stage imports the modules it calls, so a command loads only those

# Why a real field has no exact normalization: status, verdict summary.
_NO_NORMALIZATION = {
    "NotARotation": ("not_a_rotation", "rotation hypothesis fails"),
    "IrrationalRotationFrequency": (
        "irrational_frequency", "exact normalization is unavailable"),
}


def _poly_rows(p: Poly2) -> list:
    return [[i, j, format_coefficient((x, y, den))]
            for i, j, x, y, den in p.scaled_terms()]


def _normalization(run):
    from . import center as center_mod
    try:
        run.norm = norm = center_mod.normalize_rotation(
            run.spec.build_field(run.params["order"]))
    except (center_mod.NotARotation,
            center_mod.IrrationalRotationFrequency) as exc:
        status, run.why_not = _NO_NORMALIZATION[type(exc).__name__]
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
    from . import center as center_mod
    order = run.params["order"]
    rep = center_mod.lyapunov_quantities(run.norm, order)
    morse = center_mod.morse_check(rep.first_integral)
    first_deg = None if rep.first_nonzero is None else \
        rep.obstructions[rep.first_nonzero][0]
    run.sections["lyapunov"] = {
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
    from . import flow as flow_mod
    params = run.params
    seg = flow_mod.TransverseSegment((1.0, 0.0), max(params["radii"]))
    seq = flow_mod.detect_periodic_sequence(
        run.norm.normalized, seg, params["radii"],
        rel_tol=params["rel_tol"], tol=params["tol"],
    )
    run.sections["return_maps"] = {
        "rows": [{"r_in": s.r_in, "r_out": s.r_out, "residual": res}
                 for s, res in zip(seq.samples, seq.residuals)],
        "verdict": seq.verdict,
        "summary": f"{seq.verdict} over radii {params['radii']}",
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
    from . import flow as flow_mod
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
    from . import foliation as fol_mod
    # factorization verification loses three degrees
    run.form = run.spec.build_form(run.params["order"] + 3)
    is_siegel = fol_mod.siegel_check(run.form)
    run.sections["siegel"] = {
        "is_siegel": is_siegel,
        "summary": "linear part is exactly x dy + y dx" if is_siegel
                   else "form is not in Siegel resonant shape",
    }


def _blowup(run):
    from . import foliation as fol_mod
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
    from . import foliation as fol_mod
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
        "verified_degree": order,
        "f": _poly_rows(pair.f.truncate(order)),
        "g": _poly_rows(pair.g.truncate(order)),
        "unit": _poly_rows(pair.unit.truncate(order)),
        "general_position": pair.general_position,
        "summary": f"F = f*g*unit verified exactly to degree {order}",
    }


def _real_slice(run):
    if run.pair is None:
        return
    from . import foliation as fol_mod
    params = run.params
    grid = fol_mod.SliceGrid(tuple(params["slice_radii"]),
                             params["slice_angles"])
    samples, ver = fol_mod.real_slice(run.pair, grid)
    hist = dict(Counter(str(c) for c in ver.contact_orders))
    run.sections["real_slice"] = {
        "n_samples": ver.n_samples,
        "n_failed_seeds": ver.n_failed_seeds,
        "max_abs_im_fg": ver.max_abs_im_fg,
        "min_re_fg": ver.min_re_fg,
        "contact_order_histogram": hist,
        "residual_tol": ver.residual_tol,
        "samples": [{"x": [x.real, x.imag], "y": [y.real, y.imag]}
                    for x, y in samples],
        "summary": (
            f"{ver.n_samples} samples; max |Im(fg)| = "
            f"{ver.max_abs_im_fg:.3e}, min Re(fg) = {ver.min_re_fg:.3e}, "
            f"contact orders {hist}"
        ),
    }


def _finite_order(run):
    run.germ = g = run.spec.build_germ()
    m, k_max = multiplier_order(g), run.params["k_max"]
    section = {"multiplier": format_coefficient(g.multiplier),
               "multiplier_order": m}
    try:
        order = finite_order(g, k_max)
        section["order"] = order
        section["summary"] = (
            f"finite order {order}" if order is not None else
            f"no finite order up to k_max = {k_max}; the multiplier is a "
            f"root of unity of order {m}" if m and m > k_max else
            "no finite order (multiplier not a root of unity, or a nonzero "
            "term survives in the iterate)"
        )
    except InconclusiveOrder as exc:
        section["order"] = None
        section["inconclusive"] = {"needed_degree": exc.needed_degree}
        section["summary"] = str(exc)
    run.sections["finite_order"] = section


def _pseudo_orbits(run):
    g = run.germ
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
        })
    statuses = sorted({r["status"] for r in rows})
    run.sections["pseudo_orbits"] = {
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


def _timestamp() -> str:
    """Now, as `datetime.now(timezone.utc).isoformat()` writes it."""
    s, us = divmod(time.time_ns() // 1000, 10 ** 6)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(s)) \
        + (f".{us:06d}" if us else "") + "+00:00"


def run_pipeline(spec: ProblemSpec, overrides: dict | None = None,
                 dump_dir=None, command: str = "analyze") -> dict:
    """Run the stages `command` lists for the spec's kind on the defaults,
    overridden by the spec's analysis and then by the non-None `overrides`.
    A stage's numeric failure is embedded under its name and later stages
    still run; its ValueError becomes an input error that names the stage."""
    stages = _STAGES.get(command, {}).get(spec.kind)
    if stages is None:
        raise ValidationError(f"command {command!r} does not apply to kind "
                              f"{spec.kind!r}")
    if dump_dir is not None and _orbit_dumps not in stages:
        raise ValidationError(f"--dump-orbits: {command} dumps no orbits "
                              f"for kind {spec.kind}")
    given = dict(spec.analysis)
    if overrides:
        given.update({k: v for k, v in overrides.items() if v is not None})
    params = {**DEFAULT_ANALYSIS[spec.kind], **given}
    _check_params(given, params, spec.kind)
    report = {
        "schema_version": 2,
        "kind": spec.kind,
        "provenance": {
            "tool": "centerfocus",
            "version": __version__,
            "input_sha256": spec.input_sha256,
            "timestamp": _timestamp(),
            "parameters": params,
        },
        "sections": {},
    }
    # what the stages hand on: norm (or why_not), form, pair, germ
    run = SimpleNamespace(spec=spec, params=params, dump_dir=dump_dir,
                          sections=report["sections"], norm=None, form=None,
                          pair=None, germ=None, why_not=None)
    for stage in stages:
        name = stage.__name__.lstrip("_")
        try:
            stage(run)
        except ValueError as exc:
            raise ValidationError(f"{name}: {exc}") from exc
        except NumericFailure as exc:
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

@cache  # built on first use, then shared by every call
def _build_parser():
    import argparse  # loaded when the first command line is parsed

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):  # a usage error is an input error
            raise ValidationError(f"{self.prog}: {message}")

    parser = _ArgumentParser(
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

    def radii(text):  # argparse names a bad value by this function's name
        return [float(v) for v in text.split(",") if v]

    p = command("analyze", "run the full pipeline for the kind")
    p.add_argument("--truncation", type=int, dest="order",
                   help="series order for the symbolic stages")
    p.add_argument("--radii", type=radii,
                   help="comma-separated return-map radii")
    p.add_argument("--tol", type=float, help="return-map integrator tolerance "
                   "(real field), return tolerance (germ); slices ignore it")
    p.add_argument("--dump-orbits", dest="dump_dir",
                   help="directory for CSV orbit dumps (real fields)")
    p = command("lyapunov", "symbolic stages only (real field)")
    p.add_argument("--truncation", type=int, dest="order")
    p = command("returnmap", "return-map table only (real field)")
    p.add_argument("--radii", type=radii)
    p.add_argument("--tol", type=float)
    command("blowup", "blow-up report (complex form)")
    p = command("germ", "finite order and pseudo-orbits")
    p.add_argument("--kmax", type=int, dest="k_max")
    p = command("slice", "first integral, factors, real slice")
    p.add_argument("--truncation", type=int, dest="order")
    return parser


def main(argv=None) -> int:
    try:  # every input error, usage and unwritable --out too, exits 1
        args = vars(_build_parser().parse_args(argv))
        # the options left in `args` are the analysis overrides
        command, path, out, dump_dir = [args.pop(key, None) for key in (
            "command", "spec", "out", "dump_dir")]
        report = run_pipeline(parse_spec(path), args, dump_dir, command)
        text = render_report(report)
        if out:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 2 if report.get("numeric_failure") else 0


if __name__ == "__main__":
    sys.exit(main())
