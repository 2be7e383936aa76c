"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

from centerfocus.center import lyapunov_quantities, normalize_rotation
from centerfocus.cli import main, parse_spec, run_pipeline
from centerfocus.flow import TransverseSegment, bounded_order_scan, \
    half_return_composition, return_map
from centerfocus.foliation import SliceGrid, blowup, factor_fg, \
    formal_first_integral_siegel, real_slice
from centerfocus.germ import Germ1, compose, finite_order, invert
from centerfocus.series import OneForm2, Poly2, VectorField2, gr, \
    lie_derivative

FIXTURES = Path(__file__).parent / "fixtures"


def _check(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label
    return True


def _field(n, p_terms, q_terms):
    return VectorField2(Poly2(p_terms, n), Poly2(q_terms, n))


def linear_center(n=12):
    return _field(n, {(0, 1): -1}, {(1, 0): 1})


def scaled_center(n=12):
    return _field(n, {(0, 1): -2}, {(1, 0): 2})


def hamiltonian_cubic(n=12):
    return _field(n, {(0, 1): -1}, {(1, 0): 1, (2, 0): 1})


def hamiltonian_quartic(n=12):
    # H = (x^2+y^2)/2 + (x^4+y^4)/4
    return _field(n, {(0, 1): -1, (0, 3): -1}, {(1, 0): 1, (3, 0): 1})


def cubic_focus(n=12, sign=1):
    return _field(
        n,
        {(0, 1): -1, (3, 0): sign, (1, 2): sign},
        {(1, 0): 1, (2, 1): sign, (0, 3): sign},
    )


def test_criterion_01_lyapunov_exactness():
    for name, fld in (("linear center", linear_center()),
                      ("hamiltonian cubic", hamiltonian_cubic())):
        t0 = time.perf_counter()
        rep = lyapunov_quantities(normalize_rotation(fld), 12)
        elapsed = time.perf_counter() - t0
        vanish = rep.first_nonzero is None and \
            all(not eta for _, eta in rep.obstructions)
        exact = lie_derivative(fld, rep.first_integral).is_zero()
        _check(
            f"criterion 1 [{name}]: obstructions vanish exactly to N=12, "
            f"X(F) = 0 symbolically, runtime {elapsed:.2f}s < 5s",
            vanish and exact and elapsed < 5.0,
        )


def test_criterion_02_focus_detection():
    rep = lyapunov_quantities(normalize_rotation(cubic_focus(8)), 8)
    deg, eta = rep.obstructions[rep.first_nonzero]
    _check(
        "criterion 2: cubic focus has first obstruction eta_2 = 2 at degree 4",
        deg == 4 and eta == gr(2),
    )


def test_criterion_03_return_map_oracle():
    seg = TransverseSegment((1.0, 0.0), 0.25)
    fld = cubic_focus(8)
    t0 = time.perf_counter()
    r1 = return_map(fld, seg, 0.1).r_out
    r2 = return_map(fld, seg, 0.05).r_out
    elapsed = time.perf_counter() - t0
    closed1 = 1 / math.sqrt(1 / 0.01 - 4 * math.pi)
    closed2 = 1 / math.sqrt(400 - 4 * math.pi)
    _check(
        f"criterion 3: P(0.1) = {r1:.6f} and P(0.05) = {r2:.6f} match the "
        f"closed form within 1e-4, runtime {elapsed:.2f}s < 2s",
        abs(r1 - closed1) < 1e-4 and abs(r2 - closed2) < 1e-4
        and elapsed < 2.0,
    )


CORPUS = {
    "linear center": {"dx": [[0, 1, "-1"]], "dy": [[1, 0, "1"]]},
    "scaled center": {"dx": [[0, 1, "-2"]], "dy": [[1, 0, "2"]]},
    "outward cubic focus": {
        "dx": [[0, 1, "-1"], [3, 0, "1"], [1, 2, "1"]],
        "dy": [[1, 0, "1"], [2, 1, "1"], [0, 3, "1"]],
    },
    "inward cubic focus": {
        "dx": [[0, 1, "-1"], [3, 0, "-1"], [1, 2, "-1"]],
        "dy": [[1, 0, "1"], [2, 1, "-1"], [0, 3, "-1"]],
    },
    "hamiltonian cubic center": {
        "dx": [[0, 1, "-1"]], "dy": [[1, 0, "1"], [2, 0, "1"]],
    },
    "hamiltonian quartic center": {
        "dx": [[0, 1, "-1"], [0, 3, "-1"]],
        "dy": [[1, 0, "1"], [3, 0, "1"]],
    },
}


def test_criterion_04_equivalence_over_corpus(tmp_path):
    agreements = {}
    for name, terms in CORPUS.items():
        doc = {"kind": "real_field", "truncation": 3, **terms,
               "analysis": {"order": 10}}
        path = tmp_path / (name.replace(" ", "_") + ".json")
        path.write_text(json.dumps(doc))
        report = run_pipeline(parse_spec(path))
        agreements[name] = report["sections"]["verdict"]["agreement"]
    _check(
        "criterion 4: certify_center and detect_periodic_sequence agree on "
        f"all {len(CORPUS)} corpus fields",
        all(v is True for v in agreements.values()),
    )


def test_criterion_05_half_return_period_two():
    centers = (linear_center(), scaled_center(), hamiltonian_cubic(),
               hamiltonian_quartic())
    seg = TransverseSegment((1.0, 0.0), 0.25)
    worst = 0.0
    for fld in centers:
        norm = normalize_rotation(fld)
        for r in (0.2, 0.1, 0.05):
            _, second = half_return_composition(norm.normalized, seg, r)
            worst = max(worst, abs(second.r_out - r) / r)
    _check(
        "criterion 5: composed half returns give back r on every corpus "
        f"center, worst relative residual {worst:.2e} <= 1e-8",
        worst <= 1e-8,
    )


def test_criterion_06_cusp_fixture():
    n = 8
    cusp = _field(n, {(0, 2): 3}, {(1, 0): 2})
    h = Poly2({(2, 0): 1, (0, 3): -1}, n)
    exact = lie_derivative(cusp, h).is_zero()
    seg = TransverseSegment((0.0, 1.0), 1.0)
    points = [(0.0, 0.05 + 0.05 * i) for i in range(10)]
    scans = bounded_order_scan(cusp, seg, points, t_budget=100.0,
                               domain_radius=3.0)
    _check(
        "criterion 6: X(x^2 - y^3) = 0 exactly and all 10 cusp orbits meet "
        "the vertical segment at most twice",
        exact and len(scans) == 10 and all(s.count <= 2 for s in scans),
    )


def test_criterion_07_germ_suite():
    n = 16
    rot = Germ1({1: gr(0, 1)}, n)
    ok = finite_order(rot, 10) == 4
    g = Germ1({1: 1, 2: 1}, n)
    conj = compose(invert(g), compose(rot, g))
    ok = ok and finite_order(conj, 10) == 4
    ok = ok and finite_order(Germ1({1: 1, 2: 1}, 12), 50) is None
    rng = random.Random(2024)
    invariant = True
    for _ in range(100):
        coeffs = {1: Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2]))}
        for k in range(2, n + 1):
            if rng.random() < 0.35:
                coeffs[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        h = Germ1(coeffs, n)
        conj = compose(invert(h), compose(rot, h))
        invariant = invariant and finite_order(conj, 10) == 4
    _check(
        "criterion 7: finite_order(iz) = 4, conjugation at N=16 gives 4, "
        "z + z^2 has no order <= 50, invariance holds on 100 conjugators",
        ok and invariant,
    )


def test_criterion_08_blowup_suite():
    n = 8
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    res = blowup(OneForm2(y, x))
    charts = sorted(s.chart for s in res.singularities_on_E)
    ratios_ok = all(s.ratio is not None and abs(s.ratio - (-0.5)) < 1e-9
                    for s in res.singularities_on_E)
    siegel_ok = (res.divisor_invariant and charts == ["s", "t"]
                 and len(res.singularities_on_E) == 2 and ratios_ok)
    dicritical = blowup(OneForm2(-y, x))
    _check(
        "criterion 8: x dy + y dx blows up to two ratio -1/2 singularities "
        "on an invariant divisor; x dy - y dx is dicritical",
        siegel_ok and not dicritical.divisor_invariant,
    )


def test_criterion_09_complex_round_trip():
    n = 10
    internal = n + 3
    x = Poly2.var_x(internal + 1)
    y = Poly2.var_y(internal + 1)
    target = x * y + x ** 3 * y ** 2
    form = OneForm2(target.diff_x(), target.diff_y())
    f_int, obstructions = formal_first_integral_siegel(form, internal)
    zero_obs = all(not eta for _, eta in obstructions)
    recovered = f_int == target.truncate(internal)
    pair = factor_fg(f_int, n)
    recon = (pair.f * pair.g * pair.unit).truncate(n) == \
        f_int.truncate(n)
    sl, ver = real_slice(pair, SliceGrid())
    slice_ok = (ver.n_samples >= 50 and ver.max_abs_im_fg <= 1e-9
                and ver.min_re_fg >= -1e-9
                and all(c == 1 for c in ver.contact_orders))
    _check(
        "criterion 9: d(xy + x^3 y^2) round trip: zero obstructions, "
        f"F = f*g*unit exact to N={n}, {ver.n_samples} slice samples with "
        "real nonnegative product and contact order one",
        zero_obs and recovered and recon and slice_ok,
    )


def test_criterion_10_determinism(tmp_path):
    spec = FIXTURES / "linear_center.json"
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", str(spec), "--out", str(out1)]) == 0
    assert main(["analyze", str(spec), "--out", str(out2)]) == 0
    strip = re.compile(r'"timestamp": "[^"]*"')
    same = strip.sub('"timestamp": "-"', out1.read_text()) == \
        strip.sub('"timestamp": "-"', out2.read_text())
    _check(
        "criterion 10: two analyze runs are byte-identical modulo timestamp",
        same,
    )
