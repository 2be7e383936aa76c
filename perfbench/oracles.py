"""Independent checks of centerfocus reports.

Every check recomputes what it needs from the input document, the report
and the construction record (`truth`) made by the generator, using the
benchmark's own Fraction arithmetic (`exact`) or sympy; none imports
centerfocus or compares with a stored copy of earlier output.  `check`
returns a list of problems, empty when the report passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import exact
from exact import Qi, parse_coeff, rows_to_poly

R2 = {(2, 0): Fraction(1), (0, 2): Fraction(1)}


def check(item: dict, report: dict) -> list[str]:
    """Problems of the report of one document, checked by its command."""
    sections = report.get("sections", {})
    try:
        return _CHECKS[item["command"]](item["doc"], item["truth"],
                                        sections)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


# --------------------------------------------------------------------------
# real fields

def _real(c) -> Fraction:
    c = parse_coeff(c) if isinstance(c, str) else c
    if isinstance(c, Qi):
        if c.im:
            raise ValueError(f"real series carries {c}")
        return c.re
    return Fraction(c)


def _normalized_field(doc, norm):
    """s * T^-1 X(T u) from the input field and the report's T and s."""
    n = doc["analysis"]["order"]
    p = {e: _real(c) for e, c in rows_to_poly(doc["dx"]).items()}
    q = {e: _real(c) for e, c in rows_to_poly(doc["dy"]).items()}
    t = [[_real(c) for c in row] for row in norm["change_matrix"]]
    s = _real(norm["time_rescale"])
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    inv = ((t[1][1] / det, -t[0][1] / det), (-t[1][0] / det, t[0][0] / det))
    ps, qs = exact.substitute_linear(p, t, n), exact.substitute_linear(q, t, n)
    new_p = exact.scale(exact.add(exact.scale(ps, inv[0][0]),
                                  exact.scale(qs, inv[0][1])), s)
    new_q = exact.scale(exact.add(exact.scale(ps, inv[1][0]),
                                  exact.scale(qs, inv[1][1])), s)
    return new_p, new_q


def _check_normalization(doc, sections, problems):
    norm = sections["normalization"]
    if norm.get("status") != "ok":
        problems.append(f"normalization status {norm.get('status')!r}")
        return None
    p, q = _normalized_field(doc, norm)
    lin_p = {e: c for e, c in p.items() if sum(e) == 1}
    lin_q = {e: c for e, c in q.items() if sum(e) == 1}
    if lin_p != {(0, 1): -1} or lin_q != {(1, 0): 1}:
        problems.append("change_matrix and time_rescale do not bring the "
                        "linear part to -y d/dx + x d/dy")
        return None
    return p, q


def _check_lyapunov(doc, truth, sections):
    problems: list[str] = []
    field = _check_normalization(doc, sections, problems)
    lyap = sections["lyapunov"]
    n = truth["order"]
    obstructions = [(o["degree"], _real(o["value"]))
                    for o in lyap["obstructions"]]
    if [d for d, _ in obstructions] != list(range(4, n + 1, 2)):
        problems.append(f"obstruction degrees {[d for d, _ in obstructions]}")
    first = next(((d, v) for d, v in obstructions if v), None)
    if truth["verdict"] == "CENTER":
        if first is not None or lyap["first_nonzero_degree"] is not None:
            problems.append(f"center reported an obstruction at {first}")
    else:
        want = truth["focus_degree"]
        if first is None or first[0] != want \
                or lyap["first_nonzero_degree"] != want:
            problems.append(f"first obstruction {first}, expected degree "
                            f"{want}")
        elif (first[1] > 0) != (truth["focus_sign"] > 0):
            problems.append(f"obstruction sign {first[1]}, expected "
                            f"{truth['focus_sign']}")
    if field is None:
        return problems
    f = {e: _real(c) for e, c in rows_to_poly(lyap["first_integral"]).items()}
    if exact.truncate(f, 2) != {(2, 0): 1, (0, 2): 1}:
        problems.append("first integral does not start with x^2 + y^2")
    # X(F) - sum eta_j (x^2 + y^2)^(j/2) must vanish through degree n
    p, q = field
    xf = exact.add(exact.mul(p, exact.diff_x(f), n),
                   exact.mul(q, exact.diff_y(f), n))
    series = exact.add(*(exact.scale(exact.power(R2, d // 2, n), v)
                         for d, v in obstructions if v))
    rest = exact.sub(xf, series)
    if rest:
        low = min(sum(e) for e in rest)
        problems.append(f"X(F) - sum eta_j r^2j is nonzero at degree {low}")
    if sections["morse"].get("definite") is not True:
        problems.append("Morse check does not report a definite minimum")
    return problems


def radial_return(r: float, a: Fraction, k: int) -> float:
    """Closed-form return map of -y + a x r^2k, x + a y r^2k."""
    return (r ** (-2 * k) - 4 * math.pi * k * float(a)) ** (-1 / (2 * k))


# Return maps are integrated at tol = 1e-12; one revolution keeps the
# closed-form error near 1e-11 relative, so 1e-9 leaves two decades.
RADIAL_REL_TOL = 1e-9


def _check_returnmap(doc, truth, sections):
    problems: list[str] = []
    _check_normalization(doc, sections, problems)
    rm = sections["return_maps"]
    radii = doc["analysis"]["radii"]
    rel_tol = doc["analysis"]["rel_tol"]
    rows = rm["rows"]
    if [row["r_in"] for row in rows] != radii:
        problems.append("return-map rows do not follow the radius schedule")
    radial = truth.get("radial")
    if radial:
        norm = sections["normalization"]
        if norm["change_matrix"] != [["1", "0"], ["0", "1"]] \
                or norm["time_rescale"] != "1":
            problems.append("radial focus was not left in place")
        a, k = Fraction(radial["a"]), radial["k"]
        for row in rows:
            want = radial_return(row["r_in"], a, k)
            if abs(row["r_out"] - want) > RADIAL_REL_TOL * want:
                problems.append(f"r_out {row['r_out']!r} at r_in "
                                f"{row['r_in']!r}, closed form {want!r}")
    if truth["verdict"] == "CENTER":
        for row in rows:
            if abs(row["r_out"] - row["r_in"]) > rel_tol * row["r_in"]:
                problems.append(f"center does not return at r_in "
                                f"{row['r_in']!r}: r_out {row['r_out']!r}")
    # agreement of the symbolic verdict (known by construction) with the
    # numeric one; the returnmap report leaves out the verdict section
    numeric_center = rm["verdict"] == "PERIODIC_SEQUENCE"
    if numeric_center != (truth["verdict"] == "CENTER"):
        problems.append(f"numeric verdict {rm['verdict']} disagrees with a "
                        f"constructed {truth['verdict']}")
    return problems


# --------------------------------------------------------------------------
# complex 1-forms

def _sympy_poly(p: dict):
    import sympy as sp
    x, y = sp.symbols("x y")
    terms = {e: sp.Rational(c.re) + sp.Rational(c.im) * sp.I
             if isinstance(c, Qi) else sp.Rational(c)
             for e, c in p.items()}
    return sp.Poly.from_dict(terms or {(0, 0): 0}, x, y, domain="QQ_I")


def _product_matches(f, g, unit, big_f, degree) -> bool:
    """f*g*unit == F through `degree`, multiplied with sympy."""
    prod = _sympy_poly(f) * _sympy_poly(g) * _sympy_poly(unit)
    diff = prod - _sympy_poly(big_f)
    return all(sum(e) > degree for e, c in diff.terms() if c)


def _slice_tolerance(polys, radius, n, residual_tol):
    """Bound on what truncation at degree n and rounding can move.

    The program refines samples on series known past degree n; the report
    keeps degrees <= n.  With coefficients of degree d bounded by
    kappa**d, the dropped tail at a point of modulus <= radius is at most
    sum_{d > n} (d + 1) (kappa radius)**d.  Returns None where that bound
    is not small (kappa radius >= 1/2), so no residual can be checked.
    """
    kappa = 1.0
    for p in polys:
        for (i, j), c in p.items():
            if i + j >= 1:
                kappa = max(kappa, abs(complex(c)) ** (1.0 / (i + j)))
    rho = kappa * radius
    if rho >= 0.5:
        return None
    tail = sum((d + 1) * rho ** d for d in range(n + 1, n + 60))
    return 10 * residual_tol + 1e-12 + 4 * tail


def _check_slice(doc, truth, sections):
    problems: list[str] = []
    if not sections["siegel"]["is_siegel"]:
        problems.append("Siegel shape not recognized")
    ffi = sections["formal_first_integral"]
    n = truth["order"]
    obstructions = [(o["degree"], parse_coeff(o["value"]))
                    for o in ffi["obstructions"]]
    first = next((d for d, v in obstructions if v), None)
    if truth["kind"] in ("center", "exact"):
        if first is not None or not ffi["all_zero_to_internal_order"]:
            problems.append(f"obstruction at degree {first} for a "
                            f"{truth['kind']} form")
    elif first != truth["focus_degree"]:
        problems.append(f"first obstruction at degree {first}, expected "
                        f"{truth['focus_degree']}")
    big_f = rows_to_poly(ffi["first_integral"])
    if truth["kind"] == "exact":
        want = exact.truncate(rows_to_poly(truth["F"]), n)
        if exact.sub(big_f, want):
            problems.append("first integral of dF differs from F")
    fac = sections["factorization"]
    vd = fac["verified_degree"]
    f, g, unit = (rows_to_poly(fac[k]) for k in ("f", "g", "unit"))
    if vd != n:
        problems.append(f"verified_degree {vd}, order {n}")
    if not _product_matches(f, g, unit, big_f, vd):
        problems.append("f*g*unit differs from F below verified_degree")
    sl = sections["real_slice"]
    samples = sl["samples"]
    seeds = len(doc["analysis"]["slice_radii"]) * \
        doc["analysis"]["slice_angles"]
    if sl["n_samples"] != len(samples) or not samples \
            or sl["n_samples"] + sl["n_failed_seeds"] != seeds:
        problems.append("slice sample counts are inconsistent")
    radius = max(max(abs(complex(*s["x"])), abs(complex(*s["y"])))
                 for s in samples) if samples else 0.0
    tol = _slice_tolerance((f, g, unit), radius, n, sl["residual_tol"])
    if tol is None:
        problems.append("slice tolerance undefined: kappa*rho >= 0.5 "
                        f"at sample modulus {radius:.3g}")
        return problems
    worst = 0.0
    for s in samples:
        x, y = complex(*s["x"]), complex(*s["y"])
        fa = exact.evaluate(f, x, y) * exact.evaluate(unit, x, y)
        gb = exact.evaluate(g, x, y)
        worst = max(worst, abs(fa.real - gb.real), abs(fa.imag + gb.imag))
    if worst > tol:
        problems.append(f"slice residual {worst:.3e} exceeds {tol:.3e}")
    return problems


# --------------------------------------------------------------------------
# germs

def _root_order(lam: Qi):
    return {Qi(1): 1, Qi(-1): 2, Qi(0, 1): 4, Qi(0, -1): 4}.get(lam)


def sympy_order(coeffs: dict, n: int):
    """Smallest m = ord(lambda) with f^m == z mod z^(n+1), else None."""
    import sympy as sp
    from sympy.polys.domains import QQ_I
    m = _root_order(coeffs[1])
    if m is None:
        return None
    z = sp.Symbol("z")

    def poly(cs):
        return sp.Poly.from_dict(
            {(k,): sp.Rational(c.re) + sp.Rational(c.im) * sp.I
             for k, c in cs.items()}, z, domain=QQ_I)

    def truncated(p):
        return sp.Poly.from_dict(
            {k: c for k, c in p.as_dict(native=True).items() if k[0] <= n}
            or {(0,): QQ_I.zero}, z, domain=QQ_I)

    f = poly(coeffs)
    it = f
    for _ in range(m - 1):
        # Horner in the inner series, truncating after each product
        acc = sp.Poly(0, z, domain=QQ_I)
        for k in range(f.degree(), 0, -1):
            acc = truncated((acc + f.coeff_monomial(z ** k)) * it)
        it = acc
    return m if it == sp.Poly(z, z, domain=QQ_I) else None


def _check_germ(doc, truth, sections):
    problems: list[str] = []
    fo = sections["finite_order"]
    coeffs = {k: Qi.of(parse_coeff(c)) for k, c in doc["coeffs"]}
    if truth["family"] == "polynomial":
        want = sympy_order(coeffs, doc["truncation"])
    else:
        want = truth["order"]
    if fo.get("order") != want or "inconclusive" in fo:
        problems.append(f"order {fo.get('order')!r}, expected {want!r}")
    if fo["multiplier_order"] != _root_order(coeffs[1]):
        problems.append(f"multiplier order {fo['multiplier_order']!r}")
    rows = sections["pseudo_orbits"]["rows"]
    if truth["family"] == "mobius":
        for row in rows:
            if row["status"] != "periodic" or row["period"] != want:
                problems.append(f"pseudo-orbit from {row['z0']} is "
                                f"{row['status']}/{row['period']}")
    if truth["family"] == "unit_multiplier":
        for row in rows:
            if row["status"] != "undecided" \
                    or row["iterations"] != truth["k_max"]:
                problems.append(f"pseudo-orbit from {row['z0']} stopped "
                                f"after {row['iterations']} iterations")
    return problems


_CHECKS = {
    "lyapunov": _check_lyapunov,
    "returnmap": _check_returnmap,
    "slice": _check_slice,
    "germ": _check_germ,
}
