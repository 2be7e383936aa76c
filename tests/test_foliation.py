import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from centerfocus import foliation, series
from centerfocus.center import lyapunov_quantities, normalize_rotation
from centerfocus.foliation import (
    BranchFailure,
    NotIsolated,
    SingularPoint,
    SliceGrid,
    blowup,
    complexify,
    contact_order,
    factor_fg,
    formal_first_integral_siegel,
    real_slice,
    siegel_check,
    wedge_coefficient,
)
from centerfocus.series import (
    GaussianRational,
    OneForm2,
    Poly2,
    VectorField2,
    gr,
)

from sympy_oracle import X, Y, dense_inverse


def siegel_linear(n):
    """x dy + y dx at truncation n."""
    return OneForm2(Poly2.var_y(n), Poly2.var_x(n))


def hand_built_contact_cases(x0, n=6):
    """(form, point, tangent basis, contact order): a totally real slice
    of the product foliation, an invariant line and a transverse one."""
    slice_basis = (np.array([1.0, 0, 1.0, 0]), np.array([0, 1.0, 0, -1.0]))
    line_basis = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    one, zero = Poly2.constant(1, n), Poly2.zero(n)
    return [(siegel_linear(n), (x0, x0.conjugate()), slice_basis, 1),
            (OneForm2(zero, one), (x0, 0j), line_basis, 2),
            (OneForm2(one, zero), (x0, 0j), line_basis, 0)]


def d_of(p: Poly2) -> OneForm2:
    return OneForm2(p.diff_x(), p.diff_y())


def generic_target(m):
    """xy + x^3 + y^4 + x^2 y^2, an exact polynomial known to degree m."""
    x, y = Poly2.var_x(m), Poly2.var_y(m)
    return x * y + x ** 3 + y ** 4 + x ** 2 * y ** 2


def count_products(monkeypatch) -> list:
    """Record every Poly2 * Poly2 (not scalings) while the test runs."""
    calls = []
    mul = Poly2.__mul__

    def counted(self, other):
        if isinstance(other, Poly2):
            calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly2, "__mul__", counted)
    return calls


nonzero_gaussian = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool)


class TestComplexify:
    def test_pure_rotation_gives_exact_siegel_linear(self):
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        norm = normalize_rotation(VectorField2(-y, x))
        form = complexify(norm)
        assert form.a == Poly2.var_y(n)
        assert form.b == Poly2.var_x(n)

    def test_quadratic_perturbation_hand_oracle(self):
        # hand substitution oracle: for X = -y dx + (x + x^2) dy the dual
        # form x dx + y dy + x^2 dx pulls back (x=(u+v)/2, y=-i(u-v)/2,
        # rescaled by 2) to v du + u dv + (u+v)^2/4 (du + dv)
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        norm = normalize_rotation(VectorField2(-y, x + x * x))
        form = complexify(norm)
        quarter = Fraction(1, 4)
        sq = Poly2({(2, 0): quarter, (1, 1): 2 * quarter, (0, 2): quarter},
                   n)
        assert form.a == Poly2.var_y(n) + sq
        assert form.b == Poly2.var_x(n) + sq
        assert siegel_check(form)

    def test_complexified_first_integral_annihilates_form(self):
        # a real first integral transported by the same substitution must
        # satisfy dF ^ form = 0 exactly
        n = 12
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        norm = normalize_rotation(VectorField2(-y, x + x * x))
        rep = lyapunov_quantities(norm, n)
        f_c = rep.first_integral.substitute_linear(foliation.SIEGEL_CHANGE)
        assert wedge_coefficient(f_c, complexify(norm)).is_zero()


class TestSiegelCheck:
    def test_siegel_linear(self):
        assert siegel_check(siegel_linear(6))

    def test_poincare_linear_rejected(self):
        n = 6
        form = OneForm2(-Poly2.var_y(n), Poly2.var_x(n))
        assert not siegel_check(form)

    def test_quadratic_remainder_allowed(self):
        n = 6
        w = siegel_linear(n)
        form = OneForm2(w.a + Poly2.monomial(0, 2, 1, n), w.b)
        assert siegel_check(form)


def direct_chart(form: OneForm2, chart: str) -> tuple[OneForm2, int]:
    """The form in chart "t" (y = t x, A dx + B dt) or chart "s" (x = s y,
    A ds + B dy) by direct substitution, divided by the maximal common
    power m of the divisor variable (x, or y), and m."""
    n = form.truncation_degree
    first: dict = {}
    second: dict = {}

    def add(acc, key, c):
        acc[key] = acc.get(key, GaussianRational()) + c

    if chart == "t":
        for (i, j), c in form.a.terms.items():
            add(first, (i + j, j), c)          # a(x, tx) dx
        for (i, j), c in form.b.terms.items():
            add(first, (i + j, j + 1), c)      # t b(x, tx) dx
            add(second, (i + j + 1, j), c)     # x b(x, tx) dt
    else:
        for (i, j), c in form.b.terms.items():
            add(second, (i, i + j), c)         # b(sy, y) dy
        for (i, j), c in form.a.terms.items():
            add(second, (i + 1, i + j), c)     # s a(sy, y) dy
            add(first, (i, i + j + 1), c)      # y a(sy, y) ds
    axis = 0 if chart == "t" else 1
    m = min(k[axis] for part in (first, second) for k, c in part.items()
            if c)

    def divided(part):
        shifted = {(i - m, j) if axis == 0 else (i, j - m): c
                   for (i, j), c in part.items() if c}
        return Poly2({k: c for k, c in shifted.items() if sum(k) <= n - m},
                     n - m)

    return OneForm2(divided(first), divided(second)), m


@st.composite
def siegel_shaped_forms(draw):
    """(y + ...) dx + (x + ...) dy with Gaussian-rational terms of degree
    2..4, truncated at 4..7: isolated, as the linear parts y and x are
    independent."""
    n = draw(st.integers(4, 7))
    higher = st.dictionaries(
        st.sampled_from([(i, d - i) for d in (2, 3, 4) for i in range(d + 1)]),
        nonzero_gaussian, max_size=5)
    return OneForm2(Poly2({(0, 1): 1, **draw(higher)}, n),
                    Poly2({(1, 0): 1, **draw(higher)}, n))


class TestBlowup:
    @settings(max_examples=25, deadline=None)
    @given(siegel_shaped_forms())
    def test_charts_equal_direct_substitution(self, form):
        # chart s is computed as chart t of the exchanged form; both must
        # equal the direct substitutions x = s y and y = t x
        res = blowup(form)
        chart_t, mt = direct_chart(form, "t")
        chart_s, ms = direct_chart(form, "s")
        assert (res.chart_t, res.divided_power_t) == (chart_t, mt)
        assert (res.chart_s, res.divided_power_s) == (chart_s, ms)
        assert res.divisor_invariant == (not any(
            i == 0 for i, _ in chart_t.b.terms))
        origin_s = [s for s in res.singularities_on_E if s.chart == "s"]
        assert [s.location for s in origin_s] == [0j]
        assert abs(origin_s[0].ratio - (-0.5)) < 1e-9

    def test_siegel_linear_charts_and_singularities(self):
        # hand computation: x(t dx + x dt) + tx dx = x(2t dx + x dt)
        n = 8
        res = blowup(siegel_linear(n))
        assert res.divided_power_t == 1
        assert res.chart_t.a == Poly2({(0, 1): 2}, n - 1)
        assert res.chart_t.b == Poly2({(1, 0): 1}, n - 1)
        assert res.divisor_invariant
        assert len(res.singularities_on_E) == 2
        charts = {s.chart for s in res.singularities_on_E}
        assert charts == {"t", "s"}
        for s in res.singularities_on_E:
            assert abs(s.location) < 1e-9
            assert s.ratio is not None and abs(s.ratio - (-0.5)) < 1e-9

    def test_radial_form_is_dicritical(self):
        # hand computation: x(t dx + x dt) - tx dx = x^2 dt
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        form = OneForm2(-y, x)
        res = blowup(form)
        assert not res.divisor_invariant
        assert res.divided_power_t == 2
        assert res.chart_t.a.is_zero()
        assert res.chart_t.b == Poly2.constant(1, n - 2)

    def test_exact_differential_of_radius(self):
        # symbolic oracle: chart t carries 2(1+t^2) dx + 2tx dt after
        # division by x; singular points sit at t = +-i
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        res = blowup(d_of(x * x + y * y))
        assert res.divisor_invariant
        # d(r^2) has truncation n-1; dividing by x costs one more degree
        assert res.chart_t.a == Poly2({(0, 0): 2, (0, 2): 2}, n - 2)
        assert res.chart_t.b == Poly2({(1, 1): 2}, n - 2)
        locs = sorted((s.location for s in res.singularities_on_E),
                      key=lambda z: z.imag)
        assert len(locs) == 2
        assert abs(locs[0] + 1j) < 1e-9 and abs(locs[1] - 1j) < 1e-9

    def test_common_factor_rejected(self):
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        form = OneForm2(x * y, x)
        with pytest.raises(NotIsolated):
            blowup(form)

    def test_unit_common_factor_accepted(self):
        # 1 + x does not vanish at the origin: a unit of the local ring,
        # so the singular point stays isolated
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        unit = 1 + x
        res = blowup(OneForm2(unit * y, unit * x))
        assert res.divisor_invariant
        assert len(res.singularities_on_E) == 2

    def test_nonvanishing_form_rejected(self):
        n = 6
        form = OneForm2(Poly2.constant(1, n), Poly2.var_x(n))
        with pytest.raises(ValueError):
            blowup(form)

    def test_siegel_blowups_never_dicritical(self):
        # any Siegel perturbation keeps the divisor invariant with exactly
        # two singularities of eigenvalue ratio -1/2 (the linear part rules)
        n = 8
        w = siegel_linear(n)
        perturbations = [
            (Poly2.zero(n), Poly2.monomial(2, 0, 1, n)),
            (Poly2.monomial(0, 2, Fraction(1, 3), n),
             Poly2.monomial(1, 1, -2, n)),
            (Poly2.monomial(1, 1, 1, n) + Poly2.monomial(3, 0, 1, n),
             Poly2.monomial(2, 1, Fraction(-1, 2), n)),
        ]
        for da, db in perturbations:
            form = OneForm2(w.a + da, w.b + db)
            assert siegel_check(form)
            res = blowup(form)
            assert res.divisor_invariant
            assert len(res.singularities_on_E) == 2
            for s in res.singularities_on_E:
                assert abs(s.ratio - (-0.5)) < 1e-9


# The numpy path `blowup` took before its points on E were decided by
# one exact factorization, kept as a reference: `np.roots` of the rounded
# coefficients of a0 (of b0 when a0 = 0), the roots at which the other
# component is below 1e-8, deduplicated at 1e-7, and `eigvals` of the
# chart Jacobian at each.

def reference_divisor_singularities(comp_a, comp_b):
    a0, b0 = foliation._on_divisor(comp_a), foliation._on_divisor(comp_b)
    if a0.is_zero() and b0.is_zero():
        return []
    base, other = (b0, a0) if a0.is_zero() else (a0, b0)
    value = other.binary64()
    candidates = []
    c = {k: series._rounded(x, y, d) for _, k, x, y, d in base.scaled_terms()}
    for r in np.roots([c.get(k, 0j) for k in range(max(c), -1, -1)]):
        scale = 1.0 + abs(r) ** max(other.parts, default=0)
        if other.is_zero() or abs(value(0.0, r)) <= 1e-8 * scale:
            candidates.append(complex(r))
    unique = []
    for c in candidates:
        if all(abs(c - u) > 1e-7 * (1 + abs(c)) for u in unique):
            unique.append(c)
    return [(loc, reference_eigenvalues(comp_a, comp_b, loc))
            for loc in unique]


def reference_eigenvalues(comp_a, comp_b, loc):
    point = (0.0, loc)
    jac = [[p.evaluate(point) for p in (comp_b.diff_x(), comp_b.diff_y())],
           [-p.evaluate(point) for p in (comp_a.diff_x(), comp_a.diff_y())]]
    return sorted(np.linalg.eigvals(np.array(jac, dtype=complex)), key=abs)


# Gaussian halves (p + q i) / 2 with |p|, |q| <= 3: distinct ones are at
# least 1/2 apart, so np.roots separates them and the 1e-8 filter keeps
# exactly the shared ones
ROOT_GRID = [gr(Fraction(p, 2), Fraction(q, 2))
             for p in range(-3, 4) for q in range(-3, 4)]


@st.composite
def chart_forms_with_squarefree_h(draw):
    """Chart t components A = a0 + x P and B = b0 + x Q at truncation 8,
    with a0 = la prod (t - r) and b0 = lb prod (t - s) over distinct
    roots of ROOT_GRID, or b0 = 0 (E invariant): h = gcd(a0, b0) is the
    product over the shared roots (over a0's when E is invariant), and so
    square-free."""
    n = 8
    roots = draw(st.lists(st.sampled_from(ROOT_GRID), min_size=1,
                          max_size=5, unique=True))
    shared = draw(st.integers(0, len(roots)))
    a_only = draw(st.integers(shared, len(roots)))
    x, t = Poly2.var_x(n), Poly2.var_y(n)
    rest = st.dictionaries(
        st.sampled_from([(i, j) for i in (0, 1) for j in range(3)]),
        nonzero_gaussian, max_size=4)

    def on_divisor(rs):
        prod = Poly2.constant(draw(nonzero_gaussian), n)
        for r in rs:
            prod = prod * (t - r)
        return prod

    a0 = on_divisor(roots[:a_only])
    b0 = Poly2.zero(n) if draw(st.booleans()) else \
        on_divisor(roots[:shared] + roots[a_only:])
    return (a0 + x * Poly2(draw(rest), n), b0 + x * Poly2(draw(rest), n))


def rounded(z: complex) -> tuple[float, float]:
    return round(z.real, 6), round(z.imag, 6)


class TestDivisorPoints:
    @settings(max_examples=100, deadline=None)
    @given(chart_forms_with_squarefree_h())
    def test_points_match_the_numpy_reference(self, comps):
        # on invariant and dicritical chart forms alike; a dicritical point
        # takes the closed form, as its Jacobian is not triangular
        got = foliation._divisor_singularities(*comps)
        want = reference_divisor_singularities(*comps)
        assert len(got) == len(want)
        for s, (loc, eig) in zip(
                sorted(got, key=lambda s: rounded(s.location)),
                sorted(want, key=lambda w: rounded(w[0]))):
            assert s.chart == "t" and abs(s.location - loc) <= 1e-9
            assert min(max(abs(e - f) for e, f in zip(s.eigenvalues, pair))
                       for pair in (eig, eig[::-1])) <= 1e-9


def oracle_obstructions(form: OneForm2, n: int):
    """Dense sympy linear solve of dF ^ form = 0 on the full monomial space."""
    a_expr = sum((sp.Rational(c.re) + sp.Rational(c.im) * sp.I) * X**i * Y**j
                 for (i, j), c in form.a.terms.items())
    b_expr = sum((sp.Rational(c.re) + sp.Rational(c.im) * sp.I) * X**i * Y**j
                 for (i, j), c in form.b.terms.items())
    unknowns = {}
    f_expr = X * Y
    for k in range(3, n + 1):
        for j in range(k + 1):
            i = k - j
            if i == j:
                continue
            sym = sp.Symbol(f"c_{i}_{j}")
            unknowns[(i, j)] = sym
            f_expr += sym * X**i * Y**j
    etas = {}
    target = sp.Integer(0)
    for k in range(4, n + 1, 2):
        etas[k] = sp.Symbol(f"eta_{k}")
        target += etas[k] * (X * Y) ** (k // 2)
    wedge = sp.expand(sp.diff(f_expr, X) * b_expr - sp.diff(f_expr, Y) * a_expr
                      - target)
    eqs = []
    poly = sp.Poly(wedge, X, Y)
    for (i, j), coeff in zip(poly.monoms(), poly.coeffs()):
        if i + j <= n:
            eqs.append(coeff)
    sol = sp.solve(eqs, list(unknowns.values()) + list(etas.values()),
                   dict=True)
    assert len(sol) == 1
    return {k: sol[0][sym] for k, sym in etas.items()}


class TestFormalFirstIntegral:
    def test_exact_product_form(self):
        n = 8
        f, obstructions = formal_first_integral_siegel(siegel_linear(n), n)
        assert f == Poly2({(1, 1): 1}, n)
        assert all(not eta for _, eta in obstructions)

    def test_recovers_perturbed_product(self):
        n = 10
        x, y = Poly2.var_x(n + 1), Poly2.var_y(n + 1)
        target = x * y + x ** 3 * y ** 2
        f, obstructions = formal_first_integral_siegel(d_of(target), n)
        assert f == target.truncate(n)
        assert all(not eta for _, eta in obstructions)

    def test_obstructions_match_dense_oracle(self):
        n = 6
        w = siegel_linear(n)
        form = OneForm2(w.a, w.b + Poly2.monomial(2, 0, 1, n))
        _, obstructions = formal_first_integral_siegel(form, n)
        oracle = oracle_obstructions(form, n)
        for deg, eta in obstructions:
            expected = oracle[deg]
            got = sp.Rational(eta.re) + sp.Rational(eta.im) * sp.I
            assert sp.simplify(got - expected) == 0

    def test_non_siegel_rejected(self):
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        with pytest.raises(ValueError):
            formal_first_integral_siegel(d_of(x * x + y * y), n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 20).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.builds(
            GaussianRational,
            st.fractions(min_value=-9, max_value=9, max_denominator=50),
            st.fractions(min_value=-9, max_value=9, max_denominator=50)),
            min_size=k + 1, max_size=k + 1))))
    def test_siegel_inverse_equals_gaussian_rational_division(self, case):
        k, rhs = case
        f, eta_s = dense_inverse(foliation._siegel_inverse, k, rhs)
        assert f == [GaussianRational() if 2 * r == k else c / (k - 2 * r)
                     for r, c in enumerate(rhs)]
        # eta (xy)^(k/2) with eta = -rhs[k/2]; no resonance at odd k
        assert eta_s == [-c if 2 * r == k else GaussianRational()
                         for r, c in enumerate(rhs)]

    def test_one_wedge_per_run(self, monkeypatch):
        # residuals come from homogeneous parts; the only full wedge is
        # the final exact check
        calls = []
        wedge = foliation.wedge_coefficient
        monkeypatch.setattr(foliation, "wedge_coefficient",
                            lambda *args: calls.append(1) or wedge(*args))
        n = 17
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        field = VectorField2(-y + 2 * x * x + 3 * x * y - y * y,
                             x + x * x - 5 * x * y + 2 * y * y)
        form = complexify(normalize_rotation(field))
        _, obstructions = formal_first_integral_siegel(form, n)
        assert len(calls) == 1
        assert any(eta for _, eta in obstructions)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def monomials(*degrees):
    return st.sampled_from([(i, d - i) for d in degrees for i in range(d + 1)])


@st.composite
def rotational_fields(draw, n=8):
    """(field, known, degree): a real rotational field through a random
    rational linear change and time scale, whether its first nonzero
    obstruction is known by construction, and that degree (None for a
    center).

    Either X_H + mu (x^2+y^2)^m (x d/dx + y d/dy) with H = (x^2+y^2)/2 +
    cubic + quartic: X_H has the first integral 2H, and the radial term
    puts the first nonzero obstruction at degree 2m + 2 (none if mu = 0,
    a Hamiltonian center).  Or -y d/dx + x d/dy plus random quadratic and
    cubic terms (not known)."""
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    if draw(st.booleans()):
        h = Poly2({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2),
                   **draw(st.dictionaries(monomials(3, 4), small))}, n)
        m, mu = draw(st.integers(1, 3)), draw(small)
        radial = Poly2({(2, 0): 1, (0, 2): 1}, n) ** m * mu
        p = -h.diff_y().lift(n) + x * radial
        q = h.diff_x().lift(n) + y * radial
        known, degree = True, 2 * m + 2 if mu else None
    else:
        p = -y + Poly2(draw(st.dictionaries(monomials(2, 3), small)), n)
        q = x + Poly2(draw(st.dictionaries(monomials(2, 3), small)), n)
        known, degree = False, None
    (a, b), (c, d) = draw(st.tuples(small, small, small, small).filter(
        lambda t: t[0] * t[3] - t[1] * t[2]).map(lambda t: (t[:2], t[2:])))
    scale = draw(small.filter(lambda v: v > 0)) / (a * d - b * c)
    ps, qs = p.substitute_linear(((a, b), (c, d))), \
        q.substitute_linear(((a, b), (c, d)))
    # lambda A^-1 X(A u)
    return VectorField2((ps * d - qs * b) * scale,
                        (qs * a - ps * c) * scale), known, degree


class TestCrossRoute:
    """The real-coordinate and the Siegel route see one obstruction: the
    first nonzero one sits at the same degree on both, with eta_real =
    i eta_Siegel there."""

    @settings(max_examples=25, deadline=None)
    @given(rotational_fields())
    def test_first_nonzero_obstruction_agrees(self, case):
        field, known, degree = case
        n = field.truncation_degree
        norm = normalize_rotation(field)
        real = lyapunov_quantities(norm, n).obstructions
        _, siegel = formal_first_integral_siegel(complexify(norm), n)
        assert [k for k, _ in real] == [k for k, _ in siegel]
        first = next((j for j, (_, eta) in enumerate(real) if eta), None)
        assert first == next(
            (j for j, (_, eta) in enumerate(siegel) if eta), None)
        if known:
            assert degree == (None if first is None else real[first][0])
        if first is not None:
            assert real[first][1] == GaussianRational(0, 1) * siegel[first][1]

    def test_focus_at_degree_six_and_eight(self):
        # hand cases: mu (x^2+y^2)^m (x, y) on the rotation gives
        # eta_(2m+2) = 2 mu on the real route
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        r2 = x * x + y * y
        for m, mu in ((2, 3), (3, -1)):
            radial = r2 ** m * mu
            norm = normalize_rotation(VectorField2(-y + x * radial,
                                                   x + y * radial))
            real = lyapunov_quantities(norm, n).obstructions
            _, siegel = formal_first_integral_siegel(complexify(norm), n)
            k = 2 * m + 2
            assert [eta for deg, eta in real if eta] == [gr(2 * mu)]
            assert [deg for deg, eta in real if eta] == [k]
            assert [(deg, eta) for deg, eta in siegel if eta] == \
                [(k, gr(0, -2 * mu))]


class TestFactorFg:
    def test_plain_product(self):
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg(x * y, n)
        assert pair.f == Poly2.var_y(n + 2)
        assert pair.g == Poly2.var_x(n + 2)
        assert pair.unit == Poly2.constant(1, n)

    def test_unit_absorbs_perturbation(self):
        # F = xy(1 + x^2 y): branches stay on the axes and the unit is
        # exactly 1 + x^2 y
        n = 10
        m = n + 3
        x, y = Poly2.var_x(m), Poly2.var_y(m)
        target = x * y + x ** 3 * y ** 2
        pair = factor_fg(target, n)
        assert pair.f == Poly2.var_y(m - 1)
        assert pair.g == Poly2.var_x(m - 1)
        assert pair.unit == Poly2({(0, 0): 1, (2, 1): 1}, m - 3)
        recon = pair.f * pair.g * pair.unit
        assert recon.truncate(n) == target.truncate(n)

    def test_offaxis_branch(self):
        # order-by-order hand solve for F = xy + x^3: the branch through
        # y-direction is y = -x^2, so f = y + x^2 and F = f * g exactly
        n = 8
        m = n + 3
        x, y = Poly2.var_x(m), Poly2.var_y(m)
        pair = factor_fg(x * y + x ** 3, n)
        assert pair.f == (y + x * x).truncate(m - 1)
        assert pair.g == Poly2.var_x(m - 1)
        assert pair.unit == Poly2.constant(1, m - 3)

    def test_generic_reconstruction(self):
        n = 8
        target = generic_target(n + 3)
        pair = factor_fg(target, n)
        recon = pair.f * pair.g * pair.unit
        assert recon.truncate(n) == target.truncate(n)

    def test_wedge_with_defining_form_vanishes(self):
        # d(f g unit) ^ dF = 0 up to the order the truncations allow
        n = 8
        m = n + 3
        x, y = Poly2.var_x(m), Poly2.var_y(m)
        target = x * y + x ** 3 * y ** 2
        pair = factor_fg(target, n)
        fa, gb = pair.absorbed()
        w = wedge_coefficient(fa * gb, d_of(target))
        assert w.truncate(n - 1).is_zero()

    def test_wrong_quadratic_part_rejected(self):
        n = 8
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        with pytest.raises(ValueError):
            factor_fg(x * x + y * y, n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1), st.integers(2, 10), nonzero_gaussian)
    def test_corrupted_branch_fails(self, which, k, delta):
        # one coefficient a_k (or b_k) of one solved branch is off by delta
        calls = []
        solve = foliation.substitution_root

        def corrupted(*args):
            out = solve(*args)
            if len(calls) == which:
                out += Poly2.monomial(k, 0, delta, out.truncation_degree)
            calls.append(1)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(foliation, "substitution_root", corrupted)
            with pytest.raises(BranchFailure):
                factor_fg(generic_target(11), 8)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(0, d))), nonzero_gaussian)
    def test_corrupted_unit_fails(self, term, delta):
        # one unit coefficient of degree <= n - 2 is off by delta, so the
        # reconstruction differs at degree <= n
        d, r = term
        solve = foliation._solve_unit

        def corrupted(F, prod):
            unit = solve(F, prod)
            return unit + Poly2.monomial(d - r, r, delta,
                                         unit.truncation_degree)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(foliation, "_solve_unit", corrupted)
            with pytest.raises(BranchFailure):
                factor_fg(generic_target(11), 8)

    def test_two_products_at_n14(self, monkeypatch):
        # f * g and the reconstruction; every degree of the branches and
        # the unit is one new coefficient, not a new product
        target = generic_target(17)
        calls = count_products(monkeypatch)
        factor_fg(target, 14)
        assert len(calls) <= 2

    def test_no_terms_read(self, monkeypatch):
        # the branch solves take F and its exchange F.swapped() as stored
        # parts, and f and g are built by Poly2 arithmetic: no
        # GaussianRational view of any series is read
        calls = []
        terms = Poly2.terms
        monkeypatch.setattr(Poly2, "terms", property(
            lambda p: calls.append(1) or terms.fget(p)))
        factor_fg(generic_target(17), 14)
        assert calls == []

    def test_scaled_calls_at_n14(self, monkeypatch):
        # the branch solves, their checks, the unit and the products run
        # on the stored parts; only the variables x and y of f = y - a
        # and g = x - b are built from scalars (27 calls when the branch
        # solves took GaussianRational terms, 82 when the unit scaled each
        # degree and each product its operands, 253 when the branch solve
        # also scaled its power table at every degree)
        target, calls = generic_target(17), []
        scaled = series._scaled
        monkeypatch.setattr(series, "_scaled",
                            lambda items: calls.append(1) or scaled(items))
        factor_fg(target, 14)
        assert len(calls) == 2


class TestRealSlice:
    def test_grid_defaults(self):
        grid = SliceGrid(n_angles=4)
        assert grid.radii == (0.05, 0.08, 0.12, 0.16, 0.2)
        assert SliceGrid() == SliceGrid(grid.radii, 12)

    def test_model_pair_conjugate_slice(self):
        # f = y, g = x: V2 is y = conj(x) and fg = |x|^2 >= 0
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg(x * y, n)
        samples, ver = real_slice(pair,
                                  SliceGrid(radii=(0.05, 0.1), n_angles=8))
        assert len(samples) == ver.n_samples == 16
        for (xs, ys) in samples:
            assert abs(ys - xs.conjugate()) < 1e-9
        assert ver.max_abs_im_fg <= 1e-12
        assert ver.min_re_fg >= 0
        assert all(c == 1 for c in ver.contact_orders)

    def test_perturbed_pair_slice_properties(self):
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg(x * y + x ** 3 * y ** 2, n)
        samples, ver = real_slice(pair)
        assert len(samples) == ver.n_samples >= 50
        assert ver.max_abs_im_fg <= 1e-9
        assert ver.min_re_fg >= -1e-9
        assert all(c == 1 for c in ver.contact_orders)

    def test_degenerate_pair_rejected(self):
        from centerfocus.foliation import FactorPair
        n = 6
        y = Poly2.var_y(n)
        pair = FactorPair(y, y, Poly2.constant(1, n))
        assert not pair.general_position
        with pytest.raises(ValueError):
            real_slice(pair)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.just(gr(0)), nonzero_gaussian),
                    min_size=4, max_size=4), st.booleans())
    def test_general_position_matches_the_determinant(self, c, dependent):
        # f = c0 x + c1 y, g = c2 x + c3 y (+ y^2), or g a multiple of f
        from centerfocus.foliation import FactorPair
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        f = x * c[0] + y * c[1]
        g = f * c[2] if dependent else x * c[2] + y * c[3] + y * y
        pair = FactorPair(f, g, Poly2.constant(1, n))
        assert pair.general_position == bool(c[0] * g.coefficient(0, 1)
                                             - c[1] * g.coefficient(1, 0))

    def test_general_position_builds_no_fraction(self, monkeypatch):
        # read off the stored Gaussian integers, not through `coefficient`
        pair = factor_fg(generic_target(13), 10)
        built, new = [], Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        assert pair.general_position
        assert built == []
        Fraction(1, 3)
        assert built == [1]  # the wrapper does see a construction

    def test_one_product(self, monkeypatch):
        # f * unit; the gradient of the pair's product comes from the
        # values of f * unit, g and their partials at the sample
        pair = factor_fg(generic_target(13), 10)
        calls = count_products(monkeypatch)
        real_slice(pair, SliceGrid(radii=(0.05,), n_angles=4))
        assert len(calls) == 1

    def test_no_exact_evaluation(self, monkeypatch):
        # every sample, contact order included, is evaluated in binary64
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg(x * y + x ** 3 * y ** 2, n)
        calls = []
        evaluate = Poly2.evaluate
        monkeypatch.setattr(Poly2, "evaluate",
                            lambda *args: calls.append(1) or evaluate(*args))
        _, ver = real_slice(pair)
        assert ver.n_samples >= 50
        assert calls == []


FIXTURES = Path(__file__).parent / "fixtures"
HIGH_ORDER = Path(__file__).parent / "high_order"
BENCH = Path(__file__).parents[1] / "perfbench"


# A numpy reference of `real_slice`: each Newton step and the tangent
# plane from `np.linalg.solve`, and the contact order from `matrix_rank`
# on four unit rows, as `_contact_order` ran it before it moved to
# binary64 tuples.

# An exact form dF, seed 6 of the holomorphic workload's exact_dense family
FAR_EXACT_FORM = {"kind": "complex_form", "truncation": 4, "dx": [
    [0, 1, "1"], [0, 2, "-1/3+-1/3 i"], [0, 3, "-1/3+-2/3 i"],
    [0, 4, "2/3+2/3 i"], [1, 1, "-4/3+-2/3 i"], [1, 3, "-4/3+4/3 i"],
    [2, 0, "2+2 i"], [2, 1, "-2+1 i"], [2, 2, "1+-1 i"], [3, 0, "4/3+-8/3 i"],
    [3, 1, "-8/3+8/3 i"], [4, 0, "5/3+-5/3 i"]], "dy": [
    [0, 2, "-1+-2 i"], [0, 3, "-8/3+-4/3 i"], [0, 4, "5/3+5/3 i"],
    [1, 0, "1"], [1, 1, "-2/3+-2/3 i"], [1, 2, "-1+-2 i"], [1, 3, "8/3+8/3 i"],
    [2, 0, "-2/3+-1/3 i"], [2, 2, "-2+2 i"], [3, 0, "-2/3+1/3 i"],
    [3, 1, "2/3+-2/3 i"], [4, 0, "-2/3+2/3 i"]]}


def reference_refine(evaluate, w):
    x, y = w, w.conjugate()
    for _ in range(foliation._MAX_ITER + 1):
        d = evaluate(x, y)
        r = np.array([w.conjugate() - d[0], w - d[1]])
        if np.linalg.norm(r) <= foliation._RESIDUAL_TOL:
            return (x, y), d
        dx, dy = np.linalg.solve(np.reshape(d[2:], (2, 2)), r)
        x, y = x + complex(dx), y + complex(dy)
    return None


def reference_contact_order(av, bv, tangent_basis):
    w = np.array([-bv, av], dtype=complex)
    w1 = np.array([w[0].real, w[0].imag, w[1].real, w[1].imag])
    iw = 1j * w
    w2 = np.array([iw[0].real, iw[0].imag, iw[1].real, iw[1].imag])
    rows = [w1 / np.linalg.norm(w1), w2 / np.linalg.norm(w2)]
    for t in tangent_basis:
        t = np.asarray(t, dtype=float)
        rows.append(t / np.linalg.norm(t))
    return 4 - int(np.linalg.matrix_rank(np.array(rows), tol=1e-8))


def reference_real_slice(pair, grid):
    fa, gb = pair.absorbed()
    evaluate = series.binary64(fa, gb, fa.diff_x(), fa.diff_y(),
                               gb.diff_x(), gb.diff_y())
    samples, contact, failed, products = [], [], 0, []
    for r in grid.radii:
        for kk in range(grid.n_angles):
            w = r * np.exp(1j * (2 * np.pi * kk / grid.n_angles))
            found = reference_refine(evaluate, complex(w))
            if found is None:
                failed += 1
                continue
            samples.append(found[0])
            fv, gv, ax, ay, bx, by = found[1]
            basis = [np.linalg.solve([[ax, ay], [bx, by]], v)
                     for v in ([1, 1], [-1j, 1j])]
            products.append(fv * gv)
            contact.append(reference_contact_order(
                gv * ax + fv * bx, gv * ay + fv * by,
                [[t[0].real, t[0].imag, t[1].real, t[1].imag]
                 for t in basis]))
    return samples, failed, contact, max(abs(v.imag) for v in products), \
        min(v.real for v in products)


def slice_jacobian(fa_x, fa_y, gb_x, gb_y):
    """The real Jacobian of V2 = {Re(fa - gb) = 0, Im(fa + gb) = 0} in
    (Re x, Im x, Re y, Im y), from the partials of fa and gb: for an
    analytic h, d/d(Re x) = h_x and d/d(Im x) = i h_x."""
    d1x, d1y, d2x, d2y = fa_x - gb_x, fa_y - gb_y, fa_x + gb_x, fa_y + gb_y
    return np.array([(d1x.real, -d1x.imag, d1y.real, -d1y.imag),
                     (d2x.imag, d2x.real, d2y.imag, d2y.real)])


def affine_phi(jac, c):
    """The values `_refine` reads for Phi(x, y) = jac (x, y) + c."""
    (a, b), (e, f) = jac
    return lambda x, y: (a * x + b * y + c[0], e * x + f * y + c[1],
                         a, b, e, f)


def sample_checks(path):
    """`slice` on a document, with each seed w that `real_slice` refines
    and each sample checked against Phi = (f*unit, g) evaluated exactly:
    Phi(x, y) = (conj w, w) to the residual tolerance, with a margin for
    rounding.  Returns the report's real_slice section."""
    from centerfocus.cli import parse_spec, run_pipeline
    pairs, solved = [], {}
    real, refine = foliation.real_slice, foliation._refine

    def recorded(evaluate, w, *halvings):
        solved[w] = refine(evaluate, w, *halvings)  # a retry replaces it
        return solved[w]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foliation, "real_slice", lambda pair, grid: (
            pairs.append(pair) or real(pair, grid)))
        mp.setattr(foliation, "_refine", recorded)
        report = run_pipeline(parse_spec(path), command="slice")
    section = report["sections"]["real_slice"]
    (pair,), tol = pairs, 2 * foliation._RESIDUAL_TOL
    fa, gb = pair.absorbed()
    assert len(solved) == section["n_samples"] + section["n_failed_seeds"]
    for w, found in solved.items():
        if found is not None:
            assert abs(gb.evaluate(found[0]) - w) <= tol
            assert abs(fa.evaluate(found[0]) - w.conjugate()) <= tol
    return section


unit_floats = st.floats(-1, 1, allow_subnormal=False)
unit_complex = st.builds(complex, unit_floats, unit_floats)
complex_jacobians = st.lists(unit_complex, min_size=4, max_size=4).map(
    lambda v: (tuple(v[:2]), tuple(v[2:])))


class TestSliceKernels:
    @settings(max_examples=200, deadline=None)
    @given(complex_jacobians, st.tuples(unit_complex, unit_complex),
           unit_complex)
    def test_one_step_solves_an_affine_phi(self, jac, c, w):
        # Newton from (w, conj w) lands at J^-1 ((conj w, w) - c) in one
        # step, and the second evaluation finds the residual within the
        # tolerance
        assume(np.linalg.svd(np.array(jac), compute_uv=False)[1] > 0.05)
        target = np.array([w.conjugate(), w]) - np.array(c)
        start = np.array(jac) @ np.array([w, w.conjugate()])
        assume(np.linalg.norm(start - target) > 1e-6)
        calls, evaluate = [], affine_phi(jac, c)
        (x, y), _ = foliation._refine(
            lambda *p: calls.append(p) or evaluate(*p), w)
        want = np.linalg.solve(np.array(jac), target)
        assert len(calls) == 2
        assert abs(x - want[0]) + abs(y - want[1]) <= \
            1e-12 * (1 + np.linalg.norm(want))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(unit_floats, min_size=4, max_size=4),
           st.sampled_from([0.0, 0.5, -1.0, 2.0, -4.0]), unit_complex)
    def test_rank_deficient_jacobian_fails_the_seed(self, row, k, w):
        # J's rows are dependent, so Newton has no step; the same rows as
        # real vectors are rank-deficient to `_lq`, which the contact order
        # runs on
        a, b = complex(*row[:2]), complex(*row[2:])
        jac = ((a, b), (k * a, k * b))
        assert foliation._refine(affine_phi(jac, (0.5, 0.25j)), w) is None
        assert foliation._lq(tuple(row), tuple(k * v for v in row))[1] is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(nonzero_gaussian, min_size=4, max_size=4),
           st.one_of(st.just(gr(0)), nonzero_gaussian))
    @example([gr(0), gr(1), gr(1), gr(0)], gr(0))  # y = conj(x)
    def test_tangent_basis_spans_the_slice_kernel(self, c, q):
        # f = c0 x + c1 y + q x^2 and g = c2 x + c3 y: at every sample the
        # two rows passed to the contact order span the kernel of V2's
        # real Jacobian
        from centerfocus.foliation import FactorPair
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        lin = np.array([[v.to_complex() for v in c[:2]],
                        [v.to_complex() for v in c[2:]]])
        assume(np.linalg.svd(lin, compute_uv=False)[1] > 0.25)
        pair = FactorPair(x * c[0] + y * c[1] + x * x * q, x * c[2] + y * c[3],
                          Poly2.constant(1, n))
        fa, gb = pair.absorbed()
        partials = series.binary64(fa.diff_x(), fa.diff_y(), gb.diff_x(),
                                   gb.diff_y())
        seen, contact = [], foliation._contact_order
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(foliation, "_contact_order", lambda av, bv, p, t: (
                seen.append((p, t)) or contact(av, bv, p, t)))
            real_slice(pair, SliceGrid(radii=(0.02,), n_angles=6))
        assert len(seen) == 6
        for point, basis in seen:
            t = np.array(basis)
            assert np.abs(slice_jacobian(*partials(*point)) @ t.T).max() \
                <= 1e-12 * np.abs(t).max()
            sv = np.linalg.svd(t, compute_uv=False)
            assert sv[1] > 1e-6 * sv[0]

    @pytest.mark.parametrize("fixture", ["product_form",
                                         "product_form_perturbed",
                                         "radial_form"])
    def test_fixture_slices_match_the_numpy_reference(self, monkeypatch,
                                                      fixture):
        from centerfocus.cli import parse_spec, run_pipeline
        seen, real = [], foliation.real_slice
        monkeypatch.setattr(foliation, "real_slice", lambda pair, grid: (
            seen.append((pair, grid)) or real(pair, grid)))
        report = run_pipeline(parse_spec(FIXTURES / f"{fixture}.json"),
                              command="slice")
        if fixture == "radial_form":  # not in Siegel shape: no slice runs
            assert seen == [] and "real_slice" not in report["sections"]
            return
        (pair, grid), = seen
        samples, ver = real(pair, grid)
        ref, failed, contact, max_im, min_re = \
            reference_real_slice(pair, grid)
        assert report["sections"]["real_slice"]["n_samples"] == len(ref)
        assert (len(samples), ver.n_failed_seeds, ver.contact_orders) == \
            (len(ref), failed, contact)
        assert max(abs(a - b) for p, q in zip(samples, ref)
                   for u, v in zip(p, q)
                   for a, b in ((u.real, v.real), (u.imag, v.imag))) <= 1e-15
        assert abs(ver.min_re_fg - min_re) <= 1e-14 * abs(min_re)
        assert abs(ver.max_abs_im_fg - max_im) <= 1e-16

    @pytest.mark.parametrize("fixture", ["product_form",
                                         "product_form_perturbed"])
    def test_fixture_samples_solve_phi_exactly(self, fixture):
        assert sample_checks(FIXTURES / f"{fixture}.json")["n_samples"] == 60

    def test_holomorphic_samples_solve_phi_exactly(self, monkeypatch,
                                                   tmp_path):
        # the slice documents of the benchmark's holomorphic workload,
        # seed 1: complexified centers and foci and exact forms dF
        monkeypatch.syspath_prepend(str(BENCH))
        import gen
        items = [item for item in gen.make_workload("holomorphic", 1)
                 if item["command"] == "slice"]
        assert len(items) == 6
        for path in gen.write_workload(items, tmp_path):
            assert sample_checks(path)["n_samples"] > 0

    def test_default_grid_on_the_dense_exact_form(self, tmp_path):
        # the slice, its checks and its gradient all use the pair as
        # factor_fg returns it; a slice solved with g truncated at the
        # degree of f*unit read contact order 0 at 27 of these 60 samples
        # and max |Im(fg)| = 9.5e-8
        from centerfocus.cli import parse_spec, run_pipeline
        doc = json.loads((HIGH_ORDER / "exact_form_dense.json").read_text())
        path = tmp_path / "exact_form_dense.json"
        path.write_text(json.dumps({**doc, "analysis": {"order": 12}}))
        section = run_pipeline(parse_spec(path),
                               command="slice")["sections"]["real_slice"]
        assert section["contact_order_histogram"] == {"1": 60}
        assert section["max_abs_im_fg"] <= 1e-10

    def test_a_seed_that_full_steps_lose_is_kept(self, monkeypatch,
                                                 tmp_path):
        # the benchmark's holomorphic workload, seed 6, 03-exact_dense, at
        # r = 0.7: full Newton steps from angle 7 of 20 run the residual
        # 3.3, 1.2, 14, 2e8, ... and fail the seed after 60 steps; a
        # retry that halves each step the residual does not fall under
        # converges
        path = tmp_path / "exact_dense.json"
        path.write_text(json.dumps({**FAR_EXACT_FORM, "analysis": {
            "order": 12, "slice_radii": [0.7], "slice_angles": 20}}))
        section = sample_checks(path)
        assert (section["n_samples"], section["n_failed_seeds"]) == (20, 0)
        assert section["contact_order_histogram"] == {"1": 20}
        monkeypatch.setattr(foliation, "_HALVINGS", 0)  # no retry
        assert sample_checks(path)["n_failed_seeds"] == 1

    def test_a_seed_that_halved_steps_lose_is_kept(self, monkeypatch,
                                                   tmp_path):
        # the other way round: on product_form_perturbed at r = 0.7 and
        # 1.0 the residual rises on the way to a root, so halving each
        # step it does not fall under stalls one seed per radius where J
        # turns singular, while full steps converge; hence full steps
        # first and the halved retry second, not damping alone
        doc = json.loads((FIXTURES / "product_form_perturbed.json")
                         .read_text())
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps({**doc, "analysis": {
            "order": 10, "slice_radii": [0.7, 1.0], "slice_angles": 20}}))
        section = sample_checks(path)
        assert (section["n_samples"], section["n_failed_seeds"]) == (40, 0)
        assert section["contact_order_histogram"] == {"1": 40}
        refine = foliation._refine
        monkeypatch.setattr(foliation, "_refine", lambda evaluate, w, *_: (
            refine(evaluate, w, foliation._HALVINGS)))  # damped passes only
        assert sample_checks(path)["n_failed_seeds"] == 2


# both sides of the tolerance: sin 1e-8 < sqrt(2) 1e-8 < sin 2e-8
PRINCIPAL_ANGLES = (0.0, 1e-12, 1e-8, 2e-8, 1e-6, 0.3, math.pi / 2)


class TestContactOrder:
    def test_totally_real_slice_of_product_foliation(self):
        n = 6
        form = siegel_linear(n)
        x0 = 0.1 + 0.05j
        point = (x0, x0.conjugate())
        basis = (np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0]))
        assert contact_order(form, point, basis) == 1

    def test_invariant_surface(self):
        # foliation dy = 0; the complex line y = 0 is a leaf
        n = 4
        form = OneForm2(Poly2.zero(n), Poly2.constant(1, n))
        basis = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
        assert contact_order(form, (0.3, 0.0), basis) == 2

    def test_transverse_surface(self):
        # foliation dx = 0 meets the complex line y = 0 transversely
        n = 4
        form = OneForm2(Poly2.constant(1, n), Poly2.zero(n))
        basis = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
        assert contact_order(form, (0.3, 0.0), basis) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.complex_numbers(min_magnitude=0.01, max_magnitude=1),
           nonzero_gaussian)
    def test_hand_built_cases_at_random_points(self, x0, scale):
        # the three cases above, anywhere off the origin and for any scaling
        # of the form; the binary64 values give the same rank as exact ones
        for form, point, basis, expected in hand_built_contact_cases(x0):
            form = form.scale(scale)
            assert contact_order(form, point, basis) == expected
            exact = foliation._contact_order(form.a.evaluate(point),
                                             form.b.evaluate(point),
                                             point, basis)
            assert exact == expected

    @settings(max_examples=50, deadline=None)
    @given(st.complex_numbers(min_magnitude=0.01, max_magnitude=1),
           nonzero_gaussian, st.floats(0, 2 * math.pi))
    def test_principal_angles_count_what_matrix_rank_counts(self, x0, scale,
                                                             phi):
        # the same cases against the numpy reference, with the tangent
        # basis as given and rotated within its plane by phi
        c, s = math.cos(phi), math.sin(phi)
        for form, point, (t1, t2), expected in hand_built_contact_cases(x0):
            av, bv = series.binary64(form.a, form.b)(*point)
            av, bv = av * scale.to_complex(), bv * scale.to_complex()
            for basis in ((t1, t2), (c * t1 + s * t2, c * t2 - s * t1)):
                assert foliation._contact_order(av, bv, point, basis) == \
                    reference_contact_order(av, bv, basis) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.complex_numbers(max_magnitude=1), st.complex_numbers(
        max_magnitude=1), st.sampled_from(PRINCIPAL_ANGLES),
        st.sampled_from(PRINCIPAL_ANGLES))
    def test_counts_the_angles_whose_sine_exceeds_the_tolerance(
            self, av, bv, theta, phi):
        # a plane at principal angles theta and phi to the leaf line,
        # on both sides of the tolerance
        assume(max(abs(av), abs(bv)) > 0.1)
        w = np.array([-bv, av])
        line = [np.concatenate([[z.real, z.imag] for z in v])
                for v in (w, 1j * w)]
        line = [v / np.linalg.norm(v) for v in line]
        normal = np.linalg.svd(np.array(line))[2][2:]
        basis = (math.cos(theta) * line[0] + math.sin(theta) * normal[0],
                 math.cos(phi) * line[1] + math.sin(phi) * normal[1])
        expected = 2 - sum(math.sin(a) > math.sqrt(2) * 1e-8
                           for a in (theta, phi))
        assert foliation._contact_order(av, bv, (0.1, 0.1), basis) == \
            reference_contact_order(av, bv, basis) == expected

    def test_dependent_tangent_basis_rejected(self):
        form = siegel_linear(6)
        t = np.array([1.0, 0, 1.0, 0])
        with pytest.raises(ValueError, match="plane"):
            contact_order(form, (0.1, 0.1), (t, 2 * t))

    def test_singular_point_detected(self):
        # d(x^2) vanishes along x = 0 away from the origin
        n = 6
        form = OneForm2(Poly2.monomial(1, 0, 2, n), Poly2.zero(n))
        with pytest.raises(SingularPoint):
            contact_order(form, (0.0, 0.3), ())

    def test_origin_rejected(self):
        n = 6
        form = siegel_linear(n)
        with pytest.raises(ValueError):
            contact_order(form, (0.0, 0.0), ())


def _xy(m):
    return Poly2.var_x(m) * Poly2.var_y(m)


# Each refusal of `foliation`: the call, the exception type and its message
REFUSALS = {
    "form-not-siegel": (
        lambda: formal_first_integral_siegel(d_of(_xy(6) + _xy(6)), 6),
        ValueError, "form is not in Siegel resonant shape"),
    "form-below-order": (
        lambda: formal_first_integral_siegel(siegel_linear(4), 6),
        ValueError, "form truncated at 4; lift it to 6 first"),
    "F-below-the-verified-degree": (
        lambda: factor_fg(_xy(10), 8), ValueError,
        "F truncated at 10; degree 11 is needed to verify the factorization "
        "to degree 8"),
    "vanishing-component": (
        lambda: blowup(OneForm2(Poly2.zero(4), Poly2.var_x(4))), NotIsolated,
        "a vanishing component makes the singular set a curve"),
    # xy is not the product of the branches of xy + x^3 (f = y + x^2)
    "unit-of-the-wrong-product": (
        lambda: foliation._solve_unit(_xy(8) + Poly2.var_x(8) ** 3, _xy(8)),
        BranchFailure, "residual term x^3 y^0 is not divisible by xy"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusals(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
