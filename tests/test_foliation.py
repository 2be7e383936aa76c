from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from centerfocus import foliation
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
from centerfocus.series import GaussianRational, OneForm2, Poly2, VectorField2

from sympy_oracle import X, Y


def siegel_linear(n):
    """x dy + y dx at truncation n."""
    return OneForm2(Poly2.var_y(n).promote_complex(),
                    Poly2.var_x(n).promote_complex())


def d_of(p: Poly2) -> OneForm2:
    return OneForm2(p.diff_x(), p.diff_y())


def generic_target(m):
    """xy + x^3 + y^4 + x^2 y^2, an exact polynomial known to degree m."""
    x, y = Poly2.var_x(m), Poly2.var_y(m)
    return (x * y + x ** 3 + y ** 4 + x ** 2 * y ** 2).promote_complex()


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
        sf = complexify(norm)
        assert sf.form.a == Poly2.var_y(n).promote_complex()
        assert sf.form.b == Poly2.var_x(n).promote_complex()

    def test_quadratic_perturbation_hand_oracle(self):
        # hand substitution oracle: for X = -y dx + (x + x^2) dy the dual
        # form x dx + y dy + x^2 dx pulls back (x=(u+v)/2, y=-i(u-v)/2,
        # rescaled by 2) to v du + u dv + (u+v)^2/4 (du + dv)
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        norm = normalize_rotation(VectorField2(-y, x + x * x))
        sf = complexify(norm)
        quarter = Fraction(1, 4)
        sq = Poly2({(2, 0): quarter, (1, 1): 2 * quarter, (0, 2): quarter},
                   n, real=False)
        assert sf.form.a == Poly2.var_y(n).promote_complex() + sq
        assert sf.form.b == Poly2.var_x(n).promote_complex() + sq
        assert siegel_check(sf.form)

    def test_complexified_first_integral_annihilates_form(self):
        # a real first integral transported by the same substitution must
        # satisfy dF ^ form = 0 exactly
        n = 12
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        norm = normalize_rotation(VectorField2(-y, x + x * x))
        rep = lyapunov_quantities(norm, n)
        sf = complexify(norm)
        f_c = rep.first_integral.promote_complex().substitute_linear(
            sf.change_matrix)
        assert wedge_coefficient(f_c, sf.form).is_zero()


class TestSiegelCheck:
    def test_siegel_linear(self):
        assert siegel_check(siegel_linear(6))

    def test_poincare_linear_rejected(self):
        n = 6
        form = OneForm2(-Poly2.var_y(n).promote_complex(),
                        Poly2.var_x(n).promote_complex())
        assert not siegel_check(form)

    def test_quadratic_remainder_allowed(self):
        n = 6
        w = siegel_linear(n)
        form = OneForm2(w.a + Poly2.monomial(0, 2, 1, n), w.b)
        assert siegel_check(form)


class TestBlowup:
    def test_siegel_linear_charts_and_singularities(self):
        # hand computation: x(t dx + x dt) + tx dx = x(2t dx + x dt)
        n = 8
        res = blowup(siegel_linear(n))
        assert res.divided_power_t == 1
        assert res.chart_t.a == Poly2({(0, 1): 2}, n - 1, real=False)
        assert res.chart_t.b == Poly2({(1, 0): 1}, n - 1, real=False)
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
        form = OneForm2(-y.promote_complex(), x.promote_complex())
        res = blowup(form)
        assert not res.divisor_invariant
        assert res.divided_power_t == 2
        assert res.chart_t.a.is_zero()
        assert res.chart_t.b == Poly2.constant(1, n - 2).promote_complex()

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
        form = OneForm2((x * y).promote_complex(), x.promote_complex())
        with pytest.raises(NotIsolated):
            blowup(form)

    def test_nonvanishing_form_rejected(self):
        n = 6
        form = OneForm2(Poly2.constant(1, n).promote_complex(),
                        Poly2.var_x(n).promote_complex())
        with pytest.raises(ValueError):
            blowup(form)

    def test_siegel_blowups_never_dicritical(self):
        # any Siegel perturbation keeps the divisor invariant with exactly
        # two singularities of eigenvalue ratio -1/2 (the linear part rules)
        n = 8
        w = siegel_linear(n)
        perturbations = [
            (Poly2.zero(n, real=False), Poly2.monomial(2, 0, 1, n)),
            (Poly2.monomial(0, 2, Fraction(1, 3), n),
             Poly2.monomial(1, 1, -2, n)),
            (Poly2.monomial(1, 1, 1, n) + Poly2.monomial(3, 0, 1, n),
             Poly2.monomial(2, 1, Fraction(-1, 2), n)),
        ]
        for da, db in perturbations:
            form = OneForm2(w.a + da.promote_complex(),
                            w.b + db.promote_complex())
            assert siegel_check(form)
            res = blowup(form)
            assert res.divisor_invariant
            assert len(res.singularities_on_E) == 2
            for s in res.singularities_on_E:
                assert abs(s.ratio - (-0.5)) < 1e-9


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
        assert f == Poly2({(1, 1): 1}, n, real=False)
        assert all(not eta for _, eta in obstructions)

    def test_recovers_perturbed_product(self):
        n = 10
        x, y = Poly2.var_x(n + 1), Poly2.var_y(n + 1)
        target = (x * y + x ** 3 * y ** 2).promote_complex()
        f, obstructions = formal_first_integral_siegel(d_of(target), n)
        assert f == target.truncate(n)
        assert all(not eta for _, eta in obstructions)

    def test_obstructions_match_dense_oracle(self):
        n = 6
        w = siegel_linear(n)
        form = OneForm2(w.a, w.b + Poly2.monomial(2, 0, 1, n).promote_complex())
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
        form = complexify(normalize_rotation(field)).form
        _, obstructions = formal_first_integral_siegel(form, n)
        assert len(calls) == 1
        assert any(eta for _, eta in obstructions)


class TestFactorFg:
    def test_plain_product(self):
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg((x * y).promote_complex(), n)
        assert pair.f == Poly2.var_y(n + 2).promote_complex()
        assert pair.g == Poly2.var_x(n + 2).promote_complex()
        assert pair.unit == Poly2.constant(1, n).promote_complex()

    def test_unit_absorbs_perturbation(self):
        # F = xy(1 + x^2 y): branches stay on the axes and the unit is
        # exactly 1 + x^2 y
        n = 10
        m = n + 3
        x, y = Poly2.var_x(m), Poly2.var_y(m)
        target = (x * y + x ** 3 * y ** 2).promote_complex()
        pair = factor_fg(target, n)
        assert pair.f == Poly2.var_y(m - 1).promote_complex()
        assert pair.g == Poly2.var_x(m - 1).promote_complex()
        assert pair.unit == Poly2({(0, 0): 1, (2, 1): 1}, m - 3, real=False)
        recon = pair.f * pair.g * pair.unit
        assert recon.truncate(n) == target.truncate(n)

    def test_offaxis_branch(self):
        # order-by-order hand solve for F = xy + x^3: the branch through
        # y-direction is y = -x^2, so f = y + x^2 and F = f * g exactly
        n = 8
        m = n + 3
        x, y = Poly2.var_x(m), Poly2.var_y(m)
        pair = factor_fg((x * y + x ** 3).promote_complex(), n)
        assert pair.f == (y + x * x).truncate(m - 1).promote_complex()
        assert pair.g == Poly2.var_x(m - 1).promote_complex()
        assert pair.unit == Poly2.constant(1, m - 3).promote_complex()

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
        target = (x * y + x ** 3 * y ** 2).promote_complex()
        pair = factor_fg(target, n)
        fa, gb = pair.absorbed()
        w = wedge_coefficient(fa * gb, d_of(target))
        assert w.truncate(n - 1).is_zero()

    def test_wrong_quadratic_part_rejected(self):
        n = 8
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        with pytest.raises(ValueError):
            factor_fg((x * x + y * y).promote_complex(), n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1), st.integers(2, 10), nonzero_gaussian)
    def test_corrupted_branch_fails(self, which, k, delta):
        # one coefficient a_k (or b_k) of one solved branch is off by delta
        calls = []
        solve = foliation.substitution_root

        def corrupted(*args):
            out = solve(*args)
            if len(calls) == which:
                out[k] = out.get(k, GaussianRational()) + delta
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

    def test_product_is_the_checked_reconstruction(self):
        pair = factor_fg(generic_target(11), 8)
        assert pair.product == pair.f * pair.g * pair.unit

    def test_two_products_at_n14(self, monkeypatch):
        # f * g and the reconstruction; every degree of the branches and
        # the unit is one new coefficient, not a new product
        target = generic_target(17)
        calls = count_products(monkeypatch)
        factor_fg(target, 14)
        assert len(calls) <= 2


class TestRealSlice:
    def test_model_pair_conjugate_slice(self):
        # f = y, g = x: V2 is y = conj(x) and fg = |x|^2 >= 0
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg((x * y).promote_complex(), n)
        sl, ver = real_slice(pair, SliceGrid(radii=(0.05, 0.1), n_angles=8))
        assert ver.n_samples == 16
        for (xs, ys) in sl.sample_points:
            assert abs(ys - xs.conjugate()) < 1e-9
        assert ver.max_abs_im_fg <= 1e-12
        assert ver.min_re_fg >= 0
        assert all(c == 1 for c in ver.contact_orders)

    def test_perturbed_pair_slice_properties(self):
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg((x * y + x ** 3 * y ** 2).promote_complex(), n)
        sl, ver = real_slice(pair)
        assert ver.n_samples >= 50
        assert ver.max_abs_im_fg <= 1e-9
        assert ver.min_re_fg >= -1e-9
        assert all(c == 1 for c in ver.contact_orders)

    def test_degenerate_pair_rejected(self):
        from centerfocus.foliation import FactorPair
        n = 6
        y = Poly2.var_y(n).promote_complex()
        pair = FactorPair(y, y, Poly2.constant(1, n).promote_complex(),
                          verified_degree=n, product=y * y)
        assert not pair.general_position
        with pytest.raises(ValueError):
            real_slice(pair)

    def test_one_product(self, monkeypatch):
        # f * unit; the first integral's gradient comes from the pair's
        # product, which factor_fg has already formed and checked
        pair = factor_fg(generic_target(13), 10)
        calls = count_products(monkeypatch)
        real_slice(pair, SliceGrid(radii=(0.05,), n_angles=4))
        assert len(calls) == 1

    def test_no_exact_evaluation(self, monkeypatch):
        # every sample, contact order included, is evaluated in binary64
        n = 10
        x, y = Poly2.var_x(n + 3), Poly2.var_y(n + 3)
        pair = factor_fg((x * y + x ** 3 * y ** 2).promote_complex(), n)
        calls = []
        evaluate = Poly2.evaluate
        monkeypatch.setattr(Poly2, "evaluate",
                            lambda *args: calls.append(1) or evaluate(*args))
        _, ver = real_slice(pair)
        assert ver.n_samples >= 50
        assert calls == []


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
        form = OneForm2(Poly2.zero(n, real=False),
                        Poly2.constant(1, n).promote_complex())
        basis = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
        assert contact_order(form, (0.3, 0.0), basis) == 2

    def test_transverse_surface(self):
        # foliation dx = 0 meets the complex line y = 0 transversely
        n = 4
        form = OneForm2(Poly2.constant(1, n).promote_complex(),
                        Poly2.zero(n, real=False))
        basis = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
        assert contact_order(form, (0.3, 0.0), basis) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.complex_numbers(min_magnitude=0.01, max_magnitude=1),
           nonzero_gaussian)
    def test_hand_built_cases_at_random_points(self, x0, scale):
        # the three cases above, anywhere off the origin and for any scaling
        # of the form; the binary64 values give the same rank as exact ones
        n = 6
        slice_basis = (np.array([1.0, 0, 1.0, 0]), np.array([0, 1.0, 0, -1.0]))
        line_basis = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
        one = Poly2.constant(1, n).promote_complex()
        zero = Poly2.zero(n, real=False)
        cases = [
            (siegel_linear(n), (x0, x0.conjugate()), slice_basis, 1),
            (OneForm2(zero, one), (x0, 0j), line_basis, 2),
            (OneForm2(one, zero), (x0, 0j), line_basis, 0),
        ]
        for form, point, basis, expected in cases:
            form = form.scale(scale)
            assert contact_order(form, point, basis) == expected
            exact = foliation._contact_order(form.a.evaluate(point),
                                             form.b.evaluate(point),
                                             point, basis)
            assert exact == expected

    def test_singular_point_detected(self):
        # d(x^2) vanishes along x = 0 away from the origin
        n = 6
        form = OneForm2(Poly2.monomial(1, 0, 2, n).promote_complex(),
                        Poly2.zero(n, real=False))
        with pytest.raises(SingularPoint):
            contact_order(form, (0.0, 0.3), ())

    def test_origin_rejected(self):
        n = 6
        form = siegel_linear(n)
        with pytest.raises(ValueError):
            contact_order(form, (0.0, 0.0), ())
