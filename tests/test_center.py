import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from centerfocus import center
from centerfocus.center import (
    IrrationalRotationFrequency,
    NotARotation,
    certify_center,
    lyapunov_quantities,
    morse_check,
    normalize_rotation,
    _radius_power_vector,
    _rotation_inverse,
)
from centerfocus.series import (
    GaussianRational,
    Poly2,
    VectorField2,
    gr,
    lie_derivative,
)

from sympy_oracle import X, Y, to_sympy


def rotation_field(n):
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    return VectorField2(-y, x)


def cubic_focus(n):
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    r2 = x * x + y * y
    return VectorField2(-y + x * r2, x + y * r2)


def dense_quadratic(n):
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    return VectorField2(-y + 2 * x * x + 3 * x * y - y * y,
                        x + x * x - 5 * x * y + 2 * y * y)


def rotate(k, f):
    """-y df/dx + x df/dy on the degree-k coefficients f, through the
    series kernel rather than the solver."""
    poly = Poly2({(k - r, r): c for r, c in enumerate(f)}, k + 1)
    image = lie_derivative(rotation_field(k + 1), poly)
    return [image.coefficient(k - r, r) for r in range(k + 1)]


def oracle_lyapunov(field: VectorField2, n: int):
    """Dense sympy solve of X(F) = sum eta_k (x^2+y^2)^(k/2) to degree n,
    with F = x^2 + y^2 + ... and each even-degree F_k orthogonal
    (Euclidean, on coefficients) to (x^2+y^2)^(k/2)."""
    p_expr, q_expr = to_sympy(field.p), to_sympy(field.q)
    unknowns = {}
    f_expr = X**2 + Y**2
    side = []
    for k in range(3, n + 1):
        for j in range(k + 1):
            sym = sp.Symbol(f"c_{k - j}_{j}")
            unknowns[(k - j, j)] = sym
            f_expr += sym * X**(k - j) * Y**j
        if k % 2 == 0:
            s = _radius_power_vector(k)
            side.append(sum(unknowns[(k - j, j)] * sp.Rational(s[j].re)
                            for j in range(k + 1)))
    etas = {k: sp.Symbol(f"eta_{k}") for k in range(4, n + 1, 2)}
    target = sum(eta * (X**2 + Y**2) ** (k // 2) for k, eta in etas.items())
    lie = sp.expand(p_expr * sp.diff(f_expr, X) + q_expr * sp.diff(f_expr, Y)
                    - target)
    poly = sp.Poly(lie, X, Y)
    eqs = [c for (i, j), c in zip(poly.monoms(), poly.coeffs()) if i + j <= n]
    sol = sp.solve(eqs + side, [*unknowns.values(), *etas.values()],
                   dict=True)
    assert len(sol) == 1
    f_coeffs = {e: sol[0][sym] for e, sym in unknowns.items()}
    f_coeffs[(2, 0)] = f_coeffs[(0, 2)] = sp.Integer(1)
    return f_coeffs, {k: sol[0][sym] for k, sym in etas.items()}


def exact_gaussian():
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return st.builds(GaussianRational, fractions, fractions)


def hamiltonian_cubic(n):
    # H = (x^2+y^2)/2 + x^3/3, field (-H_y, H_x)
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    return VectorField2(-y, x + x * x)


class TestNormalizeRotation:
    def test_standard_rotation_identity_change(self):
        norm = normalize_rotation(rotation_field(6))
        assert norm.change_matrix == ((gr(1), gr(0)), (gr(0), gr(1)))
        assert norm.time_rescale == gr(1)
        assert norm.normalized == norm.original

    def test_double_speed_rotation(self):
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        norm = normalize_rotation(VectorField2(-2 * y, 2 * x))
        assert norm.time_rescale == gr(Fraction(1, 2))
        assert norm.change_matrix == ((gr(1), gr(0)), (gr(0), gr(1)))
        assert norm.normalized.p == -y and norm.normalized.q == x

    def test_saddle_rejected(self):
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        with pytest.raises(NotARotation):
            normalize_rotation(VectorField2(y, x))

    def test_nonzero_trace_rejected(self):
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        with pytest.raises(NotARotation):
            normalize_rotation(VectorField2(x - y, x))

    def test_sheared_rotation_normalizes_exactly(self):
        # linear part ((1, -2), (1, -1)): trace 0, det 1
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        field = VectorField2(x - 2 * y, x - y)
        norm = normalize_rotation(field)
        lin = norm.normalized.linear_part_matrix()
        assert lin[0][0] == gr(0) and lin[0][1] == gr(-1)
        assert lin[1][0] == gr(1) and lin[1][1] == gr(0)

    def test_irrational_frequency_reported(self):
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        with pytest.raises(IrrationalRotationFrequency):
            normalize_rotation(VectorField2(-2 * y, x))

    def test_nonsingular_field_rejected(self):
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        with pytest.raises(ValueError):
            normalize_rotation(VectorField2(-y + 1, x))


class TestLyapunovQuantities:
    def test_linear_center_all_zero(self):
        norm = normalize_rotation(rotation_field(10))
        rep = lyapunov_quantities(norm, 10)
        assert rep.first_nonzero is None
        assert all(eta == gr(0) for _, eta in rep.obstructions)
        assert rep.first_integral == Poly2({(2, 0): 1, (0, 2): 1}, 10)

    def test_cubic_focus_eta2_is_two(self):
        # oracle: X(x^2+y^2) = 2(x^2+y^2)^2 exactly, so no corrections
        # are needed and the degree-4 obstruction is 2
        norm = normalize_rotation(cubic_focus(8))
        rep = lyapunov_quantities(norm, 8)
        assert rep.obstructions[0] == (4, gr(2))
        assert rep.first_nonzero == 0

    def test_hamiltonian_cubic_center(self):
        # Hamiltonian oracle: H = (x^2+y^2)/2 + x^3/3 satisfies X(H) = 0,
        # so F = 2H = x^2 + y^2 + (2/3)x^3 and every obstruction vanishes
        norm = normalize_rotation(hamiltonian_cubic(12))
        rep = lyapunov_quantities(norm, 12)
        assert rep.first_nonzero is None
        expected = Poly2({(2, 0): 1, (0, 2): 1, (3, 0): Fraction(2, 3)}, 12)
        assert rep.first_integral == expected
        assert lie_derivative(norm.normalized, rep.first_integral).is_zero()

    def test_exactness_of_obstruction_series(self):
        n = 8
        norm = normalize_rotation(cubic_focus(n))
        rep = lyapunov_quantities(norm, n)
        lie = lie_derivative(norm.normalized.lift(n + 1),
                             rep.first_integral.lift(n + 1))
        r2 = Poly2({(2, 0): 1, (0, 2): 1}, n)
        total = Poly2.zero(n)
        for deg, eta in rep.obstructions:
            total = total + r2 ** (deg // 2) * eta
        assert lie.truncate(n) == total

    def test_random_hamiltonian_perturbations_are_centers(self):
        # any field (-H_y, H_x) with H = (x^2+y^2)/2 + h.o.t. conserves H
        rng = random.Random(17)
        n = 10
        for _ in range(5):
            pert = {}
            for _ in range(4):
                i = rng.randint(0, 4)
                j = rng.randint(0, 4 - i)
                if i + j >= 3:
                    pert[(i, j)] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            h = Poly2({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}, n) + \
                Poly2(pert, n)
            field = VectorField2(-h.diff_y().lift(n), h.diff_x().lift(n))
            norm = normalize_rotation(field)
            rep = lyapunov_quantities(norm, n)
            assert rep.first_nonzero is None
            assert lie_derivative(field, rep.first_integral).is_zero()

    def test_sign_stability_under_positive_rescale(self):
        n = 8
        field = cubic_focus(n)
        scaled = VectorField2(field.p * 3, field.q * 3)
        rep1 = lyapunov_quantities(normalize_rotation(field), n)
        rep2 = lyapunov_quantities(normalize_rotation(scaled), n)
        assert rep1.first_nonzero == rep2.first_nonzero
        d1, e1 = rep1.obstructions[rep1.first_nonzero]
        d2, e2 = rep2.obstructions[rep2.first_nonzero]
        assert d1 == d2 and (e1.re > 0) == (e2.re > 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 16).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(
            exact_gaussian(), min_size=k + 1, max_size=k + 1))))
    def test_structured_inverse_solves_exactly(self, case):
        k, rhs = case
        f, eta = _rotation_inverse(k, rhs)
        s = _radius_power_vector(k)
        lf = rotate(k, f)
        if k % 2 == 1:
            assert eta is None
            assert lf == rhs
        else:
            assert [a - eta * b for a, b in zip(lf, s)] == rhs

    def test_odd_degree_operator_injective(self):
        for k in range(3, 17, 2):
            f, eta = _rotation_inverse(k, [gr(0)] * (k + 1))
            assert f == [gr(0)] * (k + 1) and eta is None

    def test_even_degree_operator_rank_deficit_one(self):
        # kernel and cokernel both along s = (x^2+y^2)^(k/2)
        for k in range(4, 17, 2):
            s = _radius_power_vector(k)
            assert rotate(k, s) == [gr(0)] * (k + 1)
            _, eta = _rotation_inverse(k, s)
            assert eta

    def test_dense_oracle(self):
        n = 8
        rep = lyapunov_quantities(normalize_rotation(dense_quadratic(n)), n)
        f_coeffs, etas = oracle_lyapunov(dense_quadratic(n), n)
        assert [(k, sp.Rational(eta.re)) for k, eta in rep.obstructions] == \
            sorted(etas.items())
        assert all(c.is_real for c in rep.first_integral.terms.values())
        got = {e: sp.Rational(c.re)
               for e, c in rep.first_integral.terms.items()}
        assert got == {e: c for e, c in f_coeffs.items() if c}

    def test_one_lie_derivative_per_run(self, monkeypatch):
        # the degree-by-degree solve forms residuals from homogeneous
        # parts; the only full Lie derivative is the final exact check
        calls = []
        lie = center.lie_derivative
        monkeypatch.setattr(center, "lie_derivative",
                            lambda *args: calls.append(1) or lie(*args))
        n = 24
        lyapunov_quantities(normalize_rotation(dense_quadratic(n)), n)
        assert len(calls) == 1

    def test_guard_builds_each_radius_power_once(self, monkeypatch):
        # the dense quadratic is a focus with eta_k != 0 at every even k:
        # the guard needs (x^2+y^2)^j for j <= n/2, one product each, and
        # the Lie derivative two more
        n = 24
        norm = normalize_rotation(dense_quadratic(n))
        calls = []
        mul = Poly2.__mul__
        monkeypatch.setattr(Poly2, "__mul__", lambda a, b: (
            calls.append(1) if isinstance(b, Poly2) else None) or mul(a, b))
        rep = lyapunov_quantities(norm, n)
        assert all(eta for _, eta in rep.obstructions)
        assert len(calls) == n // 2 + 2

    def test_requires_enough_truncation(self):
        norm = normalize_rotation(rotation_field(6))
        with pytest.raises(ValueError):
            lyapunov_quantities(norm, 8)


class TestMorseCheck:
    def test_definite_radius(self):
        rep = morse_check(Poly2({(2, 0): 1, (0, 2): 1}, 4))
        assert rep.nondegenerate and rep.definite

    def test_cusp_degenerate(self):
        rep = morse_check(Poly2({(2, 0): 1, (0, 3): -1}, 4))
        assert not rep.nondegenerate

    def test_saddle_indefinite(self):
        rep = morse_check(Poly2({(1, 1): 1}, 4))
        assert rep.nondegenerate and not rep.definite

    def test_rejects_linear_terms(self):
        with pytest.raises(ValueError):
            morse_check(Poly2({(1, 0): 1, (2, 0): 1}, 4))


class TestCertifyCenter:
    def test_hamiltonian_cubic_is_center(self):
        verdict = certify_center(hamiltonian_cubic(4), 12)
        assert verdict.status == "CENTER_TO_ORDER_N"
        assert verdict.order == 12
        assert verdict.morse.definite

    def test_cubic_focus_detected(self):
        verdict = certify_center(cubic_focus(4), 8)
        assert verdict.status == "FOCUS"
        assert verdict.focus_degree == 4
        assert verdict.focus_coefficient == gr(2)

    def test_saddle_not_applicable(self):
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        verdict = certify_center(VectorField2(y, x), 8)
        assert verdict.status == "NOT_APPLICABLE"

    def test_irrational_frequency_not_applicable(self):
        # x' = -2y, y' = x rotates at frequency sqrt(2)
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        verdict = certify_center(VectorField2(-2 * y, x), 8)
        assert verdict.status == "NOT_APPLICABLE"
        assert "not a rational square" in verdict.message
