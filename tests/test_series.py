import random
from fractions import Fraction

import pytest
import sympy as sp

from centerfocus.series import (
    OneForm2,
    Poly2,
    SingularMatrix,
    VectorField2,
    evaluate,
    gr,
    lie_derivative,
    linear_change,
    mul,
)

from sympy_oracle import X, Y, random_poly, to_sympy


def poly(terms, n):
    return Poly2(terms, n)


class TestGaussianRational:
    def test_field_operations(self):
        a = gr(Fraction(1, 2), Fraction(-3, 4))
        b = gr(2, 1)
        assert (a * b) / b == a
        assert a + (-a) == gr(0)
        assert (1 / b) * b == gr(1)

    def test_conjugate_and_norm(self):
        a = gr(3, 4)
        assert a.abs2() == Fraction(25)
        assert (a * a.conjugate()).re == Fraction(25)

    def test_reality(self):
        assert gr(2).is_real
        assert not gr(0, 1).is_real


class TestPoly2Basics:
    def test_zero_terms_dropped(self):
        p = poly({(1, 0): 0, (0, 1): 1}, 3)
        assert (1, 0) not in p.terms
        assert p.coefficient(0, 1) == gr(1)

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            poly({(3, 2): 1}, 4)

    def test_real_flag_enforced(self):
        with pytest.raises(ValueError):
            Poly2({(1, 0): gr(0, 1)}, 2, real=True)
        assert not Poly2({(1, 0): gr(0, 1)}, 2).real

    def test_truncate_and_lift(self):
        p = poly({(2, 0): 1, (0, 1): 2}, 5)
        q = p.truncate(1)
        assert q.truncation_degree == 1 and q.coefficient(2, 0) == gr(0)
        r = p.lift(8)
        assert r.truncation_degree == 8 and r.terms == p.terms
        with pytest.raises(ValueError):
            p.lift(3)


class TestMul:
    def test_difference_of_squares(self):
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        assert mul(x + y, x - y) == x * x - y * y

    def test_geometric_series_inverse(self):
        n = 5
        one_plus = poly({(0, 0): 1, (1, 0): 1}, n)
        geo = poly({(k, 0): (-1) ** k for k in range(n + 1)}, n)
        assert mul(one_plus, geo) == Poly2.constant(1, n)

    def test_radius_squared_expansion(self):
        # hand expansion oracle: (x^2+y^2)^2 = x^4 + 2 x^2 y^2 + y^4
        n = 6
        r2 = poly({(2, 0): 1, (0, 2): 1}, n)
        expected = poly({(4, 0): 1, (2, 2): 2, (0, 4): 1}, n)
        assert mul(r2, r2) == expected

    def test_truncation_is_min_of_degrees(self):
        u = poly({(1, 0): 1}, 7)
        v = poly({(0, 1): 1}, 4)
        assert (u * v).truncation_degree == 4

    def test_reality_propagation(self):
        u = poly({(1, 0): 1}, 5)
        v = Poly2({(0, 1): gr(0, 1)}, 5)
        assert u.real and not v.real and not (u * v).real


class TestLieDerivative:
    def test_rotation_preserves_radius(self):
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        field = VectorField2(-y, x)
        assert lie_derivative(field, x * x + y * y).is_zero()

    def test_cusp_hamiltonian(self):
        n = 8
        field = VectorField2(
            poly({(0, 2): 3}, n),   # 3y^2
            poly({(1, 0): 2}, n),   # 2x
        )
        f = poly({(2, 0): 1, (0, 3): -1}, n)  # x^2 - y^3
        assert lie_derivative(field, f).is_zero()

    def test_cubic_focus_radius_growth(self):
        # symbolic expansion oracle via sympy
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        r2 = x * x + y * y
        field = VectorField2(-y + x * r2, x + y * r2)
        out = lie_derivative(field, r2)
        oracle = sp.expand(
            (-Y + X * (X**2 + Y**2)) * sp.diff(X**2 + Y**2, X)
            + (X + Y * (X**2 + Y**2)) * sp.diff(X**2 + Y**2, Y)
        )
        assert sp.expand(to_sympy(out) - oracle) == 0
        assert to_sympy(out) == sp.expand(2 * (X**2 + Y**2) ** 2)

    def test_result_degree_drops_by_one(self):
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        field = VectorField2(-y, x)
        assert lie_derivative(field, x * y).truncation_degree == n - 1


class TestLinearChange:
    def test_identity(self):
        n = 5
        f = poly({(1, 1): 1}, n)
        assert linear_change(f, ((1, 0), (0, 1))) == f

    def test_swap(self):
        n = 5
        f = Poly2.var_x(n)
        assert linear_change(f, ((0, 1), (1, 0))) == Poly2.var_y(n)

    def test_radius_to_product_coordinates(self):
        # hand oracle: (x+y)^2 + (ix-iy)^2 = 4xy
        n = 5
        f = poly({(2, 0): 1, (0, 2): 1}, n)
        m = ((gr(1), gr(1)), (gr(0, 1), gr(0, -1)))
        assert linear_change(f, m) == Poly2({(1, 1): gr(4)}, n, real=False)

    def test_singular_matrix_rejected(self):
        f = Poly2.var_x(4)
        with pytest.raises(SingularMatrix):
            linear_change(f, ((1, 1), (2, 2)))

    def test_ring_morphism_on_random_inputs(self):
        rng = random.Random(7)
        m = ((2, 1), (1, 1))
        for _ in range(20):
            f = random_poly(rng, 6)
            g = random_poly(rng, 6)
            assert linear_change(f * g, m) == linear_change(f, m) * linear_change(g, m)


class TestEvaluate:
    def test_radius(self):
        f = Poly2({(2, 0): 1, (0, 2): 1}, 4)
        assert evaluate(f, (3, 4)) == 25

    def test_product_at_imaginary_pair(self):
        f = Poly2({(1, 1): 1}, 4)
        assert evaluate(f, (1j, -1j)) == 1

    def test_point_on_cusp_curve(self):
        f = Poly2({(2, 0): 1, (0, 3): -1}, 4)
        assert evaluate(f, (1, 1)) == 0

    def test_multiplicative_within_rounding(self):
        # degree <= 6 factors at N = 12 keep the full product below the
        # truncation, so only the final binary64 rounding remains
        rng = random.Random(11)
        for _ in range(10):
            u = random_poly(rng, 6).lift(12)
            v = random_poly(rng, 6).lift(12)
            p = (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
            lhs = evaluate(mul(u, v), p)
            rhs = evaluate(u, p) * evaluate(v, p)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-12


class TestRingAxioms:
    def test_exact_axioms_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(15):
            u = random_poly(rng, 7)
            v = random_poly(rng, 7)
            w = random_poly(rng, 7)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert u * v == v * u

    def test_leibniz_rule(self):
        rng = random.Random(5)
        n = 8
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        field = VectorField2(-y + x * (x * x), x + y * y * x)
        for _ in range(15):
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            lhs = lie_derivative(field, f * g)
            rhs = lie_derivative(field, f) * g + f * lie_derivative(field, g)
            assert lhs == rhs


class TestFieldAndForm:
    def test_singular_at_origin(self):
        n = 4
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        assert VectorField2(-y, x).singular_at_origin
        assert not VectorField2(-y + 1, x).singular_at_origin

    def test_component_coherence(self):
        with pytest.raises(ValueError):
            VectorField2(Poly2.var_x(4), Poly2.var_y(5))
        with pytest.raises(ValueError):
            OneForm2(Poly2.var_x(4), Poly2({(0, 1): gr(0, 1)}, 4))

    def test_dual_form_annihilates_field(self):
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        field = VectorField2(-y + x * x, x + y * y)
        w = field.dual_form()
        assert (w.a * field.p + w.b * field.q).is_zero()
