import math
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
    _rotation_inverse,
)
from centerfocus.series import (
    GR_ZERO,
    GaussianRational,
    Poly2,
    VectorField2,
    gr,
    lie_derivative,
)

from sympy_oracle import X, Y, dense_inverse, to_sympy


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


def radius_power_vector(k):
    """Coefficients of (x^2 + y^2)^(k/2) on monomials x^(k-j) y^j."""
    s = [GR_ZERO] * (k + 1)
    for a in range(k // 2 + 1):
        s[k - 2 * a] = gr(math.comb(k // 2, a))
    return s


# The GaussianRational sweeps the integer inverse replaced: one `*` and
# `/` per coefficient.  Results must be equal, not close.

def naive_sweep_up(b, first, k):
    out, prev = [], GR_ZERO
    for r in range(first, k, 2):
        prev = (b[r] + (k - r + 1) * prev) / (r + 1)
        out.append(prev)
    return out


def naive_rotation_inverse(k, rhs):
    f = [GR_ZERO] * (k + 1)
    if k % 2 == 1:
        f[1::2] = naive_sweep_up(rhs, 0, k)
        nxt = GR_ZERO
        for r in range(k, 0, -2):
            nxt = f[r - 1] = ((r + 1) * nxt - rhs[r]) / (k - r + 1)
        return f, [GR_ZERO] * (k + 1)
    s = radius_power_vector(k)
    f[2::2] = naive_sweep_up(rhs, 1, k)
    u, v = naive_sweep_up(rhs, 0, k), naive_sweep_up(s, 0, k)
    eta = -(rhs[k] + u[-1]) / (s[k] + v[-1])
    f[1::2] = [a + eta * b for a, b in zip(u, v)]
    dot = sum((c * sv for c, sv in zip(f, s)), GR_ZERO)
    norm2 = sum((sv * sv for sv in s), GR_ZERO)
    return [c - dot / norm2 * sv for c, sv in zip(f, s)], \
        [eta * sv for sv in s]


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
            s = radius_power_vector(k)
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


# heights up to 2^64, zero and nonzero imaginary parts
big_part = st.builds(Fraction, st.integers(-2**64, 2**64),
                     st.integers(1, 2**64))
big_gaussian = st.one_of(
    st.builds(GaussianRational, big_part),
    st.builds(GaussianRational, big_part, big_part))


@st.composite
def inverse_cases(draw):
    """(k, rhs) for k = 3..30: a dense, a sparse or an all-zero rhs."""
    k = draw(st.integers(3, 30))
    rhs = [GR_ZERO] * (k + 1)
    kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    if kind == "dense":
        rhs = draw(st.lists(big_gaussian, min_size=k + 1, max_size=k + 1))
    elif kind == "sparse":
        for r in draw(st.sets(st.integers(0, k), min_size=1, max_size=3)):
            rhs[r] = draw(big_gaussian.filter(bool))
    return k, rhs


def euclidean_dot(f, s):
    return sum((c * sv for c, sv in zip(f, s)), GR_ZERO)


# The explicit-inverse normalization and the guard's repeated products
# that `normalize_rotation` and `lyapunov_quantities` replaced.

def naive_normalize(field):
    """p and q carried through T one by one, then T^-1 applied by hand
    and time rescaled by 1/omega."""
    (a11, a12), (a21, a22) = field.linear_part_matrix()
    omega = center._rational_sqrt(a11.re * a22.re - a12.re * a21.re)
    t = ((gr(1), gr(a11.re / omega)), (gr(0), gr(a21.re / omega)))
    det_t = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    tinv = ((t[1][1] / det_t, -t[0][1] / det_t),
            (-t[1][0] / det_t, t[0][0] / det_t))
    p_sub = field.p.substitute_linear(t)
    q_sub = field.q.substitute_linear(t)
    scale = gr(1 / omega)
    return t, scale, VectorField2(
        (tinv[0][0] * p_sub + tinv[0][1] * q_sub) * scale,
        (tinv[1][0] * p_sub + tinv[1][1] * q_sub) * scale)


def naive_radius_series(obstructions, n):
    """sum eta_k (x^2+y^2)^(k/2), each power by repeated products."""
    r2 = Poly2({(2, 0): 1, (0, 2): 1}, n)
    out = Poly2.zero(n)
    for k, eta in obstructions:
        power = Poly2.constant(1, n)
        for _ in range(k // 2):
            power = power * r2
        out = out + power * eta
    return out


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rotational_fields(draw):
    """A real field with linear part [[a, b], [c, -a]], c != 0, of
    frequency omega (a^2 + b c = -omega^2), plus quadratic and cubic
    terms; truncated at 4..8."""
    a, omega = draw(small), draw(small.filter(lambda v: v > 0))
    c = draw(small.filter(bool))
    b = -(a * a + omega * omega) / c
    n = draw(st.integers(4, 8))
    higher = st.dictionaries(
        st.sampled_from([(i, d - i) for d in (2, 3) for i in range(d + 1)]),
        small, max_size=7)
    p = Poly2({(1, 0): a, (0, 1): b, **draw(higher)}, n)
    q = Poly2({(1, 0): c, (0, 1): -a, **draw(higher)}, n)
    return VectorField2(p, q)


def hamiltonian_cubic(n):
    # H = (x^2+y^2)/2 + x^3/3, field (-H_y, H_x)
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    return VectorField2(-y, x + x * x)


class TestNormalizeRotation:
    def test_standard_rotation_identity_change(self):
        field = rotation_field(6)
        norm = normalize_rotation(field)
        assert norm.change_matrix == ((gr(1), gr(0)), (gr(0), gr(1)))
        assert norm.time_rescale == gr(1)
        assert norm.normalized == field

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
        f, eta_s = dense_inverse(_rotation_inverse, k, rhs)
        lf = rotate(k, f)
        if k % 2 == 1:
            assert eta_s == [GR_ZERO] * (k + 1)
        else:
            # eta_s is eta (x^2+y^2)^(k/2), eta its x^k coefficient
            s = radius_power_vector(k)
            assert eta_s == [eta_s[0] * b for b in s]
        assert [a - b for a, b in zip(lf, eta_s)] == rhs

    @settings(max_examples=200, deadline=None)
    @given(inverse_cases())
    def test_integer_inverse_equals_the_gaussian_rational_sweeps(self, case):
        k, rhs = case
        f, eta_s = dense_inverse(_rotation_inverse, k, rhs)
        assert (f, eta_s) == naive_rotation_inverse(k, rhs)
        if k % 2 == 0:
            assert not euclidean_dot(f, radius_power_vector(k))

    def test_integer_inverse_at_every_degree_to_30(self):
        rng = random.Random(11)
        for k in range(3, 31):
            for rhs in ([GR_ZERO] * (k + 1), [
                    gr(Fraction(rng.randint(-2**64, 2**64),
                                rng.randint(1, 2**64)),
                       Fraction(rng.randint(-2**64, 2**64),
                                rng.randint(1, 2**64)))
                    for _ in range(k + 1)]):
                f, eta_s = dense_inverse(_rotation_inverse, k, rhs)
                assert (f, eta_s) == naive_rotation_inverse(k, rhs)
                if k % 2 == 0:
                    assert not euclidean_dot(f, radius_power_vector(k))

    def test_odd_degree_operator_injective(self):
        for k in range(3, 17, 2):
            f, eta_s = dense_inverse(_rotation_inverse, k, [gr(0)] * (k + 1))
            assert f == eta_s == [gr(0)] * (k + 1)

    def test_even_degree_operator_rank_deficit_one(self):
        # kernel and cokernel both along s = (x^2+y^2)^(k/2)
        for k in range(4, 17, 2):
            s = radius_power_vector(k)
            assert rotate(k, s) == [gr(0)] * (k + 1)
            _, eta_s = dense_inverse(_rotation_inverse, k, s)
            assert any(eta_s)

    def test_dense_oracle(self):
        n = 8
        rep = lyapunov_quantities(normalize_rotation(dense_quadratic(n)), n)
        f_coeffs, etas = oracle_lyapunov(dense_quadratic(n), n)
        assert [(k, sp.Rational(eta.re)) for k, eta in rep.obstructions] == \
            sorted(etas.items())
        assert rep.first_integral.real
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
        # the inverse hands back each eta_k (x^2+y^2)^(k/2) as a part,
        # and the Lie derivative accumulates its two products in the
        # series kernel, so no Poly2 product is formed
        n = 24
        norm = normalize_rotation(dense_quadratic(n))
        calls = []
        mul = Poly2.__mul__
        monkeypatch.setattr(Poly2, "__mul__", lambda a, b: (
            calls.append(1) if isinstance(b, Poly2) else None) or mul(a, b))
        rep = lyapunov_quantities(norm, n)
        assert all(eta for _, eta in rep.obstructions)
        assert len(calls) == 0

    @settings(max_examples=60, deadline=None)
    @given(rotational_fields())
    def test_normalization_equals_explicit_inverse(self, field):
        norm = normalize_rotation(field)
        t, scale, normalized = naive_normalize(field)
        assert norm.change_matrix == t
        assert norm.time_rescale == scale
        assert norm.normalized == normalized

    @settings(max_examples=40, deadline=None)
    @given(rotational_fields())
    def test_guard_equals_repeated_products(self, field):
        # the run's own guard passed, so its obstruction series is X(F);
        # X(F) must equal the repeated-product series as well
        n = field.truncation_degree
        norm = normalize_rotation(field)
        rep = lyapunov_quantities(norm, n)
        check = lie_derivative(norm.normalized.lift(n + 1),
                               rep.first_integral.lift(n + 1))
        assert check.truncate(n) == naive_radius_series(rep.obstructions, n)

    def test_inverse_forms_no_gaussian_rational_product(self, monkeypatch):
        # both solves, guards included, run on ints: the inverses hand
        # back eta_k s_k as parts, and GaussianRational is built only to
        # read each coefficient off a series
        from centerfocus.foliation import (complexify,
                                           formal_first_integral_siegel)
        n = 24
        norm = normalize_rotation(dense_quadratic(n))
        form = complexify(norm)
        calls = []

        def counted(name):
            op = getattr(GaussianRational, name)
            return lambda *args: calls.append(name) or op(*args)

        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__neg__"):
            monkeypatch.setattr(GaussianRational, name, counted(name))
        rep = lyapunov_quantities(norm, n)
        _, siegel = formal_first_integral_siegel(form, n)
        assert all(eta for _, eta in rep.obstructions)
        assert any(eta for _, eta in siegel)
        assert calls == []

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


def quadratic_field(a, b, c, n):
    """z' = iz + A z^2 + B z zbar + C zbar^2, z = x + iy, as the real
    field (p, q) = (Re z', Im z'); A, B, C are (re, im) pairs."""
    (a1, a2), (b1, b2), (c1, c2) = a, b, c
    p = {(0, 1): -1, (2, 0): a1 + b1 + c1, (1, 1): 2 * (c2 - a2),
         (0, 2): b1 - a1 - c1}
    q = {(1, 0): 1, (2, 0): a2 + b2 + c2, (1, 1): 2 * (a1 - c1),
         (0, 2): b2 - a2 - c2}
    return VectorField2(Poly2(p, n), Poly2(q, n))


F = Fraction
# Bautin's quadratic center variety: (A, B, C) on one of its components,
# or off all of them with the degree of the first nonzero obstruction
# (4 when Im(AB) != 0, else 6 or 8)
BAUTIN = {
    "B=0": ((F(1, 2), F(1, 3)), (0, 0), (F(-3, 4), F(1, 5)), None),
    "2A+conj(B)=0": ((F(1, 2), F(1, 3)), (-1, F(2, 3)),
                     (F(2, 7), F(-1, 5)), None),
    "A=2conj(B),|C|=|B|": ((F(4, 3), -1), (F(2, 3), F(1, 2)),
                           (F(1, 2), F(2, 3)), None),
    "real": ((F(1, 2), 0), (F(-2, 3), 0), (F(3, 5), 0), None),
    "Im(AB)=22/105": ((F(1, 2), F(1, 3)), (F(1, 5), F(2, 7)),
                      (F(1, 3), F(-1, 4)), 4),
    "Im(AB)=0": ((1, 1), (1, -1), (F(1, 3), F(-1, 4)), 6),
    "A=2conj(B),|C|!=|B|": ((F(4, 3), -1), (F(2, 3), F(1, 2)), (1, 0), 8),
}


# x = u + 2v/3, y = 3v/5: det T = 3/5 > 0 keeps the orientation, so the
# conjugate field has the same verdict, and its linear part is no longer
# the standard rotation
SHEAR = ((F(1), F(2, 3)), (F(0), F(3, 5)))


def conjugated(field, t):
    """T^-1 X(T w), the field in the coordinates w with (x, y) = T w."""
    (a, b), (c, d) = t
    det = a * d - b * c
    p, q = field.p.substitute_linear(t), field.q.substitute_linear(t)
    return VectorField2((p * d - q * b) * (1 / det),
                        (q * a - p * c) * (1 / det))


@pytest.mark.parametrize(
    "a, b, c, focus_degree, t, n",
    [(*case, None, 12) for case in BAUTIN.values()]
    + [(*case, SHEAR, 16) for case in BAUTIN.values()],
    ids=list(BAUTIN) + [f"conjugated:{name}" for name in BAUTIN])
def test_quadratic_center_variety(a, b, c, focus_degree, t, n):
    # the real sweep and the Siegel route on the complexified field find
    # the first nonzero obstruction at the same degree, or none to n,
    # also after a rational change of coordinates
    from centerfocus.foliation import (complexify,
                                       formal_first_integral_siegel)
    field = quadratic_field(a, b, c, n)
    if t is not None:
        field = conjugated(field, t)
        assert not field.standard_rotation
    verdict = certify_center(field, n)
    _, siegel = formal_first_integral_siegel(
        complexify(normalize_rotation(field)), n)
    first = next((d for d, e in siegel if e), None)
    assert (verdict.status, verdict.focus_degree, first) == (
        "CENTER_TO_ORDER_N" if focus_degree is None else "FOCUS",
        focus_degree, focus_degree)


def first_obstruction_degrees(a, b, c, n):
    """Degree of the first nonzero obstruction, or None through n, by the
    real sweep and by the Siegel route on the complexified field."""
    from centerfocus.foliation import (complexify,
                                       formal_first_integral_siegel)
    field = quadratic_field(a, b, c, n)
    _, siegel = formal_first_integral_siegel(
        complexify(normalize_rotation(field)), n)
    return (certify_center(field, n).focus_degree,
            next((d for d, e in siegel if e), None))


bautin_part = st.builds(F, st.integers(-5, 5), st.integers(1, 6))
bautin_pair = st.tuples(bautin_part, bautin_part)


@st.composite
def bautin_coefficients(draw):
    """(A, B, C) with parts p/q; B = t conj(A), so Im(AB) = 0, one time in
    three."""
    a, c = draw(bautin_pair), draw(bautin_pair)
    if draw(st.integers(0, 2)) == 0:
        t = draw(bautin_part)
        return a, (t * a[0], -t * a[1]), c
    return a, draw(bautin_pair), c


@settings(max_examples=300, deadline=None)
@given(bautin_coefficients())
def test_quadratic_first_obstruction_degree(abc):
    # Bautin: the first nonzero obstruction of a quadratic field sits at
    # degree 4, 6 or 8, or every obstruction vanishes; it is at 4 exactly
    # when Im(AB) != 0, and both routes agree
    (a1, a2), (b1, b2), _ = abc
    real, siegel = first_obstruction_degrees(*abc, 16)
    assert real in (4, 6, 8, None)
    assert (real == 4) == (a1 * b2 + a2 * b1 != 0)
    assert siegel == real
