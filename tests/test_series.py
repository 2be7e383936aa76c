import ast
import importlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centerfocus import series
from centerfocus.foliation import wedge_coefficient
from centerfocus.series import (
    GR_ONE,
    GaussianRational,
    OneForm2,
    Poly2,
    SingularMatrix,
    VectorField2,
    gr,
    lie_derivative,
    power_rows,
    substitute,
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

    def test_reality(self):
        # a scalar is real when its imaginary part is zero
        assert gr(2).im == 0 and Poly2.constant(gr(2), 0).real
        assert gr(0, 1).im != 0 and not Poly2.constant(gr(0, 1), 0).real


class TestValueTypes:
    """GaussianRational, VectorField2 and OneForm2 are immutable values:
    equal to an instance of their own class with equal fields, hashed and
    shown by their fields.  Assignment is refused in `test_refusals`."""

    def test_scalar_equality_hash_and_repr(self):
        a, b = gr(Fraction(2, 4), -3), GaussianRational(Fraction(1, 2),
                                                         Fraction(-3))
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash((Fraction(1, 2), Fraction(-3)))
        assert a != gr(Fraction(1, 2), 3) and len({a, b, gr(0)}) == 2
        assert GaussianRational() == gr(0)
        # an int, a Fraction or a tuple of the parts is not a scalar
        # (`parts_of` tells a Gaussian tuple apart by its type)
        assert [gr(1) == 1, 1 == gr(1), gr(1) == Fraction(1),
                gr(1) == (Fraction(1), Fraction(0))] == [False] * 4
        assert not isinstance(a, tuple)
        assert repr(a) == \
            "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"

    def test_field_and_form_equality_and_repr(self):
        x, y = Poly2.var_x(2), Poly2.var_y(2)
        assert VectorField2(x, y) == VectorField2(x, y)
        assert VectorField2(x, y) != VectorField2(y, x)
        assert VectorField2(x, y) != OneForm2(x, y)  # equal fields
        assert repr(OneForm2(x, y)) == \
            "OneForm2(a=Poly2[(1)x; N=2], b=Poly2[(1)y; N=2])"
        with pytest.raises(TypeError):  # a Poly2 has no hash
            hash(VectorField2(x, y))

    def test_copies_are_equal(self):
        import copy
        import pickle
        a = gr(Fraction(1, 3), 2)
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
        fld = VectorField2(Poly2.var_y(2), Poly2.var_x(2))
        assert copy.copy(fld) == fld


class TestPoly2Basics:
    def test_zero_terms_dropped(self):
        p = poly({(1, 0): 0, (0, 1): 1}, 3)
        assert (1, 0) not in p.terms
        assert p.coefficient(0, 1) == gr(1)

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            poly({(3, 2): 1}, 4)

    def test_reality_read_off_the_coefficients(self):
        iy = Poly2({(0, 1): gr(0, 1)}, 2)
        assert not iy.real and (iy * iy).real
        assert VectorField2(-Poly2.var_y(2), Poly2.var_x(2)).real
        assert not OneForm2(Poly2.var_x(2), iy).real

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
        assert (x + y) * (x - y) == x * x - y * y

    def test_geometric_series_inverse(self):
        n = 5
        one_plus = poly({(0, 0): 1, (1, 0): 1}, n)
        geo = poly({(k, 0): (-1) ** k for k in range(n + 1)}, n)
        assert one_plus * geo == Poly2.constant(1, n)

    def test_radius_squared_expansion(self):
        # hand expansion oracle: (x^2+y^2)^2 = x^4 + 2 x^2 y^2 + y^4
        n = 6
        r2 = poly({(2, 0): 1, (0, 2): 1}, n)
        expected = poly({(4, 0): 1, (2, 2): 2, (0, 4): 1}, n)
        assert r2 * r2 == expected

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
        assert f.substitute_linear(((1, 0), (0, 1))) == f

    def test_swap(self):
        n = 5
        f = Poly2.var_x(n)
        assert f.substitute_linear(((0, 1), (1, 0))) == Poly2.var_y(n)

    def test_radius_to_product_coordinates(self):
        # hand oracle: (x+y)^2 + (ix-iy)^2 = 4xy
        n = 5
        f = poly({(2, 0): 1, (0, 2): 1}, n)
        m = ((gr(1), gr(1)), (gr(0, 1), gr(0, -1)))
        assert f.substitute_linear(m) == Poly2({(1, 1): gr(4)}, n)

    def test_singular_matrix_rejected(self):
        f = Poly2.var_x(4)
        with pytest.raises(SingularMatrix):
            f.substitute_linear(((1, 1), (2, 2)))

    def test_ring_morphism_on_random_inputs(self):
        rng = random.Random(7)
        m = ((2, 1), (1, 1))
        for _ in range(20):
            f = random_poly(rng, 6)
            g = random_poly(rng, 6)
            assert (f * g).substitute_linear(m) == \
                f.substitute_linear(m) * g.substitute_linear(m)


class TestEvaluate:
    def test_radius(self):
        f = Poly2({(2, 0): 1, (0, 2): 1}, 4)
        assert f.evaluate((3, 4)) == 25

    def test_product_at_imaginary_pair(self):
        f = Poly2({(1, 1): 1}, 4)
        assert f.evaluate((1j, -1j)) == 1

    def test_point_on_cusp_curve(self):
        f = Poly2({(2, 0): 1, (0, 3): -1}, 4)
        assert f.evaluate((1, 1)) == 0

    def test_multiplicative_within_rounding(self):
        # degree <= 6 factors at N = 12 keep the full product below the
        # truncation, so only the final binary64 rounding remains
        rng = random.Random(11)
        for _ in range(10):
            u = random_poly(rng, 6).lift(12)
            v = random_poly(rng, 6).lift(12)
            p = (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
            lhs = (u * v).evaluate(p)
            rhs = u.evaluate(p) * v.evaluate(p)
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

    def test_dual_form_annihilates_field(self):
        n = 6
        x, y = Poly2.var_x(n), Poly2.var_y(n)
        field = VectorField2(-y + x * x, x + y * y)
        w = field.dual_form()
        assert (w.a * field.p + w.b * field.q).is_zero()


def comprehension(p: Poly2, x, y, coefficient):
    """The binary64 evaluation the program wrote out before
    `Poly2.binary64`: coefficients rounded by `coefficient`, then
    sum(c * x**i * y**j) over the sorted terms."""
    terms = [(i, j, coefficient(c)) for (i, j), c in sorted(p.terms.items())]
    return sum(c * x**i * y**j for i, j, c in terms)


def bits(v):
    """v's type, value and the sign of each zero: bit-for-bit identity."""
    z = complex(v)
    return (type(v), z.real, math.copysign(1, z.real),
            z.imag, math.copysign(1, z.imag))


@st.composite
def series_(draw, imaginary):
    n = draw(st.integers(0, 8))
    part = st.fractions(min_value=-50, max_value=50, max_denominator=97)
    coeff = st.builds(GaussianRational, part,
                      part if imaginary else st.just(Fraction(0)))
    exponents = st.tuples(st.integers(0, n), st.integers(0, n)).filter(
        lambda e: sum(e) <= n)
    return Poly2(draw(st.dictionaries(exponents, coeff, max_size=10)), n)


coordinates = st.floats(-2, 2) | st.sampled_from([0.0, -0.0])
complex_points = st.complex_numbers(max_magnitude=2) | st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])


class TestBinary64:
    """`Poly2.binary64` equals the comprehensions it replaced exactly."""

    @settings(max_examples=200, deadline=None)
    @given(series_(imaginary=False), coordinates, coordinates, st.booleans())
    def test_real_series_at_real_points(self, p, x, y, numpy_scalars):
        # the right-hand side of `flow`: float coefficients; solve_ivp
        # hands in numpy scalars
        if numpy_scalars:
            x, y = np.float64(x), np.float64(y)
        expected = comprehension(p, x, y, lambda c: c.to_complex().real)
        assert bits(p.binary64()(x, y)) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(series_(imaginary=False) | series_(imaginary=True), complex_points,
           complex_points)
    def test_any_series_at_complex_points(self, p, x, y):
        # the slice and contact evaluations of `foliation`: float
        # coefficients of a real series promote to complex(c, 0.0)
        expected = comprehension(p, x, y, GaussianRational.to_complex)
        assert bits(p.binary64()(x, y)) == bits(expected)

    def test_value_type_follows_the_series(self):
        assert type(Poly2.var_x(2).binary64()(0.5, 0.0)) is float
        ix = Poly2.monomial(1, 0, gr(0, 1), 2)
        assert type(ix.binary64()(0.5, 0.0)) is complex


def repeated_umul(terms, s, n):
    """sum c z^i s^j with each term built by its own j products."""
    out = {}
    for i, j, c in terms:
        term = {i: c} if i <= n else {}
        for _ in range(j):
            term = naive_umul(term, s, n)
        for d, v in term.items():
            out[d] = out.get(d, gr(0)) + v
    return {d: v for d, v in out.items() if v}


def bivariate(terms):
    """The series sum c x^i y^j of the terms (i, j, c), repeated exponents
    summed, at the least truncation that holds them."""
    acc = {}
    for i, j, c in terms:
        acc[i, j] = acc.get((i, j), gr(0)) + c
    return Poly2(acc, max((i + j for i, j in acc), default=0))


def in_x(s, n):
    """{degree: coefficient} as a series in x truncated at n."""
    return Poly2({(k, 0): c for k, c in s.items()}, n)


def unscaled_row(row):
    """A scaled power row {degree: coefficient}, each in lowest terms."""
    den, items = row
    return {k: series._unscaled(den, x, y) for k, x, y in items}


@st.composite
def univariate(draw, n):
    """s = s_1 z + ... + s_n z^n with a few nonzero coefficients."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeff = st.builds(GaussianRational, part, part).filter(bool)
    return draw(st.dictionaries(st.integers(1, n), coeff, max_size=5))


class TestSubstitute:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), univariate(n),
        st.lists(st.tuples(st.integers(0, n), st.integers(0, 6),
                           st.builds(GaussianRational, st.integers(-3, 3))),
                 min_size=1, max_size=6))))
    def test_equals_repeated_umul(self, case):
        n, s, terms = case
        f, expected = bivariate(terms), in_x(repeated_umul(terms, s, n), n)
        powers = power_rows(in_x(s, n))
        assert substitute(f, powers, n) == expected
        # the list now holds s^0 .. s^top as primitive Gaussian-integer
        # rows, each over its own denominator, and a second call reuses it
        top = max((j for _, j in f.terms), default=0)
        assert len(powers) == max(top + 1, 2)
        assert [unscaled_row(row) for row in powers] == \
            [repeated_umul([(0, j, GR_ONE)], s, n) for j in range(len(powers))]
        assert all(math.gcd(den, *(v for _, x, y in items for v in (x, y)))
                   == 1 for den, items in powers)
        assert substitute(f, powers, n) == expected
        assert len(powers) == max(top + 1, 2)


# -- the integer kernels against naive GaussianRational references ----------
#
# Each reference is the loop the kernel replaced: one GaussianRational
# `+` and `*` per term pair.  Results must be equal, not close.

ZERO = GaussianRational()


def naive_poly_mul(a, b):
    n = min(a.truncation_degree, b.truncation_degree)
    acc = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            if i1 + j1 + i2 + j2 <= n:
                key = (i1 + i2, j1 + j2)
                acc[key] = acc.get(key, ZERO) + c1 * c2
    return Poly2(acc, n)


def naive_umul(a, b, n):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if ka + kb <= n:
                out[ka + kb] = out.get(ka + kb, ZERO) + ca * cb
    return {k: v for k, v in out.items() if v}


def naive_product_sum(pairs, n):
    out = {}
    for a, b in pairs:
        for r, ca in enumerate(a):
            for s, cb in enumerate(b):
                if r + s <= n:
                    out[r + s] = out.get(r + s, ZERO) + ca * cb
    return {k: v for k, v in out.items() if v}


def naive_substitute(terms, s, n):
    out = {}
    for i, j, c in terms:
        term = {i: c} if i <= n else {}
        for _ in range(j):
            term = naive_umul(term, s, n)
        for d, v in term.items():
            out[d] = out.get(d, ZERO) + v
    return {d: v for d, v in out.items() if v}


def naive_substitution_root(terms, shift, n):
    top = max(j for _, j, _ in terms)
    s = [ZERO] * (n + 1)
    powers = [[GR_ONE] + [ZERO] * n, s]
    powers += [[ZERO] * (n + 1) for _ in range(top - 1)]
    lead = sum((c for i, j, c in terms if (i, j) == (shift, 1)), ZERO)
    for d in range(1, n + 1):
        for j in range(2, top + 1):
            powers[j][d] = sum((s[e] * powers[j - 1][d - e]
                                for e in range(1, d)), ZERO)
        if d > 2 * shift:
            residual = sum((c * powers[j][d - i] for i, j, c in terms
                            if i <= d), ZERO)
            s[d - shift] = -residual / lead
    return {k: c for k, c in enumerate(s) if c}


def naive_substitute_linear(f, m):
    """Term by term: each c l1^i l2^j is its own product, then added."""
    n = f.truncation_degree
    # each product truncates at n; a linear form needs degree 1
    l1 = Poly2({(1, 0): m[0][0], (0, 1): m[0][1]}, max(n, 1))
    l2 = Poly2({(1, 0): m[1][0], (0, 1): m[1][1]}, max(n, 1))
    out = Poly2.zero(n)
    for (i, j), c in f.terms.items():
        term = Poly2.constant(c, n)
        for factor in [l1] * i + [l2] * j:
            term = naive_poly_mul(term, factor)
        out = out + term
    return out


def naive_swapped(p):
    """x and y exchanged as the linear substitution (x, y) -> (y, x)."""
    return p.substitute_linear(((0, 1), (1, 0)))


def naive_lie_derivative(field, f):
    return (naive_poly_mul(field.p, f.diff_x())
            + naive_poly_mul(field.q, f.diff_y()))


def naive_wedge(f, form):
    return (naive_poly_mul(f.diff_x(), form.b)
            - naive_poly_mul(f.diff_y(), form.a))


def is_primitive(den, row):
    """A stored part: den > 0, gcd 1 with the entries, no zero entry,
    entries in increasing r."""
    return (den > 0 and all(x or y for _, x, y in row)
            and math.gcd(den, *(v for _, x, y in row for v in (x, y))) == 1
            and [r for r, _, _ in row] == sorted({r for r, _, _ in row}))


def full_gcd_primitive(den, row):
    """`series._primitive` as one gcd over den and every entry."""
    g = math.gcd(den, *(v for _, x, y in row for v in (x, y)))
    return (den, row) if g == 1 else \
        (den // g, [(r, x // g, y // g) for r, x, y in row])


def in_lowest_terms(c):
    return all(math.gcd(f.numerator, f.denominator) == 1 and f.denominator > 0
               for f in (c.re, c.im))


# zero, real, purely imaginary and mixed coefficients, over denominators
# that are pairwise coprime (the primes) or share factors (4, 6, 9, 35)
part = st.builds(Fraction, st.integers(-9, 9),
                 st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 35]))
gaussian = st.one_of(
    st.just(ZERO),
    st.builds(GaussianRational, part),
    st.builds(GaussianRational, st.just(Fraction(0)), part),
    st.builds(GaussianRational, part, part))


def series_at(n):
    """Possibly empty series truncated at n."""
    exponents = st.tuples(st.integers(0, n), st.integers(0, n)).filter(
        lambda e: sum(e) <= n)
    return st.dictionaries(exponents, gaussian, max_size=12).map(
        lambda terms: Poly2(terms, n))


@st.composite
def poly2s(draw, n_max=7):
    """Possibly empty series, truncated anywhere in 0..n_max, so that a
    product with a lower truncation drops this one's higher terms."""
    return draw(series_at(draw(st.integers(0, n_max))))


@st.composite
def component_pairs(draw, n_max=7):
    """Two series at one truncation: the components of a field or form."""
    n = draw(st.integers(0, n_max))
    return draw(series_at(n)), draw(series_at(n))


nonsingular = st.tuples(gaussian, gaussian, gaussian, gaussian).filter(
    lambda m: m[0] * m[3] - m[1] * m[2]).map(
    lambda m: ((m[0], m[1]), (m[2], m[3])))


def useries(top):
    """{degree: coefficient} with zero coefficients allowed."""
    return st.dictionaries(st.integers(0, top), gaussian, max_size=8)


# s_k over coprime prime denominators, so that the running denominator of
# `substitution_root` grows at several degrees
prime_part = st.builds(Fraction, st.integers(-9, 9),
                       st.sampled_from([1, 2, 3, 5, 7, 11, 13]))
prime_gaussian = st.builds(GaussianRational, prime_part, prime_part)


@st.composite
def root_problems(draw):
    """(terms, shift, n, s): sum c z^i s^j = 0 through degree n holds for
    the drawn s, whose first degree is shift + 1; the j = 0 terms are
    computed from s, the others drawn within `substitution_root`'s
    precondition (z^shift s is the only term linear in s at its degree)."""
    shift = draw(st.integers(0, 1))
    n = draw(st.integers(shift + 1, 14))
    s = draw(st.dictionaries(st.integers(shift + 1, n),
                             st.one_of(gaussian, prime_gaussian), max_size=8))
    s = {k: c for k, c in s.items() if c}
    lead = draw(gaussian.filter(bool))
    others = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6),
                                     gaussian), max_size=5))
    terms = [(shift, 1, lead)] + [(i, j, c) for i, j, c in others
                                  if i + (j - 1) * (shift + 1) > shift]
    rest = naive_substitute(terms, s, n)
    terms += [(i, 0, -c) for i, c in rest.items()]
    return terms, shift, n, {k: c for k, c in s.items() if k <= n - shift}


class TestIntegerKernels:
    """Each kernel that multiply-accumulates Gaussian integers over a
    shared denominator equals the GaussianRational loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(poly2s(), poly2s())
    def test_poly_product(self, a, b):
        out = a * b
        assert out == naive_poly_mul(a, b)
        assert all(c and in_lowest_terms(c) for c in out.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(useries(12), useries(12), st.integers(0, 10))
    def test_row_product(self, a, b, n):
        # the unreduced product that extends a power list: Gaussian
        # integers over the product of the two denominators
        sa, sb = series._scaled(a.items()), series._scaled(b.items())
        den, row = series._accumulate([(sa, sb)], n)
        assert den == sa[0] * sb[0]
        assert unscaled_row((den, row)) == naive_umul(a, b, n)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.lists(gaussian, max_size=6),
                              st.lists(gaussian, max_size=6)), max_size=4),
           st.integers(0, 10))
    def test_product_sum(self, pairs, n):
        # one multiply-accumulate, then one reduction to primitive form
        scaled = [(series._scaled(enumerate(a)), series._scaled(enumerate(b)))
                  for a, b in pairs]
        den, row = series._primitive(*series._accumulate(scaled, n))
        assert unscaled_row((den, row)) == naive_product_sum(pairs, n)
        assert is_primitive(den, row)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10 ** 6), st.sampled_from([1, 2, 6, 35, 2 ** 70]),
           st.lists(st.tuples(st.integers(-10 ** 30, 10 ** 30),
                              st.integers(-99, 99)), max_size=8))
    def test_primitive_matches_full_gcd(self, den, scale, entries):
        # the gcd taken entry by entry, stopping at 1, divides by what one
        # gcd over den and every entry divided by
        row = [(r, x * scale, y * scale) for r, (x, y) in enumerate(entries)]
        assert series._primitive(den * scale, row) == \
            full_gcd_primitive(den * scale, row)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.just(n), useries(n + 2),
        st.lists(st.tuples(st.integers(0, n + 2), st.integers(0, 5), gaussian),
                 max_size=6))))
    def test_substitute(self, case):
        n, s, terms = case
        out = substitute(bivariate(terms), power_rows(in_x(s, n + 2)), n)
        assert out == in_x(naive_substitute(terms, s, n), n)
        assert all(is_primitive(*p) for p in out.parts.values())

    @settings(max_examples=100, deadline=None)
    @given(root_problems())
    def test_substitution_root(self, problem):
        terms, shift, n, s = problem
        out = series.substitution_root(bivariate(terms), shift, n)
        assert out == in_x(naive_substitution_root(terms, shift, n),
                           n - shift) == in_x(s, n - shift)
        assert all(is_primitive(*p) for p in out.parts.values())

    @settings(max_examples=150, deadline=None)
    @given(poly2s())
    @example(Poly2({(0, 0): 1, (2, 1): gr(1, 2), (0, 3): gr(0, -3)}, 3))
    def test_swapped(self, p):
        out = p.swapped()
        assert out == naive_swapped(p)
        assert all(is_primitive(*part) for part in out.parts.values())
        assert out.swapped() == p

    @settings(max_examples=150, deadline=None)
    @given(poly2s())
    def test_partials_scale_each_part_by_the_exponent(self, p):
        # the GaussianRational product by the int exponent, as before
        n = max(p.truncation_degree - 1, 0)
        kept = [(i, j, c) for (i, j), c in p.terms.items() if i + j - 1 <= n]
        assert p.diff_x() == Poly2(
            {(i - 1, j): c * i for i, j, c in kept if i}, n)
        assert p.diff_y() == Poly2(
            {(i, j - 1): c * j for i, j, c in kept if j}, n)

    @settings(max_examples=150, deadline=None)
    @given(poly2s(), nonsingular)
    @example(Poly2({}, 3), ((1, 0), (0, 1)))
    @example(Poly2.constant(3, 0), ((gr(1), gr(2)), (gr(0, 1), gr(1))))
    @example(Poly2({(2, 1): gr(0, Fraction(1, 3))}, 4), ((gr(1), gr(1)),
                                                        (gr(0, 1), gr(0, -1))))
    def test_substitute_linear(self, f, m):
        out = f.substitute_linear(m)
        assert out == naive_substitute_linear(f, m)
        assert all(c and in_lowest_terms(c) for c in out.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(component_pairs(), poly2s())
    @example((Poly2({}, 2), Poly2({}, 2)), Poly2({(1, 1): 1}, 3))
    @example((Poly2({(0, 1): -1}, 3), Poly2({(1, 0): 1}, 3)),
             Poly2({(2, 0): gr(1, 2)}, 3))
    def test_lie_derivative(self, pq, f):
        out = lie_derivative(VectorField2(*pq), f)
        assert out == naive_lie_derivative(VectorField2(*pq), f)
        assert all(c and in_lowest_terms(c) for c in out.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(component_pairs(), poly2s())
    @example((Poly2({}, 2), Poly2({}, 2)), Poly2({(1, 1): 1}, 3))
    @example((Poly2({(0, 1): 1}, 3), Poly2({(1, 0): 1}, 3)),
             Poly2({(1, 2): gr(0, -1)}, 5))
    def test_wedge(self, ab, f):
        out = wedge_coefficient(f, OneForm2(*ab))
        assert out == naive_wedge(f, OneForm2(*ab))
        assert all(c and in_lowest_terms(c) for c in out.terms.values())

    def test_cancellation_leaves_no_zero_coefficient(self):
        # (1/6 + i/10)(3 + 5i) = 17i/15: the real parts cancel over the
        # shared denominator 30, and 34/30 comes back as 17/15
        a, b = gr(Fraction(1, 6), Fraction(1, 10)), gr(3, 5)
        assert substitute(bivariate([(0, 1, a)]), power_rows(in_x({0: b}, 0)),
                          0) == in_x({0: gr(0, Fraction(17, 15))}, 0)
        # (z + z^2)(z - z^2) = z^2 - z^4: degree 3 sums to exactly 0
        assert substitute(bivariate([(1, 1, a), (2, 1, a)]),
                          power_rows(in_x({1: a, 2: -a}, 2)), 6) == \
            in_x({2: a * a, 4: -a * a}, 6)
        x, y = Poly2.var_x(4), Poly2.var_y(4)
        prod = (x * a + y) * (x * a - y)
        assert prod.terms == {(2, 0): a * a, (0, 2): gr(-1)}
        # a x y - a x^2 + b at y = x: the x^2 terms of j = 1 and j = 0
        assert substitute(bivariate([(1, 1, a), (2, 0, -a), (0, 0, b)]),
                          power_rows(in_x({1: 1}, 1)), 3) == in_x({0: b}, 3)
        assert substitute(bivariate([(0, 1, a), (0, 0, -a * b)]),
                          power_rows(in_x({0: b}, 0)), 3).is_zero()
        parts = [[gr(1), gr(0, 1)], [gr(Fraction(1, 4)), gr(0, Fraction(1, 6))]]
        scaled = [series._scaled(enumerate(h)) for h in parts]
        out = unscaled_row(series._accumulate([(scaled[0], scaled[0]),
                                               (scaled[1], scaled[1])], 2))
        # (1 + i y)^2 + (1/4 + i y/6)^2: the y^2 terms -1 and -1/36 stay,
        # the y terms 2i and i/12 add, the constants 1 and 1/16 add
        assert out == {0: gr(Fraction(17, 16)), 1: gr(0, Fraction(25, 12)),
                       2: gr(Fraction(-37, 36))}

    def test_scaled_round_trip(self):
        coeffs = [gr(Fraction(1, 6), Fraction(-1, 10)), ZERO, gr(0, 2),
                  gr(Fraction(3, 7))]
        d, items = series._scaled(enumerate(coeffs))
        assert d == 210 and [k for k, _, _ in items] == [0, 2, 3]
        assert [series._unscaled(d, x, y) for _, x, y in items] == \
            [c for c in coeffs if c]
        assert series._scaled([]) == (1, [])


# -- the stored homogeneous parts ---------------------------------------
#
# A Poly2 keeps each homogeneous part as Gaussian integers over one
# denominator.  Every operation must give the series the naive
# GaussianRational loop gives, with every part in its primitive form.

def naive_add(a, b):
    n = min(a.truncation_degree, b.truncation_degree)
    acc = {e: c for e, c in a.terms.items() if sum(e) <= n}
    for e, c in b.terms.items():
        if sum(e) <= n:
            acc[e] = acc.get(e, ZERO) + c
    return Poly2(acc, n)


def naive_scale(a, c):
    return Poly2({e: v * c for e, v in a.terms.items()}, a.truncation_degree)


def naive_truncate(a, degree):
    if degree >= a.truncation_degree:
        return a
    return Poly2({e: c for e, c in a.terms.items() if sum(e) <= degree},
                 degree)


def stored_primitive(p):
    """Every part of p sits at a degree within its truncation and is
    primitive, so that `==` on the parts is equality of series."""
    return all(0 <= d <= p.truncation_degree and row and is_primitive(den, row)
               for d, (den, row) in p.parts.items())


# binary64 corner cases: denominators above 2^1000 with normal quotients,
# and quotients below 2^-1022 (subnormal, or rounding to zero)
huge_part = st.builds(Fraction, st.integers(-2**1100, 2**1100),
                      st.integers(2**1000, 2**1100))
tiny_part = st.builds(Fraction, st.integers(-2**80, 2**80),
                      st.integers(2**1020, 2**1160))
extreme = st.builds(GaussianRational, huge_part | tiny_part | part,
                    huge_part | tiny_part | part)


class TestStoredParts:
    @settings(max_examples=150, deadline=None)
    @given(poly2s())
    def test_terms_round_trip(self, p):
        assert Poly2(p.terms, p.truncation_degree) == p
        assert stored_primitive(p)
        assert all(p.coefficient(i, j) == c for (i, j), c in p.terms.items())

    @settings(max_examples=150, deadline=None)
    @given(poly2s(), poly2s(), gaussian)
    def test_sums_negation_and_scalar_multiples(self, a, b, c):
        neg_b = Poly2({e: -v for e, v in b.terms.items()}, b.truncation_degree)
        for got, want in ((a + b, naive_add(a, b)), (-b, neg_b),
                          (a - b, naive_add(a, neg_b)),
                          (a * c, naive_scale(a, c)), (c * a, naive_scale(a, c)),
                          (a + c, naive_add(a, Poly2.constant(c, 0).lift(
                              a.truncation_degree)))):
            assert got == want and stored_primitive(got)

    @settings(max_examples=150, deadline=None)
    @given(poly2s(), poly2s(), st.integers(0, 9))
    def test_products_partials_truncate_and_lift(self, a, b, k):
        n = a.truncation_degree
        for got, want in ((a * b, naive_poly_mul(a, b)),
                          (a.truncate(k), naive_truncate(a, k)),
                          (a.lift(n + k), Poly2(a.terms, n + k)),
                          (a.diff_x(), Poly2(
                              {(i - 1, j): c * i for (i, j), c in a.terms.items()
                               if i}, max(n - 1, 0))),
                          (a.diff_y(), Poly2(
                              {(i, j - 1): c * j for (i, j), c in a.terms.items()
                               if j}, max(n - 1, 0)))):
            assert got == want and stored_primitive(got)

    @settings(max_examples=100, deadline=None)
    @given(poly2s(), nonsingular, component_pairs(), poly2s())
    def test_substitution_lie_derivative_and_wedge(self, f, m, pq, g):
        field, form = VectorField2(*pq), OneForm2(*pq)
        for got, want in ((f.substitute_linear(m),
                           naive_substitute_linear(f, m)),
                          (lie_derivative(field, g),
                           naive_lie_derivative(field, g)),
                          (wedge_coefficient(g, form), naive_wedge(g, form))):
            assert got == want and stored_primitive(got)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(0, 4), extreme, min_size=1,
                           max_size=5), st.booleans())
    def test_binary64_rounds_like_float_of_fraction(self, coeffs, real):
        # one part of degree 4, over the lcm of all its denominators
        p = Poly2({(4 - r, r): GaussianRational(c.re, 0 if real else c.im)
                   for r, c in coeffs.items()}, 4)
        ev = p.binary64()
        for r in (0, 4):  # (1, 0) and (0, 1) isolate x^4 and y^4
            c = p.coefficient(4 - r, r)
            got = ev(1.0, 0.0) if r == 0 else ev(0.0, 1.0)
            assert got == (float(c.re) if p.real
                           else complex(float(c.re), float(c.im)))
        rounding = (lambda c: float(c.re)) if p.real else \
            GaussianRational.to_complex
        for x, y in ((1.0, 1.0), (0.5, -0.75), (1j, 0.25 - 2j)):
            assert bits(ev(x, y)) == bits(comprehension(p, x, y, rounding))

    def test_kernels_build_no_gaussian_rational(self, monkeypatch):
        # lie_derivative, products and linear substitutions run on the
        # stored integers from end to end
        rng = random.Random(5)
        n = 10

        def dense(seed_im):
            return Poly2({(i, d - i): gr(Fraction(rng.randint(-9, 9),
                                                  rng.randint(1, 12)),
                                         Fraction(rng.randint(-9, 9), 7)
                                         if seed_im else 0)
                          for d in range(n + 1) for i in range(d + 1)}, n)

        field, f, g = VectorField2(dense(True), dense(False)), dense(True), \
            dense(False)
        m = ((gr(1), gr(Fraction(1, 2), 3)), (gr(0, -1), gr(Fraction(2, 3))))
        built = []
        init = GaussianRational.__init__
        monkeypatch.setattr(GaussianRational, "__init__", lambda self, *a: (
            built.append(1), init(self, *a))[1])
        for run in (lambda: lie_derivative(field, f), lambda: f * g,
                    lambda: f.substitute_linear(m)):
            built.clear()
            run()
            assert built == []
        f.coefficient(1, 1)
        assert built == [1]


def test_series_imports_only_the_standard_library():
    """`series` stays importable without numpy, scipy or sympy."""
    tree = ast.parse(Path(series.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert imported and all(name.split(".")[0] in sys.stdlib_module_names
                            for name in imported)


def test_every_public_name_resolves():
    """Each name a `centerfocus` module lists in `__all__` exists, so a
    stale entry fails here and not only under `import *`."""
    package = Path(series.__file__).parent
    missing = {}
    for path in sorted(package.glob("*.py")):
        name = "centerfocus" + ("" if path.stem == "__init__"
                                else f".{path.stem}")
        module = importlib.import_module(name)
        missing[name] = [entry for entry in getattr(module, "__all__", ())
                         if not hasattr(module, entry)]
    assert len(missing) > 1
    assert not any(missing.values()), missing


def _imports_at_load(tree):
    """Modules a file imports when it is loaded: every import outside a
    function body, including those under `if`, `try` or a class."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_numpy_scipy_or_sympy_at_load():
    """numpy, scipy and sympy are imported inside the functions that use
    them, so importing `centerfocus` loads none of them."""
    heavy = {"numpy", "scipy", "sympy"}
    package = Path(series.__file__).parent
    found = {path.name: sorted(name for name in
                               _imports_at_load(ast.parse(path.read_text()))
                               if name.split(".")[0] in heavy)
             for path in sorted(package.glob("*.py"))}
    assert len(found) > 1
    assert not any(found.values()), found


# Each refusal of `series`: the call, the exception type and its message
REFUSALS = {
    "divide-by-zero": (lambda: gr(1, 2) / gr(0), ZeroDivisionError,
                       "division by zero Gaussian rational"),
    "negative-truncation": (lambda: Poly2({}, -1), ValueError,
                            "truncation degree must be nonnegative"),
    "negative-exponent": (lambda: Poly2({(-1, 2): 1}, 3), ValueError,
                          "negative exponent (-1, 2)"),
    "negative-power": (lambda: Poly2.var_x(3) ** -1, ValueError,
                       "only nonnegative integer powers"),
    "form-truncation-mismatch": (
        lambda: OneForm2(Poly2.var_x(3), Poly2.var_y(4)), ValueError,
        "components must share a truncation degree"),
    "assignment": (lambda: setattr(Poly2.var_x(3), "parts", {}),
                   AttributeError, "Poly2 is immutable"),
    "field-truncation-mismatch": (
        lambda: VectorField2(Poly2.var_y(4), Poly2.var_x(3)), ValueError,
        "components must share a truncation degree"),
    "scalar-assignment": (lambda: setattr(gr(1), "re", Fraction(2)),
                          AttributeError, "cannot assign to field 're'"),
    "scalar-deletion": (lambda: delattr(gr(1), "im"),
                        AttributeError, "cannot delete field 'im'"),
    "scalar-new-attribute": (lambda: setattr(gr(1), "den", 1),
                             AttributeError, "cannot assign to field 'den'"),
    "field-assignment": (
        lambda: setattr(VectorField2(Poly2.var_y(3), Poly2.var_x(3)), "p",
                        Poly2.zero(3)),
        AttributeError, "cannot assign to field 'p'"),
    "form-assignment": (
        lambda: setattr(OneForm2(Poly2.var_y(3), Poly2.var_x(3)), "b",
                        Poly2.zero(3)),
        AttributeError, "cannot assign to field 'b'"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusals(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
