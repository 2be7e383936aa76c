import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerfocus import germ
from centerfocus.germ import (
    Germ1,
    InconclusiveOrder,
    compose,
    finite_order,
    invert,
    power,
    pseudo_orbit,
)
from centerfocus.series import GaussianRational, gr, umul


def random_germ(rng: random.Random, n: int, multiplier=1) -> Germ1:
    coeffs = {1: multiplier}
    for k in range(2, n + 1):
        if rng.random() < 0.6:
            coeffs[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Germ1(coeffs, n)


def horner_compose(f: Germ1, g: Germ1) -> Germ1:
    """Reference f(g(z)) = g*(f_1 + g*(f_2 + ...)), one product per degree."""
    n = min(f.truncation_degree, g.truncation_degree)
    acc = {}
    for m in range(n, 0, -1):
        c = f.coefficient(m)
        if c:
            acc[0] = acc.get(0, gr(0)) + c
        acc = umul(acc, g.coeffs, n)
    return Germ1(acc, n)


@st.composite
def qi_germs(draw, max_n=24):
    """Germs over Q(i) with small random coefficients, N <= max_n."""
    n = draw(st.integers(2, max_n))
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = st.builds(GaussianRational, parts, parts)
    lam = draw(coeff.filter(bool))
    degrees = draw(st.lists(st.integers(2, n), max_size=4, unique=True))
    return Germ1({1: lam, **{k: draw(coeff) for k in degrees}}, n)


def count_compose(monkeypatch) -> list:
    calls = []
    compose_ = germ.compose
    monkeypatch.setattr(germ, "compose",
                        lambda *args: calls.append(1) or compose_(*args))
    return calls


class TestGermBasics:
    def test_multiplier_required(self):
        with pytest.raises(ValueError):
            Germ1({2: 1}, 4)

    def test_no_constant_term(self):
        with pytest.raises(ValueError):
            Germ1({0: 1, 1: 1}, 4)

    def test_evaluate_matches_polynomial(self):
        f = Germ1({1: 2, 3: Fraction(1, 2)}, 4)
        z = 0.1 + 0.05j
        assert abs(f.evaluate(z) - (2 * z + 0.5 * z**3)) < 1e-15


class TestCompose:
    def test_identity_laws(self):
        n = 6
        ident = Germ1.identity(n)
        g = Germ1({1: 1, 2: 1, 4: -2}, n)
        assert compose(ident, g) == g
        assert compose(g, ident) == g

    def test_quadratic_selfcomposition(self):
        # hand oracle: (z+z^2) + (z+z^2)^2 = z + 2z^2 + 2z^3 + z^4
        f = Germ1({1: 1, 2: 1}, 4)
        assert compose(f, f) == Germ1({1: 1, 2: 2, 3: 2, 4: 1}, 4)

    def test_rotation_composition(self):
        f = Germ1({1: gr(0, 1)}, 4)
        assert compose(f, f) == Germ1({1: -1}, 4)
        assert power(f, 2) == compose(f, f)
        assert power(f, 1) == f

    def test_multiplier_multiplies(self):
        f = Germ1({1: 2, 2: 1}, 5)
        g = Germ1({1: 3, 3: 1}, 5)
        assert compose(f, g).multiplier == gr(6)

    def test_associative_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(15):
            f = random_germ(rng, 8)
            g = random_germ(rng, 8)
            h = random_germ(rng, 8)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @settings(max_examples=40, deadline=None)
    @given(qi_germs(16), qi_germs(16))
    def test_matches_horner_reference(self, f, g):
        assert compose(f, g) == horner_compose(f, g)


class TestInvert:
    def test_linear(self):
        f = Germ1({1: 2}, 3)
        assert invert(f) == Germ1({1: Fraction(1, 2)}, 3)

    def test_quadratic_inverse_series(self):
        # Lagrange-inversion oracle for z + z^2, frozen at N = 4
        f = Germ1({1: 1, 2: 1}, 4)
        assert invert(f) == Germ1({1: 1, 2: -1, 3: 2, 4: -5}, 4)

    def test_round_trip(self):
        f = Germ1({1: gr(0, 1), 3: 1}, 8)
        assert compose(f, invert(f)).is_identity()
        assert compose(invert(f), f).is_identity()

    def test_two_sided_on_random_inputs(self):
        rng = random.Random(29)
        for _ in range(10):
            f = random_germ(rng, 8, multiplier=Fraction(rng.choice([1, -1, 2, 3]),
                                                        rng.choice([1, 2])))
            g = invert(f)
            assert compose(f, g).is_identity()
            assert compose(g, f).is_identity()

    @settings(max_examples=40, deadline=None)
    @given(qi_germs())
    def test_two_sided_over_gaussian_rationals(self, f):
        g = invert(f)
        assert compose(f, g).is_identity()
        assert compose(g, f).is_identity()

    def test_no_composition(self, monkeypatch):
        # the degree-by-degree solve keeps a table of powers of the inverse
        calls = count_compose(monkeypatch)
        invert(random_germ(random.Random(5), 24))
        assert calls == []


class TestPower:
    @settings(max_examples=40, deadline=None)
    @given(qi_germs(16), st.integers(1, 5))
    def test_equals_repeated_composition(self, f, k):
        out = f
        for _ in range(k - 1):
            out = compose(out, f)
        assert power(f, k) == out


class TestFiniteOrder:
    def test_quarter_rotation(self):
        f = Germ1({1: gr(0, 1)}, 8)
        assert finite_order(f, 10) == 4

    def test_conjugated_quarter_rotation(self):
        n = 16
        g = Germ1({1: 1, 2: 1}, n)
        f = compose(invert(g), compose(Germ1({1: gr(0, 1)}, n), g))
        assert finite_order(f, 10) == 4

    def test_parabolic_has_no_finite_order(self):
        f = Germ1({1: 1, 2: 1}, 12)
        assert finite_order(f, 50) is None

    def test_non_unit_multiplier(self):
        assert finite_order(Germ1({1: 2}, 6), 50) is None

    def test_unit_modulus_non_root_of_unity(self):
        # (3+4i)/5 lies on the unit circle but is not a root of unity
        lam = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert finite_order(Germ1({1: lam}, 6), 50) is None

    def test_inconclusive_at_low_truncation(self):
        f = Germ1({1: gr(0, 1)}, 4)
        with pytest.raises(InconclusiveOrder) as err:
            finite_order(f, 10)
        assert err.value.needed_degree == 8

    def test_conjugation_invariance_random(self):
        rng = random.Random(31)
        n = 16
        rot = Germ1({1: gr(0, 1)}, n)
        for _ in range(25):
            g = random_germ(rng, n)
            conj = compose(invert(g), compose(rot, g))
            assert finite_order(conj, 8) == finite_order(rot, 8) == 4

    def test_no_composition(self, monkeypatch):
        # power reuses the inner germ's powers instead of composing
        calls = count_compose(monkeypatch)
        n = 24
        g = random_germ(random.Random(7), n)
        conj = compose(invert(g), compose(Germ1({1: gr(0, 1)}, n), g))
        calls.clear()
        assert finite_order(conj, 8) == 4
        assert finite_order(Germ1({1: -1, 3: 1}, n), 8) is None
        assert calls == []


class TestPseudoOrbit:
    def test_half_turn_period_two(self):
        f = Germ1({1: -1}, 6)
        rec = pseudo_orbit(f, 0.1, 10)
        assert rec.status == "periodic" and rec.period == 2

    def test_quarter_rotation_with_high_order_term(self):
        # iz + z^5 has multiplier of order 4 but f^4 != id; at |z0| = 0.05
        # the drift 4|z0|^5 is above the return tolerance, matching the
        # absent finite order
        f = Germ1({1: gr(0, 1), 5: 1}, 12)
        assert finite_order(f, 50) is None
        rec = pseudo_orbit(f, 0.05, 50)
        assert rec.status != "periodic"

    def test_exact_rotation_periodic(self):
        f = Germ1({1: gr(0, 1)}, 12)
        rec = pseudo_orbit(f, 0.05, 50)
        assert rec.status == "periodic" and rec.period == 4

    def test_parabolic_real_orbit_never_periodic(self):
        f = Germ1({1: 1, 2: 1}, 12)
        rec = pseudo_orbit(f, 0.05, 200)
        assert rec.status in ("escaped", "undecided")
        # real iterates strictly increase
        reals = [z.real for z in rec.iterates]
        assert all(b > a for a, b in zip(reals, reals[1:]))

    def test_starting_point_inside_radius_required(self):
        f = Germ1({1: 1, 2: 1}, 6)
        with pytest.raises(ValueError):
            pseudo_orbit(f, 1.5, 10)

    def test_period_divides_finite_order(self):
        # numeric consistency: order-4 germ gives orbits of period dividing 4
        f = Germ1({1: gr(0, -1), 3: 0}, 12)
        for z0 in (0.05, 0.03 + 0.02j, -0.01j):
            rec = pseudo_orbit(f, z0, 20, return_tolerance=1e-6)
            assert rec.status == "periodic"
            assert 4 % rec.period == 0

    def test_iterates_match_per_step_rounding(self):
        # rounding the coefficients once gives the same binary64 iterates
        # as rounding them at every step, in the same Horner order
        f = Germ1({1: gr(Fraction(3, 5), Fraction(4, 5)), 2: gr(Fraction(1, 3)),
                   5: gr(0, Fraction(-2, 7))}, 9)
        rec = pseudo_orbit(f, 0.1 + 0.05j, 300)
        z, iterates = 0.1 + 0.05j, [0.1 + 0.05j]
        for _ in range(len(rec.iterates) - 1):
            acc = 0j
            for k in range(9, 0, -1):
                acc = acc * z + f.coefficient(k).to_complex()
            z = acc * z
            iterates.append(z)
        assert rec.iterates == iterates
        assert len(iterates) > 100
