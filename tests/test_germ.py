import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerfocus import germ, series
from centerfocus.germ import (
    Germ1,
    InconclusiveOrder,
    compose,
    finite_order,
    invert,
    power,
    pseudo_orbit,
)
from centerfocus.series import GaussianRational, gr


def random_germ(rng: random.Random, n: int, multiplier=1) -> Germ1:
    coeffs = {1: multiplier}
    for k in range(2, n + 1):
        if rng.random() < 0.6:
            coeffs[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Germ1(coeffs, n)


def naive_product(a: dict, b: dict, n: int) -> dict:
    """{degree: coefficient} product through degree n, term pair by pair."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if ka + kb <= n:
                out[ka + kb] = out.get(ka + kb, gr(0)) + ca * cb
    return out


def mobius(lam, c, n: int) -> Germ1:
    """lam z / (1 - c (1 - lam) z): a Moebius conjugate of z -> lam z."""
    ratio, coeffs, term = c * (1 - lam), {}, lam
    for k in range(1, n + 1):
        coeffs[k] = term
        term = term * ratio
    return Germ1(coeffs, n)


def horner_compose(f: Germ1, g: Germ1) -> Germ1:
    """Reference f(g(z)) = g*(f_1 + g*(f_2 + ...)), one product per degree."""
    n = min(f.truncation_degree, g.truncation_degree)
    acc = {}
    for m in range(n, 0, -1):
        c = f.coefficient(m)
        if c:
            acc[0] = acc.get(0, gr(0)) + c
        acc = naive_product(acc, g.coeffs, n)
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


def horner_evaluator(f: Germ1):
    """The binary64 evaluator as it was: each coefficient read as a
    GaussianRational and rounded by `to_complex`, then Horner's loop."""
    coeffs = [f.coefficient(k).to_complex()
              for k in range(f.truncation_degree, 0, -1)]

    def evaluate(z: complex) -> complex:
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        return acc * z

    return evaluate


def bits(z: complex) -> tuple[str, str]:
    """The binary64 parts of z, telling -0.0 from 0.0."""
    return z.real.hex(), z.imag.hex()


# numerators and denominators far past 2^53, so that rounding matters
wide_part = st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90),
                      st.integers(1, 2 ** 90))


@st.composite
def wide_germs(draw):
    """Germs whose coefficients need correct rounding: wide parts, zero,
    real and purely imaginary ones, gaps between degrees."""
    n = draw(st.integers(1, 30))
    coeff = st.one_of(st.builds(GaussianRational, wide_part, wide_part),
                      st.builds(GaussianRational, wide_part),
                      st.builds(GaussianRational, st.just(Fraction(0)),
                                wide_part))
    lam = draw(coeff.filter(bool))
    degrees = draw(st.lists(st.integers(2, n), max_size=8, unique=True)
                   if n > 1 else st.just([]))
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
        assert abs(f.evaluator()(z) - (2 * z + 0.5 * z**3)) < 1e-15

    @settings(max_examples=150, deadline=None)
    @given(wide_germs(), st.complex_numbers(max_magnitude=0.5)
           | st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)]))
    def test_evaluator_matches_horner_on_fractions(self, f, z):
        # rounding x / den from the stored parts gives the coefficients
        # float(Fraction) gave, so iterates are bit-identical
        new, old = f.evaluator(), horner_evaluator(f)
        for _ in range(4):
            w = new(z)
            assert bits(w) == bits(old(z))
            z = w if abs(w) < 0.5 else z / 2


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

    def test_equals_repeated_composition_at_n40(self):
        # denominators grow with the degree: 6^k in the Moebius germ, and
        # the fractions of the polynomial germ mix 2, 3 and 5
        rng = random.Random(13)
        for f in (mobius(gr(0, 1), gr(Fraction(1, 2), Fraction(-1, 3)), 40),
                  mobius(gr(-1), gr(Fraction(2, 5)), 40),
                  random_germ(rng, 40, gr(Fraction(3, 5), Fraction(4, 5)))):
            out = f
            for k in range(2, 6):
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

    def test_memory_follows_degree_not_truncation(self):
        # f^4 of a degree-2 germ reaches degree 16; buffers sized by the
        # truncation made this peak at 1.5 MB at truncation 10^5
        f = Germ1({1: (0, 1, 1), 2: (1, 0, 8)}, 10**5)
        tracemalloc.start()
        try:
            assert finite_order(f, 8) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25e6

    def test_scaled_calls_on_a_mobius_germ_at_n40(self, monkeypatch):
        # building the germ scales each of its 40 degrees once; f^4 of the
        # order-4 germ then scales nothing, since the power list and every
        # composition run on the stored parts (4 calls in f^4 when germs
        # were coefficient dicts, 318 when every substitution scaled each
        # power row again)
        calls = []
        scaled = series._scaled
        monkeypatch.setattr(series, "_scaled",
                            lambda items: calls.append(1) or scaled(items))
        f = mobius(gr(0, 1), gr(Fraction(1, 2), Fraction(-1, 3)), 40)
        assert len(calls) == 40
        assert finite_order(f, 8) == 4
        assert len(calls) == 40


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
