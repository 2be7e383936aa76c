"""The exact shape checks and the blow-up charts read `Poly2.parts`.

Each check is compared with its former body, which read the
GaussianRational view (`coefficient`, `terms`), on series drawn near
the shape it looks for and built by several routes of arithmetic, so
that equal series arrive as scaled, summed or unreduced pieces.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centerfocus import foliation
from centerfocus.center import MorseReport, morse_check
from centerfocus.flow import _require_normalized_rotation
from centerfocus.foliation import factor_fg, siegel_check
from centerfocus.germ import Germ1, multiplier_order
from centerfocus.series import (
    GaussianRational,
    OneForm2,
    Poly2,
    VectorField2,
    gr,
    parts_of,
)

# -- the former bodies, kept as references -----------------------------


def reference_siegel_check(form: OneForm2) -> bool:
    a, b = form.a, form.b
    return (
        not a.coefficient(0, 0)
        and not b.coefficient(0, 0)
        and a.coefficient(0, 1) == gr(1)
        and not a.coefficient(1, 0)
        and b.coefficient(1, 0) == gr(1)
        and not b.coefficient(0, 1)
    )


def reference_xy_start(F: Poly2) -> bool:
    """factor_fg's guard: F = xy + higher order terms."""
    return not (F.coefficient(0, 0) or F.coefficient(1, 0)
                or F.coefficient(0, 1) or F.coefficient(2, 0)
                or F.coefficient(0, 2) or F.coefficient(1, 1) != gr(1))


def reference_standard_rotation(field: VectorField2) -> bool:
    return field.linear_part_matrix() == [[gr(0), gr(-1)], [gr(1), gr(0)]]


def reference_morse_check(f: Poly2) -> MorseReport:
    if f.coefficient(0, 0) or f.coefficient(1, 0) or f.coefficient(0, 1):
        raise ValueError("Morse check expects no constant or linear terms")
    if not f.real:
        raise ValueError("Morse definiteness is defined for real series")
    a = f.coefficient(2, 0).re
    b = f.coefficient(1, 1).re
    c = f.coefficient(0, 2).re
    disc = 4 * a * c - b * b
    return MorseReport(nondegenerate=disc != 0, definite=disc > 0)


REFERENCE_ROOTS = {(0, 1): gr(1), (1, 2): gr(-1), (1, 4): gr(0, 1),
                   (3, 4): gr(0, -1)}


def reference_multiplier_order(lam: GaussianRational) -> int | None:
    return next((q for (_, q), root in REFERENCE_ROOTS.items()
                 if root == lam), None)


def reference_chart_components(form: OneForm2):
    n = form.truncation_degree
    first, second = {}, {}

    def add(acc, key, val):
        acc[key] = acc.get(key, gr(0)) + val

    for (i, j), c in form.a.terms.items():
        add(first, (i + j, j), c)          # a(x, tx) dx
    for (i, j), c in form.b.terms.items():
        add(first, (i + j, j + 1), c)      # t b(x, tx) dx
        add(second, (i + j + 1, j), c)     # x b(x, tx) dt
    first = {k: v for k, v in first.items() if v}
    second = {k: v for k, v in second.items() if v}
    m = min(i for i, _ in list(first) + list(second))

    def divided(part):
        return Poly2({(i - m, j): v for (i, j), v in part.items()
                      if i + j <= n}, n - m)

    return divided(first), divided(second), m


def outcome(check, *args):
    """What `check(*args)` returns, or the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as exc:
        return ValueError, str(exc)


# -- series near a shape, built by several routes ----------------------

N = 5
LOW = [(i, d - i) for d in range(3) for i in range(d + 1)]
HIGH = [(i, d - i) for d in range(3, N + 1) for i in range(d + 1)]
# the values the checks compare against, and near misses of them
NEAR = [0, 1, -1, 2, Fraction(1, 2), Fraction(999, 1000), gr(0, 1),
        gr(0, -1), gr(1, 1), gr(1, Fraction(1, 1000)),
        gr(Fraction(3, 5), Fraction(4, 5))]


def scaled_route(terms, n):
    """Each coefficient times 2i, then the series times -i/2."""
    return Poly2({k: c * gr(0, 2) for k, c in terms.items()}, n) \
        * gr(0, Fraction(-1, 2))


def summed_route(terms, n):
    """(c - 1) x^i y^j + x^i y^j term by term, from 0 x."""
    return sum((Poly2.monomial(i, j, c - 1, n) + Poly2.monomial(i, j, 1, n)
                for (i, j), c in terms.items()), Poly2.var_x(n) * 0)


def unreduced_route(terms, n):
    """Each coefficient as Gaussian integers over three times its
    denominator."""
    return Poly2({k: (3 * re, 3 * im, 3 * den) for k, c in terms.items()
                  for re, im, den in [parts_of(c)]}, n)


ROUTES = [Poly2, scaled_route, summed_route, unreduced_route]


@st.composite
def near(draw, shape, low=LOW, high=HIGH, n=N, values=NEAR[1:]):
    """The polynomial `shape` ({(i, j): c}) with up to two coefficients at
    `low` exponents replaced by NEAR values and up to three terms from
    `values` at `high` exponents added, built by a drawn route."""
    terms = dict(shape)
    for _ in range(draw(st.integers(0, 2))):
        terms[draw(st.sampled_from(low))] = draw(st.sampled_from(NEAR))
    high = [k for k in high if sum(k) <= n]
    terms.update(draw(st.dictionaries(st.sampled_from(high),
                                      st.sampled_from(values),
                                      max_size=3)))
    return draw(st.sampled_from(ROUTES))(terms, n)


class TestShapeChecks:
    def test_routes_build_equal_series(self):
        # the properties below compare checks on series from every route
        terms = {(0, 1): 1, (1, 0): 0, (2, 1): gr(Fraction(1, 3), -2)}
        assert all(route(terms, N) == Poly2(terms, N) for route in ROUTES)

    @settings(max_examples=200, deadline=None)
    @given(near({(0, 1): 1}), near({(1, 0): 1}))
    def test_siegel_check(self, a, b):
        form = OneForm2(a, b)
        assert siegel_check(form) == reference_siegel_check(form)

    @settings(max_examples=120, deadline=None)
    @given(near({(1, 1): 1}, n=4))
    def test_factor_fg_guard(self, F):
        # degree 1 is checked with F known to degree 1 + 3
        rejected = outcome(factor_fg, F, 1) == \
            (ValueError, "F must be xy + higher order terms")
        assert rejected == (not reference_xy_start(F))

    @settings(max_examples=200, deadline=None)
    @given(near({(0, 1): -1}), near({(1, 0): 1}))
    def test_standard_rotation(self, p, q):
        field = VectorField2(p, q)
        expected = reference_standard_rotation(field)
        assert field.standard_rotation == expected
        assert outcome(_require_normalized_rotation, field) == (
            None if expected else (ValueError, "return maps expect a "
                                   "field normalized to -y d/dx + x d/dy"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, -1, 2, -2, Fraction(1, 2),
                                     Fraction(-3, 7)]),
                    min_size=3, max_size=3), st.data())
    def test_morse_check(self, quadratic, data):
        shape = dict(zip([(2, 0), (1, 1), (0, 2)], quadratic))
        f = data.draw(near(shape, values=[1, -1, 2, Fraction(1, 2)]))
        assert outcome(morse_check, f) == outcome(reference_morse_check, f)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(REFERENCE_ROOTS.values())), st.data())
    def test_multiplier_order(self, root, data):
        series = data.draw(near({(1, 0): root}, low=[(1, 0)],
                                high=[(k, 0) for k in range(2, N + 1)]))
        assume(1 in series.parts)
        g = Germ1._of(series)
        assert multiplier_order(g) == reference_multiplier_order(g.multiplier)


@st.composite
def isolated_forms(draw):
    """a dx + b dy without constants, b nonzero, from NEAR values at
    degrees 1..3, sometimes with the radial part y dx - x dy added, whose
    x a + y b vanishes: drawn by a route at truncation 4..6."""
    n = draw(st.integers(4, 6))
    keys = [(i, d - i) for d in range(1, 4) for i in range(d + 1)]
    a, b = (draw(st.dictionaries(st.sampled_from(keys),
                                 st.sampled_from(NEAR[1:]), max_size=4))
            for _ in range(2))
    if draw(st.booleans()):
        a[(0, 1)] = a.get((0, 1), 0) + 1
        b[(1, 0)] = b.get((1, 0), 0) - 1
    route = draw(st.sampled_from(ROUTES))
    form = OneForm2(route(a, n), route(b, n))
    assume(not form.b.is_zero())
    return form


class TestCharts:
    @settings(max_examples=150, deadline=None)
    @given(isolated_forms())
    def test_chart_components_equal_the_regrouped_terms(self, form):
        assert foliation._chart_components(form) == \
            reference_chart_components(form)


def test_shape_checks_and_charts_read_no_view(monkeypatch):
    # siegel_check, factor_fg, the chart components, morse_check and
    # multiplier_order read the stored parts: no GaussianRational view of
    # a series is built
    calls = []
    terms, coefficient = Poly2.terms, Poly2.coefficient
    monkeypatch.setattr(Poly2, "terms", property(
        lambda p: calls.append("terms") or terms.fget(p)))
    monkeypatch.setattr(Poly2, "coefficient", lambda p, i, j: calls.append(
        "coefficient") or coefficient(p, i, j))
    n = 7
    x, y = Poly2.var_x(n), Poly2.var_y(n)
    form = OneForm2(y + x * x, x + y * y * y)
    siegel = siegel_check(form)
    factor_fg(x * y + x ** 3 + y ** 4, n - 3)
    foliation._chart_components(form)
    definite = morse_check(x * x + y * y + x ** 3).definite
    order = multiplier_order(Germ1({1: -1, 2: 3}, n))
    assert calls == []
    assert (siegel, definite, order) == (True, True, 2)
    assert VectorField2(-y, x + x * y).standard_rotation
    assert calls == []

