"""Truncated bivariate power series over exact Gaussian rationals.

Everything downstream (Lyapunov obstructions, Siegel first integrals,
blow-up charts) rides on this module: coefficients are exact, truncation
degrees are data carried by every value, and all operations are pure.
A `Poly2` stores each homogeneous part as Gaussian integers over one
denominator, reduced by one gcd; sums, products, the Lie derivative, the
wedge dF ^ w, partials, linear substitutions and the homological solves
run on those integers and build no `Fraction` (Henrici; Knuth, TAOCP
Vol. 2, 4.5.1).  A univariate series (a germ, a branch, a divisor
restriction) is a `Poly2` in one variable.  Parsed coefficients come in
as such integers, and report rows and binary64 values are made from them
(`scaled_terms`).  `GaussianRational` is the type of the obstructions, of
the normalization and of what a caller reads off a series (`terms`,
`coefficient`).  Every sum of bivariate series products is one
`_bilinear` call; the power tables of the univariate substitutions hold
s^j as Gaussian-integer rows, each over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

__all__ = [
    "GaussianRational",
    "Poly2",
    "VectorField2",
    "OneForm2",
    "SingularMatrix",
    "InternalError",
    "NumericFailure",
    "ensure",
    "gr",
    "parts_of",
    "format_coefficient",
    "binary64",
    "power_rows",
    "substitute",
    "substitution_root",
    "lie_derivative",
    "homological_series",
]


class SingularMatrix(ValueError):
    """Linear substitution matrix has zero determinant."""


class InternalError(RuntimeError):
    """An exact internal consistency check failed: a defect, not bad input."""


class NumericFailure(RuntimeError):
    """A numeric stage found no answer; reported under the stage's name."""


def ensure(condition, message: str) -> None:
    """Check an internal invariant; unlike `assert`, it survives -O."""
    if not condition:
        raise InternalError(message)


Scalar = Union[int, Fraction, "GaussianRational"]
Gaussian = tuple[int, int, int]  # (re, im, den): (re + i im) / den, den > 0


def _coerced(op):
    """A GaussianRational operator that coerces int and Fraction operands."""
    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(Fraction(other))
        return op(self, other) if isinstance(other, GaussianRational) \
            else NotImplemented
    return method


@dataclass(frozen=True)
class GaussianRational:
    """Exact element of Q(i): a pair of Fractions.

    Fraction keeps numerators/denominators in lowest terms with positive
    denominators, which is exactly the coefficient invariant we need.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    @_coerced
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    @_coerced
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    __rsub__ = _coerced(lambda self, other: other - self)

    @_coerced
    def __mul__(self, other):
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * other.re + self.im * other.im) / d,
                                (self.im * other.re - self.re * other.im) / d)

    __rtruediv__ = _coerced(lambda self, other: other / self)

    def to_complex(self) -> complex:
        return _rounded(*parts_of(self))  # each part as float() rounds it

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def gr(re: Scalar = 0, im: Scalar = 0) -> GaussianRational:
    """Shorthand constructor: gr(1, -2) == 1 - 2i."""
    return GaussianRational(Fraction(re), Fraction(im))


GR_ZERO = gr(0)
GR_ONE = gr(1)


def parts_of(c: Scalar | Gaussian) -> Gaussian:
    """c over the lcm of its parts' denominators; a Gaussian as it is."""
    if isinstance(c, tuple):
        return c
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    den = math.lcm(c.re.denominator, c.im.denominator)
    return (c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator), den)


def _rational(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, by one gcd."""
    g = math.gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


def format_coefficient(c: Scalar | Gaussian) -> str:
    """c as reports print it: "re", or "re+im i" when it is not real."""
    re, im, den = parts_of(c)
    text = _rational(re, den)
    return f"{text}+{_rational(im, den)} i" if im else text


Scaled = tuple[int, list[tuple[int, int, int]]]


class Poly2:
    """Bivariate power series truncated at a total degree.

    `parts` maps the degree d of each nonzero homogeneous part to
    (den, [(r, re, im), ...]): the coefficients (re + i im) / den of
    x^(d-r) y^r in increasing r, over one denominator, primitive (den > 0,
    gcd 1, no zero entry), so equal series have equal parts; `terms` and
    `coefficient` are GaussianRational views of them.  Results
    carry the minimum of the operands' truncation degrees; instances are
    immutable by convention (no method mutates self or a part).
    """

    __slots__ = ("parts", "truncation_degree")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar | Gaussian],
                 truncation_degree: int):
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        by_degree: dict[int, list] = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i}, {j})")
            if i + j > truncation_degree:
                raise ValueError(
                    f"term ({i}, {j}) exceeds truncation degree {truncation_degree}"
                )
            by_degree.setdefault(i + j, []).append((j, c))
        parts = ((d, _scaled(sorted(h))) for d, h in by_degree.items())
        object.__setattr__(self, "parts",
                           {d: _primitive(*p) for d, p in parts if p[1]})
        object.__setattr__(self, "truncation_degree", truncation_degree)

    @classmethod
    def _of(cls, parts, truncation_degree: int) -> "Poly2":
        """The series of the (degree, (den, row)) pairs `parts`, whose
        rows hold no zero entry: each part reduced to primitive form,
        empty parts dropped."""
        out = object.__new__(cls)
        object.__setattr__(out, "parts", {d: _primitive(*p)
                                          for d, p in parts if p[1]})
        object.__setattr__(out, "truncation_degree", truncation_degree)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, truncation_degree: int) -> "Poly2":
        return cls({}, truncation_degree)

    @classmethod
    def constant(cls, c: Scalar, truncation_degree: int) -> "Poly2":
        return cls({(0, 0): c}, truncation_degree)

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar, truncation_degree: int) -> "Poly2":
        return cls({(i, j): c}, truncation_degree)

    @classmethod
    def var_x(cls, truncation_degree: int) -> "Poly2":
        return cls({(1, 0): GR_ONE}, truncation_degree)

    @classmethod
    def var_y(cls, truncation_degree: int) -> "Poly2":
        return cls({(0, 1): GR_ONE}, truncation_degree)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], GaussianRational]:
        """The nonzero coefficients by exponent pair (i, j)."""
        return {(d - r, r): _unscaled(den, x, y)
                for d, (den, row) in self.parts.items() for r, x, y in row}

    def scaled_terms(self) -> list[tuple[int, int, int, int, int]]:
        """The nonzero coefficients (re + i im) / den of x^i y^j as
        (i, j, re, im, den), sorted by (i, j); a degree shares its den."""
        return sorted((d - r, r, x, y, den) for d, (den, row)
                      in self.parts.items() for r, x, y in row)

    def coefficient(self, i: int, j: int) -> GaussianRational:
        den, row = self.parts.get(i + j, (1, []))
        return next((_unscaled(den, x, y) for r, x, y in row if r == j),
                    GR_ZERO)

    def is_zero(self) -> bool:
        return not self.parts

    @property
    def real(self) -> bool:
        """Every coefficient is real."""
        return not any(y for _, row in self.parts.values() for _, _, y in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return (
            self.parts == other.parts
            and self.truncation_degree == other.truncation_degree
        )

    __hash__ = None

    def __repr__(self) -> str:
        terms = self.terms
        body = " + ".join(f"({terms[i, j]})" + "".join(
            f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e)
            for i, j in sorted(terms, key=lambda e: (e[0] + e[1], -e[0])))
        return f"Poly2[{body or 0}; N={self.truncation_degree}]"

    # -- truncation management ----------------------------------------

    def truncate(self, degree: int) -> "Poly2":
        """Drop terms above `degree` and lower the truncation to it."""
        if degree >= self.truncation_degree:
            return self
        return Poly2._of([(d, p) for d, p in self.parts.items()
                          if d <= degree], degree)

    def lift(self, degree: int) -> "Poly2":
        """Reinterpret as an exact polynomial known to a higher degree.

        Caller asserts the value has no hidden tail: valid for inputs that
        are genuine polynomials, not for truncated results of analysis.
        """
        if degree < self.truncation_degree:
            raise ValueError("lift cannot lower the truncation degree")
        return Poly2._of(self.parts.items(), degree)

    # -- arithmetic: sums and scalar multiples are products with constants

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly2.constant(other, self.truncation_degree)
        if not isinstance(other, Poly2):
            return NotImplemented
        return _bilinear([(self, _ONE), (other, _ONE)],
                         min(self.truncation_degree, other.truncation_degree))

    __radd__ = __add__

    def __neg__(self):
        return _bilinear([(self, _MINUS_ONE)], self.truncation_degree)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly2.constant(other, self.truncation_degree)
        if not isinstance(other, Poly2):
            return NotImplemented
        return _bilinear([(self, other)],
                         min(self.truncation_degree, other.truncation_degree))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly2":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        return _powers(Poly2.constant(1, self.truncation_degree), self, k)[k]

    def diff_x(self) -> "Poly2":
        return Poly2._of([(d - 1, _partials(d, p)[0])
                          for d, p in self.parts.items() if d],
                         max(self.truncation_degree - 1, 0))

    def diff_y(self) -> "Poly2":
        return Poly2._of([(d - 1, _partials(d, p)[1])
                          for d, p in self.parts.items() if d],
                         max(self.truncation_degree - 1, 0))

    def swapped(self) -> "Poly2":
        """The series with x and y exchanged."""
        return Poly2._of([(d, (den, [(d - r, x, y) for r, x, y in row[::-1]]))
                          for d, (den, row) in self.parts.items()],
                         self.truncation_degree)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Sequence) -> complex:
        """Evaluate at a point of binary64 or GaussianRational components,
        rounding only the final value.

        Floats are converted to exact rationals (they are dyadic), the sum
        is accumulated exactly, and the result is rounded to binary64 once.
        """
        terms = self.terms
        nx, ny = (max((e[k] for e in terms), default=0) for k in (0, 1))
        x, y = (c if isinstance(c, GaussianRational)
                else gr(complex(c).real, complex(c).imag) for c in point)
        xp, yp = _powers(GR_ONE, x, nx), _powers(GR_ONE, y, ny)
        return sum((c * xp[i] * yp[j] for (i, j), c in terms.items()),
                   GR_ZERO).to_complex()

    def binary64(self):
        """`binary64(self)`, returning the one value."""
        evaluate = binary64(self)
        return lambda x, y: evaluate(x, y)[0]

    def substitute_linear(self, m: Sequence[Sequence[Scalar]]) -> "Poly2":
        """Compose with the linear substitution (x, y) -> m @ (x, y): part
        d is sum c_(d-r,r) l1^(d-r) l2^r, l1 = m00 x + m01 y and l2 = m10 x
        + m11 y, one `_accumulate` over the pairs (c l1^(d-r), l2^r) of
        `_extend` power lists, each c folded into the integers of l1^(d-r).
        """
        rows = [_scaled(enumerate(row)) for row in m]
        a, b = ({r: (x, y) for r, x, y in row} for _, row in rows)
        if _gdot([(a.get(0, (0, 0)), b.get(1, (0, 0)))]) == \
                _gdot([(a.get(1, (0, 0)), b.get(0, (0, 0)))]):
            raise SingularMatrix("substitution matrix is singular")
        top = max(self.parts, default=0)
        p1, p2 = (_extend([(1, [(0, 1, 0)]), row], top, top) for row in rows)
        return Poly2._of([(d, _accumulate(
            [((den * p1[d - r][0], [(s, x * u - y * v, x * v + y * u)
                                     for s, u, v in p1[d - r][1]]), p2[r])
             for r, x, y in row], d))
            for d, (den, row) in self.parts.items()], self.truncation_degree)


def binary64(*polys: Poly2):
    """The polynomials as one binary64 function of (x, y) that returns
    their values, summing c x^i y^j over each one's sorted terms with each
    x**i and y**j raised once per point for all.  Coefficients are rounded
    once, here (`_rounded`), to float when all of p's are real."""
    tables = []
    for p in polys:
        real = p.real
        tables.append([(i, j, _rounded(x, y, den, real))
                       for i, j, x, y, den in p.scaled_terms()])
    nx = max((i for t in tables for i, _, _ in t), default=0)
    ny = max((j for t in tables for _, j, _ in t), default=0)

    def evaluate(x, y):
        xp = [x**i for i in range(nx + 1)]
        yp = [y**j for j in range(ny + 1)]
        return [sum(c * xp[i] * yp[j] for i, j, c in t) for t in tables]

    return evaluate


def _rounded(re: int, im: int, den: int, real: bool = False):
    """(re + i im) / den as float(Fraction) rounds it, a float if `real`."""
    try:
        return re / den if real else complex(re / den, im / den)
    except OverflowError:
        raise NumericFailure("exact value beyond the binary64 range") from None


def _powers(one, base, n: int) -> list:
    """[one, base, base^2, ..., base^n]."""
    out = [one]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


@dataclass(frozen=True)
class VectorField2:
    """Planar field X = p d/dx + q d/dy with coherent components."""

    p: Poly2
    q: Poly2

    def __post_init__(self):
        if self.p.truncation_degree != self.q.truncation_degree:
            raise ValueError("components must share a truncation degree")

    @property
    def truncation_degree(self) -> int:
        return self.p.truncation_degree

    @property
    def real(self) -> bool:
        return self.p.real and self.q.real

    @property
    def singular_at_origin(self) -> bool:
        return 0 not in self.p.parts and 0 not in self.q.parts

    @property
    def standard_rotation(self) -> bool:
        """The linear part is exactly -y d/dx + x d/dy."""
        return self.p.parts.get(1) == (1, [(1, -1, 0)]) \
            and self.q.parts.get(1) == (1, [(0, 1, 0)])

    def linear_part_matrix(self) -> list[list[GaussianRational]]:
        return [
            [self.p.coefficient(1, 0), self.p.coefficient(0, 1)],
            [self.q.coefficient(1, 0), self.q.coefficient(0, 1)],
        ]

    def lift(self, degree: int) -> "VectorField2":
        return VectorField2(self.p.lift(degree), self.q.lift(degree))

    def dual_form(self) -> "OneForm2":
        """1-form q dx - p dy annihilating the field."""
        return OneForm2(self.q, -self.p)


@dataclass(frozen=True)
class OneForm2:
    """Planar 1-form w = a dx + b dy (second variable may be a chart name)."""

    a: Poly2
    b: Poly2

    def __post_init__(self):
        if self.a.truncation_degree != self.b.truncation_degree:
            raise ValueError("components must share a truncation degree")

    @property
    def truncation_degree(self) -> int:
        return self.a.truncation_degree

    @property
    def real(self) -> bool:
        return self.a.real and self.b.real

    def scale(self, c: Scalar) -> "OneForm2":
        return OneForm2(self.a * c, self.b * c)

    def pullback_linear(self, m: Sequence[Sequence[Scalar]]) -> "OneForm2":
        """Pull back under the substitution (x, y) = m @ (u, v)."""
        a_new = self.a.substitute_linear(m)
        b_new = self.b.substitute_linear(m)
        (m00, m01), (m10, m11) = m
        # d(x) = m00 du + m01 dv, d(y) = m10 du + m11 dv
        return OneForm2(a_new * m00 + b_new * m10, a_new * m01 + b_new * m11)


def _scaled(items) -> Scaled:
    """The (key, c) pairs `items` over the least common denominator D of
    the nonzero c: (D, [(key, D re(c), D im(c)), ...]) for those c."""
    items = [(k, x, y, den) for k, c in items
             for x, y, den in [parts_of(c)] if x or y]
    d = math.lcm(*[den for *_, den in items])
    return d, [(k, x * (d // den), y * (d // den)) for k, x, y, den in items]


def _unscaled(d: int, re: int, im: int) -> GaussianRational:
    """(re + i im) / d in lowest terms: one gcd per part."""
    return GaussianRational(Fraction(re, d), Fraction(im, d))


def _accumulate(pairs: list[tuple[Scaled, Scaled]], n: int) -> Scaled:
    """sum a b over the scaled series pairs (a, b), keys adding and
    products beyond n dropped, scaled over the least common denominator
    of the products: Gaussian integers, not reduced."""
    den = math.lcm(*[da * db for (da, _), (db, _) in pairs])
    re, im = [0] * (n + 1), [0] * (n + 1)
    for (da, a), (db, b) in pairs:
        w = den // (da * db)
        for r, ar, ai in a:
            ar, ai = w * ar, w * ai
            for s, br, bi in b:
                if r + s <= n:
                    re[r + s] += ar * br - ai * bi
                    im[r + s] += ar * bi + ai * br
    return den, _sparse(re, im)


def _accumulate_x(pairs: list[tuple[Scaled, Scaled]], n: int) -> Scaled:
    """`_accumulate` for series in x, buffers ending at the largest key sum."""
    reach = max([max(a)[0] + max(b)[0] for (_, a), (_, b) in pairs
                 if a and b], default=0)
    return _accumulate(pairs, min(n, reach))


def _sparse(re: list[int], im: list[int]) -> list[tuple[int, int, int]]:
    """The row [(r, re[r], im[r]), ...] of the nonzero entries."""
    return [(r, x, y) for r, (x, y) in enumerate(zip(re, im)) if x or y]


def _primitive(den: int, row: list[tuple[int, int, int]]) -> Scaled:
    """(den, row), den > 0, divided by the gcd of den and the entries,
    taken entry by entry up to the first 1; (1, []) for an empty row."""
    g = den
    for _, x, y in row:
        g = math.gcd(g, x, y)
        if g == 1:
            return den, row
    return den // g, [(r, x // g, y // g) for r, x, y in row]


def _extend(powers: list[Scaled], top: int, n: int) -> list[Scaled]:
    """The power list [s^0, s, ...] of scaled rows, extended in place
    through s^top, keys beyond n dropped: row j + 1 is the Gaussian-
    integer product of rows j and 1, reduced by its gcd."""
    while len(powers) <= top:
        powers.append(_primitive(*_accumulate_x([(powers[-1], powers[1])], n)))
    return powers


def _partials(d: int, part: Scaled) -> tuple[Scaled, Scaled]:
    """The x and y partials of a degree-d part, over its denominator."""
    den, row = part
    return ((den, [(r, (d - r) * x, (d - r) * y) for r, x, y in row if r < d]),
            (den, [(r - 1, r * x, r * y) for r, x, y in row if r]))


def _gdot(pairs) -> tuple[int, int]:
    """sum a b over the pairs (a, b) of Gaussian integers (re, im)."""
    re = im = 0
    for (ar, ai), (br, bi) in pairs:
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return re, im


def _common_terms(p: Poly2) -> tuple[int, list]:
    """The terms of p over one denominator D: (D, [(i, j, re, im), ...])
    for the nonzero coefficients (re + i im) / D of x^i y^j."""
    den = math.lcm(*[d for d, _ in p.parts.values()])
    return den, [(d - r, r, x * (den // pd), y * (den // pd))
                 for d, (pd, row) in p.parts.items() for r, x, y in row]


def power_rows(s: Poly2) -> list[Scaled]:
    """[s^0, s^1], scaled, for a series s in x: the start of a power list
    for `substitute`."""
    den, terms = _common_terms(s)
    return [(1, [(0, 1, 0)]), (den, [(i, x, y) for i, _, x, y in terms])]


def substitute(f: Poly2, powers: list[Scaled], n: int) -> Poly2:
    """f(x, s(x)) through degree n, as a series in x, from the caller's
    power list of s (`power_rows`), which is extended in place as far as
    f's powers of y need.  Row j + 1 is the Gaussian-integer product of
    rows j and 1 divided by its gcd (else row j of a germ with s_k over
    q^k sits over q^(jn)), and is kept as is."""
    _extend(powers, max((r for _, row in f.parts.values()
                         for r, _, _ in row), default=0), n)
    den, row = _accumulate_x([((pd, [(d - r, x, y)]), powers[r])
                              for d, (pd, part) in f.parts.items()
                              for r, x, y in part], n)
    return Poly2._of([(k, (den, [(0, x, y)])) for k, x, y in row], n)


def substitution_root(f: Poly2, shift: int, n: int) -> Poly2:
    """The series s = s_(shift+1) x^(shift+1) + ..., truncated at
    n - shift, with f(x, s(x)) = 0 through degree n.

    Degree by degree: the unknown s_k first appears at degree k + shift,
    linearly, through the term x^shift y, so s_k = -R / lead, where R is
    that degree's coefficient with s_k = 0 and lead the coefficient of
    x^shift y.  Callers keep every other term out of that degree (no
    x^i y with i < shift, no x^i y^j with j >= 2 and i + j <= shift + 1).
    A table of D^j [s^j]_d on Gaussian integers, D the running denominator
    of s, grows by one degree per step: O(n^3) exact operations in all
    (Brent & Kung, J. ACM 25, 1978).  Row j is multiplied by t^j when D
    grows by t; its entries below degree j (shift + 1) are zero and never
    formed.  With lead = l / C and R = r / (C D^top), s_k is -r conj(l)
    / (D^top |l|^2) on Gaussian integers, reduced by one gcd.
    """
    _, cs = _common_terms(f)
    top, low = max(j for _, j, _, _ in cs), shift + 1
    lx, ly = next((x, y) for i, j, x, y in cs if (i, j) == (shift, 1))
    rows = [[(int(j == 0), 0)] + [(0, 0)] * n for j in range(top + 1)]
    den, dpow = 1, [1] * (top + 1)  # dpow[j] = D^(top - j)
    for d in range(1, n + 1):
        # [s^j]_d needs s_e for e <= d - (j - 1) low < d - shift only
        for j in range(2, min(top, d // low) + 1):
            rows[j][d] = _gdot((rows[1][e], rows[j - 1][d - e])
                               for e in range(low, d - (j - 1) * low + 1))
        if d <= 2 * shift:
            continue
        rx, ry = _gdot(((x * dpow[j], y * dpow[j]), rows[j][d - i])
                       for i, j, x, y in cs if i <= d - j * low)
        cx, cy = -rx * lx - ry * ly, rx * ly - ry * lx
        q = dpow[0] * (lx * lx + ly * ly)
        g = math.gcd(cx, cy, q)
        q //= g  # the denominator of s_k in lowest terms
        t = math.lcm(den, q) // den
        if t > 1:
            den *= t
            dpow = [p * t ** (top - j) for j, p in enumerate(dpow)]
            rows = [[(x * tj, y * tj) for x, y in row]
                    for j, row in enumerate(rows) for tj in [t ** j]]
        rows[1][d - shift] = (cx // g * (den // q), cy // g * (den // q))
    return Poly2._of([(k, (den, [(0, x, y)])) for k, (x, y)
                      in enumerate(rows[1]) if x or y], n - shift)


def lie_derivative(field: VectorField2, f: Poly2) -> Poly2:
    """p df/dx + q df/dy, truncated one degree below f."""
    fx, fy = f.diff_x(), f.diff_y()
    return _bilinear([(field.p, fx), (field.q, fy)],
                     min(field.truncation_degree, fx.truncation_degree))


def _bilinear(pairs: list[tuple[Poly2, Poly2]], n: int) -> Poly2:
    """sum a b over the pairs (a, b) of series, through degree n: one
    `_accumulate` per output degree k, over the pairs of the operands'
    homogeneous parts whose degrees add to k, reduced once."""
    by_degree: dict[int, list] = {}
    for a, b in pairs:
        for e, pa in a.parts.items():
            for f, pb in b.parts.items():
                if e + f <= n:
                    by_degree.setdefault(e + f, []).append((pa, pb))
    return Poly2._of([(k, _accumulate(ps, k)) for k, ps in by_degree.items()],
                     n)


_ONE, _MINUS_ONE = Poly2.constant(1, 0), Poly2.constant(-1, 0)


def homological_series(p: Poly2, q: Poly2, quadratic: Scaled, n: int,
                       invert) -> tuple[Poly2, Poly2]:
    """Build F = F_2 + F_3 + ... + F_n with p F_x + q F_y = sum eta_k s_k.

    F_2 is the part `quadratic`, killed by the linear part L of the field.
    At each degree k = 3..n only the new degree-k part of p F_x + q F_y,
    R_k = sum_{m=2}^{k-1} (p_{k+1-m} dF_m/dx + q_{k+1-m} dF_m/dy), is
    formed from the field's parts and the partials of the solved F_m: one
    Gaussian-integer multiply-accumulate, reduced once.  `invert(k, rhs)`
    is L's structured inverse on degree k: from the part rhs = -R_k it
    returns the parts F_k and eta_k s_k (no zero entry; the second empty
    where L has no cokernel), with L F_k - eta_k s_k = rhs, s_k spanning
    L's cokernel.  Returns F and the obstruction series sum eta_k s_k.
    """
    parts, etas, dx, dy = {2: quadratic}, {}, {}, {}  # F_m, eta_m s_m
    for k in range(3, n + 1):
        dx[k - 1], dy[k - 1] = _partials(k - 1, parts[k - 1])
        den, row = _primitive(*_accumulate(
            [(part[k + 1 - m], d[m]) for m in range(2, k)
             for part, d in ((p.parts, dx), (q.parts, dy))
             if k + 1 - m in part], k))
        f, etas[k] = invert(k, (den, [(r, -x, -y) for r, x, y in row]))
        parts[k] = _primitive(*f)
    return Poly2._of(parts.items(), n), Poly2._of(etas.items(), n)
