"""Truncated bivariate power series over exact Gaussian rationals.

Everything downstream (Lyapunov obstructions, Siegel first integrals,
blow-up charts) rides on this module: coefficients are exact, truncation
degrees are data carried by every value, and all operations are pure.
`GaussianRational` is the boundary type of parsing, storage, reports and
every value a caller sees.  The inner loops of products, the Lie
derivative X(F), the wedge dF ^ w (the Lie derivative along the dual
field), linear and univariate substitutions and the homological
residuals run on Gaussian integers over one shared denominator per
operand, so each output coefficient costs one gcd, not one per `+` and
`*` (Henrici; Knuth, TAOCP Vol. 2, 4.5.1).  Every sum of bivariate
series products is one `_bilinear` call.  The power tables of the
univariate substitutions hold s^j as Gaussian-integer rows, each over
one denominator, so no row is rescaled or rounded back to
`GaussianRational` once it is built.
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
    "ensure",
    "gr",
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


def ensure(condition, message: str) -> None:
    """Check an internal invariant; unlike `assert`, it survives -O."""
    if not condition:
        raise InternalError(message)


Scalar = Union[int, Fraction, "GaussianRational"]


def _coerced(op):
    """A GaussianRational operator that coerces int and Fraction operands."""
    def method(self, other):
        other = GaussianRational._try_coerce(other)
        return NotImplemented if other is None else op(self, other)
    return method


@dataclass(frozen=True)
class GaussianRational:
    """Exact element of Q(i): a pair of Fractions.

    Fraction keeps numerators/denominators in lowest terms with positive
    denominators, which is exactly the coefficient invariant we need.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value: Scalar) -> "GaussianRational":
        out = GaussianRational._try_coerce(value)
        if out is None:
            raise TypeError(
                f"cannot coerce {type(value).__name__} to GaussianRational"
            )
        return out

    @staticmethod
    def _try_coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    @property
    def is_real(self) -> bool:
        return self.im == 0

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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        # float() rounds the exact fraction to the nearest binary64
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def gr(re: Scalar = 0, im: Scalar = 0) -> GaussianRational:
    """Shorthand constructor: gr(1, -2) == 1 - 2i."""
    return GaussianRational(Fraction(re), Fraction(im))


GR_ZERO = gr(0)
GR_ONE = gr(1)


class Poly2:
    """Bivariate power series truncated at a total degree.

    terms maps exponent pairs (i, j) with i + j <= truncation_degree to
    nonzero GaussianRational coefficients.  Arithmetic results carry the
    minimum of the operands' truncation degrees; instances are immutable
    by convention (no method mutates self).
    """

    __slots__ = ("terms", "truncation_degree")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar],
                 truncation_degree: int):
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        clean: dict[tuple[int, int], GaussianRational] = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i}, {j})")
            if i + j > truncation_degree:
                raise ValueError(
                    f"term ({i}, {j}) exceeds truncation degree {truncation_degree}"
                )
            c = GaussianRational.coerce(c)
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "truncation_degree", truncation_degree)

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

    def coefficient(self, i: int, j: int) -> GaussianRational:
        return self.terms.get((i, j), GR_ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def real(self) -> bool:
        """Every coefficient is real."""
        return all(c.is_real for c in self.terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return (
            self.terms == other.terms
            and self.truncation_degree == other.truncation_degree
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            pieces = []
            for (i, j) in sorted(self.terms, key=lambda e: (e[0] + e[1], -e[0])):
                c = self.terms[(i, j)]
                mono = "".join(
                    f"{v}^{e}" if e > 1 else v
                    for v, e in (("x", i), ("y", j))
                    if e > 0
                )
                pieces.append(f"({c}){mono}" if mono else f"({c})")
            body = " + ".join(pieces)
        return f"Poly2[{body}; N={self.truncation_degree}]"

    # -- truncation management ----------------------------------------

    def truncate(self, degree: int) -> "Poly2":
        """Drop terms above `degree` and lower the truncation to it."""
        if degree >= self.truncation_degree:
            return self
        kept = {e: c for e, c in self.terms.items() if e[0] + e[1] <= degree}
        return Poly2(kept, degree)

    def lift(self, degree: int) -> "Poly2":
        """Reinterpret as an exact polynomial known to a higher degree.

        Caller asserts the value has no hidden tail: valid for inputs that
        are genuine polynomials, not for truncated results of analysis.
        """
        if degree < self.truncation_degree:
            raise ValueError("lift cannot lower the truncation degree")
        return Poly2(self.terms, degree)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly2.constant(other, self.truncation_degree)
        if not isinstance(other, Poly2):
            return NotImplemented
        n = min(self.truncation_degree, other.truncation_degree)
        acc = {e: c for e, c in self.terms.items() if e[0] + e[1] <= n}
        for e, c in other.terms.items():
            if e[0] + e[1] <= n:
                acc[e] = acc.get(e, GR_ZERO) + c
        return Poly2(acc, n)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({e: -c for e, c in self.terms.items()},
                     self.truncation_degree)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            return Poly2({e: v * c for e, v in self.terms.items()},
                         self.truncation_degree)
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
        n = max(self.truncation_degree - 1, 0)
        return Poly2({(i - 1, j): GaussianRational(c.re * i, c.im * i)
                      for (i, j), c in self.terms.items()
                      if i and i + j <= n + 1}, n)

    def diff_y(self) -> "Poly2":
        n = max(self.truncation_degree - 1, 0)
        return Poly2({(i, j - 1): GaussianRational(c.re * j, c.im * j)
                      for (i, j), c in self.terms.items()
                      if j and i + j <= n + 1}, n)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Evaluate at a binary64 point, rounding only the final value.

        The point components are converted to exact rationals (floats are
        dyadic rationals), the sum is accumulated exactly, and the result
        is rounded to binary64 once.
        """
        nx, ny = (max((e[k] for e in self.terms), default=0) for k in (0, 1))
        xp = _powers(GR_ONE, _exactify(point[0]), nx)
        yp = _powers(GR_ONE, _exactify(point[1]), ny)
        d, cs = _scaled(self.terms.items())
        dm, ms = _scaled((e, xp[e[0]] * yp[e[1]]) for e in self.terms)
        mk = {e: (x, y) for e, x, y in ms}
        return _unscaled(d * dm, *_gdot(((x, y), mk[e]) for e, x, y in cs
                                        if e in mk)).to_complex()

    def binary64(self):
        """The truncated polynomial as a binary64 function of (x, y).  The
        coefficients are rounded once, here: to float when all of them
        are real, to complex otherwise; the function sums c x^i y^j over
        the sorted terms, with each x**i and y**j raised once per point."""
        real = self.real
        terms = [(i, j, float(c.re) if real else c.to_complex())
                 for (i, j), c in sorted(self.terms.items())]
        nx, ny = (max((e[k] for e in self.terms), default=0) for k in (0, 1))

        def evaluate(x, y):
            xp = [x**i for i in range(nx + 1)]
            yp = [y**j for j in range(ny + 1)]
            return sum(c * xp[i] * yp[j] for i, j, c in terms)

        return evaluate

    def substitute_linear(self, m: Sequence[Sequence[Scalar]]) -> "Poly2":
        """Compose with the linear substitution (x, y) -> m @ (x, y)."""
        m00, m01 = GaussianRational.coerce(m[0][0]), GaussianRational.coerce(m[0][1])
        m10, m11 = GaussianRational.coerce(m[1][0]), GaussianRational.coerce(m[1][1])
        det = m00 * m11 - m01 * m10
        if not det:
            raise SingularMatrix("substitution matrix is singular")
        n = self.truncation_degree
        l1 = Poly2({(1, 0): m00, (0, 1): m01}, max(n, 1)).truncate(n)
        l2 = Poly2({(1, 0): m10, (0, 1): m11}, max(n, 1)).truncate(n)
        nx, ny = (max((e[k] for e in self.terms), default=0) for k in (0, 1))
        one = Poly2.constant(1, n)
        p1, p2 = _powers(one, l1, nx), _powers(one, l2, ny)
        return _bilinear([(p1[i] * c, p2[j])
                          for (i, j), c in self.terms.items()], n)


def _exactify(z) -> GaussianRational:
    z = complex(z)
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


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
        return not self.p.coefficient(0, 0) and not self.q.coefficient(0, 0)

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

    def lift(self, degree: int) -> "OneForm2":
        return OneForm2(self.a.lift(degree), self.b.lift(degree))

    def scale(self, c: Scalar) -> "OneForm2":
        return OneForm2(self.a * c, self.b * c)

    def pullback_linear(self, m: Sequence[Sequence[Scalar]]) -> "OneForm2":
        """Pull back under the substitution (x, y) = m @ (u, v)."""
        a_new = self.a.substitute_linear(m)
        b_new = self.b.substitute_linear(m)
        (m00, m01), (m10, m11) = m
        # d(x) = m00 du + m01 dv, d(y) = m10 du + m11 dv
        return OneForm2(a_new * m00 + b_new * m10, a_new * m01 + b_new * m11)


Scaled = tuple[int, list[tuple[int, int, int]]]


def _scaled(items) -> Scaled:
    """The (key, c) pairs `items` over their least common denominator D:
    (D, [(key, D re(c), D im(c)), ...]) for the nonzero c."""
    items = list(items)
    d = math.lcm(*(c.re.denominator for _, c in items),
                 *(c.im.denominator for _, c in items))
    out = [(k, c.re.numerator * (d // c.re.denominator),
            c.im.numerator * (d // c.im.denominator)) for k, c in items]
    return d, [t for t in out if t[1] or t[2]]


def _unscaled(d: int, re: int, im: int) -> GaussianRational:
    """(re + i im) / d in lowest terms: one gcd per part."""
    return GaussianRational(Fraction(re, d), Fraction(im, d))


def _accumulate(pairs: list[tuple[Scaled, Scaled]], n: int) -> Scaled:
    """sum a b over the scaled series pairs (a, b), keys adding and
    products beyond n dropped, scaled over the least common denominator
    of the products: Gaussian integers, not reduced."""
    den = math.lcm(*(da * db for (da, _), (db, _) in pairs))
    re, im = [0] * (n + 1), [0] * (n + 1)
    for (da, a), (db, b) in pairs:
        w = den // (da * db)
        for r, ar, ai in a:
            ar, ai = w * ar, w * ai
            for s, br, bi in b:
                if r + s <= n:
                    re[r + s] += ar * br - ai * bi
                    im[r + s] += ar * bi + ai * br
    return den, [(k, x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y]


def _product_sum(pairs: list[tuple[Scaled, Scaled]],
                 n: int) -> dict[int, GaussianRational]:
    """The nonzero coefficients 0..n of `_accumulate`, one gcd each."""
    den, terms = _accumulate(pairs, n)
    return {k: _unscaled(den, x, y) for k, x, y in terms}


def _gdot(pairs) -> tuple[int, int]:
    """sum a b over the pairs (a, b) of Gaussian integers (re, im)."""
    re = im = 0
    for (ar, ai), (br, bi) in pairs:
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return re, im


def power_rows(s: dict[int, GaussianRational]) -> list[Scaled]:
    """[s^0, s^1], scaled: the start of a power list for `substitute`."""
    return [(1, [(0, 1, 0)]), _scaled(s.items())]


def substitute(terms: list[tuple[int, int, GaussianRational]],
               powers: list[Scaled], n: int) -> dict[int, GaussianRational]:
    """sum_(i, j, c) c z^i s(z)^j through degree n, without zero
    coefficients, from the caller's power list of s (`power_rows`), which
    is extended in place as far as the terms need.  Row j + 1 is the
    Gaussian-integer product of rows j and 1 divided by its gcd (else row
    j of a germ with s_k over q^k sits over q^(jn)), and is kept as is."""
    top = max((j for _, j, _ in terms), default=0)
    while len(powers) <= top:
        den, row = _accumulate([(powers[-1], powers[1])], n)
        g = math.gcd(den, *(v for _, x, y in row for v in (x, y)))
        powers.append((den // g, [(k, x // g, y // g) for k, x, y in row]))
    den, cs = _scaled(((i, j), c) for i, j, c in terms)
    return _product_sum([((den, [(i, x, y) for (i, k), x, y in cs if k == j]),
                          powers[j]) for j in {j for _, j, _ in terms}], n)


def substitution_root(terms: list[tuple[int, int, GaussianRational]],
                      shift: int, n: int) -> dict[int, GaussianRational]:
    """The series s = s_(shift+1) z^(shift+1) + ... with
    sum_(i, j, c) c z^i s(z)^j = 0 through degree n.

    Degree by degree: the unknown s_k first appears at degree k + shift,
    linearly, through the terms z^shift s, so s_k = -R / lead, where R is
    that degree's coefficient with s_k = 0 and lead the coefficient of
    z^shift s.  Callers keep every other term out of that degree (no
    z^i s with i < shift, no z^i s^j with j >= 2 and i + j <= shift + 1).
    A table of D^j [s^j]_d on Gaussian integers, D the running denominator
    of s, grows by one degree per step: O(n^3) exact operations in all
    (Brent & Kung, J. ACM 25, 1978).  Row j is multiplied by t^j when D
    grows by t; its entries below degree j (shift + 1) are zero and never
    formed.  Returns the nonzero s_k, k <= n - shift.
    """
    top, low = max(j for _, j, _ in terms), shift + 1
    lead = sum((c for i, j, c in terms if (i, j) == (shift, 1)), GR_ZERO)
    cden, cs = _scaled(((i, j), c) for i, j, c in terms)
    rows = [[(int(j == 0), 0)] + [(0, 0)] * n for j in range(top + 1)]
    den, dpow, s = 1, [1] * (top + 1), {}  # dpow[j] = D^(top - j)
    for d in range(1, n + 1):
        # [s^j]_d needs s_e for e <= d - (j - 1) low < d - shift only
        for j in range(2, min(top, d // low) + 1):
            rows[j][d] = _gdot((rows[1][e], rows[j - 1][d - e])
                               for e in range(low, d - (j - 1) * low + 1))
        if d <= 2 * shift:
            continue
        c = -_unscaled(cden * dpow[0], *_gdot(
            ((x * dpow[j], y * dpow[j]), rows[j][d - i])
            for (i, j), x, y in cs if i <= d - j * low)) / lead
        t = math.lcm(den, c.re.denominator, c.im.denominator) // den
        if t > 1:
            den *= t
            dpow = [p * t ** (top - j) for j, p in enumerate(dpow)]
            rows = [[(x * tj, y * tj) for x, y in row]
                    for j, row in enumerate(rows) for tj in [t ** j]]
        rows[1][d - shift] = (c.re.numerator * (den // c.re.denominator),
                              c.im.numerator * (den // c.im.denominator))
        if c:
            s[d - shift] = c
    return s


def lie_derivative(field: VectorField2, f: Poly2) -> Poly2:
    """p df/dx + q df/dy, truncated one degree below f."""
    fx, fy = f.diff_x(), f.diff_y()
    return _bilinear([(field.p, fx), (field.q, fy)],
                     min(field.truncation_degree, fx.truncation_degree))


Homogeneous = list[GaussianRational]  # degree d: coefficients of x^(d-r) y^r


def _homogeneous_parts(f: Poly2, n: int) -> dict[int, Scaled]:
    """f's nonzero parts of degree <= n, scaled, x^(d-r) y^r keyed by r."""
    parts: dict[int, list] = {}
    for (i, j), c in f.terms.items():
        if i + j <= n:
            parts.setdefault(i + j, []).append((j, c))
    return {d: _scaled(h) for d, h in parts.items()}


def _bilinear(pairs: list[tuple[Poly2, Poly2]], n: int) -> Poly2:
    """sum a b over the pairs (a, b) of series, through degree n: one
    `_product_sum` per output degree k, over the pairs of the operands'
    scaled homogeneous parts whose degrees add to k."""
    by_degree: dict[int, list] = {}
    for a, b in pairs:
        bs = _homogeneous_parts(b, n)
        for e, pa in _homogeneous_parts(a, n).items():
            for f, pb in bs.items():
                if e + f <= n:
                    by_degree.setdefault(e + f, []).append((pa, pb))
    return Poly2({(k - r, r): c for k, ps in by_degree.items()
                  for r, c in _product_sum(ps, k).items()}, n)


def homological_series(p: Poly2, q: Poly2, quadratic: Homogeneous, n: int,
                       invert) -> tuple[dict[tuple[int, int], GaussianRational],
                                        list[tuple[int, GaussianRational]]]:
    """Build F = F_2 + F_3 + ... + F_n with p F_x + q F_y = sum eta_k s_k.

    F_2 is `quadratic`, which the linear part L = p_1 d/dx + q_1 d/dy of
    the field kills.  At each degree k = 3..n only the new degree-k part
    of p F_x + q F_y is formed,

        R_k = sum_{m=2}^{k-1} (p_{k+1-m} dF_m/dx + q_{k+1-m} dF_m/dy),

    from the field's homogeneous parts and the cached partials of the
    solved F_m.  Each part is scaled to Gaussian integers over one shared
    denominator once, when it is formed, so each R_k is one integer
    multiply-accumulate with one gcd per coefficient; F and the
    obstructions come back as GaussianRational.  `invert(k, rhs)` is L's
    structured inverse on degree k: it returns F_k and eta_k with
    L F_k - eta_k s_k = rhs = -R_k, where s_k spans L's cokernel (eta_k
    is None at odd k).  Returns F's coefficients and the obstructions
    (k, eta_k) at even k >= 4.
    """
    ps, qs = _homogeneous_parts(p, n), _homogeneous_parts(q, n)
    dx: dict[int, Scaled] = {}
    dy: dict[int, Scaled] = {}
    terms: dict[tuple[int, int], GaussianRational] = {}
    obstructions: list[tuple[int, GaussianRational]] = []

    def record(m: int, f: Homogeneous) -> None:
        d, fs = _scaled(enumerate(f))
        dx[m] = d, [(r, (m - r) * x, (m - r) * y) for r, x, y in fs if r < m]
        dy[m] = d, [(r - 1, r * x, r * y) for r, x, y in fs if r]
        terms.update(((m - r, r), c) for r, c in enumerate(f) if c)

    record(2, quadratic)
    for k in range(3, n + 1):
        residual = _product_sum(
            [(part[k + 1 - m], d[m]) for m in range(2, k)
             for part, d in ((ps, dx), (qs, dy)) if k + 1 - m in part], k)
        f, eta = invert(k, [-residual.get(r, GR_ZERO) for r in range(k + 1)])
        if k % 2 == 0:
            obstructions.append((k, eta))
        record(k, f)
    return terms, obstructions
