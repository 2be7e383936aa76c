"""Truncated bivariate power series over exact Gaussian rationals.

Everything downstream (Lyapunov obstructions, Siegel first integrals,
blow-up charts) rides on this module: coefficients are exact, truncation
degrees are data carried by every value, and all operations are pure.
"""

from __future__ import annotations

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
    "mul",
    "umul",
    "substitution_root",
    "lie_derivative",
    "homological_series",
    "linear_change",
    "evaluate",
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

    def __add__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

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
GR_I = gr(0, 1)


class Poly2:
    """Bivariate power series truncated at a total degree.

    terms maps exponent pairs (i, j) with i + j <= truncation_degree to
    nonzero GaussianRational coefficients.  Arithmetic results carry the
    minimum of the operands' truncation degrees; instances are immutable
    by convention (no method mutates self).
    """

    __slots__ = ("terms", "truncation_degree", "real")

    def __init__(
        self,
        terms: Mapping[tuple[int, int], Scalar],
        truncation_degree: int,
        real: bool | None = None,
    ):
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
        if real is None:
            real = all(c.is_real for c in clean.values())
        elif real and not all(c.is_real for c in clean.values()):
            raise ValueError("real series cannot carry imaginary coefficients")
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "truncation_degree", truncation_degree)
        object.__setattr__(self, "real", real)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, truncation_degree: int, real: bool = True) -> "Poly2":
        return cls({}, truncation_degree, real)

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

    def poly_degree(self) -> int:
        """Largest total degree among stored terms (0 if none)."""
        return max((i + j for i, j in self.terms), default=0)

    def min_degree(self) -> int | None:
        return min((i + j for i, j in self.terms), default=None)

    def homogeneous_part(self, k: int) -> "Poly2":
        part = {e: c for e, c in self.terms.items() if e[0] + e[1] == k}
        return Poly2(part, self.truncation_degree, self.real)

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
        return Poly2(kept, degree, self.real)

    def lift(self, degree: int) -> "Poly2":
        """Reinterpret as an exact polynomial known to a higher degree.

        Caller asserts the value has no hidden tail: valid for inputs that
        are genuine polynomials, not for truncated results of analysis.
        """
        if degree < self.truncation_degree:
            raise ValueError("lift cannot lower the truncation degree")
        return Poly2(self.terms, degree, self.real)

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
        return Poly2(acc, n, self.real and other.real)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({e: -c for e, c in self.terms.items()},
                     self.truncation_degree, self.real)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly2.constant(other, self.truncation_degree)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if not c:
                return Poly2.zero(self.truncation_degree, self.real)
            return Poly2({e: v * c for e, v in self.terms.items()},
                         self.truncation_degree, self.real and c.is_real)
        if not isinstance(other, Poly2):
            return NotImplemented
        n = min(self.truncation_degree, other.truncation_degree)
        acc: dict[tuple[int, int], GaussianRational] = {}
        for (i1, j1), c1 in self.terms.items():
            if i1 + j1 > n:
                continue
            for (i2, j2), c2 in other.terms.items():
                i, j = i1 + i2, j1 + j2
                if i + j > n:
                    continue
                key = (i, j)
                acc[key] = acc.get(key, GR_ZERO) + c1 * c2
        return Poly2(acc, n, self.real and other.real)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly2":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Poly2.constant(1, self.truncation_degree)
        for _ in range(k):
            out = out * self
        return out

    def diff_x(self) -> "Poly2":
        n = max(self.truncation_degree - 1, 0)
        acc = {}
        for (i, j), c in self.terms.items():
            if i >= 1 and (i - 1) + j <= n:
                acc[(i - 1, j)] = c * i
        return Poly2(acc, n, self.real)

    def diff_y(self) -> "Poly2":
        n = max(self.truncation_degree - 1, 0)
        acc = {}
        for (i, j), c in self.terms.items():
            if j >= 1 and i + (j - 1) <= n:
                acc[(i, j - 1)] = c * j
        return Poly2(acc, n, self.real)

    def promote_complex(self) -> "Poly2":
        """Same coefficients, reality flag dropped."""
        return Poly2(self.terms, self.truncation_degree, real=False)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Evaluate at a binary64 point, rounding only the final value.

        The point components are converted to exact rationals (floats are
        dyadic rationals), the sum is accumulated exactly, and the result
        is rounded to binary64 once.
        """
        xg = _exactify(point[0])
        yg = _exactify(point[1])
        nx = max((i for i, _ in self.terms), default=0)
        ny = max((j for _, j in self.terms), default=0)
        xp = _powers(xg, nx)
        yp = _powers(yg, ny)
        acc = GR_ZERO
        for (i, j), c in self.terms.items():
            acc = acc + c * xp[i] * yp[j]
        return acc.to_complex()

    def as_float_terms(self) -> list[tuple[int, int, complex]]:
        """Coefficients rounded to binary64, for fast numeric loops."""
        return [(i, j, c.to_complex()) for (i, j), c in sorted(self.terms.items())]

    def substitute_linear(self, m: Sequence[Sequence[Scalar]]) -> "Poly2":
        """Compose with the linear substitution (x, y) -> m @ (x, y)."""
        m00, m01 = GaussianRational.coerce(m[0][0]), GaussianRational.coerce(m[0][1])
        m10, m11 = GaussianRational.coerce(m[1][0]), GaussianRational.coerce(m[1][1])
        det = m00 * m11 - m01 * m10
        if not det:
            raise SingularMatrix("substitution matrix is singular")
        n = self.truncation_degree
        l1 = Poly2({(1, 0): m00, (0, 1): m01}, n)
        l2 = Poly2({(1, 0): m10, (0, 1): m11}, n)
        nx = max((i for i, _ in self.terms), default=0)
        ny = max((j for _, j in self.terms), default=0)
        p1 = _poly_powers(l1, nx)
        p2 = _poly_powers(l2, ny)
        entries_real = all(c.is_real for c in (m00, m01, m10, m11))
        out = Poly2.zero(n, real=self.real and entries_real)
        for (i, j), c in self.terms.items():
            out = out + p1[i] * p2[j] * c
        return out


def _exactify(z) -> GaussianRational:
    z = complex(z)
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


def _powers(base: GaussianRational, n: int) -> list[GaussianRational]:
    out = [GR_ONE]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def _poly_powers(base: Poly2, n: int) -> list[Poly2]:
    out = [Poly2.constant(1, base.truncation_degree)]
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
        if self.p.real != self.q.real:
            raise ValueError("components must share the reality flag")

    @property
    def truncation_degree(self) -> int:
        return self.p.truncation_degree

    @property
    def real(self) -> bool:
        return self.p.real

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
        if self.a.real != self.b.real:
            raise ValueError("components must share the reality flag")

    @property
    def truncation_degree(self) -> int:
        return self.a.truncation_degree

    @property
    def real(self) -> bool:
        return self.a.real

    def lift(self, degree: int) -> "OneForm2":
        return OneForm2(self.a.lift(degree), self.b.lift(degree))

    def scale(self, c: Scalar) -> "OneForm2":
        return OneForm2(self.a * c, self.b * c)

    def pullback_linear(self, m: Sequence[Sequence[Scalar]]) -> "OneForm2":
        """Pull back under the substitution (x, y) = m @ (u, v)."""
        a_new = self.a.substitute_linear(m)
        b_new = self.b.substitute_linear(m)
        m00 = GaussianRational.coerce(m[0][0])
        m01 = GaussianRational.coerce(m[0][1])
        m10 = GaussianRational.coerce(m[1][0])
        m11 = GaussianRational.coerce(m[1][1])
        # d(x) = m00 du + m01 dv, d(y) = m10 du + m11 dv
        return OneForm2(a_new * m00 + b_new * m10, a_new * m01 + b_new * m11)


def mul(u: Poly2, v: Poly2) -> Poly2:
    """Truncated Cauchy product; degree = min of the operands' degrees."""
    return u * v


def umul(a: dict[int, GaussianRational], b: dict[int, GaussianRational],
         n: int) -> dict[int, GaussianRational]:
    """Product of univariate series {degree: coefficient} to degree n,
    without zero coefficients."""
    out: dict[int, GaussianRational] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            if k > n:
                continue
            v = out.get(k, GR_ZERO) + ca * cb
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def substitution_root(terms: list[tuple[int, int, GaussianRational]],
                      shift: int, n: int) -> dict[int, GaussianRational]:
    """The series s = s_(shift+1) z^(shift+1) + ... with
    sum_(i, j, c) c z^i s(z)^j = 0 through degree n.

    Degree by degree: the unknown s_k first appears at degree k + shift,
    linearly, through the terms z^shift s, so s_k = -R / lead, where R is
    that degree's coefficient with s_k = 0 and lead the coefficient of
    z^shift s.  Callers keep every other term out of that degree (no
    z^i s with i < shift, no z^i s^j with j >= 2 and i + j <= shift + 1).
    A table holds [s^j]_d for every power j in the terms and is extended
    by one degree per step, so the whole solve takes O(n^3) exact
    operations in place of a full substitution per degree (Brent & Kung,
    J. ACM 25, 1978).  Returns the nonzero s_k, k <= n - shift.
    """
    top = max(j for _, j, _ in terms)
    s = [GR_ZERO] * (n + 1)
    powers = [[GR_ONE] + [GR_ZERO] * n, s]
    powers += [[GR_ZERO] * (n + 1) for _ in range(top - 1)]
    lead = sum((c for i, j, c in terms if (i, j) == (shift, 1)), GR_ZERO)
    for d in range(1, n + 1):
        # [s^j]_d needs s_e for e < d - shift only, all solved by now
        for j in range(2, top + 1):
            lower = powers[j - 1]
            powers[j][d] = sum((s[e] * lower[d - e] for e in range(1, d)
                                if s[e] and lower[d - e]), GR_ZERO)
        if d > 2 * shift:
            residual = sum((c * powers[j][d - i] for i, j, c in terms
                            if i <= d and powers[j][d - i]), GR_ZERO)
            s[d - shift] = -residual / lead
    return {k: c for k, c in enumerate(s) if c}


def lie_derivative(field: VectorField2, f: Poly2) -> Poly2:
    """p df/dx + q df/dy, truncated one degree below f."""
    return field.p * f.diff_x() + field.q * f.diff_y()


Homogeneous = list[GaussianRational]  # degree d: coefficients of x^(d-r) y^r


def _homogeneous_parts(f: Poly2, n: int) -> list[Homogeneous]:
    parts = [[GR_ZERO] * (d + 1) for d in range(n + 1)]
    for (i, j), c in f.terms.items():
        if i + j <= n:
            parts[i + j][j] = c
    return parts


def _add_product(out: Homogeneous, a: Homogeneous, b: Homogeneous) -> None:
    for r, ca in enumerate(a):
        if ca:
            for s, cb in enumerate(b):
                if cb:
                    out[r + s] = out[r + s] + ca * cb


def homological_series(p: Poly2, q: Poly2, quadratic: Homogeneous, n: int,
                       invert) -> tuple[dict[tuple[int, int], GaussianRational],
                                        list[tuple[int, GaussianRational]]]:
    """Build F = F_2 + F_3 + ... + F_n with p F_x + q F_y = sum eta_k s_k.

    F_2 is `quadratic`, which the linear part L = p_1 d/dx + q_1 d/dy of
    the field kills.  At each degree k = 3..n only the new degree-k part
    of p F_x + q F_y is formed,

        R_k = sum_{m=2}^{k-1} (p_{k+1-m} dF_m/dx + q_{k+1-m} dF_m/dy),

    from the field's homogeneous parts and the cached partials of the
    solved F_m.  `invert(k, rhs)` is L's structured inverse on degree k:
    it returns F_k and eta_k with L F_k - eta_k s_k = rhs = -R_k, where
    s_k spans L's cokernel (eta_k is None at odd k).  Returns F's
    coefficients and the obstructions (k, eta_k) at even k >= 4.
    """
    ps, qs = _homogeneous_parts(p, n), _homogeneous_parts(q, n)
    dx: dict[int, Homogeneous] = {}
    dy: dict[int, Homogeneous] = {}
    terms: dict[tuple[int, int], GaussianRational] = {}
    obstructions: list[tuple[int, GaussianRational]] = []

    def record(m: int, f: Homogeneous) -> None:
        dx[m] = [(m - r) * f[r] for r in range(m)]
        dy[m] = [(r + 1) * f[r + 1] for r in range(m)]
        terms.update(((m - r, r), c) for r, c in enumerate(f) if c)

    record(2, quadratic)
    for k in range(3, n + 1):
        residual = [GR_ZERO] * (k + 1)
        for m in range(2, k):
            _add_product(residual, ps[k + 1 - m], dx[m])
            _add_product(residual, qs[k + 1 - m], dy[m])
        f, eta = invert(k, [-c for c in residual])
        if k % 2 == 0:
            obstructions.append((k, eta))
        record(k, f)
    return terms, obstructions


def linear_change(f: Poly2, m: Sequence[Sequence[Scalar]]) -> Poly2:
    """f composed with (x, y) -> m @ (x, y); raises SingularMatrix."""
    return f.substitute_linear(m)


def evaluate(f: Poly2, point: Sequence[complex]) -> complex:
    return f.evaluate(point)
