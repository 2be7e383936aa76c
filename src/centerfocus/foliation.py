"""Complex-analytic side: Siegel resonant forms, quadratic blow-up,
formal first integrals, branch factorization and totally real slices.

All symbolic work stays exact; numerics appear only where a value is
inherently a sample (divisor singularities, slice points, contact ranks).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy as sp

from .center import RotationNormalization
from .series import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    InternalError,
    OneForm2,
    Poly2,
    _add_product,
    _homogeneous_parts,
    ensure,
    gr,
    homological_series,
    substitute,
    substitution_root,
)

__all__ = [
    "NotIsolated",
    "SingularPoint",
    "BranchFailure",
    "NoSamples",
    "SiegelForm",
    "DivisorSingularity",
    "BlowupResult",
    "FactorPair",
    "SliceGrid",
    "RealSlice",
    "SliceVerification",
    "complexify",
    "siegel_check",
    "blowup",
    "formal_first_integral_siegel",
    "factor_fg",
    "real_slice",
    "contact_order",
]


class NotIsolated(ValueError):
    """The 1-form's components share a nonunit common factor."""


class SingularPoint(ValueError):
    """The 1-form vanishes at the requested point."""


class BranchFailure(InternalError):
    """Order-by-order branch solve or unit division hit an unsolvable step."""


class NoSamples(RuntimeError):
    """Slice refinement failed at every seed."""


@dataclass(frozen=True)
class SiegelForm:
    """1-form with linear part exactly x dy + y dx, plus how we got there."""

    form: OneForm2
    change_matrix: tuple[tuple[GaussianRational, GaussianRational],
                         tuple[GaussianRational, GaussianRational]]


@dataclass(frozen=True)
class DivisorSingularity:
    chart: str  # "t" (y = t x) or "s" (x = s y)
    location: complex
    eigenvalues: tuple[complex, complex]
    ratio: complex | None  # smaller/larger by modulus


@dataclass(frozen=True)
class BlowupResult:
    chart_t: OneForm2  # A dx + B dt in coordinates (x, t)
    chart_s: OneForm2  # A ds + B dy in coordinates (s, y)
    divided_power_t: int
    divided_power_s: int
    divisor_invariant: bool
    singularities_on_E: list[DivisorSingularity]


@dataclass(frozen=True)
class FactorPair:
    """Branches of a Morse level set: F = f * g * unit to truncation."""

    f: Poly2  # y - a(x)
    g: Poly2  # x - b(y)
    unit: Poly2
    verified_degree: int
    product: Poly2  # f * g * unit, equal to F through verified_degree

    @property
    def general_position(self) -> bool:
        """The degree-1 parts of f and g are linearly independent."""
        f, g = self.f, self.g
        return bool(f.coefficient(1, 0) * g.coefficient(0, 1)
                    - f.coefficient(0, 1) * g.coefficient(1, 0))

    def absorbed(self) -> tuple[Poly2, Poly2]:
        """(f*unit, g): a pair whose plain product equals F to truncation."""
        return self.f * self.unit, self.g


@dataclass(frozen=True)
class SliceGrid:
    radii: tuple[float, ...] = (0.05, 0.08, 0.12, 0.16, 0.2)
    n_angles: int = 12


@dataclass(frozen=True)
class RealSlice:
    """Samples of V2 = (Re f = Re g) cap (Im f = -Im g)."""

    sample_points: list[tuple[complex, complex]]


@dataclass(frozen=True)
class SliceVerification:
    n_samples: int
    n_failed_seeds: int
    max_abs_im_fg: float
    min_re_fg: float
    contact_orders: list[int]
    residual_tol: float


# ---------------------------------------------------------------------------
# complexification


def complexify(norm: RotationNormalization) -> SiegelForm:
    """Promote a normalized real field to its Siegel resonant dual form.

    The substitution x = (u+v)/2, y = -i(u-v)/2 diagonalizes the rotation;
    the dual 1-form q dx - p dy pulls back to a scalar multiple of
    u dv + v du, and the scalar is removed exactly.
    """
    fld = norm.normalized
    w = OneForm2(fld.q.promote_complex(), -fld.p.promote_complex())
    half = Fraction(1, 2)
    m = (
        (gr(half), gr(half)),
        (gr(0, -half), gr(0, half)),
    )
    pulled = w.pullback_linear(m)
    c = pulled.b.coefficient(1, 0)
    ensure(c, "rotational linear part did not survive complexification")
    siegel = pulled.scale(1 / c)
    ensure(siegel_check(siegel), "complexified form is not in Siegel shape")
    return SiegelForm(siegel, m)


def siegel_check(form: OneForm2) -> bool:
    """True iff the linear part is exactly x dy + y dx with no constants."""
    a, b = form.a, form.b
    return (
        not a.coefficient(0, 0)
        and not b.coefficient(0, 0)
        and a.coefficient(0, 1) == gr(1)
        and not a.coefficient(1, 0)
        and b.coefficient(1, 0) == gr(1)
        and not b.coefficient(0, 1)
    )


# ---------------------------------------------------------------------------
# quadratic blow-up

_SX, _SY = sp.symbols("x y")


def _poly_to_sympy(p: Poly2):
    expr = sp.Integer(0)
    for (i, j), c in p.terms.items():
        expr += (sp.Rational(c.re) + sp.Rational(c.im) * sp.I) * _SX**i * _SY**j
    return expr


def _check_isolated(form: OneForm2) -> None:
    if form.a.is_zero() or form.b.is_zero():
        raise NotIsolated("a vanishing component makes the singular set a curve")
    pa = sp.Poly(_poly_to_sympy(form.a), _SX, _SY, domain="QQ_I")
    pb = sp.Poly(_poly_to_sympy(form.b), _SX, _SY, domain="QQ_I")
    g = pa.gcd(pb)
    if g.total_degree() > 0:
        raise NotIsolated(
            f"components share the common factor {g.as_expr()} to truncation"
        )


def _chart_components(form: OneForm2, chart: str) -> tuple[Poly2, Poly2, int]:
    """Substituted, divided chart components and the power divided out.

    Chart "t": y = t x gives [a(x,tx) + t b(x,tx)] dx + x b(x,tx) dt,
    then the maximal common power of x is removed.  Chart "s" mirrors it.
    """
    n = form.truncation_degree
    first: dict[tuple[int, int], GaussianRational] = {}
    second: dict[tuple[int, int], GaussianRational] = {}

    def add(acc, key, val):
        acc[key] = acc.get(key, GR_ZERO) + val

    if chart == "t":
        for (i, j), c in form.a.terms.items():
            add(first, (i + j, j), c)          # a(x, tx) dx
        for (i, j), c in form.b.terms.items():
            add(first, (i + j, j + 1), c)      # t b(x, tx) dx
            add(second, (i + j + 1, j), c)     # x b(x, tx) dt
    else:
        for (i, j), c in form.b.terms.items():
            add(second, (i, i + j), c)         # b(sy, y) dy
        for (i, j), c in form.a.terms.items():
            add(second, (i + 1, i + j), c)     # s a(sy, y) dy
            add(first, (i, i + j + 1), c)      # y a(sy, y) ds
    first = {k: v for k, v in first.items() if v}
    second = {k: v for k, v in second.items() if v}
    axis = 0 if chart == "t" else 1  # exponent of the divisor variable
    m = min(k[axis] for k in list(first) + list(second))
    shift = (lambda k: (k[0] - m, k[1])) if chart == "t" else \
        (lambda k: (k[0], k[1] - m))
    bound = n - m
    comp_a = Poly2(
        {shift(k): v for k, v in first.items()
         if shift(k)[0] + shift(k)[1] <= bound},
        bound, real=False,
    )
    comp_b = Poly2(
        {shift(k): v for k, v in second.items()
         if shift(k)[0] + shift(k)[1] <= bound},
        bound, real=False,
    )
    return comp_a, comp_b, m


def _restrict_to_divisor(p: Poly2, chart: str) -> dict[int, GaussianRational]:
    """Univariate coefficients of p on the exceptional divisor of a chart."""
    if chart == "t":
        return {j: c for (i, j), c in p.terms.items() if i == 0}
    return {i: c for (i, j), c in p.terms.items() if j == 0}


def _uni_roots(coeffs: dict[int, GaussianRational]) -> np.ndarray:
    if not coeffs:
        return np.array([], dtype=complex)
    deg = max(coeffs)
    arr = np.zeros(deg + 1, dtype=complex)
    for k, c in coeffs.items():
        arr[deg - k] = c.to_complex()
    roots = np.roots(arr) if deg >= 1 else np.array([], dtype=complex)
    return roots


def _uni_eval(coeffs: dict[int, GaussianRational], z: complex) -> complex:
    return sum(c.to_complex() * z**k for k, c in coeffs.items())


def _divisor_singularities(chart: str, comp_a: Poly2,
                           comp_b: Poly2) -> list[DivisorSingularity]:
    a0 = _restrict_to_divisor(comp_a, chart)
    b0 = _restrict_to_divisor(comp_b, chart)
    if not a0 and not b0:
        return []
    base = a0 if a0 else b0
    other = b0 if a0 else a0
    candidates: list[complex] = []
    for r in _uni_roots(base):
        scale = 1.0 + abs(r) ** max(other, default=0)
        if not other or abs(_uni_eval(other, r)) <= 1e-8 * scale:
            candidates.append(complex(r))
    # dedupe numerically coincident roots
    unique: list[complex] = []
    for c in candidates:
        if all(abs(c - u) > 1e-7 * (1 + abs(c)) for u in unique):
            unique.append(c)
    return [_linearize(chart, comp_a, comp_b, loc) for loc in unique]


def _linearize(chart, comp_a, comp_b, loc: complex) -> DivisorSingularity:
    # dual field of A dx + B dt is (B, -A); its Jacobian at the point
    if chart == "t":
        point = (0.0, loc)
    else:
        point = (loc, 0.0)
    j11 = comp_b.diff_x().evaluate(point)
    j12 = comp_b.diff_y().evaluate(point)
    j21 = -comp_a.diff_x().evaluate(point)
    j22 = -comp_a.diff_y().evaluate(point)
    eig = np.linalg.eigvals(np.array([[j11, j12], [j21, j22]], dtype=complex))
    e1, e2 = sorted(eig, key=abs)
    ratio = None if abs(e2) < 1e-12 else complex(e1 / e2)
    return DivisorSingularity(chart, loc, (complex(e1), complex(e2)), ratio)


def blowup(form: OneForm2) -> BlowupResult:
    """Quadratic blow-up in the two affine charts.

    Substitutes y = t x (and x = s y), removes the maximal common power of
    the divisor variable, decides divisor invariance exactly, and locates
    the singular points on the exceptional divisor with their linearized
    eigenvalues.  Chart s contributes only the point s = 0 that chart t
    cannot see.
    """
    if form.a.coefficient(0, 0) or form.b.coefficient(0, 0):
        raise ValueError("1-form does not vanish at the origin")
    _check_isolated(form)
    at, bt, mt = _chart_components(form, "t")
    as_, bs, ms = _chart_components(form, "s")
    # E = {x = 0} is invariant iff the dt-component vanishes on it
    invariant_t = not _restrict_to_divisor(bt, "t")
    invariant_s = not _restrict_to_divisor(as_, "s")
    ensure(invariant_t == invariant_s,
           "charts disagree on divisor invariance")
    sings = _divisor_singularities("t", at, bt)
    sings += _divisor_singularities_chart_s(as_, bs)
    return BlowupResult(
        chart_t=OneForm2(at, bt),
        chart_s=OneForm2(as_, bs),
        divided_power_t=mt,
        divided_power_s=ms,
        divisor_invariant=invariant_t,
        singularities_on_E=sings,
    )


def _divisor_singularities_chart_s(as_: Poly2, bs: Poly2) -> list[DivisorSingularity]:
    # only the origin of chart s (t = infinity) is new
    a0 = _restrict_to_divisor(as_, "s")
    b0 = _restrict_to_divisor(bs, "s")
    singular = not a0.get(0, GR_ZERO) and not b0.get(0, GR_ZERO)
    if not singular:
        return []
    return [_linearize("s", as_, bs, 0j)]


# ---------------------------------------------------------------------------
# formal first integral in the Siegel resonant case


def wedge_coefficient(f: Poly2, form: OneForm2) -> Poly2:
    """Coefficient of dx^dy in df ^ form, i.e. f_x b - f_y a."""
    return f.diff_x() * form.b - f.diff_y() * form.a


def _siegel_inverse(
    k: int, rhs: list[GaussianRational]
) -> tuple[list[GaussianRational], GaussianRational | None]:
    """Solve L f - eta (xy)^(k/2) = rhs for L = x d/dx - y d/dy on degree k.

    L multiplies x^(k-r) y^r by k - 2r, so every nonresonant coefficient
    is one division; the resonant (xy)^(k/2) gets no component in f and
    its right-hand side gives eta.
    """
    f = [GR_ZERO] * (k + 1)
    eta = None
    for r, c in enumerate(rhs):
        if 2 * r == k:
            eta = -c
        elif c:
            f[r] = c / (k - 2 * r)
    return f, eta


def formal_first_integral_siegel(
    form: OneForm2, n: int
) -> tuple[Poly2, list[tuple[int, GaussianRational]]]:
    """Seek F = xy + ... with dF ^ form = 0 to degree n.

    The wedge coefficient F_x b - F_y a is the Lie derivative of F along
    the dual field (b, -a), whose linear part x d/dx - y d/dy acts
    diagonally on monomials with eigenvalue i - j.  `series.
    homological_series` forms at each degree k only the new degree-k
    residual R_k of the wedge of F_2 + ... + F_(k-1), and every
    nonresonant coefficient of F_k is -R_k / (i - j) (`_siegel_inverse`).
    The resonant (xy)^j coefficients of the residual are returned as the
    obstruction list (all zero iff a formal first integral exists to this
    order); F's own (xy)^j coefficients are fixed to zero.  One full wedge
    of F at the end checks the result exactly.
    """
    if not siegel_check(form):
        raise ValueError("form is not in Siegel resonant shape")
    if form.truncation_degree < n:
        raise ValueError(
            f"form truncated at {form.truncation_degree}; lift it to {n} first"
        )
    f_terms, obstructions = homological_series(
        form.b, -form.a, [GR_ZERO, gr(1), GR_ZERO], n, _siegel_inverse)
    first_integral = Poly2(f_terms, n, real=False)
    # exact consistency guard: dF ^ form must equal the obstruction series
    check = wedge_coefficient(first_integral.lift(n + 1), form)
    expected = Poly2({(k // 2, k // 2): eta for k, eta in obstructions}, n)
    ensure(check.truncate(n) == expected,
           "Siegel obstruction decomposition failed")
    return first_integral, obstructions


# ---------------------------------------------------------------------------
# branch factorization F = f g unit


def _solve_branch(F: Poly2, solve_for_y: bool) -> dict[int, GaussianRational]:
    """The branch y = a(x) (or x = b(y)) of F = 0 through degree m - 1.

    a_k is read off the degree-(k+1) coefficient of F(x, a(x)), where it
    enters through the xy term alone (`series.substitution_root`).  One
    full substitution of the solved branch then checks that F vanishes
    on it through degree m.
    """
    m = F.truncation_degree
    terms = [((i, j, c) if solve_for_y else (j, i, c))
             for (i, j), c in F.terms.items()]
    branch = substitution_root(terms, 1, m)
    resid = substitute(terms, [{0: GR_ONE}, branch], m)
    if resid:
        raise BranchFailure(
            f"branch residual has unexpected low-order terms {sorted(resid)}"
        )
    return branch


def _solve_unit(F: Poly2, prod: Poly2) -> Poly2:
    """u with F = prod * u through degree m - 1, for prod = xy + h.o.t.

    At degree d only [F - prod u]_(d+2) = F_(d+2) - sum_(e<d)
    prod_(d+2-e) u_e is formed, from homogeneous parts, and divided by xy
    to give u_d.
    """
    m = F.truncation_degree
    fs, ps = _homogeneous_parts(F, m - 1), _homogeneous_parts(prod, m - 1)
    units: list[list[GaussianRational]] = []
    for d in range(m - 2):
        known = [GR_ZERO] * (d + 3)
        for e, u in enumerate(units):
            _add_product(known, ps[d + 2 - e], u)
        resid = [c - k for c, k in zip(fs[d + 2], known)]
        for r in (0, d + 2):
            if resid[r]:
                raise BranchFailure(f"residual term x^{d + 2 - r} y^{r} "
                                    "is not divisible by xy")
        units.append(resid[1:-1])
    return Poly2({(d - r, r): c for d, u in enumerate(units)
                  for r, c in enumerate(u)}, m - 3, real=False)


def factor_fg(F: Poly2, n: int) -> FactorPair:
    """Split a Morse level set F = xy + h.o.t. into its two branches.

    Solves F(x, a(x)) = 0 and F(b(y), y) = 0 degree by degree, returns
    f = y - a(x), g = x - b(y) together with the unit making
    F = f * g * unit hold exactly to degree n.  Each degree of a branch
    or of the unit costs one new coefficient, not a new product or
    substitution; one full substitution per branch and the reconstruction
    f * g * unit check the result exactly.  Requires F to be known to
    degree n + 3 (lift exact polynomials first).
    """
    if (F.coefficient(0, 0) or F.coefficient(1, 0) or F.coefficient(0, 1)
            or F.coefficient(2, 0) or F.coefficient(0, 2)
            or F.coefficient(1, 1) != gr(1)):
        raise ValueError("F must be xy + higher order terms")
    m = F.truncation_degree
    if m < n + 3:
        raise ValueError(f"F truncated at {m}; degree {n + 3} is needed "
                         f"to verify the factorization to degree {n}")
    a = _solve_branch(F, solve_for_y=True)
    b = _solve_branch(F, solve_for_y=False)
    f = Poly2({(0, 1): gr(1), **{(k, 0): -c for k, c in a.items()}},
              m - 1, real=False)
    g = Poly2({(1, 0): gr(1), **{(0, k): -c for k, c in b.items()}},
              m - 1, real=False)
    prod = f * g
    unit = _solve_unit(F, prod)
    product = prod * unit
    if product.truncate(n) != F.truncate(n).promote_complex():
        raise BranchFailure("f * g * unit fails to reconstruct F")
    return FactorPair(f, g, unit, n, product)


# ---------------------------------------------------------------------------
# totally real slice sampling

# Gauss-Newton on the slice stops at a residual norm of _RESIDUAL_TOL,
# gives a seed up when a step falls below _STEP_TOL before that, or after
# _MAX_ITER steps.
_RESIDUAL_TOL, _STEP_TOL, _MAX_ITER = 1e-10, 1e-12, 60


class _CEval:
    """Binary64 evaluation of a Poly2 and its partial derivatives."""

    def __init__(self, p: Poly2):
        self.value = p.binary64()
        self._dx, self._dy = p.diff_x().binary64(), p.diff_y().binary64()

    def grad(self, x, y):
        return self._dx(x, y), self._dy(x, y)


def _slice_residual(h1: _CEval, h2: _CEval, u: np.ndarray) -> np.ndarray:
    x = complex(u[0], u[1])
    y = complex(u[2], u[3])
    return np.array([h1.value(x, y).real, h2.value(x, y).imag])


def _slice_jacobian(h1: _CEval, h2: _CEval, u: np.ndarray) -> np.ndarray:
    x = complex(u[0], u[1])
    y = complex(u[2], u[3])
    d1x, d1y = h1.grad(x, y)
    d2x, d2y = h2.grad(x, y)
    # for analytic h: d/d(Re x) = h_x, d/d(Im x) = i h_x
    return np.array([
        [d1x.real, -d1x.imag, d1y.real, -d1y.imag],
        [d2x.imag, d2x.real, d2y.imag, d2y.real],
    ])


def _refine(h1, h2, u0):
    u = np.asarray(u0, dtype=float)
    r = _slice_residual(h1, h2, u)
    for _ in range(_MAX_ITER):
        if np.linalg.norm(r) <= _RESIDUAL_TOL:
            return u
        jac = _slice_jacobian(h1, h2, u)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam = 1.0
        while lam > 2 ** -20:
            trial = u + lam * step
            rt = _slice_residual(h1, h2, trial)
            if np.linalg.norm(rt) < np.linalg.norm(r):
                u, r = trial, rt
                break
            lam /= 2
        else:
            return None
        if np.linalg.norm(lam * step) < _STEP_TOL and \
                np.linalg.norm(r) > _RESIDUAL_TOL:
            return None
    return u if np.linalg.norm(r) <= _RESIDUAL_TOL else None


def real_slice(
    pair: FactorPair, grid: SliceGrid = SliceGrid(),
) -> tuple[RealSlice, SliceVerification]:
    """Sample the totally real surface Re f = Re g, Im f = -Im g.

    The unit is absorbed into f so that the product of the pair equals the
    first integral; damped Gauss-Newton refinement is run from a polar
    seed grid around the model slice y = conj(x).  Each converged sample
    is checked for a real, nonnegative product and for contact order one
    of the level foliation with the slice, whose gradient is that of the
    pair's checked product.
    """
    if not pair.general_position:
        raise ValueError("branches must be in general position")
    fa, gb = pair.absorbed()
    h1 = _CEval(fa - gb)
    h2 = _CEval(fa + gb)
    fa_ev, gb_ev = fa.binary64(), gb.binary64()
    dx_ev = pair.product.diff_x().binary64()
    dy_ev = pair.product.diff_y().binary64()
    samples: list[tuple[complex, complex]] = []
    bases: list[np.ndarray] = []
    failed = 0
    for r in grid.radii:
        for kk in range(grid.n_angles):
            theta = 2 * np.pi * kk / grid.n_angles
            x0 = r * np.exp(1j * theta)
            u0 = [x0.real, x0.imag, x0.real, -x0.imag]  # y = conj(x)
            u = _refine(h1, h2, u0)
            if u is None:
                failed += 1
                continue
            x = complex(u[0], u[1])
            y = complex(u[2], u[3])
            samples.append((x, y))
            jac = _slice_jacobian(h1, h2, u)
            _, _, vh = np.linalg.svd(jac)
            bases.append(vh[2:])  # nullspace rows span the tangent plane
    if not samples:
        raise NoSamples("no seed converged to the slice")
    max_im = 0.0
    min_re = float("inf")
    contact = []
    for (x, y), basis in zip(samples, bases):
        val = fa_ev(x, y) * gb_ev(x, y)
        max_im = max(max_im, abs(val.imag))
        min_re = min(min_re, val.real)
        contact.append(_contact_order(dx_ev(x, y), dy_ev(x, y), (x, y),
                                      (basis[0], basis[1])))
    return (
        RealSlice(samples),
        SliceVerification(len(samples), failed, max_im, min_re, contact,
                          _RESIDUAL_TOL),
    )


def contact_order(form: OneForm2, point, tangent_basis) -> int:
    """Real dimension of (leaf tangent) cap (surface tangent) at a point.

    The leaf tangent of a dx + b dy = 0 is the complex line (-b, a),
    viewed as a real 2-plane in R^4 with coordinates
    (Re x, Im x, Re y, Im y).  a and b are evaluated in binary64
    (`Poly2.binary64`), as their values only feed a rank test with
    tolerance 1e-8.  Returns 0 (transverse), 1 (totally real
    non-invariant) or 2 (invariant direction).
    """
    x, y = complex(point[0]), complex(point[1])
    return _contact_order(form.a.binary64()(x, y), form.b.binary64()(x, y),
                          point, tangent_basis)


def _contact_order(av: complex, bv: complex, point, tangent_basis) -> int:
    """`contact_order` from the values a, b of the form at the point."""
    x, y = complex(point[0]), complex(point[1])
    if x == 0 and y == 0:
        raise ValueError("contact order is defined away from the origin")
    if max(abs(av), abs(bv)) <= 1e-12:
        raise SingularPoint(f"form vanishes at {point}")
    w = np.array([-bv, av], dtype=complex)
    w1 = np.array([w[0].real, w[0].imag, w[1].real, w[1].imag])
    iw = 1j * w
    w2 = np.array([iw[0].real, iw[0].imag, iw[1].real, iw[1].imag])
    rows = [w1 / np.linalg.norm(w1), w2 / np.linalg.norm(w2)]
    for t in tangent_basis:
        t = np.asarray(t, dtype=float)
        rows.append(t / np.linalg.norm(t))
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-8)
    return 4 - rank
