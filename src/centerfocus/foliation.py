"""Complex-analytic side: Siegel resonant forms, quadratic blow-up,
formal first integrals, branch factorization and totally real slices.

`complexify` returns the Siegel resonant 1-form of a normalized real
field itself; the change of coordinates is the constant SIEGEL_CHANGE.
`blowup` computes one chart and reads the other off the form with x and
y exchanged.  `real_slice` returns its samples with their verification.

All symbolic work stays exact, down to which points lie on the blow-up
divisor and which root is multiple; numerics appear only where a value is a
sample (slice points, contact ranks).  sympy is imported where it is used.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .series import (
    GaussianRational,
    InternalError,
    NumericFailure,
    OneForm2,
    Poly2,
    Scaled,
    VectorField2,
    _accumulate,
    _bilinear,
    _gdot,
    _primitive,
    binary64,
    ensure,
    gr,
    homological_series,
    lie_derivative,
    power_rows,
    substitute,
    substitution_root,
)

if TYPE_CHECKING:  # an annotation only: `slice` runs without `center`
    from .center import RotationNormalization

__all__ = [
    "NotIsolated",
    "SingularPoint",
    "BranchFailure",
    "NoSamples",
    "SIEGEL_CHANGE",
    "DivisorSingularity",
    "BlowupResult",
    "FactorPair",
    "SliceGrid",
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


class NoSamples(NumericFailure):
    """Slice refinement failed at every seed."""


class DivisorSingularity(NamedTuple):
    chart: str  # "t" (y = t x) or "s" (x = s y)
    location: complex
    eigenvalues: tuple[complex, complex]
    ratio: complex | None  # smaller/larger by modulus


class BlowupResult(NamedTuple):
    chart_t: OneForm2  # A dx + B dt in coordinates (x, t)
    chart_s: OneForm2  # A ds + B dy in coordinates (s, y)
    divided_power_t: int
    divided_power_s: int
    divisor_invariant: bool
    singularities_on_E: list[DivisorSingularity]


class FactorPair(NamedTuple):
    """Branches of a Morse level set: F = f * g * unit to truncation."""

    f: Poly2  # y - a(x)
    g: Poly2  # x - b(y)
    unit: Poly2

    @property
    def general_position(self) -> bool:
        """The degree-1 parts of f and g are linearly independent: read
        off their Gaussian integers, as each part has one denominator."""
        f1, g1 = ({r: (x, y) for r, x, y in p.parts.get(1, (1, []))[1]}
                  for p in (self.f, self.g))
        return _gdot([(f1.get(0, (0, 0)), g1.get(1, (0, 0)))]) \
            != _gdot([(f1.get(1, (0, 0)), g1.get(0, (0, 0)))])

    def absorbed(self) -> tuple[Poly2, Poly2]:
        """(f*unit, g): a pair whose plain product equals F to truncation."""
        return self.f * self.unit, self.g


class SliceGrid(NamedTuple):
    radii: tuple[float, ...] = (0.05, 0.08, 0.12, 0.16, 0.2)
    n_angles: int = 12


class SliceVerification(NamedTuple):
    n_samples: int
    n_failed_seeds: int
    max_abs_im_fg: float
    min_re_fg: float
    contact_orders: list[int]
    residual_tol: float


# ---------------------------------------------------------------------------
# complexification


# x = (u+v)/2, y = -i(u-v)/2: (x, y) = SIEGEL_CHANGE @ (u, v)
SIEGEL_CHANGE = ((gr(Fraction(1, 2)), gr(Fraction(1, 2))),
                 (gr(0, Fraction(-1, 2)), gr(0, Fraction(1, 2))))


def complexify(norm: RotationNormalization) -> OneForm2:
    """Promote a normalized real field to its Siegel resonant dual form.

    The substitution SIEGEL_CHANGE diagonalizes the rotation; the dual
    1-form q dx - p dy pulls back to a scalar multiple of u dv + v du,
    and the scalar is removed exactly.
    """
    pulled = norm.normalized.dual_form().pullback_linear(SIEGEL_CHANGE)
    c = pulled.b.coefficient(1, 0)
    ensure(c, "rotational linear part did not survive complexification")
    siegel = pulled.scale(1 / c)
    ensure(siegel_check(siegel), "complexified form is not in Siegel shape")
    return siegel


def siegel_check(form: OneForm2) -> bool:
    """True iff the linear part is exactly x dy + y dx with no constants:
    a's degree-1 part is y and b's is x, each in its primitive form."""
    a, b = form.a.parts, form.b.parts
    return 0 not in a and 0 not in b and a.get(1) == (1, [(1, 1, 0)]) \
        and b.get(1) == (1, [(0, 1, 0)])


# ---------------------------------------------------------------------------
# quadratic blow-up

def _poly_to_sympy(p: Poly2):
    """p as a sympy polynomial in x, y over Q(i)."""
    import sympy as sp
    sx, sy = sp.symbols("x y")
    expr = sp.Integer(0)
    for i, j, x, y, den in p.scaled_terms():
        expr += (sp.Rational(x, den) + sp.Rational(y, den) * sp.I) \
            * sx**i * sy**j
    return sp.Poly(expr, sx, sy, domain="QQ_I")


def _check_isolated(form: OneForm2) -> None:
    if form.a.is_zero() or form.b.is_zero():
        raise NotIsolated("a vanishing component makes the singular set a curve")
    # a common factor that does not vanish at the origin is a unit there
    g = _poly_to_sympy(form.a).gcd(_poly_to_sympy(form.b))
    if not g.coeff_monomial(1):
        raise NotIsolated(
            f"components share the common factor {g.as_expr()} to truncation"
        )


def _chart_components(form: OneForm2) -> tuple[Poly2, Poly2, int]:
    """Chart t components and the power of x divided out.

    y = t x takes x^(d-r) y^r to x^d t^r and gives [a(x,tx) + t b(x,tx)]
    dx + x b(x,tx) dt, read off the stored integers of x a + y b (over x)
    and b; then the maximal common power of x is removed.
    """
    n = form.truncation_degree
    x, y = Poly2.var_x(1), Poly2.var_y(1)
    # each component with the power of x its degree-d part gains: x^(d+s)
    comps = ((_bilinear([(form.a, x), (form.b, y)], n + 1), -1), (form.b, 1))
    m = min(d + s for p, s in comps for d in p.parts)
    return (*(Poly2({(i + j + s - m, j): (re, im, den)
                     for i, j, re, im, den in p.scaled_terms()
                     if i + 2 * j + s <= n}, n - m)
              for p, s in comps), m)


def _on_divisor(p: Poly2) -> Poly2:
    """p on the exceptional divisor x = 0: its terms in y alone."""
    return Poly2._of([(d, (den, [e for e in row if e[0] == d]))
                      for d, (den, row) in p.parts.items()],
                     p.truncation_degree)


def _divisor_singularities(comp_a: Poly2,
                           comp_b: Poly2) -> list[DivisorSingularity]:
    """One point per distinct root of h = gcd(a0, b0), a0 and b0 the
    components on E (b0 = 0 when E is invariant): the roots of each
    square-free factor of h (over QQ if its coefficients are rational),
    rounded once from `nroots` at a precision doubled from 17 digits until
    two in a row round alike, as clustered roots need.  Each point is
    linearized at its root to that precision, not at its rounding."""
    import sympy as sp
    a0, b0 = (_poly_to_sympy(_on_divisor(p)) for p in (comp_a, comp_b))
    sings = []
    for factor, k in a0.gcd(b0).sqf_list()[1]:
        factor, locs = factor.exclude().retract(), None
        for n in (17, 34, 68, 136, 272):
            roots, last = factor.nroots(n=n), locs
            locs = [complex(r) for r in roots]
            if locs == last:
                break
        for root in roots:
            at = gr(*map(sp.Rational, root.as_real_imag()))
            sings.append(_linearize("t", comp_a, comp_b, at, k > 1))
    return sings


def _linearize(chart, comp_a, comp_b, at: GaussianRational,
               multiple: bool = False) -> DivisorSingularity:
    # dual field of A dx + B dt is (B, -A); its Jacobian at the exact point
    # (0, at), each entry rounded once.  On E, dt B and dt A are b0' and
    # a0', both 0 at a multiple root of h
    loc, point = at.to_complex(), (0.0, at)
    j11 = comp_b.diff_x().evaluate(point)
    j21 = -comp_a.diff_x().evaluate(point)
    j12, j22 = (0j, 0j) if multiple else (comp_b.diff_y().evaluate(point),
                                          -comp_a.diff_y().evaluate(point))
    if j12 == 0 or j21 == 0:  # triangular, as on an invariant E
        eig = (j11, j22)
    else:
        mean = (j11 + j22) / 2
        root = cmath.sqrt(((j11 - j22) / 2) ** 2 + j12 * j21)
        eig = (mean - root, mean + root)
    e1, e2 = sorted(eig, key=abs)
    ratio = None if abs(e2) < 1e-12 else complex(e1 / e2)
    return DivisorSingularity(chart, loc, (complex(e1), complex(e2)), ratio)


def blowup(form: OneForm2) -> BlowupResult:
    """Quadratic blow-up in the two affine charts.

    Substitutes y = t x, removes the maximal common power of x, decides
    divisor invariance exactly, and locates the singular points on the
    exceptional divisor with their linearized eigenvalues.  Chart s
    (x = s y) is chart t of the form with x and y exchanged, its
    components exchanged back; it contributes only the point s = 0 that
    chart t cannot see, linearized in (s, y), since the exchange reverses
    the sign of the eigenvalues.
    """
    if 0 in form.a.parts or 0 in form.b.parts:
        raise ValueError("1-form does not vanish at the origin")
    _check_isolated(form)
    at, bt, mt = _chart_components(form)
    # chart t of the exchanged form: the dy- and ds-components in (y, s)
    dy, ds, ms = _chart_components(OneForm2(form.b.swapped(),
                                            form.a.swapped()))
    as_, bs = ds.swapped(), dy.swapped()
    # E = {x = 0} is invariant iff the dt-component vanishes on it
    invariant_t = _on_divisor(bt).is_zero()
    ensure(invariant_t == _on_divisor(ds).is_zero(),
           "charts disagree on divisor invariance")
    sings = _divisor_singularities(at, bt)
    if 0 not in as_.parts and 0 not in bs.parts:
        sings.append(_linearize("s", as_, bs, gr(0)))
    return BlowupResult(
        chart_t=OneForm2(at, bt),
        chart_s=OneForm2(as_, bs),
        divided_power_t=mt,
        divided_power_s=ms,
        divisor_invariant=invariant_t,
        singularities_on_E=sings,
    )


# ---------------------------------------------------------------------------
# formal first integral in the Siegel resonant case


def wedge_coefficient(f: Poly2, form: OneForm2) -> Poly2:
    """Coefficient of dx^dy in df ^ form, i.e. f_x b - f_y a: the Lie
    derivative of f along the dual field (b, -a)."""
    return lie_derivative(VectorField2(form.b, -form.a), f)


def _siegel_inverse(k: int, rhs: Scaled) -> tuple[Scaled, Scaled]:
    """Solve L f - eta (xy)^(k/2) = rhs for L = x d/dx - y d/dy on degree k.

    L multiplies x^(k-r) y^r by k - 2r, so every nonresonant coefficient
    is one division, exact over rhs's denominator times the lcm w of the
    k - 2r; the resonant (xy)^(k/2) gets no f, and minus its rhs entry is
    the part eta (xy)^(k/2).
    """
    den, row = rhs
    w = math.lcm(*[k - 2 * r for r, _, _ in row if 2 * r != k])
    return (den * w, [(r, x * (w // (k - 2 * r)), y * (w // (k - 2 * r)))
                      for r, x, y in row if 2 * r != k]), \
        (den, [(r, -x, -y) for r, x, y in row if 2 * r == k])


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
    first_integral, etas = homological_series(  # F_2 = xy
        form.b, -form.a, (1, [(1, 1, 0)]), n, _siegel_inverse)
    # exact consistency guard: dF ^ form must equal the obstruction series
    ensure(wedge_coefficient(first_integral.lift(n + 1), form) == etas,
           "Siegel obstruction decomposition failed")
    return first_integral, [(k, etas.coefficient(k // 2, k // 2))
                            for k in range(4, n + 1, 2)]


# ---------------------------------------------------------------------------
# branch factorization F = f g unit


def _solve_branch(F: Poly2) -> Poly2:
    """The branch y = a(x) of F = 0, a series in x truncated one degree
    below F.

    a_k is read off the degree-(k+1) coefficient of F(x, a(x)), where it
    enters through the xy term alone (`series.substitution_root`).  One
    full substitution of the solved branch then checks that F vanishes
    on it through F's degree.
    """
    m = F.truncation_degree
    branch = substitution_root(F, 1, m)
    resid = substitute(F, power_rows(branch), m)
    if not resid.is_zero():
        raise BranchFailure("branch residual has unexpected low-order "
                            f"terms {sorted(resid.parts)}")
    return branch


def _solve_unit(F: Poly2, prod: Poly2) -> Poly2:
    """u with F = prod * u through degree m - 1, for prod = xy + h.o.t.

    At degree d only [F - prod u]_(d+2) = F_(d+2) - sum_(e<d)
    prod_(d+2-e) u_e is formed on Gaussian integers from homogeneous
    parts (F_(d+2) times 1 plus the -prod parts) and divided by xy.
    """
    m = F.truncation_degree
    neg = (-prod).parts
    units: list[Scaled] = []  # u_0, u_1, ...
    for d in range(m - 2):
        den, resid = _accumulate(
            [(F.parts.get(d + 2, (1, [])), (1, [(0, 1, 0)]))]
            + [(neg[d + 2 - e], u) for e, u in enumerate(units)
               if d + 2 - e in neg], d + 2)
        for r, _, _ in resid:
            if r in (0, d + 2):
                raise BranchFailure(f"residual term x^{d + 2 - r} y^{r} "
                                    "is not divisible by xy")
        units.append(_primitive(den, [(r - 1, x, y) for r, x, y in resid]))
    return Poly2._of(enumerate(units), m - 3)


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
    if 0 in F.parts or 1 in F.parts or F.parts.get(2) != (1, [(1, 1, 0)]):
        raise ValueError("F must be xy + higher order terms")
    m = F.truncation_degree
    if m < n + 3:
        raise ValueError(f"F truncated at {m}; degree {n + 3} is needed "
                         f"to verify the factorization to degree {n}")
    f = Poly2.var_y(m - 1) - _solve_branch(F)
    g = Poly2.var_x(m - 1) - _solve_branch(F.swapped()).swapped()  # x = b(y)
    prod = f * g
    unit = _solve_unit(F, prod)
    if (prod * unit).truncate(n) != F.truncate(n):
        raise BranchFailure("f * g * unit fails to reconstruct F")
    return FactorPair(f, g, unit)


# ---------------------------------------------------------------------------
# totally real slice sampling

_RESIDUAL_TOL, _MAX_ITER, _HALVINGS = 1e-10, 60, 10  # of Newton on the slice


def _dot(a, b):  # of two vectors of R^4
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _off(t, q):
    """t less its projection on the span of the orthonormal rows q."""
    c = [_dot(v, t) for v in q]
    return tuple([t[i] - sum(k * v[i] for k, v in zip(c, q))
                  for i in range(4)])


def _lq(a, b):
    """Gram-Schmidt on M = (a; b): its singular values s1 >= s2 and an
    orthonormal basis of its rows, or None if s2 <= 4 eps s1 (`lstsq`)."""
    l11 = math.hypot(*a)
    if not l11:
        return (math.hypot(*b), 0.0), None
    q1 = tuple([x / l11 for x in a])
    l21, v = _dot(q1, b), _off(b, [q1])
    l22 = math.hypot(*v)
    s1 = (math.hypot(l11 + l22, l21) + math.hypot(l11 - l22, l21)) / 2
    s2 = l11 * l22 / s1
    q = (q1, tuple([x / l22 for x in v])) if s2 > 2.0 ** -50 * s1 else None
    return (s1, s2), q


def _cramer(d, r1, r2):
    """J^-1 (r1, r2) by Cramer's rule for J = ((d[2], d[3]), (d[4], d[5])),
    or None if J is singular to working precision."""
    det = d[2] * d[5] - d[3] * d[4]
    if not abs(det) > 2.0 ** -50 * max(map(abs, d[2:])) ** 2:
        return None
    return (d[5] * r1 - d[3] * r2) / det, (d[2] * r2 - d[4] * r1) / det


def _refine(evaluate, w, halvings=0):
    """Newton on Phi = (f*unit, g) = (conj w, w) from (x, y) = (w, conj w)
    to a residual norm of _RESIDUAL_TOL: the sample and the values d there
    (`evaluate`), or None at a singular J or after _MAX_ITER steps.  With
    halvings > 0 a step that leaves the residual norm no lower is halved,
    and the seed fails once `halvings` halvings have not lowered it."""
    def at(x, y):
        d = evaluate(x, y)
        r = (w.conjugate() - d[0], w - d[1])
        return (x, y), d, r, math.hypot(abs(r[0]), abs(r[1]))

    point, d, r, norm = at(w, w.conjugate())
    for _ in range(_MAX_ITER + 1):
        step = _cramer(d, *r)
        if step is None:
            return None
        if norm <= _RESIDUAL_TOL:
            return point, d
        for _ in range(halvings + 1):  # the full step first, as it is
            trial = at(point[0] + step[0], point[1] + step[1])
            if trial[3] < norm or not halvings:
                break
            step = (step[0] / 2, step[1] / 2)
        else:
            return None
        point, d, r, norm = trial
    return None


def real_slice(
    pair: FactorPair, grid: SliceGrid = SliceGrid(),
) -> tuple[list[tuple[complex, complex]], SliceVerification]:
    """Sample V2 = {f*unit = conj(g)}, a totally real surface: Newton
    (`_refine`) from a polar grid of w solves Phi = (conj w, w) for the
    local biholomorphism Phi = (f*unit, g) of `FactorPair.absorbed`.  Each
    sample is checked for a real, nonnegative product P of the pair and for
    contact order one of dP = g d(f*unit) + f*unit dg with V2, whose
    tangent plane is spanned by J^-1 (1, 1) and J^-1 (-i, i), J = Phi'.
    Returns the samples (x, y) and their verification."""
    if not pair.general_position:
        raise ValueError("branches must be in general position")
    fa, gb = pair.absorbed()
    evaluate = binary64(fa, gb, fa.diff_x(), fa.diff_y(), gb.diff_x(),
                        gb.diff_y())
    samples, contact, failed, max_im, min_re = [], [], 0, 0.0, float("inf")
    for w in [r * cmath.exp(2j * math.pi * k / grid.n_angles)
              for r in grid.radii for k in range(grid.n_angles)]:
        # full steps as long as they converge, halved ones where they fail
        found = _refine(evaluate, w) or _refine(evaluate, w, _HALVINGS)
        if found is None:
            failed += 1
            continue
        point, d = found
        fv, gv, ax, ay, bx, by = d
        samples.append(point)
        max_im = max(max_im, abs((fv * gv).imag))
        min_re = min(min_re, (fv * gv).real)
        basis = [[c for z in _cramer(d, *v) for c in (z.real, z.imag)]
                 for v in ((1, 1), (-1j, 1j))]
        contact.append(_contact_order(gv * ax + fv * bx, gv * ay + fv * by,
                                      point, basis))
    if not samples:
        raise NoSamples("no seed converged to the slice")
    return samples, SliceVerification(len(samples), failed, max_im, min_re,
                                      contact, _RESIDUAL_TOL)


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
    return _contact_order(*binary64(form.a, form.b)(x, y), point,
                          tangent_basis)


def _contact_order(av: complex, bv: complex, point, tangent_basis) -> int:
    """`contact_order` from the values a, b of the form at the point: 2
    less the principal angles between line and plane whose sine exceeds
    sqrt(2) 1e-8, as `matrix_rank(tol=1e-8)` counts on four unit rows."""
    x, y = complex(point[0]), complex(point[1])
    if x == 0 and y == 0:
        raise ValueError("contact order is defined away from the origin")
    if max(abs(av), abs(bv)) <= 1e-12:
        raise SingularPoint(f"form vanishes at {point}")
    w = (-bv.real, -bv.imag, av.real, av.imag)  # the leaf line: w and iw
    line = _lq(w, (-w[1], w[0], -w[3], w[2]))[1]
    plane = _lq(*tangent_basis)[1]
    if plane is None:
        raise ValueError("the tangent basis does not span a plane")
    # the plane's rows off the line: their singular values are the sines
    sines = _lq(*[_off(t, line) for t in plane])[0]
    return 2 - sum(s > math.sqrt(2) * 1e-8 for s in sines)
