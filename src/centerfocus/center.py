"""Symbolic center-focus certification for rotational planar singularities.

Normalizes the linear part to the standard rotation, builds a formal first
integral F = x^2 + y^2 + ... degree by degree, and reads off the exact
obstruction coefficients along powers of x^2 + y^2.  All obstructions zero
up to the truncation order means "center to order N"; the first nonzero
one certifies a focus together with its sign.

Degree k of F solves L F_k = eta_k (x^2+y^2)^(k/2) - R_k, where R_k is the
degree-k part of X(F_2 + ... + F_(k-1)) and L = -y d/dx + x d/dy.  L is
tridiagonal with zero diagonal on the monomials of degree k, so a two-term
recurrence inverts it in O(k) exact operations (`_rotation_inverse`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import (
    GR_ZERO,
    GaussianRational,
    Poly2,
    VectorField2,
    ensure,
    gr,
    homological_series,
    lie_derivative,
)

__all__ = [
    "NotARotation",
    "IrrationalRotationFrequency",
    "RotationNormalization",
    "LyapunovReport",
    "MorseReport",
    "CenterVerdict",
    "normalize_rotation",
    "lyapunov_quantities",
    "morse_check",
    "certify_center",
]


class NotARotation(ValueError):
    """The linear part does not generate a rotation (trace != 0 or det <= 0)."""


class IrrationalRotationFrequency(ValueError):
    """The linear part is a rotation but its frequency sqrt(det) is not
    rational, so the normalization cannot be carried out exactly."""


@dataclass(frozen=True)
class RotationNormalization:
    """Exact conjugation of a rotational field to (-y + ...) d/dx + (x + ...) d/dy."""

    original: VectorField2
    change_matrix: tuple[tuple[GaussianRational, GaussianRational],
                         tuple[GaussianRational, GaussianRational]]
    time_rescale: GaussianRational
    normalized: VectorField2


@dataclass(frozen=True)
class LyapunovReport:
    first_integral: Poly2
    obstructions: list[tuple[int, GaussianRational]]  # (even degree, eta)
    first_nonzero: int | None  # index into obstructions


@dataclass(frozen=True)
class MorseReport:
    nondegenerate: bool
    definite: bool


@dataclass(frozen=True)
class CenterVerdict:
    status: str  # CENTER_TO_ORDER_N | FOCUS | NOT_APPLICABLE
    order: int
    normalization: RotationNormalization | None = None
    report: LyapunovReport | None = None
    morse: MorseReport | None = None
    focus_degree: int | None = None
    focus_coefficient: GaussianRational | None = None
    message: str = ""


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    ns = math.isqrt(value.numerator)
    ds = math.isqrt(value.denominator)
    if ns * ns != value.numerator or ds * ds != value.denominator:
        return None
    return Fraction(ns, ds)


def normalize_rotation(field: VectorField2) -> RotationNormalization:
    """Conjugate a rotational linear part exactly to -y d/dx + x d/dy.

    Checks trace = 0 and det > 0 over the rationals, rescales time by
    1/omega (omega^2 = det) and applies a rational linear change.  Raises
    NotARotation when the hypothesis fails, IrrationalRotationFrequency
    when det is not the square of a rational.
    """
    if not field.real:
        raise ValueError("normalization expects a real vector field")
    if not field.singular_at_origin:
        raise ValueError("field must be singular at the origin")
    (a11, a12), (a21, a22) = field.linear_part_matrix()
    trace = a11.re + a22.re
    det = a11.re * a22.re - a12.re * a21.re
    if trace != 0 or det <= 0:
        raise NotARotation(
            f"linear part has trace {trace} and determinant {det}; "
            "eigenvalues are not +-i*omega"
        )
    omega = _rational_sqrt(det)
    if omega is None:
        raise IrrationalRotationFrequency(
            f"determinant {det} is not a rational square; "
            "exact normalization is unavailable"
        )
    # A t1 = omega t2 and A t2 = -omega t1 with t1 = (1, 0); det > 0 with
    # trace 0 forces a21 != 0, so T is invertible.
    t = ((gr(1), gr(a11.re / omega)), (gr(0), gr(a21.re / omega)))
    det_t = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    tinv = (
        (t[1][1] / det_t, -t[0][1] / det_t),
        (-t[1][0] / det_t, t[0][0] / det_t),
    )
    p_sub = field.p.substitute_linear(t)
    q_sub = field.q.substitute_linear(t)
    scale = gr(1 / omega)
    new_p = (tinv[0][0] * p_sub + tinv[0][1] * q_sub) * scale
    new_q = (tinv[1][0] * p_sub + tinv[1][1] * q_sub) * scale
    normalized = VectorField2(new_p, new_q)
    lin = normalized.linear_part_matrix()
    ensure(lin == [[GR_ZERO, gr(-1)], [gr(1), GR_ZERO]],
           "normalization failed")
    return RotationNormalization(field, t, scale, normalized)


def _radius_power_vector(k: int) -> list[GaussianRational]:
    """Coefficients of (x^2 + y^2)^(k/2) on monomials x^(k-j) y^j."""
    half = k // 2
    s = [GR_ZERO] * (k + 1)
    for a in range(half + 1):
        s[k - 2 * a] = gr(math.comb(half, a))
    return s


def _sweep_up(b: list[GaussianRational], first: int,
              k: int) -> list[GaussianRational]:
    """Rows r = first, first + 2, ... below k of L f = b, each solved in
    turn for f[r + 1], starting from f[first - 1] = 0."""
    out, prev = [], GR_ZERO
    for r in range(first, k, 2):
        prev = (b[r] + (k - r + 1) * prev) / (r + 1)
        out.append(prev)
    return out


def _rotation_inverse(
    k: int, rhs: list[GaussianRational]
) -> tuple[list[GaussianRational], GaussianRational | None]:
    """Solve L f - eta s = rhs for L = -y d/dx + x d/dy on degree k.

    On the coefficients f[r] of x^(k-r) y^r, row r of L f is
    (r+1) f[r+1] - (k-r+1) f[r-1].  A row couples coefficients of one
    parity only, so the system splits into two bidiagonal ones, each
    solved by a sweep in O(k) exact operations.  At odd k, L is
    invertible: the even rows sweep forward from f[-1] = 0 and the odd
    rows backward from f[k+1] = 0.  At even k, L has kernel and cokernel
    along s = (x^2+y^2)^(k/2): the odd rows sweep forward from f[0] = 0,
    the even rows forward with eta s added, eta is fixed by the one
    surplus even row r = k, and f is projected (Euclidean) off s.
    """
    f = [GR_ZERO] * (k + 1)
    if k % 2 == 1:
        f[1::2] = _sweep_up(rhs, 0, k)
        nxt = GR_ZERO  # f[k + 1]
        for r in range(k, 0, -2):
            nxt = f[r - 1] = ((r + 1) * nxt - rhs[r]) / (k - r + 1)
        return f, None
    s = _radius_power_vector(k)
    f[2::2] = _sweep_up(rhs, 1, k)
    # odd coefficients u + eta v; row k reads -f[k-1] = rhs[k] + eta s[k]
    u, v = _sweep_up(rhs, 0, k), _sweep_up(s, 0, k)
    denominator = s[k] + v[-1]
    ensure(denominator, "even-degree homological solve failed")
    eta = -(rhs[k] + u[-1]) / denominator
    f[1::2] = [a + eta * b for a, b in zip(u, v)]
    # remove the kernel component along (x^2+y^2)^(k/2)
    dot = sum((c * sv for c, sv in zip(f, s)), GR_ZERO)
    norm2 = sum((sv * sv for sv in s), GR_ZERO)
    tpar = dot / norm2
    return [c - tpar * sv for c, sv in zip(f, s)], eta


def lyapunov_quantities(norm: RotationNormalization, n: int) -> LyapunovReport:
    """Build F = x^2 + y^2 + sum F_k and the obstruction sequence.

    `series.homological_series` runs degree by degree: at degree k it
    forms only the new degree-k part R_k of X(F), from the field's
    homogeneous parts and the partials of the solved F_m, and solves
    L F_k - eta_k (x^2+y^2)^(k/2) = -R_k for the rotation L by the
    two-term recurrence (r+1) f[r+1] - (k-r+1) f[r-1] = rhs[r] (+ eta
    s[r]) in O(k) exact operations (`_rotation_inverse`).  At even
    degrees the cokernel direction (x^2+y^2)^(k/2) carries the
    obstruction eta, and F_k is normalized to have zero component along
    it.  A full Lie derivative of F at the end checks the result
    exactly.  Requires the normalized field to be known to degree n at
    least.
    """
    if n < 4:
        raise ValueError("truncation order must be at least 4")
    field = norm.normalized
    if field.truncation_degree < n:
        raise ValueError(
            f"normalized field truncated at {field.truncation_degree}; "
            f"lift it to at least {n} before requesting order {n}"
        )
    f_terms, obstructions = homological_series(
        field.p, field.q, _radius_power_vector(2), n, _rotation_inverse)
    first_integral = Poly2(f_terms, n)
    # exact consistency guard: X(F) must equal the obstruction series
    check = lie_derivative(field.lift(max(field.truncation_degree, n + 1)),
                           first_integral.lift(n + 1))
    r2 = Poly2({(2, 0): 1, (0, 2): 1}, n)
    r2_powers = [Poly2.constant(1, n)]  # (x^2+y^2)^j, one product per j
    expected = Poly2.zero(n)
    for deg, eta in obstructions:
        if eta:
            while len(r2_powers) <= deg // 2:
                r2_powers.append(r2_powers[-1] * r2)
            expected = expected + r2_powers[deg // 2] * eta
    ensure(check.truncate(n) == expected, "obstruction decomposition failed")
    first_nonzero = next(
        (idx for idx, (_, eta) in enumerate(obstructions) if eta), None
    )
    return LyapunovReport(first_integral, obstructions, first_nonzero)


def morse_check(f: Poly2) -> MorseReport:
    """Nondegeneracy and definiteness of the quadratic-part Hessian."""
    if f.coefficient(0, 0) or f.coefficient(1, 0) or f.coefficient(0, 1):
        raise ValueError("Morse check expects no constant or linear terms")
    if not f.real:
        raise ValueError("Morse definiteness is defined for real series")
    a = f.coefficient(2, 0).re
    b = f.coefficient(1, 1).re
    c = f.coefficient(0, 2).re
    disc = 4 * a * c - b * b
    return MorseReport(nondegenerate=disc != 0, definite=disc > 0)


def certify_center(field: VectorField2, n: int = 10) -> CenterVerdict:
    """Full symbolic pipeline: normalize, obstructions, Morse check.

    The input is treated as an exact polynomial field and lifted to the
    requested order when its declared truncation is lower.  A failed
    rotation hypothesis, or a rotation whose frequency is not rational,
    yields the NOT_APPLICABLE verdict.
    """
    if field.truncation_degree < n:
        field = field.lift(n)
    try:
        norm = normalize_rotation(field)
    except (NotARotation, IrrationalRotationFrequency) as exc:
        return CenterVerdict("NOT_APPLICABLE", n, message=str(exc))
    report = lyapunov_quantities(norm, n)
    morse = morse_check(report.first_integral)
    if report.first_nonzero is None:
        return CenterVerdict(
            "CENTER_TO_ORDER_N", n, norm, report, morse,
            message=f"all obstructions vanish up to degree {n}; "
            "first integral is Morse "
            + ("definite" if morse.definite else "indefinite"),
        )
    deg, eta = report.obstructions[report.first_nonzero]
    sign = "positive" if eta.re > 0 else "negative"
    return CenterVerdict(
        "FOCUS", n, norm, report, morse,
        focus_degree=deg, focus_coefficient=eta,
        message=f"first nonzero obstruction at degree {deg} is {sign} ({eta})",
    )
