"""Symbolic center-focus certification for rotational planar singularities.

Normalizes the linear part to the standard rotation, builds a formal first
integral F = x^2 + y^2 + ... degree by degree, and reads off the exact
obstruction coefficients along powers of x^2 + y^2.  All obstructions zero
up to the truncation order means "center to order N"; the first nonzero
one certifies a focus together with its sign.

Degree k of F solves L F_k = eta_k (x^2+y^2)^(k/2) - R_k, where R_k is the
degree-k part of X(F_2 + ... + F_(k-1)) and L = -y d/dx + x d/dy.  L is
tridiagonal with zero diagonal on the monomials of degree k, so a two-term
recurrence inverts it in O(k) operations (`_rotation_inverse`).  The
recurrences run on Gaussian integers over one denominator per degree,
D M_k: D clears the right-hand side's denominators and M_k every divisor
the two sweeps meet, so each integer division is exact and each
coefficient of F_k is reduced to lowest terms once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .series import (
    GaussianRational,
    Poly2,
    Scaled,
    VectorField2,
    _sparse,
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
    1/omega (omega^2 = det) and applies a rational linear change T.  The
    conjugation runs through the dual form: T^*(q dx - p dy) is det T
    times the dual form q' du - p' dv of the conjugate field (p', q') =
    T^-1 X(T u) (`OneForm2.pullback_linear`), so dividing by omega det T
    gives the normalized field and no inverse of T is formed.  Raises
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
    pulled = field.dual_form().pullback_linear(t)
    c = 1 / a21.re  # 1 / (omega det T)
    normalized = VectorField2(pulled.b * -c, pulled.a * c)
    ensure(normalized.standard_rotation, "normalization failed")
    return RotationNormalization(t, gr(1 / omega), normalized)


@cache
def _degree_constants(k: int) -> tuple[int, tuple[int, ...], tuple[int, ...],
                                        int, int]:
    """What the degree-k solve needs of k alone (see `_rotation_inverse`):
    M_k and, at even k, the integer s = (x^2+y^2)^(k/2) on x^(k-r) y^r,
    V = M_k times s swept over the even rows, Q = M_k s[k] + V[-1] and
    ||s||^2."""
    odd_divisors = math.prod(range(1, k + 1, 2))
    if k % 2 == 1:
        return odd_divisors, (), (), 0, 0
    m = math.lcm(odd_divisors, math.prod(range(2, k + 1, 2)))
    s = [0] * (k + 1)
    for a in range(k // 2 + 1):
        s[k - 2 * a] = math.comb(k // 2, a)
    v = _sweep_forward([m * c for c in s], 0, k)
    return m, tuple(s), tuple(v), m * s[k] + v[-1], sum(c * c for c in s)


def _sweep_forward(b: list[int], first: int, k: int) -> list[int]:
    """Rows r = first, first + 2, ... below k of L f = b on integers, each
    solved in turn for f[r + 1] = (b[r] + (k - r + 1) f[r - 1]) // (r + 1),
    starting from f[first - 1] = 0; exact when b is M_k times integers."""
    out, prev = [], 0
    for r in range(first, k, 2):
        prev = (b[r] + (k - r + 1) * prev) // (r + 1)
        out.append(prev)
    return out


def _rotation_inverse(
    k: int, rhs: Scaled
) -> tuple[Scaled, Scaled]:
    """Solve L f - eta s = rhs for L = -y d/dx + x d/dy on degree k.

    On the coefficients f[r] of x^(k-r) y^r, row r of L f is
    (r+1) f[r+1] - (k-r+1) f[r-1].  A row couples coefficients of one
    parity only, so the system splits into two bidiagonal ones, each
    solved by a sweep in O(k) operations.  At odd k, L is invertible: the
    even rows sweep forward from f[-1] = 0 and the odd rows backward from
    f[k+1] = 0.  At even k, L has kernel and cokernel along
    s = (x^2+y^2)^(k/2): the odd rows sweep forward from f[0] = 0, the
    even rows forward with eta s added, eta is fixed by the one surplus
    even row r = k, and f is projected (Euclidean) off s.

    The sweeps run on Python ints, real and imaginary parts apart (L is
    real), over one denominator per call.  rhs comes as a scaled part
    b / D, b Gaussian-integral; the sweeps solve for T f with
    T = D M_k, from T rhs = M_k b.  A sweep divides by its divisors
    (r+1, or k-r+1 backward) one after another, so each value it yields
    is an integer combination of the b[r] over a product of some of its
    divisors.  M_k, the lcm of the two sweeps' full products, is a
    multiple of every such product, so every `//` is exact.  At even k,
    with U = T u and V = M_k v the forward sweeps of M_k b and M_k s
    over the even rows, eta = E / (D Q), E = -(M_k b[k] + U[-1]) and
    Q = M_k s[k] + V[-1], positive as s and its sweep are.  Over T Q, f's
    numerators are Q U + E V at odd r and Q (T f[r]) at even r, and the
    projection puts them over T Q ||s||^2.  f is returned as that scaled
    part, which the caller reduces once, together with the part eta s,
    E s over D Q (empty at odd k, where L has no cokernel).
    """
    m, s, v, q, norm2 = _degree_constants(k)
    d, nonzero = rhs
    br, bi = [0] * (k + 1), [0] * (k + 1)
    for r, x, y in nonzero:
        br[r], bi[r] = m * x, m * y
    if k % 2 == 1:
        fr, fi = [0] * (k + 1), [0] * (k + 1)
        for f, b in ((fr, br), (fi, bi)):
            f[1::2] = _sweep_forward(b, 0, k)
            nxt = 0  # f[k + 1]
            for r in range(k, 0, -2):
                nxt = f[r - 1] = ((r + 1) * nxt - b[r]) // (k - r + 1)
        return (d * m, _sparse(fr, fi)), (1, [])
    ensure(q, "even-degree homological solve failed")
    parts = []
    for b in (br, bi):
        # row k reads -f[k-1] = rhs[k] + eta s[k]; f over T Q
        u = _sweep_forward(b, 0, k)
        e = -(b[k] + u[-1])
        f = [0] * (k + 1)
        f[2::2] = [q * c for c in _sweep_forward(b, 1, k)]
        f[1::2] = [q * a + e * c for a, c in zip(u, v)]
        # remove the kernel component along (x^2+y^2)^(k/2): f over
        # T Q ||s||^2
        dot = sum(c * sv for c, sv in zip(f[::2], s[::2]))
        parts.append(([norm2 * c - dot * sv for c, sv in zip(f, s)], e))
    (fr, er), (fi, ei) = parts
    return (d * m * q * norm2, _sparse(fr, fi)), \
        (d * q, _sparse([er * c for c in s], [ei * c for c in s]))


def lyapunov_quantities(norm: RotationNormalization, n: int) -> LyapunovReport:
    """Build F = x^2 + y^2 + sum F_k and the obstruction sequence.

    `series.homological_series` runs degree by degree: at degree k it
    forms only the new degree-k part R_k of X(F), from the field's
    homogeneous parts and the partials of the solved F_m, and solves
    L F_k - eta_k (x^2+y^2)^(k/2) = -R_k for the rotation L by the
    two-term recurrence (r+1) f[r+1] - (k-r+1) f[r-1] = rhs[r] (+ eta
    s[r]) in O(k) operations (`_rotation_inverse`).  The recurrence runs
    on Gaussian integers over one denominator per degree, chosen so that
    each of its divisions is exact; each part is reduced once.  At
    even degrees the cokernel direction (x^2+y^2)^(k/2) carries the
    obstruction eta, and F_k is normalized to have zero component along
    it.  One full Lie derivative of F at the end must equal the returned
    obstruction series exactly; each eta_k is read off it.  Requires the
    normalized field to be known to degree n at least.
    """
    if n < 4:
        raise ValueError("truncation order must be at least 4")
    field = norm.normalized
    if field.truncation_degree < n:
        raise ValueError(
            f"normalized field truncated at {field.truncation_degree}; "
            f"lift it to at least {n} before requesting order {n}"
        )
    first_integral, etas = homological_series(  # F_2 = x^2 + y^2
        field.p, field.q, (1, [(0, 1, 0), (2, 1, 0)]), n, _rotation_inverse)
    # exact consistency guard: X(F), truncated at n, must equal the
    # obstruction series sum eta_k (x^2+y^2)^(k/2)
    ensure(lie_derivative(field, first_integral.lift(n + 1)) == etas,
           "obstruction decomposition failed")
    # eta_k is the x^k coefficient of eta_k (x^2+y^2)^(k/2)
    obstructions = [(k, etas.coefficient(k, 0)) for k in range(4, n + 1, 2)]
    first_nonzero = next(
        (idx for idx, (_, eta) in enumerate(obstructions) if eta), None
    )
    return LyapunovReport(first_integral, obstructions, first_nonzero)


def morse_check(f: Poly2) -> MorseReport:
    """Nondegeneracy and definiteness of the quadratic-part Hessian."""
    if 0 in f.parts or 1 in f.parts:
        raise ValueError("Morse check expects no constant or linear terms")
    if not f.real:
        raise ValueError("Morse definiteness is defined for real series")
    # 4ac - b^2 on the quadratic part's integers: den^2 > 0 keeps its sign
    h = {r: x for r, x, _ in f.parts.get(2, (1, []))[1]}
    a, b, c = (h.get(r, 0) for r in range(3))
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
