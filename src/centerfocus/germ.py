"""Germs of one-dimensional diffeomorphisms fixing the origin.

Truncated invertible series z -> lam*z + ..., with exact composition and
inversion, a finite-order test driven by the multiplier, and numerically
iterated pseudo-orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .series import (GaussianRational, Poly2, Scalar, _rounded, power_rows,
                     substitute, substitution_root)

__all__ = [
    "Germ1",
    "OrbitRecord",
    "InconclusiveOrder",
    "compose",
    "invert",
    "power",
    "finite_order",
    "pseudo_orbit",
]

# The Gaussian-rational roots of unity exp(2 pi i p/q) as (re, im, den),
# keyed by (p, q) in lowest terms with 0 <= p < q; nothing else in Q(i)
# lies on the unit circle and has finite multiplicative order.
ROOTS_OF_UNITY = {(0, 1): (1, 0, 1), (1, 2): (-1, 0, 1), (1, 4): (0, 1, 1),
                  (3, 4): (0, -1, 1)}


class InconclusiveOrder(Exception):
    """f^m equals the identity at this truncation, but too few degrees
    remain to distinguish finite order from tangency to the identity.
    Retry with truncation_degree >= needed_degree."""

    def __init__(self, order: int, needed_degree: int):
        super().__init__(
            f"f^{order} = id at the current truncation; "
            f"retry with truncation degree >= {needed_degree}"
        )
        self.order = order
        self.needed_degree = needed_degree


class Germ1:
    """Truncated series germ with nonzero multiplier and no constant term,
    held as a `Poly2` in x; `coeffs` is a view by degree."""

    __slots__ = ("series",)

    def __init__(self, coeffs: Mapping[int, Scalar], truncation_degree: int):
        if truncation_degree < 1:
            raise ValueError("truncation degree must be at least 1")
        if any(k < 1 for k in coeffs):
            raise ValueError("germ fixes the origin: degrees start at 1")
        object.__setattr__(self, "series", Poly2(
            {(k, 0): c for k, c in coeffs.items()}, truncation_degree))
        if 1 not in self.series.parts:
            raise ValueError("multiplier (degree-1 coefficient) must be nonzero")

    @classmethod
    def _of(cls, series: Poly2) -> "Germ1":
        """The germ of a series in x without constant term, whose
        multiplier is nonzero."""
        out = object.__new__(cls)
        object.__setattr__(out, "series", series)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Germ1 is immutable")

    @classmethod
    def identity(cls, truncation_degree: int) -> "Germ1":
        return cls({1: 1}, truncation_degree)

    @property
    def truncation_degree(self) -> int:
        return self.series.truncation_degree

    @property
    def coeffs(self) -> dict[int, GaussianRational]:
        """The nonzero coefficients by degree."""
        return {k: c for (k, _), c in self.series.terms.items()}

    @property
    def multiplier(self) -> GaussianRational:
        return self.coefficient(1)

    def coefficient(self, k: int) -> GaussianRational:
        return self.series.coefficient(k, 0)

    def is_identity(self) -> bool:
        return self.series.parts == {1: (1, [(0, 1, 0)])}

    def __eq__(self, other):
        if not isinstance(other, Germ1):
            return NotImplemented
        return self.series == other.series

    __hash__ = None

    def __repr__(self):
        body = " + ".join(
            f"({c})z^{k}" if k > 1 else f"({c})z"
            for k, c in sorted(self.coeffs.items())
        )
        return f"Germ1[{body or '0'}; N={self.truncation_degree}]"

    def evaluator(self):
        """Binary64 Horner evaluation of the truncated polynomial, as a
        function; coefficients are rounded once, here, as float(Fraction)."""
        terms = self.series.scaled_terms()
        coeffs = [0j] * terms[-1][0]  # top nonzero degree, ..., 1
        for k, _, x, y, den in terms:
            coeffs[-k] = _rounded(x, y, den)

        def evaluate(z: complex) -> complex:
            acc = 0j
            for c in coeffs:
                acc = acc * z + c
            return acc * z

        return evaluate


def compose(f: Germ1, g: Germ1) -> Germ1:
    """Truncated series of f(g(x)): f(y) at y = g(x)."""
    n = min(f.truncation_degree, g.truncation_degree)
    return Germ1._of(substitute(f.series.truncate(n).swapped(),
                                power_rows(g.series), n))


def invert(f: Germ1) -> Germ1:
    """g with f(g(z)) = z to the shared truncation.

    g_k is read off the degree-k coefficient of f(g(z)) - z, which is
    lam g_k plus terms in g_1 ... g_(k-1) only.  `substitution_root`
    keeps the powers [g^m]_d in a table that grows by one degree per
    step, so no composition is recomputed.
    """
    n = f.truncation_degree
    return Germ1._of(substitution_root(f.series.swapped() - Poly2.var_x(n),
                                       0, n))


def power(f: Germ1, k: int) -> Germ1:
    """k-fold composition f o ... o f (k >= 1).

    The powers f, f^2, ... of the inner germ are formed once, in one list
    of Gaussian-integer rows that `series.substitute` extends; then each
    composition out o f is the linear combination sum_j out_j f^j.
    """
    if k < 1:
        raise ValueError("power requires k >= 1")
    n = f.truncation_degree
    out, powers = f.series, power_rows(f.series)
    for _ in range(k - 1):
        out = substitute(out.swapped(), powers, n)
    return Germ1._of(out)


def multiplier_order(f: Germ1) -> int | None:
    """Order of f's multiplier, read off its part, if a root of unity."""
    return next((q for (_, q), (re, im, den) in ROOTS_OF_UNITY.items()
                 if f.series.parts[1] == (den, [(0, re, im)])), None)


def finite_order(f: Germ1, k_max: int) -> int | None:
    """Smallest k <= k_max with f^k = id to truncation, or None.

    Dichotomy: the multiplier must be a root of unity of some order m; if
    so, either f^m is the identity (order m) or it is tangent to the
    identity with a nonzero higher term and no finite order exists.
    Raises InconclusiveOrder when f^m looks like the identity but the
    truncation is below 2m.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    m = multiplier_order(f)
    if m is None or m > k_max:
        return None
    fm = power(f, m)
    if fm.is_identity():
        if f.truncation_degree < 2 * m:
            raise InconclusiveOrder(m, 2 * m)
        return m
    return None


@dataclass(frozen=True)
class OrbitRecord:
    """Numerically iterated pseudo-orbit of a point under a germ."""

    status: str  # "periodic" | "escaped" | "undecided"
    period: int | None
    iterates: list[complex] = field(repr=False)


def pseudo_orbit(
    f: Germ1,
    z0: complex,
    k_max: int,
    escape_radius: float = 1.0,
    return_tolerance: float = 1e-9,
) -> OrbitRecord:
    """Track f^n(z0) for n = 0..k_max through the truncated polynomial.

    Periodic when an iterate returns within return_tolerance of z0,
    escaped when it leaves the escape radius, undecided otherwise.
    """
    z0 = complex(z0)
    if abs(z0) >= escape_radius:
        raise ValueError("starting point must lie inside the escape radius")
    step = f.evaluator()
    iterates = [z0]
    z = z0
    for n in range(1, k_max + 1):
        z = step(z)
        iterates.append(z)
        if abs(z) > escape_radius:
            return OrbitRecord("escaped", None, iterates)
        if abs(z - z0) <= return_tolerance:
            return OrbitRecord("periodic", n, iterates)
    return OrbitRecord("undecided", None, iterates)
