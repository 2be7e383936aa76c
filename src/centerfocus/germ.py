"""Germs of one-dimensional diffeomorphisms fixing the origin.

Truncated invertible series z -> lam*z + ..., with exact composition and
inversion, a finite-order test driven by the multiplier, and numerically
iterated pseudo-orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .series import (GR_ONE, GR_ZERO, GaussianRational, Scalar, gr,
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

# The Gaussian-rational roots of unity exp(2 pi i p/q), keyed by (p, q) in
# lowest terms with 0 <= p < q; nothing else in Q(i) lies on the unit
# circle and has finite multiplicative order.
ROOTS_OF_UNITY = {(0, 1): gr(1), (1, 2): gr(-1), (1, 4): gr(0, 1),
                  (3, 4): gr(0, -1)}


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
    """Truncated series germ with nonzero multiplier and no constant term."""

    __slots__ = ("coeffs", "truncation_degree")

    def __init__(self, coeffs: Mapping[int, Scalar], truncation_degree: int):
        if truncation_degree < 1:
            raise ValueError("truncation degree must be at least 1")
        clean: dict[int, GaussianRational] = {}
        for k, c in coeffs.items():
            if k < 1:
                raise ValueError("germ fixes the origin: degrees start at 1")
            if k > truncation_degree:
                raise ValueError(f"degree {k} exceeds truncation {truncation_degree}")
            c = GaussianRational.coerce(c)
            if c:
                clean[k] = c
        if 1 not in clean:
            raise ValueError("multiplier (degree-1 coefficient) must be nonzero")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "truncation_degree", truncation_degree)

    def __setattr__(self, name, value):
        raise AttributeError("Germ1 is immutable")

    @classmethod
    def identity(cls, truncation_degree: int) -> "Germ1":
        return cls({1: 1}, truncation_degree)

    @property
    def multiplier(self) -> GaussianRational:
        return self.coeffs[1]

    def coefficient(self, k: int) -> GaussianRational:
        return self.coeffs.get(k, GR_ZERO)

    def is_identity(self) -> bool:
        return self.coeffs == {1: GR_ONE}

    def __eq__(self, other):
        if not isinstance(other, Germ1):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.truncation_degree == other.truncation_degree
        )

    __hash__ = None

    def __repr__(self):
        body = " + ".join(
            f"({c})z^{k}" if k > 1 else f"({c})z"
            for k, c in sorted(self.coeffs.items())
        )
        return f"Germ1[{body or '0'}; N={self.truncation_degree}]"

    def evaluator(self):
        """Binary64 Horner evaluation of the truncated polynomial, as a
        function; the coefficients are rounded to binary64 once, here."""
        coeffs = [self.coefficient(k).to_complex()
                  for k in range(self.truncation_degree, 0, -1)]

        def evaluate(z: complex) -> complex:
            acc = 0j
            for c in coeffs:
                acc = acc * z + c
            return acc * z

        return evaluate

    def evaluate(self, z: complex) -> complex:
        """Binary64 Horner evaluation of the truncated polynomial."""
        return self.evaluator()(z)


def compose(f: Germ1, g: Germ1) -> Germ1:
    """Truncated series of f(g(z)), as sum_m f_m g^m."""
    n = min(f.truncation_degree, g.truncation_degree)
    terms = [(0, m, c) for m, c in f.coeffs.items() if m <= n]
    gt = {k: c for k, c in g.coeffs.items() if k <= n}
    return Germ1(substitute(terms, [{0: GR_ONE}, gt], n), n)


def invert(f: Germ1) -> Germ1:
    """g with f(g(z)) = z to the shared truncation.

    g_k is read off the degree-k coefficient of f(g(z)) - z, which is
    lam g_k plus terms in g_1 ... g_(k-1) only.  `substitution_root`
    keeps the powers [g^m]_d in a table that grows by one degree per
    step, so no composition is recomputed.
    """
    n = f.truncation_degree
    terms = [(0, m, c) for m, c in f.coeffs.items()] + [(1, 0, -GR_ONE)]
    return Germ1(substitution_root(terms, 0, n), n)


def power(f: Germ1, k: int) -> Germ1:
    """k-fold composition f o ... o f (k >= 1).

    The powers f, f^2, ... of the inner germ are formed once, in one
    table that `series.substitute` extends; each further composition
    out o f is then the linear combination sum_j out_j f^j.
    """
    if k < 1:
        raise ValueError("power requires k >= 1")
    n = f.truncation_degree
    out, powers = f.coeffs, [{0: GR_ONE}, f.coeffs]
    for _ in range(k - 1):
        out = substitute([(0, m, c) for m, c in out.items()], powers, n)
    return Germ1(out, n)


def multiplier_order(lam: GaussianRational) -> int | None:
    """Multiplicative order of lam when it is a root of unity, else None."""
    return next((q for (_, q), root in ROOTS_OF_UNITY.items() if root == lam),
                None)


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
    m = multiplier_order(f.multiplier)
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

    z0: complex
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
            return OrbitRecord(z0, "escaped", None, iterates)
        if abs(z - z0) <= return_tolerance:
            return OrbitRecord(z0, "periodic", n, iterates)
    return OrbitRecord(z0, "undecided", None, iterates)
