"""Test helpers: random series generation and the sympy cross-check oracle.

A plain module, not a conftest, so that it cannot be confused with the
benchmark's `perfbench/tests/conftest.py` when both suites run together.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy as sp

from centerfocus.series import GaussianRational, Poly2

X, Y = sp.symbols("x y")


def random_rational(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng: random.Random, degree: int, max_terms: int = 6,
                real: bool = True) -> Poly2:
    terms = {}
    for _ in range(max_terms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        re = random_rational(rng)
        im = Fraction(0) if real else random_rational(rng)
        terms[(i, j)] = GaussianRational(re, im)
    return Poly2(terms, degree)


def to_sympy(p: Poly2):
    expr = sp.Integer(0)
    for (i, j), c in p.terms.items():
        coeff = sp.Rational(c.re) + sp.Rational(c.im) * sp.I
        expr += coeff * X**i * Y**j
    return sp.expand(expr)


def sympy_truncate(expr, degree: int):
    """Drop monomials of total degree above `degree`."""
    expr = sp.expand(expr)
    kept = sp.Integer(0)
    for term in sp.Add.make_args(expr):
        poly = sp.Poly(term, X, Y)
        if poly.total_degree() <= degree:
            kept += term
    return sp.expand(kept)


def dense_inverse(inverse, k: int, rhs: list[GaussianRational]):
    """A structured homological inverse (`center._rotation_inverse`,
    `foliation._siegel_inverse`) on dense coefficient lists: rhs becomes
    the degree-k part of a Poly2, and the two returned parts, f and
    eta s_k, which must hold no zero entry, are read back through
    `Poly2.coefficient`."""
    part = Poly2({(k - r, r): c for r, c in enumerate(rhs)}, k).parts
    dense = []
    for den, row in inverse(k, part.get(k, (1, []))):
        assert all(x or y for _, x, y in row)
        series = Poly2._of([(k, (den, row))], k)
        dense.append([series.coefficient(k - r, r) for r in range(k + 1)])
    return tuple(dense)
