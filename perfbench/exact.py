"""Exact arithmetic of the benchmark's own, kept apart from centerfocus.

The generator builds documents with it and the oracles check reports with
it, so neither leans on the code under test.  Polynomials are dicts from
exponent pairs (i, j) to coefficients; a coefficient is a Fraction or a
Qi (an element of Q(i)).  Every product takes an explicit truncation
degree.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Qi:
    """Gaussian rational re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(value) -> "Qi":
        return value if isinstance(value, Qi) else Qi(value)

    def __add__(self, other):
        o = Qi.of(other)
        return Qi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = Qi.of(other)
        return Qi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return Qi.of(other) - self

    def __mul__(self, other):
        o = Qi.of(other)
        return Qi(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Qi.of(other)
        d = o.re * o.re + o.im * o.im
        return Qi((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return Qi.of(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Qi(other)
        if not isinstance(other, Qi):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


_COMPLEX = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*\+\s*(-?\d+(?:/\d+)?)\s*i\s*$")


def parse_coeff(text):
    """Coefficient string of the document format: "p/q" or "a/b+c/d i"."""
    m = _COMPLEX.match(text)
    if m:
        return Qi(Fraction(m.group(1)), Fraction(m.group(2)))
    return Fraction(text)


def format_coeff(c) -> str:
    if isinstance(c, Qi):
        if not c.im:
            return str(c.re)
        return f"{c.re}+{c.im} i"
    return str(Fraction(c))


def rows_to_poly(rows) -> dict:
    return {(i, j): parse_coeff(c) for i, j, c in rows}


def poly_to_rows(p: dict) -> list:
    return [[i, j, format_coeff(c)] for (i, j), c in sorted(p.items()) if c]


def clean(p: dict) -> dict:
    return {e: c for e, c in p.items() if c}


def degree(p: dict) -> int:
    return max((i + j for i, j in p), default=0)


def add(*polys) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return clean(out)


def scale(p: dict, c) -> dict:
    return clean({e: v * c for e, v in p.items()})


def sub(p: dict, q: dict) -> dict:
    return add(p, scale(q, -1))


def mul(p: dict, q: dict, n: int) -> dict:
    """Product truncated above total degree n."""
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            i, j = i1 + i2, j1 + j2
            if i + j <= n:
                out[(i, j)] = out.get((i, j), 0) + c1 * c2
    return clean(out)


def power(p: dict, k: int, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(k):
        out = mul(out, p, n)
    return out


def truncate(p: dict, n: int) -> dict:
    return {e: c for e, c in p.items() if e[0] + e[1] <= n}


def diff_x(p: dict) -> dict:
    return {(i - 1, j): c * i for (i, j), c in p.items() if i}


def diff_y(p: dict) -> dict:
    return {(i, j - 1): c * j for (i, j), c in p.items() if j}


def substitute_linear(p: dict, m, n: int) -> dict:
    """p(m00 x + m01 y, m10 x + m11 y), truncated above degree n."""
    l1 = clean({(1, 0): m[0][0], (0, 1): m[0][1]})
    l2 = clean({(1, 0): m[1][0], (0, 1): m[1][1]})
    cache1, cache2 = [{(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}]
    out: dict = {}
    for (i, j), c in p.items():
        while len(cache1) <= i:
            cache1.append(mul(cache1[-1], l1, n))
        while len(cache2) <= j:
            cache2.append(mul(cache2[-1], l2, n))
        out = add(out, scale(mul(cache1[i], cache2[j], n), c))
    return out


def evaluate(p: dict, x: complex, y: complex) -> complex:
    """Binary64 value at a complex point."""
    return sum(complex(c) * x ** i * y ** j for (i, j), c in p.items())


def height_bits(c) -> int:
    """Largest numerator or denominator bit length of a coefficient."""
    parts = (c.re, c.im) if isinstance(c, Qi) else (Fraction(c),)
    return max(max(abs(f.numerator).bit_length(), f.denominator.bit_length())
               for f in parts)
