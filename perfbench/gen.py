"""Seeded problem documents whose answers are known by construction.

A workload is one or more parts, each a command and the plan of the
documents it runs; a pass runs the parts in turn.  Every workload draws
the same families at the same orders for every seed; the seed picks
signs, which monomial gets which of a fixed set of magnitudes, and the
conjugating matrix, so the work of a pass changes little from seed to
seed.  Each document carries a `truth` record that the oracles read; the
program sees only `doc`.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple

from exact import (Qi, add, degree, diff_x, diff_y, format_coeff, mul,
                   power, poly_to_rows, scale, substitute_linear)

WORKLOADS = ("real_lyapunov", "real_returnmap", "holomorphic")

DEFAULT_SEED = 1

# Return-map radius schedule: 0.2 shrinking by 4/5 per step, ten radii.
RETURN_RADII = [0.2 * 0.8 ** j for j in range(10)]
SLICE_RADII = [0.03, 0.06, 0.09]
SLICE_ANGLES = 8
UNIT_MULTIPLIER = Qi(Fraction(3, 5), Fraction(4, 5))

R2 = {(2, 0): Fraction(1), (0, 2): Fraction(1)}


class Plan(NamedTuple):
    """One document of a pass.

    `order` is the analysis order (the truncation for germs), `param` the
    family's parameter (k of a focus, the multiplier of a germ).  Cold
    processes run the one document of a workload marked `cold`: a cheap
    one, so that start-up is most of a cold call.
    """
    family: str
    order: int
    param: object = None
    cold: bool = False


def _signed(rng, nums, den, count):
    """`count` coefficients +-n/den, n running through `nums` in turn.

    The seed picks the signs and the order of the magnitudes, never the
    magnitudes themselves, so coefficient heights, and with them the cost
    of exact arithmetic, stay nearly the same from seed to seed.
    """
    mags = [nums[k % len(nums)] for k in range(count)]
    rng.shuffle(mags)
    return [Fraction(rng.choice([-1, 1]) * n, den) for n in mags]


def _hamiltonian(rng, top, dense):
    """(x^2+y^2)/2 plus homogeneous parts of degrees 3..top.

    Coefficients are at most 3/40 in size, so that x H_x + y H_y > r^2/2
    on the disc of radius 0.3: level curves stay closed and every return
    map of the default and long radius schedules exists.
    """
    h = {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    for d in range(3, top + 1):
        monos = [(d - j, j) for j in range(d + 1)]
        if not dense:
            monos = rng.sample(monos, 2)
        h.update(zip(monos, _signed(rng, (1, 2, 3), 40, len(monos))))
    return h


def _hamiltonian_field(h):
    """J grad H: x' = -H_y, y' = H_x."""
    return scale(diff_y(h), -1), diff_x(h)


def _radial(p, q, a, k):
    """Add a (x^2+y^2)^k (x d/dx + y d/dy)."""
    rk = power(R2, k, 2 * k)
    return (add(p, scale(mul(rk, {(1, 0): Fraction(1)}, 2 * k + 1), a)),
            add(q, scale(mul(rk, {(0, 1): Fraction(1)}, 2 * k + 1), a)))


def _conjugate(rng, p, q):
    """c * A^-1 X(A u) with rational A, |A e1| = sqrt 2 and c > 0.

    Orbits, the verdict and the sign of the first obstruction are
    invariant; after the program normalizes, the field is X rotated and
    scaled by |A e1|, so the return maps stay inside the radius schedule.
    """
    col = rng.choice([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    while True:
        a01 = rng.choice([Fraction(v, 2) for v in range(-3, 4)])
        a11 = rng.choice([Fraction(v, 2) for v in range(-3, 4)])
        det = col[0] * a11 - a01 * col[1]
        if det:
            break
    a = ((Fraction(col[0]), a01), (Fraction(col[1]), a11))
    inv = ((a11 / det, -a01 / det), (-a[1][0] / det, a[0][0] / det))
    c = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 2),
                    Fraction(2), Fraction(3)])
    n = max(degree(p), degree(q))
    ps, qs = substitute_linear(p, a, n), substitute_linear(q, a, n)
    new_p = scale(add(scale(ps, inv[0][0]), scale(qs, inv[0][1])), c)
    new_q = scale(add(scale(ps, inv[1][0]), scale(qs, inv[1][1])), c)
    return new_p, new_q


def _field_doc(p, q, analysis):
    return {"kind": "real_field", "truncation": max(degree(p), degree(q)),
            "dx": poly_to_rows(p), "dy": poly_to_rows(q),
            "analysis": analysis}


def _real_family(rng, family, k=None):
    """(p, q, truth) of one real-field family before any conjugation."""
    if family == "ham":
        h = _hamiltonian(rng, 4, dense=True)
        p, q = _hamiltonian_field(h)
        return p, q, {"verdict": "CENTER"}
    if family == "ham_unit":
        h = _hamiltonian(rng, 3, dense=True)
        p, q = _hamiltonian_field(h)
        ell = dict(zip([(1, 0), (0, 1)], _signed(rng, (1,), 2, 2)))
        unit = add({(0, 0): Fraction(1)}, ell)
        return mul(unit, p, 9), mul(unit, q, 9), {"verdict": "CENTER"}
    if family == "focus":
        h = _hamiltonian(rng, 3, dense=True)
        p, q = _hamiltonian_field(h)
        a, = _signed(rng, (1,), 4, 1)
        p, q = _radial(p, q, a, k)
        return p, q, {"verdict": "FOCUS", "focus_degree": 2 * k + 2,
                      "focus_sign": 1 if a > 0 else -1}
    if family == "radial":
        p = {(0, 1): Fraction(-1)}
        q = {(1, 0): Fraction(1)}
        a, = _signed(rng, (1, 2), 4, 1)
        p, q = _radial(p, q, a, k)
        return p, q, {"verdict": "FOCUS", "focus_degree": 2 * k + 2,
                      "focus_sign": 1 if a > 0 else -1,
                      "radial": {"a": str(a), "k": k}}
    raise ValueError(family)


REAL_LYAPUNOV_PLAN = [
    Plan("ham_unit", 8, cold=True), Plan("ham", 12), Plan("ham_unit", 16),
    Plan("focus", 20, 3), Plan("ham", 24),
]
REAL_RETURNMAP_PLAN = [
    Plan("radial", 12, 1, cold=True), Plan("ham", 12), Plan("ham_unit", 12),
    Plan("focus", 12, 1), Plan("focus", 12, 3), Plan("radial", 12, 4),
]


def _real_docs(rng, plan, returnmap):
    docs = []
    for family, order, k, _ in plan:
        p, q, truth = _real_family(rng, family, k)
        if family != "radial":
            p, q = _conjugate(rng, p, q)
        analysis = {"order": order}
        if returnmap:
            analysis.update(radii=RETURN_RADII, tol=1e-12, rel_tol=1e-8)
        truth["order"] = order
        docs.append((family, _field_doc(p, q, analysis), truth))
    return docs


# --------------------------------------------------------------------------
# complex 1-forms

_HALF = Fraction(1, 2)
# x = (u+v)/2, y = -i(u-v)/2 diagonalizes the rotation.
_SIEGEL = ((Qi(_HALF), Qi(_HALF)), (Qi(0, -_HALF), Qi(0, _HALF)))


def _complexify(p, q):
    """Siegel form of the dual 1-form q dx - p dy of a normalized field."""
    n = max(degree(p), degree(q))
    ps = substitute_linear(p, _SIEGEL, n)
    qs = substitute_linear(q, _SIEGEL, n)
    ip = scale(ps, Qi(0, 1))
    a = scale(add(qs, ip), _HALF)
    b = scale(add(qs, scale(ip, -1)), _HALF)
    c = Qi.of(b[(1, 0)])
    return scale(a, 1 / c), scale(b, 1 / c)


def _exact_form_potential(rng, top, dense):
    """F = xy + nonresonant terms of degrees 3..top (no (xy)^j, j >= 2)."""
    f = {(1, 1): Qi(1)}
    for d in range(3, top + 1):
        monos = [(d - j, j) for j in range(d + 1) if d - j != j]
        if not dense:
            monos = rng.sample(monos, 2)
        re = _signed(rng, (1, 2), 3, len(monos))
        im = _signed(rng, (2, 1), 3, len(monos))
        f.update((e, Qi(a, b)) for e, a, b in zip(monos, re, im))
    return f


def _form_doc(a, b, order):
    return {"kind": "complex_form", "truncation": max(degree(a), degree(b)),
            "dx": poly_to_rows(a), "dy": poly_to_rows(b),
            "analysis": {"order": order, "slice_radii": SLICE_RADII,
                         "slice_angles": SLICE_ANGLES, "tol": 1e-9}}


COMPLEX_SLICE_PLAN = [
    Plan("complexified_center", 10), Plan("complexified_unit_center", 12),
    Plan("exact_sparse", 14), Plan("exact_dense", 12),
    Plan("complexified_focus", 10, 1), Plan("complexified_focus", 12, 2),
]


def _complex_docs(rng, plan):
    docs = []
    for family, order, k, _ in plan:
        if family.startswith("exact"):
            f = _exact_form_potential(rng, 5, dense=family == "exact_dense")
            a, b = diff_x(f), diff_y(f)
            truth = {"kind": "exact", "F": poly_to_rows(f)}
        else:
            sub = {"complexified_center": "ham",
                   "complexified_unit_center": "ham_unit",
                   "complexified_focus": "focus"}[family]
            p, q, real_truth = _real_family(rng, sub, k)
            a, b = _complexify(p, q)
            truth = {"kind": "focus" if sub == "focus" else "center"}
            if sub == "focus":
                truth["focus_degree"] = real_truth["focus_degree"]
        truth["order"] = order
        docs.append((family, _form_doc(a, b, order), truth))
    return docs


# --------------------------------------------------------------------------
# germs

def _germ_doc(coeffs, truncation, k_max):
    rows = [[k, format_coeff(c)] for k, c in sorted(coeffs.items()) if c]
    return {"kind": "germ", "truncation": truncation, "coeffs": rows,
            "analysis": {"k_max": k_max}}


def _mobius(rng, lam, n):
    """lam z / (1 - c (1 - lam) z): a Moebius conjugate of z -> lam z."""
    c = Qi(*_signed(rng, (1, 3), 2, 2))
    ratio = c * (1 - lam)
    coeffs, term = {}, Qi.of(lam)
    for k in range(1, n + 1):
        coeffs[k] = term
        term = term * ratio
    return coeffs


def _polynomial(rng, lam, n, high):
    """lam z + random terms: low degrees, or nonresonant ones above n/2."""
    coeffs = {1: Qi.of(lam)}
    if high:
        m = 4 if lam == Qi(0, 1) else 2
        degrees = [d for d in range(n // 2 + 1, n + 1) if (d - 1) % m]
        chosen = rng.sample(degrees, 3)
    else:
        chosen = [2, 3, 5]
    re = _signed(rng, (1, 2), 4, len(chosen))
    im = _signed(rng, (2, 1), 4, len(chosen))
    coeffs.update((d, Qi(a, b)) for d, a, b in zip(chosen, re, im))
    return coeffs


GERM_ORDER_PLAN = [
    Plan("mobius", 16, Qi(0, 1)), Plan("mobius", 32, Qi(0, 1)),
    Plan("mobius", 24, Qi(-1)), Plan("mobius", 40, Qi(-1)),
    Plan("polynomial", 16, Qi(0, 1)), Plan("polynomial_high", 24, Qi(0, 1)),
    Plan("polynomial", 32, Qi(-1)),
    Plan("polynomial_high", 40, Qi(-1), cold=True),
    Plan("unit_multiplier", 16, UNIT_MULTIPLIER),
]
UNIT_K_MAX = 1500


def _germ_docs(rng, plan):
    docs = []
    for family, n, lam, _ in plan:
        k_max = 200
        if family == "mobius":
            coeffs = _mobius(rng, lam, n)
            truth = {"family": family, "order": 4 if lam == Qi(0, 1) else 2}
        elif family.startswith("polynomial"):
            coeffs = _polynomial(rng, lam, n, high=family.endswith("high"))
            truth = {"family": "polynomial"}
        else:
            coeffs = {1: lam, 2: Qi(Fraction(1, 8)), 3: Qi(0, Fraction(1, 8))}
            k_max = UNIT_K_MAX
            truth = {"family": family, "order": None}
        truth["k_max"] = k_max
        docs.append((family, _germ_doc(coeffs, n, k_max), truth))
    return docs


# (command, plan) of each part of a workload, in pass order.  The
# holomorphic workload holds both halves of the paper's second framework:
# complex 1-forms (`slice`) and holonomy germs (`germ`).
PARTS = {
    "real_lyapunov": [("lyapunov", REAL_LYAPUNOV_PLAN)],
    "real_returnmap": [("returnmap", REAL_RETURNMAP_PLAN)],
    "holomorphic": [("slice", COMPLEX_SLICE_PLAN), ("germ", GERM_ORDER_PLAN)],
}


def orders(command: str) -> set[int]:
    """Orders of the documents that `command` runs, over all workloads."""
    return {plan.order for parts in PARTS.values()
            for part_command, plans in parts if part_command == command
            for plan in plans}


# Document builders by command: (rng, plan) -> [(family, doc, truth)].
_BUILD = {
    "lyapunov": partial(_real_docs, returnmap=False),
    "returnmap": partial(_real_docs, returnmap=True),
    "slice": _complex_docs,
    "germ": _germ_docs,
}


def make_workload(workload: str, seed: int) -> list[dict]:
    """Documents of one pass of a workload, in the order they are run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for command, plans in PARTS[workload]:
        raw = _BUILD[command](rng, plans)
        items += [{"id": f"{len(items) + k:02d}-{family}", "family": family,
                   "command": command, "expected_exit": 0,
                   "cold": plan.cold, "doc": doc, "truth": truth}
                  for k, (plan, (family, doc, truth))
                  in enumerate(zip(plans, raw))]
    return items


def write_workload(items: list[dict], directory: Path) -> list[Path]:
    """Write each document as <id>.json; returns the paths in pass order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in items:
        path = directory / f"{item['id']}.json"
        path.write_text(json.dumps(item["doc"], indent=1) + "\n",
                        encoding="ascii")
        paths.append(path)
    return paths
