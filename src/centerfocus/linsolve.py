"""Exact Gaussian elimination over the Gaussian rationals.

No program code calls this module any more: both homological solves
invert their tridiagonal or diagonal operators by O(k) recurrences
(`center._rotation_inverse`, `foliation._siegel_inverse`).  It stays
importable because the benchmark's tracer (`perfbench/tracing.py`) wraps
`linsolve.solve` by name; it can be deleted together with that target.
"""

from __future__ import annotations

from .series import GR_ZERO, GaussianRational

Matrix = list[list[GaussianRational]]
Vector = list[GaussianRational]


def _echelonize(m: Matrix) -> tuple[Matrix, list[int]]:
    rows = [list(r) for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((k for k in range(r, n_rows) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(n_rows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [vk - f * vr for vk, vr in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    if not m:
        return 0
    _, pivots = _echelonize(m)
    return len(pivots)


def solve(m: Matrix, b: Vector) -> Vector | None:
    """One exact solution of m x = b with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    if not m:
        return []
    n_cols = len(m[0])
    aug = [list(row) + [bv] for row, bv in zip(m, b)]
    rows, pivots = _echelonize(aug)
    # a pivot in the augmented column means 0 = 1
    if n_cols in pivots:
        return None
    x: Vector = [GR_ZERO] * n_cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][n_cols]
    return x
