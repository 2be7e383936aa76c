"""A name kept only for the benchmark's tracer, which wraps `solve`.

No code in centerfocus solves a dense linear system: both homological
solves invert their tridiagonal or diagonal operators by O(k) recurrences
(`center._rotation_inverse`, `foliation._siegel_inverse`).  The module can
go together with the tracer's `linsolve.solve` target.
"""


def solve(m, b):
    raise NotImplementedError("centerfocus solves no dense linear system")
