"""Numerical dynamics: trajectories, Poincare return maps on transverse
segments, periodic-sequence detection and bounded-order scans.

Integration is delegated to scipy's adaptive embedded Runge-Kutta pairs;
scipy is imported on the first solve, so the exact layers never load it.
Section crossings are located by scipy's event root finding on the
interpolant of the step that holds them, and then classified exactly once
here, so the same crossing logic serves half returns, full returns and
orbit-order counting.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .series import NumericFailure, Poly2, VectorField2, binary64

__all__ = [
    "StepUnderflow",
    "NoReturn",
    "Trajectory",
    "TransverseSegment",
    "ReturnMapSample",
    "PeriodicSequenceReport",
    "PointOrderScan",
    "integrate",
    "half_return_map",
    "return_map",
    "detect_periodic_sequence",
    "bounded_order_scan",
    "level_set_conservation",
    "trajectory_to_csv",
]


# Time budget of one return map.  The field is transverse to a segment
# where |X . normal| >= _TRANSVERSAL * |X|; segments are checked at
# _TRANSVERSAL_SAMPLES radii.
_T_MAX = 50.0
_TRANSVERSAL, _TRANSVERSAL_SAMPLES = 1e-6, 8


class StepUnderflow(NumericFailure):
    """The adaptive step collapsed (near-singular passage)."""


class NoReturn(NumericFailure):
    """No qualifying section crossing within the time budget."""


class _NumericField:
    """Binary64 right-hand side compiled from an exact vector field."""

    def __init__(self, fld: VectorField2):
        if not fld.real:
            raise ValueError("numeric integration expects a real field")
        self.pq = binary64(fld.p, fld.q)

    def __call__(self, t, s):
        return self.pq(*s)


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration steps, in the arrays scipy returns."""

    t: Sequence[float]
    states: Sequence[Sequence[float]]  # shape (n, 2)
    status: str  # "reached_t_max" | "left_domain"

    @property
    def samples(self) -> list[tuple[float, float, float]]:
        return [(float(tt), float(x), float(y))
                for tt, (x, y) in zip(self.t, self.states)]


@dataclass(frozen=True)
class TransverseSegment:
    """Segment from the origin along a unit direction, of length epsilon."""

    direction: tuple[float, float]
    length: float

    def __post_init__(self):
        norm = math.hypot(*self.direction)
        if norm == 0 or self.length <= 0:
            raise ValueError("segment needs a direction and positive length")
        object.__setattr__(
            self, "direction",
            (self.direction[0] / norm, self.direction[1] / norm),
        )

    @property
    def normal(self) -> tuple[float, float]:
        return (-self.direction[1], self.direction[0])


@dataclass(frozen=True)
class ReturnMapSample:
    r_in: float
    r_out: float
    return_time: float


@dataclass(frozen=True)
class PeriodicSequenceReport:
    periodic: bool
    samples: list[ReturnMapSample]
    residuals: list[float]

    @property
    def verdict(self) -> str:
        return "PERIODIC_SEQUENCE" if self.periodic else "NOT_PERIODIC"


@dataclass(frozen=True)
class PointOrderScan:
    count: int
    budget_exhausted: bool


def _transversal(vx, vy, nx, ny) -> bool:
    speed = math.hypot(vx, vy)
    return speed > 0 and abs(vx * nx + vy * ny) >= _TRANSVERSAL * speed


def _check_transversality(seg: TransverseSegment, rhs) -> None:
    """Sampled invariant: |X . normal| stays away from 0 off the origin."""
    nx, ny = seg.normal
    for k in range(1, _TRANSVERSAL_SAMPLES + 1):
        r = seg.length * k / _TRANSVERSAL_SAMPLES
        p = (r * seg.direction[0], r * seg.direction[1])
        if not _transversal(*rhs(0.0, p), nx, ny):
            raise ValueError(
                f"field is not transverse to the segment at radius {r}"
            )


def solve_ivp(*args, **kwargs):
    """`scipy.integrate.solve_ivp`, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _solve(rhs, x0, t_max, tol, domain_radius, extra_events=()):
    """DOP853 over (0, t_max), backward if t_max < 0; and the end status."""
    if not tol > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    if not math.isfinite(t_max):  # a periodic orbit never leaves the domain
        raise ValueError("time span must be finite")

    def domain_exit(t, s):
        return domain_radius**2 - (s[0] ** 2 + s[1] ** 2)

    domain_exit.terminal = True
    sol = solve_ivp(
        rhs, (0.0, t_max), [float(v) for v in x0],
        method="DOP853", rtol=tol, atol=tol,
        events=[domain_exit, *extra_events],
    )
    if sol.status == -1:
        raise StepUnderflow(sol.message)
    return sol, "left_domain" if sol.status == 1 else "reached_t_max"


def integrate(
    fld: VectorField2,
    x0,
    t_max: float,
    tol: float = 1e-10,
    domain_radius: float = 2.0,
) -> Trajectory:
    """Adaptive embedded Runge-Kutta run, recorded at its accepted steps.

    Stops at t_max or on leaving the disc of the given radius; raises
    StepUnderflow when the step size collapses.
    """
    sol, status = _solve(_NumericField(fld), x0, t_max, tol, domain_radius)
    return Trajectory(sol.t, sol.y.T, status)


def _require_normalized_rotation(fld: VectorField2) -> None:
    if not fld.standard_rotation:
        raise ValueError(
            "return maps expect a field normalized to -y d/dx + x d/dy"
        )


def _section_crossings(rhs, seg: TransverseSegment, x0, t_max, tol,
                       domain_radius) -> tuple[list[tuple[float, float]], str]:
    """(t, offset along seg) of each transversal crossing, x0's included."""
    nx, ny = seg.normal
    dx, dy = seg.direction

    def section(t, s):
        return s[0] * nx + s[1] * ny

    sol, status = _solve(rhs, x0, t_max, tol, domain_radius,
                         extra_events=(section,))
    crossings = [(float(t), float(px * dx + py * dy))
                 for t, (px, py) in zip(sol.t_events[1], sol.y_events[1])
                 if _transversal(*rhs(t, (px, py)), nx, ny)]
    return crossings, status


def _return_sample(fld, seg, r, tol, want_half) -> ReturnMapSample:
    _require_normalized_rotation(fld)
    if not 0 < r <= seg.length:
        raise ValueError("radius must lie inside the segment")
    rhs = _NumericField(fld)
    _check_transversality(seg, rhs)
    x0 = (r * seg.direction[0], r * seg.direction[1])
    crossings, _ = _section_crossings(rhs, seg, x0, _T_MAX, tol, 2.0)
    for time, param in crossings:  # x0 is on the segment: skip its event
        if abs(time) > 1e-9 and (param > 0) != want_half:
            return ReturnMapSample(r, -param if want_half else param, time)
    raise NoReturn(
        f"no {'half' if want_half else 'full'} return from r={r} "
        f"within t={_T_MAX}"
    )


def half_return_map(fld: VectorField2, seg: TransverseSegment, r: float,
                    tol: float = 1e-12) -> ReturnMapSample:
    """First crossing of the antipodal ray -Sigma, the numeric shadow of
    the Moebius-band holonomy (two half returns compose to the full one)."""
    return _return_sample(fld, seg, r, tol, want_half=True)


def return_map(fld: VectorField2, seg: TransverseSegment, r: float,
               tol: float = 1e-12) -> ReturnMapSample:
    """First return to Sigma itself (the Poincare map)."""
    return _return_sample(fld, seg, r, tol, want_half=False)


def half_return_composition(
    fld: VectorField2, seg: TransverseSegment, r: float, tol: float = 1e-12,
) -> tuple[ReturnMapSample, ReturnMapSample]:
    """Two half returns: Sigma -> -Sigma, then -Sigma -> Sigma.

    The second leg starts on the antipodal segment, so the composition
    retraces one full return; for a center the final parameter equals r.
    """
    first = half_return_map(fld, seg, r, tol)
    anti = TransverseSegment((-seg.direction[0], -seg.direction[1]),
                             seg.length)
    second = half_return_map(fld, anti, first.r_out, tol)
    return first, second


def detect_periodic_sequence(
    fld: VectorField2,
    seg: TransverseSegment,
    radii,
    rel_tol: float = 1e-8,
    tol: float = 1e-12,
) -> PeriodicSequenceReport:
    """Residuals |P(r) - r| over a shrinking radius schedule.

    The periodicity threshold is relative to r: near the origin the
    residual of a genuine return shrinks with the orbit, while a slow
    focus produces residuals growing past the threshold.
    """
    radii = tuple(radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    samples = []
    residuals = []
    for r in radii:
        s = return_map(fld, seg, r, tol=tol)
        samples.append(s)
        residuals.append(s.r_out - s.r_in)
    periodic = all(abs(res) <= rel_tol * r for res, r in zip(residuals, radii))
    return PeriodicSequenceReport(periodic, samples, residuals)


def bounded_order_scan(
    fld: VectorField2,
    seg: TransverseSegment,
    points,
    *,
    t_budget: float = 1e3,
    tol: float = 1e-9,
    domain_radius: float = 2.0,
) -> list[PointOrderScan]:
    """Count distinct transversal meetings of each orbit with the segment.

    Orbits are followed forward and backward within the time budget, on
    the one field (backward over (0, -t_budget)); the count is over
    distinct points of the orbit set (crossing positions are
    deduplicated, so a start on the segment counts once), and it is a
    lower bound whenever the budget ran out before the orbit left the
    domain.  The caller compares the count with its bound.
    """
    rhs = _NumericField(fld)
    _check_transversality(seg, rhs)
    out = []
    for pt in points:
        legs = [_section_crossings(rhs, seg, pt, t_max, tol, domain_radius)
                for t_max in (t_budget, -t_budget)]
        exhausted = any(status == "reached_t_max" for _, status in legs)
        params = [p for crossings, _ in legs for _, p in crossings
                  if 0 < p <= seg.length]
        distinct: list[float] = []
        for p in sorted(params):
            if all(abs(p - q) > 1e-7 * (1 + abs(p)) for q in distinct):
                distinct.append(p)
        out.append(PointOrderScan(len(distinct), exhausted))
    return out


def level_set_conservation(
    fld: VectorField2,
    first_integral: Poly2,
    x0,
    t_max: float,
    tol: float = 1e-10,
    domain_radius: float = 2.0,
) -> float:
    """Max deviation of a putative first integral along one trajectory."""
    traj = integrate(fld, x0, t_max, tol, domain_radius)
    ev = first_integral.binary64()
    ref = ev(*map(float, x0))
    return max(abs(ev(x, y) - ref) for x, y in traj.states)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Orbit dump: header t,x,y; 17 significant digits per value."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,x,y\n")
        for t, x, y in traj.samples:
            fh.write(f"{t:.17g},{x:.17g},{y:.17g}\n")
