"""Numerical dynamics: trajectories, Poincare return maps on transverse
segments, periodic-sequence detection and bounded-order scans.

Integration is delegated to scipy's adaptive embedded Runge-Kutta pairs.
Section crossings are located by scipy's event root finding on the
interpolant of the step that holds them, and then classified exactly once
here, so the same crossing logic serves half returns, full returns and
orbit-order counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .series import Poly2, VectorField2, gr

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


class StepUnderflow(RuntimeError):
    """The adaptive step collapsed (near-singular passage)."""


class NoReturn(RuntimeError):
    """No qualifying section crossing within the time budget."""


class _NumericField:
    """Binary64 right-hand side compiled from an exact vector field."""

    def __init__(self, fld: VectorField2):
        if not fld.real:
            raise ValueError("numeric integration expects a real field")
        self.p, self.q = fld.p.binary64(), fld.q.binary64()

    def __call__(self, t, s):
        return self.p(*s), self.q(*s)


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration steps."""

    t: np.ndarray
    states: np.ndarray  # shape (n, 2)
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

    def check_transversality(self, fld: VectorField2) -> None:
        """Sampled invariant: |X . normal| stays away from 0 off the origin."""
        rhs = _NumericField(fld)
        nx, ny = self.normal
        for k in range(1, _TRANSVERSAL_SAMPLES + 1):
            r = self.length * k / _TRANSVERSAL_SAMPLES
            p = (r * self.direction[0], r * self.direction[1])
            vx, vy = rhs(0.0, p)
            speed = math.hypot(vx, vy)
            if speed == 0 or abs(vx * nx + vy * ny) < _TRANSVERSAL * speed:
                raise ValueError(
                    f"field is not transverse to the segment at radius {r}"
                )


@dataclass(frozen=True)
class ReturnMapSample:
    r_in: float
    r_out: float
    crossings: int
    return_time: float


@dataclass(frozen=True)
class PeriodicSequenceReport:
    periodic: bool
    radii: tuple[float, ...]
    samples: list[ReturnMapSample]
    residuals: list[float]
    relative_tolerance: float

    @property
    def verdict(self) -> str:
        return "PERIODIC_SEQUENCE" if self.periodic else "NOT_PERIODIC"


@dataclass(frozen=True)
class PointOrderScan:
    point: tuple[float, float]
    count: int
    within_bound: bool
    budget_exhausted: bool


def _solve(rhs, x0, t_max, tol, domain_radius, extra_events=()):
    def domain_exit(t, s):
        return domain_radius**2 - (s[0] ** 2 + s[1] ** 2)

    domain_exit.terminal = True
    sol = solve_ivp(
        rhs, (0.0, t_max), np.asarray(x0, dtype=float),
        method="DOP853", rtol=tol, atol=tol,
        events=[domain_exit, *extra_events],
    )
    if sol.status == -1:
        raise StepUnderflow(sol.message)
    return sol


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
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sol = _solve(_NumericField(fld), x0, t_max, tol, domain_radius)
    status = "left_domain" if sol.status == 1 else "reached_t_max"
    return Trajectory(sol.t, sol.y.T, status)


def _require_normalized_rotation(fld: VectorField2) -> None:
    lin = fld.linear_part_matrix()
    ok = (lin[0][0] == gr(0) and lin[0][1] == gr(-1)
          and lin[1][0] == gr(1) and lin[1][1] == gr(0))
    if not ok:
        raise ValueError(
            "return maps expect a field normalized to -y d/dx + x d/dy"
        )


@dataclass(frozen=True)
class _Crossing:
    time: float
    param: float  # signed coordinate along the segment direction
    transversal: bool


def _section_crossings(rhs, seg: TransverseSegment, x0, t_max, tol,
                       domain_radius) -> tuple[list[_Crossing], str]:
    nx, ny = seg.normal

    def section(t, s):
        return s[0] * nx + s[1] * ny

    sol = _solve(rhs, x0, t_max, tol, domain_radius, extra_events=(section,))
    crossings = []
    dx, dy = seg.direction
    for te, (px, py) in zip(sol.t_events[1], sol.y_events[1]):
        if te <= 1e-9:
            continue
        vx, vy = rhs(te, (px, py))
        speed = math.hypot(vx, vy)
        transversal = speed > 0 and \
            abs(vx * nx + vy * ny) >= _TRANSVERSAL * speed
        crossings.append(_Crossing(float(te), float(px * dx + py * dy),
                                   transversal))
    status = "left_domain" if sol.status == 1 else "reached_t_max"
    return crossings, status


def _return_sample(fld, seg, r, tol, want_half) -> ReturnMapSample:
    _require_normalized_rotation(fld)
    if not 0 < r <= seg.length:
        raise ValueError("radius must lie inside the segment")
    seg.check_transversality(fld)
    rhs = _NumericField(fld)
    x0 = (r * seg.direction[0], r * seg.direction[1])
    crossings, _ = _section_crossings(rhs, seg, x0, _T_MAX, tol, 2.0)
    hits = 0
    for c in crossings:
        if not c.transversal:
            continue
        if c.param > 0:
            hits += 1
            if not want_half:
                return ReturnMapSample(r, c.param, hits, c.time)
        elif want_half:
            return ReturnMapSample(r, -c.param, hits, c.time)
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
    return PeriodicSequenceReport(periodic, radii, samples, residuals,
                                  rel_tol)


def bounded_order_scan(
    fld: VectorField2,
    seg: TransverseSegment,
    points,
    k: int,
    t_budget: float = 1e3,
    tol: float = 1e-9,
    domain_radius: float = 2.0,
) -> list[PointOrderScan]:
    """Count distinct transversal meetings of each orbit with the segment.

    Orbits are followed forward and backward within the time budget; the
    count is over distinct points of the orbit set (crossing positions are
    deduplicated), and it is a lower bound whenever the budget ran out
    before the orbit left the domain.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    seg.check_transversality(fld)
    rhs = _NumericField(fld)
    neg = VectorField2(-fld.p, -fld.q)
    rhs_back = _NumericField(neg)
    dx, dy = seg.direction
    nx, ny = seg.normal
    out = []
    for pt in points:
        pt = (float(pt[0]), float(pt[1]))
        params: list[float] = []
        exhausted = False
        for direction_rhs in (rhs, rhs_back):
            crossings, status = _section_crossings(
                direction_rhs, seg, pt, t_budget, tol, domain_radius
            )
            exhausted = exhausted or status == "reached_t_max"
            params.extend(c.param for c in crossings
                          if c.transversal and 0 < c.param <= seg.length)
        on_section = abs(pt[0] * nx + pt[1] * ny) <= 1e-12
        start_param = pt[0] * dx + pt[1] * dy
        if on_section and 0 < start_param <= seg.length:
            params.append(start_param)
        distinct: list[float] = []
        for p in sorted(params):
            if all(abs(p - q) > 1e-7 * (1 + abs(p)) for q in distinct):
                distinct.append(p)
        out.append(PointOrderScan(pt, len(distinct), len(distinct) <= k,
                                  exhausted))
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
