import copy
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from centerfocus import flow
from centerfocus.flow import (
    NoReturn,
    TransverseSegment,
    bounded_order_scan,
    detect_periodic_sequence,
    half_return_composition,
    half_return_map,
    integrate,
    level_set_conservation,
    return_map,
    trajectory_to_csv,
)
from centerfocus.series import Poly2, VectorField2, gr

N = 8


def rotation():
    x, y = Poly2.var_x(N), Poly2.var_y(N)
    return VectorField2(-y, x)


def cubic_focus(sign=1):
    x, y = Poly2.var_x(N), Poly2.var_y(N)
    r2 = x * x + y * y
    return VectorField2(-y + sign * x * r2, x + sign * y * r2)


def hamiltonian_cubic():
    x, y = Poly2.var_x(N), Poly2.var_y(N)
    return VectorField2(-y, x + x * x)


def cusp():
    x, y = Poly2.var_x(N), Poly2.var_y(N)
    return VectorField2(3 * y * y, 2 * x)


SEG = TransverseSegment((1.0, 0.0), 0.25)

# closed-form focus oracle: theta' = 1 and r' = r^3 give
# 1/r1^2 = 1/r0^2 - 4 pi over one full turn
FOCUS_RETURN_01 = 1 / math.sqrt(1 / 0.01 - 4 * math.pi)     # 0.10694506...
FOCUS_RETURN_005 = 1 / math.sqrt(400 - 4 * math.pi)         # 0.05080440...


class TestIntegrate:
    def test_circular_orbit_closes(self):
        traj = integrate(rotation(), (0.1, 0.0), 2 * math.pi, tol=1e-12)
        end = traj.states[-1]
        assert math.hypot(end[0] - 0.1, end[1]) < 1e-10

    def test_cusp_hamiltonian_conserved(self):
        # cusp fixture: H = x^2 - y^3 is constant along orbits
        traj = integrate(cusp(), (1.0, 1.0), 1.0, tol=1e-10, domain_radius=6.0)
        h = [x * x - y**3 for x, y in traj.states]
        assert max(abs(v - h[0]) for v in h) < 1e-8

    def test_focus_spirals_outward(self):
        traj = integrate(cubic_focus(), (0.1, 0.0), 2 * math.pi, tol=1e-10)
        end = traj.states[-1]
        assert math.hypot(*end) > 0.1

    def test_leaves_domain(self):
        traj = integrate(cusp(), (1.0, 1.0), 50.0, tol=1e-8, domain_radius=4.0)
        assert traj.status == "left_domain"
        assert math.hypot(*traj.states[-1]) <= 4.0 + 1e-6

    def test_sample_times_increase(self):
        traj = integrate(rotation(), (0.1, 0.0), 5.0, tol=1e-9)
        ts = [s[0] for s in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_integrator_order_slope(self):
        # error-per-unit-step control of the embedded pair: endpoint error
        # scales essentially linearly with the tolerance
        tols = [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11]
        errs = []
        for tol in tols:
            traj = integrate(rotation(), (0.1, 0.0), 2 * math.pi, tol=tol)
            end = traj.states[-1]
            errs.append(max(math.hypot(end[0] - 0.1, end[1]), 1e-16))
        slope = np.polyfit(np.log(tols), np.log(errs), 1)[0]
        assert 0.39 < slope < 1.39


class TestReturnMaps:
    def test_linear_rotation_half_return(self):
        s = half_return_map(rotation(), SEG, 0.1)
        assert abs(s.r_out - 0.1) < 1e-10
        assert abs(s.return_time - math.pi) < 1e-8

    def test_linear_rotation_full_return(self):
        s = return_map(rotation(), SEG, 0.2)
        assert abs(s.r_out - 0.2) < 1e-10
        assert abs(s.return_time - 2 * math.pi) < 1e-8

    def test_focus_return_matches_closed_form(self):
        s = return_map(cubic_focus(), SEG, 0.1)
        assert abs(s.r_out - FOCUS_RETURN_01) < 1e-4
        s = return_map(cubic_focus(), SEG, 0.05)
        assert abs(s.r_out - FOCUS_RETURN_005) < 1e-4

    def test_half_return_composition_is_identity_for_center(self):
        for r in (0.2, 0.1, 0.05):
            _, second = half_return_composition(hamiltonian_cubic(), SEG, r)
            assert abs(second.r_out - r) / r < 1e-9

    def test_full_return_equals_composed_halves(self):
        for fld in (hamiltonian_cubic(), cubic_focus()):
            for r in (0.1, 0.05):
                full = return_map(fld, SEG, r, tol=1e-12)
                _, second = half_return_composition(fld, SEG, r, tol=1e-12)
                assert abs(full.r_out - second.r_out) <= 2e-12 + 2e-9 * r

    def test_radius_outside_segment_rejected(self):
        with pytest.raises(ValueError):
            return_map(rotation(), SEG, 0.3)

    def test_unnormalized_field_rejected(self):
        x, y = Poly2.var_x(N), Poly2.var_y(N)
        with pytest.raises(ValueError):
            return_map(VectorField2(-2 * y, 2 * x), SEG, 0.1)

    def test_no_return_when_orbit_escapes_first(self):
        # strong outward drift exits the domain before the half turn
        x, y = Poly2.var_x(N), Poly2.var_y(N)
        r2 = x * x + y * y
        fld = VectorField2(-y + 60 * x * r2, x + 60 * y * r2)
        with pytest.raises(NoReturn):
            return_map(fld, SEG, 0.2)

    def test_crossing_read_from_event_location(self, monkeypatch):
        # against a reference solve that builds scipy's global dense output,
        # the return map evaluates the right-hand side less often and gives
        # the reference's r_out bit for bit
        fld, r = cubic_focus(), 0.1
        calls = []
        call = flow._NumericField.__call__
        monkeypatch.setattr(flow._NumericField, "__call__",
                            lambda self, t, s: calls.append(1)
                            or call(self, t, s))
        sample = return_map(fld, SEG, r, tol=1e-12)
        ours = len(calls)
        del calls[:]

        def domain_exit(t, s):
            return 4.0 - (s[0] ** 2 + s[1] ** 2)

        domain_exit.terminal = True
        ref = solve_ivp(flow._NumericField(fld), (0.0, 50.0), [r, 0.0],
                        method="DOP853", rtol=1e-12, atol=1e-12,
                        dense_output=True,
                        events=[domain_exit, lambda t, s: s[1]])
        te = next(t for t in ref.t_events[1]
                  if t > 1e-9 and ref.sol(t)[0] > 0)
        assert sample.return_time == te
        assert sample.r_out == ref.sol(te)[0]
        assert ours < len(calls)

    def test_tracer_sees_every_solve(self, monkeypatch):
        # an external tracer wraps the module-level name `flow.solve_ivp`;
        # the one solve of a return map goes through that name, and the
        # wrapped run gives the same sample
        plain = return_map(rotation(), SEG, 0.1)
        seen = []
        solve = flow.solve_ivp
        monkeypatch.setattr(flow, "solve_ivp", lambda *a, **k:
                            seen.append(solve(*a, **k)) or seen[-1])
        assert return_map(rotation(), SEG, 0.1) == plain
        assert len(seen) == 1 and seen[0].nfev > 0

    def test_tangency_on_segment_rejected(self):
        # q vanishes at radius 0.15, killing transversality there
        from fractions import Fraction
        x, y = Poly2.var_x(N), Poly2.var_y(N)
        fld = VectorField2(-y, x - Fraction(20, 3) * x * x)
        seg = TransverseSegment((1.0, 0.0), 0.3)
        with pytest.raises(ValueError):
            return_map(fld, seg, 0.1)


class TestPeriodicSequence:
    RADII = (0.2, 0.1, 0.05, 0.025)

    def test_linear_rotation(self):
        rep = detect_periodic_sequence(rotation(), SEG, self.RADII)
        assert rep.verdict == "PERIODIC_SEQUENCE"
        assert all(abs(r) <= 1e-10 for r in rep.residuals)

    def test_hamiltonian_center(self):
        rep = detect_periodic_sequence(hamiltonian_cubic(), SEG, self.RADII)
        assert rep.periodic

    def test_outward_focus_not_periodic(self):
        rep = detect_periodic_sequence(cubic_focus(), SEG, self.RADII)
        assert not rep.periodic
        assert all(r > 0 for r in rep.residuals)
        assert sorted(rep.residuals) == list(reversed(rep.residuals))

    def test_inward_focus_not_periodic(self):
        rep = detect_periodic_sequence(cubic_focus(-1), SEG, self.RADII)
        assert not rep.periodic
        assert all(r < 0 for r in rep.residuals)

    def test_monotone_focus_law(self):
        # positive first obstruction implies P(r) > r on every tested r
        for r in (0.2, 0.15, 0.1, 0.05, 0.025):
            assert return_map(cubic_focus(), SEG, r).r_out > r


class TestBoundedOrder:
    def test_rotation_orbit_meets_ray_once(self):
        scans = bounded_order_scan(rotation(), SEG, [(0.1, 0.0)],
                                   t_budget=50.0)
        assert scans[0].count == 1
        assert scans[0].count <= 1
        assert scans[0].budget_exhausted  # periodic orbit never leaves

    def test_cusp_orbits_bounded_by_two(self):
        # cusp levels meet the vertical axis a bounded number of times
        seg = TransverseSegment((0.0, 1.0), 1.0)
        points = [(0.0, 0.05 + 0.05 * i) for i in range(10)]
        scans = bounded_order_scan(cusp(), seg, points, t_budget=100.0,
                                   domain_radius=3.0)
        assert len(scans) == 10
        for s in scans:
            assert s.count <= 2
            assert not s.budget_exhausted

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.6, 0.8)])
    @pytest.mark.parametrize("make", [cusp, hamiltonian_cubic, cubic_focus,
                                      lambda: cubic_focus(-1), rotation],
                             ids=["cusp", "hamiltonian_cubic", "focus_out",
                                  "focus_in", "rotation"])
    def test_backward_leg_equals_negated_field_forward(self, make, direction,
                                                       monkeypatch):
        # reference: the backward leg as the forward run of -X; the same
        # crossings at negated times, bit for bit, and the same end status
        fld, seg = make(), TransverseSegment(direction, 1.0)
        dx, dy = seg.direction
        rhs = flow._NumericField(fld)
        neg = flow._NumericField(VectorField2(-fld.p, -fld.q))
        raw = []
        solve = flow.solve_ivp
        monkeypatch.setattr(flow, "solve_ivp", lambda *a, **k:
                            raw.append(solve(*a, **k)) or raw[-1])
        points = [(0.3 * dx, 0.3 * dy), (0.0, 0.3), (-0.2, 0.15),
                  (0.5, -0.4), (-1.2, 0.9)]
        for pt in points:
            back, status = flow._section_crossings(rhs, seg, pt, -20.0, 1e-9,
                                                   3.0)
            ref, ref_status = flow._section_crossings(neg, seg, pt, 20.0,
                                                      1e-9, 3.0)
            assert ([(-t, p) for t, p in back], status) == (ref, ref_status)
        # the first point starts on the section: its event at t = -0.0 is
        # found
        assert any(abs(t) <= 1e-9 for t in raw[0].t_events[1])

    @pytest.mark.parametrize("x0", [0.0, 1e-13, 5e-11, 5e-10, 1e-6])
    def test_start_on_or_near_section_counts_once(self, x0):
        # the cusp orbit through (x0, 0.3) meets x = 0 once, at the start
        # or within |t| of about 1e-9 of it; both legs may report it
        seg = TransverseSegment((0.0, 1.0), 1.0)
        [scan] = bounded_order_scan(cusp(), seg, [(x0, 0.3)], t_budget=100.0,
                                    domain_radius=3.0)
        assert (scan.count, scan.budget_exhausted) == (1, False)

    def test_focus_spiral_exceeds_bound(self):
        scans = bounded_order_scan(cubic_focus(), SEG, [(0.1, 0.0)],
                                   t_budget=300.0)
        assert scans[0].count > 3


# every solve entry point, as a function of (tol, time span); the return
# maps run on their fixed budget
ENTRY_POINTS = {
    "integrate": lambda tol, t: integrate(rotation(), (0.1, 0.0), t, tol=tol),
    "return_map": lambda tol, t: return_map(rotation(), SEG, 0.1, tol=tol),
    "half_return_map": lambda tol, t: half_return_map(rotation(), SEG, 0.1,
                                                      tol=tol),
    "detect_periodic_sequence": lambda tol, t: detect_periodic_sequence(
        rotation(), SEG, (0.1,), tol=tol),
    "bounded_order_scan": lambda tol, t: bounded_order_scan(
        rotation(), SEG, [(0.1, 0.0)], t_budget=t, tol=tol),
    "level_set_conservation": lambda tol, t: level_set_conservation(
        rotation(), Poly2({(2, 0): 1, (0, 2): 1}, N), (0.1, 0.0), t, tol=tol),
}


def test_segment_normalises_its_direction():
    seg = TransverseSegment([3.0, -4.0], 2.0)
    assert (seg.direction, seg.normal) == ((0.6, -0.8), (0.8, 0.6))
    assert seg == TransverseSegment((6.0, -8.0), 2.0) != \
        TransverseSegment((6.0, -8.0), 1.0)
    assert hash(seg) == hash(TransverseSegment((6.0, -8.0), 2.0))
    assert repr(seg) == \
        "TransverseSegment(direction=(0.6, -0.8), length=2.0)"
    # a copy keeps the stored direction, which normalising it again moves
    seg = TransverseSegment((1.0, 1.0), 1.0)
    assert TransverseSegment(seg.direction, 1.0) != seg
    assert copy.copy(seg) == seg == pickle.loads(pickle.dumps(seg))


class TestInputChecks:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_tolerance_not_positive_refused(self, name, tol):
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            ENTRY_POINTS[name](tol, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["integrate", "bounded_order_scan",
                                      "level_set_conservation"])
    def test_time_span_not_finite_refused(self, name, t):
        with pytest.raises(ValueError, match="^time span must be finite$"):
            ENTRY_POINTS[name](1e-9, t)

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan])
    def test_relative_tolerance_not_positive_refused(self, rel_tol):
        # the rotation is periodic at every radius, so no residual test
        # could tell a bad threshold apart from a verdict
        with pytest.raises(ValueError,
                           match="^relative tolerance must be positive$"):
            detect_periodic_sequence(rotation(), SEG, (0.1,), rel_tol=rel_tol)

    @pytest.mark.parametrize("tol,t_budget,message", [
        (math.nan, 1.0, "tolerance must be positive"),
        (-1.0, 1.0, "tolerance must be positive"),
        (1e-9, math.inf, "time span must be finite")])
    def test_order_scan_checks_its_inputs_with_no_points(self, tol, t_budget,
                                                         message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            bounded_order_scan(rotation(), SEG, [], t_budget=t_budget,
                               tol=tol)

    def test_order_scan_bound_is_not_an_argument(self):
        # an old positional bound must not bind to the time budget
        with pytest.raises(TypeError):
            bounded_order_scan(rotation(), SEG, [(0.1, 0.0)], 1, 50.0)


class TestLevelSetConservation:
    def test_rotation_conserves_radius(self):
        f = Poly2({(2, 0): 1, (0, 2): 1}, N)
        dev = level_set_conservation(rotation(), f, (0.1, 0.0), 50.0,
                                     tol=1e-12)
        assert dev <= 1e-10

    def test_hamiltonian_conserves_first_integral(self):
        from fractions import Fraction
        f = Poly2({(2, 0): 1, (0, 2): 1, (3, 0): Fraction(2, 3)}, N)
        dev = level_set_conservation(hamiltonian_cubic(), f, (0.1, 0.0), 50.0,
                                     tol=1e-11)
        assert dev <= 1e-7

    def test_focus_drifts_off_level_set(self):
        f = Poly2({(2, 0): 1, (0, 2): 1}, N)
        dev = level_set_conservation(cubic_focus(), f, (0.1, 0.0), 50.0)
        assert dev > 1e-4


class TestCsvDump:
    def test_header_and_precision(self, tmp_path):
        traj = integrate(rotation(), (0.1, 0.0), 1.0, tol=1e-9)
        path = tmp_path / "orbit.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == len(traj.samples) + 1
        # every row round-trips to the stored binary64 samples
        for row, (t, x, y) in zip(lines[1:], traj.samples):
            ft, fx, fy = map(float, row.split(","))
            assert (ft, fx, fy) == (t, x, y)


# Each refusal of `flow`: the call, the exception type and its message
REFUSALS = {
    "complex-field": (
        lambda: integrate(VectorField2(rotation().p, rotation().q
                                       + Poly2.monomial(2, 0, gr(0, 1), N)),
                          (0.1, 0.0), 1.0),
        ValueError, "numeric integration expects a real field"),
    "segment-without-direction": (
        lambda: TransverseSegment((0.0, 0.0), 0.1), ValueError,
        "segment needs a direction and positive length"),
    "segment-of-length-zero": (
        lambda: TransverseSegment((1.0, 0.0), 0.0), ValueError,
        "segment needs a direction and positive length"),
    "segment-assignment": (lambda: setattr(SEG, "length", 1.0),
                           AttributeError, "cannot assign to field 'length'"),
    "radii-empty": (lambda: detect_periodic_sequence(rotation(), SEG, ()),
                    ValueError, "radii must be positive"),
    "radius-negative": (
        lambda: detect_periodic_sequence(rotation(), SEG, (0.1, -0.1)),
        ValueError, "radii must be positive"),
    # x' = x^2 from x = 1 blows up at t = 1, inside a domain it never leaves
    "step-underflow": (
        lambda: integrate(VectorField2(Poly2.var_x(N) ** 2, Poly2.zero(N)),
                          (1.0, 0.0), 2.0, domain_radius=1e150),
        flow.StepUnderflow,
        "Required step size is less than spacing between numbers."),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusals(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
