"""Reference pulse sampling and feasibility checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpmod.model import Constraints
from icpmod.refgen import (
    THETA_BOUNDS,
    ReferenceParams,
    ReferenceShape,
    build_reference,
    check_feasible,
)

DT = 0.01


class TestBuildReference:
    def test_plateau_and_baseline_exact(self):
        shape = ReferenceShape()
        params = ReferenceParams(delay_s=0.05, magnitude_mm=0.5)
        traj = build_reference(shape, params, period=100, dt=DT)
        # plateau runs (delay + rise, delay + rise + up) = (0.15, 0.25)
        plateau = traj.samples[16:25]
        np.testing.assert_array_equal(plateau, np.full(9, shape.baseline_mm + 0.5))
        assert traj.samples[0] == shape.baseline_mm
        assert traj.samples[-1] == shape.baseline_mm

    def test_breakpoint_samples_exact(self):
        shape = ReferenceShape()
        params = ReferenceParams(delay_s=0.05, magnitude_mm=0.5)
        traj = build_reference(shape, params, period=100, dt=DT)
        r = traj.samples
        assert r[5] == shape.baseline_mm                       # end of delay
        assert r[15] == shape.baseline_mm + 0.5                # end of rise
        assert r[25] == shape.baseline_mm + 0.5                # end of plateau
        np.testing.assert_allclose(r[37], shape.baseline_mm - 0.1, atol=1e-12)
        np.testing.assert_allclose(r[43], shape.baseline_mm, atol=1e-12)

    def test_linear_rise(self):
        shape = ReferenceShape()
        params = ReferenceParams(delay_s=0.0, magnitude_mm=1.0)
        traj = build_reference(shape, params, period=100, dt=DT)
        rise = traj.samples[:11]
        np.testing.assert_allclose(np.diff(rise), np.full(10, 0.1), atol=1e-12)

    def test_default_thetas_end_on_baseline_at_both_rates(self):
        shape = ReferenceShape()
        for period in (100, 67):  # 60 and 90 BPM at 100 Hz
            for delay in (0.0, 0.1, 0.2):
                for mag in (0.2, 1.25):
                    traj = build_reference(
                        shape, ReferenceParams(delay, mag), period, DT)
                    assert traj.samples[-1] == shape.baseline_mm

    def test_pulse_must_fit_period(self):
        shape = ReferenceShape()
        with pytest.raises(ValueError, match="does not fit"):
            build_reference(shape, ReferenceParams(0.2, 0.5), period=50, dt=DT)

    def test_periodic_window_extension(self):
        shape = ReferenceShape()
        traj = build_reference(shape, ReferenceParams(0.05, 0.5), 100, DT)
        win = traj.window(95, 15)
        np.testing.assert_array_equal(win[:5], traj.samples[95:])
        np.testing.assert_array_equal(win[5:], traj.samples[:10])


class TestCheckFeasible:
    def setup_method(self):
        self.shape = ReferenceShape()
        self.cons = Constraints()

    def test_whole_theta_box_feasible_at_default_rates(self):
        for period in (100, 67):
            for d in np.linspace(*THETA_BOUNDS[0], 9):
                for m in np.linspace(*THETA_BOUNDS[1], 9):
                    ok, why = check_feasible(self.shape, ReferenceParams(d, m),
                                             period, DT, self.cons)
                    assert ok, why

    def test_out_of_box_delay(self):
        ok, why = check_feasible(self.shape, ReferenceParams(0.3, 0.5), 100,
                                 DT, self.cons)
        assert not ok and "delay" in why

    def test_peak_above_travel(self):
        cons = Constraints(position=(0.0, 1.0))
        ok, why = check_feasible(self.shape, ReferenceParams(0.0, 0.5), 100,
                                 DT, cons, theta_bounds=THETA_BOUNDS)
        assert not ok and "peak" in why

    def test_slope_violation(self):
        shape = ReferenceShape(rise_s=0.005)
        ok, why = check_feasible(shape, ReferenceParams(0.0, 1.0), 100, DT,
                                 self.cons)
        assert not ok and "slope" in why

    def test_zero_duration_segment(self):
        shape = ReferenceShape(rise_s=0.0)
        ok, why = check_feasible(shape, ReferenceParams(0.0, 1.0), 100, DT,
                                 self.cons)
        assert not ok and "zero duration" in why

    def test_period_overflow_named(self):
        ok, why = check_feasible(self.shape, ReferenceParams(0.2, 0.5), 50, DT,
                                 self.cons)
        assert not ok and "period" in why


class TestGating:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.2),
           st.floats(min_value=0.2, max_value=1.25))
    def test_samples_bounded_by_peak_and_trough(self, delay, mag):
        shape = ReferenceShape()
        traj = build_reference(shape, ReferenceParams(delay, mag), 100, DT)
        assert np.all(traj.samples <= shape.baseline_mm + mag + 1e-12)
        assert np.all(traj.samples >= shape.baseline_mm - shape.undershoot_mm - 1e-12)
