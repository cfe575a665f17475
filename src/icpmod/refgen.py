"""Pulse-shaped position references, triggered once per heartbeat.

A pulse is parameterized by theta = (delay after the beat trigger, peak
magnitude above baseline); its fixed shape is: baseline hold during the
delay, linear rise to baseline + magnitude, plateau, linear fall through the
baseline to a small undershoot, linear recovery to baseline, then baseline
until the period ends.  Sampling is piecewise-linear interpolation of the
breakpoint polyline, so plateau samples hit baseline + magnitude exactly and
the trajectory ends on the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Constraints


@dataclass(frozen=True)
class ReferenceShape:
    """Fixed pulse geometry in seconds and millimetres."""

    baseline_mm: float = 0.63
    rise_s: float = 0.10
    up_s: float = 0.10
    fall_s: float = 0.12
    down_s: float = 0.06
    undershoot_mm: float = 0.10

    def __post_init__(self):
        for name in ("rise_s", "up_s", "fall_s", "down_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.undershoot_mm < 0.0:
            raise ValueError("undershoot_mm must be nonnegative")

    def segment_span(self, delay_s: float) -> float:
        return delay_s + self.rise_s + self.up_s + self.fall_s + self.down_s


@dataclass(frozen=True)
class ReferenceParams:
    """The learned parameters theta and their admissible box."""

    delay_s: float
    magnitude_mm: float


#: Admissible theta box: delay in [0, 0.2] s, magnitude in [0.2, 1.25] mm.
THETA_BOUNDS = np.array([[0.0, 0.2], [0.2, 1.25]])


def _breakpoints(shape: ReferenceShape, params: ReferenceParams):
    b = shape.baseline_mm
    t0 = params.delay_s
    t1 = t0 + shape.rise_s
    t2 = t1 + shape.up_s
    t3 = t2 + shape.fall_s
    t4 = t3 + shape.down_s
    times = np.array([0.0, t0, t1, t2, t3, t4])
    values = np.array([b, b, b + params.magnitude_mm, b + params.magnitude_mm,
                       b - shape.undershoot_mm, b])
    return times, values


@dataclass(frozen=True)
class ReferenceTrajectory:
    """One period of reference samples, the pulse starting at phase 0."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    @property
    def period(self) -> int:
        return self.samples.size

    def window(self, phase: int, n: int) -> np.ndarray:
        """n samples starting at `phase`, extended periodically."""
        idx = (phase + np.arange(n)) % self.period
        return self.samples[idx]


def build_reference(shape: ReferenceShape, params: ReferenceParams, period: int,
                    dt: float) -> ReferenceTrajectory:
    """Sample one period of the pulse at k * dt from the trigger."""
    period = int(period)
    if period < 2:
        raise ValueError(f"period must be at least 2 samples, got {period}")
    if shape.segment_span(params.delay_s) > period * dt + 1e-12:
        raise ValueError(
            f"pulse span {shape.segment_span(params.delay_s):.4f} s does not fit "
            f"the {period * dt:.4f} s period")
    times, values = _breakpoints(shape, params)
    t = np.arange(period) * dt
    samples = np.interp(t, times, values)  # constant (baseline) past the pulse
    return ReferenceTrajectory(samples=samples, dt=dt)


def check_feasible(shape: ReferenceShape, params: ReferenceParams, period: int,
                   dt: float, constraints: Constraints,
                   theta_bounds: np.ndarray = THETA_BOUNDS) -> tuple[bool, str]:
    """Validate theta against bounds, position limits, velocity-implied slopes,
    and the period fit.  Returns (ok, reason); reason names the first failed
    check."""
    # Python floats throughout: the search screens thousands of points, and
    # numpy-scalar arithmetic costs several times as much per operation.
    # Conversion is exact, so results and reasons are unchanged.
    d, m = float(params.delay_s), float(params.magnitude_mm)
    (d_lo, d_hi), (m_lo, m_hi) = np.asarray(theta_bounds).tolist()
    if not d_lo <= d <= d_hi:
        return False, f"delay {d:.4f} s outside [{d_lo}, {d_hi}]"
    if not m_lo <= m <= m_hi:
        return False, f"magnitude {m:.4f} mm outside [{m_lo}, {m_hi}]"
    p_lo, p_hi = constraints.position
    peak = shape.baseline_mm + m
    trough = shape.baseline_mm - shape.undershoot_mm
    if peak > p_hi:
        return False, f"peak {peak:.4f} mm above position limit {p_hi}"
    if trough < p_lo:
        return False, f"undershoot {trough:.4f} mm below position limit {p_lo}"
    v_lim = max(abs(constraints.velocity[0]), abs(constraints.velocity[1]))
    for name, drop, dur in (("rise", m, shape.rise_s),
                            ("fall", m + shape.undershoot_mm, shape.fall_s),
                            ("down", shape.undershoot_mm, shape.down_s)):
        if drop > 0.0 and dur <= 0.0:
            return False, f"{name} segment has zero duration with nonzero height"
        if dur > 0.0 and drop / dur > v_lim:
            return False, (f"{name} slope {drop / dur:.1f} mm/s exceeds "
                           f"velocity limit {v_lim:.1f} mm/s")
    if shape.segment_span(d) > period * dt + 1e-12:
        return False, (f"pulse span {shape.segment_span(d):.4f} s exceeds the "
                       f"{period * dt:.4f} s period")
    return True, "ok"

