"""Simulated desk-scale test bench: actuation motor, balloon volume map, and
a brain-phantom pressure model replicating an ICP-like cardiac waveform.

The motor truth model is deliberately richer than the 2-state LTI model the
controllers use: viscous damping, a smooth Coulomb-like friction state, a
constant load bias, and hard travel stops.  The phantom superimposes a
harmonically generated cardiac waveform (normalized to an exact mean and
peak-to-peak amplitude per period) with a monoexponential compliance response
to the balloon volume, behind a fixed 2-sample actuation-to-pressure
transport lag.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PRESSURE_GUARD_MMHG = (0.0, 60.0)
TRANSPORT_LAG_STEPS = 2

_SUBSTEPS = 5

# Cardiac harmonic mix: systolic-weighted fundamental plus two overtones,
# peak near 29 % of the period with a dicrotic shoulder.
_HARMONIC_AMPS = (1.0, 0.5, 0.22)
_HARMONIC_PHASES = (-0.35, 0.65, 1.9)


class PressureGuardError(RuntimeError):
    """Simulated pressure left the physically plausible range."""


@dataclass(frozen=True)
class MotorParams:
    """Truth-model constants (millimetre / second / ampere units)."""

    gain_mm_s2_per_A: float = 180.0
    viscous_per_s: float = 6.0
    coulomb_mm_s2: float = 25.0
    stribeck_vel_mm_s: float = 0.4
    friction_tau_s: float = 0.01
    load_bias_mm_s2: float = 12.0
    travel_mm: tuple = (0.0, 2.6)


@dataclass(frozen=True)
class TruthPlantState:
    position: float
    velocity: float = 0.0
    friction: float = 0.0  # smoothed Coulomb state in [-1, 1]


def truth_step(state: TruthPlantState, u: float, dt: float,
               params: MotorParams) -> tuple[TruthPlantState, bool]:
    """Advance the truth model one sample (fixed substep semi-implicit Euler).

    Returns the new state and whether a travel stop clamped the motion.
    """
    pos, vel, fric = state.position, state.velocity, state.friction
    h = dt / _SUBSTEPS
    lo, hi = params.travel_mm
    clamped = False
    for _ in range(_SUBSTEPS):
        acc = (params.gain_mm_s2_per_A * u
               - params.viscous_per_s * vel
               - params.coulomb_mm_s2 * fric
               - params.load_bias_mm_s2)
        fric = fric + h * (math.tanh(vel / params.stribeck_vel_mm_s) - fric) / params.friction_tau_s
        vel = vel + h * acc
        pos = pos + h * vel
        if pos < lo:
            pos, vel, clamped = lo, 0.0, True
        elif pos > hi:
            pos, vel, clamped = hi, 0.0, True
    return TruthPlantState(position=pos, velocity=vel, friction=fric), clamped


class BeatClock:
    """Integer phase counter over one cardiac period."""

    def __init__(self, period: int, dt: float):
        period = int(period)
        if period < 2:
            raise ValueError(f"period must be at least 2 samples, got {period}")
        self.period = period
        self.dt = float(dt)
        self.phase = 0

    @classmethod
    def from_bpm(cls, bpm: float, dt: float) -> "BeatClock":
        return cls(period=int(round(60.0 / (bpm * dt))), dt=dt)

    def tick(self) -> None:
        self.phase = (self.phase + 1) % self.period


def beat_trigger(clock: BeatClock) -> bool:
    """One trigger per period, at phase zero."""
    return clock.phase == 0


@dataclass(frozen=True)
class PhantomConfig:
    """Pressure-side configuration of the simulated bench."""

    mean_icp_mmhg: float = 15.0
    amp_icp_mmhg: float = 1.0
    bpm: float = 60.0
    elastance_per_ml: float = 1.0
    compliance_p0_mmhg: float = 0.7
    dead_travel_mm: float = 0.63
    volume_gain_ml_per_mm: float = 1.0
    saturation_volume_ml: float = 2.5
    noise_std_mmhg: float = 0.0

    def __post_init__(self):
        if self.amp_icp_mmhg < 0.0:
            raise ValueError("amp_icp_mmhg must be nonnegative")
        if self.saturation_volume_ml <= 0.0 or self.volume_gain_ml_per_mm <= 0.0:
            raise ValueError("balloon volume parameters must be positive")
        if self.bpm <= 0.0:
            raise ValueError("bpm must be positive")


@lru_cache(maxsize=32)
def _waveform_table(period: int, mean: float, amp: float) -> np.ndarray:
    tf = np.arange(period) / period
    raw = np.zeros(period)
    for j, (a, ph) in enumerate(zip(_HARMONIC_AMPS, _HARMONIC_PHASES), start=1):
        raw += a * np.sin(2.0 * np.pi * j * tf + ph)
    if amp == 0.0:
        table = np.full(period, mean)
    else:
        raw = raw - raw.mean()
        table = mean + amp * raw / np.ptp(raw)
        table = table - table.mean() + mean  # pin the sample mean exactly
    table.setflags(write=False)
    return table


def cardiac_waveform(phase: int, period: int, config: PhantomConfig) -> float:
    """Unactuated phantom pressure at an integer phase of the beat period.

    The discrete period is normalized post-hoc, so its sample mean equals
    mean_icp_mmhg and its peak-to-peak equals amp_icp_mmhg exactly.
    """
    table = _waveform_table(int(period), config.mean_icp_mmhg, config.amp_icp_mmhg)
    return float(table[phase % period])


def balloon_volume(position_mm: float, config: PhantomConfig) -> float:
    """Smooth monotone saturating displacement-to-volume map with dead travel:
    exactly zero at or below dead_travel_mm, asymptoting to the saturation
    volume."""
    x = max(0.0, position_mm - config.dead_travel_mm) * config.volume_gain_ml_per_mm
    vmax = config.saturation_volume_ml
    return vmax * math.tanh(x / vmax)


def compliance_dp(volume_ml: float, config: PhantomConfig) -> float:
    """Monoexponential (Marmarou-style) pressure rise for an added volume."""
    return config.compliance_p0_mmhg * math.expm1(config.elastance_per_ml * volume_ml)


def phantom_pressure(position_mm: float, phase: int, period: int,
                     config: PhantomConfig, noise: float = 0.0) -> float:
    """Cardiac waveform plus the compliance response to the balloon volume.

    `position_mm` is the motor position driving the balloon; the caller is
    responsible for any transport lag (the bench applies 2 samples).
    """
    p = (cardiac_waveform(phase, period, config)
         + compliance_dp(balloon_volume(position_mm, config), config)
         + noise)
    lo, hi = PRESSURE_GUARD_MMHG
    if not lo <= p <= hi:
        raise PressureGuardError(
            f"pressure {p:.2f} mmHg outside plausible range [{lo}, {hi}]")
    return p


@dataclass(frozen=True)
class BenchSample:
    """Measurements available to the controller at one step."""

    y_mm: float
    p_mmhg: float
    phase: int
    trigger: bool


class PhantomBench:
    """Stateful closed-loop bench: motor truth model, beat clock, transport
    lag, measurement noise, and safety counting."""

    def __init__(self, motor: MotorParams, phantom: PhantomConfig, dt: float,
                 initial_position: float = 0.63, seed: int = 0,
                 with_phantom: bool = True):
        self.motor = motor
        self.phantom = phantom
        self.dt = float(dt)
        self.clock = BeatClock.from_bpm(phantom.bpm, dt)
        self.state = TruthPlantState(position=initial_position)
        self.with_phantom = with_phantom
        self._lag = deque([initial_position] * (TRANSPORT_LAG_STEPS + 1),
                          maxlen=TRANSPORT_LAG_STEPS + 1)
        self._rng = np.random.default_rng(seed)
        self.clamp_events = 0

    def measure(self) -> BenchSample:
        """Sample the sensors for the current step (no state change)."""
        if self.with_phantom:
            noise = (self._rng.normal(0.0, self.phantom.noise_std_mmhg)
                     if self.phantom.noise_std_mmhg > 0.0 else 0.0)
            p = phantom_pressure(self._lag[0], self.clock.phase,
                                 self.clock.period, self.phantom, noise)
        else:
            p = np.nan
        return BenchSample(y_mm=self.state.position, p_mmhg=p,
                           phase=self.clock.phase, trigger=beat_trigger(self.clock))

    def apply(self, u: float) -> None:
        """Apply the input for this step and advance plant, lag, and clock."""
        self.state, clamped = truth_step(self.state, u, self.dt, self.motor)
        if clamped:
            self.clamp_events += 1
        self._lag.append(self.state.position)
        self.clock.tick()
