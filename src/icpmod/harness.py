"""Experiment harness: run configuration, bench identification, closed-loop
execution, and on-disk artifacts for the tracking and modulation scenarios.

A run starts from a RunConfig (YAML round-trippable), identifies a 2-state
model from a short excitation experiment on the simulated motor, closes the
loop with the selected controller(s), and writes a self-contained run
directory: manifest, identified model, per-step traces, and a summary CSV.
All CSV output is formatted deterministically so repeated runs with the same
configuration produce byte-identical traces and summaries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bo import BoConfig, BoResult, PeriodOutcome, evaluate as bo_evaluate, run as bo_run
from .gp import GpHyperparams
from .metrics import ModulationReport, modulation_report, tracking_report
from .model import Constraints, LtiModel, augment, identify_lti
from .mpc import MpcConfig, MpcController, PidConfig, PidController
from .observer import (DEFAULT_OBSERVER_POLES, DisturbanceMemory, ObserverState,
                       observer_step, place_observer_poles)
from .refgen import (THETA_BOUNDS, ReferenceParams, ReferenceShape,
                     ReferenceTrajectory, build_reference, check_feasible)
from .simbench import (BeatClock, MotorParams, PhantomBench, PhantomConfig,
                       PressureGuardError)

CONTROLLERS = ("pid", "mpc", "mpc_offset_free")
SCENARIOS = ("tracking", "modulation")

# Identification experiment: binary excitation about a mid-travel hold with a
# weak proportional pullback so the carriage never drifts into the end stops.
IDENT_HOLD_MM = 1.3
IDENT_PULLBACK_A_PER_MM = 0.5
IDENT_PRBS_AMP_A = 0.15
IDENT_CHIP_SAMPLES = 5
IDENT_WARMUP_SAMPLES = 300
IDENT_RECORD_SAMPLES = 800


class HarnessError(RuntimeError):
    """Raised when a run cannot proceed or violates a hard invariant."""


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunConfig:
    """Everything needed to reproduce one experiment run.

    Scenario-independent fields come first; the nested blocks mirror the
    module-level configuration objects they configure.  `label` fixes the run
    directory name (default: UTC timestamp).  `output_disturbance_mm` adds a
    constant offset to the position measurement seen by the controller, for
    offset-rejection experiments; the logged `pos_mm` column stays truthful.
    """

    scenario: str = "tracking"
    bpm: float = 60.0
    seed: int = 0
    dt: float = 0.01
    outdir: str = "runs"
    label: str | None = None
    periods: int = 12
    warmup_periods: int = 2
    controllers: tuple = CONTROLLERS
    pulse_delay_s: float = 0.05
    pulse_magnitude_mm: float = 0.5
    output_disturbance_mm: float = 0.0
    # Pulse-amplitude target as a multiple of the measured baseline swing.
    # 1.85 balances the two modulation limits: at fast heart rates the same
    # pulse area raises the mean pressure over a shorter period, so pushing
    # the target to 2.0 overshoots the mean-shift budget before it leaves
    # the amplification window.
    amp_target_factor: float = 1.85
    baseline_settle_periods: int = 3
    baseline_record_periods: int = 5
    final_settle_periods: int = 3
    final_record_periods: int = 5
    preview_lead_steps: int = 3
    observer_poles: tuple = DEFAULT_OBSERVER_POLES
    motor: MotorParams = field(default_factory=MotorParams)
    phantom: PhantomConfig = field(default_factory=PhantomConfig)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    pid: PidConfig = field(default_factory=PidConfig)
    shape: ReferenceShape = field(default_factory=ReferenceShape)
    bo: BoConfig = field(default_factory=BoConfig)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.bpm <= 0.0:
            raise ValueError(f"bpm must be positive, got {self.bpm}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if not 0 <= self.warmup_periods < self.periods:
            raise ValueError(
                f"warmup_periods must lie in [0, periods), got {self.warmup_periods}")
        self.controllers = tuple(self.controllers)
        unknown = [c for c in self.controllers if c not in CONTROLLERS]
        if unknown:
            raise ValueError(f"unknown controllers {unknown}; choose from {CONTROLLERS}")
        if not self.controllers:
            raise ValueError("controllers must not be empty")
        for name in ("baseline_settle_periods", "baseline_record_periods",
                     "final_settle_periods", "final_record_periods"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.preview_lead_steps < 0:
            raise ValueError(
                f"preview_lead_steps must be >= 0, got {self.preview_lead_steps}")
        if self.amp_target_factor <= 0.0:
            raise ValueError(
                f"amp_target_factor must be positive, got {self.amp_target_factor}")
        self.observer_poles = tuple(float(p) for p in self.observer_poles)
        # one pole per state of the disturbance-augmented model (position,
        # velocity, disturbance), each inside the unit circle for stability
        if len(self.observer_poles) != 3:
            raise ValueError(f"observer_poles needs 3 poles, got "
                             f"{len(self.observer_poles)}")
        if not all(abs(p) < 1.0 for p in self.observer_poles):
            raise ValueError(f"observer_poles must lie strictly inside the "
                             f"unit circle, got {list(self.observer_poles)}")


def _plain(value):
    """Recursively convert config values to YAML-native types."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def config_to_dict(cfg: RunConfig) -> dict:
    return _plain(dataclasses.asdict(cfg))


def _fields(raw, cls, section: str = "") -> dict:
    """`raw` as keyword arguments of the dataclass `cls`.  A value that is
    not a mapping, or a key that is not a field of `cls`, is a HarnessError
    naming the section or the key."""
    where = f"config section {section!r}" if section else "config document"
    if not isinstance(raw, dict):
        raise HarnessError(f"{where} must be a mapping, got {type(raw).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = [k for k in raw if k not in names]
    if unknown:
        key = f"{section}.{unknown[0]}" if section else str(unknown[0])
        raise HarnessError(f"unknown config key {key!r}")
    return dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    """Inverse of config_to_dict; missing keys fall back to defaults, and
    unknown keys or non-mapping sections raise HarnessError."""
    d = _fields(raw, RunConfig)
    kw = {}
    if "motor" in d:
        m = _fields(d.pop("motor"), MotorParams, "motor")
        if "travel_mm" in m:
            m["travel_mm"] = tuple(m["travel_mm"])
        kw["motor"] = MotorParams(**m)
    if "phantom" in d:
        kw["phantom"] = PhantomConfig(**_fields(d.pop("phantom"), PhantomConfig,
                                                "phantom"))
    if "mpc" in d:
        m = _fields(d.pop("mpc"), MpcConfig, "mpc")
        if "constraints" in m:
            c = _fields(m["constraints"], Constraints, "mpc.constraints")
            m["constraints"] = Constraints(**{k: tuple(v) for k, v in c.items()})
        kw["mpc"] = MpcConfig(**m)
    if "pid" in d:
        p = _fields(d.pop("pid"), PidConfig, "pid")
        if "u_bounds" in p:
            p["u_bounds"] = tuple(p["u_bounds"])
        kw["pid"] = PidConfig(**p)
    if "shape" in d:
        kw["shape"] = ReferenceShape(**_fields(d.pop("shape"), ReferenceShape,
                                               "shape"))
    if "bo" in d:
        b = _fields(d.pop("bo"), BoConfig, "bo")
        if "theta_bounds" in b:
            b["theta_bounds"] = np.array(b["theta_bounds"], dtype=float)
        if "hyperparams" in b:
            h = _fields(b["hyperparams"], GpHyperparams, "bo.hyperparams")
            if "lengthscales" in h:
                h["lengthscales"] = tuple(h["lengthscales"])
            b["hyperparams"] = GpHyperparams(**h)
        kw["bo"] = BoConfig(**b)
    for key in ("controllers", "observer_poles"):
        if key in d:
            d[key] = tuple(d[key])
    kw.update(d)
    return RunConfig(**kw)


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))


def load_config(path) -> RunConfig:
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise HarnessError(f"config file {path} must hold a mapping")
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# CSV output

_NUM_FMT = "%.9g"


def format_cell(value) -> str:
    """One cell as write_csv writes it."""
    return _cell_format(type(value)) % (value,)


def _cell_format(t: type) -> str:
    """The % conversion of a cell of type t: strings as they are, booleans
    as 1/0, integers in full, anything else through float as %.9g."""
    if issubclass(t, str):
        return "%s"
    if issubclass(t, (bool, np.bool_, int, np.integer)):
        return "%d"
    return _NUM_FMT


def write_csv(path, header, rows) -> None:
    """Write rows with a fixed numeric format so identical data yields
    identical bytes.

    Each row is formatted by one % string, chosen once per sequence of cell
    types; a numpy array is converted to Python scalars first.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    formats = {}
    for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
        cells = tuple(row)
        types = tuple(map(type, cells))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(map(_cell_format, types))
        lines.append(fmt % cells)
    path.write_text("\n".join(lines) + "\n")


TRACE_COLUMNS = ("k", "t_s", "phase", "trigger", "r_mm", "y_mm", "pos_mm",
                 "u_A", "p_mmhg", "d_hat_mm", "qp_iterations", "qp_slack_max")


class TraceRecorder:
    """Fixed-schema accumulator for per-step closed-loop logs."""

    def __init__(self):
        self.rows = []

    def add(self, row: dict) -> None:
        self.rows.append(tuple(row[c] for c in TRACE_COLUMNS))

    def column(self, name: str) -> np.ndarray:
        i = TRACE_COLUMNS.index(name)
        return np.array([r[i] for r in self.rows], dtype=float)

    def __len__(self) -> int:
        return len(self.rows)

    def write(self, path) -> None:
        write_csv(path, TRACE_COLUMNS, self.rows)


def trace_violations(rec: TraceRecorder, constraints: Constraints) -> dict:
    """Post-hoc safety audit of a logged trace.

    Counts samples whose applied input left the input box and samples whose
    true position left the travel box (beyond numerical roundoff).
    """
    tol = 1e-9
    u = rec.column("u_A")
    pos = rec.column("pos_mm")
    u_lo, u_hi = constraints.input
    p_lo, p_hi = constraints.position
    return {
        "input_violations": int(np.sum((u < u_lo - tol) | (u > u_hi + tol))),
        "position_violations": int(np.sum((pos < p_lo - tol) | (pos > p_hi + tol))),
    }


# ---------------------------------------------------------------------------
# Identification


def identify_motor_model(cfg: RunConfig) -> tuple[LtiModel, dict]:
    """Identify the 2-state tracking model from a binary excitation run.

    The motor is pulled to a mid-travel hold, then driven for a fixed record
    with a random binary sequence plus a weak proportional pullback that keeps
    the excursion centred.  Means are removed before the regression so the
    constant load force does not bias the dynamic coefficients; the remaining
    operating-point offset is left to the disturbance observer at run time.

    The returned model uses the input-side disturbance channel (B_d = B,
    C_d = 0): load and friction act as forces, and with a dominant pole close
    to the integrator an additive output disturbance would be nearly
    indistinguishable from the slow position mode, which makes the augmented
    observer gain explode.  The input channel keeps the pair well conditioned.
    """
    bench = PhantomBench(cfg.motor, cfg.phantom, cfg.dt, with_phantom=False,
                         seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 0x1DE47])
    n_chips = -(-IDENT_RECORD_SAMPLES // IDENT_CHIP_SAMPLES)
    chips = rng.integers(0, 2, n_chips) * 2.0 - 1.0
    prbs = IDENT_PRBS_AMP_A * np.repeat(chips, IDENT_CHIP_SAMPLES)[:IDENT_RECORD_SAMPLES]

    for _ in range(IDENT_WARMUP_SAMPLES):
        y = bench.measure().y_mm
        bench.apply(IDENT_PULLBACK_A_PER_MM * (IDENT_HOLD_MM - y))

    us = np.empty(IDENT_RECORD_SAMPLES)
    ys = np.empty(IDENT_RECORD_SAMPLES)
    for k in range(IDENT_RECORD_SAMPLES):
        y = bench.measure().y_mm
        u = IDENT_PULLBACK_A_PER_MM * (IDENT_HOLD_MM - y) + prbs[k]
        us[k] = u
        ys[k] = y
        bench.apply(u)
    if bench.clamp_events:
        raise HarnessError(
            f"identification run hit the travel stops {bench.clamp_events} times; "
            "reduce the excitation amplitude")

    fit = identify_lti(us - us.mean(), ys - ys.mean(), cfg.dt)
    model = LtiModel(A=fit.A, B=fit.B, C=fit.C, dt=fit.dt, B_d=fit.B, C_d=0.0)

    # One-step-ahead fit quality on the (centred) identification record,
    # expressed through the scalar difference form of the companion model.
    yc, uc = ys - ys.mean(), us - us.mean()
    a1 = model.A[0, 0] + model.A[0, 1] / cfg.dt
    a2 = -model.A[0, 1] / cfg.dt
    pred = a1 * yc[1:-1] + a2 * yc[:-2] + model.B[0] * uc[1:-1]
    resid = yc[2:] - pred
    span = yc.max() - yc.min()
    fit_nrmse_pct = float(100.0 * np.sqrt(np.mean(resid ** 2)) / span)
    info = {
        "samples": IDENT_RECORD_SAMPLES,
        "prbs_amp_A": IDENT_PRBS_AMP_A,
        "chip_samples": IDENT_CHIP_SAMPLES,
        "fit_nrmse_pct": fit_nrmse_pct,
        "mean_u_A": float(us.mean()),
        "mean_y_mm": float(ys.mean()),
    }
    return model, info


# ---------------------------------------------------------------------------
# Closed loop


class ClosedLoop:
    """One bench plus one controller variant, stepped sample by sample.

    Variants: "pid" (output feedback PID), "mpc" (the MPC fed the measured
    position and its backward difference, no disturbance model), and
    "mpc_offset_free" (augmented observer plus beat-periodic disturbance
    memory feeding the MPC preview).  The memory preview is read a few
    phases ahead (`preview_lead_steps`) to cancel the estimation lag of the
    repetitive channel.  `qp_fallbacks` counts the MPC steps that took the
    controller's decayed-hold fallback.
    """

    def __init__(self, model: LtiModel, cfg: RunConfig, bench: PhantomBench,
                 controller: str, trajectory: ReferenceTrajectory):
        if controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {controller!r}")
        if trajectory.period != bench.clock.period:
            raise ValueError(
                f"reference period {trajectory.period} does not match bench period "
                f"{bench.clock.period}")
        self.kind = controller
        self.bench = bench
        self.traj = trajectory
        self.model = model
        self.cfg = cfg
        self.horizon = cfg.mpc.horizon
        self.d_inject = float(cfg.output_disturbance_mm)
        self.k = 0
        self.qp_fallbacks = 0
        self._y_prev = None
        self.memory = None
        if controller == "pid":
            self.pid = PidController(cfg.pid)
        else:
            self.ctrl = MpcController(model, cfg.mpc)
        if controller == "mpc_offset_free":
            aug = augment(model)
            self.aug = aug
            self.gain = place_observer_poles(aug, cfg.observer_poles)
            y0 = bench.measure().y_mm + self.d_inject
            self.est = ObserverState(np.array([y0, 0.0, 0.0]))
            self.memory = DisturbanceMemory(trajectory.period)

    def set_trajectory(self, trajectory: ReferenceTrajectory) -> None:
        if trajectory.period != self.traj.period:
            raise ValueError("replacement trajectory must keep the period")
        self.traj = trajectory

    def step(self) -> dict:
        """Run one sample: measure, compute the input, update estimators,
        advance the plant.  Returns the log row for this step."""
        sample = self.bench.measure()
        y = sample.y_mm + self.d_inject
        phase = sample.phase
        n = self.horizon
        ref_window = self.traj.window(phase, n)
        r = float(ref_window[0])
        d_hat = np.nan
        iters = np.nan
        slack = np.nan

        if self.kind == "pid":
            u = self.pid.step(r, y, self.bench.dt)
        elif self.kind == "mpc":
            if self._y_prev is None:
                self._y_prev = y
            xhat = np.array([y, (y - self._y_prev) / self.bench.dt])
            res = self.ctrl.step(xhat, np.zeros(n), ref_window)
            self._y_prev = y
            u, iters, slack = res.u, res.iterations, res.slack_max
            self.qp_fallbacks += res.fallback
        else:
            lead_phase = phase + self.cfg.preview_lead_steps
            res = self.ctrl.step(self.est.x, self.memory.preview(lead_phase, n),
                                 ref_window)
            u, iters, slack = res.u, res.iterations, res.slack_max
            self.qp_fallbacks += res.fallback
            self.est = observer_step(self.est, self.gain, self.aug, u, y)
            self.memory.update(self.est.d)
            d_hat = self.est.d

        row = {
            "k": self.k, "t_s": self.k * self.bench.dt, "phase": phase,
            "trigger": 1 if sample.trigger else 0, "r_mm": r, "y_mm": y,
            "pos_mm": sample.y_mm, "u_A": u, "p_mmhg": sample.p_mmhg,
            "d_hat_mm": d_hat, "qp_iterations": iters, "qp_slack_max": slack,
        }
        self.bench.apply(u)
        self.k += 1
        return row

    def coast(self) -> None:
        """Run one sample at zero input without reading the pressure sensor,
        as after a pressure-guard trip. The estimators still take the
        position measurement, so the observer stays current and the
        disturbance memory stays at the bench phase."""
        y = self.bench.state.position + self.d_inject
        if self.kind == "mpc":
            self._y_prev = y
        elif self.kind == "mpc_offset_free":
            self.est = observer_step(self.est, self.gain, self.aug, 0.0, y)
            self.memory.update(self.est.d)
        self.bench.apply(0.0)
        self.k += 1

    def run_periods(self, n_periods: int, recorder: TraceRecorder | None = None):
        for _ in range(n_periods * self.traj.period):
            row = self.step()
            if recorder is not None:
                recorder.add(row)
        return recorder


# ---------------------------------------------------------------------------
# Run directories and manifest


def resolve_run_dir(cfg: RunConfig) -> Path:
    run_id = cfg.label or datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return Path(cfg.outdir) / cfg.scenario / run_id


def write_manifest(path, cfg: RunConfig, extra: dict) -> None:
    doc = {
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "package_version": __version__,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "bpm": cfg.bpm,
        "config": config_to_dict(cfg),
    }
    doc.update(_plain(extra))
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


# ---------------------------------------------------------------------------
# Tracking scenario


@dataclass
class ControllerRun:
    controller: str
    trace: TraceRecorder
    nrmse_pct: float
    mate_mm: float
    max_abs_error_mm: float
    input_violations: int
    position_violations: int
    clamp_events: int
    qp_fallbacks: int


@dataclass
class TrackingResult:
    config: RunConfig
    model: LtiModel
    runs: dict
    run_dir: Path


def _summarize_tracking(cfg: RunConfig, controller: str, rec: TraceRecorder,
                        bench: PhantomBench, loop: ClosedLoop) -> ControllerRun:
    period = bench.clock.period
    start = cfg.warmup_periods * period
    r = rec.column("r_mm")[start:]
    y = rec.column("y_mm")[start:]
    rep = tracking_report(r, y)
    safety = trace_violations(rec, cfg.mpc.constraints)
    return ControllerRun(
        controller=controller, trace=rec, nrmse_pct=rep.nrmse_pct,
        mate_mm=rep.mate_mm, max_abs_error_mm=float(np.max(np.abs(r - y))),
        input_violations=safety["input_violations"],
        position_violations=safety["position_violations"],
        clamp_events=bench.clamp_events, qp_fallbacks=loop.qp_fallbacks)


def run_tracking(cfg: RunConfig) -> TrackingResult:
    """Run each selected controller on an identical bench against the nominal
    reference pulse and write traces plus a comparison summary."""
    if cfg.scenario != "tracking":
        raise HarnessError(f"run_tracking called with scenario {cfg.scenario!r}")
    phantom = dataclasses.replace(cfg.phantom, bpm=cfg.bpm)
    period = BeatClock.from_bpm(cfg.bpm, cfg.dt).period
    model, ident = identify_motor_model(cfg)
    params = ReferenceParams(cfg.pulse_delay_s, cfg.pulse_magnitude_mm)
    ok, reason = check_feasible(cfg.shape, params, period, cfg.dt,
                                cfg.mpc.constraints)
    if not ok:
        raise HarnessError(f"tracking reference pulse infeasible: {reason}")
    traj = build_reference(cfg.shape, params, period, cfg.dt)

    runs = {}
    for controller in cfg.controllers:
        bench = PhantomBench(cfg.motor, phantom, cfg.dt, with_phantom=False,
                             seed=cfg.seed)
        loop = ClosedLoop(model, cfg, bench, controller, traj)
        rec = TraceRecorder()
        loop.run_periods(cfg.periods, rec)
        run = _summarize_tracking(cfg, controller, rec, bench, loop)
        if run.input_violations:
            raise HarnessError(
                f"{controller} applied {run.input_violations} inputs outside the "
                "input box; controller-side clipping is broken")
        runs[controller] = run

    run_dir = resolve_run_dir(cfg)
    (run_dir / "traces").mkdir(parents=True, exist_ok=True)
    model.save(run_dir / "model.json")
    for controller, run in runs.items():
        run.trace.write(run_dir / "traces" / f"{controller}.csv")
    header = ("controller", "nrmse_pct", "mate_mm", "max_abs_error_mm",
              "input_violations", "position_violations", "clamp_events",
              "qp_fallbacks")
    rows = [(r.controller, r.nrmse_pct, r.mate_mm, r.max_abs_error_mm,
             r.input_violations, r.position_violations, r.clamp_events,
             r.qp_fallbacks) for r in runs.values()]
    write_csv(run_dir / "summary.csv", header, rows)
    write_manifest(run_dir / "manifest.yaml", cfg, {
        "identification": ident,
        "files": ["model.json", "summary.csv"]
        + [f"traces/{c}.csv" for c in runs],
    })
    return TrackingResult(config=cfg, model=model, runs=runs, run_dir=run_dir)


# ---------------------------------------------------------------------------
# Modulation scenario


def _flat_trajectory(shape: ReferenceShape, period: int, dt: float) -> ReferenceTrajectory:
    return ReferenceTrajectory(samples=np.full(period, shape.baseline_mm), dt=dt)


class _PeriodRunner:
    """Adapter that lets the search loop evaluate one reference-pulse
    parameter point as whole beat periods on the live bench.

    Swaps the loop's reference at a period boundary when theta changes,
    runs one period, and reports the pressure trace, the disturbance-memory
    wrap delta (the settling signal), and any safety events (travel-stop
    clamps or a pressure-guard trip).  After a guard trip the remainder of
    the period coasts at zero input (`ClosedLoop.coast`), so the next
    evaluation starts aligned and the disturbance memory stays in phase.
    """

    def __init__(self, loop: ClosedLoop, cfg: RunConfig, period: int):
        self.loop = loop
        self.cfg = cfg
        self.period = period
        self._cache = {}
        self._current = None

    def _trajectory(self, theta) -> ReferenceTrajectory:
        key = (float(theta[0]), float(theta[1]))
        if key not in self._cache:
            self._cache[key] = build_reference(
                self.cfg.shape, ReferenceParams(*key), self.period, self.cfg.dt)
        return self._cache[key]

    def __call__(self, theta) -> PeriodOutcome:
        if self._current != (float(theta[0]), float(theta[1])):
            self._current = (float(theta[0]), float(theta[1]))
            self.loop.set_trajectory(self._trajectory(theta))
        clamp0 = self.loop.bench.clamp_events
        pressures = []
        safety = 0
        for i in range(self.period):
            try:
                row = self.loop.step()
            except PressureGuardError:
                safety += 1
                for _ in range(self.period - i):
                    self.loop.coast()
                break
            pressures.append(row["p_mmhg"])
        safety += self.loop.bench.clamp_events - clamp0
        delta = self.loop.memory.last_wrap_diff if self.loop.memory else np.nan
        return PeriodOutcome(pressure=np.array(pressures),
                             disturbance_delta=float(delta),
                             safety_events=safety)


@dataclass
class ModulationResult:
    config: RunConfig
    model: LtiModel
    theta_star: np.ndarray
    bo: BoResult
    report: ModulationReport
    baseline: TraceRecorder
    actuated: TraceRecorder
    run_dir: Path


def _bo_iteration_rows(result: BoResult, n_p: int):
    rows = []
    for it in result.iterations:
        ev = it.evaluation
        costs = list(ev.period_costs)[:n_p]
        costs += [np.nan] * (n_p - len(costs))
        rows.append((it.n, it.source, ev.theta[0], ev.theta[1], ev.cost,
                     it.best_cost, ev.settle_periods,
                     1 if ev.settled else 0, 1 if ev.aborted else 0,
                     ev.safety_events, *costs))
    header = ("n", "source", "theta_delay_s", "theta_magnitude_mm", "cost",
              "best_cost", "settle_periods", "settled", "aborted",
              "safety_events") + tuple(f"period_cost_{i+1}" for i in range(n_p))
    return header, rows


def _write_gp_surfaces(gp_dir: Path, result: BoResult) -> list:
    files = []
    for it in result.iterations:
        s = it.surfaces
        name = f"iter_{it.n:02d}.csv"
        rows = np.column_stack([s.grid, s.mu, s.sigma, s.acquisition,
                                s.feasible.astype(float)])
        write_csv(gp_dir / name,
                  ("theta_delay_s", "theta_magnitude_mm", "mu", "sigma",
                   "acquisition", "feasible"), rows)
        files.append(f"gp/{name}")
    return files


def run_modulation(cfg: RunConfig) -> ModulationResult:
    """Record an unactuated pressure baseline, learn the reference pulse that
    hits the target pressure swing, and verify the learned pulse over a fresh
    recording.  Uses the offset-free controller throughout."""
    if cfg.scenario != "modulation":
        raise HarnessError(f"run_modulation called with scenario {cfg.scenario!r}")
    phantom = dataclasses.replace(cfg.phantom, bpm=cfg.bpm)
    period = BeatClock.from_bpm(cfg.bpm, cfg.dt).period
    model, ident = identify_motor_model(cfg)

    bench = PhantomBench(cfg.motor, phantom, cfg.dt, seed=cfg.seed)
    flat = _flat_trajectory(cfg.shape, period, cfg.dt)
    loop = ClosedLoop(model, cfg, bench, "mpc_offset_free", flat)

    # Unactuated baseline: hold the reference flat, settle, then record.
    loop.run_periods(cfg.baseline_settle_periods)
    baseline_rec = TraceRecorder()
    loop.run_periods(cfg.baseline_record_periods, baseline_rec)
    baseline_pressure = baseline_rec.column("p_mmhg")
    baseline_mean = float(baseline_pressure.mean())
    per_period = baseline_pressure.reshape(cfg.baseline_record_periods, period)
    baseline_amp = float(np.mean(np.ptp(per_period, axis=1)))

    # The amplitude target scales off the measured baseline swing, so the
    # same factor means the same thing at every heart rate.
    bo_cfg = dataclasses.replace(
        cfg.bo, seed=cfg.seed,
        p_amp_ref_mmhg=cfg.amp_target_factor * baseline_amp)

    constraints = cfg.mpc.constraints

    def feasible(theta) -> bool:
        ok, _ = check_feasible(cfg.shape, ReferenceParams(theta[0], theta[1]),
                               period, cfg.dt, constraints, bo_cfg.theta_bounds)
        return ok

    runner = _PeriodRunner(loop, cfg, period)

    def evaluate_theta(theta):
        return bo_evaluate(theta, runner, bo_cfg, baseline_mean=baseline_mean)

    result = bo_run(bo_cfg, evaluate_theta, feasible=feasible)
    theta_star = result.theta_star

    # Verification recording at the learned parameters.
    runner(theta_star)  # aligns the loop's trajectory at a period boundary
    loop.run_periods(cfg.final_settle_periods - 1)
    actuated_rec = TraceRecorder()
    loop.run_periods(cfg.final_record_periods, actuated_rec)
    report = modulation_report(baseline_pressure, actuated_rec.column("p_mmhg"),
                               period)

    safety_b = trace_violations(baseline_rec, constraints)
    safety_a = trace_violations(actuated_rec, constraints)
    if safety_b["input_violations"] or safety_a["input_violations"]:
        raise HarnessError("applied inputs left the input box during modulation")

    run_dir = resolve_run_dir(cfg)
    (run_dir / "traces").mkdir(parents=True, exist_ok=True)
    gp_dir = run_dir / "gp"
    gp_dir.mkdir(parents=True, exist_ok=True)
    model.save(run_dir / "model.json")
    baseline_rec.write(run_dir / "traces" / "baseline.csv")
    actuated_rec.write(run_dir / "traces" / "actuated.csv")
    it_header, it_rows = _bo_iteration_rows(result, bo_cfg.n_p)
    write_csv(run_dir / "traces" / "bo_iterations.csv", it_header, it_rows)
    gp_files = _write_gp_surfaces(gp_dir, result)

    header = ("bpm", "seed", "theta_delay_s", "theta_magnitude_mm", "best_cost",
              "amplification", "baseline_amp_mmhg", "actuated_amp_mmhg",
              "baseline_mean_mmhg", "max_abs_mean_increase_mmhg",
              "max_rel_mean_increase_pct", "input_violations",
              "position_violations", "clamp_events", "safety_events")
    total_safety = sum(it.evaluation.safety_events for it in result.iterations)
    row = (cfg.bpm, cfg.seed, theta_star[0], theta_star[1], result.best_cost,
           report.amplification, report.baseline_amp_mmhg,
           report.actuated_amp_mmhg, report.baseline_mean_mmhg,
           report.max_abs_mean_increase_mmhg, report.max_rel_mean_increase_pct,
           safety_b["input_violations"] + safety_a["input_violations"],
           safety_b["position_violations"] + safety_a["position_violations"],
           bench.clamp_events, total_safety)
    write_csv(run_dir / "summary.csv", header, [row])
    write_manifest(run_dir / "manifest.yaml", cfg, {
        "identification": ident,
        "theta_star": [float(theta_star[0]), float(theta_star[1])],
        "best_cost": float(result.best_cost),
        "best_iter": result.best_iter,
        "gp_events": result.gp_events,
        "p_amp_ref_mmhg": float(bo_cfg.p_amp_ref_mmhg),
        "files": ["model.json", "summary.csv", "traces/baseline.csv",
                  "traces/actuated.csv", "traces/bo_iterations.csv"] + gp_files,
    })
    return ModulationResult(config=cfg, model=model, theta_star=theta_star,
                            bo=result, report=report, baseline=baseline_rec,
                            actuated=actuated_rec, run_dir=run_dir)
