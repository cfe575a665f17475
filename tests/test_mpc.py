"""Tracking MPC: condensed-QP correctness, disturbance preview, closed-loop
offset behavior, and the PID baseline."""

import numpy as np
import pytest

from icpmod import mpc
from icpmod.metrics import nrmse
from icpmod.model import Constraints, augment
from icpmod.mpc import (
    MpcConfig,
    MpcController,
    PidConfig,
    PidController,
    build_tracking_qp,
)
from icpmod.observer import (
    DisturbanceMemory,
    ObserverState,
    observer_step,
    place_observer_poles,
)
from icpmod.qpsolver import solve_qp
from icpmod.refgen import ReferenceParams, ReferenceShape, build_reference

from oracles import weak_duality_gap
from test_model import companion_model

DT = 0.01
BASELINE = 0.63


def nominal_model():
    return companion_model(1.44, -0.45, 5e-3, DT)


def steady_input(model, y_ss):
    # u solving x = Ax + Bu with output y_ss: unique for this realization
    x_ss = np.array([y_ss, 0.0])
    resid = (np.eye(2) - model.A) @ x_ss
    return float(resid[0] / model.B[0])


class TestBuildTrackingQp:
    def test_steady_state_gives_zero_objective(self):
        model = nominal_model()
        cfg = MpcConfig(rho=0.0)
        x0 = np.array([BASELINE, 0.0])
        ref = np.full(cfg.horizon, BASELINE)
        p = build_tracking_qp(model, x0, np.zeros(100), 0, ref, cfg)
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        u_ss = steady_input(model, BASELINE)
        assert np.allclose(sol.z[:cfg.horizon - 1], u_ss, atol=1e-6)

    def test_two_step_closed_form(self):
        # N=2: only u_0 reaches a costed output; minimize
        # (CAx0 + CBu0 + d1 - r1)^2 + rho(u0^2 + u1^2) by hand.
        model = nominal_model()
        rho = 1e-6
        cfg = MpcConfig(horizon=2, rho=rho)
        x0 = np.array([0.9, 3.0])
        delta = 0.07
        ref = np.array([BASELINE, 1.1])
        p = build_tracking_qp(model, x0, np.array([delta]), 17, ref, cfg)
        sol = solve_qp(p)
        CA = model.C @ model.A
        CB = float(model.C @ model.B)
        mismatch = float(CA @ x0) + delta - ref[1]
        u0_expect = np.clip(-mismatch * CB / (CB * CB + rho), -10, 10)
        assert sol.z[0] == pytest.approx(u0_expect, abs=1e-7)
        assert sol.z[1] == pytest.approx(0.0, abs=1e-7)

    def test_constant_preview_shifts_predicted_outputs(self):
        # With d_prev constant at delta, the optimizer drives Cx_i to
        # r - C_d*delta wherever tracking is reachable (exact at rho = 0).
        model = nominal_model()
        cfg = MpcConfig(rho=0.0)
        delta = 0.1
        x0 = np.array([BASELINE - delta, 0.0])
        ref = np.full(cfg.horizon, BASELINE)
        p = build_tracking_qp(model, x0, np.full(100, delta), 42, ref, cfg)
        sol = solve_qp(p)
        x = x0.copy()
        for i in range(1, cfg.horizon - 1):
            x = model.A @ x + model.B * sol.z[i - 1]
            assert float(model.C @ x) + delta == pytest.approx(
                BASELINE, abs=1e-5)

    def test_preview_phase_indexing(self):
        model = nominal_model()
        cfg = MpcConfig(horizon=4)
        d_prev = np.arange(10.0) / 100.0
        ref = np.full(4, BASELINE)
        x0 = np.array([BASELINE, 0.0])
        p_a = build_tracking_qp(model, x0, d_prev, 8, ref, cfg)
        # phase 8 on a 10-buffer wraps: phases 8, 9, 0, 1
        d_manual = d_prev[[8, 9, 0, 1]]
        p_b = build_tracking_qp(model, x0, d_manual, 0, ref, cfg)
        assert np.allclose(p_a.g, p_b.g)
        assert np.allclose(p_a.lo[np.isfinite(p_a.lo)],
                           p_b.lo[np.isfinite(p_b.lo)])

    def test_rejects_bad_shapes(self):
        model = nominal_model()
        cfg = MpcConfig()
        with pytest.raises(ValueError, match="entries"):
            build_tracking_qp(model, np.zeros(2), np.zeros(10), 0,
                              np.zeros(3), cfg)
        with pytest.raises(ValueError, match="2-vector"):
            build_tracking_qp(model, np.zeros(3), np.zeros(10), 0,
                              np.zeros(cfg.horizon), cfg)


class TestMpcController:
    def test_preview_equivalence_with_zero_memory(self):
        # Zero disturbance preview must reproduce plain MPC exactly.
        model = nominal_model()
        a = MpcController(model)
        b = MpcController(model)
        rng = np.random.default_rng(0)
        for _ in range(30):
            xhat = np.array([rng.uniform(0.2, 1.2), rng.uniform(-3, 3)])
            ref = BASELINE + 0.3 * rng.random(15)
            ua = a.step(xhat, np.zeros(15), ref).u
            ub = b.step(xhat, np.zeros(15), ref).u
            assert ua == ub

    def test_regulation_fixed_point(self):
        # Unregularized: exact regulation within 10 steps. Default rho=1e-6
        # leaves a sub-1e-5 bias (the offset-free layer's job to remove).
        model = nominal_model()
        exact = MpcController(model, MpcConfig(rho=0.0))
        x = np.array([0.5, 0.0])
        ref = np.full(15, BASELINE)
        for _ in range(10):
            res = exact.step(x, np.zeros(15), ref)
            x = model.A @ x + model.B * res.u
        assert abs(float(model.C @ x) - BASELINE) < 1e-6

        ctrl = MpcController(model)
        x = np.array([0.5, 0.0])
        for _ in range(60):
            res = ctrl.step(x, np.zeros(15), ref)
            x = model.A @ x + model.B * res.u
        assert abs(float(model.C @ x) - BASELINE) < 1e-5

    def test_nominal_pulse_tracking_nrmse(self):
        model = nominal_model()
        ctrl = MpcController(model)
        traj = build_reference(ReferenceShape(), ReferenceParams(0.05, 0.5),
                               period=100, dt=DT)
        x = np.array([BASELINE, 0.0])
        ys, rs = [], []
        for k in range(1000):
            phase = k % 100
            ref = traj.window(phase, 15)
            res = ctrl.step(x, np.zeros(15), ref)
            ys.append(float(model.C @ x))
            rs.append(traj.samples[phase])
            x = model.A @ x + model.B * res.u
        assert nrmse(rs, ys) < 2.0

    def test_inputs_always_within_bounds(self):
        model = nominal_model()
        ctrl = MpcController(model)
        rng = np.random.default_rng(7)
        lo, hi = ctrl.cfg.constraints.input
        for _ in range(50):
            xhat = np.array([rng.uniform(-1, 3.5), rng.uniform(-80, 80)])
            ref = rng.uniform(0.0, 2.6, 15)
            res = ctrl.step(xhat, rng.uniform(-0.3, 0.3, 15), ref)
            assert lo <= res.u <= hi

    def test_slack_reported_when_state_bounds_stressed(self):
        model = nominal_model()
        ctrl = MpcController(model)
        # start far outside travel: position bound can only be met softly
        res = ctrl.step(np.array([3.4, 90.0]), np.zeros(15),
                        np.full(15, BASELINE))
        assert res.status == "optimal"
        assert res.slack_max > 1e-6
        assert any(e["kind"] == "state_slack_active" for e in ctrl.events)


def run_offset_loop(offset_free: bool, d_true: float, steps: int,
                    ctrl: MpcController | None = None):
    """Nominal LTI plant with a constant additive output disturbance.

    Returns (measured outputs, true positions). The plain variant reads the
    state straight off the measurements (position plus backward-difference
    velocity, which is exactly the model state) and so regulates the
    corrupted measurement, leaving the physical position offset by d.
    `ctrl` replaces the default controller on the nominal model, so a caller
    can inspect it after the run.
    """
    model = nominal_model()
    if ctrl is None:
        ctrl = MpcController(model)
    period = 100
    ref = np.full(15, BASELINE)
    x = np.array([BASELINE, 0.0])
    ys, positions = [], []

    if offset_free:
        aug = augment(model)
        gain = place_observer_poles(aug)
        est = ObserverState(np.array([BASELINE, 0.0, 0.0]))
        mem = DisturbanceMemory(period)
        for k in range(steps):
            y = float(model.C @ x) + d_true
            ys.append(y)
            positions.append(float(model.C @ x))
            res = ctrl.step(est.x, mem.preview(k % period, 15), ref)
            est = observer_step(est, gain, aug, res.u, y)
            mem.update(est.d)
            x = model.A @ x + model.B * res.u
    else:
        y_prev = float(model.C @ x) + d_true
        for k in range(steps):
            y = float(model.C @ x) + d_true
            ys.append(y)
            positions.append(float(model.C @ x))
            xhat = np.array([y, (y - y_prev) / model.dt])
            res = ctrl.step(xhat, np.zeros(15), ref)
            y_prev = y
            x = model.A @ x + model.B * res.u
    return np.array(ys), np.array(positions)


class TestOffsetFreeProperty:
    def test_constant_output_disturbance_rejected(self):
        ys, _ = run_offset_loop(offset_free=True, d_true=0.1, steps=300)
        assert np.all(np.abs(ys[-50:] - BASELINE) < 1e-3)

    def test_plain_controller_keeps_offset(self):
        # measurement-state MPC nulls the corrupted measurement, so the
        # physical position carries the full disturbance as an offset
        _, pos = run_offset_loop(offset_free=False, d_true=0.1, steps=300)
        assert np.all(np.abs(pos[-50:] - BASELINE) > 0.05)

    @pytest.mark.parametrize("d_true", [-0.3, 0.3])
    def test_full_disturbance_range(self, d_true):
        ys, _ = run_offset_loop(offset_free=True, d_true=d_true, steps=400)
        assert np.all(np.abs(ys[-50:] - BASELINE) < 1e-3)


class RecordingController(MpcController):
    """MpcController that keeps every step's QP and the shifted duals it
    hot-started the solver from."""

    def __init__(self, model):
        super().__init__(model)
        self.problems = []

    def step(self, xhat, d_preview, ref_window):
        xhat = np.asarray(xhat, dtype=float).ravel()[:2]
        self.problems.append((
            self._cond.assemble(xhat, np.asarray(d_preview, dtype=float),
                                np.asarray(ref_window, dtype=float)),
            self._y[self._y_shift]))
        return super().step(xhat, d_preview, ref_window)


class TestSaturatingTransients:
    """The +-0.3 mm steps of criterion 1 saturate the input, so the hot
    start guesses the wrong active set; every solve must still terminate
    at the optimum."""

    @pytest.mark.parametrize("d_true", [-0.3, 0.3])
    def test_every_offset_free_solve_optimal(self, d_true, monkeypatch):
        # Each solve the controller receives must be optimal by its status
        # and by an independent weak-duality certificate, not only by the
        # solver's own residual test.
        solves = []

        def recording_solve(p, **kwargs):
            sol = solve_qp(p, **kwargs)
            solves.append((p, sol))
            return sol

        monkeypatch.setattr(mpc, "solve_qp", recording_solve)
        ctrl = MpcController(nominal_model())
        run_offset_loop(offset_free=True, d_true=d_true, steps=300, ctrl=ctrl)
        assert len(solves) == 300
        bad = []
        for k, (p, sol) in enumerate(solves):
            gap, viol = weak_duality_gap(p.H, p.g, p.G, p.lo, p.hi, p.c,
                                         sol.z, sol.y)
            if not (sol.status == "optimal" and gap <= 1e-10
                    and viol <= 1e-10):
                bad.append((k, sol.status, gap, viol))
        assert bad == []
        assert not any(e["kind"].startswith("qp_") for e in ctrl.events)

    def test_transient_qp_kkt_certificate(self):
        # step 1 after the -0.3 mm step: the hot start from step 0 leaves
        # out the saturated inputs, so the active set must be repaired
        tol = 1e-8
        ctrl = RecordingController(nominal_model())
        run_offset_loop(offset_free=True, d_true=-0.3, steps=2, ctrl=ctrl)
        p, y0 = ctrl.problems[1]
        sol = solve_qp(p, tol=tol, y0=y0)
        assert sol.status == "optimal"
        assert sol.iterations > 0

        # box feasibility, relative to the magnitude of G z
        gz = p.G @ sol.z
        sc_prim = 1.0 + float(np.max(np.abs(gz)))
        assert np.all(gz >= p.lo - tol * sc_prim)
        assert np.all(gz <= p.hi + tol * sc_prim)
        # y_i < 0 only on rows at their lower bound, y_i > 0 only at upper
        at_lo = gz <= p.lo + tol * sc_prim
        at_hi = gz >= p.hi - tol * sc_prim
        assert np.all((sol.y >= 0.0) | at_lo)
        assert np.all((sol.y <= 0.0) | at_hi)
        # stationarity within tol times the magnitude of its terms
        hz, gty = p.H @ sol.z, p.G.T @ sol.y
        sc_dual = 1.0 + max(float(np.max(np.abs(hz))),
                            float(np.max(np.abs(gty))),
                            float(np.max(np.abs(p.g))))
        assert float(np.max(np.abs(hz + p.g + gty))) <= tol * sc_dual


class TestPid:
    def test_zero_error_zero_output(self):
        pid = PidController()
        assert pid.step(BASELINE, BASELINE, DT) == 0.0

    def test_proportional_clipping(self):
        cfg = PidConfig(kp=3.0, ki=0.0, kd=0.0)
        pid = PidController(cfg)
        assert pid.step(1.63, 0.63, DT) == pytest.approx(3.0)
        assert pid.step(100.63, 0.63, DT) == 10.0
        assert pid.step(-100.0, 0.63, DT) == -10.0

    def test_anti_windup_bounds_integral(self):
        pid = PidController()
        for _ in range(500):
            pid.step(5.0, 0.0, DT)   # deep saturation
        # recovery: once the error flips, output must leave the rail quickly
        outs = [pid.step(0.0, 5.0, DT) for _ in range(20)]
        assert min(outs) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PidConfig(deriv_filter_tau_s=0.0)
        with pytest.raises(ValueError):
            PidConfig(kp=float("nan"))
