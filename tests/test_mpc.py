"""Tracking MPC: condensed-QP correctness, disturbance preview, closed-loop
offset behavior, and the PID baseline."""

import numpy as np
import pytest

from icpmod import mpc
from icpmod.metrics import nrmse
from icpmod.model import Constraints, LtiModel, augment
from icpmod.mpc import (
    MpcConfig,
    MpcController,
    PidConfig,
    PidController,
)
from icpmod.observer import (
    DisturbanceMemory,
    ObserverState,
    observer_step,
    place_observer_poles,
)
from icpmod.qpsolver import QpMatrices, QpProblem, solve_qp
from icpmod.refgen import ReferenceParams, ReferenceShape, build_reference

from oracles import brute_force_qp, solve_on_active_set, weak_duality_gap
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
        p = mpc._Condenser(model, cfg).assemble(x0, np.zeros(cfg.horizon), ref)
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
        p = mpc._Condenser(model, cfg).assemble(x0, np.full(2, delta), ref)
        sol = solve_qp(p)
        CA = model.C @ model.A
        CB = float(model.C @ model.B)
        mismatch = float(CA @ x0) + delta - ref[1]
        u0_expect = np.clip(-mismatch * CB / (CB * CB + rho), -10, 10)
        assert sol.z[0] == pytest.approx(u0_expect, abs=1e-7)
        assert sol.z[1] == pytest.approx(0.0, abs=1e-7)

    def test_constant_preview_shifts_predicted_outputs(self):
        # With the preview constant at delta, the optimizer drives Cx_i to
        # r - C_d*delta wherever tracking is reachable (exact at rho = 0).
        model = nominal_model()
        cfg = MpcConfig(rho=0.0)
        delta = 0.1
        x0 = np.array([BASELINE - delta, 0.0])
        ref = np.full(cfg.horizon, BASELINE)
        p = mpc._Condenser(model, cfg).assemble(x0, np.full(cfg.horizon, delta),
                                              ref)
        sol = solve_qp(p)
        x = x0.copy()
        for i in range(1, cfg.horizon - 1):
            x = model.A @ x + model.B * sol.z[i - 1]
            assert float(model.C @ x) + delta == pytest.approx(
                BASELINE, abs=1e-5)

    def test_rejects_bad_shapes(self):
        ctrl = MpcController(nominal_model())
        N = ctrl.cfg.horizon
        with pytest.raises(ValueError, match="entries"):
            ctrl.step(np.zeros(2), np.zeros(N), np.zeros(3))
        with pytest.raises(ValueError, match="entries"):
            ctrl.step(np.zeros(2), np.zeros(10), np.zeros(N))


def rollout_qp_data(model, cfg, x0, d, ref):
    """g, lo, hi, c of the condensed QP by direct simulation: err is the
    output error of the free response (u = 0), g_j = 2 sum_i err_i y_i^(j)
    with y^(j) the response to a unit input u_j, and each softened state
    row's bound is the bound minus the free response."""
    N, n_s = cfg.horizon, cfg.horizon - 1

    def outputs_states(x, u, dist):
        ys, xs = [], []
        for i in range(N):
            ys.append(float(model.C @ x) + model.C_d * dist[i])
            xs.append(x)
            x = model.A @ x + model.B * u[i] + model.B_d * dist[i]
        return np.array(ys), np.array(xs)

    y_free, x_free = outputs_states(np.asarray(x0, float), np.zeros(N), d)
    err = y_free - ref
    g = np.full(N + 2 * n_s, cfg.slack_weight)
    for j in range(N):
        y_j, _ = outputs_states(np.zeros(2), np.eye(N)[j], np.zeros(N))
        g[j] = 2.0 * float(err @ y_j)
    m = N + 6 * n_s
    lo, hi = np.full(m, -np.inf), np.full(m, np.inf)
    lo[:N], hi[:N] = cfg.constraints.input
    r = N
    for k, (b_lo, b_hi) in enumerate((cfg.constraints.position,
                                      cfg.constraints.velocity)):
        for i in range(1, N):
            hi[r] = b_hi - x_free[i, k]
            lo[r + 1] = b_lo - x_free[i, k]
            r += 2
    lo[r:] = 0.0
    return g, lo, hi, float(err @ err)


class TestAffineCondenser:
    @pytest.mark.parametrize("horizon", [1, 2, 15])
    @pytest.mark.parametrize("rho", [0.0, 1e-6])
    @pytest.mark.parametrize("b_d", [(0.0, 0.0), (2e-3, 0.3)])
    def test_matches_rollout(self, horizon, rho, b_d):
        base = nominal_model()
        model = LtiModel(A=base.A, B=base.B, C=base.C, dt=DT, B_d=b_d,
                         C_d=0.5 if any(b_d) else 1.0)
        cfg = MpcConfig(horizon=horizon, rho=rho)
        cond = mpc._Condenser(model, cfg)
        rng = np.random.default_rng(horizon)
        for _ in range(5):
            x0 = np.array([rng.uniform(0.0, 2.6), rng.uniform(-50.0, 50.0)])
            d = rng.uniform(-0.3, 0.3, horizon)
            ref = rng.uniform(0.3, 1.5, horizon)
            p = cond.assemble(x0, d, ref)
            for got, want in zip((p.g, p.lo, p.hi, p.c),
                                 rollout_qp_data(model, cfg, x0, d, ref)):
                want = np.asarray(want)
                finite = np.isfinite(want)
                np.testing.assert_array_equal(np.asarray(got)[~finite],
                                              want[~finite])
                np.testing.assert_allclose(
                    np.asarray(got)[finite], want[finite], rtol=1e-12,
                    atol=1e-12 * float(np.max(np.abs(want[finite]),
                                              initial=1.0)))

    @pytest.mark.parametrize("xhat", [[np.nan, 0.0], [BASELINE, np.inf]])
    def test_non_finite_state_rejected(self, xhat):
        ctrl = MpcController(nominal_model())
        N = ctrl.cfg.horizon
        with pytest.raises(ValueError, match="^xhat must be finite$"):
            ctrl.step(np.array(xhat), np.zeros(N), np.full(N, BASELINE))

    @pytest.mark.parametrize("bad, value", [("d_preview", np.nan),
                                            ("ref_window", -np.inf)])
    def test_non_finite_window_rejected(self, bad, value):
        ctrl = MpcController(nominal_model())
        N = ctrl.cfg.horizon
        args = {"xhat": np.array([BASELINE, 0.0]), "d_preview": np.zeros(N),
                "ref_window": np.full(N, BASELINE)}
        args[bad][3] = value
        with pytest.raises(ValueError, match=f"^{bad} must be finite$"):
            ctrl.step(**args)


class TestWorkingSetMemo:
    """A controller's QpMatrices remembers the pieces of the working sets it
    met; a solve that finds its set there must give the bits a solve on
    fresh matrices gives."""

    def captured(self, monkeypatch):
        # a plain MPC on a plant with 30 % less gain than its model: u_0
        # hits the rail in the pulse transients, so solves add rows; then
        # random stressed states that hold state rows
        problems = []

        def recording_solve(p, **kwargs):
            sol = solve_qp(p, **kwargs)
            problems.append((p, kwargs["y0"], sol))
            return sol

        monkeypatch.setattr(mpc, "solve_qp", recording_solve)
        model = nominal_model()
        plant = companion_model(1.44, -0.45, 3.5e-3, DT)
        ctrl = MpcController(model)
        traj = build_reference(ReferenceShape(), ReferenceParams(0.05, 0.5),
                               period=100, dt=DT)
        x = np.array([BASELINE, 0.0])
        for k in range(200):
            res = ctrl.step(x, np.zeros(15), traj.window(k % 100, 15))
            x = plant.A @ x + plant.B * res.u
        rng = np.random.default_rng(7)
        for _ in range(20):
            xhat = np.array([rng.uniform(-1, 3.5), rng.uniform(-80, 80)])
            ctrl.step(xhat, rng.uniform(-0.3, 0.3, 15),
                      rng.uniform(0.0, 2.6, 15))
        return problems

    def test_memo_hit_matches_fresh_matrices(self, monkeypatch):
        problems = self.captured(monkeypatch)
        assert len({id(p.mats) for p, _, _ in problems}) == 1
        iters = [sol.iterations for _, _, sol in problems]
        assert any(i == 0 for i in iters) and any(0 < i < 28 for i in iters)
        assert any(sol.y[0] != 0.0 for _, _, sol in problems)   # add step
        for p, y0, sol in problems:
            fresh = QpProblem.on(QpMatrices(p.H, p.G), p.g, p.lo, p.hi, p.c)
            ref = solve_qp(fresh, y0=y0)
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            np.testing.assert_array_equal(sol.z, ref.z)
            np.testing.assert_array_equal(sol.y, ref.y)

    def test_same_set_different_bounds(self):
        # z2 is separable, so its bound row fixes it (a value taken from
        # the bounds); z0 + z1 <= hi enters as a Schur row (a bound b). All
        # problems hold both rows: the cold start reaches the set by adding
        # rows, and each hot start after it guesses the set the second
        # solve put in the memo.
        H = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        G = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        g = np.array([-3.0, -3.0, 1.0])
        mats = QpMatrices(H, G)
        y0 = None
        for lo0, hi1 in ((0.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.0, 1.0)):
            lo, hi = np.array([lo0, -np.inf]), np.array([np.inf, hi1])
            p = QpProblem.on(mats, g, lo, hi)
            sol = solve_qp(p, y0=y0)
            assert sol.status == "optimal"
            z_ref, _ = brute_force_qp(H, g, G, lo, hi)
            np.testing.assert_allclose(sol.z, z_ref, rtol=0.0, atol=1e-12)
            assert sol.z[2] == lo0 and sol.z[0] + sol.z[1] == pytest.approx(hi1)
            assert sol.y[0] < 0.0 < sol.y[1]
            y0 = sol.y
        assert sol.iterations == 0


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
        # slack activity is reported per step, not as an event
        assert ctrl.events == []


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


class TestFixedFactorSolves:
    """MPC QPs in each working-set shape the fixed-factor method meets. Each
    result must carry a weak-duality certificate and, where the minimizer is
    unique, match one dense KKT solve of its own working set."""

    N = MpcConfig().horizon
    # rows: N input bounds, then 4(N-1) softened state rows, then the
    # 2(N-1) slack nonnegativity rows
    SLACK_ROWS = np.arange(N + 4 * (N - 1), N + 6 * (N - 1))

    def solve(self, x0, cfg=None, hot=False):
        # `hot` solves cold first and hot-starts from that answer's duals
        cond = mpc._Condenser(nominal_model(), cfg or MpcConfig())
        p = cond.assemble(np.asarray(x0, dtype=float), np.zeros(self.N),
                          np.full(self.N, BASELINE))
        sol = solve_qp(p, y0=solve_qp(p).y if hot else None)
        assert sol.status == "optimal"
        gap, viol = weak_duality_gap(p.H, p.g, p.G, p.lo, p.hi, p.c,
                                     sol.z, sol.y)
        assert gap <= 1e-10 and viol <= 1e-10
        return p, sol

    def active(self, sol):
        return set(np.flatnonzero(sol.y).tolist())

    def check_dense(self, p, sol):
        z = solve_on_active_set(p.H, p.g, p.G, p.lo, p.hi, sol.y)
        np.testing.assert_allclose(sol.z, z, rtol=0.0, atol=1e-10)

    def test_only_slack_rows_active(self):
        p, sol = self.solve([BASELINE, 0.0], hot=True)
        assert self.active(sol) == set(self.SLACK_ROWS.tolist())
        assert sol.iterations == 0
        assert np.all(sol.z[self.N:] == 0.0)
        self.check_dense(p, sol)

    def test_cold_start_adds_every_slack_row(self):
        p, sol = self.solve([BASELINE, 0.0])
        assert self.active(sol) == set(self.SLACK_ROWS.tolist())
        assert sol.iterations == self.SLACK_ROWS.size
        self.check_dense(p, sol)

    def test_one_input_row_active(self):
        # a 0.05 mm step saturates u_0 alone, as in the plain-MPC transients
        p, sol = self.solve([BASELINE - 0.05, 0.0], hot=True)
        assert self.active(sol) == {0, *self.SLACK_ROWS.tolist()}
        assert sol.z[0] == 10.0 and sol.y[0] > 0.0
        assert sol.iterations == 0
        self.check_dense(p, sol)

    def test_state_row_active_with_positive_slack(self):
        # far outside travel: inputs saturate, softened position rows hold
        # with positive slack, and those slacks' nonnegativity rows leave
        p, sol = self.solve([3.4, 90.0])
        state_rows = [i for i in self.active(sol)
                      if self.N <= i < self.SLACK_ROWS[0]]
        assert state_rows
        assert float(np.max(sol.z[self.N:])) > 1e-6
        self.check_dense(p, sol)
        hot = solve_qp(p, y0=sol.y)
        assert hot.iterations == 0
        np.testing.assert_array_equal(hot.z, sol.z)

    @pytest.mark.parametrize("x0", [[BASELINE, 0.0], [BASELINE - 0.05, 0.0],
                                    [3.4, 90.0]])
    def test_zero_input_weight(self, x0):
        # rho = 0 leaves u_{N-1} without curvature: the factor is
        # regularized, the certificate is against the singular H, and
        # u_{N-1}, with no cost at all, stays at 0
        p, sol = self.solve(x0, cfg=MpcConfig(rho=0.0))
        assert sol.z[self.N - 1] == 0.0

    def test_steps_share_h_and_g(self, monkeypatch):
        problems = []

        def recording_solve(p, **kwargs):
            problems.append(p)
            return solve_qp(p, **kwargs)

        monkeypatch.setattr(mpc, "solve_qp", recording_solve)
        ctrl = MpcController(nominal_model())
        for x in ([BASELINE, 0.0], [BASELINE - 0.05, 0.5]):
            ctrl.step(np.array(x), np.zeros(self.N), np.full(self.N, BASELINE))
        a, b = problems
        assert a.H is b.H and a.G is b.G
        assert a.g is not b.g


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
