"""Output-reference tracking MPC with per-phase disturbance preview.

The controller solves, at every step, a condensed strictly convex QP over the
input sequence u_0..u_{N-1}:

    min  sum_{i=0}^{N-1} (y_i - r_i)^2 + rho * sum u_i^2 + slack penalties
    s.t. x_{i+1} = A x_i + B u_i + B_d d_i,   x_0 = current estimate
         y_i = C x_i + C_d d_i
         u_i within input bounds (hard)
         position/velocity of x_1..x_{N-1} within bounds (soft, L1 slack)

d_i are disturbance values previewed from the previous cardiac period at the
matching phase, so a beat-periodic disturbance is compensated ahead of time.
Passing a zero preview reduces the problem to plain certainty-equivalence MPC.

Input constraints stay hard; state constraints are softened with an L1
penalty (plus a tiny quadratic term that keeps the Hessian positive
definite), so the QP is feasible for every state and the controller cannot
fail on a disturbance spike. Slack activity is surfaced per step for safety
logging. If a solve ends with any status other than "optimal" regardless
("infeasible" or "failed"), the controller falls back to the previous input
decayed by half, the least-surprise safe action for a balloon actuator, and
records the event as "qp_<status>".

The Hessian and the constraint matrix do not depend on the state, so each
controller builds, checks and factors them once (`qpsolver.QpMatrices`). The
gradient, the bounds and the constant term are affine in the state, the
preview and the reference, so the controller builds that map once too and a
step's QP data costs one matvec and one dot. To the solver the input rows and
the slack nonnegativity rows are variable bounds and the slacks are
separable variables, so a step whose slacks stay at zero with no input or
state bound active costs two triangular solves on the N x N input block. An
active input bound fixes its input; a step that adds one (the plain MPC's
u_0 at the rail) costs one more solve, on the factor of the inputs left
free. The pieces of a working set it has met before (its fixed variables,
that factor, its Schur rows and their factor) come from the memo on the
controller's `QpMatrices`, and the first solve starts from the set with the
slack rows at zero. On the identified model an offset-free step takes about
30 us and a plain-MPC step that adds an input bound about 60 us (Python
3.11, numpy 2.4, one BLAS thread, a 2-vCPU VM), most of it numpy call
overhead.

A PID controller with filtered derivative and back-calculation anti-windup is
included as the comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Constraints, LtiModel
from .qpsolver import QpMatrices, QpProblem, solve_qp

__all__ = [
    "MpcConfig",
    "MpcStepResult",
    "MpcController",
    "PidConfig",
    "PidController",
]

_SLACK_QUAD = 1e-4  # tiny quadratic slack term; keeps H positive definite


@dataclass(frozen=True)
class MpcConfig:
    """Tracking-MPC tuning knobs."""

    horizon: int = 15
    rho: float = 1e-6
    constraints: Constraints = field(default_factory=Constraints)
    slack_weight: float = 1e4

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if self.slack_weight <= 0:
            raise ValueError("slack_weight must be > 0")


class _Condenser:
    """Constant condensing matrices for a given (model, config) pair.

    Predicted outputs stack as y = y_free(x0, d) + S_y u; analogous maps give
    predicted positions and velocities of x_1..x_{N-1}. All state dependence
    lives in the offsets, so H and G are built, checked and factored once,
    into `mats`, and every problem `assemble` returns shares them: it builds
    only g, lo, hi and c.

    Those are affine in w = [x0, d, ref]: the tracking error is err = E w,
    g = [2 S_y' E w; slack weights], c = err'err, and a softened state row's
    bound is its bound minus the free response, Phi w. So one matrix, built
    here, maps w to [err, g, lo, hi] after an offset that holds the slack
    weights and the bound templates; `assemble` is that matvec and a dot.

    Variables: the N inputs, then N-1 position and N-1 velocity slacks. Rows:
    the N input bounds, a (upper, lower) pair per softened position and per
    velocity, then the 2(N-1) slack nonnegativity rows.
    """

    def __init__(self, model: LtiModel, cfg: MpcConfig):
        N = cfg.horizon
        A, B, C = model.A, model.B, model.C
        B_d, C_d = model.B_d, model.C_d

        powers = np.empty((N, 2, 2))
        powers[0] = np.eye(2)
        for i in range(1, N):
            powers[i] = A @ powers[i - 1]

        # S_y[i, j] = C A^(i-1-j) B for j < i; input-to-output map.
        S_y = np.zeros((N, N))
        S_yd = np.zeros((N, N))          # disturbance-to-output map
        np.fill_diagonal(S_yd, C_d)
        for i in range(1, N):
            for j in range(i):
                S_y[i, j] = C @ powers[i - 1 - j] @ B
                S_yd[i, j] = C @ powers[i - 1 - j] @ B_d

        # Position/velocity rows of x_1..x_{N-1}.
        S_p = np.zeros((N - 1, N))
        S_v = np.zeros((N - 1, N))
        S_pd = np.zeros((N - 1, N))
        S_vd = np.zeros((N - 1, N))
        for i in range(1, N):
            for j in range(i):
                col = powers[i - 1 - j] @ B
                cold = powers[i - 1 - j] @ B_d
                S_p[i - 1, j], S_v[i - 1, j] = col
                S_pd[i - 1, j], S_vd[i - 1, j] = cold

        self.N = N
        n_s = N - 1
        self.n = n = N + 2 * n_s
        self.m = m = N + 6 * n_s

        H = np.zeros((n, n))
        H[:N, :N] = 2.0 * (S_y.T @ S_y + cfg.rho * np.eye(N))
        H[N:, N:] = 2.0 * _SLACK_QUAD * np.eye(2 * n_s)

        G = np.zeros((m, n))
        G[:N, :N] = np.eye(N)
        r = N
        for block, S_x in ((0, S_p), (1, S_v)):
            s_off = N + block * n_s
            for i in range(n_s):
                G[r, :N] = S_x[i]
                G[r, s_off + i] = -1.0     # x_i - s_i <= hi
                G[r + 1, :N] = S_x[i]
                G[r + 1, s_off + i] = 1.0  # x_i + s_i >= lo
                r += 2
        G[r:, N:] = np.eye(2 * n_s)        # s >= 0
        self.mats = QpMatrices(H, G)

        # [err; g; lo; hi] = K w + k0, w = [x0, d, ref]
        zeros = np.zeros((n_s, N))
        E = np.hstack((np.einsum("j,njk->nk", C, powers), S_yd, -np.eye(N)))
        K = np.zeros((N + n + 2 * m, 2 + 2 * N))
        k0 = np.zeros(N + n + 2 * m)
        K[:N] = E
        K[N:2 * N] = 2.0 * (S_y.T @ E)
        k0[2 * N:N + n] = cfg.slack_weight
        lo, hi = k0[N + n:N + n + m], k0[N + n + m:]   # views into k0
        K_lo, K_hi = K[N + n:N + n + m], K[N + n + m:]
        lo[:] = -np.inf
        hi[:] = np.inf
        lo[:N], hi[:N] = cfg.constraints.input
        lo[N + 4 * n_s:] = 0.0
        r = N
        for x, (b_lo, b_hi), S_xd in (
                (0, cfg.constraints.position, S_pd),
                (1, cfg.constraints.velocity, S_vd)):
            # free response of x_1..x_{N-1}: A^i x0 + S_xd d
            Phi = np.hstack((powers[1:, x, :], S_xd, zeros))
            hi[r:r + 2 * n_s:2] = b_hi
            K_hi[r:r + 2 * n_s:2] = -Phi
            lo[r + 1:r + 2 * n_s:2] = b_lo
            K_lo[r + 1:r + 2 * n_s:2] = -Phi
            r += 2 * n_s
        self._K, self._k0 = K, k0

    def assemble(self, x0: np.ndarray, d: np.ndarray,
                 ref: np.ndarray) -> QpProblem:
        N, n, m = self.N, self.n, self.m
        v = self._K @ np.concatenate((x0, d, ref))
        v += self._k0
        err = v[:N]
        return QpProblem.on(self.mats, v[N:N + n], v[N + n:N + n + m],
                            v[N + n + m:], float(err @ err))


@dataclass(frozen=True)
class MpcStepResult:
    """Per-step solve outcome for logging."""

    u: float
    status: str
    iterations: int
    objective: float
    slack_max: float
    fallback: bool = False


class MpcController:
    """Receding-horizon tracking controller around the condensed QP.

    Holds the constant condensing matrices, hot-starts each solve from the
    active set of the previous solution shifted by one step (the first one
    after construction or `reset` from the slack rows at zero), and applies the
    decaying-hold fallback on any non-optimal solve. `events` holds one
    entry per fallback; slack activity is reported per step in
    `MpcStepResult.slack_max`, not as an event.
    """

    def __init__(self, model: LtiModel, cfg: MpcConfig | None = None):
        self.cfg = cfg if cfg is not None else MpcConfig()
        self.model = model
        self._cond = _Condenser(model, self.cfg)
        self._y_shift = self._shift_map()
        self.events: list[dict] = []
        self.reset()

    def _shift_map(self):
        # row index map implementing "previous duals advanced by one step"
        N, n_s = self._cond.N, self._cond.N - 1
        y = np.arange(self._cond.m)
        y[:N - 1] = np.arange(1, N)
        r = N
        for _ in range(2):                           # pos/vel row pairs
            y[r:r + 2 * (n_s - 1)] = np.arange(r + 2, r + 2 * n_s)
            r += 2 * n_s
        for _ in range(2):                           # slack nonneg rows
            y[r:r + n_s - 1] = np.arange(r + 1, r + n_s)
            r += n_s
        return y

    def step(self, xhat, d_preview, ref_window) -> MpcStepResult:
        """Compute the input for the current step.

        `d_preview` holds the previous-period disturbance at the N phases
        starting from the current one; `ref_window` the N reference values.
        """
        xhat = np.asarray(xhat, dtype=float).ravel()[:2]
        d = np.asarray(d_preview, dtype=float).ravel()
        ref = np.asarray(ref_window, dtype=float).ravel()
        N = self._cond.N
        if d.shape != (N,) or ref.shape != (N,):
            raise ValueError(f"d_preview and ref_window must have {N} entries")

        try:
            problem = self._cond.assemble(xhat, d, ref)
        except ValueError:
            # Name the input that made the QP data non-finite; a nominal
            # step never comes here, so it pays for no check.
            for name, v in (("xhat", xhat), ("d_preview", d),
                            ("ref_window", ref)):
                if not np.isfinite(v).all():
                    raise ValueError(f"{name} must be finite") from None
            raise
        sol = solve_qp(problem, y0=self._y[self._y_shift])
        self._step_count += 1

        if sol.status != "optimal":
            u = 0.5 * self._u_prev
            self.events.append({"step": self._step_count,
                                "kind": "qp_" + sol.status,
                                "iterations": sol.iterations, "u_fallback": u})
            self._u_prev = u
            return MpcStepResult(u=u, status=sol.status,
                                 iterations=sol.iterations,
                                 objective=float("nan"), slack_max=0.0,
                                 fallback=True)

        self._y = sol.y
        slack_max = max([0.0, *sol.z[N:].tolist()])
        lo, hi = self.cfg.constraints.input
        u = min(max(float(sol.z[0]), lo), hi)
        self._u_prev = u
        return MpcStepResult(u=u, status=sol.status,
                             iterations=sol.iterations,
                             objective=sol.objective, slack_max=slack_max)

    def reset(self):
        # The first solve hot-starts from the slack-nonnegativity rows at
        # their lower bound, the working set of a step whose slacks stay at
        # zero, rather than adding those rows one at a time.
        self._y = np.zeros(self._cond.m)
        self._y[self._cond.N + 4 * (self._cond.N - 1):] = -1.0
        self._u_prev = 0.0
        self.events.clear()
        self._step_count = 0


@dataclass(frozen=True)
class PidConfig:
    """PID baseline gains, tuned once on the simulated motor and frozen.

    Tuning procedure: proportional-only gain raised until sustained
    oscillation at the baseline position, giving ultimate gain K_u = 12 and
    period T_u = 0.125 s.  The classic rules (0.6 K_u, 1.2 K_u/T_u) excite a
    stick-slip limit cycle against the dry friction, so the derated
    some-overshoot rules are used instead: kp = 0.33 K_u, ki = 0.66 K_u/T_u,
    kd = 0.11 K_u T_u, derivative filtered with a 5-sample time constant.
    """

    kp: float = 3.96
    ki: float = 63.36
    kd: float = 0.165
    deriv_filter_tau_s: float = 0.05
    anti_windup_gain: float = 5.0
    u_bounds: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self):
        vals = (self.kp, self.ki, self.kd, self.deriv_filter_tau_s,
                self.anti_windup_gain, *self.u_bounds)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("PID parameters must be finite")
        if self.deriv_filter_tau_s <= 0:
            raise ValueError("deriv_filter_tau_s must be > 0")
        if self.u_bounds[0] >= self.u_bounds[1]:
            raise ValueError("u_bounds must be an increasing interval")


class PidController:
    """PID with filtered derivative and back-calculation anti-windup."""

    def __init__(self, cfg: PidConfig | None = None):
        self.cfg = cfg if cfg is not None else PidConfig()
        self.reset()

    def reset(self):
        self._integral = 0.0
        self._e_filt = 0.0
        self._initialized = False

    def step(self, r: float, y: float, dt: float) -> float:
        cfg = self.cfg
        e = float(r) - float(y)
        if not np.isfinite(e) or dt <= 0:
            raise ValueError("inputs must be finite with dt > 0")
        if not self._initialized:
            self._e_filt = e          # no derivative kick on the first call
            self._initialized = True
        de_filt = (e - self._e_filt) / cfg.deriv_filter_tau_s
        self._e_filt += dt * de_filt

        u_raw = cfg.kp * e + self._integral + cfg.kd * de_filt
        u = float(np.clip(u_raw, *cfg.u_bounds))
        self._integral += dt * (cfg.ki * e
                                + cfg.anti_windup_gain * (u - u_raw))
        return u
