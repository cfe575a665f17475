"""Reference-pulse parameter search over the (delay, magnitude) box.

Seeded uniform exploration for the first few evaluations, then
upper-confidence-bound proposals from a Gaussian-process surrogate,
maximized exactly on a dense grid.  Each evaluation drives the closed
loop one beat period at a time: periods only count toward the averaged
cost once the disturbance memory has settled, a hard cap marks the
evaluation unsettled, and safety events abort it with a large penalty
so the surrogate learns to avoid the region.

Costs are rewards: larger is better.  The amplitude term compares the
per-period pressure swing against a target, the energy term penalizes
deviation of the pressure from its unactuated mean (per-sample, so the
weight is period-length independent).

A search keeps one surrogate and one proposal grid.  The grid and its
feasibility mask depend only on the settings and the screen, so they are
built once.  The dataset only grows by appending, so each iteration's fit
extends the previous Cholesky factor and each prediction computes only the
grid rows of the newest point (see icpmod.gp); the surrogate's events
(jitter escalations, variance clamps) are returned with the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gp import DEFAULT_HYPERPARAMS, BoDataset, GaussianProcess, GpHyperparams
from .refgen import THETA_BOUNDS

__all__ = [
    "BoConfig",
    "PeriodOutcome",
    "CostEvaluation",
    "AcquisitionSurfaces",
    "BoIteration",
    "BoResult",
    "cost_of_period",
    "theta_grid",
    "propose",
    "evaluate",
    "run",
]

# Uniform feasible draws give up after this many rejections; hitting it
# means the feasible fraction of the box is essentially zero.
_MAX_DRAWS = 1000


@dataclass
class BoConfig:
    """Search-loop settings.

    `n_m` total evaluations, the first `n_r` drawn uniformly; `n_p`
    periods averaged per evaluation once settled.  `lam` weighs the
    energy term of the cost, `p_amp_ref_mmhg` is the target pressure
    swing.  `beta` may be zero (pure exploitation).
    """

    n_m: int = 20
    n_r: int = 5
    n_p: int = 5
    beta: float = 1.0
    epsilon_mm: float = 0.01
    lam: float = 0.02
    p_amp_ref_mmhg: float = 2.0
    seed: int = 0
    grid_resolution: int = 64
    max_settle_periods: int = 15
    penalty_cost: float = -1e6
    theta_bounds: np.ndarray = field(
        default_factory=lambda: np.array(THETA_BOUNDS, dtype=float))
    hyperparams: GpHyperparams = DEFAULT_HYPERPARAMS

    def __post_init__(self):
        self.theta_bounds = np.asarray(self.theta_bounds, dtype=float)
        if self.theta_bounds.ndim != 2 or self.theta_bounds.shape[1] != 2:
            raise ValueError(
                f"theta_bounds must be (d, 2), got {self.theta_bounds.shape}")
        if not np.all(self.theta_bounds[:, 1] > self.theta_bounds[:, 0]):
            raise ValueError("theta_bounds must have hi > lo per dimension")
        if self.n_m < 1:
            raise ValueError(f"n_m must be at least 1, got {self.n_m}")
        if not 0 <= self.n_r <= self.n_m:
            raise ValueError(f"need 0 <= n_r <= n_m, got n_r={self.n_r}")
        if self.n_p < 1:
            raise ValueError(f"n_p must be at least 1, got {self.n_p}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.epsilon_mm <= 0.0:
            raise ValueError(f"epsilon_mm must be positive, got {self.epsilon_mm}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.grid_resolution < 2:
            raise ValueError(
                f"grid_resolution must be at least 2, got {self.grid_resolution}")
        if self.max_settle_periods < 1:
            raise ValueError(
                f"max_settle_periods must be at least 1, got "
                f"{self.max_settle_periods}")


@dataclass(frozen=True)
class PeriodOutcome:
    """One beat period as seen by the evaluator.

    `disturbance_delta` is the max per-phase change of the disturbance
    memory at the period wrap; `safety_events` counts realized
    constraint violations during the period.
    """

    pressure: np.ndarray
    disturbance_delta: float
    safety_events: int = 0


@dataclass
class CostEvaluation:
    """Outcome of evaluating one parameter point.

    For a settled evaluation `cost` is the mean of the `period_costs`
    (one per counted period).  Unsettled evaluations carry the worst
    cost seen while waiting; aborted ones carry the penalty.
    """

    theta: np.ndarray
    period_costs: list
    cost: float
    period_means: list
    period_amps: list
    settle_periods: int
    safety_events: int = 0
    settled: bool = True
    aborted: bool = False


@dataclass
class AcquisitionSurfaces:
    """Surrogate mean/std and the acquisition over the proposal grid."""

    grid: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    acquisition: np.ndarray
    feasible: np.ndarray


@dataclass
class BoIteration:
    n: int
    source: str  # "random" | "acquisition"
    theta: np.ndarray
    evaluation: CostEvaluation
    best_cost: float
    surfaces: AcquisitionSurfaces


@dataclass
class BoResult:
    """`best_iter` is the 1-based iteration that first reached `best_cost`;
    `gp_events` are the search surrogate's events, each tagged with the
    dataset size n at which it happened."""

    theta_star: np.ndarray
    best_cost: float
    best_iter: int
    dataset: BoDataset
    iterations: list
    config: BoConfig
    gp_events: list


def cost_of_period(pressure, p_amp_ref: float, lam: float, *,
                   baseline_mean: float = 0.0) -> float:
    """Reward for one period of pressure: amplitude match minus energy,

        -(amp - ref)^2 - lam * mean((p - baseline_mean)^2)
    """
    p = np.asarray(pressure, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pressure must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(p)):
        raise ValueError("pressure must be finite")
    amp = float(p.max() - p.min())
    energy = float(np.mean((p - baseline_mean) ** 2))
    return -((amp - p_amp_ref) ** 2) - lam * energy


def theta_grid(cfg: BoConfig) -> np.ndarray:
    """Dense proposal grid, (resolution**d, d), row-major with the first
    parameter outermost.  Ties in the acquisition resolve to the lowest
    index of this ordering."""
    axes = [np.linspace(lo, hi, cfg.grid_resolution)
            for lo, hi in cfg.theta_bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _screen(cfg: BoConfig, feasible):
    """The proposal grid and its feasibility mask, read-only so that every
    iteration's surfaces can share them."""
    grid = theta_grid(cfg)
    if feasible is None:
        mask = np.ones(len(grid), dtype=bool)
    else:
        mask = np.fromiter((bool(feasible(t)) for t in grid),
                           dtype=bool, count=len(grid))
    grid.setflags(write=False)
    mask.setflags(write=False)
    return grid, mask


def _surrogate(cfg: BoConfig) -> GaussianProcess:
    return GaussianProcess(cfg.hyperparams, input_bounds=cfg.theta_bounds)


def _surfaces(gp: GaussianProcess, data: BoDataset, cfg: BoConfig, grid,
              mask) -> AcquisitionSurfaces:
    if len(data):
        gp.fit_dataset(data)
    mu, sigma = gp.predict(grid)
    return AcquisitionSurfaces(grid=grid, mu=mu, sigma=sigma,
                               acquisition=mu + cfg.beta * sigma,
                               feasible=mask)


def _random_feasible(cfg: BoConfig, rng: np.random.Generator, feasible):
    lo = cfg.theta_bounds[:, 0]
    hi = cfg.theta_bounds[:, 1]
    for _ in range(_MAX_DRAWS):
        theta = rng.uniform(lo, hi)
        if feasible is None or feasible(theta):
            return theta
    raise ValueError(
        f"no feasible parameter point in {_MAX_DRAWS} uniform draws")


def _pick(gp: GaussianProcess, data: BoDataset, cfg: BoConfig, iteration: int,
          rng: np.random.Generator, feasible, grid, mask):
    surfaces = _surfaces(gp, data, cfg, grid, mask)
    if iteration <= cfg.n_r:
        return _random_feasible(cfg, rng, feasible), "random", surfaces
    if not surfaces.feasible.any():
        raise ValueError("feasible set is empty on the acquisition grid")
    acq = np.where(surfaces.feasible, surfaces.acquisition, -np.inf)
    return surfaces.grid[int(np.argmax(acq))].copy(), "acquisition", surfaces


def propose(data: BoDataset, cfg: BoConfig, iteration: int,
            rng: np.random.Generator | None = None,
            feasible=None) -> np.ndarray:
    """Next parameter point: uniform feasible draw for the first n_r
    iterations (1-based), then the feasible grid argmax of mu + beta*sigma."""
    if not 1 <= iteration <= cfg.n_m:
        raise ValueError(f"iteration must be in [1, {cfg.n_m}], got {iteration}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    theta, _, _ = _pick(_surrogate(cfg), data, cfg, iteration, rng, feasible,
                        *_screen(cfg, feasible))
    return theta


def evaluate(theta, run_period, cfg: BoConfig, *,
             baseline_mean: float = 0.0) -> CostEvaluation:
    """Settling-gated period-averaged cost of one parameter point.

    `run_period(theta)` advances the closed loop one beat period and
    reports a PeriodOutcome.  Periods run until the disturbance memory
    settles (wrap delta <= epsilon), then n_p more are costed and
    averaged.  Hitting the settle cap yields the worst cost observed so
    far; any safety event aborts with the penalty cost.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    waiting_costs: list = []
    waiting_means: list = []
    waiting_amps: list = []

    def period_stats(out: PeriodOutcome):
        cost = cost_of_period(out.pressure, cfg.p_amp_ref_mmhg, cfg.lam,
                              baseline_mean=baseline_mean)
        p = np.asarray(out.pressure, dtype=float)
        return cost, float(p.mean()), float(p.max() - p.min())

    settle = 0
    while True:
        out = run_period(theta)
        if out.safety_events:
            return CostEvaluation(
                theta=theta, period_costs=list(waiting_costs),
                cost=cfg.penalty_cost, period_means=list(waiting_means),
                period_amps=list(waiting_amps), settle_periods=settle,
                safety_events=int(out.safety_events), settled=False,
                aborted=True)
        cost, mean, amp = period_stats(out)
        if out.disturbance_delta <= cfg.epsilon_mm:
            break
        waiting_costs.append(cost)
        waiting_means.append(mean)
        waiting_amps.append(amp)
        settle += 1
        if settle >= cfg.max_settle_periods:
            return CostEvaluation(
                theta=theta, period_costs=list(waiting_costs),
                cost=float(min(waiting_costs)),
                period_means=list(waiting_means),
                period_amps=list(waiting_amps), settle_periods=settle,
                settled=False)

    costs: list = []
    means: list = []
    amps: list = []
    for _ in range(cfg.n_p):
        out = run_period(theta)
        if out.safety_events:
            return CostEvaluation(
                theta=theta, period_costs=costs, cost=cfg.penalty_cost,
                period_means=means, period_amps=amps, settle_periods=settle,
                safety_events=int(out.safety_events), settled=True,
                aborted=True)
        cost, mean, amp = period_stats(out)
        costs.append(cost)
        means.append(mean)
        amps.append(amp)
    return CostEvaluation(
        theta=theta, period_costs=costs, cost=float(np.mean(costs)),
        period_means=means, period_amps=amps, settle_periods=settle)


def run(cfg: BoConfig, evaluate_fn, feasible=None) -> BoResult:
    """Full search: n_m sequential evaluations, dataset updates, and the
    best OBSERVED point as the result (not the surrogate optimum).

    `evaluate_fn(theta)` returns a CostEvaluation, or a bare float cost
    which gets wrapped (handy for synthetic benchmarks).
    """
    rng = np.random.default_rng(cfg.seed)
    grid, mask = _screen(cfg, feasible)
    gp = _surrogate(cfg)
    data = BoDataset()
    iterations: list = []
    best = -np.inf
    for n in range(1, cfg.n_m + 1):
        theta, source, surfaces = _pick(gp, data, cfg, n, rng, feasible,
                                        grid, mask)
        ev = evaluate_fn(theta)
        if not isinstance(ev, CostEvaluation):
            cost = float(ev)
            ev = CostEvaluation(theta=np.asarray(theta, dtype=float),
                                period_costs=[cost], cost=cost,
                                period_means=[], period_amps=[],
                                settle_periods=0)
        data.append(theta, ev.cost)
        best = max(best, ev.cost)
        iterations.append(BoIteration(n=n, source=source, theta=theta,
                                      evaluation=ev, best_cost=best,
                                      surfaces=surfaces))
    star = data.best_index()
    return BoResult(theta_star=data.thetas[star], best_cost=data.costs[star],
                    best_iter=star + 1, dataset=data, iterations=iterations,
                    config=cfg, gp_events=gp.events)
