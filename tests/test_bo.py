"""Cost arithmetic, proposal determinism vs dense oracles, settling-gated
evaluation bookkeeping, and the full search loop on synthetic objectives."""

import numpy as np
import pytest

from icpmod.bo import (
    BoConfig,
    CostEvaluation,
    PeriodOutcome,
    cost_of_period,
    evaluate,
    propose,
    run,
    theta_grid,
)
from icpmod.gp import DEFAULT_HYPERPARAMS, PENALTY_THRESHOLD, BoDataset
from icpmod.refgen import THETA_BOUNDS
from oracles import dense_gp_posterior

BOX_DIAG = float(np.linalg.norm(THETA_BOUNDS[:, 1] - THETA_BOUNDS[:, 0]))


class TestCostOfPeriod:
    def test_constant_sequence_zero_target(self):
        assert cost_of_period(np.full(40, 7.3), 0.0, 0.0) == 0.0

    def test_exact_amplitude_match(self):
        assert cost_of_period([0.0, 2.0], 2.0, 0.0) == 0.0

    def test_centered_energy_is_per_sample(self):
        # amp 2 == ref, energy mean((0, 2)**2) = 2, lam 0.02 -> -0.04
        J = cost_of_period([1.0, 3.0], 2.0, 0.02, baseline_mean=1.0)
        assert J == pytest.approx(-0.04, abs=1e-15)

    def test_longer_period_same_centered_cost(self):
        # per-sample normalization: repeating the samples leaves J unchanged
        a = cost_of_period([1.0, 3.0], 2.0, 0.02, baseline_mean=1.0)
        b = cost_of_period([1.0, 3.0] * 50, 2.0, 0.02, baseline_mean=1.0)
        assert a == pytest.approx(b, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            cost_of_period([], 1.0, 0.1)
        with pytest.raises(ValueError):
            cost_of_period([1.0, np.nan], 1.0, 0.1)


class TestThetaGrid:
    def test_row_major_first_component_outermost(self):
        cfg = BoConfig(grid_resolution=5)
        grid = theta_grid(cfg)
        assert grid.shape == (25, 2)
        lo, hi = THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1]
        np.testing.assert_allclose(grid[0], lo)
        np.testing.assert_allclose(grid[4], [lo[0], hi[1]])
        np.testing.assert_allclose(grid[-1], hi)
        # inner axis cycles fastest
        assert np.all(grid[:5, 0] == lo[0])


class TestPropose:
    def test_first_draw_reproducible_from_seed(self):
        cfg = BoConfig(seed=123)
        a = propose(BoDataset(), cfg, 1)
        b = propose(BoDataset(), BoConfig(seed=123), 1)
        assert np.array_equal(a, b)
        assert np.all(a >= cfg.theta_bounds[:, 0])
        assert np.all(a <= cfg.theta_bounds[:, 1])

    def test_random_draws_respect_feasibility(self):
        cfg = BoConfig(seed=5, n_r=8, n_m=8)
        rng = np.random.default_rng(cfg.seed)
        ok = lambda th: th[0] < 0.1
        for n in range(1, 9):
            theta = propose(BoDataset(), cfg, n, rng, feasible=ok)
            assert theta[0] < 0.1

    def test_empty_feasible_set_rejected(self):
        cfg = BoConfig(n_r=1, n_m=4)
        never = lambda th: False
        with pytest.raises(ValueError):
            propose(BoDataset(), cfg, 1, feasible=never)
        data = BoDataset()
        data.append([0.05, 0.5], -1.0)
        with pytest.raises(ValueError):
            propose(data, cfg, 2, feasible=never)

    def test_iteration_range_checked(self):
        cfg = BoConfig()
        with pytest.raises(ValueError):
            propose(BoDataset(), cfg, 0)
        with pytest.raises(ValueError):
            propose(BoDataset(), cfg, cfg.n_m + 1)

    @pytest.mark.parametrize("beta", [2.0, 0.0])
    def test_acquisition_matches_grid_oracle(self, beta):
        cfg = BoConfig(n_r=3, n_m=10, beta=beta, grid_resolution=50, seed=2)
        rng = np.random.default_rng(9)
        data = BoDataset()
        for _ in range(3):
            theta = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1])
            data.append(theta, float(rng.normal()))
        picked = propose(data, cfg, 4)

        grid = theta_grid(cfg)
        lo = THETA_BOUNDS[:, 0]
        span = THETA_BOUNDS[:, 1] - lo
        X, y = data.as_arrays()
        z = (y - y.mean()) / y.std()
        hp = DEFAULT_HYPERPARAMS
        mu_z, sd_z = dense_gp_posterior((X - lo) / span, z, (grid - lo) / span,
                                        hp.lengthscales, hp.signal_var,
                                        hp.noise_var)
        acq = (mu_z * y.std() + y.mean()) + beta * (sd_z * y.std())
        expect = grid[int(np.argmax(acq))]
        assert np.array_equal(picked, expect)

    def test_flat_acquisition_ties_to_lowest_index(self):
        # no data: the prior surface is constant, so the argmax must be
        # the first grid point
        cfg = BoConfig(n_r=0, n_m=4, grid_resolution=16)
        picked = propose(BoDataset(), cfg, 1)
        np.testing.assert_allclose(picked, theta_grid(cfg)[0])


def wave(amp, mean, n=50):
    t = np.arange(n)
    return mean + 0.5 * amp * np.sin(2 * np.pi * t / n)


class StubLoop:
    """Scripted period outcomes; records how often it was driven."""

    def __init__(self, deltas, pressures=None, safety_at=None):
        self.deltas = list(deltas)
        self.pressures = pressures
        self.safety_at = safety_at
        self.calls = 0

    def __call__(self, theta):
        i = self.calls
        self.calls += 1
        delta = self.deltas[i] if i < len(self.deltas) else self.deltas[-1]
        p = self.pressures[i] if self.pressures is not None else wave(1.0, 15.0)
        safety = 1 if self.safety_at is not None and i == self.safety_at else 0
        return PeriodOutcome(pressure=p, disturbance_delta=delta,
                             safety_events=safety)


class TestEvaluate:
    def test_period_counting_contract(self):
        cfg = BoConfig(n_p=5)
        loop = StubLoop(deltas=[0.0])
        ev = evaluate([0.05, 0.5], loop, cfg, baseline_mean=15.0)
        assert loop.calls == 6  # 1 settling check + 5 counted
        assert len(ev.period_costs) == 5
        assert ev.settle_periods == 0
        assert ev.settled and not ev.aborted
        assert ev.cost == pytest.approx(np.mean(ev.period_costs))

    def test_settling_gate_counts_waiting_periods(self):
        cfg = BoConfig(n_p=2, epsilon_mm=0.01)
        loop = StubLoop(deltas=[0.5, 0.1, 0.002, 0.0])
        ev = evaluate([0.05, 0.5], loop, cfg, baseline_mean=15.0)
        assert ev.settle_periods == 2
        assert loop.calls == 5  # 3 until settled + 2 counted
        assert len(ev.period_costs) == 2

    def test_settle_cap_yields_worst_observed(self):
        cfg = BoConfig(n_p=3, max_settle_periods=4)
        pressures = [wave(a, 15.0) for a in (0.5, 3.0, 1.4, 2.2, 2.0, 2.0)]
        loop = StubLoop(deltas=[1.0], pressures=pressures)
        ev = evaluate([0.05, 0.5], loop, cfg, baseline_mean=15.0)
        assert loop.calls == 4
        assert not ev.settled and not ev.aborted
        assert ev.cost == pytest.approx(min(ev.period_costs))
        # the amp-0.5 period is the worst against the 2.0 mmHg target
        assert ev.cost == pytest.approx(ev.period_costs[0])

    def test_safety_abort_while_settling(self):
        cfg = BoConfig()
        loop = StubLoop(deltas=[1.0], safety_at=1)
        ev = evaluate([0.05, 0.5], loop, cfg, baseline_mean=15.0)
        assert ev.aborted and not ev.settled
        assert ev.cost == cfg.penalty_cost
        assert ev.safety_events == 1
        assert loop.calls == 2

    def test_safety_abort_during_counted_periods(self):
        cfg = BoConfig(n_p=5)
        loop = StubLoop(deltas=[0.0], safety_at=3)
        ev = evaluate([0.05, 0.5], loop, cfg, baseline_mean=15.0)
        assert ev.aborted and ev.settled
        assert ev.cost == cfg.penalty_cost
        assert loop.calls == 4

    def test_cost_wiring(self):
        cfg = BoConfig(n_p=1, lam=0.02, p_amp_ref_mmhg=2.0)
        p = wave(1.0, 15.5)
        loop = StubLoop(deltas=[0.0], pressures=[p, p])
        ev = evaluate([0.05, 0.5], loop, cfg, baseline_mean=15.0)
        expect = cost_of_period(p, 2.0, 0.02, baseline_mean=15.0)
        assert ev.cost == pytest.approx(expect)
        assert ev.period_amps[0] == pytest.approx(p.max() - p.min())
        assert ev.period_means[0] == pytest.approx(p.mean())


def quadratic(theta_true):
    target = np.asarray(theta_true, dtype=float)
    return lambda th: -float(np.sum((np.asarray(th) - target) ** 2))


class TestRun:
    def test_pure_random_search(self):
        cfg = BoConfig(n_m=6, n_r=6, seed=3)
        res = run(cfg, quadratic([0.1, 0.7]))
        assert len(res.dataset) == 6
        X, _ = res.dataset.as_arrays()
        assert np.all(X >= cfg.theta_bounds[:, 0])
        assert np.all(X <= cfg.theta_bounds[:, 1])
        assert all(it.source == "random" for it in res.iterations)

    def test_bitwise_determinism(self):
        cfg_a = BoConfig(n_m=10, seed=7)
        cfg_b = BoConfig(n_m=10, seed=7)
        res_a = run(cfg_a, quadratic([0.15, 1.0]))
        res_b = run(cfg_b, quadratic([0.15, 1.0]))
        Xa, ya = res_a.dataset.as_arrays()
        Xb, yb = res_b.dataset.as_arrays()
        assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)
        assert np.array_equal(res_a.theta_star, res_b.theta_star)

    def test_best_cost_nondecreasing_and_observed(self):
        cfg = BoConfig(n_m=12, seed=1)
        res = run(cfg, quadratic([0.12, 0.9]))
        bests = [it.best_cost for it in res.iterations]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        _, y = res.dataset.as_arrays()
        assert res.best_cost == y.max()
        assert np.array_equal(res.theta_star,
                              res.dataset.thetas[int(np.argmax(y))])

    def test_sources_follow_schedule(self):
        cfg = BoConfig(n_m=8, n_r=3, seed=0)
        res = run(cfg, quadratic([0.1, 0.8]))
        sources = [it.source for it in res.iterations]
        assert sources == ["random"] * 3 + ["acquisition"] * 5

    def test_penalized_evaluations_do_not_stop_the_run(self):
        cfg = BoConfig(n_m=10, seed=4)

        def objective(th):
            if th[1] > 1.0:  # treat the top of the box as unsafe
                return CostEvaluation(theta=np.asarray(th), period_costs=[],
                                      cost=cfg.penalty_cost, period_means=[],
                                      period_amps=[], settle_periods=0,
                                      safety_events=1, settled=False,
                                      aborted=True)
            return CostEvaluation(theta=np.asarray(th),
                                  period_costs=[quadratic([0.1, 0.8])(th)],
                                  cost=quadratic([0.1, 0.8])(th),
                                  period_means=[], period_amps=[],
                                  settle_periods=1)

        res = run(cfg, objective)
        assert len(res.dataset) == 10
        assert res.theta_star[1] <= 1.0

    def test_synthetic_quadratic_locates_optimum(self):
        theta_true = np.array([0.12, 0.9])
        for seed in (0, 1, 2):
            res = run(BoConfig(n_m=20, seed=seed), quadratic(theta_true))
            err = float(np.linalg.norm(res.theta_star - theta_true))
            assert err <= 0.05 * BOX_DIAG, f"seed {seed}: {err:.4f}"

    def test_surfaces_recorded_per_iteration(self):
        cfg = BoConfig(n_m=4, n_r=2, grid_resolution=12, seed=0)
        res = run(cfg, quadratic([0.1, 0.8]))
        assert len(res.iterations) == 4
        for it in res.iterations:
            assert it.surfaces.mu.shape == (144,)
            assert it.surfaces.sigma.shape == (144,)
            assert it.surfaces.acquisition.shape == (144,)

    def test_grid_screened_once_per_search(self):
        # The screen sees each grid point once per search, plus each
        # uniform draw, and every iteration's mask is the per-point screen.
        cfg = BoConfig(n_m=8, n_r=3, grid_resolution=12, seed=0)
        ok = lambda th: th[0] + 0.1 * th[1] < 0.15
        calls = []

        def counting(th):
            calls.append(np.array(th))
            return ok(th)

        res = run(cfg, quadratic([0.1, 0.8]), feasible=counting)

        rng = np.random.default_rng(cfg.seed)
        draws = 0
        for _ in range(cfg.n_r):
            draws += 1
            while not ok(rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1])):
                draws += 1
        grid = theta_grid(cfg)
        assert draws > cfg.n_r  # some draws were rejected
        assert len(calls) == len(grid) + draws
        np.testing.assert_array_equal(np.stack(calls[:len(grid)]), grid)
        expect = np.array([ok(t) for t in grid])
        assert 0 < expect.sum() < len(grid)
        for it in res.iterations:
            np.testing.assert_array_equal(it.surfaces.feasible, expect)

    def test_every_surface_matches_dense_oracle(self):
        # One surrogate serves the whole search; iteration n's surfaces
        # must still be the posterior of the first n - 1 evaluations, with
        # targets standardized by the non-penalty costs and floored at -5.
        cfg = BoConfig(n_m=12, n_r=4, grid_resolution=20, seed=5)
        target = quadratic([0.12, 0.9])

        def objective(th):
            return cfg.penalty_cost if th[1] > 1.15 else target(th)

        res = run(cfg, objective)
        X, y = res.dataset.as_arrays()
        assert np.any(y == cfg.penalty_cost)
        lo = THETA_BOUNDS[:, 0]
        span = THETA_BOUNDS[:, 1] - lo
        hp = DEFAULT_HYPERPARAMS
        for it in res.iterations:
            s = it.surfaces
            k = it.n - 1
            if k == 0:
                assert np.all(s.mu == 0.0)
                assert np.all(s.sigma == np.sqrt(hp.signal_var))
                continue
            clean = y[:k][y[:k] > PENALTY_THRESHOLD]
            mean = clean.mean()
            scale = clean.std() if clean.std() > 1e-8 else 1.0
            z = np.maximum((y[:k] - mean) / scale, -5.0)
            mu_z, sd_z = dense_gp_posterior((X[:k] - lo) / span, z,
                                            (s.grid - lo) / span,
                                            hp.lengthscales, hp.signal_var,
                                            hp.noise_var)
            np.testing.assert_allclose(s.mu, mu_z * scale + mean,
                                       atol=1e-9 * scale, rtol=0)
            np.testing.assert_allclose(s.sigma, sd_z * scale,
                                       atol=1e-9 * scale, rtol=0)
            np.testing.assert_array_equal(s.acquisition,
                                          s.mu + cfg.beta * s.sigma)

    def test_best_iter_first_reaches_best_cost(self):
        res = run(BoConfig(n_m=12, seed=1), quadratic([0.12, 0.9]))
        first = next(it.n for it in res.iterations
                     if it.evaluation.cost == res.best_cost)
        assert res.best_iter == first
        assert res.iterations[res.best_iter - 1].best_cost == res.best_cost

    def test_gp_events_survive_the_search(self, monkeypatch):
        # The first whole-matrix factorization fails once, at n = 1, so the
        # search's one surrogate escalates jitter there and keeps the event.
        import icpmod.gp as gpmod
        from scipy.linalg import LinAlgError

        real, failures = gpmod.cho_factor, [1]

        def flaky(a, **kw):
            if failures:
                failures.pop()
                raise LinAlgError("synthetic failure")
            return real(a, **kw)

        monkeypatch.setattr(gpmod, "cho_factor", flaky)
        res = run(BoConfig(n_m=6, n_r=2, grid_resolution=12, seed=0),
                  quadratic([0.1, 0.8]))
        assert res.gp_events == [{"kind": "jitter", "value": 1e-10, "n": 1}]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoConfig(n_r=21, n_m=20)
        with pytest.raises(ValueError):
            BoConfig(n_p=0)
        with pytest.raises(ValueError):
            BoConfig(beta=-0.1)
        with pytest.raises(ValueError):
            BoConfig(epsilon_mm=0.0)
        with pytest.raises(ValueError):
            BoConfig(theta_bounds=[[0.2, 0.0]])
