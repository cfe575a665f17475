"""Observer design oracle (eigenvalue comparison), predictor update, and
disturbance-memory semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icpmod.model import augment
from icpmod.observer import (
    DEFAULT_OBSERVER_POLES,
    DisturbanceMemory,
    ObserverDesignError,
    ObserverState,
    observer_step,
    place_observer_poles,
)
from test_model import companion_model


@pytest.fixture
def aug():
    return augment(companion_model(1.44, -0.45, 5e-3))


def sorted_eigs(A):
    return np.sort_complex(np.linalg.eigvals(A))


class TestPolePlacement:
    def test_default_poles_reproduced(self, aug):
        gain = place_observer_poles(aug)
        achieved = sorted_eigs(aug.A_a - np.outer(gain.L, aug.C_a))
        np.testing.assert_allclose(achieved, np.sort_complex(
            np.array(DEFAULT_OBSERVER_POLES, dtype=complex)), atol=1e-8)

    def test_deadbeat_nilpotent(self, aug):
        gain = place_observer_poles(aug, poles=(0.0, 0.0, 0.0))
        F = aug.A_a - np.outer(gain.L, aug.C_a)
        assert np.max(np.abs(F @ F @ F)) < 1e-8

    def test_complex_conjugate_pair(self, aug):
        poles = (0.6 + 0.2j, 0.6 - 0.2j, 0.3)
        gain = place_observer_poles(aug, poles=poles)
        assert np.all(np.isreal(gain.L))
        achieved = sorted_eigs(aug.A_a - np.outer(gain.L, aug.C_a))
        np.testing.assert_allclose(achieved, np.sort_complex(
            np.asarray(poles, dtype=complex)), atol=1e-8)

    def test_rejects_unstable_pole(self, aug):
        with pytest.raises(ObserverDesignError, match="unit circle"):
            place_observer_poles(aug, poles=(0.5, 0.55, 1.0))

    def test_rejects_non_conjugate_complex(self, aug):
        with pytest.raises(ObserverDesignError):
            place_observer_poles(aug, poles=(0.6 + 0.2j, 0.6 + 0.1j, 0.3))

    def test_unobservable_pair_reports_rank(self):
        # Exact integrator plant: disturbance indistinguishable from position.
        aug_bad = augment(companion_model(1.94, -0.94, 2e-4))
        with pytest.raises(ObserverDesignError, match="rank"):
            place_observer_poles(aug_bad)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    # poles near -1 (555: -0.878, -0.853, -0.512) need |L| ~ 100, where the
    # coefficient check's own rounding reaches 1e-8; an absolute bound of
    # 1e-8 refused these five
    @example(555)
    @example(1286)
    @example(3252)
    @example(8111)
    @example(9656)
    def test_random_stable_poles_oracle(self, seed):
        # Oracle: the characteristic polynomial of A_a - L C_a, computed
        # independently by numpy from its eigenvalues, must be the one the
        # requested poles give, within the design's bound of 1e-8 times
        # max(1, ||A_a - L C_a||). The coefficients, not the eigenvalues, are
        # what the design controls: near a double pole (seed 686 draws two
        # 1.6e-5 apart) an eigenvalue moves with the square root of a
        # coefficient error.
        rng = np.random.default_rng(seed)
        aug = augment(companion_model(1.44, -0.45, 5e-3))
        reals = rng.uniform(-0.9, 0.9, size=3)
        gain = place_observer_poles(aug, poles=tuple(reals))
        F = aug.A_a - np.outer(gain.L, aug.C_a)
        np.testing.assert_allclose(
            np.poly(F), np.poly(reals), rtol=0.0,
            atol=1e-8 * max(1.0, float(np.linalg.norm(F))))



class TestObserverStep:
    def test_zero_innovation_is_pure_prediction(self, aug):
        state = ObserverState(xhat=[0.4, -1.0, 0.2])
        gain = place_observer_poles(aug)
        y = float(aug.C_a @ state.xhat)  # exact prediction: innovation 0
        nxt = observer_step(state, gain, aug, u=0.3, y=y)
        np.testing.assert_allclose(
            nxt.xhat, aug.A_a @ state.xhat + aug.B_a * 0.3, atol=1e-14)

    def test_constant_output_disturbance_converges(self, aug):
        # Oracle: simulate the true linear plant with a constant additive
        # output disturbance; the augmented estimate must converge to the
        # true state and the true disturbance.
        m = companion_model(1.44, -0.45, 5e-3)
        gain = place_observer_poles(aug)
        rng = np.random.default_rng(1)
        d_true = 0.3
        x = np.zeros(2)
        est = ObserverState(xhat=np.zeros(3))
        for k in range(400):
            u = float(rng.uniform(-1.0, 1.0))
            y = float(m.C @ x + d_true)
            est = observer_step(est, gain, aug, u=u, y=y)
            x = m.A @ x + m.B * u
        assert abs(est.d - d_true) < 1e-6
        np.testing.assert_allclose(est.x, x, atol=1e-6)


class TestDisturbanceMemory:
    def test_zero_initialized_preview(self):
        mem = DisturbanceMemory(10)
        np.testing.assert_array_equal(mem.preview(0, 5), np.zeros(5))

    def test_settled_before_first_wrap_raises(self):
        mem = DisturbanceMemory(5)
        mem.update(1.0)
        with pytest.raises(ValueError):
            mem.settled(0.1)

    def test_two_identical_periods_settle_for_any_eps(self):
        mem = DisturbanceMemory(4)
        vals = [0.1, 0.2, -0.3, 0.05]
        for v in vals:
            mem.update(v)
        for v in vals:
            mem.update(v)
        assert mem.settled(1e-300)

    def test_first_period_compared_against_zeros(self):
        mem = DisturbanceMemory(3)
        for v in (0.2, 0.0, 0.0):
            mem.update(v)
        assert mem.periods_completed == 1
        assert not mem.settled(0.1)
        assert mem.settled(0.2)

    def test_wrap_swaps_buffers(self):
        mem = DisturbanceMemory(3)
        for v in (1.0, 2.0, 3.0):
            mem.update(v)
        np.testing.assert_array_equal(mem.previous, [1.0, 2.0, 3.0])
        mem.update(9.0)
        # previous still holds the completed period while the new one fills
        np.testing.assert_array_equal(mem.previous, [1.0, 2.0, 3.0])
        assert mem.cursor == 1

    def test_preview_phase_congruence(self):
        # The value consumed at prediction step i of phase k must be the value
        # recorded at phase (k + i) mod T of the previous period.
        T = 7
        mem = DisturbanceMemory(T)
        period = 10.0 + np.arange(T)
        for v in period:
            mem.update(v)
        for phase in range(T):
            window = mem.preview(phase, 4)
            expect = period[(phase + np.arange(4)) % T]
            np.testing.assert_array_equal(window, expect)

    def test_rejects_degenerate_period(self):
        with pytest.raises(ValueError):
            DisturbanceMemory(1)
