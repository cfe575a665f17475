"""Model construction, augmentation structure, and identification oracles."""

import numpy as np
import pytest

from icpmod.model import (
    AugmentedModel,
    Constraints,
    IdentificationError,
    LtiModel,
    augment,
    identify_lti,
)

DT = 0.01


def companion_model(a1, a2, b, dt=DT):
    """Realize y(k+1) = a1 y(k) + a2 y(k-1) + b u(k) in the package's
    [position, backward-difference velocity] state convention."""
    a_mat = np.array([[a1 + a2, -a2 * dt],
                      [(a1 + a2 - 1.0) / dt, -a2]])
    b_vec = np.array([b, b / dt])
    return LtiModel(A=a_mat, B=b_vec, C=np.array([1.0, 0.0]), dt=dt)


def simulate(model, u_seq, x0=None):
    x = np.zeros(2) if x0 is None else np.array(x0, dtype=float)
    ys = np.empty(len(u_seq))
    for k, u in enumerate(u_seq):
        ys[k] = model.C @ x
        x = model.A @ x + model.B * u
    return ys


def prbs(rng, n, amplitude, hold=3):
    signs = rng.choice([-1.0, 1.0], size=n // hold + 1)
    return amplitude * np.repeat(signs, hold)[:n]


class TestLtiModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LtiModel(A=np.eye(3), B=np.zeros(2), C=np.array([1.0, 0.0]), dt=DT)
        with pytest.raises(ValueError):
            LtiModel(A=np.eye(2), B=np.zeros(2), C=np.array([1.0, 0.0]), dt=0.0)
        with pytest.raises(ValueError):
            LtiModel(A=np.full((2, 2), np.nan), B=np.zeros(2),
                     C=np.array([1.0, 0.0]), dt=DT)

    def test_default_disturbance_channels(self):
        m = companion_model(1.9, -0.905, 2e-4)
        assert np.all(m.B_d == 0.0)
        assert m.C_d == 1.0

    def test_io_round_trip(self, tmp_path):
        m = companion_model(1.9, -0.905, 2e-4)
        path = tmp_path / "model.json"
        m.save(path)
        m2 = LtiModel.load(path)
        np.testing.assert_array_equal(m.A, m2.A)
        np.testing.assert_array_equal(m.B, m2.B)
        np.testing.assert_array_equal(m.C, m2.C)
        np.testing.assert_array_equal(m.B_d, m2.B_d)
        assert m.C_d == m2.C_d
        assert m.dt == m2.dt


class TestAugment:
    def test_block_structure(self):
        m = companion_model(1.9, -0.905, 2e-4)
        aug = augment(m)
        np.testing.assert_array_equal(aug.A_a[:2, :2], m.A)
        np.testing.assert_array_equal(aug.A_a[:2, 2], m.B_d)
        np.testing.assert_array_equal(aug.A_a[2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(aug.B_a, np.r_[m.B, 0.0])
        np.testing.assert_array_equal(aug.C_a, np.r_[m.C, m.C_d])
        assert aug.dt == m.dt

    def test_rejects_malformed_disturbance_row(self):
        with pytest.raises(ValueError):
            AugmentedModel(A_a=np.eye(3) * 0.9, B_a=np.zeros(3),
                           C_a=np.array([1.0, 0.0, 1.0]), dt=DT)


class TestConstraints:
    def test_defaults(self):
        c = Constraints()
        assert c.position == (0.0, 2.6)
        assert c.velocity == (-100.0, 100.0)
        assert c.input == (-10.0, 10.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Constraints(position=(1.0, 1.0))


class TestIdentifyLti:
    def test_recovers_known_system_noiseless(self):
        # Oracle: data simulated from a known companion-structure model; the
        # least-squares fit must reproduce it elementwise.
        truth = companion_model(1.9, -0.905, 2e-4)
        rng = np.random.default_rng(7)
        u = prbs(rng, 1000, 0.8)
        y = simulate(truth, u)
        fit = identify_lti(u, y, DT)
        np.testing.assert_allclose(fit.A, truth.A, atol=1e-6)
        np.testing.assert_allclose(fit.B, truth.B, atol=1e-6)
        np.testing.assert_array_equal(fit.C, [1.0, 0.0])

    def test_noise_robustness_worst_case(self):
        # Monte-Carlo over 20 seeds with additive output noise sigma = 1e-3;
        # worst-case elementwise error on A stays within 1e-2.  A21 divides
        # a1+a2-1 by dt, so the excitation mixes a fast band (pins a2 through
        # per-step position changes well above the noise floor) with a slow
        # band (large excursions pin a1+a2).
        truth = companion_model(1.44, -0.45, 5e-3)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u = prbs(rng, 4000, 3.0, hold=2) + prbs(rng, 4000, 2.0, hold=50)
            y = simulate(truth, u) + rng.normal(0.0, 1e-3, size=4000)
            fit = identify_lti(u, y, DT)
            worst = max(worst, np.max(np.abs(fit.A - truth.A)))
        assert worst < 1e-2, f"worst-case A error {worst:.3e}"

    def test_scale_consistency(self):
        # Scaling the input record by alpha scales the fitted B by 1/alpha.
        truth = companion_model(1.9, -0.905, 2e-4)
        rng = np.random.default_rng(3)
        u = prbs(rng, 600, 0.5)
        y = simulate(truth, u)
        fit = identify_lti(u, y, DT)
        fit_scaled = identify_lti(4.0 * u, y, DT)
        np.testing.assert_allclose(fit_scaled.B, fit.B / 4.0, rtol=1e-9)
        np.testing.assert_allclose(fit_scaled.A, fit.A, atol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(IdentificationError):
            identify_lti(np.ones(49), np.ones(49), DT)

    def test_rank_deficient_reports_condition_number(self):
        # Constant input and output: no excitation at all.
        with pytest.raises(IdentificationError, match="condition number"):
            identify_lti(np.ones(200), np.ones(200), DT)

    def test_length_mismatch(self):
        with pytest.raises(IdentificationError):
            identify_lti(np.ones(100), np.ones(101), DT)
