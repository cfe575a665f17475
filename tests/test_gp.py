"""Posterior correctness against dense-formula oracles plus variance
properties of the squared-exponential surrogate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError

from icpmod.gp import (
    DEFAULT_HYPERPARAMS,
    PENALTY_THRESHOLD,
    BoDataset,
    GaussianProcess,
    GpHyperparams,
)
from icpmod.refgen import THETA_BOUNDS
from oracles import dense_gp_posterior

RAW_HP = GpHyperparams(lengthscales=(0.7, 1.1), signal_var=2.0, noise_var=0.01)


def random_set(rng, n, d=2, scale=2.0):
    X = rng.uniform(-scale, scale, size=(n, d))
    y = rng.normal(scale=1.5, size=n)
    return X, y


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        X, y = random_set(rng, n)
        Xq = rng.uniform(-2.5, 2.5, size=(20, 2))
        gp = GaussianProcess(RAW_HP, standardize=False).fit(X, y)
        mu, sd = gp.predict(Xq)
        mu_o, sd_o = dense_gp_posterior(X, y, Xq, RAW_HP.lengthscales,
                                        RAW_HP.signal_var, RAW_HP.noise_var)
        np.testing.assert_allclose(mu, mu_o, atol=1e-10, rtol=0)
        np.testing.assert_allclose(sd, sd_o, atol=1e-10, rtol=0)

    def test_three_points_hand_solve(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, -1.0, 0.5])
        Xq = np.array([[0.5, 0.5], [2.0, -1.0]])
        gp = GaussianProcess(RAW_HP, standardize=False).fit(X, y)
        mu, sd = gp.predict(Xq)
        mu_o, sd_o = dense_gp_posterior(X, y, Xq, RAW_HP.lengthscales,
                                        RAW_HP.signal_var, RAW_HP.noise_var)
        np.testing.assert_allclose(mu, mu_o, atol=1e-12, rtol=0)
        np.testing.assert_allclose(sd, sd_o, atol=1e-12, rtol=0)

    def test_standardized_path_matches_transformed_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(6, 2))
        y = rng.normal(loc=-3.0, scale=4.0, size=6)
        Xq = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(15, 2))
        gp = GaussianProcess(input_bounds=THETA_BOUNDS).fit(X, y)
        mu, sd = gp.predict(Xq)

        lo, span = THETA_BOUNDS[:, 0], np.diff(THETA_BOUNDS, axis=1).ravel()
        z = (y - y.mean()) / y.std()
        hp = DEFAULT_HYPERPARAMS
        mu_z, sd_z = dense_gp_posterior((X - lo) / span, z, (Xq - lo) / span,
                                        hp.lengthscales, hp.signal_var,
                                        hp.noise_var)
        np.testing.assert_allclose(mu, mu_z * y.std() + y.mean(),
                                   atol=1e-10, rtol=0)
        np.testing.assert_allclose(sd, sd_z * y.std(), atol=1e-10, rtol=0)


class TestLimits:
    def test_single_point_closed_form(self):
        # Gram is the 1x1 matrix [signal + noise]
        hp = GpHyperparams(lengthscales=(0.5,), signal_var=1.0, noise_var=0.0025)
        gp = GaussianProcess(hp, standardize=False).fit([[0.3]], [2.0])
        mu, sd = gp.predict(np.array([0.3]))
        assert mu == pytest.approx(2.0 / 1.0025, abs=1e-12)
        assert sd**2 == pytest.approx(1.0 - 1.0 / 1.0025, abs=1e-12)

    def test_interpolation_limit_as_noise_vanishes(self):
        hp = GpHyperparams(lengthscales=(0.7, 1.1), signal_var=2.0,
                           noise_var=1e-12)
        rng = np.random.default_rng(3)
        X, y = random_set(rng, 5)
        gp = GaussianProcess(hp, standardize=False).fit(X, y)
        mu, sd = gp.predict(X)
        np.testing.assert_allclose(mu, y, atol=1e-5, rtol=0)
        assert np.all(sd < 1e-4)

    def test_far_query_reverts_to_prior(self):
        rng = np.random.default_rng(4)
        X, y = random_set(rng, 5, scale=0.5)
        gp = GaussianProcess(RAW_HP, standardize=False).fit(X, y)
        far = np.array([50.0, 50.0])  # tens of lengthscales out
        mu, sd = gp.predict(far)
        assert abs(mu) < 1e-6
        assert abs(sd - np.sqrt(RAW_HP.signal_var)) < 1e-6

    def test_duplicate_inputs_absorbed_by_noise(self):
        X = np.array([[0.2, 0.2], [0.2, 0.2]])
        y = np.array([1.0, 2.0])
        gp = GaussianProcess(RAW_HP, standardize=False).fit(X, y)
        mu, _ = gp.predict(np.array([0.2, 0.2]))
        assert 1.0 < mu < 2.0

    def test_prior_before_any_fit(self):
        gp = GaussianProcess(RAW_HP, standardize=False)
        mu, sd = gp.predict(np.array([1.0, -1.0]))
        assert mu == 0.0
        assert sd == pytest.approx(np.sqrt(RAW_HP.signal_var))


class TestVarianceProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(2, 9))
    def test_never_exceeds_prior(self, seed, n):
        rng = np.random.default_rng(seed)
        X, y = random_set(rng, n)
        gp = GaussianProcess(RAW_HP, standardize=False).fit(X, y)
        _, sd = gp.predict(rng.uniform(-3, 3, size=(30, 2)))
        assert np.all(sd**2 <= RAW_HP.signal_var + 1e-9)
        assert np.all(sd >= 0.0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_more_data_never_raises_variance(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_set(rng, 6)
        Xq = rng.uniform(-3, 3, size=(25, 2))
        _, sd_before = GaussianProcess(RAW_HP, standardize=False).fit(
            X[:5], y[:5]).predict(Xq)
        _, sd_after = GaussianProcess(RAW_HP, standardize=False).fit(
            X, y).predict(Xq)
        assert np.all(sd_after <= sd_before + 1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        X, y = random_set(rng, 8)
        Xq = rng.uniform(-3, 3, size=(20, 2))
        perm = rng.permutation(8)
        gp_a = GaussianProcess(input_bounds=None).fit(X, y)
        gp_b = GaussianProcess(input_bounds=None).fit(X[perm], y[perm])
        mu_a, sd_a = gp_a.predict(Xq)
        mu_b, sd_b = gp_b.predict(Xq)
        np.testing.assert_allclose(mu_a, mu_b, atol=1e-10, rtol=0)
        np.testing.assert_allclose(sd_a, sd_b, atol=1e-10, rtol=0)


def counting_cholesky(monkeypatch):
    """Count the whole-matrix factorizations a GaussianProcess makes."""
    import icpmod.gp as gpmod

    real, calls = gpmod.cholesky, []

    def counted(a, **kw):
        calls.append(len(a))
        return real(a, **kw)

    monkeypatch.setattr(gpmod, "cholesky", counted)
    return calls


def fresh(X, y, Xq):
    """The posterior of a new GP fitted on the whole data, as bo uses it."""
    return GaussianProcess(input_bounds=THETA_BOUNDS).fit(X, y).predict(Xq)


def assert_close(gp, got, want):
    """Equal within 1e-12 of the output scale, as an extended factor and
    the whole-matrix factor agree."""
    tol = 1e-12 * gp.posterior_.y_scale
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, atol=tol, rtol=0)


class TestIncrementalPosterior:
    """One GaussianProcess refit on a growing dataset and asked for the same
    query points must give what a new one fitted on the whole data gives."""

    def test_extended_matches_fresh(self, monkeypatch):
        rng = np.random.default_rng(21)
        X = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(20, 2))
        y = rng.normal(loc=-2.0, scale=3.0, size=20)
        y[7] = -1e6  # a penalty moves the standardization of every target
        Xq = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(300, 2))
        calls = counting_cholesky(monkeypatch)
        gp = GaussianProcess(input_bounds=THETA_BOUNDS)
        for n in range(1, 21):
            got = gp.fit(X[:n], y[:n]).predict(Xq)
            assert_close(gp, got, fresh(X[:n], y[:n], Xq))
        # the growing GP factorized the whole matrix only for its first
        # fit; every other factorization is a fresh GP's
        assert calls == [1, *range(1, 21)]

    def test_changed_rows_rebuild(self, monkeypatch):
        rng = np.random.default_rng(22)
        X = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(7, 2))
        y = rng.normal(size=7)
        Xq = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(50, 2))
        gp = GaussianProcess(input_bounds=THETA_BOUNDS)
        gp.fit(X[:5], y[:5]).predict(Xq)
        # the same array changed in place, at the same size
        Xa = X[:5].copy()
        gp.fit(Xa, y[:5]).predict(Xq)
        Xa[0] += 0.03
        got = gp.fit(Xa, y[:5]).predict(Xq)
        np.testing.assert_array_equal(got, fresh(Xa, y[:5], Xq))
        # one more point behind a changed first row
        Xb = X[:6].copy()
        Xb[0, 1] -= 0.1
        got = gp.fit(Xb, y[:6]).predict(Xq)
        np.testing.assert_array_equal(got, fresh(Xb, y[:6], Xq))

    def test_several_new_rows_match_dense_oracle(self, monkeypatch):
        # Rows of W for several points at once: points added by fits with
        # no predict between them, then every row after a forced refactor.
        rng = np.random.default_rng(25)
        X, y = random_set(rng, 9)
        Xq = rng.uniform(-2.5, 2.5, size=(60, 2))
        calls = counting_cholesky(monkeypatch)
        gp = GaussianProcess(RAW_HP, standardize=False)

        def check(X, y):
            mu_o, sd_o = dense_gp_posterior(
                X, y, Xq, RAW_HP.lengthscales, RAW_HP.signal_var,
                RAW_HP.noise_var)
            tol = 1e-9 * gp.posterior_.y_scale
            mu, sd = gp.predict(Xq)
            np.testing.assert_allclose(mu, mu_o, atol=tol, rtol=0)
            np.testing.assert_allclose(sd, sd_o, atol=tol, rtol=0)

        gp.fit(X[:3], y[:3])
        check(X[:3], y[:3])
        gp.fit(X[:4], y[:4])
        gp.fit(X[:7], y[:7])
        assert gp._w_rows == 3
        check(X[:7], y[:7])          # rows 3-6 in one call
        assert gp._w_rows == 7 and calls == [3]
        Xr = X.copy()
        Xr[0] += 0.05                # a changed first point refactors
        gp.fit(Xr, y)
        assert gp._w_rows == 0 and calls == [3, 9]
        check(Xr, y)                 # all 9 rows in one call
        assert gp._w_rows == 9

    def test_other_query_points_of_the_same_shape(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(6, 2))
        y = rng.normal(size=6)
        Q1, Q2 = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1],
                             size=(2, 40, 2))
        gp = GaussianProcess(input_bounds=THETA_BOUNDS)
        gp.fit(X[:4], y[:4]).predict(Q1)
        got = gp.predict(Q2)
        np.testing.assert_array_equal(got, fresh(X[:4], y[:4], Q2))
        gp.fit(X, y).predict(Q1)
        assert_close(gp, gp.fit(X, y).predict(Q2), fresh(X, y, Q2))

    def test_query_array_mutated_in_place(self):
        rng = np.random.default_rng(24)
        X = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(6, 2))
        y = rng.normal(size=6)
        Q = rng.uniform(THETA_BOUNDS[:, 0], THETA_BOUNDS[:, 1], size=(40, 2))
        gp = GaussianProcess(input_bounds=THETA_BOUNDS)
        gp.fit(X[:4], y[:4]).predict(Q)
        Q[3] = [0.1, 0.6]
        got = gp.predict(Q)
        np.testing.assert_array_equal(got, fresh(X[:4], y[:4], Q))
        Q[:, 0] *= 0.5
        assert_close(gp, gp.fit(X, y).predict(Q), fresh(X, y, Q))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicated_point_escalates_jitter(self, seed):
        # Under noise 1e-20 a repeated input makes the Gram matrix singular
        # to rounding; seed 1 leaves a tiny positive squared pivot in the
        # extension that the whole-matrix factorization rejects.
        hp = GpHyperparams(lengthscales=(0.7, 1.1), signal_var=2.0,
                           noise_var=1e-20)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(5, 2))
        y = rng.normal(size=7)
        Xq = rng.uniform(-2, 2, size=(7, 2))
        Xd = np.vstack([X, X[1], rng.uniform(-2, 2, size=(1, 2))])
        gp = GaussianProcess(hp, standardize=False)
        gp.fit(X, y[:5]).predict(Xq)
        got = gp.fit(Xd[:6], y[:6]).predict(Xq)
        ref = GaussianProcess(hp, standardize=False).fit(Xd[:6], y[:6])
        np.testing.assert_array_equal(got, ref.predict(Xq))
        assert gp.events == ref.events == [
            {"kind": "jitter", "value": 1e-10, "n": 6}]
        assert gp.posterior_.jitter == 1e-10
        # a jittered factor is never extended: the next point refactors
        got = gp.fit(Xd, y).predict(Xq)
        np.testing.assert_array_equal(
            got, GaussianProcess(hp, standardize=False).fit(Xd, y).predict(Xq))

    def test_variance_clamp_event_carries_n(self):
        # at the training inputs under noise 1e-17 the posterior variance is
        # below the rounding of sigma_f^2 - sum W^2
        hp = GpHyperparams(lengthscales=(0.7, 1.1), signal_var=2.0,
                           noise_var=1e-17)
        X, y = random_set(np.random.default_rng(0), 6)
        gp = GaussianProcess(hp, standardize=False).fit(X, y)
        _, sd = gp.predict(X)
        clamps = [e for e in gp.events if e["kind"] == "variance_clamp"]
        assert clamps and all(e["n"] == 6 and e["worst"] < 0.0 for e in clamps)
        assert np.all(sd >= 0.0)


class TestPenaltyHandling:
    def test_penalty_excluded_from_scale(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.0, 1.0, size=(8, 2))
        y = rng.normal(loc=-2.0, scale=0.5, size=8)
        far = np.array([[30.0, 30.0]])  # outside any clean point's reach
        gp_clean = GaussianProcess().fit(X, y)
        gp_pen = GaussianProcess().fit(np.vstack([X, far]),
                                       np.append(y, -1e6))
        post = gp_pen.posterior_
        assert post.y_scale == pytest.approx(y.std())
        assert post.y_mean == pytest.approx(y.mean())
        assert post.z[-1] == -5.0  # floored, not -2e6-ish
        mu_c, _ = gp_clean.predict(X)
        mu_p, _ = gp_pen.predict(X)
        np.testing.assert_allclose(mu_p, mu_c, atol=1e-6, rtol=0)

    def test_penalty_region_predicted_bad(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0.0, 1.0, size=(8, 2))
        y = rng.normal(loc=-2.0, scale=0.5, size=8)
        far = np.array([30.0, 30.0])
        gp = GaussianProcess().fit(np.vstack([X, [far]]), np.append(y, -1e6))
        mu_far, _ = gp.predict(far)
        assert mu_far < y.min() - 1.0

    def test_all_penalties_still_fit(self):
        X = np.array([[0.1, 0.1], [0.6, 0.8]])
        gp = GaussianProcess().fit(X, [-1e6, -1e6])
        mu, sd = gp.predict(np.array([0.4, 0.4]))
        assert np.isfinite(mu) and np.isfinite(sd)

    def test_threshold_value(self):
        assert PENALTY_THRESHOLD == -1e5


class TestRobustness:
    def test_jitter_escalation_on_factorization_failure(self, monkeypatch):
        import icpmod.gp as gpmod

        real = gpmod.cholesky
        failures = {"left": 2}

        def flaky(a, **kw):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise LinAlgError("synthetic failure")
            return real(a, **kw)

        monkeypatch.setattr(gpmod, "cholesky", flaky)
        rng = np.random.default_rng(5)
        X, y = random_set(rng, 4)
        gp = GaussianProcess(RAW_HP, standardize=False).fit(X, y)
        assert [e["value"] for e in gp.events if e["kind"] == "jitter"] == [1e-8]
        assert gp.posterior_.jitter == 1e-8
        mu, sd = gp.predict(np.array([0.2, 0.2]))
        assert np.isfinite(mu) and np.isfinite(sd) and sd >= 0.0

    def test_factorization_error_after_full_escalation(self, monkeypatch):
        import icpmod.gp as gpmod

        def always_fail(a, **kw):
            raise LinAlgError("synthetic failure")

        monkeypatch.setattr(gpmod, "cholesky", always_fail)
        rng = np.random.default_rng(6)
        X, y = random_set(rng, 3)
        with pytest.raises(LinAlgError):
            GaussianProcess(RAW_HP, standardize=False).fit(X, y)

    def test_degenerate_spread_centers_only(self):
        gp = GaussianProcess().fit([[0.0, 0.0], [1.0, 1.0]], [3.0, 3.0])
        assert gp.posterior_.y_scale == 1.0
        mu, _ = gp.predict(np.array([0.5, 0.5]))
        assert mu == pytest.approx(3.0, abs=1e-9)

    def test_validation(self):
        gp = GaussianProcess()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            gp.fit([[0.0, 0.0]], [np.nan])
        with pytest.raises(ValueError):
            gp.fit([[0.0, 0.0], [1.0, 1.0]], [1.0])
        with pytest.raises(ValueError):
            gp.fit([[0.0, 0.0, 0.0]], [1.0])  # 3-D point, 2 lengthscales
        with pytest.raises(ValueError):
            GpHyperparams(lengthscales=(0.0, 0.2))
        with pytest.raises(ValueError):
            GpHyperparams(noise_var=0.0)
        with pytest.raises(ValueError):
            GaussianProcess(input_bounds=[[1.0, 0.0]])
        gp.fit([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            gp.predict(np.array([[1.0, 2.0, 3.0]]))


class TestDataset:
    def test_append_and_arrays(self):
        data = BoDataset()
        data.append([0.05, 0.5], -3.0)
        data.append(np.array([0.10, 0.8]), -1.5)
        X, y = data.as_arrays()
        assert X.shape == (2, 2) and y.shape == (2,)
        assert data.best_index() == 1
        assert len(data) == 2

    def test_rejects_bad_entries(self):
        data = BoDataset()
        with pytest.raises(ValueError):
            data.append([0.05, np.inf], 1.0)
        with pytest.raises(ValueError):
            data.append([0.05, 0.5], np.nan)
        data.append([0.05, 0.5], 1.0)
        with pytest.raises(ValueError):
            data.append([0.05], 1.0)
        with pytest.raises(ValueError):
            BoDataset().best_index()

    def test_fit_dataset_roundtrip(self):
        data = BoDataset()
        rng = np.random.default_rng(2)
        for _ in range(5):
            data.append(rng.uniform(size=2), float(rng.normal()))
        gp = GaussianProcess(RAW_HP, standardize=False).fit_dataset(data)
        X, y = data.as_arrays()
        mu, _ = gp.predict(X)
        mu_o, _ = dense_gp_posterior(X, y, X, RAW_HP.lengthscales,
                                     RAW_HP.signal_var, RAW_HP.noise_var)
        np.testing.assert_allclose(mu, mu_o, atol=1e-10, rtol=0)
