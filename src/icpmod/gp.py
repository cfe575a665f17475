"""Gaussian-process regression with a squared-exponential kernel.

Supplies the surrogate for the pulse-parameter search: exact posterior
mean and standard deviation over a low-dimensional box, with optional
input and output standardization so one fixed set of hyperparameters
works across cost scales.

Numerical choices, all deliberate:

* When bounds are given, inputs are mapped onto the unit box before the
  kernel sees them; lengthscales are expressed in those units.
* Outputs are standardized to zero mean / unit variance of the current
  data.  The statistics exclude abort penalties (costs at or below
  ``PENALTY_THRESHOLD``), and standardized targets are floored so a
  -1e6 penalty steers the surrogate away from a region without
  flattening the scale of the ordinary observations.
* The Gram factorization escalates diagonal jitter 1e-10 -> 1e-6 on
  failure before giving up; escalations are recorded in ``events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

__all__ = [
    "PENALTY_THRESHOLD",
    "DEFAULT_HYPERPARAMS",
    "GpHyperparams",
    "BoDataset",
    "GpPosterior",
    "GaussianProcess",
]

#: Costs at or below this are treated as abort penalties: excluded from the
#: output standardization statistics and floored after standardization.
PENALTY_THRESHOLD = -1e5

# A value standardized by its own sample statistics cannot lie below
# -(n-1)/sqrt(n), which stays above -5 for n <= 26, so this floor only
# ever binds on penalty entries at the sample sizes used here.
_TARGET_FLOOR = -5.0

_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class GpHyperparams:
    """Squared-exponential kernel parameters.

    `lengthscales` has one entry per input dimension, in standardized
    units when the model maps inputs onto the unit box.  `signal_var`
    and `noise_var` are variances (sigma_f**2, sigma_n**2).
    """

    lengthscales: tuple = (0.2, 0.2)
    signal_var: float = 1.0
    noise_var: float = 0.05**2

    def __post_init__(self):
        ell = tuple(float(l) for l in np.atleast_1d(self.lengthscales))
        object.__setattr__(self, "lengthscales", ell)
        if not ell or not all(np.isfinite(ell)) or min(ell) <= 0.0:
            raise ValueError(f"lengthscales must be positive, got {ell}")
        if not (np.isfinite(self.signal_var) and self.signal_var > 0.0):
            raise ValueError(f"signal_var must be positive, got {self.signal_var}")
        if not (np.isfinite(self.noise_var) and self.noise_var > 0.0):
            raise ValueError(f"noise_var must be positive, got {self.noise_var}")


DEFAULT_HYPERPARAMS = GpHyperparams()


@dataclass
class BoDataset:
    """Evaluated (theta, cost) pairs feeding the surrogate."""

    thetas: list = field(default_factory=list)
    costs: list = field(default_factory=list)

    def append(self, theta, cost: float) -> None:
        theta = np.asarray(theta, dtype=float).ravel()
        cost = float(cost)
        if not (np.all(np.isfinite(theta)) and np.isfinite(cost)):
            raise ValueError("theta and cost must be finite")
        if self.thetas and theta.size != self.thetas[0].size:
            raise ValueError(
                f"theta has {theta.size} components, dataset has "
                f"{self.thetas[0].size}")
        self.thetas.append(theta)
        self.costs.append(cost)

    def __len__(self) -> int:
        return len(self.costs)

    def as_arrays(self):
        """(n, d) inputs and (n,) costs; empty dataset gives (0, 0) x (0,)."""
        if not self.thetas:
            return np.zeros((0, 0)), np.zeros(0)
        return np.stack(self.thetas), np.asarray(self.costs, dtype=float)

    def best_index(self) -> int:
        """Index of the largest observed cost (ties: first)."""
        if not self.costs:
            raise ValueError("empty dataset has no best point")
        return int(np.argmax(self.costs))


@dataclass(frozen=True)
class GpPosterior:
    """Fitted state: standardized training data plus the Gram factorization."""

    x_std: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    factor: tuple
    hyperparams: GpHyperparams
    y_mean: float
    y_scale: float
    jitter: float


class GaussianProcess:
    """Exact GP regression with fixed hyperparameters.

    The hyperparameters are never refit: the search's small evaluation
    budgets rarely support fitting them, and fixed values keep runs
    deterministic.

    ``fit`` factorizes the Gram matrix once; ``predict`` reuses the
    factorization and is safe to call concurrently.  Before any fit,
    ``predict`` returns the prior (mean 0, standard deviation sigma_f).
    """

    def __init__(self, hyperparams: GpHyperparams = DEFAULT_HYPERPARAMS, *,
                 input_bounds=None, standardize: bool = True):
        self.hyperparams = hyperparams
        if input_bounds is None:
            self.input_bounds = None
        else:
            bounds = np.asarray(input_bounds, dtype=float)
            if bounds.ndim != 2 or bounds.shape[1] != 2:
                raise ValueError(f"input_bounds must be (d, 2), got {bounds.shape}")
            if not np.all(bounds[:, 1] > bounds[:, 0]):
                raise ValueError("input_bounds must have hi > lo per dimension")
            self.input_bounds = bounds
        self.standardize = bool(standardize)
        self.posterior_: GpPosterior | None = None
        self.events: list[dict] = []

    # -- fitting ---------------------------------------------------------

    def fit(self, X, y) -> "GaussianProcess":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("X must be a nonempty (n, d) array")
        y = np.asarray(y, dtype=float).ravel()
        if y.size != X.shape[0]:
            raise ValueError(f"{X.shape[0]} inputs but {y.size} targets")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("training data must be finite")
        hp = self.hyperparams
        if len(hp.lengthscales) != X.shape[1]:
            raise ValueError(
                f"{len(hp.lengthscales)} lengthscales for d={X.shape[1]} inputs")

        xs = self._map_inputs(X)
        y_mean, y_scale = self._output_stats(y)
        z = np.maximum((y - y_mean) / y_scale, _TARGET_FLOOR)

        K = self._kernel(xs, xs)
        K[np.diag_indices_from(K)] += hp.noise_var
        factor = None
        for jitter in _JITTERS:
            try:
                factor = cho_factor(K + jitter * np.eye(len(K)), lower=True)
            except LinAlgError:
                continue
            if jitter > 0.0:
                self.events.append({"kind": "jitter", "value": jitter})
            break
        if factor is None:
            raise LinAlgError(
                f"Gram factorization failed for n={len(K)} even at jitter "
                f"{_JITTERS[-1]:g}")
        alpha = cho_solve(factor, z)
        self.posterior_ = GpPosterior(
            x_std=xs, z=z, alpha=alpha, factor=factor, hyperparams=hp,
            y_mean=y_mean, y_scale=y_scale, jitter=jitter)
        return self

    def fit_dataset(self, data: BoDataset) -> "GaussianProcess":
        X, y = data.as_arrays()
        return self.fit(X, y)

    # -- prediction ------------------------------------------------------

    def predict(self, X):
        """Posterior mean and standard deviation at the query points.

        A 1-D query of length d is a single point and returns floats;
        otherwise X is (m, d) and both returns are length-m arrays.
        """
        Xq = np.asarray(X, dtype=float)
        single = Xq.ndim == 1
        if single:
            Xq = Xq[None, :]
        if Xq.ndim != 2:
            raise ValueError(f"query must be (d,) or (m, d), got {Xq.shape}")
        if not np.all(np.isfinite(Xq)):
            raise ValueError("query points must be finite")
        hp = self.hyperparams
        post = self.posterior_
        if post is None:
            mu = np.zeros(len(Xq))
            sd = np.full(len(Xq), np.sqrt(hp.signal_var))
            return (float(mu[0]), float(sd[0])) if single else (mu, sd)
        if Xq.shape[1] != post.x_std.shape[1]:
            raise ValueError(
                f"query dimension {Xq.shape[1]} != data dimension "
                f"{post.x_std.shape[1]}")

        ks = self._kernel(self._map_inputs(Xq), post.x_std)
        mu_z = ks @ post.alpha
        v = cho_solve(post.factor, ks.T)
        var = hp.signal_var - np.einsum("mn,nm->m", ks, v)
        worst = float(var.min(initial=0.0))
        if worst < 0.0:
            self.events.append({"kind": "variance_clamp", "worst": worst})
            var = np.maximum(var, 0.0)
        mu = mu_z * post.y_scale + post.y_mean
        sd = np.sqrt(var) * post.y_scale
        if single:
            return float(mu[0]), float(sd[0])
        return mu, sd

    # -- internals -------------------------------------------------------

    def _map_inputs(self, X: np.ndarray) -> np.ndarray:
        if self.input_bounds is None:
            return np.array(X, dtype=float)
        lo = self.input_bounds[:, 0]
        span = self.input_bounds[:, 1] - lo
        return (X - lo) / span

    def _output_stats(self, y: np.ndarray):
        if not self.standardize:
            return 0.0, 1.0
        clean = y[y > PENALTY_THRESHOLD]
        if clean.size == 0:
            clean = y
        mean = float(np.mean(clean))
        scale = float(np.std(clean))
        if not scale > 1e-8:
            scale = 1.0  # degenerate spread: center only
        return mean, scale

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        ell = np.asarray(self.hyperparams.lengthscales)
        diff = (A[:, None, :] - B[None, :, :]) / ell
        return self.hyperparams.signal_var * np.exp(
            -0.5 * np.sum(diff**2, axis=-1))
