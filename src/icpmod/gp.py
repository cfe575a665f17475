"""Gaussian-process regression with a squared-exponential kernel.

Supplies the surrogate for the pulse-parameter search: exact posterior
mean and standard deviation over a low-dimensional box, with optional
input and output standardization so one fixed set of hyperparameters
works across cost scales.

Numerical choices, all deliberate:

* When bounds are given, inputs are mapped onto the unit box before the
  kernel sees them; lengthscales are expressed in those units.
* Outputs are standardized to zero mean / unit variance of the current
  data on every fit.  The statistics exclude abort penalties (costs at
  or below ``PENALTY_THRESHOLD``), and standardized targets are floored
  so a -1e6 penalty steers the surrogate away from a region without
  flattening the scale of the ordinary observations.
* The posterior is kept as the lower Cholesky factor L of the Gram
  matrix (GPML Alg. 2.1).  A search only ever appends points, so when
  the previous inputs are a prefix of the new ones and the previous
  factor carries no jitter, ``fit`` extends L by one row per new point:
  one solve against L (at most 20 rows in a search) and one pivot.  A
  squared pivot that is not finite or not above its own rounding error
  (a duplicated point under tiny noise), and every other case, refactors
  the whole Gram matrix as a fresh fit would, escalating diagonal jitter
  0, 1e-10, 1e-8, 1e-6 on failure before giving up.
* ``predict`` keeps, for the last query set, the rows W = L^-1 K(X, Q)
  and their running column sums of squares, and computes only the rows
  of points added since, by forward substitution: row j is
  (K(x_j, Q) - L[j, :j] W[:j]) / L[j, j], so the search's refit after
  each evaluation costs one product and one division over the grid.
  mu = (L^-1 z)' W and var = sigma_f^2 - sum W^2.  The query set is
  recognised by its contents, so a new or mutated query array, or a
  refactored L, starts the rows from 0.
* Jitter escalations and clamps of negative variances are recorded in
  ``events``, each with the dataset size n at which it happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, cholesky

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
_EPS = float(np.finfo(float).eps)


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
    """Fitted state: standardized training data, the lower Cholesky factor
    `chol` of the (jittered) Gram matrix, zero above the diagonal, and
    `beta` = chol^-1 z."""

    x_std: np.ndarray
    z: np.ndarray
    chol: np.ndarray
    beta: np.ndarray
    hyperparams: GpHyperparams
    y_mean: float
    y_scale: float
    jitter: float


class GaussianProcess:
    """Exact GP regression with fixed hyperparameters.

    The hyperparameters are never refit: the search's small evaluation
    budgets rarely support fitting them, and fixed values keep runs
    deterministic.

    One instance serves a whole search.  ``fit`` extends the previous
    factor when the data only grew; ``predict`` reuses the rows it
    computed for the same query points.  Both update that state, so an
    instance must not be shared between threads.  Before any fit,
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
        # For the last query points _q (a copy; _qs mapped): the rows
        # W[:_w_rows] = chol^-1 K(X, _qs), in a buffer that grows by
        # doubling, and _wsq = sum(W[:_w_rows]**2, axis=0).
        self._q: np.ndarray | None = None
        self._qs = np.zeros((0, 0))
        self._w = np.zeros((0, 0))
        self._w_rows = 0
        self._wsq = np.zeros(0)

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

        post, chol, jitter = self.posterior_, None, 0.0
        if (post is not None and post.jitter == 0.0 and post.hyperparams == hp
                and len(post.x_std) <= len(xs)
                and np.array_equal(post.x_std, xs[:len(post.x_std)])):
            chol = self._extend(post.chol, xs)
        if chol is None:
            chol, jitter = self._factor(xs)
            self._w_rows = 0  # rows of the old factor no longer apply
        beta = np.linalg.solve(chol, z)
        self.posterior_ = GpPosterior(
            x_std=xs, z=z, chol=chol, beta=beta, hyperparams=hp,
            y_mean=y_mean, y_scale=y_scale, jitter=jitter)
        return self

    def fit_dataset(self, data: BoDataset) -> "GaussianProcess":
        X, y = data.as_arrays()
        return self.fit(X, y)

    def _extend(self, chol: np.ndarray, xs: np.ndarray):
        """`chol` grown by one row per point of xs past its size, or None
        when a squared pivot is not finite or not above the rounding error
        of its own computation, (j + 1) eps K_jj: there the whole-matrix
        factorization decides, as it would for a fresh fit."""
        noise = self.hyperparams.noise_var
        for j in range(len(chol), len(xs)):
            k = self._kernel(xs[:j + 1], xs[j:j + 1])[:, 0]
            row = np.linalg.solve(chol, k[:j])
            diag = k[j] + noise
            pivot = diag - row @ row
            if not (j + 1) * _EPS * diag < pivot < np.inf:
                return None
            grown = np.zeros((j + 1, j + 1))
            grown[:j, :j] = chol
            grown[j, :j] = row
            grown[j, j] = np.sqrt(pivot)
            chol = grown
        return chol

    def _factor(self, xs: np.ndarray):
        """Lower Cholesky factor of the whole Gram matrix and its jitter."""
        K = self._kernel(xs, xs)
        K[np.diag_indices_from(K)] += self.hyperparams.noise_var
        for jitter in _JITTERS:
            try:
                chol = cholesky(K + jitter * np.eye(len(K)))
            except LinAlgError:
                continue
            if jitter > 0.0:
                self.events.append({"kind": "jitter", "value": jitter,
                                    "n": len(K)})
            return chol, jitter
        raise LinAlgError(
            f"Gram factorization failed for n={len(K)} even at jitter "
            f"{_JITTERS[-1]:g}")

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

        W = self._rows(Xq, post)
        mu_z = post.beta @ W
        var = hp.signal_var - self._wsq
        worst = float(var.min(initial=0.0))
        if worst < 0.0:
            self.events.append({"kind": "variance_clamp", "worst": worst,
                                "n": len(post.z)})
            var = np.maximum(var, 0.0)
        mu = mu_z * post.y_scale + post.y_mean
        sd = np.sqrt(var) * post.y_scale
        if single:
            return float(mu[0]), float(sd[0])
        return mu, sd

    def _rows(self, Xq: np.ndarray, post: GpPosterior) -> np.ndarray:
        """W = chol^-1 K(X, Xq), computing only the rows not yet held for
        these query points; updates the running sum of squares."""
        if self._q is None or not np.array_equal(self._q, Xq):
            self._q = Xq.copy()
            self._w_rows = 0
        start, n = self._w_rows, len(post.z)
        if start == 0:
            self._qs = self._map_inputs(Xq)
            self._wsq = np.zeros(len(Xq))
        if n > len(self._w) or self._w.shape[1] != len(Xq):
            grown = np.empty((max(n, 2 * start), len(Xq)))
            if start:
                grown[:start] = self._w[:start]
            self._w = grown
        W, L = self._w, post.chol
        if start < n:
            # forward substitution, a row per new point: after each search
            # evaluation that is one division over the grid, where a
            # general solve of the 1 x 1 block takes ~40 us on 4096 columns
            B = self._kernel(post.x_std[start:], self._qs)
            for j in range(start, n):
                W[j] = (B[j - start] - L[j, :j] @ W[:j]) / L[j, j]
            new = W[start:n]
            self._wsq += np.einsum("ij,ij->j", new, new)
            self._w_rows = n
        return W[:n]

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
        # Per-axis squared scaled differences summed in axis order: the
        # sums of an (m, n, d) broadcast reduced over d, without the
        # (m, n, d) temporaries.
        hp = self.hyperparams
        sq = np.zeros((len(A), len(B)))
        for k, ell in enumerate(hp.lengthscales):
            diff = np.subtract.outer(A[:, k], B[:, k])
            diff /= ell
            diff *= diff
            sq += diff
        return hp.signal_var * np.exp(-0.5 * sq)
