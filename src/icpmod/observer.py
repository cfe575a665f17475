"""Luenberger observer on the disturbance-augmented model, plus the
beat-periodic disturbance memory consumed by the MPC preview.

The observer is a one-step predictor: the estimate used by the controller at
step k incorporates measurements through k-1, and the update at step k
produces the estimate for k+1.  The disturbance component of that freshly
corrected estimate is what gets written to the phase-k slot of the memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AugmentedModel

_POLE_TOL = 1e-8


class ObserverDesignError(ValueError):
    """Pole placement impossible or numerically failed."""


def _char_poly_data(A: np.ndarray):
    """Faddeev-LeVerrier recursion: characteristic coefficients c (monic,
    descending) and the matrices N_k with adj(zI - A) = sum z^(n-1-k) N_{k+1}."""
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    N = np.eye(n)
    mats = [N]
    for k in range(1, n + 1):
        AN = A @ mats[-1]
        c_k = -np.trace(AN) / k
        coeffs[k] = c_k
        if k < n:
            mats.append(AN + c_k * np.eye(n))
    return coeffs, mats


def _place_siso(A: np.ndarray, C: np.ndarray, poles) -> np.ndarray:
    """Observer gain L with eig(A - L C) = poles, for a single output."""
    n = A.shape[0]
    poles = np.asarray(poles, dtype=complex)
    if poles.shape != (n,):
        raise ObserverDesignError(f"need exactly {n} poles, got {poles.shape}")
    if np.any(np.abs(poles) >= 1.0):
        raise ObserverDesignError(
            f"poles must be strictly inside the unit circle, got {poles}")
    desired = np.real_if_close(np.poly(poles), tol=1000)
    if np.iscomplexobj(desired) and np.max(np.abs(np.imag(desired))) > 1e-12:
        raise ObserverDesignError(
            "complex poles must come in conjugate pairs")
    desired = np.real(desired)

    obsv = np.vstack([C @ np.linalg.matrix_power(A, i) for i in range(n)])
    sv = np.linalg.svd(obsv, compute_uv=False)
    rank = int(np.sum(sv > sv[0] * n * np.finfo(float).eps * 100))
    if rank < n:
        cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise ObserverDesignError(
            f"pair (A, C) is unobservable: observability rank {rank} < {n} "
            f"(condition number {cond:.3e})")

    def coeff_error(L):
        # Verify on characteristic coefficients: eigenvalues of a matrix with
        # repeated poles (deadbeat) are hypersensitive, the coefficients of
        # det(zI - A + LC) are the quantity the design controls linearly.
        achieved, _ = _char_poly_data(A - np.outer(L, C))
        return float(np.max(np.abs(achieved - desired)))

    # Ackermann: L = q(A) @ obsv^-1 @ e_n.
    qA = np.zeros_like(A)
    for c in desired:
        qA = qA @ A + c * np.eye(n)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    L_ack = qA @ np.linalg.solve(obsv, e_n)
    err_ack = coeff_error(L_ack)
    if err_ack <= 1e-11:
        return L_ack

    # Fallback: the characteristic coefficients of A - L C are exactly linear
    # in L: desired_k - charpoly(A)_k = (C N_k) L.
    coeffs, mats = _char_poly_data(A)
    R = np.vstack([C @ M for M in mats])
    delta = desired[1:] - coeffs[1:]
    L_cc = np.linalg.solve(R, delta)
    err_cc = coeff_error(L_cc)

    L, err = (L_ack, err_ack) if err_ack <= err_cc else (L_cc, err_cc)
    if err > _POLE_TOL:
        raise ObserverDesignError(
            f"pole placement achieved characteristic-coefficient error {err:.3e} "
            f"> {_POLE_TOL:.0e}; the observability matrix is probably too "
            "ill-conditioned")
    return L


@dataclass(frozen=True)
class ObserverGain:
    """Placed gain and the eigenvalues actually achieved."""

    L: np.ndarray
    poles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float))
        object.__setattr__(self, "poles", np.asarray(self.poles))


DEFAULT_OBSERVER_POLES = (0.5, 0.55, 0.8)


def place_observer_poles(aug: AugmentedModel, poles=DEFAULT_OBSERVER_POLES) -> ObserverGain:
    """Place the augmented-observer poles (Schur-stable, exact via Ackermann
    with a characteristic-coefficient fallback)."""
    L = _place_siso(aug.A_a, aug.C_a, poles)
    achieved = np.linalg.eigvals(aug.A_a - np.outer(L, aug.C_a))
    return ObserverGain(L=L, poles=np.sort_complex(achieved))


@dataclass
class ObserverState:
    """Augmented estimate [position, velocity, disturbance]."""

    xhat: np.ndarray

    def __post_init__(self):
        self.xhat = np.asarray(self.xhat, dtype=float).copy()

    @property
    def x(self) -> np.ndarray:
        return self.xhat[:-1]

    @property
    def d(self) -> float:
        return float(self.xhat[-1])


def observer_step(state: ObserverState, gain: ObserverGain, aug: AugmentedModel,
                  u: float, y: float) -> ObserverState:
    """One predictor update: xhat(k+1) = A_a xhat + B_a u + L (y - C_a xhat)."""
    innovation = y - aug.C_a @ state.xhat
    xhat_next = aug.A_a @ state.xhat + aug.B_a * u + gain.L * innovation
    return ObserverState(xhat=xhat_next)


class DisturbanceMemory:
    """Two period-length buffers of per-phase disturbance estimates.

    Writes go to the current buffer; at wraparound the current buffer becomes
    the previous one, which is what the MPC preview reads.  Buffers start at
    zero, so the first period of preview is zero.
    """

    def __init__(self, period: int):
        period = int(period)
        if period < 2:
            raise ValueError(f"period must be at least 2 samples, got {period}")
        self.period = period
        self.current = np.zeros(period)
        self.previous = np.zeros(period)
        self.cursor = 0
        self.periods_completed = 0
        self.last_wrap_diff = np.nan

    def update(self, dhat: float) -> None:
        """Write the post-correction estimate at the current phase and advance."""
        self.current[self.cursor] = dhat
        self.cursor += 1
        if self.cursor == self.period:
            self.last_wrap_diff = float(np.max(np.abs(self.current - self.previous)))
            self.previous[:] = self.current
            self.cursor = 0
            self.periods_completed += 1

    def settled(self, eps: float) -> bool:
        """True iff the last completed period deviates from the one before it
        by at most eps at every phase."""
        if self.periods_completed < 1:
            raise ValueError("settled() queried before one full period was recorded")
        return self.last_wrap_diff <= eps

    def preview(self, phase: int, n: int) -> np.ndarray:
        """Previous-period estimates at phases (phase + i) mod period,
        i = 0..n-1: the value recorded one period before prediction step i."""
        idx = (phase + np.arange(n)) % self.period
        return self.previous[idx]
