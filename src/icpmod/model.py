"""Discrete-time motor models: 2-state LTI dynamics, disturbance augmentation,
and least-squares identification from logged position/input data.

The state convention everywhere is x = [position (mm), velocity (mm/s)] with
velocity defined as the backward difference of position over one sample.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

# Regression conditioning thresholds for identify_lti.
_COND_WARN = 1e6
_COND_FAIL = 1e10


class IdentificationError(ValueError):
    """Data cannot support a least-squares model fit."""


def _as_matrix(value, shape, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LtiModel:
    """x(k+1) = A x(k) + B u(k) + B_d d(k),  y(k) = C x(k) + C_d d(k).

    Position/velocity model of the actuation motor at a fixed sample time.
    B_d and C_d are the disturbance input/output channels; the defaults
    (B_d = 0, C_d = 1) model a pure additive output disturbance.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    dt: float
    B_d: np.ndarray = field(default=None)  # type: ignore[assignment]
    C_d: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, (2, 2), "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, (2,), "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, (2,), "C"))
        b_d = np.zeros(2) if self.B_d is None else self.B_d
        object.__setattr__(self, "B_d", _as_matrix(b_d, (2,), "B_d"))
        object.__setattr__(self, "C_d", float(self.C_d))
        object.__setattr__(self, "dt", float(self.dt))
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "B_d": self.B_d.tolist(),
            "C_d": self.C_d,
            "dt": self.dt,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LtiModel":
        return cls(A=np.array(d["A"]), B=np.array(d["B"]), C=np.array(d["C"]),
                   dt=d["dt"], B_d=np.array(d["B_d"]), C_d=d["C_d"])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LtiModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class AugmentedModel:
    """Disturbance-augmented model with state [x; d] and an integrating d-row.

    A_a = [[A, B_d], [0, 1]], B_a = [B; 0], C_a = [C, C_d].
    """

    A_a: np.ndarray
    B_a: np.ndarray
    C_a: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "A_a", _as_matrix(self.A_a, (3, 3), "A_a"))
        object.__setattr__(self, "B_a", _as_matrix(self.B_a, (3,), "B_a"))
        object.__setattr__(self, "C_a", _as_matrix(self.C_a, (3,), "C_a"))
        object.__setattr__(self, "dt", float(self.dt))
        if self.A_a[2, 2] != 1.0 or np.any(self.A_a[2, :2] != 0.0):
            raise ValueError("disturbance row of A_a must be [0, 0, 1]")
        if self.B_a[2] != 0.0:
            raise ValueError("input must not drive the disturbance state")


def augment(model: LtiModel) -> AugmentedModel:
    """Append the disturbance as a constant-dynamics extra state."""
    a_aug = np.zeros((3, 3))
    a_aug[:2, :2] = model.A
    a_aug[:2, 2] = model.B_d
    a_aug[2, 2] = 1.0
    b_aug = np.r_[model.B, 0.0]
    c_aug = np.r_[model.C, model.C_d]
    return AugmentedModel(A_a=a_aug, B_a=b_aug, C_a=c_aug, dt=model.dt)


@dataclass(frozen=True)
class Constraints:
    """Box bounds used both as MPC constraints and as safety limits.

    position in mm, velocity in mm/s, input in A.
    """

    position: tuple = (0.0, 2.6)
    velocity: tuple = (-100.0, 100.0)
    input: tuple = (-10.0, 10.0)

    def __post_init__(self):
        for name in ("position", "velocity", "input"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} bounds must satisfy lo < hi, got {lo} >= {hi}")
            object.__setattr__(self, name, (float(lo), float(hi)))


def identify_lti(inputs, outputs, dt, b_d=None, c_d: float = 1.0) -> LtiModel:
    """Fit the 2-state model by one-step least squares on logged data.

    Regresses y(k+1) = a1 y(k) + a2 y(k-1) + b u(k) and realizes the state
    [position, backward-difference velocity].  The input record should be
    persistently exciting; a poorly conditioned regression triggers a warning,
    a rank-deficient one an IdentificationError carrying the condition number.
    """
    u = np.asarray(inputs, dtype=float).ravel()
    y = np.asarray(outputs, dtype=float).ravel()
    if u.shape != y.shape:
        raise IdentificationError(
            f"inputs and outputs must have equal length, got {u.shape} vs {y.shape}")
    n = u.size
    if n < 50:
        raise IdentificationError(f"need at least 50 samples, got {n}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise IdentificationError("data must be finite")
    dt = float(dt)
    if not dt > 0.0:
        raise IdentificationError(f"dt must be positive, got {dt}")

    # Rows k = 1 .. n-2 of y(k+1) = [y(k), y(k-1), u(k)] @ [a1, a2, b].
    phi = np.column_stack([y[1:-1], y[:-2], u[1:-1]])
    target = y[2:]
    sv = np.linalg.svd(phi, compute_uv=False)
    cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
    if not np.isfinite(cond) or cond > _COND_FAIL:
        raise IdentificationError(
            f"regression matrix is rank deficient (condition number {cond:.3e}); "
            "input record is not persistently exciting")
    if cond > _COND_WARN:
        warnings.warn(
            f"identification regression poorly conditioned (condition number {cond:.3e})",
            stacklevel=2)
    a1, a2, b = np.linalg.lstsq(phi, target, rcond=None)[0]

    a_mat = np.array([[a1 + a2, -a2 * dt],
                      [(a1 + a2 - 1.0) / dt, -a2]])
    b_vec = np.array([b, b / dt])
    return LtiModel(A=a_mat, B=b_vec, C=np.array([1.0, 0.0]), dt=dt,
                    B_d=b_d, C_d=c_d)
