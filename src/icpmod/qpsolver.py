"""Dense strictly-convex QP solver for the MPC layer.

    minimize    0.5 z'Hz + g'z + c
    subject to  lo <= G z <= hi

One method solves every problem: the dual active-set method of Goldfarb &
Idnani (1983), hot-started from the active set that the signs of a previous
dual vector imply (y0_i < 0: row i at its lower bound, y0_i > 0: at its
upper bound; equality rows are always in the set). Every result is the
solution of a KKT system of a working set, so a receding-horizon caller
whose active set did not change gets the exact optimum from one KKT solve,
and a changed set is repaired by adding or dropping one row per step. The
method terminates in finitely many steps in exact arithmetic. It is a
deterministic function of the problem data and y0, so repeated solves are
bit-identical.

Statuses:
- "optimal": the result passes the residual test below and the multiplier
  signs are right;
- "infeasible": no step of the method can meet a violated row, which
  certifies that the rows cannot all hold;
- "failed": a KKT system broke down, the 4 (n + m) step cap was reached, or
  the final result failed the residual test (e.g. with tol = 0).

Termination reports unscaled residuals: primal = max box violation of G z,
dual = || H z + g + G' y ||_inf.  The tests are relative: each residual is
compared against tol * (1 + magnitude of the terms entering it), so badly
scaled objectives (e.g. large linear penalty terms) terminate correctly.
The dual vector y follows the convention y_i < 0 on active lower bounds,
y_i > 0 on active upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

_DELTA = 1e-9      # KKT regularization


@dataclass
class QpProblem:
    """Problem data; H must be symmetric, bounds may be +-inf but lo <= hi."""

    H: np.ndarray
    g: np.ndarray
    G: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.g = np.atleast_1d(np.asarray(self.g, dtype=float))
        self.G = np.asarray(self.G, dtype=float)
        if self.G.ndim == 1:
            self.G = self.G.reshape(1, -1) if self.G.size else self.G.reshape(0, self.g.size)
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        n = self.g.size
        m = self.G.shape[0]
        if self.H.shape != (n, n):
            raise ValueError(f"H must be ({n}, {n}), got {self.H.shape}")
        if self.G.shape != (m, n):
            raise ValueError(f"G must have {n} columns, got {self.G.shape}")
        if self.lo.shape != (m,) or self.hi.shape != (m,):
            raise ValueError("lo and hi must match the number of constraint rows")
        if not np.allclose(self.H, self.H.T, atol=1e-10, rtol=0.0):
            raise ValueError("H must be symmetric")
        if not (np.all(np.isfinite(self.H)) and np.all(np.isfinite(self.g))
                and np.all(np.isfinite(self.G))):
            raise ValueError("H, g, G must be finite")
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("need lo <= hi elementwise")
        self.H = 0.5 * (self.H + self.H.T)

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def m(self) -> int:
        return self.G.shape[0]

    def objective(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.H @ z + self.g @ z + self.c)


@dataclass
class QpSolution:
    z: np.ndarray
    objective: float
    status: str                  # "optimal" | "infeasible" | "failed"
    iterations: int              # active-set steps after the first KKT solve
    primal_residual: float
    dual_residual: float
    y: np.ndarray


def _guess_active(p: QpProblem, y0: np.ndarray | None):
    """Active set implied by the signs of y0: (low, up, eq) row masks.

    Equality rows are always in the set and counted as upper rows.
    """
    eq = p.lo == p.hi
    y0 = np.zeros(p.m) if y0 is None else np.asarray(y0, dtype=float)
    # Relative activity threshold: float dust (~1e-16 of the dual scale) on
    # inactive rows must not enter the active set. A row whose selected
    # bound is infinite cannot be active either.
    thresh = 1e-14 * float(np.max(np.abs(y0), initial=0.0))
    low = (y0 < -thresh) & np.isfinite(p.lo)
    up = (y0 > thresh) & np.isfinite(p.hi)
    return low & ~eq, up | eq, eq


def _kkt_solve(H: np.ndarray, A: np.ndarray, top: np.ndarray,
               bot: np.ndarray):
    """Solve [H A'; A 0] [z; nu] = [top; bot] through the regularized matrix
    [H + delta I, A'; A, -delta I] (so a singular H or dependent rows still
    factor) with two refinement steps against the unregularized one. The
    regularized matrix is LU-factored once, by the LAPACK routines that
    scipy's lu_factor/lu_solve wrap: called directly, getrf reports a
    singular matrix by its return code (lu_factor only warns), and the
    wrappers' per-call overhead is saved.

    Returns (z, nu), or None if the regularized matrix is singular or the
    solution is not finite.
    """
    n, na = H.shape[0], A.shape[0]
    K = np.zeros((n + na, n + na))
    K[:n, :n] = H + _DELTA * np.eye(n)
    K[:n, n:] = A.T
    K[n:, :n] = A
    K[n:, n:] = -_DELTA * np.eye(na)
    lu, piv, info = dgetrf(K)
    if info != 0:
        return None
    rhs = np.concatenate([top, bot])
    sol = dgetrs(lu, piv, rhs)[0]
    for _ in range(2):
        res = rhs - np.concatenate([H @ sol[:n] + A.T @ sol[n:], A @ sol[:n]])
        sol = sol + dgetrs(lu, piv, res)[0]
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:n], sol[n:]


def solve_qp(p: QpProblem, tol: float = 1e-8,
             y0: np.ndarray | None = None) -> QpSolution:
    """Solve the QP by the dual active-set method, hot-started from the
    active set implied by the signs of y0 (the empty set if y0 is None).

    Each working-set row j is kept as a signed normal a_j'z <= b_j (an upper
    row as G_i z <= hi_i, a lower row as -G_i z <= -lo_i) with multiplier
    lam_j >= 0; equality rows keep a free multiplier and never leave. The
    invariant is that z minimizes the objective with the working set held at
    its bounds and lam is dual feasible. The hot start enforces it by
    dropping the most negative multiplier until none is left (up to a slack
    of 1e-9 relative to the largest multiplier); when y0 came
    from the solution of a problem with the same active set, its first KKT
    solve is the answer and `iterations` is 0. Each step then takes the most
    violated row (by distance to its bound) and raises its multiplier until
    either the row is met (it joins the set) or a working multiplier reaches
    zero (that row leaves).
    """
    G = p.G
    low, up, eq = _guess_active(p, y0)
    rows = list(np.flatnonzero(low | up))
    sides = [1.0 if up[i] else -1.0 for i in rows]
    max_steps = 4 * (p.n + p.m)
    row_norm = None

    def normals():
        s = np.asarray(sides)
        return G[rows] * s[:, None], np.where(s > 0, p.hi[rows], -p.lo[rows])

    def minimize_on_set():
        # (z, lam) minimizing with the working set at its bounds, or None
        A, b = normals()
        return _kkt_solve(p.H, A, -p.g, b)

    def sign_slack(lam):
        return 1e-9 * (1.0 + float(np.max(np.abs(lam), initial=0.0)))

    z, lam = np.zeros(p.n), np.zeros(len(rows))
    status = None
    steps = 0
    while True:                      # dual-feasible hot start
        sol = minimize_on_set()
        if sol is None:
            status = "failed"
            break
        z, lam = sol
        cand = np.where(eq[rows], np.inf, lam)
        if float(np.min(cand, initial=np.inf)) >= -sign_slack(lam):
            break
        j = int(np.argmin(cand))
        del rows[j], sides[j]
        lam = np.delete(lam, j)
        steps += 1

    while status is None:
        gz = G @ z
        viol_hi = gz - p.hi
        viol_lo = p.lo - gz
        viol = np.maximum(viol_hi, viol_lo)
        r_prim = float(np.max(viol, initial=0.0))
        sc_prim = 1.0 + max(float(np.max(np.abs(gz), initial=0.0)),
                            float(np.max(np.abs(np.clip(gz, p.lo, p.hi)),
                                         initial=0.0)))
        if r_prim <= tol * sc_prim:
            break
        if row_norm is None:
            row_norm = np.maximum(np.linalg.norm(G, axis=1), 1e-300)
        q = int(np.argmax(viol / row_norm))
        if q in rows:                # a held row drifted: numerical breakdown
            status = "failed"
            break
        s_q = 1.0 if viol_hi[q] >= viol_lo[q] else -1.0
        a_q = s_q * G[q]
        b_q = p.hi[q] if s_q > 0 else -p.lo[q]
        flat = 10.0 * _DELTA * float(a_q @ a_q)
        while True:                  # raise lam_q until row q is met
            steps += 1
            if steps > max_steps:
                status = "failed"
                break
            sol = _kkt_solve(p.H, normals()[0], -a_q, np.zeros(len(rows)))
            if sol is None:
                status = "failed"
                break
            dz, dlam = sol
            # The regularization leaves curvature of about delta on a row
            # that depends on the working set; such a row is flat.
            curv = -float(a_q @ dz)
            t_full = float(a_q @ z - b_q) / curv if curv > flat else np.inf
            blocking = ~eq[rows] & (dlam < 0.0)
            ratios = np.where(blocking, np.maximum(lam, 0.0)
                              / np.where(blocking, -dlam, 1.0), np.inf)
            t_part = float(np.min(ratios, initial=np.inf))
            if not np.isfinite(min(t_full, t_part)):
                status = "infeasible"  # no step meets row q
                break
            if t_full <= t_part:
                z = z + t_full * dz
                lam = np.append(lam + t_full * dlam, t_full)
                rows.append(q)
                sides.append(s_q)
                sol = minimize_on_set()   # re-solved to hold the set exactly
                if sol is None:
                    status = "failed"
                    break
                z, lam = sol
                break
            j = int(np.argmin(ratios))
            z = z + t_part * dz
            lam = np.delete(lam + t_part * dlam, j)
            del rows[j], sides[j]

    y = np.zeros(p.m)
    y[rows] = np.asarray(sides) * lam
    hz, gty = p.H @ z, G.T @ y
    r_dual = float(np.max(np.abs(hz + p.g + gty), initial=0.0))
    if status is None:
        sc_dual = 1.0 + max(float(np.max(np.abs(hz), initial=0.0)),
                            float(np.max(np.abs(gty), initial=0.0)),
                            float(np.max(np.abs(p.g), initial=0.0)))
        signs_ok = not np.any(~eq[rows] & (lam < -sign_slack(lam)))
        status = ("optimal" if signs_ok and r_dual <= tol * sc_dual
                  else "failed")
    else:
        gz = G @ z
        r_prim = float(np.max(np.abs(gz - np.clip(gz, p.lo, p.hi)), initial=0.0))
    return QpSolution(z=z, objective=p.objective(z), status=status,
                      iterations=steps, primal_residual=r_prim,
                      dual_residual=r_dual, y=y)
