"""Dense convex QP solver for the MPC layer.

    minimize    0.5 z'Hz + g'z + c
    subject to  lo <= G z <= hi

H and G are the constant part of a family of problems (all QPs of one MPC
controller): `QpMatrices` checks them once and takes the one factorization
the method needs. A `QpProblem` adds the data that changes from solve to
solve (g, lo, hi, c) and checks only that, in one pass unless it fails.

Structure read off H and G once:
- a row of G that is +-1 times a unit vector e_j is a bound on z_j (a bound
  row); every other row is a general row;
- a variable whose row of H has no off-diagonal entry and a positive
  diagonal is separable (the MPC's slacks), the others are coupled (its
  inputs). The coupled block of H is Cholesky-factored once. If it is
  singular (zero curvature, e.g. MpcConfig(rho=0)), H_cc + delta I is
  factored instead.

One method solves every problem: the dual active-set method of Goldfarb &
Idnani (1983), hot-started from the active set that the signs of a previous
dual vector imply (y0_i < 0: row i at its lower bound, y0_i > 0: at its
upper bound; equality rows are always in the set; a guess whose rows are
linearly dependent is replaced by the equality rows). Every working set is
solved on the fixed factor:
- an active bound row fixes its variable at the bound and removes it from
  the problem, separable or coupled. A set that fixes coupled variables
  solves on the Cholesky factor of the coupled block left free (taken from
  H_cc + delta I when that was regularized) and moves the free variables'
  gradient by the coupling columns of H times the fixed values; a fixed
  variable's multiplier is read off its row of H;
- active general rows enter through their Schur complement S = N P N'
  (Bartlett & Biegler 2006, QPSchur), where P is the inverse Hessian of
  the variables left free. S has one row per such active row.
With only separable bounds active (the MPC's slacks at 0) a solve is two
triangular solves on the coupled block. A held bound is met exactly, so a
solve is refined against H only when it holds general rows (one step) or
the factor is regularized (two steps). An add step takes one solve P n_q
for row q: it gives the direction, and the curvature of q on the set is
-n_q'dz (on the free variables alone, n_q'P n_q).

The pieces of a working set that do not depend on the bounds (the fixed
variables, the free coupled block's factor and the coupling columns, the
Schur rows and the Cholesky factor of S) are memoized on the QpMatrices,
keyed by the ordered, signed set, for the _MEMO_SIZE sets used last; only
the held values and the Schur rows' bounds are read from each problem. A
receding-horizon caller whose active set did not change gets the exact
optimum from the first solve without building anything but those values,
and a changed set is repaired by adding or dropping one row per step. The
method terminates in finitely many steps in exact arithmetic and is a
deterministic function of the problem data and y0, so repeated solves are
bit-identical, and a memo hit gives the bits a miss gives.

`iterations` counts working-set changes after the first solve: rows the hot
start drops for a wrong-signed multiplier, rows a partial step drops and
rows a full step adds. A hot start from an optimal set reports 0.

Statuses:
- "optimal": the result passes the residual test below and the multiplier
  signs are right;
- "infeasible": no step of the method can meet a violated row, which
  certifies that the rows cannot all hold;
- "failed": the equality rows are linearly dependent, a working set broke
  down numerically, the 4 (n + m) step cap was reached, or the final result
  failed the residual test (e.g. with tol = 0).

Termination reports unscaled residuals: primal = max box violation of G z,
dual = || H z + g + G' y ||_inf.  The tests are relative: each residual is
compared against tol * (1 + magnitude of the terms entering it), so badly
scaled objectives (e.g. large linear penalty terms) terminate correctly.
The dual vector y has one entry per row of G, with y_i < 0 on active lower
bounds and y_i > 0 on active upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

_DELTA = 1e-9       # regularization of a singular coupled block, relative
                    # to its largest diagonal entry (if above 1)
# Float error leaves an exactly singular matrix pivots of up to ~1e-12 of
# their diagonal entries. A coupled block with a pivot below _SINGULAR is
# regularized; a row whose curvature on the working set is below
# _DEPENDENT of its curvature on the free variables depends on the set's
# rows. The second is smaller because on a regularized block the free
# curvature of a row is of order 1/delta.
_SINGULAR = 1e-10
_DEPENDENT = 1e-12
# Working sets each QpMatrices remembers: an MPC controller meets one or two
# sets on almost every step (its first solve starts from the slack rows), and
# a cold start passes through one set per working-set change.
_MEMO_SIZE = 8


def _cholesky(A: np.ndarray, floor: float):
    """Lower Cholesky factor of A, or None if a pivot squared (the part of
    its diagonal entry that the rows before it leave) is at or below floor
    times that entry."""
    L, info = dpotrf(A, lower=1)
    if info or not np.all(np.diag(L) ** 2 > floor * np.diag(A)):
        return None
    return L


class QpMatrices:
    """H and G of a family of QPs, checked, classified and factored once.

    H must be symmetric positive semidefinite and both must be finite. The
    arrays are kept read-only, because every problem built on them shares
    them.
    """

    def __init__(self, H, G):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        n = H.shape[0]
        G = np.array(G, dtype=float)
        if G.ndim == 1:
            G = G.reshape(1, -1) if G.size else G.reshape(0, n)
        if H.shape != (n, n):
            raise ValueError(f"H must be square, got {H.shape}")
        if G.ndim != 2 or G.shape[1] != n:
            raise ValueError(f"G must have {n} columns, got {G.shape}")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(G))):
            raise ValueError("H and G must be finite")
        if not np.allclose(H, H.T, atol=1e-10, rtol=0.0):
            raise ValueError("H must be symmetric")
        H = 0.5 * (H + H.T)
        m = G.shape[0]

        nonzero = G != 0.0
        col = np.argmax(nonzero, axis=1)
        pivot = G[np.arange(m), col]
        bound = (nonzero.sum(axis=1) == 1) & (np.abs(pivot) == 1.0)
        self.var = np.where(bound, col, -1)      # variable of a bound row
        self.unit = np.where(bound, pivot, 0.0)  # its sign in G

        diag = np.diag(H).copy()
        self.sep = (np.count_nonzero(H, axis=1) == 1) & (diag > 0.0)
        self.d = np.where(self.sep, diag, 1.0)   # separable curvatures
        self.cpl = np.flatnonzero(~self.sep)
        # a variable with several bound rows may hold only one of them
        self.shared_bounds = np.unique(col[bound]).size < np.count_nonzero(bound)
        H_cc = H[np.ix_(self.cpl, self.cpl)]
        self.L = _cholesky(H_cc, _SINGULAR) if self.cpl.size else H_cc
        self.regularized = self.L is None
        if self.regularized:
            delta = _DELTA * max(1.0, float(np.max(np.diag(H_cc))))
            H_cc = H_cc + delta * np.eye(self.cpl.size)
            self.L = _cholesky(H_cc, 0.0)
            if self.L is None:
                raise ValueError("H must be positive semidefinite")
        self.H_cc = H_cc                # the block L factors
        self.row_norm = np.maximum(np.linalg.norm(G, axis=1), 1e-300)

        H.flags.writeable = False
        G.flags.writeable = False
        self.H, self.G = H, G
        self.n, self.m = n, m
        self._sets: dict = {}           # working-set memo, least recent first

    def working_set(self, key, side: np.ndarray, order) -> "_SetData":
        """The bound-independent pieces of the working set that `key` names
        (see `_WorkingSet`), built from `side` and `order` on a miss. Keeps
        the _MEMO_SIZE sets used last; a hit returns the very object a miss
        built, so it gives the same bits."""
        sets = self._sets
        data = sets.pop(key, None)
        if data is None:
            data = _SetData(self, side, order)
            if len(sets) >= _MEMO_SIZE:
                del sets[next(iter(sets))]
        sets[key] = data
        return data


class QpProblem:
    """One QP: shared matrices plus this problem's g, lo, hi and c.

    `QpProblem(H=…, g=…, G=…, lo=…, hi=…, c=…)` checks and factors H and G
    for this problem alone; `QpProblem.on(mats, g, lo, hi, c)` reuses the
    matrices of a family. Either way g must be finite, the bounds may be
    +-inf but not NaN, and lo <= hi.
    """

    def __init__(self, H, g, G, lo, hi, c: float = 0.0):
        self._set(QpMatrices(H, G), g, lo, hi, c)

    @classmethod
    def on(cls, mats: QpMatrices, g, lo, hi, c: float = 0.0) -> "QpProblem":
        p = cls.__new__(cls)
        p._set(mats, g, lo, hi, c)
        return p

    def _set(self, mats, g, lo, hi, c):
        self.mats = mats
        self.g = np.atleast_1d(np.asarray(g, dtype=float))
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        self.c = float(c)
        if self.g.shape != (mats.n,):
            raise ValueError(f"g must have {mats.n} entries, got {self.g.shape}")
        if self.lo.shape != (mats.m,) or self.hi.shape != (mats.m,):
            raise ValueError("lo and hi must match the number of constraint rows")
        # one pass on the common path: a NaN bound also fails lo <= hi
        if np.isfinite(self.g).all() and (self.lo <= self.hi).all():
            return
        if not np.isfinite(self.g).all():
            raise ValueError("g must be finite")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("bounds must not be NaN")
        raise ValueError("need lo <= hi elementwise")

    @property
    def H(self) -> np.ndarray:
        return self.mats.H

    @property
    def G(self) -> np.ndarray:
        return self.mats.G

    @property
    def n(self) -> int:
        return self.mats.n

    @property
    def m(self) -> int:
        return self.mats.m


@dataclass
class QpSolution:
    z: np.ndarray
    objective: float
    status: str                  # "optimal" | "infeasible" | "failed"
    iterations: int              # working-set changes after the first solve
    primal_residual: float
    dual_residual: float
    y: np.ndarray


def _guess_active(p: QpProblem, eq: np.ndarray, any_eq: bool,
                  y0: np.ndarray | None) -> np.ndarray:
    """Working set implied by the signs of y0, as a side per row: +1 upper
    bound, -1 lower bound, 0 not in the set.

    Equality rows are always in the set as upper rows. A variable keeps at
    most one bound row in the set, an equality row first.
    """
    if y0 is None:
        side = eq.astype(float)
    else:
        y0 = np.asarray(y0, dtype=float)
        # Relative activity threshold: float dust (~1e-16 of the dual scale)
        # on inactive rows must not enter the active set. A row whose
        # selected bound is infinite cannot be active either.
        thresh = 1e-14 * float(np.abs(y0).max(initial=0.0))
        low = (y0 < -thresh) & (p.lo > -np.inf)
        up = (y0 > thresh) & (p.hi < np.inf)
        if any_eq:
            low &= ~eq
            up |= eq
        side = np.subtract(up, low, dtype=float)
    if p.mats.shared_bounds:
        var = p.mats.var
        rows = np.flatnonzero(side * (var >= 0))
        rows = rows[np.argsort(~eq[rows], kind="stable")]
        _, first = np.unique(var[rows], return_index=True)
        side[np.setdiff1d(rows, rows[first])] = 0.0
    return side


class _SetData:
    """The pieces of a working set that the matrices and the ordered, signed
    rows alone determine; `QpMatrices.working_set` memoizes them.

    Bound rows fix their variables (`elim` rows, `evar` variables, `eunit`
    their signed units, `d_e` their entries of `QpMatrices.d`); the other
    rows are Schur rows (`rows`, signed normals `N`, `R` the Cholesky factor
    of S = N P N', None if they are linearly dependent). `kc` says which
    fixed variables are coupled (`vc`) and `Hc` holds their columns of H.
    `L` factors the coupled block left free (`cf`): the controller's factor
    when no coupled variable is fixed, else its own, taken from the
    regularized block if H's is. `held` lists the set's rows in index order.
    `pick_e` and `pick_b` say where each held row's bound sits in [hi, -lo].
    """

    def __init__(self, M: QpMatrices, side: np.ndarray, order):
        # Rows in the order they entered (index order if `order` is None),
        # so a row that joins is factored after the rows it was tested
        # against.
        act = (np.flatnonzero(side) if order is None
               else np.asarray(order, dtype=np.intp))
        self.held = np.sort(act)
        bnd = M.var[act] >= 0
        lower = side[act] < 0.0
        self.elim = elim = act[bnd]
        self.evar = M.var[elim]
        self.eunit = side[elim] * M.unit[elim]
        self.d_e = M.d[self.evar]
        self.free = M.sep.copy()
        self.free[self.evar] = False
        self.pick_e = elim + M.m * lower[bnd]
        self.rows = rows = act[~bnd]
        self.pick_b = rows + M.m * lower[~bnd]
        self.kc = np.flatnonzero(~M.sep[self.evar])
        self.vc = self.evar[self.kc]
        self.Hc = M.H[:, self.vc]
        self.cf, self.L = M.cpl, M.L
        self.R = None
        self.ok = True
        if self.kc.size:
            keep = ~np.isin(M.cpl, self.vc)
            self.cf = M.cpl[keep]
            if self.cf.size:
                self.L = _cholesky(M.H_cc[np.ix_(keep, keep)], 0.0)
                self.ok = self.L is not None
        if rows.size and self.ok:
            self.N = side[rows][:, None] * M.G[rows]
            N_c, N_f = self.N[:, self.cf], self.N[:, self.free]
            S = N_c @ self.csolve(N_c.T) + (N_f / M.d[self.free]) @ N_f.T
            # a pivot of S is the curvature its row keeps on the rows before
            # it, so this is the test a row must pass to join
            self.R = _cholesky(S, _DEPENDENT)
            self.ok = self.R is not None

    def csolve(self, b: np.ndarray) -> np.ndarray:
        """b solved against the free coupled block, b of shape (n_cf,) or
        (n_cf, k)."""
        return dpotrs(self.L, b, lower=1)[0] if self.cf.size else b


class _WorkingSet:
    """The rows held at a bound, and solves with them held.

    Each row i of the set is kept as the signed normal n_i = side_i G_i with
    bound b_i (hi_i for an upper row, -lo_i for a lower one), so it reads
    n_i'z = b_i, and its multiplier lam_i >= 0 unless it is an equality.

    `key` names the ordered, signed set for the memo: the bytes of `side`
    for a guessed set (its rows in index order), and (key of the set it
    came from, row, side) after each change.
    """

    def __init__(self, M: QpMatrices, side: np.ndarray, bounds: np.ndarray):
        self.M = M
        self.side = side
        self.bounds = bounds           # the problem's [hi, -lo]
        self.order = None              # index order until the first change
        self.key = side.tobytes()
        self.ok = self.update()

    def update(self) -> bool:
        """Look the set's pieces up and take its bounds from the problem;
        False if its rows are linearly dependent."""
        M = self.M
        s = self.s = M.working_set(self.key, self.side, self.order)
        self.vals = np.zeros(M.n)
        self.vals[s.evar] = self.bounds[s.pick_e] * s.eunit
        # a held solve moves the free variables' gradient by H_{free,fixed}
        # times the fixed coupled values
        self.coupling = s.Hc @ self.vals[s.vc] if s.kc.size else None
        if s.rows.size:
            self.b = self.bounds[s.pick_b]
        return s.ok

    def pinv(self, v: np.ndarray) -> np.ndarray:
        """P v: the inverse Hessian of the free variables applied to v, zero
        on the variables the set fixes."""
        s = self.s
        out = np.where(s.free, v / self.M.d, 0.0)
        out[s.cf] = s.csolve(v[s.cf])
        return out

    def solve(self, gv: np.ndarray):
        """(z, lam): the minimizer of 0.5 z'Hz + gv'z with the set held at
        its bounds, and the multipliers of all m rows (zero off the set)."""
        rhs = gv if self.coupling is None else gv + self.coupling
        return self._hold(self.vals - self.pinv(rhs), gv, True)

    def direction(self, n: np.ndarray):
        """(dz, dlam, curvature of n on the set's rows, on the free
        variables alone): how z and lam move as the multiplier of a row
        with normal n grows, the set held at zero. The first curvature is
        the pivot the row would add to the Cholesky factor of S, so it is
        the quantity `_SetData` tests. A full step solves z again on the
        new set, so a direction's float error does not reach the answer."""
        pn = self.pinv(n)
        dz, dlam = self._hold(-pn, n, False)
        return dz, dlam, -float(n @ dz), float(n @ pn)

    def _hold(self, z: np.ndarray, gv: np.ndarray, held: bool):
        """Complete a solve whose z is right with only the bound rows held:
        hold the Schur rows (at their bounds if `held`, else at zero), refine
        a held solve where that is needed, and take the multipliers."""
        M, s = self.M, self.s
        lam = np.zeros(M.m)
        grad = gv                      # gv + N' nu
        # Refinement against the unregularized H, the fixed variables held
        # (a fixed variable sits exactly at its bound, so a set of bound
        # rows alone needs none): two steps on a regularized factor, and one
        # whenever Schur rows are held, because S = N P N' is as
        # ill-conditioned as H_cc and an unrefined solve leaves held rows
        # off their bounds by ~1e-9 in the MPC's saturated transients.
        refine = (2 if M.regularized else 1) if held else 0
        if s.rows.size:
            N, R = s.N, s.R
            b = self.b if held else 0.0
            nu = dpotrs(R, N @ z - b, lower=1)[0]
            z = z - self.pinv(N.T @ nu)
            for _ in range(refine):
                corr = self.pinv(M.H @ z + gv + N.T @ nu)
                dnu = dpotrs(R, N @ (z - corr) - b, lower=1)[0]
                z = z - corr - self.pinv(N.T @ dnu)
                nu = nu + dnu
            lam[s.rows] = nu
            grad = gv + N.T @ nu
        else:
            for _ in range(refine if M.regularized else 0):
                z = z - self.pinv(M.H @ z + gv)
        # a fixed variable's bound row balances its gradient: d_j z_j on a
        # separable variable, its row of H on a coupled one
        j = s.evar
        hz = s.d_e * z[j]
        if s.kc.size:
            hz[s.kc] = z @ s.Hc
        lam[s.elim] = -(hz + grad[j]) * s.eunit
        return z, lam

    def change(self, i: int, side: float) -> bool:
        """Add row i to the set on `side`, or drop it (side 0)."""
        if self.order is None:
            self.order = self.s.held.tolist()
        self.side[i] = side
        if side:
            self.order.append(i)
        else:
            self.order.remove(i)
        self.key = (self.key, i, side)
        self.ok = self.update()
        return self.ok


def _sign_slack(lam: np.ndarray) -> float:
    return 1e-9 * (1.0 + float(np.abs(lam).max(initial=0.0)))


def solve_qp(p: QpProblem, tol: float = 1e-8,
             y0: np.ndarray | None = None) -> QpSolution:
    """Solve the QP by the dual active-set method, hot-started from the
    active set implied by the signs of y0 (the equality rows alone if y0 is
    None).

    The invariant is that z minimizes the objective with the working set
    held at its bounds and lam is dual feasible. The hot start enforces it
    by dropping the most negative multiplier until none is left (up to a
    slack of 1e-9 relative to the largest multiplier); when y0 came from
    the solution of a problem with the same active set, its first solve is
    the answer and `iterations` is 0. Each step then takes the most violated
    row q (by distance to its bound) and raises its multiplier until either
    the row is met (it joins the set) or a working multiplier reaches zero
    (that row leaves). A row q that depends on the set's rows has no
    curvature on it; it can only be met after a row leaves.
    """
    M, G = p.mats, p.mats.G
    eq = p.lo == p.hi
    any_eq = bool(eq.any())
    bounds = np.concatenate((p.hi, -p.lo))
    ws = _WorkingSet(M, _guess_active(p, eq, any_eq, y0), bounds)
    if not ws.ok:                    # a dependent guess: start from the equalities
        ws = _WorkingSet(M, _guess_active(p, eq, any_eq, None), bounds)
    max_steps = 4 * (M.n + M.m)

    def ineq(lam):
        # lam is zero off the set, so a sign test over all inequality rows
        # is a test over the set's
        return np.where(eq, np.inf, lam) if any_eq else lam

    z, lam = np.zeros(M.n), np.zeros(M.m)
    status = None if ws.ok else "failed"
    steps = 0
    slack = None                     # the sign slack of the current lam
    while status is None:            # dual-feasible hot start
        z, lam = ws.solve(p.g)
        slack = _sign_slack(lam)
        cand = ineq(lam)
        if float(cand.min(initial=np.inf)) >= -slack:
            break
        steps += 1
        if not ws.change(int(np.argmin(cand)), 0.0):
            status = "failed"

    while status is None:
        gz = G @ z
        viol = np.maximum(gz - p.hi, p.lo - gz)
        r_prim = float(viol.max(initial=0.0))
        if r_prim <= tol or r_prim <= tol * (1.0 + max(
                float(np.abs(gz).max(initial=0.0)),
                float(np.abs(np.clip(gz, p.lo, p.hi)).max(initial=0.0)))):
            break
        q = int(np.argmax(viol / M.row_norm))
        if ws.side[q]:               # a held row drifted: numerical breakdown
            status = "failed"
            break
        s_q = 1.0 if gz[q] - p.hi[q] >= p.lo[q] - gz[q] else -1.0
        n_q = s_q * G[q]
        b_q = p.hi[q] if s_q > 0 else -p.lo[q]
        slack = None
        while True:                  # raise lam_q until row q is met
            steps += 1
            if steps > max_steps:
                status = "failed"
                break
            dz, dlam, curv, free_curv = ws.direction(n_q)
            t_full = (float(n_q @ z - b_q) / curv
                      if curv > _DEPENDENT * free_curv else np.inf)
            h = ws.s.held
            dl = dlam[h]
            blocking = dl < 0.0
            if any_eq:
                blocking &= ~eq[h]
            ratios = np.where(blocking, np.maximum(lam[h], 0.0)
                              / np.where(blocking, -dl, 1.0), np.inf)
            t_part = float(ratios.min(initial=np.inf))
            if not np.isfinite(min(t_full, t_part)):
                status = "infeasible"  # no step meets row q
                break
            if t_full <= t_part:
                if not ws.change(q, s_q):
                    status = "failed"
                    break
                z, lam = ws.solve(p.g)  # re-solved to hold the set exactly
                break
            j = int(h[np.argmin(ratios)])
            z = z + t_part * dz
            lam = lam + t_part * dlam
            lam[j] = 0.0
            if not ws.change(j, 0.0):
                status = "failed"
                break

    y = ws.side * lam
    hz, gty = M.H @ z, G.T @ y
    r_dual = float(np.abs(hz + p.g + gty).max(initial=0.0))
    if status is None:
        dual_ok = r_dual <= tol or r_dual <= tol * (1.0 + max(
            float(np.abs(hz).max(initial=0.0)),
            float(np.abs(gty).max(initial=0.0)),
            float(np.abs(p.g).max(initial=0.0))))
        if slack is None:
            slack = _sign_slack(lam)
        signs_ok = float(ineq(lam).min(initial=np.inf)) >= -slack
        status = "optimal" if signs_ok and dual_ok else "failed"
    else:
        gz = G @ z
        r_prim = float(np.abs(gz - np.clip(gz, p.lo, p.hi)).max(initial=0.0))
    return QpSolution(z=z, objective=0.5 * float(z @ hz) + float(p.g @ z) + p.c,
                      status=status, iterations=steps, primal_residual=r_prim,
                      dual_residual=r_dual, y=y)
