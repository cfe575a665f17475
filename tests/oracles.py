"""Brute-force reference implementations used only by the test suite.

These are deliberately naive and independent of the package internals so
that agreement is meaningful.
"""

import itertools

import numpy as np


def brute_force_box_qp(H, g, lo, hi, c=0.0):
    """Global minimum of 0.5 z'Hz + g'z + c over lo <= z <= hi, H positive
    definite, by exhaustive enumeration of the 3^n bound-activity patterns
    (each variable free, at its lower bound, or at its upper bound)."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = g.size
    best_obj = np.inf
    best_z = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pat = np.array(pattern)
        z = np.where(pat == 1, lo, np.where(pat == 2, hi, 0.0))
        free = pat == 0
        if np.any(free):
            rhs = -(g[free] + H[np.ix_(free, ~free)] @ z[~free])
            z[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
        if np.all(z >= lo - 1e-11) and np.all(z <= hi + 1e-11):
            obj = 0.5 * z @ H @ z + g @ z + c
            if obj < best_obj:
                best_obj = obj
                best_z = z
    return best_z, best_obj


def brute_force_qp(H, g, G, lo, hi, c=0.0):
    """Global minimum of 0.5 z'Hz + g'z + c over lo <= Gz <= hi, H positive
    definite, by enumerating the 3^m row-activity patterns (each row free,
    at its lower bound or at its upper bound) and solving the dense KKT
    system of each; patterns whose held rows are dependent are skipped."""
    H, G = np.asarray(H, dtype=float), np.asarray(G, dtype=float)
    g, lo, hi = (np.asarray(a, dtype=float) for a in (g, lo, hi))
    n, m = g.size, len(lo)
    best_obj, best_z = np.inf, None
    for pattern in itertools.product((0, 1, 2), repeat=m):
        pat = np.array(pattern, dtype=int)
        held = np.flatnonzero(pat)
        b = np.where(pat[held] == 1, lo[held], hi[held])
        if not np.all(np.isfinite(b)):
            continue
        k = held.size
        K = np.block([[H, G[held].T], [G[held], np.zeros((k, k))]])
        try:
            z = np.linalg.solve(K, np.concatenate([-g, b]))[:n]
        except np.linalg.LinAlgError:
            continue
        gz = G @ z
        if np.all(gz >= lo - 1e-9) and np.all(gz <= hi + 1e-9):
            obj = 0.5 * z @ H @ z + g @ z + c
            if obj < best_obj:
                best_obj, best_z = obj, z
    return best_z, best_obj


def dense_gp_posterior(X, y, Xq, lengthscales, signal_var, noise_var):
    """GP posterior mean/std by the textbook dense formulas with an explicit
    matrix inverse.  Squared-exponential ARD kernel."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    y = np.asarray(y, dtype=float)
    ell = np.asarray(lengthscales, dtype=float)

    def kern(A, B):
        diff = (A[:, None, :] - B[None, :, :]) / ell
        return signal_var * np.exp(-0.5 * np.sum(diff ** 2, axis=-1))

    K = kern(X, X) + noise_var * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    k_star = kern(Xq, X)
    mu = k_star @ K_inv @ y
    var = signal_var - np.sum((k_star @ K_inv) * k_star, axis=1)
    return mu, np.sqrt(np.maximum(var, 0.0))


def random_box_qp(rng, n):
    """Random strictly convex box QP with a mix of loose and tight bounds."""
    A = rng.normal(size=(n, n))
    H = A @ A.T + 0.1 * np.eye(n)
    g = rng.normal(scale=2.0, size=n)
    center = rng.normal(size=n)
    half = rng.uniform(0.05, 1.5, size=n)
    return H, g, center - half, center + half


def weak_duality_gap(H, g, G, lo, hi, c, z, y):
    """Relative weak-duality gap and relative box violation of a claimed
    solution (z, y) of min 0.5 z'Hz + g'z + c s.t. lo <= Gz <= hi, H positive
    semidefinite, y negative on lower and positive on upper bounds.

    The dual function is q(y) = min_w 0.5 w'Hw + g'w + c + y+'(Gw - hi)
    - y-'(Gw - lo) with y+ = max(y, 0), y- = max(-y, 0). For feasible z,
    f(z) - q(y) = 0.5 r'H^+ r + y+'(hi - Gz) + y-'(Gz - lo) with
    r = Hz + g + G'y, a sum of nonnegative terms, evaluated in that form so
    nothing cancels. If r has a component outside the range of H, q(y) is
    -inf and the gap infinite, as it is for a multiplier on an infinite
    bound.
    Returns (gap / (1 + |f(z)|), violation / (1 + max|Gz|)).
    """
    H, G = np.asarray(H, dtype=float), np.asarray(G, dtype=float)
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    f = 0.5 * z @ H @ z + g @ z + c
    r = H @ z + g + G.T @ y
    gz = G @ z
    w = np.linalg.lstsq(H, r, rcond=None)[0]
    in_range = np.max(np.abs(H @ w - r), initial=0.0) <= 1e-12 * (
        1.0 + np.max(np.abs(r), initial=0.0))
    gap = 0.5 * r @ w if in_range else np.inf
    for i in range(len(y)):
        if y[i] > 0.0:
            gap += y[i] * (hi[i] - gz[i]) if np.isfinite(hi[i]) else np.inf
        elif y[i] < 0.0:
            gap += -y[i] * (gz[i] - lo[i]) if np.isfinite(lo[i]) else np.inf
    viol = max(float(np.max(np.maximum(gz - hi, lo - gz), initial=0.0)), 0.0)
    return gap / (1.0 + abs(f)), viol / (1.0 + float(np.max(np.abs(gz), initial=0.0)))


def solve_on_active_set(H, g, G, lo, hi, y):
    """Minimizer of 0.5 z'Hz + g'z with every row that carries a multiplier
    in y held at the bound its sign selects (y < 0 lower, y > 0 upper), by
    one solve of the dense KKT system of those rows."""
    H, G = np.asarray(H, dtype=float), np.asarray(G, dtype=float)
    act = np.flatnonzero(y)
    A = G[act]
    b = np.where(np.asarray(y)[act] > 0.0, np.asarray(hi)[act],
                 np.asarray(lo)[act])
    n, k = len(g), len(act)
    K = np.block([[H, A.T], [A, np.zeros((k, k))]])
    sol = np.linalg.solve(K, np.concatenate([-np.asarray(g), b]))
    return sol[:n]
