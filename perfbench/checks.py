"""Checks of the program's outputs, computed apart from the program.

Every function here reads only numpy arrays, CSV files and plain numbers,
and none calls into `icpmod`, so a fault in the program cannot hide itself
by also breaking the check. A failed check raises `CheckError`; an
uncertified QP solve is not a check failure but a counted failed operation.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Relative tolerance between a figure in summary.csv and the same figure
# recomputed from the traces. Both sides are printed with "%.9g", which
# rounds each value by at most 5e-9 relative; errors computed from rounded
# trace samples stay below 3e-8 relative on these scenarios.
SUMMARY_RTOL = 1e-7
# Safety boxes are checked against values printed with "%.9g".
BOX_TOL = 1e-9
# Relative weak-duality gap above which a solve is not certified optimal.
# Exactly solved QPs of these workloads reach about 1e-15 and the
# polish-accepted ones 1e-7 and more, so any value between 1e-12 and 1e-8
# counts the same solves.
GAP_RTOL = 1e-10
# Box tolerance of a QP solution, relative to 1 + max|Gz| as in the solver.
QP_BOX_RTOL = 1e-8
# Agreement of the surrogate's grid posterior with the dense recomputation,
# relative to the output scale of the data.
GP_RTOL = 1e-7
# A search fails if its result lies farther than this share of the
# parameter-box diagonal from the known optimum.
SEARCH_TOL_SHARE = 0.05


class CheckError(AssertionError):
    """An output of the program disagrees with its independent check."""


def read_csv(path) -> tuple[list, list]:
    """(header, rows) of a CSV file; numeric cells become floats."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows


def read_columns(path, names) -> dict:
    header, rows = read_csv(path)
    return {n: np.array([r[header.index(n)] for r in rows], dtype=float)
            for n in names}


def summary_rows(path) -> list[dict]:
    header, rows = read_csv(path)
    return [dict(zip(header, r)) for r in rows]


def agree(name: str, ours: float, theirs: float, rtol: float = SUMMARY_RTOL):
    if not abs(ours - theirs) <= rtol * abs(theirs):
        raise CheckError(f"{name}: recomputed {ours!r}, program wrote {theirs!r}")


def check_box(name: str, values: np.ndarray, lo: float, hi: float) -> None:
    bad = np.flatnonzero((values < lo - BOX_TOL) | (values > hi + BOX_TOL))
    if bad.size:
        raise CheckError(f"{name}: {bad.size} samples outside [{lo}, {hi}], "
                         f"first at row {bad[0]}: {values[bad[0]]!r}")


# ---------------------------------------------------------------------------
# Tracking


def tracking_errors(r: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(NRMSE in % of the reference range, max absolute error)."""
    e = r - y
    return (100.0 * math.sqrt(float(np.mean(e * e))) / float(np.ptp(r)),
            float(np.max(np.abs(e))))


def check_tracking_run(run_dir, warmup_samples: int, u_box, pos_box) -> dict:
    """Recompute each controller's scores from its trace, compare them with
    summary.csv, check the safety boxes and the paper's ordering.

    Returns {controller: (nrmse_pct, mate_mm, reference_range_mm)}.
    """
    run_dir = Path(run_dir)
    scores = {}
    for row in summary_rows(run_dir / "summary.csv"):
        ctrl = row["controller"]
        tr = read_columns(run_dir / "traces" / f"{ctrl}.csv",
                          ("r_mm", "y_mm", "u_A", "pos_mm"))
        check_box(f"{ctrl} u_A", tr["u_A"], *u_box)
        check_box(f"{ctrl} pos_mm", tr["pos_mm"], *pos_box)
        r = tr["r_mm"][warmup_samples:]
        y = tr["y_mm"][warmup_samples:]
        nrmse, mate = tracking_errors(r, y)
        agree(f"{run_dir.name} {ctrl} nrmse_pct", nrmse, row["nrmse_pct"])
        agree(f"{run_dir.name} {ctrl} mate_mm", mate, row["mate_mm"])
        scores[ctrl] = (nrmse, mate, float(np.ptp(r)))
    for i in (0, 1):
        of, mpc, pid = (scores[c][i] for c in ("mpc_offset_free", "mpc", "pid"))
        if not of < mpc < pid:
            raise CheckError(f"{run_dir.name}: ordering offset-free < mpc < pid "
                             f"broken on score {i}: {of}, {mpc}, {pid}")
    return scores


# ---------------------------------------------------------------------------
# Modulation


def modulation_stats(baseline: np.ndarray, actuated: np.ndarray,
                     period: int) -> tuple[float, float]:
    """(amplification, worst per-period mean increase in % of the baseline
    mean) over whole periods."""
    b = baseline.reshape(-1, period)
    a = actuated.reshape(-1, period)
    amp = float(np.mean(np.ptp(a, axis=1))) / float(np.mean(np.ptp(b, axis=1)))
    base_mean = float(np.mean(b))
    return amp, 100.0 * (float(np.max(a.mean(axis=1))) - base_mean) / base_mean


def check_modulation_run(run_dir, period: int, u_box, pos_box) -> dict:
    """Recompute amplification and mean increase from the traces, compare
    them with summary.csv, and check the paper's targets and the boxes."""
    run_dir = Path(run_dir)
    cols = ("p_mmhg", "u_A", "pos_mm")
    base = read_columns(run_dir / "traces" / "baseline.csv", cols)
    act = read_columns(run_dir / "traces" / "actuated.csv", cols)
    for name, tr in (("baseline", base), ("actuated", act)):
        check_box(f"{name} u_A", tr["u_A"], *u_box)
        check_box(f"{name} pos_mm", tr["pos_mm"], *pos_box)
    amp, inc = modulation_stats(base["p_mmhg"], act["p_mmhg"], period)
    row = summary_rows(run_dir / "summary.csv")[0]
    agree("amplification", amp, row["amplification"])
    agree("max_rel_mean_increase_pct", inc, row["max_rel_mean_increase_pct"])
    if not 1.8 <= amp <= 2.2:
        raise CheckError(f"amplification {amp} outside [1.8, 2.2]")
    if not inc < 2.0:
        raise CheckError(f"mean pressure increase {inc} % not below 2 %")
    return {"amplification": amp, "mean_increase_pct": inc,
            "best_cost": float(row["best_cost"])}


# ---------------------------------------------------------------------------
# QP certificate


def qp_certificate(H, G, g, lo, hi, c, z, y):
    """Relative weak-duality gap and box violation of K solves of
    min 0.5 z'Hz + g'z + c s.t. lo <= Gz <= hi sharing H and G.

    g, z are (K, n); lo, hi, y are (K, m); c is (K,). y follows the solver's
    sign convention (negative on lower bounds). With y = y+ - y-, the dual
    function is q(y) = min_z f(z) + y+'(Gz - hi) - y-'(Gz - lo), so

        f(z) - q(y) = 0.5 r'H^-1 r + y+'(hi - Gz) + y-'(Gz - lo),
        r = Hz + g + G'y,

    which is evaluated in this form to avoid cancellation. A multiplier on
    an infinite bound makes q = -inf. Returns (gap / (1 + |f(z)|),
    violation / (1 + max|Gz|)), each of shape (K,).
    """
    H, G = np.asarray(H, float), np.asarray(G, float)
    zH = z @ H
    f = 0.5 * np.sum(zH * z, axis=1) + np.sum(g * z, axis=1) + c
    r = zH + g + y @ G
    L = np.linalg.cholesky(H)
    w = np.linalg.solve(L, r.T)
    gz = z @ G.T
    yp, ym = np.maximum(y, 0.0), np.maximum(-y, 0.0)
    with np.errstate(invalid="ignore"):
        comp = (np.where(yp > 0.0, yp * (hi - gz), 0.0)
                + np.where(ym > 0.0, ym * (gz - lo), 0.0)).sum(axis=1)
    gap = 0.5 * np.einsum("ik,ik->k", w, w) + comp
    gap = np.where(np.isnan(gap), np.inf, gap)
    viol = np.maximum(np.maximum(gz - hi, lo - gz), 0.0).max(axis=1)
    return gap / (1.0 + np.abs(f)), viol / (1.0 + np.abs(gz).max(axis=1))


def uncertified(status, rel_gap, rel_viol) -> np.ndarray:
    """Mask of solves that are not certified optimal."""
    return ((np.asarray(status) != "optimal") | ~(rel_gap <= GAP_RTOL)
            | ~(rel_viol <= QP_BOX_RTOL))


# ---------------------------------------------------------------------------
# Search


def feasible_thetas(thetas, bounds, shape: dict, period_s: float,
                    position, velocity) -> np.ndarray:
    """Feasibility of pulse parameters (delay, magnitude) by the pulse's
    geometry: inside the parameter box, peak and undershoot inside the
    position box, every slope inside the velocity box, and the pulse inside
    one period."""
    th = np.atleast_2d(np.asarray(thetas, float))
    d, m = th[:, 0], th[:, 1]
    (d_lo, d_hi), (m_lo, m_hi) = bounds
    b, under = shape["baseline_mm"], shape["undershoot_mm"]
    v = max(abs(velocity[0]), abs(velocity[1]))
    span = d + shape["rise_s"] + shape["up_s"] + shape["fall_s"] + shape["down_s"]
    return ((d_lo <= d) & (d <= d_hi) & (m_lo <= m) & (m <= m_hi)
            & (b + m <= position[1]) & (b - under >= position[0])
            & (m <= v * shape["rise_s"])
            & (m + under <= v * shape["fall_s"])
            & (under <= v * shape["down_s"])
            & (span <= period_s + 1e-12))


def dense_posterior(X, y, Xq, bounds, lengthscales, signal_var, noise_var,
                    penalty_threshold: float, target_floor: float):
    """GP posterior mean and standard deviation by the textbook formulas with
    an explicit inverse, on inputs mapped to the unit box and outputs
    standardized by the statistics of the non-penalty costs (standardized
    targets floored), as the surrogate is specified."""
    lo = np.asarray(bounds, float)[:, 0]
    span = np.asarray(bounds, float)[:, 1] - lo
    xs, qs = (np.asarray(X, float) - lo) / span, (np.asarray(Xq, float) - lo) / span
    y = np.asarray(y, float)
    clean = y[y > penalty_threshold]
    clean = clean if clean.size else y
    mean, scale = float(np.mean(clean)), float(np.std(clean))
    if not scale > 1e-8:
        scale = 1.0
    t = np.maximum((y - mean) / scale, target_floor)
    ell = np.asarray(lengthscales, float)

    def kern(A, B):
        diff = (A[:, None, :] - B[None, :, :]) / ell
        return signal_var * np.exp(-0.5 * np.sum(diff ** 2, axis=-1))

    K_inv = np.linalg.inv(kern(xs, xs) + noise_var * np.eye(len(xs)))
    ks = kern(qs, xs)
    mu = ks @ K_inv @ t
    var = signal_var - np.sum((ks @ K_inv) * ks, axis=1)
    return mu * scale + mean, np.sqrt(np.maximum(var, 0.0)) * scale, scale


def check_posterior(mu, sigma, mu_ref, sigma_ref, scale: float) -> float:
    """Largest disagreement relative to the output scale; raises beyond
    GP_RTOL."""
    worst = max(float(np.max(np.abs(mu - mu_ref))),
                float(np.max(np.abs(sigma - sigma_ref)))) / scale
    if not worst <= GP_RTOL:
        raise CheckError(f"surrogate posterior off the dense recomputation by "
                         f"{worst:.3g} of the output scale")
    return worst


def search_missed(theta_star, theta_opt, bounds) -> tuple[bool, float]:
    """(missed, distance / box diagonal) of a search result."""
    b = np.asarray(bounds, float)
    share = float(np.linalg.norm(np.asarray(theta_star, float)
                                 - np.asarray(theta_opt, float))
                  / np.linalg.norm(b[:, 1] - b[:, 0]))
    return share > SEARCH_TOL_SHARE, share
