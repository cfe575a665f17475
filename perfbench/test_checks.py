"""The benchmark's checks reject wrong outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from icpmod.gp import PENALTY_THRESHOLD, GaussianProcess, GpHyperparams  # noqa: E402
from icpmod.qpsolver import QpProblem, solve_qp  # noqa: E402

U_BOX = (-10.0, 10.0)
POS_BOX = (0.0, 2.6)
WARMUP = 20


def fmt(v):
    return v if isinstance(v, str) else "%.9g" % v


def write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([",".join(header)]
                              + [",".join(fmt(v) for v in r) for r in rows]) + "\n")


def tracking_dir(tmp_path, u_A=None, nrmse_factor=1.0):
    """A run directory of three controllers whose errors scale 1 : 2 : 3."""
    k = np.arange(120)
    r = 0.63 + 0.5 * np.clip(np.sin(2 * np.pi * k / 40), 0, None)
    summary = []
    for i, ctrl in enumerate(("mpc_offset_free", "mpc", "pid"), start=1):
        y = r + 0.01 * i * np.cos(k / 3.0)
        u = np.full(k.size, 0.5) if u_A is None or ctrl != "mpc" else u_A
        write_csv(tmp_path / "traces" / f"{ctrl}.csv",
                  ("k", "r_mm", "y_mm", "pos_mm", "u_A"),
                  [(int(j), r[j], y[j], y[j], u[j]) for j in k])
        rr, yy = (np.array([float(fmt(v)) for v in a[WARMUP:]]) for a in (r, y))
        nrmse, mate = checks.tracking_errors(rr, yy)
        summary.append((ctrl, nrmse * (nrmse_factor if ctrl == "pid" else 1.0), mate))
    write_csv(tmp_path / "summary.csv", ("controller", "nrmse_pct", "mate_mm"), summary)
    return tmp_path


def test_tracking_run_passes_when_consistent(tmp_path):
    scores = checks.check_tracking_run(tracking_dir(tmp_path), WARMUP, U_BOX, POS_BOX)
    assert scores["mpc_offset_free"][0] < scores["mpc"][0] < scores["pid"][0]


def test_input_outside_box_is_rejected(tmp_path):
    u = np.full(120, 0.5)
    u[57] = 10.0 + 1e-6
    with pytest.raises(checks.CheckError, match="u_A"):
        checks.check_tracking_run(tracking_dir(tmp_path, u_A=u), WARMUP, U_BOX, POS_BOX)


def test_summary_nrmse_off_by_1e6_is_rejected(tmp_path):
    with pytest.raises(checks.CheckError, match="nrmse_pct"):
        checks.check_tracking_run(tracking_dir(tmp_path, nrmse_factor=1 + 1e-6),
                                  WARMUP, U_BOX, POS_BOX)


def solved_box_qp(seed=0, n=6):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    H = A @ A.T + 0.1 * np.eye(n)
    g = rng.normal(scale=2.0, size=n)
    lo, hi = -0.3 * np.ones(n), 0.3 * np.ones(n)
    lo[0] = -np.inf
    p = QpProblem(H=H, g=g, G=np.eye(n), lo=lo, hi=hi, c=0.0)
    sol = solve_qp(p, tol=1e-12)
    return p, sol


def certify(p, status, z, y):
    gap, viol = checks.qp_certificate(p.H, p.G, p.g[None], p.lo[None], p.hi[None],
                                      np.array([p.c]), z[None], y[None])
    return bool(checks.uncertified([status], gap, viol)[0])


def test_exact_qp_solution_is_certified():
    p, sol = solved_box_qp()
    assert np.any(sol.y != 0.0)
    assert not certify(p, sol.status, sol.z, sol.y)


def test_qp_solution_moved_off_its_optimum_is_uncertified():
    p, sol = solved_box_qp()
    free = np.flatnonzero(sol.y == 0.0)[0]
    z = sol.z.copy()
    z[free] += 1e-4
    assert certify(p, sol.status, z, sol.y)


def test_qp_other_failures_are_uncertified():
    p, sol = solved_box_qp()
    assert certify(p, "max_iterations", sol.z, sol.y)
    z = sol.z.copy()
    z[1] = p.hi[1] + 1e-6                     # breaks its box
    assert certify(p, sol.status, z, sol.y)
    y = sol.y.copy()
    y[0] = -1e-3                              # multiplier on an infinite bound
    assert certify(p, sol.status, sol.z, y)


def test_theta_star_past_the_search_tolerance_is_a_miss():
    bounds = np.array([[0.0, 0.2], [0.2, 1.25]])
    diag = np.linalg.norm(bounds[:, 1] - bounds[:, 0])
    opt = np.array([0.12, 0.9])
    step = np.array([0.6, 0.8]) * diag
    assert not checks.search_missed(opt + 0.049 * step, opt, bounds)[0]
    assert checks.search_missed(opt + 0.051 * step, opt, bounds)[0]


def test_posterior_off_the_dense_recomputation_is_rejected():
    rng = np.random.default_rng(1)
    bounds = np.array([[0.0, 0.2], [0.2, 1.25]])
    X = rng.uniform(bounds[:, 0], bounds[:, 1], size=(8, 2))
    y = -np.sum((X - [0.12, 0.9]) ** 2, axis=1)
    Xq = rng.uniform(bounds[:, 0], bounds[:, 1], size=(50, 2))
    hp = GpHyperparams()
    mu, sd = GaussianProcess(hp, input_bounds=bounds).fit(X, y).predict(Xq)
    mu_ref, sd_ref, scale = checks.dense_posterior(
        X, y, Xq, bounds, hp.lengthscales, hp.signal_var, hp.noise_var,
        PENALTY_THRESHOLD, -5.0)
    checks.check_posterior(mu, sd, mu_ref, sd_ref, scale)
    with pytest.raises(checks.CheckError):
        checks.check_posterior(mu + 1e-6 * scale, sd, mu_ref, sd_ref, scale)
