"""One workload in one fresh process: set-up, timed rounds, checks, metrics.

Started by run.py, which owns the clock that set-up time is measured from.
Writes its figures to <out>/result.json and, when tracing, the spans to
<out>/spans.npz; the program's own run directories go under <out>/program
and are removed at the end.

    python3 perfbench/worker.py --workload tracking --seed 0 --seconds 20 \
        --trace 0 --out perfbench/runs/x
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import icpmod.bo as bo  # noqa: E402
import icpmod.gp as gp  # noqa: E402
import icpmod.harness as harness  # noqa: E402
import icpmod.mpc as mpc  # noqa: E402
import icpmod.observer as observer  # noqa: E402
import icpmod.refgen as refgen  # noqa: E402
import icpmod.simbench as simbench  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

VARIANTS = ("pid", "mpc", "mpc_offset_free")
QP_VARIANTS = VARIANTS[1:]
DT = 0.01
# Rounds repeat the same operations; the per-operation minimum over rounds
# needs a few of them.
MIN_ROUNDS = 3

# The closed-loop inputs do not depend on --seed: the uncertified QP solves
# these runs contain are counted as failed operations, and that count must
# be the same share of the attempts in every run. Seed 106 of the search is
# one that misses its tolerance, so the search keeps fixed seeds as well.
TRACK_SEEDS = (0, 1)
TRACK_BPM = 60.0
TRACK_PERIODS = 12
TRACK_WARMUP = 2
MOD_BPM = 90.0
SEARCH_SEEDS = tuple(range(10))
SEARCH_OPT = np.array([0.12, 0.9])
# Output-standardization constants the surrogate is specified with (icpmod.gp
# module docstring): penalty costs and the floor of standardized targets.
GP_PENALTY = -1e5
GP_FLOOR = -5.0


def period_of(bpm: float) -> int:
    return int(round(60.0 / (bpm * DT)))


def best_iter(result) -> int:
    """The search iteration that first reached the final best cost."""
    return next(it.n for it in result.iterations
                if it.evaluation.cost == result.best_cost)


def rotated(seeds, seed: int) -> tuple:
    """The round's fixed run seeds, starting at position seed mod len."""
    k = seed % len(seeds)
    return tuple(seeds[k:]) + tuple(seeds[:k])


# ---------------------------------------------------------------------------
# What every run records while the clock runs


class Probe:
    """Set-up end, per-step latency of `ClosedLoop.step`, the loops that ran,
    and a copy of every MPC QP solve: g, lo, hi, c, z, y per solve plus each
    controller's H and G once."""

    def __init__(self):
        self.setup_end = None
        self.kind = None
        self.mats: list[np.ndarray] = []       # distinct H and G seen
        self._last = {}                        # kind -> (H index, G index)
        self.new_round()

    def new_round(self):
        self.solves = []
        self.loops = {}
        self.step_ns = {v: [] for v in VARIANTS + ("proposal",)}

    def mark_setup_end(self):
        if self.setup_end is None:
            self.setup_end = time.monotonic()

    def _mat(self, kind, slot, a):
        idx = self._last.get(kind, (None, None))[slot]
        if idx is not None and (a is self.mats[idx] or np.array_equal(a, self.mats[idx])):
            return idx
        self.mats.append(np.array(a))
        return len(self.mats) - 1

    def step_wrapper(self, step):
        def probed(loop):
            self.mark_setup_end()
            self.kind = loop.kind
            self.loops.setdefault(id(loop), loop)
            t = perf_counter_ns()
            row = step(loop)
            self.step_ns[loop.kind].append(perf_counter_ns() - t)
            return row
        return probed

    def capture(self, p, sol):
        key = (self._mat(self.kind, 0, p.H), self._mat(self.kind, 1, p.G))
        self._last[self.kind] = key
        # one row per solve: g, z (n each), lo, hi, y (m each), c
        row = np.concatenate((p.g, sol.z, p.lo, p.hi, sol.y, (p.c,)))
        self.solves.append((self.kind, key, row, sol.status, int(sol.iterations)))

    def certify(self, chunk: int = 1024) -> dict:
        """Per variant: solves, uncertified count, iteration counts and the
        largest relative gap of this round's captured solves."""
        out = {}
        groups = {}
        for s in self.solves:
            groups.setdefault((s[0], s[1]), []).append(s)
        for (kind, (h, gi)), solves in groups.items():
            H, G = self.mats[h], self.mats[gi]
            n, m = G.shape[1], G.shape[0]
            o = out.setdefault(kind, {"solves": 0, "uncertified": 0,
                                      "iterations": [], "gap_max": -np.inf})
            for i in range(0, len(solves), chunk):
                part = solves[i:i + chunk]
                a = np.array([s[2] for s in part])
                g, z = a[:, :n], a[:, n:2 * n]
                lo, hi, y = (a[:, 2 * n + j * m:2 * n + (j + 1) * m] for j in range(3))
                gap, viol = checks.qp_certificate(H, G, g, lo, hi, a[:, -1], z, y)
                o["uncertified"] += int(checks.uncertified(
                    [s[3] for s in part], gap, viol).sum())
                o["gap_max"] = max(o["gap_max"], float(gap.max()))
            o["solves"] += len(solves)
            o["iterations"] += [s[4] for s in solves]
        return out


# ---------------------------------------------------------------------------
# Workloads: run() is the timed round, check() runs after it


class Tracking:
    """run_tracking at 60 BPM, all three controllers, run seeds 0 and 1."""

    step_kind = "mpc"

    def __init__(self, out: Path, seed: int):
        self.out = out
        self.order = rotated(TRACK_SEEDS, seed)

    def run(self):
        return [harness.run_tracking(harness.RunConfig(
            seed=s, bpm=TRACK_BPM, periods=TRACK_PERIODS,
            warmup_periods=TRACK_WARMUP, outdir=str(self.out), label=f"seed{s}"))
            for s in self.order]

    def check(self, results) -> dict:
        cons = results[0].config.mpc.constraints
        scores = [checks.check_tracking_run(
            r.run_dir, TRACK_WARMUP * period_of(TRACK_BPM), cons.input,
            cons.position)["mpc_offset_free"] for r in results]
        return {"loss": math.fsum(s[0] / 100.0 for s in scores) / len(scores),
                "loss_max": math.fsum(s[1] / s[2] for s in scores) / len(scores),
                "ops": 0, "failed": 0, "best_iter": []}


class Modulation:
    """run_modulation at 90 BPM, seed 0: offset-free MPC on the phantom, the
    20-iteration search, the GP surfaces and every artifact."""

    step_kind = "mpc_offset_free"

    def __init__(self, out: Path):
        self.out = out

    def run(self):
        return harness.run_modulation(harness.RunConfig(
            scenario="modulation", bpm=MOD_BPM, seed=0, outdir=str(self.out),
            label="bpm90"))

    def check(self, res) -> dict:
        cons = res.config.mpc.constraints
        stats = checks.check_modulation_run(res.run_dir, period_of(MOD_BPM),
                                            cons.input, cons.position)
        return {"loss": -float(res.bo.best_cost),
                "loss_max": stats["mean_increase_pct"] / 100.0,
                "ops": 0, "failed": 0, "best_iter": [best_iter(res.bo)]}


class Search:
    """bo.run with n_m = 20 on a synthetic objective whose optimum is known,
    screened by refgen.check_feasible at the 90 BPM period, seeds 0..9."""

    step_kind = "proposal"

    def __init__(self, seed: int, probe: Probe, tracer: Tracer | None):
        self.probe = probe
        self.order = rotated(SEARCH_SEEDS, seed)
        self.shape = refgen.ReferenceShape()
        self.cons = harness.RunConfig().mpc.constraints
        self.period = period_of(MOD_BPM)
        self.bounds = bo.BoConfig().theta_bounds
        self._last_end = None
        evaluate = self._evaluate
        if tracer is not None:
            evaluate = tracer.wrap("bo.evaluate", evaluate)
        self.evaluate = evaluate

    def _feasible(self, theta) -> bool:
        return refgen.check_feasible(
            self.shape, refgen.ReferenceParams(theta[0], theta[1]), self.period,
            DT, self.cons, self.bounds)[0]

    def _evaluate(self, theta) -> float:
        self.probe.step_ns["proposal"].append(perf_counter_ns() - self._last_end)
        cost = -float(np.sum((np.asarray(theta) - SEARCH_OPT) ** 2))
        self._last_end = perf_counter_ns()
        return cost

    def run(self):
        results = []
        for s in self.order:
            self._last_end = perf_counter_ns()
            results.append(bo.run(bo.BoConfig(n_m=20, seed=s), self.evaluate,
                                  feasible=self._feasible))
        return results

    def check(self, results) -> dict:
        cfg = bo.BoConfig()
        hp = cfg.hyperparams
        shape = {k: getattr(self.shape, k) for k in (
            "baseline_mm", "undershoot_mm", "rise_s", "up_s", "fall_s", "down_s")}
        shares, failed = [], 0
        for res in results:
            thetas = np.array([it.theta for it in res.iterations])
            ok = checks.feasible_thetas(thetas, cfg.theta_bounds, shape,
                                        self.period * DT, self.cons.position,
                                        self.cons.velocity)
            if not ok.all():
                raise checks.CheckError(
                    f"search evaluated infeasible theta {thetas[~ok][0]}")
            last = res.iterations[-1]
            X, y = res.dataset.as_arrays()
            mu, sd, scale = checks.dense_posterior(
                X[:-1], y[:-1], last.surfaces.grid, cfg.theta_bounds,
                hp.lengthscales, hp.signal_var, hp.noise_var, GP_PENALTY, GP_FLOOR)
            checks.check_posterior(last.surfaces.mu, last.surfaces.sigma, mu, sd,
                                   scale)
            missed, share = checks.search_missed(res.theta_star, SEARCH_OPT,
                                                 cfg.theta_bounds)
            failed += missed
            shares.append(share)
        return {"loss": math.fsum(shares) / len(shares), "loss_max": max(shares),
                "ops": len(results), "failed": failed,
                "best_iter": [best_iter(r) for r in results]}


# ---------------------------------------------------------------------------
# Wrappers at the names the program's callers bind


def install(probe: Probe, tracer: Tracer | None) -> None:
    """Put the probe (and the tracer's spans, inside it) around the callables.

    The probe times each closed-loop step from outside and copies each QP
    solve. The tracer wraps every layer's public callables where their
    callers look them up, so no file of the program changes.
    """
    step = harness.ClosedLoop.step
    solve = mpc.solve_qp
    capture = probe.capture
    if tracer is not None:
        t = tracer
        step = t.wrap("harness.step", step, tag_of=lambda loop: VARIANTS.index(loop.kind))
        solve = t.wrap("qpsolver.solve_qp", solve)
        capture = t.wrap("bench.capture", capture)
        mpc.MpcController.step = t.wrap("mpc.step", mpc.MpcController.step)
        harness.identify_motor_model = t.wrap("harness.identify_motor_model",
                                              harness.identify_motor_model)
        harness.write_csv = t.wrap(
            "harness.write_csv", harness.write_csv,
            after=lambda a, kw, r: Path(a[0]).stat().st_size)
        simbench.truth_step = t.wrap("simbench.truth_step", simbench.truth_step)
        simbench.PhantomBench.measure = t.wrap("simbench.measure",
                                               simbench.PhantomBench.measure)
        harness.observer_step = t.wrap("observer.observer_step", harness.observer_step)
        observer.DisturbanceMemory.update = t.wrap(
            "observer.update", observer.DisturbanceMemory.update)
        observer.DisturbanceMemory.preview = t.wrap(
            "observer.preview", observer.DisturbanceMemory.preview)
        feas = t.wrap("refgen.check_feasible", refgen.check_feasible)
        harness.check_feasible = refgen.check_feasible = feas
        harness.build_reference = t.wrap("refgen.build_reference",
                                         harness.build_reference)
        gp.GaussianProcess.fit = t.wrap("gp.fit", gp.GaussianProcess.fit)
        gp.GaussianProcess.predict = t.wrap(
            "gp.predict", gp.GaussianProcess.predict,
            after=lambda a, kw, r: len(np.atleast_2d(a[1])))
        harness.bo_run = bo.run = t.wrap("bo.run", bo.run)
        evaluate = t.wrap("bo.evaluate", harness.bo_evaluate)

        def counted_evaluate(theta, run_period, *args, **kwargs):
            def period(th):
                t.notes["bo.periods"] += 1
                return run_period(th)
            return evaluate(theta, period, *args, **kwargs)

        harness.bo_evaluate = counted_evaluate

    def solve_and_capture(p, **kwargs):
        sol = solve(p, **kwargs)
        capture(p, sol)
        return sol

    harness.ClosedLoop.step = probe.step_wrapper(step)
    mpc.solve_qp = solve_and_capture


def interference_free(units: list) -> dict:
    """Per timed unit (a closed-loop step or a BO proposal), its fastest time
    over the rounds.

    Every round runs the same operations in the same order, so the k-th step
    of each round does the same work; what differs between rounds is how
    much other tenants of the machine slowed it. The minimum over rounds
    keeps the step's own cost.
    """
    fastest = {}
    for kind in units[0]:
        counts = {len(u[kind]) for u in units}
        if len(counts) != 1:
            raise checks.CheckError(f"rounds ran different numbers of {kind} "
                                    f"steps: {sorted(counts)}")
        fastest[kind] = np.min([u[kind] for u in units], axis=0)
    return fastest


# ---------------------------------------------------------------------------
# Per-layer figures from the spans


def per_layer(tracer: Tracer, probe_rounds: list, loops_events: dict,
              best_iters: list, rounds: int) -> dict:
    sp = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(name, tag=None):
        m = sp["name"] == ids[name] if name in ids else np.zeros(len(sp["name"]), bool)
        return m if tag is None else m & (sp["tag"] == VARIANTS.index(tag))

    def mean_us(name, tag=None, col="dur"):
        m = sel(name, tag)
        return float(sp[col][m].mean()) / 1e3 if m.any() else 0.0

    def calls(name, tag=None):
        return int(sel(name, tag).sum()) / rounds

    def total_ms(name):
        return float(sp["dur"][sel(name)].sum()) / 1e6 / rounds

    out = {}
    for v in QP_VARIANTS:
        its = np.array([i for r in probe_rounds for i in r.get(v, {}).get("iterations", [])])
        has = its.size > 0
        out[f"qpsolver.solve_us.{v}"] = mean_us("qpsolver.solve_qp", v)
        out[f"qpsolver.solves.{v}"] = calls("qpsolver.solve_qp", v)
        out[f"qpsolver.iterations_p50.{v}"] = float(np.percentile(its, 50)) if has else 0.0
        out[f"qpsolver.iterations_p99.{v}"] = float(np.percentile(its, 99)) if has else 0.0
        out[f"qpsolver.iterations_max.{v}"] = int(its.max()) if has else 0
        out[f"qpsolver.uncertified.{v}"] = sum(
            r.get(v, {}).get("uncertified", 0) for r in probe_rounds) / rounds
    gaps = [o["gap_max"] for r in probe_rounds for o in r.values()]
    out["qpsolver.gap_max"] = max(gaps) if gaps else 0.0
    for v in QP_VARIANTS:
        out[f"mpc.step_us.{v}"] = mean_us("mpc.step", v)
        out[f"mpc.self_us.{v}"] = mean_us("mpc.step", v, col="self")
        ev = loops_events.get(v, [])
        out[f"mpc.events_len.{v}"] = float(np.mean(ev)) if ev else 0.0
    for v in VARIANTS:
        out[f"harness.step_us.{v}"] = mean_us("harness.step", v)
    out["harness.identify_ms"] = mean_us("harness.identify_motor_model") / 1e3
    out["harness.write_csv_ms"] = total_ms("harness.write_csv")
    out["harness.csv_files"] = calls("harness.write_csv")
    out["harness.csv_bytes"] = tracer.notes["harness.write_csv"] / rounds
    for name in ("truth_step", "measure"):
        out[f"simbench.{name}_us"] = mean_us(f"simbench.{name}")
        out[f"simbench.{name}_calls"] = calls(f"simbench.{name}")
    for name in ("observer_step", "update", "preview"):
        out[f"observer.{name}_us"] = mean_us(f"observer.{name}")
    out["refgen.check_feasible_calls"] = calls("refgen.check_feasible")
    out["refgen.check_feasible_ms"] = total_ms("refgen.check_feasible")
    out["refgen.build_reference_calls"] = calls("refgen.build_reference")
    out["gp.fit_us"] = mean_us("gp.fit")
    out["gp.fit_calls"] = calls("gp.fit")
    out["gp.predict_ms"] = mean_us("gp.predict") / 1e3
    out["gp.predict_calls"] = calls("gp.predict")
    out["gp.points_predicted"] = tracer.notes["gp.predict"] / rounds
    n_eval = int(sel("bo.evaluate").sum())
    out["bo.evaluate_ms"] = mean_us("bo.evaluate") / 1e3
    out["bo.periods_per_eval"] = tracer.notes["bo.periods"] / n_eval if n_eval else 0.0
    outside = float(sp["dur"][sel("bo.run")].sum() - sp["dur"][sel("bo.evaluate")].sum())
    out["bo.iter_outside_ms"] = outside / 1e6 / n_eval if n_eval else 0.0
    out["bo.best_iter"] = float(np.mean(best_iters)) if best_iters else 0.0
    out["trace.spans"] = len(sp["dur"]) / rounds
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("tracking", "modulation", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    out = Path(args.out)
    program_out = out / "program"
    tracer = Tracer() if args.trace else None
    probe = Probe()
    install(probe, tracer)
    if args.workload == "tracking":
        work = Tracking(program_out, args.seed)
    elif args.workload == "modulation":
        work = Modulation(program_out)
    else:
        work = Search(args.seed, probe, tracer)
        probe.mark_setup_end()

    round_s, units, others = [], [], []
    attempted, failed, quality = 0, 0, set()
    probe_rounds, loops_events, best_iters = [], {}, []
    t_begin = time.monotonic()
    while True:
        probe.new_round()
        t0 = perf_counter_ns()
        results = work.run()
        total = perf_counter_ns() - t0
        round_s.append(total / 1e9)
        units.append({k: np.array(v, dtype=np.int64) for k, v in probe.step_ns.items()})
        others.append(total - sum(int(u.sum()) for u in units[-1].values()))
        found = work.check(results)
        del results
        cert = probe.certify()
        probe_rounds.append(cert)
        attempted += found["ops"] + sum(o["solves"] for o in cert.values())
        failed += found["failed"] + sum(o["uncertified"] for o in cert.values())
        quality.add((found["loss"], found["loss_max"]))
        best_iters += found["best_iter"]
        for loop in probe.loops.values():
            if loop.kind != "pid":
                loops_events.setdefault(loop.kind, []).append(len(loop.ctrl.events))
        elapsed = time.monotonic() - t_begin
        if len(round_s) >= MIN_ROUNDS and elapsed + np.median(round_s) > args.seconds:
            break
    if len(quality) != 1:
        raise checks.CheckError(f"rounds of the same inputs scored differently: "
                                f"{sorted(quality)}")
    (loss, loss_max), = quality

    fastest = interference_free(units)
    steps = fastest[work.step_kind] / 1e3
    metrics = {"wall_s": (sum(int(u.sum()) for u in fastest.values())
                          + min(others)) / 1e9,
               "step_p50_us": float(np.percentile(steps, 50)),
               "loss": loss, "loss_max": loss_max}
    if tracer is not None:
        metrics.update(per_layer(tracer, probe_rounds, loops_events, best_iters,
                                 len(round_s)))
        tracer.save(out / "spans.npz")
    shutil.rmtree(program_out, ignore_errors=True)
    (out / "result.json").write_text(json.dumps({
        "setup_end": probe.setup_end, "rounds_s": round_s, "steps": steps.size,
        "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        sys.exit(3)
