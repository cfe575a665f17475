"""Run configuration round-trips, deterministic CSV/manifest artifacts,
identification sanity, closed-loop logging, scenario output layout, and the
command-line front end."""

import dataclasses

import numpy as np
import pytest
import yaml

from icpmod import __version__, mpc
from icpmod.cli import main as cli_main
from icpmod.harness import (
    CONTROLLERS,
    TRACE_COLUMNS,
    ClosedLoop,
    HarnessError,
    RunConfig,
    TraceRecorder,
    config_from_dict,
    config_to_dict,
    format_cell,
    identify_motor_model,
    load_config,
    run_modulation,
    run_tracking,
    save_config,
    trace_violations,
    write_csv,
    _flat_trajectory,
    _PeriodRunner,
)
from icpmod.model import Constraints
from icpmod.refgen import ReferenceParams, ReferenceShape, build_reference
from icpmod.simbench import PhantomBench, PhantomConfig


def small_tracking_config(tmp_path, **overrides) -> RunConfig:
    kw = dict(scenario="tracking", seed=0, periods=4, warmup_periods=1,
              controllers=("pid", "mpc_offset_free"),
              outdir=str(tmp_path), label="run")
    kw.update(overrides)
    return RunConfig(**kw)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.scenario == "tracking"
        assert cfg.controllers == CONTROLLERS

    @pytest.mark.parametrize("kw", [
        {"scenario": "sweep"},
        {"dt": 0.0},
        {"bpm": -60.0},
        {"seed": -1},
        {"periods": 0},
        {"warmup_periods": 12},
        {"controllers": ("pid", "lqr")},
        {"controllers": ()},
        {"baseline_record_periods": 0},
        {"preview_lead_steps": -1},
        {"amp_target_factor": 0.0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)

    def test_sequences_coerced_to_tuples(self):
        cfg = RunConfig(controllers=["pid"], observer_poles=[0.5, 0.6, 0.7])
        assert cfg.controllers == ("pid",)
        assert cfg.observer_poles == (0.5, 0.6, 0.7)


class TestConfigRoundTrip:
    def test_dict_round_trip_is_identity(self):
        cfg = RunConfig(scenario="modulation", seed=7, bpm=90.0,
                        controllers=("mpc",), observer_poles=(0.4, 0.5, 0.6))
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_nested_types_restored(self):
        cfg = config_from_dict(config_to_dict(RunConfig()))
        assert isinstance(cfg.motor.travel_mm, tuple)
        assert isinstance(cfg.mpc.constraints.input, tuple)
        assert isinstance(cfg.bo.theta_bounds, np.ndarray)
        assert cfg.bo.theta_bounds.shape == (2, 2)
        assert isinstance(cfg.bo.hyperparams.lengthscales, tuple)

    def test_yaml_file_round_trip(self, tmp_path):
        cfg = RunConfig(seed=3, bpm=90.0, pulse_magnitude_mm=0.7)
        path = tmp_path / "run.yaml"
        save_config(cfg, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(cfg)

    def test_partial_document_fills_defaults(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("seed: 11\nbpm: 90.0\n")
        cfg = load_config(path)
        assert cfg.seed == 11
        assert cfg.bpm == 90.0
        assert cfg.periods == RunConfig().periods

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(HarnessError):
            load_config(path)


class TestCsvFormat:
    def test_format_cell(self):
        assert format_cell("name") == "name"
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"
        assert format_cell(np.int64(42)) == "42"
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(1.0) / 3.0) == "0.333333333"

    def test_write_csv_bytes_stable(self, tmp_path):
        rows = [(1, 0.25, "a"), (2, 1e-12, "b")]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ("k", "x", "tag"), rows)
        write_csv(p2, ("k", "x", "tag"), rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "k,x,tag"

    def test_write_csv_matches_per_cell_join(self, tmp_path):
        # oracle: each cell formatted on its own by the rules write_csv
        # documents, then joined
        def cell(value):
            if isinstance(value, str):
                return value
            if isinstance(value, (bool, np.bool_)):
                return "1" if value else "0"
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            return "%.9g" % float(value)

        mixed = [("a", True, np.bool_(False), 7, np.int64(12345678901), 0.1,
                  np.nan, np.inf, -np.inf, -0.0, 1e-300),
                 ("b,%s", False, np.bool_(True), -3, np.int64(-5),
                  np.float64(1.0) / 3.0, 2.5e9, 1e22, -1e-7, 0.0,
                  np.float32(0.1))]
        mixed.append(tuple(reversed(mixed[0])))
        grid = np.column_stack([np.linspace(-1.0, 1.0, 9),
                                np.arange(9.0) ** 11, np.full(9, np.nan),
                                np.arange(9) % 2 == 0])
        for i, rows in enumerate((mixed, grid, [])):
            header = tuple(f"c{j}" for j in range(len(rows[0]) if len(rows) else 2))
            path = tmp_path / f"t{i}.csv"
            write_csv(path, header, rows)
            expected = "\n".join([",".join(header)] + [
                ",".join(cell(v) for v in row) for row in rows]) + "\n"
            assert path.read_bytes() == expected.encode()

    def test_recorder_schema_and_columns(self):
        rec = TraceRecorder()
        row = {c: float(i) for i, c in enumerate(TRACE_COLUMNS)}
        rec.add(row)
        rec.add(row)
        assert len(rec) == 2
        assert rec.column("u_A")[0] == float(TRACE_COLUMNS.index("u_A"))


class TestTraceViolations:
    def make_rec(self, u, pos):
        rec = TraceRecorder()
        for ui, pi in zip(u, pos):
            rec.add({c: 0.0 for c in TRACE_COLUMNS} | {"u_A": ui, "pos_mm": pi})
        return rec

    def test_counts(self):
        cons = Constraints()
        rec = self.make_rec(u=[0.0, 10.5, -11.0, 9.9],
                            pos=[1.0, 2.7, -0.1, 2.6])
        v = trace_violations(rec, cons)
        assert v == {"input_violations": 2, "position_violations": 2}

    def test_roundoff_tolerated(self):
        cons = Constraints()
        rec = self.make_rec(u=[10.0 + 1e-12], pos=[2.6 + 1e-12])
        v = trace_violations(rec, cons)
        assert v == {"input_violations": 0, "position_violations": 0}


class TestIdentification:
    def test_model_shape_and_channel(self):
        model, info = identify_motor_model(RunConfig(seed=0))
        assert model.A.shape == (2, 2)
        assert np.allclose(model.B_d, model.B)
        assert model.C_d == 0.0
        assert np.all(np.abs(np.linalg.eigvals(model.A)) < 1.0)
        assert info["fit_nrmse_pct"] < 10.0

    def test_deterministic_per_seed(self):
        m1, _ = identify_motor_model(RunConfig(seed=4))
        m2, _ = identify_motor_model(RunConfig(seed=4))
        m3, _ = identify_motor_model(RunConfig(seed=5))
        assert np.array_equal(m1.A, m2.A) and np.array_equal(m1.B, m2.B)
        assert not np.array_equal(m1.A, m3.A)

    def test_clamping_excitation_rejected(self, monkeypatch):
        monkeypatch.setattr("icpmod.harness.IDENT_PRBS_AMP_A", 8.0)
        with pytest.raises(HarnessError, match="travel stops"):
            identify_motor_model(RunConfig(seed=0))


def make_loop(cfg, controller):
    model, _ = identify_motor_model(cfg)
    bench = PhantomBench(cfg.motor, cfg.phantom, cfg.dt, with_phantom=False,
                         seed=cfg.seed)
    traj = build_reference(ReferenceShape(),
                           ReferenceParams(cfg.pulse_delay_s,
                                           cfg.pulse_magnitude_mm),
                           bench.clock.period, cfg.dt)
    return ClosedLoop(model, cfg, bench, controller, traj)


class TestClosedLoop:
    def test_unknown_controller_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ValueError, match="unknown controller"):
            make_loop(cfg, "lqr")

    def test_rows_follow_schema(self):
        loop = make_loop(RunConfig(), "pid")
        row = loop.step()
        assert set(row) == set(TRACE_COLUMNS)
        assert row["k"] == 0 and loop.step()["k"] == 1

    def test_plain_mpc_logs_no_disturbance(self):
        loop = make_loop(RunConfig(), "mpc")
        rec = TraceRecorder()
        loop.run_periods(1, rec)
        assert np.all(np.isnan(rec.column("d_hat_mm")))
        assert np.isfinite(rec.column("qp_iterations")).all()

    def test_offset_free_estimates_injected_offset(self):
        # constant measurement offset shows up in d_hat scaled by the input
        # channel; the physical position settles away from the reference by
        # about the injected amount while y tracks it
        cfg = RunConfig(output_disturbance_mm=0.2)
        loop = make_loop(cfg, "mpc_offset_free")
        rec = TraceRecorder()
        loop.run_periods(6, rec)
        period = loop.traj.period
        tail = slice(4 * period, None)
        err = rec.column("r_mm")[tail] - rec.column("y_mm")[tail]
        assert np.sqrt(np.mean(err ** 2)) < 0.05
        gap = rec.column("y_mm") - rec.column("pos_mm")
        assert np.allclose(gap, 0.2, atol=1e-12)

    def test_pressure_guard_trip_keeps_memory_in_phase(self):
        # A stiff phantom trips the pressure guard on a large pulse; the
        # coasted rest of the period must leave the disturbance memory's
        # cursor on the bench phase, where the previews read it.
        cfg = RunConfig(scenario="modulation", bpm=60.0, phantom=PhantomConfig(
            bpm=60.0, compliance_p0_mmhg=40.0))
        model, _ = identify_motor_model(cfg)
        bench = PhantomBench(cfg.motor, cfg.phantom, cfg.dt, seed=cfg.seed)
        period = bench.clock.period
        loop = ClosedLoop(model, cfg, bench, "mpc_offset_free",
                          _flat_trajectory(cfg.shape, period, cfg.dt))
        loop.run_periods(2)
        runner = _PeriodRunner(loop, cfg, period)
        outcome = runner((0.05, 1.2))
        assert outcome.safety_events >= 1
        assert len(outcome.pressure) < period
        assert loop.k == 3 * period
        assert bench.clock.phase == 0
        assert loop.memory.cursor == bench.clock.phase
        assert loop.memory.periods_completed == 3

    def test_trajectory_swap_must_keep_period(self):
        loop = make_loop(RunConfig(), "pid")
        loop.set_trajectory(loop.traj)
        bad = build_reference(ReferenceShape(), ReferenceParams(0.05, 0.5),
                              loop.traj.period + 1, RunConfig().dt)
        with pytest.raises(ValueError, match="period"):
            loop.set_trajectory(bad)


@pytest.fixture(scope="module")
def tracking_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("track")
    cfg = small_tracking_config(tmp)
    return run_tracking(cfg), tmp


@pytest.fixture(scope="module")
def modulation_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mod")
    cfg = RunConfig(scenario="modulation", seed=0, outdir=str(tmp),
                    label="run", baseline_settle_periods=1,
                    final_settle_periods=1)
    cfg = dataclasses.replace(cfg, bo=dataclasses.replace(
        cfg.bo, n_m=4, n_r=2, n_p=2, grid_resolution=24))
    return run_modulation(cfg)


class TestTrackingScenario:
    @pytest.fixture
    def result(self, tracking_result):
        return tracking_result

    def test_output_layout(self, result):
        res, _ = result
        d = res.run_dir
        for name in ("model.json", "summary.csv", "manifest.yaml",
                     "traces/pid.csv", "traces/mpc_offset_free.csv"):
            assert (d / name).is_file(), name

    def test_summary_schema(self, result):
        res, _ = result
        lines = (res.run_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == ("controller,nrmse_pct,mate_mm,max_abs_error_mm,"
                            "input_violations,position_violations,"
                            "clamp_events,qp_fallbacks")
        assert len(lines) == 3
        assert lines[1].startswith("pid,")

    def test_trace_length_and_header(self, result):
        res, _ = result
        lines = (res.run_dir / "traces/pid.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        period = res.runs["pid"].trace.column("phase").astype(int).max() + 1
        assert len(lines) - 1 == res.config.periods * period

    def test_manifest_reproduces_config(self, result):
        res, _ = result
        doc = yaml.safe_load((res.run_dir / "manifest.yaml").read_text())
        assert doc["scenario"] == "tracking"
        assert doc["seed"] == res.config.seed
        assert doc["package_version"] == __version__
        rebuilt = config_from_dict(doc["config"])
        assert config_to_dict(rebuilt) == config_to_dict(res.config)
        assert "identification" in doc

    def test_no_safety_violations_logged(self, result):
        res, _ = result
        for run in res.runs.values():
            assert run.input_violations == 0
            assert run.position_violations == 0

    def test_repeat_run_identical_bytes(self, result):
        res, tmp = result
        cfg2 = small_tracking_config(tmp, label="again")
        res2 = run_tracking(cfg2)
        for name in ("summary.csv", "traces/pid.csv",
                     "traces/mpc_offset_free.csv", "model.json"):
            assert (res2.run_dir / name).read_bytes() == \
                (res.run_dir / name).read_bytes(), name

    def test_wrong_scenario_rejected(self, tmp_path):
        cfg = RunConfig(scenario="modulation", outdir=str(tmp_path))
        with pytest.raises(HarnessError):
            run_tracking(cfg)

    def test_qp_fallbacks_counted(self, tmp_path, monkeypatch):
        # Force k non-optimal solves; each must show as one fallback step.
        k = 3
        calls = []
        solve = mpc.solve_qp

        def failing_solve(p, **kwargs):
            sol = solve(p, **kwargs)
            calls.append(None)
            if 50 <= len(calls) < 50 + k:
                sol = dataclasses.replace(sol, status="failed")
            return sol

        monkeypatch.setattr(mpc, "solve_qp", failing_solve)
        cfg = small_tracking_config(tmp_path, periods=2, warmup_periods=0,
                                    controllers=("mpc",), label="fallbacks")
        res = run_tracking(cfg)
        assert res.runs["mpc"].qp_fallbacks == k
        lines = (res.run_dir / "summary.csv").read_text().splitlines()
        assert lines[1].startswith("mpc,")
        assert lines[1].split(",")[-1] == str(k)
        # the manifest names each fallback, and they are the ones counted
        doc = yaml.safe_load((res.run_dir / "manifest.yaml").read_text())
        events = doc["mpc_events"]["mpc"]
        assert [e["kind"] for e in events] == ["qp_failed"] * k
        assert [e["step"] for e in events] == [50, 51, 52]
        assert len(events) == int(lines[1].split(",")[-1])


class TestModulationScenario:
    @pytest.fixture
    def result(self, modulation_result):
        return modulation_result

    def test_output_layout(self, result):
        d = result.run_dir
        for name in ("model.json", "summary.csv", "manifest.yaml",
                     "traces/baseline.csv", "traces/actuated.csv",
                     "traces/bo_iterations.csv"):
            assert (d / name).is_file(), name
        surfaces = sorted((d / "gp").glob("iter_*.csv"))
        assert len(surfaces) == 4

    def test_iteration_log_rows(self, result):
        lines = (result.run_dir / "traces/bo_iterations.csv").read_text() \
            .splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("n,source,theta_delay_s,theta_magnitude_mm")

    def test_gp_surface_schema(self, result):
        path = sorted((result.run_dir / "gp").glob("iter_*.csv"))[0]
        header = path.read_text().splitlines()[0]
        assert header == ("theta_delay_s,theta_magnitude_mm,mu,sigma,"
                          "acquisition,feasible")

    def test_report_and_theta_recorded(self, result):
        doc = yaml.safe_load((result.run_dir / "manifest.yaml").read_text())
        assert doc["theta_star"] == [float(result.theta_star[0]),
                                     float(result.theta_star[1])]
        assert result.report.amplification > 1.0
        assert result.report.periods_used >= 3

    def test_search_record_in_manifest(self, tmp_path, monkeypatch):
        # One forced jitter escalation in the search's surrogate must reach
        # the manifest with the dataset size it happened at, beside the
        # iteration that first reached the best cost.
        import icpmod.gp as gpmod
        from scipy.linalg import LinAlgError

        real, failures = gpmod.cho_factor, [1]

        def flaky(a, **kw):
            if failures:
                failures.pop()
                raise LinAlgError("synthetic failure")
            return real(a, **kw)

        monkeypatch.setattr(gpmod, "cho_factor", flaky)
        # and one forced non-optimal MPC solve must reach it as an MPC event
        calls, solve = [], mpc.solve_qp

        def failing_solve(p, **kwargs):
            sol = solve(p, **kwargs)
            calls.append(None)
            return (dataclasses.replace(sol, status="failed")
                    if len(calls) == 30 else sol)

        monkeypatch.setattr(mpc, "solve_qp", failing_solve)
        cfg = RunConfig(scenario="modulation", seed=0, outdir=str(tmp_path),
                        label="events", baseline_settle_periods=1,
                        final_settle_periods=1)
        cfg = dataclasses.replace(cfg, bo=dataclasses.replace(
            cfg.bo, n_m=4, n_r=2, n_p=2, grid_resolution=24))
        res = run_modulation(cfg)
        doc = yaml.safe_load((res.run_dir / "manifest.yaml").read_text())
        event = {"kind": "jitter", "value": 1e-10, "n": 1}
        assert res.bo.gp_events == [event]
        assert doc["gp_events"] == [event]
        first = next(it.n for it in res.bo.iterations
                     if it.evaluation.cost == res.bo.best_cost)
        assert doc["best_iter"] == res.bo.best_iter == first
        assert [(e["step"], e["kind"]) for e in doc["mpc_events"]] == [
            (30, "qp_failed")]

    def test_wrong_scenario_rejected(self, tmp_path):
        cfg = RunConfig(scenario="tracking", outdir=str(tmp_path))
        with pytest.raises(HarnessError):
            run_modulation(cfg)


class TestCli:
    def test_tracking_success(self, tmp_path, capsys):
        rc = cli_main(["tracking", "--seed", "1", "--periods", "3",
                       "--controller", "pid", "--outdir", str(tmp_path),
                       "--label", "cli"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == str(tmp_path / "tracking" / "cli")
        assert (tmp_path / "tracking" / "cli" / "summary.csv").is_file()

    def test_flags_override_config_document(self, tmp_path, capsys):
        doc = tmp_path / "base.yaml"
        save_config(RunConfig(seed=3, periods=3, controllers=("pid",),
                              outdir=str(tmp_path)), doc)
        rc = cli_main(["tracking", "--config", str(doc), "--seed", "5",
                       "--label", "override"])
        assert rc == 0
        capsys.readouterr()
        manifest = yaml.safe_load(
            (tmp_path / "tracking" / "override" / "manifest.yaml").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["periods"] == 3

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli_main(["tracking", "--config", str(tmp_path / "none.yaml")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]")

    @pytest.mark.parametrize("doc, message", [
        ("bo: {energy_mode: raw}\n", "unknown config key 'bo.energy_mode'"),
        ("bogus: 1\n", "unknown config key 'bogus'"),
        ("bo: 5\n", "config section 'bo' must be a mapping"),
        ("observer_poles: [0.5, 0.5]\n", "observer_poles needs 3 poles, got 2"),
        ("observer_poles: [0.5, 0.5, 1.2]\n",
         "observer_poles must lie strictly inside the unit circle"),
    ])
    def test_bad_config_document(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.yaml"
        path.write_text(doc)
        rc = cli_main(["tracking", "--config", str(path), "--periods", "3",
                       "--controller", "pid", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]")
        assert message in err

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: abc\n")
        rc = cli_main(["tracking", "--config", str(path), "--periods", "3",
                       "--controller", "pid", "--outdir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]")

    def test_invalid_flag_value(self, capsys):
        rc = cli_main(["modulation", "--bpm", "-1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]")

    def test_subcommand_overrides_document_scenario(self, tmp_path, capsys):
        doc = tmp_path / "mod.yaml"
        save_config(RunConfig(scenario="modulation"), doc)
        rc = cli_main(["tracking", "--config", str(doc), "--seed", "1",
                       "--periods", "3", "--controller", "pid",
                       "--outdir", str(tmp_path), "--label", "scn"])
        assert rc == 0
        capsys.readouterr()
        manifest = yaml.safe_load(
            (tmp_path / "tracking" / "scn" / "manifest.yaml").read_text())
        assert manifest["scenario"] == "tracking"
