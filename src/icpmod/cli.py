"""Command-line front end for the experiment harness.

Two subcommands, one per scenario:

    icpmod tracking   --seed 0 --bpm 60 --outdir runs
    icpmod modulation --seed 0 --bpm 90 --config run.yaml

Configuration precedence, lowest to highest: built-in defaults, the YAML
document named by --config, then explicit flags.  The subcommand always
fixes the scenario, whatever the document says.

Exit codes: 0 on success, 2 for configuration errors (bad flag values,
unreadable or invalid config file), 3 for run failures (infeasible
reference, safety violations in the loop), 4 for anything unexpected.
Every failure prints a single line `error[<category>]: <message>` on
stderr with category one of config / run / internal.  On success the
first stdout line is the run directory; summary lines follow.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (CONTROLLERS, HarnessError, RunConfig, load_config,
                      run_modulation, run_tracking)

_EXIT_CONFIG = 2
_EXIT_RUN = 3
_EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icpmod",
        description="Run the tracking or pressure-modulation experiment "
                    "against the simulated bench.")
    sub = parser.add_subparsers(dest="scenario", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH",
                       help="YAML run configuration; flags override its fields")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--bpm", type=float, help="cardiac rate in beats/min")
        p.add_argument("--outdir", help="root output directory")
        p.add_argument("--label",
                       help="run directory name (default: UTC timestamp)")

    p_track = sub.add_parser(
        "tracking", help="reference tracking comparison across controllers")
    common(p_track)
    p_track.add_argument("--controller", action="append", choices=CONTROLLERS,
                         help="controller to run; repeat for several "
                              "(default: all three)")
    p_track.add_argument("--periods", type=int,
                         help="number of reference periods per controller")

    p_mod = sub.add_parser(
        "modulation", help="learn a reference pulse that amplifies the "
                           "pressure pulsation")
    common(p_mod)
    return parser


def _make_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {"scenario": args.scenario}
    for field in ("seed", "bpm", "outdir", "label", "periods"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "controller", None):
        overrides["controllers"] = tuple(args.controller)
    return dataclasses.replace(cfg, **overrides)


def _fail(category: str, exc: BaseException, code: int) -> int:
    print(f"error[{category}]: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _make_config(args)
    except (HarnessError, ValueError, TypeError, OSError) as exc:
        # TypeError: a config value of the wrong type, e.g. `seed: abc`
        return _fail("config", exc, _EXIT_CONFIG)

    try:
        if cfg.scenario == "tracking":
            result = run_tracking(cfg)
            print(result.run_dir)
            for name, run in result.runs.items():
                print(f"{name}: nrmse {run.nrmse_pct:.3f}%  "
                      f"mate {run.mate_mm:.4f} mm")
        else:
            result = run_modulation(cfg)
            print(result.run_dir)
            r = result.report
            print(f"theta*: delay {result.theta_star[0]:.4f} s, "
                  f"magnitude {result.theta_star[1]:.4f} mm")
            print(f"amplification: {r.amplification:.4f}  "
                  f"(swing {r.baseline_amp_mmhg:.4f} -> "
                  f"{r.actuated_amp_mmhg:.4f} mmHg)")
            print(f"mean increase: {r.max_abs_mean_increase_mmhg:.4f} mmHg "
                  f"({r.max_rel_mean_increase_pct:.4f}%)")
    except HarnessError as exc:
        return _fail("run", exc, _EXIT_RUN)
    except Exception as exc:  # pragma: no cover - last-resort guard
        return _fail("internal", exc, _EXIT_INTERNAL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
