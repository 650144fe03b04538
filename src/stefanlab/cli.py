"""Command line front end.

Subcommands: simulate (run a scenario and write artifacts), analyze (recompute
the finest level's reports from the artifacts on disk with the stored config,
through the same analysis the run used), compare (run both solvers and report
their distance), verify (run the invariant suite), sweep (run a batch of
scenario configs).  Exit codes: 0 pass, 1 invariant failure, 2 config error,
3 numerical abort.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalAbort
from .exporters import (MatrixRows, jsonify, read_frontier_csv,
                        read_jumps_json, read_json, read_matrix_csv,
                        read_nu_csv, write_json)
from .fields import Field, FrontierPath
from .harness import (ScenarioConfig, analyze_route, apply_overrides,
                      compare_methods, jump_threshold, run_dir, run_scenario,
                      scenario_from_dict, scenario_from_json, verify_suite,
                      w_rows)
# unused here, but perfbench/spans.py looks these names up in this module
from .harness import (classify_points, compute_w, freezing_time,  # noqa: F401
                      obstacle_residual, speed_formula_check)

EXIT_PASS = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(path: str, overrides: list[str]) -> ScenarioConfig:
    cfg = scenario_from_json(path)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    result = run_scenario(cfg, write=True)
    print(f"{cfg.scenario_id}: {cfg.refinement_levels} level(s) ->"
          f" {result.outpath}")
    reports = result.levels[-1].reports
    for method in ("grid", "particle"):
        if method in reports:
            rep = reports[method]
            print(f"  {method}: frontier end {rep['lambda_end']:.6f} of cap"
                  f" {cfg.alpha:.6f}, jumps detected {rep['n_jumps_detected']}")
    return EXIT_PASS


def _require(path: Path) -> Path:
    if not path.exists():
        raise ConfigError(f"missing artifact {path}")
    return path


def _check_finest_grid(path: Path, x: np.ndarray, cfg: ScenarioConfig) -> None:
    """Reject an artifact whose cell centres are not the finest level's."""
    dx = cfg.level_params(cfg.refinement_levels - 1)["dx"]
    centres = (np.arange(int(round(cfg.x_max / dx))) + 0.5) * dx
    if len(x) != len(centres) or np.max(np.abs(x - centres)) > 1e-6 * dx:
        raise ConfigError(f"{path} is not on the finest grid of the stored config"
                          f" (dx = {dx}, x_max = {cfg.x_max})")


def _cmd_analyze(args) -> int:
    root = Path(args.rundir)
    summary_path = _require(root / "summary.json")
    summary = read_json(summary_path)
    try:
        cfg = scenario_from_dict(summary.get("config")
                                 if isinstance(summary, dict) else summary)
    except ConfigError as exc:
        raise ConfigError(f"{summary_path}: {exc}") from None
    # the root files are the finest level's, of the grid route when it ran
    method = "particle" if cfg.method == "particle" else "grid"

    times, lam = read_frontier_csv(_require(root / "frontier.csv"))
    jumps = read_jumps_json(_require(root / "jumps.json"))
    frontier = FrontierPath(times=times, lam=lam, alpha=cfg.alpha, jumps=jumps)

    field_path = root / "field.npy"
    if not field_path.exists():
        raise ConfigError(f"missing artifact {field_path};"
                          " analysis needs a run with a sampled field")
    x, t, values = read_matrix_csv(field_path)
    _check_finest_grid(field_path, x, cfg)
    field = Field(x=x, t=t, values=values, alpha=cfg.alpha)
    nu_path = root / "nu.npy"
    nu = read_nu_csv(nu_path, cfg.alpha) if nu_path.exists() else None
    if nu is not None:
        _check_finest_grid(nu_path, nu.x, cfg)

    thr = jump_threshold(cfg, method, cfg.refinement_levels - 1)
    _, _, reports = analyze_route(cfg, method, frontier, field, nu, thr)
    report = {"scenario_id": cfg.scenario_id, **reports}
    w_path = root / "w.npy"
    if w_path.exists():
        # read a block at a time, each checked against field.npy's axes
        w_stored = MatrixRows(w_path, field.x, field.t)
        report["w_reconstruction_gap"] = _reconstruction_gap(field, w_stored)

    write_json(root / "analysis.json", report)
    print(json.dumps(jsonify(report), indent=2, sort_keys=True))
    return EXIT_PASS


def _reconstruction_gap(field: Field, w_stored) -> float:
    """max |w_stored - w| for the w of field, compared block by block as
    w_rows computes it; a NaN anywhere makes it NaN, as one max would.
    w_stored is the stored matrix, or a MatrixRows reading it by slices."""
    gap = -np.inf
    for lo, rows in w_rows(field):
        diff = np.subtract(w_stored[lo:lo + len(rows)], rows)
        gap = np.maximum(gap, np.max(np.abs(diff, out=diff)))
    return float(gap)


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    report = compare_methods(cfg)
    print(json.dumps(jsonify(report), indent=2, sort_keys=True))
    return EXIT_PASS


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    ledger = verify_suite(cfg, write=not args.no_write)
    for entry in ledger["invariants"]:
        print(f"{entry['verdict'].upper():4s} {entry['id']} -- {entry['detail']}")
    print(f"pass {ledger['n_pass']}  fail {ledger['n_fail']}"
          f"  skip {ledger['n_skip']}")
    if not args.no_write:
        write_json(run_dir(cfg) / "verify.json", ledger)
    return EXIT_INVARIANT if ledger["n_fail"] else EXIT_PASS


def _cmd_sweep(args) -> int:
    batch = read_json(args.batch)
    if not isinstance(batch, list):
        raise ConfigError("sweep batch must be a JSON array of scenario configs")
    # every entry is checked, with the overrides, before any of them runs
    cfgs = []
    for i, raw in enumerate(batch):
        try:
            cfg = scenario_from_dict(raw)
            cfgs.append(apply_overrides(cfg, args.set) if args.set else cfg)
        except ConfigError as exc:
            sid = raw.get("scenario_id") if isinstance(raw, dict) else None
            name = f"batch entry {i}" + (f" ({sid})" if isinstance(sid, str) else "")
            raise ConfigError(f"{name}: {exc}") from None
    worst = EXIT_PASS
    for cfg in cfgs:
        code = EXIT_PASS
        try:
            detail = f"-> {run_dir(cfg)}"
            if args.verify:
                ledger = verify_suite(cfg, write=True)
                detail += (f" pass {ledger['n_pass']} fail {ledger['n_fail']}"
                           f" skip {ledger['n_skip']}")
                write_json(run_dir(cfg) / "verify.json", ledger)
                if ledger["n_fail"]:
                    code = EXIT_INVARIANT
            else:
                run_scenario(cfg, write=True)
        except NumericalAbort as exc:
            detail, code = f"numerical abort: {exc}", EXIT_NUMERICAL
        print(f"{cfg.scenario_id}: {detail}")
        worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefanlab",
        description="Dual-method laboratory for supercooled freezing fronts")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("config", help="scenario config JSON file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field by dotted path"
                            " (e.g. thresholds.eps_u=0.01)")

    p = sub.add_parser("simulate", help="run a scenario and write artifacts")
    add_config_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze",
                       help="recompute a run's reports from its artifacts")
    p.add_argument("rundir", help="scenario output directory"
                                  " (containing summary.json)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare",
                       help="run both solvers and report frontier distance")
    add_config_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run the invariant suite on a scenario")
    add_config_args(p)
    p.add_argument("--no-write", action="store_true",
                   help="keep artifacts off disk")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run a JSON array of scenario configs")
    p.add_argument("batch", help="JSON file holding a list of configs")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override applied to every config in the batch")
    p.add_argument("--verify", action="store_true",
                   help="also run the invariant suite per scenario")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
