"""Scenario orchestration: configs, refinement ladders, cross-method checks.

A scenario bundles a supercooling profile, the macroscopic parameters, and
solver resolutions.  run_scenario drives one or both solvers over a ladder of
refinement levels (dt and dx halve per level, particle count quadruples),
writes the artifact set per level, and assembles a deterministic summary.
analyze_route, the one analysis of a frontier and its field, serves both
run_level and the analyze command.  verify_suite evaluates the registry of
structural invariants against a scenario and reports one verdict per
registry entry, never fewer.  A level runs all its routes in the calling
process, and a ladder runs its finest level first; only the invariants
that rerun a solver on the config alone go to a standard-library process
pool, so they overlap the scenario's run.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import math
import numbers
import os
import platform
import shutil
import time
from dataclasses import dataclass, field as dc_field, asdict, replace
from pathlib import Path

import numpy as np

from stefanlab import particle as pt
from stefanlab.boundary import (classify_points, detect_jumps, freezing_time,
                                nondegeneracy_constant, speed_formula_check)
from stefanlab.densities import (Density, oscillatory_density,
                                 piecewise_constant, power_gap_density)
from stefanlab.errors import ConfigError
from stefanlab.exporters import (jsonify, read_json, write_field_artifacts,
                                 write_frontier_csv, write_json,
                                 write_jumps_json)
from stefanlab.fields import Field, FrontierPath, WeightField
from stefanlab.grid import run_grid
from stefanlab.jump_rule import cascade_jump, continuum_jump, density_knots
from stefanlab.potential import (SCAN_ROWS, compute_w, default_eps_w,
                                 obstacle_residual, residual_window, row_blocks,
                                 scan_first_positive, scan_first_zero, w_rows)

METHODS = ("particle", "grid", "both")
SAMPLINGS = ("stratified", "uniform")
# each density family's constructor: the keys a family reads, besides
# "family", are its parameters, and those without a default are required
DENSITY_FAMILIES = {
    "piecewise_constant": piecewise_constant,
    "power_gap": power_gap_density,
    "oscillatory": oscillatory_density,
}
# the most steps a run's finest level may take: at the cheapest step
# measured, about 32 us for one particle on a 2-core x86 VM, this is over
# five minutes of stepping
MAX_STEPS = 10 ** 7
# the analysis knobs a config's "thresholds" block may set
THRESHOLD_KEYS = ("complementarity_tol", "endpoint_band", "eps_u", "eps_w",
                  "interior_margin", "jump_threshold", "nondeg_r",
                  "nondeg_t_lo")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite real that is not a bool: NaN and infinities are rejected."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _has_bool(v) -> bool:
    """v is a bool, or a list holding one at any depth."""
    return isinstance(v, bool) or isinstance(v, list) and any(map(_has_bool, v))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _approx(n: int) -> str:
    """n to three digits; past the float range, as a power of two."""
    return f"{n:.3g}" if n.bit_length() < 1000 else f"2**{n.bit_length() - 1}"


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one laboratory scenario."""

    scenario_id: str
    density: dict
    alpha: float
    method: str = "grid"
    n_particles: int = 10_000
    dt: float = 1e-3
    dx: float = 0.02
    t_end: float = 1.0
    x_max: float | None = None
    seed: int = 1
    sampling: str = "stratified"
    sample_every: int = 1
    snapshot_every: int = 0
    refinement_levels: int = 1
    thresholds: dict = dc_field(default_factory=dict)
    outdir: str = "out"

    def __post_init__(self) -> None:
        sid = self.scenario_id
        if not isinstance(sid, str) or not sid or any(c in sid for c in "/\\ "):
            raise ConfigError("scenario_id must be a nonempty path-safe token")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.sampling not in SAMPLINGS:
            raise ConfigError(f"sampling must be one of {SAMPLINGS}")
        if not _is_number(self.alpha) or self.alpha < 0:
            raise ConfigError("alpha must be a finite nonnegative number")
        for name in ("dt", "dx", "t_end"):
            v = getattr(self, name)
            if not _is_number(v) or v <= 0:
                raise ConfigError(f"{name} must be a finite positive number")
        if not 0.0 < self.dx * self.dx < math.inf:
            raise ConfigError("dx must be a number whose square is finite and nonzero")
        if self.x_max is not None and not _is_number(self.x_max):
            raise ConfigError("x_max must be a finite number")
        # seeds stay one unsigned 64-bit word, the range configs have always
        # accepted; particle._stream takes any nonnegative integer and keeps
        # its streams apart below 2**94, so the seeds invariants derive from
        # it (seed + 7) may pass 2**64
        if not _is_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an integer in [0, 2**64)")
        for name, least in (("n_particles", 1), ("sample_every", 1),
                            ("snapshot_every", 0), ("refinement_levels", 1)):
            v = getattr(self, name)
            if not _is_int(v) or v < least:
                raise ConfigError(f"{name} must be an integer >= {least}")
        if not isinstance(self.outdir, str):
            raise ConfigError("outdir must be a string")
        if not isinstance(self.thresholds, dict):
            raise ConfigError("thresholds must be an object")
        unknown = set(self.thresholds) - set(THRESHOLD_KEYS)
        if unknown:
            raise ConfigError(f"unknown thresholds {sorted(unknown)};"
                              f" known: {list(THRESHOLD_KEYS)}")
        for name, v in self.thresholds.items():
            if not _is_number(v):
                raise ConfigError(f"thresholds.{name} must be a number")
        for name in ("interior_margin", "nondeg_r", "nondeg_t_lo"):
            if self.thresholds.get(name, 1.0) <= 0:
                raise ConfigError(f"thresholds.{name} must be positive")
        for name in ("complementarity_tol", "endpoint_band", "eps_u", "eps_w",
                     "jump_threshold"):
            if self.thresholds.get(name, 0.0) < 0:
                raise ConfigError(f"thresholds.{name} must be nonnegative")
        d = build_density(self.density)
        support_end = d.support_max
        # not a dataclass field, so to_dict() and summary.json omit it
        self._x_max_derived = self.x_max is None
        if self._x_max_derived:
            # room for the full frontier range plus the diffusive spread of
            # the data over the horizon, snapped up to a dx multiple
            raw = self.alpha + support_end + 4.0 * float(np.sqrt(self.t_end))
            self.x_max = float(np.ceil(raw / self.dx) * self.dx)
        if self.x_max < self.alpha + support_end:
            raise ConfigError(
                f"x_max = {self.x_max} cannot hold the frontier range: "
                f"alpha + support end = {self.alpha + support_end}")
        n_cells = self.x_max / self.dx
        if not 1 <= n_cells < math.inf:
            raise ConfigError(f"x_max / dx = {n_cells} must count at least one cell")
        if abs(n_cells - round(n_cells)) > 1e-9:
            raise ConfigError("dx must divide x_max")
        if self.method == "particle" and self.snapshot_every and round(n_cells) < 2:
            raise ConfigError(
                f"snapshot_every > 0 bins the particles on the cells of level 0,"
                f" but x_max = {self.x_max} holds one cell of dx = {self.dx};"
                " it needs at least two")
        self._check_finest_level()

    def _check_finest_level(self) -> None:
        """Reject a finest level that no run could finish.

        Its step count t_end / dt and cell count x_max / dx must be floats,
        t_end must be a whole number of steps, its kept arrays must fit in
        physical memory, and, checked last, it may take at most MAX_STEPS
        steps.
        """
        up = self.refinement_levels - 1
        dt, dx = math.ldexp(self.dt, -up), math.ldexp(self.dx, -up)
        steps = self.t_end / dt if dt else math.inf
        cells = self.x_max / dx if dx else math.inf
        if not max(steps, cells) < math.inf:
            raise ConfigError(f"at {self.refinement_levels} refinement level(s) the"
                              " finest level's step count t_end / dt or cell count"
                              " x_max / dx is beyond the float range")
        # the solvers take round(t_end / dt) steps
        n = self.t_end / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ConfigError(f"t_end must be a whole number of steps dt:"
                              f" t_end / dt = {n!r}")
        n_steps = int(round(steps))
        self._check_fits_in_memory(n_steps, int(round(cells)))
        if n_steps > MAX_STEPS:
            raise ConfigError(f"the finest level takes {_approx(n_steps)} steps"
                              f" (t_end / dt), more than the {MAX_STEPS:,} a run"
                              " may take")

    def _check_fits_in_memory(self, n_steps: int, n_cells: int) -> None:
        """Reject a finest level whose kept arrays exceed physical memory.

        Counts, in 8-byte values, what the finest level keeps to its end:
        the sampled field (rows x cells, for the grid and for the snapshots
        of a particle-only run, which are binned as they are taken, so their
        rows are all that snapshots keep), the grid's w (rows x cells), the
        frontier samples and one array per particle.  No level keeps a w:
        the writer and verify's potential invariants read it in row blocks
        from its recurrence.  w is still counted because the obstacle
        report builds a whole w on the leading columns it reads, and on the
        whole lattice where that window cannot be used
        (_residual_inputs), so a finest level may briefly hold a w as
        large as its field.  A run whose window is narrow holds less, so
        this can reject one that would just fit.
        """
        memory = _physical_memory()
        if memory is None:
            return
        rows = 1 + -(-n_steps // self.sample_every)
        values, parts = 0, []
        if self.method in ("grid", "both"):
            values += rows * (2 * n_cells + 3)
            parts.append(f"{_approx(rows)} x {_approx(n_cells)} grid field and its w")
        if self.method in ("particle", "both"):
            particles = self.n_particles * 4 ** (self.refinement_levels - 1)
            values += 3 * rows + particles
            parts.append(f"{_approx(particles)} particles")
            if self.method == "particle" and self.snapshot_every:
                snaps = 1 + -(-n_steps // self.snapshot_every)
                values += snaps * n_cells
                parts.append(f"{_approx(snaps)} x {_approx(n_cells)} snapshot field")
        if 8 * values > memory:
            raise ConfigError(f"the finest level keeps at least {_approx(8 * values)}"
                              f" bytes ({', '.join(parts)}), more than the"
                              f" {_approx(memory)} bytes of physical memory")

    def to_dict(self) -> dict:
        return asdict(self)

    def level_params(self, level: int) -> dict:
        """dt and dx halve per level; the particle count quadruples."""
        if not 0 <= level < self.refinement_levels:
            raise ConfigError(f"level {level} outside 0..{self.refinement_levels - 1}")
        return {"dt": self.dt / 2 ** level, "dx": self.dx / 2 ** level,
                "n_particles": self.n_particles * 4 ** level}

    def threshold(self, name: str, default):
        return self.thresholds.get(name, default)


def build_density(spec: dict) -> Density:
    """Construct the supercooling profile named by a config block.

    The block's keys, besides "family", are passed to the family's
    constructor, which completes power_gap and oscillatory to unit mass.
    Any parameter the constructor cannot use (a string, a boolean, in a
    list or not, a non-finite number, a value out of range, a tail it
    refuses) raises ConfigError, and so does a missing key and any key the
    family does not read.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("density config needs a 'family' key")
    fam = spec["family"]
    if not isinstance(fam, str) or fam not in DENSITY_FAMILIES:
        raise ConfigError(f"unknown density family {fam!r};"
                          f" known: {tuple(DENSITY_FAMILIES)}")
    family = DENSITY_FAMILIES[fam]
    keys = inspect.signature(family).parameters
    p = {k: v for k, v in spec.items() if k != "family"}
    unknown = set(p) - set(keys)
    if unknown:
        raise ConfigError(f"density family {fam!r} does not read"
                          f" {sorted(map(str, unknown))}; it reads {list(keys)}")
    missing = [k for k, v in keys.items() if v.default is v.empty and k not in p]
    if missing:
        raise ConfigError(f"density family {fam!r} is missing {missing}")
    # the constructors would read a JSON true as 1, which no number key means
    bools = sorted(str(k) for k, v in p.items() if _has_bool(v))
    if bools:
        raise ConfigError(f"density must be a valid {fam!r} profile:"
                          f" {bools} must be numbers, not booleans")
    # the constructors read a None tail_hi as "not given", but a config's
    # null is no number: only an explicit tail makes tail_hi unread
    if "tail_hi" in p and p["tail_hi"] is None and p.get("tail_breaks") is None:
        raise ConfigError("density tail_hi must be a number")
    try:
        # arithmetic that overflows (a power_gap delta of 1e154, say)
        # refuses the profile like any other invalid parameter
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return family(**p)
    except (TypeError, ValueError, ArithmeticError) as exc:
        # ConfigError is a ValueError: every refusal names the density block
        raise ConfigError(f"density must be a valid {fam!r} profile: {exc}") from None


def scenario_from_json(path) -> ScenarioConfig:
    return scenario_from_dict(read_json(path))


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("a scenario config must be a JSON object")
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"scenario_id", "density", "alpha"} - set(raw)
    if missing:
        raise ConfigError(f"config is missing {sorted(missing)}")
    return ScenarioConfig(**raw)


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply 'dotted.path=value' strings on top of an existing config.

    A derived x_max is recomputed from the overridden fields unless an
    override sets x_max itself.
    """
    raw = cfg.to_dict()
    if cfg._x_max_derived:
        raw["x_max"] = None
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, text = item.split("=", 1)
        parts = key.split(".")
        node = raw
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"override path {key!r} does not exist")
            node = node[part]
        leaf = parts[-1]
        if len(parts) == 1 and leaf not in node:
            raise ConfigError(f"override key {leaf!r} is not a config field")
        node[leaf] = _parse_value(text)
    return scenario_from_dict(raw)


def _parse_value(text: str):
    s = text.strip()
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    if s.startswith("[") or s.startswith("{"):
        try:
            return json.loads(s)
        except json.JSONDecodeError:
            raise ConfigError(f"override value {s!r} is not valid JSON") from None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


@dataclass
class LevelResult:
    """Everything one refinement level produced, per method.

    The grid route's potential w is not kept: whatever reads it (the
    artifact writer, the potential invariants) computes it from field in
    row blocks (potential.w_rows) and holds one block at a time.
    """

    level: int
    params: dict
    frontier: FrontierPath | None = None          # grid route
    field: Field | None = None
    nu: WeightField | None = None
    profile: object = None
    jumps: list = dc_field(default_factory=list)  # recovered from the path
    p_frontier: FrontierPath | None = None        # particle route
    p_field: Field | None = None
    p_jumps: list = dc_field(default_factory=list)
    reports: dict = dc_field(default_factory=dict)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    levels: list
    summary: dict
    outpath: str | None = None


def jump_threshold(cfg: ScenarioConfig, method: str, level: int) -> float:
    """Smallest frontier increment detect_jumps records as a jump."""
    p = cfg.level_params(level)
    if method == "grid":
        return cfg.threshold("jump_threshold", 3.0 * p["dx"])
    # the floor must exceed both the registry noise (a few particles) and the
    # largest per-step smooth advance, else consecutive creep increments
    # chain into one fake jump record
    return cfg.threshold("jump_threshold",
                         max(5.0 * cfg.alpha / p["n_particles"],
                             10.0 * cfg.alpha * p["dt"]))


def analyze_route(cfg: ScenarioConfig, method: str, frontier: FrontierPath,
                  fld: Field, nu: WeightField | None, thr: float):
    """Jumps above thr, the classified freezing profile, and the reports:
    obstacle (when nu is given), speed, non-degeneracy and the method's
    record.  Returns (jumps, profile, reports); run_level calls it in
    memory, the analyze command on the artifacts on disk.  The obstacle
    report's w covers only the columns it reads (_residual_inputs), and
    none is returned.  Each step is called through this module's globals,
    where perfbench/spans.py wraps it.
    """
    jumps = detect_jumps(frontier, thr)
    prof = classify_points(
        freezing_time(frontier, fld.x), fld, jumps,
        eps_u=cfg.threshold("eps_u", None),
        endpoint_band=cfg.threshold("endpoint_band", None))
    reports: dict = {}
    if nu is not None:
        eps_w = cfg.threshold("eps_w", None)
        w, nu_w = _residual_inputs(fld, nu, eps_w)
        try:
            reports["obstacle"] = obstacle_residual(
                w, nu_w, interior_margin=cfg.threshold("interior_margin", 0.1),
                eps_w=eps_w).to_dict()
        except ConfigError as exc:
            reports["obstacle"] = {"error": str(exc)}
    reports["speed"] = speed_formula_check(prof, fld).to_dict()
    try:
        reports["nondegeneracy_constant"] = nondegeneracy_constant(
            fld, frontier,
            window=(cfg.threshold("nondeg_t_lo", 0.2 * cfg.t_end), cfg.t_end),
            r=cfg.threshold("nondeg_r", 0.25))
    except ConfigError as exc:
        reports["nondegeneracy_constant"] = None
        reports["nondegeneracy_error"] = str(exc)
    reports[method] = {**_route_record(frontier, jumps),
                       "surviving_mass": fld.mass_at(-1),
                       "fraction_unresolved": prof.fraction_unresolved()}
    return jumps, prof, reports


def _residual_inputs(fld: Field, nu: WeightField, eps_w: float | None):
    """w and nu on the leading columns obstacle_residual's report reads.

    The window is potential.residual_window's; on it the report equals the
    whole lattice's bit for bit, given the two conditions left to this
    caller, checked here: eps_w >= 0, and a positive w inside the window on
    every row but the last.  Where they fail, or nu is not on fld's grid
    (an error the report must still raise), w and nu cover the whole
    lattice.
    """
    nx = len(fld.x)
    c = nx
    if len(nu.nu) == nx and (eps_w is None or eps_w >= 0):
        c = residual_window(fld)
    if c < nx:
        w = compute_w(replace(fld, x=fld.x[:c], values=fld.values[:, :c]))
        if np.isfinite(w.front()[:-1]).all():
            return w, replace(nu, x=nu.x[:c], nu=nu.nu[:c],
                              recorded=nu.recorded[:c])
    return compute_w(fld), nu


def _route_record(frontier: FrontierPath, jumps: list) -> dict:
    return {"lambda_0": frontier.lambda_0, "lambda_end": frontier.lambda_end,
            "n_jumps_registry": len(frontier.jumps),
            "n_jumps_detected": len(jumps),
            "jumps_detected": [rec.to_dict() for rec in jumps]}


def _particle_route(cfg: ScenarioConfig, level: int, d: Density):
    """The particle run of one level and its detected jumps: (frontier, field, jumps)."""
    p = cfg.level_params(level)
    ens = pt.init_ensemble(d, p["n_particles"], seed=cfg.seed,
                           sampling=cfg.sampling, alpha=cfg.alpha)
    thr = jump_threshold(cfg, "particle", level)
    # a method="both" level writes the grid's field, so only a
    # particle-only run takes snapshots, binned on the level's cells
    every = cfg.snapshot_every if cfg.method == "particle" else 0
    x_grid = (np.arange(int(round(cfg.x_max / p["dx"]))) + 0.5) * p["dx"] if every else None
    frontier, fld = pt.run(ens, t_end=cfg.t_end, dt=p["dt"],
                           sample_every=cfg.sample_every, jump_threshold=thr,
                           snapshot_every=every, x_grid=x_grid)
    return frontier, fld, detect_jumps(frontier, thr)


def run_level(cfg: ScenarioConfig, level: int, d: Density) -> LevelResult:
    """Run cfg's method(s) on one refinement level, with their analysis.

    Everything runs in the calling process: a "both" level runs its grid
    route and that route's analysis, then its particle route.  The analysis
    builds w only on the columns its obstacle report reads (a fifth of the
    field on the benchmark's finest level), and the level keeps no w.
    """
    p = cfg.level_params(level)
    res = LevelResult(level=level, params=dict(p))

    if cfg.method in ("grid", "both"):
        thr = jump_threshold(cfg, "grid", level)
        frontier, fld, nu = run_grid(
            d, alpha=cfg.alpha, t_end=cfg.t_end, dt=p["dt"], dx=p["dx"],
            x_max=cfg.x_max, sample_every=cfg.sample_every, jump_threshold=thr)
        res.frontier, res.field, res.nu = frontier, fld, nu
        res.jumps, res.profile, res.reports = analyze_route(
            cfg, "grid", frontier, fld, nu, thr)

    if cfg.method in ("particle", "both"):
        res.p_frontier, res.p_field, res.p_jumps = _particle_route(cfg, level, d)
        res.reports["particle"] = {**_route_record(res.p_frontier, res.p_jumps),
                                   "n_particles": p["n_particles"]}

    if cfg.method == "both":
        res.reports["compare"] = _compare_paths(res.frontier, res.p_frontier,
                                                cfg, p["dt"])
    return res


def _compare_paths(g: FrontierPath, p: FrontierPath, cfg: ScenarioConfig,
                   dt: float) -> dict:
    """Distance between the two frontier routes on the grid path's times.

    An initial jump is instantaneous on the grid but takes the particles a
    few steps to realize (each needs a diffusive excursion into the frontier
    before the cascade closes), so the sup also comes with a short burn-in
    window removed.
    """
    ts = g.times
    pv = p.value_at(ts)
    diff = np.abs(g.lam - pv)
    dts = np.diff(ts)
    l1 = float(np.sum(0.5 * (diff[:-1] + diff[1:]) * dts)) if len(ts) > 1 else 0.0
    burn = 10.0 * dt
    late = ts >= burn
    sup_burned = float(np.max(diff[late])) if late.any() else float(np.max(diff))
    return {"sup_distance": float(np.max(diff)),
            "sup_distance_after_burn_in": sup_burned,
            "burn_in": burn,
            "sup_distance_rel_alpha":
                float(sup_burned / cfg.alpha) if cfg.alpha else 0.0,
            "l1_distance": l1,
            "lambda_end_grid": g.lambda_end,
            "lambda_end_particle": p.lambda_end}


def _level_summary(res: LevelResult) -> dict:
    return {"level": res.level, "params": res.params, **res.reports}


def _write_level(lvl_dir: Path, res: LevelResult) -> list[str]:
    """Write one level's artifacts into lvl_dir; returns the file names.

    A grid level's w.npy is written block by block as potential.w_rows
    computes it, so no whole w is held.
    """
    fr = res.frontier if res.frontier is not None else res.p_frontier
    fld = res.field if res.field is not None else res.p_field
    if fld is not None:
        w = None if res.field is None else w_rows(res.field)
        return write_field_artifacts(lvl_dir, fr, fld, nu=res.nu, w=w,
                                     profile=res.profile)
    # particle run without snapshots still leaves the frontier
    lvl_dir.mkdir(parents=True, exist_ok=True)
    write_frontier_csv(lvl_dir / "frontier.csv", fr)
    write_jumps_json(lvl_dir / "jumps.json", fr.jumps)
    return ["frontier.csv", "jumps.json"]


def run_dir(cfg: ScenarioConfig) -> Path:
    """The directory run_scenario writes cfg's artifacts into."""
    return Path(cfg.outdir) / cfg.scenario_id


def run_scenario(cfg: ScenarioConfig, write: bool = True) -> ScenarioResult:
    """Run cfg's ladder, and with write, its artifacts, summary and meta.

    The levels run from the finest down, so the finest level's analysis,
    the largest transient of a ladder, never sits on top of the coarse
    levels' fields; they are returned in ascending order.  So a ladder
    that aborts may do so after its finer levels have run, and where
    several levels would abort, it raises the finest one's NumericalAbort.
    With write, the levels are written in ascending order once all have
    run (_write_level), and the finest level's files copied to the root.
    """
    d = build_density(cfg.density)
    levels = [run_level(cfg, level, d=d)
              for level in reversed(range(cfg.refinement_levels))][::-1]
    summary = {
        "scenario_id": cfg.scenario_id,
        "config": cfg.to_dict(),
        "levels": [_level_summary(res) for res in levels],
    }
    outpath = None
    if write:
        root = run_dir(cfg)
        # each level is formatted once, under L{k}; the finest level's files
        # are then copied flat to the scenario root, so single-level
        # consumers see the canonical layout.  Copies, not links: editing a
        # root file must leave L{k} intact.
        written = [_write_level(root / f"L{res.level}", res) for res in levels]
        finest = root / f"L{levels[-1].level}"
        for name in written[-1]:
            shutil.copyfile(finest / name, root / name)
        write_json(root / "summary.json", summary)
        write_json(root / "meta.json",
                   {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "format": 2, "versions": _versions()})
        outpath = str(root)
    return ScenarioResult(config=cfg, levels=levels, summary=summary,
                          outpath=outpath)


def _versions() -> dict:
    """The package, Python, numpy and scipy versions; scipy's from its
    installed metadata (None if none), so a particle run loads no scipy."""
    import importlib.metadata
    from stefanlab import __version__
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"stefanlab": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy}


def compare_methods(cfg: ScenarioConfig) -> dict:
    """Run both solvers at matched resolution and report their distance."""
    both = scenario_from_dict({**cfg.to_dict(), "method": "both"})
    result = run_scenario(both, write=False)
    return {"scenario_id": cfg.scenario_id,
            "levels": [{"level": res.level, **res.reports["compare"]}
                       for res in result.levels]}


# ---------------------------------------------------------------------------
# invariant registry


def _verdict(ok, detail: str) -> dict:
    return {"verdict": "pass" if ok else "fail", "detail": detail}


def _skip(reason: str) -> dict:
    return {"verdict": "skip", "detail": reason}


def _osc_reference_value(x, alpha1, alpha2, a1, p, q, n_levels):
    """Two-case direct evaluation of the oscillation levels, fill included."""
    r = p * q
    for n in range(1, n_levels + 1):
        a_odd = r ** (n - 1) * a1
        a_even = p * r ** (n - 1) * a1
        a_next = r ** n * a1
        if a_even <= x < a_odd:
            return alpha1
        if a_next <= x < a_even:
            return alpha2
    if 0 < x < r ** n_levels * a1:
        return alpha1
    return None


def _iv_cdf_monotone(ctx):
    d = ctx["density"]
    xs = np.linspace(-0.5, d.support_max + 1.0, 4001)
    worst = float(np.min(np.diff(d.cdf(xs))))
    return _verdict(worst >= -1e-15, f"min cdf increment {worst:.3e}")


def _iv_cdf_total_mass(ctx):
    d = ctx["density"]
    tail = float(d.cdf(d.support_max))
    beyond = float(d.cdf(d.support_max + 5.0))
    ok = abs(tail - 1.0) <= 1e-12 and abs(beyond - 1.0) <= 1e-12
    return _verdict(ok, f"cdf at support end {tail!r}, beyond {beyond!r}")


def _iv_cdf_lipschitz(ctx):
    d = ctx["density"]
    bound = float(np.max(d.values)) if len(d.values) else 0.0
    xs = np.linspace(0.0, d.support_max, 2001)
    h = xs[1] - xs[0]
    worst = float(np.max(np.diff(d.cdf(xs))))
    ok = worst <= bound * h + 1e-12
    return _verdict(ok, f"max cdf increment {worst:.3e} within the Lipschitz "
                        f"bound {bound * h:.3e}: no atoms")


def _iv_power_gap_bound(ctx):
    cfg = ctx["cfg"]
    if cfg.density.get("family") != "power_gap":
        return _skip("density is not the power-gap family")
    d, p = ctx["density"], cfg.density
    rng = pt._stream(cfg.seed, pt.INIT_STREAM)
    xs = rng.uniform(1e-9, p["delta"] * (1 - 1e-9), 200)
    target = d.norm_factor * (1.0 / p["alpha"] - p["c"] * xs ** p["n"])
    worst = float(np.max(d.value_at(xs) - target))
    return _verdict(worst <= 1e-12,
                    f"max excess over the power-gap curve: {worst:.3e}")


def _iv_oscillatory_reference(ctx):
    cfg = ctx["cfg"]
    if cfg.density.get("family") != "oscillatory":
        return _skip("density is not the oscillatory family")
    d, p = ctx["density"], cfg.density
    args = (p["alpha1"], p["alpha2"], p["a1"], p["p"], p["q"], p["n_levels"])
    r = p["p"] * p["q"]
    rng = pt._stream(cfg.seed + 1, pt.INIT_STREAM)
    bad = checked = 0
    for level in range(p["n_levels"] + 1):
        hi = r ** level * p["a1"]
        lo = r ** (level + 1) * p["a1"] if level < p["n_levels"] else 0.0
        for x in rng.uniform(lo + 1e-12, hi * (1 - 1e-9), 30):
            expect = _osc_reference_value(x, *args)
            if expect is None:
                continue
            checked += 1
            if abs(float(d.value_at(x)) - d.norm_factor * expect) > 1e-9:
                bad += 1
    return _verdict(bad == 0 and checked > 0,
                    f"{bad} of {checked} sampled points off the two-level "
                    "reference")


def _iv_cascade_monotone(ctx):
    d, cfg = ctx["density"], ctx["cfg"]
    n = 512
    pos = np.sort(d.quantile((np.arange(n) + 0.5) / n))
    deltas = [cascade_jump(pos, 0.0, k0, cfg.alpha, n).delta for k0 in range(9)]
    ok = bool(np.all(np.diff(deltas) >= -1e-12))
    return _verdict(ok, "cascade size over seed count: "
                        + ", ".join(f"{v:.4f}" for v in deltas))


def _iv_continuum_particle_consistency(ctx):
    d, cfg = ctx["density"], ctx["cfg"]
    if cfg.alpha == 0:
        return _skip("alpha = 0 never jumps")
    delta_cont = continuum_jump(d.cdf, 0.0, cfg.alpha,
                                density_knots(d, 0.0, cfg.alpha)).delta
    details, gaps = [], []
    for n in (1_000, 10_000, 100_000):
        # sorted in place: the quantile's output is this loop's own
        pos = d.quantile((np.arange(n) + 0.5) / n)
        pos.sort()
        delta_n = cascade_jump(pos, 0.0, 1, cfg.alpha, n).delta
        gaps.append(abs(delta_n - delta_cont))
        details.append(f"N={n}: gap {gaps[-1]:.2e}")
    # data tangent to the critical slope at the frontier slows the N-rate
    # below 1/N (the cascade rides the fluctuation band until the shortfall
    # outgrows it), so demand either the Lipschitz-rate floor or a clear
    # decay of the gap across the ladder, never an absolute small number
    floor = 3.0 * cfg.alpha / 100_000 + 3e-3
    monotone = all(b <= a * (1 + 1e-9) + 1e-12
                   for a, b in zip(gaps, gaps[1:]))
    ok = monotone and (gaps[-1] <= floor or gaps[-1] <= gaps[0] / 3.0)
    return _verdict(ok, "; ".join(details)
                    + f"; floor {floor:.2e}, monotone={monotone}")


def _iv_infimum_property(ctx):
    d, cfg = ctx["density"], ctx["cfg"]
    if cfg.alpha == 0:
        return _skip("alpha = 0 never jumps")
    delta = continuum_jump(d.cdf, 0.0, cfg.alpha,
                           density_knots(d, 0.0, cfg.alpha)).delta
    if delta <= 2e-3:
        return _verdict(True, f"initial jump {delta:.3e} too short to probe;"
                              " infimum vacuous")
    xs = np.linspace(1e-6, delta - 1e-6, 200)
    shortfall = xs / cfg.alpha - (d.cdf(xs) - float(d.cdf(0.0)))
    worst = float(np.max(shortfall))
    return _verdict(worst <= 1e-9,
                    f"max swept-mass shortfall below the jump: {worst:.3e}")


def _iv_particle_mass_identity(ctx):
    fr = ctx["levels"][0].p_frontier
    if fr is None:
        return _skip("no particle run in this scenario")
    expect = fr.alpha * fr.dead_count / fr.n_total
    exact = bool(np.array_equal(expect, fr.lam))
    return _verdict(exact, "lam identical to alpha * dead / n at every sample"
                    if exact else "mass identity broken")


def _iv_particle_bounded_monotone(ctx):
    fr = ctx["levels"][0].p_frontier
    if fr is None:
        return _skip("no particle run in this scenario")
    ok = bool(np.all(np.diff(fr.lam) >= 0)) and fr.lambda_end <= fr.alpha + 1e-12
    return _verdict(ok, f"lambda_end {fr.lambda_end:.6f} <= alpha {fr.alpha}")


def _iv_particle_bit_reproducible(ctx):
    cfg = ctx["cfg"]
    if cfg.method == "grid":
        return _skip("no particle run in this scenario")
    d = ctx["density"]
    p = cfg.level_params(0)
    blobs = []
    for _ in range(2):
        ens = pt.init_ensemble(d, p["n_particles"], seed=cfg.seed,
                               sampling=cfg.sampling, alpha=cfg.alpha)
        fr, _ = pt.run(ens, t_end=min(cfg.t_end, 50 * p["dt"]), dt=p["dt"])
        blobs.append(fr.lam.tobytes())
    same = blobs[0] == blobs[1]
    return _verdict(same, "two seeded reruns byte-identical" if same
                    else "reruns diverged")


def _iv_particle_convergence(ctx):
    cfg = ctx["cfg"]
    if cfg.method == "grid":
        return _skip("no particle run in this scenario")
    d = ctx["density"]
    dt = cfg.level_params(0)["dt"]
    t_end = min(cfg.t_end, 200 * dt)
    ends = {}
    for n in (1_000, 10_000, 100_000):
        ens = pt.init_ensemble(d, n, seed=cfg.seed + 7, sampling=cfg.sampling,
                               alpha=cfg.alpha)
        fr, _ = pt.run(ens, t_end=t_end, dt=dt, sample_every=10 ** 9)
        ends[n] = fr.lambda_end
    e3 = abs(ends[1_000] - ends[100_000])
    e4 = abs(ends[10_000] - ends[100_000])
    noise = 3.0 * cfg.alpha * 0.5 / np.sqrt(1_000)
    ok = e4 <= e3 + noise
    return _verdict(ok, f"|gap to N=1e5| at N=1e3: {e3:.3e}, N=1e4: {e4:.3e}"
                        f" (allowance {noise:.3e})")


def _iv_grid_mass_balance(ctx):
    res = ctx["levels"][0]
    if res.frontier is None:
        return _skip("no grid run in this scenario")
    fld, fr = res.field, res.frontier
    masses = np.array([fld.mass_at(k) for k in range(len(fld.t))])
    if fr.alpha > 0:
        drift = np.abs(fr.value_at(fld.t) / fr.alpha + masses - 1.0)
        what = "|lam/alpha + mass - 1|"
    elif ctx["cfg"].sample_every == 1:
        # the front stays at x = 0, and each implicit step drains (dt/dx) u[0]
        # through the Dirichlet face there
        outflow = np.diff(fld.t) / fld.dx * fld.values[1:, 0]
        drift = np.abs(masses[:-1] - masses[1:] - outflow)
        what = "|mass loss - (dt/dx) u[0]| per step"
    else:
        return _skip("alpha = 0 drains mass through x = 0, checkable only"
                     " between consecutive steps (sample_every = 1)")
    worst = float(np.max(drift))
    return _verdict(worst <= 1e-8, f"max {what} = {worst:.2e}")


def _iv_grid_nu_integral(ctx):
    res = ctx["levels"][0]
    if res.nu is None:
        return _skip("no grid run in this scenario")
    fr, nu = res.frontier, res.nu
    if fr.alpha == 0:
        return _skip("alpha = 0 leaves no stopped mass")
    gap = abs(nu.integral() - fr.lambda_end / fr.alpha)
    tol = 2.0 * nu.dx * float(np.max(nu.nu)) + 1e-3
    return _verdict(gap <= tol,
                    f"|integral of nu - lambda/alpha| = {gap:.3e}, tol {tol:.3e}")


def _iv_grid_decay_bound(ctx):
    res = ctx["levels"][0]
    if res.field is None:
        return _skip("no grid run in this scenario")
    fld = res.field
    dt0 = fld.t[1] - fld.t[0] if len(fld.t) > 1 else 0.0
    rows = fld.t >= 10 * dt0
    if not rows.any():
        return _skip("horizon too short for the decay window")
    # each row's maximum in place, then the rows kept: no copy of the rows
    peak = np.max(fld.values, axis=1)[rows] * np.sqrt(2 * np.pi * fld.t[rows])
    worst = float(np.max(peak))
    return _verdict(worst <= 1.05,
                    f"max of u_max(t) sqrt(2 pi t) = {worst:.4f} (bound 1)")


def _time_integral(u: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Per column, the sum over k of the trapezoid 0.5 (u[k] + u[k+1]) dts[k].

    The trapezoid rows are made SCAN_ROWS at a time in one buffer and added
    one at a time, in row order, to zeros.  np.sum(rows, axis=0) adds them
    so on two or more columns (a -0.0 sum comes out +0.0 there too), so
    this is its sum bit for bit; on one column numpy sums pairwise instead.
    """
    buf = np.empty((min(SCAN_ROWS, len(dts)), u.shape[1]))
    integral = np.zeros(u.shape[1])
    for lo, d in row_blocks(dts):
        inc = np.add(u[lo:lo + len(d)], u[lo + 1:lo + len(d) + 1], out=buf[:len(d)])
        inc *= 0.5
        inc *= d[:, None]
        for row in inc:
            integral += row
    return integral


def _iv_grid_time_integral(ctx):
    res = ctx["levels"][0]
    if res.field is None:
        return _skip("no grid run in this scenario")
    fld = res.field
    dts = np.diff(fld.t)
    slack = 2 * fld.dx + float(np.max(fld.values[0])) * float(np.max(dts))
    worst = float(np.max(_time_integral(fld.values, dts) - 2.0 * fld.x - slack))
    return _verdict(worst <= 0, f"max of (integral of u dt) - 2x: {worst:.3e}"
                                f" below slack {slack:.3e}")


def _iv_potential_nonnegative(ctx):
    res = ctx["levels"][0]
    if res.field is None:
        return _skip("no potential in this scenario")
    worst = float(np.min([rows.min() for _, rows in w_rows(res.field)]))
    return _verdict(worst >= -1e-12, f"min w = {worst:.3e}")


def _iv_potential_band_agreement(ctx):
    res = ctx["levels"][0]
    fld = res.field
    if fld is None:
        return _skip("no potential in this scenario")
    try:
        eps = default_eps_w(fld.dx, fld.alpha)
    except ConfigError as exc:
        return _skip(f"no positivity floor: {exc}")
    # only columns that froze within the horizon carry a well-defined s.
    # the last w row is zero by construction (empty tail integral), so the
    # freeze time alone cannot tell live columns apart; the final
    # temperature can, and only exact zero works: absorption zeroes cells
    # exactly, while far-tail live columns hold tiny positive diffusion
    frozen_cols = fld.values[-1] == 0.0
    if not frozen_cols.any():
        return _skip("no column froze within the horizon")
    x, t, dx = fld.x, fld.t, fld.dx
    # w is read twice in w_rows' blocks: once for each column's freeze time
    # s and each row's frontier, once to count mismatches
    first, front = np.full(len(x), len(t)), np.empty(len(t))
    for lo, rows in w_rows(fld):
        scan_first_zero(first, lo, rows)
        scan_first_positive(front, lo, rows, x)
    s_col = np.append(t, np.inf)[first]
    # mismatches may only sit where w is climbing through eps: within a few
    # cells of the frontier, inside a jump interval (linear drainage there
    # stretches the sub-eps band to the jump width), or within the time the
    # drainage rate needs to cross eps.  The last form matters when the
    # frontier is fast: the sub-eps strip is thin in time, eps over the
    # local temperature, but its spatial footprint scales with the speed.
    # A drainage plateau of tiny positive w would still exceed it and flag
    near_jump = np.zeros(len(x), dtype=bool)
    for rec in res.jumps:
        near_jump |= (x >= rec.lambda_minus - dx) & (x <= rec.lambda_plus + dx)
    u_col = np.max(fld.values, axis=0)
    with np.errstate(divide="ignore"):
        time_allow = np.where(u_col > 0, 3.0 * eps / np.maximum(u_col, 1e-300),
                              np.inf)
    # a node mismatches where w > eps (live) differs from t < s (should be
    # liquid), and the allowance is formed only in blocks that hold one
    n_mismatch = n_stray = 0
    for lo, rows in w_rows(fld):
        t_col = t[lo:lo + len(rows), None]
        mismatch = (rows > eps) != (t_col < s_col)
        mismatch &= frozen_cols
        k = int(np.count_nonzero(mismatch))
        if not k:
            continue
        n_mismatch += k
        allowed = np.abs(x - front[lo:lo + len(rows), None]) <= 4 * dx + 1e-12
        allowed |= near_jump
        allowed |= (s_col - t_col) <= time_allow
        n_stray += int(np.count_nonzero(mismatch & ~allowed))
    if not n_mismatch:
        return _verdict(True, "positivity set and liquid set agree on every"
                              " frozen column")
    return _verdict(n_stray == 0,
                    f"{n_mismatch} mismatched nodes, {n_stray} outside"
                    " the frontier band, jump intervals, and drainage strip")


def _iv_potential_complementarity(ctx):
    # the level's obstacle report: its region and complementarity slack do
    # not depend on eps_w, so the config's eps_w does not change them
    res = ctx["levels"][0]
    rep = res.reports.get("obstacle")
    if rep is None:
        return _skip("no potential in this scenario")
    if "error" in rep:
        return _skip(f"residual region unavailable: {rep['error']}")
    if rep["n_nodes"] == 0:
        return _skip("interior region is empty at this resolution")
    tol = ctx["cfg"].threshold("complementarity_tol", None)
    if tol is None:
        tol = 20.0 * default_eps_w(res.field.dx, res.field.alpha)
    return _verdict(rep["complementarity_max"] <= tol,
                    f"max over region of |min(w, w_t - w_xx/2 + nu)| ="
                    f" {rep['complementarity_max']:.3e}, tol {tol:.3e}")


def _iv_s_monotone(ctx):
    prof = ctx["levels"][0].profile
    if prof is None:
        return _skip("no freezing profile in this scenario")
    s = prof.s[np.isfinite(prof.s)]
    worst = float(np.min(np.diff(s))) if len(s) > 1 else 0.0
    return _verdict(worst >= -1e-12, f"min s increment {worst:.3e}")


def _constancy_runs(x: np.ndarray, s: np.ndarray) -> list:
    runs = []
    k = 0
    while k < len(s) - 1:
        j = k
        while j + 1 < len(s) and s[j + 1] == s[k]:
            j += 1
        if j > k:
            runs.append((float(x[k]), float(x[j])))
        k = j + 1
    return runs


def _iv_s_constant_on_jumps(ctx):
    res = ctx["levels"][0]
    prof = res.profile
    if prof is None:
        return _skip("no freezing profile in this scenario")
    if not res.jumps:
        return _skip("no jumps detected in this scenario")
    dx = res.field.dx
    cutoff = max(4 * dx, jump_threshold(ctx["cfg"], "grid", 0))
    bad = []
    for rec in res.jumps:
        inside = (prof.x > rec.lambda_minus + 2 * dx) & \
                 (prof.x < rec.lambda_plus - 2 * dx)
        if inside.sum() < 2:
            continue
        vals = prof.s[inside]
        vals = vals[np.isfinite(vals)]
        if len(vals) and float(np.ptp(vals)) > 1e-12:
            bad.append(rec.t)
    fin = np.isfinite(prof.s)
    runs = _constancy_runs(prof.x[fin], prof.s[fin])
    stray = [r for r in runs if r[1] - r[0] > cutoff and not any(
        rec.lambda_minus - 2 * dx <= r[0] and r[1] <= rec.lambda_plus + 2 * dx
        for rec in res.jumps)]
    ok = not bad and not stray
    return _verdict(ok, f"jumps with varying s inside: {bad or 'none'};"
                        f" long constancy runs outside jumps: {len(stray)}")


def _iv_s_prime_nonnegative(ctx):
    prof = ctx["levels"][0].profile
    if prof is None:
        return _skip("no freezing profile in this scenario")
    sp = prof.s_prime[np.isfinite(prof.s_prime)]
    worst = float(np.min(sp)) if len(sp) else 0.0
    return _verdict(worst >= -1e-9, f"min s' = {worst:.3e}")


def _iv_unresolved_refines(ctx):
    fracs = [res.profile.fraction_unresolved() for res in ctx["levels"]
             if res.profile is not None]
    if len(fracs) < 2:
        return _skip("needs at least two refinement levels with profiles")
    ok = fracs[-1] <= fracs[0] + 0.05
    return _verdict(ok, f"unresolved fraction per level:"
                        f" {[round(f, 4) for f in fracs]}")


def _iv_jump_endpoint_slope(ctx):
    # the frontier accelerates without bound into a jump and restarts with
    # unbounded speed after one, so |s'| probed just beside the edges must
    # not grow under refinement.  The restart half only holds when the jump
    # lands in live material: landing in initial vacuum leaves the frontier
    # diffusion limited, with a legitimately steep s' beyond the edge, so
    # that side is gated on the initial density being positive at the probe.
    d = ctx["density"]
    vals = []
    for res in ctx["levels"]:
        if res.profile is None or not res.jumps:
            continue
        prof, dx = res.profile, res.field.dx
        worst, measured = 0.0, 0
        for rec in res.jumps:
            for edge, side in ((rec.lambda_minus, -1.0), (rec.lambda_plus, 1.0)):
                xq = edge + side * 3 * dx
                if xq <= 0:
                    continue
                if side > 0 and rec.t <= 0:
                    band = np.linspace(edge + 0.5 * dx, xq + dx, 5)
                    if np.min(d.value_at(band)) <= 0:
                        continue
                i = int(np.argmin(np.abs(prof.x - xq)))
                if np.isfinite(prof.s_prime[i]):
                    worst = max(worst, abs(float(prof.s_prime[i])))
                    measured += 1
        if measured:
            vals.append(worst)
    if len(vals) < 2:
        return _skip("needs two refinement levels with measurable jump edges")
    ok = vals[-1] <= vals[0] + 1e-9 or vals[-1] <= 0.05
    return _verdict(ok, f"worst |s'| beside jump edges per level:"
                        f" {[f'{v:.3e}' for v in vals]}")


def _iv_slope_modulus_stable(ctx):
    # compare the slope modulus on one common window, cut where the frontier
    # approaches the horizon: there s' legitimately steepens, and each finer
    # level would otherwise resolve new columns closer to the cut and report
    # a larger step without any instability of s itself.  Jump intervals are
    # excised with coarsest-level padding: a step across a jump edge measures
    # the corner of s there, not the modulus of the creeping stretches
    t_cap = 0.7 * ctx["cfg"].t_end
    pad = ctx["cfg"].dx
    excl = []
    for res in ctx["levels"]:
        for rec in res.jumps or []:
            excl.append((rec.lambda_minus - 2 * pad, rec.lambda_plus + 6 * pad))
    profs = [res.profile for res in ctx["levels"] if res.profile is not None]
    x_caps = []
    for prof in profs:
        inside = np.isfinite(prof.s) & (prof.s <= t_cap)
        if inside.any():
            x_caps.append(float(np.max(prof.x[inside])))
    if len(x_caps) < 2:
        return _skip("needs two refinement levels with slopes inside the cut")
    x_cap = min(x_caps)
    mods = []
    for prof in profs:
        keep = prof.x <= x_cap + 1e-12
        for lo, hi in excl:
            keep &= (prof.x < lo) | (prof.x > hi)
        sp = np.where(keep, prof.s_prime, np.nan)
        steps = np.diff(sp)
        steps = steps[np.isfinite(steps)]
        if len(steps):
            mods.append(float(np.max(np.abs(steps))))
    if len(mods) < 2:
        return _skip("needs two refinement levels with finite slopes")
    a, b = mods[-2], mods[-1]
    ok = b <= 1.3 * a + 1e-9
    return _verdict(ok, f"max |s' step| on the two finest levels:"
                        f" {a:.3e} -> {b:.3e}")


def _iv_compare_frontier(ctx):
    res = ctx["levels"][-1]
    rep = res.reports.get("compare")
    if rep is None:
        return _skip("scenario does not run both methods")
    cfg = ctx["cfg"]
    n = res.params["n_particles"]
    tol = 0.05 * cfg.alpha + 3 * cfg.alpha / (2 * np.sqrt(n)) \
        + 2 * res.params["dx"]
    sup = rep["sup_distance_after_burn_in"]
    ok = sup <= tol
    return _verdict(ok, f"sup |particle - grid| = {sup:.4f} after burn-in"
                        f" {rep['burn_in']:.2e}, tol {tol:.4f}"
                        f" (full-range sup {rep['sup_distance']:.4f})")


def _iv_compare_jumps(ctx):
    # records that start inside the burn-in window are excluded: both lanes
    # realize initial jumps and near-critical early creep over the first few
    # steps, at rates that chain into records in one lane but not the other.
    # Genuine mid-run jumps land well past the window in both lanes
    res = ctx["levels"][-1]
    if res.reports.get("compare") is None:
        return _skip("scenario does not run both methods")
    n = res.params["n_particles"]
    floor = 10.0 * max(ctx["cfg"].alpha / n, res.params["dx"])
    burn = 10.0 * res.params["dt"]
    big_g = [rec for rec in res.jumps if rec.delta > floor and rec.t >= burn]
    big_p = [rec for rec in res.p_jumps if rec.delta > floor and rec.t >= burn]
    ok = len(big_g) == len(big_p)
    return _verdict(ok, f"jumps above {floor:.3f} after burn-in {burn:.2e}:"
                        f" grid {len(big_g)}, particle {len(big_p)}")


def _iv_summary_deterministic(ctx):
    cfg = ctx["cfg"]
    small = scenario_from_dict({**cfg.to_dict(), "refinement_levels": 1,
                                "t_end": min(cfg.t_end, 200 * cfg.dt)})
    blobs = []
    for _ in range(2):
        result = run_scenario(small, write=False)
        blobs.append(json.dumps(jsonify(result.summary), sort_keys=True))
    same = blobs[0] == blobs[1]
    return _verdict(same, "level-0 rerun summaries byte-identical" if same
                    else "summaries differ between reruns")


INVARIANT_REGISTRY = (
    ("density.cdf_monotone", _iv_cdf_monotone),
    ("density.cdf_total_mass", _iv_cdf_total_mass),
    ("density.cdf_lipschitz", _iv_cdf_lipschitz),
    ("density.power_gap_bound", _iv_power_gap_bound),
    ("density.oscillatory_reference", _iv_oscillatory_reference),
    ("jump.cascade_monotone_in_seed", _iv_cascade_monotone),
    ("jump.continuum_particle_consistency", _iv_continuum_particle_consistency),
    ("jump.infimum_property", _iv_infimum_property),
    ("particle.mass_identity", _iv_particle_mass_identity),
    ("particle.frontier_bounded_monotone", _iv_particle_bounded_monotone),
    ("particle.bit_reproducible", _iv_particle_bit_reproducible),
    ("particle.convergence_in_n", _iv_particle_convergence),
    ("grid.mass_balance", _iv_grid_mass_balance),
    ("grid.nu_integral_matches_frontier", _iv_grid_nu_integral),
    ("grid.decay_bound", _iv_grid_decay_bound),
    ("grid.time_integral_bound", _iv_grid_time_integral),
    ("potential.nonnegative", _iv_potential_nonnegative),
    ("potential.band_agreement", _iv_potential_band_agreement),
    ("potential.complementarity", _iv_potential_complementarity),
    ("boundary.s_monotone", _iv_s_monotone),
    ("boundary.s_constant_on_jumps", _iv_s_constant_on_jumps),
    ("boundary.s_prime_nonnegative", _iv_s_prime_nonnegative),
    ("boundary.unresolved_fraction_refines", _iv_unresolved_refines),
    ("boundary.jump_endpoint_slope_refines", _iv_jump_endpoint_slope),
    ("boundary.slope_modulus_stable", _iv_slope_modulus_stable),
    ("compare.frontier_distance", _iv_compare_frontier),
    ("compare.jump_alignment", _iv_compare_jumps),
    ("harness.summary_deterministic", _iv_summary_deterministic),
)
# the invariants that rerun a solver on the config alone, not on the
# scenario's result: verify_suite hands them to a process pool
_RERUN_INVARIANTS = frozenset({"particle.bit_reproducible",
                              "particle.convergence_in_n",
                              "harness.summary_deterministic"})


def _evaluate(func, ctx) -> dict:
    """One invariant's verdict; an invariant that raises is a failure."""
    try:
        return func(ctx)
    except Exception as exc:
        return {"verdict": "fail", "detail": f"invariant raised {exc!r}"}


def _rerun(name: str, ctx: dict) -> dict:
    """Registry entry `name`'s verdict, in a pool worker, which looks the
    function up in the registry it inherited: entries go by id, not value."""
    return _evaluate(dict(INVARIANT_REGISTRY)[name], ctx)


def verify_suite(cfg: ScenarioConfig, result: ScenarioResult | None = None,
                 write: bool = False) -> dict:
    """Evaluate every registry invariant against one scenario.

    Every id in the registry appears exactly once in the report, with verdict
    pass, fail, or skip plus a reason.  A missing precondition is a skip,
    never a silent omission; an invariant that raises is a failure.

    The invariants that rerun a solver read only the config and the
    density.  Where os.fork exists each that reruns one on cfg (on a grid
    config the particle reruns only skip) goes, by registry id, to a worker
    of a forked process pool, one worker each, before the scenario runs,
    and is joined in registry order; a worker that dies raises RuntimeError
    naming the reruns not yet joined.  Every other entry, and every entry
    without os.fork, is evaluated here.  Without a result the scenario is
    run here, writing its artifacts when write is true; a given result is
    checked as it is, and write is unused.
    """
    d = build_density(cfg.density)
    pooled = [name for name, _ in INVARIANT_REGISTRY if name in _RERUN_INVARIANTS
              and not (cfg.method == "grid" and name.startswith("particle."))
              ] if hasattr(os, "fork") else []
    if pooled:
        # imported here, so that importing stefanlab.cli loads neither
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(len(pooled),
                              mp_context=multiprocessing.get_context("fork"))
          if pooled else contextlib.nullcontext()) as pool:
        reruns = {name: pool.submit(_rerun, name, {"cfg": cfg, "density": d})
                  for name in pooled}
        if result is None:
            result = run_scenario(cfg, write=write)
        ctx = {"cfg": cfg, "density": d, "levels": result.levels, "result": result}
        entries = []
        for name, func in INVARIANT_REGISTRY:
            if name not in reruns:
                entries.append({"id": name, **_evaluate(func, ctx)})
                continue
            try:
                out = reruns.pop(name).result()
            except RuntimeError as exc:
                # a worker that dies breaks the pool (BrokenProcessPool);
                # _rerun returns whatever an invariant raises as its verdict
                raise RuntimeError(f"rerun invariant {', '.join([name, *reruns])}"
                                   f" got no result: {exc}") from exc
            entries.append({"id": name, **out})
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for e in entries:
        counts[e["verdict"]] += 1
    return {"scenario_id": cfg.scenario_id, "invariants": entries,
            "n_pass": counts["pass"], "n_fail": counts["fail"],
            "n_skip": counts["skip"]}
