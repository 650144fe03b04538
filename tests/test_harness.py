"""Tests for scenario configs, artifact layout, the invariant suite, and the CLI."""
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stefanlab
import stefanlab.harness as harness_mod
from stefanlab.cli import _reconstruction_gap, main
from stefanlab.errors import ConfigError, NumericalAbort
from stefanlab.exporters import (read_frontier_csv, read_json, read_matrix_csv,
                                 read_nu_csv, write_matrix_csv)
from stefanlab.fields import Field, WeightField
from stefanlab.harness import (INVARIANT_REGISTRY, ScenarioConfig,
                               apply_overrides, build_density, run_scenario,
                               scenario_from_dict, verify_suite)
from stefanlab.jump_rule import cascade_jump, continuum_jump, density_knots
from stefanlab.potential import (SCAN_ROWS, compute_w, obstacle_residual,
                                 residual_window, w_rows)
from test_exporters import MALFORMED_NPY
from test_grid_pin import CONFIGS as PIN_CONFIGS
from test_grid_pin import DIGESTS as PIN_DIGESTS
from test_grid_pin import _sha, level_digests, pinned, scenario_digests

UNIFORM = {"family": "piecewise_constant", "breaks": [0.0, 1.5],
           "values": [1.0 / 1.5]}
BAND = {"family": "piecewise_constant", "breaks": [0.2, 0.6, 3.2667],
        "values": [1.5, 0.15]}
POWER_GAP = {"family": "power_gap", "alpha": 1.0, "c": 0.8, "n": 1,
             "delta": 1.0, "steps": 8}
OSCILLATORY = {"family": "oscillatory", "alpha1": 0.5, "alpha2": 1.2, "a1": 0.8,
               "p": 0.5, "q": 0.5, "n_levels": 2}
# the uniform.json example of the README
README_DEMO = dict(scenario_id="uniform-demo",
                   density={"family": "piecewise_constant",
                            "breaks": [0.0, 1.5], "values": [0.6667]},
                   alpha=0.7, method="both", n_particles=20_000, dt=1e-3,
                   dx=0.02, t_end=1.0, seed=7, refinement_levels=1)
# the smoke.json of the CI workflow
SMOKE = dict(scenario_id="smoke", alpha=0.7, method="both",
             density={"family": "piecewise_constant", "breaks": [0.0, 1.5],
                      "values": [0.6667]},
             n_particles=500, dt=0.002, dx=0.05, t_end=0.1,
             thresholds={"interior_margin": 0.05}, outdir="unused")


def quick_config(**kw):
    base = dict(scenario_id="t", density=UNIFORM, alpha=0.7, method="grid",
                dt=2e-3, dx=0.05, t_end=0.1, seed=1, refinement_levels=1,
                outdir="unused")
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture(scope="session")
def verified_uniform():
    cfg = quick_config(scenario_id="suite", method="both", n_particles=800,
                       t_end=0.2, refinement_levels=2)
    result = run_scenario(cfg, write=False)
    return cfg, result, verify_suite(cfg, result)


class TestConfigValidation:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            scenario_from_dict({"scenario_id": "a", "density": UNIFORM,
                                "alpha": 1.0, "bogus": 3})

    def test_rejects_missing_required_fields(self):
        with pytest.raises(ConfigError, match="missing"):
            scenario_from_dict({"scenario_id": "a"})

    def test_rejects_small_x_max(self):
        with pytest.raises(ConfigError, match="x_max"):
            quick_config(x_max=1.0)

    def test_rejects_x_max_not_on_grid(self):
        with pytest.raises(ConfigError, match="x_max"):
            quick_config(x_max=3.13)

    def test_rejects_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            quick_config(method="spectral")

    def test_rejects_path_unsafe_id(self):
        with pytest.raises(ConfigError, match="scenario_id"):
            quick_config(scenario_id="a/b")

    def test_default_x_max_covers_support_and_diffusion(self):
        cfg = quick_config(x_max=None)
        assert cfg.x_max >= cfg.alpha + 1.5 + 4 * np.sqrt(cfg.t_end)
        assert abs(cfg.x_max / cfg.dx - round(cfg.x_max / cfg.dx)) < 1e-9

    def test_rejects_particle_snapshots_of_one_cell(self):
        # snapshots bin on the level's cells; a grid run or a particle run
        # without snapshots on the same one-cell level is accepted
        with pytest.raises(ConfigError, match="snapshot_every") as info:
            quick_config(method="particle", snapshot_every=5, dx=10.0)
        assert "dx = 10.0" in str(info.value) and "x_max = 10.0" in str(info.value)
        quick_config(method="particle", dx=10.0)
        quick_config(method="grid", snapshot_every=5, dx=10.0)

    @pytest.mark.parametrize("t_end", [0.107, 0.105, 0.001])
    def test_rejects_t_end_between_steps(self, t_end):
        # the solvers would stop at the step nearest t_end: 0.108 for 0.107
        # and 0.104 for 0.105 at dt = 0.002
        with pytest.raises(ConfigError, match="t_end must be a whole number of steps"):
            quick_config(t_end=t_end)
        quick_config(t_end=0.108)

    def test_level_params_halve_steps_and_quadruple_particles(self):
        cfg = quick_config(n_particles=100, refinement_levels=3)
        p = cfg.level_params(2)
        assert p["dt"] == cfg.dt / 4 and p["dx"] == cfg.dx / 4
        assert p["n_particles"] == 1600

    @pytest.mark.parametrize("kw, match", [
        (dict(dt=1e-300), r"1e\+299 x 70 grid field"),
        (dict(method="particle", n_particles=10 ** 12), r"1e\+12 particles"),
        (dict(method="particle", snapshot_every=1, dx=1e-12),
         r"51 x 3\.46e\+12 snapshot field"),
        (dict(refinement_levels=40), r"2\.75e\+13 x 3\.85e\+13 grid field"),
        (dict(dt=1e-320), "beyond the float range"),
        (dict(refinement_levels=1100), "beyond the float range"),
        (dict(refinement_levels=3000), "beyond the float range")])
    def test_rejects_a_finest_level_beyond_physical_memory(self, monkeypatch,
                                                           kw, match):
        # a fixed machine, so the sizes do not depend on the test host
        monkeypatch.setattr(harness_mod, "_physical_memory", lambda: 2 ** 34)
        with pytest.raises(ConfigError, match=match):
            quick_config(**kw)

    def test_memory_bound_counts_the_kept_values(self, monkeypatch):
        # README demo: 1001 rows of 3 frontier samples each for both routes,
        # 1001 x 310 field values, as many values of w and one array of
        # 20 000 particles
        need = 8 * (1001 * (2 * 310 + 3) + 3 * 1001 + 20_000)
        monkeypatch.setattr(harness_mod, "_physical_memory", lambda: need)
        quick_config(**README_DEMO)
        monkeypatch.setattr(harness_mod, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match=re.escape(f"{need:.3g} bytes")):
            quick_config(**README_DEMO)
        # room for the field but not for w beside it is refused as well
        monkeypatch.setattr(harness_mod, "_physical_memory",
                            lambda: need - 8 * 1001 * 310)
        with pytest.raises(ConfigError, match="grid field and its w"):
            quick_config(**README_DEMO)
        # a method="both" run writes the grid's field and takes no snapshots
        monkeypatch.setattr(harness_mod, "_physical_memory", lambda: need)
        quick_config(**dict(README_DEMO, snapshot_every=1))
        monkeypatch.setattr(harness_mod, "_physical_memory", lambda: None)
        quick_config(**dict(README_DEMO, n_particles=10 ** 15))


    @pytest.mark.parametrize("memory", [2 ** 34, None])
    def test_rejects_a_finest_level_of_too_many_steps(self, monkeypatch, memory):
        # a run that keeps almost nothing is still bounded in its step count,
        # also where the platform does not report its memory
        monkeypatch.setattr(harness_mod, "_physical_memory", lambda: memory)
        few = dict(method="particle", n_particles=1, sample_every=10 ** 12)
        with pytest.raises(ConfigError, match=r"takes 1e\+11 steps"):
            quick_config(dt=1e-12, **few)
        with pytest.raises(ConfigError, match=r"takes 2e\+07 steps"):
            quick_config(dt=2e-8, refinement_levels=3, **few)
        quick_config(dt=2e-8, refinement_levels=2, **few)    # 10**7 steps


class TestBuildDensity:
    def test_power_gap_tail_completes_mass(self):
        d = build_density({"family": "power_gap", "alpha": 1.0, "c": 0.5,
                           "n": 2, "delta": 1.0})
        assert d.norm_factor == 1.0
        assert abs(float(d.cdf(d.support_max)) - 1.0) < 1e-12

    def test_oscillatory_tail_completes_mass(self):
        d = build_density({"family": "oscillatory", "alpha1": 0.5,
                           "alpha2": 1.2, "a1": 0.8, "p": 0.5, "q": 0.5,
                           "n_levels": 3})
        assert d.norm_factor == 1.0
        assert abs(float(d.cdf(d.support_max)) - 1.0) < 1e-12

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="family"):
            build_density({"family": "cauchy"})

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            build_density({"family": "power_gap", "alpha": 1.0})

    def test_null_tail_hi_rejected(self):
        # the constructors read tail_hi=None as the default; a config's null
        # is no number and is refused, unless an explicit tail leaves it unread
        spec = {"family": "power_gap", "alpha": 1.0, "c": 0.5, "n": 2,
                "delta": 1.0, "tail_hi": None}
        with pytest.raises(ConfigError, match="tail_hi must be a number"):
            build_density(spec)
        build_density(dict(spec, tail_breaks=[1.0, 2.0], tail_values=[0.3]))


    @pytest.mark.parametrize("spec", [
        {"family": "power_gap", "alpha": True, "c": 0.5, "n": True, "delta": 1.0,
         "steps": True},
        {"family": "power_gap", "alpha": 1.0, "c": 0.8, "n": True, "delta": 1.0},
        {"family": "power_gap", "alpha": 1.0, "c": 0.5, "n": 2, "delta": 1.0,
         "tail_breaks": [1.0, True], "tail_values": [0.3]},
        {"family": "oscillatory", "alpha1": 0.5, "alpha2": 1.2, "a1": True,
         "p": 0.5, "q": 0.5, "n_levels": True},
        {"family": "oscillatory", "alpha1": 0.5, "alpha2": 1.2, "a1": 0.8,
         "p": 0.5, "q": 0.5, "n_levels": 3, "tail_hi": False},
        {"family": "piecewise_constant", "breaks": [0.0, True], "values": [1.0]},
        {"family": "piecewise_constant", "breaks": [0.0, 1.0], "values": [[True]]},
    ])
    def test_bool_parameters_rejected(self, spec):
        # a JSON true is no number: the constructors would read it as 1,
        # anywhere in the block, list elements included
        with pytest.raises(ConfigError, match="not booleans"):
            build_density(spec)


class TestOverrides:
    def test_parses_scalars_by_type(self):
        cfg = quick_config()
        out = apply_overrides(cfg, ["dt=0.004", "n_particles=50",
                                    "scenario_id=other", "sampling=uniform"])
        assert out.dt == 0.004 and out.n_particles == 50
        assert out.scenario_id == "other" and out.sampling == "uniform"

    def test_parses_json_composites(self):
        cfg = quick_config()
        out = apply_overrides(
            cfg, ['density={"family": "piecewise_constant",'
                  ' "breaks": [0.0, 1.0], "values": [1.0]}'])
        assert out.density["breaks"] == [0.0, 1.0]

    def test_nested_threshold_paths_may_be_new(self):
        out = apply_overrides(quick_config(), ["thresholds.eps_u=0.01"])
        assert out.threshold("eps_u", None) == 0.01

    @pytest.mark.parametrize("override, match", [
        ("thresholds.eps_uu=5", "unknown thresholds"),
        ("thresholds.eps_u=abc", "thresholds.eps_u must be a number"),
        ("thresholds.nondeg_r=true", "thresholds.nondeg_r must be a number"),
        ("thresholds.eps_w=nan", "thresholds.eps_w must be a number"),
        ("thresholds.jump_threshold=inf", "thresholds.jump_threshold must be a number"),
        ("thresholds=5", "thresholds must be an object"),
        ("thresholds.interior_margin=-1", "thresholds.interior_margin must be positive"),
        ("thresholds.nondeg_r=0", "thresholds.nondeg_r must be positive"),
        ("thresholds.nondeg_t_lo=-1", "thresholds.nondeg_t_lo must be positive"),
        ("thresholds.nondeg_t_lo=0", "thresholds.nondeg_t_lo must be positive"),
        ("thresholds.endpoint_band=-1", "thresholds.endpoint_band must be nonnegative"),
        ("thresholds.complementarity_tol=-1",
         "thresholds.complementarity_tol must be nonnegative"),
        ("thresholds.eps_w=-1", "thresholds.eps_w must be nonnegative"),
        ("thresholds.eps_u=-1", "thresholds.eps_u must be nonnegative"),
        ("thresholds.jump_threshold=-1",
         "thresholds.jump_threshold must be nonnegative")])
    def test_bad_thresholds_rejected(self, override, match):
        with pytest.raises(ConfigError, match=match):
            apply_overrides(quick_config(), [override])

    @pytest.mark.parametrize("override", ["dx=0.03", "t_end=1.0"])
    def test_derived_x_max_follows_overrides(self, override):
        cfg = quick_config()
        out = apply_overrides(cfg, [override])
        field, value = override.split("=")
        fresh = quick_config(**{field: float(value)})
        assert out.x_max == fresh.x_max != cfg.x_max
        # whether x_max was derived stays off the serialised config
        assert out.to_dict() == fresh.to_dict()
        assert set(out.to_dict()) == set(ScenarioConfig.__dataclass_fields__)

    def test_given_x_max_survives_overrides(self):
        cfg = quick_config(x_max=3.0)
        assert apply_overrides(cfg, ["t_end=0.2"]).x_max == 3.0
        assert apply_overrides(quick_config(), ["x_max=3.0"]).x_max == 3.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="not a config field"):
            apply_overrides(quick_config(), ["dz=1"])

    def test_malformed_item_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(quick_config(), ["dt"])

    def test_original_config_is_untouched(self):
        cfg = quick_config()
        apply_overrides(cfg, ["dt=0.005"])
        assert cfg.dt == 2e-3


class TestArtifactLayout:
    def test_levels_and_flat_finest_copy(self, tmp_path):
        cfg = quick_config(scenario_id="layout", refinement_levels=2,
                           outdir=str(tmp_path))
        result = run_scenario(cfg, write=True)
        root = tmp_path / "layout"
        names = {"frontier.csv", "field.npy", "nu.npy", "w.npy", "profile.csv",
                 "jumps.json"}
        for sub in ("L0", "L1"):
            assert {f.name for f in (root / sub).iterdir()} == names
        assert {f.name for f in root.iterdir()} == \
            names | {"L0", "L1", "summary.json", "meta.json"}
        assert read_json(root / "meta.json")["format"] == 2
        # the flat files are independent byte copies of the finest level
        for name in names:
            flat, fine = root / name, root / "L1" / name
            assert flat.read_bytes() == fine.read_bytes(), name
            assert flat.stat().st_nlink == 1 and fine.stat().st_nlink == 1
        times, lam = read_frontier_csv(root / "frontier.csv")
        assert np.array_equal(lam, result.levels[-1].frontier.lam)
        x, t, vals = read_matrix_csv(root / "field.npy")
        assert np.array_equal(vals, result.levels[-1].field.values)
        _, _, w = read_matrix_csv(root / "w.npy")
        assert np.array_equal(w, compute_w(result.levels[-1].field).w)
        nu = read_nu_csv(root / "nu.npy", cfg.alpha)
        assert np.array_equal(nu.nu, result.levels[-1].nu.nu)
        assert np.array_equal(nu.recorded, result.levels[-1].nu.recorded)

    def test_no_whole_level_w_is_computed(self, monkeypatch):
        # a level keeps no w, and neither the band ladder's run nor verify's
        # invariants on it compute one on a level's whole field: the
        # analysis reads a window of columns, the invariants read w_rows
        shapes = []

        def counted(fld):
            shapes.append(fld.values.shape)
            return compute_w(fld)
        monkeypatch.setattr(harness_mod, "compute_w", counted)
        cfg = scenario_from_dict({**PIN_CONFIGS["band-ladder"], "outdir": "unused"})
        result = run_scenario(cfg, write=False)
        verdicts = {e["id"]: e["verdict"]
                    for e in verify_suite(cfg, result)["invariants"]}
        for name in ("potential.nonnegative", "potential.band_agreement",
                     "potential.complementarity"):
            assert verdicts[name] in ("pass", "fail"), name
        whole = {res.field.values.shape for res in result.levels}
        assert shapes and not whole & set(shapes)
        assert not any(hasattr(res, "w") for res in result.levels)

    def test_both_run_takes_no_snapshots(self, tmp_path):
        # the level writes the grid's field, so snapshot_every changes no file
        files = {}
        for every in (5, 0):
            cfg = quick_config(scenario_id=f"snap{every}", method="both",
                               n_particles=300, snapshot_every=every,
                               outdir=str(tmp_path))
            result = run_scenario(cfg, write=True)
            assert result.levels[0].p_field is None
            level_dir = tmp_path / f"snap{every}" / "L0"
            files[every] = {f.name: f.read_bytes() for f in level_dir.iterdir()}
        assert "field.npy" in files[0]
        assert files[5] == files[0]

    def test_summary_names_the_method_of_each_jump_list(self):
        # on the README demo only the particles register a jump
        cfg = quick_config(**dict(README_DEMO, t_end=0.05))
        level = run_scenario(cfg, write=False).summary["levels"][0]
        assert "jumps_detected" not in level
        assert level["grid"]["n_jumps_detected"] == 0
        assert level["grid"]["jumps_detected"] == []
        jumps = level["particle"]["jumps_detected"]
        assert level["particle"]["n_jumps_detected"] == len(jumps) == 1
        assert jumps[0]["t"] == 1e-3

    def test_summary_has_no_timestamp(self, tmp_path):
        cfg = quick_config(scenario_id="stamp", outdir=str(tmp_path))
        run_scenario(cfg, write=True)
        summary = read_json(tmp_path / "stamp" / "summary.json")
        assert "written_at" not in json.dumps(summary)
        meta = read_json(tmp_path / "stamp" / "meta.json")
        assert "written_at" in meta


def _bits(report: dict) -> dict:
    """A report with every float spelled out bit for bit."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.items()}


def crafted_field() -> Field:
    """A front that moves from 0 to 0.3 by t = 0.8 and then stops.

    The last row is zero on the 15 columns below 0.3 and positive past
    them, so the residual window is the first 16 of 50 columns.
    """
    x = (np.arange(50) + 0.5) * 0.02
    t = np.linspace(0.0, 1.0, 41)
    lam = np.minimum(0.3, 0.375 * t)
    u = np.maximum(x[None, :] - lam[:, None], 0.0)
    return Field(x=x, t=t, values=u, frontier_index=np.searchsorted(x, lam),
                 lam=lam, alpha=1.0)


def crafted_nu(x: np.ndarray) -> WeightField:
    frozen = x < 0.3
    return WeightField(x=x, nu=frozen * 1.0, alpha=1.0, recorded=frozen)


def _negative_past_window(f):
    f.values[5, 40] = -100.0


def _nan_past_window(f):
    f.values[5, 40] = np.nan


def _time_runs_back(f):
    # w turns negative on the row before the last; a negative value on a
    # frozen column keeps that row's w positive in the window
    f.t[-1] = f.t[-2] - 0.01
    f.values[-2, 14] = -1.0


def _row_zero_in_window(f):
    # the increment of the first warm column's last step cancels, so its w
    # is zero on the row before the last, as on every frozen column
    f.values[-2, 15] = -f.values[-1, 15]


class TestResidualWindow:
    """The obstacle report on the windowed w equals the whole lattice's."""

    @pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
    def test_report_matches_the_whole_lattice_on_every_level(self, name):
        # the pinned tiny ladder's far columns are still below the frozen
        # tail at t_end = 0.2, so its analysis takes the whole lattice
        cfg = scenario_from_dict({**PIN_CONFIGS[name], "outdir": "unused"})
        for res in run_scenario(cfg, write=False).levels:
            want = obstacle_residual(
                compute_w(res.field), res.nu,
                interior_margin=cfg.threshold("interior_margin", 0.1),
                eps_w=cfg.threshold("eps_w", None)).to_dict()
            assert _bits(res.reports["obstacle"]) == _bits(want)
            narrow = residual_window(res.field) < len(res.field.x)
            assert narrow == (name != "grid-ladder-tiny")

    def test_crafted_field_is_windowed(self):
        f = crafted_field()
        assert residual_window(f) == 16
        w, nu = harness_mod._residual_inputs(f, crafted_nu(f.x), None)
        assert len(w.x) == len(nu.nu) == 16
        want = obstacle_residual(compute_w(f), crafted_nu(f.x), 0.05)
        assert _bits(obstacle_residual(w, nu, 0.05).to_dict()) == _bits(want.to_dict())

    @pytest.mark.parametrize("spoil", [_negative_past_window, _nan_past_window,
                                       _time_runs_back, _row_zero_in_window])
    def test_falls_back_to_the_whole_lattice(self, spoil):
        f = crafted_field()
        spoil(f)
        whole = compute_w(f)
        want = obstacle_residual(whole, crafted_nu(f.x), 0.05).to_dict()
        w, nu = harness_mod._residual_inputs(f, crafted_nu(f.x), None)
        assert len(w.x) == len(nu.nu) == 50
        assert _bits(obstacle_residual(w, nu, 0.05).to_dict()) == _bits(want)
        # what the window alone would have got wrong
        cut = compute_w(replace(f, x=f.x[:16], values=f.values[:, :16]))
        if spoil in (_negative_past_window, _time_runs_back):
            part = obstacle_residual(cut, replace(nu, nu=nu.nu[:16]), 0.05)
            assert part.count_w_negative < want["count_w_negative"]
        if spoil is _row_zero_in_window:
            assert cut.front()[-2] == np.inf > whole.front()[-2]

    def test_negative_eps_w_and_a_foreign_nu_take_the_whole_lattice(self):
        # eps_w < 0 would count w >= 0 past the window; a nu of another
        # length must still make the report raise
        f = crafted_field()
        nu = crafted_nu(f.x)
        w, _ = harness_mod._residual_inputs(f, nu, -1.0)
        assert len(w.x) == 50
        short = replace(nu, x=nu.x[:-1], nu=nu.nu[:-1], recorded=nu.recorded[:-1])
        w, got = harness_mod._residual_inputs(f, short, None)
        assert len(w.x) == 50 and got is short
        with pytest.raises(ConfigError, match="weight grid"):
            obstacle_residual(w, got, 0.05)

    def test_only_the_writer_computes_a_whole_level_w(self, monkeypatch, tmp_path):
        # the band ladder is windowed on every level, so its analysis never
        # computes w on a level's whole field; the artifact writer does,
        # once, and in blocks (w_rows), never as one array (compute_w)
        shapes = {"compute_w": [], "w_rows": []}

        def counted(name, fn):
            def call(fld, *args):
                shapes[name].append(fld.values.shape)
                return fn(fld, *args)
            return call
        monkeypatch.setattr(harness_mod, "compute_w", counted("compute_w", compute_w))
        monkeypatch.setattr(harness_mod, "w_rows", counted("w_rows", w_rows))
        cfg = scenario_from_dict({**PIN_CONFIGS["band-ladder"],
                                  "outdir": str(tmp_path)})
        for write, per_level in ((True, 1), (False, 0)):
            for calls in shapes.values():
                calls.clear()
            levels = run_scenario(cfg, write=write).levels
            assert len(levels) == 2
            for res in levels:
                assert shapes["compute_w"].count(res.field.values.shape) == 0
                assert shapes["w_rows"].count(res.field.values.shape) == per_level


class TestLadderOrder:
    def test_finest_analysis_does_not_sit_on_the_coarse_fields(self):
        # the levels run finest first, so the ladder's peak stays below the
        # finest level's own peak plus the coarse levels' fields; run
        # coarsest first, the finest analysis ran on top of them all
        cfg = scenario_from_dict({**PIN_CONFIGS["grid-ladder-tiny"],
                                  "outdir": "unused"})
        d = build_density(cfg.density)
        harness_mod.run_level(cfg, 0, d)  # first-call work (LAPACK's import)
        tracemalloc.start()
        try:
            harness_mod.run_level(cfg, 2, d)
            finest = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            levels = run_scenario(cfg, write=False).levels
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [res.level for res in levels] == [0, 1, 2]
        coarse = sum(res.field.values.nbytes for res in levels[:-1])
        assert peak < finest + coarse

    def test_each_level_of_a_both_ladder_equals_the_level_run_alone(self):
        cfg = ScenarioConfig(**dict(README_DEMO, n_particles=500, t_end=0.2,
                                    refinement_levels=2, outdir="unused"))
        levels = run_scenario(cfg, write=False).levels
        assert [res.level for res in levels] == [0, 1]
        for res in levels:
            alone = harness_mod.run_level(cfg, res.level, build_density(cfg.density))
            assert level_digests(res) == level_digests(alone)


class TestVerifySuite:
    def test_ledger_ids_equal_registry(self, verified_uniform):
        _, _, ledger = verified_uniform
        assert {e["id"] for e in ledger["invariants"]} == \
            {name for name, _ in INVARIANT_REGISTRY}

    def test_uniform_both_scenario_has_no_failures(self, verified_uniform):
        _, _, ledger = verified_uniform
        fails = [e for e in ledger["invariants"] if e["verdict"] == "fail"]
        assert fails == []

    def test_every_entry_carries_detail(self, verified_uniform):
        _, _, ledger = verified_uniform
        assert all(e["detail"] for e in ledger["invariants"])

    def test_corrupted_frontier_fails_monotonicity(self, verified_uniform):
        cfg, result, _ = verified_uniform
        doctored = result.levels[0].p_frontier.lam
        keep = doctored.copy()
        try:
            doctored[-1] = doctored[0] - 0.1
            ledger = verify_suite(cfg, result)
            entry = {e["id"]: e for e in ledger["invariants"]}
            assert entry["particle.frontier_bounded_monotone"]["verdict"] == "fail"
        finally:
            doctored[:] = keep

    @pytest.mark.parametrize("thresholds", [{}, {"eps_w": 1e-3},
                                            {"interior_margin": -1.0}])
    def test_complementarity_reads_the_obstacle_report(self, thresholds):
        # the ledger entry equals one made from a direct obstacle_residual
        # call at the default eps_w, whatever eps_w the config sets
        cfg = quick_config(density=BAND, alpha=2.0, t_end=0.5,
                           thresholds={"interior_margin": 0.05})
        # set past validation, which rejects a margin <= 0, so the ledger's
        # path for an analysis that raises is still exercised
        cfg.thresholds.update(thresholds)
        result = run_scenario(cfg, write=False)
        res = result.levels[0]
        [entry] = [e for e in verify_suite(cfg, result)["invariants"]
                   if e["id"] == "potential.complementarity"]
        w = compute_w(res.field)
        try:
            rep = obstacle_residual(w, res.nu,
                                    interior_margin=cfg.thresholds["interior_margin"])
        except ConfigError as exc:
            assert entry["verdict"] == "skip"
            assert entry["detail"] == f"residual region unavailable: {exc}"
            return
        assert rep.n_nodes > 0
        tol = 20.0 * w.eps_w()
        assert entry["verdict"] == ("pass" if rep.complementarity_max <= tol else "fail")
        assert entry["detail"] == ("max over region of |min(w, w_t - w_xx/2 + nu)| ="
                                   f" {rep.complementarity_max:.3e}, tol {tol:.3e}")

    def test_alpha_zero_has_no_failures(self):
        # the grid drains mass through x = 0, and no eps_w default exists
        cfg = quick_config(scenario_id="cold", alpha=0.0, method="both",
                           n_particles=500, x_max=4.0,
                           density=dict(BAND, breaks=[0.2, 0.6, 1.2]))
        entries = {e["id"]: e for e in verify_suite(cfg)["invariants"]}
        assert [e for e in entries.values() if e["verdict"] == "fail"] == []
        assert entries["grid.mass_balance"]["verdict"] == "pass"
        assert entries["potential.band_agreement"]["verdict"] == "skip"

    def test_summary_is_deterministic(self):
        cfg = quick_config(scenario_id="det", method="both", n_particles=300)
        a = run_scenario(cfg, write=False).summary
        b = run_scenario(cfg, write=False).summary
        from stefanlab.exporters import jsonify
        assert json.dumps(jsonify(a), sort_keys=True) == \
            json.dumps(jsonify(b), sort_keys=True)


def reference_continuum_particle_consistency(ctx):
    """The invariant as it was, np.sort's copy of each lattice included."""
    d, cfg = ctx["density"], ctx["cfg"]
    delta_cont = continuum_jump(d.cdf, 0.0, cfg.alpha,
                                density_knots(d, 0.0, cfg.alpha)).delta
    details, gaps = [], []
    for n in (1_000, 10_000, 100_000):
        pos = np.sort(d.quantile((np.arange(n) + 0.5) / n))
        delta_n = cascade_jump(pos, 0.0, 1, cfg.alpha, n).delta
        gaps.append(abs(delta_n - delta_cont))
        details.append(f"N={n}: gap {gaps[-1]:.2e}")
    floor = 3.0 * cfg.alpha / 100_000 + 3e-3
    monotone = all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(gaps, gaps[1:]))
    ok = monotone and (gaps[-1] <= floor or gaps[-1] <= gaps[0] / 3.0)
    return {"verdict": "pass" if ok else "fail",
            "detail": "; ".join(details) + f"; floor {floor:.2e}, monotone={monotone}"}


def reference_decay_bound(ctx):
    """grid.decay_bound on a copy of the kept rows, as it was."""
    fld = ctx["levels"][0].field
    dt0 = fld.t[1] - fld.t[0]
    rows = fld.t >= 10 * dt0
    peak = np.max(fld.values[rows], axis=1) * np.sqrt(2 * np.pi * fld.t[rows])
    worst = float(np.max(peak))
    return {"verdict": "pass" if worst <= 1.05 else "fail",
            "detail": f"max of u_max(t) sqrt(2 pi t) = {worst:.4f} (bound 1)"}


def reference_time_integral(u, t):
    """The time integral of grid.time_integral_bound as one whole-lattice sum."""
    return np.sum(0.5 * (u[:-1] + u[1:]) * np.diff(t)[:, None], axis=0)


def reference_time_integral_bound(ctx):
    fld = ctx["levels"][0].field
    dts = np.diff(fld.t)
    integral = reference_time_integral(fld.values, fld.t)
    slack = 2 * fld.dx + float(np.max(fld.values[0])) * float(np.max(dts))
    worst = float(np.max(integral - 2.0 * fld.x - slack))
    return {"verdict": "pass" if worst <= 0 else "fail",
            "detail": f"max of (integral of u dt) - 2x: {worst:.3e}"
                      f" below slack {slack:.3e}"}


def reference_band_agreement(ctx):
    """potential.band_agreement on whole-lattice masks, as it was."""
    res = ctx["levels"][0]
    w = compute_w(res.field)
    eps = w.eps_w()
    s_col = w.freeze_time()
    live = w.w > eps
    should = w.t[:, None] < s_col[None, :]
    frozen_cols = w.tail_bound == 0.0
    mismatch = (live != should) & frozen_cols[None, :]
    if not frozen_cols.any():
        return {"verdict": "skip", "detail": "no column froze within the horizon"}
    if not mismatch.any():
        return {"verdict": "pass", "detail": "positivity set and liquid set agree"
                                             " on every frozen column"}
    dist = np.abs(w.x[None, :] - w.front()[:, None])
    allowed = dist <= 4 * w.dx + 1e-12
    for rec in res.jumps:
        inside = (w.x >= rec.lambda_minus - w.dx) & (w.x <= rec.lambda_plus + w.dx)
        allowed |= inside[None, :]
    u_col = np.max(res.field.values, axis=0)
    with np.errstate(divide="ignore"):
        time_allow = np.where(u_col > 0, 3.0 * eps / np.maximum(u_col, 1e-300),
                              np.inf)
    allowed |= (s_col[None, :] - w.t[:, None]) <= time_allow[None, :]
    n_stray = int(np.sum(mismatch & ~allowed))
    return {"verdict": "pass" if n_stray == 0 else "fail",
            "detail": f"{int(mismatch.sum())} mismatched nodes, {n_stray} outside"
                      " the frontier band, jump intervals, and drainage strip"}


BLOCKED_INVARIANTS = {
    "jump.continuum_particle_consistency": reference_continuum_particle_consistency,
    "grid.decay_bound": reference_decay_bound,
    "grid.time_integral_bound": reference_time_integral_bound,
    "potential.band_agreement": reference_band_agreement,
}


class TestBlockedInvariants:
    """The invariants that walk the lattice in row blocks give the verdicts
    of the whole-array expressions they replace, on the README demo's grid
    route, on the band (a jump at t = 0, and mismatches outside the
    allowance) and on the demo at a quarter of its dt (4001 rows)."""

    @pytest.fixture(scope="class", params=["readme-demo", "band", "tall"])
    def ctx(self, request):
        raw = {
            "readme-demo": dict(README_DEMO, method="grid", outdir="unused"),
            "band": dict(scenario_id="band", density=BAND, alpha=2.0,
                         method="grid", dt=2e-3, dx=0.04, t_end=1.0, seed=3,
                         outdir="unused"),
            "tall": dict(README_DEMO, method="grid", dt=2.5e-4, outdir="unused"),
        }[request.param]
        cfg = scenario_from_dict(raw)
        result = run_scenario(cfg, write=False)
        return {"cfg": cfg, "density": build_density(cfg.density),
                "levels": result.levels, "result": result}

    @pytest.mark.parametrize("name", sorted(BLOCKED_INVARIANTS))
    def test_verdict_matches_the_whole_array_expression(self, ctx, name):
        got = dict(INVARIANT_REGISTRY)[name](ctx)
        assert got == BLOCKED_INVARIANTS[name](ctx)
        assert got["verdict"] != "skip"

    def test_allowance_is_exercised(self, ctx):
        # every field has mismatched nodes, so the blocks' allowance is
        # formed; on the band (a jump at t = 0) some fall outside it
        detail = dict(INVARIANT_REGISTRY)["potential.band_agreement"](ctx)["detail"]
        assert not detail.startswith("positivity set")
        if ctx["cfg"].scenario_id == "band":
            assert ctx["levels"][0].jumps and " 0 outside" not in detail

    def test_time_integral_is_the_whole_lattice_sum_bit_for_bit(self, ctx):
        fld = ctx["levels"][0].field
        got = harness_mod._time_integral(fld.values, np.diff(fld.t))
        want = reference_time_integral(fld.values, fld.t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("name", ["grid.decay_bound", "grid.time_integral_bound",
                                      "potential.band_agreement",
                                      "potential.nonnegative"])
    def test_holds_a_few_blocks_not_the_lattice(self, ctx, name):
        # beyond the fields the level keeps, a few temporaries of SCAN_ROWS
        # rows and O(nt + nx) values; the whole-array form held lattice-
        # sized masks and products (about 82 blocks on the tall field)
        nt, nx = ctx["levels"][0].field.values.shape
        block = SCAN_ROWS * nx * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dict(INVARIANT_REGISTRY)[name](ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * block + 64 * (nt + nx), (peak, block)


def test_time_integral_at_block_edges():
    # row counts around one and two blocks of trapezoid rows, two to five
    # columns, -0.0 and signed values: the row-order sum is np.sum's
    rng = np.random.default_rng(2)
    for nt in (1, 2, 3, SCAN_ROWS, SCAN_ROWS + 1, SCAN_ROWS + 2, 2 * SCAN_ROWS + 1):
        for nx in (2, 5):
            u = rng.standard_normal((nt, nx))
            u[:, 0] = -0.0
            t = np.cumsum(rng.uniform(0.5, 1.5, nt))
            got = harness_mod._time_integral(u, np.diff(t))
            want = reference_time_integral(u, t)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (nt, nx)


def assert_no_child_left():
    # every forked child has been reaped: none is running or a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def replace_invariants(monkeypatch, **funcs):
    """Swap registry entries, by id with '.' written '__', for funcs."""
    funcs = {name.replace("__", "."): f for name, f in funcs.items()}
    monkeypatch.setattr(harness_mod, "INVARIANT_REGISTRY", tuple(
        (name, funcs.get(name, func)) for name, func in INVARIANT_REGISTRY))


@pytest.fixture
def deadline():
    """Raise in a test that waits over two minutes on a child, not hang."""
    def expire(signum, frame):
        raise TimeoutError("a forked child was not joined within 120 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def boom(ctx):
    raise ValueError("boom")


def killed(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


class TestForkedRuns:
    @pytest.mark.parametrize("raw", [SMOKE, dict(README_DEMO, n_particles=2000,
                                                 outdir="unused"),
                                     dict(PIN_CONFIGS["grid-ladder-tiny"],
                                          outdir="unused")],
                             ids=["smoke", "readme-demo", "grid-ladder-tiny"])
    def test_ledger_equals_in_process_evaluation(self, raw, monkeypatch, deadline):
        cfg = ScenarioConfig(**raw)
        ledger = verify_suite(cfg)
        assert_no_child_left()
        # the reference: one run with no fork, then every entry evaluated
        # here in registry order
        monkeypatch.delattr(os, "fork")
        result = run_scenario(cfg, write=False)
        ctx = {"cfg": cfg, "density": build_density(cfg.density),
               "levels": result.levels, "result": result}
        reference = []
        for name, func in INVARIANT_REGISTRY:
            try:
                out = func(ctx)
            except Exception as exc:
                out = {"verdict": "fail", "detail": f"invariant raised {exc!r}"}
            reference.append({"id": name, **out})
        assert ledger["invariants"] == reference
        # where os.fork is missing the suite runs every entry in process
        assert verify_suite(cfg) == ledger

    @pytest.mark.parametrize("raw, pooled", [
        (SMOKE, ["particle.bit_reproducible", "particle.convergence_in_n",
                 "harness.summary_deterministic"]),
        (dict(PIN_CONFIGS["grid-ladder-tiny"], outdir="unused"),
         ["harness.summary_deterministic"])], ids=["both", "grid"])
    def test_pool_holds_only_the_reruns_that_run_a_solver(self, raw, pooled,
                                                          monkeypatch, deadline):
        # on a grid config the particle reruns only skip, in process
        import concurrent.futures
        sizes, submitted = [], []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

            def submit(self, fn, name, *args):
                submitted.append(name)
                return super().submit(fn, name, *args)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        ledger = verify_suite(scenario_from_dict(raw))
        assert sizes == [len(pooled)] and submitted == pooled
        assert_no_child_left()
        verdicts = {e["id"]: e["verdict"] for e in ledger["invariants"]}
        for name in ("particle.bit_reproducible", "particle.convergence_in_n"):
            assert (verdicts[name] == "skip") == (raw["method"] == "grid")

    def test_invariant_raising_in_a_child_fails_as_in_process(self, monkeypatch,
                                                               deadline):
        # particle.convergence_in_n runs in a child, grid.decay_bound here
        replace_invariants(monkeypatch, particle__convergence_in_n=boom,
                           grid__decay_bound=boom)
        entries = {e["id"]: e for e in verify_suite(ScenarioConfig(**SMOKE))["invariants"]}
        for name in ("particle.convergence_in_n", "grid.decay_bound"):
            assert entries[name] == {"id": name, "verdict": "fail",
                                     "detail": "invariant raised ValueError('boom')"}
        assert_no_child_left()

    def test_killed_invariant_child_raises_naming_it(self, monkeypatch, deadline):
        replace_invariants(monkeypatch, particle__bit_reproducible=killed)
        with pytest.raises(RuntimeError, match=r"invariant particle\.bit_reproducible"):
            verify_suite(ScenarioConfig(**SMOKE))
        assert_no_child_left()

    def test_parent_error_reaps_every_child(self, monkeypatch, deadline):
        # the reruns are running in the pool when the scenario's grid route
        # raises
        def abort(*args, **kwargs):
            raise NumericalAbort("grid aborted")
        monkeypatch.setattr(harness_mod, "run_grid", abort)
        with pytest.raises(NumericalAbort, match="grid aborted"):
            verify_suite(ScenarioConfig(**SMOKE))
        assert_no_child_left()

    def test_verify_leaves_no_process_thread_or_tracker(self, deadline):
        # the pool is shut down on return: its workers are reaped, its
        # threads joined, and fork workers need no resource tracker
        from multiprocessing import resource_tracker
        threads = set(threading.enumerate())
        verify_suite(ScenarioConfig(**SMOKE))
        assert_no_child_left()
        assert set(threading.enumerate()) == threads
        assert getattr(resource_tracker._resource_tracker, "_pid", None) is None

    @pinned
    def test_both_level_forks_nothing(self, monkeypatch):
        # a both level runs its particle route in process
        def no_fork():
            raise AssertionError("a level forked")
        monkeypatch.setattr(os, "fork", no_fork)
        assert scenario_digests("readme-demo-both") == PIN_DIGESTS["readme-demo-both"]


class TestCli:
    def write_config(self, tmp_path, **kw):
        raw = dict(scenario_id="cli", density=UNIFORM, alpha=0.7,
                   method="grid", dt=2e-3, dx=0.05, t_end=0.1, seed=1,
                   refinement_levels=1, outdir=str(tmp_path / "out"))
        raw.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_simulate_then_analyze_roundtrip(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["simulate", str(cfg_path)]) == 0
        rundir = tmp_path / "out" / "cli"
        assert main(["analyze", str(rundir)]) == 0
        report = read_json(rundir / "analysis.json")
        assert report["w_reconstruction_gap"] == 0.0
        assert "obstacle" in report

    @pytest.mark.parametrize("raw", [SMOKE, PIN_CONFIGS["band-ladder"]],
                             ids=["smoke", "band-ladder"])
    def test_simulate_analyze_round_trip(self, tmp_path, capsys, raw):
        # CI's smoke round trip: the matrices and the weight are .npy, and
        # analyze recomputes the finest level's reports and w from them;
        # each level's files read back as the run kept them, bit for bit
        raw = {**raw, "outdir": str(tmp_path / "out")}
        assert main(["simulate", str(self.write_config(tmp_path, **raw))]) == 0
        run = tmp_path / "out" / raw["scenario_id"]
        assert main(["analyze", str(run)]) == 0
        for name in ("field.npy", "w.npy", "nu.npy"):
            assert (run / name).exists(), name
        assert not (run / "field.csv").exists()
        analysis = read_json(run / "analysis.json")
        level = read_json(run / "summary.json")["levels"][-1]
        for key in ("obstacle", "speed"):
            assert analysis[key] == level[key], key
        assert analysis["w_reconstruction_gap"] == 0.0
        levels = run_scenario(scenario_from_dict(raw), write=False).levels
        for res in levels:
            dirs = [run / f"L{res.level}"] + ([run] if res is levels[-1] else [])
            for d in dirs:
                x, t, values = read_matrix_csv(d / "field.npy")
                assert _sha(x, t, values) == _sha(res.field.x, res.field.t,
                                                  res.field.values)
                x, t, w = read_matrix_csv(d / "w.npy")
                want = compute_w(res.field)
                assert _sha(x, t, w) == _sha(want.x, want.t, want.w)
                nu = read_nu_csv(d / "nu.npy", raw["alpha"])
                assert _sha(nu.x, nu.nu, nu.recorded) == _sha(
                    res.nu.x, res.nu.nu, res.nu.recorded)

    @pinned
    def test_written_w_matches_the_pin(self, tmp_path, capsys):
        # the w.npy of each level, and the finest one at the root, hash to
        # the pinned digest of the level's w (its tail bound is the field's
        # last row)
        raw = {**PIN_CONFIGS["band-ladder"], "outdir": str(tmp_path / "out")}
        assert main(["simulate", str(self.write_config(tmp_path, **raw))]) == 0
        run = tmp_path / "out" / raw["scenario_id"]
        pins = PIN_DIGESTS["band-ladder"]
        for k, d in [(k, run / f"L{k}") for k in range(len(pins))] + [(len(pins) - 1, run)]:
            x, t, w = read_matrix_csv(d / "w.npy")
            tail = read_matrix_csv(d / "field.npy")[2][-1]
            assert _sha(x, t, w, tail) == pins[k]["w"], d

    def test_reconstruction_gap_is_the_max_over_the_whole_lattice(self):
        # blockwise, as one max of |w_stored - w| over every row would be,
        # NaN included
        f = run_scenario(quick_config(), write=False).levels[0].field
        w = compute_w(f).w
        assert len(w) > 32
        stored = w.copy()
        assert _reconstruction_gap(f, stored) == 0.0
        stored[3, 4] += 0.25
        stored[-2, 1] -= 0.5
        assert _reconstruction_gap(f, stored) == float(np.max(np.abs(stored - w)))
        stored[-1, 0] = np.nan
        assert math.isnan(_reconstruction_gap(f, stored))

    @pytest.mark.parametrize("raw", [
        README_DEMO,
        dict(scenario_id="band", density=BAND, alpha=2.0, dt=2e-3, dx=0.04,
             t_end=1.0, thresholds={"eps_u": 0.05, "endpoint_band": 0.06,
                                    "interior_margin": 0.05, "nondeg_r": 0.2,
                                    "jump_threshold": 0.05}),
        dict(scenario_id="ladder", density=BAND, alpha=2.0, dt=4e-3, dx=0.08,
             t_end=1.0, refinement_levels=2)],
        ids=["readme-demo", "band-thresholds", "grid-ladder"])
    def test_analyze_reproduces_the_summary_reports(self, tmp_path, capsys, raw):
        assert main(["simulate", str(self.write_config(tmp_path, **raw))]) == 0
        rundir = tmp_path / "out" / raw["scenario_id"]
        assert main(["analyze", str(rundir)]) == 0
        analysis = read_json(rundir / "analysis.json")
        finest = read_json(rundir / "summary.json")["levels"][-1]
        reports = set(analysis) - {"scenario_id", "w_reconstruction_gap"}
        assert {"obstacle", "speed", "nondegeneracy_constant", "grid"} <= reports
        assert {k: analysis[k] for k in reports} == {k: finest[k] for k in reports}
        assert analysis["w_reconstruction_gap"] == 0.0

    def test_analyze_particle_snapshots(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, method="particle",
                                     n_particles=500, snapshot_every=5)
        assert main(["simulate", str(cfg_path)]) == 0
        rundir = tmp_path / "out" / "cli"
        assert main(["analyze", str(rundir)]) == 0
        report = read_json(rundir / "analysis.json")
        assert "obstacle" not in report and "grid" not in report
        assert report["particle"]["n_jumps_detected"] == \
            len(report["particle"]["jumps_detected"])

    def test_analyze_w_of_another_grid_exits_2(self, tmp_path, capsys):
        for name, dx in (("fine", 0.05), ("coarse", 0.1)):
            cfg_path = self.write_config(tmp_path, scenario_id=name, dx=dx)
            assert main(["simulate", str(cfg_path)]) == 0
        out = tmp_path / "out"
        (out / "fine" / "w.npy").write_bytes((out / "coarse" / "w.npy").read_bytes())
        capsys.readouterr()
        assert main(["analyze", str(out / "fine")]) == 2
        assert str(out / "fine" / "w.npy") in capsys.readouterr().err

    @pytest.mark.parametrize("copied, named", [
        (("field.npy", "nu.npy"), "field.npy"), (("nu.npy",), "nu.npy")])
    def test_analyze_field_of_another_grid_exits_2(self, tmp_path, capsys,
                                                   copied, named):
        for name, dx in (("fine", 0.05), ("coarse", 0.1)):
            cfg_path = self.write_config(tmp_path, scenario_id=name, dx=dx)
            assert main(["simulate", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in copied:
            (out / "fine" / name).write_bytes((out / "coarse" / name).read_bytes())
        capsys.readouterr()
        assert main(["analyze", str(out / "fine")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {out / 'fine' / named} is not on the finest grid" in err

    def test_analyze_field_of_a_coarser_level_exits_2(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, refinement_levels=2)
        assert main(["simulate", str(cfg_path)]) == 0
        rundir = tmp_path / "out" / "cli"
        (rundir / "field.npy").write_bytes((rundir / "L0" / "field.npy").read_bytes())
        capsys.readouterr()
        assert main(["analyze", str(rundir)]) == 2
        assert "dx = 0.025" in capsys.readouterr().err

    @pytest.mark.parametrize("summary", [
        {"scenario_id": "cli", "levels": []},
        {"scenario_id": "cli", "config": {"scenario_id": "cli",
                                          "density": UNIFORM, "alpha": "abc"}},
        [1, 2]], ids=["no-config", "bad-alpha", "array"])
    def test_analyze_malformed_summary_exits_2(self, tmp_path, capsys, summary):
        rundir = tmp_path / "run"
        rundir.mkdir()
        (rundir / "summary.json").write_text(json.dumps(summary))
        assert main(["analyze", str(rundir)]) == 2
        assert str(rundir / "summary.json") in capsys.readouterr().err

    def test_analyze_missing_artifacts_is_config_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nowhere")]) == 2

    @pytest.mark.parametrize("name, row, corrupt", [
        ("frontier.csv", 2, lambda line: line.split(",")[0] + ",abc")])
    def test_analyze_malformed_artifact_exits_2(self, tmp_path, capsys,
                                                name, row, corrupt):
        assert main(["simulate", str(self.write_config(tmp_path))]) == 0
        rundir = tmp_path / "out" / "cli"
        lines = (rundir / name).read_text().splitlines()
        lines[row] = corrupt(lines[row])
        (rundir / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(rundir)]) == 2
        assert str(rundir / name) in capsys.readouterr().err

    @pytest.mark.parametrize("name, case", [
        (name, case) for case, (kind, _) in MALFORMED_NPY.items()
        for name in (("field.npy", "w.npy") if kind == "matrix" else ("nu.npy",))
    ] + [(name, "truncated") for name in ("field.npy", "w.npy", "nu.npy")])
    def test_analyze_malformed_binary_artifact_exits_2(self, tmp_path, capsys,
                                                       name, case):
        assert main(["simulate", str(self.write_config(tmp_path))]) == 0
        path = tmp_path / "out" / "cli" / name
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] if case == "truncated"
                         else MALFORMED_NPY[case][1])
        capsys.readouterr()
        assert main(["analyze", str(path.parent)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["truncated", "x-shifted", "t-shifted"])
    def test_analyze_refuses_a_w_npy_off_the_field_axes(self, tmp_path, capsys,
                                                          case):
        # a w.npy of field.npy's shape whose border is another grid's, or
        # one cut short, is refused with the file named, not compared
        assert main(["simulate", str(self.write_config(tmp_path))]) == 0
        rundir = tmp_path / "out" / "cli"
        path = rundir / "w.npy"
        if case == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[:len(data) - 8])
        else:
            x, t, w = (a.copy() for a in read_matrix_csv(path))
            if case == "x-shifted":
                x += x[1] - x[0]
            else:
                t[-1] += 1e-9
            write_matrix_csv(path, x, t, w)
        capsys.readouterr()
        assert main(["analyze", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}")
        assert "Traceback" not in err
        assert not (rundir / "analysis.json").exists()

    def test_analyze_of_a_truncated_field_npy_exits_2(self, tmp_path, capsys):
        # CI's smoke config with its field.npy cut to the first 100 bytes
        cfg_path = self.write_config(tmp_path, **dict(SMOKE, outdir=str(tmp_path / "out")))
        assert main(["simulate", str(cfg_path)]) == 0
        path = tmp_path / "out" / "smoke" / "field.npy"
        path.write_bytes(path.read_bytes()[:100])
        capsys.readouterr()
        assert main(["analyze", str(path.parent)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_simulate_twice_writes_identical_npy(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        rundir = tmp_path / "out" / "cli"
        runs = []
        for k in range(2):
            assert main(["simulate", str(cfg_path)]) == 0
            assert main(["analyze", str(rundir)]) == 0
            assert read_json(rundir / "analysis.json")["w_reconstruction_gap"] == 0.0
            runs.append({str(p.relative_to(rundir)): p.read_bytes()
                         for p in rundir.glob("**/*.npy")})
            rundir.rename(tmp_path / f"run{k}")
        assert sorted(runs[0]) == sorted(f"{d}{n}.npy" for d in ("", "L0/")
                                         for n in ("field", "nu", "w"))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("text", ['{"scenario_id": "x", "alp', None])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert main([command, str(path)]) == 2
        assert f"config error: {path}" in capsys.readouterr().err

    def test_simulate_with_dx_override_on_derived_x_max(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["simulate", str(cfg_path), "--set", "dx=0.03"]) == 0
        summary = read_json(tmp_path / "out" / "cli" / "summary.json")
        assert summary["config"]["x_max"] == pytest.approx(3.48)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario_id": "x", "alpha": 1.0}),
                       encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2

    @pytest.mark.parametrize("override", [
        "seed=-1", f"seed={2 ** 64}", "seed=true", "n_particles=1.5",
        "n_particles=true", "dt=true", "dx=true", "t_end=true", "alpha=abc",
        "alpha=true", "sample_every=abc", "snapshot_every=0.5",
        "refinement_levels=1.5", "outdir=7", "scenario_id=7", "x_max=abc",
        "dt=nan", "alpha=inf", "t_end=inf", "dx=nan", "x_max=nan", "alpha=-inf",
        "dx=1e-320", "dx=1e200", 'density.breaks=["ab", 1.5]', "density.values=[NaN]",
        "density.values=[Infinity]", "density.breaks=[0, Infinity]",
        "density.values=[1e-320]", "density.breaks=[0, true]", "density.values=[true]"])
    def test_ill_typed_override_exits_2(self, tmp_path, capsys, override):
        cfg_path = self.write_config(tmp_path, method="particle", n_particles=200)
        assert main(["simulate", str(cfg_path), "--set", override]) == 2
        # a density entry is reported against the density block
        name = override.split("=")[0].split(".")[0]
        assert f"config error: {name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("density, overrides, key", [
        (POWER_GAP, ["density.stpes=8"], "stpes"),
        (UNIFORM, ["density.tail_hi=3.0"], "tail_hi"),
        (OSCILLATORY, ["density.tail_values=[0.3]"], "tail_values"),
        (POWER_GAP, ["density.tail_breaks=[1.0, 2.0]"], "tail_values"),
        (OSCILLATORY, ["density.tail_breaks=[0.8, 2.0]", "density.tail_values=[0.3]",
                       "density.tail_hi=3.0"], "tail_hi")],
        ids=["misspelt-steps", "tail_hi-of-piecewise", "tail_values-alone",
             "tail_breaks-alone", "tail_hi-beside-tail"])
    def test_density_key_nothing_reads_exits_2(self, tmp_path, capsys, density,
                                               overrides, key):
        cfg_path = self.write_config(tmp_path, density=density)
        args = [arg for o in overrides for arg in ("--set", o)]
        assert main(["simulate", str(cfg_path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: density") and key in err
        assert not (tmp_path / "out").exists()

    def test_endless_run_exits_2(self, tmp_path, capsys):
        # a few kB kept, but 1e11 steps: rejected before the first step
        cfg_path = self.write_config(tmp_path)
        assert main(["simulate", str(cfg_path), "--set", "method=particle",
                     "--set", "dt=1e-12", "--set", "sample_every=1000000000000"]) == 2
        assert "1e+11 steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_impossible_resolution_exits_2(self, tmp_path, capsys):
        # rejected by validation, before any array is allocated
        cfg_path = self.write_config(tmp_path)
        assert main(["simulate", str(cfg_path), "--set", "dt=1e-300"]) == 2
        assert "bytes of physical memory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("dt", math.nan), ("alpha", math.inf), ("t_end", math.inf),
        ("x_max", -math.inf), ("density", dict(UNIFORM, values=[math.nan]))])
    def test_non_finite_config_file_exits_2(self, tmp_path, capsys, key, value):
        # json.dumps writes these as NaN / Infinity, which the reader accepts
        cfg_path = self.write_config(tmp_path, **{key: value})
        assert "NaN" in cfg_path.read_text() or "Infinity" in cfg_path.read_text()
        assert main(["simulate", str(cfg_path)]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["grid", "particle"])
    @pytest.mark.parametrize("override", [
        "sampling=bogus", "snapshot_every=-1", "thresholds.interior_margin=-1",
        "thresholds.nondeg_r=0", "thresholds.eps_w=-1", "thresholds.eps_u=-1",
        "thresholds.complementarity_tol=-1", "thresholds.endpoint_band=-1",
        "thresholds.nondeg_t_lo=-1", "thresholds.jump_threshold=-1",
        "t_end=0.107"])
    def test_bad_value_exits_2_whatever_the_method(self, tmp_path, capsys,
                                                    method, override):
        cfg_path = self.write_config(tmp_path, method=method, n_particles=200)
        assert main(["simulate", str(cfg_path), "--set", override]) == 2
        name = override.split("=")[0]
        assert f"config error: {name} must be" in capsys.readouterr().err

    def test_meta_records_versions_without_loading_scipy(self, tmp_path):
        # a particle-only simulate, in a fresh process, writes the package,
        # Python, numpy and scipy versions into meta.json and loads no scipy
        cfg_path = self.write_config(tmp_path, method="particle", n_particles=200)
        code = ("import sys; from stefanlab.cli import main;"
                f" assert main(['simulate', {str(cfg_path)!r}]) == 0;"
                " assert 'scipy' not in sys.modules, 'scipy loaded'")
        src = str(Path(stefanlab.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       capture_output=True, env={**os.environ, "PYTHONPATH": src})
        meta = read_json(tmp_path / "out" / "cli" / "meta.json")
        assert meta["format"] == 2
        assert meta["versions"] == {
            "stefanlab": stefanlab.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")}

    def test_truncation_exits_3(self, tmp_path, capsys):
        # tightest legal box, long horizon: heat must hit the right wall
        cfg_path = self.write_config(tmp_path, x_max=2.2, t_end=1.0)
        assert main(["simulate", str(cfg_path)]) == 3

    def test_verify_passes_and_fails_by_threshold(self, tmp_path, capsys):
        # fine enough that the obstacle interior region is nonempty
        cfg_path = self.write_config(tmp_path, dt=1e-3, dx=0.02, t_end=0.5)
        assert main(["verify", str(cfg_path), "--no-write"]) == 0
        # an impossible complementarity tolerance must flip the exit code
        assert main(["verify", str(cfg_path), "--no-write",
                     "--set", "thresholds.complementarity_tol=0.0"]) == 1
        out = capsys.readouterr().out
        assert "FAIL potential.complementarity" in out

    def test_verify_at_the_largest_seed(self, tmp_path, capsys):
        # particle.convergence_in_n runs at seed + 7, past 2**64 here; the
        # stream's key takes it
        cfg_path = self.write_config(tmp_path, method="both", n_particles=500,
                                     seed=2 ** 64 - 1,
                                     thresholds={"interior_margin": 0.05})
        assert main(["verify", str(cfg_path), "--no-write"]) == 0
        assert "PASS particle.convergence_in_n" in capsys.readouterr().out

    def test_verify_writes_ledger(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["verify", str(cfg_path)]) == 0
        ledger = read_json(tmp_path / "out" / "cli" / "verify.json")
        assert ledger["n_fail"] == 0

    def test_compare_reports_distance(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, n_particles=300)
        assert main(["compare", str(cfg_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["levels"][0]["sup_distance"] >= 0.0

    def test_sweep_runs_batch(self, tmp_path, capsys):
        batch = [dict(scenario_id=f"s{i}", density=UNIFORM, alpha=0.7,
                      method="grid", dt=2e-3, dx=0.05, t_end=0.05, seed=i,
                      refinement_levels=1, outdir=str(tmp_path / "out"))
                 for i in range(2)]
        batch_path = tmp_path / "batch.json"
        batch_path.write_text(json.dumps(batch), encoding="utf-8")
        assert main(["sweep", str(batch_path)]) == 0
        assert (tmp_path / "out" / "s0" / "summary.json").exists()
        assert (tmp_path / "out" / "s1" / "summary.json").exists()

    def test_sweep_rejects_non_array(self, tmp_path, capsys):
        batch_path = tmp_path / "batch.json"
        batch_path.write_text(json.dumps({"scenario_id": "x"}),
                              encoding="utf-8")
        assert main(["sweep", str(batch_path)]) == 2

    def test_sweep_checks_every_entry_before_running(self, tmp_path, capsys):
        valid = dict(scenario_id="a", density=UNIFORM, alpha=0.7, method="grid",
                     dt=2e-3, dx=0.05, t_end=0.05, refinement_levels=1,
                     outdir=str(tmp_path / "out"))
        batch_path = tmp_path / "batch.json"
        batch_path.write_text(json.dumps([valid, {"x": 1}]), encoding="utf-8")
        assert main(["sweep", str(batch_path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "batch entry 1: unknown config keys: ['x']" in capsys.readouterr().err
        # an override that breaks an entry names it, and its scenario_id
        batch_path.write_text(json.dumps([valid, dict(valid, scenario_id="b")]),
                              encoding="utf-8")
        assert main(["sweep", str(batch_path), "--set", "dt=nan"]) == 2
        assert not (tmp_path / "out").exists()
        assert "config error: batch entry 0 (a): " in capsys.readouterr().err


# Config fuzz: a plausible config with up to two entries, at the top level
# or in the density block, replaced by ill-typed, out-of-range or non-finite
# values or added under a misspelt key, plus an override or two.
_BAD = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from([math.nan, math.inf, -math.inf, 1e-320, 1e308]),
                 st.integers(-3, 3), st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_DENSITIES = [
    {"family": "piecewise_constant", "breaks": [0.0, 1.5], "values": [1.0]},
    {"family": "piecewise_constant", "breaks": [0.2, 0.6, 1.2], "values": [1.5, 0.15]},
    {"family": "power_gap", "alpha": 1.0, "c": 0.8, "n": 1, "delta": 1.0, "steps": 8},
    {"family": "oscillatory", "alpha1": 0.5, "alpha2": 1.2, "a1": 0.8, "p": 0.5,
     "q": 0.5, "n_levels": 2}]
_FIELDS = {"method": ["grid", "particle", "both"], "n_particles": [50, 300],
           "dt": [0.002, 0.005], "dx": [0.05, 0.1], "t_end": [0.05, 0.1],
           "x_max": [3.0, 4.0], "seed": [0, 7], "sampling": ["stratified", "uniform"],
           "sample_every": [1, 3], "snapshot_every": [0, 2], "refinement_levels": [1, 2],
           "thresholds": [{}, {"eps_w": 1e-3}, {"nondeg_r": 0.2}]}
_OVERRIDES = st.builds("{}={}".format,
                       st.sampled_from([*_FIELDS, "alpha", "density.breaks",
                                        "density.values", "thresholds.eps_w"]),
                       st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "[NaN]",
                                        "[0, Infinity]", "1e-320", "1e308", "0", "-1",
                                        "2", "0.05", "0.5", "abc", "true", "grid",
                                        "uniform", "{}", "[1.0]"]))


@st.composite
def raw_configs(draw):
    raw = {"scenario_id": "fuzz", "density": dict(draw(st.sampled_from(_DENSITIES))),
           "alpha": draw(st.sampled_from([0.0, 0.7, 2.0])), "n_particles": 200,
           "dt": 0.005, "dx": 0.05, "t_end": 0.1}
    for name in draw(st.lists(st.sampled_from(list(_FIELDS)), unique=True, max_size=8)):
        raw[name] = draw(st.sampled_from(_FIELDS[name]))
    for _ in range(draw(st.integers(0, 2))):
        block = raw["density"] if draw(st.booleans()) else raw
        if isinstance(block, dict):
            block[draw(st.sampled_from([*sorted(block), "stpes"]))] = draw(_BAD)
    return raw, draw(st.lists(_OVERRIDES, max_size=2))


def _tiny(cfg):
    """Small enough to run within the test budget."""
    levels = cfg.refinement_levels
    steps = cfg.t_end / cfg.dt * 2 ** (levels - 1)
    cells = cfg.x_max / cfg.dx * 2 ** (levels - 1)
    particles = 0 if cfg.method == "grid" else cfg.n_particles * 4 ** (levels - 1)
    return levels <= 2 and steps <= 60 and cells <= 300 and particles <= 2000


@settings(max_examples=120, deadline=None)
@given(raw_configs())
@example(({"scenario_id": "fuzz", "alpha": 0.7, "dt": math.nan,
           "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                       "values": [1.0]}}, []))
@example(({"scenario_id": "fuzz", "alpha": 0.7, "dx": 1e-320,
           "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                       "values": [1.0]}}, []))
@example(({"scenario_id": "fuzz", "alpha": 0.0, "t_end": 0.05,
           "density": {"family": "piecewise_constant", "breaks": [0.2, 0.6, 1.2],
                       "values": [1.5, 0.15]}}, []))
@example(({"scenario_id": "fuzz", "alpha": 0.7, "t_end": 0.05, "dt": 0.002,
           "density": {"family": "power_gap", "alpha": 0.7, "c": 0.5, "n": 1,
                       "delta": 1.0}}, ["n_particles=200", "method=both"]))
@example(({"scenario_id": "fuzz", "alpha": 0.0,
           "density": {"family": "power_gap", "alpha": 1.0, "c": 0.8, "n": 1,
                       "delta": 4.239921148868593e+154, "steps": 8}}, []))
def test_config_fuzz_validates_or_raises_config_error(tmp_path_factory, case):
    raw, overrides = case
    try:
        cfg = apply_overrides(scenario_from_dict(raw), overrides)
    except ConfigError:
        cfg = None
    else:
        assert all(math.isfinite(getattr(cfg, k))
                   for k in ("alpha", "dt", "dx", "t_end", "x_max"))
        if not _tiny(cfg):
            return
    # the same config from a file through the command line: exit 2 where
    # validation refused it, else a run that ends in 0, 2 or 3, never an
    # invariant failure (1) or a traceback
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "fuzz.json"
    path.write_text(json.dumps({**raw, "outdir": str(work / "out")}), encoding="utf-8")
    code = main(["simulate", str(path), *(a for o in overrides for a in ("--set", o))])
    assert code in ((2,) if cfg is None else (0, 2, 3))


def test_traced_names_resolve():
    # perfbench/spans.py wraps these module attributes in a traced run; a
    # renamed or deleted one would otherwise surface only in the benchmark's
    # traced self-test
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(modname, name) for modname, names in spans.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(modname), name, None))]
    assert not missing
