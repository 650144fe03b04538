"""The three benchmark workloads: configs, one repetition each, output checks.

Each workload stresses a different layer, so that every open optimisation
has a workload where its layer does most of the work and one where it does
almost none:

particle-band  particle solver on a supercritical band; particle.step does
               almost all the work and one cascade swallows about two thirds
               of the particles.  No grid, analysis or I/O.
grid-ladder    grid solver on the same band over three refinement levels;
               grid stepping (diffuse_step, advance_front, continuum_jump)
               and analysis (compute_w, obstacle_residual) share the time,
               and the finest field plus w (about 119 MB) exceeds the L3.
lab-roundtrip  the README uniform-demo config through the CLI: simulate,
               analyze and verify --no-write.  The only workload that writes
               and reads artifacts and runs the invariant registry; its data
               are subcritical, so cascades are small and the grid never
               jumps.

The workload seed goes into the config's seed; the program sees only the
config.  A repetition records in a Rep its wall time, its phase times, the
output checks attempted and failed, and a sha256 digest of its frontier.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from stefanlab import cli, harness

BAND = {"family": "piecewise_constant", "breaks": [0.2, 0.6, 3.2667],
        "values": [1.5, 0.15]}
BAND_RIGHT_END = 0.6

CONFIGS = {
    "particle-band": {
        "scenario_id": "particle-band", "density": BAND, "alpha": 2.0,
        "method": "particle", "n_particles": 100_000, "dt": 5e-4,
        "t_end": 1.0, "refinement_levels": 1},
    "grid-ladder": {
        "scenario_id": "grid-ladder", "density": BAND, "alpha": 2.0,
        "method": "grid", "dx": 0.02, "dt": 1e-3, "t_end": 1.0,
        "refinement_levels": 3},
    "lab-roundtrip": {
        "scenario_id": "uniform-demo",
        "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                    "values": [0.6667]},
        "alpha": 0.7, "method": "both", "n_particles": 20_000, "dt": 1e-3,
        "dx": 0.02, "t_end": 1.0, "refinement_levels": 1},
}

# Reduced sizes for the self-test of the benchmark only.
TINY = {
    "particle-band": {"n_particles": 5_000, "t_end": 0.1},
    "grid-ladder": {"dx": 0.04, "dt": 2e-3, "t_end": 0.2},
    "lab-roundtrip": {"n_particles": 2_000, "dx": 0.04, "t_end": 0.2},
}


def config(name: str, seed: int, tiny: bool = False) -> dict:
    raw = {**CONFIGS[name], "seed": seed, "outdir": "unused"}
    if tiny:
        raw.update(TINY[name])
    return raw


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class Rep:
    """Outcome of one repetition.

    measure() times a call into the program: its time goes to wall_s and,
    when named, to that phase.  With a span recorder attached, the call is
    also a root span of the traced run, so the traced wall time covers the
    same region as the untraced one.
    """

    def __init__(self, recorder=None):
        self.wall_s = 0.0
        self.phases: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = None
        self.front_gap_rel = None
        self._recorder = recorder

    @contextlib.contextmanager
    def measure(self, phase: str | None = None):
        span = self._recorder.open("bench.program", "bench") \
            if self._recorder is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                self._recorder.close(span)
            self.wall_s += dt
            if phase is not None:
                self.phases[phase] = dt

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def crashed(self, what: str) -> None:
        """An exception: one more failed check, and no time to solution."""
        self.wall_s = None
        self.check(False, what)

    def as_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


def particle_band(rep: Rep, raw: dict, cfg, scratch: Path) -> None:
    with rep.measure():
        result = harness.run_scenario(cfg, write=False)
    lv = result.levels[0]
    fr = lv.p_frontier
    rep.check(np.array_equal(fr.lam, fr.alpha * fr.dead_count / fr.n_total),
              "lambda != alpha * dead / N")
    rep.check(bool(np.all(np.diff(fr.lam) >= 0)), "lambda decreases")
    rep.check(float(np.max(fr.lam)) <= fr.alpha, "lambda above alpha")
    big = [j for j in lv.p_jumps if j.lambda_plus > BAND_RIGHT_END]
    rep.check(len(big) == 1, f"{len(big)} detected jumps end beyond the band")
    rep.digest = _digest(fr.lam)


def grid_ladder(rep: Rep, raw: dict, cfg, scratch: Path) -> None:
    with rep.measure():
        result = harness.run_scenario(cfg, write=False)
    for lv in result.levels:
        fld, fr = lv.field, lv.frontier
        masses = np.array([fld.mass_at(k) for k in range(len(fld.t))])
        drift = float(np.max(np.abs(fr.value_at(fld.t) / fr.alpha + masses - 1.0)))
        rep.check(drift <= 1e-8, f"L{lv.level}: mass balance drift {drift:.2e}")
        rep.check(len(lv.jumps) == 1, f"L{lv.level}: {len(lv.jumps)} jumps detected")
        rep.check("error" not in lv.reports["obstacle"],
                  f"L{lv.level}: obstacle report error")
    rep.digest = _digest(*(lv.frontier.lam for lv in result.levels))


def lab_roundtrip(rep: Rep, raw: dict, cfg, scratch: Path) -> None:
    workdir = Path(tempfile.mkdtemp(prefix="roundtrip-", dir=scratch))
    try:
        config_path = workdir / "uniform.json"
        config_path.write_text(json.dumps({**raw, "outdir": str(workdir / "out")}))
        rundir = workdir / "out" / cfg.scenario_id
        commands = {
            "simulate": ["simulate", str(config_path)],
            "analyze": ["analyze", str(rundir)],
            "verify": ["verify", str(config_path), "--no-write"],
        }
        codes, out = {}, {}
        for phase, argv in commands.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), rep.measure(phase):
                codes[phase] = cli.main(argv)
            out[phase] = buf.getvalue()

        for phase, code in codes.items():
            rep.check(code == 0, f"{phase} exited {code}")
        tally = re.search(r"^pass (\d+)\s+fail (\d+)\s+skip (\d+)$",
                          out["verify"], re.M)
        rep.check(tally is not None and int(tally.group(2)) == 0,
                  "verify reports failed invariants")
        analysis = json.loads((rundir / "analysis.json").read_text())
        gap = analysis.get("w_reconstruction_gap")
        rep.check(gap == 0.0, f"w reconstruction gap {gap!r}")
        summary = json.loads((rundir / "summary.json").read_text())
        rep.front_gap_rel = summary["levels"][0]["compare"]["sup_distance_rel_alpha"]
        lines = (rundir / "frontier.csv").read_text().splitlines()[1:]
        rep.digest = _digest([float(line.split(",")[1]) for line in lines])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


RUNNERS = {"particle-band": particle_band, "grid-ladder": grid_ladder,
           "lab-roundtrip": lab_roundtrip}
