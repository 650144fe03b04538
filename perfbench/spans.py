"""Span tracing of the stefanlab layers, installed from outside the package.

A Recorder keeps spans in memory as [name, layer, parent, start, end] rows
and a few counters.  install() replaces each traced function by a wrapper in
the module namespace where its caller looks it up (particle.run finds step
in stefanlab.particle, run_level finds run_grid in stefanlab.harness, and so
on), so the program itself is unchanged.  uninstall() puts the originals
back; untimed and untraced repetitions run with no wrapper in place.

layer_metrics() turns the spans of one traced repetition into the per-layer
metrics.  A span's self time is its duration minus that of its children.
The root spans, of layer "bench", are opened by the benchmark around each
call into the program (the region the untraced wall time covers); their
self time is whatever no traced function accounts for
(trace.unattributed_s), so the self times of all layers plus that remainder
add up to the traced wall time, the summed duration of the root spans.
"""
from __future__ import annotations

import os
import statistics
import time

LAYERS = ("particle", "grid", "jump_rule", "potential", "boundary",
          "exporters", "harness", "cli")

# (module attribute lookups to wrap, layer of the wrapped function).  Each
# entry names the namespace its caller resolves the name in.
TARGETS = {
    "stefanlab.particle": {
        "step": "particle", "run": "particle", "init_ensemble": "particle",
        "cascade_jump": "jump_rule"},
    "stefanlab.grid": {
        "diffuse_step": "grid", "advance_front": "grid",
        "continuum_jump": "jump_rule"},
    "stefanlab.harness": {
        "run_scenario": "harness", "run_level": "harness", "run_grid": "grid",
        "continuum_jump": "jump_rule", "cascade_jump": "jump_rule",
        "compute_w": "potential", "obstacle_residual": "potential",
        "freezing_time": "boundary", "classify_points": "boundary",
        "speed_formula_check": "boundary",
        "nondegeneracy_constant": "boundary", "detect_jumps": "boundary",
        "write_field_artifacts": "exporters",
        "write_frontier_csv": "exporters", "write_jumps_json": "exporters",
        "write_json": "exporters", "read_json": "exporters"},
    "stefanlab.cli": {
        "main": "cli", "run_scenario": "harness", "verify_suite": "harness",
        "compare_methods": "harness",
        "compute_w": "potential", "obstacle_residual": "potential",
        "freezing_time": "boundary", "classify_points": "boundary",
        "speed_formula_check": "boundary",
        "read_frontier_csv": "exporters", "read_jumps_json": "exporters",
        "read_json": "exporters", "read_matrix_csv": "exporters",
        "read_nu_csv": "exporters", "write_json": "exporters",
        "jsonify": "exporters"},
    "stefanlab.exporters": {
        "write_frontier_csv": "exporters", "write_matrix_csv": "exporters",
        "write_jumps_json": "exporters", "write_nu_csv": "exporters",
        "write_profile_csv": "exporters", "write_json": "exporters",
        "read_json": "exporters"},
}

# Writers and readers whose first argument is the one file they touch; the
# others (write_field_artifacts, write_jumps_json, read_jumps_json) delegate
# to these, so file sizes are counted once.
FILE_WRITERS = {"write_frontier_csv", "write_matrix_csv", "write_nu_csv",
                "write_profile_csv", "write_json"}
FILE_READERS = {"read_frontier_csv", "read_matrix_csv", "read_nu_csv",
                "read_json"}

NAME, LAYER, PARENT, START, END = range(5)


class Recorder:
    """In-memory span and counter store for one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters = {"cdf_probes": 0, "continuum_hits": 0,
                         "absorbed": 0, "absorbed_step_max": 0,
                         "burst_steps": 0, "burst_step_s": 0.0,
                         "cell_steps": 0, "field_bytes_max": 0,
                         "write_bytes": 0, "read_bytes": 0}
        self._burst_threshold: list[float] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), 0.0])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, pre=None, post=None):
        """fn inside a span; pre(args, kwargs) runs before it, and
        post(args, kwargs, out, token, span) after it, both outside."""
        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            i = self.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if post is not None:
                post(args, kwargs, out, token, self.spans[i])
            return out
        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        import importlib
        for modname, names in TARGETS.items():
            mod = importlib.import_module(modname)
            for attr, layer in names.items():
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._traced(fn, attr, layer))
        harness = importlib.import_module("stefanlab.harness")
        self._saved.append((harness, "INVARIANT_REGISTRY",
                            harness.INVARIANT_REGISTRY))
        harness.INVARIANT_REGISTRY = tuple(
            (iid, self.wrap(fn, f"harness.invariant.{iid}", "harness"))
            for iid, fn in harness.INVARIANT_REGISTRY)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _traced(self, fn, attr: str, layer: str):
        name = f"{layer}.{attr}"
        c = self.counters
        if attr == "continuum_jump":
            inner = self.wrap(fn, name, layer, post=self._post_continuum)

            def continuum(cdf_fn, *args, **kwargs):
                def counted(x):
                    c["cdf_probes"] += 1
                    return cdf_fn(x)
                return inner(counted, *args, **kwargs)
            continuum.__wrapped__ = fn
            return continuum
        if layer == "particle" and attr == "run":
            return self.wrap(fn, name, layer, pre=self._pre_particle_run,
                             post=self._post_particle_run)
        if layer == "particle" and attr == "step":
            return self.wrap(fn, name, layer, pre=self._pre_particle_step,
                             post=self._post_particle_step)
        if attr == "diffuse_step":
            def pre(args, kwargs):
                c["cell_steps"] += len(args[0].u) - args[0].j
            return self.wrap(fn, name, layer, pre=pre)
        if attr == "compute_w":
            def post(args, kwargs, out, token, span):
                c["field_bytes_max"] = max(c["field_bytes_max"],
                                           args[0].values.nbytes + out.w.nbytes)
            return self.wrap(fn, name, layer, post=post)
        if attr in FILE_WRITERS or attr in FILE_READERS:
            key = "write_bytes" if attr in FILE_WRITERS else "read_bytes"

            def post(args, kwargs, out, token, span):
                c[key] += os.path.getsize(args[0])
            return self.wrap(fn, name, layer, post=post)
        return self.wrap(fn, name, layer)

    # -- counter hooks -------------------------------------------------
    def _post_continuum(self, args, kwargs, out, token, span):
        if out.delta > 0:
            self.counters["continuum_hits"] += 1

    def _pre_particle_run(self, args, kwargs):
        e = args[0]
        floor = 5.0 * e.alpha / e.n_total
        self._burst_threshold.append(max(floor, kwargs.get("jump_threshold") or 0.0))

    def _post_particle_run(self, args, kwargs, out, token, span):
        self._burst_threshold.pop()

    def _pre_particle_step(self, args, kwargs):
        return args[0].n_dead

    def _post_particle_step(self, args, kwargs, out, dead_before, span):
        e, c = args[0], self.counters
        k = e.n_dead - dead_before
        c["absorbed"] += k
        c["absorbed_step_max"] = max(c["absorbed_step_max"], k)
        thr = self._burst_threshold[-1] if self._burst_threshold else float("inf")
        if e.alpha * k / e.n_total > thr:
            c["burst_steps"] += 1
            c["burst_step_s"] += span[END] - span[START]


def _quantile_ms(durations: list[float], q: float) -> float:
    """q-quantile in milliseconds, by the inclusive method; 0 when empty."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1e3 * cuts[int(round(q * 100)) - 1]


def layer_metrics(rec: Recorder, invariant_ids) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = rec.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_s = [d - c for d, c in zip(dur, child)]

    by_name: dict[str, list[float]] = {}
    for s, d in zip(spans, dur):
        by_name.setdefault(s[NAME], []).append(d)

    def total(*names):
        return sum(sum(by_name.get(n, ())) for n in names)

    def count(name):
        return len(by_name.get(name, ()))

    def outermost(names):
        """Summed duration of spans in names with no ancestor in names."""
        out = 0.0
        for i, s in enumerate(spans):
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                out += dur[i]
        return out

    # a grid step is one diffuse_step and the advance_front that follows it
    # under the same parent
    grid_steps, pending = [], {}
    for s in spans:
        if s[NAME] == "grid.diffuse_step":
            pending[s[PARENT]] = s[START]
        elif s[NAME] == "grid.advance_front" and s[PARENT] in pending:
            grid_steps.append(s[END] - pending.pop(s[PARENT]))

    c = rec.counters
    steps = by_name.get("particle.step", [])
    calls = count("jump_rule.continuum_jump")
    writers = {f"exporters.{n}" for n in ("write_field_artifacts",
                                           "write_jumps_json") + tuple(FILE_WRITERS)}
    readers = {f"exporters.{n}" for n in ("read_jumps_json",) + tuple(FILE_READERS)}
    m = {
        "particle.init_s": total("particle.init_ensemble"),
        "particle.run_s": total("particle.run"),
        "particle.step_s": sum(steps),
        "particle.steps": len(steps),
        "particle.step_ms_p50": _quantile_ms(steps, 0.50),
        "particle.step_ms_p99": _quantile_ms(steps, 0.99),
        "particle.absorbed": c["absorbed"],
        "particle.absorbed_step_max": c["absorbed_step_max"],
        "particle.burst_steps": c["burst_steps"],
        "particle.burst_step_s": c["burst_step_s"],
        "grid.run_s": total("grid.run_grid"),
        "grid.diffuse_s": total("grid.diffuse_step"),
        "grid.advance_s": total("grid.advance_front"),
        "grid.steps": count("grid.diffuse_step"),
        "grid.cell_steps": c["cell_steps"],
        "grid.step_ms_p50": _quantile_ms(grid_steps, 0.50),
        "grid.step_ms_p99": _quantile_ms(grid_steps, 0.99),
        "jump_rule.continuum_calls": calls,
        "jump_rule.continuum_s": total("jump_rule.continuum_jump"),
        "jump_rule.cdf_probes": c["cdf_probes"],
        "jump_rule.scan_hit_ratio": c["continuum_hits"] / calls if calls else 0.0,
        "jump_rule.cascade_calls": count("jump_rule.cascade_jump"),
        "jump_rule.cascade_s": total("jump_rule.cascade_jump"),
        "potential.compute_w_s": total("potential.compute_w"),
        "potential.obstacle_residual_s": total("potential.obstacle_residual"),
        "potential.field_mb": c["field_bytes_max"] / 1e6,
        "boundary.freezing_time_s": total("boundary.freezing_time"),
        "boundary.classify_points_s": total("boundary.classify_points"),
        "boundary.speed_check_s": total("boundary.speed_formula_check"),
        "boundary.nondegeneracy_s": total("boundary.nondegeneracy_constant"),
        "boundary.detect_jumps_s": total("boundary.detect_jumps"),
        "exporters.write_s": outermost(writers),
        "exporters.read_s": outermost(readers),
        "exporters.write_mb": c["write_bytes"] / 1e6,
        "exporters.read_mb": c["read_bytes"] / 1e6,
        "harness.run_level_s": total("harness.run_level"),
        "harness.verify_s": total("harness.verify_suite"),
    }
    for iid in invariant_ids:
        m[f"harness.invariant.{iid}_s"] = total(f"harness.invariant.{iid}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[i] for i, s in enumerate(spans)
                                   if s[LAYER] == layer)
    roots = [i for i, s in enumerate(spans) if s[LAYER] == "bench"]
    m["trace.wall_s"] = sum(dur[i] for i in roots)
    m["trace.unattributed_s"] = sum(self_s[i] for i in roots)
    return m
