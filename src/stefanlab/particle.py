"""Interacting-particle solver for the supercooled Stefan frontier.

N Brownian particles diffuse above an absorbing frontier; each absorption
advances the frontier by alpha/N, which may absorb more particles in the same
instant (the cascade).  The frontier is alpha * (#absorbed) / N by
construction, so mass balance is an identity of integer counts, not an
approximation.

Randomness is counter-based: the Gaussian increments of step k are drawn from
a Philox stream keyed by (seed, k), so the increment a particle receives
depends only on (seed, its index, the step index).  Because no step's draw
depends on the state, run() draws the increments of the next few steps ahead
on a small pool of worker threads while the current step is applied; the
draws are still keyed on (seed, k), so results are bit-identical to a serial
loop of step() calls and do not depend on the number of threads.  Replays are
bit-identical for a fixed (seed, dt, N) and independent of any update order.
"""
from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord
from stefanlab.jump_rule import cascade_jump

# Stream tag for the initial uniform sample; step indices stay far below this.
INIT_STREAM = 2 ** 62

# Upper bound on the threads that draw increments ahead of run()'s step loop.
# At N = 1e5 drawing a step's normals takes about 4.5 times as long as
# applying them (2.56 ms against 0.56 ms for move, absorption and cascade, on
# a 2-core x86 VM), so beyond five drawers the one thread that applies the
# steps is the bottleneck and more would only wait.
DRAW_THREADS_MAX = 5

# Below this many particles handing each step's draw to a worker costs more
# in thread hand-offs than the overlap saves (the two broke even near 12 000
# particles on 2 cores), and run() draws inline.
POOL_MIN_PARTICLES = 16384


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))


def _draw(seed: int, step_index: int, scale: float, out: np.ndarray) -> np.ndarray:
    """Increments of step step_index, scale * N(0, 1) per particle, into out.

    Calls only _stream and numpy, so worker threads may run it.
    """
    _stream(seed, step_index).standard_normal(len(out), out=out)
    out *= scale
    return out


def _draw_threads() -> int:
    """Worker threads for drawing ahead: the usable CPUs, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(DRAW_THREADS_MAX, cpus)


def _increments_ahead(seed: int, first: int, n_steps: int, n: int, dt: float):
    """Yield the increments of steps first .. first + n_steps - 1 in order.

    With at least two usable CPUs and POOL_MIN_PARTICLES particles, a thread
    pool draws up to threads + 1 steps ahead into a ring of preallocated
    buffers; a buffer is refilled only after the caller asks for the next
    step, so the caller must be done with the previous one by then.
    Otherwise it yields None, and step() draws inline.  Close the generator
    to shut the pool down.
    """
    threads = _draw_threads()
    if threads < 2 or n < POOL_MIN_PARTICLES:
        for _ in range(n_steps):
            yield None
        return
    # imported here so that importing the package does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    scale = np.sqrt(dt)
    ring = [np.empty(n) for _ in range(threads + 1)]
    pending: deque = deque()
    pool = ThreadPoolExecutor(threads, thread_name_prefix="stefanlab-draw")

    def submit(j: int) -> None:
        if j < n_steps:
            pending.append(pool.submit(_draw, seed, first + j, scale,
                                       ring[j % len(ring)]))

    try:
        for j in range(len(ring)):
            submit(j)
        for j in range(n_steps):
            yield pending.popleft().result()
            submit(j + len(ring))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class Ensemble:
    """Mutable particle-system state.

    positions and alive are parallel arrays over all n_total particles;
    absorption_time is +inf while a particle is alive.  frontier is always
    alpha * n_dead / n_total.
    """

    positions: np.ndarray
    alive: np.ndarray
    absorption_time: np.ndarray
    n_total: int
    alpha: float
    seed: int
    t: float = 0.0
    n_dead: int = 0
    step_index: int = 0

    @property
    def frontier(self) -> float:
        return self.alpha * self.n_dead / self.n_total

    @property
    def alive_fraction(self) -> float:
        return (self.n_total - self.n_dead) / self.n_total


@dataclass(frozen=True)
class Snapshot:
    """Alive positions at one instant, for empirical density estimates."""

    t: float
    alive_positions: np.ndarray
    n_dead: int
    n_total: int
    alpha: float


def init_ensemble(d, n: int, seed: int, sampling: str = "stratified",
                  alpha: float = 1.0) -> Ensemble:
    """Draw n initial positions from a Density by inverse CDF.

    "stratified" transforms the midpoint lattice (i+0.5)/n (deterministic,
    discrepancy 1/n); "uniform" transforms iid uniforms from the init stream.
    No frontier jump is applied here; run() owns the t=0 resolution.
    """
    if n < 1:
        raise ConfigError("need at least one particle")
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    if sampling == "stratified":
        u = (np.arange(n) + 0.5) / n
    elif sampling == "uniform":
        u = _stream(seed, INIT_STREAM).random(n)
    else:
        raise ConfigError(f"unknown sampling mode {sampling!r}")
    positions = np.asarray(d.quantile(u), dtype=float)
    return Ensemble(
        positions=positions,
        alive=np.ones(n, dtype=bool),
        absorption_time=np.full(n, np.inf),
        n_total=n,
        alpha=float(alpha),
        seed=seed,
    )


def _absorb(e: Ensemble, hit: np.ndarray) -> None:
    e.alive[hit] = False
    e.absorption_time[hit] = e.t
    e.n_dead += len(hit)


def _absorb_below_frontier(e: Ensemble) -> None:
    """Absorb the alive particles at or below the frontier, then the cascade."""
    crossed = np.flatnonzero(e.alive & (e.positions <= e.frontier))
    if len(crossed):
        _absorb(e, crossed)
        _resolve_cascade(e, len(crossed))


def _resolve_cascade(e: Ensemble, k0: int) -> int:
    """Absorb the cascade seeded by k0 just-dead particles; returns its size.

    Semantics are exactly cascade_jump's least fixed point, computed on a
    window: the alive positions at or below lam_start + w are sorted and
    handed to cascade_jump.  If the fixed point stays at or below the window
    edge, particles beyond it cannot take part and the result is exact;
    otherwise w doubles while alive particles remain beyond the edge.  The
    first window is twice the k0 increment, so a cascade of m costs
    O(m log m) plus one pass over the ensemble per doubling.
    """
    if k0 == 0 or e.alpha == 0.0:
        return 0
    lam_start = e.alpha * (e.n_dead - k0) / e.n_total
    n_alive = e.n_total - e.n_dead
    w = 2.0 * e.alpha * k0 / e.n_total
    while True:
        edge = lam_start + w
        idx = np.flatnonzero(e.alive & (e.positions <= edge))
        idx = idx[np.argsort(e.positions[idx], kind="stable")]
        res = cascade_jump(e.positions[idx], lam_start, k0, e.alpha, e.n_total)
        if res.new_frontier <= edge or len(idx) == n_alive:
            break
        w *= 2.0
    hit = idx[res.absorbed_indices]
    _absorb(e, hit)
    return len(hit)


def step(e: Ensemble, dt: float, increments: np.ndarray | None = None) -> Ensemble:
    """One Euler step: Gaussian moves, end-of-step absorption, cascade.

    increments are sqrt(dt) * N(0, 1) for all n_total indices from the
    (seed, step_index) stream; run() passes them in, drawn ahead on worker
    threads, and without them step draws them inline, which is the serial
    reference.  They are applied to alive particles only, so a particle's
    move never depends on which others are alive.  Particles at or below the
    frontier after the move are absorbed, then cascade_jump semantics
    resolve the induced cascade.  Between-step excursions below the frontier
    are not seen (no bridge correction); the bias vanishes with sqrt(dt).
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if increments is None:
        increments = _draw(e.seed, e.step_index, np.sqrt(dt), np.empty(e.n_total))
    np.add(e.positions, increments, out=e.positions, where=e.alive)
    e.t += dt
    e.step_index += 1
    _absorb_below_frontier(e)
    return e


def run(e: Ensemble, t_end: float, dt: float, sample_every: int = 1,
        jump_threshold: float | None = None,
        snapshots_out: list | None = None, snapshot_every: int = 0) -> tuple[FrontierPath, Ensemble]:
    """Drive an ensemble to t_end, recording the frontier and its jumps.

    The t=0 jump is resolved first through the cascade seeded by the
    particles at or below zero (for data supported in (0, inf) that seed is
    empty and the macroscopic initial jump instead emerges over the first few
    diffusion steps).  A frontier increment above max(5*alpha/N, threshold)
    within a single step enters the jump registry.  Samples land every
    sample_every steps; optional position snapshots land in snapshots_out
    every snapshot_every steps.
    """
    if t_end <= 0 or dt <= 0:
        raise ConfigError("t_end and dt must be positive")
    if sample_every < 1:
        raise ConfigError("sample_every must be >= 1")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ConfigError("t_end shorter than one step")

    registry_floor = 5.0 * e.alpha / e.n_total
    threshold = max(registry_floor, jump_threshold or 0.0)

    jumps: list[JumpRecord] = []
    lam_before = e.frontier
    if e.step_index == 0 and e.t == 0.0:
        _absorb_below_frontier(e)
    if e.frontier - lam_before > threshold:
        jumps.append(JumpRecord(0.0, lam_before, e.frontier,
                                mass=(e.frontier - lam_before) / e.alpha if e.alpha else 0.0))

    times = [e.t]
    lams = [e.frontier]
    dead = [e.n_dead]
    if snapshots_out is not None and snapshot_every:
        snapshots_out.append(_snapshot(e))

    increments = _increments_ahead(e.seed, e.step_index, n_steps, e.n_total, dt)
    try:
        for k in range(1, n_steps + 1):
            before = e.frontier
            step(e, dt, next(increments))
            if e.frontier - before > threshold:
                jumps.append(JumpRecord(e.t, before, e.frontier,
                                        mass=(e.frontier - before) / e.alpha if e.alpha else 0.0))
            if k % sample_every == 0 or k == n_steps:
                times.append(e.t)
                lams.append(e.frontier)
                dead.append(e.n_dead)
            if snapshots_out is not None and snapshot_every and (k % snapshot_every == 0 or k == n_steps):
                snapshots_out.append(_snapshot(e))
    finally:
        increments.close()

    path = FrontierPath(
        times=np.array(times), lam=np.array(lams), alpha=e.alpha, jumps=jumps,
        n_total=e.n_total, dead_count=np.array(dead, dtype=np.int64),
        meta={"method": "particle", "seed": e.seed, "dt": dt, "n": e.n_total,
              "sample_every": sample_every},
    )
    return path, e


def _snapshot(e: Ensemble) -> Snapshot:
    return Snapshot(t=e.t, alive_positions=e.positions[e.alive].copy(),
                    n_dead=e.n_dead, n_total=e.n_total, alpha=e.alpha)


def empirical_field(snapshots: list[Snapshot], x_grid: np.ndarray,
                    bandwidth: float | None = None) -> Field:
    """Histogram (default) or Gaussian-kernel density estimate per snapshot.

    Normalization makes each row integrate to the alive fraction, matching
    the grid solver's convention that mass 1 - lam/alpha survives.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if len(x_grid) < 2:
        raise ConfigError("x_grid needs at least two nodes")
    dx = float(x_grid[1] - x_grid[0])
    if bandwidth is not None and bandwidth <= 0:
        raise ConfigError("bandwidth must be positive")
    edges = np.concatenate([x_grid - 0.5 * dx, [x_grid[-1] + 0.5 * dx]])
    rows, lam, fidx, ts = [], [], [], []
    for s in snapshots:
        if bandwidth is None:
            counts, _ = np.histogram(s.alive_positions, bins=edges)
            rows.append(counts / (s.n_total * dx))
        else:
            diffs = (x_grid[None, :] - s.alive_positions[:, None]) / bandwidth
            dens = np.exp(-0.5 * diffs ** 2).sum(axis=0) / (np.sqrt(2 * np.pi) * bandwidth)
            rows.append(dens / s.n_total)
        lam_s = s.alpha * s.n_dead / s.n_total
        lam.append(lam_s)
        fidx.append(int(np.searchsorted(edges, lam_s, side="right") - 1))
        ts.append(s.t)
    return Field(x=x_grid, t=np.array(ts), values=np.array(rows),
                 frontier_index=np.clip(np.array(fidx), 0, len(x_grid) - 1),
                 lam=np.array(lam), alpha=snapshots[0].alpha,
                 meta={"method": "particle", "bandwidth": bandwidth})
