"""Interacting-particle solver for the supercooled Stefan frontier.

N Brownian particles diffuse above an absorbing frontier; each absorption
advances the frontier by alpha/N, which may absorb more particles in the same
instant (the cascade).  The frontier is alpha * (#absorbed) / N by
construction, so mass balance is an identity of integer counts, not an
approximation.  Absorbed particles stop: a step moves, and draws noise for,
the living only.

Randomness is keyed: the Gaussian increments of step k are drawn from an
SFC64 stream seeded by the SeedSequence of (seed, k), one per living particle
in increasing order of original index, so the increment a particle receives
depends only on (seed, the step index, its rank among the living).  Replays
are bit-identical for a fixed (seed, dt, N), and a run split into continued
runs equals one run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord
from stefanlab.jump_rule import cascade_jump

# Stream tag for the initial uniform sample; step indices stay far below this.
INIT_STREAM = 2 ** 62


def _stream(seed: int, tag: int) -> np.random.Generator:
    """The generator keyed by (seed, tag): a step index or INIT_STREAM.

    SeedSequence hashes the pair into SFC64's state and takes any
    nonnegative integers, seeds past 2**64 included.  It hashes the pair's
    32-bit words in a row, so a tag of 2**32 or more can alias another
    (seed, tag) pair.  Step indices stay below harness.MAX_STEPS < 2**32,
    and INIT_STREAM's low word is zero, which cannot be the top word of a
    seed of more than one word.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, tag])))


@dataclass
class Ensemble:
    """Mutable particle-system state in a packed layout.

    positions holds the living particles only, in increasing order of
    original index, so positions[r] belongs to the particle of rank r among
    the living.  frontier is always alpha * n_dead / n_total.
    """

    positions: np.ndarray
    n_total: int
    alpha: float
    seed: int
    t: float = 0.0
    step_index: int = 0

    @property
    def n_alive(self) -> int:
        return len(self.positions)

    @property
    def n_dead(self) -> int:
        return self.n_total - self.n_alive

    @property
    def frontier(self) -> float:
        return self.alpha * self.n_dead / self.n_total


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
    return Ensemble(positions=positions, n_total=n, alpha=float(alpha), seed=seed)


def _absorb_below_frontier(e: Ensemble) -> None:
    """Absorb the living at or below the frontier and the cascade they seed.

    The cascade's new frontier bounds everything it absorbs, so one mask
    removes the absorbed from the packed positions.
    """
    lam = e.frontier
    k0 = int(np.count_nonzero(e.positions <= lam))
    if k0 == 0:
        return
    if e.alpha != 0.0:
        lam = _cascade_frontier(e.positions, lam, k0, e.alpha, e.n_total)
    e.positions = e.positions[e.positions > lam]


def _cascade_frontier(live: np.ndarray, lam_start: float, k0: int, alpha: float,
                      n_total: int) -> float:
    """Frontier after the cascade seeded by the k0 of live at or below lam_start.

    Semantics are exactly cascade_jump's least fixed point, computed on a
    window: the live positions at or below lam_start + w are sorted and,
    past the k0 seeds, handed to cascade_jump.  If the fixed point stays at
    or below the window edge, particles beyond it cannot take part and the
    result is exact; otherwise w doubles while live particles remain beyond
    the edge.  The first window is twice the k0 increment, so a cascade of m
    costs O(m log m) plus one pass over the living per doubling.  The fixed
    point absorbs exactly the live positions at or below the returned
    frontier.
    """
    w = 2.0 * alpha * k0 / n_total
    while True:
        edge = lam_start + w
        window = np.sort(live[live <= edge])
        res = cascade_jump(window[k0:], lam_start, k0, alpha, n_total)
        if res.new_frontier <= edge or len(window) == len(live):
            return res.new_frontier
        w *= 2.0


def _increments(e: Ensemble, dt: float) -> np.ndarray:
    """The step's increments, one per living particle by rank.

    A function of its own, so that the array is freed before
    _absorb_below_frontier copies the survivors.
    """
    z = _stream(e.seed, e.step_index).standard_normal(e.n_alive)
    z *= np.sqrt(dt)
    return z


def step(e: Ensemble, dt: float) -> Ensemble:
    """One Euler step: Gaussian moves, end-of-step absorption, cascade.

    The living get sqrt(dt) * N(0, 1) increments from the (seed, step_index)
    stream, the r-th normal to the particle of rank r among the living.
    Particles at or below the frontier after the move are absorbed, then
    cascade_jump semantics resolve the induced cascade.  Between-step
    excursions below the frontier are not seen (no bridge correction); the
    bias vanishes with sqrt(dt).
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    e.positions += _increments(e, dt)
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

    for k in range(1, n_steps + 1):
        before = e.frontier
        step(e, dt)
        if e.frontier - before > threshold:
            jumps.append(JumpRecord(e.t, before, e.frontier,
                                    mass=(e.frontier - before) / e.alpha if e.alpha else 0.0))
        if k % sample_every == 0 or k == n_steps:
            times.append(e.t)
            lams.append(e.frontier)
            dead.append(e.n_dead)
        if snapshots_out is not None and snapshot_every and (k % snapshot_every == 0 or k == n_steps):
            snapshots_out.append(_snapshot(e))

    path = FrontierPath(
        times=np.array(times), lam=np.array(lams), alpha=e.alpha, jumps=jumps,
        n_total=e.n_total, dead_count=np.array(dead, dtype=np.int64),
    )
    return path, e


def _snapshot(e: Ensemble) -> Snapshot:
    return Snapshot(t=e.t, alive_positions=e.positions.copy(),
                    n_dead=e.n_dead, n_total=e.n_total, alpha=e.alpha)


def empirical_field(snapshots: list[Snapshot], x_grid: np.ndarray) -> Field:
    """Histogram density estimate per snapshot, one bin per x_grid cell.

    Normalization makes each row integrate to the alive fraction, matching
    the grid solver's convention that mass 1 - lam/alpha survives.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if len(x_grid) < 2:
        raise ConfigError("x_grid needs at least two nodes")
    dx = float(x_grid[1] - x_grid[0])
    edges = np.concatenate([x_grid - 0.5 * dx, [x_grid[-1] + 0.5 * dx]])
    rows, lam, fidx, ts = [], [], [], []
    for s in snapshots:
        counts, _ = np.histogram(s.alive_positions, bins=edges)
        rows.append(counts / (s.n_total * dx))
        lam_s = s.alpha * s.n_dead / s.n_total
        lam.append(lam_s)
        fidx.append(int(np.searchsorted(edges, lam_s, side="right") - 1))
        ts.append(s.t)
    return Field(x=x_grid, t=np.array(ts), values=np.array(rows),
                 frontier_index=np.clip(np.array(fidx), 0, len(x_grid) - 1),
                 lam=np.array(lam), alpha=snapshots[0].alpha)
