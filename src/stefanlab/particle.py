"""Interacting-particle solver for the supercooled Stefan frontier.

N Brownian particles diffuse above an absorbing frontier; each absorption
advances the frontier by alpha/N, which may absorb more particles in the same
instant (the cascade).  The frontier is alpha * (#absorbed) / N by
construction, so mass balance is an identity of integer counts, not an
approximation.  Absorbed particles stop.

Tiered stepping.  Only particles near the frontier can be absorbed, so the
living are kept in tiers 0..TIER_CAP, and tier i is realized (moved and
checked) only at the steps divisible by 2**i, with one N(0, (k - last) dt)
increment per particle for the steps since its last realization.  After each
step the realized positions are sorted, so the absorbed are a prefix, one
cascade_jump solve runs on the sorted array past the seeds, and the
survivors are re-tiered: a particle at distance d above the new frontier goes
to the deepest tier i <= min(trailing zeros of k, TIER_CAP) with
d >= reach_i + guard, where reach_i = REACH * sqrt(2**i dt) and guard =
GUARD * REACH * sqrt(dt), so each tier is an ascending slice of the sorted
survivors.  By the reflection principle, the skipped end-of-step positions of
a sleeping particle at x fall below its danger level x - reach_i with
probability at most 2 Phi(-REACH) < 1e-16; while the frontier stays below
that level, the every-particle Euler scheme would not absorb it either.  When
a step's cascade reaches a sleeping tier's danger level (its minimum position
minus its reach), that tier is realized in the same step and the cascade is
solved again from the step's starting frontier over every realized position,
until it reaches no further tier.  So the law is that of the end-of-step
Euler scheme to within 2 Phi(-REACH) per skipped stretch, the frontier is the
least fixed point of the cascade, and lambda = alpha * dead / N stays exact.

Randomness: each ensemble owns one SFC64 generator, made from (seed,
STEP_STREAM) when the ensemble is built, and every step draws its Gaussian
increments from it, for the tiers due at the step in tier order, then for the
tiers the step wakes early, in the order they wake; each tier is ascending,
so within a tier they go to the particles from the lowest up.  Replays are
bit-identical for a fixed (seed, dt, N) and history of steps, a run split
into continued runs equals one run, and the generator travels with the
ensemble, so a deep copy steps like the original.  A snapshot step realizes
every tier, so a run with snapshots differs from one without in its
realization, not in its law.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord
from stefanlab.jump_rule import cascade_jump

# Stream tags of the steps' Gaussian increments and of the initial uniform
# sample (see _stream on why no two (seed, tag) pairs alias).
STEP_STREAM = 0
INIT_STREAM = 2 ** 62

# A tier's reach in standard deviations of the stretch it skips: a sleeping
# particle's skipped positions fall below its danger level with probability
# at most 2 Phi(-8.5) = 1.9e-17 (tests/test_particle.py pins the bound).
REACH = 8.5
# The deepest tier, realized every 2**TIER_CAP steps.  On the benchmark's
# particle-band run (N = 1e5, 2000 steps, seed 3), which draws 40.5 M normals
# when every particle steps, caps of 6 and 8 drew 8.76 M and 8.74 M at a
# guard of 1/2.
TIER_CAP = 6
# The distance a particle keeps beyond its reach to sleep, in units of
# REACH * sqrt(dt), so that the frontier's creep does not wake its tier every
# few steps.  On the same run a guard of 0 drew 30.8 M normals and ran slower
# than stepping every particle; 1/16 to 3/8 drew 7.4-8.1 M, 1/2 8.8 M, 1
# 10.7 M and 2 14.9 M.  1/4 (7.7 M) sits mid-way along the flat floor.
GUARD = 0.25

_EMPTY = np.empty(0)


def _stream(seed: int, tag: int) -> np.random.Generator:
    """The SFC64 generator of (seed, tag), for the tags STEP_STREAM and INIT_STREAM.

    SeedSequence hashes the 32-bit words of seed and then tag, each low word
    first and zero as the one word 0, padded with zero words to four; a
    fifth word is mixed in on top.  Below 2**94 a seed has at most three
    words, the third below 2**30.  (seed, STEP_STREAM) then reads the seed's
    words and zeros, four words with the fourth 0, which fix the seed.
    (seed, INIT_STREAM) reads the seed's words, 0 and 2**30: five words for
    a seed of three, else four with 2**30 third or fourth, which fix the
    seed too.  So no two of these pairs alias below 2**94, and the lab's
    seeds stay below 2**64 + 8: configs take seeds below 2**64, and the
    invariants add at most 7.  Past 2**94 pairs can alias: (s + 2**94,
    STEP_STREAM) gives the state of (s, INIT_STREAM).
    """
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, tag])))


@functools.lru_cache(maxsize=8)
def _tier_edges(dt: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(reach, edge) of tiers 0..TIER_CAP at step dt, computed once per dt.

    reach[i] = REACH * sqrt(2**i dt) sets tier i's danger level, and a
    particle sleeps in tier i >= 1 only at a distance of at least edge[i] =
    reach[i] + GUARD * REACH * sqrt(dt) above the frontier.
    """
    s = REACH * math.sqrt(dt)
    reach = tuple(s * math.sqrt(2.0 ** i) for i in range(TIER_CAP + 1))
    return reach, tuple(r + GUARD * s for r in reach)


@dataclass
class Ensemble:
    """Mutable particle-system state, the living kept in tiers.

    tiers[i] holds tier i's particles at their positions of step last[i],
    the step at which the tier was last realized, ascending (a slice of
    that step's sorted array), and danger[i] is its first, lowest position
    minus its reach (inf when empty; tier 0, realized every step, is never
    asleep).  dt is the step the tiers were sized for, None before the first
    step.  frontier is always alpha * n_dead / n_total.  _rng is the
    ensemble's own generator, made from (seed, STEP_STREAM) at construction
    and drawn from by every step, so ensembles stepped in turn never share
    one and a deep copy steps like the original.
    """

    tiers: list[np.ndarray]
    last: list[int]
    danger: list[float]
    n_total: int
    alpha: float
    seed: int
    t: float = 0.0
    step_index: int = 0
    dt: float | None = None
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rng = _stream(self.seed, STEP_STREAM)

    @classmethod
    def awake(cls, positions, n_total: int, alpha: float, seed: int,
              step_index: int = 0) -> Ensemble:
        """An ensemble with every living particle in tier 0 at step_index."""
        return cls(tiers=[np.asarray(positions, dtype=float)] + [_EMPTY] * TIER_CAP,
                   last=[step_index] * (TIER_CAP + 1),
                   danger=[np.inf] * (TIER_CAP + 1), n_total=n_total,
                   alpha=alpha, seed=seed, step_index=step_index)

    @property
    def positions(self) -> np.ndarray:
        """The living at their last realized positions, tier by tier, each ascending.

        Every position is current after a step that realized every tier,
        as run's snapshot steps do.
        """
        return np.concatenate(self.tiers)

    @property
    def n_alive(self) -> int:
        return sum(map(len, self.tiers))

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
    return Ensemble.awake(d.quantile(u), n_total=n, alpha=float(alpha), seed=seed)


def _absorb(e: Ensemble, x: np.ndarray, lam_start: float, dt: float) -> None:
    """Absorb the realized x at or below lam_start and the cascade they seed.

    x holds the realized positions and is sorted in place, so the caller
    passes an array it owns: a step the one _realize returns, run at t = 0
    a copy of tier 0, which Ensemble.awake may share with its caller.  The
    k0 seeds at or below lam_start are the prefix of x, and cascade_jump
    solves the least fixed point once on the rest, x[k0:].  A sleeping tier
    whose danger level the new frontier reaches is realized with the
    generator's next draws, its positions joined to x, and the cascade
    solved again from lam_start, until no further tier is reached.  The
    survivors, the slice of x past the frontier, become tier 0.
    """
    while True:
        x.sort()
        k0 = int(x.searchsorted(lam_start, side="right"))
        lam = lam_start
        if k0 and e.alpha:
            lam = cascade_jump(x[k0:], lam_start, k0, e.alpha, e.n_total).new_frontier
        woken = [i for i in range(1, TIER_CAP + 1) if e.danger[i] <= lam]
        if not woken:
            break
        x = np.concatenate((x, _realize(e, woken, dt)))
    e.tiers[0] = x[x.searchsorted(lam, side="right"):]


def _realize(e: Ensemble, which, dt: float) -> np.ndarray:
    """Positions at step e.step_index of the tiers in which, which are emptied.

    One normal per particle from the ensemble's generator, tier by tier in
    the order given, scaled by the root of the time since the tier's last
    realization.
    """
    sizes = [len(e.tiers[i]) for i in which]
    z = e._rng.standard_normal(sum(sizes))
    a = 0
    for i, n in zip(which, sizes):
        _move(e, i, z[a:a + n], dt)
        a += n
    return z


def _move(e: Ensemble, i: int, z: np.ndarray, dt: float) -> None:
    """Turn tier i's normals z, in place, into its positions now, and empty it."""
    z *= math.sqrt((e.step_index - e.last[i]) * dt)
    z += e.tiers[i]
    e.tiers[i], e.danger[i] = _EMPTY, math.inf


def _retier(e: Ensemble, cap: int, dt: float) -> None:
    """Split tier 0, just realized with tiers 1..cap, by distance to the frontier.

    Each particle goes to the deepest tier i <= cap whose edge its distance
    above the frontier reaches.  Tier 0 is ascending, so the tiers are its
    consecutive slices, each ascending, and a tier's first particle is its
    lowest.
    """
    x = e.tiers[0]
    reach, edge = _tier_edges(dt)
    cut = [0, *(x - e.frontier).searchsorted(edge[1:cap + 1]), len(x)]
    for i in range(cap + 1):
        e.tiers[i] = x[cut[i]:cut[i + 1]]
        e.last[i] = e.step_index
        if i and len(e.tiers[i]):
            e.danger[i] = float(e.tiers[i][0]) - reach[i]


def step(e: Ensemble, dt: float, realize_all: bool = False) -> Ensemble:
    """One Euler step of the tiered ensemble: moves, absorption, cascade.

    Step k realizes the tiers i with 2**i dividing k (all of them when
    realize_all), drawing their increments from the ensemble's generator in
    tier order, and _absorb sorts the realized positions, absorbs the prefix
    at or below the frontier and solves the cascade it seeds, waking any
    sleeping tier the cascade reaches.  The survivors are then re-tiered,
    each tier ascending.  Excursions below the frontier between a
    particle's realized positions are not seen (no bridge correction); the
    bias vanishes with sqrt(dt).  The tiers are sized for one dt, so dt may change only while
    no particle sleeps.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if dt != e.dt and any(len(a) for a in e.tiers[1:]):
        raise ConfigError("dt changed while particles sleep in tiers sized for another dt")
    k = e.step_index + 1
    e.dt = dt
    cap = min((k & -k).bit_length() - 1, TIER_CAP)
    lam_start = e.frontier
    e.t += dt
    e.step_index = k
    _absorb(e, _realize(e, range(TIER_CAP + 1 if realize_all else cap + 1), dt),
            lam_start, dt)
    if cap:
        _retier(e, cap, dt)
    else:
        e.last[0] = k
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
    every snapshot_every steps, and each snapshot step realizes every tier.
    A continued run's first snapshot shows sleeping tiers where they were
    last realized.
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
        _absorb(e, e.tiers[0].copy(), lam_before, dt)
    if e.frontier - lam_before > threshold:
        jumps.append(JumpRecord(0.0, lam_before, e.frontier,
                                mass=(e.frontier - lam_before) / e.alpha if e.alpha else 0.0))

    lam = e.frontier
    times = [e.t]
    lams = [lam]
    dead = [e.n_dead]
    snapshots = snapshots_out is not None and snapshot_every
    if snapshots:
        snapshots_out.append(_snapshot(e))

    for k in range(1, n_steps + 1):
        before = lam
        snap = snapshots and (k % snapshot_every == 0 or k == n_steps)
        if snap:
            step(e, dt, realize_all=True)
        else:
            step(e, dt)
        lam = e.frontier
        if lam - before > threshold:
            jumps.append(JumpRecord(e.t, before, lam,
                                    mass=(lam - before) / e.alpha if e.alpha else 0.0))
        if k % sample_every == 0 or k == n_steps:
            times.append(e.t)
            lams.append(lam)
            dead.append(e.n_dead)
        if snap:
            snapshots_out.append(_snapshot(e))

    path = FrontierPath(
        times=np.array(times), lam=np.array(lams), alpha=e.alpha, jumps=jumps,
        n_total=e.n_total, dead_count=np.array(dead, dtype=np.int64),
    )
    return path, e


def _snapshot(e: Ensemble) -> Snapshot:
    return Snapshot(t=e.t, alive_positions=e.positions,
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
