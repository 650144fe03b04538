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
ensemble, so a deep copy steps like the original.  While run steps an
ensemble of at least DRAW_AHEAD_MIN living particles, a second thread draws
the normals from that generator one slot ahead (_Feed); the steps read them
in the same order, and run ends with the generator where the steps' own
draws would have left it, so nothing above depends on the thread, the
number of cores or the schedule.  run bins the living positions into the
Field it returns at each snapshot step, which realizes every tier, so a run
with snapshots differs from one without in its realization, not in its law.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord, kept_steps
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
# run draws the normals ahead on a second thread (_Feed) for an ensemble of
# at least DRAW_AHEAD_MIN living particles, into SLOTS slots of
# min(SLOT_NORMALS, living) normals each: 1 MiB at N = 1e5, 256 KiB at the
# threshold.  A draw through the feed is a Python call, and a slot handed
# over costs a lock and GIL hand-offs, so small ensembles lose.  On a 2-core
# x86 VM (medians of alternating runs), the band of the benchmark's
# particle-band run (2000 steps) took 0.072 s serially and 0.100 s drawing
# ahead at N = 4096, the same at 1e4, 0.077 and 0.061 s at 16384 and 0.275
# and 0.178 s at 1e5; the README demo (1000 steps) lost 5-15 % at 1e4 and
# went from 0.086 to 0.064 s at 16384.  Two slots of 64 Ki normals ran as
# fast as three of 32 Ki or four of 16 Ki.
DRAW_AHEAD_MIN = 16384
SLOTS = 2
SLOT_NORMALS = 65536

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
    one and a deep copy steps like the original; while run draws ahead it
    is the _Feed that hands out that generator's normals.
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
    def awake(cls, positions, n_total: int, alpha: float, seed: int) -> Ensemble:
        """An ensemble with every living particle in tier 0 at step 0."""
        return cls(tiers=[np.asarray(positions, dtype=float)] + [_EMPTY] * TIER_CAP,
                   last=[0] * (TIER_CAP + 1), danger=[np.inf] * (TIER_CAP + 1),
                   n_total=n_total, alpha=alpha, seed=seed)

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
    bias vanishes with sqrt(dt).  The tiers are sized for one dt, so dt may
    change only while no particle sleeps.
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


class _Feed:
    """A generator's normals, drawn ahead into SLOTS slots by a producer thread.

    Each slot is filled with standard_normal(out=slot), which releases the
    GIL, after the generator's state is noted; standard_normal(n) hands out
    the next n normals in order.  Normals drawn in pieces are the normals of
    one draw, so what is handed out is what drawing on one thread would
    give, bit for bit.  A slot the reader reaches before the producer has
    begun it, the reader fills itself, so a producer that gets no core (one
    core, a busy host) holds the reader up only for a fill it has begun.
    close() stops and joins the producer, then rewinds the generator to the
    state of the slot being read and redraws the part already read, which
    leaves it where drawing only the normals handed out would have.  An
    exception raised by the producer's fill is raised by standard_normal.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self._rng = rng
        self._slots = [np.empty(size) for _ in range(SLOTS)]
        self._states = [None] * SLOTS
        # guards the fields below; a fill runs outside it, one at a time, by
        # whichever thread claimed it, so fills happen in the order claimed
        self._cond = threading.Condition(threading.Lock())
        self._filling = False
        self._stop = False
        self._error: BaseException | None = None
        self._begun = 0     # fills claimed, slot j % SLOTS holding the j-th
        self._filled = 0    # fills done
        self._slot = 0      # the slot being read, in the order filled
        self._used = 0      # normals read from it
        self._thread = threading.Thread(target=self._produce, daemon=True)
        self._thread.start()

    def _claim(self) -> int:
        """Note the generator's state and claim the next fill, holding _cond."""
        j = self._begun % SLOTS
        self._states[j] = self._rng.bit_generator.state
        self._begun += 1
        self._filling = True
        return j

    def _fill(self, j: int) -> None:
        self._rng.standard_normal(out=self._slots[j])
        with self._cond:
            self._filled += 1
            self._filling = False
            self._cond.notify_all()

    def _produce(self) -> None:
        try:
            while True:
                with self._cond:
                    while not self._stop and (
                            self._filling or self._filled == self._slot + SLOTS):
                        self._cond.wait()
                    if self._stop:
                        return
                    j = self._claim()
                self._fill(j)
        except BaseException as exc:    # the reader's standard_normal raises it
            with self._cond:
                self._error, self._filling = exc, False
                self._cond.notify_all()

    def _await(self) -> None:
        """Wait for the slot being read to be filled, or fill it unclaimed."""
        with self._cond:
            while self._filling and self._filled == self._slot:
                self._cond.wait()
            if self._filled > self._slot:
                return
            if self._error is not None:
                raise self._error
            j = self._claim()
        self._fill(j)

    def standard_normal(self, n: int) -> np.ndarray:
        out = np.empty(n)
        a = 0
        while a < n:
            if self._filled == self._slot:
                self._await()
            slot = self._slots[self._slot % SLOTS]
            m = min(n - a, len(slot) - self._used)
            out[a:a + m] = slot[self._used:self._used + m]
            a += m
            self._used += m
            if self._used == len(slot):
                with self._cond:
                    self._slot, self._used = self._slot + 1, 0
                    self._cond.notify_all()
        return out

    def close(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join()
        # no fill was claimed past the slot after the one being read, so
        # that one's state is still noted
        if self._begun > self._slot:
            j = self._slot % SLOTS
            self._rng.bit_generator.state = self._states[j]
            self._rng.standard_normal(out=self._slots[j][:self._used])


def run(e: Ensemble, t_end: float, dt: float, sample_every: int = 1,
        jump_threshold: float | None = None, snapshot_every: int = 0,
        x_grid: np.ndarray | None = None) -> tuple[FrontierPath, Field | None]:
    """Drive an ensemble to t_end in place, recording the frontier and its jumps.

    Step 0 of a fresh ensemble resolves the t=0 jump through the cascade
    seeded by the particles at or below zero (for data supported in (0, inf)
    that seed is empty and the macroscopic initial jump instead emerges over
    the first few diffusion steps); a continued ensemble's step 0 moves
    nothing.  A frontier increment above max(5*alpha/N, threshold) within a
    single step enters the jump registry.  Samples land at step 0, every
    sample_every steps, at each snapshot step and at the last step.  With
    snapshot_every = k > 0 the living positions are binned on the cells
    centred at x_grid at step 0, every k-th step and the last step, each
    realizing every tier, into the rows of the returned Field (None without
    snapshots); a row integrates to the living fraction.  A continued run's
    first row shows sleeping tiers where they were last realized.  For an
    ensemble of at least DRAW_AHEAD_MIN living particles a second thread
    draws the steps' normals one slot ahead; it is stopped and joined when
    the run ends or raises (an exception it raised is raised here), and the
    ensemble's generator is left where a loop of step calls would leave it.
    """
    if t_end <= 0 or dt <= 0:
        raise ConfigError("t_end and dt must be positive")
    if sample_every < 1:
        raise ConfigError("sample_every must be >= 1")
    if snapshot_every < 0:
        raise ConfigError("snapshot_every must be >= 0")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ConfigError("t_end shorter than one step")
    if snapshot_every:
        if x_grid is None or len(x_grid) < 2:
            raise ConfigError("snapshot_every > 0 needs an x_grid of at least two nodes")
        x_grid = np.asarray(x_grid, dtype=float)
        dx = float(x_grid[1] - x_grid[0])
        edges = np.concatenate([x_grid - 0.5 * dx, [x_grid[-1] + 0.5 * dx]])
        rows = np.empty((kept_steps(n_steps, snapshot_every), len(x_grid)))
        row_t = np.empty(len(rows))
    n_kept = kept_steps(n_steps, sample_every, snapshot_every)
    times, lams = np.empty(n_kept), np.empty(n_kept)
    dead = np.empty(n_kept, dtype=np.int64)

    threshold = max(5.0 * e.alpha / e.n_total, jump_threshold or 0.0)
    jumps: list[JumpRecord] = []
    lam = e.frontier
    kept = snapped = 0
    rng = e._rng
    if e.n_alive >= DRAW_AHEAD_MIN:
        e._rng = _Feed(rng, min(SLOT_NORMALS, e.n_alive))
    try:
        for k in range(n_steps + 1):
            before = lam
            snap = snapshot_every and (k % snapshot_every == 0 or k == n_steps)
            if k == 0:
                if e.step_index == 0 and e.t == 0.0:      # a fresh ensemble
                    _absorb(e, e.tiers[0].copy(), before, dt)
            elif snap:
                step(e, dt, realize_all=True)
            else:
                step(e, dt)
            lam = e.frontier
            if lam - before > threshold:
                jumps.append(JumpRecord(e.t, before, lam,
                                        mass=(lam - before) / e.alpha if e.alpha else 0.0))
            if snap or k % sample_every == 0 or k == n_steps:
                times[kept], lams[kept], dead[kept] = e.t, lam, e.n_dead
                kept += 1
            if snap:
                # each tier is ascending, and after _absorb or a step that
                # realizes every tier the tiers are consecutive slices of one
                # sorted array; a continued run's tiers at its step 0 are not
                x = e.positions
                if k == 0:
                    x.sort()
                # the counts np.histogram takes after sorting, its last cell closed
                cum = np.concatenate((x.searchsorted(edges[:-1], side="left"),
                                      x.searchsorted(edges[-1:], side="right")))
                rows[snapped] = np.diff(cum) / (e.n_total * dx)
                row_t[snapped] = e.t
                snapped += 1
    finally:
        if e._rng is not rng:
            feed, e._rng = e._rng, rng
            feed.close()

    path = FrontierPath(times=times, lam=lams, alpha=e.alpha, jumps=jumps,
                        n_total=e.n_total, dead_count=dead)
    return path, (Field(x=x_grid, t=row_t, values=rows, alpha=e.alpha)
                  if snapshot_every else None)
