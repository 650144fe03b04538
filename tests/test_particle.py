"""Interacting-particle solver: sampling, reproducibility, mass identity."""
import copy
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import stefanlab.particle as particle_mod
from stefanlab.densities import piecewise_constant
from stefanlab.errors import ConfigError
from stefanlab.fields import kept_steps
from stefanlab.jump_rule import JumpResult, cascade_jump, verify_cascade_minimality
from stefanlab.particle import (
    Ensemble,
    init_ensemble,
    run,
    step,
)


def uniform02():
    return piecewise_constant([0.0, 2.0], [0.5])


def test_stratified_init_uniform_midpoints():
    e = init_ensemble(uniform02(), 4, seed=0, sampling="stratified")
    assert np.allclose(np.sort(e.positions), [0.25, 0.75, 1.25, 1.75])
    assert e.n_dead == 0
    assert e.t == 0.0
    assert e.frontier == 0.0


def test_stratified_respects_vacuum_gap():
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    e = init_ensemble(d, 1000, seed=0, sampling="stratified")
    pos = e.positions
    in_gap = (pos > 0.3 + 1e-12) & (pos < 1.0 - 1e-12)
    assert not np.any(in_gap)
    # stratified counts match exact CDF masses
    assert np.sum(pos <= 0.3) == 600
    assert np.sum(pos >= 1.0) == 400


def test_uniform_sampling_reproducible_and_seed_sensitive():
    d = uniform02()
    a = init_ensemble(d, 512, seed=42, sampling="uniform")
    b = init_ensemble(d, 512, seed=42, sampling="uniform")
    c = init_ensemble(d, 512, seed=43, sampling="uniform")
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    assert np.all(a.positions >= 0) and np.all(a.positions <= 2)


STEP_DT = 1e-6


def _tiered(tiers, last, n_dead, seed, step_index, dt=STEP_DT):
    """An ensemble with the given tiers, each sorted, n_dead already absorbed."""
    tiers = [np.sort(np.asarray(a, dtype=float)) for a in tiers]
    tiers += [particle_mod._EMPTY] * (particle_mod.TIER_CAP + 1 - len(tiers))
    reach, _ = particle_mod._tier_edges(dt)
    danger = [a[0] - r if i and len(a) else np.inf
              for i, (a, r) in enumerate(zip(tiers, reach))]
    last = list(last) + [step_index] * (len(tiers) - len(last))
    return Ensemble(tiers=tiers, last=last, danger=danger,
                    n_total=n_dead + sum(map(len, tiers)), alpha=1.0, seed=seed,
                    step_index=step_index, dt=dt)


def _expected_tiers(x, frontier, cap, dt):
    """x split by the deepest tier <= cap whose reach plus guard d covers."""
    s = particle_mod.REACH * np.sqrt(dt)
    d = x - frontier
    tier = np.zeros(len(x), dtype=int)
    for i in range(1, cap + 1):
        tier[d >= s * (np.sqrt(2.0 ** i) + particle_mod.GUARD)] = i
    return [x[tier == i] for i in range(cap + 1)]


def test_step_bit_reproducible_regardless_of_history():
    # step 4 realizes tiers 0, 1 and 2 and draws their normals from the
    # ensemble's generator in tier order, each tier from its lowest particle
    # up, scaled by the time since each was last realized; tier 3 sleeps.
    # The draws do not depend on how many died or on t, and the sorted
    # survivors are re-tiered, each tier ascending.
    rng = np.random.default_rng(3)
    # b's frontier is 10/32; its tier 0 lies within three tier edges of it
    tiers = [10 / 32 + rng.uniform(0.002, 0.03, 8), rng.uniform(2.0, 3.0, 7),
             rng.uniform(3.0, 4.0, 4), rng.uniform(5.0, 6.0, 3)]
    a = _tiered(tiers, last=[3, 2, 0, 0], n_dead=0, seed=7, step_index=3)
    b = _tiered(tiers, last=[3, 2, 0, 0], n_dead=10, seed=7, step_index=3)
    b.t = 123.0
    z = copy.deepcopy(a._rng).standard_normal(19)
    step(a, STEP_DT)
    step(b, STEP_DT)
    scale = np.sqrt(np.repeat([1, 2, 4], [8, 7, 4]) * STEP_DT)
    x = np.sort(np.concatenate([np.sort(t) for t in tiers[:3]]) + scale * z)
    for e, dead in ((a, 0), (b, 10)):
        assert e.n_dead == dead  # nobody absorbed by the step
        expect = _expected_tiers(x, e.frontier, 2, STEP_DT)
        for i in range(3):
            assert np.array_equal(e.tiers[i], expect[i])
            assert e.last[i] == 4
        assert np.array_equal(e.tiers[3], np.sort(tiers[3])) and e.last[3] == 0
    assert all(len(t) for t in b.tiers[:3])  # b's re-tiering fills each tier


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 2])
def test_stream_is_gaussian_and_uncorrelated_across_keys(seed):
    # fixed seeds, so the verdict cannot flake: a step that realizes every
    # particle, all in tier 0 and ascending, moves them by sqrt(dt) times the
    # normals its generator draws, handed out in ascending order; the step
    # stream is N(0, 1), and its own next draws, the step stream of seed + 1
    # and the initial sample's stream are uncorrelated with it to within
    # 5 / sqrt(n)
    n, dt = 100_000, 1e-3

    def fresh(s):
        # step 3 realizes tier 0 only, step 4 tiers 0 to 2
        return _tiered([np.full(n, 10.0)], last=[], n_dead=0, seed=s,
                       step_index=2, dt=dt)

    def increments(e):
        assert len(e.tiers[0]) == e.n_alive == n
        before = e.tiers[0]
        z = copy.deepcopy(e._rng).standard_normal(n)
        step(e, dt)
        assert e.n_alive == n
        assert np.array_equal(e.positions, np.sort(before + np.sqrt(dt) * z))
        return z

    e = fresh(seed)
    z = increments(e)
    assert stats.kstest(np.sqrt(dt) * z, "norm", args=(0.0, np.sqrt(dt))).pvalue > 1e-3
    init_draws = particle_mod._stream(seed, particle_mod.INIT_STREAM).random(n)
    for other in (increments(e), increments(fresh(seed + 1)), init_draws):
        assert abs(np.corrcoef(z, other)[0, 1]) < 5.0 / np.sqrt(n)


def test_stream_refuses_a_negative_seed():
    # a negative seed keys no stream: neither the step stream an ensemble
    # makes when it is built nor the initial sample's
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ConfigError, match="seed"):
        step(Ensemble.awake(x, n_total=3, alpha=1.0, seed=-1), 1e-3)
    for sampling in ("stratified", "uniform"):
        with pytest.raises(ConfigError, match="seed"):
            init_ensemble(uniform02(), 4, seed=-1, sampling=sampling)


def test_step_and_init_streams_do_not_alias():
    # seeds of one, two and three words, up to the largest the invariants
    # derive, key distinct states under both tags; past 2**94 a step pair
    # can alias an init pair, as _stream says
    def state(seed, tag):
        return tuple(particle_mod._stream(seed, tag).bit_generator.state["state"]["state"])

    step_tag, init_tag = particle_mod.STEP_STREAM, particle_mod.INIT_STREAM
    seeds = [0, 1, 2 ** 30, 2 ** 32 - 1, 2 ** 32, 2 ** 62, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 7]
    pairs = [(s, tag) for s in seeds for tag in (step_tag, init_tag)]
    assert len({state(*p) for p in pairs}) == len(pairs)
    assert state(5 + 2 ** 94, step_tag) == state(5, init_tag)


def test_interleaved_ensembles_equal_their_solo_runs():
    # two ensembles stepped in turn, a, b, a, b, ..., or run at once in two
    # threads, each keep their own generator: each equals its solo run bit
    # for bit, and so does a deep copy taken mid-run and stepped in turn
    # with the original
    d = piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15])
    dt, n_steps = 5e-4, 150
    solo = [init_ensemble(d, n, seed=seed, alpha=2.0) for n, seed in ((3000, 4), (2000, 5))]
    paths = [run(ref, t_end=n_steps * dt, dt=dt)[0] for ref in solo]
    pair = [init_ensemble(d, n, seed=seed, alpha=2.0) for n, seed in ((3000, 4), (2000, 5))]
    lams = [[], []]
    for _ in range(n_steps):
        for e, lam in zip(pair, lams):
            step(e, dt)
            lam.append(e.frontier)
    for path, ref, e, lam in zip(paths, solo, pair, lams):
        assert np.array_equal(path.lam[1:], lam)
        assert np.array_equal(e.positions, ref.positions)
        assert e.n_dead == ref.n_dead > 0
    # the two runs continued in turn
    pair = [init_ensemble(d, n, seed=seed, alpha=2.0) for n, seed in ((3000, 4), (2000, 5))]
    for _ in range(3):
        for e in pair:
            run(e, t_end=50 * dt, dt=dt)
    for ref, e in zip(solo, pair):
        assert np.array_equal(e.positions, ref.positions)
    pair = [init_ensemble(d, n, seed=seed, alpha=2.0) for n, seed in ((3000, 4), (2000, 5))]
    threads = [threading.Thread(target=run, args=(e,), kwargs={"t_end": n_steps * dt, "dt": dt})
               for e in pair]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for ref, e in zip(solo, pair):
        assert np.array_equal(e.positions, ref.positions)
    e = init_ensemble(d, 3000, seed=4, alpha=2.0)
    run(e, t_end=70 * dt, dt=dt)
    twin = copy.deepcopy(e)
    for _ in range(n_steps - 70):
        step(e, dt)
        step(twin, dt)
        assert twin.frontier == e.frontier
    assert np.array_equal(twin.positions, e.positions)
    assert np.array_equal(e.positions, solo[0].positions)


def test_cascade_wakes_a_sleeping_tier_in_the_same_step():
    # a cascade through tier 0 reaches the danger level of tier 3, asleep at
    # step 1: the step realizes tier 3 with its generator's next draws after
    # tier 0's, solves the cascade again over every realized position, and
    # the result is the least fixed point; tier 3's two far particles survive
    alpha, n_dead, dt = 1.0, 100, 1e-8  # _tiered's alpha
    lam0 = alpha * n_dead / 402
    spacing = 0.5 * alpha / 402
    tier0 = np.concatenate([[lam0 - 0.05], lam0 + spacing * np.arange(1, 150)])
    reach3 = particle_mod._tier_edges(dt)[0][3]
    tier3 = np.concatenate([tier0[-1] + 0.5 * reach3 + spacing * np.arange(150),
                            [5.0, 5.5]])
    e = _tiered([tier0, [], [], tier3], last=[0, 0, 0, 0], n_dead=n_dead,
                seed=5, step_index=0, dt=dt)
    assert e.danger[3] <= tier0[-1] and e.frontier == lam0
    z = copy.deepcopy(e._rng).standard_normal(302)
    step(e, dt)
    x = np.concatenate([tier0, tier3]) + np.sqrt(dt) * z
    assert all(len(t) == 0 for t in e.tiers[1:]) and e.danger[3] == np.inf
    assert np.array_equal(e.positions, x[-2:])
    k0 = int(np.count_nonzero(x <= lam0))
    m = e.n_dead - n_dead - k0
    assert m > len(tier0)  # the woken tier took part in the cascade
    observed = JumpResult(delta=e.frontier - lam0, new_frontier=e.frontier,
                          absorbed_mass=m / e.n_total, n_absorbed=m)
    assert verify_cascade_minimality(np.sort(x[x > lam0]), lam0, k0, alpha,
                                     e.n_total, observed)


def _assert_tiers_sorted(e):
    reach, _ = particle_mod._tier_edges(e.dt)
    for i, tier in enumerate(e.tiers):
        assert np.all(np.diff(tier) >= 0)
        danger = tier[0] - reach[i] if i and len(tier) else np.inf
        assert e.danger[i] == danger


def test_tiers_stay_ascending_with_their_danger_at_the_lowest():
    # after steps of every cap, each tier is ascending and its danger level
    # is its first particle minus its reach
    d = piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15])
    e = init_ensemble(d, 4000, seed=2, alpha=2.0)
    caps = set()
    for _ in range(130):
        step(e, 5e-4)
        _assert_tiers_sorted(e)
        caps.add(min((e.step_index & -e.step_index).bit_length() - 1,
                     particle_mod.TIER_CAP))
    assert caps == set(range(particle_mod.TIER_CAP + 1))
    assert sum(len(t) > 0 for t in e.tiers[1:]) >= 3
    # and after a cascade wakes tier 3 at step 2, whose survivors, tier 3's
    # included, are re-tiered into tiers 0 and 1
    dt, n_dead = 1e-8, 100
    lam0 = n_dead / 402
    spacing = 0.5 / 402
    tier0 = np.concatenate([[lam0 - 0.05], lam0 + spacing * np.arange(1, 150)])
    reach3 = particle_mod._tier_edges(dt)[0][3]
    tier3 = np.concatenate([tier0[-1] + 0.5 * reach3 + spacing * np.arange(150),
                            [5.0, 5.5, 6.0]])
    e = _tiered([tier0, [], [], tier3], last=[1, 0, 0, 0], n_dead=n_dead,
                seed=5, step_index=1, dt=dt)
    step(e, dt)
    assert e.last[3] == 0 and len(e.tiers[3]) == 0  # woken and moved
    assert np.array_equal(e.tiers[1], e.positions)  # the three far ones
    assert len(e.tiers[1]) == 3 and e.n_dead > n_dead + len(tier0)
    _assert_tiers_sorted(e)


def test_sleeping_tiers_keep_their_reach_clear_of_the_frontier():
    # a sleeping particle's skipped positions fall below its danger level
    # with probability at most 2 Phi(-REACH); no particle lands in a tier
    # whose reach plus guard exceeds its distance above the frontier, a
    # tier lands only at a step its period divides, and every sleeping
    # tier's danger level stays above the frontier
    assert 2.0 * stats.norm.cdf(-particle_mod.REACH) <= 1e-16
    d = piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15])
    dt = 5e-4
    e = init_ensemble(d, 4000, seed=2, alpha=2.0)
    s = particle_mod.REACH * np.sqrt(dt)
    slept = 0
    for k in range(1, 257):
        step(e, dt)
        for i in range(1, particle_mod.TIER_CAP + 1):
            tier = e.tiers[i]
            if not len(tier):
                continue
            assert e.last[i] % 2 ** i == 0
            assert e.danger[i] > e.frontier
            if e.last[i] == k:
                edge = s * (np.sqrt(2.0 ** i) + particle_mod.GUARD)
                assert np.min(tier) - e.frontier >= edge * (1 - 1e-12)
        slept += e.n_alive - len(e.tiers[0])
    assert slept > 0.5 * 256 * 2000
    with pytest.raises(ConfigError, match="dt changed"):
        step(e, 2 * dt)


def _euler_reference(d, n, seed, alpha, dt, n_steps):
    """Every-particle end-of-step Euler scheme: frontier after each step.

    The plain loop the tiered step must match in law: every living particle
    moves by sqrt(dt) N(0, 1) each step, those at or below the frontier are
    absorbed, and the cascade is the least fixed point of the count.
    """
    rng = np.random.Generator(np.random.SFC64(seed))
    x = d.quantile((np.arange(n) + 0.5) / n)
    dead, lams = 0, []
    for _ in range(n_steps):
        x = x + np.sqrt(dt) * rng.standard_normal(len(x))
        lam0 = alpha * dead / n
        k0 = int(np.count_nonzero(x <= lam0))
        above = np.sort(x[x > lam0])
        m = 0
        while k0:
            m_new = int(np.searchsorted(above, lam0 + alpha * (k0 + m) / n, side="right"))
            if m_new == m:
                break
            m = m_new
        dead += k0 + m
        x = above[m:]
        lams.append(alpha * dead / n)
    return np.array(lams)


def test_tiered_law_matches_every_particle_euler():
    # 64 fixed seeds of each scheme on the supercritical band, so the
    # verdict cannot flake: the final frontier and the step of the band's
    # jump (the largest one-step increment) have the same law
    d = piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15])
    n, alpha, dt, n_steps = 2000, 2.0, 5e-4, 200
    ref_end, ref_jump, tiered_end, tiered_jump = [], [], [], []
    for seed in range(64):
        lam = _euler_reference(d, n, seed, alpha, dt, n_steps)
        ref_end.append(lam[-1])
        ref_jump.append(int(np.argmax(np.diff(lam, prepend=0.0))))
        path, _ = run(init_ensemble(d, n, seed=seed, alpha=alpha), t_end=n_steps * dt, dt=dt)
        tiered_end.append(path.lam[-1])
        tiered_jump.append(int(np.argmax(np.diff(path.lam))))
    assert stats.ks_2samp(ref_end, tiered_end).pvalue > 1e-3
    assert stats.ks_2samp(ref_jump, tiered_jump).pvalue > 1e-3


def test_run_reproducible():
    d = uniform02()
    e1 = init_ensemble(d, 256, seed=5)
    e2 = init_ensemble(d, 256, seed=5)
    p1, _ = run(e1, t_end=0.05, dt=1e-3)
    p2, _ = run(e2, t_end=0.05, dt=1e-3)
    assert np.array_equal(e1.positions, e2.positions)
    assert np.array_equal(p1.lam, p2.lam)


def test_frontier_equals_alpha_times_dead_fraction():
    d = uniform02()
    e = init_ensemble(d, 2000, seed=9, alpha=1.0)
    path, _ = run(e, t_end=0.1, dt=5e-4)
    # exact integer identity at every sample
    assert np.array_equal(path.lam, e.alpha * path.dead_count / path.n_total)
    assert e.n_dead == int(path.dead_count[-1])
    assert e.frontier == pytest.approx(e.alpha * e.n_dead / e.n_total)


def test_frontier_monotone_and_bounded():
    d = uniform02()
    e = init_ensemble(d, 2000, seed=1, alpha=0.8)
    path, _ = run(e, t_end=0.2, dt=1e-3)
    assert np.all(np.diff(path.lam) >= 0)
    assert path.lam[-1] <= 0.8 + 1e-15


def test_absorbed_stay_absorbed():
    # a continued run revives no one: the dead count never falls, and the
    # living, all above the frontier, are the particles not counted dead
    d = uniform02()
    e = init_ensemble(d, 500, seed=3)
    first, _ = run(e, t_end=0.05, dt=1e-3)
    assert e.n_dead > 0
    second, _ = run(e, t_end=0.1, dt=1e-3)
    dead = np.concatenate([first.dead_count, second.dead_count])
    assert np.all(np.diff(dead) >= 0)
    assert dead[-1] + len(e.positions) == 500
    assert np.all(e.positions > e.frontier)


def test_cascade_jump_matches_counting_fixed_point():
    # cascade_jump's searchsorted iteration on the sorted ensemble must agree
    # with the plain counting fixed point m <- #{alive <= lam(m)}
    rng = np.random.default_rng(12)
    for _ in range(50):
        n_total = 600
        n_alive = int(rng.integers(1, 400))
        alive = np.sort(rng.uniform(0.0, 1.5, n_alive))
        k0 = int(rng.integers(1, 5))
        lam_start = 0.0
        alpha = float(rng.uniform(0.3, 2.0))
        res = cascade_jump(alive, lam_start, k0, alpha, n_total)
        # counting loop replica
        m = 0
        while True:
            lam = lam_start + alpha * (k0 + m) / n_total
            m_new = int(np.sum(alive <= lam))
            if m_new == m:
                break
            m = m_new
        assert res.n_absorbed == m
        assert res.delta == pytest.approx(alpha * (k0 + m) / n_total)


@st.composite
def clustered_ensembles(draw):
    """An ensemble whose next step seeds a cascade through a dense cluster.

    k0 alive particles sit at or below the frontier; right above it a
    cluster of at least 16 * k0 particles is spaced closer than alpha / N, so
    the cascade swallows all of it.  The rest lie beyond a gap, or are
    absent, which makes the cascade a total freeze.
    """
    n_total = draw(st.integers(200, 1200))
    alpha = draw(st.floats(0.5, 3.0))
    n_dead = draw(st.integers(0, n_total // 4))
    k0 = draw(st.integers(1, 4))
    cluster = draw(st.integers(16 * k0, (n_total - n_dead - k0) // 2))
    rest = 0 if draw(st.booleans()) else n_total - n_dead - k0 - cluster
    n_dead = n_total - k0 - cluster - rest
    spacing = draw(st.floats(0.5, 0.95)) * alpha / n_total
    gap = draw(st.floats(0.0, 2.0)) * alpha * cluster / n_total
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    lam0 = alpha * n_dead / n_total
    seeds = lam0 - rng.uniform(0.0, 0.1, k0)
    seeds[0] = lam0  # ties absorb
    cluster_pos = lam0 + spacing * np.arange(1, cluster + 1)
    rest_pos = cluster_pos[-1] + gap + rng.uniform(0.0, 1.0, rest)
    positions = np.concatenate([np.zeros(n_dead), seeds, cluster_pos, rest_pos])
    order = rng.permutation(n_total)
    positions, alive = positions[order], (np.arange(n_total) >= n_dead)[order]
    return Ensemble.awake(positions[alive], n_total=n_total, alpha=alpha, seed=0)


@settings(max_examples=60, deadline=None)
@given(clustered_ensembles())
def test_cascade_is_least_fixed_point(e):
    lam0 = e.frontier
    k0 = int(np.count_nonzero(e.positions <= lam0))
    before = e.positions.copy()
    above = np.sort(before[before > lam0])
    dead_before = e.n_dead
    with mock.patch.object(particle_mod, "cascade_jump",
                           wraps=particle_mod.cascade_jump) as spy:
        particle_mod._absorb(e, e.tiers[0].copy(), lam0, 1e-3)
    # one solve per absorption, on the whole array past the seeds
    assert spy.call_count == 1
    m = e.n_dead - dead_before - k0
    observed = JumpResult(delta=e.frontier - lam0, new_frontier=e.frontier,
                          absorbed_mass=m / e.n_total, n_absorbed=m)
    assert verify_cascade_minimality(above, lam0, k0, e.alpha, e.n_total, observed)
    # the survivors are the positions above the new frontier, ascending
    assert np.array_equal(e.positions, np.sort(before[before > e.frontier]))


@pytest.mark.parametrize("segments", [2, 5])
def test_run_matches_serial_step_loop_and_releases_threads(segments):
    # 80 steps run as `segments` continued runs must equal a plain loop of
    # step() calls, and call step through the module once per step (the name
    # perfbench/spans.py wraps); the band's cascade happens within them. run
    # starts no thread that outlives it, also when a step raises.
    n = 16384
    d = piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15])
    dt = 5e-4
    ref = init_ensemble(d, n, seed=11, alpha=2.0)
    ref_lam, ref_dead = [], []
    for _ in range(80):
        step(ref, dt)
        ref_lam.append(ref.frontier)
        ref_dead.append(ref.n_dead)
    assert ref_dead[-1] > 0.5 * n

    threads_before = threading.active_count()
    e = init_ensemble(d, n, seed=11, alpha=2.0)
    paths = []
    with mock.patch.object(particle_mod, "step", wraps=particle_mod.step) as spy:
        for chunk in np.array_split(np.arange(80), segments):
            path, _ = run(e, t_end=len(chunk) * dt, dt=dt)
            paths.append(path)
            assert threading.active_count() == threads_before
    assert spy.call_count == 80
    assert np.array_equal(np.concatenate([p.lam[1:] for p in paths]), ref_lam)
    assert np.array_equal(np.concatenate([p.dead_count[1:] for p in paths]), ref_dead)
    assert np.array_equal(e.positions, ref.positions)

    serial_step = particle_mod.step

    def failing(e, dt):
        if e.step_index == 5:
            raise RuntimeError("step failed")
        return serial_step(e, dt)

    with mock.patch.object(particle_mod, "step", failing):
        with pytest.raises(RuntimeError, match="step failed"):
            run(init_ensemble(d, n, seed=11, alpha=2.0), t_end=50 * dt, dt=dt)
    assert threading.active_count() == threads_before


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), alpha=st.floats(0.0, 3.0),
       seed=st.integers(0, 2 ** 64 - 1), sampling=st.sampled_from(["stratified", "uniform"]),
       steps=st.lists(st.integers(1, 40), min_size=1, max_size=3))
def test_packed_layout_after_any_run(n, alpha, seed, sampling, steps):
    # after each run, continued ones included, every living particle lies
    # above the frontier, the living and the recorded dead make up all N,
    # and the frontier is alpha * dead / N exactly at every sample
    d = piecewise_constant([0.0, 0.1, 0.8], [5.0, 0.5])
    e = init_ensemble(d, n, seed=seed, sampling=sampling, alpha=alpha)
    dt = 1e-3
    for k in steps:
        path, _ = run(e, t_end=k * dt, dt=dt)
        assert np.all(e.positions > e.frontier)
        assert path.dead_count[-1] + len(e.positions) == n
        assert np.array_equal(path.lam, e.alpha * path.dead_count / n)


def test_supercritical_initial_data_freezes_fast():
    # mass packed tightly near the origin with alpha > 1: most of the bar
    # freezes almost immediately once diffusion starts
    d = piecewise_constant([0.0, 0.2], [5.0])
    e = init_ensemble(d, 5000, seed=4, alpha=2.0)
    path, _ = run(e, t_end=0.05, dt=1e-4)
    assert e.n_dead / e.n_total > 0.95


def test_jump_records_have_threshold_size():
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    e = init_ensemble(d, 20_000, seed=2)
    path, _ = run(e, t_end=0.01, dt=1e-5)
    thr = 5 * e.alpha / e.n_total
    for rec in path.jumps:
        assert rec.delta > thr
    # the reference profile's macroscopic jump shows up within t ~ 0.01
    assert path.lam[-1] > 0.5


def run_seen(e, **kw):
    """run(e, **kw), with the positions before it and after each step that
    realizes every tier: (path, field, [(t, frontier, positions), ...])."""
    seen = [(e.t, e.frontier, e.positions.copy())]
    serial_step = particle_mod.step

    def spying(e, dt, realize_all=False):
        serial_step(e, dt, realize_all=realize_all)
        if realize_all:
            seen.append((e.t, e.frontier, e.positions.copy()))
        return e

    with mock.patch.object(particle_mod, "step", spying):
        path, fld = run(e, **kw)
    return path, fld, seen


def assert_rows_are_histograms(fld, seen, n_total):
    x = fld.x
    dx = x[1] - x[0]
    edges = np.concatenate([x - 0.5 * dx, [x[-1] + 0.5 * dx]])
    for k, (_, _, pos) in enumerate(seen):
        counts, _ = np.histogram(pos, bins=edges)
        assert np.array_equal(fld.values[k], counts / (n_total * dx))
        assert np.sum(fld.values[k]) * fld.dx == pytest.approx(
            len(pos) / n_total, abs=1e-9)


def test_run_bins_its_snapshots():
    # the field's rows are the histograms of the living positions at t = 0,
    # every 10th step and the last, each normalized to the living fraction;
    # the rows equal np.histogram's oracle bit for bit, and the path holds
    # the frontier at each row's time
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    x = np.linspace(0, 3, 121)
    e = init_ensemble(d, 4000, seed=8)
    path, fld, seen = run_seen(e, t_end=0.045, dt=1e-3, snapshot_every=10, x_grid=x)
    assert len(seen) == 1 + 5
    assert path.lam[-1] > 0.5
    assert np.array_equal(fld.x, x)
    assert np.array_equal(fld.t, [t for t, _, _ in seen])
    assert np.array_equal(path.value_at(fld.t), [lam for _, lam, _ in seen])
    assert_rows_are_histograms(fld, seen, e.n_total)


def test_continued_run_bins_its_snapshots():
    # a continued run's first row shows tiers last realized at different
    # steps, not one ascending array; it too equals np.histogram's counts
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    e = init_ensemble(d, 4000, seed=8)
    run(e, t_end=0.013, dt=1e-3)
    path, fld, seen = run_seen(e, t_end=0.02, dt=1e-3, snapshot_every=7,
                               x_grid=np.linspace(0, 3, 121))
    assert np.any(np.diff(seen[0][2]) < 0)
    assert len(seen) == 1 + 3
    assert np.array_equal(fld.t, [t for t, _, _ in seen])
    assert np.array_equal(path.value_at(fld.t), [lam for _, lam, _ in seen])
    assert_rows_are_histograms(fld, seen, e.n_total)


def test_snapshot_rows_read_their_own_frontier():
    # where sample_every does not divide snapshot_every, each snapshot step
    # is sampled too, so a row's frontier is the one the same run gives
    # sampled every step, not the last sample before it
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    x = np.linspace(0, 3, 121)
    path, fld = run(init_ensemble(d, 4000, seed=8), t_end=0.05, dt=1e-3,
                    sample_every=3, snapshot_every=5, x_grid=x)
    ref, ref_fld = run(init_ensemble(d, 4000, seed=8), t_end=0.05, dt=1e-3,
                       sample_every=1, snapshot_every=5, x_grid=x)
    assert np.array_equal(fld.values, ref_fld.values)
    assert np.array_equal(path.value_at(fld.t), ref.value_at(fld.t))


def test_run_without_snapshots_returns_no_field():
    path, fld = run(init_ensemble(uniform02(), 100, seed=0), t_end=0.01, dt=1e-3,
                    x_grid=np.linspace(0, 3, 121))
    assert fld is None and len(path.lam) == 11


@pytest.mark.parametrize("x_grid", [None, np.array([5.0])], ids=["none", "one-node"])
def test_snapshots_refused_before_stepping(x_grid):
    # a field needs two cells: refused before the t = 0 resolution (which
    # replaces tier 0 by a sorted copy), not after the whole run
    e = init_ensemble(uniform02(), 300, seed=0, alpha=0.7)
    tier0 = e.tiers[0]
    with pytest.raises(ConfigError, match="at least two nodes"):
        run(e, t_end=0.01, dt=1e-3, snapshot_every=5, x_grid=x_grid)
    assert e.step_index == 0 and e.t == 0.0 and e.n_dead == 0
    assert e.tiers[0] is tier0


def test_snapshots_keep_no_positions():
    # each snapshot is binned as it is taken: a run that snapshots every
    # step traces far less than keeping its positions would take
    n, n_steps = 20_000, 50
    e = init_ensemble(uniform02(), n, seed=3)
    x = (np.arange(150) + 0.5) * 0.02
    tracemalloc.start()
    try:
        _, fld = run(e, t_end=n_steps * 1e-3, dt=1e-3, snapshot_every=1, x_grid=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.values.shape == (n_steps + 1, len(x))
    assert peak < (n_steps + 1) * n * 8 / 5


def test_frontier_samples_are_preallocated():
    # times, frontier and dead count go into three arrays allocated once,
    # 24 B a kept step; Python lists of their floats and ints took 98 B
    n_steps = 5000
    e = init_ensemble(uniform02(), 200, seed=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        path, _ = run(e, t_end=n_steps * 1e-3, dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(path.lam) == n_steps + 1
    assert peak < 32 * (n_steps + 1)


@pytest.mark.parametrize("sample_every, snapshot_every", [
    (1, 0), (3, 0), (30, 0), (3, 4), (4, 6), (5, 10), (10, 5), (7, 7), (30, 30)])
def test_run_keeps_the_steps_kept_steps_counts(sample_every, snapshot_every):
    # of 23 steps a run keeps step 0, the last and each multiple of either
    # period, with the frontier and dead count that the same run sampled
    # every step holds there; each snapshot step is one of them
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    kw = dict(t_end=0.023, dt=1e-3, snapshot_every=snapshot_every,
              x_grid=np.linspace(0, 3, 121))
    ref, ref_fld = run(init_ensemble(d, 2000, seed=8), sample_every=1, **kw)
    path, fld = run(init_ensemble(d, 2000, seed=8), sample_every=sample_every, **kw)
    keep = [k for k in range(24) if k in (0, 23) or k % sample_every == 0
            or snapshot_every and k % snapshot_every == 0]
    assert len(keep) == kept_steps(23, sample_every, snapshot_every) == len(path.lam)
    assert np.array_equal(path.times, ref.times[keep])
    assert np.array_equal(path.lam, ref.lam[keep])
    assert np.array_equal(path.dead_count, ref.dead_count[keep])
    if snapshot_every:
        snaps = [k for k in range(24) if k in (0, 23) or k % snapshot_every == 0]
        assert len(snaps) == kept_steps(23, snapshot_every) == len(fld.values)
        assert np.array_equal(fld.t, ref.times[snaps])
        assert np.array_equal(fld.values, ref_fld.values)
    else:
        assert fld is None


def test_value_at_right_continuous_steps():
    d = uniform02()
    e = init_ensemble(d, 1000, seed=6)
    path, _ = run(e, t_end=0.05, dt=1e-3)
    for k in (0, 10, 49):
        assert path.value_at(path.times[k]) == path.lam[k]
    mid = 0.5 * (path.times[3] + path.times[4])
    assert path.value_at(mid) == path.lam[3]
