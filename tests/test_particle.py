"""Interacting-particle solver: sampling, reproducibility, mass identity."""
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import stefanlab.particle as particle_mod
from stefanlab.densities import piecewise_constant
from stefanlab.jump_rule import JumpResult, cascade_jump, verify_cascade_minimality
from stefanlab.particle import (
    Ensemble,
    empirical_field,
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


def _kill_lowest(e, k):
    """e with its k lowest original indices absorbed at t = 0."""
    e.positions = e.positions[k:]
    return e


def test_step_bit_reproducible_regardless_of_history():
    # the step-k noise depends only on (seed, k, rank among the living): not
    # on how many died, nor on the steps that came before
    d = uniform02()
    a = init_ensemble(d, 64, seed=7)
    b = _kill_lowest(init_ensemble(d, 64, seed=7), 10)
    a.step_index = b.step_index = 3
    a0, b0 = a.positions.copy(), b.positions.copy()
    step(a, 1e-6)
    step(b, 1e-6)
    z = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([7, 3]))).standard_normal(64) * 1e-3
    assert a.n_dead == 0 and b.n_dead == 10  # nobody absorbed by the step
    assert np.array_equal(a.positions, a0 + z)
    assert np.array_equal(b.positions, b0 + z[:54])


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 2])
def test_stream_is_gaussian_and_uncorrelated_across_keys(seed):
    # fixed seeds, so the verdict cannot flake: the step increments are
    # N(0, dt), and the streams of the next step, the next seed and the
    # initial sample are uncorrelated with them to within 5 / sqrt(n)
    n, dt = 100_000, 1e-3

    def increments(s, k):
        e = Ensemble(positions=np.zeros(n), n_total=n, alpha=0.0, seed=s,
                     step_index=k)
        return particle_mod._increments(e, dt)

    z = increments(seed, 3)
    assert stats.kstest(z, "norm", args=(0.0, np.sqrt(dt))).pvalue > 1e-3
    init_draws = particle_mod._stream(seed, particle_mod.INIT_STREAM).random(n)
    for other in (increments(seed, 4), increments(seed + 1, 3), init_draws):
        assert abs(np.corrcoef(z, other)[0, 1]) < 5.0 / np.sqrt(n)


def test_run_reproducible():
    d = uniform02()
    e1 = init_ensemble(d, 256, seed=5)
    e2 = init_ensemble(d, 256, seed=5)
    p1, f1 = run(e1, t_end=0.05, dt=1e-3)
    p2, f2 = run(e2, t_end=0.05, dt=1e-3)
    assert np.array_equal(f1.positions, f2.positions)
    assert np.array_equal(p1.lam, p2.lam)


def test_frontier_equals_alpha_times_dead_fraction():
    d = uniform02()
    e = init_ensemble(d, 2000, seed=9, alpha=1.0)
    path, e = run(e, t_end=0.1, dt=5e-4)
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
    first, e = run(e, t_end=0.05, dt=1e-3)
    assert e.n_dead > 0
    second, e = run(e, t_end=0.1, dt=1e-3)
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
    the cascade swallows all of it and overruns the first two windows.  The
    rest lie beyond a gap, or are absent, which makes the cascade a total
    freeze.
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
    return Ensemble(positions=positions[alive], n_total=n_total, alpha=alpha, seed=0)


@settings(max_examples=60, deadline=None)
@given(clustered_ensembles())
def test_windowed_cascade_is_least_fixed_point(e):
    lam0 = e.frontier
    k0 = int(np.count_nonzero(e.positions <= lam0))
    before = e.positions.copy()
    above = np.sort(before[before > lam0])
    dead_before = e.n_dead
    with mock.patch.object(particle_mod, "cascade_jump",
                           wraps=particle_mod.cascade_jump) as spy:
        particle_mod._absorb_below_frontier(e)
    # the first window and its double both end inside the cluster
    assert spy.call_count >= 3
    m = e.n_dead - dead_before - k0
    observed = JumpResult(delta=e.frontier - lam0, new_frontier=e.frontier,
                          absorbed_mass=m / e.n_total, n_absorbed=m)
    assert verify_cascade_minimality(above, lam0, k0, e.alpha, e.n_total, observed)
    # the survivors are the packed positions above the new frontier, in order
    assert np.array_equal(e.positions, before[before > e.frontier])


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
            path, e = run(e, t_end=len(chunk) * dt, dt=dt)
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
        path, e = run(e, t_end=k * dt, dt=dt)
        assert np.all(e.positions > e.frontier)
        assert path.dead_count[-1] + len(e.positions) == n
        assert np.array_equal(path.lam, e.alpha * path.dead_count / n)


def test_supercritical_initial_data_freezes_fast():
    # mass packed tightly near the origin with alpha > 1: most of the bar
    # freezes almost immediately once diffusion starts
    d = piecewise_constant([0.0, 0.2], [5.0])
    e = init_ensemble(d, 5000, seed=4, alpha=2.0)
    path, e = run(e, t_end=0.05, dt=1e-4)
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


def test_snapshots_and_empirical_field():
    d = uniform02()
    e = init_ensemble(d, 4000, seed=8)
    snaps = []
    run(e, t_end=0.04, dt=1e-3, snapshots_out=snaps, snapshot_every=10)
    assert len(snaps) >= 4
    x = np.linspace(0, 3, 121)
    fld = empirical_field(snaps, x)
    assert fld.values.shape == (len(snaps), len(x))
    # each histogram row integrates to the alive fraction at that time
    for row, snap in zip(fld.values, snaps):
        assert np.sum(row) * fld.dx == pytest.approx(
            len(snap.alive_positions) / snap.n_total, abs=1e-9)


def test_value_at_right_continuous_steps():
    d = uniform02()
    e = init_ensemble(d, 1000, seed=6)
    path, _ = run(e, t_end=0.05, dt=1e-3)
    for k in (0, 10, 49):
        assert path.value_at(path.times[k]) == path.lam[k]
    mid = 0.5 * (path.times[3] + path.times[4])
    assert path.value_at(mid) == path.lam[3]
