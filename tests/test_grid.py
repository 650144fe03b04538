"""Finite-volume solver: diffusion accuracy, frontier motion, weight record."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import stefanlab
from stefanlab import grid
from stefanlab.densities import piecewise_constant
from stefanlab.errors import ConfigError, TruncationError
from stefanlab.fields import kept_steps
from stefanlab.grid import (GridState, _cell_cdf_jump, advance_front, diffuse_step,
                            run_grid)
from stefanlab.jump_rule import TIE_GUARD, continuum_jump


def make_state(u, j=0, lam=0.0, alpha=1.0, dx=0.1):
    return GridState(u=np.asarray(u, dtype=float), j=j, lam=lam, t=0.0,
                     alpha=alpha, dx=dx, nu=np.zeros(len(u)))


def test_diffuse_conserves_mass_with_wall():
    # alpha=0 run: no absorption, Neumann wall on the right, Dirichlet at the
    # fixed frontier face drains mass; with the bump far from both edges the
    # drain is negligible and mass is conserved to solver accuracy
    n, dx = 400, 0.05
    x = (np.arange(n) + 0.5) * dx
    u = np.exp(-((x - 10.0) ** 2) / 0.5)
    st = make_state(u, dx=dx)
    m0 = st.mass
    for _ in range(100):
        diffuse_step(st, 1e-3)
    assert st.mass == pytest.approx(m0, abs=1e-10)


def test_diffuse_zero_field_stays_zero():
    st = make_state(np.zeros(50))
    diffuse_step(st, 1e-2)
    assert np.all(st.u == 0)


def test_diffuse_eigenmode_decay_rate():
    # discrete eigenmode of the Dirichlet(front)/Neumann(wall) Laplacian:
    # v_i = sin(theta*(i+0.5)), theta = pi/(2n) fundamental; implicit Euler
    # multiplies it by exactly (1 + lam*dt/2)^(-1), lam = (2-2cos theta)/dx^2
    n, dx, dt = 64, 0.05, 2e-3
    theta = np.pi / (2 * n)
    i = np.arange(n)
    v = np.sin(theta * (i + 0.5))
    st = make_state(v.copy(), dx=dx)
    lam_eig = (2.0 - 2.0 * np.cos(theta)) / dx ** 2
    factor = 1.0 / (1.0 + 0.5 * lam_eig * dt)
    for k in range(1, 6):
        diffuse_step(st, dt)
        assert np.allclose(st.u, v * factor ** k, atol=1e-8)


def test_diffuse_higher_eigenmode():
    n, dx, dt = 64, 0.05, 2e-3
    m = 3
    theta = (2 * m + 1) * np.pi / (2 * n)
    v = np.sin(theta * (np.arange(n) + 0.5))
    st = make_state(v.copy(), dx=dx)
    lam_eig = (2.0 - 2.0 * np.cos(theta)) / dx ** 2
    factor = 1.0 / (1.0 + 0.5 * lam_eig * dt)
    diffuse_step(st, dt)
    assert np.allclose(st.u, v * factor, atol=1e-8)


def test_diffuse_respects_frontier_offset():
    # frozen prefix must remain untouched and the Dirichlet face sits at j*dx
    n, dx = 40, 0.1
    u = np.ones(n)
    u[:10] = 0.0
    st = make_state(u, j=10, lam=1.0, dx=dx)
    diffuse_step(st, 1e-3)
    assert np.all(st.u[:10] == 0)
    # boundary cell decays fastest
    assert st.u[10] < st.u[20]


def banded_step(u, j, dx, dt):
    """One implicit step through scipy's solve_banded, the oracle."""
    m = len(u) - j
    r = 0.5 * dt / dx ** 2
    diag = np.full(m, 1.0 + 2.0 * r)
    diag[0] += r
    diag[-1] -= r
    ab = np.zeros((3, m))
    ab[0, 1:] = -r
    ab[1, :] = diag
    ab[2, :-1] = -r
    out = u.copy()
    out[j:] = solve_banded((1, 1), ab, u[j:])
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 317])
@pytest.mark.parametrize("r", [1e-4, 0.05, 0.7, 3.3, 37.5, 2e4])
def test_diffuse_matches_banded_oracle_bitwise(m, r):
    rng = np.random.default_rng(m)
    j, dx = 4, 0.02
    dt = 2.0 * r * dx ** 2
    u = rng.random(j + m)
    u[:j] = 0.0
    st = make_state(u.copy(), j=j, dx=dx)
    want = banded_step(u, j, dx, dt)
    for _ in range(3):
        diffuse_step(st, dt)
        assert np.array_equal(st.u, want)
        want = banded_step(want, j, dx, dt)


@pytest.mark.parametrize("schedule", [
    # the face advances: the alive count runs 8, 5, 3, 2, 1
    [(0, 1e-3), (0, 1e-3), (3, 1e-3), (5, 1e-3), (5, 1e-3), (6, 1e-3),
     (7, 1e-3), (7, 1e-3)],
    # dt changes, and changes back, at a fixed face
    [(2, 1e-3), (2, 4e-3), (2, 4e-3), (2, 2.5e-4), (2, 1e-3), (2, 1e-3)]],
    ids=["face-advances", "dt-changes"])
def test_diffuse_factor_cache_matches_banded_oracle_bitwise(schedule, monkeypatch):
    # one state stepped repeatedly: each step matches a fresh banded solve
    # bit for bit, and the matrix is factored only when the alive count
    # (of at least 3 cells) or dt changed since the last factored step
    factored = []
    dgtsv, dgttrf, dgttrs = grid._lapack()

    def counting(*args):
        factored.append(len(args[1]))
        return dgttrf(*args)
    monkeypatch.setattr(grid, "_lapack", lambda: (dgtsv, counting, dgttrs))
    n, dx = 8, 0.02
    u = np.random.default_rng(7).random(n)
    st = make_state(u.copy(), dx=dx)
    want, last, expect = u.copy(), None, []
    for j, dt in schedule:
        st.u[:j] = want[:j] = 0.0
        st.j = j
        diffuse_step(st, dt)
        want = banded_step(want, j, dx, dt)
        assert np.array_equal(st.u, want)
        if n - j >= 3 and (n - j, dt) != last:
            expect.append(n - j)
            last = (n - j, dt)
        assert factored == expect


def test_import_leaves_scipy_unloaded():
    # the grid step imports LAPACK on first use, so importing the package
    # and its command line, as a particle-only run does, loads no scipy;
    # verify imports its process pool only when it runs
    code = ("import stefanlab.cli, sys; loaded = {'scipy', 'multiprocessing',"
            " 'concurrent.futures'} & set(sys.modules); assert not loaded, loaded")
    src = str(Path(stefanlab.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_diffuse_on_non_contiguous_u():
    # a strided u cannot be solved in place; the step must still land in it
    base = np.random.default_rng(1).random(80)
    st = make_state(np.zeros(40), dx=0.05)
    st.u = base[::2]
    want = banded_step(base[::2].copy(), 0, 0.05, 1e-3)
    diffuse_step(st, 1e-3)
    assert np.array_equal(st.u, want)
    assert np.array_equal(base[::2], want)


def test_advance_front_alpha_zero():
    st = make_state(np.ones(10) * 0.1, alpha=0.0)
    advance_front(st)
    assert st.lam == 0.0
    assert st.j == 0


def test_advance_front_smooth_increment():
    # alpha=1, mass 0.8: first target 0.2 sweeps two cells, whose own mass
    # (0.08) feeds back into the balance; the least fixed point is j=3 with
    # surviving mass 0.68 and lam = 0.32
    u = np.full(20, 0.4)
    st = make_state(u, dx=0.1)
    advance_front(st)
    assert st.j == 3
    assert st.mass == pytest.approx(0.68)
    assert st.lam == pytest.approx(st.alpha * (1.0 - st.mass))
    assert np.all(st.u[:3] == 0)
    assert np.allclose(st.nu[:3], 1.0 / st.alpha)


def test_advance_front_jump_on_vacuum():
    # discrete version of the two-block profile: 2.0 in cells 0..2 (mass 0.6
    # at dx=0.1), vacuum through cell 9, 0.8 in cells 10..14 (mass 0.4).
    # At alpha=1 the sweep stalls in the vacuum and the frontier jumps to 0.6.
    dx = 0.1
    u = np.zeros(30)
    u[:3] = 2.0
    u[10:15] = 0.8
    st = make_state(u, dx=dx)
    records = advance_front(st)
    # the crossing interpolation lands the jump exactly on the 0.6 face
    assert st.j == 6
    assert st.lam == pytest.approx(0.6, abs=1e-12)
    assert st.lam == pytest.approx(st.alpha * (1.0 - st.mass), abs=1e-12)
    assert np.all(st.u[:st.j] == 0)
    # in one jump: every swallowed cell keeps its pre-jump temperature
    assert len(records) == 1
    assert records[0].lambda_minus == 0.0
    assert records[0].lambda_plus == pytest.approx(0.6, abs=1e-12)
    assert np.array_equal(st.nu[:6], [2.0, 2.0, 2.0, 0.0, 0.0, 0.0])


def full_cell_cdf_jump(state):
    """The jump solve on the whole cell CDF, faces as knots, as the oracle."""
    a, dx = state.j, state.dx
    k = min(int((state.alpha + 2 * dx) / dx + 1e-9), len(state.u) - a)
    faces = dx * np.arange(k + 1)
    cum = np.concatenate(([0.0], np.cumsum(state.u[a:a + k]) * dx))
    return continuum_jump(lambda x: np.interp(x, a * dx + faces, cum),
                          a * dx, state.alpha, faces[1:])


def _nudge(v, ulps):
    for _ in range(abs(ulps)):
        v = np.nextafter(v, np.inf if ulps > 0 else 0.0)
    return float(v)


@st.composite
def frontier_cells(draw):
    """A grid state whose frontier cell sits below, at or above 1/alpha.

    The frontier cell's value is drawn at random, or a few ulps from 1/alpha
    or from the edge of the no-jump test (the u with dx/alpha - u*dx equal to
    the tie guard TIE_GUARD * (u*dx + (j*dx + dx)/alpha)), so both sides of
    the test are exercised bit for bit.
    """
    alpha = draw(st.floats(0.05, 4.0))
    dx = draw(st.sampled_from([0.1, 0.05, 0.02, 1.0 / 3.0, 0.0137]))
    n = draw(st.integers(1, 60))
    j = draw(st.integers(0, n - 1))
    u = np.array(draw(st.lists(st.floats(0.0, 3.0 / alpha), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["random", "critical", "edge"]))
    if kind == "critical":
        u[j] = _nudge(1.0 / alpha, draw(st.integers(-3, 3)))
    elif kind == "edge":
        u[j] = _nudge((dx / alpha - TIE_GUARD * (j * dx + dx) / alpha)
                      / (dx * (1 + TIE_GUARD)), draw(st.integers(-3, 3)))
    u[:j] = 0.0
    return make_state(u, j=j, alpha=alpha, dx=dx)


@settings(max_examples=300, deadline=None)
@given(frontier_cells())
@example(make_state([0.0, 0.0, 1.0, 1.0, 0.0, 0.0], j=2, alpha=1.0, dx=0.1))
@example(make_state([0.0, 0.0, 0.999, 5.0, 5.0, 0.0], j=2, alpha=1.0, dx=0.1))
def test_cell_cdf_jump_matches_full_solve(state):
    got = _cell_cdf_jump(state)
    want = full_cell_cdf_jump(state)
    assert (got.delta, got.new_frontier, got.absorbed_mass) == \
        (want.delta, want.new_frontier, want.absorbed_mass)


def test_cell_cdf_jump_solves_only_from_1_over_alpha(monkeypatch):
    # the solver is reached only when the frontier cell is at least 1/alpha
    # up to the tie guard; a cold frontier cell answers no-jump without it
    import stefanlab.grid as grid
    calls = []

    def counted(*args):
        calls.append(args)
        return continuum_jump(*args)

    monkeypatch.setattr(grid, "continuum_jump", counted)
    cold = make_state([0.0, 0.9, 5.0, 5.0, 5.0], j=1, alpha=1.0, dx=0.1)
    res = _cell_cdf_jump(cold)
    assert (res.delta, res.new_frontier, res.absorbed_mass) == (0.0, 0.1, 0.0)
    assert calls == []
    warm = make_state([0.0, 1.0, 5.0, 5.0, 5.0], j=1, alpha=1.0, dx=0.1)
    assert _cell_cdf_jump(warm).delta > 0
    assert len(calls) == 1


def test_run_grid_reference_initial_jump():
    # the two-block profile jumps to 0.6 at t=0 within one cell width
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    for dx in (0.05, 0.025):
        path, fld, wt = run_grid(d, alpha=1.0, t_end=10 * 1e-4, dt=1e-4,
                                 dx=dx, x_max=4.0)
        assert abs(path.lambda_0 - 0.6) <= dx + 1e-9
        assert len(path.jumps) >= 1
        assert path.jumps[0].t == 0.0
        assert abs(path.jumps[0].delta - 0.6) <= dx + 1e-9


def test_run_grid_mass_balance_exact():
    d = piecewise_constant([0.0, 2.0], [0.5])
    path, fld, wt = run_grid(d, alpha=1.0, t_end=0.05, dt=1e-3, dx=0.05,
                             x_max=4.0)
    # lam = alpha*(1 - surviving mass) is enforced at every sample
    final_mass = fld.mass_at(-1)
    assert path.lam[-1] == pytest.approx(1.0 * (1.0 - final_mass), abs=1e-10)
    assert np.all(np.diff(path.lam) >= -1e-12)


def test_run_grid_weight_pattern_reference():
    # inside the t=0 jump's swept region the recorded weight is the pre-jump
    # temperature (2 on (0,0.3), 0 on (0.3,0.6)); smooth-frozen cells later
    # record 1/alpha
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    dx = 0.025
    path, fld, wt = run_grid(d, alpha=1.0, t_end=0.02, dt=2e-4, dx=dx,
                             x_max=4.0)
    x = wt.x
    jump_end = path.lambda_0
    in_block = (x > dx) & (x < 0.3 - dx)
    in_gap = (x > 0.3 + dx) & (x < jump_end - dx)
    assert np.allclose(wt.nu[in_block], 2.0, atol=1e-9)
    assert np.allclose(wt.nu[in_gap], 0.0, atol=1e-9)
    # smooth-frozen cells between the jump and the current frontier hold 1/alpha
    smooth = (x > jump_end + dx) & (x < path.lam[-1] - dx) & wt.recorded
    if np.any(smooth):
        assert np.allclose(wt.nu[smooth], 1.0, atol=1e-9)


def test_run_grid_records_each_frozen_cell_once():
    # the face only moves forward, so the recorded cells are exactly those
    # behind the final face, the vacuum the t = 0 jump swept included: the
    # jump's cells hold their pre-jump temperatures, the cells the smooth
    # advance froze later 1/alpha
    d = piecewise_constant([0.0, 0.3, 0.5, 2.5], [2.0, 0.0, 0.2])
    dx, n = 0.025, 200
    path, fld, wt = run_grid(d, alpha=1.0, t_end=0.2, dt=1e-3, dx=dx, x_max=n * dx)
    # the face of a row: its first liquid cell, the first centre past lambda
    faces = [int(np.argmax(row > 0)) for row in fld.values]
    assert faces == list(np.searchsorted(fld.x, path.lam + 1e-12))
    assert np.array_equal(wt.recorded, np.arange(n) < faces[-1])
    [jump] = path.jumps
    j_jump, j_end = round(jump.lambda_plus / dx), faces[-1]
    assert j_jump == faces[0] == 25 and j_end > j_jump
    assert np.all(wt.nu[12:20] == 0.0)
    pre_jump = d.cell_averages(np.arange(n + 1) * dx)
    assert np.array_equal(wt.nu[:j_jump], pre_jump[:j_jump])
    assert np.all(wt.nu[j_jump:j_end] == 1.0)
    assert np.all(wt.nu[j_end:] == 0.0)


def test_run_grid_weight_never_overwritten():
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    path, fld, wt = run_grid(d, alpha=1.0, t_end=0.05, dt=5e-4, dx=0.05,
                             x_max=4.0)
    rec1 = wt.nu.copy()
    mask1 = wt.recorded.copy()
    # rerun longer: earlier records must be byte-identical
    path2, fld2, wt2 = run_grid(d, alpha=1.0, t_end=0.1, dt=5e-4, dx=0.05,
                                x_max=4.0)
    assert np.array_equal(wt2.nu[mask1], rec1[mask1])


def test_run_grid_validation():
    d = piecewise_constant([0.0, 2.0], [0.5])
    with pytest.raises(ConfigError):
        run_grid(d, alpha=1.0, t_end=0.1, dt=1e-3, dx=0.05, x_max=2.5)
    with pytest.raises(ConfigError):
        run_grid(d, alpha=1.0, t_end=0.1, dt=1e-3, dx=0.07, x_max=3.0)


def test_run_grid_wall_guard_trips():
    # vessel barely larger than the support: heat reaches the wall quickly
    d = piecewise_constant([0.0, 2.0], [0.5])
    with pytest.raises(TruncationError):
        run_grid(d, alpha=0.5, t_end=5.0, dt=1e-3, dx=0.05, x_max=2.5)


def test_run_grid_samples_every_kth_step_and_the_last():
    # a coarser schedule keeps exactly the rows of the every-step run at the
    # kept steps, the final step included, and fills each row kept_steps
    # counts; the field keeps its own copy of the sample times
    d = piecewise_constant([0.0, 1.0], [1.0])
    kw = dict(alpha=0.8, t_end=0.5, dt=0.05, dx=0.05, x_max=5.0)
    full_path, full, _ = run_grid(d, sample_every=1, **kw)
    last = len(full.t) - 1
    assert last == 10
    for every in (2, 3, 5, 10, 11):
        path, fld, _ = run_grid(d, sample_every=every, **kw)
        keep = sorted({*range(0, last + 1, every), last})
        assert len(keep) == kept_steps(last, every) == len(fld.values)
        assert np.array_equal(fld.t, full.t[keep])
        assert np.array_equal(fld.values, full.values[keep])
        assert np.array_equal(path.times, fld.t)
        assert not np.shares_memory(path.times, fld.t)
        assert np.array_equal(path.lam, full_path.lam[keep])


def brute_force_kept(n_steps, *every):
    """Step 0, the last step and each multiple of a nonzero period, one by one."""
    return sum(k == 0 or k == n_steps or any(p and k % p == 0 for p in every)
               for k in range(n_steps + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 400), st.lists(st.integers(0, 40), max_size=3))
@example(50, [0, 0])        # zero periods keep no multiple
@example(60, [5, 10])       # one period divides the other
@example(60, [7, 7])
@example(97, [4, 6])        # a shared multiple, and a last step off both
@example(1000, [3, 5])      # co-prime
def test_kept_steps_matches_a_brute_force_count(n_steps, every):
    assert kept_steps(n_steps, *every) == brute_force_kept(n_steps, *every)


@pytest.mark.parametrize("n_steps, every, kept", [
    # the memory guard's counts: samples every 3rd or 4th step beside a
    # snapshot every 5th or 6th
    (100, (3, 5), 48), (97, (4, 6), 34), (1000, (3, 5), 468)])
def test_kept_steps_counts(n_steps, every, kept):
    assert kept_steps(n_steps, *every) == kept


@pytest.mark.parametrize("d, alpha, x_max, jumps_in_prefix", [
    # the benchmark band: a jump at t = 0.03, inside the prefix
    (piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15]), 2.0, 9.28, 1),
    # the README demo: subcritical, no jump
    (piecewise_constant([0.0, 1.5], [0.6667]), 0.7, 6.2, 0)],
    ids=["band", "readme-demo"])
def test_run_grid_prefix_equals_the_longer_run(d, alpha, x_max, jumps_in_prefix):
    # a step depends only on the state before it, so a run to 200 dt is the
    # first 201 samples of the run to t_end = 1, bit for bit
    kw = dict(alpha=alpha, dt=1e-3, dx=0.02, x_max=x_max)
    full_path, full, _ = run_grid(d, t_end=1.0, **kw)
    path, fld, _ = run_grid(d, t_end=200 * 1e-3, **kw)
    assert len(fld.t) == 201
    assert np.array_equal(path.times, full_path.times[:201])
    assert np.array_equal(path.lam, full_path.lam[:201])
    assert np.array_equal(fld.t, full.t[:201])
    assert np.array_equal(fld.values, full.values[:201])
    early = [rec for rec in full_path.jumps if rec.t <= fld.t[-1]]
    assert path.jumps == early
    assert len(early) == jumps_in_prefix
