"""Tests for the time-tail potential and its obstacle-problem diagnostics."""
from dataclasses import replace

import numpy as np
import pytest

from stefanlab.densities import piecewise_constant
from stefanlab.errors import ConfigError
from stefanlab.exporters import read_matrix_csv, write_matrix_csv
from stefanlab.fields import Field, WeightField
from stefanlab.grid import run_grid
from stefanlab.potential import (SCAN_ROWS, W_ROWS, PotentialField,
                                 bound_suite, compute_w, default_eps_w,
                                 obstacle_residual, residual_l1_window,
                                 scan_first_positive, scan_first_zero, w_rows)
from stefanlab.synthetic import (caloric_polynomial_field,
                                 critical_profile_potential,
                                 vanishing_profile_potential)


def constant_field(c, x_max=1.0, t_end=1.0, dx=0.05, dt=0.05):
    x = (np.arange(int(round(x_max / dx))) + 0.5) * dx
    t = np.arange(0.0, t_end + dt / 2, dt)
    u = np.full((len(t), len(x)), c)
    return Field(x=x, t=t, values=u, frontier_index=np.zeros(len(t), dtype=np.int64),
                 lam=np.zeros(len(t)), alpha=1.0)


def uniform_weight(x, value, alpha):
    return WeightField(x=x, nu=np.full(len(x), value), alpha=alpha,
                       recorded=np.ones(len(x), dtype=bool))


class TestComputeW:
    def test_constant_field_gives_linear_ramp(self):
        # trapezoid is exact on constants: w(x, t) = c * (t_end - t)
        c = 0.7
        f = constant_field(c)
        w = compute_w(f)
        expected = c * (f.t[-1] - f.t)
        assert np.allclose(w.w, expected[:, None], atol=1e-14)
        assert w.w[-1].max() == 0.0

    def test_tail_bound_is_final_temperature_per_column(self):
        f = constant_field(0.5, x_max=2.0, dx=0.1)
        w = compute_w(f)
        assert w.tail_bound.shape == (len(f.x),)
        assert np.allclose(w.tail_bound, 0.5, atol=1e-14)
        assert f.mass_at(-1) == pytest.approx(0.5 * 2.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        f = constant_field(0.5)
        f.values = f.values[:-1]
        with pytest.raises(ConfigError):
            compute_w(f)

    def test_freeze_index_tracks_threshold_crossing(self):
        # the critical ramp (t0 - t)+ / alpha reaches zero at t0 in every
        # column; the vanishing profile ((x - x0)+)^2 / alpha is zero at all
        # times up to x0, and its front is the first column past x0
        w = critical_profile_potential(2.0, t0=0.5, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        assert np.array_equal(w.freeze_time(), np.full(len(w.x), w.t[50]))
        assert np.array_equal(w.front(), np.where(w.t < w.t[50], w.x[0], np.inf))
        w = vanishing_profile_potential(2.0, x0=0.5, x_max=1.0, t_end=1.0,
                                        dx=0.05, dt=0.01)
        frozen = w.x <= 0.5
        assert np.array_equal(w.freeze_time(), np.where(frozen, 0.0, np.inf))
        # a column span reads the same freeze times as the whole lattice
        assert np.array_equal(w.freeze_time(slice(5, 15)), w.freeze_time()[5:15])
        assert np.array_equal(w.front(), np.full(len(w.t), w.x[~frozen][0]))


class TestObstacleResidual:
    def test_stationary_quadratic_profile_is_residual_free(self):
        # w = ((x - x0)+)^2 / alpha has w_t = 0, w_xx = 2/alpha on the liquid
        # side, and the centered second difference of a quadratic is exact,
        # so nu = 1/alpha cancels the residual to rounding.  The profile
        # never drains, but its tail_bound is zero, so every column counts
        # as tail-free.
        alpha = 2.0
        w = vanishing_profile_potential(alpha, x0=1.0, x_max=3.0, t_end=1.0,
                                        dx=0.02, dt=0.02)
        nu = uniform_weight(w.x, 1.0 / alpha, alpha)
        rep = obstacle_residual(w, nu, interior_margin=0.15)
        assert rep.n_nodes > 1000
        assert rep.linf < 1e-9
        assert rep.l1 < 1e-9
        assert rep.count_w_negative == 0
        assert rep.count_w_t_positive == 0
        assert rep.count_positive_after_freeze == 0

    def test_critical_ramp_is_residual_free(self):
        # w = (t0 - t)+ / alpha: w_t = -1/alpha before t0, zero after, flat
        # in space.  Every column freezes at t0, inside the horizon.
        alpha = 2.0
        w = critical_profile_potential(alpha, t0=0.5, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        nu = uniform_weight(w.x, 1.0 / alpha, alpha)
        rep = obstacle_residual(w, nu, interior_margin=0.1)
        assert rep.n_nodes > 100
        assert rep.linf < 1e-10
        assert rep.count_w_negative == 0
        assert rep.count_w_t_positive == 0
        assert rep.count_positive_after_freeze == 0

    def test_wrong_weight_violates_residual(self):
        # doubling nu leaves a residual of exactly nu on the liquid region
        alpha = 2.0
        w = critical_profile_potential(alpha, t0=0.5, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        nu = uniform_weight(w.x, 2.0 / alpha, alpha)
        rep = obstacle_residual(w, nu, interior_margin=0.1)
        assert rep.linf == pytest.approx(1.0 / alpha, abs=1e-10)

    def test_margin_must_be_positive(self):
        w = critical_profile_potential(1.0, t0=0.5, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        nu = uniform_weight(w.x, 1.0, 1.0)
        with pytest.raises(ConfigError):
            obstacle_residual(w, nu, interior_margin=0.0)

    def test_weight_grid_must_match(self):
        w = critical_profile_potential(1.0, t0=0.5, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        nu = uniform_weight(w.x[:-1], 1.0, 1.0)
        with pytest.raises(ConfigError):
            obstacle_residual(w, nu, interior_margin=0.1)


class TestResidualWindow:
    def test_matching_weight_cancels_inside_box(self):
        # w = (t0 - t)+ / alpha again: inside the live patch the residual is
        # -1/alpha + nu, so nu = 1/alpha kills it node for node.
        alpha = 2.0
        w = critical_profile_potential(alpha, t0=0.8, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        nu = uniform_weight(w.x, 1.0 / alpha, alpha)
        l1, n = residual_l1_window(w, nu, (0.1, 0.9, 0.1, 0.6))
        assert n > 500
        assert l1 < 1e-10

    def test_wrong_weight_shows_up_as_area_times_error(self):
        alpha = 2.0
        w = critical_profile_potential(alpha, t0=0.8, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        nu = uniform_weight(w.x, 2.0 / alpha, alpha)
        l1, n = residual_l1_window(w, nu, (0.1, 0.9, 0.1, 0.6))
        cell = w.dx * w.dt_median
        assert l1 == pytest.approx(n * cell / alpha, rel=1e-9)

    def test_box_must_be_nonempty(self):
        w = critical_profile_potential(1.0, t0=0.5, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        nu = uniform_weight(w.x, 1.0, 1.0)
        with pytest.raises(ConfigError):
            residual_l1_window(w, nu, (0.5, 0.2, 0.1, 0.6))


class TestBoundSuite:
    def test_caloric_polynomial_quotients_are_exact(self):
        f = caloric_polynomial_field(x_max=1.0, t_end=1.0, dx=0.05, dt=0.05)
        rep = bound_suite(f, None, window=(0.2, 0.8, 0.1, 0.9))
        assert rep.n_liquid_nodes > 50
        assert rep.max_u_t == pytest.approx(1.0, abs=1e-11)
        assert rep.max_u_xx == pytest.approx(2.0, abs=1e-9)
        # centered slope of x^2 is exactly 2x; smallest interior column in
        # the window sits at x = 0.225
        assert rep.min_u_x == pytest.approx(0.45, abs=1e-11)
        assert rep.near_front_max_abs_u_xx == 0.0

    def test_potential_block_sees_monotone_decay(self):
        alpha = 2.0
        w = critical_profile_potential(alpha, t0=0.5, x_max=1.0, t_end=1.0,
                                       dx=0.05, dt=0.01)
        f = constant_field(0.0, x_max=1.0, t_end=1.0, dx=0.05, dt=0.01)
        rep = bound_suite(f, w, window=(0.1, 0.9, 0.05, 0.4))
        # every centered quotient in the window is exactly -1/alpha
        assert rep.max_w_t == pytest.approx(-1.0 / alpha, abs=1e-10)
        assert rep.max_abs_w_xx < 1e-10

    def test_window_validation(self):
        f = constant_field(0.5)
        with pytest.raises(ConfigError):
            bound_suite(f, None, window=(0.5, 0.2, 0.1, 0.9))
        with pytest.raises(ConfigError):
            bound_suite(f, None, window=(0.2, 0.8, -0.1, 0.9))

    def test_pad_splits_core_from_frontier_band(self):
        # traveling profile: curvature is bounded in the core but the band
        # next to the frontier still reports its own unsigned maximum
        from stefanlab.synthetic import traveling_wave_field
        _, f = traveling_wave_field(alpha=1.0, speed=0.5, x_max=1.0,
                                    t_end=1.0, dx=0.01, dt=0.01)
        rep = bound_suite(f, None, window=(0.0, 1.0, 0.2, 0.8), pad=0.05)
        assert rep.n_liquid_nodes > 0
        assert np.isfinite(rep.max_u_xx)
        assert rep.near_front_max_abs_u_xx > 0.0


class TestGridPipeline:
    def test_subcritical_run_has_small_interior_residual(self):
        # uniform subcritical: the frontier creeps, a band of columns freezes
        # inside the horizon, and their liquid-phase history is where the
        # weighted obstacle identity is checkable.  The tail-free filter must
        # drop every column still warm at t_end, or the missing time tail
        # pollutes the residual with the final temperature.
        d = piecewise_constant([0.0, 1.0], [1.0])
        frontier, f, nu = run_grid(d, alpha=0.7, x_max=6.0, dx=0.025, dt=5e-4,
                                   t_end=1.0)
        w = compute_w(f)
        assert w.w.min() >= -1e-12
        assert np.all(np.diff(w.w, axis=0) <= 1e-12)
        rep = obstacle_residual(w, nu, interior_margin=0.1)
        assert rep.n_nodes > 1000
        assert rep.count_w_negative == 0
        assert rep.count_w_t_positive == 0
        assert rep.count_positive_after_freeze == 0
        assert rep.l1 < 0.02


def reference_w(u, t):
    """compute_w's trapezoid tail written out plainly, as the oracle."""
    increments = 0.5 * (u[:-1] + u[1:]) * np.diff(t)[:, None]
    w = np.zeros_like(u)
    w[:-1] = np.cumsum(increments[::-1], axis=0)[::-1]
    return w


def reference_residual(w, nu, interior_margin, eps_w=None):
    """obstacle_residual written out plainly on full arrays, as the oracle."""
    eps = w.eps_w() if eps_w is None else eps_w
    t, x, W = w.t, w.x, w.w
    nt, nx = W.shape
    dx = w.dx
    s_col = np.full(nx, np.inf)
    for i in range(nx):
        zeros = np.flatnonzero(W[:, i] <= 0)
        if len(zeros):
            s_col[i] = t[zeros[0]]
    t_hi = t[-1] - interior_margin
    dead = w.tail_bound <= 1e-12
    col_ok = np.zeros(nx, dtype=bool)
    col_ok[1:-1] = dead[:-2] & dead[1:-1] & dead[2:]
    front_col = np.argmax(W > 0, axis=1)
    has_liquid = (W > 0).any(axis=1)
    lam_row = np.where(has_liquid, x[np.minimum(front_col, nx - 1)], np.inf)
    rows = np.arange(1, nt - 1)
    w_t = (W[2:] - W[:-2]) / (t[2:] - t[:-2])[:, None]
    w_xx = (W[1:-1, :-2] - 2.0 * W[1:-1, 1:-1] + W[1:-1, 2:]) / dx ** 2
    chi = W[1:-1, 1:-1] > eps
    resid = w_t[:, 1:-1] - 0.5 * w_xx + nu.nu[None, 1:-1] * chi
    tt = t[rows][:, None]
    xx = x[None, 1:-1]
    region = ((tt >= interior_margin) & (tt <= t_hi)
              & (np.abs(tt - s_col[None, 1:-1]) >= interior_margin)
              & (np.abs(xx - lam_row[rows][:, None]) >= interior_margin)
              & col_ok[None, 1:-1])
    n = int(np.sum(region))
    if n == 0:
        l1 = linf = comp_max = 0.0
    else:
        vals = np.abs(resid[region])
        cell = dx * float(np.median(np.diff(t)))
        l1 = float(np.sum(vals) * cell)
        linf = float(np.max(vals))
        slack = w_t[:, 1:-1] - 0.5 * w_xx + nu.nu[None, 1:-1]
        comp_max = float(np.max(np.abs(np.minimum(W[1:-1, 1:-1], slack))[region]))
    past = (tt - s_col[None, 1:-1]) >= interior_margin
    return {"l1": l1, "linf": linf, "n_nodes": n, "eps_w": eps,
            "margin": interior_margin,
            "count_w_negative": int(np.sum(W < -eps)),
            "count_w_t_positive": int(np.sum((w_t[:, 1:-1] > eps) & region)),
            "count_positive_after_freeze":
                int(np.sum((W[1:-1, 1:-1] > eps) & past & col_ok[None, 1:-1])),
            "complementarity_max": comp_max}


class TestMatchesReference:
    """compute_w and obstacle_residual agree bit for bit with the oracles."""

    @pytest.fixture(scope="class", params=["swept", "exhausted", "liquid", "noisy",
                                           "gapped", "warm"])
    def run(self, request):
        if request.param == "swept":
            # frozen whole by the t = 0 jump: w vanishes everywhere
            d = piecewise_constant([0.0, 0.5], [2.0])
            _, f, nu = run_grid(d, alpha=1.0, x_max=3.0, dx=0.02, dt=1e-3,
                                t_end=0.3)
            assert f.mass_at(-1) == 0.0
        elif request.param == "exhausted":
            # exhausted by a mid-run sweep
            d = piecewise_constant([0.0, 0.06, 0.655], [0.8, 1.6])
            _, f, nu = run_grid(d, alpha=1.0, x_max=3.0, dx=0.02, dt=1e-3,
                                t_end=0.5)
            assert f.mass_at(-1) < 1e-3
        else:
            # subcritical: a band freezes in the horizon, the rest stays warm
            d = piecewise_constant([0.0, 1.0], [1.0])
            _, f, nu = run_grid(d, alpha=0.7, x_max=6.0, dx=0.025, dt=5e-4,
                                t_end=1.0)
            assert f.mass_at(-1) > 0.1
            if request.param == "noisy":
                # signed noise on the liquid cells: w_t > 0 occurs, on both
                # sides of eps, and the residual has no small scale
                rng = np.random.default_rng(3)
                f.values = f.values + 0.05 * rng.standard_normal(f.values.shape) \
                    * (f.values > 0)
            elif request.param == "gapped":
                # columns 0..23 freeze; a warm final cell in column 11 splits
                # the tail-free columns into 1..9 and 13..22
                f.values[-1, 11] = 1e-3
                ok = compute_w(f).tail_bound <= 1e-12
                assert np.array_equal(np.flatnonzero(ok[:-2] & ok[1:-1] & ok[2:]) + 1,
                                      [*range(1, 10), *range(13, 23)])
            elif request.param == "warm":
                # no column is tail-free: the admitted span is empty
                f.values[-1] = np.maximum(f.values[-1], 1e-6)
        return f, nu

    def test_compute_w(self, run):
        f, _ = run
        assert np.array_equal(compute_w(f).w, reference_w(f.values, f.t))

    # the "-True" in the ids names the tail-free region, which these cases
    # have always checked
    @pytest.mark.parametrize("margin", [0.02, 0.1, 10.0],
                             ids=["0.02-True", "0.1-True", "10.0-True"])
    def test_obstacle_residual(self, run, margin, request):
        f, nu = run
        run_id = request.node.callspec.params["run"]
        w = compute_w(f)
        got = obstacle_residual(w, nu, interior_margin=margin).to_dict()
        want = reference_residual(w, nu, margin)
        assert repr(got) == repr(want)
        if margin == 10.0 or run_id == "warm":
            assert got["n_nodes"] == 0
        elif run_id == "gapped":
            assert got["n_nodes"] > 0

    def test_obstacle_residual_with_every_node_positive(self, run):
        # eps_w = -1 marks every node positive, so the after-freeze count
        # sees each admitted column past its freeze, and only those: in the
        # gapped run columns 10 and 12 froze but are not admitted
        f, nu = run
        w = compute_w(f)
        got = obstacle_residual(w, nu, interior_margin=0.02, eps_w=-1.0).to_dict()
        want = reference_residual(w, nu, 0.02, eps_w=-1.0)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("eps_w", [None, 2e-3])
@pytest.mark.parametrize("nt", [SCAN_ROWS + 1, SCAN_ROWS + 2, SCAN_ROWS + 3, 3],
                         ids=["block-less-1", "block", "block-plus-1", "one-row"])
def test_obstacle_residual_at_block_edges(nt, eps_w):
    # nt - 2 interior rows: one short of a block, one block, one row into a
    # second block, and a single row.  Random temperatures, each column
    # frozen from its own row on and some never, so the admitted columns
    # have gaps and w sits on both sides of eps_w
    rng = np.random.default_rng(nt)
    nx, h = 30, 0.01
    x = (np.arange(nx) + 0.5) * 0.05
    t = np.arange(nt) * h
    freeze = rng.integers(1, nt + 1, nx)
    freeze[[4, 5, 20]] = nt
    u = rng.random((nt, nx)) * (np.arange(nt)[:, None] < freeze[None, :])
    f = Field(x=x, t=t, values=u, frontier_index=np.zeros(nt, dtype=np.int64),
              lam=np.zeros(nt), alpha=1.0)
    nu = WeightField(x=x, nu=rng.random(nx), alpha=1.0, recorded=np.ones(nx, bool))
    w = compute_w(f)
    assert np.array_equal(w.w, reference_w(u, t))
    got = obstacle_residual(w, nu, interior_margin=0.5 * h, eps_w=eps_w).to_dict()
    assert repr(got) == repr(reference_residual(w, nu, 0.5 * h, eps_w=eps_w))
    assert got["n_nodes"] > 0


def test_default_eps_w_scales_with_resolution():
    assert default_eps_w(0.02, 2.0) == pytest.approx(10 * 0.02 ** 2 / 2.0)
    assert default_eps_w(0.01, 2.0) < default_eps_w(0.02, 2.0)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits: -0.0 differs from 0.0, as NaN payloads do."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def signed_field(nt: int) -> Field:
    """Signed temperatures on nt rows, a column of -0.0 (whose w keeps its
    sign but on the zero last row) and a column mixing -0.0 with negative
    values."""
    rng = np.random.default_rng(nt)
    x = (np.arange(6) + 0.5) * 0.1
    t = np.cumsum(rng.uniform(0.5, 1.5, nt)) * 1e-2
    u = rng.standard_normal((nt, 6))
    u[:, 2] = -0.0
    u[:, 4] = np.where(rng.random(nt) < 0.5, -0.0, -rng.random(nt))
    return Field(x=x, t=t, values=u, frontier_index=np.zeros(nt, dtype=np.int64),
                 lam=np.zeros(nt), alpha=1.0)


BLOCK_EDGES = [1, 2, W_ROWS - 1, W_ROWS, W_ROWS + 1, 2 * W_ROWS + 1]


@pytest.mark.parametrize("nt", BLOCK_EDGES)
def test_compute_w_matches_reference_at_block_edges(nt):
    # the rows around one and two blocks of increments
    f = signed_field(nt)
    w = compute_w(f).w
    assert same_bits(w, reference_w(f.values, f.t))
    if nt > 1:
        assert np.all(np.signbit(w[:-1, 2])) and not np.signbit(w[-1, 2])


@pytest.mark.parametrize("nt", BLOCK_EDGES)
def test_w_streamed_to_npy_equals_np_save_of_compute_w(tmp_path, nt):
    # the blocks of w_rows, each overwritten two blocks later, written
    # away as they come: the file is np.save's of the bordered whole w,
    # with the -0.0 rows of column 2 intact
    f = signed_field(nt)
    w = compute_w(f)
    a = np.empty((nt + 1, len(f.x) + 1))
    a[0, 0] = np.nan
    a[0, 1:], a[1:, 0], a[1:, 1:] = w.x, w.t, w.w
    np.save(tmp_path / "want.npy", a, allow_pickle=False)
    write_matrix_csv(tmp_path / "w.npy", f.x, f.t, w_rows(f))
    assert (tmp_path / "w.npy").read_bytes() == (tmp_path / "want.npy").read_bytes()
    _, _, stored = read_matrix_csv(tmp_path / "w.npy")
    if nt > 1:
        assert np.all(np.signbit(stored[:-1, 2])) and not np.signbit(stored[-1, 2])


def reference_front(w: PotentialField) -> np.ndarray:
    liquid = w.w > 0
    return np.where(liquid.any(axis=1), w.x[np.argmax(liquid, axis=1)], np.inf)


@pytest.mark.parametrize("tail_col", [None, 0, 3, 9], ids=["no-tail", "first", "mid", "last"])
def test_front_reads_past_the_first_tail_column_only_when_needed(tail_col):
    # rows whose first positive w lies before, at and past the first column
    # with a tail, rows with none at all, negative and -0.0 entries
    nt, nx = 8, 10
    x = (np.arange(nx) + 0.5) * 0.1
    W = np.zeros((nt, nx))
    W[0, 1:] = 1.0             # before any tail column but "first"
    W[1, 3:] = 2.0             # at "mid"
    W[2, 6] = 1e-300           # past "mid": the fallback
    W[3, :] = -1.0             # no positive entry
    W[4, 9] = 0.5              # only the last column
    W[5, :5] = -0.0
    W[5, 7] = 3.0
    W[6, 0] = 4.0              # the first column
    tail = np.zeros(nx)
    if tail_col is not None:
        tail[tail_col:] = 0.25
    w = PotentialField(x=x, t=np.arange(nt) * 0.1, w=W, tail_bound=tail, alpha=1.0)
    assert same_bits(w.front(), reference_front(w))


def test_obstacle_residual_with_an_empty_span():
    # every column still warm at t_end: no column is admitted, the buffer
    # of residuals is empty and the report counts nothing
    _, f, nu = run_grid(piecewise_constant([0.0, 1.0], [1.0]), alpha=0.7,
                        x_max=6.0, dx=0.05, dt=1e-3, t_end=0.2)
    f.values[-1] = np.maximum(f.values[-1], 1e-6)
    w = compute_w(f)
    rep = obstacle_residual(w, nu, interior_margin=0.02).to_dict()
    assert rep["n_nodes"] == 0
    assert rep["l1"] == rep["linf"] == rep["complementarity_max"] == 0.0
    assert repr(rep) == repr(reference_residual(w, nu, 0.02))


def reference_freeze_time(w: PotentialField, cols: slice = slice(None)) -> np.ndarray:
    """freeze_time on the whole lattice at once, as it was before the blocks."""
    zero = np.ascontiguousarray((w.w[:, cols] <= 0).T)
    first = np.argmax(zero, axis=1)
    return np.where(zero[np.arange(len(first)), first], w.t[first], np.inf)


def block_edge_potential(nt: int) -> PotentialField:
    """A w whose columns first reach zero on the rows around the scan's
    block edges, on none, or on row 0, with NaN, -0.0 and negative entries,
    and whose rows first turn positive on as mixed a set of columns."""
    rng = np.random.default_rng(nt)
    nx = 12
    W = rng.uniform(0.1, 1.0, (nt, nx))
    edges = [0, 1, SCAN_ROWS - 1, SCAN_ROWS, SCAN_ROWS + 1, 2 * SCAN_ROWS, nt - 1]
    for col, row in enumerate(e for e in edges if e < nt):
        W[row:, col] = 0.0
    W[nt // 2, 8] = -0.0                      # one isolated zero
    W[::3, 9] = np.nan                        # never <= 0, never > 0
    W[:, 10] = -1.0                           # zero from the start
    W[rng.random((nt, nx)) < 0.05] *= -1.0    # scattered negative cells
    return PotentialField(x=(np.arange(nx) + 0.5) * 0.1,
                          t=np.cumsum(rng.uniform(0.5, 1.5, nt)) * 1e-3,
                          w=W, tail_bound=np.zeros(nx), alpha=1.0)


def blocks_in_order(W: np.ndarray, block: int, order: str) -> list:
    """W's rows as (lo, rows) blocks of block rows: top down, as row_blocks
    gives them, or bottom up, as w_rows does (the last row alone, then
    blocks ending above it)."""
    if order == "top-down":
        return [(lo, W[lo:lo + block]) for lo in range(0, len(W), block)]
    return [(len(W) - 1, W[-1:])] + [
        (max(hi - block, 0), W[max(hi - block, 0):hi])
        for hi in range(len(W) - 1, 0, -block)]


def assert_scans_match(w: PotentialField) -> None:
    """scan_first_zero and scan_first_positive, fed w in blocks of W_ROWS
    and of SCAN_ROWS rows in either order, give the whole-lattice freeze
    times and frontier bit for bit (a row of no columns has no frontier)."""
    for block in (W_ROWS, SCAN_ROWS):
        for order in ("top-down", "bottom-up"):
            first, front = np.full(len(w.x), len(w.t)), np.empty(len(w.t))
            for lo, rows in blocks_in_order(w.w, block, order):
                scan_first_zero(first, lo, rows)
                if len(w.x):
                    scan_first_positive(front, lo, rows, w.x)
            s = np.append(w.t, np.inf)[first]
            assert same_bits(s, reference_freeze_time(w)), (block, order)
            if len(w.x):
                assert same_bits(front, reference_front(w)), (block, order)


@pytest.mark.parametrize("nt", [1, 2, SCAN_ROWS, SCAN_ROWS + 1, 2 * SCAN_ROWS + 3])
def test_row_scans_match_the_whole_lattice_expressions(nt):
    # freeze_time and front, which walk the rows top down in blocks of
    # SCAN_ROWS, and the two scans in either order at two block sizes give
    # the whole-lattice expressions' values, bit for bit, on every column
    # slice
    w = block_edge_potential(nt)
    for cols in (slice(None), slice(2, 9), slice(5, 5)):
        assert same_bits(w.freeze_time(cols), reference_freeze_time(w, cols))
        assert_scans_match(replace(w, x=w.x[cols], w=w.w[:, cols],
                                   tail_bound=w.tail_bound[cols]))
    assert same_bits(w.front(), reference_front(w))


@pytest.mark.parametrize("name", ["readme-demo", "band"])
def test_row_scans_match_on_solver_output(name):
    d = (piecewise_constant([0.0, 1.5], [0.6667]) if name == "readme-demo"
         else piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15]))
    alpha, x_max = (0.7, 6.2) if name == "readme-demo" else (2.0, 9.28)
    _, f, _ = run_grid(d, alpha=alpha, x_max=x_max, dx=0.02, dt=1e-3, t_end=1.0)
    w = compute_w(f)
    assert same_bits(w.freeze_time(), reference_freeze_time(w))
    assert same_bits(w.front(), reference_front(w))
    assert_scans_match(w)
