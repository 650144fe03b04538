"""Tests for freezing-time profiles, jump recovery and classification."""
import numpy as np
import pytest

from stefanlab.boundary import (classify_points, detect_jumps, freezing_time,
                                nondegeneracy_constant, oscillation_count,
                                speed_formula_check)
from stefanlab.densities import piecewise_constant
from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath
from stefanlab.grid import run_grid
from stefanlab.synthetic import smooth_frontier_path, traveling_wave_field


def flat_field(u_value, x_max=1.3, t_end=1.3, dx=0.01, dt=0.01, alpha=1.0):
    x = (np.arange(int(round(x_max / dx))) + 0.5) * dx
    t = np.arange(0.0, t_end + dt / 2, dt)
    u = np.full((len(t), len(x)), u_value)
    return Field(x=x, t=t, values=u, frontier_index=np.zeros(len(t), dtype=np.int64),
                 lam=np.zeros(len(t)), alpha=alpha)


def single_row_field(u_row, dx=0.01):
    x = (np.arange(len(u_row)) + 0.5) * dx
    t = np.array([0.0, 1.0])
    u = np.vstack([u_row, u_row])
    return Field(x=x, t=t, values=u, frontier_index=np.zeros(2, dtype=np.int64),
                 lam=np.zeros(2), alpha=1.0)


class TestFreezingTime:
    def test_staircase_frontier_inverts_exactly(self):
        path = smooth_frontier_path([0.0, 0.5, 1.0, 1.5, 2.0],
                                    [0.3, 0.3, 0.5, 0.5, 0.5], alpha=1.0)
        prof = freezing_time(path, [0.1, 0.2, 0.35, 0.45, 0.6])
        assert np.array_equal(prof.s[:2], [0.0, 0.0])
        assert np.array_equal(prof.s[2:4], [1.0, 1.0])
        assert np.isinf(prof.s[4])
        # one-sided slopes at the ends of the finite range
        assert prof.s_prime[0] == pytest.approx(0.0)
        assert prof.s_prime[3] == pytest.approx(0.0)
        assert np.isnan(prof.s_prime[4])

    def test_constant_on_jump_interval(self):
        # every x swept by one jump freezes at the same instant
        path = smooth_frontier_path([0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
                                    [0.0, 0.05, 0.1, 0.15, 0.2, 0.5, 0.55],
                                    alpha=1.0)
        xs = np.linspace(0.21, 0.49, 15)
        prof = freezing_time(path, xs)
        assert np.all(prof.s == 1.0)
        inner = prof.s_prime[1:-1]
        assert np.allclose(inner, 0.0, atol=1e-12)

    def test_linear_frontier_gives_inverse_slope(self):
        # frontier at speed V: s(x) = x / V sampled with a uniform bias that
        # cancels in the centered differences
        path, _ = traveling_wave_field(alpha=1.0, speed=0.5, x_max=1.0,
                                       t_end=1.6, dx=0.02, dt=0.002)
        xs = path.lam[-1] * np.linspace(0.1, 0.8, 20)
        prof = freezing_time(path, xs)
        assert np.all(np.isfinite(prof.s))
        assert np.allclose(prof.s, 2.0 * xs, atol=0.003)
        assert np.allclose(prof.s_prime[1:-1], 2.0, rtol=0.02)


class TestDetectJumps:
    def test_smooth_path_has_none(self):
        t = np.linspace(0, 1, 101)
        path = smooth_frontier_path(t, 0.3 * t, alpha=1.0)
        assert detect_jumps(path, threshold=0.05) == []

    def test_initial_jump_reported_at_time_zero(self):
        path = smooth_frontier_path([0.0, 0.1, 0.2], [0.6, 0.6, 0.61], alpha=1.0)
        recs = detect_jumps(path, threshold=0.05)
        assert len(recs) == 1
        assert recs[0].t == 0.0
        assert recs[0].lambda_minus == 0.0
        assert recs[0].lambda_plus == pytest.approx(0.6)
        assert recs[0].mass == pytest.approx(0.6)

    def test_consecutive_increments_merge(self):
        path = smooth_frontier_path([0.0, 0.1, 0.2, 0.3, 0.4],
                                    [0.0, 0.01, 0.3, 0.5, 0.51], alpha=2.0)
        recs = detect_jumps(path, threshold=0.05)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.t == pytest.approx(0.2)
        assert rec.lambda_minus == pytest.approx(0.01)
        assert rec.lambda_plus == pytest.approx(0.5)
        assert rec.mass == pytest.approx(0.49 / 2.0)

    def test_threshold_validation(self):
        path = smooth_frontier_path([0.0, 0.1], [0.0, 0.1], alpha=1.0)
        with pytest.raises(ConfigError):
            detect_jumps(path, threshold=-1.0)


class TestClassifyPoints:
    def make_profile(self):
        path = smooth_frontier_path([0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
                                    [0.0, 0.05, 0.1, 0.15, 0.2, 0.5, 0.55],
                                    alpha=1.0)
        xs = np.array([0.12, 0.2, 0.35, 0.5, 0.54, 0.9])
        prof = freezing_time(path, xs)
        jumps = detect_jumps(path, threshold=0.1)
        assert len(jumps) == 1
        return prof, jumps

    def test_jump_interior_and_endpoints(self):
        prof, jumps = self.make_profile()
        field = flat_field(0.5)
        out = classify_points(prof, field, jumps)
        # x = 0.35 sits strictly inside the swept interval (0.2, 0.5)
        assert out.labels[2] == "regular_in_jump"
        # x = 0.2 and x = 0.5 are the endpoints (band = 2 dx = 0.02)
        assert out.labels[1] == "singular_endpoint"
        assert out.labels[3] == "singular_endpoint"
        # x = 0.54 is outside the band around 0.5
        assert out.labels[4] != "singular_endpoint"
        # the frontier never reaches x = 0.9
        assert out.labels[5] == "unresolved"

    def test_vanishing_and_critical_by_boundary_value(self):
        prof, jumps = self.make_profile()
        cold = classify_points(prof, flat_field(0.02), jumps)
        assert cold.labels[0] == "regular_vanishing"
        hot = classify_points(prof, flat_field(0.95), jumps)
        assert hot.labels[0] == "singular_critical"
        warm = classify_points(prof, flat_field(0.5), jumps)
        assert warm.labels[0] == "unresolved"
        assert warm.boundary_value[0] == pytest.approx(0.5, abs=1e-9)

    def test_fraction_unresolved_excludes_jump_and_endpoints(self):
        prof, jumps = self.make_profile()
        out = classify_points(prof, flat_field(0.5), jumps)
        # finite-s candidates: 0.12, 0.54 (in-jump and endpoints excluded,
        # 0.9 has infinite s); both extrapolate to 0.5, neither label fits
        assert out.fraction_unresolved() == pytest.approx(1.0)
        cold = classify_points(prof, flat_field(0.02), jumps)
        assert cold.fraction_unresolved() == pytest.approx(0.0)


class TestOscillationCount:
    def test_monotone_profile_has_none(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(np.exp(-x))
        assert oscillation_count(f, 0.0, eps_slope=0.01) == 0

    def test_single_hump(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(np.sin(np.pi * x))
        assert oscillation_count(f, 0.0, eps_slope=0.01) == 1

    def test_two_oscillations(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(np.sin(2 * np.pi * x) + 1.1)
        assert oscillation_count(f, 0.0, eps_slope=0.01) == 2

    def test_sub_threshold_ripple_ignored(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(1.0 - x + 1e-5 * np.sin(40 * np.pi * x))
        assert oscillation_count(f, 0.0, eps_slope=0.01) == 0

    def test_validation(self):
        f = single_row_field(np.ones(10))
        with pytest.raises(ConfigError):
            oscillation_count(f, -1.0, eps_slope=0.01)
        with pytest.raises(ConfigError):
            oscillation_count(f, 0.0, eps_slope=-0.01)


class TestNondegeneracy:
    def test_traveling_wave_ratio(self):
        # u / (x - front) = (1 - exp(-2 V d)) / (alpha d), smallest at the
        # outer edge d = r of the probe range
        path, field = traveling_wave_field(alpha=1.0, speed=0.5, x_max=1.5,
                                           t_end=1.6, dx=0.01, dt=0.004)
        c = nondegeneracy_constant(field, path, window=(0.2, 1.0), r=0.1)
        expected = (1.0 - np.exp(-0.1)) / 0.1
        assert c == pytest.approx(expected, rel=5e-3)
        assert abs(c - 1.0) / 1.0 < 0.06

    def test_window_validation(self):
        path, field = traveling_wave_field(alpha=1.0, speed=0.5, x_max=1.0,
                                           t_end=1.0, dx=0.02, dt=0.01)
        with pytest.raises(ConfigError):
            nondegeneracy_constant(field, path, window=(0.0, 1.0))
        with pytest.raises(ConfigError):
            nondegeneracy_constant(field, path, window=(0.5, 0.2))

    @pytest.fixture(scope="class")
    def jumping_run(self):
        # a mid-run sweep at t = 0.003 carries the frontier from about 0.1
        # to 1.0, inside the window below
        d = piecewise_constant([0.0, 0.06, 0.655], [0.8, 1.6])
        frontier, field, _ = run_grid(d, alpha=1.0, x_max=3.0, dx=0.02, dt=1e-3,
                                      t_end=0.5)
        assert len(frontier.jumps) == 1 and 0.001 < frontier.jumps[0].t < 0.4
        return frontier, field

    @pytest.mark.parametrize("given", ["none", "own", "wave"])
    @pytest.mark.parametrize("window, r, offset_min", [
        ((0.001, 0.4), 0.25, None), ((0.001, 0.5), 1.5, 0.01),
        ((0.002, 0.004), 0.25, 0.1), ((0.1, 0.5), 0.06, 0.04)])
    def test_matches_full_matrix_reference(self, jumping_run, given, window, r,
                                           offset_min):
        frontier, field = jumping_run
        if given == "wave":
            # a frontier other than the field's own, sampled at other times
            frontier, _ = traveling_wave_field(alpha=1.0, speed=2.0, x_max=3.0,
                                               t_end=0.5, dx=0.02, dt=0.0037)
        elif given == "none":
            # a path made of the field's own frontier samples
            frontier = FrontierPath(times=field.t, lam=field.lam, alpha=field.alpha)
        got = nondegeneracy_constant(field, frontier, window=window, r=r,
                                     offset_min=offset_min)
        want = reference_nondegeneracy(field, frontier, window, r, offset_min)
        assert repr(got) == repr(want)

    def test_empty_band_rejected_like_the_reference(self, jumping_run):
        frontier, field = jumping_run
        for r, offset_min in ((0.01, 0.05), (10.0, 5.0)):
            with pytest.raises(ConfigError):
                reference_nondegeneracy(field, frontier, (0.1, 0.5), r, offset_min)
            with pytest.raises(ConfigError):
                nondegeneracy_constant(field, frontier, window=(0.1, 0.5), r=r,
                                       offset_min=offset_min)


def reference_nondegeneracy(field, frontier, window, r, offset_min):
    """nondegeneracy_constant on the full distance matrix, as the oracle."""
    t_lo, t_hi = window
    if offset_min is None:
        offset_min = 2.0 * field.dx
    rows = np.where((field.t >= t_lo) & (field.t <= t_hi))[0]
    lam = np.array([frontier.value_at(tv) for tv in field.t[rows]])
    dist = field.x[None, :] - lam[:, None]
    sel = (dist >= offset_min) & (dist <= r)
    if not np.any(sel):
        raise ConfigError("window contains no nodes in the offset range")
    return float(np.min(field.values[rows][sel] / dist[sel]))


class TestSpeedFormula:
    def test_traveling_wave_satisfies_identity(self):
        # dx / speed is an integer multiple of dt, so the sampled freezing
        # times carry a uniform bias and centered slopes of s are exact
        path, field = traveling_wave_field(alpha=1.0, speed=0.5, x_max=1.0,
                                           t_end=1.6, dx=0.02, dt=0.002)
        xs = field.x[(field.x >= 0.05) & (field.x <= 0.6)]
        prof = freezing_time(path, xs)
        prof = classify_points(prof, field, jumps=[])
        assert prof.labels.count("regular_vanishing") >= 20
        rep = speed_formula_check(prof, field)
        assert rep.n_points >= 20
        assert rep.median_rel_err < 0.02
