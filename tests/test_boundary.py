"""Tests for freezing-time profiles, jump recovery and classification."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stefanlab.boundary import (N_EXTRAP, S_PRIME_FLOOR, FreezingProfile,
                                SpeedReport, _runs, classify_points,
                                detect_jumps, freezing_time,
                                nondegeneracy_constant, oscillation_count,
                                speed_formula_check)
from stefanlab.densities import piecewise_constant
from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord
from stefanlab.grid import run_grid
from stefanlab.harness import jump_threshold, run_scenario, scenario_from_dict
from synthetic import smooth_frontier_path, traveling_wave_field
from test_grid_pin import CONFIGS as PIN_CONFIGS


def flat_field(u_value, x_max=1.3, t_end=1.3, dx=0.01, dt=0.01, alpha=1.0):
    x = (np.arange(int(round(x_max / dx))) + 0.5) * dx
    t = np.arange(0.0, t_end + dt / 2, dt)
    u = np.full((len(t), len(x)), u_value)
    return Field(x=x, t=t, values=u, alpha=alpha)


def single_row_field(u_row, dx=0.01):
    x = (np.arange(len(u_row)) + 0.5) * dx
    t = np.array([0.0, 1.0])
    u = np.vstack([u_row, u_row])
    return Field(x=x, t=t, values=u, alpha=1.0)


def resting_frontier(field, lam=0.0):
    """A frontier held at lam at every sample time of field."""
    return smooth_frontier_path(field.t, np.full(len(field.t), lam), field.alpha)


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

    @pytest.mark.parametrize("xs, nan_at", [
        # finite runs at both ends around an infinite point, and an isolated
        # finite point between two infinite ones
        ([0.1, 0.2, 0.9, 0.3, 0.95, 0.4, 0.45], [2, 3, 4]),
        ([0.1], [0]),
        ([0.9, 0.95, 0.99], [0, 1, 2]),
        ([0.9, 0.1, 0.2, 0.3], [0])],
        ids=["runs-at-both-ends-and-isolated", "single-point", "all-inf",
             "run-touching-the-end"])
    def test_slopes_match_the_reference(self, xs, nan_at):
        path = smooth_frontier_path([0.0, 0.25, 0.5, 0.75, 1.0],
                                    [0.0, 0.15, 0.25, 0.4, 0.5], alpha=1.0)
        prof = freezing_time(path, xs)
        assert same_bits(prof.s_prime, reference_s_prime(prof.x, prof.s))
        assert np.flatnonzero(np.isnan(prof.s_prime)).tolist() == nan_at


def reference_s_prime(x, s):
    """freezing_time's slope one point at a time, as the oracle."""
    n = len(x)
    sp = np.full(n, np.nan)
    fin = np.isfinite(s)
    for i in range(n):
        if not fin[i]:
            continue
        lo, hi = i - 1, i + 1
        if lo >= 0 and hi < n and fin[lo] and fin[hi]:
            sp[i] = (s[hi] - s[lo]) / (x[hi] - x[lo])
        elif hi < n and fin[hi]:
            sp[i] = (s[hi] - s[i]) / (x[hi] - x[i])
        elif lo >= 0 and fin[lo]:
            sp[i] = (s[i] - s[lo]) / (x[i] - x[lo])
    return sp


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: NaN where NaN, and -0.0 apart from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("lam, want", [
        # an initial jump, then at once an increment above the threshold
        ([0.6, 0.9, 0.91], [(0.0, 0.0, 0.6), (0.1, 0.6, 0.9)]),
        # a run of increments that reaches the last sample
        ([0.0, 0.01, 0.3, 0.6], [(0.2, 0.01, 0.6)]),
        # increments exactly at the threshold are no jump, nor is a start
        # exactly at it
        ([0.25, 0.5, 0.75, 0.8], []),
        ([0.0, 0.25, 0.5, 0.6], []),
        # two runs apart, one of a single increment
        ([0.0, 0.3, 0.31, 0.6, 0.9, 0.91], [(0.1, 0.0, 0.3), (0.3, 0.31, 0.9)]),
        ([0.0], []), ([0.7], [(0.0, 0.0, 0.7)])],
        ids=["initial-then-jump", "run-to-the-end", "at-threshold",
             "at-threshold-from-zero", "two-runs", "one-sample",
             "one-sample-initial"])
    def test_matches_the_reference(self, lam, want):
        path = smooth_frontier_path(0.1 * np.arange(len(lam)), lam, alpha=2.0)
        recs = detect_jumps(path, threshold=0.25)
        assert repr(recs) == repr(reference_detect_jumps(path, 0.25))
        got = [(r.t, r.lambda_minus, r.lambda_plus) for r in recs]
        assert np.allclose(np.reshape(got, (-1, 3)), np.reshape(want, (-1, 3)))

    def test_threshold_validation(self):
        path = smooth_frontier_path([0.0, 0.1], [0.0, 0.1], alpha=1.0)
        with pytest.raises(ConfigError):
            detect_jumps(path, threshold=-1.0)


def reference_detect_jumps(frontier, threshold):
    """detect_jumps' merge of increments one at a time, as the oracle."""
    times, lam = frontier.times, frontier.lam
    recs = []
    if len(times) and times[0] == 0.0 and lam[0] > threshold:
        recs.append(JumpRecord(t=0.0, lambda_minus=0.0, lambda_plus=float(lam[0]),
                               mass=float(lam[0] / frontier.alpha)))
    inc = np.diff(lam)
    above = inc > threshold
    k = 0
    while k < len(inc):
        if above[k]:
            j = k
            while j + 1 < len(inc) and above[j + 1]:
                j += 1
            recs.append(JumpRecord(
                t=float(times[k + 1]), lambda_minus=float(lam[k]),
                lambda_plus=float(lam[j + 1]),
                mass=float((lam[j + 1] - lam[k]) / frontier.alpha)))
            k = j + 1
        else:
            k += 1
    return recs


def reference_constancy_runs(x, s):
    """Runs of equal s, as (first x, last x), one point at a time: the
    oracle of the runs boundary.s_constant_on_jumps reads."""
    runs = []
    k = 0
    while k < len(s) - 1:
        j = k
        while j + 1 < len(s) and s[j + 1] == s[k]:
            j += 1
        if j > k:
            runs.append((float(x[k]), float(x[j])))
        k = j + 1
    return runs


def constancy_runs(x, s):
    """The same runs through _runs, as the invariant finds them."""
    start, stop = _runs(s[1:] == s[:-1])
    return [(float(x[a]), float(x[b])) for a, b in zip(start, stop)]


@pytest.mark.parametrize("s", [
    [], [1.0], [1.0, 1.0], [1.0, 2.0], [1.0, 1.0, 2.0, 3.0, 3.0, 3.0],
    [0.0, 1.0, 1.0, 2.0], [5.0, 5.0, 5.0, 5.0], [1.0, 2.0, 2.0, 1.0, 1.0]])
def test_constancy_runs_match_the_reference(s):
    s = np.asarray(s, dtype=float)
    x = 0.1 * np.arange(len(s))
    assert constancy_runs(x, s) == reference_constancy_runs(x, s)


def reference_fraction_unresolved(profile):
    """FreezingProfile.fraction_unresolved one point at a time, as the oracle."""
    cand = [(lb, sv) for lb, sv in zip(profile.labels, profile.s)
            if np.isfinite(sv) and lb not in ("regular_in_jump", "singular_endpoint")]
    if not cand:
        return 0.0
    return sum(1 for lb, _ in cand if lb == "unresolved") / len(cand)


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
        # and the same on the unclassified profile and with all s infinite
        never = freezing_time(smooth_frontier_path([0.0, 1.0], [0.0, 0.0], 1.0),
                              [0.1, 0.2])
        for p in (out, cold, prof, never):
            assert repr(p.fraction_unresolved()) == repr(reference_fraction_unresolved(p))
        assert never.fraction_unresolved() == 0.0


class TestOscillationCount:
    def test_monotone_profile_has_none(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(np.exp(-x))
        assert oscillation_count(f, resting_frontier(f), 0.0, eps_slope=0.01) == 0

    def test_single_hump(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(np.sin(np.pi * x))
        assert oscillation_count(f, resting_frontier(f), 0.0, eps_slope=0.01) == 1

    def test_counts_past_the_frontier_only(self):
        # the hump's rise lies behind a frontier at 0.6, and so does the
        # first node past it, up to 1e-12
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(np.sin(np.pi * x))
        for lam in (0.6, 0.605 - 1e-13):
            assert oscillation_count(f, resting_frontier(f, lam), 1.0,
                                     eps_slope=0.01) == 0

    def test_two_oscillations(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(np.sin(2 * np.pi * x) + 1.1)
        assert oscillation_count(f, resting_frontier(f), 0.0, eps_slope=0.01) == 2

    def test_sub_threshold_ripple_ignored(self):
        x = (np.arange(100) + 0.5) * 0.01
        f = single_row_field(1.0 - x + 1e-5 * np.sin(40 * np.pi * x))
        assert oscillation_count(f, resting_frontier(f), 0.0, eps_slope=0.01) == 0

    def test_validation(self):
        f = single_row_field(np.ones(10))
        with pytest.raises(ConfigError):
            oscillation_count(f, resting_frontier(f), -1.0, eps_slope=0.01)
        with pytest.raises(ConfigError):
            oscillation_count(f, resting_frontier(f), 0.0, eps_slope=-0.01)


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
            nondegeneracy_constant(field, path, window=(0.0, 1.0), r=0.5)
        with pytest.raises(ConfigError):
            nondegeneracy_constant(field, path, window=(0.5, 0.2), r=0.5)

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
            # a path made of the frontier's samples at the field's rows
            frontier = FrontierPath(times=field.t, lam=frontier.value_at(field.t),
                                    alpha=field.alpha)
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
        rep = speed_formula_check(prof, field, path)
        assert rep.n_points >= 20
        assert rep.median_rel_err < 0.02

    def test_skips_like_the_reference(self):
        # one sample row per s; the frontier's place on each row selects a
        # node pair: two liquid nodes (rows 0, 2 and the last, 4), a
        # repeated node, so d2 = d1 (row 1), and no second node (row 3);
        # s = 0.45 is past the last sample
        x = np.array([0.05, 0.15, 0.25, 0.25, 0.35, 0.45])
        t = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        field = Field(x=x, t=t, values=1.0 + x[None, :] + t[:, None], alpha=1.0)
        path = smooth_frontier_path(t, [0.0, 0.2, 0.3, 0.4, 0.1], alpha=1.0)
        s = np.array([0.0, 0.05, 0.15, 0.25, 0.35, 0.45, 0.0, 0.0, 0.15, np.inf])
        sp = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, np.nan, S_PRIME_FLOOR, 0.5,
                       np.nan])
        labels = ["regular_vanishing"] * 8 + ["unresolved"] * 2
        prof = FreezingProfile(x=np.zeros(len(s)), s=s, s_prime=sp, labels=labels,
                               boundary_value=np.full(len(s), np.nan), alpha=1.0)
        rep = speed_formula_check(prof, field, path)
        assert repr(rep) == repr(reference_speed(prof, field, path))
        assert rep.n_points == 3
        # no point checked: NaN, as the reference
        none = replace(prof, labels=["unresolved"] * len(s))
        rep = speed_formula_check(none, field, path)
        assert repr(rep) == repr(reference_speed(none, field, path))
        assert rep.n_points == 0 and np.isnan(rep.median_rel_err)


def reference_speed(profile, field, frontier):
    """speed_formula_check one point at a time, as the oracle."""
    preds, meas = [], []
    for i in range(len(profile.x)):
        if profile.labels[i] != "regular_vanishing":
            continue
        sp = profile.s_prime[i]
        if not np.isfinite(sp) or sp <= S_PRIME_FLOOR:
            continue
        row = int(np.searchsorted(field.t, profile.s[i], side="left"))
        if row >= len(field.t):
            continue
        slope = reference_one_sided_slope(field, row, frontier.value_at(field.t[row]))
        if not np.isfinite(slope):
            continue
        preds.append(1.0 / sp)
        meas.append(0.5 * profile.alpha * slope)
    preds = np.asarray(preds)
    meas = np.asarray(meas)
    rel = np.abs(preds - meas) / np.where(preds != 0, preds, 1.0)
    med = float(np.median(rel)) if len(rel) else np.nan
    return SpeedReport(median_rel_err=med, n_points=len(rel))


def reference_one_sided_slope(field, row, lam_row):
    """du/dx at the frontier from the liquid side, quadratic through zero."""
    i0 = int(np.searchsorted(field.x, lam_row + 1e-12, side="right"))
    if i0 + 1 >= len(field.x):
        return np.nan
    d1 = field.x[i0] - lam_row
    d2 = field.x[i0 + 1] - lam_row
    if d1 <= 0 or d2 <= d1:
        return np.nan
    u1 = field.values[row, i0]
    u2 = field.values[row, i0 + 1]
    return float((u1 * d2 ** 2 - u2 * d1 ** 2) / (d1 * d2 * (d2 - d1)))


@pytest.fixture(scope="module", params=sorted(PIN_CONFIGS))
def pin_routes(request):
    """(name, level, method, frontier, field, threshold) of every route of
    every level of a pin config; the particle route is read against the
    level's grid field."""
    cfg = scenario_from_dict({**PIN_CONFIGS[request.param], "outdir": "unused"})
    routes = []
    for res in run_scenario(cfg, write=False).levels:
        for method, frontier in (("grid", res.frontier), ("particle", res.p_frontier)):
            if frontier is not None:
                routes.append((request.param, res.level, method, frontier, res.field,
                               jump_threshold(cfg, method, res.level)))
    return routes


def test_array_passes_match_the_loops_on_every_pin_level(pin_routes):
    """s', the jumps, the unresolved share, the speed report, the constancy
    runs and the masses equal the per-point loops' bit for bit."""
    n_jumps = 0
    for name, level, method, frontier, fld, thr in pin_routes:
        where = f"{name} L{level} {method}"
        prof = freezing_time(frontier, fld.x)
        assert same_bits(prof.s_prime, reference_s_prime(prof.x, prof.s)), where
        jumps = detect_jumps(frontier, thr)
        assert repr(jumps) == repr(reference_detect_jumps(frontier, thr)), where
        prof = classify_points(prof, fld, jumps)
        assert repr(prof.fraction_unresolved()) == \
            repr(reference_fraction_unresolved(prof)), where
        rep = speed_formula_check(prof, fld, frontier)
        assert repr(rep) == repr(reference_speed(prof, fld, frontier)), where
        fin = np.isfinite(prof.s)
        assert constancy_runs(prof.x[fin], prof.s[fin]) == \
            reference_constancy_runs(prof.x[fin], prof.s[fin]), where
        masses = fld.values.sum(axis=1) * fld.dx
        assert same_bits(masses, [fld.mass_at(k) for k in range(len(fld.t))]), where
        n_jumps += len(jumps)
        assert rep.n_points > 0, where
    # every config but readme-demo-grid has jumps to compare
    assert n_jumps > 0 or name == "readme-demo-grid"


def reference_classify(profile, field, jumps, eps_u=None, endpoint_band=None):
    """classify_points one point at a time, as the oracle: the column is
    argmin of the distance, the pre-freeze value np.polyfit's line through
    the last N_EXTRAP samples before s."""
    alpha = profile.alpha
    if eps_u is None:
        eps_u = 0.1 / alpha if alpha > 0 else 0.0
    if endpoint_band is None:
        endpoint_band = 2.0 * field.dx
    labels = list(profile.labels)
    bv = profile.boundary_value.copy()
    for i, (xi, si) in enumerate(zip(profile.x, profile.s)):
        if not np.isfinite(si):
            labels[i] = "unresolved"
            continue
        in_jump = at_end = False
        for rec in jumps:
            if rec.lambda_minus + endpoint_band < xi < rec.lambda_plus - endpoint_band:
                in_jump = True
                break
            if (abs(xi - rec.lambda_minus) <= endpoint_band
                    or abs(xi - rec.lambda_plus) <= endpoint_band):
                at_end = True
        col = int(np.argmin(np.abs(field.x - xi)))
        k_end = int(np.searchsorted(field.t, si, side="left"))
        rows = np.arange(max(0, k_end - N_EXTRAP), k_end)
        if len(rows) == 0:
            val = np.nan
        elif len(rows) == 1:
            val = float(field.values[rows[0], col])
        else:
            a, b = np.polyfit(field.t[rows], field.values[rows, col], 1)
            val = float(a * si + b)
        bv[i] = val
        if in_jump:
            labels[i] = "regular_in_jump"
        elif at_end:
            labels[i] = "singular_endpoint"
        elif not np.isfinite(val):
            labels[i] = "unresolved"
        elif val < eps_u:
            labels[i] = "regular_vanishing"
        elif abs(val - 1.0 / alpha) < eps_u:
            labels[i] = "singular_critical"
        else:
            labels[i] = "unresolved"
    return labels, bv


def assert_matches_reference(profile, field, jumps, **kw):
    out = classify_points(profile, field, jumps, **kw)
    labels, bv = reference_classify(profile, field, jumps, **kw)
    assert out.labels == labels
    assert np.array_equal(np.isnan(out.boundary_value), np.isnan(bv))
    assert np.nanmax(np.abs(out.boundary_value - bv), initial=0.0) <= 1e-12
    return out


class TestClassifyInOnePass:
    """classify_points against the per-point reference."""

    @pytest.mark.parametrize("name", ["grid-ladder-tiny", "band-ladder",
                                      "readme-demo-grid"])
    def test_matches_the_reference_on_every_level(self, name):
        cfg = scenario_from_dict({**PIN_CONFIGS[name], "outdir": "unused"})
        levels = run_scenario(cfg, write=False).levels
        for res in levels:
            prof = freezing_time(res.frontier, res.field.x)
            out = assert_matches_reference(prof, res.field, res.jumps)
            assert out.labels == res.profile.labels
        # every level but the README demo's has a jump to classify against
        assert all(res.jumps for res in levels) == (name != "readme-demo-grid")

    @pytest.mark.parametrize("u", [0.02, 0.5, 0.95])
    def test_off_grid_profile_matches_the_reference(self, u):
        prof, jumps = TestClassifyPoints().make_profile()
        assert_matches_reference(prof, flat_field(u), jumps)

    def test_zero_one_two_and_three_samples_before_s(self):
        # u = t**2 + x on five sample times, so a line through three
        # samples differs from one through two
        x = (np.arange(10) + 0.5) * 0.1
        t = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        field = Field(x=x, t=t, values=t[:, None] ** 2 + x[None, :], alpha=1.0)
        s = np.array([0.0, 0.05, 0.1, 0.15, 0.35, 0.4, 1.0])
        xs = np.full(len(s), x[3])
        prof = FreezingProfile(x=xs, s=s, s_prime=np.full(len(s), np.nan),
                               labels=["unresolved"] * len(s),
                               boundary_value=np.full(len(s), np.nan), alpha=1.0)
        out = assert_matches_reference(prof, field, [], eps_u=0.5)
        bv = out.boundary_value
        # no sample before s = 0: no value, unresolved
        assert np.isnan(bv[0]) and out.labels[0] == "unresolved"
        # one sample before s: its value
        assert bv[1] == bv[2] == field.values[0, 3]
        # two: the chord through them
        assert bv[3] == pytest.approx(x[3] + 0.01 * 1.5, abs=1e-15)
        # three: the least-squares line through the last three, of slope
        # 0.4 through t = 0.1, 0.2, 0.3 and 0.6 through t = 0.2, 0.3, 0.4
        for k, si, mean, slope, t_bar in ((4, 0.35, 0.14 / 3, 0.4, 0.2),
                                          (5, 0.4, 0.14 / 3, 0.4, 0.2),
                                          (6, 1.0, 0.29 / 3, 0.6, 0.3)):
            want = x[3] + mean + slope * (si - t_bar)
            assert bv[k] == pytest.approx(want, abs=1e-15)

    def test_inside_any_jump_beats_near_any_edge(self):
        # x = 0.46 is near the first jump's lower edge and inside the second
        jumps = [JumpRecord(t=0.5, lambda_minus=0.45, lambda_plus=0.9),
                 JumpRecord(t=0.2, lambda_minus=0.1, lambda_plus=0.5)]
        xs = np.array([0.11, 0.3, 0.46, 0.47, 0.7, 0.91])
        prof = FreezingProfile(x=xs, s=np.full(len(xs), 0.6),
                               s_prime=np.full(len(xs), np.nan),
                               labels=["unresolved"] * len(xs),
                               boundary_value=np.full(len(xs), np.nan), alpha=1.0)
        out = assert_matches_reference(prof, flat_field(0.02), jumps)
        assert out.labels == ["singular_endpoint", "regular_in_jump",
                              "regular_in_jump", "regular_in_jump",
                              "regular_in_jump", "singular_endpoint"]

    def test_alpha_zero_is_never_critical(self):
        # 1/alpha is not a level at alpha = 0: a finite pre-freeze value is
        # unresolved, with no division and no warning
        x = np.array([0.105, 0.5])
        prof = FreezingProfile(x=x, s=np.array([0.5, np.inf]),
                               s_prime=np.full(2, np.nan),
                               labels=["unresolved"] * 2,
                               boundary_value=np.full(2, np.nan), alpha=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = classify_points(prof, flat_field(0.5, alpha=0.0), [])
        assert out.labels == ["unresolved", "unresolved"]
        assert out.boundary_value[0] == 0.5 and np.isnan(out.boundary_value[1])

    def test_column_is_the_nearest_node(self):
        # column i holds the value i in the one sample row, so the pre-freeze
        # value reads back the column; nodes, midpoints (ties go to the lower
        # node) and points outside the grid
        x = (np.arange(40) + 0.5) * 0.025
        field = Field(x=x, t=np.array([0.0]), values=np.arange(40.0)[None, :],
                      alpha=1.0)
        probes = np.array([*x, *(0.5 * (x[:-1] + x[1:])), -1.0, -1e-3, 0.0,
                           x[-1] + 1e-3, 3.0, -1e17, -1e300])
        n = len(probes)
        prof = FreezingProfile(x=probes, s=np.full(n, 2.0),
                               s_prime=np.full(n, np.nan),
                               labels=["unresolved"] * n,
                               boundary_value=np.full(n, np.nan), alpha=1.0)
        got = classify_points(prof, field, []).boundary_value
        want = [np.argmin(np.abs(x - xi)) for xi in probes]
        assert np.array_equal(got, want)
