"""End-to-end acceptance suite for the frontier laboratory.

Each test exercises one published acceptance check at its stated tolerance,
prints exactly one PASS/FAIL line with the measured numbers, and then
asserts.  Scenario runs are shared through session fixtures so the whole
file stays inside the desk-scale time budget; wall times are recorded per
scenario and the final test enforces the budget.
"""
import time

import numpy as np
import pytest

from stefanlab.boundary import (classify_points, freezing_time,
                                nondegeneracy_constant, oscillation_count,
                                speed_formula_check)
from stefanlab.densities import piecewise_constant
from stefanlab.fields import Field, FrontierPath
from stefanlab.grid import run_grid
from stefanlab.harness import ScenarioConfig, run_scenario
from stefanlab.jump_rule import cascade_jump, verify_cascade_minimality
from stefanlab.particle import init_ensemble, run
from stefanlab.potential import bound_suite, compute_w, residual_l1_window
from stefanlab.synthetic import traveling_wave_field

RUN_SECONDS = {}          # scenario tag -> wall time, checked at the end
PER_RUN_BUDGET = 120.0
SUITE_BUDGET = 1500.0


def _timed(tag, fn):
    t0 = time.time()
    out = fn()
    RUN_SECONDS[tag] = time.time() - t0
    assert RUN_SECONDS[tag] < PER_RUN_BUDGET, (
        f"{tag} took {RUN_SECONDS[tag]:.0f}s, over the per-run budget")
    return out


def _criterion(num, checks):
    """Emit the single verdict line for one acceptance check, then assert.

    checks is a list of (ok, detail) pairs; the criterion passes when every
    part does and the printed line carries all the measured numbers.
    """
    ok = all(c for c, _ in checks)
    detail = "; ".join(d for _, d in checks)
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="session")
def uniform3():
    cfg = ScenarioConfig(
        scenario_id="acc-uniform",
        density={"family": "piecewise_constant", "breaks": [0.0, 1.5],
                 "values": [1.0 / 1.5]},
        alpha=0.7, method="grid", dt=2e-3, dx=0.04, t_end=1.0, seed=1,
        refinement_levels=3, outdir="unused")
    return cfg, _timed("uniform3", lambda: run_scenario(cfg, write=False))


@pytest.fixture(scope="session")
def oscillatory3():
    cfg = ScenarioConfig(
        scenario_id="acc-oscillatory",
        density={"family": "oscillatory", "alpha1": 0.5, "alpha2": 1.2,
                 "a1": 0.8, "p": 0.5, "q": 0.5, "n_levels": 4},
        alpha=1.0, method="grid", dt=1e-3, dx=0.02, t_end=1.0, seed=3,
        refinement_levels=3, outdir="unused")
    return cfg, _timed("oscillatory3", lambda: run_scenario(cfg, write=False))


@pytest.fixture(scope="session")
def band3():
    cfg = ScenarioConfig(
        scenario_id="acc-band",
        density={"family": "piecewise_constant",
                 "breaks": [0.2, 0.6, 3.2667], "values": [1.5, 0.15]},
        alpha=2.0, method="grid", dt=1e-3, dx=0.02, t_end=1.0, seed=5,
        refinement_levels=3, outdir="unused")
    return cfg, _timed("band3", lambda: run_scenario(cfg, write=False))


@pytest.fixture(scope="session")
def cross_uniform():
    cfg = ScenarioConfig(
        scenario_id="acc-cross-uniform",
        density={"family": "piecewise_constant", "breaks": [0.0, 1.5],
                 "values": [1.0 / 1.5]},
        alpha=0.7, method="both", n_particles=6250, dt=1e-3, dx=0.04,
        t_end=1.0, seed=11, refinement_levels=3, outdir="unused")
    return cfg, _timed("cross_uniform", lambda: run_scenario(cfg, write=False))


@pytest.fixture(scope="session")
def cross_powergap():
    # linear gap from the critical level: hardest data that still resolves
    # its opening burst at this grid
    cfg = ScenarioConfig(
        scenario_id="acc-cross-powergap",
        density={"family": "power_gap", "alpha": 1.0, "c": 0.8, "n": 1,
                 "delta": 1.0},
        alpha=1.0, method="both", n_particles=6250, dt=1e-3, dx=0.04,
        t_end=1.0, seed=11, refinement_levels=3, outdir="unused")
    return cfg, _timed("cross_powergap", lambda: run_scenario(cfg, write=False))


def _raw_sup(res):
    g, p = res.frontier, res.p_frontier
    return float(np.max(np.abs(g.lam - p.value_at(g.times))))


def test_01_cascade_matches_exhaustive_minimality():
    # least-fixed-point shortcut vs brute-force oracle, exact equality
    rng = np.random.default_rng(20260821)
    checked = mismatches = 0
    for _ in range(1000):
        n_total = int(rng.integers(1, 21))
        k0 = int(rng.integers(0, n_total + 1))
        n_alive = int(rng.integers(0, n_total - k0 + 1))
        alpha = float(rng.uniform(0.3, 3.0))
        lam0 = float(rng.uniform(0.0, 1.0))
        span = alpha * float(rng.uniform(0.2, 1.5)) + 1e-6
        pos = np.sort(lam0 + rng.uniform(0.0, span, size=n_alive))
        res = cascade_jump(pos, lam0, k0, alpha, n_total)
        checked += 1
        if not verify_cascade_minimality(pos, lam0, k0, alpha, n_total, res):
            mismatches += 1
    _criterion(1, [(checked == 1000 and mismatches == 0,
                    f"{checked} random ensembles, {mismatches} oracle"
                    " mismatches")])


def test_02_initial_jump_lands_at_mass_balance_edge():
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    alpha, target = 1.0, 0.6

    dx = 0.01
    fr, _, _ = run_grid(d, alpha=alpha, t_end=0.01, dt=1e-4, dx=dx,
                        x_max=2.6, sample_every=1, jump_threshold=3 * dx)

    n = 100_000
    se = alpha * np.sqrt(target / alpha * (1 - target / alpha) / n)
    tol = alpha / n + 3.0 * se
    worst = 0.0
    for seed in range(5):
        ens = init_ensemble(d, n, seed=seed, sampling="uniform", alpha=alpha)
        pfr, _ = run(ens, t_end=1e-4, dt=1e-6, sample_every=10,
                     jump_threshold=0.01)
        worst = max(worst, abs(pfr.lambda_end - target))
    _criterion(2, [
        (abs(fr.lam[0] - target) <= dx,
         f"grid initial jump lands at {fr.lam[0]:.4f}"
         f" (target {target}, dx {dx})"),
        (worst <= tol,
         f"particle worst of 5 seeds off by {worst:.2e}"
         f" at n={n} (tol {tol:.2e})"),
    ])


def test_03_conservation_identities(cross_uniform, cross_powergap):
    checks = []
    for cfg, result in (cross_uniform, cross_powergap):
        res = result.levels[-1]
        pfr = res.p_frontier
        expect = pfr.alpha * pfr.dead_count / pfr.n_total
        exact = bool(np.array_equal(expect, pfr.lam))
        fld, gfr = res.field, res.frontier
        masses = np.array([fld.mass_at(k) for k in range(len(fld.t))])
        drift = float(np.max(np.abs(
            gfr.value_at(fld.t) / gfr.alpha + masses - 1.0)))
        checks.append((exact, f"{cfg.scenario_id} particle identity"
                              f" exact={exact}"))
        checks.append((drift <= 1e-8, f"{cfg.scenario_id} grid balance"
                                      f" drift {drift:.1e} (tol 1e-8)"))
    _criterion(3, checks)


def test_04_stopped_mass_weight_accounts_for_frontier():
    # one run exhausts by a mid-run sweep (weights carry evolved values),
    # one by an instantaneous full sweep of the initial data
    cases = [
        (piecewise_constant([0.0, 0.06, 0.655], [0.8, 1.6]), 0.01, 2.5e-4),
        (piecewise_constant([0.0, 0.5], [2.0]), 0.01, 2.5e-4),
    ]
    checks = []
    for i, (d, dx, dt) in enumerate(cases):
        fr, fld, nu = run_grid(d, alpha=1.0, t_end=0.5, dt=dt, dx=dx,
                               x_max=3.0, sample_every=1,
                               jump_threshold=3 * dx)
        surviving = fld.mass_at(len(fld.t) - 1)
        assert surviving < 1e-3, f"run ended with mass {surviving:.2e}"
        gap = abs(nu.integral() - fr.lambda_end / fr.alpha)
        tol = 2.0 * dx * float(np.max(nu.nu)) + 1e-3
        checks.append((gap <= tol, f"case {i}: weight integral off by"
                                   f" {gap:.2e} (tol {tol:.2e},"
                                   f" surviving mass {surviving:.1e})"))
    _criterion(4, checks)


def test_05_potential_residual_shrinks_under_refinement(uniform3):
    _, result = uniform3
    box = (0.05, 0.40, 0.05, 0.90)
    l1s = [residual_l1_window(compute_w(res.field), res.nu, box)[0]
           for res in result.levels]
    _criterion(5, [(all(b < a for a, b in zip(l1s, l1s[1:])),
                    "windowed potential residual across 3 levels: "
                    + " -> ".join(f"{v:.3e}" for v in l1s))])


def test_06_nondegeneracy_constant_positive_and_stable(uniform3):
    _, result = uniform3
    cs = [nondegeneracy_constant(res.field, res.frontier, window=(0.2, 1.0),
                                 r=0.2, offset_min=0.08)
          for res in result.levels]
    a, b = cs[-2], cs[-1]
    rel = abs(b - a) / max(a, b)
    _criterion(6, [
        (b > 0, f"fitted slope floor {b:.4f} > 0"),
        (rel <= 0.30, f"varies {rel:.1%} between finest levels"
                      f" ({a:.4f} -> {b:.4f}, tol 30%)"),
    ])


def test_07_one_sided_bounds_stable_interior_singular_at_front(uniform3):
    _, result = uniform3
    reps = [bound_suite(res.field, compute_w(res.field),
                        window=(0.05, 0.45, 0.1, 0.9), pad=0.1)
            for res in result.levels]
    checks = []
    for name in ("max_u_t", "max_u_xx"):
        a, b = getattr(reps[-2], name), getattr(reps[-1], name)
        growth = (b - a) / max(abs(a), 1e-12)
        checks.append((growth <= 0.50,
                       f"{name} {a:.3f} -> {b:.3f} ({growth:+.1%},"
                       " tol +50%)"))
    # negative control: unsigned curvature inside the frontier band must
    # keep growing as the band is sampled closer
    na, nb = (reps[-2].near_front_max_abs_u_xx,
              reps[-1].near_front_max_abs_u_xx)
    checks.append((nb > na, f"frontier-band |u_xx| control grows"
                            f" {na:.1f} -> {nb:.1f}"))
    _criterion(7, checks)


def test_08_jump_counts_stable_away_from_time_origin(oscillatory3):
    cfg, result = oscillatory3
    fine, finest = result.levels[-2], result.levels[-1]
    checks = []
    for t0 in (0.05, 0.1):
        n_fine = sum(1 for r in fine.frontier.jumps if t0 <= r.t <= 1.0)
        n_finest = sum(1 for r in finest.frontier.jumps if t0 <= r.t <= 1.0)
        checks.append((n_fine == n_finest,
                       f"jumps in [{t0}, 1]: {n_fine} vs {n_finest} on the"
                       " two finest levels"))
    # refinement may reveal jumps only near the time origin
    dxc = fine.params["dx"]
    strays = []
    for rec in finest.frontier.jumps:
        matched = any(abs(rec.t - rc.t) <= 0.01
                      and abs(rec.lambda_plus - rc.lambda_plus) <= 4 * dxc
                      for rc in fine.frontier.jumps)
        if not (matched or rec.t < 0.05):
            strays.append(rec.t)
    checks.append((not strays,
                   "new jumps under refinement confined to t < 0.05"
                   + (f" (strays at {strays})" if strays else "")))
    # sanity: the frontier did sweep the whole oscillatory region
    swept = finest.frontier.lambda_end
    mono = bool(np.all(np.diff(finest.frontier.lam) >= 0))
    checks.append((swept > 0.8 and mono,
                   f"frontier swept to {swept:.3f}, nondecreasing={mono}"))
    _criterion(8, checks)


def test_09_future_jumps_need_past_oscillations(oscillatory3):
    _, result = oscillatory3
    res = result.levels[-1]
    checks = []
    for t0 in (0.05, 0.1):
        n_future = sum(1 for r in res.frontier.jumps if t0 < r.t <= 1.0)
        count = oscillation_count(res.field, t0, eps_slope=0.05)
        checks.append((count >= 2 * n_future - 1,
                       f"t0={t0}: {count} oscillations >="
                       f" 2*{n_future} future jumps - 1"))
    _criterion(9, checks)


def test_10_boundary_points_classify_by_vanishing_mode(uniform3):
    # exact synthetic profiles first: labels and residuals must be clean
    path, field = traveling_wave_field(0.7, 0.5, x_max=1.0, t_end=1.6,
                                       dx=0.02, dt=1e-3)
    prof = classify_points(freezing_time(path, field.x), field, jumps=[])
    fin = np.isfinite(prof.s)
    wave_clean = all(lb == "regular_vanishing"
                     for lb in np.array(prof.labels)[fin])
    wave_resid = float(np.max(np.abs(prof.boundary_value[fin])))

    alpha, v = 0.7, 0.8
    x = (np.arange(50) + 0.5) * 0.02
    t = np.arange(0.0, 1.3 + 5e-4, 1e-3)
    lam = v * t
    u = np.where(x[None, :] > lam[:, None], 1.0 / alpha, 0.0)
    plateau = Field(x=x, t=t, values=u,
                    frontier_index=np.searchsorted(x, lam, side="left"),
                    lam=lam, alpha=alpha)
    ppath = FrontierPath(times=t, lam=lam, alpha=alpha, jumps=[], n_total=0,
                         dead_count=np.zeros(len(t), dtype=np.int64))
    prof2 = classify_points(freezing_time(ppath, x), plateau, jumps=[])
    fin2 = np.isfinite(prof2.s)
    plat_clean = all(lb == "singular_critical"
                     for lb in np.array(prof2.labels)[fin2])
    plat_resid = float(np.max(np.abs(prof2.boundary_value[fin2]
                                     - 1.0 / alpha)))

    # simulated smooth run: nearly all swept points vanish continuously
    _, result = uniform3
    prof3 = result.levels[-1].profile
    fin3 = np.isfinite(prof3.s)
    labels = np.array(prof3.labels)
    nonjump = fin3 & ~np.isin(labels, ("regular_in_jump",
                                       "singular_endpoint"))
    good = nonjump & (labels == "regular_vanishing") \
        & (np.abs(prof3.boundary_value) < 0.1)
    frac = good.sum() / max(nonjump.sum(), 1)
    _criterion(10, [
        (wave_clean and wave_resid <= 5e-3,
         f"traveling wave all regular_vanishing, max residual"
         f" {wave_resid:.1e} (tol 5e-3)"),
        (plat_clean and plat_resid <= 1e-12,
         f"swept plateau all singular_critical, max residual"
         f" {plat_resid:.1e} (tol 1e-12)"),
        (frac >= 0.90,
         f"{frac:.1%} of simulated swept points vanish cleanly"
         " (need 90%)"),
    ])


def test_11_frontier_speed_tracks_boundary_gradient():
    errs = []
    for dx, dt in [(0.04, 2e-3), (0.02, 1e-3), (0.01, 5e-4)]:
        path, field = traveling_wave_field(0.7, 0.5, x_max=1.0, t_end=1.6,
                                           dx=dx, dt=dt)
        prof = classify_points(freezing_time(path, field.x), field, jumps=[])
        rep = speed_formula_check(prof, field)
        assert rep.n_points > 0
        errs.append(rep.median_rel_err)
    _criterion(11, [
        (all(b < a for a, b in zip(errs, errs[1:])),
         "median relative speed error across 3 resolutions: "
         + " -> ".join(f"{v:.1e}" for v in errs)),
        (errs[-1] < 0.10, f"finest {errs[-1]:.1e} < 0.10"),
    ])


def test_12_freezing_time_slopes_stable_inside_singular_at_jumps(band3):
    cfg, result = band3
    checks = []
    # interior creep windows, fixed across levels
    for lo, hi in ((0.04, 0.16), (1.52, 1.70)):
        mods = []
        for res in result.levels:
            prof = res.profile
            keep = np.isfinite(prof.s) & (prof.x >= lo) & (prof.x <= hi)
            xs, ss = prof.x[keep], prof.s[keep]
            assert len(xs) >= 3
            mods.append(float(np.max(np.abs(np.diff(ss) / np.diff(xs)))))
        a, b = mods[-2], mods[-1]
        rel = abs(b - a) / max(a, b)
        checks.append((rel <= 0.30,
                       f"window [{lo},{hi}] slope modulus varies {rel:.1%}"
                       " (tol 30%)"))

    # discrete slope just outside each jump edge must sink toward zero
    sides = {}
    for res in result.levels:
        dx = res.params["dx"]
        prof = res.profile
        assert len(res.frontier.jumps) == 1, "band sweep should jump once"
        rec = res.frontier.jumps[0]
        for key, edge, sgn in (("minus", rec.lambda_minus, -1.0),
                               ("plus", rec.lambda_plus, 1.0)):
            xq = edge + sgn * 3 * dx
            i = int(np.argmin(np.abs(prof.x - xq)))
            sp = prof.s_prime[i]
            assert np.isfinite(sp)
            sides.setdefault(key, []).append(abs(float(sp)))
    for key, vals in sides.items():
        sinking = (all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
                   and vals[-1] <= 0.6 * vals[0] + 1e-12)
        checks.append((sinking,
                       f"edge slope ({key}) sinks under refinement: "
                       + " -> ".join(f"{v:.3f}" for v in vals)))
    _criterion(12, checks)


def test_13_methods_agree_on_the_frontier(cross_uniform, cross_powergap):
    checks = []
    for cfg, result in (cross_uniform, cross_powergap):
        res = result.levels[-1]
        assert res.params["n_particles"] == 100_000
        sup = _raw_sup(res)
        bound = 0.05 * cfg.alpha
        checks.append((sup < bound,
                       f"{cfg.scenario_id} sup frontier distance {sup:.4f}"
                       f" < {bound:.4f} at n=100000"))
    _criterion(13, checks)


def test_14_runtime_budget():
    total = sum(RUN_SECONDS.values())
    detail = ", ".join(f"{k}={v:.1f}s" for k, v in sorted(RUN_SECONDS.items()))
    _criterion(14, [(total < SUITE_BUDGET,
                     f"scenario wall time {total:.0f}s of {SUITE_BUDGET:.0f}s"
                     f" budget ({detail})")])
