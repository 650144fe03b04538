"""Frontier jump sizing: exact continuum solve, discrete cascade, minimality oracle."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stefanlab.densities import piecewise_constant
from stefanlab.errors import ConfigError, NonMonotoneCDFError
from stefanlab.jump_rule import (
    cascade_jump,
    continuum_jump,
    density_knots,
    tie_guard,
    verify_cascade_minimality,
)


def exact_jump(d, lam, alpha):
    return continuum_jump(d.cdf, lam, alpha, density_knots(d, lam, alpha))


def scan_oracle(cdf_fn, lam, alpha, x_max, h):
    """First multiple of h whose swept mass falls short of x/alpha.

    Brute force over a generic CDF callable, sharing nothing with the
    closed-form solver: the true infimum lies in (x - h, x].  Returns x_max
    when no probe up to it shows a shortfall.
    """
    xs = h * np.arange(1, int(np.floor(x_max / h)) + 1)
    cdf = cdf_fn(lam + xs)
    shortfall = xs / alpha - (cdf - cdf_fn(lam))
    # an exactly critical piece leaves only the rounding of the swept mass,
    # so ties are judged on its scale, as the solver judges them
    over = shortfall > tie_guard(cdf, lam, xs, alpha)
    return float(xs[np.argmax(over)]) if over.any() else x_max


def test_uniform_subcritical_no_jump():
    d = piecewise_constant([0.0, 2.0], [0.5])
    res = exact_jump(d, 0.0, 1.0)
    assert res.delta == 0.0
    assert res.absorbed_mass == 0.0


def test_reference_density_jump_is_0_6():
    # density 2 on (0,0.3), 0 on (0.3,1), 0.8 on (1,1.5), alpha=1.
    # Swept mass at x: min(2x, 0.6) for x <= 1; shortfall first strict at the
    # gap, and the infimum works out to 0.6 (cdf(0.6)=0.6 ties, gap breaks it).
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    res = exact_jump(d, 0.0, 1.0)
    assert res.delta == pytest.approx(0.6, abs=1e-12)
    assert res.absorbed_mass == pytest.approx(0.6, abs=1e-12)


def test_supercritical_total_freeze():
    # 0.6 mass on (0,1), 0.4 on (1,2), alpha=2: need cdf growth >= x/2,
    # holds through x=2 with equality at the end; nothing beyond -> freeze out.
    d = piecewise_constant([0.0, 1.0, 2.0], [0.6, 0.4])
    res = continuum_jump(d.cdf, 0.0, 2.0, [1.0, 2.0])
    assert res.delta == pytest.approx(2.0, abs=1e-12)
    assert res.absorbed_mass == pytest.approx(1.0, abs=1e-12)
    # knots reaching past the support find the same jump, all mass swept
    res = exact_jump(d, 0.0, 2.0)
    assert res.delta == pytest.approx(2.0, abs=1e-12)
    assert res.absorbed_mass == pytest.approx(1.0, abs=1e-12)


def test_jump_from_interior_frontier():
    # start the frontier mid-support where remaining profile forces a jump:
    # same reference density, frontier at 0.2: remaining swept mass from 0.2
    # is 2x up to x=0.1 then flat; alpha=1 demands rate >= 1 > ... flat part
    # fails immediately after 0.1? increment over (0.2, 0.2+x]:
    #   x <= 0.1: 2x >= x holds; x in (0.1, 0.9]: 0.2 < x fails at x=0.2.
    # infimum: first x with increment < x is x just above 0.2 where 2*0.1=0.2
    # equals x -> strict failure just beyond; delta = 0.2.
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    res = exact_jump(d, 0.2, 1.0)
    assert res.delta == pytest.approx(0.2, abs=1e-12)


def test_zero_alpha_never_jumps():
    d = piecewise_constant([0.0, 1.0], [1.0])
    res = exact_jump(d, 0.0, 0.0)
    assert res.delta == 0.0


def test_knots_need_not_be_breaks_only():
    # extra knots on a linear piece change nothing: a uniform knot lattice
    # aligned with the breaks gives the same exact infimum
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    res = continuum_jump(d.cdf, 0.0, 1.0, 0.05 * np.arange(1, 161))
    assert res.delta == pytest.approx(0.6, abs=1e-12)


def test_sub_resolution_shortfall_reports_zero():
    # shortfall already on the first piece (vacuum at the frontier): the
    # zero crossing sits at the frontier itself, so no jump, not one piece
    d = piecewise_constant([0.5, 1.0], [2.0])
    res = continuum_jump(d.cdf, 0.0, 1.0, 0.25 * np.arange(1, 17))
    assert res.delta == 0.0


def test_narrow_piece_is_not_stepped_over():
    # a gap of width 8e-4 that a 1e-3 probe scan steps over: the swept mass
    # falls short inside it, at 0.5005, long before the dense piece beyond
    d = piecewise_constant([0.0, 0.5, 0.5008, 0.6673], [1.001, 0.0, 3.0])
    res = exact_jump(d, 0.0, 1.0)
    assert res.delta == pytest.approx(0.5005, abs=1e-12)
    assert res.absorbed_mass == pytest.approx(0.5005, abs=1e-12)


def test_nonmonotone_cdf_rejected():
    def bad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, x, 0.2 * x)

    with pytest.raises(NonMonotoneCDFError):
        continuum_jump(bad, 0.0, 1.0, 0.01 * np.arange(1, 201))


@pytest.mark.parametrize("knots", [[], [0.0, 1.0], [0.5, 0.5], [1.0, 0.5], [[0.5]]])
def test_bad_knots_rejected(knots):
    d = piecewise_constant([0.0, 1.0], [1.0])
    with pytest.raises(ConfigError):
        continuum_jump(d.cdf, 0.0, 1.0, knots)


def test_cdf_evaluated_once():
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return d.cdf(x)

    continuum_jump(counted, 0.0, 1.0, density_knots(d, 0.0, 1.0))
    assert calls == [(5,)]


@st.composite
def step_densities(draw):
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
                           min_size=n, max_size=n))
    if sum(v * w for v, w in zip(values, widths)) <= 1e-3:
        values[0] = 1.0
    start = draw(st.floats(0.0, 0.5))
    breaks = start + np.concatenate(([0.0], np.cumsum(widths)))
    return piecewise_constant(breaks, values)


@settings(max_examples=150, deadline=None)
@given(d=step_densities(), alpha=st.floats(0.05, 4.0), lam_frac=st.floats(0.0, 1.0))
# alpha * density is 1 to rounding across the piece: an exactly critical tie
@example(d=piecewise_constant([0.25, 0.3046875], [1.0]), alpha=0.0546875,
         lam_frac=0.875)
def test_exact_solve_matches_fine_scan(d, alpha, lam_frac):
    # the closed-form infimum lies in the oracle's last probe cell, and the
    # swept mass pays for the advance up to it.  The scan can only step over
    # a piece narrower than its step, which here is at most the first one
    # (the frontier may sit just below a break), so the lower bound is
    # asserted when that piece is wide enough to be seen.
    lam = lam_frac * d.breaks[-1]
    res = exact_jump(d, lam, alpha)
    h = 1e-4
    x_max = alpha + d.support_max - lam
    probe = scan_oracle(d.cdf, lam, alpha, x_max, h)
    swept = float(d.cdf(lam + res.delta) - d.cdf(lam))
    first_piece = min(d.breaks[d.breaks > lam] - lam, default=np.inf)
    assert 0.0 <= res.delta <= probe + 1e-9
    if first_piece >= h:
        assert probe - h - 1e-9 <= res.delta
    assert res.absorbed_mass == pytest.approx(swept, abs=1e-12)
    if res.delta > 0:
        xs = np.linspace(0.0, res.delta, 101)[1:]
        assert np.all(xs / alpha - (d.cdf(lam + xs) - d.cdf(lam)) <= 1e-9)


# --- cascade (finite ensemble) ---


def test_cascade_reference_four_particles():
    # alive at 0.1, 0.5, 0.9, 1.5; one fresh absorption (k0=1), alpha=1, N=5.
    # frontier candidates: lam_start=0, after k0: 0.2 -> 0.1 crossed ->
    # 0.4 -> none new (0.5 > 0.4) -> fixed point m*=1, delta=0.4.
    res = cascade_jump(np.array([0.1, 0.5, 0.9, 1.5]), 0.0, 1, 1.0, 5)
    assert res.delta == pytest.approx(0.4)
    assert res.new_frontier == pytest.approx(0.4)
    assert res.n_absorbed == 1
    assert res.absorbed_mass == pytest.approx(1 / 5)


def test_cascade_total_freeze():
    # tight chain: every advance swallows the next particle
    res = cascade_jump(np.array([0.1, 0.3, 0.5, 0.7]), 0.0, 1, 1.0, 5)
    assert res.delta == pytest.approx(1.0)
    assert res.n_absorbed == 4


def test_cascade_no_seed_no_jump():
    res = cascade_jump(np.array([0.1, 0.2]), 0.0, 0, 1.0, 5)
    assert res.delta == 0.0
    assert res.n_absorbed == 0


def test_cascade_empty_alive():
    res = cascade_jump(np.array([]), 0.4, 2, 1.0, 5)
    assert res.delta == pytest.approx(0.4)
    assert res.n_absorbed == 0


def test_cascade_minimality_oracle_confirms_reference():
    alive = np.array([0.1, 0.5, 0.9, 1.5])
    res = cascade_jump(alive, 0.0, 1, 1.0, 5)
    verify_cascade_minimality(alive, 0.0, 1, 1.0, 5, res)


def test_cascade_random_vs_exhaustive_oracle():
    # the acceptance criterion runs 1000; keep a quick 300 here for dev loops
    rng = np.random.default_rng(2024)
    for trial in range(300):
        n_total = int(rng.integers(1, 21))
        n_alive = int(rng.integers(0, n_total + 1))
        k0 = int(rng.integers(0, n_total - n_alive + 1))
        lam_start = float(rng.uniform(0, 0.5))
        alpha = float(rng.choice([0.3, 1.0, 2.0, rng.uniform(0.1, 3.0)]))
        alive = np.sort(lam_start + rng.uniform(1e-6, 2.0, n_alive))
        res = cascade_jump(alive, lam_start, k0, alpha, n_total)
        verify_cascade_minimality(alive, lam_start, k0, alpha, n_total, res)


def test_cascade_monotone_in_seed():
    rng = np.random.default_rng(7)
    alive = np.sort(rng.uniform(0.01, 2.0, 12))
    deltas = []
    for k0 in range(0, 5):
        res = cascade_jump(alive[k0:] if False else alive, 0.0, k0, 1.0, 20)
        deltas.append(res.delta)
    assert all(b >= a - 1e-15 for a, b in zip(deltas, deltas[1:]))


def test_cascade_continuum_consistency_uniform():
    # stratified draws from uniform density on (0,2), frontier seeded with one
    # phantom absorption: discrete delta must approach the continuum answer
    # computed from the same one-particle-shifted profile. For uniform 0.5 the
    # continuum jump from a 1/N seed is ~2/N (rate ties resolve by the seed).
    d = piecewise_constant([0.0, 2.0], [0.5])
    for n in (1_000, 10_000, 100_000):
        u = (np.arange(n) + 0.5) / n
        pos = d.quantile(u)
        res = cascade_jump(pos, 0.0, 1, 1.0, n)
        # continuum: delta solves sweeping at exact rate; seed 1/N pushes the
        # fixed point to about 2/N for this flat-rate profile
        assert res.delta <= 1.0 / n * 2 + 1e-12
        assert res.delta >= 1.0 / n - 1e-12


def test_cascade_continuum_consistency_reference():
    # reference two-block density: continuum jump from zero seed is 0.6; a
    # single phantom absorption produces delta in [0.6, 0.6 + alpha/N + h]
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    for n in (1_000, 10_000, 100_000):
        u = (np.arange(n) + 0.5) / n
        pos = d.quantile(u)
        res = cascade_jump(pos, 0.0, 1, 1.0, n)
        assert abs(res.delta - 0.6) <= 1.0 / n + 2e-3
