"""Density construction, exact CDFs, and the three profile families."""

import tracemalloc

import numpy as np
import pytest

from stefanlab.densities import (
    QUANTILE_BLOCK,
    Density,
    oscillatory_density,
    piecewise_constant,
    power_gap_density,
)
from stefanlab.errors import ConfigError


def test_uniform_density_identity():
    d = piecewise_constant([0.0, 2.0], [0.5])
    assert d.norm_factor == pytest.approx(1.0)
    assert d.cdf(1.0) == pytest.approx(0.5)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(2.0) == 1.0


def test_normalization_factor_reported():
    # raw mass 3 on (0, 2), so values scale by 1/3
    d = piecewise_constant([0.0, 1.0, 2.0], [2.0, 1.0])
    assert d.norm_factor == pytest.approx(1.0 / 3.0)
    assert d.values[0] == pytest.approx(2.0 / 3.0)
    assert np.sum(d.values * np.diff(d.breaks)) == pytest.approx(1.0, abs=1e-12)


def test_reference_jump_density():
    # 2 on (0, 0.3), vacuum gap, 0.8 on (1, 1.5): mass 0.6 + 0.4 = 1 exactly
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    assert d.norm_factor == pytest.approx(1.0)
    assert d.cdf(0.15) == pytest.approx(0.3)
    assert d.cdf(0.7) == pytest.approx(0.6)   # flat across the vacuum
    assert d.cdf(1.25) == pytest.approx(0.8)
    assert d.cdf(5.0) == 1.0


def test_cdf_shape_invariants():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = rng.integers(1, 7)
        breaks = np.sort(rng.uniform(0, 3, k + 1))
        while np.any(np.diff(breaks) < 1e-3):
            breaks = np.sort(rng.uniform(0, 3, k + 1))
        values = rng.uniform(0, 2, k)
        values[rng.integers(0, k)] = 0.0 if k > 1 else values[0]
        if np.sum(values * np.diff(breaks)) == 0:
            continue
        d = piecewise_constant(breaks, values)
        xs = np.linspace(-0.5, 3.5, 400)
        c = d.cdf(xs)
        assert np.all(np.diff(c) >= -1e-15)
        assert abs(d.cdf(d.breaks[-1]) - 1.0) <= 1e-12
        # continuity: no gaps bigger than local slope * step
        gaps = np.diff(c)
        step = xs[1] - xs[0]
        assert np.all(gaps <= (np.max(d.values) + 1e-9) * step + 1e-12)


def test_quantile_inverts_cdf():
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    u = np.linspace(0.001, 0.999, 57)
    x = d.quantile(u)
    assert np.allclose(d.cdf(x), u, atol=1e-12)
    # flat stretch resolves leftward: mass 0.6 sits at the gap's left edge
    assert d.quantile(0.6) == pytest.approx(0.3)


def test_cell_averages_exact():
    d = piecewise_constant([0.0, 0.3, 1.0, 1.5], [2.0, 0.0, 0.8])
    edges = np.arange(0.0, 2.0 + 1e-12, 0.25)
    avg = d.cell_averages(edges)
    assert np.sum(avg) * 0.25 == pytest.approx(1.0, abs=1e-12)
    assert avg[0] == pytest.approx((d.cdf(0.25)) / 0.25)


def test_density_validation_errors():
    with pytest.raises(ConfigError):
        piecewise_constant([0.0, 1.0, 0.5], [1.0, 1.0])     # not increasing
    with pytest.raises(ConfigError):
        piecewise_constant([0.0, 1.0], [-0.2])               # negative value
    with pytest.raises(ConfigError):
        piecewise_constant([0.0, 1.0, 2.0], [0.0, 0.0])      # zero mass
    with pytest.raises(ConfigError):
        Density(np.array([0.0, 1.0]), np.array([0.9]))       # mass != 1
    with pytest.raises(ConfigError):
        piecewise_constant([-0.5, 1.0], [1.0 / 1.5])         # negative support


@pytest.mark.parametrize("breaks, values, match", [
    ([0.0, 1.0], [np.nan], "finite"), ([0.0, 1.0], [np.inf], "finite"),
    ([0.0, np.inf], [1.0], "finite"), ([-np.inf, 0.0, 1.0], [0.0, 1.0], "finite"),
    # finite steps whose normalisation over- or underflows: 1/mass is inf
    # and the zero step would turn into 0 * inf = NaN
    ([0.0, 1.0, 1.5], [0.0, 1e-320], "cannot be normalized"),
    ([0.0, 10.0], [1e308], "cannot be normalized")])
def test_non_finite_density_rejected(breaks, values, match):
    with pytest.raises(ConfigError, match=match):
        piecewise_constant(breaks, values)


# --- power-gap family ---


def test_power_gap_linear_staircase():
    # alpha=1, c=1, n=1, delta=0.5, 10 steps: right-endpoint values 1 - k/20
    d = power_gap_density(1.0, 1.0, 1, 0.5, 10,
                          tail_breaks=[0.5, 2.0], tail_values=[0.5])
    raw = 1.0 - np.arange(1, 11) / 20.0
    # raw mass: sum(raw)*0.05 + 0.5*1.5 = 0.7625 * ... compute directly
    raw_mass = float(np.sum(raw) * 0.05 + 0.5 * 1.5)
    assert d.norm_factor == pytest.approx(1.0 / raw_mass)
    assert np.allclose(d.values[:10], raw * d.norm_factor)


def test_power_gap_pointwise_bound():
    # tail heavy enough that normalization shrinks values: bound survives
    d = power_gap_density(2.0, 0.1, 2, 1.0, 16,
                          tail_breaks=[1.0, 3.0], tail_values=[0.3])
    assert d.norm_factor <= 1.0
    xs = d.breaks[:17]                      # the staircase section
    for i in range(16):
        lo, hi = xs[i], xs[i + 1]
        bound = 0.5 - 0.1 * np.array([lo, hi]) ** 2
        assert d.values[i] <= np.min(bound) + 1e-12


def test_power_gap_tail_gap_filled_with_zero():
    d = power_gap_density(1.0, 0.5, 1, 0.4, 4,
                          tail_breaks=[0.9, 1.9], tail_values=[0.8])
    k = np.searchsorted(d.breaks, 0.4)
    assert d.breaks[k + 1] == pytest.approx(0.9)
    assert d.values[k] == 0.0


def test_power_gap_errors():
    with pytest.raises(ConfigError):
        power_gap_density(1.0, 3.0, 1, 0.5, 8)               # goes negative
    with pytest.raises(ConfigError):
        power_gap_density(1.0, 0.5, 1, 0.5, 8,
                          tail_breaks=[0.3, 1.0], tail_values=[1.0])  # overlap
    with pytest.raises(ConfigError):
        power_gap_density(1.0, 0.5, 0, 0.5, 8)               # n < 1
    with pytest.raises(ConfigError):
        power_gap_density(1.0, 0.5, 1, 0.5, 0)               # no steps


# --- oscillatory family ---


def osc_reference_value(x, alpha1, alpha2, a1, p, q, n_levels):
    """Direct two-case evaluation of the oscillation, fill included."""
    r = p * q
    for n in range(1, n_levels + 1):
        a_odd = r ** (n - 1) * a1
        a_even = p * r ** (n - 1) * a1
        a_next = r ** n * a1
        if a_even <= x < a_odd:
            return alpha1
        if a_next <= x < a_even:
            return alpha2
    if 0 < x < r ** n_levels * a1:
        return alpha1
    return None


def test_oscillatory_single_level_layout():
    # a1=1, p=q=0.5: alpha1 on [0.5, 1), alpha2 on [0.25, 0.5), fill below
    d = oscillatory_density(0.5, 1.2, 1.0, 0.5, 0.5, 1, tail_hi=2.0)
    assert d.norm_factor == 1.0
    assert d.value_at(0.7) == pytest.approx(0.5)
    assert d.value_at(0.3) == pytest.approx(1.2)
    assert d.value_at(0.1) == pytest.approx(0.5)    # innermost fill
    assert np.allclose(d.breaks[:4], [0.0, 0.25, 0.5, 1.0])


def test_oscillatory_membership_random_points():
    params = (0.5, 1.2, 1.0, 0.5, 0.5, 4)
    d = oscillatory_density(*params, tail_hi=2.0)
    assert d.norm_factor == 1.0
    rng = np.random.default_rng(3)
    r = 0.25
    for level in range(1, 5):
        lo, hi = r ** level, r ** (level - 1)
        xs = rng.uniform(lo, hi, 100)
        for x in xs:
            expect = osc_reference_value(x, *params)
            assert expect is not None
            assert d.value_at(x) == pytest.approx(expect)


def test_oscillatory_mass_exact_at_four_levels():
    d = oscillatory_density(0.5, 1.2, 1.0, 0.5, 0.5, 4, tail_hi=2.0)
    assert d.norm_factor == 1.0
    # the steps on (0, 1) carry the raw mass, the flat tail on (1, 2) the rest
    assert d.cdf(1.0) == pytest.approx(0.732421875, abs=1e-12)
    assert d.breaks[-2:].tolist() == [1.0, 2.0]
    assert d.values[-1] == pytest.approx(0.267578125, abs=1e-12)


def test_oscillatory_errors():
    with pytest.raises(ConfigError):
        oscillatory_density(0.5, 1.2, 1.0, 0.5, 0.5, 0)      # no levels
    with pytest.raises(ConfigError):
        oscillatory_density(1.1, 1.2, 1.0, 0.5, 0.5, 2)      # alpha1 >= 1
    with pytest.raises(ConfigError):
        oscillatory_density(0.5, 0.9, 1.0, 0.5, 0.5, 2)      # alpha2 <= 1
    with pytest.raises(ConfigError):
        oscillatory_density(0.5, 1.2, 1.0, 1.5, 0.5, 2)      # p outside (0,1)
    with pytest.raises(ConfigError):
        oscillatory_density(0.5, 1.2, 1.0, 0.5, 0.5, 2,
                            tail_breaks=[0.5, 2.0], tail_values=[1.0])  # overlap


# --- tail completion, shared by both families ---


@pytest.mark.parametrize("family, params, lo", [
    (power_gap_density, (1.0, 0.5, 2, 1.0), 1.0),
    (oscillatory_density, (0.5, 1.2, 0.8, 0.5, 0.5, 3), 0.8)],
    ids=["power_gap", "oscillatory"])
def test_default_tail_is_flat_to_twice_the_support(family, params, lo):
    d = family(*params)
    assert d.norm_factor == 1.0
    assert d.breaks[-2:].tolist() == [lo, 2.0 * lo]
    assert d.cdf(d.support_max) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family, args, tail, match", [
    (power_gap_density, (1.0, 0.5, 1, 0.5, 8), dict(tail_breaks=[0.5, 2.0]),
     "tail_breaks and tail_values together"),
    (power_gap_density, (1.0, 0.5, 1, 0.5, 8), dict(tail_values=[0.5]),
     "tail_breaks and tail_values together"),
    (power_gap_density, (1.0, 0.5, 1, 0.5, 8),
     dict(tail_breaks=[0.5, 2.0], tail_values=[0.5], tail_hi=3.0), "tail_hi"),
    (power_gap_density, (1.0, 0.5, 1, 0.5, 8), dict(tail_breaks=[], tail_values=[]),
     "tail_breaks must be a nonempty list"),
    (power_gap_density, (1.0, 0.5, 1, 0.5, 8), dict(tail_breaks=0.5, tail_values=[0.5]),
     "tail_breaks must be a nonempty list"),
    (power_gap_density, (1.0, 0.5, 1, 0.5, 8), dict(tail_hi=0.5), "tail interval is empty"),
    (oscillatory_density, (0.5, 1.2, 1.0, 0.5, 0.5, 2), dict(tail_hi=0.2),
     "tail interval is empty"),
    # the steps under 2 - 0.1 x on (0, 1) carry 1.95, and alpha1 = 0.9
    # alone over most of (0, 2) more than 1
    (power_gap_density, (0.5, 0.1, 1, 1.0), {}, "already carries mass >= 1"),
    (oscillatory_density, (0.9, 1.5, 2.0, 0.5, 0.5, 2), {}, "already carries mass >= 1")],
    ids=["tail_values-missing", "tail_breaks-missing", "tail_hi-beside-tail",
         "empty-tail", "scalar-tail", "tail_hi-at-support-end", "tail_hi-inside-support",
         "power_gap-mass-over-1", "oscillatory-mass-over-1"])
def test_tail_errors(family, args, tail, match):
    with pytest.raises(ConfigError, match=match):
        family(*args, **tail)


def test_power_gap_density_is_built_in_arrays():
    # the steps reach the tail helper as arrays and are concatenated once:
    # the build traces about 56 B a step, where lists of Python floats
    # appended to took 122
    steps = 200_000
    tracemalloc.start()
    try:
        d = power_gap_density(1.0, 0.8, 1, 1.0, steps=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d.values) == steps + 1
    assert peak < 80 * steps


def reference_quantile(d, u):
    """quantile's formula on the whole array at once, as it was evaluated
    before the blocks."""
    u = np.asarray(u, dtype=float)
    cum = d._cum
    idx = np.clip(np.searchsorted(cum, u, side="left"), 1, len(cum) - 1)
    lo_c, hi_c = cum[idx - 1], cum[idx]
    lo_x, hi_x = d.breaks[idx - 1], d.breaks[idx]
    span = hi_c - lo_c
    frac = np.where(span > 0, (u - lo_c) / np.where(span > 0, span, 1.0), 0.0)
    out = lo_x + frac * (hi_x - lo_x)
    return out if out.ndim else float(out)


QUANTILE_DENSITIES = {
    # the README demo's data, the benchmark's band (a jump at t = 0), and a
    # profile with a vacuum gap and a zero-density step: flat CDF pieces
    "readme-demo": ([0.0, 1.5], [0.6667]),
    "band": ([0.2, 0.6, 3.2667], [1.5, 0.15]),
    "flat-pieces": ([0.0, 0.3, 1.0, 1.2, 1.5, 2.0], [2.0, 0.0, 0.5, 0.0, 0.6]),
}


@pytest.mark.parametrize("name", sorted(QUANTILE_DENSITIES))
def test_quantile_blocks_match_the_whole_array_formula(name):
    d = piecewise_constant(*QUANTILE_DENSITIES[name])
    n = 3 * QUANTILE_BLOCK + 5
    cum = list(d._cum)
    rng = np.random.default_rng(5)
    cases = {
        "lattice": (np.arange(n) + 0.5) / n,
        "iid": rng.random(n),
        # 0 and 1, and every break's cumulative mass, where flat pieces
        # resolve leftward, inside a run of block-straddling arguments
        "edges": np.array(([0.0, 1.0] + cum) * (QUANTILE_BLOCK // 4)),
        "2-d": rng.random((QUANTILE_BLOCK // 16 + 3, 33)),
        "empty": np.empty((0, 4)),
    }
    for case, u in cases.items():
        got = d.quantile(u)
        want = reference_quantile(d, u)
        assert got.shape == want.shape, case
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case
    for u in (0.0, 1.0, *cum, np.float64(0.37), np.array(0.5)):
        got = d.quantile(u)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(reference_quantile(d, u)).tobytes()


def test_quantile_refuses_an_argument_out_of_range_in_any_block():
    d = piecewise_constant([0.0, 1.5], [0.6667])
    for bad in (-1e-300, 1.0 + 1e-15):
        u = np.full(2 * QUANTILE_BLOCK + 1, 0.5)
        u[-1] = bad
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            d.quantile(u)


def test_quantile_allocates_blocks_not_argument_sized_arrays():
    # the particle solver's N = 1e5 start: beyond its output, quantile
    # holds a few block-sized temporaries at a time
    d = piecewise_constant([0.2, 0.6, 3.2667], [1.5, 0.15])
    n = 100_000
    u = (np.arange(n) + 0.5) / n
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = d.quantile(u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 1_000_000, peak
