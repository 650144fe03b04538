"""Piecewise-constant initial temperature profiles with exact CDFs.

Every initial datum handled by the lab is a nonnegative step function of unit
mass.  The CDF is then piecewise linear and exactly invertible, which both the
exact jump solve and the inverse-CDF particle sampler rely on.  Profiles
with unbounded or non-step initial data are out of scope; callers approximate
them by step functions first.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from stefanlab.errors import ConfigError

MASS_TOL = 1e-12


@dataclass(frozen=True)
class Density:
    """Step-function probability density on [breaks[0], breaks[-1]].

    values[i] holds the density on [breaks[i], breaks[i+1]).  norm_factor is
    the scaling that was applied to the raw values to reach unit mass.
    """

    breaks: np.ndarray
    values: np.ndarray
    norm_factor: float = 1.0

    def __post_init__(self) -> None:
        br = np.asarray(self.breaks, dtype=float)
        va = np.asarray(self.values, dtype=float)
        if br.ndim != 1 or va.ndim != 1 or len(br) != len(va) + 1 or len(va) == 0:
            raise ConfigError("need len(breaks) == len(values) + 1 >= 2")
        if not np.all(np.diff(br) > 0):
            raise ConfigError("breaks must be strictly increasing")
        if br[0] < 0:
            raise ConfigError("support must lie in [0, inf)")
        if np.any(va < 0):
            raise ConfigError("density values must be nonnegative")
        object.__setattr__(self, "breaks", br)
        object.__setattr__(self, "values", va)
        mass = float(np.sum(va * np.diff(br)))
        if abs(mass - 1.0) > MASS_TOL:
            raise ConfigError(f"total mass {mass!r} is not 1 within {MASS_TOL}")
        # cumulative mass at each break, cached for cdf/quantile
        cum = np.concatenate([[0.0], np.cumsum(va * np.diff(br))])
        object.__setattr__(self, "_cum", cum)

    @property
    def support_max(self) -> float:
        return float(self.breaks[-1])

    def cdf(self, x):
        """Exact piecewise-linear CDF, 0 left of the support, 1 right of it."""
        x = np.asarray(x, dtype=float)
        cum = self._cum
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, len(self.values) - 1)
        inside = cum[idx] + self.values[idx] * (x - self.breaks[idx])
        out = np.where(x <= self.breaks[0], 0.0, np.where(x >= self.breaks[-1], 1.0, inside))
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Generalized inverse CDF, inf{x : F(x) >= u}.

        Flat (zero-density) stretches resolve leftward, matching the infimum.
        """
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise ConfigError("quantile argument must lie in [0, 1]")
        cum = self._cum
        idx = np.clip(np.searchsorted(cum, u, side="left"), 1, len(cum) - 1)
        lo_c, hi_c = cum[idx - 1], cum[idx]
        lo_x, hi_x = self.breaks[idx - 1], self.breaks[idx]
        span = hi_c - lo_c
        frac = np.where(span > 0, (u - lo_c) / np.where(span > 0, span, 1.0), 0.0)
        out = lo_x + frac * (hi_x - lo_x)
        return out if out.ndim else float(out)

    def value_at(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, len(self.values) - 1)
        out = np.where((x < self.breaks[0]) | (x >= self.breaks[-1]), 0.0, self.values[idx])
        return out if out.ndim else float(out)

    def cell_averages(self, edges: np.ndarray) -> np.ndarray:
        """Mean density over each [edges[i], edges[i+1]) cell."""
        edges = np.asarray(edges, dtype=float)
        c = self.cdf(edges)
        return np.diff(c) / np.diff(edges)


def piecewise_constant(breaks, values) -> Density:
    """Build a Density from raw steps, rescaling the values to unit mass.

    The applied factor is reported on the result as norm_factor; callers that
    depend on pointwise bounds must re-check them when it differs from 1.
    """
    br = np.asarray(breaks, dtype=float)
    va = np.asarray(values, dtype=float)
    if br.ndim != 1 or va.ndim != 1 or len(br) != len(va) + 1 or len(va) == 0:
        raise ConfigError("need len(breaks) == len(values) + 1 >= 2")
    if not (np.all(np.isfinite(br)) and np.all(np.isfinite(va))):
        raise ConfigError("breaks and values must be finite")
    if not np.all(np.diff(br) > 0):
        raise ConfigError("breaks must be strictly increasing")
    if np.any(va < 0):
        raise ConfigError("density values must be nonnegative")
    # an overflow here is caught by the isfinite check below
    with np.errstate(over="ignore"):
        mass = float(np.sum(va * np.diff(br)))
    if mass <= 0:
        raise ConfigError("density has zero mass, cannot normalize")
    factor = 1.0 / mass
    if not (math.isfinite(mass) and math.isfinite(factor)):
        raise ConfigError(f"density mass {mass!r} cannot be normalized")
    return Density(br, va * factor, norm_factor=factor)


def power_gap_density(alpha: float, c: float, n: int, delta: float, steps: int,
                      tail_breaks=None, tail_values=None) -> Density:
    """Step profile under-approximating x -> 1/alpha - c*x**n on (0, delta).

    Each of the `steps` equal subintervals of (0, delta) takes the interval
    minimum of the curve (its right-endpoint value, the curve being
    decreasing), so the pointwise gap bound holds on the whole subinterval.
    An optional step tail continues the profile at or beyond delta; any space
    between delta and the tail is filled with zero density.
    """
    if alpha <= 0 or c <= 0 or delta <= 0:
        raise ConfigError("alpha, c, delta must be positive")
    if n < 1 or int(n) != n:
        raise ConfigError("n must be a positive integer")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    floor = 1.0 / alpha - c * delta ** n
    if floor < 0:
        raise ConfigError("curve goes negative before delta; shrink c or delta")
    xs = np.linspace(0.0, delta, steps + 1)
    vals = 1.0 / alpha - c * xs[1:] ** n
    br = list(xs)
    va = list(vals)
    if tail_breaks is not None:
        tb = np.asarray(tail_breaks, dtype=float)
        tv = np.asarray(tail_values, dtype=float)
        if tb[0] < delta - 1e-12:
            raise ConfigError("tail overlaps (0, delta)")
        if tb[0] > delta + 1e-12:
            br.append(float(tb[0]))
            va.append(0.0)
        br.extend(float(b) for b in tb[1:])
        va.extend(float(v) for v in tv)
    return piecewise_constant(br, va)


def oscillatory_density(alpha1: float, alpha2: float, a1: float, p: float, q: float,
                        n_levels: int, tail_breaks=None, tail_values=None) -> Density:
    """Geometric two-level oscillation near 0, truncated at n_levels.

    With r = p*q and the descending marks a_{2n-1} = r**(n-1) * a1,
    a_{2n} = p * r**(n-1) * a1, the profile is alpha1 on [a_{2n}, a_{2n-1})
    and alpha2 on [a_{2n+1}, a_{2n}) for n = 1..n_levels; the innermost gap
    (0, a_{2*n_levels+1}) is filled with alpha1.  alpha1 sits strictly below
    and alpha2 strictly above the reciprocal heat-release scale 1, so the
    frontier alternates between starving and feasting as it climbs.
    """
    if not (0 < alpha1 < 1 < alpha2):
        raise ConfigError("need 0 < alpha1 < 1 < alpha2")
    if not (0 < p < 1 and 0 < q < 1):
        raise ConfigError("p and q must lie in (0, 1)")
    if a1 <= 0:
        raise ConfigError("a1 must be positive")
    if n_levels < 1:
        raise ConfigError("n_levels must be >= 1")
    r = p * q
    marks = [0.0, r ** n_levels * a1]           # 0 and a_{2*n_levels+1}
    vals = [alpha1]                              # innermost fill
    for n in range(n_levels, 0, -1):
        a_even = p * r ** (n - 1) * a1           # a_{2n}
        a_odd = r ** (n - 1) * a1                # a_{2n-1}
        marks.extend([a_even, a_odd])
        vals.extend([alpha2, alpha1])
    br = list(marks)
    va = list(vals)
    if tail_breaks is not None:
        tb = np.asarray(tail_breaks, dtype=float)
        tv = np.asarray(tail_values, dtype=float)
        if tb[0] < a1 - 1e-12:
            raise ConfigError("tail overlaps the oscillatory region")
        if tb[0] > a1 + 1e-12:
            br.append(float(tb[0]))
            va.append(0.0)
        br.extend(float(b) for b in tb[1:])
        va.extend(float(v) for v in tv)
    return piecewise_constant(br, va)


def oscillatory_raw_mass(alpha1: float, alpha2: float, a1: float, p: float, q: float,
                         n_levels: int) -> float:
    """Mass of the un-normalized oscillatory profile on (0, a1)."""
    r = p * q
    mass = alpha1 * r ** n_levels * a1
    for n in range(1, n_levels + 1):
        a_odd, a_even, a_next = r ** (n - 1) * a1, p * r ** (n - 1) * a1, r ** n * a1
        mass += alpha1 * (a_odd - a_even) + alpha2 * (a_even - a_next)
    return mass


def mass_completing_tail(partial_mass: float, lo: float, hi: float) -> float:
    """Uniform tail level on (lo, hi) that tops total mass up to 1."""
    if hi <= lo:
        raise ConfigError("tail interval is empty")
    if partial_mass >= 1.0:
        raise ConfigError("profile already carries mass >= 1, no tail fits")
    return (1.0 - partial_mass) / (hi - lo)
