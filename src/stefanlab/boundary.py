"""Free-boundary analysis: freezing times, jumps, point classes.

Everything here consumes solver (or oracle) outputs and produces the
quantities the structure theory talks about: the freezing-time profile s and
its slope, the jump registry recovered from a sampled frontier, the
regular/singular label of each boundary point, the frontier-speed identity
check, and the linear lower bound on the temperature ahead of the frontier.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord

LABELS = ("regular_in_jump", "regular_vanishing", "singular_endpoint",
          "singular_critical", "unresolved")
# samples before s(x) that the pre-freeze temperature is extrapolated from
N_EXTRAP = 3
# the speed check skips points whose s' is this flat or flatter
S_PRIME_FLOOR = 1e-3


@dataclass
class FreezingProfile:
    """Freezing time s, its slope, and per-point classification on an x grid.

    s is +inf where the frontier never passed within the horizon; s_prime is
    NaN where s is infinite or has no finite neighbour.
    boundary_value estimates the temperature at the point just before it
    froze; NaN where not estimable.
    """

    x: np.ndarray
    s: np.ndarray
    s_prime: np.ndarray
    labels: list
    boundary_value: np.ndarray
    alpha: float

    def fraction_unresolved(self) -> float:
        """Unresolved share among finite-s points outside jumps and endpoints."""
        labels = np.asarray(self.labels, dtype=str)
        cand = np.isfinite(self.s) & ~np.isin(
            labels, ("regular_in_jump", "singular_endpoint"))
        n = np.count_nonzero(cand)
        if not n:
            return 0.0
        return float(np.count_nonzero(cand & (labels == "unresolved")) / n)


def freezing_time(frontier: FrontierPath, x_grid) -> FreezingProfile:
    """Left inverse of the frontier path on sampled data.

    s(x) = first sample time with frontier strictly above x; +inf if that
    never happens within the horizon.  Slopes by centered differences over
    finite neighbors, one-sided at the ends of a finite run, NaN at an
    isolated finite point.
    """
    x = np.asarray(x_grid, dtype=float)
    lam = frontier.lam
    times = frontier.times
    idx = np.searchsorted(lam, x, side="right")
    s = np.where(idx < len(times), times[np.minimum(idx, len(times) - 1)], np.inf)

    n = len(x)
    sp = np.full(n, np.nan)
    fin = np.isfinite(s)
    padded = np.pad(fin, 1)                     # no neighbour past either end
    left, right = padded[:-2], padded[2:]
    # differences are taken only between finite values
    i = np.flatnonzero(fin & left & right)
    sp[i] = (s[i + 1] - s[i - 1]) / (x[i + 1] - x[i - 1])
    i = np.flatnonzero(fin & right & ~left)
    sp[i] = (s[i + 1] - s[i]) / (x[i + 1] - x[i])
    i = np.flatnonzero(fin & left & ~right)
    sp[i] = (s[i] - s[i - 1]) / (x[i] - x[i - 1])
    return FreezingProfile(x=x, s=s, s_prime=sp, labels=["unresolved"] * n,
                           boundary_value=np.full(n, np.nan), alpha=frontier.alpha)


def _runs(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each run of True in flags, and one past its last."""
    edges = np.flatnonzero(np.diff(np.pad(flags, 1)))
    return edges[::2], edges[1::2]


def detect_jumps(frontier: FrontierPath, threshold: float) -> list[JumpRecord]:
    """Recover jump records from a sampled frontier path.

    Per-step increments above threshold are merged when consecutive (a single
    physical jump can straddle a few samples); the record carries the time at
    which the jump first became visible.  A nonzero starting value at t = 0
    above threshold is reported as the initial jump.
    """
    if threshold < 0:
        raise ConfigError("threshold must be nonnegative")
    times, lam = frontier.times, frontier.lam
    recs: list[JumpRecord] = []
    if len(times) and times[0] == 0.0 and lam[0] > threshold:
        recs.append(JumpRecord(t=0.0, lambda_minus=0.0, lambda_plus=float(lam[0]),
                               mass=float(lam[0] / frontier.alpha)))
    start, stop = _runs(np.diff(lam) > threshold)
    recs += [JumpRecord(t=float(times[a + 1]), lambda_minus=float(lam[a]),
                        lambda_plus=float(lam[b]),
                        mass=float((lam[b] - lam[a]) / frontier.alpha))
             for a, b in zip(start, stop)]
    return recs


def classify_points(profile: FreezingProfile, field: Field,
                    jumps: list[JumpRecord], eps_u: float | None = None,
                    endpoint_band: float | None = None) -> FreezingProfile:
    """Label each profile point by how the temperature vanished there.

    Points strictly inside a registered jump freeze with the sweep, not by
    cooling: regular_in_jump.  Points within one band of a jump edge are the
    singular endpoints.  Elsewhere the pre-freeze temperature is extrapolated
    linearly in time from the last few samples before s(x): a value near zero
    is the continuously-vanishing regular case, a value near 1/alpha the
    critical singular case, anything else stays unresolved.  eps_u defaults
    to 0.1/alpha; at alpha = 0 no point freezes, the default is 0 and no
    value is critical.

    The pre-freeze value is read at the node nearest x (the lower one on a
    tie) from the last N_EXTRAP samples strictly before s, or as many as
    there are: their least-squares line at s, ubar + S_tu / S_tt (s - tbar),
    the sample itself where there is one and NaN where there is none.  It
    is estimated at every finite-s point, in one pass over all of them.
    """
    alpha = profile.alpha
    if eps_u is None:
        eps_u = 0.1 / alpha if alpha > 0 else 0.0
    if endpoint_band is None:
        endpoint_band = 2.0 * field.dx
    x, s = profile.x, profile.s
    in_jump = np.zeros(len(x), dtype=bool)
    at_end = np.zeros(len(x), dtype=bool)
    for rec in jumps:
        in_jump |= ((rec.lambda_minus + endpoint_band < x)
                    & (x < rec.lambda_plus - endpoint_band))
        at_end |= ((np.abs(x - rec.lambda_minus) <= endpoint_band)
                   | (np.abs(x - rec.lambda_plus) <= endpoint_band))

    fin = np.isfinite(s)
    xf, sf = x[fin], s[fin]
    i = np.searchsorted(field.x, xf)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, len(field.x) - 1)
    col = np.where(np.abs(field.x[lo] - xf) <= np.abs(field.x[hi] - xf), lo, hi)
    rows = np.searchsorted(field.t, sf, side="left")[:, None] + np.arange(-N_EXTRAP, 0)
    kept = rows >= 0
    rows = np.maximum(rows, 0)
    m = kept.sum(axis=1)
    t = np.where(kept, field.t[rows], 0.0)
    u = np.where(kept, field.values[rows, col[:, None]], 0.0)
    t_bar = t.sum(axis=1) / np.maximum(m, 1)
    u_bar = u.sum(axis=1) / np.maximum(m, 1)
    dt = np.where(kept, t - t_bar[:, None], 0.0)
    s_tt = (dt * dt).sum(axis=1)
    s_tu = (dt * (u - u_bar[:, None])).sum(axis=1)
    slope = np.divide(s_tu, s_tt, out=np.zeros_like(s_tt), where=s_tt > 0)
    bv = profile.boundary_value.copy()
    bv[fin] = np.where(m > 0, u_bar + slope * (sf - t_bar), np.nan)

    crit = np.abs(bv - 1.0 / alpha) < eps_u if alpha > 0 else np.zeros_like(fin)
    # endpoint status overrides any temperature estimate
    labels = np.select(
        [~fin, in_jump, at_end, ~np.isfinite(bv), bv < eps_u, crit],
        ["unresolved", "regular_in_jump", "singular_endpoint", "unresolved",
         "regular_vanishing", "singular_critical"], "unresolved").tolist()
    return FreezingProfile(x=x, s=s, s_prime=profile.s_prime, labels=labels,
                           boundary_value=bv, alpha=alpha)


def oscillation_count(field: Field, frontier: FrontierPath, t: float,
                      eps_slope: float) -> int:
    """Monotonicity changes of the temperature profile ahead of the frontier.

    Counts sign alternations of the discrete slope at time t, ignoring slopes
    of magnitude at most eps_slope (sampling noise and flat stretches), on
    the nodes past the frontier at the field's sample nearest t.
    """
    if t < 0:
        raise ConfigError("t must be nonnegative")
    if eps_slope < 0:
        raise ConfigError("eps_slope must be nonnegative")
    row = int(np.argmin(np.abs(field.t - t)))
    lam = frontier.value_at(field.t[row])
    start = int(np.searchsorted(field.x, lam + 1e-12))
    u = field.values[row, start:]
    if len(u) < 3:
        return 0
    slopes = np.diff(u) / field.dx
    signs = np.sign(slopes[np.abs(slopes) > eps_slope])
    if len(signs) < 2:
        return 0
    collapsed = signs[np.concatenate([[True], np.diff(signs) != 0])]
    return int(len(collapsed) - 1)


def nondegeneracy_constant(field: Field, frontier: FrontierPath,
                           window: tuple, r: float,
                           offset_min: float | None = None) -> float:
    """Smallest ratio u / (x - frontier) over a positive-time window.

    Nodes with frontier distance in [offset_min, r] and times inside the
    window; offset_min defaults to two cells, below which the discrete
    frontier snap dominates the ratio.  The frontier is read once for all
    window rows, and distances are formed only on the band of columns that
    can reach [offset_min, r] from some row's frontier: float subtraction is
    monotone, so a column outside it has no node in range.
    """
    t_lo, t_hi = window
    if t_lo <= 0 or t_hi <= t_lo:
        raise ConfigError("window must satisfy 0 < t_lo < t_hi")
    if offset_min is None:
        offset_min = 2.0 * field.dx
    rows = np.where((field.t >= t_lo) & (field.t <= t_hi))[0]
    if len(rows) == 0:
        raise ConfigError("window contains no sample times")
    lam = frontier.value_at(field.t[rows])
    x = field.x
    # fmin/fmax skip NaN frontiers, which select no node either
    band = np.flatnonzero((x - np.fmin.reduce(lam) >= offset_min)
                          & (x - np.fmax.reduce(lam) <= r))
    cols = slice(band[0], band[-1] + 1) if len(band) else slice(0, 0)
    dist = x[None, cols] - lam[:, None]
    sel = (dist >= offset_min) & (dist <= r)
    if not np.any(sel):
        raise ConfigError("window contains no nodes in the offset range")
    ratio = field.values[rows, cols][sel] / dist[sel]
    return float(np.min(ratio))


@dataclass
class SpeedReport:
    """Frontier speed 1/s' against (alpha/2) times the one-sided slope."""

    median_rel_err: float              # over the points checked
    n_points: int


def speed_formula_check(profile: FreezingProfile, field: Field,
                        frontier: FrontierPath) -> SpeedReport:
    """Compare 1/s' with (alpha/2) times the temperature slope at the front.

    Runs over points labeled regular_vanishing whose slope exceeds the floor.
    The temperature slope is one-sided from the liquid side, via a quadratic
    through the frontier (where u = 0, read from frontier at the field's
    first sample at or after s) and the first two liquid cells.  A point
    past the last sample, or without two increasing nodes past the
    frontier, is skipped; so is one whose slope is not finite.
    """
    sp = profile.s_prime
    pick = ((np.asarray(profile.labels, dtype=str) == "regular_vanishing")
            & np.isfinite(sp) & (sp > S_PRIME_FLOOR))
    sp = sp[pick]
    row = np.searchsorted(field.t, profile.s[pick], side="left")
    kept = row < len(field.t)
    sp, row = sp[kept], row[kept]
    lam = frontier.value_at(field.t[row])
    i0 = np.searchsorted(field.x, lam + 1e-12, side="right")
    # the quadratic needs two nodes past the frontier
    kept = i0 + 1 < len(field.x)
    sp, row, lam, i0 = sp[kept], row[kept], lam[kept], i0[kept]
    d1 = field.x[i0] - lam
    d2 = field.x[i0 + 1] - lam
    kept = (d1 > 0) & (d2 > d1)
    sp, row, i0, d1, d2 = sp[kept], row[kept], i0[kept], d1[kept], d2[kept]
    u1 = field.values[row, i0]
    u2 = field.values[row, i0 + 1]
    slope = (u1 * d2 ** 2 - u2 * d1 ** 2) / (d1 * d2 * (d2 - d1))
    kept = np.isfinite(slope)
    preds = 1.0 / sp[kept]
    meas = 0.5 * profile.alpha * slope[kept]
    rel = np.abs(preds - meas) / np.where(preds != 0, preds, 1.0)
    med = float(np.median(rel)) if len(rel) else np.nan
    return SpeedReport(median_rel_err=med, n_points=len(rel))
