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
    NaN wherever a centered difference would touch an infinite value.
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
        cand = [(lb, sv) for lb, sv in zip(self.labels, self.s)
                if np.isfinite(sv) and lb not in ("regular_in_jump", "singular_endpoint")]
        if not cand:
            return 0.0
        return sum(1 for lb, _ in cand if lb == "unresolved") / len(cand)


def freezing_time(frontier: FrontierPath, x_grid) -> FreezingProfile:
    """Left inverse of the frontier path on sampled data.

    s(x) = first sample time with frontier strictly above x; +inf if that
    never happens within the horizon.  Slopes by centered differences over
    finite neighbors, one-sided at the ends of the finite range.
    """
    x = np.asarray(x_grid, dtype=float)
    lam = frontier.lam
    times = frontier.times
    idx = np.searchsorted(lam, x, side="right")
    s = np.where(idx < len(times), times[np.minimum(idx, len(times) - 1)], np.inf)

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
    return FreezingProfile(x=x, s=s, s_prime=sp, labels=["unresolved"] * n,
                           boundary_value=np.full(n, np.nan), alpha=frontier.alpha)


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
                           window: tuple, r: float = 0.5,
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
    first sample at or after s) and the first two liquid cells.
    """
    alpha = profile.alpha
    preds, meas = [], []
    for i in range(len(profile.x)):
        if profile.labels[i] != "regular_vanishing":
            continue
        sp = profile.s_prime[i]
        if not np.isfinite(sp) or sp <= S_PRIME_FLOOR:
            continue
        si = profile.s[i]
        row = int(np.searchsorted(field.t, si, side="left"))
        if row >= len(field.t):
            continue
        slope = _one_sided_slope(field, row, frontier.value_at(field.t[row]))
        if not np.isfinite(slope):
            continue
        preds.append(1.0 / sp)
        meas.append(0.5 * alpha * slope)
    preds = np.asarray(preds)
    meas = np.asarray(meas)
    rel = np.abs(preds - meas) / np.where(preds != 0, preds, 1.0)
    med = float(np.median(rel)) if len(rel) else np.nan
    return SpeedReport(median_rel_err=med, n_points=len(rel))


def _one_sided_slope(field: Field, row: int, lam_row: float) -> float:
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
