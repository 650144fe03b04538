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
    to 0.1/alpha; at alpha = 0 no point freezes and the default is 0.
    """
    alpha = profile.alpha
    if eps_u is None:
        eps_u = 0.1 / alpha if alpha > 0 else 0.0
    dx = field.dx
    if endpoint_band is None:
        endpoint_band = 2.0 * dx
    x, s = profile.x, profile.s
    labels = list(profile.labels)
    bv = profile.boundary_value.copy()

    for i in range(len(x)):
        if not np.isfinite(s[i]):
            labels[i] = "unresolved"
            continue
        xi = x[i]
        in_jump = False
        at_end = False
        for rec in jumps:
            if rec.lambda_minus + endpoint_band < xi < rec.lambda_plus - endpoint_band:
                in_jump = True
                break
            if (abs(xi - rec.lambda_minus) <= endpoint_band
                    or abs(xi - rec.lambda_plus) <= endpoint_band):
                at_end = True
        if in_jump:
            labels[i] = "regular_in_jump"
            bv[i] = _pre_freeze_value(field, xi, s[i])
            continue
        if at_end:
            # endpoint status overrides any temperature estimate
            labels[i] = "singular_endpoint"
            bv[i] = _pre_freeze_value(field, xi, s[i])
            continue
        val = _pre_freeze_value(field, xi, s[i])
        bv[i] = val
        if not np.isfinite(val):
            labels[i] = "unresolved"
        elif val < eps_u:
            labels[i] = "regular_vanishing"
        elif abs(val - 1.0 / alpha) < eps_u:
            labels[i] = "singular_critical"
        else:
            labels[i] = "unresolved"

    return FreezingProfile(x=x, s=s, s_prime=profile.s_prime, labels=labels,
                           boundary_value=bv, alpha=alpha)


def _pre_freeze_value(field: Field, xi: float, si: float) -> float:
    """Temperature at (xi, si-) by linear-in-time extrapolation from below."""
    col = _nearest(field.x, xi)
    k_end = int(np.searchsorted(field.t, si, side="left"))  # rows strictly before si
    k_lo = max(0, k_end - N_EXTRAP)
    if k_end - k_lo < 1:
        return np.nan
    rows = np.arange(k_lo, k_end)
    tv = field.t[rows]
    uv = field.values[rows, col]
    if len(rows) == 1:
        return float(uv[0])
    a, b = np.polyfit(tv, uv, 1)
    return float(a * si + b)


def _nearest(x: np.ndarray, xi: float) -> int:
    """argmin(|x - xi|) on ascending x, found by bisection.

    Float subtraction is monotone, so |x - xi| falls up to the nodes around
    xi and rises after them, and the nearer of the two is the minimum; of
    two equal distances argmin takes the lower index.  Where the node below
    the choice is as near (distances that rounding makes equal, or a NaN),
    the first of the equal run is argmin's own answer.
    """
    i = int(np.searchsorted(x, xi))
    col = min(i, len(x) - 1)
    if 0 < i < len(x) and abs(x[i - 1] - xi) <= abs(x[i] - xi):
        col = i - 1
    if col > 0 and not abs(x[col - 1] - xi) > abs(x[col] - xi):
        return int(np.argmin(np.abs(x - xi)))
    return col


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

    def to_dict(self) -> dict:
        return {"median_rel_err": self.median_rel_err, "n_points": self.n_points}


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
