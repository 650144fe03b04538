"""Time-tail potential of the temperature and its obstacle-problem structure.

The potential w(x, t) integrates the temperature over (t, t_end].  Where the
liquid has fully frozen inside the horizon the truncation is exact and w obeys
a weighted obstacle problem: w >= 0, w nonincreasing in t, and
w_t - w_xx/2 = -nu on {w > 0} with the stopped-mass weight nu.  Columns still
liquid at t_end carry an unknown tail, which every consumer here must either
avoid or flag.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, WeightField

# Rows per block of compute_w, whose increments are summed while in cache.
W_ROWS = 32
# Rows per block of row_blocks, the walk over a held lattice, so that each
# walk holds block-sized masks and temporaries instead of lattice-sized
# ones.  No result depends on it.
SCAN_ROWS = 128
# A column whose final temperature is at most this is frozen at the horizon;
# obstacle_residual admits a column only where its stencil's three are.
FROZEN_TAIL = 1e-12


def default_eps_w(dx: float, alpha: float) -> float:
    """Positivity floor for w: below this, sign information is noise.

    Set by the quadratic vanishing of w at a continuously-freezing frontier
    point, where w ~ (distance)^2 / alpha: one cell of distance gives
    dx^2/alpha, kept with a factor-10 safety margin.  alpha = 0 releases no
    heat and sets no such scale, so there the floor must be given.
    """
    if alpha <= 0:
        raise ConfigError("the default eps_w needs alpha > 0; pass eps_w")
    return 10.0 * dx * dx / alpha


@dataclass
class PotentialField:
    """Sampled w on the field's space-time lattice.

    tail_bound holds, per column, the temperature at the final sample: zero
    exactly where the column froze inside the horizon, positive where a
    truncated time tail was discarded (no extrapolated tail is ever added in).
    """

    x: np.ndarray
    t: np.ndarray
    w: np.ndarray                     # shape (nt, nx)
    tail_bound: np.ndarray            # shape (nx,)
    alpha: float

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0]) if len(self.x) > 1 else 0.0

    @property
    def dt_median(self) -> float:
        return float(np.median(np.diff(self.t))) if len(self.t) > 1 else 0.0

    def eps_w(self) -> float:
        return default_eps_w(self.dx, self.alpha)

    def freeze_time(self, cols: slice = slice(None)) -> np.ndarray:
        """Per column of cols, the first sample time at which w has reached zero.

        +inf for columns positive through the horizon.  w is nonincreasing
        in t and frozen cells hold exact zeros, so on solver output this is
        the freeze time s(x); a floor eps would put it far too early on a
        slowly creeping frontier.
        """
        w = self.w[:, cols]
        first = np.full(w.shape[1], len(w))
        for lo, rows in row_blocks(w):
            scan_first_zero(first, lo, rows)
        return np.append(self.t, np.inf)[first]

    def front(self) -> np.ndarray:
        """Per row, the x of the first column with w > 0 (+inf if none).

        Frozen cells hold exact zeros, so w > 0 marks the true interface; a
        floor eps would misplace it by the sub-threshold band, which is
        still liquid.  Every row is scanned only up to the first column
        with a positive tail_bound, where a nonnegative temperature keeps w
        positive on all rows but the last; a row with no positive w there
        reads the rest of its row.  The answer is exact for any w.
        """
        warm = np.flatnonzero(self.tail_bound > 0)
        c = int(warm[0]) + 1 if len(warm) else self.w.shape[1]
        out = _first_positive(self.w[:, :c], self.x[:c])
        rest = np.flatnonzero(out == np.inf)
        if len(rest) and c < self.w.shape[1]:
            out[rest] = _first_positive(self.w[rest, c:], self.x[c:])
        return out


def row_blocks(a: np.ndarray):
    """a's rows as (lo, a[lo:lo + SCAN_ROWS]) blocks, top down: the (lo,
    rows) protocol of w_rows, for an array already held."""
    return ((lo, a[lo:lo + SCAN_ROWS]) for lo in range(0, len(a), SCAN_ROWS))


# The two scans of w take its (lo, rows) blocks, each row once, in any order.

def scan_first_zero(first: np.ndarray, lo: int, rows: np.ndarray) -> None:
    """Per column, the least row with w <= 0 (len(w) if none) into first:
    a column whose row so far lies before lo keeps it, any other takes
    the block's first, so the order of the blocks changes no bit."""
    zero = rows <= 0
    new = (first > lo) & zero.any(axis=0)
    first[new] = lo + np.argmax(zero[:, new], axis=0)


def scan_first_positive(out: np.ndarray, lo: int, rows: np.ndarray,
                        x: np.ndarray) -> None:
    """Per row, the x of the first w > 0 (+inf if none) into out."""
    liquid = rows > 0
    first = np.argmax(liquid, axis=1)
    out[lo:lo + len(rows)] = np.where(
        liquid[np.arange(len(rows)), first], x[first], np.inf)


def _first_positive(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row of w, the x of its first positive entry (+inf if none)."""
    out = np.empty(len(w))
    for lo, rows in row_blocks(w):
        scan_first_positive(out, lo, rows, x)
    return out


def compute_w(field: Field) -> PotentialField:
    """Integrate the temperature tail by trapezoid from each sample to the end.

    The tail beyond the final sample is dropped, not modeled; the final
    temperature is reported per column as tail_bound (the surviving mass is
    field.mass_at(-1)).  w is the whole lattice's, copied block by block
    from w_rows, so the lattice is swept once.
    """
    t, u = _lattice(field)
    w = np.empty_like(u)
    for lo, rows in w_rows(field):
        w[lo:lo + len(rows)] = rows
    tail = u[-1].copy()
    return PotentialField(x=field.x.copy(), t=t.copy(), w=w, tail_bound=tail,
                          alpha=field.alpha)


def _lattice(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """field's sample times and values as float arrays, checked to match."""
    t = np.asarray(field.t, dtype=float)
    u = np.asarray(field.values, dtype=float)
    if u.ndim != 2 or u.shape[0] != len(t):
        raise ConfigError("field values must be (len(t), len(x))")
    return t, u


def w_rows(field: Field):
    """The potential w of field, from the last row up, as (lo, rows) blocks.

    rows holds w's rows lo, lo + 1, ... .  The first block is the last row,
    all zeros; each later one holds W_ROWS rows or fewer, its increments
    summed while in cache.  Each lives in one of two buffers of W_ROWS rows
    and is overwritten two blocks later, so a consumer that reads the
    blocks as they come (compute_w, the w.npy writer, analyze's
    reconstruction gap, verify's potential invariants) holds no whole w
    unless it keeps one.
    """
    t, u = _lattice(field)
    nt, nx = u.shape
    bufs = np.empty((2, min(W_ROWS, nt), nx))
    last = bufs[1, :1]
    last[...] = 0.0
    yield nt - 1, last
    dt_steps = np.diff(t)
    # reverse cumulative trapezoid: w[k] = sum_{j>=k} (u[j] + u[j+1])/2 * dt_j,
    # one contiguous row at a time, w[k] = inc[k] + w[k+1].  The last
    # increment row is w[-2] as it stands, never added to the zero row,
    # which would turn a -0.0 into +0.0
    below = None
    for i, hi in enumerate(range(nt - 1, 0, -W_ROWS)):
        lo = max(hi - W_ROWS, 0)
        inc = bufs[i % 2][:hi - lo]
        np.add(u[lo:hi], u[lo + 1:hi + 1], out=inc)
        inc *= 0.5
        inc *= dt_steps[lo:hi, None]
        for row in inc[::-1]:
            if below is not None:
                np.add(row, below, out=row)
            below = row
        yield lo, inc


def residual_window(field: Field) -> int:
    """How many leading columns of field obstacle_residual's report reads.

    Read off the final sample (compute_w's tail_bound): C = max(last
    admitted column + 2, first column with a positive tail + 1), which
    holds the region and its stencil, freeze_time(span) and the scan of
    PotentialField.front.  compute_w works column by column, so its w on
    these columns is the whole w's, bit for bit.  count_w_negative reads
    every column, but counts nothing past C where the values there are
    nonnegative (no NaN) and the times strictly increase: w there sums
    nonnegative trapezoid increments.  Where that fails, or C < 3, this
    returns the cell count: the whole lattice.

    Two conditions are left to the caller: eps_w >= 0, and a positive w
    inside the window on every row but the last (all zeros), without
    which front() would read past it.
    """
    u = field.values
    nx = u.shape[1]
    if len(u) == 0:
        return nx
    dead = u[-1] <= FROZEN_TAIL
    # column admitted[k] + 1 is admitted, as in obstacle_residual's col_ok
    admitted = np.flatnonzero(dead[:-2] & dead[1:-1] & dead[2:])
    warm = np.flatnonzero(u[-1] > 0)
    c = max(int(admitted[-1]) + 3 if len(admitted) else 0,
            int(warm[0]) + 1 if len(warm) else 0)
    if c < 3 or c >= nx:
        return nx
    if not (u[:, c:].min() >= 0 and np.all(np.diff(field.t) > 0)):
        return nx
    return c


@dataclass
class ResidualReport:
    """Interior misfit of w against the weighted obstacle equation."""

    l1: float                          # integral of |residual| over the region
    linf: float
    n_nodes: int
    eps_w: float
    margin: float
    count_w_negative: int              # w < -eps_w anywhere on the lattice
    count_w_t_positive: int            # centered w_t > eps_w in the region
    count_positive_after_freeze: int   # w > eps_w at nodes past their freeze
    complementarity_max: float = 0.0   # max |min(w, w_t - w_xx/2 + nu)|

    def to_dict(self) -> dict:
        return {
            "l1": self.l1, "linf": self.linf, "n_nodes": self.n_nodes,
            "eps_w": self.eps_w, "margin": self.margin,
            "count_w_negative": self.count_w_negative,
            "count_w_t_positive": self.count_w_t_positive,
            "count_positive_after_freeze": self.count_positive_after_freeze,
            "complementarity_max": self.complementarity_max,
        }


def obstacle_residual(w: PotentialField, nu: WeightField, interior_margin: float,
                      eps_w: float | None = None) -> ResidualReport:
    """Discrete residual w_t - w_xx/2 + nu * (w > eps_w) on a safe interior.

    The region keeps margin away from t = 0, t = t_end, each column's own
    freezing time, and the frontier in space.  It holds only columns whose
    three-point stencil is frozen at the final sample (tail_bound at most
    1e-12), where the obstacle problem holds: columns still liquid at t_end
    carry a missing time tail that would offset the residual by minus the
    final temperature.

    The freeze times, the stencil, the region masks and the after-freeze
    count are evaluated only on the span of columns from the first to the
    last admitted one, the last three in blocks of SCAN_ROWS interior
    rows, and the residuals are gathered into one buffer sized for the
    span's interior, of which only the filled prefix is ever touched.  The
    frontier row (PotentialField.front) reads each row up to the first
    column with a tail, and count_w_negative alone reads every column of w.
    So a w computed on the first residual_window(field) columns alone gives
    the same report, under the conditions that function states.
    """
    if interior_margin <= 0:
        raise ConfigError("interior_margin must be positive")
    eps = w.eps_w() if eps_w is None else eps_w
    t, x, W = w.t, w.x, w.w
    nt, nx = W.shape
    if len(nu.nu) != nx:
        raise ConfigError("weight grid does not match potential grid")
    if nt < 3 or nx < 3:
        raise ConfigError("potential too small for centered differences")
    dt_steps = np.diff(t)
    dx = w.dx

    t_hi = t[-1] - interior_margin

    col_ok = np.zeros(nx, dtype=bool)
    dead = w.tail_bound <= FROZEN_TAIL
    col_ok[1:-1] = dead[:-2] & dead[1:-1] & dead[2:]
    # region nodes lie in the columns from the first to the last col_ok one;
    # the arrays below cover only that span, in which the nodes keep their
    # row-major order
    ok = np.flatnonzero(col_ok)
    c0, c1 = (int(ok[0]), int(ok[-1]) + 1) if len(ok) else (1, 1)
    span = slice(c0, c1)
    lam_row = w.front()

    x_s, s_s, nu_s, ok_s = x[span], w.freeze_time(span), nu.nu[span], col_ok[span]

    # the stencil of w_t - w_xx/2 and the region masks are evaluated densely
    # on blocks of interior rows; the residuals at the region's nodes are
    # written block by block into vals[:n] in row-major order, the array a
    # gather over the whole region would give, so its sum is the same;
    # counts and maxima combine exactly
    vals = np.empty((nt - 2) * (c1 - c0))
    n = 0
    comp: list[float] = []
    count_wt_pos = count_pos_frozen = 0
    for lo, w_c in row_blocks(W[1:-1, span]):
        r0, r1 = lo + 1, lo + 1 + len(w_c)
        tt = t[r0:r1, None]
        chi = w_c > eps
        since_freeze = tt - s_s
        # nodes one full margin past their own freezing time must sit at zero
        count_pos_frozen += int(np.count_nonzero(
            chi & (since_freeze >= interior_margin) & ok_s))
        region = np.abs(since_freeze, out=since_freeze) >= interior_margin
        region &= (tt >= interior_margin) & (tt <= t_hi) & ok_s
        from_front = x_s - lam_row[r0:r1, None]
        region &= np.abs(from_front, out=from_front) >= interior_margin
        k = int(np.count_nonzero(region))
        if not k:
            continue
        w_t = ((W[r0 + 1:r1 + 1, span] - W[r0 - 1:r1 - 1, span])
               / (t[r0 + 1:r1 + 1] - t[r0 - 1:r1 - 1])[:, None])
        w_xx = (W[r0:r1, c0 - 1:c1 - 1] - 2.0 * w_c + W[r0:r1, c0 + 1:c1 + 1]) / dx ** 2
        op = w_t - 0.5 * w_xx
        vals[n:n + k] = np.abs(op + nu_s * chi)[region]
        n += k
        count_wt_pos += int(np.count_nonzero((w_t > eps) & region))
        # complementarity slack: on the liquid side the operator misfit
        # vanishes, on the frozen side w itself does, so the pointwise
        # minimum of the two must vanish throughout the region
        comp.append(np.max(np.abs(np.minimum(w_c, op + nu_s)), where=region,
                           initial=-np.inf))

    if n == 0:
        l1 = linf = comp_max = 0.0
    else:
        cell = dx * float(np.median(dt_steps))
        l1 = float(np.sum(vals[:n]) * cell)
        linf = float(np.max(vals[:n]))
        comp_max = float(np.max(comp))

    # one min pass, with no mask, settles the usual case; a NaN minimum
    # falls through to the count, which ignores NaN as before
    count_neg = 0 if W.min() >= -eps else int(np.count_nonzero(W < -eps))

    return ResidualReport(l1=l1, linf=linf, n_nodes=n, eps_w=eps,
                          margin=interior_margin, count_w_negative=count_neg,
                          count_w_t_positive=count_wt_pos,
                          count_positive_after_freeze=count_pos_frozen,
                          complementarity_max=comp_max)


def residual_l1_window(w: PotentialField, nu: WeightField,
                       window: tuple) -> tuple[float, int]:
    """Weighted L1 of the parabolic residual over a fixed space-time box.

    Unlike obstacle_residual, which carves its region out of each run's own
    frontier geometry, the box here is level independent, so the returned
    number is comparable across refinement levels. Callers pick a box that
    stays clear of the domain edges; nodes whose centered stencils fall off
    the array are dropped.
    """
    x_lo, x_hi, t_lo, t_hi = window
    if t_hi <= t_lo or x_hi <= x_lo:
        raise ConfigError("window must be a nonempty box")
    W, t, x, dx = w.w, w.t, w.x, w.dx
    if W.shape[0] < 3 or W.shape[1] < 3:
        raise ConfigError("potential field too small for the stencils")
    w_t = (W[2:] - W[:-2]) / (t[2:] - t[:-2])[:, None]
    w_xx = (W[1:-1, :-2] - 2.0 * W[1:-1, 1:-1] + W[1:-1, 2:]) / dx ** 2
    chi = W[1:-1, 1:-1] > w.eps_w()
    resid = w_t[:, 1:-1] - 0.5 * w_xx + nu.nu[None, 1:-1] * chi

    tt = t[1:-1, None]
    xx = x[None, 1:-1]
    box = (tt >= t_lo) & (tt <= t_hi) & (xx >= x_lo) & (xx <= x_hi)
    cell = dx * w.dt_median
    return float(np.sum(np.abs(resid[box])) * cell), int(np.sum(box))


@dataclass
class BoundReport:
    """One-sided difference-quotient extrema over a space-time window."""

    window: tuple                      # (x_lo, x_hi, t_lo, t_hi)
    pad: float
    max_w_t: float                     # should be <= 0 up to quadrature noise
    max_abs_w_xx: float
    max_u_t: float                     # forward quotient, liquid side only
    max_u_xx: float                    # centered, liquid side only (signed)
    min_u_x: float                     # centered, liquid side only
    near_front_max_abs_u_xx: float     # unsigned, inside the pad band
    n_liquid_nodes: int

    def to_dict(self) -> dict:
        return {
            "window": list(self.window), "pad": self.pad,
            "max_w_t": self.max_w_t, "max_abs_w_xx": self.max_abs_w_xx,
            "max_u_t": self.max_u_t, "max_u_xx": self.max_u_xx,
            "min_u_x": self.min_u_x,
            "near_front_max_abs_u_xx": self.near_front_max_abs_u_xx,
            "n_liquid_nodes": self.n_liquid_nodes,
        }


def bound_suite(field: Field, w: PotentialField | None, window: tuple,
                pad: float = 0.0) -> BoundReport:
    """Extrema of the discrete quotients that the theory bounds one-sidedly.

    u quantities are restricted to nodes whose whole stencil stays strictly
    liquid and at least pad above the frontier; the same stencil within the
    pad band feeds the unsigned curvature report, the negative control that
    is allowed to blow up at the frontier.
    """
    x_lo, x_hi, t_lo, t_hi = window
    if t_lo < 0 or t_hi <= t_lo or x_hi <= x_lo:
        raise ConfigError("window must be a nonempty box with t_lo >= 0")
    t, x, u = field.t, field.x, field.values
    nt, nx = u.shape
    if nt < 3 or nx < 3:
        raise ConfigError("field too small for the difference stencils")
    dx = field.dx
    lam = field.lam

    in_x = (x >= x_lo) & (x <= x_hi)
    in_t = (t >= t_lo) & (t <= t_hi)

    max_w_t = -np.inf
    max_abs_w_xx = 0.0
    if w is not None:
        wt = (w.w[2:] - w.w[:-2]) / (w.t[2:] - w.t[:-2])[:, None]
        wxx = (w.w[:, :-2] - 2.0 * w.w[:, 1:-1] + w.w[:, 2:]) / w.dx ** 2
        w_in_x = (w.x >= x_lo) & (w.x <= x_hi)
        box_t = wt[(w.t[1:-1] >= t_lo) & (w.t[1:-1] <= t_hi)][:, w_in_x]
        if box_t.size:
            max_w_t = float(np.max(box_t))
        box_xx = wxx[(w.t >= t_lo) & (w.t <= t_hi)][:, w_in_x[1:-1]]
        if box_xx.size:
            max_abs_w_xx = float(np.max(np.abs(box_xx)))

    # liquid-stencil masks
    dist = x[None, :] - lam[:, None]
    liquid = (u > 0) & (dist > 0)
    core = liquid & (dist >= pad)

    max_u_t = -np.inf
    max_u_xx = -np.inf
    min_u_x = np.inf
    near_max = 0.0
    n_nodes = 0

    rows = np.where(in_t)[0]
    rows = rows[(rows >= 1) & (rows < nt - 1)]
    cols = np.where(in_x)[0]
    cols = cols[(cols >= 1) & (cols < nx - 1)]
    if len(rows) and len(cols):
        r = rows[:, None]
        c = cols[None, :]
        stencil_core = core[r, c] & core[r, c - 1] & core[r, c + 1] & core[r + 1, c]
        stencil_near = (liquid[r, c] & liquid[r, c - 1] & liquid[r, c + 1]
                        & (dist[r, c] < pad))
        u_t = (u[r + 1, c] - u[r, c]) / (t[r + 1] - t[r])
        u_xx = (u[r, c - 1] - 2.0 * u[r, c] + u[r, c + 1]) / dx ** 2
        u_x = (u[r, c + 1] - u[r, c - 1]) / (2.0 * dx)
        n_nodes = int(np.sum(stencil_core))
        if n_nodes:
            max_u_t = float(np.max(u_t[stencil_core]))
            max_u_xx = float(np.max(u_xx[stencil_core]))
            min_u_x = float(np.min(u_x[stencil_core]))
        if np.any(stencil_near):
            near_max = float(np.max(np.abs(u_xx[stencil_near])))

    return BoundReport(window=(x_lo, x_hi, t_lo, t_hi), pad=pad,
                       max_w_t=max_w_t, max_abs_w_xx=max_abs_w_xx,
                       max_u_t=max_u_t, max_u_xx=max_u_xx, min_u_x=min_u_x,
                       near_front_max_abs_u_xx=near_max, n_liquid_nodes=n_nodes)
