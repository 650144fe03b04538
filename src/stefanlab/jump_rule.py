"""Physical jump rule for the freezing frontier, in continuum and particle form.

The frontier advances instantaneously by
    delta = inf{ x > 0 : CDF(lam + x) - CDF(lam) < x / alpha },
the smallest displacement at which the mass swept up no longer pays for the
advance.  continuum_jump solves this in closed form for a CDF that is linear
between given knots (an exact step-function density, or a grid solver's cell
CDF): the shortfall x/alpha - (CDF(lam + x) - CDF(lam)) is then linear on each
piece, so the infimum is a zero crossing on the first piece whose end shows a
shortfall.  cascade_jump computes the discrete analogue, the least fixed point
of the absorption cascade lam <- lam_start + alpha*(k0+k)/N.
verify_cascade_minimality replays the cascade by exhaustive search and is the
independent oracle the cascade is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stefanlab.errors import ConfigError, NonMonotoneCDFError

# The jump rule uses a strict inequality; ties at machine precision must not
# terminate a jump, so a shortfall counts only above this relative guard
# times the rounding scale of the swept mass (tie_guard).
TIE_GUARD = 1e-14


@dataclass(frozen=True)
class JumpResult:
    """Outcome of one jump resolution.

    delta is the frontier displacement (0 means no jump), absorbed_mass the
    mass swept up, n_absorbed the number of alive particles a cascade
    absorbs (the lowest n_absorbed of the sorted alive array; 0 for
    continuum jumps).
    """

    delta: float
    new_frontier: float
    absorbed_mass: float
    n_absorbed: int = 0


def density_knots(d, lambda_minus: float, alpha: float) -> np.ndarray:
    """Knots of a step-function density's CDF seen from the frontier.

    The displacements from lambda_minus to each break of d beyond it, then to
    alpha + support end, where the shortfall x/alpha - 1 is already positive,
    so the last knot always lies past the jump.
    """
    ahead = d.breaks[d.breaks > lambda_minus] - lambda_minus
    return np.append(ahead, alpha + d.support_max - lambda_minus)


def tie_guard(cdf, lambda_minus: float, x, alpha: float):
    """Least shortfall that counts at displacements x, where the CDF is cdf.

    On a piece where alpha * density is exactly critical the shortfall is
    zero but for the rounding of the swept mass: of the CDF values (the one
    at the frontier is no larger), and of the positions lambda_minus + x,
    which the density 1/alpha turns into mass (the same bound covers
    x / alpha).  A tie is judged on that scale, whatever the size of alpha.
    Scalars or arrays; built-in abs keeps the grid's per-step scalar call
    cheap.
    """
    return TIE_GUARD * (abs(cdf) + (abs(lambda_minus) + x) / alpha)


def continuum_jump(cdf_fn, lambda_minus: float, alpha: float, knots) -> JumpResult:
    """Resolve a frontier jump against a CDF linear between knots.

    knots are ascending positive displacements from lambda_minus; cdf_fn must
    be linear on (0, knots[0]] and between consecutive knots, and is called
    once, on the array lambda_minus + [0, *knots].  The first piece whose end
    shows a shortfall above tie_guard holds the jump: delta is the zero
    crossing of the shortfall on it, or its start when the shortfall is
    already nonnegative there (delta = 0 for a shortfall on the first
    piece).  Without such a piece the result carries delta = knots[-1],
    all the mass up to the last knot swept.  A decreasing CDF raises
    NonMonotoneCDFError.
    """
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    if alpha == 0.0:
        # Absorption releases no heat: the shortfall holds for every x > 0.
        return JumpResult(0.0, lambda_minus, 0.0)
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or len(knots) == 0:
        raise ConfigError("knots must be a nonempty one-dimensional array")
    xs = np.concatenate(([0.0], knots))
    if not np.all(np.diff(xs) > 0):
        raise ConfigError("knots must be ascending positive displacements")

    cdf = np.asarray(cdf_fn(lambda_minus + xs), dtype=float)
    drop = np.diff(cdf) < -1e-12
    if drop.any():
        x_bad = lambda_minus + xs[int(np.argmax(drop)) + 1]
        raise NonMonotoneCDFError(f"CDF decreased near x = {x_bad!r}")
    swept = cdf - cdf[0]
    shortfall = xs / alpha - swept
    over = shortfall > tie_guard(cdf, lambda_minus, xs, alpha)
    hit = int(np.argmax(over))
    if not over[hit]:
        return JumpResult(float(xs[-1]), lambda_minus + xs[-1], float(swept[-1]))

    # shortfall[0] = 0, so hit >= 1 and the piece is (xs[hit-1], xs[hit]]
    s_lo, s_hi = shortfall[hit - 1], shortfall[hit]
    frac = max(0.0, -s_lo) / (s_hi - s_lo)
    delta = float(xs[hit - 1] + frac * (xs[hit] - xs[hit - 1]))
    if delta <= TIE_GUARD * alpha:
        return JumpResult(0.0, lambda_minus, 0.0)
    absorbed = float(swept[hit - 1] + frac * (swept[hit] - swept[hit - 1]))
    return JumpResult(delta, lambda_minus + delta, absorbed)


def cascade_jump(alive_sorted: np.ndarray, lambda_start: float, k0: int, alpha: float,
                 n_total: int) -> JumpResult:
    """Least fixed point of the absorption cascade.

    k0 particles were just absorbed at lambda_start; the frontier moves by
    alpha/n_total per absorbed particle, possibly sweeping up more of
    alive_sorted (ascending positions, all strictly above lambda_start).
    The caller guarantees the ascending order, which is not re-checked: every
    caller passes an array it has just sorted, and a scan would cost O(n) a
    call.  k0 = 0 starts no cascade.  Ties absorb: position <= frontier counts.
    """
    alive_sorted = np.asarray(alive_sorted, dtype=float)
    if n_total < 1:
        raise ConfigError("n_total must be >= 1")
    if k0 < 0 or k0 != int(k0):
        raise ConfigError("k0 must be a nonnegative integer")
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    if alive_sorted.ndim != 1:
        raise ConfigError("alive_sorted must be one-dimensional")
    if len(alive_sorted) and alive_sorted[0] <= lambda_start:
        raise ConfigError("alive positions must lie strictly above lambda_start")

    if k0 == 0 or alpha == 0.0:
        new_lam = lambda_start + alpha * k0 / n_total
        return JumpResult(new_lam - lambda_start, new_lam, 0.0)

    m = 0
    while True:
        lam = lambda_start + alpha * (k0 + m) / n_total
        m_new = int(np.searchsorted(alive_sorted, lam, side="right"))
        if m_new == m:
            break
        m = m_new
    delta = alpha * (k0 + m) / n_total
    return JumpResult(delta, lambda_start + delta, m / n_total, m)


def verify_cascade_minimality(alive_sorted: np.ndarray, lambda_start: float, k0: int,
                              alpha: float, n_total: int, result: JumpResult) -> bool:
    """Check a cascade result against exhaustive least-fixed-point search.

    Walks every candidate absorption count m = 0..n_total, finds the smallest
    fixed point of m -> #{alive <= lambda_start + alpha*(k0+m)/n_total}, and
    compares count and displacement with the result.  Brute force on purpose:
    this is the oracle, it shares no shortcut with cascade_jump.
    """
    alive_sorted = np.asarray(alive_sorted, dtype=float)
    least = None
    for m in range(0, n_total + 1):
        lam = lambda_start + alpha * (k0 + m) / n_total
        count = int(np.sum(alive_sorted <= lam))
        if count == m:
            least = m
            break
    if least is None:
        return False
    if k0 == 0 or alpha == 0.0:
        # cascade_jump's convention: no increment, no cascade.
        expected_delta = alpha * k0 / n_total
        expected_count = 0
    else:
        expected_delta = alpha * (k0 + least) / n_total
        expected_count = least
    return result.n_absorbed == expected_count and abs(result.delta - expected_delta) < 1e-12
