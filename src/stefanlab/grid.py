"""Deterministic finite-volume solver for the supercooled Stefan frontier.

The temperature lives on cell averages u_i over cells [i*dx, (i+1)*dx) of
[0, x_max]; the frontier sits on cell faces.  Each step is an implicit Euler
solve of u_t = u_xx / 2 on the alive cells (temperature pinned to zero at the
frontier face, no flux through the right wall), followed by a frontier
advance driven by exact mass balance,

    lam = alpha * (1 - dx * sum(u)),

rather than by the boundary-gradient law; the two agree in the limit and the
balance form keeps |lam/alpha + mass - 1| at rounding level by construction.
After the smooth advance the jump rule is solved against the discrete
temperature CDF, which is linear between cell faces, so the faces are the
knots and genuine frontier discontinuities are resolved exactly within the
same step.  A jump can only start where the temperature just ahead of the
frontier reaches 1/alpha, so the jump rule is solved only on steps where the
frontier cell does; elsewhere its no-jump answer is read off the first face.
The stopped-mass weight nu is recorded the moment a cell freezes: 1/alpha
for cells frozen by the smooth advance, the pre-jump temperature for cells
swallowed by a jump.  The frontier face only moves forward, so each cell's
weight is set once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from stefanlab.errors import ConfigError, NumericalAbort, TruncationError
from stefanlab.fields import Field, FrontierPath, JumpRecord, WeightField
from stefanlab.jump_rule import JumpResult, continuum_jump, density_knots, tie_guard

# Ceiling on the mass allowed in the cell adjacent to the right wall;
# beyond it the truncated domain no longer represents the half-line problem.
WALL_GUARD = 1e-6


@dataclass
class GridState:
    """Finite-volume state: cell averages, frontier face, recorded weights.

    factors caches the LU factors of diffuse_step's matrix, keyed by the
    alive-cell count and r = dt / (2 dx^2) it was built for; the matrix
    depends on nothing else, so a step refactors only when either changes.
    """

    u: np.ndarray            # cell-average temperatures
    j: int                   # frontier face index: cells < j are frozen
    lam: float               # exact mass-balance frontier position
    t: float
    alpha: float
    dx: float
    nu: np.ndarray = field(default=None)
    factors: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nu is None:
            self.nu = np.zeros_like(self.u)

    @property
    def mass(self) -> float:
        return float(self.u[self.j:].sum() * self.dx)

    def wall_cell_mass(self) -> float:
        return float(self.u[-1] * self.dx)


def _diagonals(m: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the implicit step on m alive cells.

    (1 + 2r) on the diagonal, -r off it; the frontier row gets +r from the
    reflected ghost (-u_j), the wall row -r (ghost u_{n-1}).  A single
    surviving cell carries both corrections.
    """
    diag = np.full(m, 1.0 + 2.0 * r)
    diag[0] += r
    diag[-1] -= r
    return diag, np.full(m - 1, -r)


def diffuse_step(state: GridState, dt: float) -> GridState:
    """Implicit Euler step of u_t = u_xx / 2 on the alive cells.

    Dirichlet u = 0 at the frontier face (ghost cell -u_j), homogeneous
    Neumann at the right wall (ghost cell u_{n-1}).  Unconditionally stable
    and positivity-preserving; mass leaves only through the frontier face.
    The matrix is factored only when the alive-cell count or dt changes
    (state.factors); each step is then one in-place gttrs solve.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    n = len(state.u)
    a = state.j
    m = n - a
    if m <= 0:
        state.t += dt
        return state
    r = 0.5 * dt / state.dx ** 2
    b = state.u[a:]
    if m == 1:
        b /= _diagonals(1, r)[0]
        x, info = b, 0
    elif m == 2:
        # scipy's gttrf wrapper rejects two cells (its du2 would be empty),
        # so they are solved by gtsv, which factors and solves in one call
        diag, off = _diagonals(m, r)
        *_, x, info = dgtsv(off, diag, off.copy(), b, 1, 1, 1, 1)
    else:
        # strictly diagonally dominant, so gttrf eliminates without pivoting
        # and gttrs repeats gtsv's arithmetic: the cached factors give the
        # same bits as factoring afresh every step
        if state.factors is None or state.factors[:2] != (m, r):
            diag, off = _diagonals(m, r)
            *lu, info = dgttrf(off, diag, off.copy(), 1, 1, 1)
            if info != 0:
                raise NumericalAbort(f"tridiagonal factorization failed (LAPACK info {info})")
            state.factors = (m, r, *lu)
        x, info = dgttrs(*state.factors[2:], b, overwrite_b=1)
    if info != 0:
        raise NumericalAbort(f"tridiagonal solve failed (LAPACK info {info})")
    if x is not b:
        b[:] = x                # a strided u is solved in a copy
    state.t += dt
    return state


def _cell_cdf_jump(state: GridState) -> JumpResult:
    """continuum_jump from the frontier face against the cell CDF.

    For cell-constant u the swept-mass CDF is linear between faces, so the
    faces are the knots and the solve is exact.  They run alpha + 2 dx ahead,
    past any jump (x/alpha outgrows the remaining mass there), or to the wall.

    A jump can only start where the frontier cell reaches 1/alpha.  Below
    that, the shortfall at the first face, dx/alpha - u[j]*dx in the very
    floats continuum_jump computes there, already exceeds the tie guard, and
    the solve would return delta = 0; so that result is returned directly.
    No NonMonotoneCDFError is lost with it: that needs the cell CDF to fall
    by more than 1e-12, and the diagonally dominant implicit step (no
    pivoting, only nonnegative terms added and divided) never turns
    nonnegative temperatures negative.
    """
    a, dx = state.j, state.dx
    x_face = a * dx
    swept = state.u[a] * dx
    if dx / state.alpha - swept > tie_guard(swept, x_face, dx, state.alpha):
        return JumpResult(0.0, x_face, 0.0)
    k = min(int((state.alpha + 2 * dx) / dx + 1e-9), len(state.u) - a)
    faces = dx * np.arange(k + 1)
    cum = np.concatenate(([0.0], np.cumsum(state.u[a:a + k]) * dx))
    return continuum_jump(lambda x: np.interp(x, x_face + faces, cum),
                          x_face, state.alpha, faces[1:])


def _freeze_cells(state: GridState, j_new: int, weights: np.ndarray | None) -> float:
    """Freeze cells [state.j, j_new); returns the mass removed.

    weights = None records the smooth-advance weight 1/alpha; otherwise the
    given per-cell values (the pre-jump temperatures).  The cells lie at or
    past the face, which never moves back, so none was recorded before.
    """
    j_old = state.j
    if j_new <= j_old:
        return 0.0
    removed = float(np.sum(state.u[j_old:j_new]) * state.dx)
    state.nu[j_old:j_new] = 1.0 / state.alpha if weights is None else weights
    state.u[j_old:j_new] = 0.0
    state.j = j_new
    return removed


def advance_front(state: GridState, jump_threshold: float = 0.0) -> list[JumpRecord]:
    """Move the frontier by mass balance, then resolve any jump.

    The smooth advance iterates lam = alpha * (1 - mass) against the freezing
    of swallowed cells until the face index is stable, mirroring the particle
    cascade.  Then the jump rule is solved exactly against the discrete
    temperature CDF, with the cell faces as knots.  Jump records beyond
    jump_threshold are returned.  alpha = 0 leaves the frontier at 0.
    """
    if state.alpha == 0.0:
        state.lam = 0.0
        return []
    records: list[JumpRecord] = []
    n = len(state.u)
    for _ in range(n + 2):
        moved = False
        # smooth advance: freeze cells the balance frontier has swept past
        lam = state.alpha * (1.0 - state.mass)
        j_target = int(round(lam / state.dx))
        if j_target > state.j:
            _freeze_cells(state, min(j_target, n), None)
            lam = state.alpha * (1.0 - state.mass)
            moved = True
        if state.j >= n:
            break               # nothing left to jump over; raised below
        x_face = state.j * state.dx
        res = _cell_cdf_jump(state)
        if res.delta > 0 and res.absorbed_mass > 0:
            j_jump = min(int(round((x_face + res.delta) / state.dx)), n)
            if j_jump > state.j:
                lam_minus = lam
                pre_vals = state.u[state.j:j_jump].copy()
                boundary_val = float(pre_vals[0])
                removed = _freeze_cells(state, j_jump, pre_vals)
                lam = state.alpha * (1.0 - state.mass)
                if lam - lam_minus > jump_threshold:
                    records.append(JumpRecord(state.t, lam_minus, lam, mass=removed,
                                              pre_jump_boundary_value=boundary_val))
                moved = True
        if not moved:
            break
    # every path through the loop leaves lam computed from the current cells
    state.lam = lam
    if state.j >= n:
        raise TruncationError("frontier reached the right wall; enlarge x_max")
    return records


def run_grid(d, alpha: float, t_end: float, dt: float, dx: float, x_max: float,
             sample_every: int = 1, jump_threshold: float = 0.0,
             stop_mass: float | None = None,
             ) -> tuple[FrontierPath, Field, WeightField]:
    """Full grid simulation from a Density.

    The t=0 jump is solved exactly against the density CDF, with its breaks
    as knots, before any diffusion; afterwards each step is diffuse_step
    followed by advance_front.  The run aborts with TruncationError when the
    mass in the wall cell reaches WALL_GUARD (the truncated domain stopped
    being a faithful picture of the half-line).  stop_mass ends the run early
    once the surviving mass drops below it.  Returns the frontier path, the sampled
    temperature field, and the recorded stopped-mass weight.
    """
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    if t_end <= 0 or dt <= 0 or dx <= 0:
        raise ConfigError("t_end, dt, dx must be positive")
    if x_max < alpha + d.support_max:
        raise ConfigError(f"x_max must cover alpha + support = {alpha + d.support_max}")
    if sample_every < 1:
        raise ConfigError("sample_every must be >= 1")

    n = int(round(x_max / dx))
    if abs(n * dx - x_max) > 1e-9 * max(1.0, x_max):
        raise ConfigError("x_max must be an integer multiple of dx")
    edges = np.arange(n + 1) * dx
    x = 0.5 * (edges[:-1] + edges[1:])
    u = d.cell_averages(edges)
    state = GridState(u=u, j=0, lam=0.0, t=0.0, alpha=alpha, dx=dx)

    jumps: list[JumpRecord] = []
    if alpha > 0:
        res0 = continuum_jump(d.cdf, 0.0, alpha, density_knots(d, 0.0, alpha))
        if res0.delta > 0:
            j0 = min(int(round(res0.delta / dx)), n)
            pre_vals = state.u[0:j0].copy()
            removed = _freeze_cells(state, j0, pre_vals)
            state.lam = alpha * (1.0 - state.mass)
            if state.lam > jump_threshold:
                # steps are right-continuous: the value on the first piece
                jumps.append(JumpRecord(0.0, 0.0, state.lam, mass=removed,
                                        pre_jump_boundary_value=float(d.value_at(0.0))))
    # settle any residual smooth advance from discretization of the jump
    jumps.extend(advance_front(state, jump_threshold=jump_threshold))

    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ConfigError("t_end shorter than one step")
    # t = 0, every sample_every-th step and the last step; an early stop
    # replaces a later sample, so the rows never outnumber this.  A run that
    # may stop early starts small and doubles, as its horizon is only a cap.
    n_rows = 1 + n_steps // sample_every + (n_steps % sample_every != 0)
    rows = np.empty((n_rows if stop_mass is None else min(n_rows, 256), n))
    times: list[float] = []
    lams: list[float] = []
    fidx: list[int] = []

    def sample() -> None:
        nonlocal rows
        if len(times) == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        rows[len(times)] = state.u
        times.append(state.t)
        lams.append(state.lam)
        fidx.append(state.j)

    sample()
    for k in range(1, n_steps + 1):
        diffuse_step(state, dt)
        jumps.extend(advance_front(state, jump_threshold=jump_threshold))
        if state.wall_cell_mass() >= WALL_GUARD:
            raise TruncationError(
                f"mass {state.wall_cell_mass():.3e} in the wall cell at t={state.t:.4f} "
                f"exceeds the guard {WALL_GUARD:.1e}; enlarge x_max")
        stop = stop_mass is not None and state.mass < stop_mass
        if k % sample_every == 0 or k == n_steps or stop:
            sample()
        if stop:
            break

    path = FrontierPath(times=np.array(times), lam=np.array(lams), alpha=alpha,
                        jumps=jumps)
    fld = Field(x=x, t=np.array(times), values=rows[:len(times)],
                frontier_index=np.array(fidx), lam=np.array(lams), alpha=alpha)
    weights = WeightField(x=x, nu=state.nu, alpha=alpha,
                          recorded=np.arange(n) < state.j)
    return path, fld, weights
