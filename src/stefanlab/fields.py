"""Shared result containers: frontier paths, space-time fields, weights.

Both solvers return a FrontierPath and a Field first: run_grid its sampled
temperature, particle.run the histogram of its living positions at its
snapshot steps (None without snapshots).  So the analysis modules and the
cross-method comparison never care which method produced them.  The
frontier is kept once, in the FrontierPath; an analysis that needs it at a
field's rows reads frontier.value_at(field.t).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
import numpy as np


def kept_steps(n_steps: int, *every: int) -> int:
    """How many of the steps 0..n_steps a run keeps.

    A run keeps step 0, the last step and each multiple of a period in
    every; a zero period keeps none.  The multiples are counted by
    inclusion and exclusion over the lcm of each group of periods.
    """
    periods = [p for p in every if p]
    count = 1 + (n_steps > 0 and all(n_steps % p for p in periods))
    for size in range(1, len(periods) + 1):
        for group in itertools.combinations(periods, size):
            count -= (-1) ** size * (n_steps // math.lcm(*group))
    return count


@dataclass(frozen=True)
class JumpRecord:
    """One recorded frontier discontinuity."""

    t: float
    lambda_minus: float
    lambda_plus: float
    mass: float = 0.0
    # Temperature just above the pre-jump frontier, when the producer could
    # measure it (grid runs).  NaN when unavailable.
    pre_jump_boundary_value: float = float("nan")

    @property
    def delta(self) -> float:
        return self.lambda_plus - self.lambda_minus

    def to_dict(self) -> dict:
        out = {
            "t": self.t,
            "lambda_minus": self.lambda_minus,
            "lambda_plus": self.lambda_plus,
            "mass": self.mass,
        }
        if np.isfinite(self.pre_jump_boundary_value):
            out["pre_jump_boundary_value"] = self.pre_jump_boundary_value
        return out


@dataclass
class FrontierPath:
    """Sampled frontier trajectory t -> lambda plus the jump registry.

    For particle runs dead_count holds the absorbed-particle count behind each
    sample so the mass-balance identity can be checked in integer arithmetic.
    """

    times: np.ndarray
    lam: np.ndarray
    alpha: float
    jumps: list[JumpRecord] = field(default_factory=list)
    n_total: int | None = None
    dead_count: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.times.shape != self.lam.shape:
            raise ValueError("times and lam must have identical shapes")
        if self.dead_count is not None:
            self.dead_count = np.asarray(self.dead_count, dtype=np.int64)

    @property
    def lambda_0(self) -> float:
        return float(self.lam[0])

    @property
    def lambda_end(self) -> float:
        return float(self.lam[-1])

    def value_at(self, t: float | np.ndarray) -> np.ndarray:
        """Right-continuous piecewise-constant evaluation between samples."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right") - 1
        idx = np.clip(idx, 0, len(self.lam) - 1)
        return self.lam[idx]


@dataclass
class Field:
    """Space-time temperature samples u(x_i, t_k).

    values[k, i] is the temperature at node x[i], sample time t[k].  Nodes are
    cell centers with uniform spacing dx.
    """

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.t), len(self.x)):
            raise ValueError("values must be shaped (len(t), len(x))")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0]) if len(self.x) > 1 else 0.0

    def mass_at(self, k: int) -> float:
        return float(np.sum(self.values[k]) * self.dx)


@dataclass
class WeightField:
    """Stopped-mass weight nu on the frozen region.

    nu[i] is zero where nothing froze; recorded[i] marks cells whose weight
    was set during a run (once, when the cell froze).
    """

    x: np.ndarray
    nu: np.ndarray
    alpha: float
    recorded: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)
        self.recorded = np.asarray(self.recorded, dtype=bool)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0]) if len(self.x) > 1 else 0.0

    def integral(self) -> float:
        return float(np.sum(self.nu) * self.dx)
