"""Closed-form fields used as oracles for the analysis modules.

Each constructor returns the same container types the solvers produce, so the
analysis code cannot tell an oracle from a simulation.  All of them satisfy
their defining relations exactly at the sample points (up to rounding), which
pins the analysis modules' discretization error in isolation.
"""
from __future__ import annotations

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath


def traveling_wave_field(alpha: float, speed: float, x_max: float, t_end: float,
                         dx: float, dt: float) -> tuple[FrontierPath, Field]:
    """Planar front moving at constant speed with its stationary-shape profile.

    u(x, t) = (1/alpha) * (1 - exp(-2*speed*(x - speed*t))) ahead of the front
    at x = speed*t, zero behind it.  Solves the half-heat equation with the
    frontier condition exactly; the one-sided slope at the front is
    2*speed/alpha, so the front speed satisfies speed = (alpha/2) * slope.
    """
    if alpha <= 0 or speed <= 0 or dx <= 0 or dt <= 0:
        raise ConfigError("alpha, speed, dx, dt must be positive")
    x = (np.arange(int(round(x_max / dx))) + 0.5) * dx
    t = np.arange(0.0, t_end + dt / 2, dt)
    lam = speed * t
    xi = x[None, :] - lam[:, None]
    u = np.where(xi > 0, (1.0 - np.exp(-2.0 * speed * np.clip(xi, 0, None))) / alpha, 0.0)
    path = FrontierPath(times=t, lam=lam, alpha=alpha, jumps=[],
                        n_total=0, dead_count=np.zeros(len(t), dtype=np.int64))
    return path, Field(x=x, t=t, values=u, alpha=alpha)


def caloric_polynomial_field(x_max: float, t_end: float, dx: float, dt: float) -> Field:
    """u = x**2 + t, an exact solution of u_t = u_xx / 2.

    u_t = 1 and u_xx = 2 identically, so the forward time quotient equals 1
    at every node with no error.  Positive everywhere, no frontier.
    """
    x = (np.arange(int(round(x_max / dx))) + 0.5) * dx
    t = np.arange(0.0, t_end + dt / 2, dt)
    u = x[None, :] ** 2 + t[:, None]
    return Field(x=x, t=t, values=u, alpha=1.0)


def vanishing_profile_potential(alpha: float, x0: float, x_max: float, t_end: float,
                                dx: float, dt: float):
    """Stationary potential (1/alpha) * ((x - x0)+)^2.

    The quadratic space profile of a frontier point where the temperature
    vanishes continuously.  Invariant under the parabolic rescaling
    r^-2 * w(x0 + r*xi, t0 + r^2*tau), for any t0.
    """
    from stefanlab.potential import PotentialField
    x = (np.arange(int(round(x_max / dx))) + 0.5) * dx
    t = np.arange(0.0, t_end + dt / 2, dt)
    w = np.tile(np.clip(x - x0, 0, None)[None, :] ** 2 / alpha, (len(t), 1))
    return PotentialField(x=x, t=t, w=w, tail_bound=np.zeros(len(x)), alpha=alpha)


def critical_profile_potential(alpha: float, t0: float, x_max: float, t_end: float,
                               dx: float, dt: float):
    """Space-flat potential (1/alpha) * (t0 - t)+.

    The linear-in-time profile of a frontier point where the temperature
    drops from the critical level 1/alpha.  Also rescaling-invariant.
    """
    from stefanlab.potential import PotentialField
    x = (np.arange(int(round(x_max / dx))) + 0.5) * dx
    t = np.arange(0.0, t_end + dt / 2, dt)
    w = np.tile(np.clip(t0 - t, 0, None)[:, None] / alpha, (1, len(x)))
    return PotentialField(x=x, t=t, w=w, tail_bound=np.zeros(len(x)), alpha=alpha)


def smooth_frontier_path(times: np.ndarray, lam: np.ndarray, alpha: float) -> FrontierPath:
    """Wrap an arbitrary sampled curve as a FrontierPath (for detector tests)."""
    times = np.asarray(times, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return FrontierPath(times=times, lam=lam, alpha=alpha, jumps=[], n_total=0,
                        dead_count=np.zeros(len(times), dtype=np.int64))
