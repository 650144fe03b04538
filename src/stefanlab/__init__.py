"""Numerical laboratory for the one-phase supercooled Stefan problem.

Two independent solvers (an interacting-particle system and an implicit
finite-volume scheme) track the freezing frontier of a supercooled liquid,
including its jump discontinuities.  Analysis modules recover the stopped-mass
weight, the integrated-temperature obstacle problem, the freezing-time
profile, and the classification of points on the free boundary.
"""

from stefanlab.densities import Density, oscillatory_density, piecewise_constant, power_gap_density
from stefanlab.jump_rule import (JumpResult, cascade_jump, continuum_jump, density_knots,
                                 verify_cascade_minimality)
from stefanlab.particle import Ensemble, init_ensemble, run, step
from stefanlab.grid import GridState, run_grid
from stefanlab.fields import Field, FrontierPath, JumpRecord, WeightField
from stefanlab.potential import PotentialField, ResidualReport, bound_suite, compute_w, obstacle_residual
from stefanlab.boundary import (FreezingProfile, SpeedReport, classify_points, detect_jumps,
                                freezing_time, nondegeneracy_constant, oscillation_count,
                                speed_formula_check)
from stefanlab.harness import (ScenarioConfig, ScenarioResult, apply_overrides, build_density,
                               compare_methods, run_scenario, scenario_from_dict,
                               scenario_from_json, verify_suite)
from stefanlab.errors import ConfigError, NumericalAbort, TruncationError

__version__ = "0.1.0"
