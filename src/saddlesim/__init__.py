"""Online constrained optimization under arbitrarily time-varying convex costs
and constraints: projected-gradient and saddle-point controllers, fit/regret
metrics against a discretized clairvoyant optimum, and the shepherd tracking
benchmark."""

from . import convex_sets, dynamics, environment, metrics, offline, shepherd
from .convex_sets import Ball, Box, ConvexSet, FullSpace, NonnegativeOrthant
from .dynamics import ControllerConfig, TrajectoryLog, simulate, simulate_rows
from .environment import Environment
from .metrics import RegretReport
from .offline import OfflineSolution, TimeGrid
from .shepherd import ShepherdScenario, generate_sheep_paths, shepherd_env

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "ConvexSet", "ControllerConfig", "Environment",
    "FullSpace", "NonnegativeOrthant",
    "OfflineSolution", "RegretReport", "ShepherdScenario", "TimeGrid",
    "TrajectoryLog", "convex_sets", "dynamics", "environment",
    "generate_sheep_paths", "metrics", "offline", "shepherd", "shepherd_env",
    "simulate", "simulate_rows",
]
