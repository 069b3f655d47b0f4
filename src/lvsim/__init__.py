"""Simulation laboratory for RSS/DRSS location verification under
spatially correlated log-normal shadowing."""

from .channel import mean_vector
from .detector import analytic_rates
from .experiments import builtin_scenario, detector_spec, resolve_attack

__version__ = "0.1.0"
