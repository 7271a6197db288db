"""Restricted-assignment makespan scheduling with certified lower bounds."""

from .rational import Frac, frac, ratio_str, BACKEND
from .model import (Instance, ScaledInstance, Schedule,
                    validate_partial_schedule, parse_instance,
                    serialize_instance, make_instance, scale_instance)
from .seed import seed_small_medium, decided_seed, SeedInfeasible
from .engine import InsertionEngine, layer_cap
from .certificate import (build_dual_certificate, verify_certificate,
                          config_lp_lower_bound, DualCertificate)
from .oracle import exact_optimal_makespan, knapsack_max_value, KnapsackQuery
from .generator import GenSpec, generate_instance
from .driver import solve, SolveReport

__version__ = "0.1.0"
