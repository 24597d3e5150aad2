"""fairdiv: exact-rational fair division of indivisible goods.

Solvers for EF1 and half-maximin-share allocations with provable welfare
guarantees, exact fairness predicates with replayable witnesses, brute-force
oracles for small instances, and generators for the adversarial families
used to measure the price of fairness.
"""

from .debug import checks_enabled, set_debug_checks
from .ef1 import (Ef1AbsRun, Ef1HighRun, LineOrder, SolveEf1Run,
                  reference_allocation, run_ef1_abs, run_ef1_high,
                  run_solve_ef1)
from .envy_cycle import LiptonStats, run_extend_ef1
from .errors import (FairdivError, InfeasibleError, ParseError,
                     ValidationError)
from .fairness import (FairnessVerdict, is_alpha_mms, is_ef1, is_prop1,
                       social_welfare)
from .generators import ADVERSARIAL_FAMILIES, generate
from .matching import max_weight_left_perfect_matching
from .mms import (MmsAbsRun, MmsHighRun, SolveHalfMmsRun, prop1_subroutine,
                  run_mms_abs, run_mms_high, run_solve_half_mms)
from .model import (Allocation, Event, Instance, Valuation, load_allocation,
                    load_instance, rescale_instance, save_allocation,
                    save_instance, validate_allocation, validate_instance)
from .oracles import (MmsProfile, constrained_opt, injected_profile,
                      max_welfare, mms_k, mms_lower_bound, mms_profile,
                      price_of_fairness)

__version__ = "0.1.0"

__all__ = [
    "ADVERSARIAL_FAMILIES", "Allocation", "Ef1AbsRun", "Ef1HighRun", "Event",
    "FairdivError", "FairnessVerdict", "InfeasibleError", "Instance",
    "LineOrder", "LiptonStats", "MmsAbsRun", "MmsHighRun", "MmsProfile",
    "ParseError", "SolveEf1Run", "SolveHalfMmsRun", "ValidationError",
    "Valuation", "checks_enabled", "constrained_opt", "generate",
    "injected_profile", "is_alpha_mms", "is_ef1", "is_prop1",
    "load_allocation", "load_instance", "max_weight_left_perfect_matching",
    "max_welfare", "mms_k", "mms_lower_bound", "mms_profile",
    "price_of_fairness", "prop1_subroutine", "reference_allocation",
    "rescale_instance", "run_ef1_abs", "run_ef1_high", "run_extend_ef1",
    "run_mms_abs", "run_mms_high", "run_solve_ef1", "run_solve_half_mms",
    "save_allocation", "save_instance", "set_debug_checks", "social_welfare",
    "validate_allocation", "validate_instance",
]
