"""Numerical laboratory for the maximum of a heavy-tailed random walk
over its first descending cycle.

The package parses distribution expressions into increment models,
computes the drift criterion constant and integrated-tail
distributions, runs class-membership diagnostics, simulates cycles and
ladder epochs reproducibly, and assembles verification reports that
compare measured tails against their predicted asymptotics.
"""

from .errors import (BudgetError, DivergenceError, HorizonError, HtwkError,
                     PreconditionError, SpecSyntaxError, SpecValidationError)
from .distspec import format_spec, parse_spec, spec_to_model
from .tailmath import (GridConfig, GridDistribution, IncrementModel,
                       RenewalMeasure, TruncatedMean, conv_tail, criterion_K,
                       integrated_tail, integrated_tail_curve, mu_plus,
                       renewal_integrated_tail, renewal_integrated_tail_curve,
                       self_conv_tail, sstar_integral, truncated_neg_mean)
from .classlab import (KINDS, PROBES_DEFAULT, RatioDiagnostic, majorant_check,
                       measure_equivalence_check, membership_curve,
                       small_increment_criterion)
from .walksim import (CycleResult, CycleStats, LadderBatch, RenewalEstimate,
                      RngStream, SupBatch, estimate_sup_many, ks_threshold,
                      ks_two_sample, mtau_tail_estimate, renewal_estimate,
                      sample_ladder_many, simulate_cycles, wilson_interval)
from .verify import (CheckBlock, VerificationReport, class_reduction_report,
                     cycle_max_report, gplus_tail_report,
                     ladder_identity_report, renewal_bound_report,
                     run_verification)
from .serialize import (dumps_stable, read_cycles, write_curve_csv,
                        write_cycles, write_json)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "DivergenceError", "HorizonError", "HtwkError",
    "PreconditionError", "SpecSyntaxError", "SpecValidationError",
    "format_spec", "parse_spec", "spec_to_model",
    "GridConfig", "GridDistribution", "IncrementModel", "RenewalMeasure",
    "TruncatedMean", "conv_tail", "criterion_K", "integrated_tail",
    "integrated_tail_curve", "mu_plus", "renewal_integrated_tail",
    "renewal_integrated_tail_curve", "self_conv_tail", "sstar_integral",
    "truncated_neg_mean",
    "KINDS", "PROBES_DEFAULT", "RatioDiagnostic", "majorant_check",
    "measure_equivalence_check", "membership_curve",
    "small_increment_criterion",
    "CycleResult", "CycleStats", "LadderBatch", "RenewalEstimate",
    "RngStream", "SupBatch", "estimate_sup_many", "ks_threshold",
    "ks_two_sample", "mtau_tail_estimate", "renewal_estimate",
    "sample_ladder_many", "simulate_cycles", "wilson_interval",
    "CheckBlock", "VerificationReport",
    "class_reduction_report", "cycle_max_report", "gplus_tail_report",
    "ladder_identity_report", "renewal_bound_report", "run_verification",
    "dumps_stable", "read_cycles", "write_curve_csv", "write_cycles",
    "write_json",
    "__version__",
]
