"""burnlab: a laboratory for mechanisms that maximize residual surplus when
payments are burned rather than collected.

The package covers the prior-dependent side (quantile ironing of the utility
virtual value, the optimal allocate-and-burn rule), the prior-free side
(posted-price and two-price lotteries, Vickrey, random sampling, the
log-price ladder, the two-price benchmark), and the harnesses that certify
them (incentive audits, identity checks, experiment reproduction).
"""

from .audit import (AuditableMechanism, DeviationReport, DominanceReport,
                    IdentityReport, InterimRule, PaymentIdentityReport,
                    audit_mechanism, audit_profiles, balanced_sampling_probe,
                    check_dsic, check_payment_identity, extract_interim_rule,
                    verify_ironing_dominance, verify_utility_identity)
from .benchmark import (BenchmarkResult, full_surplus, optimal_p_lottery,
                        two_price_benchmark, two_price_benchmark_rows)
from .common import VERSION, MechanismEval, mc_eval, substream
from .distributions import (SupportError, ValuationProfile, ValueDistribution,
                            ZeroDensityError, as_profile, distribution_from_spec,
                            exponential, load_profile, pareto,
                            piecewise_inverse_hazard, sample_profile, two_piece,
                            uniform, virtual_value_utility)
from .ironing import (DEFAULT_GRID, IronedInterval, IronedVirtual, iron,
                      lower_convex_hull)
from .mechanisms import (CostOutcome, CostProblem, Outcome,
                         bayes_optimal_with_costs, evaluate,
                         expected_log_price, expected_rsol,
                         expected_under_prior, run)
from .simlab import (ExperimentConfig, estimate, experiment_lb43,
                     experiment_rsol_ratio, experiment_surplus_gap,
                     experiment_thmub, parse_config, run_experiment,
                     worst_case_corpus, write_rows)

__version__ = VERSION

__all__ = [
    "AuditableMechanism", "BenchmarkResult", "CostOutcome", "CostProblem",
    "DEFAULT_GRID", "DeviationReport", "DominanceReport", "ExperimentConfig",
    "IdentityReport", "InterimRule", "IronedInterval", "IronedVirtual",
    "MechanismEval", "Outcome", "PaymentIdentityReport", "SupportError",
    "ValuationProfile", "ValueDistribution", "VERSION", "ZeroDensityError",
    "as_profile", "audit_mechanism", "audit_profiles",
    "balanced_sampling_probe", "bayes_optimal_with_costs", "check_dsic",
    "check_payment_identity", "distribution_from_spec", "estimate", "evaluate",
    "experiment_lb43", "experiment_rsol_ratio", "experiment_surplus_gap",
    "experiment_thmub", "expected_log_price", "expected_rsol",
    "expected_under_prior", "exponential", "extract_interim_rule",
    "full_surplus", "iron", "load_profile", "lower_convex_hull", "mc_eval",
    "optimal_p_lottery", "pareto", "parse_config", "piecewise_inverse_hazard",
    "run", "run_experiment", "sample_profile", "substream", "two_piece",
    "two_price_benchmark", "two_price_benchmark_rows", "uniform",
    "verify_ironing_dominance", "verify_utility_identity",
    "virtual_value_utility", "worst_case_corpus", "write_rows",
]
