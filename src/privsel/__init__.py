"""Private selection with budgeted Gaussian queries.

A library for the selection problem (privately output a candidate whose loss
is near the minimum) in the interaction model where the only access to data
is adaptively issuing sensitivity-1 queries, each answered with Gaussian
noise of variance 1/(2*rho_i), with per-query budgets summing to a total
zCDP budget rho.
"""

from .core import (
    DEFAULT_CONSTANTS, INSTANCE_FAMILIES, LossInstance, MechanismConstants,
    error_scale, gap_threshold, generate_instance, loss_scale,
)
from .queries import (
    AddConst, Base, BaseBatch, Const, Gap, GapOver, Level, LossExpr, MaxOver,
    MinCompare, MinOver, Scale, Sub, build_bintree_query, build_tilde_loss,
    eval_expr, format_expr, sensitivity_bound,
)
from .oracle import (
    BudgetExceededError, BudgetOracle, EqualBudgetAdapter, EqualBudgetPlan,
    NonFiniteQueryError, OracleError, RoundsExceededError, SensitivityViolationError,
    equal_budget_simulate, plan_equal_budget,
)
from .mechanisms import (
    DEFAULT_WORK_CAP, InfeasibleConfigError, SelectionResult,
    binary_tree_select, combined_select, exponential_mechanism,
    query_all_baseline, recursive_gap_select,
)
from .verify import (
    CheckResult, FuzzReport, Verdict, appendix_grid, check_good_subset_rate,
    point_checks, sensitivity_fuzz, subset_event_mc, subset_event_probability,
    subset_event_probability_dp, subset_event_probability_enum,
)
from .experiments import (
    ExperimentConfig, ExperimentSummary, InstanceSpec, MechanismSpec,
    MechanismSummary, TrialRecord, run_experiment, run_trials, summarize,
)

__version__ = "0.1.0"
