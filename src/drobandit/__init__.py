"""Distributionally robust off-policy evaluation and learning for contextual
bandits, with transport-ball (Wasserstein) uncertainty sets as the primary
device and KL balls as the baseline."""

from .distributions import (
    DatasetDiagnostics,
    DiscreteDistribution,
    SupportSet,
    empirical_distribution,
    kl_divergence,
    make_distribution,
    total_variation,
    uniform_distribution,
)
from .duals import (
    NON_ROBUST_SHORTCUT,
    CostVector,
    DualSolution,
    dual_objective,
    kl_dual_solve,
    lse,
    primal_oracle,
    wasserstein_dual_solve,
)
from .transport import (
    GroundCost,
    TransportPlan,
    split_radius_estimate,
    wasserstein_distance,
)
from .ope import (
    CostModel,
    Policy,
    RateResult,
    RobustCostTable,
    evaluate_policy,
    rate_experiment,
    robust_cost_table,
    true_robust_table,
)
from .opl import (
    BsgdConfig,
    LearnTrace,
    Parameterization,
    PolicyParams,
    bsgd_learn,
    exact_opl,
    policy_probs,
    robust_policy_cost,
    smoothed_gradients,
    smoothed_learning_objective,
)
from .data import (
    BanditDataset,
    ColumnBinning,
    ContextExtension,
    GroundTruth,
    ShiftSpec,
    SyntheticConfig,
    load_canonical,
    load_dataset,
    sample_dataset,
    save_dataset,
    synth_generate,
)
from . import errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
