"""Time-aware reward values for parties contributing data to a collaboration.

Given an n-party cooperative game (table-backed or Gaussian-process
information gain) and per-party joining times, this library computes
reward values under two time-aware schemes, checks the eight reward
incentives enumeratively, and realizes target values as concrete model
rewards via likelihood tempering or greedy subset selection.
"""

from .errors import (
    AxiomViolation,
    InvalidCoalitionKey,
    LengthMismatch,
    MissingCoalition,
    NumericalFailure,
    PreconditionViolated,
    SizesExceedData,
    TargetOutOfRange,
    TimeRewardError,
    TooLarge,
    ZeroVariance,
)
from .games import (
    MAX_EXACT_PARTIES,
    AxiomReport,
    Coalition,
    Game,
    RewardVector,
    TimeVector,
    check_axioms,
    load_game_json,
    make_table_game,
    random_superadditive_game,
    save_game_json,
)
from .shapley import ShapleyResult, naive_time_division, shapley_exact, shapley_mc
from .rewards import (
    harsanyi_dividends,
    interval_shapley_values,
    interval_weights,
    reward_cumulation,
    reward_time_valuation,
    scale_rewards,
    time_aware_game,
)
from .incentives import (
    IncentiveReport,
    RewardScheme,
    check_static,
    check_temporal,
    check_weak_efficiency,
    cumulation_scheme,
    full_incentive_report,
    naive_scheme,
    necessity_predicate,
    shapley_scheme,
    strictness_predicate,
    time_valuation_scheme,
)
from .valuation import (
    GpModel,
    conditional_ig_game,
    dual_game,
    gp_ig,
    gp_predict,
    ig_game,
    make_gp_model,
)
from .realization import SubsetReward, TemperedReward, select_subset, temper, tempered_value
from .synthdata import (
    Dataset,
    PredictiveDistribution,
    gen_friedman,
    mnlp,
    partition,
    standardize,
    train_test_split,
)
from .experiment import FriedmanConfig, FriedmanResult, run_friedman_experiment

__version__ = "0.1.0"
