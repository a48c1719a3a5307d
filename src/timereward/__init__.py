"""Time-aware reward values for parties contributing data to a collaboration.

Given an n-party cooperative game (table-backed or Gaussian-process
information gain) and per-party joining times, this library computes
reward values under two time-aware schemes, checks the eight reward
incentives enumeratively, and realizes target values as concrete model
rewards via likelihood tempering or greedy subset selection.

Every public name is imported on first use (PEP 562), so a table-only
caller never pays for scipy: only the GP side (``valuation``,
``realization``, ``experiment``) loads it.
"""

import importlib

# each submodule and the public names it lends the package
_EXPORTS = {
    "errors": (
        "AxiomViolation",
        "InvalidCoalitionKey",
        "LengthMismatch",
        "MissingCoalition",
        "NumericalFailure",
        "PreconditionViolated",
        "SizesExceedData",
        "TargetOutOfRange",
        "TimeRewardError",
        "TooLarge",
        "ZeroVariance",
    ),
    "games": (
        "MAX_EXACT_PARTIES",
        "AxiomReport",
        "Coalition",
        "Game",
        "RewardVector",
        "TimeVector",
        "check_axioms",
        "load_game_json",
        "make_table_game",
        "random_superadditive_game",
        "save_game_json",
    ),
    "shapley": ("ShapleyResult", "naive_time_division", "shapley_exact", "shapley_mc"),
    "rewards": (
        "harsanyi_dividends",
        "interval_shapley_values",
        "interval_weights",
        "reward_cumulation",
        "reward_time_valuation",
        "scale_rewards",
        "time_aware_game",
    ),
    "incentives": (
        "IncentiveReport",
        "RewardScheme",
        "check_static",
        "check_temporal",
        "check_weak_efficiency",
        "cumulation_scheme",
        "full_incentive_report",
        "naive_scheme",
        "necessity_predicate",
        "shapley_scheme",
        "strictness_predicate",
        "time_valuation_scheme",
    ),
    "valuation": (
        "GpModel",
        "conditional_ig_game",
        "dual_game",
        "gp_ig",
        "gp_predict",
        "ig_game",
        "make_gp_model",
    ),
    "realization": ("SubsetReward", "TemperedReward", "select_subset", "temper", "tempered_value"),
    "synthdata": (
        "Dataset",
        "PredictiveDistribution",
        "gen_friedman",
        "mnlp",
        "partition",
        "standardize",
        "train_test_split",
    ),
    "experiment": ("FriedmanConfig", "FriedmanResult", "run_friedman_experiment"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name or a submodule on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
