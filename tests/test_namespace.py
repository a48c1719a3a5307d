"""The package namespace: every public name resolves, and table commands load no scipy."""

import os
import subprocess
import sys

import pytest

import timereward

PUBLIC_NAMES = {
    # errors
    "AxiomViolation", "InvalidCoalitionKey", "LengthMismatch", "MissingCoalition",
    "NumericalFailure", "PreconditionViolated", "SizesExceedData", "TargetOutOfRange",
    "TimeRewardError", "TooLarge", "ZeroVariance",
    # games
    "MAX_EXACT_PARTIES", "AxiomReport", "Coalition", "Game", "RewardVector", "TimeVector",
    "check_axioms", "load_game_json", "make_table_game", "random_superadditive_game",
    "save_game_json",
    # shapley
    "ShapleyResult", "naive_time_division", "shapley_exact", "shapley_mc",
    # rewards
    "harsanyi_dividends", "interval_shapley_values", "interval_weights", "reward_cumulation",
    "reward_time_valuation", "scale_rewards", "time_aware_game",
    # incentives
    "IncentiveReport", "RewardScheme", "check_static", "check_temporal",
    "check_weak_efficiency", "cumulation_scheme", "full_incentive_report", "naive_scheme",
    "necessity_predicate", "shapley_scheme", "strictness_predicate", "time_valuation_scheme",
    # valuation
    "GpModel", "conditional_ig_game", "dual_game", "gp_ig", "gp_predict", "ig_game",
    "make_gp_model",
    # realization
    "SubsetReward", "TemperedReward", "select_subset", "temper", "tempered_value",
    # synthdata
    "Dataset", "PredictiveDistribution", "gen_friedman", "mnlp", "partition", "standardize",
    "train_test_split",
    # experiment
    "FriedmanConfig", "FriedmanResult", "run_friedman_experiment",
}

SUBMODULES = (
    "cli", "errors", "experiment", "games", "incentives", "realization", "rewards", "shapley",
    "synthdata", "valuation",
)


def test_all_lists_the_public_names_once():
    assert len(timereward.__all__) == len(PUBLIC_NAMES)
    assert set(timereward.__all__) == PUBLIC_NAMES


def test_each_name_resolves_to_its_module_object():
    for name in timereward.__all__:
        value = getattr(timereward, name)
        module = sys.modules[f"timereward.{timereward._OWNER[name]}"]
        assert value is getattr(module, name), name
        assert vars(timereward)[name] is value  # kept, so the next lookup skips the hook


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from timereward import *", scope)
    assert set(scope) - {"__builtins__"} == PUBLIC_NAMES


def test_submodules_resolve():
    for name in SUBMODULES:
        assert getattr(timereward, name) is sys.modules[f"timereward.{name}"], name


def test_dir_lists_names_and_submodules():
    listed = dir(timereward)
    assert PUBLIC_NAMES <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'timereward' has no attribute 'nope'"):
        timereward.nope
    with pytest.raises(ImportError):
        exec("from timereward import nope", {})


TABLE_COMMANDS = """
import json, os, sys
import timereward.cli as cli
assert "scipy" not in sys.modules, "import"
game = os.path.join(sys.argv[1], "game.json")
with open(game, "w") as fh:
    json.dump({"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}, "times": [1, 0]}, fh)
assert cli.main(["check", "--game", game]) == 0
assert cli.main(["rewards", "--game", game, "--scheme", "cumulation"]) == 0
assert cli.main(["shapley", "--game", game]) == 0
assert cli.main(["gen", "friedman", "--count", "20", "--out", game + ".csv"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_table_commands_load_no_scipy(tmp_path):
    # the copy of the package under test, whether from the source tree or installed
    root = os.path.dirname(os.path.dirname(timereward.__file__))
    env = {**os.environ, "PYTHONPATH": root}
    subprocess.run(
        [sys.executable, "-c", TABLE_COMMANDS, str(tmp_path)],
        env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
