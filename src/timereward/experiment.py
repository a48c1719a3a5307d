"""Self-contained Friedman sweep: rewards vs. party 1's joining time.

Generates a Friedman dataset, splits 80-20, standardizes the targets,
partitions the training points among the parties, values coalitions by
conditional information gain, and sweeps party 1's joining time while
everyone else stays at 0.  Both reward schemes run over their parameter
grids; the qualitative trend checks mirror the reported behaviour
(scaled rewards stay individually rational, the delayed party's reward
never rises with its joining time, the weakest party never overtakes
the strongest at time zero, and at all-zero times the best scaled
reward equals the full-collaboration value).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .games import TimeVector
from .incentives import cumulation_scheme, time_valuation_scheme
from .rewards import scale_rewards
from .realization import temper
from .shapley import shapley_exact
from .synthdata import (
    Dataset,
    gen_friedman,
    mnlp,
    partition,
    standardize,
    train_test_split,
)
from .valuation import conditional_ig_game, gp_predict, make_gp_model

__all__ = ["FriedmanConfig", "SweepRow", "FriedmanResult", "run_friedman_experiment", "write_rows_csv"]

TREND_TOL = 1e-9

# The data and GP model every sweep uses
NOISE_STD = 1.0
TEST_FRACTION = 0.2
SIGNAL_VARIANCE = 1.0
NOISE_VARIANCE = 0.05
LENGTHSCALE = 1.0


@dataclass(frozen=True)
class FriedmanConfig:
    count: int = 1000
    sizes: tuple[int, ...] = (300, 300, 200)
    seed: int = 0
    t1_grid: tuple[int, ...] = (0, 1, 2, 3, 4)
    betas: tuple[float, ...] = (0.5, 1.0, 2.0, 1000.0)
    gammas: tuple[float, ...] = (0.0, 0.5, 1.0)
    with_mnlp: bool = False


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    param: float
    t1: int
    party: int
    reward: float
    scaled_reward: float
    own_value: float
    mnlp: float | None = None


@dataclass
class FriedmanResult:
    rows: list[SweepRow]
    checks: dict[str, bool]
    witnesses: dict[str, list] = field(default_factory=dict)
    own_values: np.ndarray | None = None
    shapley_values: np.ndarray | None = None
    grand_value: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())


def _reward_model_mnlp(model, std_targets, test_X, test_y, party, kappa) -> float:
    """MNLP of the tempered model reward: own data plus others at noise/kappa."""
    own = model.points_of([party])
    others = model.points_of(p for p in range(1, model.n_parties + 1) if p != party)
    noise = model.noise_vector()
    if kappa <= 0.0:
        idx = own
        point_noise = noise[own]
    else:
        idx = np.concatenate([own, others])
        point_noise = np.concatenate([noise[own], noise[others] / kappa])
    pred = gp_predict(model, std_targets, idx, test_X, point_noise=point_noise)
    return mnlp(pred, test_y)


def run_friedman_experiment(config: FriedmanConfig = FriedmanConfig()) -> FriedmanResult:
    if 0 not in config.t1_grid:
        raise ValueError("t1 grid must include 0: the checks at all-zero times need it")
    # built first, so a bad beta or gamma is refused before any GP work
    schemes = [cumulation_scheme(beta) for beta in config.betas] + [
        time_valuation_scheme(gamma) for gamma in config.gammas
    ]
    n = len(config.sizes)
    data = gen_friedman(config.count, NOISE_STD, config.seed)
    train, test = train_test_split(data, TEST_FRACTION, config.seed + 1)
    std_y, y_mean, y_std = standardize(train.targets)
    test_y = (test.targets - y_mean) / y_std
    train_std = Dataset(train.features, std_y, train.party)
    partitioned = partition(train_std, config.sizes, config.seed + 2)
    model = make_gp_model(
        partitioned,
        lengthscales=np.full(train.features.shape[1], LENGTHSCALE),
        signal_variance=SIGNAL_VARIANCE,
        noise_variance=NOISE_VARIANCE,
    )
    game = conditional_ig_game(model)
    singles = game.singleton_values()
    phi = shapley_exact(game).values
    grand = game.grand_value()
    model_targets = partitioned.targets[partitioned.party >= 1]

    columns = [(scheme.name, scheme.param) for scheme in schemes]
    rows: list[SweepRow] = []
    for scheme in schemes:
        for t1 in config.t1_grid:
            times = TimeVector.of((int(t1),) + (0,) * (n - 1))
            rewards = scheme(game, times)
            scaled = scale_rewards(game, rewards)
            for party in range(1, n + 1):
                cell_mnlp = None
                if config.with_mnlp:
                    target = min(float(scaled.scaled[party - 1]), grand)
                    realized = temper(model, party, target, tol=1e-6)
                    cell_mnlp = _reward_model_mnlp(
                        model, model_targets, test.features, test_y, party, realized.kappa
                    )
                rows.append(
                    SweepRow(
                        scheme.name,
                        scheme.param,
                        int(t1),
                        party,
                        float(rewards.rewards[party - 1]),
                        float(scaled.scaled[party - 1]),
                        float(singles[party - 1]),
                        cell_mnlp,
                    )
                )

    checks: dict[str, bool] = {}
    witnesses: dict[str, list] = {}

    bad = [
        (r.scheme, r.param, r.t1, r.party, r.scaled_reward, r.own_value)
        for r in rows
        if r.scaled_reward < r.own_value - TREND_TOL
    ]
    checks["individual_rationality"] = not bad
    if bad:
        witnesses["individual_rationality"] = bad

    bad = []
    for scheme, param in columns:
        series = sorted(
            (r for r in rows if r.scheme == scheme and r.param == param and r.party == 1),
            key=lambda r: r.t1,
        )
        for earlier, later in zip(series, series[1:]):
            if later.scaled_reward > earlier.scaled_reward + TREND_TOL:
                bad.append((scheme, param, earlier.t1, later.t1))
    checks["late_party_reward_non_increasing"] = not bad
    if bad:
        witnesses["late_party_reward_non_increasing"] = bad

    low = int(np.argmin(singles)) + 1
    high = int(np.argmax(singles)) + 1
    bad = [
        (r.scheme, r.param, low, high)
        for r in rows
        if r.t1 == 0
        and r.party == low
        and r.scaled_reward
        > next(
            x.scaled_reward
            for x in rows
            if x.scheme == r.scheme and x.param == r.param and x.t1 == 0 and x.party == high
        )
        + TREND_TOL
    ]
    checks["value_gap_preserved_at_zero"] = not bad
    if bad:
        witnesses["value_gap_preserved_at_zero"] = bad

    bad = []
    for scheme, param in columns:
        top = max(
            r.scaled_reward
            for r in rows
            if r.scheme == scheme and r.param == param and r.t1 == 0
        )
        if abs(top - grand) > TREND_TOL:
            bad.append((scheme, param, top, grand))
    checks["weak_efficiency_at_zero"] = not bad
    if bad:
        witnesses["weak_efficiency_at_zero"] = bad

    return FriedmanResult(
        rows=rows,
        checks=checks,
        witnesses=witnesses,
        own_values=singles,
        shapley_values=phi,
        grand_value=grand,
    )


def write_rows_csv(rows: list[SweepRow], path):
    """Tidy per-(scheme, param, t1, party) CSV for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scheme", "param", "t1", "party", "reward", "scaled_reward", "own_value", "mnlp"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.scheme,
                    f"{r.param:.17g}",
                    r.t1,
                    r.party,
                    f"{r.reward:.17g}",
                    f"{r.scaled_reward:.17g}",
                    f"{r.own_value:.17g}",
                    "" if r.mnlp is None else f"{r.mnlp:.17g}",
                ]
            )
