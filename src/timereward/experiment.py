"""Self-contained Friedman sweep: rewards vs. party 1's joining time.

Generates a Friedman dataset, splits 80-20, standardizes the targets,
partitions the training points among the parties, values coalitions by
conditional information gain, and sweeps party 1's joining time while
everyone else stays at 0.  Each beta (cumulation) and gamma (time
valuation) is one scheme k, and the sweep fills arrays indexed
[k, j, party - 1] for entry j of the t1 grid: the rewards, the scaled
rewards and, on request, the MNLP of each realized reward.  Each trend
check is one reduction of the scaled rewards: none falls below the
party's own value; party 1's never rises along the stably sorted grid;
at every t1 = 0 entry the weakest party stays at or below the strongest
party's first t1 = 0 entry; and each scheme's best t1 = 0 entry is v(N).
Data, GP model and tempering take the defaults of ``gen_friedman``,
``make_gp_model`` and ``temper``; the trend checks use ``DEFAULT_TOL``.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields

import numpy as np

from .games import DEFAULT_TOL, TimeVector
from .incentives import cumulation_scheme, time_valuation_scheme
from .rewards import _scale
from .realization import _others, temper
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

TEST_FRACTION = 0.2


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
    """The sweep's rows and each trend check's witness list, empty where it holds."""

    rows: list[SweepRow]
    found: dict[str, list]
    own_values: np.ndarray
    shapley_values: np.ndarray
    grand_value: float

    @property
    def checks(self) -> dict[str, bool]:
        return {name: not bad for name, bad in self.found.items()}

    @property
    def witnesses(self) -> dict[str, list]:
        return {name: bad for name, bad in self.found.items() if bad}

    @property
    def all_pass(self) -> bool:
        return not self.witnesses


def _reward_model_mnlp(model, std_targets, test_X, test_y, party, kappa) -> float:
    """MNLP of the tempered model reward: own data plus others at noise/kappa."""
    own = model.points_of([party])
    others = _others(model, party)
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
    if min(config.t1_grid) < 0:
        raise ValueError(f"t1 grid entries must be non-negative, got {config.t1_grid!r}")
    if min(config.sizes, default=1) < 1:
        # an empty party would pass every trend check vacuously
        raise ValueError(f"party sizes must be at least 1, got {config.sizes!r}")
    # built first, so a bad beta or gamma is refused before any GP work
    schemes = [cumulation_scheme(beta) for beta in config.betas] + [
        time_valuation_scheme(gamma) for gamma in config.gammas
    ]
    if not schemes:
        raise ValueError("the sweep needs at least one beta or gamma")
    n = len(config.sizes)
    data = gen_friedman(config.count, seed=config.seed)
    train, test = train_test_split(data, TEST_FRACTION, config.seed + 1)
    if config.with_mnlp and len(test) == 0:
        raise ValueError(
            f"{config.count} points leave an empty {TEST_FRACTION:.0%} test split: MNLP needs one"
        )
    std_y, y_mean, y_std = standardize(train.targets)
    test_y = (test.targets - y_mean) / y_std
    train_std = Dataset(train.features, std_y, train.party)
    partitioned = partition(train_std, config.sizes, config.seed + 2)
    model = make_gp_model(partitioned)
    game = conditional_ig_game(model)
    singles = game.singleton_values()
    phi = shapley_exact(game).values
    grand = game.grand_value()
    model_targets = partitioned.targets[partitioned.party >= 1]

    grid = [int(t1) for t1 in config.t1_grid]
    reward = np.empty((len(schemes), len(grid), n))
    scaled = np.empty_like(reward)
    cell_mnlp = np.empty_like(reward)
    for k, scheme in enumerate(schemes):
        for j, t1 in enumerate(grid):
            reward[k, j] = scheme(game, TimeVector.of((t1,) + (0,) * (n - 1))).rewards
            scaled[k, j] = _scale(game, reward[k, j], phi).scaled
            if not config.with_mnlp:
                continue
            for p in range(n):
                target = min(float(scaled[k, j, p]), grand)
                realized = temper(model, p + 1, target)
                cell_mnlp[k, j, p] = _reward_model_mnlp(
                    model, model_targets, test.features, test_y, p + 1, realized.kappa
                )

    def column(k):
        return schemes[k].name, schemes[k].param

    rows = [
        SweepRow(
            *column(k),
            grid[j],
            p + 1,
            float(reward[k, j, p]),
            float(scaled[k, j, p]),
            float(singles[p]),
            float(cell_mnlp[k, j, p]) if config.with_mnlp else None,
        )
        for k, j, p in np.ndindex(reward.shape)
    ]
    order = np.argsort(grid, kind="stable")
    series = scaled[:, order, 0]  # party 1, joining later along axis 1
    zeros = [j for j, t1 in enumerate(grid) if t1 == 0]
    low, high = int(np.argmin(singles)), int(np.argmax(singles))
    top = scaled[:, zeros].max(axis=(1, 2))
    found = {
        "individual_rationality": [
            (*column(k), grid[j], p + 1, float(scaled[k, j, p]), float(singles[p]))
            for k, j, p in np.argwhere(scaled < singles - DEFAULT_TOL).tolist()
        ],
        "late_party_reward_non_increasing": [
            (*column(k), grid[order[i]], grid[order[i + 1]])
            for k, i in np.argwhere(series[:, 1:] > series[:, :-1] + DEFAULT_TOL).tolist()
        ],
        "value_gap_preserved_at_zero": [
            (*column(k), low + 1, high + 1)
            for k, _ in np.argwhere(
                scaled[:, zeros, low] > scaled[:, zeros[:1], high] + DEFAULT_TOL
            ).tolist()
        ],
        "weak_efficiency_at_zero": [
            (*column(k), float(top[k]), grand)
            for k in np.flatnonzero(np.abs(top - grand) > DEFAULT_TOL).tolist()
        ],
    }
    return FriedmanResult(rows, found, singles, phi, grand)


def write_rows_csv(rows: list[SweepRow], path):
    """Tidy per-(scheme, param, t1, party) CSV for external plotting."""

    def cell(x):
        return f"{x:.17g}" if isinstance(x, float) else "" if x is None else x

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(SweepRow)])
        writer.writerows([cell(x) for x in astuple(row)] for row in rows)
