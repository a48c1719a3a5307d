"""Shared fixtures: the two counterexample games, random generators, a pass counter."""

import numpy as np
import pytest

from timereward import Game, TimeVector, make_table_game, shapley


@pytest.fixture
def ir_counterexample() -> Game:
    """Two parties worth 0.2 alone, 1.0 together."""
    return make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})


@pytest.fixture
def necessity_counterexample() -> Game:
    """Two mutually necessary parties: worthless alone, 1.0 together."""
    return make_table_game(2, {"1": 0.0, "2": 0.0, "1,2": 1.0})


@pytest.fixture
def late_first() -> TimeVector:
    return TimeVector.of((4, 0))


def random_times(rng: np.random.Generator, n: int, max_t: int = 6) -> TimeVector:
    """Random joining times with at least one party at 0."""
    t = rng.integers(0, max_t + 1, size=n)
    t[rng.integers(0, n)] = 0
    return TimeVector.of(int(x) for x in t)


def random_monotone_submodular(rng: np.random.Generator, n: int) -> Game:
    """Concave-of-additive game: v(C) = (sum of positive weights)**alpha.

    Monotone and submodular for alpha in (0, 1), which makes its dual
    non-negative, monotone, and superadditive.
    """
    weights = rng.uniform(0.1, 1.0, size=n)
    alpha = float(rng.uniform(0.3, 0.9))
    table = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        total = sum(weights[i] for i in range(n) if mask >> i & 1)
        table[mask] = total**alpha
    return Game(n, table=table)


def count_dividend_passes(monkeypatch) -> list:
    """Wrap ``shapley._dividend_shares``; the list gets the times of every pass."""
    passes = []
    inner = shapley._dividend_shares

    def counted(game, times):
        passes.append(times)
        return inner(game, times)

    monkeypatch.setattr(shapley, "_dividend_shares", counted)
    return passes
