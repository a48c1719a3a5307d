"""Time-aware reward schemes: interval cumulation and time-aware valuation.

Both schemes require a non-negative, superadditive game, checked by
``check_axioms`` and memoised on the game: superadditivity is first
certified from the table's mixed second differences, and only games
that fail the certificate are scanned pair by pair.  Both are the one
formula of ``shapley``: every multi-member coalition T splits its
Harsanyi dividend d(T) equally among its members, discounted by a
function D of the joining time t_T of its latest member, and each party
keeps its solo value:

    r_i = v({i}) + sum over T containing i, |T| >= 2, of d(T) / |T| * D(t_T)

* Interval cumulation: D(s) = sum of the normalized geometric interval
  weights w(tau) over tau >= s, a geometric tail taken in closed form.
  This equals blending, with weights w(tau), the Shapley values of the
  game restricted to the parties present at each interval tau.
* Time-aware valuation: D(s) = exp(-gamma * s), the cooperative ability
  of the latest member.  This equals the Shapley value of the time-aware
  game, whose values sum the discounted dividends over subsets.
* Per-interval values: row tau uses D(s) = 1 if s <= tau, else 0.

Each scheme is ``_discounted(D)``, the only caller of the A1/A3 gate,
evaluated by ``shapley._at_own_times``, so its rewards and every reward
at another joining time of a party's own come from one dividend pass.
"""

from __future__ import annotations

import numpy as np

from .errors import AxiomViolation
from .games import (
    DEFAULT_TOL,
    Coalition,
    Game,
    RewardVector,
    TimeVector,
    _check_per_party,
    check_axioms,
    subset_differences,
    subset_sums,
)
from .shapley import _at_own_times, _coalition_layout, _own_time_reward, shapley_exact

__all__ = [
    "interval_weights",
    "interval_shapley_values",
    "reward_cumulation",
    "harsanyi_dividends",
    "time_aware_game",
    "reward_time_valuation",
    "scale_rewards",
]

# exp(-gamma*t) clamps here instead of underflowing to 0, keeping every
# cooperative ability strictly positive
_ABILITY_FLOOR = float(np.finfo(float).tiny)


def _require_axioms(game: Game):
    """Refuse a game that fails A1 or A3 at DEFAULT_TOL, whatever tol a caller checks at."""
    report = check_axioms(game, DEFAULT_TOL)
    bad = [a for a, axiom in (("A1", "nonneg"), ("A3", "superadditive")) if axiom in report.witnesses]
    if bad:
        witnesses = report.to_dict()["witnesses"]
        raise AxiomViolation(
            f"game fails {'+'.join(bad)} at tol {DEFAULT_TOL!r}; witnesses: {witnesses}"
        )


def _discounted(discount):
    """The own-time reward of the dividend formula of ``shapley`` under a discount; needs A1, A3."""

    def own_time(game: Game, times: TimeVector):
        _require_axioms(game)
        return _own_time_reward(game, times, discount)

    return own_time


def _check_beta(beta: float):
    if not beta > 0 or not np.isfinite(beta):
        raise ValueError("beta must be positive and finite")


def interval_weights(times: TimeVector, beta: float) -> np.ndarray:
    """Normalized geometric interval weights w(tau) = beta**tau / sum.

    Evaluated in log space so large beta or long horizons cannot
    overflow.  The weights sum to 1 and are strictly geometric in tau.
    """
    _check_beta(beta)
    logs = np.arange(times.max_time + 1) * np.log(beta)
    logs -= logs.max()
    w = np.exp(logs)
    return w / w.sum()


def _cumulation_discount(beta: float):
    """D(s, H) = sum over tau >= s of the interval weights up to the horizon H.

    The geometric tail is beta**s (1 - beta**(H-s+1)) / (1 - beta**(H+1)),
    with expm1 taking both differences in log space so that beta near 1
    loses no digits.  For beta > 1 both are divided by beta**(H+1), which
    gives expm1((s-H-1) ln beta) / expm1(-(H+1) ln beta) and keeps every
    power below 1; at beta = 1 the tail is (H-s+1) / (H+1).  s is clamped
    to H+1, so a time past the horizon gets 0.  The returned function
    broadcasts the latest-member joining times of some dividends against
    the horizon (the latest joining time of all).  beta is checked here,
    so a scheme built on a bad beta is refused when built.
    """
    _check_beta(beta)
    log_beta = float(np.log(beta))

    def discount(latest: np.ndarray, horizon) -> np.ndarray:
        horizon = np.asarray(horizon, dtype=float)
        s = np.minimum(latest, horizon + 1)
        if log_beta == 0.0:
            return (horizon + 1 - s) / (horizon + 1)
        if log_beta < 0.0:
            tail = np.expm1((horizon + 1 - s) * log_beta) / np.expm1((horizon + 1) * log_beta)
            return beta**s * tail
        return np.expm1((s - horizon - 1) * log_beta) / np.expm1(-(horizon + 1) * log_beta)

    return discount


def interval_shapley_values(game: Game, times: TimeVector) -> np.ndarray:
    """Per-interval Shapley values, shape (T+1, n).

    Row tau holds each party's Shapley value in the game restricted to
    the parties present at interval tau; parties not yet present stand
    in with their solo value.  That is the dividend formula under the
    step discount D(s) = 1 if s <= tau, else 0.  Rows change only at the
    distinct joining times u, so one own-time call gives a row per u,
    below a row of solo values for the intervals before u_0.
    """
    _check_per_party(game.n, times, "times")
    u = np.unique(times.as_array())
    _, reward = _own_time_reward(game, times, lambda latest, _: latest <= u[:, None, None])
    rows = reward(np.arange(1, game.n + 1), times.as_array())
    present = np.searchsorted(u, np.arange(times.max_time + 1), side="right")
    return np.vstack([game.singleton_values(), rows])[present]


def reward_cumulation(game: Game, times: TimeVector, beta: float) -> RewardVector:
    """Interval-cumulated rewards r_i = sum_tau w(tau) * phi_i(tau).

    Each interval is treated as a separate collaboration among the
    parties present; the geometric weights trade off early against late
    intervals.  A coalition completed at time s is credited in every
    interval from s on, so its dividend is discounted by the weight tail
    sum_{tau >= s} w(tau).  Requires a non-negative superadditive game.
    """
    return _at_own_times(_discounted(_cumulation_discount(beta)), game, times)


def harsanyi_dividends(game: Game) -> dict[Coalition, float]:
    """Map every coalition to its synergy dividend d(v, T) (n <= 24)."""
    d = subset_differences(game.table())
    return {
        Coalition.from_mask(mask, game.n): float(d[mask]) for mask in range(1 << game.n)
    }


def cooperative_abilities(times: TimeVector, gamma: float) -> np.ndarray:
    """Per-party abilities exp(-gamma * t_i), floored at the tiniest normal float."""
    return _ability_discount(gamma)(times.as_array(), times.max_time)


def _ability_discount(gamma: float):
    """D(s) = exp(-gamma * s), floored: the ability of a dividend's latest member.

    Same signature as ``_cumulation_discount``; the horizon plays no part.
    gamma is checked here, so a scheme built on a bad gamma is refused
    when built.
    """
    if gamma < 0 or not np.isfinite(gamma):
        raise ValueError("gamma must be non-negative and finite")

    def discount(latest: np.ndarray, horizon) -> np.ndarray:
        return np.maximum(np.exp(-gamma * np.asarray(latest, dtype=float)), _ABILITY_FLOOR)

    return discount


def time_aware_game(game: Game, times: TimeVector, gamma: float) -> Game:
    """The game whose values sum the dividends discounted by the latest member's ability.

    Built as v minus the subset sums of each multi-member dividend's
    shortfall d(T) * (1 - ability), which is the same table as the
    subset sums of the discounted dividends but is exactly v when no
    dividend is discounted.  Solo values are never discounted.
    """
    _check_per_party(game.n, times, "times")
    v = game.table()  # first, so a game above the ceiling is refused before any 2**n array
    u, latest, _ = _coalition_layout(times)
    lam = cooperative_abilities(TimeVector.of(u), gamma)
    shortfall = subset_differences(v)
    shortfall *= (1.0 - lam)[latest]
    shortfall[1 << np.arange(game.n)] = 0.0
    table = v - subset_sums(shortfall)
    return Game(game.n, table=table)


def reward_time_valuation(game: Game, times: TimeVector, gamma: float) -> RewardVector:
    """Rewards as Shapley values of the time-aware game.

    Each multi-member dividend is shared equally and discounted by the
    cooperative ability of the coalition's latest member.  Requires a
    non-negative superadditive base game; the time-aware game then
    inherits both properties, which keeps individual rationality.
    """
    return _at_own_times(_discounted(_ability_discount(gamma)), game, times)


def scale_rewards(game: Game, rewards: RewardVector) -> RewardVector:
    """Scale rewards by rho = v(N) / max plain Shapley value.

    With all joining times zero this makes the best party's scaled
    reward exactly v(N) (weak efficiency).  If every reward is zero or
    the game itself is null, scaling is undefined: the rewards are
    returned unchanged, as scaled rewards with no rho (degenerate).
    Plain Shapley values or scaled rewards past the float range raise
    ValueError.
    """
    return _scale(game, rewards.rewards, shapley_exact(game).values)


def _scale(game: Game, r: np.ndarray, phi) -> RewardVector:
    """Rewards r scaled by rho = v(N) / max phi, phi the plain Shapley values.

    The rule of ``scale_rewards``, for callers that already hold phi.
    """
    _check_per_party(game.n, r, "rewards")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (game.n,):
        raise ValueError(f"phi has shape {phi.shape}, not ({game.n},)")
    if not np.all(np.isfinite(phi)):
        raise ValueError("plain Shapley values must be finite to scale rewards by them")
    top = float(phi.max())
    if top <= 0.0 or not np.any(r != 0.0):
        return RewardVector(r, scaled=r.copy())
    rho = game.grand_value() / top
    with np.errstate(over="ignore", invalid="ignore"):  # RewardVector refuses inf or NaN
        scaled = rho * r
    return RewardVector(r, scaled=scaled, rho=rho)
