"""Enumerative checkers for the eight reward incentives.

F1 non-negativity, F2 individual rationality, F3 equal-time symmetry,
F4 equal-time desirability, F5 uselessness, F6 necessity, F7 time-based
monotonicity, F8 time-based strict monotonicity.  Every quantifier is
decided exhaustively (never sampled) as an array reduction over the
2**n value table: F3/F4 over the two views of the table reshaped as an
n-axis cube that hold one party of a pair but not the other, F5, F6
and the strictness predicate over the per-party (without, with) views
of the table, with one largest |v| per party deciding every F6 pair in
O(n 2**n) and one earliest synergy time per party deciding every F8
precondition.  Party counts above the exact ceiling are refused (by
``games``), and so is a tolerance that is not finite and >= 0.  F7/F8
need the rewards every party would get had it joined earlier, so they
take a reward scheme and are reported not_applicable without one.  Every
scheme gives party i's reward as a function of its own joining time,
the other times held, together with the plain Shapley values:
cumulation and timeval from one bucketing of party i's dividends by the
latest joining time of the other members, naive and plain Shapley from
one Shapley value.  So all of party i's counterfactual rewards are one
array, no scheme is re-run, and a full report scales the rewards with
the Shapley values of that same call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PreconditionViolated
from .games import (
    DEFAULT_TOL,
    Game,
    RewardVector,
    TimeVector,
    _bit_pairs,
    _check_party,
    _check_per_party,
    _check_tolerance,
)
from .shapley import _coalition_layout, _own_time_reward, naive_time_division, shapley_exact
from .rewards import (
    _ability_discount,
    _cumulation_discount,
    _require_axioms,
    _scale,
    reward_cumulation,
    reward_time_valuation,
)

__all__ = [
    "IncentiveCheck",
    "IncentiveReport",
    "RewardScheme",
    "cumulation_scheme",
    "time_valuation_scheme",
    "naive_scheme",
    "shapley_scheme",
    "check_static",
    "check_temporal",
    "full_incentive_report",
    "necessity_predicate",
    "strictness_predicate",
    "check_weak_efficiency",
]

STRICT_MARGIN = 1e-12
# A report lists at most this many witnesses of a check, above the
# C(24, 2) = 276 pairs of F3/F4/F6, so only a long F7/F8 sweep is cut.
MAX_REPORTED_WITNESSES = 1000


@dataclass
class IncentiveCheck:
    """One incentive: instances fired, failures witnessed (None if it was not checked)."""

    instances: int = 0
    witnesses: list | None = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.witnesses is None:
            return "not_applicable"
        return "fail" if self.witnesses else "pass"

    def to_dict(self) -> dict:
        """The first MAX_REPORTED_WITNESSES witnesses, with witness_count if cut."""
        out = {"status": self.status, "instances": self.instances}
        if self.witnesses:
            out["witnesses"] = self.witnesses[:MAX_REPORTED_WITNESSES]
            if len(self.witnesses) > MAX_REPORTED_WITNESSES:
                out["witness_count"] = len(self.witnesses)
        if self.skipped:
            out["skipped"] = self.skipped
        return out


@dataclass
class IncentiveReport:
    checks: dict[str, IncentiveCheck]

    @property
    def failures(self) -> list[str]:
        return [k for k, c in sorted(self.checks.items()) if c.status == "fail"]

    @property
    def all_pass(self) -> bool:
        return not self.failures

    def status(self, key: str) -> str:
        return self.checks[key].status

    def to_dict(self) -> dict:
        return {k: c.to_dict() for k, c in sorted(self.checks.items())}


@dataclass(frozen=True)
class RewardScheme:
    """A named, deterministic (game, times) -> rewards closure.

    A scheme also gives its own-time reward: own_time(game, times)
    returns (phi, reward), the plain Shapley values and reward(i, t),
    party i's rewards at an array t of its own joining times with every
    other time held; at t = t_i these are the scheme's rewards.
    ``check_temporal`` reads all of party i's counterfactual rewards off
    one call of it and never runs ``fn``.
    """

    name: str
    param: float | None
    fn: Callable[[Game, TimeVector], RewardVector]
    own_time: Callable[[Game, TimeVector], tuple[np.ndarray, Callable[..., np.ndarray]]]

    def __call__(self, game: Game, times: TimeVector) -> RewardVector:
        return self.fn(game, times)


def _discounted(discount):
    """The own-time reward of the dividend formula of ``shapley`` under a discount; needs A1, A3."""

    def own_time(game: Game, times: TimeVector):
        _require_axioms(game)
        return _own_time_reward(game, times, discount)

    return own_time


def cumulation_scheme(beta: float) -> RewardScheme:
    return RewardScheme(
        "cumulation",
        float(beta),
        lambda g, t: reward_cumulation(g, t, beta),
        _discounted(_cumulation_discount(beta)),
    )


def time_valuation_scheme(gamma: float) -> RewardScheme:
    return RewardScheme(
        "timeval",
        float(gamma),
        lambda g, t: reward_time_valuation(g, t, gamma),
        _discounted(_ability_discount(gamma)),
    )


def _from_shapley(share):
    """The own-time reward share(phi_i, t) of one Shapley value phi."""

    def own_time(game: Game, times: TimeVector):
        phi = shapley_exact(game).values
        return phi, lambda i, t: share(phi[np.asarray(i) - 1], np.asarray(t))

    return own_time


def naive_scheme() -> RewardScheme:
    return RewardScheme(
        "naive", None, naive_time_division, _from_shapley(lambda phi, t: phi / (t + 1.0))
    )


def shapley_scheme() -> RewardScheme:
    """Plain Shapley rewards; ignores joining times entirely."""
    return RewardScheme(
        "shapley",
        None,
        lambda g, t: RewardVector(shapley_exact(g).values),
        _from_shapley(lambda phi, t: phi + np.zeros(t.shape)),
    )


def _necessary_parties(v: np.ndarray, tol: float) -> list[int]:
    """Parties i with |v| <= tol on every coalition missing i, ascending."""
    pairs = enumerate(_bit_pairs(v), start=1)
    return [i for i, (without, _) in pairs if np.abs(without).max() <= tol]


def necessity_predicate(game: Game, i: int, j: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff every coalition missing party i or party j is worthless."""
    _check_tolerance(tol)
    _check_party(game.n, i)
    _check_party(game.n, j)
    return {i, j} <= set(_necessary_parties(game.table(), tol))


def _synergy_times(v: np.ndarray, layout) -> np.ndarray:
    """Per party i, the earliest joining time at which it has strict synergy.

    That is the smallest latest-member time over the non-empty C without
    party i with v(C + i) > v(C) + v(i), or inf if there is none: one
    reduction over party i's (without, with) views.  C = empty never
    qualifies, as v(i) > 0 + v(i) is false, and party i's own joining
    time plays no part.  layout is the ``_coalition_layout`` of the times.
    """
    u, latest, _ = layout
    out = np.full(v.size.bit_length() - 1, np.inf)
    pairs = zip(_bit_pairs(v), _bit_pairs(latest))
    for i, ((without, with_i), (latest_without, _)) in enumerate(pairs):
        ranks = latest_without[with_i > without + v[1 << i]]
        if ranks.size:
            out[i] = u[ranks.min()]
    return out


def strictness_predicate(game: Game, times: TimeVector, i: int) -> bool:
    """True iff party i has strict synergy with some coalition of its predecessors.

    Some C within {j : t_j < t_i} has v(C + i) > v(C) + v(i) exactly
    when the earliest such C has its latest member before t_i.
    """
    _check_per_party(game.n, times, "times")
    _check_party(game.n, i)
    synergy = _synergy_times(game.table(), _coalition_layout(times))
    return bool(synergy[i - 1] < times[i - 1])


def _holding_one(cube: np.ndarray, i: int, j: int) -> np.ndarray:
    """View of the n-axis value cube over the coalitions holding party i but not j.

    Party p is axis n - p, so views taken for (i, j) and (j, i) align
    entry by entry on the same coalition of the other parties.
    """
    index = [slice(None)] * cube.ndim
    index[cube.ndim - i], index[cube.ndim - j] = 1, 0
    return cube[tuple(index)]


def _rewards_array(rewards) -> np.ndarray:
    if isinstance(rewards, RewardVector):
        return rewards.rewards
    return np.asarray(rewards, dtype=float)


def check_static(
    game: Game,
    times: TimeVector,
    rewards,
    tol: float = DEFAULT_TOL,
) -> IncentiveReport:
    """Check F1-F6 for a concrete reward vector.

    Preconditioned incentives whose preconditions never fire report pass
    with zero instances.  Equal-time pairs that are neither symmetric nor
    one-sided within the tolerance constrain nothing; they are listed as
    skipped on F3/F4 rather than guessed at.
    """
    _check_tolerance(tol)
    _check_per_party(game.n, times, "times")
    r = _rewards_array(rewards)
    _check_per_party(game.n, r, "rewards")
    n = game.n
    v = game.table()
    cube = v.reshape((2,) * n)
    checks: dict[str, IncentiveCheck] = {}

    # F1: r_i >= 0
    bad = [(i + 1, float(r[i])) for i in range(n) if r[i] < -tol]
    checks["F1"] = IncentiveCheck(n, bad)

    # F2: r_i >= v_i
    singles = game.singleton_values()
    bad = [
        (i + 1, float(r[i]), float(singles[i]))
        for i in range(n)
        if r[i] < singles[i] - tol
    ]
    checks["F2"] = IncentiveCheck(n, bad)

    # F3 / F4 over equal-time pairs
    f3 = checks["F3"] = IncentiveCheck()
    f4 = checks["F4"] = IncentiveCheck()
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if times[i - 1] != times[j - 1]:
            continue
        diff = _holding_one(cube, i, j) - _holding_one(cube, j, i)
        hi, lo = diff.max(), diff.min()
        if max(abs(hi), abs(lo)) <= tol:
            f3.instances += 1
            if abs(r[i - 1] - r[j - 1]) > tol:
                f3.witnesses.append((i, j, float(r[i - 1]), float(r[j - 1])))
        elif (hi > tol) != (lo < -tol):
            # one-sided: the better party must earn strictly more
            a, b = (i, j) if hi > tol else (j, i)
            f4.instances += 1
            if not r[a - 1] > r[b - 1] + STRICT_MARGIN:
                f4.witnesses.append((a, b, float(r[a - 1]), float(r[b - 1])))
        else:
            f4.skipped.append((i, j))

    # F5: useless parties earn nothing
    f5 = checks["F5"] = IncentiveCheck()
    for i, (without, with_bit) in enumerate(_bit_pairs(v), start=1):
        if np.all(np.abs(with_bit - without) <= tol):
            f5.instances += 1
            if abs(r[i - 1]) > tol:
                f5.witnesses.append((i, float(r[i - 1])))

    # F6: mutually necessary parties earn equally
    f6 = checks["F6"] = IncentiveCheck()
    for i, j in itertools.combinations(_necessary_parties(v, tol), 2):
        f6.instances += 1
        if abs(r[i - 1] - r[j - 1]) > tol:
            f6.witnesses.append((i, j, float(r[i - 1]), float(r[j - 1])))

    checks["F7"] = IncentiveCheck(witnesses=None)
    checks["F8"] = IncentiveCheck(witnesses=None)
    return IncentiveReport(checks)


def _sweep(game: Game, times: TimeVector, scheme: RewardScheme, tol: float):
    """The Shapley values and the F7/F8 report, from one own_time call."""
    _check_tolerance(tol)
    _check_per_party(game.n, times, "times")
    # counted in Python ints: t + 1 wraps in int64 at the top joining time
    sweep = sum(t + 1 for t in times.times)
    if sweep > np.iinfo(np.intp).max // 8:  # numpy's size limit for one float64 array
        raise ValueError(
            f"joining times {', '.join(map(str, times.times))} need {sweep} rewards "
            "in the F7/F8 sweep, more than one float64 array can hold"
        )
    v = game.table()  # refuses a game above the ceiling even if the scheme never reads it
    phi, reward = scheme.own_time(game, times)
    # every party at every t' <= t_i in one call, by party, then by ascending t'
    t = times.as_array()
    party = np.repeat(np.arange(1, game.n + 1), t + 1)
    t_new = np.concatenate([np.arange(t_i + 1) for t_i in t])
    r = reward(party, t_new)
    earlier = t_new < t[party - 1]
    base = r[~earlier][party - 1]
    # moving t_i leaves the other times, and so party i's synergy time, as they are
    synergy = _synergy_times(v, _coalition_layout(times))
    strict = earlier & (synergy[party - 1] < t_new)

    def check(fired: np.ndarray, failed: np.ndarray) -> IncentiveCheck:
        k = np.flatnonzero(fired & failed)
        columns = (party[k], t[party[k] - 1], t_new[k], base[k], r[k])
        return IncentiveCheck(int(fired.sum()), list(zip(*(c.tolist() for c in columns))))

    report = IncentiveReport(
        {"F7": check(earlier, r < base - tol), "F8": check(strict, ~(r > base + STRICT_MARGIN))}
    )
    return phi, report


def check_temporal(
    game: Game,
    times: TimeVector,
    scheme: RewardScheme,
    tol: float = DEFAULT_TOL,
) -> IncentiveReport:
    """Check F7/F8 against the rewards for every earlier joining time.

    For each party i and each t' < t_i, only t_i is changed.  One call
    of the scheme's own-time function gives every party's reward at
    every t' <= t_i; it runs the scheme's own preconditions, so
    cumulation and timeval refuse a game failing A1 or A3 with
    AxiomViolation.  F7 requires the reward not to drop; F8 requires a
    rise above STRICT_MARGIN whenever the strict-synergy predicate holds
    under the counterfactual times, read off each party's synergy time.
    Witnesses are listed by party, then by ascending t'.
    """
    return _sweep(game, times, scheme, tol)[1]


def full_incentive_report(
    game: Game,
    times: TimeVector,
    scheme: RewardScheme,
    tol: float = DEFAULT_TOL,
) -> tuple[RewardVector, IncentiveReport]:
    """Run a scheme, check all eight incentives, and scale the rewards as ``scale_rewards``.

    The Shapley values behind rho come from the F7/F8 own-time call.
    """
    r = scheme(game, times)
    phi, temporal = _sweep(game, times, scheme, tol)
    rewards = _scale(game, r.rewards, phi)
    static = check_static(game, times, rewards, tol)
    return rewards, IncentiveReport({**static.checks, **temporal.checks})


def check_weak_efficiency(
    game: Game, scaled, tol: float = DEFAULT_TOL, times: TimeVector | None = None
) -> bool:
    """True iff the best scaled reward matches the grand-coalition value.

    Only meaningful when every party joined at time 0; passing nonzero
    times raises PreconditionViolated.  tol must be finite and >= 0.
    """
    _check_tolerance(tol)
    if times is not None:
        _check_per_party(game.n, times, "times")
        if any(t != 0 for t in times.times):
            raise PreconditionViolated("weak efficiency is defined for all-zero joining times")
    if isinstance(scaled, RewardVector):
        arr = scaled.scaled if scaled.scaled is not None else scaled.rewards
    else:
        arr = np.asarray(scaled, dtype=float)
    return abs(float(arr.max()) - game.grand_value()) <= tol
