"""Enumerative checkers for the eight reward incentives.

F1 non-negativity, F2 individual rationality, F3 equal-time symmetry,
F4 equal-time desirability, F5 uselessness, F6 necessity, F7 time-based
monotonicity, F8 time-based strict monotonicity.  Each check is
(fired, failed, columns) over one array of instances, read off by
``_check``: parties (F1, F2, F5), pairs i < j (F3, F4, F6) or every
party at every earlier joining time (F7, F8).  Every quantifier is
decided exhaustively (never sampled) as an array reduction over the
2**n value table: F3/F4 over the views of the table as an n-axis cube
that hold one party of a pair but not the other, F5 and F8 over the
per-party (without, with) views, F6 from the AND of the masks of the
coalitions worth more than tol.  Party counts above the exact ceiling are refused (by
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

import functools
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
from .shapley import _at_own_times, _coalition_layout, _naive, _plain, naive_time_division
from .rewards import (
    _ability_discount,
    _cumulation_discount,
    _discounted,
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

    Every built-in ``fn`` is its scheme's own-time function evaluated at
    the real joining times (``shapley._at_own_times``).  The field stays
    only because the benchmark patches ``incentives.reward_cumulation``
    and traces the functions ``fn`` calls by name.
    """

    name: str
    param: float | None
    fn: Callable[[Game, TimeVector], RewardVector]
    own_time: Callable[[Game, TimeVector], tuple[np.ndarray, Callable[..., np.ndarray]]]

    def __call__(self, game: Game, times: TimeVector) -> RewardVector:
        return self.fn(game, times)


def cumulation_scheme(beta: float) -> RewardScheme:
    return RewardScheme(
        "cumulation",
        float(beta),
        # looks reward_cumulation up in this module at call time, so that
        # patching incentives.reward_cumulation changes the scheme's rewards
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


def naive_scheme() -> RewardScheme:
    return RewardScheme("naive", None, naive_time_division, _naive)


def shapley_scheme() -> RewardScheme:
    """Plain Shapley rewards; ignores joining times, but needs one per party."""
    return RewardScheme("shapley", None, lambda g, t: _at_own_times(_plain, g, t), _plain)


def _check(fired: np.ndarray, failed: np.ndarray, *columns: np.ndarray) -> IncentiveCheck:
    """An incentive's instance count, and its witnesses: the columns where it fired and failed."""
    bad = fired & failed
    witnesses = list(zip(*(c[bad].tolist() for c in columns))) if bad.any() else []
    return IncentiveCheck(int(np.count_nonzero(fired)), witnesses)


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Parties i and j of every pair i < j, by i, then by j; read-only, as every call shares them."""
    a, b = (k + 1 for k in np.triu_indices(n, 1))
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _necessary(v: np.ndarray, tol: float) -> np.ndarray:
    """Per party i, whether |v| <= tol on every coalition missing i.

    That is, whether i is in every coalition worth more than tol: a bit
    of the AND of those masks (all bits set if there is none).
    """
    common = np.bitwise_and.reduce(np.flatnonzero(np.abs(v) > tol))
    return (common >> np.arange(v.size.bit_length() - 1)) & 1 == 1


def necessity_predicate(game: Game, i: int, j: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff every coalition missing party i or party j is worthless."""
    _check_tolerance(tol)
    _check_party(game.n, i)
    _check_party(game.n, j)
    return bool(_necessary(game.table(), tol)[[i - 1, j - 1]].all())


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
    with np.errstate(over="ignore"):  # v(C) + v(i) past the float range exceeds every value
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


def check_static(
    game: Game,
    times: TimeVector,
    rewards,
    tol: float = DEFAULT_TOL,
) -> IncentiveReport:
    """Check F1-F6 for a concrete reward vector (a RewardVector or an array).

    Non-finite rewards are refused.  Preconditioned incentives whose
    preconditions never fire report pass with zero instances.
    Equal-time pairs that are neither symmetric nor one-sided within the
    tolerance constrain nothing; they are listed as skipped on F4 rather
    than guessed at.
    """
    _check_tolerance(tol)
    _check_per_party(game.n, times, "times")
    r = RewardVector.of(rewards).rewards
    _check_per_party(game.n, r, "rewards")
    n = game.n
    v = game.table()
    cube = v.reshape((2,) * n)
    # F3/F4 over the equal-time pairs: the range of v(C + i) - v(C + j)
    a, b = _pairs(n)
    t = times.as_array()
    equal = t[a - 1] == t[b - 1]
    hi, lo = np.zeros(len(a)), np.zeros(len(a))
    # v and r are finite, so a difference past the float range is +-inf and never
    # within tol: its pair is not symmetric, its rewards unequal, its party not useless
    with np.errstate(over="ignore"):
        for k in np.flatnonzero(equal):
            diff = _holding_one(cube, a[k], b[k]) - _holding_one(cube, b[k], a[k])
            hi[k], lo[k] = diff.max(), diff.min()
        unequal = np.abs(r[a - 1] - r[b - 1]) > tol
        useless = np.array([np.abs(w - wo).max() <= tol for wo, w in _bit_pairs(v)])
    symmetric = equal & (np.maximum(np.abs(hi), np.abs(lo)) <= tol)
    one_sided = equal & ~symmetric & ((hi > tol) != (lo < -tol))
    better, worse = np.where(hi > tol, a, b), np.where(hi > tol, b, a)
    r_better, r_worse = r[better - 1], r[worse - 1]
    outearns = r_better > r_worse + STRICT_MARGIN
    f4 = _check(one_sided, ~outearns, better, worse, r_better, r_worse)
    skipped = equal & ~symmetric & ~one_sided
    f4.skipped = list(zip(a[skipped].tolist(), b[skipped].tolist()))

    pair = (a, b, r[a - 1], r[b - 1])
    party = np.arange(1, n + 1)
    every = np.ones(n, dtype=bool)
    singles = v[1 << (party - 1)]
    necessary = _necessary(v, tol)
    return IncentiveReport({
        "F1": _check(every, r < -tol, party, r),
        "F2": _check(every, r < singles - tol, party, r, singles),
        "F3": _check(symmetric, unequal, *pair),
        "F4": f4,
        "F5": _check(useless, np.abs(r) > tol, party, r),
        "F6": _check(necessary[a - 1] & necessary[b - 1], unequal, *pair),
        "F7": IncentiveCheck(witnesses=None),
        "F8": IncentiveCheck(witnesses=None),
    })


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
    columns = (party, t[party - 1], t_new, base, r)
    return phi, IncentiveReport({
        "F7": _check(earlier, r < base - tol, *columns),
        "F8": _check(strict, ~(r > base + STRICT_MARGIN), *columns),
    })


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
    times raises PreconditionViolated.  tol must be finite and >= 0, and
    non-finite rewards are refused.
    """
    _check_tolerance(tol)
    if times is not None:
        _check_per_party(game.n, times, "times")
        if any(t != 0 for t in times.times):
            raise PreconditionViolated("weak efficiency is defined for all-zero joining times")
    scaled = RewardVector.of(scaled)
    arr = scaled.scaled if scaled.scaled is not None else scaled.rewards
    return abs(float(arr.max()) - game.grand_value()) <= tol
