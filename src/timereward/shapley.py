"""Exact and Monte-Carlo Shapley values, plus the naive time-division baseline.

Every exact Shapley-type value in this library is one formula over the
Harsanyi dividends d = Moebius(v) of the game:

    phi_i = v({i}) + sum over T containing i, |T| >= 2, of d(T) / |T| * D(t_T)

where t_T is the joining time of T's latest member.  Plain Shapley takes
D = 1; the time-aware schemes in ``rewards`` choose other discounts D.
``_dividend_shares`` buckets party i's shares by the latest joining time
u of T's other members, at O(n 2**n) cost.  As t_T = max(t_i, u), that
one bucketing gives party i's reward at any joining time of its own,
the other times held (``_own_time_reward``): the scheme's rewards, the
per-interval values and every F7/F8 counterfactual.  Summed over u it
gives plain Shapley, so one pass yields both.  Every scheme's rewards
are an own-time function at the real times (``_at_own_times``).  The
Monte-Carlo path samples permutations, unbiased: each credits every
party its marginal contribution over its predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .games import (
    Game,
    RewardVector,
    TimeVector,
    _bit_pairs,
    _check_per_party,
    _is_integer,
    subset_differences,
)

__all__ = ["ShapleyResult", "shapley_exact", "shapley_mc", "naive_time_division"]

# shapley_mc builds int64 coalition masks; 62 parties keep them clear of the sign bit
_MAX_MC_PARTIES = 62


@dataclass(frozen=True, eq=False)
class ShapleyResult:
    """Per-party Shapley values and how they were obtained."""

    values: np.ndarray
    method: str  # "exact" | "monte_carlo"
    permutations_used: int | None = None
    std_error: np.ndarray | None = None


def _coalition_layout(times: TimeVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct joining times u, and per mask its latest member's index in u and its size.

    Both per-mask tables are built by doubling: the masks in
    [2**i, 2**(i+1)) are the masks below 2**i with party i+1 added.
    """
    u, rank = np.unique(times.as_array(), return_inverse=True)
    size = 1 << len(times)
    latest = np.zeros(size, dtype=np.uint8)
    sizes = np.zeros(size, dtype=np.uint8)
    for i, r in enumerate(rank):
        low, high = slice(0, 1 << i), slice(1 << i, 2 << i)
        latest[high] = np.maximum(latest[low], int(r))
        sizes[high] = sizes[low] + 1
    return u, latest, sizes


def _split_dividends(v: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per mask, the dividend d(T) / |T| each member of T gets; 0 for single parties.

    Solo dividends are never shared or discounted, as every party keeps
    its own value v({i}).
    """
    split = subset_differences(v)
    split[1 << np.arange(v.size.bit_length() - 1)] = 0.0
    split[1:] /= sizes[1:]
    return split


def _dividend_shares(game: Game, times: TimeVector) -> tuple[np.ndarray, np.ndarray]:
    """Equal dividend shares of multi-member coalitions, bucketed by their other members' times.

    Returns the sorted distinct joining times u_0 < ... < u_k and the
    n x (k+1) matrix whose entry [i, j] sums d(T) / |T| over every T
    with |T| >= 2 that contains party i+1 and whose latest member other
    than party i+1 joined at u_j.  T's latest member then joined at
    max(t_{i+1}, u_j), whatever party i+1's time is.  Shares are
    accumulated one party at a time over the masks holding that party,
    so no n x 2**n matrix is formed.
    """
    v = game.table()  # first, so a game above the ceiling is refused before any 2**n array
    u, latest, sizes = _coalition_layout(times)
    split = _split_dividends(v, sizes)
    shares = np.empty((game.n, len(u)))
    pairs = zip(_bit_pairs(latest), _bit_pairs(split))
    for i, ((others, _), (_, split_with)) in enumerate(pairs):
        shares[i] = np.bincount(others.ravel(), weights=split_with.ravel(), minlength=len(u))
    return u, shares


def _own_time_reward(game: Game, times: TimeVector, discount):
    """Plain Shapley values, and each party's reward as a function of its own joining time.

    discount(latest, horizon) maps the joining times of dividends'
    latest members, and the latest joining time of all parties, to the
    dividends' discounts D; both broadcast.  Returns (phi, reward) from
    one dividend pass: phi_i = v({i}) + sum over u of s_i[u], and
    reward(i, t), party i's rewards v({i}) + sum over u of
    s_i[u] * D(max(t, u), max(t, o_i)) at the joining times t, the other
    times held, with o_i the latest time of the others.  i and t
    broadcast together, so reward(arange(1, n + 1), times) gives every
    party's reward at the real times; leading axes of D lead the result.
    """
    u, shares = _dividend_shares(game, times)
    singles = game.singleton_values()
    t = times.as_array()
    # the latest time of the other parties; the appended 0 serves a lone party
    first, second = np.sort(np.append(t, 0))[::-1][:2]
    others = np.where(t == first, second, first)

    def reward(i, t_own) -> np.ndarray:
        p, t_own = np.asarray(i) - 1, np.asarray(t_own)[..., None]
        d = discount(np.maximum(t_own, u), np.maximum(t_own, others[p][..., None]))
        return singles[p] + (shares[p] * d).sum(axis=-1)

    return singles + shares.sum(axis=1), reward


def shapley_exact(game: Game) -> ShapleyResult:
    """Shapley values as solo value plus equal shares of every dividend (n <= 24)."""
    _, shares = _dividend_shares(game, TimeVector((0,) * game.n))
    # a value past the float range is returned as is: reward vectors, rho and
    # the shapley command's report refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        values = game.singleton_values() + shares.sum(axis=1)
    return ShapleyResult(values=values, method="exact")


def _sample_permutations(n: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    perms = np.tile(np.arange(n), (m, 1))
    rng.permuted(perms, axis=1, out=perms)
    return perms


def shapley_mc(game: Game, permutations: int, seed: int) -> ShapleyResult:
    """Permutation-sampling Shapley estimate, deterministic per seed.

    Reports the per-party standard error from the sample variance of the
    marginal contributions.  For additive games every permutation yields
    the same marginals, so the estimate is exact with zero error.

    Games with a table are evaluated vectorised; oracle games are asked
    for each visited prefix, so only those are computed.  Both paths
    accumulate in the same order and return identical results.
    Coalitions are int64 bitmasks, so n is limited to 62 parties; larger
    games raise TooLarge.
    """
    if not _is_integer(permutations):
        raise ValueError(f"permutations must be an integer, got {permutations!r}")
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    n = game.n
    if n > _MAX_MC_PARTIES:
        raise TooLarge(f"Monte-Carlo Shapley needs n <= {_MAX_MC_PARTIES}, got {n}")
    m = int(permutations)
    perms = _sample_permutations(n, m, seed)
    sums = np.zeros(n)
    sumsq = np.zeros(n)
    table = game._table
    cur_mask = np.zeros(m, dtype=np.int64)
    prev = np.zeros(m)
    for k in range(n):
        p = perms[:, k]
        cur_mask |= np.int64(1) << p
        if table is not None:
            cur = table[cur_mask]
        else:
            cur = np.array([game.value_mask(int(mask)) for mask in cur_mask])
        marginal = cur - prev
        np.add.at(sums, p, marginal)
        np.add.at(sumsq, p, marginal * marginal)
        prev = cur
    values = sums / m
    if m > 1:
        var = np.maximum(sumsq - m * values * values, 0.0) / (m - 1)
        std_error = np.sqrt(var / m)
    else:
        std_error = np.zeros(n)
    return ShapleyResult(
        values=values, method="monte_carlo", permutations_used=m, std_error=std_error
    )


def _at_own_times(own_time, game: Game, times: TimeVector) -> RewardVector:
    """The rewards of an own-time function: every party's reward at its real joining time."""
    _check_per_party(game.n, times, "times")
    _, reward = own_time(game, times)
    return RewardVector(reward(np.arange(1, game.n + 1), times.as_array()))


def _from_shapley(share):
    """The own-time reward share(phi_i, t) of one Shapley value phi."""

    def own_time(game: Game, times: TimeVector):
        phi = shapley_exact(game).values
        return phi, lambda i, t: share(phi[np.asarray(i) - 1], np.asarray(t))

    return own_time


# the own-time rewards of the naive baseline and of plain Shapley
_naive = _from_shapley(lambda phi, t: phi / (t + 1.0))
_plain = _from_shapley(lambda phi, t: phi + np.zeros(t.shape))


def naive_time_division(game: Game, times: TimeVector) -> RewardVector:
    """The counterexample baseline: phi_i / (t_i + 1).

    Provided only to demonstrate how dividing by joining time breaks
    individual rationality and necessity; not a recommended scheme.
    """
    return _at_own_times(_naive, game, times)
