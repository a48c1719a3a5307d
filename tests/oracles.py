"""Reference definitions that the library's dividend-share kernel is checked against.

Each reference follows its definition literally and shares no code path
with the kernel: Shapley values average marginal contributions over
every permutation, interval values restrict the game to the parties
present, and time-aware values sum dividends from the subset recursion.
They are exponential or worse and meant for small games only.  The
tempered GP value is built from its virtual copies of the others'
points, one joint kernel over kept and conditioning points.
"""

import itertools

import numpy as np

from timereward import Coalition, Game, TimeVector, interval_weights, restrict_game
from timereward.rewards import cooperative_abilities
from timereward.valuation import GpModel, information_gain, se_kernel


def brute_force_shapley(game: Game) -> np.ndarray:
    """Average marginal contribution over every permutation of the parties."""
    n = game.n
    phi = np.zeros(n)
    count = 0
    for perm in itertools.permutations(range(n)):
        mask = 0
        prev = 0.0
        for p in perm:
            mask |= 1 << p
            cur = game.value_mask(mask)
            phi[p] += cur - prev
            prev = cur
        count += 1
    return phi / count


def interval_shapley_reference(game: Game, times: TimeVector) -> np.ndarray:
    """Per-interval Shapley values, shape (T+1, n), by restricting the game.

    Row tau is the Shapley value of the game restricted to the parties
    present at tau; parties not yet present stand in with their solo
    value.  Presence only changes at joining times, so each run of
    identical rows is computed once.
    """
    singles = game.singleton_values()
    rows = np.empty((times.max_time + 1, game.n))
    starts = sorted(set(times.times))
    rows[: starts[0]] = singles
    for start, stop in zip(starts, starts[1:] + [times.max_time + 1]):
        present = [i + 1 for i in range(game.n) if times[i] <= start]
        sub, original = restrict_game(game, present)
        row = singles.copy()
        row[np.array(original) - 1] = brute_force_shapley(sub)
        rows[start:stop] = row
    return rows


def reward_cumulation_reference(game: Game, times: TimeVector, beta: float) -> np.ndarray:
    """Interval cumulation by definition: per-interval values blended with the weights.

    Each party's blend is a pairwise-summed reduction, so long horizons
    add no more than rounding error of order log(T).
    """
    weights = interval_weights(times, beta)
    rows = interval_shapley_reference(game, times)
    return np.array([np.sum(weights * rows[:, i]) for i in range(game.n)])


def dividend_recursion(game: Game) -> np.ndarray:
    """Harsanyi dividends by the defining recursion, indexed by bitmask.

    d(T) = v(T) - sum of d over proper subsets, iterating masks in
    ascending order (subsets precede supersets numerically).  O(3**n).
    """
    v = game.table()
    d = np.zeros(1 << game.n)
    for mask in range(1, 1 << game.n):
        acc = 0.0
        sub = (mask - 1) & mask
        while sub:
            acc += d[sub]
            sub = (sub - 1) & mask
        d[mask] = v[mask] - acc
    return d


def time_aware_table_reference(game: Game, times: TimeVector, gamma: float) -> np.ndarray:
    """Time-aware value of every coalition straight from the dividend definition.

    Sums d(v, T) * min ability over T for every multi-member T inside the
    coalition plus the members' solo dividends.
    """
    lam = cooperative_abilities(times, gamma)
    d = dividend_recursion(game)
    table = np.zeros(1 << game.n)
    for c_mask in range(1, 1 << game.n):
        total = 0.0
        sub = c_mask
        while sub:
            members = Coalition.from_mask(sub, game.n).members
            if len(members) >= 2:
                total += d[sub] * min(lam[i - 1] for i in members)
            else:
                total += d[sub]
            sub = (sub - 1) & c_mask
        table[c_mask] = total
    return table


def tempered_value_reference(model: GpModel, party: int, kappa: float) -> float:
    """Tempered value I(theta; D_i + R_i | R_-i) from the virtual copies.

    The party's own points keep their noise; the others' points appear
    once at noise/kappa (kept) and once at noise/(1-kappa)
    (conditioning).  The kappa = 0 and 1 endpoints drop the infinitely
    noisy copy instead of dividing by zero.
    """
    own = model.points_of([party])
    others = model.points_of(p for p in range(1, model.n_parties + 1) if p != party)
    noise = model.noise_vector()

    if kappa == 0.0:
        kept_idx = own
        kept_noise = noise[own]
    else:
        kept_idx = np.concatenate([own, others])
        kept_noise = np.concatenate([noise[own], noise[others] / kappa])

    if kappa == 1.0:
        cond_idx = np.array([], dtype=int)
        cond_noise = np.array([])
    else:
        cond_idx = others
        cond_noise = noise[others] / (1.0 - kappa)

    joint_idx = np.concatenate([kept_idx, cond_idx])
    joint_noise = np.concatenate([kept_noise, cond_noise])
    K_joint = se_kernel(model.inputs[joint_idx], model.lengthscales, model.signal_variance)
    ig_joint = information_gain(K_joint, joint_noise)
    if len(cond_idx) == 0:
        return ig_joint
    K_cond = se_kernel(model.inputs[cond_idx], model.lengthscales, model.signal_variance)
    return ig_joint - information_gain(K_cond, cond_noise)
