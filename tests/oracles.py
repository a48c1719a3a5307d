"""Reference definitions that the library's dividend-share kernel is checked against.

Each reference follows its definition literally and shares no code path
with the kernel: Shapley values average marginal contributions over
every permutation, interval values restrict the game to the parties
present, and time-aware values sum dividends from the subset recursion.
The game-table reference parses each key into a Coalition and serves
values from a dict through an oracle closure.
They are exponential or worse and meant for small games only.  The
tempered GP value is built from its virtual copies of the others'
points, one joint kernel over kept and conditioning points; the
conditional IG table and the greedy GP subset factorize one kernel per
coalition or per step, and the greedy table subset looks up each prefix
of the joining order only as the scan reaches it.  The GP predictive
solves one joint kernel with np.linalg.solve, and the tempered model's
is the predictive from its own points and the others' points at
noise/kappa.  The plain IG table
walk factors with scipy.linalg.cholesky and copies every block, so the
library's direct LAPACK calls and in-place updates can be checked bit
for bit.  The axiom and incentive checks enumerate their quantifiers
coalition by coalition with submask loops, in the scan order whose first
worst pair the library reports as its witness; the blocked superadditivity
scan reads every block of disjoint pairs, with no bound to skip any.
"""

import itertools
import math
import numbers
import re

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from timereward import (
    AxiomReport,
    Coalition,
    Game,
    IncentiveReport,
    InvalidCoalitionKey,
    MissingCoalition,
    SubsetReward,
    TargetOutOfRange,
    TimeVector,
    gp_ig,
    interval_weights,
)
from timereward.incentives import IncentiveCheck
from timereward.rewards import cooperative_abilities
from timereward.synthdata import PredictiveDistribution
from timereward.valuation import GpModel, information_gain, se_kernel


def coalition_from_key_reference(key: str, n: int) -> Coalition:
    """Parse a wire key: comma-separated ascending ASCII-digit indices, "" for the empty set."""
    if not isinstance(key, str):
        raise InvalidCoalitionKey(f"coalition key {key!r} is of type {type(key).__name__}, not str")
    key = key.strip()
    if key == "":
        return Coalition((), n)
    members = []
    for p in key.split(","):
        p = p.strip()
        if not re.fullmatch("[0-9]+", p):
            raise InvalidCoalitionKey(f"malformed coalition key {key!r}")
        members.append(int(p))
    for a, b in zip(members, members[1:]):
        if b <= a:
            raise InvalidCoalitionKey(f"coalition key not strictly ascending: {key!r}")
    return Coalition(tuple(members), n)


def canonical_masks(n: int) -> dict[str, int]:
    """Map each canonical key (``Coalition.key()``) of n parties to its mask.

    Built by doubling: the keys of masks in [2**i, 2**(i+1)) are those of
    the masks below 2**i with party i+1 appended.
    """
    keys = [""]
    for i in range(1, n + 1):
        suffix = f",{i}"
        keys += [str(i)] + [key + suffix for key in keys[1:]]
    return dict(zip(keys, range(1 << n)))


def table_game_reference(n: int, values) -> Game:
    """A coalition-key -> value mapping as an oracle game, one Coalition per key.

    Each entry is read in mapping order, its key before its value, and
    the first bad one is refused: a malformed key, a value that is not a
    real number (a bool is not one), an integer past the float range, a
    non-finite value, a non-zero value for the empty coalition.  Once
    every key and value is valid, the first key that names the coalition
    of an earlier key is refused.
    """
    if n < 1:
        raise ValueError("party count must be >= 1")
    by_mask: dict[int, float] = {}
    named: dict[int, str] = {}  # mask -> the first key that names it
    repeats = []
    for key, val in values.items():
        coalition = coalition_from_key_reference(key, n)
        if isinstance(val, bool) or not isinstance(val, numbers.Real):
            raise ValueError(f"coalition {key!r} has non-numeric value {val!r}")
        try:
            val = float(val)
        except OverflowError:
            raise ValueError(f"coalition {key!r} has a value too large for a float") from None
        if not math.isfinite(val):
            raise ValueError(f"coalition {key!r} has non-finite value {val}")
        if coalition.mask == 0 and val != 0.0:
            raise InvalidCoalitionKey("empty coalition must have value 0")
        by_mask[coalition.mask] = val
        if coalition.mask in named:
            repeats.append((coalition, named[coalition.mask], key))
        else:
            named[coalition.mask] = key
    if repeats:
        coalition, first, second = repeats[0]
        raise InvalidCoalitionKey(
            f"coalition {coalition.key()!r} is named twice, as {first!r} and {second!r}"
        )

    def oracle(mask: int) -> float:
        try:
            return by_mask[mask]
        except KeyError:
            raise MissingCoalition(
                f"coalition {Coalition.from_mask(mask, n).key()!r} not in table"
            ) from None

    return Game(n, oracle)


def restrict_game(game: Game, members) -> tuple[Game, tuple[int, ...]]:
    """Restrict a game to a subset of its parties.

    Returns the restricted game (parties renumbered 1..k in ascending
    order of the original indices) together with the original indices.
    Values are read through the parent game.
    """
    members = tuple(sorted(set(members)))
    bits = [1 << (i - 1) for i in members]

    def oracle(sub_mask: int) -> float:
        parent = 0
        j = 0
        while sub_mask:
            if sub_mask & 1:
                parent |= bits[j]
            sub_mask >>= 1
            j += 1
        return game.value_mask(parent)

    return Game(len(members), oracle), members


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


def conditional_ig_table_reference(model: GpModel) -> np.ndarray:
    """IG(all points) - IG(points of the complement) for every coalition, by bitmask."""
    total = gp_ig(model, np.arange(model.n_points))
    full = (1 << model.n_parties) - 1
    return np.array(
        [total - gp_ig(model, model.points_of_mask(full ^ mask)) for mask in range(full + 1)]
    )


def select_subset_reference(model: GpModel, party: int, target: float, seed: int) -> SubsetReward:
    """Greedy GP subset: append shuffled donor points, refactorizing the rest each step."""
    donors = [int(k) for k in model.points_of(p for p in range(1, model.n_parties + 1) if p != party)]
    own = [int(k) for k in model.points_of([party])]
    everything = np.arange(model.n_points)
    total = gp_ig(model, everything)

    def value(selected):
        return total - gp_ig(model, np.setdiff1d(everything, selected))

    floor = value(own)
    if target < floor - 1e-12 or target > total + 1e-12:
        raise TargetOutOfRange(
            f"target {float(target)!r} outside achievable [{float(floor)!r}, {float(total)!r}]"
        )
    selected = list(own)
    achieved = floor
    if achieved >= target:
        return SubsetReward(party, tuple(selected), achieved, target, seed)
    for pos in np.random.default_rng(seed).permutation(len(donors)):
        selected.append(donors[pos])
        achieved = value(selected)
        if achieved > target:
            return SubsetReward(party, tuple(selected), achieved, target, seed)
    return SubsetReward(party, tuple(selected), achieved, target, seed, saturated=True)


def select_subset_table_reference(game: Game, party: int, target: float, seed: int) -> SubsetReward:
    """Greedy table subset: append shuffled donor parties, looking up each new prefix."""
    donors = [p for p in range(1, game.n + 1) if p != party]
    selected = [party]
    achieved, total = game.value(selected), game.grand_value()
    if target < achieved - 1e-12 or target > total + 1e-12:
        raise TargetOutOfRange(
            f"target {float(target)!r} outside achievable [{float(achieved)!r}, {float(total)!r}]"
        )
    if achieved >= target:
        return SubsetReward(party, tuple(selected), achieved, target, seed)
    for pos in np.random.default_rng(seed).permutation(len(donors)):
        selected.append(donors[pos])
        achieved = game.value(selected)
        if achieved > target:
            return SubsetReward(party, tuple(selected), achieved, target, seed)
    return SubsetReward(party, tuple(selected), achieved, target, seed, saturated=True)


def gp_posterior_reference(
    model: GpModel, targets, idx, point_noise, X_test
) -> PredictiveDistribution:
    """GP predictive from the points idx at the given noise, by K + diag(noise) and np.linalg.solve.

    The predictive variance adds the model's observation noise: its
    scalar noise, else the mean of its per-point noise.
    """
    X = model.inputs[idx]
    ls, signal = model.lengthscales, model.signal_variance
    K = se_kernel(X, ls, signal) + np.diag(point_noise)
    K_star = se_kernel(X, ls, signal, X_test)
    mean = K_star.T @ np.linalg.solve(K, np.asarray(targets, dtype=float)[idx])
    var_f = signal - np.sum(K_star * np.linalg.solve(K, K_star), axis=0)
    return PredictiveDistribution(mean, np.maximum(var_f, 0.0) + np.mean(model.noise_variance))


def tempered_predictive_reference(
    model: GpModel, targets, party: int, kappa: float, X_test
) -> PredictiveDistribution:
    """Predictive of party's tempered model reward: own points plus the others' at noise/kappa.

    One joint kernel over all the conditioning points; kappa = 0 keeps
    the own points only.
    """
    own = model.points_of([party])
    others = model.points_of(p for p in range(1, model.n_parties + 1) if p != party)
    noise = model.noise_vector()
    if kappa == 0.0:
        return gp_posterior_reference(model, targets, own, noise[own], X_test)
    idx = np.concatenate([own, others])
    point_noise = np.concatenate([noise[own], noise[others] / kappa])
    return gp_posterior_reference(model, targets, idx, point_noise, X_test)


def scipy_cholesky_reference(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor through scipy.linalg.cholesky, with the library's jitter ladder."""
    try:
        return scipy.linalg.cholesky(mat, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(mat)))
    jitter = 1e-8
    while jitter <= 1e-2:
        try:
            return scipy.linalg.cholesky(mat + jitter * scale * np.eye(len(mat)), lower=True)
        except scipy.linalg.LinAlgError:
            jitter *= 10.0
    raise AssertionError("the reference factor failed")


def ig_table_walk_reference(model: GpModel) -> np.ndarray:
    """Plain IG of every coalition by the depth-first Schur-complement walk, on scipy wrappers.

    The library's whitened kernel, order of parties and arithmetic, with
    each factor from scipy.linalg.cholesky, each cross block X =
    S[later, p] L_p^-T from the dtrsm wrapper, and a fresh Fortran copy
    of every child's block, which the dsyrk wrapper updates to
    S[later, later] - X X^T in its lower triangle.
    """
    n = model.n_parties
    order = np.argsort(model.ownership, kind="stable")
    inv_sqrt = 1.0 / np.sqrt(model.noise_vector()[order])
    B = se_kernel(model.inputs[order], model.lengthscales, model.signal_variance)
    B *= inv_sqrt[:, None]
    B *= inv_sqrt[None, :]
    B[np.diag_indices_from(B)] += 1.0
    bounds = np.searchsorted(model.ownership[order], np.arange(1, n + 2))
    table = np.zeros(1 << n)

    def extend(mask: int, S: np.ndarray, first: int):
        for p in range(first, n):
            start, stop = bounds[p : p + 2] - bounds[first]
            later = S[stop:, stop:].copy(order="F")
            child = mask | 1 << p
            table[child] = table[mask]
            if stop > start:
                L = scipy_cholesky_reference(S[start:stop, start:stop])
                table[child] += np.sum(np.log(np.diagonal(L)))
                if len(later):
                    X = scipy.linalg.blas.dtrsm(
                        1.0, L, S[stop:, start:stop], side=1, lower=1, trans_a=1
                    )
                    later = scipy.linalg.blas.dsyrk(-1.0, X, beta=1.0, c=later, lower=1)
            extend(child, later, p + 1)

    extend(0, B, 0)
    return table


def _submasks(mask: int):
    """All submasks of mask including 0, descending."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def check_axioms_reference(game: Game, tol: float) -> AxiomReport:
    """A1-A3 by enumerating every nested and every disjoint coalition pair.

    Monotonicity scans C ascending and B over C's proper non-empty
    submasks descending; superadditivity scans B ascending and S > B over
    the submasks of B's complement descending.  The first pair with the
    largest gap above tol is the witness.
    """
    n = game.n
    v = game.table()
    full = (1 << n) - 1
    witnesses = {}

    worst_mask = int(np.argmin(v))
    if v[worst_mask] < -tol:
        witnesses["nonneg"] = (Coalition.from_mask(worst_mask, n),)

    worst_gap = tol
    worst_pair = None
    for c_mask in range(1, full + 1):
        vc = v[c_mask]
        sub = (c_mask - 1) & c_mask
        while sub:
            gap = v[sub] - vc
            if gap > worst_gap:
                worst_gap = gap
                worst_pair = (sub, c_mask)
            sub = (sub - 1) & c_mask
    if worst_pair is not None:
        witnesses["monotone"] = tuple(Coalition.from_mask(m, n) for m in worst_pair)

    worst_gap = tol
    worst_pair = None
    for b_mask in range(1, full + 1):
        comp = full ^ b_mask
        vb = v[b_mask]
        sub = comp
        while sub:
            if sub > b_mask:
                gap = vb + v[sub] - v[b_mask | sub]
                if gap > worst_gap:
                    worst_gap = gap
                    worst_pair = (b_mask, sub)
            sub = (sub - 1) & comp
    if worst_pair is not None:
        witnesses["superadditive"] = tuple(Coalition.from_mask(m, n) for m in worst_pair)

    return AxiomReport(witnesses)


def blocked_scan_reference(v: np.ndarray, tol: float) -> tuple[int, int] | None:
    """Disjoint (B, S) with the largest v(B) + v(S) - v(B | S) above tol, or None: every block read.

    The unpruned blocked scan, fast enough for n = 12-18 where
    check_axioms_reference is not.  Each pair is a ternary string, one
    digit per party (0 = in neither, 1 = in B, 2 = in S); a block fixes
    the digits above the low 8 parties and gathers v(B), v(S) and
    v(B | S) for its 3**8 strings.  Party n is never in B, so the
    smallest coalition among the worst pairs is met as B: ties go to the
    smallest B, then to the largest S.
    """

    def pairs_over(k: int):
        b = s = np.zeros(1, dtype=np.intp)
        for i in range(k):
            b, s = np.concatenate((b, b | 1 << i, b)), np.concatenate((s, s, s | 1 << i))
        return b, s

    n = len(v).bit_length() - 1
    low = min(n - 1, 8)
    b_low, s_low = pairs_over(low)
    u_low = b_low | s_low
    width = 1 << low
    high_b, high_s = pairs_over(n - 1 - low)
    top = 1 << (n - 1 - low)
    high_b = np.concatenate((high_b, high_b)) << low
    high_s = np.concatenate((high_s, high_s | top)) << low
    worst, pairs = tol, []
    with np.errstate(over="ignore"):
        for b0, s0 in zip(high_b.tolist(), high_s.tolist()):
            u0 = b0 | s0
            gap = v[b0:b0 + width][b_low] + v[s0:s0 + width][s_low] - v[u0:u0 + width][u_low]
            most = gap.max()
            if most > worst:
                worst, pairs = most, []
            if most == worst > tol:
                k = np.flatnonzero(gap == most)
                b, s = b0 + b_low[k], s0 + s_low[k]
                pairs.append((int(b.min()), int(s[b == b.min()].max())))
    return min(pairs, key=lambda pair: (pair[0], -pair[1]), default=None)


def necessity_reference(game: Game, i: int, j: int, tol: float) -> bool:
    """Every coalition missing party i or party j is worthless."""
    v = game.table()
    both = (1 << (i - 1)) | (1 << (j - 1))
    return all(
        abs(v[mask]) <= tol for mask in range(1 << game.n) if (mask & both) != both
    )


def strictness_reference(game: Game, times: TimeVector, i: int) -> bool:
    """Some subset C of party i's predecessors has v(C + i) > v(C) + v(i)."""
    v = game.table()
    bi = 1 << (i - 1)
    preds = sum(1 << k for k in range(game.n) if times[k] < times[i - 1])
    return any(v[c | bi] > v[c] + v[bi] for c in _submasks(preds))


def check_temporal_reference(game: Game, times: TimeVector, scheme, tol: float,
                             strict_margin: float = 1e-12) -> IncentiveReport:
    """F7/F8 by re-running the scheme and enumerating strictness per counterfactual."""
    base = scheme(game, times).rewards
    f7 = IncentiveCheck()
    f8 = IncentiveCheck()
    for i in range(1, game.n + 1):
        for t_new in range(times[i - 1]):
            moved = times.with_time(i, t_new)
            shifted = scheme(game, moved).rewards
            witness = (i, times[i - 1], t_new, float(base[i - 1]), float(shifted[i - 1]))
            f7.instances += 1
            if shifted[i - 1] < base[i - 1] - tol:
                f7.witnesses.append(witness)
            if strictness_reference(game, moved, i):
                f8.instances += 1
                if not shifted[i - 1] > base[i - 1] + strict_margin:
                    f8.witnesses.append(witness)
    return IncentiveReport({"F7": f7, "F8": f8})


def check_static_reference(game: Game, times: TimeVector, rewards, tol: float,
                           strict_margin: float = 1e-12) -> IncentiveReport:
    """F1-F6 by enumerating every coalition each quantifier ranges over."""
    r = np.asarray(rewards, dtype=float)
    n = game.n
    v = game.table()
    full = (1 << n) - 1
    checks = {}

    bad = [(i + 1, float(r[i])) for i in range(n) if r[i] < -tol]
    checks["F1"] = IncentiveCheck(n, bad)

    singles = game.singleton_values()
    bad = [(i + 1, float(r[i]), float(singles[i])) for i in range(n) if r[i] < singles[i] - tol]
    checks["F2"] = IncentiveCheck(n, bad)

    f3 = IncentiveCheck()
    f4 = IncentiveCheck()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if times[i - 1] != times[j - 1]:
                continue
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            diffs = [v[c | bi] - v[c | bj] for c in _submasks(full ^ bi ^ bj)]
            hi, lo = max(diffs), min(diffs)
            if max(abs(hi), abs(lo)) <= tol:
                f3.instances += 1
                if abs(r[i - 1] - r[j - 1]) > tol:
                    f3.witnesses.append((i, j, float(r[i - 1]), float(r[j - 1])))
            elif hi > tol and lo >= -tol:
                f4.instances += 1
                if not r[i - 1] > r[j - 1] + strict_margin:
                    f4.witnesses.append((i, j, float(r[i - 1]), float(r[j - 1])))
            elif lo < -tol and hi <= tol:
                f4.instances += 1
                if not r[j - 1] > r[i - 1] + strict_margin:
                    f4.witnesses.append((j, i, float(r[j - 1]), float(r[i - 1])))
            else:
                f4.skipped.append((i, j))
    checks["F3"], checks["F4"] = f3, f4

    f5 = IncentiveCheck()
    for i in range(1, n + 1):
        bi = 1 << (i - 1)
        if all(abs(v[c | bi] - v[c]) <= tol for c in _submasks(full ^ bi)):
            f5.instances += 1
            if abs(r[i - 1]) > tol:
                f5.witnesses.append((i, float(r[i - 1])))
    checks["F5"] = f5

    f6 = IncentiveCheck()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if necessity_reference(game, i, j, tol):
                f6.instances += 1
                if abs(r[i - 1] - r[j - 1]) > tol:
                    f6.witnesses.append((i, j, float(r[i - 1]), float(r[j - 1])))
    checks["F6"] = f6

    checks["F7"] = IncentiveCheck(witnesses=None)
    checks["F8"] = IncentiveCheck(witnesses=None)
    return IncentiveReport(checks)
