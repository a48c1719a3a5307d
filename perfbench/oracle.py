"""Reference values the benchmark checks the CLI's outputs against.

Written with numpy alone, so it shares no code with ``timereward``.
Every reward is one use of the discounted-dividend formula

    phi_i = d({i}) + sum over T containing i, |T| >= 2, of d(T) / |T| * D(max_{j in T} t_j)

where d is the Harsanyi dividend (Moebius transform) of the value table
and D is the scheme's discount: the tail of the normalized geometric
interval weights for interval cumulation, max(exp(-gamma s), tiny) for
time-aware valuation, and 1 for plain Shapley.
"""

from __future__ import annotations

import numpy as np

_TINY = float(np.finfo(float).tiny)


def _pairs(arr: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the masks without and with ``bit``, aligned element by element."""
    view = arr.reshape(-1, 2, bit)
    return view[:, 0, :], view[:, 1, :]


def mobius(table: np.ndarray) -> np.ndarray:
    """Harsanyi dividends of a value table indexed by bitmask."""
    d = np.array(table, dtype=float)
    bit = 1
    while bit < len(d):
        without, with_ = _pairs(d, bit)
        with_ -= without
        bit <<= 1
    return d


def coalition_max_time(times) -> np.ndarray:
    """Latest joining time of every coalition (0 for the empty one)."""
    out = np.zeros(1 << len(times))
    for i, t in enumerate(times):
        without, with_ = _pairs(out, 1 << i)
        with_[:] = np.maximum(without, t)
    return out


def coalition_sizes(n: int) -> np.ndarray:
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        without, with_ = _pairs(out, 1 << i)
        with_[:] = without + 1
    return out


def discounted_shares(table: np.ndarray, times, discount) -> np.ndarray:
    """The discounted-dividend formula above; ``discount`` maps latest times to D."""
    n = len(times)
    d = mobius(table)
    sizes = coalition_sizes(n)
    weight = np.asarray(discount(coalition_max_time(times)), dtype=float)
    weight = np.where(sizes == 1, 1.0, weight)
    coef = np.zeros_like(d)
    coef[1:] = d[1:] * weight[1:] / sizes[1:]
    return np.array([_pairs(coef, 1 << i)[1].sum() for i in range(n)])


def plain_shapley(table: np.ndarray, n: int) -> np.ndarray:
    return discounted_shares(table, [0] * n, lambda s: np.ones_like(s))


def cumulation_rewards(table: np.ndarray, times, beta: float) -> np.ndarray:
    horizon = max(times)
    w = float(beta) ** np.arange(horizon + 1, dtype=float)
    tail = np.cumsum((w / w.sum())[::-1])[::-1]
    return discounted_shares(table, times, lambda s: tail[s.astype(int)])


def timeval_rewards(table: np.ndarray, times, gamma: float) -> np.ndarray:
    return discounted_shares(
        table, times, lambda s: np.maximum(np.exp(-float(gamma) * s), _TINY)
    )


def naive_rewards(table: np.ndarray, times) -> np.ndarray:
    return plain_shapley(table, len(times)) / (np.asarray(times, dtype=float) + 1.0)


def expected_rewards(table: np.ndarray, times, scheme: str, param) -> dict:
    """Rewards and rho = v(N) / max plain Shapley value for one ``rewards`` job."""
    n = len(times)
    if scheme == "cumulation":
        r = cumulation_rewards(table, times, param)
    elif scheme == "timeval":
        r = timeval_rewards(table, times, param)
    elif scheme == "naive":
        r = naive_rewards(table, times)
    else:
        raise ValueError(f"no reference for scheme {scheme!r}")
    rho = float(table[-1]) / float(plain_shapley(table, n).max())
    return {"rewards": r, "rho": rho}


def subsets_of(mask: int):
    """Every submask of ``mask``, including 0 and ``mask``."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def lowered_coalition_gaps(base: np.ndarray, lowered_mask: int, new_value: float) -> dict:
    """Largest monotonicity and superadditivity gaps after lowering one value.

    ``base`` must have non-negative dividends, which makes it monotone
    and superadditive (every gap is <= 0).  Setting v(U) = new_value
    below v(U) then changes only pairs that involve U, and a gap can
    turn positive only where U is the superset (monotonicity) or the
    union (superadditivity).  So enumerating the subsets of U gives the
    exact maxima over all pairs of the lowered game.
    """
    d = mobius(base)
    if d.min() < 0.0:
        raise ValueError("base game has a negative dividend")
    mono = max(base[b] for b in subsets_of(lowered_mask) if b and b != lowered_mask)
    sup = max(
        base[b] + base[lowered_mask ^ b]
        for b in subsets_of(lowered_mask)
        if b and b != lowered_mask
    )
    return {"monotone": float(mono - new_value), "superadditive": float(sup - new_value)}
