"""Turn target reward values into concrete model rewards.

Likelihood tempering raises the other parties' Gaussian likelihood to a
power kappa in [0, 1].  Precisions add, so for a GP the tempered value
is IG(all points) - IG(others' points at noise sigma^2/(1-kappa)), which
is IG(all) - 0.5 * sum_k log1p((1 - kappa) * lambda_k) with lambda_k the
eigenvalues of the others' whitened kernel.  One eigendecomposition per
model and party (kept while the model lives) makes every bisection step
O(m).  Subset selection instead adds shuffled points from the other
parties until the conditional value first exceeds the target; it works
for any valuation but is only approximate.  On a GP the points left out
after k additions are the last ones in joining order, so one Cholesky
factor of the donors in reversed joining order gives every step's value
from the cumulative sum of its log diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import TargetOutOfRange
from .games import Game, _check_party, _check_tolerance
from .valuation import GpModel, _point_indices, _robust_cholesky, _whitened_kernel, gp_ig

__all__ = [
    "TemperedReward",
    "SubsetReward",
    "tempered_value",
    "temper",
    "select_subset",
    "conditional_point_value",
]

_BISECT_MAX_ITER = 200
_KAPPA_FLOOR = 1e-14


@dataclass(frozen=True)
class TemperedReward:
    party: int
    kappa: float
    achieved_value: float
    target_value: float


@dataclass(frozen=True)
class SubsetReward:
    party: int
    selected: tuple[int, ...]
    achieved_value: float
    target_value: float
    seed: int
    saturated: bool = False


def _check_target(target: float):
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")


def _check_reachable(target: float, lo: float, hi: float, slack: float):
    """Refuse a target more than slack outside [lo, hi], printing all three in full."""
    if target < lo - slack or target > hi + slack:
        raise TargetOutOfRange(
            f"target {float(target)!r} outside achievable [{float(lo)!r}, {float(hi)!r}]"
        )


def _others(model: GpModel, party: int) -> np.ndarray:
    """Points of every other party; party must own points of the model."""
    if not np.any(model.ownership == party):
        raise ValueError(f"party {party} owns no points among parties 1..{model.n_parties}")
    return model.points_of(p for p in range(1, model.n_parties + 1) if p != party)


def _all_points_ig(model: GpModel) -> float:
    """IG of every point of the model, computed once per model and kept on it."""
    if model._all_points_ig is None:
        object.__setattr__(model, "_all_points_ig", gp_ig(model, np.arange(model.n_points)))
    return model._all_points_ig


def _tempering_curve(model: GpModel, party: int) -> Callable[[float], float]:
    """kappa -> tempered value of party, from one eigendecomposition per model and party.

    IG(others at noise/(1-kappa)) is 0.5 * log det(I + (1-kappa) A) with A
    the others' whitened kernel, so it is a sum over A's eigenvalues.  The
    curve is kept on the model, whose arrays are read-only, so a sweep
    that tempers one party for many targets builds it once.
    """
    curves = model._tempering_curves
    if party not in curves:
        others = _others(model, party)
        total = _all_points_ig(model)
        spectrum = np.zeros(0)
        if len(others):
            A = _whitened_kernel(model, others)
            # A is positive semi-definite; clip rounding below zero
            spectrum = np.maximum(scipy.linalg.eigvalsh(A, check_finite=False), 0.0)

        def value(kappa: float) -> float:
            return total - 0.5 * float(np.sum(np.log1p((1.0 - kappa) * spectrum)))

        curves[party] = value
    return curves[party]


def tempered_value(model: GpModel, party: int, kappa: float) -> float:
    """Conditional value of party's data plus others' data tempered by kappa.

    This is I(theta; D_i + R_i | R_-i), with R_i the others' points at
    noise/kappa and R_-i the same points at noise/(1-kappa).  Precisions
    add, so R_i and R_-i together carry exactly the information of the
    others' points at their own noise: the value is IG(all points) -
    IG(others' points at noise/(1-kappa)), and IG(all points) at kappa = 1.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    return _tempering_curve(model, party)(kappa)


def temper(model: GpModel, party: int, target: float, tol: float = 1e-6) -> TemperedReward:
    """Bisect the tempering factor until the realized value hits the target.

    The objective is monotone non-decreasing in kappa, so plain bisection
    converges; it stops when the value is within tol of the target or
    the bracket width drops below 1e-14.  tol must be finite and >= 0.
    """
    _check_tolerance(tol)
    _check_target(target)
    tempered = _tempering_curve(model, party)
    lo, hi = 0.0, 1.0
    lo_val, hi_val = tempered(lo), tempered(hi)
    _check_reachable(target, lo_val, hi_val, tol)
    if abs(lo_val - target) <= tol:
        return TemperedReward(party, lo, lo_val, target)
    if abs(hi_val - target) <= tol:
        return TemperedReward(party, hi, hi_val, target)
    kappa, value = lo, lo_val
    for _ in range(_BISECT_MAX_ITER):
        kappa = 0.5 * (lo + hi)
        value = tempered(kappa)
        if abs(value - target) <= tol or hi - lo < _KAPPA_FLOOR:
            break
        if value < target:
            lo = kappa
        else:
            hi = kappa
    return TemperedReward(party, kappa, value, target)


def conditional_point_value(model: GpModel, point_indices) -> float:
    """Conditional information gain of a point set given all remaining points."""
    idx = _point_indices(model, point_indices)
    everything = np.arange(model.n_points)
    rest = np.setdiff1d(everything, idx)
    return gp_ig(model, everything) - gp_ig(model, rest)


def _joining_values(model: GpModel, joining: np.ndarray) -> np.ndarray:
    """Conditional value once the first k donor points have joined, k = 0..len(joining).

    The points still left out are joining[k:], which are the first
    len - k points in reversed joining order, so their IG is a prefix sum
    of the log diagonal of one Cholesky factor in that order.
    """
    left_out = np.zeros(len(joining) + 1)
    if len(joining):
        B = _whitened_kernel(model, joining[::-1])
        B[np.diag_indices_from(B)] += 1.0
        np.cumsum(np.log(np.diagonal(_robust_cholesky(B))), out=left_out[1:])
    return _all_points_ig(model) - left_out[::-1]


def select_subset(source: Game | GpModel, party: int, target: float, seed: int) -> SubsetReward:
    """Greedily grow the party's data with shuffled donor atoms until the
    value first exceeds the target.

    With a GpModel the atoms are the other parties' individual points and
    the value is the conditional information gain of the selected set.
    With a Game the atoms are whole parties and the value is the game's.
    Deterministic per seed.  If even the full set only reaches the
    target, the result is flagged saturated.
    """
    _check_target(target)
    rng = np.random.default_rng(seed)
    if isinstance(source, GpModel):
        donors = _others(source, party)
        own = source.points_of([party]).tolist()
        joining_idx = donors[rng.permutation(len(donors))]
        values = _joining_values(source, joining_idx)
        joining = joining_idx.tolist()

        def value(k: int) -> float:
            return float(values[k])

    elif isinstance(source, Game):
        _check_party(source.n, party)
        own = [party]
        donors = [p for p in range(1, source.n + 1) if p != party]
        joining = [donors[pos] for pos in rng.permutation(len(donors))]

        def value(k: int) -> float:
            return source.value(own + joining[:k])

    else:
        raise TypeError("source must be a Game or a GpModel")

    floor, total = value(0), value(len(joining))
    _check_reachable(target, floor, total, 1e-12)
    if floor >= target:
        return SubsetReward(party, tuple(own), floor, target, seed)
    achieved = floor
    for k in range(1, len(joining) + 1):
        achieved = value(k)
        if achieved > target:
            return SubsetReward(party, tuple(own + joining[:k]), achieved, target, seed)
    return SubsetReward(party, tuple(own + joining), achieved, target, seed, saturated=True)
