"""Turn target reward values into concrete model rewards.

Likelihood tempering raises the other parties' Gaussian likelihood to a
power kappa in [0, 1].  Precisions add, so for a GP the tempered value
is IG(all points) - IG(others' points at noise sigma^2/(1-kappa)), which
is IG(all) - 0.5 * sum_k log1p((1 - kappa) * lambda_k) with lambda_k the
eigenvalues of the others' whitened kernel.  One eigendecomposition per
model and party (its eigenvalues kept while the model lives) makes every
bisection step O(m).  The same decomposition, with its eigenvectors,
gives the tempered model's predictive in closed form: conditioning on
the others at noise/kappa only reweights their eigenbasis, so each kappa
then conditions on the party's own points alone, by the conditioning
step gp_predict runs too (kappa = 0 included).  Both take it from one
call, LAPACK's divide-and-conquer driver, which deflates most of a
smooth kernel's fast-decaying spectrum, so a tempered value does not
depend on which of them ran first.  A bisection that stops further
than its tolerance from the target says so in its result.  Subset
selection instead adds shuffled donors until the value first exceeds
the target, taking every prefix's value from its source at once; it
works for any valuation but is only approximate.  On a GP the points
left out after k additions are the last ones in joining order, so one
Cholesky factor of the donors in reversed joining order gives every
prefix's value from the cumulative sum of its log diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import TargetOutOfRange
from .games import Game, _check_party, _check_tolerance
from .synthdata import PredictiveDistribution
from .valuation import (
    GpModel, _condition, _log_diagonal, _point_indices, _whitened_kernel, gp_ig, se_kernel
)

__all__ = [
    "TemperedReward",
    "SubsetReward",
    "tempered_value",
    "temper",
    "select_subset",
    "conditional_point_value",
]

_KAPPA_FLOOR = 1e-14


@dataclass(frozen=True)
class TemperedReward:
    party: int
    kappa: float
    achieved_value: float
    target_value: float
    # False when the bisection ran out of bracket or steps further than tol from the target
    tolerance_met: bool = True


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
    """Points of every other party; party must be one of the model's and own points."""
    if not model.points_of([party]).size:
        raise ValueError(f"party {party} owns no points among parties 1..{model.n_parties}")
    return model.points_of(p for p in range(1, model.n_parties + 1) if p != party)


def _all_points_ig(model: GpModel) -> float:
    """IG of every point of the model, computed once per model and kept on it."""
    if model._all_points_ig is None:
        object.__setattr__(model, "_all_points_ig", gp_ig(model, np.arange(model.n_points)))
    return model._all_points_ig


def _decompose_others(model: GpModel, party: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The others' points and their whitened kernel A = U diag(spectrum) U^T.

    The one producer of a party's spectrum: eigh with the
    divide-and-conquer driver (evd), whichever of the tempering curve and
    the tempered predictive asks first.  The eigenvalues, clipped at 0,
    are kept on the model as the party's spectrum; the eigenvectors never
    are.
    """
    others = _others(model, party)
    spectrum, U = np.zeros(0), np.zeros((0, 0))
    if len(others):
        spectrum, U = scipy.linalg.eigh(
            _whitened_kernel(model, others), check_finite=False, driver="evd"
        )
    # A is positive semi-definite; clip rounding below zero
    spectrum = model._others_spectra[party] = np.maximum(spectrum, 0.0)
    return others, spectrum, U


def _tempering_curve(model: GpModel, party: int) -> Callable[[float], float]:
    """kappa -> tempered value of party, from one eigendecomposition per model and party.

    IG(others at noise/(1-kappa)) is 0.5 * log det(I + (1-kappa) A) with A
    the others' whitened kernel, so it is a sum over A's eigenvalues,
    which are kept on the model (whose arrays are read-only): a sweep
    that tempers one party for many targets decomposes A once.  The
    party is checked before the kept spectra are read, since a bool or
    float party would find an integer party's entry.
    """
    _check_party(model.n_parties, party)
    spectrum = model._others_spectra.get(party)
    if spectrum is None:
        spectrum = _decompose_others(model, party)[1]
    total = _all_points_ig(model)

    def value(kappa: float) -> float:
        return total - 0.5 * float(np.sum(np.log1p((1.0 - kappa) * spectrum)))

    return value


def _tempered_predictor(
    model: GpModel, targets: np.ndarray, party: int, X_test: np.ndarray
) -> Callable[[float], PredictiveDistribution]:
    """kappa -> predictive at X_test of party's tempered model reward.

    The reward model conditions on the party's own points at their noise
    and the others' points at noise/kappa.  With D_o the others' noise,
    A = D_o^-1/2 K_oo D_o^-1/2 = U diag(lam) U^T, w = kappa/(1 + kappa lam)
    and G = K(x, o) D_o^-1/2 U, the others alone give the prior mean
    G (w * U^T D_o^-1/2 y_o) and covariance K - G diag(w) G^T (GPML
    ch. 2).  Each kappa then conditions that prior on the own points by
    valuation's one conditioning step, which gp_predict also runs: one
    own-size Cholesky factor and matmuls.  At kappa = 0, w = 0, and the
    prior is the plain GP's.
    """
    own = model.points_of([party])
    others, spectrum, U = _decompose_others(model, party)
    y = np.asarray(targets, dtype=float)
    ls, signal = model.lengthscales, model.signal_variance
    noise = model.noise_vector()
    inv_sqrt = 1.0 / np.sqrt(noise[others])
    X_own = model.inputs[own]
    G = se_kernel(np.vstack([X_own, X_test]), ls, signal, model.inputs[others])
    G *= inv_sqrt[None, :]
    G = G @ U
    G_own, G_test = G[: len(own)], G[len(own) :]
    b = U.T @ (inv_sqrt * y[others])
    K_own = se_kernel(X_own, ls, signal)
    K_own[np.diag_indices_from(K_own)] += noise[own]
    K_test_own = se_kernel(X_test, ls, signal, X_own)

    def predict(kappa: float) -> PredictiveDistribution:
        w = kappa / (1.0 + kappa * spectrum)
        # G diag(w) G^T as H H^T with H = G diag(sqrt(w)), so numpy takes syrk
        root_w = np.sqrt(w)
        H_own, H_test = G_own * root_w, G_test * root_w
        wb = w * b
        return _condition(
            model,
            K_own - H_own @ H_own.T,
            (K_test_own - H_test @ H_own.T).T,
            y[own] - G_own @ wb,
            G_test @ wb,
            signal - np.sum(H_test * H_test, axis=1),
        )

    return predict


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
    the bracket width drops below 1e-14, and tolerance_met says which.
    tol must be finite and >= 0.
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
    while True:  # the bracket halves each step, so it drops below 1e-14 by the 48th midpoint
        kappa = 0.5 * (lo + hi)
        value = tempered(kappa)
        if abs(value - target) <= tol or hi - lo < _KAPPA_FLOOR:
            return TemperedReward(party, kappa, value, target, abs(value - target) <= tol)
        if value < target:
            lo = kappa
        else:
            hi = kappa


def conditional_point_value(model: GpModel, point_indices) -> float:
    """Conditional information gain of a point set given all remaining points."""
    idx = _point_indices(model, point_indices)
    rest = np.setdiff1d(np.arange(model.n_points), idx)
    return _all_points_ig(model) - gp_ig(model, rest)


def _joining_values(model: GpModel, joining: np.ndarray) -> np.ndarray:
    """Conditional value once the first k donor points have joined, k = 0..len(joining).

    The points still left out are joining[k:], which are the first
    len - k points in reversed joining order, so their IG is a prefix sum
    of the log diagonal of one Cholesky factor in that order.
    """
    left_out = np.zeros(len(joining) + 1)
    if len(joining):
        np.cumsum(_log_diagonal(_whitened_kernel(model, joining[::-1])), out=left_out[1:])
    return _all_points_ig(model) - left_out[::-1]


def select_subset(source: Game | GpModel, party: int, target: float, seed: int) -> SubsetReward:
    """Greedily grow the party's data with shuffled donor atoms until the
    value first exceeds the target.

    With a GpModel the atoms are the other parties' individual points and
    the value is the conditional information gain of the selected set.
    With a Game the atoms are whole parties and the value is the game's,
    looked up for every prefix of the joining order whatever the target.
    Deterministic per seed; flagged saturated if even the full set only
    reaches the target.
    """
    _check_target(target)
    rng = np.random.default_rng(seed)
    if isinstance(source, GpModel):
        donors = _others(source, party)
        own = source.points_of([party]).tolist()
        joining_idx = donors[rng.permutation(len(donors))]
        values = _joining_values(source, joining_idx)
        joining = joining_idx.tolist()
    elif isinstance(source, Game):
        _check_party(source.n, party)
        own = [party]
        donors = [p for p in range(1, source.n + 1) if p != party]
        joining = [donors[pos] for pos in rng.permutation(len(donors))]
        values = np.array([source.value(own + joining[:k]) for k in range(len(joining) + 1)])
    else:
        raise TypeError("source must be a Game or a GpModel")

    _check_reachable(target, values[0], values[-1], 1e-12)
    # the own data alone need only meet the target; a donor prefix must exceed it
    reached = values > target
    reached[0] = values[0] >= target
    saturated = not reached.any()
    k = len(joining) if saturated else int(np.argmax(reached))
    return SubsetReward(party, tuple(own + joining[:k]), float(values[k]), target, seed, saturated)
