"""Valuation functions: Gaussian-process information gain and duals.

The conditional information gain of a coalition is the entropy drop of
the latent function from that coalition's points, given everybody
else's: IG(all points) - IG(points of the complement).  It is the dual
of the plain information gain, which is monotone submodular, so it is
non-negative, monotone, and superadditive.

Every information gain is half the log-determinant of I + D^-1/2 K D^-1/2
over a point set, D holding the points' noise variances.  The plain IG
of all 2^n coalitions comes from one whitened kernel of all points,
grouped by party: a depth-first walk over the parties carries the
Schur complement of the later parties' points given the current
coalition.  Adding a party factors its block of that complement, whose
log diagonal is the coalition's gain over its parent, and conditions
the later points on it (one triangular solve and one rank update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.linalg

from .errors import NumericalFailure
from .games import Game, _check_party_count, _read_json_object
from .synthdata import Dataset, PredictiveDistribution

__all__ = [
    "GpModel",
    "se_kernel",
    "gp_ig",
    "information_gain",
    "ig_game",
    "conditional_ig_game",
    "dual_game",
    "gp_predict",
    "make_gp_model",
    "load_gp_config",
]

_JITTER_START = 1e-8
_JITTER_LIMIT = 1e-2


@dataclass(frozen=True, eq=False)
class GpModel:
    """Squared-exponential GP over a fixed design matrix with party ownership.

    noise_variance may be a scalar (homoscedastic) or a per-point vector.
    Hyperparameters are configuration inputs and are never optimized;
    they and the inputs must be finite.
    """

    inputs: np.ndarray
    ownership: np.ndarray
    lengthscales: np.ndarray
    signal_variance: float
    noise_variance: float | np.ndarray

    def __post_init__(self):
        X = np.array(self.inputs, dtype=float)
        own = np.array(self.ownership, dtype=int)
        ls = np.array(self.lengthscales, dtype=float)
        noise = np.array(self.noise_variance, dtype=float)
        signal = float(self.signal_variance)
        if not all(np.all(np.isfinite(a)) for a in (X, ls, noise, signal)):
            raise ValueError("inputs, lengthscales, signal and noise variances must be finite")
        if X.ndim != 2:
            raise ValueError("inputs must be a 2-d design matrix")
        if len(own) != len(X):
            raise ValueError("ownership must assign every design point")
        if np.any(own < 1):
            raise ValueError("ownership indices are 1-based")
        if ls.shape != (X.shape[1],) or np.any(ls <= 0):
            raise ValueError("need one strictly positive lengthscale per feature")
        if not signal > 0:
            raise ValueError("signal_variance must be positive")
        if noise.ndim == 0:
            if not noise > 0:
                raise ValueError("noise_variance must be positive")
        elif noise.shape != (len(X),) or np.any(noise <= 0):
            raise ValueError("per-point noise needs one positive entry per point")
        _check_party_count(int(own.max()))
        # read-only copies, so values derived from a model never go stale
        for name, arr in (("inputs", X), ("ownership", own), ("lengthscales", ls)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if noise.ndim:
            noise.flags.writeable = False
        object.__setattr__(self, "noise_variance", noise if noise.ndim else float(noise))
        object.__setattr__(self, "signal_variance", signal)
        # tempering curves by party and the IG of all points, filled
        # idempotently by realization
        object.__setattr__(self, "_tempering_curves", {})
        object.__setattr__(self, "_all_points_ig", None)

    @property
    def n_points(self) -> int:
        return len(self.inputs)

    @property
    def n_parties(self) -> int:
        return int(self.ownership.max())

    def noise_vector(self) -> np.ndarray:
        noise = np.asarray(self.noise_variance, dtype=float)
        if noise.ndim == 0:
            return np.full(self.n_points, float(noise))
        return noise

    def points_of(self, parties: Iterable[int]) -> np.ndarray:
        """0-based indices of the points owned by the given parties."""
        wanted = set(parties)
        return np.flatnonzero(np.isin(self.ownership, sorted(wanted)))

    def points_of_mask(self, mask: int) -> np.ndarray:
        return self.points_of(i + 1 for i in range(self.n_parties) if mask >> i & 1)


def se_kernel(
    X: np.ndarray,
    lengthscales: np.ndarray,
    signal_variance: float,
    Y: np.ndarray | None = None,
) -> np.ndarray:
    """Squared-exponential kernel matrix with per-dimension lengthscales."""
    A = np.asarray(X, dtype=float) / lengthscales
    B = A if Y is None else np.asarray(Y, dtype=float) / lengthscales
    # built in place, so one temporary of the output's size is alive at a time
    K = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
    K -= 2.0 * A @ B.T
    np.maximum(K, 0.0, out=K)
    K *= -0.5
    np.exp(K, out=K)
    K *= signal_variance
    return K


def _robust_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with escalating relative jitter.

    Starts jitter-free; on failure adds 1e-8 * mean(diag) and escalates
    by 10x up to 1e-2 * mean(diag) before giving up.
    """
    try:
        return scipy.linalg.cholesky(mat, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(mat)))
    if not np.isfinite(scale) or scale <= 0:
        raise NumericalFailure("matrix diagonal is not positive")
    jitter = _JITTER_START
    eye = np.eye(len(mat))
    while jitter <= _JITTER_LIMIT:
        try:
            return scipy.linalg.cholesky(mat + jitter * scale * eye, lower=True)
        except scipy.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalFailure(
        f"Cholesky failed even with jitter {_JITTER_LIMIT:g} * mean diagonal"
    )


def _whitened_kernel(model: GpModel, idx: np.ndarray) -> np.ndarray:
    """D^-1/2 K D^-1/2 over the given design points, D their noise variances."""
    inv_sqrt = 1.0 / np.sqrt(model.noise_vector()[idx])
    K = se_kernel(model.inputs[idx], model.lengthscales, model.signal_variance)
    K *= inv_sqrt[:, None]
    K *= inv_sqrt[None, :]
    return K


def information_gain(K: np.ndarray, noise: np.ndarray) -> float:
    """0.5 * log det(I + Knoise^-1 K) for one covariance/noise pair.

    Evaluated on the symmetrized form I + D^-1/2 K D^-1/2 via Cholesky;
    the log-determinant is the sum of the log factor diagonal, which
    cannot overflow.
    """
    if len(K) == 0:
        return 0.0
    inv_sqrt = 1.0 / np.sqrt(noise)
    B = np.eye(len(K)) + inv_sqrt[:, None] * K * inv_sqrt[None, :]
    L = _robust_cholesky(B)
    return float(np.sum(np.log(np.diag(L))))


def _point_indices(model: GpModel, points) -> np.ndarray:
    """points as an int array; ValueError unless distinct whole numbers in 0..n_points - 1."""
    raw = np.asarray(list(points))
    if raw.size == 0:
        return np.zeros(0, dtype=int)
    if raw.ndim != 1 or raw.dtype.kind not in "iuf":
        raise ValueError(f"point indices must be whole numbers, got {raw.tolist()!r}")
    outside = ~((raw >= 0) & (raw < model.n_points))  # NaN too
    if outside.any():
        bad = raw[outside][0]
        raise ValueError(f"point index {bad} is not one of the points 0..{model.n_points - 1}")
    fractional = raw != np.floor(raw)
    if fractional.any():
        raise ValueError(f"point index {raw[fractional][0]} is not a whole number")
    idx = raw.astype(int)
    uniq, counts = np.unique(idx, return_counts=True)
    if uniq.size != idx.size:
        raise ValueError(f"point index {uniq[counts > 1][0]} is given more than once")
    return idx


def gp_ig(model: GpModel, point_set) -> float:
    """Information gain of the GP from the given design-point indices.

    The empty set yields exactly 0.  Heteroscedastic noise is handled by
    scaling each point by its own noise variance.
    """
    idx = _point_indices(model, point_set)
    if len(idx) == 0:
        return 0.0
    X = model.inputs[idx]
    K = se_kernel(X, model.lengthscales, model.signal_variance)
    return information_gain(K, model.noise_vector()[idx])


def _ig_table(model: GpModel) -> np.ndarray:
    """Plain IG of every coalition, indexed by bitmask, from one whitened kernel.

    Parties are walked depth-first in ascending order, carrying S, the
    Schur complement of the later parties' points given the current
    coalition (at the root, I + D^-1/2 K D^-1/2 itself).  Adding party p
    factors its diagonal block of S, whose log diagonal is the
    coalition's gain over its parent, and hands the child the points
    after p with the cross block W = L_p^-1 S[p, later] conditioned
    out: S[later, later] - W^T W.  An empty party adds nothing, and a
    party with no points after it needs no solve.

    Each call owns its S.  The child of the first party is built last,
    in S's own trailing block, since no sibling reads S after it; the
    others get copies.  So a path from the root holds one full-size
    matrix and the copies of smaller blocks, not a new Schur complement
    per level.
    """
    n = model.n_parties
    order = np.argsort(model.ownership, kind="stable")
    B = _whitened_kernel(model, order)
    B[np.diag_indices_from(B)] += 1.0
    bounds = np.searchsorted(model.ownership[order], np.arange(1, n + 2))
    table = np.zeros(1 << n)

    def extend(mask: int, S: np.ndarray, first: int):
        if first == n:
            return
        for p in (*range(first + 1, n), first):
            start, stop = bounds[p : p + 2] - bounds[first]
            later = S[stop:, stop:]
            if p != first:
                later = later.copy()
            child = mask | 1 << p
            table[child] = table[mask]
            if stop > start:
                L = _robust_cholesky(S[start:stop, start:stop])
                table[child] += np.sum(np.log(np.diagonal(L)))
                if len(later):
                    W = scipy.linalg.solve_triangular(
                        L, S[start:stop, stop:], lower=True, check_finite=False
                    )
                    later -= W.T @ W
            extend(child, later, p + 1)

    extend(0, B, 0)
    return table


def ig_game(model: GpModel) -> Game:
    """Plain information-gain game: v(C) = IG of C's points (monotone submodular)."""
    return Game(model.n_parties, table=_ig_table(model))


def conditional_ig_game(model: GpModel) -> Game:
    """Conditional information-gain game: v(C) = IG(all) - IG(complement's points).

    Satisfies non-negativity, monotonicity, and superadditivity, being
    the dual of the plain (submodular) information gain.
    """
    return dual_game(ig_game(model))


def dual_game(base: Game) -> Game:
    """Dual of a base game: v(C) = base(N) - base(N minus C), as a table game.

    Shares its Shapley values with the base game; when the base is
    monotone submodular the dual is non-negative, monotone, and
    superadditive.  The complement of mask is grand ^ mask, so the table
    is the base table reversed and subtracted from base(N).
    """
    v = base.table()
    return Game(base.n, table=v[-1] - v[::-1])


def gp_predict(
    model: GpModel,
    targets: np.ndarray,
    point_indices,
    X_test: np.ndarray,
    *,
    point_noise: np.ndarray | None = None,
) -> PredictiveDistribution:
    """GP posterior predictive at test inputs from a subset of the design points.

    point_noise overrides the model's noise for the conditioning points
    (used for tempered model rewards).  The predictive variance includes
    observation noise: the model's scalar noise, else the mean of its
    per-point noise.
    """
    idx = _point_indices(model, point_indices)
    y = np.asarray(targets, dtype=float)[idx]
    Xs = model.inputs[idx]
    noise = model.noise_vector()[idx] if point_noise is None else np.asarray(point_noise)
    if len(noise) != len(idx) or not np.all((noise > 0) & np.isfinite(noise)):
        raise ValueError("need one positive finite noise entry per conditioning point")
    obs_noise = float(np.mean(model.noise_variance))  # a scalar is its own mean

    K = se_kernel(Xs, model.lengthscales, model.signal_variance) + np.diag(noise)
    L = _robust_cholesky(K)
    K_star = se_kernel(Xs, model.lengthscales, model.signal_variance, X_test)
    alpha = scipy.linalg.solve_triangular(L, y, lower=True)
    alpha = scipy.linalg.solve_triangular(L.T, alpha, lower=False)
    mean = K_star.T @ alpha
    Q = scipy.linalg.solve_triangular(L, K_star, lower=True)
    var_f = model.signal_variance - np.sum(Q * Q, axis=0)
    var = np.maximum(var_f, 0.0) + obs_noise
    return PredictiveDistribution(mean, var)


def make_gp_model(
    dataset: Dataset,
    lengthscales=None,
    signal_variance: float = 1.0,
    noise_variance=0.05,
) -> GpModel:
    """Build a GpModel from the assigned points of a partitioned dataset.

    Unassigned points (party 0) are dropped.  lengthscales defaults to
    1.0 per feature.  A per-point noise_variance has one entry per
    dataset row, unassigned rows included.
    """
    keep = dataset.party >= 1
    X = dataset.features[keep]
    own = dataset.party[keep]
    if len(X) == 0:
        raise ValueError("dataset has no assigned points")
    if lengthscales is None:
        lengthscales = np.ones(X.shape[1])
    noise = np.asarray(noise_variance, dtype=float)
    if noise.ndim == 1:
        if len(noise) != len(keep):
            raise ValueError(
                f"noise_variance has {len(noise)} entries for a {len(keep)}-point dataset"
            )
        noise = noise[keep]
    return GpModel(X, own, np.asarray(lengthscales, dtype=float), signal_variance, noise)


def load_gp_config(path) -> dict:
    """Read {"lengthscales": [..], "signal_variance": f, "noise_variance": f|[..]}.

    Any other key, and a key given twice, raises ValueError.
    """
    readers = {
        "lengthscales": _config_numbers,
        "signal_variance": _config_number,
        "noise_variance": _config_numbers,
    }
    doc = _read_json_object(path, "GP config", readers)
    return {key: readers[key](key, value) for key, value in doc.items()}


def _config_number(key: str, value) -> float:
    """A JSON number as a float.

    null, booleans, strings, lists, objects and integers too large for a
    float raise ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"GP config {key} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ValueError(f"GP config {key} is too large for a float") from None


def _config_numbers(key: str, value) -> float | np.ndarray:
    """A JSON number as a float, or a list of numbers as an array."""
    if isinstance(value, list):
        return np.array([_config_number(key, x) for x in value], dtype=float)
    return _config_number(key, value)
