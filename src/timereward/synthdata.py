"""Friedman synthetic data, party partitioning, standardization, and MNLP."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, SizesExceedData, ZeroVariance
from .games import _is_integer, _refuse_repeats, _whole_numbers

__all__ = [
    "Dataset",
    "PredictiveDistribution",
    "friedman_signal",
    "gen_friedman",
    "partition",
    "train_test_split",
    "standardize",
    "mnlp",
    "save_dataset_csv",
    "load_dataset_csv",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix, target vector, and per-point party ownership.

    Party indices are 1-based; 0 marks an unassigned point.
    """

    features: np.ndarray
    targets: np.ndarray
    party: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        p = _whole_numbers(self.party, "party")
        if X.ndim != 2 or len(y) != len(X) or len(p) != len(X):
            raise LengthMismatch("features, targets, and party must have equal row counts")
        if np.any(p < 0):
            raise ValueError("party indices must be >= 0 (0 = unassigned)")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "party", p)

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def n_parties(self) -> int:
        return int(self.party.max(initial=0))


@dataclass(frozen=True, eq=False)
class PredictiveDistribution:
    """Per-test-point Gaussian predictive mean and variance."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variance, dtype=float)
        if len(mu) != len(var):
            raise LengthMismatch("mean and variance must have equal lengths")
        if np.any(var <= 0):
            raise ValueError("predictive variances must be strictly positive")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "variance", var)


def friedman_signal(X: np.ndarray) -> np.ndarray:
    """Noiseless Friedman response on a (m, 6) feature matrix.

    10*sin(pi*x0*x1) + 20*(x2-0.5)**2 + 10*x3 + 5*x4; the sixth feature
    has coefficient zero.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 6:
        raise ValueError("expected at least 6 feature columns")
    return (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
        + 0.0 * X[:, 5]
    )


def gen_friedman(count: int, noise_std: float = 1.0, seed: int = 0) -> Dataset:
    """Draw a Friedman dataset: 6 i.i.d. uniform features, noisy response.

    Deterministic per seed; points start unassigned.
    """
    if not _is_integer(count):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(count, 6))
    y = friedman_signal(X) + rng.normal(0.0, 1.0, size=count) * noise_std
    return Dataset(X, y, np.zeros(count, dtype=int))


def partition(data: Dataset, sizes, seed: int) -> Dataset:
    """Assign disjoint random samples to parties 1..len(sizes).

    Points are assigned without replacement; leftovers stay at party 0.
    Deterministic per seed.
    """
    sizes = list(sizes)
    for s in sizes:
        if not _is_integer(s):
            raise ValueError(f"sizes must be integers, got {s!r}")
    if any(s < 0 for s in sizes):
        raise ValueError("sizes must be non-negative")
    total = sum(sizes)
    if total > len(data):
        raise SizesExceedData(f"requested {total} points from {len(data)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    party = np.zeros(len(data), dtype=int)
    start = 0
    for idx, size in enumerate(sizes, start=1):
        party[order[start : start + size]] = idx
        start += size
    return Dataset(data.features, data.targets, party)


def train_test_split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random split into train and test datasets, deterministic per seed."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    n_test = int(round(len(data) * test_fraction))
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])

    def take(idx):
        return Dataset(data.features[idx], data.targets[idx], data.party[idx])

    return take(train_idx), take(test_idx)


def standardize(targets) -> tuple[np.ndarray, float, float]:
    """Center and scale to zero mean, unit population variance.

    Returns (standardized, mean, std) so the transform can be inverted
    or applied to held-out targets.
    """
    y = np.asarray(targets, dtype=float)
    mean = float(y.mean())
    std = float(np.sqrt(np.mean((y - mean) ** 2)))
    if std == 0.0:
        raise ZeroVariance("cannot standardize a constant target vector")
    return (y - mean) / std, mean, std


def mnlp(pred: PredictiveDistribution, truths) -> float:
    """Mean negative log predictive probability over at least one point; lower is better."""
    y = np.asarray(truths, dtype=float)
    if len(y) != len(pred.mean):
        raise LengthMismatch(f"{len(pred.mean)} predictions for {len(y)} truths")
    if len(y) == 0:
        raise ValueError("MNLP needs at least one point")
    var = pred.variance
    return float(
        np.mean(0.5 * (np.log(2.0 * np.pi * var) + (pred.mean - y) ** 2 / var))
    )


def save_dataset_csv(data: Dataset, path):
    """Write features, target, and party columns with a header row.

    Floats are rendered with repr-precision so identical datasets yield
    byte-identical files.
    """
    d = data.features.shape[1]
    header = [f"x{k}" for k in range(d)] + ["y", "party"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, y, p in zip(data.features, data.targets, data.party):
            writer.writerow([f"{x:.17g}" for x in row] + [f"{y:.17g}", str(int(p))])


def load_dataset_csv(path) -> Dataset:
    """Read the CSV format written by save_dataset_csv.

    The 'party' column is found by name; the last remaining column is
    the target and everything before it the features.  A column named
    twice, a ragged row and a cell that is not a number raise
    ValueError; the last two name the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("dataset CSV is empty")
        _refuse_repeats(header, "dataset CSV names column")
        if "party" not in header:
            raise ValueError("dataset CSV must contain a 'party' column")
        p_col = header.index("party")
        value_cols = [k for k in range(len(header)) if k != p_col]
        if len(value_cols) < 2:
            raise ValueError("dataset CSV needs feature columns and a target column")
        y_col = value_cols[-1]
        x_cols = value_cols[:-1]

        def cell(row: list, k: int, parse=float):
            try:
                return parse(row[k])
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise ValueError(
                    f"dataset CSV line {reader.line_num} column {header[k]!r} "
                    f"is not {kind}: {row[k]!r}"
                ) from None

        feats, ys, parties = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                cells = f"{len(row)} cells, the header has {len(header)}"
                raise ValueError(f"dataset CSV line {reader.line_num} has {cells}")
            feats.append([cell(row, k) for k in x_cols])
            ys.append(cell(row, y_col))
            parties.append(cell(row, p_col, int))
    return Dataset(np.array(feats), np.array(ys), np.array(parties, dtype=int))
