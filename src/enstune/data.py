"""Synthetic classification tasks, CSV ingestion and feature standardization.

Datasets are plain (features, integer labels) pairs. Standardization is
always fit on a training subset only, so held-out samples never leak into
the normalization constants.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, TaskSection
from .splits import SplitError, _stratified_portions


class DataFormatError(ValueError):
    """Malformed dataset file; message carries the offending line."""


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __len__(self) -> int:
        return len(self.y)


def _flip_labels(y: np.ndarray, n_classes: int, label_noise: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Replace a ``label_noise`` fraction of labels with a random other class."""
    if label_noise <= 0:
        return y
    y = y.copy()
    flip = rng.random(len(y)) < label_noise
    shift = rng.integers(1, n_classes, size=len(y))
    y[flip] = (y[flip] + shift[flip]) % n_classes
    return y


def make_blobs(n: int, n_classes: int, noise: float, rng: np.random.Generator,
               radius: float = 2.0, label_noise: float = 0.0) -> Dataset:
    """Gaussian clusters with means equally spaced on a circle."""
    if n_classes < 2 or n < n_classes:
        raise ValueError("need at least 2 classes and one sample per class")
    if not 0.0 <= label_noise < 1.0:
        raise ValueError(f"label_noise must be in [0, 1), got {label_noise}")
    counts = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    xs, ys = [], []
    for c, cnt in enumerate(counts):
        xs.append(means[c] + noise * rng.normal(size=(cnt, 2)))
        ys.append(np.full(cnt, c, dtype=np.intp))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(n)
    y = _flip_labels(y[perm], n_classes, label_noise, rng)
    return Dataset(x[perm], y, n_classes)


def make_spirals(n: int, noise: float, rng: np.random.Generator) -> Dataset:
    """Two interleaved spiral arms, one per class."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    counts = [n - n // 2, n // 2]
    xs, ys = [], []
    for c, cnt in enumerate(counts):
        t = np.sqrt(rng.random(cnt))
        angle = 3.0 * np.pi * t + np.pi * c
        r = 2.0 * t + 0.2
        pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
        xs.append(pts + noise * rng.normal(size=(cnt, 2)))
        ys.append(np.full(cnt, c, dtype=np.intp))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(n)
    return Dataset(x[perm], y[perm], 2)


def make_task(task: TaskSection) -> Dataset:
    """The whole dataset a task section describes: blobs or spirals drawn
    from ``task.data_seed``, or the rows of the CSV at ``task.path``."""
    if task.kind == "csv":
        return load_csv(task.path, task.label_col)
    rng = np.random.default_rng(task.data_seed)
    if task.kind == "blobs":
        return make_blobs(task.n, task.classes, task.noise, rng, radius=task.radius,
                          label_noise=task.label_noise)
    if task.kind == "spirals":
        return make_spirals(task.n, task.noise, rng)
    raise ConfigError(f"unknown task kind {task.kind!r}")


def save_csv(dataset: Dataset, path: str, label_col: str = "label") -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"f{i}" for i in range(dataset.x.shape[1])] + [label_col])
        for row, label in zip(dataset.x, dataset.y):
            w.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv(path: str, label_col: str = "label") -> Dataset:
    """Parse a headed CSV into features and integer labels."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if label_col not in header:
            raise DataFormatError(f"{path}: no column named {label_col!r} in header")
        label_idx = header.index(label_col)
        feat_idx = [i for i in range(len(header)) if i != label_idx]
        xs, ys = [], []
        top = (-1, 0, "")  # the largest label, its line and its text
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                xs.append([float(row[i]) for i in feat_idx])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric feature value") from None
            if not all(map(math.isfinite, xs[-1])):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
            try:
                label = float(row[label_idx])
            except ValueError:
                label = math.nan
            if not (label >= 0 and label.is_integer()):  # 1 and 1.0, not 1.7 or inf
                raise DataFormatError(f"{path}:{lineno}: label {row[label_idx]!r} is "
                                      "not a non-negative integer")
            ys.append(int(label))
            if ys[-1] > top[0]:
                top = (ys[-1], lineno, row[label_idx])
    if not ys:
        raise DataFormatError(f"{path}: no data rows")
    if top[0] >= len(ys):  # a task cannot have more classes than rows
        raise DataFormatError(f"{path}:{top[1]}: label {top[2]!r} is not below the "
                              f"number of data rows, {len(ys)}")
    y = np.asarray(ys, dtype=np.intp)
    return Dataset(np.asarray(xs, dtype=np.float64), y, int(y.max()) + 1)


def train_test_split(dataset: Dataset, test_fraction: float, seed: int):
    """Stratified split into (rest, test); the test set is meant to be fixed
    once per task, before any member-level splitting."""
    n = len(dataset)
    n_test = round(test_fraction * n)
    if not 0 < n_test < n:
        raise SplitError(f"test fraction {test_fraction} leaves an empty side")
    rng = np.random.default_rng(seed)
    test_idx, rest_idx = _stratified_portions([n_test, n - n_test], n, dataset.y, rng)
    rest = Dataset(dataset.x[rest_idx], dataset.y[rest_idx], dataset.n_classes)
    test = Dataset(dataset.x[test_idx], dataset.y[test_idx], dataset.n_classes)
    return rest, test


class Standardizer:
    """Per-feature mean/sd transform, fit on training rows only."""

    def __init__(self, mean: np.ndarray, sd: np.ndarray):
        self.mean = mean
        self.sd = sd

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        mean = x.mean(axis=0)
        sd = x.std(axis=0)
        sd = np.where(sd < 1e-12, 1.0, sd)  # constant features pass through
        return cls(mean, sd)

    @classmethod
    def identity(cls, n_features: int) -> "Standardizer":
        return cls(np.zeros(n_features), np.ones(n_features))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.sd

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.transform(x)
