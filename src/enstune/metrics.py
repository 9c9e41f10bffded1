"""Scoring and diversity metrics: classification error, NLL, ECE, entropy,
ensemble diversity (entropy-gap and KL forms) and the ambiguity decomposition.

Probabilities live in (N, K) row-stochastic matrices; everything is in nats.
Probabilities are clamped at 1e-300 before logs so degenerate one-hot rows
score finite values without materially perturbing anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .netcore import ShapeError, _check_labels

PROB_FLOOR = 1e-300


def _stack_members(members: Sequence[np.ndarray]) -> np.ndarray:
    if len(members) == 0:
        raise ShapeError("need at least one ensemble member")
    arrs = [np.asarray(m, dtype=np.float64) for m in members]
    shape = arrs[0].shape
    for i, a in enumerate(arrs):
        if a.shape != shape:
            raise ShapeError(f"member {i} has shape {a.shape}, expected {shape}")
    return np.stack(arrs)


def ensemble_mean(members: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of the member probability matrices."""
    return _stack_members(members).mean(axis=0)


def _scored(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 probabilities and their checked labels: ``ShapeError`` unless
    there is one label per row, ``LabelError`` for a label outside [0, K)."""
    probs = np.asarray(probs, dtype=np.float64)
    return probs, _check_labels(labels, probs.shape[-1], probs)


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    probs, y = _scored(probs, labels)
    picked = np.maximum(probs[np.arange(len(y)), y], PROB_FLOOR)
    return float(-np.log(picked).mean())


def classification_error(probs: np.ndarray, labels: np.ndarray) -> float:
    """Percent of samples whose argmax prediction misses the label.

    Ties break toward the lowest class index.
    """
    probs, y = _scored(probs, labels)
    pred = probs.argmax(axis=1)
    return float(100.0 * (pred != y).mean())


def ece(probs: np.ndarray, labels: np.ndarray, n_bins: int = 15) -> float:
    """Expected calibration error with equal-width confidence bins on (0, 1].

    Confidence is the row max; bin b covers (b/B, (b+1)/B]; empty bins
    contribute nothing.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    probs, y = _scored(probs, labels)
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == y).astype(np.float64)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    which = np.clip(np.searchsorted(edges[1:], conf, side="left"), 0, n_bins - 1)
    total = 0.0
    n = len(y)
    for b in np.unique(which):  # the occupied bins, ascending
        mask = which == b
        cnt = int(mask.sum())
        total += (cnt / n) * abs(correct[mask].mean() - conf[mask].mean())
    return float(total)


class PerSample(NamedTuple):
    per_sample: np.ndarray
    mean: float


def entropy(probs: np.ndarray) -> PerSample:
    """Shannon entropy per row and its mean, with 0 log 0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    logp = np.log(np.maximum(p, PROB_FLOOR))
    rows = -(p * logp).sum(axis=-1)
    return PerSample(rows, float(rows.mean()))


def diversity(members: Sequence[np.ndarray]) -> PerSample:
    """Entropy of the mean prediction minus the mean member entropy."""
    stacked = _stack_members(members)
    mean_p = stacked.mean(axis=0)
    h_mean = entropy(mean_p).per_sample
    h_members = entropy(stacked).per_sample.mean(axis=0)
    rows = h_mean - h_members
    return PerSample(rows, float(rows.mean()))


def diversity_kl(members: Sequence[np.ndarray]) -> PerSample:
    """Same quantity via the mean KL divergence from members to the mean."""
    stacked = _stack_members(members)
    mean_p = stacked.mean(axis=0)
    ratio = np.log(np.maximum(stacked, PROB_FLOOR)) - np.log(np.maximum(mean_p, PROB_FLOOR))
    kl = (stacked * ratio).sum(axis=-1)
    rows = kl.mean(axis=0)
    return PerSample(rows, float(rows.mean()))


class AmbiguityResult(NamedTuple):
    ensemble_nll: float
    avg_member_nll: float
    ambiguity: float


def ambiguity(members: Sequence[np.ndarray], labels: np.ndarray) -> AmbiguityResult:
    """Decompose the ensemble NLL as average member NLL minus ambiguity.

    The ambiguity term is non-negative up to floating-point slack (Jensen's
    inequality for the convex -log).
    """
    stacked = _stack_members(members)
    ens = nll(stacked.mean(axis=0), labels)
    avg = float(np.mean([nll(m, labels) for m in stacked]))
    return AmbiguityResult(ens, avg, avg - ens)


@dataclass
class MetricsRecord:
    """One evaluation row: the tags that identify the experimental cell, then
    its metrics, from ``error_pct`` on."""

    strategy: str = ""
    val_pct: float = 0.0
    seed: int = 0
    ensemble_size: int = 1
    error_pct: float = 0.0
    nll: float = 0.0
    ece: float = 0.0
    diversity: float = 0.0
    entropy: float = 0.0
    normalized_epochs: float | None = None

    def to_row(self) -> list:
        vals = [getattr(self, f.name) for f in fields(self)]
        return ["" if v is None else v for v in vals]


CSV_COLUMNS = [f.name for f in fields(MetricsRecord)]
METRIC_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("error_pct"):]


def _scores(probs: np.ndarray, labels: np.ndarray, ece_bins: int) -> dict:
    """A probability matrix's error, NLL, ECE and mean entropy, by record field."""
    return {"error_pct": classification_error(probs, labels), "nll": nll(probs, labels),
            "ece": ece(probs, labels, n_bins=ece_bins), "entropy": entropy(probs).mean}


def compute_record(member_probs: Sequence[np.ndarray], labels: np.ndarray,
                   ece_bins: int = 15, **tags) -> MetricsRecord:
    """Ensemble metrics for a list of member probability matrices."""
    return MetricsRecord(**_scores(ensemble_mean(member_probs), labels, ece_bins),
                         diversity=diversity(member_probs).mean, **tags)


def member_avg_record(prob_label_pairs, ece_bins: int = 15, **tags) -> MetricsRecord:
    """Average of per-member metrics; diversity is 0 for single members."""
    scores = [_scores(probs, y, ece_bins) for probs, y in prob_label_pairs]
    return MetricsRecord(**{name: float(np.mean([s[name] for s in scores]))
                            for name in scores[0]}, **tags)


def mean_sem(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error of the mean (0 for a single value)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one value")
    if arr.size == 1 or arr.min() == arr.max():
        return float(arr[0] if arr.size == 1 else arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))

