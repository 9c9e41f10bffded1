"""Temperature scaling in three modes: per-member, joint on member logits,
and pool-then-calibrate on the averaged probabilities.

Every fit is a 1-d minimization of validation NLL over log-temperature in
[0.01, 100], done by golden-section search (tolerance 1e-6 in log T, at most
100 objective evaluations). Boundary minima are returned as the bracket end
with ``at_boundary`` set.

A fit prepares each validation set once (float64 logits, a joint set's
members stacked, row maxima, checked labels, a scratch buffer, and in pool
mode log p-bar); a candidate T then costs one divide, ``exp``, row sum and
label pick, and scores the same floats as ``metrics.nll`` of
:func:`apply_temperature` (or of the ensemble mean, or of
:func:`pool_apply_temperature`). A validation set whose label count differs
from its row count raises ``ShapeError`` when the fit prepares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics
from .netcore import _check_label_count, _check_labels, softmax
from .splits import JointEvalUnavailableError

BRACKET = (0.01, 100.0)  # temperature search range
TOL = 1e-6  # bracket width in log T at which the search stops
MAX_EVALS = 100  # objective evaluations per fit
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TemperatureError(ValueError):
    """Non-positive temperature or a non-finite fit objective."""


@dataclass
class TempFitResult:
    """Outcome of a scalar temperature fit.

    ``temperature`` is a float, or a list of per-member floats for the
    individual mode.
    """

    temperature: float | list[float]
    val_nll: float
    iterations: int
    converged: bool
    mode: str
    at_boundary: bool = False


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(z / T); preserves each row's argmax for any T > 0."""
    if temperature <= 0:
        raise TemperatureError(f"temperature must be > 0, got {temperature}")
    return softmax(np.asarray(logits, dtype=np.float64) / temperature)


def pool_apply_temperature(mean_probs: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(log p-bar / T): tempering after pooling, prediction-preserving."""
    if temperature <= 0:
        raise TemperatureError(f"temperature must be > 0, got {temperature}")
    return softmax(_pool_logits(mean_probs) / temperature)


def _pool_logits(mean_probs: np.ndarray) -> np.ndarray:
    """log p-bar, floored as ``metrics`` floors probabilities before a log."""
    return np.log(np.maximum(np.asarray(mean_probs, dtype=np.float64), metrics.PROB_FLOOR))


class _PreparedSet:
    """One validation set, prepared once per fit and scored at any T.

    ``logits`` is (N, K), or (M, N, K) for the members of a joint set. The
    float64 logits, their row maxima, the checked labels (as flat indices of
    each row's label entry) and a scratch buffer are kept across
    evaluations. At T the buffer holds exp(z / T - max z / T), the same
    floats ``softmax(z / T)`` exponentiates: division by T > 0 is monotone,
    so fl(max z / T) = max fl(z / T).
    """

    def __init__(self, logits: np.ndarray, labels: np.ndarray):
        z = np.asarray(logits, dtype=np.float64)
        _check_label_count(labels, z[0] if z.ndim == 3 else z, 1)
        y = _check_labels(labels, z.shape[-1])
        self.z = z
        self.rowmax = np.maximum.reduce(np.asfortranarray(z), axis=-1, keepdims=True)
        rows = np.arange(z.size // z.shape[-1]).reshape(z.shape[:-1])
        self.pick = rows * z.shape[-1] + y
        self.buf = np.empty_like(z)

    def nll(self, t: float) -> float:
        """``metrics.nll`` of softmax(z / T), or for a joint set of the mean
        of the members' softmax(z / T), computed on the label column alone."""
        if t <= 0:
            raise TemperatureError(f"temperature must be > 0, got {t}")
        e = np.divide(self.z, t, out=self.buf)
        e -= self.rowmax / t
        np.exp(e, out=e)
        p = np.take(e, self.pick) / e.sum(axis=-1)
        if p.ndim == 2:  # a joint set: each row's ensemble-mean label probability,
            # summed in member order as ``ensemble_mean`` sums; ``mean(axis=0)``
            # would sum a single row's members pairwise from 8 members on
            p = sum(p[1:], p[0]) / len(p)
        return float(-np.log(np.maximum(p, metrics.PROB_FLOOR)).mean())


def fit_temperature(objective: Callable[[float], float],
                    mode: str = "scalar") -> TempFitResult:
    """Minimize ``objective(T)`` over log T by golden-section search.

    Returns the best temperature among all evaluated points (the bracket ends
    are always evaluated, so a monotone objective yields the exact bound).
    """
    lo, hi = BRACKET
    evals = 0

    def f(ln_t: float) -> float:
        nonlocal evals
        evals += 1
        val = float(objective(math.exp(ln_t)))
        if not math.isfinite(val):
            raise TemperatureError(f"objective is not finite at T={math.exp(ln_t):.6g}")
        return val

    a, b = math.log(lo), math.log(hi)
    seen = [(a, f(a)), (b, f(b))]
    if a < 0.0 < b:
        seen.append((0.0, f(0.0)))  # T=1: a fit must never be worse than no scaling
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    seen += [(x1, f1), (x2, f2)]
    while b - a > TOL and evals < MAX_EVALS:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
            seen.append((x1, f1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
            seen.append((x2, f2))
    best_ln, best_val = min(seen, key=lambda t: (t[1], t[0]))
    lo_ln, hi_ln = math.log(lo), math.log(hi)
    at_boundary = best_ln in (lo_ln, hi_ln)
    converged = at_boundary or (b - a) <= TOL
    best_t = lo if best_ln == lo_ln else hi if best_ln == hi_ln else math.exp(best_ln)
    return TempFitResult(temperature=best_t, val_nll=best_val,
                         iterations=evals, converged=converged, mode=mode,
                         at_boundary=at_boundary)


def nll_at_temperature(logits: np.ndarray, labels: np.ndarray) -> Callable[[float], float]:
    """Validation-NLL objective for a single model's logits: at each T, the
    ``metrics.nll`` of ``apply_temperature(logits, T)``."""
    if len(labels) == 0:
        raise TemperatureError("empty validation set")
    return _PreparedSet(logits, labels).nll


def ensemble_nll_at_temperature(eval_sets: Sequence[tuple[Sequence[np.ndarray], np.ndarray]],
                                ) -> Callable[[float], float]:
    """Joint objective: mean over eval sets of the tempered-ensemble NLL.

    Each eval set pairs the participating members' validation logits (all on
    the same samples) with the labels. A shared holdout contributes one set
    with every member; an overlapping holdout contributes one set per cyclic
    pair, evaluated on the portion both members held out.
    """
    if len(eval_sets) == 0:
        raise JointEvalUnavailableError(
            "no jointly evaluable validation set: disjoint holdouts preclude "
            "joint evaluation")
    for zs, y in eval_sets:
        if len(y) == 0 or len(zs) == 0:
            raise TemperatureError("empty joint validation set")
    return _mean_nll([_PreparedSet(metrics._stack_members(zs), y) for zs, y in eval_sets])


def pool_nll_at_temperature(eval_sets: Sequence[tuple[Sequence[np.ndarray], np.ndarray]],
                            ) -> Callable[[float], float]:
    """Pool objective: mean over eval sets of the ``metrics.nll`` of
    ``pool_apply_temperature`` on the members' mean probabilities."""
    if len(eval_sets) == 0:
        raise JointEvalUnavailableError(
            "no jointly evaluable validation set: disjoint holdouts preclude "
            "pooled evaluation")
    for probs, y in eval_sets:
        if len(y) == 0 or len(probs) == 0:
            raise TemperatureError("empty pooled validation set")
    return _mean_nll([_PreparedSet(_pool_logits(metrics.ensemble_mean(probs)), y)
                      for probs, y in eval_sets])


def _mean_nll(sets: list[_PreparedSet]) -> Callable[[float], float]:
    """The objective T -> mean over ``sets`` of their NLL at T."""
    return lambda t: float(np.mean([s.nll(t) for s in sets]))


def calibrate_individual(member_vals: Sequence[tuple[np.ndarray, np.ndarray]],
                         ) -> TempFitResult:
    """Fit one temperature per member on its own validation set.

    The prediction path averages softmax(z_m / T_m) over members.
    """
    fits = [fit_temperature(nll_at_temperature(z, y), mode="individual")
            for z, y in member_vals]
    return TempFitResult(
        temperature=[f.temperature for f in fits],
        val_nll=float(np.mean([f.val_nll for f in fits])),
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits),
        mode="individual",
        at_boundary=any(f.at_boundary for f in fits),
    )


def calibrate_joint(eval_sets: Sequence[tuple[Sequence[np.ndarray], np.ndarray]],
                    ) -> TempFitResult:
    """Fit a single shared temperature on the joint ensemble objective."""
    return fit_temperature(ensemble_nll_at_temperature(eval_sets), mode="joint")


def calibrate_pool(eval_sets: Sequence[tuple[Sequence[np.ndarray], np.ndarray]],
                   ) -> TempFitResult:
    """Fit a temperature on the pooled probabilities, softmax(log p-bar / T).

    Each eval set pairs the participating members' validation probabilities
    (all on the same samples) with the labels, as in
    :func:`ensemble_nll_at_temperature`; the objective is the mean over sets
    of the pooled-tempered NLL.
    """
    return fit_temperature(pool_nll_at_temperature(eval_sets), mode="pool")

