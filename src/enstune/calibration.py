"""Temperature scaling in three modes: per-member, joint on member logits,
and pool-then-calibrate on the averaged probabilities.

Every fit is a 1-d minimization of validation NLL over log-temperature in
[0.01, 100], done by golden-section search (tolerance 1e-6 in log T, at most
100 objective evaluations). Boundary minima are returned as the bracket end
with ``at_boundary`` set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics
from .netcore import softmax
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
    logp = np.log(np.maximum(np.asarray(mean_probs, dtype=np.float64), metrics.PROB_FLOOR))
    return softmax(logp / temperature)


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
    """Validation-NLL objective for a single model's logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise TemperatureError("empty validation set")
    return lambda t: metrics.nll(apply_temperature(logits, t), labels)


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
    frozen = [([np.asarray(z, dtype=np.float64) for z in zs], np.asarray(y))
              for zs, y in eval_sets]
    for zs, y in frozen:
        if len(y) == 0 or not zs:
            raise TemperatureError("empty joint validation set")

    def objective(t: float) -> float:
        vals = []
        for zs, y in frozen:
            mean_p = metrics.ensemble_mean([apply_temperature(z, t) for z in zs])
            vals.append(metrics.nll(mean_p, y))
        return float(np.mean(vals))

    return objective


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
    if len(eval_sets) == 0:
        raise JointEvalUnavailableError(
            "no jointly evaluable validation set: disjoint holdouts preclude "
            "pooled evaluation")
    pooled = []
    for probs, y in eval_sets:
        if len(y) == 0 or len(probs) == 0:
            raise TemperatureError("empty pooled validation set")
        pooled.append((metrics.ensemble_mean(probs), np.asarray(y)))

    def objective(t: float) -> float:
        return float(np.mean([metrics.nll(pool_apply_temperature(mean_p, t), y)
                              for mean_p, y in pooled]))

    return fit_temperature(objective, mode="pool")
