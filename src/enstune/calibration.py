"""Temperature scaling in three modes: per-member, joint on member logits,
and pool-then-calibrate on the averaged probabilities.

:func:`validation_sets` decides which members a fit scores on which rows;
one objective, :func:`nll_at_temperature`, scores them in every fit
(:func:`calibrate`) and, at T = 1, in every stopping rule's score. Every
fit is a 1-d minimization of it over log-temperature in [0.01, 100], done by
golden-section search (tolerance 1e-6 in log T, at most 100 objective
evaluations). Boundary minima are returned as the bracket end with
``at_boundary`` set.

The objective prepares each eval set once; a candidate T then costs one
divide, ``exp``, row sum and label pick, and scores the same floats as
``metrics.nll`` of ``metrics.ensemble_mean`` of :func:`apply_temperature`.
An eval set whose label count differs from its row count raises
``ShapeError`` when it is prepared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics
from .netcore import _check_labels, _class_major, _class_sum, softmax
from .splits import JointEvalUnavailableError, SplitPlan, joint_eval_sets

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


def pool_logits(mean_probs: np.ndarray) -> np.ndarray:
    """log p-bar, floored as ``metrics`` floors probabilities before a log:
    pool mode tempers these logits, which preserves the pooled argmax."""
    return np.log(np.maximum(np.asarray(mean_probs, dtype=np.float64), metrics.PROB_FLOOR))


class _PreparedSet:
    """One eval set, prepared once per objective and scored at any T.

    The members' float64 logits, stacked as (M, N, K), are kept class-major
    as K contiguous rows of M·N entries (see ``netcore._class_major``), so
    every pass of an evaluation, the row maxima and the class sums among
    them, runs over contiguous rows. They, their row maxima, the checked
    labels (as flat indices of each row's label entry) and a scratch buffer
    are kept across evaluations. At T the buffer holds exp(z / T - max z /
    T), the same floats ``softmax(z / T)`` exponentiates: division by T > 0
    is monotone, so fl(max z / T) = max fl(z / T).
    """

    def __init__(self, member_logits: Sequence[np.ndarray], labels: np.ndarray):
        z = metrics._stack_members(member_logits)
        y = _check_labels(labels, z.shape[-1], z[0])
        n_members, n_rows = z.shape[:2]
        self.z = _class_major(z)
        self.rowmax = np.maximum.reduce(self.z, axis=0)
        self.pick = np.tile(y, n_members) * (n_members * n_rows) + np.arange(n_members * n_rows)
        self.buf = np.empty_like(self.z)
        self.n_members = n_members

    def nll(self, t: float) -> float:
        """``metrics.nll`` of the mean of the members' softmax(z / T),
        computed on the label column alone."""
        if t <= 0:
            raise TemperatureError(f"temperature must be > 0, got {t}")
        e = np.divide(self.z, t, out=self.buf)
        e -= self.rowmax / t
        np.exp(e, out=e)
        p = np.take(e, self.pick) / _class_sum(e)
        if self.n_members > 1:  # each row's ensemble-mean label probability,
            # summed in member order as ``ensemble_mean`` sums; ``mean(axis=0)``
            # would sum a single row's members pairwise from 8 members on
            p = p.reshape(self.n_members, -1)
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


def nll_at_temperature(eval_sets: Sequence[tuple[Sequence[np.ndarray], np.ndarray]],
                       ) -> Callable[[float], float]:
    """The validation-NLL objective: T -> the mean over ``eval_sets`` of the
    ``metrics.nll`` of the members' mean of ``apply_temperature(z, T)``.

    Each eval set pairs a list of member logits (all on the same rows) with
    their labels. A shared holdout contributes one set with every member; an
    overlapping holdout one set per cyclic pair, on the rows both members
    held out; a fit of one member's temperature one set with that member.
    """
    if len(eval_sets) == 0:
        raise JointEvalUnavailableError(
            "no jointly evaluable validation set: disjoint holdouts preclude "
            "joint evaluation")
    for zs, y in eval_sets:
        if len(y) == 0 or len(zs) == 0:
            raise TemperatureError("empty validation set")
    sets = [_PreparedSet(zs, y) for zs, y in eval_sets]
    if len(sets) == 1:
        return sets[0].nll
    return lambda t: float(np.mean([s.nll(t) for s in sets]))


def validation_sets(mode: str, plan: SplitPlan, y: np.ndarray, set_logits) -> list:
    """The (member logits, labels) eval sets a mode scores: "individual" one
    per member on its own holdout, any other mode :func:`joint_eval_sets`.
    ``set_logits(members, idx)`` returns each member's logits on rows ``idx``."""
    pairs = ([((m,), ms.val_idx) for m, ms in enumerate(plan.members)]
             if mode == "individual" else joint_eval_sets(plan))
    return [(set_logits(ids, idx), y[idx]) for ids, idx in pairs]


def _pooled(member_logits: Sequence[np.ndarray]) -> np.ndarray:
    return pool_logits(metrics.ensemble_mean([softmax(z) for z in member_logits]))


def calibrate(mode: str, sets: Sequence, test_logits: Sequence[np.ndarray]):
    """A mode's fit on its eval sets (:func:`validation_sets`) and the test
    members' tempered probabilities. "individual" fits each set on its own
    and tempers each member by its T; "joint" fits one T over all the sets;
    "pool" first pools each set, and the test members, into
    :func:`pool_logits` of their mean softmax, and returns one matrix."""
    if mode == "individual":
        fits = [fit_temperature(nll_at_temperature([s]), mode) for s in sets]
        temps = [f.temperature for f in fits]
        return (TempFitResult(temps, float(np.mean([f.val_nll for f in fits])),
                              max(f.iterations for f in fits),
                              all(f.converged for f in fits), mode,
                              any(f.at_boundary for f in fits)),
                [apply_temperature(z, t) for z, t in zip(test_logits, temps)])
    if mode not in ("joint", "pool"):
        raise ValueError(f"unknown temperature mode {mode!r}")
    pool = mode == "pool"
    fit = fit_temperature(nll_at_temperature(
        [([_pooled(zs)], y) for zs, y in sets] if pool else sets), mode)
    if pool:
        return fit, apply_temperature(_pooled(test_logits), fit.temperature)
    return fit, [apply_temperature(z, fit.temperature) for z in test_logits]
