"""Weight-decay selection under single-model vs ensemble objectives, and
the resulting optimality gap on test loss.

The ``wd_sweep`` experiment trains and scores one :class:`SweepCell` per
(weight decay, seed): its per-size validation and test records and its
members' validation NLLs. The functions here take a plain list of those
cells and read the decays, the seeds and the full ensemble size (a cell's
largest scored size) from the cells themselves. Selection is the argmin of
seed-mean validation NLL under either objective over the decays with a
non-diverged cell, ties breaking toward the larger (more regularizing)
weight decay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics

INDIVIDUAL_OBJECTIVE = "individual"
ENSEMBLE_OBJECTIVE = "ensemble"


@dataclass
class SweepCell:
    wd: float
    seed: int
    diverged: bool = False
    val_records: dict[int, metrics.MetricsRecord] = field(default_factory=dict)
    test_records: dict[int, metrics.MetricsRecord] = field(default_factory=dict)
    member_val_nlls: list[float] = field(default_factory=list)


def usable_wds(cells: list[SweepCell]) -> list[float]:
    """The decays with at least one non-diverged cell, ascending."""
    return sorted({c.wd for c in cells if not c.diverged})


def selection_score(cells: list[SweepCell], wd: float, objective: str) -> float:
    """Seed-mean validation score of one decay under an objective."""
    scored = [c for c in cells if c.wd == wd and not c.diverged]
    if objective == ENSEMBLE_OBJECTIVE:
        return float(np.mean([c.val_records[max(c.val_records)].nll for c in scored]))
    return float(np.mean([np.mean(c.member_val_nlls) for c in scored]))


def select_h(cells: list[SweepCell], objective: str) -> float:
    """Argmin of seed-mean validation NLL over the usable decays.

    ``individual`` scores the mean member NLL; ``ensemble`` scores the
    full-size ensemble NLL. Exact ties go to the larger weight decay.
    """
    if objective not in (INDIVIDUAL_OBJECTIVE, ENSEMBLE_OBJECTIVE):
        raise ValueError(f"unknown selection objective {objective!r}")
    if not cells:
        raise ValueError("sweep has no cells")
    best_wd = None
    best_score = np.inf
    for wd in usable_wds(cells):
        score = selection_score(cells, wd, objective)
        if score <= best_score:
            best_wd, best_score = wd, score
    if best_wd is None:
        raise ValueError("every sweep cell diverged; nothing to select")
    return best_wd


def optimality_gap(cells: list[SweepCell], h_ind: float, h_ens: float):
    """Seed-mean test-NLL penalty of the individual-proxy selection.

    Returns (gap, sem): full-ensemble test NLL at ``h_ind`` minus at
    ``h_ens``, paired per seed in ascending seed order.
    """
    by_key = {(c.wd, c.seed): c for c in cells}
    diffs = []
    for seed in sorted({c.seed for c in cells}):
        a, b = by_key[h_ind, seed], by_key[h_ens, seed]
        if a.diverged or b.diverged:
            raise ValueError(f"seed {seed}: selected cell diverged, gap undefined")
        k_full = max(a.val_records)
        diffs.append(a.test_records[k_full].nll - b.test_records[k_full].nll)
    return metrics.mean_sem(diffs)
