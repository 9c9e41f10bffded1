"""Weight-decay selection under single-model vs ensemble objectives, and
the resulting optimality gap on test loss.

A :class:`SweepResult` holds one :class:`SweepCell` per (weight decay,
seed) of a :class:`HyperGrid`, each with its per-size validation and test
records and its members' validation NLLs (the ``wd_sweep`` experiment trains
and scores them). Selection is the argmin of seed-mean validation NLL under
either objective over the grid entries with a non-diverged cell, ties
breaking toward the larger (more regularizing) weight decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import metrics

INDIVIDUAL_OBJECTIVE = "individual"
ENSEMBLE_OBJECTIVE = "ensemble"


@dataclass
class HyperGrid:
    weight_decays: list[float]
    ensemble_sizes: list[int]
    seeds: list[int]

    def __post_init__(self):
        if 0.0 not in self.weight_decays:
            raise ValueError("the weight-decay grid must include 0")
        if any(b <= a for a, b in zip(self.weight_decays, self.weight_decays[1:])):
            raise ValueError("weight decays must be strictly increasing")
        if any(w < 0 for w in self.weight_decays):
            raise ValueError("weight decays must be >= 0")
        if not self.seeds or not self.ensemble_sizes:
            raise ValueError("need at least one seed and one ensemble size")
        if min(self.ensemble_sizes) < 1:
            raise ValueError("ensemble sizes must be >= 1")


@dataclass
class SweepCell:
    wd: float
    seed: int
    diverged: bool = False
    val_records: dict[int, metrics.MetricsRecord] = field(default_factory=dict)
    test_records: dict[int, metrics.MetricsRecord] = field(default_factory=dict)
    member_val_nlls: list[float] = field(default_factory=list)


@dataclass
class SweepResult:
    grid: HyperGrid
    cells: list[SweepCell]

    def cell(self, wd: float, seed: int) -> SweepCell:
        for c in self.cells:
            if c.wd == wd and c.seed == seed:
                return c
        raise KeyError(f"no sweep cell for wd={wd}, seed={seed}")

    def usable_wds(self) -> list[float]:
        """Grid entries with at least one non-diverged cell, ascending."""
        out = []
        for wd in sorted(self.grid.weight_decays):
            cells = [c for c in self.cells if c.wd == wd and not c.diverged]
            if cells:
                out.append(wd)
            else:
                warnings.warn(f"weight decay {wd} excluded: all cells diverged")
        return out


def selection_score(sweep: SweepResult, wd: float, objective: str) -> float:
    """Seed-mean validation score of one grid entry under an objective."""
    cells = [c for c in sweep.cells if c.wd == wd and not c.diverged]
    k_full = max(sweep.grid.ensemble_sizes)
    per_seed = []
    for c in cells:
        if objective == ENSEMBLE_OBJECTIVE:
            per_seed.append(c.val_records[k_full].nll)
        else:
            per_seed.append(float(np.mean(c.member_val_nlls)))
    return float(np.mean(per_seed))


def select_h(sweep: SweepResult, objective: str) -> float:
    """Argmin of seed-mean validation NLL over the grid.

    ``individual`` scores the mean member NLL; ``ensemble`` scores the
    full-size ensemble NLL. Exact ties go to the larger weight decay.
    """
    if objective not in (INDIVIDUAL_OBJECTIVE, ENSEMBLE_OBJECTIVE):
        raise ValueError(f"unknown selection objective {objective!r}")
    if not sweep.cells:
        raise ValueError("sweep has no cells")
    best_wd = None
    best_score = np.inf
    for wd in sweep.usable_wds():
        score = selection_score(sweep, wd, objective)
        if score <= best_score:
            best_wd, best_score = wd, score
    if best_wd is None:
        raise ValueError("every sweep cell diverged; nothing to select")
    return best_wd


def optimality_gap(sweep: SweepResult, h_ind: float, h_ens: float):
    """Seed-mean test-NLL penalty of the individual-proxy selection.

    Returns (gap, sem): full-ensemble test NLL at ``h_ind`` minus at
    ``h_ens``, paired per seed.
    """
    k_full = max(sweep.grid.ensemble_sizes)
    diffs = []
    for seed in sweep.grid.seeds:
        a = sweep.cell(h_ind, seed)
        b = sweep.cell(h_ens, seed)
        if a.diverged or b.diverged:
            raise ValueError(f"seed {seed}: selected cell diverged, gap undefined")
        diffs.append(a.test_records[k_full].nll - b.test_records[k_full].nll)
    return metrics.mean_sem(diffs)
