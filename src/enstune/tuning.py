"""Weight-decay grid search under single-model vs ensemble selection
objectives, and the resulting optimality gap on test loss.

The sweep trains every grid cell on the caller's shared holdout plan for its
seed, with the caller's optimizer and stopping configs, only the weight
decay varying (the ``wd_sweep`` experiment passes a fixed epoch budget with
cosine annealing). A seed's whole grid is one stacked trajectory
(:func:`~enstune.training.train_grid`), every decay x member in one batched
step. Selection is the argmin of seed-mean validation NLL under either
objective, ties breaking toward the larger (more regularizing) weight decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data import Dataset
from .netcore import NonFiniteLossError
from .training import (
    OptimizerConfig,
    StoppingConfig,
    member_probs,
    normalized_epochs,
    train_grid,
)

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


def run_sweep(dprime: Dataset, test: Dataset, grid: HyperGrid, plans: list,
              dims: list[int], val_fraction: float, opt: OptimizerConfig,
              stop: StoppingConfig, ece_bins: int = 15) -> SweepResult:
    """Train every (weight decay, seed) cell and record per-size metrics.

    ``plans`` holds one shared holdout plan per grid seed, in seed order, and
    ``val_fraction`` is the validation fraction they were built with. Each
    seed's cells train as one stacked trajectory on its plan, with ``opt``
    and ``stop`` and the grid entry as each cell's weight decay, and are
    scored on member 0's validation rows. Size-k ensembles are the first k
    members by index. Cells whose training diverges are kept, flagged, and
    excluded from selection; the seed's other cells train on.
    """
    if any(max(grid.ensemble_sizes) > plan.n_members for plan in plans):
        raise ValueError("ensemble sizes exceed the number of trained members")
    per_seed = []
    for seed, plan in zip(grid.seeds, plans, strict=True):
        trained = train_grid(dprime.x, dprime.y, plan, dims, opt, grid.weight_decays,
                             stop, base_seed=seed)
        val_idx = plan.members[0].val_idx
        per_seed.append([])
        for wd, members in zip(grid.weight_decays, trained):
            cell = SweepCell(wd=wd, seed=seed)
            per_seed[-1].append(cell)
            if isinstance(members, NonFiniteLossError):
                warnings.warn(f"sweep cell wd={wd} seed={seed} diverged: {members}")
                cell.diverged = True
                continue
            val_probs = [member_probs(m, dprime.x[val_idx]) for m in members]
            test_probs = [member_probs(m, test.x) for m in members]
            norm_epochs = float(np.mean([normalized_epochs(m.steps, stop.batch_size,
                                                           len(dprime.y))
                                         for m in members]))
            tags = dict(strategy=plan.strategy, val_pct=val_fraction, seed=seed)
            for k in grid.ensemble_sizes:
                cell.val_records[k] = metrics.compute_record(
                    val_probs[:k], dprime.y[val_idx], ece_bins=ece_bins,
                    ensemble_size=k, normalized_epochs=norm_epochs, **tags)
                cell.test_records[k] = metrics.compute_record(
                    test_probs[:k], test.y, ece_bins=ece_bins,
                    ensemble_size=k, normalized_epochs=norm_epochs, **tags)
            cell.member_val_nlls = [metrics.nll(p, dprime.y[val_idx])
                                    for p in val_probs]
    # cells in grid order: every seed of the first decay, then the next decay
    return SweepResult(grid, [cell for wd_cells in zip(*per_seed) for cell in wd_cells])


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
