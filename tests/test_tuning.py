"""Tests for the weight-decay sweep, selection rules and optimality gap."""

import numpy as np
import pytest

from enstune import metrics
from enstune.data import make_blobs, train_test_split
from enstune.splits import make_shared
from enstune.training import NONE, OptimizerConfig, StoppingConfig
from enstune.tuning import (
    HyperGrid,
    SweepCell,
    SweepResult,
    optimality_gap,
    run_sweep,
    select_h,
    selection_score,
)


def record(nll, k, seed):
    return metrics.MetricsRecord(strategy="shared", val_pct=0.1, seed=seed,
                                 ensemble_size=k, nll=nll)


def synthetic_sweep(table, seeds=(0,), k_full=4):
    """Build a SweepResult from {wd: (member_nll, ensemble_val_nll, ensemble_test_nll)}."""
    cells = []
    for wd, (member_nll, val_nll, test_nll) in table.items():
        for seed in seeds:
            cell = SweepCell(wd=wd, seed=seed)
            cell.member_val_nlls = [member_nll] * k_full
            cell.val_records = {k_full: record(val_nll, k_full, seed)}
            cell.test_records = {k_full: record(test_nll, k_full, seed)}
            cells.append(cell)
    grid = HyperGrid(sorted(table.keys()), [k_full], list(seeds))
    return SweepResult(grid, cells)


class TestHyperGrid:
    def test_requires_zero(self):
        with pytest.raises(ValueError, match="include 0"):
            HyperGrid([1e-4, 1e-3], [4], [0])

    def test_requires_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            HyperGrid([0.0, 1e-3, 1e-4], [4], [0])


class TestSelection:
    def test_single_cell_grid(self):
        sweep = synthetic_sweep({0.0: (1.0, 0.8, 0.9)})
        assert select_h(sweep, "individual") == 0.0
        assert select_h(sweep, "ensemble") == 0.0
        assert optimality_gap(sweep, 0.0, 0.0) == (0.0, 0.0)

    def test_all_equal_ties_to_largest(self):
        sweep = synthetic_sweep({0.0: (1.0, 1.0, 1.0),
                                 1e-4: (1.0, 1.0, 1.0),
                                 1e-3: (1.0, 1.0, 1.0)})
        assert select_h(sweep, "individual") == 1e-3
        assert select_h(sweep, "ensemble") == 1e-3

    def test_objectives_can_disagree(self):
        # ensemble curve bottoms out at a smaller wd than the member curve
        sweep = synthetic_sweep({0.0: (1.20, 0.50, 0.45),
                                 1e-4: (1.00, 0.52, 0.50),
                                 1e-3: (0.90, 0.60, 0.55)})
        assert select_h(sweep, "individual") == 1e-3
        assert select_h(sweep, "ensemble") == 0.0

    def test_gap_arithmetic(self):
        sweep = synthetic_sweep({0.0: (1.2, 0.5, 0.45),
                                 1e-3: (0.9, 0.6, 0.50)})
        gap, sem = optimality_gap(sweep, 1e-3, 0.0)
        assert gap == pytest.approx(0.50 - 0.45)
        assert sem == 0.0

    def test_selection_invariant_under_reordering(self):
        table = {0.0: (1.2, 0.5, 0.45), 1e-4: (1.0, 0.52, 0.5), 1e-3: (0.9, 0.6, 0.55)}
        sweep = synthetic_sweep(table, seeds=(0, 1, 2))
        shuffled = SweepResult(sweep.grid, list(reversed(sweep.cells)))
        for objective in ("individual", "ensemble"):
            assert select_h(sweep, objective) == select_h(shuffled, objective)

    def test_definitional_val_inequality(self):
        # by argmin construction the ensemble objective at its own selection
        # is no worse than at any other selection
        sweep = synthetic_sweep({0.0: (1.2, 0.5, 0.45), 1e-3: (0.9, 0.6, 0.55)})
        h_ind = select_h(sweep, "individual")
        h_ens = select_h(sweep, "ensemble")
        assert (selection_score(sweep, h_ens, "ensemble")
                <= selection_score(sweep, h_ind, "ensemble"))


@pytest.fixture(scope="module")
def small_sweep():
    ds = make_blobs(300, 3, 0.8, np.random.default_rng(0), label_noise=0.1)
    dprime, test = train_test_split(ds, 0.2, seed=0)
    grid = HyperGrid([0.0, 1e-3, 1e-1], [1, 2, 3], [0, 1])
    opt = OptimizerConfig(kind="sgd_momentum", lr=0.05, cosine_epochs=12)
    stop = StoppingConfig(mode=NONE, max_epochs=12, batch_size=64)
    plans = [make_shared(len(dprime), 0.15, 3, rng_seed=seed, labels=dprime.y)
             for seed in grid.seeds]
    return run_sweep(dprime, test, grid, plans, [2, 16, 3], 0.15, opt, stop)


class TestRunSweep:

    def test_all_cells_populated(self, small_sweep):
        assert len(small_sweep.cells) == 6
        for cell in small_sweep.cells:
            assert not cell.diverged
            assert set(cell.val_records) == {1, 2, 3}
            assert len(cell.member_val_nlls) == 3

    def test_per_seed_rows_differ_and_aggregate_is_mean(self, small_sweep):
        by_seed = {c.seed: c for c in small_sweep.cells if c.wd == 0.0}
        a, b = by_seed[0].val_records[3].nll, by_seed[1].val_records[3].nll
        assert a != b
        mean, sem = metrics.mean_sem([a, b])
        assert mean == pytest.approx((a + b) / 2)
        assert sem == pytest.approx(abs(a - b) / 2, rel=1e-9)

    def test_ensemble_nll_never_exceeds_mean_member_nll(self, small_sweep):
        # ambiguity non-negativity flowing through every populated cell
        for cell in small_sweep.cells:
            k_full = max(small_sweep.grid.ensemble_sizes)
            assert (cell.val_records[k_full].nll
                    <= float(np.mean(cell.member_val_nlls)) + 1e-12)

    def test_selection_runs_on_real_sweep(self, small_sweep):
        h_ind = select_h(small_sweep, "individual")
        h_ens = select_h(small_sweep, "ensemble")
        gap, sem = optimality_gap(small_sweep, h_ind, h_ens)
        assert h_ind in small_sweep.grid.weight_decays
        assert h_ens in small_sweep.grid.weight_decays
        assert np.isfinite(gap) and np.isfinite(sem)
