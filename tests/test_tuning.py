"""Tests for the weight-decay sweep, selection rules and optimality gap."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from enstune import metrics
from enstune.config import config_from_dict
from enstune.data import make_blobs, train_test_split
from enstune.experiments import Job, _wd_sweep_cells
from enstune.netcore import NonFiniteLossError, softmax
from enstune.splits import SHARED, make_overlapping, make_shared
from enstune.training import (
    NONE,
    OptimizerConfig,
    StoppingConfig,
    member_logits,
    train_ensemble,
    train_grid,
)
from enstune.tuning import (
    SweepCell,
    optimality_gap,
    select_h,
    selection_score,
    usable_wds,
)


def record(nll, k, seed):
    return metrics.MetricsRecord(strategy="shared", val_pct=0.1, seed=seed,
                                 ensemble_size=k, nll=nll)


def synthetic_sweep(table, seeds=(0,), k_full=4):
    """Sweep cells from {wd: (member_nll, ensemble_val_nll, ensemble_test_nll)}."""
    cells = []
    for wd, (member_nll, val_nll, test_nll) in table.items():
        for seed in seeds:
            cell = SweepCell(wd=wd, seed=seed)
            cell.member_val_nlls = [member_nll] * k_full
            cell.val_records = {k_full: record(val_nll, k_full, seed)}
            cell.test_records = {k_full: record(test_nll, k_full, seed)}
            cells.append(cell)
    return cells


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
        shuffled = list(reversed(sweep))
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

    def test_a_decay_whose_cells_all_diverged_is_skipped_silently(self):
        # the wd_sweep summary warns of such a decay once; selection does not
        sweep = synthetic_sweep({0.0: (1.2, 0.5, 0.45), 1e-3: (0.9, 0.6, 0.55)},
                                seeds=(0, 1))
        sweep += [SweepCell(wd=1e9, seed=s, diverged=True) for s in (0, 1)]
        sweep.append(SweepCell(wd=1e-4, seed=0, diverged=True))
        sweep += synthetic_sweep({1e-4: (1.0, 0.4, 0.5)}, seeds=(1,))
        assert usable_wds(sweep) == [0.0, 1e-4, 1e-3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_h(sweep, "individual") == 1e-3
            assert select_h(sweep, "ensemble") == 1e-4
        assert optimality_gap(sweep, 1e-3, 0.0) == (pytest.approx(0.10), 0.0)
        with pytest.raises(ValueError, match="seed 0: selected cell diverged"):
            optimality_gap(sweep, 1e-3, 1e-4)

    def test_every_cell_diverged(self):
        sweep = [SweepCell(wd=0.0, seed=0, diverged=True)]
        assert usable_wds(sweep) == []
        with pytest.raises(ValueError, match="every sweep cell diverged"):
            select_h(sweep, "ensemble")


def small_sweep_data():
    ds = make_blobs(300, 3, 0.8, np.random.default_rng(0), label_noise=0.1)
    return train_test_split(ds, 0.2, seed=0)


SMALL_OPT = OptimizerConfig(kind="sgd_momentum", lr=0.05, cosine_epochs=12)
SMALL_STOP = StoppingConfig(mode=NONE, max_epochs=12, batch_size=64)


def shared_plans(dprime, seeds, n_members=3, val_fraction=0.15):
    return [make_shared(len(dprime), val_fraction, n_members, rng_seed=seed,
                        labels=dprime.y) for seed in seeds]


# the small sweep's grid: its weight decays, ensemble sizes and seeds
DECAYS, SIZES, SEEDS = [0.0, 1e-3, 1e-1], [1, 2, 3], [0, 1]


def grid_sweep(dprime, test, decays, seeds, plans):
    """The wd_sweep cell function once per seed, over ``decays``, training a
    [2, 16, 3] MLP with SMALL_OPT's optimizer for SMALL_STOP's budget, cosine
    annealed over it as SMALL_OPT is, with its cells in grid order: every
    seed of the first decay, then the next decay. ``plans`` are shared_plans
    at their default validation fraction."""
    cfg = config_from_dict({
        "model": {"hidden": [16]},
        "ensemble": {"members": plans[0].n_members, "val_pct": 0.15},
        "optimizer": {"kind": SMALL_OPT.kind, "lr": SMALL_OPT.lr},
        "stopping": {"max_epochs": SMALL_STOP.max_epochs,
                     "batch_size": SMALL_STOP.batch_size},
        "experiment": {"kind": "wd_sweep", "seeds": seeds, "weight_decays": decays,
                       "ensemble_sizes": SIZES}})
    per_seed = [_wd_sweep_cells(cfg, dprime, test, seed, plan,
                                Job(SHARED, 0.15))[2][0]
                for seed, plan in zip(seeds, plans, strict=True)]
    return [cell for wd_cells in zip(*per_seed) for cell in wd_cells]


@pytest.fixture(scope="module")
def small_sweep():
    dprime, test = small_sweep_data()
    return grid_sweep(dprime, test, DECAYS, SEEDS, shared_plans(dprime, SEEDS))


def per_cell_sweep(dprime, test, decays, seeds, plans, dims, val_fraction, opt, stop):
    """The sweep cell by cell, one train_ensemble call per (weight decay,
    seed): the oracle for the stacked grid trajectory."""
    cells = {}
    for wd in decays:
        for seed, plan in zip(seeds, plans):
            cell = cells[wd, seed] = SweepCell(wd=wd, seed=seed)
            try:
                result = train_ensemble(dprime.x, dprime.y, plan, dims,
                                        replace(opt, weight_decay=wd), stop, seed)
            except NonFiniteLossError:
                cell.diverged = True
                continue
            val_idx = plan.members[0].val_idx
            val_probs = [softmax(member_logits(m, dprime.x[val_idx]))
                         for m in result.members]
            test_probs = [softmax(member_logits(m, test.x)) for m in result.members]
            norm = float(np.mean([m.stop.normalized_epochs for m in result.members]))
            tags = dict(strategy=plan.strategy, val_pct=val_fraction, seed=seed,
                        normalized_epochs=norm)
            for k in SIZES:
                cell.val_records[k] = metrics.compute_record(
                    val_probs[:k], dprime.y[val_idx], ensemble_size=k, **tags)
                cell.test_records[k] = metrics.compute_record(
                    test_probs[:k], test.y, ensemble_size=k, **tags)
            cell.member_val_nlls = [metrics.nll(p, dprime.y[val_idx]) for p in val_probs]
    return cells


class TestRunSweep:

    def test_all_cells_populated(self, small_sweep):
        assert len(small_sweep) == 6
        for cell in small_sweep:
            assert not cell.diverged
            assert set(cell.val_records) == {1, 2, 3}
            assert len(cell.member_val_nlls) == 3

    def test_per_seed_rows_differ_and_aggregate_is_mean(self, small_sweep):
        by_seed = {c.seed: c for c in small_sweep if c.wd == 0.0}
        a, b = by_seed[0].val_records[3].nll, by_seed[1].val_records[3].nll
        assert a != b
        mean, sem = metrics.mean_sem([a, b])
        assert mean == pytest.approx((a + b) / 2)
        assert sem == pytest.approx(abs(a - b) / 2, rel=1e-9)

    def test_ensemble_nll_never_exceeds_mean_member_nll(self, small_sweep):
        # ambiguity non-negativity flowing through every populated cell
        for cell in small_sweep:
            k_full = max(SIZES)
            assert (cell.val_records[k_full].nll
                    <= float(np.mean(cell.member_val_nlls)) + 1e-12)

    def test_selection_runs_on_real_sweep(self, small_sweep):
        h_ind = select_h(small_sweep, "individual")
        h_ens = select_h(small_sweep, "ensemble")
        gap, sem = optimality_gap(small_sweep, h_ind, h_ens)
        assert h_ind in DECAYS
        assert h_ens in DECAYS
        assert np.isfinite(gap) and np.isfinite(sem)


class TestGridTrajectory:
    """The stacked grid trajectory against one train_ensemble call per cell."""

    @pytest.mark.parametrize("opt, hidden, batch_size", [
        (OptimizerConfig(kind="sgd_momentum", lr=0.05, cosine_epochs=5), [16], 64),
        (OptimizerConfig(kind="adam", lr=0.01), [8, 6], 50),
        (OptimizerConfig(kind="sgd_momentum", lr=0.05, decay_bias=True, cosine_epochs=5),
         [16], 64),
    ], ids=["sgd-cosine", "adam-constant", "decay-bias"])
    def test_every_row_equals_its_own_train_ensemble_call(self, opt, hidden, batch_size):
        dprime, _ = small_sweep_data()
        decays = [0.0, 1e-3, 1e-1]
        dims = [2] + hidden + [3]
        stop = StoppingConfig(mode=NONE, max_epochs=5, batch_size=batch_size)
        (plan,) = shared_plans(dprime, [4])
        grid = train_grid(dprime.x, dprime.y, plan, dims, opt, decays, stop, 4)
        for wd, members in zip(decays, grid):
            cell = train_ensemble(dprime.x, dprime.y, plan, dims,
                                  replace(opt, weight_decay=wd), stop, 4).members
            assert len(members) == len(cell) == 3
            for got, want in zip(members, cell):
                assert got.steps == want.steps
                assert np.array_equal(got.scaler.mean, want.scaler.mean)
                assert np.array_equal(got.scaler.sd, want.scaler.sd)
                for a, b in zip(got.params.arrays(), want.params.arrays(), strict=True):
                    assert np.array_equal(a, b)

    def test_diverging_cells_are_flagged_and_the_rest_train_on(self):
        dprime, test = small_sweep_data()
        decays = [0.0, 1e-3, 1e9]
        plans = shared_plans(dprime, SEEDS)
        oracle = per_cell_sweep(dprime, test, decays, SEEDS, plans, [2, 16, 3], 0.15,
                                SMALL_OPT, SMALL_STOP)
        with pytest.warns(UserWarning, match="diverged: non-finite loss at sample") as rec:
            sweep = grid_sweep(dprime, test, decays, SEEDS, plans)
        diverged = sorted((c.wd, c.seed) for c in sweep if c.diverged)
        assert diverged == [(1e9, 0), (1e9, 1)]
        assert diverged == sorted(key for key, c in oracle.items() if c.diverged)
        assert sum("diverged" in str(w.message) for w in rec) == 2
        assert [(c.wd, c.seed) for c in sweep] == list(oracle)
        for cell in sweep:
            want = oracle[cell.wd, cell.seed]
            assert cell.val_records == want.val_records
            assert cell.test_records == want.test_records
            assert cell.member_val_nlls == want.member_val_nlls

    def test_refuses_a_plan_that_is_not_shared(self):
        dprime, _ = small_sweep_data()
        plan = make_overlapping(len(dprime), 3, 0, dprime.y, val_fraction=0.15)
        with pytest.raises(ValueError, match="shared plan"):
            train_grid(dprime.x, dprime.y, plan, [2, 4, 3], SMALL_OPT, [0.0], SMALL_STOP,
                       0)
