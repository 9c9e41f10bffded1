"""Tests for rank-1 fast-weight ensembles: algebra, gradients, training."""

import numpy as np
import pytest

from enstune.batchensemble import (
    be_forward,
    be_forward_all,
    be_grad_check,
    be_loss_and_grads,
    be_train,
    init_fast,
    make_batch_ensemble,
    materialized_member_params,
)
from enstune.data import make_blobs
from enstune.netcore import mlp_forward
from enstune.splits import make_disjoint, make_overlapping, make_shared
from enstune.training import OptimizerConfig, StoppingConfig


def small_model(seed=0, dims=(3, 6, 4), m=4, scheme="gaussian", sigma=0.4,
                use_batchnorm=True):
    rng = np.random.default_rng(seed)
    return make_batch_ensemble(list(dims), m, scheme, rng, sigma, use_batchnorm)


class TestInitFast:
    def test_random_sign_values(self):
        fw = init_fast([5, 7, 3], 6, "random_sign", np.random.default_rng(0))
        for arr in fw.r + fw.s:
            assert set(np.unique(arr)).issubset({-1.0, 1.0})

    def test_gaussian_tiny_sigma_is_near_identity(self):
        model = small_model(scheme="gaussian", sigma=1e-9)
        x = np.random.default_rng(1).normal(size=(8, 3))
        outs = [be_forward(model, x, m) for m in range(model.n_members)]
        for o in outs[1:]:
            assert np.abs(o - outs[0]).max() < 1e-6

    def test_gaussian_moments(self):
        fw = init_fast([5000, 5000], 1, "gaussian", np.random.default_rng(2), sigma=0.5)
        draws = np.concatenate([fw.r[0].ravel(), fw.s[0].ravel()])
        assert len(draws) >= 10_000
        assert abs(draws.mean() - 1.0) < 0.02
        assert abs(draws.std() - 0.5) < 0.02

    def test_invalid_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            init_fast([2, 2], 2, "uniform", np.random.default_rng(0))


class TestForward:
    def test_unit_fast_weights_match_slow_mlp_exactly(self):
        model = small_model()
        for arr in model.fast.r + model.fast.s:
            arr[...] = 1.0
        x = np.random.default_rng(3).normal(size=(10, 3))
        want = mlp_forward(model.slow, x)
        for m in range(model.n_members):
            assert np.array_equal(be_forward(model, x, m), want)

    def test_matches_materialized_oracle(self):
        model = small_model(use_batchnorm=False)
        x = np.random.default_rng(4).normal(size=(12, 3))
        for m in range(model.n_members):
            oracle = mlp_forward(materialized_member_params(model, m), x)
            assert np.abs(be_forward(model, x, m) - oracle).max() < 1e-10

    def test_sign_flipped_members_differ(self):
        model = small_model(m=2, scheme="random_sign", use_batchnorm=False)
        model.fast.r[0][1] = -model.fast.r[0][0]
        model.fast.s[0][1] = model.fast.s[0][0]
        x = np.random.default_rng(5).normal(size=(6, 3))
        a = be_forward(model, x, 0)
        b = be_forward(model, x, 1)
        assert np.abs(a - b).max() > 1e-6

    def test_all_forward_equals_loop_exactly(self):
        for seed in range(5):
            model = small_model(seed=seed)
            x = np.random.default_rng(100 + seed).normal(size=(9, 3))
            stacked = be_forward_all(model, x)
            for m in range(model.n_members):
                assert np.array_equal(stacked[m], be_forward(model, x, m))

    def test_all_forward_single_member(self):
        model = small_model(m=1)
        x = np.random.default_rng(6).normal(size=(4, 3))
        assert np.array_equal(be_forward_all(model, x)[0], be_forward(model, x, 0))

    def test_all_forward_per_member_batches(self):
        model = small_model()
        xs = np.random.default_rng(7).normal(size=(4, 5, 3))
        stacked = be_forward_all(model, xs)
        for m in range(4):
            assert np.array_equal(stacked[m], be_forward(model, xs[m], m))

    def test_identity_bn_all_ones_fast_members_identical(self):
        model = small_model()
        for arr in model.fast.r + model.fast.s:
            arr[...] = 1.0
        x = np.random.default_rng(8).normal(size=(7, 3))
        outs = be_forward_all(model, x)
        for m in range(1, model.n_members):
            assert np.array_equal(outs[m], outs[0])


class TestGradients:
    def test_grad_check_small_models(self):
        rng = np.random.default_rng(9)
        for trial in range(8):
            dims = [3, int(rng.integers(3, 6)), int(rng.integers(2, 4))]
            m = int(rng.integers(1, 4))
            scheme = "random_sign" if trial % 2 else "gaussian"
            model = make_batch_ensemble(dims, m, scheme,
                                        np.random.default_rng(trial), 0.4)
            xs = rng.normal(size=(m, 6, 3))
            ys = rng.integers(0, dims[-1], size=(m, 6))
            report = be_grad_check(model, xs, ys)
            assert report.max_rel_error < 1e-4, f"trial {trial}"

    def test_grad_check_without_batchnorm(self):
        rng = np.random.default_rng(10)
        model = small_model(use_batchnorm=False)
        xs = rng.normal(size=(4, 5, 3))
        ys = rng.integers(0, 4, size=(4, 5))
        assert be_grad_check(model, xs, ys).max_rel_error < 1e-4

    def test_loss_decreases_under_training_steps(self):
        from enstune.netcore import Optimizer
        rng = np.random.default_rng(11)
        model = small_model()
        xs = rng.normal(size=(4, 32, 3))
        ys = rng.integers(0, 4, size=(4, 32))
        opt = Optimizer("adam", model.flat, 1e-2,
                        decay_mask=model.decay_mask())
        first, _ = be_loss_and_grads(model, xs, ys, update_stats=False)
        for _ in range(60):
            _, grads = be_loss_and_grads(model, xs, ys)
            opt.step(model.flat, grads)
        last, _ = be_loss_and_grads(model, xs, ys, update_stats=False)
        assert last < first


class TestTraining:
    def make_task(self, n=400, seed=0):
        return make_blobs(n, 4, 0.8, np.random.default_rng(seed), label_noise=0.1)

    def test_trains_on_shared_plan(self):
        ds = self.make_task()
        plan = make_shared(len(ds), 0.1, 4, rng_seed=1, labels=ds.y)
        res = be_train(ds.x, ds.y, plan, [2, 16, 4], "random_sign",
                       OptimizerConfig(lr=3e-3),
                       StoppingConfig(mode="joint", patience=5, max_epochs=30,
                                      batch_size=64), seed=2)
        assert res.stop.best_score == min(res.stop.history)
        probs = res.all_probs(ds.x)
        assert all(p.shape == (len(ds), 4) for p in probs)

    def test_disjoint_plan_uses_average_member_nll(self):
        ds = self.make_task(n=300)
        plan = make_disjoint(len(ds), 0.1, 3, rng_seed=3, labels=ds.y)
        res = be_train(ds.x, ds.y, plan, [2, 8, 4], "random_sign",
                       OptimizerConfig(lr=3e-3),
                       StoppingConfig(mode="joint", patience=3, max_epochs=8,
                                      batch_size=64), seed=4)
        # recompute the monitored score from the restored model
        import enstune.metrics as metrics
        vals = []
        for m, ms in enumerate(plan.members):
            vals.append(metrics.nll(res.member_probs(ds.x[ms.val_idx], m),
                                    ds.y[ms.val_idx]))
        assert float(np.mean(vals)) == pytest.approx(res.stop.best_score, abs=1e-12)

    def test_overlapping_plan_runs(self):
        ds = self.make_task(n=300)
        plan = make_overlapping(len(ds), 4, rng_seed=5, labels=ds.y,
                                val_fraction=0.1)
        res = be_train(ds.x, ds.y, plan, [2, 8, 4], "gaussian",
                       OptimizerConfig(lr=3e-3),
                       StoppingConfig(mode="joint", patience=3, max_epochs=8,
                                      batch_size=64), seed=6, sigma=0.1)
        assert len(res.stop.history) <= 8

    def test_single_member_reduces_to_plain_training(self):
        ds = self.make_task(n=200)
        plan = make_shared(len(ds), 0.2, 1, rng_seed=7, labels=ds.y)
        res = be_train(ds.x, ds.y, plan, [2, 8, 4], "random_sign",
                       OptimizerConfig(lr=3e-3),
                       StoppingConfig(mode="joint", patience=3, max_epochs=10,
                                      batch_size=64), seed=8)
        assert res.model.n_members == 1

    def test_determinism(self):
        ds = self.make_task(n=200)
        plan = make_shared(len(ds), 0.2, 2, rng_seed=9, labels=ds.y)
        kw = dict(dims=[2, 8, 4], scheme="random_sign",
                  opt_cfg=OptimizerConfig(lr=3e-3),
                  stop_cfg=StoppingConfig(mode="joint", patience=2, max_epochs=6,
                                          batch_size=64), seed=10)
        a = be_train(ds.x, ds.y, plan, **kw)
        b = be_train(ds.x, ds.y, plan, **kw)
        assert a.stop.history == b.stop.history
