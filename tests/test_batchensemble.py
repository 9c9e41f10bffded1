"""Tests for rank-1 fast-weight ensembles: algebra, gradients, training."""

import warnings

import numpy as np
import pytest

from enstune import batchensemble
from enstune.batchensemble import (
    _BN_MOMENTUM,
    _VAR_FLOOR,
    BatchEnsembleModel,
    BatchNormState,
    _BeTrajectory,
    _IndexStream,
    _bn_forward,
    _sample_sum,
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
from enstune.netcore import (LabelError, MlpParams, NonFiniteLossError, ShapeError,
                              _check_labels, _views, mlp_forward, softmax)
from enstune.splits import joint_eval_sets, make_disjoint, make_overlapping, make_shared
from enstune.training import _BATCH, OptimizerConfig, StoppingConfig, member_rng


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

    def test_batch_norm_model_matches_materialized_oracle_in_eval_mode(self):
        rng = np.random.default_rng(16)
        model = small_model(dims=(3, 6, 5, 4))
        for bn in model.bn:  # non-trivial eval statistics and affine maps
            bn.running_mean += rng.normal(0, 0.3, size=bn.running_mean.shape)
            bn.running_var *= rng.uniform(0.5, 2.0, size=bn.running_var.shape)
            bn.gamma[...] = rng.uniform(0.5, 1.5, size=bn.gamma.shape)
            bn.beta[...] = rng.normal(0, 0.2, size=bn.beta.shape)
        x = rng.normal(size=(12, 3))
        for m in range(model.n_members):
            layers = materialized_member_params(model, m).layers
            h = x
            for i, layer in enumerate(layers):
                h = mlp_forward(MlpParams([layer]), h)
                if i < len(layers) - 1:  # eval batch norm by hand, then ReLU
                    bn = model.bn[i]
                    sd = np.sqrt(np.maximum(bn.running_var[m], _VAR_FLOOR))
                    h = np.maximum((h - bn.running_mean[m]) / sd * bn.gamma[m] + bn.beta[m],
                                   0.0)
            assert np.abs(be_forward(model, x, m) - h).max() < 1e-10

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

    def test_hidden_slow_bias_gradient_is_zero_only_under_batch_norm(self):
        # training batch norm subtracts the batch mean, which cancels a hidden
        # slow bias; without batch norm the bias is a live parameter
        rng = np.random.default_rng(17)
        xs = rng.normal(size=(3, 9, 3))
        ys = rng.integers(0, 4, size=(3, 9))
        for use_batchnorm in (True, False):
            model = small_model(dims=(3, 6, 5, 4), m=3, use_batchnorm=use_batchnorm)
            _, grads = be_loss_and_grads(model, xs, ys)
            *hidden, output = model._groups(grads)[1]
            assert np.abs(output).max() > 1e-6
            for g in hidden:
                if use_batchnorm:
                    assert not g.any()
                else:
                    assert np.abs(g).max() > 1e-6

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


# -- the allocating kernel that the buffered one replaced, kept as its oracle:
# every array new, with the kernel's formulas (feature-major activations,
# member weights W ∘ (r_m s_mᵀ) in one batched matmul per layer, sample sums
# as products with ones, the batch-norm scale applied to the weight-shaped
# arrays, no hidden slow bias under batch norm), so kept buffers and flat
# label indices are what the comparison tests --

def _ref_sample_sum(a):
    """Feature-major (M, W, N) summed over samples as one product a @ ones(N)."""
    return np.matmul(a, np.ones(a.shape[2]))


def _ref_bn_forward(u, state, members, training, update_stats):
    if training:
        n = u.shape[2]
        mean = _ref_sample_sum(u) / n
        centered = u - mean[:, :, None]
        var = np.vecdot(centered, centered) / n
        if update_stats:
            state.running_mean[members] = (_BN_MOMENTUM * state.running_mean[members]
                                           + (1 - _BN_MOMENTUM) * mean)
            state.running_var[members] = (_BN_MOMENTUM * state.running_var[members]
                                          + (1 - _BN_MOMENTUM) * var)
    else:
        var = state.running_var[members]
        centered = u - state.running_mean[members][:, :, None]
    inv_sd = 1.0 / np.sqrt(np.maximum(var, _VAR_FLOOR))
    gamma = state.gamma[members]
    out = centered * (gamma * inv_sd)[:, :, None] + state.beta[members][:, :, None]
    return out, (centered, inv_sd, gamma, var)


def _ref_bn_backward(d_out, cache):
    """(d, scale, d_gamma, d_beta): the input's delta is scale ∘ d, kept
    apart as the kernel applies it."""
    centered, inv_sd, gamma, var = cache
    n = centered.shape[2]
    d_gamma = np.vecdot(d_out, centered) * inv_sd
    d_beta = _ref_sample_sum(d_out)
    live = var >= _VAR_FLOOR
    d = (d_out - (d_beta / n)[:, :, None]
         - centered * (live * d_gamma * inv_sd / n)[:, :, None])
    return d, gamma * inv_sd, d_gamma, d_beta


def reference_be_loss_and_grads(model, xs, ys, update_stats=True):
    """Every activation a new array, members picked by fancy index, labels
    by fancy index and one label check per member: the kernel without kept
    buffers."""
    m_all = np.arange(model.n_members)
    xs = np.asarray(xs, dtype=np.float64)
    n_layers = len(model.slow.layers)
    h, caches = xs.transpose(0, 2, 1), []
    for i, layer in enumerate(model.slow.layers):
        r = model.fast.r[i][m_all]
        s = model.fast.s[i][m_all]
        rs = r[:, :, None] * s[:, None, :]
        w_m = rs * layer.weight
        u = np.matmul(w_m.swapaxes(1, 2), h)
        hidden = i < n_layers - 1
        bn_cache = None
        if hidden and model.use_batchnorm:
            u, bn_cache = _ref_bn_forward(u, model.bn[i], m_all, True, update_stats)
        else:
            u = u + layer.bias[:, None]
        out = np.maximum(u, 0.0) if hidden else u
        caches.append((h, r, s, rs, w_m, bn_cache, u))
        h = out
    n_members, k, batch = h.shape
    ys = np.stack([_check_labels(ys[m], k, xs[m]) for m in range(n_members)])
    shifted = h - h.max(axis=1, keepdims=True)
    total_exp = np.exp(shifted).sum(axis=1, keepdims=True)
    pick = (m_all[:, None], ys, np.arange(batch))
    total = float((-(shifted[pick] - np.log(total_exp[:, 0, :])).mean(axis=1)).sum())
    delta = np.exp(shifted) / total_exp
    delta[pick] -= 1.0
    delta /= batch
    grads = np.empty_like(model.flat)
    views = _views(grads, [a.shape for a in model.arrays()])
    g_slow_w, g_slow_b = views[0:2 * n_layers:2], views[1:2 * n_layers:2]
    g_r, g_s = views[2 * n_layers:4 * n_layers:2], views[2 * n_layers + 1:4 * n_layers:2]
    g_gamma, g_beta = views[4 * n_layers::2], views[4 * n_layers + 1::2]
    for i in range(n_layers - 1, -1, -1):
        h, r, s, rs, w_m, bn_cache, pre_relu = caches[i]
        if i < n_layers - 1:
            delta = delta * (pre_relu > 0)
        scale = np.ones((n_members, 1, w_m.shape[2]))
        if bn_cache is None:
            g_slow_b[i][...] = _ref_sample_sum(delta).sum(axis=0)
        else:
            delta, scale, g_gamma[i][...], g_beta[i][...] = _ref_bn_backward(delta, bn_cache)
            scale = scale[:, None, :]
            g_slow_b[i][...] = 0.0
        g_m = np.matmul(h, delta.swapaxes(1, 2)) * scale
        g_slow_w[i][...] = (g_m * rs).sum(axis=0)
        g_m_w = g_m * model.slow.layers[i].weight
        g_r[i][...] = np.matmul(g_m_w, s[:, :, None])[:, :, 0]
        g_s[i][...] = np.matmul(r[:, None, :], g_m_w)[:, 0, :]
        delta = np.matmul(w_m * scale, delta)
    return total, grads


def running_stats(model):
    return [a.tobytes() for b in model.bn for a in (b.running_mean, b.running_var)]


class TestBufferedKernel:
    @pytest.mark.parametrize("update_stats", [True, False])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("dims", [(2, 8, 3), (3, 16, 16, 5)])
    @pytest.mark.parametrize("use_batchnorm", [True, False])
    def test_bit_identical_to_the_allocating_kernel(self, use_batchnorm, dims, m,
                                                    update_stats):
        rng = np.random.default_rng(sum(dims) + 10 * m)
        model = small_model(seed=m, dims=dims, m=m, use_batchnorm=use_batchnorm)
        oracle = model.copy()
        bufs = {}
        for step in range(8):
            xs = rng.normal(size=(m, 9, dims[0])) * (1 + step)
            ys = rng.integers(0, dims[-1], size=(m, 9))
            loss, grads = be_loss_and_grads(model, xs, ys, update_stats, bufs=bufs)
            want_loss, want = reference_be_loss_and_grads(oracle, xs, ys, update_stats)
            assert loss == want_loss, f"step {step}"
            assert grads.tobytes() == want.tobytes(), f"step {step}"
            assert running_stats(model) == running_stats(oracle), f"step {step}"
            model.flat -= 0.1 * grads
            oracle.flat -= 0.1 * want

    def test_kept_buffers_across_batch_sizes_match_fresh_ones(self):
        rng = np.random.default_rng(12)
        kept_model = small_model(dims=(3, 16, 16, 5), m=3)
        fresh_model = kept_model.copy()
        bufs = {}
        for batch in (7, 5, 7):
            xs = rng.normal(size=(3, batch, 3))
            ys = rng.integers(0, 5, size=(3, batch))
            loss, grads = be_loss_and_grads(kept_model, xs, ys, bufs=bufs)
            want_loss, want = be_loss_and_grads(fresh_model, xs, ys, bufs={})
            assert loss == want_loss, f"batch {batch}"
            assert grads.tobytes() == want.tobytes(), f"batch {batch}"
            assert running_stats(kept_model) == running_stats(fresh_model)

    def test_steps_at_a_seen_batch_size_add_no_buffer(self):
        rng = np.random.default_rng(18)
        model = small_model(dims=(3, 16, 16, 5), m=3)
        bufs = {}

        def step(batch):
            xs = rng.normal(size=(3, batch, 3))
            ys = rng.integers(0, 5, size=(3, batch))
            _, grads = be_loss_and_grads(model, xs, ys, bufs=bufs)
            model.flat -= 0.1 * grads

        step(9)
        kept = dict(bufs)
        for batch in (9, 5, 9):
            step(batch)
            assert bufs.keys() == kept.keys(), f"batch {batch}"
            assert all(bufs[key] is buf for key, buf in kept.items()), f"batch {batch}"

    @pytest.mark.parametrize("dims_a, dims_b", [((2, 8, 2), (2, 4, 4, 2)),
                                                ((2, 3, 6, 2), (2, 6, 3, 2))])
    def test_buffers_reused_by_an_equal_size_model_of_other_layout(self, dims_a, dims_b):
        rng = np.random.default_rng(20)
        model_a, model_b = small_model(dims=dims_a, m=3), small_model(dims=dims_b, m=3)
        assert model_a.flat.size == model_b.flat.size
        bufs = {}
        for model in (model_a, model_b, model_a):
            xs = rng.normal(size=(3, 6, 2))
            ys = rng.integers(0, 2, size=(3, 6))
            loss, grads = be_loss_and_grads(model, xs, ys, update_stats=False, bufs=bufs)
            want_loss, want = be_loss_and_grads(model, xs, ys, update_stats=False)
            assert loss == want_loss
            assert grads.tobytes() == want.tobytes()

    def test_returned_gradients_survive_the_next_call(self):
        rng = np.random.default_rng(13)
        model = small_model(dims=(3, 16, 16, 5), m=3)
        bufs = {}
        xs, ys = rng.normal(size=(3, 7, 3)), rng.integers(0, 5, size=(3, 7))
        _, grads = be_loss_and_grads(model, xs, ys, bufs=bufs)
        kept = grads.copy()
        be_loss_and_grads(model, 2 * xs, (ys + 1) % 5, bufs=bufs)
        assert grads.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_label_error_names_member_and_sample(self, bad):
        rng = np.random.default_rng(14)
        model = small_model()
        xs = rng.normal(size=(4, 8, 3))
        ys = rng.integers(0, 4, size=(4, 8))
        ys[2, 5] = bad
        with pytest.raises(LabelError, match=f"label {bad} at member 2, sample 5 "):
            be_loss_and_grads(model, xs, ys)

    @pytest.mark.parametrize("n_labels", [7, 9])
    def test_label_count_mismatch_is_a_shape_error(self, n_labels):
        rng = np.random.default_rng(15)
        model = small_model()
        before = model.flat.copy(), running_stats(model)
        xs = rng.normal(size=(4, 8, 3))
        ys = rng.integers(0, 4, size=(4, n_labels))
        with pytest.raises(ShapeError, match=rf"\(4, {n_labels}\).*\(4, 8, 3\)"):
            be_loss_and_grads(model, xs, ys)
        assert model.flat.tobytes() == before[0].tobytes()
        assert running_stats(model) == before[1]


def scheme_models(dims, m, use_batchnorm=True):
    """Three schemes from the same slow weights, as be_train draws them."""
    return [make_batch_ensemble(list(dims), m, kind, np.random.default_rng(30), sigma,
                                use_batchnorm)
            for kind, sigma in (("gaussian", 0.1), ("gaussian", 0.5), ("random_sign", 0.0))]


class TestStackedKernel:
    """A stack of schemes steps as each scheme would alone, bit for bit."""

    @pytest.mark.parametrize("update_stats", [True, False])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("dims", [(2, 8, 3), (3, 16, 16, 5)])
    @pytest.mark.parametrize("use_batchnorm", [True, False])
    def test_bit_identical_to_one_call_per_scheme(self, use_batchnorm, dims, m,
                                                  update_stats):
        rng = np.random.default_rng(sum(dims) + m)
        alone = scheme_models(dims, m, use_batchnorm)
        stack = BatchEnsembleModel.stack(alone)
        assert stack.flat.shape == (3, alone[0].flat.size)
        bufs, alone_bufs = {}, [{} for _ in alone]
        for step in range(6):
            xs = rng.normal(size=(m, 9, dims[0])) * (1 + step)
            ys = rng.integers(0, dims[-1], size=(m, 9))
            losses, grads = be_loss_and_grads(stack, xs, ys, update_stats, bufs=bufs)
            assert grads.shape == stack.flat.shape
            for s, (model, own) in enumerate(zip(alone, alone_bufs)):
                want_loss, want = be_loss_and_grads(model, xs, ys, update_stats, bufs=own)
                assert losses[s] == want_loss, f"step {step}, scheme {s}"
                # slow-weight, fast-weight and BN gradients alike
                assert grads[s].tobytes() == want.tobytes(), f"step {step}, scheme {s}"
                assert (running_stats(stack.scheme(s)) == running_stats(model)), \
                    f"step {step}, scheme {s}"
                model.flat -= 0.1 * want
            stack.flat -= 0.1 * grads

    def test_a_scheme_view_shares_the_stack(self):
        stack = BatchEnsembleModel.stack(scheme_models((2, 8, 8, 3), 3))
        view = stack.scheme(1)
        assert view.flat.shape == stack.flat.shape[1:]
        assert np.shares_memory(view.flat, stack.flat)
        assert all(np.shares_memory(a, b.running_mean)
                   for a, b in zip((v.running_mean for v in view.bn), stack.bn))
        assert view.decay_mask().tobytes() == stack.decay_mask().tobytes()

    def test_one_scheme_functions_refuse_a_stack(self):
        stack = BatchEnsembleModel.stack(scheme_models((2, 8, 3), 3))
        xs = np.zeros((3, 5, 2))
        for call in (lambda: be_forward(stack, xs[0], 0), lambda: be_forward_all(stack, xs),
                     lambda: be_grad_check(stack, xs, np.zeros((3, 5), int))):
            with pytest.raises(ShapeError, match="model.scheme"):
                call()
        be_forward(stack.scheme(2), xs[0], 0)  # a scheme's view is one model

    def test_non_finite_loss_names_the_schemes_own_member_and_sample(self):
        stack = BatchEnsembleModel.stack(scheme_models((3, 6, 4), 4))
        stack.fast.r[0][1, 2, 0] = np.nan  # scheme 1's member 2, every sample
        rng = np.random.default_rng(31)
        xs = rng.normal(size=(4, 8, 3))
        ys = rng.integers(0, 4, size=(4, 8))
        # member 2 of scheme 1, not the stack's member row 1·4 + 2 = 6
        with pytest.raises(NonFiniteLossError, match="at member 2, sample 0$"):
            be_loss_and_grads(stack, xs, ys)


class TestSampleSums:
    """Batch statistics and gradient sums over the contiguous sample axis are
    BLAS products, with ones or of a unit's samples with themselves: they
    agree with numpy's own reduction to rounding, not bit for bit."""

    @pytest.mark.parametrize("shape", [(4, 2, 128), (4, 32, 128), (4, 4, 128),
                                       (1, 16, 9), (3, 5, 7)])
    def test_matches_add_reduce(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.random(shape) + 0.1  # positive, so every sum is far from 0
        per_member = _sample_sum(a, np.empty(shape[:2]), {})
        np.testing.assert_allclose(per_member, np.add.reduce(a, axis=2), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("m, n, width", [(4, 128, 32), (1, 9, 16), (3, 7, 5)])
    def test_training_batch_norm_standardizes_each_member_and_unit(self, m, n, width):
        rng = np.random.default_rng(n + width)
        scale = rng.uniform(0.1, 10.0, size=(width, 1))
        u = 3.0 + scale * rng.normal(size=(m, width, n))
        state = BatchNormState.identity(m, width)  # gamma 1, beta 0
        out, _ = _bn_forward(u, state, slice(None), training=True, update_stats=False,
                             bufs={}, i=0)
        assert np.abs(out.mean(axis=2)).max() <= 1e-12
        assert np.abs(out.var(axis=2) - 1.0).max() <= 1e-12


class PerStepStream:
    """The per-step draw that the epoch draw replaced, kept as its oracle:
    ``size`` indices a call, a new permutation opened when the last runs out."""

    def __init__(self, indices, rng):
        self.indices, self.rng = np.asarray(indices), rng
        self.order = rng.permutation(len(self.indices))
        self.pos = 0

    def next_batch(self, size):
        need = min(size, len(self.indices))
        take = self.order[self.pos:self.pos + need]
        self.pos += len(take)
        if len(take) < need:  # the order ran out: the rest opens a new one
            self.order = self.rng.permutation(len(self.indices))
            self.pos = need - len(take)
            take = np.concatenate([take, self.order[:self.pos]])
        return self.indices[take]


def overlapping_task():
    """A 4-member overlapping plan on 203 rows: portions of 51, 51, 51 and
    50 rows, so member train sizes and pair set sizes differ."""
    ds = make_blobs(203, 4, 0.8, np.random.default_rng(20), label_noise=0.1)
    return ds, make_overlapping(len(ds), 4, rng_seed=21, labels=ds.y)


def trajectory(ds, plan, epochs=2, seed=22):
    model = make_batch_ensemble([2, 6, 5, 4], plan.n_members, "gaussian",
                                np.random.default_rng(seed), 0.4)
    traj = _BeTrajectory(ds.x, ds.y, plan, BatchEnsembleModel.stack([model]),
                         OptimizerConfig(lr=0.01), 32, seed)
    for _ in range(epochs):
        traj.run_epoch()
    return traj


class TestEpochDraw:
    @pytest.mark.parametrize("n, batch, steps", [(50, 16, 4), (48, 16, 3), (20, 20, 1),
                                                 (7, 3, 9)])
    def test_matches_the_per_step_draw(self, n, batch, steps):
        indices = np.random.default_rng(n).permutation(1000)[:n]
        epoch = _IndexStream(indices, np.random.default_rng(23))
        per_step = PerStepStream(indices, np.random.default_rng(23))
        for e in range(5):
            want = np.concatenate([per_step.next_batch(batch) for _ in range(steps)])
            assert epoch.take(steps * batch).tobytes() == want.tobytes(), f"epoch {e}"

    def test_trajectory_steps_on_the_per_step_batches(self, monkeypatch):
        ds, plan = overlapping_task()
        sizes = [len(ms.train_idx) for ms in plan.members]
        assert len(set(sizes)) > 1
        traj = trajectory(ds, plan, epochs=0)
        # the epoch is longer than the smallest train set: an order wraps in a batch
        assert traj.steps_per_epoch * traj.batch > min(sizes)
        replay = [PerStepStream(ms.train_idx, member_rng(22, m, _BATCH))
                  for m, ms in enumerate(plan.members)]
        seen = []

        def recording(model, xs, ys, update_stats=True, bufs=None):
            seen.append((np.array(xs), np.array(ys)))
            return be_loss_and_grads(model, xs, ys, update_stats, bufs)

        monkeypatch.setattr(batchensemble, "be_loss_and_grads", recording)
        for _ in range(3):
            traj.run_epoch()
        assert len(seen) == 3 * traj.steps_per_epoch
        for step, (xs, ys) in enumerate(seen):
            idx = [stream.next_batch(traj.batch) for stream in replay]
            want_x = np.stack([traj.xs[m, i] for m, i in enumerate(idx)])
            assert xs.tobytes() == want_x.tobytes(), f"step {step}"
            assert ys.tobytes() == np.stack([ds.y[i] for i in idx]).tobytes(), f"step {step}"


def buffer_bytes(bufs):
    """The bytes of every kept array: the gradient entry is (layout, vector,
    views), and ``bufs["views"]`` holds views of the others."""
    return {key: (buf[1] if key == "grads" else buf).tobytes()
            for key, buf in bufs.items() if key != "views"}


class TestMonitoringForward:
    """The monitoring pass reads kept buffers and inputs gathered once."""

    def plans(self):
        ds, overlapping = overlapping_task()
        return ds, {"shared": make_shared(len(ds), 0.2, 4, rng_seed=24, labels=ds.y),
                    "disjoint": make_disjoint(len(ds), 0.1, 4, rng_seed=25, labels=ds.y),
                    "overlapping": overlapping}

    @staticmethod
    def monitored_sets(plan):
        if plan.strategy == "disjoint":
            return [((m,), ms.val_idx) for m, ms in enumerate(plan.members)]
        return joint_eval_sets(plan)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("strategy", ["shared", "disjoint", "overlapping"])
    def test_bit_identical_to_fresh_per_member_forwards(self, strategy, reverse):
        ds, plans = self.plans()
        plan = plans[strategy]
        traj = trajectory(ds, plan)
        sets = self.monitored_sets(plan)
        if strategy == "overlapping":
            assert len({len(idx) for _, idx in sets}) > 1
        for _ in range(2):  # fresh inputs and buffers, then kept ones
            for ids, idx in sets[::-1] if reverse else sets:
                got = traj.set_logits(ids, idx, 0)
                assert len(got) == len(ids)
                for m, p in zip(ids, got):
                    want = be_forward(traj.model(0), traj.xs[m, idx], m)
                    assert p.tobytes() == want.tobytes(), f"members {ids}, member {m}"
            traj.run_epoch()

    def test_other_rows_for_the_same_members_are_gathered_anew(self):
        ds, plans = self.plans()
        traj = trajectory(ds, plans["shared"])
        members = tuple(range(4))
        for idx in (np.arange(10), np.arange(10, 30), np.arange(10)):
            for m, p in zip(members, traj.set_logits(members, idx, 0)):
                want = be_forward(traj.model(0), traj.xs[m, idx], m)
                assert p.tobytes() == want.tobytes()

    def test_leaves_training_buffers_and_running_statistics(self):
        ds, plans = self.plans()
        for plan in plans.values():
            traj = trajectory(ds, plan)
            bufs, stats = buffer_bytes(traj.bufs), running_stats(traj.params)
            for ids, idx in self.monitored_sets(plan):
                traj.set_logits(ids, idx, 0)
            assert buffer_bytes(traj.bufs) == bufs, plan.strategy
            assert running_stats(traj.params) == stats, plan.strategy


class TestTraining:
    def make_task(self, n=400, seed=0):
        return make_blobs(n, 4, 0.8, np.random.default_rng(seed), label_noise=0.1)

    def test_trains_on_shared_plan(self):
        ds = self.make_task()
        plan = make_shared(len(ds), 0.1, 4, rng_seed=1, labels=ds.y)
        (res,) = be_train(ds.x, ds.y, plan, [2, 16, 4], ["random_sign"],
                          OptimizerConfig(lr=3e-3),
                          StoppingConfig(mode="joint", patience=5, max_epochs=30,
                                         batch_size=64), seed=2)
        assert res.stop.best_score == min(res.stop.history)
        probs = res.all_probs(ds.x)
        assert all(p.shape == (len(ds), 4) for p in probs)

    def test_hidden_slow_biases_stay_zero_under_batch_norm(self):
        ds = self.make_task(n=200)
        plan = make_shared(len(ds), 0.2, 2, rng_seed=11, labels=ds.y)
        (res,) = be_train(ds.x, ds.y, plan, [2, 8, 6, 4], ["gaussian_0.1"],
                          OptimizerConfig(lr=1e-2, weight_decay=1e-3, decay_bias=True),
                          StoppingConfig(mode="joint", patience=2, max_epochs=5,
                                         batch_size=64), seed=12)
        *hidden, output = res.model.slow.layers
        assert all(not layer.bias.any() for layer in hidden)
        assert output.bias.any()

    def test_disjoint_plan_uses_average_member_nll(self):
        ds = self.make_task(n=300)
        plan = make_disjoint(len(ds), 0.1, 3, rng_seed=3, labels=ds.y)
        (res,) = be_train(ds.x, ds.y, plan, [2, 8, 4], ["random_sign"],
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
        (res,) = be_train(ds.x, ds.y, plan, [2, 8, 4], ["gaussian_0.1"],
                          OptimizerConfig(lr=3e-3),
                          StoppingConfig(mode="joint", patience=3, max_epochs=8,
                                         batch_size=64), seed=6)
        assert len(res.stop.history) <= 8

    def test_single_member_reduces_to_plain_training(self):
        ds = self.make_task(n=200)
        plan = make_shared(len(ds), 0.2, 1, rng_seed=7, labels=ds.y)
        (res,) = be_train(ds.x, ds.y, plan, [2, 8, 4], ["random_sign"],
                          OptimizerConfig(lr=3e-3),
                          StoppingConfig(mode="joint", patience=3, max_epochs=10,
                                         batch_size=64), seed=8)
        assert res.model.n_members == 1

    def test_non_finite_loss_names_member_and_sample(self):
        model = small_model()
        model.fast.r[0][2] = np.nan  # member 2's every sample
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(4, 8, 3))
        ys = rng.integers(0, 4, size=(4, 8))
        with pytest.raises(NonFiniteLossError, match="member 2, sample 0$"):
            be_loss_and_grads(model, xs, ys)

    def test_diverging_training_fails_without_numpy_warnings(self):
        # the kernel reports the divergence itself; numpy's overflow and
        # invalid-value warnings on the way there would only repeat it
        ds = self.make_task()
        plan = make_shared(len(ds), 0.1, 4, rng_seed=1, labels=ds.y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteLossError, match=r"member \d, sample \d+$"):
                be_train(ds.x, ds.y, plan, [2, 16, 4], ["gaussian_0.5"],
                         OptimizerConfig(kind="sgd_momentum", lr=1e8),
                         StoppingConfig(mode="joint", patience=3, max_epochs=20,
                                        batch_size=64), seed=0)

    def test_determinism(self):
        ds = self.make_task(n=200)
        plan = make_shared(len(ds), 0.2, 2, rng_seed=9, labels=ds.y)
        kw = dict(dims=[2, 8, 4], schemes=["random_sign"],
                  opt_cfg=OptimizerConfig(lr=3e-3),
                  stop_cfg=StoppingConfig(mode="joint", patience=2, max_epochs=6,
                                          batch_size=64), seed=10)
        (a,) = be_train(ds.x, ds.y, plan, **kw)
        (b,) = be_train(ds.x, ds.y, plan, **kw)
        assert a.stop.history == b.stop.history


class TestStackedTraining:
    """be_train's stack of schemes gives each scheme the result it gets alone."""

    SCHEMES = ["gaussian_0.1", "gaussian_0.5", "random_sign"]

    @staticmethod
    def plan(strategy, ds):
        if strategy == "shared":
            return make_shared(len(ds), 0.2, 4, rng_seed=1, labels=ds.y)
        if strategy == "overlapping":
            return make_overlapping(len(ds), 4, rng_seed=2, labels=ds.y, val_fraction=0.2)
        return make_disjoint(len(ds), 0.1, 3, rng_seed=3, labels=ds.y)

    # at 25 epochs every scheme stops early, at 12 one on shared and disjoint
    # plans runs to the end
    @pytest.mark.parametrize("strategy, mode, max_epochs", [
        (strategy, "joint", 25) for strategy in ("shared", "overlapping", "disjoint")
    ] + [("shared", "joint", 12), ("disjoint", "joint", 12)] + [
        (strategy, "none", 4) for strategy in ("shared", "overlapping", "disjoint")])
    def test_bit_identical_to_one_call_per_scheme(self, strategy, mode, max_epochs):
        ds = make_blobs(300, 4, 0.8, np.random.default_rng(0), label_noise=0.1)
        plan = self.plan(strategy, ds)
        kw = dict(dims=[2, 8, 4], opt_cfg=OptimizerConfig(lr=5e-2),
                  stop_cfg=StoppingConfig(mode=mode, patience=2, max_epochs=max_epochs,
                                          batch_size=32), seed=4)
        stacked = be_train(ds.x, ds.y, plan, schemes=self.SCHEMES, **kw)
        assert len(stacked) == len(self.SCHEMES)
        for scheme, got in zip(self.SCHEMES, stacked):
            (want,) = be_train(ds.x, ds.y, plan, schemes=[scheme], **kw)
            assert got.model.flat.tobytes() == want.model.flat.tobytes(), scheme
            assert running_stats(got.model) == running_stats(want.model), scheme
            assert got.stop.to_dict() == want.stop.to_dict(), scheme
            for p, q in zip(got.all_probs(ds.x), want.all_probs(ds.x)):
                assert p.tobytes() == q.tobytes(), scheme
        stops = [len(r.stop.history) for r in stacked]
        if mode == "none":
            assert stops == [max_epochs] * 3
        else:  # the schemes leave the stack at different epochs
            assert len(set(stops)) == 3, stops
            ran_out = [not r.stop.stopped_early for r in stacked]
            assert any(ran_out) == (max_epochs == 12), ran_out
