"""Tests for the MLP engine: forward, loss/grad, optimizers, schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from enstune.netcore import (
    DenseLayer,
    LabelError,
    MlpParams,
    NonFiniteLossError,
    Optimizer,
    ShapeError,
    _backward,
    _buffer,
    _forward,
    _class_major,
    _class_sum,
    _layer_views,
    cosine_lr,
    grad_check,
    log_softmax,
    loss_and_grad,
    mlp_forward,
    softmax,
)


def random_mlp(dims, seed=0):
    return MlpParams.random(dims, np.random.default_rng(seed))


def loop_forward(params, x):
    """Independent oracle: forward pass as explicit nested loops."""
    h = [list(row) for row in x]
    n_layers = len(params.layers)
    for li, layer in enumerate(params.layers):
        w, b = layer.weight, layer.bias
        out = []
        for row in h:
            new = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += row[i] * w[i, j]
                if li < n_layers - 1 and s < 0:
                    s = 0.0
                new.append(s)
            out.append(new)
        h = out
    return np.asarray(h)


class TestForward:
    def test_identity_layer(self):
        params = MlpParams([DenseLayer(np.eye(2), np.zeros(2))])
        out = mlp_forward(params, np.array([[3.0, -1.0]]))
        assert np.array_equal(out, np.array([[3.0, -1.0]]))

    def test_dead_relu_passes_only_output_bias(self):
        # Hidden pre-activations all negative: output is the output bias.
        w1 = -np.ones((2, 3))
        b1 = np.array([-1.0, -2.0, -3.0])
        w2 = np.ones((3, 2))
        b2 = np.array([0.5, -0.25])
        params = MlpParams([DenseLayer(w1, b1), DenseLayer(w2, b2)])
        x = np.array([[1.0, 2.0], [3.0, 0.5]])
        out = mlp_forward(params, x)
        assert np.allclose(out, np.tile(b2, (2, 1)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        params = random_mlp([4, 6, 3], seed=7)
        x = rng.normal(size=(5, 4))
        got = mlp_forward(params, x)
        want = loop_forward(params, x)
        assert np.abs(got - want).max() < 1e-12

    def test_dimension_mismatch_names_layer(self):
        params = random_mlp([4, 6, 3])
        with pytest.raises(ShapeError, match="layer 0"):
            mlp_forward(params, np.zeros((2, 5)))
        bad = random_mlp([4, 6, 3])
        bad.layers[1].weight = np.zeros((7, 3))
        with pytest.raises(ShapeError, match="layer 1"):
            mlp_forward(bad, np.zeros((2, 4)))

    def test_empty_network_is_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 2))
        assert np.array_equal(mlp_forward(MlpParams([]), x), x)


class TestLossAndGrad:
    def test_uniform_logits_gives_log_k(self):
        params = MlpParams([DenseLayer(np.zeros((3, 4)), np.zeros(4))])
        x = np.random.default_rng(1).normal(size=(6, 3))
        y = np.array([0, 1, 2, 3, 0, 1])
        nll, _ = loss_and_grad(params, x, y)
        assert abs(nll - math.log(4)) < 1e-12

    def test_confident_correct_logits(self):
        # Margin +50 drives the loss below 1e-20.
        params = MlpParams([DenseLayer(np.eye(3) * 50.0, np.zeros(3))])
        x = np.eye(3)
        y = np.array([0, 1, 2])
        nll, _ = loss_and_grad(params, x, y)
        assert 0.0 <= nll < 1e-20

    def test_label_out_of_range(self):
        params = random_mlp([2, 3])
        with pytest.raises(LabelError, match="sample 1"):
            loss_and_grad(params, np.zeros((2, 2)), np.array([0, 3]))

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_label_count_mismatch_is_a_shape_error(self, n_labels):
        params = random_mlp([2, 3])
        with pytest.raises(ShapeError, match=rf"\({n_labels},\).*\(2, 2\)"):
            loss_and_grad(params, np.zeros((2, 2)), np.zeros(n_labels, dtype=int))

    def test_non_finite_reports_sample(self):
        params = MlpParams([DenseLayer(np.array([[np.inf]]), np.zeros(1))])
        with pytest.raises(NonFiniteLossError, match="sample 0"):
            loss_and_grad(params, np.array([[1.0]]), np.array([0]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            dims = [int(rng.integers(2, 5)) for _ in range(3)]
            params = MlpParams.random(dims, rng)
            x = rng.normal(size=(4, dims[0]))
            y = rng.integers(0, dims[-1], size=4)
            report = grad_check(params, x, y, eps=1e-5)
            assert report.max_rel_error < 1e-4, f"trial {trial}"


class TestOptimizer:
    def test_vanilla_sgd_exact(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        opt = Optimizer("sgd_momentum", p, base_lr=0.1, momentum=0.0)
        opt.step(p, g)
        assert np.allclose(p, [1.0 - 0.05, 2.0 + 0.05], atol=1e-15)

    def test_pure_decay_shrinkage(self):
        p = np.array([2.0, -4.0])
        g = np.zeros(2)
        opt = Optimizer("sgd_momentum", p, base_lr=0.1, weight_decay=0.5, momentum=0.0)
        opt.step(p, g)
        assert np.allclose(p, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5), atol=1e-15)

    def test_bias_excluded_from_decay(self):
        params = MlpParams([DenseLayer(np.ones((1, 1)), np.ones(1))])
        opt = Optimizer("sgd_momentum", params.flat, base_lr=0.1, weight_decay=1.0,
                        momentum=0.0, decay_mask=params.decay_mask())
        opt.step(params.flat, np.zeros(2))
        assert params.layers[0].weight[0, 0] == pytest.approx(0.9)
        assert params.layers[0].bias[0] == 1.0

    def test_adam_matches_hand_recursion(self):
        # Three Adam steps on f(w) = w^2/2 (grad = w), checked against the
        # moment recursions written out by hand.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = np.array([1.0])
        opt = Optimizer("adam", p, base_lr=lr)
        w = 1.0
        m = v = 0.0
        for t in range(1, 4):
            g = w  # analytic gradient of the quadratic at current w
            opt.step(p, np.array([g]))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            assert abs(p[0] - w) < 1e-12
            # keep the library and hand versions marching in lockstep
            w = float(p[0])

    def test_lr_zero_is_identity(self):
        rng = np.random.default_rng(5)
        for kind in Optimizer.KINDS:
            p = np.concatenate([rng.normal(size=(3, 2)).ravel(), rng.normal(size=2)])
            before = p.copy()
            opt = Optimizer(kind, p, base_lr=1.0, weight_decay=0.1)
            g = np.concatenate([rng.normal(size=(3, 2)).ravel(), rng.normal(size=2)])
            opt.step(p, g, lr_now=0.0)
            assert np.array_equal(p, before)

    def test_shape_mismatch(self):
        p = np.zeros(3)
        opt = Optimizer("adam", p, base_lr=0.1)
        with pytest.raises(ShapeError):
            opt.step(p, np.zeros(4))


class ReferenceOptimizer:
    """The per-array optimizer the flat one replaces, kept as its oracle:
    decoupled decay on the arrays ``decay_mask`` selects (one decay per row
    of stacked arrays, too), then SGD with momentum or Adam with bias
    correction, one array at a time."""

    def __init__(self, kind, params, base_lr, weight_decay=0.0, momentum=0.9,
                 decay_mask=None):
        self.kind, self.base_lr, self.momentum = kind, base_lr, momentum
        self.weight_decay = weight_decay
        self.decays = bool((np.asarray(weight_decay) > 0).any())
        self.decay_mask = decay_mask if decay_mask is not None else [True] * len(params)
        self.step_count = 0
        if kind == "sgd_momentum":
            self.velocity = [np.zeros_like(p) for p in params]
        else:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, lr):
        self.step_count += 1
        if self.decays and lr > 0.0:
            shrink = 1.0 - lr * self.weight_decay
            for p, decays in zip(params, self.decay_mask):
                if decays:
                    p *= shrink
        if self.kind == "sgd_momentum":
            for i, (p, g) in enumerate(zip(params, grads)):
                self.velocity[i] = self.momentum * self.velocity[i] + g
                p -= lr * self.velocity[i]
        else:
            t = self.step_count
            bc1 = 1.0 - 0.9 ** t
            bc2 = 1.0 - 0.999 ** t
            for i, (p, g) in enumerate(zip(params, grads)):
                self.m[i] = 0.9 * self.m[i] + (1.0 - 0.9) * g
                self.v[i] = 0.999 * self.v[i] + (1.0 - 0.999) * (g * g)
                p -= lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + 1e-8)

    def keep_rows(self, rows):
        for state in ([self.velocity] if self.kind == "sgd_momentum" else [self.m, self.v]):
            state[:] = [a[rows] for a in state]
        if not isinstance(self.weight_decay, float):
            self.weight_decay = self.weight_decay[rows]


def per_array(flat, dims):
    """Stacked per-array copies of ``(..., P)`` rows: weights (..., in, out)
    and biases (..., 1, out), interleaved like ``MlpParams.arrays``."""
    out = []
    for w, b in _layer_views(flat, dims):
        out += [w.copy(), b[..., None, :].copy()]
    return out


def flatten(arrays, lead):
    return np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1)


class TestOptimizerOracle:
    DIMS = [3, 5, 4]

    @pytest.mark.parametrize("kind", Optimizer.KINDS)
    @pytest.mark.parametrize("decay", [0.0, 0.3])
    @pytest.mark.parametrize("decay_bias", [False, True])
    def test_flat_step_matches_per_array_step(self, kind, decay, decay_bias):
        rng = np.random.default_rng(21)
        params = MlpParams.random(self.DIMS, rng)
        ref = [a.copy() for a in params.arrays()]
        opt = Optimizer(kind, params.flat, 0.05, weight_decay=decay,
                        decay_mask=params.decay_mask(decay_bias))
        ref_opt = ReferenceOptimizer(kind, ref, 0.05, weight_decay=decay,
                                     decay_mask=[True, decay_bias] * 2)
        for step in range(10):
            grads = rng.normal(size=params.flat.shape)
            lr = cosine_lr(0.05, step, 10)
            opt.step(params.flat, grads, lr)
            ref_opt.step(ref, [g.copy() for g in MlpParams.from_flat(grads, self.DIMS)
                               .arrays()], lr)
            assert np.array_equal(params.flat, flatten(ref, ()))

    @pytest.mark.parametrize("kind", Optimizer.KINDS)
    @pytest.mark.parametrize("decay_bias", [False, True])
    def test_per_row_decays_and_keep_rows(self, kind, decay_bias):
        rng = np.random.default_rng(22)
        decays = np.array([0.0, 0.3, 0.05, 0.1])
        rows = np.stack([np.stack([MlpParams.random(self.DIMS, rng).flat for _ in range(2)])
                         for _ in decays])  # (D, M, P)
        ref = per_array(rows, self.DIMS)
        mask = MlpParams.from_flat(rows[0, 0], self.DIMS).decay_mask(decay_bias)
        opt = Optimizer(kind, rows, 0.05, weight_decay=decays[:, None, None],
                        decay_mask=mask)
        ref_opt = ReferenceOptimizer(kind, ref, 0.05,
                                     weight_decay=decays[:, None, None, None],
                                     decay_mask=[True, decay_bias] * 2)
        for step in range(10):
            if step == 5:  # drop rows 1 and 2 with their state
                keep = np.array([0, 3])
                opt.keep_rows(keep)
                ref_opt.keep_rows(keep)
                rows, ref = rows[keep], [a[keep] for a in ref]
            grads = rng.normal(size=rows.shape)
            lr = cosine_lr(0.05, step, 10)
            opt.step(rows, grads, lr)
            ref_opt.step(ref, per_array(grads, self.DIMS), lr)
            assert np.array_equal(rows, flatten(ref, rows.shape[:2]))


def stack_rows(rows):
    """The ``(D, M, P)`` stack of a grid of MLPs ``rows[d][m]``, one ``flat``
    vector per row."""
    return np.stack([np.stack([p.flat for p in row]) for row in rows])


class TestBuffer:
    def test_a_seen_shape_returns_its_kept_view_until_the_buffer_grows(self):
        bufs = {}
        small = _buffer(bufs, "a", (2, 3))
        assert _buffer(bufs, "a", (2, 3)) is small
        assert _buffer(bufs, "a", (6,)).base is small.base
        large = _buffer(bufs, "a", (4, 5))  # grows: views of the old storage go
        again = _buffer(bufs, "a", (2, 3))
        assert again is not small and again.base is large.base is bufs["a"]
        assert _buffer(bufs, "b", (2, 3)).base is bufs["b"]
        assert sorted(bufs["views"]) == [("a", (2, 3)), ("a", (4, 5)), ("b", (2, 3))]


class TestKeptBuffers:
    """``loss_and_grad`` with one ``bufs`` dict across calls, as a training
    trajectory makes them, against fresh calls."""

    @pytest.mark.parametrize("layouts", [[[2, 32, 4]], [[3, 7, 5, 4]], [[3, 4], []],
                                         [[2, 32, 4], [3, 7, 5, 4]]])
    def test_every_call_is_bit_identical_to_a_fresh_call(self, layouts):
        rng = np.random.default_rng(8)
        nets = [random_mlp(dims, seed=8) for dims in layouts]
        bufs = {}  # one dict for every call, across the layouts too
        for n in [32, 11, 1, 32, 1, 11, 32]:  # full, short last and one-row batches
            for params, dims in zip(nets, layouts):
                width, k = (dims[0], dims[-1]) if dims else (4, 4)
                x = rng.normal(size=(n, width))
                y = rng.integers(0, k, size=n)
                x_in = x.copy()
                nll, grads = loss_and_grad(params, x, y, bufs)
                assert np.array_equal(x, x_in)  # the input is read, never written
                want_nll, want = loss_and_grad(params, x, y)
                assert nll == want_nll
                for a, b in zip(grads.arrays(), want.arrays(), strict=True):
                    assert np.array_equal(a, b)

    def test_the_next_call_overwrites_the_returned_gradients(self):
        rng = np.random.default_rng(9)
        params = random_mlp([2, 6, 3], seed=9)
        bufs = {}
        _, first = loss_and_grad(params, rng.normal(size=(5, 2)), np.array([0, 1, 2, 0, 1]),
                                 bufs)
        kept = first.flat.copy()
        _, second = loss_and_grad(params, rng.normal(size=(5, 2)), np.array([2, 2, 1, 0, 0]),
                                  bufs)
        assert second is first and not np.array_equal(first.flat, kept)

    def test_a_non_finite_loss_names_its_sample(self):
        params = MlpParams([DenseLayer(np.ones((1, 3)), np.zeros(3))])
        x = np.random.default_rng(10).normal(size=(4, 1))
        y = np.array([0, 1, 2, 0])
        bufs = {}
        loss_and_grad(params, x, y, bufs)
        bad = x.copy()
        bad[2, 0] = np.inf  # every logit of sample 2 is inf, its loss nan
        with pytest.raises(NonFiniteLossError, match="sample 2"):
            loss_and_grad(params, bad, y, bufs)
        nll, grads = loss_and_grad(params, x, y, bufs)  # the buffers still serve
        want_nll, want = loss_and_grad(params, x, y)
        assert nll == want_nll and np.array_equal(grads.flat, want.flat)


def stacked_step(stack, dims, x, y, bufs):
    """The shared forward and backward over a ``(D, M, P)`` stack of MLPs,
    as a weight-decay grid steps it: ``(picked, grads)``."""
    params = MlpParams.from_flat(stack, dims)
    _, picked, grads = _backward(params, _forward(params, x, bufs), y, bufs)
    return picked, grads


class TestStackedKernel:
    """The shared forward and backward on a stack of rows against the same
    code on one member's row, as :func:`loss_and_grad` calls it."""

    @pytest.mark.parametrize("n", [9, 1])
    def test_every_row_is_bit_identical_to_loss_and_grad(self, n):
        rng = np.random.default_rng(3)
        dims = [3, 7, 5, 4]
        rows = [[random_mlp(dims, seed=10 * d + m) for m in range(2)] for d in range(3)]
        x = rng.normal(size=(2, n, 3))
        y = rng.integers(0, 4, size=(2, n))
        _, grads = stacked_step(stack_rows(rows), dims, x[None], y, {})
        for d, row in enumerate(rows):
            for m, params in enumerate(row):
                _, want = loss_and_grad(params, x[m], y[m])
                got = MlpParams.from_flat(grads.flat[d, m], dims).arrays()
                for a, b in zip(got, want.arrays(), strict=True):
                    assert np.array_equal(a.reshape(b.shape), b)

    def test_a_width_one_layer_and_ten_classes(self):
        rng = np.random.default_rng(7)
        dims = [3, 1, 10]
        rows = [[random_mlp(dims, seed=10 * d + m) for m in range(2)] for d in range(3)]
        x = rng.normal(size=(2, 9, 3))
        y = rng.integers(0, 10, size=(2, 9))
        _, grads = stacked_step(stack_rows(rows), dims, x[None], y, {})
        for d, row in enumerate(rows):
            for m, params in enumerate(row):
                _, want = loss_and_grad(params, x[m], y[m])
                got = MlpParams.from_flat(grads.flat[d, m], dims).arrays()
                for a, b in zip(got, want.arrays(), strict=True):
                    assert a.tobytes() == b.tobytes()

    def test_kept_buffers_serve_the_rows_left_after_a_drop(self):
        rng = np.random.default_rng(5)
        dims = [3, 7, 5, 4]
        stack = stack_rows([[random_mlp(dims, seed=10 * d + m) for m in range(2)]
                            for d in range(4)])
        x = rng.normal(size=(1, 2, 9, 3))
        y = rng.integers(0, 4, size=(2, 9))
        bufs = {}  # one dict for the grid call and the call after the drop
        before = stacked_step(stack, dims, x, y, bufs)[1].flat.copy()
        keep = np.array([0, 2, 3])
        left = stack[keep]
        got_picked, got = stacked_step(left, dims, x, y, bufs)
        want_picked, want = stacked_step(left.copy(), dims, x, y, {})
        assert got.flat.shape == left.shape
        assert np.array_equal(got_picked, want_picked)
        assert np.array_equal(got.flat, want.flat)
        assert np.array_equal(got.flat, before[keep])

    def test_reports_the_rows_whose_loss_is_non_finite(self):
        rng = np.random.default_rng(4)
        rows = [[random_mlp([2, 4, 3], seed=d + m) for m in range(2)] for d in range(2)]
        rows[1][0].layers[1].weight[:] = np.inf
        x = rng.normal(size=(2, 5, 2))
        y = rng.integers(0, 3, size=(2, 5))
        with np.errstate(invalid="ignore"):
            picked, grads = stacked_step(stack_rows(rows), [2, 4, 3], x[None], y, {})
        assert grads is None
        bad = ~np.isfinite(picked)
        assert bad.shape == (2, 2, 5)
        assert bad[1, 0].any() and not bad[0].any() and not bad[1, 1].any()
        with pytest.raises(NonFiniteLossError), np.errstate(invalid="ignore"):
            loss_and_grad(rows[1][0], x[0], y[0])


def row_major_backward(params, acts, y):
    """The backward that the class-major core replaced, kept as its oracle:
    row maxima over an F-ordered copy, row sums in numpy's own order, the
    label pick on row-major flat indices and ``np.add.reduce`` bias sums."""
    logits = acts[-1]
    with np.errstate(invalid="ignore"):
        shifted = logits - np.maximum.reduce(np.asfortranarray(logits), axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    label = np.arange(0, logits.size, logits.shape[-1]).reshape(logits.shape[:-1]) + y
    picked = logp.reshape(-1)[label]
    if not np.isfinite(picked).all():
        return picked, None
    delta = np.exp(logp)
    delta.reshape(-1)[label] -= 1.0
    delta /= logits.shape[-2]
    grads = []
    for i in range(len(params.layers) - 1, -1, -1):
        grads[:0] = [np.matmul(acts[i].mT, delta), np.add.reduce(delta, axis=-2)]
        if i > 0:
            delta = np.matmul(delta, params.layers[i].weight.mT) * (acts[i] > 0)
    return picked, grads


class TestClassMajorCore:
    """``_backward`` bit for bit against :func:`row_major_backward`."""

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("hidden", [[1], [5], [4, 1]])
    @pytest.mark.parametrize("lead", [(), (4,), (5, 4)])
    def test_picked_loss_and_gradients(self, k, hidden, lead):
        rng = np.random.default_rng(k)
        dims = [3] + hidden + [k]
        flat = np.stack([random_mlp(dims, seed=r).flat for r in range(math.prod(lead))])
        params = MlpParams.from_flat(flat.reshape(lead + flat.shape[-1:]), dims)
        x = rng.normal(size=lead[-1:] + (9, 3))
        y = rng.integers(0, k, size=lead[-1:] + (9,))
        for special in (False, True):
            acts = _forward(params, x[None] if len(lead) == 2 else x, {})
            if special:  # ties, +-0 and -inf away from the labels, as logits
                logits = acts[-1]
                logits[..., :3, :] = rng.choice([0.0, -0.0, 1.5, -np.inf], size=logits[..., :3, :].shape)
                np.put_along_axis(logits, np.broadcast_to(y, logits.shape[:-1])[..., None],
                                  rng.choice([0.0, -0.0, 1.5], size=logits.shape[:-1] + (1,)), -1)
            want_picked, want = row_major_backward(params, [a.copy() for a in acts], y)
            total, picked, grads = _backward(params, acts, y, {})
            assert picked.tobytes() == want_picked.tobytes()
            assert total == float(np.add.reduce(want_picked, axis=None))
            for a, b in zip(grads.arrays(), want, strict=True):
                assert a.tobytes() == b.tobytes()

    def test_a_label_at_minus_inf_returns_no_gradient(self):
        params = random_mlp([3, 5, 4])
        acts = _forward(params, np.random.default_rng(1).normal(size=(6, 3)), {})
        y = np.array([0, 1, 2, 3, 0, 1])
        acts[-1][2, 2] = -np.inf
        want_picked, _ = row_major_backward(params, [a.copy() for a in acts], y)
        _, picked, grads = _backward(params, acts, y, {})
        assert grads is None and picked.tobytes() == want_picked.tobytes()


class TestStackedOptimizer:
    @pytest.mark.parametrize("kind", Optimizer.KINDS)
    def test_per_row_decay_matches_one_optimizer_per_row(self, kind):
        rng = np.random.default_rng(6)
        decays = [0.0, 0.3, 0.05]
        stacked = flatten([rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 1, 4))], (3,))
        single = [stacked[d].copy() for d in range(3)]
        mask = np.repeat([1.0, 0.0], [8, 4])  # the (2, 4) array decays, the (1, 4) not
        opt = Optimizer(kind, stacked, 0.1, weight_decay=np.array(decays)[:, None],
                        decay_mask=mask)
        singles = [Optimizer(kind, p, 0.1, weight_decay=wd, decay_mask=mask)
                   for p, wd in zip(single, decays)]
        for step in range(4):
            if step == 2:  # drop the middle row, with its state
                opt.keep_rows(np.array([0, 2]))
                stacked = stacked[[0, 2]]
                del single[1], singles[1]
            grads = flatten([rng.normal(size=(len(stacked), 2, 4)),
                             rng.normal(size=(len(stacked), 1, 4))], (len(stacked),))
            opt.step(stacked, grads, lr_now=0.1 / (step + 1))
            for d, (p, o) in enumerate(zip(single, singles)):
                o.step(p, grads[d], lr_now=0.1 / (step + 1))
        for d, p in enumerate(single):
            assert np.array_equal(stacked[d], p)

    def test_negative_row_decay_rejected(self):
        with pytest.raises(ValueError, match="weight_decay"):
            Optimizer("adam", np.zeros((2, 3)), 0.1,
                      weight_decay=np.array([[0.0], [-1.0]]))


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.3, 0, 100) == pytest.approx(0.3)
        assert cosine_lr(0.3, 100, 100) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(0.3, 50, 100) == pytest.approx(0.15)

    def test_clamps_and_warns_past_end(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert cosine_lr(0.3, 101, 100) == 0.0

    def test_non_increasing(self):
        vals = [cosine_lr(1.0, s, 37) for s in range(38)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestGradCheck:
    def test_linear_softmax_tight(self):
        rng = np.random.default_rng(11)
        params = MlpParams.random([3, 4], rng)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 4, size=6)
        report = grad_check(params, x, y, eps=1e-5)
        assert report.max_rel_error < 1e-6

    def test_two_hidden_relu(self):
        rng = np.random.default_rng(12)
        params = MlpParams.random([3, 5, 5, 2], rng)
        x = rng.normal(size=(8, 3)) + 0.1  # nudge inputs off exact-zero activations
        y = rng.integers(0, 2, size=8)
        report = grad_check(params, x, y, eps=1e-5)
        assert report.max_rel_error < 1e-4

    def test_zero_parameter_network(self):
        report = grad_check(MlpParams([]), np.zeros((2, 1)), np.array([0, 0]))
        assert len(report) == 0
        assert report.max_rel_error == 0.0

    def test_kink_crossing_is_skipped(self):
        # A hidden unit sitting exactly on the kink gets excluded, not failed.
        params = MlpParams([DenseLayer(np.array([[1.0]]), np.array([0.0])),
                            DenseLayer(np.array([[1.0]]), np.array([0.0]))])
        x = np.array([[0.0]])
        report = grad_check(params, x, np.array([0]), eps=1e-5)
        assert report.skipped  # the bias of layer 0 crosses the kink


class TestSoftmaxInvariants:
    def test_log_softmax_matches_the_row_reduction_formula(self):
        # ties at +-0, -inf and NaN entries; equal up to the sign of a zero
        rng = np.random.default_rng(13)
        z = rng.choice([0.0, -0.0, 1.5, -2.0, -np.inf], size=(200, 5))
        z[rng.random(z.shape) < 0.01] = np.nan
        z = np.concatenate([z, rng.normal(size=(50, 5)) * 30])
        with np.errstate(invalid="ignore"):
            shifted = z - z.max(axis=-1, keepdims=True)
            want = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            got = log_softmax(z)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.exp(got), np.exp(want), equal_nan=True)
        stacked = log_softmax(z.reshape(5, 10, 5, 5))
        assert np.array_equal(stacked.reshape(z.shape), got, equal_nan=True)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_row_sum_is_the_row_reduction_bit_for_bit(self, k):
        # class-major sums run down the class rows below 8 classes and over a
        # row-major copy from 8 on, where numpy sums each row pairwise: either
        # way the floats of the C-ordered rows' own reduction
        rng = np.random.default_rng(k)
        z = rng.normal(0.0, 3.0, size=(20_000, k))
        e = np.exp(z)
        for a in (e, e.reshape(4, 5_000, k), e[::2], e[:, ::-1], np.asfortranarray(e)):
            want = np.ascontiguousarray(a).sum(axis=-1).reshape(-1)
            assert _class_sum(_class_major(a)).tobytes() == want.tobytes()
        shifted = np.exp(z - z.max(axis=-1, keepdims=True))
        want = shifted / shifted.sum(axis=-1, keepdims=True)
        assert softmax(z).tobytes() == want.tobytes()

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_positive(self, seed, k, n):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-300, 300, size=(n, k))
        p = softmax(z)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
        assert (p > 0).all()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_loss_grad_property(self, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 4)))]
        params = MlpParams.random(dims, rng)
        x = rng.normal(size=(int(rng.integers(1, 6)), dims[0]))
        y = rng.integers(0, dims[-1], size=x.shape[0])
        assert grad_check(params, x, y).max_rel_error < 1e-4
