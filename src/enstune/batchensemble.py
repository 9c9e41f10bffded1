"""Rank-1 fast-weight dense ensembles: shared slow weights modulated per
member by trainable vectors r (input side) and s (output side), so member
m's effective weight is W ∘ (r_m s_mᵀ) without ever materializing it.

Each hidden layer is linear -> per-member batch norm -> ReLU. All members
share the slow weights, so training necessarily stops simultaneously; the
monitored score follows the plan: joint ensemble NLL where the plan permits
joint evaluation, the average of individual member NLLs on disjoint plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Standardizer
from .netcore import (
    DenseLayer,
    GradCheckReport,
    MlpParams,
    ShapeError,
    _check_labels,
    finite_difference_report,
    log_softmax,
    softmax,
)
from .splits import SplitPlan
from .training import (
    OptimizerConfig,
    StopDecision,
    StoppingConfig,
    member_rng,
    normalized_epochs,
    _BATCH,
    _INIT,
    _cosine_schedule,
    _joint_nll,
    _patience_loop,
)

GAUSSIAN = "gaussian"
RANDOM_SIGN = "random_sign"

_VAR_FLOOR = 1e-12  # batch-norm variance clamp; fresh running stats stay exact
_BN_MOMENTUM = 0.9  # running-statistics decay per training step


@dataclass
class FastWeights:
    """Per-layer rank-1 modulation vectors, stacked over members."""

    r: list[np.ndarray]  # layer i: (n_members, in_dim)
    s: list[np.ndarray]  # layer i: (n_members, out_dim)

    def copy(self) -> "FastWeights":
        return FastWeights([a.copy() for a in self.r], [a.copy() for a in self.s])


@dataclass
class BatchNormState:
    """Per-member batch normalization for one hidden layer."""

    gamma: np.ndarray         # (n_members, width)
    beta: np.ndarray          # (n_members, width)
    running_mean: np.ndarray  # (n_members, width)
    running_var: np.ndarray   # (n_members, width)

    @classmethod
    def identity(cls, n_members: int, width: int) -> "BatchNormState":
        return cls(np.ones((n_members, width)), np.zeros((n_members, width)),
                   np.zeros((n_members, width)), np.ones((n_members, width)))

    def copy(self) -> "BatchNormState":
        return BatchNormState(self.gamma.copy(), self.beta.copy(),
                              self.running_mean.copy(), self.running_var.copy())


@dataclass
class BatchEnsembleModel:
    slow: MlpParams
    fast: FastWeights
    bn: list[BatchNormState]
    n_members: int
    use_batchnorm: bool = True

    @property
    def dims(self) -> list[int]:
        return self.slow.dims

    def copy(self) -> "BatchEnsembleModel":
        return BatchEnsembleModel(self.slow.copy(), self.fast.copy(),
                                  [b.copy() for b in self.bn], self.n_members,
                                  self.use_batchnorm)

    def arrays(self) -> list[np.ndarray]:
        """Trainable arrays: slow weights/biases, fast r/s, BN gamma/beta."""
        out = self.slow.arrays()
        for r, s in zip(self.fast.r, self.fast.s):
            out.append(r)
            out.append(s)
        for b in self.bn:
            out.append(b.gamma)
            out.append(b.beta)
        return out

    def decay_mask(self, decay_bias: bool = False) -> list[bool]:
        """Only slow weight matrices decay; fast weights and BN never do."""
        mask = self.slow.decay_mask(decay_bias)
        mask += [False] * (2 * len(self.fast.r) + 2 * len(self.bn))
        return mask


def init_fast(dims: list[int], n_members: int, scheme: str,
              rng: np.random.Generator, sigma: float = 0.1) -> FastWeights:
    """Fast-weight initialization: Normal(1, sigma^2) or random sign (±1)."""
    if scheme == GAUSSIAN:
        if sigma <= 0:
            raise ValueError("gaussian fast-weight init needs sigma > 0")
        draw = lambda size: rng.normal(1.0, sigma, size=size)
    elif scheme == RANDOM_SIGN:
        draw = lambda size: np.where(rng.random(size) < 0.5, -1.0, 1.0)
    else:
        raise ValueError(f"unknown fast-weight init scheme {scheme!r}")
    r = [draw((n_members, fan_in)) for fan_in in dims[:-1]]
    s = [draw((n_members, fan_out)) for fan_out in dims[1:]]
    return FastWeights(r, s)


def make_batch_ensemble(dims: list[int], n_members: int, scheme: str,
                        rng: np.random.Generator, sigma: float = 0.1,
                        use_batchnorm: bool = True) -> BatchEnsembleModel:
    """He-initialized slow weights plus fast weights and fresh BN state."""
    slow = MlpParams.random(dims, rng)
    fast = init_fast(dims, n_members, scheme, rng, sigma)
    bn = ([BatchNormState.identity(n_members, w) for w in dims[1:-1]]
          if use_batchnorm else [])
    return BatchEnsembleModel(slow, fast, bn, n_members, use_batchnorm)


def _bn_forward(u: np.ndarray, state: BatchNormState, members, training: bool,
                update_stats: bool):
    """Batch norm over the sample axis for (n_sel, N, width) activations.

    Returns (out, cache) where cache holds what the backward pass needs.
    """
    gamma = state.gamma[members][:, None, :]
    beta = state.beta[members][:, None, :]
    if training:
        mean = u.mean(axis=1, keepdims=True)
        var = u.var(axis=1, keepdims=True)
        if update_stats:
            state.running_mean[members] = (_BN_MOMENTUM * state.running_mean[members]
                                           + (1 - _BN_MOMENTUM) * mean[:, 0, :])
            state.running_var[members] = (_BN_MOMENTUM * state.running_var[members]
                                          + (1 - _BN_MOMENTUM) * var[:, 0, :])
    else:
        mean = state.running_mean[members][:, None, :]
        var = state.running_var[members][:, None, :]
    sd = np.sqrt(np.maximum(var, _VAR_FLOOR))
    xhat = (u - mean) / sd
    out = gamma * xhat + beta
    cache = (xhat, sd, gamma, var, training)
    return out, cache


def _bn_backward(d_out: np.ndarray, cache, state: BatchNormState, members):
    """Gradient through batch norm; returns (d_u, d_gamma, d_beta)."""
    xhat, sd, gamma, var, training = cache
    d_gamma = (d_out * xhat).sum(axis=1)
    d_beta = d_out.sum(axis=1)
    d_xhat = d_out * gamma
    if not training:
        return d_xhat / sd, d_gamma, d_beta
    n = xhat.shape[1]
    # batch statistics depend on u; clamp kills the var gradient where active
    live = (var >= _VAR_FLOOR).astype(np.float64)
    d_var_term = live * (d_xhat * xhat).sum(axis=1, keepdims=True) / n
    d_mean_term = d_xhat.sum(axis=1, keepdims=True) / n
    d_u = (d_xhat - d_mean_term - xhat * d_var_term) / sd
    return d_u, d_gamma, d_beta


def _forward(model: BatchEnsembleModel, xs: np.ndarray, members,
             training: bool, update_stats: bool, with_cache: bool):
    """Shared forward core over (n_sel, N, in) inputs for selected members."""
    n_layers = len(model.slow.layers)
    h = xs
    caches = []
    for i, layer in enumerate(model.slow.layers):
        if h.shape[-1] != layer.weight.shape[0]:
            raise ShapeError(f"layer {i}: input width {h.shape[-1]} does not match "
                             f"slow weight in-dim {layer.weight.shape[0]}")
        r = model.fast.r[i][members][:, None, :]
        s = model.fast.s[i][members][:, None, :]
        a_mod = h * r
        c = np.matmul(a_mod, layer.weight)
        u = c * s + layer.bias
        bn_cache = None
        pre_relu = u
        if i < n_layers - 1:
            if model.use_batchnorm:
                pre_relu, bn_cache = _bn_forward(u, model.bn[i], members,
                                                 training, update_stats)
            out = np.maximum(pre_relu, 0.0)
        else:
            out = u
        if with_cache:
            caches.append((h, a_mod, c, s, r, bn_cache, pre_relu))
        h = out
    return h, caches


def be_forward(model: BatchEnsembleModel, x: np.ndarray, member: int,
               training: bool = False) -> np.ndarray:
    """Logits for one member; algebraically x @ (W ∘ (r_m s_mᵀ)) per layer."""
    if not 0 <= member < model.n_members:
        raise ShapeError(f"member index {member} outside [0, {model.n_members})")
    x = np.asarray(x, dtype=np.float64)
    logits, _ = _forward(model, x[None, :, :], np.asarray([member]),
                         training, update_stats=False, with_cache=False)
    return logits[0]


def be_forward_all(model: BatchEnsembleModel, x: np.ndarray,
                   training: bool = False) -> np.ndarray:
    """All members in one batched computation over the member axis.

    ``x`` is either (N, in), evaluated by every member, or (M, N, in) with a
    per-member batch. Returns (M, N, n_classes) logits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        xs = np.broadcast_to(x, (model.n_members,) + x.shape)
    elif x.ndim == 3 and x.shape[0] == model.n_members:
        xs = x
    else:
        raise ShapeError(f"expected (N, in) or ({model.n_members}, N, in), got {x.shape}")
    members = np.arange(model.n_members)
    logits, _ = _forward(model, xs, members, training, update_stats=False,
                         with_cache=False)
    return logits


def materialized_member_params(model: BatchEnsembleModel, member: int) -> MlpParams:
    """Oracle construction: explicitly build W_i = W ∘ (r_i s_iᵀ) per layer."""
    layers = []
    for i, layer in enumerate(model.slow.layers):
        r = model.fast.r[i][member]
        s = model.fast.s[i][member]
        layers.append(DenseLayer(layer.weight * np.outer(r, s), layer.bias.copy()))
    return MlpParams(layers)


def be_loss_and_grads(model: BatchEnsembleModel, xs: np.ndarray, ys: np.ndarray,
                      update_stats: bool = True):
    """Summed per-member NLL on per-member batches, with exact gradients.

    ``xs`` is (M, B, in), ``ys`` is (M, B). Slow-weight and bias gradients sum
    over members; fast-weight and BN gradients are per member. Returns
    (total_loss, grads) with grads ordered like :meth:`BatchEnsembleModel.arrays`.
    """
    m_all = np.arange(model.n_members)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[0] != model.n_members:
        raise ShapeError(f"xs must be ({model.n_members}, B, in), got {xs.shape}")
    logits, caches = _forward(model, xs, m_all, training=True,
                              update_stats=update_stats, with_cache=True)
    n_members, batch, k = logits.shape
    ys = np.stack([_check_labels(np.asarray(ys[m]), k) for m in range(n_members)])
    logp = log_softmax(logits)
    rows = np.arange(batch)
    per_member = np.stack([-logp[m, rows, ys[m]].mean() for m in range(n_members)])
    total = float(per_member.sum())

    delta = np.exp(logp)
    for m in range(n_members):
        delta[m, rows, ys[m]] -= 1.0
    delta /= batch  # each member's loss is its own batch mean

    g_slow_w = [np.zeros_like(l.weight) for l in model.slow.layers]
    g_slow_b = [np.zeros_like(l.bias) for l in model.slow.layers]
    g_r = [np.zeros_like(a) for a in model.fast.r]
    g_s = [np.zeros_like(a) for a in model.fast.s]
    g_gamma = [np.zeros_like(b.gamma) for b in model.bn]
    g_beta = [np.zeros_like(b.beta) for b in model.bn]

    n_layers = len(model.slow.layers)
    for i in range(n_layers - 1, -1, -1):
        h, a_mod, c, s, r, bn_cache, pre_relu = caches[i]
        if i < n_layers - 1:
            delta = delta * (pre_relu > 0)
            if model.use_batchnorm:
                delta, dg, db = _bn_backward(delta, bn_cache, model.bn[i], m_all)
                g_gamma[i] += dg
                g_beta[i] += db
        g_s[i] += (delta * c).sum(axis=1)
        g_slow_b[i] += delta.sum(axis=(0, 1))
        d_c = delta * s
        w = model.slow.layers[i].weight
        g_slow_w[i] += np.einsum("mbi,mbo->io", a_mod, d_c)
        d_amod = np.matmul(d_c, w.T)
        g_r[i] += (d_amod * h).sum(axis=1)
        delta = d_amod * r

    grads = []
    for gw, gb in zip(g_slow_w, g_slow_b):
        grads.append(gw)
        grads.append(gb)
    for gr, gs in zip(g_r, g_s):
        grads.append(gr)
        grads.append(gs)
    for gg, gb in zip(g_gamma, g_beta):
        grads.append(gg)
        grads.append(gb)
    return total, grads


def be_grad_check(model: BatchEnsembleModel, xs: np.ndarray, ys: np.ndarray,
                  eps: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of the joint (slow, fast, BN) gradient."""
    _, grads = be_loss_and_grads(model, xs, ys, update_stats=False)

    def loss_fn(arrays):
        m_all = np.arange(model.n_members)
        logits, caches = _forward(model, np.asarray(xs, dtype=np.float64), m_all,
                                  training=True, update_stats=False, with_cache=True)
        n_members, batch, k = logits.shape
        logp = log_softmax(logits)
        rows = np.arange(batch)
        loss = float(sum(-logp[m, rows, np.asarray(ys[m])].mean()
                         for m in range(n_members)))
        signs = [(cache[6] > 0).reshape(-1) for cache in caches[:-1]]
        sig = np.concatenate(signs) if signs else None
        return loss, sig

    return finite_difference_report(loss_fn, model.arrays(), grads, eps)


class _IndexStream:
    """Endless shuffled batches over a member's own training indices."""

    def __init__(self, indices: np.ndarray, rng: np.random.Generator):
        self.indices = np.asarray(indices)
        self.rng = rng
        self.order = rng.permutation(len(self.indices))
        self.pos = 0

    def next_batch(self, size: int) -> np.ndarray:
        take = []
        need = min(size, len(self.indices))
        while need > 0:
            if self.pos == len(self.order):
                self.order = self.rng.permutation(len(self.indices))
                self.pos = 0
            grab = min(need, len(self.order) - self.pos)
            take.append(self.order[self.pos:self.pos + grab])
            self.pos += grab
            need -= grab
        return self.indices[np.concatenate(take)]


@dataclass
class BeTrainResult:
    model: BatchEnsembleModel
    scalers: list[Standardizer]
    stop: StopDecision

    def member_probs(self, x: np.ndarray, member: int) -> np.ndarray:
        return softmax(be_forward(self.model, self.scalers[member](x), member))

    def all_probs(self, x: np.ndarray) -> list[np.ndarray]:
        return [self.member_probs(x, m) for m in range(self.model.n_members)]


def be_train(x, y, plan: SplitPlan, dims: list[int], scheme: str,
             opt_cfg: OptimizerConfig, stop_cfg: StoppingConfig, seed: int,
             sigma: float = 0.1) -> BeTrainResult:
    """Train a BatchEnsemble on the plan's per-member training sets.

    Every step draws one mini-batch per member from that member's own indices;
    slow-weight gradients accumulate over members within the step. All members
    stop together when the plan-determined monitored score exhausts patience.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    n_members = plan.n_members
    init_rng = member_rng(seed, 0, _INIT)
    model = make_batch_ensemble(dims, n_members, scheme, init_rng, sigma)
    scalers = [Standardizer.fit(x[ms.train_idx]) for ms in plan.members]
    streams = [_IndexStream(ms.train_idx, member_rng(seed, m, _BATCH))
               for m, ms in enumerate(plan.members)]
    opt = opt_cfg.build(model)
    steps_per_epoch = max(math.ceil(len(ms.train_idx) / stop_cfg.batch_size)
                          for ms in plan.members)
    batch = min(stop_cfg.batch_size, min(len(ms.train_idx) for ms in plan.members))
    lr_at = _cosine_schedule(opt_cfg, steps_per_epoch)
    steps = 0

    def run_epoch():
        nonlocal steps
        for _ in range(steps_per_epoch):
            idx = [stream.next_batch(batch) for stream in streams]
            xs = np.stack([scalers[m](x[idx[m]]) for m in range(n_members)])
            ys = np.stack([y[idx[m]] for m in range(n_members)])
            lr_now = lr_at(steps)
            _, grads = be_loss_and_grads(model, xs, ys)
            opt.step(model.arrays(), grads, lr_now)
            steps += 1

    def probs_at(m, idx):
        return softmax(be_forward(model, scalers[m](x[idx]), m))

    def restore(best):
        nonlocal model
        model = best

    # disjoint plans monitor the average member NLL: there is no joint set,
    # and members that share slow weights cannot stop one by one
    decision = _patience_loop(stop_cfg, run_epoch,
                              lambda: _joint_nll(plan, y, probs_at),
                              lambda: model.copy(), restore)
    decision.normalized_epochs = normalized_epochs(steps, batch, len(y))
    return BeTrainResult(model, scalers, decision)
