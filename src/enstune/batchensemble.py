"""Rank-1 fast-weight dense ensembles: shared slow weights modulated per
member by trainable vectors r (input side) and s (output side), so member
m's effective weight is W ∘ (r_m s_mᵀ).

Each step materializes every member's weights and runs a layer as one
batched matmul, so its r and s work is on M·in·out weight elements instead
of M·B·(in+out) activation elements. Activations are feature-major,
(M, width, B): batch norm, biases and softmax run along the sample axis.

Each hidden layer is linear -> per-member batch norm -> ReLU. All members
share the slow weights, so training necessarily stops simultaneously; the
monitored score is the NLL on ``calibration.validation_sets``: joint where the
plan permits joint evaluation, the members' mean own NLL on disjoint plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import nll_at_temperature, validation_sets
from .data import Standardizer
from .netcore import (
    DenseLayer,
    GradCheckReport,
    MlpParams,
    NonFiniteLossError,
    ShapeError,
    _buffer,
    _check_labels,
    _concat,
    _views,
    finite_difference_report,
    log_softmax,
    softmax,
)
from .splits import DISJOINT, SplitPlan
from .training import (
    INDIVIDUAL,
    JOINT,
    NONE,
    OptimizerConfig,
    StopDecision,
    StoppingConfig,
    member_rng,
    _BATCH,
    _INIT,
    _Rule,
    _cosine_schedule,
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


@dataclass
class BatchEnsembleModel:
    """Slow weights, fast weights and per-member batch norm. The trainable
    arrays (:meth:`arrays`) are views into the one vector ``flat``, laid out
    in that order; BN running statistics are not trained and stay outside
    it. Built without ``flat``, the trainable arrays are copied into a new
    vector; given ``flat``, it is read as holding them."""

    slow: MlpParams
    fast: FastWeights
    bn: list[BatchNormState]
    n_members: int
    use_batchnorm: bool = True
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat = _concat(self.arrays())
        w, b, r, s, gamma, beta = self._groups(self.flat)
        self.slow = MlpParams([DenseLayer(*wb) for wb in zip(w, b)],
                              self.flat[:self.slow.flat.size])
        self.fast = FastWeights(r, s)
        self.bn = [BatchNormState(g, bt, st.running_mean, st.running_var)
                   for st, g, bt in zip(self.bn, gamma, beta)]

    def _groups(self, flat: np.ndarray) -> tuple[list[np.ndarray], ...]:
        """Views into ``flat``, a vector laid out like :meth:`arrays`, as
        per-layer lists: (slow weights, slow biases, r, s, BN gamma, BN beta)."""
        views = _views(flat, [a.shape for a in self.arrays()])
        n_slow = 2 * len(self.slow.layers)
        n_fast = n_slow + 2 * len(self.fast.r)
        return (views[0:n_slow:2], views[1:n_slow:2], views[n_slow:n_fast:2],
                views[n_slow + 1:n_fast:2], views[n_fast::2], views[n_fast + 1::2])

    def copy(self) -> "BatchEnsembleModel":
        bn = [BatchNormState(b.gamma, b.beta, b.running_mean.copy(), b.running_var.copy())
              for b in self.bn]
        return BatchEnsembleModel(self.slow, self.fast, bn, self.n_members,
                                  self.use_batchnorm, self.flat.copy())

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

    def decay_mask(self, decay_bias: bool = False) -> np.ndarray:
        """1.0 where ``flat`` decays: only the slow weights (and their biases
        if ``decay_bias``); fast weights and BN never do."""
        mask = np.zeros_like(self.flat)
        mask[:self.slow.flat.size] = self.slow.decay_mask(decay_bias)
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


def _sample_sum(a: np.ndarray, out: np.ndarray, bufs: dict) -> np.ndarray:
    """The feature-major (M, W, N) array ``a`` summed over its contiguous
    sample axis into the (M, W) ``out``, as one BLAS product with ones kept
    in ``bufs``: about twice as fast as ``np.add.reduce`` at (4, 32, 128).
    Returns ``out``."""
    n = a.shape[2]
    if "ones" not in bufs or bufs["ones"].size < n:
        bufs["ones"] = np.ones(n)
    return np.matmul(a, bufs["ones"][:n], out=out)


def _bn_forward(u: np.ndarray, state: BatchNormState, sel: slice, training: bool,
                update_stats: bool, bufs: dict, i: int):
    """Batch norm over the sample axis of the feature-major (n_sel, width, N)
    activations ``u`` of layer ``i``, centered in place. The training batch
    mean is a :func:`_sample_sum` and the (biased) variance a dot product,
    equal to ``u.mean`` and ``u.var`` to rounding. Returns (out, cache):
    ``out`` is a kept buffer, the backward pass's scratch after its last
    read; cache holds what that pass needs."""
    out = _buffer(bufs, ("h", i), u.shape)
    if training:
        n = u.shape[2]
        mean = _sample_sum(u, np.empty(u.shape[:2]), bufs)
        mean /= n
        u -= mean[:, :, None]
        var = np.vecdot(u, u)
        var /= n
        if update_stats:  # in place: ``sel`` is a slice, so these are views
            for running, batch in ((state.running_mean[sel], mean),
                                   (state.running_var[sel], var)):
                running *= _BN_MOMENTUM
                running += (1 - _BN_MOMENTUM) * batch
    else:
        var = state.running_var[sel]
        u -= state.running_mean[sel][:, :, None]
    inv_sd = 1.0 / np.sqrt(np.maximum(var, _VAR_FLOOR))
    scale = state.gamma[sel] * inv_sd
    np.multiply(u, scale[:, :, None], out=out)
    out += state.beta[sel][:, :, None]
    return out, (u, inv_sd, scale, var, out)


def _bn_backward(d: np.ndarray, cache, g_gamma: np.ndarray,
                 g_beta: np.ndarray, bufs: dict) -> np.ndarray:
    """Gradient through training-mode batch norm: d_gamma and d_beta are
    written into ``g_gamma`` and ``g_beta``, and ``d`` turns in place from
    the output's delta into d - d_beta/n - xhat · live · d_gamma/n. The
    input's delta is that times gamma/sd, the (M, W) scale returned, which
    the caller applies to the smaller weight-shaped arrays instead."""
    centered, inv_sd, scale, var, scratch = cache
    n = centered.shape[2]
    np.vecdot(d, centered, out=g_gamma)
    g_gamma *= inv_sd  # xhat = centered / sd
    _sample_sum(d, g_beta, bufs)
    # batch statistics depend on u; clamp kills the var gradient where active
    live = var >= _VAR_FLOOR
    d -= (g_beta / n)[:, :, None]
    d -= np.multiply(centered, (live * g_gamma * inv_sd / n)[:, :, None], out=scratch)
    return scale


def _forward(model: BatchEnsembleModel, xs: np.ndarray, sel: slice,
             training: bool, update_stats: bool, bufs: dict):
    """Shared forward core over feature-major (n_sel, in, N) inputs for the
    members ``sel``, a slice, so every member array read is a view. Each
    layer is one batched matmul with its member weights W ∘ (r_m s_mᵀ). A
    hidden slow bias is not added under batch norm, whose batch mean cancels
    it. Writes into the kept buffers ``bufs``. Returns (logits, caches):
    (n_sel, n_classes, N) logits and, per layer, its input, r_m s_mᵀ, its
    member weights and its batch-norm cache.
    """
    n_layers = len(model.slow.layers)
    h = xs
    caches = []
    for i, layer in enumerate(model.slow.layers):
        if h.shape[1] != layer.weight.shape[0]:
            raise ShapeError(f"layer {i}: input width {h.shape[1]} does not match "
                             f"slow weight in-dim {layer.weight.shape[0]}")
        r = model.fast.r[i][sel]
        shape = r.shape[:1] + layer.weight.shape
        rs = np.multiply(r[:, :, None], model.fast.s[i][sel][:, None, :],
                         out=_buffer(bufs, ("rs", i), shape))
        w_m = np.multiply(rs, layer.weight, out=_buffer(bufs, ("w", i), shape))
        u = np.matmul(w_m.swapaxes(1, 2), h,
                      out=_buffer(bufs, ("u", i), (shape[0], shape[2], h.shape[2])))
        hidden = i < n_layers - 1
        bn_cache = None
        if hidden and model.use_batchnorm:
            u, bn_cache = _bn_forward(u, model.bn[i], sel, training, update_stats, bufs, i)
        else:
            u += layer.bias[:, None]
        if hidden:
            np.maximum(u, 0.0, out=u)  # positive exactly where the pre-activation is
        caches.append((h, rs, w_m, bn_cache))
        h = u
    return h, caches


def be_forward(model: BatchEnsembleModel, x: np.ndarray, member: int,
               training: bool = False, bufs: dict | None = None) -> np.ndarray:
    """Logits for one member: x @ (W ∘ (r_m s_mᵀ)) per layer. Activations go
    into the kept buffers ``bufs`` when given; the logits are a new array."""
    if not 0 <= member < model.n_members:
        raise ShapeError(f"member index {member} outside [0, {model.n_members})")
    x = np.asarray(x, dtype=np.float64)
    logits, _ = _forward(model, x.T[None], slice(member, member + 1),
                         training, update_stats=False, bufs={} if bufs is None else bufs)
    return logits[0].T.copy()


def be_forward_all(model: BatchEnsembleModel, x: np.ndarray,
                   training: bool = False) -> np.ndarray:
    """All members in one batched computation over the member axis.

    ``x`` is either (N, in), evaluated by every member, or (M, N, in) with a
    per-member batch. Returns (M, N, n_classes) logits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        xs = np.broadcast_to(x.T, (model.n_members,) + x.T.shape)
    elif x.ndim == 3 and x.shape[0] == model.n_members:
        xs = x.transpose(0, 2, 1)
    else:
        raise ShapeError(f"expected (N, in) or ({model.n_members}, N, in), got {x.shape}")
    logits, _ = _forward(model, xs, slice(None), training, update_stats=False, bufs={})
    return np.ascontiguousarray(logits.transpose(0, 2, 1))


def materialized_member_params(model: BatchEnsembleModel, member: int) -> MlpParams:
    """Oracle construction: explicitly build W_i = W ∘ (r_i s_iᵀ) per layer."""
    layers = []
    for i, layer in enumerate(model.slow.layers):
        r = model.fast.r[i][member]
        s = model.fast.s[i][member]
        layers.append(DenseLayer(layer.weight * np.outer(r, s), layer.bias.copy()))
    return MlpParams(layers)


def _checked_batch(model: BatchEnsembleModel, xs: np.ndarray, ys: np.ndarray):
    """The per-member batches as float64 (M, B, in) and intp (M, B) labels,
    checked before any work: shapes first, then every label in one test."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[0] != model.n_members:
        raise ShapeError(f"xs must be ({model.n_members}, B, in), got {xs.shape}")
    return xs, _check_labels(ys, model.slow.dims[-1], xs, ("member", "sample"))


def be_loss_and_grads(model: BatchEnsembleModel, xs: np.ndarray, ys: np.ndarray,
                      update_stats: bool = True, bufs: dict | None = None):
    """Summed per-member NLL on per-member batches, with exact gradients.

    ``xs`` is (M, B, in), ``ys`` is (M, B); a label array of another shape
    raises ``ShapeError`` and a label outside the classes ``LabelError``
    naming its member and sample, both before any work; a non-finite loss
    raises ``NonFiniteLossError`` naming them too. Slow-weight and
    bias gradients sum over members; fast-weight and BN gradients are per
    member; all weight gradients come from each layer's batched h_m δ_mᵀ by
    small ops on (M, in, out) arrays. A hidden slow bias under batch norm
    gets a zero gradient and stays at its initial 0. Activations and
    backward temporaries are written in place into ``bufs``, flat arrays
    that a caller keeps across calls (a training trajectory passes the same
    dict every step), along with the ones of the sample sums and a gradient
    vector with its per-layer views, kept for the model's layout; without
    it, each call allocates its own. Returns (total_loss, grads) with grads
    a new vector laid out like ``model.flat``, which later calls leave alone.
    """
    xs, ys = _checked_batch(model, xs, ys)
    bufs = {} if bufs is None else bufs
    logits, caches = _forward(model, xs.transpose(0, 2, 1), slice(None), training=True,
                              update_stats=update_stats, bufs=bufs)
    n_members, n_classes, batch = logits.shape
    with np.errstate(invalid="ignore"):  # log-softmax over the class axis
        logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
        delta = np.exp(logits, out=_buffer(bufs, "exp", logits.shape))
        total_exp = np.add.reduce(delta, axis=1, keepdims=True)
    # flat index of each sample's label logit
    label = (np.arange(n_members)[:, None] * n_classes + ys) * batch + np.arange(batch)
    picked = logits.reshape(-1)[label] - np.log(total_exp[:, 0, :])
    total = -float((np.add.reduce(picked, axis=1) / batch).sum())
    # every picked log-probability is <= 0 or nan, so one that is not finite
    # makes the total not finite: only then look for it
    if not math.isfinite(total) and not np.isfinite(picked).all():
        m, b = np.unravel_index(np.argmax(~np.isfinite(picked)), picked.shape)
        raise NonFiniteLossError(f"non-finite loss at member {m}, sample {b}")

    delta /= total_exp
    delta.reshape(-1)[label] -= 1.0
    delta /= batch  # each member's loss is its own batch mean

    # the kept gradient vector's per-layer views hold for one layout only
    layout = (n_members, len(model.bn), *(layer.weight.shape for layer in model.slow.layers))
    if "grads" not in bufs or bufs["grads"][0] != layout:
        flat = np.empty_like(model.flat)  # every element is written below
        bufs["grads"] = layout, flat, model._groups(flat)
    _, grads, (g_slow_w, g_slow_b, g_r, g_s, g_gamma, g_beta) = bufs["grads"]
    for i in reversed(range(len(caches))):
        h, rs, w_m, bn_cache = caches[i]
        if bn_cache is not None:
            scale = _bn_backward(delta, bn_cache, g_gamma[i], g_beta[i], bufs)[:, None, :]
        g_m = np.matmul(h, delta.swapaxes(1, 2), out=_buffer(bufs, ("g", i), w_m.shape))
        if bn_cache is None:
            np.add.reduce(_sample_sum(delta, np.empty(delta.shape[:2]), bufs), axis=0,
                          out=g_slow_b[i])
        else:  # the input's delta is scale ∘ delta: scale the weight-shaped arrays
            g_m *= scale
            w_m *= scale  # read again only by the input delta's matmul below
            g_slow_b[i][...] = 0.0
        # W_m = W ∘ (r_m s_mᵀ) gives W, r_m and s_m their gradients from g_m
        np.add.reduce(np.multiply(g_m, rs, out=rs), axis=0, out=g_slow_w[i])
        g_m *= model.slow.layers[i].weight
        np.matmul(g_m, model.fast.s[i][:, :, None], out=g_r[i][:, :, None])
        np.matmul(model.fast.r[i][:, None, :], g_m, out=g_s[i][:, None, :])
        if i > 0:  # the first layer's input delta is not needed
            active = np.greater(h, 0.0, out=_buffer(bufs, ("relu", i), h.shape, bool))
            delta = np.matmul(w_m, delta, out=_buffer(bufs, ("d", i), h.shape))
            delta *= active  # the previous layer's ReLU
    return total, grads.copy()


def be_grad_check(model: BatchEnsembleModel, xs: np.ndarray, ys: np.ndarray,
                  eps: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of the joint (slow, fast, BN) gradient."""
    _, grads = be_loss_and_grads(model, xs, ys, update_stats=False)
    xs, ys = _checked_batch(model, xs, ys)
    bufs = {}

    def loss_fn(arrays):
        logits, caches = _forward(model, xs.transpose(0, 2, 1), slice(None),
                                  training=True, update_stats=False, bufs=bufs)
        n_members, _, batch = logits.shape
        logp = log_softmax(logits.transpose(0, 2, 1))
        rows = np.arange(batch)
        loss = float(sum(-logp[m, rows, ys[m]].mean() for m in range(n_members)))
        signs = [(cache[0] > 0).reshape(-1) for cache in caches[1:]]
        sig = np.concatenate(signs) if signs else None
        return loss, sig

    arrays = model.arrays()
    return finite_difference_report(loss_fn, arrays,
                                    _views(grads, [a.shape for a in arrays]), eps)


class _IndexStream:
    """Endless shuffled indices over a member's own training indices: one
    permutation after another, each drawn when the last runs out."""

    def __init__(self, indices: np.ndarray, rng: np.random.Generator):
        self.indices = np.asarray(indices)
        self.rng = rng
        self.order = rng.permutation(len(self.indices))
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        """The stream's next ``count`` training indices."""
        parts = [self.order[self.pos:self.pos + count]]
        self.pos += len(parts[0])
        count -= len(parts[0])
        while count > 0:  # the order ran out: the rest opens new ones
            self.order = self.rng.permutation(len(self.indices))
            self.pos = min(count, len(self.order))
            parts.append(self.order[:self.pos])
            count -= self.pos
        return self.indices[np.concatenate(parts)]


@dataclass
class BeTrainResult:
    model: BatchEnsembleModel
    scalers: list[Standardizer]
    stop: StopDecision

    def member_probs(self, x: np.ndarray, member: int) -> np.ndarray:
        return softmax(be_forward(self.model, self.scalers[member](x), member))

    def all_probs(self, x: np.ndarray) -> list[np.ndarray]:
        return [self.member_probs(x, m) for m in range(self.model.n_members)]


class _BeTrajectory:
    """A BatchEnsemble's one trajectory: every step takes one mini-batch per
    member from that member's own indices and updates all weights together.
    An epoch's batches are drawn and gathered at once. It keeps the kernel's
    activation and backward buffers (``bufs``) and the monitoring forward's
    (``eval_bufs``) for its whole run, so a step allocates none of them."""

    def __init__(self, x, y, plan: SplitPlan, model: BatchEnsembleModel,
                 opt_cfg: OptimizerConfig, batch_size: int, seed: int):
        self.y = y
        self.params = model
        self.scalers = [Standardizer.fit(x[ms.train_idx]) for ms in plan.members]
        self.xs = np.stack([scaler(x) for scaler in self.scalers])  # (M, N, in)
        self.rows = self.xs.reshape(-1, self.xs.shape[2])  # member m's row j at m·N + j
        self.row_offset = np.arange(plan.n_members)[:, None] * len(x)
        self.streams = [_IndexStream(ms.train_idx, member_rng(seed, m, _BATCH))
                        for m, ms in enumerate(plan.members)]
        self.opt = opt_cfg.build(model)
        self.steps_per_epoch = max(math.ceil(len(ms.train_idx) / batch_size)
                                   for ms in plan.members)
        self.batch = min(batch_size, min(len(ms.train_idx) for ms in plan.members))
        self.lr_at = _cosine_schedule(opt_cfg, self.steps_per_epoch)
        self.steps = 0
        self.bufs = {}
        self.eval_bufs = {}
        self.eval_inputs = {}  # members -> (rows, their standardized inputs)

    def run_epoch(self) -> None:
        steps, batch = self.steps_per_epoch, self.batch
        idx = np.stack([stream.take(steps * batch) for stream in self.streams])
        idx = idx.reshape(len(idx), steps, batch).swapaxes(0, 1)  # (S, M, B)
        xe = np.take(self.rows, idx + self.row_offset, axis=0)  # each step's slice contiguous
        ye = self.y[idx]
        for k in range(steps):
            _, grads = be_loss_and_grads(self.params, xe[k], ye[k], bufs=self.bufs)
            self.opt.step(self.params.flat, grads, self.lr_at(self.steps))
            self.steps += 1

    def snapshot(self) -> BatchEnsembleModel:
        return self.params.copy()

    def set_logits(self, members: tuple[int, ...], idx: np.ndarray) -> list[np.ndarray]:
        """Each of ``members``' logits on rows ``idx``, one forward per
        member through the kept ``eval_bufs``. A monitored set never changes
        over a run, so its inputs are gathered at its first call and kept."""
        kept = self.eval_inputs.get(members)
        if kept is None or kept[0] is not idx:
            kept = self.eval_inputs[members] = idx, self.xs[np.array(members)[:, None], idx]
        return [be_forward(self.params, x, m, bufs=self.eval_bufs)
                for m, x in zip(members, kept[1])]


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
    model = make_batch_ensemble(dims, plan.n_members, scheme,
                                member_rng(seed, 0, _INIT), sigma)
    traj = _BeTrajectory(x, y, plan, model, opt_cfg, stop_cfg.batch_size, seed)

    # a disjoint plan has no joint set, and members that share slow weights
    # cannot stop one by one: it monitors the mean of the members' own NLLs
    scored = INDIVIDUAL if plan.strategy == DISJOINT else JOINT
    rule = _Rule([0], lambda: nll_at_temperature(
        validation_sets(scored, plan, y, traj.set_logits))(1.0),
                 stop_cfg.mode != NONE, stop_cfg.patience)
    _patience_loop([traj], [rule], stop_cfg.max_epochs)
    (model,) = rule.kept
    return BeTrainResult(model, traj.scalers, rule.decision(traj.batch, len(y)))
