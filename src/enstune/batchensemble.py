"""Rank-1 fast-weight dense ensembles: shared slow weights modulated per
member by trainable vectors r (input side) and s (output side), so member
m's effective weight is W ∘ (r_m s_mᵀ).

A model is one fast-weight scheme's ensemble, or a stack of S such models
of one shape (:meth:`BatchEnsembleModel.stack`). Each step materializes
every member's weights and runs a layer as one batched matmul over all
schemes and members, so its r and s work is on S·M·in·out weight elements
instead of S·M·B·(in+out) activation elements. Activations are
feature-major, (S, M, width, B): batch norm, biases and softmax run along
the sample axis.

Each hidden layer is linear -> per-member batch norm -> ReLU. All members of
a scheme share its slow weights, so they necessarily stop together; the
monitored score is the MLP rules' (``training._score``): the joint NLL where
the plan permits it, the members' mean own NLL on disjoint plans.
:func:`be_train` trains a plan's schemes as one stacked trajectory: they
start from the same slow weights and draw the same batches, so until they
stop they differ only in their fast weights and batch norm. Each scheme
keeps its own stopping rule and leaves the stack when that rule stops.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ConfigError
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
from .splits import DISJOINT, SplitPlan, joint_eval_sets
from .training import (
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
    _score,
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
    """Slow weights, fast weights and per-member batch norm of one scheme, or
    of a stack of schemes (:meth:`stack`), whose every array then leads with
    a scheme axis. The trainable arrays (:meth:`arrays`) are views into
    ``flat``: one scheme's vector, laid out in that order, or one such row
    per scheme. BN running statistics are not trained and stay outside it.
    Built without ``flat``, the trainable arrays of one scheme are copied
    into a new vector; given ``flat``, it is read as holding them."""

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
        n_slow = sum(math.prod(shape) for shape in self._shapes()[:2 * len(w)])
        self.slow = MlpParams([DenseLayer(*wb) for wb in zip(w, b)],
                              self.flat[..., :n_slow])
        self.fast = FastWeights(r, s)
        self.bn = [BatchNormState(g, bt, st.running_mean, st.running_var)
                   for st, g, bt in zip(self.bn, gamma, beta)]

    @classmethod
    def stack(cls, models: list["BatchEnsembleModel"]) -> "BatchEnsembleModel":
        """A stack of one-scheme models of one shape, copied, in list order."""
        first = models[0]
        bn = [BatchNormState(st.gamma, st.beta,
                             np.stack([m.bn[i].running_mean for m in models]),
                             np.stack([m.bn[i].running_var for m in models]))
              for i, st in enumerate(first.bn)]
        return cls(first.slow, first.fast, bn, first.n_members, first.use_batchnorm,
                   np.stack([m.flat for m in models]))

    def scheme(self, s: int) -> "BatchEnsembleModel":
        """Scheme ``s`` of a stack, as a one-scheme model viewing its arrays."""
        bn = [BatchNormState(st.gamma, st.beta, st.running_mean[s], st.running_var[s])
              for st in self.bn]
        return BatchEnsembleModel(self.slow, self.fast, bn, self.n_members,
                                  self.use_batchnorm, self.flat[s])

    def _shapes(self) -> list[tuple[int, ...]]:
        """One scheme's trainable array shapes, in the order of :meth:`arrays`."""
        dims, m = self.slow.dims, self.n_members
        pairs = list(zip(dims[:-1], dims[1:]))
        return ([shape for i, o in pairs for shape in ((i, o), (o,))]
                + [shape for i, o in pairs for shape in ((m, i), (m, o))]
                + [(m, w) for w in (dims[1:-1] if self.use_batchnorm else [])
                   for _ in range(2)])

    def _groups(self, flat: np.ndarray) -> tuple[list[np.ndarray], ...]:
        """Views into ``flat``, laid out like this model's, as per-layer lists:
        (slow weights, slow biases, r, s, BN gamma, BN beta)."""
        views = _views(flat, self._shapes())
        n_slow = 2 * len(self.slow.layers)
        n_fast = 2 * n_slow
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
        """1.0 where one scheme's vector decays: only the slow weights (and
        their biases if ``decay_bias``); fast weights and BN never do."""
        n_slow = 2 * len(self.slow.layers)
        return _concat([np.full(shape, float(i < n_slow and (i % 2 == 0 or decay_bias)))
                        for i, shape in enumerate(self._shapes())])

    @cached_property
    def _stacked(self) -> list[tuple]:
        """Per layer: the slow weight (S, 1, in, out) and bias (S, 1, out, 1),
        r (S, M, in), s (S, M, out) and, for a hidden batch-normed layer, the
        batch-norm state of (S, M, width) arrays, else None. They are views
        of a stack's arrays; a one-scheme model reads as a stack of one."""
        lead = (None,) if self.flat.ndim == 1 else ()
        bn = [BatchNormState(*(a[lead] for a in (st.gamma, st.beta, st.running_mean,
                                                   st.running_var)))
              for st in self.bn]
        bn += [None] * (len(self.slow.layers) - len(bn))
        return [(layer.weight[lead][:, None], layer.bias[lead][:, None, :, None],
                 r[lead], s[lead], state)
                for layer, r, s, state in zip(self.slow.layers, self.fast.r, self.fast.s,
                                              bn)]


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
    """The feature-major (..., W, N) array ``a`` summed over its contiguous
    sample axis into the (..., W) ``out``, as one BLAS product with ones kept
    in ``bufs``: about twice as fast as ``np.add.reduce`` at (4, 32, 128).
    Returns ``out``."""
    n = a.shape[-1]
    if "ones" not in bufs or bufs["ones"].size < n:
        bufs["ones"] = np.ones(n)
    return np.matmul(a, bufs["ones"][:n], out=out)


def _bn_forward(u: np.ndarray, state: BatchNormState, sel: slice, training: bool,
                update_stats: bool, bufs: dict, i: int):
    """Batch norm over the sample axis of the feature-major (..., n_sel,
    width, N) activations ``u`` of layer ``i``, centered in place; ``state``
    holds (..., M, width) arrays, of which ``sel`` picks the members. The
    training batch mean is a :func:`_sample_sum` and the (biased) variance a
    dot product, equal to ``u.mean`` and ``u.var`` to rounding. Returns
    (out, cache): ``out`` is a kept buffer, the backward pass's scratch after
    its last read; cache holds what that pass needs."""
    out = _buffer(bufs, ("h", i), u.shape)
    if training:
        n = u.shape[-1]
        mean = _sample_sum(u, np.empty(u.shape[:-1]), bufs)
        mean /= n
        u -= mean[..., None]
        var = np.vecdot(u, u)
        var /= n
        if update_stats:  # in place: ``sel`` is a slice, so these are views
            for running, batch in ((state.running_mean[..., sel, :], mean),
                                   (state.running_var[..., sel, :], var)):
                running *= _BN_MOMENTUM
                running += (1 - _BN_MOMENTUM) * batch
    else:
        var = state.running_var[..., sel, :]
        u -= state.running_mean[..., sel, :][..., None]
    inv_sd = 1.0 / np.sqrt(np.maximum(var, _VAR_FLOOR))
    scale = state.gamma[..., sel, :] * inv_sd
    np.multiply(u, scale[..., None], out=out)
    out += state.beta[..., sel, :][..., None]
    return out, (u, inv_sd, scale, var, out)


def _bn_backward(d: np.ndarray, cache, g_gamma: np.ndarray,
                 g_beta: np.ndarray, bufs: dict) -> np.ndarray:
    """Gradient through training-mode batch norm: d_gamma and d_beta are
    written into ``g_gamma`` and ``g_beta``, and ``d`` turns in place from
    the output's delta into d - d_beta/n - xhat · live · d_gamma/n. The
    input's delta is that times gamma/sd, the (..., M, W) scale returned,
    which the caller applies to the smaller weight-shaped arrays instead."""
    centered, inv_sd, scale, var, scratch = cache
    n = centered.shape[-1]
    np.vecdot(d, centered, out=g_gamma)
    g_gamma *= inv_sd  # xhat = centered / sd
    _sample_sum(d, g_beta, bufs)
    # batch statistics depend on u; clamp kills the var gradient where active
    live = var >= _VAR_FLOOR
    d -= (g_beta / n)[..., None]
    d -= np.multiply(centered, (live * g_gamma * inv_sd / n)[..., None], out=scratch)
    return scale


def _forward(model: BatchEnsembleModel, xs: np.ndarray, sel: slice,
             training: bool, update_stats: bool, bufs: dict):
    """Shared forward core over feature-major (n_sel, in, N) inputs, which
    every scheme of a stack reads, for the members ``sel``, a slice, so every
    member array read is a view. Each layer is one batched matmul with its
    member weights W ∘ (r_m s_mᵀ), (S, n_sel, in, out). A hidden slow bias
    is not added under batch norm, whose batch mean cancels it. Writes into
    the kept buffers ``bufs``. Returns (logits, layers, caches):
    (S, n_sel, n_classes, N) logits, the model's ``_stacked`` layers and,
    per layer, its input, r_m s_mᵀ, its member weights and its batch-norm
    cache.
    """
    layers = model._stacked
    h = xs
    caches = []
    for i, (weight, bias, r, s, bn) in enumerate(layers):
        if h.shape[-2] != weight.shape[-2]:
            raise ShapeError(f"layer {i}: input width {h.shape[-2]} does not match "
                             f"slow weight in-dim {weight.shape[-2]}")
        r = r[:, sel]
        shape = r.shape + weight.shape[-1:]
        rs = np.multiply(r[..., None], s[:, sel, None, :],
                         out=_buffer(bufs, ("rs", i), shape))
        w_m = np.multiply(rs, weight, out=_buffer(bufs, ("w", i), shape))
        u = np.matmul(w_m.swapaxes(2, 3), h,
                      out=_buffer(bufs, ("u", i), shape[:2] + (shape[3], h.shape[-1])))
        if bn is not None:
            u, bn_cache = _bn_forward(u, bn, sel, training, update_stats, bufs, i)
        else:
            u += bias
            bn_cache = None
        if i < len(layers) - 1:
            np.maximum(u, 0.0, out=u)  # positive exactly where the pre-activation is
        caches.append((h, rs, w_m, bn_cache))
        h = u
    return h, layers, caches


def _one_scheme(model: BatchEnsembleModel) -> None:
    if model.flat.ndim != 1:
        raise ShapeError("expected one scheme's model, got a stack: pass model.scheme(s)")


def be_forward(model: BatchEnsembleModel, x: np.ndarray, member: int,
               training: bool = False, bufs: dict | None = None) -> np.ndarray:
    """Logits of one member of a one-scheme model: x @ (W ∘ (r_m s_mᵀ)) per
    layer. Activations go into the kept buffers ``bufs`` when given; the
    logits are a new array."""
    _one_scheme(model)
    if not 0 <= member < model.n_members:
        raise ShapeError(f"member index {member} outside [0, {model.n_members})")
    x = np.asarray(x, dtype=np.float64)
    logits, _, _ = _forward(model, x.T[None], slice(member, member + 1), training,
                            update_stats=False, bufs={} if bufs is None else bufs)
    return logits[0, 0].T.copy()


def be_forward_all(model: BatchEnsembleModel, x: np.ndarray,
                   training: bool = False) -> np.ndarray:
    """All members of a one-scheme model in one batched computation over the
    member axis.

    ``x`` is either (N, in), evaluated by every member, or (M, N, in) with a
    per-member batch. Returns (M, N, n_classes) logits.
    """
    _one_scheme(model)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        xs = np.broadcast_to(x.T, (model.n_members,) + x.T.shape)
    elif x.ndim == 3 and x.shape[0] == model.n_members:
        xs = x.transpose(0, 2, 1)
    else:
        raise ShapeError(f"expected (N, in) or ({model.n_members}, N, in), got {x.shape}")
    logits, _, _ = _forward(model, xs, slice(None), training, update_stats=False, bufs={})
    return np.ascontiguousarray(logits[0].transpose(0, 2, 1))


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
    """Summed per-member NLL on per-member batches, with exact gradients, of
    a one-scheme model or of every scheme of a stack.

    ``xs`` is (M, B, in), ``ys`` is (M, B): member m of every scheme trains
    on batch m. A label array of another shape raises ``ShapeError`` and a
    label outside the classes ``LabelError`` naming its member and sample,
    both before any work; a non-finite loss raises ``NonFiniteLossError``
    naming its scheme's member and sample. A scheme's slow-weight and bias
    gradients sum over its members; fast-weight and BN gradients are per
    member; all weight gradients come from each layer's batched h_m δ_mᵀ by
    small ops on (S, M, in, out) arrays. A hidden slow bias under batch norm
    gets a zero gradient and stays at its initial 0. Activations and backward
    temporaries are written in place into ``bufs``, flat arrays that a
    caller keeps across calls (a training trajectory passes the same dict
    every step), along with the ones of the sample sums and a gradient
    vector with its per-layer views, kept for the model's layout; without
    it, each call allocates its own. Returns (loss, grads): the loss a
    float, or one per scheme of a stack, and grads a new array laid out
    like ``model.flat``, which later calls leave alone.
    """
    xs, ys = _checked_batch(model, xs, ys)
    bufs = {} if bufs is None else bufs
    logits, layers, caches = _forward(model, xs.transpose(0, 2, 1), slice(None),
                                      training=True, update_stats=update_stats, bufs=bufs)
    n_schemes, n_members, n_classes, batch = logits.shape
    with np.errstate(invalid="ignore"):  # log-softmax over the class axis
        logits -= np.maximum.reduce(logits, axis=2, keepdims=True)
        delta = np.exp(logits, out=_buffer(bufs, "exp", logits.shape))
        total_exp = np.add.reduce(delta, axis=2, keepdims=True)
    # flat index of each sample's label logit
    rows = np.arange(n_schemes * n_members).reshape(n_schemes, n_members, 1)
    label = (rows * n_classes + ys) * batch + np.arange(batch)
    picked = logits.reshape(-1)[label] - np.log(total_exp[:, :, 0, :])
    losses = -(np.add.reduce(picked, axis=2) / batch).sum(axis=1)
    # every picked log-probability is <= 0 or nan, so one that is not finite
    # makes its scheme's loss not finite: only then look for it
    if not np.isfinite(losses).all() and not np.isfinite(picked).all():
        _, m, b = np.unravel_index(np.argmax(~np.isfinite(picked)), picked.shape)
        raise NonFiniteLossError(f"non-finite loss at member {m}, sample {b}")

    delta /= total_exp
    delta.reshape(-1)[label] -= 1.0
    delta /= batch  # each member's loss is its own batch mean

    # the kept gradient vector's per-layer views hold for one layout only
    layout = (model.flat.shape, n_members, len(model.bn),
              *(layer.weight.shape for layer in model.slow.layers))
    if "grads" not in bufs or bufs["grads"][0] != layout:
        flat = np.empty_like(model.flat)  # every element is written below
        bufs["grads"] = layout, flat, model._groups(flat.reshape(n_schemes, -1))
    _, grads, (g_slow_w, g_slow_b, g_r, g_s, g_gamma, g_beta) = bufs["grads"]
    for i in reversed(range(len(caches))):
        h, rs, w_m, bn_cache = caches[i]
        weight, _, r, s, _ = layers[i]
        if bn_cache is not None:
            scale = _bn_backward(delta, bn_cache, g_gamma[i], g_beta[i], bufs)[..., None, :]
        g_m = np.matmul(h, delta.swapaxes(2, 3), out=_buffer(bufs, ("g", i), w_m.shape))
        if bn_cache is None:
            np.add.reduce(_sample_sum(delta, np.empty(delta.shape[:3]), bufs), axis=1,
                          out=g_slow_b[i])
        else:  # the input's delta is scale ∘ delta: scale the weight-shaped arrays
            g_m *= scale
            w_m *= scale  # read again only by the input delta's matmul below
            g_slow_b[i][...] = 0.0
        # W_m = W ∘ (r_m s_mᵀ) gives W, r_m and s_m their gradients from g_m
        np.add.reduce(np.multiply(g_m, rs, out=rs), axis=1, out=g_slow_w[i])
        g_m *= weight
        np.matmul(g_m, s[..., None], out=g_r[i][..., None])
        np.matmul(r[:, :, None, :], g_m, out=g_s[i][:, :, None, :])
        if i > 0:  # the first layer's input delta is not needed
            active = np.greater(h, 0.0, out=_buffer(bufs, ("relu", i), h.shape, bool))
            delta = np.matmul(w_m, delta, out=_buffer(bufs, ("d", i), h.shape))
            delta *= active  # the previous layer's ReLU
    return (float(losses[0]) if model.flat.ndim == 1 else losses), grads.copy()


def be_grad_check(model: BatchEnsembleModel, xs: np.ndarray, ys: np.ndarray,
                  eps: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of a one-scheme model's joint (slow, fast,
    BN) gradient."""
    _one_scheme(model)
    _, grads = be_loss_and_grads(model, xs, ys, update_stats=False)
    xs, ys = _checked_batch(model, xs, ys)
    bufs = {}

    def loss_fn(arrays):
        logits, _, caches = _forward(model, xs.transpose(0, 2, 1), slice(None),
                                     training=True, update_stats=False, bufs=bufs)
        n_members, _, batch = logits[0].shape
        logp = log_softmax(logits[0].transpose(0, 2, 1))
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
    """The one trajectory of a stack of BatchEnsemble schemes: every step
    takes one mini-batch per member from that member's own indices, which
    member m of every scheme reads, and updates all weights together.
    An epoch's batches are drawn and gathered at once. It keeps the kernel's
    activation and backward buffers (``bufs``) and the monitoring forward's
    (``eval_bufs``) for its whole run, so a step allocates none of them.

    ``live`` lists the schemes still training, by their row in the stack it
    started with, and ``models`` holds each one's one-scheme view."""

    def __init__(self, x, y, plan: SplitPlan, model: BatchEnsembleModel,
                 opt_cfg: OptimizerConfig, batch_size: int, seed: int):
        self.y = y
        self.params = model
        self.live = list(range(len(model.flat)))
        self.models = [model.scheme(s) for s in self.live]
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

    def run_epoch(self, schemes: list[int]) -> None:
        """One epoch of the ``schemes``. The others leave the stack first,
        with their rows, BN state and optimizer state."""
        if schemes != self.live:
            rows = [self.live.index(s) for s in schemes]
            self.params = BatchEnsembleModel.stack([self.models[r] for r in rows])
            self.opt.keep_rows(rows)
            self.live = list(schemes)
            self.models = [self.params.scheme(r) for r in range(len(rows))]
        steps, batch = self.steps_per_epoch, self.batch
        idx = np.stack([stream.take(steps * batch) for stream in self.streams])
        idx = idx.reshape(len(idx), steps, batch).swapaxes(0, 1)  # (steps, M, B)
        xe = np.take(self.rows, idx + self.row_offset, axis=0)  # each step's slice contiguous
        ye = self.y[idx]
        for k in range(steps):
            _, grads = be_loss_and_grads(self.params, xe[k], ye[k], bufs=self.bufs)
            self.opt.step(self.params.flat, grads, self.lr_at(self.steps))
            self.steps += 1

    def state(self, scheme: int) -> BatchEnsembleModel:
        """The live one-scheme view of ``scheme``."""
        return self.models[self.live.index(scheme)]

    def steps_of(self, scheme: int) -> int:
        return self.steps

    def logits(self, m: int, rows: np.ndarray, scheme: int) -> np.ndarray:
        """Member m's logits on its scaled ``rows`` under ``scheme``, through
        the kept ``eval_bufs``."""
        return be_forward(self.state(scheme), rows, m, bufs=self.eval_bufs)


def parse_scheme(name: str):
    """'random_sign' or 'gaussian_<sigma>', sigma a finite decimal > 0, into
    (kind, sigma)."""
    if name == RANDOM_SIGN:
        return RANDOM_SIGN, 0.0
    match = re.fullmatch(GAUSSIAN + r"_(\d*\.?\d+(?:[eE][+-]?\d+)?)", name)
    if match and 0.0 < float(match[1]) < math.inf:
        return GAUSSIAN, float(match[1])
    raise ConfigError(f"experiment.schemes entry {name!r} is not a fast-weight scheme; "
                      "expected 'random_sign' or 'gaussian_<sigma>' with a finite "
                      "sigma > 0")


def be_train(x, y, plan: SplitPlan, dims: list[int], schemes: list[str],
             opt_cfg: OptimizerConfig, stop_cfg: StoppingConfig,
             seed: int) -> list[BeTrainResult]:
    """Train a BatchEnsemble per fast-weight scheme (a :func:`parse_scheme`
    name) on the plan's per-member training sets, all as one stacked
    trajectory; returns one result per scheme, in order.

    Every step draws one mini-batch per member from that member's own
    indices, which every scheme reads; a scheme's slow-weight gradients
    accumulate over its members within the step. A scheme's members stop
    together when its plan-determined monitored score exhausts patience, and
    the scheme leaves the stack. Each scheme's result is the one it gets
    trained alone. A non-finite loss raises ``NonFiniteLossError`` naming
    its scheme's member and sample.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    models = [make_batch_ensemble(dims, plan.n_members, kind, member_rng(seed, 0, _INIT),
                                  sigma)
              for kind, sigma in map(parse_scheme, schemes)]
    traj = _BeTrajectory(x, y, plan, BatchEnsembleModel.stack(models), opt_cfg,
                         stop_cfg.batch_size, seed)

    # a disjoint plan has no joint set, and members that share slow weights
    # cannot stop one by one: it monitors the mean of the members' own NLLs
    sets = ([((m,), ms.val_idx) for m, ms in enumerate(plan.members)]
            if plan.strategy == DISJOINT else joint_eval_sets(plan))
    rules = [_Rule([s], _score(sets, y, lambda m, idx: traj.xs[m, idx],
                               lambda m, rows, s=s: traj.logits(m, rows, s)),
                   stop_cfg.mode != NONE, stop_cfg.patience)
             for s in range(len(schemes))]
    _patience_loop(traj, rules, stop_cfg.max_epochs)
    return [BeTrainResult(rule.kept[0], traj.scalers, rule.decision(traj.batch, len(y)))
            for rule in rules]
