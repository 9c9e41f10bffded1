"""Minimal feed-forward network engine: MLP forward/backward, SGD+momentum,
Adam, cosine annealing and finite-difference gradient checking.

Everything is float64 and pure numpy. Parameters and optimizer state are
plain mutable containers owned by a single training job at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Dimension mismatch between tensors, naming the offending layer."""


class LabelError(ValueError):
    """Label outside [0, n_classes)."""


class NonFiniteLossError(FloatingPointError):
    """Loss became NaN/inf; message names the first offending sample."""


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, log-sum-exp stabilized."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        shifted = z - z.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass
class DenseLayer:
    """One dense layer: weight is (in, out), bias is (out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weight.copy(), self.bias.copy())


@dataclass
class MlpParams:
    """Stack of dense layers with ReLU between hidden layers and identity
    (logit) output.  An empty layer list is the degenerate identity network.
    """

    layers: list[DenseLayer] = field(default_factory=list)

    @classmethod
    def random(cls, dims: list[int], rng: np.random.Generator) -> "MlpParams":
        """He-initialized MLP with layer widths ``dims = [in, h1, ..., out]``."""
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            layers.append(DenseLayer(w, np.zeros(fan_out)))
        return cls(layers)

    @property
    def dims(self) -> list[int]:
        if not self.layers:
            return []
        return [self.layers[0].weight.shape[0]] + [l.weight.shape[1] for l in self.layers]

    def copy(self) -> "MlpParams":
        return MlpParams([l.copy() for l in self.layers])

    def arrays(self) -> list[np.ndarray]:
        """Flat list of parameter arrays, weights and biases interleaved."""
        out = []
        for l in self.layers:
            out.append(l.weight)
            out.append(l.bias)
        return out

    def decay_mask(self, decay_bias: bool = False) -> list[bool]:
        """Which arrays of :meth:`arrays` receive weight decay."""
        mask = []
        for _ in self.layers:
            mask.append(True)
            mask.append(decay_bias)
        return mask


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Forward pass returning (logits, activations, hidden pre-activations).

    ``activations[i]`` is the input to layer i; ``preacts[i]`` the hidden
    pre-activation of layer i (last layer excluded, it stays linear).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("input must be a 2-d (samples, features) array")
    acts = [x]
    preacts = []
    h = x
    n_layers = len(params.layers)
    for i, layer in enumerate(params.layers):
        if h.shape[1] != layer.weight.shape[0]:
            raise ShapeError(
                f"layer {i}: input has {h.shape[1]} features, weight expects "
                f"{layer.weight.shape[0]}"
            )
        z = h @ layer.weight + layer.bias
        if i < n_layers - 1:
            preacts.append(z)
            h = np.maximum(z, 0.0)
        else:
            h = z
        acts.append(h)
    return h, acts, preacts


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits of the MLP on ``x`` (rows are samples)."""
    logits, _, _ = _forward_cached(params, x)
    return logits


def _check_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise LabelError("labels must be a 1-d integer array")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        bad = int(np.argmax((y < 0) | (y >= n_classes)))
        raise LabelError(f"label {y[bad]} at sample {bad} outside [0, {n_classes})")
    return y.astype(np.intp)


def loss_and_grad(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy and its exact gradient.

    The softmax and log are fused through log-sum-exp for stability. Returns
    ``(nll, grads)`` with ``grads`` shaped like ``params``.
    """
    logits, acts, preacts = _forward_cached(params, x)
    n, k = logits.shape
    y = _check_labels(y, k)
    logp = log_softmax(logits)
    per_sample = -logp[np.arange(n), y]
    if not np.isfinite(per_sample).all():
        bad = int(np.argmax(~np.isfinite(per_sample)))
        raise NonFiniteLossError(f"non-finite loss at sample {bad}")
    nll = float(per_sample.mean())

    probs = np.exp(logp)
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads = MlpParams([DenseLayer(np.empty_like(l.weight), np.empty_like(l.bias))
                       for l in params.layers])
    for i in range(len(params.layers) - 1, -1, -1):
        grads.layers[i].weight[...] = acts[i].T @ delta
        grads.layers[i].bias[...] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.layers[i].weight.T) * (preacts[i - 1] > 0)
    return nll, grads


def _stacked_loss_and_grad(params: list[np.ndarray], x: np.ndarray, y: np.ndarray,
                           bufs: dict):
    """:func:`loss_and_grad` over stacked parameter rows, with the same
    operations per row, so each row's gradients are bit-identical to its own
    call's.

    ``params`` interleaves weights ``(D, M, in, out)`` and biases
    ``(D, M, 1, out)``; the batch ``x`` is ``(1, M, n, in)``, one minibatch
    per member broadcast across the D rows of every member, with intp labels
    ``y`` ``(M, n)`` already checked. Activations, deltas and gradients live
    in ``bufs``, flat arrays the caller keeps across calls and this function
    grows as needed. Returns ``(None, grads)``, the gradients shaped like
    ``params``, or, when some row's loss is non-finite, ``(mask, None)`` with
    the ``(D, M, n)`` mask of its non-finite samples.
    """
    weights, biases = params[0::2], params[1::2]
    n = x.shape[-2]

    def buf(key, shape):
        size = math.prod(shape)
        if key not in bufs or bufs[key].size < size:
            bufs[key] = np.empty(size)
        return bufs[key][:size].reshape(shape)

    acts = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[-1], w, out=buf(i, w.shape[:2] + (n, w.shape[3])))
        z += b
        if i < len(weights) - 1:
            np.maximum(z, 0.0, out=z)  # positive exactly where the pre-activation is
        acts.append(z)
    logp = log_softmax(acts.pop())
    pick = (slice(None), np.arange(y.shape[0])[:, None], np.arange(n), y)
    finite = np.isfinite(logp[pick])
    if not finite.all():
        return ~finite, None
    delta = np.exp(logp)
    delta[pick] -= 1.0
    delta /= n
    grads = [buf(("grad", j), p.shape) for j, p in enumerate(params)]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=grads[2 * i])
        np.sum(delta, axis=-2, keepdims=True, out=grads[2 * i + 1])
        if i > 0:  # the activation's last read: its buffer takes the delta
            active = acts[i] > 0
            delta = np.matmul(delta, weights[i].swapaxes(-1, -2), out=acts[i])
            delta *= active
    return None, grads


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Single-cycle cosine annealing from ``base_lr`` to 0, no restarts."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if step < 0:
        raise ValueError("step must be non-negative")
    if step > total_steps:
        warnings.warn(f"cosine_lr: step {step} > total_steps {total_steps}, clamping to 0")
        return 0.0
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam moment decays, denominator floor


class Optimizer:
    """SGD with momentum or Adam over a flat list of parameter arrays.

    Weight decay is decoupled: arrays selected by ``decay_mask`` are shrunk by
    ``lr_now * weight_decay`` before the gradient update, for both kinds.
    Biases are excluded from decay unless the mask says otherwise. Stacked
    parameters (a leading row axis on every array) may take one decay per
    row, as an array broadcasting against each decayed array; a row with
    decay 0 is multiplied by exactly 1.0, which leaves it as a skipped decay
    would.
    """

    KINDS = ("sgd_momentum", "adam")

    def __init__(self, kind: str, params: list[np.ndarray], base_lr: float,
                 weight_decay: float = 0.0, momentum: float = 0.9,
                 decay_mask: list[bool] | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if base_lr < 0:
            raise ValueError("base_lr must be >= 0")
        decays = np.asarray(weight_decay, dtype=np.float64)
        if (decays < 0).any():
            raise ValueError("weight_decay must be >= 0")
        self.kind = kind
        self.base_lr = float(base_lr)
        self.weight_decay = decays if decays.ndim else float(weight_decay)
        self._decays = bool((decays > 0).any())
        self.momentum = float(momentum)
        self.step_count = 0
        self._shapes = [p.shape for p in params]
        self.decay_mask = list(decay_mask) if decay_mask is not None else [True] * len(params)
        if len(self.decay_mask) != len(params):
            raise ShapeError("decay_mask length does not match parameter count")
        if kind == "sgd_momentum":
            self.velocity = [np.zeros_like(p) for p in params]
        else:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray],
             lr_now: float | None = None) -> None:
        """One in-place update; ``lr_now`` defaults to ``base_lr``."""
        lr = self.base_lr if lr_now is None else float(lr_now)
        if lr < 0:
            raise ValueError("lr_now must be >= 0")
        if len(params) != len(self._shapes) or len(grads) != len(self._shapes):
            raise ShapeError("parameter/gradient count does not match optimizer state")
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != self._shapes[i] or g.shape != self._shapes[i]:
                raise ShapeError(f"array {i}: shape {p.shape}/{g.shape} does not match "
                                 f"optimizer state {self._shapes[i]}")
        self.step_count += 1
        if self._decays and lr > 0.0:
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
            bc1 = 1.0 - _BETA1 ** t
            bc2 = 1.0 - _BETA2 ** t
            for i, (p, g) in enumerate(zip(params, grads)):
                self.m[i] = _BETA1 * self.m[i] + (1.0 - _BETA1) * g
                self.v[i] = _BETA2 * self.v[i] + (1.0 - _BETA2) * (g * g)
                p -= lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + _ADAM_EPS)

    def keep_rows(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` of the leading row axis of stacked state and of a
        per-row weight decay, as when those rows are dropped from the stack."""
        for state in ([self.velocity] if self.kind == "sgd_momentum" else [self.m, self.v]):
            state[:] = [a[rows] for a in state]
        if not isinstance(self.weight_decay, float):
            self.weight_decay = self.weight_decay[rows]
        self._shapes = [(len(rows),) + shape[1:] for shape in self._shapes]


@dataclass
class GradCheckEntry:
    array_index: int
    flat_index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    """Coordinate-wise comparison of analytic vs central-difference gradients.

    ``rel_error`` is |a - n| / max(1, |a|, |n|). Coordinates whose perturbed
    evaluations landed on different ReLU activation patterns are listed in
    ``skipped`` instead of being compared (the central difference would cross
    a kink there).
    """

    entries: list[GradCheckEntry] = field(default_factory=list)
    skipped: list[tuple[int, int]] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.rel_error for e in self.entries), default=0.0)

    def __len__(self) -> int:
        return len(self.entries)


def finite_difference_report(loss_fn, params: list[np.ndarray],
                             analytic: list[np.ndarray], eps: float = 1e-5) -> GradCheckReport:
    """Central-difference check of ``analytic`` against ``loss_fn``.

    ``loss_fn(params)`` must return ``(loss, signature)`` where signature is
    an array identifying the active piecewise-linear region (or None).
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must be in (0, 1e-2]")
    report = GradCheckReport()
    for ai, (p, a) in enumerate(zip(params, analytic)):
        aflat = a.reshape(-1)
        for j in range(p.size):
            idx = np.unravel_index(j, p.shape)
            orig = p[idx]
            p[idx] = orig + eps
            f_plus, sig_plus = loss_fn(params)
            p[idx] = orig - eps
            f_minus, sig_minus = loss_fn(params)
            p[idx] = orig
            if sig_plus is not None and not np.array_equal(sig_plus, sig_minus):
                report.skipped.append((ai, j))
                continue
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1.0, abs(aflat[j]), abs(numeric))
            report.entries.append(GradCheckEntry(ai, j, float(aflat[j]), float(numeric),
                                                 abs(aflat[j] - numeric) / denom))
    return report


def grad_check(params: MlpParams, x: np.ndarray, y: np.ndarray,
               eps: float = 1e-5) -> GradCheckReport:
    """Check :func:`loss_and_grad` against central finite differences."""
    _, grads = loss_and_grad(params, x, y)

    def loss_fn(arrays):
        logits, _, preacts = _forward_cached(params, x)
        n, k = logits.shape
        yy = _check_labels(y, k)
        logp = log_softmax(logits)
        loss = float(-logp[np.arange(n), yy].mean())
        sig = np.concatenate([(pa > 0).reshape(-1) for pa in preacts]) if preacts else None
        return loss, sig

    return finite_difference_report(loss_fn, params.arrays(), grads.arrays(), eps)
