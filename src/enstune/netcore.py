"""Minimal feed-forward network engine: MLP forward/backward, SGD+momentum,
Adam, cosine annealing and finite-difference gradient checking.

Everything is float64 and pure numpy. A trajectory keeps its trainable
parameters in one contiguous vector (``MlpParams.flat``; a stack of
trajectories keeps one row each), and the weight and bias arrays that code
reads are views into it. One forward core (:func:`_forward`) and one
backward core (:func:`_backward`) run an MLP or a stack of them, so
inference, the member step, a weight-decay grid's stacked step and the
gradient check share every operation. The optimizer keeps its state in
vectors of the same shape and updates a whole vector with a few in-place
calls. Each vector is owned by a single training job at a time.
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


def _class_major(z: np.ndarray) -> np.ndarray:
    """The rows ``(..., K)`` of ``z`` copied class-major: a new C-ordered
    float64 ``(K, rows)`` array. A reduction over its axis 0 runs as
    elementwise passes over contiguous class rows, several times faster
    than a reduction along each short row."""
    z = np.asarray(z)
    return np.array(z.reshape(-1, z.shape[-1]).T, dtype=np.float64, order="C")


def _row_major(t: np.ndarray, shape) -> np.ndarray:
    """The class-major ``(K, rows)`` array ``t`` as C-ordered rows of ``shape``."""
    return np.ascontiguousarray(t.T).reshape(shape)


def _class_sum(e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sums over axis 0 of a class-major ``(K, rows)`` array (into
    ``out`` if given), the same floats numpy gives for each row of its
    C-ordered transpose. numpy adds a row shorter than 8 entries in order,
    which is the elementwise sum down the class rows; from 8 entries on it
    adds a row pairwise, so such rows are summed over a row-major copy."""
    if len(e) < 8:
        return np.add.reduce(e, axis=0, out=out)
    return np.add.reduce(np.ascontiguousarray(e.T), axis=-1, out=out)


def _log_softmax_classes(t: np.ndarray, e: np.ndarray, sums: np.ndarray) -> None:
    """The class-major ``(K, rows)`` array ``t`` turned in place into its
    log-softmax over the classes, log-sum-exp stabilized; ``e`` (shaped like
    ``t``) and ``sums`` ``(rows,)`` are scratch. The maxima are those of an
    elementwise reduction down the class rows, which may differ from
    ``z.max`` only in the sign of a zero maximum: that changes ``z - max``
    at most from 0.0 to -0.0, so every exp taken of it is unchanged."""
    with np.errstate(invalid="ignore"):  # an infinite logit gives inf - inf
        t -= np.maximum.reduce(t, axis=0, out=sums)
        np.exp(t, out=e)
        t -= np.log(_class_sum(e, sums), out=sums)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, log-sum-exp stabilized, computed class-major."""
    z = np.asarray(z, dtype=np.float64)
    t = _class_major(z)
    t -= np.maximum.reduce(t, axis=0)
    np.exp(t, out=t)
    t /= _class_sum(t)
    return _row_major(t, z.shape)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, log-sum-exp stabilized, computed class-major."""
    z = np.asarray(z, dtype=np.float64)
    t = _class_major(z)
    _log_softmax_classes(t, np.empty_like(t), np.empty(t.shape[1]))
    return _row_major(t, z.shape)


@dataclass
class DenseLayer:
    """One dense layer: weight is (in, out), bias is (out,)."""

    weight: np.ndarray
    bias: np.ndarray


def _concat(arrays) -> np.ndarray:
    """A new float64 vector holding ``arrays`` raveled one after another."""
    if not arrays:
        return np.zeros(0)
    return np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive pieces of the last axis of ``flat``, one per
    shape tuple; each keeps ``flat``'s leading (stack) axes: ``lead + shape``."""
    lead = flat.shape[:-1]
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        piece = flat[..., start:stop]  # already lead + shape for a 1-d shape
        views.append(piece if len(shape) == 1 else piece.reshape(lead + shape))
        start = stop
    return views


def _layer_views(flat: np.ndarray, dims) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views per layer into the last axis of ``flat``: weights
    ``lead + (in, out)`` and biases ``lead + (out,)``."""
    views = iter(_views(flat, [shape for fan_in, fan_out in zip(dims[:-1], dims[1:])
                               for shape in ((fan_in, fan_out), (fan_out,))]))
    return list(zip(views, views))


@dataclass
class MlpParams:
    """Stack of dense layers with ReLU between hidden layers and identity
    (logit) output.  An empty layer list is the degenerate identity network.

    Every weight and bias is a view into the one vector ``flat``, laid out
    like :meth:`arrays`. Built from layers alone, the parameters are copied
    into a new vector; given ``flat``, the layers must already view it.
    """

    layers: list[DenseLayer] = field(default_factory=list)
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat = _concat(self.arrays())
            self.layers = [DenseLayer(w, b) for w, b in _layer_views(self.flat, self.dims)]

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims) -> "MlpParams":
        """Parameters viewing the vector ``flat`` (not copied)."""
        return cls([DenseLayer(w, b) for w, b in _layer_views(flat, dims)], flat)

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
        # the last two axes: a stack of schemes' slow weights leads with its own
        return [self.layers[0].weight.shape[-2]] + [l.weight.shape[-1] for l in self.layers]

    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.flat.copy(), self.dims)

    def arrays(self) -> list[np.ndarray]:
        """The parameter arrays, weights and biases interleaved."""
        out = []
        for l in self.layers:
            out.append(l.weight)
            out.append(l.bias)
        return out

    def decay_mask(self, decay_bias: bool = False) -> np.ndarray:
        """1.0 where ``flat`` receives weight decay (weights, and biases if
        ``decay_bias``), else 0.0."""
        return _concat([np.full(a.shape, 1.0 if i % 2 == 0 else float(decay_bias))
                        for i, a in enumerate(self.arrays())])


def _forward(params: MlpParams, x: np.ndarray, bufs: dict) -> list[np.ndarray]:
    """The forward pass: ``[x, h1, ..., logits]``, each entry the input of
    the next layer. ``params`` may be a stack, its ``flat`` and every layer
    leading with the same axes (a grid's ``(D, M)``); ``x`` then has those
    axes too, or axes of 1 that broadcast, before ``(samples, features)``.
    Every layer's output is written into ``bufs`` (see :func:`_buffer`), its
    bias added and its ReLU applied in place, so a hidden output is positive
    exactly where its pre-activation is."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != params.flat.ndim + 1:
        raise ShapeError(f"input must be a {params.flat.ndim + 1}-d (..., samples, "
                         "features) array")
    acts = [x]
    h = x
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        w = layer.weight
        if h.shape[-1] != w.shape[-2]:
            raise ShapeError(f"layer {i}: input has {h.shape[-1]} features, weight "
                             f"expects {w.shape[-2]}")
        h = np.matmul(h, w, out=_buffer(bufs, i, w.shape[:-2] + (x.shape[-2], w.shape[-1])))
        h += layer.bias[..., None, :]
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits of the MLP on ``x`` (rows are samples)."""
    return _forward(params, x, {})[-1]


def _check_labels(y: np.ndarray, n_classes: int, rows_of, axes=("sample",)) -> np.ndarray:
    """Labels as intp (``y`` itself when it is intp already: callers only
    read them), checked in one pass over the array: ``ShapeError``
    unless there is one label per row of ``rows_of`` (its leading axes, one
    per name in ``axes``), ``LabelError`` unless ``y`` has one axis per name,
    and ``LabelError`` naming its index along each axis for a label outside
    [0, n_classes)."""
    y = np.asarray(y)
    if y.shape[:len(axes)] != np.shape(rows_of)[:len(axes)]:
        raise ShapeError(f"labels of shape {y.shape} do not match inputs of shape "
                         f"{np.shape(rows_of)}")
    if y.ndim != len(axes):
        raise LabelError(f"labels must be a {len(axes)}-d integer array")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        bad = np.unravel_index(np.argmax((y < 0) | (y >= n_classes)), y.shape)
        where = ", ".join(f"{axis} {int(i)}" for axis, i in zip(axes, bad))
        raise LabelError(f"label {y[bad]} at {where} outside [0, {n_classes})")
    return y.astype(np.intp, copy=False)


_ALIGN = 64  # bytes: where every kept buffer starts, a cache line and the widest vector load


def _buffer(bufs: dict, key, shape, dtype=np.float64) -> np.ndarray:
    """A C-ordered ``shape`` array in ``bufs[key]``, a flat array that the
    caller keeps across calls and that grows when a call needs more. The
    array starts on a 64-byte boundary of the flat one, which is allocated
    that much larger, so a kernel's speed does not depend on where the
    allocator placed it. The view at each shape is kept in ``bufs["views"]``
    until its buffer grows, so a call at a shape seen before is one lookup."""
    views = bufs.setdefault("views", {})
    view = views.get((key, shape))
    if view is None:
        size = math.prod(shape)
        pad = _ALIGN // np.dtype(dtype).itemsize
        if key not in bufs or bufs[key].size < size + pad:
            bufs[key] = np.empty(size + pad, dtype)
            for stale in [k for k in views if k[0] == key]:
                del views[stale]
        flat = bufs[key]
        start = -flat.ctypes.data % _ALIGN // flat.itemsize
        view = views[key, shape] = flat[start:start + size].reshape(shape)
    return view


def _bias_grad_in_order(delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``delta`` summed over its samples axis (-2) into ``out``, bit for bit
    as ``np.add.reduce(delta, axis=-2)``. einsum adds the samples in order,
    as that reduce adds them across a row of two or more entries, and
    several times faster; on a row of one, numpy reduces the contiguous
    samples pairwise, so that stays a reduce. ``batchensemble._sample_sum``
    sums a feature-major sample axis by a BLAS product instead, whose order
    differs: the two layouts and guarantees keep them apart."""
    if delta.shape[-1] == 1:
        return np.add.reduce(delta, axis=-2, out=out)
    return np.einsum("...bh->...h", delta, out=out)


def _backward(params: MlpParams, acts: list[np.ndarray], y: np.ndarray, bufs: dict):
    """Each stack row's mean softmax cross-entropy on :func:`_forward`'s
    ``acts``, against checked intp labels ``y`` that broadcast over the
    stack axes, and its exact gradient.

    Returns ``(total, picked, grads)``: ``picked`` holds each sample's
    log-probability of its label (stack axes, then samples), ``total`` their
    sum, and ``grads`` an :class:`MlpParams` laid out like ``params``, or
    None when a picked value is not finite. ``grads`` is kept in ``bufs``
    while calls pass the same ``params.flat``; each such call overwrites it.

    The log-softmax and the output delta run class-major: the logits are
    copied once into a kept ``(K, rows)`` array, whose row maxima, shift,
    exp, class sums and log are then passes over contiguous rows of every
    sample of the stack, the same floats as :func:`log_softmax`. The delta
    is copied back once, into the logits' buffer, and each hidden
    activation's buffer takes the delta at its last read.
    """
    logits = acts[-1]
    n_classes = logits.shape[-1]
    n_rows = logits.size // n_classes
    row = bufs.get(("row", logits.shape))
    if row is None:  # each sample's index along the class-major rows, kept per shape
        row = bufs["row", logits.shape] = np.arange(n_rows).reshape(logits.shape[:-1])
    label = y * n_rows + row  # the flat index of each sample's label entry
    # the log-probabilities, their exps and one value per sample, in one kept array
    work = _buffer(bufs, "classes", (2 * n_classes + 1, n_rows))
    logp = work[:n_classes]
    np.copyto(logp, logits.reshape(n_rows, n_classes).T)
    _log_softmax_classes(logp, work[n_classes:-1], work[-1])
    picked = logp.reshape(-1)[label]
    total = float(np.add.reduce(picked, axis=None))
    # every picked log-probability is <= 0 or nan, so one that is not finite
    # makes the sum not finite: only then look for it
    if not math.isfinite(total) and not np.isfinite(picked).all():
        return total, picked, None

    np.exp(logp, out=logp)
    logp.reshape(-1)[label] -= 1.0
    logp /= logits.shape[-2]
    # on a network with no layer the logits are the input, which is only read
    delta = logits if params.layers else _buffer(bufs, "delta", logits.shape)
    np.copyto(delta.reshape(n_rows, n_classes), logp.T)
    kept = bufs.get("grads")
    if kept is None or kept[0] is not params.flat:  # the views serve one vector
        kept = bufs["grads"] = params.flat, MlpParams.from_flat(
            _buffer(bufs, "grad", params.flat.shape), params.dims)
    grads = kept[1]
    for i in range(len(params.layers) - 1, -1, -1):
        np.matmul(acts[i].mT, delta, out=grads.layers[i].weight)
        _bias_grad_in_order(delta, grads.layers[i].bias)
        if i > 0:  # the activation's last read: its buffer takes the delta
            active = acts[i] > 0
            delta = np.matmul(delta, params.layers[i].weight.mT, out=acts[i])
            delta *= active
    return total, picked, grads


def loss_and_grad(params: MlpParams, x: np.ndarray, y: np.ndarray,
                  bufs: dict | None = None):
    """Mean softmax cross-entropy and its exact gradient.

    The softmax and log are fused through log-sum-exp for stability. Returns
    ``(nll, grads)`` with ``grads`` shaped like ``params``. A training
    trajectory passes the same ``bufs`` dict on every step: activations,
    the log-softmax, the delta and the gradient are written into its kept
    arrays (see :func:`_buffer`), and ``grads`` is one kept
    :class:`MlpParams` that the next call with that dict and these
    parameters overwrites. Without ``bufs`` the call allocates its own and
    ``grads`` is new.
    """
    bufs = {} if bufs is None else bufs
    acts = _forward(params, x, bufs)
    y = _check_labels(y, acts[-1].shape[1], x)
    total, picked, grads = _backward(params, acts, y, bufs)
    if grads is None:
        raise NonFiniteLossError(f"non-finite loss at sample "
                                 f"{int(np.argmax(~np.isfinite(picked)))}")
    return -total / len(picked), grads


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
    """SGD with momentum or Adam over one parameter vector.

    ``params`` is a trajectory's ``flat`` vector ``(P,)``, or a stack of
    them with leading row axes (``(D, M, P)`` for a weight-decay grid); the
    optimizer state has the same shape, and :meth:`step` updates the whole
    array with a few in-place ufunc calls, in the order of the textbook
    per-array update, so every element comes out as that update gives it.

    Weight decay is decoupled: each element is shrunk by ``lr_now`` times
    its decay before the gradient update, for both kinds. The decay is
    ``decay_mask * weight_decay``: ``decay_mask`` (default all ones) is 1.0
    on the elements that decay and 0.0 elsewhere (biases, unless asked),
    over the last axis; ``weight_decay`` is a float, or one decay per row as
    an array broadcasting against ``params``. An element with decay 0 is
    multiplied by exactly 1.0, which leaves it as a skipped decay would.
    """

    KINDS = ("sgd_momentum", "adam")

    def __init__(self, kind: str, params: np.ndarray, base_lr: float,
                 weight_decay: float = 0.0, momentum: float = 0.9,
                 decay_mask: np.ndarray | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if base_lr < 0:
            raise ValueError("base_lr must be >= 0")
        decays = np.asarray(weight_decay, dtype=np.float64)
        if (decays < 0).any():
            raise ValueError("weight_decay must be >= 0")
        self.kind = kind
        self.base_lr = float(base_lr)
        self._decays = bool((decays > 0).any())
        self.momentum = float(momentum)
        self.step_count = 0
        self.shape = params.shape
        mask = np.ones(params.shape[-1:]) if decay_mask is None else decay_mask
        self.decay = np.broadcast_to(mask * decays, params.shape).copy()
        # moments, then scratch for the update: every array shaped like params
        self._state = ["velocity", "_buf"] if kind == "sgd_momentum" else ["m", "v", "_buf",
                                                                          "_buf2"]
        for name in self._state:
            setattr(self, name, np.zeros(params.shape))

    def step(self, params: np.ndarray, grads: np.ndarray,
             lr_now: float | None = None) -> None:
        """One in-place update; ``lr_now`` defaults to ``base_lr``."""
        lr = self.base_lr if lr_now is None else float(lr_now)
        if lr < 0:
            raise ValueError("lr_now must be >= 0")
        if params.shape != self.shape or grads.shape != self.shape:
            raise ShapeError(f"parameters {params.shape} / gradients {grads.shape} do not "
                             f"match optimizer state {self.shape}")
        self.step_count += 1
        buf = self._buf
        if self._decays and lr > 0.0:
            np.multiply(self.decay, lr, out=buf)
            np.subtract(1.0, buf, out=buf)
            params *= buf
        if self.kind == "sgd_momentum":
            self.velocity *= self.momentum
            self.velocity += grads
            np.multiply(self.velocity, lr, out=buf)
            params -= buf
        else:
            t = self.step_count
            bc1 = 1.0 - _BETA1 ** t
            bc2 = 1.0 - _BETA2 ** t
            m, v, step = self.m, self.v, self._buf2
            m *= _BETA1
            np.multiply(grads, 1.0 - _BETA1, out=buf)
            m += buf
            v *= _BETA2
            np.multiply(grads, grads, out=buf)
            buf *= 1.0 - _BETA2
            v += buf
            np.divide(v, bc2, out=buf)  # the denominator sqrt(v / bc2) + eps
            np.sqrt(buf, out=buf)
            buf += _ADAM_EPS
            np.divide(m, bc1, out=step)  # lr * (m / bc1) / denominator
            step *= lr
            step /= buf
            params -= step

    def keep_rows(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` of the leading row axis of stacked state and of
        the per-element decay, as when those rows are dropped from the stack."""
        for name in self._state + ["decay"]:
            setattr(self, name, getattr(self, name)[rows])
        self.shape = self.decay.shape


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
        *acts, logits = _forward(params, x, {})
        n, k = logits.shape
        yy = _check_labels(y, k, x)
        logp = log_softmax(logits)
        loss = float(-logp[np.arange(n), yy].mean())
        sig = np.concatenate([(a > 0).reshape(-1) for a in acts[1:]]) if acts[1:] else None
        return loss, sig

    return finite_difference_report(loss_fn, params.arrays(), grads.arrays(), eps)
