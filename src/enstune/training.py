"""Member training with individual vs joint early stopping, patience
bookkeeping and step-normalized epoch accounting. One patience loop
(:func:`_patience_loop`) advances every trajectory, BatchEnsemble included,
and feeds the stopping rules that observe it.

An "improvement" is a strictly lower monitored score; ties burn patience.
Stopping restores the parameters snapshotted at the best epoch. Members
advance one epoch at a time in lockstep; a joint rule monitors the ensemble
NLL on ``calibration.validation_sets`` and stops everyone together.
Under a constant learning rate the individual, joint and none runs of one
plan are prefixes of one trajectory per member, so one call trains each
member once and every mode observes it. A weight-decay grid, which no rule
observes, trains as one stacked trajectory (:func:`train_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .calibration import nll_at_temperature, validation_sets
from .data import Standardizer
from .netcore import (
    MlpParams,
    NonFiniteLossError,
    Optimizer,
    _backward,
    _check_labels,
    _forward,
    cosine_lr,
    loss_and_grad,
    mlp_forward,
    softmax,
)
from .splits import (
    DISJOINT,
    SHARED,
    JointEvalUnavailableError,
    MemberSplit,
    SplitPlan,
)

# purposes for per-member RNG stream derivation
_INIT, _BATCH = 0, 1

INDIVIDUAL = "individual"
JOINT = "joint"
NONE = "none"


def member_rng(base_seed: int, member_index: int, purpose: int) -> np.random.Generator:
    """Independent stream per (seed, member, purpose); members never share."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, member_index, purpose]))


@dataclass
class StoppingConfig:
    mode: str = INDIVIDUAL
    patience: int = 10
    max_epochs: int = 100
    batch_size: int = 128

    def __post_init__(self):
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("patience, max_epochs and batch_size must be >= 1")
        if self.mode not in (INDIVIDUAL, JOINT, NONE):
            raise ValueError(f"unknown stopping mode {self.mode!r}")


@dataclass
class StopDecision:
    stop_epoch: int
    best_epoch: int
    best_score: float
    normalized_epochs: float | None
    history: list[float]
    stopped_early: bool

    def to_dict(self) -> dict:
        return {"stop_epoch": self.stop_epoch, "best_epoch": self.best_epoch,
                "best_score": self.best_score,
                "normalized_epochs": self.normalized_epochs,
                "stopped_early": self.stopped_early, "history": list(self.history)}


class PatienceTracker:
    """Incremental patience controller over a monitored score."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_score = math.inf
        self.best_epoch = -1
        self.epoch = -1

    def update(self, score: float) -> bool:
        """Record one epoch's score; returns True if it strictly improved."""
        self.epoch += 1
        if score < self.best_score:
            self.best_score = score
            self.best_epoch = self.epoch
            return True
        return False

    @property
    def should_stop(self) -> bool:
        return self.epoch - self.best_epoch >= self.patience


def stop_controller(history, patience: int) -> StopDecision:
    """Replay a monitored-score history through the patience rule."""
    history = [float(h) for h in history]
    if not history:
        raise ValueError("history must be non-empty")
    tracker = PatienceTracker(patience)
    for epoch, score in enumerate(history):
        tracker.update(score)
        if tracker.should_stop:
            return StopDecision(epoch, tracker.best_epoch, tracker.best_score,
                                None, history[:epoch + 1], True)
    return StopDecision(len(history) - 1, tracker.best_epoch, tracker.best_score,
                        None, history, False)


def normalized_epochs(steps_taken: int, batch_size: int, n_total: int) -> float:
    """Optimizer steps scaled to epochs of the full non-test pool."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    return steps_taken * batch_size / n_total


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 1e-3
    weight_decay: float = 0.0
    momentum: float = 0.9
    decay_bias: bool = False
    cosine_epochs: int | None = None  # anneal to 0 over this many epochs

    def build(self, params) -> Optimizer:
        """An optimizer over ``params.flat`` (an :class:`MlpParams` or a
        BatchEnsemble), decaying what ``params.decay_mask`` selects."""
        return Optimizer(self.kind, params.flat, self.lr,
                         weight_decay=self.weight_decay, momentum=self.momentum,
                         decay_mask=params.decay_mask(self.decay_bias))


@dataclass
class TrainedMember:
    params: MlpParams
    scaler: Standardizer
    stop: StopDecision | None  # its stopping rule's decision; None if no rule observed it
    steps: int = 0  # optimizer steps its trajectory ran


def member_probs(member: TrainedMember, x: np.ndarray) -> np.ndarray:
    """Class probabilities on raw features through the member's scaler."""
    return softmax(mlp_forward(member.params, member.scaler(x)))


def member_logits(member: TrainedMember, x: np.ndarray) -> np.ndarray:
    return mlp_forward(member.params, member.scaler(x))


def _member_start(x, y, ms: MemberSplit, dims, seed: int, member_index: int,
                  standardize: bool):
    """Where every trajectory of (seed, member) starts: its scaler, scaled
    train rows and intp labels, initial parameters and batch stream."""
    if len(ms.train_idx) == 0 or len(ms.val_idx) == 0:
        raise ValueError(f"member {member_index}: empty train or validation set")
    scaler = (Standardizer.fit(x[ms.train_idx]) if standardize
              else Standardizer.identity(x.shape[1]))
    return (scaler, scaler(x[ms.train_idx]), y[ms.train_idx].astype(np.intp, copy=False),
            MlpParams.random(dims, member_rng(seed, member_index, _INIT)),
            member_rng(seed, member_index, _BATCH))


class _MemberState:
    """One member's trajectory: parameters, scaler, data views, RNG streams
    and its learning-rate schedule ``lr_at(step)``. It keeps the kernel's
    buffers (``bufs``) for its whole run: each step's gradients view them
    until the next step, and the optimizer has read them by then."""

    def __init__(self, x, y, ms: MemberSplit, dims, opt_cfg, seed, member_index,
                 standardize, batch_size, lr_at):
        (self.scaler, self.x_train, self.y_train, self.params,
         self.batch_rng) = _member_start(x, y, ms, dims, seed, member_index, standardize)
        self.x = x
        self.x_val = self.scaler(x[ms.val_idx])
        self.y_val = y[ms.val_idx]
        self.opt = opt_cfg.build(self.params)
        self.batch_size = batch_size
        self.lr_at = lr_at
        self.steps = 0
        self.bufs = {}
        self.set_inputs = {}  # id(idx) -> (idx, its scaled rows)

    def run_epoch(self) -> None:
        order = self.batch_rng.permutation(len(self.y_train))
        xs, ys = self.x_train[order], self.y_train[order]  # each minibatch a slice
        for start in range(0, len(order), self.batch_size):
            stop = start + self.batch_size
            lr_now = self.lr_at(self.steps)
            _, grads = loss_and_grad(self.params, xs[start:stop], ys[start:stop], self.bufs)
            self.opt.step(self.params.flat, grads.flat, lr_now)
            self.steps += 1

    def snapshot(self) -> MlpParams:
        return self.params.copy()

    def set_logits(self, idx: np.ndarray) -> np.ndarray:
        """The member's logits on rows ``idx``. A monitored set never
        changes over a run, so its scaled rows are kept at its first call."""
        kept = self.set_inputs.get(id(idx))
        if kept is None:  # kept holds idx, so its id is not reused
            kept = self.set_inputs[id(idx)] = idx, self.scaler(self.x[idx])
        return mlp_forward(self.params, kept[1])

    def val_nll(self) -> float:
        return metrics.nll(softmax(mlp_forward(self.params, self.x_val)), self.y_val)


def _cosine_schedule(opt_cfg: OptimizerConfig, steps_per_epoch: int):
    """Learning rate by optimizer step: constant, or one cosine cycle over
    ``opt_cfg.cosine_epochs`` epochs of ``steps_per_epoch`` steps."""
    if not opt_cfg.cosine_epochs:
        return lambda step: opt_cfg.lr
    total_steps = steps_per_epoch * opt_cfg.cosine_epochs
    return lambda step: cosine_lr(opt_cfg.lr, min(step, total_steps), total_steps)


class _Rule:
    """A stopping rule observing the trajectories ``ids`` through ``score()``,
    with its own patience tracker and history. After the loop ``kept`` holds
    the state it keeps of each trajectory (the best-epoch snapshot, or the
    final state when unmonitored) and ``steps`` each trajectory's optimizer
    steps when the rule stopped."""

    def __init__(self, ids, score, monitored: bool, patience: int):
        self.ids = list(ids)
        self.score = score
        self.monitored = monitored
        self.tracker = PatienceTracker(patience)
        self.history: list[float] = []
        self.stopped_early = False
        self.kept: list | None = None
        self.steps: list[int] | None = None

    def decision(self, batch_size: int, n_total: int) -> StopDecision:
        """The rule's decision, its normalized epochs taken from the mean
        steps of its trajectories at stop."""
        return StopDecision(len(self.history) - 1, self.tracker.best_epoch,
                            self.tracker.best_score,
                            normalized_epochs(float(np.mean(self.steps)), batch_size,
                                              n_total),
                            self.history, self.stopped_early)


# a diverging trajectory overflows before its loss is non-finite, which raises
@np.errstate(over="ignore", invalid="ignore")
def _patience_loop(trajectories, rules: list[_Rule], max_epochs: int,
                   advance=None) -> None:
    """The training protocol shared by every trainer. Each epoch advances
    every trajectory a live rule observes, then feeds each live rule its
    score: a monitored rule snapshots its trajectories on strict improvement
    and stops on exhausted patience, keeping its best snapshot; an
    unmonitored rule (mode "none") runs all ``max_epochs`` and keeps the
    final state. A trajectory stops once every rule on it has stopped, so
    rules sharing a trajectory never retrain its prefix.

    A trajectory has ``run_epoch()``, ``snapshot()`` (a copy of its trained
    state), the live state ``params`` and its optimizer ``steps``. Rules
    with the same ``score`` callable share one evaluation per epoch. Given
    ``advance(ids)``, the loop calls it instead of ``run_epoch()`` to run
    one epoch of the trajectories ``ids`` (sorted) together, as the schemes
    of one stack train.
    """
    for rule in rules:
        if rule.monitored:
            rule.kept = [trajectories[i].snapshot() for i in rule.ids]
    live = list(rules)
    for _ in range(max_epochs):
        ids = sorted({i for rule in live for i in rule.ids})
        if advance is not None:
            advance(ids)
        else:
            for i in ids:
                trajectories[i].run_epoch()
        scores = {}
        for rule in live:
            if rule.score not in scores:
                scores[rule.score] = rule.score()
            rule.history.append(scores[rule.score])
            if rule.tracker.update(rule.history[-1]) and rule.monitored:
                rule.kept = [trajectories[i].snapshot() for i in rule.ids]
            if rule.monitored and rule.tracker.should_stop:
                rule.stopped_early = True
                rule.steps = [trajectories[i].steps for i in rule.ids]
        live = [rule for rule in live if rule.steps is None]
        if not live:
            break
    for rule in live:  # ran every epoch
        rule.steps = [trajectories[i].steps for i in rule.ids]
        if not rule.monitored:
            rule.kept = [trajectories[i].params for i in rule.ids]


@dataclass
class EnsembleResult:
    members: list[TrainedMember]
    decisions: list[StopDecision]  # one per stopping rule, in member order
    by_mode: dict[str, EnsembleResult] = field(default_factory=dict)


def train_ensemble(x, y, plan: SplitPlan, dims, opt_cfg: OptimizerConfig,
                   stop_cfg: StoppingConfig, base_seed: int,
                   member_seeds: list[int] | None = None,
                   standardize: bool = True, modes=None) -> EnsembleResult:
    """Train every plan member's trajectory once, observed by the stopping
    rules of each mode in ``modes`` (default: ``stop_cfg.mode`` alone): in
    modes "individual" and "none" one rule per member on its own validation
    NLL, in mode "joint" one rule over all members on the ensemble NLL. A
    member trains until every rule on it has stopped.

    ``by_mode`` maps each mode to its members and decisions (one per rule,
    in member order); ``members`` and ``decisions`` are those of
    ``stop_cfg.mode``. Each member's ``stop`` is its rule's decision and
    ``steps`` the optimizer steps its trajectory ran in this call. Modes
    share a trajectory only under one learning-rate schedule, so a call with
    several modes refuses ``opt_cfg.cosine_epochs``; alone, a joint rule
    anneals every member over the longest member epoch."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    modes = (stop_cfg.mode,) if modes is None else tuple(modes)
    if (stop_cfg.mode not in modes or len(set(modes)) != len(modes)
            or not set(modes) <= {INDIVIDUAL, JOINT, NONE}):
        raise ValueError(f"modes {modes} must be distinct stopping modes and "
                         f"include stop_cfg.mode {stop_cfg.mode!r}")
    if len(modes) > 1 and opt_cfg.cosine_epochs:
        raise ValueError("several stopping modes share one trajectory per member "
                         "only under a constant learning rate; cosine_epochs needs "
                         "one mode per call")
    seeds = member_seeds if member_seeds is not None else [base_seed] * plan.n_members
    if len(seeds) != plan.n_members:
        raise ValueError("member_seeds must have one entry per member")
    member_ids = (range(plan.n_members) if member_seeds is None
                  else [0] * plan.n_members)  # explicit seeds already disambiguate
    if JOINT in modes and plan.strategy == DISJOINT:  # fail fast, before any training
        raise JointEvalUnavailableError("joint stopping on a disjoint plan: "
                                        "no common validation set")
    steps_per_epoch = [math.ceil(len(ms.train_idx) / stop_cfg.batch_size)
                       for ms in plan.members]
    states = [_MemberState(x, y, ms, dims, opt_cfg, seeds[m], mid, standardize,
                           stop_cfg.batch_size,
                           _cosine_schedule(opt_cfg, max(steps_per_epoch)
                                            if JOINT in modes else steps_per_epoch[m]))
              for m, (ms, mid) in enumerate(zip(plan.members, member_ids))]
    rules = {}
    for mode in modes:
        if mode == JOINT:
            rules[mode] = [_Rule(range(len(states)), lambda: nll_at_temperature(
                validation_sets(JOINT, plan, y, lambda ids, idx: [
                    states[m].set_logits(idx) for m in ids]))(1.0), True, stop_cfg.patience)]
        else:
            rules[mode] = [_Rule([m], s.val_nll, mode != NONE, stop_cfg.patience)
                           for m, s in enumerate(states)]
    _patience_loop(states, [r for mode_rules in rules.values() for r in mode_rules],
                   stop_cfg.max_epochs)
    by_mode = {}
    for mode, mode_rules in rules.items():
        members, decisions = [], []
        for rule in mode_rules:
            decision = rule.decision(stop_cfg.batch_size, len(y))
            decisions.append(decision)
            members += [TrainedMember(p, states[i].scaler, decision, states[i].steps)
                        for i, p in zip(rule.ids, rule.kept)]
        by_mode[mode] = EnsembleResult(members, decisions)
    own = by_mode[stop_cfg.mode]
    return EnsembleResult(own.members, own.decisions, by_mode)


def train_grid(x, y, plan: SplitPlan, dims, opt_cfg: OptimizerConfig, weight_decays,
               stop_cfg: StoppingConfig, base_seed: int) -> list:
    """Train every (weight decay, member) pair of a shared plan for
    ``stop_cfg.max_epochs`` epochs as one stacked trajectory: one batched
    step per minibatch moves all decays x members rows, through the forward
    and backward cores that :func:`~enstune.netcore.loss_and_grad` runs on
    one member, so each row's gradient is that member's own.

    Each row starts where :func:`train_ensemble` starts the member (scaler,
    initial parameters, batch stream, learning-rate schedule) and ends
    bit-identical to that call's mode-"none" member under ``opt_cfg`` with
    the row's weight decay. No rule observes the rows, so nothing is scored
    per epoch. A shared plan's members train on the same rows, one scaled
    matrix that each member's batch stream indexes, so every row takes the
    same steps.

    Returns, per weight decay, its members in plan order, or the
    :class:`NonFiniteLossError` of its first row whose loss went non-finite:
    at that step the decay's rows and their optimizer state leave the stack
    and the other rows redo the step.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if plan.strategy != SHARED:
        raise ValueError(f"a grid trajectory needs a shared plan, got {plan.strategy!r}")
    scalers, xs, ys, inits, batch_rngs = zip(*(
        _member_start(x, y, ms, dims, base_seed, m, standardize=True)
        for m, ms in enumerate(plan.members)))
    x_train, y_train = xs[0], _check_labels(ys[0], dims[-1], xs[0])
    n_rows = len(weight_decays)
    params = MlpParams.from_flat(np.repeat(np.stack([p.flat for p in inits])[None], n_rows,
                                           axis=0), dims)
    opt = Optimizer(opt_cfg.kind, params.flat, opt_cfg.lr,
                    weight_decay=np.asarray(weight_decays, dtype=np.float64)[:, None, None],
                    momentum=opt_cfg.momentum,
                    decay_mask=inits[0].decay_mask(opt_cfg.decay_bias))
    n_train, batch_size = len(y_train), stop_cfg.batch_size
    lr_at = _cosine_schedule(opt_cfg, math.ceil(n_train / batch_size))
    outcomes = [None] * n_rows
    live = list(range(n_rows))  # the grid entry of each stack row
    bufs: dict = {}
    steps = 0
    # a diverging row overflows before its loss is non-finite, which is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(stop_cfg.max_epochs):
            if not live:
                break
            orders = np.stack([rng.permutation(n_train) for rng in batch_rngs])
            for start in range(0, n_train, batch_size):
                idx = orders[:, start:start + batch_size]
                xb, yb = x_train[idx][None], y_train[idx]
                while True:  # until no live row's loss is non-finite
                    _, picked, grads = _backward(params, _forward(params, xb, bufs), yb,
                                                 bufs)
                    if grads is not None:
                        break
                    bad = ~np.isfinite(picked)
                    bad_rows = bad.any(axis=-1)
                    for r in np.flatnonzero(bad_rows.any(axis=1)):
                        m = int(np.argmax(bad_rows[r]))
                        outcomes[live[r]] = NonFiniteLossError(
                            f"non-finite loss at sample {int(np.argmax(bad[r, m]))}")
                    keep = np.flatnonzero(~bad_rows.any(axis=1))
                    params = MlpParams.from_flat(params.flat[keep], dims)
                    opt.keep_rows(keep)
                    live = [live[r] for r in keep]
                opt.step(params.flat, grads.flat, lr_at(steps))
                steps += 1
    for r, entry in enumerate(live):
        outcomes[entry] = [TrainedMember(MlpParams.from_flat(params.flat[r, m].copy(), dims),
                                         scaler, None, steps)
                           for m, scaler in enumerate(scalers)]
    return outcomes
