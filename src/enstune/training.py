"""Member training with individual vs joint early stopping, patience
bookkeeping and step-normalized epoch accounting. One patience loop
(:func:`_patience_loop`) runs every stopping group, BatchEnsemble included.

An "improvement" is a strictly lower monitored score; ties burn patience.
Stopping restores the parameters snapshotted at the best epoch. Joint mode
advances all members one epoch in lockstep, monitors the ensemble score on
the plan's jointly evaluable sets and stops everyone together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .data import Standardizer
from .netcore import (
    MlpParams,
    Optimizer,
    cosine_lr,
    loss_and_grad,
    mlp_forward,
    softmax,
)
from .splits import DISJOINT, JointEvalUnavailableError, SplitPlan, joint_eval_sets

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

    def build(self, params: MlpParams) -> Optimizer:
        return Optimizer(self.kind, params.arrays(), self.lr,
                         weight_decay=self.weight_decay, momentum=self.momentum,
                         decay_mask=params.decay_mask(self.decay_bias))


@dataclass
class TrainedMember:
    params: MlpParams
    scaler: Standardizer
    stop: StopDecision  # its stopping group's decision
    steps: int = 0


def member_probs(member: TrainedMember, x: np.ndarray) -> np.ndarray:
    """Class probabilities on raw features through the member's scaler."""
    return softmax(mlp_forward(member.params, member.scaler(x)))


def member_logits(member: TrainedMember, x: np.ndarray) -> np.ndarray:
    return mlp_forward(member.params, member.scaler(x))


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


class _MemberState:
    """One member's parameters, scaler, data views and RNG streams."""

    def __init__(self, x, y, train_idx, val_idx, dims, opt_cfg, seed, member_index,
                 standardize):
        if len(train_idx) == 0 or len(val_idx) == 0:
            raise ValueError(f"member {member_index}: empty train or validation set")
        self.scaler = (Standardizer.fit(x[train_idx]) if standardize
                       else Standardizer.identity(x.shape[1]))
        self.x_train = self.scaler(x[train_idx])
        self.y_train = y[train_idx]
        self.x_val = self.scaler(x[val_idx])
        self.y_val = y[val_idx]
        init_rng = member_rng(seed, member_index, _INIT)
        self.params = MlpParams.random(dims, init_rng)
        self.opt = opt_cfg.build(self.params)
        self.batch_rng = member_rng(seed, member_index, _BATCH)
        self.steps = 0

    def steps_per_epoch(self, batch_size: int) -> int:
        return math.ceil(len(self.y_train) / batch_size)

    def run_epoch(self, batch_size: int, lr_at) -> None:
        order = self.batch_rng.permutation(len(self.y_train))
        for batch in _batches(order, batch_size):
            lr_now = lr_at(self.steps)
            _, grads = loss_and_grad(self.params, self.x_train[batch], self.y_train[batch])
            self.opt.step(self.params.arrays(), grads.arrays(), lr_now)
            self.steps += 1

    def probs(self, x: np.ndarray) -> np.ndarray:
        return softmax(mlp_forward(self.params, self.scaler(x)))

    def val_nll(self) -> float:
        return metrics.nll(softmax(mlp_forward(self.params, self.x_val)), self.y_val)


def _cosine_schedule(opt_cfg: OptimizerConfig, steps_per_epoch: int):
    """Learning rate by optimizer step: constant, or one cosine cycle over
    ``opt_cfg.cosine_epochs`` epochs of ``steps_per_epoch`` steps."""
    if not opt_cfg.cosine_epochs:
        return lambda step: opt_cfg.lr
    total_steps = steps_per_epoch * opt_cfg.cosine_epochs
    return lambda step: cosine_lr(opt_cfg.lr, min(step, total_steps), total_steps)


def _patience_loop(stop_cfg: StoppingConfig, run_epoch, score, snapshot,
                   restore) -> StopDecision:
    """The training protocol shared by every trainer: run an epoch, score it,
    snapshot on strict improvement, stop on exhausted patience and restore
    the best snapshot.

    ``snapshot()`` returns a copy of the trained state; ``restore(copy)``
    reinstates one. Mode "none" runs every epoch and keeps the final state.
    The caller fills in the decision's ``normalized_epochs``.
    """
    monitored = stop_cfg.mode != NONE
    best = snapshot() if monitored else None
    tracker = PatienceTracker(stop_cfg.patience)
    history = []
    stopped_early = False
    for _ in range(stop_cfg.max_epochs):
        run_epoch()
        history.append(score())
        if tracker.update(history[-1]) and monitored:
            best = snapshot()
        if monitored and tracker.should_stop:
            stopped_early = True
            break
    if monitored:
        restore(best)
    return StopDecision(len(history) - 1, tracker.best_epoch, tracker.best_score,
                        None, history, stopped_early)


def _joint_nll(plan: SplitPlan, y: np.ndarray, probs_at) -> float:
    """Monitored score for joint stopping: the mean ensemble NLL over the
    plan's jointly evaluable sets, with ``probs_at(m, idx)`` giving member
    m's class probabilities on rows ``idx``. Disjoint plans have no such
    set and score the average member NLL on each member's own validation set
    (BatchEnsemble only: joint MLP stopping refuses disjoint plans)."""
    sets = joint_eval_sets(plan)
    if not sets:
        return float(np.mean([metrics.nll(probs_at(m, ms.val_idx), y[ms.val_idx])
                              for m, ms in enumerate(plan.members)]))
    vals = []
    for member_ids, idx in sets:
        probs = [probs_at(m, idx) for m in member_ids]
        vals.append(metrics.nll(metrics.ensemble_mean(probs), y[idx]))
    return float(np.mean(vals))


def _train_group(group: list[_MemberState], score, opt_cfg: OptimizerConfig,
                 stop_cfg: StoppingConfig, n_total: int) -> StopDecision:
    """Run the patience loop once over a stopping group of member states:
    one cosine schedule over the group's longest epoch, one monitored
    ``score()``, one snapshot/restore of every member's parameters."""
    lr_at = _cosine_schedule(opt_cfg, max(s.steps_per_epoch(stop_cfg.batch_size)
                                          for s in group))

    def run_epoch():
        for s in group:
            s.run_epoch(stop_cfg.batch_size, lr_at)

    def restore(params):
        for s, p in zip(group, params):
            s.params = p

    decision = _patience_loop(stop_cfg, run_epoch, score,
                              lambda: [s.params.copy() for s in group], restore)
    mean_steps = float(np.mean([s.steps for s in group]))
    decision.normalized_epochs = normalized_epochs(mean_steps, stop_cfg.batch_size,
                                                   n_total)
    return decision


@dataclass
class EnsembleResult:
    members: list[TrainedMember]
    decisions: list[StopDecision]  # one per stopping group, in member order


def train_ensemble(x, y, plan: SplitPlan, dims, opt_cfg: OptimizerConfig,
                   stop_cfg: StoppingConfig, base_seed: int,
                   member_seeds: list[int] | None = None,
                   standardize: bool = True) -> EnsembleResult:
    """Train all plan members in stopping groups, in member order: each
    member alone on its own validation NLL in modes "individual" and "none",
    all members together on the ensemble NLL in mode "joint". Each member's
    ``stop`` is its group's decision."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    seeds = member_seeds if member_seeds is not None else [base_seed] * plan.n_members
    if len(seeds) != plan.n_members:
        raise ValueError("member_seeds must have one entry per member")
    member_ids = (range(plan.n_members) if member_seeds is None
                  else [0] * plan.n_members)  # explicit seeds already disambiguate
    joint = stop_cfg.mode == JOINT
    if joint and plan.strategy == DISJOINT:  # fail fast, before any training
        raise JointEvalUnavailableError("joint stopping on a disjoint plan: "
                                        "no common validation set")
    states = [_MemberState(x, y, ms.train_idx, ms.val_idx, dims, opt_cfg,
                           seeds[m], mid, standardize)
              for m, (ms, mid) in enumerate(zip(plan.members, member_ids))]
    if joint:
        groups = [(states, lambda: _joint_nll(
            plan, y, lambda m, idx: states[m].probs(x[idx])))]
    else:
        groups = [([s], s.val_nll) for s in states]
    members, decisions = [], []
    for group, score in groups:
        decision = _train_group(group, score, opt_cfg, stop_cfg, len(y))
        decisions.append(decision)
        members += [TrainedMember(s.params, s.scaler, decision, s.steps) for s in group]
    return EnsembleResult(members, decisions)
