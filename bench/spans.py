"""Outside-in tracing of the enstune layers.

A :class:`Tracer` wraps the public functions of every enstune module (plus
``Optimizer.step``) from outside the package: each wrapped call records a
span ``[name, start, end, parent]`` in memory, and a few wrappers also count
work (rows forwarded, FLOPs, optimizer steps per trajectory, bytes written).
``installed()`` rebinds every alias of a wrapped function, because the
modules import each other's functions by name, and restores the originals
on exit. Nothing under ``src/`` is edited.

Self time of a span is its duration minus the time its descendants spent in
other layers; a layer's self time adds up its outermost spans' self times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("config", "data", "splits", "netcore", "training", "batchensemble",
          "calibration", "metrics", "tuning", "experiments")

# Span names that differ from "<module>.<function>": the layer a function's
# work belongs to, or one name for several entry points of the same step.
RENAMES = {
    "experiments.build_dataset": "data.build_dataset",
    "experiments.member_avg_record": "metrics.member_avg_record",
    "splits.make_shared": "splits.make_plan",
    "splits.make_disjoint": "splits.make_plan",
    "splits.make_overlapping": "splits.make_plan",
    "netcore.mlp_forward": "netcore.forward",
}
METHODS = {("netcore", "Optimizer", "step"): "netcore.opt_step"}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def mlp_flops(dims, n: int) -> int:
    """FLOPs of one ``loss_and_grad`` call: the forward matmul of every
    layer, its weight-gradient matmul, and the delta back-propagation
    matmul of every layer but the first (elementwise work excluded)."""
    return sum(2 * n * d_in * d_out * (3 if i > 0 else 2)
               for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])))


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.trajectories: dict = {}  # trajectory key -> most steps trained
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    # -- counters, run after the span closes -------------------------------

    def _count_loss_and_grad(self, args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        x = _arg(args, kwargs, 1, "x")
        self.counts["netcore.loss_and_grad.flop"] += mlp_flops(params.dims, len(x))

    def _count_forward(self, args, kwargs, result):
        self.counts["netcore.forward.rows"] += len(_arg(args, kwargs, 1, "x"))

    def _count_fit(self, args, kwargs, result):
        self.counts["calibration.objective_evals"] += result.iterations

    def _count_write(self, args, kwargs, result):
        self.counts["experiments.write_csv.bytes"] += os.path.getsize(
            _arg(args, kwargs, 0, "path"))

    def _count_steps(self, signature):
        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            seeds = a["member_seeds"] or [a["base_seed"]] * a["plan"].n_members
            ids = (range(a["plan"].n_members) if a["member_seeds"] is None
                   else [0] * a["plan"].n_members)
            opt = tuple(dataclasses.astuple(a["opt_cfg"]))
            for ms, seed, mid, member in zip(a["plan"].members, seeds, ids,
                                             result.members):
                key = (seed, mid, hashlib.sha1(ms.train_idx.tobytes()).hexdigest(),
                       tuple(a["dims"]), opt, a["stop_cfg"].batch_size,
                       a["standardize"])
                self.counts["training.steps_executed"] += member.steps
                self.trajectories[key] = max(self.trajectories.get(key, 0), member.steps)
        return count

    def _counter(self, name: str, fn):
        return {
            "netcore.loss_and_grad": self._count_loss_and_grad,
            "netcore.forward": self._count_forward,
            "calibration.fit_temperature": self._count_fit,
            "experiments.write_csv": self._count_write,
        }.get(name) or (self._count_steps(inspect.signature(fn))
                        if name == "training.train_ensemble" else None)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, package_modules: dict, only=None):
        """Wrap the layers' public functions in every module that holds them.

        ``package_modules`` maps short module names (``"netcore"``) to every
        imported module of the package; only those in :data:`LAYERS` have
        their own functions wrapped, but aliases are rebound everywhere.
        ``only``, a set of span names, limits the wrapping to those functions
        and turns the counters off.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = package_modules[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                if only is None:
                    wrappers[obj] = self.wrap(obj, name, self._counter(name, obj))
                elif name in only:
                    wrappers[obj] = self.wrap(obj, name)
        patched = []
        try:
            for mod in package_modules.values():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
                        patched.append((mod, attr, obj))
            for (layer, cls_name, meth), name in METHODS.items():
                if only is not None and name not in only:
                    continue
                cls = getattr(package_modules[layer], cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, name))
                patched.append((cls, meth, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def steps_distinct(self) -> int:
        return sum(self.trajectories.values())


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> tuple[dict, dict]:
    """Per span name ``{calls, total_s, self_s}`` and per layer ``self_s``.

    The layer of a span is its name up to the first dot. A span's self time
    is its duration minus the time its descendants spent in other layers:
    same-layer helpers count toward their caller, as well as toward their
    own name. A layer's self time adds up the self time of its outermost
    spans, so no interval is counted twice.
    """
    foreign_s = [0.0] * len(spans)  # time under each span spent in other layers
    self_s = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # children follow their parents
        name, start, end, parent = spans[i]
        self_s[i] = end - start - foreign_s[i]
        if parent >= 0:
            same = _layer(spans[parent][0]) == _layer(name)
            foreign_s[parent] += foreign_s[i] if same else end - start
    by_name: dict = {}
    by_layer: dict = {}
    for (name, start, end, parent), own in zip(spans, self_s):
        stats = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["total_s"] += end - start
        stats["self_s"] += own
        if parent < 0 or _layer(spans[parent][0]) != _layer(name):
            by_layer[_layer(name)] = by_layer.get(_layer(name), 0.0) + own
    return by_name, by_layer


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced run, by benchmark metric name."""
    by_name, by_layer = summarize(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def fn(name):
        return by_name.get(name, empty)

    def us_per_call(name):
        s = fn(name)
        return s["total_s"] / s["calls"] * 1e6 if s["calls"] else 0.0

    out = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    for name in ("netcore.loss_and_grad", "netcore.opt_step",
                 "batchensemble.be_loss_and_grads"):
        out[f"{name}.calls"] = fn(name)["calls"]
        out[f"{name}.us_per_call"] = us_per_call(name)
        out[f"{name}.self_s"] = fn(name)["self_s"]
    for name in ("netcore.forward", "batchensemble.be_forward",
                 "calibration.fit_temperature", "metrics.compute_record",
                 "splits.make_plan", "experiments.write_csv",
                 "training.train_ensemble"):
        out[f"{name}.calls"] = fn(name)["calls"]
        out[f"{name}.self_s"] = fn(name)["self_s"]
    for name in ("metrics.member_avg_record", "tuning.run_sweep",
                 "experiments.aggregate_rows"):
        out[f"{name}.self_s"] = fn(name)["self_s"]
    out["netcore.loss_and_grad.mflop_computed"] = (
        tracer.counts["netcore.loss_and_grad.flop"] / 1e6)
    out["netcore.forward.rows"] = tracer.counts["netcore.forward.rows"]
    executed = tracer.counts["training.steps_executed"]
    out["training.steps_executed"] = executed
    out["training.steps_distinct"] = tracer.steps_distinct()
    out["training.useful_step_frac"] = (tracer.steps_distinct() / executed
                                        if executed else 1.0)
    evals = tracer.counts["calibration.objective_evals"]
    out["calibration.objective_evals"] = evals
    out["calibration.us_per_eval"] = (fn("calibration.fit_temperature")["total_s"]
                                      / evals * 1e6 if evals else 0.0)
    out["tuning.select_s"] = (fn("tuning.select_h")["total_s"]
                              + fn("tuning.optimality_gap")["total_s"])
    out["experiments.write_csv.bytes"] = tracer.counts["experiments.write_csv.bytes"]
    out["trace.spans"] = len(tracer.spans)
    return out
