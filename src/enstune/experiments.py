"""Seeded experiment orchestration: dataset assembly, one driver over a table
of (seed, holdout plan) jobs and per-kind cell functions, aggregation with
SEM, and reproducible run manifests.

Every experiment writes three CSVs into its output directory: ``cells.csv``
(one row per evaluated cell and seed), ``aggregate.csv`` (seed means with
SEM) and ``plotdata.csv`` (long format for external plotting), plus
``manifest.json`` carrying the resolved config, plan references, fit results
and stop decisions. Re-running from a manifest reproduces the metric CSVs
byte for byte; wall clock lives only in the manifest.
"""

from __future__ import annotations

import csv
import json
import os
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from . import calibration, metrics
from .batchensemble import GAUSSIAN, RANDOM_SIGN, be_train
from .config import ConfigError, ExperimentConfig, config_from_dict, config_to_dict
from .data import make_task, train_test_split
from .netcore import NonFiniteLossError, softmax
from .splits import (
    DISJOINT,
    OVERLAPPING,
    SHARED,
    SplitPlan,
    joint_eval_sets,
    make_disjoint,
    make_overlapping,
    make_shared,
)
from .training import (
    INDIVIDUAL,
    JOINT,
    NONE,
    OptimizerConfig,
    StoppingConfig,
    member_logits,
    member_probs,
    normalized_epochs,
    train_ensemble,
    train_grid,
)
from .tuning import HyperGrid, SweepCell, SweepResult, optimality_gap, select_h

WORKERS_ENV = "ENSTUNE_WORKERS"

ROW_COLUMNS = ["experiment", "variant", "wd", "split", "scope"] + metrics.CSV_COLUMNS
METRIC_NAMES = ["error_pct", "nll", "ece", "diversity", "entropy", "normalized_epochs"]
ENSEMBLE_SCOPE = "ensemble"
MEMBER_AVG_SCOPE = "member_avg"


def build_dataset(cfg: ExperimentConfig):
    """Generate or load the task, then carve off the fixed stratified test set."""
    return train_test_split(make_task(cfg.task), cfg.task.test_fraction,
                            seed=cfg.task.data_seed)


def make_plan(strategy: str, n_total: int, val_pct: float, n_members: int,
              seed: int, labels) -> SplitPlan:
    if strategy == SHARED:
        plan = make_shared(n_total, val_pct, n_members, seed, labels)
    elif strategy == DISJOINT:
        plan = make_disjoint(n_total, val_pct, n_members, seed, labels)
    elif strategy == OVERLAPPING:
        plan = make_overlapping(n_total, n_members, seed, labels,
                                val_fraction=val_pct)
    else:
        raise ConfigError(f"unknown holdout strategy {strategy!r}")
    plan.validate()
    return plan


def plan_reference(plan: SplitPlan, val_pct: float) -> dict:
    return {"strategy": plan.strategy, "n_total": plan.n_total,
            "n_members": plan.n_members, "val_pct": val_pct,
            "rng_seed": plan.rng_seed}


def member_avg_record(prob_label_pairs, ece_bins: int = 15, **tags) -> metrics.MetricsRecord:
    """Average of per-member metrics; diversity is 0 for single members."""
    errs, nlls, eces, ents = [], [], [], []
    for probs, y in prob_label_pairs:
        errs.append(metrics.classification_error(probs, y))
        nlls.append(metrics.nll(probs, y))
        eces.append(metrics.ece(probs, y, n_bins=ece_bins))
        ents.append(metrics.entropy(probs).mean)
    return metrics.MetricsRecord(
        error_pct=float(np.mean(errs)), nll=float(np.mean(nlls)),
        ece=float(np.mean(eces)), diversity=0.0, entropy=float(np.mean(ents)),
        **tags)


def make_row(experiment: str, variant: str, wd, split: str, scope: str,
             record: metrics.MetricsRecord) -> list:
    wd_cell = "" if wd is None else wd
    return [experiment, variant, wd_cell, split, scope] + record.to_row()


class ExperimentError(RuntimeError):
    """One or more seeds failed; partial results were still written."""


def _dims(cfg: ExperimentConfig, dprime) -> list[int]:
    return [dprime.x.shape[1]] + list(cfg.model.hidden) + [dprime.n_classes]


def _optimizer_config(cfg: ExperimentConfig, cosine: bool) -> OptimizerConfig:
    opt = cfg.optimizer
    return OptimizerConfig(kind=opt.kind, lr=opt.lr, weight_decay=opt.weight_decay,
                           momentum=opt.momentum, decay_bias=opt.decay_bias,
                           cosine_epochs=cfg.stopping.max_epochs if cosine else None)


def _stopping(cfg: ExperimentConfig, mode: str) -> StoppingConfig:
    return StoppingConfig(mode=mode, patience=cfg.stopping.patience,
                          max_epochs=cfg.stopping.max_epochs,
                          batch_size=cfg.stopping.batch_size)


def _test_rows(experiment: str, variant: str, member_probs, labels, ece_bins: int,
               **tags) -> list[list]:
    """Ensemble and member-average rows of one cell on the test set."""
    rec = metrics.compute_record(member_probs, labels, ece_bins=ece_bins, **tags)
    avg = member_avg_record([(p, labels) for p in member_probs], ece_bins=ece_bins,
                            **tags)
    return [make_row(experiment, variant, None, "test", ENSEMBLE_SCOPE, rec),
            make_row(experiment, variant, None, "test", MEMBER_AVG_SCOPE, avg)]


def _joint_logits(result, plan: SplitPlan, ds) -> list:
    """Member logits and labels on each of the plan's jointly evaluable sets."""
    return [([member_logits(result.members[m], ds.x[idx]) for m in ids], ds.y[idx])
            for ids, idx in joint_eval_sets(plan)]


def _fit_to_dict(fit: calibration.TempFitResult) -> dict:
    return {"mode": fit.mode, "T": fit.temperature, "val_nll": fit.val_nll,
            "iterations": fit.iterations, "converged": fit.converged,
            "at_boundary": fit.at_boundary}


# ---------------------------------------------------------------------------
# the job table: one job per holdout plan of a seed, and per-plan cell
# functions (cfg, dprime, test, seed, plan, job) -> (rows, runs, ...)

class Job(NamedTuple):
    """One holdout plan of a seed; ``scheme`` is set for batch_ensemble only."""
    strategy: str
    val_pct: float
    scheme: str | None = None


def _jobs(cfg: ExperimentConfig) -> list[Job]:
    """A seed's jobs in output order: every strategy x val_pct, with the
    scheme as the outermost key for batch_ensemble."""
    ex = cfg.experiment
    schemes = ex.schemes if ex.kind == "batch_ensemble" else [None]
    return [Job(strategy, val_pct, scheme) for scheme in schemes
            for strategy in ex.strategies for val_pct in cfg.val_pcts()]


def _wd_sweep_cells(cfg: ExperimentConfig, dprime, test, seed: int, plan, job: Job):
    """Train the seed's weight-decay grid as one stacked trajectory and score
    each decay's cell on member 0's validation rows, size-k ensembles being
    the first k members. Returns the rows, run entries and sweep cells for
    the selection in :func:`_wd_sweep_summary`; a diverged cell is flagged
    and writes no row."""
    stop = _stopping(cfg, NONE)
    trained = train_grid(dprime.x, dprime.y, plan, _dims(cfg, dprime),
                         _optimizer_config(cfg, cosine=True),
                         cfg.experiment.weight_decays, stop, base_seed=seed)
    val_idx = plan.members[0].val_idx
    ece_bins = cfg.experiment.ece_bins
    rows, cells = [], []
    for wd, members in zip(cfg.experiment.weight_decays, trained):
        cell = SweepCell(wd=wd, seed=seed)
        cells.append(cell)
        if isinstance(members, NonFiniteLossError):
            warnings.warn(f"sweep cell wd={wd} seed={seed} diverged: {members}")
            cell.diverged = True
            continue
        val_probs = [member_probs(m, dprime.x[val_idx]) for m in members]
        test_probs = [member_probs(m, test.x) for m in members]
        tags = dict(strategy=job.strategy, val_pct=job.val_pct, seed=seed,
                    normalized_epochs=float(np.mean([
                        normalized_epochs(m.steps, stop.batch_size, len(dprime.y))
                        for m in members])))
        for k in cfg.ensemble_sizes():
            cell.val_records[k] = metrics.compute_record(
                val_probs[:k], dprime.y[val_idx], ece_bins=ece_bins, ensemble_size=k,
                **tags)
            cell.test_records[k] = metrics.compute_record(
                test_probs[:k], test.y, ece_bins=ece_bins, ensemble_size=k, **tags)
            rows.append(make_row("wd_sweep", "", wd, "val", ENSEMBLE_SCOPE,
                                 cell.val_records[k]))
            rows.append(make_row("wd_sweep", "", wd, "test", ENSEMBLE_SCOPE,
                                 cell.test_records[k]))
        cell.member_val_nlls = [metrics.nll(p, dprime.y[val_idx]) for p in val_probs]
    runs = [{"wd": c.wd, "seed": c.seed, "diverged": c.diverged,
             "member_val_nlls": c.member_val_nlls} for c in cells]
    return rows, runs, cells


def _wd_sweep_summary(cfg: ExperimentConfig, seed_results) -> dict:
    """Selection under both objectives and the optimality gap, over the
    seeds that completed."""
    cells = [c for _, _, seed_cells in seed_results for c in seed_cells]
    completed = sorted({c.seed for c in cells})
    grid = HyperGrid(cfg.experiment.weight_decays, cfg.ensemble_sizes(), completed)
    sweep = SweepResult(grid, cells)
    h_ind = select_h(sweep, "individual")
    h_ens = select_h(sweep, "ensemble")
    gap, gap_sem = optimality_gap(sweep, h_ind, h_ens)
    return {"h_ind": h_ind, "h_ens": h_ens, "gap": gap, "gap_sem": gap_sem}


def _temp_scale_cells(cfg: ExperimentConfig, dprime, test, seed: int, plan, job: Job):
    opt = _optimizer_config(cfg, cosine=cfg.optimizer.kind == "sgd_momentum")
    ece_bins = cfg.experiment.ece_bins
    result = train_ensemble(dprime.x, dprime.y, plan, _dims(cfg, dprime), opt,
                            _stopping(cfg, NONE), seed)
    test_logits = [member_logits(m, test.x) for m in result.members]
    test_probs = [softmax(z) for z in test_logits]
    tags = dict(strategy=job.strategy, val_pct=job.val_pct, seed=seed,
                ensemble_size=cfg.ensemble.members)
    entry = {"strategy": job.strategy, "val_pct": job.val_pct, "seed": seed,
             "plan": plan_reference(plan, job.val_pct), "fits": []}
    if {"joint", "pool"} & set(cfg.experiment.modes):
        joint_sets = _joint_logits(result, plan, dprime)
    rows = []
    for mode in cfg.experiment.modes:
        if mode == "none":
            rows += _test_rows("temp_scale", mode, test_probs, test.y, ece_bins, **tags)
            continue
        if mode == "individual":
            member_vals = [(member_logits(mem, dprime.x[ms.val_idx]),
                            dprime.y[ms.val_idx])
                           for mem, ms in zip(result.members, plan.members)]
            fit = calibration.calibrate_individual(member_vals)
            tempered = [calibration.apply_temperature(z, t)
                        for z, t in zip(test_logits, fit.temperature)]
            rows += _test_rows("temp_scale", mode, tempered, test.y, ece_bins, **tags)
        elif mode == "joint":
            fit = calibration.calibrate_joint(joint_sets)
            tempered = [calibration.apply_temperature(z, fit.temperature)
                        for z in test_logits]
            rows += _test_rows("temp_scale", mode, tempered, test.y, ece_bins, **tags)
        else:  # pool
            fit = calibration.calibrate_pool(
                [([softmax(z) for z in zs], y) for zs, y in joint_sets])
            mean_test = metrics.ensemble_mean(test_probs)
            pooled = calibration.pool_apply_temperature(mean_test, fit.temperature)
            rec = metrics.MetricsRecord(
                error_pct=metrics.classification_error(pooled, test.y),
                nll=metrics.nll(pooled, test.y),
                ece=metrics.ece(pooled, test.y, n_bins=ece_bins),
                diversity=metrics.diversity(test_probs).mean,
                entropy=metrics.entropy(pooled).mean, **tags)
            rows.append(make_row("temp_scale", mode, None, "test", ENSEMBLE_SCOPE, rec))
        entry["fits"].append(_fit_to_dict(fit))
    return rows, [entry]


def _early_stop_cells(cfg: ExperimentConfig, dprime, test, seed: int, plan, job: Job):
    """Every stopping mode, all observing one training of the job's plan."""
    # disjoint x joint has no jointly evaluable set; not a valid cell
    modes = [mode for mode in cfg.experiment.modes
             if not (job.strategy == DISJOINT and mode == JOINT)]
    if not modes:
        return [], []
    trained = train_ensemble(dprime.x, dprime.y, plan, _dims(cfg, dprime),
                             _optimizer_config(cfg, cosine=False),
                             _stopping(cfg, modes[0]), seed, modes=modes)
    m_total = cfg.ensemble.members
    ece_bins = cfg.experiment.ece_bins
    rows, runs = [], []
    for mode in modes:
        result = trained.by_mode[mode]
        norm = float(np.mean([m.stop.normalized_epochs for m in result.members]))
        test_probs = [member_probs(m, test.x) for m in result.members]
        rows += _test_rows("early_stop", mode, test_probs, test.y, ece_bins,
                           normalized_epochs=norm, strategy=job.strategy,
                           val_pct=job.val_pct, seed=seed, ensemble_size=m_total)
        runs.append({
            "strategy": job.strategy, "mode": mode, "val_pct": job.val_pct,
            "seed": seed, "plan": plan_reference(plan, job.val_pct),
            "stops": [d.to_dict() for d in result.decisions]})
    return rows, runs


def parse_scheme(name: str):
    """'random_sign' or 'gaussian_<sigma>' into (kind, sigma)."""
    if name == RANDOM_SIGN:
        return RANDOM_SIGN, 0.0
    if name.startswith(GAUSSIAN):
        suffix = name[len(GAUSSIAN):].lstrip("_")
        try:
            return GAUSSIAN, float(suffix)
        except ValueError:
            pass
    raise ConfigError(f"unknown fast-weight scheme {name!r}; expected "
                      "'random_sign' or 'gaussian_<sigma>'")


def _batch_ensemble_cells(cfg: ExperimentConfig, dprime, test, seed: int, plan,
                          job: Job):
    kind, sigma = parse_scheme(job.scheme)
    ece_bins = cfg.experiment.ece_bins
    result = be_train(dprime.x, dprime.y, plan, _dims(cfg, dprime), kind,
                      _optimizer_config(cfg, cosine=False), _stopping(cfg, JOINT),
                      seed, sigma=sigma)
    tags = dict(strategy=job.strategy, val_pct=job.val_pct, seed=seed,
                ensemble_size=cfg.ensemble.members,
                normalized_epochs=result.stop.normalized_epochs)
    rows = _test_rows("batch_ensemble", job.scheme, result.all_probs(test.x), test.y,
                      ece_bins, **tags)
    for split_name, index_of in (("train", lambda ms: ms.train_idx),
                                 ("val", lambda ms: ms.val_idx)):
        pairs = [(result.member_probs(dprime.x[index_of(ms)], m),
                  dprime.y[index_of(ms)])
                 for m, ms in enumerate(plan.members)]
        rows.append(make_row("batch_ensemble", job.scheme, None, split_name,
                             MEMBER_AVG_SCOPE,
                             member_avg_record(pairs, ece_bins=ece_bins, **tags)))
    entry = {"scheme": job.scheme, "strategy": job.strategy, "val_pct": job.val_pct,
             "seed": seed, "plan": plan_reference(plan, job.val_pct),
             "stops": [result.stop.to_dict()]}
    return rows, [entry]


def _stop_then_scale_cells(cfg: ExperimentConfig, dprime, test, seed: int, plan,
                           job: Job):
    """Joint stopping, then joint temperature scaling on the same holdout."""
    result = train_ensemble(dprime.x, dprime.y, plan, _dims(cfg, dprime),
                            _optimizer_config(cfg, cosine=False),
                            _stopping(cfg, JOINT), seed)
    (decision,) = result.decisions
    ece_bins = cfg.experiment.ece_bins
    tags = dict(strategy=job.strategy, val_pct=job.val_pct, seed=seed,
                ensemble_size=cfg.ensemble.members,
                normalized_epochs=decision.normalized_epochs)
    test_logits = [member_logits(m, test.x) for m in result.members]
    rows = [make_row("stop_then_scale", "none", None, "test", ENSEMBLE_SCOPE,
                     metrics.compute_record([softmax(z) for z in test_logits],
                                            test.y, ece_bins=ece_bins, **tags))]
    fit = calibration.calibrate_joint(_joint_logits(result, plan, dprime))
    tempered = [calibration.apply_temperature(z, fit.temperature)
                for z in test_logits]
    rows.append(make_row("stop_then_scale", "joint_scale", None, "test",
                         ENSEMBLE_SCOPE,
                         metrics.compute_record(tempered, test.y, ece_bins=ece_bins,
                                                **tags)))
    entry = {"strategy": job.strategy, "val_pct": job.val_pct, "seed": seed,
             "plan": plan_reference(plan, job.val_pct),
             "stops": [decision.to_dict()], "fits": [_fit_to_dict(fit)]}
    return rows, [entry]


# kind -> (per-plan cell function, finish step over the completed seeds'
# results, or None). A cell function returns (rows, runs, ...), joined per
# seed in job order; the finish step gets those tuples, in seed order.
_KINDS = {
    "wd_sweep": (_wd_sweep_cells, _wd_sweep_summary),
    "temp_scale": (_temp_scale_cells, None),
    "early_stop": (_early_stop_cells, None),
    "batch_ensemble": (_batch_ensemble_cells, None),
    "stop_then_scale": (_stop_then_scale_cells, None),
}

# the experiment.modes entries of each kind that reads modes
_MODES = {"early_stop": (INDIVIDUAL, JOINT, NONE),
          "temp_scale": ("none", "individual", "joint", "pool")}


def _check_config(cfg: ExperimentConfig):
    """Build the dataset, then return it after rejecting, before any
    training, what would fail every seed or write no cell: a task the
    generator, the CSV reader or the test split refuses (``cfg.validate``
    has checked the ranges of the stopping, optimizer and task keys), an
    empty strategy, mode or scheme list the kind reads, an early_stop whose
    only cells are disjoint x joint, unknown modes and schemes, joint
    evaluation on disjoint holdouts, a wd_sweep with more than its one shared
    holdout, holdout plans that cannot be built, invalid sweep grids and
    sweep ensemble sizes beyond the members."""
    ex = cfg.experiment
    for key in ("strategies", "modes", "schemes"):  # the lists a kind loops over
        if f"experiment.{key}" in cfg.reads() and not getattr(ex, key):
            raise ConfigError(f"experiment.{key} is empty: {ex.kind} would write no cell")
    if ex.kind == "early_stop" and all(s == DISJOINT and m == JOINT
                                       for s in ex.strategies for m in ex.modes):
        raise ConfigError("experiment.strategies and experiment.modes pair only "
                          "disjoint with joint, a cell early_stop skips: it would "
                          "write no cell")
    jobs = _jobs(cfg)
    try:
        dprime, test = build_dataset(cfg)
        for mode in ex.modes if ex.kind in _MODES else ():
            if mode not in _MODES[ex.kind]:
                raise ConfigError(f"unknown {ex.kind} mode {mode!r}; expected one "
                                  f"of {_MODES[ex.kind]}")
        joint_like = {"joint", "pool"} & set(ex.modes)
        if ex.kind == "temp_scale" and joint_like and DISJOINT in ex.strategies:
            raise ConfigError(
                f"modes {sorted(joint_like)} need a jointly evaluable holdout; "
                "the disjoint strategy precludes joint evaluation")
        if ex.kind == "stop_then_scale" and DISJOINT in ex.strategies:
            raise ConfigError("stop_then_scale stops and scales on a jointly "
                              "evaluable holdout; the disjoint strategy precludes "
                              "joint evaluation")
        if ex.kind == "batch_ensemble":
            for name in ex.schemes:
                parse_scheme(name)
        if ex.kind == "wd_sweep":
            if jobs != [Job(SHARED, cfg.val_pcts()[0])]:
                raise ConfigError(
                    "wd_sweep scores every member on member 0's validation rows, so "
                    "it runs one shared holdout at one val_pct; got "
                    f"experiment.strategies={ex.strategies} and val_pcts "
                    f"{cfg.val_pcts()}")
            HyperGrid(ex.weight_decays, cfg.ensemble_sizes(), ex.seeds)
            if max(cfg.ensemble_sizes()) > cfg.ensemble.members:
                raise ConfigError("experiment.ensemble_sizes exceed ensemble.members")
        plans = dict.fromkeys((job.strategy, job.val_pct) for job in jobs)
        for strategy, val_pct in plans:  # each distinct plan once, in job order
            make_plan(strategy, len(dprime), val_pct, cfg.ensemble.members,
                      ex.seeds[0], dprime.y)
    except (OSError, ValueError) as err:  # unreadable CSV, SplitError, DataFormatError
        raise ConfigError(str(err)) from err
    return dprime, test


# ---------------------------------------------------------------------------
# worker-pool plumbing: one job per (seed, plan), merged per seed in job order

def _worker_count() -> int:
    """The ``ENSTUNE_WORKERS`` pool size: an integer >= 1, 1 when unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return workers


def _describe(err: Exception) -> dict:
    """A failure's ``error`` line and full ``traceback``; a worker's remote
    traceback is the exception's ``__cause__`` and is formatted with it."""
    return {"error": f"{type(err).__name__}: {err}",
            "traceback": "".join(traceback.format_exception(err))}


def _map_jobs(fn, jobs, workers: int):
    """Run ``fn(*job)`` per job, capturing failures: a list of ("ok", payload)
    or ("error", :func:`_describe` dict)."""
    outcomes = []
    if workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            try:
                outcomes.append(("ok", fn(*job)))
            except Exception as err:  # noqa: BLE001 - seed isolation is the point
                outcomes.append(("error", _describe(err)))
        return outcomes
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        for fut in futures:
            try:
                outcomes.append(("ok", fut.result()))
            except Exception as err:  # noqa: BLE001
                outcomes.append(("error", _describe(err)))
    return outcomes


def _run_job(cfg: ExperimentConfig, dprime, test, seed: int, job: Job):
    """Build the job's holdout plan once and run the kind's cell function on it."""
    plan = make_plan(job.strategy, len(dprime), job.val_pct, cfg.ensemble.members,
                     seed, dprime.y)
    return _KINDS[cfg.experiment.kind][0](cfg, dprime, test, seed, plan, job)


def _run_seeds(cfg: ExperimentConfig, dprime, test, workers: int):
    """Every (seed, job) pair, then the kind's finish step over the completed
    seeds. A seed with a failing job, or a failing finish step, becomes an
    entry of ``failures`` (seed None for the finish step), with the error line
    and its full traceback, instead of stopping the run; a failed seed
    contributes no rows or runs."""
    finish = _KINDS[cfg.experiment.kind][1]
    seeds, jobs = cfg.experiment.seeds, _jobs(cfg)
    outcomes = _map_jobs(_run_job, [(cfg, dprime, test, s, job)
                                    for s in seeds for job in jobs], workers)
    results, failures = [], []
    for i, seed in enumerate(seeds):
        seed_outcomes = outcomes[i * len(jobs):(i + 1) * len(jobs)]
        errors = [payload for status, payload in seed_outcomes if status == "error"]
        if errors:
            failures.append({"seed": seed, **errors[0]})
            continue
        payloads = [payload for _, payload in seed_outcomes]
        results.append(tuple([x for part in parts for x in part]
                             for parts in zip(*payloads)))
    rows = [r for result in results for r in result[0]]
    runs = [e for result in results for e in result[1]]
    summary = None
    if finish is not None and results:
        try:
            summary = finish(cfg, results)
        except Exception as err:  # noqa: BLE001 - flush what the seeds produced
            failures.append({"seed": None, **_describe(err)})
    return rows, runs, summary, failures


# ---------------------------------------------------------------------------
# aggregation and reporting

MONITOR_HEADER = ["experiment", "variant", "strategy", "val_pct", "seed",
                  "epoch", "member_id", "split", "nll"]


def monitor_rows_from_runs(experiment: str, runs) -> list[list]:
    """Per-epoch validation-score log reconstructed from the run entries."""
    rows = []
    for entry in runs:
        stops = entry.get("stops")
        if not stops:
            continue
        variant = entry.get("mode", entry.get("scheme", ""))
        prefix = [experiment, variant, entry.get("strategy", ""),
                  entry.get("val_pct", ""), entry.get("seed", "")]
        if variant in (INDIVIDUAL, NONE):  # one decision per member
            sources = list(enumerate(stops))
        else:
            sources = [("ensemble", stops[0])]
        for member_id, stop in sources:
            for epoch, score in enumerate(stop["history"]):
                rows.append(prefix + [epoch, member_id, "val", score])
    return rows


def _row_key(row) -> tuple:
    # everything except seed and the metric values identifies an aggregate cell
    head = row[:len(ROW_COLUMNS) - len(METRIC_NAMES)]
    seed_free = head[:ROW_COLUMNS.index("seed")] + head[ROW_COLUMNS.index("seed") + 1:]
    return tuple(seed_free)


def aggregate_rows(rows):
    """Seed-mean and SEM per aggregate cell, plus long-format plot data."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(_row_key(row), []).append(row)
    agg_header = ([c for c in ROW_COLUMNS[:len(ROW_COLUMNS) - len(METRIC_NAMES)]
                   if c != "seed"] + ["n"]
                  + [f"{m}_{s}" for m in METRIC_NAMES for s in ("mean", "sem")])
    sort_cols = ["experiment", "strategy", "val_pct", "variant", "wd", "split",
                 "scope", "ensemble_size"]
    idx = {c: agg_header.index(c) for c in sort_cols}
    agg_rows, plot_rows = [], []
    metric_offset = len(ROW_COLUMNS) - len(METRIC_NAMES)
    for key, members in groups.items():
        n = len(members)
        out = list(key) + [n]
        stats = {}
        for mi, name in enumerate(METRIC_NAMES):
            vals = [r[metric_offset + mi] for r in members
                    if r[metric_offset + mi] != "" and r[metric_offset + mi] is not None]
            if vals:
                mean, sem = metrics.mean_sem([float(v) for v in vals])
            else:
                mean, sem = "", ""
            out += [mean, sem]
            stats[name] = (mean, sem)
        agg_rows.append(out)
        for name in METRIC_NAMES:
            mean, sem = stats[name]
            if mean != "":
                plot_rows.append(list(key) + [name, mean, sem, n])
    sort_key = lambda r: tuple(str(r[idx[c]]) for c in sort_cols)
    agg_rows.sort(key=sort_key)
    plot_header = ([c for c in ROW_COLUMNS[:metric_offset] if c != "seed"]
                   + ["metric", "mean", "sem", "n"])
    pidx = {c: plot_header.index(c) for c in sort_cols if c in plot_header}
    plot_rows.sort(key=lambda r: tuple(str(r[pidx[c]]) for c in sort_cols) +
                                 (str(r[plot_header.index("metric")]),))
    return agg_header, agg_rows, plot_header, plot_rows


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_json(path: str, doc: dict) -> None:
    """Write through a temporary file so a crash never leaves half a file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1)
    os.replace(tmp, path)


def write_csv(path: str, header, rows) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_format_cell(v) for v in row])
    os.replace(tmp, path)


def read_rows_csv(path: str):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ROW_COLUMNS:
            raise ConfigError(f"{path}: unexpected cells.csv header")
        return [row for row in reader]


def write_report(out_dir: str, rows) -> dict:
    agg_header, agg_rows, plot_header, plot_rows = aggregate_rows(rows)
    paths = {"aggregate": os.path.join(out_dir, "aggregate.csv"),
             "plotdata": os.path.join(out_dir, "plotdata.csv")}
    write_csv(paths["aggregate"], agg_header, agg_rows)
    write_csv(paths["plotdata"], plot_header, plot_rows)
    return paths


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Check the config, run every seed, write outputs and return the manifest."""
    cfg.validate()
    kind = cfg.experiment.kind
    out_dir = out_dir or cfg.experiment.out_dir
    started = time.time()
    workers = _worker_count()
    dprime, test = _check_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    rows, runs, summary, failures = _run_seeds(cfg, dprime, test, workers)
    cells_path = os.path.join(out_dir, "cells.csv")
    write_csv(cells_path, ROW_COLUMNS, rows)
    report_paths = write_report(out_dir, rows)
    mon_rows = monitor_rows_from_runs(kind, runs)
    if mon_rows:
        report_paths["monitor"] = os.path.join(out_dir, "monitor.csv")
        write_csv(report_paths["monitor"], MONITOR_HEADER, mon_rows)
    manifest = {
        "experiment": kind,
        "config": config_to_dict(cfg),
        "seeds": list(cfg.experiment.seeds),
        "ece_bins": cfg.experiment.ece_bins,
        "n_dprime": len(dprime),
        "n_test": len(test),
        "runs": runs,
        "failures": failures,
        "outputs": {"cells": cells_path, **report_paths},
        "wall_clock_s": time.time() - started,
    }
    if summary is not None:
        manifest["summary"] = summary
        summary_path = os.path.join(out_dir, "summary.json")
        _write_json(summary_path, summary)
        manifest["outputs"]["summary"] = summary_path
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    if failures:
        seed_failures = sum(f["seed"] is not None for f in failures)
        problem = f"{seed_failures} of {len(cfg.experiment.seeds)} seeds failed"
        if failures[-1]["seed"] is None:
            problem += f"; the {kind} summary failed ({failures[-1]['error']})"
        raise ExperimentError(f"{problem}; partial results flushed to {out_dir}")
    return manifest


def rerun_from_manifest(manifest_path: str, out_dir: str) -> dict:
    """Re-run an experiment from its manifest's resolved config.

    Manifests written before ``ensemble.strategy`` was retired still carry
    it; no run ever read it, so it is dropped with a warning."""
    with open(manifest_path) as f:
        manifest = json.load(f)
    ensemble = manifest["config"].get("ensemble", {})
    if "strategy" in ensemble:
        del ensemble["strategy"]
        warnings.warn(f"{manifest_path}: dropping ensemble.strategy, a retired key "
                      "that no run read")
    cfg = config_from_dict(manifest["config"])
    return run_experiment(cfg, out_dir=out_dir)
