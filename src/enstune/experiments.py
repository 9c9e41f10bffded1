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
from typing import Callable, NamedTuple

import numpy as np

from . import calibration, metrics
from .batchensemble import be_train, parse_scheme
from .config import ConfigError, ExperimentConfig, config_from_dict, config_to_dict
from .data import make_task, train_test_split
from .netcore import NonFiniteLossError, softmax
from .splits import (
    DISJOINT,
    OVERLAPPING,
    SHARED,
    SplitError,
    SplitPlan,
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
    normalized_epochs,
    train_ensemble,
    train_grid,
)
from .tuning import SweepCell, optimality_gap, select_h, usable_wds

WORKERS_ENV = "ENSTUNE_WORKERS"

ROW_COLUMNS = ["experiment", "variant", "wd", "split", "scope"] + metrics.CSV_COLUMNS
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
               member_avg: bool = True, **tags) -> list[list]:
    """The ensemble row of one cell on the test set, then, with ``member_avg``,
    its member-average row."""
    rec = metrics.compute_record(member_probs, labels, ece_bins=ece_bins, **tags)
    rows = [make_row(experiment, variant, None, "test", ENSEMBLE_SCOPE, rec)]
    if member_avg:
        avg = metrics.member_avg_record([(p, labels) for p in member_probs],
                                        ece_bins=ece_bins, **tags)
        rows.append(make_row(experiment, variant, None, "test", MEMBER_AVG_SCOPE, avg))
    return rows


# ---------------------------------------------------------------------------
# the job table: one job per holdout plan of a seed, and per-plan cell
# functions (cfg, dprime, test, seed, plan, job) -> (rows, runs, ...), each
# part a list of groups: one per scheme for batch_ensemble, else one

class Job(NamedTuple):
    """One holdout plan of a seed."""
    strategy: str
    val_pct: float


def _jobs(cfg: ExperimentConfig) -> list[Job]:
    """A seed's jobs in order: every strategy x val_pct."""
    return [Job(strategy, val_pct) for strategy in cfg.experiment.strategies
            for val_pct in cfg.val_pcts()]


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
        val_probs = [softmax(member_logits(m, dprime.x[val_idx])) for m in members]
        test_probs = [softmax(member_logits(m, test.x)) for m in members]
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
    return [rows], [runs], [cells]


def _wd_sweep_summary(cfg: ExperimentConfig, seed_results) -> dict:
    """Selection under both objectives and the optimality gap, over the
    seeds that completed, after a warning for each decay whose cells all
    diverged."""
    cells = [c for _, _, seed_cells in seed_results for c in seed_cells]
    for wd in sorted({c.wd for c in cells} - set(usable_wds(cells))):
        warnings.warn(f"weight decay {wd} excluded: all cells diverged")
    h_ind = select_h(cells, "individual")
    h_ens = select_h(cells, "ensemble")
    gap, gap_sem = optimality_gap(cells, h_ind, h_ens)
    return {"h_ind": h_ind, "h_ens": h_ens, "gap": gap, "gap_sem": gap_sem}


# The MLP kinds train each plan once and score it as variants (name, stopping
# mode, temperature mode) drawn from experiment.modes. Each distinct
# stopping mode among a job's variants writes one run entry of ``entry_keys``.
class _MlpKind(NamedTuple):
    modes: tuple              # the experiment.modes entries it accepts
    variants: Callable        # experiment.modes -> [(name, stopping, temperature)]
    entry_keys: tuple
    member_avg: bool          # a member_avg row beside each ensemble row (not pool's)
    epochs: Callable | None   # a stopping mode's result -> normalized_epochs; None:
                              # a fixed budget, cosine-annealed under sgd_momentum


# early_stop averages its members' normalized epochs, and stop_then_scale takes
# its one joint decision's: the mean of M equal floats can differ from them in
# the last bit (M=3), so each keeps its own.
POOL = "pool"
_MLP_KINDS = {
    "early_stop": _MlpKind(
        (INDIVIDUAL, JOINT, NONE), lambda modes: [(m, m, NONE) for m in modes],
        ("strategy", "mode", "val_pct", "seed", "plan", "stops"), True,
        lambda result: float(np.mean([m.stop.normalized_epochs for m in result.members]))),
    "temp_scale": _MlpKind(
        (NONE, INDIVIDUAL, JOINT, POOL), lambda modes: [(m, NONE, m) for m in modes],
        ("strategy", "val_pct", "seed", "plan", "fits"), True, None),
    "stop_then_scale": _MlpKind(
        (), lambda modes: [(NONE, JOINT, NONE), ("joint_scale", JOINT, JOINT)],
        ("strategy", "mode", "val_pct", "seed", "plan", "stops", "fits"), False,
        lambda result: result.decisions[0].normalized_epochs),
}


def _variants(cfg: ExperimentConfig, strategy: str) -> list[tuple]:
    """The kind's variants on one strategy's plans. A disjoint plan has no
    jointly evaluable set, so a jointly stopped variant writes no cell there;
    :func:`_check_config` refuses joint temperatures on it."""
    return [v for v in _MLP_KINDS[cfg.experiment.kind].variants(cfg.experiment.modes)
            if not (strategy == DISJOINT and v[1] == JOINT)]


def _mlp_cells(cfg: ExperimentConfig, dprime, test, seed: int, plan, job: Job):
    """Train the job's plan once, observed by the stopping modes of the kind's
    variants, then score each variant on the test set under its temperature."""
    kind, ece_bins = cfg.experiment.kind, cfg.experiment.ece_bins
    spec, variants = _MLP_KINDS[kind], _variants(cfg, job.strategy)
    stops = list(dict.fromkeys(stop for _, stop, _ in variants))
    if not stops:
        return [[]], [[]]
    cosine = spec.epochs is None and cfg.optimizer.kind == "sgd_momentum"
    trained = train_ensemble(dprime.x, dprime.y, plan, _dims(cfg, dprime),
                             _optimizer_config(cfg, cosine), _stopping(cfg, stops[0]),
                             seed, modes=stops)
    rows, runs = [], []
    for stop in stops:
        result = trained.by_mode[stop]
        temps = [(name, temp) for name, s, temp in variants if s == stop]
        tags = dict(strategy=job.strategy, val_pct=job.val_pct, seed=seed,
                    ensemble_size=cfg.ensemble.members)
        if spec.epochs:
            tags["normalized_epochs"] = spec.epochs(result)
        logits = [member_logits(m, test.x) for m in result.members]
        probs = [softmax(z) for z in logits]
        scored = {temp: INDIVIDUAL if temp == INDIVIDUAL else JOINT  # pool scores joint sets
                  for _, temp in temps if temp != NONE}
        sets = {mode: calibration.validation_sets(mode, plan, dprime.y, lambda ids, idx: [
                    member_logits(result.members[m], dprime.x[idx]) for m in ids])
                for mode in dict.fromkeys(scored.values())}
        fits = []
        for name, temp in temps:
            fit, tempered = ((None, probs) if temp == NONE
                             else calibration.calibrate(temp, sets[scored[temp]], logits))
            if temp == POOL:  # one pooled matrix; diversity of the untempered members
                rec = metrics.MetricsRecord(**metrics._scores(tempered, test.y, ece_bins),
                                            diversity=metrics.diversity(probs).mean, **tags)
                rows.append(make_row(kind, name, None, "test", ENSEMBLE_SCOPE, rec))
            else:
                rows += _test_rows(kind, name, tempered, test.y, ece_bins,
                                   spec.member_avg, **tags)
            if fit is not None:
                fits.append({"mode": fit.mode, "T": fit.temperature, "val_nll": fit.val_nll,
                             "iterations": fit.iterations, "converged": fit.converged,
                             "at_boundary": fit.at_boundary})
        entry = dict(strategy=job.strategy, mode=stop, val_pct=job.val_pct, seed=seed,
                     plan=plan_reference(plan, job.val_pct),
                     stops=[d.to_dict() for d in result.decisions], fits=fits)
        runs.append({key: entry[key] for key in spec.entry_keys})
    return [rows], [runs]


def _batch_ensemble_cells(cfg: ExperimentConfig, dprime, test, seed: int, plan,
                          job: Job):
    """Train the plan's schemes as one stacked trajectory, then score each
    scheme's cells: one group of rows and run entries per scheme."""
    schemes, ece_bins = cfg.experiment.schemes, cfg.experiment.ece_bins
    results = be_train(dprime.x, dprime.y, plan, _dims(cfg, dprime), schemes,
                       _optimizer_config(cfg, cosine=False), _stopping(cfg, JOINT), seed)
    rows, runs = [], []
    for scheme, result in zip(schemes, results):
        tags = dict(strategy=job.strategy, val_pct=job.val_pct, seed=seed,
                    ensemble_size=cfg.ensemble.members,
                    normalized_epochs=result.stop.normalized_epochs)
        scheme_rows = _test_rows("batch_ensemble", scheme, result.all_probs(test.x),
                                 test.y, ece_bins, **tags)
        for split_name, index_of in (("train", lambda ms: ms.train_idx),
                                     ("val", lambda ms: ms.val_idx)):
            pairs = [(result.member_probs(dprime.x[index_of(ms)], m),
                      dprime.y[index_of(ms)])
                     for m, ms in enumerate(plan.members)]
            avg = metrics.member_avg_record(pairs, ece_bins=ece_bins, **tags)
            scheme_rows.append(make_row("batch_ensemble", scheme, None, split_name,
                                        MEMBER_AVG_SCOPE, avg))
        rows.append(scheme_rows)
        runs.append([{"scheme": scheme, "strategy": job.strategy, "val_pct": job.val_pct,
                      "seed": seed, "plan": plan_reference(plan, job.val_pct),
                      "stops": [result.stop.to_dict()]}])
    return rows, runs


# kind -> (per-plan cell function, finish step over the completed seeds'
# results, or None). A cell function returns (rows, runs, ...), each a list
# of groups, joined per seed group by group, each group in job order: so
# batch_ensemble's outputs come scheme first. The finish step gets the
# joined tuples, in seed order.
_KINDS = {
    "wd_sweep": (_wd_sweep_cells, _wd_sweep_summary),
    "temp_scale": (_mlp_cells, None),
    "early_stop": (_mlp_cells, None),
    "batch_ensemble": (_batch_ensemble_cells, None),
    "stop_then_scale": (_mlp_cells, None),
}


def _check_config(cfg: ExperimentConfig):
    """Build the dataset, then return it after rejecting, before any
    training, what would fail every seed or write no cell: a task the
    generator, the CSV reader or the test split refuses (``cfg.validate``
    has checked the ranges of the stopping, optimizer and task keys, and
    wd_sweep's grid and holdout), an empty strategy, mode or scheme list the
    kind reads, unknown modes and schemes, temperatures fitted on a joint
    holdout that a disjoint strategy lacks, an MLP kind whose variants all
    stop jointly on disjoint holdouts, and holdout plans that cannot be
    built. A test split or a plan that cannot be built is named by the keys
    that sized it."""
    ex = cfg.experiment
    for key in ("strategies", "modes", "schemes"):  # the lists a kind loops over
        if f"experiment.{key}" in cfg.reads() and not getattr(ex, key):
            raise ConfigError(f"experiment.{key} is empty: {ex.kind} would write no cell")
    if spec := _MLP_KINDS.get(ex.kind):
        for mode in ex.modes if "experiment.modes" in cfg.reads() else ():
            if mode not in spec.modes:
                raise ConfigError(f"unknown {ex.kind} mode {mode!r}; expected one "
                                  f"of {spec.modes}")
        joint = sorted({temp for _, _, temp in spec.variants(ex.modes)} & {JOINT, POOL})
        if joint and DISJOINT in ex.strategies:
            raise ConfigError(
                f"{ex.kind} temperature modes {joint} need a jointly evaluable "
                "holdout; the disjoint strategy precludes joint evaluation")
        if not any(_variants(cfg, strategy) for strategy in ex.strategies):
            raise ConfigError("experiment.strategies and experiment.modes pair only "
                              f"disjoint with joint, a cell {ex.kind} skips: it would "
                              "write no cell")
    try:
        dprime, test = build_dataset(cfg)
    except SplitError as err:  # the test split; cfg.validate checked the generators
        raise ConfigError(f"task.test_fraction={cfg.task.test_fraction!r}: {err}") from err
    except (OSError, ValueError) as err:  # unreadable CSV, DataFormatError
        raise ConfigError(str(err)) from err
    if ex.kind == "batch_ensemble":
        for name in ex.schemes:
            parse_scheme(name)
    members = cfg.ensemble.members
    for job in _jobs(cfg):  # each plan once, in job order
        try:
            make_plan(job.strategy, len(dprime), job.val_pct, members, ex.seeds[0],
                      dprime.y)
        except SplitError as err:
            key = (f"experiment.val_pcts entry {job.val_pct!r}" if ex.val_pcts
                   else f"ensemble.val_pct={job.val_pct!r}")
            if job.strategy == OVERLAPPING and not 3 <= members <= len(dprime):
                key = f"ensemble.members={members}"
            elif job.strategy == DISJOINT and round(job.val_pct * len(dprime)) > 0:
                # each set is big enough, but the M sets together outgrow the rows
                key = f"ensemble.members={members} with {key}"
            raise ConfigError(f"{key} on the {job.strategy} holdout: {err}") from err
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
    and its full traceback, instead of stopping the run; a seed's entry also
    names the strategy and val_pct of its first failing job. A failed seed
    contributes no rows or runs."""
    finish = _KINDS[cfg.experiment.kind][1]
    seeds, jobs = cfg.experiment.seeds, _jobs(cfg)
    outcomes = _map_jobs(_run_job, [(cfg, dprime, test, s, job)
                                    for s in seeds for job in jobs], workers)
    results, failures = [], []
    for i, seed in enumerate(seeds):
        seed_outcomes = outcomes[i * len(jobs):(i + 1) * len(jobs)]
        errors = [{**job._asdict(), **payload}
                  for job, (status, payload) in zip(jobs, seed_outcomes) if status == "error"]
        if errors:
            failures.append({"seed": seed, **errors[0]})
            continue
        payloads = [payload for _, payload in seed_outcomes]
        results.append(tuple([x for groups in zip(*parts) for group in groups
                              for x in group] for parts in zip(*payloads)))
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


# A cell of aggregate.csv and plotdata.csv: every cells.csv column but the seed
# and the metrics. Their rows sort by these columns as str, in this order.
_CELL_COLUMNS = [c for c in ROW_COLUMNS if c != "seed" and c not in metrics.METRIC_COLUMNS]
_SORT_COLUMNS = ["experiment", "strategy", "val_pct", "variant", "wd", "split", "scope",
                 "ensemble_size"]


def aggregate_rows(rows):
    """Seed-mean and SEM per aggregate cell, plus long-format plot data, whose
    rows of one cell sort by metric name."""
    groups: dict = {}
    for row in rows:
        named = dict(zip(ROW_COLUMNS, row))
        groups.setdefault(tuple(named[c] for c in _CELL_COLUMNS), []).append(named)
    order = [_CELL_COLUMNS.index(c) for c in _SORT_COLUMNS]
    agg_rows, plot_rows = [], []
    for key in sorted(groups, key=lambda k: [str(k[i]) for i in order]):
        members, stats = groups[key], {}
        for name in metrics.METRIC_COLUMNS:
            vals = [float(r[name]) for r in members if r[name] not in ("", None)]
            stats[name] = metrics.mean_sem(vals) if vals else ("", "")
        agg_rows.append([*key, len(members)] + [v for name in metrics.METRIC_COLUMNS
                                                for v in stats[name]])
        plot_rows += [[*key, name, *stats[name], len(members)]
                      for name in sorted(stats) if stats[name][0] != ""]
    agg_header = (_CELL_COLUMNS + ["n"] + [f"{m}_{s}" for m in metrics.METRIC_COLUMNS
                                           for s in ("mean", "sem")])
    return agg_header, agg_rows, _CELL_COLUMNS + ["metric", "mean", "sem", "n"], plot_rows


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
    """The rows of a cells.csv file. A file that cannot be read as UTF-8, is
    empty, has another header, a row of another width or a metric field that
    is no number is a ``ConfigError`` naming ``path``, or ``path:line``."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty file, no cells.csv header")
            if header != ROW_COLUMNS:
                raise ConfigError(f"{path}: unexpected cells.csv header")
            rows = []
            for row in reader:
                if len(row) != len(ROW_COLUMNS):
                    raise ConfigError(f"{path}:{reader.line_num}: expected "
                                      f"{len(ROW_COLUMNS)} fields, got {len(row)}")
                try:  # the metric fields, which aggregate_rows reads as floats
                    [float(v) for v in row[-len(metrics.METRIC_COLUMNS):] if v]
                except ValueError as err:
                    raise ConfigError(f"{path}:{reader.line_num}: {err}") from None
                rows.append(row)
            return rows
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from None


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
