"""Tests for training loops, patience control and normalized epochs."""

import math

import numpy as np
import pytest

from enstune import metrics, training
from enstune.data import make_blobs
from enstune.splits import (
    SHARED,
    JointEvalUnavailableError,
    MemberSplit,
    SplitPlan,
    make_disjoint,
    make_overlapping,
    make_shared,
)
from enstune.training import (
    OptimizerConfig,
    StoppingConfig,
    member_probs,
    normalized_epochs,
    stop_controller,
    train_ensemble,
)


def blob_task(n=240, k=3, noise=0.4, seed=0, label_noise=0.0):
    ds = make_blobs(n, k, noise, np.random.default_rng(seed), label_noise=label_noise)
    return ds


def train_solo(ds, member_split, dims, opt, stop, seed):
    """One member trained on ``member_split`` as a one-member plan."""
    plan = SplitPlan(SHARED, len(ds), [member_split])
    (member,) = train_ensemble(ds.x, ds.y, plan, dims, opt, stop, seed).members
    return member


class TestStopController:
    def test_monotone_never_stops(self):
        history = [1.0 - 0.01 * i for i in range(20)]
        d = stop_controller(history, patience=10)
        assert not d.stopped_early
        assert d.stop_epoch == 19
        assert d.best_epoch == 19

    def test_walked_example(self):
        history = [1.0, 0.9] + [0.95, 0.96] + [0.96] * 10
        d = stop_controller(history, patience=10)
        assert d.stopped_early
        assert d.best_epoch == 1
        assert d.stop_epoch == 11
        assert d.best_score == 0.9
        assert d.history == history[:12]

    def test_tie_is_not_improvement(self):
        d = stop_controller([1.0, 1.0], patience=1)
        assert d.stopped_early
        assert d.stop_epoch == 1
        assert d.best_epoch == 0

    def test_never_stops_before_patience(self):
        for patience in (1, 3, 7):
            d = stop_controller([1.0] * 50, patience=patience)
            assert d.stop_epoch - d.best_epoch == patience

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            stop_controller([], patience=5)


class TestNormalizedEpochs:
    def test_full_data_training_matches_epochs(self):
        # train set == D', 10 epochs of ceil-free batching
        n, b = 256, 128
        steps = 10 * (n // b)
        assert normalized_epochs(steps, b, n) == pytest.approx(10.0)

    def test_half_data_counts_half(self):
        n, b = 200, 100
        steps = 10 * 1  # half of D' (100 samples) is one batch per epoch
        assert normalized_epochs(steps, b, n) == pytest.approx(5.0)

    def test_arithmetic(self):
        assert normalized_epochs(40, 128, 1000) == pytest.approx(5.12)


class TestTrainMember:
    def test_separable_blobs_reach_zero_val_error(self):
        ds = blob_task(noise=0.15)
        plan = make_shared(len(ds), 0.2, 1, rng_seed=0, labels=ds.y)
        member = train_solo(ds, plan.members[0], [2, 16, 3], OptimizerConfig(lr=5e-3),
                            StoppingConfig(max_epochs=60, batch_size=32), seed=1)
        probs = member_probs(member, ds.x[plan.members[0].val_idx])
        err = metrics.classification_error(probs, ds.y[plan.members[0].val_idx])
        assert err == 0.0
        assert member.stop.best_score == min(member.stop.history)

    def test_single_epoch(self):
        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 1, rng_seed=2, labels=ds.y)
        member = train_solo(ds, plan.members[0], [2, 8, 3], OptimizerConfig(),
                            StoppingConfig(max_epochs=1), seed=3)
        assert member.stop.stop_epoch == 0
        assert member.stop.best_epoch == 0

    def test_deterministic_histories(self):
        ds = blob_task()
        plan = make_shared(len(ds), 0.25, 1, rng_seed=4, labels=ds.y)
        runs = [train_solo(ds, plan.members[0], [2, 8, 3], OptimizerConfig(),
                           StoppingConfig(max_epochs=15), seed=7)
                for _ in range(2)]
        assert runs[0].stop.history == runs[1].stop.history

    def test_restored_params_reproduce_best_score(self):
        ds = blob_task(noise=0.9, label_noise=0.2)
        plan = make_shared(len(ds), 0.25, 1, rng_seed=5, labels=ds.y)
        member = train_solo(ds, plan.members[0], [2, 16, 3], OptimizerConfig(lr=5e-3),
                            StoppingConfig(patience=5, max_epochs=80), seed=6)
        probs = member_probs(member, ds.x[plan.members[0].val_idx])
        re_evaluated = metrics.nll(probs, ds.y[plan.members[0].val_idx])
        assert re_evaluated == pytest.approx(member.stop.best_score, abs=1e-12)

    def test_empty_sets_rejected(self):
        ds = blob_task()
        with pytest.raises(ValueError, match="empty"):
            train_solo(ds, MemberSplit(np.arange(0), np.arange(10)), [2, 3],
                       OptimizerConfig(), StoppingConfig(), seed=0)


class TestTrainEnsemble:
    def test_identical_members_joint_equals_individual(self):
        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 3, rng_seed=8, labels=ds.y)
        stop = StoppingConfig(mode="joint", patience=3, max_epochs=25)
        joint = train_ensemble(ds.x, ds.y, plan, [2, 8, 3], OptimizerConfig(),
                               stop, base_seed=9, member_seeds=[11, 11, 11])
        solo = train_solo(ds, plan.members[0], [2, 8, 3], OptimizerConfig(),
                          StoppingConfig(mode="individual", patience=3, max_epochs=25),
                          seed=11)
        (decision,) = joint.decisions
        assert decision.history == pytest.approx(solo.stop.history, abs=1e-12)
        assert decision.stop_epoch == solo.stop.stop_epoch
        assert decision.best_epoch == solo.stop.best_epoch

    def test_overlapping_joint_score_matches_hand_computation(self):
        ds = blob_task(n=200, k=4)
        plan = make_overlapping(len(ds), 4, rng_seed=10, labels=ds.y)
        stop = StoppingConfig(mode="joint", patience=2, max_epochs=4)
        res = train_ensemble(ds.x, ds.y, plan, [2, 8, 4], OptimizerConfig(), stop,
                             base_seed=12)
        # recompute the final monitored score outside the loop
        vals = []
        for a, b, idx in plan.joint_pairs:
            probs = [member_probs(res.members[m], ds.x[idx]) for m in (a, b)]
            vals.append(metrics.nll(metrics.ensemble_mean(probs), ds.y[idx]))
        (decision,) = res.decisions
        assert float(np.mean(vals)) == pytest.approx(decision.best_score, abs=1e-12)

    def test_joint_on_disjoint_requires_fallback(self):
        ds = blob_task()
        plan = make_disjoint(len(ds), 0.1, 3, rng_seed=13, labels=ds.y)
        stop = StoppingConfig(mode="joint", patience=2, max_epochs=3)
        with pytest.raises(JointEvalUnavailableError):
            train_ensemble(ds.x, ds.y, plan, [2, 8, 3], OptimizerConfig(), stop, 14)

    def test_individual_mode_allows_distinct_stop_epochs(self):
        ds = blob_task(n=300, noise=0.8, label_noise=0.15)
        plan = make_disjoint(len(ds), 0.1, 3, rng_seed=15, labels=ds.y)
        stop = StoppingConfig(mode="individual", patience=3, max_epochs=40)
        res = train_ensemble(ds.x, ds.y, plan, [2, 16, 3], OptimizerConfig(lr=5e-3),
                             stop, base_seed=16)
        assert len(res.decisions) == 3
        assert [m.stop for m in res.members] == res.decisions
        assert len({d.stop_epoch for d in res.decisions}) >= 1  # may differ per member

    def test_joint_common_stop_epoch(self):
        ds = blob_task(n=200, noise=0.7, label_noise=0.1)
        plan = make_shared(len(ds), 0.15, 3, rng_seed=17, labels=ds.y)
        stop = StoppingConfig(mode="joint", patience=3, max_epochs=30)
        res = train_ensemble(ds.x, ds.y, plan, [2, 8, 3], OptimizerConfig(lr=5e-3),
                             stop, base_seed=18)
        (decision,) = res.decisions
        assert all(m.stop is decision for m in res.members)

    def test_ensemble_determinism(self):
        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 2, rng_seed=19, labels=ds.y)
        stop = StoppingConfig(mode="joint", patience=2, max_epochs=8)
        a = train_ensemble(ds.x, ds.y, plan, [2, 8, 3], OptimizerConfig(), stop, 20)
        b = train_ensemble(ds.x, ds.y, plan, [2, 8, 3], OptimizerConfig(), stop, 20)
        assert a.decisions[0].history == b.decisions[0].history
        for ma, mb in zip(a.members, b.members):
            for la, lb in zip(ma.params.layers, mb.params.layers):
                assert np.array_equal(la.weight, lb.weight)


MODES = ("individual", "joint", "none")


def _shared_trajectory_case(strategy):
    """A noisy task whose members stop at different epochs, and a plan."""
    ds = blob_task(n=300, noise=0.8, label_noise=0.15)
    make = make_shared if strategy == "shared" else make_overlapping
    kwargs = {"val_fraction": 0.2} if strategy == "shared" else {}
    plan = make(len(ds), n_members=3, rng_seed=1, labels=ds.y, **kwargs)
    return ds, plan


def _train(ds, plan, mode, modes=None, opt=None, max_epochs=40):
    return train_ensemble(ds.x, ds.y, plan, [2, 16, 3],
                          opt or OptimizerConfig(lr=0.02),
                          StoppingConfig(mode=mode, patience=2, max_epochs=max_epochs,
                                         batch_size=32),
                          base_seed=3, modes=modes)


class TestSharedTrajectory:
    """One call trains each member once and every stopping mode observes it."""

    @pytest.mark.parametrize("strategy", ["shared", "overlapping"])
    def test_every_mode_matches_its_single_mode_call(self, strategy):
        ds, plan = _shared_trajectory_case(strategy)
        multi = _train(ds, plan, "individual", modes=MODES)
        assert list(multi.by_mode) == list(MODES)
        assert multi.members is multi.by_mode["individual"].members
        stops = [d.stop_epoch for d in multi.by_mode["individual"].decisions]
        assert len(set(stops)) > 1 and max(stops) < 39  # rules stop apart
        for mode in MODES:
            single = _train(ds, plan, mode)
            shared = multi.by_mode[mode]
            assert [d.to_dict() for d in shared.decisions] == \
                [d.to_dict() for d in single.decisions], mode
            assert len(shared.members) == len(single.members) == plan.n_members
            for a, b in zip(shared.members, single.members):
                assert a.stop.to_dict() == b.stop.to_dict()
                for pa, pb in zip(a.params.arrays(), b.params.arrays()):
                    assert np.array_equal(pa, pb), mode

    def test_individual_decisions_replay_the_none_histories(self):
        ds, plan = _shared_trajectory_case("overlapping")
        multi = _train(ds, plan, "none", modes=MODES)
        nones = multi.by_mode["none"].decisions
        assert all(len(d.history) == 40 for d in nones)  # none runs every epoch
        for m, decision in enumerate(multi.by_mode["individual"].decisions):
            oracle = stop_controller(nones[m].history, patience=2)
            assert decision.stopped_early
            # the member kept training after its individual rule stopped
            assert len(set(nones[m].history[decision.stop_epoch:])) > 1
            assert (decision.stop_epoch, decision.best_epoch, decision.best_score,
                    decision.history, decision.stopped_early) == (
                oracle.stop_epoch, oracle.best_epoch, oracle.best_score,
                oracle.history, oracle.stopped_early)

    @pytest.mark.parametrize("strategy", ["shared", "overlapping"])
    def test_each_member_trains_until_its_last_rule_stops(self, strategy,
                                                          monkeypatch):
        ds, plan = _shared_trajectory_case(strategy)
        calls = []
        real = training.loss_and_grad

        def counting(params, x, y):
            calls.append(len(x))
            return real(params, x, y)

        monkeypatch.setattr(training, "loss_and_grad", counting)
        multi = _train(ds, plan, "joint", modes=("individual", "joint"))
        (joint,) = multi.by_mode["joint"].decisions
        individual = multi.by_mode["individual"].decisions
        assert {d.stop_epoch for d in individual} - {joint.stop_epoch}
        expected = []
        for m, ms in enumerate(plan.members):
            steps_per_epoch = math.ceil(len(ms.train_idx) / 32)
            epochs = max(individual[m].stop_epoch, joint.stop_epoch) + 1
            expected.append(steps_per_epoch * epochs)
            assert individual[m].normalized_epochs == normalized_epochs(
                steps_per_epoch * (individual[m].stop_epoch + 1), 32, len(ds))
        assert len(calls) == sum(expected)
        assert [member.steps for member in multi.members] == expected

    def test_several_modes_refuse_a_cosine_schedule(self):
        ds, plan = _shared_trajectory_case("shared")
        opt = OptimizerConfig(lr=0.02, cosine_epochs=10)
        with pytest.raises(ValueError, match="cosine_epochs"):
            _train(ds, plan, "individual", modes=("individual", "joint"), opt=opt)
        assert _train(ds, plan, "joint", opt=opt, max_epochs=3).decisions

    @pytest.mark.parametrize("mode, modes", [("individual", ("joint", "none")),
                                             ("joint", ("joint", "joint")),
                                             ("none", ("none", "sometimes"))])
    def test_bad_mode_lists_rejected(self, mode, modes):
        ds, plan = _shared_trajectory_case("shared")
        with pytest.raises(ValueError, match="modes"):
            _train(ds, plan, mode, modes=modes)


class TestMonitorRows:
    def test_individual_and_joint_logs(self):
        from enstune.experiments import monitor_rows_from_runs

        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 2, rng_seed=21, labels=ds.y)
        opt = OptimizerConfig()
        ind = train_ensemble(ds.x, ds.y, plan, [2, 8, 3], opt,
                             StoppingConfig(mode="individual", patience=2,
                                            max_epochs=4), 22)
        rows = monitor_rows_from_runs("early_stop", [
            {"mode": "individual", "stops": [d.to_dict() for d in ind.decisions]}])
        assert {r[6] for r in rows} == {0, 1}
        assert all(r[7] == "val" for r in rows)
        joint = train_ensemble(ds.x, ds.y, plan, [2, 8, 3], opt,
                               StoppingConfig(mode="joint", patience=2,
                                              max_epochs=4), 22)
        rows = monitor_rows_from_runs("early_stop", [
            {"mode": "joint", "stops": [d.to_dict() for d in joint.decisions]}])
        assert {r[6] for r in rows} == {"ensemble"}
        assert [r[5] for r in rows] == list(range(len(joint.decisions[0].history)))

    def test_none_mode_logs_every_member(self):
        from enstune.experiments import monitor_rows_from_runs

        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 3, rng_seed=23, labels=ds.y)
        res = train_ensemble(ds.x, ds.y, plan, [2, 8, 3], OptimizerConfig(),
                             StoppingConfig(mode="none", max_epochs=4), 24)
        rows = monitor_rows_from_runs("early_stop", [
            {"mode": "none", "stops": [d.to_dict() for d in res.decisions]}])
        assert {r[6] for r in rows} == {0, 1, 2}
        for m, member in enumerate(res.members):
            assert [r[8] for r in rows if r[6] == m] == member.stop.history


class TestStopDecisionInvariants:
    def test_best_not_after_stop(self):
        for history in ([0.5, 0.4, 0.45, 0.47], [1.0] * 6, [3, 2, 1]):
            d = stop_controller(list(map(float, history)), patience=2)
            assert d.best_epoch <= d.stop_epoch
            assert d.best_score == min(d.history[:d.best_epoch + 1])
