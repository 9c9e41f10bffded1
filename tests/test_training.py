"""Tests for training loops, patience control and normalized epochs."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from enstune import batchensemble, metrics, training
from enstune.batchensemble import (
    BatchEnsembleModel,
    _BeTrajectory,
    be_train,
    make_batch_ensemble,
)
from enstune.calibration import nll_at_temperature, validation_sets
from enstune.data import make_blobs
from enstune.netcore import softmax
from enstune.splits import (
    SHARED,
    JointEvalUnavailableError,
    MemberSplit,
    SplitPlan,
    joint_eval_sets,
    make_disjoint,
    make_overlapping,
    make_shared,
)
from enstune.training import (
    OptimizerConfig,
    StoppingConfig,
    member_logits,
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
        probs = softmax(member_logits(member, ds.x[plan.members[0].val_idx]))
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
        probs = softmax(member_logits(member, ds.x[plan.members[0].val_idx]))
        re_evaluated = metrics.nll(probs, ds.y[plan.members[0].val_idx])
        assert re_evaluated == pytest.approx(member.stop.best_score, abs=1e-12)

    def test_empty_sets_rejected(self):
        ds = blob_task()
        with pytest.raises(ValueError, match="empty"):
            train_solo(ds, MemberSplit(np.arange(0), np.arange(10)), [2, 3],
                       OptimizerConfig(), StoppingConfig(), seed=0)


class TestTrainEnsemble:
    def test_a_diverging_member_fails_without_numpy_warnings(self):
        # loss_and_grad reports the divergence itself; numpy's overflow and
        # invalid-value warnings on the way there would only repeat it
        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 2, rng_seed=3, labels=ds.y)
        opt = OptimizerConfig(kind="sgd_momentum", lr=0.05, weight_decay=1e9)
        stop = StoppingConfig(mode="none", max_epochs=3, batch_size=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(training.NonFiniteLossError, match="sample"):
                train_ensemble(ds.x, ds.y, plan, [2, 16, 8, 3], opt, stop, 5)

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
            probs = [softmax(member_logits(res.members[m], ds.x[idx])) for m in (a, b)]
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

        def counting(params, x, y, *rest):
            calls.append(len(x))
            return real(params, x, y, *rest)

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

    def test_rules_sharing_a_score_evaluate_it_once_per_epoch(self, monkeypatch):
        """A member's individual and none rules share its one score: each
        epoch forwards every member once on its own holdout, plus the joint
        sets' members while the joint rule is live."""
        ds, plan = _shared_trajectory_case("overlapping")
        calls = []
        real = training.mlp_forward

        def counting(params, x, *rest):
            calls.append(len(x))
            return real(params, x, *rest)

        monkeypatch.setattr(training, "mlp_forward", counting)
        multi = _train(ds, plan, "joint", modes=("individual", "none", "joint"))
        (joint,) = multi.by_mode["joint"].decisions
        assert joint.stopped_early and len(joint.history) < 40
        assert all(len(d.history) == 40 for d in multi.by_mode["none"].decisions)
        joint_forwards = sum(len(ids) for ids, _ in joint_eval_sets(plan))
        assert len(calls) == plan.n_members * 40 + joint_forwards * len(joint.history)

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


def probability_joint_nll(plan, y, set_logits):
    """The joint stopping score as it was first written, on probabilities:
    the mean over the plan's joint sets of the NLL of the members' mean
    softmax."""
    return float(np.mean([
        metrics.nll(metrics.ensemble_mean([softmax(z) for z in set_logits(ids, idx)]),
                    y[idx])
        for ids, idx in joint_eval_sets(plan)]))


def probability_member_nll(plan, y, set_logits):
    """The disjoint BatchEnsemble score as it was first written: the mean of
    each member's NLL of softmax on its own validation set."""
    return float(np.mean([metrics.nll(softmax(set_logits((m,), ms.val_idx)[0]),
                                      y[ms.val_idx])
                          for m, ms in enumerate(plan.members)]))


def rule_score(mode, plan, y, set_logits):
    """A stopping rule's monitored score: the temperature objective at T = 1
    on the validation sets of ``mode``."""
    return nll_at_temperature(validation_sets(mode, plan, y, set_logits))(1.0)


class TestJointScore:
    """The monitored ensemble score, the temperature objective at T = 1, is
    float for float the probability formula on every trajectory kind, and
    it is what the stopping rules record."""

    @staticmethod
    def plans(ds):
        return [make_shared(len(ds), 0.2, 4, rng_seed=31, labels=ds.y),
                make_overlapping(len(ds), 4, rng_seed=32, labels=ds.y)]

    def test_mlp_states(self):
        ds = blob_task(n=203, k=4)
        opt = OptimizerConfig(lr=1e-2)
        for plan in self.plans(ds):
            members = training._Members(ds.x, ds.y, plan, [2, 8, 4], opt, [33] * 4,
                                        range(4), True, 32, [lambda step: 1e-2] * 4)
            set_logits = lambda ids, idx: [members.logits(m, members.scalers[m](ds.x[idx]))
                                           for m in ids]
            scores = []
            for _ in range(4):
                scores.append(rule_score("joint", plan, ds.y, set_logits))
                assert scores[-1] == probability_joint_nll(plan, ds.y, set_logits), \
                    plan.strategy
                members.run_epoch(range(4))
            res = train_ensemble(ds.x, ds.y, plan, [2, 8, 4], opt,
                                 StoppingConfig(mode="joint", patience=10, max_epochs=3,
                                                batch_size=32), 33)
            assert res.decisions[0].history == scores[1:], plan.strategy

    @pytest.mark.parametrize("k", [4, 9])  # from 8 classes a row sums pairwise
    def test_member_score_is_the_probability_formula(self, k):
        """A per-member rule's score, its own holdout as a one-member set of
        the temperature objective at T = 1, is float for float the NLL of
        the member's softmax on that holdout, as it was first written."""
        ds = blob_task(n=203, k=k)
        opt = OptimizerConfig(lr=1e-2)
        for plan in self.plans(ds):
            members = training._Members(ds.x, ds.y, plan, [2, 8, k], opt, [37] * 4,
                                        range(4), True, 32, [lambda step: 1e-2] * 4)
            want = []
            for _ in range(3):
                members.run_epoch(range(4))
                want.append([metrics.nll(softmax(training.mlp_forward(
                    members.state(m), members.scalers[m](ds.x[ms.val_idx]))),
                    ds.y[ms.val_idx]) for m, ms in enumerate(plan.members)])
            res = train_ensemble(ds.x, ds.y, plan, [2, 8, k], opt,
                                 StoppingConfig(mode="individual", patience=10,
                                                max_epochs=3, batch_size=32), 37)
            for m, decision in enumerate(res.decisions):
                assert decision.history == [epoch[m] for epoch in want], \
                    (plan.strategy, m)

    def test_score_gathers_each_set_once(self):
        """A rule's score gathers each member's rows of each set once, when it
        is built, and every evaluation scores the live members on them."""
        ds = blob_task(n=203, k=4)
        plan = make_overlapping(len(ds), 4, rng_seed=32, labels=ds.y)
        members = training._Members(ds.x, ds.y, plan, [2, 8, 4], OptimizerConfig(lr=1e-2),
                                    [33] * 4, range(4), True, 32, [lambda step: 1e-2] * 4)
        sets = joint_eval_sets(plan) + [((m,), ms.val_idx)
                                        for m, ms in enumerate(plan.members)]
        calls = []

        def inputs(m, idx):
            calls.append((m, idx))
            return members.scalers[m](ds.x[idx])

        score = training._score(sets, ds.y, inputs, members.logits)
        want = [(m, idx) for ids, idx in sets for m in ids]
        for _ in range(3):
            assert len(calls) == len(want)
            assert all(a == m and b is idx for (a, b), (m, idx) in zip(calls, want))
            assert score() == nll_at_temperature([
                ([members.logits(m, members.scalers[m](ds.x[idx])) for m in ids], ds.y[idx])
                for ids, idx in sets])(1.0)
            members.run_epoch(range(4))

    def test_batch_ensemble_trajectory(self):
        ds = blob_task(n=203, k=4)
        opt = OptimizerConfig(lr=1e-2)
        plans = self.plans(ds) + [make_disjoint(len(ds), 0.1, 4, rng_seed=36, labels=ds.y)]
        for plan in plans:
            model = make_batch_ensemble([2, 6, 4], plan.n_members, "random_sign",
                                        training.member_rng(35, 0, training._INIT), 0.3)
            traj = _BeTrajectory(ds.x, ds.y, plan, BatchEnsembleModel.stack([model]), opt,
                                 32, 35)
            logits = lambda ids, idx: [traj.logits(m, traj.xs[m, idx], 0) for m in ids]
            mode, formula = (("individual", probability_member_nll)
                             if plan.strategy == "disjoint"
                             else ("joint", probability_joint_nll))
            scores = []
            for _ in range(4):
                scores.append(rule_score(mode, plan, ds.y, logits))
                assert scores[-1] == formula(plan, ds.y, logits), plan.strategy
                traj.run_epoch([0])
            (res,) = be_train(ds.x, ds.y, plan, [2, 6, 4], ["random_sign"], opt,
                              StoppingConfig(mode="joint", patience=10, max_epochs=3,
                                             batch_size=32), 35)
            assert res.stop.history == scores[1:], plan.strategy


class TestTrajectoryLifetime:
    """A trainer's trajectory object holds every member's data, optimizer
    state and kept buffers. It must be freed by reference counting when the
    trainer returns: the cyclic collector may not run for many jobs."""

    def test_trajectories_hold_no_reference_cycle(self, monkeypatch):
        made = []
        for module, name in ((training, "_Members"), (batchensemble, "_BeTrajectory")):
            class Recorded(getattr(module, name)):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    made.append(weakref.ref(self))

            monkeypatch.setattr(module, name, Recorded)
        ds = blob_task()
        plan = make_overlapping(len(ds), 3, rng_seed=4, labels=ds.y)
        stop = StoppingConfig(mode="joint", patience=2, max_epochs=3, batch_size=32)
        gc.disable()
        try:
            results = (train_ensemble(ds.x, ds.y, plan, [2, 6, 3], OptimizerConfig(), stop, 5,
                                      modes=("joint", "individual", "none")),
                       be_train(ds.x, ds.y, plan, [2, 6, 3], ["random_sign"],
                                OptimizerConfig(), stop, 5))
            assert len(made) == 2
            # the results are alive, the trajectories they came from are not
            assert [ref() for ref in made] == [None, None] and all(results)
        finally:
            gc.enable()


class TestStopDecisionInvariants:
    def test_best_not_after_stop(self):
        for history in ([0.5, 0.4, 0.45, 0.47], [1.0] * 6, [3, 2, 1]):
            d = stop_controller(list(map(float, history)), patience=2)
            assert d.best_epoch <= d.stop_epoch
            assert d.best_score == min(d.history[:d.best_epoch + 1])


def views_one_vector(obj) -> bool:
    """Every trainable array of ``obj`` is a view into ``obj.flat``, and the
    arrays tile it exactly."""
    arrays = obj.arrays()
    return (all(np.shares_memory(a, obj.flat) for a in arrays)
            and sum(a.size for a in arrays) == obj.flat.size)


class TestFlatStorage:
    """One contiguous parameter vector per trajectory: MLP members, grid rows
    and BatchEnsembles."""

    def models(self):
        from enstune.batchensemble import make_batch_ensemble

        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 2, rng_seed=3, labels=ds.y)
        grid = training.train_grid(ds.x, ds.y, plan, [2, 6, 3], OptimizerConfig(),
                                   [0.0, 0.01], StoppingConfig(mode="none", max_epochs=1),
                                   5)
        return {"mlp": training.MlpParams.random([2, 6, 5, 3], np.random.default_rng(0)),
                "grid_member": grid[1][0].params,
                "batch_ensemble": make_batch_ensemble([2, 6, 3], 3, "gaussian",
                                                      np.random.default_rng(1))}

    def test_arrays_are_views_of_one_vector(self):
        models = self.models()
        for name, obj in models.items():
            assert views_one_vector(obj), name
        be = models["batch_ensemble"]
        assert not any(np.shares_memory(a, be.flat) for b in be.bn
                       for a in (b.running_mean, b.running_var))
        assert views_one_vector(be.slow)
        assert np.shares_memory(be.slow.flat, be.flat)

    def test_copies_share_nothing(self):
        for name, obj in self.models().items():
            twin = obj.copy()
            assert views_one_vector(twin), name
            assert not np.shares_memory(twin.flat, obj.flat), name
            assert np.array_equal(twin.flat, obj.flat), name
        be = self.models()["batch_ensemble"]
        twin = be.copy()
        for a, b in zip(twin.bn, be.bn):
            assert not np.shares_memory(a.running_mean, b.running_mean)
            assert not np.shares_memory(a.running_var, b.running_var)

    def test_snapshots_share_nothing_with_the_trajectory(self):
        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 2, rng_seed=3, labels=ds.y)
        opt = OptimizerConfig(lr=0.01)
        members = training._Members(ds.x, ds.y, plan, [2, 6, 3], opt, [7, 7], range(2),
                                    True, 32, [lambda step: opt.lr] * 2)
        be = _BeTrajectory(ds.x, ds.y, plan,
                           BatchEnsembleModel.stack([make_batch_ensemble(
                               [2, 6, 3], 2, "gaussian", np.random.default_rng(2))]),
                           opt, 32, 7)
        for traj in (members, be):  # as the patience loop snapshots them
            snap = traj.state(0).copy()
            before = snap.flat.copy()
            assert not np.shares_memory(snap.flat, traj.state(0).flat)
            traj.run_epoch([0])
            assert np.array_equal(snap.flat, before)
            assert not np.array_equal(traj.state(0).flat, before)

    def test_a_dropped_grid_row_leaves_the_others_unchanged(self):
        ds = blob_task()
        plan = make_shared(len(ds), 0.2, 2, rng_seed=3, labels=ds.y)
        opt = OptimizerConfig(kind="sgd_momentum", lr=0.05)
        stop = StoppingConfig(mode="none", max_epochs=3, batch_size=32)
        dims = [2, 16, 8, 3]
        with np.errstate(all="ignore"):
            with_bad = training.train_grid(ds.x, ds.y, plan, dims, opt, [0.0, 1e9, 0.01],
                                           stop, 5)
        without = training.train_grid(ds.x, ds.y, plan, dims, opt, [0.0, 0.01], stop, 5)
        assert isinstance(with_bad[1], training.NonFiniteLossError)
        for got, want in zip([with_bad[0], with_bad[2]], without):
            for a, b in zip(got, want):
                assert np.array_equal(a.params.flat, b.params.flat)

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_keep_rows_keeps_the_surviving_state(self, kind):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(4, 2, 7))
        opt = training.Optimizer(kind, rows, 0.1,
                                 weight_decay=np.array([0.0, 0.1, 0.2, 0.3])[:, None, None])
        for _ in range(3):
            opt.step(rows, rng.normal(size=rows.shape))
        keep = np.array([0, 2, 3])
        state = {name: getattr(opt, name)[keep].copy()
                 for name in ("velocity", "m", "v", "decay") if hasattr(opt, name)}
        opt.keep_rows(keep)
        for name, want in state.items():
            assert np.array_equal(getattr(opt, name), want), name
        grads = rng.normal(size=(3, 2, 7))
        opt.step(rows[keep], grads)  # the state fits the kept rows
