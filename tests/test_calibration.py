"""Tests for temperature scaling: apply, fit, the validation sets each mode
scores, and the three ensemble modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from enstune import metrics
from enstune.calibration import (
    TemperatureError,
    apply_temperature,
    calibrate,
    fit_temperature,
    nll_at_temperature,
    pool_logits,
    validation_sets,
)
from enstune.netcore import ShapeError, softmax
from enstune.splits import (
    JointEvalUnavailableError,
    make_disjoint,
    make_overlapping,
    make_shared,
)


def grid_minimizer(objective, n_points=100_000, lo=0.01, hi=100.0):
    """Brute-force oracle: best T on a dense log grid."""
    ts = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    vals = np.array([objective(t) for t in ts])
    return float(ts[vals.argmin()])


def pooled_at(mean_probs, t):
    """Pool mode's prediction: the pooled probabilities tempered as logits."""
    return apply_temperature(pool_logits(mean_probs), t)


def fit_of(mode, sets):
    """The fit alone of ``calibrate``; the first set's members stand in for
    the test members."""
    return calibrate(mode, sets, sets[0][0])[0]


def pool_sets(eval_sets):
    """Pool mode's eval sets: one member per set, the logits of its pooled mean."""
    return [([pool_logits(metrics.ensemble_mean(probs))], y) for probs, y in eval_sets]


def sample_logit_problem(rng, n=200, k=2, scale_range=(0.3, 3.0)):
    """Labels drawn from a softmax model, logits miscalibrated by a scale."""
    true_logits = rng.normal(0.0, 2.0, size=(n, k))
    p = softmax(true_logits)
    y = (rng.random(n)[:, None] > p.cumsum(axis=1)).sum(axis=1)
    z = true_logits * rng.uniform(*scale_range) + rng.normal(0, 0.5, size=(n, k))
    return z, y


class TestApplyTemperature:
    def test_t1_is_plain_softmax(self):
        z = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(apply_temperature(z, 1.0), softmax(z))

    def test_huge_t_is_nearly_uniform(self):
        p = apply_temperature(np.array([[2.0, 0.0]]), 1e6)
        assert np.abs(p - 0.5).max() < 1e-5

    def test_hand_value(self):
        p = apply_temperature(np.array([[2.0, 0.0]]), 2.0)
        s = 1.0 / (1.0 + math.exp(-1.0))
        assert p[0, 0] == pytest.approx(s, abs=1e-10)
        assert p[0, 1] == pytest.approx(1 - s, abs=1e-10)

    def test_rejects_nonpositive(self):
        for t in (0.0, -1.0):
            with pytest.raises(TemperatureError):
                apply_temperature(np.zeros((1, 2)), t)

    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_argmax_preserved(self, seed, log_t):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 3, size=(8, 5))
        t = math.exp(log_t)
        assert np.array_equal(apply_temperature(z, t).argmax(axis=1), z.argmax(axis=1))


class TestFitTemperature:
    def test_log_quadratic_minimum(self):
        res = fit_temperature(lambda t: (math.log(t) - math.log(2.0)) ** 2)
        assert abs(res.temperature - 2.0) < 1e-4
        assert res.converged and not res.at_boundary
        assert res.iterations <= 100

    def test_monotone_objectives_hit_bounds(self):
        res = fit_temperature(lambda t: t)  # minimum at the lower bracket end
        assert res.temperature == 0.01
        assert res.at_boundary and res.converged
        res = fit_temperature(lambda t: -t)
        assert res.temperature == 100.0
        assert res.at_boundary and res.converged

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            z, y = sample_logit_problem(rng)
            obj = nll_at_temperature([([z], y)])
            res = fit_temperature(obj)
            assert abs(res.temperature - grid_minimizer(obj, 20_000)) < 1e-3

    def test_rejects_non_finite_objective(self):
        with pytest.raises(TemperatureError, match="not finite"):
            fit_temperature(lambda t: float("nan"))


class TestIndividual:
    def test_already_optimal_members_fit_near_one(self):
        # Rescale logits by the grid-optimal T first, so T=1 is optimal.
        rng = np.random.default_rng(2)
        z, y = sample_logit_problem(rng)
        t_star = grid_minimizer(nll_at_temperature([([z], y)]), 50_000)
        z_cal = z / t_star
        res = fit_of("individual", [([z_cal], y)] * 3)
        for t in res.temperature:
            assert abs(t - 1.0) < 5e-3
        assert res.mode == "individual"

    def test_single_member_matches_plain_fit(self):
        rng = np.random.default_rng(3)
        z, y = sample_logit_problem(rng)
        solo = fit_temperature(nll_at_temperature([([z], y)]))
        res = fit_of("individual", [([z], y)])
        assert res.temperature == [solo.temperature]

    def test_scaling_covariance(self):
        rng = np.random.default_rng(4)
        z, y = sample_logit_problem(rng)
        t_ref = fit_of("individual", [([z], y)]).temperature[0]
        t_doubled = fit_of("individual", [([2.0 * z], y)]).temperature[0]
        assert t_doubled == pytest.approx(2.0 * t_ref, rel=1e-3)

    def test_empty_validation_set(self):
        with pytest.raises(TemperatureError, match="empty"):
            fit_of("individual", [([np.zeros((0, 2))], np.zeros(0, dtype=int))])


class TestJoint:
    def test_single_member_equals_individual(self):
        rng = np.random.default_rng(5)
        z, y = sample_logit_problem(rng)
        joint = fit_of("joint", [([z], y)])
        solo = fit_of("individual", [([z], y)])
        assert joint.temperature == pytest.approx(solo.temperature[0], abs=1e-9)

    def test_identical_members_match_single_model_fit(self):
        rng = np.random.default_rng(6)
        z, y = sample_logit_problem(rng)
        joint = fit_of("joint", [([z, z, z], y)])
        solo = fit_temperature(nll_at_temperature([([z], y)]))
        assert joint.temperature == pytest.approx(solo.temperature, abs=1e-9)

    def test_matches_grid_oracle_on_disagreeing_pair(self):
        rng = np.random.default_rng(7)
        z1, y = sample_logit_problem(rng, n=100)
        z2 = z1 + rng.normal(0, 1.5, size=z1.shape)
        obj = nll_at_temperature([([z1, z2], y)])
        res = fit_of("joint", [([z1, z2], y)])
        assert abs(res.temperature - grid_minimizer(obj, 20_000)) < 1e-3

    def test_never_worse_than_unscaled(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z1, y = sample_logit_problem(rng, n=60, k=3)
            z2, _ = sample_logit_problem(rng, n=60, k=3)
            obj = nll_at_temperature([([z1, z2], y)])
            res = fit_of("joint", [([z1, z2], y)])
            assert res.val_nll <= obj(1.0) + 1e-12

    def test_disjoint_is_structured_error(self):
        with pytest.raises(JointEvalUnavailableError, match="disjoint"):
            calibrate("joint", [], [])

    def test_joint_scaling_can_change_ensemble_argmax(self):
        # Frozen witness found by randomized search: the shared temperature
        # preserves each member's argmax but flips the averaged prediction.
        z1 = np.array([[4.1, -1.0, 0.0]])
        z2 = np.array([[-4.0, 3.5, 0.0]])
        before, after = (metrics.ensemble_mean([apply_temperature(z, t) for z in (z1, z2)])
                         for t in (1.0, 2.0))
        assert before.argmax(axis=1)[0] == 0
        assert after.argmax(axis=1)[0] == 1
        for z in (z1, z2):
            assert apply_temperature(z, 2.0).argmax(axis=1) == z.argmax(axis=1)


class TestPool:
    def test_t1_recovers_mean_probs(self):
        rng = np.random.default_rng(9)
        raw = rng.exponential(size=(6, 4))
        p = raw / raw.sum(axis=1, keepdims=True)
        assert np.abs(pooled_at(p, 1.0) - p).max() < 1e-12

    def test_argmax_preserved_for_any_t(self):
        rng = np.random.default_rng(10)
        raw = rng.exponential(size=(20, 5))
        p = raw / raw.sum(axis=1, keepdims=True)
        for t in (0.2, 0.7, 1.0, 3.5, 40.0):
            assert np.array_equal(pooled_at(p, t).argmax(axis=1),
                                  p.argmax(axis=1))

    def test_pool_and_joint_land_close(self):
        # Overconfident members: both joint strategies should calibrate to
        # nearly the same validation NLL.
        rng = np.random.default_rng(42)
        n, k, m = 400, 4, 4
        true_logits = rng.normal(0, 2.0, size=(n, k))
        p = softmax(true_logits)
        y = (rng.random(n)[:, None] > p.cumsum(axis=1)).sum(axis=1)
        members = [1.8 * true_logits + rng.normal(0, 0.8, size=(n, k)) for _ in range(m)]
        joint = fit_of("joint", [(members, y)])
        pool = fit_of("pool", [(members, y)])
        assert abs(joint.val_nll - pool.val_nll) < 0.01

    def test_fitted_pool_keeps_pooled_argmax(self):
        rng = np.random.default_rng(11)
        members = [rng.normal(0, 2, size=(50, 3)) for _ in range(3)]
        y = rng.integers(0, 3, size=50)
        probs = [softmax(z) for z in members]
        mean_p = metrics.ensemble_mean(probs)
        res, out = calibrate("pool", [(members, y)], members)
        assert out.tobytes() == pooled_at(mean_p, res.temperature).tobytes()
        assert np.array_equal(out.argmax(axis=1), mean_p.argmax(axis=1))

    def test_objective_is_mean_over_eval_sets(self):
        # an overlapping plan's cyclic pairs: each set pools only its members
        rng = np.random.default_rng(13)
        sets = []
        for n in (30, 45):
            zs = [rng.normal(0, 2, size=(n, 3)) for _ in range(2)]
            sets.append((zs, rng.integers(0, 3, size=n)))
        res = fit_of("pool", sets)
        per_set = [metrics.nll(pooled_at(metrics.ensemble_mean([softmax(z) for z in zs]),
                                         res.temperature), y)
                   for zs, y in sets]
        assert res.mode == "pool"
        assert res.val_nll == float(np.mean(per_set))

    def test_empty_input_is_structured_error(self):
        with pytest.raises(JointEvalUnavailableError, match="disjoint"):
            calibrate("pool", [], [])
        with pytest.raises(TemperatureError):
            fit_of("pool", [([np.zeros((0, 3))], np.zeros(0, dtype=int))])


def three_plans():
    """Labels, and a shared, an overlapping and a disjoint plan of 4 members."""
    y = np.random.default_rng(50).integers(0, 3, size=120)
    return y, {"shared": make_shared(len(y), 0.2, 4, rng_seed=51, labels=y),
               "overlapping": make_overlapping(len(y), 4, rng_seed=52, labels=y),
               "disjoint": make_disjoint(len(y), 0.1, 4, rng_seed=53, labels=y)}


class Recorder:
    """A ``set_logits`` that records each (members, rows) call and returns
    each member's logits on those rows from fixed (M, N, K) logits."""

    def __init__(self, logits):
        self.logits = logits
        self.calls = []

    def __call__(self, ids, idx):
        self.calls.append((ids, idx))
        return [self.logits[m][idx] for m in ids]


class TestValidationSets:
    """Which members each mode scores, on which rows, with which labels."""

    @pytest.mark.parametrize("strategy", ["shared", "overlapping", "disjoint"])
    def test_individual_is_each_member_on_its_own_holdout(self, strategy):
        y, plans = three_plans()
        plan = plans[strategy]
        logits = np.random.default_rng(54).normal(size=(4, len(y), 3))
        record = Recorder(logits)
        sets = validation_sets("individual", plan, y, record)
        assert [ids for ids, _ in record.calls] == [(m,) for m in range(4)]
        for m, ((zs, labels), (_, idx), ms) in enumerate(zip(sets, record.calls,
                                                              plan.members)):
            assert idx is ms.val_idx  # the plan's own array, so kept inputs hold
            assert len(zs) == 1 and np.array_equal(zs[0], logits[m][idx])
            assert np.array_equal(labels, y[ms.val_idx])

    def test_joint_on_a_shared_plan_is_every_member_on_the_holdout(self):
        y, plans = three_plans()
        plan = plans["shared"]
        for mode in ("joint", "pool"):
            record = Recorder(np.zeros((4, len(y), 3)))
            ((zs, labels),) = validation_sets(mode, plan, y, record)
            ((ids, idx),) = record.calls
            assert ids == (0, 1, 2, 3) and idx is plan.members[0].val_idx
            assert all(np.array_equal(ms.val_idx, idx) for ms in plan.members)
            assert len(zs) == 4 and np.array_equal(labels, y[idx])

    def test_joint_on_an_overlapping_plan_is_each_cyclic_pair_on_its_common_rows(self):
        y, plans = three_plans()
        plan = plans["overlapping"]
        for mode in ("joint", "pool"):
            record = Recorder(np.zeros((4, len(y), 3)))
            sets = validation_sets(mode, plan, y, record)
            assert [ids for ids, _ in record.calls] == [(0, 1), (1, 2), (2, 3), (3, 0)]
            for (zs, labels), ((a, b), idx) in zip(sets, record.calls):
                common = np.intersect1d(plan.members[a].val_idx, plan.members[b].val_idx)
                assert np.array_equal(np.sort(idx), common) and len(idx) > 0
                assert len(zs) == 2 and np.array_equal(labels, y[idx])

    def test_every_call_passes_the_same_index_objects(self):
        y, plans = three_plans()
        for plan in plans.values():
            for mode in ("individual", "joint"):
                first, second = (Recorder(np.zeros((4, len(y), 3))) for _ in range(2))
                validation_sets(mode, plan, y, first)
                validation_sets(mode, plan, y, second)
                assert [(ids, id(idx)) for ids, idx in first.calls] == \
                    [(ids, id(idx)) for ids, idx in second.calls]

    def test_disjoint_joint_request_is_structured_error(self):
        y, plans = three_plans()
        test = [np.zeros((5, 3))] * 4
        for mode in ("joint", "pool"):
            sets = validation_sets(mode, plans["disjoint"], y,
                                   Recorder(np.zeros((4, len(y), 3))))
            assert sets == []
            with pytest.raises(JointEvalUnavailableError, match="disjoint"):
                calibrate(mode, sets, test)
            with pytest.raises(JointEvalUnavailableError, match="disjoint"):
                nll_at_temperature(sets)


class TestCalibrate:
    """Each mode's fit on the sets of :func:`validation_sets`, and the test
    probabilities it returns."""

    @staticmethod
    def problem():
        y, plans = three_plans()
        rng = np.random.default_rng(55)
        val = 2.0 * rng.normal(size=(4, len(y), 3))
        test = [2.0 * rng.normal(size=(20, 3)) for _ in range(4)]
        return y, plans["shared"], Recorder(val), test

    def test_individual_returns_one_temperature_and_matrix_per_member(self):
        y, plan, record, test = self.problem()
        sets = validation_sets("individual", plan, y, record)
        fit, tempered = calibrate("individual", sets, test)
        assert fit.mode == "individual" and len(fit.temperature) == 4
        for s, t in zip(sets, fit.temperature):
            assert t == fit_temperature(nll_at_temperature([s])).temperature
        assert len(tempered) == 4
        for z, t, p in zip(test, fit.temperature, tempered):
            assert p.tobytes() == apply_temperature(z, t).tobytes()

    def test_joint_returns_one_temperature_and_a_matrix_per_member(self):
        y, plan, record, test = self.problem()
        sets = validation_sets("joint", plan, y, record)
        fit, tempered = calibrate("joint", sets, test)
        assert fit.temperature == fit_temperature(nll_at_temperature(sets)).temperature
        assert len(tempered) == 4
        for z, p in zip(test, tempered):
            assert p.tobytes() == apply_temperature(z, fit.temperature).tobytes()

    def test_pool_returns_one_matrix(self):
        y, plan, record, test = self.problem()
        fit, pooled = calibrate("pool", validation_sets("pool", plan, y, record), test)
        assert isinstance(fit.temperature, float) and fit.mode == "pool"
        assert isinstance(pooled, np.ndarray) and pooled.shape == (20, 3)
        mean_p = metrics.ensemble_mean([softmax(z) for z in test])
        assert pooled.tobytes() == pooled_at(mean_p, fit.temperature).tobytes()

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown temperature mode"):
            calibrate("none", [], [])


def logit_problem(k, m, n, seed, kind):
    """M members' (n, k) logits and labels: normal, rounded to many ties
    (whole rows tied, some at -0.0), or of magnitude up to about 1e100."""
    rng = np.random.default_rng(seed)
    zs = [rng.normal(0.0, 3.0, size=(n, k)) for _ in range(m)]
    if kind == "tied":
        for z in zs:
            z[:] = np.round(z)
            z[::3] = 0.0
            z[1::4] = -0.0
    elif kind == "large":
        zs = [z * 10.0 ** rng.uniform(0, 100, size=(n, 1)) for z in zs]
    return zs, rng.integers(0, k, size=n)


PROBLEMS = st.tuples(st.sampled_from([2, 3, 4, 10]), st.sampled_from([1, 2, 4]),
                     st.integers(1, 60), st.integers(0, 2 ** 32 - 1),
                     st.sampled_from(["normal", "tied", "large"]))
TEMPERATURES = st.one_of(st.sampled_from([0.01, 1.0, 100.0]),
                         st.floats(min_value=0.01, max_value=100.0))


def joint_reference(zs, y, t):
    return metrics.nll(metrics.ensemble_mean([apply_temperature(z, t) for z in zs]), y)


def pool_reference(probs, y, t):
    return metrics.nll(pooled_at(metrics.ensemble_mean(probs), t), y)


class TestPreparedObjectivesExact:
    """A fit prepares each validation set once; every objective value must
    still be, float for float, the composition of the public functions."""

    @given(PROBLEMS, TEMPERATURES)
    @settings(max_examples=150, deadline=None)
    def test_individual(self, problem, t):
        zs, y = logit_problem(*problem)
        for z in zs:
            assert nll_at_temperature([([z], y)])(t) == metrics.nll(apply_temperature(z, t), y)

    @given(PROBLEMS, TEMPERATURES)
    @settings(max_examples=150, deadline=None)
    def test_joint(self, problem, t):
        zs, y = logit_problem(*problem)
        assert nll_at_temperature([(zs, y)])(t) == joint_reference(zs, y, t)

    @given(PROBLEMS, TEMPERATURES)
    @settings(max_examples=150, deadline=None)
    def test_pool(self, problem, t):
        zs, y = logit_problem(*problem)
        probs = [softmax(z) for z in zs]
        assert nll_at_temperature(pool_sets([(probs, y)]))(t) == pool_reference(probs, y, t)

    @pytest.mark.parametrize("m", [8, 9, 16, 33])
    @pytest.mark.parametrize("n", [1, 2])
    def test_joint_many_members(self, m, n):
        # numpy sums a lone row's members pairwise from 8 of them on, a stack's
        # rows in member order; the objective must sum as ``ensemble_mean``
        for seed in range(20):
            zs, y = logit_problem(4, m, n, seed, "normal")
            for t in (0.01, 0.3, 1.0, 7.0, 100.0):
                assert nll_at_temperature([(zs, y)])(t) == joint_reference(zs, y, t)

    @given(PROBLEMS, st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_mean_over_eval_sets(self, problem, n_second):
        zs, y = logit_problem(*problem)
        zs2, y2 = logit_problem(problem[0], problem[1], n_second, problem[3] + 1, "normal")
        sets = [(zs, y), (zs2, y2)]
        for t in (0.01, 1.0, 100.0):
            assert nll_at_temperature(sets)(t) == float(np.mean(
                [joint_reference(z, yy, t) for z, yy in sets]))

    @given(PROBLEMS)
    @settings(max_examples=25, deadline=None)
    def test_fits_match_reference_fits(self, problem):
        # each mode's fit, its sets built by the mode, against a fit of the
        # composed public functions
        zs, y = logit_problem(*problem)
        probs = [softmax(z) for z in zs]
        pairs = [(fit_of("individual", [([zs[0]], y)]),
                  lambda t: metrics.nll(apply_temperature(zs[0], t), y)),
                 (fit_of("joint", [(zs, y)]), lambda t: joint_reference(zs, y, t)),
                 (fit_of("pool", [(zs, y)]), lambda t: pool_reference(probs, y, t))]
        for a, reference in pairs:
            b = fit_temperature(reference)
            t = a.temperature[0] if a.mode == "individual" else a.temperature
            assert (t, a.val_nll, a.iterations, a.converged, a.at_boundary) == (
                b.temperature, b.val_nll, b.iterations, b.converged, b.at_boundary)

    def test_overflow_raises_the_same_error(self):
        z = np.array([[1e307, 0.0], [0.0, 1.0]])  # z / 0.01 overflows
        y = np.array([0, 1])
        messages = []
        for objective in (nll_at_temperature([([z], y)]),
                          lambda t: metrics.nll(apply_temperature(z, t), y)):
            with pytest.raises(TemperatureError) as err, np.errstate(all="ignore"):
                fit_temperature(objective)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "objective is not finite at T=0.01"

    def test_nonpositive_temperature(self):
        obj = nll_at_temperature([([np.zeros((2, 3))], np.array([0, 2]))])
        for t in (0.0, -1.0):
            with pytest.raises(TemperatureError, match="must be > 0"):
                obj(t)

    def test_label_count_mismatch_is_checked_at_preparation(self):
        z = np.zeros((10, 4))
        for labels in (np.zeros(5, dtype=int), np.zeros(11, dtype=int)):
            with pytest.raises(ShapeError):
                nll_at_temperature([([z], labels)])
            with pytest.raises(ShapeError):
                nll_at_temperature([([z, z], labels)])
            with pytest.raises(ShapeError):
                nll_at_temperature(pool_sets([([softmax(z)], labels)]))
