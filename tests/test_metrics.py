"""Tests for scoring and diversity metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from enstune.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    ambiguity,
    classification_error,
    diversity,
    diversity_kl,
    ece,
    ensemble_mean,
    entropy,
    nll,
)
from enstune.netcore import LabelError, ShapeError


def random_prob_matrix(rng, n, k):
    raw = rng.exponential(size=(n, k))
    return raw / raw.sum(axis=1, keepdims=True)


class TestEnsembleMean:
    def test_single_member_identity(self):
        p = np.array([[0.25, 0.75]])
        assert np.array_equal(ensemble_mean([p]), p)

    def test_symmetric_pair(self):
        out = ensemble_mean([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        assert np.array_equal(out, np.array([[0.5, 0.5]]))

    def test_rows_still_sum_to_one(self):
        rng = np.random.default_rng(0)
        members = [random_prob_matrix(rng, 7, 5) for _ in range(5)]
        mean_p = ensemble_mean(members)
        assert np.abs(mean_p.sum(axis=1) - 1.0).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="member 1"):
            ensemble_mean([np.ones((2, 2)) / 2, np.ones((3, 2)) / 2])


class TestNll:
    def test_perfect_prediction(self):
        p = np.eye(3)
        assert nll(p, np.array([0, 1, 2])) == 0.0

    def test_uniform_ten_classes(self):
        p = np.full((4, 10), 0.1)
        assert nll(p, np.array([0, 3, 5, 9])) == pytest.approx(math.log(10), abs=1e-12)

    def test_hand_computed(self):
        p = np.array([[0.8, 0.2], [0.3, 0.7]])
        want = -(math.log(0.8) + math.log(0.7)) / 2
        assert nll(p, np.array([0, 1])) == pytest.approx(want, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            nll(np.array([[1.0, 0.0]]), np.array([2]))

    def test_one_hot_miss_is_finite(self):
        assert np.isfinite(nll(np.array([[1.0, 0.0]]), np.array([1])))


class TestLabelCount:
    """Each scorer wants one label per probability row."""

    @pytest.mark.parametrize("score", [nll, classification_error, ece])
    @pytest.mark.parametrize("n_labels", [5, 11])
    def test_count_mismatch(self, score, n_labels):
        probs = np.full((10, 4), 0.25)
        with pytest.raises(ShapeError, match=r"labels of shape \(%d,\)" % n_labels):
            score(probs, np.zeros(n_labels, dtype=int))


class TestClassificationError:
    def test_all_correct(self):
        p = np.eye(4)
        assert classification_error(p, np.arange(4)) == 0.0

    def test_all_wrong(self):
        p = np.eye(2)
        assert classification_error(p, np.array([1, 0])) == 100.0

    def test_three_of_four(self):
        p = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8], [0.4, 0.6]])
        assert classification_error(p, np.array([0, 0, 1, 0])) == 25.0

    def test_tie_breaks_to_lowest_class(self):
        p = np.array([[0.5, 0.5]])
        assert classification_error(p, np.array([0])) == 0.0
        assert classification_error(p, np.array([1])) == 100.0


class TestEce:
    def test_single_confident_correct(self):
        assert ece(np.array([[1.0, 0.0]]), np.array([0])) == 0.0

    def test_single_bin_hand_value(self):
        # 10 samples, confidence 0.95, 9 correct: |0.9 - 0.95| = 0.05
        p = np.tile([0.95, 0.05], (10, 1))
        y = np.zeros(10, dtype=int)
        y[0] = 1
        assert ece(p, y) == pytest.approx(0.05, abs=1e-12)

    def test_two_bins_hand_value(self):
        # bin (0.6, 0.65]: 4 samples at conf 0.62, 2 correct -> |0.5 - 0.62|
        # bin (0.9, 0.95]: 6 samples at conf 0.91, 6 correct -> |1.0 - 0.91|
        p = np.vstack([np.tile([0.62, 0.38], (4, 1)), np.tile([0.91, 0.09], (6, 1))])
        y = np.array([0, 0, 1, 1] + [0] * 6)
        want = 0.4 * abs(0.5 - 0.62) + 0.6 * abs(1.0 - 0.91)
        assert ece(p, y, n_bins=20) == pytest.approx(want, abs=1e-12)

    def test_boundary_goes_to_lower_bin(self):
        # confidence exactly 0.8 with 15 bins sits in (0.75, 0.8]
        p = np.array([[0.8, 0.2], [0.8, 0.2]])
        y = np.array([0, 1])
        # acc 0.5, conf 0.8 in one bin -> 0.3
        assert ece(p, y, n_bins=5) == pytest.approx(0.3, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        p = random_prob_matrix(rng, 30, 4)
        y = rng.integers(0, 4, size=30)
        perm = rng.permutation(30)
        assert ece(p, y) == pytest.approx(ece(p[perm], y[perm]), abs=1e-12)


class TestEntropy:
    def test_one_hot_zero(self):
        assert entropy(np.array([[0.0, 1.0, 0.0]])).mean == 0.0

    def test_uniform_binary(self):
        assert entropy(np.array([[0.5, 0.5]])).mean == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_computed(self):
        want = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert entropy(np.array([[0.8, 0.2]])).mean == pytest.approx(want, abs=1e-9)
        assert round(want, 4) == 0.5004


class TestDiversity:
    def test_identical_members_zero(self):
        rng = np.random.default_rng(1)
        p = random_prob_matrix(rng, 5, 3)
        d = diversity([p, p, p])
        assert np.abs(d.per_sample).max() < 1e-12

    def test_opposed_one_hots(self):
        d = diversity([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        assert d.mean == pytest.approx(math.log(2), abs=1e-9)

    def test_matches_kl_form(self):
        rng = np.random.default_rng(2)
        members = [random_prob_matrix(rng, 12, 6) for _ in range(4)]
        a = diversity(members)
        b = diversity_kl(members)
        assert np.abs(a.per_sample - b.per_sample).max() < 1e-10

    def test_kl_identical_members_zero(self):
        p = random_prob_matrix(np.random.default_rng(3), 4, 5)
        assert abs(diversity_kl([p, p]).mean) < 1e-12
        assert abs(diversity_kl([p]).mean) < 1e-12

    def test_non_negative_property(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            members = [random_prob_matrix(rng, 8, 3) for _ in range(3)]
            assert diversity(members).per_sample.min() >= -1e-12


class TestAmbiguity:
    def test_identical_members_zero(self):
        p = random_prob_matrix(np.random.default_rng(5), 6, 4)
        y = np.random.default_rng(6).integers(0, 4, size=6)
        res = ambiguity([p, p], y)
        assert res.ambiguity == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed(self):
        members = [np.array([[0.9, 0.1]]), np.array([[0.1, 0.9]])]
        res = ambiguity(members, np.array([0]))
        assert res.avg_member_nll == pytest.approx(-(math.log(0.9) + math.log(0.1)) / 2, abs=1e-9)
        assert res.ensemble_nll == pytest.approx(-math.log(0.5), abs=1e-12)
        assert res.ambiguity == pytest.approx(0.5108, abs=1e-4)

    def test_jensen_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 10))
            k = int(rng.integers(2, 6))
            members = [random_prob_matrix(rng, n, k) for _ in range(m)]
            y = rng.integers(0, k, size=n)
            res = ambiguity(members, y)
            assert res.ambiguity >= -1e-12
            assert res.ensemble_nll <= res.avg_member_nll + 1e-12


class TestMetricsRecord:
    def test_csv_column_order(self):
        rec = MetricsRecord(strategy="shared", val_pct=0.05, seed=3, ensemble_size=4,
                            error_pct=12.5, nll=0.42, ece=0.01, diversity=0.1,
                            entropy=0.9, normalized_epochs=17.5)
        row = rec.to_row()
        assert len(row) == len(CSV_COLUMNS)
        assert dict(zip(CSV_COLUMNS, row)) == {c: getattr(rec, c) for c in CSV_COLUMNS}
        assert row[0] == "shared"
        assert row[5] == 0.42
