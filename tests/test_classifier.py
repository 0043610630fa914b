import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnrae import ClassifierParams, SeededRng, evaluate, train_classifier


def blobs(centers, per_class, spread, seed):
    """Gaussian clusters, features one row per pattern."""
    g = SeededRng(seed).child("blobs").generator()
    rows, labels = [], []
    for c, center in enumerate(centers):
        pts = g.standard_normal((per_class, len(center))) * spread
        rows.append(pts + np.asarray(center))
        labels.extend([c] * per_class)
    return np.vstack(rows), np.array(labels)


class TestTrainClassifier:
    def test_separable_two_class_training_error_zero(self):
        x, y = blobs([(-3.0, -3.0), (3.0, 3.0)], per_class=25, spread=0.4, seed=0)
        clf = train_classifier(x, y)
        assert evaluate(clf, x, y).error_rate == 0.0

    def test_three_class_separable(self):
        x, y = blobs([(-4.0, 0.0), (4.0, 0.0), (0.0, 5.0)], per_class=20, spread=0.4, seed=1)
        clf = train_classifier(x, y)
        assert evaluate(clf, x, y).error_rate == 0.0

    def test_shuffled_labels_give_chance_level(self):
        g = SeededRng(2).child("x").generator()
        x_train = g.standard_normal((1000, 2))
        y_train = g.permutation(np.arange(1000) % 2)
        x_test = g.standard_normal((1000, 2))
        y_test = g.permutation(np.arange(1000) % 2)
        clf = train_classifier(x_train, y_train)
        er = evaluate(clf, x_test, y_test).error_rate
        assert 0.4 <= er <= 0.6

    def test_xor_arrangement_is_not_linearly_separable(self):
        x, y = blobs(
            [(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0), (2.0, -2.0)],
            per_class=10,
            spread=0.1,
            seed=3,
        )
        y = np.array([0] * 20 + [1] * 20)  # diagonal pairs share a class
        clf = train_classifier(x, y)
        assert evaluate(clf, x, y).error_rate >= 0.25

    def test_single_class_rejected(self):
        x = np.zeros((10, 3))
        with pytest.raises(ValueError):
            train_classifier(x, np.zeros(10, dtype=int))

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            train_classifier(np.zeros((10, 3)), np.zeros(9, dtype=int))

    def test_deterministic(self):
        x, y = blobs([(-1.0, 0.0), (1.0, 0.0)], per_class=30, spread=1.0, seed=4)
        a = train_classifier(x, y, ClassifierParams(seed=7))
        b = train_classifier(x, y, ClassifierParams(seed=7))
        assert np.array_equal(a.weights, b.weights)

    def test_constant_feature_does_not_break_standardization(self):
        x, y = blobs([(-3.0,), (3.0,)], per_class=15, spread=0.3, seed=5)
        x = np.hstack([x, np.full((x.shape[0], 1), 7.0)])  # zero-variance column
        clf = train_classifier(x, y)
        assert evaluate(clf, x, y).error_rate == 0.0


class TestEvaluate:
    def test_all_correct(self):
        x, y = blobs([(-3.0, 0.0), (3.0, 0.0)], per_class=10, spread=0.2, seed=6)
        clf = train_classifier(x, y)
        res = evaluate(clf, x, y)
        assert res.error_rate == 0.0 and res.misclassified == 0
        assert res.total == 20

    def test_twenty_wrong_of_hundred(self):
        # Force a known confusion by evaluating with flipped labels on a
        # perfectly-separable problem.
        x, y = blobs([(-3.0, 0.0), (3.0, 0.0)], per_class=50, spread=0.2, seed=7)
        clf = train_classifier(x, y)
        flipped = y.copy()
        flipped[:20] = 1 - flipped[:20]
        res = evaluate(clf, x, flipped)
        assert res.error_rate == pytest.approx(0.200)
        assert res.misclassified == 20

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=200
        )
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_error_rate_matches_counting_oracle(self, pairs):
        # Brute-force recount over an arbitrary (prediction, truth) list.
        truth = np.array([t for _, t in pairs])
        pred = np.array([p for p, _ in pairs])

        class Stub:
            n_classes = 4

            def predict(self, features):
                return pred

        res = evaluate(Stub(), np.zeros((len(pairs), 1)), truth)
        oracle = sum(1 for p, t in pairs if p != t) / len(pairs)
        assert res.error_rate == oracle
        assert res.misclassified == sum(1 for p, t in pairs if p != t)

    def test_empty_label_set_rejected(self):
        x, y = blobs([(-3.0, 0.0), (3.0, 0.0)], per_class=5, spread=0.2, seed=6)
        clf = train_classifier(x, y)
        with pytest.raises(ValueError, match="no patterns"):
            evaluate(clf, np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_label_outside_the_classes_rejected(self, bad):
        x, y = blobs([(-3.0, 0.0), (3.0, 0.0)], per_class=5, spread=0.2, seed=6)
        clf = train_classifier(x, y)
        labels = y.copy()
        labels[3] = bad
        with pytest.raises(ValueError, match=f"label {bad} out of range"):
            evaluate(clf, x, labels)

    @pytest.mark.parametrize("shape", [(5, 3), (2,)])
    def test_features_not_p_by_trained_width_rejected(self, shape):
        x, y = blobs([(-3.0, 0.0), (3.0, 0.0)], per_class=5, spread=0.2, seed=6)
        clf = train_classifier(x, y)
        with pytest.raises(ValueError, match="feature shape"):
            clf.predict(np.zeros(shape))

    def test_confusion_row_sums_and_offdiagonal(self):
        x, y = blobs([(-2.0, 0.0), (2.0, 0.0), (0.0, 3.0)], per_class=12, spread=1.5, seed=8)
        clf = train_classifier(x, y)
        res = evaluate(clf, x, y)
        assert res.confusion.sum() == res.total
        for c in range(3):
            assert res.confusion[c].sum() == np.sum(y == c)
        assert res.confusion.sum() - np.trace(res.confusion) == res.misclassified

    def test_error_plus_accuracy_is_one_exactly(self):
        x, y = blobs([(-2.0, 0.0), (2.0, 0.0), (0.0, 3.0)], per_class=11, spread=1.5, seed=9)
        clf = train_classifier(x, y)
        res = evaluate(clf, x, y)
        assert res.error_rate + res.accuracy == 1.0

    def test_permutation_invariance(self):
        x, y = blobs([(-1.0, 0.5), (1.0, -0.5)], per_class=40, spread=1.2, seed=10)
        clf = train_classifier(x, y)
        base = evaluate(clf, x, y).error_rate
        perm = SeededRng(11).child("p").generator().permutation(80)
        assert evaluate(clf, x[perm], y[perm]).error_rate == base

    def test_argmax_invariant_to_positive_row_scaling(self):
        from dataclasses import replace

        x, y = blobs([(-1.0, 0.5), (1.0, -0.5), (0.0, 2.0)], per_class=20, spread=1.0, seed=12)
        clf = train_classifier(x, y)
        scaled = replace(clf, weights=clf.weights * 3.5)
        assert np.array_equal(scaled.predict(x), clf.predict(x))

    def test_tie_breaks_to_lowest_class_id(self):
        from esnrae.classifier import LinearClassifier

        clf = LinearClassifier(
            weights=np.zeros((3, 3)),  # all scores identical
            mean=np.zeros(2),
            scale=np.ones(2),
            params=ClassifierParams(),
        )
        assert np.array_equal(clf.predict(np.ones((5, 2))), np.zeros(5, dtype=int))
