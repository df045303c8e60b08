import math

import numpy as np
import pytest

from widefs.classifiers import (
    CLASSIFIER_TAGS,
    classifier_kind,
    predict_label,
    predict_proba,
    train,
)
from widefs.dataset import Dataset, FeatureSubset, generate_gaussian_dataset


def two_class(n_per_class=6, n_features=4, seed=0, shift=1.5):
    return generate_gaussian_dataset(
        n_per_class=n_per_class, n_features=n_features,
        n_informative=min(2, n_features), shift=shift, seed=seed,
    )


def fast_kind(tag):
    return classifier_kind(tag, n_trees=15) if tag == "RF" else classifier_kind(tag)


class TestPosteriorConventions:
    @pytest.mark.parametrize("tag", CLASSIFIER_TAGS)
    def test_normalized_posteriors(self, tag):
        rng = np.random.default_rng(1)
        for seed in range(3):
            d = two_class(seed=seed)
            model = train(fast_kind(tag), d, None, seed=seed)
            probs = predict_proba(model, rng.normal(size=(10, d.n_features)))
            assert np.all(probs >= 0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("tag", ["SVML", "SVMG"])
    def test_svm_posteriors_discrete(self, tag):
        d = two_class(seed=2)
        model = train(tag, d, None, seed=0)
        rng = np.random.default_rng(0)
        probs = predict_proba(model, rng.normal(size=(40, d.n_features)))
        assert set(np.unique(probs)) <= {0.0, 1.0}
        assert np.all(probs.sum(axis=1) == 1.0)

    def test_nn1_softmax_hand_example(self):
        d = Dataset(
            "three", np.array([[0.0], [5.0], [6.0]]),
            np.array(["A", "B", "B"], dtype=object), ("f1",),
        )
        model = train("NN1", d, None, 0)
        probs = predict_proba(model, np.array([0.0]))
        # nearest A at distance 0, nearest B at 5: softmax(0, -5)
        assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-12)
        assert probs[0] > 0.9

    def test_ldc_midpoint_is_even(self):
        d = Dataset(
            "sym", np.array([[-2.0], [-1.0], [1.0], [2.0]]),
            np.array(["A", "A", "B", "B"], dtype=object), ("f1",),
        )
        model = train("LDC", d, None, 0)
        probs = predict_proba(model, np.array([0.0]))
        assert probs == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_dt_leaf_distribution(self):
        # one split separates x<=0.5; left leaf holds 2 A + 1 B
        X = np.array([[0.0], [0.2], [0.4], [1.0], [1.2]])
        y = np.array(["A", "A", "B", "B", "B"], dtype=object)
        d = Dataset("leaf", X, y, ("f1",))
        model = train("DT", d, None, 0)
        probs = predict_proba(model, np.array([0.1]))
        assert probs == pytest.approx([1.0, 0.0])
        probs = predict_proba(model, np.array([2.0]))
        assert probs[1] > 0.5


class TestTraining:
    def test_ldc_singleton_classes_threshold_zero(self):
        d = Dataset(
            "pair", np.array([[-1.0], [1.0]]),
            np.array(["A", "B"], dtype=object), ("f1",),
        )
        model = train("LDC", d, None, 0)
        assert predict_label(model, np.array([-0.01])) == "A"
        assert predict_label(model, np.array([0.01])) == "B"
        assert predict_proba(model, np.array([0.0])) == pytest.approx([0.5, 0.5], abs=1e-9)

    @pytest.mark.parametrize("tag", CLASSIFIER_TAGS)
    def test_empty_subset_gives_prior_model(self, tag):
        d = two_class(n_per_class=5)
        model = train(fast_kind(tag), d, FeatureSubset(()), seed=1)
        probs = predict_proba(model, np.empty((3, 0)))
        assert np.allclose(probs, 0.5)
        assert predict_label(model, np.empty(0)) == "A"  # tie -> lower class index

    def test_rf_deterministic_given_seed(self):
        d = two_class(seed=5)
        q = np.random.default_rng(2).normal(size=(20, d.n_features))
        m1 = train(classifier_kind("RF", n_trees=25), d, None, seed=9)
        m2 = train(classifier_kind("RF", n_trees=25), d, None, seed=9)
        assert np.array_equal(predict_proba(m1, q), predict_proba(m2, q))

    @pytest.mark.parametrize("tag", CLASSIFIER_TAGS)
    def test_row_permutation_invariance(self, tag):
        for n_per_class in (7, 20):  # 14 rows, and 40 rows (above probe size)
            d = two_class(n_per_class=n_per_class, seed=3)
            rng = np.random.default_rng(11)
            perm = rng.permutation(d.n_instances)
            shuffled = d.take_rows(perm)
            q = rng.normal(size=(25, d.n_features))
            a = predict_proba(train(fast_kind(tag), d, None, seed=4), q)
            b = predict_proba(train(fast_kind(tag), shuffled, None, seed=4), q)
            assert np.array_equal(a, b), n_per_class

    def test_nn1_resubstitution_always_correct(self):
        for seed in range(5):
            d = two_class(n_per_class=8, seed=seed)
            model = train("NN1", d, None, seed)
            assert list(predict_label(model, d.features)) == list(d.labels)

    @pytest.mark.parametrize("tag", ["LDC", "SVML"])
    def test_zero_feature_invariance(self, tag):
        d = two_class(n_per_class=6, n_features=3, seed=8)
        padded = Dataset(
            name="padded",
            features=np.hstack([d.features, np.zeros((d.n_instances, 1))]),
            labels=d.labels,
            feature_names=(*d.feature_names, "zero"),
        )
        q = np.random.default_rng(3).normal(size=(30, 3))
        qz = np.hstack([q, np.zeros((30, 1))])
        base = predict_proba(train(tag, d, None, 0), q)
        plus = predict_proba(train(tag, padded, None, 0), qz)
        assert np.array_equal(np.argmax(base, axis=1), np.argmax(plus, axis=1))


class TestInterface:
    def test_dimension_mismatch(self):
        d = two_class()
        model = train("LDC", d, FeatureSubset((0, 1)), 0)
        with pytest.raises(ValueError, match="features"):
            predict_proba(model, np.zeros(3))

    def test_predict_label_tie_rule(self):
        d = two_class()
        model = train("LDC", d, FeatureSubset(()), 0)
        assert predict_label(model, np.empty(0)) == "A"

    def test_unknown_tag_and_hyperparam(self):
        with pytest.raises(ValueError, match="unknown classifier tag"):
            classifier_kind("KNN7")
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            classifier_kind("LDC", trees=3)

    def test_subset_out_of_range(self):
        d = two_class(n_features=3)
        with pytest.raises(ValueError, match="out of range"):
            train("LDC", d, FeatureSubset((5,)), 0)

    def test_svm_needs_two_classes(self):
        X = np.array([[0.0], [1.0], [2.0]])
        labels = np.array(["A", "A", "B"], dtype=object)
        d = Dataset("t", X, labels, ("f1",))
        train("SVML", d, None, 0)  # fine with 2 classes
