import numpy as np
import pytest

from widefs.classifiers import _fit, classifier_kind, predict_index, predict_proba
from widefs.dataset import Dataset, FeatureSubset, generate_gaussian_dataset, stratified_split
from widefs.estimators import (
    ErrorEstimate,
    holdout_true_error,
    loo_error,
    loo_passes,
    proper_rloo_error,
    resubstitution_error,
    stacked_loo_passes,
)
from widefs.rankers import rank_features
from widefs.selectors import _candidate_subsets, selection_scheme


def labeled(X, labels, name="t"):
    names = tuple(f"f{i+1}" for i in range(np.asarray(X).shape[1]))
    return Dataset(name, np.asarray(X, dtype=float), np.array(labels, dtype=object), names)


class TestResubstitution:
    def test_nn1_distinct_points_zero(self):
        d = generate_gaussian_dataset(n_per_class=8, n_features=3, seed=0)
        assert resubstitution_error("NN1", d, None, 0).value == 0.0

    def test_prior_model_balanced_half(self):
        d = generate_gaussian_dataset(n_per_class=6, n_features=3, seed=1)
        est = resubstitution_error("LDC", d, FeatureSubset(()), 0)
        assert est.value == 0.5
        assert est.kind == "RESUB"
        assert est.n_evaluations == 1

    def test_some_subset_achieves_zero_on_probe(self, sonar_surrogate):
        # the reference audit finds resubstitution 0 with 3 ranked features;
        # on a fresh probe we assert a 3-feature subset of the ranked top 10
        # reaches 0 as well
        from widefs.dataset import stratified_split
        from widefs.rankers import rank_features
        from itertools import combinations

        probe = stratified_split(sonar_surrogate, 10, seed=1).probe
        top = rank_features("SU", probe, 0).indices[:10]
        best = min(
            resubstitution_error("LDC", probe, FeatureSubset(c), 0).value
            for c in combinations(top, 3)
        )
        assert best == 0.0


class TestLeaveOneOut:
    def test_four_point_hand_case(self):
        d = labeled([[-2.0], [-1.0], [1.0], [2.0]], ["A", "A", "B", "B"])
        assert loo_error("NN1", d, None, 0).value == 0.0

    def test_classifier_dependence_patterns(self):
        from widefs.dataset import generate_classifier_dependent_pair

        d = generate_classifier_dependent_pair("ldc_wins", 0)
        assert loo_error("LDC", d, None, 0).value == 0.0
        assert loo_error("NN1", d, None, 0).value == 1.0

    @pytest.mark.parametrize("tag", ["SVML", "SVMG"])
    def test_svm_smoothed_equals_counting(self, tag):
        for seed in range(4):
            d = generate_gaussian_dataset(n_per_class=6, n_features=4, shift=0.8, seed=seed)
            counting = loo_error(tag, d, None, seed).value
            smoothed = loo_error(tag, d, None, seed, smoothed=True).value
            assert counting == smoothed

    def test_counting_is_multiple_of_one_over_n(self):
        for seed in range(4):
            d = generate_gaussian_dataset(n_per_class=5, n_features=4, shift=0.4, seed=seed)
            est = loo_error("DT", d, None, seed)
            assert (est.value * d.n_instances) == pytest.approx(round(est.value * d.n_instances))

    def test_n_evaluations_is_n(self):
        d = generate_gaussian_dataset(n_per_class=5, n_features=3, seed=2)
        assert loo_error("LDC", d, None, 0).n_evaluations == 10

    def test_two_instance_class_never_crashes(self):
        d = labeled([[0.0], [0.1], [5.0], [5.1], [4.9]], ["A", "A", "B", "B", "B"])
        est = loo_error("LDC", d, None, 0)
        assert 0.0 <= est.value <= 1.0


class TestClosedFormLooOracle:
    """The batched all-folds LOO of NN1, LDC and NB against a fold-by-fold
    refit.  At 20 or more columns the 20-row probe has k >= n, so LDC runs
    in its pseudo-inverse regime.  Candidate lists of mixed cardinality go
    through the stacked criterion, whose rows must equal the one-candidate
    call exactly."""

    @staticmethod
    def refit_folds(kind, X, y, seed):
        correct, p_true = [], []
        for i in range(len(y)):
            keep = np.arange(len(y)) != i
            model = _fit(classifier_kind(kind), X[keep], y[keep], seed)
            probs = predict_proba(model, X[i])
            p_true.append(probs[list(model.classes).index(y[i])] if y[i] in model.classes else 0.0)
            correct.append(predict_index(model, X[i]) == y[i])
        return np.array(correct), np.array(p_true)

    def check(self, kind, probe, cols, seed):
        X, y = probe.features[:, cols], probe.label_indices
        correct, p_true = loo_passes(kind, X, y, seed)
        ref_correct, ref_p_true = self.refit_folds(kind, X, y, seed)
        np.testing.assert_array_equal(correct, ref_correct)
        np.testing.assert_allclose(p_true, ref_p_true, rtol=0.0, atol=1e-10)

    def check_stack(self, kind, probe, candidates, seed):
        X, y = probe.features, probe.label_indices
        correct, p_true = stacked_loo_passes(kind, X, y, candidates, seed)
        assert correct.shape == p_true.shape == (len(candidates), len(y))
        for row, cand in enumerate(candidates):
            cols = np.asarray(cand, dtype=np.intp)
            one_correct, one_p_true = loo_passes(kind, X[:, cols], y, seed)
            assert np.array_equal(correct[row], one_correct)
            assert np.array_equal(p_true[row], one_p_true)
            ref_correct, ref_p_true = self.refit_folds(kind, X[:, cols], y, seed)
            np.testing.assert_array_equal(correct[row], ref_correct)
            np.testing.assert_allclose(p_true[row], ref_p_true, rtol=0.0, atol=1e-10)

    @staticmethod
    def mixed_candidates(probe, seed):
        """EX10, BEST3 and RND20 candidates (thinned), repeats and the empty subset."""
        ranked = rank_features("SU", probe, seed)
        rng = np.random.default_rng(seed)
        lists = [_candidate_subsets(selection_scheme(tag), ranked, probe.n_features, rng)
                 for tag in ("EX10", "BEST3", "RND20")]
        ex10, best3, rnd20 = lists
        return ex10[::41] + best3[::127] + rnd20[:6] + rnd20[:3] + [()] + ex10[::205]

    @pytest.mark.parametrize("tag", ["NN1", "LDC", "NB", "DT"])
    @pytest.mark.parametrize("name", ["sonar_surrogate", "gauss_wide"])
    def test_stacked_candidate_lists(self, tag, name, shipped):
        probe = stratified_split(shipped[name], 10, 1).probe
        self.check_stack(tag, probe, self.mixed_candidates(probe, 1), 1)

    @pytest.mark.parametrize("tag", ["NN1", "LDC", "NB"])
    @pytest.mark.parametrize("name", ["sonar_surrogate", "gauss_wide"])
    def test_matches_refit(self, tag, name, shipped):
        data = shipped[name]
        sizes = (1, 2, 3, 5, 10, 20, 60) + ((200,) if name == "gauss_wide" else ())
        for seed in (1, 2):
            probe = stratified_split(data, 10, seed).probe
            rng = np.random.default_rng(seed)
            for size in sizes:
                cols = np.sort(rng.choice(data.n_features, size=size, replace=False))
                self.check(tag, probe, cols, seed)

    @pytest.mark.parametrize("tag", ["NN1", "LDC", "NB"])
    def test_singleton_class_probe(self, tag, shipped):
        probe = stratified_split(shipped["sonar_surrogate"], 10, 3).probe
        rows = np.concatenate([np.flatnonzero(probe.label_indices == 0),
                               np.flatnonzero(probe.label_indices == 1)[:1]])
        self.check(tag, probe.take_rows(rows), np.arange(5), 3)
        self.check_stack(tag, probe.take_rows(rows), [(0, 1, 2), (), (3,), (4, 0), (0, 1, 2)], 3)


class TestHoldout:
    def test_constant_predictor_rate(self):
        # probe strongly favours A on the only feature; holdout 70/30 B-heavy
        probe = labeled([[0.0], [0.1], [0.2], [10.0]], ["A", "A", "A", "B"])
        model_errs = holdout_true_error(
            "NN1", probe,
            None,
            labeled([[0.05]] * 7 + [[0.06]] * 3, ["A"] * 7 + ["B"] * 3),
            0,
        )
        assert model_errs.value == pytest.approx(0.3)

    def test_degenerate_holdout_equals_resub(self):
        d = generate_gaussian_dataset(n_per_class=6, n_features=3, seed=4)
        resub = resubstitution_error("LDC", d, None, 0).value
        hold = holdout_true_error("LDC", d, None, d, 0).value
        assert resub == hold

    def test_class_mismatch_rejected(self):
        probe = labeled([[0.0], [1.0]], ["A", "B"])
        holdout = labeled([[0.0], [1.0]], ["A", "C"])
        with pytest.raises(ValueError, match="subset of probe classes"):
            holdout_true_error("NN1", probe, None, holdout, 0)


class TestProperRLoo:
    def test_all_scheme_equals_plain_loo(self):
        d = generate_gaussian_dataset(n_per_class=5, n_features=6, shift=0.7, seed=3)
        est, subset = proper_rloo_error("LDC", None, "ALL", d, 0)
        assert est.value == loo_error("LDC", d, None, 0).value
        assert est.kind == "RLOO"
        assert subset.indices == tuple(range(6))

    def test_budget_accounting(self):
        d = generate_gaussian_dataset(n_per_class=5, n_features=6, seed=3)
        est, _ = proper_rloo_error("LDC", "SU", "TOP3", d, 0)
        assert est.n_evaluations == 10 * 1 + 1
        est, _ = proper_rloo_error("NN1", None, "ALL", d, 0)
        assert est.n_evaluations == 11

    def test_stable_selection_collapses_to_loo(self):
        # overwhelming signal on features 0..2: every fold ranks them top-3
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 6))
        y = np.array([0] * 6 + [1] * 6)
        X[:, :3] += 40.0 * y[:, None]
        d = labeled(X, ["A" if v == 0 else "B" for v in y])
        est, subset = proper_rloo_error("LDC", "SU", "TOP3", d, 5)
        assert set(subset.indices) == {0, 1, 2}
        assert est.value == loo_error("LDC", d, subset, 5).value


class TestErrorEstimateType:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ErrorEstimate(value=1.2, kind="LOO", n_evaluations=1)
        with pytest.raises(ValueError):
            ErrorEstimate(value=0.5, kind="BOOT", n_evaluations=1)
