import itertools
import math

import numpy as np
import pytest

from widefs.harness import RunRecord
from widefs.stats import (
    RankMatrix,
    best_group,
    combination_ranking,
    friedman_test,
    glyph_rank_series,
    rank_rows,
    selector_rank_table,
)


class TestRankRows:
    def test_plain_row(self):
        assert list(rank_rows([[0.3, 0.1, 0.2]]).ranks[0]) == [3, 1, 2]

    def test_midranks_on_ties(self):
        assert list(rank_rows([[0.1, 0.1, 0.3]]).ranks[0]) == [1.5, 1.5, 3]

    def test_row_sums_always_k_choose(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            rows = rng.integers(0, 4, size=(6, k)) / 4.0  # many ties
            m = rank_rows(rows)
            assert np.allclose(m.ranks.sum(axis=1), k * (k + 1) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_rows(np.empty((0, 3)))


class TestFriedman:
    def test_hand_computed_case(self):
        ranks = np.tile([1.0, 2.0, 3.0], (4, 1))
        res = friedman_test(RankMatrix(ranks))
        assert res.statistic == pytest.approx(8.0, abs=1e-12)
        assert res.dof == 2
        assert res.p_value == pytest.approx(math.exp(-4.0), abs=1e-6)

    def test_all_tied_degenerate(self):
        ranks = np.full((5, 3), 2.0)
        res = friedman_test(RankMatrix(ranks))
        assert res.statistic == 0.0 and res.p_value == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        errors = rng.random((8, 4))
        a = friedman_test(rank_rows(errors))
        b = friedman_test(rank_rows(np.log(errors + 1.0)))
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_p_value_matches_permutation_oracle(self, seed):
        """Chi-squared p vs the exact permutation p on random 6x3 matrices,
        within +-0.02.

        The matrices carry a column effect so the statistic lands in the
        decision-relevant tail.  In the body of the null this agreement is
        unattainable for 6 blocks: the exact permutation distribution is
        discrete with steps up to 0.17, so P(Q >= 1.0) = 0.740 while any
        chi-squared-type tail gives 0.607.
        """
        p_obs, p_oracle = _oracle_pair(seed, shift=True)
        assert abs(p_obs - p_oracle) <= 0.02, (p_obs, p_oracle)

    def test_oracle_gap_in_null_body_is_known(self):
        # documents the approximation limit: a mid-distribution statistic
        # deviates from the exact permutation null by far more than the
        # tail tolerance (0.13 at Q=1.0)
        p_obs, p_oracle = _oracle_pair(0, shift=False)
        assert p_obs > 0.3  # lands in the body of the null
        assert abs(p_obs - p_oracle) > 0.02


def _oracle_pair(seed, shift):
    """(chi-squared p, exact permutation p) for one random 6x3 matrix.

    The permutation null enumerates all 6^6 = 46,656 ways to permute the
    ranks within each of the 6 rows; the statistic of each is computed with
    friedman_test's formula, whose tie-correction term no such permutation
    changes.
    """
    rng = np.random.default_rng(seed)
    errors = rng.random((6, 3))
    if shift:
        errors = errors + np.array([0.0, 0.8, 1.6])[None, :]
    m = rank_rows(errors)
    observed = friedman_test(m)
    perms = np.array(list(itertools.permutations(range(3))))  # (6, 3)
    choice = np.array(list(itertools.product(range(len(perms)), repeat=6)))  # (46656, 6)
    rows = np.arange(6)[None, :, None]
    permuted = m.ranks[rows, perms[choice]]  # (46656, 6, 3)
    n, k = m.ranks.shape
    s = np.sum((permuted.sum(axis=1) - n * (k + 1) / 2.0) ** 2, axis=1)
    stats = (k - 1) * s / (np.sum(m.ranks**2) - n * k * (k + 1) ** 2 / 4.0)
    return observed.p_value, float(np.mean(stats >= observed.statistic - 1e-12))


class TestBestGroup:
    def test_two_identical_and_one_worse(self):
        rng = np.random.default_rng(2)
        a = rng.random(30)
        errors = np.column_stack([a, a, a + 1.0])
        m = rank_rows(errors)
        group = best_group(m.average_ranks(), m, alpha=0.05)
        assert group == {0, 1}

    def test_all_identical_groups_everything(self):
        errors = np.tile(np.random.default_rng(3).random(10)[:, None], (1, 4))
        m = rank_rows(errors)
        assert best_group(m.average_ranks(), m) == {0, 1, 2, 3}

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        errors = rng.random((12, 5)) + np.linspace(0, 0.6, 5)[None, :]
        m = rank_rows(errors)
        sizes = [len(best_group(m.average_ranks(), m, alpha=a)) for a in (0.2, 0.1, 0.05, 0.01)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_contains_best(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            errors = rng.random((8, 4))
            m = rank_rows(errors)
            avg = m.average_ranks()
            group = best_group(avg, m, alpha=0.05)
            assert int(np.argmin(avg)) in group


def _fake_records(classifiers, rankers, selectors, datasets=("d1",), runs=1, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for ds in datasets:
        for run in range(1, runs + 1):
            for c in classifiers:
                records.append(RunRecord(
                    dataset=ds, run=run, classifier=c, ranker=None, selector="ALL",
                    subset=(0,), est_error=rng.random(), true_error=rng.random(),
                    evaluations=1, seed=0))
                for r in rankers:
                    for s in selectors:
                        records.append(RunRecord(
                            dataset=ds, run=run, classifier=c, ranker=r, selector=s,
                            subset=(0,), est_error=rng.random(), true_error=rng.random(),
                            evaluations=1, seed=0))
    return records


FULL_C = ("NN1", "DT", "LDC", "NB", "RF", "SVMG", "SVML")
FULL_R = ("SU", "RF_IMP", "RELIEFF", "SVM_W", "SVM_RFE")
FULL_S = ("TOP3", "TOP10", "TOP20", "BEST3", "EX10", "RND20")


class TestCombinationRanking:
    def test_full_grid_has_217_combinations(self):
        records = _fake_records(FULL_C, FULL_R, FULL_S, runs=2)
        combos = combination_ranking(records)
        assert len(combos) == 217
        avg = [row[3] for row in combos]
        assert all(a <= b for a, b in zip(avg, avg[1:]))

    def test_single_run_avg_equals_raw_rank(self):
        records = _fake_records(("LDC",), ("SU",), ("TOP3",), runs=1)
        combos = combination_ranking(records)
        assert sorted(row[3] for row in combos) == [1.0, 2.0]

    def test_incomplete_column_warns(self):
        records = _fake_records(("LDC",), ("SU",), ("TOP3",), runs=2)
        records = [r for r in records if not (r.run == 2 and r.selector == "TOP3")]
        with pytest.warns(UserWarning, match="incomplete"):
            combos = combination_ranking(records)
        assert len(combos) == 2


class TestSelectorTable:
    def test_shared_all_column(self):
        records = _fake_records(("LDC", "NN1"), ("SU", "RELIEFF"), ("TOP3", "EX10"), runs=3)
        rows = selector_rank_table(records)
        assert len(rows) == 4
        for row in rows:
            assert set(row["avg_ranks"]) == {"TOP3", "EX10", "ALL"}
            assert abs(sum(row["avg_ranks"].values()) - 6.0) < 1e-9
            assert row["best_group"] <= {"TOP3", "EX10", "ALL"}
            assert row["n_blocks"] == 3

    def test_glyph_series_shapes(self):
        records = _fake_records(("LDC", "NN1"), ("SU",), ("TOP3",), datasets=("d1", "d2", "d3"), runs=2)
        spokes, series = glyph_rank_series(records, "classifier")
        assert spokes == ["d1", "d2", "d3"]
        assert set(series) == {"LDC", "NN1"}
        assert all(len(v) == 3 for v in series.values())
        spokes, series = glyph_rank_series(records, "ranker")
        assert set(series) == {"SU", "ALL"}
        spokes, series = glyph_rank_series(records, "selector")
        assert set(series) == {"TOP3", "ALL"}
        with pytest.raises(ValueError, match="axis"):
            glyph_rank_series(records, "dataset")
