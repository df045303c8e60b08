"""Each of the benchmark's correctness checks passes on real widefs output
and fails on a corrupted copy of it.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import widefs  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SELECTORS = ("TOP3", "TOP10", "TOP20", "BEST3", "EX10")
CLASSIFIERS = ("NN1", "LDC")


@pytest.fixture(scope="module")
def datasets():
    return {d.name: d for d in widefs.harness.load_manifest(HERE.parent / "data" / "manifest.csv")}


@pytest.fixture(scope="module")
def grid(datasets):
    wide = datasets["gauss_wide"]
    config = widefs.harness.GridConfig(datasets=(wide,), runs=1, classifiers=CLASSIFIERS,
                                       rankers=("SU",), selectors=SELECTORS, master_seed=3)
    records = widefs.harness.run_grid(config)
    split = widefs.stratified_split(wide, 10, widefs.harness.cell_seed(3, wide.name, 1))
    arrays = (split.probe.features, split.probe.label_indices,
              split.holdout.features, split.holdout.label_indices)
    return records, {(wide.name, 1): arrays}, wide


def all_problems(records, splits, wide):
    return (
        checks.check_grid(records, {wide.name: wide.n_features}, {wide.name: wide.n_instances - 20},
                          1, CLASSIFIERS, ("SU",), SELECTORS)
        + checks.check_pools(records)
        + checks.check_minimum(records)
        + checks.check_reference(records, splits)
    )


def replace(records, selector, classifier, **changes):
    return [
        dataclasses.replace(r, **changes) if (r.selector, r.classifier) == (selector, classifier) else r
        for r in records
    ]


def test_real_grid_passes(grid):
    assert all_problems(*grid) == []


def test_shifted_est_error_fails(grid):
    records, splits, wide = grid
    ldc_top10 = next(r for r in records if (r.selector, r.classifier) == ("TOP10", "LDC"))
    bad = replace(records, "TOP10", "LDC", est_error=ldc_top10.est_error + 0.01)
    assert any("est_error" in p for p in checks.check_reference(bad, splits))


def test_subset_outside_pool_fails(grid):
    records, splits, wide = grid
    top20 = next(r.subset for r in records if r.selector == "TOP20")
    bad = replace(records, "EX10", "LDC", subset=(top20[15],))
    assert any("outside the top 10" in p for p in checks.check_pools(bad))


def test_dropped_record_fails(grid):
    records, splits, wide = grid
    assert any("grid formula" in p for p in all_problems(records[1:], splits, wide))


def test_non_minimal_ex10_fails(grid):
    records, splits, wide = grid
    Xp, yp, Xh, yh = splits[(wide.name, 1)]
    pool = next(r.subset for r in records if r.selector == "TOP10")
    values = reference.exhaustive_sloo("NN1", Xp, yp, pool)
    worse = int(np.argsort(values)[1])  # second best: consistent, but not the minimum
    subset = tuple(pool[j] for j in range(10) if worse >> j & 1)
    ref = reference.estimates("NN1", Xp, yp, subset, Xh, yh)
    bad = replace(records, "EX10", "NN1", subset=subset, est_error=ref["sloo"], true_error=ref["holdout"])
    problems = checks.check_reference(bad, splits)
    assert problems and all("minimum over the pool" in p for p in problems)


def test_ex10_above_top3_fails(grid):
    records, splits, wide = grid
    bad = replace(records, "EX10", "LDC", est_error=1.0)
    assert any("EX10" in p for p in checks.check_minimum(bad))


def test_rank_rows(grid):
    records, _, _ = grid
    rows = widefs.stats.selector_rank_table(records + records_on_second_dataset(records))
    assert checks.check_rank_rows(rows, CLASSIFIERS, ("SU",), len(SELECTORS) + 1) == []
    rows[0]["avg_ranks"]["EX10"] += 0.5
    assert checks.check_rank_rows(rows, CLASSIFIERS, ("SU",), len(SELECTORS) + 1)


def records_on_second_dataset(records):
    """A second block with the same ranks, so the Friedman test has two rows."""
    return [dataclasses.replace(r, dataset="copy") for r in records]


@pytest.fixture(scope="module")
def case_study(datasets):
    sonar = datasets["sonar_surrogate"]
    bundle = widefs.harness.sonar_case_study(1, sonar)
    split = widefs.stratified_split(sonar, 10, 1)
    arrays = (split.probe.features, split.probe.label_indices,
              split.holdout.features, split.holdout.label_indices)
    return bundle, arrays


def test_case_study_passes_and_shifted_winner_fails(case_study):
    bundle, arrays = case_study
    assert checks.check_case_study(bundle, *arrays) == []
    bad = dataclasses.replace(bundle, best=json.loads(json.dumps(bundle.best)))
    bad.best["SLOO"]["predicted"] += 0.01
    assert any("SLOO predicted" in p for p in checks.check_case_study(bad, *arrays))


def test_case_study_shifted_column_fails(case_study):
    bundle, arrays = case_study
    loo = bundle.loo.copy()
    loo[0] += 1.0 / 20  # the singleton {1}: still on the 1/20 grid
    bad = dataclasses.replace(bundle, loo=loo)
    assert any("LOO of (1,)" in p for p in checks.check_case_study(bad, *arrays))


def test_rloo_subset_must_be_pool_minimum(case_study, datasets):
    _, (Xp, yp, _, _) = case_study
    probe = widefs.stratified_split(datasets["sonar_surrogate"], 10, 1).probe
    pool = list(widefs.rank_features("SU", probe, 1).indices[:10])
    values = reference.exhaustive_sloo("LDC", Xp, yp, pool)
    estimate = widefs.ErrorEstimate(value=0.25, kind="RLOO", n_evaluations=21 * 1024)

    def subset(mask):
        return widefs.FeatureSubset(tuple(pool[j] for j in range(10) if mask >> j & 1))

    best, second = np.argsort(values)[:2]
    assert checks.check_rloo("LDC", estimate, subset(int(best)), Xp, yp, pool) == []
    assert checks.check_rloo("LDC", estimate, subset(int(second)), Xp, yp, pool)
    off_grid = dataclasses.replace(estimate, value=0.26)
    assert checks.check_rloo("LDC", off_grid, subset(int(best)), Xp, yp, pool)


def test_kkt_check_flags_the_known_unconverged_problem(datasets):
    wide = datasets["gauss_wide"]
    probe = widefs.stratified_split(wide, 10, widefs.harness.cell_seed(workloads.KKT_MASTER_SEED, wide.name, 1)).probe
    kind = widefs.classifier_kind("SVML")
    converged = [checks.kkt_converged(g, kind) for g, _ in checks.svm_kkt_gaps(widefs.train, kind, probe, None)]
    assert all(converged) and len(converged) == 21
    gaps = checks.svm_kkt_gaps(widefs.train, kind, probe, (6, 177, 5))
    assert not all(checks.kkt_converged(g, kind) for g, _ in gaps)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in metrics.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry, (name, unit, better) in zip(spec["end_to_end"] + spec["per_layer"],
                                           metrics.END_TO_END + metrics.PER_LAYER):
        assert (entry["unit"], entry["better"]) == (unit, better), name
