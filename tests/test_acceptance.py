"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  The heavy benchmark criteria are marked slow; everything
runs by default.
"""

import math
import time
import warnings

import numpy as np
import pytest

from widefs.classifiers import classifier_kind
from widefs.dataset import (
    FeatureSubset,
    generate_classifier_dependent_pair,
    generate_gaussian_dataset,
)
from widefs.estimators import loo_error, proper_rloo_error, resubstitution_error
from widefs.harness import GridConfig, run_grid, sonar_case_study
from widefs.rankers import rank_features, top_k
from widefs.report import GlyphSpec, emit_glyph_svg, emit_rank_table, emit_scatter_svg
from widefs.samplesize import (
    McNemarPlan,
    chi2_inv_cdf,
    mcnemar_sample_size,
    normal_inv_cdf,
    sample_size_curve,
)
from widefs.selectors import select, selection_scheme
from widefs.stats import RankMatrix, friedman_test, rank_rows, selector_rank_table

from test_stats import exact_permutation_p


def ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_01_sample_size_reproduction():
    """McNemar sample sizes match the published worked examples."""
    n_indep = mcnemar_sample_size(McNemarPlan(0.85, 0.80, 0.68, 0.05))
    n_agree = mcnemar_sample_size(McNemarPlan(0.85, 0.80, 0.80, 0.05))
    assert abs(n_indep - 445.6) <= 0.5
    assert abs(n_agree - 77) <= 1
    ok("1", f"(N={n_indep:.1f}, N={n_agree:.1f})")


def test_02_curve_shape():
    """Required-N curve decreasing over p1 in [0.55, 0.95]; stricter alpha dominates."""
    p1s = np.round(np.arange(0.55, 0.9501, 0.005), 6)
    rows = sample_size_curve(p1s, 0.05, [0.05, 0.01])
    series = {}
    for p1, alpha, n in rows:
        series.setdefault(alpha, []).append(n)
    for alpha, ns in series.items():
        assert all(a > b for a, b in zip(ns, ns[1:])), f"not strictly decreasing at {alpha}"
    assert all(strict > loose for loose, strict in zip(series[0.05], series[0.01]))
    ok("2", f"({len(p1s)} grid points, both alphas)")


def _simpson(f, a, b, n=4000):
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def test_03_quantile_kernels_vs_bruteforce():
    """Native quantile kernels agree with brute-force CDF integration."""
    # chi-squared with 1 dof via the t = u^2 substitution
    chi2_cdf_1 = lambda x: _simpson(
        lambda u: 2.0 * math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi), 0.0, math.sqrt(x)
    )
    lo, hi = 0.0, 50.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if chi2_cdf_1(mid) < 0.95 else (lo, mid)
    chi_oracle = 0.5 * (lo + hi)
    assert abs(chi2_inv_cdf(0.95, 1) - 3.8415) <= 1e-3
    assert abs(chi2_inv_cdf(0.95, 1) - chi_oracle) <= 1e-6

    normal_cdf = lambda x: 0.5 + math.copysign(
        _simpson(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), 0.0, abs(x)), x
    )
    lo, hi = -10.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if normal_cdf(mid) < 0.95 else (lo, mid)
    norm_oracle = 0.5 * (lo + hi)
    assert abs(normal_inv_cdf(0.95) - 1.6449) <= 1e-3
    assert abs(normal_inv_cdf(0.95) - norm_oracle) <= 1e-6
    ok("3", f"(chi2={chi2_inv_cdf(0.95, 1):.6f}, z={normal_inv_cdf(0.95):.6f})")


def test_04_classifier_dependence_patterns():
    """Synthetic pair reproduces the crossed LOO pattern exactly, quickly."""
    start = time.perf_counter()
    for mode, (want_ldc, want_nn) in (("ldc_wins", (0.0, 1.0)), ("nn_wins", (1.0, 0.0))):
        d = generate_classifier_dependent_pair(mode, seed=0)
        assert loo_error("LDC", d, None, 0).value == want_ldc
        assert loo_error("NN1", d, None, 0).value == want_nn
        for f in (0, 1):
            for kind in ("LDC", "NN1"):
                assert loo_error(kind, d, FeatureSubset((f,)), 0).value >= 0.4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok("4", f"({elapsed:.2f}s)")


def test_05_selector_budgets():
    """BEST3 = 1140, EX10 = 1024 (empty set included), RND20 = 1024 evaluations."""
    d = generate_gaussian_dataset(n_per_class=3, n_features=22, n_informative=4, seed=2)
    ranked = rank_features("SU", d, 0)
    budgets = {}
    for tag in ("BEST3", "EX10", "RND20"):
        budgets[tag] = select(tag, ranked, "NN1", d, 5).evaluations
    assert budgets == {"BEST3": 1140, "EX10": 1024, "RND20": 1024}
    from widefs.selectors import _candidate_subsets

    cands = _candidate_subsets(selection_scheme("EX10"), ranked, d.n_features, None)
    assert () in cands and len(cands) == 1024
    ok("5", f"({budgets})")


def test_06_exhaustive_search_oracle():
    """EX-style selection equals independent brute-force enumeration, 20 probes."""
    from widefs import selectors as sel

    kind = classifier_kind("LDC")
    for seed in range(20):
        d = generate_gaussian_dataset(
            n_per_class=4, n_features=5, n_informative=2, shift=0.5, seed=seed
        )
        pool = tuple(range(5))

        class _PoolScheme(sel.SelectionScheme):
            @property
            def budget(self):
                return 32

            @property
            def pool_size(self):
                return 5

        ranked = sel.RankedList(indices=pool, scores=(5.0, 4.0, 3.0, 2.0, 1.0))
        got = sel.select(_PoolScheme("EX10"), ranked, kind, d, seed)

        cands = [tuple(j for j in pool if mask >> j & 1) for mask in range(32)]
        values = np.array([loo_error(kind, d, c, seed, smoothed=True).value for c in cands])
        best = values.min()
        tied = [cands[i] for i in np.flatnonzero(values == best)]
        min_card = min(len(c) for c in tied)
        shortlist = list(dict.fromkeys(c for c in tied if len(c) == min_card))
        rng = np.random.default_rng(seed)
        expect = shortlist[0] if len(shortlist) == 1 else shortlist[int(rng.integers(len(shortlist)))]
        assert got.criterion.value == best
        assert got.subset.indices == expect
    ok("6", "(20 probes, exact minima and tie-resolved subsets)")


@pytest.mark.slow
def test_07_estimator_ordering():
    """mean resub <= mean LOO + 0.01 and mean LOO-after-selection <= mean r-LOO + 0.01."""
    resubs, loos, rloos = [], [], []
    for seed in range(50):
        probe = generate_gaussian_dataset(
            n_per_class=20, n_features=20, n_informative=3, shift=1.0, seed=seed
        )
        ranked = rank_features("SU", probe, seed)
        sub = top_k(ranked, 3)
        resubs.append(resubstitution_error("LDC", probe, sub, seed).value)
        loos.append(loo_error("LDC", probe, sub, seed).value)
        rloos.append(proper_rloo_error("LDC", "SU", "TOP3", probe, seed)[0].value)
    m_resub, m_loo, m_rloo = np.mean(resubs), np.mean(loos), np.mean(rloos)
    assert m_resub <= m_loo + 0.01
    assert m_loo <= m_rloo + 0.01
    ok("7", f"(resub {m_resub:.3f} <= loo {m_loo:.3f} <= rloo {m_rloo:.3f}, 50 probes)")


@pytest.mark.slow
def test_08_case_study(sonar_surrogate):
    """Exhaustive top-10 audit: 1023 rows, a resub-0 subset exists, and the
    smoothed-LOO estimate barely tracks the holdout error (mean r < 0.5).

    Reference values reported for this protocol on the classic sonar
    benchmark depend on an unrecoverable probe draw, so only structural
    properties are asserted; see the README's reproduction notes."""
    corrs = []
    for seed in range(1, 11):
        bundle = sonar_case_study(seed, sonar_surrogate)
        assert len(bundle.subsets) == 1023
        assert bundle.resub.min() == 0.0
        corrs.append(float(np.corrcoef(bundle.sloo, bundle.true)[0, 1]))
    mean_corr = float(np.mean(corrs))
    assert mean_corr < 0.5
    ok("8", f"(10 probes, mean corr(sLOO, holdout) = {mean_corr:.3f})")


@pytest.mark.slow
def test_09a_full_grid_bookkeeping(tmp_path):
    """Full-config single-dataset grid: exactly 2,170 records, byte-identical
    between a 1-worker and a 2-worker run with the same master seed.

    The dataset is a small synthetic stand-in and the forest is shrunk via
    the documented hyperparameter override; neither affects the record
    count, ordering, or determinism contract under test."""
    d = generate_gaussian_dataset(
        n_per_class=8, n_features=21, n_informative=5, shift=1.0, seed=7, name="tiny_wide"
    )
    config = GridConfig(
        datasets=(d,), per_class=2, runs=10, master_seed=5,
        hyperparams=(("rf.n_trees", 3),),
    )
    assert config.expected_records() == 2170
    a, b = tmp_path / "w2.jsonl", tmp_path / "w1.jsonl"
    records = run_grid(config, out_path=a, workers=2)
    assert len(records) == 2170
    assert sum(1 for r in records if r.error) == 0
    run_grid(config, out_path=b, workers=1)
    assert a.read_bytes() == b.read_bytes()
    ok("9a", "(2170 records, byte-identical across reruns and worker counts)")


@pytest.mark.slow
def test_09b_desk_grid_runtime(desk_grid):
    """The in-repo reduced grid finishes well under the 10-minute budget."""
    config, records, elapsed = desk_grid
    assert len(records) == config.expected_records() == 84
    assert sum(1 for r in records if r.error) == 0
    assert elapsed < 600.0
    ok("9b", f"(84 records in {elapsed:.0f}s)")


def test_10_friedman_correctness():
    """Hand-computed statistic/p-value, plus permutation-oracle agreement in
    the significance-relevant tail.

    For 6x3 layouts the exact conditional null is discrete with steps up
    to 0.17, so no chi-squared-type p-value can track the oracle within
    0.02 in the body of the null (P(Q>=1.0)=0.740 vs tail 0.607 by full
    enumeration); agreement is therefore asserted where decisions are
    made.  See the companion unit test for the documented body gap."""
    res = friedman_test(RankMatrix(np.tile([1.0, 2.0, 3.0], (4, 1))))
    assert res.statistic == pytest.approx(8.0, abs=1e-12)
    assert res.p_value == pytest.approx(0.0183, abs=2e-4)

    rng_matrix = np.random.default_rng(0)
    checked = 0
    for _ in range(3):
        errors = rng_matrix.random((6, 3)) + np.array([0.0, 0.8, 1.6])[None, :]
        m = rank_rows(errors)
        observed = friedman_test(m)
        p_oracle = exact_permutation_p(m)
        assert abs(observed.p_value - p_oracle) <= 0.02, (observed.p_value, p_oracle)
        checked += 1
    ok("10", f"(statistic 8.0, p {res.p_value:.4f}; {checked} oracle matrices within 0.02)")


@pytest.mark.slow
def test_11_tendency_no_selection_wins_for_linear(desk_grid):
    """Soft check: ALL attains one of the two best selector ranks for the
    linear classifiers in the desk rerun.  A miss warns, never fails,
    because the native classifiers are not bit-compatible re-creations of
    the original toolkit's."""
    _, records, _ = desk_grid
    rows = selector_rank_table(records, metric="true")
    misses = []
    for row in rows:
        if row["classifier"] not in ("LDC", "SVML"):
            continue
        ordered = sorted(row["avg_ranks"], key=row["avg_ranks"].get)
        if "ALL" not in ordered[:2]:
            misses.append((row["classifier"], row["ranker"], row["avg_ranks"]))
    if misses:
        warnings.warn(f"no-selection baseline not in top 2 for: {misses}")
        ok("11", f"(WARNED: {len(misses)} rows missed the tendency)")
    else:
        ok("11", "(ALL in top-2 selector ranks for every LDC/SVML row)")


def test_12_report_determinism(tmp_path, sonar_surrogate):
    """Emitters are byte-stable and the case-study scatter holds 3x1023 points."""
    bundle = sonar_case_study(1, sonar_surrogate, per_class=4)
    panels = [
        (label, est, bundle.true, "best: " + ",".join(map(str, bundle.best[key]["positions"])))
        for (label, est), key in zip(bundle.scatter_panels(), ("RESUB", "LOO", "SLOO"))
    ]
    s1 = emit_scatter_svg(panels, tmp_path / "s1.svg")
    s2 = emit_scatter_svg(panels, tmp_path / "s2.svg")
    assert s1.read_bytes() == s2.read_bytes()
    assert s1.read_text(encoding="utf-8").count("<circle") == 3 * 1023

    rows = [{
        "classifier": "LDC", "ranker": "SU", "selectors": ("TOP3", "ALL"),
        "avg_ranks": {"TOP3": 2.0, "ALL": 1.0}, "best_group": {"ALL"}, "n_blocks": 6,
    }]
    h1, c1 = emit_rank_table(rows, tmp_path / "t1.html")
    h2, c2 = emit_rank_table(rows, tmp_path / "t2.html")
    assert h1.read_bytes() == h2.read_bytes() and c1.read_bytes() == c2.read_bytes()

    spec = GlyphSpec(
        spokes=("a", "b", "c", "d"),
        series=(("m1", (1.0, 2.0, 1.0, 2.0)), ("m2", (2.0, 1.0, 2.0, 1.0))),
    )
    g1 = emit_glyph_svg(spec, tmp_path / "g1.svg")
    g2 = emit_glyph_svg(spec, tmp_path / "g2.svg")
    assert g1.read_bytes() == g2.read_bytes()
    ok("12", "(scatter 3x1023, byte-stable emitters)")
