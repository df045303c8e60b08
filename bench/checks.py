"""Correctness checks on widefs outputs, made apart from the program.

Each check returns a list of problems (empty when the output is correct).
The budgets, pool sizes and grid formula below are the paper's protocol,
restated here rather than read from widefs.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

import numpy as np

import reference

BUDGET = {"ALL": 1, "TOP3": 1, "TOP10": 1, "TOP20": 1, "BEST3": 1140, "EX10": 1024, "RND20": 1024}
POOL = {"EX10": "TOP10", "RND20": "TOP20", "BEST3": "TOP20"}
TOPK = {"TOP3": 3, "TOP10": 10, "TOP20": 20, "BEST3": 3}
# the pool winner is itself a candidate, so these orderings must hold
NOT_WORSE = (("EX10", "TOP10"), ("EX10", "TOP3"), ("BEST3", "TOP3"))
ROUND_OFF = 1e-9
PROBE_SIZE = 20  # 10 instances per class, two classes


def _multiple_of(value, denominator):
    return abs(value * denominator - round(value * denominator)) <= ROUND_OFF


def check_grid(records, n_features, n_holdout, runs, classifiers, rankers, selectors):
    """Counts, budgets, subset shapes and value ranges of one grid's records.

    ``n_features`` and ``n_holdout`` map dataset name to its width and
    holdout size; ``selectors`` are the ranked schemes (ALL is implied).
    """
    problems = []
    datasets = sorted(n_features)
    expected = len(datasets) * runs * (len(classifiers) + len(classifiers) * len(rankers) * len(selectors))
    if len(records) != expected:
        problems.append(f"{len(records)} records, grid formula gives {expected}")
    keys = {(d, r, c, None, "ALL") for d in datasets for r in range(1, runs + 1) for c in classifiers}
    keys |= {
        (d, r, c, k, s)
        for d in datasets for r in range(1, runs + 1)
        for c in classifiers for k in rankers for s in selectors
    }
    seen = [rec.key for rec in records]
    if len(set(seen)) != len(seen):
        problems.append("duplicate record keys")
    if set(seen) != keys:
        problems.append(f"record keys differ from the grid: {len(keys - set(seen))} missing, "
                        f"{len(set(seen) - keys)} unexpected")
    for rec in records:
        where = "/".join(str(p) for p in rec.key)
        if rec.error is not None:
            problems.append(f"{where}: error record: {rec.error}")
            continue
        if rec.evaluations != BUDGET[rec.selector]:
            problems.append(f"{where}: {rec.evaluations} evaluations, budget {BUDGET[rec.selector]}")
        width = n_features[rec.dataset]
        subset = rec.subset
        if len(set(subset)) != len(subset) or any(not 0 <= j < width for j in subset):
            problems.append(f"{where}: subset indices invalid")
        if rec.selector == "ALL" and tuple(subset) != tuple(range(width)):
            problems.append(f"{where}: ALL subset is not every feature")
        if rec.selector in TOPK and len(subset) != TOPK[rec.selector]:
            problems.append(f"{where}: {len(subset)} features, expected {TOPK[rec.selector]}")
        for name, value in (("est_error", rec.est_error), ("true_error", rec.true_error)):
            if not 0.0 <= value <= 1.0:
                problems.append(f"{where}: {name} {value} outside [0, 1]")
        if rec.classifier in ("SVML", "SVMG") and not _multiple_of(rec.est_error, PROBE_SIZE):
            problems.append(f"{where}: SVM est_error {rec.est_error} not a multiple of 1/{PROBE_SIZE}")
        if not _multiple_of(rec.true_error, n_holdout[rec.dataset]):
            problems.append(f"{where}: true_error {rec.true_error} not a multiple of 1/{n_holdout[rec.dataset]}")
    return problems


def _cells(records):
    """{(dataset, run, classifier, ranker): {selector: record}}; ALL is
    shared by every ranker of its classifier."""
    cells = defaultdict(dict)
    rankers = {rec.ranker for rec in records if rec.ranker is not None}
    for rec in records:
        if rec.error is not None:
            continue
        for ranker in (rankers if rec.ranker is None else (rec.ranker,)):
            cells[(rec.dataset, rec.run, rec.classifier, ranker)][rec.selector] = rec
    return cells


def ranked_prefixes(records):
    """{(dataset, run, ranker): {k: top-k tuple}} read off the TOPk records."""
    prefixes = defaultdict(dict)
    for rec in records:
        if rec.error is None and rec.selector in ("TOP3", "TOP10", "TOP20"):
            prefixes[(rec.dataset, rec.run, rec.ranker)].setdefault(int(rec.selector[3:]), tuple(rec.subset))
    return prefixes


def check_pools(records):
    """Ranked prefixes agree across classifiers, and each searched winner
    lies within its scheme's pool."""
    problems = []
    prefixes = ranked_prefixes(records)
    for rec in records:
        if rec.error is not None or rec.ranker is None:
            continue
        where = "/".join(str(p) for p in rec.key)
        known = prefixes[(rec.dataset, rec.run, rec.ranker)]
        if rec.selector in ("TOP3", "TOP10", "TOP20"):
            k = int(rec.selector[3:])
            if tuple(rec.subset) != known[k]:
                problems.append(f"{where}: top-{k} differs between classifiers")
            longer = [known[j] for j in sorted(known) if j > k]
            if longer and tuple(longer[0][:k]) != tuple(rec.subset):
                problems.append(f"{where}: top-{k} is not a prefix of the longer ranking")
        if rec.selector in POOL:
            k = int(POOL[rec.selector][3:])
            pool = known.get(k)
            if pool is None:
                problems.append(f"{where}: no {POOL[rec.selector]} record to check the pool against")
            elif not set(rec.subset) <= set(pool):
                problems.append(f"{where}: subset {rec.subset} outside the top {k}")
    return problems


def check_minimum(records):
    """est_error of a search is never above that of a candidate it contains."""
    problems = []
    for key, by_sel in _cells(records).items():
        for better, worse in NOT_WORSE:
            if better in by_sel and worse in by_sel:
                if by_sel[better].est_error > by_sel[worse].est_error + ROUND_OFF:
                    problems.append(
                        f"{'/'.join(map(str, key))}: est_error {better} {by_sel[better].est_error} "
                        f"> {worse} {by_sel[worse].est_error}"
                    )
    return problems


def check_reference(records, splits):
    """Recompute est_error and true_error of every NN1 and LDC record, and
    the EX10 minimum of every NN1 cell over all 1024 candidates.

    ``splits`` maps (dataset, run) to (probe X, probe y, holdout X, holdout y).
    """
    problems = []
    prefixes = ranked_prefixes(records)
    for rec in records:
        if rec.error is not None or rec.classifier not in ("NN1", "LDC"):
            continue
        where = "/".join(str(p) for p in rec.key)
        Xp, yp, Xh, yh = splits[(rec.dataset, rec.run)]
        ref = reference.estimates(rec.classifier, Xp, yp, rec.subset, Xh, yh)
        if abs(ref["sloo"] - rec.est_error) > ROUND_OFF:
            problems.append(f"{where}: est_error {rec.est_error}, reference {ref['sloo']}")
        if abs(ref["holdout"] - rec.true_error) > ROUND_OFF:
            problems.append(f"{where}: true_error {rec.true_error}, reference {ref['holdout']}")
        if rec.classifier == "NN1" and rec.selector == "EX10":
            pool = prefixes[(rec.dataset, rec.run, rec.ranker)].get(10)
            if pool is None:
                problems.append(f"{where}: no TOP10 record to enumerate the pool from")
                continue
            best = float(reference.exhaustive_sloo("NN1", Xp, yp, pool).min())
            if abs(rec.est_error - best) > ROUND_OFF:
                problems.append(f"{where}: est_error {rec.est_error}, minimum over the pool {best}")
    return problems


def check_rank_rows(rows, classifiers, rankers, n_selectors):
    """One row per (classifier, ranker); each row's average ranks sum to k(k+1)/2."""
    problems = []
    pairs = sorted((row["classifier"], row["ranker"]) for row in rows)
    if pairs != sorted((c, r) for c in classifiers for r in rankers):
        problems.append(f"rank table rows {pairs} do not cover every classifier/ranker pair")
    target = n_selectors * (n_selectors + 1) / 2
    for row in rows:
        ranks = list(row["avg_ranks"].values())
        if len(ranks) != n_selectors or abs(sum(ranks) - target) > ROUND_OFF:
            problems.append(f"{row['classifier']}/{row['ranker']}: average ranks sum to "
                            f"{sum(ranks)}, expected {target}")
    return problems


def check_case_study(bundle, Xp, yp, Xh, yh, pool=10):
    """Every subset of the pool scored once; winners are column minima;
    singletons, the full pool and every winner match the reference LDC."""
    problems = []
    n, n_hold = len(yp), len(yh)
    expected = {tuple(s) for k in range(1, pool + 1) for s in combinations(range(1, pool + 1), k)}
    subsets = [tuple(s) for s in bundle.subsets]
    if len(subsets) != len(expected) or set(subsets) != expected:
        problems.append(f"probe {bundle.probe_seed}: subsets are not the {len(expected)} non-empty subsets")
        return problems
    columns = {"RESUB": bundle.resub, "LOO": bundle.loo, "SLOO": bundle.sloo, "TRUE": bundle.true}
    for label, values in columns.items():
        if len(values) != len(subsets) or not np.all((values >= 0) & (values <= 1)):
            problems.append(f"probe {bundle.probe_seed}: {label} column malformed")
    for label, denominator in (("RESUB", n), ("LOO", n), ("TRUE", n_hold)):
        if not all(_multiple_of(v, denominator) for v in columns[label]):
            problems.append(f"probe {bundle.probe_seed}: {label} values not multiples of 1/{denominator}")
    index = {s: i for i, s in enumerate(subsets)}
    checked = {(j,) for j in range(1, pool + 1)} | {tuple(range(1, pool + 1))}
    for label, values in columns.items():
        best = bundle.best[label]
        i = index[tuple(best["positions"])]
        checked.add(subsets[i])
        if abs(values[i] - values.min()) > ROUND_OFF:
            problems.append(f"probe {bundle.probe_seed}: {label} winner is not the column minimum")
        if label != "TRUE" and abs(best["predicted"] - values.min()) > ROUND_OFF:
            problems.append(f"probe {bundle.probe_seed}: {label} predicted {best['predicted']} "
                            f"is not the column minimum {values.min()}")
        if abs(best["true_error"] - bundle.true[i]) > ROUND_OFF:
            problems.append(f"probe {bundle.probe_seed}: {label} true_error disagrees with the TRUE column")
    for positions in sorted(checked):
        cols = [bundle.top_features[p - 1] for p in positions]
        ref = reference.estimates("LDC", Xp, yp, cols, Xh, yh)
        i = index[positions]
        for label, key in (("RESUB", "resub"), ("LOO", "loo"), ("SLOO", "sloo"), ("TRUE", "holdout")):
            if abs(columns[label][i] - ref[key]) > ROUND_OFF:
                problems.append(f"probe {bundle.probe_seed}: {label} of {positions} is "
                                f"{columns[label][i]}, reference {ref[key]}")
    return problems


def check_rloo(tag, estimate, subset, Xp, yp, pool, budget=BUDGET["EX10"]):
    """Counting estimate on the 1/n grid, the protocol's evaluation count,
    and a returned subset that is classifier ``tag``'s EX10 minimum over
    the probe's pool."""
    problems = []
    n = len(yp)
    if not _multiple_of(estimate.value, n):
        problems.append(f"r-LOO estimate {estimate.value} not a multiple of 1/{n}")
    if estimate.n_evaluations != (n + 1) * budget:
        problems.append(f"r-LOO counted {estimate.n_evaluations} evaluations, expected {(n + 1) * budget}")
    chosen = tuple(subset.indices)
    if not set(chosen) <= set(pool):
        problems.append(f"r-LOO subset {chosen} outside the top {len(pool)}")
        return problems
    values = reference.exhaustive_sloo(tag, Xp, yp, pool)
    mask = sum(1 << pool.index(j) for j in chosen)
    if abs(values[mask] - values.min()) > ROUND_OFF:
        problems.append(f"r-LOO subset {chosen} scores {values[mask]}, pool minimum {values.min()}")
    return problems


KKT_MARGIN = 1e-6


def svm_kkt_gaps(train, kind, probe, subset):
    """[(KKT gap, support-vector share)] of the SVM that ``train`` fits on the
    whole probe and on each of its leave-one-out folds."""
    c = dict(kind.hyperparams)["c"]
    cols = list(range(probe.n_features)) if subset is None else list(subset)
    n = probe.n_instances
    folds = [probe] + [probe.take_rows(np.delete(np.arange(n), i)) for i in range(n)]
    out = []
    for data in folds:
        model = train(kind, data, cols, 0)
        out.append(reference.svm_kkt(model.state, data.features[:, cols], data.label_indices, c))
    return out


def kkt_converged(gap, kind):
    return gap <= dict(kind.hyperparams)["tol"] + KKT_MARGIN
