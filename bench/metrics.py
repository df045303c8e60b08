"""Names, units and directions of the benchmark's metrics, and the
per-layer metrics computed from a trace.

The per-layer names follow the widefs modules (the layers).  A layer a
workload does not exercise reads zero on that workload.
"""

from __future__ import annotations

import numpy as np

CLASSIFIERS = ("NN1", "LDC", "NB", "SVML", "SVMG", "DT", "RF")
RANKERS = ("SU", "RF_IMP", "RELIEFF", "SVM_W", "SVM_RFE")
SELECTORS = ("ALL", "TOP3", "TOP10", "TOP20", "BEST3", "EX10", "RND20")
# (sLOO calls, train calls) per probe case; 4 cases, so >= 100 calls give a p90
MICRO_REPS = {"NN1": (50, 50), "LDC": (50, 50), "NB": (50, 50),
              "SVML": (25, 25), "SVMG": (25, 25), "DT": (25, 25), "RF": (1, 5)}
P90_MIN_CALLS = 100

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("criteria_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer_specs():
    specs = [("dataset.load_s", "s", "lower"), ("dataset.split_s", "s", "lower"),
             ("rankers.calls", "count", "lower")]
    specs += [(f"rankers.rank_s.{r}", "s", "lower") for r in RANKERS]
    specs += [(f"selectors.select_s.{s}", "s", "lower") for s in SELECTORS]
    specs += [("selectors.self_s", "s", "lower"), ("selectors.candidates", "count", "higher"),
              ("selectors.criterion_share", "ratio", "lower")]
    specs += [(f"estimators.sloo_s.{c}", "s", "lower") for c in CLASSIFIERS]
    specs += [(f"estimators.sloo_calls.{c}", "count", "lower") for c in CLASSIFIERS]
    specs += [("estimators.holdout_s", "s", "lower"), ("estimators.holdout_calls", "count", "lower"),
              ("estimators.rloo_s", "s", "lower"), ("harness.case_study_s", "s", "lower"),
              ("harness.run_grid_s", "s", "lower"), ("harness.self_s", "s", "lower"),
              ("harness.span_coverage", "ratio", "higher"),
              ("stats.analyze_s", "s", "lower"), ("report.emit_s", "s", "lower")]
    for c in CLASSIFIERS:
        specs.append((f"estimators.sloo_ms.{c}", "ms", "lower"))
        if 4 * MICRO_REPS[c][0] >= P90_MIN_CALLS:
            specs.append((f"estimators.sloo_p90_ms.{c}", "ms", "lower"))
    for c in CLASSIFIERS:
        specs.append((f"classifiers.train_ms.{c}", "ms", "lower"))
        if 4 * MICRO_REPS[c][1] >= P90_MIN_CALLS:
            specs.append((f"classifiers.train_p90_ms.{c}", "ms", "lower"))
    specs += [("classifiers.svm_solves", "count", "lower"),
              ("classifiers.svm_unconverged", "count", "lower"),
              ("classifiers.svm_sv_share.SVML", "ratio", "lower"),
              ("classifiers.svm_sv_share.SVMG", "ratio", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return tuple(specs)


PER_LAYER = _per_layer_specs()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

GRID_CHILDREN = {"dataset.split", "rankers.rank", "selectors.select", "estimators.holdout"}


def per_layer(setup_totals, tracer, rounds, micro, svm_solves, span_cost):
    """Every per-layer metric; span metrics are per round of the workload.

    ``setup_totals`` are the tracer's totals of the set-up, taken before
    its spans were cleared for the rounds.
    """
    totals = tracer.totals()

    def seconds(name, tag=None, source=totals):
        return sum(v[1] for (n, t), v in source.items() if n == name and tag in (None, t))

    def calls(name, tag=None):
        return sum(v[0] for (n, t), v in totals.items() if n == name and tag in (None, t))

    values = {
        "dataset.load_s": seconds("dataset.load", source=setup_totals),
        "dataset.split_s": seconds("dataset.split") / rounds,
        "rankers.calls": calls("rankers.rank") / rounds,
    }
    for r in RANKERS:
        values[f"rankers.rank_s.{r}"] = seconds("rankers.rank", r) / rounds
    for s in SELECTORS:
        values[f"selectors.select_s.{s}"] = seconds("selectors.select", s) / rounds
    select_s = seconds("selectors.select")
    in_criterion = tracer.child_seconds("selectors.select", {"estimators.sloo"})
    candidates = sum(v[2] for (n, _), v in totals.items() if n == "selectors.select")
    values["selectors.self_s"] = (select_s - in_criterion) / rounds
    values["selectors.candidates"] = candidates / rounds
    values["selectors.criterion_share"] = calls("estimators.sloo") / candidates if candidates else 0.0
    for c in CLASSIFIERS:
        values[f"estimators.sloo_s.{c}"] = seconds("estimators.sloo", c) / rounds
        values[f"estimators.sloo_calls.{c}"] = calls("estimators.sloo", c) / rounds
    grid_s = seconds("harness.run_grid")
    in_children = tracer.child_seconds("harness.run_grid", GRID_CHILDREN)
    values.update({
        "estimators.holdout_s": seconds("estimators.holdout") / rounds,
        "estimators.holdout_calls": calls("estimators.holdout") / rounds,
        "estimators.rloo_s": seconds("estimators.rloo") / rounds,
        "harness.case_study_s": seconds("harness.case_study") / rounds,
        "harness.run_grid_s": grid_s / rounds,
        "harness.self_s": (grid_s - in_children) / rounds,
        "harness.span_coverage": in_children / grid_s if grid_s else 0.0,
        "stats.analyze_s": seconds("stats.analyze") / rounds,
        "report.emit_s": seconds("report.emit") / rounds,
    })
    for c, (sloo_ms, train_ms) in micro.items():
        values[f"estimators.sloo_ms.{c}"] = float(np.median(sloo_ms))
        values[f"classifiers.train_ms.{c}"] = float(np.median(train_ms))
        if len(sloo_ms) >= P90_MIN_CALLS:
            values[f"estimators.sloo_p90_ms.{c}"] = float(np.percentile(sloo_ms, 90))
        if len(train_ms) >= P90_MIN_CALLS:
            values[f"classifiers.train_p90_ms.{c}"] = float(np.percentile(train_ms, 90))
    values["classifiers.svm_solves"] = len(svm_solves)
    values["classifiers.svm_unconverged"] = sum(1 for _, ok, _ in svm_solves if not ok)
    for tag in ("SVML", "SVMG"):
        shares = [share for t, _, share in svm_solves if t == tag]
        values[f"classifiers.svm_sv_share.{tag}"] = float(np.mean(shares)) if shares else 0.0
    values["trace.overhead_s"] = span_cost * len(tracer.spans) / rounds
    return values
