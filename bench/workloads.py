"""The benchmark's workloads: the jobs each runs through widefs' public API,
the work each counts, and the checks each output must pass.

A workload is built from the master seed alone; widefs receives only the
configuration generated from it.  ``run`` is the timed part: it makes each
of its jobs (one call into widefs' public API, or a few) through
``lap(name, fn, *args)``, which times it.  ``failures`` and ``check`` run
after timing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks

RANKERS = ("SU", "RF_IMP", "RELIEFF", "SVM_W", "SVM_RFE")
RANKED_SELECTORS = ("TOP3", "TOP10", "TOP20", "BEST3", "EX10", "RND20")
PER_CLASS = 10
CASE_STUDY_PROBES = 4
CASE_STUDY_SUBSETS = (1 << 10) - 1
# NN1: an LDC r-LOO takes 6.5 s, too long a job to time steadily (README)
RLOO_CLASSIFIER = "NN1"

# Six fixed SVM problems: the gauss_wide probe of master seed 20 and the
# subsets its SVM cells chose (ALL, SU TOP3, SU EX10).  They do not depend
# on --seed, so the number that fail the KKT check is the same in every run.
KKT_MASTER_SEED = 20
KKT_PROBLEMS = (
    ("SVML", None), ("SVML", (6, 177, 5)), ("SVML", (177, 21, 22)),
    ("SVMG", None), ("SVMG", (6, 177, 5)), ("SVMG", (6, 5, 21, 47, 51)),
)


def _arrays(split):
    return (split.probe.features, split.probe.label_indices,
            split.holdout.features, split.holdout.label_indices)


class Grid:
    """One or more widefs grids run back to back, then optionally the rank
    analysis and the rank table."""

    def __init__(self, widefs, datasets, configs, out_dir, analyze):
        self.widefs = widefs
        self.datasets = {d.name: d for d in datasets}
        self.configs = configs
        self.out_dir = out_dir
        self.analyze = analyze

    def run(self, tracer, lap):
        wf = self.widefs
        records = []
        for i, config in enumerate(self.configs):
            records += lap(f"run_grid.{i}", tracer.call, "harness.run_grid", wf.harness.run_grid,
                           config, workers=1)
        rows = None
        if self.analyze:
            rows = lap("analyze", tracer.call, "stats.analyze", wf.stats.selector_rank_table, records)
            lap("emit", tracer.call, "report.emit", wf.report.emit_rank_table, rows,
                self.out_dir / "rank_table.html")
        return records, rows

    def operations(self):
        return sum(c.expected_records() for c in self.configs)

    @staticmethod
    def criteria(output):
        return sum(r.evaluations or 0 for r in output[0])

    @staticmethod
    def fingerprint(output):
        return [r.to_json() for r in output[0]]

    def failures(self, output):
        return sum(1 for r in output[0] if r.error is not None)

    def _split(self, config, name, run):
        seed = self.widefs.harness.cell_seed(config.master_seed, name, run)
        return self.widefs.stratified_split(self.datasets[name], config.per_class, seed)

    def check(self, output):
        records, rows = output
        problems = []
        start = 0
        for config in self.configs:
            part = records[start : start + config.expected_records()]
            start += len(part)
            names = [d.name for d in config.datasets]
            n_features = {n: self.datasets[n].n_features for n in names}
            n_holdout = {n: self.datasets[n].n_instances - PER_CLASS * 2 for n in names}
            problems += checks.check_grid(part, n_features, n_holdout, config.runs,
                                          config.classifiers, config.rankers, config.selectors)
        problems += checks.check_pools(records)
        problems += checks.check_minimum(records)
        splits = {
            (d.name, run): _arrays(self._split(config, d.name, run))
            for config in self.configs for d in config.datasets for run in range(1, config.runs + 1)
        }
        problems += checks.check_reference(records, splits)
        if rows is not None:
            config = self.configs[0]
            classifiers = dict.fromkeys(c for cfg in self.configs for c in cfg.classifiers)
            problems += checks.check_rank_rows(rows, list(classifiers), config.rankers,
                                               len(config.selectors) + 1)
        return problems

    def svm_solves(self, output):
        """KKT gap and support-vector share of every training behind every
        SVM record: the full probe and each LOO fold of the chosen subset."""
        wf = self.widefs
        solves = []
        for rec in output[0]:
            if rec.classifier in ("SVML", "SVMG") and rec.error is None:
                config = next(c for c in self.configs if rec.classifier in c.classifiers)
                probe = self._split(config, rec.dataset, rec.run).probe
                kind = wf.classifier_kind(rec.classifier, **config.classifier_overrides(rec.classifier))
                for gap, share in checks.svm_kkt_gaps(wf.train, kind, probe, rec.subset):
                    solves.append((rec.classifier, checks.kkt_converged(gap, kind), share))
        return solves


class GridRefit(Grid):
    """Grid whose classifiers refit every fold; every round also trains the
    six fixed KKT problems, and each one that ends unconverged is a failed
    operation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        wide = self.datasets["gauss_wide"]
        seed = self.widefs.harness.cell_seed(KKT_MASTER_SEED, wide.name, 1)
        self.kkt_probe = self.widefs.stratified_split(wide, PER_CLASS, seed).probe

    def operations(self):
        return super().operations() + len(KKT_PROBLEMS)

    def failures(self, output):
        failed = super().failures(output)
        wf = self.widefs
        for tag, subset in KKT_PROBLEMS:
            kind = wf.classifier_kind(tag)
            gaps = checks.svm_kkt_gaps(wf.train, kind, self.kkt_probe, subset)
            failed += any(not checks.kkt_converged(gap, kind) for gap, _ in gaps)
        return failed


class Audit:
    """The exhaustive LDC case study on four sonar probes and proper r-LOO
    (NN1, SU, EX10) on one probe of each dataset."""

    def __init__(self, widefs, datasets, seed, out_dir):
        self.widefs = widefs
        self.datasets = datasets
        self.sonar = next(d for d in datasets if d.name == "sonar_surrogate")
        base = CASE_STUDY_PROBES * seed
        self.probe_seeds = tuple(base + i for i in range(1, CASE_STUDY_PROBES + 1))
        self.rloo_seed = base + 1
        self.out_dir = out_dir

    def run(self, tracer, lap):
        wf = self.widefs
        bundles = [
            lap(f"case_study.{s}", tracer.call, "harness.case_study", wf.harness.sonar_case_study,
                s, self.sonar)
            for s in self.probe_seeds
        ]
        first = bundles[0]
        panels = [(label, values, first.true, label) for label, values in first.scatter_panels()]
        lap("emit", tracer.call, "report.emit", wf.report.emit_scatter_svg, panels,
            self.out_dir / "scatter.svg")
        rloo = []
        for data in self.datasets:
            rloo.append(lap(f"rloo.{data.name}", self._rloo, data))
        return bundles, rloo

    def _rloo(self, data):
        wf = self.widefs
        probe = wf.stratified_split(data, PER_CLASS, self.rloo_seed).probe
        return wf.proper_rloo_error(RLOO_CLASSIFIER, "SU", "EX10", probe, self.rloo_seed)

    def operations(self):
        return CASE_STUDY_PROBES + len(self.datasets)

    @staticmethod
    def criteria(output):
        bundles, rloo = output
        return len(bundles) * CASE_STUDY_SUBSETS + sum(est.n_evaluations for est, _ in rloo)

    @staticmethod
    def fingerprint(output):
        bundles, rloo = output
        return [b.to_json_dict() for b in bundles], rloo

    @staticmethod
    def failures(output):
        return 0

    def check(self, output):
        wf = self.widefs
        bundles, rloo = output
        problems = []
        for bundle in bundles:
            split = wf.stratified_split(self.sonar, PER_CLASS, bundle.probe_seed)
            problems += checks.check_case_study(bundle, *_arrays(split))
        for data, (estimate, subset) in zip(self.datasets, rloo):
            probe = wf.stratified_split(data, PER_CLASS, self.rloo_seed).probe
            pool = list(wf.rank_features("SU", probe, self.rloo_seed).indices[:10])
            problems += checks.check_rloo(RLOO_CLASSIFIER, estimate, subset, probe.features,
                                          probe.label_indices, pool)
        return problems

    @staticmethod
    def svm_solves(output):
        return []


def build(name, widefs, datasets, seed, out_dir: Path):
    """The workload ``name`` for master seed ``seed``."""
    GridConfig = widefs.harness.GridConfig
    if name == "grid_closed_form":
        # one run_grid per (dataset, classifier), so each is timed on its own:
        # they draw the same splits and rankings (each call ranks again), and
        # run_grid keeps one criterion cache per classifier either way.  LDC
        # would double the round; it runs in the audit workload's case studies.
        configs = [
            GridConfig(datasets=(data,), per_class=PER_CLASS, runs=1, classifiers=(tag,),
                       rankers=RANKERS, selectors=RANKED_SELECTORS, master_seed=seed)
            for data in datasets for tag in ("NN1", "NB")
        ]
        return Grid(widefs, datasets, configs, out_dir, analyze=True)
    if name == "grid_refit":
        sonar = tuple(d for d in datasets if d.name == "sonar_surrogate")
        # SMO for the 1,024 subsets of SVML EX10 and growing 100-tree
        # forests on every fold take about the same time; SVMG and DT get
        # the unsearched cells.  On sonar an SVM EX10 cell takes half as
        # long as on gauss_wide, which keeps the jobs short (README).
        configs = [
            GridConfig(datasets=sonar, per_class=PER_CLASS, runs=1, classifiers=("SVML",),
                       rankers=("SU",), selectors=("TOP3", "EX10"), master_seed=seed),
            GridConfig(datasets=sonar, per_class=PER_CLASS, runs=1, classifiers=("SVMG", "DT"),
                       rankers=("SU",), selectors=("TOP3", "TOP10", "TOP20"), master_seed=seed),
            GridConfig(datasets=sonar, per_class=PER_CLASS, runs=1, classifiers=("RF",),
                       rankers=("SU",), selectors=("TOP3", "TOP10"), master_seed=seed,
                       hyperparams=(("rf.n_trees", 100),)),
        ]
        return GridRefit(widefs, datasets, configs, out_dir, analyze=False)
    if name == "audit":
        return Audit(widefs, datasets, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid_closed_form", "grid_refit", "audit")


def microbench(widefs, datasets, timer, classifiers, reps):
    """Per-call milliseconds of one sLOO and one train call per classifier,
    on the seed-1 probe of each dataset with its SU top 3 and top 10."""
    cases = []
    for data in datasets:
        probe = widefs.stratified_split(data, PER_CLASS, 1).probe
        ranked = widefs.rank_features("SU", probe, 1).indices
        cases += [(probe, tuple(ranked[:3])), (probe, tuple(ranked[:10]))]
    out = {}
    for tag in classifiers:
        kind = widefs.classifier_kind(tag)
        sloo_reps, train_reps = reps[tag]
        sloo = [timer(widefs.loo_error, kind, p, s, 0, True) for p, s in cases for _ in range(sloo_reps)]
        fits = [timer(widefs.train, kind, p, s, 0) for p, s in cases for _ in range(train_reps)]
        out[tag] = (np.asarray(sloo) * 1e3, np.asarray(fits) * 1e3)
    return out
