"""Benchmark harness: the classifier x ranker x selector grid and the
exhaustive small-pool case study.

Every grid cell is keyed (dataset, run, classifier, ranker, selector) and
seeded as hash(master seed, dataset name, run), so single cells are
reproducible in isolation.  Cells of one (dataset, run) share the probe
sample, the per-ranker rankings, and (per classifier) a criterion cache.
Results stream to JSON-lines in canonical cell order; a byte-identical
file results from any worker count, and an interrupted run can resume.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import _KINDS, CLASSIFIER_TAGS, classifier_kind
from .dataset import Dataset, FeatureSubset, load_csv, restrict_to_top2_classes, stratified_split
from .estimators import holdout_true_error, loo_passes, resubstitution_error
from .rankers import RANKER_TAGS, rank_features
from .selectors import SELECTOR_TAGS, _resolve_best, select, selection_scheme
from .utils import stable_seed

log = logging.getLogger("widefs.harness")

RANKED_SELECTOR_TAGS = tuple(s for s in SELECTOR_TAGS if s != "ALL")

RECORD_FIELDS = (
    "dataset", "run", "classifier", "ranker", "selector",
    "subset", "est_error", "true_error", "evaluations", "seed", "duration",
)


@dataclass(frozen=True)
class RunRecord:
    """One benchmark cell; ``ranker`` is None for the no-selection baseline.

    ``error`` of a failed cell carries the diagnostic; its result fields
    stay null.  ``duration`` is wall-clock seconds and stays 0.0 unless
    timing was requested (it is the one nondeterministic field).
    """

    dataset: str
    run: int
    classifier: str
    ranker: str | None
    selector: str
    subset: tuple[int, ...] | None
    est_error: float | None
    true_error: float | None
    evaluations: int | None
    seed: int
    duration: float = 0.0
    error: str | None = None

    @property
    def key(self):
        return (self.dataset, self.run, self.classifier, self.ranker, self.selector)

    def to_json(self) -> str:
        data = {name: getattr(self, name) for name in RECORD_FIELDS}
        data["subset"] = list(self.subset) if self.subset is not None else None
        if self.error is not None:
            data["error"] = self.error
        return json.dumps(data)

    @staticmethod
    def from_json(line: str) -> "RunRecord":
        data = json.loads(line)
        subset = data.get("subset")
        return RunRecord(
            dataset=data["dataset"],
            run=int(data["run"]),
            classifier=data["classifier"],
            ranker=data["ranker"],
            selector=data["selector"],
            subset=tuple(int(i) for i in subset) if subset is not None else None,
            est_error=data["est_error"],
            true_error=data["true_error"],
            evaluations=data["evaluations"],
            seed=int(data["seed"]),
            duration=float(data.get("duration", 0.0)),
            error=data.get("error"),
        )


@dataclass(frozen=True)
class GridConfig:
    """Full description of one benchmark run.

    ``selectors`` lists the ranked schemes; the no-selection baseline runs
    once per classifier and run regardless.  ``hyperparams`` holds flat
    "tag.param" overrides (e.g. {"rf.n_trees": 25}).
    """

    datasets: tuple[Dataset, ...]
    per_class: int = 10
    runs: int = 10
    classifiers: tuple[str, ...] = CLASSIFIER_TAGS
    rankers: tuple[str, ...] = RANKER_TAGS
    selectors: tuple[str, ...] = RANKED_SELECTOR_TAGS
    master_seed: int = 0
    hyperparams: tuple[tuple[str, float], ...] = ()
    record_timing: bool = False

    def __post_init__(self):
        if self.per_class < 2:
            raise ValueError("per_class must be >= 2")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        object.__setattr__(self, "rankers", tuple(self.rankers))
        selectors = tuple(s for s in self.selectors if s != "ALL")
        object.__setattr__(self, "selectors", selectors)
        object.__setattr__(self, "hyperparams", tuple(self.hyperparams))
        seen = set(self.classifiers) | set(self.rankers) | set(selectors)
        known = set(CLASSIFIER_TAGS) | set(RANKER_TAGS) | set(SELECTOR_TAGS)
        if seen - known:
            raise ValueError(f"unknown tags in config: {sorted(seen - known)}")
        for key, _ in self.hyperparams:
            tag, _, param = key.partition(".")
            if tag.upper() not in CLASSIFIER_TAGS:
                raise ValueError(f"hyperparameter key {key!r}: unknown classifier prefix")
            classifier_kind(tag.upper(), **{param: 1})  # validates the parameter name

    def classifier_overrides(self, tag: str) -> dict:
        prefix = tag.lower() + "."
        return {k[len(prefix):]: v for k, v in self.hyperparams if k.lower().startswith(prefix)}

    def expected_records(self) -> int:
        per_dataset = (
            len(self.classifiers) * len(self.rankers) * len(self.selectors) * self.runs
            + len(self.classifiers) * self.runs
        )
        return per_dataset * len(self.datasets)


def cell_seed(master_seed: int, dataset_name: str, run: int) -> int:
    """Per-(dataset, run) seed; all cells of the pair derive from it."""
    return stable_seed(master_seed, dataset_name, run)


def _unit_cells(config: GridConfig, dataset_name: str, run: int):
    """Canonical cell order of one (dataset, run) unit."""
    for ctag in config.classifiers:
        yield (dataset_name, run, ctag, None, "ALL")
        for rtag in config.rankers:
            for stag in config.selectors:
                yield (dataset_name, run, ctag, rtag, stag)


def _error_record(key, seed, message) -> RunRecord:
    dataset, run, ctag, rtag, stag = key
    return RunRecord(
        dataset=dataset, run=run, classifier=ctag, ranker=rtag, selector=stag,
        subset=None, est_error=None, true_error=None, evaluations=None,
        seed=seed, error=message,
    )


def _run_unit(config: GridConfig, ds_index: int, run: int) -> list[RunRecord]:
    """Compute every cell of one (dataset, run) pair, never raising."""
    dataset = config.datasets[ds_index]
    seed = cell_seed(config.master_seed, dataset.name, run)
    cells = list(_unit_cells(config, dataset.name, run))
    try:
        split = stratified_split(dataset, config.per_class, seed)
    except Exception as exc:  # noqa: BLE001 - cell errors must not abort the grid
        return [_error_record(key, seed, f"split failed: {exc}") for key in cells]
    probe, holdout = split.probe, split.holdout
    rankings = {}
    ranking_errors = {}
    for rtag in config.rankers:
        try:
            rankings[rtag] = rank_features(rtag, probe, stable_seed(seed, "rank", rtag))
        except Exception as exc:  # noqa: BLE001
            ranking_errors[rtag] = f"ranking failed: {exc}"
    records = []
    for ctag in config.classifiers:
        kind = classifier_kind(ctag, **config.classifier_overrides(ctag))
        sel_seed = stable_seed(seed, "select", ctag)
        cache: dict = {}
        for key in cells:
            if key[2] != ctag:
                continue
            rtag, stag = key[3], key[4]
            if rtag is not None and rtag in ranking_errors:
                records.append(_error_record(key, seed, ranking_errors[rtag]))
                continue
            t0 = time.perf_counter() if config.record_timing else 0.0
            try:
                ranked = None if rtag is None else rankings[rtag]
                result = select(selection_scheme(stag), ranked, kind, probe, sel_seed, cache=cache)
                truth = holdout_true_error(kind, probe, result.subset, holdout, sel_seed)
                records.append(
                    RunRecord(
                        dataset=dataset.name, run=run, classifier=ctag, ranker=rtag,
                        selector=stag, subset=tuple(result.subset.indices),
                        est_error=result.criterion.value, true_error=truth.value,
                        evaluations=result.evaluations, seed=seed,
                        duration=(time.perf_counter() - t0) if config.record_timing else 0.0,
                    )
                )
            except Exception as exc:  # noqa: BLE001
                records.append(_error_record(key, seed, str(exc)))
    order = {key: i for i, key in enumerate(cells)}
    records.sort(key=lambda r: order[r.key])
    return records


def _load_completed(path: Path):
    """Completed records of a partial results file, plus its clean byte size.

    A torn trailing line (interrupted write) is dropped so that resuming
    appends exactly where the canonical stream stopped.
    """
    completed = {}
    clean = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break
            try:
                record = RunRecord.from_json(raw.decode("utf-8"))
            except (json.JSONDecodeError, KeyError):
                break
            completed[record.key] = record
            clean += len(raw)
    return completed, clean


def _config_sha256(config: GridConfig) -> str:
    """Fingerprint of everything that decides a grid's records, with the
    hyperparameters resolved; ``record_timing`` only fills ``duration``."""
    description = {
        "datasets": [
            [d.name, d.feature_names, list(d.labels), hashlib.sha256(d.features.tobytes()).hexdigest()]
            for d in config.datasets
        ],
        "per_class": config.per_class,
        "runs": config.runs,
        "tags": [config.classifiers, config.rankers, config.selectors],
        "master_seed": config.master_seed,
        "hyperparams": [
            classifier_kind(c, **config.classifier_overrides(c)).hyperparams for c in config.classifiers
        ],
        "version": __version__,
    }
    return hashlib.sha256(json.dumps(description).encode("utf-8")).hexdigest()


def run_grid(config: GridConfig, out_path=None, workers: int = 1, resume: bool = False) -> list[RunRecord]:
    """Run the whole grid; returns records in canonical cell order.

    With ``out_path`` every record is appended as one JSON line the moment
    all earlier cells are written, so the file is always a canonical
    prefix.  A fresh file gets a sidecar ``<out_path>.meta.json`` holding
    the configuration's fingerprint.  ``resume`` skips cells already
    present in the file; it raises ValueError, leaving the file untouched,
    when the sidecar names another configuration.
    """
    completed: dict = {}
    fh = None
    if out_path is not None:
        out_path = Path(out_path)
        meta_path = out_path.with_name(out_path.name + ".meta.json")
        fingerprint = _config_sha256(config)
        if resume and out_path.exists():
            if meta_path.exists() and json.loads(meta_path.read_text(encoding="utf-8")).get("sha256") != fingerprint:
                raise ValueError(f"{out_path} holds records of another grid configuration; not resuming")
            completed, clean = _load_completed(out_path)
            with open(out_path, "rb+") as trunc:
                trunc.truncate(clean)
            fh = open(out_path, "a", encoding="utf-8")
        else:
            meta_path.write_text(json.dumps({"sha256": fingerprint}) + "\n", encoding="utf-8")
            fh = open(out_path, "w", encoding="utf-8")
    units = [
        (ds_index, run)
        for ds_index in range(len(config.datasets))
        for run in range(1, config.runs + 1)
    ]
    def unit_done(ds_index, run):
        keys = _unit_cells(config, config.datasets[ds_index].name, run)
        return all(key in completed for key in keys)

    pending = [u for u in units if not unit_done(*u)]
    all_records = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 and pending else None
    try:
        futures = {u: pool.submit(_run_unit, config, *u) for u in pending} if pool else {}
        for u in units:
            ds_index, run = u
            fresh = {}
            if u in futures:
                fresh = {r.key: r for r in futures[u].result()}
            elif u in pending:
                log.info("unit dataset=%s run=%d", config.datasets[ds_index].name, run)
                fresh = {r.key: r for r in _run_unit(config, *u)}
            # write the unit's missing cells as soon as it completes, so an
            # interrupted file is always a canonical prefix worth resuming
            for key in _unit_cells(config, config.datasets[ds_index].name, run):
                if key in completed:
                    all_records.append(completed[key])
                    continue
                record = fresh[key]
                all_records.append(record)
                if fh is not None:
                    fh.write(record.to_json() + "\n")
                    fh.flush()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if fh is not None:
            fh.close()
    return all_records


def read_records(path) -> list[RunRecord]:
    """Load a JSONL results file."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_json(line))
    return records


# ---------------------------------------------------------------------------
# dataset manifest
# ---------------------------------------------------------------------------

def load_manifest(path) -> list[Dataset]:
    """Load the datasets named by a manifest file.

    Each non-comment line reads ``name,path,instances,features``; paths
    are relative to the manifest.  The expected shape is validated against
    the raw CSV, then the two most frequent classes are kept.
    """
    path = Path(path)
    datasets = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'name,path,instances,features'")
            name, rel, n_rows, n_cols = parts[0], parts[1], int(parts[2]), int(parts[3])
            data = load_csv(path.parent / rel, name=name)
            if data.n_instances != n_rows or data.n_features != n_cols:
                raise ValueError(
                    f"{path}:{lineno}: {name} is {data.n_instances}x{data.n_features}, "
                    f"manifest says {n_rows}x{n_cols}"
                )
            datasets.append(restrict_to_top2_classes(data))
    if not datasets:
        raise ValueError(f"{path}: no dataset entries")
    return datasets


# ---------------------------------------------------------------------------
# exhaustive small-pool case study
# ---------------------------------------------------------------------------

@dataclass
class CaseStudyBundle:
    """All subsets of a small ranked pool, scored by four estimators.

    ``subsets`` holds 1-based rank positions into ``top_features`` (the
    paper-style numbering); the error arrays align with it.  ``best``
    maps estimator name to its tie-resolved winning subset and errors.
    ``n_trainings`` is the protocol budget (resubstitution, holdout, every LOO
    fold); ``n_fits`` counts fits made, without the folds of a closed-form LOO.
    """

    dataset: str
    probe_seed: int
    classifier: str
    ranker: str
    top_features: tuple[int, ...]
    top_feature_names: tuple[str, ...]
    subsets: tuple[tuple[int, ...], ...]
    resub: np.ndarray
    loo: np.ndarray
    sloo: np.ndarray
    true: np.ndarray
    best: dict = field(default_factory=dict)
    all_features_true: float = 0.0
    n_trainings: int = 0
    n_fits: int = 0

    def scatter_panels(self):
        return [
            ("resubstitution", self.resub),
            ("counting LOO", self.loo),
            ("smoothed LOO", self.sloo),
        ]

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "probe_seed": self.probe_seed,
            "classifier": self.classifier,
            "ranker": self.ranker,
            "top_features": list(self.top_features),
            "top_feature_names": list(self.top_feature_names),
            "subsets": [list(s) for s in self.subsets],
            "resub": [float(v) for v in self.resub],
            "loo": [float(v) for v in self.loo],
            "sloo": [float(v) for v in self.sloo],
            "true": [float(v) for v in self.true],
            "best": self.best,
            "all_features_true": self.all_features_true,
            "n_trainings": self.n_trainings,
            "n_fits": self.n_fits,
        }


def sonar_case_study(
    probe_seed: int,
    sonar: Dataset,
    per_class: int = 10,
    pool: int = 10,
    classifier: str = "LDC",
    ranker: str = "SU",
) -> CaseStudyBundle:
    """Evaluate every non-empty subset of the ranked top ``pool`` features.

    Draws a stratified probe, ranks features on it, then scores all
    2^pool - 1 subsets with resubstitution, counting and smoothed
    leave-one-out, and the holdout error of the probe-trained model.
    """
    data = restrict_to_top2_classes(sonar)
    split = stratified_split(data, per_class, probe_seed)
    probe, holdout = split.probe, split.holdout
    ranked = rank_features(ranker, probe, stable_seed(probe_seed, "rank", ranker))
    top = ranked.indices[:pool]
    kind = classifier_kind(classifier)
    train_seed = stable_seed(probe_seed, "train", classifier)
    n_subsets = (1 << pool) - 1
    subsets = []
    resub = np.empty(n_subsets)
    loo = np.empty(n_subsets)
    sloo = np.empty(n_subsets)
    true = np.empty(n_subsets)
    for mask in range(1, 1 << pool):
        positions = tuple(j + 1 for j in range(pool) if mask >> j & 1)
        cols = FeatureSubset(tuple(top[j - 1] for j in positions))
        subsets.append(positions)
        i = mask - 1
        resub[i] = resubstitution_error(kind, probe, cols, train_seed).value
        correct, p_true = loo_passes(kind, probe.features[:, cols.array], probe.label_indices, train_seed)
        loo[i] = float(np.mean(~correct))
        sloo[i] = float(np.mean(1.0 - p_true))
        true[i] = holdout_true_error(kind, probe, cols, holdout, train_seed).value
    bundle = CaseStudyBundle(
        dataset=data.name,
        probe_seed=probe_seed,
        classifier=classifier,
        ranker=ranker,
        top_features=tuple(int(j) for j in top),
        top_feature_names=tuple(data.feature_names[j] for j in top),
        subsets=tuple(subsets),
        resub=resub,
        loo=loo,
        sloo=sloo,
        true=true,
        n_trainings=n_subsets * (2 + probe.n_instances),
        n_fits=n_subsets * (2 + (0 if _KINDS[kind.tag].loo else probe.n_instances)),
    )
    rng = np.random.default_rng(stable_seed(probe_seed, "ties"))
    for label, values in (("RESUB", resub), ("LOO", loo), ("SLOO", sloo), ("TRUE", true)):
        i = _resolve_best(values, bundle.subsets, rng)
        bundle.best[label] = {
            "positions": list(bundle.subsets[i]),
            "feature_indices": [int(top[p - 1]) for p in bundle.subsets[i]],
            "predicted": None if label == "TRUE" else float(values[i]),
            "true_error": float(true[i]),
        }
    bundle.all_features_true = float(true[-1])
    return bundle
