"""Command-line entry point.

Subcommands: samplesize, rank, select, estimate, bench, case-study,
analyze, report, demo.  Machine-readable output via --json on stdout;
diagnostics and the resolved-config line go to stderr.  Exit codes:
0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import report as rpt
from . import samplesize as ss
from . import stats
from .classifiers import CLASSIFIER_TAGS, classifier_kind
from .estimators import (
    holdout_true_error,
    loo_error,
    proper_rloo_error,
    resubstitution_error,
)
from .harness import (
    GridConfig,
    load_manifest,
    read_records,
    run_grid,
    sonar_case_study,
)
from .rankers import RANKER_TAGS, rank_features
from .selectors import SELECTOR_TAGS, select, selection_scheme
from .utils import stable_seed

log = logging.getLogger("widefs")

_DEMO_ALIASES = {"fig3": "classifier-dependence"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this artifact reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_data_args(p):
    p.add_argument("--data", required=True, help="dataset CSV (header row, numeric features)")
    p.add_argument("--label-col", default="last", help="label column: name, index, or 'last'")


def _load(args) -> ds.Dataset:
    return ds.load_csv(args.data, label_column=args.label_col)


def _parse_tags(text, universe, what):
    tags = tuple(t.strip() for t in text.split(",") if t.strip())
    unknown = [t for t in tags if t not in universe]
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}; choose from {universe}")
    return tags


def _parse_config_file(path) -> tuple[tuple[str, float], ...]:
    pairs = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((key, float(value)))
    return tuple(pairs)


def _parse_subset(text, n_features):
    if text in ("all", "ALL", ""):
        return None
    return ds.FeatureSubset(tuple(int(t) for t in text.split(",") if t.strip()))


def build_parser() -> _Parser:
    parser = _Parser(prog="widefs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("samplesize", parents=[], help="required N to tell two features apart")
    p.add_argument("--p1", type=float, help="correctness probability of the better feature")
    p.add_argument("--p2", type=float)
    p.add_argument("--d", type=float, help="agreement probability (default: independence p1*p2)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--ceil", action="store_true", help="round N up to an integer")
    p.add_argument("--smoothed", action="store_true", help="continuous-score formula")
    p.add_argument("--var1", type=float, default=0.0)
    p.add_argument("--var2", type=float, default=0.0)
    p.add_argument("--cov", type=float, default=0.0)
    p.add_argument("--two-tailed", action="store_true")
    p.add_argument("--curve", action="store_true", help="emit a p1,alpha,N CSV curve instead")
    p.add_argument("--p1-min", type=float, default=0.55)
    p.add_argument("--p1-max", type=float, default=0.95)
    p.add_argument("--p1-step", type=float, default=0.01)
    p.add_argument("--gap", type=float, default=0.05, help="p2 = p1 - gap on the curve")
    p.add_argument("--alphas", default="0.05,0.01")
    p.add_argument("--out", help="write curve CSV (and .svg twin) here instead of stdout")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rank", help="order all features of a dataset")
    _add_data_args(p)
    p.add_argument("--ranker", required=True, choices=RANKER_TAGS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, help="print only the first k rows")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("select", help="run one selection scheme on a probe dataset")
    _add_data_args(p)
    p.add_argument("--scheme", required=True, choices=SELECTOR_TAGS)
    p.add_argument("--classifier", required=True, choices=CLASSIFIER_TAGS)
    p.add_argument("--ranker", choices=RANKER_TAGS, help="required for ranked schemes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-class", type=int, help="if set, select on a stratified probe of this size")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("estimate", help="error estimators for one (data, classifier, subset)")
    _add_data_args(p)
    p.add_argument("--classifier", required=True, choices=CLASSIFIER_TAGS)
    p.add_argument("--estimator", required=True, choices=("resub", "loo", "sloo", "rloo", "holdout"))
    p.add_argument("--subset", default="all", help="comma-separated feature indices, or 'all'")
    p.add_argument("--ranker", choices=RANKER_TAGS, help="for rloo")
    p.add_argument("--scheme", choices=SELECTOR_TAGS, help="for rloo")
    p.add_argument("--per-class", type=int, default=10, help="probe size per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bench", help="run the classifier x ranker x selector grid")
    p.add_argument("--manifest", required=True, help="dataset manifest: name,path,instances,features")
    p.add_argument("--out", required=True, help="results JSONL path")
    # a string default is converted by ``type`` only when bench is parsed
    p.add_argument("--workers", type=int, default=os.environ.get("WIDEFS_WORKERS", "1"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classifiers", default=",".join(CLASSIFIER_TAGS))
    p.add_argument("--rankers", default=",".join(RANKER_TAGS))
    p.add_argument("--selectors", default=",".join(s for s in SELECTOR_TAGS if s != "ALL"))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--config", help="flat key=value hyperparameter overrides (e.g. rf.n_trees=25)")
    p.add_argument("--resume", action="store_true", help="skip cells already in the output file")
    p.add_argument("--timing", action="store_true", help="record wall-clock durations (breaks byte-level rerun identity)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("case-study", help="exhaustive top-10 subset audit of one dataset")
    p.add_argument("name", help="case study name (dataset label, e.g. sonar)")
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", default="last")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--classifier", default="LDC", choices=CLASSIFIER_TAGS)
    p.add_argument("--ranker", default="SU", choices=RANKER_TAGS)
    p.add_argument("--json", action="store_true")

    for name, text in (("analyze", "rank tables and Friedman tests from results JSONL"),
                       ("report", "visual artifacts (HTML table, glyph SVGs) from results JSONL")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--metric", choices=("true", "est"), default="true")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("name", help="demo name: classifier-dependence (alias: fig3)")
    p.add_argument("--mode", default="ldc-wins", choices=("ldc-wins", "nn-wins"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_samplesize(args) -> int:
    if args.curve:
        if args.p1_step <= 0:
            raise ValueError("--p1-step must be > 0")
        p1s = np.arange(args.p1_min, args.p1_max + 1e-12, args.p1_step)
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
        rows = ss.sample_size_curve(p1s, args.gap, alphas, "independent" if args.d is None else args.d)
        lines = ["p1,alpha,N"] + [f"{p1:.6g},{alpha:.6g},{n:.6g}" for p1, alpha, n in rows]
        if args.out:
            Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
            rpt.emit_samplesize_curve_svg(rows, Path(args.out).with_suffix(".svg"))
        else:
            print("\n".join(lines))
        return 0
    if args.p1 is None:
        raise ValueError("--p1 is required")
    if args.smoothed:
        if args.p2 is None:
            raise ValueError("--p2 is required")
        plan = ss.SmoothedPlan(
            p1=args.p1, p2=args.p2, var1=args.var1, var2=args.var2,
            cov=args.cov, alpha=args.alpha, two_tailed=args.two_tailed,
        )
        n = ss.smoothed_sample_size(plan)
    else:
        if args.p2 is None:
            raise ValueError("--p2 is required")
        d = args.p1 * args.p2 if args.d is None else args.d
        n = ss.mcnemar_sample_size(ss.McNemarPlan(p1=args.p1, p2=args.p2, d_agree=d, alpha=args.alpha))
    shown = int(np.ceil(n)) if args.ceil else n
    if args.json:
        print(json.dumps({"n": shown, "raw": n}))
    else:
        print(f"{shown}" if args.ceil else f"{shown:.1f}")
    return 0


def _cmd_rank(args) -> int:
    data = _load(args)
    ranked = rank_features(args.ranker, data, args.seed)
    k = len(ranked) if args.top is None else min(args.top, len(ranked))
    rows = [
        {"rank": i + 1, "feature_index": idx, "feature_name": data.feature_names[idx], "score": score}
        for i, (idx, score) in enumerate(zip(ranked.indices[:k], ranked.scores[:k]))
    ]
    if args.json:
        print(json.dumps({"ranker": args.ranker, "ranking": rows}))
    else:
        print("rank,feature_index,feature_name,score")
        for r in rows:
            print(f"{r['rank']},{r['feature_index']},{r['feature_name']},{r['score']:.6g}")
    return 0


def _cmd_select(args) -> int:
    data = _load(args)
    probe = ds.stratified_split(data, args.per_class, args.seed).probe if args.per_class is not None else data
    scheme = selection_scheme(args.scheme)
    ranked = None
    if scheme.tag != "ALL":
        if args.ranker is None:
            raise ValueError(f"scheme {scheme.tag} needs --ranker")
        ranked = rank_features(args.ranker, probe, stable_seed(args.seed, "rank", args.ranker))
    result = select(scheme, ranked, classifier_kind(args.classifier), probe, args.seed)
    payload = {
        "scheme": scheme.tag,
        "classifier": args.classifier,
        "subset": list(result.subset.indices),
        "criterion": result.criterion.value,
        "evaluations": result.evaluations,
        "candidates_tied": result.candidates_tied,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"subset: {','.join(str(i) for i in result.subset.indices) or '(empty)'}")
        print(f"criterion (smoothed LOO): {result.criterion.value:.4f}")
        print(f"evaluations: {result.evaluations}")
    return 0


def _cmd_estimate(args) -> int:
    data = _load(args)
    split = ds.stratified_split(data, args.per_class, args.seed)
    probe, holdout = split.probe, split.holdout
    subset = _parse_subset(args.subset, data.n_features)
    kind = classifier_kind(args.classifier)
    extra = {}
    if args.estimator == "resub":
        est = resubstitution_error(kind, probe, subset, args.seed)
    elif args.estimator == "loo":
        est = loo_error(kind, probe, subset, args.seed, smoothed=False)
    elif args.estimator == "sloo":
        est = loo_error(kind, probe, subset, args.seed, smoothed=True)
    elif args.estimator == "holdout":
        est = holdout_true_error(kind, probe, subset, holdout, args.seed)
    else:
        if not args.ranker or not args.scheme:
            raise ValueError("rloo needs --ranker and --scheme")
        est, chosen = proper_rloo_error(kind, args.ranker, args.scheme, probe, args.seed)
        extra["subset"] = list(chosen.indices)
    payload = {"estimator": est.kind, "value": est.value, "n_evaluations": est.n_evaluations, **extra}
    print(json.dumps(payload) if args.json else f"{est.kind}: {est.value:.4f}")
    return 0


def _cmd_bench(args) -> int:
    datasets = load_manifest(args.manifest)
    config = GridConfig(
        datasets=tuple(datasets),
        per_class=args.per_class,
        runs=args.runs,
        classifiers=_parse_tags(args.classifiers, CLASSIFIER_TAGS, "classifiers"),
        rankers=_parse_tags(args.rankers, RANKER_TAGS, "rankers"),
        selectors=_parse_tags(args.selectors, SELECTOR_TAGS, "selectors"),
        master_seed=args.seed,
        hyperparams=_parse_config_file(args.config) if args.config else (),
        record_timing=args.timing,
    )
    records = run_grid(config, out_path=args.out, workers=max(1, args.workers), resume=args.resume)
    failures = sum(1 for r in records if r.error)
    summary = {
        "records": len(records),
        "expected": config.expected_records(),
        "failures": failures,
        "out": str(args.out),
    }
    print(json.dumps(summary) if args.json else
          f"wrote {summary['records']} records ({failures} failures) to {args.out}")
    return 0


def _cmd_case_study(args) -> int:
    data = ds.load_csv(args.data, label_column=args.label_col, name=args.name)
    bundle = sonar_case_study(
        args.seed, data, per_class=args.per_class, classifier=args.classifier, ranker=args.ranker
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bundle.json").write_text(json.dumps(bundle.to_json_dict()) + "\n", encoding="utf-8")
    with open(out / "best_subsets.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "subset_positions", "predicted", "true"])
        for label in ("RESUB", "LOO", "SLOO", "TRUE"):
            row = bundle.best[label]
            pred = "" if row["predicted"] is None else f"{row['predicted']:.4f}"
            writer.writerow([label, " ".join(map(str, row["positions"])), pred, f"{row['true_error']:.4f}"])
        writer.writerow(["ALL_TOP", " ".join(map(str, range(1, len(bundle.top_features) + 1))),
                         "", f"{bundle.all_features_true:.4f}"])
    panels = [
        (label, est, bundle.true, "best: [" + ",".join(map(str, bundle.best[key]["positions"])) + "]")
        for (label, est), key in zip(bundle.scatter_panels(), ("RESUB", "LOO", "SLOO"))
    ]
    rpt.emit_scatter_svg(panels, out / "scatter.svg")
    payload = {"subsets": len(bundle.subsets), "best": bundle.best, "out": str(out)}
    print(json.dumps(payload) if args.json else
          f"{len(bundle.subsets)} subsets scored; artifacts in {out}")
    return 0


def _analysis(args):
    """Records and selector rank rows of ``--in``, and the created ``--out`` directory."""
    records = read_records(args.infile)
    rows = stats.selector_rank_table(records, metric=args.metric, alpha=args.alpha)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return records, rows, out


def _cmd_analyze(args) -> int:
    records, rows, out = _analysis(args)
    selectors = rows[0]["selectors"] if rows else ()
    with open(out / "selector_ranks.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classifier", "ranker", *selectors, "best_group"])
        for row in rows:
            writer.writerow(
                [row["classifier"], row["ranker"]]
                + [f"{row['avg_ranks'][s]:.4f}" for s in selectors]
                + [" ".join(sorted(row["best_group"]))]
            )
    combos = stats.combination_ranking(records, metric=args.metric)
    with open(out / "combination_ranks.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position", "avg_rank", "classifier", "ranker", "selector"])
        for pos, (c, r, s, avg) in enumerate(combos, start=1):
            writer.writerow([pos, f"{avg:.4f}", c, r or "", s])
    tests = {
        f"{row['classifier']}/{row['ranker']}": {
            "avg_ranks": row["avg_ranks"],
            "best_group": sorted(row["best_group"]),
            "n_blocks": row["n_blocks"],
        }
        for row in rows
    }
    (out / "friedman.json").write_text(json.dumps(tests, indent=2) + "\n", encoding="utf-8")
    payload = {"rows": len(rows), "combinations": len(combos), "out": str(out)}
    print(json.dumps(payload) if args.json else
          f"analyzed {len(records)} records -> {out}")
    return 0


def _cmd_report(args) -> int:
    records, rows, out = _analysis(args)
    emitted = []
    html, csv_twin = rpt.emit_rank_table(rows, out / "rank_table.html")
    emitted += [html, csv_twin]
    for axis in ("classifier", "ranker", "selector"):
        try:
            spokes, series = stats.glyph_rank_series(records, axis, metric=args.metric)
            spec = rpt.GlyphSpec(
                spokes=tuple(spokes),
                series=tuple((name, tuple(values)) for name, values in series.items()),
            )
            emitted.append(rpt.emit_glyph_svg(spec, out / f"glyph_{axis}s.svg"))
        except ValueError as exc:
            log.warning("glyph %s skipped: %s", axis, exc)
    payload = {"files": [str(p) for p in emitted]}
    print(json.dumps(payload) if args.json else "\n".join(str(p) for p in emitted))
    return 0


def _cmd_demo(args) -> int:
    name = _DEMO_ALIASES.get(args.name, args.name)
    if name != "classifier-dependence":
        raise ValueError(f"unknown demo {args.name!r}; available: classifier-dependence (alias fig3)")
    mode = args.mode.replace("-", "_")
    data = ds.generate_classifier_dependent_pair(mode, seed=args.seed)
    ldc = loo_error("LDC", data, None, args.seed).value
    nn = loo_error("NN1", data, None, args.seed).value
    if args.json:
        print(json.dumps({"mode": args.mode, "loo_ldc": ldc, "loo_1nn": nn}))
    else:
        print(f"LOO(LDC)={ldc:g}, LOO(1NN)={nn:g}")
    return 0


_DISPATCH = {
    "samplesize": _cmd_samplesize,
    "rank": _cmd_rank,
    "select": _cmd_select,
    "estimate": _cmd_estimate,
    "bench": _cmd_bench,
    "case-study": _cmd_case_study,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    resolved = {k: v for k, v in vars(args).items() if k != "command"}
    log.info("command=%s config=%s", args.command, json.dumps(resolved, default=str, sort_keys=True))
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"widefs {args.command}: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
