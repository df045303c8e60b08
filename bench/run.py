"""Run one widefs benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a widefs checkout.  The workload is repeated in whole
rounds for ``--seconds``: a new round starts only while the longest round
so far still fits (at least one round).  Each job of a round is timed on
its own, and ``wall_s`` is the sum over jobs of each job's fastest round,
so a phase in which the host runs slow must last through every round of
a job to move it.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Results and traces are also written to
bench/out/<workload>-seed<N>-trace<T>/.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the workloads are small-matrix Python loops, and a
# second spinning thread only adds noise on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_widefs():
    """widefs from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "widefs" / "__init__.py").is_file():
        raise SystemExit(f"bench: no widefs sources under {src}")
    sys.path.insert(0, str(src))
    import widefs

    if Path(widefs.__file__).resolve().parent != src / "widefs":
        raise SystemExit(f"bench: imported widefs from {widefs.__file__}, not {src}")
    return widefs


def main(argv=None):
    args = parse_args(argv)
    manifest = ROOT / "data" / "manifest.csv"
    widefs = import_widefs()
    if not manifest.is_file():
        raise SystemExit(f"bench: no dataset manifest at {manifest}")
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else tracing.Untraced()

    with tracer.patched():
        datasets = widefs.harness.load_manifest(manifest)
        workload = workloads.build(args.workload, widefs, datasets, args.seed, out_dir)
    setup_s = time.perf_counter() - START
    setup_totals = tracer.totals() if args.trace else {}
    if args.trace:
        tracer.spans.clear()

    walls, laps, attempted, failed = [], {}, 0, 0
    first = first_print = None
    differing = 0
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    while True:
        with tracer.patched():
            t0 = time.perf_counter()
            output = workload.run(tracer, functools.partial(_lap, laps))
            walls.append(time.perf_counter() - t0)
        longest = max(longest, walls[-1])
        attempted += workload.operations()
        failed += workload.failures(output)
        if first is None:
            first, first_print = output, workload.fingerprint(output)
        elif workload.fingerprint(output) != first_print:
            differing += 1
        if time.perf_counter() + longest > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(walls)
    wall_s = sum(min(times) for times in laps.values())

    problems = workload.check(first)
    if differing:
        problems.append(f"{differing} of {rounds} rounds gave outputs that differ from the first")

    if args.trace:
        micro = workloads.microbench(widefs, datasets, _time_call, metrics.CLASSIFIERS, metrics.MICRO_REPS)
        values = metrics.per_layer(setup_totals, tracer, rounds, micro,
                                   workload.svm_solves(first), tracing.wrapper_cost())
        names = [name for name, _, _ in metrics.PER_LAYER]
        with open(out_dir / "trace.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        values = {
            "wall_s": wall_s,
            "criteria_per_s": workload.criteria(first) / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        names = [name for name, _, _ in metrics.END_TO_END]

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]} for n in names},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  walls=walls, laps=laps, problems=problems)
    (out_dir / "result.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _lap(laps, name, fn, *args, **kwargs):
    """Call ``fn`` and append its seconds to ``laps[name]``."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        laps.setdefault(name, []).append(time.perf_counter() - t0)


def _time_call(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main())
