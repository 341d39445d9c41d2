"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.  It
prints a readable report, writes the full report (provenance, sample counts,
checks and, for a traced run, every span) to
`perfbench/out/BENCH_<workload>_seed<seed>_trace<k>.json`, and prints as its
last line one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the `end_to_end` metrics of
BENCHMARK.json, with `--trace 1` its `per_layer` metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MAX_THREADS = 2


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_threads() -> int:
    """Cap BLAS and OpenMP threads; must run before numpy is imported."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    n = min(MAX_THREADS, cpus)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def select_metrics(spec: dict, produced: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units.

    A per-layer metric of a layer this workload does not run reads 0.
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in listed}
    unknown = sorted(set(produced) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for m in listed:
        if m["name"] not in produced and not trace:
            raise KeyError(f"end-to-end metric {m['name']} was not measured")
        out[m["name"]] = {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse_args(argv, spec)
    threads = limit_threads()
    if not os.path.isfile(os.path.join(SRC, "convrnnt", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/convrnnt; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import report  # numpy loads here, after the thread cap
    import workloads

    trace = bool(args.trace)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = select_metrics(spec, result.metrics, trace)
    correct = all(result.checks.values())

    full = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": report.provenance(ROOT, args.seed, threads),
        "correct": correct,
        "checks": result.checks,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_share": result.failed / max(result.attempted, 1),
        "metrics": metrics,
        "details": result.details,
    }
    if result.spans is not None:
        full["spans"] = result.spans
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(full, f)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {os.path.relpath(path, ROOT)}")
    print("# provenance " + json.dumps(full["provenance"]))
    for name, ok in result.checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    print(f"# attempted={result.attempted} failed={result.failed} "
          f"failed_share={full['failed_share']:.4g}")
    for key, value in result.details.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
