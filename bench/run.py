"""Benchmark entry point.

    python3 bench/run.py --workload soft-binary --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` under ``.bench_work/``,
measures it with tracing off (``--trace 0``: end-to-end metrics) or once
under the outside-in tracer (``--trace 1``: per-layer metrics, spans
written to ``.bench_work/spans-<workload>.tsv``), checks the
outputs, and prints an environment line followed by one JSON result
line.  Metric names and units come from ``BENCHMARK.json``.

``--write-fingerprint`` (with ``--seed 0``) stores the behaviour
fingerprint of the current code in ``bench/fingerprint.json`` instead of
checking it.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy is imported: one thread per caller, so
# the grid's two workers use at most the machine's two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprint", action="store_true")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "softpc" / "__init__.py").is_file():
        print(f"softpc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import softpc  # noqa: F401 - imports are part of set-up time
    import workloads

    import clock

    import_s = perf_counter() - t0
    clk = clock.Clock()
    import_s *= clock.NOMINAL_UNIT_S / clock.unit_seconds(40)
    if Path(softpc.__file__).resolve().parent != (SRC / "softpc").resolve():
        print(f"imported softpc from {softpc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spans_out = work / f"spans-{args.workload}.tsv" if args.trace else None
    try:
        ledger, values = workloads.run(args.workload, args.seed, args.seconds, args.trace,
                                       run_dir, spans_out, args.write_fingerprint, clk)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        wanted = spec["per_layer"]
    else:
        values["setup_s"] += import_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"workload did not produce metrics {missing}", file=sys.stderr)
        return 3
    for problem in ledger.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed}))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
