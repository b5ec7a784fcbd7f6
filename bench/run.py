#!/usr/bin/env python3
"""Benchmark of tailrisk, driven through its public entry points.

Run from the root of a source checkout:

    python3 bench/run.py --workload student-sweep --seed 1 --seconds 50 --trace 0

It imports tailrisk from ``src/`` of the checkout, builds the workload's
inputs from ``--seed`` into a scratch directory under ``.bench_work/``,
runs one untimed warm-up operation, then repeats timed passes over the
workload's operations from one client for about ``--seconds``, and checks
every operation's output.

On a shared 2-vCPU VM, where speed drifts by 10-25% over seconds to
minutes, medians wander with that drift, so the timing statistics use the
quiet moments of a run.  Each statistic starts from every operation's
fastest latency across the run's passes: ``wall_s`` is their sum, the time
of a pass with every operation at its fastest, and ``op_p50_ms`` /
``op_p90_ms`` are their percentiles.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans recorded around tailrisk's public callables.  The last
line of standard output is one JSON object; the lines before it print the
same metrics for a reader, with the failure count of each known defect.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use; before numpy loads."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_nproc())


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter running ``import tailrisk``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tailrisk"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Attempted and failed operations, failures grouped by known defect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_defect: collections.Counter = collections.Counter()
        self.by_part: collections.Counter = collections.Counter()  # "allocate", "sweep", "table"
        self.unattributed: dict = {}  # op key -> first error seen


def run_pass(ops) -> tuple:
    """Issue every operation back to back; return (wall_s, latencies_s, results)."""
    results: dict = {}
    lat = []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            results[op.key] = op.call(results)
        except Exception as exc:  # a raising operation is a counted failure
            results[op.key] = exc
        lat.append(clock() - t0)
    return clock() - start, lat, results


def check_pass(ops, results: dict, tally: Tally):
    for op in ops:
        res = results[op.key]
        if isinstance(res, Exception):
            err = f"raised {type(res).__name__}: {res}"
        else:
            try:
                err = op.check(results)
            except Exception as exc:  # e.g. an input operation failed earlier
                err = f"check raised {type(exc).__name__}: {exc}"
        tally.attempted += 1
        if err is None:
            continue
        tally.failed += 1
        tally.by_part[op.key.split(".", 1)[0]] += 1
        if op.attributed(err, results):
            tally.by_defect[op.defect] += 1
        else:
            tally.by_defect["unattributed"] += 1
            if op.key not in tally.unattributed:
                tally.unattributed[op.key] = err


def _fastest(lats) -> list:
    """Each operation's fastest latency across passes (one latency list per pass)."""
    return [min(per_op) for per_op in zip(*lats)]


def _pctl(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tailrisk" / "__init__.py").is_file():
        print(f"error: no tailrisk sources under {SRC}", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import tailrisk

    if Path(tailrisk.__file__).resolve().parent != SRC / "tailrisk":
        print(f"error: imported tailrisk from {tailrisk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = _child_env()
    setup_s = measure_setup(env)
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ops = workloads.WORKLOADS[args.workload](args.seed, tmp)
        warm = ops[:1]
        _, _, res = run_pass(warm)
        check_pass(warm, res, Tally())  # records the warm-up's bytes for the identity check
        lats, traced_lats = [], []  # one latency list per pass
        tracer = spans.Tracer() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        while True:
            wall, lat, res = run_pass(ops)
            check_pass(ops, res, tally)
            lats.append(lat)
            step = wall
            if tracer is not None:
                tracer.install()
                try:
                    twall, tlat, res = run_pass(ops)
                finally:
                    tracer.uninstall()
                check_pass(ops, res, tally)
                traced_lats.append(tlat)
                step += twall
            if time.perf_counter() + step > deadline:
                break
        if tracer is not None:
            tracer.write(str(WORK / f"spans-{args.workload}.csv"))

    n_ops = len(ops)
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {n_ops}  "
          f"passes {len(lats)}{' + traced ' + str(len(traced_lats)) if tracer else ''}")
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  scipy {scipy.__version__}"
          f"  nproc {_nproc()}  cpu {_cpu_model()}")
    failed_frac = tally.failed / tally.attempted
    best = _fastest(lats)
    e2e = {
        "setup_s": setup_s,
        "wall_s": math.fsum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": _pctl(best, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g} {E2E_UNITS[name]}")
    print(f"  {'failed_frac':<14} {failed_frac:.6g} frac  ({tally.failed}/{tally.attempted})")
    for label in workloads.DEFECTS + ("unattributed",):
        if tally.by_defect[label]:
            print(f"  failures[{label}] {tally.by_defect[label] // (len(lats) + len(traced_lats))}"
                  " per pass")
    for key, err in tally.unattributed.items():
        print(f"  UNATTRIBUTED {key}: {err}")
    correct = tally.by_defect["unattributed"] == 0

    if tracer is not None:
        layers = spans.layer_metrics(tracer, len(traced_lats))
        layers.update(spans.import_breakdown(env))
        passes = len(lats) + len(traced_lats)
        # every allocate operation checks full allocation, so its failures are violations
        layers["allocation.full_alloc_violations"] = tally.by_part["allocate"] / passes
        layers["trace.overhead_frac"] = math.fsum(_fastest(traced_lats)) / e2e["wall_s"] - 1.0
        layers["failed_frac"] = failed_frac
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
