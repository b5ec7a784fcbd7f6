#!/usr/bin/env python3
"""Re-time the baseline operations listed in ROADMAP.md, open item 1.

Run from the root of a source checkout:

    python3 bench/baselines.py

Prints one line per baseline: the best of three in-process timings (one
for the CLI subprocess rows and the slow Student table), so the figures
can be set against the per-layer numbers of ``run.py --trace 1``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def best_of(fn, k: int = 3) -> float:
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    import numpy as np
    from scipy import special

    import tailrisk as tr
    from tailrisk import cli

    st, pa = tr.StudentT(2.3), tr.Pareto(2.1)
    u = np.random.default_rng(1).random(1_000_000)
    s_st, s_pa = st.sample(100_000, seed=1), pa.sample(1_000_000, seed=1)
    p = tr.Portfolio(np.random.default_rng(2).pareto(2.5, size=(1_000_000, 5)))
    rows = [
        ("Student t quantile, 1e6 points", lambda: st.quantile(u)),
        ("scipy.special.stdtrit, 1e6 points", lambda: special.stdtrit(2.3, u)),
        ("StudentT(2.3).sample(1e6)", lambda: st.sample(1_000_000, seed=1)),
        ("Pareto(2.1).sample(1e6)", lambda: pa.sample(1_000_000, seed=1)),
        ("parametric expectile, Student, 0.99", lambda: tr.expectile(st, 0.99)),
        ("parametric expectile, Pareto, 0.99", lambda: tr.expectile(pa, 0.99)),
        ("empirical expectile, n=1e6, 0.99", lambda: tr.expectile(s_pa, 0.99)),
        ("wasserstein_exact, Student, 1e5", lambda: tr.wasserstein_exact(s_st, st)),
        ("expectile_euler, 1e6x5, 0.99", lambda: tr.expectile_euler(p, 0.99)),
    ]
    for label, fn in rows:
        print(f"{label:<48} {best_of(fn, 1 if 'sample(1e6)' in label else 3):9.4f} s")
    table = ["table", "--alphas", "0.983,0.991,0.999", "--ns", "1e6,1e5", "--replications", "3",
             "--out", os.devnull]
    for dist in ("pareto:a=2.1", "student:nu=2.3"):
        argv = table[:1] + ["--dist", dist] + table[1:]
        inproc = best_of(lambda: cli.main(argv), 1)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tailrisk.cli", *argv], check=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
        print(f"{'table ' + dist + ' in-process':<48} {inproc:9.4f} s")
        print(f"{'table ' + dist + ' as a CLI process':<48} {time.perf_counter() - t0:9.4f} s")
    imports = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tailrisk"], check=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
        imports.append(time.perf_counter() - t0)
    print(f"{'fresh interpreter + import tailrisk (median of 5)':<48} {statistics.median(imports):9.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
