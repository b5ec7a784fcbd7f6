"""Spans recorded from outside tailrisk, by wrapping its public callables.

``Tracer.install()`` replaces each layer's public functions and methods
(and the ``StudentT`` special-function hooks) with wrappers that record a
span: name, start, end and parent span id.  Spans stay in memory until
``uninstall()``.  A span's self time is its duration minus the time its
direct children cover; calls are single-threaded, so children never
overlap.  Counters are kept by the same wrappers.  Nothing is wrapped
unless ``install()`` runs, so untraced passes execute the library as is.
"""

from __future__ import annotations

import collections
import functools
import os
import subprocess
import sys
import time
from typing import Callable

import numpy as np

import tailrisk
from tailrisk import allocation, asymptotics, cli, concentration, distributions, montecarlo, risk_core

_MODULES = [tailrisk, allocation, asymptotics, cli, concentration, distributions, montecarlo, risk_core]

D, S = distributions.Distribution, distributions.Sample

# (span name, owner, attribute); owner is a class for methods, else a module
TARGETS = [
    ("special", distributions.StudentT, "_cdf0"),
    ("special", distributions.StudentT, "_quantile0"),
    ("special", distributions.StudentT, "_es0"),
    ("special", distributions.StudentT, "_pdf0"),
    ("distributions.sample", D, "sample"),
    ("distributions.Sample", S, "__init__"),
    ("distributions.quantile", D, "quantile"),
    ("distributions.quantile", S, "quantile"),
    ("distributions.cdf", D, "cdf"),
    ("distributions.cdf", S, "cdf"),
    ("distributions.es", D, "es"),
    ("distributions.es", S, "es"),
    ("distributions.eplus", D, "eplus"),
    ("distributions.eplus", S, "eplus"),
    ("risk_core.expectile", risk_core, "expectile"),
    ("risk_core.expected_shortfall", risk_core, "expected_shortfall"),
    ("risk_core.beta_star", risk_core, "beta_star"),
    ("risk_core.expectile_bounds", risk_core, "expectile_bounds"),
    ("montecarlo.ratio_table", montecarlo, "ratio_table"),
    ("montecarlo.wasserstein_exact", montecarlo, "wasserstein_exact"),
    ("allocation.from_csv", allocation.Portfolio, "from_csv"),
    ("allocation.es_euler", allocation, "es_euler"),
    ("allocation.expectile_euler", allocation, "expectile_euler"),
    ("asymptotics.ratio_expansion", asymptotics, "ratio_expansion"),
    ("concentration.size_ratio_curve", concentration, "size_ratio_curve"),
    ("cli.main", cli, "main"),
]


def _special_points(args, kwargs):
    return int(np.size(args[1]))  # args = (self, x)


def _sample_values(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _table_cells(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return len(cfg.alphas) * len(cfg.ns) * int(cfg.replications)


def _csv_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]  # args = (cls, path)
    return os.path.getsize(path)


# counters fed from span arguments: span name -> (counter name, extractor)
_COUNTERS = {
    "special": ("special.points", _special_points),
    "distributions.sample": ("distributions.sample.values", _sample_values),
    "montecarlo.ratio_table": ("montecarlo.cells", _table_cells),
    "allocation.from_csv": ("allocation.from_csv.bytes", _csv_bytes),
}


class Tracer:
    """Owns the recorded spans, the counters and the installed wrappers."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent id]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list = []
        self._restore: list = []

    # --- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count_calls(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, replacement):
        """Rebind a function in every tailrisk module that imported it."""
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in TARGETS:
            counter = _COUNTERS.get(name)
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                self._restore.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, counter)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, counter))
            else:
                self._replace_everywhere(raw, self._wrap(name, raw, counter))
        # brentq calls foc_residual through a lambda that looks the name up in
        # risk_core at call time, so counting there gives exact iterations
        self._replace_everywhere(
            risk_core.foc_residual, self._count_calls("risk_core.foc_residual", risk_core.foc_residual)
        )

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # --- aggregation ------------------------------------------------------
    def self_times(self) -> dict:
        """Span name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path: str):
        """Write every span as CSV: id, parent, name, start_s, end_s."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def import_breakdown(env: dict) -> dict:
    """Parse ``python -X importtime -c 'import tailrisk'`` into seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tailrisk"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    self_us: dict = {}
    cum_us: dict = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        mod = fields[2].strip()
        self_us[mod] = int(fields[0])
        cum_us[mod] = int(fields[1])
    return {
        "cli.import.total_s": cum_us["tailrisk"] / 1e6,
        "cli.import.scipy_integrate_s": cum_us.get("scipy.integrate", 0) / 1e6,
        "cli.import.scipy_optimize_s": cum_us.get("scipy.optimize", 0) / 1e6,
        "cli.import.tailrisk_self_s": sum(
            v for k, v in self_us.items() if k == "tailrisk" or k.startswith("tailrisk.")
        ) / 1e6,
    }


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass per-layer values from a tracer that recorded ``passes`` passes."""
    agg = tracer.self_times()
    counts = tracer.counts

    def self_s(name):
        return agg.get(name, (0, 0.0))[1] / passes

    def calls(name):
        return agg.get(name, (0, 0.0))[0] / passes

    n_exp = agg.get("risk_core.expectile", (0, 0.0))[0]
    csv_s = agg.get("allocation.from_csv", (0, 0.0))[1]
    return {
        "special.calls": calls("special"),
        "special.points": counts["special.points"] / passes,
        "special.self_s": self_s("special"),
        "distributions.sample.self_s": self_s("distributions.sample"),
        "distributions.sample.values": counts["distributions.sample.values"] / passes,
        "distributions.Sample.self_s": self_s("distributions.Sample"),
        "distributions.eplus.calls": calls("distributions.eplus"),
        "distributions.eplus.self_s": self_s("distributions.eplus"),
        "distributions.quantile.self_s": self_s("distributions.quantile"),
        "distributions.cdf.self_s": self_s("distributions.cdf"),
        "distributions.es.self_s": self_s("distributions.es"),
        "risk_core.expectile.calls": calls("risk_core.expectile"),
        "risk_core.expectile.self_s": self_s("risk_core.expectile"),
        "risk_core.expectile.iters": counts["risk_core.foc_residual"] / n_exp if n_exp else 0.0,
        "risk_core.expected_shortfall.self_s": self_s("risk_core.expected_shortfall"),
        "risk_core.beta_star.self_s": self_s("risk_core.beta_star"),
        "risk_core.expectile_bounds.self_s": self_s("risk_core.expectile_bounds"),
        "montecarlo.ratio_table.self_s": self_s("montecarlo.ratio_table"),
        "montecarlo.cells": counts["montecarlo.cells"] / passes,
        "montecarlo.wasserstein_exact.self_s": self_s("montecarlo.wasserstein_exact"),
        "allocation.from_csv.self_s": self_s("allocation.from_csv"),
        "allocation.from_csv.mb_per_s": (
            counts["allocation.from_csv.bytes"] / 1e6 / csv_s if csv_s > 0.0 else 0.0
        ),
        "allocation.es_euler.self_s": self_s("allocation.es_euler"),
        "allocation.expectile_euler.self_s": self_s("allocation.expectile_euler"),
        "asymptotics.ratio_expansion.self_s": self_s("asymptotics.ratio_expansion"),
        "concentration.size_ratio_curve.self_s": self_s("concentration.size_ratio_curve"),
        "cli.main.self_s": self_s("cli.main"),
    }
