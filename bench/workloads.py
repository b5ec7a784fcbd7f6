"""The benchmark workloads: their inputs, operations and checks.

An operation is one call a user makes: one table cell, one allocation call
or one model evaluation.  A workload is a fixed list of operations built
from ``--seed``; a pass issues them back to back from one client (closed
loop, one process).  Each of the two workloads joins two parts: the
Student t table with the model sweep, where special functions and scalar
root solves do the work, and the Pareto table with the allocations, where
no special function runs and arrays, sorts and CSV parsing do the work.  Each operation has a check that runs after the pass,
outside the timed region, against references from :mod:`refs`.  All
tolerances are relative.

A failed check is attributed to a known defect of the library only when
the operation probes that defect and the error has the defect's signature:

- ``es-ties``: ``es_euler`` averages the strict event {L > q} and drops the
  fractional weight of scenarios tied at the quantile;
- ``expectile-scale``: ``expectile_euler`` (and the empirical expectile
  behind it) uses absolute tolerances, which swamp losses of order 1e-13;
- ``deep-tail``: a level near 1 passes through ``1 - u`` in double
  precision, so at tail probability p errors up to the cancellation floor
  ``8 eps / p`` come from that parametrisation; only levels where that
  floor exceeds the tolerance (p below about 2e-6) can fail this way.

Any other failure is unattributed and makes the run incorrect.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, NamedTuple, Optional

import numpy as np

import tailrisk as tr
from tailrisk import cli

import refs

TOL = 1e-9
EPS = float(np.finfo(float).eps)

ES_TIES = "es-ties"
EXPECTILE_SCALE = "expectile-scale"
DEEP_TAIL = "deep-tail"
DEFECTS = (ES_TIES, EXPECTILE_SCALE, DEEP_TAIL)


class Op(NamedTuple):
    """One operation: a call and a check, both given this pass's results.

    ``call(results)`` sees the results of the operations before it, so an
    operation may take its input from an earlier one.  ``check(results)``
    returns None when correct, else the relative error (a float) or a
    message.  ``floor`` bounds the error the ``defect`` explains: a number,
    a function of the results, or None when any failure is the defect.
    """

    key: str
    call: Callable[[dict], object]
    check: Callable[[dict], object]
    defect: Optional[str] = None
    floor: object = None

    def attributed(self, err, results: dict) -> bool:
        if self.defect is None:
            return False
        floor = self.floor(results) if callable(self.floor) else self.floor
        return floor is None or (isinstance(err, float) and err <= floor)


def _deep(p: float) -> dict:
    """Defect fields for a check at tail probability p, where cancellation can fail it."""
    floor = 8.0 * EPS / p
    return {"defect": DEEP_TAIL, "floor": floor} if floor > TOL else {}


def _close(got, want) -> Optional[float]:
    err = refs.rel_err(float(got), float(want))
    return err if not err <= TOL else None  # NaN fails too


def _le(a: float, b: float) -> bool:
    """a <= b up to the relative tolerance."""
    return a - b <= TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Student and Pareto tables
# ---------------------------------------------------------------------------

TABLE_ALPHAS = (0.983, 0.991, 0.999)
TABLE_VS = ("es", "var")
# master seeds per pass; each grid is alphas x vs x ns cells.  With 3 the
# Student cells are the slowest 13% of their workload's operations but for
# three checked-ES and Wasserstein calls, so its p90 falls among them.
TABLE_GRIDS = 3
TABLE_REPS = 1


def _check_cell(key, path, theo, first_bytes, results):
    code = results[key]
    if code != 0:
        return f"exit code {code}"
    with open(path, "rb") as fh:
        data = fh.read()
    if first_bytes.setdefault(key, data) != data:
        return "CSV differs from an earlier run with the same seed"
    _, row = data.decode().splitlines()
    cells = [float(v) for v in row.split(",")]
    if not all(math.isfinite(v) for v in cells[2:]):
        return f"non-finite empirical cell in {row!r}"
    return _close(cells[1], theo)


def _table_ops(spec: str, ref, ns, seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    masters = [int(s) for s in rng.integers(1, 2**31, size=TABLE_GRIDS)]
    theo = {}
    for a in TABLE_ALPHAS:
        p = 1.0 - a
        e = ref.expectile(p)
        theo[a, "es"] = e / ref.es(p)
        theo[a, "var"] = e / ref.var(p)
    first_bytes: dict = {}
    ops = []
    for master in masters:
        for a in TABLE_ALPHAS:
            for vs in TABLE_VS:
                for n in ns:
                    key = f"table.{master}.{a!r}.{vs}.{n}"
                    path = os.path.join(workdir, f"cell-{len(ops)}.csv")
                    argv = [
                        "table", "--dist", spec, "--alphas", repr(a), "--ns", str(n),
                        "--replications", str(TABLE_REPS), "--seed", str(master),
                        "--vs", vs, "--out", path,
                    ]
                    ops.append(Op(
                        key,
                        lambda r, argv=argv: cli.main(argv),
                        functools.partial(_check_cell, key, path, theo[a, vs], first_bytes),
                    ))
    return ops


def mc_table_student(seed: int, workdir: str) -> list:
    return _table_ops("student:nu=2.3", refs.StudentRef(2.3), (5_000, 2_000, 1_000), seed, workdir)


def mc_table_pareto(seed: int, workdir: str) -> list:
    return _table_ops("pareto:a=2.1", refs.ParetoRef(2.1), (300_000, 100_000, 30_000), seed, workdir)


# ---------------------------------------------------------------------------
# allocate
# ---------------------------------------------------------------------------

# n * alpha is an integer for every scenario count and level used, so ES
# contributions of continuous data need no fractional atom weight.  A call
# on the 1e6-row inputs costs 25-100 ms, so they take few levels: with the
# Pareto table the pass stays near 2 s, so a run gets enough passes for each
# operation's best latency to reach a quiet moment of the machine, and the
# 90th percentile falls inside the 20 calls on the large inputs.
ES_ALPHAS = (0.95, 0.975, 0.99, 0.999)
EXPECTILE_ALPHAS = (0.99,)
CLI_ALPHAS = tuple(round(0.9 + 0.005 * k, 4) for k in range(19)) + (0.999,)  # 0.9 .. 0.999
ALLOC_ROWS = 1_000_000
CSV_ROWS = 2_000
TAIL_INDEX = np.array([2.2, 2.5, 3.0, 3.5, 4.0])


def _heavy_matrix(rng, rows: int) -> np.ndarray:
    """Lomax components with the given tail indices plus a shared shock."""
    common = rng.pareto(2.5, size=rows)
    return rng.pareto(TAIL_INDEX, size=(rows, TAIL_INDEX.size)) + 0.3 * common[:, None]


def _check_alloc(key, want, results):
    return _close(math.fsum(results[key]), want)


def _check_cli_alloc(key, path, want, results):
    code = results[key]
    if code != 0:
        return f"exit code {code}"
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return _close(math.fsum(float(row.split(",")[1]) for row in rows), want)


def allocate(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    cont = _heavy_matrix(rng, ALLOC_ROWS)
    # name -> (scenarios, {measure: defect the input probes})
    inputs = {
        "continuous": (cont, {}),
        "ties": (rng.poisson([1.0, 2.0, 3.0, 2.0, 1.0], size=(ALLOC_ROWS, 5)).astype(float),
                 {"es": ES_TIES}),
        "scale-1e-13": (cont * 1e-13, {"expectile": EXPECTILE_SCALE}),
        "scale-1e13": (cont * 1e13, {}),
    }
    csv_path = os.path.join(workdir, "scenarios.csv")
    csv_data = _heavy_matrix(rng, CSV_ROWS)
    np.savetxt(csv_path, csv_data, fmt="%.17g", delimiter=",",
               header=",".join(f"c{k + 1}" for k in range(csv_data.shape[1])), comments="")
    csv_ref = refs.EmpiricalRef(csv_data.sum(axis=1))
    portfolios = {name: (tr.Portfolio(x), refs.EmpiricalRef(x.sum(axis=1)), defects)
                  for name, (x, defects) in inputs.items()}
    ops = []
    for a in CLI_ALPHAS:
        for measure in ("es", "expectile"):
            key = f"allocate.cli.{measure}.{a!r}"
            path = os.path.join(workdir, f"alloc-{measure}-{a!r}.csv")
            argv = ["allocate", "--csv", csv_path, "--alpha", repr(a), "--measure", measure,
                    "--out", path]
            want = csv_ref.es(a) if measure == "es" else csv_ref.expectile(a)
            ops.append(Op(key, lambda r, argv=argv: cli.main(argv),
                          functools.partial(_check_cli_alloc, key, path, want)))
    for name, (pf, ref, defects) in portfolios.items():
        for a in ES_ALPHAS:
            key = f"allocate.{name}.es.{a!r}"
            ops.append(Op(key, lambda r, pf=pf, a=a: tr.es_euler(pf, a),
                          functools.partial(_check_alloc, key, ref.es(a)), defects.get("es")))
        for a in EXPECTILE_ALPHAS:
            key = f"allocate.{name}.expectile.{a!r}"
            ops.append(Op(key, lambda r, pf=pf, a=a: tr.expectile_euler(pf, a, check=True),
                          functools.partial(_check_alloc, key, ref.expectile(a)),
                          defects.get("expectile")))
    return ops


# ---------------------------------------------------------------------------
# model sweep
# ---------------------------------------------------------------------------

SWEEP_SPECS = {
    "pareto:a=2.1": refs.ParetoRef(2.1),
    "pareto:a=2.1,shift=-1": refs.ParetoRef(2.1, shift=-1.0),
    "student:nu=2.3": refs.StudentRef(2.3),
    "exp": refs.ExpRef(),
    "power:a=1.1": refs.PowerRef(1.1),
    "uniform": refs.PowerRef(1.0),
    "twopoint:x1=0,x2=1,p=0.995": refs.TwoPointRef(0.0, 1.0, 0.995),
}
SWEEP_ALPHAS = (0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10)
CHECKED_ES_ALPHAS = (0.9, 0.99)
# order 1 where the family has no second-order parametrisation; Gumbel and
# two-point laws have no ratio expansion at all
EXPANSION_ORDER = {"pareto:a=2.1": 2, "pareto:a=2.1,shift=-1": 2, "student:nu=2.3": 2,
                   "power:a=1.1": 2, "uniform": 1}
SIZE_TAIL = "poly:q=3,s=2.5"
SIZE_ALPHAS = (0.9, 0.99, 0.999)
WASSERSTEIN_N = 100_000
WASSERSTEIN_ALPHA = 0.99
EPLUS_TAILS = tuple(10.0 ** -k for k in range(8, 21))


def _check_value(key, want, results):
    return _close(results[key], want)


def _check_value_of(key, other_key, results):
    return _close(results[key], results[other_key])


def _check_expectile(key, want, results):
    e = float(results[key])
    if not math.isfinite(e):
        return f"non-finite expectile {e}"
    return None if want is None else _close(e, want)


def _check_beta_star(key, e_key, results):
    bs = results[key]
    if not (bs.lower <= bs.point <= bs.upper):
        return f"point {bs.point} outside [{bs.lower}, {bs.upper}]"
    return _close(bs.expectile, results[e_key])


def _check_chain(key, e_key, results):
    b, e = results[key], float(results[e_key])
    if _le(b.lower, e) and _le(e, b.upper) and _le(b.upper, b.es_cap):
        return None
    return f"chain broken: {b.lower} <= {e} <= {b.upper} <= {b.es_cap}"


def _check_finite(key, results):
    v = float(results[key])
    return None if math.isfinite(v) else f"non-finite value {v}"


def _check_size_curve(key, results):
    for row in results[key]:
        if min(row.n_var, row.n_es, row.n_expectile) < 1 or not (
            math.isfinite(row.ratio_es_var) and math.isfinite(row.ratio_expectile_var)
        ):
            return f"bad size row {row}"
    return None


def _check_wasserstein(key, es_emp, es_model, results):
    w = float(results[key])
    if not (math.isfinite(w) and w >= 0.0):
        return f"bad distance {w}"
    bound = w / (1.0 - WASSERSTEIN_ALPHA)  # |ES_n - ES| <= w / (1 - alpha) is a theorem
    dev = abs(es_emp - es_model)
    return None if _le(dev, bound) else f"deviation {dev} above bound {bound}"


def _recon_floor(bs_key, results):
    """Cancellation floor at beta*, the level expectile_from_es evaluates ES at."""
    return 8.0 * EPS / (1.0 - results[bs_key].point)


def _sweep_spec_ops(spec: str, ref) -> list:
    d = tr.parse_distribution(spec)
    ops = []
    for a in SWEEP_ALPHAS:
        p = 1.0 - a
        deep = _deep(p)
        k = f"sweep.{spec}.{a!r}"
        e_key, bs_key = k + ".expectile", k + ".beta_star"
        ops += [
            Op(e_key, lambda r, a=a: tr.expectile(d, a),
               functools.partial(_check_expectile, e_key,
                                 ref.expectile(p) if hasattr(ref, "expectile") else None), **deep),
            Op(k + ".es", lambda r, a=a: tr.expected_shortfall(d, a),
               functools.partial(_check_value, k + ".es", ref.es(p)), **deep),
            Op(k + ".var", lambda r, a=a: tr.value_at_risk(d, a),
               functools.partial(_check_value, k + ".var", ref.var(p)), **deep),
            Op(bs_key, lambda r, a=a: tr.beta_star(d, a),
               functools.partial(_check_beta_star, bs_key, e_key), **deep),
            Op(k + ".bounds", lambda r, a=a: tr.expectile_bounds(d, a, a),
               functools.partial(_check_chain, k + ".bounds", e_key), **deep),
            # beta* reconstruction at the point this pass's beta_star returned
            Op(k + ".from_es", lambda r, a=a, bs_key=bs_key: tr.expectile_from_es(d, a, r[bs_key].point),
               functools.partial(_check_value_of, k + ".from_es", e_key),
               **({"defect": DEEP_TAIL, "floor": functools.partial(_recon_floor, bs_key)}
                  if deep else {})),
        ]
        if spec in EXPANSION_ORDER:
            key = k + ".ratio_expansion"
            ops.append(Op(key, lambda r, a=a: tr.ratio_expansion(d, a, order=EXPANSION_ORDER[spec]).value,
                          functools.partial(_check_finite, key)))
    for a in CHECKED_ES_ALPHAS:
        key = f"sweep.{spec}.{a!r}.es_checked"
        ops.append(Op(key, lambda r, a=a: tr.expected_shortfall(d, a, check=True),
                      functools.partial(_check_value, key, ref.es(1.0 - a))))
    if d.continuous:
        key = f"sweep.{spec}.size_ratio_curve"
        offset = 1.0 if math.isinf(d.support()[1]) else 1e-4  # stay inside a bounded support
        tc = tr.parse_tail_class(SIZE_TAIL)
        ops.append(Op(key, lambda r: tr.size_ratio_curve(d, tc, 0.05, 0.1, SIZE_ALPHAS,
                                                         delta_offset=offset),
                      functools.partial(_check_size_curve, key)))
    return ops


def model_sweep(seed: int, workdir: str) -> list:
    ops = []
    for spec, ref in SWEEP_SPECS.items():
        ops += _sweep_spec_ops(spec, ref)
    rng = np.random.default_rng(seed)
    draws = {
        "student:nu=2.3": rng.standard_t(2.3, size=WASSERSTEIN_N),
        "pareto:a=2.1": rng.pareto(2.1, size=WASSERSTEIN_N),  # Lomax, the pareto family
    }
    for spec, values in draws.items():
        d, s = tr.parse_distribution(spec), tr.Sample(values)
        key = f"sweep.{spec}.wasserstein_exact"
        es_emp = refs.EmpiricalRef(values).es(WASSERSTEIN_ALPHA)
        es_model = SWEEP_SPECS[spec].es(1.0 - WASSERSTEIN_ALPHA)
        ops.append(Op(key, lambda r, s=s, d=d: tr.wasserstein_exact(s, d),
                      functools.partial(_check_wasserstein, key, es_emp, es_model)))
    for spec in ("pareto:a=2.1", "exp"):
        d, ref = tr.parse_distribution(spec), SWEEP_SPECS[spec]
        for p in EPLUS_TAILS:
            key = f"sweep.{spec}.eplus.{p:g}"
            ops.append(Op(key, lambda r, d=d, m=ref.var(p): d.eplus(m),
                          functools.partial(_check_value, key, ref.eplus_at_level(p)), **_deep(p)))
    return ops


def student_sweep(seed: int, workdir: str) -> list:
    return mc_table_student(seed, workdir) + model_sweep(seed, workdir)


def pareto_allocate(seed: int, workdir: str) -> list:
    return mc_table_pareto(seed, workdir) + allocate(seed, workdir)


WORKLOADS = {
    "student-sweep": student_sweep,
    "pareto-allocate": pareto_allocate,
}
