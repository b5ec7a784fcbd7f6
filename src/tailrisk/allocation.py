"""Euler risk contributions of portfolio components.

A portfolio is a matrix of joint scenarios (rows) over components
(columns); the total loss is the rowwise sum.  Contributions are the
Euler (marginal) allocations of ES and expectile capital:

- ES:        ES_alpha(L_k | L) = E[L_k | L > q_L(alpha)];
- expectile: e_alpha(L_k | L) =
      (alpha E[L_k 1_{L > e}] + (1-alpha) E[L_k 1_{L <= e}])
      / (alpha + (1-2 alpha) P[L <= e]),   e = e_alpha(L),

both evaluated on the empirical scenario measure.  The expectile
allocation satisfies full allocation exactly (summing the numerators over
k reproduces the first-order condition of the total), and it equals the
convex combination (1-w) ES_{b}(L_k|L) + w E[L_k] with b = P[L <= e] and
w = (1-alpha)/(alpha + (1-2 alpha) b) — re-verified at runtime when
``check=True``.

Only empirical (scenario) portfolios are supported; the asymptotic ratio
helper additionally assumes the components have heavy Frechet-type tails,
an assumption on the data that cannot be verified from finite scenarios.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .asymptotics import frechet_first_order_constant
from .distributions import Sample, order_index
from .risk_core import _check_expectile_level, _check_var_level, expectile


class Portfolio:
    """Joint scenarios: row i is one scenario across the d components."""

    def __init__(self, components):
        arr = np.asarray(components, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("portfolio data must be a 2-d scenarios x components array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("portfolio needs at least one scenario and one component")
        if not np.isfinite(arr).all():
            raise ValueError("portfolio values must be finite")
        self.components = arr
        self.total = arr.sum(axis=1)

    @property
    def n(self) -> int:
        return self.components.shape[0]

    @property
    def d(self) -> int:
        return self.components.shape[1]

    @classmethod
    def from_csv(cls, path) -> "Portfolio":
        """Read scenarios from CSV: one row per scenario, one column per
        component; a single leading header row is allowed and skipped.

        Cells may be quoted and padded with spaces; empty lines are skipped.
        An empty cell is an error (``1,,2`` or a trailing comma): this is
        deliberately stricter than earlier versions, which dropped empty
        cells and so shifted the later values of the row one column left.
        A line holding only spaces is a row of one empty cell.  The file is
        read as UTF-8; a leading byte-order mark is dropped.
        """
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
        first, _, rest = text.partition("\n")
        cells = [c.strip() for c in next(csv.reader([first]), [])]
        header = not _numeric(cells)
        data = rest if header else text
        if not data.strip():
            raise ValueError(f"no scenario rows found in {path}")
        try:
            arr = np.loadtxt(io.StringIO(data), delimiter=",", quotechar='"',
                             comments=None, ndmin=2)
        except ValueError as exc:
            _diagnose_csv(data.splitlines(), 2 if header else 1, path, exc)
        return cls(arr)

    def __repr__(self):
        return f"<Portfolio n={self.n} d={self.d}>"


def _numeric(cells) -> bool:
    """True when every non-empty cell parses as a float."""
    try:
        for c in cells:
            if c:
                float(c)
    except ValueError:
        return False
    return True


def _diagnose_csv(lines, first_lineno, path, exc):
    """Raise a ValueError naming the line ``np.loadtxt`` could not read.

    Only diagnoses: every path raises, so input that ``np.loadtxt``
    rejected is never accepted.
    """
    width = None
    ragged = False
    for lineno, line in enumerate(lines, first_lineno):
        if not line:
            continue
        cells = [c.strip() for c in next(csv.reader([line]))]
        if "" in cells:
            raise ValueError(f"empty cell at line {lineno} of {path}")
        if not _numeric(cells):
            raise ValueError(f"non-numeric portfolio data at line {lineno} of {path}")
        if width is None:
            width = len(cells)
        ragged = ragged or len(cells) != width
    if ragged:
        raise ValueError(f"ragged rows in {path}: expected {width} columns")
    raise ValueError(f"unreadable portfolio data in {path}: {exc}")


def es_euler(p: Portfolio, alpha: float) -> np.ndarray:
    """ES contributions: componentwise mean over the strict tail event
    {total > empirical q_alpha}.  Scenarios tied with the quantile are
    excluded by the strict inequality.

    q_alpha is the same order statistic as ``Sample(p.total).quantile``,
    found by selection rather than a sort.
    """
    _check_var_level(alpha)
    i = int(order_index(p.n, alpha))
    q = float(np.partition(p.total, i - 1)[i - 1])
    mask = p.total > q
    count = np.count_nonzero(mask)
    if count == 0:
        raise ValueError(
            f"tail event {{total > q_alpha}} is empty at alpha={alpha} "
            f"(quantile {q:g} ties the sample maximum)"
        )
    return mask.astype(float) @ p.components / count


def expectile_euler(
    p: Portfolio, alpha: float, check: bool = True, full_output: bool = False
):
    """Expectile contributions via the weighted tail/body average.

    The body is {total <= e}, with no tolerance: a scenario tied with the
    root e adds nothing to either side of the first-order condition, so
    full allocation holds whichever side it is put on.  ``check=True``
    asserts full allocation, sum(contrib) = e to 1e-12 relative to
    sum |contrib|, and re-derives every contribution through the
    ES-combination form to 1e-9; its column means come from their own
    reduction over all rows.  ``full_output=True`` returns
    ``(contributions, e)``, with e the portfolio expectile they allocate.
    """
    _check_expectile_level(alpha)
    e = expectile(Sample(p.total), alpha)
    le = p.total <= e
    n = p.n
    n_le = int(np.count_nonzero(le))
    body_w = le.astype(float)
    body = body_w @ p.components / n
    tail = (1.0 - body_w) @ p.components / n
    den = alpha + (1.0 - 2.0 * alpha) * (n_le / n)
    contrib = (alpha * tail + (1.0 - alpha) * body) / den
    if check:
        total = float(np.sum(contrib))
        if abs(total - e) > 1e-12 * float(np.sum(np.abs(contrib))):
            raise AssertionError(
                f"expectile full allocation failed: contributions sum to {total!r}, "
                f"portfolio expectile {e!r} at alpha={alpha}"
            )
    if check and 0 < n_le < n:
        w = (1.0 - alpha) / den
        es_contrib = tail * (n / (n - n_le))
        means = np.ones(n) @ p.components / n
        alt = (1.0 - w) * es_contrib + w * means
        scale = 1.0 + np.abs(contrib)
        if np.any(np.abs(alt - contrib) > 1e-9 * scale):
            raise AssertionError(
                "expectile allocation cross-check failed: weighted average "
                f"{contrib!r} vs ES-combination {alt!r} at alpha={alpha}"
            )
    return (contrib, e) if full_output else contrib


class AsymptoticRatioRow(NamedTuple):
    """One grid point of the expectile/ES contribution ratio diagnostics.

    ``ratios`` is None when the tail event degenerated at this level (the
    reason is in ``note``).
    """

    alpha: float
    ratios: Optional[tuple]
    constant: float
    note: str


def euler_asymptotic_ratio(
    p: Portfolio, eta: float, alphas: Sequence[float]
) -> list:
    """Expectile/ES contribution ratios along an alpha grid.

    For heavy-tailed components with common tail index eta > 1, the
    expectile contribution is asymptotically the ES contribution times
    (eta-1)^((eta-1)/eta)/eta; this emits the empirical ratios next to
    that constant for convergence inspection.  Degenerate tails at large
    alpha are reported per row rather than raised.
    """
    constant = frechet_first_order_constant(eta)
    rows = []
    for a in alphas:
        try:
            es_c = es_euler(p, a)
            e_c = expectile_euler(p, a, check=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = tuple(np.asarray(e_c) / np.asarray(es_c))
            rows.append(AsymptoticRatioRow(float(a), ratios, constant, ""))
        except ValueError as exc:
            rows.append(AsymptoticRatioRow(float(a), None, constant, str(exc)))
    return rows
