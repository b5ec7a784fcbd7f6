"""Euler risk contributions of portfolio components.

A portfolio is a matrix of joint scenarios (rows) over components
(columns); the total loss is the rowwise sum.  Contributions are the
Euler (marginal) allocations of ES and expectile capital:

- ES:        ES_alpha(L_k | L) =
      (E[L_k 1_{L > q}] + (P[L <= q] - alpha) E[L_k | L = q]) / (1-alpha),
      q = q_alpha(L), the tail average of the paper with the atom at q
      given its fractional weight (Tasche 1999; Acerbi & Tasche 2002);
- expectile: e_alpha(L_k | L) =
      (alpha E[L_k 1_{L > e}] + (1-alpha) E[L_k 1_{L <= e}])
      / (alpha + (1-2 alpha) P[L <= e]),   e = e_alpha(L),

both evaluated on the empirical scenario measure, and both satisfy full
allocation: the ES contributions add up to ES_alpha of the totals, ties
or not, and the expectile ones to e (summing the numerators over k
reproduces the first-order condition of the total).  The expectile
allocation equals the convex combination (1-w) ES_{b}(L_k|L) + w E[L_k]
with b = P[L <= e] and w = (1-alpha)/(alpha + (1-2 alpha) b).

Neither allocation sorts or copies all n scenario totals.  Both read the
totals through the selection helpers of :mod:`tailrisk.risk_core` that
the ratio tables also use: ``_select`` gives q_alpha, ES_alpha and the
rows whose totals are at or above a threshold t <= q_alpha, found from a
strided sample of the totals, so that on 1e6 rows it partitions about
(1 - alpha) n totals, not n; ``_tail_expectile`` gives e_alpha, sorting
only the totals above the paper's lower bound (1 - w) ES_alpha + w E[L],
w = 1/(2 alpha) (the b = alpha case above), which it finds among those
rows when the bound is >= t.  Past that, each allocation costs work
proportional to the tail: the tail rows are gathered with ``np.take`` and
summed by a matrix-vector product; the expectile reads the column means
``Portfolio`` computed once.

``Portfolio.from_csv`` remembers the last file of at most
``_CSV_MEMO_CHARS`` characters that it parsed: its text and a read-only
copy of its matrix.  A later read of the same text in the same process
copies that matrix instead of parsing again.  Separate processes share
nothing.

Only empirical (scenario) portfolios are supported; the asymptotic ratio
helper additionally assumes the components have heavy Frechet-type tails,
an assumption on the data that cannot be verified from finite scenarios.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple, Sequence

import numpy as np

from .asymptotics import frechet_first_order_constant
from .risk_core import (
    _agree,
    _check_expectile_level,
    _check_var_level,
    _indices,
    _select,
    _tail_expectile,
)

# from_csv remembers no file longer than this: a 4 MiB text, whose matrix
# takes about 1.6 MiB at 20 characters a value
_CSV_MEMO_CHARS = 1 << 22


class Portfolio:
    """Joint scenarios: row i is one scenario across the d components.

    A float64 array is borrowed, not copied: ``components`` is the
    caller's 2-d array itself (a column view of a 1-d one), and the row
    totals ``total`` and column means ``means`` are computed here once.
    Writing into the array afterwards leaves both stale, so the
    contributions no longer add up to the measure of the totals.  Lists,
    other dtypes and ``from_csv`` give the portfolio an array of its own.
    """

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
        self.means = np.ones(arr.shape[0]) @ arr / arr.shape[0]

    @property
    def n(self) -> int:
        return self.components.shape[0]

    @property
    def d(self) -> int:
        return self.components.shape[1]

    # the last file of at most _CSV_MEMO_CHARS characters that ``from_csv``
    # parsed: (its text, read-only float64 matrix), or None
    _last_csv = None

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

        The last file parsed is remembered for the life of the process, if
        its text (as read: BOM dropped, line ends made ``\\n``) has at most
        ``_CSV_MEMO_CHARS`` characters: that text and a read-only copy of its
        matrix, 8 bytes per value.  A file with the same text skips the
        parse and gets a copy of that matrix, so each portfolio still owns
        a writable array.  The key is the content, never the path or the
        modification time, so a rewritten file is parsed again; a file that
        fails to parse is not remembered.  Separate processes share
        nothing: a one-shot command gains nothing and pays one copy of the
        matrix.
        """
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
        last = Portfolio._last_csv
        if last is not None and last[0] == text:
            return cls(last[1].copy())
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
        p = cls(arr)
        if len(text) <= _CSV_MEMO_CHARS:
            kept = arr.copy()
            kept.flags.writeable = False
            Portfolio._last_csv = (text, kept)
        return p

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


def es_euler(p: Portfolio, alpha: float, full_output: bool = False):
    """ES contributions: the Euler allocation of the tail average
    ES_alpha = (1/(1-alpha)) int_alpha^1 q(u) du of the totals,

        (sum_{L > x} L_k + (m / n_eq) sum_{L = x} L_k) / (n (1 - alpha)),

    x = x_(j) ES's order statistic, j = ceil(n alpha) taken exactly
    (``order_stats``), n_eq = #{L = x}, and m = n (1 - alpha) - #{L > x} in
    [0, n_eq] the part of the atom at x in the tail.  The contributions add
    up to ``expected_shortfall(Sample(p.total), alpha)``, ties or not.

    x, n (1 - alpha) and ES_alpha come from one selection of the totals
    (``_select``), and the rows at or above x from the rows it keeps; one
    weighted matrix-vector product sums them, so past the selection the
    cost is proportional to the tail and the ties at x.
    ``full_output=True`` returns ``(contributions, ES)``.
    """
    _check_var_level(alpha)
    sel = _select(p.total, alpha)
    rows = _indices(sel.rows, sel.vals >= sel.atom)
    above = p.total[rows] > sel.atom
    n_above = int(np.count_nonzero(above))
    w = np.maximum(above, (sel.mass - n_above) / (rows.size - n_above))
    contrib = w @ np.take(p.components, rows, axis=0) / sel.mass
    return (contrib, sel.es) if full_output else contrib


def expectile_euler(
    p: Portfolio, alpha: float, check: bool = True, full_output: bool = False
):
    """Expectile contributions via the weighted tail/body average.

    The portfolio expectile e comes from one selection and a sort of the
    totals above the paper's ES lower bound (``_tail_expectile``), not a
    sort of all n totals; the rows above e are gathered and summed, and the
    body sums are the column sums over all rows, ``p.means``, minus the
    tail's, so past the selection the cost is proportional to the tail.

    The body is {total <= e}, with no tolerance: a scenario tied with the
    root e adds nothing to either side of the first-order condition, so
    full allocation holds whichever side it is put on.  ``check=True``
    raises AssertionError (never RuntimeError: there is no quadrature)
    unless the contributions add up to e to 1e-12 of the sum's terms,
    sum_k ((2 alpha - 1) sum_{L > e} |L_k| + (1 - alpha) sum |L_k|) / (n den),
    den = alpha + (1 - 2 alpha) P[L <= e].  ``full_output=True`` returns
    ``(contributions, e)``, with e the portfolio expectile they allocate.
    """
    _check_expectile_level(alpha)
    e, rows = _tail_expectile(p.total, alpha)
    n = p.n
    # BLAS sums a gathered row block faster than sum(axis=0) does
    tail = np.ones(rows.size) @ np.take(p.components, rows, axis=0) / n
    # alpha + (1 - 2 alpha) P[L <= e], written without its cancellation at
    # levels near 1, where it is about 1 - alpha
    den = (1.0 - alpha) + (2.0 * alpha - 1.0) * (rows.size / n)
    # alpha * tail + (1 - alpha) * body, with body = p.means - tail
    contrib = ((2.0 * alpha - 1.0) * tail + (1.0 - alpha) * p.means) / den
    if check:
        total = float(np.sum(contrib))
        # sum |contrib| bounds the terms from below: only a miss of it pays
        # the pass over the matrix that the terms take
        if not abs(total - e) <= 1e-12 * float(np.sum(np.abs(contrib))):
            tail_abs = np.abs(np.take(p.components, rows, axis=0)).sum()
            terms = ((2.0 * alpha - 1.0) * tail_abs
                     + (1.0 - alpha) * np.abs(p.components).sum()) / (n * den)
            _agree(f"expectile full allocation at alpha={alpha}", total, e, terms, 1e-12)
    return (contrib, e) if full_output else contrib


class AsymptoticRatioRow(NamedTuple):
    """One grid point of the expectile/ES contribution ratio diagnostics."""

    alpha: float
    ratios: tuple
    constant: float


def euler_asymptotic_ratio(
    p: Portfolio, eta: float, alphas: Sequence[float]
) -> list:
    """Expectile/ES contribution ratios along an alpha grid.

    For heavy-tailed components with common tail index eta > 1, the
    expectile contribution is asymptotically the ES contribution times
    (eta-1)^((eta-1)/eta)/eta; this emits the empirical ratios next to
    that constant for convergence inspection.  Every level must be an
    expectile level, checked before any allocation; a component with a zero
    ES contribution gets an infinite or NaN ratio.
    """
    constant = frechet_first_order_constant(eta)
    levels = [_check_expectile_level(a) for a in alphas]
    rows = []
    for a in levels:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = expectile_euler(p, a, check=False) / es_euler(p, a)
        rows.append(AsymptoticRatioRow(a, tuple(ratios), constant))
    return rows
