"""Sequential paired-category collapsing (PCC).

At each step every eligible category pair of every non-fixed variable is
scored by its information loss per eliminated parameter (G^2 / h); the pair
with the minimal gradient is merged and the step recorded.  The per-step
losses partition the total deviance, so the cumulative column of the trace
equals the deviance of the expanded partition model at every row.

The trace ends with a terminal row once at most one dimension has more than
one category: from that state any remaining merge carries no information
about interactions, so the final row repeats the bookkeeping with a zero
loss term and leaves the model/residual split unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

from .errors import FeasibilityError, InputError
from .infoloss import _pair_df, partition_deviance
from .table import FIXED, NOMINAL, ORDINAL, TREATMENTS, Partition, SparseTable

__all__ = [
    "MergeCandidate",
    "PccStep",
    "PccTrace",
    "normalize_treatments",
    "select_merge",
    "run_pcc",
    "adjusted_rsq",
    "penalized_scores",
    "info_concentration",
    "exhaustive_partition_search",
    "DEFAULT_SIZE_CAP",
]

DEFAULT_SIZE_CAP = 1_000_000

# quotient comparisons treat differences below this relative tolerance as
# ties, resolved by the order the candidates are scanned in
_TIE_RTOL = 1e-12


def _beats(q: float, best: float | None) -> bool:
    """Whether quotient ``q`` replaces the running best quotient ``best``
    (None before the first candidate): only when it is lower by more than
    relative ``_TIE_RTOL``, so a scan in lexicographic order gives every tie
    to the first candidate."""
    return best is None or (q < best and abs(q - best) > _TIE_RTOL * max(1.0, abs(q), abs(best)))


def normalize_treatments(ndim: int, treatments: Sequence[str] | None) -> tuple[str, ...]:
    if treatments is None:
        return (NOMINAL,) * ndim
    treatments = tuple(treatments)
    if len(treatments) != ndim:
        raise InputError(f"need one treatment per variable ({ndim}), got {len(treatments)}")
    for t in treatments:
        if t not in TREATMENTS:
            raise InputError(f"unknown treatment {t!r}")
    return treatments


class MergeCandidate(NamedTuple):
    dim: int
    u: int
    v: int
    g2: float
    df: int
    quotient: float


def select_merge(table: SparseTable, treatments: Sequence[str] | None = None) -> MergeCandidate | None:
    """The eligible pair with the minimal loss gradient, or None.

    A pair is eligible when its variable is not fixed, has at least two
    categories, and at least one other variable has more than one category
    (otherwise the merge eliminates no parameters).  Ties within relative
    1e-12 go to the lexicographically smallest (dim, u, v).  This is the
    first step of :func:`run_pcc`, taken by the same engine.
    """
    from .collapse import _Collapse

    return _Collapse(table, normalize_treatments(table.ndim, treatments)).select()


@dataclass(frozen=True)
class PccStep:
    """One row of a collapsing trace.

    ``key`` is the collapsed variable's cumulative key vector expressed in
    original category indices; ``shape`` the table shape after the step.
    ``dfmod + dfres`` always equals the original cell count minus one.  The
    ``terminal`` row repeats the final state with a zero loss term; its
    ``df_term`` is reported but not added to ``dfres``.
    """

    r: int
    d: int | None
    key: tuple[int, ...] | None
    shape: tuple[int, ...]
    dev: float
    dfmod: int
    dfres: int
    dev_term: float
    df_term: int
    adj_rsq: float
    terminal: bool = False


@dataclass(frozen=True)
class PccTrace:
    """Ordered collapse steps plus per-row cumulative partitions."""

    steps: tuple[PccStep, ...]
    partitions: tuple[Partition, ...]
    original_shape: tuple[int, ...]
    treatments: tuple[str, ...]

    @property
    def final_dev(self) -> float:
        return self.steps[-1].dev

    def partition_at(self, r: int) -> Partition:
        return self.partitions[r]

    def curve(self) -> list[tuple[int, float]]:
        """(dfmod, dev) pairs for the deviance-versus-parameters graph."""
        return [(s.dfmod, s.dev) for s in self.steps]


def adjusted_rsq(dev_r: float, dfres_r: int, dev_last: float, dfres_last: int) -> float:
    """``1 - dev(r) * dfres(last) / (dev(last) * dfres(r))``.

    Rows with zero residual df are defined as 1.0, as is the degenerate case
    of a trace whose final deviance is zero.
    """
    if dfres_r == 0:
        return 1.0
    if dev_last == 0:
        return 1.0
    return 1.0 - dev_r * dfres_last / (dev_last * dfres_r)


def _finish(cls, rows: list[dict]) -> tuple:
    """The trace rows ``cls(**row, adj_rsq=...)``, each row's adjusted R^2
    taken against the last row."""
    last = rows[-1]
    return tuple(cls(**row, adj_rsq=adjusted_rsq(row["dev"], row["dfres"], last["dev"],
                                                 last["dfres"]))
                 for row in rows)


def run_pcc(table: SparseTable, treatments: Sequence[str] | None = None,
            stop_quotient: float | None = None) -> PccTrace:
    """Run the full collapsing sequence and return its trace.

    Row 0 records the saturated state.  Each following row merges the
    minimal-gradient pair until at most one dimension has more than one
    category, then a terminal zero-loss row is appended.  If
    ``stop_quotient`` is given, the run stops before the first step whose
    gradient exceeds it (and no terminal row is added); adjusted R^2 is
    always normalised to the trace's own last row.

    Every step picks exactly the pair :func:`select_merge` would pick on the
    current table, with the same loss, without rescoring every axis:

    - Each eligible axis carries its row totals and shared-column sums
      ``S[u, v] = sum_j h(a_uj, a_vj)`` from step to step.  A merge of
      ``(u, v)`` on axis ``d`` changes ``S`` of another axis only in the
      columns that the merged cells fill: one call of the pairing kernel
      ``infoloss._merge_deltas`` over the merged cells alone, shared by the
      axes of one treatment, forms every pair of cells in such a column at
      once and adds for each ``h(m_a, m_b) - h(x_a, x_b) - h(y_a, y_b)``,
      where ``m = x + y`` is a merged count and ``x`` and ``y`` are its u-
      and v-parts (0 where that category had no cell in the column).  On
      ``d`` itself row and column ``v`` are dropped; on a nominal axis the
      merged category's row is u's and v's rows added and corrected in the
      columns that held both; on an ordinal axis, once the merged cells are
      written, its two neighbour pairs' sums are read afresh by the one
      pair reader that rescores the shortlist (below), which gives them
      bitwise as a fresh kernel pass would.
    - The table is kept as cells in flat indexes over the original shape
      with their counts, a dead cell's count 0, and with one index per axis
      (see :class:`~pcctab.collapse._Collapse`), so a merge reads and
      writes only u's and v's cells and the cells sharing their columns,
      and renumbers nothing.  Each merged count is ``a + b`` as
      ``apply_partition`` forms it.  Each axis's map from original to
      current categories is canonical and is the trace's key.
    - Carried sums are not bitwise what a fresh kernel pass over the
      current table gives: the pairing kernel folds each delta's terms in
      another order than the offset passes of ``infoloss._axis_sums``, and
      the deltas add up over the merges.  They drift by rounding (measured
      at most 4.8e-15 n over the 60-merge collapse of a 15,000-cell table
      and 1.9e-15 n over the 142-merge collapse of a 60,000-cell
      census-shape table), so they only shortlist, and the drift moves no
      merge and no loss.  Every candidate whose carried quotient lies within
      ``W = 1e-7 max(1, |q_min|) + 1e-9 n / df`` of the carried minimum
      ``q_min`` (``n`` the table total, ``df`` the smallest of the eligible
      axes, so W bounds the drift of every quotient) is shortlisted, and
      every candidate is when any carried quotient is not finite.  The
      shortlist is rescored exactly, one pair at a time in scan order, from
      each pair's own cells: u's and v's cells and, in the columns holding
      both, the other categories' cells, those between ``u`` and ``v``
      setting the offset pass each column's term has in the kernel.
      ``infoloss._one_pair_g2`` folds them in the kernel's order, so each
      rescored loss equals its full-axis entry bit for bit.  The sequential
      1e-12 tie scan folds each rescored candidate into the running best; W
      is 1e5 times wider than a tie, so a chain of ties would need about
      1e5 links to reach past it.  The reading stops once the best quotient
      is exactly 0: losses are clamped at 0 and only a strictly lower
      quotient replaces the best, so no later candidate can win.  A pair
      with an empty category loses exactly 0, so while one is empty a step
      reads about one pair.  The merge then works from the winner's read:
      its merged counts, the cells that move and, on a nominal axis,
      the correction of the merged category's row.
    """
    if table.total <= 0:
        raise InputError("cannot collapse an empty table")
    treatments = normalize_treatments(table.ndim, treatments)
    # NaN fails too; inf is legal and never stops the run
    if stop_quotient is not None and not stop_quotient >= 0:
        raise InputError("stop_quotient must be nonnegative and not NaN")

    # imported on first use: a process that never collapses need not load it
    from .collapse import _Collapse

    cells_minus_one = math.prod(table.shape) - 1
    state = _Collapse(table, treatments)
    cumulative = Partition.identity(table.shape)

    rows = [dict(r=0, d=None, key=None, shape=table.shape, dev=0.0, dfmod=cells_minus_one,
                 dfres=0, dev_term=0.0, df_term=0, terminal=False)]
    partitions = [cumulative]
    dev = 0.0
    dfres = 0
    stopped_early = False
    r = 0
    while True:
        cand = state.select()
        if cand is None:
            break
        if stop_quotient is not None and cand.quotient > stop_quotient:
            stopped_early = True
            break
        state.merge()
        keys = list(cumulative.keys)
        # each original category's current id, each group numbered by its
        # smallest member: already canonical
        keys[cand.dim] = tuple(state.cur[cand.dim].tolist())
        cumulative = Partition._canonical(tuple(keys))
        r += 1
        dev += cand.g2
        dfres += cand.df
        rows.append(dict(r=r, d=cand.dim, key=cumulative.keys[cand.dim], shape=state.shape,
                         dev=dev, dfmod=cells_minus_one - dfres, dfres=dfres, dev_term=cand.g2,
                         df_term=cand.df, terminal=False))
        partitions.append(cumulative)

    if not stopped_early:
        nonfixed = [k for k in range(table.ndim) if treatments[k] != FIXED]
        if nonfixed:
            d0 = nonfixed[0]
            rows.append(dict(r=r + 1, d=d0, key=cumulative.keys[d0], shape=state.shape,
                             dev=dev, dfmod=cells_minus_one - dfres, dfres=dfres, dev_term=0.0,
                             df_term=_pair_df(state.shape, d0), terminal=True))
            partitions.append(cumulative)

    return PccTrace(steps=_finish(PccStep, rows), partitions=tuple(partitions),
                    original_shape=table.shape, treatments=treatments)


def penalized_scores(dev: float, dfmod: int, n: float) -> tuple[float, float]:
    """AIC and BIC relative to the saturated model: ``dev + 2 * dfmod`` and
    ``dev + dfmod * ln(n)``.  Diagnostics only; they never drive selection."""
    if n <= 0:
        raise InputError("n must be positive")
    return dev + 2.0 * dfmod, dev + dfmod * math.log(n)


def info_concentration(curve: Sequence[tuple[float, float]]) -> float:
    """Gini-like concentration of a deviance-versus-parameters curve.

    Parameter counts are mapped to x in [0, 1] (saturated at 0), deviances
    to y in [0, 1], and the trapezoid area under y(x) is divided by the
    area of the triangle (0.5).  Values near zero mean the information is
    concentrated in a few parameters; a straight line gives 1.
    """
    if len(curve) < 2:
        raise InputError("curve needs at least two points")
    pts = sorted(((float(d), float(v)) for d, v in curve), key=lambda p: -p[0])
    df_max, df_min = pts[0][0], pts[-1][0]
    if df_max == df_min:
        raise InputError("curve must span more than one parameter count")
    dev_max = max(v for _, v in pts)
    if dev_max == 0:
        return 0.0
    xs = [(df_max - d) / (df_max - df_min) for d, _ in pts]
    ys = [v / dev_max for _, v in pts]
    area = 0.0
    for i in range(len(pts) - 1):
        area += (xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) / 2.0
    return area / 0.5


def _set_partitions(r: int):
    """All partitions of r items as canonical key vectors (restricted growth
    strings), in lexicographic order."""
    key = [0] * r
    while True:
        yield tuple(key)
        i = r - 1
        while i > 0 and key[i] > max(key[:i]):
            i -= 1
        if i == 0:
            return
        key[i] += 1
        for j in range(i + 1, r):
            key[j] = 0


def _contiguous_partitions(r: int):
    """All partitions of r ordered items into contiguous runs."""
    for cuts in product([False, True], repeat=r - 1):
        key = [0] * r
        g = 0
        for i, cut in enumerate(cuts):
            if cut:
                g += 1
            key[i + 1] = g
        yield tuple(key)


def _bell_number(r: int) -> int:
    # Bell triangle: 1, 1, 2, 5, 15, 52, 203, 877, ...
    row = [1]
    for _ in range(r - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def enumeration_size(shape: Sequence[int], treatments: Sequence[str] | None = None) -> int:
    """Number of joint partitions an exhaustive search would visit."""
    treatments = normalize_treatments(len(shape), treatments)
    total = 1
    for r, t in zip(shape, treatments):
        if t == FIXED:
            count = 1
        elif t == ORDINAL:
            count = 2 ** (r - 1)
        else:
            count = _bell_number(r)
        total *= count
    return total


def exhaustive_partition_search(
    table: SparseTable,
    treatments: Sequence[str] | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> dict[tuple[int, ...], tuple[Partition, float]]:
    """Evaluate every joint category partition of a small table.

    Returns, for each reachable collapsed shape, the partition with the
    minimal total information loss (deviance of its expanded model) and that
    loss; comparing against a greedy trace shows how far the sequence sits
    from the global optimum.  Raises :class:`FeasibilityError` when the
    enumeration would exceed ``size_cap``.
    """
    treatments = normalize_treatments(table.ndim, treatments)
    size = enumeration_size(table.shape, treatments)
    if size > size_cap:
        raise FeasibilityError(
            f"exhaustive search would enumerate {size} joint partitions "
            f"(cap {size_cap})", size=size)
    per_dim: list[list[tuple[int, ...]]] = []
    for k, r in enumerate(table.shape):
        if treatments[k] == FIXED:
            per_dim.append([tuple(range(r))])
        elif treatments[k] == ORDINAL:
            per_dim.append(list(_contiguous_partitions(r)))
        else:
            per_dim.append(list(_set_partitions(r)))
    best: dict[tuple[int, ...], tuple[Partition, float]] = {}
    for keys in product(*per_dim):
        part = Partition(keys)
        loss = partition_deviance(table, part)
        shape = part.group_counts
        prev = best.get(shape)
        if prev is None or loss < prev[1]:
            best[shape] = (part, loss)
    return best
