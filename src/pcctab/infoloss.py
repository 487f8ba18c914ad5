"""Likelihood-ratio information loss statistics.

G^2 here is the likelihood-ratio statistic in natural-log units: twice the
sum over observed cells of ``n_i * ln(n_i / e_i)``, i.e. 2n times the
Kullback-Leibler distance between observed proportions and a model.  All
logs are guarded so that 0 * ln(0) contributes zero, and degrees of freedom
are never reduced for empty rows or columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegeneracyError, InputError
from .table import (FIXED, NOMINAL, ORDINAL, Partition, SparseTable, _order, apply_partition,
                    group_weights)

__all__ = [
    "PairLoss",
    "LossMatrix",
    "pair_loss",
    "loss_matrix",
    "partition_deviance",
]


@dataclass(frozen=True)
class PairLoss:
    """Information loss from aggregating categories ``u`` and ``v`` of one
    variable, with its degrees of freedom ``df`` and gradient ``g2 / df``."""

    dim: int
    u: int
    v: int
    g2: float
    df: int

    @property
    def quotient(self) -> float:
        if self.df == 0:
            return 0.0 if self.g2 == 0 else math.inf
        return self.g2 / self.df


def _xlogx(t: np.ndarray) -> np.ndarray:
    # t * ln(t) for t >= 0: 5e-324 is the least positive double, so the max
    # leaves every t > 0 as it is and 0 * ln(0) gives -0.0
    return t * np.log(np.maximum(t, 5e-324))


def _other_cols(table: SparseTable, dim: int, dtype: type[np.signedinteger] = np.int64
                ) -> np.ndarray:
    """Flat index of each cell over every axis but ``dim``: its column when
    ``dim`` is read as the row variable, taken from the cell's flat index.

    A cell of category ``c`` on ``dim`` has the flat index ``(hi r + c)
    inner + lo`` and the column ``hi inner + lo``, the flat index less ``(hi
    (r - 1) + c) inner``, which is formed in place in the one array returned,
    of ``dtype``: any integer type that holds the flat indexes.
    """
    r = table.shape[dim]
    inner = math.prod(table.shape[dim + 1:])
    flat = table.flat.astype(dtype, copy=False)
    cols = flat // (r * inner)
    cols *= r - 1
    cols += table.coords[:, dim]
    cols *= inner
    return np.subtract(flat, cols, out=cols)


def _axis_sums(cats: np.ndarray, vals: np.ndarray, remaining: np.ndarray, r: int,
               adjacent: bool = False) -> np.ndarray:
    """Shared-column sums of one axis.

    The cells are those that share their column with another, as a front
    end returns them, sorted by (column, category): category ``cats`` (in
    ``range(r)``), positive count ``vals`` and how many cells follow each
    in its column, ``remaining``.  ``shared[u, v]`` for ``u < v`` is ``sum_j
    h(a_uj, a_vj)`` over the columns holding both categories, with ``h(a,
    b) = x(a) + x(b) - x(a + b)`` and ``x(t) = t ln t``; entries on and
    below the diagonal are zero.  With ``adjacent`` only the ``v = u + 1``
    entries are summed.  The row totals the loss also needs are a table's
    one-way marginal (:meth:`SparseTable.one_way`).

    Two front ends give the cells.  :func:`_paired_cells` takes loose
    cells, in any order with their column ids (a collapse's ordinal
    neighbour rows), and sorts each (column, category) key packed with the
    cell's position.  :func:`_table_cells` takes a table's axis, for
    :func:`loss_matrix` and a collapse's start.  Where the axis's columns
    hold under ``_KEY_CELLS_PER_COLUMN`` cells on average, so that few
    cells pair, it sorts the keys alone and reads back the counts of the
    cells that pair (:func:`_key_cells`); elsewhere it hands the table's
    cells to :func:`_paired_cells`.  Both sort the same distinct keys and
    take each kept cell's stored count, neither recomputed nor re-added,
    so they return the same arrays bit for bit, and the sums agree bit for
    bit too.

    Offset pass ``t`` pairs each cell with the cell ``t`` places later in
    the same column, and the active set shrinks as columns run out of
    partners, so working memory stays O(nnz + r^2) however many pairs
    share a column.  Every entry is the fold of its terms in this order,
    which :func:`_one_pair_g2` reproduces for one pair.  This is the one
    kernel of fresh sums; what a merge changes comes from
    :func:`_merge_deltas`.
    """
    xvals = vals * np.log(vals)
    shared = np.zeros(r * r)
    active = np.arange(cats.shape[0])
    # a column holds each category at most once, so offsets stop below r
    for t in range(1, 2 if adjacent else r):
        active = active[remaining[active] >= t]
        partner = active + t
        if adjacent:
            active = active[cats[partner] == cats[active] + 1]
            partner = active + 1
        if active.size == 0:
            break
        ab = vals[active] + vals[partner]
        h = xvals[active] + xvals[partner] - ab * np.log(ab)
        # within a column categories ascend, so every pair lands above the diagonal
        shared += np.bincount(cats[active] * r + cats[partner], weights=h, minlength=r * r)
    return shared.reshape(r, r)


def _merge_deltas(cats: np.ndarray, cols: np.ndarray, p: np.ndarray, q: np.ndarray, r: int,
                  adjacent: bool = False) -> np.ndarray:
    """What a merge adds to the shared-column sums of another axis.

    The merged cells are given by category ``cats`` (in ``range(r)``) and
    column id ``cols``, in any order, each (column, category) at most once,
    and each count ``m = p + q`` split into the parts ``p`` and ``q`` that
    the two merged categories held (0 where one held no cell).
    ``delta[u, v]`` for ``u < v`` is ``sum_j h(m_uj, m_vj) - h(p_uj, p_vj)
    - h(q_uj, q_vj)``, with ``x(0) = 0``; entries on and below the
    diagonal, off the adjacent pairs with ``adjacent``, and of columns that
    only ``p`` or only ``q`` fills are exactly 0.

    Cells are sorted and lone cells dropped by :func:`_paired_cells`.
    Then every pair of a column is formed at once, each remaining cell
    repeated once per later cell of its column, and the terms are added
    with one ``bincount`` per block of at most ``_PAIR_BLOCK`` pairs
    (:func:`_pair_blocks`), so working memory stays bounded however long a
    column is.  With
    ``adjacent`` only consecutive cells whose categories differ by one
    pair, fewer pairs than cells, in one ``bincount``.  The terms fold in
    another order than :func:`_axis_sums` folds them: the carried sums
    these deltas keep only shortlist candidates, which are rescored
    exactly.
    """
    cats, p, q, remaining = _paired_cells(cats, cols, r, p, q)
    m = p + q
    xvals = m * np.log(m) - _xlogx(p) - _xlogx(q)
    if adjacent:
        left = np.flatnonzero(remaining > 0)
        left = left[cats[left + 1] == cats[left] + 1]
        blocks = [(left, left + 1)]
    else:
        blocks = _pair_blocks(remaining)
    delta = np.zeros(r * r)
    for left, right in blocks:
        h = xvals[left]
        h += xvals[right]
        a = p[left]
        a += p[right]
        b = q[left]
        b += q[right]
        h += _xlogx(a)
        h += _xlogx(b)
        # the pair's merged count, positive
        a += b
        h -= a * np.log(a)
        # within a column categories ascend, so every pair lands above the diagonal
        key = cats[left]
        key *= r
        key += cats[right]
        delta += np.bincount(key, weights=h, minlength=r * r)
    return delta.reshape(r, r)


def _paired_cells(cats: np.ndarray, cols: np.ndarray, r: int, *vals: np.ndarray
                  ) -> tuple[np.ndarray, ...]:
    """The cells that share their column with another, sorted by (column,
    category): their categories as int64, each of ``vals`` in that order,
    and how many cells follow each one in its column."""
    keys = np.multiply(cols, r, dtype=np.int64)
    keys += cats
    order, cols = _order(keys)
    cols //= r
    keep, _, remaining = _column_runs(cols)
    if keep is not None:
        order = order[keep]
    return (cats[order].astype(np.int64, copy=False), *(v[order] for v in vals), remaining)


def _table_cells(table: SparseTable, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cats, vals, remaining)`` of :func:`_paired_cells` for the cells of
    ``table`` on axis ``dim``: the front end of a fresh loss pass.

    An axis whose columns hold fewer than ``_KEY_CELLS_PER_COLUMN`` cells
    on average, ``nnz r / prod(shape)``, leaves most cells alone in their
    column unless its categories are strongly skewed, so only its keys are
    sorted (:func:`_key_cells`); on others most cells pair, and the packed
    sort of :func:`_paired_cells`, which carries every cell's position, is
    the cheaper.
    """
    r = table.shape[dim]
    if table.nnz * r < _KEY_CELLS_PER_COLUMN * math.prod(table.shape):
        return _key_cells(table, dim)
    return _paired_cells(table.coords[:, dim], _other_cols(table, dim), r, table.counts)


def _key_cells(table: SparseTable, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_paired_cells` of the cells of ``table`` on axis ``dim``,
    from their (column, category) keys alone.

    The keys ``column * r + category`` are below ``prod(shape)``, so they
    are formed and sorted in 32 bits when that fits, with no positions
    packed in.  Only the keys whose column repeats are kept; each is turned
    back into its cell's flat index, and the cell's count is read at that
    index in ``table.flat`` by binary search, with the indexes searched in
    increasing order, which keeps the search within the cache.  A table
    whose cells are not in flat-index order is searched through a sorter.
    """
    r = table.shape[dim]
    inner = math.prod(table.shape[dim + 1:])
    key_type = np.int32 if math.prod(table.shape) <= np.iinfo(np.int32).max else np.int64
    keys = _other_cols(table, dim, key_type)
    keys *= r
    keys += table.coords[:, dim]
    keys.sort()
    keep, cols, remaining = _column_runs(keys // r)
    if keep is not None:
        keys = keys[keep]
    # int64 like table.flat, so that the binary search copies neither side
    cols = cols.astype(np.int64)
    cats = keys.astype(np.int64)
    cats -= cols * r
    # the flat index (hi r + c) inner + lo of the column hi inner + lo
    flat = cols // inner
    flat *= r - 1
    flat += cats
    flat *= inner
    flat += cols
    order, flat = _order(flat)
    at = np.searchsorted(table.flat, flat)
    if not np.array_equal(table.flat.take(at, mode="clip"), flat):
        sorter = np.argsort(table.flat)
        at = sorter[np.searchsorted(table.flat, flat, sorter=sorter)]
    vals = np.empty(flat.shape[0])
    vals[order] = table.counts[at]
    return cats, vals, remaining


def _column_runs(cols: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """For the column ids ``cols`` of cells in ascending order: the
    positions of the cells that share their column with another (None when
    all do), the column ids of those cells, and how many cells follow each
    one in its column."""
    shares = cols[1:] == cols[:-1]
    paired = np.zeros(cols.shape[0], dtype=bool)
    paired[:-1] = shares
    paired[1:] |= shares
    keep = None
    if not paired.all():
        keep = np.flatnonzero(paired)
        cols = cols[keep]
    n = cols.shape[0]
    ends = np.append(np.flatnonzero(cols[1:] != cols[:-1]) + 1, n)
    remaining = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(n) - 1
    return keep, cols, remaining


def _pair_blocks(remaining: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair ``(i, i + t)`` with ``1 <= t <= remaining[i]``, as
    ``(left, right)`` index arrays ordered by ``i`` and then ``t``, in blocks
    of whole cells: at most ``_PAIR_BLOCK`` pairs, unless one cell alone has
    more (fewer than the categories of its axis)."""
    ends = np.cumsum(remaining)
    total = int(ends[-1]) if ends.size else 0
    # pair j of cell i, numbered from ends[i] - remaining[i], has the partner j + shift[i]
    shift = np.arange(1, remaining.size + 1) - (ends - remaining)
    lo = done = 0
    while done < total:
        hi = max(int(np.searchsorted(ends, done + _PAIR_BLOCK, "right")), lo + 1)
        left = np.repeat(np.arange(lo, hi), remaining[lo:hi])
        right = shift[left]
        right += np.arange(done, done + left.size)
        yield left, right
        lo, done = hi, int(ends[hi - 1])


# most pairs one bincount of _merge_deltas takes: bounds its working memory
# when the columns of an axis are long, and keeps each per-pair array at
# 64 KB, below glibc's default mmap threshold, so that blocks reuse heap
# memory instead of mapping fresh pages (at 2**16 a pcc-sparse4 collapse
# took about 1.5 times the minor faults and a higher peak)
_PAIR_BLOCK = 1 << 13

# mean cells per column, nnz r / prod(shape), below which a fresh loss pass
# sorts keys alone (_table_cells).  Sorting keys alone won while at most
# about 15-20% of the cells paired and lost up to 2x above that; under
# uniform cells 0.05 pairs about 5%, and skewed categories pair more
_KEY_CELLS_PER_COLUMN = 0.05


def _pair_g2(rows_u: np.ndarray, rows_v: np.ndarray, shared_uv: np.ndarray) -> np.ndarray:
    """Aggregation loss of category pairs ``u < v``, one per element.

    With ``x(t) = t ln t`` and ``h(a, b) = x(a) + x(b) - x(a + b)``, a pair
    with row totals ``r_u, r_v`` loses ``2 [x(r_u + r_v) - x(r_u) - x(r_v) +
    S_uv]``, clamped at zero, where ``S_uv = sum h(a_j, b_j)`` runs over the
    other-variable columns ``j`` where both categories are nonzero (the
    upper triangle of :func:`_axis_sums`).  This is the independence
    deviance of the 2 x (everything else) subtable of ``u`` and ``v``,
    checked against ``g2_independence(pair_slice(table, dim, u, v))`` in
    ``tests/oracles.py``.
    """
    x = _xlogx(np.concatenate([rows_u + rows_v, rows_u, rows_v]))
    n = rows_u.size
    g2 = 2.0 * (x[:n] - (x[n:2 * n] + x[2 * n:]) + shared_uv)
    return np.maximum(g2, 0.0, out=g2)


def _pair_df(shape: tuple[int, ...], dim: int) -> int:
    """Degrees of freedom of a pair loss on ``dim``: the number of cells of
    the other axes minus one, 0 when there are none."""
    return max(math.prod(s for k, s in enumerate(shape) if k != dim) - 1, 0)


def _one_pair_g2(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray,
                 between: np.ndarray) -> float:
    """Aggregation loss of one category pair ``u < v``, bitwise its entry of
    :func:`loss_matrix`.

    ``a`` and ``b`` are the counts of ``u`` and ``v`` in column order, ``x``
    and ``y`` their counts in the columns holding both, again in column
    order, and ``between`` how many cells each of those columns holds
    between the two, so that its term lands in the kernel's offset pass
    ``between + 1``.  As the kernel's bincounts do, the row totals and each
    pass's terms fold in column order and the passes in ascending order from
    0.0; then :func:`_pair_g2` applies.
    """
    rows = np.bincount(np.repeat([0, 1], [a.size, b.size]), weights=np.concatenate([a, b]),
                       minlength=2)
    ab = x + y
    h = x * np.log(x) + y * np.log(y) - ab * np.log(ab)
    shared = 0.0
    for term in np.bincount(between, weights=h).tolist():
        shared += term
    return float(_pair_g2(rows[:1], rows[1:], np.array([shared]))[0])


def _candidate_pairs(r: int, adjacent: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(us, vs)``: the pairs ``u < v`` of ``r`` categories in
    lexicographic order, all of them or only the adjacent ones."""
    if adjacent:
        us = np.arange(max(r - 1, 0))
        return us, us + 1
    return np.triu_indices(r, 1)


def pair_loss(table: SparseTable, dim: int, u: int, v: int) -> PairLoss:
    """Loss from merging categories ``u`` and ``v`` on ``dim``: the
    independence deviance of the 2 x (everything else) subtable.

    The pair is reported as ``(min(u, v), max(u, v))``.  It is the entry of
    ``loss_matrix(table, dim)``, so it costs that one pass over the axis,
    and ``pair_loss(t, d, u, v)`` and ``pair_loss(t, d, v, u)`` are bitwise
    equal.
    """
    if dim < 0 or dim >= table.ndim:
        raise InputError(f"dim {dim} out of range")
    r = table.shape[dim]
    if u == v:
        raise InputError("u and v must differ")
    if not (0 <= u < r and 0 <= v < r):
        raise InputError(f"categories ({u}, {v}) out of range for size {r}")
    return loss_matrix(table, dim).get(u, v)


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """All pairwise aggregation losses for one variable, as arrays.

    ``dim`` is the variable and ``size`` its number of categories.  ``mode``
    is ``all-pairs`` (every ``u < v`` pair) or ``adjacent-only`` (only
    ``v = u + 1``).  ``df`` is the degrees of freedom every pair shares.
    ``us``, ``vs`` and ``losses`` hold each pair's categories and G^2, in
    lexicographic ``(u, v)`` order.
    """

    dim: int
    size: int
    mode: str
    df: int
    us: np.ndarray
    vs: np.ndarray
    losses: np.ndarray

    @property
    def entries(self) -> tuple[PairLoss, ...]:
        """One :class:`PairLoss` per pair, in the order of the arrays."""
        return tuple(PairLoss(dim=self.dim, u=u, v=v, g2=g, df=self.df)
                     for u, v, g in zip(self.us.tolist(), self.vs.tolist(),
                                        self.losses.tolist()))

    def get(self, u: int, v: int) -> PairLoss:
        u, v = sorted((int(u), int(v)))
        r = self.size
        if not 0 <= u < v < r or (self.mode == "adjacent-only" and v != u + 1):
            raise KeyError((u, v))
        at = u if self.mode == "adjacent-only" else u * (2 * r - u - 1) // 2 + (v - u - 1)
        return PairLoss(dim=self.dim, u=u, v=v, g2=float(self.losses[at]), df=self.df)

    def g2(self, u: int, v: int) -> float:
        return self.get(u, v).g2


def loss_matrix(table: SparseTable, dim: int, treatment: str = NOMINAL) -> LossMatrix:
    """Pairwise loss matrix for one variable on the current table.

    ``nominal`` evaluates all C(r, 2) pairs, ``ordinal`` only the r - 1
    adjacent pairs.  Fixed variables have no matrix.

    The pass pairs only the cells that share a column of ``dim``.  On an
    axis whose columns hold under ``_KEY_CELLS_PER_COLUMN`` cells on
    average, as in a sparse census table, those cells are found by sorting
    the cells' (column, category) keys alone, in 32 bits where the shape
    has at most 2**31 - 1 cells, and their counts are read back by binary
    search; on a denser axis every cell is sorted with its position
    (:func:`_table_cells`).  Either way the kernel receives the
    same cells in the same order with the same counts, so the losses are
    bitwise the same.
    """
    if dim < 0 or dim >= table.ndim:
        raise InputError(f"dim {dim} out of range")
    if treatment == FIXED:
        raise InputError("fixed variables have no loss matrix")
    if treatment not in (NOMINAL, ORDINAL):
        raise InputError(f"unknown treatment {treatment!r}")
    r = table.shape[dim]
    adjacent = treatment == ORDINAL
    us, vs = _candidate_pairs(r, adjacent)
    shared = _axis_sums(*_table_cells(table, dim), r, adjacent)
    rows = table.one_way(dim)
    return LossMatrix(dim=dim, size=r, mode="adjacent-only" if adjacent else "all-pairs",
                      df=_pair_df(table.shape, dim), us=us, vs=vs,
                      losses=_pair_g2(rows[us], rows[vs], shared[us, vs]))


def partition_deviance(table: SparseTable, partition: Partition) -> float:
    """Deviance of the expanded partition model against the table.

    The model is the collapsed table's probabilities expanded back to the
    original shape in proportion to the original one-way marginals, as
    :func:`~pcctab.expand_model` builds it densely; here it is evaluated at
    the observed cells only, so memory stays O(nnz) however large the shape.
    """
    return _expanded_deviance(table, partition, apply_partition(table, partition))


def _expanded_deviance(table: SparseTable, partition: Partition, collapsed: SparseTable) -> float:
    """Deviance against ``table`` of the counts ``collapsed`` on the groups
    of ``partition`` expanded to its shape: at each observed cell, its
    group's count over n times each category's weight within its group,
    times n.  Each cell finds its group among the collapsed cells by binary
    search; a group ``collapsed`` does not hold reads 0."""
    if table.nnz == 0:
        return 0.0
    coords = table.coords
    groups = np.ravel_multi_index(
        tuple(np.asarray(key, dtype=np.intp)[coords[:, k]] for k, key in enumerate(partition.keys)),
        collapsed.shape)
    at = np.minimum(np.searchsorted(collapsed.flat, groups), max(collapsed.nnz - 1, 0))
    e = np.where(collapsed.flat[at] == groups, collapsed.counts[at], 0.0) / table.total
    for k, w in enumerate(group_weights(partition, table.one_way_marginals())):
        e = e * w[coords[:, k]]
    return _deviance(table, e * table.total)


def _deviance(observed: SparseTable, expected: np.ndarray) -> float:
    """``2 sum n ln(n / e)`` over the observed cells, ``expected`` holding
    one ``e`` per stored cell; clamped at zero, 0.0 for an empty table.  An
    ``e <= 0`` raises :class:`DegeneracyError`."""
    if observed.nnz == 0:
        return 0.0
    if np.any(expected <= 0):
        raise DegeneracyError("fitted value is zero on an observed cell")
    dev = 2.0 * float(np.dot(observed.counts, np.log(observed.counts / expected)))
    return max(dev, 0.0)
