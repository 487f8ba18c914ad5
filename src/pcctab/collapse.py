"""The running state of a collapse: what :func:`~pcctab.pcc.run_pcc` carries
from step to step so that a merge touches only the cells it changes, and
the one selection engine, which :func:`~pcctab.pcc.select_merge` runs on a
fresh state.

A cell is its flat index over the original shape, as in a
:class:`~pcctab.table.SparseTable`, split into a category and a column key
by the one rule of :func:`~pcctab.infoloss._other_cols`.

``run_pcc`` and ``select_merge`` import this module on first use, so a
process that never collapses does not load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .infoloss import (_axis_sums, _candidate_pairs, _merge_deltas, _one_pair_g2, _other_cols,
                       _pair_df, _pair_g2, _paired_cells, _table_cells)
from .pcc import MergeCandidate, _beats
from .table import FIXED, ORDINAL, SparseTable, _order


def _scan(best: MergeCandidate | None, dim: int, us: np.ndarray, vs: np.ndarray,
          g2: np.ndarray, df: int) -> MergeCandidate | None:
    """Fold one axis's candidates, in lexicographic order, into the running
    best, which a candidate replaces only when it :func:`~pcctab.pcc._beats`
    it.  A sequential scan, not an argmin: near-ties chain, and only this
    order reproduces the documented rule exactly."""
    for u, v, g, q in zip(us.tolist(), vs.tolist(), g2.tolist(), (g2 / df).tolist()):
        if _beats(q, None if best is None else best.quotient):
            best = MergeCandidate(dim, u, v, g, df, q)
    return best


def _eligible(shape: Sequence[int], treatments: Sequence[str]) -> list[tuple[int, int]]:
    """``(dim, df)`` of every axis with candidates: not fixed, at least two
    categories, and at least two cells in the rest of the table."""
    dfs = [(dim, _pair_df(shape, dim)) for dim in range(len(shape))]
    return [(dim, df) for dim, df in dfs if treatments[dim] != FIXED and shape[dim] >= 2 and df > 0]


class _Collapse:
    """The table of a running collapse, with each eligible axis's row totals
    and symmetric shared-column sums carried from step to step (see
    :func:`~pcctab.pcc.run_pcc`).  The sums start as full kernel passes
    (:func:`~pcctab.infoloss._axis_sums`) and take each merge's change from
    the pairing kernel (:meth:`_deltas`), so they only shortlist: the pairs
    :meth:`select` compares are rescored exactly.

    Cells live at fixed positions in buffers that grow by appending.  Each
    holds its flat index over the original shape, its count and whether it
    is alive.  On every axis a current category is named by the smallest
    original id it holds (``rep`` maps current ids to names, ``cur`` back),
    so names increase with the current ids, and a flat index ``(hi r + c)
    inner + lo`` splits into the name ``c`` and the column key ``hi inner +
    lo`` (:meth:`_split`), by which cells sort in current column order.  A
    merge of ``v`` into ``u`` renumbers no cell: ``u``'s cells stay put with
    their merged counts, ``v``'s die, and those of ``v``'s columns that
    ``u`` lacked come back as new cells under ``u``'s name.

    Per axis that can merge, one index of int32 cell positions, sorted by
    category name and then column key (the compound keys ``name offset +
    key`` kept alongside), gives the cells of a category as one run with
    their column keys, and finds the cells of given categories in given
    columns by binary search; :meth:`select` reads each shortlisted pair
    through it once and :meth:`merge` works from the winner's read.  The
    index takes in the appended cells when it is next read and skips dead
    cells; the dead leave the buffers and the indexes together once the
    buffers are full, after at least a quarter table's worth of appends.
    """

    def __init__(self, table: SparseTable, treatments: tuple[str, ...]):
        if np.any(table.flat[1:] <= table.flat[:-1]):
            # cells out of flat order, which only a table built around its
            # constructor holds: _table_cells searches them by flat index
            table = SparseTable(table.shape, table.coords, table.counts)
        shape = self.shape = self.origin = table.shape
        self.n = table.total
        self.treatments = treatments
        self.adjacent = tuple(t == ORDINAL for t in treatments)
        self.eligible = _eligible(shape, treatments)
        self.pairs: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}
        # the axes that can ever merge, each with a slot in the index arrays
        self.axes = [dim for dim, _ in self.eligible]
        self.slot = {dim: a for a, dim in enumerate(self.axes)}
        # each axis's stride in a flat index, and each slot's number of columns,
        # which its keys stay below and the index multiplies its names by
        self.inner = [math.prod(shape[k + 1:]) for k in range(len(shape))]
        self.offset = [math.prod(shape) // shape[dim] for dim in self.axes]
        self.rep = [np.arange(s) for s in shape]
        self.cur = [np.arange(s) for s in shape]

        self.size = nnz = table.nnz
        cap = nnz + max(nnz // 4, 16)
        # every key, with its category name in front too, stays below the
        # number of cells of the original shape
        self.key_type = np.int32 if math.prod(shape) <= np.iinfo(np.int32).max else np.int64
        self.flat = np.empty(cap, dtype=np.int64)
        self.flat[:nnz] = table.flat
        self.vals = np.empty(cap)
        self.vals[:nnz] = table.counts
        self.alive = np.zeros(cap, dtype=bool)
        self.alive[:nnz] = True
        # per slot: the index, cell positions sorted by category name and then
        # column key, with those compound keys, and how many stored cells it has
        # taken in
        self.index_key = [np.empty(0, dtype=self.key_type) for _ in self.axes]
        self.index_pos = [_NO_CELLS for _ in self.axes]
        self.indexed = [0] * len(self.axes)

        # the read of the pair select last returned, which merge consumes
        self.chosen: _PairRead | None = None
        self.sums: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for a, dim in enumerate(self.axes):
            shared = _axis_sums(*_table_cells(table, dim), shape[dim], self.adjacent[dim])
            self.sums[dim] = (table.one_way(dim), shared + shared.T)

    def select(self) -> MergeCandidate | None:
        """The eligible pair with the minimal loss gradient on the current
        table, by the rule :func:`~pcctab.pcc.select_merge` documents.

        Candidates whose carried quotient lies within the window of the
        carried minimum, all of them when any carried quotient is not
        finite, are rescored exactly from their own cells (:meth:`_read`) in
        scan order until the best quotient is exactly 0, which no later pair
        can beat.  The winner's read is kept for :meth:`merge`.
        """
        self.chosen = None
        if not self.eligible:
            return None
        # the candidate pairs of the sizes the axes have now; no other size is kept
        at = [(self.shape[dim], self.adjacent[dim]) for dim, _ in self.eligible]
        self.pairs = {key: self.pairs[key] if key in self.pairs else _candidate_pairs(*key)
                      for key in at}
        pairs = [self.pairs[key] for key in at]
        sums = [self.sums[dim] for dim, _ in self.eligible]
        sizes = [us.size for us, _ in pairs]
        carried = _pair_g2(
            np.concatenate([rows[us] for (rows, _), (us, _) in zip(sums, pairs)]),
            np.concatenate([rows[vs] for (rows, _), (_, vs) in zip(sums, pairs)]),
            np.concatenate([shared[us, vs] for (_, shared), (us, vs) in zip(sums, pairs)]))
        carried /= np.repeat([df for _, df in self.eligible], sizes)
        if np.all(np.isfinite(carried)):
            q_min = float(carried.min())
            df_min = min(df for _, df in self.eligible)
            window = q_min + 1e-7 * max(1.0, abs(q_min)) + 1e-9 * self.n / df_min
        else:
            window = math.inf
        shortlist = ~(carried > window)  # nan stays in
        best: MergeCandidate | None = None
        start = 0
        for (dim, df), (us, vs), size in zip(self.eligible, pairs, sizes):
            for i in np.flatnonzero(shortlist[start:start + size]).tolist():
                if best is not None and best.quotient == 0.0:
                    # losses are clamped at 0 and _beats needs a lower quotient
                    return best
                read = self._read(dim, int(us[i]), int(vs[i]))
                won = _scan(best, dim, us[i:i + 1], vs[i:i + 1], np.array([read.g2]), df)
                if won is not best:
                    best, self.chosen = won, read
            start += size
        return best

    def _read(self, dim: int, u: int, v: int) -> _PairRead:
        """Read the cells that the loss of merging ``v`` into ``u < v`` on
        ``dim`` depends on, and score it by :func:`_one_pair_g2`: u's and
        v's runs of the index and, on a nominal axis, the other categories'
        cells in the columns holding both.  Those between u and v set each
        column's offset pass; all of them enter the merged row."""
        a = self.slot[dim]
        # the two runs of the index, each sorted by column key
        u_cells, u_keys = self._cells_of(a, u)
        v_cells, v_keys = self._cells_of(a, v)
        u_vals, v_vals = self.vals[u_cells], self.vals[v_cells]
        at = np.minimum(np.searchsorted(u_keys, v_keys), max(u_keys.size - 1, 0))
        both = u_keys[at] == v_keys if u_keys.size else np.zeros(v_keys.size, dtype=bool)
        shared = v_keys[both]
        others = (_NO_VALS, _NO_CELLS, _NO_CELLS)
        between = np.zeros(shared.size, dtype=np.intp)
        if shared.size and not self.adjacent[dim]:
            cells, w, which = self._cells_at(a, np.delete(self.rep[dim], [u, v]), shared)
            others = (self.vals[cells], w, which)
            # w counts the other categories skipping u and v, so u <= w < v - 1 lie between
            between = np.bincount(which[(w >= u) & (w < v - 1)], minlength=shared.size)
        g2 = _one_pair_g2(u_vals, v_vals, u_vals[at[both]], v_vals[both], between)
        return _PairRead(dim, u, v, g2, u_cells, v_cells, u_vals, v_vals, at, both, others)

    def merge(self) -> None:
        """Merge the pair :meth:`select` last returned, ``v`` into ``u < v``
        on its axis, from the cells its read holds, and update the carried
        sums of every axis that stays eligible."""
        dim, u, v, _, u_cells, v_cells, u_vals, v_vals, at, both, near = self.chosen
        new_shape = tuple(s - (k == dim) for k, s in enumerate(self.shape))
        # v's cells die; those of columns u lacks come back under u's name
        moved = v_cells[~both]
        flat = self.flat[np.concatenate([u_cells, moved])]
        flat[u_cells.size:] += (int(self.rep[dim][u]) - int(self.rep[dim][v])) * self.inner[dim]
        # each merged cell's u- and v-part, 0 where that category has no cell in
        # the column; their sum a + b is the count apply_partition forms
        u_part = np.concatenate([u_vals, np.zeros(moved.size)])
        v_part = np.zeros(u_part.size)
        v_part[at[both]] = v_vals[both]
        v_part[u_vals.size:] = v_vals[~both]
        new_vals = u_part + v_part
        self.alive[v_cells] = False

        others = np.arange(self.shape[dim]) != v
        self.rep[dim] = self.rep[dim][others]
        self.cur[dim][self.rep[dim]] = np.arange(new_shape[dim])
        self.eligible = _eligible(new_shape, self.treatments)
        deltas = self._deltas([k for k, _ in self.eligible if k != dim], flat, (u_part, v_part))
        sums = {}
        for k, _ in self.eligible:
            rows, shared = self.sums[k]
            if k == dim:
                if self.adjacent[dim]:
                    row = self._neighbour_row(dim, u, flat, new_vals)
                else:
                    # u's and v's rows added; in a column holding both, each other
                    # cell's terms against x and y give way to one against x + y:
                    # h(x + y, z) - h(x, z) - h(y, z), where
                    # h(a, b) = a ln a + b ln b - (a + b) ln(a + b)
                    row = (shared[u] + shared[v])[others]
                    row[u] = 0.0
                    z, w, which = near
                    if z.size:
                        x, y = u_vals[at[both]][which], v_vals[both][which]
                        gain = (x + y) * np.log(x + y)
                        for t in (x + z, y + z):
                            gain += t * np.log(t)
                        for t in (x, y, z, x + y + z):
                            gain -= t * np.log(t)
                        # w skips u and v; the new ids skip u only
                        row = row + np.bincount(w + (w >= u), weights=gain, minlength=row.size)
                merged_rows = rows[others]
                merged_rows[u] += rows[v]
                rows = merged_rows
                shared = shared[np.ix_(others, others)]
                shared[u, :] = row
                shared[:, u] = row
            else:
                shared = shared + (deltas[k] + deltas[k].T)
            sums[k] = (rows, shared)
        self.sums = sums
        self.shape = new_shape

        self.vals[u_cells] = new_vals[:u_cells.size]
        self._append(flat[u_cells.size:], new_vals[u_cells.size:])

    def _deltas(self, axes: list[int], flat: np.ndarray, parts: tuple[np.ndarray, np.ndarray]
                ) -> dict[int, np.ndarray]:
        """Change of the shared-column sums of the other eligible ``axes``
        by a merge, from the pairing kernel :func:`_merge_deltas` over the
        merged cells alone, given by their flat indexes ``flat`` and their
        u- and v-parts ``parts``.

        Axes of one treatment share a kernel call, each with its own range
        of categories and column ids, so no two cells pair across axes and
        each axis's block of the result holds the terms of its own pairs
        alone; a call takes at most ``_PASS_CELLS`` cells unless one axis
        alone has more, and keeps its sort keys ``column * categories +
        category`` below 2**62."""
        groups: list[list[int]] = []
        for adjacent in (False, True):
            r = col = 0
            for k in axes:
                if self.adjacent[k] != adjacent:
                    continue
                r_k, col_k = self.shape[k], self.offset[self.slot[k]]
                if r == 0 or (flat.size * (len(groups[-1]) + 1) > _PASS_CELLS
                              or (col + col_k) * (r + r_k) >= 2**62):
                    groups.append([])
                    r = col = 0
                groups[-1].append(k)
                r, col = r + r_k, col + col_k
        out = {}
        for group in groups:
            cats, cols = [], []
            r = col = 0
            for k in group:
                names, keys = self._split(k, flat)
                cats.append(self.cur[k][names] + r)
                cols.append(keys + col)
                r += self.shape[k]
                col += self.offset[self.slot[k]]
            p, q = (np.tile(part, len(group)) for part in parts)
            delta = _merge_deltas(np.concatenate(cats), np.concatenate(cols), p, q, r,
                                  self.adjacent[group[0]])
            lo = 0
            for k in group:
                hi = lo + self.shape[k]
                out[k] = delta[lo:hi, lo:hi]
                lo = hi
        return out

    def _neighbour_row(self, dim: int, u: int, flat: np.ndarray, vals: np.ndarray
                       ) -> np.ndarray:
        """Shared-column sums of the category merged into ``u`` on the ordinal
        axis ``dim``, in the new ids, whose cells have the flat indexes
        ``flat`` and counts ``vals``.  The axis carries adjacent pairs only,
        so the merged category's two neighbour pairs are scored afresh."""
        a = self.slot[dim]
        r = self.shape[dim] - 1
        row = np.zeros(r)
        (lo, lo_keys), (hi, hi_keys) = [
            self._cells_of(a, c) if 0 <= c < r else (_NO_CELLS, _NO_CELLS) for c in (u - 1, u + 1)]
        sums = _axis_sums(*_paired_cells(
            np.repeat(np.arange(3), [lo.size, vals.size, hi.size]),
            np.concatenate([lo_keys, self._split(dim, flat)[1], hi_keys]), 3,
            np.concatenate([self.vals[lo], vals, self.vals[hi]])), 3, True)
        if u > 0:
            row[u - 1] = sums[0, 1]
        if u < r - 1:
            row[u + 1] = sums[1, 2]
        return row

    def _cells_of(self, a: int, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Live cells of current category ``c`` on slot ``a``'s axis, in
        column order, and their column keys: one run of the index."""
        self._index(a)
        name, off = int(self.rep[self.axes[a]][c]), self.offset[a]
        bounds = np.array([name * off, (name + 1) * off], dtype=self.key_type)
        start, stop = np.searchsorted(self.index_key[a], bounds)
        cells = self.index_pos[a][start:stop]
        alive = self.alive[cells]
        return cells[alive], self.index_key[a][start:stop][alive] - name * off

    def _split(self, dim: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The category names on ``dim`` of the cells with the flat indexes
        ``flat`` and their column keys: ``(hi r + c) inner + lo`` over the
        original shape splits into ``c`` and ``hi inner + lo``, by the rule
        of :func:`_other_cols`."""
        names = flat // self.inner[dim]
        names %= self.origin[dim]
        return names, _other_cols(flat, names, self.origin, dim)

    def _cells_at(self, a: int, names: np.ndarray, keys: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells of slot ``a``'s axis that lie in one of the categories
        with the current ``names`` and in one of the current columns
        ``keys``: their positions, and for each the index of its name and of
        its column.  Only live cells match: a dead cell holds the name of a
        category merged away on some axis, in its own name or in its key."""
        self._index(a)
        index = self.index_key[a]
        want = (names.astype(self.key_type)[:, None] * self.offset[a] + keys[None, :]).ravel()
        at = np.minimum(np.searchsorted(index, want), index.size - 1)
        hit = np.flatnonzero(index[at] == want)
        return self.index_pos[a][at[hit]], hit // keys.size, hit % keys.size

    def _append(self, flat: np.ndarray, vals: np.ndarray) -> None:
        m = vals.size
        if self.size + m > self.vals.size:
            self._compact()
        lo, hi = self.size, self.size + m
        self.flat[lo:hi] = flat
        self.vals[lo:hi] = vals
        self.alive[lo:hi] = True
        self.size = hi

    def _index(self, a: int) -> None:
        """Bring slot ``a``'s index up to the stored cells."""
        lo, hi = self.indexed[a], self.size
        if lo == hi:
            return
        names, keys = self._split(self.axes[a], self.flat[lo:hi])
        keys += np.multiply(names, self.offset[a], out=names)
        del names  # freed before the sort: kept, it raised the 600k peak 5 MB
        order, keys = _order(keys)
        keys = keys.astype(self.key_type, copy=False)
        self.index_key[a], self.index_pos[a] = _insert_sorted(
            (self.index_key[a], self.index_pos[a]),
            np.searchsorted(self.index_key[a], keys, "right"), (keys, order.astype(np.int32) + lo))
        self.indexed[a] = hi

    def _compact(self) -> None:
        """Drop the dead cells from the buffers and the indexes, keeping the
        order of the live ones."""
        n = self.size
        alive = self.alive[:n].copy()
        # kept[i]: live cells before position i, so the new position of a live cell
        kept = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(alive, out=kept[1:])
        live = np.flatnonzero(alive)
        # a row at a time, so the transient copy is one row
        for row in (self.flat, self.vals):
            row[:live.size] = row[live]
        self.alive[:live.size] = True
        self.alive[live.size:n] = False
        for a in range(len(self.axes)):
            cells = self.index_pos[a]
            keep = alive[cells]
            self.index_pos[a] = kept[cells[keep]]
            self.index_key[a] = self.index_key[a][keep]
            self.indexed[a] = int(kept[self.indexed[a]])
        self.size = live.size


class _PairRead(NamedTuple):
    """One candidate pair ``u < v`` on ``dim`` as :meth:`_Collapse._read`
    read it, with its loss ``g2``: each category's cells and counts in
    column order; for each of v's cells where its column sits in u's run
    and whether u holds it; and ``others``, the other categories' counts
    in the columns holding both, each with the index of its category among
    the others and of its column (none on an ordinal axis)."""

    dim: int
    u: int
    v: int
    g2: float
    u_cells: np.ndarray
    v_cells: np.ndarray
    u_vals: np.ndarray
    v_vals: np.ndarray
    at: np.ndarray
    both: np.ndarray
    others: tuple[np.ndarray, np.ndarray, np.ndarray]


_NO_CELLS = np.empty(0, dtype=np.int32)
_NO_VALS = np.empty(0)

# most cells one kernel call of _Collapse._deltas takes for several axes:
# sharing a call saves its fixed numpy calls, which dominate on small
# slices, while large slices gain nothing and would only add memory
_PASS_CELLS = 1 << 13


def _insert_sorted(arrays: tuple[np.ndarray, ...], at: np.ndarray,
                   values: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Each of ``arrays`` with the matching ``values`` inserted before the
    non-decreasing positions ``at``, as ``np.insert`` would, sharing one
    mask."""
    to = at + np.arange(at.size)
    keep = np.ones(arrays[0].size + at.size, dtype=bool)
    keep[to] = False
    out = []
    for arr, val in zip(arrays, values):
        new = np.empty(keep.size, dtype=arr.dtype)
        new[to] = val
        new[keep] = arr
        out.append(new)
    return out
