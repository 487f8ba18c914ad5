"""Independent reference implementations used to check the library.

Everything here works on dense numpy arrays or plain Python loops and
shares no code with the package apart from its exception type, so a bug in
the fast paths cannot hide behind an identical bug here.  The exceptions
are ``pair_slice`` and ``g2_independence``: the slice-by-slice pair-loss
path the package first shipped, kept as a second reference for its batched
kernel.  They take and return the package's ``SparseTable`` but call none
of its statistics.  ``reference_select_merge`` is the documented selection
rule as a plain scan over the public ``loss_matrix``, and
``reference_pcc_walk`` the collapse as documented, one
``reference_select_merge`` and ``apply_partition`` per step: they check
that the one selection engine, fresh (``select_merge``) or carried from
step to step (``run_pcc``), picks the same merges with the same losses,
bit for bit.  ``loss_grid`` only lays ``loss_matrix``'s pairs out as an
(r, r) array for the tests that read losses by position.
``reference_sparse_table`` is the table build as it first shipped, one
stable sort and a bounds check by column minima and maxima, kept to check
the build's sort-free and packed-sort paths.
``reference_axis_sums`` is the loss kernel as it first shipped, pairing
every cell and returning its own row totals, kept to check that the kernel
that pairs only the cells sharing a column adds the same terms in the same
order, and, given ``parts``, that the delta kernel gives a merge's change
within rounding.
"""

import csv
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from pcctab import (
    MergeCandidate,
    Partition,
    PccStep,
    adjusted_rsq,
    apply_partition,
    compose_partitions,
    loss_matrix,
)
from pcctab.errors import InputError
from pcctab.pcc import normalize_treatments
from pcctab.table import SparseTable


def dense_g2_independence(arr):
    """Two-way independence deviance by explicit loops."""
    arr = np.asarray(arr, dtype=float)
    n = arr.sum()
    if n <= 0:
        return 0.0
    rows = arr.sum(axis=1)
    cols = arr.sum(axis=0)
    g2 = 0.0
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            if arr[i, j] > 0:
                g2 += arr[i, j] * math.log(arr[i, j] * n / (rows[i] * cols[j]))
    return 2.0 * g2


def dense_pair_g2(arr, dim, u, v):
    """Loss of merging categories u, v of one variable: independence G2 of
    the stacked pair-versus-everything-else table."""
    arr = np.asarray(arr, dtype=float)
    sub = np.take(arr, [u, v], axis=dim)
    sub = np.moveaxis(sub, dim, 0).reshape(2, -1)
    return dense_g2_independence(sub)


def pair_slice(table, dim, u, v):
    """The 2 x (product of the other dims) subtable holding only categories
    ``u`` and ``v`` on ``dim``; ``dim`` becomes the first axis, the remaining
    axes are flattened in their original order."""
    if dim < 0 or dim >= table.ndim:
        raise InputError(f"dim {dim} out of range")
    r = table.shape[dim]
    if u == v:
        raise InputError("u and v must differ")
    if not (0 <= u < r and 0 <= v < r):
        raise InputError(f"categories ({u}, {v}) out of range for size {r}")
    other = [k for k in range(table.ndim) if k != dim]
    width = int(np.prod([table.shape[k] for k in other], dtype=np.int64)) if other else 1
    cats = table.coords[:, dim]
    mask = (cats == u) | (cats == v)
    rows = (cats[mask] == v).astype(np.intp)
    if other:
        cols = np.ravel_multi_index(
            tuple(table.coords[mask][:, k] for k in other),
            tuple(table.shape[k] for k in other),
        ).astype(np.intp)
    else:
        cols = np.zeros(rows.shape[0], dtype=np.intp)
    return SparseTable((2, width), np.stack([rows, cols], axis=1), table.counts[mask])


def reference_axis_sums(cats, cols, vals, r, adjacent=False, parts=None):
    """Row totals and shared-column sums of one axis, ``(rows, shared)``, as
    ``pcctab.infoloss._axis_sums`` gives the shared sums of these cells once
    a front end has paired them: every cell sorted by (column, category)
    and paired in offset passes, whether or not its column holds another
    cell, and the rows added over the sorted cells.  With ``parts = (p,
    q)``, where ``vals = p + q``, each term is ``h(a, b) - h(a_p, b_p) -
    h(a_q, b_q)``, what ``pcctab.infoloss._merge_deltas(cats, cols, p, q,
    r, adjacent)`` gives by another summation order."""
    def xlogx(t):
        return t * np.log(np.maximum(t, 5e-324))

    n = cats.shape[0]
    order = np.argsort(cols * r + cats)
    cats, cols, vals = cats[order], cols[order], vals[order]
    xvals = vals * np.log(vals)
    if parts is not None:
        p, q = parts[0][order], parts[1][order]
        xvals = xvals - xlogx(p) - xlogx(q)
    ends = np.append(np.flatnonzero(cols[1:] != cols[:-1]) + 1, n)
    remaining = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(n) - 1
    shared = np.zeros(r * r)
    active = np.arange(n)
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
        if parts is not None:
            h += xlogx(p[active] + p[partner]) + xlogx(q[active] + q[partner])
        shared += np.bincount(cats[active] * r + cats[partner], weights=h, minlength=r * r)
    rows = np.bincount(cats, weights=vals, minlength=r)
    return rows, shared.reshape(r, r)


def _sum_nlogn(values):
    # values are strictly positive by table construction
    if values.size == 0:
        return 0.0
    return float(np.dot(values, np.log(values)))


def g2_independence(table):
    """Independence deviance of a two-way R x C ``SparseTable``, summed as
    entropy terms so zero rows and columns drop out.

    Returns ``(g2, df)`` with ``df = (R-1)(C-1)`` taken from the full shape,
    with no adjustment for empty rows or columns.  An all-zero table is
    degenerate and returns ``(0.0, df)``.
    """
    if table.ndim != 2:
        raise InputError(f"need a 2-way table, got {table.ndim} dims (flatten first)")
    R, C = table.shape
    df = (R - 1) * (C - 1)
    if table.total <= 0:
        return 0.0, df
    n = table.total
    rows = np.bincount(table.coords[:, 0], weights=table.counts, minlength=R)
    cols = np.bincount(table.coords[:, 1], weights=table.counts, minlength=C)
    g2 = 2.0 * (
        _sum_nlogn(table.counts)
        + n * math.log(n)
        - _sum_nlogn(rows[rows > 0])
        - _sum_nlogn(cols[cols > 0])
    )
    return max(g2, 0.0), df


def dense_collapse(arr, keys):
    arr = np.asarray(arr, dtype=float)
    out = np.zeros(tuple(max(k) + 1 for k in keys))
    for idx in np.ndindex(arr.shape):
        out[tuple(keys[k][idx[k]] for k in range(arr.ndim))] += arr[idx]
    return out


def dense_expand_probs(arr, keys, collapsed_probs=None):
    """Probabilities of the collapsed model spread back over the original
    cells in proportion to the one-way marginals.  The collapsed model is
    the collapsed table's proportions, or ``collapsed_probs`` (dense, on the
    collapsed shape) when given."""
    arr = np.asarray(arr, dtype=float)
    n = arr.sum()
    K = arr.ndim
    if collapsed_probs is None:
        collapsed_probs = dense_collapse(arr, keys) / n
    marg = [arr.sum(axis=tuple(k for k in range(K) if k != d)) for d in range(K)]
    mass = []
    for d in range(K):
        m = np.zeros(collapsed_probs.shape[d])
        for c, g in enumerate(keys[d]):
            m[g] += marg[d][c]
        mass.append(m)
    probs = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        j = tuple(keys[k][idx[k]] for k in range(K))
        p = collapsed_probs[j]
        for k in range(K):
            denom = mass[k][j[k]]
            p = p * (marg[k][idx[k]] / denom) if denom > 0 else 0.0
        probs[idx] = p
    return probs


def dense_deviance(obs, probs):
    """2n * KL(observed proportions || model probabilities) by loops."""
    obs = np.asarray(obs, dtype=float)
    n = obs.sum()
    dev = 0.0
    for idx in np.ndindex(obs.shape):
        if obs[idx] > 0:
            dev += obs[idx] * math.log(obs[idx] / (n * probs[idx]))
    return 2.0 * dev


def dense_partition_deviance(arr, keys):
    return dense_deviance(arr, dense_expand_probs(arr, keys))


def dense_mutual_independence_g2(arr):
    arr = np.asarray(arr, dtype=float)
    K = arr.ndim
    n = arr.sum()
    marg = [arr.sum(axis=tuple(k for k in range(K) if k != d)) for d in range(K)]
    g2 = 0.0
    for idx in np.ndindex(arr.shape):
        if arr[idx] > 0:
            pi = 1.0
            for k in range(K):
                pi *= marg[k][idx[k]] / n
            g2 += arr[idx] * math.log(arr[idx] / (n * pi))
    return 2.0 * g2


def joint_independence_fit(arr):
    """Closed form for the [AB][C] model on a 3-way table:
    e_ijk = n_ij+ * n_++k / n."""
    arr = np.asarray(arr, dtype=float)
    nij = arr.sum(axis=2)
    nk = arr.sum(axis=(0, 1))
    n = arr.sum()
    out = np.zeros(arr.shape)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            for k in range(arr.shape[2]):
                out[i, j, k] = nij[i, j] * nk[k] / n
    return out


def conditional_independence_fit(arr):
    """Closed form for the [AB][BC] model on a 3-way table:
    e_ijk = n_ij+ * n_+jk / n_+j+ (zero where the conditioning margin is)."""
    arr = np.asarray(arr, dtype=float)
    nij = arr.sum(axis=2)
    njk = arr.sum(axis=0)
    nj = arr.sum(axis=(0, 2))
    out = np.zeros(arr.shape)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            for k in range(arr.shape[2]):
                if nj[j] > 0:
                    out[i, j, k] = nij[i, j] * njk[j, k] / nj[j]
    return out


def brute_force_best_pair(arr, treatments=None):
    """Minimal-gradient pair over all eligible merges, by exhaustive loops.

    Returns (dim, u, v, g2, df, quotient) or None, with the same tie rule
    as the engine: ties within relative 1e-12 go to the smallest (dim, u, v).
    """
    arr = np.asarray(arr, dtype=float)
    K = arr.ndim
    if treatments is None:
        treatments = ["nominal"] * K
    best = None
    for dim in range(K):
        r = arr.shape[dim]
        if treatments[dim] == "fixed" or r < 2:
            continue
        other = 1
        for k in range(K):
            if k != dim:
                other *= arr.shape[k]
        if other < 2:
            continue
        df = other - 1
        if treatments[dim] == "ordinal":
            pairs = [(u, u + 1) for u in range(r - 1)]
        else:
            pairs = list(combinations(range(r), 2))
        for u, v in pairs:
            g2 = dense_pair_g2(arr, dim, u, v)
            q = g2 / df
            if best is None or (q < best[5] and abs(q - best[5]) > 1e-12 * max(1.0, q, best[5])):
                best = (dim, u, v, g2, df, q)
    return best


def random_table(rng, shape, zero_frac=0.3, max_count=40):
    """Random integer table with a sprinkle of sampling zeros and a
    guaranteed positive total."""
    arr = rng.integers(0, max_count, size=shape).astype(float)
    mask = rng.random(size=shape) < zero_frac
    arr[mask] = 0.0
    if arr.sum() == 0:
        arr.flat[0] = 1.0
    return arr


def reference_ipf(obs, n, generators, tol=1e-8, max_iter=1000, with_residual=False):
    """Cyclic IPF as the package first shipped it, kept as the oracle for
    its engine: returns (fitted, iterations, converged), plus the last
    cycle's worst marginal residual when ``with_residual`` is set.
    ``obs`` is the dense observed table, ``n`` its total and
    ``generators`` the model's maximal terms."""
    obs = np.asarray(obs, dtype=float)
    shape = obs.shape
    K = obs.ndim
    fitted = np.full(shape, n / obs.size)
    iterations = 0
    converged = True
    worst = 0.0
    if generators:
        targets = []
        for g in generators:
            axes = tuple(k for k in range(K) if k not in g)
            targets.append((axes, obs.sum(axis=axes, keepdims=True)))
        converged = False
        for cycle in range(1, max_iter + 1):
            worst = 0.0
            for axes, target in targets:
                cur = fitted.sum(axis=axes, keepdims=True)
                worst = max(worst, float(np.max(np.abs(cur - target))))
                ratio = np.divide(target, cur, out=np.zeros_like(target), where=cur > 0)
                fitted = fitted * ratio
            iterations = cycle
            if worst <= tol:
                converged = True
                break
    if with_residual:
        return fitted, iterations, converged, worst
    return fitted, iterations, converged


def reference_sparse_table(shape, coords, counts):
    """The table build as it first shipped: bounds checked by each column's
    minimum and maximum, cells ordered by one stable sort of their flat
    indices, each cell's records summed in record order.  Returns
    ``(coords, counts, total)`` as ``SparseTable`` stores them, coords in
    the narrowest of int16, int32 and int64 that holds every axis's number
    of categories, with the same errors for the checks it makes."""
    shape = tuple(int(s) for s in shape)
    code = next(t for t in (np.int16, np.int32, np.int64) if max(shape) <= np.iinfo(t).max)
    coords = np.asarray(coords, dtype=np.intp).reshape(-1, len(shape))
    counts = np.asarray(counts, dtype=np.float64).ravel()
    if not counts.size:
        return np.zeros((0, len(shape)), dtype=code), np.zeros(0), 0.0
    if not np.all(np.isfinite(counts)):
        raise InputError("non-finite count")
    if np.min(counts) < 0:
        raise InputError("negative count")
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    if np.any(lo < 0) or np.any(hi >= np.asarray(shape)):
        raise InputError(f"coordinate out of bounds for shape {shape}")
    flat = np.ravel_multi_index(tuple(coords.T), shape)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    vals = counts[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    with np.errstate(over="ignore"):
        merged = np.add.reduceat(vals, starts)
    if not np.all(np.isfinite(merged)):
        raise InputError("the counts of one cell sum to a non-finite value")
    keep = merged > 0
    counts = merged[keep]
    return coords[order[starts[keep]]].astype(code), counts, float(counts.sum())


def reference_read_counts(path, config=None):
    """Row-at-a-time counts CSV reader: ``(names, categories, entries)`` with
    the same errors, record numbers and precedence as ``read_counts``."""
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file (no header)") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "count":
            raise InputError(f"{path}: header must be variable names followed by 'count'")
        names = header[:-1]
        if len(set(names)) != len(names):
            raise InputError(f"{path}: duplicate variable names in header")

        fixed_order = [None] * len(names)
        if config is not None:
            cfg = config.by_name()
            unknown = set(n.name for n in config.variables) - set(names)
            if unknown:
                raise InputError(f"{path}: config names unknown variables {sorted(unknown)}")
            for k, name in enumerate(names):
                vc = cfg.get(name)
                if vc is not None and vc.categories is not None:
                    fixed_order[k] = {c: i for i, c in enumerate(vc.categories)}

        index = [dict(f) if f else {} for f in fixed_order]
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names) + 1:
                raise InputError(
                    f"{path}:{lineno}: expected {len(names) + 1} fields, got {len(row)}")
            labels = [c.strip() for c in row[:-1]]
            try:
                count = float(row[-1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: count {row[-1]!r} is not a number") from None
            if not math.isfinite(count):
                raise InputError(f"{path}:{lineno}: count {row[-1]!r} is not finite")
            if count < 0:
                raise InputError(f"{path}:{lineno}: negative count {count}")
            coords = []
            for k, label in enumerate(labels):
                if label not in index[k]:
                    if fixed_order[k] is not None:
                        raise InputError(
                            f"{path}:{lineno}: label {label!r} not in configured "
                            f"categories of {names[k]!r}")
                    index[k][label] = len(index[k])
                coords.append(index[k][label])
            entries.append((tuple(coords), count))

    categories = []
    for k in range(len(names)):
        ordered = sorted(index[k].items(), key=lambda kv: kv[1])
        categories.append([label for label, _ in ordered])
    return names, categories, entries


def loss_grid(table, dim, adjacent=False):
    """``loss_matrix``'s losses of one axis as a symmetric (r, r) array with
    a zero diagonal, ``nan`` at the pairs it does not score, and its df:
    ``(g2, df)``."""
    m = loss_matrix(table, dim, "ordinal" if adjacent else "nominal")
    r = table.shape[dim]
    g2 = np.full((r, r), np.nan)
    np.fill_diagonal(g2, 0.0)
    g2[m.us, m.vs] = g2[m.vs, m.us] = m.losses
    return g2, m.df


def reference_select_merge(table, treatments=None):
    """The documented selection rule as a stateless scan: every eligible
    axis in order (not fixed, two categories or more, two cells or more in
    the rest of the table), its ``loss_matrix`` pairs in lexicographic
    order, and a pair replaces the running best only when its quotient is
    lower by more than relative 1e-12, so ties go to the smallest
    ``(dim, u, v)``.  Returns a ``MergeCandidate`` or None."""
    treatments = normalize_treatments(table.ndim, treatments)
    best = None
    for dim, r in enumerate(table.shape):
        other = math.prod(s for k, s in enumerate(table.shape) if k != dim)
        if treatments[dim] == "fixed" or r < 2 or other < 2:
            continue
        for e in loss_matrix(table, dim, treatments[dim]).entries:
            q = e.quotient
            if best is None or (q < best.quotient and abs(q - best.quotient)
                                > 1e-12 * max(1.0, abs(q), abs(best.quotient))):
                best = MergeCandidate(dim, e.u, e.v, e.g2, e.df, q)
    return best


def reference_pcc_walk(t, treatments, stop_quotient=None):
    """The collapse as documented, one ``reference_select_merge`` and
    ``apply_partition`` per step: ``(steps, partitions)``."""
    treatments = normalize_treatments(t.ndim, treatments)
    current, cumulative = t, Partition.identity(t.shape)
    rows = [(None, None, t.shape, 0.0, 0, 0.0, 0, False)]
    partitions = [cumulative]
    dev, dfres = 0.0, 0
    while True:
        cand = reference_select_merge(current, treatments)
        if cand is None:
            break
        if stop_quotient is not None and cand.quotient > stop_quotient:
            break
        keys = [tuple(range(s)) for s in current.shape]
        keys[cand.dim] = tuple(cand.u if c == cand.v else c - (c > cand.v)
                               for c in range(current.shape[cand.dim]))
        step = Partition(tuple(keys))
        current = apply_partition(current, step)
        cumulative = compose_partitions(cumulative, step)
        dev += cand.g2
        dfres += cand.df
        rows.append((cand.dim, cumulative.keys[cand.dim], current.shape, dev, dfres,
                     cand.g2, cand.df, False))
        partitions.append(cumulative)
    nonfixed = [k for k in range(t.ndim) if treatments[k] != "fixed"]
    if (cand is None) and nonfixed:
        d0 = nonfixed[0]
        df_term = math.prod(s for k, s in enumerate(current.shape) if k != d0) - 1
        rows.append((d0, cumulative.keys[d0], current.shape, dev, dfres, 0.0,
                     max(df_term, 0), True))
        partitions.append(cumulative)
    cells_minus_one = math.prod(t.shape) - 1
    dev_last, dfres_last = rows[-1][3], rows[-1][4]
    steps = tuple(
        PccStep(r=r, d=d, key=key, shape=shape, dev=dv, dfmod=cells_minus_one - dr, dfres=dr,
                dev_term=term, df_term=dft, adj_rsq=adjusted_rsq(dv, dr, dev_last, dfres_last),
                terminal=terminal)
        for r, (d, key, shape, dv, dr, term, dft, terminal) in enumerate(rows))
    return steps, tuple(partitions)
