"""Sparse multi-way contingency tables, category schemes, and partitions.

A table over K categorical variables is stored as coordinate/count pairs
plus a shape vector; zero cells are never stored and cells are kept in
lexicographic coordinate order, so every reduction over cells is
deterministic.  Tables and partitions are immutable values: all operations
return new objects and are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FeasibilityError, InputError

NOMINAL = "nominal"
ORDINAL = "ordinal"
FIXED = "fixed"
TREATMENTS = (NOMINAL, ORDINAL, FIXED)

# the most cells a table may have where it is worked on densely (log-linear
# fits, Pearson ratios, expand_model): 2**26 float64 cells take 512 MiB
MAX_DENSE_CELLS = 2 ** 26

# the most cells a table may have at all: its cells are numbered by a flat
# intp index (np.ravel_multi_index)
_MAX_FLAT = int(np.iinfo(np.intp).max)

# the most variables a table may have: the most axes np.ravel_multi_index
# numbers cells over, one less than numpy's argument limit
MAX_VARIABLES = 63 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 31


def _code_dtype(sizes: Iterable[int]) -> type[np.signedinteger]:
    """The dtype category codes are stored in: int16, or int32 when a
    variable has more categories than int16 holds, then int64.  ``sizes``
    are the variables' category counts."""
    most = max(sizes, default=0)
    for dtype in (np.int16, np.int32):
        if most <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _check_dense(shape: Sequence[int]) -> None:
    """Raise :class:`FeasibilityError` before a dense array of ``shape``
    is allocated, if it would hold more than ``MAX_DENSE_CELLS`` cells."""
    cells = math.prod(shape)
    if cells > MAX_DENSE_CELLS:
        raise FeasibilityError(
            f"a dense table of shape {tuple(shape)} would hold {cells} cells, more than "
            f"the {MAX_DENSE_CELLS} allowed", cells)


@dataclass(frozen=True)
class VariableDef:
    """One categorical variable: a name, ordered category labels, and how the
    collapsing engine may treat it (``nominal``, ``ordinal`` or ``fixed``).

    For an ordinal variable the stored label order is the ordinal order.
    """

    name: str
    categories: tuple[str, ...]
    treatment: str = NOMINAL

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        if not self.name:
            raise InputError("variable name must be non-empty")
        if len(self.categories) < 1:
            raise InputError(f"variable {self.name!r} must have at least one category")
        if len(set(self.categories)) != len(self.categories):
            raise InputError(f"variable {self.name!r} has duplicate category labels")
        if self.treatment not in TREATMENTS:
            raise InputError(
                f"variable {self.name!r}: treatment must be one of {TREATMENTS}, "
                f"got {self.treatment!r}"
            )


@dataclass(frozen=True)
class CategoryScheme:
    """An ordered collection of :class:`VariableDef` describing a table's axes."""

    variables: tuple[VariableDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise InputError("a scheme needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names: {names}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(v.categories) for v in self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def treatments(self) -> tuple[str, ...]:
        return tuple(v.treatment for v in self.variables)


class SparseTable:
    """Immutable sparse array of nonnegative real counts over a K-way grid.

    ``coords`` is an ``(nnz, K)`` integer array in lexicographic order,
    ``flat`` the cells' increasing intp flat indexes over ``shape`` (C
    order) and ``counts`` the matching positive values.  ``coords`` is
    stored in the narrowest dtype that holds every axis's category codes:
    int16, or int32 when an axis has more categories than int16 holds, then
    int64; widen it before arithmetic that could pass that range.  The
    constructor takes coordinates of any integer dtype; others, booleans
    included, raise :class:`InputError`.  Duplicate coordinates passed to
    the constructor are summed; zero cells are dropped; negative, NaN and
    infinite counts and cells whose duplicates sum past the float range
    raise :class:`InputError`; cells in a shape of more cells than an intp
    can number, or of more than ``MAX_VARIABLES`` variables, raise
    :class:`FeasibilityError`.  ``total`` is the sum of all stored counts
    (``n``).  The table never keeps, or makes read-only, an array its caller
    passed: its own arrays are always copies.
    """

    __slots__ = ("shape", "coords", "flat", "counts", "total")

    def __init__(self, shape: Sequence[int], coords=None, counts=None):
        shape = tuple(int(s) for s in shape)
        if len(shape) == 0:
            raise InputError("table must have at least one dimension")
        if any(s < 0 for s in shape):
            raise InputError(f"invalid shape {shape}")
        K = len(shape)
        if K > MAX_VARIABLES:
            raise FeasibilityError(
                f"a table of {K} variables has more than the {MAX_VARIABLES} allowed", K)
        code = _code_dtype(shape)
        coords = np.zeros((0, K), dtype=code) if coords is None else np.asarray(coords)
        if coords.dtype.kind not in "iu" and coords.size:
            raise InputError(f"coordinates must be integers, got {coords.dtype}")
        counts = np.zeros(0) if counts is None else np.asarray(counts, dtype=np.float64)
        if coords.ndim == 1 and K == 1:
            coords = coords.reshape(-1, 1)
        if coords.ndim != 2 or coords.shape[1] != K:
            raise InputError(f"coords must be (nnz, {K}), got {coords.shape}")
        counts = counts.ravel()
        if counts.shape[0] != coords.shape[0]:
            raise InputError("coords and counts length mismatch")
        if counts.size:
            if not np.all(np.isfinite(counts)):
                raise InputError("non-finite count")
            if np.min(counts) < 0:
                raise InputError("negative count")
            if any(s == 0 for s in shape):
                raise InputError(f"cannot store cells in empty shape {shape}")
            cells = math.prod(shape)
            if cells > _MAX_FLAT:
                raise FeasibilityError(
                    f"a table of shape {shape} has {cells} cells, more than the "
                    f"{_MAX_FLAT} a flat cell index can number", cells)
            try:
                flat = np.ravel_multi_index(tuple(coords.T), shape)
            except ValueError:
                raise InputError(f"coordinate out of bounds for shape {shape}") from None
            # in bounds, so every code fits
            flat, coords, counts = _sum_cells(flat, coords.astype(code, copy=False), counts)
        else:
            flat = np.zeros(0, dtype=np.intp)
            coords = np.zeros((0, K), dtype=code)
            counts = np.zeros(0)
        for arr in (flat, coords, counts):
            arr.setflags(write=False)
        self.shape = shape
        self.coords = coords
        self.flat = flat
        self.counts = counts
        self.total = float(counts.sum())

    def __setattr__(self, name, value):
        if hasattr(self, "total"):
            raise AttributeError("SparseTable is immutable")
        super().__setattr__(name, value)

    @classmethod
    def from_dense(cls, array) -> "SparseTable":
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim == 0:
            raise InputError("dense array must have at least one dimension")
        # each nonzero cell's coordinates, one axis at a time, from its C-order
        # flat index and straight into the stored code dtype
        dense = arr.ravel()
        flat = np.flatnonzero(dense)
        coords = np.empty((flat.size, arr.ndim), dtype=_code_dtype(arr.shape))
        for k, size in enumerate(arr.shape):
            coords[:, k] = flat // math.prod(arr.shape[k + 1:]) % size
        counts = dense[flat]
        del flat  # not held while the constructor builds its own cells
        return cls(arr.shape, coords, counts)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return self.coords.shape[0]

    def todense(self) -> np.ndarray:
        _check_dense(self.shape)
        out = np.zeros(self.shape)
        if self.nnz:
            out[tuple(self.coords.T)] = self.counts
        return out

    def one_way(self, k: int) -> np.ndarray:
        """Variable ``k``'s one-way count vector, of length shape[k]: each
        category's cells added in lexicographic order."""
        return np.bincount(self.coords[:, k], weights=self.counts, minlength=self.shape[k])

    def one_way_marginals(self) -> list[np.ndarray]:
        """Per-variable one-way count vectors, each of length shape[k]."""
        return [self.one_way(k) for k in range(self.ndim)]

    def scale(self, c: float) -> "SparseTable":
        if c <= 0:
            raise InputError("scale factor must be positive")
        return SparseTable(self.shape, self.coords, self.counts * c)

    def __repr__(self):
        return f"SparseTable(shape={self.shape}, nnz={self.nnz}, total={self.total:g})"


def _sum_cells(flat, coords, counts):
    """The records' cells in increasing flat index ``flat``: their flat
    indexes, the coordinates of each one's first record and its counts
    summed in record order; cells that sum to zero are dropped.

    Records already in strictly increasing order are not sorted; others
    take the stable sort :func:`_order`, so a cell's records stay in
    record order.  ``flat`` is the caller's temporary and is consumed by
    that sort; ``coords`` and ``counts`` are only read, and the arrays
    returned never share their memory.
    """
    if np.all(flat[1:] > flat[:-1]):
        # still the caller's coords and counts: copied even if none is dropped
        keep = counts > 0
        return flat[keep], coords[keep], counts[keep]
    order, flat = _order(flat)
    counts = counts[order]
    if np.all(flat[1:] > flat[:-1]):
        coords = coords[order]
    else:
        # flat indices are nonnegative, so -1 marks the first as a run start
        starts = np.flatnonzero(np.diff(flat, prepend=-1))
        with np.errstate(over="ignore"):  # checked just below
            counts = np.add.reduceat(counts, starts)
        if not np.all(np.isfinite(counts)):
            raise InputError("the counts of one cell sum to a non-finite value")
        flat, coords = flat[starts], coords[order[starts]]
    # every array is a fresh gather now, so it is copied only to drop cells
    keep = counts > 0
    if keep.all():
        return flat, coords, counts
    return flat[keep], coords[keep], counts[keep]


def _order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of the nonnegative int64 ``keys``, and the keys
    in that order.

    ``keys`` is consumed: the caller passes an array it owns and does not
    read again (a copy, if it must), and the sorted keys are returned in
    that same buffer.  Each key is packed with its position into one word,
    ``key << b | position`` with ``b`` the bit length of ``n - 1``, and the
    words are sorted in place: they are distinct, so any sort gives the
    stable order, and a plain sort of words is about twice as fast as an
    argsort of the keys.  The positions are unpacked into the one
    ``arange`` buffer that packed them.  Keys too large to leave ``b`` bits
    free take ``np.argsort(kind="stable")``.
    """
    n = keys.shape[0]
    b = max(n - 1, 0).bit_length()
    if n == 0 or int(keys.max()) >> (63 - b):
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    keys <<= b
    order = np.arange(n)
    keys |= order
    keys.sort()
    np.bitwise_and(keys, (1 << b) - 1, out=order)
    keys >>= b
    return order, keys


def _canonical_key(key: Sequence[int]) -> tuple[int, ...]:
    # renumber group ids by order of first occurrence: 2 2 3 2 5 -> 0 0 1 0 2
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(int(g), len(seen)) for g in key)


@dataclass(frozen=True)
class Partition:
    """Per-variable key vectors mapping original categories to merged groups.

    Group ids are canonical: renumbered 0..G-1 by order of first occurrence
    within each key vector.  Arbitrary ids passed in are renumbered.
    """

    keys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        keys = tuple(_canonical_key(k) for k in self.keys)
        if not keys or any(len(k) == 0 for k in keys):
            raise InputError("each key vector must be non-empty")
        object.__setattr__(self, "keys", keys)

    @classmethod
    def _canonical(cls, keys: tuple[tuple[int, ...], ...]) -> "Partition":
        """A partition of ``keys`` that are already canonical, non-empty
        tuples of ints, without checking or renumbering them."""
        out = object.__new__(cls)
        object.__setattr__(out, "keys", keys)
        return out

    @classmethod
    def identity(cls, shape: Sequence[int]) -> "Partition":
        return cls(tuple(tuple(range(int(s))) for s in shape))

    @property
    def group_counts(self) -> tuple[int, ...]:
        return tuple(max(k) + 1 for k in self.keys)

    @property
    def source_shape(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.keys)

    def groups(self, dim: int) -> list[list[int]]:
        """Member category indices of each group on one variable."""
        out: list[list[int]] = [[] for _ in range(self.group_counts[dim])]
        for cat, g in enumerate(self.keys[dim]):
            out[g].append(cat)
        return out

    def is_identity(self) -> bool:
        return all(k == tuple(range(len(k))) for k in self.keys)


def compose_partitions(first: Partition, second: Partition) -> Partition:
    """Partition equivalent to applying ``first`` and then ``second``."""
    if second.source_shape != first.group_counts:
        raise InputError(
            f"cannot compose: second partition expects shape {second.source_shape}, "
            f"first produces {first.group_counts}"
        )
    keys = []
    for k in range(len(first.keys)):
        keys.append(tuple(second.keys[k][g] for g in first.keys[k]))
    return Partition(tuple(keys))


def build_table(scheme: CategoryScheme, entries: Iterable[tuple[Sequence[int], float]]) -> SparseTable:
    """Build a table from (coordinates, count) pairs.

    Duplicate coordinates are summed and zero counts dropped.  Coordinates
    of the wrong arity or out of bounds and negative counts raise
    :class:`InputError` naming the first offending entry.
    """
    shape = scheme.shape
    K = len(shape)
    rows = list(entries)
    if not rows:
        return SparseTable(shape)
    coord_rows, count_rows = zip(*rows)
    # rows before the first one of the wrong arity stack into an (ok, K) array
    wrong_arity = np.fromiter(map(len, coord_rows), dtype=np.intp, count=len(rows)) != K
    ok = _first(wrong_arity)
    coords = np.asarray(coord_rows[:ok], dtype=np.intp).reshape(ok, K)
    counts = np.asarray(count_rows, dtype=np.float64)
    out_of_bounds = _first(np.any((coords < 0) | (coords >= np.asarray(shape)), axis=1))
    negative = _first(counts[:ok] < 0)
    first = min(ok, out_of_bounds, negative)
    if first < len(rows):
        bad = tuple(int(c) for c in coord_rows[first])
        if first == ok:
            raise InputError(f"coordinate {bad} has wrong arity for shape {shape}")
        if first == out_of_bounds:
            raise InputError(f"coordinate {bad} out of bounds for shape {shape}")
        raise InputError(f"negative count {count_rows[first]} at {bad}")
    return SparseTable(shape, coords, counts)


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if there is none."""
    return int(np.argmax(mask)) if mask.any() else mask.shape[0]


def marginal(table: SparseTable, dims: Sequence[int]) -> SparseTable:
    """Sum the table onto a subset of its variables (ascending index order)."""
    dims = sorted(set(int(d) for d in dims))
    if not dims:
        raise InputError("dims must be non-empty")
    if dims[0] < 0 or dims[-1] >= table.ndim:
        raise InputError(f"dims {dims} out of range for {table.ndim} variables")
    sub_shape = tuple(table.shape[d] for d in dims)
    return SparseTable(sub_shape, table.coords[:, dims], table.counts)


def apply_partition(table: SparseTable, partition: Partition) -> SparseTable:
    """Collapse the table by summing all categories within each group."""
    if partition.source_shape != table.shape:
        raise InputError(
            f"partition keys are for shape {partition.source_shape}, table is {table.shape}"
        )
    if table.nnz == 0:
        return SparseTable(partition.group_counts)
    code = _code_dtype(partition.group_counts)
    cols = [np.asarray(partition.keys[k], dtype=code)[table.coords[:, k]]
            for k in range(table.ndim)]
    return SparseTable(partition.group_counts, np.stack(cols, axis=1), table.counts)


def group_weights(partition: Partition, original_marginals: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-variable weight of each original category within its group:
    ``m_k(c) / M_k(group of c)``, zero where the group has no mass."""
    if len(original_marginals) != len(partition.keys):
        raise InputError("one marginal vector per variable is required")
    weights = []
    for k, key in enumerate(partition.keys):
        m = np.asarray(original_marginals[k], dtype=np.float64)
        if m.shape[0] != len(key):
            raise InputError(
                f"marginal for variable {k} has length {m.shape[0]}, key has {len(key)}"
            )
        if m.size and np.min(m) < 0:
            raise InputError("marginals must be nonnegative")
        key_arr = np.asarray(key, dtype=np.intp)
        mass = np.bincount(key_arr, weights=m, minlength=max(key) + 1)
        denom = mass[key_arr]
        w = np.divide(m, denom, out=np.zeros_like(m), where=denom > 0)
        weights.append(w)
    return weights


def expand_model(collapsed: SparseTable, partition: Partition,
                 original_marginals: Sequence[np.ndarray]) -> SparseTable:
    """Expand collapsed cell probabilities back to the original table shape.

    Each collapsed cell's probability is spread over its member cells in
    proportion to the original one-way marginals, so every one-way marginal
    of the expansion matches the original distribution and re-collapsing
    recovers the input.  Groups with zero marginal mass receive probability
    zero on all member cells.
    """
    if collapsed.shape != partition.group_counts:
        raise InputError(
            f"collapsed shape {collapsed.shape} does not match partition group "
            f"counts {partition.group_counts}"
        )
    totals = [float(np.sum(m)) for m in original_marginals]
    if totals:
        ref = max(totals)
        if ref > 0 and any(abs(t - ref) > 1e-9 * ref for t in totals):
            raise InputError(f"marginal totals are inconsistent: {totals}")
    _check_dense(partition.source_shape)
    weights = group_weights(partition, original_marginals)
    dense = collapsed.todense()
    grids = np.ix_(*[np.asarray(k, dtype=np.intp) for k in partition.keys])
    expanded = dense[grids].astype(np.float64)
    for k, w in enumerate(weights):
        shape_k = [1] * len(partition.keys)
        shape_k[k] = w.shape[0]
        expanded = expanded * w.reshape(shape_k)
    return SparseTable.from_dense(expanded)
