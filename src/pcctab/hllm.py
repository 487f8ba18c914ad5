"""Hierarchical log-linear models: IPF fitting, backward selection by
information gradient, partition-model fits, and Pearson ratios.

A model is named by its maximal interaction terms (generators); the
hierarchical closure adds every subset.  Each non-empty closure term ``m``
contributes ``prod_{k in m} (r_k - 1)`` parameters, so the saturated model
has one parameter per cell (minus one).  Expected counts are computed by
cyclic iterative proportional scaling against the generator marginals.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import DegeneracyError, InputError
from .infoloss import _deviance, _expanded_deviance
from .pcc import _beats, _finish
from .table import Partition, SparseTable, _check_dense, apply_partition

__all__ = [
    "ModelSpec",
    "FitResult",
    "BackwardStep",
    "BackwardTrace",
    "model_df",
    "ipf_fit",
    "backward_select",
    "fit_hllpm",
    "independence_expected",
    "pearson_ratios",
]

IPF_TOL = 1e-8
IPF_MAX_ITER = 1000


def _canonical_terms(terms) -> tuple[tuple[int, ...], ...]:
    # each term as a bitmask of the variables it names: a term is dominated
    # when its mask is a proper subset of another's
    masks = {}
    for t in terms:
        m = 0
        for k in t:
            k = int(k)
            if k < 0:
                raise InputError(f"negative variable index {k} in term {tuple(t)}")
            m |= 1 << k
        masks[m] = None
    masks.pop(0, None)
    maximal = [m for m in masks if not any(m & o == m and m != o for o in masks)]
    return tuple(sorted(tuple(k for k in range(m.bit_length()) if m >> k & 1)
                        for m in maximal))


@dataclass(frozen=True)
class ModelSpec:
    """A hierarchical model named by its maximal terms.

    Dominated terms are dropped and terms are stored sorted, so two specs
    describing the same model compare equal.  The empty generator tuple is
    the grand-mean-only model.
    """

    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", _canonical_terms(self.generators))

    @classmethod
    def saturated(cls, ndim: int) -> "ModelSpec":
        return cls((tuple(range(ndim)),))

    @classmethod
    def main_effects(cls, ndim: int) -> "ModelSpec":
        return cls(tuple((k,) for k in range(ndim)))

    def closure(self) -> tuple[tuple[int, ...], ...]:
        """All non-empty terms implied by the generators, sorted."""
        out: set[tuple[int, ...]] = set()
        for g in self.generators:
            for size in range(1, len(g) + 1):
                out.update(combinations(g, size))
        return tuple(sorted(out))

    def remove(self, term: tuple[int, ...]) -> "ModelSpec":
        """Drop one maximal term, keeping the family hierarchical (the
        term's maximal proper subsets become generators where needed)."""
        term = tuple(sorted(int(k) for k in term))
        if term not in self.generators:
            raise InputError(f"{term} is not a generator")
        rest = [g for g in self.generators if g != term]
        # the rest stay maximal; a subset joins them unless one contains it
        masks = [sum(1 << k for k in g) for g in rest]
        for sub in combinations(term, len(term) - 1) if len(term) > 1 else ():
            m = sum(1 << k for k in sub)
            if not any(m & o == m for o in masks):
                rest.append(sub)
        # already canonical once sorted, so skip __post_init__
        spec = object.__new__(ModelSpec)
        object.__setattr__(spec, "generators", tuple(sorted(rest)))
        return spec

    def brackets(self, names: Sequence[str]) -> str:
        """Render as bracket notation, e.g. ``[oa][ro][s]``."""
        letters = _letter_map(names)
        parts = []
        for g in self.generators:
            if letters is not None:
                parts.append("".join(letters[k] for k in g))
            else:
                parts.append(",".join(names[k] for k in g))
        return "".join(f"[{p}]" for p in parts) if parts else "[]"

    @classmethod
    def from_brackets(cls, text: str, names: Sequence[str]) -> "ModelSpec":
        """Parse bracket notation; tokens may be variable names or their
        unique first letters, e.g. ``[oa][ro][s]``, ``[oa] [s]`` or
        ``[opinion,age]``."""
        text = text.strip()
        if not text:
            return cls(())
        if not re.fullmatch(r"\[[^\[\]]*\](\s*\[[^\[\]]*\])*", text):
            raise InputError(f"malformed generator list {text!r}")
        letters = _letter_map(names)
        by_name = {n.lower(): k for k, n in enumerate(names)}
        terms = []
        for chunk in re.findall(r"\[([^\[\]]*)\]", text):
            chunk = chunk.strip()
            if not chunk:
                continue
            tokens = [t for t in chunk.replace(",", " ").split() if t]
            indices: list[int] = []
            for tok in tokens:
                low = tok.lower()
                if low in by_name:
                    indices.append(by_name[low])
                elif letters is not None and all(c in _invert(letters) for c in low):
                    indices.extend(_invert(letters)[c] for c in low)
                else:
                    raise InputError(f"unknown variable token {tok!r} in {text!r}")
            terms.append(tuple(indices))
        return cls(tuple(terms))


def _letter_map(names: Sequence[str]) -> dict[int, str] | None:
    letters = {k: n[0].lower() for k, n in enumerate(names)}
    if len(set(letters.values())) != len(names):
        return None
    return letters


def _invert(letters: dict[int, str]) -> dict[str, int]:
    return {v: k for k, v in letters.items()}


def model_df(spec: ModelSpec, shape: Sequence[int]) -> int:
    """Parameter count: sum over all non-empty closure terms of
    ``prod (r_k - 1)``."""
    shape = tuple(int(s) for s in shape)
    total = 0
    for term in spec.closure():
        if any(k < 0 or k >= len(shape) for k in term):
            raise InputError(f"term {term} out of range for shape {shape}")
        total += _term_df(term, shape)
    return total


@dataclass(frozen=True)
class FitResult:
    """A fitted model: expected counts, deviance against the saturated
    model, and the model/residual df split over the fit's reference shape.

    ``fitted`` holds the expected counts on the table the model was fitted
    to: for :func:`fit_hllpm` the collapsed table, which
    :func:`~pcctab.expand_model` spreads back to the original shape.

    ``max_residual`` is the largest absolute gap between a fitted and an
    observed generator marginal (in count units) met in the last IPF
    cycle; None when the result was not built by the IPF engine.
    """

    spec: ModelSpec
    shape: tuple[int, ...]
    fitted: SparseTable
    dev: float
    dfmod: int
    dfres: int
    iterations: int
    converged: bool
    max_residual: float | None = None


# A batch of fits shares one (C, *shape) float64 stack of at most this
# many cells (32 MB); larger batches run in chunks.
_BATCH_CELLS = 2 ** 22


def _ipf_batch(obs: np.ndarray, n: float, specs: Sequence[ModelSpec], tol: float,
               max_iter: int, targets: dict) -> Iterator[tuple[np.ndarray, int, bool, float]]:
    """The IPF engine: cyclic proportional scaling of a batch of dense fits.

    ``obs`` is the dense observed table and ``n`` its total.  ``targets``
    maps a generator's complement axes to the observed marginal over them,
    the generator's :func:`_layout` and whether that marginal is finite
    and positive everywhere; missing entries are added, so callers
    fitting several models to one table pass the same dict to share them.
    Yields, per spec and in order, the dense fit, the number of cycles
    run, whether the worst marginal residual of the last cycle is at most
    ``tol``, and that residual (0.0 for the grand-mean model, which has no
    generator to scale).  Each fit is bitwise the one a batch of one
    gives.
    """
    if n <= 0:
        raise InputError("cannot fit an empty table")
    if not 0 < tol < np.inf:  # NaN fails too
        raise InputError("tol must be positive and finite")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")
    chunk = max(1, _BATCH_CELLS // obs.size)
    for first in range(0, len(specs), chunk):
        yield from _ipf_chunk(obs, n, specs[first:first + chunk], tol, max_iter, targets)


def _ipf_chunk(obs, n, specs, tol, max_iter, targets) -> list:
    """Fit ``specs`` together, stacked along a new leading axis.

    The cycle walks the sorted union of the specs' generators; as each
    spec's own sorted generators are a subsequence of it, every fit is
    scaled in exactly its single-fit order.  A generator's members are
    scaled in place, through a view of the stack for each contiguous run
    of their rows.  A fit leaves the stack at the end of the cycle in
    which it converged and is frozen there.

    Each member's generator marginal is bitwise the
    ``np.add.reduce(fit, axis=axes, keepdims=True)`` of a lone fit.  On a
    C-contiguous array numpy reduces several axes in two stages: it sums
    the trailing reduced run (the cell axes after the last kept axis
    longer than one) with its pairwise routine, then adds those run sums
    into each output, starting from 0, in C order over the other reduced
    positions.  A run of 8 cells or more makes long inner loops, so the
    members' rows are reduced in place.  A shorter run is a plain loop in
    numpy, over a few cells per output: there the members' cells are read
    with one ``take`` (:func:`_layout`, :func:`_marginal`) so that each run
    position holds the kept cells of all the members side by side, and
    two ``add.reduce`` calls sum the runs and then the run sums in the
    same order.  ``test_marginal_matches_add_reduce_bitwise`` and the
    ``reference_ipf`` tests pin this order and fail if numpy changes it.

    The checked step divides ``target / cur`` plainly when every marginal
    is positive, else gives zero where a marginal is not.  A chunk whose
    targets are all finite and positive (each flagged once, when it
    enters ``targets``) divides plainly without that check, under
    ``np.errstate`` that raises on division by zero, overflow and invalid
    operations.  The cells start at ``n / size > 0``, and a marginal can
    then only become zero, inf or NaN through cells that underflow to
    zero, overflow, ``0 * inf`` or ``inf / inf``.  The last three raise
    where they happen, and a zero marginal raises when a positive target
    is divided by it, before it scales any cell.  Until something raises,
    every marginal is finite and positive, so the checked step would have
    divided plainly too.  On a raise the chunk discards its fits and
    reruns from the uniform start with the checked step, under the
    caller's numpy settings, so fits and warnings are the checked step's.
    A chunk with a zero or non-finite target runs the checked step from
    the start.

    Each step writes its gaps ``cur - target`` into one buffer, which is
    reduced by ``maximum`` per fit and step, so a NaN gap stays NaN, then
    by ``fmax`` across steps, which skips it.  Only a cycle that can end
    some fit needs all its gaps.  The gate is the last step of the
    shortest run of steps from the first that scales every live fit.
    Below ``max_iter``, when each fit already has a gap over ``tol``
    there, none can converge in this cycle: the later steps write no gaps
    and the cycle ends without the reduction.  Fits, cycle counts and
    residuals are those of the full reduction in every cycle.
    """
    results: list = [None] * len(specs)
    ids = []  # the specs still being fitted, one per row of the stack
    owners: dict = {}  # each generator's specs
    for i, s in enumerate(specs):
        if s.generators:
            ids.append(i)
        else:
            results[i] = (np.full(obs.shape, n / obs.size), 0, True, 0.0)
        for g in s.generators:
            owners.setdefault(g, set()).add(i)
    if not ids:
        return results
    steps, positive = [], True
    for g in sorted(owners):
        axes = tuple(k for k in range(obs.ndim) if k not in g)
        entry = targets.get(axes)
        if entry is None:
            target = np.add.reduce(obs, axis=axes, keepdims=True)
            entry = targets[axes] = (target, _layout(obs.shape, g),
                                     bool(0 < target.min() and target.max() < np.inf))
        target, cells, finite_positive = entry
        positive = positive and finite_positive
        steps.append((tuple(k + 1 for k in axes), target, cells, owners[g]))
    if positive:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return _cycles(obs, n, steps, ids, results, tol, max_iter, True)
        except FloatingPointError:
            pass  # a marginal met zero, inf or NaN: rerun with the checked step
    return _cycles(obs, n, steps, ids, results, tol, max_iter, False)


def _cycles(obs, n, steps, ids, results, tol, max_iter, positive) -> list:
    """The cycles of :func:`_ipf_chunk` from the uniform start, filling
    ``results`` at every one of ``ids``; with ``positive`` set, each step
    divides without checking its marginals for zeros."""
    stack = np.full((len(ids),) + obs.shape, n / obs.size)
    plan = _Plan(steps, ids, stack)
    for cycle in range(1, max_iter + 1):
        gate = plan.gate if cycle < max_iter else -1
        ending = True  # whether this cycle can still end some fit
        for j, (blocks, axes, index, target, diff) in enumerate(plan.steps):
            # ufuncs called directly: ndarray.sum/np.max add a Python
            # wrapper that costs more than the arithmetic on small tables
            if index is not None:
                cur = _marginal(plan.flat, index, obs.ndim)
            elif len(blocks) == 1:
                cur = np.add.reduce(blocks[0][0], axis=axes, keepdims=True)
            else:
                cur = np.empty(diff.shape)
                for block, part in blocks:
                    np.add.reduce(block, axis=axes, keepdims=True, out=cur[part])
            if ending:
                np.subtract(cur, target, out=diff)
                if j == gate:
                    ending = not (plan.worst(j + 1) > tol).all()
            if positive or np.minimum.reduce(cur, axis=None) > 0:
                ratio = np.divide(target, cur, out=cur)
            else:
                ratio = np.divide(target, cur, out=np.zeros(cur.shape), where=cur > 0)
            for block, part in blocks:
                block *= ratio if part is None else ratio[part]
        if not ending:
            continue
        worst = plan.worst(len(plan.steps)).tolist()
        done = [w <= tol for w in worst]
        leaving = [row for row, d in enumerate(done) if d or cycle == max_iter]
        if not leaving:
            continue
        frozen = stack if len(leaving) == len(ids) else stack[leaving]
        for fit, row in zip(frozen, leaving):
            results[ids[row]] = (fit, cycle, done[row], worst[row])
        if len(leaving) == len(ids):
            break
        staying = [row for row, d in enumerate(done) if not d]
        stack, ids = stack[staying], [ids[row] for row in staying]
        plan = _Plan(steps, ids, stack)
    return results


class _Plan:
    """The steps that scale some of the live fits ``ids``, the rows of
    ``stack``, and the buffers for their gaps.

    Each of ``steps`` holds its members' blocks (a view of the stack for
    each contiguous run of their rows, with that run's slice of the
    members, or None when the run holds them all), its reduced axes, its
    take index into ``flat`` (None when the blocks are reduced in place),
    its target and a view of one buffer for its members' gaps, shaped as
    their marginals.  ``gate`` is the index of the step that ends the
    shortest run of steps from the first that scales every live fit.
    """

    __slots__ = ("steps", "gate", "flat", "_diffs", "_starts", "_where", "_gaps", "_ends")

    def __init__(self, steps, ids, stack):
        size = math.prod(stack.shape[1:])
        # each fit's first flat cell, on the fits axis of a _layout index
        offsets = np.arange(0, len(ids) * size, size, dtype=np.int32).reshape(
            (-1,) + (1,) * (stack.ndim - 1))
        self.flat = stack.reshape(-1)
        live = []
        for axes, target, cells, owners in steps:
            rows = [row for row, i in enumerate(ids) if i in owners]
            if rows:
                live.append((axes, target, cells, rows))
        self._diffs = diffs = np.empty(sum(target.size * len(rows) for _, target, _, rows in live))
        self.steps, self.gate, self._ends = [], None, []
        starts, where, seen, first = [], [], set(), 0
        for j, (axes, target, cells, rows) in enumerate(live):
            m, last = target.size, first + target.size * len(rows)
            breaks = [0] + [k for k in range(1, len(rows)) if rows[k] != rows[k - 1] + 1]
            if len(breaks) == 1:
                blocks = [(stack[rows[0]:rows[-1] + 1], None)]
            else:
                blocks = [(stack[rows[a]:rows[b - 1] + 1], slice(a, b))
                          for a, b in zip(breaks, breaks[1:] + [len(rows)])]
            self.steps.append((blocks, axes, None if cells is None else cells + offsets[rows],
                               target, diffs[first:last].reshape((len(rows),) + target.shape)))
            starts.extend(range(first, last, m))
            where.extend(j * len(ids) + row for row in rows)
            first = last
            self._ends.append((len(starts), last))
            if self.gate is None:
                seen.update(rows)
                if len(seen) == len(ids):
                    self.gate = j
        self._starts, self._where = np.array(starts), np.array(where)
        # a fit outside a step keeps 0 there, the start of a lone fit's worst gap
        self._gaps = np.zeros((len(live), len(ids)))

    def worst(self, steps) -> np.ndarray:
        """Each live fit's worst gap over the first ``steps`` steps of this
        cycle, from the gaps they wrote."""
        members, end = self._ends[steps - 1]
        diffs = self._diffs[:end]
        self._gaps.flat[self._where[:members]] = np.maximum.reduceat(
            np.abs(diffs, out=diffs), self._starts[:members])
        return np.fmax.reduce(self._gaps[:steps], axis=0, initial=0.0)


def _layout(shape, g) -> np.ndarray | None:
    """The cells of a ``shape`` table in the order its marginal over the
    generator ``g`` sums them, as int32 flat indices; None when the
    trailing reduced run (the cells after the last axis of ``g`` longer
    than one) has 8 cells or more, as the table's own order serves then.
    With L the run and R the other reduced positions, each in C order,
    the cells are shaped ``(R, L, 1, *kept)``, or ``(R, 1, *kept)`` when
    L = 1, where ``kept`` is the marginal's shape (``keepdims``).  The
    axis of length 1 is for the fits: adding each fit's first flat cell
    there gives its take index."""
    last = max((k for k in g if shape[k] > 1), default=-1)
    run = math.prod(shape[last + 1:])
    if run >= 8:
        return None
    reduced = [k for k in range(last + 1) if k not in g]
    kept = tuple(s if k in g else 1 for k, s in enumerate(shape))
    cells = np.arange(math.prod(shape), dtype=np.int32).reshape(shape[:last + 1] + (run,))
    cells = cells.transpose(reduced + [last + 1] + [k for k in range(last + 1) if k in g])
    cells = cells.reshape((math.prod(shape[k] for k in reduced), run, 1) + kept)
    return np.ascontiguousarray(cells if run > 1 else cells[:, 0])


def _marginal(flat, index, ndim) -> np.ndarray:
    """The marginals of the fits of ``ndim`` axes in the flat stack
    ``flat``, read through a take index of :func:`_layout` cells, shaped
    (fits, *kept)."""
    block = flat.take(index)
    if block.ndim == ndim + 3:  # sum each run first
        block = np.add.reduce(block, axis=1)
    return np.add.reduce(block, axis=0)


def _ipf(obs: np.ndarray, n: float, spec: ModelSpec, tol: float, max_iter: int,
         targets: dict) -> tuple[np.ndarray, int, bool, float]:
    """One fit through :func:`_ipf_batch`, as a batch of one."""
    return next(_ipf_batch(obs, n, (spec,), tol, max_iter, targets))


def ipf_fit(table: SparseTable, spec: ModelSpec, tol: float = IPF_TOL,
            max_iter: int = IPF_MAX_ITER) -> FitResult:
    """Fit a hierarchical model by iterative proportional scaling.

    Starting from the uniform table, each cycle rescales the fit to match
    every generator marginal; the fit converges when the largest absolute
    marginal discrepancy (in count units) is at most ``tol``.  A
    non-converged fit is still returned, flagged.  The expected counts
    come back as a :class:`SparseTable`; :func:`backward_select` scores its
    candidate models by deviance alone and builds no such table for them.
    """
    dfmod = model_df(spec, table.shape)  # checks the spec against the table first
    fitted, iterations, converged, residual = _ipf(
        table.todense(), table.total, spec, tol, max_iter, {})
    dev = _deviance(table, fitted.reshape(-1).take(table.flat))
    dfres = int(np.prod(table.shape, dtype=np.int64)) - 1 - dfmod
    return FitResult(spec=spec, shape=table.shape, fitted=SparseTable.from_dense(fitted),
                     dev=dev, dfmod=dfmod, dfres=dfres, iterations=iterations,
                     converged=converged, max_residual=residual)


@dataclass(frozen=True)
class BackwardStep:
    """One row of a backward trace.  ``converged`` is the IPF flag of the
    row's own fit; ``candidates_converged`` is False when any candidate
    fitted at that step (at row 0, the starting model) did not converge.
    The trace report renders neither."""

    r: int
    spec: ModelSpec
    dev: float
    dfmod: int
    dfres: int
    dev_term: float
    df_term: int
    adj_rsq: float
    converged: bool
    candidates_converged: bool = True


@dataclass(frozen=True)
class BackwardTrace:
    """Rows of a backward elimination run, saturated model first."""

    steps: tuple[BackwardStep, ...]
    shape: tuple[int, ...]

    def curve(self) -> list[tuple[int, float]]:
        return [(s.dfmod, s.dev) for s in self.steps]

    def find(self, spec: ModelSpec) -> BackwardStep:
        for s in self.steps:
            if s.spec == spec:
                return s
        raise KeyError(spec.generators)


def _term_df(term: tuple[int, ...], shape: Sequence[int]) -> int:
    d = 1
    for k in term:
        d *= shape[k] - 1
    return d


def backward_select(table: SparseTable, start: ModelSpec | None = None,
                    tol: float = IPF_TOL, max_iter: int = IPF_MAX_ITER) -> BackwardTrace:
    """Backward elimination driven by information gradients.

    From the starting model (saturated by default), each step refits the
    model without each removable maximal term (size >= 2) and removes the
    one with the smallest deviance increase per parameter; zero-parameter
    terms are free and removed first.  Main effects are never removed, so
    the trace ends at the mutual-independence model.  Ties go to the
    lexicographically smallest term.

    All candidates of a step are fitted together in one batched IPF
    sweep, each bitwise as a lone fit would be, and scored by the deviance
    of its dense fit only; no :class:`FitResult` or fitted table is built
    for them.  All fits of one call share the observed generator marginals
    they need.  Removing a maximal term drops exactly that term from the
    closure, so each row's parameter count is the previous one's less the
    removed term's.
    """
    spec = ModelSpec.saturated(table.ndim) if start is None else start
    dfmod = model_df(spec, table.shape)  # checks the spec against the table first
    obs = table.todense()
    targets: dict = {}
    cells = int(np.prod(table.shape, dtype=np.int64))

    def score(specs: list[ModelSpec]) -> list[tuple[float, bool]]:
        return [(_deviance(table, fitted.reshape(-1).take(table.flat)), converged)
                for fitted, _, converged, _
                in _ipf_batch(obs, table.total, specs, tol, max_iter, targets)]

    rows: list[dict] = []

    def add(s: ModelSpec, dfmod: int, dev: float, converged: bool, dev_term: float,
            df_term: int, candidates_converged: bool) -> None:
        rows.append(dict(r=len(rows), spec=s, dev=dev, dfmod=dfmod, dfres=cells - 1 - dfmod,
                         dev_term=dev_term, df_term=df_term, converged=converged,
                         candidates_converged=candidates_converged))

    (dev, converged), = score([spec])
    add(spec, dfmod, dev, converged, 0.0, 0, converged)
    while True:
        removable = [g for g in spec.generators if len(g) >= 2]
        if not removable:
            break
        cand_specs = [spec.remove(term) for term in removable]
        scored = score(cand_specs)
        best = None
        for term, cand_spec, (dev, converged) in zip(removable, cand_specs, scored):
            ddev = dev - rows[-1]["dev"]
            ddf = _term_df(term, table.shape)
            quotient = 0.0 if ddf == 0 else ddev / ddf
            if _beats(quotient, None if best is None else best[0]):
                best = (quotient, cand_spec, dev, converged, ddev, ddf)
        _, spec, dev, converged, ddev, ddf = best
        dfmod -= ddf
        add(spec, dfmod, dev, converged, ddev, ddf, all(c for _, c in scored))
    return BackwardTrace(steps=_finish(BackwardStep, rows), shape=table.shape)


def fit_hllpm(original: SparseTable, partition: Partition, spec: ModelSpec,
              tol: float = IPF_TOL, max_iter: int = IPF_MAX_ITER) -> FitResult:
    """Fit a model on the collapsed table and score it against the original.

    The model is fitted on ``apply_partition(original, partition)``, its
    probabilities expanded back to the original shape in proportion to the
    original one-way marginals, and the deviance taken against the original
    table at its observed cells, as :func:`~pcctab.partition_deviance` does.
    The parameter count is the model's on the collapsed shape; expansion
    adds none.  ``fitted`` is the fit on the collapsed table; ``shape``,
    ``dev`` and ``dfres`` refer to the original one.
    """
    fit = ipf_fit(apply_partition(original, partition), spec, tol, max_iter)
    return dataclasses.replace(
        fit, shape=original.shape, dev=_expanded_deviance(original, partition, fit.fitted),
        dfres=int(np.prod(original.shape, dtype=np.int64)) - 1 - fit.dfmod)


def independence_expected(table: SparseTable) -> np.ndarray:
    """Dense expected counts under mutual independence of all variables."""
    _check_dense(table.shape)
    if table.total <= 0:
        return np.zeros(table.shape)
    n = table.total
    expected = np.full(table.shape, n)
    for k, m in enumerate(table.one_way_marginals()):
        sh = [1] * table.ndim
        sh[k] = table.shape[k]
        expected = expected * (m / n).reshape(sh)
    return expected


def pearson_ratios(observed: SparseTable, reference=None) -> np.ndarray:
    """Cell-wise ratio of observed to expected counts.

    ``reference`` may be a :class:`FitResult`, a table/array of expected
    counts, or None for the mutual-independence model of ``observed``.
    Cells where both observed and expected are zero report 1; a positive
    observed count over a zero expectation raises
    :class:`DegeneracyError`.
    """
    if reference is None:
        expected = independence_expected(observed)
    elif isinstance(reference, FitResult):
        expected = reference.fitted.todense()
    elif isinstance(reference, SparseTable):
        expected = reference.todense()
    else:
        expected = np.asarray(reference, dtype=np.float64)
    if expected.shape != observed.shape:
        raise InputError(
            f"reference shape {expected.shape} does not match observed {observed.shape}"
        )
    obs = observed.todense()
    zero_e = expected == 0
    if np.any(obs[zero_e] > 0):
        raise DegeneracyError("positive observed count over zero expected count")
    out = np.ones_like(obs)
    np.divide(obs, expected, out=out, where=~zero_e)
    return out
