"""Property-based checks of the structural invariants."""

import math
import re
import tempfile
from functools import reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pcctab import (
    CategoryScheme,
    DegeneracyError,
    ModelSpec,
    Partition,
    SparseTable,
    VariableDef,
    adjusted_rsq,
    apply_partition,
    backward_select,
    compose_partitions,
    expand_model,
    fit_hllpm,
    ipf_fit,
    load_table,
    loss_matrix,
    model_df,
    pair_loss,
    partition_deviance,
    pearson_ratios,
    run_pcc,
    select_merge,
    write_counts,
)
from pcctab import collapse, hllm, report
from pcctab.report import (
    render_backward_trace,
    render_curve,
    render_fit,
    render_pcc_trace,
    render_ratios,
)
from pcctab.hllm import IPF_MAX_ITER, IPF_TOL, _ipf, _ipf_batch
from pcctab import infoloss
from pcctab.infoloss import (_axis_sums, _deviance, _key_cells, _merge_deltas, _one_pair_g2,
                             _other_cols, _paired_cells, _xlogx)
from pcctab.pcc import _contiguous_partitions, _set_partitions, normalize_treatments
from pcctab.table import group_weights

from oracles import (
    brute_force_best_pair,
    dense_collapse,
    dense_deviance,
    dense_expand_probs,
    dense_pair_g2,
    loss_grid,
    reference_axis_sums,
    reference_ipf,
    reference_pcc_walk,
    reference_select_merge,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def dense_tables(draw, min_dims=2, max_dims=3, max_side=4, max_count=30):
    ndim = draw(st.integers(min_dims, max_dims))
    shape = tuple(draw(st.integers(2, max_side)) for _ in range(ndim))
    arr = draw(arrays(np.int64, shape=shape, elements=st.integers(0, max_count)))
    assume(arr.sum() > 0)
    return arr.astype(float)


@st.composite
def cell_lists(draw):
    """Coordinates with many duplicates and zero counts on shapes that
    include size-1 axes; counts are multiples of 1/4, so every sum is exact."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    n = draw(st.integers(0, 30))
    coords = [[draw(st.integers(0, s - 1)) for s in shape] for _ in range(n)]
    counts = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return shape, np.array(coords, dtype=np.intp).reshape(n, len(shape)), np.array(counts) / 4


@settings(max_examples=200, deadline=None)
@given(cell_lists())
def test_sparse_table_sums_duplicates_like_dense_oracle(cells):
    shape, coords, counts = cells
    dense = np.zeros(shape)
    np.add.at(dense, tuple(coords.T), counts)
    t = SparseTable(shape, coords, counts)
    want = np.argwhere(dense > 0)
    # at most 4 categories per axis: int16 codes
    assert t.coords.dtype == np.int16
    assert np.array_equal(t.coords, want)
    assert np.array_equal(t.counts, dense[tuple(want.T)])


def _outcome(fn, *args):
    """What ``fn`` returned, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _results_of(shape, coords, counts, treatments, keys, path):
    """Everything a table built from ``coords`` gives, as bytes and reprs:
    the table, each loss matrix, the collapse trace, the deviance and the
    collapsed table of the partition ``keys``, and the table read back
    from its counts file written to ``path``."""
    t = SparseTable(shape, coords, counts)
    partition = Partition(keys)
    scheme = CategoryScheme(tuple(VariableDef(f"v{k}", tuple(f"c{i}" for i in range(s)), tr)
                                  for k, (s, tr) in enumerate(zip(shape, treatments))))

    def round_trip():
        write_counts(path, scheme, t)
        again = load_table(path)[1]
        return again.shape, again.coords.dtype, again.coords.tobytes(), again.counts.tobytes()

    def collapsed():
        c = apply_partition(t, partition)
        return c.shape, c.coords.dtype, c.coords.tobytes(), c.counts.tobytes()

    return (t.coords.dtype, t.coords.tobytes(), t.flat.tobytes(), t.counts.tobytes(), t.total,
            [_outcome(lambda d: loss_matrix(t, d, treatments[d]).losses.tobytes(), d)
             for d in range(len(shape))],
            _outcome(lambda: repr(run_pcc(t, treatments))),
            _outcome(lambda: np.float64(partition_deviance(t, partition)).tobytes()),
            _outcome(collapsed), _outcome(round_trip))


@settings(max_examples=60, deadline=None)
@given(cell_lists(), st.data())
def test_any_integer_coords_give_the_results_of_intp(cells, data):
    """Tables with zero counts, tied counts and size-1 axes built from int16,
    int32, int64 or uint64 coordinates give bitwise what intp ones give."""
    shape, coords, counts = cells
    treatments = tuple(data.draw(st.sampled_from(["nominal", "ordinal"])) for _ in shape)
    keys = tuple(tuple(data.draw(st.lists(st.integers(0, s - 1), min_size=s, max_size=s)))
                 for s in shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        want = _results_of(shape, coords.astype(np.intp), counts, treatments, keys, path)
        for dtype in (np.int16, np.int32, np.int64, np.uint64):
            got = _results_of(shape, coords.astype(dtype), counts, treatments, keys, path)
            assert got == want


@st.composite
def tables_with_partitions(draw):
    arr = draw(dense_tables())
    keys = tuple(
        tuple(draw(st.integers(0, s - 1)) for _ in range(s)) for s in arr.shape
    )
    return arr, Partition(keys)


@SETTINGS
@given(tables_with_partitions())
def test_partition_preserves_integer_totals_exactly(data):
    arr, part = data
    t = SparseTable.from_dense(arr)
    assert apply_partition(t, part).total == t.total


@SETTINGS
@given(tables_with_partitions(), st.data())
def test_partition_composition_matches_sequential(data, extra):
    arr, p1 = data
    t = SparseTable.from_dense(arr)
    mid = p1.group_counts
    p2 = Partition(tuple(
        tuple(extra.draw(st.integers(0, s - 1)) for _ in range(s)) for s in mid
    ))
    two_steps = apply_partition(apply_partition(t, p1), p2)
    one_step = apply_partition(t, compose_partitions(p1, p2))
    assert two_steps.shape == one_step.shape
    assert np.allclose(two_steps.todense(), one_step.todense(), rtol=1e-12)


@SETTINGS
@given(tables_with_partitions())
def test_expansion_preserves_marginals_and_recollapses(data):
    arr, part = data
    t = SparseTable.from_dense(arr)
    collapsed = apply_partition(t, part)
    probs = SparseTable(collapsed.shape, collapsed.coords, collapsed.counts / t.total)
    expansion = expand_model(probs, part, t.one_way_marginals())
    dense = expansion.todense()
    for k in range(t.ndim):
        axes = tuple(a for a in range(t.ndim) if a != k)
        assert np.allclose(dense.sum(axis=axes), t.one_way_marginals()[k] / t.total,
                           rtol=1e-12, atol=1e-15)
    back = apply_partition(expansion, part)
    assert np.allclose(back.todense(), probs.todense(), rtol=1e-12, atol=1e-15)


@st.composite
def tables_with_pair(draw):
    arr = draw(dense_tables())
    dim = draw(st.integers(0, arr.ndim - 1))
    u = draw(st.integers(0, arr.shape[dim] - 1))
    v = draw(st.integers(0, arr.shape[dim] - 1))
    assume(u != v)
    return arr, dim, u, v


def _constant_with_one_bump():
    arr = np.full((2, 4, 4), 22.0)
    arr[0, 0, 0] = 30.0
    return arr


@SETTINGS
@given(tables_with_pair())
# evaluated in the order given, (0, 1) and (1, 0) differ by 1.6e-12 relative
# on this table, so only a canonical pair order keeps them within 1e-12
@example((_constant_with_one_bump(), 0, 0, 1))
def test_pair_loss_symmetric_and_nonnegative(case):
    arr, dim, u, v = case
    t = SparseTable.from_dense(arr)
    a = pair_loss(t, dim, u, v)
    b = pair_loss(t, dim, v, u)
    assert a.g2 >= 0
    assert math.isclose(a.g2, b.g2, rel_tol=1e-12, abs_tol=1e-12)
    assert a.df == b.df


@st.composite
def tie_heavy_tables(draw, max_dims=3, max_side=4):
    """Small tables with zeros, size-1 axes, empty categories, and exact ties
    from constant tables or one slice repeated along an axis."""
    ndim = draw(st.integers(1, max_dims))
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(ndim))
    arr = draw(arrays(np.int64, shape=shape,
                      elements=st.sampled_from([0, 0, 1, 2, 5, 22, 30]))).astype(float)
    axis = draw(st.integers(0, ndim - 1))
    style = draw(st.sampled_from(["plain", "constant", "repeated", "empty"]))
    if style == "constant":
        arr[...] = draw(st.sampled_from([1.0, 22.0]))
    elif style == "repeated":
        arr = np.repeat(np.take(arr, [0], axis=axis), shape[axis], axis=axis)
    elif style == "empty":
        index = [slice(None)] * ndim
        index[axis] = draw(st.integers(0, shape[axis] - 1))
        arr[tuple(index)] = 0.0
    return arr


@SETTINGS
@given(tie_heavy_tables())
def test_axis_kernel_matches_dense_oracle(arr):
    t = SparseTable.from_dense(arr)
    for dim, r in enumerate(t.shape):
        g2, df = loss_grid(t, dim)
        adjacent, _ = loss_grid(t, dim, adjacent=True)
        assert df == int(np.prod(t.shape)) // r - 1
        for u, v in combinations(range(r), 2):
            # the absolute floor absorbs cancellation noise when the true loss is 0
            assert math.isclose(g2[u, v], dense_pair_g2(arr, dim, u, v), rel_tol=1e-9, abs_tol=1e-9)
            assert g2[v, u] == g2[u, v]
            if v == u + 1:
                assert adjacent[u, v] == g2[u, v]


@SETTINGS
@given(tie_heavy_tables(), st.data())
def test_select_merge_matches_brute_force_on_ties(arr, data):
    treatments = [data.draw(st.sampled_from(["nominal", "ordinal", "fixed"])) for _ in arr.shape]
    got = select_merge(SparseTable.from_dense(arr), treatments)
    want = brute_force_best_pair(arr, treatments)
    if want is None:
        assert got is None
    else:
        assert (got.dim, got.u, got.v, got.df) == (want[0], want[1], want[2], want[4])
        assert math.isclose(got.g2, want[3], rel_tol=1e-9, abs_tol=1e-9)


@st.composite
def tie_heavy_problems(draw):
    """A tie-heavy table with random treatments."""
    arr = draw(tie_heavy_tables())
    return arr, [draw(st.sampled_from(["nominal", "ordinal", "fixed"])) for _ in arr.shape]


@SETTINGS
@given(tie_heavy_problems())
@example((np.zeros((3, 3)), ["nominal", "nominal"]))
@example((np.zeros((1, 4, 3)), ["nominal", "ordinal", "nominal"]))
@example((np.ones((1, 1, 2)), ["nominal", "nominal", "nominal"]))
@example((np.ones(3), ["nominal"]))
def test_select_merge_equals_reference_scan_bitwise(problem):
    """The engine ``select_merge`` and ``run_pcc`` share picks the pair the
    stateless scan over ``loss_matrix`` picks, with the same loss and
    quotient to the bit, tables with no stored cells and size-1 axes
    included."""
    arr, treatments = problem
    t = SparseTable.from_dense(arr)
    got = select_merge(t, treatments)
    want = reference_select_merge(t, treatments)
    if want is None:
        assert got is None
    else:
        assert (got.dim, got.u, got.v, got.df) == (want.dim, want.u, want.v, want.df)
        assert got.g2.hex() == want.g2.hex()
        assert got.quotient.hex() == want.quotient.hex()


@SETTINGS
@given(dense_tables(), st.sampled_from([0.5, 3.0, 10.0]), st.data())
def test_scaling_scales_g2_linearly(arr, c, data):
    t = SparseTable.from_dense(arr)
    dim = data.draw(st.integers(0, t.ndim - 1))
    u = data.draw(st.integers(0, t.shape[dim] - 2))
    base = pair_loss(t, dim, u, u + 1)
    scaled = pair_loss(t.scale(c), dim, u, u + 1)
    # the absolute floor absorbs cancellation noise when the true loss is 0
    assert math.isclose(scaled.g2, c * base.g2, rel_tol=1e-9, abs_tol=1e-9)
    assert scaled.df == base.df


@SETTINGS
@given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
def test_partition_canonicalisation_is_idempotent(raw):
    p = Partition((tuple(raw),))
    assert Partition(p.keys).keys == p.keys
    key = p.keys[0]
    seen = []
    for g in key:
        if g not in seen:
            assert g == len(seen)  # new ids appear in increasing order
            seen.append(g)


@given(st.integers(1, 7))
def test_set_partition_enumeration_matches_bell_numbers(r):
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}
    parts = list(_set_partitions(r))
    assert len(parts) == bell[r]
    assert len(set(parts)) == len(parts)
    for key in parts:
        assert Partition((key,)).keys[0] == key  # already canonical


@given(st.integers(1, 8))
def test_contiguous_partition_count(r):
    parts = list(_contiguous_partitions(r))
    assert len(parts) == 2 ** (r - 1)
    for key in parts:
        p = Partition((key,))
        for members in p.groups(0):
            assert members == list(range(members[0], members[-1] + 1))


@SETTINGS
@given(dense_tables(max_side=3, max_count=20))
def test_trace_bookkeeping_identities(arr):
    t = SparseTable.from_dense(arr)
    trace = run_pcc(t)
    cells_minus_one = int(np.prod(t.shape)) - 1
    for s in trace.steps:
        assert s.dfmod + s.dfres == cells_minus_one
        assert s.dev_term >= 0
    real = [s for s in trace.steps if not s.terminal]
    for s in real:
        assert s.dfres == sum(x.df_term for x in real[: s.r + 1])
        assert math.isclose(s.dev, sum(x.dev_term for x in real[: s.r + 1]),
                            rel_tol=1e-9, abs_tol=1e-9)


@given(st.lists(st.integers(2, 5), min_size=1, max_size=4))
def test_saturated_model_df_is_cells_minus_one(shape):
    shape = tuple(shape)
    assert model_df(ModelSpec.saturated(len(shape)), shape) == int(np.prod(shape)) - 1


@st.composite
def ipf_problems(draw, min_dims=1, max_dims=4, max_side=3):
    """A dense table with sampling zeros, size-1 axes and possibly whole
    zero slices (so some generator marginals are all zero), plus a random
    hierarchical model, the empty one included."""
    ndim = draw(st.integers(min_dims, max_dims))
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(ndim))
    arr = draw(arrays(np.int64, shape=shape,
                      elements=st.sampled_from([0, 0, 1, 2, 3, 7, 20]))).astype(float)
    wide = [k for k in range(ndim) if shape[k] > 1]
    if wide:
        for _ in range(draw(st.integers(0, 2))):
            axis = draw(st.sampled_from(wide))
            np.moveaxis(arr, axis, 0)[draw(st.integers(0, shape[axis] - 1))] = 0.0
    assume(arr.sum() > 0)
    terms = draw(st.lists(st.sets(st.integers(0, ndim - 1), min_size=1, max_size=max(1, ndim - 1)),
                          max_size=4))
    return arr, ModelSpec(tuple(tuple(t) for t in terms))


@SETTINGS
@given(ipf_problems(), st.sampled_from([1, 4, 1000]))
def test_ipf_engine_matches_reference_bitwise(problem, max_iter):
    arr, spec = problem
    t = SparseTable.from_dense(arr)
    obs = t.todense()
    want, want_iterations, want_converged = reference_ipf(obs, t.total, spec.generators,
                                                          IPF_TOL, max_iter)
    fitted, iterations, converged, residual = _ipf(obs, t.total, spec, IPF_TOL, max_iter, {})
    assert fitted.shape == want.shape and np.array_equal(fitted, want)
    assert (iterations, converged) == (want_iterations, want_converged)
    assert (residual <= IPF_TOL) == converged
    # marginals shared with an earlier fit of another model change nothing
    targets: dict = {}
    _ipf(obs, t.total, ModelSpec.main_effects(t.ndim), IPF_TOL, max_iter, targets)
    _ipf(obs, t.total, ModelSpec.saturated(t.ndim), IPF_TOL, max_iter, targets)
    shared, *rest = _ipf(obs, t.total, spec, IPF_TOL, max_iter, targets)
    assert np.array_equal(shared, want) and tuple(rest) == (iterations, converged, residual)
    fit = ipf_fit(t, spec, max_iter=max_iter)
    assert np.array_equal(fit.fitted.todense(), want)
    assert (fit.iterations, fit.converged, fit.max_residual) == (iterations, converged, residual)


@st.composite
def partition_model_problems(draw):
    """An :func:`ipf_problems` table, scaled so its counts need not be
    integers, with a random partition and a saturated, main-effects or
    random model."""
    arr, spec = draw(ipf_problems())
    arr = arr * draw(st.sampled_from([1.0, 0.37, 2.5e6]))
    keys = tuple(tuple(draw(st.lists(st.integers(0, s - 1), min_size=s, max_size=s)))
                 for s in arr.shape)
    spec = draw(st.sampled_from([spec, ModelSpec.saturated(arr.ndim),
                                 ModelSpec.main_effects(arr.ndim)]))
    return arr, Partition(keys), spec


@SETTINGS
@given(partition_model_problems())
def test_fit_hllpm_matches_dense_expansion_oracle(problem):
    arr, part, spec = problem
    fit = fit_hllpm(SparseTable.from_dense(arr), part, spec)
    collapsed = dense_collapse(arr, part.keys)
    fitted, iterations, converged = reference_ipf(collapsed, collapsed.sum(), spec.generators)
    probs = dense_expand_probs(arr, part.keys, fitted / arr.sum())
    # the oracle is not clamped at zero; rounding scales with the total
    want = max(dense_deviance(arr, probs), 0.0)
    assert fit.dev == pytest.approx(want, rel=1e-9, abs=1e-12 * arr.sum())
    assert (fit.iterations, fit.converged) == (iterations, converged)
    assert fit.shape == arr.shape and fit.fitted.shape == collapsed.shape
    assert fit.dfmod == model_df(spec, collapsed.shape)
    assert fit.dfres == arr.size - 1 - fit.dfmod
    # the HLLPM is the collapsed table's own fit, rescored against the original
    lone = ipf_fit(apply_partition(SparseTable.from_dense(arr), part), spec)
    assert ((fit.spec, fit.fitted.coords.tobytes(), fit.fitted.counts.tobytes(), fit.dfmod,
             fit.iterations, fit.converged, fit.max_residual)
            == (lone.spec, lone.fitted.coords.tobytes(), lone.fitted.counts.tobytes(), lone.dfmod,
                lone.iterations, lone.converged, lone.max_residual))


def dense_gather_deviance(t, part, probs):
    """The expanded deviance as a dense gather reads it: ``probs`` is the
    dense collapsed probability table, indexed at each observed cell's
    group."""
    e = probs[tuple(np.asarray(key, dtype=np.intp)[t.coords[:, k]]
                    for k, key in enumerate(part.keys))]
    for k, w in enumerate(group_weights(part, t.one_way_marginals())):
        e = e * w[t.coords[:, k]]
    return _deviance(t, e * t.total)


@SETTINGS
@given(partition_model_problems())
def test_sparse_group_gather_matches_dense_bitwise(problem):
    arr, part, spec = problem
    t = SparseTable.from_dense(arr)
    collapsed = apply_partition(t, part)
    want = dense_gather_deviance(t, part, collapsed.todense() / t.total)
    assert partition_deviance(t, part).hex() == want.hex()
    fitted, _, _, _ = _ipf(collapsed.todense(), collapsed.total, spec, IPF_TOL, IPF_MAX_ITER, {})
    want = dense_gather_deviance(t, part, fitted / t.total)
    assert fit_hllpm(t, part, spec).dev.hex() == want.hex()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), max_size=4), max_size=8))
def test_canonical_terms_keep_the_maximal_subsets(terms):
    cleaned = {tuple(sorted(set(t))) for t in terms} - {()}
    want = tuple(sorted(t for t in cleaned
                        if not any(set(t) < set(other) for other in cleaned)))
    assert hllm._canonical_terms(terms) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=8),
       st.data())
def test_remove_matches_the_canonical_spec(terms, data):
    spec = ModelSpec(tuple(tuple(t) for t in terms))
    term = data.draw(st.sampled_from(spec.generators))
    rest = tuple(g for g in spec.generators if g != term)
    # a one-variable term has only the empty subset, which names no term
    want = ModelSpec(rest + tuple(combinations(term, len(term) - 1)))
    got = spec.remove(term[::-1])
    assert got == want and repr(got) == repr(want)
    assert all(type(k) is int for g in got.generators for k in g)


def reference_backward_walk(t, start, max_iter):
    """Backward elimination as documented, every fit by ``reference_ipf``:
    rows of (generators, dev, dev_term, df_term, converged)."""
    obs = t.todense()

    def score(spec):
        fitted, _, converged = reference_ipf(obs, t.total, spec.generators, IPF_TOL, max_iter)
        e = fitted[tuple(t.coords.T)]
        if np.any(e <= 0):
            raise DegeneracyError("fitted value is zero on an observed cell")
        return max(2.0 * float(np.dot(t.counts, np.log(t.counts / e))), 0.0), converged

    spec = start
    dev, converged = score(spec)
    rows = [(spec.generators, dev, 0.0, 0, converged)]
    while True:
        best = None
        for term in [g for g in spec.generators if len(g) >= 2]:
            cand = spec.remove(term)
            dev, converged = score(cand)
            ddev = dev - rows[-1][1]
            ddf = math.prod(t.shape[k] - 1 for k in term)
            q = 0.0 if ddf == 0 else ddev / ddf
            if best is None or (q < best[0] and
                                abs(q - best[0]) > 1e-12 * max(1.0, abs(q), abs(best[0]))):
                best = (q, cand, dev, ddev, ddf, converged)
        if best is None:
            return rows
        _, spec, dev, ddev, ddf, converged = best
        rows.append((spec.generators, dev, ddev, ddf, converged))


@settings(max_examples=40, deadline=None)
@given(ipf_problems(min_dims=2), st.booleans(), st.sampled_from([3, 1000]))
def test_backward_select_matches_reference_walk(problem, saturated, max_iter):
    arr, spec = problem
    t = SparseTable.from_dense(arr)
    start = ModelSpec.saturated(t.ndim) if saturated else spec
    trace = backward_select(t, start, max_iter=max_iter)
    got = [(s.spec.generators, s.dev, s.dev_term, s.df_term, s.converged) for s in trace.steps]
    assert got == reference_backward_walk(t, start, max_iter)
    cells = math.prod(t.shape)
    last = trace.steps[-1]
    for s in trace.steps:
        assert s.dfmod == model_df(s.spec, t.shape) and s.dfres == cells - 1 - s.dfmod
        assert s.adj_rsq == adjusted_rsq(s.dev, s.dfres, last.dev, last.dfres)


@settings(max_examples=40, deadline=None)
@given(st.one_of(ipf_problems(min_dims=2),
                 # every cell, and so every generator marginal, positive
                 ipf_problems(min_dims=2).map(lambda p: (p[0] + 0.37, p[1]))),
       st.booleans(), st.sampled_from([3, 1000]))
def test_backward_select_candidate_fits_match_reference_bitwise(problem, saturated, max_iter):
    """Every fit a backward walk makes, the starting model's included, is
    its lone ``reference_ipf`` fit: cells, cycles, flag and residual."""
    arr, spec = problem
    t = SparseTable.from_dense(arr)
    obs = t.todense()
    fits = []
    batch = _ipf_batch

    def recording(obs, n, specs, *args):
        for s, fit in zip(specs, batch(obs, n, specs, *args)):
            fits.append((s, fit))
            yield fit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hllm, "_ipf_batch", recording)
        backward_select(t, ModelSpec.saturated(t.ndim) if saturated else spec, max_iter=max_iter)
    assert fits
    for s, (fitted, cycles, converged, residual) in fits:
        want, want_cycles, want_converged, want_residual = reference_ipf(
            obs, t.total, s.generators, IPF_TOL, max_iter, with_residual=True)
        assert fitted.shape == want.shape and fitted.tobytes() == want.tobytes()
        assert (cycles, converged, float(residual).hex()) == (
            want_cycles, want_converged, want_residual.hex())


@pytest.mark.parametrize("name", ["wermuth_table", "christensen_table"])
def test_backward_select_matches_reference_walk_on_bundled_data(name, request):
    t = request.getfixturevalue(name)
    trace = backward_select(t)
    got = [(s.spec.generators, s.dev, s.dev_term, s.df_term, s.converged) for s in trace.steps]
    assert got == reference_backward_walk(t, ModelSpec.saturated(t.ndim), 1000)


def model_specs(ndim):
    """Random hierarchical models on ``ndim`` variables, drawn as
    :func:`ipf_problems` draws its one, and the empty model."""
    terms = st.lists(st.sets(st.integers(0, ndim - 1), min_size=1, max_size=max(1, ndim - 1)),
                     max_size=4)
    return st.one_of(st.just(ModelSpec(())),
                     terms.map(lambda ts: ModelSpec(tuple(tuple(t) for t in ts))))


@st.composite
def ipf_batches(draw, max_dims=4, max_side=3):
    """A table from :func:`ipf_problems`, its counts possibly scaled to
    non-integers or to millions, with a batch of 1 to 8 models."""
    arr, spec = draw(ipf_problems(max_dims=max_dims, max_side=max_side))
    arr = arr * draw(st.sampled_from([1.0, 0.37, 1e6]))
    return arr, [spec, *draw(st.lists(model_specs(arr.ndim), max_size=7))]


def check_batch_against_reference(arr, batch, max_iter):
    """Every member of the batched fit equals its lone ``reference_ipf``
    fit bitwise; so does the batch with shared targets and in chunks."""
    t = SparseTable.from_dense(arr)
    obs = t.todense()
    got = list(_ipf_batch(obs, t.total, batch, IPF_TOL, max_iter, {}))
    assert len(got) == len(batch)
    for spec, (fitted, *rest) in zip(batch, got):
        want, *want_rest = reference_ipf(obs, t.total, spec.generators, IPF_TOL, max_iter,
                                         with_residual=True)
        assert fitted.shape == want.shape and np.array_equal(fitted, want)
        assert tuple(rest) == tuple(want_rest)

    def same(other):
        assert len(other) == len(got)
        for (a, *a_rest), (b, *b_rest) in zip(other, got):
            assert np.array_equal(a, b) and a_rest == b_rest

    targets: dict = {}
    list(_ipf_batch(obs, t.total, [ModelSpec.main_effects(t.ndim), ModelSpec.saturated(t.ndim)],
                    IPF_TOL, max_iter, targets))
    same(list(_ipf_batch(obs, t.total, batch, IPF_TOL, max_iter, targets)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hllm, "_BATCH_CELLS", 2)  # chunks of one fit
        same(list(_ipf_batch(obs, t.total, batch, IPF_TOL, max_iter, {})))
        mp.setattr(hllm, "_BATCH_CELLS", 3 * obs.size)  # chunks of three
        same(list(_ipf_batch(obs, t.total, batch, IPF_TOL, max_iter, {})))


@SETTINGS
@given(ipf_batches(), st.sampled_from([1, 4, 1000]))
def test_batched_ipf_matches_reference_bitwise(problem, max_iter):
    check_batch_against_reference(*problem, max_iter)


@settings(max_examples=25, deadline=None)
@given(ipf_batches(max_dims=3, max_side=10), st.sampled_from([1, 4, 1000]))
def test_batched_ipf_matches_reference_bitwise_on_wide_axes(problem, max_iter):
    # runs of 8 or more cells reduce through numpy's pairwise blocks
    check_batch_against_reference(*problem, max_iter)


@pytest.mark.parametrize("shape", [(2, 12, 12), (3, 2, 100)])
@pytest.mark.parametrize("max_iter", [4, 1000])
def test_batched_ipf_matches_reference_bitwise_past_pairwise_blocks(shape, max_iter):
    # the trailing reduced run of [0] (144 and 200 cells) passes 128, where
    # numpy's pairwise sum recurses; the members of [0] and of [01] are two
    # runs of rows each, so those are reduced one run at a time
    rng = np.random.default_rng(11)
    arr = rng.uniform(0.01, 50.0, shape) * (rng.random(shape) > 0.3)
    batch = [ModelSpec(((0,),)), ModelSpec(((0, 1), (0, 2))), ModelSpec.main_effects(3),
             ModelSpec(((0,), (1, 2))), ModelSpec(((0, 1), (1, 2)))]
    check_batch_against_reference(arr, batch, max_iter)


def stack_of_fits(seed, fits, shape):
    """``fits`` tables of ``shape`` stacked, their cells spread from 1e-8
    to 1e8 on a log scale, a fifth of them zero."""
    rng = np.random.default_rng(seed)
    stack = 10.0 ** rng.uniform(-8.0, 8.0, (fits,) + shape)
    stack[rng.random(stack.shape) < 0.2] = 0.0
    return stack


def check_marginals_bitwise(stack):
    """For every subset of the axes kept whose trailing reduced run is
    under 8 cells, the marginals read through ``_layout`` and
    ``_marginal`` are bitwise those of ``np.add.reduce(...,
    keepdims=True)``, for all the fits, for the last alone and for a
    gathered pair.  (Longer runs are reduced by ``np.add.reduce`` itself.)"""
    shape, size = stack.shape[1:], math.prod(stack.shape[1:])
    flat = stack.reshape(-1)
    members = [list(range(len(stack))), [len(stack) - 1]]
    if len(stack) > 2:
        members.append([0, 2])
    for kept in range(len(shape) + 1):
        for g in combinations(range(len(shape)), kept):
            cells = hllm._layout(shape, g)
            if cells is None:
                continue
            axes = tuple(k + 1 for k in range(len(shape)) if k not in g)
            for rows in members:
                want = np.add.reduce(stack[rows], axis=axes, keepdims=True)
                offsets = np.array(rows, dtype=np.int32) * np.int32(size)
                got = hllm._marginal(flat, cells + offsets.reshape((-1,) + (1,) * len(shape)),
                                     len(shape))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (
                    f"numpy sums the marginal over {g} of {shape} in another order "
                    "than hllm._ipf_chunk assumes")


@st.composite
def small_shapes(draw, max_cells=3000):
    """One to five axes of 1 to 12 cells each, at most ``max_cells`` in all."""
    shape: list[int] = []
    for _ in range(draw(st.integers(1, 5))):
        shape.append(draw(st.integers(1, max(1, min(12, max_cells // math.prod(shape))))))
    return tuple(shape)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), small_shapes())
def test_marginal_matches_add_reduce_bitwise(seed, fits, shape):
    check_marginals_bitwise(stack_of_fits(seed, fits, shape))


@pytest.mark.parametrize("shape", [(3,) * 6, (2, 12, 12), (1, 9, 1, 7), (7, 1, 3, 1, 2),
                                   (40, 2, 3), (1,), (1, 1, 1), (6,)])
@pytest.mark.parametrize("fits", [1, 3])
def test_marginal_matches_add_reduce_bitwise_on_fixed_shapes(shape, fits):
    # runs of one and of two to seven cells, size-1 axes inside and around
    # them, many run positions, and a lone fit
    check_marginals_bitwise(stack_of_fits(5, fits, shape))


@st.composite
def scaled_tie_heavy_tables(draw, max_side=5):
    """A tie-heavy table of up to four axes with integer, per-cell
    non-integer, x0.37 or x1e6 counts."""
    arr = draw(tie_heavy_tables(max_dims=4, max_side=max_side))
    counts = draw(st.sampled_from(["integer", "per-cell", "scalar", "scaled"]))
    if counts == "per-cell":
        arr = arr * draw(arrays(np.float64, arr.shape, elements=st.floats(0.01, 3.0)))
    elif counts == "scalar":
        arr = arr * 0.37  # keeps the exact ties of repeated slices
    elif counts == "scaled":
        arr = arr * 1e6
    assume(arr.sum() > 0)
    return arr


@st.composite
def collapse_problems(draw):
    """A scaled tie-heavy table, random treatments and maybe a stop
    quotient."""
    arr = draw(scaled_tie_heavy_tables())
    treatments = [draw(st.sampled_from(["nominal", "ordinal", "fixed"])) for _ in arr.shape]
    stop = draw(st.one_of(st.none(), st.floats(0.0, 20.0)))
    return arr, treatments, stop


@SETTINGS
@given(collapse_problems())
def test_run_pcc_matches_stateless_walk(problem):
    arr, treatments, stop = problem
    t = SparseTable.from_dense(arr)
    trace = run_pcc(t, treatments, stop_quotient=stop)
    assert (trace.steps, trace.partitions) == reference_pcc_walk(t, treatments, stop)


def shuffled(t, seed):
    """``t`` with its cells in a random order, which the constructor would
    sort: the collapse must not depend on the order it is handed."""
    order = np.random.default_rng(seed).permutation(t.nnz)
    out = object.__new__(SparseTable)
    for name, value in (("shape", t.shape), ("coords", t.coords[order]), ("flat", t.flat[order]),
                        ("counts", t.counts[order]), ("total", t.total)):
        object.__setattr__(out, name, value)
    return out


def _one_column_of_three():
    arr = np.zeros((3, 4, 4, 4))
    arr[:, 0, 0, 0] = 1.0
    return arr


@SETTINGS
@given(collapse_problems(), st.integers(0, 2**32 - 1))
# sparse enough for the key-only front end on axis 0, whose count lookup
# searched table.flat as if it were sorted
@example((_one_column_of_three(), ["nominal"] * 4, None), 0)
def test_run_pcc_ignores_cell_order(problem, seed):
    arr, treatments, stop = problem
    t = SparseTable.from_dense(arr)
    trace = run_pcc(shuffled(t, seed), treatments, stop_quotient=stop)
    assert (trace.steps, trace.partitions) == reference_pcc_walk(t, treatments, stop)


@pytest.mark.parametrize("name", ["wermuth_table", "christensen_table"])
@pytest.mark.parametrize("treatment", ["nominal", "ordinal", "fixed-first"])
def test_run_pcc_matches_stateless_walk_on_bundled_data(name, treatment, request):
    t = request.getfixturevalue(name)
    treatments = (["fixed"] + ["nominal"] * (t.ndim - 1) if treatment == "fixed-first"
                  else [treatment] * t.ndim)
    trace = run_pcc(t, treatments)
    assert (trace.steps, trace.partitions) == reference_pcc_walk(t, treatments)


@SETTINGS
@given(scaled_tie_heavy_tables(max_side=6), st.booleans())
def test_pair_evaluator_equals_full_axis_bitwise(arr, adjacent):
    t = SparseTable.from_dense(arr)
    for dim, r in enumerate(t.shape):
        full, _ = loss_grid(t, dim, adjacent)
        # rows are the categories of dim, columns the other cells in flat order
        rows = np.moveaxis(arr, dim, 0).reshape(r, -1)
        for u, v in combinations(range(r), 2):
            if adjacent and v != u + 1:
                continue
            both = (rows[u] > 0) & (rows[v] > 0)
            between = np.count_nonzero(rows[u + 1:v, both], axis=0)
            got = _one_pair_g2(rows[u][rows[u] > 0], rows[v][rows[v] > 0],
                               rows[u, both], rows[v, both], between)
            assert got.hex() == full[u, v].hex()


@SETTINGS
@given(scaled_tie_heavy_tables(max_side=6), st.data())
def test_pair_loss_equals_loss_matrix_entry(arr, data):
    t = SparseTable.from_dense(arr)
    dim = data.draw(st.integers(0, t.ndim - 1))
    r = t.shape[dim]
    assume(r >= 2)
    u, v = data.draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
    got = pair_loss(t, dim, u, v)
    want = loss_matrix(t, dim).get(u, v)
    assert got == want
    assert got.g2.hex() == want.g2.hex()


def wide_table(seed, shape):
    """Non-integer counts with a third of the cells empty: columns hold
    up to a dozen categories, so a pair's terms spread over many passes."""
    rng = np.random.default_rng(seed)
    arr = rng.uniform(0.01, 50.0, shape) * (rng.random(shape) > 0.3)
    return SparseTable.from_dense(arr)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("shape", [(12, 30), (8, 5, 6)])
def test_pair_loss_equals_loss_matrix_on_wide_tables(seed, shape):
    t = wide_table(seed, shape)
    for dim, r in enumerate(shape):
        matrix = loss_matrix(t, dim)
        for u, v in combinations(range(r), 2):
            assert pair_loss(t, dim, u, v).g2.hex() == matrix.get(u, v).g2.hex()


@SETTINGS
@given(collapse_problems())
def test_rescoring_every_candidate_matches_stateless_walk(problem):
    """With every carried quotient NaN every candidate is rescored from its
    own cells at every step, so the pair evaluator alone decides."""
    arr, treatments, stop = problem
    t = SparseTable.from_dense(arr)

    def unknown(rows_u, rows_v, shared):
        return np.full(shared.shape, np.nan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collapse, "_pair_g2", unknown)
        trace = run_pcc(t, treatments, stop_quotient=stop)
    assert (trace.steps, trace.partitions) == reference_pcc_walk(t, treatments, stop)


@pytest.mark.parametrize("shape", [(12, 30), (8, 5, 6)])
def test_rescoring_every_candidate_on_wide_tables(shape, monkeypatch):
    t = wide_table(3, shape)
    monkeypatch.setattr(collapse, "_pair_g2",
                        lambda rows_u, rows_v, shared: np.full(shared.shape, np.nan))
    trace = run_pcc(t)
    assert (trace.steps, trace.partitions) == reference_pcc_walk(t, None)


@SETTINGS
@given(collapse_problems(), st.integers(0, 2**32 - 1))
def test_carried_drift_inside_window_changes_nothing(problem, seed):
    """Carried sums perturbed by up to 2e-10 n move each carried quotient by
    less than half the window, so the exact rescore, not the carried value,
    still decides every merge and every loss."""
    arr, treatments, stop = problem
    t = SparseTable.from_dense(arr)
    rng = np.random.default_rng(seed)
    exact = collapse._pair_g2

    def drifted(rows_u, rows_v, shared):
        noise = rng.uniform(-1.0, 1.0, shared.shape) * 2e-10 * t.total
        return exact(rows_u, rows_v, shared + noise)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collapse, "_pair_g2", drifted)
        trace = run_pcc(t, treatments, stop_quotient=stop)
    assert (trace.steps, trace.partitions) == reference_pcc_walk(t, treatments, stop)


def assert_carried_sums_fresh(t, treatments):
    """Collapse ``t`` fully and, after every merge, compare each eligible
    axis's carried row totals and shared-column sums with fresh ones over
    the live cells, the sums from a kernel pass: they must agree within
    1e-12 n.  Each current category's run of the index must also hold
    exactly the live cells named by it, in strictly increasing column key,
    with the keys their coordinates give."""
    state = collapse._Collapse(t, normalize_treatments(t.ndim, treatments))
    while state.select() is not None:
        state.merge()
        live = np.flatnonzero(state.alive[:state.size])
        coords = np.unravel_index(state.flat[live], t.shape)
        for dim, _ in state.eligible:
            slot = state.slot[dim]
            names, keys = state._split(dim, state.flat[live])
            # the split gives each cell's name and the flat index of its other
            # coordinates over the original shape
            others = [k for k in range(t.ndim) if k != dim]
            assert np.array_equal(names, coords[dim])
            assert np.array_equal(keys, np.ravel_multi_index(
                tuple(coords[k] for k in others), tuple(t.shape[k] for k in others)))
            cats = state.cur[dim][names]
            rows = np.bincount(cats, weights=state.vals[live], minlength=state.shape[dim])
            shared = _axis_sums(*_paired_cells(cats, keys, state.shape[dim], state.vals[live]),
                                state.shape[dim], state.adjacent[dim])
            carried_rows, carried_shared = state.sums[dim]
            assert np.abs(carried_rows - rows).max() <= 1e-12 * t.total
            assert np.abs(carried_shared - (shared + shared.T)).max() <= 1e-12 * t.total
            for c in range(state.shape[dim]):
                cells, run_keys = state._cells_of(slot, c)
                named = live[coords[dim] == state.rep[dim][c]]
                assert np.array_equal(np.sort(cells), named)
                assert np.all(np.diff(run_keys) > 0)
                assert np.array_equal(run_keys, keys[np.searchsorted(live, cells)])


@SETTINGS
@given(collapse_problems())
def test_carried_sums_match_fresh_kernel_after_every_merge(problem):
    arr, treatments, _ = problem
    assert_carried_sums_fresh(SparseTable.from_dense(arr), treatments)


def sparse4_table(seed):
    """15,000 of the 60,000 cells of the shape (20, 20, 15, 10), drawn with
    skewed category frequencies, with counts 1 to 8."""
    rng = np.random.default_rng(seed)
    shape = (20, 20, 15, 10)
    probs = reduce(np.multiply.outer, [rng.dirichlet(np.full(s, 0.7)) for s in shape]).ravel()
    flat = np.sort(rng.choice(probs.size, 15_000, replace=False, p=probs))
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    return SparseTable(shape, coords, rng.integers(1, 9, flat.size).astype(float))


@pytest.mark.parametrize("treatments", [None, ["nominal", "ordinal", "fixed", "ordinal"]],
                         ids=["nominal", "mixed"])
def test_carried_sums_match_fresh_kernel_on_a_long_collapse(treatments):
    assert_carried_sums_fresh(sparse4_table(5), treatments)


def table_cols(t, dim):
    """Each cell's column on axis ``dim`` of the table ``t``."""
    return _other_cols(t.flat, t.coords[:, dim], t.shape, dim)


@SETTINGS
@given(scaled_tie_heavy_tables(), st.booleans(), st.data())
def test_merge_deltas_is_the_merge_change(arr, adjacent, data):
    """With parts ``(x, y)`` the delta kernel gives ``S(x + y) - S(x) -
    S(y)``, each ``S`` a plain pass over that vector's positive cells,
    within 1e-12 of the magnitudes of the ``t ln t`` terms that enter each
    entry; x or y is 0 in some cells."""
    # per cell: x only, y only, or both
    split = data.draw(arrays(np.int8, arr.shape, elements=st.integers(0, 2)))
    x = np.where(split == 1, 0.0, arr)
    y = np.where(split == 0, 0.0, np.where(split == 2, 0.37, 1.0) * arr)
    m = x + y
    coords = np.argwhere(m > 0)
    flat = tuple(coords.T)
    merged = SparseTable(arr.shape, coords, m[flat])

    def plain(vals):
        pos = vals[flat] > 0
        return _axis_sums(*_paired_cells(coords[pos, dim], cols[pos], r, vals[flat][pos]), r,
                          adjacent)

    for dim, r in enumerate(arr.shape):
        cols = table_cols(merged, dim)
        got = _merge_deltas(coords[:, dim], cols, x[flat], y[flat], r, adjacent)
        want = plain(m) - plain(x) - plain(y)
        # a merge that only renames columns changes nothing, exactly
        none = _merge_deltas(coords[:, dim], cols, m[flat], np.zeros(len(coords)), r, adjacent)
        assert not none.any()
        rows = [np.moveaxis(v, dim, 0).reshape(r, -1) for v in (m, x, y)]
        for u in range(r):
            for v in range(r):
                if v <= u or (adjacent and v != u + 1):
                    assert got[u, v] == 0.0
                    continue
                both = (rows[0][u] > 0) & (rows[0][v] > 0)
                terms = [_xlogx(t) for a in rows for t in (a[u, both], a[v, both],
                                                             a[u, both] + a[v, both])]
                scale = sum(np.abs(t).sum() for t in terms)
                assert abs(got[u, v] - want[u, v]) <= 1e-12 * scale


@st.composite
def kernel_cases(draw):
    """A table, one of its axes and each cell's split into two parts, one
    of which may be 0.  Size-1 axes occur; counts are sums that depend on
    the order they are added in; and in half of the tables every column of
    the axis holds one cell, so no cell pairs."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    dim = draw(st.integers(0, len(shape) - 1))
    arr = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 7.0])))
    if draw(st.booleans()):
        # keep the first cell of each column of dim
        rows = np.moveaxis(arr, dim, 0)
        arr = np.moveaxis(np.where(np.cumsum(rows > 0, axis=0) == 1, rows, 0.0), 0, dim)
    split = draw(arrays(np.int8, shape, elements=st.integers(0, 2)))
    p = np.where(split == 0, 0.0, np.where(split == 2, 0.37 * arr, arr))
    q = arr - p
    t = SparseTable.from_dense(p + q)
    assume(t.nnz > 0)
    cells = tuple(t.coords.T)
    return t, dim, p[cells], q[cells]


def pair_term_scale(cats, cols, r, adjacent, *vals):
    """Per entry ``[u, v]``, the summed magnitudes of the ``t ln t`` terms
    that the pairs of ``u`` and ``v`` in one column add to it, of each of
    ``vals``: the scale a change of summation order moves the entry by."""
    scale = np.zeros((r, r))
    for col in np.unique(cols):
        at = np.flatnonzero(cols == col)
        for i, j in combinations(at[np.argsort(cats[at])], 2):
            if adjacent and cats[j] != cats[i] + 1:
                continue
            for v in vals:
                scale[cats[i], cats[j]] += np.abs(_xlogx(np.array([v[i], v[j], v[i] + v[j]]))).sum()
    return scale


@SETTINGS
@given(kernel_cases(), st.booleans(), st.integers(0, 2**32 - 1))
def test_merge_deltas_matches_reference_kernel(case, adjacent, seed):
    """The delta kernel, which pairs a column's cells all at once, gives the
    offset-pass reference's merge change within 1e-12 of each entry's term
    magnitudes, with the cells in any order, and exactly 0 where no pair of
    cells enters."""
    t, dim, p, q = case
    order = np.random.default_rng(seed).permutation(t.nnz)
    cats, cols = t.coords[order, dim], table_cols(t, dim)[order]
    p, q, r = p[order], q[order], t.shape[dim]
    _, want = reference_axis_sums(cats, cols, p + q, r, adjacent, (p, q))
    got = _merge_deltas(cats, cols, p, q, r, adjacent)
    scale = pair_term_scale(cats, cols, r, adjacent, p + q, p, q)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@SETTINGS
@given(kernel_cases(), st.booleans())
def test_merge_deltas_in_blocks_of_a_few_pairs(case, adjacent):
    """Split into bincounts of three pairs, the delta kernel agrees with one
    bincount over every pair within 1e-12 of the term magnitudes."""
    t, dim, p, q = case
    cells = (t.coords[:, dim], table_cols(t, dim), p, q, t.shape[dim], adjacent)
    whole = _merge_deltas(*cells)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infoloss, "_PAIR_BLOCK", 3)
        blocked = _merge_deltas(*cells)
    scale = pair_term_scale(*cells[:2], t.shape[dim], adjacent, p + q, p, q)
    assert np.all(np.abs(blocked - whole) <= 1e-12 * scale)


@pytest.mark.parametrize("treatments", [None, ["ordinal", "nominal", "ordinal"]],
                         ids=["nominal", "mixed"])
def test_collapse_with_small_pair_blocks_keeps_the_trace(treatments):
    """A collapse whose delta passes run in blocks of 64 pairs, on a table
    whose first axis puts up to 60 cells in a column, writes the same trace
    bit for bit."""
    t = SparseTable.from_dense(np.random.default_rng(0).poisson(1.0, (60, 6, 4)))

    def rows(trace):
        return [(s.d, s.key, s.shape, float(s.dev).hex(), float(s.dev_term).hex())
                for s in trace.steps]

    want = rows(run_pcc(t, treatments))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infoloss, "_PAIR_BLOCK", 64)
        assert rows(run_pcc(t, treatments)) == want


@SETTINGS
@given(kernel_cases(), st.booleans(), st.integers(0, 2**32 - 1))
def test_axis_sums_equals_reference_kernel_bitwise(case, adjacent, seed):
    """The kernel that pairs only the cells sharing a column gives the
    reference kernel's shared sums bit for bit, with the cells handed in any
    order, and the table's one-way marginal gives its row totals."""
    t, dim, _, _ = case
    order = np.random.default_rng(seed).permutation(t.nnz)
    cats, cols, vals = t.coords[order, dim], table_cols(t, dim)[order], t.counts[order]
    r = t.shape[dim]
    rows, shared = reference_axis_sums(cats, cols, vals, r, adjacent)
    got = _axis_sums(*_paired_cells(cats, cols, r, vals), r, adjacent)
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in shared.ravel().tolist()]
    assert ([x.hex() for x in t.one_way_marginals()[dim].tolist()]
            == [x.hex() for x in rows.tolist()])


@st.composite
def front_end_cases(draw):
    """A table, one of its axes and a treatment: sides of 1 to 6, with 0 to
    2 cells or a twentieth, a quarter or all of the cells filled, and in a
    third of the tables only the first cell of each column of the axis
    kept, so that no two cells share a column."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    dim = draw(st.integers(0, len(shape) - 1))
    treatment = draw(st.sampled_from(["nominal", "ordinal"]))
    size = math.prod(shape)
    nnz = min(draw(st.one_of(st.integers(0, 2), st.sampled_from([size // 20, size // 4, size]))),
              size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = np.sort(rng.choice(size, nnz, replace=False))
    t = SparseTable(shape, np.stack(np.unravel_index(flat, shape), axis=1),
                    rng.choice([0.1, 0.3, 1.0, 2.5, 7.0], nnz))
    if draw(st.integers(0, 2)) == 0:
        first = np.unique(table_cols(t, dim), return_index=True)[1]
        t = SparseTable(shape, t.coords[first], t.counts[first])
    return t, dim, treatment


def assert_front_ends_agree(t, dim, treatment):
    """The two front ends of a fresh loss pass give the same cells bit for
    bit, and ``loss_matrix`` through either gives the losses of the
    reference kernel's sums bit for bit."""
    r, cols = t.shape[dim], table_cols(t, dim)
    packed = _paired_cells(t.coords[:, dim], cols, r, t.counts)
    keyed = _key_cells(t, dim)
    assert [(a.dtype, a.tobytes()) for a in keyed] == [(a.dtype, a.tobytes()) for a in packed]
    adjacent = treatment == "ordinal"
    rows, shared = reference_axis_sums(t.coords[:, dim], cols, t.counts, r, adjacent)
    us, vs = infoloss._candidate_pairs(r, adjacent)
    want = [x.hex() for x in infoloss._pair_g2(rows[us], rows[vs], shared[us, vs]).tolist()]
    # a bound of 0 always takes the packed sort, and infinity always the key sort
    for per_column in (0.0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(infoloss, "_KEY_CELLS_PER_COLUMN", per_column)
            got = loss_matrix(t, dim, treatment).losses
        assert [x.hex() for x in got.tolist()] == want


@SETTINGS
@given(front_end_cases())
def test_front_ends_of_a_loss_pass_agree_bitwise(case):
    assert_front_ends_agree(*case)


def lone_cell_table():
    """Four cells on the diagonal of (4, 5, 6): no two share a column on
    any axis."""
    c = np.arange(4)
    return SparseTable((4, 5, 6), np.stack([c, c, c], axis=1), [1.0, 2.5, 0.3, 7.0])


def huge_sparse_table():
    """About 1,200 cells of the (50,) * 6 shape, 1.6e10 cells, more than
    int32 keys number: 300 random cells, each copied four times with one
    random coordinate drawn afresh, so every axis has columns of several
    cells."""
    rng = np.random.default_rng(4)
    shape = (50,) * 6
    base = rng.integers(0, 50, (300, 6))
    coords = np.repeat(base, 4, axis=0)
    moved = rng.integers(0, 6, coords.shape[0])
    coords[np.arange(coords.shape[0]), moved] = rng.integers(0, 50, coords.shape[0])
    t = SparseTable(shape, coords, rng.choice([0.1, 0.3, 1.0, 2.5, 7.0], coords.shape[0]))
    assert math.prod(shape) > 2**31 and t.nnz > 1000
    return t


@pytest.mark.parametrize("treatment", ["nominal", "ordinal"])
@pytest.mark.parametrize("make", [lone_cell_table, huge_sparse_table], ids=["lone", "huge"])
def test_front_ends_agree_on_lone_cells_and_int64_keys(make, treatment):
    t = make()
    for dim in range(t.ndim):
        assert_front_ends_agree(t, dim, treatment)


@pytest.mark.parametrize("treatment", ["nominal", "ordinal"])
def test_run_pcc_matches_stateless_walk_with_int64_keys(treatment):
    """A collapse whose index keys pass int32, as those of a table of more
    than 2**31 cells do."""
    t = huge_sparse_table()
    treatments = [treatment] * t.ndim
    trace = run_pcc(t, treatments)
    assert (trace.steps, trace.partitions) == reference_pcc_walk(t, treatments)


@st.composite
def conditional_independence_tables(draw):
    """Integer 3-way tables in which a is independent of b given c: every
    c-slice is an outer product, so ``[ac][bc]`` fits exactly and its
    deviance is a rounding residue of either sign."""
    na, nb, nc = (draw(st.integers(2, 3)) for _ in range(3))
    slices = [np.outer(draw(arrays(np.int64, na, elements=st.integers(1, 6))),
                       draw(arrays(np.int64, nb, elements=st.integers(1, 6))))
              for _ in range(nc)]
    return np.stack(slices, axis=2).astype(float)


SIGNED_ZERO = re.compile(r"-0(\.0*)?")


@settings(max_examples=40, deadline=None)
@given(conditional_independence_tables())
def test_reports_print_no_signed_zero(arr):
    t = SparseTable.from_dense(arr)
    names = ("a", "b", "c")
    scheme = CategoryScheme(tuple(VariableDef(n, tuple(f"{n}{i}" for i in range(s)))
                                  for n, s in zip(names, arr.shape)))
    fit = ipf_fit(t, ModelSpec.from_brackets("[ac][bc]", names))
    reports = [render_backward_trace(backward_select(t), names),
               render_pcc_trace(run_pcc(t)),
               render_fit(fit, names),
               render_ratios(pearson_ratios(t, fit), scheme),
               render_curve([("hllm", backward_select(t).curve())])]
    for text in reports:
        for field in re.split(r"[\t\n,]", text):
            assert not SIGNED_ZERO.fullmatch(field), text


@settings(max_examples=300, deadline=None)
@given(st.floats(-0.02, 0.02) | st.sampled_from([-0.0, -6.7e-16, -0.0049, -0.005, -0.0051]),
       st.integers(0, 4))
def test_rendered_value_has_no_signed_zero(x, precision):
    text = report._dev(x, precision)
    assert not SIGNED_ZERO.fullmatch(text)
    assert float(text) == float(f"{x:.{precision}f}")
