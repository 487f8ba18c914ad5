import math
import tracemalloc

import numpy as np
import pytest

from pcctab import (
    FeasibilityError,
    InputError,
    SparseTable,
    adjusted_rsq,
    enumeration_size,
    exhaustive_partition_search,
    info_concentration,
    partition_deviance,
    penalized_scores,
    run_pcc,
    select_merge,
)
from pcctab import collapse
from pcctab.pcc import _beats

from oracles import (
    brute_force_best_pair,
    dense_expand_probs,
    dense_deviance,
    dense_mutual_independence_g2,
    random_table,
    reference_pcc_walk,
)

# published 5x5 schooling-by-age collapsing trace
# (r, d, key, shape, dev, dfmod, dfres, dev_term, df_term, adj_rsq)
WERMUTH_TRACE = [
    (0, None, None, (5, 5), 0.00, 24, 0, 0.00, 0, 1.000),
    (1, 1, (0, 1, 2, 3, 3), (5, 4), 0.84, 20, 4, 0.84, 4, 0.991),
    (2, 0, (0, 0, 1, 2, 3), (4, 4), 7.66, 17, 7, 6.82, 3, 0.951),
    (3, 0, (0, 0, 1, 2, 1), (3, 4), 20.39, 14, 10, 12.73, 3, 0.909),
    (4, 0, (0, 0, 1, 1, 1), (2, 4), 35.69, 11, 13, 15.30, 3, 0.877),
    (5, 1, (0, 1, 2, 2, 2), (2, 3), 52.89, 10, 14, 17.20, 1, 0.831),
    (6, 1, (0, 0, 1, 1, 1), (2, 2), 110.54, 9, 15, 57.65, 1, 0.670),
    (7, 0, (0, 0, 0, 0, 0), (1, 2), 357.15, 8, 16, 246.61, 1, 0.000),
    (8, 0, (0, 0, 0, 0, 0), (1, 2), 357.15, 8, 16, 0.00, 1, 0.000),
]

# published 2x2x3x6 abortion-opinion collapsing trace; the model-df column
# here follows the same convention as the 5x5 trace (residual df accumulates
# the step df column), which is how the published residual column reads
# (r, d, key, shape, dev, dfmod, dev_term, df_term, adj_rsq)
CHRISTENSEN_TRACE = [
    (0, None, None, (2, 2, 3, 6), 0.00, 71, 0.00, 0, 1.000),
    (1, 3, (0, 1, 2, 3, 4, 4), (2, 2, 3, 5), 2.19, 60, 2.19, 11, 0.898),
    (2, 3, (0, 1, 2, 2, 3, 3), (2, 2, 3, 4), 6.77, 49, 4.58, 11, 0.843),
    (3, 3, (0, 0, 1, 1, 2, 2), (2, 2, 3, 3), 13.98, 38, 7.21, 11, 0.784),
    (4, 1, (0, 0), (2, 1, 3, 3), 42.65, 21, 28.67, 17, 0.565),
    (5, 0, (0, 0), (1, 1, 3, 3), 65.87, 13, 23.21, 8, 0.420),
    (6, 3, (0, 0, 1, 1, 1, 1), (1, 1, 3, 2), 77.61, 11, 11.74, 2, 0.340),
    (7, 2, (0, 0, 1), (1, 1, 2, 2), 93.28, 10, 15.67, 1, 0.219),
    (8, 2, (0, 0, 0), (1, 1, 1, 2), 121.47, 9, 28.19, 1, 0.000),
    (9, 0, (0, 0), (1, 1, 1, 2), 121.47, 9, 0.00, 1, 0.000),
]


class TestSelectMerge:
    def test_wermuth_first_step(self, wermuth_table):
        cand = select_merge(wermuth_table)
        assert (cand.dim, cand.u, cand.v) == (1, 3, 4)
        assert cand.g2 == pytest.approx(0.84, abs=5e-3)
        assert cand.df == 4
        assert cand.quotient == pytest.approx(cand.g2 / 4)

    def test_christensen_first_step(self, christensen_table):
        cand = select_merge(christensen_table)
        assert (cand.dim, cand.u, cand.v) == (3, 4, 5)
        assert cand.g2 == pytest.approx(2.19, abs=5e-3)
        assert cand.df == 11

    def test_fully_collapsed_table_has_no_candidates(self, from_dense):
        t = from_dense(np.ones((1, 1, 1)) * 5)
        assert select_merge(t) is None

    def test_single_marginal_vector_has_no_candidates(self, from_dense):
        t = from_dense(np.array([[3.0, 4.0]]))
        assert select_merge(t) is None

    def test_fixed_variables_excluded(self, wermuth_table):
        cand = select_merge(wermuth_table, ("nominal", "fixed"))
        assert cand.dim == 0

    def test_ordinal_considers_only_adjacent(self, from_dense, rng):
        arr = random_table(rng, (5, 3))
        cand = select_merge(SparseTable.from_dense(arr), ("ordinal", "fixed"))
        assert cand.v == cand.u + 1

    def test_agrees_with_brute_force(self, rng):
        for _ in range(30):
            ndim = int(rng.integers(2, 4))
            shape = tuple(rng.integers(2, 5, size=ndim))
            arr = random_table(rng, shape)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            got = select_merge(t)
            want = brute_force_best_pair(arr)
            assert (got.dim, got.u, got.v) == want[:3]
            assert got.quotient == pytest.approx(want[5], rel=1e-9, abs=1e-12)

    def test_chained_near_ties_follow_scan_order(self, monkeypatch):
        # scan order y, x, m with y = m + 1.5 tol and x = m + 0.8 tol: x ties y
        # and is passed over, m does not tie y and wins; picking the first
        # pair within tol of the minimum would give x instead.  Every loss of a
        # table of ones is 0 to rounding, so all four pairs are read, the three
        # of axis 0 (df 1) and then the one of axis 1 (df 2)
        m = 5.0
        tol = 1e-12 * m
        losses = iter([m + 1.5 * tol, m + 0.8 * tol, m, 100.0])
        read = collapse._Collapse._read
        monkeypatch.setattr(collapse._Collapse, "_read",
                            lambda self, *pair: read(self, *pair)._replace(g2=next(losses)))
        state = collapse._Collapse(SparseTable.from_dense(np.ones((3, 2))), ("nominal",) * 2)
        cand = state.select()
        assert next(losses, None) is None
        assert (cand.dim, cand.u, cand.v, cand.df) == (0, 1, 2, 1)
        assert cand.g2 == m
        assert state.chosen.g2 == m

    @pytest.mark.parametrize("q,best,want", [
        (7.0, None, True),
        (1000.0, 1000.0, False),
        (1000.0 * (1 - 0.5e-12), 1000.0, False),
        (1000.0 * (1 - 2e-12), 1000.0, True),
        (1000.0 * (1 + 2e-12), 1000.0, False),
        # below 1 the tolerance is absolute 1e-12
        (0.5 - 0.5e-12, 0.5, False),
        (0.5 - 2e-12, 0.5, True),
    ])
    def test_tie_rule(self, q, best, want):
        assert _beats(q, best) is want

    def test_values_are_plain_floats(self, wermuth_table):
        cand = select_merge(wermuth_table)
        assert type(cand.g2) is float and type(cand.quotient) is float
        steps = run_pcc(wermuth_table).steps
        assert all(type(x) is float for s in steps for x in (s.dev, s.dev_term, s.adj_rsq))
        assert "np.float64" not in repr(cand) + repr(steps)


@pytest.fixture(scope="module")
def wermuth_trace(wermuth_table):
    return run_pcc(wermuth_table)


@pytest.fixture(scope="module")
def christensen_trace(christensen_table):
    return run_pcc(christensen_table)


class TestRunPccWermuth:
    @pytest.fixture()
    def trace(self, wermuth_trace):
        return wermuth_trace

    def test_row_count(self, trace):
        assert len(trace.steps) == 9

    @pytest.mark.parametrize("row", WERMUTH_TRACE, ids=lambda r: f"r{r[0]}")
    def test_rows(self, trace, row):
        r, d, key, shape, dev, dfmod, dfres, dev_term, df_term, adj = row
        s = trace.steps[r]
        assert s.d == d
        assert s.key == key
        assert s.shape == shape
        assert s.dfmod == dfmod
        assert s.dfres == dfres
        assert s.df_term == df_term
        assert s.dev == pytest.approx(dev, abs=5e-3)
        assert s.dev_term == pytest.approx(dev_term, abs=5e-3)
        assert s.adj_rsq == pytest.approx(adj, abs=5e-4)

    def test_terminal_row_flagged(self, trace):
        assert trace.steps[-1].terminal
        assert not any(s.terminal for s in trace.steps[:-1])

    def test_partition_at_row4(self, trace):
        part = trace.partition_at(4)
        assert part.keys == ((0, 0, 1, 1, 1), (0, 1, 2, 3, 3))


class TestRunPccChristensen:
    @pytest.fixture()
    def trace(self, christensen_trace):
        return christensen_trace

    def test_row_count(self, trace):
        assert len(trace.steps) == 10

    @pytest.mark.parametrize("row", CHRISTENSEN_TRACE, ids=lambda r: f"r{r[0]}")
    def test_rows(self, trace, row):
        r, d, key, shape, dev, dfmod, dev_term, df_term, adj = row
        s = trace.steps[r]
        assert s.d == d
        assert s.key == key
        assert s.shape == shape
        assert s.dfmod == dfmod
        assert s.df_term == df_term
        assert s.dev == pytest.approx(dev, abs=5e-3)
        assert s.dev_term == pytest.approx(dev_term, abs=5e-3)
        assert s.adj_rsq == pytest.approx(adj, abs=5e-4)

    def test_df_bookkeeping_sums(self, trace):
        for s in trace.steps:
            assert s.dfmod + s.dfres == 71
        real = [s for s in trace.steps if not s.terminal]
        for s in real:
            assert s.dfres == sum(x.df_term for x in real if x.r <= s.r)


class TestRunPccGeneral:
    def test_empty_table_rejected(self):
        with pytest.raises(InputError):
            run_pcc(SparseTable((3, 3)))

    def test_identical_rows_merge_first_with_zero_loss(self, from_dense):
        t = from_dense([[5, 10, 2], [5, 10, 2], [40, 3, 9], [1, 20, 8]])
        trace = run_pcc(t)
        first = trace.steps[1]
        assert (first.d, first.key[:2]) == (0, (0, 0))
        assert first.dev_term == pytest.approx(0.0, abs=1e-9)

    def test_additivity_and_expansion_identity(self, rng):
        for _ in range(8):
            ndim = int(rng.integers(2, 4))
            shape = tuple(rng.integers(2, 7 - ndim, size=ndim) + 1)
            arr = random_table(rng, shape, zero_frac=0.2)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            trace = run_pcc(t)
            for r, s in enumerate(trace.steps):
                assert s.dev == pytest.approx(
                    sum(x.dev_term for x in trace.steps[: r + 1]), rel=1e-9, abs=1e-9)
                probs = dense_expand_probs(arr, [list(k) for k in trace.partition_at(r).keys])
                assert s.dev == pytest.approx(dense_deviance(arr, probs), rel=1e-9, abs=1e-7)

    def test_final_dev_is_mutual_independence_g2(self, rng):
        for _ in range(10):
            ndim = int(rng.integers(2, 4))
            shape = tuple(rng.integers(2, 5, size=ndim))
            arr = random_table(rng, shape)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            trace = run_pcc(t)
            assert trace.final_dev == pytest.approx(
                dense_mutual_independence_g2(arr), rel=1e-6, abs=1e-9)

    def test_scaling_preserves_merge_sequence(self, rng):
        kept = 0
        for _ in range(12):
            arr = random_table(rng, (4, 3, 3), zero_frac=0.1)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            base = run_pcc(t)
            quotients = [s.dev_term / s.df_term for s in base.steps[1:] if s.df_term]
            if len(set(round(q, 9) for q in quotients)) != len(quotients):
                continue  # only traces with unique minima are comparable
            kept += 1
            moves = [(s.d, s.key) for s in base.steps[1:]]
            for c in (0.5, 3.0, 10.0):
                scaled = run_pcc(t.scale(c))
                assert [(s.d, s.key) for s in scaled.steps[1:]] == moves
                for s_base, s_scaled in zip(base.steps, scaled.steps):
                    assert s_scaled.dev == pytest.approx(c * s_base.dev, rel=1e-9, abs=1e-9)
        assert kept >= 5

    def test_ordinal_groups_are_contiguous(self, rng):
        for _ in range(10):
            arr = random_table(rng, (6, 4), zero_frac=0.1)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            trace = run_pcc(t, ("ordinal", "ordinal"))
            for r in range(len(trace.steps)):
                part = trace.partition_at(r)
                for k in range(2):
                    for members in part.groups(k):
                        assert members == list(range(members[0], members[-1] + 1))

    def test_fixed_variable_never_collapsed(self, rng):
        arr = random_table(rng, (4, 3, 3), zero_frac=0.1)
        t = SparseTable.from_dense(arr)
        trace = run_pcc(t, ("nominal", "fixed", "nominal"))
        assert all(s.d != 1 for s in trace.steps if s.d is not None)
        assert trace.steps[-1].shape[1] == 3

    def test_greedy_each_step_minimal_vs_brute_force(self, rng):
        for _ in range(6):
            arr = random_table(rng, (3, 3, 2), zero_frac=0.2)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            trace = run_pcc(t)
            current = arr
            for s in trace.steps[1:]:
                if s.terminal:
                    break
                want = brute_force_best_pair(current)
                assert s.dev_term / s.df_term == pytest.approx(want[5], rel=1e-9, abs=1e-12)
                keys = [list(range(n)) for n in current.shape]
                step_part = [list(range(n)) for n in current.shape]
                # rebuild the merged state with the oracle collapse
                d, u, v = want[0], want[1], want[2]
                step_part[d] = [u if c == v else (c if c < v else c - 1) for c in range(current.shape[d])]
                from oracles import dense_collapse
                current = dense_collapse(current, step_part)

    def test_stop_quotient_truncates(self, wermuth_table):
        trace = run_pcc(wermuth_table, stop_quotient=1.0)
        # steps 1 and 2 have gradients 0.21 and 2.27; the run stops before step 2
        assert len(trace.steps) == 2
        assert trace.steps[-1].shape == (5, 4)
        assert not trace.steps[-1].terminal

    @pytest.mark.parametrize("quotient", [-1.0, float("nan")])
    def test_stop_quotient_negative_or_nan_rejected(self, wermuth_table, quotient):
        # no quotient is > nan, so a NaN passed ``< 0`` and ran the full collapse
        with pytest.raises(InputError, match="stop_quotient"):
            run_pcc(wermuth_table, stop_quotient=quotient)

    def test_infinite_stop_quotient_never_stops(self, wermuth_table):
        trace = run_pcc(wermuth_table, stop_quotient=float("inf"))
        assert trace.steps == run_pcc(wermuth_table).steps
        assert trace.steps[-1].terminal

    def test_sentinel_df_is_remaining_width_minus_one(self, from_dense):
        t = from_dense([[1, 5], [2, 1], [9, 4]])
        trace = run_pcc(t)
        last = trace.steps[-1]
        assert last.terminal
        assert last.d == 0
        other = math.prod(s for k, s in enumerate(last.shape) if k != 0)
        assert last.df_term == other - 1
        assert last.dev_term == 0.0
        assert last.dfres == trace.steps[-2].dfres


def skewed_sparse_table(seed, shape, nnz):
    """``nnz`` distinct cells drawn with skewed category frequencies and
    counts 1 to 8: on a large shape nearly every column is a singleton."""
    rng = np.random.default_rng(seed)
    probs = [rng.dirichlet(np.full(s, 0.7)) for s in shape]
    cells = np.empty((0, len(shape)), dtype=np.intp)
    while len(cells) < nnz:
        draw = np.stack([rng.choice(s, size=nnz, p=p) for s, p in zip(shape, probs)], axis=1)
        cells = np.unique(np.concatenate([cells, draw]), axis=0)
    cells = cells[rng.permutation(len(cells))[:nnz]]
    return SparseTable(shape, cells, rng.integers(1, 9, nnz).astype(float))


class TestCarriedCollapse:
    """``run_pcc`` against the stateless per-step walk, ``==`` on every
    step and partition, in the regimes its carried state and cell indexes
    were built for."""

    @pytest.mark.parametrize("treatments", [
        ["nominal"] * 7,
        ["nominal", "ordinal", "fixed", "nominal", "ordinal", "nominal", "fixed"],
        ["ordinal"] * 4 + ["nominal"] * 3,
    ], ids=["nominal", "mixed", "ordinal-first"])
    def test_census_shaped_sparse_table(self, treatments):
        t = skewed_sparse_table(7, (12, 12, 12, 12, 5, 5, 5), 2500)
        trace = run_pcc(t, treatments)
        assert (trace.steps, trace.partitions) == reference_pcc_walk(t, treatments)

    def test_long_collapse_compacts_its_cells(self, monkeypatch):
        compactions = []
        compact = collapse._Collapse._compact

        def counted(state):
            compactions.append(state.size)
            compact(state)

        monkeypatch.setattr(collapse._Collapse, "_compact", counted)
        t = skewed_sparse_table(11, (16, 14, 12, 10), 3000)
        trace = run_pcc(t)
        assert len(trace.steps) > 45
        assert compactions
        assert (trace.steps, trace.partitions) == reference_pcc_walk(t, None)

    def test_empty_categories_cost_about_one_read_a_merge(self, monkeypatch):
        """Six of the 60 categories of axis 0 hold no individual, so every
        pair with one of them loses exactly 0, and a step stops reading
        pairs at the first: the collapse reads at most two pairs a merge
        (80 for 76 merges; reading every shortlisted pair takes 1,243)."""
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.full(60, 0.5))
        n = 60 * 48
        arr = np.zeros((60, 12, 8))
        np.add.at(arr, (rng.choice(60, n, p=weights), rng.integers(0, 12, n),
                        rng.integers(0, 8, n)), 1.0)
        t = SparseTable.from_dense(arr)
        assert t.shape == (60, 12, 8)
        assert np.count_nonzero(t.one_way(0) == 0) == 6
        reads = []
        read = collapse._Collapse._read

        def counted(state, *pair):
            reads.append(pair)
            return read(state, *pair)

        monkeypatch.setattr(collapse._Collapse, "_read", counted)
        trace = run_pcc(t)
        merges = len(trace.steps) - 2  # all rows but row 0 and the terminal row
        assert trace.steps[-1].terminal and merges == 76
        assert len(reads) <= 2 * merges
        assert (trace.steps, trace.partitions) == reference_pcc_walk(t, None)

    def test_wide_axis_collapse_keeps_memory_small(self):
        """A collapse through every size of a 200-category axis holds only
        the current sizes' candidate pairs: its traced peak stays under 5 MB
        (about 2.6 MB), where one cached pair list per size an axis passed
        through reached 21 MB."""
        t = SparseTable.from_dense(np.random.default_rng(0).poisson(1.0, (200, 4, 3)))
        tracemalloc.start()
        try:
            run_pcc(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_index_lookups_copy_no_index(self):
        """Finding a category's run, or given categories in given columns, in
        a collapse's index of 125,000 cells allocates under one byte per
        index entry: the searches take needles of the index's own int32
        keys, where int64 needles made numpy copy the whole index to int64
        on every call, 8 bytes an entry."""
        t = SparseTable.from_dense(np.random.default_rng(0).poisson(2.0, (50, 50, 50)) + 1.0)
        state = collapse._Collapse(t, ("nominal",) * 3)
        _, keys = state._cells_of(0, 0)  # builds the index of axis 0
        peaks = []
        tracemalloc.start()
        try:
            for lookup in (lambda: state._cells_of(0, 1),
                           lambda: state._cells_at(0, state.rep[0][2:5], keys[:10])):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                lookup()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert state.index_key[0].size == t.nnz == 125_000
        assert max(peaks) < t.nnz


class TestAdjustedRsq:
    def test_row6_value(self):
        assert adjusted_rsq(110.54, 15, 357.15, 16) == pytest.approx(0.670, abs=5e-4)

    def test_row1_value(self):
        assert adjusted_rsq(0.84, 4, 357.15, 16) == pytest.approx(0.991, abs=5e-4)

    def test_last_row_is_zero(self):
        assert adjusted_rsq(357.15, 16, 357.15, 16) == 0.0

    def test_zero_dfres_convention(self):
        assert adjusted_rsq(0.0, 0, 357.15, 16) == 1.0

    def test_degenerate_zero_final_dev(self):
        assert adjusted_rsq(0.0, 4, 0.0, 8) == 1.0


class TestPenalizedScores:
    def test_saturated_row(self):
        aic, bic = penalized_scores(0.0, 24, 3673)
        assert aic == 48.0
        assert bic == pytest.approx(24 * math.log(3673))

    def test_reference_magnitudes(self):
        aic, _ = penalized_scores(357.15, 8, 3673)
        assert aic == pytest.approx(373.15)

    def test_bic_aic_identity(self):
        aic, bic = penalized_scores(52.89, 10, 3673)
        assert bic - aic == pytest.approx(10 * (math.log(3673) - 2))

    def test_nonpositive_n_rejected(self):
        with pytest.raises(InputError):
            penalized_scores(1.0, 2, 0)


class TestInfoConcentration:
    def test_linear_curve(self):
        assert info_concentration([(10, 0.0), (5, 50.0), (0, 100.0)]) == pytest.approx(1.0)

    def test_step_at_the_end_approaches_zero(self):
        c = info_concentration([(10, 0.0), (1, 0.0), (0, 100.0)])
        assert c == pytest.approx(0.1, abs=1e-12)

    def test_published_trace_value(self):
        curve = [(r[5], r[4]) for r in WERMUTH_TRACE]
        assert info_concentration(curve) == pytest.approx(0.1751627467450651, abs=1e-9)

    def test_degenerate_flat_curve(self):
        assert info_concentration([(10, 0.0), (0, 0.0)]) == 0.0

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError):
            info_concentration([(10, 0.0)])


class TestExhaustiveSearch:
    def test_identity_shape_has_zero_loss(self, rng):
        arr = random_table(rng, (3, 3), zero_frac=0.0)
        t = SparseTable.from_dense(arr)
        results = exhaustive_partition_search(t)
        part, loss = results[(3, 3)]
        assert part.is_identity()
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_full_collapse_is_mutual_independence(self, rng):
        arr = random_table(rng, (3, 3), zero_frac=0.0)
        t = SparseTable.from_dense(arr)
        results = exhaustive_partition_search(t)
        _, loss = results[(1, 1)]
        assert loss == pytest.approx(dense_mutual_independence_g2(arr), rel=1e-9)

    def test_oracle_never_beaten_at_greedy_shapes(self, rng):
        arr = random_table(rng, (3, 3, 2), zero_frac=0.0)
        t = SparseTable.from_dense(arr)
        results = exhaustive_partition_search(t)
        trace = run_pcc(t)
        for r, s in enumerate(trace.steps):
            if s.terminal:
                continue
            best = results[s.shape][1]
            assert best <= s.dev + 1e-9
            got = partition_deviance(t, trace.partition_at(r))
            assert got == pytest.approx(s.dev, rel=1e-9, abs=1e-9)

    def test_enumeration_size_bell_numbers(self):
        # 1, 2, 5, 15, 52, 203, 877 for r = 1..7, squared across two variables
        assert enumeration_size((3, 3)) == 25
        assert enumeration_size((4, 4)) == 225
        assert enumeration_size((7,)) == 877
        assert enumeration_size((4, 4), ("ordinal", "nominal")) == 8 * 15
        assert enumeration_size((4, 4), ("fixed", "nominal")) == 15

    def test_cap_exceeded(self, wermuth_table):
        with pytest.raises(FeasibilityError) as err:
            exhaustive_partition_search(wermuth_table, size_cap=100)
        assert err.value.size == 52 * 52

    def test_ordinal_mode_only_contiguous(self, rng):
        arr = random_table(rng, (4, 2), zero_frac=0.0)
        t = SparseTable.from_dense(arr)
        results = exhaustive_partition_search(t, ("ordinal", "fixed"))
        assert len(results) == 4  # shapes (1..4, 2)
        for part, _ in results.values():
            for members in part.groups(0):
                assert members == list(range(members[0], members[-1] + 1))
