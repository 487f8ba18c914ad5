import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcctab import (
    CategoryScheme,
    FeasibilityError,
    InputError,
    Partition,
    SparseTable,
    VariableDef,
    apply_partition,
    build_table,
    compose_partitions,
    expand_model,
    marginal,
)

from pcctab.table import MAX_VARIABLES, _order

from oracles import (
    dense_collapse,
    dense_expand_probs,
    pair_slice,
    random_table,
    reference_sparse_table,
)


def two_var_scheme(r0=5, r1=5):
    return CategoryScheme((
        VariableDef("rows", tuple(f"r{i}" for i in range(r0))),
        VariableDef("cols", tuple(f"c{i}" for i in range(r1))),
    ))


class TestSchemeAndVariables:
    def test_duplicate_variable_names_rejected(self):
        v = VariableDef("x", ("a", "b"))
        with pytest.raises(InputError):
            CategoryScheme((v, v))

    def test_duplicate_category_labels_rejected(self):
        with pytest.raises(InputError):
            VariableDef("x", ("a", "a"))

    def test_empty_categories_rejected(self):
        with pytest.raises(InputError):
            VariableDef("x", ())

    def test_unknown_treatment_rejected(self):
        with pytest.raises(InputError):
            VariableDef("x", ("a", "b"), treatment="monotone")

    def test_shape_and_names(self):
        s = two_var_scheme(3, 4)
        assert s.shape == (3, 4)
        assert s.names == ("rows", "cols")
        assert s.treatments == ("nominal", "nominal")


class TestBuildTable:
    def test_wermuth_shape_and_total(self, wermuth):
        scheme, table = wermuth
        assert table.shape == (5, 5)
        assert table.total == 3673
        assert table.nnz == 25

    def test_empty_entries(self):
        t = build_table(two_var_scheme(), [])
        assert t.total == 0
        assert t.nnz == 0

    def test_duplicates_summed(self):
        t = build_table(two_var_scheme(), [((0, 0), 2), ((0, 0), 3)])
        assert t.nnz == 1
        assert t.todense()[0, 0] == 5

    def test_zero_counts_dropped(self):
        t = build_table(two_var_scheme(), [((0, 0), 0), ((1, 1), 4)])
        assert t.nnz == 1

    def test_out_of_bounds_coordinate(self):
        with pytest.raises(InputError):
            build_table(two_var_scheme(), [((0, 5), 1)])

    def test_negative_count(self):
        with pytest.raises(InputError):
            build_table(two_var_scheme(), [((0, 0), -1)])

    def test_errors_name_the_first_offending_row(self):
        scheme = two_var_scheme()
        with pytest.raises(InputError, match=r"coordinate \(1, -1\) out of bounds"):
            build_table(scheme, [((0, 0), 1), ((1, -1), 1), ((0, 9), 1)])
        with pytest.raises(InputError, match=r"negative count -2 at \(1, 0\)"):
            build_table(scheme, [((0, 0), 1), ((1, 0), -2), ((0, 0), -3)])
        with pytest.raises(InputError, match=r"coordinate \(0, 0, 0\) has wrong arity"):
            build_table(scheme, [((0, 0), 1), ((0, 0, 0), 1), ((0, 9), -1)])
        with pytest.raises(InputError, match=r"coordinate \(0,\) has wrong arity"):
            build_table(scheme, [((0,), 1), ((0,), 1)])

    def test_earlier_row_error_wins_over_later_arity_error(self):
        with pytest.raises(InputError, match="negative count -1"):
            build_table(two_var_scheme(), [((0, 0), -1), ((0, 0, 0), 1)])
        with pytest.raises(InputError, match="out of bounds"):
            build_table(two_var_scheme(), [((0, 9), 1), ((0,), 1)])

    def test_bounds_checked_before_sign_within_a_row(self):
        with pytest.raises(InputError, match="out of bounds"):
            build_table(two_var_scheme(), [((0, 9), -1)])

    def test_matches_direct_construction(self, rng):
        scheme = two_var_scheme()
        coords = rng.integers(0, 2, size=(50, 2))
        counts = rng.integers(0, 5, size=50).astype(float)
        t = build_table(scheme, [(tuple(c), n) for c, n in zip(coords.tolist(), counts.tolist())])
        direct = SparseTable(scheme.shape, coords, counts)
        assert np.array_equal(t.coords, direct.coords)
        assert np.array_equal(t.counts, direct.counts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            SparseTable((2, 2), [[0, 0], [0, 1], [1, 0], [1, 1]], [3, bad, 2, 5])

    def test_duplicates_summing_past_float_range_rejected(self):
        # each record is finite; their sum is not
        with pytest.raises(InputError, match="non-finite"):
            SparseTable((2, 1), [[0, 0], [0, 0], [1, 0]], [1e308, 1e308, 1.0])

    def test_cells_in_lexicographic_order(self, rng):
        arr = random_table(rng, (4, 3, 2))
        t = SparseTable.from_dense(arr)
        flat = np.ravel_multi_index(tuple(t.coords.T), t.shape)
        assert np.all(np.diff(flat) > 0)
        assert t.flat.dtype == np.intp and np.array_equal(t.flat, flat)
        assert SparseTable((4, 3, 2)).flat.shape == (0,)

    def test_immutability(self, from_dense):
        t = from_dense([[1.0, 2.0]])
        with pytest.raises(AttributeError):
            t.total = 7
        with pytest.raises(ValueError):
            t.counts[0] = 9
        with pytest.raises(ValueError):
            t.flat[0] = 9

    @pytest.mark.parametrize("coords", [[[0.5]], [[1.7]], [[True]]])
    def test_non_integer_coordinates_rejected(self, coords):
        # never truncated to a cell: 0.5 is not cell 0, 1.7 and True not cell 1
        with pytest.raises(InputError, match="coordinates must be integers"):
            SparseTable((3,), coords, [1.0])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_any_integer_coordinates_stored_as_int16(self, dtype):
        coords = np.array([[2, 0], [0, 1], [2, 0]], dtype=dtype)
        t = SparseTable((3, 2), coords, [1.0, 2.0, 3.0])
        assert t.coords.dtype == np.int16 and t.flat.dtype == np.intp
        assert t.coords.tolist() == [[0, 1], [2, 0]] and t.counts.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("size, dtype", [(2**15 - 1, np.int16), (2**15, np.int32),
                                             (2**31 - 1, np.int32), (2**31, np.int64)])
    def test_code_dtype_holds_the_largest_axis(self, size, dtype):
        t = SparseTable((2, size), [[1, size - 1], [0, 0]], [1.0, 2.0])
        assert t.coords.dtype == dtype
        assert t.coords.tolist() == [[0, 0], [1, size - 1]]
        assert SparseTable((2, size)).coords.dtype == dtype


def build_outcome(build, shape, coords, counts):
    """``build``'s coords, counts and total as bytes, or the type and text
    of the error it raised.  Distinct cells of 1e308 make the total inf."""
    try:
        with np.errstate(over="ignore"):
            return _build_bytes(build, shape, coords, counts)
    except (InputError, FeasibilityError) as exc:
        return type(exc), str(exc)


def _build_bytes(build, shape, coords, counts):
    if build is SparseTable:
        t = build(shape, coords, counts)
        coords, counts, total = t.coords, t.counts, t.total
    else:
        coords, counts, total = build(shape, coords, counts)
    return (coords.dtype, coords.shape, coords.tobytes(), counts.dtype, counts.tobytes(),
            np.float64(total).tobytes())


def assert_builds_like_reference(shape, coords, counts):
    got = build_outcome(SparseTable, shape, coords, counts)
    assert got == build_outcome(reference_sparse_table, shape, coords, counts)
    return got


# counts whose sums depend on the order they are added in (0.1, 0.2, 0.3),
# zeros, and 1e308, of which two in one cell sum past the float range
BUILD_COUNTS = [0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 7.0, 5e-324, 1e308]


@st.composite
def build_records(draw):
    """A shape and records for it, as drawn, sorted by cell or sorted in
    reverse; some coordinates may lie one outside the shape."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    outside = draw(st.booleans())
    coord = st.tuples(*[st.integers(-outside, s - 1 + outside) for s in shape])
    records = draw(st.lists(st.tuples(coord, st.sampled_from(BUILD_COUNTS)),
                            min_size=1, max_size=25))
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if order != "drawn":
        # a stable sort by cell: each cell's records stay in drawn order
        records.sort(key=lambda r: r[0], reverse=order == "reversed")
    coords = np.array([c for c, _ in records], dtype=np.intp).reshape(len(records), len(shape))
    return shape, coords, np.array([n for _, n in records])


class TestBuildMatchesReference:
    """``SparseTable`` sorts only unsorted records, by the packed stable
    sort ``_order``; its cells, counts, total and errors stay bitwise those
    of the one-stable-sort build in ``tests/oracles.py``."""

    @settings(max_examples=300, deadline=None)
    @given(build_records())
    def test_property(self, case):
        assert_builds_like_reference(*case)

    def test_duplicates_sum_in_record_order(self, rng):
        sums = []
        for values in ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]):
            coords = [[1], [0], [1], [2], [1]]
            counts = [values[0], 4.0, values[1], 1.0, values[2]]
            assert_builds_like_reference((3,), coords, counts)
            sums.append(SparseTable((3,), coords, counts).counts[1])
        # the two record orders give two different floats
        assert sums[0] != sums[1]
        # many cells repeated many times, interleaved: an unstable sort
        # would put some cell's records out of order
        coords = rng.integers(0, 20, size=(400, 1))
        assert_builds_like_reference((20,), coords, rng.random(400))

    def test_zero_counts_and_zero_sums_dropped(self):
        for coords, counts in [([[0], [1], [2]], [1.0, 0.0, 2.0]),  # sorted
                               ([[2], [1], [0]], [1.0, 0.0, 2.0]),  # unsorted
                               ([[2], [1], [1], [0]], [1.0, 0.0, 0.0, 2.0])]:  # repeated
            assert_builds_like_reference((3,), coords, counts)
            assert SparseTable((3,), coords, counts).coords.ravel().tolist() == [0, 2]

    @pytest.mark.parametrize("order", ["sorted", "reversed", "single"])
    def test_sorted_reversed_and_single_cell(self, rng, order):
        arr = random_table(rng, (4, 3, 5))
        coords = np.argwhere(arr)
        counts = arr[tuple(coords.T)]
        if order == "reversed":
            coords, counts = coords[::-1], counts[::-1]
        elif order == "single":
            coords, counts = coords[-1:], counts[-1:]
        assert_builds_like_reference(arr.shape, coords, counts)

    def test_sorted_cells_are_not_sorted_again(self, rng, monkeypatch):
        arr = random_table(rng, (4, 3, 5))
        coords, counts = np.argwhere(arr), arr[np.nonzero(arr)]
        want = build_outcome(reference_sparse_table, arr.shape, coords, counts)

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted cells were sorted again")

        monkeypatch.setattr(np, "argsort", no_sort)
        assert build_outcome(SparseTable, arr.shape, coords, counts) == want
        t = SparseTable.from_dense(arr)
        assert t.coords.dtype == np.int16 and t.coords.tobytes() == coords.astype(np.int16).tobytes()
        assert t.counts.tobytes() == counts.tobytes()

    # 2**16 + 1 would wrap to 1 as int16 codes; 2**64 - 1 is -1 as an intp
    @pytest.mark.parametrize("coords", [[[0, -1]], [[0, 3]], [[2, 0]], [[1, 1], [-5, 9]],
                                        [[0, 2**16 + 1]],
                                        np.array([[0, 2**64 - 1]], dtype=np.uint64)])
    def test_out_of_bounds_same_text(self, coords):
        got = assert_builds_like_reference((2, 3), coords, [1.0] * len(coords))
        assert got == (InputError, "coordinate out of bounds for shape (2, 3)")

    def test_more_cells_than_a_flat_index_can_number(self, monkeypatch):
        def no_flat_index(*args, **kwargs):
            raise AssertionError("a flat index was formed")

        monkeypatch.setattr(np, "ravel_multi_index", no_flat_index)
        for shape in [(120,) * 10, (2,) * 63]:
            cells = math.prod(shape)
            with pytest.raises(FeasibilityError, match=f"has {cells} cells") as info:
                SparseTable(shape, [[0] * len(shape)], [1.0])
            assert info.value.size == cells

    def test_more_variables_than_a_flat_index_takes(self, monkeypatch):
        def no_flat_index(*args, **kwargs):
            raise AssertionError("a flat index was formed")

        with monkeypatch.context() as m:
            m.setattr(np, "ravel_multi_index", no_flat_index)
            for K in (MAX_VARIABLES + 1, 65):
                with pytest.raises(FeasibilityError, match=f"a table of {K} variables") as info:
                    SparseTable((1,) * K, [[0] * K], [1.0])
                assert info.value.size == K
        t = SparseTable((1,) * MAX_VARIABLES, [[0] * MAX_VARIABLES] * 2, [1.0, 2.0])
        assert t.flat.tolist() == [0] and t.counts.tolist() == [3.0]

    def test_most_cells_a_flat_index_can_number(self):
        shape = (7, 7, 73, 127, 337, 92737, 649657)  # 2**63 - 1 cells
        assert math.prod(shape) == np.iinfo(np.intp).max
        last = [s - 1 for s in shape]
        t = SparseTable(shape, [last, [0] * 7, last], [1.0, 2.0, 3.0])
        assert t.coords.tolist() == [[0] * 7, last] and t.counts.tolist() == [2.0, 4.0]


class TestCallerArrays:
    """A table copies what it keeps: it never shares, or makes read-only, an
    array its caller passed, whether the records come in order (and so are
    not gathered by a sort) or not."""

    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_table_never_shares_a_callers_arrays(self, order):
        # int16 codes are the stored dtype, so no conversion copies them
        coords = np.array([[0, 1], [1, 0], [2, 1]], dtype=np.int16)
        counts = np.array([1.0, 2.0, 3.0])
        if order == "unsorted":
            coords, counts = coords[::-1].copy(), counts[::-1].copy()
        t = SparseTable((3, 2), coords, counts)
        for arr in (t.coords, t.flat, t.counts):
            assert not np.shares_memory(arr, coords) and not np.shares_memory(arr, counts)
        assert coords.flags.writeable and counts.flags.writeable
        coords[:] = 0
        counts[:] = 5.0
        assert t.coords.tolist() == [[0, 1], [1, 0], [2, 1]]
        assert t.counts.tolist() == [1.0, 2.0, 3.0] and t.total == 6.0


# the most bytes SparseTable.from_dense may trace per stored cell; a build
# through intp coordinates (np.nonzero and a stacked copy of it) took 133
FROM_DENSE_BYTES_PER_CELL = 95


def test_from_dense_memory_per_cell():
    """The traced peak of ``from_dense`` on a 16^5 table of about a million
    nonzero cells, and its cells bitwise those of a build from ``np.nonzero``'s
    coordinates."""
    arr = np.random.default_rng(18).poisson(3, (16,) * 5).astype(np.float64)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        t = SparseTable.from_dense(arr)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    idx = np.nonzero(arr)
    want = SparseTable(arr.shape, np.stack(idx, axis=1), arr[idx])
    assert t.coords.dtype == want.coords.dtype == np.int16
    assert t.coords.tobytes() == want.coords.tobytes()
    assert t.flat.tobytes() == want.flat.tobytes()
    assert t.counts.tobytes() == want.counts.tobytes()
    assert peak / t.nnz < FROM_DENSE_BYTES_PER_CELL


def assert_orders_stably(keys):
    order, ordered = _order(keys.copy())  # _order consumes the keys it is given
    want = np.argsort(keys, kind="stable")
    assert order.dtype == want.dtype and order.tolist() == want.tolist()
    assert ordered.tolist() == keys[want].tolist()


class TestOrder:
    """``_order`` packs each key with its position into one word and sorts
    the words; it must give the stable argsort, falling back to it when the
    largest key leaves no room for the positions."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 7), max_size=70)
           | st.lists(st.integers(0, 2**62), max_size=20))
    def test_is_the_stable_argsort(self, keys):
        assert_orders_stably(np.array(keys, dtype=np.int64))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 1024, 1025])
    def test_sizes_at_powers_of_two(self, rng, n):
        assert_orders_stably(rng.integers(0, 4, n))  # repeated keys
        assert_orders_stably(rng.permutation(n))  # distinct keys

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1024, 1025])
    def test_largest_key_at_the_packing_limit(self, rng, monkeypatch, n):
        b = (n - 1).bit_length()
        # a key of 2**63 is not an int64, so one key never falls back
        for largest, packed in [(2 ** (63 - b) - 1, True), (2 ** (63 - b), False)][:1 + (n > 1)]:
            keys = rng.integers(0, largest, n, endpoint=True)
            keys[:2] = largest
            calls = []
            argsort = np.argsort
            with monkeypatch.context() as m:
                m.setattr(np, "argsort", lambda *a, **k: calls.append(k) or argsort(*a, **k))
                assert_orders_stably(keys)
            # the check's own argsort is the one call a packed sort leaves
            assert len(calls) == 1 + (not packed)


class TestMarginal:
    def test_wermuth_row_marginal(self, wermuth_table):
        m = marginal(wermuth_table, [0])
        assert m.todense().tolist() == [64, 1812, 933, 211, 653]

    def test_marginal_over_all_dims_is_identity(self, wermuth_table):
        m = marginal(wermuth_table, [0, 1])
        assert np.array_equal(m.todense(), wermuth_table.todense())

    def test_one_cell_table(self, from_dense):
        t = from_dense([[0.0, 0.0], [0.0, 7.0]])
        m = marginal(t, [1])
        assert m.todense().tolist() == [0, 7]

    def test_totals_preserved(self, rng):
        arr = random_table(rng, (3, 4, 5))
        t = SparseTable.from_dense(arr)
        assert marginal(t, [1, 2]).total == pytest.approx(t.total, rel=1e-12)

    def test_empty_dims_rejected(self, wermuth_table):
        with pytest.raises(InputError):
            marginal(wermuth_table, [])

    def test_out_of_range_dim_rejected(self, wermuth_table):
        with pytest.raises(InputError):
            marginal(wermuth_table, [2])


class TestPartition:
    def test_first_occurrence_renumbering(self):
        p = Partition(((2, 2, 3, 2, 5),))
        assert p.keys == ((0, 0, 1, 0, 2),)
        assert p.group_counts == (3,)

    def test_groups(self):
        p = Partition(((0, 0, 1, 0, 2),))
        assert p.groups(0) == [[0, 1, 3], [2], [4]]

    def test_identity(self):
        p = Partition.identity((3, 2))
        assert p.is_identity()
        assert p.group_counts == (3, 2)

    def test_compose_matches_sequential_application(self, rng):
        for _ in range(20):
            shape = tuple(rng.integers(2, 5, size=2))
            arr = random_table(rng, shape)
            t = SparseTable.from_dense(arr)
            k1 = tuple(tuple(int(x) for x in rng.integers(0, s, size=s)) for s in shape)
            p1 = Partition(k1)
            mid = p1.group_counts
            k2 = tuple(tuple(int(x) for x in rng.integers(0, s, size=s)) for s in mid)
            p2 = Partition(k2)
            via_two = apply_partition(apply_partition(t, p1), p2)
            via_one = apply_partition(t, compose_partitions(p1, p2))
            assert via_two.shape == via_one.shape
            assert np.allclose(via_two.todense(), via_one.todense())


class TestApplyPartition:
    def test_wermuth_age_merge_matches_summary_table(self, wermuth_table):
        p = Partition(((0, 1, 2, 3, 4), (0, 1, 2, 3, 3)))
        merged = apply_partition(wermuth_table, p)
        assert merged.shape == (5, 4)
        assert merged.todense()[:, 3].tolist() == [27, 597, 164, 21, 93]

    def test_identity_partition(self, wermuth_table):
        out = apply_partition(wermuth_table, Partition.identity((5, 5)))
        assert np.array_equal(out.todense(), wermuth_table.todense())

    def test_all_to_one(self, wermuth_table):
        p = Partition(((0,) * 5, (0,) * 5))
        out = apply_partition(wermuth_table, p)
        assert out.shape == (1, 1)
        assert out.total == 3673

    def test_total_exact_on_integers(self, rng):
        arr = random_table(rng, (4, 4, 3))
        t = SparseTable.from_dense(arr)
        p = Partition(((0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 0)))
        assert apply_partition(t, p).total == t.total

    def test_matches_dense_oracle(self, rng):
        arr = random_table(rng, (4, 3, 3))
        keys = ((0, 1, 0, 1), (0, 0, 1), (0, 1, 1))
        t = apply_partition(SparseTable.from_dense(arr), Partition(keys))
        assert np.allclose(t.todense(), dense_collapse(arr, [list(k) for k in keys]))

    def test_key_length_mismatch(self, wermuth_table):
        with pytest.raises(InputError):
            apply_partition(wermuth_table, Partition(((0, 1), (0, 1, 2, 3, 4))))


class TestPairSlice:
    def test_wermuth_first_two_rows(self, wermuth_table):
        s = pair_slice(wermuth_table, 0, 0, 1)
        assert s.shape == (2, 5)
        assert s.todense().tolist() == [
            [12, 13, 12, 20, 7],
            [215, 507, 493, 460, 137],
        ]

    def test_zero_categories_give_empty_slice(self, from_dense):
        t = from_dense([[0, 0], [0, 0], [1, 2]])
        s = pair_slice(t, 0, 0, 1)
        assert s.total == 0
        assert s.nnz == 0

    def test_two_category_dim_is_whole_table(self, from_dense):
        t = from_dense([[1, 2, 3], [4, 5, 6]])
        s = pair_slice(t, 0, 0, 1)
        assert np.array_equal(s.todense(), t.todense())

    def test_order_of_u_v_swaps_rows(self, from_dense):
        t = from_dense([[1, 2, 3], [4, 5, 6]])
        s = pair_slice(t, 0, 1, 0)
        assert s.todense().tolist() == [[4, 5, 6], [1, 2, 3]]

    def test_same_category_rejected(self, wermuth_table):
        with pytest.raises(InputError):
            pair_slice(wermuth_table, 0, 2, 2)

    def test_out_of_range_rejected(self, wermuth_table):
        with pytest.raises(InputError):
            pair_slice(wermuth_table, 0, 0, 9)


class TestExpandModel:
    @staticmethod
    def probs_of(table):
        return SparseTable(table.shape, table.coords, table.counts / table.total)

    def test_identity_partition_is_identity(self, wermuth_table):
        p = Partition.identity((5, 5))
        probs = self.probs_of(wermuth_table)
        out = expand_model(probs, p, wermuth_table.one_way_marginals())
        assert np.allclose(out.todense(), probs.todense(), rtol=1e-12)

    def test_uniform_collapsed_with_equal_marginals(self):
        probs = SparseTable.from_dense(np.full((2, 2), 0.25))
        p = Partition(((0, 0, 1, 1), (0, 1, 1, 0)))
        marginals = [np.full(4, 25.0), np.full(4, 25.0)]
        out = expand_model(probs, p, marginals)
        assert np.allclose(out.todense(), np.full((4, 4), 1 / 16), rtol=1e-12)

    def test_marginals_preserved_and_recollapse_recovers(self, rng):
        for _ in range(25):
            shape = tuple(rng.integers(2, 6, size=int(rng.integers(2, 4))))
            arr = random_table(rng, shape)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            keys = tuple(tuple(int(x) for x in rng.integers(0, s, size=s)) for s in shape)
            part = Partition(keys)
            collapsed = apply_partition(t, part)
            probs = self.probs_of(collapsed)
            expansion = expand_model(probs, part, t.one_way_marginals())
            dense = expansion.todense()
            for k in range(t.ndim):
                axes = tuple(a for a in range(t.ndim) if a != k)
                got = dense.sum(axis=axes)
                want = t.one_way_marginals()[k] / t.total
                assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
            back = apply_partition(expansion, part)
            assert np.allclose(back.todense(), probs.todense(), rtol=1e-12, atol=1e-15)

    def test_matches_dense_oracle(self, rng):
        arr = random_table(rng, (3, 4))
        keys = [[0, 1, 1], [0, 0, 1, 2]]
        t = SparseTable.from_dense(arr)
        part = Partition(tuple(tuple(k) for k in keys))
        collapsed = apply_partition(t, part)
        out = expand_model(self.probs_of(collapsed), part, t.one_way_marginals())
        assert np.allclose(out.todense(), dense_expand_probs(arr, keys), rtol=1e-12)

    def test_zero_mass_group_gets_zero_probability(self):
        # category 2 of the first variable never occurs
        arr = np.array([[3.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        t = SparseTable.from_dense(arr)
        part = Partition(((0, 1, 2), (0, 1)))
        collapsed = apply_partition(t, part)
        out = expand_model(self.probs_of(collapsed), part, t.one_way_marginals())
        assert np.all(out.todense()[2] == 0)

    def test_shape_mismatch_rejected(self, wermuth_table):
        probs = self.probs_of(wermuth_table)
        with pytest.raises(InputError):
            expand_model(probs, Partition(((0, 0, 1, 1, 1), (0, 1, 2, 3, 3))),
                         wermuth_table.one_way_marginals())

    def test_inconsistent_marginal_totals_rejected(self, wermuth_table):
        p = Partition.identity((5, 5))
        probs = self.probs_of(wermuth_table)
        bad = wermuth_table.one_way_marginals()
        bad[0] = bad[0] * 2
        with pytest.raises(InputError):
            expand_model(probs, p, bad)


class TestLabelPermutationCommutes:
    def test_marginal_and_partition_commute_with_permutation(self, rng):
        arr = random_table(rng, (4, 3))
        t = SparseTable.from_dense(arr)
        perm = rng.permutation(4)
        permuted = SparseTable.from_dense(arr[perm])
        key = (0, 1, 0, 2)
        p = Partition((key, (0, 1, 2)))
        permuted_key = tuple(key[c] for c in perm)
        p_perm = Partition((permuted_key, (0, 1, 2)))
        left = apply_partition(permuted, p_perm).todense()
        right = apply_partition(t, p).todense()
        # group ids may be renumbered; compare as multisets of cells
        assert sorted(left.ravel().tolist()) == sorted(right.ravel().tolist())
        assert np.array_equal(
            marginal(permuted, [1]).todense(), marginal(t, [1]).todense())
