import numpy as np
import pytest

from pcctab import (
    CategoryScheme,
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

from oracles import dense_collapse, dense_expand_probs, pair_slice, random_table


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

    def test_immutability(self, from_dense):
        t = from_dense([[1.0, 2.0]])
        with pytest.raises(AttributeError):
            t.total = 7
        with pytest.raises(ValueError):
            t.counts[0] = 9


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
