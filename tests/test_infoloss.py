import numpy as np
import pytest

from pcctab import (
    DegeneracyError,
    InputError,
    Partition,
    SparseTable,
    loss_matrix,
    pair_loss,
    partition_deviance,
)
from pcctab.infoloss import _deviance
from pcctab.report import render_loss_matrix

from oracles import (
    dense_g2_independence,
    dense_pair_g2,
    dense_partition_deviance,
    g2_independence,
    loss_grid,
    pair_slice,
    random_table,
)

# pairwise schooling losses (rows) and age losses (columns) for the 5x5
# schooling-by-age survey table, and age losses for the 2x2x3x6 abortion
# table; two-decimal published values
SCHOOLING_LOSSES = {
    (0, 1): 6.95, (0, 2): 20.44, (0, 3): 32.92, (0, 4): 30.40,
    (1, 2): 173.69, (1, 3): 77.52, (1, 4): 236.06,
    (2, 3): 14.77, (2, 4): 12.99, (3, 4): 16.31,
}
AGE_LOSSES = {
    (0, 1): 70.52, (0, 2): 178.53, (0, 3): 253.15, (0, 4): 117.20,
    (1, 2): 43.25, (1, 3): 110.11, (1, 4): 45.81,
    (2, 3): 23.96, (2, 4): 10.13, (3, 4): 0.84,
}
ABORTION_AGE_LOSSES = {
    (0, 1): 7.21, (0, 2): 14.29, (0, 3): 22.21, (0, 4): 35.21, (0, 5): 54.45,
    (1, 2): 7.05, (1, 3): 15.24, (1, 4): 22.48, (1, 5): 38.21,
    (2, 3): 4.58, (2, 4): 9.87, (2, 5): 19.60,
    (3, 4): 3.43, (3, 5): 9.59, (4, 5): 2.19,
}


class TestG2Independence:
    def test_wermuth_full_table(self, wermuth_table):
        g2, df = g2_independence(wermuth_table)
        assert g2 == pytest.approx(357.146, abs=5e-4)
        assert df == 16

    def test_two_row_slice(self, wermuth_table):
        g2, df = g2_independence(pair_slice(wermuth_table, 0, 0, 1))
        assert g2 == pytest.approx(6.95, abs=5e-3)
        assert df == 4

    def test_proportional_rows(self, from_dense):
        g2, df = g2_independence(from_dense([[1, 2], [2, 4]]))
        assert g2 == 0.0
        assert df == 1

    def test_empty_table_degenerate(self):
        g2, df = g2_independence(SparseTable((3, 4)))
        assert (g2, df) == (0.0, 6)

    def test_more_than_two_dims_rejected(self, from_dense):
        with pytest.raises(InputError):
            g2_independence(from_dense(np.ones((2, 2, 2))))

    def test_matches_dense_oracle(self, rng):
        for _ in range(40):
            arr = random_table(rng, tuple(rng.integers(2, 7, size=2)))
            got, _ = g2_independence(SparseTable.from_dense(arr))
            assert got == pytest.approx(dense_g2_independence(arr), rel=1e-9, abs=1e-9)

    def test_df_ignores_empty_rows(self, from_dense):
        # a zero row leaves df at the full-shape value
        g2, df = g2_independence(from_dense([[0, 0, 0], [1, 2, 3], [4, 5, 6]]))
        assert df == 4


class TestPairLoss:
    def test_wermuth_age_pair(self, wermuth_table):
        loss = pair_loss(wermuth_table, 1, 3, 4)
        assert loss.g2 == pytest.approx(0.84, abs=5e-3)
        assert loss.df == 4
        assert loss.quotient == pytest.approx(loss.g2 / 4)

    def test_abortion_age_pair(self, christensen_table):
        loss = pair_loss(christensen_table, 3, 4, 5)
        assert loss.g2 == pytest.approx(2.19, abs=5e-3)
        assert loss.df == 11

    def test_proportional_slices_lose_nothing(self, from_dense):
        t = from_dense([[2, 4, 6], [1, 2, 3], [5, 1, 9]])
        assert pair_loss(t, 0, 0, 1).g2 == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self, wermuth_table):
        a = pair_loss(wermuth_table, 0, 1, 3)
        b = pair_loss(wermuth_table, 0, 3, 1)
        assert a.g2 == pytest.approx(b.g2, rel=1e-12)
        assert a.df == b.df

    def test_scaling_multiplies_g2(self, rng):
        arr = random_table(rng, (4, 3, 3))
        t = SparseTable.from_dense(arr)
        base = pair_loss(t, 0, 1, 2)
        for c in (0.5, 3.0, 10.0):
            scaled = pair_loss(t.scale(c), 0, 1, 2)
            assert scaled.g2 == pytest.approx(c * base.g2, rel=1e-9)
            assert scaled.df == base.df

    def test_df_formula(self, christensen_table):
        # product of the other category counts minus one
        assert pair_loss(christensen_table, 0, 0, 1).df == 2 * 3 * 6 - 1
        assert pair_loss(christensen_table, 2, 0, 2).df == 2 * 2 * 6 - 1

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            ndim = int(rng.integers(2, 4))
            shape = tuple(rng.integers(2, 5, size=ndim))
            arr = random_table(rng, shape)
            t = SparseTable.from_dense(arr)
            d = int(rng.integers(0, ndim))
            if shape[d] < 2:
                continue
            u, v = sorted(rng.choice(shape[d], size=2, replace=False).tolist())
            got = pair_loss(t, d, u, v)
            assert got.g2 == pytest.approx(dense_pair_g2(arr, d, u, v), rel=1e-9, abs=1e-9)

    def test_kernel_agrees_with_slice_path(self, rng):
        for _ in range(10):
            arr = random_table(rng, (5, 4, 3))
            t = SparseTable.from_dense(arr)
            for d in range(3):
                g2, df = loss_grid(t, d)
                adjacent, adj_df = loss_grid(t, d, adjacent=True)
                assert adj_df == df
                for u in range(t.shape[d]):
                    for v in range(u + 1, t.shape[d]):
                        ref, ref_df = g2_independence(pair_slice(t, d, u, v))
                        assert g2[u, v] == pytest.approx(ref, rel=1e-12, abs=1e-12)
                        assert g2[v, u] == g2[u, v]
                        assert df == ref_df
                    if u + 1 < t.shape[d]:
                        assert adjacent[u, u + 1] == g2[u, u + 1]

    def test_canonical_pair_is_bitwise_symmetric(self, wermuth_table):
        a = pair_loss(wermuth_table, 0, 3, 1)
        b = pair_loss(wermuth_table, 0, 1, 3)
        assert a == b
        assert (a.u, a.v) == (1, 3)
        assert loss_matrix(wermuth_table, 0).get(1, 3) == a

    def test_invalid_pair_rejected(self, wermuth_table):
        for dim, u, v in [(2, 0, 1), (0, 1, 1), (0, 0, 5), (0, -1, 2)]:
            with pytest.raises(InputError):
                pair_loss(wermuth_table, dim, u, v)


class TestLossMatrix:
    def test_schooling_matrix(self, wermuth_table):
        m = loss_matrix(wermuth_table, 0)
        assert len(m.entries) == 10
        for (u, v), want in SCHOOLING_LOSSES.items():
            assert m.g2(u, v) == pytest.approx(want, abs=5e-3)
            assert m.get(u, v).df == 4

    def test_age_matrix(self, wermuth_table):
        m = loss_matrix(wermuth_table, 1)
        for (u, v), want in AGE_LOSSES.items():
            assert m.g2(u, v) == pytest.approx(want, abs=5e-3)

    def test_abortion_age_matrix(self, christensen_table):
        m = loss_matrix(christensen_table, 3)
        assert len(m.entries) == 15
        for (u, v), want in ABORTION_AGE_LOSSES.items():
            assert m.g2(u, v) == pytest.approx(want, abs=5e-3)
            assert m.get(u, v).df == 11

    def test_ordinal_mode_adjacent_only(self, wermuth_table):
        m = loss_matrix(wermuth_table, 1, treatment="ordinal")
        assert [(e.u, e.v) for e in m.entries] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert m.mode == "adjacent-only"

    def test_symmetric_lookup(self, wermuth_table):
        m = loss_matrix(wermuth_table, 0)
        assert m.g2(3, 1) == m.g2(1, 3)

    def test_get_indexes_every_entry(self, wermuth_table):
        for treatment in ("nominal", "ordinal"):
            m = loss_matrix(wermuth_table, 1, treatment=treatment)
            for e in m.entries:
                assert m.get(e.u, e.v) == e
                assert m.get(e.v, e.u) == e

    def test_get_missing_pair_raises(self, wermuth_table):
        m = loss_matrix(wermuth_table, 1, treatment="ordinal")
        for u, v in [(0, 2), (1, 1), (4, 5), (-1, 0)]:
            with pytest.raises(KeyError):
                m.get(u, v)
        with pytest.raises(KeyError):
            loss_matrix(wermuth_table, 1).get(0, 5)

    def test_values_are_plain_floats(self, wermuth_table):
        m = loss_matrix(wermuth_table, 0)
        assert all(type(e.g2) is float for e in m.entries)
        assert type(pair_loss(wermuth_table, 0, 1, 2).g2) is float
        assert "np.float64" not in repr(m)

    def test_fixed_treatment_rejected(self, wermuth_table):
        with pytest.raises(InputError):
            loss_matrix(wermuth_table, 0, treatment="fixed")

    def test_df_never_negative_on_empty_axis(self):
        m = loss_matrix(SparseTable((0, 3)), 1)
        assert [e.df for e in m.entries] == [0, 0, 0]
        assert all(e.g2 == 0.0 and e.quotient == 0.0 for e in m.entries)
        assert str(m.entries[0].quotient) == "0.0"
        assert render_loss_matrix(m, ["a", "b", "c"], 2).startswith("# mode=all-pairs df=0\n")


class TestPartitionDeviance:
    def test_identity_partition_loses_nothing(self, wermuth_table):
        assert partition_deviance(wermuth_table, Partition.identity((5, 5))) == pytest.approx(0.0, abs=1e-9)

    def test_wermuth_row4_partition(self, wermuth_table):
        part = Partition(((0, 0, 1, 1, 1), (0, 1, 2, 3, 3)))
        assert partition_deviance(wermuth_table, part) == pytest.approx(35.69, abs=5e-3)

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            shape = tuple(rng.integers(2, 5, size=int(rng.integers(2, 4))))
            arr = random_table(rng, shape)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            keys = tuple(tuple(int(x) for x in rng.integers(0, s, size=s)) for s in shape)
            part = Partition(keys)
            got = partition_deviance(t, part)
            want = dense_partition_deviance(arr, [list(k) for k in keys])
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_empty_table_loses_nothing(self):
        assert partition_deviance(SparseTable((2, 3)), Partition(((0, 0), (0, 1, 1)))) == 0.0

    def test_huge_shape_stays_sparse(self):
        # 1e15 cells: a dense collapsed table at the identity partition would not fit
        shape = (100_000,) * 3
        coords = [[0, 0, 0], [5, 99_999, 7], [99_999, 3, 99_999], [5, 3, 7]]
        t = SparseTable(shape, coords, [4.0, 2.5, 1.0, 7.0])
        assert partition_deviance(t, Partition.identity(shape)) == pytest.approx(0.0, abs=1e-9)
        # categories 0..5 of the first axis in one group: the same loss as on
        # the table of the used categories only, 0 and 5 grouped
        keys = list(Partition.identity(shape).keys)
        keys[0] = (0,) * 6 + (1,) * (shape[0] - 6)
        used = SparseTable((3, 3, 3), [[0, 0, 0], [1, 2, 1], [2, 1, 2], [1, 1, 1]],
                           [4.0, 2.5, 1.0, 7.0])
        want = partition_deviance(used, Partition(((0, 0, 1), (0, 1, 2), (0, 1, 2))))
        assert want > 0
        assert partition_deviance(t, Partition(tuple(keys))) == pytest.approx(want, rel=1e-12)

    def test_partition_for_another_shape_rejected(self, wermuth_table):
        with pytest.raises(InputError):
            partition_deviance(wermuth_table, Partition(((0, 1), (0, 1, 2, 3, 4))))


class TestDeviance:
    def test_zero_expectation_on_observed_cell_is_degenerate(self, from_dense):
        t = from_dense([[2.0, 0.0], [1.0, 3.0]])
        with pytest.raises(DegeneracyError):
            _deviance(t, np.array([2.0, 0.0, 3.0]))

    def test_empty_table_is_zero(self):
        assert _deviance(SparseTable((2, 2)), np.zeros(0)) == 0.0

    def test_clamped_at_zero(self, from_dense):
        # a rounding-level negative sum reports as 0
        t = from_dense([[1.0, 1.0]])
        assert _deviance(t, np.array([1.0, 1.0 + 2e-16])) == 0.0
