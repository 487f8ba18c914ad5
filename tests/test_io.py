import json

import numpy as np
import pytest

from pcctab import InputError, load_table, read_config, read_counts, write_counts
from pcctab.datasets import dataset_path


class TestReadCounts:
    def test_wermuth_fixture(self):
        names, categories, entries = read_counts(dataset_path("wermuth_cox"))
        assert names == ["schooling", "age"]
        assert len(categories[0]) == 5 and len(categories[1]) == 5
        assert categories[0][0] == "basic_incomplete"
        assert len(entries) == 25
        assert sum(c for _, c in entries) == 3673

    def test_christensen_fixture(self):
        names, categories, entries = read_counts(dataset_path("christensen_abortion"))
        assert names == ["race", "sex", "opinion", "age"]
        assert [len(c) for c in categories] == [2, 2, 3, 6]
        assert len(entries) == 72
        assert sum(c for _, c in entries) == 2385

    def test_header_only_file_is_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b,count\n")
        names, categories, entries = read_counts(p)
        assert names == ["a", "b"]
        assert categories == [[], []]
        assert entries == []

    def test_missing_count_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,total\nx,y,3\n")
        with pytest.raises(InputError):
            read_counts(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,count\nx,y,3\nx,4\n")
        with pytest.raises(InputError, match=":3:"):
            read_counts(p)

    def test_non_numeric_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,count\nx,y,lots\n")
        with pytest.raises(InputError, match=":2:"):
            read_counts(p)

    def test_negative_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,count\nx,y,1\nz,w,-2\n")
        with pytest.raises(InputError, match=":3:"):
            read_counts(p)

    @pytest.mark.parametrize("count", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_count_reports_line(self, tmp_path, count):
        p = tmp_path / "bad.csv"
        p.write_text(f"a,b,count\nx,y,1\nz,w,{count}\n")
        with pytest.raises(InputError, match=":3: count .* is not finite"):
            read_counts(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_counts(tmp_path / "nope.csv")

    def test_first_appearance_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,count\nzed,one,1\nalpha,two,2\nzed,two,3\n")
        names, categories, entries = read_counts(p)
        assert categories[0] == ["zed", "alpha"]
        assert entries[0] == ((0, 0), 1.0)


class TestConfig:
    def test_explicit_order_and_treatment(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variables": [
            {"name": "age", "categories": ["75+", "60-74", "45-59", "30-44", "18-29"],
             "treatment": "ordinal"},
        ]}))
        config = read_config(cfg_path)
        scheme, table = load_table(dataset_path("wermuth_cox"), config)
        assert scheme.variables[1].categories[0] == "75+"
        assert scheme.variables[1].treatment == "ordinal"
        assert table.todense()[0].tolist() == [7, 20, 12, 13, 12]

    def test_unknown_label_vs_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variables": [
            {"name": "age", "categories": ["18-29", "30-44"]},
        ]}))
        config = read_config(cfg_path)
        with pytest.raises(InputError, match=":4:"):
            load_table(dataset_path("wermuth_cox"), config)

    def test_config_naming_unknown_variable(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variables": [{"name": "income"}]}))
        with pytest.raises(InputError, match="income"):
            load_table(dataset_path("wermuth_cox"), read_config(cfg_path))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            read_config(p)

    def test_bad_treatment(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"variables": [{"name": "a", "treatment": "monotone"}]}))
        with pytest.raises(InputError):
            read_config(p)

    def test_duplicate_variable(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"variables": [{"name": "a"}, {"name": "a"}]}))
        with pytest.raises(InputError):
            read_config(p)


class TestRoundTrip:
    def test_write_then_read_is_identical(self, tmp_path, wermuth):
        scheme, table = wermuth
        out = tmp_path / "again.csv"
        write_counts(out, scheme, table)
        scheme2, table2 = load_table(out)
        assert scheme2.names == scheme.names
        assert [v.categories for v in scheme2.variables] == [v.categories for v in scheme.variables]
        assert np.array_equal(table2.coords, table.coords)
        assert np.array_equal(table2.counts, table.counts)

    def test_rewrite_is_byte_identical(self, tmp_path, christensen):
        scheme, table = christensen
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_counts(a, scheme, table)
        scheme2, table2 = load_table(a)
        write_counts(b, scheme2, table2)
        assert a.read_bytes() == b.read_bytes()

    def test_fractional_counts_survive(self, tmp_path, wermuth):
        scheme, table = wermuth
        weighted = table.scale(0.25)
        out = tmp_path / "w.csv"
        write_counts(out, scheme, weighted)
        _, back = load_table(out)
        assert np.allclose(back.counts, weighted.counts, rtol=1e-15)
