import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcctab.io
from pcctab import (
    NOMINAL,
    CategoryScheme,
    InputError,
    RunConfig,
    VariableConfig,
    VariableDef,
    build_table,
    load_table,
    read_config,
    read_counts,
    write_counts,
)
from pcctab.cli import main
from pcctab.datasets import dataset_path

from oracles import reference_read_counts


def reference_load_table(path, config=None):
    """``load_table`` composed from the row-at-a-time reader and
    ``build_table``."""
    names, categories, entries = reference_read_counts(path, config)
    cfg = config.by_name() if config is not None else {}
    variables = []
    for k, name in enumerate(names):
        vc = cfg.get(name)
        if not categories[k]:
            raise InputError(f"{path}: variable {name!r} has no categories (empty data)")
        variables.append(VariableDef(name=name, categories=tuple(categories[k]),
                                     treatment=vc.treatment if vc is not None else NOMINAL))
    scheme = CategoryScheme(tuple(variables))
    return scheme, build_table(scheme, entries)


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

    def test_duplicate_records_summing_past_float_range(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("a,b,count\nx,y,1e308\nx,y,1e308\nz,y,1\n")
        with pytest.raises(InputError, match="non-finite"):
            load_table(p)

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


@pytest.mark.parametrize("block", [1, 2, 1024])
@pytest.mark.parametrize("record,message", [
    ("zz,yy,lots,1", "expected 3 fields, got 4"),
    ("zz,yy,lots", "count 'lots' is not a number"),
    ("zz,yy,nan", "count 'nan' is not finite"),
    ("zz,yy,-2", "negative count -2.0"),
    ("zz,yy,2", "label 'zz' not in configured categories of 'a'"),
    ("x, yy ,2", "label 'yy' not in configured categories of 'b'"),
])
def test_error_precedence_within_a_record(tmp_path, monkeypatch, block, record, message):
    """A record with several faults reports the first in the order arity,
    count parse, finite, sign, labels left to right; a later record's fault
    never wins, and blank lines still count as records."""
    monkeypatch.setattr(pcctab.io, "_READ_BLOCK_ROWS", block)
    p = tmp_path / "bad.csv"
    p.write_text(f"a,b,count\n\nx,u,1\n  \n{record}\nq,u,-5\n")
    config = RunConfig((VariableConfig("a", ("x",)), VariableConfig("b", ("u",))))
    with pytest.raises(InputError, match=f"bad.csv:5: {message}$"):
        read_counts(p, config)


class TestEncoding:
    def _bom_files(self, tmp_path):
        data, cfg = tmp_path / "bom.csv", tmp_path / "bom.json"
        data.write_text("\ufeffa,b,count\nx,u,1\ny,u,2\nx,v,3\ny,v,5\n", encoding="utf-8")
        cfg.write_text("\ufeff" + json.dumps({"variables": [
            {"name": "a", "categories": ["y", "x"], "treatment": "ordinal"}]}),
            encoding="utf-8")
        return data, cfg

    def test_bom_is_not_part_of_the_first_name(self, tmp_path):
        data, cfg = self._bom_files(tmp_path)
        config = read_config(cfg)
        assert config.variables[0].name == "a"
        scheme, table = load_table(data, config)
        assert scheme.names == ("a", "b")
        assert scheme.variables[0].categories == ("y", "x")
        assert table.todense().tolist() == [[2, 5], [1, 3]]

    def test_bom_through_cli(self, tmp_path):
        data, cfg = self._bom_files(tmp_path)
        assert main(["pcc", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0

    def test_latin1_csv_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("a,b,count\nx,u,1\ncaf\xe9,u,2\n".encode("latin-1"))
        with pytest.raises(InputError, match=r"latin1\.csv: not valid UTF-8 text "
                                             r"\(line 3, byte 0xe9\)"):
            load_table(data)
        assert main(["pcc", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "latin1.csv" in err

    def test_latin1_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"variables": [{"name": "caf\xe9"}]}'.encode("latin-1"))
        with pytest.raises(InputError, match=r"config .*latin1\.json is not valid UTF-8 text "
                                             r"\(line 1, byte 0xe9\)"):
            read_config(cfg)
        assert main(["pcc", "--data", "wermuth_cox", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def outcome(fn, *args):
    """What ``fn`` returned, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_tables(got, want):
    if got[0] != "ok" or want[0] != "ok":
        return got == want
    (scheme, table), (scheme_want, table_want) = got[1], want[1]
    return (scheme == scheme_want and table.shape == table_want.shape
            and np.array_equal(table.coords, table_want.coords)
            and np.array_equal(table.counts, table_want.counts))


@pytest.mark.parametrize("name", ["wermuth_cox", "christensen_abortion"])
def test_bundled_data_matches_reference_reader(name):
    path = dataset_path(name)
    assert read_counts(path) == reference_read_counts(path)
    assert same_tables(outcome(load_table, path), outcome(reference_load_table, path))


LABELS = ["a", " a", "a ", "a\t", "b", "b ", "", "  ", "c,d", "e\nf", 'g"h', "é"]
GOOD_COUNTS = ["1", "0", "2.5", "7", "1e308", "5e-324", "-0", "1_0", " 3 "]
BAD_COUNTS = ["nan", "inf", "-inf", "1e999", "x", "-1", "", "1__0"]
NAMES = ["u", "v", "w"]


@st.composite
def counts_files(draw):
    """CSV text that is mostly well formed: each record can be blank,
    whitespace-only, ragged or carry a bad count, and a config may fix an
    order that leaves labels out or name an unknown variable."""
    k = draw(st.integers(1, 3))
    names = NAMES[:k]
    header = [draw(st.sampled_from([n, f" {n}", f"{n} "])) for n in names] + ["count"]
    count = st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(BAD_COUNTS if i == 0 else GOOD_COUNTS))
    record = st.tuples(*[st.sampled_from(LABELS)] * k, count).map(list)
    odd = st.one_of(st.just(""), st.sampled_from([" ", "\t", "  \t "]),
                    st.lists(st.sampled_from(LABELS + GOOD_COUNTS), max_size=k + 3))
    records = draw(st.lists(record, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        records.insert(draw(st.integers(0, len(records))), draw(odd))
    buf = io.StringIO()
    if draw(st.booleans()):
        buf.write("\ufeff")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        if isinstance(rec, str):
            buf.write(rec + "\n")
        else:
            writer.writerow(rec)
    config = None
    if draw(st.booleans()):
        variables = []
        named = draw(st.lists(st.sampled_from(names), unique=True, max_size=k))
        if draw(st.integers(0, 4)) == 0:
            named.append("income")
        for n in named:
            cats = draw(st.none() | st.lists(st.sampled_from(
                sorted({label.strip() for label in LABELS})), unique=True, min_size=1))
            variables.append(VariableConfig(n, None if cats is None else tuple(cats)))
        config = RunConfig(tuple(variables))
    return buf.getvalue(), config


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(counts_files())
def test_reader_matches_row_at_a_time_reference(fuzz_dir, case):
    text, config = case
    path = fuzz_dir / "counts.csv"
    path.write_text(text, encoding="utf-8")
    args = ["pcc", "--data", str(path), "--out", str(fuzz_dir / "out")]
    if config is not None:
        cfg = fuzz_dir / "cfg.json"
        cfg.write_text(json.dumps({"variables": [
            {"name": v.name} | ({} if v.categories is None else {"categories": list(v.categories)})
            for v in config.variables]}), encoding="utf-8")
        args += ["--config", str(cfg)]
    # counts near 1e308 overflow in sums; the CLI then refuses the inf
    with np.errstate(over="ignore", invalid="ignore"):
        want_rows = outcome(reference_read_counts, path, config)
        want_table = outcome(reference_load_table, path, config)
        for block in (1, 2, 3, pcctab.io._READ_BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pcctab.io, "_READ_BLOCK_ROWS", block)
                assert outcome(read_counts, path, config) == want_rows
                assert same_tables(outcome(load_table, path, config), want_table)
        code = main(args)
    assert code in (0, 1)
    if want_table[0] != "ok":
        assert code == 1
