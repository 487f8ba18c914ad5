import csv
import io
import json
import sys
import tracemalloc

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

    def test_short_and_long_rows_that_balance_report_the_first(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,count\nx,y,3\n1,2,3,4\n5,6\n")
        with pytest.raises(InputError, match=":3: expected 3 fields, got 4$"):
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

    def test_written_file_is_coded_from_its_bytes(self, tmp_path, christensen, monkeypatch):
        scheme, table = christensen
        out = tmp_path / "again.csv"
        write_counts(out, scheme, table)
        assert b"\r\n" in out.read_bytes()
        monkeypatch.setattr(pcctab.io._Columns, "add", _csv_loop)
        scheme2, table2 = load_table(out)
        assert scheme2 == scheme
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
def test_bundled_data_matches_reference_reader(name, monkeypatch):
    """The bundled files have CRLF line ends; they are coded from their
    bytes."""
    path = dataset_path(name)
    monkeypatch.setattr(pcctab.io._Columns, "add", _csv_loop)
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
    return buf.getvalue(), draw_config(draw, names, LABELS)


def draw_config(draw, names, labels):
    """None or a config that may fix an order leaving labels out, or name
    an unknown variable."""
    if not draw(st.booleans()):
        return None
    variables = []
    named = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    if draw(st.integers(0, 4)) == 0:
        named.append("income")
    for n in named:
        cats = draw(st.none() | st.lists(st.sampled_from(
            sorted({label.strip() for label in labels})), unique=True, min_size=1))
        variables.append(VariableConfig(n, None if cats is None else tuple(cats)))
    return RunConfig(tuple(variables))


# labels the byte path can code: no comma, quote or line end; some are
# longer than eight bytes, so keys go from words to padded bytes, and some
# differ only past their first or second word
CLEAN_LABELS = ["a", " a", "a ", "\ta", "b", "", "  ", "é", " é ", "category9",
                "category9 ", "category8", "ççççç", "a_long_category_1",
                "a_long_category_2"]
# "١" (Arabic-Indic one) is a number to float() as text, not as bytes
CLEAN_COUNTS = GOOD_COUNTS + ["١"]


@st.composite
def clean_counts_files(draw):
    """CSV text with no quotes and LF or CRLF line ends, mostly one record
    of K+1 fields per line, so most files are coded from their bytes.  A
    record can still carry a bad count or a label the config leaves out, a
    line can be blank, whitespace-only or ragged or hold a lone CR, and the
    last line end can be missing."""
    k = draw(st.integers(1, 3))
    names = NAMES[:k]
    header = [draw(st.sampled_from([n, f" {n}", f"{n} "])) for n in names] + ["count"]
    count = st.integers(0, 15).flatmap(
        lambda i: st.sampled_from(BAD_COUNTS if i == 0 else CLEAN_COUNTS))
    record = st.tuples(*[st.sampled_from(CLEAN_LABELS)] * k, count).map(",".join)
    lines = [",".join(header)] + draw(st.lists(record, max_size=12))
    # a line a field too long then one a field short keep the block's
    # field count right; read across lines, their fields still parse
    short, long = ",".join(["1"] * k), ",".join(["1"] * (k + 2))
    odd = st.sampled_from(["", " ", "\t", short, long, f"{long}\n{short}",
                           "a\rb" + ",1" * k])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(odd))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    ends[-1] = draw(st.sampled_from([ends[-1], ends[-1], "", "\r"]))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, draw_config(draw, names, CLEAN_LABELS)


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


BYTE_BLOCKS = [1, 7, 64, pcctab.io._READ_BLOCK_BYTES]


@settings(max_examples=150, deadline=None)
@given(clean_counts_files())
def test_byte_path_matches_row_at_a_time_reference(fuzz_dir, case):
    """Blocks of 1, 7 and 64 bytes cut records at every place; a block
    grows to its first newline, so records straddle block ends."""
    text, config = case
    path = fuzz_dir / "clean.csv"
    path.write_text(text, encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        want_rows = outcome(reference_read_counts, path, config)
        want_table = outcome(reference_load_table, path, config)
        for block in BYTE_BLOCKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pcctab.io, "_READ_BLOCK_BYTES", block)
                assert outcome(read_counts, path, config) == want_rows
                assert same_tables(outcome(load_table, path, config), want_table)


def _csv_loop(*args):
    raise AssertionError("the csv loop read a record")


def _byte_path(*args):
    raise AssertionError("the byte path read a block")


@pytest.mark.parametrize("block", BYTE_BLOCKS)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("last", [True, False])
def test_clean_file_never_enters_the_csv_loop(tmp_path, monkeypatch, block, newline, last):
    path = tmp_path / "clean.csv"
    n = len(CLEAN_LABELS)
    lines = ["\ufeff u,v ,count"] + [
        f"{CLEAN_LABELS[i % n]},{CLEAN_LABELS[(5 * i + i // n) % n]},{GOOD_COUNTS[i % len(GOOD_COUNTS)]}"
        for i in range(300)]
    path.write_bytes((newline.join(lines) + newline * last).encode())
    order = tuple(reversed(dict.fromkeys(label.strip() for label in CLEAN_LABELS)))
    config = RunConfig((VariableConfig("v", order),))
    want = [reference_read_counts(path, cfg) for cfg in (None, config)]
    monkeypatch.setattr(pcctab.io, "_READ_BLOCK_BYTES", block)
    monkeypatch.setattr(pcctab.io._Columns, "add", _csv_loop)
    assert [read_counts(path, cfg) for cfg in (None, config)] == want


def test_byte_path_keeps_one_key_per_distinct_field():
    """A key holds its field's bytes and nothing after them, whatever the
    line end."""
    short = [label for label in CLEAN_LABELS if len(label.encode()) <= 8]
    n, m = len(CLEAN_LABELS), len(short)
    lines = [f"{CLEAN_LABELS[i % n]},{short[(2 * i + 1) % m]},{i % 4}{chr(13) * (i % 2)}\n"
             for i in range(4 * n)]
    columns = pcctab.io._Columns("clean.csv", ["u", "v"], [None, None])
    assert columns.take("".join(lines).encode()) == len(lines)
    assert columns.key_widths == [24, 4]
    for k, distinct in enumerate([n, m]):
        assert columns.key_tables[k][0].size == len(columns.raw_codes[k]) == distinct


def assert_byte_path_matches_reference(path, monkeypatch):
    """``path`` reads from its bytes alone, as the row-at-a-time reference
    reads it, at every block size of ``BYTE_BLOCKS``."""
    want_rows = reference_read_counts(path)
    want_table = outcome(reference_load_table, path)
    monkeypatch.setattr(pcctab.io._Columns, "add", _csv_loop)
    for block in BYTE_BLOCKS:
        monkeypatch.setattr(pcctab.io, "_READ_BLOCK_BYTES", block)
        assert read_counts(path) == want_rows
        assert same_tables(outcome(load_table, path), want_table)
    return want_rows


def test_column_of_thousands_of_labels(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    labels = rng.permutation(np.concatenate([np.arange(2000), rng.integers(0, 2000, 600)]))
    path = tmp_path / "many.csv"
    path.write_text("u,v,count\n" + "".join(
        f"p{i},q{i % 7},{i % 5}\n" for i in labels.tolist()))
    names, categories, entries = assert_byte_path_matches_reference(path, monkeypatch)
    assert len(categories[0]) == 2000


@pytest.mark.parametrize("labels, dtype", [(2**15 - 1, np.int16), (2**15, np.int32)])
@pytest.mark.parametrize("path_kind", ["bytes", "quoted", "configured"])
def test_codes_widen_past_int16_labels(tmp_path, monkeypatch, labels, dtype, path_kind):
    """A column of 32,767 labels keeps int16 codes and one of 32,768 takes
    int32, whether the byte path or the csv loop reads it or a config lists
    the labels; the codes are those of the row-at-a-time reference.  The
    last label comes after records of the other column in the same block
    and is followed by more records."""
    rows = [("u", "v", "count")] + [(f"q{i % 7}", f"p{i}", str(i % 5 + 1)) for i in range(labels)]
    rows += [(f"q{i % 7}", f"p{i * 7 % labels}", "1") for i in range(500)]
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="") as fh:
        quoting = csv.QUOTE_ALL if path_kind == "quoted" else csv.QUOTE_MINIMAL
        csv.writer(fh, quoting=quoting, lineterminator="\n").writerows(rows)
    config = None
    if path_kind == "configured":
        config = RunConfig((VariableConfig("v", tuple(f"p{i}" for i in range(labels))),))
    if path_kind == "quoted":
        monkeypatch.setattr(pcctab.io._Columns, "take", _byte_path)
    else:
        monkeypatch.setattr(pcctab.io._Columns, "add", _csv_loop)
    _, _, entries = reference_read_counts(path, config)
    want = np.array([coords for coords, _ in entries], dtype=np.intp)
    _, categories, codes, _ = pcctab.io._read_columns(path, config)
    assert codes.dtype == dtype and np.array_equal(codes, want)
    assert len(categories[1]) == labels
    got = outcome(load_table, path, config)
    assert got[1][1].coords.dtype == dtype
    assert same_tables(got, outcome(reference_load_table, path, config))


# most bytes load_table may hold at once per record of a census-shape file,
# the table it returns included.  int16 codes take about 87 here; intp codes
# in the reader's buffer and the table took about 171.
LOAD_BYTES_PER_RECORD = 128


def test_load_table_memory_per_record(tmp_path):
    """The traced peak of ``load_table`` on 20,000 distinct cells of a
    30^4 x 10^3 table, read from their bytes."""
    n = 20_000
    rng = np.random.default_rng(17)
    shape = (30, 30, 30, 30, 10, 10, 10)
    cells = np.unravel_index(rng.choice(np.prod(shape), size=n, replace=False), shape)
    path = tmp_path / "census.csv"
    path.write_text(",".join(f"v{k}" for k in range(7)) + ",count\n" + "".join(
        ",".join(f"c{x}" for x in row) + f",{count}\n"
        for row, count in zip(np.stack(cells, axis=1).tolist(), rng.integers(1, 10, n).tolist())))
    load_table(path)  # the first load's one-off allocations are not counted
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _, table = load_table(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert table.nnz == n
    assert peak / n < LOAD_BYTES_PER_RECORD


def test_keys_sharing_one_slot_are_searched_for(tmp_path, monkeypatch):
    """With every key hashed to one slot, only the key whose position that
    slot holds is found there; the others fall back to the binary search."""
    monkeypatch.setattr(pcctab.io, "_slot", lambda keys, bits: np.zeros(keys.shape, np.intp))
    searched = []
    search = pcctab.io._search

    def counted(table, keys):
        searched.append(keys.size)
        return search(table, keys)

    monkeypatch.setattr(pcctab.io, "_search", counted)
    rng = np.random.default_rng(15)
    path = tmp_path / "one_slot.csv"
    path.write_text("u,v,w,count\n" + "".join(
        f"a{a},b{b},c{c},{n}\n" for a, b, c, n in rng.integers(0, 40, (500, 4)).tolist()))
    assert_byte_path_matches_reference(path, monkeypatch)
    # every block searches for most of its keys
    assert sum(searched) > 3 * 500 * len(BYTE_BLOCKS)


def test_eight_and_nine_byte_labels_across_the_switch_to_wide_keys(tmp_path, monkeypatch):
    """Labels of up to 8 bytes are one-word keys with a slot table; from
    the first 9-byte label on, the column's keys are two words, searched
    for without one.  A 9-byte label whose first 8 bytes are another
    label's must not be found as that label."""
    short = ["abcdefgh", "abcdefgi", "abcdefg", "a", "h\u00e9llo!!"]  # 8, 8, 7, 1, 8 bytes
    wide = ["abcdefghi", "abcdefgh\u00e9", "abcdefgi9"]  # 9, 10, 9 bytes
    rows = [f"{short[i % 5]},{short[(3 * i) % 5]},{i % 3}" for i in range(200)]
    rows += [f"{(short + wide)[i % 8]},{short[i % 5]},1" for i in range(200)]
    path = tmp_path / "widths.csv"
    path.write_text("u,v,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
    names, categories, entries = assert_byte_path_matches_reference(path, monkeypatch)
    assert categories[0] == short + wide

    columns = pcctab.io._Columns(path, ["u", "v"], [None, None])
    assert columns.take(("\n".join(rows[:200]) + "\n").encode()) == 200
    assert [t[2] is not None for t in columns.key_tables] == [True, True]
    assert columns.take(("\n".join(rows[200:]) + "\n").encode()) == 200
    assert [t[2] is not None for t in columns.key_tables] == [False, True]
    assert columns.key_widths == [16, 8]


def test_nul_byte_goes_to_the_csv_loop(tmp_path):
    """Zero-padded keys cannot tell "a" from "a\\0"; csv.reader keeps both
    (Python 3.11 on) or raises (3.10)."""
    path = tmp_path / "nul.csv"
    path.write_text("a,count\na,1\na\0,2\n")
    if sys.version_info >= (3, 11):
        assert read_counts(path) == reference_read_counts(path)
        assert read_counts(path)[1] == [["a", "a\0"]]
    else:
        with pytest.raises(InputError, match=r"nul\.csv: line 3: "):
            read_counts(path)


class TestCsvErrors:
    @pytest.mark.parametrize("header", ["a,b,count", '"a",b,count'])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, header):
        """From a plain header the byte path takes line 2 and leaves line 3
        to the csv loop; a quoted header sends the whole file there."""
        path = tmp_path / "long.csv"
        path.write_text(f"{header}\nx,u,1\n{'y' * 200_000},u,2\n")
        with pytest.raises(InputError, match=r"long\.csv: line 3: field larger than field limit"):
            read_counts(path)

    def test_line_not_record_after_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f'a,b,count\n"x\ny",u,1\n{"y" * 200_000},u,2\n')
        with pytest.raises(InputError, match=r"long\.csv: line 4: field larger"):
            read_counts(path)
