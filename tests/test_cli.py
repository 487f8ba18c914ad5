import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcctab import FitResult
from pcctab.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


class TestPccCommand:
    def test_trace_file_matches_published_row(self, out):
        assert run(["pcc", "--data", "wermuth_cox", "--out", out]) == 0
        lines = (out / "pcc_trace.tsv").read_text().splitlines()
        assert lines[0] == "r\td\tkey\tdim\tdev\tdfmod\tdfres\tdev_term\tdf_term\tadj_rsq"
        assert lines[1] == "0\t\t\t5 5\t0.00\t24\t0\t0.00\t0\t1.000"
        assert lines[2] == "1\t1\t0 1 2 3 3\t5 4\t0.84\t20\t4\t0.84\t4\t0.991"
        assert lines[7] == "6\t1\t0 0 1 1 1\t2 2\t110.54\t9\t15\t57.65\t1\t0.670"
        assert lines[9] == "8\t0\t0 0 0 0 0\t1 2\t357.15\t8\t16\t0.00\t1\t0.000"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["pcc", "--data", "christensen_abortion", "--out", a])
        run(["pcc", "--data", "christensen_abortion", "--out", b])
        assert (a / "pcc_trace.tsv").read_bytes() == (b / "pcc_trace.tsv").read_bytes()

    def test_loss_matrices_flag(self, out):
        assert run(["pcc", "--data", "wermuth_cox", "--out", out, "--loss-matrices"]) == 0
        first = out / "pcc_loss_r00_schooling.tsv"
        assert first.exists()
        text = first.read_text()
        assert "173.69" in text and "6.95" in text
        # merged states keep reporting until the collapse ends
        assert (out / "pcc_loss_r06_age.tsv").exists()

    def test_stop_quotient(self, out):
        assert run(["pcc", "--data", "wermuth_cox", "--out", out,
                    "--stop-quotient", "1.0"]) == 0
        lines = (out / "pcc_trace.tsv").read_text().splitlines()
        assert len(lines) == 3  # header, saturated row, one merge

    @pytest.mark.parametrize("command", ["pcc", "curve"])
    def test_nan_stop_quotient_exit_1(self, out, capsys, command):
        assert run([command, "--data", "wermuth_cox", "--out", out,
                    "--stop-quotient", "nan"]) == 1
        assert "stop_quotient" in capsys.readouterr().err
        assert not any(out.iterdir())


@pytest.mark.parametrize("command,extra", [
    ("pcc", ["--loss-matrices"]),
    ("lossmatrix", []),
    ("hllm", []),
    ("hllm", ["--generators", "[s][a]"]),
    ("ratios", []),
    ("curve", []),
    ("oracle", []),
])
def test_every_command_is_byte_deterministic(tmp_path, command, extra):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([command, "--data", "wermuth_cox", "--out", a] + extra) == 0
    assert run([command, "--data", "wermuth_cox", "--out", b] + extra) == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    assert files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestLossMatrixCommand:
    def test_christensen_age_matrix(self, out):
        assert run(["lossmatrix", "--data", "christensen_abortion", "--out", out]) == 0
        text = (out / "lossmatrix_age.tsv").read_text()
        assert text.startswith("# mode=all-pairs df=11")
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        header = rows[0]
        assert header[1:] == ["18-25", "26-35", "36-45", "46-55", "56-65", "66+"]
        grid = {(rows[i][0], header[j]): rows[i][j]
                for i in range(1, len(rows)) for j in range(1, len(rows[i]))}
        assert grid[("56-65", "66+")] == "2.19"
        assert grid[("18-25", "26-35")] == "7.21"
        assert grid[("36-45", "46-55")] == "4.58"
        assert grid[("66+", "56-65")] == ""

    def test_all_variables_written(self, out):
        run(["lossmatrix", "--data", "christensen_abortion", "--out", out])
        for name in ("race", "sex", "opinion", "age"):
            assert (out / f"lossmatrix_{name}.tsv").exists()


class TestHllmCommand:
    def test_backward_trace_on_wermuth(self, out):
        assert run(["hllm", "--data", "wermuth_cox", "--out", out]) == 0
        lines = (out / "hllm_backward.tsv").read_text().splitlines()
        assert len(lines) == 3  # header + saturated + independence
        assert lines[1].split("\t")[1:] == ["[sa]", "0.00", "24", "0", "0.00", "0", "1.000"]
        cells = lines[2].split("\t")
        assert cells[1] == "[s][a]"
        assert cells[2] == "357.15"
        assert cells[3:5] == ["8", "16"]

    def test_explicit_generators_fit(self, out):
        assert run(["hllm", "--data", "wermuth_cox", "--out", out,
                    "--generators", "[s][a]"]) == 0
        lines = (out / "hllm_fit.tsv").read_text().splitlines()
        assert lines[0] == "generators\tdev\tdfmod\tdfres\titerations\tconverged"
        cells = lines[1].split("\t")
        assert cells[0] == "[s][a]"
        assert cells[1] == "357.15"
        assert cells[5] == "true"

    def test_conditional_independence_prints_no_signed_zero(self, out, tmp_path):
        # a is independent of b given c, so [ac][bc] fits exactly; its
        # dev_term is a rounding residue of -6.7e-16
        data = tmp_path / "ci.csv"
        data.write_text("a,b,c,count\na0,b0,c0,10\na0,b0,c1,4\na0,b1,c0,5\na0,b1,c1,4\n"
                        "a1,b0,c0,6\na1,b0,c1,2\na1,b1,c0,3\na1,b1,c1,2\n")
        assert run(["hllm", "--data", data, "--out", out]) == 0
        text = (out / "hllm_backward.tsv").read_text()
        assert text.splitlines()[3] == "2\t[ac][bc]\t0.00\t5\t2\t0.00\t1\t1.000"
        assert "-0.0" not in text

    def test_bad_generators_exit_1(self, out, capsys):
        assert run(["hllm", "--data", "wermuth_cox", "--out", out,
                    "--generators", "[zq]"]) == 1
        assert "error" in capsys.readouterr().err


class TestRatiosCommand:
    def test_wermuth_grid(self, out):
        assert run(["ratios", "--data", "wermuth_cox", "--out", out,
                    "--precision", "2"]) == 0
        lines = (out / "ratios.tsv").read_text().splitlines()
        assert lines[1].split("\t") == [
            "basic_incomplete", "0.873", "0.657", "0.814", "1.652", "1.941"]

    def test_four_way_long_format(self, out):
        assert run(["ratios", "--data", "christensen_abortion", "--out", out]) == 0
        lines = (out / "ratios.tsv").read_text().splitlines()
        assert lines[0] == "race\tsex\topinion\tage\tratio"
        assert len(lines) == 1 + 2 * 2 * 3 * 6

    def test_reference_model_ratios(self, out):
        assert run(["ratios", "--data", "wermuth_cox", "--out", out,
                    "--generators", "[sa]"]) == 0
        lines = (out / "ratios.tsv").read_text().splitlines()
        assert all(cell == "1.000" for cell in lines[1].split("\t")[1:])


class TestCurveCommand:
    def test_wermuth_series(self, out):
        assert run(["curve", "--data", "wermuth_cox", "--out", out]) == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "series,dfmod,dev"
        pcc = [l for l in lines if l.startswith("pcc,")]
        hllm = [l for l in lines if l.startswith("hllm,")]
        assert pcc[0] == "pcc,24,0.00"
        assert pcc[-1] == "pcc,8,357.15"
        assert hllm == ["hllm,24,0.00", "hllm,8,357.15"]


class TestOracleCommand:
    def test_small_table(self, out, tmp_path, rng):
        data = tmp_path / "small.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "count"])
            for i in range(3):
                for j in range(3):
                    w.writerow([f"x{i}", f"y{j}", int(rng.integers(1, 30))])
        assert run(["oracle", "--data", data, "--out", out]) == 0
        lines = (out / "oracle.tsv").read_text().splitlines()
        assert lines[0] == "shape\tloss\tkeys"
        assert lines[1].startswith("3 3\t0.00\t0 1 2; 0 1 2")
        assert len(lines) == 1 + 9  # shapes (a, b) for a, b in 1..3

    def test_infeasible_exits_2(self, out, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "count"])
            for i in range(12):
                for j in range(2):
                    w.writerow([f"x{i}", f"y{j}", i + j + 1])
        assert run(["oracle", "--data", data, "--out", out]) == 2
        assert "enumerate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hllm", "ratios", "curve"])
def test_table_too_large_to_fit_densely_exits_2(out, tmp_path, capsys, monkeypatch, command):
    data, cfg = tmp_path / "huge.csv", tmp_path / "huge.json"
    data.write_text("a,b,c,count\nx0,x1,x2,1\nx5,x5,x5,2\nx9,x0,x3,3\n")
    labels = [f"x{i}" for i in range(1000)]
    cfg.write_text(json.dumps({"variables": [{"name": n, "categories": labels} for n in "abc"]}))

    def no_collapse(*args, **kwargs):
        raise AssertionError("collapsed before the dense check")

    monkeypatch.setattr("pcctab.cli.run_pcc", no_collapse)
    assert run([command, "--data", data, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1000000000 cells" in err
    assert "Traceback" not in err


class TestErrorPaths:
    def test_missing_data_file(self, out, capsys):
        assert run(["pcc", "--data", "nowhere.csv", "--out", out]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_usage_error_is_input_error(self, out, capsys):
        assert run(["explode", "--data", "wermuth_cox", "--out", out]) == 1

    @pytest.mark.parametrize("command,flag", [
        (command, flag)
        for flag, owners in [(["--stop-quotient", "2.5"], ("pcc", "curve")),
                             (["--loss-matrices"], ("pcc",)),
                             (["--generators", "[s]"], ("hllm", "ratios"))]
        for command in ("pcc", "lossmatrix", "hllm", "ratios", "curve", "oracle")
        if command not in owners
    ])
    def test_flag_of_another_command_exit_1(self, out, capsys, command, flag):
        assert run([command, "--data", "wermuth_cox", "--out", out] + flag) == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pcc", "lossmatrix", "hllm"])
    def test_infinite_count_exit_1(self, out, tmp_path, capsys, command):
        data = tmp_path / "inf.csv"
        data.write_text("x,y,count\na,c,3\na,d,inf\nb,c,2\nb,d,5\n")
        assert run([command, "--data", data, "--out", out]) == 1
        assert ":3: count 'inf' is not finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_duplicate_records_overflowing_exit_1_without_warnings(self, out, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("x,y,count\na,c,1e308\na,c,1e308\nb,c,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["pcc", "--data", data, "--out", out]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["pcc", "lossmatrix", "hllm", "curve", "ratios", "oracle"])
    def test_overflowing_counts_exit_1(self, out, tmp_path, capsys, command):
        # finite counts whose sums overflow: the statistics come out nan
        data = tmp_path / "huge.csv"
        data.write_text("x,y,count\na,c,1e308\na,d,3e307\nb,c,2e307\nb,d,1.5e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([command, "--data", data, "--out", out]) == 1
        assert "non-finite value" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["pcc", "lossmatrix", "hllm", "curve", "ratios", "oracle"])
    def test_more_cells_than_a_flat_index_exit_2(self, out, tmp_path, capsys, command):
        # 120 records, 10 variables of 120 labels each: 120**10 cells
        data = tmp_path / "cells.csv"
        data.write_text(",".join(f"v{k}" for k in range(10)) + ",count\n" + "".join(
            ",".join([f"l{i}"] * 10) + ",1\n" for i in range(120)))
        assert run([command, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"has {120 ** 10} cells" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["pcc", "lossmatrix", "hllm", "curve", "ratios", "oracle"])
    def test_more_variables_than_a_flat_index_takes_exit_2(self, out, tmp_path, capsys, command):
        # one record of 65 variables, one label each
        data = tmp_path / "wide.csv"
        data.write_text(",".join(f"v{k}" for k in range(65)) + ",count\n" + "a," * 65 + "1\n")
        assert run([command, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a table of 65 variables" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_field_over_the_csv_limit_exit_1(self, out, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text(f"x,y,count\n{'a' * 200_000},c,1\n")
        assert run(["pcc", "--data", data, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "long.csv: line 2: field larger" in err
        assert "Traceback" not in err

    def test_bad_config_exit_1(self, out, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert run(["pcc", "--data", "wermuth_cox", "--config", cfg, "--out", out]) == 1

    def test_config_treatments_respected(self, out, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variables": [
            {"name": "schooling", "treatment": "fixed"},
        ]}))
        assert run(["pcc", "--data", "wermuth_cox", "--config", cfg, "--out", out]) == 0
        lines = (out / "pcc_trace.tsv").read_text().splitlines()
        ds = [line.split("\t")[1] for line in lines[2:]]
        assert all(d == "1" for d in ds[:-1])  # only the age variable collapses

    def test_negative_precision_exit_1_before_the_load(self, out, monkeypatch, capsys):
        import pcctab.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("load_table called")

        monkeypatch.setattr(cli, "load_table", no_load)
        assert run(["pcc", "--data", "wermuth_cox", "--out", out, "--precision", "-1"]) == 1
        assert "--precision must be nonnegative" in capsys.readouterr().err

    def test_nonconvergence_exit_3(self, out, monkeypatch, capsys):
        import pcctab.cli as cli

        real = cli.ipf_fit

        def flaky(table, spec, *args, **kwargs):
            fit = real(table, spec, *args, **kwargs)
            return FitResult(spec=fit.spec, shape=fit.shape, fitted=fit.fitted,
                             dev=fit.dev, dfmod=fit.dfmod, dfres=fit.dfres,
                             iterations=fit.iterations, converged=False)

        monkeypatch.setattr(cli, "ipf_fit", flaky)
        assert run(["hllm", "--data", "wermuth_cox", "--out", out,
                    "--generators", "[s][a]"]) == 3
        assert (out / "hllm_fit.tsv").exists()  # artifacts still written


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("dataset", ["wermuth_cox", "christensen_abortion"])
@pytest.mark.parametrize("command,report", [("hllm", "hllm_backward.tsv"), ("curve", "curve.csv")])
def test_report_matches_golden(out, dataset, command, report):
    """The backward-selection reports stay byte-identical to the ones the
    first IPF implementation wrote (kept in tests/golden/)."""
    assert run([command, "--data", dataset, "--out", out]) == 0
    assert (out / report).read_bytes() == (GOLDEN / f"{dataset}_{report}").read_bytes()


def _seeded_four_way(tmp_path):
    """A 15 x 13 x 10 x 9 table of 6,000 draws from two latent classes
    (fixed seed), with variable c ordinal: its collapse takes 42 merges."""
    rng = np.random.default_rng(4242)
    shape = (15, 13, 10, 9)
    profiles = [[rng.dirichlet(np.full(s, 0.7)) for s in shape] for _ in range(2)]
    cells: dict = {}
    for _ in range(6000):
        prof = profiles[int(rng.random() < 0.35)]
        cell = tuple(int(rng.choice(s, p=p)) for s, p in zip(shape, prof))
        cells[cell] = cells.get(cell, 0) + 1
    data, cfg = tmp_path / "seeded.csv", tmp_path / "seeded.json"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c", "d", "count"])
        for cell in sorted(cells):
            w.writerow([f"{n}{i}" for n, i in zip("abcd", cell)] + [cells[cell]])
    cfg.write_text(json.dumps({"variables": [
        {"name": "c", "treatment": "ordinal", "categories": [f"c{i}" for i in range(10)]},
    ]}))
    return data, cfg


def test_long_collapse_matches_golden(out, tmp_path):
    """A 42-merge collapse stays byte-identical to the trace the stateless
    per-step loop wrote (kept in tests/golden/)."""
    data, cfg = _seeded_four_way(tmp_path)
    assert run(["pcc", "--data", data, "--config", cfg, "--out", out]) == 0
    assert (out / "pcc_trace.tsv").read_bytes() == (GOLDEN / "seeded4_pcc_trace.tsv").read_bytes()


@pytest.mark.parametrize("variable", ["race", "sex", "opinion", "age"])
def test_loss_matrix_report_matches_golden(out, variable):
    """Each ``lossmatrix`` report stays byte-identical to the one the
    per-pair ``LossMatrix`` entries rendered (kept in tests/golden/)."""
    assert run(["lossmatrix", "--data", "christensen_abortion", "--out", out]) == 0
    name = f"lossmatrix_{variable}.tsv"
    assert ((out / name).read_bytes()
            == (GOLDEN / f"christensen_abortion_{name}").read_bytes())


def test_loss_matrices_flag_matches_golden(out, tmp_path):
    """``pcc --loss-matrices`` with ``age`` ordinal writes the same files,
    byte for byte, as the per-pair ``LossMatrix`` entries rendered, the
    ``mode=adjacent-only`` grids included (kept in tests/golden/)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variables": [{"name": "age", "treatment": "ordinal"}]}))
    assert run(["pcc", "--data", "wermuth_cox", "--config", cfg, "--out", out,
                "--loss-matrices"]) == 0
    golden = GOLDEN / "wermuth_cox_age_ordinal"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    assert "mode=adjacent-only" in (out / "pcc_loss_r00_age.tsv").read_text()
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_one_category_variable_reports_df_0(out, tmp_path):
    """A variable with one category has no pairs; its header says df=0,
    although a pair on it would have 2 df."""
    data = tmp_path / "one.csv"
    data.write_text("a,b,count\nx,u,1\nx,v,2\nx,w,3\n")
    assert run(["lossmatrix", "--data", data, "--out", out]) == 0
    assert (out / "lossmatrix_a.tsv").read_text() == "# mode=all-pairs df=0\n\tx\nx\t\n"
