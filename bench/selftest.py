"""Fast self-test of the benchmark harness, at tiny sizes.

    python3 bench/selftest.py

Run from anywhere inside a pcctab checkout (``pcctab`` is imported from
``src/``).  It checks that the generator is deterministic for a seed, that
a run prints exactly the metric names and units of ``BENCHMARK.json``, and
that every correctness check rejects a deliberately wrong result.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, generate, write_csv  # noqa: E402

# dense enough that every category occurs, so the program sees the full shape
TINY = {
    "pcc-sparse4": replace(WORKLOADS["pcc-sparse4"], shape=(4, 3, 3, 2), nnz=50),
    "census-lossmatrix": replace(WORKLOADS["census-lossmatrix"],
                                 shape=(4, 4, 3, 3, 2, 2, 2), nnz=600),
    "hllm-dense6": replace(WORKLOADS["hllm-dense6"], shape=(2, 2, 2, 2, 2, 2)),
}


class Tiny(unittest.TestCase):
    """Shared scratch directory, tiny inputs and their plain-run values."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=cls.work_base()))
        cls.inputs, cls.values = {}, {}
        for name, w in TINY.items():
            inputs = generate(w, 3)
            data = cls.tmp / f"{name}.csv"
            write_csv(inputs, data)
            out = cls.tmp / name
            out.mkdir()
            cls.inputs[name] = inputs
            cls.values[name] = json.loads(json.dumps(
                child.plain_run(w.kind, data, out)["values"]))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    @staticmethod
    def work_base() -> Path:
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        return base


class GeneratorTest(Tiny):
    def test_same_seed_same_csv(self):
        for name, w in TINY.items():
            a, b = self.tmp / f"{name}-a.csv", self.tmp / f"{name}-b.csv"
            write_csv(generate(w, 11), a)
            write_csv(generate(w, 11), b)
            self.assertEqual(a.read_bytes(), b.read_bytes(), name)

    def test_other_seed_other_csv(self):
        w = TINY["pcc-sparse4"]
        a, b = generate(w, 11), generate(w, 12)
        self.assertFalse((a.coords == b.coords).all() and (a.counts == b.counts).all())


class MetricNamesTest(Tiny):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        for trace in (0, 1):
            for name, w in TINY.items():
                work_dir = Path(tempfile.mkdtemp(dir=self.tmp))
                outcome = run.run_workload(w, 5, 0.0, bool(trace), ROOT, work_dir)
                printed = json.loads(run.result_line(outcome))
                self.assertTrue(printed["correct"], (name, trace, outcome.failures))
                got = {k: m["unit"] for k, m in printed["metrics"].items()}
                self.assertEqual(got, want[trace], (name, trace))


class ChecksRejectWrongResults(Tiny):
    def test_untouched_values_pass(self):
        rng = np.random.default_rng(0)
        for name, w in TINY.items():
            self.assertEqual(run.check_values(w, self.values[name], self.inputs[name], rng), [])

    def test_pcc_step_loss_off(self):
        values = copy.deepcopy(self.values["pcc-sparse4"])
        values["steps"][1]["dev_term"] *= 1.001
        self.assertTrue(checks.check_pcc(values, self.inputs["pcc-sparse4"]))

    def test_pcc_final_deviance_off(self):
        values = copy.deepcopy(self.values["pcc-sparse4"])
        for s in values["steps"]:
            s["dev_term"] *= 1.001
            s["dev"] *= 1.001
        self.assertTrue(checks.check_pcc(values, self.inputs["pcc-sparse4"]))

    def test_lossmatrix_loss_off(self):
        values = copy.deepcopy(self.values["census-lossmatrix"])
        for entry in values["pairs"][2]:
            entry[2] *= 1 + 1e-7
        self.assertTrue(checks.check_lossmatrix(values, self.inputs["census-lossmatrix"],
                                                np.random.default_rng(0)))

    def test_lossmatrix_pair_missing(self):
        values = copy.deepcopy(self.values["census-lossmatrix"])
        values["pairs"][0].pop()
        self.assertTrue(checks.check_lossmatrix(values, self.inputs["census-lossmatrix"],
                                                np.random.default_rng(0)))

    def test_hllm_wrong_rows(self):
        inputs = self.inputs["hllm-dense6"]
        for field, change in [("converged", lambda r: False),
                              ("dfres", lambda r: r["dfres"] + 1),
                              ("dev", lambda r: r["dev"] * 1.001)]:
            values = copy.deepcopy(self.values["hllm-dense6"])
            row = values["rows"][-1]
            row[field] = change(row)
            self.assertTrue(checks.check_hllm(values, inputs), field)

    def test_hllm_deviance_falls(self):
        values = copy.deepcopy(self.values["hllm-dense6"])
        values["rows"][2]["dev"] = values["rows"][1]["dev"] - 1.0
        self.assertTrue(checks.check_hllm(values, self.inputs["hllm-dense6"]))

    def test_reports(self):
        ref = {"a.tsv": b"x\t1.00\n"}
        self.assertEqual(checks.check_reports(dict(ref), ref), [])
        self.assertTrue(checks.check_reports({"a.tsv": b"x\t1.01\n"}, ref))
        self.assertTrue(checks.check_reports({}, ref))
        self.assertTrue(checks.check_reports({"a.tsv": b"x\tnan\n"}, {"a.tsv": b"x\tnan\n"}))
        self.assertTrue(checks.check_reports({"a.tsv": b"x\t-inf\n"}, {"a.tsv": b"x\t-inf\n"}))

    def test_replay_differs(self):
        plain = self.values["pcc-sparse4"]
        replayed = copy.deepcopy(plain)
        replayed["steps"][1]["key"][-1] += 1
        self.assertEqual(checks.check_replay(copy.deepcopy(plain), plain, "pcc"), [])
        self.assertTrue(checks.check_replay(replayed, plain, "pcc"))

    def test_published_values(self):
        trace = [{"dev": "0.00"}] * 4 + [{"dev": "35.69"}]
        fit = [{"dev": "357.146", "dfres": "16"}]
        self.assertEqual(checks.check_published(trace, fit), [])
        self.assertTrue(checks.check_published(trace[:4] + [{"dev": "35.70"}], fit))
        self.assertTrue(checks.check_published(trace, [{"dev": "357.146", "dfres": "15"}]))
        self.assertTrue(checks.check_published(trace, []))


if __name__ == "__main__":
    unittest.main()
