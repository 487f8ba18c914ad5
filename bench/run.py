"""Benchmark for pcctab: from a counts CSV on disk to the written report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

The second form runs every workload untraced and then traced, so one
command prints every end-to-end and per-layer metric.

``pcctab`` is imported from ``src/`` of the checkout holding this file.
One run:

1. refuses to measure unless ``pcctab`` reproduces two published values
   on the bundled Wermuth-Cox table (exit 3, no result printed);
2. writes the workload's CSV, drawn from ``--seed``, into ``.bench_work/``;
3. runs the ``pcctab`` CLI once on it as the reference report and warm-up;
4. for ``--seconds`` (at least a few runs), starts one fresh child process
   at a time, each when the previous one has exited (closed loop, one
   client), with BLAS/OpenMP threads pinned to 1.  With ``--trace 0`` every
   child is a plain run, timed from outside; with ``--trace 1`` plain runs
   alternate with traced replays that record a span around every call into
   a layer.  The harness and its children share one pinned CPU, and
   between every two children the harness times a fixed probe
   (``speed.py``);
5. checks every child's reports and values (``checks.py``);
6. prints every metric with its unit and sample count, writes a run record
   (machine, input, per-run samples, spans) to ``.bench_work/records/``,
   and prints as the last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.  The failed ratio is
   ``failed / attempted`` over every child, the CLI reference included.
   The exit code is 0 only when every check passed.

Timings are medians over the children of one run, each child's times
brought to a reference machine speed by the probes around it
(``speed.py``), so that the VM's drifts in speed cancel out; the raw
medians are printed beside them and every raw time is in the run record.
A layer a workload never calls reports zero time and zero counts in the
traced metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import speed
from workloads import WORKLOADS, Inputs, Workload, describe, generate, write_csv

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

# a run must end within 180 s; stop waiting for a child after this
DEADLINE_S = 170.0
MIN_PLAIN_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_AXES = 7  # infoloss.axis<k>_s for the census shape's seven axes

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

PER_LAYER = {
    "io.read_counts_s": "s",
    "io.rows_per_s": "1/s",
    "table.build_table_s": "s",
    "table.apply_partition_s": "s",
    "table.apply_partition_calls": "count",
    "infoloss.loss_matrix_s": "s",
    **{f"infoloss.axis{k}_s": "s" for k in range(MAX_AXES)},
    "infoloss.pairs_scored": "count",
    "infoloss.pairs_per_s": "1/s",
    "pcc.select_merge_s": "s",
    "pcc.select_merge_ms_p50": "ms",
    "pcc.select_merge_ms_tail": "ms",
    "pcc.merges": "count",
    "pcc.candidates_scored": "count",
    "pcc.merges_per_candidate": "ratio",
    "hllm.ipf_fit_s": "s",
    "hllm.fits": "count",
    "hllm.ipf_iterations": "count",
    "hllm.ms_per_iteration": "ms",
    "hllm.step_ms_p50": "ms",
    "hllm.step_ms_tail": "ms",
    "hllm.unconverged_fits": "count",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class GateError(Exception):
    """The program does not reproduce a published value."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


@dataclass
class Child:
    """One finished child process, as seen from outside."""

    code: int
    wall_s: float
    cpu_s: float
    stderr: str
    # scale from this child's raw times to reference speed (speed.factor)
    speed: float = 1.0


@dataclass
class Metric:
    value: float
    unit: str
    n: int
    note: str = ""
    samples: list[float] = field(default_factory=list)


@dataclass
class Outcome:
    metrics: dict[str, Metric]
    attempted: int
    failures: list[str]
    failed: int
    record: dict


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(cmd: list[str], env: dict[str, str], err_path: Path, deadline: float) -> Child:
    """Start one process, wait for it to exit, and take its wall time and
    CPU time from the kernel's accounting of that child."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 stderr=err_path.read_text(errors="replace")[-2000:])


def published_value_gate(out_dir: Path) -> None:
    """Run ``cli.main`` on the bundled Wermuth-Cox table and refuse to go
    on unless it prints the published values (:func:`checks.check_published`)."""
    from pcctab.cli import main as cli_main

    def run(name: str, *argv) -> list[dict]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*argv, "--data", "wermuth_cox", "--out", str(out_dir)])
        if code != 0:
            raise GateError(f"pcctab {' '.join(argv)} exited {code}")
        with open(out_dir / name, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh, delimiter="\t"))

    fails = checks.check_published(
        run("pcc_trace.tsv", "pcc"),
        run("hllm_fit.tsv", "hllm", "--generators", "[s][a]", "--precision", "3"))
    if fails:
        raise GateError("; ".join(fails))


def machine_info(root: Path, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": dict.fromkeys(THREAD_VARS, "1"),
        "commit": commit,
        "seed": seed,
    }


def read_reports(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_values(workload: Workload, values: dict, inputs: Inputs,
                 rng: np.random.Generator) -> list[str]:
    if workload.kind == "pcc":
        return checks.check_pcc(values, inputs)
    if workload.kind == "hllm":
        return checks.check_hllm(values, inputs)
    return checks.check_lossmatrix(values, inputs, rng)


def work_done(workload: Workload, values: dict) -> int:
    """Merges, loss pairs scored, or candidate fits, per ``work_unit``."""
    if workload.kind == "pcc":
        return sum(1 for s in values["steps"] if s["d"] is not None and not s["terminal"])
    if workload.kind == "hllm":
        return sum(1 for row in values["rows"] for g in row["generators"] if len(g) >= 2)
    return sum(len(entries) for entries in values["pairs"])


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest of p50/p75/p80/p90/p95/p99/p99.9 with at least ten
    samples beyond it."""
    label = 50.0
    for p in (75.0, 80.0, 90.0, 95.0, 99.0, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            label = p
    return float(np.percentile(samples, label)), f"p{label:g}"


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name, and per ``name.axis<k>`` for spans
    that carry an axis."""
    out: dict[str, float] = {}
    for s in spans:
        keys = [s["name"]] + ([f"{s['name']}.axis{s['axis']}"] if "axis" in s else [])
        for key in keys:
            out[key] = out.get(key, 0.0) + (s["end"] - s["start"])
    return out


def span_samples(traced: list[tuple[Child, dict]], name: str) -> list[float]:
    return [(s["end"] - s["start"]) * 1e3 * c.speed
            for c, r in traced for s in r["spans"] if s["name"] == name]


def scaled_totals(traced: list[tuple[Child, dict]]) -> list[dict[str, float]]:
    """:func:`span_totals` of each traced child, at reference speed."""
    return [{k: v * c.speed for k, v in span_totals(r["spans"]).items()} for c, r in traced]


def scaled_wall(children: list[tuple[Child, dict]]) -> float:
    return _median([c.wall_s * c.speed for c, _ in children])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end_metrics(workload: Workload, plain: list[tuple[Child, dict]]) -> dict[str, Metric]:
    n = len(plain)
    raw = {
        "wall_s": [c.wall_s for c, _ in plain],
        "setup_s": [r["phases"]["setup_s"] for _, r in plain],
        "solve_s": [r["phases"]["solve_s"] for _, r in plain],
        "cpu_s": [c.cpu_s for c, _ in plain],
    }
    per_run = {name: [t * c.speed for t, (c, _) in zip(times, plain)]
               for name, times in raw.items()}
    per_run["work_per_s"] = [work_done(workload, r["values"]) / t
                             for t, (_, r) in zip(per_run["solve_s"], plain)]
    per_run["peak_rss_mb"] = [r["peak_rss_mb"] for _, r in plain]
    metrics = {name: Metric(statistics.median(per_run[name]), unit, n, samples=per_run[name])
               for name, unit in END_TO_END.items()}
    for name, times in raw.items():
        metrics[name].note = f"raw median {statistics.median(times):.6g} s"
    metrics["work_per_s"].note = f"{workload.work_unit} per second of solve_s"
    return metrics


# per-layer counts fixed by the input and select_merge's documented rules
# rather than counted inside the program: no change to the program's
# kernels can move them, so they are no evidence of a gain
DERIVED = {
    "pcc.candidates_scored": "derived from the table shape at each step by select_merge's "
                             "eligibility rule, not counted in the program",
    "pcc.merges_per_candidate": "pcc.merges over the derived pcc.candidates_scored",
    "table.apply_partition_calls": "one call per merge in the replay, equal to pcc.merges",
}


def per_layer_metrics(plain: list[tuple[Child, dict]],
                      traced: list[tuple[Child, dict]]) -> dict[str, Metric]:
    n = len(traced)
    totals = scaled_totals(traced)
    counts = [r["counts"] for _, r in traced]

    def total(name):
        return _median([t.get(name, 0.0) for t in totals])

    def count(name):
        return _median([c[name] for c in counts])

    def rate(num, den):
        return _median([_ratio(c[num], t.get(den, 0.0)) for c, t in zip(counts, totals)])

    values = {
        "io.read_counts_s": total("io.read_counts"),
        "io.rows_per_s": rate("rows", "io.read_counts"),
        "table.build_table_s": total("table.build_table"),
        "table.apply_partition_s": total("table.apply_partition"),
        "table.apply_partition_calls": count("apply_partition_calls"),
        "infoloss.loss_matrix_s": total("infoloss.loss_matrix"),
        **{f"infoloss.axis{k}_s": total(f"infoloss.loss_matrix.axis{k}")
           for k in range(MAX_AXES)},
        "infoloss.pairs_scored": count("pairs_scored"),
        "infoloss.pairs_per_s": rate("pairs_scored", "infoloss.loss_matrix"),
        "pcc.select_merge_s": total("pcc.select_merge"),
        "pcc.merges": count("merges"),
        "pcc.candidates_scored": count("candidates_scored"),
        "pcc.merges_per_candidate": _median([_ratio(c["merges"], c["candidates_scored"])
                                             for c in counts]),
        "hllm.ipf_fit_s": total("hllm.ipf_fit"),
        "hllm.fits": count("fits"),
        "hllm.ipf_iterations": count("ipf_iterations"),
        "hllm.ms_per_iteration": _median([_ratio(t.get("hllm.ipf_fit", 0.0) * 1e3,
                                                 c["ipf_iterations"])
                                          for c, t in zip(counts, totals)]),
        "hllm.unconverged_fits": count("unconverged_fits"),
        "report.render_s": total("report.render"),
        "report.bytes": count("report_bytes"),
        "trace.overhead_ratio": _ratio(scaled_wall(traced), scaled_wall(plain)),
    }
    sizes = dict.fromkeys(values, n)
    notes = {"trace.overhead_ratio": f"{n} traced / {len(plain)} untraced runs", **DERIVED}
    for name in ("pcc.select_merge", "hllm.step"):
        samples = span_samples(traced, name)
        values[f"{name}_ms_p50"] = _median(samples)
        values[f"{name}_ms_tail"], notes[f"{name}_ms_tail"] = \
            tail(samples) if samples else (0.0, "no samples")
        sizes[f"{name}_ms_p50"] = sizes[f"{name}_ms_tail"] = len(samples)
    return {name: Metric(values[name], unit, sizes[name], notes.get(name, ""))
            for name, unit in PER_LAYER.items()}


# workload kind -> (layer spans, the traced run's span for the phase, least
# share, claim); "load_table" and "solve" time what setup_s and solve_s time
PREDICTIONS = {
    "pcc": (("pcc.select_merge",), "solve", 0.5, "select_merge takes most of solve_s"),
    "lossmatrix": (("io.read_counts", "table.build_table"), "load_table", 0.9,
                   "read_counts + build_table make up setup_s"),
    "hllm": (("hllm.ipf_fit",), "solve", 0.5, "ipf_fit takes most of solve_s"),
}


def predictions(workload: Workload, traced: list[tuple[Child, dict]],
                plain: list[tuple[Child, dict]]) -> list[str]:
    """The per-layer split the benchmark was built to show, checked against
    the traced runs.  A miss is reported, not hidden."""
    spans, phase, least, claim = PREDICTIONS[workload.kind]
    totals = scaled_totals(traced)
    share = _median([sum(t.get(name, 0.0) for name in spans) / t[phase] for t in totals])
    render = _median([t.get("report.render", 0.0) for t in totals])
    wall = scaled_wall(plain)
    return [
        f"{claim}: {share:.1%} ({'holds' if share >= least else 'DOES NOT HOLD'}, "
        f"predicted >= {least:.0%})",
        f"report rendering is under 1% of wall_s: {render / wall:.2%} "
        f"({'holds' if render < 0.01 * wall else 'DOES NOT HOLD'})",
    ]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path, work_dir: Path) -> Outcome:
    deadline = time.monotonic() + DEADLINE_S
    # the harness and its children share one CPU, so the probes between
    # children measure the speed of the CPU the children ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    gate_dir = work_dir / "gate"
    gate_dir.mkdir()
    published_value_gate(gate_dir)
    inputs = generate(workload, seed)
    data = work_dir / f"{workload.name}.csv"
    write_csv(inputs, data)
    env = child_env(root)

    ref_dir = work_dir / "cli"
    ref_dir.mkdir()
    ref = run_child([sys.executable, "-m", "pcctab.cli", workload.kind, "--data", str(data),
                     "--out", str(ref_dir)], env, work_dir / "cli.err", deadline)
    attempted, failed, failures = 1, 0, []
    if ref.code != 0:
        failed += 1
        failures.append(f"cli reference exited {ref.code}: {ref.stderr}")
    reference = read_reports(ref_dir)

    plain: list[tuple[Child, dict]] = []
    traced: list[tuple[Child, dict]] = []
    # a traced run alternates plain and traced children, starting plain;
    # no child starts that would likely end after the window
    min_runs = 2 if trace else MIN_PLAIN_RUNS
    durations: list[float] = []
    probes = [speed.probe()]
    start = time.perf_counter()
    i = 0
    while i < min_runs or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        is_traced = trace and i % 2 == 1
        out_dir = work_dir / f"run{i}"
        out_dir.mkdir()
        result_path = work_dir / f"run{i}.json"
        child = run_child([sys.executable, str(CHILD), workload.kind, str(data), str(out_dir),
                           str(result_path), "1" if is_traced else "0"],
                          env, work_dir / f"run{i}.err", deadline)
        probes.append(speed.probe())
        child.speed = speed.factor(probes[-2], probes[-1])
        durations.append(time.perf_counter() - began)
        attempted += 1
        fails = []
        if child.code != 0:
            fails.append(f"run {i} exited {child.code}: {child.stderr}")
        else:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            fails += checks.check_reports(read_reports(out_dir), reference)
            if is_traced:
                fails += checks.check_replay(result["values"], plain[0][1]["values"]
                                             if plain else {}, workload.kind)
            else:
                fails += check_values(workload, result["values"], inputs,
                                      np.random.default_rng([seed, i]))
        if fails:
            failed += 1
            failures += fails
        else:
            (traced if is_traced else plain).append((child, result))
        shutil.rmtree(out_dir)
        i += 1

    metrics: dict[str, Metric] = {}
    notes: list[str] = []
    if plain and (traced or not trace):
        if trace:
            metrics = per_layer_metrics(plain, traced)
            notes = predictions(workload, traced, plain)
        else:
            metrics = end_to_end_metrics(workload, plain)
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "loop": "closed, one client, one child process at a time",
        "machine": machine_info(root, seed),
        "input": describe(inputs, data),
        "metrics": {k: vars(m) for k, m in metrics.items()},
        "failed_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "failures": failures, "predictions": notes,
        "speed": {"reference_s": speed.REFERENCE_S, "probes_s": probes,
                  "plain": [{"wall_s": c.wall_s, "cpu_s": c.cpu_s, "factor": c.speed}
                            for c, _ in plain],
                  "traced": [{"wall_s": c.wall_s, "cpu_s": c.cpu_s, "factor": c.speed}
                             for c, _ in traced]},
        "spans": traced[0][1]["spans"] if traced else [],
    }
    return Outcome(metrics, attempted, failures, failed, record)


def result_line(outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.failed == 0 and bool(outcome.metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in outcome.metrics.items()},
    })


def report_lines(outcome: Outcome) -> list[str]:
    rec = outcome.record
    lines = [f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
             f"({rec['loop']})",
             "input: " + json.dumps(rec["input"]),
             "machine: " + json.dumps(rec["machine"]),
             f"speed: probe median {statistics.median(rec['speed']['probes_s']):.4g} s over "
             f"{len(rec['speed']['probes_s'])} probes; times below are at the reference "
             f"probe time, {rec['speed']['reference_s']:g} s"]
    for name, m in outcome.metrics.items():
        note = f"  [{m.note}]" if m.note else ""
        lines.append(f"  {name:30s} {m.value:14.6g} {m.unit:6s} n={m.n}{note}")
    lines.append(f"  {'failed_ratio':30s} {rec['failed_ratio']:14.6g} {'ratio':6s} "
                 f"n={outcome.attempted}")
    lines += [f"prediction: {p}" for p in rec["predictions"]]
    lines += [f"FAILED: {f}" for f in outcome.failures]
    return lines


def run_one(name: str, seed: int, seconds: float, trace: int, base: Path) -> int:
    """One run of one workload: print its report and result line, keep its record."""
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        outcome = run_workload(WORKLOADS[name], seed, seconds, bool(trace), ROOT, work_dir)
    except GateError as exc:
        print(f"error: published-value gate failed, refusing to report: {exc}",
              file=sys.stderr)
        return 3
    except _Timeout:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    records = base / "records"
    records.mkdir(exist_ok=True)
    (records / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(outcome.record, indent=1), encoding="utf-8")
    print("\n".join(report_lines(outcome)))
    print(result_line(outcome), flush=True)
    return 0 if outcome.failed == 0 and outcome.metrics else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all: every workload untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pcctab" / "__init__.py").is_file():
        print(f"error: no pcctab sources under {ROOT / 'src'}; run from the root of a "
              "pcctab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace, base)
    codes = [run_one(name, args.seed, args.seconds, trace, base)
             for name in WORKLOADS for trace in (0, 1)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
