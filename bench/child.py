"""One timed run of a workload, in a fresh process as a CLI user's run would be.

    python3 bench/child.py KIND CSV OUT_DIR RESULT_JSON TRACED

KIND is ``pcc``, ``lossmatrix`` or ``hllm``.  With TRACED=0 the process
does the work of ``pcctab KIND --data CSV --out OUT_DIR`` through the same
public calls the CLI makes, and stamps the clock between load, solve and
render.  With TRACED=1 it replays that work step by step from outside,
through the public functions of each layer, and records a span around
every call.  Either way it writes the reports into OUT_DIR and a JSON
result (phase times, full-precision values for the checks, counts, spans,
peak resident memory) to RESULT_JSON.  ``pcctab`` must be importable (the
parent sets PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from pathlib import Path

from pcctab import (
    FIXED,
    ORDINAL,
    BackwardStep,
    BackwardTrace,
    CategoryScheme,
    ModelSpec,
    Partition,
    PccStep,
    PccTrace,
    VariableDef,
    adjusted_rsq,
    apply_partition,
    backward_select,
    build_table,
    compose_partitions,
    ipf_fit,
    load_table,
    loss_matrix,
    read_counts,
    run_pcc,
    select_merge,
)
from pcctab.report import render_backward_trace, render_loss_matrix, render_pcc_trace


class Tracer:
    """Spans (name, start, end, parent index) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _loss_matrices(scheme: CategoryScheme, table,
                   span=lambda axis: contextlib.nullcontext()) -> list:
    out = []
    for k, var in enumerate(scheme.variables):
        if var.treatment != FIXED:
            with span(k):
                out.append(loss_matrix(table, k, var.treatment))
    return out


def _render(kind: str, scheme: CategoryScheme, solved) -> dict[str, str]:
    if kind == "pcc":
        return {"pcc_trace.tsv": render_pcc_trace(solved)}
    if kind == "hllm":
        return {"hllm_backward.tsv": render_backward_trace(solved, scheme.names)}
    variables = [v for v in scheme.variables if v.treatment != FIXED]
    return {f"lossmatrix_{v.name}.tsv": render_loss_matrix(m, list(v.categories))
            for v, m in zip(variables, solved)}


def _values(kind: str, scheme: CategoryScheme, solved) -> dict:
    """Full-precision results for the parent's checks, in one format for the
    plain run and the replay."""
    if kind == "pcc":
        return {"steps": [{"d": s.d, "key": s.key, "shape": s.shape, "dev": s.dev,
                           "dev_term": s.dev_term, "df_term": s.df_term, "dfmod": s.dfmod,
                           "dfres": s.dfres, "terminal": s.terminal} for s in solved.steps]}
    if kind == "hllm":
        return {"rows": [{"generators": s.spec.generators, "dev": s.dev, "dfmod": s.dfmod,
                          "dfres": s.dfres, "converged": s.converged} for s in solved.steps]}
    return {"labels": [list(v.categories) for v in scheme.variables],
            "pairs": [[[e.u, e.v, e.g2, e.df] for e in m.entries] for m in solved]}


def _write(out_dir: Path, reports: dict[str, str]) -> None:
    for name, text in reports.items():
        (out_dir / name).write_text(text, encoding="utf-8")


def plain_run(kind: str, csv: Path, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    scheme, table = load_table(csv)
    t1 = time.perf_counter()
    if kind == "pcc":
        solved = run_pcc(table, scheme.treatments)
    elif kind == "hllm":
        solved = backward_select(table)
    else:
        solved = _loss_matrices(scheme, table)
    t2 = time.perf_counter()
    reports = _render(kind, scheme, solved)
    t3 = time.perf_counter()
    _write(out_dir, reports)
    t4 = time.perf_counter()
    return {"phases": {"setup_s": t1 - t0, "solve_s": t2 - t1, "render_s": t3 - t2,
                       "write_s": t4 - t3},
            "values": _values(kind, scheme, solved)}


# --- traced replay

def eligible_pairs(shape, treatments) -> int:
    """How many pairs ``select_merge``'s documented eligibility rule admits
    on a table of this shape.  This is derived from the shape, not counted
    inside the program: a ``select_merge`` that scored fewer pairs (say, by
    reusing losses across steps) would not change it."""
    total = 0
    for k, r in enumerate(shape):
        other = math.prod(s for j, s in enumerate(shape) if j != k)
        if treatments[k] == FIXED or r < 2 or other < 2:
            continue
        total += r - 1 if treatments[k] == ORDINAL else math.comb(r, 2)
    return total


def _merge_step(shape, dim: int, u: int, v: int) -> Partition:
    keys = [tuple(range(s)) for s in shape]
    keys[dim] = tuple(u if c == v else (c if c < v else c - 1) for c in range(shape[dim]))
    return Partition(tuple(keys))


def replay_pcc(table, treatments, tr: Tracer, counts: dict) -> PccTrace:
    """The greedy collapse as ``run_pcc`` documents it, one public call at a time."""
    cells_minus_one = math.prod(table.shape) - 1
    current, cumulative = table, Partition.identity(table.shape)
    rows = [(None, None, table.shape, 0.0, 0, 0.0, 0, False)]
    partitions = [cumulative]
    dev, dfres = 0.0, 0
    while True:
        with tr.span("pcc.step"):
            counts["candidates_scored"] += eligible_pairs(current.shape, treatments)
            with tr.span("pcc.select_merge"):
                cand = select_merge(current, treatments)
            if cand is None:
                break
            step = _merge_step(current.shape, cand.dim, cand.u, cand.v)
            with tr.span("table.apply_partition"):
                current = apply_partition(current, step)
        counts["apply_partition_calls"] += 1
        counts["merges"] += 1
        cumulative = compose_partitions(cumulative, step)
        dev += cand.g2
        dfres += cand.df
        rows.append((cand.dim, cumulative.keys[cand.dim], current.shape, dev, dfres,
                     cand.g2, cand.df, False))
        partitions.append(cumulative)
    nonfixed = [k for k in range(table.ndim) if treatments[k] != FIXED]
    if nonfixed:
        d0 = nonfixed[0]
        df_term = math.prod(s for k, s in enumerate(current.shape) if k != d0) - 1
        rows.append((d0, cumulative.keys[d0], current.shape, dev, dfres, 0.0,
                     max(df_term, 0), True))
        partitions.append(cumulative)
    dev_last, dfres_last = rows[-1][3], rows[-1][4]
    steps = tuple(
        PccStep(r=r, d=d, key=key, shape=shape, dev=dv, dfmod=cells_minus_one - dr,
                dfres=dr, dev_term=term, df_term=dft,
                adj_rsq=adjusted_rsq(dv, dr, dev_last, dfres_last), terminal=terminal)
        for r, (d, key, shape, dv, dr, term, dft, terminal) in enumerate(rows))
    return PccTrace(steps=steps, partitions=tuple(partitions),
                    original_shape=table.shape, treatments=tuple(treatments))


def _fit(table, spec: ModelSpec, tr: Tracer, counts: dict):
    with tr.span("hllm.ipf_fit"):
        fit = ipf_fit(table, spec)
    counts["fits"] += 1
    counts["ipf_iterations"] += fit.iterations
    counts["unconverged_fits"] += not fit.converged
    return fit


def replay_hllm(table, tr: Tracer, counts: dict) -> BackwardTrace:
    """Backward selection as ``backward_select`` documents it: refit without
    each removable term, drop the smallest deviance increase per parameter,
    ties (1e-12 relative) to the first term."""
    spec = ModelSpec.saturated(table.ndim)
    fit = _fit(table, spec, tr, counts)
    rows = [(spec, fit, 0.0, 0)]
    while True:
        removable = [g for g in spec.generators if len(g) >= 2]
        if not removable:
            break
        best = None
        with tr.span("hllm.step"):
            for term in removable:
                with tr.span("hllm.remove"):
                    cand_spec = spec.remove(term)
                cand_fit = _fit(table, cand_spec, tr, counts)
                ddev = cand_fit.dev - rows[-1][1].dev
                ddf = math.prod(table.shape[k] - 1 for k in term)
                q = 0.0 if ddf == 0 else ddev / ddf
                if best is None or (q < best[0] and
                                    abs(q - best[0]) > 1e-12 * max(1.0, abs(q), abs(best[0]))):
                    best = (q, cand_spec, cand_fit, ddev, ddf)
        _, spec, fit, ddev, ddf = best
        rows.append((spec, fit, ddev, ddf))
    last = rows[-1][1]
    steps = tuple(
        BackwardStep(r=i, spec=s, dev=f.dev, dfmod=f.dfmod, dfres=f.dfres, dev_term=ddev,
                     df_term=ddf, adj_rsq=adjusted_rsq(f.dev, f.dfres, last.dev, last.dfres),
                     converged=f.converged)
        for i, (s, f, ddev, ddf) in enumerate(rows))
    return BackwardTrace(steps=steps, shape=table.shape)


def traced_run(kind: str, csv: Path, out_dir: Path) -> dict:
    tr = Tracer()
    counts = dict.fromkeys(["rows", "candidates_scored", "merges", "apply_partition_calls",
                            "pairs_scored", "fits", "ipf_iterations", "unconverged_fits",
                            "report_bytes"], 0)
    with tr.span("load_table"):
        with tr.span("io.read_counts"):
            names, categories, entries = read_counts(csv)
        scheme = CategoryScheme(tuple(VariableDef(name=n, categories=tuple(c))
                                      for n, c in zip(names, categories)))
        with tr.span("table.build_table"):
            table = build_table(scheme, entries)
    counts["rows"] = len(entries)
    del entries
    with tr.span("solve"):
        if kind == "pcc":
            solved = replay_pcc(table, scheme.treatments, tr, counts)
        elif kind == "hllm":
            solved = replay_hllm(table, tr, counts)
        else:
            solved = _loss_matrices(
                scheme, table, span=lambda k: tr.span("infoloss.loss_matrix", axis=k))
            counts["pairs_scored"] = sum(len(m.entries) for m in solved)
    with tr.span("report.render"):
        reports = _render(kind, scheme, solved)
    counts["report_bytes"] = sum(len(t.encode("utf-8")) for t in reports.values())
    _write(out_dir, reports)
    return {"values": _values(kind, scheme, solved), "counts": counts, "spans": tr.spans}


def peak_rss_mb() -> float:
    """This process's peak resident memory since it started the program.

    ``VmHWM`` counts only this program's own memory.  The kernel's rusage
    maximum does not: it also holds the parent's resident size at the fork
    that started this process, so it reads the harness, not pcctab.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    kind, csv, out_dir, result_path, traced = argv
    run = traced_run if traced == "1" else plain_run
    result = run(kind, Path(csv), Path(out_dir))
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
