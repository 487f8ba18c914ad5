"""Deterministic text renderers for traces, matrices, ratios, and curves.

All numbers use fixed decimal precision (deviances default to 2 places,
adjusted R^2 and ratios to 3), so a report is byte-identical across runs.
A value that is not finite (counts so large that a statistic overflows)
raises :class:`PcctabError` instead of being printed as ``nan`` or ``inf``.
Composite cells such as key vectors and shapes are space-separated inside a
single tab-separated column.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import PcctabError
from .hllm import BackwardTrace, FitResult
from .infoloss import LossMatrix
from .pcc import PccTrace
from .table import CategoryScheme, Partition

__all__ = [
    "render_pcc_trace",
    "render_loss_matrix",
    "render_backward_trace",
    "render_fit",
    "render_ratios",
    "render_curve",
    "render_oracle",
]


def _dev(x: float, precision: int) -> str:
    if not math.isfinite(x):
        raise PcctabError(f"cannot report the non-finite value {x}: "
                          "the counts are too large for double precision")
    text = f"{x:.{precision}f}"
    # a rounding residue such as -6.7e-16 reads as zero, without a sign
    return text[1:] if text.startswith("-") and float(text) == 0 else text


def _rsq(x: float, precision: int) -> str:
    return _dev(x, precision + 1)


def render_pcc_trace(trace: PccTrace, precision: int = 2) -> str:
    lines = ["\t".join(["r", "d", "key", "dim", "dev", "dfmod", "dfres",
                        "dev_term", "df_term", "adj_rsq"])]
    for s in trace.steps:
        lines.append("\t".join([
            str(s.r),
            "" if s.d is None else str(s.d),
            "" if s.key is None else " ".join(str(g) for g in s.key),
            " ".join(str(x) for x in s.shape),
            _dev(s.dev, precision),
            str(s.dfmod),
            str(s.dfres),
            _dev(s.dev_term, precision),
            str(s.df_term),
            _rsq(s.adj_rsq, precision),
        ]))
    return "\n".join(lines) + "\n"


def render_loss_matrix(matrix: LossMatrix, labels: Sequence[str], precision: int = 2) -> str:
    """Upper-triangular grid of pairwise losses; all pairs of one variable
    share the same df, noted on the comment line."""
    grid = [[""] * matrix.size for _ in range(matrix.size)]
    for u, v, g2 in zip(matrix.us.tolist(), matrix.vs.tolist(), matrix.losses.tolist()):
        grid[u][v] = _dev(g2, precision)
    # a variable with no pairs reports df=0
    lines = [f"# mode={matrix.mode} df={matrix.df if matrix.losses.size else 0}"]
    lines.append("\t".join([""] + [labels[v] for v in range(matrix.size)]))
    for u in range(matrix.size):
        lines.append("\t".join([labels[u]] + grid[u]))
    return "\n".join(lines) + "\n"


def render_backward_trace(trace: BackwardTrace, names: Sequence[str], precision: int = 2) -> str:
    lines = ["\t".join(["r", "generators", "dev", "dfmod", "dfres",
                        "dev_term", "df_term", "adj_rsq"])]
    for s in trace.steps:
        lines.append("\t".join([
            str(s.r),
            s.spec.brackets(names),
            _dev(s.dev, precision),
            str(s.dfmod),
            str(s.dfres),
            _dev(s.dev_term, precision),
            str(s.df_term),
            _rsq(s.adj_rsq, precision),
        ]))
    return "\n".join(lines) + "\n"


def render_fit(fit: FitResult, names: Sequence[str], precision: int = 2) -> str:
    header = "\t".join(["generators", "dev", "dfmod", "dfres", "iterations", "converged"])
    row = "\t".join([
        fit.spec.brackets(names),
        _dev(fit.dev, precision),
        str(fit.dfmod),
        str(fit.dfres),
        str(fit.iterations),
        str(fit.converged).lower(),
    ])
    return header + "\n" + row + "\n"


def render_ratios(ratios: np.ndarray, scheme: CategoryScheme, precision: int = 2) -> str:
    """Two-way tables render as a labelled grid; higher-way tables in long
    format with one labelled row per cell."""
    ratios = np.asarray(ratios)
    if ratios.ndim == 2:
        rows_v, cols_v = scheme.variables[0], scheme.variables[1]
        lines = ["\t".join([""] + list(cols_v.categories))]
        for i, label in enumerate(rows_v.categories):
            lines.append("\t".join([label] + [_rsq(ratios[i, j], precision)
                                              for j in range(ratios.shape[1])]))
        return "\n".join(lines) + "\n"
    lines = ["\t".join(list(scheme.names) + ["ratio"])]
    for idx in np.ndindex(*ratios.shape):
        labels = [scheme.variables[k].categories[c] for k, c in enumerate(idx)]
        lines.append("\t".join(labels + [_rsq(ratios[idx], precision)]))
    return "\n".join(lines) + "\n"


def render_curve(series: Sequence[tuple[str, Sequence[tuple[int, float]]]],
                 precision: int = 2) -> str:
    """CSV of deviance-versus-parameters series, header ``series,dfmod,dev``."""
    lines = ["series,dfmod,dev"]
    for name, points in series:
        for dfmod, dev in points:
            lines.append(f"{name},{dfmod},{_dev(dev, precision)}")
    return "\n".join(lines) + "\n"


def render_oracle(results: dict[tuple[int, ...], tuple[Partition, float]],
                  precision: int = 2) -> str:
    """One row per collapsed shape: the minimal-loss partition and its loss,
    largest shapes first."""
    lines = ["\t".join(["shape", "loss", "keys"])]
    def cells(shape):
        p = 1
        for s in shape:
            p *= s
        return p
    for shape in sorted(results, key=lambda sh: (-cells(sh), tuple(-s for s in sh))):
        part, loss = results[shape]
        keys = "; ".join(" ".join(str(g) for g in key) for key in part.keys)
        lines.append("\t".join([
            " ".join(str(s) for s in shape),
            _dev(loss, precision),
            keys,
        ]))
    return "\n".join(lines) + "\n"
