"""Correctness checks on the program's outputs.

Each check returns a list of failure messages (empty when it passes).  The
reference numbers come from the benchmark's own dense numpy code over the
generated cells; nothing here calls pcctab, so the checks survive any
rewrite of the program's kernels.
"""

from __future__ import annotations

import math
import re

import numpy as np

from workloads import Inputs, label_index

# full-precision values must match the dense reference to this relative error
RTOL = 1e-9

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _g2(observed: np.ndarray, expected: np.ndarray) -> float:
    pos = observed > 0
    return 2.0 * float(np.sum(observed[pos] * np.log(observed[pos] / expected[pos])))


def mutual_independence_g2(inputs: Inputs) -> float:
    """G^2 of the mutual-independence model, on the dense table."""
    dense = np.zeros(inputs.shape)
    np.add.at(dense, tuple(inputs.coords.T), inputs.counts)
    n = dense.sum()
    expected = np.full(inputs.shape, n)
    for k in range(dense.ndim):
        margin = dense.sum(axis=tuple(j for j in range(dense.ndim) if j != k))
        view = [1] * dense.ndim
        view[k] = -1
        expected = expected * (margin / n).reshape(view)
    return _g2(dense, expected)


def pair_g2(inputs: Inputs, dim: int, u: int, v: int) -> float:
    """Independence G^2 of the dense 2 x rest table of categories u and v on
    ``dim`` (original indices).  Columns empty in both rows add nothing to
    G^2, so the rest axis keeps only columns holding a count."""
    cats = inputs.coords[:, dim]
    mask = (cats == u) | (cats == v)
    others = [k for k in range(len(inputs.shape)) if k != dim]
    flat = np.ravel_multi_index(tuple(inputs.coords[mask][:, k] for k in others),
                                tuple(inputs.shape[k] for k in others))
    _, col = np.unique(flat, return_inverse=True)
    table = np.zeros((2, col.max() + 1 if col.size else 0))
    np.add.at(table, ((cats[mask] == v).astype(int), col), inputs.counts[mask])
    n = table.sum()
    if n == 0:
        return 0.0
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    return _g2(table, expected)


def check_published(trace_rows: list[dict], fit_rows: list[dict]) -> list[str]:
    """The CLI's Wermuth-Cox reports: trace row 4 has deviance 35.69 and the
    main-effects fit has deviance 357.146 on 16 residual df."""
    fails = []
    dev4 = trace_rows[4].get("dev") if len(trace_rows) > 4 else None
    if dev4 != "35.69":
        fails.append(f"Wermuth-Cox trace row 4 deviance is {dev4}, published 35.69")
    fit = (fit_rows[0].get("dev"), fit_rows[0].get("dfres")) if fit_rows else None
    if fit != ("357.146", "16"):
        fails.append(f"Wermuth-Cox main-effects fit (dev, dfres) is {fit}, "
                     "published (357.146, 16)")
    return fails


def check_pcc(values: dict, inputs: Inputs) -> list[str]:
    """The step losses add up to the final deviance, and that deviance is the
    mutual-independence G^2: the exact decomposition of the collapse."""
    steps = values["steps"]
    final = steps[-1]["dev"]
    summed = math.fsum(s["dev_term"] for s in steps)
    fails = []
    if not _close(summed, final):
        fails.append(f"pcc: step losses sum to {summed!r}, final deviance is {final!r}")
    want = mutual_independence_g2(inputs)
    if not _close(final, want):
        fails.append(f"pcc: final deviance {final!r} != mutual-independence G2 {want!r}")
    return fails


def check_lossmatrix(values: dict, inputs: Inputs, rng: np.random.Generator,
                     per_axis: int = 4) -> list[str]:
    """A seeded sample of pairs on every axis matches :func:`pair_g2`."""
    fails = []
    if len(values["pairs"]) != len(inputs.shape):
        return [f"lossmatrix: {len(values['pairs'])} matrices for {len(inputs.shape)} axes"]
    for dim, (labels, entries) in enumerate(zip(values["labels"], values["pairs"])):
        r = inputs.shape[dim]
        if len(entries) != math.comb(r, 2):
            fails.append(f"lossmatrix: axis {dim} has {len(entries)} pairs, want {math.comb(r, 2)}")
            continue
        for i in rng.choice(len(entries), size=min(per_axis, len(entries)), replace=False):
            u, v, g2, df = entries[i]
            a, b = sorted((label_index(labels[u]), label_index(labels[v])))
            want = pair_g2(inputs, dim, a, b)
            want_df = math.prod(s for k, s in enumerate(inputs.shape) if k != dim) - 1
            if not _close(g2, want) or df != want_df:
                fails.append(f"lossmatrix: axis {dim} pair ({labels[u]}, {labels[v]}) "
                             f"g2={g2!r} df={df}, want {want!r} df={want_df}")
    return fails


def check_hllm(values: dict, inputs: Inputs) -> list[str]:
    """Every fit converged, the df split is exact, deviance never decreases,
    and the last row is the mutual-independence model."""
    rows = values["rows"]
    cells_minus_one = math.prod(inputs.shape) - 1
    fails = []
    for i, row in enumerate(rows):
        if not row["converged"]:
            fails.append(f"hllm: row {i} did not converge")
        if row["dfmod"] + row["dfres"] != cells_minus_one:
            fails.append(f"hllm: row {i} dfmod + dfres = {row['dfmod'] + row['dfres']}, "
                         f"want {cells_minus_one}")
    for i in range(1, len(rows)):
        if rows[i]["dev"] < rows[i - 1]["dev"]:
            fails.append(f"hllm: deviance falls from {rows[i - 1]['dev']!r} to "
                         f"{rows[i]['dev']!r} at row {i}")
    if [len(g) for g in rows[-1]["generators"]] != [1] * len(inputs.shape):
        fails.append(f"hllm: last row is {rows[-1]['generators']}, not main effects")
    want = mutual_independence_g2(inputs)
    if not _close(rows[-1]["dev"], want):
        fails.append(f"hllm: last deviance {rows[-1]['dev']!r} != "
                     f"mutual-independence G2 {want!r}")
    return fails


def check_reports(reports: dict[str, bytes], reference: dict[str, bytes]) -> list[str]:
    """Byte-identical to the CLI's reports for the same input, and finite."""
    fails = []
    if sorted(reports) != sorted(reference):
        fails.append(f"reports: wrote {sorted(reports)}, the CLI wrote {sorted(reference)}")
    for name, data in reports.items():
        if name in reference and data != reference[name]:
            fails.append(f"reports: {name} differs from the CLI's")
        if _NON_FINITE.search(data.decode("utf-8", errors="replace")):
            fails.append(f"reports: {name} holds nan or inf")
    return fails


def check_replay(replayed: dict, plain: dict, kind: str) -> list[str]:
    """The traced replay made the same merges, keys, losses or specs as the
    untraced run."""
    if replayed == plain:
        return []
    return [f"trace: replayed {kind} values differ from the untraced run"]
