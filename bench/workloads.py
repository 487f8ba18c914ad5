"""Workload definitions and the seeded input generator.

Each workload is one counts CSV that the program reads from disk.  The
generator derives the file from ``--seed`` alone, so one seed always gives
byte-identical files, and the program only ever sees the file.

The cells come from a fixed synthetic population, not from real data: no
large real table ships with pcctab (the bundled Wermuth-Cox and Christensen
tables have at most 72 cells).  The population is an assumption chosen so
that the tables are not flat: a mixture of a few latent classes, each with
its own Zipf-like profile over every variable's categories.  The marginals
are therefore skewed (in the generated tables the commonest category of a
variable holds 2 to 50 times the count of the rarest, more for variables
with more categories) and the variables are associated through the class.
Which cells are nonzero and their counts are drawn from this population
with the seed; the population itself does not depend on the seed, so every
seed poses a problem of the same size and much the same difficulty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # the pcctab subcommand whose work is timed
    shape: tuple[int, ...]
    nnz: int | None           # None: every cell is positive
    mean_count: float         # mean count of a nonzero cell
    work_unit: str            # what work_per_s counts
    why: str
    # draw the counts from a fixed stream and let the seed only relabel
    # categories and reorder rows, so every seed poses the same problem
    relabel_only: bool = False


# the synthetic population: latent class weights and the Zipf exponent of
# each class's category profile (an assumption, see the module docstring)
CLASS_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
ZIPF_EXPONENT = 0.8


# One child of each workload takes about 1.5 to 2 s on a 2-core 2.0 GHz
# VM, so a 40 s run takes about twenty samples for its medians; children
# of 6 to 8 s gave only three or four a run.
WORKLOADS = {w.name: w for w in [
    Workload("pcc-sparse4", "pcc", (20, 20, 15, 10), 15_000, 5.0, "merges",
             "long greedy collapse: select_merge dominates, so pair-loss kernel "
             "speed and reuse of losses across steps show here"),
    Workload("census-lossmatrix", "lossmatrix", (30, 30, 30, 30, 10, 10, 10), 60_000, 5.0,
             "pairs",
             "census-sized single loss pass: CSV parse and table build are a large share "
             "of the wall time, so I/O and memory changes show here"),
    # backward selection's path, and with it the number and size of the IPF
    # fits, depends on the counts: fresh counts for four seeds gave 402 to
    # 476 candidate fits, so this workload only relabels one fixed table
    Workload("hllm-dense6", "hllm", (3,) * 6, None, 20.0, "fits",
             "IPF-bound backward selection that never calls infoloss, so only hllm "
             "changes move it", relabel_only=True),
]}


@dataclass(frozen=True)
class Inputs:
    """The generated table as the benchmark knows it, independent of how
    the program will order categories when it reads the CSV."""

    shape: tuple[int, ...]
    coords: np.ndarray        # (nnz, K) original category indices
    counts: np.ndarray        # (nnz,) positive integers as float64

    @property
    def names(self) -> list[str]:
        return [f"v{k}" for k in range(len(self.shape))]


_LABEL = "c{:02d}"


def label_index(label: str) -> int:
    """Original category index of a label written by :func:`write_csv`."""
    return int(label[1:])


def profiles(shape: tuple[int, ...]) -> list[list[np.ndarray]]:
    """Per latent class, per variable: a Zipf-like profile over the
    variable's categories, each class ranking them in its own order."""
    rng = np.random.default_rng([len(shape), *shape])
    out = []
    for _ in CLASS_WEIGHTS:
        ranks = [rng.permutation(size) + 1.0 for size in shape]
        out.append([r ** -ZIPF_EXPONENT / np.sum(r ** -ZIPF_EXPONENT) for r in ranks])
    return out


def cell_probabilities(coords: np.ndarray, profs: list[list[np.ndarray]]) -> np.ndarray:
    """Population probability of each cell in ``coords`` (rows of category
    indices): the class-weighted mixture of independent profiles."""
    return sum(weight * np.prod([prof[k][coords[:, k]] for k in range(coords.shape[1])], axis=0)
               for weight, prof in zip(CLASS_WEIGHTS, profs))


def draw_cells(shape: tuple[int, ...], nnz: int, profs: list[list[np.ndarray]],
               rng: np.random.Generator) -> np.ndarray:
    """``nnz`` distinct flat cell indices, sorted: the first ``nnz``
    different cells met when drawing individuals from the population, which
    is sampling cells without replacement with chance in proportion to
    their probability."""
    drawn = np.empty(0, dtype=np.int64)
    while True:
        cls = rng.choice(len(CLASS_WEIGHTS), size=2 * nnz, p=CLASS_WEIGHTS)
        coords = np.empty((cls.size, len(shape)), dtype=np.int64)
        for c, prof in enumerate(profs):
            rows = np.flatnonzero(cls == c)
            for k, size in enumerate(shape):
                coords[rows, k] = rng.choice(size, size=rows.size, p=prof[k])
        drawn = np.concatenate([drawn, np.ravel_multi_index(tuple(coords.T), shape)])
        cells, first = np.unique(drawn, return_index=True)
        if cells.size >= nnz:
            return np.sort(cells[np.argsort(first, kind="stable")[:nnz]])


def generate(workload: Workload, seed: int) -> Inputs:
    """Draw the workload's cells and counts from ``seed``.

    A sparse workload keeps ``nnz`` distinct cells (:func:`draw_cells`); a
    dense one keeps every cell.  A kept cell's count is one plus a Poisson
    draw with mean in proportion to the cell's probability, scaled so the
    mean count is ``mean_count``.
    """
    rng = np.random.default_rng([seed, len(workload.shape), workload.nnz or 0])
    draw = np.random.default_rng(len(workload.shape)) if workload.relabel_only else rng
    profs = profiles(workload.shape)
    if workload.nnz is None:
        flat = np.arange(math.prod(workload.shape))
    else:
        flat = draw_cells(workload.shape, workload.nnz, profs, draw)
    coords = np.stack(np.unravel_index(flat, workload.shape), axis=1).astype(np.int64)
    probs = cell_probabilities(coords, profs)
    counts = (1 + draw.poisson(probs * ((workload.mean_count - 1.0) / probs.mean())))
    counts = counts.astype(np.float64)
    if workload.relabel_only:
        coords = np.stack([rng.permutation(size)[coords[:, k]]
                           for k, size in enumerate(workload.shape)], axis=1)
    for k, size in enumerate(workload.shape):
        if np.unique(coords[:, k]).size != size:
            raise ValueError(f"{workload.name}: seed {seed} leaves a category of v{k} empty")
    # rows go to disk in a seeded random order, so the program's
    # first-appearance category order differs from the original indices
    order = rng.permutation(flat.size)
    return Inputs(tuple(workload.shape), coords[order], counts[order])


def write_csv(inputs: Inputs, path: Path) -> None:
    row = ",".join([_LABEL] * len(inputs.shape)) + ",{}"
    lines = [",".join(inputs.names) + ",count"]
    lines.extend(row.format(*cells, count) for cells, count in
                 zip(inputs.coords.tolist(), inputs.counts.astype(np.int64).tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def describe(inputs: Inputs, path: Path) -> dict:
    cells = math.prod(inputs.shape)
    return {
        "shape": list(inputs.shape),
        "nnz": int(inputs.counts.size),
        "density": inputs.counts.size / cells,
        "total_count": int(inputs.counts.sum()),
        "file_bytes": path.stat().st_size,
    }
