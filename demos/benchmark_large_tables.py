"""Benchmark harness for large sparse tables.

Two timed workloads run by default:

* a full collapsing run on a dense 11x5x11x16 table (9,680 cells), the
  size of a small census extract; and
* one full pairwise loss-matrix pass per variable on a 100x100x100 table
  (a million cells) holding 100,000 nonzero counts.

For nominal variables step cost grows with the square of the category
count, so wide variables dominate.  Pass --side, --dims and --nnz to probe
larger shapes on your own hardware; nothing here is asserted, timings are
just printed.
"""

import argparse
import time

import numpy as np

from pcctab import SparseTable, loss_matrix, run_pcc


def time_pcc(shape, seed=88):
    rng = np.random.default_rng(seed)
    arr = rng.integers(1, 60, size=shape).astype(float)
    t = SparseTable.from_dense(arr)
    start = time.perf_counter()
    trace = run_pcc(t)
    elapsed = time.perf_counter() - start
    steps = sum(1 for s in trace.steps if s.r > 0 and not s.terminal)
    print(f"pcc {shape}: {steps} merges, final dev {trace.final_dev:.1f}, "
          f"{elapsed:.2f} s")


def time_loss_pass(shape, nnz, seed=88):
    rng = np.random.default_rng(seed)
    cells = int(np.prod(shape))
    flat = rng.choice(cells, size=nnz, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    counts = rng.integers(1, 10, size=nnz).astype(float)
    t = SparseTable(shape, coords, counts)
    print(f"loss-matrix pass on {shape} with {t.nnz} nonzeros:")
    for dim in range(len(shape)):
        start = time.perf_counter()
        m = loss_matrix(t, dim)
        elapsed = time.perf_counter() - start
        print(f"  variable {dim}: {m.losses.size} pairs in {elapsed:.2f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--side", type=int, default=100,
                        help="categories per variable for the sparse pass")
    parser.add_argument("--dims", type=int, default=3)
    parser.add_argument("--nnz", type=int, default=100_000)
    args = parser.parse_args()

    time_pcc((11, 5, 11, 16))
    time_loss_pass((args.side,) * args.dims, args.nnz)


if __name__ == "__main__":
    main()
