"""Command-line interface.

Subcommands mirror the library's reports: ``pcc`` (collapsing trace),
``lossmatrix`` (pairwise loss per variable), ``hllm`` (model fit or
backward trace), ``ratios`` (Pearson ratios), ``curve`` (deviance versus
parameters for both model families), and ``oracle`` (exhaustive partition
search on small tables).  Reports are written into ``--out`` as TSV/CSV and
are byte-identical across runs for the same input.

Exit codes: 0 success, 1 bad input, 2 infeasible size (an oracle
enumeration over its cap, or a table too large to fit densely), 3 a fit
did not converge (reports are still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .datasets import dataset_path
from .errors import FeasibilityError, InputError, PcctabError
from .hllm import ModelSpec, backward_select, ipf_fit, pearson_ratios
from .infoloss import loss_matrix
from .io import load_table, read_config
from .pcc import exhaustive_partition_search, run_pcc
from .report import (
    render_backward_trace,
    render_curve,
    render_fit,
    render_loss_matrix,
    render_oracle,
    render_pcc_trace,
    render_ratios,
)
from .table import FIXED, _check_dense, apply_partition

__all__ = ["main", "entry"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; route them through InputError so
    # all bad-input paths share exit code 1
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pcctab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True,
                        help="counts CSV (or a bundled name: wermuth_cox, christensen_abortion)")
    common.add_argument("--config", default=None, help="JSON scheme/treatment config")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--precision", type=int, default=2,
                        help="decimal places for deviances (ratios/R^2 use one more)")
    # each of these options goes only to the subcommands that read it; the
    # others reject it as an unrecognized argument
    stop = argparse.ArgumentParser(add_help=False)
    stop.add_argument("--stop-quotient", type=float, default=None,
                      help="stop collapsing at the first step whose G2/df exceeds this")
    matrices = argparse.ArgumentParser(add_help=False)
    matrices.add_argument("--loss-matrices", action="store_true",
                          help="also write the loss matrices at every step")
    generators = argparse.ArgumentParser(add_help=False)
    generators.add_argument("--generators", default=None,
                            help="bracketed model terms, e.g. \"[oa][ro][s]\"")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options, help_text in [
        ("pcc", [stop, matrices], "sequential paired-category collapsing trace"),
        ("lossmatrix", [], "pairwise aggregation loss matrix per variable"),
        ("hllm", [generators], "log-linear fit (--generators) or backward-selection trace"),
        ("ratios", [generators], "Pearson ratios against independence or a fitted model"),
        ("curve", [stop], "deviance-versus-parameters series for both model families"),
        ("oracle", [], "exhaustive partition search (small tables only)"),
    ]:
        sub.add_parser(name, parents=[common, *options], help=help_text)
    return parser


def _resolve_data(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    if arg in ("wermuth_cox", "christensen_abortion"):
        return Path(str(dataset_path(arg)))
    raise InputError(f"data file {arg} does not exist")


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    print(path)
    return path


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # counts whose sums pass the float range make numpy warn on the way
        # to a non-finite statistic, which the report then refuses (exit 1)
        with np.errstate(all="ignore"):
            return _run(args)
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PcctabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    """Run one parsed command: write its reports and return the exit code."""
    precision = args.precision
    if precision < 0:
        raise InputError("--precision must be nonnegative")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = read_config(args.config) if args.config else None
    scheme, table = load_table(_resolve_data(args.data), config)
    not_converged = False

    def fit_generators():
        # the --generators model fitted by IPF; one that does not converge sets exit code 3
        nonlocal not_converged
        fit = ipf_fit(table, ModelSpec.from_brackets(args.generators, scheme.names))
        not_converged |= not fit.converged
        return fit

    if args.command == "pcc":
        trace = run_pcc(table, scheme.treatments, stop_quotient=args.stop_quotient)
        _write(out_dir, "pcc_trace.tsv", render_pcc_trace(trace, precision))
        if args.loss_matrices:
            for r in range(len(trace.steps)):
                if trace.steps[r].terminal:
                    continue
                state = apply_partition(table, trace.partition_at(r))
                for k, var in enumerate(scheme.variables):
                    if var.treatment == FIXED or state.shape[k] < 2:
                        continue
                    m = loss_matrix(state, k, var.treatment)
                    labels = [" ".join(var.categories[c] for c in grp)
                              for grp in trace.partition_at(r).groups(k)]
                    _write(out_dir, f"pcc_loss_r{r:02d}_{var.name}.tsv",
                           render_loss_matrix(m, labels, precision))

    elif args.command == "lossmatrix":
        wrote = False
        for k, var in enumerate(scheme.variables):
            if var.treatment == FIXED:
                continue
            m = loss_matrix(table, k, var.treatment)
            _write(out_dir, f"lossmatrix_{var.name}.tsv",
                   render_loss_matrix(m, list(var.categories), precision))
            wrote = True
        if not wrote:
            raise InputError("all variables are fixed; nothing to report")

    elif args.command == "hllm":
        if args.generators:
            _write(out_dir, "hllm_fit.tsv", render_fit(fit_generators(), scheme.names, precision))
        else:
            trace = backward_select(table)
            not_converged |= any(not s.converged for s in trace.steps)
            _write(out_dir, "hllm_backward.tsv",
                   render_backward_trace(trace, scheme.names, precision))

    elif args.command == "ratios":
        fit = fit_generators() if args.generators else None
        _write(out_dir, "ratios.tsv", render_ratios(pearson_ratios(table, fit), scheme, precision))

    elif args.command == "curve":
        # a table too large to fit densely fails at once, not after a long
        # collapse
        _check_dense(table.shape)
        trace = run_pcc(table, scheme.treatments, stop_quotient=args.stop_quotient)
        hllm_trace = backward_select(table)
        not_converged |= any(not s.converged for s in hllm_trace.steps)
        _write(out_dir, "curve.csv",
               render_curve([("pcc", trace.curve()), ("hllm", hllm_trace.curve())],
                            precision))

    elif args.command == "oracle":
        results = exhaustive_partition_search(table, scheme.treatments)
        _write(out_dir, "oracle.tsv", render_oracle(results, precision))

    return 3 if not_converged else 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
