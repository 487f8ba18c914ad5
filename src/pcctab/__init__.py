"""Summarise multi-way contingency tables by sequential paired-category
collapsing, and fit hierarchical log-linear models to the collapsed and
original tables."""

from .errors import DegeneracyError, FeasibilityError, InputError, PcctabError
from .hllm import (
    BackwardStep,
    BackwardTrace,
    FitResult,
    ModelSpec,
    backward_select,
    fit_hllpm,
    independence_expected,
    ipf_fit,
    model_df,
    pearson_ratios,
)
from .infoloss import (
    LossMatrix,
    PairLoss,
    loss_matrix,
    pair_loss,
    partition_deviance,
)
from .io import RunConfig, VariableConfig, load_table, read_config, read_counts, write_counts
from .pcc import (
    MergeCandidate,
    PccStep,
    PccTrace,
    adjusted_rsq,
    enumeration_size,
    exhaustive_partition_search,
    info_concentration,
    penalized_scores,
    run_pcc,
    select_merge,
)
from .table import (
    FIXED,
    NOMINAL,
    ORDINAL,
    CategoryScheme,
    Partition,
    SparseTable,
    VariableDef,
    apply_partition,
    build_table,
    compose_partitions,
    expand_model,
    marginal,
)

__version__ = "0.1.0"

__all__ = [
    "PcctabError", "InputError", "FeasibilityError", "DegeneracyError",
    "NOMINAL", "ORDINAL", "FIXED",
    "VariableDef", "CategoryScheme", "SparseTable", "Partition",
    "build_table", "marginal", "apply_partition", "expand_model",
    "compose_partitions",
    "pair_loss", "loss_matrix",
    "partition_deviance", "PairLoss", "LossMatrix",
    "MergeCandidate", "PccStep", "PccTrace", "select_merge", "run_pcc",
    "adjusted_rsq", "penalized_scores", "info_concentration",
    "exhaustive_partition_search", "enumeration_size",
    "ModelSpec", "FitResult", "BackwardStep", "BackwardTrace",
    "model_df", "ipf_fit", "backward_select", "fit_hllpm",
    "independence_expected", "pearson_ratios",
    "RunConfig", "VariableConfig", "read_config", "read_counts",
    "write_counts", "load_table",
]
