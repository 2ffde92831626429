"""Preprocessing (Algorithm 1): the four optimality-preserving pruning
steps every MC³ solver starts with."""

from repro.core.kernels.pyjit import DominatedPruner
from repro.preprocess.decompose import partition_queries
from repro.preprocess.k2_prune import prune_k2_singletons
from repro.preprocess.pipeline import ALL_STEPS, PreprocessResult, preprocess
from repro.preprocess.report import PreprocessReport

__all__ = [
    "ALL_STEPS",
    "DominatedPruner",
    "PreprocessReport",
    "PreprocessResult",
    "partition_queries",
    "preprocess",
    "prune_k2_singletons",
]
