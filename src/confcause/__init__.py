"""Causal diagnosis of misconfigured systems.

Learns a mixed causal graph over configuration options, runtime metrics and
performance objectives from observational samples, resolves the remaining
ambiguity with entropy heuristics, and ranks option-rooted causal paths by
their average causal effect on a faulty objective. A classical predicate
importance baseline and a synthetic ground-truth benchmark ship alongside.

The names below are the documented API; everything else is reached through
its submodule.
"""

from .cbi import cbi_rank
from .dataset import Dataset, Kind, Role, VariableMeta, load_dataset
from .discovery import Pag
from .effects import (
    CausalPath,
    Diagnosis,
    ModelParams,
    cpwe,
    diagnose,
    learn_model,
    update_model,
)
from .errors import EmptyResultError, EngineError, InputError, NoPathsFound
from .resolve import Admg
from .synthbench import curate_ground_truth, evaluate, generate_scm, run_benchmark, sample

__version__ = "0.1.0"

__all__ = [
    "Admg",
    "CausalPath",
    "Dataset",
    "Diagnosis",
    "EmptyResultError",
    "EngineError",
    "InputError",
    "Kind",
    "ModelParams",
    "NoPathsFound",
    "Pag",
    "Role",
    "VariableMeta",
    "cbi_rank",
    "cpwe",
    "curate_ground_truth",
    "diagnose",
    "evaluate",
    "generate_scm",
    "learn_model",
    "load_dataset",
    "run_benchmark",
    "sample",
    "update_model",
]
