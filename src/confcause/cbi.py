"""Cooperative bug isolation baseline: correlation-based predicate ranking.

Mines boolean predicates over option columns, scores each by how
much observing it true increases the failure rate over the ambient failure
rate, and ranks options by their best predicate. Purely associational — no
graph, no adjustment — which is exactly what makes it a baseline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .dataset import Dataset, Kind, Role, _equal_frequency_edges
from .errors import EmptyDataset, InputError

logger = logging.getLogger(__name__)

MIN_OBSERVED = 5  # predicates observed fewer times are too noisy to rank


class Relation(str, Enum):
    GREATER_THAN = "greater_than"
    EQUALS = "equals"


@dataclass(frozen=True)
class Predicate:
    """A boolean condition on one column plus its observation counts."""

    variable: str
    relation: Relation
    threshold: float
    observed_count: int
    observed_true_count: int
    failing_observed_count: int
    failing_true_count: int

    def label(self) -> str:
        symbol = {Relation.GREATER_THAN: ">", Relation.EQUALS: "=="}[self.relation]
        return f"{self.variable} {symbol} {self.threshold:g}"


def _counts(
    truth: np.ndarray, failing: np.ndarray
) -> tuple[int, int, int, int]:
    observed = truth.shape[0]
    observed_true = int(truth.sum())
    failing_observed = int(failing.sum())
    failing_true = int((truth & failing).sum())
    return observed, observed_true, failing_observed, failing_true


def mine_predicates(ds: Dataset, fault_labels: np.ndarray) -> list[Predicate]:
    """Candidate predicates over every option column.

    Numeric columns yield greater-than predicates at each interior
    discretization edge (equal-frequency, five bins, so four predicates for a
    well-spread column); categorical and boolean columns yield one equality
    predicate per observed level.
    """
    failing = np.asarray(fault_labels, dtype=bool)
    if failing.shape != (ds.sample_count,):
        raise InputError(
            "fault_labels length must equal the dataset row count",
            expected=ds.sample_count, actual=int(failing.shape[0]),
        )
    out: list[Predicate] = []
    for meta in ds.variables:
        if meta.role != Role.OPTION:
            continue
        col = ds.column(meta.name)
        if meta.kind in (Kind.BOOLEAN, Kind.CATEGORICAL):
            for level in np.unique(col):
                truth = col == level
                out.append(
                    Predicate(
                        meta.name, Relation.EQUALS, float(level),
                        *_counts(truth, failing),
                    )
                )
        else:
            thresholds = _numeric_thresholds(ds, meta.name)
            for thr in thresholds:
                truth = col.astype(np.float64) > thr
                out.append(
                    Predicate(
                        meta.name, Relation.GREATER_THAN, float(thr),
                        *_counts(truth, failing),
                    )
                )
    return out


def _numeric_thresholds(ds: Dataset, name: str) -> list[float]:
    meta = ds.meta(name)
    if meta.kind == Kind.CONTINUOUS:
        # the interior edges of the 5-bin equal-frequency discretization
        return _equal_frequency_edges(ds.column(name), 5)[1:-1]
    # discrete: split between consecutive observed levels
    levels = np.unique(ds.column(name))
    return [float(v) for v in levels[:-1]]


def _two_sided_z(ci_level: float) -> float:
    return NormalDist().inv_cdf(0.5 + ci_level / 2.0)


def importance(pred: Predicate, ci_level: float = 0.95) -> float:
    """Harmonic mean of sensitivity-increase and failure coverage.

    Increase(P) = Failure(P) - Context(P), where Failure is the failure rate
    among runs with P true and Context the ambient failure rate. Predicates
    whose Increase lower confidence bound (normal approximation) does not
    clear zero score 0, as do predicates observed fewer than five times.
    """
    if not 0.0 < ci_level < 1.0:
        raise InputError(f"ci_level must be in (0, 1), got {ci_level}", ci_level=ci_level)
    if pred.observed_count <= 0:
        raise InputError("predicate was never observed", predicate=pred.label())
    if pred.observed_count < MIN_OBSERVED:
        return 0.0
    if pred.observed_true_count == 0:
        return 0.0
    failure = pred.failing_true_count / pred.observed_true_count
    context = pred.failing_observed_count / pred.observed_count
    increase = failure - context
    if increase <= 0.0:
        return 0.0
    se = math.sqrt(
        failure * (1.0 - failure) / pred.observed_true_count
        + context * (1.0 - context) / pred.observed_count
    )
    if increase - _two_sided_z(ci_level) * se <= 0.0:
        return 0.0
    if pred.failing_true_count <= 1 or pred.failing_observed_count <= 1:
        return 0.0  # log-coverage undefined or zero
    coverage = math.log(pred.failing_true_count) / math.log(pred.failing_observed_count)
    return 2.0 / (1.0 / increase + 1.0 / coverage)


def cbi_rank(
    ds: Dataset,
    fault_labels: np.ndarray,
    ci_level: float = 0.95,
) -> list[tuple[str, float]]:
    """Rank every option by its best predicate importance, descending;
    ties (including all-zero scores) break lexicographically. Raises
    EmptyDataset when there are no rows."""
    if ds.sample_count == 0:
        raise EmptyDataset("no rows to rank options on")
    preds = mine_predicates(ds, fault_labels)
    best: dict[str, float] = {name: 0.0 for name in ds.options}
    for pred in preds:
        score = importance(pred, ci_level)
        if score > best[pred.variable]:
            best[pred.variable] = score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def cbi_root_causes(ranking: list[tuple[str, float]], top_k: int = 4) -> list[str]:
    """Predicted root causes from a :func:`cbi_rank` ranking: the
    positive-importance options among its first ``top_k``, best first
    (zero-score options are never predicted)."""
    if top_k < 1:
        raise InputError(f"top_k must be >= 1, got {top_k}", top_k=top_k)
    return [name for name, score in ranking[:top_k] if score > 0.0]


def fault_labels_for(ds: Dataset, objective: str) -> np.ndarray:
    """Default fault rule shared with the benchmark: boolean objectives fail
    when false, continuous ones beyond their 99th percentile."""
    meta = ds.meta(objective)
    if meta.role != Role.OBJECTIVE:
        raise InputError(
            f"{objective!r} has role {meta.role.value}, expected objective",
            variable=objective,
        )
    col = ds.column(objective)
    if meta.kind == Kind.BOOLEAN:
        return col == 0
    cutoff = float(np.quantile(col.astype(np.float64), 0.99))
    return col.astype(np.float64) > cutoff
