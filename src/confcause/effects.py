"""Interventional effect estimation and root-cause ranking.

Given a mixed causal graph and the observations it was learned from, this
module extracts every admissible causal path into a performance objective,
scores each path by the mean adjusted treatment effect of its edges, and
ranks the originating configuration options. Effects are estimated by
backdoor adjustment: stratify on the treatment's graph parents and average
the stratum-conditional outcome means, weighted by stratum probability.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import (Dataset, Kind, Role, _check_bins, _equal_frequency_codes, _Record,
                      _record_json, discretize)
from .discovery import Pag, _simple_paths, fci
from .errors import (
    EmptyDataset,
    InputError,
    NoPathsFound,
    UnidentifiableEffect,
)
from .resolve import Admg, resolve_edges
from .stats import _joint_codes, _levels

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelParams:
    """Knobs shared by structure learning and resolution. Construction
    checks ``theta_ratio`` and ``bins``; ``fci`` checks ``alpha`` and
    ``max_cond_size`` before its search."""

    alpha: float = 0.05
    max_cond_size: int = 3
    theta_ratio: float = 0.8
    bins: int = 5

    def __post_init__(self) -> None:
        if not self.theta_ratio > 0.0:
            raise InputError(
                f"theta_ratio must be positive, got {self.theta_ratio}",
                theta_ratio=self.theta_ratio,
            )
        _check_bins(self.bins)


@dataclass(frozen=True)
class AceEstimate:
    """Average causal effect of a treatment on an outcome: the mean absolute
    difference of adjusted outcome means over all unordered pairs of observed
    treatment levels."""

    treatment: str
    outcome: str
    value: float
    adjustment_set: frozenset[str]
    n_treatment_levels: int


@dataclass(frozen=True)
class CausalPath(_Record):
    """A directed-or-confounded chain from an option into an objective."""

    vertices: tuple[str, ...]
    objective: str
    path_ace: float
    edge_aces: tuple[float, ...]


@dataclass(frozen=True)
class Diagnosis:
    """Ranked explanation of one faulty objective."""

    fault_objective: str
    ranked_paths: tuple[CausalPath, ...]
    root_causes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        """The fields, the objective and paths under their file keys, and the method."""
        out = _record_json(self)
        return {"method": "care", "objective": out.pop("fault_objective"),
                "paths": out.pop("ranked_paths"), **out}


# --------------------------------------------------------------------------
# path extraction


def extract_paths(admg: Admg, objective: str) -> list[tuple[str, ...]]:
    """All maximal simple paths that end at ``objective`` and originate at a
    parentless configuration option.

    Paths are walked backwards over directed parents and bidirected
    neighbours; interior vertices must be metrics (an option is always an
    origin, an objective only a terminus). Complete paths whose origin is not
    a parentless option are discarded with a log entry.
    """
    meta = admg.meta(objective)
    if meta.role != Role.OBJECTIVE:
        raise InputError(
            f"{objective!r} has role {meta.role.value}, expected objective",
            vertex=objective,
        )
    roles = {v.name: v.role for v in admg.vertices}

    def steps(path: list[str]) -> list[str] | None:
        """The walk's next candidates: the non-objective parents and spouses
        of its last vertex. None at an option or a dead end."""
        if roles[path[-1]] == Role.OPTION:
            return None
        ext = sorted(p for p in {*admg.parents(path[-1]), *admg.spouses(path[-1])}
                     if roles[p] != Role.OBJECTIVE)
        return ext if set(ext).difference(path) else None

    walks = [tuple(reversed(path)) for path in _simple_paths([objective], steps)]
    kept = sorted(w for w in walks if roles[w[0]] == Role.OPTION and not admg.parents(w[0]))
    discarded = len(walks) - len(kept)
    if discarded:
        logger.info(
            "discarded %d backward walks not originating at a parentless option",
            discarded,
        )
    return kept


# --------------------------------------------------------------------------
# effect estimation


def _coded_column(ds: Dataset, name: str, bins: int) -> np.ndarray:
    """Integer level codes for stratification; continuous columns are binned
    into equal-frequency levels, discrete kinds pass through."""
    if ds.meta(name).kind != Kind.CONTINUOUS:
        return ds.column(name).astype(np.int64)
    return _equal_frequency_codes(ds.column(name), bins, name)


def ace_edge(
    ds: Dataset,
    admg: Admg,
    treatment: str,
    outcome: str,
    bins: int = 5,
    *,
    _codes: dict[str, np.ndarray] | None = None,
) -> AceEstimate:
    """Backdoor-adjusted average causal effect of ``treatment`` on ``outcome``.

    The adjustment set is the treatment's directed parents in the graph. For
    every unordered pair of observed treatment levels the absolute difference
    of standardized outcome means is computed; their mean is the estimate.
    Outcome values are used raw — never discretized. Strata with no data for
    a given treatment level are skipped and the stratum weights renormalized.

    Raises UnidentifiableEffect when the treatment shares a bidirected edge
    with the outcome or with an ancestor of the outcome (no adjustment set
    can close that confounding), and EmptyDataset when there are no rows.

    ``_codes`` keeps the level codes of each column across calls on the same
    dataset and ``bins``, so that :func:`cpwe` bins each column once.
    """
    for name in (treatment, outcome):
        admg.meta(name)
        ds.meta(name)
    if treatment == outcome:
        raise InputError("treatment and outcome must differ", vertex=treatment)
    blocked = admg.ancestors(outcome) | {outcome}
    for w in admg.spouses(treatment):
        if w in blocked:
            raise UnidentifiableEffect(
                f"{treatment!r} is confounded with {w!r}, which reaches {outcome!r}",
                treatment=treatment, outcome=outcome, confounded_with=w,
            )

    if ds.sample_count == 0:
        raise EmptyDataset("no rows to estimate an effect from", treatment=treatment)

    adjustment = admg.parents(treatment)
    codes = {} if _codes is None else _codes
    for name in (treatment, *adjustment):
        if name not in codes:
            codes[name] = _coded_column(ds, name, bins)
    levels, level_of_row = _levels(codes[treatment])
    y = ds.column(outcome).astype(np.float64, copy=False)

    if adjustment:
        cell_of_row = _joint_codes(np.stack([codes[a] for a in adjustment]).T)
        cell_counts = np.bincount(cell_of_row)
        cell_weights = cell_counts / cell_counts.sum()
    else:
        cell_of_row = np.zeros(ds.sample_count, dtype=np.int64)
        cell_weights = np.ones(1)

    # a stable sort groups the rows of each (level, cell) in their original
    # order, so every mean runs over the same elements in the same order as a
    # boolean-mask selection would; a stable sort's permutation is unique, so
    # keys that fit in 16 bits take numpy's radix sort
    group = level_of_row * cell_weights.shape[0] + cell_of_row
    if levels.shape[0] * cell_weights.shape[0] <= 1 << 16:
        group = group.astype(np.uint16)
    order = np.argsort(group, kind="stable")
    group, y = group[order], y[order]
    cuts = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), group.shape[0]]
    means = np.full((levels.shape[0], cell_weights.shape[0]), np.nan)
    for a, b in zip(cuts, cuts[1:]):
        means.flat[group[a]] = float(y[a:b].mean())

    adjusted = np.zeros(levels.shape[0])
    for li in range(levels.shape[0]):
        covered = ~np.isnan(means[li])
        weight = cell_weights[covered].sum()
        adjusted[li] = float((cell_weights[covered] * means[li, covered]).sum() / weight)

    if levels.shape[0] < 2:
        logger.info("treatment %r has a single observed level; effect is 0", treatment)
        value = 0.0
    else:
        diffs = [
            abs(adjusted[i] - adjusted[j])
            for i, j in itertools.combinations(range(levels.shape[0]), 2)
        ]
        value = float(np.mean(diffs))

    return AceEstimate(
        treatment=treatment,
        outcome=outcome,
        value=value,
        adjustment_set=frozenset(adjustment),
        n_treatment_levels=int(levels.shape[0]),
    )


def path_ace(vertices: Sequence[str], edge_aces: Sequence[float]) -> float:
    """Mean of the per-edge effect magnitudes along a path."""
    if len(edge_aces) != len(vertices) - 1:
        raise InputError(
            f"path of {len(vertices)} vertices needs {len(vertices) - 1} edge "
            f"effects, got {len(edge_aces)}",
        )
    if not edge_aces:
        raise InputError("a path must contain at least one edge")
    return float(np.mean([abs(a) for a in edge_aces]))


# --------------------------------------------------------------------------
# ranking


def cpwe(
    ds: Dataset,
    admg: Admg,
    objectives: Sequence[str] | None = None,
    top_k: int = 4,
    bins: int = 5,
) -> dict[str, Diagnosis]:
    """Rank causal paths per objective; an objective with no admissible paths
    maps to an empty diagnosis (single-objective callers treat that as an
    error, see :func:`diagnose`). Each path step's effect is estimated once
    per call, and each column binned once."""
    if top_k < 1:
        raise InputError(f"top_k must be >= 1, got {top_k}", top_k=top_k)
    if objectives is None:
        objectives = [v.name for v in admg.vertices if v.role == Role.OBJECTIVE]
    codes: dict[str, np.ndarray] = {}

    @functools.cache
    def step_effect(a: str, b: str) -> float:
        if (a, b) not in admg.directed:
            logger.info("edge %s-%s is pure confounding; no interventional "
                        "effect, scored as 0", a, b)
            return 0.0
        try:
            return ace_edge(ds, admg, a, b, bins=bins, _codes=codes).value
        except UnidentifiableEffect as exc:
            logger.warning("edge %s->%s unidentifiable (%s); scored as 0", a, b, exc)
            return 0.0

    diagnoses = {}
    for objective in sorted(objectives):
        scored = []
        for vertices in extract_paths(admg, objective):
            edge_vals = tuple(itertools.starmap(step_effect, zip(vertices, vertices[1:])))
            scored.append(
                CausalPath(vertices, objective, path_ace(vertices, edge_vals), edge_vals)
            )
        scored.sort(key=lambda p: (-p.path_ace, p.vertices))
        top = tuple(scored[:top_k])
        roots = tuple(dict.fromkeys(p.vertices[0] for p in top))
        diagnoses[objective] = Diagnosis(objective, top, roots)
    return diagnoses


def diagnose(
    ds: Dataset,
    admg: Admg,
    fault_objective: str,
    top_k: int = 4,
    bins: int = 5,
) -> Diagnosis:
    """Explain one faulty objective: top-k causal paths plus the deduplicated
    option origins in rank order. Raises NoPathsFound when no admissible path
    reaches the objective."""
    result = cpwe(ds, admg, [fault_objective], top_k=top_k, bins=bins)
    diag = result[fault_objective]
    if not diag.ranked_paths:
        raise NoPathsFound(
            f"no causal path from any option reaches {fault_objective!r}",
            objective=fault_objective,
        )
    return diag


# --------------------------------------------------------------------------
# learning pipeline


def learn_model(ds: Dataset, params: ModelParams = ModelParams()) -> tuple[Pag, Admg]:
    """Full structure pipeline: constraints from roles, discovery, resolution."""
    pag = fci(ds, alpha=params.alpha, max_cond_size=params.max_cond_size)
    ds_disc = discretize(ds, params.bins)
    admg = resolve_edges(pag, ds_disc, theta_ratio=params.theta_ratio)
    return pag, admg


def update_model(
    admg: Admg,
    old: Dataset,
    new_samples: Dataset,
    params: ModelParams = ModelParams(),
    prev_sepsets: Mapping[frozenset[str], frozenset[str]] | None = None,
) -> Admg:
    """Refresh a learned model with newly observed runs.

    The combined data is re-searched warm-started from the current adjacency
    structure: surviving edges are retested fully, previously separated pairs
    only at the conditioning sizes that separated them (when ``prev_sepsets``
    is supplied; at every size otherwise). An empty batch returns the input
    model unchanged.
    """
    if new_samples.sample_count == 0:
        return admg
    combined = old.concat(new_samples)
    warm = [frozenset((u, v)) for u, v in admg.directed] + list(admg.bidirected)
    pag = fci(
        combined,
        alpha=params.alpha,
        max_cond_size=params.max_cond_size,
        warm_adjacencies=warm,
        warm_sepsets=prev_sepsets,
    )
    ds_disc = discretize(combined, params.bins)
    return resolve_edges(pag, ds_disc, theta_ratio=params.theta_ratio)
