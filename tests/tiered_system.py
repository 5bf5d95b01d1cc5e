"""A test system with levers of graded strength, and the objective's
variance when only some of them move: the references of the rank-sensitivity
checks in ``test_acceptance.py`` and ``test_synthbench.py``."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from confcause.dataset import Kind, Role, VariableMeta
from confcause.synthbench import Mechanism, Scm, intervene, scm_from_mechanisms


def tiered_scm(
    seed: int, weights: Sequence[float] = (2.0, 2.0, 1.0, 1.0, 0.4, 0.4)
) -> Scm:
    """One option per weight, each through its own metric into a single
    continuous objective — a system with strong, middling, and faint levers
    for rank-sensitivity studies."""
    variables: list[VariableMeta] = []
    mechanisms: dict[str, Mechanism] = {}
    metric_names: list[str] = []
    for i, w in enumerate(weights):
        o, m = f"o{i + 1:02d}", f"m{i + 1:02d}"
        variables.append(VariableMeta(o, Role.OPTION, Kind.DISCRETE))
        mechanisms[o] = Mechanism(kind="uniform_levels", levels=3)
        variables.append(VariableMeta(m, Role.METRIC, Kind.CONTINUOUS))
        mechanisms[m] = Mechanism(
            kind="linear", parents=(o,), weights=(float(w),), noise_scale=1.0
        )
        metric_names.append(m)
    variables.append(VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS))
    mechanisms["y"] = Mechanism(
        kind="linear",
        parents=tuple(metric_names),
        weights=tuple(1.0 for _ in metric_names),
        noise_scale=1.0,
    )
    variables.sort(key=lambda v: (v.role != Role.OPTION, v.name))
    return scm_from_mechanisms(tuple(variables), mechanisms, seed=seed)


def objective_variance_under(
    scm: Scm, objective: str, varied: Sequence[str], n: int = 4000
) -> float:
    """Variance of the objective when only ``varied`` options move and every
    other option is pinned at its middle level."""
    varied_set = set(varied)
    assignments: dict[str, float] = {}
    for o in scm.options:
        if o in varied_set:
            continue
        levels = scm.mechanisms[o].levels or 2
        assignments[o] = (levels - 1) // 2
    data = intervene(scm, assignments, n)
    return float(np.var(data.column(objective).astype(np.float64)))
