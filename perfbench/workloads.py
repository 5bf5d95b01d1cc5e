"""The four workloads: seeded set-up, the timed body, and output checks.

Every workload runs one fixed generated system (or, for ``study``, the fixed
list of study seeds that ``confcause bench`` uses). The ``--seed`` draws the
row order and column order of the tables written to disk (for ``study``: the
order in which the study seeds run). The program's work does not depend on
either order, so the seed changes the bytes the program reads but not how
much work they cost, and run-to-run spread stays small. The structure search
does depend on the sample: at 12/40/3 and 10k rows its CI-test count ranged
from 170k to 720k over five systems, and from 320k to 526k over three samples
of one system, far wider than any bound the benchmark could hold.

A pass is the timed body. Scoring, digests and invariant checks run after
the clock stops, on every pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from confcause import dataset, effects, synthbench
from confcause.dataset import Dataset, Role
from confcause.errors import EngineError

TOP_K = 4
SYSTEM_SEED = 0

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "wide": {"shape": (8, 24, 2, 0.15), "latents": 0, "rows": 5000},
        "tall": {"shape": (4, 10, 2, 0.3), "latents": 3, "rows": 60000},
        "update": {"shape": (8, 20, 2, 0.15), "latents": 0, "rows": 10000,
                   "batches": 4, "batch_rows": 2500},
        "study": {"seeds": (0, 1, 2), "n_scms": 10, "n_rows": 1600},
    },
    "tiny": {
        "wide": {"shape": (3, 6, 1, 0.3), "latents": 0, "rows": 400},
        "tall": {"shape": (2, 4, 1, 0.4), "latents": 1, "rows": 1500},
        "update": {"shape": (3, 6, 1, 0.3), "latents": 0, "rows": 400,
                   "batches": 2, "batch_rows": 200},
        "study": {"seeds": (0,), "n_scms": 2, "n_rows": 400},
    },
}


# --------------------------------------------------------------------------
# checks shared by the workloads


def digest(payload: Any) -> str:
    """SHA-256 of the sorted-keys JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_violations(admg) -> list[str]:
    """Role constraints and acyclicity of a learned mixed graph."""
    roles = {v.name: v.role for v in admg.vertices}
    out = []
    for u, v in sorted(admg.directed):
        if roles[v] == Role.OPTION:
            out.append(f"option {v} has parent {u}")
        if roles[u] == Role.OPTION and roles[v] == Role.OPTION:
            out.append(f"option-option edge {u}->{v}")
        if roles[u] == Role.OBJECTIVE:
            out.append(f"objective {u} has child {v}")
    for pair in sorted(admg.bidirected, key=sorted):
        u, v = sorted(pair)
        if Role.OPTION in (roles[u], roles[v]):
            out.append(f"confounded edge {u}<->{v} touches an option")
    try:
        admg.topological_order()
    except EngineError as exc:
        out.append(f"directed cycle: {exc}")
    return out


def diagnosis_violations(admg, objective: str, diag) -> list[str]:
    """Output invariants of one ``cpwe`` diagnosis."""
    roles = {v.name: v.role for v in admg.vertices}
    out = []
    if diag.fault_objective != objective:
        out.append(f"diagnosis for {diag.fault_objective} filed under {objective}")
    if len(diag.ranked_paths) > TOP_K:
        out.append(f"{objective}: {len(diag.ranked_paths)} paths > top_k")
    scores = [p.path_ace for p in diag.ranked_paths]
    if any(not math.isfinite(s) or s < 0.0 for s in scores):
        out.append(f"{objective}: path score not finite and >= 0: {scores}")
    if scores != sorted(scores, reverse=True):
        out.append(f"{objective}: paths not ranked by score")
    for p in diag.ranked_paths:
        vs = p.vertices
        if roles.get(vs[0]) != Role.OPTION or vs[-1] != objective:
            out.append(f"{objective}: path {vs} does not run option -> objective")
        if any(roles.get(v) != Role.METRIC for v in vs[1:-1]):
            out.append(f"{objective}: path {vs} has a non-metric interior")
        for a, b in zip(vs, vs[1:]):
            if (a, b) not in admg.directed and frozenset((a, b)) not in admg.bidirected:
                out.append(f"{objective}: path step {a}-{b} is not a model edge")
    origins = list(dict.fromkeys(p.vertices[0] for p in diag.ranked_paths))
    if list(diag.root_causes) != origins:
        out.append(f"{objective}: root causes {diag.root_causes} != path origins {origins}")
    return out


def adjacency_f1(true_directed, predicted: frozenset) -> float:
    """Adjacency F1 against the true directed edges, as acceptance test 1."""
    true_adj = {frozenset(e) for e in true_directed}
    tp = len(true_adj & predicted)
    prec = tp / len(predicted) if predicted else 1.0
    rec = tp / len(true_adj) if true_adj else 1.0
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def root_cause_quality(reports: Sequence) -> dict[str, float]:
    """Mean F1 and pooled precision/recall of a list of ``EvalReport``."""
    tp = sum(r.tp for r in reports)
    fp = sum(r.fp for r in reports)
    fn = sum(r.fn for r in reports)
    return {
        "rootcause_f1": float(np.mean([r.f1 for r in reports])),
        "rootcause_precision": tp / (tp + fp) if tp + fp else 0.0,
        "rootcause_recall": tp / (tp + fn) if tp + fn else 0.0,
    }


@dataclass
class PassResult:
    """What one pass produced, once scored: no datasets are kept."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)


def _write_table(ds: Dataset, seed: int, table: Path, roles: Path, rows: slice) -> None:
    """Write rows ``rows`` of ``ds`` with rows and columns shuffled by ``seed``."""
    rng = np.random.default_rng(seed)
    names = list(ds.names)
    columns = [names[i] for i in rng.permutation(len(names))]
    n = len(range(*rows.indices(ds.sample_count)))
    order = rng.permutation(n)
    variables = tuple(ds.meta(c) for c in columns)
    part = Dataset(variables, {c: ds.column(c)[rows][order] for c in columns}, n)
    part.save(table, roles)


# --------------------------------------------------------------------------
# workloads


@dataclass
class Stage:
    """One learned model and the diagnoses computed from it."""

    data: Dataset
    adjacencies: frozenset
    admg: Any
    diagnoses: dict


class Pipeline:
    """load -> learn_model -> cpwe on one table; ``wide`` and ``tall``."""

    def __init__(self, cfg: dict[str, Any]) -> None:
        self.cfg = cfg

    def _scm(self):
        o, m, y, density = self.cfg["shape"]
        return synthbench.generate_scm(
            o, m, y, density, seed=SYSTEM_SEED, n_latents=self.cfg["latents"]
        )

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        scm = self._scm()
        data = synthbench.sample(scm, self.cfg["rows"])
        table, roles = workdir / "data.csv", workdir / "roles.json"
        _write_table(data, seed, table, roles, slice(None))
        return {"scm": scm, "table": table, "roles": roles}

    def expected_diagnoses(self, inputs: dict[str, Any]) -> int:
        return len(inputs["scm"].objectives)

    def run(self, inputs: dict[str, Any]) -> list[Stage]:
        ds = dataset.load_dataset(inputs["table"], inputs["roles"])
        pag, admg = effects.learn_model(ds)
        diags = effects.cpwe(ds, admg, top_k=TOP_K)
        return [Stage(ds, pag.adjacencies(), admg, diags)]

    def score(self, inputs: dict[str, Any], stages: list[Stage]) -> PassResult:
        scm = inputs["scm"]
        result = PassResult(attempted=sum(len(s.diagnoses) for s in stages))
        reports, f1s, empty = [], [], 0
        truth = synthbench.curate_ground_truth(scm, stages[-1].data)
        for k, stage in enumerate(stages):
            bad_model = model_violations(stage.admg)
            result.problems += bad_model
            result.digests[f"model.{k}"] = digest(stage.admg.to_json_dict())
            f1s.append(adjacency_f1(scm.graph.directed, stage.adjacencies))
            for objective, diag in sorted(stage.diagnoses.items()):
                bad = diagnosis_violations(stage.admg, objective, diag)
                result.problems += bad
                if bad or bad_model:
                    result.failed += 1
                empty += not diag.ranked_paths
                result.digests[f"diagnosis.{k}.{objective}"] = digest(diag.to_json_dict())
                reports.append(synthbench.evaluate(diag, truth, scm.options))
        result.quality = {
            "adj_f1": float(np.mean(f1s)),
            **root_cause_quality(reports),
            "diagnosed_frac": 1.0 - empty / len(reports),
        }
        result.extra["empty_diagnoses"] = empty
        return result


class Update(Pipeline):
    """Learn on an initial table, then refresh with ``update_model`` once per
    batch table, diagnosing after each step."""

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        scm = self._scm()
        rows, step, k = self.cfg["rows"], self.cfg["batch_rows"], self.cfg["batches"]
        data = synthbench.sample(scm, rows + step * k)
        parts = [("initial", slice(0, rows))] + [
            (f"batch{i + 1}", slice(rows + i * step, rows + (i + 1) * step))
            for i in range(k)
        ]
        files = []
        for name, rows_of_part in parts:
            table, roles = workdir / f"{name}.csv", workdir / f"{name}.roles.json"
            # one seed for every part, so all parts share one column order
            _write_table(data, seed, table, roles, rows_of_part)
            files.append((table, roles))
        return {"scm": scm, "files": files}

    def expected_diagnoses(self, inputs: dict[str, Any]) -> int:
        return len(inputs["scm"].objectives) * len(inputs["files"])

    def run(self, inputs: dict[str, Any]) -> tuple[list[Stage], list[float]]:
        (table, roles), *batch_files = inputs["files"]
        old = dataset.load_dataset(table, roles)
        pag, admg = effects.learn_model(old)
        stages = [Stage(old, pag.adjacencies(), admg, effects.cpwe(old, admg, top_k=TOP_K))]
        sepsets = pag.sepsets
        refresh_s = []
        for batch_table, batch_roles in batch_files:
            batch = dataset.load_dataset(batch_table, batch_roles)
            start = time.perf_counter()
            admg = effects.update_model(admg, old, batch, prev_sepsets=sepsets)
            refresh_s.append(time.perf_counter() - start)
            sepsets = None  # stale after the first refresh, as in transfer_series
            old = old.concat(batch)
            # update_model returns no PAG; the refreshed model's skeleton
            # stands in for its adjacencies
            skeleton = frozenset(frozenset(e) for e in admg.directed) | admg.bidirected
            stages.append(Stage(old, skeleton, admg, effects.cpwe(old, admg, top_k=TOP_K)))
        return stages, refresh_s

    def score(self, inputs: dict[str, Any], outputs) -> PassResult:
        stages, refresh_s = outputs
        result = super().score(inputs, stages)
        result.extra["refresh_s"] = refresh_s
        return result


class Study:
    """``run_benchmark`` + ``transfer_series`` over the study seeds, in an
    order drawn from the workload seed."""

    def __init__(self, cfg: dict[str, Any]) -> None:
        self.cfg = cfg

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        seeds = list(self.cfg["seeds"])
        order = [seeds[i] for i in np.random.default_rng(seed).permutation(len(seeds))]
        cases = {
            s: synthbench.make_fault_benchmark(s, self.cfg["n_scms"], self.cfg["n_rows"])
            for s in seeds
        }
        return {"order": order, "cases": cases}

    def expected_diagnoses(self, inputs: dict[str, Any]) -> int:
        return sum(len(c.truth.faults) for cs in inputs["cases"].values() for c in cs)

    def run(self, inputs: dict[str, Any]) -> tuple[dict, dict]:
        reports, series = {}, {}
        for s in inputs["order"]:
            reports[s] = synthbench.run_benchmark(
                s, self.cfg["n_scms"], self.cfg["n_rows"], top_k=TOP_K
            )
            series[s] = synthbench.transfer_series(s)
        return reports, series

    def score(self, inputs: dict[str, Any], outputs) -> PassResult:
        reports, series = outputs
        seeds = sorted(reports)
        outcomes = tuple(o for s in seeds for o in reports[s].outcomes)
        result = PassResult(attempted=len(outcomes))
        for o in outcomes:
            bad = [
                f"fault {o.scm_index}/{o.objective} {method}: bad scores {r}"
                for method, r in (("care", o.care), ("cbi", o.cbi))
                if not (0.0 <= r.precision <= 1.0 and 0.0 <= r.recall <= 1.0
                        and 0.0 <= r.f1 <= 1.0 and math.isfinite(r.rmse))
            ]
            result.problems += bad
            result.failed += bool(bad)
        for s in seeds:
            if not all(math.isfinite(v) for v in series[s]):
                result.problems.append(f"transfer series {s} not finite: {series[s]}")
                result.failed += 1
            result.digests[f"report.{s}"] = digest(reports[s].to_json_dict())
            result.digests[f"transfer.{s}"] = digest(series[s])
        combined = synthbench.BenchmarkReport(outcomes)
        care, cbi = combined.totals("care"), combined.totals("cbi")
        empty = sum(o.care.tp + o.care.fp == 0 for o in outcomes)
        result.quality = {
            "rootcause_f1": care["mean_f1"],
            "rootcause_precision": care["precision"],
            "rootcause_recall": care["recall"],
            "diagnosed_frac": 1.0 - empty / len(outcomes),
        }
        result.extra = {
            "empty_diagnoses": empty,
            "care_fp": care["fp"],
            "cbi_f1": cbi["f1"],
            "f1_wins": sum(o.care.f1 > o.cbi.f1 for o in outcomes),
            "transfer_rmse": float(np.mean([series[s][-1] for s in seeds])),
            "per_seed": {
                s: {"care": reports[s].totals("care"), "cbi": reports[s].totals("cbi"),
                    "transfer_rmse": series[s]}
                for s in seeds
            },
        }
        return result

    def model_check(self, inputs: dict[str, Any]) -> PassResult:
        """Untimed: learn each study system once more, as ``run_benchmark``
        does, to score its adjacencies and check its model, which
        ``run_benchmark`` does not return."""
        result = PassResult(attempted=0)
        f1s = []
        for s, cases in sorted(inputs["cases"].items()):
            for case in cases:
                pag, admg = effects.learn_model(case.dataset)
                f1s.append(adjacency_f1(case.scm.graph.directed, pag.adjacencies()))
                bad = model_violations(admg)
                result.problems += bad
                result.failed += len(case.truth.faults) if bad else 0
                result.digests[f"model.{s}.{case.index}"] = digest(admg.to_json_dict())
        result.quality["adj_f1"] = float(np.mean(f1s))
        return result


def make(name: str, size: str = "full"):
    cfg = SIZES[size][name]
    if name == "study":
        return Study(cfg)
    if name == "update":
        return Update(cfg)
    return Pipeline(cfg)

