"""Synthetic benchmark: ground-truth causal models, samplers, and scoring.

Provides layered structural causal models over option/metric/objective
variables, deterministic observational and interventional sampling, fault
curation (extreme-percentile rows for continuous objectives, false rows for
boolean ones), and prediction scoring against the known root causes. Also
hosts the curated multi-fault benchmark and the distribution-shift series
used by the acceptance suite.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .cbi import cbi_root_causes, fault_labels_for
from .dataset import Dataset, Kind, Role, VariableMeta, _Record, _record_json
from .effects import (
    Diagnosis,
    ModelParams,
    ace_edge,
    cpwe,
    learn_model,
    update_model,
)
from .errors import (
    EngineError,
    InputError,
    NoFaultyRows,
    ObjectiveMismatch,
    UnknownVertex,
)
from .resolve import Admg

logger = logging.getLogger(__name__)

EFFECT_EPS = 1e-6  # smallest total linear effect that counts as causal
_FAIL_RATE = 0.1  # share of failing runs that a boolean objective is cut at


# --------------------------------------------------------------------------
# model definition


def _record_fields(cls: type, payload: Mapping) -> dict:
    """The JSON fields of a ``cls`` record, lists as tuples. A key that is
    not a field of ``cls`` raises InputError."""
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise InputError(f"unknown {cls.__name__} fields: {unknown}", fields=unknown)
    return {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}


@dataclass(frozen=True)
class Mechanism(_Record):
    """Generating equation for one variable.

    Kinds:
      ``uniform_levels``     root drawn uniformly from {0..levels-1};
      ``linear``             weights . parents + noise;
      ``threshold_levels``   the linear score cut at ``thresholds`` into codes;
      ``boolean_threshold``  1 when the linear score exceeds thresholds[0].
    Hidden parents model latent confounding and enter the linear score with
    their own weights.
    """

    kind: str
    parents: tuple[str, ...] = ()
    weights: tuple[float, ...] = ()
    noise_scale: float = 1.0
    levels: int = 0
    thresholds: tuple[float, ...] = ()
    hidden_parents: tuple[str, ...] = ()
    hidden_weights: tuple[float, ...] = ()


@dataclass(frozen=True)
class Scm(_Record):
    """A ground-truth structural causal model with its mixed graph, which its
    file leaves out: the mechanisms imply it."""

    variables: tuple[VariableMeta, ...]
    graph: Admg = field(metadata={"json": False})
    mechanisms: Mapping[str, Mechanism]
    hidden: tuple[str, ...] = ()
    seed: int = 0

    @property
    def options(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.role == Role.OPTION)

    @property
    def objectives(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.role == Role.OBJECTIVE)


def scm_from_mechanisms(
    variables: Sequence[VariableMeta],
    mechanisms: Mapping[str, Mechanism],
    hidden: Sequence[str] = (),
    seed: int = 0,
) -> Scm:
    """Assemble an Scm, deriving the mixed graph from the mechanisms: directed
    edges from listed parents, bidirected edges between variables sharing a
    hidden parent."""
    names = {v.name for v in variables}
    directed: set[tuple[str, str]] = set()
    users_of_hidden: dict[str, set[str]] = {h: set() for h in hidden}
    for name, mech in mechanisms.items():
        if name not in names:
            raise UnknownVertex(f"mechanism for unknown variable {name!r}", vertex=name)
        for p in mech.parents:
            if p not in names:
                raise UnknownVertex(f"parent {p!r} of {name!r} is unknown", vertex=p)
            directed.add((p, name))
        for h in mech.hidden_parents:
            if h not in users_of_hidden:
                raise UnknownVertex(f"hidden parent {h!r} of {name!r} is undeclared", vertex=h)
            users_of_hidden[h].add(name)
    for name in names:
        if name not in mechanisms:
            raise InputError(f"no mechanism for variable {name!r}", variable=name)
    bidirected: set[frozenset[str]] = set()
    for h, users in users_of_hidden.items():
        for a, b in itertools.combinations(sorted(users), 2):
            bidirected.add(frozenset((a, b)))
    graph = Admg(tuple(variables), frozenset(directed), frozenset(bidirected))
    return Scm(tuple(variables), graph, dict(mechanisms), tuple(hidden), seed)


def with_seed(scm: Scm, seed: int) -> Scm:
    return replace(scm, seed=int(seed))


def scale_edge(scm: Scm, edge: tuple[str, str], factor: float) -> Scm:
    """A copy of the model with the weight of one directed edge scaled."""
    u, v = edge
    mech = scm.mechanisms.get(v)
    if mech is None or u not in mech.parents:
        raise UnknownVertex(f"no mechanism edge {u}->{v}", vertex=v)
    idx = mech.parents.index(u)
    weights = tuple(
        w * factor if i == idx else w for i, w in enumerate(mech.weights)
    )
    mechanisms = dict(scm.mechanisms)
    mechanisms[v] = replace(mech, weights=weights)
    return replace(scm, mechanisms=mechanisms)


# --------------------------------------------------------------------------
# sampling


def _linear_score(
    mech: Mechanism, values: Mapping[str, np.ndarray], noise: np.ndarray
) -> np.ndarray:
    score = np.zeros(noise.shape[0], dtype=np.float64)
    for w, p in zip(mech.weights, mech.parents):
        score += w * values[p].astype(np.float64)
    for w, h in zip(mech.hidden_weights, mech.hidden_parents):
        score += w * values[h]
    return score + mech.noise_scale * noise


def _materialize(
    name: str,
    mech: Mechanism,
    values: Mapping[str, np.ndarray],
    rng: np.random.Generator,
    n: int,
    forced: float | None,
) -> np.ndarray:
    """Draw one variable. The noise stream is always consumed so that an
    intervention leaves the draws of every other variable untouched."""
    if mech.kind == "uniform_levels":
        drawn = rng.integers(0, mech.levels, size=n).astype(np.int64)
    else:
        score = _linear_score(mech, values, rng.standard_normal(n))
        if mech.kind == "linear":
            drawn = score
        elif mech.kind == "threshold_levels":
            drawn = np.zeros(n, dtype=np.int64)
            for thr in mech.thresholds:
                drawn += (score > thr).astype(np.int64)
        elif mech.kind == "boolean_threshold":
            drawn = (score > mech.thresholds[0]).astype(np.int64)
        else:
            raise EngineError(f"unknown mechanism kind {mech.kind!r}", variable=name)
    return drawn if forced is None else np.full(n, forced, dtype=drawn.dtype)


def intervene(scm: Scm, assignments: Mapping[str, float], n: int) -> Dataset:
    """Sample n rows from the model mutilated by fixing ``assignments``.

    Deterministic in (scm.seed, n): the same call returns an identical
    dataset, and an empty assignment map reproduces :func:`sample` exactly
    (all noise streams are consumed whether or not a variable is forced).
    """
    if n <= 0:
        raise InputError(f"sample size must be positive, got {n}", n=n)
    known = set(scm.graph.vertex_names)
    for name in assignments:
        if name not in known:
            raise UnknownVertex(f"cannot intervene on unknown vertex {name!r}", vertex=name)
    rng = np.random.default_rng(scm.seed)
    values: dict[str, np.ndarray] = {}
    for h in sorted(scm.hidden):
        values[h] = rng.standard_normal(n)
    for name in scm.graph.topological_order():
        forced = assignments.get(name)
        values[name] = _materialize(
            name, scm.mechanisms[name], values, rng, n, forced
        )
    columns = {v.name: values[v.name] for v in scm.variables}
    return Dataset(scm.variables, columns, n)


def sample(scm: Scm, n: int) -> Dataset:
    """Observational sample of n rows; deterministic in (scm.seed, n)."""
    return intervene(scm, {}, n)


def interventional_ace(scm: Scm, treatment: str, outcome: str) -> float:
    """Oracle average causal effect by simulation: intervene at every level
    of a discrete treatment, 20,000 rows each, and average the pairwise
    absolute differences of the outcome means. Paired noise streams make
    level contrasts tight."""
    mech = scm.mechanisms.get(treatment)
    if mech is None:
        raise UnknownVertex(f"no such vertex: {treatment!r}", vertex=treatment)
    if mech.kind == "uniform_levels":
        n_levels = mech.levels
    elif mech.kind == "threshold_levels":
        n_levels = len(mech.thresholds) + 1
    elif mech.kind == "boolean_threshold":
        n_levels = 2
    else:
        raise InputError(
            f"oracle effects need a discrete treatment; {treatment!r} is {mech.kind}",
            variable=treatment,
        )
    mus = []
    for level in range(n_levels):
        data = intervene(scm, {treatment: level}, 20000)
        mus.append(float(data.column(outcome).astype(np.float64).mean()))
    pairs = list(itertools.combinations(range(n_levels), 2))
    return float(np.mean([abs(mus[i] - mus[j]) for i, j in pairs]))


# --------------------------------------------------------------------------
# random layered models


def generate_scm(
    n_options: int,
    n_metrics: int,
    n_objectives: int,
    density: float,
    noise_scale: float = 1.0,
    seed: int = 0,
    *,
    n_latents: int = 0,
    boolean_objectives: int = 0,
    weight_range: tuple[float, float] = (0.6, 1.4),
) -> Scm:
    """Random layered model: edges option->metric, metric->metric (lower to
    higher index), metric->objective, each present with probability
    ``density``; weights uniform in +-``weight_range``; options take three
    levels. Optional latent confounders add hidden parents to sampled
    non-option pairs. Boolean objectives are cut by :func:`_boolean_cuts`."""
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must be in [0, 1], got {density}", density=density)
    rng = np.random.default_rng(seed)
    opts = [f"o{i + 1:02d}" for i in range(n_options)]
    mets = [f"m{i + 1:02d}" for i in range(n_metrics)]
    objs = [f"y{i + 1:02d}" for i in range(n_objectives)]

    def weight() -> float:
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(*weight_range))

    parents: dict[str, list[tuple[str, float]]] = {m: [] for m in mets}
    parents.update({y: [] for y in objs})
    for o in opts:
        for m in mets:
            if rng.random() < density:
                parents[m].append((o, weight()))
    for i, mi in enumerate(mets):
        for mj in mets[i + 1:]:
            if rng.random() < density:
                parents[mj].append((mi, weight()))
    for m in mets:
        for y in objs:
            if rng.random() < density:
                parents[y].append((m, weight()))

    hidden: list[str] = []
    hidden_of: dict[str, list[tuple[str, float]]] = {v: [] for v in mets + objs}
    non_options = mets + objs
    if n_latents:
        pairs = list(itertools.combinations(non_options, 2))
        take = min(n_latents, len(pairs))
        chosen = rng.choice(len(pairs), size=take, replace=False)
        for k, pi in enumerate(sorted(int(c) for c in chosen)):
            a, b = pairs[pi]
            h = f"h{k + 1:02d}"
            hidden.append(h)
            hidden_of[a].append((h, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2))))
            hidden_of[b].append((h, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2))))

    variables = (
        [VariableMeta(o, Role.OPTION, Kind.DISCRETE) for o in opts]
        + [VariableMeta(m, Role.METRIC, Kind.CONTINUOUS) for m in mets]
        + [
            VariableMeta(
                y,
                Role.OBJECTIVE,
                Kind.BOOLEAN if i < boolean_objectives else Kind.CONTINUOUS,
            )
            for i, y in enumerate(objs)
        ]
    )

    def linear_mech(name: str) -> Mechanism:
        ps = parents[name]
        hs = hidden_of[name]
        return Mechanism(
            kind="linear",
            parents=tuple(p for p, _ in ps),
            weights=tuple(w for _, w in ps),
            noise_scale=noise_scale,
            hidden_parents=tuple(h for h, _ in hs),
            hidden_weights=tuple(w for _, w in hs),
        )

    mechanisms: dict[str, Mechanism] = {
        o: Mechanism(kind="uniform_levels", levels=3) for o in opts
    }
    for name in mets + objs:
        mechanisms[name] = linear_mech(name)
    if boolean_objectives:
        pilot = scm_from_mechanisms(variables, mechanisms, hidden, seed=int(seed) + 1)
        mechanisms.update(_boolean_cuts(pilot, objs[:boolean_objectives]))
    return scm_from_mechanisms(tuple(variables), mechanisms, hidden, seed=int(seed))


def _boolean_cuts(pilot: Scm, objectives: Sequence[str]) -> dict[str, Mechanism]:
    """Each of the linear ``objectives`` of ``pilot`` made boolean, cut at the
    ``_FAIL_RATE`` quantile of its score in a 3,000-row sample of ``pilot``."""
    data = sample(pilot, 3000)
    return {
        y: replace(
            pilot.mechanisms[y], kind="boolean_threshold",
            thresholds=(float(np.quantile(data.column(y), _FAIL_RATE)),),
        )
        for y in objectives
    }


# --------------------------------------------------------------------------
# ground truth and scoring


@dataclass(frozen=True)
class FaultEntry:
    objective: str
    rule: str
    fault_row_indices: tuple[int, ...]
    true_root_causes: tuple[str, ...]


@dataclass(frozen=True)
class GroundTruth(_Record):
    faults: tuple[FaultEntry, ...]

    def entry_for(self, objective: str) -> FaultEntry:
        for entry in self.faults:
            if entry.objective == objective:
                return entry
        raise ObjectiveMismatch(
            f"no ground-truth fault for objective {objective!r}", objective=objective
        )

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "GroundTruth":
        try:
            return cls(tuple(
                FaultEntry(**_record_fields(FaultEntry, e)) for e in payload["faults"]
            ))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed ground truth: {exc}") from exc


def total_linear_effect(scm: Scm, source: str, target: str) -> float:
    """Sum over directed paths of the products of linear weights (threshold
    and boolean mechanisms contribute their score weights: the link is
    monotone, so zero/nonzero is preserved)."""
    order = scm.graph.topological_order()
    if source not in order or target not in order:
        raise UnknownVertex(f"unknown vertex in ({source!r}, {target!r})")
    effect: dict[str, float] = {source: 1.0}
    for name in order:
        if name == source:
            continue
        mech = scm.mechanisms[name]
        acc = 0.0
        for w, p in zip(mech.weights, mech.parents):
            acc += w * effect.get(p, 0.0)
        if acc != 0.0:
            effect[name] = acc
    return effect.get(target, 0.0)


def curate_ground_truth(scm: Scm, ds: Dataset) -> GroundTruth:
    """Label faulty rows per objective and list the options that truly cause
    it (ancestors with a nonzero total effect). Continuous objectives fail
    beyond their 99th percentile; boolean objectives fail when false."""
    entries: list[FaultEntry] = []
    for objective in ds.objectives:
        boolean = ds.meta(objective).kind == Kind.BOOLEAN
        rule = "boolean_false" if boolean else "quantile_0.99"
        rows = tuple(int(i) for i in np.flatnonzero(fault_labels_for(ds, objective)))
        if not rows:
            raise NoFaultyRows(
                f"no faulty rows for objective {objective!r}", objective=objective
            )
        causes = tuple(
            o for o in scm.options
            if abs(total_linear_effect(scm, o, objective)) > EFFECT_EPS
        )
        entries.append(FaultEntry(objective, rule, rows, causes))
    return GroundTruth(tuple(entries))


@dataclass(frozen=True)
class EvalReport(_Record):
    objective: str
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    rmse: float


def _precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def evaluate(
    pred: Diagnosis,
    truth: GroundTruth,
    options: Sequence[str],
    ace_values: Mapping[str, float] | None = None,
) -> EvalReport:
    """Score predicted root causes against ground truth over the option
    universe. RMSE pairs the prediction ranking with the true causes ranked
    by effect magnitude (``ace_values``; missing entries count as 0) and
    compares effect values positionally; a perfect prediction scores 0."""
    entry = truth.entry_for(pred.fault_objective)
    universe = list(dict.fromkeys(options))
    predicted = [p for p in pred.root_causes]
    true_set = set(entry.true_root_causes)
    pred_set = set(predicted)
    unknown = pred_set - set(universe)
    if unknown:
        raise InputError(
            f"prediction names options outside the universe: {sorted(unknown)}",
            options=sorted(unknown),
        )
    tp = len(pred_set & true_set)
    fp = len(pred_set - true_set)
    fn = len(true_set - pred_set)
    tn = len(set(universe) - pred_set - true_set)
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision, recall, f1 = _precision_recall_f1(tp, fp, fn)
    av = dict(ace_values or {})
    true_ranked = sorted(true_set, key=lambda o: (-av.get(o, 0.0), o))
    pairs = list(zip(true_ranked, predicted))
    if pairs:
        rmse = math.sqrt(
            sum((av.get(t, 0.0) - av.get(p, 0.0)) ** 2 for t, p in pairs) / len(pairs)
        )
    else:
        rmse = 0.0
    return EvalReport(
        objective=pred.fault_objective,
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=float(accuracy), precision=float(precision),
        recall=float(recall), f1=float(f1), rmse=float(rmse),
    )


# --------------------------------------------------------------------------
# curated fault benchmark


@dataclass(frozen=True)
class BenchCase:
    index: int
    scm: Scm
    dataset: Dataset
    truth: GroundTruth


def _child_seeds(seed: int, count: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(count)]


def make_fault_benchmark(
    seed: int = 0, n_scms: int = 10, n_rows: int = 1600
) -> list[BenchCase]:
    """Ten seeded systems, each with one continuous (resource-style) and one
    boolean (success-style) objective: twenty faults total, every objective
    caused by two to four options routed through dedicated metrics. One cause
    per objective is deliberately faint. Non-causal options either feed
    dead-end metrics or mirror a causal option's setting without any effect
    of their own — the trap that correlation scoring falls into."""
    cases: list[BenchCase] = []
    for index, child in enumerate(_child_seeds(seed, n_scms)):
        rng = np.random.default_rng(child)
        opts = [f"o{i + 1:02d}" for i in range(8)]
        causal: dict[str, list[str]] = {}
        for objective in ("y_energy", "y_success"):
            k = int(rng.integers(2, 5))
            causal[objective] = sorted(
                opts[i] for i in rng.choice(8, size=k, replace=False)
            )

        variables = [VariableMeta(o, Role.OPTION, Kind.DISCRETE) for o in opts]
        mechanisms: dict[str, Mechanism] = {
            o: Mechanism(kind="uniform_levels", levels=3) for o in opts
        }
        obj_parents: dict[str, list[tuple[str, float]]] = {
            "y_energy": [], "y_success": []
        }

        def add_metric(name: str, parent: str, w_in: float, fan_out: list[tuple[str, float]]) -> None:
            variables.append(VariableMeta(name, Role.METRIC, Kind.CONTINUOUS))
            mechanisms[name] = Mechanism(
                kind="linear", parents=(parent,), weights=(w_in,), noise_scale=1.0
            )
            for objective, w_out in fan_out:
                obj_parents[objective].append((name, w_out))

        def signed(lo: float, hi: float) -> float:
            return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))

        for objective in ("y_energy", "y_success"):
            tag = objective.split("_")[1][0]
            weak = causal[objective][-1]  # one deliberately faint cause
            # two routes per cause when only two causes exist, so genuine
            # paths always fill the whole candidate budget
            routes = 2 if len(causal[objective]) == 2 else 1
            for o in causal[objective]:
                scale = 0.45 if o == weak else 1.0
                for r in range(routes):
                    add_metric(
                        f"m_{tag}_{o}" + ("x" * r), o,
                        signed(1.0, 1.6) * scale,
                        [(objective, signed(0.8, 1.4))],
                    )
            # nuisance driver unrelated to any option
            noise_name = f"m_{tag}_drift"
            variables.append(VariableMeta(noise_name, Role.METRIC, Kind.CONTINUOUS))
            mechanisms[noise_name] = Mechanism(kind="linear", noise_scale=1.0)
            obj_parents[objective].append((noise_name, 0.7))

        decoys = [o for o in opts if o not in set(causal["y_energy"]) | set(causal["y_success"])]
        # up to two decoys track a causal option (co-set in deployment,
        # causally inert); the rest drive metrics nobody consumes
        shadow_sources = [o for o in causal["y_success"] if o != causal["y_success"][-1]]
        if not shadow_sources:
            shadow_sources = causal["y_success"][:1]
        for i, o in enumerate(decoys[:2]):
            source = shadow_sources[i % len(shadow_sources)]
            mechanisms[o] = Mechanism(
                kind="threshold_levels", parents=(source,), weights=(1.5,),
                noise_scale=0.6, thresholds=(0.75, 2.25),
            )
        for o in decoys[2:]:
            add_metric(f"m_dead_{o}", o, signed(1.0, 1.6), [])

        for objective, kind in (("y_energy", Kind.CONTINUOUS), ("y_success", Kind.BOOLEAN)):
            variables.append(VariableMeta(objective, Role.OBJECTIVE, kind))
            mechanisms[objective] = Mechanism(
                kind="linear",
                parents=tuple(p for p, _ in obj_parents[objective]),
                weights=tuple(w for _, w in obj_parents[objective]),
            )
        pilot = scm_from_mechanisms(variables, mechanisms, seed=child + 1)
        mechanisms.update(_boolean_cuts(pilot, ["y_success"]))

        scm = scm_from_mechanisms(tuple(variables), mechanisms, seed=child)
        data = sample(scm, n_rows)
        truth = curate_ground_truth(scm, data)
        for entry in truth.faults:
            if not 2 <= len(entry.true_root_causes) <= 4:
                raise EngineError(
                    f"benchmark invariant broken: {entry.objective} has "
                    f"{len(entry.true_root_causes)} causes"
                )
        cases.append(BenchCase(index, scm, data, truth))
    return cases


@dataclass(frozen=True)
class FaultOutcome(_Record):
    scm_index: int
    objective: str
    care: EvalReport
    cbi: EvalReport


@dataclass(frozen=True)
class BenchmarkReport:
    outcomes: tuple[FaultOutcome, ...]

    def totals(self, method: str) -> dict[str, float]:
        reports = [getattr(o, method) for o in self.outcomes]
        tp = sum(r.tp for r in reports)
        fp = sum(r.fp for r in reports)
        fn = sum(r.fn for r in reports)
        tn = sum(r.tn for r in reports)
        precision, recall, f1 = _precision_recall_f1(tp, fp, fn)
        return {
            "tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "precision": float(precision), "recall": float(recall),
            "f1": float(f1),
            "mean_f1": float(np.mean([r.f1 for r in reports])),
            "mean_rmse": float(np.mean([r.rmse for r in reports])),
        }

    def to_json_dict(self) -> dict:
        """The outcomes and each method's totals."""
        return {**_record_json(self), "care": self.totals("care"), "cbi": self.totals("cbi")}


def run_benchmark(
    seed: int = 0,
    n_scms: int = 10,
    n_rows: int = 1600,
    params: ModelParams = ModelParams(),
    top_k: int = 4,
) -> BenchmarkReport:
    """Learn a model per system, diagnose both faults with the causal method
    and the correlation baseline, and score each against the ground truth."""
    outcomes: list[FaultOutcome] = []
    for case in make_fault_benchmark(seed, n_scms, n_rows):
        ds = case.dataset
        _, admg = learn_model(ds, params)
        options = list(ds.options)
        care = cpwe(ds, admg, top_k=top_k, bins=params.bins)
        for entry in case.truth.faults:
            ace_vals = {}
            for o in options:
                try:
                    ace_vals[o] = ace_edge(ds, admg, o, entry.objective, bins=params.bins).value
                except EngineError:
                    ace_vals[o] = 0.0
            labels = fault_labels_for(ds, entry.objective)
            cbi_diag = Diagnosis(
                entry.objective, (), tuple(cbi_root_causes(ds, labels, top_k=top_k))
            )
            outcomes.append(
                FaultOutcome(
                    case.index,
                    entry.objective,
                    care=evaluate(care[entry.objective], case.truth, options, ace_vals),
                    cbi=evaluate(cbi_diag, case.truth, options, ace_vals),
                )
            )
    return BenchmarkReport(tuple(outcomes))


# --------------------------------------------------------------------------
# shift adaptation and sensitivity probes


def transfer_scm(seed: int) -> tuple[Scm, Scm]:
    """A small three-option system and a copy whose dominant metric weight is
    quadrupled — the shifted environment for update studies."""
    opts = ["o1", "o2", "o3"]
    variables = (
        [VariableMeta(o, Role.OPTION, Kind.DISCRETE) for o in opts]
        + [
            VariableMeta("m1", Role.METRIC, Kind.CONTINUOUS),
            VariableMeta("m2", Role.METRIC, Kind.CONTINUOUS),
            VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
        ]
    )
    mechanisms = {
        "o1": Mechanism(kind="uniform_levels", levels=3),
        "o2": Mechanism(kind="uniform_levels", levels=3),
        "o3": Mechanism(kind="uniform_levels", levels=3),
        "m1": Mechanism(kind="linear", parents=("o1", "o2"), weights=(1.1, 0.9)),
        "m2": Mechanism(kind="linear", parents=("o3",), weights=(1.2,)),
        "y": Mechanism(kind="linear", parents=("m1", "m2"), weights=(1.0, 0.8)),
    }
    base = scm_from_mechanisms(tuple(variables), mechanisms, seed=seed)
    shifted = scale_edge(base, ("m1", "y"), 4.0)
    return base, shifted


def transfer_series(seed: int = 0, params: ModelParams = ModelParams()) -> list[float]:
    """RMSE of per-option effect estimates against the shifted environment's
    oracle, on 1,200 runs of the base system and after each of three
    1,200-run batches of shifted data."""
    base_seed, oracle_seed, *batch_seeds = _child_seeds(seed, 5)
    base, shifted = transfer_scm(base_seed)
    oracle_scm = with_seed(shifted, oracle_seed)
    old = sample(with_seed(base, base_seed), 1200)
    pag, admg = learn_model(old, params)
    objective = "y"
    oracle = {
        o: interventional_ace(oracle_scm, o, objective) for o in base.options
    }

    def current_rmse(data: Dataset, model: Admg) -> float:
        err = 0.0
        for o in base.options:
            est = ace_edge(data, model, o, objective, bins=params.bins).value
            err += (est - oracle[o]) ** 2
        return math.sqrt(err / len(base.options))

    series = [current_rmse(old, admg)]
    sepsets = pag.sepsets
    for batch_seed in batch_seeds:
        batch = sample(with_seed(shifted, batch_seed), 1200)
        admg = update_model(admg, old, batch, params, prev_sepsets=sepsets)
        sepsets = None  # stale after the first refresh
        old = old.concat(batch)
        series.append(current_rmse(old, admg))
    return series
