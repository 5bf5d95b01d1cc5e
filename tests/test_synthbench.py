"""Ground-truth models: sampling, interventions, curation, benchmarks."""

import math

import numpy as np
import pytest

from confcause import effects, synthbench
from confcause.dataset import Kind, Role, VariableMeta
from confcause.effects import Diagnosis, ModelParams, ace_edge, cpwe, diagnose, learn_model
from confcause.errors import (
    InputError,
    NoFaultyRows,
    NoPathsFound,
    ObjectiveMismatch,
    UnknownVertex,
)
from confcause.resolve import Admg
from confcause.synthbench import (
    FaultEntry,
    GroundTruth,
    Mechanism,
    curate_ground_truth,
    evaluate,
    generate_scm,
    intervene,
    interventional_ace,
    make_fault_benchmark,
    run_benchmark,
    sample,
    scale_edge,
    scm_from_mechanisms,
    total_linear_effect,
    transfer_scm,
    transfer_series,
    with_seed,
)

from tiered_system import objective_variance_under, tiered_scm


def V(name, role, kind=Kind.CONTINUOUS):
    return VariableMeta(name, role, kind)


def chain_scm(weight_om=2.0, weight_my=1.0, seed=0):
    variables = (
        V("o", Role.OPTION, Kind.DISCRETE),
        V("m", Role.METRIC),
        V("y", Role.OBJECTIVE),
    )
    mechanisms = {
        "o": Mechanism(kind="uniform_levels", levels=3),
        "m": Mechanism(kind="linear", parents=("o",), weights=(weight_om,)),
        "y": Mechanism(kind="linear", parents=("m",), weights=(weight_my,)),
    }
    return scm_from_mechanisms(variables, mechanisms, seed=seed)


class TestConstruction:
    def test_graph_derived_from_mechanisms(self):
        scm = chain_scm()
        assert scm.graph.directed == frozenset({("o", "m"), ("m", "y")})
        assert not scm.graph.bidirected

    def test_shared_hidden_parent_becomes_bidirected(self):
        variables = (V("a", Role.METRIC), V("b", Role.METRIC))
        mechanisms = {
            "a": Mechanism(kind="linear", hidden_parents=("h",), hidden_weights=(1.0,)),
            "b": Mechanism(kind="linear", hidden_parents=("h",), hidden_weights=(1.0,)),
        }
        scm = scm_from_mechanisms(variables, mechanisms, hidden=("h",))
        assert scm.graph.bidirected == frozenset({frozenset(("a", "b"))})

    def test_unknown_parent_rejected(self):
        variables = (V("a", Role.METRIC),)
        mechanisms = {
            "a": Mechanism(kind="linear", parents=("ghost",), weights=(1.0,))
        }
        with pytest.raises(UnknownVertex):
            scm_from_mechanisms(variables, mechanisms)

    def test_missing_mechanism_rejected(self):
        variables = (V("a", Role.METRIC), V("b", Role.METRIC))
        with pytest.raises(InputError):
            scm_from_mechanisms(variables, {"a": Mechanism(kind="linear")})

    def test_undeclared_hidden_rejected(self):
        variables = (V("a", Role.METRIC),)
        mechanisms = {
            "a": Mechanism(kind="linear", hidden_parents=("h",), hidden_weights=(1.0,))
        }
        with pytest.raises(UnknownVertex):
            scm_from_mechanisms(variables, mechanisms)

    def test_scale_edge(self):
        scm = chain_scm(weight_om=2.0)
        scaled = scale_edge(scm, ("o", "m"), 3.0)
        assert scaled.mechanisms["m"].weights == (6.0,)
        assert scm.mechanisms["m"].weights == (2.0,)  # original untouched
        with pytest.raises(UnknownVertex):
            scale_edge(scm, ("y", "o"), 2.0)

    def test_with_seed(self):
        scm = chain_scm(seed=1)
        assert with_seed(scm, 9).seed == 9
        assert with_seed(scm, 9).mechanisms == scm.mechanisms


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample(chain_scm(seed=3), 500)
        b = sample(chain_scm(seed=3), 500)
        c = sample(chain_scm(seed=4), 500)
        assert np.array_equal(a.column("y"), b.column("y"))
        assert not np.array_equal(a.column("y"), c.column("y"))

    def test_intervention_only_disturbs_descendants(self):
        scm = chain_scm(seed=2)
        plain = sample(scm, 1000)
        forced = intervene(scm, {"m": 0.0}, 1000)
        assert np.array_equal(plain.column("o"), forced.column("o"))
        assert (forced.column("m") == 0.0).all()
        assert not np.array_equal(plain.column("y"), forced.column("y"))

    def test_empty_intervention_is_plain_sampling(self):
        scm = chain_scm(seed=6)
        assert np.array_equal(
            sample(scm, 200).column("y"), intervene(scm, {}, 200).column("y")
        )

    def test_bad_sample_size(self):
        with pytest.raises(InputError):
            sample(chain_scm(), 0)

    def test_unknown_target(self):
        with pytest.raises(UnknownVertex):
            intervene(chain_scm(), {"ghost": 1.0}, 10)


class TestOracleEffects:
    def test_linear_chain_matches_arithmetic(self):
        # levels {0,1,2}, total weight 2: pairwise gaps 2, 4, 2 -> mean 8/3
        scm = chain_scm(weight_om=2.0, weight_my=1.0, seed=5)
        assert interventional_ace(scm, "o", "y") == pytest.approx(8.0 / 3.0, abs=0.05)

    def test_continuous_treatment_rejected(self):
        scm = chain_scm()
        with pytest.raises(InputError):
            interventional_ace(scm, "m", "y")

    def test_total_linear_effect_multiplies_and_sums(self):
        variables = (
            V("o", Role.OPTION, Kind.DISCRETE),
            V("m1", Role.METRIC),
            V("m2", Role.METRIC),
            V("y", Role.OBJECTIVE),
        )
        mechanisms = {
            "o": Mechanism(kind="uniform_levels", levels=2),
            "m1": Mechanism(kind="linear", parents=("o",), weights=(2.0,)),
            "m2": Mechanism(kind="linear", parents=("o",), weights=(-1.0,)),
            "y": Mechanism(kind="linear", parents=("m1", "m2"), weights=(3.0, 4.0)),
        }
        scm = scm_from_mechanisms(variables, mechanisms)
        assert total_linear_effect(scm, "o", "y") == pytest.approx(2.0)  # 6 - 4
        assert total_linear_effect(scm, "m1", "m2") == 0.0
        with pytest.raises(UnknownVertex):
            total_linear_effect(scm, "o", "ghost")


class TestGeneratedModels:
    def test_layering_and_roles(self):
        scm = generate_scm(4, 6, 2, 0.5, seed=9, boolean_objectives=1)
        assert scm.options == ("o01", "o02", "o03", "o04")
        assert scm.objectives == ("y01", "y02")
        roles = {v.name: v.role for v in scm.variables}
        for u, v in scm.graph.directed:
            assert roles[u] != Role.OBJECTIVE  # objectives are sinks
            assert roles[v] != Role.OPTION  # options are sources
            assert not (roles[u] == Role.OPTION and roles[v] == Role.OPTION)
        kinds = [v.kind for v in scm.variables if v.role == Role.OBJECTIVE]
        assert kinds.count(Kind.BOOLEAN) == 1

    def test_latents_avoid_options(self):
        scm = generate_scm(3, 6, 1, 0.5, seed=2, n_latents=3)
        assert scm.graph.bidirected
        option_set = set(scm.options)
        for pair in scm.graph.bidirected:
            assert not pair & option_set

    def test_boolean_objective_failure_rate_is_calibrated(self):
        scm = generate_scm(3, 5, 2, 0.4, seed=21, boolean_objectives=2)
        ds = sample(scm, 4000)
        for obj in scm.objectives:
            rate = float((ds.column(obj) == 0).mean())
            assert 0.02 < rate < 0.25


class TestCuration:
    def test_continuous_rule_flags_upper_tail(self):
        scm = chain_scm(seed=8)
        ds = sample(scm, 1600)
        truth = curate_ground_truth(scm, ds)
        entry = truth.entry_for("y")
        assert entry.rule == "quantile_0.99"
        assert len(entry.fault_row_indices) == 16
        assert entry.true_root_causes == ("o",)
        col = ds.column("y")
        flagged = col[list(entry.fault_row_indices)]
        assert flagged.min() > np.quantile(col, 0.99)

    def test_null_effect_option_not_blamed(self):
        variables = (
            V("o1", Role.OPTION, Kind.DISCRETE),
            V("o2", Role.OPTION, Kind.DISCRETE),
            V("m", Role.METRIC),
            V("mdead", Role.METRIC),
            V("y", Role.OBJECTIVE),
        )
        mechanisms = {
            "o1": Mechanism(kind="uniform_levels", levels=2),
            "o2": Mechanism(kind="uniform_levels", levels=2),
            "m": Mechanism(kind="linear", parents=("o1",), weights=(1.5,)),
            "mdead": Mechanism(kind="linear", parents=("o2",), weights=(1.5,)),
            "y": Mechanism(kind="linear", parents=("m",), weights=(1.0,)),
        }
        scm = scm_from_mechanisms(variables, mechanisms, seed=3)
        truth = curate_ground_truth(scm, sample(scm, 800))
        assert truth.entry_for("y").true_root_causes == ("o1",)

    def test_boolean_rule(self):
        variables = (
            V("o", Role.OPTION, Kind.DISCRETE),
            V("ok", Role.OBJECTIVE, Kind.BOOLEAN),
        )
        mechanisms = {
            "o": Mechanism(kind="uniform_levels", levels=2),
            "ok": Mechanism(
                kind="boolean_threshold", parents=("o",), weights=(2.0,),
                thresholds=(0.5,),
            ),
        }
        scm = scm_from_mechanisms(variables, mechanisms, seed=4)
        ds = sample(scm, 500)
        entry = curate_ground_truth(scm, ds).entry_for("ok")
        assert entry.rule == "boolean_false"
        assert set(entry.fault_row_indices) == set(np.flatnonzero(ds.column("ok") == 0))

    def test_unfailable_objective_is_an_error(self):
        variables = (
            V("o", Role.OPTION, Kind.DISCRETE),
            V("ok", Role.OBJECTIVE, Kind.BOOLEAN),
        )
        mechanisms = {
            "o": Mechanism(kind="uniform_levels", levels=2),
            "ok": Mechanism(kind="boolean_threshold", thresholds=(-math.inf,)),
        }
        scm = scm_from_mechanisms(variables, mechanisms, seed=4)
        with pytest.raises(NoFaultyRows):
            curate_ground_truth(scm, sample(scm, 100))

    def test_truth_json_roundtrip(self):
        truth = GroundTruth(
            (FaultEntry("y", "quantile_0.99", (3, 7), ("o1", "o2")),)
        )
        again = GroundTruth.from_json_dict(truth.to_json_dict())
        assert again == truth

    def test_truth_json_rejects_unknown_keys(self):
        payload = GroundTruth((FaultEntry("y", "boolean_false", (0,), ("o",)),)).to_json_dict()
        payload["faults"][0]["weight"] = 2.0
        with pytest.raises(InputError, match="weight"):
            GroundTruth.from_json_dict(payload)

    def test_unknown_objective_lookup(self):
        truth = GroundTruth((FaultEntry("y", "boolean_false", (0,), ("o",)),))
        with pytest.raises(ObjectiveMismatch):
            truth.entry_for("z")


class TestEvaluate:
    def _truth(self):
        return GroundTruth(
            (FaultEntry("y", "quantile_0.99", (0,), ("a", "b")),)
        )

    def test_confusion_arithmetic(self):
        pred = Diagnosis("y", (), ("a", "c"))
        report = evaluate(
            pred, self._truth(), ["a", "b", "c", "d"],
            ace_values={"a": 1.0, "b": 0.5, "c": 0.2},
        )
        assert (report.tp, report.fp, report.fn, report.tn) == (1, 1, 1, 1)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)
        assert report.accuracy == pytest.approx(0.5)
        # positional gaps: (1-1)^2 and (0.5-0.2)^2 over two ranked slots
        assert report.rmse == pytest.approx((0.045) ** 0.5)

    def test_perfect_prediction(self):
        pred = Diagnosis("y", (), ("a", "b"))
        report = evaluate(
            pred, self._truth(), ["a", "b", "c"], ace_values={"a": 1.0, "b": 0.5}
        )
        assert report.f1 == 1.0
        assert report.rmse == 0.0

    def test_empty_prediction_zero_scores(self):
        pred = Diagnosis("y", (), ())
        report = evaluate(pred, self._truth(), ["a", "b", "c"])
        assert report.f1 == 0.0
        assert report.recall == 0.0
        assert report.rmse == 0.0

    def test_prediction_outside_universe(self):
        pred = Diagnosis("y", (), ("zz",))
        with pytest.raises(InputError):
            evaluate(pred, self._truth(), ["a", "b"])


class TestBenchmarkFixtures:
    def test_fault_census(self):
        cases = make_fault_benchmark(seed=0, n_scms=4, n_rows=1600)
        assert len(cases) == 4
        for case in cases:
            assert len(case.truth.faults) == 2
            for entry in case.truth.faults:
                assert 2 <= len(entry.true_root_causes) <= 4
            assert case.dataset.sample_count == 1600

    def test_benchmark_deterministic(self):
        a = make_fault_benchmark(seed=1, n_scms=2)
        b = make_fault_benchmark(seed=1, n_scms=2)
        assert a[0].scm.to_json_dict() == b[0].scm.to_json_dict()
        assert a[0].truth.to_json_dict() == b[0].truth.to_json_dict()
        assert np.array_equal(
            a[1].dataset.column("y_energy"), b[1].dataset.column("y_energy")
        )

    def test_ranking_every_objective_at_once_equals_one_diagnosis_each(self):
        """``run_benchmark`` ranks all objectives of a system in one ``cpwe``
        call: each entry is ``diagnose``'s answer, and the empty diagnosis
        where ``diagnose`` finds no path."""
        empty = 0
        for case in make_fault_benchmark(0, 2, 400):
            ds = case.dataset
            _, learned = learn_model(ds)
            # the same model with one objective cut off, so that it has no path
            cut = ds.objectives[0]
            isolated = Admg(
                learned.vertices,
                frozenset(e for e in learned.directed if cut not in e),
                frozenset(e for e in learned.bidirected if cut not in e),
            )
            for admg in (learned, isolated):
                ranked = cpwe(ds, admg)
                assert sorted(ranked) == sorted(ds.objectives)
                for y in ds.objectives:
                    try:
                        expected = diagnose(ds, admg, y)
                    except NoPathsFound:
                        expected = Diagnosis(y, (), ())
                        empty += 1
                    assert ranked[y] == expected
        assert empty == 2

    def test_transfer_pair_differs_in_one_weight(self):
        base, shifted = transfer_scm(seed=0)
        assert base.graph.directed == shifted.graph.directed
        idx = base.mechanisms["y"].parents.index("m1")
        assert shifted.mechanisms["y"].weights[idx] == pytest.approx(
            4.0 * base.mechanisms["y"].weights[idx]
        )

    def test_bin_count_reaches_every_effect(self, monkeypatch):
        """``bench --bins`` estimates each effect, in the diagnoses and in
        the transfer series, with the model's bin count."""
        seen = []

        def recording(ds, admg, treatment, outcome, bins=5, **kwargs):
            seen.append(bins)
            return ace_edge(ds, admg, treatment, outcome, bins, **kwargs)

        monkeypatch.setattr(effects, "ace_edge", recording)
        monkeypatch.setattr(synthbench, "ace_edge", recording)
        params = ModelParams(bins=7)
        run_benchmark(n_scms=1, params=params)
        assert seen and set(seen) == {7}
        seen.clear()
        transfer_series(params=params)
        assert seen and set(seen) == {7}

    def test_tiered_variance_separation(self):
        scm = tiered_scm(seed=0)
        strong = objective_variance_under(
            scm, scm.objectives[0], scm.options[:2], n=3000
        )
        weak = objective_variance_under(
            scm, scm.objectives[0], scm.options[-2:], n=3000
        )
        assert strong > weak
