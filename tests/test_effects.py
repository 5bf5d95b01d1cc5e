"""Effect estimation, path ranking and the learn/update pipeline."""

import numpy as np
import pytest

from confcause import effects
from confcause.dataset import Dataset, Kind, Role, VariableMeta
from confcause.effects import (
    ModelParams,
    ace_edge,
    cpwe,
    diagnose,
    extract_paths,
    learn_model,
    path_ace,
    update_model,
)
from confcause.errors import (
    InputError,
    NoPathsFound,
    SchemaMismatch,
    UnidentifiableEffect,
)
from confcause.resolve import Admg
from confcause.synthbench import generate_scm, interventional_ace, sample

from test_discovery import chain_system


def V(name, role, kind=Kind.DISCRETE):
    return VariableMeta(name, role, kind)


def graph(variables, directed=(), bidirected=()):
    return Admg(
        tuple(variables),
        frozenset(directed),
        frozenset(frozenset(p) for p in bidirected),
    )


# --------------------------------------------------------------------------
# path extraction


class TestExtractPaths:
    def test_single_chain(self):
        g = graph(
            [V("o1", Role.OPTION), V("m1", Role.METRIC), V("y1", Role.OBJECTIVE)],
            directed=[("o1", "m1"), ("m1", "y1")],
        )
        assert extract_paths(g, "y1") == [("o1", "m1", "y1")]

    def test_bidirected_segment_is_traversable(self):
        g = graph(
            [
                V("o1", Role.OPTION),
                V("m1", Role.METRIC),
                V("m2", Role.METRIC),
                V("y1", Role.OBJECTIVE),
            ],
            directed=[("o1", "m1"), ("m2", "y1")],
            bidirected=[("m1", "m2")],
        )
        assert extract_paths(g, "y1") == [("o1", "m1", "m2", "y1")]

    def test_two_origins_both_found(self):
        g = graph(
            [
                V("o1", Role.OPTION),
                V("o2", Role.OPTION),
                V("m1", Role.METRIC),
                V("y1", Role.OBJECTIVE),
            ],
            directed=[("o1", "m1"), ("o2", "m1"), ("m1", "y1")],
        )
        assert extract_paths(g, "y1") == [
            ("o1", "m1", "y1"),
            ("o2", "m1", "y1"),
        ]

    def test_other_objectives_never_interior(self):
        g = graph(
            [
                V("o1", Role.OPTION),
                V("m1", Role.METRIC),
                V("y1", Role.OBJECTIVE),
                V("y2", Role.OBJECTIVE),
            ],
            directed=[("o1", "m1"), ("y2", "m1"), ("m1", "y1")],
        )
        assert extract_paths(g, "y1") == [("o1", "m1", "y1")]

    def test_origin_with_parents_discarded(self):
        g = graph(
            [
                V("m0", Role.METRIC),
                V("o1", Role.OPTION),
                V("m1", Role.METRIC),
                V("y1", Role.OBJECTIVE),
            ],
            directed=[("m0", "o1"), ("o1", "m1"), ("m1", "y1")],
        )
        assert extract_paths(g, "y1") == []

    def test_target_must_be_an_objective(self):
        g = graph([V("o1", Role.OPTION), V("m1", Role.METRIC)], [("o1", "m1")])
        with pytest.raises(InputError):
            extract_paths(g, "m1")


# --------------------------------------------------------------------------
# backdoor-adjusted effects


def _effect_dataset(rows):
    """rows: sequence of (z, t, y) with z/t discrete levels, y raw outcome."""
    z, t, y = (np.asarray(col) for col in zip(*rows))
    variables = (
        V("z", Role.METRIC),
        V("t", Role.METRIC),
        V("y", Role.OBJECTIVE, Kind.CONTINUOUS),
    )
    cols = {"z": z.astype(np.int64), "t": t.astype(np.int64), "y": y.astype(np.float64)}
    return Dataset(variables, cols, len(rows))


class TestAceEdge:
    def test_no_parents_reduces_to_mean_difference(self):
        ds = _effect_dataset(
            [(0, 0, 1.0), (0, 0, 2.0), (0, 0, 3.0), (0, 1, 5.0), (0, 1, 6.0), (0, 1, 7.0)]
        )
        g = graph(ds.variables, directed=[("t", "y")])
        est = ace_edge(ds, g, "t", "y")
        assert est.value == pytest.approx(4.0)
        assert est.adjustment_set == frozenset()
        assert est.n_treatment_levels == 2

    def test_three_levels_average_all_pairs(self):
        ds = _effect_dataset(
            [(0, 0, 0.0), (0, 0, 0.0), (0, 1, 1.0), (0, 1, 1.0), (0, 2, 4.0), (0, 2, 4.0)]
        )
        g = graph(ds.variables, directed=[("t", "y")])
        # |0-1|, |0-4|, |1-4| -> mean 8/3
        assert ace_edge(ds, g, "t", "y").value == pytest.approx(8.0 / 3.0)

    def test_stratified_standardization_by_hand(self):
        ds = _effect_dataset(
            [
                (0, 0, 1.0), (0, 0, 1.0), (0, 1, 3.0),
                (1, 0, 5.0), (1, 1, 9.0), (1, 1, 9.0),
            ]
        )
        g = graph(ds.variables, directed=[("z", "t"), ("z", "y"), ("t", "y")])
        est = ace_edge(ds, g, "t", "y")
        # each stratum holds half the mass: t=0 -> (1+5)/2, t=1 -> (3+9)/2
        assert est.value == pytest.approx(3.0)
        assert est.adjustment_set == frozenset({"z"})

    def test_uncovered_stratum_renormalized(self):
        ds = _effect_dataset(
            [(0, 0, 1.0), (0, 0, 1.0), (1, 0, 5.0), (1, 1, 9.0), (1, 1, 9.0)]
        )
        g = graph(ds.variables, directed=[("z", "t"), ("z", "y"), ("t", "y")])
        est = ace_edge(ds, g, "t", "y")
        # t=0 covers both strata: 0.4*1 + 0.6*5 = 3.4; t=1 only z=1: 9
        assert est.value == pytest.approx(5.6)

    def test_adjustment_removes_confounding_bias(self):
        from confcause.synthbench import Mechanism, scm_from_mechanisms

        variables = (
            V("z", Role.METRIC),
            V("t", Role.METRIC),
            V("y", Role.OBJECTIVE, Kind.CONTINUOUS),
        )
        mechanisms = {
            "z": Mechanism(kind="uniform_levels", levels=2),
            "t": Mechanism(
                kind="threshold_levels", parents=("z",), weights=(2.0,),
                noise_scale=0.8, thresholds=(1.0,),
            ),
            "y": Mechanism(kind="linear", parents=("t", "z"), weights=(1.0, 1.8)),
        }
        scm = scm_from_mechanisms(variables, mechanisms, seed=17)
        ds = sample(scm, 20000)
        oracle = interventional_ace(scm, "t", "y")

        naive = ace_edge(ds, graph(variables, [("t", "y")]), "t", "y")
        adjusted = ace_edge(
            ds, graph(variables, [("z", "t"), ("z", "y"), ("t", "y")]), "t", "y"
        )
        assert abs(naive.value - oracle) > 0.3
        assert abs(adjusted.value - oracle) <= 0.1

    def test_spouse_reaching_outcome_is_unidentifiable(self):
        vs = [V("t", Role.METRIC), V("m", Role.METRIC), V("y", Role.OBJECTIVE)]
        g = graph(vs, directed=[("m", "y"), ("t", "y")], bidirected=[("t", "m")])
        ds = Dataset(
            tuple(vs),
            {"t": np.array([0, 1]), "m": np.array([0, 1]), "y": np.array([0.0, 1.0])},
            2,
        )
        with pytest.raises(UnidentifiableEffect):
            ace_edge(ds, g, "t", "y")

    def test_spouse_elsewhere_is_fine(self):
        vs = [V("t", Role.METRIC), V("m", Role.METRIC), V("y", Role.OBJECTIVE)]
        # m is confounded with t but does not reach y: still identifiable
        g = graph(vs, directed=[("t", "y")], bidirected=[("t", "m")])
        ds = Dataset(
            tuple(vs),
            {
                "t": np.array([0, 0, 1, 1]),
                "m": np.array([0, 1, 0, 1]),
                "y": np.array([0.0, 0.0, 2.0, 2.0]),
            },
            4,
        )
        assert ace_edge(ds, g, "t", "y").value == pytest.approx(2.0)

    def test_same_vertex_rejected(self):
        ds = _effect_dataset([(0, 0, 0.0)])
        g = graph(ds.variables)
        with pytest.raises(InputError):
            ace_edge(ds, g, "t", "t")

    def test_single_level_treatment_scores_zero(self):
        ds = _effect_dataset([(0, 1, 3.0), (0, 1, 4.0)])
        g = graph(ds.variables, directed=[("t", "y")])
        est = ace_edge(ds, g, "t", "y")
        assert est.value == 0.0
        assert est.n_treatment_levels == 1


class TestPathAce:
    def test_mean_of_magnitudes(self):
        assert path_ace(("a", "b", "c"), (0.5, -1.5)) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            path_ace(("a", "b", "c"), (0.5,))

    def test_empty_path(self):
        with pytest.raises(InputError):
            path_ace(("a",), ())


# --------------------------------------------------------------------------
# ranking and pipeline


@pytest.fixture(scope="module")
def learned():
    scm = chain_system(seed=7)
    ds = sample(scm, 8000)
    pag, admg = learn_model(ds, ModelParams())
    return scm, ds, admg


class TestRanking:
    def test_diagnose_recovers_chain_origin(self, learned):
        _, ds, admg = learned
        diag = diagnose(ds, admg, "y")
        assert diag.root_causes == ("o",)
        assert diag.ranked_paths[0].vertices == ("o", "m", "y")
        assert diag.ranked_paths[0].path_ace > 0.1

    def test_cpwe_covers_every_objective(self, learned):
        _, ds, admg = learned
        out = cpwe(ds, admg)
        assert set(out) == {"y"}

    def test_top_k_truncates(self, learned):
        _, ds, admg = learned
        diag = diagnose(ds, admg, "y", top_k=1)
        assert len(diag.ranked_paths) <= 1

    def test_bad_top_k(self, learned):
        _, ds, admg = learned
        with pytest.raises(InputError):
            cpwe(ds, admg, top_k=0)

    def test_no_paths_is_an_error_for_diagnose(self):
        vs = (V("o1", Role.OPTION), V("y1", Role.OBJECTIVE))
        g = Admg(vs, frozenset(), frozenset())
        ds = Dataset(
            vs, {"o1": np.array([0, 1]), "y1": np.array([0, 1])}, 2
        )
        with pytest.raises(NoPathsFound):
            diagnose(ds, g, "y1")
        # ...but the multi-objective ranker just returns an empty diagnosis
        out = cpwe(ds, g)
        assert out["y1"].ranked_paths == ()

    def test_diagnosis_json_shape(self, learned):
        _, ds, admg = learned
        payload = diagnose(ds, admg, "y").to_json_dict()
        assert payload["method"] == "care"
        assert payload["objective"] == "y"
        assert payload["root_causes"] == ["o"]
        assert payload["paths"][0]["vertices"] == ["o", "m", "y"]


def test_cpwe_bins_each_column_once(monkeypatch):
    ds = sample(generate_scm(3, 8, 2, 0.4, seed=2), 2000)
    _, admg = learn_model(ds)
    binned: list[str] = []
    real = effects.discretize

    def counting(data, specs):
        binned.extend(spec.variable for spec in specs)
        return real(data, specs)

    monkeypatch.setattr(effects, "discretize", counting)
    diags = cpwe(ds, admg)
    assert binned and len(binned) == len(set(binned))

    # each edge effect equals ace_edge called on its own, which bins afresh
    binned.clear()
    for diag in diags.values():
        for path in diag.ranked_paths:
            for a, b, value in zip(path.vertices, path.vertices[1:], path.edge_aces):
                if (a, b) in admg.directed:
                    assert ace_edge(ds, admg, a, b).value == value
    assert len(binned) > len(set(binned))


class TestUpdateModel:
    def _data(self, seed, n=6000):
        return sample(chain_system(seed=seed), n)

    def test_empty_batch_is_identity(self):
        ds = self._data(3)
        _, admg = learn_model(ds)
        empty = Dataset(ds.variables, {n: ds.column(n)[:0] for n in ds.names}, 0)
        assert update_model(admg, ds, empty) is admg

    def test_schema_mismatch_rejected(self):
        ds = self._data(3)
        _, admg = learn_model(ds)
        other = Dataset(
            (V("a", Role.OPTION),), {"a": np.array([0, 1])}, 2
        )
        with pytest.raises(SchemaMismatch):
            update_model(admg, ds, other)

    def test_update_preserves_true_structure(self):
        ds = self._data(5)
        _, admg = learn_model(ds)
        batch = self._data(6, n=3000)
        refreshed = update_model(admg, ds, batch)
        assert ("o", "m") in refreshed.directed
        assert ("m", "y") in refreshed.directed
