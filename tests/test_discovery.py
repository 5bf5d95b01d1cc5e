"""Graph-learning behavior on systems whose answer is known by construction."""

import logging
import re

import numpy as np
import pytest

from confcause.dataset import Dataset, Kind, Role, VariableMeta
from confcause.discovery import Mark, Pag, _FisherZTester, build_constraints, fci
from confcause.errors import InputError, MissingRole
from confcause.synthbench import Mechanism, sample, scm_from_mechanisms

N = 20000


def _meta(name, role, kind=Kind.CONTINUOUS):
    return VariableMeta(name, role, kind)


def chain_system(seed=0):
    """o -> m -> y with unit-scale weights."""
    variables = (
        _meta("o", Role.OPTION, Kind.DISCRETE),
        _meta("m", Role.METRIC),
        _meta("y", Role.OBJECTIVE),
    )
    mechanisms = {
        "o": Mechanism(kind="uniform_levels", levels=3),
        "m": Mechanism(kind="linear", parents=("o",), weights=(1.0,)),
        "y": Mechanism(kind="linear", parents=("m",), weights=(1.0,)),
    }
    return scm_from_mechanisms(variables, mechanisms, seed=seed)


def collider_system(seed=0):
    """Two independent chains meeting at a shared downstream metric."""
    variables = (
        _meta("o1", Role.OPTION, Kind.DISCRETE),
        _meta("o2", Role.OPTION, Kind.DISCRETE),
        _meta("m1", Role.METRIC),
        _meta("m2", Role.METRIC),
        _meta("m3", Role.METRIC),
        _meta("y", Role.OBJECTIVE),
    )
    mechanisms = {
        "o1": Mechanism(kind="uniform_levels", levels=3),
        "o2": Mechanism(kind="uniform_levels", levels=3),
        "m1": Mechanism(kind="linear", parents=("o1",), weights=(1.2,)),
        "m2": Mechanism(kind="linear", parents=("o2",), weights=(1.2,)),
        "m3": Mechanism(kind="linear", parents=("m1", "m2"), weights=(1.0, 1.0)),
        "y": Mechanism(kind="linear", parents=("m3",), weights=(1.0,)),
    }
    return scm_from_mechanisms(variables, mechanisms, seed=seed)


def confounded_system(seed=0):
    """m1 and m2 share a hidden driver; only m2 feeds the objective."""
    variables = (
        _meta("o1", Role.OPTION, Kind.DISCRETE),
        _meta("m1", Role.METRIC),
        _meta("m2", Role.METRIC),
        _meta("y", Role.OBJECTIVE),
    )
    mechanisms = {
        "o1": Mechanism(kind="uniform_levels", levels=3),
        "m1": Mechanism(
            kind="linear", parents=("o1",), weights=(1.0,),
            hidden_parents=("h",), hidden_weights=(1.0,),
        ),
        "m2": Mechanism(
            kind="linear", hidden_parents=("h",), hidden_weights=(1.0,)
        ),
        "y": Mechanism(kind="linear", parents=("m2",), weights=(1.0,)),
    }
    return scm_from_mechanisms(variables, mechanisms, hidden=("h",), seed=seed)


def learn(scm, n=N, alpha=0.05):
    ds = sample(scm, n)
    return fci(ds, build_constraints(ds.variables), alpha=alpha)


def test_chain_orients_completely():
    pag = learn(chain_system())
    marks = pag.edge_marks()
    assert set(marks) == {("m", "o"), ("m", "y")}
    assert marks[("m", "o")] == (Mark.ARROW, Mark.TAIL)  # o --> m
    assert marks[("m", "y")] == (Mark.TAIL, Mark.ARROW)  # m --> y
    assert pag.circle_count() == 0


def test_collider_and_away_propagation():
    pag = learn(collider_system())
    marks = pag.edge_marks()
    assert set(marks) == {
        ("m1", "o1"), ("m2", "o2"), ("m1", "m3"), ("m2", "m3"), ("m3", "y"),
    }
    # the shared sink receives arrows; the remote ends then pick up tails
    assert marks[("m1", "m3")] == (Mark.TAIL, Mark.ARROW)
    assert marks[("m2", "m3")] == (Mark.TAIL, Mark.ARROW)
    assert marks[("m3", "y")] == (Mark.TAIL, Mark.ARROW)
    assert pag.circle_count() == 0


def test_hidden_confounder_leaves_arrow_not_tail():
    pag = learn(confounded_system())
    marks = pag.edge_marks()
    assert frozenset(("m1", "m2")) in pag.adjacencies()
    # collider check at m1: o1 and m2 are marginally independent
    assert marks[("m1", "m2")][0] == Mark.ARROW
    # no separating set exists for the confounded pair
    assert frozenset(("m1", "m2")) not in pag.sepsets
    assert frozenset(("o1", "m2")) in pag.sepsets
    assert pag.sepsets[frozenset(("o1", "m2"))] == frozenset()


def test_option_pairs_never_adjacent_and_marks_respect_roles():
    scm = collider_system(seed=3)
    pag = learn(scm, n=4000)
    roles = {v.name: v.role for v in pag.vertices}
    for edge in pag.edges:
        assert {roles[edge.u], roles[edge.v]} != {Role.OPTION}
        for name, mark in ((edge.u, edge.mark_u), (edge.v, edge.mark_v)):
            if roles[name] == Role.OPTION:
                assert mark == Mark.TAIL
            if roles[name] == Role.OBJECTIVE:
                assert mark == Mark.ARROW


def test_same_seed_same_output():
    a = learn(collider_system(seed=9), n=3000)
    b = learn(collider_system(seed=9), n=3000)
    assert a.to_json_dict() == b.to_json_dict()


def test_column_order_irrelevant():
    ds = sample(collider_system(seed=5), 3000)
    sc = build_constraints(ds.variables)
    shuffled = Dataset(
        tuple(reversed(ds.variables)),
        {name: ds.column(name) for name in reversed(ds.names)},
        ds.sample_count,
    )
    a = fci(ds, sc)
    b = fci(shuffled, build_constraints(shuffled.variables))
    assert a.edge_marks() == b.edge_marks()


def test_warm_start_reaches_same_skeleton():
    ds = sample(collider_system(seed=11), 6000)
    sc = build_constraints(ds.variables)
    cold = fci(ds, sc)
    warm = fci(
        ds, sc,
        warm_adjacencies=cold.adjacencies(),
        warm_sepsets=cold.sepsets,
    )
    assert warm.adjacencies() == cold.adjacencies()
    assert warm.edge_marks() == cold.edge_marks()


def test_warm_start_readds_wrongly_missing_edge():
    ds = sample(chain_system(seed=2), 6000)
    sc = build_constraints(ds.variables)
    # seed the skeleton with the m-y edge absent and a bogus separator
    warm = fci(
        ds, sc,
        warm_adjacencies=[frozenset(("m", "o"))],
        warm_sepsets={frozenset(("m", "y")): frozenset()},
    )
    assert frozenset(("m", "y")) in warm.adjacencies()


def test_bad_alpha_rejected():
    ds = sample(chain_system(), 100)
    sc = build_constraints(ds.variables)
    for alpha in (0.0, 1.0, -0.2):
        with pytest.raises(InputError):
            fci(ds, sc, alpha=alpha)


def test_role_coverage_required():
    variables = (
        _meta("o", Role.OPTION, Kind.DISCRETE),
        _meta("m", Role.METRIC),
    )
    rng = np.random.default_rng(0)
    ds = Dataset(
        variables,
        {"o": rng.integers(0, 2, 100), "m": rng.standard_normal(100)},
        100,
    )
    with pytest.raises(MissingRole):
        fci(ds, build_constraints(variables))


def test_json_roundtrip():
    pag = learn(confounded_system(seed=1), n=3000)
    again = Pag.from_json_dict(pag.to_json_dict())
    assert again.edge_marks() == pag.edge_marks()
    assert again.sepsets == pag.sepsets
    assert again.to_json_dict() == pag.to_json_dict()


def test_dot_export_mentions_every_vertex():
    pag = learn(chain_system(), n=1000)
    dot = pag.to_dot()
    for name in pag.vertex_names:
        assert f'"{name}"' in dot
    assert dot.startswith("digraph")


def _copied_metric(ds, source, name):
    """The dataset with one more metric, an exact copy of ``source``."""
    return Dataset(
        (*ds.variables, _meta(name, Role.METRIC)),
        {**ds.columns, name: ds.column(source).copy()},
        ds.sample_count,
    )


def test_untestable_queries_counted_once():
    ds = _copied_metric(sample(chain_system(seed=3), 2000), "m", "m2")
    tester = _FisherZTester(ds, 0.05)
    assert tester.first_independent("o", "y", [("m", "m2"), ("m",)]) == 1
    assert (tester.test_count, tester.untestable_count) == (1, 1)
    assert tester.first_independent("o", "y", [("m", "m2")]) is None  # cached
    assert (tester.test_count, tester.untestable_count) == (1, 1)

    flat = Dataset(
        (*ds.variables, _meta("k", Role.METRIC)),
        {**ds.columns, "k": np.full(ds.sample_count, 2.0)},
        ds.sample_count,
    )
    tester = _FisherZTester(flat, 0.05)
    assert tester.first_independent("k", "y", [("m",)]) == 0  # constant, not untestable
    assert (tester.test_count, tester.untestable_count) == (0, 0)

    few = Dataset(ds.variables, {k: v[:5] for k, v in ds.columns.items()}, 5)
    tester = _FisherZTester(few, 0.05)
    assert tester.first_independent("o", "y", [("m", "m2"), ("m",), ()]) is not None
    assert tester.untestable_count == 1  # five rows cannot condition on two


def test_search_log_names_untestable_queries(caplog):
    caplog.set_level(logging.INFO, logger="confcause.discovery")
    ds = _copied_metric(sample(collider_system(seed=4), 3000), "m3", "m4")
    fci(ds, build_constraints(ds.variables))
    message = [m for m in caplog.messages if m.startswith("structure search")][-1]
    match = re.fullmatch(
        r"structure search: .* (\d+) untestable queries, (\d+) CI tests", message
    )
    assert match and int(match.group(1)) > 0 and int(match.group(2)) > 0
