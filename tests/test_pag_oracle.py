"""The structure search checked by meaning: with every CI test answered by
m-separation in the generating model, the search must return a sound PAG,
and one that does not depend on the variables' names.

The oracle tester (``tests/oracle.py``) answers from ``scm.graph``, with
each bidirected edge taken as a latent parent of its two endpoints.
Soundness follows Zhang (2008, AIJ 172): the adjacencies are the true
MAG's, an arrowhead at v means v is not an ancestor of u, and a tail at u
means u is an ancestor of v. Rules R5-R7, which only selection bias needs,
are not part of the search.
"""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcause import discovery
from confcause.dataset import Role
from confcause.discovery import Mark
from confcause.resolve import Admg
from confcause.synthbench import generate_scm

from oracle import OracleTester


def _oracle_pag(scm):
    oracle = OracleTester(scm.graph)
    pag = discovery._search(oracle, scm.variables, len(scm.variables))
    return pag, oracle


def _mag_adjacencies(oracle: OracleTester) -> set[frozenset[str]]:
    """Pairs no subset of the other observed variables separates."""
    names = oracle.names
    adjacent = set()
    for u, v in itertools.combinations(names, 2):
        rest = [w for w in names if w not in (u, v)]
        subsets = itertools.chain.from_iterable(
            itertools.combinations(rest, k) for k in range(len(rest) + 1)
        )
        if not any(oracle.separated(u, v, frozenset(s)) for s in subsets):
            adjacent.add(frozenset((u, v)))
    return adjacent


def _assert_sound(scm) -> None:
    pag, oracle = _oracle_pag(scm)
    # a sound orientation never contradicts the role-derived marks
    assert not pag.conflicts
    assert set(pag.adjacencies()) == _mag_adjacencies(oracle)
    roles = {v.name: v.role for v in scm.variables}
    ancestors = {v: scm.graph.ancestors(v) for v in oracle.names}
    for e in pag.edges:
        assert not roles[e.u] == roles[e.v] == Role.OPTION, e
        for here, there, mark in ((e.u, e.v, e.mark_u), (e.v, e.u, e.mark_v)):
            if mark == Mark.ARROW:
                assert here not in ancestors[there], e
            elif mark == Mark.TAIL:
                assert here in ancestors[there], e


SEEDED = [
    (shape, 0.5, n_latents, seed)
    for shape in ((2, 5, 1), (3, 3, 2), (1, 6, 1))
    for n_latents in (0, 2)
    for seed in range(8)
] + [
    # in these, only the possible-d-sep pass removes a non-adjacent pair
    ((1, 5, 1), 0.3, 2, 29),
    ((2, 5, 1), 0.3, 2, 16),
    ((2, 2, 2), 0.8, 2, 28),
    ((3, 3, 2), 0.5, 2, 18),
]


@pytest.mark.parametrize("shape, density, n_latents, seed", SEEDED)
def test_oracle_search_is_sound_on_seeded_systems(shape, density, n_latents, seed):
    scm = generate_scm(*shape, density, seed=seed, n_latents=n_latents)
    _assert_sound(scm)


@settings(max_examples=60, deadline=None)
@given(
    n_options=st.integers(1, 3),
    n_metrics=st.integers(1, 5),
    n_objectives=st.integers(1, 2),
    density=st.sampled_from([0.3, 0.5, 0.8]),
    n_latents=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_oracle_search_is_sound(n_options, n_metrics, n_objectives, density,
                                n_latents, seed):
    n_metrics = min(n_metrics, 8 - n_options - n_objectives)
    scm = generate_scm(n_options, n_metrics, n_objectives, density,
                       seed=seed, n_latents=n_latents)
    _assert_sound(scm)


def _renamed_graph(graph: Admg, rng: random.Random) -> tuple[Admg, dict[str, str]]:
    """The graph with its vertices renamed by a permutation within each
    role, and the renaming."""
    names = {}
    for role in Role:
        same = [v.name for v in graph.vertices if v.role == role]
        names.update(zip(same, rng.sample(same, len(same))))
    return Admg(
        tuple(replace(v, name=names[v.name]) for v in graph.vertices),
        frozenset((names[u], names[v]) for u, v in graph.directed),
        frozenset(frozenset(map(names.get, pair)) for pair in graph.bidirected),
    ), names


@settings(max_examples=40, deadline=None)
@given(
    n_options=st.integers(1, 3),
    n_metrics=st.integers(1, 5),
    n_objectives=st.integers(1, 2),
    density=st.sampled_from([0.3, 0.5, 0.8]),
    n_latents=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    renaming=st.integers(0, 2**16),
)
def test_oracle_search_does_not_depend_on_names(n_options, n_metrics, n_objectives, density,
                                                n_latents, seed, renaming):
    """Renaming the variables within their roles, and mapping the names of
    the searched PAG back, gives the same adjacencies and marks: with perfect
    test answers, the order the search takes names in decides nothing."""
    n_metrics = min(n_metrics, 8 - n_options - n_objectives)
    graph = generate_scm(n_options, n_metrics, n_objectives, density,
                         seed=seed, n_latents=n_latents).graph
    renamed, names = _renamed_graph(graph, random.Random(renaming))
    back = {new: old for old, new in names.items()}
    want = discovery._search(OracleTester(graph), graph.vertices, len(graph.vertices))
    got = discovery._search(OracleTester(renamed), renamed.vertices, len(graph.vertices))
    marks = {}
    for (u, v), (mark_u, mark_v) in got.edge_marks().items():
        u, v = back[u], back[v]
        marks[(u, v) if u < v else (v, u)] = (mark_u, mark_v) if u < v else (mark_v, mark_u)
    assert marks == want.edge_marks()
