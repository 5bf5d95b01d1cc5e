"""Graph-learning behavior on systems whose answer is known by construction."""

import itertools
import json
import logging
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confcause import discovery
from confcause.dataset import Dataset, Kind, Role, VariableMeta
from confcause.discovery import (
    Mark,
    _FisherZTester,
    _Graph,
    _RuleEngine,
    build_constraints,
    fci,
)
from confcause.effects import learn_model, update_model
from confcause.errors import (EmptyDataset, InputError, InsufficientSamples, MissingRole,
                              UnknownVariable)
from confcause.resolve import Admg
from confcause.stats import covariance
from confcause.synthbench import Mechanism, generate_scm, sample, scm_from_mechanisms

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
    return fci(ds, alpha=alpha)


def test_chain_orients_completely():
    pag = learn(chain_system())
    marks = pag.edge_marks()
    assert set(marks) == {("m", "o"), ("m", "y")}
    assert marks[("m", "o")] == (Mark.ARROW, Mark.TAIL)  # o --> m
    assert marks[("m", "y")] == (Mark.TAIL, Mark.ARROW)  # m --> y
    assert all(Mark.CIRCLE not in ends for ends in marks.values())


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
    assert all(Mark.CIRCLE not in ends for ends in marks.values())


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


def test_warm_start_reaches_same_skeleton():
    ds = sample(collider_system(seed=11), 6000)
    cold = fci(ds)
    warm = fci(
        ds,
        warm_adjacencies=cold.adjacencies(),
        warm_sepsets=cold.sepsets,
    )
    assert warm.adjacencies() == cold.adjacencies()
    assert warm.edge_marks() == cold.edge_marks()


def test_warm_start_readds_wrongly_missing_edge():
    ds = sample(chain_system(seed=2), 6000)
    # seed the skeleton with the m-y edge absent and a bogus separator
    warm = fci(
        ds,
        warm_adjacencies=[frozenset(("m", "o"))],
        warm_sepsets={frozenset(("m", "y")): frozenset()},
    )
    assert frozenset(("m", "y")) in warm.adjacencies()


def test_warm_start_rejects_a_separator_naming_no_column(monkeypatch):
    """A recorded separator that names a variable outside the table is
    refused by name before any CI test runs, through ``update_model`` too."""
    ds = sample(chain_system(seed=2), 600)
    monkeypatch.setattr(_FisherZTester, "first_separators", None)  # no test may run
    recorded = {frozenset(("m", "y")): frozenset({"o", "nosuch"})}
    with pytest.raises(UnknownVariable) as err:
        fci(ds, warm_adjacencies=[frozenset(("m", "o"))], warm_sepsets=recorded)
    assert err.value.details == {"variable": "nosuch"} and "nosuch" in str(err.value)
    admg = Admg(ds.variables, frozenset({("o", "m")}), frozenset())
    with pytest.raises(UnknownVariable):
        update_model(admg, ds, ds, prev_sepsets=recorded)


def test_bad_alpha_rejected():
    ds = sample(chain_system(), 100)
    for alpha in (0.0, 1.0, -0.2):
        with pytest.raises(InputError):
            fci(ds, alpha=alpha)


def test_overflowing_column_rejected():
    """A column near 1e200 overflows its variance, and with it every
    covariance the tests would read: the search names it and stops."""
    ds = sample(chain_system(), 500)
    huge = _meta("m2", Role.METRIC)
    ds = Dataset((*ds.variables, huge), {**ds.columns, "m2": 1e200 * ds.column("m")},
                 ds.sample_count)
    with pytest.raises(InputError) as err:
        fci(ds)
    assert err.value.details == {"columns": ["m2"]}


@pytest.mark.parametrize("rows", [0, 1, 2, 3])
def test_three_rows_or_fewer_rejected(rows):
    """No Fisher-z test runs on three rows or fewer: the search names the
    count instead of returning a model that no test shaped. A table with no
    rows stays an empty dataset."""
    four = sample(generate_scm(2, 3, 1, 0.5, seed=0), 4)
    ds = Dataset(four.variables, {k: v[:rows] for k, v in four.columns.items()}, rows)
    if not rows:
        with pytest.raises(EmptyDataset):
            fci(ds)
        return
    with pytest.raises(InsufficientSamples) as err:
        fci(ds)
    assert isinstance(err.value, InputError)
    assert err.value.details == {"rows": rows} and f"{rows} rows" in str(err.value)
    assert fci(four).sepsets  # four rows test the empty set


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
        fci(ds)


def _set_based_constraints(roles):
    """The forbidden adjacencies and directions, enumerated pair by pair as
    ``build_constraints`` once stored them."""
    forb_adj, forb_dir = set(), set()
    for u, v in itertools.combinations(sorted(roles), 2):
        ru, rv = roles[u], roles[v]
        if ru == Role.OPTION and rv == Role.OPTION:
            forb_adj.add(frozenset((u, v)))
        for a, b, ra, rb in ((u, v, ru, rv), (v, u, rv, ru)):
            ok = ra in (Role.OPTION, Role.METRIC) and rb in (Role.METRIC, Role.OBJECTIVE)
            if not ok:
                forb_dir.add((a, b))
    return forb_adj, forb_dir


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(list(Role)), min_size=2, max_size=8))
def test_role_constraints_match_the_pair_sets(role_list):
    roles = {f"v{i}": role for i, role in enumerate(role_list)}
    sc = build_constraints([_meta(name, role) for name, role in roles.items()])
    forb_adj, forb_dir = _set_based_constraints(roles)
    for u, v in itertools.permutations(roles, 2):
        adjacency = frozenset((u, v)) not in forb_adj
        assert sc.allows_adjacency(u, v) == adjacency
        assert sc.allows_direction(u, v) == (adjacency and (u, v) not in forb_dir)
        assert sc.allows_bidirected(u, v) == (
            adjacency and Role.OPTION not in (roles[u], roles[v])
        )


@settings(max_examples=25, deadline=None)
@given(
    n_options=st.integers(1, 3),
    n_metrics=st.integers(1, 5),
    n_objectives=st.integers(1, 2),
    boolean_objectives=st.integers(0, 2),
    density=st.sampled_from([0.3, 0.5, 0.8]),
    n_latents=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_learned_models_keep_the_role_constraints_and_are_acyclic(
    n_options, n_metrics, n_objectives, boolean_objectives, density, n_latents, seed
):
    scm = generate_scm(n_options, n_metrics, n_objectives, density, seed=seed,
                       n_latents=n_latents, boolean_objectives=boolean_objectives)
    ds = sample(scm, 1500)
    pag, admg = learn_model(ds)
    roles = {v.name: v.role for v in ds.variables}
    sc = build_constraints(ds.variables)
    for e in pag.edges:
        assert {roles[e.u], roles[e.v]} != {Role.OPTION}
        for x, mark_x, mark_y in ((e.u, e.mark_u, e.mark_v), (e.v, e.mark_v, e.mark_u)):
            if roles[x] == Role.OPTION:
                assert (mark_x, mark_y) == (Mark.TAIL, Mark.ARROW)
            if roles[x] == Role.OBJECTIVE:
                assert mark_x == Mark.ARROW
            # without selection bias no rule sets a tail that does not face
            # an arrowhead, so no edge is tail-tail or tail-circle
            if mark_x == Mark.TAIL:
                assert mark_y == Mark.ARROW
    assert all(sc.allows_direction(u, v) for u, v in admg.directed)
    assert all(sc.allows_bidirected(*pair) for pair in admg.bidirected)
    assert sorted(admg.topological_order()) == sorted(roles)


@settings(max_examples=15, deadline=None)
@example(n_options=8, n_metrics=24, density=0.15, seed=0)
@given(
    n_options=st.integers(2, 8),
    n_metrics=st.integers(4, 24),
    density=st.sampled_from([0.15, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_refusals_are_distinct_and_name_edges_of_the_pag(n_options, n_metrics, density, seed):
    """Each refusal is reported once, and only from the final orientation:
    none names an edge that the possible-d-sep pass removed."""
    pag = fci(sample(generate_scm(n_options, n_metrics, 2, density, seed=seed), 2000))
    assert len(set(pag.conflicts)) == len(pag.conflicts)
    for refusal in pag.conflicts:
        pair = frozenset(refusal.rsplit(" on edge ", 1)[1].split("-"))
        assert pair in pag.adjacencies()


def test_decided_marks_are_never_overwritten():
    g = _Graph(["a", "b"])
    g.add_edge("a", "b", Mark.TAIL, Mark.ARROW)
    assert not g.set_mark("a", "b", Mark.TAIL, "R1")
    assert not g.set_mark("a", "b", Mark.ARROW, "R1")  # already that mark
    assert (g.mark_at("b", "a"), g.mark_at("a", "b")) == (Mark.TAIL, Mark.ARROW)
    assert g.conflicts == ["R1: refused arrow->tail at b on edge a-b"]


def _marked_graph(edges):
    """A search graph from (u, v, mark at u, mark at v) tuples."""
    g = _Graph(sorted({x for e in edges for x in e[:2]}))
    for u, v, mu, mv in edges:
        g.add_edge(u, v, mu, mv)
    return g


T, A, C = Mark.TAIL, Mark.ARROW, Mark.CIRCLE


@pytest.mark.parametrize("a_b", [(T, A), (T, C)], ids=["a-->b", "a--ob"])
def test_r8_puts_a_tail_at_a(a_b):
    # a --> b --> c (or a --o b --> c) with a o-> c
    g = _marked_graph([("a", "b", *a_b), ("b", "c", T, A), ("a", "c", C, A)])
    assert _RuleEngine(g, {})._r8()
    assert g.mark_at("c", "a") == Mark.TAIL


def test_r10_puts_a_tail_at_a():
    # a o-> c, b --> c <-- d, a o-o m --> b and a o-o w --> d
    g = _marked_graph([
        ("a", "c", C, A), ("b", "c", T, A), ("d", "c", T, A),
        ("a", "m", C, C), ("m", "b", T, A), ("a", "w", C, C), ("w", "d", T, A),
    ])
    assert _RuleEngine(g, {})._r10()
    assert g.mark_at("c", "a") == Mark.TAIL


def _diamonds(start, end, count):
    """Directed diamonds x --> p_i --> y and x --> q_i --> y, chained from
    ``start`` to ``end``: 2 ** count uncovered directed paths between them."""
    joints = [start, *(f"x{i}" for i in range(1, count)), end]
    return [
        edge for i, (x, y) in enumerate(zip(joints, joints[1:]))
        for mid in (f"p{i}", f"q{i}")
        for edge in ((x, mid, T, A), (mid, y, T, A))
    ]


def test_r10_sees_every_first_hop_past_many_paths():
    # a o-> c, b --> c <-- d, a o-o z o-o b and a o-o e o-o d; first hop e
    # also reaches b, through 512 uncovered paths that come before z's one
    g = _marked_graph([
        ("a", "c", C, A), ("b", "c", T, A), ("d", "c", T, A),
        ("a", "e", C, C), ("a", "z", C, C), ("e", "d", C, C), ("z", "b", C, C),
        *_diamonds("e", "b", 9),
    ])
    assert _RuleEngine(g, {})._r10()
    assert g.mark_at("c", "a") == Mark.TAIL


@pytest.mark.parametrize("b_c", [None, (T, A)], ids=["b,c apart", "b-->c"])
def test_r9_needs_a_first_hop_apart_from_c(b_c):
    # a o-> c with the uncovered potentially directed path a o-o b o-o d --> c:
    # a tail at a, unless the first hop b is adjacent to c
    edges = [("a", "c", C, A), ("a", "b", C, C), ("b", "d", C, C), ("d", "c", T, A)]
    g = _marked_graph(edges + ([("b", "c", *b_c)] if b_c else []))
    assert _RuleEngine(g, {})._r9() == (b_c is None)
    assert g.mark_at("c", "a") == (Mark.CIRCLE if b_c else Mark.TAIL)


def _copied_metric(ds, source, name):
    """The dataset with one more metric, an exact copy of ``source``."""
    return Dataset(
        (*ds.variables, _meta(name, Role.METRIC)),
        {**ds.columns, name: ds.column(source).copy()},
        ds.sample_count,
    )


def _tester(ds):
    """The CI tester on the covariance of ``ds``, in sorted-name order."""
    names = sorted(ds.names)
    return _FisherZTester(names, ds.sample_count, covariance(ds, names), 0.05)


def _first_separator(tester, x, y, subsets):
    """The engine's first separating set among same-size ``subsets``."""
    rows = np.array(
        [[tester.index[name] for name in (x, y, *s)] for s in subsets], dtype=np.intp
    )
    [hit], tallies = tester.first_separators(rows, [len(rows)])
    tester.counts += tallies[0]
    return hit


def test_queries_counted_once_per_reached_set():
    ds = _copied_metric(sample(chain_system(seed=3), 2000), "m", "m2")
    tester = _tester(ds)
    assert _first_separator(tester, "o", "y", [("m", "m2")]) is None
    assert _first_separator(tester, "o", "y", [("m",)]) == 0
    assert tester.counts[:2].tolist() == [1, 1]
    assert _first_separator(tester, "o", "y", [("m", "m2")]) is None  # tested again
    assert tester.counts[:2].tolist() == [1, 2]
    assert _first_separator(tester, "o", "y", [("m",), ("m2",)]) == 0  # m2 not reached
    assert tester.counts[:2].tolist() == [2, 2]

    flat = Dataset(
        (*ds.variables, _meta("k", Role.METRIC)),
        {**ds.columns, "k": np.full(ds.sample_count, 2.0)},
        ds.sample_count,
    )
    tester = _tester(flat)
    assert _first_separator(tester, "k", "y", [("m",)]) == 0  # constant, not untestable
    assert tester.counts[:2].tolist() == [0, 0]

    few = Dataset(ds.variables, {k: v[:5] for k, v in ds.columns.items()}, 5)
    tester = _tester(few)
    assert _first_separator(tester, "o", "y", [("m", "m2")]) is None
    assert any(_first_separator(tester, "o", "y", [s]) == 0 for s in [("m",), ()])
    assert tester.counts[1] == 1  # five rows cannot condition on two


def test_search_log_names_untestable_queries(caplog):
    caplog.set_level(logging.INFO, logger="confcause.discovery")
    ds = _copied_metric(sample(collider_system(seed=4), 3000), "m3", "m4")
    fci(ds)
    message = [m for m in caplog.messages if m.startswith("structure search")][-1]
    match = re.fullmatch(
        r"structure search: .* (\d+) untestable queries, (\d+) CI tests", message
    )
    assert match and int(match.group(1)) > 0 and int(match.group(2)) > 0


def _search_log(ds, caplog):
    """(sets inverted, untestable queries, CI tests) from the search log."""
    fci(ds)
    message = [m for m in caplog.messages if m.startswith("structure search")][-1]
    match = re.fullmatch(
        r"structure search: \d+ vertices, \d+ edges, (\d+) sets inverted, "
        r"(\d+) untestable queries, (\d+) CI tests", message
    )
    assert match, message
    return tuple(int(g) for g in match.groups())


def test_search_log_counts_inverted_sets(caplog, monkeypatch):
    """The conditioned sets the exact route decided: every one when the
    kernel takes no stack; when it takes every stack, the singular ones
    beside a copied column and none on a well-conditioned system. The
    decisions, and so the counts of tests, do not change."""
    caplog.set_level(logging.INFO, logger="confcause.discovery")
    copied = _copied_metric(sample(collider_system(seed=4), 3000), "m3", "m4")
    wide = sample(generate_scm(8, 24, 2, 0.15, seed=0), 2000)
    monkeypatch.setattr(discovery, "_SCHUR_MIN_STACK", 1 << 62)
    exact = [_search_log(ds, caplog) for ds in (copied, wide)]
    monkeypatch.setattr(discovery, "_SCHUR_MIN_STACK", 1)
    kernel = [_search_log(ds, caplog) for ds in (copied, wide)]
    assert [e[1:] for e in exact] == [k[1:] for k in kernel]
    assert exact[0][0] > kernel[0][0] > 0 and exact[0][1] > 0
    assert exact[1][0] > 0 and kernel[1][0] == 0


# --------------------------------------------------------------------------
# the search's one-thread BLAS cap


def test_blas_cap_resolves_whenever_numpy_ships_openblas():
    """A wrong symbol name would turn the cap into a silent no-op."""
    package = Path(np.__file__).parent
    shipped = [
        lib for root in (package, package.parent / "numpy.libs")
        for lib in root.rglob("*openblas*")
        if lib.suffix in (".so", ".dylib", ".dll") or ".so." in lib.name
    ]
    if not shipped:
        pytest.skip("numpy ships no OpenBLAS library file")
    assert discovery._blas_threads() is not None, shipped


@pytest.fixture
def blas_at_two_threads():
    """The library's (getter, setter), with the count set to two for the
    test and put back after it."""
    api = discovery._blas_threads()
    if api is None:
        pytest.skip("no OpenBLAS thread-count symbols to test against")
    get, put = api
    before = get()
    put(2)
    yield get, put
    put(before)


def test_search_runs_on_one_blas_thread(blas_at_two_threads, monkeypatch):
    get, _ = blas_at_two_threads
    seen = []
    stacked = discovery.partial_corrs_from_covs

    def spy(covs):
        seen.append(get())
        return stacked(covs)

    monkeypatch.setattr(discovery, "partial_corrs_from_covs", spy)
    with discovery._one_blas_thread():
        assert get() == 1
    assert get() == 2
    ds = sample(collider_system(seed=4), 2000)
    fci(ds)
    assert seen and set(seen) == {1}
    assert get() == 2


@pytest.mark.parametrize("kwargs", [{"alpha": 1.5}, {"max_cond_size": -1}])
def test_blas_thread_count_restored_when_the_search_raises(
    blas_at_two_threads, monkeypatch, kwargs
):
    get, put = blas_at_two_threads
    calls = []

    def recording_put(count):
        calls.append(count)
        put(count)

    monkeypatch.setattr(discovery, "_blas_threads", lambda: (get, recording_put))
    ds = sample(chain_system(), 100)
    with pytest.raises(InputError):
        fci(ds, **kwargs)
    assert calls == [1, 2]
    assert get() == 2


def test_overlapping_caps_restore_the_count_when_the_last_leaves(blas_at_two_threads):
    """Searches in two threads: the first to leave must not lift the cap
    from under the other, and the last restores the count from before."""
    get, _ = blas_at_two_threads
    entered, first_left = threading.Event(), threading.Event()
    inside = []

    def hold_until_the_first_leaves():
        with discovery._one_blas_thread():
            entered.set()
            assert first_left.wait(10)
            inside.append(get())

    second = threading.Thread(target=hold_until_the_first_leaves)
    with discovery._one_blas_thread():
        second.start()
        assert entered.wait(10)
    first_left.set()
    second.join(10)
    assert not second.is_alive()
    assert inside == [1]
    assert get() == 2


def test_search_without_the_blas_library_gives_the_same_bytes(caplog, monkeypatch):
    """On a sample shaped like the benchmark's wide workload: the same PAG
    and the same CI-test count with the cap and with the lookup finding no
    library, which leaves the threading as it is."""
    caplog.set_level(logging.INFO, logger="confcause.discovery")
    ds = sample(generate_scm(8, 24, 2, 0.15, seed=0), 5000)
    runs = []
    for api in (discovery._blas_threads, lambda: None):
        monkeypatch.setattr(discovery, "_blas_threads", api)
        caplog.clear()
        pag = fci(ds)
        [line] = [m for m in caplog.messages if m.startswith("structure search")]
        runs.append((json.dumps(pag.to_json_dict(), sort_keys=True), line))
    assert runs[0] == runs[1]
