"""Search, diagnosis and table outputs pinned byte for byte, and the
batched CI-test engine checked against a plain one-test-at-a-time reference.

The digests are SHA-256 of the sorted-keys JSON of each model or diagnosis,
or of the table text; the counts are the CI tests the search logs. The
search digests were recorded before the engine evaluated conditioning sets
in stacks, and the diagnosis and table digests before entropy, ACE strata
and the CSV reader and writer worked a column at a time, so any change in
which subsets are tested, in which order, or with what result shows here,
and so does any change in the last bit of an effect or a written cell.
The latent and wide search digests were pinned again when ``conflicts``
came to hold each refusal of the final orientation once; without that key
those PAGs are unchanged.
"""

import hashlib
import io
import itertools
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcause import discovery
from confcause.dataset import Dataset, Kind, Role, VariableMeta, load_dataset
from confcause.discovery import _FisherZTester, fci
from confcause.effects import cpwe, learn_model, update_model
from confcause.stats import covariance
from confcause.synthbench import generate_scm, sample


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _rows(ds: Dataset, start: int, stop: int) -> Dataset:
    cols = {name: col[start:stop] for name, col in ds.columns.items()}
    return Dataset(ds.variables, cols, stop - start)


def _ci_tests(caplog) -> int:
    line = [r.getMessage() for r in caplog.records if "CI tests" in r.getMessage()][-1]
    return int(line.split()[-3])


@pytest.mark.parametrize(
    "args, kwargs, rows, digest, tests",
    [
        ((3, 6, 1, 0.3), {}, 400,
         "1ec9ca6c2f8bbacc078245701b568b07c768a1c26bd8df83bdb4b9c9dcaa32e6", 130),
        ((6, 12, 2, 0.3), {"n_latents": 1}, 3000,
         "c743d261570fad87ef6008b2c802a8b42ad094f45c1e59bc4f9364398df1d571", 17393),
        ((8, 24, 2, 0.15), {}, 2000,
         "a631455c203549b05e9cc6a2962bfb69dc21aa7a15d2e4de0d1d15d1d59b544a", 52874),
    ],
    ids=["small", "latent", "wide"],
)
def test_fci_output_and_test_count_pinned(caplog, args, kwargs, rows, digest, tests):
    caplog.set_level(logging.INFO, logger="confcause.discovery")
    ds = sample(generate_scm(*args, **kwargs), rows)
    pag = fci(ds)
    assert _digest(pag.to_json_dict()) == digest
    assert _ci_tests(caplog) == tests


def test_warm_start_updates_pinned(caplog):
    """One refresh with recorded separators, one without, so both branches
    of the separated-pair retest run."""
    caplog.set_level(logging.INFO, logger="confcause.discovery")
    ds = sample(generate_scm(6, 12, 2, 0.3, seed=3), 3000)
    old, new = _rows(ds, 0, 2000), _rows(ds, 2000, 3000)
    pag, admg = learn_model(old)
    admg = update_model(admg, old, new, prev_sepsets=pag.sepsets)
    assert _digest(admg.to_json_dict()) == (
        "11bd23ca59e27962ed273b14c396f99642c11b04b7038002e1725e2fe77c0730"
    )
    assert _ci_tests(caplog) == 6174
    batch = _rows(sample(generate_scm(6, 12, 2, 0.3, seed=3), 4000), 3000, 4000)
    admg = update_model(admg, ds, batch)
    assert _digest(admg.to_json_dict()) == (
        "5aaf7b542b7f7e56f27f6f8d569164a5dd804dc54d9c76dbfea13f7e9fd52ed7"
    )
    assert _ci_tests(caplog) == 9791


def test_diagnoses_pinned():
    """Backdoor ACE over adjustment strata, down to the last bit of every
    path score."""
    ds = sample(generate_scm(6, 12, 2, 0.3, n_latents=1), 3000)
    _, admg = learn_model(ds)
    diags = cpwe(ds, admg)
    assert _digest({k: d.to_json_dict() for k, d in diags.items()}) == (
        "9a3622f195288565ebb4646aae797844fbadd3757a3f0527ce352089b3df8094"
    )


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_dump_and_reload_pinned():
    """A categorical option, a discrete option with negative levels, a
    boolean objective and continuous columns: the written table, the model
    learned from reading it back, and the table written again, which is the
    same text: the categories are recoded in first-appearance order but
    keep their labels, and the boolean is written as 0/1 both times."""
    base = sample(generate_scm(3, 6, 2, 0.4, seed=5, boolean_objectives=1), 1200)
    cols = dict(base.columns)
    cols["o02"] = cols["o02"] - 1
    metas = tuple(
        replace(v, kind=Kind.CATEGORICAL, domain=("high", "low", "mid"))
        if v.name == "o01" else v
        for v in base.variables
    )
    mixed = Dataset(metas, cols, base.sample_count)
    table, roles = io.StringIO(), io.StringIO()
    mixed.dump_table(table)
    mixed.dump_roles(roles)
    assert _text_digest(table.getvalue()) == (
        "0445969a5639f1631d63f393dee5417f9ce44c63d5475457a916e346cc368be4"
    )
    loaded = load_dataset(table.getvalue(), roles.getvalue())
    _, admg = learn_model(loaded)
    assert _digest(admg.to_json_dict()) == (
        "da9387f749a3e1b0e217eefff7a953b4989ffb60617c43d46371f6ce339b39a1"
    )
    again = io.StringIO()
    loaded.dump_table(again)
    assert again.getvalue() == table.getvalue()


# --------------------------------------------------------------------------
# the stacked engine against one test at a time


def _reference_rho(cov: np.ndarray) -> float | None:
    """Partial correlation of one covariance matrix as a lone factorization
    computes it; None when singular."""
    if cov.shape[0] == 2:
        if not np.all(np.isfinite(cov)):
            return None
        denom = math.sqrt(cov[0, 0] * cov[1, 1])
        if denom == 0.0:
            return 0.0
        r = cov[0, 1] / denom
    else:
        if not np.all(np.isfinite(cov)) or np.linalg.cond(cov) > 1e12:
            return None
        prec = np.linalg.inv(cov)
        denom = math.sqrt(prec[0, 0] * prec[1, 1])
        if denom == 0.0:
            return 0.0
        r = -prec[0, 1] / denom
    return float(min(1.0, max(-1.0, r)))


class _SequentialTester:
    """The reference engine: one Fisher-z test at a time on submatrices of
    ``np.cov`` in the dataset's own column order, each set tested and
    counted every time a query reaches it."""

    def __init__(self, ds: Dataset, alpha: float) -> None:
        self.alpha = float(alpha)
        self.n = ds.sample_count
        self.names = tuple(sorted(ds.names))
        self.index = {name: i for i, name in enumerate(self.names)}
        self._position = {name: i for i, name in enumerate(ds.names)}
        table = np.column_stack([ds.column(name) for name in ds.names])
        self._cov = np.atleast_2d(np.cov(table, rowvar=False))
        self.counts = np.zeros(3, dtype=np.int64)  # tests, untestable, inverted

    def _test(self, x, y, cond):
        """(result, counted) of one test, evaluated on its own."""
        if self.n <= len(cond) + 3:
            return None, False
        idx = [self._position[v] for v in (x, y, *cond)]
        sub = self._cov[np.ix_(idx, idx)]
        if sub[0, 0] == 0.0 or sub[1, 1] == 0.0:
            return True, False
        self.counts[2] += bool(cond)
        rho = _reference_rho(sub)
        if rho is None:
            return None, False
        if abs(rho) >= 1.0 - 1e-15:
            return False, True
        z = 0.5 * math.log((1.0 + rho) / (1.0 - rho))
        statistic = math.sqrt(self.n - len(cond) - 3) * z
        return math.erfc(abs(statistic) / math.sqrt(2.0)) > self.alpha, True

    def first_independent(self, x, y, subsets):
        """Index of the first set in ``subsets`` that separates x and y."""
        if y < x:
            x, y = y, x
        for i, cond in enumerate(subsets):
            result, counted = self._test(x, y, cond)
            self.counts[:2] += counted, result is None
            if result is True:
                return i
        return None


def _engine(ds: Dataset, alpha: float = 0.05) -> _FisherZTester:
    """The tester ``fci`` builds on ``ds``: the covariance in the table's
    column order, permuted into sorted-name order."""
    names = sorted(ds.names)
    order = sorted(range(len(names)), key=ds.names.__getitem__)
    cov = covariance(ds, ds.names)[np.ix_(order, order)]
    return _FisherZTester(names, ds.sample_count, cov, alpha)


def _counts(tester) -> tuple[int, int, int]:
    return tuple(tester.counts.tolist())


def _engine_first_independent(engine, x, y, subsets):
    """The engine's answer to a name-based query: each run of one set size
    is one call, in order, until a set separates."""
    if y < x:
        x, y = y, x
    at = 0
    for k, run in itertools.groupby(subsets, key=len):
        run = list(run)
        rows = np.array(
            [[engine.index[v] for v in (x, y, *cond)] for cond in run], dtype=np.intp
        ).reshape(len(run), k + 2)
        [hit], tallies = engine.first_separators(rows, [len(run)])
        engine.counts += tallies[0]
        if hit is not None:
            return at + hit
        at += len(run)
    return None


def _check_against_reference(ds, queries):
    """Run the same queries through the engine and through the sequential
    reference; indices and counts must agree after each query."""
    engine = _engine(ds)
    ref = _SequentialTester(ds, 0.05)
    hits = []
    for x, y, subsets in queries:
        got = _engine_first_independent(engine, x, y, subsets)
        assert got == ref.first_independent(x, y, subsets), (x, y, subsets)
        assert _counts(engine) == _counts(ref)
        hits.append(got)
    return engine, hits


def _engine_dataset(n: int, seed: int = 0) -> Dataset:
    """a -> c -> b, with noise columns e, f, g, an exact copy d of c, and a
    constant column k; the columns are not in name order."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    c = a + 0.5 * rng.normal(size=n)
    b = c + 0.5 * rng.normal(size=n)
    cols = {
        "g": rng.normal(size=n), "a": a, "c": c, "b": b, "d": c.copy(),
        "k": np.full(n, 2.0), "e": rng.normal(size=n), "f": rng.normal(size=n),
    }
    metas = tuple(VariableMeta(name, Role.METRIC, Kind.CONTINUOUS) for name in cols)
    return Dataset(metas, cols, n)


def test_engine_hit_positions_and_untestable_sets():
    ds = _engine_dataset(500)
    singular = ("c", "d")  # d duplicates c
    queries = [
        ("a", "b", [("c",), ("e",), ("f",)]),                      # hit at 0
        ("b", "a", [("e",), ("f",), ("e", "f"), singular, ("g",), ("c",)]),  # hit last
        ("a", "b", [("e", "g"), ("f", "g"), singular, ("c", "e")]),
        ("a", "e", [()]),                                          # a and e are independent
        ("a", "b", [("g",), ("e", "f"), ("f",), ("e",)]),          # all tested before, no hit
        ("b", "a", [("e",), ("g",), ("e", "f", "g"), ("c", "e", "f")]),  # prefix tested before
        ("a", "k", [("c",), ("e",)]),                              # constant column
        ("a", "b", [()]),
    ]
    engine, hits = _check_against_reference(ds, queries)
    assert hits == [0, 5, 3, 0, None, 3, 0, None]
    assert engine.counts[1] == 2  # the singular set, reached twice


def test_engine_too_few_rows_for_the_conditioning_size():
    ds = _engine_dataset(6)
    engine, hits = _check_against_reference(
        ds, [("a", "b", [("c", "e", "f"), ("c", "e"), ("c",)])]
    )
    assert engine.counts[1] == 1  # six rows cannot condition on three


def test_engine_matches_reference_on_random_queries():
    ds = _engine_dataset(300, seed=1)
    names = ["a", "b", "c", "d", "e", "f", "g", "k"]
    rng = np.random.default_rng(7)
    queries = []
    for _ in range(40):
        x, y = rng.choice(names, size=2, replace=False)
        pool = [n for n in names if n not in (x, y)]
        subsets = []
        for _ in range(int(rng.integers(1, 40))):
            size = int(rng.integers(0, 4))
            subsets.append(tuple(sorted(map(str, rng.choice(pool, size, replace=False)))))
        queries.append((str(x), str(y), subsets))
    _check_against_reference(ds, queries)


def test_engine_batches_and_repeats_within_a_call(monkeypatch):
    """Several queries in one call, a set repeated within a query, and
    stacks smaller than a query: the hits still match one test at a time,
    and a repeated set is counted each time it is reached."""
    monkeypatch.setattr(discovery, "_STACK_CAP", 3)
    ds = _engine_dataset(400, seed=2)
    engine, ref = _engine(ds), _SequentialTester(ds, 0.05)
    queries = [
        ("a", "b", [("e",), ("g",), ("e",), ("f",), ("c",), ("d",)]),
        ("a", "e", [("b",), ("c",), ("f",)]),
        ("b", "g", [("a",), ("c",), ("d",), ("e",), ("f",), ("a",)]),
        ("c", "d", [("a",), ("b",), ("e",), ("f",), ("g",)]),
    ]
    rows, stops = [], []
    for x, y, subsets in queries:
        rows += [[engine.index[v] for v in (x, y, *cond)] for cond in subsets]
        stops.append(len(rows))
    hits, tallies = engine.first_separators(np.array(rows, dtype=np.intp), stops)
    engine.counts += tallies.sum(axis=0)
    starts = [0, *stops[:-1]]
    want = [ref.first_independent(x, y, subsets) for x, y, subsets in queries]
    assert [None if h is None else h - s for h, s in zip(hits, starts)] == want
    assert want[0] == 4 and want[1] == 0
    assert _counts(engine) == _counts(ref)


def test_engine_hits_and_counts_do_not_depend_on_the_call(monkeypatch):
    """Every query alone, four to a stack too small for the Schur kernel,
    and all in one batch that the kernel takes: each query has the same
    first separator, and the counts of tests add up the same. So the engine
    may evaluate every set it is offered, in any company, and still count
    like one test at a time."""
    ds = _engine_dataset(500, seed=4)
    names = sorted(ds.names)
    kernel, schur_stacks = discovery._schur_partial_corrs, []

    def schur(cov, rows):
        schur_stacks.append(rows.shape[0])
        return kernel(cov, rows)

    monkeypatch.setattr(discovery, "_schur_partial_corrs", schur)
    index = _engine(ds).index
    queries = [
        np.array([[index[v] for v in (x, y, *cond)]
                  for cond in itertools.combinations(sorted(set(names) - {x, y}), 2)])
        for x, y in itertools.combinations(names, 2)
    ]

    def run(group):
        """Hits relative to each query's start, and the counts, of one call."""
        engine = _engine(ds)
        stops = np.cumsum([len(q) for q in group]).tolist()
        hits, tallies = engine.first_separators(np.concatenate(group), stops)
        engine.counts += tallies.sum(axis=0)
        starts = [0, *stops[:-1]]
        return [None if h is None else h - s for h, s in zip(hits, starts)], _counts(engine)

    alone = [run([q]) for q in queries]
    hits = [h for [h], _ in alone]
    total = np.sum([c for _, c in alone], axis=0).tolist()
    assert None in hits and any(h for h in hits) and total[1] > 0
    assert 4 * len(queries[0]) < discovery._SCHUR_MIN_STACK and not schur_stacks
    fours = [run(queries[at:at + 4]) for at in range(0, len(queries), 4)]
    assert sum((h for h, _ in fours), []) == hits
    assert np.sum([c for _, c in fours], axis=0).tolist() == total
    assert not schur_stacks
    batch_hits, counts = run(queries)
    assert schur_stacks == [315]  # of 420 rows; the 105 with the constant k are not live
    assert batch_hits == hits
    assert counts[:2] == tuple(total[:2]) and counts[2] < total[2]


def test_engine_keys_past_int64():
    """Twenty columns and conditioning sets of 13, between sets of 2: rows
    that no 64-bit integer in base 21 could encode, tested like the rest."""
    n, rng = 400, np.random.default_rng(3)
    shared = rng.normal(size=n)  # a common cause of every third column
    cols = {f"v{i:02d}": shared * (i % 3 == 0) + rng.normal(size=n) for i in range(20)}
    metas = tuple(VariableMeta(name, Role.METRIC, Kind.CONTINUOUS) for name in cols)
    ds = Dataset(metas, cols, n)
    names = sorted(cols)
    queries = []
    for x, y in [("v00", "v03"), ("v01", "v02"), ("v03", "v09"), ("v04", "v05")] * 2:
        pool = [v for v in names if v not in (x, y)]
        subsets = [tuple(sorted(map(str, rng.choice(pool, size, replace=False))))
                   for size in (13, 13, 13, 2, 2, 13)]
        queries.append((x, y, subsets))
    engine, hits = _check_against_reference(ds, queries)
    assert None in hits and any(hit is not None for hit in hits)


# --------------------------------------------------------------------------
# the search against a one-test-at-a-time sequential search


def _named_adjacency(tester, adj):
    return {
        u: {tester.names[j] for j in np.flatnonzero(adj[i])}
        for i, u in enumerate(tester.names)
    }


def _store_adjacency(tester, adj, nbrs):
    adj[:] = False
    for u, vs in nbrs.items():
        for v in vs:
            adj[tester.index[u], tester.index[v]] = True


def _sequential_prune_by_neighbors(tester, adj, sepsets, max_cond_size):
    """PC-stable rounds, pair by pair: for each adjacent pair in name order,
    the sorted union of the size-``level`` subsets of either endpoint's
    other neighbours at the start of the round, tested in order."""
    nbrs = _named_adjacency(tester, adj)
    for level in range(max_cond_size + 1):
        snapshot = {u: tuple(sorted(nbrs[u])) for u in nbrs}
        testable = False
        removals = []
        for u in sorted(nbrs):
            for v in sorted(nbrs[u]):
                if v < u:
                    continue
                cand_u = [w for w in snapshot[u] if w != v]
                cand_v = [w for w in snapshot[v] if w != u]
                if len(cand_u) < level and len(cand_v) < level:
                    continue
                testable = True
                subsets = sorted(
                    set(itertools.combinations(cand_u, level))
                    | set(itertools.combinations(cand_v, level))
                )
                hit = tester.first_independent(u, v, subsets)
                if hit is not None:
                    removals.append((u, v, subsets[hit]))
        for u, v, subset in removals:
            nbrs[u].discard(v)
            nbrs[v].discard(u)
            sepsets[frozenset((u, v))] = frozenset(subset)
        if not testable:
            break
    _store_adjacency(tester, adj, nbrs)


def _sequential_pdsep_prune(tester, g, sepsets, max_cond_size):
    """Each surviving edge against the subsets of u's possible-d-sep set,
    then v's, by growing size, first occurrences only."""
    removed_any = False
    for u, v in g.sorted_edges():
        if not g.has_edge(u, v):
            continue
        subsets = {}
        for root in (u, v):
            pool = sorted(discovery._possible_d_sep(g, root) - {u, v})
            for size in range(1, max_cond_size + 1):
                subsets.update(dict.fromkeys(itertools.combinations(pool, size)))
        order = list(subsets)
        hit = tester.first_independent(u, v, order)
        if hit is not None:
            g.remove_edge(u, v)
            sepsets[frozenset((u, v))] = frozenset(order[hit])
            removed_any = True
    return removed_any


def _sequential_retest(tester, adj, sepsets, sc, max_cond_size, warm_sepsets):
    """Previously separated pairs in name order: the recorded separator,
    then every set of its size; or, without one, every size up to the
    limit."""
    nbrs = _named_adjacency(tester, adj)
    for u, v in itertools.combinations(tester.names, 2):
        if v in nbrs[u] or not sc.allows_adjacency(u, v):
            continue
        recorded = warm_sepsets.get(frozenset((u, v)))
        pool = sorted((nbrs[u] | nbrs[v]) - {u, v})
        if recorded is not None:
            first_try = tuple(sorted(recorded))
            lists = [[first_try, *itertools.combinations(pool, len(first_try))]]
        else:
            lists = [
                list(itertools.combinations(pool, size))
                for size in range(max_cond_size + 1)
            ]
        found = None
        for subsets in lists:
            hit = tester.first_independent(u, v, subsets)
            if hit is not None:
                found = subsets[hit]
                break
        if found is not None:
            sepsets[frozenset((u, v))] = frozenset(found)
        else:
            nbrs[u].add(v)
            nbrs[v].add(u)
    _store_adjacency(tester, adj, nbrs)


def _search(ds, max_cond_size, sequential, warm=None, warm_sepsets=None):
    """``fci``'s search with the batched engine, or with the sequential
    tester and search phases; returns the PAG and the tester it used. The
    engine's stacks, on the exact route and the Schur kernel, must stay
    within the cap."""
    tester = _SequentialTester(ds, 0.05) if sequential else _engine(ds)

    def capped(route):
        def call(*args):  # the stack is the last argument of either route
            assert 0 < args[-1].shape[0] <= discovery._STACK_CAP
            return route(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for route in ("partial_corrs_from_covs", "_schur_partial_corrs"):
            mp.setattr(discovery, route, capped(getattr(discovery, route)))
        if sequential:
            mp.setattr(discovery, "_prune_by_neighbors", _sequential_prune_by_neighbors)
            mp.setattr(discovery, "_pdsep_prune", _sequential_pdsep_prune)
            mp.setattr(discovery, "_retest_separated_pairs", _sequential_retest)
        pag = discovery._search(tester, ds.variables, max_cond_size, warm, warm_sepsets)
    return pag, tester


def _assert_same_search(ds, max_cond_size, warm=None, warm_sepsets=None):
    """The engine's search with the Schur kernel, then on the exact route
    alone, against the sequential search: the same PAG, sepsets and counts
    of tests; on the exact route, which inverts every conditioned set as the
    reference does, the same count of sets inverted too."""
    want, ref = _search(ds, max_cond_size, True, warm, warm_sepsets)
    for min_stack in (discovery._SCHUR_MIN_STACK, 1 << 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(discovery, "_SCHUR_MIN_STACK", min_stack)
            got, engine = _search(ds, max_cond_size, False, warm, warm_sepsets)
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        assert got.sepsets == want.sepsets
        assert _counts(engine)[:2] == _counts(ref)[:2]
    assert _counts(engine) == _counts(ref)
    return got


def _with_copy(ds: Dataset) -> Dataset:
    """The dataset plus an exact copy of its first metric, so that sets
    holding both are singular."""
    source = next(v for v in ds.variables if v.role == Role.METRIC)
    copy = replace(source, name="m99")
    return Dataset(
        (*ds.variables, copy), {**ds.columns, "m99": ds.column(source.name).copy()},
        ds.sample_count,
    )


@settings(max_examples=30, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(2, 7), st.integers(1, 2)),
    density=st.sampled_from([0.2, 0.35, 0.5]),
    latents=st.integers(0, 1),
    seed=st.integers(0, 2**16),
    rows=st.sampled_from([6, 12, 40, 150, 600]),
    copy=st.booleans(),
    max_cond_size=st.integers(0, 4),
    warm=st.sampled_from(["cold", "with sepsets", "without sepsets"]),
    cap=st.sampled_from([2, 5, discovery._STACK_CAP]),
)
def test_search_matches_sequential_search(
    shape, density, latents, seed, rows, copy, max_cond_size, warm, cap
):
    """Random systems, with untestable sets from too few rows or a copied
    column, cold and warm, with stacks smaller than most queries."""
    ds = sample(generate_scm(*shape, density, seed=seed, n_latents=latents), 2 * rows)
    if copy:
        ds = _with_copy(ds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discovery, "_STACK_CAP", cap)
        first = _assert_same_search(_rows(ds, 0, rows), max_cond_size)
        if warm != "cold":
            sepsets = first.sepsets if warm == "with sepsets" else None
            _assert_same_search(ds, max_cond_size, first.adjacencies(), sepsets)


def test_search_matches_sequential_search_on_a_wide_system():
    """68 variables: more than any 64-bit set encoding could hold."""
    ds = sample(generate_scm(4, 62, 2, 0.04, seed=11), 300)
    assert len(ds.names) > 64
    first = _assert_same_search(_rows(ds, 0, 200), 2)
    _assert_same_search(ds, 2, first.adjacencies(), first.sepsets)


# --------------------------------------------------------------------------
# speculation: an answer found on a pool that has since changed is not kept


def _respeculation_spy(calls):
    """A stand-in for ``_in_search_order`` that appends, per call, the set
    of pairs whose blocks were built more than once: speculated again."""
    driver = discovery._in_search_order

    def spy(tester, pairs, pool_of, blocks_of):
        seen, again = set(), set()
        calls.append(again)

        def recording(x, y, pool):
            (again if (x, y) in seen else seen).add((x, y))
            return blocks_of(x, y, pool)

        return driver(tester, pairs, pool_of, recording)

    return spy


def _retested(engine, retest, ds, previous, max_cond_size):
    """The skeleton, separators and tester after ``retest`` re-examines the
    pairs that ``previous`` separated, as ``fci`` starts a warm search."""
    tester = engine(ds, 0.05)
    adj = np.zeros((len(tester.names),) * 2, dtype=bool)
    for u, v in map(sorted, previous.adjacencies()):
        adj[tester.index[u], tester.index[v]] = adj[tester.index[v], tester.index[u]] = True
    sepsets = {}
    sc = discovery.build_constraints(ds.variables)
    retest(tester, adj, sepsets, sc, max_cond_size, previous.sepsets)
    return adj, sepsets, tester


def _assert_same_retest(ds, previous, max_cond_size):
    want = _retested(_SequentialTester, _sequential_retest, ds, previous, max_cond_size)
    got = _retested(_engine, discovery._retest_separated_pairs, ds, previous, max_cond_size)
    assert (got[0] == want[0]).all() and got[1] == want[1]
    assert _counts(got[2])[:2] == _counts(want[2])[:2]
    return got


def test_possible_d_sep_removal_respeculates_later_edges(monkeypatch):
    """Removing an edge changes possible-d-sep sets, and so the pools of
    later edges whose answers were speculated on the old ones: those edges
    are searched again, and the search matches the sequential one."""
    ds = sample(generate_scm(2, 5, 1, 0.35, seed=10, n_latents=1), 150)
    calls, prune = [], discovery._pdsep_prune

    def spied(*args):  # only this pass's driver calls are recorded
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(discovery, "_in_search_order", _respeculation_spy(calls))
            return prune(*args)

    monkeypatch.setattr(discovery, "_pdsep_prune", spied)
    _assert_same_search(ds, 2)
    assert len(calls) == 2 and all(calls)  # the pass, with and without the Schur kernel


def test_retest_readd_respeculates_later_pairs(monkeypatch):
    """A re-added edge widens the pools of the later pairs that touch it:
    their speculated answers are found again, and the retest matches the
    sequential one in skeleton, separators and counts."""
    ds = sample(generate_scm(2, 5, 1, 0.35, seed=3, n_latents=1), 300)
    previous = fci(_rows(ds, 0, 150), max_cond_size=2)
    calls = []
    monkeypatch.setattr(discovery, "_in_search_order", _respeculation_spy(calls))
    adj, _, _ = _assert_same_retest(ds, previous, 2)
    assert np.triu(adj).sum() > len(previous.adjacencies())  # an edge came back
    assert len(calls) == 1 and calls[0]


def test_update_retest_calls_the_tester_per_round_not_per_pair(monkeypatch):
    """The first refresh of the ``update`` benchmark workload's system, with
    recorded separators. One call per separator size, 0 to 3, tries every
    pair's recorded separator, and only the pairs it leaves unseparated
    reach the driver. Those fit one speculation window, and a round ends
    only at a pair whose pool a re-added edge changed: at most re-adds + 1
    rounds, each with at most one tester call per separator size. That is
    far fewer calls than pairs examined, and the answers match the
    sequential retest."""
    ds = sample(generate_scm(8, 20, 2, 0.15, seed=0), 12500)
    previous, _ = learn_model(_rows(ds, 0, 10000))
    seen = {"driven": 0, "calls": 0}
    driver, separators = discovery._in_search_order, _FisherZTester.first_separators

    def driving(tester, pairs, *args):
        seen["driven"] += len(pairs)
        return driver(tester, pairs, *args)

    def separating(tester, *args):
        seen["calls"] += 1
        return separators(tester, *args)

    monkeypatch.setattr(discovery, "_in_search_order", driving)
    monkeypatch.setattr(_FisherZTester, "first_separators", separating)
    adj, _, _ = _assert_same_retest(ds, previous, 3)
    sc = discovery.build_constraints(ds.variables)
    examined = sum(
        frozenset(pair) not in previous.adjacencies() and sc.allows_adjacency(*pair)
        for pair in itertools.combinations(ds.names, 2)
    )
    rounds = int(np.triu(adj).sum()) - len(previous.adjacencies()) + 1
    assert seen["driven"] < examined
    assert seen["calls"] <= 4 * (rounds + 1) and 16 * rounds < examined


def test_speculation_windows_stay_within_the_stack_cap(monkeypatch):
    """A window closes before a pair whose rows would overflow the cap, so
    each tester call holds at most ``_STACK_CAP`` rows, or one pair's."""
    ds = sample(generate_scm(4, 10, 2, 0.3, seed=2, n_latents=1), 1500)
    calls, separators = [], _FisherZTester.first_separators

    def recording(tester, rows, stops):
        calls.append((rows.shape[0], len(stops)))
        return separators(tester, rows, stops)

    monkeypatch.setattr(discovery, "_STACK_CAP", 10)
    monkeypatch.setattr(_FisherZTester, "first_separators", recording)
    fci(ds)
    assert any(queries > 1 for _, queries in calls)
    assert all(rows <= 10 or queries == 1 for rows, queries in calls)


def test_stacked_partial_correlation_is_bit_identical():
    from confcause.stats import partial_corrs_from_covs

    rng = np.random.default_rng(3)
    for m in (2, 3, 5):
        data = rng.normal(size=(200, m + 1))
        data[:, 1] += data[:, 0]
        data[:, -1] = data[:, 0]  # the last variable makes wider stacks singular
        cov = np.cov(data, rowvar=False)
        stack = []
        for _ in range(25):
            idx = [0, 1, *rng.choice(np.arange(2, m + 1), size=m - 2, replace=False)]
            stack.append(cov[np.ix_(idx, idx)])
        got = partial_corrs_from_covs(np.stack(stack))
        for sub, rho in zip(stack, got.tolist()):
            want = _reference_rho(sub)
            if want is None:
                assert math.isnan(rho)
            else:
                assert rho == want
