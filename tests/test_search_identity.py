"""Search, diagnosis and table outputs pinned byte for byte, and the
batched CI-test engine checked against a plain one-test-at-a-time reference.

The digests are SHA-256 of the sorted-keys JSON of each model or diagnosis,
or of the table text; the counts are the CI tests the search logs. The
search digests were recorded before the engine evaluated conditioning sets
in stacks, and the diagnosis and table digests before entropy, ACE strata
and the CSV reader and writer worked a column at a time, so any change in
which subsets are tested, in which order, or with what result shows here,
and so does any change in the last bit of an effect or a written cell.
"""

import hashlib
import io
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from confcause.dataset import Dataset, Kind, Role, VariableMeta, load_dataset
from confcause.discovery import _FisherZTester, build_constraints, fci
from confcause.effects import cpwe, learn_model, update_model
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
         "1ec9ca6c2f8bbacc078245701b568b07c768a1c26bd8df83bdb4b9c9dcaa32e6", 112),
        ((6, 12, 2, 0.3), {"n_latents": 1}, 3000,
         "b397c6dbde36d20d151567c499a29d119c803119cddc7d4e8ccb29b2c8c844a7", 15902),
        ((8, 24, 2, 0.15), {}, 2000,
         "ee1b314dc858c1b023f92e255ae239dc2f2de202f10a6d169ce66205dac97da5", 51010),
    ],
    ids=["small", "latent", "wide"],
)
def test_fci_output_and_test_count_pinned(caplog, args, kwargs, rows, digest, tests):
    caplog.set_level(logging.INFO, logger="confcause.discovery")
    ds = sample(generate_scm(*args, **kwargs), rows)
    pag = fci(ds, build_constraints(ds.variables))
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
    assert _ci_tests(caplog) == 5694
    batch = _rows(sample(generate_scm(6, 12, 2, 0.3, seed=3), 4000), 3000, 4000)
    admg = update_model(admg, ds, batch)
    assert _digest(admg.to_json_dict()) == (
        "5aaf7b542b7f7e56f27f6f8d569164a5dd804dc54d9c76dbfea13f7e9fd52ed7"
    )
    assert _ci_tests(caplog) == 9003


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
    learned from reading it back, and the table written again, which now
    labels booleans and recodes the categories in first-appearance order."""
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
    assert _text_digest(again.getvalue()) == (
        "c37ece80d49b4f806f8b5697920a2c6e63a84c180cfb43fcacc2d540e2cd0e39"
    )


# --------------------------------------------------------------------------
# the stacked engine against one test at a time


def _reference_rho(cov: np.ndarray) -> float | None:
    """Partial correlation of one covariance matrix as a lone factorization
    computes it; None when singular."""
    if cov.shape[0] == 2:
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


def _reference_test(tester, x, y, cond):
    """(result, counted) of one Fisher-z test, evaluated on its own."""
    if tester.n <= len(cond) + 3:
        return None, False
    idx = [tester._index[v] for v in (x, y, *cond)]
    sub = tester._cov[np.ix_(idx, idx)]
    if sub[0, 0] == 0.0 or sub[1, 1] == 0.0:
        return True, False
    rho = _reference_rho(sub)
    if rho is None:
        return None, False
    if abs(rho) >= 1.0 - 1e-15:
        return False, True
    z = 0.5 * math.log((1.0 + rho) / (1.0 - rho))
    statistic = math.sqrt(tester.n - len(cond) - 3) * z
    return math.erfc(abs(statistic) / math.sqrt(2.0)) > tester.alpha, True


def _reference_first_independent(tester, cache, x, y, subsets):
    """Sequential loop: returns (index or None, tests counted)."""
    counted = 0
    for i, cond in enumerate(subsets):
        key = (x, y, cond) if x < y else (y, x, cond)
        if key not in cache:
            cache[key], used = _reference_test(tester, x, y, cond)
            counted += used
        if cache[key] is True:
            return i, counted
    return None, counted


def _engine_dataset(n: int, seed: int = 0) -> Dataset:
    """a -> c -> b, with noise columns e, f, g, an exact copy d of c, and a
    constant column k."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    c = a + 0.5 * rng.normal(size=n)
    b = c + 0.5 * rng.normal(size=n)
    cols = {
        "a": a, "b": b, "c": c, "d": c.copy(), "k": np.full(n, 2.0),
        "e": rng.normal(size=n), "f": rng.normal(size=n), "g": rng.normal(size=n),
    }
    metas = tuple(VariableMeta(name, Role.METRIC, Kind.CONTINUOUS) for name in cols)
    return Dataset(metas, cols, n)


def _check_against_reference(ds, queries):
    """Run the same queries through the engine and through the sequential
    reference; indices, cache and count must agree after each query."""
    engine = _FisherZTester(ds, 0.05)
    ref_cache: dict = {}
    ref_count = 0
    hits = []
    for x, y, subsets in queries:
        got = engine.first_independent(x, y, subsets)
        want, counted = _reference_first_independent(engine, ref_cache, x, y, subsets)
        ref_count += counted
        assert got == want, (x, y, subsets)
        assert engine._cache == ref_cache
        assert engine.test_count == ref_count
        hits.append(got)
    return engine, hits


def test_engine_hit_positions_and_untestable_sets():
    ds = _engine_dataset(500)
    singular = ("c", "d")  # d duplicates c
    queries = [
        ("a", "b", [("c",), ("e",), ("f",)]),                      # hit at 0
        ("b", "a", [("e",), ("f",), ("e", "f"), singular, ("g",), ("c",)]),  # hit last
        ("a", "b", [("e", "g"), ("f", "g"), singular, ("c", "e")]),
        ("a", "e", [()]),                                          # a and e are independent
        ("a", "b", [("g",), ("e", "f"), ("f",), ("e",)]),          # all cached, no hit
        ("b", "a", [("e",), ("g",), ("e", "f", "g"), ("c", "e", "f")]),  # cached prefix
        ("a", "k", [("c",), ("e",)]),                              # constant column
        ("a", "b", [()]),
    ]
    engine, hits = _check_against_reference(ds, queries)
    assert hits == [0, 5, 3, 0, None, 3, 0, None]
    assert engine._cache[("a", "b", singular)] is None
    assert engine._cache[("a", "k", ("c",))] is True


def test_engine_too_few_rows_for_the_conditioning_size():
    ds = _engine_dataset(6)
    engine, hits = _check_against_reference(
        ds, [("a", "b", [("c", "e", "f"), ("c", "e"), ("c",)])]
    )
    assert engine._cache[("a", "b", ("c", "e", "f"))] is None


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
