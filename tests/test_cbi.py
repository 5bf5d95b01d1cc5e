"""Statistical-debugging baseline: predicate mining and importance scores."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import confcause
from confcause.cbi import (
    MIN_OBSERVED,
    Predicate,
    Relation,
    _numeric_thresholds,
    _two_sided_z,
    cbi_rank,
    cbi_root_causes,
    fault_labels_for,
    importance,
    mine_predicates,
)
from confcause.dataset import (
    Dataset,
    Kind,
    Role,
    VariableMeta,
    _equal_frequency_edges,
    discretize,
)
from confcause.errors import InputError


def pred(observed, observed_true, failing_observed, failing_true):
    return Predicate(
        "x", Relation.GREATER_THAN, 0.0,
        observed, observed_true, failing_observed, failing_true,
    )


class TestImportance:
    def test_harmonic_mean_of_increase_and_log_coverage(self):
        # failure 90/90 = 1.0, context 100/1000 = 0.1, increase 0.9
        p = pred(1000, 90, 100, 90)
        coverage = math.log(90) / math.log(100)
        expected = 2.0 / (1.0 / 0.9 + 1.0 / coverage)
        assert importance(p) == pytest.approx(expected, abs=1e-12)

    def test_sparse_predicate_scores_zero(self):
        assert importance(pred(MIN_OBSERVED - 1, 3, 2, 2)) == 0.0

    def test_never_true_scores_zero(self):
        assert importance(pred(100, 0, 10, 0)) == 0.0

    def test_nonpositive_increase_scores_zero(self):
        # failure 0.1 == context 0.1
        assert importance(pred(1000, 100, 100, 10)) == 0.0
        # failure below context
        assert importance(pred(1000, 100, 200, 10)) == 0.0

    def test_confidence_filter_prunes_weak_evidence(self):
        # increase = 0.1 but the lower normal bound dips below zero
        p = pred(100, 10, 10, 2)
        failure, context = 2 / 10, 10 / 100
        se = math.sqrt(failure * 0.8 / 10 + context * 0.9 / 100)
        assert failure - context - 1.96 * se < 0  # the arithmetic behind the zero
        assert importance(p) == 0.0

    def test_single_failing_hit_has_no_coverage(self):
        # passes the CI filter, but log(1) kills the coverage term
        assert importance(pred(1000, 1, 50, 1)) == 0.0

    def test_bad_ci_level(self):
        with pytest.raises(InputError):
            importance(pred(100, 10, 10, 5), ci_level=1.0)

    def test_unobserved_predicate_rejected(self):
        with pytest.raises(InputError):
            importance(pred(0, 0, 0, 0))

    def test_quantile_matches_scipy(self):
        # the filter's z comes from the standard library, not scipy
        for ci_level in np.linspace(0.5, 0.999, 500):
            want = scipy.stats.norm.ppf(0.5 + ci_level / 2.0)
            assert _two_sided_z(ci_level) == pytest.approx(want, rel=2e-15, abs=0.0)


def test_runtime_imports_no_scipy():
    code = (
        "import sys, confcause, confcause.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(confcause.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


# --------------------------------------------------------------------------
# mining


def _mining_dataset():
    variables = (
        VariableMeta("flag", Role.OPTION, Kind.BOOLEAN),
        VariableMeta("level", Role.OPTION, Kind.DISCRETE),
        VariableMeta("load", Role.METRIC, Kind.CONTINUOUS),
        VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
    )
    rng = np.random.default_rng(8)
    n = 200
    cols = {
        "flag": rng.integers(0, 2, n),
        "level": rng.integers(0, 3, n),
        "load": rng.normal(size=n),
        "y": rng.normal(size=n),
    }
    return Dataset(variables, cols, n)


class TestMining:
    def test_predicate_families_per_kind(self):
        ds = _mining_dataset()
        preds = mine_predicates(ds, np.zeros(ds.sample_count, dtype=bool))
        by_var = {}
        for p in preds:
            by_var.setdefault(p.variable, []).append(p)
        assert "y" not in by_var  # objectives are outcomes, not candidates
        assert {p.relation for p in by_var["flag"]} == {Relation.EQUALS}
        assert len(by_var["flag"]) == 2
        # discrete: one split between each pair of adjacent levels
        assert [p.threshold for p in by_var["level"]] == [0.0, 1.0]
        assert {p.relation for p in by_var["level"]} == {Relation.GREATER_THAN}
        assert "load" not in by_var  # a metric yields no predicate

    def test_counts_are_exact(self):
        variables = (
            VariableMeta("flag", Role.OPTION, Kind.BOOLEAN),
            VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
        )
        ds = Dataset(
            variables,
            {"flag": np.array([0, 1, 0, 1]), "y": np.zeros(4)},
            4,
        )
        failing = np.array([True, False, False, True])
        preds = mine_predicates(ds, failing)
        ones = next(p for p in preds if p.threshold == 1.0)
        assert (
            ones.observed_count,
            ones.observed_true_count,
            ones.failing_observed_count,
            ones.failing_true_count,
        ) == (4, 2, 2, 1)

    def test_label_rendering(self):
        assert pred(10, 5, 2, 2).label() == "x > 0"
        eq = Predicate("mode", Relation.EQUALS, 2.0, 10, 5, 2, 2)
        assert eq.label() == "mode == 2"

    def test_label_length_mismatch(self):
        ds = _mining_dataset()
        with pytest.raises(InputError):
            mine_predicates(ds, np.zeros(3, dtype=bool))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 300),
        levels=st.sampled_from([1, 2, 3, 7, 0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_thresholds_equal_the_discretized_edges(self, n, levels, seed):
        """The interior edges of a 5-bin equal-frequency ``discretize``,
        byte for byte, on continuous (levels 0), tied and constant columns:
        each bin code counts the thresholds its value exceeds."""
        rng = np.random.default_rng(seed)
        if levels:
            col = rng.integers(0, levels, n) * rng.normal() + rng.normal()
        else:
            col = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
        meta = VariableMeta("load", Role.METRIC, Kind.CONTINUOUS)
        ds = Dataset((meta,), {"load": col}, n)
        want = _equal_frequency_edges(col, 5)[1:-1]
        got = _numeric_thresholds(ds, "load")
        assert all(type(t) is float for t in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        codes = discretize(ds, 5).column("load")
        exceeded = sum((col > t).astype(np.int64) for t in got)
        np.testing.assert_array_equal(codes, exceeded)


# --------------------------------------------------------------------------
# ranking


def _rank_dataset():
    """Option a=1 coincides with 30% failures; b is constant background."""
    n = 200
    a = np.repeat([0, 1], 100)
    failing = np.zeros(n, dtype=bool)
    failing[100:130] = True
    variables = (
        VariableMeta("a", Role.OPTION, Kind.BOOLEAN),
        VariableMeta("b", Role.OPTION, Kind.BOOLEAN),
        VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
    )
    cols = {"a": a, "b": np.zeros(n, dtype=np.int64), "y": np.zeros(n)}
    return Dataset(variables, cols, n), failing


class TestRanking:
    def test_guilty_option_outranks_background(self):
        ds, failing = _rank_dataset()
        ranked = cbi_rank(ds, failing)
        assert [name for name, _ in ranked] == ["a", "b"]
        # failure .3, context .15, coverage log(30)/log(30) = 1
        expected = 2.0 / (1.0 / 0.15 + 1.0)
        assert ranked[0][1] == pytest.approx(expected, abs=1e-12)
        assert ranked[1][1] == 0.0

    def test_root_causes_drop_zero_scores(self):
        ds, failing = _rank_dataset()
        assert cbi_root_causes(cbi_rank(ds, failing), top_k=4) == ["a"]

    def test_no_failures_means_no_causes(self):
        ds, _ = _rank_dataset()
        none = np.zeros(ds.sample_count, dtype=bool)
        assert cbi_root_causes(cbi_rank(ds, none), top_k=4) == []
        # all-zero scores fall back to name order
        assert [name for name, _ in cbi_rank(ds, none)] == ["a", "b"]


class TestFaultLabels:
    def test_boolean_objective_fails_when_false(self):
        variables = (
            VariableMeta("ok", Role.OBJECTIVE, Kind.BOOLEAN),
        )
        ds = Dataset(variables, {"ok": np.array([1, 0, 1, 0, 0])}, 5)
        assert fault_labels_for(ds, "ok").tolist() == [False, True, False, True, True]

    def test_continuous_objective_uses_upper_tail(self):
        variables = (VariableMeta("lat", Role.OBJECTIVE, Kind.CONTINUOUS),)
        ds = Dataset(
            variables, {"lat": np.arange(1000, dtype=np.float64)}, 1000
        )
        labels = fault_labels_for(ds, "lat")
        assert labels.sum() == 10
        assert labels[990:].all()

    def test_non_objective_rejected(self):
        ds, _ = _rank_dataset()
        with pytest.raises(InputError):
            fault_labels_for(ds, "a")
