import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from confcause.dataset import (
    Dataset,
    Kind,
    Role,
    VariableMeta,
    discretize,
    load_dataset,
)
from confcause.errors import (
    BadBinCount,
    DuplicateName,
    EmptyDataset,
    InputError,
    MissingRole,
    NonNumericCell,
    SchemaMismatch,
    UnknownVariable,
)
from confcause.synthbench import generate_scm, sample

from transforms import reloaded

ROLES = {
    "cache_mb": {"role": "option", "kind": "discrete"},
    "retries": {"role": "option", "kind": "boolean"},
    "latency": {"role": "metric", "kind": "continuous"},
    "mode": {"role": "metric", "kind": "categorical"},
    "throughput": {"role": "objective", "kind": "continuous"},
}

CSV = """cache_mb,retries,latency,mode,throughput
64,true,12.5,fast,101.0
128,false,13.25,slow,99.5
64,false,11.0,fast,103.75
256,true,19.5,degraded,80.0
"""


@pytest.fixture
def loaded(tmp_path):
    data = tmp_path / "t.csv"
    roles = tmp_path / "r.json"
    data.write_text(CSV)
    roles.write_text(json.dumps(ROLES))
    return load_dataset(data, roles)


def test_load_roundtrip_columns(loaded):
    assert loaded.sample_count == 4
    assert loaded.options == ("cache_mb", "retries")
    assert loaded.by_role(Role.METRIC) == ("latency", "mode")
    assert loaded.objectives == ("throughput",)
    np.testing.assert_array_equal(loaded.column("cache_mb"), [64, 128, 64, 256])
    np.testing.assert_array_equal(loaded.column("retries"), [1, 0, 0, 1])
    # categorical codes assigned in first-appearance order
    np.testing.assert_array_equal(loaded.column("mode"), [0, 1, 0, 2])
    assert loaded.meta("mode").domain == ("fast", "slow", "degraded")


def test_save_then_reload_identical(tmp_path, loaded):
    loaded.save(tmp_path / "out.csv", tmp_path / "out_roles.json")
    again = load_dataset(tmp_path / "out.csv", tmp_path / "out_roles.json")
    assert again.schema() == loaded.schema()
    for name in loaded.names:
        np.testing.assert_array_equal(again.column(name), loaded.column(name))


def test_load_accepts_text_buffers():
    ds = load_dataset(CSV, json.dumps(ROLES))
    assert ds.sample_count == 4


def test_incomplete_rows_dropped(tmp_path):
    data = tmp_path / "t.csv"
    data.write_text(CSV + "64,true,1.0,fast\n")  # short row
    roles = tmp_path / "r.json"
    roles.write_text(json.dumps(ROLES))
    assert load_dataset(data, roles).sample_count == 4


@pytest.mark.parametrize(
    "mangle, err",
    [
        (lambda r: {k: v for k, v in r.items() if k != "latency"}, MissingRole),
        (lambda r: {**r, "extra": {"role": "metric", "kind": "continuous"}}, UnknownVariable),
        (
            lambda r: {k: v for k, v in r.items() if v["role"] != "objective"},
            MissingRole,
        ),
    ],
)
def test_role_table_mismatches(tmp_path, mangle, err):
    data = tmp_path / "t.csv"
    data.write_text(CSV)
    roles = tmp_path / "r.json"
    roles.write_text(json.dumps(mangle(ROLES)))
    with pytest.raises(err):
        load_dataset(data, roles)


def test_missing_role_coverage(tmp_path):
    # a table whose roles never mention any objective
    roles = {
        "cache_mb": {"role": "option", "kind": "discrete"},
        "latency": {"role": "metric", "kind": "continuous"},
    }
    csv = "cache_mb,latency\n1,2.0\n2,3.0\n"
    ds = load_dataset(csv, json.dumps(roles))
    with pytest.raises(MissingRole):
        ds.require_role_coverage()


def test_duplicate_header_rejected():
    csv = "a,a\n1,2\n"
    roles = {"a": {"role": "option", "kind": "discrete"}}
    with pytest.raises(DuplicateName):
        load_dataset(csv, json.dumps(roles))


def test_empty_table_rejected():
    roles = {"a": {"role": "option", "kind": "discrete"}}
    with pytest.raises(EmptyDataset):
        load_dataset("a\n", json.dumps(roles))


@pytest.mark.parametrize(
    "kind, token, message",
    [
        ("continuous", "banana", "cell 'banana' in column 'a' (row 1) is not numeric"),
        ("discrete", "banana", "cell 'banana' in column 'a' (row 1) is not numeric"),
        ("discrete", "1.5", "cell '1.5' in column 'a' (row 1) is not an integer"),
        ("boolean", "maybe", "cell 'maybe' in column 'a' (row 1) is not boolean"),
    ],
)
def test_non_numeric_cell(kind, token, message):
    roles = {"a": {"role": "metric", "kind": kind}}
    with pytest.raises(NonNumericCell) as info:
        load_dataset(f"a\n1\n{token}\n", json.dumps(roles))
    assert str(info.value) == message
    assert info.value.details == {"variable": "a", "row": 1, "value": token}


@pytest.mark.parametrize("kind", ["continuous", "discrete"])
@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_non_finite_cell_rejected(kind, token):
    roles = {"a": {"role": "metric", "kind": kind}}
    with pytest.raises(NonNumericCell) as info:
        load_dataset(f"a\n1\n{token}\n", json.dumps(roles))
    assert info.value.details == {"variable": "a", "row": 1, "value": token}
    assert str(info.value) == f"cell {token!r} in column 'a' (row 1) is not finite"


@pytest.mark.parametrize(
    "token", ["1e20", "9223372036854775808", "-9223372036854775809", "1e19"]
)
def test_discrete_cell_outside_int64_rejected(token):
    roles = {"a": {"role": "option", "kind": "discrete"}}
    with pytest.raises(NonNumericCell) as info:
        load_dataset(f"a\n1\n2\n{token}\n", json.dumps(roles))
    assert info.value.details == {"variable": "a", "row": 2, "value": token}
    assert str(info.value) == (
        f"cell {token!r} in column 'a' (row 2) is outside the int64 range"
    )


def test_discrete_integers_parsed_exactly():
    roles = {"a": {"role": "option", "kind": "discrete"}}
    tokens = ["9007199254740993", "-9223372036854775808", "9223372036854775807", "3"]
    ds = load_dataset("a\n" + "\n".join(tokens) + "\n", json.dumps(roles))
    assert ds.column("a").tolist() == [int(t) for t in tokens]


def test_concat_requires_matching_schema(loaded):
    other = Dataset(
        loaded.variables,
        {name: loaded.column(name) for name in loaded.names},
        loaded.sample_count,
    )
    merged = loaded.concat(other)
    assert merged.sample_count == 8

    trimmed = Dataset(
        loaded.variables[:-1],
        {v.name: loaded.column(v.name) for v in loaded.variables[:-1]},
        loaded.sample_count,
    )
    with pytest.raises(SchemaMismatch):
        loaded.concat(trimmed)


def test_concat_appends_the_labels_one_side_lacks():
    roles = json.dumps({"mode": {"role": "metric", "kind": "categorical"}})
    left = load_dataset("mode\nfast\nslow\n", roles)
    right = load_dataset("mode\nslow\nturbo\n", roles)
    merged = left.concat(right)
    assert merged.meta("mode").domain == ("fast", "slow", "turbo")
    np.testing.assert_array_equal(merged.column("mode"), [0, 1, 1, 2])
    stream = io.StringIO()
    merged.dump_table(stream)
    assert stream.getvalue().split() == ["mode", "fast", "slow", "slow", "turbo"]
    assert left.meta("mode").domain == ("fast", "slow")


def test_concat_rejects_labels_on_one_side_only(loaded):
    bare = Dataset(
        tuple(replace(v, domain=None) for v in loaded.variables),
        loaded.columns,
        loaded.sample_count,
    )
    for left, right in ((loaded, bare), (bare, loaded)):
        with pytest.raises(SchemaMismatch) as err:
            left.concat(right)
        assert err.value.details == {"variable": "mode"}


def test_a_reloaded_boolean_concatenates_with_a_sampled_one():
    """Only categorical columns carry labels: a boolean is written and read
    back as 0/1 with no domain, so a loaded table of a system concatenates
    with a batch sampled from it."""
    batch = sample(generate_scm(2, 3, 2, 0.5, seed=1, boolean_objectives=1), 300)
    merged = reloaded(batch).concat(batch)
    assert merged.variables == batch.variables
    for name in batch.names:
        np.testing.assert_array_equal(merged.column(name), np.tile(batch.column(name), 2))


def test_variable_without_a_column_is_named():
    metas = (VariableMeta("x", Role.METRIC, Kind.CONTINUOUS),
             VariableMeta("m", Role.METRIC, Kind.CONTINUOUS))
    with pytest.raises(InputError) as err:
        Dataset(metas, {"x": np.zeros(2)}, 2)
    assert err.value.details == {"variable": "m"}
    assert "'m'" in str(err.value)


class TestDiscretize:
    def _continuous(self, values):
        meta = (VariableMeta("x", Role.METRIC, Kind.CONTINUOUS),)
        return Dataset(meta, {"x": np.asarray(values, dtype=float)}, len(values))

    def test_bins_right_closed(self):
        ds = self._continuous([0.0, 0.5, 0.25, 1.0, 0.75])
        out = discretize(ds, 2)
        # interior edge at 0.5; values equal to the edge land in the lower bin
        np.testing.assert_array_equal(out.column("x"), [0, 0, 0, 1, 1])
        assert out.meta("x").kind == Kind.DISCRETE

    def test_equal_frequency_balances_counts(self):
        rng = np.random.default_rng(2)
        ds = self._continuous(rng.exponential(size=1000))
        out = discretize(ds, 5)
        counts = np.bincount(out.column("x"), minlength=5)
        assert counts.min() >= 150  # heavily skewed input still splits evenly

    def test_constant_column_single_bin(self):
        ds = self._continuous([3.5] * 9)
        out = discretize(ds, 4)
        assert set(out.column("x").tolist()) == {0}

    def test_bad_bin_count(self):
        ds = self._continuous([1.0, 2.0])
        with pytest.raises(BadBinCount):
            discretize(ds, 1)

    @pytest.mark.parametrize("bins", [1, 0, -3])
    def test_bin_count_checked_without_a_continuous_column(self, bins):
        meta = (VariableMeta("k", Role.METRIC, Kind.DISCRETE),)
        ds = Dataset(meta, {"k": np.array([0, 1, 1])}, 3)
        with pytest.raises(BadBinCount):
            discretize(ds, bins)

    def test_bins_continuous_columns_only(self, loaded):
        out = discretize(loaded, 5)
        # discrete-coded inputs keep their levels; only continuous ones bin
        for v in loaded.variables:
            if v.name in ("latency", "throughput"):
                assert out.meta(v.name).kind == Kind.DISCRETE
            else:
                assert out.meta(v.name) == v
                assert out.column(v.name) is loaded.column(v.name)
        assert loaded.meta("latency").kind == Kind.CONTINUOUS


class TestSources:
    """A ``str`` with a newline, or whose first non-blank character is
    ``{``, is text; any other ``str``, like a ``Path``, is a path that must
    exist."""

    def test_str_path_is_read(self, tmp_path):
        data, roles = tmp_path / "t.csv", tmp_path / "r.json"
        data.write_text(CSV)
        roles.write_text(json.dumps(ROLES))
        assert load_dataset(str(data), str(roles)).sample_count == 4

    @pytest.mark.parametrize("as_source", [str, Path])
    def test_missing_table_path_is_named(self, tmp_path, as_source):
        missing = tmp_path / "missing" / "data.csv"
        with pytest.raises(InputError) as err:
            load_dataset(as_source(missing), json.dumps(ROLES))
        assert type(err.value) is InputError
        assert err.value.details == {"path": str(missing)}
        assert err.value.exit_code == 2

    def test_missing_roles_path_is_named(self, tmp_path):
        missing = str(tmp_path / "roles.json")
        with pytest.raises(InputError) as err:
            load_dataset(CSV, missing)
        assert type(err.value) is InputError
        assert err.value.details == {"path": missing}

    def test_directory_path_is_named(self, tmp_path):
        with pytest.raises(InputError) as err:
            load_dataset(str(tmp_path), json.dumps(ROLES))
        assert err.value.details == {"path": str(tmp_path)}

    def test_str_with_newline_is_text(self):
        assert load_dataset(CSV, json.dumps(ROLES)).sample_count == 4

    def test_str_opening_with_a_brace_is_text(self):
        roles = '  {"a": {"role": "metric", "kind": "continuous"}}'
        assert "\n" not in roles
        assert load_dataset("a\n1.5\n", roles).column("a").tolist() == [1.5]

    def test_one_line_str_is_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        roles = json.dumps({"a": {"role": "metric", "kind": "continuous"}})
        with pytest.raises(InputError, match="No such file"):
            load_dataset("a", roles)


class TestErrorOrder:
    """The table is opened, the roles are parsed, the header is read and
    checked against them, and only then are the rows read."""

    @pytest.mark.parametrize(
        "roles, message",
        [("{not json", "not valid JSON"), ('{"a": {"role": "metric"}}', "must supply")],
        ids=["not-json", "no-kind"],
    )
    def test_roles_error_comes_before_an_empty_table(self, tmp_path, roles, message):
        empty = tmp_path / "t.csv"
        empty.write_bytes(b"")
        with pytest.raises(InputError, match=message):
            load_dataset(empty, roles)

    def test_missing_table_comes_before_the_roles(self, tmp_path):
        missing = tmp_path / "t.csv"
        with pytest.raises(InputError) as err:
            load_dataset(missing, "{not json")
        assert err.value.details == {"path": str(missing)}

    @pytest.mark.parametrize("roles_ok", [True, False])
    def test_bytes_that_are_not_utf8_in_a_row_come_after_the_header(
        self, tmp_path, roles_ok
    ):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1.5,2\n\xff,3\n")
        names = ("a", "b") if roles_ok else ("a",)
        roles = json.dumps({n: {"role": "metric", "kind": "continuous"} for n in names})
        with pytest.raises(InputError) as err:
            load_dataset(path, roles)
        if roles_ok:
            assert type(err.value) is InputError and "not UTF-8" in str(err.value)
            assert err.value.details == {"path": str(path)}
        else:
            assert type(err.value) is MissingRole

    @pytest.mark.parametrize("as_text", [False, True], ids=["file", "str"])
    def test_carriage_return_inside_an_unquoted_cell_is_an_input_error(
        self, tmp_path, as_text
    ):
        """Lines end only at ``\\n``, in a file as in a ``str``."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"a\n1.5\r2\n")
        roles = json.dumps({"a": {"role": "metric", "kind": "continuous"}})
        with pytest.raises(InputError, match="not valid CSV"):
            load_dataset("a\n1.5\r2\n" if as_text else path, roles)
