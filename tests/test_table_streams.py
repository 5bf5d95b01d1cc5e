"""The streamed table paths checked against the whole-table code they replaced.

``load_dataset`` reads the rows of an all-numeric table with ``np.loadtxt``
from the open source and falls back to the CSV reader on the same stream for
anything else; ``Dataset.dump_table`` writes a block of rows at a time. The
loader is compared with its own CSV path, the writer with the whole-column
writer it replaced, and both are held to memory bounds.
"""

import csv
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcause import dataset
from confcause.dataset import Dataset, Kind, Role, VariableMeta, load_dataset
from confcause.errors import InputError

_CELLS = {
    Kind.CONTINUOUS: ["1.5", " -2 ", "1e-7", "+3", "0", "-0.0", ".5", "1e400", "nan", "x"],
    Kind.DISCRETE: ["1", "-2", " 3 ", "1e3", "3.0", "007", "2.5", "9007199254740993"],
    Kind.BOOLEAN: ["0", "1", "true"],
}
# what a line may end with; a lone carriage return sits inside a line
_ENDS = ["\n", "\n", "\n", "\r\n", "\r\n", "\r\n\n", "\n\r\n", "\n\r\r\n", "\r5\n"]


@st.composite
def raw_tables(draw):
    """The bytes of a table and its roles text. Most are plain numeric
    tables; the rest have line-end, blank-line, encoding, quote or role
    faults."""
    kinds = draw(st.lists(
        st.sampled_from([Kind.CONTINUOUS] * 3 + [Kind.DISCRETE] * 2 + [Kind.BOOLEAN]),
        min_size=1, max_size=4,
    ))
    names = [f"c{j}" for j in range(len(kinds))]
    plain = draw(st.integers(0, 2)) > 0
    fault = None if plain else draw(st.sampled_from(
        ["ends", "bom", "utf8", "quote", "roles", "width"]
    ))
    header = list(names)
    if fault == "quote":
        header[0] = draw(st.sampled_from(['"c0"', "c0"]))
    text = ("\ufeff" if fault == "bom" else "") + ",".join(header) + "\n"
    for _ in range(draw(st.integers(1 if plain else 0, 8))):
        row = [draw(st.sampled_from(_CELLS[k][:5] if plain else _CELLS[k])) for k in kinds]
        if fault == "quote" and draw(st.booleans()):
            row[0] = f'"{row[0].strip()}"'
        if fault == "width" and draw(st.booleans()):
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        text += ",".join(row) + (draw(st.sampled_from(_ENDS)) if fault == "ends" else "\n")
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    raw = text.encode()
    if fault == "utf8" and b"\n" in raw:
        at = draw(st.integers(raw.index(b"\n") + 1, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    roles = {n: {"role": "metric", "kind": k.value} for n, k in zip(names, kinds)}
    if fault == "roles" and draw(st.booleans()):
        del roles[names[-1]]
    elif fault == "roles":
        roles["extra"] = roles[names[0]]
    return raw, json.dumps(roles), plain and Kind.BOOLEAN not in kinds


def _csv_path_load(table, roles):
    """``load_dataset`` with the ``np.loadtxt`` rows off: the CSV reader
    reads the rows of every table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_numeric_rows", lambda *args: None)
        return load_dataset(table, roles)


def _refuse(*args):
    raise AssertionError("per-column parser reached")


def _outcome(load, table, roles):
    try:
        return "loaded", load(table, roles)
    except Exception as exc:  # the error itself is what is compared
        return "raised", (type(exc), str(exc), getattr(exc, "details", None))


def _assert_same_outcome(table, roles):
    status, got = _outcome(load_dataset, table, roles)
    want_status, want = _outcome(_csv_path_load, table, roles)
    assert status == want_status, (got, want)
    if status == "raised":
        assert got == want
        return
    assert got.variables == want.variables and got.sample_count == want.sample_count
    for name in want.names:
        # bytes, so that -0.0 and 0.0 differ
        assert got.column(name).dtype == want.column(name).dtype
        assert got.column(name).tobytes() == want.column(name).tobytes()


@given(raw_tables())
@settings(max_examples=200, deadline=None)
def test_streamed_load_matches_the_csv_path(table):
    """A file named by ``Path`` and by ``str``, and the same text as a
    ``str`` (invalid UTF-8 as lone surrogates), load to the CSV path's
    dataset or raise its error; a plain numeric table takes the streamed
    path."""
    raw, roles, plain = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(raw)
        for source in (path, str(path)):
            _assert_same_outcome(source, roles)
        if plain:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset, "_whole_column", _refuse)
                load_dataset(path, roles)
    text = raw.decode("utf-8", "surrogateescape")
    if "\n" in text:
        _assert_same_outcome(text, roles)


@pytest.mark.parametrize("as_source", [str, Path])
def test_missing_table_file_raises_the_csv_path_error(tmp_path, as_source):
    roles = json.dumps({"a": {"role": "metric", "kind": "continuous"}})
    missing = as_source(tmp_path / "missing.csv")
    _assert_same_outcome(missing, roles)
    with pytest.raises(InputError):
        load_dataset(missing, roles)


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b"a,b\n1.5,2\n\xff,3\n", id="invalid-utf8-in-a-row"),
        pytest.param(b"\xef\xbb\xbfa,b\n1.5,2\n", id="bom"),
        pytest.param(b"a,b\r\n1.5,2\r\n\r\n\r\n3.5,4", id="crlf-blank-no-final-newline"),
        pytest.param(b"a,b\n1.5,2\r3.5,4\n", id="lone-cr"),
        pytest.param(b"a,b\n\r\n\r\r\n", id="only-blank-lines"),
    ],
)
@pytest.mark.parametrize("roles_ok", [True, False])
def test_edge_files_match_the_csv_path(tmp_path, raw, roles_ok):
    """Also when the roles are wrong, which are checked before any row is
    read."""
    roles = {n: {"role": "metric", "kind": "continuous"} for n in ("a", "b")}
    if not roles_ok:
        roles.pop("b")
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    _assert_same_outcome(path, json.dumps(roles))


# --------------------------------------------------------------------------
# the table writer


def _whole_column_dump(ds: Dataset, stream) -> None:
    """The writer before it worked in blocks of rows: every column turned
    into Python values at once."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ds.names)
    cells = []
    for v in ds.variables:
        values = ds.columns[v.name].tolist()
        if v.domain is not None:
            cells.append(map(v.domain.__getitem__, map(int, values)))
        elif v.kind == Kind.CONTINUOUS:
            cells.append(map(repr, map(float, values)))
        else:
            cells.append(map(str, map(int, values)))
    writer.writerows(zip(*cells))


def _every_kind(rows: int, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    continuous = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    continuous[:3] = (-0.0, 0.1 + 0.2, 2.0**-1074)[:rows]
    variables = (
        VariableMeta("o_cat", Role.OPTION, Kind.CATEGORICAL, ("a b", "x,y", 'say "hi"')),
        VariableMeta("o_disc", Role.OPTION, Kind.DISCRETE),
        VariableMeta("m_cont", Role.METRIC, Kind.CONTINUOUS),
        VariableMeta("y_bool", Role.OBJECTIVE, Kind.BOOLEAN, ("false", "true")),
    )
    columns = {
        "o_cat": rng.integers(0, 3, rows),
        "o_disc": rng.integers(-(2**62), 2**62, rows),
        "m_cont": continuous,
        "y_bool": rng.integers(0, 2, rows),
    }
    return Dataset(variables, columns, rows)


@pytest.mark.parametrize(
    "rows",
    [0, 1, dataset._DUMP_ROWS - 1, dataset._DUMP_ROWS, 2 * dataset._DUMP_ROWS + 17],
)
def test_block_dump_is_byte_identical_to_the_whole_column_writer(rows):
    ds = _every_kind(rows)
    got, want = io.StringIO(), io.StringIO()
    ds.dump_table(got)
    _whole_column_dump(ds, want)
    assert got.getvalue() == want.getvalue()


# --------------------------------------------------------------------------
# memory


def _traced_peak(call):
    """What ``call`` returns, and the peak in bytes of what it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _numeric(rows: int) -> Dataset:
    """16 columns, one in four discrete."""
    rng = np.random.default_rng(1)
    variables = tuple(
        VariableMeta(f"v{j:02d}", Role.METRIC, Kind.DISCRETE if j % 4 == 0 else Kind.CONTINUOUS)
        for j in range(16)
    )
    data = {
        v.name: rng.integers(0, 50, rows) if v.kind == Kind.DISCRETE else rng.standard_normal(rows)
        for v in variables
    }
    return Dataset(variables, data, rows)


def test_streamed_load_peak_is_about_two_copies_of_the_table(tmp_path):
    """The parsed block and its columns, with no copy of the text or list
    of its lines: at most 2.2 times the table as float64."""
    table, roles = tmp_path / "t.csv", tmp_path / "r.json"
    _numeric(60_000).save(table, roles)
    loaded, peak = _traced_peak(lambda: load_dataset(table, roles))
    assert loaded.sample_count == 60_000
    assert peak <= 2.2 * 60_000 * 16 * 8


def test_dump_peak_does_not_grow_with_the_rows():
    """One block of rows is held as Python values at a time."""
    small, large = _numeric(3 * dataset._DUMP_ROWS), _numeric(12 * dataset._DUMP_ROWS)
    with open(os.devnull, "w", encoding="utf-8", newline="") as sink:
        peaks = [_traced_peak(lambda ds=ds: ds.dump_table(sink))[1] for ds in (small, large)]
    assert peaks[1] <= 1.1 * peaks[0]
