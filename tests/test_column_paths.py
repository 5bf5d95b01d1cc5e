"""Whole-column paths checked against the row-at-a-time code they replaced.

Level coding by counting, equal-frequency bin codes, joint coding of integer
rows, the CSV reader, the contingency table of the minimum-entropy coupling
and the backdoor strata of ACE all work a column at a time. Each is compared
here with the sorting call or the row or cell loop it replaced.
(``test_invariance.py`` checks that the statistics, the learned model and
the diagnoses do not depend on the order of rows or columns.)
"""

import csv
import io
import itertools
import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from confcause import dataset
from confcause.dataset import (
    Dataset,
    Kind,
    Role,
    VariableMeta,
    _parse_cell,
    discretize,
    load_dataset,
)
from confcause.cbi import cbi_rank
from confcause.discovery import fci
from confcause.effects import _coded_column, ace_edge
from confcause.errors import EmptyDataset
from confcause.resolve import Admg
from confcause.stats import (
    _COUNTING_SPAN,
    _joint_codes,
    _levels,
    contingency_table,
    count_bits,
    coupling_bits,
    entropy,
    greedy_coupling,
    min_entropy_latent,
)

from test_stats import _discrete_dataset

# --------------------------------------------------------------------------
# level coding by counting


def _assert_unique_inverse(values):
    want_levels, want_inverse = np.unique(values, return_inverse=True)
    levels, inverse = _levels(values)
    for got, want in ((levels, want_levels), (inverse, want_inverse)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@given(
    arrays(
        np.int64,
        st.integers(0, 60),
        elements=st.one_of(
            st.integers(-3, 3),
            st.integers(-300, 300),
            st.integers(-(2**63), 2**63 - 1),
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_levels_are_the_unique_inverse(values):
    _assert_unique_inverse(values)


def _span_array(n: int, span: int, low: int = -7) -> np.ndarray:
    """``n`` values from ``low`` whose max - min + 1 is ``span``, with gaps."""
    return np.array([low, low + span - 1, *[low + span // 2] * (n - 2)], dtype=np.int64)


@pytest.mark.parametrize(
    "values, counted",
    [
        (np.array([], dtype=np.int64), False),
        (np.array([5], dtype=np.int64), True),
        (np.array([-(2**63)], dtype=np.int64), True),
        (np.full(9, 4, dtype=np.int64), True),
        (np.array([-5, -1, -5, -3, -1], dtype=np.int64), True),
        (_span_array(6, _COUNTING_SPAN * 6), True),
        (_span_array(6, _COUNTING_SPAN * 6 + 1), False),
        (_span_array(6, _COUNTING_SPAN * 6, low=-(2**63)), True),
        (_span_array(6, _COUNTING_SPAN * 6, low=2**63 - _COUNTING_SPAN * 6), True),
        (np.array([2**63 - 1, -(2**63), 0, 2**63 - 1], dtype=np.int64), False),
        (np.array([-(2**63), -(2**63) + 1, -(2**63)], dtype=np.int64), True),
        (np.array([2**63 - 1, 2**63 - 2], dtype=np.int64), True),
    ],
)
def test_levels_count_up_to_the_span_switch(values, counted, monkeypatch):
    """Equal to ``np.unique`` on both sides of the switch, which counts while
    max - min + 1 is at most ``_COUNTING_SPAN`` times the length."""
    _assert_unique_inverse(values)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    _levels(values)
    assert not sorts if counted else sorts


# --------------------------------------------------------------------------
# equal-frequency bin codes against a binary search over the edges


def _reference_bin_codes(col, bins):
    interior = np.asarray(dataset._equal_frequency_edges(col, bins)[1:-1], dtype=np.float64)
    return np.searchsorted(interior, col, side="left").astype(np.int64)


@given(
    st.lists(
        st.one_of(
            st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    ),
    st.integers(2, 7),
)
@settings(max_examples=300, deadline=None)
def test_equal_frequency_codes_match_binary_search(values, bins):
    col = np.asarray(values, dtype=np.float64)
    got = dataset._equal_frequency_codes(col, bins)
    want = _reference_bin_codes(col, bins)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "values, bins",
    [
        # values that sit exactly on the interior edges 1, 2 and 3
        ([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0], 4),
        # repeated quantiles collapse edges: only one interior edge survives
        ([0.0] * 7 + [1.0, 2.0, 3.0], 5),
        ([5.0] * 6, 3),
        ([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.0, -0.0], 4),
        ([0.0, -0.0, 0.0, 2.0], 2),
    ],
)
def test_equal_frequency_codes_edge_cases(values, bins):
    col = np.asarray(values, dtype=np.float64)
    np.testing.assert_array_equal(
        dataset._equal_frequency_codes(col, bins), _reference_bin_codes(col, bins)
    )


# --------------------------------------------------------------------------
# joint coding


@given(
    arrays(
        np.int64,
        st.tuples(st.integers(1, 40), st.integers(1, 4)),
        elements=st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
    )
)
@settings(max_examples=200, deadline=None)
def test_joint_codes_are_the_unique_rows_inverse(mat):
    _, inverse, counts = np.unique(mat, axis=0, return_inverse=True, return_counts=True)
    codes = _joint_codes(mat)
    np.testing.assert_array_equal(codes, inverse.reshape(-1))
    np.testing.assert_array_equal(np.bincount(codes), counts)


# --------------------------------------------------------------------------
# minimum-entropy coupling against the row loop


def _reference_min_entropy_latent(ds, x, y):
    """The coupling's bits with its table counted one row at a time."""
    mat = np.column_stack([ds.column(x), ds.column(y)]).astype(np.int64)
    xs = np.unique(mat[:, 0])
    ys = np.unique(mat[:, 1])
    if xs.shape[0] < 2 or ys.shape[0] < 2:
        return 0.0
    x_index = {int(v): i for i, v in enumerate(xs)}
    y_index = {int(v): i for i, v in enumerate(ys)}
    table = np.zeros((xs.shape[0], ys.shape[0]))
    for xv, yv in mat:
        table[x_index[int(xv)], y_index[int(yv)]] += 1.0
    table /= table.sum()
    px = table.sum(axis=1)
    bits = 0.0
    for _, mass in greedy_coupling([table[i] / px[i] for i in range(xs.shape[0])]):
        bits -= mass * math.log2(mass)
    return max(bits, 0.0)


@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.sampled_from([-7, 0, 3, 10**12])),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_min_entropy_latent_matches_row_loop(pairs):
    a, b = zip(*pairs)
    ds = _discrete_dataset(a=a, b=b)
    assert min_entropy_latent(ds, "a", "b") == _reference_min_entropy_latent(ds, "a", "b")


# eight or more levels on each side, so that row sums of the table and of its
# transpose take numpy's unrolled pairwise summation
_WIDE_LEVELS = [-7, 0, 1, 2, 3, 4, 5, 6, 8, 10**12]


@given(
    st.lists(
        st.tuples(st.sampled_from(_WIDE_LEVELS), st.sampled_from(_WIDE_LEVELS)),
        max_size=80,
    )
)
@settings(max_examples=200, deadline=None)
def test_count_table_gives_the_entropies_and_latents_bit_for_bit(pairs):
    # edge resolution reads every quantity of a pair from its one table
    a, b = zip(*pairs) if pairs else ((), ())
    ds = _discrete_dataset(a=a, b=b)
    table = contingency_table(ds, "a", "b")
    assert count_bits(table.sum(axis=1)) == entropy(ds, ["a"])
    assert count_bits(table.sum(axis=0)) == entropy(ds, ["b"])
    assert count_bits(table[table > 0]) == entropy(ds, ["a", "b"])
    assert coupling_bits(table) == min_entropy_latent(ds, "a", "b")
    assert coupling_bits(table.T) == min_entropy_latent(ds, "b", "a")


# --------------------------------------------------------------------------
# ACE strata against per-level, per-cell masks


def _reference_ace(ds, admg, treatment, outcome, bins):
    """Stratum means by one boolean mask per (level, cell)."""
    t_codes = _coded_column(ds, treatment, bins)
    levels = np.unique(t_codes)
    y = ds.column(outcome).astype(np.float64)
    adjustment = admg.parents(treatment)
    if adjustment:
        strata = np.column_stack([_coded_column(ds, a, bins) for a in adjustment])
        _, cell_of_row, counts = np.unique(
            strata, axis=0, return_inverse=True, return_counts=True
        )
        cell_of_row = cell_of_row.reshape(-1)
        weights = counts / counts.sum()
    else:
        cell_of_row = np.zeros(ds.sample_count, dtype=np.int64)
        weights = np.ones(1)
    means = np.full((levels.shape[0], weights.shape[0]), np.nan)
    for li, level in enumerate(levels):
        mask = t_codes == level
        cells, y_here = cell_of_row[mask], y[mask]
        for cell in np.unique(cells):
            means[li, cell] = float(y_here[cells == cell].mean())
    adjusted = np.zeros(levels.shape[0])
    for li in range(levels.shape[0]):
        covered = ~np.isnan(means[li])
        adjusted[li] = float(
            (weights[covered] * means[li, covered]).sum() / weights[covered].sum()
        )
    if levels.shape[0] < 2:
        return 0.0
    pairs = itertools.combinations(range(levels.shape[0]), 2)
    return float(np.mean([abs(adjusted[i] - adjusted[j]) for i, j in pairs]))


@given(
    st.integers(2, 80).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.lists(st.integers(-1, 1), min_size=n, max_size=n),
            st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
            st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        )
    ),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_ace_edge_matches_mask_loop(columns, adjusted):
    t, p, q, y = columns
    metas = (
        VariableMeta("p", Role.OPTION, Kind.DISCRETE),
        VariableMeta("q", Role.METRIC, Kind.CONTINUOUS),
        VariableMeta("t", Role.METRIC, Kind.DISCRETE),
        VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
    )
    ds = Dataset(
        metas,
        {
            "p": np.asarray(p, dtype=np.int64),
            "q": np.asarray(q, dtype=np.float64),
            "t": np.asarray(t, dtype=np.int64),
            "y": np.asarray(y, dtype=np.float64),
        },
        len(t),
    )
    directed = {("t", "y")} | ({("p", "t"), ("q", "t")} if adjusted else set())
    admg = Admg(metas, frozenset(directed), frozenset())
    got = ace_edge(ds, admg, "t", "y", bins=3).value
    assert got == _reference_ace(ds, admg, "t", "y", 3)


def test_ace_edge_matches_mask_loop_past_sixteen_bit_group_keys():
    """Over 65,536 (level, cell) pairs: the groups are ordered by an int64
    sort instead of a 16-bit one, and the levels are wide-ranged."""
    rng = np.random.default_rng(3)
    n = 400
    metas = (
        VariableMeta("p", Role.OPTION, Kind.DISCRETE),
        VariableMeta("t", Role.METRIC, Kind.DISCRETE),
        VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
    )
    ds = Dataset(
        metas,
        {
            "p": rng.integers(-(10**12), 10**12, n),
            "t": rng.integers(0, 10**6, n),
            "y": rng.standard_normal(n),
        },
        n,
    )
    admg = Admg(metas, frozenset({("p", "t"), ("t", "y")}), frozenset())
    assert len(np.unique(ds.column("t"))) * len(np.unique(ds.column("p"))) > 1 << 16
    assert ace_edge(ds, admg, "t", "y").value == _reference_ace(ds, admg, "t", "y", 5)


def _no_rows() -> Dataset:
    """An option p, a metric t and an objective y, with no rows."""
    metas = (
        VariableMeta("p", Role.OPTION, Kind.DISCRETE),
        VariableMeta("t", Role.METRIC, Kind.CONTINUOUS),
        VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
    )
    columns = {"p": np.zeros(0, dtype=np.int64), "t": np.zeros(0), "y": np.zeros(0)}
    return Dataset(metas, columns, 0)


@pytest.mark.parametrize("treatment", ["p", "t"])
def test_ace_edge_on_no_rows_raises_empty_dataset(treatment):
    ds = _no_rows()
    admg = Admg(ds.variables, frozenset({("p", "t"), ("t", "y")}), frozenset())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataset):
            ace_edge(ds, admg, treatment, "y")


@pytest.mark.parametrize("entry", [
    lambda ds: discretize(ds, 5),
    lambda ds: cbi_rank(ds, np.zeros(0, dtype=bool)),
    fci,
], ids=["discretize", "cbi_rank", "fci"])
def test_entries_on_no_rows_raise_empty_dataset(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataset):
            entry(_no_rows())


def test_entropy_and_coupling_on_no_rows():
    ds = _discrete_dataset(a=[], b=[])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = entropy(ds, ["a", "b"])
        latent = min_entropy_latent(ds, "a", "b")
    assert h == 0.0 and math.copysign(1.0, h) == -1.0
    assert latent == 0.0


# --------------------------------------------------------------------------
# the CSV reader against a row loop with per-cell parsing


def _reference_rows(text: str):
    """Header, complete rows of trimmed cells, and the count of dropped rows."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    rows = [[c.strip() for c in row] for row in reader if row]
    kept = [cells for cells in rows if len(cells) == len(header) and "" not in cells]
    return header, kept, len(rows) - len(kept)


def _reference_load(text: str, kinds: dict[str, Kind]):
    """The loader as one loop over rows, then one ``_parse_cell`` per cell."""
    header, kept, _ = _reference_rows(text)
    if not kept:
        raise EmptyDataset("no complete data rows")
    columns, domains = {}, {}
    for j, name in enumerate(header):
        tokens = [r[j] for r in kept]
        if kinds[name] == Kind.CATEGORICAL:
            codebook: dict[str, int] = {}
            columns[name] = [codebook.setdefault(t, len(codebook)) for t in tokens]
            domains[name] = tuple(codebook)
        else:
            columns[name] = [_parse_cell(t, kinds[name], name, i) for i, t in enumerate(tokens)]
            domains[name] = None
    return columns, domains, len(kept)


_GOOD = {
    Kind.CONTINUOUS: ["1.5", " -2 ", "1e-7", "1_0.5", "+3", "0", "7", "1E3", "-0.0"],
    Kind.DISCRETE: [
        "1", "-2", " 3 ", "+1", "1_0", "1e3", "3.0", "-0", "007",
        "9007199254740993", "-9223372036854775808", "9223372036854775807", "1e17",
    ],
    Kind.BOOLEAN: ["true", "FALSE", " yes ", "On", "0", "1", "no", "off"],
    Kind.CATEGORICAL: ["a", "b", " c ", "a b", "x,y", "1", 'say "hi"', "  b"],
}
_BAD = [
    "nan", "inf", "-Infinity", "abc", "2.5", "1e20", "-9223372036854775809",
    "9223372036854775808", "0x10", "maybe", "2", "1e400",
]
_BLANK = ["", "   "]


# numeric cells that both ``float`` and ``np.loadtxt`` accept
_PLAIN = {
    Kind.CONTINUOUS: ["1.5", " -2 ", "1e-7", "+3", "0", "7", "1E3", "-0.0", ".5"],
    Kind.DISCRETE: ["1", "-2", " 3 ", "+1", "1e3", "3.0", "-0", "007", "-4503599627370495"],
}


@st.composite
def messy_tables(draw):
    """Tables of every kind and shape. Three in five are plain: unquoted,
    all continuous or discrete, every row complete, which ``load_dataset``
    reads in one ``np.loadtxt`` pass."""
    plain = draw(st.integers(0, 4)) < 3
    kinds = draw(
        st.lists(st.sampled_from(list(_PLAIN) if plain else list(Kind)), min_size=1, max_size=4)
    )
    names = [f"c{j}" for j in range(len(kinds))]
    clean = draw(st.booleans())
    out = io.StringIO()
    writer = csv.writer(
        out,
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])) if plain else "\n",
        quoting=csv.QUOTE_MINIMAL if plain else draw(
            st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
        ),
    )
    writer.writerow(names)
    for _ in range(draw(st.integers(1 if plain else 0, 12))):
        if plain:
            writer.writerow([draw(st.sampled_from(_PLAIN[k])) for k in kinds])
            continue
        row = [
            draw(st.sampled_from(_GOOD[k] * 3 + _BLANK + ([] if clean else _BAD)))
            for k in kinds
        ]
        shape = draw(st.sampled_from(["full"] * 5 + ["short", "long", "empty"]))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + ["9"]
        elif shape == "empty":
            row = []
        writer.writerow(row)
    text = out.getvalue()
    if plain and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, dict(zip(names, kinds))


def _outcome(load):
    try:
        return "loaded", load()
    except Exception as exc:  # the error itself is what is compared
        return "raised", (type(exc), getattr(exc, "details", None))


def _roles(kinds: dict[str, Kind]) -> str:
    return json.dumps({n: {"role": "metric", "kind": k.value} for n, k in kinds.items()})


def _assert_matches_reference(text: str, kinds: dict[str, Kind]) -> None:
    status, got = _outcome(lambda: load_dataset(text, _roles(kinds)))
    want_status, want = _outcome(lambda: _reference_load(text, kinds))
    assert status == want_status, (got, want)
    if status == "raised":
        assert got == want
        return
    columns, domains, n = want
    assert got.sample_count == n
    for name, kind in kinds.items():
        col = got.column(name)
        assert col.dtype == (np.float64 if kind == Kind.CONTINUOUS else np.int64)
        # bytes, so that -0.0 and 0.0 differ
        assert col.tobytes() == np.array(columns[name], dtype=col.dtype).tobytes()
        assert got.meta(name).domain == domains[name]


@given(messy_tables())
@settings(max_examples=300, deadline=None)
def test_load_dataset_matches_cell_by_cell_reference(table):
    _assert_matches_reference(*table)


_C, _D = Kind.CONTINUOUS, Kind.DISCRETE


@pytest.mark.parametrize(
    "text, kinds",
    [
        pytest.param("a,b\n1_0,2\n", [_C, _D], id="underscore"),
        pytest.param("a,b\n1.5,1_0\n", [_C, _D], id="underscore-discrete"),
        pytest.param("a,b\n1e-5_0,2\n", [_C, _D], id="underscore-exponent"),
        pytest.param("a,b\n１,2\n", [_C, _D], id="fullwidth-digit"),
        pytest.param("a,b\n1.5,١\n", [_C, _D], id="arabic-indic-digit"),
        pytest.param("a,b\n1.5,2\n1e400,3\n", [_C, _D], id="overflow"),
        pytest.param("a,b\n1.5,2\n#1,3\n", [_C, _D], id="hash-cell"),
        pytest.param("a,b\n1.5,2\n \n3.5,4\n", [_C, _D], id="whitespace-line"),
        pytest.param("a\n1.5\n \n3.5\n", [_C], id="whitespace-line-one-column"),
        pytest.param("a,b\r\n1.5,2\r\n\r\n3.5,4\r\n", [_C, _D], id="crlf"),
        pytest.param("a,b\n1.5,2\n3.5,4", [_C, _D], id="no-final-newline"),
        pytest.param("a,b\n", [_C, _D], id="header-only"),
        pytest.param("a,b\n1.5,2\n", [_C, _D], id="one-row"),
        pytest.param("a\n1.5\n-2\n", [_C], id="one-column"),
        pytest.param("a,b\n1.5,9007199254740993\n", [_C, _D], id="discrete-above-2**53"),
        pytest.param('a,b\n"1.5",2\n3.5,4\n', [_C, _D], id="quoted-cell"),
        pytest.param('"a",b\n1.5,2\n', [_C, _D], id="quoted-header"),
        pytest.param("a,b\n1.5,2,\n3.5,4\n", [_C, _D], id="trailing-comma"),
        pytest.param("a,b\n1.5\n3.5,4\n", [_C, _D], id="short-row"),
        pytest.param("a,b\n1.5,2.5\n", [_C, _D], id="fractional-discrete"),
        pytest.param("a,b\nnan,2\n", [_C, _D], id="nan"),
    ],
)
def test_numeric_edge_inputs_match_the_reference(text, kinds, caplog):
    kinds = dict(zip(["a", "b"], kinds))
    with caplog.at_level(logging.INFO, logger="confcause.dataset"):
        _assert_matches_reference(text, kinds)
    logged = [r.getMessage() for r in caplog.records if "incomplete rows" in r.getMessage()]
    dropped = _reference_rows(text)[2]
    assert logged == ([f"dropped {dropped} incomplete rows"] if dropped else [])


def test_plain_numeric_table_takes_the_loadtxt_path(monkeypatch):
    """With the per-column parser disabled, a plain table still loads."""

    def refuse(*args):
        raise AssertionError("per-column parser reached")

    monkeypatch.setattr(dataset, "_whole_column", refuse)
    text = "a,b\n1.5,2\n-0.25,3e2\n"
    ds = load_dataset(text, _roles({"a": _C, "b": _D}))
    assert ds.column("a").tolist() == [1.5, -0.25]
    assert ds.column("b").tolist() == [2, 300]
    assert ds.column("b").dtype == np.int64
    with pytest.raises(AssertionError, match="per-column parser"):
        load_dataset(text.replace("1.5", "1_5"), _roles({"a": _C, "b": _D}))
