"""Tabular observation data: loading, role/kind metadata, discretization.

A dataset is a rectangular table of system-run observations. Every column is
tagged with a *role* — manipulable configuration option, non-manipulable
system metric, or performance objective — and a value *kind*. Boolean columns
are stored as 0/1 and categorical ones as dense integer codes; a categorical
column's labels live in ``VariableMeta.domain`` so serialization round-trips.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    BadBinCount,
    DuplicateName,
    EmptyDataset,
    InputError,
    MissingRole,
    NonNumericCell,
    SchemaMismatch,
    UnknownVariable,
)

logger = logging.getLogger(__name__)

_BOOLEAN_TOKENS = {
    "true": 1, "1": 1, "yes": 1, "on": 1,
    "false": 0, "0": 0, "no": 0, "off": 0,
}
_INT64 = np.iinfo(np.int64)
# every integer of smaller magnitude is exactly a float64
_EXACT_FLOAT_INTS = 2.0**53
# rows that ``Dataset.dump_table`` turns into Python values at a time
_DUMP_ROWS = 4096


class Role(str, Enum):
    OPTION = "option"
    METRIC = "metric"
    OBJECTIVE = "objective"


class Kind(str, Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"
    BOOLEAN = "boolean"
    CATEGORICAL = "categorical"


def _record_json(value):
    """A record as JSON values, recursively: a dataclass as a dict of its
    fields, less those whose metadata holds ``json=False``; an enum as its
    value, a mapping as a dict, a tuple as a list and a set as a sorted list."""
    if is_dataclass(value):
        return {f.name: _record_json(getattr(value, f.name))
                for f in fields(value) if f.metadata.get("json", True)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {k: _record_json(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(map(_record_json, value))
    if isinstance(value, tuple):
        return [_record_json(v) for v in value]
    return value


class _Record:
    """A dataclass whose JSON is its fields, as ``_record_json`` writes them."""

    def to_json_dict(self) -> dict:
        return _record_json(self)


@dataclass(frozen=True)
class VariableMeta(_Record):
    """Name, role and kind of one column; ``domain`` maps codes back to
    labels, and a model file does not carry it."""

    name: str
    role: Role
    kind: Kind
    domain: tuple[str, ...] | None = field(default=None, metadata={"json": False})

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, str]) -> "VariableMeta":
        return cls(payload["name"], Role(payload["role"]), Kind(payload["kind"]))


@dataclass(frozen=True)
class Dataset:
    """Immutable column store. ``columns[name]`` is a 1-D array of length
    ``sample_count`` (float64 for continuous columns, int64 otherwise)."""

    variables: tuple[VariableMeta, ...]
    columns: Mapping[str, np.ndarray]
    sample_count: int

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DuplicateName("duplicate variable names", names=names)
        for v in self.variables:
            col = self.columns.get(v.name)
            if col is None:
                raise UnknownVariable(f"no column for variable {v.name!r}", variable=v.name)
            if col.shape != (self.sample_count,):
                raise InputError(
                    "column length mismatch", variable=v.name,
                    expected=self.sample_count, actual=int(col.shape[0]),
                )

    # -- lookups ----------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def meta(self, name: str) -> VariableMeta:
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownVariable(f"no such variable: {name}", variable=name)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownVariable(f"no such variable: {name}", variable=name)
        return self.columns[name]

    def by_role(self, role: Role) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.role == role)

    @property
    def options(self) -> tuple[str, ...]:
        return self.by_role(Role.OPTION)

    @property
    def objectives(self) -> tuple[str, ...]:
        return self.by_role(Role.OBJECTIVE)

    # -- construction helpers ----------------------------------------------

    def concat(self, other: "Dataset") -> "Dataset":
        """Row-concatenate two schema-identical datasets; a coded column appends
        the other side's new labels to this side's and maps its codes onto them."""
        if self.schema() != other.schema():
            raise SchemaMismatch("datasets have different schemas",
                                 left=self.schema(), right=other.schema())
        variables, cols = [], {}
        for v, w in zip(self.variables, other.variables):
            tail = other.columns[v.name]
            if (v.domain is None) != (w.domain is None):
                raise SchemaMismatch(f"only one side labels {v.name!r}", variable=v.name)
            if v.domain is not None:
                code_of = {label: i for i, label in enumerate(dict.fromkeys(v.domain + w.domain))}
                v = replace(v, domain=tuple(code_of))
                tail = np.array([code_of[label] for label in w.domain], np.int64)[tail]
            variables.append(v)
            cols[v.name] = np.concatenate([self.columns[v.name], tail])
        return Dataset(tuple(variables), cols, self.sample_count + other.sample_count)

    def schema(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((v.name, v.role.value, v.kind.value) for v in self.variables)

    def require_role_coverage(self) -> None:
        """Every role must be present before structure learning runs."""
        for role in Role:
            if not self.by_role(role):
                raise MissingRole(f"no variable with role {role.value!r}", role=role.value)

    # -- serialization ------------------------------------------------------

    def dump_table(self, stream: IO[str]) -> None:
        """Write the header, then the rows ``_DUMP_ROWS`` at a time: a coded
        column's labels, ``repr`` of each continuous value, and the other
        columns' integers."""
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.names)
        for start in range(0, self.sample_count, _DUMP_ROWS):
            cells = []
            for v in self.variables:
                values = self.columns[v.name][start:start + _DUMP_ROWS].tolist()
                if v.domain is not None:
                    cells.append(map(v.domain.__getitem__, map(int, values)))
                elif v.kind == Kind.CONTINUOUS:
                    cells.append(map(repr, map(float, values)))
                else:
                    cells.append(map(str, map(int, values)))
            writer.writerows(zip(*cells))

    def dump_roles(self, stream: IO[str]) -> None:
        payload = {
            v.name: {"role": v.role.value, "kind": v.kind.value}
            for v in self.variables
        }
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")

    def save(self, table_path: str | Path, roles_path: str | Path) -> None:
        with open(table_path, "w", encoding="utf-8", newline="") as fh:
            self.dump_table(fh)
        with open(roles_path, "w", encoding="utf-8") as fh:
            self.dump_roles(fh)


# --------------------------------------------------------------------------
# loading


def _open(source: str | Path) -> tuple[IO[bytes], Callable[[bytes], str]]:
    """A binary stream over a table or roles source, and the function that
    decodes what is read from it. A ``str`` that contains a newline, or
    whose first non-blank character is ``{``, holds the text, which is read
    through its UTF-8 encoding, lone surrogates kept, so that it decodes to
    itself. Any other ``str``, like a ``Path``, names a file, which must
    exist; its bytes that are not UTF-8 raise InputError where they are
    decoded."""
    if isinstance(source, str) and ("\n" in source or source.lstrip().startswith("{")):
        return (io.BytesIO(source.encode("utf-8", "surrogatepass")),
                lambda data: data.decode("utf-8", "surrogatepass"))
    path = str(source)
    try:
        stream = open(path, "rb")
    except OSError as exc:
        raise InputError(
            f"cannot read {path!r}: {exc.strerror or exc}", path=path
        ) from exc

    def decode(data: bytes) -> str:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path!r} is not UTF-8: {exc}", path=path) from exc

    return stream, decode


def _as_text(source: str | Path) -> str:
    """The whole text of a roles, model, prediction or truth source, opened
    as :func:`_open` opens it."""
    stream, decode = _open(source)
    with stream:
        return decode(stream.read())


def _parse_roles(text: str) -> dict[str, tuple[Role, Kind]]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"roles file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("roles file must be a JSON object keyed by column name")
    out: dict[str, tuple[Role, Kind]] = {}
    for name, entry in raw.items():
        if not isinstance(entry, dict) or "role" not in entry or "kind" not in entry:
            raise MissingRole(
                f"roles entry for {name!r} must supply 'role' and 'kind'", variable=name
            )
        try:
            role = Role(entry["role"])
            kind = Kind(entry["kind"])
        except ValueError as exc:
            raise InputError(
                f"bad role/kind for {name!r}: {exc}", variable=name
            ) from exc
        out[name] = (role, kind)
    return out


def _parse_cell(token: str, kind: Kind, var: str, row: int) -> float | int:
    """Parse one trimmed cell; categorical handled by the caller. Raises
    NonNumericCell on failure, including on ``nan`` and ``inf``, which would
    make every statistic over the column non-finite. A discrete cell written
    as an integer is parsed exactly; any other numeric form (``3.0``,
    ``1e3``) must be integral, and the value must fit in int64.

    This is the reference for :func:`_whole_column`; ``load_dataset`` runs
    it only on a column that function rejects."""
    def bad(why: str) -> NonNumericCell:
        message = f"cell {token!r} in column {var!r} (row {row}) is {why}"
        return NonNumericCell(message, variable=var, row=row, value=token)

    if kind == Kind.CONTINUOUS:
        try:
            value = float(token)
        except ValueError:
            raise bad("not numeric") from None
        if not math.isfinite(value):
            raise bad("not finite")
        return value
    if kind == Kind.DISCRETE:
        try:
            whole = int(token)
        except ValueError:
            try:
                value = float(token)
            except ValueError:
                raise bad("not numeric") from None
            if not math.isfinite(value):
                raise bad("not finite") from None
            if not value.is_integer():
                raise bad("not an integer") from None
            whole = int(value)
        if not _INT64.min <= whole <= _INT64.max:
            raise bad("outside the int64 range")
        return whole
    if kind == Kind.BOOLEAN:
        try:
            return _BOOLEAN_TOKENS[token.lower()]
        except KeyError:
            raise bad("not boolean") from None
    raise AssertionError(kind)


def _checked(values: np.ndarray, kind: Kind) -> np.ndarray | None:
    """Type a continuous or discrete column parsed as float64: itself when
    continuous and finite, int64 when discrete and every value is integral
    below 2**53 in magnitude (so exactly its token); None otherwise."""
    if kind == Kind.CONTINUOUS:
        return values if np.isfinite(values).all() else None
    if (np.abs(values) < _EXACT_FLOAT_INTS).all() and (values == np.trunc(values)).all():
        return values.astype(np.int64)
    return None


def _whole_column(tokens: list[str], kind: Kind) -> np.ndarray | None:
    """Parse a column of trimmed non-categorical cells in C-level passes
    with the same parsers as :func:`_parse_cell`; None when some cell fails
    a check."""
    n = len(tokens)
    try:
        if kind == Kind.BOOLEAN:
            codes = list(map(_BOOLEAN_TOKENS.get, map(str.lower, tokens)))
            return None if None in codes else np.array(codes, dtype=np.int64)
        if kind == Kind.DISCRETE:
            try:
                return np.fromiter(map(int, tokens), np.int64, n)
            except (ValueError, OverflowError):
                pass
        values = np.fromiter(map(float, tokens), np.float64, n)
    except ValueError:
        return None
    return _checked(values, kind)


def _csv_rows(lines: Iterable[str]) -> Iterator[list[str]]:
    """The CSV reader's rows of ``lines``; InputError for a malformed one,
    such as a carriage return inside an unquoted cell."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        raise InputError(f"table is not valid CSV: {exc}") from exc


def _numeric_rows(stream: IO[bytes], metas: list[VariableMeta]) -> Dataset | None:
    """The dataset of the rows left in ``stream`` when every column is
    continuous or discrete, parsed by ``np.loadtxt`` a line at a time. None
    when the rows need the CSV reader: there are none, a line is not exactly
    one complete row of cells ``float`` and ``loadtxt`` both accept, or
    :func:`_checked` rejects a column."""
    # the csv reader yields no row for a line of bare line ends, and a row
    # for every other line
    start = stream.tell()
    expected = sum(1 for line in stream if line.strip(b"\r\n"))
    if not expected:
        return None
    stream.seek(start)
    try:
        block = np.loadtxt(
            stream, dtype=np.float64, delimiter=",", comments=None,
            quotechar=None, ndmin=2, encoding="utf-8",
        )
    except ValueError:  # a decode error too
        return None
    if block.shape != (expected, len(metas)):
        return None
    columns = {}
    for j, meta in enumerate(metas):
        values = _checked(np.ascontiguousarray(block[:, j]), meta.kind)
        if values is None:
            return None
        columns[meta.name] = values
    return Dataset(tuple(metas), columns, expected)


def load_dataset(table_source: str | Path, roles_source: str | Path) -> Dataset:
    """Parse a UTF-8 comma-separated table plus a JSON role map.

    The header row names the variables; every header name must have a roles
    entry and vice versa. Rows with missing or extra cells are dropped with a
    log entry. Categorical labels are coded by first appearance; booleans
    accept true/false (case-insensitive) and 0/1.

    The table is opened once, as :func:`_open` opens it, and lines end only
    at ``\\n``. The roles are parsed next, then the header is read with the
    CSV reader and checked against them, and then the rows are read from the
    same stream: by :func:`_numeric_rows` when every column is continuous or
    discrete and it can, otherwise, from the first data line again, by the
    CSV reader, a column at a time. Bytes that are not UTF-8 raise
    InputError where they are read.
    """
    stream, decode = _open(table_source)
    with stream:
        roles = _parse_roles(_as_text(roles_source))
        try:
            header = next(_csv_rows(map(decode, iter(stream.readline, b""))))
        except StopIteration:
            raise EmptyDataset("table has no header row") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DuplicateName(f"duplicate column names: {dupes}", names=dupes)
        for name in header:
            if name not in roles:
                raise MissingRole(f"column {name!r} has no role assignment", variable=name)
        for name in roles:
            if name not in header:
                raise UnknownVariable(
                    f"roles file references absent column {name!r}", variable=name
                )

        metas = [VariableMeta(n, roles[n][0], roles[n][1]) for n in header]
        if all(m.kind in (Kind.CONTINUOUS, Kind.DISCRETE) for m in metas):
            start = stream.tell()
            numeric = _numeric_rows(stream, metas)
            if numeric is not None:
                return numeric
            stream.seek(start)
        rows = [row for row in _csv_rows(map(decode, stream)) if row]
    complete = [row for row in rows if len(row) == len(header)]
    cells = [list(map(str.strip, col)) for col in zip(*complete)]
    filled = np.ones(len(complete), dtype=bool)
    for col in cells:
        if "" in col:
            filled &= np.fromiter(map(bool, col), bool, len(col))
    if not filled.all():
        cells = [list(itertools.compress(col, filled)) for col in cells]
    sample_count = int(filled.sum())
    dropped = len(rows) - sample_count
    if dropped:
        logger.info("dropped %d incomplete rows", dropped)
    if not sample_count:
        raise EmptyDataset("no complete data rows")

    columns: dict[str, np.ndarray] = {}
    final_metas: list[VariableMeta] = []
    for meta, tokens in zip(metas, cells):
        if meta.kind == Kind.CATEGORICAL:
            domain = tuple(dict.fromkeys(tokens))
            code_of = {label: code for code, label in enumerate(domain)}
            columns[meta.name] = np.fromiter(
                map(code_of.__getitem__, tokens), np.int64, sample_count
            )
            final_metas.append(replace(meta, domain=domain))
            continue
        values = _whole_column(tokens, meta.kind)
        if values is None:  # named by its first bad cell
            values = np.array(
                [_parse_cell(t, meta.kind, meta.name, i) for i, t in enumerate(tokens)],
                dtype=np.float64 if meta.kind == Kind.CONTINUOUS else np.int64,
            )
        columns[meta.name] = values
        final_metas.append(meta)

    return Dataset(tuple(final_metas), columns, sample_count)


# --------------------------------------------------------------------------
# discretization


def _equal_frequency_edges(col: np.ndarray, k: int) -> list[float]:
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        logger.info("constant column collapsed to a single bin")
        return [lo - 0.5, lo + 0.5]
    srt = np.sort(col)
    n = srt.shape[0]
    interior = []
    for i in range(1, k):
        # boundary after the ceil(n*i/k)-th smallest value: right-closed bins
        idx = int(np.ceil(n * i / k)) - 1
        interior.append(float(srt[idx]))
    edges = [lo]
    for e in interior:
        if e > edges[-1] and e < hi:
            edges.append(e)
    edges.append(hi)
    return edges


def _check_bins(bins: int, **details: object) -> None:
    if bins < 2:
        raise BadBinCount(f"bin_count must be >= 2, got {bins}", bin_count=bins, **details)


def _equal_frequency_codes(col: np.ndarray, bins: int, name: str) -> np.ndarray:
    """Integer codes of ``col`` in ``bins`` equal-frequency bins. Interior
    bins are right-closed: a value equal to an interior edge falls in the
    lower bin."""
    _check_bins(bins, variable=name)
    codes = np.zeros(col.shape[0], dtype=np.int64)
    for edge in _equal_frequency_edges(col, bins)[1:-1]:
        codes += col > edge  # count the interior edges strictly below
    return codes


def discretize(ds: Dataset, bins: int) -> Dataset:
    """Return a new dataset with every continuous column replaced by its
    codes in ``bins`` equal-frequency bins (kind becomes Discrete). The
    input dataset is never mutated."""
    _check_bins(bins)
    if ds.sample_count == 0:
        raise EmptyDataset("no rows to discretize")
    if all(v.kind != Kind.CONTINUOUS for v in ds.variables):
        return ds
    cols = dict(ds.columns)
    metas = []
    for v in ds.variables:
        if v.kind == Kind.CONTINUOUS:
            cols[v.name] = _equal_frequency_codes(ds.column(v.name), bins, v.name)
            v = replace(v, kind=Kind.DISCRETE, domain=None)
        metas.append(v)
    return Dataset(tuple(metas), cols, ds.sample_count)
