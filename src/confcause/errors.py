"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from :class:`EngineError`,
which carries the process exit code the CLI maps it to:

* ``2`` — bad input (files, schemas, parameters),
* ``3`` — structurally valid input that yields an empty result,
* ``4`` — internal/numerical failures.
"""

from __future__ import annotations

from typing import Any


class EngineError(Exception):
    """Base class for all errors raised by confcause."""

    exit_code = 4

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details = details

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"error": type(self).__name__, "message": str(self)}
        if self.details:
            out["details"] = {k: v for k, v in sorted(self.details.items())}
        return out


class InputError(EngineError):
    """Malformed or inconsistent user input."""

    exit_code = 2


class EmptyResultError(EngineError):
    """Valid input for which the requested result set is empty."""

    exit_code = 3


# --- dataset -------------------------------------------------------------

class UnknownVariable(InputError):
    """A referenced variable is not a column of the dataset."""


class DuplicateName(UnknownVariable):
    """The table header contains the same column name twice."""


class MissingRole(InputError):
    """A table column has no role assignment."""


class EmptyDataset(InputError):
    """No complete rows survived parsing."""


class NonNumericCell(InputError):
    """A cell could not be parsed under its column's declared kind."""


class BadBinCount(InputError):
    """A discretization requested fewer than two bins."""


class NonDiscreteVariable(EngineError):
    """An operation requiring discrete data was given a continuous column."""


class SchemaMismatch(InputError):
    """Two datasets that must share a schema do not."""


# --- stats ---------------------------------------------------------------

class InsufficientSamples(InputError):
    """Too few rows for the requested conditioning-set size."""


class SingularCovariance(EngineError):
    """The covariance submatrix is numerically singular."""


# --- effects -------------------------------------------------------------

class UnknownVertex(InputError):
    """A referenced vertex is not part of the graph."""


class UnidentifiableEffect(EngineError):
    """The interventional effect is not identifiable from the model."""


class NoPathsFound(EmptyResultError):
    """No admissible causal path reaches the requested objective."""


# --- synthbench ----------------------------------------------------------

class NoFaultyRows(EngineError):
    """Fault curation found no rows matching the fault rule."""


class ObjectiveMismatch(InputError):
    """A prediction and a ground-truth entry reference different objectives."""
