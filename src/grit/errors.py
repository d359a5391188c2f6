"""Exception hierarchy and the JSON document readers shared across the package.

Every user-facing failure derives from :class:`GritError` so the CLI can map
it onto a single exit code for input/validation problems.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path


class GritError(Exception):
    """Base class for all recoverable errors raised by this package."""


class ScenarioError(GritError):
    """Malformed scenario file or inconsistent lane graph."""


class TrajectoryError(GritError):
    """Malformed trajectory data or broken frame timing."""


class ModelError(GritError):
    """Model file fails structural or numeric validation."""


class PropositionError(GritError):
    """Proposition file is malformed or references unknown goals/features."""


def read_json(path: str | Path, error: type[GritError], what: str) -> object:
    """The JSON document in a UTF-8 file; error when it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} file: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} file is nested too deeply") from exc
    # JSONDecodeError, UnicodeDecodeError and the int str-digit limit
    except ValueError as exc:
        raise error(f"{what} file is not valid JSON: {exc}") from exc


def _cut(name: object) -> str:
    """str(name) cut to 40 characters: how error messages print an
    identifier, which may come from a file and be of any length."""
    return str(name)[:40]


def _shown(value: object) -> str:
    """repr(value) cut like an identifier, for error messages."""
    try:
        return _cut(repr(value))
    except (ValueError, RecursionError):  # an int beyond the str-digit limit
        return type(value).__name__


def json_number(value: object, error: type[GritError], field: str) -> numbers.Real:
    """value unchanged if it is a real number, not a bool, finite as a float; else error."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise error(f"{field} must be a finite number, not {_shown(value)}")


def json_bool(value: object, error: type[GritError], field: str) -> bool:
    """value unchanged if it is true or false; else error."""
    if isinstance(value, bool):
        return value
    raise error(f"{field} must be true or false, not {_shown(value)}")


def json_names(value: object, error: type[GritError], field: str) -> list:
    """value unchanged if it is a list of strings; else error."""
    if isinstance(value, list) and all(isinstance(name, str) for name in value):
        return value
    raise error(f"{field} must be a list of strings, not {_shown(value)}")
