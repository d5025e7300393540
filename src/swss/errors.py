"""Shared exception types, the rules for reading the text files a user
hands swss and decoding JSON, so every such file fails alike, and the
rule for a number a user hands it."""

import json
import os
import sys


class SwssError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(SwssError):
    """Malformed or structurally invalid UCCA input."""


class DatasetError(SwssError):
    """Problem with an evaluation dataset, manifest, or score table."""


def _read_lines(path, kind: str) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, without a leading
    byte-order mark. A missing file, or one that is not UTF-8, raises
    DatasetError; ``kind`` says what the missing file was to be."""
    if not os.path.isfile(path):
        raise DatasetError(f"{kind} not found: {path}")
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None


def _decode_json(document, error: type, *where):
    """The JSON value ``document`` holds. Otherwise raise ``error``, whose
    message starts with ``where`` joined by colons (a path, or a path and
    a line number), built only then."""
    try:
        return json.loads(document)
    except ValueError as exc:
        reason = str(exc)
    except RecursionError:
        reason = "nested too deeply"
    prefix = ":".join(map(str, where)) + ": " if where else ""
    raise error(f"{prefix}malformed JSON: {reason}")


def _is_number(value) -> bool:
    """Whether ``value`` is an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _in_float_range(value) -> bool:
    """Whether the number ``value`` lies within the float range. False for
    NaN, and for an int too large to become a float."""
    return -sys.float_info.max <= value <= sys.float_info.max
