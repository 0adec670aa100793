"""The one reader of every input text file, atomic file writes, checksums,
the key-value text format used by run configs and dataset manifests, and
the one formatter of every output table and JSON document."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import (
    ConfigError,
    HclError,
    IngestionError,
    NumericError,
    OutputError,
)


def read_text(path: str, what: str, error: type[HclError] = IngestionError) -> str:
    """The text of the UTF-8 file ``path``, line endings as written. A file
    that cannot be opened, read or decoded raises ``error``, naming ``what``
    and the path."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise error(f"cannot read {what} {path}: {reason}") from None


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same dir,
    so readers never observe a partial file. A write that fails removes the
    temp file; an ``OSError`` becomes an ``OutputError`` naming ``path`` and
    the OS reason. Every output file, checkpoints too, is written here."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            reason = err.strerror or err
            raise OutputError(f"cannot write {path}: {reason}") from None
        raise


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def csv_text(header: list[str], rows) -> str:
    """A CSV table, one line per row. Floats are written with ``repr``, so
    equal values always give the same bytes; bools are ``true``/``false``
    and ``None`` an empty cell."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    """A strict JSON document with sorted keys, two-space indent, trailing
    newline. A NaN or infinite number raises ``NumericError``: strict JSON
    has no token for it."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:
        raise NumericError(f"cannot write a JSON document: {err}") from None


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a dict.

    Blank lines and lines starting with ``#`` are skipped. Values keep
    internal whitespace; keys must be unique.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out
