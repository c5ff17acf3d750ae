"""The one JSON reader and the two atomic writers every command uses.

``read_json`` turns a file that is missing, unreadable, not UTF-8 or not
JSON into an error naming the file, never a traceback.  ``write_json`` and
``write_csv`` write a temporary file beside the target (its name plus
``.tmp``), rename it over the target, and delete it when writing raises,
so a target holds either its previous bytes or the whole new content.
CSV lines end in ``\\r\\n``, the csv module's default.  A target or a
directory that cannot be written is a UsageError naming the path;
``check_writable`` raises it for a target that is a directory or whose
parent is not one, so a command can fail before its work rather than after.
"""

from __future__ import annotations

import csv
import errno
import json
import os
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

from .errors import IntegrityError, UsageError


def read_json(path: str | Path, what: str, error: type[Exception] | None = None):
    """The JSON document in ``path``, called ``what`` in messages.  A missing
    or unreadable file is a UsageError and content that is not JSON (or not
    UTF-8) an IntegrityError, unless ``error`` is given for all of them."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise (error or UsageError)(f"{what} not found: {path}") from None
    except OSError as exc:
        raise (error or UsageError)(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise (error or IntegrityError)(f"{what} {path} is not valid JSON: {exc}") from None


def ensure_dir(path: str | Path) -> Path:
    """``path`` as a directory, made with its parents if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    return Path(path)


def check_writable(*paths: str | Path) -> None:
    """The UsageError a write to each of ``paths`` would end in, raised now:
    the path is a directory, or its parent is missing or not a directory."""
    for path in map(Path, paths):
        if path.is_dir():
            reason = errno.EISDIR
        elif not path.parent.is_dir():
            reason = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        else:
            continue
        raise UsageError(f"cannot write {path}: {os.strerror(reason)}")


@contextmanager
def _replacing(path: str | Path, newline: str | None = None):
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        tmp.replace(path)
    except BaseException as exc:
        if tmp.is_file():  # not when the parent is missing or is not a directory
            tmp.unlink()
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
        raise


def write_json(doc, path: str | Path, indent: int | None = 2) -> None:
    # one dumps and one write: json.dump streams through the pure-Python
    # encoder, dumps uses the C one when indent is None; the bytes are equal
    with _replacing(path) as fh:
        fh.write(json.dumps(doc, indent=indent))


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
