"""The one JSON reader, its typed field readers and the two atomic writers.

``read_json`` turns a file that is missing, unreadable, not UTF-8 or not
JSON into an error naming the file, never a traceback.  ``json_field``
reads one field of a parsed document as a stated JSON kind, ``json_array``
a nest of numbers of a stated shape, and ``json_object`` a closed object
(the run config, the schema and their parts), whose keys are those its
fields name.  The kinds are strict: a boolean is not a number, a string
not a list, a list not an object; ``2.0`` is an integer.  Each raises the
error class its document calls for (UsageError for the config,
SchemaError for the schema, IntegrityError for a model, selection manifest
or report), with a message naming the field.  ``write_json`` and
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
import math
import os
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

import numpy as np

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


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number",
               bool: "a boolean"}


def _read(value, kind, where: str | Path, label: str, error: type[Exception]):
    """``value`` as a ``kind``, or None when it is not one; a number that
    is not whole (or a boolean) where an integer belongs is an ``error``."""
    if type(value) is kind:
        return value
    if kind is int and isinstance(value, (bool, float)):
        if isinstance(value, bool) or not value.is_integer():
            raise error(f"{where}: field {label} must be a whole number, got {value!r}")
        return int(value)
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # beyond the float range
            return None
    return value if isinstance(value, kind) else None


def json_field(doc, name: str, kind, where: str | Path, label: str | None = None,
               error: type[Exception] = IntegrityError):
    """``doc[name]`` when ``doc`` is a JSON object whose field holds a
    ``kind``: ``dict``, ``list``, ``str``, ``int`` (a whole-number float
    too), ``float`` (read as a float) or ``bool``; ``[kind]`` for a list of
    them (read as a tuple); ``(kind, None)`` for a kind or null.  Otherwise
    an ``error`` whose message starts with ``where`` and names the field,
    shown as ``label`` if given."""
    value = doc.get(name) if isinstance(doc, dict) else None
    if type(value) is kind:  # the common case, read as it is
        return value
    label, null = label or name, ""
    if isinstance(kind, tuple):
        if value is None:
            return None
        kind, null = kind[0], " or null"
    if isinstance(kind, list):
        items = tuple(_read(v, kind[0], where, label, error) for v in value) if isinstance(value, list) else (None,)
        if None not in items:
            return items
        raise error(f"{where}: field {label} is missing or not a list of {_KIND_NAMES[kind[0]].split()[-1]}s")
    read = _read(value, kind, where, label, error)
    if read is None:
        raise error(f"{where}: field {label} is missing or not {_KIND_NAMES[kind]}{null}")
    return read


def json_array(value, shape: tuple[int, ...], kinds: str, where: str | Path, label: str,
               error: type[Exception] = IntegrityError) -> np.ndarray:
    """``value`` as an array when it is a nest of JSON numbers of ``shape``
    whose numpy dtype kind is one of ``kinds``; otherwise an ``error``
    naming ``where`` and the field."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is not None and arr.size == 0 == math.prod(shape):  # an empty list has no inner shape
        arr = np.zeros(shape, dtype=np.int64)
    if arr is None or arr.shape != shape or arr.dtype.kind not in kinds:
        raise error(f"{where}: field {label} is not numbers of shape {shape}")
    return arr


def json_object(where: str, error: type[Exception], doc, required: dict, optional: dict | None = None,
                label: str = "", name: str = "") -> dict:
    """The fields of the closed JSON object ``doc``, in a document whose
    faults are ``error``s starting with ``where`` (the first arguments, for
    ``partial`` to bind).  Each key of ``required`` and ``optional`` is
    read by ``json_field`` as the kind it maps to; an absent optional key
    is absent from the result, and a key mapped to None is accepted and not
    read.  Any other key is an error naming the first in sorted order and
    the object (``name``, else ``label``, which also prefixes the field
    labels), raised before any field is read."""
    if not isinstance(doc, dict):
        raise error(f"{where}: field {label} is missing or not an object" if label else
                    f"{where}: expected a JSON object")
    kinds = {**required, **optional} if optional else required
    if not doc.keys() <= kinds.keys():
        unknown = min(doc.keys() - kinds.keys(), key=str)
        known = ", ".join(sorted(key for key, kind in kinds.items() if kind is not None))
        raise error(f"{where}: unknown {name or label} key {unknown!r}; expected one of: {known}")
    fields = {}
    for key, kind in kinds.items():
        if kind is not None and (key in doc or key in required):
            value = doc.get(key)  # read as it is when of its kind, the common case
            fields[key] = value if type(value) is kind else json_field(
                doc, key, kind, where, f"{label}.{key}" if label else key, error)
    return fields


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
