"""Small shared helpers: JSON documents, integer and real fields, atomic file
writes, float lists."""

import contextlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import InvalidInputError


def load_json(path, what):
    """The JSON object in the file at path; what names it in the error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"cannot read {what} {path}: not a JSON object")
    return doc


def integer(name, value):
    """value as an int: an int or an integral float; a bool or anything else is refused."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidInputError(f"{name}: expected an integer, got {value!r}")


def real(name, value):
    """value as a float: a finite int or float; a bool, a string, nan, inf or
    anything else is refused."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            if math.isfinite(x := float(value)):
                return x
    raise InvalidInputError(f"{name}: expected a finite real number, got {value!r}")


def refuse_unknown_keys(what, doc, known):
    """Raise InvalidInputError naming every key of doc not in known."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise InvalidInputError(f"unknown {what} key(s): {', '.join(unknown)}")


@contextlib.contextmanager
def malformed(what):
    """Turn a lookup, type or value error raised while decoding a document
    into InvalidInputError naming what; an InvalidInputError passes as is."""
    try:
        yield
    except InvalidInputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what}: {exc!r}") from exc


def dump_json(obj):
    """Serialize to JSON with stable key order and shortest round-trip floats."""
    return json.dumps(obj, indent=2, sort_keys=False, allow_nan=False) + "\n"


def atomic_write_chunks(path, chunks):
    """Write the text chunks to path in order, each as it arrives, via a temp
    file + rename so readers never see partial output: a chunk that fails to
    arrive leaves path as it was and no temp file behind."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Write text to path atomically: atomic_write_chunks with one chunk."""
    atomic_write_chunks(path, (text,))


def float_list(arr):
    """Convert an array to nested lists of Python floats (for JSON output)."""
    return np.asarray(arr, dtype=float).tolist()
