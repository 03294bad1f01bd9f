"""Small shared helpers: vector norms, JSON documents, atomic file writes."""

import contextlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import InvalidInputError


def vector_norm(v):
    """np.linalg.norm(v) of a 1-D float array, bit for bit and without its
    overhead: the square root of v.dot(v), a BLAS dot product that may fuse
    multiply and add, so it can differ from sqrt(x*x + y*y) in the last bit."""
    return math.sqrt(v.dot(v))


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


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def float_list(arr):
    """Convert an array to nested lists of Python floats (for JSON output)."""
    return np.asarray(arr, dtype=float).tolist()
