"""Small shared helpers: RNG handling, vector norms, atomic file writes, stable JSON."""

import json
import math
import os
import tempfile

import numpy as np


def as_generator(seed_or_rng):
    """Return a numpy Generator. Accepts an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def vector_norm(v):
    """np.linalg.norm(v) of a 1-D float array, bit for bit and without its
    overhead: the square root of v.dot(v), a BLAS dot product that may fuse
    multiply and add, so it can differ from sqrt(x*x + y*y) in the last bit."""
    return math.sqrt(v.dot(v))


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
