"""Rollout records and their records.jsonl format, version 5, which stores
each fact once but two: recovery_iterations repeats the count of the
recovery entries, and each step's t repeats its index in steps, as rollout
appends one step per t from 0.  A later format change could drop both.

A recovery iteration's controls are the u of its probe and recovery
motions, and the g it started from is the step's g for the first iteration
and the previous iteration's g_after after that.  A step's end
(collided or completed, set as its motions are applied) and its halt (where
the recovery loop stopped) have no keys: only an episode's last step can
have either, and then it is the outcome or the halt reason, from which the
decoder rebuilds it.

A finished record (finish_record) holds its facts and its line.  Each read
of its start_state or steps decodes the line and keeps nothing, so a reader
that walks many records holds one record's objects at a time.
"""

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .errors import InvalidInputError
from .util import float_list, malformed

COMPLETED = "completed"
COLLIDED = "collided"
HALTED = "halted"
OUTCOMES = (COMPLETED, COLLIDED, HALTED)
OUTSIDE_SUPPORT = "outside-support"
RECOVERY_CAP = "recovery-cap"
STEP_HALTS = (OUTSIDE_SUPPORT, RECOVERY_CAP)  # the halt reasons a step records
HALT_REASONS = ("start-gate", *STEP_HALTS, "horizon")

RECORD_FORMAT = "rollout-record"
RECORD_VERSION = 5


@dataclass(frozen=True, slots=True)
class RecoveryStep:
    """One recovery iteration's audit values (oracle: g_probe is its start g)."""

    g_probe: float
    g_after: float
    flipped: bool
    threshold: float  # lambda * ||u_hat|| at the state the iteration started from


@dataclass(slots=True, eq=False)
class AppliedRecord:
    """One applied control and the state it produced."""

    u: np.ndarray
    tag: str  # policy | probe | recovery | zero
    state: np.ndarray


@dataclass(slots=True, eq=False)
class StepRecord:
    """One horizon step: its controls, decision value, and recovery iterations."""

    t: int
    g: float  # decision value at step start; None when no support was consulted
    applied: list  # AppliedRecord per applied control, in order
    recovery: list = field(default_factory=list)  # RecoveryStep per iteration
    end: str = None  # COLLIDED or COMPLETED once a motion collided or reached the goal
    halt: str = None  # one of STEP_HALTS where the recovery loop stopped


@dataclass(eq=False)
class RolloutRecord:
    """Full audit trail of one episode.

    The step types above have slots, as an episode can hold thousands of
    them; a RolloutRecord keeps its __dict__, where a finished record
    stores its line.  All three hold arrays, so they compare by identity;
    record_line gives a record's value.

    wall_clock_s is measured in-process and deliberately not serialized; re-
    runs must produce byte-identical record files, and timing never is.

    activations, the (ending, values) of each recovery activation (see
    record_activations), is computed from the steps at its first read.

    finish_record keeps a record's facts (every field but start_state and
    steps, plus activations) and its records.jsonl line.  The finished
    record decodes start_state and steps from that line at each read and
    keeps neither, record_line returns the line, and it pickles as is.
    """

    seed: object  # int or list of ints, as given
    controller: str
    outcome: str
    start_state: np.ndarray
    steps: list
    halt_reason: str = None  # one of HALT_REASONS when halted, else None
    recovery_iterations: int = 0
    g_min: float = None
    wall_clock_s: float = None

    def __getattr__(self, name):
        # Called only for attributes the instance lacks: activations until
        # their first read, and on a finished record start_state and steps.
        if name == "activations":
            self.activations = record_activations(self.steps)
            return self.activations
        if name not in ("start_state", "steps") or "_line" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self._decoded(), name)

    def _decoded(self):
        """The record with its steps in memory: itself, or a fresh decode of its line."""
        line = self.__dict__.get("_line")
        return self if line is None else record_from_document(json.loads(line))

    def state_sequence(self):
        """Every visited state in order, starting from the reset state."""
        record = self._decoded()
        states = [record.start_state]
        for step in record.steps:
            states.extend(a.state for a in step.applied)
        return states


HAND_BACK = "hand-back"


def record_activations(steps):
    """(ending, values) per recovery activation in steps, in order.

    values holds min(1, g / threshold) of each iteration at the state it
    started from: g is the step's g for the first iteration and the previous
    g_after after that, threshold the one the recovery loop recorded.  The
    ending is the step's halt, HAND_BACK when the step ends on a policy
    motion, or else the step's end (a recovery motion collided or completed).
    """
    activations = []
    for step in steps:
        if step.recovery:
            starts = [step.g] + [ev.g_after for ev in step.recovery[:-1]]
            values = tuple(min(1.0, g / ev.threshold) for g, ev in zip(starts, step.recovery))
            ending = step.halt or (HAND_BACK if step.applied[-1].tag == "policy" else step.end)
            activations.append((ending, values))
    return tuple(activations)


def record_to_document(record):
    """The record as the JSON document its records.jsonl line holds: the
    line decoded, so the format is written down once, in record_line."""
    return json.loads(record_line(record))


def record_line(record):
    """The record's records.jsonl line, without its newline: the one encoder."""
    line = record.__dict__.get("_line")
    if line is None:
        line = _encode(record)
    return line


_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False).encode
_string = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__


class _FloatTexts(dict):
    """float -> its JSON text, float.__repr__ as json writes it, formatted at
    the first lookup.  A zero is formatted at every lookup and never kept,
    as 0.0 == -0.0 as a key; a non-finite float raises ValueError, as json
    does with allow_nan=False."""

    __slots__ = ()

    def __missing__(self, v):
        if not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        text = _float_repr(v)
        if v:
            self[v] = text
        return text


def _encode(record):
    """The compact JSON of the document

        {"format", "version", "seed", "controller", "outcome", "halt_reason",
         "recovery_iterations", "g_min", "start_state",
         "steps": [{"t", "g", "applied": [{"u", "tag", "state"}],
                    "recovery": [{"g_probe", "g_after", "flipped", "threshold"}]}]}

    as json.dumps(document, separators=(",", ":"), allow_nan=False) writes
    it, byte for byte.  json formats a float by float.__repr__, about 1 us
    for a 17-digit one, so the line formats each distinct non-zero float of
    the record once, and each AppliedRecord and RecoveryStep object once:
    the oracle's replayed cycles share theirs, and a point_push state
    repeats the goal."""
    text = _FloatTexts().__getitem__

    def numbers(values):
        return ",".join(map(text, float_list(values)))

    def optional(v):
        return "null" if v is None else text(float(v))

    objects = {}  # id of an AppliedRecord or RecoveryStep -> its text
    steps = []
    for s in record.steps:
        applied = []
        for a in s.applied:
            a_text = objects.get(id(a))
            if a_text is None:
                a_text = objects[id(a)] = '{"u":[%s],"tag":%s,"state":[%s]}' % (
                    numbers(a.u), _string(a.tag), numbers(a.state))
            applied.append(a_text)
        recovery = []
        for e in s.recovery:
            e_text = objects.get(id(e))
            if e_text is None:
                e_text = objects[id(e)] = (
                    '{"g_probe":%s,"g_after":%s,"flipped":%s,"threshold":%s}' % (
                        text(float(e.g_probe)), text(float(e.g_after)),
                        "true" if e.flipped else "false", text(float(e.threshold))))
            recovery.append(e_text)
        steps.append('{"t":%d,"g":%s,"applied":[%s],"recovery":[%s]}' % (
            int(s.t), optional(s.g), ",".join(applied), ",".join(recovery)))
    return (
        '{"format":%s,"version":%d,"seed":%s,"controller":%s,"outcome":%s,"halt_reason":%s,'
        '"recovery_iterations":%d,"g_min":%s,"start_state":[%s],"steps":[%s]}' % (
            _string(RECORD_FORMAT), RECORD_VERSION, _dumps(record.seed),
            _dumps(record.controller), _dumps(record.outcome), _dumps(record.halt_reason),
            int(record.recovery_iterations), optional(record.g_min),
            numbers(record.start_state), ",".join(steps))
    )


_RECORD_FACTS = ("seed", "controller", "outcome", "halt_reason", "recovery_iterations",
                 "g_min", "wall_clock_s", "activations")


def finish_record(record):
    """The record as the runners keep it: its facts and its line, no steps."""
    done = RolloutRecord.__new__(RolloutRecord)
    done.__dict__.update({f: getattr(record, f) for f in _RECORD_FACTS}, _line=record_line(record))
    return done


def record_from_document(doc):
    with malformed("malformed rollout record"):
        if doc["format"] != RECORD_FORMAT:
            raise InvalidInputError(f"not a rollout record: format={doc['format']!r}")
        if doc.get("version") != RECORD_VERSION:
            raise InvalidInputError(
                f"rollout record version {doc.get('version')!r}; expected {RECORD_VERSION}"
            )
        steps = [
            StepRecord(
                t=int(s["t"]),
                g=s["g"],
                applied=[
                    AppliedRecord(
                        u=np.asarray(a["u"], dtype=float),
                        tag=a["tag"],
                        state=np.asarray(a["state"], dtype=float),
                    )
                    for a in s["applied"]
                ],
                recovery=[
                    RecoveryStep(
                        g_probe=float(e["g_probe"]),
                        g_after=float(e["g_after"]),
                        flipped=bool(e["flipped"]),
                        threshold=float(e["threshold"]),
                    )
                    for e in s["recovery"]
                ],
            )
            for s in doc["steps"]
        ]
        if steps and doc["outcome"] in (COLLIDED, COMPLETED):
            steps[-1].end = doc["outcome"]
        if steps and doc["halt_reason"] in STEP_HALTS:
            steps[-1].halt = doc["halt_reason"]
        return RolloutRecord(
            seed=doc["seed"],
            controller=doc["controller"],
            outcome=doc["outcome"],
            start_state=np.asarray(doc["start_state"], dtype=float),
            steps=steps,
            halt_reason=doc["halt_reason"],
            recovery_iterations=int(doc["recovery_iterations"]),
            g_min=doc["g_min"],
        )
