"""Rollout records: a RolloutRecord per episode holds its facts, its
activations and its records.jsonl line, which encode_record, the one
encoder, writes and record_from_line, the one reader, keeps as it reads.

The format, version 5, stores each fact once but two: recovery_iterations
repeats the count of the recovery entries, and each step's t repeats its
index in steps, as rollout appends one step per t from 0.  A later format
change could drop both.

A recovery iteration's controls are the u of its probe and recovery
motions, and the g it started from is the step's g for the first iteration
and the previous iteration's g_after after that.  A step's end
(collided or completed, set as its motions are applied) and its halt (where
the recovery loop stopped) have no keys: only an episode's last step can
have either, and then it is the outcome or the halt reason, from which the
decoder rebuilds it.
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
    """One episode: its facts, its activations and its records.jsonl line.

    start_state and steps are the line decoded at each read, and nothing
    else is kept.  Records compare by identity, as their steps do; the line
    is a record's value.  wall_clock_s (reset through the last step) is not
    in the line, as timing is never byte-stable; a record read back has none.
    """

    seed: object  # int or list of ints, as given
    controller: str
    outcome: str
    halt_reason: str  # one of HALT_REASONS when halted, else None
    recovery_iterations: int
    g_min: float
    activations: tuple  # (ending, values) per recovery activation: record_activations
    line: str  # without its newline
    wall_clock_s: float = None

    @property
    def start_state(self):
        return _decode(self.line)[1]

    @property
    def steps(self):
        return _decode(self.line)[2]

    def state_sequence(self):
        """Every visited state in order, starting from the reset state."""
        _, start_state, steps = _decode(self.line)
        states = [start_state]
        for step in steps:
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


def encode_record(seed, controller, outcome, halt_reason, recovery_iterations, g_min,
                  start_state, steps):
    """An episode's records.jsonl line, without its newline: the one
    encoder.  The line is the compact JSON of the document

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
    step_texts = []
    for s in steps:
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
        step_texts.append('{"t":%d,"g":%s,"applied":[%s],"recovery":[%s]}' % (
            int(s.t), optional(s.g), ",".join(applied), ",".join(recovery)))
    return (
        '{"format":%s,"version":%d,"seed":%s,"controller":%s,"outcome":%s,"halt_reason":%s,'
        '"recovery_iterations":%d,"g_min":%s,"start_state":[%s],"steps":[%s]}' % (
            _string(RECORD_FORMAT), RECORD_VERSION, _dumps(seed), _dumps(controller),
            _dumps(outcome), _dumps(halt_reason), int(recovery_iterations), optional(g_min),
            numbers(start_state), ",".join(step_texts))
    )


def _decode(line):
    """(document, start_state, steps) of a record's line."""
    with malformed("malformed rollout record"):
        doc = json.loads(line)
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
        return doc, np.asarray(doc["start_state"], dtype=float), steps


def record_from_line(line):
    """The record a records.jsonl line (without its newline) holds, with the
    line kept as given: it is never encoded again."""
    doc, _, steps = _decode(line)
    with malformed("malformed rollout record"):
        return RolloutRecord(
            seed=doc["seed"],
            controller=doc["controller"],
            outcome=doc["outcome"],
            halt_reason=doc["halt_reason"],
            recovery_iterations=int(doc["recovery_iterations"]),
            g_min=doc["g_min"],
            activations=record_activations(steps),
            line=line,
        )
