"""Two 2D quasi-static environments: disc pushing and line tracking.

A state is a float vector (np.ndarray).  Both environments expose the same
surface: reset, a pure step function (state vector in, next state vector
out), a constraint predicate, and a dynamics constant K such that a single
applied control u moves the state vector by at most K * ||u|| (plus the
disturbance amplitude where a disturbance is enabled).  A spec whose K is
below its kind's proven bound (sqrt(2) for PointPush, 1 for LineTrack) is
refused, since certified lambda = L_t * K relies on it.  Demo generation
and rollouts call the same step, control clip and predicates, one state at
a time.

Every 2-vector norm is _dist(dx, dy) = sqrt(dx*dx + dy*dy) in Python floats:
IEEE 754 rounds each operation once, so a norm, and every threshold test on
it, has the same bits on every machine and BLAS kernel.

PointPush: a robot disc pushes an object disc across a planar workspace to a
goal disc, between two circular keep-out regions.  Contact is resolved
quasi-statically in a single pass: after the robot moves, any overlap depth
is projected out along the center-to-center normal.  From a non-overlapping
state the object then moves no farther than the robot, so a step moves the
state by at most sqrt(2) * ||u||; the shipped K is 2.

LineTrack: a tool tip advances along a straight line, in the line's frame.
State is (arc-length progress, lateral deviation), in millimetres.  A
test-time disturbance shifts the platform under the tool as a reflected
bounded random walk, entering the deviation coordinate; K = 1.
"""

from dataclasses import dataclass, field
import json
import math

from importlib.resources import files as _resource_files

import numpy as np

from .errors import InvalidInputError
from .util import integer, load_json, malformed, real, refuse_unknown_keys

POINT_PUSH = "point_push"
LINE_TRACK = "line_track"
BUILTIN_ENV_NAMES = (POINT_PUSH, LINE_TRACK)
# The displacement bound each kind is proven to keep, disturbance off: the
# least dyn_constant a spec may state.
_PROVEN_K = {POINT_PUSH: math.sqrt(2.0), LINE_TRACK: 1.0}


@dataclass(frozen=True)
class DisturbanceSpec:
    """Description of the test-time disturbance process."""

    process: str = "none"
    amplitude: float = 0.0
    bound: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        if self.process not in ("none", "bounded-random-walk"):
            raise InvalidInputError(f"unknown disturbance process {self.process!r}")
        if self.process != "none" and not (self.amplitude > 0.0 and self.bound >= self.amplitude):
            raise InvalidInputError("bounded-random-walk needs amplitude > 0 and bound >= amplitude")


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one environment instance."""

    kind: str
    u_max: float
    dyn_constant: float
    horizon: int
    # point_push geometry
    workspace: tuple = None
    robot_radius: float = None
    object_radius: float = None
    goal_center: tuple = None
    goal_radius: float = None
    constraint_regions: tuple = None
    robot_start: tuple = None
    object_start_box: tuple = None
    # line_track geometry
    deviation_limit: float = None
    goal_progress: float = None
    nominal_step: float = None
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    # derived in __post_init__; not part of the spec's identity, repr or document
    push: "PushGeometry" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in BUILTIN_ENV_NAMES:
            raise InvalidInputError(f"unknown environment kind {self.kind!r}")
        object.__setattr__(self, "horizon", integer("horizon", self.horizon))
        if not (self.u_max > 0.0 and self.dyn_constant > 0.0 and self.horizon >= 1):
            raise InvalidInputError("u_max, dyn_constant must be positive and horizon >= 1")
        if self.dyn_constant < _PROVEN_K[self.kind]:
            raise InvalidInputError(
                f"{self.kind} dyn_constant {self.dyn_constant:g} is below the proven "
                f"displacement bound {_PROVEN_K[self.kind]:.17g}, so certified lambda "
                "= L_t * dyn_constant would not bound the decision drop of a step"
            )
        if self.kind == POINT_PUSH:
            needed = (self.workspace, self.robot_radius, self.object_radius,
                      self.goal_center, self.goal_radius, self.constraint_regions,
                      self.robot_start, self.object_start_box)
            if any(v is None for v in needed):
                raise InvalidInputError("point_push spec is missing geometry fields")
            (lo_x, lo_y), (hi_x, hi_y) = self.workspace
            keep_out = tuple(
                (float(cx), float(cy), radius + self.robot_radius, radius + self.object_radius)
                for (cx, cy), radius in self.constraint_regions
            )
            object.__setattr__(self, "push", PushGeometry(
                box=(float(lo_x), float(lo_y), float(hi_x), float(hi_y)),
                contact=self.robot_radius + self.object_radius,
                keep_out=keep_out,
                goal=(float(self.goal_center[0]), float(self.goal_center[1]), self.goal_radius),
            ))
        else:
            if self.deviation_limit is None or self.goal_progress is None or self.nominal_step is None:
                raise InvalidInputError("line_track spec is missing geometry fields")

    @property
    def state_dim(self):
        return 6 if self.kind == POINT_PUSH else 2

    @property
    def control_dim(self):
        return 2


@dataclass(frozen=True)
class PushGeometry:
    """The point_push constants that step, check_constraint and reached_goal
    read on every call, as Python floats."""

    box: tuple  # (lo_x, lo_y, hi_x, hi_y) of the workspace
    contact: float  # robot_radius + object_radius
    # (cx, cy, robot_reach, object_reach) per region; a reach is radius +
    # robot_radius or radius + object_radius
    keep_out: tuple
    goal: tuple  # (gx, gy, goal_radius)


class DisturbanceStream:
    """Seeded reflected-random-walk generator for the platform offset."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.offset = 0.0

    def increment(self):
        """Advance the platform one step; returns the effective offset change."""
        d = self.spec.disturbance
        if d.process == "none":
            return 0.0
        raw = self.offset + d.amplitude * (1.0 if self.rng.uniform() < 0.5 else -1.0)
        if raw > d.bound:
            raw = 2.0 * d.bound - raw
        elif raw < -d.bound:
            raw = -2.0 * d.bound - raw
        delta = raw - self.offset
        self.offset = raw
        return delta


def robot_pos(state):
    return state[0:2]


def object_pos(state):
    return state[2:4]


def _dist(dx, dy):
    """The norm of the 2-vector (dx, dy): sqrt(dx*dx + dy*dy) in floats."""
    return math.sqrt(dx * dx + dy * dy)


def check_constraint(spec, state):
    """True iff the state violates no constraint (boundary counts as violating):
    a disc meets a region when its distance to the centre is at most the
    region's reach."""
    if spec.kind == POINT_PUSH:
        rx, ry, ox, oy = state.tolist()[:4]
        for cx, cy, robot_reach, object_reach in spec.push.keep_out:
            if _dist(rx - cx, ry - cy) <= robot_reach or _dist(ox - cx, oy - cy) <= object_reach:
                return False
        return True
    return abs(state[1]) < spec.deviation_limit


def reached_goal(spec, state):
    if spec.kind == POINT_PUSH:
        gx, gy, radius = spec.push.goal
        ox, oy = state[2:4].tolist()
        return _dist(ox - gx, oy - gy) <= radius
    return bool(state[0] >= spec.goal_progress)


def dynamics_constant(spec):
    """K with ||next - current|| <= K * ||u|| (disturbance off)."""
    return float(spec.dyn_constant)


def reset(spec, seed):
    """Initial state for one episode; the seed drives start randomization."""
    if spec.kind == POINT_PUSH:
        rng = np.random.default_rng(seed)
        (lo_x, lo_y), (hi_x, hi_y) = spec.object_start_box
        obj = np.array([rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y)])
        state = np.concatenate([np.asarray(spec.robot_start, dtype=float), obj,
                                np.asarray(spec.goal_center, dtype=float)])
        if not check_constraint(spec, state):
            raise InvalidInputError("point_push start geometry violates a constraint region")
        if _dist(*(obj - robot_pos(state)).tolist()) <= spec.push.contact:
            raise InvalidInputError("point_push start has robot and object overlapping")
        return state
    return np.zeros(2)


def _clip_control(spec, u):
    """(u, ux, uy): the control as a float vector, scaled down to norm u_max
    when longer, and its two entries as floats."""
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.control_dim,):
        raise InvalidInputError(f"control must be a finite vector of length {spec.control_dim}")
    ux, uy = u.tolist()
    if not (math.isfinite(ux) and math.isfinite(uy)):
        raise InvalidInputError(f"control must be a finite vector of length {spec.control_dim}")
    norm = _dist(ux, uy)
    if norm > spec.u_max:
        u = u * (spec.u_max / norm)
        ux, uy = u.tolist()
    return u, ux, uy


def step(spec, state, u, stream=None):
    """Apply one control and return the next state; pure given the stream.

    With stream=None the step is disturbance-free and deterministic, which is
    also how simulated probe steps are computed.  The stream, not the state,
    keeps the platform offset.
    """
    u, ux, uy = _clip_control(spec, u)
    if spec.kind == POINT_PUSH:
        geo = spec.push
        lo_x, lo_y, hi_x, hi_y = geo.box
        rx, ry, ox, oy, gx, gy = state.tolist()
        # np.clip's comparisons, in its order, so signed zeros agree too
        rx += ux
        ry += uy
        rx = rx if rx > lo_x else lo_x
        ry = ry if ry > lo_y else lo_y
        rx = rx if rx < hi_x else hi_x
        ry = ry if ry < hi_y else hi_y
        dx = ox - rx
        dy = oy - ry
        dist = _dist(dx, dy)
        depth = geo.contact - dist
        if depth > 0.0:
            if dist > 1e-12:
                nx, ny = dx / dist, dy / dist
            else:  # centers coincide (degenerate); push along the control
                un = _dist(ux, uy)
                nx, ny = (ux / un, uy / un) if un > 0 else (1.0, 0.0)
            ox += depth * nx
            oy += depth * ny
        return np.array((rx, ry, ox, oy, gx, gy))
    delta = stream.increment() if stream is not None else 0.0
    x = state.tolist()
    return np.array((x[0] + ux, x[1] + uy - delta))


def random_state(spec, rng):
    """A uniformly drawn constraint-free state with no disc overlap (for sampling tests)."""
    if spec.kind == POINT_PUSH:
        (lo, hi) = np.asarray(spec.workspace[0]), np.asarray(spec.workspace[1])
        for _ in range(10_000):
            r = rng.uniform(lo, hi)
            o = rng.uniform(lo, hi)
            state = np.concatenate([r, o, np.asarray(spec.goal_center, dtype=float)])
            if not check_constraint(spec, state):
                continue
            if _dist(*(o - r).tolist()) <= spec.push.contact:
                continue
            return state
        raise RuntimeError("rejection sampling failed to find a valid state")
    x = rng.uniform(0.0, spec.goal_progress)
    y = rng.uniform(-spec.deviation_limit, spec.deviation_limit)
    return np.array([x, y])


class EnvHandle:
    """An environment plus its (optional) disturbance stream.

    step advances the real episode and ticks the stream; micro_step applies
    a control with the stream held still.  Both return the next state.
    """

    def __init__(self, spec, stream=None):
        self.spec = spec
        self.stream = stream

    def step(self, state, u):
        return step(self.spec, state, u, stream=self.stream)

    def micro_step(self, state, u):
        """Apply a control disturbance-free, without ticking the stream.

        Recovery iterations run much faster than the horizon clock, so the
        disturbance process (which advances once per horizon step) does not
        tick between them; the oracle's simulated probe steps use it too.
        With no stream attached this is identical to step.
        """
        return step(self.spec, state, u, stream=None)


ENV_FORMAT = "env-spec"


def env_spec_to_document(spec):
    doc = {"format": ENV_FORMAT, "version": 1, "kind": spec.kind,
           "u_max": spec.u_max, "dyn_constant": spec.dyn_constant, "horizon": spec.horizon}
    if spec.kind == POINT_PUSH:
        doc.update({
            "workspace": [list(spec.workspace[0]), list(spec.workspace[1])],
            "robot_radius": spec.robot_radius,
            "object_radius": spec.object_radius,
            "goal_center": list(spec.goal_center),
            "goal_radius": spec.goal_radius,
            "constraint_regions": [[list(c), r] for c, r in spec.constraint_regions],
            "robot_start": list(spec.robot_start),
            "object_start_box": [list(spec.object_start_box[0]), list(spec.object_start_box[1])],
        })
    else:
        doc.update({
            "deviation_limit": spec.deviation_limit,
            "goal_progress": spec.goal_progress,
            "nominal_step": spec.nominal_step,
        })
    d = spec.disturbance
    doc["disturbance"] = {"process": d.process, "amplitude": d.amplitude,
                          "bound": d.bound, "enabled": d.enabled}
    return doc


# The keys a spec document may hold, by kind.  point_push's state_bounds is
# retired: nothing reads it, and documents written with it still load.
_COMMON_KEYS = ("format", "version", "kind", "u_max", "dyn_constant", "horizon", "disturbance")
_KIND_KEYS = {
    POINT_PUSH: ("workspace", "robot_radius", "object_radius", "goal_center", "goal_radius",
                 "constraint_regions", "robot_start", "object_start_box", "state_bounds"),
    LINE_TRACK: ("deviation_limit", "goal_progress", "nominal_step"),
}
_DISTURBANCE_KEYS = ("process", "amplitude", "bound", "enabled")


def env_spec_from_document(doc):
    with malformed("malformed environment spec document"):
        if doc.get("format") != ENV_FORMAT:
            raise InvalidInputError(f"not an environment spec document: {doc.get('format')!r}")
        if doc["kind"] not in _KIND_KEYS:
            raise InvalidInputError(f"unknown environment kind {doc['kind']!r}")
        refuse_unknown_keys("environment spec", doc, _COMMON_KEYS + _KIND_KEYS[doc["kind"]])
        dist = doc.get("disturbance", {})
        if not isinstance(dist, dict):
            raise InvalidInputError(f"environment spec disturbance must be an object, got {dist!r}")
        refuse_unknown_keys("environment spec disturbance", dist, _DISTURBANCE_KEYS)
        enabled = dist.get("enabled", False)
        if not isinstance(enabled, bool):
            raise InvalidInputError(
                f"disturbance.enabled: expected true or false, got {enabled!r}")
        common = dict(
            kind=doc["kind"], u_max=real("u_max", doc["u_max"]),
            dyn_constant=real("dyn_constant", doc["dyn_constant"]), horizon=doc["horizon"],
            disturbance=DisturbanceSpec(
                process=dist.get("process", "none"),
                amplitude=real("disturbance.amplitude", dist.get("amplitude", 0.0)),
                bound=real("disturbance.bound", dist.get("bound", 0.0)),
                enabled=enabled,
            ),
        )
        if doc["kind"] == POINT_PUSH:
            lo, hi = doc["workspace"]
            box_lo, box_hi = doc["object_start_box"]
            return EnvSpec(
                workspace=(_point("workspace", lo), _point("workspace", hi)),
                robot_radius=real("robot_radius", doc["robot_radius"]),
                object_radius=real("object_radius", doc["object_radius"]),
                goal_center=_point("goal_center", doc["goal_center"]),
                goal_radius=real("goal_radius", doc["goal_radius"]),
                constraint_regions=tuple(
                    (_point("constraint_regions", c), real("constraint_regions", r))
                    for c, r in doc["constraint_regions"]),
                robot_start=_point("robot_start", doc["robot_start"]),
                object_start_box=(_point("object_start_box", box_lo),
                                  _point("object_start_box", box_hi)),
                **common,
            )
        return EnvSpec(
            deviation_limit=real("deviation_limit", doc["deviation_limit"]),
            goal_progress=real("goal_progress", doc["goal_progress"]),
            nominal_step=real("nominal_step", doc["nominal_step"]),
            **common,
        )


def _point(name, value):
    """A document's 2-d point as a tuple of two finite floats."""
    x, y = value
    return (real(name, x), real(name, y))


def builtin_env_spec(name):
    """Load one of the two environment specs shipped with the package."""
    if name not in BUILTIN_ENV_NAMES:
        raise InvalidInputError(
            f"unknown environment name {name!r}; expected one of {BUILTIN_ENV_NAMES}"
        )
    data = _resource_files("dfrlab").joinpath(f"data/{name}.json").read_text()
    return env_spec_from_document(json.loads(data))


def load_env_spec(path_or_name):
    """Accepts a builtin environment name or a path to a spec file."""
    if path_or_name in BUILTIN_ENV_NAMES:
        return builtin_env_spec(path_or_name)
    return env_spec_from_document(load_json(path_or_name, "environment spec"))
