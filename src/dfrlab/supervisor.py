"""Scripted demonstrators and demonstration-set I/O.

The PointPush supervisor is a waypoint controller: swing behind the object
(skirting the object and any keep-out region), then push it toward the goal,
re-aligning whenever contact drifts.  When the straight object-to-goal
segment would cut through a keep-out region, the push aims at a bypass point
on the clear side of that region instead, so demonstrations bend around
obstacles with a comfortable margin.  The LineTrack supervisor is
deliberately open loop: advance along the line at a fixed step with no
lateral correction, so the demonstrations contain no feedback behavior.

Demo sets are stored as line-delimited JSON, one trajectory per line with
fields in the order (seed, outcome, states, controls).  The format is
append-only: extending a file with more lines yields a valid larger set.
"""

import json

import numpy as np

from .envs import (
    LINE_TRACK,
    POINT_PUSH,
    _clip_control,
    goal_pos,
    object_pos,
    reset,
    robot_pos,
    step,
)
from .errors import InvalidInputError
from .support import DemoSet, Trajectory
from .util import atomic_write_text, float_list, malformed

# PointPush waypoint tuning
_STANDOFF = 0.02          # extra gap between robot and object at the approach waypoint
_CAPTURE_LATERAL = 0.04   # max lateral offset from the push axis to press rather than swing
_CAPTURE_SLACK = 0.03     # how far beyond contact distance still counts as captured
_REGION_MARGIN_FACTOR = 2.0  # approach keeps this many robot radii clear of regions
_PUSH_CLEARANCE = 0.055   # object-path margin beyond the collision distance
_DEFLECT_GAIN = 2.5       # strength of the push deflection away from a blocking region


def _unit(v):
    n = float(np.linalg.norm(v))
    return v / n if n > 1e-12 else np.array([1.0, 0.0])


def _push_direction(spec, o, goal):
    """Unit direction to push the object: at the goal, or bent around a region.

    When the straight object-to-goal segment passes within the collision
    distance plus _PUSH_CLEARANCE of a keep-out region, blend in a deflection
    toward the workspace-center side of that region, scaled by the clearance
    deficit.  The deflection side is fixed per region rather than chosen by
    approach angle, so every demonstration rounds a given region on the same
    side; supports fitted to the demos then leave the region itself empty."""
    d0 = _unit(goal - o)
    dist_goal = float(np.linalg.norm(goal - o))
    d = d0.copy()
    for (cx, cy), radius in spec.constraint_regions:
        c = np.array([cx, cy])
        cleared = radius + spec.object_radius + _PUSH_CLEARANCE
        along = float((c - o) @ d0)
        if along <= 0.0 or along >= dist_goal + cleared:
            continue
        closest = o + min(along, dist_goal) * d0
        perp = float(np.linalg.norm(closest - c))
        if perp >= cleared:
            continue
        deficit = (cleared - perp) / cleared
        side = np.array([0.5, 0.5]) - c
        d = d + _DEFLECT_GAIN * deficit * _unit(side)
    return _unit(d)


def _point_push_action(spec, state):
    r = robot_pos(state)
    o = object_pos(state)
    goal = goal_pos(state)
    if np.linalg.norm(o - goal) <= spec.goal_radius:
        return np.zeros(2)
    d = _push_direction(spec, o, goal)
    contact = spec.robot_radius + spec.object_radius
    rel = r - o
    dist = float(np.linalg.norm(rel))
    behind_dist = float(rel @ (-d))
    lateral = float(np.linalg.norm(rel - behind_dist * (-d)))
    captured = (
        behind_dist > 0.0
        and lateral <= _CAPTURE_LATERAL
        and dist <= contact + _STANDOFF + _CAPTURE_SLACK
    )
    if captured:
        # Press forward while sliding back onto the push axis: the lateral
        # error is cancelled exactly (no overshoot) and the rest of the
        # control budget presses into the object, which contact absorbs.
        lat_vec = behind_dist * (-d) - rel
        lat = float(np.linalg.norm(lat_vec))
        if lat >= spec.u_max:
            return spec.u_max * _unit(lat_vec)
        forward = float(np.sqrt(spec.u_max**2 - lat**2))
        return lat_vec + forward * d

    waypoint = o - d * (contact + _STANDOFF)
    to_w = waypoint - r
    dist_w = float(np.linalg.norm(to_w))
    direction = _unit(to_w)
    # If the straight line to the waypoint cuts through the object, slide
    # around it tangentially instead of pushing it by accident.
    to_o = o - r
    dist_o = float(np.linalg.norm(to_o))
    head_on = float(direction @ _unit(to_o))
    if dist_o < contact + _STANDOFF + 0.01 and head_on > 0.3 and behind_dist < contact - 1e-9:
        tangent = np.array([-to_o[1], to_o[0]]) / max(dist_o, 1e-12)
        if float(tangent @ to_w) < 0:
            tangent = -tangent
        direction = _unit(0.3 * direction + tangent)
        dist_w = spec.u_max  # keep moving at full step while circling
    # Repulsion from keep-out regions: stay 2 robot radii clear on approach.
    for (cx, cy), radius in spec.constraint_regions:
        c = np.array([cx, cy])
        away = r - c
        gap = float(np.linalg.norm(away)) - (radius + spec.robot_radius)
        margin = _REGION_MARGIN_FACTOR * spec.robot_radius
        if gap < margin:
            weight = (margin - gap) / margin
            direction = _unit(direction + 2.0 * weight * _unit(away))
    return min(spec.u_max, dist_w) * direction


def _line_track_action(spec, state):
    if state.vec[0] >= spec.goal_progress:
        return np.zeros(2)
    return np.array([spec.nominal_step, 0.0])


def supervisor_action(spec, state):
    """Deterministic scripted control for one state."""
    if spec.kind == POINT_PUSH:
        return _point_push_action(spec, state)
    if spec.kind == LINE_TRACK:
        return _line_track_action(spec, state)
    raise InvalidInputError(f"no supervisor for environment kind {spec.kind!r}")


def generate_demos(spec, n, seed, jitter_sigma=0.0):
    """Roll out the supervisor n times (disturbance off) and collect demos.

    Every rollout must reach the goal within the horizon without touching a
    constraint region; anything else aborts with a diagnostic rather than
    silently dropping the trajectory.  jitter_sigma > 0 adds Gaussian control
    noise, widening the demonstrated support.
    """
    if n < 1:
        raise InvalidInputError(f"need at least one demonstration, got n={n}")
    root = np.random.default_rng(seed)
    traj_seeds = [int(s) for s in root.integers(0, 2**62, size=n)]
    trajectories = []
    for k, tseed in enumerate(traj_seeds):
        reset_seq, jitter_seq = np.random.SeedSequence(tseed).spawn(2)
        state = reset(spec, reset_seq)
        jitter_rng = np.random.default_rng(jitter_seq)
        states = [state.vec.copy()]
        controls = []
        reached = False
        for t in range(spec.horizon):
            u = supervisor_action(spec, state)
            if jitter_sigma > 0.0:
                u = _clip_control(spec, u + jitter_rng.normal(0.0, jitter_sigma, size=2))
            res = step(spec, state, u, stream=None)
            if res.collided:
                raise RuntimeError(
                    f"supervisor rollout {k} (seed {tseed}) touched a constraint "
                    f"region at step {t}; fix the supervisor or the geometry"
                )
            reached = reached or res.reached_goal
            state = res.next_state
            states.append(state.vec.copy())
            controls.append(np.asarray(u, dtype=float))
        if not reached:
            raise RuntimeError(
                f"supervisor rollout {k} (seed {tseed}) did not reach the goal "
                f"within horizon {spec.horizon}"
            )
        trajectories.append(
            Trajectory(
                states=np.stack(states),
                controls=np.stack(controls),
                seed=tseed,
                outcome="completed",
            )
        )
    demos = DemoSet(trajectories=trajectories)
    if spec.kind == POINT_PUSH:
        for t in range(demos.horizon):
            if np.var(demos.states_at(t), axis=0).max() <= 0.0:
                raise RuntimeError(
                    f"demonstration time slice {t} has zero variance in every "
                    "coordinate; the start distribution gives no diversity"
                )
    return demos


def save_demos(demos, path):
    """Write one JSON record per line: seed, outcome, states, controls."""
    lines = []
    for traj in demos.trajectories:
        record = {
            "seed": traj.seed,
            "outcome": traj.outcome,
            "states": float_list(traj.states),
            "controls": float_list(traj.controls),
        }
        lines.append(json.dumps(record, allow_nan=False))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_demos(path):
    trajectories = []
    try:
        with open(path) as fh, malformed(f"malformed demo record in {path}"):
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                trajectories.append(
                    Trajectory(
                        states=np.asarray(rec["states"], dtype=float),
                        controls=np.asarray(rec["controls"], dtype=float),
                        seed=rec.get("seed"),
                        outcome=rec.get("outcome"),
                    )
                )
    except OSError as exc:
        raise InvalidInputError(f"cannot read demo file {path}: {exc}") from exc
    if not trajectories:
        raise InvalidInputError(f"demo file {path} contains no trajectories")
    return DemoSet(trajectories=trajectories)
