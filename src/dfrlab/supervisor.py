"""Scripted demonstrators and demonstration-set I/O.

The PointPush supervisor is a waypoint controller: swing behind the object
(skirting the object and any keep-out region), then push it toward the goal,
re-aligning whenever contact drifts.  When the straight object-to-goal
segment would cut through a keep-out region, the push aims at a bypass point
on the clear side of that region instead, so demonstrations bend around
obstacles with a comfortable margin.  The LineTrack supervisor is
deliberately open loop: advance along the line at a fixed step with no
lateral correction, so the demonstrations contain no feedback behavior.
The PointPush supervisor computes in Python floats: its norms are
envs._dist and its dot products ax*bx + ay*by, so a demo set depends on
no BLAS kernel.

generate_demos rolls out one demonstration at a time, through the same
supervisor_action, step and predicates that rollouts call.

Demo sets are stored as line-delimited JSON, one trajectory per line with
fields in the order (seed, outcome, states, controls).  The format is
append-only: extending a file with more lines yields a valid larger set.
"""

import json
import math

import numpy as np

from . import envs
from .envs import POINT_PUSH, _dist, reset, step
from .errors import InvalidInputError
from .support import DemoSet, Trajectory
from .util import atomic_write_text, float_list, malformed

# PointPush waypoint tuning
_STANDOFF = 0.02          # extra gap between robot and object at the approach waypoint
_CAPTURE_LATERAL = 0.04   # max lateral offset from the push axis to press rather than swing
_CAPTURE_SLACK = 0.03     # how far beyond contact distance still counts as captured
_REGION_CLEARANCE_RADII = 2.0  # approach keeps this many robot radii clear of regions
_PUSH_CLEARANCE = 0.055   # object-path margin beyond the collision distance
_DEFLECT_GAIN = 2.5       # strength of the push deflection away from a blocking region


def _over(x, y, n):
    """(x, y) divided by its norm n, or (1, 0) when n is too small."""
    return (x / n, y / n) if n > 1e-12 else (1.0, 0.0)


def _unit(x, y):
    return _over(x, y, _dist(x, y))


def _push_direction(spec, ox, oy, gx, gy):
    """Unit direction to push the object: at the goal, or bent around a region.

    When the straight object-to-goal segment passes within the collision
    distance plus _PUSH_CLEARANCE of a keep-out region, blend in a deflection
    toward the workspace-center side of that region, scaled by the clearance
    deficit.  The deflection side is fixed per region rather than chosen by
    approach angle, so every demonstration rounds a given region on the same
    side; supports fitted to the demos then leave the region itself empty."""
    dist_goal = _dist(gx - ox, gy - oy)
    d0x, d0y = _over(gx - ox, gy - oy, dist_goal)
    dx, dy = d0x, d0y
    for cx, cy, _, object_reach in spec.push.keep_out:
        cleared = object_reach + _PUSH_CLEARANCE
        along = (cx - ox) * d0x + (cy - oy) * d0y
        if along <= 0.0 or along >= dist_goal + cleared:
            continue
        s = min(along, dist_goal)
        perp = _dist(ox + s * d0x - cx, oy + s * d0y - cy)
        if perp >= cleared:
            continue
        deficit = (cleared - perp) / cleared
        sx, sy = _unit(0.5 - cx, 0.5 - cy)
        k = _DEFLECT_GAIN * deficit
        dx, dy = dx + k * sx, dy + k * sy
    return _unit(dx, dy)


def _point_push_rule(spec, rx, ry, ox, oy, gx, gy):
    """The point_push control for one state, as a 2-tuple of floats."""
    if _dist(ox - gx, oy - gy) <= spec.goal_radius:
        return 0.0, 0.0
    dx, dy = _push_direction(spec, ox, oy, gx, gy)
    contact = spec.push.contact
    relx, rely = rx - ox, ry - oy
    behind_dist = relx * -dx + rely * -dy
    # rel's component along the push axis, behind the object
    bx, by = behind_dist * -dx, behind_dist * -dy
    captured = (
        behind_dist > 0.0
        and _dist(relx - bx, rely - by) <= _CAPTURE_LATERAL
        and _dist(relx, rely) <= contact + _STANDOFF + _CAPTURE_SLACK
    )
    if captured:
        # Press forward while sliding back onto the push axis: the lateral
        # error is cancelled exactly (no overshoot) and the rest of the
        # control budget presses into the object, which contact absorbs.
        lat_x, lat_y = bx - relx, by - rely
        lat = _dist(lat_x, lat_y)
        if lat >= spec.u_max:
            ux, uy = _unit(lat_x, lat_y)
            return spec.u_max * ux, spec.u_max * uy
        forward = math.sqrt(spec.u_max**2 - lat**2)
        return lat_x + forward * dx, lat_y + forward * dy

    standoff = contact + _STANDOFF
    to_wx, to_wy = ox - dx * standoff - rx, oy - dy * standoff - ry
    dist_w = _dist(to_wx, to_wy)
    dir_x, dir_y = _over(to_wx, to_wy, dist_w)
    # If the straight line to the waypoint cuts through the object, slide
    # around it tangentially instead of pushing it by accident.
    to_ox, to_oy = ox - rx, oy - ry
    near = _dist(to_ox, to_oy)
    if near < standoff + 0.01 and behind_dist < contact - 1e-9:
        ux, uy = _over(to_ox, to_oy, near)
        if dir_x * ux + dir_y * uy > 0.3:  # heading into the object
            m = max(near, 1e-12)
            tx, ty = -to_oy / m, to_ox / m
            if tx * to_wx + ty * to_wy < 0:
                tx, ty = -tx, -ty
            dir_x, dir_y = _unit(0.3 * dir_x + tx, 0.3 * dir_y + ty)
            dist_w = spec.u_max  # keep moving at full step while circling
    # Repulsion from keep-out regions: stay 2 robot radii clear on approach.
    margin = _REGION_CLEARANCE_RADII * spec.robot_radius
    for cx, cy, robot_reach, _ in spec.push.keep_out:
        ax, ay = rx - cx, ry - cy
        dist_c = _dist(ax, ay)
        if dist_c - robot_reach < margin:
            weight = (margin - (dist_c - robot_reach)) / margin
            ux, uy = _over(ax, ay, dist_c)
            k = 2.0 * weight
            dir_x, dir_y = _unit(dir_x + k * ux, dir_y + k * uy)
    s = min(spec.u_max, dist_w)
    return s * dir_x, s * dir_y


def _point_push_action(spec, state):
    return np.array(_point_push_rule(spec, *state.tolist()))


def _line_track_action(spec, state):
    if state[0] >= spec.goal_progress:
        return np.zeros(2)
    return np.array([spec.nominal_step, 0.0])


def supervisor_action(spec, state):
    """Deterministic scripted control for one state."""
    if spec.kind == POINT_PUSH:
        return _point_push_action(spec, state)
    return _line_track_action(spec, state)


def generate_demos(spec, n, seed, jitter_sigma=0.0):
    """Roll out the supervisor n times (disturbance off) and collect demos.

    Every start is reset first, so a start that reset refuses fails the set
    before any rollout runs.  Then each demo in turn is rolled out through
    supervisor_action and step, drawing its jitter, in step order, from its
    own generator.  Without jitter, a demo whose next state has the same
    bytes as its state has reached a fixed point: the supervisor and the
    stream-free step are pure, so its later states and controls repeat, and
    they are filled in without being stepped.  (Bytes, not ==, which takes
    -0.0 for 0.0.)

    Every rollout must reach the goal within the horizon without touching a
    constraint region; anything else is an input error (of the jitter or the
    environment spec) rather than a silently dropped trajectory, and names
    the first failing demo, its seed and step.  jitter_sigma > 0 adds
    Gaussian control noise, widening the demonstrated support.
    """
    if n < 1:
        raise InvalidInputError(f"need at least one demonstration, got n={n}")
    if seed < 0:
        raise InvalidInputError(f"demo seed must be non-negative, got {seed}")
    if not 0.0 <= jitter_sigma < math.inf:
        raise InvalidInputError(f"jitter sigma must be finite and >= 0, got {jitter_sigma}")
    root = np.random.default_rng(seed)
    traj_seeds = [int(s) for s in root.integers(0, 2**62, size=n)]
    streams = [np.random.SeedSequence(tseed).spawn(2) for tseed in traj_seeds]
    horizon = spec.horizon
    states = np.empty((n, horizon + 1, spec.state_dim))
    controls = np.empty((n, horizon, spec.control_dim))
    for k, (reset_seq, _) in enumerate(streams):
        states[k, 0] = reset(spec, reset_seq)
    for k, (tseed, (_, jitter_seq)) in enumerate(zip(traj_seeds, streams)):
        if jitter_sigma > 0.0:
            noise = np.random.default_rng(jitter_seq).normal(0.0, jitter_sigma, size=(horizon, 2))
        x = states[k, 0]
        reached = False
        for t in range(horizon):
            u = supervisor_action(spec, x)
            if jitter_sigma > 0.0:
                u = envs._clip_control(spec, u + noise[t])[0]
            x_next = step(spec, x, u)
            if not envs.check_constraint(spec, x_next):
                raise InvalidInputError(
                    f"supervisor rollout {k} (seed {tseed}) touched a constraint "
                    f"region at step {t} with jitter sigma={jitter_sigma:g}; lower "
                    "the jitter or fix the environment spec"
                )
            reached = reached or envs.reached_goal(spec, x_next)
            states[k, t + 1] = x_next
            controls[k, t] = u
            if jitter_sigma == 0.0 and x_next.tobytes() == x.tobytes():
                states[k, t + 2:] = x
                controls[k, t + 1:] = u
                break
            x = x_next
        if not reached:
            raise InvalidInputError(
                f"supervisor rollout {k} (seed {tseed}) did not reach the goal "
                f"within horizon {horizon} with jitter sigma={jitter_sigma:g}"
            )
    trajectories = [
        Trajectory(states=states[k], controls=controls[k], seed=tseed, outcome="completed")
        for k, tseed in enumerate(traj_seeds)
    ]
    demos = DemoSet(trajectories=trajectories)
    _check_slice_variance(spec, demos, jitter_sigma)
    return demos


def demo_prefix(spec, demos, n, jitter_sigma=0.0):
    """generate_demos(spec, n, seed, jitter_sigma), taken from the set demos
    that generate_demos made with the same seed and jitter and at least n
    trajectories.

    Demo sets are nested: trajectory k's seed is the k-th draw of the seed's
    generator, and its rollout depends on nothing else, so the first n
    trajectories of a larger set are the set of n.  The prefix gets the same
    zero-variance check that generate_demos gives a set of its own.
    """
    if not 1 <= n <= len(demos):
        raise InvalidInputError(f"need 1 <= n <= {len(demos)} for a prefix, got n={n}")
    prefix = DemoSet(trajectories=demos.trajectories[:n])
    _check_slice_variance(spec, prefix, jitter_sigma)
    return prefix


def _check_slice_variance(spec, demos, jitter_sigma):
    if spec.kind != POINT_PUSH:
        return
    for t in range(demos.horizon):
        if np.var(demos.states_at(t), axis=0).max() <= 0.0:
            raise InvalidInputError(
                f"demonstration time slice {t} has zero variance in every "
                f"coordinate at jitter sigma={jitter_sigma:g}; the start "
                "distribution gives no diversity"
            )


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
    """The demo set in the file at path.  An error names the path, and the
    1-based number of the line it is about, if it is about one."""
    trajectories = []
    number = None
    try:
        with open(path) as fh, malformed("malformed demo record"):
            for number, line in enumerate(fh, 1):
                if line.strip():
                    rec = json.loads(line)
                    trajectories.append(
                        Trajectory(
                            states=np.asarray(rec["states"], dtype=float),
                            controls=np.asarray(rec["controls"], dtype=float),
                            seed=rec.get("seed"),
                            outcome=rec.get("outcome"),
                        )
                    )
            number = None  # every line is read: what fails next is about the file
        if not trajectories:
            raise InvalidInputError("contains no trajectories")
        return DemoSet(trajectories=trajectories)
    except OSError as exc:
        raise InvalidInputError(f"cannot read demo file {path}: {exc}") from exc
    except InvalidInputError as exc:
        line = "" if number is None else f", line {number}"
        raise InvalidInputError(f"demo file {path}{line}: {exc}") from exc
