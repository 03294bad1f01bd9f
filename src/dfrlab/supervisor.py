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

supervisor_action serves one state (rollouts and the supervisor arm);
supervisor_actions is the same rule over the rows of an (n, d) state
array, bit for bit, and generate_demos advances all n demonstrations of a
set together through it and the env's batch kernels.

Demo sets are stored as line-delimited JSON, one trajectory per line with
fields in the order (seed, outcome, states, controls).  The format is
append-only: extending a file with more lines yields a valid larger set.
"""

import json
import math

import numpy as np

from . import envs
from .envs import (
    LINE_TRACK,
    POINT_PUSH,
    _dist,
    _dists,
    reset,
    step,  # not called here; perfbench/tracer.py wraps supervisor.step
)
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


def _point_push_action(spec, state):
    rx, ry, ox, oy, gx, gy = state.tolist()
    if _dist(ox - gx, oy - gy) <= spec.goal_radius:
        return np.zeros(2)
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
            return np.array((spec.u_max * ux, spec.u_max * uy))
        forward = math.sqrt(spec.u_max**2 - lat**2)
        return np.array((lat_x + forward * dx, lat_y + forward * dy))

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
    return np.array((s * dir_x, s * dir_y))


def _line_track_action(spec, state):
    if state[0] >= spec.goal_progress:
        return np.zeros(2)
    return np.array([spec.nominal_step, 0.0])


def supervisor_action(spec, state):
    """Deterministic scripted control for one state."""
    if spec.kind == POINT_PUSH:
        return _point_push_action(spec, state)
    if spec.kind == LINE_TRACK:
        return _line_track_action(spec, state)
    raise InvalidInputError(f"no supervisor for environment kind {spec.kind!r}")


# Batch forms of the supervisors, over the rows of an (n, d) state array.
# As with the env's batch kernels, each equals the scalar supervisor row for
# row, bit for bit: a branch that some row takes is computed for every row,
# np.where keeps its value where the scalar code would take it, and every
# division is guarded so that a row the branch does not select cannot warn.


def _over_rows(x, y, n):
    """_over for each row."""
    big = n > 1e-12
    n = np.where(big, n, 1.0)
    return np.where(big, x / n, 1.0), np.where(big, y / n, 0.0)


def _unit_rows(x, y):
    return _over_rows(x, y, _dists(x, y))


def _push_direction_rows(spec, ox, oy, gx, gy):
    """_push_direction for each row."""
    dist_goal = _dists(gx - ox, gy - oy)
    d0x, d0y = _over_rows(gx - ox, gy - oy, dist_goal)
    dx, dy = d0x, d0y
    for cx, cy, _, object_reach in spec.push.keep_out:
        cleared = object_reach + _PUSH_CLEARANCE
        along = (cx - ox) * d0x + (cy - oy) * d0y
        s = np.where(dist_goal < along, dist_goal, along)  # min(along, dist_goal)
        perp = _dists(ox + s * d0x - cx, oy + s * d0y - cy)
        bent = ~((along <= 0.0) | (along >= dist_goal + cleared) | (perp >= cleared))
        if not bent.any():
            continue
        deficit = (cleared - perp) / cleared
        sx, sy = _unit(0.5 - cx, 0.5 - cy)
        k = _DEFLECT_GAIN * deficit
        dx, dy = np.where(bent, dx + k * sx, dx), np.where(bent, dy + k * sy, dy)
    return _unit_rows(dx, dy)


def _point_push_actions(spec, X):
    """_point_push_action for each row of X."""
    rx, ry, ox, oy, gx, gy = X.T
    at_goal = _dists(ox - gx, oy - gy) <= spec.goal_radius
    dx, dy = _push_direction_rows(spec, ox, oy, gx, gy)
    contact = spec.push.contact
    relx, rely = rx - ox, ry - oy
    behind_dist = relx * -dx + rely * -dy
    bx, by = behind_dist * -dx, behind_dist * -dy
    captured = (
        (behind_dist > 0.0)
        & (_dists(relx - bx, rely - by) <= _CAPTURE_LATERAL)
        & (_dists(relx, rely) <= contact + _STANDOFF + _CAPTURE_SLACK)
    )
    standoff = contact + _STANDOFF
    to_wx, to_wy = ox - dx * standoff - rx, oy - dy * standoff - ry
    dist_w = _dists(to_wx, to_wy)
    dir_x, dir_y = _over_rows(to_wx, to_wy, dist_w)
    to_ox, to_oy = ox - rx, oy - ry
    near = _dists(to_ox, to_oy)
    ux, uy = _over_rows(to_ox, to_oy, near)
    circling = ((near < standoff + 0.01) & (behind_dist < contact - 1e-9)
                & (dir_x * ux + dir_y * uy > 0.3))
    if circling.any():
        m = np.where(1e-12 > near, 1e-12, near)  # max(near, 1e-12)
        tx, ty = -to_oy / m, to_ox / m
        flip = tx * to_wx + ty * to_wy < 0
        tx, ty = np.where(flip, -tx, tx), np.where(flip, -ty, ty)
        circle_x, circle_y = _unit_rows(0.3 * dir_x + tx, 0.3 * dir_y + ty)
        dir_x, dir_y = np.where(circling, circle_x, dir_x), np.where(circling, circle_y, dir_y)
        dist_w = np.where(circling, spec.u_max, dist_w)
    margin = _REGION_CLEARANCE_RADII * spec.robot_radius
    for cx, cy, robot_reach, _ in spec.push.keep_out:
        ax, ay = rx - cx, ry - cy
        dist_c = _dists(ax, ay)
        repelled = dist_c - robot_reach < margin
        if not repelled.any():
            continue
        weight = (margin - (dist_c - robot_reach)) / margin
        ux, uy = _over_rows(ax, ay, dist_c)
        k = 2.0 * weight
        away_x, away_y = _unit_rows(dir_x + k * ux, dir_y + k * uy)
        dir_x, dir_y = np.where(repelled, away_x, dir_x), np.where(repelled, away_y, dir_y)
    s = np.where(dist_w < spec.u_max, dist_w, spec.u_max)  # min(spec.u_max, dist_w)

    act_x, act_y = s * dir_x, s * dir_y
    if captured.any():
        lat_x, lat_y = bx - relx, by - rely
        lat = _dists(lat_x, lat_y)
        capped = lat >= spec.u_max
        cap_x, cap_y = _unit_rows(lat_x, lat_y)
        # The scalar squares lat with Python's float **, which is libm's pow:
        # it rounds differently from lat * lat (and from np.power(lat, 2),
        # which squares) in about one case in 1,200; np.float_power calls pow.
        forward = np.sqrt(np.where(capped, 0.0, spec.u_max**2 - np.float_power(lat, 2.0)))
        press_x = np.where(capped, spec.u_max * cap_x, lat_x + forward * dx)
        press_y = np.where(capped, spec.u_max * cap_y, lat_y + forward * dy)
        act_x, act_y = np.where(captured, press_x, act_x), np.where(captured, press_y, act_y)
    return np.column_stack((np.where(at_goal, 0.0, act_x), np.where(at_goal, 0.0, act_y)))


def _line_track_actions(spec, X):
    done = X[:, 0] >= spec.goal_progress
    return np.column_stack((np.where(done, 0.0, spec.nominal_step), np.zeros(len(X))))


def supervisor_actions(spec, X):
    """supervisor_action(spec, x) for each row x of X, as an (n, 2) array."""
    if spec.kind == POINT_PUSH:
        return _point_push_actions(spec, X)
    if spec.kind == LINE_TRACK:
        return _line_track_actions(spec, X)
    raise InvalidInputError(f"no supervisor for environment kind {spec.kind!r}")


def generate_demos(spec, n, seed, jitter_sigma=0.0):
    """Roll out the supervisor n times (disturbance off) and collect demos.

    The n rollouts advance in lockstep, as the rows of one (n, d) state
    array, one call per horizon step to each batch kernel; each kernel
    equals its scalar function row for row, so the set is the one that n
    scalar rollouts in demo order give.  Each demo draws its start, and
    its jitter in step order, from its own generators.

    Every rollout must reach the goal within the horizon without touching a
    constraint region; anything else is an input error (of the jitter or the
    environment spec) rather than a silently dropped trajectory, and names
    the first failing demo, its seed and step, as one rollout at a time
    would.  A start that reset refuses fails the set before any rollout.
    jitter_sigma > 0 adds Gaussian control noise, widening the demonstrated
    support.
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
    x = np.stack([reset(spec, reset_seq) for reset_seq, _ in streams])
    if jitter_sigma > 0.0:
        # each demo's draws, in step order, from its own generator
        noise = np.stack([np.random.default_rng(jitter_seq).normal(0.0, jitter_sigma,
                                                                    size=(horizon, 2))
                          for _, jitter_seq in streams], axis=1)
    states = np.empty((n, horizon + 1, spec.state_dim))
    controls = np.empty((n, horizon, spec.control_dim))
    states[:, 0] = x
    touched = np.full(n, horizon)  # each demo's first step in a region; horizon if none
    reached = np.zeros(n, dtype=bool)
    for t in range(horizon):
        u = supervisor_actions(spec, x)
        if jitter_sigma > 0.0:
            u = envs.clip_control_batch(spec, u + noise[t])
        x = envs.step_batch(spec, x, u)
        touched = np.where(envs.check_constraint_batch(spec, x), touched,
                           np.minimum(touched, t))
        reached |= envs.reached_goal_batch(spec, x)
        states[:, t + 1] = x
        controls[:, t] = u
    # The first failing demo fails the set, as it would one demo at a time.
    failed = (touched < horizon) | ~reached
    if failed.any():
        k = int(np.argmax(failed))
        if touched[k] < horizon:
            raise InvalidInputError(
                f"supervisor rollout {k} (seed {traj_seeds[k]}) touched a constraint "
                f"region at step {touched[k]} with jitter sigma={jitter_sigma:g}; lower "
                "the jitter or fix the environment spec"
            )
        raise InvalidInputError(
            f"supervisor rollout {k} (seed {traj_seeds[k]}) did not reach the goal "
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
