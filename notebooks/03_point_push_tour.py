# %% [markdown]
# # A tour of the pushing environment
#
# point_push is a planar quasi-static world: a disc robot pushes a disc
# object toward a goal region between two keep-out discs.  The state is an
# array of six numbers (robot, object, goal positions); motion happens only
# while the robot commands it, and one step can move the state by at most
# twice the commanded control norm (robot motion plus an equal object push).

# %%
import numpy as np

from dfrlab.envs import (
    builtin_env_spec,
    check_constraint,
    object_pos,
    reached_goal,
    reset,
    robot_pos,
    step,
)
from dfrlab.supervisor import generate_demos, supervisor_action

spec = builtin_env_spec("point_push")
print(f"u_max={spec.u_max}, horizon={spec.horizon}, goal={spec.goal_center} r={spec.goal_radius}")
print(f"keep-out discs: {spec.constraint_regions}")

# %% [markdown]
# ## Contact is a hard projection
#
# When the robot disc would overlap the object disc, the object is pushed
# out along the line of centers by exactly the overlap depth.  Head-on
# contact therefore transfers motion one-to-one.

# %%
state = np.array([0.42, 0.5, 0.5, 0.5, 0.8, 0.5])
nxt = step(spec, state, np.array([0.02, 0.0]))
print(f"robot  {robot_pos(state)} -> {robot_pos(nxt)}")
print(f"object {object_pos(state)} -> {object_pos(nxt)}  (pushed 0.02)")

# %% [markdown]
# ## The scripted supervisor
#
# Demonstrations come from a scripted pusher: it walks around the object to
# a pushing position behind it, then pushes along the object-to-goal line,
# steering wide of the keep-out discs.  Every demo must end with the object
# in the goal and no constraint contact anywhere.

# %%
demos = generate_demos(spec, 20, seed=5)
lengths = [len(t.states) for t in demos.trajectories]
print(f"20/20 completed: {all(t.outcome == 'completed' for t in demos.trajectories)}")
print(f"episode lengths: min {min(lengths)}, max {max(lengths)} (horizon {spec.horizon})")

# %%
# one full episode, drawn in ASCII: R robot path, O object path, X keep-out
traj = demos.trajectories[0]
W = 56
H = 24
grid = [[" "] * W for _ in range(H)]


def put(x, y, ch):
    col = int(round(x * (W - 1)))
    row = int(round((1.0 - y) * (H - 1)))
    if 0 <= row < H and 0 <= col < W:
        grid[row][col] = ch


for (cx, cy), r in spec.constraint_regions:
    for a in np.linspace(0, 2 * np.pi, 60):
        put(cx + r * np.cos(a), cy + r * np.sin(a), "X")
for a in np.linspace(0, 2 * np.pi, 60):
    put(spec.goal_center[0] + spec.goal_radius * np.cos(a),
        spec.goal_center[1] + spec.goal_radius * np.sin(a), "+")
for vec in traj.states:
    put(vec[0], vec[1], "R")
    put(vec[2], vec[3], "O")
print("\n".join("".join(row) for row in grid))

# %% [markdown]
# ## Start randomization
#
# Resets draw the object inside a start box left of the keep-out gap; the
# robot always starts at the west wall.  This is the only randomness in the
# environment itself (the rest comes from controllers and, for the tracking
# environment, the platform drift).

# %%
starts = np.stack([reset(spec, s) for s in range(200)])
print("object start x range:", starts[:, 2].min().round(3), "-", starts[:, 2].max().round(3))
print("object start y range:", starts[:, 3].min().round(3), "-", starts[:, 3].max().round(3))
print("robot start fixed at:", starts[0, :2])
