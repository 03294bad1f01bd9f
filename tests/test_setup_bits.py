"""The set-up path against array forms of the same arithmetic, bit for bit.

train_ocsvm's two-coordinate loop keeps its alphas as Python floats and its
bound masks as penalty arrays updated at the two moved coordinates, the
policy's farthest-point pass sums squared distances over a column-wise copy
of the states, and the point_push supervisor computes with Python floats.
The references below are the straightforward array forms of the same rules:
full masks rebuilt with np.where every iteration and the second-order pair
rule written out, np.linalg.norm over the state rows, and numpy 2-vectors,
whose norms and dot products are np.sqrt((v * v).sum()) and (a * b).sum():
numpy's own loops, with no BLAS call that could fuse a multiply and an add.
Every model, every centre set and every control must come out with
identical bits, so fitted supports, policies and demo sets depend only on
the rules, not on how the loops are written or on the BLAS kernel.

supervisor_actions, which applies the per-state rule to each row, and the
env's batch kernels, which generate_demos advances a demo set through, are
checked against the scalar functions row for row, and the lockstep
generator against one scalar rollout per demo, written out below as the
reference: same sets, same errors.
"""

import dataclasses
from importlib.resources import files
import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dfrlab import kernel_ocsvm
from dfrlab.controllers import _farthest_point_indices, empirical_loss, fit_policy
from dfrlab.envs import (
    _clip_control,
    builtin_env_spec,
    check_constraint,
    check_constraint_batch,
    clip_control_batch,
    reached_goal,
    reached_goal_batch,
    reset,
    step,
    step_batch,
)
from dfrlab.errors import InvalidInputError, SolverNonConvergenceError
from dfrlab.harness import load_experiment_config
from dfrlab.kernel_ocsvm import (
    KernelParams,
    OcsvmParams,
    _alpha_init,
    _degenerate_model,
    _finalize_model,
    _KernelRows,
    _validate_training_points,
    train_ocsvm,
)
from dfrlab.supervisor import (
    _CAPTURE_LATERAL,
    _CAPTURE_SLACK,
    _DEFLECT_GAIN,
    _PUSH_CLEARANCE,
    _REGION_CLEARANCE_RADII,
    _STANDOFF,
    demo_prefix,
    generate_demos,
    supervisor_action,
    supervisor_actions,
)
from dfrlab.support import Trajectory


# ---------------------------------------------------------------------------
# reference dual solver


def ref_train_ocsvm(points, params, box_hits=None):
    """train_ocsvm with array alphas, masks rebuilt every iteration and the
    second-order pair rule written out in full.

    box_hits, when given, gets one entry per step that hit the box."""
    X = _validate_training_points(points, params.nu)
    m = X.shape[0]
    if np.ptp(X, axis=0).max() == 0.0:
        return _degenerate_model(X, params)
    C = 1.0 / (params.nu * m)
    rows = _KernelRows(X, params.kernel.gamma)
    alpha = _alpha_init(m, C)
    grad = np.zeros(m)
    for j in np.flatnonzero(alpha):
        grad += alpha[j] * rows.row(j)

    # the kernel's own diagonal; the row-cache path has no dense matrix,
    # and there k(x, x) = exp(0) = 1
    diag = np.ones(m) if rows.full is None else rows.full.diagonal()
    bound_slack = C * 1e-12
    iterations = 0
    while True:
        up = alpha < C - bound_slack
        down = alpha > bound_slack
        i = int(np.argmin(np.where(up, grad, np.inf)))
        gap = np.max(np.where(down, grad, -np.inf)) - grad[i]
        if gap <= params.solver_tol or iterations == params.max_solver_iters:
            break
        row_i = rows.row(i)
        b = grad - grad[i]
        curvature = np.maximum(diag[i] + diag - 2.0 * row_i, 1e-12)
        j = int(np.argmax(np.where(down & (b > 0.0), b * b / curvature, -np.inf)))
        row_j = rows.row(j)
        denom = row_i[i] + row_j[j] - 2.0 * row_i[j]
        t_max = min(C - alpha[i], alpha[j])
        if denom > 1e-15:
            t = min(b[j] / denom, t_max)
        else:
            t = t_max
        if t >= t_max:
            t = t_max
            if box_hits is not None:
                box_hits.append((i, j))
            if C - alpha[i] <= alpha[j]:
                alpha[i] = C
                alpha[j] = max(alpha[j] - t_max, 0.0)
            else:
                alpha[i] = alpha[i] + t_max
                alpha[j] = 0.0
        else:
            alpha[i] += t
            alpha[j] -= t
        grad += t * (row_i - row_j)
        iterations += 1

    model = dataclasses.replace(_finalize_model(X, alpha, grad, C, params),
                                iterations=iterations, gap=gap)
    if gap > params.solver_tol:
        raise SolverNonConvergenceError("reference did not converge", best_model=model)
    return model


def assert_same_model(a, b):
    assert a.support_vectors.shape == b.support_vectors.shape
    assert a.support_vectors.tobytes() == b.support_vectors.tobytes()
    assert a.alphas.dtype == b.alphas.dtype and a.alphas.tobytes() == b.alphas.tobytes()
    assert np.float64(a.rho).tobytes() == np.float64(b.rho).tobytes()
    assert (a.kernel, a.nu, a.train_count) == (b.kernel, b.nu, b.train_count)
    assert a.iterations == b.iterations
    assert np.float64(a.gap).tobytes() == np.float64(b.gap).tobytes()


def fit_both(points, params, box_hits=None):
    """(train_ocsvm's model, the reference's), or both best_models."""
    models = []
    for fit in (train_ocsvm, lambda X, p: ref_train_ocsvm(X, p, box_hits)):
        try:
            models.append(fit(points, params))
        except SolverNonConvergenceError as exc:
            models.append(("capped", exc.best_model))
    new, ref = models
    assert isinstance(new, tuple) == isinstance(ref, tuple)
    if isinstance(new, tuple):
        new, ref = new[1], ref[1]
    return new, ref


def _ascent_slices():
    """Every time slice of every shipped ascent cell, with its params."""
    cfg = load_experiment_config(str(files("dfrlab").joinpath("data", "exp_point_push_ascent.json")))
    spec = builtin_env_spec(cfg.env)
    largest = {}
    for seed, n in cfg.ascent_cells:
        largest[seed] = max(n, largest.get(seed, 0))
    sets = {seed: generate_demos(spec, n, seed) for seed, n in largest.items()}
    slices = []
    for seed, n in cfg.ascent_cells:
        demos = demo_prefix(spec, sets[seed], n)
        slices.extend(demos.states_at(t) for t in range(demos.horizon))
    return cfg.ocsvm_params(), slices


@pytest.fixture(scope="module")
def ascent_slices():
    return _ascent_slices()


def test_solver_matches_reference_on_every_ascent_slice(ascent_slices):
    params, slices = ascent_slices
    assert len(slices) == 4 * 40
    for pts in slices:
        new, ref = fit_both(pts, params)
        assert_same_model(new, ref)


def test_capped_solver_keeps_the_reference_best_model(ascent_slices):
    params, slices = ascent_slices
    capped = OcsvmParams(nu=params.nu, kernel=params.kernel, max_solver_iters=1)
    for pts in slices[::10]:
        with pytest.raises(SolverNonConvergenceError) as new:
            train_ocsvm(pts, capped)
        with pytest.raises(SolverNonConvergenceError) as ref:
            ref_train_ocsvm(pts, capped)
        assert_same_model(new.value.best_model, ref.value.best_model)


def test_row_cache_path_matches_reference(monkeypatch, ascent_slices):
    params, slices = ascent_slices
    monkeypatch.setattr(kernel_ocsvm, "FULL_MATRIX_LIMIT", 8)
    monkeypatch.setattr(kernel_ocsvm, "_ROW_CACHE_SIZE", 4)
    assert _KernelRows(slices[0], 1.0).full is None
    pooled = np.concatenate(slices[:40:8])
    for pts in (slices[0], slices[-1], pooled):
        new, ref = fit_both(pts, params)
        assert_same_model(new, ref)


# Small clouds with nu from 1/m up: C = 1 / (nu * m) makes steps stop at
# the box, and duplicated points make the step's denominator vanish.  Only
# instances whose reference fit hit the box count.
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(6, 24),
    dim=st.integers(1, 3),
    nu_scale=st.floats(1.0, 4.0),
    gamma=st.floats(0.05, 60.0),
    repeats=st.integers(0, 3),
)
def test_solver_matches_reference_where_it_hits_the_box(seed, m, dim, nu_scale, gamma, repeats):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, dim))
    X[:repeats] = X[-1]
    params = OcsvmParams(nu=min(1.0, nu_scale / m), kernel=KernelParams(gamma=gamma),
                         max_solver_iters=5_000)
    hits = []
    new, ref = fit_both(X, params, hits)
    assume(hits)
    assert_same_model(new, ref)


# ---------------------------------------------------------------------------
# reference farthest-point pass


def ref_farthest_point_indices(X, k):
    """_farthest_point_indices with np.linalg.norm over the state rows."""
    if k >= len(X):
        return np.arange(len(X))
    chosen = np.empty(k, dtype=int)
    chosen[0] = 0
    dist = np.linalg.norm(X - X[0], axis=1)
    for i in range(1, k):
        j = int(np.argmax(dist))
        chosen[i] = j
        np.minimum(dist, np.linalg.norm(X - X[j], axis=1), out=dist)
    return np.sort(chosen)


def assert_same_indices(X, k):
    new = _farthest_point_indices(X, k)
    ref = ref_farthest_point_indices(X, k)
    assert new.dtype == ref.dtype and new.tolist() == ref.tolist(), (X.shape, k)


@pytest.fixture(scope="module")
def learning_curve_cells():
    """The shipped learning curve's config and its 12 cells' demo sets."""
    cfg = load_experiment_config(
        str(files("dfrlab").joinpath("data", "exp_point_push_learning_curve.json")))
    spec = builtin_env_spec(cfg.env)
    cells = [(cfg.demo_seeds[t], n) for t in range(cfg.trials) for n in cfg.demo_grid]
    largest = {}
    for seed, n in cells:
        largest[seed] = max(n, largest.get(seed, 0))
    sets = {seed: generate_demos(spec, n, seed, jitter_sigma=cfg.demo_jitter)
            for seed, n in largest.items()}
    return cfg, [demo_prefix(spec, sets[seed], n, cfg.demo_jitter) for seed, n in cells]


def test_farthest_points_match_reference_on_every_learning_curve_cell(learning_curve_cells):
    cfg, cells = learning_curve_cells
    assert len(cells) == 12
    for demos in cells:
        X = np.concatenate([t.states[:-1] for t in demos.trajectories])
        assert len(X) > cfg.policy_centers
        assert_same_indices(X, cfg.policy_centers)


def test_fit_train_loss_is_the_empirical_loss_on_every_learning_curve_cell(
        learning_curve_cells):
    cfg, cells = learning_curve_cells
    for demos in cells:
        policy = fit_policy(demos, cfg.policy_config())
        assert policy.train_loss == pytest.approx(empirical_loss(policy, demos),
                                                  rel=1e-12, abs=0.0)


# Every ordering of one coordinate vector: the distances from the origin row
# are equal sums taken in different orders, so which of them rounds highest,
# and so every later pick, depends on the order the columns are added in.
@pytest.mark.parametrize("seed", range(20))
def test_farthest_points_break_rounding_ties_like_the_reference(seed):
    v = np.random.default_rng(seed).uniform(0.1, 1.0, size=5)
    X = np.array([np.zeros(5), *itertools.permutations(v)])
    for k in range(1, 9):
        assert_same_indices(X, k)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    dim=st.integers(1, 6),
    log_scales=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    repeats=st.integers(0, 10),
    k_frac=st.floats(0.0, 1.0),
)
def test_farthest_points_match_reference_on_random_clouds(seed, n, dim, log_scales,
                                                          repeats, k_frac):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim)) * 10.0 ** np.array(log_scales[:dim])
    # duplicated rows tie exactly, and ties go to the lowest index
    X[: min(repeats, n - 1)] = X[-1]
    k = 1 + int(k_frac * (n - 1))
    assert_same_indices(X, k)


# ---------------------------------------------------------------------------
# reference point_push supervisor


def _ref_norm(v):
    return float(np.sqrt((v * v).sum()))


def _ref_dot(a, b):
    return float((a * b).sum())


def _ref_unit(v):
    n = _ref_norm(v)
    return v / n if n > 1e-12 else np.array([1.0, 0.0])


def _ref_push_direction(spec, o, goal, hits):
    d0 = _ref_unit(goal - o)
    dist_goal = _ref_norm(goal - o)
    d = d0.copy()
    for (cx, cy), radius in spec.constraint_regions:
        c = np.array([cx, cy])
        cleared = radius + spec.object_radius + _PUSH_CLEARANCE
        along = _ref_dot(c - o, d0)
        if along <= 0.0 or along >= dist_goal + cleared:
            continue
        closest = o + min(along, dist_goal) * d0
        perp = _ref_norm(closest - c)
        if perp >= cleared:
            continue
        hits.add("deflection")
        deficit = (cleared - perp) / cleared
        side = np.array([0.5, 0.5]) - c
        d = d + _DEFLECT_GAIN * deficit * _ref_unit(side)
    return _ref_unit(d)


def ref_point_push_action(spec, state, hits):
    """The numpy form of the point_push supervisor; hits names each branch taken."""
    r, o, goal = state[0:2], state[2:4], state[4:6]
    if _ref_norm(o - goal) <= spec.goal_radius:
        hits.add("goal")
        return np.zeros(2)
    d = _ref_push_direction(spec, o, goal, hits)
    contact = spec.robot_radius + spec.object_radius
    rel = r - o
    dist = _ref_norm(rel)
    behind_dist = _ref_dot(rel, -d)
    lateral = _ref_norm(rel - behind_dist * (-d))
    if (behind_dist > 0.0 and lateral <= _CAPTURE_LATERAL
            and dist <= contact + _STANDOFF + _CAPTURE_SLACK):
        lat_vec = behind_dist * (-d) - rel
        lat = _ref_norm(lat_vec)
        if lat >= spec.u_max:
            hits.add("capture-lateral")
            return spec.u_max * _ref_unit(lat_vec)
        hits.add("capture")
        forward = float(np.sqrt(spec.u_max**2 - lat**2))
        return lat_vec + forward * d
    waypoint = o - d * (contact + _STANDOFF)
    to_w = waypoint - r
    dist_w = _ref_norm(to_w)
    direction = _ref_unit(to_w)
    to_o = o - r
    dist_o = _ref_norm(to_o)
    head_on = _ref_dot(direction, _ref_unit(to_o))
    if dist_o < contact + _STANDOFF + 0.01 and head_on > 0.3 and behind_dist < contact - 1e-9:
        hits.add("circling")
        tangent = np.array([-to_o[1], to_o[0]]) / max(dist_o, 1e-12)
        if _ref_dot(tangent, to_w) < 0:
            tangent = -tangent
        direction = _ref_unit(0.3 * direction + tangent)
        dist_w = spec.u_max
    for (cx, cy), radius in spec.constraint_regions:
        c = np.array([cx, cy])
        away = r - c
        gap = _ref_norm(away) - (radius + spec.robot_radius)
        margin = _REGION_CLEARANCE_RADII * spec.robot_radius
        if gap < margin:
            hits.add("repulsion")
            weight = (margin - gap) / margin
            direction = _ref_unit(direction + 2.0 * weight * _ref_unit(away))
    return min(spec.u_max, dist_w) * direction


def _probe_states(spec, rng, count):
    """Random states, half with the robot right next to the object, half with
    it anywhere; the object anywhere in the workspace, the goal as shipped."""
    states = []
    for k in range(count):
        o = rng.uniform(0.05, 0.95, size=2)
        if k % 2:
            r = rng.uniform(0.0, 1.0, size=2)
        else:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            r = o + rng.uniform(0.0, 0.15) * np.array([np.cos(angle), np.sin(angle)])
        states.append(np.concatenate([r, o, spec.goal_center]))
    return states


def test_supervisor_matches_the_numpy_form():
    spec = builtin_env_spec("point_push")
    demos = generate_demos(spec, 120, seed=5)
    states = [s for traj in demos.trajectories for s in traj.states]
    states += _probe_states(spec, np.random.default_rng(0), 4000)
    # Below _CAPTURE_LATERAL, u_max caps the lateral correction of a capture.
    slow = dataclasses.replace(spec, u_max=0.02)
    hits = set()
    for env, state in [(spec, s) for s in states] + [(slow, s) for s in states[-2000:]]:
        u = supervisor_action(env, state)
        ref = ref_point_push_action(env, state, hits)
        assert u.dtype == ref.dtype and u.shape == ref.shape
        assert u.tobytes() == ref.tobytes(), state
    assert hits == {"goal", "deflection", "capture", "capture-lateral", "circling", "repulsion"}


# ---------------------------------------------------------------------------
# batch kernels against the scalar ones, row for row


def _rows_bits(batch, scalar_rows):
    """batch's bytes, and the bytes of the scalar results stacked as rows."""
    expected = np.array(scalar_rows)
    assert batch.dtype == expected.dtype and batch.shape == expected.shape
    return batch.tobytes(), expected.tobytes()


def assert_kernels_match(spec, X, U):
    """Every batch kernel on the rows of X (and U) equals the scalar one, and
    none of them warns: a branch's division must be guarded on the rows the
    branch does not select."""
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        batch = (supervisor_actions(spec, X), clip_control_batch(spec, U),
                 step_batch(spec, X, U), check_constraint_batch(spec, X),
                 reached_goal_batch(spec, X))
    actions, clipped, stepped, safe, reached = batch
    got, want = _rows_bits(actions, [supervisor_action(spec, x) for x in X])
    assert got == want, "supervisor"
    got, want = _rows_bits(clipped, [_clip_control(spec, u)[0] for u in U])
    assert got == want, "clip"
    got, want = _rows_bits(stepped, [step(spec, x, u) for x, u in zip(X, U)])
    assert got == want, "step"
    assert safe.tolist() == [bool(check_constraint(spec, x)) for x in X]
    assert reached.tolist() == [bool(reached_goal(spec, x)) for x in X]


_PP = builtin_env_spec("point_push")
_LT = builtin_env_spec("line_track")
# Below _CAPTURE_LATERAL, u_max caps the lateral correction of a capture.
_PP_SLOW = dataclasses.replace(_PP, u_max=0.02)
_PP_CONTACT = _PP.robot_radius + _PP.object_radius


def _signed(values):
    return st.sampled_from([v for x in values for v in (x, -x)])


_coord = st.one_of(st.floats(-0.1, 1.1), _signed([0.0, 1.0, 0.5]))
_control = st.one_of(st.floats(-0.12, 0.12), _signed([0.0, _PP.u_max, 0.03]))


@st.composite
def _point_push_row(draw):
    """A state and a control, the state placed where a branch turns: robot
    and object in contact or coincident, object at the goal's edge, a disc
    at a keep-out region's edge, or the robot on the workspace box."""
    goal = np.array(_PP.goal_center, dtype=float)
    where = draw(st.sampled_from(["anywhere", "contact", "coincident", "goal", "region",
                                  "box"]))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    ring = np.array([np.cos(angle), np.sin(angle)])
    slack = draw(st.one_of(st.just(0.0), st.floats(-0.01, 0.01)))
    o = np.array([draw(_coord), draw(_coord)])
    r = np.array([draw(_coord), draw(_coord)])
    if where == "contact":
        r = o + (_PP_CONTACT + slack) * ring
    elif where == "coincident":
        r = o.copy()
    elif where == "goal":
        o = goal + (_PP.goal_radius + slack) * ring
        r = o + draw(st.floats(0.0, 0.2)) * ring[::-1]
    elif where == "region":
        (cx, cy), radius = draw(st.sampled_from(_PP.constraint_regions))
        disc = draw(st.sampled_from(["robot", "object"]))
        reach = radius + (_PP.robot_radius if disc == "robot" else _PP.object_radius)
        at = np.array([cx, cy]) + (reach + slack) * ring
        if disc == "robot":
            r = at
        else:
            o = at
    elif where == "box":
        r[draw(st.integers(0, 1))] = draw(_signed([0.0, 1.0]))
    return np.concatenate([r, o, goal]), np.array([draw(_control), draw(_control)])


@given(st.lists(_point_push_row(), min_size=1, max_size=24), st.booleans())
def test_point_push_kernels_match_the_scalar_ones(rows, slow):
    X, U = zip(*rows)
    assert_kernels_match(_PP_SLOW if slow else _PP, X, U)


_lt_coord = st.one_of(st.floats(-15.0, 15.0),
                      _signed([0.0, _LT.deviation_limit, _LT.goal_progress]))
_lt_control = st.one_of(st.floats(-2.0 * _LT.u_max, 2.0 * _LT.u_max),
                        _signed([0.0, _LT.u_max, _LT.nominal_step]))


@given(st.lists(st.tuples(st.tuples(_lt_coord, _lt_coord), st.tuples(_lt_control, _lt_control)),
                min_size=1, max_size=24))
def test_line_track_kernels_match_the_scalar_ones(rows):
    X, U = zip(*rows)
    assert_kernels_match(_LT, X, U)


def test_box_edges_with_signed_zeros_clip_as_the_scalar_step():
    # np.clip's comparisons decide which zero a robot on the box keeps
    X, U = [], []
    for edge in (0.0, -0.0, 1.0):
        for u in (0.0, -0.0, 0.01, -0.01):
            for axis in (0, 1):
                r = [0.5, 0.5]
                r[axis] = edge
                X.append(r + [0.7, 0.2, 0.8, 0.5])
                U.append([u if axis == 0 else 0.0, u if axis == 1 else 0.0])
    assert_kernels_match(_PP, X, U)


# Geometry in powers of two, so that states can sit exactly on a boundary:
# the object at the goal's radius, a disc at a region's reach, and an object
# level with a region's centre on a level push, where the deflection's
# along-axis distance is exactly 0.
_DYADIC = dataclasses.replace(
    _PP, u_max=0.03125, robot_radius=0.03125, object_radius=0.0625,
    goal_center=(0.75, 0.5), goal_radius=0.0625,
    constraint_regions=(((0.5, 0.25), 0.0625), ((0.5, 0.75), 0.0625)),
)


def test_exact_boundaries_decide_as_the_scalar_ones():
    X = [
        [0.5, 0.5, 0.8125, 0.5, 0.75, 0.5],  # object at the goal's radius
        [0.5, 0.5, 0.75, 0.4375, 0.75, 0.5],
        [0.59375, 0.25, 0.25, 0.5, 0.75, 0.5],  # robot at a region's reach
        [0.25, 0.5, 0.5, 0.875, 0.75, 0.5],  # object at a region's reach
        [0.25, 0.375, 0.5, 0.375, 0.75, 0.375],  # along = 0 for the lower region
        [0.4375, 0.40625, 0.5, 0.375, 0.75, 0.375],  # captured at lateral u_max
    ]
    U = [[0.0, 0.0], [0.03125, 0.0], [-0.03125, 0.0], [0.0, 0.0625], [0.0, -0.0], [0.02, 0.02]]
    assert_kernels_match(_DYADIC, X, U)
    assert_kernels_match(_PP, X, U)


@pytest.fixture(scope="module")
def shipped_demo_sets():
    return [generate_demos(_PP, 120, seed) for seed in (5, 6, 7)]


def test_kernels_match_on_every_state_of_the_shipped_demo_sets(shipped_demo_sets):
    rng = np.random.default_rng(1)
    X = [t.states for demos in shipped_demo_sets for t in demos.trajectories]
    # each state's own control, and a random one for the last state of a demo
    U = [np.concatenate([t.controls, rng.uniform(-0.08, 0.08, size=(1, 2))])
         for demos in shipped_demo_sets for t in demos.trajectories]
    # and the probe states of the numpy-form test above, which take the
    # branches the demos never need
    probes = np.array(_probe_states(_PP, rng, 2000))
    X = np.concatenate(X + [probes])
    U = np.concatenate(U + [rng.uniform(-0.08, 0.08, size=(len(probes), 2))])
    hits = set()
    for spec in (_PP, _PP_SLOW):
        assert_kernels_match(spec, X, U)
        for x in X[::5]:
            ref_point_push_action(spec, x, hits)
    assert hits == {"goal", "deflection", "capture", "capture-lateral", "circling", "repulsion"}


# ---------------------------------------------------------------------------
# the lockstep generator against one supervisor rollout at a time


def ref_generate_demos(spec, n, seed, jitter_sigma=0.0):
    """generate_demos as one scalar rollout per demo, in demo order."""
    root = np.random.default_rng(seed)
    traj_seeds = [int(s) for s in root.integers(0, 2**62, size=n)]
    trajectories = []
    for k, tseed in enumerate(traj_seeds):
        reset_seq, jitter_seq = np.random.SeedSequence(tseed).spawn(2)
        state = reset(spec, reset_seq)
        jitter_rng = np.random.default_rng(jitter_seq)
        states = [state]
        controls = []
        reached = False
        for t in range(spec.horizon):
            u = supervisor_action(spec, state)
            if jitter_sigma > 0.0:
                u = _clip_control(spec, u + jitter_rng.normal(0.0, jitter_sigma, size=2))[0]
            state = step(spec, state, u, stream=None)
            if not check_constraint(spec, state):
                raise InvalidInputError(
                    f"supervisor rollout {k} (seed {tseed}) touched a constraint "
                    f"region at step {t} with jitter sigma={jitter_sigma:g}; lower "
                    "the jitter or fix the environment spec"
                )
            if reached_goal(spec, state):
                reached = True
            states.append(state)
            controls.append(np.asarray(u, dtype=float))
        if not reached:
            raise InvalidInputError(
                f"supervisor rollout {k} (seed {tseed}) did not reach the goal "
                f"within horizon {spec.horizon} with jitter sigma={jitter_sigma:g}"
            )
        trajectories.append(Trajectory(states=np.stack(states), controls=np.stack(controls),
                                       seed=tseed, outcome="completed"))
    return trajectories


@pytest.mark.parametrize("spec, n, seed, sigma", [
    (_PP, 120, 5, 0.0), (_PP, 120, 6, 0.0), (_PP, 120, 7, 0.0), (_PP, 40, 5, 0.005),
    (_LT, 50, 5, 0.0), (_LT, 50, 5, 0.1),
], ids=["pp-5", "pp-6", "pp-7", "pp-5-jitter", "lt-5", "lt-5-jitter"])
def test_lockstep_demos_equal_one_rollout_at_a_time(spec, n, seed, sigma):
    new = generate_demos(spec, n, seed, sigma).trajectories
    ref = ref_generate_demos(spec, n, seed, sigma)
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert (a.seed, a.outcome) == (b.seed, b.outcome)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.controls.tobytes() == b.controls.tobytes()


# Seed 2 at sigma 0.03: demos 2, 4 and 8 touch a region, at steps 39, 21
# and 18, so the lockstep run sees demo 8 first but must name demo 2.  Seed
# 0 at sigma 0.03: demo 5 misses the goal before demo 8 touches a region.
# Horizon 17: demos 8 to 11 miss the goal.
@pytest.mark.parametrize("spec, seed, sigma", [
    (_PP, 2, 0.03), (_PP, 0, 0.03), (dataclasses.replace(_PP, horizon=17), 0, 0.0),
], ids=["touch-order", "miss-before-touch", "short-horizon"])
def test_lockstep_demos_fail_with_the_one_at_a_time_error(spec, seed, sigma):
    with pytest.raises(InvalidInputError) as ref:
        ref_generate_demos(spec, 12, seed, sigma)
    with pytest.raises(InvalidInputError) as new:
        generate_demos(spec, 12, seed, sigma)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("sigma, jitter_rngs", [(0.0, 0), (0.005, 6)])
def test_jitter_generators_are_built_only_with_jitter(monkeypatch, sigma, jitter_rngs):
    made = []
    default_rng = np.random.default_rng

    def counting(seed=None):
        made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    generate_demos(_PP, 6, 5, sigma)
    # the root generator, one per reset, and one per demo's jitter
    assert len(made) == 1 + 6 + jitter_rngs
