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
The solver is checked from the cold start and along each time chain of
slices, where every solve starts from the alphas the one before ended at.
Every model, every centre set and every control must come out with
identical bits, so fitted supports, policies and demo sets depend only on
the rules, not on how the loops are written or on the BLAS kernel.

generate_demos, whose rollouts stop stepping a demo at a fixed point, is
checked against one scalar rollout per demo over the whole horizon,
written out below as the reference: same sets, same errors.
"""

import dataclasses
from importlib.resources import files
import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dfrlab import kernel_ocsvm, supervisor
from dfrlab.controllers import _farthest_point_indices, empirical_loss, fit_policy
from dfrlab.envs import (
    _clip_control,
    builtin_env_spec,
    check_constraint,
    reached_goal,
    reset,
    step,
)
from dfrlab.errors import InvalidInputError, SolverNonConvergenceError
from dfrlab.harness import load_experiment_config
from dfrlab.kernel_ocsvm import (
    KernelParams,
    OcsvmParams,
    _alpha_init,
    _check_start,
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
)
from dfrlab.support import DemoSet, Trajectory, fit_pooled, fit_time_varying


# ---------------------------------------------------------------------------
# reference dual solver


def ref_train_ocsvm(points, params, box_hits=None, start=None):
    """train_ocsvm with array alphas, masks rebuilt every iteration and the
    second-order pair rule written out in full.

    box_hits, when given, gets one entry per step that hit the box.  start,
    when given, is the first iterate, and is left holding the last one."""
    X = _validate_training_points(points, params.nu)
    m = X.shape[0]
    C = 1.0 / (params.nu * m)
    if start is not None:
        _check_start(start, m, C)
    if np.ptp(X, axis=0).max() == 0.0:
        if start is not None:
            start[:] = _alpha_init(m, C)
        return _degenerate_model(X, params)
    rows = _KernelRows(X, params.kernel.gamma)
    alpha = _alpha_init(m, C) if start is None else start.copy()
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

    if start is not None:
        start[:] = alpha
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


def assert_shares_model(a, b):
    """a holds b's arrays and values, but a step count of 0."""
    assert a.support_vectors is b.support_vectors and a.alphas is b.alphas
    assert (a.rho, a.kernel, a.nu, a.train_count, a.gap) == (b.rho, b.kernel, b.nu,
                                                             b.train_count, b.gap)
    assert a.iterations == 0


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


def _ascent_cells():
    """The demo set of every shipped ascent cell, with the fit's params."""
    cfg = load_experiment_config(str(files("dfrlab").joinpath("data", "exp_point_push_ascent.json")))
    spec = builtin_env_spec(cfg.env)
    largest = {}
    for seed, n in cfg.ascent_cells:
        largest[seed] = max(n, largest.get(seed, 0))
    sets = {seed: generate_demos(spec, n, seed) for seed, n in largest.items()}
    return cfg.ocsvm_params(), [demo_prefix(spec, sets[seed], n) for seed, n in cfg.ascent_cells]


@pytest.fixture(scope="module")
def ascent_cells():
    return _ascent_cells()


@pytest.fixture(scope="module")
def ascent_slices(ascent_cells):
    """Every time slice of every shipped ascent cell, with its params."""
    params, cells = ascent_cells
    return params, [demos.states_at(t) for demos in cells for t in range(demos.horizon)]


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
# warm starts: each time slice's solve starts from the previous slice's alphas


def cold_start(m, params):
    return _alpha_init(m, 1.0 / (params.nu * m))


def test_warm_chains_match_reference_on_every_ascent_cell(ascent_cells):
    params, cells = ascent_cells
    for demos in cells:
        slices = [demos.states_at(t) for t in range(demos.horizon)]
        new_alpha = cold_start(len(slices[0]), params)
        ref_alpha = new_alpha.copy()
        chain = []
        for pts in slices:
            new = train_ocsvm(pts, params, start=new_alpha)
            ref = ref_train_ocsvm(pts, params, start=ref_alpha)
            assert_same_model(new, ref)
            assert new_alpha.tobytes() == ref_alpha.tobytes()
            chain.append(new)
        # fit_time_varying runs this chain, but a slice equal to the one
        # before (there the chain's solve takes no step) shares its model
        est = fit_time_varying(demos, params).estimators
        assert len(est) == len(chain)
        for t, model in enumerate(chain):
            if t and np.array_equal(slices[t], slices[t - 1]):
                assert model.iterations == est[t].iterations == 0
                assert_shares_model(est[t], est[t - 1])
            else:
                assert_same_model(est[t], model)


def test_cold_start_given_as_start_is_the_cold_solve(ascent_slices):
    params, slices = ascent_slices
    for pts in slices[::10]:
        alpha = cold_start(len(pts), params)
        assert_same_model(train_ocsvm(pts, params, start=alpha), train_ocsvm(pts, params))


def _feasible_start():
    X = np.random.default_rng(0).normal(size=(20, 2))
    params = OcsvmParams(nu=0.1, kernel=KernelParams(gamma=1.0))
    return X, params, cold_start(20, params)  # C = 0.5: two alphas at C


def _mass_moved(alpha, i, j, amount):
    alpha[i] -= amount
    alpha[j] += amount


@pytest.mark.parametrize("spoil, message", [
    (lambda a: a[:-1], r"start must be a float64 array of shape \(20,\)"),
    (lambda a: a.tolist(), r"start must be a float64 array of shape \(20,\)"),
    (lambda a: _mass_moved(a, 2, 3, 0.01), r"start alphas must lie in \[0, C"),
    (lambda a: _mass_moved(a, 1, 0, 0.01), r"start alphas must lie in \[0, C"),
    (lambda a: a.__setitem__(5, 1e-6), "start alphas must sum to 1"),
    (lambda a: a.__setitem__(5, np.nan), "start alphas contain non-finite values"),
    (lambda a: a.__setitem__(5, -np.inf), "start alphas contain non-finite values"),
], ids=["short", "list", "negative", "above-C", "mass-off-1", "nan", "inf"])
def test_solver_refuses_an_infeasible_start(spoil, message):
    X, params, alpha = _feasible_start()
    spoilt = spoil(alpha)
    start = alpha if spoilt is None else spoilt
    kept = np.array(start, dtype=float)
    with pytest.raises(InvalidInputError, match=message):
        train_ocsvm(X, params, start=start)
    # a refused start is left as it was, degenerate set or not
    with pytest.raises(InvalidInputError, match=message):
        train_ocsvm(np.zeros((20, 2)), params, start=start)
    assert np.array_equal(np.array(start, dtype=float), kept, equal_nan=True)


def test_solver_takes_a_start_whose_mass_is_within_tolerance():
    X, params, alpha = _feasible_start()
    alpha[5] = 1e-10
    train_ocsvm(X, params, start=alpha)
    assert abs(alpha.sum() - 1.0) < 1e-9


def _chain_demos(slices_by_t):
    """A demo set whose slice t holds the rows of slices_by_t[t]: trajectory
    k has a state at t while k < len(slices_by_t[t])."""
    n = len(slices_by_t[0])
    trajectories = []
    for k in range(n):
        states = np.array([s[k] for s in slices_by_t if k < len(s)])
        trajectories.append(Trajectory(states=states, controls=np.zeros((len(states) - 1, 2))))
    return DemoSet(trajectories=trajectories)


def test_first_slice_degenerate_slice_and_new_point_count_start_cold():
    rng = np.random.default_rng(3)
    params = OcsvmParams(nu=0.2, kernel=KernelParams(gamma=2.0))
    # slice 1 is one point ten times, slice 3 repeats slice 2, and slice 4
    # has 8 points, not 10; the last state of a trajectory starts no slice
    # of its own
    s2 = rng.normal(size=(10, 2))
    slices = [rng.normal(size=(10, 2)), np.tile([[0.3, -0.2]], (10, 1)), s2, s2.copy(),
              rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), rng.normal(size=(8, 2))]
    demos = _chain_demos(slices)
    assert demos.horizon == 6
    assert [len(demos.states_at(t)) for t in range(7)] == [10, 10, 10, 10, 8, 8, 8]
    est = fit_time_varying(demos, params).estimators
    for t in (0, 2, 4):
        assert_same_model(est[t], train_ocsvm(slices[t], params))
    assert_same_model(est[1], _degenerate_model(slices[1], params))
    assert_shares_model(est[3], est[2])
    alpha = cold_start(8, params)
    train_ocsvm(slices[4], params, start=alpha)
    assert_same_model(est[5], train_ocsvm(slices[5], params, start=alpha))
    # slice 0's alphas, had they crossed the degenerate slice, would have
    # fed slice 2 a different start: the test can tell the two apart
    alpha = cold_start(10, params)
    train_ocsvm(slices[0], params, start=alpha)
    assert train_ocsvm(slices[2], params, start=alpha).iterations != est[2].iterations
    # a degenerate set leaves the cold alphas in start
    train_ocsvm(slices[1], params, start=alpha)
    assert alpha.tobytes() == cold_start(10, params).tobytes()


def test_pooled_fit_starts_cold(ascent_cells):
    params, cells = ascent_cells
    demos = cells[0]
    assert_same_model(fit_pooled(demos, params), train_ocsvm(demos.all_states(), params))


def test_warm_chain_takes_fewer_steps_than_cold_on_a_learning_curve_cell(learning_curve_cells):
    cfg, cells = learning_curve_cells
    assert cfg.projection is None and not cfg.pooled
    demos = max(cells, key=len)
    params = cfg.ocsvm_params()
    warm = [est.iterations for est in fit_time_varying(demos, params).estimators]
    cold = [train_ocsvm(demos.states_at(t), params).iterations for t in range(demos.horizon)]
    assert cold[0] == warm[0] > 0
    assert sum(warm) < sum(cold)


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


_PP = builtin_env_spec("point_push")
_LT = builtin_env_spec("line_track")
# Below _CAPTURE_LATERAL, u_max caps the lateral correction of a capture.
_PP_SLOW = dataclasses.replace(_PP, u_max=0.02)

# Geometry in powers of two, so that states can sit exactly on a boundary:
# the object at the goal's radius, a disc at a region's reach, and an object
# level with a region's centre on a level push, where the deflection's
# along-axis distance is exactly 0.
_DYADIC = dataclasses.replace(
    _PP, u_max=0.03125, robot_radius=0.03125, object_radius=0.0625,
    goal_center=(0.75, 0.5), goal_radius=0.0625,
    constraint_regions=(((0.5, 0.25), 0.0625), ((0.5, 0.75), 0.0625)),
)
_EXACT_BOUNDARIES = [np.array(x) for x in [
    [0.5, 0.5, 0.8125, 0.5, 0.75, 0.5],  # object at the goal's radius
    [0.5, 0.5, 0.75, 0.4375, 0.75, 0.5],
    [0.59375, 0.25, 0.25, 0.5, 0.75, 0.5],  # robot at a region's reach
    [0.25, 0.5, 0.5, 0.875, 0.75, 0.5],  # object at a region's reach
    [0.25, 0.375, 0.5, 0.375, 0.75, 0.375],  # along = 0 for the lower region
    [0.4375, 0.40625, 0.5, 0.375, 0.75, 0.375],  # captured at lateral u_max
]]


@pytest.fixture(scope="module")
def shipped_demo_sets():
    return [generate_demos(_PP, 120, seed) for seed in (5, 6, 7)]


def assert_supervisor_matches(cases, hits):
    """supervisor_action on each (spec, state) equals the numpy form, bit for
    bit; hits collects the branches the numpy form took."""
    for env, state in cases:
        u = supervisor_action(env, state)
        ref = ref_point_push_action(env, state, hits)
        assert u.dtype == ref.dtype and u.shape == ref.shape
        assert u.tobytes() == ref.tobytes(), state


def test_supervisor_matches_the_numpy_form(shipped_demo_sets):
    states = [s for traj in shipped_demo_sets[0].trajectories for s in traj.states]
    probes = _probe_states(_PP, np.random.default_rng(0), 4000)
    hits = set()
    assert_supervisor_matches([(_PP, s) for s in states + probes]
                              + [(_PP_SLOW, s) for s in probes[-2000:]], hits)
    assert hits == {"goal", "deflection", "capture", "capture-lateral", "circling", "repulsion"}


def test_exact_boundaries_decide_as_the_scalar_ones():
    X = _EXACT_BOUNDARIES
    assert_supervisor_matches([(env, x) for env in (_DYADIC, _PP) for x in X], set())
    # a disc or object exactly at its boundary counts as touching it
    assert reached_goal(_DYADIC, X[0])
    assert not check_constraint(_DYADIC, X[2])
    assert not check_constraint(_DYADIC, X[3])


def test_kernels_match_on_every_state_of_the_shipped_demo_sets(shipped_demo_sets):
    X = [s for demos in shipped_demo_sets for t in demos.trajectories for s in t.states]
    # and the probe states of the numpy-form test above, which take the
    # branches the demos never need
    X += _probe_states(_PP, np.random.default_rng(1), 2000)
    hits = set()
    for spec in (_PP, _PP_SLOW):
        assert_supervisor_matches([(spec, x) for x in X], hits)
    assert hits == {"goal", "deflection", "capture", "capture-lateral", "circling", "repulsion"}


# ---------------------------------------------------------------------------
# generate_demos against one supervisor rollout at a time, over every step


def ref_generate_demos(spec, n, seed, jitter_sigma=0.0):
    """generate_demos as one scalar rollout per demo, in demo order, each
    stepped over the whole horizon."""
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
# and 18, and the error must name demo 2.  Seed 0 at sigma 0.03: demo 5
# misses the goal before demo 8 touches a region.  Horizon 17: demos 8 to 11
# miss the goal.
@pytest.mark.parametrize("spec, seed, sigma", [
    (_PP, 2, 0.03), (_PP, 0, 0.03), (dataclasses.replace(_PP, horizon=17), 0, 0.0),
], ids=["touch-order", "miss-before-touch", "short-horizon"])
def test_lockstep_demos_fail_with_the_one_at_a_time_error(spec, seed, sigma):
    with pytest.raises(InvalidInputError) as ref:
        ref_generate_demos(spec, 12, seed, sigma)
    with pytest.raises(InvalidInputError) as new:
        generate_demos(spec, 12, seed, sigma)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("sigma", [0.0, 0.005])
def test_only_unjittered_demos_stop_stepping_at_a_fixed_point(monkeypatch, sigma):
    calls = []

    def counting(spec, x, u, stream=None):
        calls.append(stream)
        return step(spec, x, u, stream)

    monkeypatch.setattr(supervisor, "step", counting)
    generate_demos(_PP, 12, 5, sigma)
    assert set(calls) == {None}
    if sigma:
        assert len(calls) == 12 * _PP.horizon
    else:
        assert len(calls) < 12 * _PP.horizon / 2


def test_a_step_from_minus_zero_to_zero_is_not_a_fixed_point():
    # Each object starts inside the goal, so the supervisor sends 0; the
    # first step takes the robot from x = -0.0 to 0.0, which == calls equal.
    spec = dataclasses.replace(_PP, robot_start=(-0.0, 0.5),
                               object_start_box=((0.78, 0.48), (0.82, 0.52)))
    new = generate_demos(spec, 3, 0).trajectories
    ref = ref_generate_demos(spec, 3, 0)
    assert np.signbit(ref[0].states[0, 0]) and not np.signbit(ref[0].states[1:, 0]).any()
    for a, b in zip(new, ref):
        assert a.states.tobytes() == b.states.tobytes()
        assert a.controls.tobytes() == b.controls.tobytes()


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
