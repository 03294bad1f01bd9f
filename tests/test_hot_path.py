"""The per-call rollout functions against numpy reference formulas, bit for bit.

point_push step, check_constraint and reached_goal, TimeVaryingSupport.g_at
and Policy.action compute with Python floats and cached constants.  The
references below are the straightforward numpy forms of the same arithmetic;
every stored value must come out with identical bits, so records hashes do
not move.  Also covers the input checks these functions keep.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dfrlab.envs import (
    EnvState,
    check_constraint,
    env_spec_to_document,
    reached_goal,
    step,
)
from dfrlab.errors import InvalidInputError
from dfrlab.kernel_ocsvm import KernelParams, OcsvmParams, decision_value
from dfrlab.support import TimeVaryingSupport, fit_time_varying


# ---------------------------------------------------------------------------
# reference formulas


def ref_clip_control(spec, u):
    u = np.asarray(u, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm > spec.u_max:
        u = u * (spec.u_max / norm)
    return u


def ref_push_vec(spec, state, u):
    """point_push next state vector."""
    u = ref_clip_control(spec, u)
    lo, hi = np.asarray(spec.workspace[0]), np.asarray(spec.workspace[1])
    r = state.vec[0:2]
    o = state.vec[2:4].copy()
    r_new = np.clip(r + u, lo, hi)
    d = o - r_new
    dist = float(np.linalg.norm(d))
    depth = (spec.robot_radius + spec.object_radius) - dist
    if depth > 0.0:
        if dist > 1e-12:
            normal = d / dist
        else:
            un = float(np.linalg.norm(u))
            normal = u / un if un > 0 else np.array([1.0, 0.0])
        o = o + depth * normal
    return np.concatenate([r_new, o, state.vec[4:6]])


def ref_decision_value(model, x):
    diff = model.support_vectors - x[None, :]
    k = np.exp(-model.kernel.gamma * (diff * diff).sum(axis=1))
    return float(model.alphas @ k) - model.rho


def ref_check_constraint(spec, state):
    r, o = state.vec[0:2], state.vec[2:4]
    for (cx, cy), radius in spec.constraint_regions:
        c = np.array([cx, cy])
        if np.linalg.norm(r - c) <= radius + spec.robot_radius:
            return False
        if np.linalg.norm(o - c) <= radius + spec.object_radius:
            return False
    return True


def ref_reached_goal(spec, state):
    return bool(np.linalg.norm(state.vec[2:4] - np.asarray(spec.goal_center)) <= spec.goal_radius)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _pp(robot, obj, goal=(0.8, 0.5)):
    return EnvState(vec=np.array([*robot, *obj, *goal], dtype=float))


def _assert_step_matches(spec, state, u):
    res = step(spec, state, np.asarray(u, dtype=float))
    expected = ref_push_vec(spec, state, u)
    assert _bits(res.next_state.vec) == _bits(expected)
    assert res.collided == (not ref_check_constraint(spec, res.next_state))
    assert res.reached_goal == ref_reached_goal(spec, res.next_state)
    return res


coord = st.floats(0.0, 1.0)
offset = st.floats(-0.15, 0.15)


# ---------------------------------------------------------------------------
# point_push step


@given(coord, coord, st.floats(-0.035, 0.035), st.floats(-0.035, 0.035))
def test_step_free_motion(point_push_spec, rx, ry, ux, uy):
    # the object sits far from the robot: no contact, no clipping
    obj = (rx + 0.5 if rx < 0.5 else rx - 0.5, ry)
    state = _pp((rx, ry), obj)
    res = _assert_step_matches(point_push_spec, state, (ux, uy))
    assert _bits(res.next_state.vec[2:4]) == _bits(obj)


@given(st.sampled_from([-0.0, 0.0, 1.0]), coord, st.floats(0.0, 0.05), st.floats(-0.03, 0.03))
@example(-0.0, 0.5, 0.0, 0.0)  # -0.0 + -0.0 clips to +0.0
def test_step_clips_to_workspace(point_push_spec, edge, ry, push, uy):
    # the robot starts on the left or right workspace edge and pushes outward
    ux = -push if edge == 0.0 else push
    state = _pp((edge, ry), (0.5, 0.5))
    res = _assert_step_matches(point_push_spec, state, (ux, uy))
    assert res.next_state.vec[0] == edge


@given(coord, coord, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_step_scales_over_limit_controls(point_push_spec, rx, ry, ux, uy):
    _assert_step_matches(point_push_spec, _pp((rx, ry), (0.5, 0.5)), (ux, uy))


@given(coord, coord, offset, offset, st.floats(-0.06, 0.06), st.floats(-0.06, 0.06))
def test_step_contact_push_out(point_push_spec, rx, ry, dx, dy, ux, uy):
    # object within reach of the robot's motion: most draws end in contact
    _assert_step_matches(point_push_spec, _pp((rx, ry), (rx + dx, ry + dy)), (ux, uy))


@pytest.mark.parametrize("u", [(0.02, -0.01), (0.0, 0.0), (0.3, 0.4)])
def test_step_coincident_centres(point_push_spec, u):
    # the robot lands exactly on the object's centre: push along the
    # control, or along +x with no control
    robot = (0.4, 0.6)
    landing = np.clip(np.asarray(robot) + ref_clip_control(point_push_spec, u), 0.0, 1.0)
    res = _assert_step_matches(point_push_spec, _pp(robot, tuple(landing)), u)
    assert not np.array_equal(res.next_state.vec[2:4], landing)


def test_predicates_on_random_states(point_push_spec, rng):
    states = [_pp(rng.uniform(-0.2, 1.2, 2), rng.uniform(-0.2, 1.2, 2)) for _ in range(2000)]
    states.append(_pp((0.5, 0.28 - 0.11), (0.8, 0.5)))  # robot touching a keep-out region
    verdicts = set()
    for state in states:
        ok = check_constraint(point_push_spec, state)
        done = reached_goal(point_push_spec, state)
        assert ok == ref_check_constraint(point_push_spec, state)
        assert done == ref_reached_goal(point_push_spec, state)
        verdicts.add((ok, done))
    assert {ok for ok, _ in verdicts} == {True, False}
    assert {done for _, done in verdicts} == {True, False}


def test_control_checks_kept(point_push_spec):
    state = _pp((0.2, 0.2), (0.6, 0.6))
    for bad in ([0.01], [0.0, 0.0, 0.0], [np.inf, 0.0], [0.0, -np.inf], [0.0, np.nan]):
        with pytest.raises(InvalidInputError, match="finite vector"):
            step(point_push_spec, state, np.array(bad))


def test_spec_geometry_cache_is_not_part_of_the_spec(point_push_spec):
    assert "push=" not in repr(point_push_spec)
    assert "push" not in env_spec_to_document(point_push_spec)
    other = copy.copy(point_push_spec)
    object.__setattr__(other, "push", None)
    assert other == point_push_spec and hash(other) == hash(point_push_spec)
    back = pickle.loads(pickle.dumps(point_push_spec))
    assert back == point_push_spec and back.push == point_push_spec.push
    moved = dataclasses.replace(point_push_spec, workspace=((0.0, 0.0), (2.0, 1.0)))
    assert moved.push.box == (0.0, 0.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# g_at


@given(st.integers(0, 60), st.lists(st.floats(-0.2, 1.2), min_size=6, max_size=6))
def test_g_at_matches_decision_value(pp_support, t, x):
    x = np.asarray(x)
    model = pp_support.estimators[pp_support.estimator_index(t)]
    expected = ref_decision_value(model, x[pp_support.projection])
    assert _bits(pp_support.g_at(t, x)) == _bits(expected)
    assert _bits(decision_value(model, x)) == _bits(expected)


@pytest.fixture(scope="module")
def projected_support(pp_demos):
    params = OcsvmParams(nu=0.05, kernel=KernelParams(gamma=15.0))
    return fit_time_varying(pp_demos, params, projection=[3, 2, 0])


@given(st.integers(0, 60), st.lists(st.floats(-0.2, 1.2), min_size=6, max_size=6))
def test_g_at_matches_decision_value_projected(projected_support, t, x):
    x = np.asarray(x)
    sup = projected_support
    expected = ref_decision_value(sup.estimators[sup.estimator_index(t)], x[[3, 2, 0]])
    assert _bits(sup.g_at(t, x)) == _bits(expected)


def test_g_at_input_checks(projected_support, pp_support):
    with pytest.raises(InvalidInputError, match="do not fit"):
        pp_support.g_at(0, np.zeros(5))
    with pytest.raises(InvalidInputError, match="do not fit"):
        projected_support.g_at(0, np.zeros(3))
    with pytest.raises(InvalidInputError, match="do not fit"):
        pp_support.g_at(0, np.zeros((1, 6)))
    with pytest.raises(InvalidInputError, match=">= 0"):
        pp_support.g_at(-1, np.zeros(6))
    # a longer state is fine when the projection only reads a prefix of it
    assert projected_support.g_at(0, np.zeros(4)) == projected_support.g_at(0, np.zeros(6))


def test_projection_checked_against_every_estimator_at_construction(pp_support):
    with pytest.raises(InvalidInputError, match="slice-0 estimator expects 6"):
        TimeVaryingSupport(estimators=pp_support.estimators, projection=[0, 1])
    mixed = [pp_support.estimators[0], dataclasses.replace(
        pp_support.estimators[1], support_vectors=pp_support.estimators[1].support_vectors[:, :2])]
    with pytest.raises(InvalidInputError, match="slice-1 estimator expects 2"):
        TimeVaryingSupport(estimators=mixed, projection=np.arange(6))


# ---------------------------------------------------------------------------
# Policy.action


@given(st.lists(st.floats(-0.5, 1.5), min_size=6, max_size=6))
def test_policy_action_matches_batch_path(pp_policy, x):
    x = np.asarray(x)
    assert _bits(pp_policy.action(x)) == _bits(pp_policy.actions(x[None])[0])


@given(st.lists(st.floats(-0.5, 1.5), min_size=6, max_size=6))
def test_policy_action_matches_batch_path_when_clipped(pp_policy, x):
    x = np.asarray(x)
    raw = pp_policy.features(x) @ pp_policy.weights
    clipped = dataclasses.replace(pp_policy, clip_norm=0.5 * float(np.linalg.norm(raw)))
    u = clipped.action(x)
    assert _bits(u) == _bits(clipped.actions(x[None])[0])
    assert not np.array_equal(u, raw[0])
