"""Environment unit tests: contact geometry closed forms, the displacement
bound, disturbance stream laws, and spec serialization."""

import json
import math

import numpy as np
import pytest

from dfrlab.envs import (
    DisturbanceStream,
    EnvHandle,
    EnvState,
    builtin_env_spec,
    check_constraint,
    dynamics_constant,
    env_spec_to_document,
    load_env_spec,
    object_pos,
    random_state,
    reached_goal,
    reset,
    robot_pos,
    step,
)
from dfrlab.errors import InvalidInputError


def _pp_state(robot, obj, goal=(0.8, 0.5)):
    return EnvState(vec=np.array([*robot, *obj, *goal], dtype=float))


# ---------------------------------------------------------------------------
# point_push contact geometry


def test_contact_push_closed_form(point_push_spec):
    # robot at 0.42 moves to 0.44; gap to the object center is 0.06, the
    # contact distance is 0.08, so the object is pushed out by exactly 0.02
    state = _pp_state((0.42, 0.5), (0.5, 0.5))
    res = step(point_push_spec, state, np.array([0.02, 0.0]))
    assert np.allclose(robot_pos(res.next_state), [0.44, 0.5], atol=1e-15)
    assert np.allclose(object_pos(res.next_state), [0.52, 0.5], atol=1e-12)
    assert not res.collided


def test_no_contact_means_no_object_motion(point_push_spec):
    state = _pp_state((0.2, 0.2), (0.6, 0.6))
    res = step(point_push_spec, state, np.array([0.01, 0.0]))
    assert np.array_equal(object_pos(res.next_state), [0.6, 0.6])
    assert np.allclose(robot_pos(res.next_state), [0.21, 0.2], atol=1e-15)


def test_touching_push_displacement_is_sqrt2(point_push_spec):
    # robot exactly at contact distance: a head-on push of size s moves both
    # discs by s, so the state moves by s * sqrt(2)
    s = 0.01
    state = _pp_state((0.42, 0.5), (0.5, 0.5))
    res = step(point_push_spec, state, np.array([s, 0.0]))
    moved = np.linalg.norm(res.next_state.vec - state.vec)
    assert moved == pytest.approx(s * math.sqrt(2.0), abs=1e-12)


def test_control_clipped_to_u_max(point_push_spec):
    state = _pp_state((0.2, 0.2), (0.6, 0.6))
    res = step(point_push_spec, state, np.array([1.0, 0.0]))
    assert np.allclose(
        robot_pos(res.next_state), [0.2 + point_push_spec.u_max, 0.2], atol=1e-15
    )


def test_robot_clipped_to_workspace(point_push_spec):
    state = _pp_state((0.99, 0.5), (0.5, 0.2))
    res = step(point_push_spec, state, np.array([0.05, 0.0]))
    assert robot_pos(res.next_state)[0] == 1.0


def test_control_shape_and_finiteness_validated(point_push_spec):
    state = _pp_state((0.2, 0.2), (0.6, 0.6))
    with pytest.raises(InvalidInputError):
        step(point_push_spec, state, np.array([0.01]))
    with pytest.raises(InvalidInputError):
        step(point_push_spec, state, np.array([np.nan, 0.0]))


def test_displacement_bound_monte_carlo(point_push_spec, line_track_spec):
    # one applied control may move the full state by at most K * ||u||
    rng = np.random.default_rng(11)
    for spec in (point_push_spec, line_track_spec):
        K = dynamics_constant(spec)
        for _ in range(2000):
            state = random_state(spec, rng)
            raw = rng.normal(size=2)
            u = raw / np.linalg.norm(raw) * rng.uniform(0.0, spec.u_max)
            res = step(spec, state, u)
            moved = np.linalg.norm(res.next_state.vec - state.vec)
            assert moved <= K * np.linalg.norm(u) + 1e-12


# ---------------------------------------------------------------------------
# constraints and goals


def test_constraint_boundary_counts_as_violation(point_push_spec):
    c = np.array(point_push_spec.constraint_regions[0][0])
    contact = point_push_spec.constraint_regions[0][1] + point_push_spec.robot_radius
    inside = _pp_state(c + [contact - 1e-4, 0.0], (0.9, 0.9))
    outside = _pp_state(c + [contact + 1e-4, 0.0], (0.9, 0.9))
    assert not check_constraint(point_push_spec, inside)
    assert check_constraint(point_push_spec, outside)


def test_object_also_subject_to_keepout(point_push_spec):
    c = np.array(point_push_spec.constraint_regions[1][0])
    state = _pp_state((0.1, 0.1), c)
    assert not check_constraint(point_push_spec, state)


def test_goal_is_object_position_only(point_push_spec):
    goal = np.array(point_push_spec.goal_center)
    assert reached_goal(point_push_spec, _pp_state((0.1, 0.1), goal))
    edge = goal + [point_push_spec.goal_radius - 1e-9, 0.0]
    assert reached_goal(point_push_spec, _pp_state((0.1, 0.1), edge))
    past = goal + [point_push_spec.goal_radius + 1e-6, 0.0]
    assert not reached_goal(point_push_spec, _pp_state((0.1, 0.1), past))
    # robot inside the goal region does not count
    assert not reached_goal(point_push_spec, _pp_state(goal, (0.2, 0.2)))


def test_line_track_limits(line_track_spec):
    lim = line_track_spec.deviation_limit
    assert check_constraint(line_track_spec, EnvState(vec=np.array([0.0, lim - 1e-9])))
    assert not check_constraint(line_track_spec, EnvState(vec=np.array([0.0, lim])))
    assert reached_goal(line_track_spec, EnvState(vec=np.array([40.0, 0.0])))
    assert not reached_goal(line_track_spec, EnvState(vec=np.array([39.9, 0.0])))


# ---------------------------------------------------------------------------
# line_track arithmetic and the disturbance stream


def test_line_track_step_without_stream(line_track_spec):
    state = EnvState(vec=np.array([1.0, 0.5]), offset=0.0)
    res = step(line_track_spec, state, np.array([0.5, -0.2]))
    assert np.allclose(res.next_state.vec, [1.5, 0.3], atol=1e-15)
    assert res.next_state.offset == 0.0


def test_line_track_step_subtracts_stream_delta(line_track_spec):
    stream = DisturbanceStream(line_track_spec, seed=0)
    probe = DisturbanceStream(line_track_spec, seed=0)
    expected_delta = probe.increment()
    state = EnvState(vec=np.array([0.0, 0.0]), offset=0.0)
    res = step(line_track_spec, state, np.array([0.5, 0.0]), stream=stream)
    assert res.next_state.vec[1] == pytest.approx(-expected_delta, abs=1e-15)
    assert res.next_state.offset == pytest.approx(expected_delta, abs=1e-15)


def test_stream_increments_bounded_and_reflected(line_track_spec):
    d = line_track_spec.disturbance
    stream = DisturbanceStream(line_track_spec, seed=5)
    for _ in range(5000):
        delta = stream.increment()
        assert abs(delta) <= d.amplitude + 1e-12
        assert abs(stream.offset) <= d.bound + 1e-12


def test_stream_deterministic_per_seed(line_track_spec):
    a = DisturbanceStream(line_track_spec, seed=9)
    b = DisturbanceStream(line_track_spec, seed=9)
    assert [a.increment() for _ in range(50)] == [b.increment() for _ in range(50)]


def test_none_process_stream_is_silent(point_push_spec):
    stream = DisturbanceStream(point_push_spec, seed=3)
    assert all(stream.increment() == 0.0 for _ in range(10))
    assert stream.offset == 0.0


# ---------------------------------------------------------------------------
# reset and random states


def test_reset_deterministic_and_valid(point_push_spec):
    a = reset(point_push_spec, 4)
    b = reset(point_push_spec, 4)
    c = reset(point_push_spec, 5)
    assert np.array_equal(a.vec, b.vec)
    assert not np.array_equal(a.vec, c.vec)
    assert check_constraint(point_push_spec, a)
    (lo, _), (hi, _) = point_push_spec.object_start_box
    assert lo <= object_pos(a)[0] <= hi
    assert np.array_equal(robot_pos(a), point_push_spec.robot_start)


def test_reset_line_track_is_origin(line_track_spec):
    state = reset(line_track_spec, 123)
    assert np.array_equal(state.vec, [0.0, 0.0])
    assert state.offset == 0.0


def test_random_state_is_always_valid(point_push_spec, rng):
    for _ in range(50):
        s = random_state(point_push_spec, rng)
        assert check_constraint(point_push_spec, s)
        gap = np.linalg.norm(object_pos(s) - robot_pos(s))
        assert gap > point_push_spec.robot_radius + point_push_spec.object_radius


# ---------------------------------------------------------------------------
# handle semantics


def test_handle_step_ticks_stream_micro_step_does_not(line_track_spec):
    stream = DisturbanceStream(line_track_spec, seed=1)
    handle = EnvHandle(line_track_spec, stream=stream)
    state = EnvState(vec=np.zeros(2), offset=0.0)
    before = stream.offset
    handle.micro_step(state, np.array([0.1, 0.0]))
    assert stream.offset == before
    handle.step(state, np.array([0.1, 0.0]))
    assert stream.offset != before


# ---------------------------------------------------------------------------
# spec serialization


def test_spec_document_round_trip(tmp_path, point_push_spec, line_track_spec):
    for spec in (point_push_spec, line_track_spec):
        path = tmp_path / f"{spec.kind}.json"
        path.write_text(json.dumps(env_spec_to_document(spec)))
        back = load_env_spec(path)
        assert back == spec


def test_load_env_spec_by_name(point_push_spec):
    assert load_env_spec("point_push") == point_push_spec
    with pytest.raises(InvalidInputError):
        load_env_spec("warehouse")


def test_builtin_env_spec_unknown_name():
    with pytest.raises(InvalidInputError):
        builtin_env_spec("freeway")
