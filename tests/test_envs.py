"""Environment unit tests: contact geometry closed forms, the displacement
bounds, disturbance stream laws, and spec serialization."""

import dataclasses
from importlib.resources import files
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dfrlab.envs import (
    _dist,
    DisturbanceStream,
    EnvHandle,
    builtin_env_spec,
    check_constraint,
    dynamics_constant,
    env_spec_from_document,
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
    return np.array([*robot, *obj, *goal], dtype=float)


# ---------------------------------------------------------------------------
# point_push contact geometry


def test_contact_push_closed_form(point_push_spec):
    # robot at 0.42 moves to 0.44; gap to the object center is 0.06, the
    # contact distance is 0.08, so the object is pushed out by exactly 0.02
    state = _pp_state((0.42, 0.5), (0.5, 0.5))
    nxt = step(point_push_spec, state, np.array([0.02, 0.0]))
    assert np.allclose(robot_pos(nxt), [0.44, 0.5], atol=1e-15)
    assert np.allclose(object_pos(nxt), [0.52, 0.5], atol=1e-12)
    assert check_constraint(point_push_spec, nxt)


def test_no_contact_means_no_object_motion(point_push_spec):
    state = _pp_state((0.2, 0.2), (0.6, 0.6))
    nxt = step(point_push_spec, state, np.array([0.01, 0.0]))
    assert np.array_equal(object_pos(nxt), [0.6, 0.6])
    assert np.allclose(robot_pos(nxt), [0.21, 0.2], atol=1e-15)


def test_touching_push_displacement_is_sqrt2(point_push_spec):
    # robot exactly at contact distance: a head-on push of size s moves both
    # discs by s, so the state moves by s * sqrt(2)
    s = 0.01
    state = _pp_state((0.42, 0.5), (0.5, 0.5))
    moved = np.linalg.norm(step(point_push_spec, state, np.array([s, 0.0])) - state)
    assert moved == pytest.approx(s * math.sqrt(2.0), abs=1e-12)


def test_control_clipped_to_u_max(point_push_spec):
    state = _pp_state((0.2, 0.2), (0.6, 0.6))
    nxt = step(point_push_spec, state, np.array([1.0, 0.0]))
    assert np.allclose(robot_pos(nxt), [0.2 + point_push_spec.u_max, 0.2], atol=1e-15)


def test_robot_clipped_to_workspace(point_push_spec):
    state = _pp_state((0.99, 0.5), (0.5, 0.2))
    nxt = step(point_push_spec, state, np.array([0.05, 0.0]))
    assert robot_pos(nxt)[0] == 1.0


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
            moved = np.linalg.norm(step(spec, state, u) - state)
            assert moved <= K * np.linalg.norm(u) + 1e-12


# The bounds each kind is proven to keep, which the spec's K may not undercut.
# The robot moves at most ||u||; from a non-overlapping state the push-out
# depth is at most the robot's motion, so ||dx||^2 <= 2 ||u||^2.
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi),
       st.floats(0.0, 0.1), st.floats(-0.06, 0.06), st.floats(-0.06, 0.06))
def test_point_push_step_moves_at_most_sqrt2_u(point_push_spec, rx, ry, angle, gap, ux, uy):
    spec = point_push_spec
    reach = spec.robot_radius + spec.object_radius + gap
    state = _pp_state((rx, ry), (rx + reach * math.cos(angle), ry + reach * math.sin(angle)))
    assume(_dist(*(object_pos(state) - robot_pos(state)).tolist()) >= spec.push.contact)
    moved = np.linalg.norm(step(spec, state, np.array([ux, uy])) - state)
    assert moved <= math.sqrt(2.0) * min(_dist(ux, uy), spec.u_max) + 1e-12


@given(st.floats(-50.0, 50.0), st.floats(-5.0, 5.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_line_track_step_moves_at_most_u(line_track_spec, x, y, ux, uy):
    state = np.array([x, y])
    moved = np.linalg.norm(step(line_track_spec, state, np.array([ux, uy])) - state)
    assert moved <= min(_dist(ux, uy), line_track_spec.u_max) + 1e-12


@pytest.mark.parametrize("kind, k, bound", [
    ("point_push", 1.0, "1.4142135623730951"),
    ("point_push", 1.414, "1.4142135623730951"),
    ("line_track", 0.99, "1"),
])
def test_spec_refuses_k_below_the_proven_bound(kind, k, bound):
    with pytest.raises(InvalidInputError, match=f"below the proven displacement bound {bound}"):
        dataclasses.replace(builtin_env_spec(kind), dyn_constant=k)
    dataclasses.replace(builtin_env_spec(kind), dyn_constant=float(bound))  # the bound itself loads


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
    assert check_constraint(line_track_spec, np.array([0.0, lim - 1e-9]))
    assert not check_constraint(line_track_spec, np.array([0.0, lim]))
    assert reached_goal(line_track_spec, np.array([40.0, 0.0]))
    assert not reached_goal(line_track_spec, np.array([39.9, 0.0]))


# ---------------------------------------------------------------------------
# line_track arithmetic and the disturbance stream


def test_line_track_step_without_stream(line_track_spec):
    nxt = step(line_track_spec, np.array([1.0, 0.5]), np.array([0.5, -0.2]))
    assert np.allclose(nxt, [1.5, 0.3], atol=1e-15)


def test_line_track_step_subtracts_stream_delta(line_track_spec):
    stream = DisturbanceStream(line_track_spec, seed=0)
    probe = DisturbanceStream(line_track_spec, seed=0)
    expected_delta = probe.increment()
    nxt = step(line_track_spec, np.array([0.0, 0.0]), np.array([0.5, 0.0]), stream=stream)
    assert nxt[1] == pytest.approx(-expected_delta, abs=1e-15)
    assert stream.offset == pytest.approx(expected_delta, abs=1e-15)


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
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert check_constraint(point_push_spec, a)
    (lo, _), (hi, _) = point_push_spec.object_start_box
    assert lo <= object_pos(a)[0] <= hi
    assert np.array_equal(robot_pos(a), point_push_spec.robot_start)


def test_reset_line_track_is_origin(line_track_spec):
    assert np.array_equal(reset(line_track_spec, 123), [0.0, 0.0])


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
    state = np.zeros(2)
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
    # a document written before state_bounds was dropped still loads, as the
    # builtin spec: the reader ignores the key
    doc = env_spec_to_document(point_push_spec)
    assert "state_bounds" not in doc
    doc["state_bounds"] = [[-0.2, -0.2], [1.2, 1.2]]
    path = tmp_path / "old_point_push.json"
    path.write_text(json.dumps(doc))
    assert load_env_spec(path) == builtin_env_spec("point_push") == point_push_spec


# A misspelt key used to be dropped: "enable" loaded the disturbance off.
@pytest.mark.parametrize("block, key, message", [
    (None, "horizonn", "unknown environment spec key(s): horizonn"),
    (None, "state_bounds", "unknown environment spec key(s): state_bounds"),  # point_push only
    ("disturbance", "enable", "unknown environment spec disturbance key(s): enable"),
])
def test_spec_document_refuses_unknown_keys(tmp_path, line_track_spec, block, key, message):
    doc = env_spec_to_document(line_track_spec)
    where = doc if block is None else doc[block]
    where[key] = where.pop("enabled", 1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
        load_env_spec(path)


# horizon went through int(): 40.7 loaded as 40, true as 1 and "40" as 40.
@pytest.mark.parametrize("horizon", [40.7, True, "40", math.inf, math.nan],
                         ids=["fraction", "bool", "string", "inf", "nan"])
def test_spec_refuses_a_horizon_that_is_not_an_integer(point_push_spec, line_track_spec,
                                                        horizon):
    message = "^horizon: expected an integer, got "
    for spec in (point_push_spec, line_track_spec):
        doc = env_spec_to_document(spec)
        doc["horizon"] = horizon
        with pytest.raises(InvalidInputError, match=message):
            env_spec_from_document(doc)
        with pytest.raises(InvalidInputError, match=message):
            dataclasses.replace(spec, horizon=horizon)


def test_spec_takes_an_integral_float_horizon_as_an_int(point_push_spec):
    doc = env_spec_to_document(point_push_spec)
    doc["horizon"] = 40.0
    spec = env_spec_from_document(doc)
    assert type(spec.horizon) is int and spec.horizon == 40
    assert spec == point_push_spec


# Float fields went through float() and enabled through bool(): "false"
# loaded the disturbance on, true as a u_max loaded as 1.0 and "0.03" as a
# robot radius loaded as 0.03.
@pytest.mark.parametrize("kind, block, key, value, message", [
    ("line_track", "disturbance", "enabled", "false",
     "disturbance.enabled: expected true or false, got 'false'"),
    ("point_push", "disturbance", "enabled", 0, "disturbance.enabled: expected true or false"),
    ("point_push", None, "u_max", True, "u_max: expected a finite real number, got True"),
    ("point_push", None, "robot_radius", "0.03",
     "robot_radius: expected a finite real number, got '0.03'"),
    ("line_track", None, "nominal_step", math.nan, "nominal_step: expected a finite real number"),
    ("line_track", None, "dyn_constant", math.inf, "dyn_constant: expected a finite real number"),
    ("point_push", None, "goal_radius", -math.inf, "goal_radius: expected a finite real number"),
    ("line_track", "disturbance", "amplitude", "0.5",
     "disturbance.amplitude: expected a finite real number"),
    ("point_push", None, "goal_center", [0.8, math.nan],
     "goal_center: expected a finite real number"),
    ("point_push", None, "constraint_regions", [[[0.5, 0.28], "0.08"]],
     "constraint_regions: expected a finite real number"),
])
def test_spec_refuses_a_field_of_the_wrong_type(kind, block, key, value, message):
    doc = env_spec_to_document(builtin_env_spec(kind))
    (doc if block is None else doc[block])[key] = value
    with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
        env_spec_from_document(doc)


@pytest.mark.parametrize("name", ["point_push", "line_track"])
def test_shipped_specs_load_unchanged(name):
    with open(files("dfrlab").joinpath("data", f"{name}.json")) as fh:
        doc = json.load(fh)
    spec = builtin_env_spec(name)
    assert type(spec.horizon) is int and spec.horizon == doc["horizon"]
    assert env_spec_to_document(spec) == doc


def test_load_env_spec_by_name(point_push_spec):
    assert load_env_spec("point_push") == point_push_spec
    with pytest.raises(InvalidInputError):
        load_env_spec("warehouse")


def test_builtin_env_spec_unknown_name():
    with pytest.raises(InvalidInputError):
        builtin_env_spec("freeway")
