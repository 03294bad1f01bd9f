"""Scripted demonstration generation: success guarantees, determinism,
jitter, and the JSONL on-disk format."""

import dataclasses
import math

import numpy as np
import pytest

from dfrlab.envs import check_constraint, reached_goal
from dfrlab.errors import InvalidInputError
from dfrlab.supervisor import (
    demo_prefix,
    generate_demos,
    load_demos,
    save_demos,
    supervisor_action,
)


def test_point_push_demos_complete_and_safe(point_push_spec, pp_demos):
    assert len(pp_demos) == 20
    for traj in pp_demos.trajectories:
        assert traj.outcome == "completed"
        assert len(traj.states) <= point_push_spec.horizon + 1
        for vec in traj.states:
            assert check_constraint(point_push_spec, vec)
        assert reached_goal(point_push_spec, traj.states[-1])


def test_point_push_demo_controls_respect_cap(point_push_spec, pp_demos):
    for traj in pp_demos.trajectories:
        norms = np.linalg.norm(traj.controls, axis=1)
        assert (norms <= point_push_spec.u_max + 1e-12).all()


def test_generate_demos_deterministic(point_push_spec):
    a = generate_demos(point_push_spec, 5, seed=3)
    b = generate_demos(point_push_spec, 5, seed=3)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.controls, tb.controls)


def test_line_track_demos_have_zero_deviation(line_track_spec):
    demos = generate_demos(line_track_spec, 4, seed=0)
    for traj in demos.trajectories:
        assert traj.outcome == "completed"
        assert np.array_equal(traj.states[:, 1], np.zeros(len(traj.states)))


def test_line_track_jitter_perturbs_deviation(line_track_spec):
    demos = generate_demos(line_track_spec, 6, seed=0, jitter_sigma=0.1)
    devs = np.concatenate([t.states[:, 1] for t in demos.trajectories])
    assert np.abs(devs).max() > 0.0
    # small jitter keeps the supervisor well inside the track
    assert np.abs(devs).max() < line_track_spec.deviation_limit
    for traj in demos.trajectories:
        assert traj.outcome == "completed"


def test_jitter_changes_point_push_trajectories(point_push_spec):
    clean = generate_demos(point_push_spec, 3, seed=7)
    noisy = generate_demos(point_push_spec, 3, seed=7, jitter_sigma=0.005)
    same = all(
        np.array_equal(a.states, b.states)
        for a, b in zip(clean.trajectories, noisy.trajectories)
    )
    assert not same


@pytest.mark.parametrize(
    "seed, sigma, message",
    [(-1, 0.0, "demo seed must be non-negative"), (0, -1.0, "jitter sigma"),
     (0, math.inf, "jitter sigma"), (0, math.nan, "jitter sigma")],
    ids=["negative-seed", "negative-jitter", "infinite-jitter", "nan-jitter"],
)
def test_generate_demos_rejects_bad_seed_and_jitter(point_push_spec, seed, sigma, message):
    with pytest.raises(InvalidInputError, match=message):
        generate_demos(point_push_spec, 2, seed=seed, jitter_sigma=sigma)


def test_failed_demos_are_input_errors_naming_sigma(point_push_spec):
    # too much jitter drives the supervisor into a constraint region
    with pytest.raises(InvalidInputError, match="constraint region .* sigma=0.3"):
        generate_demos(point_push_spec, 5, seed=0, jitter_sigma=0.3)
    # a horizon too short to reach the goal
    short = dataclasses.replace(point_push_spec, horizon=1)
    with pytest.raises(InvalidInputError, match="did not reach the goal .* sigma=0"):
        generate_demos(short, 2, seed=0)
    # a start box of one point gives every demo the same states
    (lo_x, lo_y), _ = point_push_spec.object_start_box
    fixed = dataclasses.replace(point_push_spec, object_start_box=((lo_x, lo_y), (lo_x, lo_y)))
    with pytest.raises(InvalidInputError, match="zero variance .* sigma=0"):
        generate_demos(fixed, 2, seed=0)


def test_a_refused_start_fails_the_set_before_any_rollout(point_push_spec):
    # Demo 0 cannot reach the goal in one step, but the start box also puts
    # demos 7 and 11 onto the robot, and every start is reset first.
    spec = dataclasses.replace(point_push_spec, horizon=1,
                               object_start_box=((0.1, 0.45), (0.3, 0.55)))
    with pytest.raises(InvalidInputError, match="did not reach the goal"):
        generate_demos(spec, 7, seed=0)
    with pytest.raises(InvalidInputError, match="robot and object overlapping"):
        generate_demos(spec, 8, seed=0)


def _same_demos(a, b):
    assert len(a) == len(b)
    for x, y in zip(a.trajectories, b.trajectories):
        assert x.seed == y.seed and x.outcome == y.outcome
        assert x.states.tobytes() == y.states.tobytes()
        assert x.controls.tobytes() == y.controls.tobytes()


# Demo sets are nested: the harness generates each demo seed's set once, at
# its largest count, and fits every smaller cell on a prefix of it.
@pytest.mark.parametrize("env, sigma", [("point_push", 0.0), ("point_push", 0.005),
                                        ("line_track", 0.0), ("line_track", 0.1)])
def test_demo_sets_are_nested(point_push_spec, line_track_spec, env, sigma):
    spec = point_push_spec if env == "point_push" else line_track_spec
    large = generate_demos(spec, 9, seed=6, jitter_sigma=sigma)
    for k in (2, 5, 9):
        small = generate_demos(spec, k, seed=6, jitter_sigma=sigma)
        _same_demos(small, demo_prefix(spec, large, k, sigma))
        _same_demos(small, type(large)(trajectories=large.trajectories[:k]))


def test_demo_prefix_keeps_the_zero_variance_check(point_push_spec):
    # one point_push demo has zero variance in every slice
    with pytest.raises(InvalidInputError, match="zero variance") as alone:
        generate_demos(point_push_spec, 1, seed=5, jitter_sigma=0.005)
    large = generate_demos(point_push_spec, 3, seed=5, jitter_sigma=0.005)
    with pytest.raises(InvalidInputError, match="zero variance") as prefix:
        demo_prefix(point_push_spec, large, 1, 0.005)
    assert str(prefix.value) == str(alone.value)
    for n in (0, 4):
        with pytest.raises(InvalidInputError, match="for a prefix"):
            demo_prefix(point_push_spec, large, n)


def test_supervisor_action_is_finite_and_capped(point_push_spec, rng):
    from dfrlab.envs import random_state

    for _ in range(100):
        state = random_state(point_push_spec, rng)
        u = supervisor_action(point_push_spec, state)
        assert np.isfinite(u).all()
        assert np.linalg.norm(u) <= point_push_spec.u_max + 1e-12


def test_demo_states_vary_within_slices(pp_demos):
    # the start box randomization must carry into later time slices, or the
    # slice estimators would degenerate
    for t in (0, 3, 8):
        pts = pp_demos.states_at(t)
        assert pts.std(axis=0).max() > 1e-3


def test_save_load_round_trip(tmp_path, pp_demos):
    path = tmp_path / "demos.jsonl"
    save_demos(pp_demos, path)
    back = load_demos(path)
    assert len(back) == len(pp_demos)
    for ta, tb in zip(pp_demos.trajectories, back.trajectories):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.controls, tb.controls)
        assert ta.outcome == tb.outcome
        assert ta.seed == tb.seed


def test_load_demos_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seed": 0}\n')
    with pytest.raises(InvalidInputError, match="malformed demo record"):
        load_demos(path)


def test_load_demos_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(InvalidInputError, match="no trajectories"):
        load_demos(path)
