"""The per-call rollout functions against numpy reference formulas, bit for bit.

point_push step, check_constraint and reached_goal, TimeVaryingSupport.g_at
and Policy.action compute with Python floats and cached constants, and
records.record_line builds each line by hand.  The references below are the
straightforward forms of the same arithmetic and the json.dumps of the
record document; every stored value must come out with identical bits, and
every line byte for byte, so records hashes do not move.  A 2-vector norm in
the references is np.sqrt((v * v).sum()), numpy's own loops with no BLAS
call, as envs._dist computes it in floats.  A norm's last bit decides a
threshold test, so states within 1e-12 of the contact, keep-out and control
limits are checked too.  Also covers the input checks these functions keep.
"""

import copy
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dfrlab
from dfrlab.controllers import _apply, switch_threshold
from dfrlab.envs import (
    _dist,
    check_constraint,
    env_spec_to_document,
    reached_goal,
    step,
)
from dfrlab.errors import InvalidInputError
from dfrlab.kernel_ocsvm import KernelParams, OcsvmParams, decision_value
from dfrlab.records import (
    RECORD_FORMAT, RECORD_VERSION, AppliedRecord, RecoveryStep, RolloutRecord, StepRecord,
    record_line, record_to_document,
)
from dfrlab.support import TimeVaryingSupport, fit_time_varying
from dfrlab.util import float_list


# ---------------------------------------------------------------------------
# reference formulas


def ref_norm(v):
    """The norm of a 2-vector, with no BLAS call."""
    return float(np.sqrt((v * v).sum()))


def ref_clip_control(spec, u):
    u = np.asarray(u, dtype=float)
    norm = ref_norm(u)
    if norm > spec.u_max:
        u = u * (spec.u_max / norm)
    return u


def ref_push_vec(spec, state, u):
    """point_push next state vector."""
    u = ref_clip_control(spec, u)
    lo, hi = np.asarray(spec.workspace[0]), np.asarray(spec.workspace[1])
    r = state[0:2]
    o = state[2:4].copy()
    r_new = np.clip(r + u, lo, hi)
    d = o - r_new
    dist = ref_norm(d)
    depth = (spec.robot_radius + spec.object_radius) - dist
    if depth > 0.0:
        if dist > 1e-12:
            normal = d / dist
        else:
            un = ref_norm(u)
            normal = u / un if un > 0 else np.array([1.0, 0.0])
        o = o + depth * normal
    return np.concatenate([r_new, o, state[4:6]])


def ref_decision_value(model, x):
    diff = model.support_vectors - x[None, :]
    k = np.exp(-model.kernel.gamma * (diff * diff).sum(axis=1))
    return float(model.alphas @ k) - model.rho


def ref_check_constraint(spec, state):
    r, o = state[0:2], state[2:4]
    for (cx, cy), radius in spec.constraint_regions:
        c = np.array([cx, cy])
        if ref_norm(r - c) <= radius + spec.robot_radius:
            return False
        if ref_norm(o - c) <= radius + spec.object_radius:
            return False
    return True


def ref_reached_goal(spec, state):
    return ref_norm(state[2:4] - np.asarray(spec.goal_center)) <= spec.goal_radius


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _pp(robot, obj, goal=(0.8, 0.5)):
    return np.array([*robot, *obj, *goal], dtype=float)


def _assert_step_matches(spec, state, u):
    """The next state, and the end a controller records for the motion."""
    u = np.asarray(u, dtype=float)
    nxt = step(spec, state, u)
    assert _bits(nxt) == _bits(ref_push_vec(spec, state, u))
    collided = not ref_check_constraint(spec, nxt)
    reached = ref_reached_goal(spec, nxt)
    # on a fresh step and after an earlier motion's end: a colliding motion
    # wins in either order, and a step's end is never undone
    for before in (None, "completed", "collided"):
        out = _apply(StepRecord(0, None, [], end=before), spec, AppliedRecord(u, "policy", nxt))
        assert out.applied[-1].state is nxt
        assert out.end == ("collided" if collided else before or ("completed" if reached else None))
    return nxt


coord = st.floats(0.0, 1.0)
offset = st.floats(-0.15, 0.15)


# ---------------------------------------------------------------------------
# point_push step


@given(coord, coord, st.floats(-0.035, 0.035), st.floats(-0.035, 0.035))
def test_step_free_motion(point_push_spec, rx, ry, ux, uy):
    # the object sits far from the robot: no contact, no clipping
    obj = (rx + 0.5 if rx < 0.5 else rx - 0.5, ry)
    state = _pp((rx, ry), obj)
    nxt = _assert_step_matches(point_push_spec, state, (ux, uy))
    assert _bits(nxt[2:4]) == _bits(obj)


@given(st.sampled_from([-0.0, 0.0, 1.0]), coord, st.floats(0.0, 0.05), st.floats(-0.03, 0.03))
@example(-0.0, 0.5, 0.0, 0.0)  # -0.0 + -0.0 clips to +0.0
def test_step_clips_to_workspace(point_push_spec, edge, ry, push, uy):
    # the robot starts on the left or right workspace edge and pushes outward
    ux = -push if edge == 0.0 else push
    state = _pp((edge, ry), (0.5, 0.5))
    nxt = _assert_step_matches(point_push_spec, state, (ux, uy))
    assert nxt[0] == edge


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
    nxt = _assert_step_matches(point_push_spec, _pp(robot, tuple(landing)), u)
    assert not np.array_equal(nxt[2:4], landing)


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
# states within 1e-12 of a threshold


def _at_distance(center, radius, rng, i):
    """A point whose distance from center lies within 1e-12 of radius,
    relative: on every third call a few ulps from it, else a uniform offset."""
    if i % 3 == 0:
        d = radius + int(rng.integers(-4, 5)) * math.ulp(radius)
    else:
        d = radius * (1.0 + rng.uniform(-1e-12, 1e-12))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (center[0] + d * math.cos(theta), center[1] + d * math.sin(theta))


def test_step_near_the_contact_distance(point_push_spec):
    # the object's centre sits within 1e-12 of the contact distance from
    # where the robot lands, so the push-out runs on some states and not
    # on others, decided by the last bits of the norm
    spec = point_push_spec
    contact = spec.robot_radius + spec.object_radius
    rng = np.random.default_rng(3)
    pushed = set()
    for i in range(3000):
        robot = rng.uniform(0.2, 0.8, 2)
        u = rng.uniform(-0.03, 0.03, 2) if i % 2 else np.zeros(2)  # never clipped
        obj = _at_distance(robot + u, contact, rng, i)
        state = _pp(robot, obj)
        nxt = step(spec, state, u)
        assert _bits(nxt) == _bits(ref_push_vec(spec, state, u)), (state.tolist(), u.tolist())
        pushed.add(not np.array_equal(nxt[2:4], obj))
    assert pushed == {True, False}


def test_check_constraint_near_the_keep_out_reaches(point_push_spec):
    spec = point_push_spec
    far = (0.1, 0.5)  # clear of both regions
    rng = np.random.default_rng(4)
    verdicts = set()
    for i in range(4000):
        (cx, cy), radius = spec.constraint_regions[i % 2]
        if i % 4 < 2:
            state = _pp(_at_distance((cx, cy), radius + spec.robot_radius, rng, i), far)
        else:
            state = _pp(far, _at_distance((cx, cy), radius + spec.object_radius, rng, i))
        ok = check_constraint(spec, state)
        assert ok == ref_check_constraint(spec, state), state.tolist()
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_step_near_the_control_limit(point_push_spec, line_track_spec):
    # a control within 1e-12 of u_max is scaled down or not by the last
    # bits of its norm, in both environments
    rng = np.random.default_rng(5)
    for spec in (point_push_spec, line_track_spec):
        clipped = set()
        for i in range(3000):
            u = np.array(_at_distance((0.0, 0.0), spec.u_max, rng, i))
            if spec.kind == "point_push":
                state = _pp(rng.uniform(0.2, 0.8, 2), (0.1, 0.1))
                expected = ref_push_vec(spec, state, u)
            else:
                state = rng.uniform(-1.0, 1.0, 2)
                expected = state + ref_clip_control(spec, u)
            assert _bits(step(spec, state, u)) == _bits(expected), (spec.kind, u.tolist())
            clipped.add(not np.array_equal(ref_clip_control(spec, u), u))
        assert clipped == {True, False}


# ---------------------------------------------------------------------------
# 2-vector norms, and what does not depend on the BLAS kernel


def test_norm_matches_the_array_form():
    # the array form a batched step or switching test would take
    rng = np.random.default_rng(6)
    D = rng.normal(size=(10**5, 2)) * 10.0 ** rng.uniform(-8.0, 2.0, size=(10**5, 1))
    expected = np.sqrt(D[:, 0] ** 2 + D[:, 1] ** 2)
    assert _bits([_dist(dx, dy) for dx, dy in D.tolist()]) == _bits(expected)
    for lam in (0.05, 6.644):
        assert _bits([switch_threshold(row, lam) for row in D]) == _bits(lam * expected)


_BLAS_SETTINGS = ({}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_NUM_THREADS": "1"})

# Hashes the 120-demo point_push set of demo seed 5, as `dfrlab demos` writes
# it, and a batch of point_push steps near contact and their thresholds.
_PLATFORM_PROBE = """
import hashlib, json, os, sys, tempfile
import numpy as np
from dfrlab.controllers import switch_threshold
from dfrlab.envs import builtin_env_spec, step
from dfrlab.supervisor import generate_demos, save_demos
spec = builtin_env_spec("point_push")
out = {}
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "demos.jsonl")
    save_demos(generate_demos(spec, 120, seed=5), path)
    with open(path, "rb") as fh:
        out["demos"] = hashlib.sha256(fh.read()).hexdigest()
rng = np.random.default_rng(7)
steps, thresholds = hashlib.sha256(), hashlib.sha256()
for _ in range(3000):
    robot = rng.uniform(0.2, 0.8, 2)
    u = rng.uniform(-0.04, 0.04, 2)
    obj = robot + u + rng.uniform(-0.09, 0.09, 2)
    steps.update(step(spec, np.concatenate([robot, obj, (0.8, 0.5)]), u).tobytes())
    thresholds.update(np.float64(switch_threshold(u, 0.05)).tobytes())
out["steps"], out["thresholds"] = steps.hexdigest(), thresholds.hexdigest()
json.dump(out, sys.stdout)
"""


def test_demos_steps_and_thresholds_do_not_depend_on_blas():
    # environment variables of the probe's own processes only
    src = os.path.dirname(os.path.dirname(dfrlab.__file__))
    results = []
    for setting in _BLAS_SETTINGS:
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}
        env.update(setting, PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _PLATFORM_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    for setting, result in zip(_BLAS_SETTINGS, results):
        assert result == results[0], setting


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


@pytest.fixture(scope="module")
def projected_supports(pp_demos, projected_support):
    """Projections [3, 2, 0], a permutation; [0, 2], with a gap; and [2, 3],
    a run of consecutive indices not starting at 0, which g_at reads as a
    slice view."""
    params = OcsvmParams(nu=0.05, kernel=KernelParams(gamma=15.0))
    return [projected_support] + [fit_time_varying(pp_demos, params, projection=p)
                                  for p in ([0, 2], [2, 3])]


@given(st.integers(0, 60), st.lists(st.floats(-0.2, 1.2), min_size=6, max_size=6))
def test_g_at_matches_decision_value_projected(projected_supports, t, x):
    x = np.asarray(x)
    for sup in projected_supports:
        expected = ref_decision_value(sup.estimators[sup.estimator_index(t)],
                                      x[sup.projection.tolist()])
        assert _bits(sup.g_at(t, x)) == _bits(expected), sup.projection


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
# Policy.features and Policy.action


def ref_features(policy, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = (X * X).sum(axis=1)[:, None] + (policy.centers * policy.centers).sum(axis=1)[None, :] \
        - 2.0 * (X @ policy.centers.T)
    np.maximum(sq, 0.0, out=sq)
    phi = np.exp(-sq / (2.0 * policy.bandwidth**2))
    return np.concatenate([phi, X, np.ones((X.shape[0], 1))], axis=1)


@given(st.lists(st.lists(st.floats(-0.5, 1.5), min_size=6, max_size=6), min_size=1, max_size=9))
def test_policy_features_match_the_concatenated_formula(pp_policy, rows):
    X = np.asarray(rows)
    for x in (X, X[0]):  # a batch and one state
        F = pp_policy.features(x)
        ref = ref_features(pp_policy, x)
        assert F.shape == ref.shape and _bits(F) == _bits(ref)


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


def test_policy_action_reuses_its_row_but_not_its_results(pp_policy, rng):
    x1, x2 = rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 6)
    u1 = pp_policy.action(x1)
    before = _bits(u1)
    pp_policy.action(x2)
    assert _bits(u1) == before == _bits(pp_policy.action(x1))


def test_policy_feature_row_is_not_pickled(pp_policy, rng):
    assert set(pp_policy.__getstate__()) == {f.name for f in dataclasses.fields(pp_policy)}
    back = pickle.loads(pickle.dumps(pp_policy))
    assert back._row is not pp_policy._row
    x = rng.uniform(0.0, 1.0, 6)
    assert _bits(back.action(x)) == _bits(pp_policy.action(x))


# ---------------------------------------------------------------------------
# record_line


def ref_record_to_document(record):
    """The record document written out field by field, whose compact
    json.dumps record_line must give byte for byte."""
    return {
        "format": RECORD_FORMAT,
        "version": RECORD_VERSION,
        "seed": record.seed,
        "controller": record.controller,
        "outcome": record.outcome,
        "halt_reason": record.halt_reason,
        "recovery_iterations": int(record.recovery_iterations),
        "g_min": None if record.g_min is None else float(record.g_min),
        "start_state": float_list(record.start_state),
        "steps": [
            {
                "t": int(s.t),
                "g": None if s.g is None else float(s.g),
                "applied": [
                    {"u": float_list(a.u), "tag": a.tag, "state": float_list(a.state)}
                    for a in s.applied
                ],
                "recovery": [
                    {
                        "g_probe": float(e.g_probe),
                        "g_after": float(e.g_after),
                        "flipped": bool(e.flipped),
                        "threshold": float(e.threshold),
                    }
                    for e in s.recovery
                ],
            }
            for s in record.steps
        ],
    }


def ref_record_line(record):
    return json.dumps(ref_record_to_document(record), separators=(",", ":"), allow_nan=False)


# finite floats, with both zeros, tiny and huge magnitudes and short and
# 17-digit decimals drawn often
finite = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, -0.5, 1.0, 1e-300, 5e-324, 1e300, 0.1 + 0.2]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
)
text = st.one_of(st.sampled_from(["policy", "probe", "recovery", "zero"]), st.text(max_size=6))


@st.composite
def records(draw):
    """A record whose steps pick their motions and iterations from small
    pools, so objects repeat within a step and across steps as the
    oracle's replayed cycles do."""
    dim = draw(st.sampled_from([2, 6]))
    vector = st.lists(finite, min_size=dim, max_size=dim).map(np.array)
    motions = draw(st.lists(st.builds(AppliedRecord, u=st.lists(finite, min_size=2, max_size=2)
                                      .map(np.array), tag=text, state=vector),
                            min_size=1, max_size=4))
    iterations = draw(st.lists(st.builds(RecoveryStep, g_probe=finite, g_after=finite,
                                         flipped=st.booleans(), threshold=finite),
                               min_size=1, max_size=4))
    steps = [
        StepRecord(
            t=draw(st.integers(0, 100)),
            g=draw(st.none() | finite),
            applied=draw(st.lists(st.sampled_from(motions), max_size=5)),
            recovery=draw(st.lists(st.sampled_from(iterations), max_size=5)),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return RolloutRecord(
        seed=draw(st.integers(0, 2**63) | st.lists(st.integers(0, 2**40), max_size=4)),
        controller=draw(text),
        outcome=draw(text),
        start_state=draw(vector),
        steps=steps,
        halt_reason=draw(st.none() | text),
        recovery_iterations=draw(st.integers(0, 10**6)),
        g_min=draw(st.none() | finite),
    )


def _signed_zeros_record():
    shared = AppliedRecord(np.array([0.0, -0.0]), "zero", np.array([-0.0, 0.0, 0.8, 0.5, 0.8, 0.5]))
    again = RecoveryStep(g_probe=-0.0, g_after=0.0, flipped=False, threshold=0.1)
    steps = [StepRecord(0, -0.0, [shared, shared], [again, again]),
             StepRecord(1, 0.0, [AppliedRecord(np.array([-0.0, -0.0]), "policy", shared.state)])]
    return RolloutRecord(seed=[7, 0], controller="oracle", outcome="halted",
                         start_state=np.array([0.0, -0.0, 0.8, 0.5, 0.8, 0.5]), steps=steps,
                         halt_reason="recovery-cap", recovery_iterations=2, g_min=-0.0)


@given(records())
@example(_signed_zeros_record())
def test_record_line_is_the_compact_json_of_the_document(record):
    line = ref_record_line(record)
    assert record_line(record) == line
    assert record_to_document(record) == json.loads(line)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["u", "state", "start_state", "g", "g_min", "g_probe",
                                   "g_after", "threshold"])
def test_record_line_refuses_non_finite_floats(bad, where):
    record = _signed_zeros_record()
    step = record.steps[0]
    if where in ("u", "state"):
        getattr(step.applied[0], where)[1] = bad
    elif where == "start_state":
        record.start_state[0] = bad
    elif where == "g":
        step.g = bad
    elif where == "g_min":
        record.g_min = bad
    else:
        step.recovery[0] = dataclasses.replace(step.recovery[0], **{where: bad})
    with pytest.raises(ValueError):
        ref_record_line(record)
    with pytest.raises(ValueError):
        record_line(record)
