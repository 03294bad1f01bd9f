"""Time-sliced support estimation: slicing, projection, the pooled-vs-sliced
failure construction, the second-order decision bound, and bundle
serialization."""

import json

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from dfrlab.envs import builtin_env_spec

from dfrlab.errors import InsufficientDataError, InvalidInputError
from dfrlab.kernel_ocsvm import KernelParams, OcsvmParams, decision_value, lipschitz_bound
from dfrlab.support import (
    DemoSet,
    TimeVaryingSupport,
    Trajectory,
    fit_pooled,
    fit_time_varying,
    load_support,
    make_failure_demo,
    save_support,
)
from dfrlab.supervisor import generate_demos


def _params(nu=0.5, gamma=1.0):
    return OcsvmParams(nu=nu, kernel=KernelParams(gamma=gamma))


def _traj(states, seed=0):
    states = np.asarray(states, dtype=float)
    controls = np.zeros((len(states) - 1, states.shape[1]))
    return Trajectory(states=states, controls=controls, seed=seed, outcome="completed")


@pytest.fixture()
def small_demos(rng):
    trajs = [_traj(rng.normal(size=(4, 2)) + 5.0, seed=i) for i in range(6)]
    return DemoSet(trajectories=trajs)


# ---------------------------------------------------------------------------
# trajectory / demo set validation


def test_trajectory_control_count_mismatch():
    states = np.zeros((3, 2))
    with pytest.raises(InvalidInputError, match="one control per step"):
        Trajectory(states=states, controls=np.zeros((3, 2)), seed=0, outcome="completed")


def test_demo_set_dimension_mismatch():
    trajs = [_traj(np.zeros((2, 2))), _traj(np.zeros((2, 3)))]
    with pytest.raises(InvalidInputError, match="state dimension"):
        DemoSet(trajectories=trajs)


def test_demo_set_horizon_and_slices(small_demos):
    assert small_demos.horizon == 3
    assert small_demos.states_at(0).shape == (6, 2)
    assert small_demos.all_states().shape == (24, 2)


def test_ragged_demo_set_reads_each_trajectorys_own_rows(rng):
    lengths = [4, 1, 6, 4, 2]
    trajs = [_traj(rng.normal(size=(n, 3)), seed=i) for i, n in enumerate(lengths)]
    demos = DemoSet(trajectories=trajs)
    assert demos.horizon == 5 and demos.state_dim == 3
    for t in range(8):
        rows = [traj.states[t] for traj in trajs if len(traj) > t]
        want = np.stack(rows) if rows else np.empty((0, 3))
        got = demos.states_at(t)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert demos.all_states().tobytes() == np.concatenate([t.states for t in trajs]).tobytes()


# ---------------------------------------------------------------------------
# fitting


def test_fit_time_varying_one_estimator_per_slice(small_demos):
    sup = fit_time_varying(small_demos, _params())
    assert len(sup.estimators) == 3
    x = small_demos.states_at(1)[0]
    assert sup.g_at(1, x) == decision_value(sup.estimators[1], x)


def test_time_index_clamps_to_last_slice(small_demos):
    sup = fit_time_varying(small_demos, _params())
    assert sup.estimator_index(0) == 0
    assert sup.estimator_index(2) == 2
    assert sup.estimator_index(99) == 2
    with pytest.raises(InvalidInputError, match=">= 0"):
        sup.estimator_index(-1)


def test_thin_slice_error_names_the_slice():
    trajs = [_traj(np.zeros((3, 2))), _traj(np.ones((1, 2)))]
    demos = DemoSet(trajectories=trajs)
    # slice 0 has two states, slice 1 only the first trajectory's
    with pytest.raises(InsufficientDataError, match="time slice 1"):
        fit_time_varying(demos, _params())


def test_projection_selects_coordinates(rng):
    # states are (x, junk); projecting onto coordinate 0 must ignore junk
    base = rng.normal(size=(5, 3, 1))
    trajs = []
    for i in range(5):
        junk = rng.normal(size=(3, 1)) * 100.0
        trajs.append(_traj(np.hstack([base[i], junk]), seed=i))
    demos = DemoSet(trajectories=trajs)
    sup = fit_time_varying(demos, _params(), projection=[0])
    a = sup.g_at(0, np.array([base[0, 0, 0], 1e6]))
    b = sup.g_at(0, np.array([base[0, 0, 0], -1e6]))
    assert a == b


def test_projection_out_of_range(small_demos):
    with pytest.raises(InvalidInputError, match="projection"):
        fit_time_varying(small_demos, _params(), projection=[0, 5])


def test_pooled_wrapped_as_single_slice(small_demos):
    model = fit_pooled(small_demos, _params())
    sup = TimeVaryingSupport(estimators=[model], projection=np.arange(2))
    x = small_demos.states_at(2)[0]
    # every time index routes to the one pooled estimator
    assert sup.g_at(0, x) == sup.g_at(50, x) == decision_value(model, x)


def test_lipschitz_at_matches_slice_bound(small_demos):
    sup = fit_time_varying(small_demos, _params())
    from dfrlab.kernel_ocsvm import lipschitz_bound

    assert sup.lipschitz_at(1) == lipschitz_bound(sup.estimators[1])


# ---------------------------------------------------------------------------
# the pooled-failure construction


def test_failure_demo_shape():
    demos = make_failure_demo(8, 12, seed=0)
    assert len(demos) == 8
    assert demos.horizon == 12
    for traj in demos.trajectories:
        assert len(traj.states) == 13
        # starts near the origin ball, then jumps to the far ball
        assert np.linalg.norm(traj.states[0]) <= 1.0 + 1e-12
        assert np.linalg.norm(traj.states[1] - [10.0, 0.0]) <= 1.0 + 1e-12


def test_failure_demo_dichotomy_small():
    # the start region is a tiny fraction of pooled mass, so the pooled
    # estimator rejects its center while the slice-0 estimator accepts it
    c0 = np.zeros(2)
    demos = make_failure_demo(30, 50, seed=3)
    params = _params(nu=0.05, gamma=5.0)
    pooled = fit_pooled(demos, params)
    sliced = fit_time_varying(demos, params)
    assert decision_value(pooled, c0) < 0.0
    assert sliced.g_at(0, c0) > 0.0


def test_failure_demo_rejects_tiny_parameters():
    with pytest.raises(InvalidInputError):
        make_failure_demo(1, 10, seed=0)
    with pytest.raises(InvalidInputError):
        make_failure_demo(5, 0, seed=0)


# ---------------------------------------------------------------------------
# bundle serialization


def test_bundle_round_trip(tmp_path, small_demos, rng):
    sup = fit_time_varying(small_demos, _params(), projection=[1, 0])
    out = tmp_path / "bundle"
    save_support(sup, out)
    back = load_support(out)
    assert len(back.estimators) == len(sup.estimators)
    assert np.array_equal(back.projection, sup.projection)
    for _ in range(10):
        x = rng.normal(size=2) + 5.0
        t = int(rng.integers(0, 5))
        assert back.g_at(t, x) == sup.g_at(t, x)


def test_load_support_rejects_non_bundle(tmp_path):
    (tmp_path / "manifest.json").write_text('{"format": "nope"}')
    with pytest.raises(InvalidInputError, match="not a support bundle"):
        load_support(tmp_path)


def test_bundle_round_trip_keeps_lipschitz_bounds(tmp_path, small_demos):
    sup = fit_time_varying(small_demos, _params())
    save_support(sup, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == 2
    assert "lipschitz" not in manifest
    back = load_support(tmp_path)
    for t in range(sup.horizon):
        assert back.lipschitz_at(t) == sup.lipschitz_at(t)


def test_version_1_bundle_is_refused(tmp_path, small_demos):
    # version 1 also stored each slice's Lipschitz bound; it no longer loads
    sup = fit_time_varying(small_demos, _params())
    save_support(sup, tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = 1
    manifest["lipschitz"] = [lipschitz_bound(e) for e in sup.estimators]
    path.write_text(json.dumps(manifest))
    with pytest.raises(InvalidInputError, match="bundle version 1; expected 2"):
        load_support(tmp_path)


@pytest.mark.parametrize("version", [0, 3, "2", None])
def test_unknown_bundle_version_is_rejected(tmp_path, small_demos, version):
    save_support(fit_time_varying(small_demos, _params()), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = version
    path.write_text(json.dumps(manifest))
    with pytest.raises(InvalidInputError, match="bundle version"):
        load_support(tmp_path)


# ---------------------------------------------------------------------------
# the second-order decision bound


@pytest.fixture(scope="module")
def shipped_slices():
    """The 120-demo point_push set of demo seed 5, its per-slice supports at
    the shipped nu and gamma, and the env's reach K * u_max."""
    spec = builtin_env_spec("point_push")
    demos = generate_demos(spec, 120, seed=5)
    support = fit_time_varying(demos, _params(nu=0.05, gamma=15.0))
    return demos, support, spec.dyn_constant * spec.u_max


def _decision_gradient(model, x):
    """The analytic gradient of g at x: sum_i alpha_i k(sv_i, x) 2 gamma (sv_i - x)."""
    gamma = model.kernel.gamma
    diff = model.support_vectors - x
    k = np.exp(-gamma * (diff * diff).sum(axis=1))
    return 2.0 * gamma * ((model.alphas * k) @ diff)


def _unit(rng):
    v = rng.normal(size=6)
    return v / np.linalg.norm(v)


# Each Gaussian kernel's Hessian has norm at most 2 gamma, so
# g(y) >= g(x) - ||grad g(x)|| delta - gamma * sum(alpha) * delta^2 for
# delta = ||y - x||.  Pairs: x near a demo state of the slice, and y within
# one step's reach K * u_max of it, half of them straight down the gradient,
# where the first-order term is tight.
@given(t=st.integers(0, 39), seed=st.integers(0, 2**32 - 1))
def test_second_order_bound_holds_within_a_step_of_the_demo_states(shipped_slices, t, seed):
    demos, support, reach = shipped_slices
    model = support.estimators[t]
    states = demos.states_at(t)
    curvature = model.kernel.gamma * float(model.alphas.sum())
    rng = np.random.default_rng(seed)
    for pair in range(16):
        x = states[rng.integers(len(states))] + rng.uniform(0.0, reach) * _unit(rng)
        grad = _decision_gradient(model, x)
        grad_norm = float(np.linalg.norm(grad))
        delta = rng.uniform(0.0, reach)
        toward = -grad / grad_norm if pair % 2 and grad_norm > 0.0 else _unit(rng)
        y = x + delta * toward
        delta = float(np.linalg.norm(y - x))
        bound = decision_value(model, x) - grad_norm * delta - curvature * delta**2
        assert decision_value(model, y) >= bound - 1e-12, (t, x, y)
