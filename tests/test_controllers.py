"""Policy regression and switching/recovery controllers.

Recovery laws are checked against a hand-built one-vector estimator whose
decision value has the closed form exp(-gamma * ||x - c||^2) - rho, so probe
radii, step magnitudes, and ascent directions are all analytic.
"""

import math

import numpy as np
import pytest

from dfrlab.controllers import (
    PolicyConfig,
    Policy,
    SwitchConfig,
    _farthest_point_indices,
    _recovery_magnitudes,
    dfr_recovery_iteration,
    effective_lambda,
    empirical_loss,
    finite_difference_oracle_step,
    fit_policy,
    load_policy,
    make_controller,
    save_policy,
    should_recover,
)
from dfrlab.envs import EnvHandle, EnvState, builtin_env_spec
from dfrlab.errors import InvalidInputError, OutsideSupportError
from dfrlab.kernel_ocsvm import KernelParams, OcsvmModel
from dfrlab.support import DemoSet, TimeVaryingSupport, Trajectory


def _radial_support(gamma=0.5, rho=0.1, center=(0.0, 0.0)):
    model = OcsvmModel(
        support_vectors=np.array([center], dtype=float),
        alphas=np.array([1.0]),
        rho=rho,
        kernel=KernelParams(gamma=gamma),
        nu=0.5,
        train_count=1,
    )
    return TimeVaryingSupport(estimators=[model], projection=np.arange(2))


def _g(support, x):
    return support.g_at(0, np.asarray(x, dtype=float))


def _constant_policy(u, clip=1.0, dim=2):
    weights = np.zeros((1 + dim + 1, 2))
    weights[-1] = u
    return Policy(
        centers=np.zeros((1, dim)),
        bandwidth=1.0,
        weights=weights,
        ridge=0.0,
        clip_norm=clip,
    )


@pytest.fixture()
def lt_handle(line_track_spec):
    return EnvHandle(line_track_spec)


# ---------------------------------------------------------------------------
# policy regression


def _linear_demos(rng, A, b, trajs=4, steps=12):
    out = []
    for i in range(trajs):
        states = rng.normal(size=(steps + 1, 2))
        controls = states[:-1] @ A.T + b
        out.append(
            Trajectory(states=states, controls=controls, seed=i, outcome="completed")
        )
    return DemoSet(trajectories=out)


def test_policy_recovers_linear_map_exactly(rng):
    A = np.array([[0.3, -0.2], [0.1, 0.4]])
    b = np.array([0.05, -0.02])
    demos = _linear_demos(rng, A, b)
    policy = fit_policy(demos, PolicyConfig(centers=5, bandwidth=1.0, ridge=1e-10))
    X = demos.all_states()[:-4]
    err = np.abs(policy.actions(X) - (X @ A.T + b)).max()
    assert err < 1e-5
    assert policy.train_loss < 1e-4


def test_policy_clip_norm_holds_everywhere(pp_policy, point_push_spec, rng):
    X = rng.uniform(-0.5, 1.5, size=(20000, 6))
    norms = np.linalg.norm(pp_policy.actions(X), axis=1)
    assert (norms <= pp_policy.clip_norm + 1e-12).all()
    assert pp_policy.clip_norm <= point_push_spec.u_max + 1e-12


def test_empirical_loss_hand_value():
    policy = _constant_policy((0.5, 0.0))
    t1 = Trajectory(
        states=np.zeros((3, 2)),
        controls=np.array([[0.5, 0.0], [0.5, 1.0]]),
        seed=0,
        outcome="completed",
    )
    t2 = Trajectory(
        states=np.zeros((2, 2)),
        controls=np.array([[0.0, 0.0]]),
        seed=1,
        outcome="completed",
    )
    demos = DemoSet(trajectories=[t1, t2])
    # traj 1 errors: 0 and 1; traj 2 error: 0.5 -> mean (1 + 0.5) / 2
    assert empirical_loss(policy, demos) == pytest.approx(0.75, abs=1e-12)


def test_train_loss_pinned(pp_policy):
    assert pp_policy.train_loss == pytest.approx(0.1248, rel=0.2)


def test_policy_round_trip(tmp_path, pp_policy, rng):
    path = tmp_path / "policy.json"
    save_policy(pp_policy, path)
    back = load_policy(path)
    X = rng.uniform(0.0, 1.0, size=(50, 6))
    assert np.array_equal(back.actions(X), pp_policy.actions(X))
    assert back.train_loss == pp_policy.train_loss


def test_load_policy_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "model"}')
    with pytest.raises(InvalidInputError):
        load_policy(path)


def test_farthest_point_subset_on_a_line():
    X = np.arange(10, dtype=float)[:, None]
    assert _farthest_point_indices(X, 3).tolist() == [0, 4, 9]
    assert _farthest_point_indices(X, 15).tolist() == list(range(10))


def test_policy_config_validation():
    with pytest.raises(InvalidInputError):
        PolicyConfig(centers=0)
    with pytest.raises(InvalidInputError):
        PolicyConfig(bandwidth=0.0)
    with pytest.raises(InvalidInputError):
        PolicyConfig(ridge=-1e-9)


# ---------------------------------------------------------------------------
# switching rule


def test_switch_config_validation():
    SwitchConfig(lam=None, lambda_mode="certified")  # allowed
    with pytest.raises(InvalidInputError):
        SwitchConfig(lam=None)
    with pytest.raises(InvalidInputError):
        SwitchConfig(lam=-1.0)
    with pytest.raises(InvalidInputError):
        SwitchConfig(eta=0.0)
    with pytest.raises(InvalidInputError):
        SwitchConfig(epsilon=0.0)
    with pytest.raises(InvalidInputError):
        SwitchConfig(epsilon=1.0)
    with pytest.raises(InvalidInputError):
        SwitchConfig(max_recovery_iters=0)
    with pytest.raises(InvalidInputError):
        SwitchConfig(lambda_mode="auto")


def test_should_recover_boundary():
    cfg = SwitchConfig(lam=0.5)
    u = np.array([1.0, 0.0])
    assert should_recover(0.5, u, cfg)  # boundary triggers
    assert not should_recover(0.5 + 1e-12, u, cfg)
    # a zero commanded control is always safe at positive g
    assert not should_recover(1e-9, np.zeros(2), cfg)


def test_effective_lambda_modes(line_track_spec):
    support = _radial_support(gamma=0.5)
    manual = SwitchConfig(lam=0.25)
    assert effective_lambda(manual, support, 0, line_track_spec) == 0.25
    cert = SwitchConfig(lam=None, lambda_mode="certified")
    expected = math.sqrt(1.0 / math.e) * line_track_spec.dyn_constant
    assert effective_lambda(cert, support, 0, line_track_spec) == pytest.approx(
        expected, abs=1e-15
    )


def test_recovery_magnitudes_law():
    cfg = SwitchConfig(lam=2.0, epsilon=0.1)
    radius, eta = _recovery_magnitudes(cfg, 0.2, 2.0)
    assert radius == pytest.approx(0.01, abs=1e-15)
    assert eta == pytest.approx(0.045, abs=1e-15)  # half the remaining budget
    small = SwitchConfig(lam=2.0, epsilon=0.1, eta=0.001)
    assert _recovery_magnitudes(small, 0.2, 2.0)[1] == 0.001
    big = SwitchConfig(lam=2.0, epsilon=0.1, eta=99.0)
    assert _recovery_magnitudes(big, 0.2, 2.0)[1] == pytest.approx(0.09, abs=1e-15)


# ---------------------------------------------------------------------------
# one recovery iteration


def test_recovery_iteration_magnitudes_and_audit(lt_handle):
    support = _radial_support()
    cfg = SwitchConfig(lam=1.0, epsilon=0.1)
    x0 = np.array([1.0, 0.0])
    g0 = _g(support, x0)
    state = EnvState(vec=x0.copy(), offset=0.0)
    rec, nxt, applied = dfr_recovery_iteration(
        lt_handle, support, 0, state, cfg, np.random.default_rng(0)
    )
    assert rec.g_before == pytest.approx(g0, abs=1e-15)
    assert np.linalg.norm(rec.u_delta) == pytest.approx(0.1 * g0, abs=1e-12)
    assert np.linalg.norm(rec.u_recovery) == pytest.approx(0.45 * g0, abs=1e-12)
    # the two motions commute through micro_step into plain vector addition
    assert np.allclose(nxt.vec, x0 + rec.u_delta + rec.u_recovery, atol=1e-15)
    assert rec.g_probe == pytest.approx(_g(support, x0 + rec.u_delta), abs=1e-15)
    assert rec.g_after == pytest.approx(_g(support, nxt.vec), abs=1e-15)
    assert [a.tag for a in applied] == ["probe", "recovery"]


def test_recovery_iteration_flip_semantics(lt_handle):
    support = _radial_support()
    cfg = SwitchConfig(lam=1.0, epsilon=0.1)
    x0 = np.array([1.0, 0.0])
    saw_flip = saw_keep = False
    for seed in range(40):
        state = EnvState(vec=x0.copy(), offset=0.0)
        rec, _, _ = dfr_recovery_iteration(
            lt_handle, support, 0, state, cfg, np.random.default_rng(seed)
        )
        dot = float(rec.u_delta @ rec.u_recovery)
        if rec.flipped:
            saw_flip = True
            assert rec.g_probe <= rec.g_before
            assert dot < 0.0  # recovery reverses the failed probe direction
        else:
            saw_keep = True
            assert rec.g_probe > rec.g_before
            assert dot > 0.0
    assert saw_flip and saw_keep


def test_recovery_budget_never_exceeds_g_over_lambda(lt_handle):
    support = _radial_support()
    x0 = np.array([1.0, 0.0])
    g0 = _g(support, x0)
    for cfg in (SwitchConfig(lam=1.0), SwitchConfig(lam=1.0, eta=99.0)):
        state = EnvState(vec=x0.copy(), offset=0.0)
        rec, _, _ = dfr_recovery_iteration(
            lt_handle, support, 0, state, cfg, np.random.default_rng(1)
        )
        total = np.linalg.norm(rec.u_delta) + np.linalg.norm(rec.u_recovery)
        assert total <= g0 / cfg.lam * (1.0 + 1e-12)


def test_recovery_refuses_outside_support(lt_handle):
    support = _radial_support(rho=0.9)
    state = EnvState(vec=np.array([3.0, 0.0]), offset=0.0)  # g well below 0
    with pytest.raises(OutsideSupportError) as exc:
        dfr_recovery_iteration(
            lt_handle, support, 0, state, SwitchConfig(), np.random.default_rng(0)
        )
    assert exc.value.g_value < 0.0
    assert exc.value.t == 0


# ---------------------------------------------------------------------------
# finite-difference reference recovery


def test_oracle_step_points_up_the_gradient(lt_handle):
    support = _radial_support()
    cfg = SwitchConfig(lam=1.0)
    x0 = np.array([1.0, 0.0])
    state = EnvState(vec=x0.copy(), offset=0.0)
    u = finite_difference_oracle_step(lt_handle, support, 0, state, cfg)
    g0 = _g(support, x0)
    expected = 0.45 * g0 * np.array([-1.0, 0.0])  # toward the center
    assert np.allclose(u, expected, atol=1e-6)


def test_oracle_step_zero_gradient_yields_zero(lt_handle):
    support = _radial_support(rho=0.1)
    state = EnvState(vec=np.zeros(2), offset=0.0)  # at the peak, grad = 0
    u = finite_difference_oracle_step(lt_handle, support, 0, state, SwitchConfig())
    assert np.array_equal(u, np.zeros(2))


# ---------------------------------------------------------------------------
# controllers


def test_estimator_controllers_match_baseline_until_trigger(lt_handle):
    # a support with rho = -1 keeps g >= 1 everywhere, so the switching rule
    # never trips and all controllers replay the policy exactly
    support = _radial_support(rho=-1.0)
    policy = _constant_policy((0.5, 0.0))
    cfg = SwitchConfig(lam=0.01)
    states = {}
    for kind in ("baseline", "es", "dfr"):
        ctrl = make_controller(kind, cfg)
        state = EnvState(vec=np.zeros(2), offset=0.0)
        seq = []
        for t in range(10):
            out = ctrl.step(lt_handle, support, policy, t, state, np.random.default_rng(t))
            assert [a.tag for a in out.applied] == ["policy"]
            state = out.state
            seq.append(state.vec.copy())
        states[kind] = np.stack(seq)
    assert np.array_equal(states["baseline"], states["es"])
    assert np.array_equal(states["baseline"], states["dfr"])


def test_early_stop_latches_zeros(lt_handle):
    # rho just below the peak makes g negative away from the center, so the
    # rule trips immediately; after that the controller commands only zeros
    support = _radial_support(rho=0.9)
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("es", SwitchConfig(lam=0.01))
    state = EnvState(vec=np.array([1.5, 0.0]), offset=0.0)
    for t in range(5):
        out = ctrl.step(lt_handle, support, policy, t, state, np.random.default_rng(0))
        assert [a.tag for a in out.applied] == ["zero"]
        assert np.array_equal(out.state.vec, state.vec)  # zero control, no motion
        state = out.state
    assert ctrl.triggered


def test_dfr_recovers_and_resumes_policy(lt_handle):
    # start just below the switching threshold; one ascent iteration clears
    # it and the policy move is appended in the same step
    support = _radial_support()
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("dfr", SwitchConfig(lam=0.01))
    state = EnvState(vec=np.array([2.125, 0.0]), offset=0.0)
    assert _g(support, state.vec) <= 0.01 * 0.5
    out = ctrl.step(lt_handle, support, policy, 0, state, np.random.default_rng(3))
    assert not out.halted
    assert len(out.recovery_steps) >= 1
    assert out.applied[-1].tag == "policy"
    assert out.recovery_steps[-1].g_after > 0.01 * 0.5


@pytest.mark.parametrize(
    "kind, n_applied, tags",
    [("dfr", 6, {"probe", "recovery"}), ("oracle", 3, {"recovery"})],
    ids=["dfr", "oracle"],
)
def test_dfr_halts_at_iteration_cap(lt_handle, kind, n_applied, tags):
    # lam so large the exit test is unreachable: g <= 0.5 but threshold is 5
    support = _radial_support()
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller(kind, SwitchConfig(lam=10.0, max_recovery_iters=3))
    state = EnvState(vec=np.array([1.0, 0.0]), offset=0.0)
    out = ctrl.step(lt_handle, support, policy, 0, state, np.random.default_rng(0))
    assert out.halted
    assert len(out.recovery_steps) == 3
    # dfr applies a probe and a recovery motion per iteration, oracle one
    assert len(out.applied) == n_applied
    assert {a.tag for a in out.applied} == tags


@pytest.mark.parametrize("kind", ["dfr", "oracle"])
@pytest.mark.parametrize(
    "center, start, flag",
    [
        # the support peaks beyond the deviation limit |y| < 4: ascent collides
        ((0.0, 5.0), (0.0, 3.95), "collided"),
        # the support peaks past the goal line x >= 40: ascent reaches it
        ((41.0, 0.0), (39.95, 0.0), "reached"),
    ],
    ids=["collided", "reached"],
)
def test_recovery_stops_when_a_motion_collides_or_reaches(lt_handle, kind, center, start, flag):
    # lam = 2 puts the switching threshold (1.0) above the peak g (0.9), so
    # only a colliding or goal-reaching recovery motion can end the step
    support = _radial_support(center=center)
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller(kind, SwitchConfig(lam=2.0))
    state = EnvState(vec=np.array(start), offset=0.0)
    out = ctrl.step(lt_handle, support, policy, 0, state, np.random.default_rng(0))
    assert not out.halted
    assert out.recovery_steps
    assert all(a.tag != "policy" for a in out.applied)
    per_iteration = {"dfr": 2, "oracle": 1}[kind]
    assert len(out.applied) == per_iteration * len(out.recovery_steps)
    last = out.applied[-1]
    assert getattr(last, flag)
    assert np.array_equal(out.state.vec, last.state)
    # only the final iteration touched the constraint or the goal
    assert not any(a.collided or a.reached for a in out.applied[:-per_iteration])
    if kind == "oracle":
        for rec in out.recovery_steps:
            assert np.array_equal(rec.u_delta, np.zeros(2))
            assert rec.g_probe == rec.g_before
            assert rec.flipped is False


def test_dfr_raises_outside_support_at_step_start(lt_handle):
    support = _radial_support(rho=0.9)
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("dfr", SwitchConfig(lam=0.01))
    state = EnvState(vec=np.array([2.5, 0.0]), offset=0.0)
    with pytest.raises(OutsideSupportError):
        ctrl.step(lt_handle, support, policy, 0, state, np.random.default_rng(0))


def test_oracle_controller_recovers_with_preview(lt_handle):
    support = _radial_support()
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("oracle", SwitchConfig(lam=0.01))
    state = EnvState(vec=np.array([2.125, 0.0]), offset=0.0)
    out = ctrl.step(lt_handle, support, policy, 0, state, np.random.default_rng(0))
    assert not out.halted
    assert len(out.recovery_steps) >= 1
    assert out.applied[-1].tag == "policy"
    # oracle moves straight toward the center: strictly increasing g
    gs = [r.g_after for r in out.recovery_steps]
    assert all(b > a for a, b in zip(gs, gs[1:])) or len(gs) == 1


def test_make_controller_rejects_unknown_kind():
    with pytest.raises(InvalidInputError, match="unknown controller"):
        make_controller("mpc")
