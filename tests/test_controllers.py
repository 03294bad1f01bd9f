"""Policy regression and switching/recovery controllers.

Recovery laws are checked against a hand-built one-vector estimator whose
decision value has the closed form exp(-gamma * ||x - c||^2) - rho, so probe
radii, step magnitudes, and ascent directions are all analytic.
"""

import math

import numpy as np
import pytest

from dfrlab import controllers
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
    switch_threshold,
)
from dfrlab.envs import EnvHandle, builtin_env_spec, check_constraint, reached_goal
from dfrlab.errors import InvalidInputError
from dfrlab.harness import activation_traces, rollout
from dfrlab.kernel_ocsvm import KernelParams, OcsvmModel
from dfrlab.records import record_line
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
    # a bool, a string, nan or inf is refused, not coerced
    for field, bad in (("bandwidth", True), ("bandwidth", math.inf), ("ridge", math.nan),
                       ("ridge", "1e-6")):
        with pytest.raises(InvalidInputError, match=f"{field}: expected a finite real number"):
            PolicyConfig(**{field: bad})


# ---------------------------------------------------------------------------
# switching rule


def test_switch_config_validation():
    SwitchConfig(lam=None, lambda_mode="certified")  # allowed
    with pytest.raises(InvalidInputError):
        SwitchConfig(lam=None)
    # certified mode derives lambda, so a given lam would be silently ignored
    for lam in (0.5, 1.0):
        with pytest.raises(InvalidInputError, match="None in certified mode"):
            SwitchConfig(lam=lam, lambda_mode="certified")
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
    # the unknown mode is named, whatever lam holds
    with pytest.raises(InvalidInputError, match="unknown lambda_mode 'Certified'"):
        SwitchConfig(lam=None, lambda_mode="Certified")
    # a bool, a string, nan or inf is refused, not coerced; eta may be None
    for field, bad in (("lam", True), ("lam", math.inf), ("eta", math.inf), ("eta", "0.1"),
                       ("epsilon", math.nan), ("epsilon", None)):
        with pytest.raises(InvalidInputError, match=f"{field}: expected a finite real number"):
            SwitchConfig(**{field: bad})


def test_switch_threshold_boundary():
    # the switching rule trips at g <= switch_threshold(u_hat, lam)
    u = np.array([1.0, 0.0])
    assert switch_threshold(u, 0.5) == 0.5
    assert 0.5 <= switch_threshold(u, 0.5)  # boundary triggers
    assert not 0.5 + 1e-12 <= switch_threshold(u, 0.5)
    # a zero commanded control is always safe at positive g
    assert not 1e-9 <= switch_threshold(np.zeros(2), 0.5)


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
    rec, applied = dfr_recovery_iteration(
        lt_handle, support, 0, x0.copy(), cfg, np.random.default_rng(0), 1.0, g0, 0.7
    )
    probe, recovery = applied
    nxt = recovery.state
    assert rec.threshold == 0.7  # recorded as given
    assert np.linalg.norm(probe.u) == pytest.approx(0.1 * g0, abs=1e-12)
    assert np.linalg.norm(recovery.u) == pytest.approx(0.45 * g0, abs=1e-12)
    # the two motions commute through micro_step into plain vector addition
    assert np.allclose(probe.state, x0 + probe.u, atol=1e-15)
    assert np.allclose(nxt, x0 + probe.u + recovery.u, atol=1e-15)
    assert rec.g_probe == pytest.approx(_g(support, x0 + probe.u), abs=1e-15)
    assert rec.g_after == pytest.approx(_g(support, nxt), abs=1e-15)
    assert [a.tag for a in applied] == ["probe", "recovery"]


def test_recovery_iteration_flip_semantics(lt_handle):
    support = _radial_support()
    cfg = SwitchConfig(lam=1.0, epsilon=0.1)
    x0 = np.array([1.0, 0.0])
    g0 = _g(support, x0)
    saw_flip = saw_keep = False
    for seed in range(40):
        rec, (probe, recovery) = dfr_recovery_iteration(
            lt_handle, support, 0, x0.copy(), cfg, np.random.default_rng(seed), 1.0, g0, 1.0
        )
        dot = float(probe.u @ recovery.u)
        if rec.flipped:
            saw_flip = True
            assert rec.g_probe <= g0
            assert dot < 0.0  # recovery reverses the failed probe direction
        else:
            saw_keep = True
            assert rec.g_probe > g0
            assert dot > 0.0
    assert saw_flip and saw_keep


def test_recovery_budget_never_exceeds_g_over_lambda(lt_handle, line_track_spec):
    support = _radial_support()
    x0 = np.array([1.0, 0.0])
    g0 = _g(support, x0)
    for cfg in (SwitchConfig(lam=1.0), SwitchConfig(lam=1.0, eta=99.0),
                SwitchConfig(lam=None, lambda_mode="certified")):
        lam = effective_lambda(cfg, support, 0, line_track_spec)
        _, (probe, recovery) = dfr_recovery_iteration(
            lt_handle, support, 0, x0.copy(), cfg, np.random.default_rng(1), lam, g0, lam
        )
        total = np.linalg.norm(probe.u) + np.linalg.norm(recovery.u)
        assert total <= g0 / lam * (1.0 + 1e-12)


def test_recovery_refuses_outside_support(lt_handle):
    support = _radial_support(rho=0.9)
    state = np.array([3.0, 0.0])  # g well below 0
    policy = _constant_policy((0.5, 0.0))
    for kind in ("dfr", "oracle"):
        for g in (_g(support, state), 0.0):
            ctrl = make_controller(kind, SwitchConfig())
            out = ctrl.step(lt_handle, support, policy, 0, state, np.random.default_rng(0), g)
            assert out.halt == "outside-support" and out.end is None
            assert (out.t, out.g, out.applied, out.recovery) == (0, g, [], [])
            assert g <= 0.0


def _counted(monkeypatch, name):
    """Count the calls of the controllers-module function name."""
    calls = []
    original = getattr(controllers, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(controllers, name, counted)
    return calls


class _CliffSupport:
    """g = 0.01 at the start state and x[0] - start[0] - 1 anywhere else, so
    the first recovery iteration of either kind ends outside the support.
    The last value it returned is that iteration's g_after."""

    def __init__(self, start):
        self.start = start
        self.returned = []

    def g_at(self, t, x):
        g = 0.01 if np.array_equal(x, self.start) else float(x[0] - self.start[0]) - 1.0
        self.returned.append(g)
        return g


@pytest.mark.parametrize(
    "kind, work", [("dfr", "dfr_recovery_iteration"), ("oracle", "finite_difference_oracle_step")]
)
def test_iteration_ending_outside_support_halts_on_next_pass(lt_handle, monkeypatch, kind, work):
    calls = _counted(monkeypatch, work)
    start = np.zeros(2)
    support = _CliffSupport(start)
    ctrl = make_controller(kind, SwitchConfig(lam=1.0))
    out = ctrl.step(lt_handle, support, _constant_policy((0.5, 0.0)), 0, start,
                    np.random.default_rng(0), 0.01)
    # the loop refuses before a second iteration starts, not inside it, and
    # the step keeps the iteration and its motions
    assert len(calls) == 1
    assert out.halt == "outside-support" and out.end is None
    assert len(out.recovery) == 1
    assert out.recovery[0].g_after == support.returned[-1] <= 0.0
    assert len(out.applied) == {"dfr": 2, "oracle": 1}[kind]
    assert out.t == 0


@pytest.mark.parametrize("kind, motions", [("dfr", 2), ("oracle", 1)])
def test_rollout_keeps_the_iteration_that_left_the_support(line_track_spec, kind, motions):
    # the supervisor needs no support; on the same seed it resets to the
    # same start state, where the cliff is drawn
    start = rollout(line_track_spec, "supervisor", None, None, seed=0).start_state
    rec = rollout(line_track_spec, kind, _CliffSupport(start), _constant_policy((0.5, 0.0)),
                  seed=0, cfg=SwitchConfig(lam=1.0), disturbance=False)
    assert (rec.outcome, rec.halt_reason) == ("halted", "outside-support")
    assert len(rec.steps) == 1
    step = rec.steps[0]
    assert step.halt == "outside-support" and step.end is None
    assert len(step.recovery) == 1 and len(step.applied) == motions
    assert rec.recovery_iterations == 1
    it = step.recovery[0]
    assert it.g_after <= 0.0
    assert rec.g_min <= min(step.g, it.g_probe, it.g_after)
    states = rec.state_sequence()
    assert len(states) == 1 + motions
    assert np.array_equal(states[-1], step.applied[-1].state)
    # the ascent traces leave out an activation that left the support
    assert activation_traces(rec) == []


@pytest.mark.parametrize("kind", ["dfr", "oracle"])
def test_ascent_traces_keep_an_activation_halted_at_the_cap(line_track_spec, kind):
    start = rollout(line_track_spec, "supervisor", None, None, seed=0).start_state
    rec = rollout(line_track_spec, kind, _CliffSupport(start), _constant_policy((0.5, 0.0)),
                  seed=0, cfg=SwitchConfig(lam=1.0, max_recovery_iters=1), disturbance=False)
    assert rec.halt_reason == "recovery-cap" and rec.steps[-1].halt == "recovery-cap"
    (it,) = rec.steps[-1].recovery
    assert it.g_after <= 0.0
    assert activation_traces(rec) == [[rec.steps[-1].g / it.threshold]]


@pytest.mark.parametrize("kind", ["dfr", "oracle"])
def test_iteration_ending_outside_support_at_the_cap_halts(lt_handle, kind):
    start = np.zeros(2)
    ctrl = make_controller(kind, SwitchConfig(lam=1.0, max_recovery_iters=1))
    out = ctrl.step(lt_handle, _CliffSupport(start), _constant_policy((0.5, 0.0)), 0, start,
                    np.random.default_rng(0), 0.01)
    assert out.halt == "recovery-cap"
    assert len(out.recovery) == 1
    assert out.recovery[0].g_after <= 0.0


# ---------------------------------------------------------------------------
# finite-difference reference recovery


def test_oracle_step_points_up_the_gradient(lt_handle):
    support = _radial_support()
    cfg = SwitchConfig(lam=1.0)
    x0 = np.array([1.0, 0.0])
    g0 = _g(support, x0)
    u = finite_difference_oracle_step(lt_handle, support, 0, x0.copy(), cfg, 1.0, g0)
    expected = 0.45 * g0 * np.array([-1.0, 0.0])  # toward the center
    assert np.allclose(u, expected, atol=1e-6)


def test_oracle_step_zero_gradient_yields_zero(lt_handle):
    support = _radial_support(rho=0.1)
    state = np.zeros(2)  # at the peak, grad = 0
    u = finite_difference_oracle_step(
        lt_handle, support, 0, state, SwitchConfig(), 1.0, _g(support, state)
    )
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
        state = np.zeros(2)
        seq = []
        for t in range(10):
            out = ctrl.step(lt_handle, support, policy, t, state, np.random.default_rng(t),
                            support.g_at(t, state))
            assert [a.tag for a in out.applied] == ["policy"]
            state = out.applied[-1].state
            seq.append(state)
        states[kind] = np.stack(seq)
    assert np.array_equal(states["baseline"], states["es"])
    assert np.array_equal(states["baseline"], states["dfr"])


def test_early_stop_latches_zeros(lt_handle):
    # rho just below the peak makes g negative away from the center, so the
    # rule trips immediately; after that the controller commands only zeros
    support = _radial_support(rho=0.9)
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("es", SwitchConfig(lam=0.01))
    state = np.array([1.5, 0.0])
    for t in range(5):
        out = ctrl.step(lt_handle, support, policy, t, state, np.random.default_rng(0),
                        _g(support, state))
        assert [a.tag for a in out.applied] == ["zero"]
        assert np.array_equal(out.applied[-1].state, state)  # zero control, no motion
        state = out.applied[-1].state
    assert ctrl.triggered


def test_dfr_recovers_and_resumes_policy(lt_handle):
    # start just below the switching threshold; one ascent iteration clears
    # it and the policy move is appended in the same step
    support = _radial_support()
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("dfr", SwitchConfig(lam=0.01))
    state = np.array([2.125, 0.0])
    assert _g(support, state) <= 0.01 * 0.5
    out = ctrl.step(lt_handle, support, policy, 0, state, np.random.default_rng(3),
                    _g(support, state))
    assert out.halt is None
    assert len(out.recovery) >= 1
    assert out.applied[-1].tag == "policy"
    assert out.recovery[-1].g_after > 0.01 * 0.5


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
    state = np.array([1.0, 0.0])
    out = ctrl.step(
        lt_handle, support, policy, 0, state, np.random.default_rng(0), _g(support, state)
    )
    assert out.halt == "recovery-cap"
    assert len(out.recovery) == 3
    # dfr applies a probe and a recovery motion per iteration, oracle one
    assert len(out.applied) == n_applied
    assert {a.tag for a in out.applied} == tags


@pytest.mark.parametrize("kind", ["dfr", "oracle"])
@pytest.mark.parametrize(
    "center, start, end",
    [
        # the support peaks beyond the deviation limit |y| < 4: ascent collides
        ((0.0, 5.0), (0.0, 3.95), "collided"),
        # the support peaks past the goal line x >= 40: ascent reaches it
        ((41.0, 0.0), (39.95, 0.0), "completed"),
    ],
    ids=["collided", "reached"],
)
def test_recovery_stops_when_a_motion_collides_or_reaches(lt_handle, kind, center, start, end):
    # lam = 2 puts the switching threshold (1.0) above the peak g (0.9), so
    # only a colliding or goal-reaching recovery motion can end the step
    support = _radial_support(center=center)
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller(kind, SwitchConfig(lam=2.0))
    state = np.array(start)
    out = ctrl.step(
        lt_handle, support, policy, 0, state, np.random.default_rng(0), _g(support, state)
    )
    assert out.halt is None
    assert out.recovery
    assert all(a.tag != "policy" for a in out.applied)
    per_iteration = {"dfr": 2, "oracle": 1}[kind]
    assert len(out.applied) == per_iteration * len(out.recovery)
    assert out.end == end
    spec = lt_handle.spec
    last = out.applied[-1].state
    assert not check_constraint(spec, last) if end == "collided" else reached_goal(spec, last)
    # only the final iteration touched the constraint or the goal
    assert all(check_constraint(spec, a.state) and not reached_goal(spec, a.state)
               for a in out.applied[:-per_iteration])
    if kind == "oracle":
        # an oracle iteration applies no probe motion, only its recovery motion
        assert [a.tag for a in out.applied] == ["recovery"] * len(out.recovery)
        g = out.g  # an oracle iteration's g_probe is the g it started from
        for rec in out.recovery:
            assert rec.g_probe == g
            assert rec.flipped is False
            g = rec.g_after


def test_dfr_halts_outside_support_at_step_start(lt_handle):
    support = _radial_support(rho=0.9)
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("dfr", SwitchConfig(lam=0.01))
    state = np.array([2.5, 0.0])
    out = ctrl.step(
        lt_handle, support, policy, 0, state, np.random.default_rng(0), _g(support, state)
    )
    assert out.halt == "outside-support"
    assert out.applied == [] and out.recovery == []


def test_oracle_controller_recovers_with_preview(lt_handle):
    support = _radial_support()
    policy = _constant_policy((0.5, 0.0))
    ctrl = make_controller("oracle", SwitchConfig(lam=0.01))
    state = np.array([2.125, 0.0])
    out = ctrl.step(
        lt_handle, support, policy, 0, state, np.random.default_rng(0), _g(support, state)
    )
    assert out.halt is None
    assert len(out.recovery) >= 1
    assert out.applied[-1].tag == "policy"
    # oracle moves straight toward the center: strictly increasing g
    gs = [r.g_after for r in out.recovery]
    assert all(b > a for a, b in zip(gs, gs[1:])) or len(gs) == 1


# ---------------------------------------------------------------------------
# oracle cycle replay


def _plain_oracle_rollout(monkeypatch, *args, **kwargs):
    """rollout of the oracle through a wrapper around its iteration, which
    the recovery loop does not treat as pure: the loop without replay."""
    original = controllers._oracle_recovery_iteration

    def plain(*iteration_args):
        return original(*iteration_args)

    def step(self, handle, support, policy, t, state, rng, g):
        return self.recover(plain, handle, support, policy, t, state, rng, g)

    with monkeypatch.context() as m:
        m.setattr(controllers.OracleController, "step", step)
        return rollout(*args, **kwargs)


@pytest.mark.parametrize(
    "center, eta, cap, start, period",
    [
        # line_track resets to the origin, the peak: a zero FD gradient
        # applies a zero control, so the first iteration already repeats
        ((0.0, 0.0), None, 500, 0, 1),
        # a fixed eta of 0.3 overshoots the peak at x = 0.7: 0.3, 0.6, then
        # 0.9 - 1e-16 and 0.6 - 1e-16 in turn, a period-2 cycle from
        # iteration 3 on; the cap ends it after whole cycles, inside one, or
        # on the iteration that closes it, where there is nothing to add
        ((0.7, 0.0), 0.3, 9, 3, 2),
        ((0.7, 0.0), 0.3, 10, 3, 2),
        ((0.7, 0.0), 0.3, 5, 3, 2),
    ],
    ids=["peak", "overshoot-whole-cycles", "overshoot-partial-cycle", "overshoot-cycle-at-cap"],
)
def test_oracle_cycle_replay_writes_the_plain_loops_record(
    line_track_spec, monkeypatch, center, eta, cap, start, period
):
    # lam = 2 puts the threshold (2.0) above the peak g (0.9): no hand-back
    args = (line_track_spec, "oracle", _radial_support(center=center),
            _constant_policy((1.0, 0.0)), 0)
    kwargs = dict(cfg=SwitchConfig(lam=2.0, eta=eta, max_recovery_iters=cap), disturbance=False)
    plain = _plain_oracle_rollout(monkeypatch, *args, **kwargs)
    fd_calls = _counted(monkeypatch, "finite_difference_oracle_step")
    replayed = rollout(*args, **kwargs)
    assert record_line(replayed) == record_line(plain)
    assert (replayed.halt_reason, replayed.recovery_iterations) == ("recovery-cap", cap)
    (step,) = replayed.steps
    assert step.halt == "recovery-cap"
    # the loop ran until the cycle closed, then replayed it
    assert len(fd_calls) == start + period
    states = [plain.start_state] + [a.state for a in step.applied]
    assert np.array_equal(states[start + period], states[start])
    assert len({s.tobytes() for s in states[start + 1:]}) == period


def test_step_records_have_slots_and_replays_share_their_objects(line_track_spec):
    # the overshoot cycle above: period 2 from iteration 3, capped at 10
    rec = rollout(line_track_spec, "oracle", _radial_support(center=(0.7, 0.0)),
                  _constant_policy((1.0, 0.0)), 0,
                  cfg=SwitchConfig(lam=2.0, eta=0.3, max_recovery_iters=10), disturbance=False)
    (step,) = rec.steps
    for obj in (step, step.applied[0], step.recovery[0]):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    # iterations 3 and 4 close the cycle; every later one is a repeat
    for i in range(5, 10):
        assert step.recovery[i] is step.recovery[3 + (i - 3) % 2]
        assert step.applied[i] is step.applied[3 + (i - 3) % 2]


def test_oracle_hand_back_before_a_repeat_matches_the_plain_loop(line_track_spec, monkeypatch):
    # lam = 0.8 puts the threshold between g at the origin (0.683) and the
    # peak (0.9): the oracle climbs, hands back, and no state repeats
    args = (line_track_spec, "oracle", _radial_support(center=(0.7, 0.0)),
            _constant_policy((1.0, 0.0)), 0)
    kwargs = dict(cfg=SwitchConfig(lam=0.8), disturbance=False)
    plain = _plain_oracle_rollout(monkeypatch, *args, **kwargs)
    replays = _counted(monkeypatch, "_replay_cycle")
    replayed = rollout(*args, **kwargs)
    assert record_line(replayed) == record_line(plain)
    assert replays == []
    first = replayed.steps[0]
    assert first.recovery and first.applied[-1].tag == "policy"


class _StillHandle:
    """A handle whose every motion stays where it started."""

    def __init__(self, spec):
        self.spec = spec

    def micro_step(self, state, u):
        return state.copy()

    step = micro_step


@pytest.mark.parametrize("kind, iterations", [("dfr", 7), ("oracle", 1)], ids=["dfr", "oracle"])
def test_dfr_never_replays_where_the_oracle_does(line_track_spec, monkeypatch, kind, iterations):
    # every iteration starts at the same state; dfr draws a new direction
    # each time, so only the oracle may replay
    work = {"dfr": "dfr_recovery_iteration", "oracle": "finite_difference_oracle_step"}[kind]
    calls = _counted(monkeypatch, work)
    support = _radial_support(center=(0.7, 0.0))
    ctrl = make_controller(kind, SwitchConfig(lam=2.0, max_recovery_iters=7))
    state = np.zeros(2)
    out = ctrl.step(_StillHandle(line_track_spec), support, _constant_policy((1.0, 0.0)), 0,
                    state, np.random.default_rng(0), _g(support, state))
    assert out.halt == "recovery-cap" and len(out.recovery) == 7
    assert len(calls) == iterations
    if kind == "dfr":
        probes = [a.u.tobytes() for a in out.applied if a.tag == "probe"]
        assert len(set(probes)) == 7


def test_make_controller_rejects_unknown_kind():
    with pytest.raises(InvalidInputError, match="unknown controller"):
        make_controller("mpc")
