"""Rollout bookkeeping, outcome statistics, and the experiment runners at
miniature sizes."""

from importlib.resources import files

import numpy as np
import pytest

from dfrlab.controllers import Policy, SwitchConfig
from dfrlab.envs import builtin_env_spec
from dfrlab.errors import InvalidInputError
from dfrlab.harness import (
    AppliedRecord,
    ExperimentConfig,
    RolloutRecord,
    StepRecord,
    activation_traces,
    classify_outcome,
    experiment_config_from_document,
    experiment_config_to_document,
    gates_all_passed,
    load_experiment_config,
    proportion_margin_test,
    record_from_document,
    record_to_document,
    resample_trace,
    rollout,
    run_disturbance_eval,
    run_learning_curve,
    summarize,
    wilson_interval,
    wilson_lower,
    wilson_upper,
    write_csv,
)
from dfrlab.kernel_ocsvm import KernelParams, OcsvmModel
from dfrlab.support import TimeVaryingSupport


def _zero_policy(dim=6):
    return Policy(
        centers=np.zeros((1, dim)),
        bandwidth=1.0,
        weights=np.zeros((1 + dim + 1, 2)),
        ridge=0.0,
        clip_norm=1.0,
    )


def _flat_model(rho):
    return OcsvmModel(
        support_vectors=np.zeros((1, 2)),
        alphas=np.array([1.0]),
        rho=rho,
        kernel=KernelParams(gamma=0.5),
        nu=0.5,
        train_count=1,
    )


def _synthetic_record(vecs, controller="baseline", outcome="halted", **kw):
    applied = [
        AppliedRecord(u=np.zeros(2), tag="policy", state=np.asarray(v, dtype=float),
                      collided=False, reached=False)
        for v in vecs[1:]
    ]
    steps = [StepRecord(t=0, g=None, applied=applied, recovery=[])] if applied else []
    return RolloutRecord(
        seed=0,
        controller=controller,
        outcome=outcome,
        start_state=np.asarray(vecs[0], dtype=float),
        steps=steps,
        **kw,
    )


# ---------------------------------------------------------------------------
# interval arithmetic


def test_wilson_closed_forms():
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.236593090512564, abs=1e-14)
    assert hi == pytest.approx(0.7634069094874361, abs=1e-14)
    assert lo + hi == pytest.approx(1.0, abs=1e-12)  # symmetric at p = 1/2
    assert wilson_interval(0, 0) == (0.0, 1.0)
    with pytest.raises(InvalidInputError):
        wilson_interval(5, 4)


def test_one_sided_bounds_are_tighter_than_two_sided():
    assert wilson_lower(30, 100) > wilson_interval(30, 100)[0]
    assert wilson_upper(30, 100) < wilson_interval(30, 100)[1]


def test_proportion_margin_test_branches():
    passed, detail = proportion_margin_test(10, 10, 0, 10, margin=0.5)
    assert passed and detail["se"] == 0.0
    passed, _ = proportion_margin_test(10, 10, 10, 10, margin=0.1)
    assert not passed
    # a thin sample cannot certify a margin even with a big point difference
    passed, _ = proportion_margin_test(3, 4, 1, 4, margin=0.4)
    assert not passed


# ---------------------------------------------------------------------------
# outcome classification


def test_collision_takes_precedence_over_goal(point_push_spec):
    inside_keepout = [0.5, 0.28, 0.9, 0.9, 0.8, 0.5]
    at_goal = [0.1, 0.1, 0.8, 0.5, 0.8, 0.5]
    rec = _synthetic_record(
        [[0.06, 0.5, 0.2, 0.5, 0.8, 0.5], inside_keepout, at_goal],
        outcome="collided",
    )
    assert classify_outcome(rec, point_push_spec) == "collided"


def test_goal_anywhere_in_trajectory_completes(point_push_spec):
    at_goal = [0.1, 0.1, 0.8, 0.5, 0.8, 0.5]
    off_goal = [0.1, 0.1, 0.2, 0.2, 0.8, 0.5]
    rec = _synthetic_record(
        [[0.06, 0.5, 0.2, 0.5, 0.8, 0.5], at_goal, off_goal], outcome="completed"
    )
    assert classify_outcome(rec, point_push_spec) == "completed"


def test_line_track_classification_boundaries(line_track_spec):
    short = _synthetic_record([[0.0, 0.0], [39.0, 0.0]], outcome="halted")
    assert classify_outcome(short, line_track_spec) == "halted"
    done = _synthetic_record([[0.0, 0.0], [41.0, 3.0]], outcome="completed")
    assert classify_outcome(done, line_track_spec) == "completed"
    wide = _synthetic_record([[0.0, 0.0], [41.0, 4.0]], outcome="collided")
    assert classify_outcome(wide, line_track_spec) == "collided"


# ---------------------------------------------------------------------------
# summaries


def test_summarize_hand_values():
    recs = [
        _synthetic_record([[0, 0]], "baseline", "completed", wall_clock_s=0.1),
        _synthetic_record([[0, 0]], "baseline", "completed", wall_clock_s=0.3),
        _synthetic_record([[0, 0]], "baseline", "collided"),
        _synthetic_record([[0, 0]], "dfr", "halted", recovery_iterations=4),
        _synthetic_record([[0, 0]], "dfr", "completed", recovery_iterations=4),
        _synthetic_record([[0, 0]], "dfr", "completed"),
    ]
    out = summarize(recs)
    base = out["controllers"]["baseline"]
    assert base["counts"] == {"completed": 2, "collided": 1, "halted": 0}
    assert base["fractions"]["completed"] == pytest.approx(2 / 3)
    d = out["controllers"]["dfr"]
    assert d["recovery_iterations"] == {"0": 1, "4": 2}
    total = sum(d["fractions"].values())
    assert total == 1.0  # halted fraction defined by subtraction
    assert out["timing"]["baseline"]["mean_wall_clock_s"] == pytest.approx(0.2)
    assert out["timing"]["dfr"]["mean_wall_clock_s"] is None


def test_fractions_sum_exactly_to_one():
    recs = (
        [_synthetic_record([[0, 0]], "dfr", "completed")] * 1
        + [_synthetic_record([[0, 0]], "dfr", "collided")] * 1
        + [_synthetic_record([[0, 0]], "dfr", "halted")] * 1
    )
    fr = summarize(recs)["controllers"]["dfr"]["fractions"]
    assert fr["completed"] + fr["collided"] + fr["halted"] == 1.0


# ---------------------------------------------------------------------------
# rollouts


def test_supervisor_rollout_completes(point_push_spec):
    rec = rollout(point_push_spec, "supervisor", None, None, seed=0)
    assert rec.outcome == "completed"
    assert rec.halt_reason is None
    assert rec.recovery_iterations == 0
    assert rec.g_min is None and rec.g_final is None
    assert rec.wall_clock_s > 0.0
    assert rec.n_states() == len(rec.state_sequence())


def test_zero_policy_halts_at_horizon(point_push_spec):
    rec = rollout(point_push_spec, "baseline", None, _zero_policy(), seed=1)
    assert rec.outcome == "halted"
    assert rec.halt_reason == "horizon"
    assert len(rec.steps) == point_push_spec.horizon
    first, last = rec.state_sequence()[0], rec.state_sequence()[-1]
    assert np.array_equal(first, last)  # nothing ever moves


def test_rollout_is_bit_deterministic(point_push_spec, pp_support, pp_policy):
    cfg = SwitchConfig(lam=0.05)
    a = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=[1, 2, 3, 4], cfg=cfg)
    b = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=[1, 2, 3, 4], cfg=cfg)
    assert record_to_document(a) == record_to_document(b)


def test_rollout_validates_required_inputs(point_push_spec, pp_policy):
    with pytest.raises(InvalidInputError, match="support"):
        rollout(point_push_spec, "dfr", None, pp_policy, seed=0)
    with pytest.raises(InvalidInputError, match="policy"):
        rollout(point_push_spec, "baseline", None, None, seed=0)


def test_start_gate_halts_before_any_step(point_push_spec, pp_support, pp_policy):
    cfg = SwitchConfig(lam=0.05)
    gated = None
    for seed in range(40):
        rec = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=seed, cfg=cfg)
        if rec.halt_reason == "start-gate":
            gated = rec
            break
    assert gated is not None, "no start-gated seed among the first 40"
    assert gated.outcome == "halted"
    assert gated.steps == []
    assert gated.g_min < 0.0
    assert gated.g_final == gated.g_min  # no steps ran; both are the gate value


def test_baseline_ignores_start_gate(point_push_spec, pp_support, pp_policy):
    # same seeds as above, but the unguarded controller runs anyway
    for seed in range(40):
        rec = rollout(point_push_spec, "baseline", pp_support, pp_policy, seed=seed)
        assert rec.steps or rec.outcome != "halted"


def test_outside_support_mid_episode(line_track_spec):
    # slice 0 accepts everything, slice 1 rejects everything: the second step
    # start raises inside the controller and the harness maps it to a halt
    support = TimeVaryingSupport(
        estimators=[_flat_model(-1.0), _flat_model(2.0)], projection=np.arange(2)
    )
    policy = _zero_policy(dim=2)
    policy.weights[-1] = [0.5, 0.0]
    rec = rollout(
        line_track_spec, "dfr", support, policy, seed=0,
        cfg=SwitchConfig(lam=0.01), disturbance=False,
    )
    assert rec.outcome == "halted"
    assert rec.halt_reason == "outside-support"
    assert len(rec.steps) == 1
    assert rec.g_min < 0.0


def test_recovery_cap_reason(line_track_spec):
    # permanent trigger via a huge lam; the cap fires on the first step
    support = TimeVaryingSupport(estimators=[_flat_model(0.1)], projection=np.arange(2))
    policy = _zero_policy(dim=2)
    policy.weights[-1] = [0.5, 0.0]
    rec = rollout(
        line_track_spec, "dfr", support, policy, seed=3,
        cfg=SwitchConfig(lam=50.0, max_recovery_iters=4), disturbance=False,
    )
    assert rec.halt_reason == "recovery-cap"
    assert rec.outcome == "halted"
    assert rec.recovery_iterations == 4


def test_record_document_round_trip(point_push_spec, pp_support, pp_policy):
    rec = rollout(
        point_push_spec, "dfr", pp_support, pp_policy, seed=[9, 0],
        cfg=SwitchConfig(lam=0.05),
    )
    doc = record_to_document(rec)
    back = record_from_document(doc)
    assert record_to_document(back) == doc
    assert classify_outcome(back, point_push_spec) == rec.outcome
    assert "wall_clock_s" not in doc


# ---------------------------------------------------------------------------
# ascent trace extraction


def test_activation_traces_values_and_anchor(point_push_spec, pp_support, pp_policy):
    cfg = SwitchConfig(lam=0.05)
    rec = None
    for seed in range(60):
        cand = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=seed, cfg=cfg)
        if cand.recovery_iterations > 0 and cand.outcome == "completed":
            rec = cand
            break
    assert rec is not None, "no recovering completed episode among the first 60 seeds"
    traces = activation_traces(rec, pp_support, pp_policy, cfg, point_push_spec)
    triggering = [s for s in rec.steps if s.recovery]
    assert len(traces) == len(triggering)
    for step, vals in zip(triggering, traces):
        assert all(v <= 1.0 + 1e-12 for v in vals)
        if step.applied and step.applied[-1].tag == "policy":
            assert vals[-1] == 1.0  # exit anchor
    # recompute the first value by hand from the stored record
    first = triggering[0]
    idx = rec.steps.index(first)
    pre = rec.start_state if idx == 0 else rec.steps[idx - 1].applied[-1].state
    u_hat = pp_policy.action(pre)
    expected = min(1.0, first.recovery[0].g_before / (0.05 * float(np.linalg.norm(u_hat))))
    assert traces[0][0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind, motions_per_iteration", [("dfr", 2), ("oracle", 1)])
def test_activation_traces_later_iterations(
    point_push_spec, pp_support, pp_policy, kind, motions_per_iteration
):
    # Iteration k >= 1 starts where iteration k - 1's recovery motion ended:
    # applied[2k - 1] for dfr (probe, recovery pairs), applied[k - 1] for
    # oracle (recovery motions only).
    cfg = SwitchConfig(lam=0.05)
    rec = None
    for seed in range(60):
        cand = rollout(point_push_spec, kind, pp_support, pp_policy, seed=seed, cfg=cfg)
        if any(len(s.recovery) >= 2 for s in cand.steps):
            rec = cand
            break
    assert rec is not None, f"no {kind} step with two iterations among the first 60 seeds"
    traces = activation_traces(rec, pp_support, pp_policy, cfg, point_push_spec)
    checked = 0
    for step, vals in zip([s for s in rec.steps if s.recovery], traces):
        for k in range(1, len(step.recovery)):
            motion = step.applied[motions_per_iteration * k - 1]
            assert motion.tag == "recovery"
            ev = step.recovery[k]
            assert pp_support.g_at(step.t, motion.state) == ev.g_before
            u_hat = pp_policy.action(motion.state)
            assert vals[k] == min(1.0, ev.g_before / (0.05 * float(np.linalg.norm(u_hat))))
            checked += 1
    assert checked >= 1


def test_resample_trace_linear_interpolation():
    assert np.allclose(resample_trace([0.0, 1.0], 3), [0.0, 0.5, 1.0], atol=1e-15)
    assert np.array_equal(resample_trace([0.7], 5), np.full(5, 0.7))
    out = resample_trace([0.1, 0.4, 0.2, 0.9], 21)
    assert out[0] == 0.1 and out[-1] == 0.9
    with pytest.raises(InvalidInputError):
        resample_trace([], 5)


# ---------------------------------------------------------------------------
# experiment config


def test_experiment_config_validation():
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        ExperimentConfig(demo_grid=(30, 20))
    with pytest.raises(InvalidInputError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(InvalidInputError, match="controller"):
        ExperimentConfig(controllers=("baseline", "mpc"))
    with pytest.raises(InvalidInputError, match="demo_seeds"):
        ExperimentConfig(trials=2, demo_seeds=(5,))


def test_experiment_config_seed_defaults():
    cfg = ExperimentConfig(trials=3, seed=7)
    assert cfg.demo_seeds == (7000, 7001, 7002)


def test_experiment_config_document_round_trip():
    cfg = ExperimentConfig(
        env="line_track", demo_grid=(10, 20), trials=2, demo_seeds=(4, 5),
        projection=(1,), pooled=True, ascent_cells=((4, 10),),
    )
    doc = experiment_config_to_document(cfg)
    assert experiment_config_from_document(doc) == cfg


def test_experiment_config_rejects_unknown_keys():
    doc = experiment_config_to_document(ExperimentConfig())
    doc["lamda"] = 0.07
    with pytest.raises(InvalidInputError, match="lamda"):
        experiment_config_from_document(doc)


def test_shipped_configs_load():
    paths = sorted(p for p in files("dfrlab").joinpath("data").iterdir()
                   if p.name.startswith("exp_"))
    assert len(paths) == 4
    for path in paths:
        cfg = load_experiment_config(str(path))
        assert experiment_config_from_document(experiment_config_to_document(cfg)) == cfg


def test_config_document_wins_over_overrides():
    doc = experiment_config_to_document(ExperimentConfig(trials=3, eval_samples=11))
    del doc["eval_samples"]
    cfg = experiment_config_from_document(doc, overrides={"trials": 9, "eval_samples": 4})
    assert cfg.trials == 3  # the document pins it
    assert cfg.eval_samples == 4  # the override fills the gap


# ---------------------------------------------------------------------------
# miniature experiment runs


def _mini_config(**kw):
    base = dict(
        env="point_push",
        demo_grid=(20,),
        trials=1,
        eval_samples=6,
        controllers=("baseline", "dfr"),
        gamma=15.0,
        lam=0.05,
        policy_centers=50,
        policy_bandwidth=0.15,
        demo_seeds=(5,),
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_learning_curve_mini_rows_and_sanity():
    cfg = _mini_config(controllers=("supervisor", "baseline"), eval_samples=5)
    out = run_learning_curve(cfg)
    assert len(out["rows"]) == 2
    for row in out["rows"]:
        assert row["n"] == 5
        assert row["completed_frac"] + row["collided_frac"] + row["halted_frac"] == 1.0
    gate = out["gates"]["supervisor_sanity"]
    assert gate["passed"] and gate["detail"]["completed"] == 5
    assert len(out["records"]) == 10


def test_parallel_rollouts_match_serial():
    cfg = _mini_config()
    a = run_learning_curve(cfg, jobs=1)
    b = run_learning_curve(cfg, jobs=2)
    docs_a = [record_to_document(r) for r in a["records"]]
    docs_b = [record_to_document(r) for r in b["records"]]
    assert docs_a == docs_b


def test_disturbance_eval_off_is_a_clean_null(line_track_spec):
    cfg = ExperimentConfig(
        env="line_track", demo_grid=(20,), trials=1, eval_samples=10,
        controllers=("baseline", "dfr"), gamma=0.1, solver_tol=1e-6,
        max_solver_iters=1_000_000, policy_centers=50, policy_bandwidth=4.0,
        lam=0.1, pooled=True, projection=(1,), demo_jitter=0.1,
        demo_seeds=(5,), seed=0, disturbance=False,
    )
    out = run_disturbance_eval(cfg)
    assert out["aggregates"]["disturbance_enabled"] is False
    for row in out["rows"]:
        assert row["completed"] == 10  # nothing can fail without the stream
    assert not gates_all_passed(out["gates"])  # zero collisions on both arms


# ---------------------------------------------------------------------------
# csv formatting


def test_write_csv_cell_rules(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"], [{"a": 0.1, "b": None, "c": True, "d": 3}])
    text = path.read_text()
    assert text == "a,b,c,d\n0.1,,true,3\n"
