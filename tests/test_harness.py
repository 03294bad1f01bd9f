"""Rollout bookkeeping, outcome statistics, and the experiment runners at
miniature sizes."""

import dataclasses
import json
import math
import pickle
import re
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest

from dfrlab import controllers, envs, harness, records
from dfrlab.controllers import Policy, SwitchConfig
from dfrlab.envs import builtin_env_spec
from dfrlab.errors import InvalidInputError
from dfrlab.supervisor import generate_demos
from dfrlab.harness import (
    ExperimentConfig,
    activation_split,
    activation_traces,
    classify_outcome,
    episode_timing,
    experiment_config_from_document,
    experiment_config_to_document,
    fit_support,
    load_experiment_config,
    proportion_margin_test,
    resample_trace,
    rollout,
    run_certified,
    run_disturbance_eval,
    run_experiment,
    run_learning_curve,
    summarize,
    wilson_interval,
    wilson_lower,
    wilson_upper,
    write_csv,
    write_experiment_outputs,
)
from dfrlab.kernel_ocsvm import KernelParams, OcsvmModel
from dfrlab.records import (
    AppliedRecord,
    RecoveryStep,
    RolloutRecord,
    STEP_HALTS,
    StepRecord,
    encode_record,
    record_activations,
    record_from_line,
)
from dfrlab.supervisor import generate_demos
from dfrlab.support import TimeVaryingSupport
from dfrlab.util import dump_json


def _norm(u):
    """The norm of a 2-vector with no BLAS call, as the recorded threshold takes it."""
    return float(np.sqrt((u * u).sum()))


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


# The nine fields of a record, in order: no steps, no start state.
RECORD_FIELDS = ["seed", "controller", "outcome", "halt_reason", "recovery_iterations", "g_min",
                 "activations", "line", "wall_clock_s"]


def _record(start_state, steps, controller="baseline", outcome="halted", halt_reason=None,
            recovery_iterations=0, g_min=None, wall_clock_s=None):
    """The record of an episode's parts, built as rollout builds one."""
    facts = dict(seed=0, controller=controller, outcome=outcome, halt_reason=halt_reason,
                 recovery_iterations=recovery_iterations, g_min=g_min)
    line = encode_record(**facts, start_state=np.asarray(start_state, dtype=float), steps=steps)
    return RolloutRecord(**facts, activations=record_activations(steps), line=line,
                         wall_clock_s=wall_clock_s)


def _synthetic_record(vecs, controller="baseline", outcome="halted", **kw):
    applied = [
        AppliedRecord(u=np.zeros(2), tag="policy", state=np.asarray(v, dtype=float))
        for v in vecs[1:]
    ]
    steps = [StepRecord(t=0, g=None, applied=applied, recovery=[])] if applied else []
    return _record(vecs[0], steps, controller, outcome, **kw)


def _reencoded(rec):
    """The line encode_record writes from the record's facts and decoded parts."""
    return encode_record(seed=rec.seed, controller=rec.controller, outcome=rec.outcome,
                         halt_reason=rec.halt_reason,
                         recovery_iterations=rec.recovery_iterations, g_min=rec.g_min,
                         start_state=rec.start_state, steps=rec.steps)


def _rollout_and_parts(monkeypatch, *args, **kwargs):
    """rollout's record and the start state and steps it encoded, as they
    were in memory."""
    parts = []
    encode = harness.encode_record
    with monkeypatch.context() as m:
        m.setattr(harness, "encode_record", lambda **p: parts.append(p) or encode(**p))
        rec = rollout(*args, **kwargs)
    (p,) = parts
    return rec, p["start_state"], p["steps"]


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
    # the clock stays out of summarize, which judges call: a run adds it
    assert list(out) == ["controllers"]
    timing = episode_timing(recs)
    assert timing["baseline"]["mean_wall_clock_s"] == pytest.approx(0.2)
    assert timing["dfr"]["mean_wall_clock_s"] is None


def test_summarize_counts_halt_reasons():
    recs = [
        _synthetic_record([[0, 0]], "dfr", "halted", halt_reason="start-gate"),
        _synthetic_record([[0, 0]], "dfr", "halted", halt_reason="recovery-cap"),
        _synthetic_record([[0, 0]], "dfr", "halted", halt_reason="recovery-cap"),
        _synthetic_record([[0, 0]], "dfr", "completed"),
        _synthetic_record([[0, 0]], "baseline", "halted", halt_reason="horizon"),
    ]
    out = summarize(recs)["controllers"]
    assert out["dfr"]["halt_reasons"] == {
        "none": 1, "start-gate": 1, "outside-support": 0, "recovery-cap": 2, "horizon": 0}
    assert out["baseline"]["halt_reasons"] == {
        "none": 0, "start-gate": 0, "outside-support": 0, "recovery-cap": 0, "horizon": 1}


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
    assert rec.g_min is None
    assert rec.wall_clock_s > 0.0


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
    assert a.line == b.line


def test_rollout_validates_required_inputs(point_push_spec, line_track_spec, pp_policy):
    with pytest.raises(InvalidInputError, match="support"):
        rollout(point_push_spec, "dfr", None, pp_policy, seed=0)
    with pytest.raises(InvalidInputError, match="policy"):
        rollout(point_push_spec, "baseline", None, None, seed=0)
    with pytest.raises(InvalidInputError,
                       match="6-dimensional states, the line_track environment has 2"):
        rollout(line_track_spec, "baseline", None, pp_policy, seed=0)


@pytest.mark.parametrize("seed", [-1, [0, -1], (0, 0, -3)], ids=["int", "list", "tuple"])
def test_rollout_rejects_negative_seed_entries(point_push_spec, seed):
    with pytest.raises(InvalidInputError, match="non-negative"):
        rollout(point_push_spec, "supervisor", None, None, seed=seed)


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
    assert gated.g_min == pp_support.g_at(0, gated.start_state) < 0.0  # the gate value


def test_baseline_ignores_start_gate(point_push_spec, pp_support, pp_policy):
    # same seeds as above, but the unguarded controller runs anyway
    for seed in range(40):
        rec = rollout(point_push_spec, "baseline", pp_support, pp_policy, seed=seed)
        assert rec.steps or rec.outcome != "halted"


def test_outside_support_mid_episode(line_track_spec):
    # slice 0 accepts everything, slice 1 rejects everything: the controller
    # halts the second step before any motion, and the record keeps that step
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
    assert len(rec.steps) == 2
    last = rec.steps[-1]
    assert (last.t, last.halt, last.applied, last.recovery) == (1, "outside-support", [], [])
    assert last.g == rec.g_min < 0.0
    assert np.array_equal(rec.state_sequence()[-1], rec.steps[0].applied[-1].state)


@pytest.mark.parametrize("kind", ["dfr", "es"])
def test_rollout_evaluates_g_once_per_state(line_track_spec, monkeypatch, kind):
    # rho = -1 keeps g >= 1 everywhere, so the switching rule never trips:
    # one g per step start (the start gate's serves t = 0) and none after
    # the last step
    calls = []
    original = TimeVaryingSupport.g_at

    def counted(self, t, x):
        calls.append(t)
        return original(self, t, x)

    monkeypatch.setattr(TimeVaryingSupport, "g_at", counted)
    support = TimeVaryingSupport(estimators=[_flat_model(-1.0)], projection=np.arange(2))
    policy = _zero_policy(dim=2)
    policy.weights[-1] = [0.5, 0.0]
    rec = rollout(
        line_track_spec, kind, support, policy, seed=0,
        cfg=SwitchConfig(lam=0.01), disturbance=False,
    )
    assert rec.recovery_iterations == 0 and len(rec.steps) > 1
    assert calls == [s.t for s in rec.steps]


def test_rollout_does_not_reclassify(point_push_spec, pp_support, pp_policy, monkeypatch):
    def refuse(*args):
        raise AssertionError("rollout called classify_outcome")

    monkeypatch.setattr(harness, "classify_outcome", refuse)
    for kind in ("baseline", "dfr"):
        rec = rollout(point_push_spec, kind, pp_support, pp_policy, seed=[9, 0],
                      cfg=SwitchConfig(lam=0.05))
        assert rec.outcome in ("completed", "collided", "halted")


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
    doc = json.loads(rec.line)
    back = record_from_line(rec.line)
    assert back.line is rec.line and _reencoded(back) == rec.line
    assert classify_outcome(back, point_push_spec) == rec.outcome
    assert doc["version"] == 5
    # version 5 stores each fact once: a step's halt, a motion's flags, an
    # iteration's controls and the g it started from are not keys of their
    # own, nor is anything the episode did not occupy
    assert list(doc) == ["format", "version", "seed", "controller", "outcome", "halt_reason",
                         "recovery_iterations", "g_min", "start_state", "steps"]
    recovering = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=17,
                         cfg=SwitchConfig(lam=0.05))
    steps = doc["steps"] + json.loads(recovering.line)["steps"]
    assert any(s["recovery"] for s in steps)
    for s in steps:
        assert list(s) == ["t", "g", "applied", "recovery"]
        assert all(list(a) == ["u", "tag", "state"] for a in s["applied"])
        assert all(list(e) == ["g_probe", "g_after", "flipped", "threshold"]
                   for e in s["recovery"])


def _assert_same_fields(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (y.dtype, y.shape, y.tobytes()) == (x.dtype, x.shape, x.tobytes()), f.name
        elif isinstance(x, list) and any(map(dataclasses.is_dataclass, x)):
            assert type(y) is list and len(y) == len(x), f.name
            for u, v in zip(x, y):
                _assert_same_fields(u, v)
        else:
            assert type(y) is type(x) and repr(y) == repr(x), f.name  # repr tells -0.0 apart


def test_records_pickle_exactly(point_push_spec, pp_support, pp_policy):
    applied = AppliedRecord(u=np.array([-0.0, 1e-300]), tag="probe",
                            state=np.array([0.1, -0.0, 3.0, -4.5, 5.0, 6.0]))
    step = RecoveryStep(g_probe=-0.0, g_after=0.2, flipped=True, threshold=0.3)
    ended = StepRecord(t=3, g=-0.0, applied=[applied], recovery=[step], end="completed")
    for obj in (applied, step, ended):
        _assert_same_fields(obj, pickle.loads(pickle.dumps(obj)))

    rec = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=17,
                  cfg=SwitchConfig(lam=0.05))
    back = pickle.loads(pickle.dumps(rec))
    _assert_same_fields(rec, back)  # the line and wall_clock_s among them
    assert back.start_state.tobytes() == rec.start_state.tobytes()
    assert any(s.recovery for s in rec.steps)
    for s, t in zip(rec.steps, back.steps):
        for a, b in zip(s.applied + s.recovery, t.applied + t.recovery):
            _assert_same_fields(a, b)


def _wire_copy(rec):
    """The record sent through pickle, as it crosses the pool."""
    back = pickle.loads(pickle.dumps(rec))
    assert list(vars(back)) == RECORD_FIELDS
    return back


def test_wire_record_decodes_bit_identical_fields(monkeypatch, point_push_spec, pp_support,
                                                  pp_policy):
    applied = AppliedRecord(u=np.array([-0.0, 1e-300]), tag="probe",
                            state=np.array([0.1, -0.0, 3.0, -4.5, 5.0, 1e-300]))
    step = RecoveryStep(g_probe=-0.0, g_after=1e-300, flipped=True, threshold=0.3)
    start = np.array([-0.0, 1e-300])
    steps = [StepRecord(t=0, g=None, applied=[AppliedRecord(np.zeros(2), "policy",
                                                            np.array([0.5, -0.0]))]),
             StepRecord(t=1, g=0.2, applied=[applied], recovery=[step], halt="recovery-cap")]
    synthetic = _record(start, steps, "dfr", "halted", halt_reason="recovery-cap",
                        recovery_iterations=1, g_min=-0.0, wall_clock_s=0.25)
    # real records that end collided, completed and halted, with the parts
    # rollout held in memory: the decoder rebuilds each step's end from the
    # outcome alone, and its halt from the halt reason
    real = [_rollout_and_parts(monkeypatch, point_push_spec, kind, pp_support, pp_policy,
                               seed=seed, cfg=SwitchConfig(lam=0.05))
            for kind, seed in (("baseline", 11), ("baseline", 0), ("baseline", 2),
                               ("dfr", 17), ("dfr", 2))]
    assert [r.outcome for r, _, _ in real] == ["collided", "completed", "halted", "completed",
                                               "halted"]
    assert any(s.recovery for s in real[3][2])
    for rec, start_state, steps in ((synthetic, start, steps), *real):
        ends = [s.end for s in steps]
        assert ends[:-1] == [None] * (len(ends) - 1)
        assert ends[-1] == (None if rec.outcome == "halted" else rec.outcome)
        halts = [s.halt for s in steps]
        assert halts[:-1] == [None] * (len(halts) - 1)
        assert halts[-1] == (rec.halt_reason if rec.halt_reason in STEP_HALTS else None)
        back = _wire_copy(rec)
        _assert_same_fields(rec, back)
        again = _wire_copy(record_from_line(back.line))  # a record read back has no clock
        assert again.wall_clock_s is None
        for copy in (back, again):
            assert copy.line == rec.line
            assert repr(copy.activations) == repr(record_activations(steps))
            assert copy.start_state.tobytes() == start_state.tobytes()
            assert len(copy.steps) == len(steps)
            for a, b in zip(steps, copy.steps):
                _assert_same_fields(a, b)


def test_rebuilt_record_decodes_at_each_read_and_keeps_nothing(point_push_spec, pp_support,
                                                               pp_policy):
    rec = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=17,
                  cfg=SwitchConfig(lam=0.05))
    assert list(vars(rec)) == RECORD_FIELDS
    for copy in (rec, _wire_copy(rec), record_from_line(rec.line)):
        first, second = copy.steps, copy.steps
        assert first is not second and any(s.recovery for s in first)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            _assert_same_fields(a, b)
        assert copy.start_state is not copy.start_state
        assert copy.start_state.tobytes() == rec.start_state.tobytes()
        assert list(vars(copy)) == RECORD_FIELDS
    with pytest.raises(AttributeError):
        rec.steps = []


def test_classify_outcome_decodes_a_rebuilt_record_once(monkeypatch, point_push_spec,
                                                        pp_support, pp_policy):
    rec = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=17,
                  cfg=SwitchConfig(lam=0.05))
    back = _wire_copy(rec)
    calls = []
    decode = records._decode
    monkeypatch.setattr(records, "_decode", lambda line: calls.append(line) or decode(line))
    assert classify_outcome(back, point_push_spec) == rec.outcome
    assert calls == [rec.line]


def test_record_from_line_keeps_the_line_and_never_encodes(monkeypatch, point_push_spec,
                                                          pp_support, pp_policy):
    rec = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=17,
                  cfg=SwitchConfig(lam=0.05))
    line = "".join(list(rec.line))  # equal to the record's line, not the same object

    def refuse(**parts):
        raise AssertionError("record_from_line encoded a record")

    monkeypatch.setattr(records, "encode_record", refuse)
    monkeypatch.setattr(harness, "encode_record", refuse)
    back = record_from_line(line)
    assert back.line is line and line is not rec.line
    assert [getattr(back, f) for f in RECORD_FIELDS[:6]] == \
        [getattr(rec, f) for f in RECORD_FIELDS[:6]]
    assert repr(back.activations) == repr(rec.activations)
    assert back.wall_clock_s is None


# A reader that walks every rebuilt record of a --jobs 2 run holds one
# decoded record at a time, however many records there are.
def test_walking_rebuilt_records_holds_one_record_at_a_time():
    recs = run_experiment("learning-curve", _mini_config(eval_samples=20), jobs=2)["records"]
    assert len(recs) == 40
    tracemalloc.start()
    try:
        largest = 0
        for rec in recs:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            decoded = rec.steps
            largest = max(largest, tracemalloc.get_traced_memory()[1] - base)
            del decoded
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        transitions = sum(len(s.applied) for rec in recs for s in rec.steps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert transitions > len(recs)
    assert peak < 2 * largest, (peak, largest)


@pytest.mark.parametrize("version", [1, 2, 3, 4, "5", None])
def test_record_from_document_rejects_other_versions(version):
    # the document of a line, with its version changed or dropped
    doc = json.loads(_synthetic_record([[0, 0], [1, 1]]).line)
    if version is None:
        del doc["version"]
    else:
        doc["version"] = version
    with pytest.raises(InvalidInputError, match=f"record version {version!r}"):
        record_from_line(json.dumps(doc))


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
    traces = activation_traces(rec)
    steps = rec.steps  # each read decodes the line afresh
    triggering = [s for s in steps if s.recovery]
    assert len(traces) == len(triggering)
    for step, vals in zip(triggering, traces):
        assert all(v <= 1.0 + 1e-12 for v in vals)
        if step.applied and step.applied[-1].tag == "policy":
            assert vals[-1] == 1.0  # exit anchor
    # the first iteration's threshold is lambda * ||u_hat|| at the step's
    # start state, recomputed by hand from the stored record
    first = triggering[0]
    idx = steps.index(first)
    pre = rec.start_state if idx == 0 else steps[idx - 1].applied[-1].state
    ev = first.recovery[0]
    assert ev.threshold == 0.05 * _norm(pp_policy.action(pre))
    assert traces[0][0] == min(1.0, first.g / ev.threshold)


@pytest.mark.parametrize("kind, motions_per_iteration, replayed",
                         [("dfr", 2, False), ("oracle", 1, False), ("oracle", 1, True)],
                         ids=["dfr-2", "oracle-1", "oracle-replayed-cycle"])
def test_activation_traces_later_iterations(point_push_spec, line_track_spec, pp_support,
                                            pp_policy, monkeypatch, kind, motions_per_iteration,
                                            replayed):
    # Iteration 0 starts at the step's start state, from the step's g.
    # Iteration k >= 1 starts where iteration k - 1's recovery motion ended,
    # applied[2k - 1] for dfr (probe, recovery pairs) and applied[k - 1] for
    # oracle (recovery motions only), from iteration k - 1's g_after.  The
    # traces read that chain, so it must be g_at of the start state, bit for
    # bit, on the iterations a replayed oracle cycle repeats too.
    if replayed:
        # a fixed eta of 0.3 overshoots the peak at x = 0.7 into a period-2
        # cycle from iteration 3 on; lam = 2 keeps every g below the threshold
        spec, cfg = line_track_spec, SwitchConfig(lam=2.0, eta=0.3, max_recovery_iters=10)
        peak = dataclasses.replace(_flat_model(0.1), support_vectors=np.array([[0.7, 0.0]]))
        support = TimeVaryingSupport(estimators=[peak], projection=np.arange(2))
        policy = _zero_policy(dim=2)
        policy.weights[-1] = [1.0, 0.0]
        replays = []
        replay_cycle = controllers._replay_cycle
        monkeypatch.setattr(controllers, "_replay_cycle",
                            lambda *args: replays.append(args) or replay_cycle(*args))
        rec = rollout(spec, kind, support, policy, seed=0, cfg=cfg, disturbance=False)
        assert replays and rec.recovery_iterations == 10
    else:
        spec, cfg = point_push_spec, SwitchConfig(lam=0.05)
        support, policy = pp_support, pp_policy
        rec = None
        for seed in range(60):
            cand = rollout(spec, kind, support, policy, seed=seed, cfg=cfg)
            if any(len(s.recovery) >= 2 for s in cand.steps):
                rec = cand
                break
        assert rec is not None, f"no {kind} step with two iterations among the first 60 seeds"
    traces = iter(activation_traces(rec))
    state, checked = rec.start_state, 0
    for step in rec.steps:
        if step.recovery and step.halt != "outside-support":
            vals, g = next(traces), step.g
            for k, ev in enumerate(step.recovery):
                if k:
                    motion = step.applied[motions_per_iteration * k - 1]
                    assert motion.tag == "recovery"
                    state, g = motion.state, step.recovery[k - 1].g_after
                    checked += 1
                assert support.g_at(step.t, state) == g
                assert ev.threshold == cfg.lam * _norm(policy.action(state))
                assert vals[k] == min(1.0, g / ev.threshold)
        if step.applied:
            state = step.applied[-1].state
    assert checked >= (9 if replayed else 1)


@pytest.mark.parametrize("kind", ["dfr", "oracle"])
def test_activation_traces_survive_the_record_format(point_push_spec, pp_support, pp_policy,
                                                     kind):
    cfg = SwitchConfig(lam=0.05)
    recs = [rollout(point_push_spec, kind, pp_support, pp_policy, seed=seed, cfg=cfg)
            for seed in range(10)]
    assert sum(len(activation_traces(r)) for r in recs) > 0
    for rec in recs:
        doc = json.loads(rec.line)
        for e in (e for s in doc["steps"] for e in s["recovery"]):
            assert list(e)[-2:] == ["flipped", "threshold"]
        back = record_from_line(json.dumps(doc, separators=(",", ":")))
        assert back.line == rec.line
        assert activation_traces(back) == activation_traces(rec)


def test_activations_agree_on_in_process_rebuilt_and_decoded_records(monkeypatch):
    replays = []
    replay_cycle = controllers._replay_cycle
    monkeypatch.setattr(controllers, "_replay_cycle",
                        lambda *args: replays.append(args) or replay_cycle(*args))
    cfg = _shipped_config("exp_point_push_ascent.json", eval_samples=40, ascent_cells=((5, 30),))
    serial = run_experiment("ascent", cfg, jobs=1)
    assert replays  # the oracle arm's records hold replayed cycles
    in_process = serial["records"]
    pooled = run_experiment("ascent", cfg, jobs=2)
    rebuilt = pooled["records"]  # activations computed in the workers
    decoded = [record_from_line(r.line) for r in in_process]
    expected = [repr(r.activations) for r in in_process]
    assert sum(len(r.activations) for r in in_process) > 0
    for copies in (rebuilt, decoded):
        assert [repr(r.activations) for r in copies] == expected  # repr tells -0.0 apart
        assert [activation_traces(r) for r in copies] == [activation_traces(r) for r in in_process]
        for arm in ("dfr", "oracle"):
            split = activation_split([r for r in copies if r.controller == arm], cfg.trace_points)
            assert split == serial["aggregates"]["activation_split"][arm]
    for key in ("rows", "gates", "aggregates", "traces"):
        assert pooled[key] == serial[key], key


def test_serial_runs_keep_finished_records_as_the_pool_does():
    cfg = _shipped_config("exp_point_push_ascent.json", eval_samples=12, ascent_cells=((5, 30),))
    serial, pooled = (run_experiment("ascent", cfg, jobs=jobs)["records"] for jobs in (1, 2))
    facts = RECORD_FIELDS[:-1]  # all but wall_clock_s
    for recs in (serial, pooled):
        assert len(recs) == 24
        for r in recs:
            assert list(vars(r)) == RECORD_FIELDS  # no steps, no start_state
    assert sum(len(r.activations) for r in serial) > 0
    # repr tells -0.0 apart
    assert [repr([vars(r)[f] for f in facts]) for r in serial] == \
        [repr([vars(r)[f] for f in facts]) for r in pooled]


def test_records_compare_by_identity(point_push_spec, pp_support, pp_policy):
    rec = rollout(point_push_spec, "dfr", pp_support, pp_policy, seed=17,
                  cfg=SwitchConfig(lam=0.05))
    step = next(s for s in rec.steps if s.recovery)
    for obj in (rec, step, step.applied[0]):
        assert obj == obj and not obj != obj
        twin = pickle.loads(pickle.dumps(obj))
        assert obj != twin and not obj == twin
        assert len({obj, twin}) == 2
    assert step.recovery[0] == pickle.loads(pickle.dumps(step.recovery[0]))  # plain floats


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


def test_experiment_config_rejects_duplicate_controllers():
    # Two baseline arms would count each other's episodes under one name.
    with pytest.raises(InvalidInputError, match="listed once"):
        ExperimentConfig(controllers=("supervisor", "baseline", "baseline"))
    doc = experiment_config_to_document(ExperimentConfig())
    doc["controllers"] = ["dfr", "baseline", "dfr"]
    with pytest.raises(InvalidInputError, match="listed once"):
        experiment_config_from_document(doc)


@pytest.mark.parametrize(
    "field, bad",
    [("epsilon", 2.0), ("nu", 0.0), ("policy_centers", 0), ("lam", -1.0),
     ("max_recovery_iters", 0), ("lambda_mode", "auto"), ("oracle_eta", 0.0),
     # certified mode with the default lam = 1.0, which it would ignore
     ("lambda_mode", "certified"),
     # int fields and the entries of int lists take integers only: no bool,
     # no fraction to truncate
     ("eval_samples", 2.5), ("eval_samples", True), ("policy_centers", 20.5),
     ("trials", False), ("max_solver_iters", math.inf), ("seed", math.nan),
     ("trace_points", "21"), ("min_activations", 49.9), ("max_recovery_iters", 10.5),
     ("demo_grid", (20, 30.5)), ("demo_grid", (True, 30)), ("demo_seeds", (5.5,)),
     ("ascent_cells", ((5, 30.5),)), ("ascent_cells", ((False, 30),)), ("projection", (0.5,)),
     # float fields take finite reals only: no bool, no string, no nan or inf
     ("nu", True), ("gamma", "15"), ("solver_tol", math.inf), ("policy_ridge", math.nan),
     ("policy_bandwidth", False), ("lam", True), ("eta", math.inf), ("epsilon", "0.1"),
     ("oracle_eta", math.inf), ("demo_jitter", True), ("nu", None),
     # pooled is a boolean, disturbance a boolean or null, env a string
     ("pooled", "0.5"), ("pooled", 1), ("disturbance", "0.5"), ("disturbance", 0),
     ("env", 0), ("env", None)],
)
def test_experiment_config_checks_derived_configs_at_load(field, bad):
    with pytest.raises(InvalidInputError):
        ExperimentConfig(**{field: bad})
    doc = experiment_config_to_document(ExperimentConfig())
    doc[field] = bad
    with pytest.raises(InvalidInputError):
        experiment_config_from_document(doc)


def test_experiment_config_takes_integral_floats_as_ints():
    cfg = ExperimentConfig(eval_samples=3.0, demo_grid=(20.0, 30), demo_seeds=(np.int64(5),),
                           ascent_cells=((5.0, 30),), projection=(1.0,))
    assert (cfg.eval_samples, cfg.demo_grid, cfg.demo_seeds, cfg.ascent_cells,
            cfg.projection) == (3, (20, 30), (5,), ((5, 30),), (1,))
    assert type(cfg.eval_samples) is int and type(cfg.demo_seeds[0]) is int


@pytest.mark.parametrize(
    "fields",
    [{"seed": -1, "demo_seeds": (5,)}, {"seed": -1}, {"trials": 2, "demo_seeds": (4, -3)},
     {"ascent_cells": ((-2, 20),)}, {"demo_jitter": -0.5}, {"demo_jitter": math.inf},
     {"demo_jitter": math.nan}],
    ids=["seed", "derived-demo-seed", "demo-seed", "ascent-cell-seed", "negative-jitter",
         "infinite-jitter", "nan-jitter"],
)
def test_experiment_config_rejects_negative_seeds_and_bad_jitter(fields):
    with pytest.raises(InvalidInputError, match="seed|demo_jitter"):
        ExperimentConfig(**fields)


def test_experiment_config_refuses_empty_ascent_cells():
    # null falls back to the demo_seeds x demo_grid cross; an empty list
    # would run no cell and leave the solver block nothing to count
    with pytest.raises(InvalidInputError, match="ascent_cells must list at least one cell"):
        ExperimentConfig(ascent_cells=())
    doc = experiment_config_to_document(ExperimentConfig())
    doc["ascent_cells"] = []
    with pytest.raises(InvalidInputError, match="ascent_cells"):
        experiment_config_from_document(doc)


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


def _activation(values, ending):
    """A step holding one recovery activation whose iterations start from
    g / threshold = values, ended as ending says: the step's g is the first
    value, and each iteration's g_after the next."""
    applied = [AppliedRecord(np.zeros(2), "recovery", np.zeros(2)) for _ in values]
    ends = values[1:] + values[-1:]
    step = StepRecord(0, values[0], applied,
                      [RecoveryStep(v, end, False, 1.0) for v, end in zip(values, ends)])
    if ending == "hand-back":
        applied.append(AppliedRecord(np.zeros(2), "policy", np.zeros(2)))
    elif ending in STEP_HALTS:
        step.halt = ending
    else:
        step.end = ending
    return step


def test_activation_split_groups_by_length_and_ending():
    plain = StepRecord(0, 1.0, [AppliedRecord(np.zeros(2), "policy", np.zeros(2))])
    steps = [plain, _activation([0.5], "hand-back"), _activation([0.1, 0.5], "hand-back"),
             _activation([0.2, 0.95, 0.4], "recovery-cap"),
             _activation([0.3] * 6, "outside-support"), _activation([0.8, 0.6], "collided")]
    rec = _record(np.zeros(2), steps, "oracle")
    split = activation_split([rec], 3)
    assert list(split) == ["1", "2-4", ">=5"]
    assert all(list(split[band])[:3] == ["hand-back", *STEP_HALTS] for band in split)
    empty = {"count": 0, "fraction_reaching_0.9": None, "max_decrease": None}
    assert split["1"] == {
        "hand-back": {"count": 1, "fraction_reaching_0.9": 0.0, "max_decrease": 0.0},
        "outside-support": empty, "recovery-cap": empty,
    }
    # no 1.0 anchor: the hand-back climbs from 0.1 to 0.5 and reaches nothing
    assert split["2-4"]["hand-back"] == {
        "count": 1, "fraction_reaching_0.9": 0.0, "max_decrease": pytest.approx(-0.2)}
    assert split["2-4"]["recovery-cap"] == {
        "count": 1, "fraction_reaching_0.9": 1.0, "max_decrease": pytest.approx(0.55)}
    # a recovery motion that collided ends its activation in a group of its own
    assert split["2-4"]["collided"] == {
        "count": 1, "fraction_reaching_0.9": 0.0, "max_decrease": pytest.approx(0.1)}
    assert split[">=5"]["outside-support"] == {
        "count": 1, "fraction_reaching_0.9": 0.0, "max_decrease": 0.0}
    assert split["2-4"]["outside-support"] == split[">=5"]["hand-back"] == empty


def test_ascent_split_counts_every_activation():
    cfg = _shipped_config("exp_point_push_ascent.json", eval_samples=12, ascent_cells=((5, 30),))
    out = run_experiment("ascent", cfg)
    split = out["aggregates"]["activation_split"]
    assert list(split) == ["dfr", "oracle"]
    for arm, groups in split.items():
        recs = [r for r in out["records"] if r.controller == arm]
        total = sum(g["count"] for band in groups.values() for g in band.values())
        outside = sum(band["outside-support"]["count"] for band in groups.values())
        assert total == sum(1 for r in recs for s in r.steps if s.recovery)
        # the gates' traces leave out only the activations that left the support
        assert total - outside == len(out["traces"][arm])


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


def _shipped_config(name, **kw):
    return dataclasses.replace(
        load_experiment_config(str(files("dfrlab").joinpath("data", name))), **kw
    )


# The ascent and disturbance cells recover hundreds of times, the
# disturbance one under the stream.  At jobs=3 the 7 episodes of each arm
# split into chunks of 3, 2 and 2, which must merge back in seed order.
@pytest.mark.parametrize(
    "experiment, cfg, jobs",
    [
        ("learning-curve", _mini_config(), 2),
        ("ascent", _shipped_config(
            "exp_point_push_ascent.json", eval_samples=12, ascent_cells=((5, 30),)), 2),
        ("disturbance", _shipped_config("exp_line_track_disturbance.json", eval_samples=12), 2),
        ("learning-curve", _mini_config(eval_samples=7), 3),
    ],
    ids=["learning-curve", "ascent", "disturbance", "learning-curve-jobs3"],
)
def test_parallel_rollouts_match_serial(experiment, cfg, jobs):
    a = run_experiment(experiment, cfg, jobs=1)
    b = run_experiment(experiment, cfg, jobs=jobs)
    assert [r.line for r in a["records"]] == [r.line for r in b["records"]]
    assert a["rows"] == b["rows"]
    assert (a["gates"], a["aggregates"]) == (b["gates"], b["aggregates"])
    assert all(r.wall_clock_s is not None for r in a["records"] + b["records"])


# Every runner reads only the facts a record carries beside its line,
# ascent's activations among them, so at jobs > 1 the parent neither decodes
# nor encodes a record, and still writes the serial run's bytes.
@pytest.mark.parametrize(
    "experiment, cfg",
    [("learning-curve", _mini_config(demo_grid=(20, 30), eval_samples=5)),
     ("ascent", _shipped_config(
         "exp_point_push_ascent.json", eval_samples=12, ascent_cells=((5, 30),))),
     ("disturbance", _shipped_config("exp_line_track_disturbance.json", eval_samples=8))],
    ids=["learning-curve", "ascent", "disturbance"],
)
def test_parallel_parent_never_decodes_records(monkeypatch, tmp_path, experiment, cfg):
    run_experiment(experiment, cfg, out_dir=tmp_path / "jobs1", jobs=1)
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    # the workers fork after the patch and count in their own copies
    monkeypatch.setattr(records, "_decode", counting("_decode", records._decode))
    monkeypatch.setattr(harness, "encode_record", counting("encode", harness.encode_record))
    out = run_experiment(experiment, cfg, out_dir=tmp_path / "jobs2", jobs=2)
    assert calls == []
    assert all(list(vars(r)) == RECORD_FIELDS for r in out["records"])
    for name in ("records.jsonl", "traces.csv" if experiment == "ascent" else "metrics.csv"):
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()
    for kind, entry in out["summary"]["controllers"].items():
        assert sum(entry["halt_reasons"].values()) == entry["n"], kind


# ---------------------------------------------------------------------------
# judging a written run again from its records.jsonl


JUDGES = {"learning-curve": harness.judge_learning_curve, "ascent": harness.judge_ascent,
          "disturbance": harness.judge_disturbance}

# Two trials of two counts, and two ascent cells, so that the judges regroup
# records over more than one cell key.
ROUND_TRIP_RUNS = [
    ("learning-curve", _mini_config(demo_grid=(20, 30), trials=2, demo_seeds=(5, 6),
                                    eval_samples=3, controllers=("supervisor", "baseline",
                                                                 "es", "dfr"))),
    ("ascent", _shipped_config("exp_point_push_ascent.json", eval_samples=8,
                               ascent_cells=((5, 30), (7, 20)))),
    ("disturbance", _shipped_config("exp_line_track_disturbance.json", eval_samples=8)),
]

# What a judge must never call: rollouts, fits, demo generation and the env.
NOT_JUDGING = ("_arm_runs", "rollout", "_fit_cell", "fit_support", "fit_time_varying",
               "fit_pooled", "fit_policy", "generate_demos", "demo_prefix", "load_env_spec",
               "reset", "step", "check_constraint", "reached_goal", "classify_outcome")


def _read_back(run_dir):
    lines = (run_dir / "records.jsonl").read_text().splitlines()
    return [record_from_line(line) for line in lines]


def _refuse_everything_but_judging(monkeypatch):
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"a judge called {name}")
        return refused

    for module in (harness, envs, controllers):
        for name in NOT_JUDGING:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    monkeypatch.setattr(TimeVaryingSupport, "g_at", refuse("g_at"))


@pytest.mark.parametrize("experiment, cfg", ROUND_TRIP_RUNS, ids=[e for e, _ in ROUND_TRIP_RUNS])
def test_a_written_run_is_judged_again_from_its_records(monkeypatch, tmp_path, experiment, cfg,
                                                        strip_nondeterministic):
    run = tmp_path / "run"
    run_experiment(experiment, cfg, out_dir=run)
    written = strip_nondeterministic(json.loads((run / "summary.json").read_text()))
    config = experiment_config_from_document(
        json.loads((run / "manifest.json").read_text())["config"])
    _refuse_everything_but_judging(monkeypatch)
    judged = JUDGES[experiment](config, _read_back(run))
    # the solver counts come from the fits, which the records do not hold
    assert judged["aggregates"]["solver"] is None
    judged["aggregates"]["solver"] = written["aggregates"]["solver"]
    doc = {key: judged[key] for key in ("experiment", "gates", "aggregates", "summary")}
    assert dump_json(doc) == dump_json(written)
    table = "traces.csv" if experiment == "ascent" else "metrics.csv"
    write_csv(tmp_path / table, judged["columns"], judged["rows"])
    assert (tmp_path / table).read_bytes() == (run / table).read_bytes()


def test_the_judge_refuses_records_that_are_not_the_configs_episodes(tmp_path):
    cfg = _mini_config(demo_grid=(20, 30), eval_samples=3)
    run_experiment("learning-curve", cfg, out_dir=tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()

    def judge(lines, config=cfg):
        return harness.judge_learning_curve(
            config, [record_from_line(line) for line in lines])

    judge(lines)
    # cell by cell, baseline then dfr: the last line is dfr's episode 2 of cell [0, 1]
    truncated = ("cell [0, 1] (30 demos of demo seed 5), controller 'dfr': of its 3 "
                 "episodes, 1 have no record and 0 more than one")
    with pytest.raises(InvalidInputError, match=re.escape(truncated)):
        judge(lines[:-1])
    duplicated = ("cell [0, 0] (20 demos of demo seed 5), controller 'baseline': of its 3 "
                  "episodes, 0 have no record and 1 more than one")
    with pytest.raises(InvalidInputError, match=re.escape(duplicated)):
        judge(lines + lines[:1])
    stray = "controller 'dfr' with seed [0, 0, 0, 0]"
    with pytest.raises(InvalidInputError, match=re.escape(stray)):
        judge(lines, dataclasses.replace(cfg, controllers=("baseline",)))
    renamed = lines[0].replace('"controller":"baseline"', '"controller":"es"')
    with pytest.raises(InvalidInputError, match=re.escape("controller 'es' with seed [0, 0, 0, 0]")):
        judge([renamed] + lines[1:])
    with pytest.raises(InvalidInputError,
                       match=re.escape("controller 'baseline' with seed [0, 0, 0, 0]")):
        judge(lines, dataclasses.replace(cfg, seed=1))


def test_run_certified_refuses_a_manual_config():
    # the audit would otherwise run the manual lam and certify nothing
    cfg = _shipped_config("exp_point_push_certified.json", lam=1.0, lambda_mode="manual")
    with pytest.raises(InvalidInputError, match="lambda_mode 'certified', got 'manual'"):
        run_certified(cfg)


def test_certified_counts_the_halt_reason_of_every_attempt():
    cfg = _shipped_config("exp_point_push_certified.json", eval_samples=4)
    agg = run_certified(cfg)["aggregates"]
    reasons = agg["halt_reasons"]
    assert sum(reasons.values()) == agg["rollouts"] + agg["start_gate_skipped"]
    assert reasons["start-gate"] == agg["start_gate_skipped"]


# Two cells and two arms: one pool per arm, not per (cell, arm).
@pytest.mark.parametrize("jobs, pools", [(1, 0), (2, 2)])
def test_one_pool_per_arm(monkeypatch, jobs, pools):
    created = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    run_experiment("learning-curve", _mini_config(demo_grid=(20, 30), eval_samples=4), jobs=jobs)
    assert created == [jobs] * pools


@pytest.mark.parametrize("jobs", [0, -2, 2.5])
def test_run_experiment_rejects_bad_jobs(jobs):
    message = f"jobs must be an int >= 1, got {jobs!r}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        run_experiment("learning-curve", _mini_config(), jobs=jobs)


# Two demo seeds, three cells: one demo set per seed, at its largest count.
def test_one_demo_set_per_demo_seed(monkeypatch):
    calls = []
    original = harness.generate_demos

    def counting(spec, n, seed, jitter_sigma=0.0):
        calls.append((seed, n))
        return original(spec, n, seed, jitter_sigma)

    monkeypatch.setattr(harness, "generate_demos", counting)
    cfg = _mini_config(demo_grid=(20, 30), trials=2, demo_seeds=(5, 6), eval_samples=2)
    out = run_experiment("learning-curve", cfg)
    assert calls == [(5, 30), (6, 30)]
    monkeypatch.setattr(harness, "generate_demos", original)
    assert [r.line for r in run_experiment("learning-curve", cfg)["records"]] \
        == [r.line for r in out["records"]]


def test_every_prefix_gets_the_zero_variance_check():
    # The one-demo cell is a prefix of the 20-demo set; alone, its demo set
    # fails generate_demos's check, so the prefix must fail the same way.
    with pytest.raises(InvalidInputError, match="zero variance") as alone:
        generate_demos(builtin_env_spec("point_push"), 1, seed=5)
    with pytest.raises(InvalidInputError, match="zero variance") as cell:
        run_experiment("learning-curve", _mini_config(demo_grid=(1, 20)))
    assert str(cell.value) == str(alone.value)


def test_summary_times_each_stage(tmp_path, strip_nondeterministic):
    cfg = _mini_config(eval_samples=2)
    run_experiment("learning-curve", cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    timing = summary["timing"]
    assert set(timing) == {"demos_s", "support_fit_s", "policy_fit_s", "rollouts_s",
                           "records_write_s"}
    assert set(timing["rollouts_s"]) == set(cfg.controllers)
    stages = [timing[k] for k in ("demos_s", "support_fit_s", "policy_fit_s", "records_write_s")]
    assert all(v > 0.0 for v in stages + list(timing["rollouts_s"].values()))
    stripped = strip_nondeterministic(summary)
    assert "timing" not in stripped and "timing" not in stripped["summary"]
    assert stripped["gates"] == summary["gates"]


def test_summary_counts_the_solver_steps_of_every_fitted_slice(tmp_path):
    # nu = 0.2 puts some alphas at the box bound C = 1/(nu m)
    cfg = _mini_config(demo_grid=(20, 30), eval_samples=1, nu=0.2)
    run_experiment("learning-curve", cfg, out_dir=tmp_path)
    solver = json.loads((tmp_path / "summary.json").read_text())["aggregates"]["solver"]
    spec = builtin_env_spec(cfg.env)
    its, svs, at_bound, rhos = [], [], 0, []
    for n in cfg.demo_grid:
        demos = generate_demos(spec, n, cfg.demo_seeds[0])
        support = fit_support(demos, cfg.ocsvm_params(), cfg.projection, cfg.pooled)
        assert len(support.estimators) == demos.horizon
        # a slice warm-started from the one before may take no step; the
        # first slice of a cell starts cold
        assert support.estimators[0].iterations > 0
        its += [est.iterations for est in support.estimators]
        svs += [est.support_vectors.shape[0] for est in support.estimators]
        for est in support.estimators:
            C = 1.0 / (cfg.nu * n)
            at_bound += sum(a >= C * (1.0 - 1e-9) for a in est.alphas.tolist())
            rhos.append(est.rho)
    assert min(svs) > 0 and 0 < at_bound < sum(svs)
    assert solver == {"slices": len(its), "total_iterations": sum(its),
                      "median_iterations": float(np.median(its)), "max_iterations": max(its),
                      "total_support_vectors": sum(svs), "max_support_vectors": max(svs),
                      "total_at_bound": at_bound, "min_rho": min(rhos), "max_rho": max(rhos)}


# ---------------------------------------------------------------------------
# records.jsonl, written a line at a time


def _write_records(out_dir, recs):
    result = {"experiment": "learning-curve", "records": recs, "columns": ["n"], "rows": [],
              "gates": {}, "aggregates": {}}
    write_experiment_outputs(out_dir, _mini_config(), result)
    return out_dir / "records.jsonl"


def test_streamed_records_are_the_joined_lines(monkeypatch, tmp_path):
    replays = []
    replay_cycle = controllers._replay_cycle

    def counted(*args):
        replays.append(args)
        return replay_cycle(*args)

    monkeypatch.setattr(controllers, "_replay_cycle", counted)
    cfg = _shipped_config("exp_point_push_ascent.json", eval_samples=40, ascent_cells=((5, 30),))
    out = run_experiment("ascent", cfg, out_dir=tmp_path / "ascent")
    assert replays  # the oracle arm's records hold replayed cycles
    joined = "".join(r.line + "\n" for r in out["records"])
    assert (tmp_path / "ascent" / "records.jsonl").read_bytes() == joined.encode()
    assert _write_records(tmp_path / "none", []).read_bytes() == b""


class _Unwritable:
    """A record whose line fails as the records file is being written."""

    @property
    def line(self):
        raise ValueError("a line that fails mid-write")


def test_a_record_that_fails_to_encode_leaves_no_records_file(tmp_path):
    # rollout encodes a record's line as it builds the record, so a
    # non-finite float fails there, before any file is opened
    with pytest.raises(ValueError, match="not JSON compliant"):
        _synthetic_record([[0.0, 0.0], [0.1, 0.0]], g_min=math.nan)
    path = tmp_path / "records.jsonl"
    path.write_text("earlier\n")
    good = _synthetic_record([[0.0, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError, match="fails mid-write"):
        _write_records(tmp_path, [good, _Unwritable(), good])
    assert path.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "records.jsonl"]


def test_records_write_holds_one_line_at_a_time(tmp_path):
    recs = [_synthetic_record([[0.1 * i, 0.2], [0.3, 0.4 * i], [0.5, 0.6]])
            for i in range(3000)]
    total = sum(len(r.line) + 1 for r in recs)
    tracemalloc.start()
    try:
        _write_records(tmp_path, recs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "records.jsonl").stat().st_size == total
    assert peak < total / 4, (peak, total)


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
    # zero collisions on both arms
    assert any(v["passed"] is False for v in out["gates"].values())


# ---------------------------------------------------------------------------
# csv formatting


def test_write_csv_cell_rules(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"], [{"a": 0.1, "b": None, "c": True, "d": 3}])
    text = path.read_text()
    assert text == "a,b,c,d\n0.1,,true,3\n"
