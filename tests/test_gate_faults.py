"""Planted faults against the experiment gates.

Each test plants the fault a gate is named for, by monkeypatching or by one
config field, runs the experiment and asserts that the gate fails.  A run of
the same config without the fault must pass the gate, so the failure is the
fault's: the test runs that control itself, or names the acceptance test
that does.  At --jobs 2 the rollout workers are forked after the patch, so
they run the patched code too.
"""

import dataclasses
from importlib.resources import files

import pytest

from dfrlab import controllers, harness
from dfrlab.harness import (
    ExperimentConfig, load_experiment_config, run_ascent_traces, run_learning_curve,
)
from dfrlab.records import AppliedRecord
from dfrlab.support import TimeVaryingSupport


def _shipped(name):
    return load_experiment_config(str(files("dfrlab").joinpath("data", name)))


LEARNING_CURVE = "exp_point_push_learning_curve.json"
ASCENT = "exp_point_push_ascent.json"


def _lines(result, kind):
    return [r.line for r in result["records"] if r.controller == kind]


def test_supervisor_sanity_fails_when_the_supervisor_arm_stands_still(monkeypatch):
    config = ExperimentConfig(
        env="point_push", demo_grid=(20,), trials=1, eval_samples=5,
        controllers=("supervisor", "baseline"), gamma=15.0, lam=0.05, policy_centers=50,
        policy_bandwidth=0.15, demo_seeds=(5,), seed=0,
    )
    clean = run_learning_curve(config)
    assert clean["gates"]["supervisor_sanity"]["passed"]
    # The supervisor arm's control, scaled to zero.  Demo generation calls
    # supervisor.supervisor_action, not the controllers' name for it.
    scripted = controllers.supervisor_action
    monkeypatch.setattr(controllers, "supervisor_action",
                        lambda spec, state: 0.0 * scripted(spec, state))
    planted = run_learning_curve(config)
    gate = planted["gates"]["supervisor_sanity"]
    assert not gate["passed"] and gate["detail"] == {"completed": 0, "n": 5}
    # the demos, and so the baseline cloned from them, are untouched
    assert _lines(planted, "baseline") == _lines(clean, "baseline")


def test_collision_halving_fails_under_a_blind_support(monkeypatch):
    # Every slice's rho lowered by 10: g is then far above any switching
    # threshold, so dfr and es never act.  The unplanted control is the same
    # shipped config in AC6 (tests/test_acceptance.py), where it passes.
    config = _shipped(LEARNING_CURVE)
    fit = harness.fit_support

    def blind(*args, **kwargs):
        support = fit(*args, **kwargs)
        return TimeVaryingSupport(
            estimators=[dataclasses.replace(m, rho=m.rho - 10.0) for m in support.estimators],
            projection=support.projection)

    monkeypatch.setattr(harness, "fit_support", blind)
    planted = run_learning_curve(config, jobs=2)
    assert not planted["gates"]["collision_halving"]["passed"]
    # dfr never switched: each of its episodes ends as the baseline's does
    ends = {kind: [(r.seed, r.outcome, r.halt_reason) for r in planted["records"]
                   if r.controller == kind] for kind in ("baseline", "dfr")}
    assert ends["dfr"] == ends["baseline"]


def test_completion_ratio_fails_under_a_lambda_far_above_any_g():
    # lambda = 5 puts the switching threshold lambda * ||u_hat|| far above
    # any g the slices reach, so dfr recovers to the cap at every step and
    # completes nothing.  Every dfr episode then runs 500 iterations, about
    # 20 s on the shipped config, so this runs the first 10 episodes of each
    # shipped cell, on the shipped seeds, and its own unplanted control.
    config = dataclasses.replace(_shipped(LEARNING_CURVE), eval_samples=10,
                                 controllers=("baseline", "dfr"))
    clean = run_learning_curve(config, jobs=2)
    assert clean["gates"]["completion_ratio"]["passed"]
    planted = run_learning_curve(dataclasses.replace(config, lam=5.0), jobs=2)
    gate = planted["gates"]["completion_ratio"]
    assert not gate["passed"] and gate["detail"]["dfr"] == 0.0
    assert _lines(planted, "baseline") == _lines(clean, "baseline")


def test_es_collisions_not_above_dfr_fails_when_the_es_latch_never_trips(monkeypatch):
    # es steps as the baseline does, keeping only its start gate, while dfr
    # keeps the real support.  The gate reads the es and dfr arms alone, and
    # the arms are paired, so these are AC6's es and dfr seeds; AC6 is the
    # unplanted control.
    monkeypatch.setattr(controllers.EarlyStopController, "step",
                        controllers.BaselineController.step)
    planted = run_learning_curve(
        dataclasses.replace(_shipped(LEARNING_CURVE), controllers=("es", "dfr")), jobs=2)
    assert not planted["gates"]["es_collisions_not_above_dfr"]["passed"]
    # the latch never tripped: es never applied a zero control
    es = [r for r in planted["records"] if r.controller == "es"]
    assert {m.tag for r in es for s in r.steps for m in s.applied} == {"policy"}


def test_enough_activations_fails_when_the_switch_never_trips():
    # lambda = 1e-12 puts the threshold below any positive g the slices
    # reach, so a step either goes on with the policy or halts outside the
    # support: dfr never recovers.  AC7 is the unplanted control.
    planted = run_ascent_traces(dataclasses.replace(_shipped(ASCENT), lam=1e-12), jobs=2)
    gate = planted["gates"]["enough_activations"]
    assert not gate["passed"] and gate["detail"]["activations"] == 0


@pytest.fixture(scope="module")
def ascent_without_the_flip():
    """The shipped ascent at --jobs 2 with dfr's probe never reversed: each
    recovery step goes the way the probe went, so recovery is a random walk.
    AC7 is the unplanted control."""
    iteration = controllers.dfr_recovery_iteration

    def no_flip(handle, support, t, state, cfg, rng, lam, g_before, threshold):
        rec, (probe, step) = iteration(handle, support, t, state, cfg, rng, lam, g_before,
                                       threshold)
        if not rec.flipped:
            return rec, [probe, step]
        u = -step.u
        x = handle.micro_step(probe.state, u)
        rec = dataclasses.replace(rec, g_after=float(support.g_at(t, x)), flipped=False)
        return rec, [probe, AppliedRecord(u, "recovery", x)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controllers, "dfr_recovery_iteration", no_flip)
        return run_ascent_traces(_shipped(ASCENT), jobs=2)


def test_oracle_dominates_fails_without_the_dfr_flip(ascent_without_the_flip):
    assert not ascent_without_the_flip["gates"]["oracle_dominates"]["passed"]


# The curves average only the activations that stayed inside the support, so
# a random walk that survives still looks like an ascent.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_nearly_monotone_fails_without_the_dfr_flip(ascent_without_the_flip):
    assert not ascent_without_the_flip["gates"]["nearly_monotone"]["passed"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_reaches_threshold_fails_without_the_dfr_flip(ascent_without_the_flip):
    assert not ascent_without_the_flip["gates"]["reaches_threshold"]["passed"]
