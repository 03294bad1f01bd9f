"""Planted faults against the experiment gates.

Each test plants the fault a gate is named for, by monkeypatching, runs the
experiment and asserts that the gate fails.  A run of the same config
without the fault must pass the gate, so the failure is the fault's: the
test runs that control itself, or names the acceptance test that does.
"""

import dataclasses
from importlib.resources import files

from dfrlab import controllers, harness
from dfrlab.harness import ExperimentConfig, load_experiment_config, run_learning_curve
from dfrlab.records import record_line
from dfrlab.support import TimeVaryingSupport


def _lines(result, kind):
    return [record_line(r) for r in result["records"] if r.controller == kind]


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
    config = load_experiment_config(
        str(files("dfrlab").joinpath("data", "exp_point_push_learning_curve.json")))
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
