"""Acceptance gates for the whole laboratory.

Each test prints exactly one summary line (PASS or FAIL with the measured
values and elapsed time) and then asserts the same condition, so a -rP run
reads as a checklist.  The heavyweight protocol tests drive the shipped
experiment configs through the same entry points the CLI uses.
"""

import json
import subprocess
import sys
import time
from importlib.resources import files

import numpy as np
import pytest

from dfrlab.envs import builtin_env_spec, dynamics_constant, random_state, step
from dfrlab.harness import (
    ExperimentConfig,
    _strip_nondeterministic,
    classify_outcome,
    load_experiment_config,
    run_ascent_traces,
    run_certified,
    run_disturbance_eval,
    run_learning_curve,
    save_experiment_config,
)
from dfrlab.kernel_ocsvm import (
    KernelParams,
    OcsvmParams,
    decision_value,
    decision_values,
    model_dual_objective,
    solve_dual_bruteforce,
    train_ocsvm,
)
from dfrlab.records import STEP_HALTS
from dfrlab.support import fit_pooled, fit_time_varying, make_failure_demo

CONFIG_DIR = files("dfrlab").joinpath("data")


def _shipped(name):
    return load_experiment_config(str(CONFIG_DIR.joinpath(name)))


def _report(label, passed, detail, elapsed, budget):
    ok = passed and elapsed < budget
    print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s of {budget:.0f}s)")
    assert passed, f"{label}: {detail}"
    assert elapsed < budget, f"{label}: took {elapsed:.1f}s, budget {budget:.0f}s"


def _reclassified(config, records, expected):
    """(ok, detail) of re-deriving every record's outcome from its states:
    rollout decides outcomes as it runs and leaves the check to here.  Each
    record must also count every stored iteration, and its last step must
    hold the halt exactly when the halt reason is one a step records."""
    spec = builtin_env_spec(config.env)
    bad = miscounted = misplaced = 0
    for r in records:
        d = r._decoded()  # a finished record decodes its line at each read: once here
        bad += classify_outcome(d, spec) != r.outcome
        miscounted += r.recovery_iterations != sum(len(s.recovery) for s in d.steps)
        last_halt = d.steps[-1].halt if d.steps else None
        misplaced += last_halt != (r.halt_reason if r.halt_reason in STEP_HALTS else None)
    ok = len(records) == expected and bad == miscounted == misplaced == 0
    return ok, (
        f"{len(records) - bad}/{len(records)} records reclassify (expected {expected}), "
        f"{miscounted} miscount iterations, {misplaced} misplace the step halt"
    )


def test_ac1_training_fractions_track_nu():
    t0 = time.perf_counter()
    nu, m = 0.05, 500
    params = OcsvmParams(nu=nu, kernel=KernelParams(gamma=0.5))
    worst_out, worst_sv = 0.0, 1.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, 2))
        model = train_ocsvm(X, params)
        worst_out = max(worst_out, float((decision_values(model, X) < 0).mean()))
        worst_sv = min(worst_sv, len(model.alphas) / m)
    elapsed = time.perf_counter() - t0
    _report(
        "AC1 nu-fraction bounds",
        worst_out <= 0.07 and worst_sv >= 0.03,
        f"max outlier frac {worst_out:.4f} <= 0.07, min sv frac {worst_sv:.4f} >= 0.03",
        elapsed,
        10.0,
    )


def test_ac2_solver_agrees_with_reference():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    max_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 4))
        X = rng.normal(size=(n, dim)) * rng.uniform(0.3, 3.0)
        nu = float(rng.uniform(max(0.2, 1.05 / n), 1.0))
        params = OcsvmParams(nu=nu, kernel=KernelParams(gamma=float(rng.uniform(0.1, 8.0))))
        a = train_ocsvm(X, params)
        b = solve_dual_bruteforce(X, params)
        max_gap = max(max_gap, abs(model_dual_objective(a) - model_dual_objective(b)))
    elapsed = time.perf_counter() - t0
    _report(
        "AC2 dual-route solver agreement",
        max_gap <= 1e-6,
        f"max dual objective gap {max_gap:.3g} <= 1e-6 over 100 instances",
        elapsed,
        30.0,
    )


def test_ac3_pooling_misses_what_slices_keep():
    t0 = time.perf_counter()
    c0 = np.zeros(2)
    params = OcsvmParams(nu=0.05, kernel=KernelParams(gamma=5.0))
    pooled_neg = sliced_pos = 0
    for seed in range(10):
        demos = make_failure_demo(40, 50, seed)
        if decision_value(fit_pooled(demos, params), c0) < 0.0:
            pooled_neg += 1
        if fit_time_varying(demos, params).g_at(0, c0) > 0.0:
            sliced_pos += 1
    elapsed = time.perf_counter() - t0
    _report(
        "AC3 pooled-vs-sliced dichotomy",
        pooled_neg >= 9 and sliced_pos == 10,
        f"pooled rejects start center {pooled_neg}/10 (need >=9), "
        f"slice 0 accepts it {sliced_pos}/10 (need 10)",
        elapsed,
        60.0,
    )


def test_ac4_certified_mode_never_exits_support():
    t0 = time.perf_counter()
    config = _shipped("exp_point_push_certified.json")
    out = run_certified(config)
    elapsed = time.perf_counter() - t0
    gate = out["gates"]["no_support_exit"]
    agg = out["aggregates"]
    _report(
        "AC4 certified no-exit audit",
        gate["passed"] and agg["rollouts"] >= 1000,
        f"min g {agg['min_g']:.3g} >= -1e-9 over {agg['rollouts']} rollouts "
        f"(lambda_0 {agg['lambda_certified_t0']:.3f}, "
        f"{agg['start_gate_skipped']} start-gated resets skipped; "
        f"halt reasons {agg['halt_reasons']})",
        elapsed,
        300.0,
    )


def test_ac5_quasi_static_displacement_bound():
    t0 = time.perf_counter()
    worst = {}
    for env in ("point_push", "line_track"):
        spec = builtin_env_spec(env)
        K = dynamics_constant(spec)
        rng = np.random.default_rng(17)
        ratio = 0.0
        for _ in range(100_000):
            state = random_state(spec, rng)
            raw = rng.normal(size=2)
            norm = float(np.linalg.norm(raw))
            u = raw / norm * rng.uniform(1e-6, spec.u_max)
            moved = float(np.linalg.norm(step(spec, state, u) - state))
            ratio = max(ratio, moved / float(np.linalg.norm(u)))
        worst[env] = (ratio, K)
    elapsed = time.perf_counter() - t0
    ok = all(r <= K + 1e-9 for r, K in worst.values())
    detail = ", ".join(f"{env} max ratio {r:.6f} <= K={K:g}" for env, (r, K) in worst.items())
    _report("AC5 displacement bound", ok, detail + " (1e5 steps each)", elapsed, 30.0)


def test_ac6_learning_curve_protocol():
    t0 = time.perf_counter()
    config = _shipped("exp_point_push_learning_curve.json")
    out = run_learning_curve(config)
    elapsed = time.perf_counter() - t0
    gates = out["gates"]
    n = out["aggregates"]["per_controller"]["dfr"]["n"]
    names = ("collision_halving", "completion_ratio", "es_collisions_not_above_dfr",
             "supervisor_sanity")
    same, same_detail = _reclassified(config, out["records"], n * len(config.controllers))
    ok = n >= 600 and all(gates[k]["passed"] for k in names) and same
    halv = gates["collision_halving"]["detail"]
    comp = gates["completion_ratio"]["detail"]
    _report(
        "AC6 collision halving without completion collapse",
        ok,
        f"n={n}/controller; dfr collision upper {halv['dfr_upper']:.4f} <= "
        f"half of baseline lower {halv['baseline_lower']:.4f}; dfr completion "
        f"{comp['dfr']:.3f} >= {comp['needed']:.3f}; "
        + ", ".join(f"{k}={'pass' if gates[k]['passed'] else 'FAIL'}" for k in names)
        + f"; {same_detail}",
        elapsed,
        1200.0,
    )


def test_ac7_recovery_ascent_traces():
    t0 = time.perf_counter()
    config = _shipped("exp_point_push_ascent.json")
    out = run_ascent_traces(config)
    elapsed = time.perf_counter() - t0
    gates = out["gates"]
    agg = out["aggregates"]
    names = ("enough_activations", "nearly_monotone", "reaches_threshold",
             "oracle_dominates")
    episodes = len(config.ascent_cells) * len(config.controllers) * config.eval_samples
    same, same_detail = _reclassified(config, out["records"], episodes)
    ok = all(gates[k]["passed"] for k in names) and agg["dfr_max_start_value"] < 1.0 and same
    _report(
        "AC7 normalized ascent quality",
        ok,
        f"{agg['activations']['dfr']} dfr / {agg['activations']['oracle']} oracle "
        f"activations; max curve decrease {agg['dfr_max_decrease']:.4f} <= 0.02; "
        f"fraction reaching 0.9: {agg['dfr_fraction_reaching_0.9']:.3f} >= 0.8; "
        f"oracle-dfr min margin {agg['oracle_minus_dfr_min']:.4f} >= -0.02; "
        f"max start value {agg['dfr_max_start_value']:.4f} < 1; {same_detail}",
        elapsed,
        600.0,
    )


def test_ac8_disturbance_robustness():
    t0 = time.perf_counter()
    config = _shipped("exp_line_track_disturbance.json")
    out = run_disturbance_eval(config)
    elapsed = time.perf_counter() - t0
    gates = out["gates"]
    by_kind = {row["controller"]: row for row in out["rows"]}
    n = by_kind["dfr"]["n"]
    same, same_detail = _reclassified(config, out["records"], n * len(config.controllers))
    ok = (
        n >= 300
        and gates["collision_third"]["passed"]
        and gates["completion_margin"]["passed"]
        and same
    )
    third = gates["collision_third"]["detail"]
    margin = gates["completion_margin"]["detail"]
    _report(
        "AC8 drift robustness",
        ok,
        f"n={n}/arm; dfr collision upper {third['dfr_upper']:.4f} <= "
        f"{third['threshold']:.4f} (third of baseline lower); completion diff "
        f"{margin['diff']:.3f} needs {margin['needed']:.3f}; baseline "
        f"{by_kind['baseline']['completed']}C/{by_kind['baseline']['collided']}X vs "
        f"dfr {by_kind['dfr']['completed']}C/{by_kind['dfr']['collided']}X; {same_detail}",
        elapsed,
        600.0,
    )


# ---------------------------------------------------------------------------
# AC9: determinism of every command


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dfrlab.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


def _assert_same_exp_outputs(a, b):
    assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()
    for name in ("metrics.csv", "traces.csv"):
        if (a / name).exists():
            assert (a / name).read_bytes() == (b / name).read_bytes()
    man_a = _strip_nondeterministic(json.loads((a / "manifest.json").read_text()))
    man_b = _strip_nondeterministic(json.loads((b / "manifest.json").read_text()))
    assert man_a == man_b
    sum_a = _strip_nondeterministic(json.loads((a / "summary.json").read_text()))
    sum_b = _strip_nondeterministic(json.loads((b / "summary.json").read_text()))
    assert sum_a == sum_b


def test_ac9_every_command_is_deterministic(tmp_path):
    t0 = time.perf_counter()
    checked = []

    demos = [tmp_path / f"demos{i}.jsonl" for i in (0, 1)]
    supports = [tmp_path / f"support{i}" for i in (0, 1)]
    policies = [tmp_path / f"policy{i}.json" for i in (0, 1)]
    records = [tmp_path / f"record{i}.json" for i in (0, 1)]
    for i in (0, 1):
        assert _run_cli("demos", "--env", "point_push", "--n", "20", "--seed", "5",
                        "--out", str(demos[i])).returncode == 0
        assert _run_cli("fit-support", "--demos", str(demos[0]), "--gamma", "15.0",
                        "--out", str(supports[i])).returncode == 0
        assert _run_cli("fit-policy", "--demos", str(demos[0]), "--centers", "60",
                        "--bandwidth", "0.15", "--out", str(policies[i])).returncode == 0
        assert _run_cli("rollout", "--env", "point_push", "--controller", "dfr",
                        "--support", str(supports[0]), "--policy", str(policies[0]),
                        "--lam", "0.05", "--seed", "11",
                        "--out", str(records[i])).returncode == 0
    assert demos[0].read_bytes() == demos[1].read_bytes()
    checked.append("demos")
    names = json.loads((supports[0] / "manifest.json").read_text())["slices"]
    for name in ["manifest.json"] + names:
        assert (supports[0] / name).read_bytes() == (supports[1] / name).read_bytes()
    checked.append("fit-support")
    assert policies[0].read_bytes() == policies[1].read_bytes()
    checked.append("fit-policy")
    assert records[0].read_bytes() == records[1].read_bytes()
    checked.append("rollout")

    mini = {
        "exp-learning-curve": ExperimentConfig(
            demo_grid=(20,), trials=1, eval_samples=4, controllers=("baseline", "dfr"),
            gamma=15.0, lam=0.05, policy_centers=50, policy_bandwidth=0.15,
            demo_seeds=(5,), seed=0,
        ),
        "exp-ascent": ExperimentConfig(
            demo_grid=(20,), trials=1, eval_samples=8, controllers=("dfr", "oracle"),
            gamma=15.0, lam=0.05, policy_centers=50, policy_bandwidth=0.15,
            demo_seeds=(5,), seed=0, ascent_cells=((5, 20),), oracle_eta=0.005,
        ),
        "exp-disturbance": ExperimentConfig(
            env="line_track", demo_grid=(20,), trials=1, eval_samples=8,
            controllers=("baseline", "dfr"), gamma=0.1, solver_tol=1e-6,
            max_solver_iters=1_000_000, policy_centers=50, policy_bandwidth=4.0,
            lam=0.1, pooled=True, projection=(1,), demo_jitter=0.1,
            demo_seeds=(5,), seed=0,
        ),
    }
    for command, config in mini.items():
        cfg_path = tmp_path / f"{command}.json"
        save_experiment_config(config, cfg_path)
        outs = [tmp_path / f"{command}-{i}" for i in (0, 1)]
        for out in outs:
            proc = _run_cli(command, "--config", str(cfg_path), "--out", str(out),
                            "--jobs", "1")
            assert proc.returncode in (0, 4), proc.stderr  # tiny runs may fail gates
        _assert_same_exp_outputs(*outs)
        checked.append(command)

    elapsed = time.perf_counter() - t0
    _report(
        "AC9 seeded determinism",
        len(checked) == 7,
        "byte-identical re-runs for " + ", ".join(checked),
        elapsed,
        120.0,
    )
