"""End-to-end command-line tests driven through subprocesses: pipeline
artifacts, exit codes, and config/flag precedence."""

import csv
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib.resources import files

import numpy as np
import pytest

from dfrlab.cli import build_parser
from dfrlab.harness import ExperimentConfig, experiment_config_to_document
from dfrlab.util import dump_json

SUBCOMMANDS = (
    "demos",
    "fit-support",
    "fit-policy",
    "rollout",
    "exp-learning-curve",
    "exp-ascent",
    "exp-disturbance",
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dfrlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One shared pipeline: demos -> support bundle -> policy."""
    d = tmp_path_factory.mktemp("cli")
    demos = d / "demos.jsonl"
    support = d / "support"
    policy = d / "policy.json"
    for args in (
        ("demos", "--env", "point_push", "--n", "20", "--seed", "5", "--out", str(demos)),
        ("fit-support", "--demos", str(demos), "--nu", "0.05", "--gamma", "15.0",
         "--out", str(support)),
        ("fit-policy", "--demos", str(demos), "--centers", "60", "--bandwidth", "0.15",
         "--out", str(policy)),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
    return {"dir": d, "demos": demos, "support": support, "policy": policy}


# ---------------------------------------------------------------------------
# pipeline artifacts


def test_demos_file_is_jsonl(work):
    lines = work["demos"].read_text().splitlines()
    assert len(lines) == 20
    rec = json.loads(lines[0])
    assert set(rec) >= {"seed", "outcome", "states", "controls"}
    assert rec["outcome"] == "completed"


def test_demos_rerun_is_byte_identical(work):
    other = work["dir"] / "demos2.jsonl"
    proc = run_cli("demos", "--env", "point_push", "--n", "20", "--seed", "5",
                   "--out", str(other))
    assert proc.returncode == 0
    assert other.read_bytes() == work["demos"].read_bytes()


def test_support_bundle_layout(work):
    manifest = json.loads((work["support"] / "manifest.json").read_text())
    assert manifest["format"] == "support-bundle"
    assert len(manifest["slices"]) == manifest["horizon"]
    for name in manifest["slices"]:
        assert (work["support"] / name).exists()


def test_fit_policy_reports_train_loss(work):
    doc = json.loads(work["policy"].read_text())
    assert doc["format"] == "rbf-policy"
    assert doc["train_loss"] is not None


def test_rollout_writes_deterministic_record(work):
    out_a = work["dir"] / "rec_a.json"
    out_b = work["dir"] / "rec_b.json"
    args = ("rollout", "--env", "point_push", "--controller", "dfr",
            "--support", str(work["support"]), "--policy", str(work["policy"]),
            "--lam", "0.05", "--seed", "11")
    pa = run_cli(*args, "--out", str(out_a))
    pb = run_cli(*args, "--out", str(out_b))
    assert pa.returncode == 0 and pb.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "dfr seed=11:" in pa.stdout
    doc = json.loads(out_a.read_text())
    assert doc["format"] == "rollout-record"
    assert doc["outcome"] in {"completed", "collided", "halted"}


def test_rollout_supervisor_needs_no_artifacts(work):
    proc = run_cli("rollout", "--env", "point_push", "--controller", "supervisor",
                   "--seed", "3")
    assert proc.returncode == 0
    assert "completed" in proc.stdout


# ---------------------------------------------------------------------------
# exit codes


def test_thin_slice_exits_2_and_names_the_slice(tmp_path):
    bad = tmp_path / "thin.jsonl"
    bad.write_text(json.dumps({
        "seed": 0, "outcome": "completed",
        "states": [[0.06, 0.5, 0.2, 0.5, 0.8, 0.5], [0.07, 0.5, 0.2, 0.5, 0.8, 0.5]],
        "controls": [[0.01, 0.0]],
    }) + "\n")
    proc = run_cli("fit-support", "--demos", str(bad), "--nu", "1.0",
                   "--out", str(tmp_path / "sup"))
    assert proc.returncode == 2
    assert "time slice 0" in proc.stderr


def test_solver_cap_exits_3(work, tmp_path):
    proc = run_cli("fit-support", "--demos", str(work["demos"]),
                   "--max-solver-iters", "1", "--out", str(tmp_path / "sup"))
    assert proc.returncode == 3
    assert "iterations" in proc.stderr


def test_unknown_env_exits_2():
    proc = run_cli("demos", "--env", "mars", "--n", "3", "--out", "/tmp/x.jsonl")
    assert proc.returncode == 2


def test_env_spec_with_an_unknown_key_exits_2_and_names_it(tmp_path):
    doc = json.loads((files("dfrlab") / "data" / "line_track.json").read_text())
    doc["disturbance"]["enable"] = doc["disturbance"].pop("enabled")
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    proc = run_cli("rollout", "--env", str(tmp_path / "spec.json"), "--controller", "supervisor")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "enable" in proc.stderr


# Certified lambda is L_t * K, so a K below the proven bound voids the
# no-exit guarantee.
def test_env_spec_understating_k_exits_2_and_names_the_bound(tmp_path):
    doc = json.loads((files("dfrlab") / "data" / "point_push.json").read_text())
    doc["dyn_constant"] = 1.0
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    proc = run_cli("rollout", "--env", str(tmp_path / "spec.json"), "--controller", "supervisor")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "bound 1.4142135623730951" in proc.stderr


@pytest.mark.parametrize("name, block, key, value", [
    ("line_track", "disturbance", "enabled", "false"),
    ("point_push", None, "u_max", True),
    ("point_push", None, "robot_radius", "0.03"),
])
def test_env_spec_field_of_the_wrong_type_exits_2_and_names_it(tmp_path, name, block, key,
                                                                value):
    doc = json.loads((files("dfrlab") / "data" / f"{name}.json").read_text())
    (doc if block is None else doc[block])[key] = value
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    proc = run_cli("rollout", "--env", str(tmp_path / "spec.json"), "--controller", "supervisor")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and key in proc.stderr


def test_missing_input_exits_2(tmp_path):
    proc = run_cli("fit-policy", "--demos", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "p.json"))
    assert proc.returncode == 2


def test_no_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_bad_flag_value_exits_2(work, tmp_path):
    proc = run_cli("fit-support", "--demos", str(work["demos"]), "--nu", "2.0",
                   "--out", str(tmp_path / "sup"))
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("fit-support", "--solver-tol", "inf"), ("fit-support", "--gamma", "nan"),
    ("fit-policy", "--ridge", "nan"), ("fit-policy", "--bandwidth", "inf"),
], ids=["solver-tol-inf", "gamma-nan", "ridge-nan", "bandwidth-inf"])
def test_non_finite_flag_values_exit_2_naming_the_flag(work, tmp_path, args):
    command, flag, value = args
    out = tmp_path / "out"
    proc = run_cli(command, "--demos", str(work["demos"]), flag, value, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and flag[2:].replace("-", "_") in proc.stderr
    assert not out.exists()


def test_fit_policy_refuses_a_demo_file_with_a_non_finite_control(work, tmp_path):
    lines = work["demos"].read_text().splitlines()
    doc = json.loads(lines[3])
    doc["controls"][7][1] = float("nan")
    lines[3] = json.dumps(doc)
    demos = tmp_path / "nan.jsonl"
    demos.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.json"
    proc = run_cli("fit-policy", "--demos", str(demos), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "controls contain non-finite values" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_rollout_refuses_a_policy_of_another_state_dimension(work):
    proc = run_cli("rollout", "--env", "line_track", "--controller", "baseline",
                   "--policy", str(work["policy"]), "--seed", "0")
    assert proc.returncode == 2, proc.stderr
    assert "6-dimensional states, the line_track environment has 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_certified_rollout_refuses_lam(work, tmp_path):
    # certified mode derives lambda per slice; a given --lam would be ignored
    out = tmp_path / "rec.json"
    proc = run_cli("rollout", "--env", "point_push", "--controller", "dfr",
                   "--support", str(work["support"]), "--policy", str(work["policy"]),
                   "--lambda-mode", "certified", "--lam", "0.5", "--seed", "11",
                   "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "None in certified mode" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _ragged_policy(work, d):
    doc = json.loads(work["policy"].read_text())
    doc["centers"][1] = doc["centers"][1][:3]
    (d / "policy.json").write_text(json.dumps(doc))
    return ("rollout", "--env", "point_push", "--controller", "baseline",
            "--policy", str(d / "policy.json"))


def _ragged_estimator(work, d):
    bundle = d / "support"
    shutil.copytree(work["support"], bundle)
    doc = json.loads((bundle / "slice_000.json").read_text())
    doc["support"][1][0] = doc["support"][1][0][:3]
    (bundle / "slice_000.json").write_text(json.dumps(doc))
    return ("rollout", "--env", "point_push", "--controller", "dfr",
            "--support", str(bundle), "--policy", str(work["policy"]))


def _manifest_without_slices(work, d):
    (d / "manifest.json").write_text(json.dumps({"format": "support-bundle", "version": 2}))
    return ("rollout", "--env", "point_push", "--controller", "dfr",
            "--support", str(d), "--policy", str(work["policy"]))


def _non_integer_demo_grid(work, d):
    doc = experiment_config_to_document(ExperimentConfig())
    doc["demo_grid"] = ["x"]
    (d / "cfg.json").write_text(json.dumps(doc))
    return ("exp-learning-curve", "--config", str(d / "cfg.json"), "--out", str(d / "run"))


def _empty_ascent_cells(work, d):
    doc = json.loads(files("dfrlab").joinpath("data", "exp_point_push_ascent.json").read_text())
    doc["ascent_cells"] = []
    (d / "cfg.json").write_text(json.dumps(doc))
    return ("exp-ascent", "--config", str(d / "cfg.json"), "--out", str(d / "run"))


def _fractional_horizon(work, d):
    doc = json.loads(files("dfrlab").joinpath("data", "line_track.json").read_text())
    doc["horizon"] = 40.7
    (d / "spec.json").write_text(json.dumps(doc))
    return ("rollout", "--env", str(d / "spec.json"), "--controller", "supervisor")


def _ragged_demo_states(work, d):
    lines = work["demos"].read_text().splitlines()
    rec = json.loads(lines[0])
    rec["states"][1] = rec["states"][1][:3]
    (d / "demos.jsonl").write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    return ("fit-policy", "--demos", str(d / "demos.jsonl"), "--out", str(d / "p.json"))


# Both used to die in fit_policy's np.concatenate with a traceback.
def _demo_control_widths_disagree(work, d):
    lines = work["demos"].read_text().splitlines()
    rec = json.loads(lines[1])
    rec["controls"] = [[*u, 0.0] for u in rec["controls"]]
    (d / "demos.jsonl").write_text("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")
    return ("fit-policy", "--demos", str(d / "demos.jsonl"), "--out", str(d / "p.json"))


def _demo_flat_controls(work, d, blank_lines=0):
    lines = work["demos"].read_text().splitlines()
    rec = json.loads(lines[1])
    rec["controls"] = [u[0] for u in rec["controls"]]
    lines = [lines[0]] + [" "] * blank_lines + [json.dumps(rec)] + lines[2:]
    (d / "demos.jsonl").write_text("\n".join(lines) + "\n")
    return ("fit-policy", "--demos", str(d / "demos.jsonl"), "--out", str(d / "p.json"))


def _demo_flat_controls_after_blank_lines(work, d):
    return _demo_flat_controls(work, d, blank_lines=2)


# case -> (the command's arguments, given the shared pipeline and a fresh
# directory d; the start of its error message, with d for {d}, or None)
MALFORMED_INPUTS = {
    "policy-ragged-centers": (_ragged_policy, None),
    "estimator-ragged-support-vectors": (_ragged_estimator, None),
    "bundle-manifest-without-slices": (_manifest_without_slices, None),
    "config-non-integer-demo-grid": (_non_integer_demo_grid, None),
    "config-empty-ascent-cells": (_empty_ascent_cells, None),
    "demos-ragged-states": (
        _ragged_demo_states, "demo file {d}/demos.jsonl, line 1: malformed demo record: "),
    "demos-control-widths-disagree": (
        _demo_control_widths_disagree,
        "demo file {d}/demos.jsonl: trajectories disagree on control width: [2, 3]"),
    "demos-flat-controls": (
        _demo_flat_controls,
        "demo file {d}/demos.jsonl, line 2: trajectory controls must be a (steps, width) "
        "array"),
    "demos-flat-controls-after-blank-lines": (
        _demo_flat_controls_after_blank_lines,
        "demo file {d}/demos.jsonl, line 4: trajectory controls must be a (steps, width) "
        "array"),
    "env-spec-fractional-horizon": (_fractional_horizon, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_exits_2(work, tmp_path, case):
    arguments, message = MALFORMED_INPUTS[case]
    proc = run_cli(*arguments(work, tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    if message is not None:
        assert proc.stderr.startswith(f"error: {message.format(d=tmp_path)}"), proc.stderr


# ---------------------------------------------------------------------------
# experiment command behavior


def _null_disturbance_config(path):
    cfg = ExperimentConfig(
        env="line_track", demo_grid=(20,), trials=1, eval_samples=8,
        controllers=("baseline", "dfr"), gamma=0.1, solver_tol=1e-6,
        max_solver_iters=1_000_000, policy_centers=50, policy_bandwidth=4.0,
        lam=0.1, pooled=True, projection=(1,), demo_jitter=0.1,
        demo_seeds=(5,), seed=0, disturbance=False,
    )
    path.write_text(dump_json(experiment_config_to_document(cfg)))
    return cfg


@pytest.mark.parametrize(
    "args, message",
    [
        (("demos", "--env", "point_push", "--n", "3", "--seed", "-1"), "demo seed"),
        (("rollout", "--env", "point_push", "--controller", "supervisor", "--seed", "-1"),
         "rollout seed"),
        (("demos", "--env", "point_push", "--n", "3", "--jitter", "-1"), "jitter sigma"),
        (("demos", "--env", "point_push", "--n", "5", "--seed", "0", "--jitter", "0.3"),
         "sigma=0.3"),
    ],
    ids=["demos-negative-seed", "rollout-negative-seed", "demos-negative-jitter",
         "demos-jitter-too-wide"],
)
def test_bad_seed_or_jitter_exits_2(tmp_path, args, message):
    out = tmp_path / "out.json"
    proc = run_cli(*args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("field, bad", [("seed", -1), ("demo_seeds", [-3]), ("demo_jitter", -0.5),
                                        ("eval_samples", 2.5), ("nu", True),
                                        ("policy_ridge", float("nan")),
                                        ("solver_tol", float("inf")), ("demo_jitter", True),
                                        ("pooled", "0.5"), ("disturbance", "0.5"),
                                        ("env", 0)])
def test_bad_config_seed_or_jitter_exits_2_at_load(tmp_path, field, bad):
    cfg_path = tmp_path / "cfg.json"
    _null_disturbance_config(cfg_path)  # seed 0, demo_seeds [5]
    doc = json.loads(cfg_path.read_text())
    doc[field] = bad
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    proc = run_cli("exp-disturbance", "--config", str(cfg_path), "--out", str(out),
                   "--jobs", "1")
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert not out.exists()


def test_duplicate_controller_kinds_exit_2_at_load(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _null_disturbance_config(cfg_path)
    doc = json.loads(cfg_path.read_text())
    doc["controllers"] = ["baseline", "dfr", "baseline"]
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    proc = run_cli("exp-disturbance", "--config", str(cfg_path), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "listed once" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_gate_failure_exits_4_but_writes_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _null_disturbance_config(cfg_path)
    out = tmp_path / "run"
    proc = run_cli("exp-disturbance", "--config", str(cfg_path), "--out", str(out),
                   "--jobs", "1")
    assert proc.returncode == 4
    for name in ("manifest.json", "records.jsonl", "metrics.csv", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert not all(g["passed"] for g in summary["gates"].values())
    # the null run itself is clean: without the stream nothing fails
    rows = list(csv.DictReader((out / "metrics.csv").open()))
    assert len(rows) == 2
    assert all(row["completed"] == "8" for row in rows)
    assert len((out / "records.jsonl").read_text().splitlines()) == 16


def test_manifest_names_the_platform(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _null_disturbance_config(cfg_path)
    # environment variables of these runs' own processes only
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    blocks = []
    for name, extra in (("a", {}), ("b", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "dfrlab.cli", "exp-disturbance", "--config", str(cfg_path),
             "--out", str(out), "--jobs", "1"],
            env={**env, **extra}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 4, proc.stderr  # the null run fails its gates
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        blocks.append(manifest["platform"])
    a, b, haswell = blocks
    assert a == b
    assert a["blas"]["name"] and a["simd"]["found"] is not None
    assert a["libc"] == list(platform.libc_ver())
    assert a["environment"]["OPENBLAS_CORETYPE"] is None
    assert haswell["environment"]["OPENBLAS_CORETYPE"] == "Haswell"
    assert {**haswell, "environment": a["environment"]} == a


def test_config_file_beats_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _null_disturbance_config(cfg_path)  # eval_samples pinned to 8
    out = tmp_path / "run"
    proc = run_cli("exp-disturbance", "--config", str(cfg_path), "--out", str(out),
                   "--eval-samples", "3", "--jobs", "1")
    assert proc.returncode == 4  # gates still fail; precedence is the point
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eval_samples"] == 8


def test_flags_fill_omitted_config_fields(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _null_disturbance_config(cfg_path)
    doc = json.loads(cfg_path.read_text())
    del doc["eval_samples"]
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    proc = run_cli("exp-disturbance", "--config", str(cfg_path), "--out", str(out),
                   "--eval-samples", "3", "--jobs", "1")
    assert proc.returncode == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eval_samples"] == 3


@pytest.mark.parametrize("command", ("exp-learning-curve", "exp-ascent", "exp-disturbance"))
def test_jobs_defaults_to_serial(command):
    args = build_parser().parse_args([command, "--config", "c.json", "--out", "run"])
    assert args.jobs == 1


def test_jobs_below_one_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _null_disturbance_config(cfg_path)
    out = tmp_path / "run"
    proc = run_cli("exp-disturbance", "--config", str(cfg_path), "--out", str(out),
                   "--jobs", "0")
    assert proc.returncode == 2
    assert "--jobs: must be at least 1" in proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# help surface


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command):
    proc = run_cli(command, "--help")
    assert proc.returncode == 0
    assert "--" in proc.stdout


def test_top_level_help_lists_all_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for command in SUBCOMMANDS:
        assert command in proc.stdout
