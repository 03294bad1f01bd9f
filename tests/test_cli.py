"""End-to-end command-line tests driven through subprocesses: pipeline
artifacts, exit codes, and config/flag precedence."""

import csv
import json
import shutil
import subprocess
import sys

import pytest

from dfrlab.harness import (
    ExperimentConfig,
    experiment_config_to_document,
    save_experiment_config,
)

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


def _ragged_demo_states(work, d):
    lines = work["demos"].read_text().splitlines()
    rec = json.loads(lines[0])
    rec["states"][1] = rec["states"][1][:3]
    (d / "demos.jsonl").write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    return ("fit-policy", "--demos", str(d / "demos.jsonl"), "--out", str(d / "p.json"))


MALFORMED_INPUTS = {
    "policy-ragged-centers": _ragged_policy,
    "estimator-ragged-support-vectors": _ragged_estimator,
    "bundle-manifest-without-slices": _manifest_without_slices,
    "config-non-integer-demo-grid": _non_integer_demo_grid,
    "demos-ragged-states": _ragged_demo_states,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_exits_2(work, tmp_path, case):
    proc = run_cli(*MALFORMED_INPUTS[case](work, tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


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
    save_experiment_config(cfg, path)
    return cfg


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
