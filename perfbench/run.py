"""dfrlab benchmark: the shipped experiments, timed end to end and traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ascent --seed 0 --seconds 45 --trace 0

Each workload runs one shipped experiment config through
harness.run_experiment(..., out_dir=..., jobs=...) in this process.  --seed
shifts the config's master rollout seed (seed 0 is the shipped config
exactly); the demonstration seeds stay as shipped, because other demo sets
change which gates pass (see perfbench/README.md).

--trace 0 repeats the experiment, same inputs each time, for about --seconds
(the last repetition may end up to half a repetition late), and reports the
end-to-end metrics as medians over the repetitions.  --trace 1 runs it once
untraced and once traced at jobs=1, plus once at the workload's own jobs
with the process-pool probe when that is above 1, and reports the per-layer
metrics.  Every repetition is checked: no exception, all gates pass, one
record per episode, and records identical to the first repetition's.  At
seed 0 the records hash is compared with the reference in
perfbench/expected.json; a difference is reported, not counted as a failure.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with the machine block and
(when traced) the span table, is written under .bench_out/results/.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy

from tracer import SETUP_SPANS, SETUP_TARGETS, TRACE_TARGETS, PoolProbe, Tracer

# name: (experiment, shipped config file, jobs).  BENCHMARK.json lists
# ascent and learning-curve-jobs2; the other two are run by hand as
# no-change controls (perfbench/README.md says why).
WORKLOADS = {
    "learning-curve": ("learning-curve", "exp_point_push_learning_curve.json", 1),
    "ascent": ("ascent", "exp_point_push_ascent.json", 1),
    "disturbance": ("disturbance", "exp_line_track_disturbance.json", 1),
    "learning-curve-jobs2": ("learning-curve", "exp_point_push_learning_curve.json", 2),
}

MODULES = ("harness", "envs", "supervisor", "support", "controllers", "kernel_ocsvm")
HALT_REASONS = ("start-gate", "outside-support", "recovery-cap", "horizon")
SPAN_FIELDS = ("calls", "busy_s", "self_s", "failed")
OUT_DIR = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


def load_program(root):
    """Import dfrlab from root/src, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dfrlab", "__init__.py")):
        raise FileNotFoundError(f"no dfrlab source under {src}")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"dfrlab.{name}") for name in MODULES}
    if not os.path.abspath(mods["harness"].__file__).startswith(src + os.sep):
        raise ImportError(f"dfrlab was imported from {mods['harness'].__file__}, not {src}")
    return mods


def workload_config(mods, root, workload, seed):
    """The shipped config of the workload with its master seed shifted by seed."""
    experiment, config_file, jobs = WORKLOADS[workload]
    path = os.path.join(root, "src", "dfrlab", "data", config_file)
    config = mods["harness"].load_experiment_config(path)
    return experiment, dataclasses.replace(config, seed=config.seed + seed), jobs


def expected_episodes(experiment, config):
    if experiment == "learning-curve":
        cells = config.trials * len(config.demo_grid)
        arms = len(config.controllers)
    elif experiment == "ascent":
        cells = len(config.ascent_cells or ()) or config.trials * len(config.demo_grid)
        arms = sum(1 for k in config.controllers if k in ("dfr", "oracle"))
    else:
        cells, arms = 1, len(config.controllers)
    return cells * arms * config.eval_samples


def run_rep(mods, experiment, config, jobs, out_dir, targets, pool_probe=None):
    """Run the experiment once and summarize what it did.

    targets are the functions to span (SETUP_TARGETS for an untraced run).
    Gates are checked as run_experiment(enforce_gates=True) checks them, but
    after the call, so a repetition that fails them still reports its
    records.  The summary keeps counts and timings, not the records.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = Tracer(mods, targets)
    result = None
    error = None
    t0 = time.perf_counter()
    try:
        with tracer, (pool_probe or contextlib.nullcontext()):
            result = mods["harness"].run_experiment(
                experiment, config, out_dir=out_dir, jobs=jobs
            )
    except Exception:  # the benchmark reports any failure and keeps going
        error = traceback.format_exc()
    experiment_s = time.perf_counter() - t0
    if result is not None:
        failed_gates = sorted(k for k, v in result["gates"].items() if v["passed"] is False)
        if failed_gates:
            error = f"gates failed: {', '.join(failed_gates)}"

    totals = tracer.totals()
    rep = {
        "experiment_s": experiment_s,
        "setup_s": sum(totals.get(name, {}).get("busy_s", 0.0) for name in SETUP_SPANS),
        "error": error,
        "expected_episodes": expected_episodes(experiment, config),
        "totals": totals,
        "spans": tracer.spans(),
    }
    records_path = os.path.join(out_dir, "records.jsonl")
    if os.path.exists(records_path):
        with open(records_path, "rb") as fh:
            blob = fh.read()
        rep["records_sha256"] = hashlib.sha256(blob).hexdigest()
        rep["records_bytes"] = len(blob)
    shutil.rmtree(out_dir, ignore_errors=True)
    if result is not None:
        records = result["records"]
        rep["episodes"] = len(records)
        rep["transitions"] = sum(len(s.applied) for r in records for s in r.steps)
        rep["episode_wall_s"] = [r.wall_clock_s for r in records]
        rep["halts"] = {h: sum(1 for r in records if r.halt_reason == h) for h in HALT_REASONS}
        dfr = [e for r in records if r.controller == "dfr" for s in r.steps for e in s.recovery]
        rep["dfr_iterations"] = len(dfr)
        rep["dfr_flips"] = sum(1 for e in dfr if e.flipped)
    return rep


def check_reps(reps):
    """Mark each repetition ok or not; the first one's records are the reference."""
    reference = reps[0].get("records_sha256")
    for rep in reps:
        problems = []
        if rep["error"]:
            problems.append(rep["error"].strip().splitlines()[-1])
        if rep.get("episodes", -1) != rep["expected_episodes"]:
            problems.append(f"{rep.get('episodes')} records for {rep['expected_episodes']} episodes")
        if rep.get("records_sha256") != reference:
            problems.append("records differ from the first repetition at the same seed")
        rep["problems"] = problems
    return all(not rep["problems"] for rep in reps)


def timed_reps(mods, experiment, config, jobs, out_dir, seconds):
    """Repeat the untraced experiment until another one would end more than
    half a repetition past seconds."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(mods, experiment, config, jobs, out_dir, SETUP_TARGETS))
        longest = max(r["experiment_s"] for r in reps)
        if reps[-1]["error"] or time.perf_counter() - start + longest / 2 > seconds:
            return reps


def peak_rss_mb(jobs):
    """Peak RSS of this process plus jobs times the largest pool worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024.0


def end_to_end_metrics(reps, jobs):
    done = [r for r in reps if "episodes" in r]
    walls_ms = [1000.0 * w for r in done for w in r["episode_wall_s"]]
    rollout_s = [r["experiment_s"] - r["setup_s"] for r in done]
    percentiles = statistics.quantiles(walls_ms, n=100, method="inclusive")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "experiment_s": statistics.median(r["experiment_s"] for r in done),
        "episodes_per_s": statistics.median(
            r["episodes"] / t for r, t in zip(done, rollout_s)),
        "transitions_per_s": statistics.median(
            r["transitions"] / t for r, t in zip(done, rollout_s)),
        "episode_ms_p50": statistics.median(walls_ms),
        "episode_ms_p90": percentiles[89],
        "peak_rss_mb": peak_rss_mb(jobs),
    }, {"episode samples": len(walls_ms), "repetitions": len(done),
        # Printed, not listed: on ascent it sits where the bulk of episodes
        # (under 5 ms) gives way to long recoveries (tens to hundreds of ms),
        # so it jumps with the seed's count of long recoveries.
        "episode_ms_p95": f"{percentiles[94]:.6g} ms"}


def per_layer_metrics(untraced, traced, pooled):
    """Span totals of the traced run, record counts, and the pool probe."""
    metrics = {}
    span_names = {t[2] for t in TRACE_TARGETS}
    for name in span_names:
        t = traced["totals"].get(name, {})
        for field in SPAN_FIELDS:
            metrics[f"{name}.{field}"] = t.get(field, 0)
    iterations = traced.get("dfr_iterations", 0)
    metrics["controllers.probe_flip_frac"] = (
        traced.get("dfr_flips", 0) / iterations if iterations else 0.0)
    metrics["harness.records_bytes"] = traced.get("records_bytes", 0)
    for reason in HALT_REASONS:
        metrics[f"harness.halt.{reason}"] = traced.get("halts", {}).get(reason, 0)
    probe = pooled["probe"] if pooled else None
    metrics["harness.pool.created"] = probe.created if probe else 0
    metrics["harness.pool.task_bytes"] = probe.task_bytes if probe else 0
    metrics["harness.pool.efficiency"] = (
        sum(pooled["episode_wall_s"]) / (pooled["jobs"] * probe.pool_s)
        if probe and probe.pool_s > 0 else 0.0)
    # Set-up is left out: the first repetition of a process also pays numpy's
    # first-call costs there, and set-up makes only a few dozen traced calls.
    metrics["trace.overhead_s"] = (
        (traced["experiment_s"] - traced["setup_s"])
        - (untraced["experiment_s"] - untraced["setup_s"]))
    return metrics


def machine_block():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    block = {"nproc": os.cpu_count(), "cpu": cpu,
             "python": platform.python_version(), "numpy": numpy.__version__}
    block["fingerprint"] = hashlib.sha256(
        json.dumps(block, sort_keys=True).encode()).hexdigest()[:12]
    return block


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="master rollout seed shift; 0 is the shipped config")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="untraced measuring time; the last repetition may overrun it by half")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        mods = load_program(root)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ImportError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        reference = json.load(fh)["records_sha256_at_seed_0"][args.workload]

    experiment, config, jobs = workload_config(mods, root, args.workload, args.seed)
    work_dir = os.path.join(root, OUT_DIR, "work", args.workload)
    machine = machine_block()
    machine["loadavg_before"] = list(os.getloadavg())
    print(f"perfbench {args.workload}: {experiment} jobs={jobs} seed={args.seed} "
          f"(master seed {config.seed}) trace={args.trace}")

    if args.trace:
        untraced = run_rep(mods, experiment, config, 1, work_dir, SETUP_TARGETS)
        traced = run_rep(mods, experiment, config, 1, work_dir, TRACE_TARGETS)
        reps = [untraced, traced]
        pooled = None
        if jobs > 1:
            probe = PoolProbe(mods["harness"])
            pooled = run_rep(mods, experiment, config, jobs, work_dir, SETUP_TARGETS, probe)
            pooled.update(probe=probe, jobs=jobs)
            reps.append(pooled)
        correct = check_reps(reps)
        values = per_layer_metrics(untraced, traced, pooled) if correct else {}
        specs, notes = bench["per_layer"], {}
    else:
        reps = timed_reps(mods, experiment, config, jobs, work_dir, args.seconds)
        correct = check_reps(reps)
        values, notes = end_to_end_metrics(reps, jobs) if correct else ({}, {})
        specs = bench["end_to_end"]
    machine["loadavg_after"] = list(os.getloadavg())

    attempted = sum(r["expected_episodes"] for r in reps)
    failed = sum(r["expected_episodes"] for r in reps if r["problems"])
    sha = reps[0].get("records_sha256")
    if args.seed != 0:
        hash_status = f"no reference at seed {args.seed}"
    elif sha == reference:
        hash_status = "matches the seed-0 reference"
    else:
        hash_status = f"MISMATCH: the seed-0 reference is {reference}; say why it changed"

    print(f"machine {json.dumps(machine)}")
    print(f"records sha256 {sha}: {hash_status}")
    for i, rep in enumerate(reps):
        status = "ok" if not rep["problems"] else "FAILED: " + "; ".join(rep["problems"])
        print(f"  repetition {i}: {rep['experiment_s']:.3f} s, {status}")
    print(f"  failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} episodes)")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    metrics = {}
    for spec in specs if correct else ():
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"  {spec['name']:<48} {values[spec['name']]:>16.6g} {spec['unit']}")

    results_dir = os.path.join(root, OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "jobs": jobs,
        "machine": machine, "records_sha256": sha, "hash_status": hash_status,
        "repetitions": [{k: r.get(k) for k in ("experiment_s", "setup_s", "records_sha256",
                                                "problems")} for r in reps],
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    if args.trace:
        full["spans"] = reps[1]["spans"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(full, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
