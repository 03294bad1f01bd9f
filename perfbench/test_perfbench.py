"""Tests of the benchmark itself, on a trimmed ascent workload.

Run from the root of the repository:

    python3 -m pytest -q perfbench

The trimmed config (one cell of 20 demos, 4 episodes per arm) is far too
small for the shipped gates, so these tests look at records, spans and
metric names, not at gate results.
"""

import dataclasses
import json
import os
import re

import pytest

import run as bench
from tracer import SETUP_TARGETS, TRACE_TARGETS, PoolProbe, Tracer, resolve

ROOT = os.path.dirname(bench.HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def mods():
    return bench.load_program(ROOT)


@pytest.fixture(scope="module")
def trimmed(mods):
    experiment, config, _ = bench.workload_config(mods, ROOT, "ascent", seed=0)
    return experiment, dataclasses.replace(config, ascent_cells=((5, 20),), eval_samples=4)


@pytest.fixture
def rep(mods, trimmed, tmp_path):
    experiment, config = trimmed

    def run(targets=SETUP_TARGETS, jobs=1, probe=None):
        return bench.run_rep(mods, experiment, config, jobs, str(tmp_path / "out"), targets, probe)

    return run


def _originals(mods):
    found = {}
    for target in TRACE_TARGETS:
        owner, attr = resolve(mods, target)
        found[target[:2]] = vars(owner)[attr]
    found["pool"] = vars(mods["harness"])["ProcessPoolExecutor"]
    return found


def test_traced_and_untraced_records_match(rep):
    untraced = rep()
    traced = rep(TRACE_TARGETS)
    assert untraced["records_sha256"] == traced["records_sha256"]
    assert untraced["episodes"] == traced["episodes"] == 8


def test_every_wrapped_function_is_restored(mods, rep):
    before = _originals(mods)
    rep(TRACE_TARGETS)
    with pytest.raises(RuntimeError):
        with Tracer(mods, TRACE_TARGETS), PoolProbe(mods["harness"]):
            assert _originals(mods) != before
            raise RuntimeError("traced code failed")
    after = _originals(mods)
    assert all(after[k] is before[k] for k in before)


def test_traced_call_counts_repeat(rep):
    first, second = rep(TRACE_TARGETS), rep(TRACE_TARGETS)
    calls = [{k: v["calls"] for k, v in r["totals"].items()} for r in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["support.g_at"] > 0 and calls[0]["controllers.oracle.step"] > 0


def test_pool_probe_counts_pools_and_keeps_records(mods, rep):
    serial = rep()
    probe = PoolProbe(mods["harness"])
    pooled = rep(jobs=2, probe=probe)
    assert pooled["records_sha256"] == serial["records_sha256"]
    assert probe.created == 2  # one pool per (cell, arm)
    assert probe.task_bytes > 0 and probe.pool_s > 0


def test_metric_names_and_units(rep):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    untraced, traced = rep(), rep(TRACE_TARGETS)
    end_to_end, _ = bench.end_to_end_metrics([untraced], jobs=1)
    per_layer = bench.per_layer_metrics(untraced, traced, None)
    for group, values in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        names = [m["name"] for m in spec[group]]
        assert len(names) == len(set(names))
        for m in spec[group]:
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower")
            assert isinstance(values[m["name"]], (int, float)), m["name"]
    assert sorted(end_to_end) == sorted(m["name"] for m in spec["end_to_end"])
