"""Rollout engine, outcome classification, experiments, and statistics.

A rollout drives one controller through one seeded episode and keeps a full
audit trail: every applied control (policy, probe, recovery, zero), every
visited state, and every decision-function evaluation.  Outcomes follow the
taxonomy completed / collided / halted with strict precedence: touching a
constraint region anywhere in the trajectory makes it collided, no matter
what happened afterwards.

Seeding: a rollout seed is an int or a list of ints; it feeds a SeedSequence
whose first three children drive the reset, the probe directions, and the
disturbance stream, in that order.  Experiments address each rollout as
[master_seed, trial, grid_index, eval_index], which is stable under worker
reordering and shared across controllers so start states and disturbance
streams are paired between arms.

Experiments: a learning curve over demonstration counts, normalized recovery
ascent traces, a disturbance robustness comparison, and a certified-mode
audit.  Each writes a manifest, line-delimited rollout records, and CSV
metrics into an output directory.
"""

from dataclasses import dataclass, fields, replace
from concurrent.futures import ProcessPoolExecutor
import hashlib
import json
import math
import os
import platform
import time

import numpy as np

from . import __version__
from .controllers import (
    CONTROLLER_KINDS,
    CONTROLLERS,
    AppliedRecord,
    RecoveryStep,
    SwitchConfig,
    PolicyConfig,
    effective_lambda,
    fit_policy,
    make_controller,
)
from .envs import (
    DisturbanceStream,
    EnvHandle,
    EnvState,
    check_constraint,
    load_env_spec,
    reached_goal,
    reset,
)
from .errors import GateFailureError, InvalidInputError, OutsideSupportError
from .kernel_ocsvm import KernelParams, OcsvmParams
from .supervisor import generate_demos
from .support import TimeVaryingSupport, fit_pooled, fit_time_varying
from .util import atomic_write_text, dump_json, float_list, load_json, malformed

COMPLETED = "completed"
COLLIDED = "collided"
HALTED = "halted"
OUTCOMES = (COMPLETED, COLLIDED, HALTED)

Z_ONE_SIDED_95 = 1.6448536269514722
Z_TWO_SIDED_95 = 1.959963984540054


# ---------------------------------------------------------------------------
# binomial statistics


def wilson_interval(k, n, z=Z_TWO_SIDED_95):
    """Wilson score interval for a binomial proportion, clipped to [0, 1]."""
    if n < 0 or k < 0 or k > n:
        raise InvalidInputError(f"bad binomial counts k={k}, n={n}")
    if n == 0:
        return 0.0, 1.0
    p = k / n
    den = 1.0 + z * z / n
    ctr = (p + z * z / (2.0 * n)) / den
    hw = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / den
    return max(0.0, ctr - hw), min(1.0, ctr + hw)


def wilson_lower(k, n, z=Z_ONE_SIDED_95):
    """One-sided lower confidence bound on the proportion."""
    return wilson_interval(k, n, z=z)[0]


def wilson_upper(k, n, z=Z_ONE_SIDED_95):
    """One-sided upper confidence bound on the proportion."""
    return wilson_interval(k, n, z=z)[1]


def proportion_margin_test(k_hi, n_hi, k_lo, n_lo, margin, z=Z_ONE_SIDED_95):
    """One-sided test that p_hi >= p_lo + margin at the given z.

    Returns (passed, detail).  With zero sampling variance on both sides the
    point difference decides.
    """
    p_hi = k_hi / n_hi
    p_lo = k_lo / n_lo
    se = math.sqrt(p_hi * (1.0 - p_hi) / n_hi + p_lo * (1.0 - p_lo) / n_lo)
    diff = p_hi - p_lo
    if se == 0.0:
        return diff >= margin, {"diff": diff, "needed": margin, "se": 0.0}
    stat = (diff - margin) / se
    return stat >= z, {"diff": diff, "needed": margin + z * se, "se": se, "stat": stat}


# ---------------------------------------------------------------------------
# rollout records


@dataclass
class StepRecord:
    """One horizon step: its controls, decision value, and recovery iterations."""

    t: int
    g: float  # decision value at step start; None when no support was consulted
    applied: list
    recovery: list
    halted: bool = False


@dataclass
class RolloutRecord:
    """Full audit trail of one episode.

    wall_clock_s is measured in-process and deliberately not serialized; re-
    runs must produce byte-identical record files, and timing never is.
    """

    seed: object  # int or list of ints, as given
    controller: str
    outcome: str
    start_state: np.ndarray
    steps: list
    halt_reason: str = None  # start-gate | outside-support | recovery-cap | horizon
    recovery_iterations: int = 0
    g_min: float = None
    g_final: float = None
    wall_clock_s: float = None

    def state_sequence(self):
        """Every visited state in order, starting from the reset state."""
        states = [self.start_state]
        for step in self.steps:
            states.extend(a.state for a in step.applied)
        return states

    def n_states(self):
        return 1 + sum(len(step.applied) for step in self.steps)


def classify_outcome(record, spec):
    """Recompute the outcome from the stored state sequence alone."""
    states = record.state_sequence()
    for vec in states:
        if not check_constraint(spec, EnvState(vec=vec)):
            return COLLIDED
    for vec in states:
        if reached_goal(spec, EnvState(vec=vec)):
            return COMPLETED
    return HALTED


RECORD_FORMAT = "rollout-record"


def record_to_document(record):
    return {
        "format": RECORD_FORMAT,
        "version": 1,
        "seed": record.seed,
        "controller": record.controller,
        "outcome": record.outcome,
        "halt_reason": record.halt_reason,
        "recovery_iterations": int(record.recovery_iterations),
        "g_min": None if record.g_min is None else float(record.g_min),
        "g_final": None if record.g_final is None else float(record.g_final),
        "start_state": float_list(record.start_state),
        "steps": [
            {
                "t": int(s.t),
                "g": None if s.g is None else float(s.g),
                "halted": bool(s.halted),
                "applied": [
                    {
                        "u": float_list(a.u),
                        "tag": a.tag,
                        "state": float_list(a.state),
                        "collided": bool(a.collided),
                        "reached": bool(a.reached),
                    }
                    for a in s.applied
                ],
                "recovery": [
                    {
                        "u_delta": float_list(e.u_delta),
                        "u_recovery": float_list(e.u_recovery),
                        "g_before": float(e.g_before),
                        "g_probe": float(e.g_probe),
                        "g_after": float(e.g_after),
                        "flipped": bool(e.flipped),
                    }
                    for e in s.recovery
                ],
            }
            for s in record.steps
        ],
    }


def record_from_document(doc):
    with malformed("malformed rollout record"):
        if doc["format"] != RECORD_FORMAT:
            raise InvalidInputError(f"not a rollout record: format={doc['format']!r}")
        steps = [
            StepRecord(
                t=int(s["t"]),
                g=s["g"],
                halted=bool(s["halted"]),
                applied=[
                    AppliedRecord(
                        u=np.asarray(a["u"], dtype=float),
                        tag=a["tag"],
                        state=np.asarray(a["state"], dtype=float),
                        collided=bool(a["collided"]),
                        reached=bool(a["reached"]),
                    )
                    for a in s["applied"]
                ],
                recovery=[
                    RecoveryStep(
                        u_delta=np.asarray(e["u_delta"], dtype=float),
                        u_recovery=np.asarray(e["u_recovery"], dtype=float),
                        g_before=float(e["g_before"]),
                        g_probe=float(e["g_probe"]),
                        g_after=float(e["g_after"]),
                        flipped=bool(e["flipped"]),
                    )
                    for e in s["recovery"]
                ],
            )
            for s in doc["steps"]
        ]
        return RolloutRecord(
            seed=doc["seed"],
            controller=doc["controller"],
            outcome=doc["outcome"],
            start_state=np.asarray(doc["start_state"], dtype=float),
            steps=steps,
            halt_reason=doc["halt_reason"],
            recovery_iterations=int(doc["recovery_iterations"]),
            g_min=doc["g_min"],
            g_final=doc["g_final"],
        )


# ---------------------------------------------------------------------------
# the rollout loop


def _seed_sequence(seed):
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed)), int(seed)
    if isinstance(seed, (list, tuple)) and seed and all(
        isinstance(v, (int, np.integer)) for v in seed
    ):
        key = [int(v) for v in seed]
        return np.random.SeedSequence(key), key
    raise InvalidInputError(f"rollout seed must be an int or a list of ints, got {seed!r}")


def rollout(spec, controller, support, policy, seed, cfg=None, disturbance=None):
    """Run one seeded episode and return its full record.

    controller is a kind name; every episode gets a fresh instance, which
    matters for the stateful early-stop controller.  disturbance=None uses
    the environment's own default; True/False forces the stream on or off.
    The record's outcome always equals classify_outcome re-applied to its
    stored states.
    """
    ss, seed_key = _seed_sequence(seed)
    reset_ss, probe_ss, stream_ss = ss.spawn(3)
    ctrl = make_controller(controller, cfg)
    kind = ctrl.kind
    if ctrl.uses_support and support is None:
        raise InvalidInputError(f"controller {kind!r} needs a support estimator")
    if ctrl.uses_policy and policy is None:
        raise InvalidInputError(f"controller {kind!r} needs a policy")

    if disturbance is None:
        disturbance = spec.disturbance.enabled
    use_stream = disturbance and spec.disturbance.process != "none"
    stream = DisturbanceStream(spec, seed=stream_ss) if use_stream else None
    handle = EnvHandle(spec, stream=stream)
    rng = np.random.default_rng(probe_ss)

    t_start = time.perf_counter()
    state = reset(spec, reset_ss)
    start_state = state.vec.copy()
    steps = []
    g_seen = []
    n_recovery = 0
    outcome = None
    halt_reason = None
    t_end = 0

    gate_g = None
    if support is not None:
        gate_g = support.g_at(0, state.vec)
        g_seen.append(gate_g)
    if ctrl.uses_support and gate_g < 0.0:
        outcome = HALTED
        halt_reason = "start-gate"

    if outcome is None:
        for t in range(spec.horizon):
            t_end = t
            g_start = support.g_at(t, state.vec) if support is not None else None
            if g_start is not None:
                g_seen.append(g_start)
            try:
                cs = ctrl.step(handle, support, policy, t, state, rng, g=g_start)
            except OutsideSupportError as exc:
                # Escape without contact: no constraint was violated, so the
                # episode halts.  The offending decision value still counts
                # toward g_min even though its state never committed.
                if exc.g_value is not None:
                    g_seen.append(float(exc.g_value))
                outcome = HALTED
                halt_reason = "outside-support"
                break
            for r in cs.recovery_steps:
                g_seen.extend((r.g_before, r.g_probe, r.g_after))
            n_recovery += len(cs.recovery_steps)
            steps.append(StepRecord(t=t, g=g_start, applied=cs.applied,
                                    recovery=cs.recovery_steps, halted=cs.halted))
            state = cs.state
            for a in cs.applied:
                if a.collided:
                    outcome = COLLIDED
                    break
                if a.reached:
                    outcome = COMPLETED
                    break
            if outcome is not None:
                break
            if cs.halted:
                outcome = HALTED
                halt_reason = "recovery-cap"
                break
        else:
            outcome = HALTED
            halt_reason = "horizon"

    # g_min covers every (t, x) pair the episode occupied: the start gate,
    # each step-start value, and every probe/recovery evaluation.  g_final is
    # a diagnostic only: it rates the terminal state under the next slice's
    # estimator, a pair the episode never occupied.
    g_final = None
    if support is not None:
        g_final = support.g_at(t_end + 1, state.vec) if steps else gate_g
    wall = time.perf_counter() - t_start

    record = RolloutRecord(
        seed=seed_key,
        controller=kind,
        outcome=outcome,
        start_state=start_state,
        steps=steps,
        halt_reason=halt_reason,
        recovery_iterations=n_recovery,
        g_min=min(g_seen) if g_seen else None,
        g_final=g_final,
        wall_clock_s=wall,
    )
    reclassified = classify_outcome(record, spec)
    if reclassified != outcome:
        raise RuntimeError(
            f"outcome bookkeeping disagrees with reclassification "
            f"({outcome} vs {reclassified})"
        )
    return record


# ---------------------------------------------------------------------------
# aggregation


def tally(outcomes):
    """Count and fraction of each outcome in a list of outcome names.

    Returns (n, counts, fractions).  The halted fraction is defined as
    1 - completed - collided so the three fractions sum to 1.0 exactly.
    """
    counts = {o: 0 for o in OUTCOMES}
    for o in outcomes:
        counts[o] += 1
    n = len(outcomes)
    completed_frac = counts[COMPLETED] / n
    collided_frac = counts[COLLIDED] / n
    fractions = {
        COMPLETED: completed_frac,
        COLLIDED: collided_frac,
        HALTED: 1.0 - completed_frac - collided_frac,
    }
    return n, counts, fractions


def summarize(records):
    """Per-controller outcome counts and fractions, timing, and recovery
    histograms.  Timing lives under its own key so deterministic consumers
    can drop it.
    """
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.controller, []).append(rec)
    controllers = {}
    timing = {}
    for kind in sorted(by_kind):
        recs = by_kind[kind]
        n, counts, fractions = tally([r.outcome for r in recs])
        hist = {}
        for r in recs:
            hist[r.recovery_iterations] = hist.get(r.recovery_iterations, 0) + 1
        controllers[kind] = {
            "n": n,
            "counts": counts,
            "fractions": fractions,
            "recovery_iterations": {str(k): hist[k] for k in sorted(hist)},
        }
        walls = [r.wall_clock_s for r in recs if r.wall_clock_s is not None]
        timing[kind] = {
            "mean_wall_clock_s": sum(walls) / len(walls) if walls else None,
        }
    return {"controllers": controllers, "timing": timing}


def _outcome_row(base, outcomes):
    """A metrics row: base columns plus counts, fractions and Wilson intervals."""
    n, counts, fractions = tally(outcomes)
    row = dict(base, n=n)
    for o in OUTCOMES:
        row[o] = counts[o]
        row[f"{o}_frac"] = fractions[o]
        row[f"{o}_lo"], row[f"{o}_hi"] = wilson_interval(counts[o], n)
    return row


OUTCOME_COLUMNS = ["n"] + [
    c for o in OUTCOMES for c in (o, f"{o}_frac", f"{o}_lo", f"{o}_hi")
]


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative description shared by all experiment runners.

    demo_grid drives the learning curve; the disturbance and certified
    runners fit at demo_grid[-1] with demo_seeds[0]; the ascent runner uses
    ascent_cells (falling back to the full demo_seeds x demo_grid cross).
    """

    env: str = "point_push"
    demo_grid: tuple = (20, 30, 50, 120)
    trials: int = 1
    eval_samples: int = 60
    controllers: tuple = ("baseline", "dfr")
    nu: float = 0.05
    gamma: float = 5.0
    solver_tol: float = 1e-8
    max_solver_iters: int = 200_000
    policy_centers: int = 100
    policy_bandwidth: float = 0.3
    policy_ridge: float = 1e-6
    lam: float = 1.0
    eta: float = None
    epsilon: float = 0.1
    max_recovery_iters: int = 500
    lambda_mode: str = "manual"
    projection: tuple = None
    pooled: bool = False
    demo_jitter: float = 0.0
    disturbance: bool = None
    seed: int = 0
    demo_seeds: tuple = None
    ascent_cells: tuple = None
    oracle_eta: float = None
    trace_points: int = 21
    min_activations: int = 50
    certified_rollouts: int = 1000

    def __post_init__(self):
        grid = tuple(int(n) for n in self.demo_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError(f"demo grid must be strictly increasing, got {list(grid)}")
        if min(grid) < 1:
            raise InvalidInputError("demo counts must be >= 1")
        object.__setattr__(self, "demo_grid", grid)
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        if self.eval_samples < 1:
            raise InvalidInputError("eval_samples must be >= 1")
        ctrls = tuple(self.controllers)
        bad = [c for c in ctrls if c not in CONTROLLER_KINDS]
        if not ctrls or bad:
            raise InvalidInputError(f"bad controller set {list(ctrls)}")
        object.__setattr__(self, "controllers", ctrls)
        if self.demo_seeds is None:
            object.__setattr__(
                self, "demo_seeds", tuple(1000 * self.seed + t for t in range(self.trials))
            )
        else:
            seeds = tuple(int(s) for s in self.demo_seeds)
            if len(seeds) != self.trials:
                raise InvalidInputError(
                    f"demo_seeds has {len(seeds)} entries for {self.trials} trials"
                )
            object.__setattr__(self, "demo_seeds", seeds)
        if self.projection is not None:
            object.__setattr__(self, "projection", tuple(int(i) for i in self.projection))
        if self.ascent_cells is not None:
            cells = tuple((int(s), int(n)) for s, n in self.ascent_cells)
            object.__setattr__(self, "ascent_cells", cells)
        if self.trace_points < 2:
            raise InvalidInputError("trace_points must be >= 2")
        if self.certified_rollouts < 1:
            raise InvalidInputError("certified_rollouts must be >= 1")

    def ocsvm_params(self):
        return OcsvmParams(
            nu=self.nu,
            kernel=KernelParams(gamma=self.gamma),
            solver_tol=self.solver_tol,
            max_solver_iters=self.max_solver_iters,
        )

    def policy_config(self):
        return PolicyConfig(
            centers=self.policy_centers,
            bandwidth=self.policy_bandwidth,
            ridge=self.policy_ridge,
        )

    def switch_config(self, eta=None):
        return SwitchConfig(
            lam=self.lam,
            eta=self.eta if eta is None else eta,
            epsilon=self.epsilon,
            max_recovery_iters=self.max_recovery_iters,
            lambda_mode=self.lambda_mode,
        )


CONFIG_FORMAT = "experiment-config"

_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def experiment_config_to_document(config):
    doc = {"format": CONFIG_FORMAT, "version": 1}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        doc[name] = value
    return doc


def experiment_config_from_document(doc, overrides=None):
    """Build a config from a JSON document.

    overrides fills fields the document omits; where the document specifies a
    value, the document wins (experiment files are authoritative over flags).
    """
    if doc.get("format") != CONFIG_FORMAT:
        raise InvalidInputError(f"not an experiment config: format={doc.get('format')!r}")
    unknown = sorted(set(doc) - {"format", "version", *_CONFIG_FIELDS})
    if unknown:
        raise InvalidInputError(f"unknown experiment config key(s): {', '.join(unknown)}")
    kwargs = dict(overrides or {})
    for name in _CONFIG_FIELDS:
        if name in doc:
            kwargs[name] = doc[name]
    with malformed("malformed experiment config"):
        return ExperimentConfig(**kwargs)


def load_experiment_config(path, overrides=None):
    doc = load_json(path, "experiment config")
    return experiment_config_from_document(doc, overrides=overrides)


def save_experiment_config(config, path):
    atomic_write_text(path, dump_json(experiment_config_to_document(config)))


def config_sha256(config):
    doc = experiment_config_to_document(config)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared runner plumbing


def fit_support(demos, params, projection=None, pooled=False):
    """Per-slice estimators, or one estimator over all slices pooled.

    projection defaults to every state coordinate.
    """
    proj = None if projection is None else list(projection)
    if not pooled:
        return fit_time_varying(demos, params, projection=proj)
    if proj is None:
        proj = list(range(demos.state_dim))
    model = fit_pooled(demos, params, projection=proj)
    return TimeVaryingSupport(estimators=[model], projection=proj)


def _fit_cell(spec, config, demo_seed, n):
    """Support estimator and policy for one (seed, count) cell."""
    demos = generate_demos(spec, n, seed=demo_seed, jitter_sigma=config.demo_jitter)
    support = fit_support(demos, config.ocsvm_params(), config.projection, config.pooled)
    policy = fit_policy(demos, config.policy_config())
    return support, policy


def _rollout_task(args):
    spec, kind, support, policy, seed, cfg, disturbance = args
    return rollout(spec, kind, support, policy, seed, cfg=cfg, disturbance=disturbance)


def _run_rollouts(spec, kind, support, policy, seeds, cfg, disturbance, jobs):
    """Map rollouts over a process pool; results keep the seed order."""
    tasks = [(spec, kind, support, policy, s, cfg, disturbance) for s in seeds]
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_rollout_task, tasks))
    return [_rollout_task(t) for t in tasks]


def _arm_runs(spec, config, cells, kinds, disturbance, jobs):
    """The experiment loop shared by every runner but the certified audit.

    Each cell (seed key, demo seed, demo count) is fitted once; every arm in
    kinds then rolls out on the cell's paired seeds [master seed, *seed key,
    episode].  Yields (cell, kind, switch config, support, policy, records)
    per arm, with support or policy None where the controller does not
    consult it.  The oracle arm steps with oracle_eta when it is set.
    """
    for cell in cells:
        key, demo_seed, n = cell
        support, policy = _fit_cell(spec, config, demo_seed, n)
        seeds = [[config.seed, *key, i] for i in range(config.eval_samples)]
        for kind in kinds:
            scfg = config.switch_config(eta=config.oracle_eta if kind == "oracle" else None)
            sup = support if CONTROLLERS[kind].uses_support else None
            pol = policy if CONTROLLERS[kind].uses_policy else None
            recs = _run_rollouts(spec, kind, sup, pol, seeds, scfg, disturbance, jobs)
            yield cell, kind, scfg, sup, pol, recs


def gates_all_passed(gates):
    return all(v["passed"] for v in gates.values() if v["passed"] is not None)


def _require_gates(gates):
    failed = [name for name, v in gates.items() if v["passed"] is False]
    if failed:
        raise GateFailureError(f"experiment gates failed: {', '.join(sorted(failed))}")


# ---------------------------------------------------------------------------
# experiment: learning curve


def run_learning_curve(config, jobs=1):
    """Outcome fractions per (controller, demo count, trial) plus pooled gates.

    Each trial generates its own demonstrations (one demo seed per trial) at
    every grid count, fits the support and the policy, and evaluates every
    controller on eval_samples paired rollouts.
    """
    spec = load_env_spec(config.env)
    cells = [
        ((trial, gi), config.demo_seeds[trial], n)
        for trial in range(config.trials)
        for gi, n in enumerate(config.demo_grid)
    ]
    rows = []
    records = []
    for ((trial, _), demo_seed, n), kind, _, _, _, recs in _arm_runs(
        spec, config, cells, config.controllers, config.disturbance, jobs
    ):
        base = {"controller": kind, "demo_count": n, "trial": trial, "demo_seed": demo_seed}
        rows.append(_outcome_row(base, [r.outcome for r in recs]))
        records.extend(recs)

    summary = summarize(records)
    pooled = {kind: summary["controllers"][kind]["counts"] for kind in config.controllers}
    total = config.trials * len(config.demo_grid) * config.eval_samples
    gates = {}
    aggregates = {
        "per_controller": {
            kind: dict(pooled[kind], n=total) for kind in config.controllers
        }
    }
    if "baseline" in pooled and "dfr" in pooled:
        k_b, k_d = pooled["baseline"][COLLIDED], pooled["dfr"][COLLIDED]
        upper_d = wilson_upper(k_d, total)
        lower_b = wilson_lower(k_b, total)
        gates["collision_halving"] = {
            "passed": upper_d <= 0.5 * lower_b,
            "detail": {"dfr_upper": upper_d, "baseline_lower": lower_b},
        }
        p_b = pooled["baseline"][COMPLETED] / total
        p_d = pooled["dfr"][COMPLETED] / total
        gates["completion_ratio"] = {
            "passed": p_d >= 0.5 * p_b,
            "detail": {"dfr": p_d, "needed": 0.5 * p_b},
        }
        aggregates["collision_reduction_ratio"] = (
            None if k_b == 0 else 1.0 - (k_d / total) / (k_b / total)
        )
    if "es" in pooled and "dfr" in pooled:
        lo_es = wilson_interval(pooled["es"][COLLIDED], total)[0]
        hi_d = wilson_interval(pooled["dfr"][COLLIDED], total)[1]
        gates["es_collisions_not_above_dfr"] = {
            "passed": lo_es <= hi_d,
            "detail": {"es_lower": lo_es, "dfr_upper": hi_d},
        }
    if "supervisor" in pooled:
        gates["supervisor_sanity"] = {
            "passed": pooled["supervisor"][COMPLETED] == total,
            "detail": {"completed": pooled["supervisor"][COMPLETED], "n": total},
        }
    # Per-count completion intervals of dfr vs baseline can overlap at the
    # protocol's small cell sizes; flag those counts rather than widening it.
    if "baseline" in pooled and "dfr" in pooled:
        overlap = {}
        cell_n = config.trials * config.eval_samples
        for n in config.demo_grid:
            k_d, k_b = (
                sum(r[COMPLETED] for r in rows if r["controller"] == kind and r["demo_count"] == n)
                for kind in ("dfr", "baseline")
            )
            lo_d, hi_d = wilson_interval(k_d, cell_n)
            lo_b, hi_b = wilson_interval(k_b, cell_n)
            overlap[str(n)] = bool(lo_d <= hi_b and lo_b <= hi_d)
        aggregates["completion_interval_overlap"] = overlap

    columns = ["controller", "demo_count", "trial", "demo_seed"] + OUTCOME_COLUMNS
    return {
        "experiment": "learning-curve",
        "columns": columns,
        "rows": rows,
        "gates": gates,
        "aggregates": aggregates,
        "summary": summary,
        "records": records,
    }


# ---------------------------------------------------------------------------
# experiment: normalized ascent traces


def activation_traces(record, support, policy, cfg, spec):
    """Normalized ascent traces, one per recovery activation in the record.

    The value of iteration k is min(1, g_before / (lambda * ||u_hat(x_k)||))
    with u_hat recomputed at the state x_k the iteration started from: the
    step's start state for k = 0, else where the k-th recovery-tagged motion
    of the step ended (dfr and oracle alike).  1.0 is the switching
    threshold.  An activation that hands control back to the policy gets a
    terminal 1.0 anchor: the exit test g > lambda*||u_hat|| passed, the
    trace just has no sample of its own there.
    """
    traces = []
    cur = record.start_state
    for step in record.steps:
        step_start = cur
        if step.applied:
            cur = step.applied[-1].state
        if not step.recovery:
            continue
        lam = effective_lambda(cfg, support, step.t, spec)
        starts = [step_start] + [a.state for a in step.applied if a.tag == "recovery"]
        vals = []
        for ev, pre in zip(step.recovery, starts):
            threshold = lam * float(np.linalg.norm(policy.action(pre)))
            vals.append(min(1.0, ev.g_before / threshold))
        if step.applied and step.applied[-1].tag == "policy":
            vals.append(1.0)
        traces.append(vals)
    return traces


def resample_trace(values, points):
    """Linear resampling of a trace onto a fixed grid over [0, 1].

    Activations run for wildly different iteration counts; averaging on a
    normalized axis compares ascent shapes instead of mixing early exits
    with capped stragglers at fixed iteration indices.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise InvalidInputError("a trace needs at least one value")
    if values.size == 1:
        return np.full(points, values[0])
    xs = np.linspace(0.0, 1.0, points)
    xp = np.linspace(0.0, 1.0, values.size)
    return np.interp(xs, xp, values)


def run_ascent_traces(config, jobs=1):
    """Averaged normalized recovery curves for the dfr and oracle arms."""
    spec = load_env_spec(config.env)
    pairs = config.ascent_cells
    if pairs is None:
        pairs = tuple(
            (config.demo_seeds[t], n)
            for t in range(config.trials)
            for n in config.demo_grid
        )
    arms = tuple(k for k in config.controllers if k in ("dfr", "oracle"))
    if not arms:
        raise InvalidInputError("ascent experiment needs the dfr and/or oracle controller")
    cells = [((ci, 0), demo_seed, n) for ci, (demo_seed, n) in enumerate(pairs)]
    traces = {arm: [] for arm in arms}
    records = []
    for _, arm, scfg, support, policy, recs in _arm_runs(
        spec, config, cells, arms, config.disturbance, jobs
    ):
        for rec in recs:
            traces[arm].extend(activation_traces(rec, support, policy, scfg, spec))
        records.extend(recs)

    curves = {}
    rows = []
    for arm in arms:
        if traces[arm]:
            stacked = np.stack(
                [resample_trace(v, config.trace_points) for v in traces[arm]]
            )
            curves[arm] = stacked.mean(axis=0)
        else:
            curves[arm] = np.full(config.trace_points, np.nan)
        for k in range(config.trace_points):
            rows.append(
                {
                    "arm": arm,
                    "point": k,
                    "axis": k / (config.trace_points - 1),
                    "mean_value": float(curves[arm][k]),
                    "n_traces": len(traces[arm]),
                }
            )

    gates = {}
    aggregates = {"activations": {arm: len(traces[arm]) for arm in arms}}
    if "dfr" in arms:
        n_act = len(traces["dfr"])
        gates["enough_activations"] = {
            "passed": n_act >= config.min_activations,
            "detail": {"activations": n_act, "needed": config.min_activations},
        }
        if n_act:
            curve = curves["dfr"]
            max_decrease = float(np.max(curve[:-1] - curve[1:]))
            reach = float(np.mean([max(v) >= 0.9 for v in traces["dfr"]]))
            starts = [v[0] for v in traces["dfr"]]
            aggregates["dfr_max_decrease"] = max_decrease
            aggregates["dfr_fraction_reaching_0.9"] = reach
            aggregates["dfr_max_start_value"] = float(max(starts))
            gates["nearly_monotone"] = {
                "passed": max_decrease <= 0.02,
                "detail": {"max_decrease": max_decrease},
            }
            gates["reaches_threshold"] = {
                "passed": reach >= 0.8,
                "detail": {"fraction": reach},
            }
    if "dfr" in arms and "oracle" in arms and traces["dfr"] and traces["oracle"]:
        margin = float(np.min(curves["oracle"] - curves["dfr"]))
        aggregates["oracle_minus_dfr_min"] = margin
        gates["oracle_dominates"] = {
            "passed": margin >= -0.02,
            "detail": {"min_pointwise_margin": margin},
        }

    return {
        "experiment": "ascent",
        "columns": ["arm", "point", "axis", "mean_value", "n_traces"],
        "rows": rows,
        "gates": gates,
        "aggregates": aggregates,
        "summary": summarize(records),
        "records": records,
        "curves": curves,
        "traces": traces,
    }


# ---------------------------------------------------------------------------
# experiment: disturbance robustness


def run_disturbance_eval(config, jobs=1):
    """Baseline vs recovery outcome fractions under the test-time disturbance.

    Demonstrations are always generated disturbance-free; the stream is
    enabled (by default) for evaluation only.  Rollout seeds are shared
    across arms, so both controllers face identical start states and
    identical disturbance streams.
    """
    spec = load_env_spec(config.env)
    n = config.demo_grid[-1]
    demo_seed = config.demo_seeds[0]
    disturbance = True if config.disturbance is None else config.disturbance
    rows = []
    records = []
    for _, kind, _, _, _, recs in _arm_runs(
        spec, config, [((0, 0), demo_seed, n)], config.controllers, disturbance, jobs
    ):
        base = {"controller": kind, "demo_count": n, "demo_seed": demo_seed}
        rows.append(_outcome_row(base, [r.outcome for r in recs]))
        records.extend(recs)
    counts = {row["controller"]: row for row in rows}

    gates = {}
    aggregates = {"disturbance_enabled": bool(disturbance)}
    if "baseline" in counts and "dfr" in counts:
        n_arm = config.eval_samples
        k_b = counts["baseline"][COLLIDED]
        k_d = counts["dfr"][COLLIDED]
        upper_d = wilson_upper(k_d, n_arm)
        lower_b = wilson_lower(k_b, n_arm)
        gates["collision_third"] = {
            "passed": upper_d <= 0.33 * lower_b,
            "detail": {"dfr_upper": upper_d, "threshold": 0.33 * lower_b},
        }
        passed, detail = proportion_margin_test(
            counts["dfr"][COMPLETED], n_arm, counts["baseline"][COMPLETED], n_arm, 0.1
        )
        gates["completion_margin"] = {"passed": passed, "detail": detail}

    columns = ["controller", "demo_count", "demo_seed"] + OUTCOME_COLUMNS
    return {
        "experiment": "disturbance",
        "columns": columns,
        "rows": rows,
        "gates": gates,
        "aggregates": aggregates,
        "summary": summarize(records),
        "records": records,
    }


# ---------------------------------------------------------------------------
# experiment: certified-mode audit


def run_certified(config):
    """Recovery in certified mode; audits the minimum visited decision value.

    Fits at demo_grid[-1] with demo_seeds[0], then rolls the recovery
    controller with the per-slice certified threshold until
    certified_rollouts episodes that start inside the estimated support have
    run (start-gated resets are skipped: the no-exit statement presumes the
    episode begins inside).  The gate asks for g >= -1e-9 over every visited
    state, probe states included.
    """
    spec = load_env_spec(config.env)
    n = config.demo_grid[-1]
    support, policy = _fit_cell(spec, config, config.demo_seeds[0], n)
    scfg = replace(config.switch_config(), lam=None, lambda_mode="certified")
    outcomes = []
    skipped = 0
    attempts = 0
    min_g = math.inf
    limit = 20 * config.certified_rollouts
    while len(outcomes) < config.certified_rollouts:
        if attempts >= limit:
            raise InvalidInputError(
                f"start gate rejected too many resets ({skipped} of {attempts}); "
                "the estimated support may not cover the start distribution"
            )
        rec = rollout(
            spec, "dfr", support, policy, [config.seed, 0, 0, attempts],
            cfg=scfg, disturbance=False,
        )
        attempts += 1
        if rec.halt_reason == "start-gate":
            skipped += 1
            continue
        outcomes.append(rec.outcome)
        if rec.g_min is not None and rec.g_min < min_g:
            min_g = rec.g_min
    lam0 = effective_lambda(scfg, support, 0, spec)
    gates = {
        "no_support_exit": {
            "passed": min_g >= -1e-9,
            "detail": {"min_g": min_g, "tolerance": -1e-9},
        }
    }
    return {
        "experiment": "certified",
        "columns": ["controller", "demo_count", "demo_seed"] + OUTCOME_COLUMNS,
        "rows": [
            _outcome_row(
                {
                    "controller": "dfr",
                    "demo_count": n,
                    "demo_seed": config.demo_seeds[0],
                },
                outcomes,
            )
        ],
        "gates": gates,
        "aggregates": {
            "min_g": min_g,
            "rollouts": len(outcomes),
            "start_gate_skipped": skipped,
            "lambda_certified_t0": lam0,
        },
        "summary": None,
        "records": [],
    }


# ---------------------------------------------------------------------------
# output directory layout


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _strip_nondeterministic(doc):
    doc = dict(doc)
    doc.pop("created", None)
    doc.pop("timing", None)
    if isinstance(doc.get("summary"), dict):
        doc["summary"] = {
            k: v for k, v in doc["summary"].items() if k != "timing"
        }
    return doc


def write_experiment_outputs(out_dir, config, result):
    """Write manifest.json, records.jsonl, metrics.csv (+ traces.csv), summary.json.

    Every file is byte-stable across re-runs except the manifest's "created"
    field and the summary's "timing" block.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "format": "experiment-manifest",
        "version": 1,
        "experiment": result["experiment"],
        "config": experiment_config_to_document(config),
        "config_sha256": config_sha256(config),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "master_seed": config.seed,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"), dump_json(manifest))
    lines = [
        json.dumps(record_to_document(rec), separators=(",", ":"), allow_nan=False)
        for rec in result.get("records", [])
    ]
    atomic_write_text(os.path.join(out_dir, "records.jsonl"), "".join(l + "\n" for l in lines))
    name = "traces.csv" if result["experiment"] == "ascent" else "metrics.csv"
    write_csv(os.path.join(out_dir, name), result["columns"], result["rows"])
    summary_doc = {
        "experiment": result["experiment"],
        "gates": result["gates"],
        "aggregates": result["aggregates"],
    }
    if result.get("summary") is not None:
        summary_doc["summary"] = result["summary"]
    atomic_write_text(os.path.join(out_dir, "summary.json"), dump_json(_json_safe(summary_doc)))
    return manifest


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


EXPERIMENT_RUNNERS = {
    "learning-curve": run_learning_curve,
    "ascent": run_ascent_traces,
    "disturbance": run_disturbance_eval,
}


def run_experiment(name, config, out_dir=None, jobs=1, enforce_gates=False):
    """Run one named experiment, optionally writing outputs and raising on gates."""
    if name not in EXPERIMENT_RUNNERS:
        raise InvalidInputError(
            f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENT_RUNNERS)}"
        )
    result = EXPERIMENT_RUNNERS[name](config, jobs=jobs)
    if out_dir is not None:
        write_experiment_outputs(out_dir, config, result)
    if enforce_gates:
        _require_gates(result["gates"])
    return result
