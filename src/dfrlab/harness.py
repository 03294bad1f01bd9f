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
ascent traces, and a disturbance robustness comparison, each its cells run
through _arm_runs and then judged by a pure function of the records' facts,
so that the manifest, line-delimited rollout records, CSV metrics and
summary it writes can be judged again from the records; and a certified-mode
audit, run_certified, which returns its result and writes nothing.
"""

from dataclasses import dataclass, fields
from concurrent.futures import ProcessPoolExecutor
import contextlib
import hashlib
from functools import partial
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
    SwitchConfig,
    PolicyConfig,
    effective_lambda,
    fit_policy,
    make_controller,
)
from .envs import (
    DisturbanceStream,
    EnvHandle,
    check_constraint,
    load_env_spec,
    reached_goal,
    reset,
)
from .errors import GateFailureError, InvalidInputError
from .kernel_ocsvm import KernelParams, OcsvmParams
from .records import (
    COLLIDED, COMPLETED, HALT_REASONS, HALTED, HAND_BACK, OUTCOMES, OUTSIDE_SUPPORT, STEP_HALTS,
    RolloutRecord, encode_record, record_activations,
)
from .supervisor import demo_prefix, generate_demos
from .support import TimeVaryingSupport, fit_pooled, fit_time_varying
from .util import (
    atomic_write_chunks, atomic_write_text, dump_json, integer, load_json, malformed, real,
    refuse_unknown_keys,
)

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
# outcome classification


def classify_outcome(record, spec):
    """Recompute the outcome from the stored state sequence alone."""
    states = record.state_sequence()
    for state in states:
        if not check_constraint(spec, state):
            return COLLIDED
    for state in states:
        if reached_goal(spec, state):
            return COMPLETED
    return HALTED


# ---------------------------------------------------------------------------
# the rollout loop


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        key = int(seed)
    elif isinstance(seed, (list, tuple)) and seed and all(
        isinstance(v, (int, np.integer)) for v in seed
    ):
        key = [int(v) for v in seed]
    else:
        raise InvalidInputError(f"rollout seed must be an int or a list of ints, got {seed!r}")
    if min(key if isinstance(key, list) else [key]) < 0:
        raise InvalidInputError(f"rollout seed entries must be non-negative, got {seed!r}")
    return key


def rollout(spec, controller, support, policy, seed, cfg=None, disturbance=None):
    """Run one seeded episode and return its record: its facts, its
    activations and its records.jsonl line, which holds every step.

    controller is a kind name; every episode gets a fresh instance, which
    matters for the stateful early-stop controller.  disturbance=None uses
    the environment's own default; True/False forces the stream on or off.
    g_t(state) is evaluated once per step start (the start gate's value
    serves t = 0) and handed to the controller.  The outcome is decided as
    the episode runs: a step with an end (collided or completed, decided as
    its motions were applied, with classify_outcome's precedence) ends the
    episode with that outcome, and a step with a halt ends it halted for
    that reason.  Every step the controller returns is stored, a halting
    one with the motions it applied before the halt.  wall_clock_s spans
    reset through the last step; the activations and the line are
    computed after it stops.
    """
    seed_key = _seed_key(seed)
    ctrl = make_controller(controller, cfg)
    kind = ctrl.kind
    if ctrl.uses_support and support is None:
        raise InvalidInputError(f"controller {kind!r} needs a support estimator")
    if ctrl.uses_policy and policy is None:
        raise InvalidInputError(f"controller {kind!r} needs a policy")
    if ctrl.uses_policy and policy.centers.shape[1] != spec.state_dim:
        raise InvalidInputError(
            f"the policy takes {policy.centers.shape[1]}-dimensional states, "
            f"the {spec.kind} environment has {spec.state_dim}"
        )

    if disturbance is None:
        disturbance = spec.disturbance.enabled
    use_stream = disturbance and spec.disturbance.process != "none"
    # child(spawn_key=(i,)) equals SeedSequence(seed_key).spawn(3)[i]; each is built where used
    child = partial(np.random.SeedSequence, seed_key)
    reset_ss = child(spawn_key=(0,))
    stream = DisturbanceStream(spec, seed=child(spawn_key=(2,))) if use_stream else None
    handle = EnvHandle(spec, stream=stream)
    rng = np.random.default_rng(child(spawn_key=(1,))) if ctrl.draws_probes else None

    t_start = time.perf_counter()
    state = reset(spec, reset_ss)
    start_state = state.copy()
    steps = []
    g_seen = []
    outcome = None
    halt_reason = None

    g = None
    if support is not None:
        g = support.g_at(0, state)
        g_seen.append(g)
    if ctrl.uses_support and g < 0.0:
        outcome = HALTED
        halt_reason = "start-gate"

    if outcome is None:
        for t in range(spec.horizon):
            if t and support is not None:
                g = support.g_at(t, state)
                g_seen.append(g)
            step = ctrl.step(handle, support, policy, t, state, rng, g)
            for r in step.recovery:
                g_seen.extend((r.g_probe, r.g_after))
            steps.append(step)
            if step.applied:
                state = step.applied[-1].state
            if step.end is not None or step.halt is not None:
                outcome = step.end or HALTED
                halt_reason = step.halt
                break
        else:
            outcome = HALTED
            halt_reason = "horizon"

    wall = time.perf_counter() - t_start

    # g_min covers every (t, x) pair the episode occupied: the start gate,
    # each step-start value, and every probe/recovery evaluation.
    facts = dict(seed=seed_key, controller=kind, outcome=outcome, halt_reason=halt_reason,
                 recovery_iterations=sum(len(s.recovery) for s in steps),
                 g_min=min(g_seen) if g_seen else None)
    return RolloutRecord(**facts, activations=record_activations(steps),
                         line=encode_record(**facts, start_state=start_state, steps=steps),
                         wall_clock_s=wall)


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


def halt_reason_counts(reasons):
    """Episodes per halt reason, plus "none" for those that did not halt."""
    counts = {reason: 0 for reason in ("none",) + HALT_REASONS}
    for reason in reasons:
        counts["none" if reason is None else reason] += 1
    return counts


def summarize(records):
    """Per-controller outcome and halt-reason counts, fractions and recovery
    histograms, from the records' facts alone: a judge's summary."""
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.controller, []).append(rec)
    controllers = {}
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
            "halt_reasons": halt_reason_counts([r.halt_reason for r in recs]),
            "recovery_iterations": {str(k): hist[k] for k in sorted(hist)},
        }
    return {"controllers": controllers}


def episode_timing(records):
    """Mean episode wall time per controller (None where no record has one):
    the summary's clock block, which a run adds to its judge's summary."""
    walls = {}
    for rec in records:
        walls.setdefault(rec.controller, [])
        if rec.wall_clock_s is not None:
            walls[rec.controller].append(rec.wall_clock_s)
    return {kind: {"mean_wall_clock_s": sum(w) / len(w) if w else None}
            for kind, w in sorted(walls.items())}


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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int:
                object.__setattr__(self, f.name, integer(f.name, value))
            elif f.type is float and value is not None:
                real(f.name, value)  # named as in the config; the derived configs convert
            elif f.name in ("demo_grid", "demo_seeds", "projection") and value is not None:
                object.__setattr__(self, f.name, tuple(integer(f.name, v) for v in value))
        if not isinstance(self.env, str):
            raise InvalidInputError(f"env: expected a name or a spec path, got {self.env!r}")
        if not isinstance(self.pooled, bool):
            raise InvalidInputError(f"pooled: expected true or false, got {self.pooled!r}")
        if not isinstance(self.disturbance, (bool, type(None))):
            raise InvalidInputError(
                f"disturbance: expected true, false or null, got {self.disturbance!r}")
        grid = self.demo_grid
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError(f"demo grid must be strictly increasing, got {list(grid)}")
        if min(grid) < 1:
            raise InvalidInputError("demo counts must be >= 1")
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        if self.eval_samples < 1:
            raise InvalidInputError("eval_samples must be >= 1")
        ctrls = tuple(self.controllers)
        bad = [c for c in ctrls if c not in CONTROLLER_KINDS]
        if not ctrls or bad or len(set(ctrls)) != len(ctrls):
            raise InvalidInputError(f"bad controller set {list(ctrls)}: "
                                    "each must be a known kind, listed once")
        object.__setattr__(self, "controllers", ctrls)
        if self.demo_seeds is None:
            object.__setattr__(
                self, "demo_seeds", tuple(1000 * self.seed + t for t in range(self.trials))
            )
        elif len(self.demo_seeds) != self.trials:
            raise InvalidInputError(
                f"demo_seeds has {len(self.demo_seeds)} entries for {self.trials} trials"
            )
        if self.ascent_cells is not None:
            cells = tuple((integer("ascent_cells", s), integer("ascent_cells", n))
                          for s, n in self.ascent_cells)
            if not cells:
                raise InvalidInputError("ascent_cells must list at least one cell, or be null")
            object.__setattr__(self, "ascent_cells", cells)
        ascent_seeds = [s for s, _ in self.ascent_cells or ()]
        if min([self.seed, *self.demo_seeds, *ascent_seeds]) < 0:
            raise InvalidInputError(
                f"seeds must be non-negative: seed={self.seed}, "
                f"demo_seeds={list(self.demo_seeds)}, ascent cell seeds={ascent_seeds}"
            )
        if real("demo_jitter", self.demo_jitter) < 0.0:
            raise InvalidInputError(f"demo_jitter must be finite and >= 0, got {self.demo_jitter}")
        if self.trace_points < 2:
            raise InvalidInputError("trace_points must be >= 2")
        # Build every derived config now, so a bad field fails at load, not
        # after the demos are generated and fitted.
        self.ocsvm_params()
        self.policy_config()
        self.switch_config()
        if self.oracle_eta is not None:
            self.switch_config(eta=self.oracle_eta)

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
    refuse_unknown_keys("experiment config", doc, ("format", "version", *_CONFIG_FIELDS))
    kwargs = dict(overrides or {})
    for name in _CONFIG_FIELDS:
        if name in doc:
            kwargs[name] = doc[name]
    with malformed("malformed experiment config"):
        return ExperimentConfig(**kwargs)


def load_experiment_config(path, overrides=None):
    doc = load_json(path, "experiment config")
    return experiment_config_from_document(doc, overrides=overrides)


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


@contextlib.contextmanager
def _stage(timing, name):
    """Add the wall time of the with block to timing[name]."""
    t0 = time.perf_counter()
    yield
    timing[name] = timing.get(name, 0.0) + (time.perf_counter() - t0)


def _fit_cell(config, demos, timing):
    """Support estimator and policy for one cell's demo set."""
    with _stage(timing, "support_fit_s"):
        support = fit_support(demos, config.ocsvm_params(), config.projection, config.pooled)
    with _stage(timing, "policy_fit_s"):
        policy = fit_policy(demos, config.policy_config())
    return support, policy


def _solver_block(supports):
    """Solver step counts and support-vector counts over every estimator the
    run fitted (a slice's g costs in proportion to its support vectors), the
    alphas at the box bound C = 1/(nu m) (the solver's own at-bound test)
    and the range of the offsets rho: deterministic, so they sit in the
    aggregates, not under timing."""
    estimators = [est for support in supports for est in support.estimators]
    its = [est.iterations for est in estimators]
    svs = [len(est.alphas) for est in estimators]
    at_bound = 0
    for est in estimators:
        C = 1.0 / (est.nu * est.train_count)
        at_bound += int((est.alphas >= C * (1.0 - 1e-9)).sum())
    rhos = [est.rho for est in estimators]
    return {
        "slices": len(its),
        "total_iterations": sum(its),
        "median_iterations": float(np.median(its)),
        "max_iterations": max(its),
        "total_support_vectors": sum(svs),
        "max_support_vectors": max(svs),
        "total_at_bound": at_bound,
        "min_rho": min(rhos),
        "max_rho": max(rhos),
    }


def _rollout_task(args):
    spec, kind, support, policy, seeds, cfg, disturbance = args
    return [rollout(spec, kind, support, policy, s, cfg=cfg, disturbance=disturbance)
            for s in seeds]


def _contiguous_chunks(items, n):
    """items split into min(n, len(items)) contiguous runs, sizes within one."""
    n = min(n, len(items))
    q, r = divmod(len(items), n)
    bounds = [i * q + min(i, r) for i in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _arm_runs(spec, config, cells, kinds, disturbance, jobs):
    """The experiment loop shared by every runner but the certified audit.

    Each cell (seed key, demo seed, demo count) is fitted once, all of them
    in this process before any rollout; every arm in kinds then rolls out on
    the cell's paired seeds [master seed, *seed key, episode].  Returns (the
    records, arm by arm within each cell, cell by cell; the stage wall
    times; the solver counts of the fits).
    The oracle arm steps with oracle_eta when it is set.

    Demo sets are nested, so each demo seed's set is generated once, at the
    largest count its cells need, and each cell fits on a prefix of it.

    Each arm's seeds go out as min(jobs, eval_samples) contiguous chunks
    per cell, and the chunks of one arm, over every cell, run on one pool of
    jobs worker processes (in this process at jobs=1).  Set-up stays here so
    that it is timed and traced where it runs.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise InvalidInputError(f"jobs must be an int >= 1, got {jobs!r}")
    largest = {}
    for _, demo_seed, n in cells:
        largest[demo_seed] = max(n, largest.get(demo_seed, 0))
    timing = {"demos_s": 0.0, "support_fit_s": 0.0, "policy_fit_s": 0.0, "rollouts_s": {}}
    demo_sets = {}
    supports = []
    tasks = {kind: [] for kind in kinds}
    for cell in cells:
        key, demo_seed, n = cell
        if demo_seed not in demo_sets:
            with _stage(timing, "demos_s"):
                demo_sets[demo_seed] = generate_demos(
                    spec, largest[demo_seed], seed=demo_seed, jitter_sigma=config.demo_jitter
                )
        demos = demo_prefix(spec, demo_sets[demo_seed], n, config.demo_jitter)
        support, policy = _fit_cell(config, demos, timing)
        supports.append(support)
        seeds = [[config.seed, *key, i] for i in range(config.eval_samples)]
        for kind in kinds:
            scfg = config.switch_config(eta=config.oracle_eta if kind == "oracle" else None)
            sup = support if CONTROLLERS[kind].uses_support else None
            pol = policy if CONTROLLERS[kind].uses_policy else None
            tasks[kind].extend((spec, kind, sup, pol, c, scfg, disturbance)
                               for c in _contiguous_chunks(seeds, jobs))
    # Set-up is done: free the demo sets, each with its stacked states,
    # before the pools fork workers that would inherit them.
    demo_sets = demos = None
    done = {}
    for kind, arm_tasks in tasks.items():
        with _stage(timing["rollouts_s"], kind):
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    done[kind] = list(pool.map(_rollout_task, arm_tasks))
            else:
                done[kind] = [_rollout_task(t) for t in arm_tasks]
    k = min(jobs, config.eval_samples)  # chunks per cell of each arm
    records = [rec for c in range(len(cells)) for kind in kinds
               for chunk in done[kind][c * k:(c + 1) * k] for rec in chunk]
    return records, timing, _solver_block(supports)


def _gate(passed, **detail):
    return {"passed": passed, "detail": detail}


# ---------------------------------------------------------------------------
# experiments: cells -> _arm_runs -> judge


def _run(plan, judge, config, jobs):
    """Roll out the plan's cells with _arm_runs and judge their records.  The
    result gains what only a run has: the records, the stage wall times, the
    fits' solver counts and the episode wall times."""
    records, timing, solver = _arm_runs(load_env_spec(config.env), config, *plan(config), jobs)
    result = judge(config, records)
    result["aggregates"]["solver"] = solver
    result["summary"]["timing"] = episode_timing(records)
    return dict(result, records=records, timing=timing)


def _judged_runs(config, plan, records):
    """(cell, kind, records) per arm, in _arm_runs's order, regrouped by
    the records' seeds [master seed, *cell key, episode].

    Records read back from a file are outside input, so every (cell,
    controller) of the plan must have its eval_samples episodes, once each,
    and no record may name another cell or controller; otherwise
    InvalidInputError names them.  Seeds compare as JSON: 3.0 is not 3.
    """
    cells, kinds, _ = plan
    episodes = {(kind, json.dumps([config.seed, *key, i])): []
                for key, _, _ in cells for kind in kinds for i in range(config.eval_samples)}
    for rec in records:
        seed = json.dumps(rec.seed)
        if (rec.controller, seed) not in episodes:
            raise InvalidInputError(
                f"a record of controller {rec.controller!r} with seed {seed} ([master seed, "
                "*cell, episode]) is no episode of the config's cells and controllers"
            )
        episodes[rec.controller, seed].append(rec)
    runs = []
    for key, demo_seed, n in cells:
        for kind in kinds:
            recs = [episodes[kind, json.dumps([config.seed, *key, i])]
                    for i in range(config.eval_samples)]
            if any(len(r) != 1 for r in recs):
                raise InvalidInputError(
                    f"cell {list(key)} ({n} demos of demo seed {demo_seed}), controller "
                    f"{kind!r}: of its {config.eval_samples} episodes, {recs.count([])} have no "
                    f"record and {sum(len(r) > 1 for r in recs)} more than one"
                )
            runs.append(((key, demo_seed, n), kind, [rec for rec, in recs]))
    return runs


# ---------------------------------------------------------------------------
# experiment: learning curve


def _learning_curve_plan(config):
    """One cell per (trial, demo count), each trial on its own demo seed."""
    cells = [((trial, gi), config.demo_seeds[trial], n)
             for trial in range(config.trials) for gi, n in enumerate(config.demo_grid)]
    return cells, config.controllers, config.disturbance


def judge_learning_curve(config, records):
    """Rows per (controller, demo count, trial), pooled gates and aggregates."""
    rows = [
        _outcome_row({"controller": kind, "demo_count": n, "trial": trial,
                      "demo_seed": demo_seed}, [r.outcome for r in recs])
        for ((trial, _), demo_seed, n), kind, recs
        in _judged_runs(config, _learning_curve_plan(config), records)
    ]
    summary = summarize(records)
    pooled = {kind: summary["controllers"][kind]["counts"] for kind in config.controllers}
    total = config.trials * len(config.demo_grid) * config.eval_samples
    gates = {}
    aggregates = {"per_controller": {kind: dict(pooled[kind], n=total) for kind in pooled},
                  "solver": None}  # from the fits: a run fills it in
    if "baseline" in pooled and "dfr" in pooled:
        k_b, k_d = pooled["baseline"][COLLIDED], pooled["dfr"][COLLIDED]
        upper_d = wilson_upper(k_d, total)
        lower_b = wilson_lower(k_b, total)
        gates["collision_halving"] = _gate(upper_d <= 0.5 * lower_b,
                                           dfr_upper=upper_d, baseline_lower=lower_b)
        p_b = pooled["baseline"][COMPLETED] / total
        p_d = pooled["dfr"][COMPLETED] / total
        gates["completion_ratio"] = _gate(p_d >= 0.5 * p_b, dfr=p_d, needed=0.5 * p_b)
        aggregates["collision_reduction_ratio"] = (
            None if k_b == 0 else 1.0 - (k_d / total) / (k_b / total)
        )
        # Per-count completion intervals of dfr vs baseline can overlap at the
        # protocol's small cell sizes; flag those counts rather than widening it.
        overlap = {}
        cell_n = config.trials * config.eval_samples
        for n in config.demo_grid:
            done_d, done_b = (
                sum(r[COMPLETED] for r in rows if r["controller"] == kind and r["demo_count"] == n)
                for kind in ("dfr", "baseline")
            )
            lo_d, hi_d = wilson_interval(done_d, cell_n)
            lo_b, hi_b = wilson_interval(done_b, cell_n)
            overlap[str(n)] = bool(lo_d <= hi_b and lo_b <= hi_d)
        aggregates["completion_interval_overlap"] = overlap
    if "es" in pooled and "dfr" in pooled:
        lo_es = wilson_interval(pooled["es"][COLLIDED], total)[0]
        hi_d = wilson_interval(pooled["dfr"][COLLIDED], total)[1]
        gates["es_collisions_not_above_dfr"] = _gate(lo_es <= hi_d, es_lower=lo_es, dfr_upper=hi_d)
    if "supervisor" in pooled:
        completed = pooled["supervisor"][COMPLETED]
        gates["supervisor_sanity"] = _gate(completed == total, completed=completed, n=total)

    return {
        "experiment": "learning-curve",
        "columns": ["controller", "demo_count", "trial", "demo_seed"] + OUTCOME_COLUMNS,
        "rows": rows,
        "gates": gates,
        "aggregates": aggregates,
        "summary": summary,
    }


def run_learning_curve(config, jobs=1):
    """Outcome fractions per (controller, demo count, trial) plus pooled gates.

    Each trial generates its own demonstrations (one demo seed per trial) at
    every grid count, fits the support and the policy, and evaluates every
    controller on eval_samples paired rollouts.
    """
    return _run(_learning_curve_plan, judge_learning_curve, config, jobs)


# ---------------------------------------------------------------------------
# experiment: normalized ascent traces


def activation_traces(record):
    """Normalized ascent traces, one per recovery activation in the record.

    Each trace is the activation's values (records.record_activations), so
    1.0 is the switching threshold.  An activation that hands control back
    to the policy gets a terminal 1.0 anchor: the exit test g > threshold
    passed, the trace just has no sample of its own there.  An activation
    that left the support (its step halted outside-support) is left out.
    """
    return [[*values, 1.0] if ending == HAND_BACK else list(values)
            for ending, values in record.activations if ending != OUTSIDE_SUPPORT]


ACTIVATION_BANDS = ("1", "2-4", ">=5")  # iterations per activation


def _mean_curve(traces, points):
    return np.stack([resample_trace(v, points) for v in traces]).mean(axis=0)


def _max_decrease(curve):
    return float(np.max(curve[:-1] - curve[1:]))


def _fraction_reaching(traces, level=0.9):
    return float(np.mean([max(v) >= level for v in traces]))


def activation_split(records, points):
    """Every recovery activation in the records, outside-support ones too,
    grouped by length band and ending: each group's count, the fraction of
    its traces that reach 0.9 without the hand-back anchor, and the largest
    decrease of its mean curve (the traces resampled onto points, no
    anchor); None for both in an empty group."""
    groups = {band: {ending: [] for ending in (HAND_BACK, *STEP_HALTS)}
              for band in ACTIVATION_BANDS}
    for ending, values in (a for rec in records for a in rec.activations):
        n = len(values)
        band = ACTIVATION_BANDS[0 if n == 1 else 1 if n <= 4 else 2]
        groups[band].setdefault(ending, []).append(values)
    return {
        band: {
            ending: {
                "count": len(traces),
                "fraction_reaching_0.9": _fraction_reaching(traces) if traces else None,
                "max_decrease": _max_decrease(_mean_curve(traces, points)) if traces else None,
            }
            for ending, traces in by_ending.items()
        }
        for band, by_ending in groups.items()
    }


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


def _ascent_plan(config):
    """One cell per ascent cell (demo seed, demo count), by default the
    demo_seeds x demo_grid cross; the dfr and oracle arms only."""
    pairs = config.ascent_cells
    if pairs is None:
        pairs = [(config.demo_seeds[t], n) for t in range(config.trials) for n in config.demo_grid]
    arms = tuple(k for k in config.controllers if k in ("dfr", "oracle"))
    if not arms:
        raise InvalidInputError("ascent experiment needs the dfr and/or oracle controller")
    cells = [((ci, 0), demo_seed, n) for ci, (demo_seed, n) in enumerate(pairs)]
    return cells, arms, config.disturbance


def judge_ascent(config, records):
    """Mean normalized recovery curves per arm, their gates, and each arm's
    traces and activation split."""
    plan = _ascent_plan(config)
    by_arm = {arm: [] for arm in plan[1]}
    for _, arm, recs in _judged_runs(config, plan, records):
        by_arm[arm].extend(recs)
    traces = {arm: [t for rec in recs for t in activation_traces(rec)]
              for arm, recs in by_arm.items()}
    points = config.trace_points
    curves = {arm: _mean_curve(v, points) if v else np.full(points, np.nan)
              for arm, v in traces.items()}
    rows = [{"arm": arm, "point": k, "axis": k / (points - 1), "mean_value": float(curve[k]),
             "n_traces": len(traces[arm])} for arm, curve in curves.items() for k in range(points)]

    gates = {}
    aggregates = {"activations": {arm: len(v) for arm, v in traces.items()}, "solver": None}
    if "dfr" in traces:
        n_act = len(traces["dfr"])
        gates["enough_activations"] = _gate(n_act >= config.min_activations,
                                            activations=n_act, needed=config.min_activations)
        if n_act:
            max_decrease = _max_decrease(curves["dfr"])
            reach = _fraction_reaching(traces["dfr"])
            aggregates["dfr_max_decrease"] = max_decrease
            aggregates["dfr_fraction_reaching_0.9"] = reach
            aggregates["dfr_max_start_value"] = float(max(v[0] for v in traces["dfr"]))
            gates["nearly_monotone"] = _gate(max_decrease <= 0.02, max_decrease=max_decrease)
            gates["reaches_threshold"] = _gate(reach >= 0.8, fraction=reach)
    if traces.get("dfr") and traces.get("oracle"):
        margin = float(np.min(curves["oracle"] - curves["dfr"]))
        aggregates["oracle_minus_dfr_min"] = margin
        gates["oracle_dominates"] = _gate(margin >= -0.02, min_pointwise_margin=margin)
    aggregates["activation_split"] = {arm: activation_split(recs, points)
                                      for arm, recs in by_arm.items()}

    return {
        "experiment": "ascent",
        "columns": ["arm", "point", "axis", "mean_value", "n_traces"],
        "rows": rows,
        "gates": gates,
        "aggregates": aggregates,
        "summary": summarize(records),
        "curves": curves,
        "traces": traces,
    }


def run_ascent_traces(config, jobs=1):
    """Averaged normalized recovery curves for the dfr and oracle arms."""
    return _run(_ascent_plan, judge_ascent, config, jobs)


# ---------------------------------------------------------------------------
# experiment: disturbance robustness


def _disturbance_plan(config):
    """One cell, demo_grid[-1] demos of demo_seeds[0], with the stream on
    unless the config turns it off."""
    disturbance = True if config.disturbance is None else config.disturbance
    return [((0, 0), config.demo_seeds[0], config.demo_grid[-1])], config.controllers, disturbance


def judge_disturbance(config, records):
    """Rows per controller and the baseline-vs-dfr gates."""
    plan = _disturbance_plan(config)
    rows = [
        _outcome_row({"controller": kind, "demo_count": n, "demo_seed": demo_seed},
                     [r.outcome for r in recs])
        for (_, demo_seed, n), kind, recs in _judged_runs(config, plan, records)
    ]
    counts = {row["controller"]: row for row in rows}

    gates = {}
    if "baseline" in counts and "dfr" in counts:
        n_arm = config.eval_samples
        upper_d = wilson_upper(counts["dfr"][COLLIDED], n_arm)
        lower_b = wilson_lower(counts["baseline"][COLLIDED], n_arm)
        gates["collision_third"] = _gate(upper_d <= 0.33 * lower_b,
                                         dfr_upper=upper_d, threshold=0.33 * lower_b)
        passed, detail = proportion_margin_test(
            counts["dfr"][COMPLETED], n_arm, counts["baseline"][COMPLETED], n_arm, 0.1
        )
        gates["completion_margin"] = _gate(passed, **detail)
    return {
        "experiment": "disturbance",
        "columns": ["controller", "demo_count", "demo_seed"] + OUTCOME_COLUMNS,
        "rows": rows,
        "gates": gates,
        "aggregates": {"disturbance_enabled": bool(plan[2]), "solver": None},
        "summary": summarize(records),
    }


def run_disturbance_eval(config, jobs=1):
    """Baseline vs recovery outcome fractions under the test-time disturbance.

    Demonstrations are always generated disturbance-free; the stream is
    enabled (by default) for evaluation only.  Rollout seeds are shared
    across arms, so both controllers face identical start states and
    identical disturbance streams.
    """
    return _run(_disturbance_plan, judge_disturbance, config, jobs)


# ---------------------------------------------------------------------------
# experiment: certified-mode audit


def run_certified(config):
    """Recovery in certified mode; audits the minimum visited decision value.

    config must be in certified mode.  Fits at demo_grid[-1] with
    demo_seeds[0], then rolls the recovery controller with the per-slice
    certified threshold until eval_samples episodes that start inside the
    estimated support have run (start-gated resets are skipped: the no-exit
    statement presumes the episode begins inside), in at most 20 times as
    many attempts.  The gate asks for g >= -1e-9 over every visited state,
    probe states included.  The halt-reason counts cover every attempt, the
    skipped ones included.
    """
    if config.lambda_mode != "certified":
        raise InvalidInputError(
            f"the certified audit needs lambda_mode 'certified', got {config.lambda_mode!r}"
        )
    spec = load_env_spec(config.env)
    n = config.demo_grid[-1]
    demos = generate_demos(spec, n, seed=config.demo_seeds[0], jitter_sigma=config.demo_jitter)
    support, policy = _fit_cell(config, demos, {})
    scfg = config.switch_config()
    outcomes = []
    reasons = []
    skipped = 0
    attempts = 0
    min_g = math.inf
    limit = 20 * config.eval_samples
    while len(outcomes) < config.eval_samples:
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
        reasons.append(rec.halt_reason)
        if rec.halt_reason == "start-gate":
            skipped += 1
            continue
        outcomes.append(rec.outcome)
        if rec.g_min is not None and rec.g_min < min_g:
            min_g = rec.g_min
    lam0 = effective_lambda(scfg, support, 0, spec)
    gates = {"no_support_exit": _gate(min_g >= -1e-9, min_g=min_g, tolerance=-1e-9)}
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
            "halt_reasons": halt_reason_counts(reasons),
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


def platform_fingerprint():
    """What a run's bits depend on besides its config and the manifest's
    numpy_version, with no clock in it: the BLAS numpy was built with, the
    SIMD extensions it found on this CPU, the C library (whose libm pow the
    supervisor calls), and the OpenBLAS variables as set (None when unset)."""
    try:
        numpy_config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 has no mode argument
        numpy_config = {}
    return {
        "blas": numpy_config.get("Build Dependencies", {}).get("blas"),
        "simd": numpy_config.get("SIMD Extensions"),
        "libc": list(platform.libc_ver()),
        "environment": {name: os.environ.get(name)
                        for name in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")},
    }


def write_experiment_outputs(out_dir, config, result):
    """Write manifest.json, records.jsonl, metrics.csv (+ traces.csv), summary.json.

    records.jsonl is written a line at a time, each record's line as it is.

    Every file is byte-stable across re-runs on one platform (the
    manifest's "platform" block names it) except the manifest's "created"
    field and summary.json's two "timing" blocks: the stage wall times at
    the top, with records_write_s, the time to write records.jsonl, and
    the per-controller episode times in "summary".
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
        "platform": platform_fingerprint(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"), dump_json(manifest))
    t0 = time.perf_counter()
    atomic_write_chunks(
        os.path.join(out_dir, "records.jsonl"),
        (chunk for rec in result.get("records", []) for chunk in (rec.line, "\n")),
    )
    records_write_s = time.perf_counter() - t0
    name = "traces.csv" if result["experiment"] == "ascent" else "metrics.csv"
    write_csv(os.path.join(out_dir, name), result["columns"], result["rows"])
    summary_doc = {key: result[key] for key in ("experiment", "gates", "aggregates", "summary")
                   if result.get(key) is not None}
    summary_doc["timing"] = {**(result.get("timing") or {}), "records_write_s": records_write_s}
    atomic_write_text(os.path.join(out_dir, "summary.json"), dump_json(summary_doc))
    return manifest


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
    failed = sorted(name for name, gate in result["gates"].items() if gate["passed"] is False)
    if enforce_gates and failed:
        raise GateFailureError(f"experiment gates failed: {', '.join(failed)}")
    return result
