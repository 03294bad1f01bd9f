"""Spans around the calls into dfrlab's modules, recorded from outside.

A Tracer replaces each target function, in the namespace its caller looks it
up in, with a wrapper that times the call.  Spans are aggregated in memory
by (parent span, span name): a traced repetition of the ascent workload makes
over a million calls, so keeping one object per call would cost more memory
than the program under test.  A span's self time is its duration minus the
durations of the spans it directly contains.  Leaving the Tracer's with
block puts every original object back, whatever the traced code raised.
"""

import functools
import pickle
import time

# Setup spans: demo generation, support fitting and policy fitting.  The
# untraced run clocks only these (a few dozen calls per experiment), which
# is how it measures setup_s without per-step tracing.
SETUP_TARGETS = (
    ("harness", "generate_demos", "supervisor.generate_demos"),
    ("harness", "fit_time_varying", "support.fit"),
    ("harness", "fit_pooled", "support.fit"),
    ("harness", "fit_policy", "controllers.fit_policy"),
)
SETUP_SPANS = tuple(sorted({t[2] for t in SETUP_TARGETS}))

# (module or "module.Class", attribute, span name).  Each function is wrapped
# in every namespace that calls it, so a call counts once whoever makes it.
TRACE_TARGETS = SETUP_TARGETS + (
    ("harness", "rollout", "harness.rollout"),
    ("harness", "reset", "envs.reset"),
    ("harness", "check_constraint", "envs.check_constraint"),
    ("harness", "reached_goal", "envs.reached_goal"),
    ("harness", "classify_outcome", "harness.classify_outcome"),
    ("harness", "activation_traces", "harness.activation_traces"),
    ("harness", "summarize", "harness.summarize"),
    ("harness", "write_experiment_outputs", "harness.write_experiment_outputs"),
    ("envs", "step", "envs.step"),
    ("envs", "check_constraint", "envs.check_constraint"),
    ("envs", "reached_goal", "envs.reached_goal"),
    ("supervisor", "step", "envs.step"),
    ("supervisor", "reset", "envs.reset"),
    ("supervisor", "supervisor_action", "supervisor.supervisor_action"),
    ("support", "TimeVaryingSupport.g_at", "support.g_at"),
    ("support", "decision_value", "kernel_ocsvm.decision_value"),
    ("support", "train_ocsvm", "kernel_ocsvm.train_ocsvm"),
    ("controllers", "Policy.action", "controllers.Policy.action"),
    ("controllers", "supervisor_action", "supervisor.supervisor_action"),
    ("controllers", "dfr_recovery_iteration", "controllers.dfr_recovery_iteration"),
    ("controllers", "finite_difference_oracle_step",
     "controllers.finite_difference_oracle_step"),
    ("controllers", "BaselineController.step", "controllers.baseline.step"),
    ("controllers", "EarlyStopController.step", "controllers.es.step"),
    ("controllers", "DfrController.step", "controllers.dfr.step"),
    ("controllers", "OracleController.step", "controllers.oracle.step"),
    ("controllers", "SupervisorController.step", "controllers.supervisor.step"),
)


def resolve(modules, target):
    """The object that holds the attribute, and the attribute name."""
    where, attr = target[0], target[1]
    owner = modules[where]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Wraps target functions and aggregates their spans.

    stats maps (parent name or None, span name) to
    [calls, busy seconds, seconds in child spans, calls that raised].
    """

    def __init__(self, modules, targets):
        self.modules = modules
        self.targets = targets
        self.stats = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        for target in self.targets:
            owner, attr = resolve(self.modules, target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(target[2], original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = stats.get((parent, name))
                if row is None:
                    row = stats[(parent, name)] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += frame[1]
                row[3] += raised

        return traced

    def totals(self):
        """Per span name: calls, busy_s, self_s and failed, over all parents."""
        out = {}
        for (_, name), (calls, busy, child, raised) in self.stats.items():
            t = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
            t["calls"] += calls
            t["busy_s"] += busy
            t["self_s"] += busy - child
            t["failed"] += raised
        return out

    def spans(self):
        """The aggregated span table, for writing out when the run ends."""
        return [
            {"parent": parent, "name": name, "calls": calls, "busy_s": busy,
             "self_s": busy - child, "failed": raised}
            for (parent, name), (calls, busy, child, raised) in sorted(
                self.stats.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))
        ]


class PoolProbe:
    """Counts harness's process pools, the pickled bytes of their tasks, and
    how long they stay open, by swapping harness.ProcessPoolExecutor for a
    subclass while the probe is entered."""

    def __init__(self, harness):
        self.harness = harness
        self.created = 0
        self.task_bytes = 0
        self.pool_s = 0.0
        self._original = None

    def __enter__(self):
        base = self._original = vars(self.harness)["ProcessPoolExecutor"]
        probe = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                probe.created += 1
                self._opened = time.perf_counter()
                super().__init__(*args, **kwargs)

            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                probe.task_bytes += sum(len(pickle.dumps(t)) for t in tasks)
                return super().map(fn, tasks, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                probe.pool_s += time.perf_counter() - self._opened

        self.harness.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc):
        self.harness.ProcessPoolExecutor = self._original
