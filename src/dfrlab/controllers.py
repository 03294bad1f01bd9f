"""Behavior-cloned policy, switching rule, and recovery controllers.

The learned policy is ridge regression from RBF features of the state to the
demonstrated control, with a bias feature, output clipped to the largest
control norm seen in the demos.

The controllers share one interface, step(handle, support, policy, t, state,
rng, g), where state is the state vector and g is g_t(state), evaluated once
by the caller (None when no support is consulted; the controllers that
ignore the support ignore it too).  step returns the StepRecord of the
horizon step (records.py); the next state is its last applied record's
state, or state itself when a halt came before any motion.  Every applied
motion goes through _apply, which sets the step's end: collided or
completed, a colliding motion beating a goal-reaching one.
CONTROLLERS maps each kind to its class:

* baseline: always apply the learned policy.
* es (early stop): apply the policy until the switching rule first trips,
  then emit zero control for the rest of the episode.
* dfr and oracle: one recovery controller with two iteration kinds.  When
  the switching rule trips it climbs the support decision function, then
  resumes the policy once clear of the threshold.  dfr climbs by probe/step
  pairs that need no gradient access; oracle steps along finite-difference
  probes on simulated steps, as an upper reference for the ascent rate.
  Their loop holds the one support-exit check: before an iteration due at
  the cap or at g <= 0 (the cap first) it returns the step, halted at
  recovery-cap or outside-support, with every motion it already applied.
  An oracle iteration is a pure function of its start state, so once one
  ends on a state the step already started an iteration from, the loop
  copies that cycle up to the cap instead of recomputing it.
* supervisor: the scripted demonstrator.

The switching rule trips at state x and time t when

    g_t(x) <= lambda * ||u_hat(x)||

i.e. when the decision value can no longer absorb the worst-case drop a
policy step could cause.  In certified mode lambda is the per-slice product
L_t * K of the decision function's Lipschitz bound and the dynamics constant,
which makes each probe/step pair provably keep g_t >= 0; in manual mode
lambda is a tuned scalar.
"""

from dataclasses import dataclass, fields
from itertools import cycle, islice
import math
import warnings

import numpy as np

from . import envs
from .errors import InvalidInputError
from .records import (
    COLLIDED, COMPLETED, OUTSIDE_SUPPORT, RECOVERY_CAP, AppliedRecord, RecoveryStep, StepRecord,
)
from .supervisor import supervisor_action
from .util import atomic_write_text, dump_json, float_list, load_json, malformed, real

# Control offset of the oracle's central differences.
FD_DELTA = 1e-4


@dataclass(frozen=True)
class PolicyConfig:
    centers: int = 100
    bandwidth: float = 0.3
    ridge: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", real("bandwidth", self.bandwidth))
        object.__setattr__(self, "ridge", real("ridge", self.ridge))
        if self.centers < 1 or not self.bandwidth > 0.0 or self.ridge < 0.0:
            raise InvalidInputError(
                f"bad policy config: centers={self.centers}, "
                f"bandwidth={self.bandwidth}, ridge={self.ridge}"
            )


@dataclass
class Policy:
    """Ridge regression from RBF, linear, and bias features to controls.

    The linear terms carry the coarse state-to-control trend (so the policy
    extrapolates smoothly off the demonstrated manifold); the RBF terms
    encode local corrections around the demonstrations."""

    centers: np.ndarray
    bandwidth: float
    weights: np.ndarray  # (n_centers + state_dim + 1, control_dim); last row is the bias
    ridge: float
    clip_norm: float
    train_loss: float = None

    def __post_init__(self):
        self._center_sq = (self.centers * self.centers).sum(axis=1)
        # scaling by -2 is exact, so X @ _m2ct is -2.0 * (X @ centers.T) bit for bit
        self._m2ct = -2.0 * self.centers.T
        # action's feature row [RBF block, x, 1.0], refilled at each call
        k, d = self.centers.shape
        self._row = np.empty((1, k + d + 1))
        self._row[0, -1] = 1.0
        self._rbf = self._row[0, :k]
        self._linear = self._row[0, k:-1]

    def __getstate__(self):
        # a policy crosses the rollout pool as its fields; the worker
        # rebuilds the cached arrays, which would double its pickled size
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    def features(self, X):
        """Rows [RBF block, X, 1.0] for a state or a batch of states."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        k = len(self.centers)
        sq = (X * X).sum(axis=1)[:, None] + self._center_sq
        sq += X @ self._m2ct
        np.maximum(sq, 0.0, out=sq)
        # -sq / d is sq / -d bit for bit; exp stays on the contiguous sq,
        # as numpy's strided loop may round differently
        np.divide(sq, -2.0 * self.bandwidth**2, out=sq)
        np.exp(sq, out=sq)
        F = np.empty((len(X), k + X.shape[1] + 1))
        F[:, :k] = sq
        F[:, k:-1] = X
        F[:, -1] = 1.0
        return F

    def actions(self, X):
        return self._clipped(self.features(X) @ self.weights)

    def _clipped(self, U):
        """U with each row longer than clip_norm scaled down to it, in place."""
        norms = np.linalg.norm(U, axis=1)
        over = norms > self.clip_norm
        if over.any():
            U[over] *= (self.clip_norm / norms[over])[:, None]
        return U

    def action(self, x):
        """actions(x[None])[0] for one state x, bit for bit.  It fills the
        policy's own feature row in place, exp straight into its contiguous
        RBF block, and keeps features' two BLAS products on the same shapes,
        which set the bits (a batch of many rows rounds differently).  numpy
        sums a row of fewer than eight squares left to right, as the Python
        sums here do."""
        x = np.asarray(x, dtype=float)
        x_sq = 0.0
        for v in x.tolist():
            x_sq += v * v
        rbf = self._rbf
        np.add(self._center_sq, x_sq, out=rbf)
        rbf += (x[None] @ self._m2ct)[0]
        np.maximum(rbf, 0.0, out=rbf)
        np.divide(rbf, -2.0 * self.bandwidth**2, out=rbf)
        np.exp(rbf, out=rbf)
        self._linear[...] = x
        u = (self._row @ self.weights)[0]
        norm_sq = 0.0
        for v in u.tolist():
            norm_sq += v * v
        norm = math.sqrt(norm_sq)
        if norm > self.clip_norm:
            u *= self.clip_norm / norm
        return u


def _farthest_point_indices(X, k):
    """Greedy farthest-point subset: start at the first point, then repeat-
    edly add the point farthest from the chosen set.  Deterministic, and it
    covers the state cloud evenly at any k (an evenly strided subsample can
    alias badly with trajectory phase)."""
    if k >= len(X):
        return np.arange(len(X))
    # Distances run over a contiguous (d, N) copy: subtract, square, add the
    # d rows in order, sqrt.  For d < 8 that is the order numpy's pairwise
    # sum takes inside np.linalg.norm(X - X[j], axis=1), bit for bit.
    cols = np.ascontiguousarray(X.T, dtype=float)
    diff = np.empty_like(cols)

    def dist_from(j):
        np.subtract(cols, cols[:, j:j + 1], out=diff)
        np.multiply(diff, diff, out=diff)
        acc = diff[0].copy()
        for row in diff[1:]:
            acc += row
        return np.sqrt(acc, out=acc)

    chosen = np.empty(k, dtype=int)
    chosen[0] = 0
    dist = dist_from(0)
    for i in range(1, k):
        j = int(np.argmax(dist))
        chosen[i] = j
        np.minimum(dist, dist_from(j), out=dist)
    return np.sort(chosen)


def fit_policy(demos, config):
    """Fit the policy on all (state, control) pairs of the demo set."""
    X = np.concatenate([t.states[:-1] for t in demos.trajectories])
    U = np.concatenate([t.controls for t in demos.trajectories])
    if len(X) == 0:
        raise InvalidInputError("demo set contains no (state, control) pairs")
    idx = _farthest_point_indices(X, config.centers)
    clip_norm = float(np.linalg.norm(U, axis=1).max())
    policy = Policy(
        centers=X[idx].copy(),
        bandwidth=config.bandwidth,
        weights=np.zeros((len(idx) + X.shape[1] + 1, U.shape[1])),
        ridge=config.ridge,
        clip_norm=clip_norm,
    )
    phi = policy.features(X)
    ridge = config.ridge
    gram = phi.T @ phi
    rhs = phi.T @ U
    eye = np.eye(gram.shape[0])
    for attempt in range(6):
        try:
            weights = np.linalg.solve(gram + ridge * eye, rhs)
            break
        except np.linalg.LinAlgError:
            ridge = max(ridge, 1e-12) * 10.0
            warnings.warn(
                f"normal equations singular; raising ridge to {ridge:g}",
                stacklevel=2,
            )
    else:
        raise InvalidInputError("policy fit failed even with inflated ridge")
    policy.weights = weights
    policy.ridge = ridge
    # empirical_loss from the features already at hand, one trajectory's
    # rows at a time, as empirical_loss takes them: one product over every
    # row runs on OpenBLAS's threads, whose buffers then stay resident (about
    # 7 MB more after the 120-demo fit) and pass to forked rollout workers.
    # The rows of phi may differ from features of one trajectory in the last
    # bits.
    ends = np.cumsum([len(t.controls) for t in demos.trajectories])[:-1]
    policy.train_loss = _mean_error(policy, demos, np.split(phi, ends))
    return policy


def empirical_loss(policy, demos):
    """Mean over trajectories of the summed per-step l2 control error."""
    return _mean_error(policy, demos,
                       (policy.features(t.states[:-1]) for t in demos.trajectories))


def _mean_error(policy, demos, features):
    """empirical_loss, given each trajectory's feature rows in demo order."""
    total = 0.0
    for traj, F in zip(demos.trajectories, features):
        if len(traj.controls) == 0:
            continue
        pred = policy._clipped(F @ policy.weights)
        total += float(np.linalg.norm(pred - traj.controls, axis=1).sum())
    return total / len(demos.trajectories)


POLICY_FORMAT = "rbf-policy"


def save_policy(policy, path):
    doc = {
        "format": POLICY_FORMAT,
        "version": 1,
        "bandwidth": float(policy.bandwidth),
        "ridge": float(policy.ridge),
        "clip_norm": float(policy.clip_norm),
        "train_loss": None if policy.train_loss is None else float(policy.train_loss),
        "centers": float_list(policy.centers),
        "weights": float_list(policy.weights),
    }
    atomic_write_text(path, dump_json(doc))


def load_policy(path):
    doc = load_json(path, "policy file")
    with malformed(f"malformed policy file {path}"):
        if doc["format"] != POLICY_FORMAT:
            raise InvalidInputError(f"not a policy file: format={doc['format']!r}")
        return Policy(
            centers=np.asarray(doc["centers"], dtype=float),
            bandwidth=float(doc["bandwidth"]),
            weights=np.asarray(doc["weights"], dtype=float),
            ridge=float(doc["ridge"]),
            clip_norm=float(doc["clip_norm"]),
            train_loss=doc.get("train_loss"),
        )


@dataclass(frozen=True)
class SwitchConfig:
    """Switching threshold and recovery step sizing.

    lam: manual threshold scale; None exactly when lambda_mode == "certified",
         where lambda is derived per slice.
    eta: recovery step magnitude; None means the adaptive default
         0.5 * (1 - epsilon) * g / lambda, recomputed each iteration.
    epsilon: fraction of the safe budget g/lambda spent on the probe step.
    """

    lam: float = 1.0
    eta: float = None
    epsilon: float = 0.1
    max_recovery_iters: int = 500
    lambda_mode: str = "manual"

    def __post_init__(self):
        if self.lam is not None:
            object.__setattr__(self, "lam", real("lam", self.lam))
        if self.eta is not None:
            object.__setattr__(self, "eta", real("eta", self.eta))
        object.__setattr__(self, "epsilon", real("epsilon", self.epsilon))
        if self.lambda_mode not in ("manual", "certified"):
            raise InvalidInputError(f"unknown lambda_mode {self.lambda_mode!r}")
        certified = self.lambda_mode == "certified"
        if (self.lam is None) != certified or not (certified or self.lam > 0.0):
            raise InvalidInputError("lam must be > 0 in manual mode and None in certified mode")
        if self.eta is not None and not self.eta > 0.0:
            raise InvalidInputError("eta must be positive (or None for adaptive)")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError("epsilon must lie strictly between 0 and 1")
        if self.max_recovery_iters < 1:
            raise InvalidInputError("max_recovery_iters must be >= 1")


def effective_lambda(cfg, support, t, spec):
    """The threshold scale for time t: manual lam, or per-slice L_t * K."""
    if cfg.lambda_mode == "manual":
        return cfg.lam
    return support.lipschitz_at(t) * envs.dynamics_constant(spec)


def switch_threshold(u_hat, lam):
    """lambda * ||u_hat||; the switching rule trips at g <= it, never at g > 0 and u_hat = 0."""
    return lam * envs._dist(*u_hat.tolist())


def _apply(out, spec, motion):
    """Append motion to the StepRecord out, set out.end if the motion collided
    or reached the goal (a colliding motion wins in either order), return out.
    The predicates are looked up on envs at each call, so a wrapper installed
    there (perfbench's tracer) sees them."""
    out.applied.append(motion)
    collided = not envs.check_constraint(spec, motion.state)
    reached = envs.reached_goal(spec, motion.state)
    if collided or (reached and out.end is None):
        out.end = COLLIDED if collided else COMPLETED
    return out


def _recovery_magnitudes(cfg, g_before, lam):
    radius = cfg.epsilon * g_before / lam
    eta_cap = (1.0 - cfg.epsilon) * g_before / lam
    eta_mag = 0.5 * eta_cap if cfg.eta is None else min(cfg.eta, eta_cap)
    return radius, eta_mag


def dfr_recovery_iteration(handle, support, t, state, cfg, rng, lam, g_before, threshold):
    """One derivative-free ascent iteration at frozen time index t.

    Probe a random direction with magnitude epsilon * g / lambda; if the
    decision value did not improve, flip the direction; then take the
    recovery step of magnitude min(eta, (1 - epsilon) * g / lambda).  The
    two commanded magnitudes sum to at most g / lambda, which in certified
    mode bounds the worst-case decision drop by g itself.  lam is the
    threshold scale at t; g_before > 0 (recover checks it) is g at state,
    and threshold, which the RecoveryStep records, is lambda * ||u_hat|| there.

    Both motions are applied for real through micro_step: they commit state,
    but being recovery-rate actions they happen between horizon ticks, so an
    attached disturbance stream does not advance.  Returns the RecoveryStep
    and the two AppliedRecords; the second one's state is where the
    iteration ends.
    """
    direction = rng.normal(size=2)
    norm = envs._dist(*direction.tolist())
    while norm < 1e-12:
        direction = rng.normal(size=2)
        norm = envs._dist(*direction.tolist())
    direction = direction / norm
    radius, eta_mag = _recovery_magnitudes(cfg, g_before, lam)

    u_delta = radius * direction
    x_probe = handle.micro_step(state, u_delta)
    g_probe = support.g_at(t, x_probe)
    flipped = g_probe <= g_before
    if flipped:
        direction = -direction
    u_rec = eta_mag * direction
    x_rec = handle.micro_step(x_probe, u_rec)
    g_after = support.g_at(t, x_rec)
    rec = RecoveryStep(
        g_probe=float(g_probe),
        g_after=float(g_after),
        flipped=bool(flipped),
        threshold=float(threshold),
    )
    return rec, [AppliedRecord(u_delta, "probe", x_probe), AppliedRecord(u_rec, "recovery", x_rec)]


def finite_difference_oracle_step(handle, support, t, state, cfg, lam, g_before):
    """Recovery control from central differences over simulated probe steps.

    Estimates d g / d u per control axis from simulated micro_steps of
    +-FD_DELTA (their states are discarded, so the episode does not
    advance), then steps eta along the normalized gradient.  A zero gradient
    yields a zero control.  lam is the threshold scale at t and g_before > 0
    the decision value at state (RecoveryController.recover checks it).
    """
    grad = np.zeros(2)
    for axis in range(2):
        probe = np.zeros(2)
        probe[axis] = FD_DELTA
        g_plus = support.g_at(t, handle.micro_step(state, probe))
        g_minus = support.g_at(t, handle.micro_step(state, -probe))
        grad[axis] = (g_plus - g_minus) / (2.0 * FD_DELTA)
    norm = envs._dist(*grad.tolist())
    if norm < 1e-12:
        return np.zeros(2)
    _, eta_mag = _recovery_magnitudes(cfg, g_before, lam)
    return eta_mag * grad / norm


def _oracle_recovery_iteration(handle, support, t, state, cfg, rng, lam, g_before, threshold):
    """One oracle iteration, shaped like dfr_recovery_iteration: the finite-
    difference control applied once through micro_step.  rng is unused."""
    u_rec = finite_difference_oracle_step(handle, support, t, state, cfg, lam, g_before)
    x_rec = handle.micro_step(state, u_rec)
    rec = RecoveryStep(
        g_probe=float(g_before),
        g_after=float(support.g_at(t, x_rec)),
        flipped=False,
        threshold=float(threshold),
    )
    return rec, [AppliedRecord(u_rec, "recovery", x_rec)]


def _replay_cycle(out, start, cap):
    """Halt out at recovery-cap after repeating its oracle iterations from
    index start on up to cap iterations in all: what the loop does once an
    iteration ends on the state iteration start began from, since every
    state of that cycle already passed g > 0 and g <= threshold without an
    end.  An oracle iteration applies one motion, so out.applied and
    out.recovery share indices.  The repeats share the cycle's objects."""
    n = cap - len(out.recovery)
    out.recovery.extend(islice(cycle(out.recovery[start:]), n))
    out.applied.extend(islice(cycle(out.applied[start:]), n))
    out.halt = RECOVERY_CAP
    return out


class Controller:
    """Base of the five controllers.  uses_support and uses_policy say
    whether a controller consults the support estimator and the learned
    policy; rollouts check their inputs and gate starts by them."""

    uses_support = True
    uses_policy = True
    draws_probes = False  # whether it gets the episode's probe rng, or None

    def __init__(self, cfg=None):
        self.cfg = cfg or SwitchConfig()


class BaselineController(Controller):
    """Always the learned policy."""

    kind = "baseline"
    uses_support = False

    def step(self, handle, support, policy, t, state, rng, g):
        u = policy.action(state)
        return _apply(StepRecord(t, g, []), handle.spec,
                      AppliedRecord(u, "policy", handle.step(state, u)))


class EarlyStopController(Controller):
    """The learned policy until the switching rule first trips, then zeros."""

    kind = "es"

    def __init__(self, cfg=None):
        super().__init__(cfg)
        self.triggered = False

    def step(self, handle, support, policy, t, state, rng, g):
        if not self.triggered:
            u_hat = policy.action(state)
            lam = effective_lambda(self.cfg, support, t, handle.spec)
            if g <= switch_threshold(u_hat, lam):
                self.triggered = True
        if self.triggered:
            u, tag = np.zeros(2), "zero"
        else:
            u, tag = u_hat, "policy"
        return _apply(StepRecord(t, g, []), handle.spec,
                      AppliedRecord(u, tag, handle.step(state, u)))


class RecoveryController(Controller):
    """Recovery iterations while the switching rule trips, then one policy
    step; a halt or a colliding or goal-reaching motion ends the step
    without it.  Subclasses differ only in the iteration they pass to recover."""

    def recover(self, iteration, handle, support, policy, t, state, rng, g):
        cfg = self.cfg
        lam = effective_lambda(cfg, support, t, handle.spec)
        out = StepRecord(t, g, [])
        u_hat = policy.action(state)
        threshold = switch_threshold(u_hat, lam)
        # The oracle's iteration is a pure function of its start state (t is
        # frozen, it draws no rng, micro_step holds the stream still), so
        # seen maps each start state's bytes to the index of its iteration.
        seen = {state.tobytes(): 0} if iteration is _oracle_recovery_iteration else None
        while g <= threshold:
            if len(out.recovery) >= cfg.max_recovery_iters:
                out.halt = RECOVERY_CAP
                return out
            if g <= 0.0:
                out.halt = OUTSIDE_SUPPORT
                return out
            rec, motions = iteration(handle, support, t, state, cfg, rng, lam, g, threshold)
            out.recovery.append(rec)
            for motion in motions:
                _apply(out, handle.spec, motion)
            if out.end is not None:
                return out
            state = motions[-1].state
            if seen is not None:
                key = state.tobytes()
                if key in seen:
                    return _replay_cycle(out, seen[key], cfg.max_recovery_iters)
                seen[key] = len(out.recovery)
            g = rec.g_after
            u_hat = policy.action(state)
            threshold = switch_threshold(u_hat, lam)
        return _apply(out, handle.spec, AppliedRecord(u_hat, "policy", handle.step(state, u_hat)))


class DfrController(RecoveryController):
    """Derivative-free recovery: probe/flip ascent iterations."""

    kind = "dfr"
    draws_probes = True

    def step(self, handle, support, policy, t, state, rng, g):
        return self.recover(dfr_recovery_iteration, handle, support, policy, t, state, rng, g)


class OracleController(RecoveryController):
    """Recovery with finite-difference ascent directions from simulated probes."""

    kind = "oracle"

    def step(self, handle, support, policy, t, state, rng, g):
        return self.recover(_oracle_recovery_iteration, handle, support, policy, t, state, rng, g)


class SupervisorController(Controller):
    """The scripted demonstrator, for sanity rows in experiments."""

    kind = "supervisor"
    uses_support = False
    uses_policy = False

    def step(self, handle, support, policy, t, state, rng, g):
        u = supervisor_action(handle.spec, state)
        return _apply(StepRecord(t, g, []), handle.spec,
                      AppliedRecord(u, "policy", handle.step(state, u)))


CONTROLLERS = {
    c.kind: c
    for c in (BaselineController, EarlyStopController, DfrController, OracleController,
              SupervisorController)
}
CONTROLLER_KINDS = tuple(CONTROLLERS)


def make_controller(kind, cfg=None):
    if kind not in CONTROLLERS:
        raise InvalidInputError(
            f"unknown controller {kind!r}; expected one of {sorted(CONTROLLERS)}"
        )
    return CONTROLLERS[kind](cfg)
