"""Behavior-cloned policy, switching rule, and recovery controllers.

The learned policy is ridge regression from RBF features of the state to the
demonstrated control, with a bias feature, output clipped to the largest
control norm seen in the demos.

The controllers share one interface, step(handle, support, policy, t, state,
rng, g=None), where g is g_t(state) when the caller already holds it (the
controllers that need it evaluate it otherwise; the others ignore it).
CONTROLLERS maps each kind to its class:

* baseline: always apply the learned policy.
* es (early stop): apply the policy until the switching rule first trips,
  then emit zero control for the rest of the episode.
* dfr and oracle: one recovery controller with two iteration kinds.  When
  the switching rule trips it climbs the support decision function, then
  resumes the policy once clear of the threshold.  dfr climbs by probe/step
  pairs that need no gradient access; oracle steps along finite-difference
  probes on simulated steps, as an upper reference for the ascent rate.
* supervisor: the scripted demonstrator.

The switching rule trips at state x and time t when

    g_t(x) <= lambda * ||u_hat(x)||

i.e. when the decision value can no longer absorb the worst-case drop a
policy step could cause.  In certified mode lambda is the per-slice product
L_t * K of the decision function's Lipschitz bound and the dynamics constant,
which makes each probe/step pair provably keep g_t >= 0; in manual mode
lambda is a tuned scalar.
"""

from dataclasses import dataclass, field
import math
import warnings

import numpy as np

from .envs import dynamics_constant
from .errors import InvalidInputError, OutsideSupportError
from .supervisor import supervisor_action
from .util import atomic_write_text, dump_json, float_list, load_json, malformed, vector_norm

# Control offset of the oracle's central differences.
FD_DELTA = 1e-4


@dataclass(frozen=True)
class PolicyConfig:
    centers: int = 100
    bandwidth: float = 0.3
    ridge: float = 1e-6

    def __post_init__(self):
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
        self._center_sq = (self.centers * self.centers).sum(axis=1)[None, :]

    def features(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        sq = (X * X).sum(axis=1)[:, None] + self._center_sq - 2.0 * (X @ self.centers.T)
        np.maximum(sq, 0.0, out=sq)
        phi = np.exp(-sq / (2.0 * self.bandwidth**2))
        return np.concatenate([phi, X, np.ones((X.shape[0], 1))], axis=1)

    def actions(self, X):
        U = self.features(X) @ self.weights
        norms = np.linalg.norm(U, axis=1)
        over = norms > self.clip_norm
        if over.any():
            U[over] *= (self.clip_norm / norms[over])[:, None]
        return U

    def action(self, x):
        """actions(x[None])[0] for one state x, bit for bit, without the batch
        clip's set-up.  numpy sums a row of fewer than eight squares left to
        right, as this does."""
        u = (self.features(x) @ self.weights)[0]
        norm = math.sqrt(sum(v * v for v in u.tolist()))
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
    chosen = np.empty(k, dtype=int)
    chosen[0] = 0
    dist = np.linalg.norm(X - X[0], axis=1)
    for i in range(1, k):
        j = int(np.argmax(dist))
        chosen[i] = j
        np.minimum(dist, np.linalg.norm(X - X[j], axis=1), out=dist)
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
    policy.train_loss = empirical_loss(policy, demos)
    return policy


def empirical_loss(policy, demos):
    """Mean over trajectories of the summed per-step l2 control error."""
    total = 0.0
    for traj in demos.trajectories:
        if len(traj.controls) == 0:
            continue
        pred = policy.actions(traj.states[:-1])
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

    lam: manual threshold scale (used when lambda_mode == "manual").
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
        if self.lambda_mode != "certified" and not (self.lam is not None and self.lam > 0.0):
            raise InvalidInputError("lam must be positive")
        if self.lam is not None and not self.lam > 0.0:
            raise InvalidInputError("lam must be positive when given")
        if self.eta is not None and not self.eta > 0.0:
            raise InvalidInputError("eta must be positive (or None for adaptive)")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError("epsilon must lie strictly between 0 and 1")
        if self.max_recovery_iters < 1:
            raise InvalidInputError("max_recovery_iters must be >= 1")
        if self.lambda_mode not in ("manual", "certified"):
            raise InvalidInputError(f"unknown lambda_mode {self.lambda_mode!r}")


def effective_lambda(cfg, support, t, spec):
    """The threshold scale for time t: manual lam, or per-slice L_t * K."""
    if cfg.lambda_mode == "manual":
        return cfg.lam
    return support.lipschitz_at(t) * dynamics_constant(spec)


def should_recover(g_value, u_hat, cfg, lam=None):
    """True iff g <= lambda * ||u_hat|| (zero control at positive g is safe)."""
    if lam is None:
        lam = cfg.lam
    return bool(g_value <= lam * vector_norm(np.asarray(u_hat, dtype=float)))


@dataclass(frozen=True)
class RecoveryStep:
    """One recovery iteration with its audit values (oracle: no probe)."""

    u_delta: np.ndarray
    u_recovery: np.ndarray
    g_before: float
    g_probe: float
    g_after: float
    flipped: bool


@dataclass
class AppliedRecord:
    """One applied control and the state it produced."""

    u: np.ndarray
    tag: str  # policy | probe | recovery | zero
    state: np.ndarray
    collided: bool
    reached: bool


def _applied(u, res, tag):
    return AppliedRecord(u, tag, res.next_state.vec, res.collided, res.reached_goal)


def _recovery_magnitudes(cfg, g_before, lam):
    radius = cfg.epsilon * g_before / lam
    eta_cap = (1.0 - cfg.epsilon) * g_before / lam
    eta_mag = 0.5 * eta_cap if cfg.eta is None else min(cfg.eta, eta_cap)
    return radius, eta_mag


def dfr_recovery_iteration(handle, support, t, state, cfg, rng, lam=None, g_before=None):
    """One derivative-free ascent iteration at frozen time index t.

    Probe a random direction with magnitude epsilon * g / lambda; if the
    decision value did not improve, flip the direction; then take the
    recovery step of magnitude min(eta, (1 - epsilon) * g / lambda).  The
    two commanded magnitudes sum to at most g / lambda, which in certified
    mode bounds the worst-case decision drop by g itself.  g_before is the
    decision value at state, evaluated here when the caller does not pass it.

    Both motions are applied for real through micro_step: they commit state,
    but being recovery-rate actions they happen between horizon ticks, so an
    attached disturbance stream does not advance.
    """
    if lam is None:
        lam = cfg.lam
    if g_before is None:
        g_before = support.g_at(t, state.vec)
    if g_before <= 0.0:
        raise OutsideSupportError(
            f"recovery requested outside the estimated support (g={g_before:.3g} at t={t})",
            t=t,
            g_value=g_before,
        )
    direction = rng.normal(size=2)
    norm = vector_norm(direction)
    while norm < 1e-12:
        direction = rng.normal(size=2)
        norm = vector_norm(direction)
    direction = direction / norm
    radius, eta_mag = _recovery_magnitudes(cfg, g_before, lam)

    u_delta = radius * direction
    res_probe = handle.micro_step(state, u_delta)
    g_probe = support.g_at(t, res_probe.next_state.vec)
    flipped = g_probe <= g_before
    if flipped:
        direction = -direction
    u_rec = eta_mag * direction
    res_rec = handle.micro_step(res_probe.next_state, u_rec)
    g_after = support.g_at(t, res_rec.next_state.vec)
    rec = RecoveryStep(
        u_delta=u_delta,
        u_recovery=u_rec,
        g_before=float(g_before),
        g_probe=float(g_probe),
        g_after=float(g_after),
        flipped=bool(flipped),
    )
    applied = [_applied(u_delta, res_probe, "probe"), _applied(u_rec, res_rec, "recovery")]
    return rec, res_rec.next_state, applied


def finite_difference_oracle_step(handle, support, t, state, cfg, lam=None, g_before=None):
    """Recovery control from central differences over simulated probe steps.

    Estimates d g / d u per control axis from simulated micro_steps of
    +-FD_DELTA (their results are discarded, so the episode does not
    advance), then steps eta along the normalized gradient.  A zero gradient
    yields a zero control.  g_before is the decision value at state,
    evaluated here when the caller does not pass it.
    """
    if lam is None:
        lam = cfg.lam
    g0 = support.g_at(t, state.vec) if g_before is None else g_before
    if g0 <= 0.0:
        raise OutsideSupportError(
            f"recovery requested outside the estimated support (g={g0:.3g} at t={t})",
            t=t,
            g_value=g0,
        )
    grad = np.zeros(2)
    for axis in range(2):
        probe = np.zeros(2)
        probe[axis] = FD_DELTA
        g_plus = support.g_at(t, handle.micro_step(state, probe).next_state.vec)
        g_minus = support.g_at(t, handle.micro_step(state, -probe).next_state.vec)
        grad[axis] = (g_plus - g_minus) / (2.0 * FD_DELTA)
    norm = vector_norm(grad)
    if norm < 1e-12:
        return np.zeros(2)
    _, eta_mag = _recovery_magnitudes(cfg, g0, lam)
    return eta_mag * grad / norm


def _oracle_recovery_iteration(handle, support, t, state, cfg, rng, lam, g_before):
    """One oracle iteration, shaped like dfr_recovery_iteration: the finite-
    difference control applied once through micro_step.  rng is unused."""
    u_rec = finite_difference_oracle_step(handle, support, t, state, cfg, lam=lam,
                                          g_before=g_before)
    res = handle.micro_step(state, u_rec)
    rec = RecoveryStep(
        u_delta=np.zeros(2),
        u_recovery=u_rec,
        g_before=float(g_before),
        g_probe=float(g_before),
        g_after=float(support.g_at(t, res.next_state.vec)),
        flipped=False,
    )
    return rec, res.next_state, [_applied(u_rec, res, "recovery")]


@dataclass
class CtrlStep:
    applied: list  # AppliedRecord per applied control, in order
    state: object  # EnvState
    halted: bool = False
    recovery_steps: list = field(default_factory=list)  # RecoveryStep per iteration


class Controller:
    """Base of the five controllers.  uses_support and uses_policy say
    whether a controller consults the support estimator and the learned
    policy; rollouts check their inputs and gate starts by them."""

    uses_support = True
    uses_policy = True

    def __init__(self, cfg=None):
        self.cfg = cfg or SwitchConfig()


class BaselineController(Controller):
    """Always the learned policy."""

    kind = "baseline"
    uses_support = False

    def step(self, handle, support, policy, t, state, rng, g=None):
        u = policy.action(state.vec)
        res = handle.step(state, u)
        return CtrlStep(applied=[_applied(u, res, "policy")], state=res.next_state)


class EarlyStopController(Controller):
    """The learned policy until the switching rule first trips, then zeros."""

    kind = "es"

    def __init__(self, cfg=None):
        super().__init__(cfg)
        self.triggered = False

    def step(self, handle, support, policy, t, state, rng, g=None):
        if not self.triggered:
            u_hat = policy.action(state.vec)
            lam = effective_lambda(self.cfg, support, t, handle.spec)
            if g is None:
                g = support.g_at(t, state.vec)
            if should_recover(g, u_hat, self.cfg, lam=lam):
                self.triggered = True
        if self.triggered:
            u = np.zeros(2)
            res = handle.step(state, u)
            return CtrlStep(applied=[_applied(u, res, "zero")], state=res.next_state)
        res = handle.step(state, u_hat)
        return CtrlStep(applied=[_applied(u_hat, res, "policy")], state=res.next_state)


class RecoveryController(Controller):
    """Recovery iterations while the switching rule trips, then one policy
    step; a colliding or goal-reaching motion ends the step without it.
    Subclasses differ only in the iteration they pass to recover."""

    def recover(self, iteration, handle, support, policy, t, state, rng, g=None):
        cfg = self.cfg
        lam = effective_lambda(cfg, support, t, handle.spec)
        applied = []
        recovery_steps = []
        if g is None:
            g = support.g_at(t, state.vec)
        if g < 0.0:
            raise OutsideSupportError(
                f"state outside the estimated support (g={g:.3g} at t={t})",
                t=t,
                g_value=g,
            )
        u_hat = policy.action(state.vec)
        while should_recover(g, u_hat, cfg, lam=lam):
            if len(recovery_steps) >= cfg.max_recovery_iters:
                return CtrlStep(applied=applied, state=state, halted=True,
                                recovery_steps=recovery_steps)
            rec, state, motions = iteration(
                handle, support, t, state, cfg, rng, lam=lam, g_before=g
            )
            recovery_steps.append(rec)
            applied.extend(motions)
            if any(a.collided or a.reached for a in motions):
                return CtrlStep(applied=applied, state=state,
                                recovery_steps=recovery_steps)
            g = rec.g_after
            u_hat = policy.action(state.vec)
        res = handle.step(state, u_hat)
        applied.append(_applied(u_hat, res, "policy"))
        return CtrlStep(applied=applied, state=res.next_state,
                        recovery_steps=recovery_steps)


class DfrController(RecoveryController):
    """Derivative-free recovery: probe/flip ascent iterations."""

    kind = "dfr"

    def step(self, handle, support, policy, t, state, rng, g=None):
        return self.recover(dfr_recovery_iteration, handle, support, policy, t, state, rng, g)


class OracleController(RecoveryController):
    """Recovery with finite-difference ascent directions from simulated probes."""

    kind = "oracle"

    def step(self, handle, support, policy, t, state, rng, g=None):
        return self.recover(_oracle_recovery_iteration, handle, support, policy, t, state, rng, g)


class SupervisorController(Controller):
    """The scripted demonstrator, for sanity rows in experiments."""

    kind = "supervisor"
    uses_support = False
    uses_policy = False

    def step(self, handle, support, policy, t, state, rng, g=None):
        u = supervisor_action(handle.spec, state)
        res = handle.step(state, u)
        return CtrlStep(applied=[_applied(u, res, "policy")], state=res.next_state)


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
