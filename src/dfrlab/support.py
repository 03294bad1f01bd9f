"""Time-varying support estimation over demonstration time slices.

A separate one-class SVM is fit to the demonstration states observed at each
time index, so the estimated support tracks the nominal task progress.  A
pooled single-estimator baseline is provided for contrast: pooling mixes all
time slices, and any region visited only during a small fraction of the
horizon can fall below the nu quantile and be rejected outright.
"""

from dataclasses import dataclass, field, replace
import os

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .kernel_ocsvm import (
    _alpha_init,
    _decision_sum,
    decision_value,  # not called here; perfbench/tracer.py wraps support.decision_value
    lipschitz_bound,
    load_model,
    save_model,
    train_ocsvm,
)
from .util import atomic_write_text, dump_json, load_json, malformed


@dataclass
class Trajectory:
    """Time-indexed states and the controls applied between them."""

    states: np.ndarray
    controls: np.ndarray
    seed: int = None
    outcome: str = None

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.controls = np.asarray(self.controls, dtype=float)
        if self.controls.size == 0:
            self.controls = self.controls.reshape(0, 0)
        if not np.isfinite(self.states).all():
            raise InvalidInputError("trajectory states contain non-finite values")
        if not np.isfinite(self.controls).all():
            raise InvalidInputError("trajectory controls contain non-finite values")
        if len(self.controls) != len(self.states) - 1:
            raise InvalidInputError(
                f"trajectory has {len(self.states)} states but "
                f"{len(self.controls)} controls; expected one control per step"
            )

    def __len__(self):
        return len(self.states)


@dataclass
class DemoSet:
    """A bag of demonstration trajectories with a shared state dimension.

    At construction the states are also stacked into one (n, T+1, d) array,
    T+1 the longest trajectory's length, beside each trajectory's length; a
    shorter trajectory's rows past its end are zero and never read.  Time
    slices and the pooled states are read from that array, by one path for
    equal-length and ragged sets alike.
    """

    trajectories: list
    _states: np.ndarray = field(init=False, repr=False, compare=False)
    _lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trajectories:
            raise InvalidInputError("a demo set needs at least one trajectory")
        dims = {traj.states.shape[1] for traj in self.trajectories}
        if len(dims) != 1:
            raise InvalidInputError(f"trajectories disagree on state dimension: {sorted(dims)}")
        self._lengths = np.array([len(traj) for traj in self.trajectories])
        self._states = np.zeros((len(self.trajectories), self._lengths.max(), dims.pop()))
        for k, traj in enumerate(self.trajectories):
            self._states[k, :len(traj)] = traj.states

    def __len__(self):
        return len(self.trajectories)

    @property
    def state_dim(self):
        return self._states.shape[2]

    @property
    def horizon(self):
        return max(1, self._states.shape[1] - 1)

    def states_at(self, t):
        """All demonstration states observed at time index t, in trajectory order
        (none past every trajectory's end, where the column index is clamped
        only to stay in bounds)."""
        return self._states[self._lengths > t, min(t, self._states.shape[1] - 1)]

    def all_states(self):
        """Every demonstration state, trajectory by trajectory."""
        return self._states[np.arange(self._states.shape[1]) < self._lengths[:, None]]


@dataclass
class TimeVaryingSupport:
    """One estimator per demonstration time slice plus bookkeeping.

    projection is an index list selecting the state coordinates the
    estimators were trained on.  Each slice's Lipschitz bound is derived
    from its estimator once, at construction.
    """

    estimators: list
    projection: np.ndarray

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=int)
        for t, model in enumerate(self.estimators):
            if self.projection.shape != (model.dim,):
                raise InvalidInputError(
                    f"projection {self.projection.tolist()} selects {self.projection.size} "
                    f"coordinates, the slice-{t} estimator expects {model.dim}"
                )
        self._min_state_dim = int(self.projection.max()) + 1 if self.projection.size else 0
        # a run of consecutive indices is read as a slice view, not a copy
        p = self.projection
        if p.size and (np.diff(p) == 1).all():
            self._take = slice(int(p[0]), int(p[-1]) + 1)
        else:
            self._take = p
        self._lipschitz = [lipschitz_bound(e) for e in self.estimators]

    @property
    def horizon(self):
        return len(self.estimators)

    def estimator_index(self, t):
        if t < 0:
            raise InvalidInputError(f"time index must be >= 0, got {t}")
        return min(int(t), len(self.estimators) - 1)

    def g_at(self, t, x):
        """Decision value of the slice-t estimator (last slice reused past the end).

        The projection was checked against every estimator at construction,
        so only the state's shape is checked here.  The slice is indexed
        inline, as estimator_index does it, to spare a call per state."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] < self._min_state_dim:
            raise InvalidInputError(
                f"projection indices {self.projection.tolist()} do not fit a "
                f"state of shape {x.shape}"
            )
        if t < 0:
            raise InvalidInputError(f"time index must be >= 0, got {t}")
        t = int(t)
        last = len(self.estimators) - 1
        return _decision_sum(self.estimators[t if t < last else last], x[self._take])

    def lipschitz_at(self, t):
        return self._lipschitz[self.estimator_index(t)]


def _resolve_projection(projection, state_dim):
    if projection is None:
        return np.arange(state_dim)
    projection = np.asarray(projection, dtype=int)
    if projection.ndim != 1 or projection.size == 0:
        raise InvalidInputError("projection must be a nonempty index list")
    if projection.min() < 0 or projection.max() >= state_dim:
        raise InvalidInputError(
            f"projection {projection.tolist()} out of range for state dimension {state_dim}"
        )
    return projection


def fit_time_varying(demos, params, projection=None):
    """Fit one estimator per time slice t = 0 .. horizon-1.

    The slices are fitted in time order, and each solve starts from the
    alphas the previous slice's solve ended at (train_ocsvm's start, updated
    in place), since adjacent slices differ little.  A slice starts from the
    cold alphas instead when it is the first, when its point count m (and
    so its box C = 1/(nu m)) differs from the previous slice's, and after a
    degenerate (all-identical) slice.  A slice whose points equal the
    previous slice's, as they do once every demonstration has come to rest,
    is not solved again: it shares that slice's model, with no step taken.
    """
    projection = _resolve_projection(projection, demos.state_dim)
    estimators = []
    alpha = pts = None
    for t in range(demos.horizon):
        prev, pts = pts, demos.states_at(t)[:, projection]
        m = len(pts)
        if m < 2:
            raise InsufficientDataError(
                f"time slice {t} has {m} demonstration state(s); need at least 2"
            )
        if prev is not None and np.array_equal(pts, prev):
            estimators.append(replace(estimators[-1], iterations=0))
            continue
        if alpha is None or alpha.size != m:
            alpha = _alpha_init(m, 1.0 / (params.nu * m))
        estimators.append(train_ocsvm(pts, params, start=alpha))
    return TimeVaryingSupport(estimators=estimators, projection=projection)


def fit_pooled(demos, params, projection=None):
    """Fit a single estimator on all demonstration states regardless of time."""
    projection = _resolve_projection(projection, demos.state_dim)
    return train_ocsvm(demos.all_states()[:, projection], params)


def _ball_point(rng, center, radius):
    angle = rng.uniform(0.0, 2.0 * np.pi)
    r = radius * np.sqrt(rng.uniform())
    return center + r * np.array([np.cos(angle), np.sin(angle)])


def make_failure_demo(n_demos, T, seed):
    """Synthetic demos on which pooling fails but time-varying support works.

    Every trajectory starts inside a small ball B0 and spends the remaining T
    steps inside a far-away ball B1 (centers 10 apart).  B0 carries only a
    1/(T+1) fraction of the pooled training mass, so for T large relative to
    1/nu a pooled estimator rejects it, while the slice-0 estimator is
    trained on B0 alone.
    """
    if n_demos < 2 or T < 1:
        raise InvalidInputError(f"need n_demos >= 2 and T >= 1, got {n_demos}, {T}")
    rng = np.random.default_rng(seed)
    c0 = np.array([0.0, 0.0])
    c1 = np.array([10.0, 0.0])
    trajectories = []
    for _ in range(n_demos):
        states = [_ball_point(rng, c0, 0.1)]
        for _ in range(T):
            states.append(_ball_point(rng, c1, 0.1))
        states = np.stack(states)
        controls = np.diff(states, axis=0)
        trajectories.append(Trajectory(states=states, controls=controls, seed=int(seed), outcome="completed"))
    return DemoSet(trajectories=trajectories)


BUNDLE_FORMAT = "support-bundle"
BUNDLE_VERSION = 2


def save_support(support, directory):
    """Write a bundle directory: manifest.json plus one model file per slice."""
    os.makedirs(directory, exist_ok=True)
    first = support.estimators[0]
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "horizon": support.horizon,
        "projection": support.projection.tolist(),
        "params": {"nu": float(first.nu), "gamma": float(first.kernel.gamma)},
        "slices": [f"slice_{t:03d}.json" for t in range(support.horizon)],
    }
    for name, model in zip(manifest["slices"], support.estimators):
        save_model(model, os.path.join(directory, name))
    atomic_write_text(os.path.join(directory, "manifest.json"), dump_json(manifest))


def load_support(directory):
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = load_json(manifest_path, "bundle manifest")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise InvalidInputError(f"{manifest_path} is not a support bundle manifest")
    if manifest.get("version") != BUNDLE_VERSION:
        raise InvalidInputError(
            f"{manifest_path} has bundle version {manifest.get('version')!r}; "
            f"expected {BUNDLE_VERSION}"
        )
    with malformed(f"malformed bundle manifest {manifest_path}"):
        estimators = [load_model(os.path.join(directory, name)) for name in manifest["slices"]]
        if len(estimators) != manifest["horizon"]:
            raise InvalidInputError("bundle manifest horizon disagrees with slice count")
        return TimeVaryingSupport(
            estimators=estimators,
            projection=np.asarray(manifest["projection"], dtype=int),
        )
