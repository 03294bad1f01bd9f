"""Shared fixtures: tiny demo sets, fitted supports, and policies, plus the
state sampler and the output-file filter that several test files call.

Everything here is deliberately small so the unit files stay fast; the
full-size protocol runs live in test_acceptance.py only.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dfrlab.controllers import PolicyConfig, fit_policy
from dfrlab.envs import POINT_PUSH, _dist, builtin_env_spec, check_constraint
from dfrlab.kernel_ocsvm import KernelParams, OcsvmParams
from dfrlab.supervisor import generate_demos
from dfrlab.support import fit_time_varying

settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def point_push_spec():
    return builtin_env_spec("point_push")


@pytest.fixture(scope="session")
def line_track_spec():
    return builtin_env_spec("line_track")


@pytest.fixture(scope="session")
def pp_demos():
    """20 clean point_push demonstrations, the workhorse fixture."""
    return generate_demos(builtin_env_spec("point_push"), 20, seed=5)


@pytest.fixture(scope="session")
def pp_support(pp_demos):
    params = OcsvmParams(nu=0.05, kernel=KernelParams(gamma=15.0))
    return fit_time_varying(pp_demos, params)


@pytest.fixture(scope="session")
def pp_policy(pp_demos):
    cfg = PolicyConfig(centers=200, bandwidth=0.15)
    return fit_policy(pp_demos, cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def _random_state(spec, rng):
    """A uniformly drawn constraint-free state with no disc overlap."""
    if spec.kind == POINT_PUSH:
        (lo, hi) = np.asarray(spec.workspace[0]), np.asarray(spec.workspace[1])
        for _ in range(10_000):
            r = rng.uniform(lo, hi)
            o = rng.uniform(lo, hi)
            state = np.concatenate([r, o, np.asarray(spec.goal_center, dtype=float)])
            if not check_constraint(spec, state):
                continue
            if _dist(*(o - r).tolist()) <= spec.push.contact:
                continue
            return state
        raise RuntimeError("rejection sampling failed to find a valid state")
    x = rng.uniform(0.0, spec.goal_progress)
    y = rng.uniform(-spec.deviation_limit, spec.deviation_limit)
    return np.array([x, y])


@pytest.fixture(scope="session")
def random_state():
    """random_state(spec, rng): a uniformly drawn valid state, for sampling tests."""
    return _random_state


def _strip_nondeterministic(doc):
    doc = dict(doc)
    doc.pop("created", None)
    doc.pop("timing", None)
    if isinstance(doc.get("summary"), dict):
        doc["summary"] = {
            k: v for k, v in doc["summary"].items() if k != "timing"
        }
    return doc


@pytest.fixture(scope="session")
def strip_nondeterministic():
    """strip_nondeterministic(doc): a manifest or summary document without
    its clock readings ("created" and the two "timing" blocks)."""
    return _strip_nondeterministic
