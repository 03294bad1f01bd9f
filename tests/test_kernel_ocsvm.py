"""Estimator unit tests: closed forms, KKT audits, and the dual-route check
against the projected-gradient reference solver."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfrlab.errors import InvalidInputError, SolverNonConvergenceError
from dfrlab.kernel_ocsvm import (
    KernelParams,
    OcsvmModel,
    OcsvmParams,
    _project_capped_simplex,
    decision_value,
    decision_values,
    kernel_matrix,
    lipschitz_bound,
    load_model,
    model_dual_objective,
    save_model,
    solve_dual_bruteforce,
    train_ocsvm,
)


def _params(nu=0.5, gamma=1.0, **kw):
    return OcsvmParams(nu=nu, kernel=KernelParams(gamma=gamma), **kw)


# ---------------------------------------------------------------------------
# kernel basics


def test_kernel_eval_closed_form():
    p = KernelParams(gamma=2.0)
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 1.0])
    K = kernel_matrix(np.stack([x, y]), np.stack([x, y]), p)
    assert K[0, 1] == pytest.approx(math.exp(-4.0), abs=1e-15)
    assert K[0, 0] == 1.0


def test_kernel_matrix_symmetry_and_diagonal(rng):
    X = rng.normal(size=(7, 3))
    K = kernel_matrix(X, X, KernelParams(gamma=0.7))
    assert np.allclose(K, K.T, atol=1e-15)
    assert np.allclose(np.diag(K), 1.0, atol=1e-12)
    assert (K > 0).all() and (K <= 1.0 + 1e-15).all()


# ---------------------------------------------------------------------------
# two-point closed forms


def test_two_points_both_at_cap():
    # nu=1 forces C=0.5, so the simplex pins alpha=(0.5, 0.5) and rho is the
    # smallest gradient entry: 0.5 * (1 + k(x0, x1)).
    d = 0.8
    gamma = 1.3
    X = np.array([[0.0], [d]])
    m = train_ocsvm(X, _params(nu=1.0, gamma=gamma))
    k01 = math.exp(-gamma * d * d)
    assert sorted(m.alphas.tolist()) == pytest.approx([0.5, 0.5], abs=1e-12)
    assert m.rho == pytest.approx(0.5 * (1.0 + k01), abs=1e-12)
    # both training points sit exactly on the boundary
    assert decision_value(m, X[0]) == pytest.approx(0.0, abs=1e-12)
    assert decision_value(m, X[1]) == pytest.approx(0.0, abs=1e-12)


def test_two_points_interior_solution():
    # nu=0.5 gives C=1; symmetry puts the optimum at alpha=(0.5, 0.5) strictly
    # inside the box, so rho is the mean gradient (same value) and the
    # midpoint decision value has a closed form.
    d = 1.1
    gamma = 0.9
    X = np.array([[0.0], [d]])
    m = train_ocsvm(X, _params(nu=0.5, gamma=gamma))
    k01 = math.exp(-gamma * d * d)
    assert sorted(m.alphas.tolist()) == pytest.approx([0.5, 0.5], abs=1e-7)
    assert m.rho == pytest.approx(0.5 * (1.0 + k01), abs=1e-7)
    mid = np.array([d / 2.0])
    expected_mid = math.exp(-gamma * d * d / 4.0) - 0.5 * (1.0 + k01)
    assert decision_value(m, mid) == pytest.approx(expected_mid, abs=1e-7)


def test_degenerate_all_identical_points():
    X = np.tile([[0.3, -0.2]], (6, 1))
    m = train_ocsvm(X, _params(nu=0.5, gamma=5.0))
    assert m.rho == 1.0
    assert decision_value(m, X[0]) == 0.0
    assert decision_value(m, np.array([5.0, 5.0])) < 0.0
    assert m.alphas.sum() == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# KKT conditions on random instances


@pytest.mark.parametrize("seed,m,dim,nu,gamma", [
    (0, 60, 2, 0.1, 2.0),
    (1, 120, 3, 0.3, 0.5),
    (2, 45, 2, 0.5, 8.0),
    (3, 200, 4, 0.05, 1.0),
])
def test_kkt_conditions(seed, m, dim, nu, gamma):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, dim))
    model = train_ocsvm(X, _params(nu=nu, gamma=gamma))
    C = 1.0 / (nu * m)
    # rebuild the full alpha vector by matching stored rows back to X
    alpha = np.zeros(m)
    for a, sv in zip(model.alphas, model.support_vectors):
        idx = np.flatnonzero((X == sv).all(axis=1))
        assert idx.size == 1
        alpha[idx[0]] = a
    assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
    assert (alpha >= -1e-15).all() and (alpha <= C + 1e-12).all()
    grad = kernel_matrix(X, X, model.kernel) @ alpha
    tol = 1e-6
    free = alpha < C * (1.0 - 1e-9)
    held = alpha > 1e-15
    # alpha_i < C requires grad_i >= rho, alpha_i > 0 requires grad_i <= rho
    assert (grad[free] >= model.rho - tol).all()
    assert (grad[held] <= model.rho + tol).all()


def test_nu_property_small():
    # at most a nu fraction of training points may fall strictly outside, and
    # at least a nu fraction must be support vectors
    rng = np.random.default_rng(42)
    X = rng.normal(size=(200, 2))
    model = train_ocsvm(X, _params(nu=0.2, gamma=0.5))
    g = decision_values(model, X)
    assert (g < -1e-9).mean() <= 0.2 + 1e-12
    assert len(model.alphas) >= 0.2 * 200 - 1e-9


# ---------------------------------------------------------------------------
# dual-route agreement with the reference solver


def test_solver_matches_bruteforce_small():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(15):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 4))
        X = rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0)
        nu = float(rng.uniform(max(0.2, 1.05 / n), 1.0))
        params = _params(nu=nu, gamma=float(rng.uniform(0.2, 5.0)))
        a = train_ocsvm(X, params)
        b = solve_dual_bruteforce(X, params)
        worst = max(worst, abs(model_dual_objective(a) - model_dual_objective(b)))
    assert worst <= 1e-8


def test_bruteforce_rejects_large_instances(rng):
    X = rng.normal(size=(11, 2))
    with pytest.raises(InvalidInputError, match="up to 10"):
        solve_dual_bruteforce(X, _params(nu=0.5))


# ---------------------------------------------------------------------------
# Lipschitz bound


def test_lipschitz_bound_dominates_sampled_gradients(rng):
    X = rng.normal(size=(80, 2))
    model = train_ocsvm(X, _params(nu=0.15, gamma=3.0))
    L = lipschitz_bound(model)
    gamma = model.kernel.gamma
    worst = 0.0
    for _ in range(500):
        x = rng.normal(size=2) * 1.5
        diff = x - model.support_vectors
        k = np.exp(-gamma * (diff * diff).sum(axis=1))
        grad = (-2.0 * gamma) * (model.alphas * k) @ diff
        worst = max(worst, float(np.linalg.norm(grad)))
    assert worst <= L + 1e-12
    assert L == pytest.approx(
        math.sqrt(2.0 * gamma / math.e) * model.alphas.sum(), abs=1e-12
    )


def test_lipschitz_bound_closed_form():
    model = OcsvmModel(
        support_vectors=np.zeros((1, 2)),
        alphas=np.array([1.0]),
        rho=1.0,
        kernel=KernelParams(gamma=2.0),
        nu=0.5,
        train_count=1,
    )
    assert lipschitz_bound(model) == pytest.approx(math.sqrt(4.0 / math.e), abs=1e-15)


# ---------------------------------------------------------------------------
# validation and failure modes


def test_invalid_nu_rejected():
    X = np.zeros((4, 2))
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(InvalidInputError):
            train_ocsvm(X, _params(nu=bad))


@pytest.mark.parametrize("field, bad", [
    ("nu", True), ("nu", "0.5"), ("solver_tol", math.inf), ("solver_tol", math.nan),
    ("gamma", True), ("gamma", "15"),
])
def test_params_take_finite_real_numbers_only(field, bad):
    # a bool or a string is not coerced, and nan and inf are not numbers here
    with pytest.raises(InvalidInputError, match=f"{field}: expected a finite real number"):
        if field == "gamma":
            KernelParams(gamma=bad)
        else:
            OcsvmParams(**{field: bad})
    assert type(OcsvmParams(nu=1, kernel=KernelParams(gamma=15)).kernel.gamma) is float


def test_m_nu_product_must_reach_one(rng):
    X = rng.normal(size=(5, 2))
    with pytest.raises(InvalidInputError, match="m \\* nu"):
        train_ocsvm(X, _params(nu=0.1))


def test_non_finite_points_rejected():
    X = np.array([[0.0, 1.0], [np.inf, 0.0]])
    with pytest.raises(InvalidInputError, match="non-finite"):
        train_ocsvm(X, _params(nu=1.0))


def test_wrong_dim_query_rejected(rng):
    X = rng.normal(size=(10, 2))
    model = train_ocsvm(X, _params(nu=0.5))
    with pytest.raises(InvalidInputError):
        decision_value(model, np.zeros(3))


def test_nonconvergence_carries_best_iterate(rng):
    X = rng.normal(size=(50, 2))
    with pytest.raises(SolverNonConvergenceError) as exc:
        train_ocsvm(X, _params(nu=0.3, gamma=1.0, max_solver_iters=1))
    best = exc.value.best_model
    assert best is not None
    assert best.alphas.sum() == pytest.approx(1.0, abs=1e-9)
    assert best.iterations == 1 and best.gap > 1e-8
    assert f"within 1 iterations (m=50, final gap {best.gap:.6g})" in str(exc.value)


def test_model_carries_its_solver_counts(rng):
    X = rng.normal(size=(60, 2))
    params = _params(nu=0.2, gamma=1.0)
    model = train_ocsvm(X, params)
    assert model.iterations > 0 and 0.0 <= model.gap <= params.solver_tol
    # the same solve capped one step short of the count fails to converge
    with pytest.raises(SolverNonConvergenceError):
        train_ocsvm(X, _params(nu=0.2, gamma=1.0, max_solver_iters=model.iterations - 1))
    assert train_ocsvm(np.ones((5, 2)), params).iterations == 0


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip(tmp_path, rng):
    X = rng.normal(size=(40, 3))
    model = train_ocsvm(X, _params(nu=0.25, gamma=1.7))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    # solver counts describe the solve, not the model, and files omit them
    assert model.iterations > 0 and back.iterations is None and back.gap is None
    assert back.rho == model.rho
    assert np.array_equal(back.alphas, model.alphas)
    assert np.array_equal(back.support_vectors, model.support_vectors)
    Q = rng.normal(size=(25, 3))
    assert np.array_equal(decision_values(back, Q), decision_values(model, Q))


def test_load_model_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(InvalidInputError, match="format"):
        load_model(path)


# ---------------------------------------------------------------------------
# capped-simplex projection (hypothesis)


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=12),
    st.integers(1, 8),
)
def test_capped_simplex_projection_feasible_and_optimal(vals, denom):
    v = np.asarray(vals, dtype=float)
    C = 1.0 / denom
    if C * v.size < 1.0:  # infeasible box, nothing to project onto
        return
    p = _project_capped_simplex(v, C)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p >= -1e-12).all() and (p <= C + 1e-12).all()
    # variational inequality: no feasible q may be closer along (p - v)
    rng = np.random.default_rng(0)
    for _ in range(5):
        q = _project_capped_simplex(rng.normal(size=v.size), C)
        assert float((q - p) @ (p - v)) >= -1e-8
