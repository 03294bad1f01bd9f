"""Gaussian-kernel one-class SVM with a deterministic two-coordinate dual solver.

The estimator follows the quantile formulation: given m training points and a
target outlier fraction nu, solve

    min_alpha  0.5 * alpha^T K alpha
    s.t.       0 <= alpha_i <= 1 / (nu * m),   sum_i alpha_i = 1

with K the Gaussian kernel matrix.  The decision function

    g(x) = sum_i alpha_i k(x_i, x) - rho

is non-negative on (an estimate of) the support of the training distribution
and negative outside it.  A slower projected-gradient solver for the same dual
is included as an independent cross-check for small instances.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import InvalidInputError, SolverNonConvergenceError
from .util import atomic_write_text, dump_json, float_list, load_json, malformed

# Training sets up to this size get a dense precomputed kernel matrix; larger
# ones fall back to an LRU row cache.
FULL_MATRIX_LIMIT = 4096
_ROW_CACHE_SIZE = 512


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel k(x, y) = exp(-gamma * ||x - y||^2)."""

    gamma: float = 5.0

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise InvalidInputError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class OcsvmParams:
    """Quantile parameter nu, kernel, and solver knobs."""

    nu: float = 0.05
    kernel: KernelParams = field(default_factory=KernelParams)
    solver_tol: float = 1e-8
    max_solver_iters: int = 200_000

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise InvalidInputError(f"nu must lie in (0, 1], got {self.nu}")
        if not (self.solver_tol > 0.0):
            raise InvalidInputError("solver_tol must be positive")
        if self.max_solver_iters < 1:
            raise InvalidInputError("max_solver_iters must be >= 1")


@dataclass(frozen=True)
class OcsvmModel:
    """A trained estimator: support vectors, their alphas, the offset rho.

    Only points with nonzero alpha are stored.  Alphas refer to the original
    dual over train_count points, so they sum to 1 (up to solver precision).
    """

    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    kernel: KernelParams
    nu: float
    train_count: int

    @property
    def dim(self):
        return self.support_vectors.shape[1]


def kernel_eval(x, y, params):
    """Evaluate the Gaussian kernel at a single pair of points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    return float(np.exp(-params.gamma * float(d @ d)))


def kernel_matrix(X, Y, params):
    """Pairwise Gaussian kernel matrix, shape (len(X), len(Y))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    sq = (
        (X * X).sum(axis=1)[:, None]
        + (Y * Y).sum(axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-params.gamma * sq)


def decision_value(model, x):
    """g(x) = sum_i alpha_i k(sv_i, x) - rho for a single state x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise InvalidInputError(
            f"state has shape {x.shape}, model expects dimension {model.dim}"
        )
    return _decision_sum(model, x)


def _decision_sum(model, x):
    """decision_value without its checks: x is a float vector of model.dim."""
    diff = model.support_vectors - x
    diff *= diff
    k = diff.sum(axis=1)
    k *= -model.kernel.gamma
    return float(model.alphas.dot(np.exp(k, out=k))) - model.rho


def decision_values(model, X):
    """Vectorized decision function over rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.dim:
        raise InvalidInputError(
            f"states have dimension {X.shape[1]}, model expects {model.dim}"
        )
    K = kernel_matrix(X, model.support_vectors, model.kernel)
    return K @ model.alphas - model.rho


def lipschitz_bound(model):
    """A global Lipschitz constant of the decision function.

    Each kernel term alpha * k(c, .) has gradient norm at most
    alpha * sqrt(2 * gamma / e) (the maximum of 2*gamma*r*exp(-gamma*r^2)
    over r >= 0, attained at r = 1/sqrt(2*gamma)), so the sum of alphas
    times that factor bounds ||grad g|| everywhere.
    """
    return float(math.sqrt(2.0 * model.kernel.gamma / math.e) * model.alphas.sum())


def model_dual_objective(model):
    """0.5 * alpha^T K alpha over the stored support vectors."""
    K = kernel_matrix(model.support_vectors, model.support_vectors, model.kernel)
    return 0.5 * float(model.alphas @ K @ model.alphas)


def _validate_training_points(points, nu, max_points=None):
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise InvalidInputError(f"training points must be a nonempty 2-d array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InvalidInputError("training points contain non-finite values")
    m = X.shape[0]
    if max_points is not None and m > max_points:
        raise InvalidInputError(
            f"reference solver only accepts up to {max_points} points, got {m}"
        )
    if m * nu < 1.0 - 1e-12:
        raise InvalidInputError(
            f"need m * nu >= 1 so the box constraint can bind (m={m}, nu={nu})"
        )
    return X


def _degenerate_model(X, params):
    # All training points identical: any feasible alpha is optimal, so store a
    # single support vector with full mass.  rho = k(x, x) = 1 puts the
    # decision value at exactly 0 on the shared point.
    return OcsvmModel(
        support_vectors=X[:1].copy(),
        alphas=np.array([1.0]),
        rho=1.0,
        kernel=params.kernel,
        nu=params.nu,
        train_count=X.shape[0],
    )


class _KernelRows:
    """Row provider for the training kernel matrix with two storage modes."""

    def __init__(self, X, gamma):
        self.X = X
        self.gamma = gamma
        self.sq = (X * X).sum(axis=1)
        m = X.shape[0]
        if m <= FULL_MATRIX_LIMIT:
            self.full = kernel_matrix(X, X, KernelParams(gamma=gamma))
            self.cache = None
        else:
            self.full = None
            self.cache = {}

    def row(self, i):
        if self.full is not None:
            return self.full[i]
        hit = self.cache.get(i)
        if hit is not None:
            return hit
        d2 = self.sq + self.sq[i] - 2.0 * (self.X @ self.X[i])
        np.maximum(d2, 0.0, out=d2)
        r = np.exp(-self.gamma * d2)
        if len(self.cache) >= _ROW_CACHE_SIZE:
            # drop the oldest entry (dict preserves insertion order)
            self.cache.pop(next(iter(self.cache)))
        self.cache[i] = r
        return r


def _alpha_init(m, C):
    # Standard initialization: fill the box from the front until mass 1 is
    # placed.  floor(1/C) entries at the cap plus one fractional remainder.
    alpha = np.zeros(m)
    n_full = int(1.0 / C)
    alpha[:n_full] = C
    if n_full < m:
        alpha[n_full] = 1.0 - n_full * C
    return alpha


def _finalize_model(X, alpha, grad, C, params):
    stored = alpha > 0.0
    sv = X[stored].copy()
    a = alpha[stored].copy()
    # Margin support vectors sit strictly inside the box; on them the KKT
    # conditions pin sum_j alpha_j k(x_j, x_i) to rho.
    at_bound = alpha >= C * (1.0 - 1e-9)
    margin = stored & ~at_bound & (alpha > C * 1e-9)
    if margin.any():
        rho = float(grad[margin].mean())
    else:
        rho = float(grad[at_bound].min())
    return OcsvmModel(
        support_vectors=sv,
        alphas=a,
        rho=rho,
        kernel=params.kernel,
        nu=params.nu,
        train_count=X.shape[0],
    )


def train_ocsvm(points, params):
    """Fit the estimator by two-coordinate descent on the dual.

    Each iteration picks the maximally KKT-violating pair (ties broken toward
    the lowest index), takes the exact analytic step along e_i - e_j, and
    updates the cached gradient.  Raises SolverNonConvergenceError (carrying
    the best iterate) if max_solver_iters passes have not reached solver_tol.
    """
    X = _validate_training_points(points, params.nu)
    m = X.shape[0]
    if np.ptp(X, axis=0).max() == 0.0:
        return _degenerate_model(X, params)
    C = 1.0 / (params.nu * m)
    rows = _KernelRows(X, params.kernel.gamma)
    alpha = _alpha_init(m, C)
    # grad = K @ alpha; the initial alpha touches only the first few rows.
    grad = np.zeros(m)
    for j in np.flatnonzero(alpha):
        grad += alpha[j] * rows.row(j)

    bound_slack = C * 1e-12
    converged = False
    for _ in range(params.max_solver_iters):
        up = alpha < C - bound_slack
        down = alpha > bound_slack
        gi = np.where(up, grad, np.inf)
        gj = np.where(down, grad, -np.inf)
        i = int(np.argmin(gi))
        j = int(np.argmax(gj))
        gap = grad[j] - grad[i]
        if gap <= params.solver_tol:
            converged = True
            break
        row_i = rows.row(i)
        row_j = rows.row(j)
        denom = row_i[i] + row_j[j] - 2.0 * row_i[j]
        t_max = min(C - alpha[i], alpha[j])
        if denom > 1e-15:
            t = min(gap / denom, t_max)
        else:
            t = t_max
        if t >= t_max:
            t = t_max
            # hit the box: assign the bounds exactly so masks stay clean
            if C - alpha[i] <= alpha[j]:
                alpha[i] = C
                alpha[j] = max(alpha[j] - t_max, 0.0)
            else:
                alpha[i] = alpha[i] + t_max
                alpha[j] = 0.0
        else:
            alpha[i] += t
            alpha[j] -= t
        grad += t * (row_i - row_j)

    model = _finalize_model(X, alpha, grad, C, params)
    if not converged:
        raise SolverNonConvergenceError(
            f"dual solver did not reach tol {params.solver_tol} "
            f"within {params.max_solver_iters} iterations (m={m})",
            best_model=model,
        )
    return model


def _project_capped_simplex(v, C):
    """Project v onto {a : 0 <= a_i <= C, sum a_i = 1} (Euclidean)."""
    # Solve sum_i clip(v_i - theta, 0, C) = 1 for theta.  The left side is a
    # nonincreasing piecewise-linear function with breakpoints at v_i and
    # v_i - C; locate the bracketing pair and solve the linear segment.
    bp = np.unique(np.concatenate([v, v - C]))[::-1]  # descending
    h = np.clip(v[None, :] - bp[:, None], 0.0, C).sum(axis=1)
    idx = int(np.searchsorted(h, 1.0))  # h ascending in this ordering
    if idx == 0:
        theta = bp[0]
    elif idx >= len(bp):
        theta = bp[-1]
    else:
        lo_t, hi_t = bp[idx], bp[idx - 1]  # theta in [lo_t, hi_t]
        # Classify against the breakpoint values themselves: hi_t and lo_t
        # are exactly the stored floats v_i or v_i - C, so these comparisons
        # are free of the one-ulp rounding that v - hi_t < C would introduce.
        capped = v - C >= hi_t
        zero = v <= lo_t
        free = ~capped & ~zero
        n_free = int(free.sum())
        if n_free == 0:
            theta = lo_t
        else:
            theta = (v[free].sum() + C * int(capped.sum()) - 1.0) / n_free
    return np.clip(v - theta, 0.0, C)


def solve_dual_bruteforce(points, params):
    """Reference solve of the same dual by projected-gradient iteration.

    Accelerated projected gradient with adaptive restart, step 1/lambda_max(K),
    run to a projected-gradient residual of 1e-13 (well inside the 1e-9
    target).  Deliberately independent of the two-coordinate path; refuses
    instances with more than 10 points.
    """
    X = _validate_training_points(points, params.nu, max_points=10)
    m = X.shape[0]
    if np.ptp(X, axis=0).max() == 0.0:
        return _degenerate_model(X, params)
    C = 1.0 / (params.nu * m)
    K = kernel_matrix(X, X, params.kernel)
    lam_max = float(np.linalg.eigvalsh(K)[-1])
    step = 1.0 / max(lam_max, 1e-12)

    alpha = _project_capped_simplex(np.full(m, 1.0 / m), C)
    y = alpha.copy()
    momentum = 1.0
    f_prev = np.inf
    stall = 0
    for _ in range(1_000_000):
        grad_y = K @ y
        nxt = _project_capped_simplex(y - step * grad_y, C)
        f = 0.5 * float(nxt @ K @ nxt)
        if f > f_prev:  # restart acceleration when the objective backslides
            y = alpha.copy()
            momentum = 1.0
            f_prev = np.inf
            continue
        new_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        y = nxt + ((momentum - 1.0) / new_momentum) * (nxt - alpha)
        residual = float(np.abs(nxt - alpha).max())
        stall = stall + 1 if f_prev - f <= 1e-16 * (1.0 + abs(f)) else 0
        alpha = nxt
        momentum = new_momentum
        f_prev = f
        if residual <= 1e-13 or stall >= 200:
            break

    grad = K @ alpha
    # clean tiny dust so the stored set is the meaningfully-nonzero one
    alpha = np.where(alpha > C * 1e-9, alpha, 0.0)
    return _finalize_model(X, alpha, grad, C, params)


MODEL_FORMAT = "ocsvm-model"


def model_to_document(model):
    return {
        "format": MODEL_FORMAT,
        "version": 1,
        "gamma": float(model.kernel.gamma),
        "nu": float(model.nu),
        "rho": float(model.rho),
        "train_count": int(model.train_count),
        "support": [
            [float_list(sv), float(a)]
            for sv, a in zip(model.support_vectors, model.alphas)
        ],
    }


def model_from_document(doc):
    with malformed("malformed estimator document"):
        if doc["format"] != MODEL_FORMAT:
            raise InvalidInputError(f"not an estimator document: format={doc['format']!r}")
        sv = np.array([entry[0] for entry in doc["support"]], dtype=float)
        alphas = np.array([entry[1] for entry in doc["support"]], dtype=float)
        return OcsvmModel(
            support_vectors=sv,
            alphas=alphas,
            rho=float(doc["rho"]),
            kernel=KernelParams(gamma=float(doc["gamma"])),
            nu=float(doc["nu"]),
            train_count=int(doc["train_count"]),
        )


def save_model(model, path):
    """Write the model as a self-describing JSON document (atomic)."""
    atomic_write_text(path, dump_json(model_to_document(model)))


def load_model(path):
    return model_from_document(load_json(path, "estimator file"))
