"""Gaussian-kernel one-class SVM with a deterministic two-coordinate dual solver.

The estimator follows the quantile formulation: given m training points and a
target outlier fraction nu, solve

    min_alpha  0.5 * alpha^T K alpha
    s.t.       0 <= alpha_i <= 1 / (nu * m),   sum_i alpha_i = 1

with K the Gaussian kernel matrix.  The decision function

    g(x) = sum_i alpha_i k(x_i, x) - rho

is non-negative on (an estimate of) the support of the training distribution
and negative outside it.  train_ocsvm solves the dual by SMO with the
second-order working-set rule of Fan, Chen & Lin, "Working set selection
using second order information for training SVM" (JMLR 6, 2005).  A slower
projected-gradient solver for the same dual is included as an independent
cross-check for small instances.
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .errors import InvalidInputError, SolverNonConvergenceError
from .util import atomic_write_text, dump_json, float_list, load_json, malformed, real

# Training sets up to this size get a dense precomputed kernel matrix; larger
# ones fall back to an LRU row cache.
FULL_MATRIX_LIMIT = 4096
_ROW_CACHE_SIZE = 512
# Floor of the pair curvature K_ii + K_jj - 2 K_ij in the working-set rule,
# so duplicated points (curvature 0) still rank by their gradient gap.
_TAU = 1e-12
# How far a start's alphas may sum from 1 (see _check_start).
_START_MASS_TOL = 1e-9


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel k(x, y) = exp(-gamma * ||x - y||^2)."""

    gamma: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", real("gamma", self.gamma))
        if not self.gamma > 0.0:
            raise InvalidInputError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class OcsvmParams:
    """Quantile parameter nu, kernel, and solver knobs."""

    nu: float = 0.05
    kernel: KernelParams = field(default_factory=KernelParams)
    solver_tol: float = 1e-8
    max_solver_iters: int = 200_000

    def __post_init__(self):
        object.__setattr__(self, "nu", real("nu", self.nu))
        object.__setattr__(self, "solver_tol", real("solver_tol", self.solver_tol))
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
    iterations and gap are train_ocsvm's step count and final maximal-
    violating gap; they are None where no such solve ran (a model read from
    a file, or the projected-gradient reference), and model files omit them.
    """

    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    kernel: KernelParams
    nu: float
    train_count: int
    iterations: int | None = None
    gap: float | None = None

    @property
    def dim(self):
        return self.support_vectors.shape[1]


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
        iterations=0,
        gap=0.0,
    )


class _KernelRows:
    """Row provider for the training kernel matrix with two storage modes.

    curvature(i, idx) gives max(K_ii + K_jj - 2 K_ij, _TAU) for j in idx,
    from the kernel's own diagonal.  With the dense matrix it is
    precomputed, a second m x m array; on the row-cache path it comes from
    row i, and the diagonal is exactly 1 there: k(x, x) = exp(0).
    """

    def __init__(self, X, gamma):
        self.X = X
        self.gamma = gamma
        self.sq = (X * X).sum(axis=1)
        m = X.shape[0]
        if m <= FULL_MATRIX_LIMIT:
            self.full = kernel_matrix(X, X, KernelParams(gamma=gamma))
            self.cache = None
            diag = self.full.diagonal()
            self.curv = np.add.outer(diag, diag)
            self.curv -= 2.0 * self.full
            np.maximum(self.curv, _TAU, out=self.curv)
        else:
            self.full = None
            self.cache = {}
            self.curv = None

    def row(self, i):
        if self.full is not None:
            return self.full[i]
        hit = self.cache.get(i)
        if hit is not None:
            return hit
        # an elementwise product-sum, not a BLAS gemv: on the pooled
        # line_track fit's (5,050, 1) array the gemv costs several times more
        d2 = self.sq + self.sq[i] - 2.0 * (self.X * self.X[i]).sum(axis=1)
        np.maximum(d2, 0.0, out=d2)
        r = np.exp(-self.gamma * d2)
        if len(self.cache) >= _ROW_CACHE_SIZE:
            # drop the oldest entry (dict preserves insertion order)
            self.cache.pop(next(iter(self.cache)))
        self.cache[i] = r
        return r

    def curvature(self, i, idx):
        if self.curv is not None:
            return self.curv[i, idx]
        return np.maximum(2.0 - 2.0 * self.row(i)[idx], _TAU)


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


def _check_start(start, m, C):
    """Refuse a start that is not a feasible point of the dual: a float64
    vector of m finite alphas in the box [0, C] whose sum is 1.

    The sum may be off 1 by _START_MASS_TOL: each SMO step adds t to one
    alpha and takes it from another, and each of those two roundings moves
    the sum by at most half an ulp of C <= 1, so even max_solver_iters =
    200,000 steps leave a solution's sum within 1e-10 of 1.  The top of the
    box takes the solver's own at-cap slack, C * 1e-12, within which an
    alpha counts as capped and may only shrink."""
    if not (isinstance(start, np.ndarray) and start.dtype == np.float64
            and start.shape == (m,)):
        raise InvalidInputError(
            f"start must be a float64 array of shape ({m},), got "
            f"{getattr(start, 'dtype', type(start).__name__)} of shape {np.shape(start)}"
        )
    if not np.isfinite(start).all():
        raise InvalidInputError("start alphas contain non-finite values")
    if start.min() < 0.0 or start.max() > C * (1.0 + 1e-12):
        raise InvalidInputError(
            f"start alphas must lie in [0, C = {C:.17g}], got [{start.min():.17g}, "
            f"{start.max():.17g}]"
        )
    mass = math.fsum(start.tolist())
    if abs(mass - 1.0) > _START_MASS_TOL:
        raise InvalidInputError(f"start alphas must sum to 1, got {mass:.17g}")


def train_ocsvm(points, params, start=None):
    """Fit the estimator by two-coordinate descent (SMO) on the dual.

    Each iteration moves mass from j to i along e_i - e_j.  i is the index
    of least gradient among those whose alpha may grow; j, among those whose
    alpha may shrink and whose gradient exceeds grad_i, maximizes the
    second-order decrease (grad_j - grad_i)^2 / max(K_ii + K_jj - 2 K_ij,
    tau), ties going to the lowest index (Fan, Chen & Lin 2005).  The step
    is the exact analytic one, clamped to the box, and only the cached
    gradient is updated.  The solve stops once the maximal-violating gap,
    max grad over may-shrink minus min grad over may-grow, is at most
    solver_tol.  The model carries the step count and that final gap.
    Raises SolverNonConvergenceError (carrying the best iterate) if
    max_solver_iters steps have not reached solver_tol.

    The solve starts from _alpha_init's cold alphas, or from start: a
    float64 array of m alphas that is checked to be feasible (see
    _check_start; InvalidInputError if not).  start is updated in place to
    the solve's last alphas, so a chain of fits can pass each solution on
    as the next one's start (alpha seeding: DeCoste & Wagstaff, "Alpha
    seeding for support vector machines", KDD 2000).  On a degenerate
    (all-identical) set any feasible alpha is optimal, and start is reset
    to the cold alphas.
    """
    X = _validate_training_points(points, params.nu)
    m = X.shape[0]
    C = 1.0 / (params.nu * m)
    if start is not None:
        _check_start(start, m, C)
    if np.ptp(X, axis=0).max() == 0.0:
        if start is not None:
            start[:] = _alpha_init(m, C)
        return _degenerate_model(X, params)
    rows = _KernelRows(X, params.kernel.gamma)
    alpha = _alpha_init(m, C) if start is None else start
    # grad = K @ alpha, summed over the rows of the nonzero alphas: the
    # cold alphas touch only the first few rows, a solution its support.
    grad = np.zeros(m)
    for j in np.flatnonzero(alpha):
        grad += alpha[j] * rows.row(j)

    # The alphas are Python floats.  pen_up is 0 where alpha may grow and
    # +inf where it may not, so grad + pen_up is np.where over the grow mask;
    # down holds the indices whose alpha may shrink, ascending, and j is
    # searched over them alone (about 250 of the 5,050 points of the shipped
    # pooled fit).  A step grows alpha_i and shrinks alpha_j, so only i can
    # join down and only j can leave it.  Pair rule and arithmetic are those
    # of masks rebuilt every step, bit for bit (tests/test_setup_bits.py).
    bound_slack = C * 1e-12
    up_cap = C - bound_slack
    pen_up = np.where(alpha < up_cap, 0.0, np.inf)
    down = np.flatnonzero(alpha > bound_slack)
    alpha = alpha.tolist()
    tol = params.solver_tol
    iterations = 0
    while True:
        i = int((grad + pen_up).argmin())
        g_i = grad.item(i)
        score = grad[down]
        gap = score.max().item() - g_i
        if gap <= tol or iterations == params.max_solver_iters:
            break
        # grad_j - grad_i, clipped at 0 so that no j below grad_i can win,
        # squared and divided by the pair curvature
        score -= g_i
        np.maximum(score, 0.0, out=score)
        score *= score
        score /= rows.curvature(i, down)
        k = int(score.argmax())
        j = down.item(k)
        row_i = rows.row(i)
        row_j = rows.row(j)
        denom = row_i.item(i) + row_j.item(j) - 2.0 * row_i.item(j)
        a_i = alpha[i]
        a_j = alpha[j]
        t_max = min(C - a_i, a_j)
        if denom > 1e-15:
            t = min((grad.item(j) - g_i) / denom, t_max)
        else:
            t = t_max
        if t >= t_max:
            t = t_max
            # hit the box: assign the bounds exactly so masks stay clean
            if C - a_i <= a_j:
                a_i = C
                a_j = max(a_j - t_max, 0.0)
            else:
                a_i = a_i + t_max
                a_j = 0.0
        else:
            a_i += t
            a_j -= t
        if a_j <= bound_slack:
            down = np.concatenate((down[:k], down[k + 1:]))
        if alpha[i] <= bound_slack < a_i:
            k = down.searchsorted(i)
            down = np.concatenate((down[:k], (i,), down[k:]))
        alpha[i] = a_i
        alpha[j] = a_j
        pen_up[i] = 0.0 if a_i < up_cap else np.inf
        pen_up[j] = 0.0 if a_j < up_cap else np.inf
        grad += t * (row_i - row_j)
        iterations += 1

    alpha = np.array(alpha)
    if start is not None:
        start[:] = alpha
    model = replace(
        _finalize_model(X, alpha, grad, C, params), iterations=iterations, gap=gap
    )
    if gap > tol:
        raise SolverNonConvergenceError(
            f"dual solver did not reach tol {tol} within {iterations} iterations "
            f"(m={m}, final gap {gap:.6g})",
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
