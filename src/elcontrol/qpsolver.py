"""Dense strictly convex quadratic programming by a primal active-set method.

Solves

    minimize    0.5 x^T H x + q^T x
    subject to  G x <= w

with H symmetric positive definite.  Equality-constrained subproblems are
solved through their full KKT system, which stays accurate when H carries
tiny regularisation eigenvalues and re-projects the iterate onto the working
rows so roundoff cannot accumulate.  Ties are broken by lowest constraint
index (Bland's rule), so the iteration is deterministic and cannot cycle.  Infeasibility is detected
by a phase-1 problem that minimizes the maximum violation; its optimum also
yields a Farkas-type certificate.

The solver checks its own KKT conditions before returning: a returned
"optimal" solution always carries a verified certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConditioningError, SolverError

FEAS_TOL = 1e-9
MU_TOL = 1e-10
STEP_TOL = 1e-12


@dataclass
class QpProblem:
    H: np.ndarray
    q: np.ndarray
    G: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=np.float64))
        self.q = np.asarray(self.q, dtype=np.float64).reshape(-1)
        self.G = np.asarray(self.G, dtype=np.float64).reshape(-1, self.H.shape[0])
        self.w = np.asarray(self.w, dtype=np.float64).reshape(-1)
        n = self.H.shape[0]
        if self.H.shape != (n, n) or self.q.shape != (n,) or self.w.shape[0] != self.G.shape[0]:
            raise ValueError("inconsistent QP dimensions")

    @property
    def n(self):
        return self.H.shape[0]

    @property
    def r(self):
        return self.G.shape[0]

    def objective(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * x @ self.H @ x + self.q @ x


@dataclass
class QpSolution:
    x: np.ndarray
    mu: np.ndarray
    active_set: tuple
    status: str            # "optimal" or "infeasible"
    iterations: int
    kkt_residual: float
    certificate: dict | None = None


def _chol(H):
    try:
        return np.linalg.cholesky(H)
    except LinAlgError as exc:
        raise ConditioningError("QP Hessian is not positive definite") from exc


def _chol_solve(L, b):
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)


def kkt_residual(problem: QpProblem, x, mu):
    """Max of stationarity, primal/dual feasibility and complementarity residuals."""
    slack = problem.G @ x - problem.w if problem.r else np.zeros(0)
    stat = problem.H @ x + problem.q
    if problem.r:
        stat = stat + problem.G.T @ mu
    parts = [np.max(np.abs(stat)) if stat.size else 0.0]
    if problem.r:
        parts.append(max(0.0, np.max(slack)))
        parts.append(max(0.0, -np.min(mu)))
        parts.append(np.max(np.abs(mu * slack)))
    return float(max(parts))


def _eqp_step(H, g, G, w, x, working):
    """Step to the minimizer of the QP restricted to the working rows.

    Solves the KKT system of  min 0.5 p'Hp + g'p  s.t.  Gw (x + p) = w_w
    with partial pivoting, so the step stays accurate when H carries tiny
    regularisation eigenvalues (the Schur complement in H would not).  The
    right-hand side pulls x back onto the working rows, so roundoff from
    earlier iterations cannot accumulate.  Returns (p, nu) where nu are the
    multipliers at x + p.
    """
    n = x.shape[0]
    Gw = G[working]
    k = Gw.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    kkt[:n, n:] = Gw.T
    kkt[n:, :n] = Gw
    rhs = np.concatenate([-g, w[working] - Gw @ x])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except LinAlgError:
        # linearly dependent working set; the minimum-norm multipliers do
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _active_set_iterate(problem: QpProblem, L, x0, max_iter):
    """Primal active-set loop from a feasible x0, empty working set, L = chol(H)."""
    H, q, G, w = problem.H, problem.q, problem.G, problem.w
    x = x0.copy()
    working = []
    iters = 0
    while True:
        iters += 1
        if iters > max_iter:
            raise SolverError("QP active-set iteration limit exceeded")
        g = H @ x + q
        if working:
            p, nu = _eqp_step(H, g, G, w, x, working)
        else:
            nu = np.zeros(0)
            p = -_chol_solve(L, g)

        if np.max(np.abs(p)) > 1e-9 * (1.0 + np.max(np.abs(x))):
            # largest feasible step along p; ties keep the lowest row index
            alpha = 1.0
            blocker = -1
            for i in range(problem.r):
                if i in working:
                    continue
                gi_p = G[i] @ p
                if gi_p > STEP_TOL:
                    cap = max((w[i] - G[i] @ x) / gi_p, 0.0)
                    if cap < alpha - 1e-12 * (1.0 + alpha):
                        alpha = cap
                        blocker = i
            x = x + alpha * p
            if blocker >= 0:
                working.append(blocker)
                working.sort()
                continue
            # full step: x is now the working-set minimizer, nu its multipliers
        else:
            x = x + p
        if not working or np.min(nu) >= -MU_TOL:
            mu = np.zeros(problem.r)
            for idx, j in enumerate(working):
                mu[j] = max(nu[idx], 0.0)
            return x, mu, tuple(working), iters
        # Bland: drop the lowest-index constraint with a negative multiplier
        drop = min(j for idx, j in enumerate(working) if nu[idx] < -MU_TOL)
        working.remove(drop)


def _phase1(problem: QpProblem, x_start, max_iter):
    """Minimize the maximum violation s of G x - w <= s 1.

    The auxiliary objective 0.5*delta*|x|^2 + 0.5*s^2 is strictly convex and
    well scaled; minimizing s^2 drives s to the smallest achievable violation
    (a negative s never helps, it only tightens the constraints).  Because
    the regularisation biases the optimum slightly, a least-squares polish on
    the near-active rows recovers an exactly feasible point whenever one
    exists nearby.  Returns (feasible_x, None) or (None, certificate).
    """
    n, r = problem.n, problem.r
    delta = 1e-8
    H1 = np.zeros((n + 1, n + 1))
    H1[:n, :n] = delta * np.eye(n)
    H1[n, n] = 1.0
    q1 = np.zeros(n + 1)
    G1 = np.zeros((r, n + 1))
    G1[:, :n] = problem.G
    G1[:, n] = -1.0
    aux = QpProblem(H1, q1, G1, problem.w)
    s0 = max(0.0, float(np.max(problem.G @ x_start - problem.w))) + 1.0
    x0 = np.concatenate([x_start, [s0]])
    x_aux, mu_aux, _, _ = _active_set_iterate(aux, _chol(H1), x0, max_iter)
    x_cand = x_aux[:n]

    def violation(x):
        return float(np.max(problem.G @ x - problem.w))

    if violation(x_cand) <= FEAS_TOL:
        return x_cand, None
    # polish: move minimally onto the near-active rows
    near = np.flatnonzero(problem.G @ x_cand - problem.w >= -1e-6)
    if near.size:
        Ga = problem.G[near]
        delta_x = np.linalg.lstsq(Ga, problem.w[near] - Ga @ x_cand, rcond=None)[0]
        x_polish = x_cand + delta_x
        if violation(x_polish) <= FEAS_TOL:
            return x_polish, None
    s_opt = max(x_aux[n], violation(x_cand))
    certificate = {
        "max_violation_at_optimum": float(s_opt),
        "farkas_multipliers": mu_aux,
        "farkas_gap": float(mu_aux @ problem.w),
        "farkas_stationarity": float(np.max(np.abs(problem.G.T @ mu_aux))) if r else 0.0,
    }
    return None, certificate


def solve(problem: QpProblem) -> QpSolution:
    """Solve the QP from a cold start: the unconstrained minimizer when it is
    feasible, else the phase-1 point, with an empty working set.

    Returns a QpSolution with status "optimal" (KKT-verified, tolerance 1e-8
    on the scaled residual) or "infeasible" (with a Farkas certificate).
    Raises SolverError when the iteration limit is hit or the KKT check fails.
    """
    n, r = problem.n, problem.r
    L = _chol(problem.H)
    max_iter = 50 + 10 * (r + n)
    x_free = -_chol_solve(L, problem.q)

    if r == 0:
        return QpSolution(x_free, np.zeros(0), (), "optimal", 1,
                          kkt_residual(problem, x_free, np.zeros(0)))

    if np.max(problem.G @ x_free - problem.w) <= FEAS_TOL:
        x0 = x_free
    else:
        x0, certificate = _phase1(problem, x_free, max_iter)
        if x0 is None:
            return QpSolution(np.full(n, np.nan), np.zeros(r), (), "infeasible", 0,
                              np.inf, certificate)

    x, mu, active, iters = _active_set_iterate(problem, L, x0, max_iter)
    res = kkt_residual(problem, x, mu)
    scale = 1.0 + float(np.max(np.abs(problem.q))) + float(np.max(np.abs(problem.H)))
    if res > 1e-8 * scale:
        raise SolverError(f"QP solution failed its own KKT certificate: residual {res:.3e}")
    return QpSolution(x, mu, active, "optimal", iters, res)
