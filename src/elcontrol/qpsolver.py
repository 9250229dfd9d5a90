"""Dense strictly convex quadratic programming by a dual active-set method.

Solves

    minimize    0.5 x^T H x + q^T x
    subject to  G x <= w

with H symmetric positive definite, by the method of Goldfarb & Idnani
(*A numerically stable dual method for solving strictly convex quadratic
programs*, Math. Programming 27, 1983).  The iteration starts at the
unconstrained minimizer -H^-1 q, found with the Cholesky factor that also
checks that H is positive definite, and so needs no feasible start.  It
takes the most violated row p (lowest index on ties) and raises its
multiplier t from 0.  For a working set W, one KKT solve of

    [[H, G_W^T], [G_W, 0]] [x, z; u, r] = [[-q, -G_p^T], [w_W, 0]]

gives the minimizer x on the working rows with its multipliers u, and the
primal and dual directions z and r: x + t z, with multipliers u + t r on W
and t on p, is stationary with W active.  The step is the smaller of the
full step, which makes row p active, and the partial step that drops the
first working row whose multiplier reaches 0 (lowest index on ties).  The
working rows stay linearly independent, and each step recomputes x from
the solve instead of accumulating updates.

A row that can be neither added (z ~ 0) nor made room for (no r_i < 0)
proves infeasibility.  mu = e_p + r on the working rows satisfies mu >= 0,
G^T mu = 0 and w^T mu = -(violation of p) < 0, so no x satisfies every row;
`violation_bound` = -w^T mu / sum(mu) is a lower bound on max_i (G_i x - w_i)
for every x.  The solver checks its own KKT conditions before returning
"optimal" and its Farkas certificate before returning "infeasible".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConditioningError, SolverError

FEAS_TOL = 1e-9
MU_TOL = 1e-10
CERT_TOL = 1e-9


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


def _infeasible(problem, mu, iters):
    """The "infeasible" result for Farkas multipliers mu, after checking them."""
    G, w = problem.G, problem.w
    gap = float(mu @ w)
    stat = float(np.max(np.abs(G.T @ mu)))
    if not (gap < 0.0 and stat <= CERT_TOL * mu.sum() * np.max(np.abs(G))):
        raise SolverError(f"QP infeasibility certificate failed its own check: gap {gap:.3e}, "
                          f"stationarity {stat:.3e}")
    certificate = {"violation_bound": -gap / float(mu.sum()), "farkas_multipliers": mu,
                   "farkas_gap": gap, "farkas_stationarity": stat}
    return QpSolution(np.full(problem.n, np.nan), np.zeros(problem.r), (), "infeasible",
                      iters, np.inf, certificate)


def solve(problem: QpProblem) -> QpSolution:
    """Solve the QP by the dual active-set iteration from the unconstrained
    minimizer.

    Returns a QpSolution with status "optimal" (KKT-verified, tolerance 1e-8
    on the scaled residual) or "infeasible" (with a verified Farkas
    certificate); `iterations` counts the KKT solves.  Raises SolverError
    when the iteration limit is hit, a KKT system is singular, or either
    self-check fails.
    """
    H, q, G, w = problem.H, problem.q, problem.G, problem.w
    n, r = problem.n, problem.r
    x = -_chol_solve(_chol(H), q)
    mu = np.zeros(r)
    working = []
    p = -1                 # the row being added, -1 between rows
    iters = 0
    max_iter = 50 + 10 * (r + n)
    while r:
        if p < 0:
            viol = G @ x - w
            viol[working] = -np.inf
            p = int(np.argmax(viol))
            if viol[p] <= FEAS_TOL:
                break
        iters += 1
        if iters > max_iter:
            raise SolverError("QP active-set iteration limit exceeded")
        k = len(working)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = G[working].T
        kkt[n:, :n] = G[working]
        rhs = np.zeros((n + k, 2))
        rhs[:n, 0], rhs[n:, 0], rhs[:n, 1] = -q, w[working], -G[p]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except LinAlgError as exc:
            raise SolverError("QP working rows became linearly dependent") from exc
        (x_w, z), (u, dr) = sol[:n].T, sol[n:].T
        cert = np.zeros(r)
        cert[working], cert[p] = dr, 1.0
        gz = G[p] @ z
        # the full step, unless row p depends on the working rows
        full = np.inf
        if gz < 0.0 and (np.max(np.abs(G.T @ cert))
                         > CERT_TOL * np.abs(cert).sum() * np.max(np.abs(G))):
            full = (w[p] - G[p] @ x_w) / gz
        # the partial step: the first working multiplier u + t dr to reach 0
        shrinking = np.flatnonzero(dr < -MU_TOL * np.max(np.abs(cert)))
        ratios = -u[shrinking] / dr[shrinking]
        t = min(full, ratios.min(initial=np.inf))
        if t == np.inf:
            return _infeasible(problem, np.maximum(cert, 0.0), iters)
        x = x_w + t * z
        mu[:] = 0.0
        mu[working], mu[p] = np.maximum(u + t * dr, 0.0), t
        if t < full:
            del working[shrinking[np.argmin(ratios)]]
        else:
            working, p = sorted(working + [p]), -1

    res = kkt_residual(problem, x, mu)
    scale = 1.0 + float(np.max(np.abs(q))) + float(np.max(np.abs(H)))
    if res > 1e-8 * scale:
        raise SolverError(f"QP solution failed its own KKT certificate: residual {res:.3e}")
    return QpSolution(x, mu, tuple(working), "optimal", iters, res)
