"""QP solver tests; the main oracle is exhaustive active-set enumeration."""

import numpy as np
import pytest

from elcontrol.errors import ConditioningError
from elcontrol.qpsolver import QpProblem, QpSolution, kkt_residual, solve


def enumerate_oracle(problem: QpProblem, tol=1e-9):
    """Solve by trying every subset of at most min(r, n) constraints as
    equalities; a larger subset's KKT matrix is singular.

    Returns (x, mu, status), x and mu None when infeasible. A candidate is
    valid when its KKT system is solvable, all multipliers are nonnegative
    and the full constraint set holds.
    """
    from itertools import combinations

    n, r = problem.n, problem.r
    best, best_obj = (None, None, "infeasible"), np.inf
    for k in range(min(r, n) + 1):
        for subset in combinations(range(r), k):
            S = list(subset)
            KKT = np.zeros((n + k, n + k))
            KKT[:n, :n] = problem.H
            if k:
                KKT[:n, n:] = problem.G[S].T
                KKT[n:, :n] = problem.G[S]
            rhs = np.concatenate([-problem.q, problem.w[S]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            x, mu_s = sol[:n], sol[n:]
            if k and np.min(mu_s) < -tol:
                continue
            if r and np.max(problem.G @ x - problem.w) > tol:
                continue
            obj = problem.objective(x)
            if obj < best_obj - 1e-12:
                mu = np.zeros(r)
                mu[S] = mu_s
                best, best_obj = (x, mu, "optimal"), obj
    return best


def random_problem(rng, n=None, r=None):
    n = n or int(rng.integers(1, 9))
    r = r if r is not None else int(rng.integers(0, 17))
    M = rng.normal(size=(n, n))
    H = M @ M.T + (0.1 + rng.uniform()) * np.eye(n)
    q = rng.normal(size=n)
    G = rng.normal(size=(r, n))
    w = rng.normal(size=r) + 0.5  # bias towards feasible but not always
    return QpProblem(H, q, G, w)


# ---------------------------------------------------------------------------

def test_unconstrained_minimizer():
    p = QpProblem(np.eye(2), np.array([-2.0, 4.0]), np.zeros((0, 2)), np.zeros(0))
    sol = solve(p)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [2.0, -4.0], atol=1e-12)


def test_single_active_bound():
    # min (x-2)^2 s.t. x <= 1  ->  x* = 1, mu = 2(1-2)*-1... mu = 2
    p = QpProblem(np.array([[2.0]]), np.array([-4.0]), np.array([[1.0]]), np.array([1.0]))
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.mu[0] == pytest.approx(2.0, abs=1e-10)
    assert sol.active_set == (0,)


def test_inactive_constraint_multiplier_zero():
    p = QpProblem(np.array([[2.0]]), np.array([-4.0]), np.array([[1.0]]), np.array([10.0]))
    sol = solve(p)
    assert sol.x[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.mu[0] == 0.0
    assert sol.active_set == ()


def test_infeasible_returns_certificate():
    # x <= -1 and -x <= -1 cannot both hold
    p = QpProblem(np.array([[2.0]]), np.zeros(1),
                  np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    sol = solve(p)
    assert sol.status == "infeasible"
    cert = sol.certificate
    assert cert is not None
    assert cert["violation_bound"] > 1e-6
    mu = cert["farkas_multipliers"]
    # Farkas: mu >= 0, G^T mu ~ 0, mu^T w < 0 certifies infeasibility
    assert np.min(mu) >= -1e-12
    assert cert["farkas_stationarity"] < 1e-6
    assert cert["farkas_gap"] < -1e-6


def test_hessian_must_be_positive_definite():
    with pytest.raises(ConditioningError):
        solve(QpProblem(np.array([[0.0]]), np.zeros(1), np.zeros((0, 1)), np.zeros(0)))


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(100)
    solved = 0
    infeasible = 0
    for _ in range(60):
        p = random_problem(rng, n=int(rng.integers(1, 5)), r=int(rng.integers(0, 9)))
        sol = solve(p)
        x_ref, _, status_ref = enumerate_oracle(p)
        assert sol.status == status_ref
        if status_ref == "optimal":
            solved += 1
            assert np.max(np.abs(sol.x - x_ref)) < 1e-8
            assert kkt_residual(p, sol.x, sol.mu) < 1e-8
        else:
            infeasible += 1
    assert solved > 10 and infeasible > 0


def test_objective_scaling_equivariance():
    # scaling H, q, w..., G consistently leaves the minimizer unchanged:
    # scale objective by c: same argmin
    rng = np.random.default_rng(9)
    p = random_problem(rng, n=3, r=6)
    sol = solve(p)
    if sol.status != "optimal":
        pytest.skip("sampled problem infeasible")
    scaled = QpProblem(10.0 * p.H, 10.0 * p.q, p.G, p.w)
    sol2 = solve(scaled)
    assert np.max(np.abs(sol.x - sol2.x)) < 1e-9


def test_degenerate_duplicate_rows():
    # duplicated active rows: solver must still terminate at the optimum
    H = np.eye(2)
    q = np.array([-2.0, 0.0])
    G = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = np.array([1.0, 1.0, 5.0])
    sol = solve(QpProblem(H, q, G, w))
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-10)


def test_equality_like_tight_box():
    # lower == upper box pins the variable
    H = np.eye(1) * 2
    q = np.array([0.0])
    G = np.array([[1.0], [-1.0]])
    w = np.array([0.7, -0.7])
    sol = solve(QpProblem(H, q, G, w))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.7, abs=1e-10)
