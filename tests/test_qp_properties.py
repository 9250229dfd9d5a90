"""The QP's certificate as a property over random problems.

Over n 1-6, r 0-12 and seeds, `solve` either raises SolverError or returns
a result that checks out on its own: "optimal" passes `kkt_residual`, and
"infeasible" carries Farkas multipliers mu >= 0 with G^T mu ~ 0 and
w^T mu < 0, whose `violation_bound` no x beats.  The draws are random
positive definite problems, the same with duplicate and positively scaled
rows, boxes, the equilibrium nonnegative least-squares form of
`control.equilibrium_kkt_residual`, and random rows under a rank-deficient
Hessian with q outside its range.  On the well-conditioned draws `solve`
must also agree with exhaustive active-set enumeration.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from test_qpsolver import enumerate_oracle, random_problem

from elcontrol.errors import SolverError
from elcontrol.qpsolver import CERT_TOL, QpProblem, kkt_residual, solve

sizes = st.integers(1, 6)
row_counts = st.integers(0, 12)
seeds = st.integers(0, 2 ** 32 - 1)


def with_dependent_rows(rng, p):
    """p plus copies of some of its rows, each scaled by a positive factor
    (1 for an exact duplicate) with its bound scaled alike."""
    pick = rng.integers(0, p.r, size=int(rng.integers(1, p.r + 1)))
    scale = np.where(rng.uniform(size=pick.size) < 0.5, 1.0, rng.uniform(0.1, 10.0, pick.size))
    return QpProblem(p.H, p.q, np.vstack([p.G, scale[:, None] * p.G[pick]]),
                     np.concatenate([p.w, scale * p.w[pick]]))


def box(rng, n):
    """lo <= x <= hi; infeasible in any coordinate where lo > hi."""
    lo, hi = rng.normal(size=n), rng.normal(size=n) + 0.5
    H = rng.normal(size=(n, n))
    return QpProblem(H @ H.T + 0.5 * np.eye(n), 3.0 * rng.normal(size=n),
                     np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([hi, -lo]))


def nnls(rng, n):
    """min ||stat + D' mu||^2 + ||mu o h||^2 over mu >= 0, as the equilibrium
    residual poses it; mu = 0 is feasible."""
    D = rng.normal(size=(n, n))
    H = 2.0 * (D @ D.T + np.diag(rng.normal(size=n) ** 2)) + 1e-12 * np.eye(n)
    return QpProblem(H, 2.0 * D @ rng.normal(size=n), -np.eye(n), np.zeros(n))


def rank_deficient(rng, n, r, rank):
    """Random rows under H = 2 D D' + 1e-12 I with D of rank < n, and a
    generic q, which lies outside the range of D: the minimizer is huge."""
    D = rng.normal(size=(n, rank))
    p = random_problem(rng, n=n, r=r)
    return QpProblem(2.0 * D @ D.T + 1e-12 * np.eye(n), rng.normal(size=n), p.G, p.w)


def check_certificate(rng, p, feasible_x=None):
    """Solve p; an "optimal" result must pass the KKT check, an
    "infeasible" one must carry a valid Farkas certificate, which
    `feasible_x` (a known feasible point) must not contradict."""
    try:
        sol = solve(p)
    except SolverError:
        return None
    if sol.status == "optimal":
        scale = 1.0 + np.max(np.abs(p.q)) + np.max(np.abs(p.H))
        assert kkt_residual(p, sol.x, sol.mu) <= 1e-8 * scale
        return sol
    assert sol.status == "infeasible"
    cert = sol.certificate
    mu = cert["farkas_multipliers"]
    assert np.min(mu) >= 0.0 and mu.sum() > 0.0
    gt_mu = p.G.T @ mu
    assert np.max(np.abs(gt_mu)) <= CERT_TOL * mu.sum() * np.max(np.abs(p.G))
    assert mu @ p.w < 0.0
    assert cert["violation_bound"] == -(mu @ p.w) / mu.sum()
    xs = 10.0 * rng.normal(size=(20, p.n))
    if feasible_x is not None:
        xs = np.vstack([xs, feasible_x])
    for x in xs:
        # mu' (Gx - w) <= sum(mu) max(Gx - w), and mu' G x >= -|G' mu|_1 |x|_inf
        slack = np.abs(gt_mu).sum() * np.max(np.abs(x)) / mu.sum()
        assert cert["violation_bound"] <= np.max(p.G @ x - p.w) + slack + 1e-12
    return sol


def check_against_oracle(rng, p):
    sol = check_certificate(rng, p)
    x_ref, _, status = enumerate_oracle(p)
    assert sol is not None and sol.status == status
    if status == "optimal":
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-8 * (1.0 + np.max(np.abs(x_ref)))


@given(sizes, row_counts, seeds)
def test_random_problems_match_enumeration(n, r, s):
    rng = np.random.default_rng(s)
    check_against_oracle(rng, random_problem(rng, n=n, r=r))


@given(sizes, st.integers(1, 6), seeds)
def test_duplicate_and_scaled_rows_match_enumeration(n, r, s):
    rng = np.random.default_rng(s)
    check_against_oracle(rng, with_dependent_rows(rng, random_problem(rng, n=n, r=r)))


@given(sizes, seeds)
def test_boxes_match_enumeration(n, s):
    rng = np.random.default_rng(s)
    check_against_oracle(rng, box(rng, n))


@given(sizes, seeds)
def test_equilibrium_least_squares_is_solved(n, s):
    rng = np.random.default_rng(s)
    p = nnls(rng, n)
    assert check_certificate(rng, p, feasible_x=np.zeros(n)).status == "optimal"


@given(sizes, row_counts, seeds)
def test_rank_deficient_hessian_gets_no_wrong_verdict(n, r, s):
    """Badly conditioned: `solve` may give up with SolverError, but an
    answer it does return must check out."""
    rng = np.random.default_rng(s)
    for rank in range(n):
        check_certificate(rng, rank_deficient(rng, n, r, rank))
