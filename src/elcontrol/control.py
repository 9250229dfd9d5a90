"""Controller synthesis and online control laws on latent-linear models.

Tracking works in the latent coordinates: a steady target (x_d, u_d) solves
A x_d + B u_d + c = 0, an infinite-horizon LQR gain stabilizes the error
dynamics, and the published input is recovered through the learned input
map.  Constraint handling keeps barrier rows h(x, u) <= 0 (each row convex
in u by construction) with a rate-based filter: it integrates du/dt =
lambda with lambda chosen by a small QP so that every row satisfies

    dh/dx (f + g u) + dh/du lambda <= alpha(-h)

with alpha a per-row class-K function k1*s + k2*s^2.  A Sontag-type law on
the Lie derivatives of the latent LQR value function covers the nonlinear
design route, and an equilibrium KKT residual certifies converged filter
states as minimizers of ||u - k(x)||^2 over the constraint set.

Closed-loop controllers share one tick, `(model, state, x, y, d_bar,
design, spec, dt) -> (lam, state, u, v)`: the latent state x of the
measured output y, the frozen disturbance, the tick's LQR design, the
barrier spec (or None) and the control period go in; the input rate, the
carried state, the latent input and the published input come out.
`CONTROLLERS` maps each name to its tick, so adding a controller is one
function plus one entry; only the rate filter carries a state.

All operations here are single-sample; controller stepping is sequential
by nature (the filter state carries the integrated input).  Design-time
solves are pure functions and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from . import qpsolver
from .errors import (InfeasibleError, NonFiniteError, NotRealizableError,
                     ValidationError)
from .networks import COND_LIMIT
from .qpsolver import QpProblem

RICCATI_TOL = 1e-8


def _as_matrix(name, M, shape):
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    if M.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {M.shape}")
    return M


def _lyapunov(A, C):
    """Solve A'X + XA + C = 0 for symmetric X (dense Kronecker form)."""
    n = A.shape[0]
    eye = np.eye(n)
    M = np.kron(A.T, eye) + np.kron(eye, A.T)
    X = np.linalg.solve(M, -C.reshape(-1)).reshape(n, n)
    return 0.5 * (X + X.T)


def solve_care(A, B, Q, R):
    """Stabilizing solution P of A'P + PA - P B R^-1 B' P + Q = 0.

    The stable invariant subspace of the 2n x 2n Hamiltonian gives a first
    estimate; Newton correction steps polish it below a Frobenius residual
    of 1e-8, with the residual accumulated in extended precision so stiff
    designs (|P S P| near 1e8) can still be certified.  Raises
    ValidationError when no stabilizing solution exists: a Hamiltonian
    eigenvalue on the imaginary axis, or a result that is not positive
    definite.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    n = A.shape[0]
    A = _as_matrix("A", A, (n, n))
    B = np.asarray(B, dtype=np.float64).reshape(n, -1)
    m = B.shape[1]
    Q = _as_matrix("Q", Q, (n, n))
    R = _as_matrix("R", R, (m, m))
    if np.max(np.abs(Q - Q.T)) > 1e-12 * (1.0 + np.max(np.abs(Q))):
        raise ValidationError("state weight Q must be symmetric")
    try:
        np.linalg.cholesky(R)
    except LinAlgError as exc:
        raise ValidationError("input weight R must be positive definite") from exc

    S = B @ np.linalg.solve(R, B.T)
    ham = np.block([[A, -S], [-Q, -A.T]])
    vals, vecs = np.linalg.eig(ham)
    if np.min(np.abs(vals.real)) < 1e-8 * (1.0 + np.max(np.abs(vals))):
        raise ValidationError(
            "no stabilizing Riccati solution: Hamiltonian eigenvalue on the imaginary axis")
    sel = vals.real < 0
    basis = vecs[:, sel]
    try:
        P = np.linalg.solve(basis[:n].T, basis[n:].T).T
    except LinAlgError as exc:
        raise ValidationError("no stabilizing Riccati solution: "
                              "stable subspace has no graph form") from exc
    P = 0.5 * np.real(P + P.T.conj())

    # residual in extended precision: float64 cancellation noise is
    # eps * |P S P|, which for stiff designs exceeds the gate itself and
    # would both misdirect the Newton step and fail representable solutions
    A_l, S_l, Q_l = (M.astype(np.longdouble) for M in (A, S, Q))

    def residual(P):
        P_l = P.astype(np.longdouble)
        return np.asarray(P_l @ A_l + A_l.T @ P_l - P_l @ S_l @ P_l + Q_l,
                          dtype=np.float64)

    # Newton polish in correction form: each step solves a Lyapunov equation
    # whose right side is the (small) residual, so the attainable floor
    # scales with the residual instead of with |P|^2 as the plain Kleinman
    # recomputation does.  Keep the best iterate: near the floor the
    # residual jitters and a relative break could give up above the
    # absolute gate below.
    best_norm, best_P = np.inf, P
    for _ in range(40):
        res = residual(P)
        res_norm = float(np.linalg.norm(res))
        if res_norm < best_norm:
            best_norm, best_P = res_norm, P
        if res_norm < 0.01 * RICCATI_TOL:
            break
        P = P + _lyapunov(A - S @ P, res)
        P = 0.5 * (P + P.T)
    P = best_P

    res_norm = float(np.linalg.norm(residual(P)))
    if not np.isfinite(res_norm) or res_norm >= RICCATI_TOL:
        raise ValidationError(f"Riccati iteration stalled at residual {res_norm:.3e}")
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise ValidationError("Riccati solution is not positive definite")
    return P


def steady_target(model, y_target, d_bar, tol=1e-6):
    """Latent steady state (x_d, u_d) holding the output at y_target.

    x_d is the latent image of y_target; u_d is the least-squares solution
    of A x_d + B u_d + c = 0.  Returns (x_d, u_d, residual); a residual
    above tol raises NotRealizableError carrying the residual.
    """
    y_target = np.asarray(y_target, dtype=np.float64).reshape(-1)
    d_bar = np.asarray(d_bar, dtype=np.float64).reshape(-1)
    A, B, c = model.linear_core(d_bar)
    x_d = model.x_from_y(y_target, d_bar)
    u_d = np.linalg.lstsq(B, -(A @ x_d + c), rcond=None)[0]
    res = float(np.linalg.norm(A @ x_d + B @ u_d + c))
    if res > tol:
        raise NotRealizableError(
            f"target is not a steady state: core residual {res:.3e} > {tol:.1e}",
            residual=res)
    return x_d, u_d, res


@dataclass(frozen=True)
class LqrDesign:
    """Gain and target of an infinite-horizon regulator in latent coordinates."""

    P: np.ndarray
    K: np.ndarray
    x_d: np.ndarray
    u_d: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("P", "K", "Q", "R"):
            object.__setattr__(self, name, np.atleast_2d(
                np.asarray(getattr(self, name), dtype=np.float64)))
        for name in ("x_d", "u_d"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64).reshape(-1))


def design_lqr(model, y_target, d_bar, Q, R, target_tol=1e-6):
    """LQR design for the latent dynamics frozen at disturbance d_bar.

    Solves the steady-target equation and the Riccati equation, verifies the
    closed loop A - BK is strictly stable, and returns the assembled design.
    """
    d_bar = np.asarray(d_bar, dtype=np.float64).reshape(-1)
    A, B, c = model.linear_core(d_bar)
    x_d, u_d, _ = steady_target(model, y_target, d_bar, tol=target_tol)
    P = solve_care(A, B, Q, R)
    K = np.linalg.solve(np.atleast_2d(np.asarray(R, dtype=np.float64)), B.T @ P)
    if np.max(np.linalg.eigvals(A - B @ K).real) >= 0.0:
        raise ValidationError("closed loop is not strictly stable")
    return LqrDesign(P=P, K=K, x_d=x_d, u_d=u_d, Q=Q, R=R)


def lqr_control(design, x):
    """Regulator law u = u_d - K (x - x_d)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return design.u_d - design.K @ (x - design.x_d)


class DesignCache:
    """LQR designs per disturbance level, quantized to a grid.

    The disturbance is frozen per control step; quantizing it lets nearby
    measurements reuse one Riccati/steady-target solve.
    """

    def __init__(self, model, y_target, Q, R, grid=1e-2, target_tol=1e-6):
        if grid <= 0:
            raise ValidationError("quantization grid must be positive")
        self.model = model
        self.y_target = np.asarray(y_target, dtype=np.float64).reshape(-1)
        self.Q = Q
        self.R = R
        self.grid = float(grid)
        self.target_tol = target_tol
        self._designs = {}

    def design_for(self, d_bar):
        d_bar = np.asarray(d_bar, dtype=np.float64).reshape(-1)
        cell = tuple(int(i) for i in np.rint(d_bar / self.grid))
        if cell not in self._designs:
            d_q = np.array(cell, dtype=np.float64) * self.grid
            self._designs[cell] = design_lqr(self.model, self.y_target, d_q,
                                             self.Q, self.R, self.target_tol)
        return self._designs[cell]


@dataclass(frozen=True)
class BarrierSpec:
    """Constraint description for the safety filters.

    Rows are ordered [output rows, upper input rows, lower input rows] and
    each one keeps h_i <= 0 under the class-K bound alpha(s) = k1*s + k2*s^2.
    margin tightens every row by a constant, absorbing the discretization
    error of a sampled controller; rate_weight is the strong-convexity
    weight on the input rate in the filter objective.
    """

    z_max: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    k1: np.ndarray = field(default=1.0)
    k2: np.ndarray = field(default=1.0)
    rate_weight: float = 1.0
    margin: float = 0.0

    def __post_init__(self):
        for name in ("z_max", "v_min", "v_max"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64).reshape(-1))
        if self.v_min.shape != self.v_max.shape:
            raise ValidationError("input bounds must have matching shapes")
        if not np.all(self.v_min < self.v_max):
            raise ValidationError("every lower input bound must be below the upper one")
        rows = self.n_rows
        for name in ("k1", "k2"):
            coef = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if coef.size == 1:
                coef = np.full(rows, coef[0])
            if coef.shape != (rows,):
                raise ValidationError(f"{name} must be scalar or one value per row")
            if not np.all(coef > 0):
                raise ValidationError(f"{name} must be positive (class-K requirement)")
            object.__setattr__(self, name, coef)
        if not self.rate_weight > 0:
            raise ValidationError("rate_weight must be positive")
        if not self.margin >= 0:
            raise ValidationError("margin must be nonnegative")
        object.__setattr__(self, "rate_weight", float(self.rate_weight))
        object.__setattr__(self, "margin", float(self.margin))

    @property
    def n_rows(self):
        return self.z_max.size + 2 * self.v_min.size

    def alpha(self, s):
        """Per-row class-K bound; odd in s so violations are pushed back."""
        s = np.asarray(s, dtype=np.float64)
        return self.k1 * s + self.k2 * s * np.abs(s)


def barrier_values(model, x, u, d_bar, spec):
    """All barrier rows and their latent-state/input gradients.

    Returns (h, dh_dx, dh_du) with one row per constraint: the constrained
    outputs Xi(x, u, d) - z_max, then u minus the latent image of the upper
    input bound, then the latent image of the lower bound minus u.  The
    margin is already added, so the filters can treat h <= 0 uniformly.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    d_bar = np.asarray(d_bar, dtype=np.float64).reshape(-1)
    n, m = x.size, u.size
    if spec.v_min.size != m:
        raise ValidationError("input bound dimension does not match the model")

    z, dz_dx, dz_du = model.z_from_latent(x, u, d_bar, with_gradients=True)
    if spec.z_max.size != z.size:
        raise ValidationError("output bound dimension does not match the model")
    y = model.y_from_x(x, d_bar)
    _, dx_dy, _ = model.state_jacobians(y, d_bar)
    if np.linalg.cond(dx_dy) > COND_LIMIT:
        raise ValidationError("state map Jacobian is too ill-conditioned for barrier gradients")

    u_hi, du_hi_dy, _ = model.u_from_v_with_jac(spec.v_max, y, d_bar)
    u_lo, du_lo_dy, _ = model.u_from_v_with_jac(spec.v_min, y, d_bar)
    # chain through y(x): dy/dx is the inverse state-map Jacobian
    du_hi_dx = np.linalg.solve(dx_dy.T, du_hi_dy.T).T
    du_lo_dx = np.linalg.solve(dx_dy.T, du_lo_dy.T).T

    h = np.concatenate([z - spec.z_max, u - u_hi, u_lo - u]) + spec.margin
    eye = np.eye(m)
    dh_dx = np.vstack([dz_dx, -du_hi_dx, du_lo_dx])
    dh_du = np.vstack([dz_du, eye, -eye])
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(dh_dx)) and np.all(np.isfinite(dh_du))):
        raise NonFiniteError("barrier evaluation produced non-finite values; "
                             "input bounds may be outside the learned map range")
    return h, dh_dx, dh_du


@dataclass(frozen=True)
class ControllerState:
    """Integrated internal input of the rate-based filter, plus its clock."""

    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(u)):
            raise ValidationError("controller state input must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "t", float(self.t))


def icbf_problem(model, x, u, d_bar, design, spec):
    """Rate-filter QP in the input rate lambda.

    The objective is the derivative of ||u - k(x)||^2 along the dynamics
    plus rate_weight * ||lambda||^2; each barrier row constrains lambda
    through dh/dx (f + g u) + dh/du lambda <= alpha(-h).  Returns
    (problem, objective_shift, h) where objective_shift is the
    lambda-independent term, so problem.objective(lam) + objective_shift
    equals the full expression.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    A, B, c = model.linear_core(d_bar)
    drift = A @ x + B @ u + c
    err = u - lqr_control(design, x)
    h, dh_dx, dh_du = barrier_values(model, x, u, d_bar, spec)

    m = u.size
    problem = QpProblem(2.0 * spec.rate_weight * np.eye(m), 2.0 * err,
                        dh_du, spec.alpha(-h) - dh_dx @ drift)
    # d/dt ||u - k||^2 = 2 err' lambda - 2 err' (dk/dx) xdot, with dk/dx = -K
    shift = -2.0 * err @ (-design.K @ drift)
    return problem, float(shift), h


def icbf_step(model, state, x, d_bar, design, spec, dt):
    """One sampled step of the rate-based safety filter.

    Solves the rate QP at (x, state.u), integrates u by an explicit Euler
    step of length dt, and maps the result to the published input.  Returns
    (lam, new_state, v).  An infeasible QP raises InfeasibleError carrying
    every barrier value for diagnosis.
    """
    if not dt > 0:
        raise ValidationError("control period must be positive")
    d_bar = np.asarray(d_bar, dtype=np.float64).reshape(-1)
    problem, _, h = icbf_problem(model, x, state.u, d_bar, design, spec)
    sol = qpsolver.solve(problem)
    if sol.status != "optimal":
        cert = dict(sol.certificate or {})
        cert["barrier_values"] = h
        raise InfeasibleError("rate filter QP is infeasible", certificate=cert)
    lam = sol.x
    u_new = state.u + dt * lam
    y = model.y_from_x(np.asarray(x, dtype=np.float64).reshape(-1), d_bar)
    v = model.v_from_u(u_new, y, d_bar)
    return lam, ControllerState(u=u_new, t=state.t + dt), v


def sontag_control(lf_v, lg_v):
    """Sontag-type stabilizing law from the Lyapunov Lie derivatives.

    u = -(L_fV + sqrt(L_fV^2 + ||L_gV||^4)) / ||L_gV||^2 * L_gV, and zero
    when L_gV vanishes.
    """
    lg_v = np.asarray(lg_v, dtype=np.float64).reshape(-1)
    lf_v = float(lf_v)
    gg = float(lg_v @ lg_v)
    if gg == 0.0:
        return np.zeros_like(lg_v)
    return -((lf_v + np.sqrt(lf_v ** 2 + gg ** 2)) / gg) * lg_v


def lqr_tick(model, state, x, y, d_bar, design, spec, dt):
    """Unfiltered regulator: u = lqr_control(design, x), published through Psi."""
    u = lqr_control(design, x)
    return np.zeros_like(u), state, u, model.v_from_u(u, y, d_bar)


def sontag_tick(model, state, x, y, d_bar, design, spec, dt):
    """Sontag's law around u_d on the Lie derivatives of V = (x - x_d)' P (x - x_d)."""
    A, B, c = model.linear_core(d_bar)
    pe = design.P @ (x - design.x_d)
    lf = 2.0 * pe @ (A @ x + B @ design.u_d + c)
    lg = 2.0 * B.T @ pe
    u = design.u_d + sontag_control(lf, lg)
    return np.zeros_like(u), state, u, model.v_from_u(u, y, d_bar)


def icbf_tick(model, state, x, y, d_bar, design, spec, dt):
    """Rate filter; without a state yet, the integrated input starts at the
    preimage of the midpoint of (v_min, v_max)."""
    if state is None:
        state = ControllerState(u=model.u_from_v(0.5 * (spec.v_min + spec.v_max), y, d_bar))
    lam, state, v = icbf_step(model, state, x, d_bar, design, spec, dt)
    return lam, state, state.u, v


CONTROLLERS = {"lqr": lqr_tick, "icbf": icbf_tick, "sontag": sontag_tick}


def equilibrium_kkt_residual(model, design, spec, x, u, d_bar=None, feas_tol=1e-6):
    """Optimality residual of a converged filter state.

    At an equilibrium the filter state must minimize ||u - k(x)||^2 over
    h(x, u) <= 0; this returns the joint stationarity-plus-complementarity
    residual minimized over nonnegative multipliers (a small nonnegative
    least-squares problem).  Any barrier row above feas_tol raises
    InfeasibleError: the point is not in the feasible set.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if d_bar is None:
        d_bar = np.zeros(model.dims.nd)
    h, _, dh_du = barrier_values(model, x, u, d_bar, spec)
    if np.max(h) > feas_tol:
        raise InfeasibleError("point is not in the feasible set",
                              certificate={"barrier_values": h})
    stat = 2.0 * (u - lqr_control(design, x))
    rows = h.size
    # min over mu >= 0 of ||stat + dh_du' mu||^2 + ||mu o h||^2, tiny ridge
    H = 2.0 * (dh_du @ dh_du.T + np.diag(h * h)) + 1e-12 * np.eye(rows)
    q = 2.0 * (dh_du @ stat)
    sol = qpsolver.solve(QpProblem(H, q, -np.eye(rows), np.zeros(rows)))
    mu = sol.x
    res = stat + dh_du.T @ mu
    comp = mu * h
    return float(np.sqrt(res @ res + comp @ comp))
