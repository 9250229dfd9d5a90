"""Controller synthesis and safety filter tests.

Oracles: closed-form Riccati roots, an independent library CARE solve,
hand-worked KKT cases for the filters, finite differences for barrier
gradients, and closed-loop simulations checked against the constraints
they must enforce.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elcontrol.control import (RICCATI_REL_TOL, RICCATI_TOL, BarrierSpec, ControllerState,
                               DesignCache, LqrDesign, barrier_values, design_lqr,
                               equilibrium_kkt_residual,
                               icbf_problem, icbf_step, lqr_control,
                               solve_care, sontag_control, steady_target)
from elcontrol.errors import (ConditioningError, InfeasibleError, NonFiniteError,
                              NotRealizableError, ValidationError)
from elcontrol.model import ELModel, ModelDims


def care_residual(A, B, Q, R, P):
    """Frobenius residual in extended precision, as `solve_care` gates it:
    in float64 the cancellation noise eps * |P S P| alone exceeds
    RICCATI_TOL once |P| nears 1e5."""
    S = B @ np.linalg.solve(R, B.T)
    A, S, Q, P = (M.astype(np.longdouble) for M in (A, S, Q, P))
    return float(np.linalg.norm(np.asarray(P @ A + A.T @ P - P @ S @ P + Q, dtype=np.float64)))


def scalar_core_model(a, b, c=0.0):
    """dims-(1,1,1,1) model with identity maps and scalar core (a, b, c)."""
    m = ELModel(ModelDims(1, 1, 1, 1))
    m.a_net.init_zero(m.params, last_bias=np.array([float(a)]))
    m.b_net.init_zero(m.params, last_bias=np.array([float(b)]))
    m.c_net.init_zero(m.params, last_bias=np.array([float(c)]))
    return m


# inert rows for tests that exercise a single constraint; the input bounds
# stay within the sinh range of the identity input map
WIDE = dict(z_max=[1e6], v_min=[-100.0])


# ---------------------------------------------------------------------------
# Riccati

def test_care_scalar_trivial():
    assert abs(solve_care(0.0, 1.0, 1.0, 1.0)[0, 0] - 1.0) < 1e-12


def test_care_scalar_closed_form():
    # -2P - P^2 + 1 = 0, positive root sqrt(2) - 1
    assert abs(solve_care(-1.0, 1.0, 1.0, 1.0)[0, 0] - (np.sqrt(2) - 1)) < 1e-12


def check_care_draw(n, m, seed):
    """`solve_care` on a random draw gives a symmetric positive definite P
    inside the gate it applies, with A - BK Hurwitz, that matches the library
    solve to 1e-8 of its largest entry; where only the gate relative to scale
    certifies P, to 1e-6, since there (|P| up to 1.6e9) the library's own P
    can be 4e-8 off a 60-digit Newton solution (seed 1043, n 4, m 1).
    Returns whether the absolute RICCATI_TOL alone certifies P."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    M = rng.normal(size=(n, n))
    Q = M @ M.T + np.eye(n)
    N = rng.normal(size=(m, m))
    R = N @ N.T + np.eye(m)
    P_ref = scipy_linalg.solve_continuous_are(A, B, Q, R)
    P = solve_care(A, B, Q, R)
    assert np.max(np.abs(P - P.T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(P)) > 0
    S, norm = B @ np.linalg.solve(R, B.T), np.linalg.norm
    scale = norm(Q) + norm(P) * (2 * norm(A) + norm(S) * norm(P))
    residual = care_residual(A, B, Q, R, P)
    assert residual < max(RICCATI_TOL, RICCATI_REL_TOL * scale)
    K = np.linalg.solve(R, B.T @ P)
    assert np.max(np.linalg.eigvals(A - B @ K).real) < 0
    tol = 1e-8 if residual < RICCATI_TOL else 1e-6
    assert np.max(np.abs(P - P_ref)) < tol * (1 + np.max(np.abs(P_ref)))
    return residual < RICCATI_TOL


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_care_random_residual_and_hurwitz(n, m, seed):
    check_care_draw(n, m, seed)


# the draws of seeds 0-1499 that the absolute RICCATI_TOL alone refuses:
# |P| 1.1e5 to 1.6e9, residuals 6e-22 to 7e-20 of the scale of the terms
STIFF_DRAWS = [(4, 1, seed) for seed in (113, 233, 286, 312, 397, 611, 723, 727, 756, 823,
                                         840, 986, 999, 1043, 1060, 1258, 1386, 1400, 1415,
                                         1485)] + [(3, 1, seed) for seed in (385, 705, 741)] \
    + [(2, 1, seed) for seed in (281, 477, 544)]


@pytest.mark.parametrize("n, m, seed", STIFF_DRAWS)
def test_care_certifies_stiff_draws_relative_to_scale(n, m, seed):
    assert not check_care_draw(n, m, seed)


def test_care_matches_library_solver():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(42)
    A = rng.normal(size=(5, 5))
    B = rng.normal(size=(5, 2))
    M = rng.normal(size=(5, 5))
    Q = M @ M.T + np.eye(5)
    R = np.diag([1.0, 2.0])
    P = solve_care(A, B, Q, R)
    P_ref = scipy_linalg.solve_continuous_are(A, B, Q, R)
    assert np.max(np.abs(P - P_ref)) < 1e-8 * (1 + np.max(np.abs(P_ref)))


def test_care_rejects_imaginary_axis():
    # undamped oscillator with no input authority
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError):
        solve_care(A, np.zeros((2, 1)), np.eye(2), np.eye(1))


def test_care_rejects_indefinite_r():
    with pytest.raises(ValidationError):
        solve_care(-1.0, 1.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# steady targets and LQR

def test_steady_target_hand_cases():
    m = scalar_core_model(-1.0, 1.0)
    m2 = ELModel(ModelDims(2, 2, 1, 1))
    m2.a_net.init_zero(m2.params, last_bias=(-np.eye(2)).reshape(-1))
    m2.b_net.init_zero(m2.params, last_bias=np.eye(2).reshape(-1))
    x_d, u_d, res = steady_target(m2, np.array([1.0, 2.0]), np.zeros(1))
    assert np.allclose(x_d, [1.0, 2.0]) and np.allclose(u_d, [1.0, 2.0])
    assert res < 1e-12

    m2.c_net.init_zero(m2.params, last_bias=np.array([1.0, 0.0]))
    _, u_d, _ = steady_target(m2, np.zeros(2), np.zeros(1))
    assert np.allclose(u_d, [-1.0, 0.0])


def test_steady_target_random_model_residual():
    m = ELModel.random(ModelDims(3, 3, 2, 1), seed=6)
    _, _, res = steady_target(m, np.array([0.2, -0.1, 0.3]), np.array([0.1, -0.2]))
    assert res < 1e-10


def test_steady_target_unrealizable():
    # B has rank 1 in a 2-state core and c points out of its range
    m = ELModel(ModelDims(2, 1, 1, 1))
    m.b_net.init_zero(m.params, last_bias=np.array([1.0, 0.0]))
    m.c_net.init_zero(m.params, last_bias=np.array([0.0, 1.0]))
    with pytest.raises(NotRealizableError) as info:
        steady_target(m, np.zeros(2), np.zeros(1))
    assert info.value.residual == pytest.approx(1.0)


def test_design_lqr_identity_core():
    m2 = ELModel(ModelDims(2, 2, 1, 1))
    m2.a_net.init_zero(m2.params, last_bias=(-np.eye(2)).reshape(-1))
    m2.b_net.init_zero(m2.params, last_bias=np.eye(2).reshape(-1))
    design = design_lqr(m2, np.array([1.0, -1.0]), np.zeros(1), np.eye(2), np.eye(2))
    # per-axis scalar Riccati: P = (sqrt(2) - 1) I, K = P
    assert np.allclose(design.P, (np.sqrt(2) - 1) * np.eye(2), atol=1e-10)
    assert np.allclose(design.K, design.P, atol=1e-10)
    assert np.allclose(lqr_control(design, design.x_d), design.u_d)


def test_lqr_control_hand_case():
    design = LqrDesign(P=[[1.0]], K=[[1.0]], x_d=[0.0], u_d=[0.0],
                       Q=[[1.0]], R=[[1.0]])
    assert lqr_control(design, np.array([2.0]))[0] == pytest.approx(-2.0)


def test_lqr_closed_loop_converges():
    m = ELModel.random(ModelDims(3, 3, 2, 1), seed=8)
    d_bar = np.array([0.1, -0.1])
    y_d = np.array([0.3, -0.2, 0.1])
    design = design_lqr(m, y_d, d_bar, np.eye(3), np.eye(3))
    A, B, c = m.linear_core(d_bar)
    rate = -np.max(np.linalg.eigvals(A - B @ design.K).real)
    horizon = 20.0 / rate
    dt = min(1e-3, horizon / 20000)
    x = design.x_d + np.array([1.0, -2.0, 0.5])
    for _ in range(int(horizon / dt)):
        def f(xk):
            return A @ xk + B @ lqr_control(design, xk) + c
        k1 = f(x); k2 = f(x + dt / 2 * k1)
        k3 = f(x + dt / 2 * k2); k4 = f(x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.linalg.norm(x - design.x_d) < 1e-4


def test_design_cache_quantizes():
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=3)
    cache = DesignCache(m, np.array([0.1, 0.0]), np.eye(2), np.eye(2), grid=0.05)
    d_a = cache.design_for(np.array([0.101]))
    d_b = cache.design_for(np.array([0.099]))   # same cell after rounding
    d_c = cache.design_for(np.array([0.149]))   # different cell
    assert d_a is d_b
    assert d_c is not d_a


# ---------------------------------------------------------------------------
# barrier rows

def test_barrier_spec_validation():
    with pytest.raises(ValidationError):
        BarrierSpec(z_max=[1.0], v_min=[1.0], v_max=[0.0])
    with pytest.raises(ValidationError):
        BarrierSpec(z_max=[1.0], v_min=[-1.0], v_max=[1.0], k1=0.0)
    with pytest.raises(ValidationError):
        BarrierSpec(z_max=[1.0], v_min=[-1.0], v_max=[1.0], rate_weight=0.0)
    with pytest.raises(ValidationError):
        BarrierSpec(z_max=[1.0], v_min=[-1.0], v_max=[1.0], margin=-0.1)


def test_barrier_spec_alpha_is_odd_quadratic():
    spec = BarrierSpec(z_max=[1.0], v_min=[-1.0], v_max=[1.0], k1=2.0, k2=0.5)
    assert np.allclose(spec.alpha(np.full(3, 2.0)), 2.0 * 2 + 0.5 * 4)
    assert np.allclose(spec.alpha(np.full(3, -2.0)), -(2.0 * 2 + 0.5 * 4))


def test_barrier_values_identity_model():
    m = ELModel(ModelDims(1, 1, 1, 1))
    spec = BarrierSpec(v_max=[1.0], margin=0.25, **WIDE)
    h, dh_dx, dh_du = barrier_values(m, np.array([0.0]), np.array([0.3]),
                                     np.zeros(1), spec)
    # identity input map: upper row is u - v_max + margin
    assert h[1] == pytest.approx(0.3 - 1.0 + 0.25)
    assert h[2] == pytest.approx(-100.0 - 0.3 + 0.25)
    assert np.allclose(dh_du, [[0.0], [1.0], [-1.0]])
    assert np.allclose(dh_dx[1:], 0.0, atol=1e-12)


def test_barrier_values_gradients_match_fd():
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=11)
    spec = BarrierSpec(z_max=[2.0], v_min=[-3.0, -3.0], v_max=[3.0, 3.0])
    x = np.array([0.3, -0.2]); u = np.array([0.4, 0.1]); d = np.array([0.2])
    h, dh_dx, dh_du = barrier_values(m, x, u, d, spec)
    step = 1e-6
    for j in range(2):
        e = np.zeros(2); e[j] = step
        fd = (barrier_values(m, x + e, u, d, spec)[0]
              - barrier_values(m, x - e, u, d, spec)[0]) / (2 * step)
        assert np.max(np.abs(fd - dh_dx[:, j])) < 1e-6
        fd = (barrier_values(m, x, u + e, d, spec)[0]
              - barrier_values(m, x, u - e, d, spec)[0]) / (2 * step)
        assert np.max(np.abs(fd - dh_du[:, j])) < 1e-6


def test_ill_conditioned_state_map_is_one_error_for_prediction_and_barriers():
    m = ELModel.random(ModelDims(3, 3, 2, 2), seed=0)
    bias = m.params["phi.l0.c.b3"].copy()
    bias[0] = 1e13
    m.params["phi.l0.c.b3"] = bias
    spec = BarrierSpec(z_max=[1.0, 1.0], v_min=[-1.0] * 3, v_max=[1.0] * 3)
    with pytest.raises(ConditioningError, match="condition number"):
        m.predict_ydot(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(2))
    with pytest.raises(ConditioningError, match="condition number"):
        barrier_values(m, np.zeros(3), np.zeros(3), np.zeros(2), spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_barrier_values_rejects_overflowing_bounds():
    m = ELModel(ModelDims(1, 1, 1, 1))
    spec = BarrierSpec(z_max=[1.0], v_min=[-1e9], v_max=[1e9])
    with pytest.raises(NonFiniteError):
        barrier_values(m, np.zeros(1), np.zeros(1), np.zeros(1), spec)


# ---------------------------------------------------------------------------
# rate-based filter

def test_icbf_objective_identity():
    # assembled QP objective must equal the expanded rate derivative
    rng = np.random.default_rng(3)
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=2)
    d_bar = np.array([0.1])
    design = design_lqr(m, np.array([0.1, -0.2]), d_bar, np.eye(2), np.eye(2))
    spec = BarrierSpec(z_max=[3.0], v_min=[-4.0, -4.0], v_max=[4.0, 4.0],
                       rate_weight=0.7)
    A, B, c = m.linear_core(d_bar)
    for _ in range(1000):
        x = rng.normal(size=2) * 0.5
        u = rng.normal(size=2) * 0.5
        lam = rng.normal(size=2)
        problem, shift, _ = icbf_problem(m, x, u, d_bar, design, spec)
        drift = A @ x + B @ u + c
        err = u - lqr_control(design, x)
        direct = (spec.rate_weight * lam @ lam + 2 * err @ lam
                  - 2 * err @ (-design.K @ drift))
        assert abs(problem.objective(lam) + shift - direct) < 1e-10 * (1 + abs(direct))


def test_icbf_step_zero_rate_at_nominal():
    # u already equals k(x) and every row is slack: nothing to do
    m = scalar_core_model(-1.0, 1.0)
    design = design_lqr(m, np.zeros(1), np.zeros(1), np.eye(1), np.eye(1))
    spec = BarrierSpec(v_max=[50.0], **WIDE)
    x = np.array([0.4])
    state = ControllerState(u=lqr_control(design, x), t=1.0)
    lam, new_state, v = icbf_step(m, state, x, np.zeros(1), design, spec, 1e-3)
    assert np.max(np.abs(lam)) < 1e-9
    assert np.allclose(new_state.u, state.u, atol=1e-12)
    assert new_state.t == pytest.approx(1.001)
    assert np.allclose(v, new_state.u)   # identity input map


def test_icbf_step_hand_kkt():
    # core x' = u, k(x) = -x, single effective row u <= 1 with alpha(s) ~ s:
    # at x = -2, u = 0 the unconstrained rate is 2, the row caps it at 1
    m = scalar_core_model(0.0, 1.0)
    design = design_lqr(m, np.zeros(1), np.zeros(1), np.eye(1), np.eye(1))
    assert design.K[0, 0] == pytest.approx(1.0)
    spec = BarrierSpec(v_max=[1.0], k1=1.0, k2=1e-12, **WIDE)
    state = ControllerState(u=np.zeros(1))
    lam, _, _ = icbf_step(m, state, np.zeros(1), np.zeros(1), design, spec, 1e-3)
    assert abs(lam[0]) < 1e-9
    lam, new_state, _ = icbf_step(m, state, np.array([-2.0]), np.zeros(1),
                                  design, spec, 1e-3)
    assert lam[0] == pytest.approx(1.0, abs=1e-9)
    assert new_state.u[0] == pytest.approx(1e-3, abs=1e-12)


def test_icbf_step_infeasible_reports_barriers():
    # the constant output map makes the violated z row unsatisfiable for any
    # rate: its gradient is zero, so no lambda can restore h_z <= 0
    m = scalar_core_model(0.0, 1.0)
    design = design_lqr(m, np.zeros(1), np.zeros(1), np.eye(1), np.eye(1))
    spec = BarrierSpec(z_max=[-100.0], v_min=[-1.0], v_max=[1.0])
    state = ControllerState(u=np.zeros(1))
    with pytest.raises(InfeasibleError) as info:
        icbf_step(m, state, np.zeros(1), np.zeros(1), design, spec, 1e-3)
    assert "barrier_values" in info.value.certificate
    assert info.value.certificate["barrier_values"][0] > 0


def test_icbf_step_rejects_nonpositive_period():
    m = scalar_core_model(0.0, 1.0)
    design = design_lqr(m, np.zeros(1), np.zeros(1), np.eye(1), np.eye(1))
    spec = BarrierSpec(v_max=[1.0], **WIDE)
    with pytest.raises(ValidationError):
        icbf_step(m, ControllerState(u=np.zeros(1)), np.zeros(1), np.zeros(1),
                  design, spec, 0.0)


def test_icbf_closed_loop_binding_equilibrium():
    # x' = -4x + u, target needs u_d = 8 but the input row caps u at 1;
    # the loop must settle on the barrier and certify optimality there
    m = scalar_core_model(-4.0, 1.0)
    design = design_lqr(m, np.array([2.0]), np.zeros(1), np.eye(1), np.eye(1))
    spec = BarrierSpec(v_max=[1.0], k1=10.0, k2=1.0, rate_weight=0.05, **WIDE)
    dt = 2e-3
    state = ControllerState(u=np.zeros(1))
    x = np.zeros(1)
    h_max = -np.inf
    for _ in range(3000):
        lam, state, v = icbf_step(m, state, x, np.zeros(1), design, spec, dt)
        h_max = max(h_max, float(state.u[0] - 1.0))
        x = x + dt * (-4.0 * x + state.u)
    assert h_max <= 1e-6
    assert abs(-4.0 * x[0] + state.u[0]) < 1e-8      # settled equilibrium
    assert np.max(np.abs(lam)) < 1e-8
    # non-vacuous: the nominal law still asks for more than the cap
    assert lqr_control(design, x)[0] > 1.5
    res = equilibrium_kkt_residual(m, design, spec, x, state.u)
    assert res < 1e-6


# ---------------------------------------------------------------------------
# equilibrium optimality residual

def test_equilibrium_residual_trivial():
    m = scalar_core_model(-1.0, 1.0)
    design = design_lqr(m, np.zeros(1), np.zeros(1), np.eye(1), np.eye(1))
    spec = BarrierSpec(v_max=[50.0], **WIDE)
    x = np.array([0.2])
    res = equilibrium_kkt_residual(m, design, spec, x, lqr_control(design, x))
    assert res < 1e-10


def test_equilibrium_residual_active_hand_case():
    # k(x) = 2 at x = 0 while the upper input row pins u at 1: mu = 2 closes
    # the stationarity gap exactly
    m = scalar_core_model(0.0, 1.0)
    design = LqrDesign(P=[[1.0]], K=[[1.0]], x_d=[0.0], u_d=[2.0],
                       Q=[[1.0]], R=[[1.0]])
    spec = BarrierSpec(v_max=[1.0], **WIDE)
    res = equilibrium_kkt_residual(m, design, spec, np.zeros(1), np.ones(1))
    assert res < 1e-8


def test_equilibrium_residual_rejects_infeasible_point():
    m = scalar_core_model(0.0, 1.0)
    design = LqrDesign(P=[[1.0]], K=[[1.0]], x_d=[0.0], u_d=[0.0],
                       Q=[[1.0]], R=[[1.0]])
    spec = BarrierSpec(v_max=[1.0], **WIDE)
    with pytest.raises(InfeasibleError) as info:
        equilibrium_kkt_residual(m, design, spec, np.zeros(1), np.array([2.0]))
    assert "barrier_values" in info.value.certificate


# ---------------------------------------------------------------------------
# Sontag law

def test_sontag_branches():
    assert np.array_equal(sontag_control(3.0, np.zeros(2)), np.zeros(2))
    # L_fV = 0, L_gV = 2: u = -sqrt(16)/4 * 2 = -2
    assert sontag_control(0.0, np.array([2.0]))[0] == pytest.approx(-2.0)


def test_sontag_decreases_clf_scalar_unstable_plant():
    # plant y' = y + v with V = P y^2, P the Riccati solution 1 + sqrt(2)
    P = solve_care(1.0, 1.0, 1.0, 1.0)[0, 0]
    assert P == pytest.approx(1.0 + np.sqrt(2))
    for y in np.linspace(-5, 5, 41):
        if y == 0.0:
            continue
        lf_v = 2.0 * P * y * y          # dV/dy * f, f = y
        lg_v = np.array([2.0 * P * y])  # dV/dy * g, g = 1
        v = sontag_control(lf_v, lg_v)
        vdot = lf_v + lg_v @ v
        assert vdot < 0.0
