"""Model assembly, prediction, loss/training and dataset io tests.

Oracles: hand-computable configurations (identity/diagonal maps), central
finite differences for gradients and for simulated-teacher derivatives, and
an independently integrated linear system for the identification check.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elcontrol.autodiff as ad
from elcontrol.errors import NonFiniteError, TrainingDivergedError, ValidationError
from elcontrol.model import (GRAD_CLIP_NORM, ELModel, ModelArch, ModelDims, TrainConfig,
                             TrajectoryDataset, default_q_e, load_model, loss,
                             read_csv, save_model, train, write_csv)


def rk4(f, x0, t0, dt, steps):
    """Fixed-step integrator; returns states at t0, t0+dt, ..., t0+steps*dt."""
    out = np.empty((steps + 1, x0.shape[0]))
    out[0] = x0
    x, t = x0, t0
    for k in range(steps):
        k1 = f(t, x)
        k2 = f(t + dt / 2, x + dt / 2 * k1)
        k3 = f(t + dt / 2, x + dt / 2 * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        out[k + 1] = x
    return out


def r_squared(pred, target):
    res = np.sum((pred - target) ** 2, axis=0)
    tot = np.sum((target - target.mean(axis=0)) ** 2, axis=0)
    return 1.0 - res / tot


# ---------------------------------------------------------------------------
# predictions on hand configurations

def test_predict_ydot_identity_reduction():
    # identity maps, A=0, B=I, c=0, ddot=0: ydot = v
    m = ELModel(ModelDims(2, 2, 1, 1))
    m.b_net.init_zero(m.params, last_bias=np.eye(2).reshape(-1))
    got = m.predict_ydot(np.array([1.0, -2.0]), np.zeros(2), np.zeros(1), np.zeros(1))
    assert np.allclose(got, [1.0, -2.0], atol=1e-14)


def test_predict_ydot_doubling_map():
    # scalar Phi(y)=2y, A=-1, B=1: ydot = (1/2)(-2y + u); at y=1, v=0 -> -1
    m = ELModel(ModelDims(1, 1, 1, 1), ModelArch(phi_depth=1))
    m.params["phi.l0.w.b3"] = np.array([np.log(2.0)])
    m.a_net.init_zero(m.params, last_bias=np.array([-1.0]))
    m.b_net.init_zero(m.params, last_bias=np.array([1.0]))
    got = m.predict_ydot(np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1))
    assert abs(got[0] - (-1.0)) < 1e-14


def test_predict_ydot_non_finite_jacobian_is_an_error():
    # far outside the data, sinh overflows in the state map's Jacobian pass
    m = ELModel.random(ModelDims(3, 3, 2, 2), seed=0)
    with pytest.raises(NonFiniteError, match="Jacobian"):
        m.predict_ydot(np.zeros(3), np.full(3, 1e3), np.zeros(2), np.zeros(2))


def test_non_finite_state_map_weight_is_an_error():
    # at this d the exp on W(d)'s diagonal overflows, so W(d) holds a NaN
    m = ELModel.random(ModelDims(3, 3, 2, 2), seed=0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="not finite"):
        m.y_from_x(np.zeros(3), np.array([1e6, -1e6]))


@pytest.mark.parametrize("field,value", [("phi_depth", 0), ("core_hidden", -3),
                                         ("xi_hidden", 2.5), ("psi_depth", True),
                                         ("phi_hidden", np.int64(8))])
def test_arch_sizes_must_be_positive_integers(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer >= 1"):
        ModelArch(**{field: value})


def test_replaced_parameters_reach_every_map():
    # the stacked conditioning built by the first evaluations must follow
    # parameter entries replaced afterwards, as in the doubling map above
    m = ELModel(ModelDims(1, 1, 1, 1), ModelArch(phi_depth=1))
    y, d = np.ones(1), np.zeros(1)
    assert np.array_equal(m.x_from_y(y, d), y)
    assert [float(a.reshape(-1)[0]) for a in m.linear_core(d)] == [0.0, 0.0, 0.0]
    assert m.predict_ydot(np.zeros(1), y, d, d)[0] == 0.0
    m.params["phi.l0.w.b3"] = np.array([np.log(2.0)])
    m.a_net.init_zero(m.params, last_bias=np.array([-1.0]))
    m.b_net.init_zero(m.params, last_bias=np.array([1.0]))
    assert abs(m.x_from_y(y, d)[0] - 2.0) < 1e-14
    A, B, c = m.linear_core(d)
    assert (A[0, 0], B[0, 0], c[0]) == (-1.0, 1.0, 0.0)
    assert abs(m.predict_ydot(np.zeros(1), y, d, d)[0] - (-1.0)) < 1e-14


def test_maps_at_equals_the_public_maps():
    m = ELModel.random(ModelDims(3, 2, 2, 1), seed=5)
    rng = np.random.default_rng(2)
    x, d = rng.normal(size=3) * 0.5, rng.normal(size=2) * 0.5
    v = rng.normal(size=(2, 2))
    maps = m.maps_at(x, d)
    y = maps.y
    assert np.array_equal(y, m.y_from_x(x, d))
    _, J_y, _ = m.state_jacobians(y, d)
    assert np.max(np.abs(maps.dx_dy - J_y)) <= 1e-12 * np.max(np.abs(J_y))
    u, du_dy = maps.u_from_v_with_jac(v)
    for row in range(2):
        want_u, want_du_dy, _ = m.u_from_v_with_jac(v[row], y, d)
        assert np.array_equal(u[row], want_u) and np.array_equal(du_dy[row], want_du_dy)
        assert np.array_equal(maps.v_from_u(u[row]), m.v_from_u(u[row], y, d))


def _teacher_signals():
    v_fn = lambda t: np.array([0.8 * np.sin(1.7 * t), 0.5 * np.cos(2.3 * t)])
    d_fn = lambda t: np.array([0.4 * np.sin(1.1 * t + 0.3)])
    dd_fn = lambda t: np.array([0.44 * np.cos(1.1 * t + 0.3)])
    return v_fn, d_fn, dd_fn


def _latent_derivative(model, v_fn, d_fn):
    def f(t, x):
        d = d_fn(t)
        y = model.y_from_x(x, d)
        u = model.u_from_v(v_fn(t), y, d)
        A, B, c = model.linear_core(d)
        return A @ x + B @ u + c
    return f


def test_predict_ydot_matches_simulated_teacher_fd():
    # teacher trajectory in latent coordinates; central differences of the
    # logged y(t) are the independent oracle for predict_ydot
    teacher = ELModel.random(ModelDims(2, 2, 1, 1), seed=7)
    v_fn, d_fn, dd_fn = _teacher_signals()
    dt, steps = 1e-4, 500
    y0 = np.array([0.3, -0.2])
    xs = rk4(_latent_derivative(teacher, v_fn, d_fn), teacher.x_from_y(y0, d_fn(0.0)),
             0.0, dt, steps)
    t = np.arange(steps + 1) * dt
    ys = np.stack([teacher.y_from_x(xs[k], d_fn(t[k])) for k in range(steps + 1)])
    fd = (ys[2:] - ys[:-2]) / (2 * dt)
    pred = np.stack([teacher.predict_ydot(v_fn(t[k]), ys[k], d_fn(t[k]), dd_fn(t[k]))
                     for k in range(1, steps)])
    assert np.max(np.abs(pred - fd)) < 1e-3


def test_integrating_prediction_reproduces_latent_trajectory():
    # the same model integrated in y-coordinates and in latent coordinates
    # must produce the same output path (ddot term exercised: d varies)
    teacher = ELModel.random(ModelDims(2, 2, 1, 1), seed=12)
    v_fn, d_fn, dd_fn = _teacher_signals()
    dt, steps = 1e-3, 1000
    y0 = np.array([0.4, -0.1])
    xs = rk4(_latent_derivative(teacher, v_fn, d_fn), teacher.x_from_y(y0, d_fn(0.0)),
             0.0, dt, steps)
    t = np.arange(steps + 1) * dt
    y_latent = np.stack([teacher.y_from_x(xs[k], d_fn(t[k])) for k in range(steps + 1)])

    f_y = lambda tk, yk: teacher.predict_ydot(v_fn(tk), yk, d_fn(tk), dd_fn(tk))
    y_direct = rk4(f_y, y0, 0.0, dt, steps)
    assert np.max(np.abs(y_direct - y_latent)) < 1e-6


def test_predict_z_constant_configuration():
    m = ELModel(ModelDims(2, 2, 1, 1))   # zero-init Xi is constant
    za = m.predict_z(np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.zeros(1))
    zb = m.predict_z(np.array([-3.0, 0.2]), np.array([2.0, 1.0]), np.zeros(1))
    assert np.allclose(za, zb, atol=1e-12)


def test_predict_z_identity_collapse():
    # identity Phi/Psi: zhat is exactly the convex head applied to (y, v)
    m = ELModel(ModelDims(2, 2, 1, 1))
    rng = np.random.default_rng(3)
    m.z_map.init(m.params, rng, scale=0.6)
    y = np.array([0.4, -0.8]); v = np.array([1.2, 0.1]); d = np.array([0.2])
    got = m.predict_z(v, y, d)
    xi = np.concatenate([y, v])[None, :]
    want = m.z_map.forward(m.params, xi, d[None, :])[0]
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# coordinate maps

def test_map_round_trips():
    m = ELModel.random(ModelDims(3, 2, 2, 1), seed=5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = rng.normal(size=3) * 0.8
        d = rng.normal(size=2) * 0.5
        v = rng.normal(size=2)
        assert np.max(np.abs(m.y_from_x(m.x_from_y(y, d), d) - y)) < 1e-9
        assert np.max(np.abs(m.v_from_u(m.u_from_v(v, y, d), y, d) - v)) < 1e-9


def test_identity_configuration_maps():
    m = ELModel(ModelDims(2, 2, 1, 1))
    y = np.array([0.3, -0.7]); d = np.array([0.4])
    assert np.array_equal(m.x_from_y(y, d), y)
    assert np.array_equal(m.u_from_v(y, y, d), y)


def test_u_from_v_with_jac_matches_fd():
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=9)
    v = np.array([0.7, -0.3]); y = np.array([0.2, 0.5]); d = np.array([0.1])
    u, J_y, J_d = m.u_from_v_with_jac(v, y, d)
    assert np.max(np.abs(u - m.u_from_v(v, y, d))) < 1e-14
    h = 1e-6
    for j in range(2):
        e = np.zeros(2); e[j] = h
        fd = (m.u_from_v(v, y + e, d) - m.u_from_v(v, y - e, d)) / (2 * h)
        assert np.max(np.abs(fd - J_y[:, j])) < 1e-7
    fd = (m.u_from_v(v, y, d + h) - m.u_from_v(v, y, d - h)) / (2 * h)
    assert np.max(np.abs(fd - J_d[:, 0])) < 1e-7


def test_state_jacobians_match_fd():
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=10)
    y = np.array([0.3, -0.4]); d = np.array([0.2])
    x, J_y, J_d = m.state_jacobians(y, d)
    assert np.max(np.abs(x - m.x_from_y(y, d))) < 1e-14
    h = 1e-6
    for j in range(2):
        e = np.zeros(2); e[j] = h
        fd = (m.x_from_y(y + e, d) - m.x_from_y(y - e, d)) / (2 * h)
        assert np.max(np.abs(fd - J_y[:, j])) < 1e-7
    fd = (m.x_from_y(y, d + h) - m.x_from_y(y, d - h)) / (2 * h)
    assert np.max(np.abs(fd - J_d[:, 0])) < 1e-7


# ---------------------------------------------------------------------------
# loss

def _single_record_dataset(ydot_value, z_value):
    return TrajectoryDataset(
        t=np.array([0.0]), v=np.zeros((1, 1)), d=np.zeros((1, 1)),
        y=np.zeros((1, 1)), z=np.array([[z_value]]),
        d_dot=np.zeros((1, 1)), y_dot=np.array([[ydot_value]]))


def test_loss_hand_value():
    # zero-init model predicts ydot=0 and z~0; targets (-1,-1) give e=(1,1)
    m = ELModel(ModelDims(1, 1, 1, 1))
    value = loss(m, _single_record_dataset(-1.0, -1.0), np.eye(2))
    assert abs(value - 2.0) < 1e-12


def test_loss_zero_on_perfect_predictions():
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=21)
    rng = np.random.default_rng(2)
    n = 16
    t = np.arange(n) * 1e-2
    v = rng.normal(size=(n, 2)); y = rng.normal(size=(n, 2)) * 0.5
    d = rng.normal(size=(n, 1)) * 0.3; dd = rng.normal(size=(n, 1)) * 0.1
    ydot = m.predict_ydot(v, y, d, dd)
    z = m.predict_z(v, y, d)
    ds = TrajectoryDataset(t, v, d, y, z, d_dot=dd, y_dot=ydot, fd_tol=np.inf)
    assert loss(m, ds, np.eye(3)) < 1e-18


def test_loss_gradient_matches_fd_all_groups():
    # every parameter tensor gets one randomly probed entry
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=31)
    rng = np.random.default_rng(4)
    n = 8
    inputs = {"v": rng.normal(size=(n, 2)), "y": rng.normal(size=(n, 2)) * 0.5,
              "d": rng.normal(size=(n, 1)) * 0.3, "d_dot": rng.normal(size=(n, 1)) * 0.1,
              "ydot": rng.normal(size=(n, 2)), "z": rng.normal(size=(n, 1))}
    q = np.diag([1.0, 2.0, 0.5])
    g = m.loss_graph(q, n)
    ad.evaluate(g, inputs)
    grads = ad.gradient(g)

    def loss_at(params):
        g2 = m.clone(params).loss_graph(q, n)
        return float(ad.evaluate(g2, inputs).data)

    for key in sorted(m.params):
        p0 = m.params[key]
        idx = tuple(rng.integers(0, s) for s in p0.shape)
        h = 1e-6 * max(1.0, abs(p0[idx]))
        pp = {k: val.copy() for k, val in m.params.items()}
        pm = {k: val.copy() for k, val in m.params.items()}
        pp[key][idx] += h
        pm[key][idx] -= h
        fd = (loss_at(pp) - loss_at(pm)) / (2 * h)
        an = grads[key][idx]
        denom = max(np.abs(fd), np.abs(an), 1e-6)
        assert abs(fd - an) / denom < 1e-5, f"{key}[{idx}]: {an} vs fd {fd}"


# ---------------------------------------------------------------------------
# trajectory data

def test_grid_derivative_exact_for_quadratic():
    t = np.arange(50) * 0.01
    ds = TrajectoryDataset(t, np.zeros((50, 1)), np.zeros((50, 1)),
                           (t ** 2)[:, None], np.zeros((50, 1)))
    # second-order differences (one-sided at the ends) are exact on t^2
    assert np.max(np.abs(ds.y_dot[:, 0] - 2 * t)) < 1e-12


def test_dataset_validation_errors():
    t = np.arange(10) * 0.1
    ok = dict(v=np.zeros((10, 1)), d=np.zeros((10, 1)),
              y=np.zeros((10, 1)), z=np.zeros((10, 1)))
    with pytest.raises(ValidationError):
        TrajectoryDataset(t[::-1], **ok)
    bad_t = t.copy(); bad_t[5] += 0.03
    with pytest.raises(ValidationError):
        TrajectoryDataset(bad_t, **ok)
    bad_y = ok | {"y": np.full((10, 1), np.nan)}
    with pytest.raises(ValidationError):
        TrajectoryDataset(t, **bad_y)
    # stored derivative inconsistent with the signal
    with pytest.raises(ValidationError):
        TrajectoryDataset(t, ok["v"], ok["d"], np.sin(t)[:, None], ok["z"],
                          y_dot=np.full((10, 1), 5.0))
    with pytest.raises(ValidationError):
        TrajectoryDataset(t, ok["v"], ok["d"], np.sin(t)[:, None], ok["z"],
                          y_dot=1.1 * np.cos(t)[:, None])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    n = 40
    t = np.arange(n) * 0.02
    y = np.cumsum(rng.normal(size=(n, 2)), axis=0) * 1e-3
    ds = TrajectoryDataset(t, rng.normal(size=(n, 2)), rng.normal(size=(n, 1)),
                           y, rng.normal(size=(n, 1)))
    path = tmp_path / "traj.csv"
    write_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,v1,v2,d1,y1,y2,z1,ydot1,ydot2,ddot1"
    back = read_csv(path)
    for name in ("t", "v", "d", "y", "z", "y_dot", "d_dot"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name
    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
    assert meta["period"] == pytest.approx(0.02)


def test_csv_keeps_an_infinite_fd_tol(tmp_path):
    # an fd_tol of inf turns the derivative check off, and the sidecar keeps it
    t = np.arange(5) * 0.1
    ds = TrajectoryDataset(t, np.zeros((5, 1)), np.zeros((5, 1)), np.zeros((5, 1)),
                           np.zeros((5, 1)), y_dot=np.ones((5, 1)), fd_tol=np.inf)
    write_csv(ds, tmp_path / "traj.csv")
    assert read_csv(tmp_path / "traj.csv").fd_tol == np.inf


def test_csv_rejects_unknown_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v1,d1,y1,z1,w1\n0,0,0,0,0,0\n1,0,0,0,0,0\n")
    with pytest.raises(ValidationError):
        read_csv(path)


def test_default_q_e_inverse_variance():
    n = 100
    t = np.arange(n) * 0.1
    y_dot = np.concatenate([np.full((n // 2, 1), 2.0), np.full((n // 2, 1), -2.0)])
    z = np.concatenate([np.full((n // 2, 1), 1.0), np.full((n // 2, 1), -1.0)])
    ds = TrajectoryDataset(t, np.zeros((n, 1)), np.zeros((n, 1)), np.zeros((n, 1)),
                           z, y_dot=y_dot, d_dot=np.zeros((n, 1)), fd_tol=np.inf)
    q = default_q_e(ds)
    assert np.allclose(np.diag(q), [1.0 / 4.0, 1.0], atol=1e-12)
    assert np.allclose(q, np.diag(np.diag(q)))


# ---------------------------------------------------------------------------
# training

def _linear_teacher_dataset():
    A = np.array([[-1.0, 0.4], [0.0, -2.0]])
    B = np.eye(2)
    c = np.array([0.3, -0.2])
    v_fn = lambda t: np.array([
        0.8 * np.sin(1.7 * t) + 0.5 * np.sin(0.613 * t + 1.0) + 0.3 * np.sin(3.1 * t + 0.4),
        0.6 * np.cos(2.3 * t) + 0.5 * np.sin(0.911 * t + 2.0) + 0.3 * np.sin(4.7 * t)])
    d_fn = lambda t: np.array([0.4 * np.sin(1.1 * t + 0.3)])
    dd_fn = lambda t: np.array([0.44 * np.cos(1.1 * t + 0.3)])
    dt, steps = 5e-3, 4000
    t = np.arange(steps) * dt
    f = lambda tk, yk: A @ yk + B @ v_fn(tk) + c
    y = rk4(f, np.array([0.5, -0.3]), 0.0, dt, steps - 1)
    v = np.stack([v_fn(tk) for tk in t])
    d = np.stack([d_fn(tk) for tk in t])
    dd = np.stack([dd_fn(tk) for tk in t])
    ydot = np.stack([f(tk, y[k]) for k, tk in enumerate(t)])
    z = y[:, :1] ** 2 + y[:, 1:] ** 2 + 0.8 * y[:, :1]
    return TrajectoryDataset(t, v, d, y, z, d_dot=dd, y_dot=ydot)


def test_train_zero_epochs_returns_model_unchanged():
    ds = _linear_teacher_dataset().segment(0, 50)
    m = ELModel.for_training(ModelDims(2, 2, 1, 1), ds, seed=1)
    before = {k: p.copy() for k, p in m.params.items()}
    trained, history = train(m, ds, TrainConfig(epochs=0, seed=0))
    assert history == {"train": [], "val": []}
    for k in before:
        assert np.array_equal(trained.params[k], before[k])


def test_train_deterministic_given_seed():
    ds = _linear_teacher_dataset().segment(0, 400)
    m = ELModel.for_training(ModelDims(2, 2, 1, 1), ds, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=128, step_size=0.01, seed=7)
    t1, _ = train(m, ds, cfg)
    t2, _ = train(m, ds, cfg)
    for k in t1.params:
        assert np.array_equal(t1.params[k], t2.params[k]), k


def _train_graph_per_step(model, data, cfg):
    """`train`'s loop with a fresh graph for every batch, the way it ran before
    it recorded one program per batch shape: (params, history), or
    (checkpoint, epoch) of the divergence."""
    q_e = default_q_e(data)
    n_val = int(round(cfg.val_fraction * len(data)))
    n_train = len(data) - n_val
    arrays = {"v": data.v, "y": data.y, "d": data.d, "d_dot": data.d_dot,
              "ydot": data.y_dot, "z": data.z}
    rng = np.random.default_rng(cfg.seed)
    params = {k: p.copy() for k, p in model.params.items()}
    m1 = {k: np.zeros_like(p) for k, p in params.items()}
    m2 = {k: np.zeros_like(p) for k, p in params.items()}
    checkpoint, history, t = {k: p.copy() for k, p in params.items()}, {"train": [], "val": []}, 0

    def batch_loss(sel):
        g = model.clone(params).loss_graph(q_e, len(sel))
        return float(ad.evaluate(g, {k: a[sel] for k, a in arrays.items()}).data), g

    for epoch in range(cfg.epochs):
        step = cfg.step_size * cfg.decay ** epoch
        perm = rng.permutation(n_train)
        epoch_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            sel = perm[start:start + cfg.batch_size]
            try:
                value, g = batch_loss(sel)
                grads = ad.gradient(g)
            except (NonFiniteError, np.linalg.LinAlgError):
                return checkpoint, epoch
            epoch_sum += value * len(sel)
            norm = np.sqrt(np.sum([float(np.sum(np.square(gv))) for gv in grads.values()]))
            clip = min(1.0, GRAD_CLIP_NORM / norm) if norm > 0 else 1.0
            t += 1
            for k in params:
                gk = grads[k] * clip
                m1[k] = 0.9 * m1[k] + (1.0 - 0.9) * gk
                m2[k] = 0.999 * m2[k] + (1.0 - 0.999) * np.square(gk)
                params[k] = params[k] - step * (m1[k] / (1.0 - 0.9 ** t)) / (
                    np.sqrt(m2[k] / (1.0 - 0.999 ** t)) + 1e-8)
        history["train"].append(epoch_sum / n_train)
        if n_val:
            try:
                history["val"].append(batch_loss(np.arange(n_train, len(data)))[0])
            except (NonFiniteError, np.linalg.LinAlgError):
                return checkpoint, epoch
        checkpoint = {k: p.copy() for k, p in params.items()}
    return params, history


def test_train_equals_the_graph_per_step_loop():
    ds = _linear_teacher_dataset().segment(0, 400)
    m = ELModel.for_training(ModelDims(2, 2, 1, 1), ds, seed=2)
    cfg = TrainConfig(epochs=3, batch_size=128, step_size=0.01, seed=7)
    trained, history = train(m, ds, cfg)
    params, want = _train_graph_per_step(m, ds, cfg)
    assert history == want
    for k in params:
        assert np.array_equal(trained.params[k], params[k]), k


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_keeps_checkpoint():
    ds = _linear_teacher_dataset().segment(0, 400)
    m = ELModel.for_training(ModelDims(2, 2, 1, 1), ds, seed=3)
    cfg = TrainConfig(epochs=5, batch_size=128, step_size=1e6, seed=0)
    with pytest.raises(TrainingDivergedError) as info:
        train(m, ds, cfg)
    err = info.value
    assert err.epoch is not None
    assert set(err.checkpoint) == set(m.params)
    for p in err.checkpoint.values():
        assert np.all(np.isfinite(p))
    # the replayed programs diverge where a graph per step does
    checkpoint, epoch = _train_graph_per_step(m, ds, cfg)
    assert err.epoch == epoch
    for k in checkpoint:
        assert np.array_equal(err.checkpoint[k], checkpoint[k]), k


def test_train_runs_the_graph_once_per_batch_shape(monkeypatch):
    # 320 training rows in batches of 128 and 64, and 80 validation rows:
    # later epochs replay the three recorded programs
    evaluated, differentiated = [], []
    real_evaluate, real_gradient = ad.evaluate, ad.gradient

    def evaluate(graph, inputs=None):
        evaluated.append(len(inputs["y"]))
        return real_evaluate(graph, inputs)

    def gradient(graph, seed=None):
        differentiated.append(evaluated[-1])
        return real_gradient(graph, seed)

    monkeypatch.setattr(ad, "evaluate", evaluate)
    monkeypatch.setattr(ad, "gradient", gradient)
    ds = _linear_teacher_dataset().segment(0, 400)
    m = ELModel.for_training(ModelDims(2, 2, 1, 1), ds, seed=2)
    _, history = train(m, ds, TrainConfig(epochs=3, batch_size=128, seed=7))
    assert len(history["val"]) == 3
    assert evaluated == [128, 64, 80] and differentiated == [128, 64]


def test_train_identifies_linear_teacher():
    # independently integrated linear system; held-out fit must be near exact
    ds = _linear_teacher_dataset()
    n = len(ds)
    arch = ModelArch(phi_depth=1, psi_depth=1, xi_depth=2)
    m0 = ELModel.for_training(ModelDims(2, 2, 1, 1), ds, arch, seed=4, map_scale=0.02)
    cfg = TrainConfig(epochs=320, batch_size=512, step_size=0.02, decay=0.996, seed=1)
    trained, history = train(m0, ds, cfg)

    val = ds.segment(int(0.8 * n), n)
    pred = trained.predict_ydot(val.v, val.y, val.d, val.d_dot)
    r2 = r_squared(pred, val.y_dot)
    assert np.all(r2 >= 0.999), f"held-out ydot R^2 {r2}"
    zr2 = r_squared(trained.predict_z(val.v, val.y, val.d), val.z)
    assert np.all(zr2 >= 0.9), f"held-out z R^2 {zr2}"
    # validation loss trend decreases
    h = np.array(history["val"])
    assert h[-5:].mean() < 0.1 * h[:5].mean()


channels = st.integers(1, 3)
depths = st.integers(1, 2)


@settings(derandomize=True)
@given(channels, channels, channels, channels, depths, depths, depths,
       st.sampled_from([2, 5]), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 7, 16]))
# the bench's SMALL_ARCH model at its 512-row batch
@example(3, 3, 2, 2, 1, 1, 2, 8, 0, 512)
def test_replayed_loss_and_gradients_equal_a_fresh_graph(ny, nu, nd, nz, phi_depth, psi_depth,
                                                         xi_depth, hidden, seed, rows):
    dims = ModelDims(ny, nu, nd, nz)
    arch = ModelArch(phi_depth=phi_depth, phi_hidden=hidden, psi_depth=psi_depth,
                     psi_hidden=hidden, xi_depth=xi_depth, xi_hidden=hidden, core_hidden=hidden)
    rng = np.random.default_rng(seed)
    widths = {"v": nu, "y": ny, "d": nd, "d_dot": nd, "ydot": ny, "z": nz}
    q_e = np.diag(rng.uniform(0.5, 2.0, ny + nz))
    # recorded on one model and batch, replayed on another of each
    (recorded, first), (other, second) = (
        (ELModel.random(dims, arch, seed=int(rng.integers(2 ** 31))),
         {k: rng.uniform(-1.0, 1.0, (rows, w)) for k, w in widths.items()}) for _ in range(2))
    with ad.recording() as program:
        g = recorded.loss_graph(q_e, rows)
        loss = ad.evaluate(g, first).data
        grads = ad.gradient(g)
    program.finish({**recorded.params, **first}, {"loss": loss, **grads})
    g = other.loss_graph(q_e, rows)
    want_loss, want = ad.evaluate(g, second).data, ad.gradient(g)
    got_loss, got = program.run({**other.params, **second})
    assert got_loss == want_loss and list(got) == list(want)
    assert program.run({**other.params, **second}, with_gradient=False)[0] == want_loss
    again = program.run({**other.params, **second})[1]
    for k, g in got.items():
        assert np.array_equal(g, want[k]), k
        # a gradient that is a recorded constant cannot be written through
        assert not g.flags.writeable or not np.shares_memory(g, again[k]), k


def test_multiple_equilibria_constructed_model():
    # scalar model with identity state map and input map v = u + b(y) where
    # b(y) = -4 softplus(y+1) + 4 softplus(y-1) + 4; equilibria of
    # ydot = -y + v - b(y) at v=0 are the roots of y + b(y), which is odd
    # with negative slope at the origin: three isolated roots
    m = ELModel(ModelDims(1, 1, 1, 1), ModelArch(psi_depth=1, psi_hidden=4))
    p = m.params
    p["psi.l0.b.W1"] = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    p["psi.l0.b.b1"] = np.array([1.0, -1.0, 0.0, 0.0])
    p["psi.l0.b.W2"] = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                 [0.0] * 4, [0.0] * 4])
    p["psi.l0.b.b2"] = np.array([30.0, 30.0, 0.0, 0.0])
    p["psi.l0.b.W3"] = np.array([[-4.0, 4.0, 0.0, 0.0]])
    p["psi.l0.b.b3"] = np.array([4.0])
    m.a_net.init_zero(p, last_bias=np.array([-1.0]))
    m.b_net.init_zero(p, last_bias=np.array([1.0]))

    d = np.zeros(1); dd = np.zeros(1); v = np.zeros(1)
    f = lambda yk: m.predict_ydot(v, np.array([yk]), d, dd)[0]

    def bisect(lo, hi):
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    roots = [bisect(-6.0, -1.5), bisect(-0.5, 0.5), bisect(1.5, 6.0)]
    for r in roots:
        assert abs(f(r)) < 1e-8
    assert roots[2] - roots[1] > 1.0 and roots[1] - roots[0] > 1.0


# ---------------------------------------------------------------------------
# model file io

def test_model_save_load_bit_exact(tmp_path):
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=17)
    path = tmp_path / "model.npz"
    save_model(m, path)
    back = load_model(path)
    assert back.dims == m.dims and back.arch == m.arch
    for k in m.params:
        assert np.array_equal(back.params[k], m.params[k]), k
    for name in ("y", "v", "d", "z"):
        assert np.array_equal(back.scalers[name].mean, m.scalers[name].mean)
        assert np.array_equal(back.scalers[name].std, m.scalers[name].std)
    y = np.array([0.2, -0.3]); d = np.array([0.1]); v = np.array([0.5, 0.5])
    assert np.array_equal(back.predict_ydot(v, y, d, np.zeros(1)),
                          m.predict_ydot(v, y, d, np.zeros(1)))


def test_model_file_bytes_deterministic(tmp_path):
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=17)
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_model(m, p1)
    save_model(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_foreign_container(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ValidationError):
        load_model(path)


def test_load_rejects_wrong_version(tmp_path):
    m = ELModel.random(ModelDims(1, 1, 1, 1), seed=0)
    path = tmp_path / "model.npz"
    save_model(m, path)
    # tamper with the version field
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["format_version"] = 999
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with zipfile.ZipFile(path, "w") as zf:
        import io as _io
        from numpy.lib import format as npformat
        for name, arr in arrays.items():
            buf = _io.BytesIO()
            npformat.write_array(buf, np.ascontiguousarray(arr))
            zf.writestr(name + ".npy", buf.getvalue())
    with pytest.raises(ValidationError):
        load_model(path)
