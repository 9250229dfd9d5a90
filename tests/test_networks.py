"""Tests for the network components: bijectivity, monotonicity, convexity,
and agreement between the numpy, graph and tangent evaluation modes."""

import numpy as np
import pytest

import elcontrol.autodiff as ad
from elcontrol.arrays import seed
from elcontrol.errors import ConditioningError
from elcontrol.networks import Bnn, DiagonalBnn, ParamMlp, Picnn, Scaler


def random_params(nets, rng, scale=0.3):
    params = {}
    for net in nets:
        net.init(params, rng, scale=scale)
    return params


def tensorize(params):
    return {k: ad.as_tensor(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# ParamMlp

def test_mlp_zero_params_give_bias():
    mlp = ParamMlp("f", 2, 3, hidden=8)
    params = {}
    mlp.init_zero(params, last_bias=[1.0, -2.0, 0.5])
    out = mlp.forward_np(params, np.array([0.3, -0.7]))
    assert np.array_equal(out, [1.0, -2.0, 0.5])


def test_mlp_input_jacobian_matches_fd():
    rng = np.random.default_rng(0)
    mlp = ParamMlp("f", 3, 4, hidden=8)
    params = random_params([mlp], rng, scale=0.8)
    x0 = rng.normal(size=3)
    _, J = mlp.forward_and_input_jacobian_np(params, x0)
    h = 1e-6
    J_fd = np.column_stack([
        (mlp.forward_np(params, x0 + h * e) - mlp.forward_np(params, x0 - h * e)) / (2 * h)
        for e in np.eye(3)])
    assert np.max(np.abs(J - J_fd)) < 1e-6


def test_mlp_batched_equals_loop():
    rng = np.random.default_rng(1)
    mlp = ParamMlp("f", 2, 5, hidden=8)
    params = random_params([mlp], rng)
    X = rng.normal(size=(7, 2))
    batched = mlp.forward_np(params, X)
    rows = np.stack([mlp.forward_np(params, x) for x in X])
    assert np.allclose(batched, rows, atol=1e-14)


def test_mlp_graph_matches_numpy():
    rng = np.random.default_rng(2)
    mlp = ParamMlp("f", 3, 4, hidden=8)
    params = random_params([mlp], rng)
    X = rng.normal(size=(5, 3))
    out_t = mlp.forward(tensorize(params), ad.as_tensor(X))
    assert np.allclose(out_t.data, mlp.forward_np(params, X), atol=1e-14)
    assert np.array_equal(mlp.forward_and_input_jacobian_np(params, X)[0],
                          mlp.forward_np(params, X))


# ---------------------------------------------------------------------------
# Bnn

def identity_bnn(n=3, cond=2, depth=3):
    bnn = Bnn("phi", n, cond, depth=depth, hidden=8)
    params = {}
    for net in bnn.nets:
        net.init_zero(params)
    return bnn, params


def test_bnn_identity_configuration():
    bnn, params = identity_bnn()
    y = np.array([0.3, -1.2, 0.8])
    d = np.array([0.5, -0.5])
    assert np.allclose(bnn.forward(params, y, d), y, atol=1e-14)


def test_bnn_single_layer_scaling_collapses():
    # W = 2I, b = c = 0 reduces the layer to x = 2 y
    layer = Bnn("l", 2, 1, depth=1, hidden=4)
    params = {}
    for net in layer.nets:
        net.init_zero(params)
    # diagonal of U stores log-entries
    params["l.l0.w.b3"] = np.zeros(4)
    k_low = layer.k_low
    params["l.l0.w.b3"][k_low:k_low + 2] = np.log(2.0)
    y = np.array([0.4, -0.9])
    out = layer.forward(params, y, np.array([0.0]))
    assert np.allclose(out, 2 * y, atol=1e-12)


def test_bnn_round_trip_random():
    rng = np.random.default_rng(3)
    bnn = Bnn("phi", 3, 2, depth=3, hidden=8)
    params = random_params(bnn.nets, rng, scale=0.4)
    for _ in range(20):
        y = rng.uniform(-2, 2, size=3)
        d = rng.uniform(-1, 1, size=2)
        x = bnn.forward(params, y, d)
        assert np.max(np.abs(bnn.inverse(params, x, d) - y)) < 1e-9
        assert np.max(np.abs(bnn.forward(params, bnn.inverse(params, x, d), d) - x)) < 1e-9


def test_bnn_layer_inverse_closed_form():
    # single layer, W = I, b = 0, c = 1: inverse is asinh(sinh(x) - 1)
    layer = Bnn("l", 2, 1, depth=1, hidden=4)
    params = {}
    for net in layer.nets:
        net.init_zero(params)
    params["l.l0.c.b3"] = np.ones(2)
    x = np.array([0.7, -0.2])
    expect = np.arcsinh(np.sinh(x) - 1.0)
    assert np.allclose(layer.inverse(params, x, np.zeros(1)), expect, atol=1e-14)


def test_bnn_jacobian_matches_autodiff_and_fd():
    rng = np.random.default_rng(4)
    bnn = Bnn("phi", 3, 2, depth=2, hidden=8)
    params = random_params(bnn.nets, rng, scale=0.4)
    y0 = rng.uniform(-1, 1, size=3)
    d0 = rng.uniform(-1, 1, size=2)

    out, J_y, J_d = bnn.forward_with_jacobians(params, y0, d0)
    assert np.allclose(out, bnn.forward(params, y0, d0), atol=1e-14)

    h = 1e-6
    J_y_fd = np.column_stack([
        (bnn.forward(params, y0 + h * e, d0) - bnn.forward(params, y0 - h * e, d0)) / (2 * h)
        for e in np.eye(3)])
    J_d_fd = np.column_stack([
        (bnn.forward(params, y0, d0 + h * e) - bnn.forward(params, y0, d0 - h * e)) / (2 * h)
        for e in np.eye(2)])
    assert np.max(np.abs(J_y - J_y_fd)) < 1e-6
    assert np.max(np.abs(J_d - J_d_fd)) < 1e-6

    # autodiff route on the graph form must agree with the analytic fast path
    pt = tensorize(params)

    def fwd(y):
        out = bnn.forward(pt, ad.expand_dims(y, 0), ad.constant(d0[None, :]))
        return ad.squeeze(out, 0)

    y = ad.as_tensor(y0)
    J_ad = ad.jacobian_rows(fwd(y), [y])[0].data
    assert np.max(np.abs(J_ad - J_y)) < 1e-10


def test_bnn_batched_forward_matches_loop():
    rng = np.random.default_rng(5)
    bnn = Bnn("phi", 3, 2, depth=2, hidden=8)
    params = random_params(bnn.nets, rng, scale=0.4)
    Y = rng.uniform(-1, 1, size=(6, 3))
    D = rng.uniform(-1, 1, size=(6, 2))
    batched, J, _ = bnn.forward_with_jacobians(params, Y, D)
    for i in range(6):
        row, Ji, _ = bnn.forward_with_jacobians(params, Y[i], D[i])
        assert np.allclose(batched[i], row, atol=1e-13)
        assert np.allclose(J[i], Ji, atol=1e-13)


def test_bnn_graph_matches_numpy():
    rng = np.random.default_rng(6)
    bnn = Bnn("phi", 2, 2, depth=3, hidden=8)
    params = random_params(bnn.nets, rng, scale=0.4)
    Y = rng.uniform(-1, 1, size=(4, 2))
    D = rng.uniform(-1, 1, size=(4, 2))
    out_t = bnn.forward(tensorize(params), ad.as_tensor(Y), ad.as_tensor(D))
    assert np.allclose(out_t.data, bnn.forward(params, Y, D), atol=1e-13)
    assert np.array_equal(bnn.forward_with_jacobians(params, Y, D)[0],
                          bnn.forward(params, Y, D))


def test_bnn_inverse_conditioning_guard():
    layer = Bnn("l", 2, 1, depth=1, hidden=4)
    params = {}
    for net in layer.nets:
        net.init_zero(params)
    # U diagonal exp(+-18) gives condition number ~ e^36 > 1e12
    k_low = layer.k_low
    params["l.l0.w.b3"] = np.zeros(4)
    params["l.l0.w.b3"][k_low] = 18.0
    params["l.l0.w.b3"][k_low + 1] = -18.0
    with pytest.raises(ConditioningError):
        layer.inverse(params, np.array([0.1, 0.1]), np.zeros(1))


# ---------------------------------------------------------------------------
# DiagonalBnn

def test_dbnn_identity_configuration():
    dbnn = DiagonalBnn("psi", 3, 5, depth=3, hidden=8)
    params = {}
    for net in dbnn.nets:
        net.init_zero(params)
    u = np.array([0.2, -0.4, 1.1])
    cond = np.zeros(5)
    assert np.allclose(dbnn.forward(params, u, cond), u, atol=1e-14)


def test_dbnn_round_trip_and_monotone():
    rng = np.random.default_rng(7)
    dbnn = DiagonalBnn("psi", 3, 5, depth=3, hidden=8)
    params = random_params(dbnn.nets, rng, scale=0.4)
    for _ in range(1000):
        cond = rng.uniform(-1, 1, size=5)
        u1 = rng.uniform(-2, 2, size=3)
        u2 = u1.copy()
        i = rng.integers(0, 3)
        u2[i] += rng.uniform(1e-3, 1.0)
        v1 = dbnn.forward(params, u1, cond)
        v2 = dbnn.forward(params, u2, cond)
        # strictly increasing in the perturbed coordinate, others unchanged
        assert v2[i] > v1[i]
        mask = np.arange(3) != i
        assert np.allclose(v1[mask], v2[mask], atol=1e-14)
    # round trip
    for _ in range(50):
        cond = rng.uniform(-1, 1, size=5)
        u = rng.uniform(-2, 2, size=3)
        v = dbnn.forward(params, u, cond)
        assert np.max(np.abs(dbnn.inverse(params, v, cond) - u)) < 1e-9


def test_dbnn_box_image_is_box():
    # elementwise monotone: image of a box is the box of the corner images
    rng = np.random.default_rng(8)
    dbnn = DiagonalBnn("psi", 2, 3, depth=2, hidden=8)
    params = random_params(dbnn.nets, rng, scale=0.5)
    cond = rng.uniform(-1, 1, size=3)
    lo = dbnn.inverse(params, np.zeros(2), cond)
    hi = dbnn.inverse(params, np.ones(2), cond)
    assert np.all(lo < hi)
    for _ in range(200):
        v = rng.uniform(0, 1, size=2)
        u = dbnn.inverse(params, v, cond)
        assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)
    # corners map to corners
    assert np.allclose(dbnn.forward(params, lo, cond), np.zeros(2), atol=1e-9)
    assert np.allclose(dbnn.forward(params, hi, cond), np.ones(2), atol=1e-9)


def test_dbnn_inverse_cond_jacobian_matches_fd():
    rng = np.random.default_rng(9)
    dbnn = DiagonalBnn("psi", 3, 4, depth=3, hidden=8)
    params = random_params(dbnn.nets, rng, scale=0.4)
    v0 = rng.uniform(-1, 1, size=3)
    c0 = rng.uniform(-1, 1, size=4)
    out = dbnn.inverse(params, v0, seed(c0))
    u, J = out.val, out.tan
    assert np.allclose(u, dbnn.inverse(params, v0, c0), atol=1e-13)
    h = 1e-6
    J_fd = np.column_stack([
        (dbnn.inverse(params, v0, c0 + h * e) - dbnn.inverse(params, v0, c0 - h * e)) / (2 * h)
        for e in np.eye(4)])
    assert np.max(np.abs(J - J_fd)) < 1e-6


def test_dbnn_graph_matches_numpy():
    rng = np.random.default_rng(10)
    dbnn = DiagonalBnn("psi", 2, 3, depth=3, hidden=8)
    params = random_params(dbnn.nets, rng, scale=0.4)
    U = rng.uniform(-1, 1, size=(5, 2))
    C = rng.uniform(-1, 1, size=(5, 3))
    pt = tensorize(params)
    fwd = dbnn.forward(pt, ad.as_tensor(U), ad.as_tensor(C))
    assert np.allclose(fwd.data, dbnn.forward(params, U, C), atol=1e-13)
    inv = dbnn.inverse(pt, ad.as_tensor(fwd.data), ad.as_tensor(C))
    assert np.allclose(inv.data, U, atol=1e-10)
    assert np.array_equal(dbnn.forward(params, seed(U), C).val,
                          dbnn.forward(params, U, C))
    assert np.array_equal(dbnn.inverse(params, fwd.data, seed(C)).val,
                          dbnn.inverse(params, fwd.data, C))


# ---------------------------------------------------------------------------
# Picnn

def test_picnn_degenerate_constant():
    picnn = Picnn("xi", 4, 2, 2, depth=3, hidden=8, ctx_hidden=8)
    params = {}
    picnn.init_zero(params, last_bias=[3.0, -1.0])
    ctx = np.array([0.4, -0.2])
    base = picnn.forward(params, np.zeros(4), ctx)
    assert np.allclose(base, [3.0, -1.0], atol=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi = rng.uniform(-3, 3, size=4)
        assert np.allclose(picnn.forward(params, xi, ctx), base, atol=1e-12)


def test_picnn_jensen_midpoint():
    rng = np.random.default_rng(12)
    picnn = Picnn("xi", 4, 2, 2, depth=3, hidden=8, ctx_hidden=8)
    params = {}
    picnn.init(params, rng, scale=0.8)
    for _ in range(1000):
        ctx = rng.uniform(-1, 1, size=2)
        a = rng.uniform(-2, 2, size=4)
        b = rng.uniform(-2, 2, size=4)
        mid = picnn.forward(params, 0.5 * (a + b), ctx)
        avg = 0.5 * (picnn.forward(params, a, ctx) + picnn.forward(params, b, ctx))
        assert np.all(mid <= avg + 1e-10)


def test_picnn_xi_gradient_matches_fd_and_graph():
    rng = np.random.default_rng(13)
    picnn = Picnn("xi", 3, 2, 2, depth=3, hidden=8, ctx_hidden=8)
    params = {}
    picnn.init(params, rng, scale=0.8)
    xi0 = rng.uniform(-1, 1, size=3)
    ctx0 = rng.uniform(-1, 1, size=2)
    tangent = picnn.forward(params, seed(xi0), ctx0)
    out, G = tangent.val, tangent.tan
    assert np.allclose(out, picnn.forward(params, xi0, ctx0), atol=1e-14)
    h = 1e-6
    G_fd = np.column_stack([
        (picnn.forward(params, xi0 + h * e, ctx0) - picnn.forward(params, xi0 - h * e, ctx0))
        / (2 * h)
        for e in np.eye(3)])
    assert np.max(np.abs(G - G_fd)) / max(1.0, np.max(np.abs(G_fd))) < 1e-5

    pt = tensorize(params)

    def fwd(xi):
        out = picnn.forward(pt, ad.expand_dims(xi, 0), ad.constant(ctx0[None, :]))
        return ad.squeeze(out, 0)

    xi = ad.as_tensor(xi0)
    G_ad = ad.jacobian_rows(fwd(xi), [xi])[0].data
    assert np.max(np.abs(G_ad - G)) < 1e-10


def test_picnn_graph_matches_numpy():
    rng = np.random.default_rng(14)
    picnn = Picnn("xi", 4, 2, 3, depth=3, hidden=8, ctx_hidden=8)
    params = {}
    picnn.init(params, rng, scale=0.6)
    XI = rng.uniform(-1, 1, size=(6, 4))
    CTX = rng.uniform(-1, 1, size=(6, 2))
    out_t = picnn.forward(tensorize(params), ad.as_tensor(XI), ad.as_tensor(CTX))
    assert np.allclose(out_t.data, picnn.forward(params, XI, CTX), atol=1e-13)
    assert np.array_equal(picnn.forward(params, seed(XI), CTX).val,
                          picnn.forward(params, XI, CTX))


# ---------------------------------------------------------------------------
# Scaler

def test_scaler_fit_and_constant_feature():
    data = np.column_stack([np.linspace(0, 1, 50), np.full(50, 3.0)])
    sc = Scaler.fit(data)
    z = sc.transform(data)
    assert abs(z[:, 0].mean()) < 1e-12 and abs(z[:, 0].std() - 1) < 1e-12
    # constant feature is centered but not rescaled
    assert np.allclose(z[:, 1], 0.0)
    zt = sc.transform(ad.as_tensor(data))
    assert np.allclose(zt.data, z, atol=1e-15)
