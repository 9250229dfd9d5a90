"""Property tests for the tangent evaluation mode.

For every network block, over random dimensions (1-4), depths (1-3) and
seeds, the Jacobians of one tangent pass must match central finite
differences and the backward Jacobians of the graph pass, and its value
must equal the numpy pass bit for bit.  Inputs are seeded in argument
order, the first one narrow, so mixed tangent widths are exercised too.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import elcontrol.autodiff as ad
from elcontrol.arrays import seed
from elcontrol.networks import Bnn, DiagonalBnn, ParamMlp, Picnn

ROWS = 3
dims = st.integers(1, 4)
depths = st.integers(1, 3)
seeds = st.integers(0, 2 ** 32 - 1)


def random_params(nets, rng, scale=0.4):
    params = {}
    for net in nets:
        net.init(params, rng, scale=scale)
    return params


def fd_jacobian(fn, inputs, i, h=1e-6):
    cols = []
    for j in range(inputs[i].shape[-1]):
        plus = [x.copy() for x in inputs]
        minus = [x.copy() for x in inputs]
        plus[i][:, j] += h
        minus[i][:, j] -= h
        cols.append((fn(*plus) - fn(*minus)) / (2 * h))
    return np.stack(cols, axis=-1)


def check_block(forward, params, inputs):
    """`forward(params, *inputs)` is one block's pass; the graph pass takes
    its parameters as graph tensors."""
    offsets = np.cumsum([0] + [x.shape[-1] for x in inputs])
    out = forward(params, *[seed(x, offset=o) for x, o in zip(inputs, offsets)])
    assert np.array_equal(out.val, forward(params, *inputs))
    tensors = [ad.as_tensor(x) for x in inputs]
    graph_params = {k: ad.as_tensor(v) for k, v in params.items()}
    graph_jacs = ad.jacobian_rows(forward(graph_params, *tensors), tensors)
    for i, x in enumerate(inputs):
        jac = np.broadcast_to(out.tan, out.val.shape + out.tan.shape[-1:])[
            ..., offsets[i]:offsets[i + 1]]
        scale = 1.0 + np.max(np.abs(jac))
        assert np.max(np.abs(jac - graph_jacs[i].data)) <= 1e-10 * scale
        fd = fd_jacobian(lambda *a: forward(params, *a), inputs, i)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * scale


@given(dims, dims, seeds)
def test_param_mlp_jacobians(n_in, n_out, s):
    rng = np.random.default_rng(s)
    mlp = ParamMlp("f", n_in, n_out, hidden=8)
    params = random_params([mlp], rng, scale=0.8)
    x = rng.uniform(-1, 1, (ROWS, n_in))
    check_block(mlp.forward, params, [x])
    value, jac = mlp.forward_and_input_jacobian_np(params, x)
    out = mlp.forward(params, seed(x))
    assert np.array_equal(value, out.val) and np.array_equal(jac, out.tan)


@given(dims, dims, depths, seeds)
def test_bnn_jacobians(n, nd, depth, s):
    rng = np.random.default_rng(s)
    bnn = Bnn("phi", n, nd, depth=depth, hidden=8)
    params = random_params(bnn.nets, rng)
    d, y = rng.uniform(-1, 1, (ROWS, nd)), rng.uniform(-1, 1, (ROWS, n))
    check_block(lambda p, d, y: bnn.forward(p, y, d), params, [d, y])
    x, J_y, J_d = bnn.forward_with_jacobians(params, y, d)
    out = bnn.forward(params, seed(y, offset=nd), seed(d))
    assert np.array_equal(J_d, out.tan[..., :nd]) and np.array_equal(J_y, out.tan[..., nd:])
    # with d a plain array, W(d) is a constant and y the only seed
    assert np.array_equal(bnn.forward(params, seed(y), d).tan, J_y)


@given(dims, dims, depths, seeds)
def test_diagonal_bnn_jacobians(m, n_cond, depth, s):
    rng = np.random.default_rng(s)
    dbnn = DiagonalBnn("psi", m, n_cond, depth=depth, hidden=8)
    params = random_params(dbnn.nets, rng)
    cond, u = rng.uniform(-1, 1, (ROWS, n_cond)), rng.uniform(-1, 1, (ROWS, m))
    check_block(lambda p, c, u: dbnn.forward(p, u, c), params, [cond, u])
    check_block(lambda p, c, v: dbnn.inverse(p, v, c), params, [cond, u])


@given(dims, dims, depths, seeds)
def test_picnn_jacobians(n_xi, n_ctx, depth, s):
    rng = np.random.default_rng(s)
    picnn = Picnn("xi", n_xi, n_ctx, 2, depth=depth, hidden=8, ctx_hidden=8)
    params = {}
    picnn.init(params, rng, scale=0.8)
    ctx, xi = rng.uniform(-1, 1, (ROWS, n_ctx)), rng.uniform(-1, 1, (ROWS, n_xi))
    check_block(lambda p, c, xi: picnn.forward(p, xi, c), params, [ctx, xi])
