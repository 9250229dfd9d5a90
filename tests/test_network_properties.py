"""Property tests for stacked conditioning and for the blocks built on it.

Over random dimensions (1-4), depths (1-3), hidden sizes and seeds: a
block's stacked conditioning equals its member nets evaluated one by one,
in value and input Jacobian; the state map round trips; the input map is
strictly increasing per channel; the convex head satisfies Jensen's
inequality in (x, u) at every context.  Plus the identity seed's shortcut,
which must give exactly what an explicit identity tangent gives.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elcontrol.arrays import Tangent, mlps, seed
from elcontrol.model import ELModel, ModelArch, ModelDims
from elcontrol.networks import Bnn, DiagonalBnn, MlpStack, ParamMlp, Picnn

ROWS = 3
RTOL = 1e-14
dims = st.integers(1, 4)
depths = st.integers(1, 3)
hiddens = st.sampled_from([1, 4, 16])
seeds = st.integers(0, 2 ** 32 - 1)


def random_params(nets, rng, scale=0.6):
    params = {}
    for net in nets:
        net.init(params, rng, scale=scale, out_scale=scale)
    return params


def assert_close(got, want):
    """Agreement to RTOL relative to the largest entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * max(1.0, np.max(np.abs(want)))


def check_stack(stack, params, x):
    values = mlps(stack, params, x)
    tangents = mlps(stack, params, seed(x))
    for net, value, tangent in zip(stack.nets, values, tangents, strict=True):
        want, want_jac = net.forward_and_input_jacobian_np(params, x)
        assert_close(value, net.forward_np(params, x))
        assert np.array_equal(tangent.val, value)
        assert_close(tangent.val, want)
        assert_close(np.broadcast_to(tangent.tan, want_jac.shape), want_jac)


@given(dims, dims, depths, hiddens, seeds)
def test_state_map_stack_matches_member_nets(n, nd, depth, hidden, s):
    rng = np.random.default_rng(s)
    bnn = Bnn("phi", n, nd, depth=depth, hidden=hidden)
    check_stack(bnn.stack, random_params(bnn.nets, rng), rng.uniform(-1, 1, (ROWS, nd)))


@given(dims, dims, depths, hiddens, seeds)
def test_input_map_stack_matches_member_nets(m, n_cond, depth, hidden, s):
    rng = np.random.default_rng(s)
    dbnn = DiagonalBnn("psi", m, n_cond, depth=depth, hidden=hidden)
    check_stack(dbnn.stack, random_params(dbnn.nets, rng), rng.uniform(-1, 1, (ROWS, n_cond)))


@given(dims, dims, dims, hiddens, seeds)
def test_core_stack_matches_member_nets(ny, nu, nd, hidden, s):
    # output widths ny^2, ny nu, ny: zero padding whenever they differ
    rng = np.random.default_rng(s)
    m = ELModel(ModelDims(ny, nu, nd, 1), ModelArch(core_hidden=hidden))
    x = rng.uniform(-1, 1, (ROWS, nd))
    check_stack(m.core, random_params([m.a_net, m.b_net, m.c_net], rng), x)
    check_stack(m.core, random_params([m.a_net, m.b_net, m.c_net], rng), x[0])


def test_stack_repacks_when_a_parameter_is_replaced():
    rng = np.random.default_rng(0)
    nets = [ParamMlp("a", 2, 3, hidden=4), ParamMlp("b", 2, 1, hidden=4)]
    stack = MlpStack(nets)
    params = random_params(nets, rng)
    x = rng.uniform(-1, 1, (ROWS, 2))
    before = mlps(stack, params, x)
    params["b.b3"] = params["b.b3"] + 1.0
    after = mlps(stack, params, x)
    assert np.array_equal(after[0], before[0])
    assert_close(after[1], before[1] + 1.0)


def test_stack_rejects_an_in_place_write_after_packing():
    # a write into a packed entry would leave the stack's copy stale
    rng = np.random.default_rng(0)
    nets = [ParamMlp("a", 2, 3, hidden=4), ParamMlp("b", 2, 1, hidden=4)]
    stack = MlpStack(nets)
    params = random_params(nets, rng)
    mlps(stack, params, rng.uniform(-1, 1, (ROWS, 2)))
    with pytest.raises(ValueError, match="read-only"):
        params["b.b3"][0] = 1.0


@given(dims, dims, depths, hiddens, seeds)
def test_state_map_round_trip(n, nd, depth, hidden, s):
    rng = np.random.default_rng(s)
    m = ELModel.random(ModelDims(n, 1, nd, 1),
                       ModelArch(phi_depth=depth, phi_hidden=hidden), seed=s % 2 ** 16)
    y = rng.uniform(-2, 2, (ROWS, n))
    d = rng.uniform(-1, 1, (ROWS, nd))
    assert np.max(np.abs(m.y_from_x(m.x_from_y(y, d), d) - y)) <= 1e-9


@given(dims, dims, dims, depths, hiddens, seeds)
def test_input_map_is_strictly_increasing_per_channel(nu, ny, nd, depth, hidden, s):
    rng = np.random.default_rng(s)
    m = ELModel.random(ModelDims(ny, nu, nd, 1),
                       ModelArch(psi_depth=depth, psi_hidden=hidden), seed=s % 2 ** 16)
    y, d = rng.uniform(-1, 1, ny), rng.uniform(-1, 1, nd)
    u = rng.uniform(-2, 2, nu)
    v = m.v_from_u(u, y, d)
    for i in range(nu):
        step = np.zeros(nu)
        step[i] = rng.uniform(1e-3, 1.0)
        moved = m.v_from_u(u + step, y, d)
        assert moved[i] > v[i]
        others = np.arange(nu) != i
        assert np.array_equal(moved[others], v[others])


@given(dims, dims, depths, seeds)
def test_identity_seed_equals_explicit_identity(n_xi, n_ctx, depth, s):
    rng = np.random.default_rng(s)
    picnn = Picnn("xi", n_xi, n_ctx, 2, depth=depth, hidden=5, ctx_hidden=4)
    params = {}
    picnn.init(params, rng)
    xi = rng.uniform(-1, 1, (ROWS, n_xi))
    ctx = rng.uniform(-1, 1, (ROWS, n_ctx))
    fast = picnn.forward(params, seed(xi), ctx)
    explicit = picnn.forward(params, Tangent(xi, np.eye(n_xi).copy()), ctx)
    assert np.array_equal(fast.val, explicit.val)
    assert np.array_equal(np.broadcast_to(fast.tan, explicit.tan.shape), explicit.tan)


@given(dims, dims, dims, depths, hiddens, seeds)
def test_convex_head_satisfies_jensen_at_every_context(n_xi, n_ctx, n_out, depth, hidden, s):
    # f(theta a + (1 - theta) b) <= theta f(a) + (1 - theta) f(b), per row's context
    rng = np.random.default_rng(s)
    picnn = Picnn("xi", n_xi, n_ctx, n_out, depth=depth, hidden=hidden, ctx_hidden=hidden)
    params = {}
    picnn.init(params, rng, scale=0.5)
    a, b = rng.uniform(-2, 2, (2, ROWS, n_xi))
    ctx = rng.uniform(-1, 1, (ROWS, n_ctx))
    theta = rng.uniform(0, 1, (ROWS, 1))
    mixed = picnn.forward(params, theta * a + (1 - theta) * b, ctx)
    chord = (theta * picnn.forward(params, a, ctx)
             + (1 - theta) * picnn.forward(params, b, ctx))
    assert np.all(mixed <= chord + 1e-12)
