"""The plain-numpy Jacobian kernels equal the tangent pass bit for bit.

`MlpStack`'s value and input Jacobian, `Bnn.weight` on a tangent,
`Bnn.jacobians_with` (through `state_jacobians` and `maps_at`) and the two
branches of `ELModel.predict_ydot` (d_dot zero: Phi's array coefficients and
no dPhi/dd; d_dot nonzero: tangent coefficients seeded with d) are checked
against tangent-mode evaluation, which stays the reference, over random
dimensions (1-4), depths (1-3), hidden sizes and row counts; the z that
`predict_ydot` writes into `z_out` is checked against `predict_z`.  Equality
is of bytes, not to a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elcontrol.arrays import Tangent, exp, narrow, reshape, seed
from elcontrol.errors import NonFiniteError, ShapeError
from elcontrol.model import ELModel, ModelArch, ModelDims
from elcontrol.networks import Bnn, MlpStack, ParamMlp

dims = st.integers(1, 4)
depths = st.integers(1, 3)
hiddens = st.sampled_from([1, 4, 16])
rows = st.sampled_from([1, 3])
seeds = st.integers(0, 2 ** 32 - 1)


def assert_bytes_equal(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def random_model(ny, nu, nd, depth, hidden, s):
    arch = ModelArch(phi_depth=depth, phi_hidden=hidden, psi_depth=depth, psi_hidden=hidden,
                     xi_depth=2, xi_hidden=4, core_hidden=hidden)
    return ELModel.random(ModelDims(ny, nu, nd, 1), arch, seed=s % 1000)


def tangent_phi(m, y, d):
    """Phi at physical (y, d) by one tangent pass seeded with [d | y], in
    standardized units."""
    ys, ds = m.scalers["y"].transform(y), m.scalers["d"].transform(d)
    return m.state_map.forward(m.params, seed(ys, offset=ds.shape[-1]), seed(ds))


def tangent_ydot(m, v, y, d, d_dot):
    """predict_ydot's formula over `tangent_phi`."""
    sy, sd, nd = m.scalers["y"], m.scalers["d"], d.shape[-1]
    out = tangent_phi(m, y, d)
    J_y, J_d = out.tan[..., nd:], out.tan[..., :nd]
    u = m.input_map.inverse(m.params, m.scalers["v"].transform(v),
                            np.concatenate([sy.transform(y), sd.transform(d)], axis=-1))
    A, B, c = m.linear_core(d)
    rhs = (np.einsum("bij,bj->bi", A, out.val) + np.einsum("bij,bj->bi", B, u) + c
           - np.einsum("bij,bj->bi", J_d, d_dot / sd.std))
    return np.linalg.solve(J_y, rhs[..., None])[..., 0] * sy.std


@given(dims, st.lists(dims, min_size=1, max_size=4), hiddens, rows, seeds)
def test_stack_kernel_equals_the_tangent_pass(in_dim, out_dims, hidden, n, s):
    rng = np.random.default_rng(s)
    stack = MlpStack([ParamMlp(f"n{k}", in_dim, o, hidden) for k, o in enumerate(out_dims)])
    params = {}
    for net in stack.nets:
        net.init(params, rng, scale=0.6)
    x = rng.uniform(-1, 1, (n, in_dim))
    for point in (x, x[0]):
        value, jac = stack.forward_and_input_jacobian_np(params, point)
        out = stack.forward(params, seed(point))
        assert_bytes_equal(value, out.val)
        assert_bytes_equal(jac, out.tan)


def generic_weight(bnn, raw):
    """W(d) = L(d) U(d) through the `arrays` ops, the formula `Bnn.weight`
    runs on arrays and graph tensors."""
    n, k = bnn.n, bnn.k_low
    L_flat = narrow(raw, 0, k) @ bnn.s_low + np.eye(n).reshape(-1)
    U_flat = (exp(narrow(raw, k, n)) @ bnn.s_diag
              + narrow(raw, k + n, n * n - k - n) @ bnn.s_up)
    shape = raw.shape[:-1] + (n, n)
    return reshape(L_flat, shape) @ reshape(U_flat, shape)


@given(dims, st.integers(1, 3), rows, seeds)
def test_weight_kernel_equals_the_generic_tangent_formula(n, nd, N, s):
    rng = np.random.default_rng(s)
    bnn = Bnn("phi", n, cond_dim=nd, depth=1)
    val, tan = rng.normal(size=(N, n * n)), rng.normal(size=(N, n * n, nd))
    for raw in (Tangent(val, tan), Tangent(val[0], tan[0])):
        got, want = bnn.weight(raw), generic_weight(bnn, raw)
        assert_bytes_equal(got.val, want.val)
        assert_bytes_equal(got.tan, want.tan)


@given(dims, dims, dims, depths, hiddens, rows, seeds)
def test_predict_ydot_and_state_jacobians_equal_the_tangent_pass(ny, nu, nd, depth, hidden, n, s):
    rng = np.random.default_rng(s)
    m = random_model(ny, nu, nd, depth, hidden, s)
    v, y, d, d_dot = (0.3 * rng.normal(size=(n, k)) for k in (nu, ny, nd, nd))
    for rate in (np.zeros_like(d_dot), d_dot):
        want = tangent_ydot(m.clone(), v, y, d, rate)
        # one row as a plant gives it, three times, so that kept entries serve
        for _ in range(3 if n == 1 else 1):
            got = m.predict_ydot(*((a[0] for a in (v, y, d, rate)) if n == 1
                                   else (v, y, d, rate)))
            assert_bytes_equal(got.reshape(want.shape), want)
    out, nd = tangent_phi(m.clone(), y, d), d.shape[-1]
    want = out.val, out.tan[..., nd:] / m.scalers["y"].std, out.tan[..., :nd] / m.scalers["d"].std
    for got, want in zip(m.state_jacobians(y, d), want, strict=True):
        assert_bytes_equal(got, want)


@given(dims, dims, dims, depths, hiddens, rows, seeds)
def test_predict_ydot_z_out_equals_predict_z(ny, nu, nd, depth, hidden, n, s):
    rng = np.random.default_rng(s)
    m = random_model(ny, nu, nd, depth, hidden, s)
    v, y, d, d_dot = (0.3 * rng.normal(size=(n, k)) for k in (nu, ny, nd, nd))
    for rate in (np.zeros_like(d_dot), d_dot):
        # a batch, and one row as a plant gives it, twice so that kept entries serve
        for args in [(v, y, d, rate)] + 2 * [tuple(a[0] for a in (v, y, d, rate))]:
            want = m.clone().predict_z(*args[:3])
            z = np.full(want.shape, np.nan)
            assert_bytes_equal(m.predict_ydot(*args, z_out=z), m.clone().predict_ydot(*args))
            assert_bytes_equal(z, want)
    with pytest.raises(ShapeError, match="z_out"):
        m.predict_ydot(v, y, d, d_dot, z_out=np.empty(1))


@given(dims, dims, dims, depths, hiddens, seeds)
def test_maps_at_state_jacobian_equals_the_tangent_pass(ny, nu, nd, depth, hidden, s):
    rng = np.random.default_rng(s)
    m = random_model(ny, nu, nd, depth, hidden, s)
    x, d = 0.3 * rng.normal(size=ny), 0.3 * rng.normal(size=nd)
    maps = m.maps_at(x, d)
    sy = m.scalers["y"]
    phi = m.state_map.coefficients(m.params, m.scalers["d"].transform(d)[None])
    want = m.state_map.forward_with(phi, seed(sy.transform(maps.y)[None])).tan / sy.std
    assert_bytes_equal(maps.dx_dy, want[0])


@pytest.mark.parametrize("d_dot", [np.zeros(2), np.array([0.4, -0.3])], ids=["still", "moving"])
@pytest.mark.parametrize("y,d", [(np.full(3, 1e3), np.zeros(2)),
                                 (np.zeros(3), np.array([1e6, -1e6]))], ids=["far_y", "far_d"])
def test_predict_ydot_non_finite_jacobian_is_an_error_on_both_branches(y, d, d_dot):
    # sinh overflows in the Jacobian pass far in y, and W(d) holds NaNs far in
    # d; every overflow stays inside the pass, ahead of the check
    m = ELModel.random(ModelDims(3, 3, 2, 2), seed=0)
    with np.errstate(all="raise", under="ignore"):
        with pytest.raises(NonFiniteError, match="Jacobian"):
            m.predict_ydot(np.zeros(3), y, d, d_dot)
