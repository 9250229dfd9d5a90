"""Property tests for the kept disturbance-only entries of Phi and the core.

A model that has already evaluated a disturbance (the kept entry is warm)
must give bit for bit what a model that never saw it gives (a cold clone),
in every map that reads the entries: the same d twice, a step to a new d,
and, as in data generation, a fresh d at every call and each d twice in a
row (an RK4 step's paired stage times).  The same holds for the point
`ELModel.maps_at` keeps.  Replacing a parameter entry invalidates what
was kept, and kept arrays are read-only.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elcontrol.arrays import seed
from elcontrol.model import ELModel, ModelArch, ModelDims

dims = st.integers(1, 4)
depths = st.integers(1, 3)
seeds = st.integers(0, 2 ** 32 - 1)


def random_model(ny, nu, nd, depth, s):
    arch = ModelArch(phi_depth=depth, phi_hidden=8, psi_depth=depth, psi_hidden=8,
                     xi_depth=2, xi_hidden=4, core_hidden=8)
    return ELModel.random(ModelDims(ny, nu, nd, 1), arch, seed=s % 1000)


def evaluations(m, y, v, x, d):
    """Every map that reads the kept entries, as flat arrays, one call each,
    and `maps_at` once more at the same point, which returns the kept point."""
    maps = m.maps_at(x, d)
    u, du_dy = maps.u_from_v_with_jac(v[None, :])
    out = [m.x_from_y(y, d), m.y_from_x(x, d), maps.y, maps.dx_dy, u, du_dy,
           maps.v_from_u(u[0]), *m.linear_core(d), m.predict_ydot(v, y, d, 0.3 * d),
           *m.state_jacobians(y, d)]
    kept = m.maps_at(x, d)
    out += [kept.y, kept.dx_dy, *kept.u_from_v_with_jac(v[None, :]), kept.v_from_u(u[0])]
    return [np.asarray(a) for a in out]


def other_tangent_passes(m, y, d):
    """Phi and the core in tangent mode with inputs the maps never pass, each
    twice in a row: a plain d, and d seeded after y.  Neither may be taken
    for the entry of an identity seed."""
    ys, ds = m.scalers["y"].transform(y)[None], m.scalers["d"].transform(d)[None]
    for _ in range(2):
        m.state_map.forward(m.params, seed(ys), ds)
        m._core(m.params, ds)
    for _ in range(2):
        m.state_map.forward(m.params, seed(ys), seed(ds, offset=ys.shape[1]))
        m._core(m.params, seed(ds, offset=1))


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@given(dims, dims, dims, depths, seeds)
def test_warm_model_equals_a_cold_model(ny, nu, nd, depth, s):
    rng = np.random.default_rng(s)
    m = random_model(ny, nu, nd, depth, s)
    y, v, x = (0.3 * rng.normal(size=k) for k in (ny, nu, ny))
    d1, d2 = 0.3 * rng.normal(size=(2, nd))
    # an entry is kept from its first call, served from the second and
    # guarded there: misses, entries and hits in every mode, around a step
    # and back
    for d in (d1, d1, d1, d2, d2, d2, d1):
        other_tangent_passes(m, y, d)
        assert_bit_equal(evaluations(m, y, v, x, d), evaluations(m.clone(), y, v, x, d))


@given(dims, dims, dims, depths, seeds)
def test_fresh_disturbances_equal_cache_free_results(ny, nu, nd, depth, s):
    rng = np.random.default_rng(s)
    m = random_model(ny, nu, nd, depth, s)
    d1, d2, d3, d4, d5 = 0.3 * rng.normal(size=(5, nd))
    # a fresh d at every call, then the RK4 pattern: each d twice in a row,
    # at a fresh y, v and a nonzero d_dot each call
    for d in (d1, d2, d3, d3, d4, d4, d5, d5):
        v, y, d_dot = (0.3 * rng.normal(size=k) for k in (nu, ny, nd))
        warm, cold = np.empty(1), np.empty(1)
        assert_bit_equal([m.predict_ydot(v, y, d, d_dot, z_out=warm), warm],
                         [m.clone().predict_ydot(v, y, d, d_dot, z_out=cold), cold])


@given(dims, dims, dims, depths, seeds)
def test_replaced_parameters_invalidate_kept_entries(ny, nu, nd, depth, s):
    rng = np.random.default_rng(s)
    m = random_model(ny, nu, nd, depth, s)
    y, v, x = (0.3 * rng.normal(size=k) for k in (ny, nu, ny))
    d = 0.3 * rng.normal(size=nd)
    before = evaluations(m, y, v, x, d)
    # the kept point of maps_at sees a replaced Phi entry, and a replaced Psi entry
    for key in ("phi.l0.c.b3", "psi.l0.b.b3"):
        m.params[key] = m.params[key] + 0.05
        assert_bit_equal(evaluations(m, y, v, x, d), evaluations(m.clone(), y, v, x, d))
    for key in ("phi.l0.w.b3", "phi.l0.b.b3", "core.a.b3", "core.c.b3"):
        m.params[key] = m.params[key] + 0.05
    after = evaluations(m, y, v, x, d)
    assert_bit_equal(after, evaluations(m.clone(), y, v, x, d))
    assert after[0].tobytes() != before[0].tobytes()        # x_from_y moved
    assert after[7].tobytes() != before[7].tobytes()        # A(d) moved


def test_kept_arrays_are_read_only():
    m = ELModel.random(ModelDims(3, 3, 2, 2), seed=0)
    d = np.array([0.2, -0.1])
    ds = m.scalers["d"].transform(d)[None, :]
    # an entry is kept from the first call and guarded (cond W) at the second
    for _ in range(2):
        A, B, c = m.linear_core(d)
        (W, b, c_phi, cond), *_ = m.state_map.coefficients(m.params, ds)
        (W_t, b_t, _, _), *_ = m.state_map.coefficients(m.params, seed(ds))
    maps = m.maps_at(np.array([0.1, 0.2, 0.3]), d)
    for array in (A, B, c, W, b, c_phi, cond, W_t.val, W_t.tan, b_t.val, maps.y, maps.dx_dy):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    # and the entries still hold what they held
    assert m.linear_core(d)[0].tobytes() == m.clone().linear_core(d)[0].tobytes()


def test_a_kept_nan_weight_leaves_the_forward_map_as_uncached():
    # at d = (1e6, -1e6) Phi's W(d) holds NaNs: its condition number fails,
    # so a kept entry must not compute it where only the forward map runs
    m = ELModel.random(ModelDims(3, 3, 2, 2), seed=0)
    y, d = np.array([0.1, 0.2, 0.3]), np.array([1e6, -1e6])
    with np.errstate(all="ignore"):
        want = m.clone().x_from_y(y, d)
        for _ in range(3):
            assert m.x_from_y(y, d).tobytes() == want.tobytes()
    assert np.all(np.isnan(want))
