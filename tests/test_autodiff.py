"""Tests for the reverse-mode differentiation core.

Analytic gradients are checked against central finite differences computed
here, independently of the engine.
"""

import gc

import numpy as np
import pytest

import elcontrol.autodiff as ad
from elcontrol import liecheck
from elcontrol.errors import GraphStateError, NonFiniteError, ShapeError
from elcontrol.model import ELModel, ModelArch, ModelDims


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        xp = (flat + e).reshape(x.shape)
        xm = (flat - e).reshape(x.shape)
        out[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_sinh_zero():
    g = ad.Graph(lambda x: ad.sinh(x), {}, ("x",))
    out = ad.evaluate(g, {"x": 0.0})
    assert out.data == 0.0


def test_evaluate_asinh_inverts_sinh():
    g = ad.Graph(lambda x: ad.asinh(ad.sinh(x)), {}, ("x",))
    out = ad.evaluate(g, {"x": 0.7})
    assert abs(out.data - 0.7) < 1e-12


def test_evaluate_quadratic_form():
    g = ad.Graph(lambda x: ad.sum(ad.mul(x, x)), {}, ("x",))
    out = ad.evaluate(g, {"x": np.array([1.0, 2.0])})
    assert out.data == pytest.approx(5.0, abs=0)


def test_evaluate_rejects_shape_mismatch_with_node_name():
    g = ad.Graph(lambda A, x: ad.matmul(A, x), {}, ("A", "x"))
    with pytest.raises(ShapeError, match="matmul"):
        ad.evaluate(g, {"A": np.eye(3), "x": np.ones((2, 1))})


def test_gradient_before_evaluate_is_an_error():
    g = ad.Graph(lambda x: ad.sinh(x), {"p": 1.0}, ("x",))
    with pytest.raises(GraphStateError):
        ad.gradient(g)


# ---------------------------------------------------------------------------
# gradient

def test_gradient_sinh_at_zero():
    g = ad.Graph(lambda x: ad.sinh(x), {"x": 0.0}, ())
    ad.evaluate(g)
    assert ad.gradient(g)["x"] == pytest.approx(1.0, abs=0)


def test_gradient_quadratic_form_exact():
    x0 = np.array([1.0, 2.0])
    g = ad.Graph(lambda x: ad.sum(ad.mul(x, x)), {"x": x0}, ())
    ad.evaluate(g)
    assert np.array_equal(ad.gradient(g)["x"], 2 * x0)


def test_gradient_three_layer_chain_matches_fd():
    rng = np.random.default_rng(0)
    W1, W2, W3 = rng.normal(size=(4, 3)), rng.normal(size=(4, 4)), rng.normal(size=(1, 4))
    x0 = rng.normal(size=3)

    def f_np(x):
        h1 = np.logaddexp(0.0, W1 @ x)
        h2 = np.arcsinh(W2 @ h1)
        return float((W3 @ np.sinh(h2))[0])

    def f_t(x):
        h1 = ad.softplus(ad.matvec(ad.constant(W1), x))
        h2 = ad.asinh(ad.matvec(ad.constant(W2), h1))
        return ad.sum(ad.matvec(ad.constant(W3), ad.sinh(h2)))

    g = ad.Graph(f_t, {"x": x0}, ())
    ad.evaluate(g)
    assert rel_err(ad.gradient(g)["x"], fd_gradient(f_np, x0)) < 1e-5


def test_gradient_unused_parameter_is_exactly_zero():
    g = ad.Graph(lambda x, p, q: ad.sum(ad.mul(x, p)),
                 {"p": np.ones(3), "q": np.ones(2)}, ("x",))
    ad.evaluate(g, {"x": np.arange(3.0)})
    grads = ad.gradient(g)
    assert np.array_equal(grads["q"], np.zeros(2))
    assert np.array_equal(grads["p"], np.arange(3.0))


# spec invariant: 100 random primitive compositions match finite differences
def test_gradient_random_graphs_match_fd():
    unary_pool = [
        (ad.sinh, np.sinh), (ad.asinh, np.arcsinh), (ad.cosh, np.cosh),
        (ad.exp, np.exp), (ad.softplus, lambda v: np.logaddexp(0.0, v)),
        (ad.square, np.square), (ad.relu, lambda v: np.maximum(v, 0.0)),
        (ad.log, None),  # applied as log(softplus(.) + 0.1) to stay in-domain
    ]
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        dim = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 4))
        x0 = rng.uniform(-1.0, 1.0, size=dim)
        mats = [rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(depth)]
        picks = [int(rng.integers(0, len(unary_pool))) for _ in range(depth)]
        reduce_mean = bool(rng.integers(0, 2))

        def f_generic(x, t):
            for W, k in zip(mats, picks):
                Wt = ad.constant(W) if t else W
                x = ad.matvec(Wt, x) if t else W @ x
                op_t, op_np = unary_pool[k]
                if op_np is None:
                    x = (ad.log(ad.add(ad.softplus(x), 0.1)) if t
                         else np.log(np.logaddexp(0.0, x) + 0.1))
                else:
                    x = op_t(x) if t else op_np(x)
            if t:
                return ad.mul(ad.sum(x), 1.0 / x.size) if reduce_mean else ad.sum(x)
            return float(np.mean(x) if reduce_mean else np.sum(x))

        g = ad.Graph(lambda x: f_generic(x, True), {"x": x0}, ())
        ad.evaluate(g)
        err = rel_err(ad.gradient(g)["x"], fd_gradient(lambda v: f_generic(v, False), x0))
        worst = max(worst, err)
    assert worst < 1e-5


def test_gradient_linearity_exact_for_pow2_scalars():
    # alpha, beta powers of two make the scaling float-exact; each branch
    # contributes a single accumulation term, so no re-association occurs
    rng = np.random.default_rng(3)
    p0 = rng.normal(size=4)
    alpha, beta = 2.0, 0.5

    combo = ad.Graph(
        lambda p: ad.add(ad.mul(ad.sum(ad.sinh(p)), alpha),
                         ad.mul(ad.sum(ad.square(p)), beta)),
        {"p": p0}, ())
    ad.evaluate(combo)
    g_combo = ad.gradient(combo)["p"]

    f_g = ad.Graph(lambda p: ad.sum(ad.sinh(p)), {"p": p0}, ())
    ad.evaluate(f_g)
    g_g = ad.Graph(lambda p: ad.sum(ad.square(p)), {"p": p0}, ())
    ad.evaluate(g_g)
    g_sum = alpha * ad.gradient(f_g)["p"] + beta * ad.gradient(g_g)["p"]
    assert np.array_equal(g_combo, g_sum)

    # with fan-in (a parameter used twice inside one branch) accumulation
    # order may re-associate; agreement is then within float noise
    fan = ad.Graph(
        lambda p: ad.add(ad.mul(ad.sum(ad.sinh(p)), alpha),
                         ad.mul(ad.sum(ad.mul(p, p)), beta)),
        {"p": p0}, ())
    ad.evaluate(fan)
    h_g = ad.Graph(lambda p: ad.sum(ad.mul(p, p)), {"p": p0}, ())
    ad.evaluate(h_g)
    g_ref = alpha * ad.gradient(f_g)["p"] + beta * ad.gradient(h_g)["p"]
    assert rel_err(ad.gradient(fan)["p"], g_ref) <= 1e-12


def test_gradient_shard_reduction_order_noise():
    # combining shard gradients is associative up to float noise <= 1e-12 rel
    rng = np.random.default_rng(9)
    p0 = rng.normal(size=6)
    shards = [rng.normal(size=(5, 6)) for _ in range(8)]
    grads = []
    for W in shards:
        g = ad.Graph(lambda p, W=W: ad.sum(ad.square(ad.matvec(ad.constant(W), p))),
                     {"p": p0}, ())
        ad.evaluate(g)
        grads.append(ad.gradient(g)["p"])
    fwd = grads[0].copy()
    for g in grads[1:]:
        fwd = fwd + g
    rev = grads[-1].copy()
    for g in reversed(grads[:-1]):
        rev = rev + g
    assert rel_err(fwd, rev) <= 1e-12


def test_gradient_repeat_is_bit_identical():
    rng = np.random.default_rng(11)
    p0 = rng.normal(size=5)

    def run():
        g = ad.Graph(lambda p: ad.mul(ad.sum(ad.square(ad.sinh(p))), 1.0 / p.size),
                     {"p": p0.copy()}, ())
        ad.evaluate(g)
        return ad.gradient(g)["p"]

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# jacobian

def test_jacobian_linear_map_is_weight_matrix():
    W = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = ad.as_tensor(np.array([0.3, -0.7]))
    J = ad.jacobian_rows(ad.matvec(ad.constant(W), x), [x])[0].data
    assert np.array_equal(J, W)


def test_jacobian_hand_example():
    # f(y) = (y1*y2, y1^2) at (2, 3) -> [[3, 2], [4, 0]]
    def f(y):
        y1 = ad.narrow(y, 0, 0, 1)
        y2 = ad.narrow(y, 0, 1, 1)
        return ad.concat([ad.mul(y1, y2), ad.square(y1)], axis=0)

    y = ad.as_tensor(np.array([2.0, 3.0]))
    J = ad.jacobian_rows(f(y), [y])[0].data
    assert np.allclose(J, [[3.0, 2.0], [4.0, 0.0]], atol=1e-14)


def test_jacobian_random_network_matches_fd():
    rng = np.random.default_rng(5)
    W1, W2 = rng.normal(size=(5, 3)), rng.normal(size=(3, 5))

    def f_t(x):
        return ad.matvec(ad.constant(W2), ad.asinh(
            ad.add(ad.matvec(ad.constant(W1), x), ad.sinh(0.3))))

    def f_np(x):
        return W2 @ np.arcsinh(W1 @ x + np.sinh(0.3))

    x0 = rng.normal(size=3)
    x = ad.as_tensor(x0)
    J = ad.jacobian_rows(f_t(x), [x])[0].data
    h = 1e-6
    J_fd = np.column_stack([
        (f_np(x0 + h * e) - f_np(x0 - h * e)) / (2 * h)
        for e in np.eye(3)])
    assert rel_err(J, J_fd) < 1e-5


# ---------------------------------------------------------------------------
# solve primitive and nested derivatives

def test_solve_forward_matches_numpy():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=(4, 1))
    out = ad.solve(ad.constant(A), ad.constant(b))
    assert np.allclose(out.data, np.linalg.solve(A, b), atol=1e-13)


def test_solve_gradient_matches_fd():
    rng = np.random.default_rng(8)
    A0 = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    b0 = rng.normal(size=(3, 1))

    def f_np(a_flat):
        A = a_flat.reshape(3, 3)
        w = np.linalg.solve(A, b0)
        return float(np.sum(np.sinh(w)))

    def fn(a):
        A = ad.reshape(a, (3, 3))
        w = ad.solve(A, ad.constant(b0))
        return ad.sum(ad.sinh(w))

    g = ad.Graph(fn, {"a": A0.reshape(-1)}, ())
    ad.evaluate(g)
    assert rel_err(ad.gradient(g)["a"], fd_gradient(f_np, A0.reshape(-1))) < 1e-5


def test_nested_second_derivative_of_sinh():
    # d^2/dx^2 sinh(x) = sinh(x), obtained by differentiating the gradient
    x0 = np.array([0.6])

    def grad_fn(x):
        out = ad.sinh(x)
        (gx,) = ad.backward(out, np.ones(1), [x])
        return gx

    x = ad.as_tensor(x0)
    J2 = ad.jacobian_rows(grad_fn(x), [x])[0]
    assert abs(J2.data[0, 0] - np.sinh(0.6)) < 1e-12


def test_nested_jacobian_of_jacobian_row():
    # h(y) = J_f(y) @ v for f(y) = (sinh(y1)*y2, y1^2); check dh/dy against FD
    v = np.array([0.7, -0.4])

    def f(y):
        y1 = ad.narrow(y, 0, 0, 1)
        y2 = ad.narrow(y, 0, 1, 1)
        return ad.concat([ad.mul(ad.sinh(y1), y2), ad.square(y1)], axis=0)

    def h(y):
        (J,) = ad.jacobian_rows(f(y), [y])
        return ad.matvec(J, ad.constant(v))

    def h_np(y):
        J = np.array([[np.cosh(y[0]) * y[1], np.sinh(y[0])], [2 * y[0], 0.0]])
        return J @ v

    y0 = np.array([0.3, 0.9])
    y = ad.as_tensor(y0)
    J_h = ad.jacobian_rows(h(y), [y])[0].data
    step = 1e-6
    J_fd = np.column_stack([
        (h_np(y0 + step * e) - h_np(y0 - step * e)) / (2 * step)
        for e in np.eye(2)])
    assert rel_err(J_h, J_fd) < 1e-5


def _rows_one_backward_each(out, wrt):
    rows = []
    for i in range(out.shape[-1]):
        seed = np.zeros(out.shape)
        seed[..., i] = 1.0
        rows.append(ad.backward(out, seed, wrt))
    return [np.stack([r[j].data for r in rows], axis=out.ndim - 1) for j in range(len(wrt))]


def test_jacobian_rows_equals_one_backward_per_row():
    rng = np.random.default_rng(5)
    # two batched inputs, as in the model's training loss
    Y = ad.as_tensor(rng.normal(size=(6, 3)))
    D = ad.as_tensor(rng.normal(size=(6, 2)))
    W = ad.constant(rng.normal(size=(4, 5)))
    hidden = ad.softplus(ad.matmul(ad.concat([Y, D], axis=1), ad.transpose(W)))
    out = ad.add(ad.mul(ad.sinh(hidden), ad.narrow(hidden, 1, 0, 1)), ad.square(hidden))
    got = ad.jacobian_rows(out, [Y, D])
    for g, expected in zip(got, _rows_one_backward_each(out, [Y, D])):
        assert np.array_equal(g.data, expected)

    # a nested bracket: its graph holds backward passes of its own
    from elcontrol.liecheck import ad_power_field, noninvolutive_chain
    system = noninvolutive_chain()
    x = ad.as_tensor(np.array([0.3, -0.7, 0.5]))
    out = ad_power_field(system.f, system.g, 2)(x)
    (got,) = ad.jacobian_rows(out, [x])
    (expected,) = _rows_one_backward_each(out, [x])
    assert np.array_equal(got.data, expected)


# ---------------------------------------------------------------------------
# recorded programs: replaying the numpy calls of one graph on new leaves

def _record(graph, inputs):
    with ad.recording() as program:
        loss = ad.evaluate(graph, inputs).data
        grads = ad.gradient(graph)
    leaves = {k: t.data for k, t in graph.parameters.items()}
    return program.finish({**leaves, **inputs}, loss, grads)


def _fresh(fn, params, names, inputs):
    g = ad.Graph(fn, params, names)
    return ad.evaluate(g, inputs).data, ad.gradient(g)


def test_recorded_relu_replays_on_sign_flipped_inputs():
    # the mask is an operation on x, not a constant taken from the recorded x
    def fn(w, x):
        h = ad.relu(ad.matmul(x, w))
        return ad.sum(ad.mul(ad.relu(ad.mul(h, x)), x))

    rng = np.random.default_rng(3)
    x, w = rng.normal(size=(5, 4)), rng.normal(size=(4, 4))
    program = _record(ad.Graph(fn, {"w": w}, ("x",)), {"x": x})
    for sign in (1.0, -1.0):
        got_loss, got = program.run({"w": sign * w, "x": -x})
        want_loss, want = _fresh(fn, {"w": sign * w}, ("x",), {"x": -x})
        assert got_loss == want_loss and np.array_equal(got["w"], want["w"])


def test_program_drops_repeated_and_unread_calls():
    def fn(p, x):
        ad.exp(ad.mul(x, p))   # read by nothing
        return ad.add(ad.sum(ad.sinh(ad.mul(x, p))), ad.sum(ad.sinh(ad.mul(x, p))))

    program = _record(ad.Graph(fn, {"p": np.ones(3)}, ("x",)), {"x": np.arange(3.0)})
    calls = [op[0] for op in program.forward + program.backward]
    assert len(program.ops) > len(calls) and np.exp not in calls
    assert [op[0] for op in program.forward] == [np.multiply, np.sinh, np.sum, np.add]


def test_program_gradient_of_unreached_parameter_is_a_read_only_zero():
    def fn(x, p, q):
        return ad.sum(ad.mul(x, p))

    program = _record(ad.Graph(fn, {"p": np.ones(3), "q": np.ones(2)}, ("x",)),
                      {"x": np.arange(3.0)})
    loss, grads = program.run({"p": np.full(3, 2.0), "q": np.ones(2), "x": np.ones(3)})
    assert loss == 6.0 and np.array_equal(grads["p"], np.ones(3))
    assert np.array_equal(grads["q"], np.zeros(2)) and not grads["q"].flags.writeable
    assert program.run({"p": np.ones(3), "q": np.ones(2), "x": np.ones(3)}, False)[1] is None


def _raised(call):
    try:
        call()
    except (NonFiniteError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return None


def test_program_raises_what_the_graph_raises():
    def fn(p, a, x):
        return ad.sum(ad.add(ad.log(ad.mul(p, x)), ad.solve(a, ad.reshape(x, (2, 1)))))

    leaves = {"p": np.ones(2), "a": np.eye(2)}
    program = _record(ad.Graph(fn, leaves, ("x",)), {"x": np.ones(2)})
    # a loss that is not finite, a finite loss whose gradient is not (log of a
    # subnormal p), and a singular solve
    cases = [({**leaves, "x": np.array([-1.0, 1.0])}, "graph evaluation"),
             ({**leaves, "p": np.array([1e-320, 1.0])}, "gradient of parameter 'p'"),
             ({**leaves, "a": np.zeros((2, 2))}, "Singular")]
    with np.errstate(all="ignore"):
        for run, message in cases:
            want = _raised(lambda: _fresh(fn, {k: run[k] for k in leaves}, ("x",),
                                          {"x": run.get("x", np.ones(2))}))
            got = _raised(lambda: program.run({"x": np.ones(2), **run}))
            assert got == want and message in got[1]


def _recorded_training_step():
    arch = ModelArch(phi_depth=1, phi_hidden=8, psi_depth=1, psi_hidden=8,
                     xi_depth=2, xi_hidden=8, core_hidden=8)
    model = ELModel.random(ModelDims(3, 3, 2, 2), arch, seed=0)
    rng = np.random.default_rng(0)
    batch = {k: rng.uniform(-1.0, 1.0, (512, w))
             for k, w in {"v": 3, "y": 3, "d": 2, "d_dot": 2, "ydot": 3, "z": 2}.items()}

    def step():
        with ad.recording() as program:
            g = model.loss_graph(np.eye(5), 512)
            loss = ad.evaluate(g, batch).data
            grads = ad.gradient(g)
        program.finish({**model.params, **batch}, loss, grads)

    return step


def _liecheck_sample():
    system = liecheck.VectorFieldPair(
        f=liecheck.compile_field(["exp(y2)", "log(1 + square(y1))", "softplus(y1)"], 3),
        g=liecheck.compile_field(["0", "0", "1"], 3), n=3)
    return lambda: liecheck.check_linearizable(system, (-1.0, 1.0), samples=1)


@pytest.mark.parametrize("make", [_recorded_training_step, _liecheck_sample],
                         ids=["512-row training step", "liecheck sample"])
def test_a_dropped_graph_is_freed_without_the_cycle_collector(make):
    # no node refers to itself, so reference counting frees every graph
    run = make()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
