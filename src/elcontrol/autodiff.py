"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation builds a node in an implicit computation graph.  Backward
rules are themselves written in terms of graph operations, so gradients are
ordinary graph values and can be differentiated again (nested first-order
derivatives, as needed for Lie brackets and for training losses that contain
Jacobian terms).

The mathematical primitive set is deliberately small and auditable:

    add, sub, mul, matmul, sinh, asinh, cosh, exp, log,
    softplus, relu, square, sum, mean, solve

plus structural operations (reshape, transpose, concat, narrow, ...) whose
backward rules move data without arithmetic.  `solve` is the dense linear
system solve used to apply Jacobian inverses; its backward rule is two more
solves and a rank-one product.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphStateError, NonFiniteError, ShapeError

__all__ = [
    "Tensor", "Graph", "as_tensor", "constant",
    "add", "sub", "mul", "matmul", "sinh", "asinh", "cosh", "exp", "log",
    "softplus", "relu", "square", "sum", "mean", "solve",
    "reshape", "transpose", "concat", "narrow", "stack", "expand_dims",
    "squeeze", "matvec", "dot",
    "backward", "evaluate", "gradient", "jacobian", "jacobian_fn", "jacobian_rows",
]

_builtin_sum = sum


class Tensor:
    """A float64 array plus the recipe that produced it.

    Leaf tensors (parameters, inputs, constants) have no parents.  Interior
    tensors keep references to their parents and a `vjp` callable that maps
    the output adjoint to one adjoint per parent.  Adjoints are Tensors, so
    backward passes extend the same graph.
    """

    __slots__ = ("data", "parents", "vjp", "name")

    def __init__(self, data, parents=(), vjp=None, name=""):
        if isinstance(data, Tensor):
            raise TypeError("Tensor data must be array-like, not Tensor")
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.parents = parents
        self.vjp = vjp
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # operator sugar; all routed through the primitive functions below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        """Division by a constant, as multiplication by its reciprocal."""
        return mul(self, 1.0 / np.asarray(other, dtype=np.float64))

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)


def as_tensor(x) -> Tensor:
    """Wrap array-likes as constant leaf tensors; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def constant(x, name="const") -> Tensor:
    return Tensor(x, name=name)


def _node(data, parents, vjp, name) -> Tensor:
    return Tensor(data, parents=tuple(parents), vjp=vjp, name=name)


# ---------------------------------------------------------------------------
# broadcasting support

def _sum_to_shape(g: Tensor, shape) -> Tensor:
    """Reduce a broadcast adjoint back to `shape` by summation."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = sum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = sum(g, axis=axes, keepdims=True)
    if g.shape != tuple(shape):
        raise ShapeError(f"cannot reduce adjoint of shape {g.shape} to {tuple(shape)}")
    return g


def _check_broadcast(a: Tensor, b: Tensor, name: str):
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{name!r}: operands {a.shape} and {b.shape} do not broadcast") from exc


# ---------------------------------------------------------------------------
# arithmetic primitives

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")

    def vjp(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(g, b.shape)

    return _node(a.data + b.data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")

    def vjp(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(mul(g, -1.0), b.shape)

    return _node(a.data - b.data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")

    def vjp(g):
        return _sum_to_shape(mul(g, b), a.shape), _sum_to_shape(mul(g, a), b.shape)

    return _node(a.data * b.data, (a, b), vjp, "mul")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"'matmul': operands must have ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"'matmul': inner dimensions differ, {a.shape} @ {b.shape}")

    def vjp(g):
        ga = _sum_to_shape(matmul(g, transpose(b)), a.shape)
        gb = _sum_to_shape(matmul(transpose(a), g), b.shape)
        return ga, gb

    return _node(np.matmul(a.data, b.data), (a, b), vjp, "matmul")


def solve(a, b) -> Tensor:
    """Solve ``a @ x = b`` for x with square ``a``; shapes (..., n, n) and (..., n, k)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"'solve': coefficient matrix must be square, got {a.shape}")
    if b.ndim < 2 or b.shape[-2] != a.shape[-1]:
        raise ShapeError(f"'solve': incompatible shapes {a.shape} and {b.shape}")
    out = _node(np.linalg.solve(a.data, b.data), (a, b), None, "solve")

    def vjp(g):
        gb = solve(transpose(a), g)
        ga = _sum_to_shape(mul(matmul(gb, transpose(out)), -1.0), a.shape)
        return ga, _sum_to_shape(gb, b.shape)

    out.vjp = vjp
    return out


# ---------------------------------------------------------------------------
# elementwise primitives

def sinh(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        return (mul(g, cosh(x)),)

    return _node(np.sinh(x.data), (x,), vjp, "sinh")


def cosh(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        return (mul(g, sinh(x)),)

    return _node(np.cosh(x.data), (x,), vjp, "cosh")


def asinh(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        # d/dx asinh = (1 + x^2)^(-1/2), written with exp/log primitives
        return (mul(g, exp(mul(log(add(square(x), 1.0)), -0.5))),)

    return _node(np.arcsinh(x.data), (x,), vjp, "asinh")


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = _node(np.exp(x.data), (x,), None, "exp")

    def vjp(g):
        return (mul(g, out),)

    out.vjp = vjp
    return out


def log(x) -> Tensor:
    x = as_tensor(x)
    out = _node(np.log(x.data), (x,), None, "log")

    def vjp(g):
        return (mul(g, exp(mul(out, -1.0))),)

    out.vjp = vjp
    return out


def softplus(x) -> Tensor:
    x = as_tensor(x)
    out = _node(np.logaddexp(0.0, x.data), (x,), None, "softplus")

    def vjp(g):
        # sigmoid(x) = exp(x - softplus(x)), stable for all x
        return (mul(g, exp(sub(x, out))),)

    out.vjp = vjp
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = (x.data > 0).astype(np.float64)

    def vjp(g):
        return (mul(g, constant(mask, "relu_mask")),)

    return _node(x.data * mask, (x,), vjp, "relu")


def square(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        return (mul(g, mul(x, 2.0)),)

    return _node(np.square(x.data), (x,), vjp, "square")


# ---------------------------------------------------------------------------
# reductions

def _kept_shape(shape, axis):
    if axis is None:
        return (1,) * len(shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(a % len(shape) for a in axes)
    return tuple(1 if i in axes else s for i, s in enumerate(shape))


def sum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        if not keepdims:
            g = reshape(g, _kept_shape(x.shape, axis))
        return (mul(g, constant(np.ones(x.shape), "ones")),)

    return _node(np.sum(x.data, axis=axis, keepdims=keepdims), (x,), vjp, "sum")


def mean(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    count = x.size if axis is None else np.prod(
        [x.shape[a % x.ndim] for a in (axis if isinstance(axis, tuple) else (axis,))])

    def vjp(g):
        if not keepdims:
            g = reshape(g, _kept_shape(x.shape, axis))
        return (mul(g, constant(np.full(x.shape, 1.0 / count), "mean_w")),)

    return _node(np.mean(x.data, axis=axis, keepdims=keepdims), (x,), vjp, "mean")


# ---------------------------------------------------------------------------
# structural operations (data movement only)

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)

    def vjp(g):
        return (reshape(g, x.shape),)

    return _node(np.reshape(x.data, shape), (x,), vjp, "reshape")


def transpose(x, axes=None) -> Tensor:
    """Swap the last two axes by default; permute by `axes` otherwise."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"'transpose': operand must have ndim >= 2, got {x.shape}")
    if axes is None:
        perm = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    else:
        perm = tuple(axes)
    inv = tuple(np.argsort(perm))

    def vjp(g):
        return (transpose(g, inv),)

    return _node(np.transpose(x.data, perm), (x,), vjp, "transpose")


def concat(parts, axis=0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    ax = axis % parts[0].ndim
    sizes = [p.shape[ax] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def vjp(g):
        return tuple(narrow(g, ax, int(offsets[i]), sizes[i]) for i in range(len(parts)))

    return _node(np.concatenate([p.data for p in parts], axis=ax), tuple(parts), vjp, "concat")


def narrow(x, axis, start, length) -> Tensor:
    """Slice `length` entries of `x` along `axis` beginning at `start`."""
    x = as_tensor(x)
    ax = axis % x.ndim
    idx = tuple(slice(None) if i != ax else slice(start, start + length) for i in range(x.ndim))
    before = start
    after = x.shape[ax] - start - length

    def vjp(g):
        pieces = []
        if before:
            shp = list(x.shape)
            shp[ax] = before
            pieces.append(constant(np.zeros(shp), "pad"))
        pieces.append(g)
        if after:
            shp = list(x.shape)
            shp[ax] = after
            pieces.append(constant(np.zeros(shp), "pad"))
        return (concat(pieces, axis=ax) if len(pieces) > 1 else pieces[0],)

    return _node(x.data[idx], (x,), vjp, "narrow")


def expand_dims(x, axis) -> Tensor:
    x = as_tensor(x)
    ax = axis % (x.ndim + 1)
    shape = x.shape[:ax] + (1,) + x.shape[ax:]
    return reshape(x, shape)


def squeeze(x, axis) -> Tensor:
    x = as_tensor(x)
    ax = axis % x.ndim
    if x.shape[ax] != 1:
        raise ShapeError(f"'squeeze': axis {axis} of {x.shape} is not 1")
    return reshape(x, x.shape[:ax] + x.shape[ax + 1:])


def stack(parts, axis=0) -> Tensor:
    return concat([expand_dims(p, axis) for p in parts], axis=axis)


def matvec(a, x) -> Tensor:
    """Matrix-vector product for (..., n, m) @ (..., m) -> (..., n)."""
    return squeeze(matmul(a, expand_dims(x, -1)), -1)


def dot(a, b) -> Tensor:
    return sum(mul(a, b))


# ---------------------------------------------------------------------------
# backward pass

def _topo_order(root: Tensor):
    """All ancestors of `root`, parents before children, deterministic."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _backward_plan(out: Tensor, wrt):
    """`out`'s ancestors in topological order, and the ids of those on a
    path to a `wrt` tensor: adjoints propagate only along those paths."""
    order = _topo_order(out)
    wrt_ids = {id(w) for w in wrt}
    needed = set()
    for node in order:
        if id(node) in wrt_ids or any(id(p) in needed for p in node.parents):
            needed.add(id(node))
    return order, needed


def backward(out: Tensor, seed, wrt, _plan=None) -> list[Tensor]:
    """Vector-Jacobian product: adjoints of `wrt` tensors given `seed` at `out`.

    The returned adjoints are graph tensors, so they can be differentiated
    again.  Tensors in `wrt` that the output does not depend on get exact
    zeros.  Accumulation for shared subexpressions is by summation in
    reverse topological order.  `_plan` is `_backward_plan(out, wrt)` when
    the caller already holds it.
    """
    seed = as_tensor(seed)
    if seed.shape != out.shape:
        raise ShapeError(f"seed shape {seed.shape} does not match output shape {out.shape}")
    order, needed = _plan if _plan is not None else _backward_plan(out, wrt)
    grads: dict[int, Tensor] = {id(out): seed}
    if id(out) in needed:
        for node in reversed(order):
            g = grads.get(id(node))
            if g is None or node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None or id(parent) not in needed:
                    continue
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else add(held, pg)
    return [grads.get(id(w)) or constant(np.zeros(w.shape), "zero_grad") for w in wrt]


# ---------------------------------------------------------------------------
# graph container and published entry points

class Graph:
    """A differentiable function of named inputs with named parameters.

    `fn` receives parameter tensors and input tensors as keyword arguments
    and returns a single output tensor.  `evaluate` binds concrete input
    arrays and caches the resulting graph; `gradient` then runs one backward
    pass from the cached output.
    """

    def __init__(self, fn, parameters: dict, input_names=()):
        self.fn = fn
        self.parameters = {k: as_tensor(v) for k, v in parameters.items()}
        self.input_names = tuple(input_names)
        self._output: Tensor | None = None

    @property
    def output(self) -> Tensor:
        if self._output is None:
            raise GraphStateError("graph has not been evaluated yet")
        return self._output


def evaluate(graph: Graph, inputs: dict | None = None) -> Tensor:
    """Run the graph forward on `inputs`; the output must be finite."""
    inputs = dict(inputs or {})
    unknown = set(inputs) - set(graph.input_names)
    if unknown:
        raise ShapeError(f"unknown graph inputs: {sorted(unknown)}")
    missing = set(graph.input_names) - set(inputs)
    if missing:
        raise ShapeError(f"missing graph inputs: {sorted(missing)}")
    bound = {k: as_tensor(v) for k, v in inputs.items()}
    out = graph.fn(**graph.parameters, **bound)
    if not np.all(np.isfinite(out.data)):
        raise NonFiniteError("graph evaluation produced non-finite entries")
    graph._output = out
    return out


def gradient(graph: Graph, seed=None) -> dict[str, np.ndarray]:
    """Adjoints of every parameter for the most recent `evaluate` call.

    `seed` defaults to 1 for scalar outputs.  Raises if called before
    `evaluate`.
    """
    out = graph.output
    if seed is None:
        if out.shape != ():
            raise ShapeError("a seed is required for non-scalar outputs")
        seed = 1.0
    names = list(graph.parameters)
    adj = backward(out, seed, [graph.parameters[k] for k in names])
    result = {}
    for name, g in zip(names, adj):
        if not np.all(np.isfinite(g.data)):
            raise NonFiniteError(f"gradient of parameter {name!r} is non-finite")
        result[name] = g.data
    return result


def jacobian_rows(out: Tensor, wrt) -> list[Tensor]:
    """Jacobians of `out` with respect to each tensor in `wrt`.

    One backward pass per component of the last axis of `out`, seeded with
    that component; the adjoints are stacked along that axis, so for `out`
    of shape (..., m) and an input of shape (..., n) the Jacobian has shape
    (..., m, n).  The results stay connected to the graph.  The m passes
    share one backward plan: their seeds differ, their graph does not.
    """
    m = out.shape[-1]
    plan = _backward_plan(out, wrt)
    rows = []
    for i in range(m):
        seed = np.zeros(out.shape)
        seed[..., i] = 1.0
        rows.append(backward(out, constant(seed), wrt, _plan=plan))
    return [stack([r[j] for r in rows], axis=out.ndim - 1) for j in range(len(wrt))]


def jacobian_fn(fn, point: np.ndarray) -> Tensor:
    """Differentiable Jacobian of a vector-to-vector graph function.

    Row i of the result is the gradient of output i.  The returned tensor
    stays connected to the graph, so Jacobians of functions that themselves
    contain Jacobians are well defined.
    """
    x = as_tensor(np.asarray(point, dtype=np.float64))
    out = fn(x)
    if out.ndim != 1 or x.ndim != 1:
        raise ShapeError(f"jacobian expects vector->vector, got {x.shape} -> {out.shape}")
    return jacobian_rows(out, [x])[0]


def jacobian(graph: Graph, point: np.ndarray, input_name=None) -> np.ndarray:
    """Numeric Jacobian of a single-vector-input Graph at `point`."""
    if input_name is None:
        if len(graph.input_names) != 1:
            raise ShapeError("jacobian requires a single-input graph or an explicit input name")
        input_name = graph.input_names[0]
    jac = jacobian_fn(lambda x: graph.fn(**graph.parameters, **{input_name: x}), point).data
    if not np.all(np.isfinite(jac)):
        raise NonFiniteError("jacobian produced non-finite entries")
    return jac
