"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation builds a node in an implicit computation graph.  Backward
rules are themselves written in terms of graph operations, so gradients are
ordinary graph values and can be differentiated again (nested first-order
derivatives, as needed for Lie brackets and for training losses that contain
Jacobian terms).

The mathematical primitive set is deliberately small and auditable:

    add, sub, mul, matmul, sinh, asinh, cosh, exp, log,
    softplus, relu, square, sum, solve

The elementwise ones are the rows of `ELEMENTWISE`, each a numpy function
and its slope; add, sub and mul share one broadcasting rule.  Plus
structural operations (reshape, transpose, concat, narrow, ...) whose
backward rules move data without arithmetic.  `solve` is the dense linear
system solve used to apply Jacobian inverses; its backward rule is two more
solves and a rank-one product.

A node's vjp is called as vjp(g, node): it reads its operands from
`node.parents` and its value from `node`, and returns one adjoint per
parent.  No vjp holds its own node, so no node refers to itself and a
dropped graph is freed by reference counting at once.

`jacobian_rows` is the one Jacobian helper; its results stay in the graph.

Each node is one numpy call on its operands' arrays, relu's mask included.
Inside `with recording() as program` the calls are also noted, and
`program.finish` makes them a `Program` that replays a loss and its
gradients on new leaf arrays with no nodes, bit for bit; training replays
every batch after the first of its shape.
"""

from __future__ import annotations

import contextlib
import functools
import operator

import numpy as np

from .errors import GraphStateError, NonFiniteError, ShapeError

__all__ = [
    "Tensor", "Graph", "as_tensor", "constant", "ELEMENTWISE",
    "add", "sub", "mul", "matmul", "sinh", "asinh", "cosh", "exp", "log",
    "softplus", "relu", "square", "sum", "solve",
    "reshape", "transpose", "concat", "narrow", "stack", "expand_dims",
    "squeeze", "matvec",
    "backward", "evaluate", "gradient", "jacobian_rows", "recording", "Program",
]


class Tensor:
    """A float64 array plus the recipe that produced it.

    Leaf tensors (parameters, inputs, constants) have no parents.  Interior
    tensors keep references to their parents and a `vjp` callable that maps
    the output adjoint and the tensor itself to one adjoint per parent.
    Adjoints are Tensors, so backward passes extend the same graph.
    """

    __slots__ = ("data", "parents", "vjp")

    def __init__(self, data):
        if isinstance(data, Tensor):
            raise TypeError("Tensor data must be array-like, not Tensor")
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = ()
        self.vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

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


def constant(x) -> Tensor:
    return Tensor(x)


def _node(fn, operands, vjp, *args, **kw) -> Tensor:
    """The tensor fn(*operand data, *args, **kw) with the tuple `operands` as
    its parents; an open `recording` appends the call to its program.  Every
    node comes through here, so one or two operands are unpacked by hand, and
    numpy's float64 result skips `Tensor.__init__`'s checks."""
    if len(operands) == 1:
        data = fn(operands[0].data, *args, **kw)
    elif len(operands) == 2:
        data = fn(operands[0].data, operands[1].data, *args, **kw)
    else:
        data = fn(*[t.data for t in operands], *args, **kw)
    node = Tensor.__new__(Tensor)
    node.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    node.parents, node.vjp = operands, vjp
    if _recording is not None:
        slot = _recording.slot
        _recording.ops.append((fn, tuple(slot(t.data) for t in operands), args, kw,
                               slot(node.data)))
    return node


_softplus = functools.partial(np.logaddexp, 0.0)


def _concat(*parts, axis):
    return np.concatenate(parts, axis=axis)


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


# ---------------------------------------------------------------------------
# arithmetic primitives

def _broadcasting(name, fn, adjoint_a, adjoint_b):
    """The primitive fn(a, b) on operands that broadcast together; the
    adjoints of a and b are adjoint_a(g, a, b) and adjoint_b(g, a, b),
    summed back to each operand's shape."""

    def vjp(g, node):
        a, b = node.parents
        return (_sum_to_shape(adjoint_a(g, a, b), a.shape),
                _sum_to_shape(adjoint_b(g, a, b), b.shape))

    def op(a, b) -> Tensor:
        a, b = as_tensor(a), as_tensor(b)
        if a.shape != b.shape:
            try:
                np.broadcast_shapes(a.shape, b.shape)
            except ValueError as exc:
                raise ShapeError(f"{name!r}: operands {a.shape} and {b.shape} "
                                 f"do not broadcast") from exc
        return _node(fn, (a, b), vjp)

    op.__name__ = op.__qualname__ = name
    return op


add = _broadcasting("add", np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _broadcasting("sub", np.subtract, lambda g, a, b: g, lambda g, a, b: mul(g, -1.0))
mul = _broadcasting("mul", np.multiply, lambda g, a, b: mul(g, b), lambda g, a, b: mul(g, a))


def _matmul_vjp(g, node):
    a, b = node.parents
    return (_sum_to_shape(matmul(g, transpose(b)), a.shape),
            _sum_to_shape(matmul(transpose(a), g), b.shape))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"'matmul': operands must have ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"'matmul': inner dimensions differ, {a.shape} @ {b.shape}")
    return _node(np.matmul, (a, b), _matmul_vjp)


def _solve_vjp(g, node):
    a, b = node.parents
    gb = solve(transpose(a), g)
    ga = _sum_to_shape(mul(matmul(gb, transpose(node)), -1.0), a.shape)
    return ga, _sum_to_shape(gb, b.shape)


def solve(a, b) -> Tensor:
    """Solve ``a @ x = b`` for x with square ``a``; shapes (..., n, n) and (..., n, k)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"'solve': coefficient matrix must be square, got {a.shape}")
    if b.ndim < 2 or b.shape[-2] != a.shape[-1]:
        raise ShapeError(f"'solve': incompatible shapes {a.shape} and {b.shape}")
    return _node(np.linalg.solve, (a, b), _solve_vjp)


# ---------------------------------------------------------------------------
# elementwise primitives

def _positive(x):
    return (x > 0).astype(np.float64)


def _relu(x):
    return x * _positive(x)


def _mask(x):
    """relu's slope: computed from x when it runs, but a constant to
    differentiation."""
    mask = _node(_positive, (x,), None)
    mask.parents = ()
    return mask


def _elementwise(name, fn, slope):
    """The primitive fn(x) whose adjoint is g * slope(x, out), the slope
    written in graph operations so that it can be differentiated again."""

    def vjp(g, node):
        return (mul(g, slope(node.parents[0], node)),)

    def op(x) -> Tensor:
        return _node(fn, (as_tensor(x),), vjp)

    op.__name__ = op.__qualname__ = name
    return op


# (name, numpy function, slope(x, out))
ELEMENTWISE = {name: _elementwise(name, fn, slope) for name, fn, slope in (
    ("sinh", np.sinh, lambda x, out: cosh(x)),
    ("cosh", np.cosh, lambda x, out: sinh(x)),
    # d/dx asinh = (1 + x^2)^(-1/2), written with exp/log primitives
    ("asinh", np.arcsinh, lambda x, out: exp(mul(log(add(square(x), 1.0)), -0.5))),
    ("exp", np.exp, lambda x, out: out),
    ("log", np.log, lambda x, out: exp(mul(out, -1.0))),
    # sigmoid(x) = exp(x - softplus(x)), stable for all x
    ("softplus", _softplus, lambda x, out: exp(sub(x, out))),
    ("relu", _relu, lambda x, out: _mask(x)),
    ("square", np.square, lambda x, out: mul(x, 2.0)),
)}
sinh, cosh, asinh, exp, log, softplus, relu, square = ELEMENTWISE.values()


# ---------------------------------------------------------------------------
# reductions

def _kept_shape(shape, axis):
    if axis is None:
        return (1,) * len(shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(a % len(shape) for a in axes)
    return tuple(1 if i in axes else s for i, s in enumerate(shape))


def sum(x, axis=None, keepdims=False) -> Tensor:
    def vjp(g, node):
        shape = node.parents[0].shape
        if not keepdims:
            g = reshape(g, _kept_shape(shape, axis))
        return (mul(g, constant(np.ones(shape))),)

    return _node(np.sum, (as_tensor(x),), vjp, axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# structural operations (data movement only)

def _reshape_vjp(g, node):
    return (reshape(g, node.parents[0].shape),)


def reshape(x, shape) -> Tensor:
    return _node(np.reshape, (as_tensor(x),), _reshape_vjp, tuple(shape))


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

    def vjp(g, node):
        return (transpose(g, inv),)

    return _node(np.transpose, (x,), vjp, perm)


def concat(parts, axis=0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    ax = axis % parts[0].ndim
    sizes = [p.shape[ax] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def vjp(g, node):
        return tuple(narrow(g, ax, int(offsets[i]), sizes[i]) for i in range(len(sizes)))

    return _node(_concat, tuple(parts), vjp, axis=ax)


def narrow(x, axis, start, length) -> Tensor:
    """Slice `length` entries of `x` along `axis` beginning at `start`."""
    x = as_tensor(x)
    ax = axis % x.ndim
    idx = tuple(slice(None) if i != ax else slice(start, start + length) for i in range(x.ndim))

    def vjp(g, node):
        def pad(size):
            shape = list(node.parents[0].shape)
            shape[ax] = size
            return [constant(np.zeros(shape))] if size else []

        pieces = pad(start) + [g] + pad(node.parents[0].shape[ax] - start - length)
        return (concat(pieces, axis=ax) if len(pieces) > 1 else g,)

    return _node(operator.getitem, (x,), vjp, idx)


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
            for parent, pg in zip(node.parents, node.vjp(g, node)):
                if pg is None or id(parent) not in needed:
                    continue
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else add(held, pg)
    return [grads.get(id(w)) or constant(np.zeros(w.shape)) for w in wrt]


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
    _check_finite(out.data, _LOSS_NOT_FINITE)
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
    return _checked_gradients(names, [g.data for g in adj])


_LOSS_NOT_FINITE = "graph evaluation produced non-finite entries"


def _check_finite(array, message):
    if not np.all(np.isfinite(array)):
        raise NonFiniteError(message)


def _checked_gradients(names, arrays):
    """{name: array}, raising at the first non-finite array in order."""
    for name, array in zip(names, arrays):
        _check_finite(array, f"gradient of parameter {name!r} is non-finite")
    return dict(zip(names, arrays))


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


# ---------------------------------------------------------------------------
# recorded programs

class Program:
    """A loss and its gradients, recorded once as numpy calls and replayed
    on new leaf arrays, as ADOL-C replays a tape (Griewank, Juedes & Utke,
    ACM TOMS 1996).

    A `recording` fills `ops` with (function, operand slots, args, kwargs,
    output slot), a slot being one array told apart by identity.  `finish`
    keeps each leaf not named in `inputs` as a read-only constant, one slot
    per value, and drops repeated calls and calls that no output reads.
    `run` makes the rest in order, the loss's first, so it returns the
    graph's results bit for bit and raises what `evaluate` and `gradient`
    raise at the same call.
    """

    def __init__(self):
        self.ops, self.slots, self.values = [], {}, []

    def slot(self, array):
        if id(array) not in self.slots:
            self.slots[id(array)] = len(self.values)
            self.values.append(array)
        return self.slots[id(array)]

    def finish(self, inputs, loss, gradients=None):
        """`loss` is the evaluated output's data and `gradients` what
        `gradient` returned, or None for a loss alone."""
        names = {id(a): k for k, a in inputs.items()}
        wanted = [self.slot(a) for a in (loss, *(gradients or {}).values())]
        made, same, seen, ops = {op[-1] for op in self.ops}, {}, {}, []
        self.inputs = [(names[id(a)], s) for s, a in enumerate(self.values) if id(a) in names]
        for s, a in enumerate(self.values):
            self.values[s] = None
            if s not in made and id(a) not in names:
                same[s] = seen.setdefault((a.shape, a.tobytes()), s)
                self.values[s] = np.array(a)
                self.values[s].setflags(write=False)
        for fn, ins, args, kw, out in self.ops:
            ins = tuple(same.get(i, i) for i in ins)
            same[out] = seen.setdefault((fn, ins, repr((args, kw))), out)
            if same[out] == out:
                ops.append((fn, ins, args, kw, out))
        self.loss, *grads = (same.get(s, s) for s in wanted)
        forward = _reads(ops, [self.loss])
        done = {op[-1] for op in forward}
        ops = forward + [op for op in _reads(ops, grads) if op[-1] not in done]
        # each call also names the slots it reads last, so a run frees them
        # as it goes and reuses their memory within the run
        last = {s: i for i, op in enumerate(ops) for s in op[1]}
        ops = [op + (tuple({s for s in op[1] if last[s] == i} - {self.loss, *grads}),)
               for i, op in enumerate(ops)]
        self.forward, self.backward = ops[:len(forward)], ops[len(forward):]
        self.gradients = gradients and dict(zip(gradients, grads))
        return self

    def run(self, inputs, with_gradient=True):
        """The loss at `inputs`, and the gradients (None unless `with_gradient`)."""
        values = self.values.copy()
        for name, s in self.inputs:
            values[s] = inputs[name]
        _replay(self.forward, values)
        _check_finite(values[self.loss], _LOSS_NOT_FINITE)
        if not with_gradient:
            return values[self.loss], None
        _replay(self.backward, values)
        return values[self.loss], _checked_gradients(
            self.gradients, [values[s] for s in self.gradients.values()])


def _reads(ops, slots):
    """The calls of `ops` that `slots` read, directly or through others, in order."""
    wanted, kept = set(slots), []
    for op in reversed(ops):
        if op[-1] in wanted:
            wanted.update(op[1])
            kept.append(op)
    return kept[::-1]


def _replay(ops, values):
    for fn, ins, args, kw, out, read_last in ops:
        values[out] = fn(*[values[i] for i in ins], *args, **kw)
        for s in read_last:
            values[s] = None


_recording = None


@contextlib.contextmanager
def recording():
    """A `Program` that records the call of every node built in the block."""
    global _recording
    outer, _recording = _recording, Program()
    try:
        yield _recording
    finally:
        _recording = outer
