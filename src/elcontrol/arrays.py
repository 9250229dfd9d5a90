"""Array functions whose operand picks the evaluation mode of a network block.

A block's pass is written once, with operators (+ - * / @, unary minus,
`.T`) and the functions here for what operators cannot express: `mlps`
(the outputs of the conditioning nets in a `networks.MlpStack`),
`softplus`, `exp`, `sinh`, `asinh`, `narrow` (a slice of the last axis),
`reshape` and `transpose`.  Like the operators, each function dispatches on
its operand's type: an `autodiff.Tensor` builds graph nodes, a `Tangent`
propagates a forward-mode value and Jacobian (Griewank & Walther,
Evaluating Derivatives, 2nd ed., 2008, ch. 6), and anything else is a
float64 array evaluated by numpy, so in tangent mode plain arrays are
constants.  For an array or a tangent a stack runs as one net, through
`ParamMlp.forward_np` or `ParamMlp.forward_and_input_jacobian_np` with a
plain array input, so code that wraps those two methods sees every
conditioning evaluation; a tensor evaluates the nets one by one.  Tangent
mode is the reference for the numpy Jacobian kernels in `networks`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad


def _tan_sum(a, b):
    """Sum of two tangents; a narrower one covers the leading columns only."""
    ka, kb = a.shape[-1], b.shape[-1]
    if ka == kb:
        return a + b
    if ka < kb:
        a, b, kb = b, a, ka
    if a.shape[:-1] != b.shape[:-1]:
        a = np.broadcast_to(a, np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + a.shape[-1:])
    out = np.array(a)
    out[..., :kb] += b
    return out


class Tangent:
    """A value and its Jacobian with respect to the seeded inputs.

    `tan` has the shape of `val` plus one trailing axis of tangent columns,
    or broadcasts to it.  A tangent narrower than another covers its leading
    columns; the others are zero and never stored.  `eye` marks a seed whose
    tangent is the identity, so the first product with it can be skipped.
    """

    __slots__ = ("val", "tan", "eye")
    # numpy operands defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, val, tan, eye=False):
        self.val = val
        self.tan = tan
        self.eye = eye

    @property
    def shape(self):
        return self.val.shape

    def __add__(self, other):
        if isinstance(other, Tangent):
            return Tangent(self.val + other.val, _tan_sum(self.tan, other.tan))
        return Tangent(self.val + other, self.tan)

    __radd__ = __add__

    def __neg__(self):
        return Tangent(-self.val, -self.tan)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Tangent):
            return Tangent(self.val * other.val, _tan_sum(self.tan * other.val[..., None],
                                                          other.tan * self.val[..., None]))
        return Tangent(self.val * other, self.tan * (other[..., None] if np.ndim(other) else other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Tangent):
            # d(A B) = dA B + A dB, with the tangent columns kept last
            left = np.swapaxes(other.val, -1, -2)[..., None, :, :] @ self.tan
            val, right = _const_matmul(self.val, other)
            return Tangent(val, _tan_sum(left, right))
        return Tangent(self.val @ other, other.T if self.eye else other.T @ self.tan)

    def __rmatmul__(self, other):
        return Tangent(*_const_matmul(other, self))


def _const_matmul(a, t):
    """Value and tangent of a @ t for a constant matrix a."""
    flat = t.tan.reshape(t.tan.shape[:-2] + (-1,))
    out = a @ t.val
    return out, (a @ flat).reshape(out.shape + t.tan.shape[-1:])


@functools.lru_cache(maxsize=None)
def _eye(dim):
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def seed(x, offset=0):
    """`x` as the independent variable of tangent columns [offset, offset + dim)."""
    dim = x.shape[-1]
    if offset == 0:
        return Tangent(x, _eye(dim), eye=True)
    tan = np.zeros(x.shape + (offset + dim,))
    tan[..., offset:] = _eye(dim)
    return Tangent(x, tan)


def _elementwise(value, graph, slope):
    """`value` of a numpy operand, `graph` of a `Tensor`, and the tangent of a
    `Tangent`, whose derivative is slope(x, value(x))."""

    def op(x):
        if isinstance(x, Tangent):
            out = value(x.val)
            return Tangent(out, x.tan * slope(x.val, out)[..., None])
        if isinstance(x, ad.Tensor):
            return graph(x)
        return value(x)

    return op


# sigmoid(x) = exp(x - softplus(x)) is stable in both tails
softplus = _elementwise(ad._softplus, ad.softplus, lambda x, out: np.exp(x - out))
exp = _elementwise(np.exp, ad.exp, lambda x, out: out)
sinh = _elementwise(np.sinh, ad.sinh, lambda x, out: np.cosh(x))
asinh = _elementwise(np.arcsinh, ad.asinh, lambda x, out: 1.0 / np.sqrt(1.0 + x * x))


def narrow(x, start, length):
    """Entries [start, start + length) of the last axis."""
    if isinstance(x, Tangent):
        return Tangent(x.val[..., start:start + length], x.tan[..., start:start + length, :])
    if isinstance(x, ad.Tensor):
        return ad.narrow(x, -1, start, length)
    return x[..., start:start + length]


def reshape(x, shape):
    if isinstance(x, Tangent):
        tan = x.tan
        if tan.ndim <= x.val.ndim:
            tan = np.broadcast_to(tan, x.val.shape + tan.shape[-1:])
        return Tangent(np.reshape(x.val, shape), np.reshape(tan, shape + tan.shape[-1:]))
    return (ad.reshape if isinstance(x, ad.Tensor) else np.reshape)(x, shape)


def transpose(x, axes):
    if isinstance(x, Tangent):
        tan = np.broadcast_to(x.tan, x.val.shape + x.tan.shape[-1:])
        return Tangent(np.transpose(x.val, axes), np.transpose(tan, axes + (len(axes),)))
    return (ad.transpose if isinstance(x, ad.Tensor) else np.transpose)(x, axes)


def read_only(x):
    """`x` with its array, or a tangent's two arrays, made read-only."""
    for array in (x.val, x.tan) if isinstance(x, Tangent) else (x,):
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return x


def mlps(stack, params, x):
    """The member nets' outputs of a `networks.MlpStack` at x.  A `Tensor`
    runs the nets one by one; otherwise the stack runs once, through
    `forward_np` or, for a `Tangent`, `forward_and_input_jacobian_np`, made
    read-only, and each output is a view of it."""
    if isinstance(x, ad.Tensor):
        return [net.forward(params, x) for net in stack.nets]
    if isinstance(x, Tangent):
        val, jac = stack.forward_and_input_jacobian_np(params, x.val)
        out = read_only(Tangent(val, jac if x.eye else jac @ x.tan))
    else:
        out = read_only(stack.forward_np(params, x))
    return [narrow(out, k * stack.width, net.out_dim) for k, net in enumerate(stack.nets)]
