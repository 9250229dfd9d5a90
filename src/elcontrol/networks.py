"""Network building blocks for learned exactly-linearizable models.

Each block defines its forward pass once, and its operands pick the mode
(`arrays`): float64 arrays for simulation, `autodiff` graph tensors for
training, and forward-mode tangents for the value plus its input Jacobian;
`Bnn.inverse` takes arrays only.  `ParamMlp.forward_np` and
`forward_and_input_jacobian_np` stay because every array and tangent
conditioning pass goes through them, so code that wraps them sees each.
`MlpStack`'s Jacobian, `Bnn.weight` on a tangent and `Bnn.jacobians_with`
are numpy kernels, bit for bit the tangent pass, which stays the reference
their tests compare with.

A block's conditioning nets all read the same input, so for arrays and
tangents they run as one stacked net (`MlpStack`) per block and call; graph
evaluation keeps them separate, net by net, so the training graph does not
depend on the stacking.  `coefficients` returns every layer's net outputs
and the `*_with` methods run the layers on them, so a caller can evaluate
the conditioning once and use it for several passes.  `Bnn`'s finished
layers (W(d), b(d), c(d)) at the last one-row d are kept by `MlpStack.memo`
from their first evaluation, with cond W from their first reuse, bit for bit
what evaluating them again would give.

* `Bnn` - a bijective map y <-> x conditioned on a disturbance vector.  Each
  layer is ``asinh(c(d) + sinh(W(d) y + b(d)))`` with W(d) = L(d) U(d), L
  unit lower triangular and U upper triangular with exponential diagonal, so
  det W > 0 for every d and the layer inverts in closed form up to one
  triangular-factor solve.
* `DiagonalBnn` - the same layer shape with diagonal, strictly positive W,
  conditioned on (y, d); elementwise strictly increasing in its input, hence
  box-to-box and invertible in closed form.
* `Picnn` - a partially input-convex network, convex in (x, u) for fixed d.

All parameters live in one flat dict keyed by dotted names; components only
hold structure.
"""

from __future__ import annotations

import operator

import numpy as np

from .arrays import Tangent, asinh, exp, mlps, narrow, reshape, seed, sinh, softplus, transpose
from .errors import ConditioningError, NonFiniteError

COND_LIMIT = 1e12


def check_conditioning(M, name, cond=None):
    """NonFiniteError for a non-finite matrix (stack) M, else ConditioningError
    unless its condition number, or the `cond` already taken of a finite M,
    is at most COND_LIMIT."""
    if cond is None:
        if not np.all(np.isfinite(M)):
            raise NonFiniteError(f"{name} is not finite")
        cond = np.linalg.cond(M)
    if not np.all(cond <= COND_LIMIT):
        raise ConditioningError(f"{name} condition number {np.max(cond):.3e} "
                                f"exceeds limit {COND_LIMIT:.1e}")


class Scaler:
    """Frozen per-feature affine standardization."""

    def __init__(self, mean, std):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    @classmethod
    def identity(cls, dim):
        return cls(np.zeros(dim), np.ones(dim))

    @classmethod
    def fit(cls, data):
        data = np.asarray(data, dtype=np.float64)
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        # constant features pass through unscaled
        std = np.where(std > 1e-9, std, 1.0)
        return cls(mean, std)

    def transform(self, x):
        """Standardize an array or a graph tensor."""
        return (x - self.mean) / self.std

    def inverse(self, x):
        return x * self.std + self.mean


# ---------------------------------------------------------------------------
# conditioning MLP

class ParamMlp:
    """Three-layer fully connected net with softplus hidden activations.

    Maps a conditioning vector to a flat parameter vector.  The output layer
    is linear so parameters can take either sign.
    """

    def __init__(self, prefix, in_dim, out_dim, hidden=32):
        self.prefix = prefix
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        self.keys = tuple(f"{prefix}.{k}" for k in ("W1", "b1", "W2", "b2", "W3", "b3"))

    def param_shapes(self):
        h, i, o = self.hidden, self.in_dim, self.out_dim
        return dict(zip(self.keys, [(h, i), (h,), (h, h), (h,), (o, h), (o,)]))

    def init(self, params, rng, scale=1.0, out_scale=None, last_bias=None):
        h, i, o = self.hidden, self.in_dim, self.out_dim
        out_scale = scale if out_scale is None else out_scale
        params[f"{self.prefix}.W1"] = rng.normal(0.0, scale / np.sqrt(i), (h, i))
        params[f"{self.prefix}.b1"] = np.zeros(h)
        params[f"{self.prefix}.W2"] = rng.normal(0.0, scale / np.sqrt(h), (h, h))
        params[f"{self.prefix}.b2"] = np.zeros(h)
        params[f"{self.prefix}.W3"] = rng.normal(0.0, out_scale / np.sqrt(h), (o, h))
        params[f"{self.prefix}.b3"] = (np.zeros(o) if last_bias is None
                                       else np.asarray(last_bias, dtype=np.float64).reshape(o).copy())

    def init_zero(self, params, last_bias=None):
        for name, shape in self.param_shapes().items():
            params[name] = np.zeros(shape)
        if last_bias is not None:
            params[f"{self.prefix}.b3"] = np.asarray(last_bias, dtype=np.float64).reshape(self.out_dim).copy()

    def forward(self, params, x):
        W1, b1, W2, b2, W3, b3 = map(params.__getitem__, self.keys)
        h1 = softplus(x @ W1.T + b1)
        h2 = softplus(h1 @ W2.T + b2)
        return h2 @ W3.T + b3

    def forward_np(self, params, x):
        return self.forward(params, x)

    def forward_and_input_jacobian_np(self, params, x):
        """Value and d(out)/d(x), shapes (..., O) and (..., O, I)."""
        return self._value_and_jacobian(params, x)

    def _value_and_jacobian(self, params, x):
        out = self.forward(params, seed(x))
        return out.val, out.tan


class MlpStack(ParamMlp):
    """Nets with one input and one hidden width, evaluated as one net.

    The layers are batched as (K, H, I), (K, H, H) and (K, O, H), the last
    zero-padded to the widest output O, so net k's output is columns
    [k O, k O + out_k) of the result.  The packed weights are rebuilt
    whenever one of the nets' entries of the parameter dict is replaced;
    packing makes the entries read-only, so writing one in place raises
    instead of leaving the packed copy stale.
    """

    def __init__(self, nets):
        self.nets = tuple(nets)
        self.in_dim, self.hidden = nets[0].in_dim, nets[0].hidden
        self.width = max(net.out_dim for net in self.nets)
        self.out_dim = len(self.nets) * self.width
        self.keys = tuple(key for net in self.nets for key in net.keys)
        # a net has six keys, so this returns a tuple
        self._entries = operator.itemgetter(*self.keys)
        self._source = self._packed = None
        self._memo = {}

    def memo(self, params, x, build, keep=None):
        """`build(params, x)` at a one-row input x: an array, or a tangent
        seeded with the identity.  The last row's value is kept read-only from
        its first build, one entry for arrays and one for tangents, and returned
        while the row repeats with the same bytes and the packed weights it was
        built from are current; its first reuse replaces it by `keep(value)`,
        so a row seen once never pays for `keep`.  Batches, other tangents and
        graphs keep nothing."""
        row = x.val if isinstance(x, Tangent) and x.eye else x
        if not isinstance(row, np.ndarray) or row.shape != (1, self.in_dim):
            return build(params, x)
        mode, key = row is not x, row.tobytes()
        entry = self._memo.get(mode)
        if entry is None or entry[1] != key or entry[0] is not self._pack(params):
            value = _read_only(build(params, x))
            # the packed weights the build ran on
            self._memo[mode] = self._packed, key, value, keep
            return value
        if entry[3] is not None:
            entry = self._memo[mode] = entry[0], key, _read_only(entry[3](entry[2])), None
        return entry[2]

    def _pack(self, params):
        source = self._entries(params)
        if self._source is None or not all(map(operator.is_, source, self._source)):
            K, H, O = len(self.nets), self.hidden, self.width
            W1, b1, W2, b2, W3, b3 = zip(*(source[i:i + 6] for i in range(0, len(source), 6)))
            W3_pad, b3_pad = np.zeros((K, O, H)), np.zeros((K, O, 1))
            for k, (w, b) in enumerate(zip(W3, b3)):
                W3_pad[k, :len(b)], b3_pad[k, :len(b), 0] = w, b
            self._packed = (np.stack(W1), np.stack(b1)[..., None], np.stack(W2),
                            np.stack(b2)[..., None], W3_pad, b3_pad)
            self._source = source
            for array in source:
                array.setflags(write=False)
        return self._packed

    def _value_and_jacobian(self, params, x):
        """`forward(params, seed(x))` in plain numpy, bit for bit: the same
        products in the same shapes, the identity seed's first one W1 itself."""
        W1, b1, W2, b2, W3, b3 = self._pack(params)
        K, H, I = W1.shape
        z, J = W1 @ np.transpose(np.reshape(x, (-1, I)), (1, 0)) + b1, W1[:, :, None, :]
        for W, b in ((W2, b2), (W3, b3)):
            h = softplus(z)
            J = J * np.exp(z - h)[..., None]
            z = W @ h + b
            J = (W @ J.reshape(K, H, -1)).reshape(z.shape + (I,))
        lead = x.shape[:-1] + (self.out_dim,)
        return (np.reshape(np.transpose(z, (2, 0, 1)), lead),
                np.reshape(np.transpose(J, (2, 0, 1, 3)), lead + (I,)))

    def forward(self, params, x):
        W1, b1, W2, b2, W3, b3 = self._pack(params)
        # rows go last, so each layer is K matrix products over all rows
        rows = transpose(reshape(x, (-1, self.in_dim)), (1, 0))
        h = softplus(W2 @ softplus(W1 @ rows + b1) + b2)
        out = transpose(W3 @ h + b3, (2, 0, 1))
        return reshape(out, x.shape[:-1] + (self.out_dim,))


def _read_only(value):
    """`value`, every array in it (through tuples and tangents) made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, Tangent)):
        for part in (value.val, value.tan) if isinstance(value, Tangent) else value:
            _read_only(part)
    return value


# ---------------------------------------------------------------------------
# bijective conditioned network

class _Stacked:
    """A block whose every layer reads three conditioning nets (w, b, c)."""

    def __init__(self, nets):
        self.nets = nets
        self.stack = MlpStack(nets)

    def coefficients(self, params, cond):
        """Every layer's (w, b, c) net outputs, from one evaluation of the stack."""
        outs = mlps(self.stack, params, cond)
        return [outs[i:i + 3] for i in range(0, len(outs), 3)]

    def forward(self, params, z, cond):
        return self.forward_with(self.coefficients(params, cond), z)

    def inverse(self, params, z, cond):
        """The inverse map; Phi's (`Bnn`'s) takes float64 arrays only."""
        return self.inverse_with(self.coefficients(params, cond), z)


class Bnn(_Stacked):
    """A conditioned bijection y <-> x: layers asinh(c(d) + sinh(W(d) y + b(d)))."""

    def __init__(self, prefix, n, cond_dim, depth=3, hidden=32):
        self.prefix = prefix
        self.n = n
        self.cond_dim = cond_dim
        # rows of the identity that pick the strict lower triangle, the
        # diagonal and the strict upper triangle out of a flat n x n matrix
        flat, eye = np.arange(n * n).reshape(n, n), np.eye(n * n)
        self.s_low = eye[flat[np.tril_indices(n, -1)]]
        self.s_diag = eye[np.diag(flat)]
        self.s_up = eye[flat[np.triu_indices(n, 1)]]
        self.k_low = self.s_low.shape[0]
        widths = {"w": n * n, "b": n, "c": n}
        super().__init__([ParamMlp(f"{prefix}.l{k}.{name}", cond_dim, widths[name], hidden)
                          for k in range(depth) for name in "wbc"])

    def weight(self, raw):
        """W(d) = L(d) U(d), shape (..., n, n), from a layer's w-net output.
        A tangent raw runs in plain numpy, bit for bit the tangent pass of the
        formula below: the same products in the same shapes and order."""
        n, k = self.n, self.k_low
        shape = raw.shape[:-1] + (n, n)
        if isinstance(raw, Tangent):
            val, tan = raw.val, raw.tan
            e = np.exp(val[..., k:k + n])
            L = np.reshape(val[..., :k] @ self.s_low + np.eye(n).reshape(-1), shape)
            U = np.reshape(e @ self.s_diag + val[..., k + n:] @ self.s_up, shape)
            dL = np.reshape(self.s_low.T @ tan[..., :k, :], shape + tan.shape[-1:])
            dU = np.reshape(self.s_diag.T @ (tan[..., k:k + n, :] * e[..., None])
                            + self.s_up.T @ tan[..., k + n:, :], shape[:-1] + (-1,))
            return Tangent(L @ U, np.swapaxes(U, -1, -2)[..., None, :, :] @ dL
                           + np.reshape(L @ dU, dL.shape))
        L_flat = narrow(raw, 0, k) @ self.s_low + np.eye(n).reshape(-1)
        U_flat = (exp(narrow(raw, k, n)) @ self.s_diag
                  + narrow(raw, k + n, n * n - k - n) @ self.s_up)
        return reshape(L_flat, shape) @ reshape(U_flat, shape)

    def coefficients(self, params, cond):
        """Every layer's (W(d), b(d), c(d), cond W), W from `weight`.  cond W is
        None but for a finite W in an array entry `memo` serves again: `_guard`
        computes it at the entry's first reuse for `inverse_with`, which rejects
        a W that is not finite before taking its condition number."""
        return self.stack.memo(params, cond, self._layers, self._guard)

    def _layers(self, params, cond):
        return tuple([(self.weight(raw), b, c, None)
                      for raw, b, c in _Stacked.coefficients(self, params, cond)])

    @staticmethod
    def _guard(layers):
        return tuple((W, b, c, np.linalg.cond(W) if isinstance(W, np.ndarray)
                      and np.all(np.isfinite(W)) else None) for W, b, c, _ in layers)

    def forward_with(self, coef, y):
        for W, b, c, _ in coef:
            Wy = W @ reshape(y, y.shape + (1,))
            t = reshape(Wy, Wy.shape[:-1]) + b
            y = asinh(c + sinh(t))
        return y

    def forward_with_jacobians(self, params, y, dc):
        """Value, d(out)/dy and d(out)/dd: `jacobians_with` at seed(dc)."""
        nd = dc.shape[-1]
        x, J = self.jacobians_with(self.coefficients(params, seed(dc)), y)
        return x, J[..., nd:], J[..., :nd]

    def jacobians_with(self, coef, y):
        """forward_with(coef, seed(y, offset=nd)) in plain numpy, bit for bit:
        x and [dx/dd | dx/dy] for coefficients tangent in nd columns, else dx/dy."""
        nd = coef[0][0].tan.shape[-1] if isinstance(coef[0][0], Tangent) else 0
        J = seed(y, offset=nd).tan
        for W, b, c, _ in coef:
            Wv, bv, cv = (a.val if isinstance(a, Tangent) else a for a in (W, b, c))
            col = np.reshape(y, y.shape + (1,))
            t = np.reshape(Wv @ col, y.shape) + bv
            J = Wv @ J      # one product over all nd + n columns: split, J_d's bits move
            if nd:
                J[..., :nd] += (np.swapaxes(col, -1, -2)[..., None, :, :] @ W.tan)[..., 0, :]
                J[..., :nd] += b.tan
            J = J * np.cosh(t)[..., None]
            if nd:
                J[..., :nd] += c.tan
            t = cv + np.sinh(t)
            y = np.arcsinh(t)
            J = J * (1.0 / np.sqrt(1.0 + t * t))[..., None]
        return y, J

    def inverse_with(self, coef, x):
        for k in reversed(range(len(coef))):
            W, b, c, cond = coef[k]
            check_conditioning(W, f"layer '{self.prefix}.l{k}': weight", cond)
            t = np.arcsinh(np.sinh(x) - c)
            x = np.linalg.solve(W, (t - b)[..., None])[..., 0]
        return x


# ---------------------------------------------------------------------------
# diagonal monotone network

class DiagonalBnn(_Stacked):
    """Elementwise strictly increasing conditioned bijection u <-> v.

    Layer form matches Bnn's with W diagonal and positive; conditioning is
    the standardized concatenation (y, d).
    """

    def __init__(self, prefix, m, cond_dim, depth=3, hidden=32):
        self.prefix = prefix
        self.m = m
        self.cond_dim = cond_dim
        super().__init__([ParamMlp(f"{prefix}.l{k}.{name}", cond_dim, m, hidden)
                          for k in range(depth) for name in "wbc"])

    def forward_with(self, coef, u):
        for raw, b, c in coef:
            u = asinh(c + sinh(exp(raw) * u + b))
        return u

    def inverse_with(self, coef, v):
        for raw, b, c in reversed(coef):
            v = (asinh(sinh(v) - c) - b) * exp(-raw)
        return v


# ---------------------------------------------------------------------------
# partially input-convex network

class Picnn:
    """Convex in (x, u) for every fixed context d.

    The convex path mixes previous activations through nonnegativity-
    constrained weights (stored as softplus of a raw parameter) and through
    nonnegative gates, with convex nondecreasing softplus activations; the
    context path is unconstrained.  All nonlinearities are smooth so finite
    difference gradient checks are clean.
    """

    def __init__(self, prefix, xi_dim, ctx_dim, out_dim, depth=3, hidden=16, ctx_hidden=16):
        self.prefix = prefix
        self.xi_dim = xi_dim
        self.ctx_dim = ctx_dim
        self.out_dim = out_dim
        self.depth = depth
        self.hidden = hidden
        self.ctx_hidden = ctx_hidden

    def param_shapes(self):
        xd, cd, h, hs = self.xi_dim, self.ctx_dim, self.hidden, self.ctx_hidden
        shapes = {}
        s_prev = cd
        z_prev = None
        for k in range(self.depth):
            width = self.out_dim if k == self.depth - 1 else h
            p = f"{self.prefix}.l{k}"
            if z_prev is not None:
                shapes[f"{p}.Wz_raw"] = (width, z_prev)
                shapes[f"{p}.Wzs"] = (z_prev, s_prev)
                shapes[f"{p}.bz"] = (z_prev,)
            shapes[f"{p}.Wxi"] = (width, xd)
            shapes[f"{p}.Wxis"] = (xd, s_prev)
            shapes[f"{p}.bxi"] = (xd,)
            shapes[f"{p}.Ws"] = (width, s_prev)
            shapes[f"{p}.b"] = (width,)
            if k < self.depth - 1:
                shapes[f"{p}.V"] = (hs, s_prev)
                shapes[f"{p}.r"] = (hs,)
                s_prev = hs
            z_prev = width
        return shapes

    def init(self, params, rng, scale=1.0):
        for name, shape in self.param_shapes().items():
            fan = shape[-1] if len(shape) > 1 else 1
            if name.endswith(".bxi"):
                # gates start near one so the xi path carries signal
                params[name] = np.ones(shape)
            elif name.endswith((".b", ".bz", ".r")):
                params[name] = np.zeros(shape)
            elif name.endswith(".Wz_raw"):
                params[name] = rng.normal(-1.0, 0.3 * scale, shape)
            else:
                params[name] = rng.normal(0.0, scale / np.sqrt(fan), shape)

    def init_zero(self, params, last_bias=None):
        for name, shape in self.param_shapes().items():
            params[name] = np.full(shape, -50.0) if name.endswith(".Wz_raw") else np.zeros(shape)
        if last_bias is not None:
            params[f"{self.prefix}.l{self.depth - 1}.b"] = (
                np.asarray(last_bias, dtype=np.float64).reshape(self.out_dim).copy())

    def forward(self, params, xi, ctx):
        s = ctx
        z = None
        for k in range(self.depth):
            p = f"{self.prefix}.l{k}"
            pre = (xi * (s @ params[f"{p}.Wxis"].T + params[f"{p}.bxi"])) @ params[f"{p}.Wxi"].T
            pre = pre + s @ params[f"{p}.Ws"].T + params[f"{p}.b"]
            if z is not None:
                gate = softplus(s @ params[f"{p}.Wzs"].T + params[f"{p}.bz"])
                pre = pre + (z * gate) @ softplus(params[f"{p}.Wz_raw"]).T
            z = pre if k == self.depth - 1 else softplus(pre)
            if k < self.depth - 1:
                s = softplus(s @ params[f"{p}.V"].T + params[f"{p}.r"])
        return z
