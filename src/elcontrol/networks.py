"""Network building blocks for learned exactly-linearizable models.

Each block defines its forward pass once, against an array namespace
(`arrays`), and that one definition runs in three modes: plain numpy for
simulation (`forward_np`, `inverse_np`), `autodiff` graph tensors for
training, and forward-mode tangents for the value plus its input Jacobian.

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

import numpy as np

from .arrays import NUMPY, TANGENT, seed
from .errors import ConditioningError

COND_LIMIT = 1e12


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

    @property
    def dim(self):
        return self.mean.shape[0]

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

    def forward(self, xp, params, x):
        W1, b1, W2, b2, W3, b3 = map(params.__getitem__, self.keys)
        h1 = xp.softplus(x @ W1.T + b1)
        h2 = xp.softplus(h1 @ W2.T + b2)
        return h2 @ W3.T + b3

    def forward_np(self, params, x):
        return self.forward(NUMPY, params, x)

    def forward_and_input_jacobian_np(self, params, x):
        """Value and d(out)/d(x), shapes (..., O) and (..., O, I)."""
        out = self.forward(TANGENT, params, seed(x))
        return out.val, out.tan


# ---------------------------------------------------------------------------
# bijective conditioned network

class BnnLayer:
    """One bijective layer: asinh(c(d) + sinh(W(d) y + b(d)))."""

    def __init__(self, prefix, n, cond_dim, hidden=32):
        self.prefix = prefix
        self.n = n
        # rows of the identity that pick the strict lower triangle, the
        # diagonal and the strict upper triangle out of a flat n x n matrix
        flat, eye = np.arange(n * n).reshape(n, n), np.eye(n * n)
        self.s_low = eye[flat[np.tril_indices(n, -1)]]
        self.s_diag = eye[np.diag(flat)]
        self.s_up = eye[flat[np.triu_indices(n, 1)]]
        self.k_low = self.s_low.shape[0]
        self.wnet = ParamMlp(f"{prefix}.w", cond_dim, n * n, hidden)
        self.bnet = ParamMlp(f"{prefix}.b", cond_dim, n, hidden)
        self.cnet = ParamMlp(f"{prefix}.c", cond_dim, n, hidden)

    @property
    def nets(self):
        return (self.wnet, self.bnet, self.cnet)

    def weight(self, xp, params, dc):
        """W(d) = L(d) U(d), shape (..., n, n)."""
        raw = xp.mlp(self.wnet, params, dc)
        n, k = self.n, self.k_low
        L_flat = xp.narrow(raw, 0, k) @ self.s_low + np.eye(n).reshape(-1)
        U_flat = (xp.exp(xp.narrow(raw, k, n)) @ self.s_diag
                  + xp.narrow(raw, k + n, n * n - k - n) @ self.s_up)
        shape = raw.shape[:-1] + (n, n)
        return xp.reshape(L_flat, shape) @ xp.reshape(U_flat, shape)

    def forward(self, xp, params, y, dc):
        Wy = self.weight(xp, params, dc) @ xp.reshape(y, y.shape + (1,))
        t = xp.reshape(Wy, Wy.shape[:-1]) + xp.mlp(self.bnet, params, dc)
        return xp.asinh(xp.mlp(self.cnet, params, dc) + xp.sinh(t))

    def forward_np(self, params, y, dc):
        return self.forward(NUMPY, params, y, dc)

    def inverse_np(self, params, x, dc, cond_limit=COND_LIMIT):
        W = self.weight(NUMPY, params, dc)
        cond = np.linalg.cond(W)
        if np.any(cond > cond_limit):
            raise ConditioningError(
                f"layer {self.prefix!r}: weight condition number {np.max(cond):.3e} "
                f"exceeds limit {cond_limit:.1e}")
        t = np.arcsinh(np.sinh(x) - self.cnet.forward_np(params, dc))
        rhs = t - self.bnet.forward_np(params, dc)
        return np.linalg.solve(W, rhs[..., None])[..., 0]


class Bnn:
    """Composition of BnnLayers; a conditioned bijection y <-> x."""

    def __init__(self, prefix, n, cond_dim, depth=3, hidden=32):
        self.prefix = prefix
        self.n = n
        self.cond_dim = cond_dim
        self.layers = [BnnLayer(f"{prefix}.l{k}", n, cond_dim, hidden) for k in range(depth)]

    @property
    def nets(self):
        return [net for layer in self.layers for net in layer.nets]

    def forward(self, xp, params, y, dc):
        for layer in self.layers:
            y = layer.forward(xp, params, y, dc)
        return y

    def forward_np(self, params, y, dc):
        return self.forward(NUMPY, params, y, dc)

    def forward_with_jacobians(self, params, y, dc):
        """Value, d(out)/dy and d(out)/dd by one tangent pass over [d | y]."""
        nd = dc.shape[-1]
        out = self.forward(TANGENT, params, seed(y, offset=nd), seed(dc))
        return out.val, out.tan[..., nd:], out.tan[..., :nd]

    def inverse_np(self, params, x, dc, cond_limit=COND_LIMIT):
        for layer in reversed(self.layers):
            x = layer.inverse_np(params, x, dc, cond_limit)
        return x


# ---------------------------------------------------------------------------
# diagonal monotone network

class DiagonalBnn:
    """Elementwise strictly increasing conditioned bijection u <-> v.

    Layer form matches BnnLayer with W diagonal and positive; conditioning is
    the standardized concatenation (y, d).
    """

    def __init__(self, prefix, m, cond_dim, depth=3, hidden=32):
        self.prefix = prefix
        self.m = m
        self.cond_dim = cond_dim
        self.wnets = [ParamMlp(f"{prefix}.l{k}.w", cond_dim, m, hidden) for k in range(depth)]
        self.bnets = [ParamMlp(f"{prefix}.l{k}.b", cond_dim, m, hidden) for k in range(depth)]
        self.cnets = [ParamMlp(f"{prefix}.l{k}.c", cond_dim, m, hidden) for k in range(depth)]

    @property
    def nets(self):
        return [n for group in zip(self.wnets, self.bnets, self.cnets) for n in group]

    @property
    def depth(self):
        return len(self.wnets)

    def forward(self, xp, params, u, cond):
        for k in range(self.depth):
            w = xp.exp(xp.mlp(self.wnets[k], params, cond))
            b = xp.mlp(self.bnets[k], params, cond)
            c = xp.mlp(self.cnets[k], params, cond)
            u = xp.asinh(c + xp.sinh(w * u + b))
        return u

    def inverse(self, xp, params, v, cond):
        for k in reversed(range(self.depth)):
            raw = xp.mlp(self.wnets[k], params, cond)
            b = xp.mlp(self.bnets[k], params, cond)
            c = xp.mlp(self.cnets[k], params, cond)
            v = (xp.asinh(xp.sinh(v) - c) - b) * xp.exp(-raw)
        return v

    def forward_np(self, params, u, cond):
        return self.forward(NUMPY, params, u, cond)

    def inverse_np(self, params, v, cond):
        return self.inverse(NUMPY, params, v, cond)


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

    def validate(self, params):
        for k in range(1, self.depth):
            w = NUMPY.softplus(params[f"{self.prefix}.l{k}.Wz_raw"])
            if np.any(w < 0):
                raise ValueError(f"nonnegativity-constrained weight {self.prefix}.l{k}.Wz_raw "
                                 "has a negative entry")

    def forward(self, xp, params, xi, ctx):
        s = ctx
        z = None
        for k in range(self.depth):
            p = f"{self.prefix}.l{k}"
            pre = (xi * (s @ params[f"{p}.Wxis"].T + params[f"{p}.bxi"])) @ params[f"{p}.Wxi"].T
            pre = pre + s @ params[f"{p}.Ws"].T + params[f"{p}.b"]
            if z is not None:
                gate = xp.softplus(s @ params[f"{p}.Wzs"].T + params[f"{p}.bz"])
                pre = pre + (z * gate) @ xp.softplus(params[f"{p}.Wz_raw"]).T
            z = pre if k == self.depth - 1 else xp.softplus(pre)
            if k < self.depth - 1:
                s = xp.softplus(s @ params[f"{p}.V"].T + params[f"{p}.r"])
        return z

    def forward_np(self, params, xi, ctx):
        return self.forward(NUMPY, params, xi, ctx)
