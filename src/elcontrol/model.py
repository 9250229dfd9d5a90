"""Exactly linearizable dynamics model and its identification from trajectories.

The model expresses measured outputs through latent linear dynamics wrapped
in conditioned bijections:

    x = Phi(y, d)                       state map (Bnn)
    u = Psi^{-1}(v, y, d)               input map (DiagonalBnn, per channel)
    xdot = A(d) x + B(d) u + c(d)       scheduled linear core
    zhat = Xi(x, u, d)                  constrained outputs, convex in (x, u)

Differentiating the state map turns the latent dynamics into a prediction of
the measured output derivative,

    ydot_hat = (dPhi/dy)^{-1} (A x + B u + c - (dPhi/dd) ddot),

which is what training fits and simulation integrates.  The Jacobian inverse
is always applied by solving a dense linear system.

All published operations take and return physical-unit arrays; feature
standardization is internal and frozen when the model is constructed, so a
zero-epoch training run cannot change a model.  Operations accept a single
record (dim,) or a batch (N, dim).  For a single record, Phi's d-only layer
data and the core's A(d), B(d), c(d) at the last d are kept, as arrays and
as tangents, from their first evaluation and reused while d repeats with the
same bytes (`networks.MlpStack.memo`), as at an RK4 step's paired stage
times; replacing a parameter entry invalidates them, and the kept arrays
are read-only.
"""

from __future__ import annotations

import collections
import dataclasses
import io
import json
import numbers
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npformat

from . import autodiff as ad
from .arrays import mlps, reshape, seed
from .errors import (NonFiniteError, ShapeError, TrainingDivergedError, ValidationError,
                     checked_count)
from .networks import (Bnn, DiagonalBnn, MlpStack, ParamMlp, Picnn, Scaler, _read_only,
                       check_conditioning)
from .readers import _read_fields

GRAD_CLIP_NORM = 10.0


class _Sizes:
    """A frozen record of sizes; each field must be an integer >= 1."""

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(f"{field.name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class ModelDims(_Sizes):
    """Channel counts: outputs y, inputs v/u, disturbances d, constrained z."""

    ny: int
    nu: int
    nd: int
    nz: int


@dataclass(frozen=True)
class ModelArch(_Sizes):
    phi_depth: int = 2
    phi_hidden: int = 16
    psi_depth: int = 2
    psi_hidden: int = 16
    xi_depth: int = 2
    xi_hidden: int = 16
    core_hidden: int = 16


# ELModel.maps_at(x, d): y = y_from_x(x, d), dx/dy at y, and Psi at (y, d)
# as v (k, nu) -> (u, du/dy) and u (nu,) -> v
PointMaps = collections.namedtuple("PointMaps", "y dx_dy u_from_v_with_jac v_from_u")


def _unbatch(single, *arrays):
    """The arrays, or their first rows for a single-record call; one array
    comes back bare, several as a tuple."""
    if single:
        arrays = tuple(a[0] for a in arrays)
    return arrays[0] if len(arrays) == 1 else arrays


class ELModel:
    """Latent-linear model over conditioned bijections; owns its parameters."""

    def __init__(self, dims: ModelDims, arch: ModelArch | None = None,
                 scalers: dict | None = None, params: dict | None = None):
        self.dims = dims
        self.arch = arch or ModelArch()
        a = self.arch
        ny, nu, nd, nz = dims.ny, dims.nu, dims.nd, dims.nz
        # refuse a size no machine holds before anything is allocated: Phi's
        # selection matrices hold 2 ny^4 floats, k nets (i -> o, hidden h) fewer
        # than k (h + 1)(i + h + o + 1), and Xi fewer than the last term
        def nets(k, i, o, h):
            return k * (h + 1) * (i + h + o + 1)
        checked_count(2 * ny ** 4 + nets(3 * a.phi_depth, nd, ny * ny, a.phi_hidden)
                      + nets(3 * a.psi_depth, ny + nd, nu, a.psi_hidden)
                      + nets(3, nd, ny * max(ny, nu), a.core_hidden)
                      + 6 * a.xi_depth * (a.xi_hidden + ny + nu + nd + nz) ** 2,
                      "the float count of a model this size")
        self.state_map = Bnn("phi", ny, cond_dim=nd, depth=a.phi_depth, hidden=a.phi_hidden)
        self.input_map = DiagonalBnn("psi", nu, cond_dim=ny + nd,
                                     depth=a.psi_depth, hidden=a.psi_hidden)
        self.a_net = ParamMlp("core.a", nd, ny * ny, a.core_hidden)
        self.b_net = ParamMlp("core.b", nd, ny * nu, a.core_hidden)
        self.c_net = ParamMlp("core.c", nd, ny, a.core_hidden)
        self.core = MlpStack([self.a_net, self.b_net, self.c_net])
        self.z_map = Picnn("xi", xi_dim=ny + nu, ctx_dim=nd, out_dim=nz,
                           depth=a.xi_depth, hidden=a.xi_hidden, ctx_hidden=a.xi_hidden)
        if scalers is None:
            scalers = {"y": Scaler.identity(ny), "v": Scaler.identity(nu),
                       "d": Scaler.identity(nd), "z": Scaler.identity(nz)}
        self.scalers = scalers
        if params is None:
            params = {}
            for net in self._nets():
                net.init_zero(params)
        self.params = params
        self._point = None
        self.validate()

    # -- construction -----------------------------------------------------

    def _nets(self):
        return (self.state_map.nets + self.input_map.nets
                + [self.a_net, self.b_net, self.c_net, self.z_map])

    def entry_shapes(self):
        """The container's float64 entries after `__meta__`, in file order, with their shapes."""
        params = {}
        for net in self._nets():
            params.update(net.param_shapes())
        shapes = {f"scaler.{name}.{part}": (dim,) for name, dim in
                  zip("yvdz", dataclasses.astuple(self.dims)) for part in ("mean", "std")}
        shapes.update((f"param.{key}", params[key]) for key in sorted(params))
        return shapes

    def validate(self):
        """Check every container entry's shape and scaler std > 0 (softplus keeps Xi's Wz >= 0)."""
        got = {name: np.shape(arr) for name, arr in _container(self).items() if name != "__meta__"}
        wrong = sorted(set(got.items()) ^ set(self.entry_shapes().items()))
        if wrong:
            raise ValidationError(f"entries {wrong} differ from their declared shapes")
        if not all(np.all(self.scalers[name].std > 0) for name in "yvdz"):
            raise ValidationError("scaler std must be > 0")

    def clone(self, params=None):
        new = {k: v.copy() for k, v in (params or self.params).items()}
        return ELModel(self.dims, self.arch, self.scalers, new)

    @classmethod
    def random(cls, dims, arch=None, seed=0, map_scale=0.25, core_scale=0.3):
        """Structured random model, usable as a synthetic data generator.

        Maps are random perturbations of the identity and A(d) is biased
        toward -I, so random instances are well conditioned and stable near
        the origin.
        """
        model = cls(dims, arch)
        biases = ((-np.eye(dims.ny)).reshape(-1), np.eye(dims.ny, dims.nu).reshape(-1), None)
        return model._draw(seed, map_scale, core_scale, biases)

    @classmethod
    def for_training(cls, dims, dataset, arch=None, seed=0, map_scale=0.05):
        """Fresh trainable model: scalers frozen from `dataset`, near-identity
        maps, and the linear core warm-started by least squares on the scaled
        records (treating the maps as identity)."""
        dataset.check_dims(dims)
        scalers = {"y": Scaler.fit(dataset.y), "v": Scaler.fit(dataset.v),
                   "d": Scaler.fit(dataset.d), "z": Scaler.fit(dataset.z)}
        ys = scalers["y"].transform(dataset.y)
        vs = scalers["v"].transform(dataset.v)
        target = dataset.y_dot / scalers["y"].std
        design = np.concatenate([ys, vs, np.ones((len(ys), 1))], axis=1)
        coef = np.linalg.lstsq(design, target, rcond=None)[0]
        ny, nu = dims.ny, dims.nu
        biases = (coef[:ny].T.reshape(-1), coef[ny:ny + nu].T.reshape(-1), coef[ny + nu])
        return cls(dims, arch, scalers=scalers)._draw(seed, map_scale, map_scale, biases)

    def _draw(self, seed, map_scale, core_scale, core_biases):
        """Random parameters in one fixed draw order: the map nets, then the
        core's A, B and c nets with `core_biases` as their last biases, then
        Xi at scale 0.5."""
        if not (map_scale >= 0 and core_scale >= 0):
            raise ValidationError("map_scale and core_scale must be nonnegative")
        rng = np.random.default_rng(seed)
        for net in self.state_map.nets + self.input_map.nets:
            net.init(self.params, rng, scale=1.0, out_scale=map_scale)
        for net, bias in zip((self.a_net, self.b_net, self.c_net), core_biases):
            net.init(self.params, rng, scale=1.0, out_scale=core_scale, last_bias=bias)
        self.z_map.init(self.params, rng, scale=0.5)
        self.validate()
        return self

    # -- coordinate maps ---------------------------------------------------

    def _batch(self, **named):
        """Coerce named physical channels to a common (N, dim) batch.

        Returns (arrays dict, single) where `single` is True when every
        argument came in one-dimensional; y, v and d also come back
        standardized, as ys, vs and ds.
        """
        ny, nu, nd = self.dims.ny, self.dims.nu, self.dims.nd
        widths = {"y": ny, "x": ny, "v": nu, "u": nu, "d": nd, "d_dot": nd}
        out = {}
        single = True
        rows = 1
        for name, arr in named.items():
            a = np.asarray(arr, dtype=np.float64)
            dim = widths[name]
            if a.ndim == 0 and dim == 1:
                a = a.reshape(1)
            if a.ndim == 1:
                a = a[None, :]
            elif a.ndim == 2:
                single = False
            else:
                raise ShapeError(f"{name}: expected (dim,) or (N, dim), got {a.shape}")
            if a.shape[1] != dim:
                raise ShapeError(f"{name}: expected {dim} channels, got {a.shape[1]}")
            rows = max(rows, a.shape[0])
            out[name] = a
        for name, a in out.items():
            if a.shape[0] == 1 and rows > 1:
                out[name] = np.broadcast_to(a, (rows, a.shape[1]))
            elif a.shape[0] != rows:
                raise ShapeError(f"{name}: batch size {a.shape[0]} != {rows}")
        for name in ("y", "v", "d"):
            if name in out:
                out[name + "s"] = self.scalers[name].transform(out[name])
        return out, single

    def _cond(self, b):
        return np.concatenate([b["ys"], b["ds"]], axis=-1)

    def _core(self, params, ds):
        return self.core.memo(params, ds, self._core_maps)

    def _core_maps(self, params, ds):
        ny, nu = self.dims.ny, self.dims.nu
        A, B, c = mlps(self.core, params, ds)
        return reshape(A, A.shape[:-1] + (ny, ny)), reshape(B, B.shape[:-1] + (ny, nu)), c

    def x_from_y(self, y, d):
        b, single = self._batch(y=y, d=d)
        return _unbatch(single, self.state_map.forward(self.params, b["ys"], b["ds"]))

    def y_from_x(self, x, d):
        b, single = self._batch(x=x, d=d)
        phi = self.state_map.coefficients(self.params, b["ds"])
        return _unbatch(single, self._y_with(phi, b["x"]))

    def u_from_v(self, v, y, d):
        b, single = self._batch(v=v, y=y, d=d)
        return _unbatch(single, self.input_map.inverse(self.params, b["vs"], self._cond(b)))

    def v_from_u(self, u, y, d):
        b, single = self._batch(u=u, y=y, d=d)
        psi = self.input_map.coefficients(self.params, self._cond(b))
        return _unbatch(single, self._v_with(psi, b["u"]))

    def u_from_v_with_jac(self, v, y, d):
        """u = Psi^{-1}(v,y,d) and its physical Jacobians du/dy, du/dd."""
        b, single = self._batch(v=v, y=y, d=d)
        psi = self.input_map.coefficients(self.params, seed(self._cond(b)))
        return _unbatch(single, *self._u_with(psi, b["v"]))

    def state_jacobians(self, y, d):
        """x = Phi(y,d) with physical Jacobians dx/dy and dx/dd."""
        b, single = self._batch(y=y, d=d)
        x, J_y, J_d = self.state_map.forward_with_jacobians(self.params, b["ys"], b["ds"])
        return _unbatch(single, x, J_y / self.scalers["y"].std, J_d / self.scalers["d"].std)

    def linear_core(self, d):
        """A(d), B(d), c(d) of the latent dynamics; for a single d they may be
        the read-only arrays `MlpStack.memo` keeps, so copy before writing."""
        b, single = self._batch(d=d)
        return _unbatch(single, *self._core(self.params, b["ds"]))

    def maps_at(self, x, d):
        """`PointMaps` at one latent state x (ny,) under d (nd,).  Bit for bit
        what y_from_x, u_from_v_with_jac and v_from_u give, but Phi's and Psi's
        conditioning run once, however often the two maps are called.  The last
        point is kept, y and dx_dy read-only, and returned while x and d repeat
        in shape and bytes and Phi's and Psi's packed weights are current.
        """
        x, d = np.asarray(x, dtype=np.float64), np.asarray(d, dtype=np.float64)
        key = x.shape, d.shape, x.tobytes(), d.tobytes()
        kept, stacks = self._point, (self.state_map.stack, self.input_map.stack)
        if (kept is not None and kept[0] == key and kept[1] is stacks[0]._pack(self.params)
                and kept[2] is stacks[1]._pack(self.params)):
            return kept[3]
        b, _ = self._batch(x=x, d=d)
        sy = self.scalers["y"]
        phi = self.state_map.coefficients(self.params, b["ds"])
        y = self._y_with(phi, b["x"])
        b["ys"] = sy.transform(y)
        dx_dy = self.state_map.jacobians_with(phi, b["ys"])[1] / sy.std
        psi = self.input_map.coefficients(self.params, seed(self._cond(b)))
        psi_row = [[t.val[0] for t in layer] for layer in psi]
        maps = PointMaps(*_read_only((y[0], dx_dy[0])), lambda v: self._u_with(psi, v)[:2],
                         lambda u: self._v_with(psi_row, u))
        # the packed weights the evaluation above ran on
        self._point = key, stacks[0]._packed, stacks[1]._packed, maps
        return maps

    # the maps on Phi's and Psi's conditioning outputs (`coefficients`)
    def _y_with(self, phi, x):
        return self.scalers["y"].inverse(self.state_map.inverse_with(phi, x))

    def _v_with(self, psi, u):
        return self.scalers["v"].inverse(self.input_map.forward_with(psi, u))

    def _u_with(self, psi, v):
        """u and its physical Jacobians du/dy, du/dd from Psi's tangent conditioning."""
        u = self.input_map.inverse_with(psi, self.scalers["v"].transform(v))
        ny = self.dims.ny
        return (u.val, u.tan[..., :ny] / self.scalers["y"].std,
                u.tan[..., ny:] / self.scalers["d"].std)

    def z_from_latent(self, x, u, d, with_gradients=False):
        """zhat = Xi(x,u,d); optionally also dz/dx and dz/du."""
        b, single = self._batch(x=x, u=u, d=d)
        xi = np.concatenate([b["x"], b["u"]], axis=-1)
        sz = self.scalers["z"]
        if not with_gradients:
            return _unbatch(single, sz.inverse(self.z_map.forward(self.params, xi, b["ds"])))
        zs = self.z_map.forward(self.params, seed(xi), b["ds"])
        G = zs.tan * sz.std[:, None]
        ny = self.dims.ny
        return _unbatch(single, sz.inverse(zs.val), G[..., :ny], G[..., ny:])

    # -- predictions --------------------------------------------------------

    def predict_ydot(self, v, y, d, d_dot, z_out=None):
        """Output-derivative prediction; Jacobian inverse applied by dense solve.
        At d_dot = 0 Phi runs on array coefficients (x_from_y's kept entry).
        Given `z_out`, shaped as `predict_z`'s result, it receives z at this
        prediction's own x and u, bit for bit `predict_z(v, y, d)`."""
        b, single = self._batch(v=v, y=y, d=d, d_dot=d_dot)
        ds = b["ds"]
        dds = b["d_dot"] / self.scalers["d"].std
        nd = ds.shape[-1] if dds.any() else 0
        # an overflowing Jacobian pass shows up in the checks that follow
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self.state_map.coefficients(self.params, seed(ds) if nd else ds)
            x, J = self.state_map.jacobians_with(phi, b["ys"])
        J_y = J[..., nd:]
        check_conditioning(J_y, "state-map output Jacobian")
        u = self.input_map.inverse(self.params, b["vs"], self._cond(b))
        A, B, c = self._core(self.params, ds)
        rhs = np.einsum("bij,bj->bi", A, x) + np.einsum("bij,bj->bi", B, u) + c
        if nd:
            rhs = rhs - np.einsum("bij,bj->bi", J[..., :nd], dds)
        ydot = np.linalg.solve(J_y, rhs[..., None])[..., 0] * self.scalers["y"].std
        if z_out is not None:
            z = _unbatch(single, self.z_from_latent(x, u, b["d"]))
            if np.shape(z_out) != z.shape:
                raise ShapeError(f"z_out: expected shape {z.shape}, got {np.shape(z_out)}")
            z_out[...] = z
        return _unbatch(single, ydot)

    def predict_z(self, v, y, d):
        """Constrained-output prediction zhat = Xi(Phi(y,d), Psi^{-1}(v,y,d), d)."""
        b, single = self._batch(v=v, y=y, d=d)
        x = self.state_map.forward(self.params, b["ys"], b["ds"])
        u = self.input_map.inverse(self.params, b["vs"], self._cond(b))
        return _unbatch(single, self.z_from_latent(x, u, b["d"]))

    # -- training loss -------------------------------------------------------

    def _loss_fn(self, q_e, n_records):
        """Graph-building closure for the mean weighted squared error."""

        def fn(**kw):
            pt = {k: kw[k] for k in self.params}
            Y, V, D, DDOT = kw["y"], kw["v"], kw["d"], kw["d_dot"]
            ys = self.scalers["y"].transform(Y)
            ds = self.scalers["d"].transform(D)
            vs = self.scalers["v"].transform(V)
            x = self.state_map.forward(pt, ys, ds)
            J_y, J_d = ad.jacobian_rows(x, [Y, D])
            u = self.input_map.inverse(pt, vs, ad.concat([ys, ds], axis=-1))
            A, B, c = self._core(pt, ds)
            rhs = ad.sub(ad.add(ad.add(ad.matvec(A, x), ad.matvec(B, u)), c),
                         ad.matvec(J_d, DDOT))
            ydot_hat = ad.squeeze(ad.solve(J_y, ad.expand_dims(rhs, -1)), -1)
            zs = self.z_map.forward(pt, ad.concat([x, u], axis=-1), ds)
            z_hat = self.scalers["z"].inverse(zs)
            e = ad.concat([ad.sub(ydot_hat, kw["ydot"]), ad.sub(z_hat, kw["z"])], axis=-1)
            weighted = ad.mul(ad.matmul(e, ad.constant(q_e)), e)
            return ad.mul(ad.sum(weighted), 1.0 / n_records)

        return fn

    def loss_graph(self, q_e, n_records):
        fn = self._loss_fn(np.asarray(q_e, dtype=np.float64), n_records)
        return ad.Graph(fn, self.params, ("v", "y", "d", "d_dot", "ydot", "z"))


def loss(model: ELModel, batch, q_e) -> float:
    """Mean weighted squared prediction error over the batch records."""
    if len(batch) == 0:
        raise ValidationError("loss requires a nonempty batch")
    g = model.loss_graph(q_e, len(batch))
    out = ad.evaluate(g, {"v": batch.v, "y": batch.y, "d": batch.d,
                          "d_dot": batch.d_dot, "ydot": batch.y_dot, "z": batch.z})
    return float(out.data)


# ---------------------------------------------------------------------------
# trajectory data

def _grid_derivative(x, dt):
    """Second-order finite differences on a uniform grid (one-sided at ends)."""
    if x.shape[0] < 3:
        raise ValidationError("need at least 3 samples to difference a signal")
    dx = np.empty_like(x)
    dx[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    dx[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * dt)
    dx[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * dt)
    return dx


def _fd_tol(value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 0:
        raise ValidationError(f"fd_tol must be a number >= 0, got {value!r}")
    return float(value)


class TrajectoryDataset:
    """Uniformly sampled records (t, v, d, d_dot, y, y_dot, z).

    Derivative channels not supplied are computed by central differences on
    the uniform grid (second-order one-sided at the ends).  Construction
    validates the grid, finiteness, and that stored derivatives agree with
    differenced signals to within `fd_tol` relative to the channel scale
    (an `fd_tol` of inf skips that check).
    """

    def __init__(self, t, v, d, y, z, d_dot=None, y_dot=None, fd_tol=1e-2):
        self.t = np.asarray(t, dtype=np.float64).reshape(-1)
        n = self.t.shape[0]

        def col(name, a, width=None):
            a = np.asarray(a, dtype=np.float64)
            if a.ndim == 1:
                a = a[:, None]
            if a.shape[0] != n:
                raise ValidationError(f"{name}: {a.shape[0]} rows != {n} time samples")
            if width is not None and a.shape[1] != width:
                raise ValidationError(f"{name}: {a.shape[1]} columns != {width}")
            return a

        self.v = col("v", v)
        self.d = col("d", d)
        self.y = col("y", y)
        self.z = col("z", z)
        self.fd_tol = _fd_tol(fd_tol)
        period = float(self.t[1] - self.t[0]) if n > 1 else 0.0
        self.y_dot = (col("y_dot", y_dot, self.y.shape[1]) if y_dot is not None
                      else _grid_derivative(self.y, period))
        self.d_dot = (col("d_dot", d_dot, self.d.shape[1]) if d_dot is not None
                      else _grid_derivative(self.d, period))
        self.validate()

    def __len__(self):
        return self.t.shape[0]

    @property
    def period(self):
        if len(self) < 2:
            raise ValidationError("period undefined for fewer than 2 samples")
        return float(self.t[1] - self.t[0])

    def validate(self):
        for name in ("t", "v", "d", "d_dot", "y", "y_dot", "z"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"non-finite values in {name}")
        if len(self) >= 2:
            steps = np.diff(self.t)
            if np.any(steps <= 0):
                raise ValidationError("time stamps must be strictly increasing")
            if np.max(np.abs(steps - self.period)) > 1e-6 * max(self.period, 1e-12):
                raise ValidationError("time grid is not uniform")
        if len(self) >= 3:
            self._check_fd("y", self.y, self.y_dot)
            self._check_fd("d", self.d, self.d_dot)

    def _check_fd(self, name, signal, stored):
        # the central difference is the mean of the derivative over two
        # periods: near the range of the stored values at k-1, k and k+1,
        # even across the jump a piecewise-constant input puts in y_dot
        fd = (signal[2:] - signal[:-2]) / (2.0 * self.period)
        near = np.stack([stored[:-2], stored[1:-1], stored[2:]])
        scale = 1.0 + np.max(np.abs(stored))
        err = np.max(np.maximum(fd - near.max(axis=0), near.min(axis=0) - fd))
        if err > self.fd_tol * scale:
            raise ValidationError(
                f"{name}_dot disagrees with differenced {name}: "
                f"max error {err:.3e} > {self.fd_tol:.1e} * {scale:.3e}")

    def check_dims(self, dims, source="dataset"):
        """ValidationError naming `source` unless the channel counts are `dims`'."""
        counts = tuple(a.shape[1] for a in (self.y, self.v, self.d, self.z))
        if counts != dataclasses.astuple(dims):
            raise ValidationError(f"{source}: channel counts {counts} do not match {dims}")

    def segment(self, start, stop):
        """Contiguous sub-dataset keeping the stored derivatives."""
        sl = slice(start, stop)
        return TrajectoryDataset(self.t[sl], self.v[sl], self.d[sl], self.y[sl],
                                 self.z[sl], d_dot=self.d_dot[sl],
                                 y_dot=self.y_dot[sl], fd_tol=self.fd_tol)


def write_table(path, header, rows):
    """CSV with one header line; numbers as %.17g so float64 round trips exactly."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row) + "\n")


def _header(widths):
    """Column names of (name, width) blocks: `name` for width None, else numbered from 1."""
    return [name if width is None else f"{name}{i + 1}"
            for name, width in widths for i in range(1 if width is None else width)]


def write_blocks(path, blocks):
    """`write_table` for named blocks of channels: a 1-D block is one column."""
    write_table(path, _header((name, arr.shape[1] if arr.ndim == 2 else None)
                              for name, arr in blocks),
                np.column_stack([arr for _, arr in blocks]).tolist())


# the dataset CSV's column blocks in file order, each with the attribute it holds
_CSV_BLOCKS = {"t": "t", "v": "v", "d": "d", "y": "y", "z": "z", "ydot": "y_dot", "ddot": "d_dot"}


def _sidecar(dataset):
    """The sidecar `write_csv` writes with `dataset`, the only one `read_csv` accepts."""
    return {"format_version": 1, "period": dataset.period if len(dataset) > 1 else None,
            "fd_tol": dataset.fd_tol, "units": {"t": "s"}}


def write_csv(dataset: TrajectoryDataset, path):
    """Write the dataset as CSV (values as %.17g, so float64 round trips
    exactly) plus its sidecar; returns the two paths."""
    write_blocks(path, [(name, getattr(dataset, attr)) for name, attr in _CSV_BLOCKS.items()])
    sidecar = f"{path}.meta.json"
    with open(sidecar, "w") as f:
        json.dump(_sidecar(dataset), f, sort_keys=True, indent=1)
        f.write("\n")
    return [path, sidecar]


def read_csv(path):
    """Read a dataset as `write_csv` writes it, with the sidecar optional (fd_tol
    then takes its default); anything else raises ValidationError naming the file."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        body = f.read()
    base = [column.rstrip("0123456789") for column in header]
    widths = [None] + [base.count(name) for name in list(_CSV_BLOCKS)[1:]]
    if 0 in widths or header != _header(zip(_CSV_BLOCKS, widths)):
        raise ValidationError(f"{path}: header {','.join(header)} is not t, then the "
                              f"{', '.join(list(_CSV_BLOCKS)[1:])} channels numbered from 1")
    if not body.strip():
        raise ValidationError(f"{path}: no data rows")
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: not a numeric table ({exc})") from None
    if table.shape[1] != len(header):
        raise ValidationError(f"{path}: {table.shape[1]} columns != header {len(header)}")
    sidecar = f"{path}.meta.json"
    try:
        with open(sidecar) as f:
            meta = json.load(f)
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
    except FileNotFoundError:
        meta = None
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{sidecar}: unreadable ({exc})") from None
    try:
        fd_tol = 1e-2 if meta is None else _fd_tol(meta.get("fd_tol"))
    except ValidationError as exc:
        raise ValidationError(f"{sidecar}: {exc}") from None
    try:
        dataset = TrajectoryDataset(
            **{attr: table[:, [i for i, b in enumerate(base) if b == name]]
               for name, attr in _CSV_BLOCKS.items()}, fd_tol=fd_tol)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    declared = json.dumps(_sidecar(dataset), sort_keys=True)
    if meta is not None and json.dumps(meta, sort_keys=True) != declared:
        raise ValidationError(f"{sidecar}: not the sidecar of its dataset, {declared}")
    return dataset


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 256
    step_size: float = 1e-2
    decay: float = 1.0          # per-epoch multiplicative step-size factor
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValidationError("epochs must be >= 0 and batch_size >= 1")
        if not (0.0 < self.step_size and 0.0 < self.decay <= 1.0):
            raise ValidationError("step_size must be > 0 and decay in (0, 1]")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValidationError("val_fraction must be in [0, 1)")


def default_q_e(dataset: TrajectoryDataset):
    """Diagonal weight: inverse variance per target channel (ydot then z)."""
    targets = np.concatenate([dataset.y_dot, dataset.z], axis=1)
    var = targets.var(axis=0)
    return np.diag(1.0 / np.maximum(var, 1e-12))


def train(model: ELModel, data: TrajectoryDataset, cfg: TrainConfig):
    """Fit the model parameters by minibatch gradient descent on `loss`.

    The last `val_fraction` of the records (contiguous in time, so no
    leakage across adjacent samples) is held out; per-epoch train and
    validation losses are returned as the history.  Deterministic for a
    fixed (seed, data, config).  On divergence the error carries the last
    finite parameter checkpoint.
    """
    data.validate()
    q_e = default_q_e(data)
    if q_e.shape[0] != model.dims.ny + model.dims.nz:
        raise ValidationError(f"q_e must be {model.dims.ny + model.dims.nz} wide")
    n = len(data)
    n_val = int(round(cfg.val_fraction * n))
    n_train = n - n_val
    if n_train < 1:
        raise ValidationError("validation split leaves no training data")
    arrays = {"v": data.v, "y": data.y, "d": data.d, "d_dot": data.d_dot,
              "ydot": data.y_dot, "z": data.z}
    tr = {k: a[:n_train] for k, a in arrays.items()}
    va = {k: a[n_train:] for k, a in arrays.items()}

    rng = np.random.default_rng(cfg.seed)
    params = {k: p.copy() for k, p in model.params.items()}
    trained = model.clone(params)
    m1 = {k: np.zeros_like(p) for k, p in params.items()}
    m2 = {k: np.zeros_like(p) for k, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step_count = 0
    history = {"train": [], "val": []}
    checkpoint = {k: p.copy() for k, p in params.items()}

    programs = {}

    def batch_loss(arrays, with_gradient=True):
        """Loss and gradients of a batch.  The first batch of each shape runs
        the graph and records it as an `ad.Program`, and later ones replay
        that; every training shape comes before the validation set's."""
        count, leaves = len(arrays["y"]), {**trained.params, **arrays}
        program = programs.get(count)
        if program is None:
            with ad.recording() as program:
                g = trained.loss_graph(q_e, count)
                value = ad.evaluate(g, arrays).data
                grads = ad.gradient(g) if with_gradient else None
            programs[count] = program.finish(leaves, {"loss": value, **(grads or {})})
        else:
            value, grads = program.run(leaves, with_gradient)
        return float(value), grads

    for epoch in range(cfg.epochs):
        step = cfg.step_size * cfg.decay ** epoch
        perm = rng.permutation(n_train)
        epoch_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            sel = perm[start:start + cfg.batch_size]
            batch = {k: a[sel] for k, a in tr.items()}
            try:
                value, grads = batch_loss(batch)
            except (NonFiniteError, np.linalg.LinAlgError) as exc:
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}",
                    checkpoint=checkpoint, epoch=epoch) from exc
            epoch_sum += value * len(sel)
            norm = np.sqrt(
                np.sum([float(np.sum(np.square(gv))) for gv in grads.values()]))
            clip = min(1.0, GRAD_CLIP_NORM / norm) if norm > 0 else 1.0
            step_count += 1
            bias1 = 1.0 - beta1 ** step_count
            bias2 = 1.0 - beta2 ** step_count
            for k in params:
                gk = grads[k] * clip
                m1[k] = beta1 * m1[k] + (1.0 - beta1) * gk
                m2[k] = beta2 * m2[k] + (1.0 - beta2) * np.square(gk)
                params[k] = params[k] - step * (m1[k] / bias1) / (
                    np.sqrt(m2[k] / bias2) + eps)
            trained.params = params
        history["train"].append(epoch_sum / n_train)
        if n_val:
            try:
                val_value, _ = batch_loss(va, with_gradient=False)
            except (NonFiniteError, np.linalg.LinAlgError) as exc:
                raise TrainingDivergedError(
                    f"validation loss diverged in epoch {epoch}",
                    checkpoint=checkpoint, epoch=epoch) from exc
            history["val"].append(val_value)
        checkpoint = {k: p.copy() for k, p in params.items()}

    trained.params = params
    trained.validate()
    return trained, history


# ---------------------------------------------------------------------------
# model file io

def _write_npz(path, arrays):
    """Deterministic npz: fixed entry order and timestamps, no compression."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            npformat.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def _container(model):
    """The container of `model` in file order: `__meta__`, the metadata JSON
    as bytes, then the float64 entries `ELModel.entry_shapes` declares."""
    meta = {"format_version": 1,
            "dims": list(dataclasses.astuple(model.dims)), "arch": dataclasses.asdict(model.arch)}
    entries = {"__meta__": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), np.uint8)}
    entries.update((f"scaler.{name}.{part}", getattr(model.scalers[name], part))
                   for name in "yvdz" for part in ("mean", "std"))
    entries.update((f"param.{key}", model.params[key]) for key in sorted(model.params))
    return entries


def save_model(model: ELModel, path):
    """Write a self-describing container; parameters round trip bit-exactly."""
    _write_npz(path, _container(model))


def _npy(zf, name, dtype, shape):
    """Entry `name` of `zf`, refused unless its npy header, read first, declares
    `dtype` and `shape` (None: any length), and unless its values are finite."""
    with zf.open(f"{name}.npy") as fh:
        npformat.read_magic(fh)
        header = npformat.read_array_header_1_0(fh)
        if header != (header[0][:1] if shape is None else shape, False, np.dtype(dtype)):
            raise ValidationError(f"entry {name}: npy header {header}, not {dtype} {shape}")
        arr = np.frombuffer(bytearray(fh.read()), dtype).reshape(header[0])
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"entry {name} has non-finite values")
    return arr


def load_model(path) -> ELModel:
    """Read a container as `save_model` writes it: the metadata's dims and arch
    declare every entry.  Anything else raises ValidationError naming the
    file; a missing file raises OSError."""
    try:
        with zipfile.ZipFile(path) as zf:
            meta = bytes(_npy(zf, "__meta__", np.uint8, None))
            try:
                fields = json.loads(meta)
                dims, arch = ModelDims(*fields["dims"]), fields["arch"]
            except (TypeError, KeyError):
                raise ValidationError(f"metadata {meta.decode()} lacks dims or arch") from None
            model = ELModel(dims, ModelArch(**_read_fields(ModelArch, arch, "metadata.arch")))
            if meta != _container(model)["__meta__"].tobytes():
                raise ValidationError(f"metadata {meta.decode()} is not as save_model writes it")
            want = {f"{name}.npy" for name in ["__meta__", *model.entry_shapes()]}
            if sorted(zf.namelist()) != sorted(want):
                raise ValidationError(f"missing or extra entries {sorted({*zf.namelist()} ^ want)}")
            data = {name.removeprefix("param."): _npy(zf, name, np.float64, shape)
                    for name, shape in model.entry_shapes().items()}
        scalers = {name: Scaler(*(data.pop(f"scaler.{name}.{part}") for part in ("mean", "std")))
                   for name in "yvdz"}
        return ELModel(dims, model.arch, scalers, data)
    except (zipfile.BadZipFile, ValueError, EOFError, KeyError) as exc:
        raise ValidationError(f"{path}: not a model container ({exc})") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
